"""Rate tables: loading, synthesis, planting, and the log transform.

Frozen expected values:
    -ln(0.85) = 0.16251892949777491   (high-precision evaluation)
    -ln(0.85) - ln(1.17) - ln(1.40) = -0.33095705593310277
"""

import io
import itertools
import math
import re

import numpy as np
import pytest

from arbqubo import (
    DuplicateEntry,
    IncompleteMatrix,
    InvalidCycle,
    InvalidRate,
    InvalidSize,
    InvalidStrength,
    LogWeightMatrix,
    ParamError,
    TooLarge,
    RateMatrix,
    cycle_product,
    dump_rates_csv,
    dump_rates_json,
    generate_consistent,
    load_rates,
    plant_cycle,
    to_log_weights,
)
from arbqubo.oracle import best_cycle_bruteforce

from conftest import fig1_csv_bytes

NEG_LN_085 = 0.16251892949777491
FIG1_W_SUM = -0.33095705593310277


class TestLoadRates:
    def test_fig1_csv(self):
        rm = load_rates(io.BytesIO(fig1_csv_bytes()), "csv")
        assert rm.labels == ("USD", "EUR", "GBP")
        assert rm.rate[rm.index_of("USD"), rm.index_of("EUR")] == 0.85
        assert rm.rate[rm.index_of("EUR"), rm.index_of("GBP")] == 1.17
        assert rm.rate[rm.index_of("GBP"), rm.index_of("USD")] == 1.40

    def test_labels_in_first_appearance_order(self):
        text = (
            b"from,to,rate\nGBP,USD,1.4\nUSD,EUR,0.85\nEUR,GBP,1.17\n"
            b"USD,GBP,0.7\nEUR,USD,1.2\nGBP,EUR,0.8\n"
        )
        rm = load_rates(text, "csv")
        assert rm.labels == ("GBP", "USD", "EUR")
        assert rm.rate.tolist() == [[1.0, 1.4, 0.8], [0.7, 1.0, 0.85], [1.17, 1.2, 1.0]]
        # Pairs are checked in label order, so the first missing one is named.
        with pytest.raises(IncompleteMatrix, match="missing pair USD->GBP"):
            load_rates(text.replace(b"USD,GBP,0.7\n", b"EUR,EUR,1\n"), "csv")

    def test_blank_rows_skipped_and_cells_stripped(self):
        text = b"from,to,rate\n\n , , \n A , B , 0.85 \nB,A,1.2\n"
        rm = load_rates(text, "csv")
        assert rm.labels == ("A", "B")
        assert rm.rate.tolist() == [[1.0, 0.85], [1.2, 1.0]]

    def test_bytes_input_accepted(self):
        rm = load_rates(fig1_csv_bytes(), "csv")
        assert rm.n == 3

    def test_missing_pairs_rejected(self):
        text = b"from,to,rate\nUSD,USD,1\nEUR,EUR,1\n"
        with pytest.raises(IncompleteMatrix):
            load_rates(text, "csv")

    def test_missing_reverse_edge_rejected(self):
        text = b"from,to,rate\nUSD,EUR,0.85\n"
        with pytest.raises(IncompleteMatrix):
            load_rates(text, "csv")

    def test_first_missing_pair_in_row_major_label_order(self):
        # B->A and C->B are both missing; B->A comes first in label order.
        text = b"from,to,rate\nA,B,1.1\nB,C,1.2\nC,A,0.9\nA,C,1.3\n"
        with pytest.raises(IncompleteMatrix, match="^missing pair B->A$"):
            load_rates(text, "csv")

    def test_csv_bytes_round_trip_at_n_200(self):
        # The market `gen --n 200 --seed 3 --plant 0,1,2` writes.
        data = dump_rates_csv(plant_cycle(generate_consistent(200, 3), (0, 1, 2), 1.05))
        assert dump_rates_csv(load_rates(data, "csv")) == data

    def test_negative_rate_rejected_json(self):
        payload = b'{"labels": ["USD", "EUR"], "rates": [[1, -1], [1.2, 1]]}'
        with pytest.raises(InvalidRate):
            load_rates(payload, "json")

    def test_duplicate_pair_rejected(self):
        text = b"from,to,rate\nUSD,EUR,0.85\nUSD,EUR,0.86\nEUR,USD,1.2\n"
        with pytest.raises(DuplicateEntry):
            load_rates(text, "csv")

    def test_json_round_trip(self, fig1):
        again = load_rates(dump_rates_json(fig1), "json")
        assert again.labels == fig1.labels
        assert np.array_equal(again.rate, fig1.rate)

    def test_csv_round_trip(self, fig1):
        again = load_rates(dump_rates_csv(fig1), "csv")
        assert again.labels == fig1.labels
        assert np.array_equal(again.rate, fig1.rate)

    def test_bad_self_rate_rejected(self):
        text = b"from,to,rate\nUSD,EUR,0.85\nEUR,USD,1.2\nUSD,USD,2.0\n"
        with pytest.raises(InvalidRate):
            load_rates(text, "csv")


class TestRateMatrixInvariants:
    def test_diagonal_must_be_one(self):
        rate = np.array([[1.0, 2.0], [0.5, 1.1]])
        with pytest.raises(InvalidRate):
            RateMatrix(labels=("A", "B"), rate=rate)

    def test_too_small(self):
        with pytest.raises(InvalidSize):
            RateMatrix(labels=("A",), rate=np.array([[1.0]]))

    def test_rates_are_read_only(self, fig1):
        with pytest.raises(ValueError):
            fig1.rate[0, 1] = 2.0


class TestGenerateConsistent:
    def test_every_cycle_product_is_one(self):
        rm = generate_consistent(3, seed=11)
        for length in (2, 3):
            for cyc in itertools.permutations(range(3), length):
                assert cycle_product(rm, cyc) == pytest.approx(1.0, rel=1e-12)

    def test_deterministic(self):
        a = generate_consistent(5, seed=7)
        b = generate_consistent(5, seed=7)
        assert np.array_equal(a.rate, b.rate)

    def test_oracle_sees_no_arbitrage(self):
        rm = generate_consistent(5, seed=7)
        result = best_cycle_bruteforce(rm, max_len=5)
        assert not result.has_arbitrage
        assert result.best_profit == pytest.approx(1.0, abs=1e-9)

    def test_rejects_tiny_n(self):
        with pytest.raises(InvalidSize):
            generate_consistent(1, seed=0)

    @pytest.mark.parametrize("n", [2049, 10**7])
    def test_rejects_n_past_the_qubo_guard(self, n):
        # 2048 currencies at loop length 2 are the 4096-variable QUBO
        # guard; 10^7 currencies would need 800 TB of rates.
        with pytest.raises(TooLarge, match="exceeds 2048"):
            generate_consistent(n, seed=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ParamError, match="seed must be non-negative, got -1"):
            generate_consistent(4, seed=-1)


class TestPlantCycle:
    def test_planted_product(self):
        base = generate_consistent(4, seed=3)
        planted = plant_cycle(base, (0, 1, 2), strength=1.05)
        assert cycle_product(planted, (0, 1, 2)) == pytest.approx(1.05, rel=1e-12)

    def test_changes_exactly_one_entry(self):
        base = generate_consistent(4, seed=3)
        planted = plant_cycle(base, (0, 1, 2), strength=1.05)
        diff = planted.rate != base.rate
        assert diff.sum() == 1
        assert diff[0, 1]

    def test_strength_must_exceed_one(self):
        base = generate_consistent(4, seed=3)
        with pytest.raises(InvalidStrength):
            plant_cycle(base, (0, 1, 2), strength=1.0)

    def test_repeated_index_rejected(self):
        base = generate_consistent(4, seed=3)
        with pytest.raises(InvalidCycle):
            plant_cycle(base, (0, 1, 0), strength=1.05)

    def test_planted_profit_is_oracle_best(self):
        # Boosting one edge lifts every cycle through it by the same
        # factor, so the oracle's best profit is exactly the strength and
        # the planted cycle attains it.
        base = generate_consistent(4, seed=3)
        planted = plant_cycle(base, (0, 1, 2), strength=1.05)
        result = best_cycle_bruteforce(planted, max_len=4)
        assert result.best_profit == pytest.approx(1.05, abs=1e-9)
        assert cycle_product(planted, (0, 1, 2)) == pytest.approx(
            result.best_profit, abs=1e-9
        )

    def test_planted_two_cycle_is_returned(self):
        base = generate_consistent(4, seed=3)
        planted = plant_cycle(base, (0, 1), strength=1.05)
        result = best_cycle_bruteforce(planted, max_len=4)
        assert result.best_cycle == (0, 1, 0)
        assert result.best_profit == pytest.approx(1.05, abs=1e-9)


class TestLogWeights:
    def test_unit_rate_maps_to_zero(self):
        rm = generate_consistent(2, seed=0)
        w = to_log_weights(rm)
        assert w.w[0, 0] == 0.0
        assert w.w[1, 1] == 0.0

    def test_frozen_value_for_085(self, fig1):
        w = to_log_weights(fig1)
        i, j = fig1.index_of("USD"), fig1.index_of("EUR")
        assert w.w[i, j] == pytest.approx(NEG_LN_085, abs=1e-9)

    def test_fig1_loop_weight_sum_is_negative(self, fig1):
        w = to_log_weights(fig1)
        loop = ["USD", "EUR", "GBP", "USD"]
        total = sum(
            w.w[fig1.index_of(a), fig1.index_of(b)] for a, b in zip(loop, loop[1:])
        )
        assert total == pytest.approx(-0.3310, abs=1e-4)
        assert total == pytest.approx(FIG1_W_SUM, abs=1e-12)
        assert total < 0

    def test_round_trip_reproduces_rates(self):
        rm = generate_consistent(6, seed=19)
        w = to_log_weights(rm)
        back = np.exp(-w.w)
        assert np.allclose(back, rm.rate, rtol=1e-12)

    def test_consistent_cycles_sum_to_zero(self):
        rm = generate_consistent(5, seed=2)
        w = to_log_weights(rm)
        for length in (2, 3, 4, 5):
            for cyc in itertools.permutations(range(5), length):
                loop = list(cyc) + [cyc[0]]
                total = sum(w.w[a, b] for a, b in zip(loop, loop[1:]))
                assert math.isclose(total, 0.0, abs_tol=1e-9)


class TestRejectedInput:
    """Malformed tables raise their typed error, never a raw exception."""

    @pytest.mark.parametrize(
        "payload,fmt,error",
        [
            (b"", "csv", IncompleteMatrix),
            (b"src,dst,rate\nA,B,2\nB,A,0.5\n", "csv", IncompleteMatrix),
            (b"from,to,rate\nA,B\nB,A,0.5\n", "csv", IncompleteMatrix),
            (b"from,to,rate\nA,B,two\nB,A,0.5\n", "csv", InvalidRate),
            (b"from,to,rate\nA,B,0\nB,A,0.5\n", "csv", InvalidRate),
            (b"from,to,rate\nA,A,1\n", "csv", IncompleteMatrix),
            (b"from,to,rate\nA,B,\xff\nB,A,0.5\n", "csv", IncompleteMatrix),
            (b'{"labels": ["A", "B"]', "json", IncompleteMatrix),
            (b'{"labels": ["A", "B"]}', "json", IncompleteMatrix),
            (b'{"labels": ["A", "B"], "rates": [[1, 2]]}', "json", IncompleteMatrix),
            (b'{"labels": ["A", "B"], "rates": [1, 2]}', "json", IncompleteMatrix),
            (b'{"labels": "AB", "rates": [[1, 2], [0.5, 1]]}', "json", IncompleteMatrix),
            (b'{"labels": [1, true], "rates": [[1, 2], [0.5, 1]]}', "json", IncompleteMatrix),
            (b'{"labels": ["A", "B"], "rates": [[1, "2"], [0.5, 1]]}', "json", InvalidRate),
            (b'{"labels": ["A", "B"], "rates": [[1, true], [0.5, 1]]}', "json", InvalidRate),
            (
                b'{"labels": ["A", "B"], "rates": [[1, 1%s], [0.5, 1]]}' % (b"0" * 400),
                "json",
                InvalidRate,
            ),
        ],
        ids=[
            "csv-empty", "csv-header", "csv-short-row", "csv-not-a-number",
            "csv-zero-rate", "csv-one-currency", "csv-not-utf8", "json-invalid",
            "json-missing-key", "json-short-grid", "json-rows-not-lists",
            "json-labels-string", "json-labels-not-strings", "json-string-rate",
            "json-bool-rate", "json-huge-int-rate",
        ],
    )
    def test_load_rates(self, payload, fmt, error):
        with pytest.raises(error):
            load_rates(payload, fmt)

    def test_short_row_with_a_blank_cell(self):
        # Only a row of blank cells is skipped; the error shows the row as read.
        with pytest.raises(IncompleteMatrix, match=re.escape("malformed row: [' A ', '']")):
            load_rates(b"from,to,rate\n A ,\nB,A,0.5\n", "csv")

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown rate format"):
            load_rates(fig1_csv_bytes(), "xml")

    def test_labels_must_match_the_matrix(self):
        with pytest.raises(IncompleteMatrix):
            RateMatrix(labels=("A", "B", "C"), rate=np.ones((2, 2)))

    def test_labels_must_be_unique(self):
        with pytest.raises(DuplicateEntry):
            RateMatrix(labels=("A", "A"), rate=np.ones((2, 2)))

    @pytest.mark.parametrize("cycle", [(1,), (0, 5)], ids=["too-short", "out-of-range"])
    def test_plant_cycle_guards(self, cycle):
        with pytest.raises(InvalidCycle):
            plant_cycle(generate_consistent(4, seed=1), cycle, strength=1.05)

    def test_log_weights_must_be_square(self):
        with pytest.raises(IncompleteMatrix):
            LogWeightMatrix(w=np.zeros((2, 3)))

    def test_log_weights_must_be_finite(self):
        with pytest.raises(InvalidRate):
            LogWeightMatrix(w=np.array([[0.0, np.inf], [0.0, 0.0]]))
