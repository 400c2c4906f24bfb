"""Loop encoding, Hamiltonian assembly, decoding, and weight calibration.

Key claims:
    - variable indexing is the fixed bijection flat = curr*K + (pos-1)
    - with only the rate term active, a feasible loop's energy is the sum
      of its log-rate weights (Fig.-1 triangle: -0.3310)
    - quadratic term population matches the closed-form count per family
    - with calibrated weights, every constraint-violating bitvector sits
      strictly above the best feasible loop (exhaustive, N*K <= 16)
    - among feasible loops with equal repeat counts, energy differences
      are exactly rate_weight * (ln P2 - ln P1), lower energy = more profit
    - relabeling currencies permutes the optimal loop and keeps its profit
"""

import dataclasses
import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from arbqubo import (
    DimensionError,
    HamiltonianWeights,
    ModelError,
    NotFeasible,
    ProblemShape,
    RateMatrix,
    build_qubo,
    canonical_rotation,
    decode,
    default_weights,
    encode_loop,
    generate_consistent,
    ground_state,
    model_to_json,
    plant_cycle,
    profitability,
    qubo_to_json,
    to_log_weights,
    var_index,
    var_position,
)
from arbqubo.model import EMPTY_POSITION, MULTIPLE_IN_POSITION, OPEN_LOOP

FIG1_W_SUM = -0.33095705593310277


def rate_only_weights():
    return HamiltonianWeights(rate=1.0, one_hot=0.0, endpoint=0.0, consecutive=0.0, fill=0.0)


def all_states(n_vars):
    for idx in range(1 << n_vars):
        yield tuple((idx >> (n_vars - 1 - k)) & 1 for k in range(n_vars))


def feasible_loops(shape):
    """All loops [c1..cK] with cK == c1, by direct construction."""
    n, k = shape.n_currencies, shape.loop_length
    for body in itertools.product(range(n), repeat=k - 1):
        yield list(body) + [body[0]]


def repeat_count(loop):
    return sum(1 for a, b in zip(loop, loop[1:]) if a == b)


class TestVarIndex:
    def test_first_variable(self):
        shape = ProblemShape(3, 4)
        assert var_index(0, 1, shape) == 0

    def test_mid_variable(self):
        shape = ProblemShape(3, 4)
        assert var_index(2, 3, shape) == 10

    def test_bijection(self):
        shape = ProblemShape(5, 4)
        seen = set()
        for c in range(5):
            for p in range(1, 5):
                flat = var_index(c, p, shape)
                assert var_position(flat, shape) == (c, p)
                seen.add(flat)
        assert seen == set(range(20))

    def test_out_of_range(self):
        shape = ProblemShape(3, 4)
        with pytest.raises(IndexError):
            var_index(3, 1, shape)
        with pytest.raises(IndexError):
            var_index(0, 5, shape)
        with pytest.raises(IndexError):
            var_index(0, 0, shape)

    @pytest.mark.parametrize("flat", [-1, 12])
    def test_position_of_out_of_range_index(self, flat):
        with pytest.raises(IndexError):
            var_position(flat, ProblemShape(3, 4))


class TestProblemShape:
    def test_loop_length_cap(self):
        with pytest.raises(ModelError):
            ProblemShape(3, 5)

    def test_needs_two_currencies(self):
        with pytest.raises(ModelError):
            ProblemShape(1, 2)

    def test_needs_two_positions(self):
        with pytest.raises(ModelError):
            ProblemShape(3, 1)

    def test_degenerate_length_is_flagged_trivial(self):
        assert ProblemShape(3, 2).is_trivial
        assert not ProblemShape(3, 3).is_trivial

    def test_var_count(self):
        assert ProblemShape(5, 4).n_vars == 20


class TestHamiltonianWeights:
    def test_rate_must_be_positive(self):
        with pytest.raises(ModelError):
            HamiltonianWeights(rate=0.0, one_hot=1, endpoint=-1, consecutive=0, fill=-1)

    def test_must_be_finite(self):
        with pytest.raises(ModelError):
            HamiltonianWeights(rate=1.0, one_hot=math.inf, endpoint=0, consecutive=0, fill=0)

    def test_default_signs(self):
        shape = ProblemShape(4, 4)
        w = to_log_weights(generate_consistent(4, seed=1))
        weights = default_weights(w, shape)
        assert weights.rate > 0
        assert weights.one_hot > 0
        assert weights.endpoint < 0
        assert weights.consecutive < 0
        assert weights.fill < 0


class TestEncodeDecode:
    def test_known_bit_positions(self):
        shape = ProblemShape(3, 4)
        bits = encode_loop([0, 1, 2, 0], shape)
        assert {i for i, b in enumerate(bits) if b} == {0, 5, 10, 3}

    def test_round_trip_random_loops(self):
        shape = ProblemShape(5, 4)
        rng = np.random.default_rng(8)
        for _ in range(1000):
            body = rng.integers(0, 5, size=3).tolist()
            loop = body + [body[0]]
            decoded = decode(encode_loop(loop, shape), shape)
            assert decoded.feasible
            assert decoded.loop == loop

    def test_popcount_is_loop_length(self):
        shape = ProblemShape(4, 4)
        rng = np.random.default_rng(9)
        for _ in range(50):
            body = rng.integers(0, 4, size=3).tolist()
            assert sum(encode_loop(body + [body[0]], shape)) == 4

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionError):
            encode_loop([0, 1], ProblemShape(3, 4))

    def test_all_zeros_reports_every_position_empty(self):
        shape = ProblemShape(3, 4)
        decoded = decode((0,) * 12, shape)
        assert not decoded.feasible
        empties = [v for v in decoded.violations if v.kind == EMPTY_POSITION]
        assert len(empties) == 4

    def test_crowded_position(self):
        shape = ProblemShape(3, 4)
        bits = list(encode_loop([0, 1, 2, 0], shape))
        bits[var_index(0, 2, shape)] = 1  # currency 0 joins position 2
        decoded = decode(tuple(bits), shape)
        kinds = {(v.kind, v.position) for v in decoded.violations}
        assert (MULTIPLE_IN_POSITION, 2) in kinds

    def test_open_loop(self):
        shape = ProblemShape(3, 4)
        decoded = decode(encode_loop([0, 1, 2, 1], shape), shape)
        assert [v.kind for v in decoded.violations] == [OPEN_LOOP]

    def test_decode_wrong_length(self):
        with pytest.raises(DimensionError):
            decode((0, 1), ProblemShape(3, 4))

    @pytest.mark.parametrize("scale", [2, -1, 0.7, math.nan])
    def test_decode_rejects_entries_other_than_0_or_1(self, scale):
        # A scaled loop must not decode as the loop, nor as empty positions.
        shape = ProblemShape(4, 4)
        state = np.array(encode_loop([0, 1, 2, 0], shape), dtype=float) * scale
        with pytest.raises(DimensionError, match="state entries must be 0 or 1"):
            decode(state, shape)

    def test_decode_takes_bools_and_checks_shape(self):
        shape = ProblemShape(4, 4)
        bits = np.array(encode_loop([0, 1, 2, 0], shape), dtype=bool)
        assert decode(bits, shape).loop == [0, 1, 2, 0]
        with pytest.raises(DimensionError, match="state length 15 != 16"):
            decode(bits[:-1], shape)
        with pytest.raises(DimensionError, match="vector"):
            decode(np.bool_(True), shape)
        with pytest.raises(DimensionError, match="vector"):
            decode(bits[:, None], shape)

    def test_infeasible_loop_has_no_loop(self):
        with pytest.raises(NotFeasible):
            decode((0,) * 12, ProblemShape(3, 4)).loop

    @pytest.mark.parametrize("n,k", [(2, 3), (3, 3), (3, 4)])
    def test_every_state_matches_a_var_index_reading(self, n, k):
        # Reference: each position's currencies read one var_index at a time.
        shape = ProblemShape(n, k)
        for bits in all_states(shape.n_vars):
            present = [
                [c for c in range(n) if bits[var_index(c, pos, shape)]]
                for pos in range(1, k + 1)
            ]
            decoded = decode(bits, shape)
            assert decoded.positions == [p[0] if len(p) == 1 else None for p in present]
            kinds = [
                (MULTIPLE_IN_POSITION if p else EMPTY_POSITION, pos)
                for pos, p in enumerate(present, start=1)
                if len(p) != 1
            ]
            if len(present[0]) == len(present[-1]) == 1 and present[0] != present[-1]:
                kinds.append((OPEN_LOOP, None))
            assert [(v.kind, v.position) for v in decoded.violations] == kinds


class TestBuildQubo:
    def test_fig1_loop_energy_rate_term_only(self, fig1):
        shape = ProblemShape(3, 4)
        q = build_qubo(to_log_weights(fig1), shape, rate_only_weights())
        loop = [fig1.index_of(c) for c in ("USD", "EUR", "GBP", "USD")]
        energy = q.energy(encode_loop(loop, shape))
        assert energy == pytest.approx(-0.3310, abs=1e-4)
        assert energy == pytest.approx(FIG1_W_SUM, abs=1e-12)

    def test_zero_weight_matrix_gives_zero_qubo(self):
        # All rates 1 make every log weight 0; with the four penalty
        # weights off, nothing populates the matrix.
        shape = ProblemShape(3, 3)
        rm = generate_consistent(3, seed=0)
        flat = np.ones((3, 3))
        zero_w = to_log_weights(type(rm)(labels=rm.labels, rate=flat))
        q = build_qubo(zero_w, shape, rate_only_weights())
        assert q.offset == 0.0
        assert np.all(q.upper == 0.0)

    def test_quadratic_population_count(self):
        # Families place: rate N(N-1)(K-1), one-hot K*C(N,2),
        # endpoint N, consecutive N(K-1); no overlaps for K >= 3.
        n, k = 3, 3
        shape = ProblemShape(n, k)
        w = to_log_weights(generate_consistent(n, seed=4))
        q = build_qubo(w, shape, default_weights(w, shape))
        expected = n * (n - 1) * (k - 1) + k * (n * (n - 1) // 2) + n + n * (k - 1)
        strict_upper = np.triu(q.upper, k=1)
        assert np.count_nonzero(strict_upper) == expected
        # fill term puts a coefficient on every diagonal entry
        assert np.count_nonzero(np.diag(q.upper)) == shape.n_vars

    def test_offset_tracks_endpoint_constant(self):
        shape = ProblemShape(4, 3)
        w = to_log_weights(generate_consistent(4, seed=4))
        weights = default_weights(w, shape)
        q = build_qubo(w, shape, weights)
        assert q.offset == pytest.approx(weights.endpoint * 4)

    def test_shape_mismatch_rejected(self):
        w = to_log_weights(generate_consistent(4, seed=0))
        with pytest.raises(ModelError):
            build_qubo(w, ProblemShape(3, 3), rate_only_weights())

    # sha256 over upper.tobytes(), repr(offset) and qubo_to_json of three
    # builds per shape, captured from the per-term assembly loops.  Bytes,
    # not QuboMatrix.__eq__, which takes -0.0 for 0.0.
    GOLDEN_DIGESTS = {
        (2, 2): "1cb49c7299d76c759eeb6711f8f78f5a42dac281f8dccb2bba00bd4a75d7985b",
        (3, 2): "5bcb9d206375f17f6866ae37a46ab586f5972146a1384289cdb086051fa69793",
        (3, 4): "8110ac22acb1b99fe4a6d27fb3b8d5f58418324443d128279e95b7d2d5d368f5",
        (4, 5): "1cee7f8782a502540a1e2575aaed731fcf13e2f3df1fabcd21a5c36fffd0cdb7",
        (5, 4): "b08e03d25ecca1a57dcdeae443b696740c8527f43f8bb8603d2254ca2e16488e",
        (30, 8): "a6861593601e9aacdd9593fb28a07067a78d2659d7e22569a12bfdbab6920b07",
    }

    @pytest.mark.parametrize("n, k", sorted(GOLDEN_DIGESTS))
    def test_golden_bytes(self, n, k):
        shape = ProblemShape(n, k)
        rm = plant_cycle(generate_consistent(n, seed=7), [0, 1], 1.05)
        w = to_log_weights(rm)
        ones = to_log_weights(RateMatrix(labels=rm.labels, rate=np.ones((n, n))))
        default = default_weights(w, shape)
        builds = [
            (w, default),
            (w, dataclasses.replace(default, one_hot=0.0, consecutive=0.0)),
            (ones, default_weights(ones, shape)),
        ]
        digest = hashlib.sha256()
        for ww, weights in builds:
            q = build_qubo(ww, shape, weights)
            for part in (q.upper.tobytes(), repr(q.offset).encode(), qubo_to_json(q).encode()):
                digest.update(part)
        assert digest.hexdigest() == self.GOLDEN_DIGESTS[(n, k)]


class TestProfitability:
    def test_fig1_product(self, fig1):
        shape = ProblemShape(3, 4)
        loop = [fig1.index_of(c) for c in ("USD", "EUR", "GBP", "USD")]
        decoded = decode(encode_loop(loop, shape), shape)
        assert profitability(decoded, fig1) == pytest.approx(1.39230, abs=1e-5)

    def test_trivial_two_position_loop(self):
        rm = generate_consistent(3, seed=1)
        shape = ProblemShape(3, 2)
        decoded = decode(encode_loop([1, 1], shape), shape)
        assert profitability(decoded, rm) == 1.0

    def test_log_identity_with_weights(self):
        rm = generate_consistent(5, seed=12)
        planted = plant_cycle(rm, (0, 2, 4), strength=1.2)
        w = to_log_weights(planted)
        shape = ProblemShape(5, 4)
        rng = np.random.default_rng(13)
        for _ in range(200):
            body = rng.integers(0, 5, size=3).tolist()
            loop = body + [body[0]]
            decoded = decode(encode_loop(loop, shape), shape)
            p = profitability(decoded, planted)
            w_sum = sum(w.w[a, b] for a, b in zip(loop, loop[1:]))
            assert math.log(p) == pytest.approx(-w_sum, abs=1e-9)

    def test_infeasible_rejected(self, fig1):
        shape = ProblemShape(3, 4)
        decoded = decode((0,) * 12, shape)
        with pytest.raises(NotFeasible):
            profitability(decoded, fig1)


class TestEnergyProfitLink:
    def test_equal_repeat_loops_differ_by_log_profit(self):
        rm = plant_cycle(generate_consistent(4, seed=21), (0, 1), strength=1.3)
        w = to_log_weights(rm)
        shape = ProblemShape(4, 3)
        weights = default_weights(w, shape, rate=1.7)
        q = build_qubo(w, shape, weights)
        loops = list(feasible_loops(shape))
        evaluated = [
            (loop, q.energy(encode_loop(loop, shape)), profitability(decode(encode_loop(loop, shape), shape), rm))
            for loop in loops
        ]
        pairs = 0
        for (l1, e1, p1), (l2, e2, p2) in itertools.combinations(evaluated, 2):
            if repeat_count(l1) != repeat_count(l2):
                continue
            pairs += 1
            assert e1 - e2 == pytest.approx(
                weights.rate * (math.log(p2) - math.log(p1)), abs=1e-9
            )
            # Rotations of one cycle tie in energy while their profits
            # differ by an ulp; only a real gap implies strict ordering.
            if p1 > p2 * (1 + 1e-12):
                assert e1 < e2
        assert pairs > 10


class TestConstraintDominance:
    @pytest.mark.parametrize(
        "n,k,seed",
        [(3, 4, 31), (4, 3, 32), (3, 3, 33), (4, 4, 34), (3, 2, 35)],
    )
    def test_infeasible_states_sit_above_best_feasible(self, n, k, seed):
        rm = plant_cycle(generate_consistent(n, seed=seed), (0, 1), strength=1.15)
        w = to_log_weights(rm)
        shape = ProblemShape(n, k)
        q = build_qubo(w, shape, default_weights(w, shape))
        best_feasible = math.inf
        min_infeasible = math.inf
        for bits in all_states(shape.n_vars):
            energy = q.energy(bits)
            if decode(bits, shape).feasible:
                best_feasible = min(best_feasible, energy)
            else:
                min_infeasible = min(min_infeasible, energy)
        assert best_feasible < min_infeasible


class TestRelabelingEquivariance:
    def test_permuting_labels_permutes_the_optimum(self):
        rng = np.random.default_rng(40)
        base = generate_consistent(4, seed=41)
        noisy = np.array(base.rate) * np.exp(rng.uniform(-0.05, 0.05, size=(4, 4)))
        np.fill_diagonal(noisy, 1.0)
        rm = type(base)(labels=base.labels, rate=noisy)
        shape = ProblemShape(4, 3)

        def solve(rates):
            w = to_log_weights(rates)
            q = build_qubo(w, shape, default_weights(w, shape))
            bits, _ = ground_state(q)
            decoded = decode(bits, shape)
            assert decoded.feasible
            return canonical_rotation(decoded.loop), profitability(decoded, rates)

        loop, profit = solve(rm)
        perm = [2, 0, 3, 1]  # relabel c -> perm[c]
        permuted_rate = np.empty_like(rm.rate)
        for i in range(4):
            for j in range(4):
                permuted_rate[perm[i], perm[j]] = rm.rate[i, j]
        permuted = type(rm)(labels=rm.labels, rate=permuted_rate)
        loop2, profit2 = solve(permuted)
        assert profit2 == pytest.approx(profit, abs=1e-9)
        assert loop2 == canonical_rotation([perm[c] for c in loop])


class TestCanonicalRotation:
    def test_rotations_share_a_representative(self):
        assert canonical_rotation([1, 2, 0, 1]) == [0, 1, 2, 0]
        assert canonical_rotation([2, 0, 1, 2]) == [0, 1, 2, 0]
        assert canonical_rotation([0, 1, 2, 0]) == [0, 1, 2, 0]

    def test_constant_loop(self):
        assert canonical_rotation([3, 3, 3]) == [3, 3, 3]


class TestModelJson:
    def test_round_trip(self):
        shape = ProblemShape(5, 4)
        w = to_log_weights(generate_consistent(5, seed=2))
        weights = default_weights(w, shape)
        obj = json.loads(model_to_json(shape, weights, ["A", "B", "C", "D", "E"]))
        assert ProblemShape(obj["n_currencies"], obj["loop_length"]) == shape
        assert HamiltonianWeights(**obj["weights"]) == weights
        assert obj["labels"] == ["A", "B", "C", "D", "E"]

    def test_payload_fields(self):
        shape = ProblemShape(3, 4)
        text = model_to_json(shape, rate_only_weights(), ["X", "Y", "Z"])
        obj = json.loads(text)
        assert obj["n_currencies"] == 3
        assert obj["loop_length"] == 4
        assert set(obj["weights"]) == {"rate", "one_hot", "endpoint", "consecutive", "fill"}
