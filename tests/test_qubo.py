"""QUBO representation: canonical storage, energy evaluation, fast deltas.

The energy oracle here is an independent double loop over all (i, j)
pairs, kept deliberately naive so it cannot share bugs with the matrix
implementation it checks.
"""

import hashlib
import json
import warnings

import numpy as np
import pytest

from arbqubo import (
    DimensionError,
    ModelError,
    QuboMatrix,
    Sample,
    SampleSet,
    TooLarge,
    qubo_from_json,
    qubo_to_json,
    sampleset_from_json,
    sampleset_to_json,
    solve_exact,
)
from arbqubo.qubo import QUBO_MAX_VARS


def naive_energy(q: QuboMatrix, x) -> float:
    """Term-by-term evaluation straight off the definition."""
    total = q.offset
    for i in range(q.n_vars):
        total += q.coefficient(i, i) * x[i]
        for j in range(i + 1, q.n_vars):
            total += q.coefficient(i, j) * x[i] * x[j]
    return total


def random_qubo(rng, n=10, density=0.6):
    q = QuboMatrix(n, offset=rng.normal())
    for i in range(n):
        for j in range(i, n):
            if rng.random() < density:
                q.add_coefficient(i, j, rng.normal())
    return q


class TestSizeGuard:
    def test_rejects_more_variables_than_the_guard(self):
        with pytest.raises(TooLarge, match="dense QUBO guard"):
            QuboMatrix(QUBO_MAX_VARS + 1)

    def test_json_size_is_checked_before_allocating(self):
        # 10^8 variables would be an 80 PB matrix.
        with pytest.raises(TooLarge):
            qubo_from_json('{"n_vars": 100000000, "terms": []}')

    def test_guard_admits_its_own_size(self):
        assert QuboMatrix(QUBO_MAX_VARS).n_vars == QUBO_MAX_VARS

    def test_needs_one_variable(self):
        with pytest.raises(DimensionError):
            QuboMatrix(0)


class TestAddCoefficient:
    @staticmethod
    def add(q, i, j, value):
        return q.add_coefficient(i, j, value)

    def test_canonicalizes_indices(self):
        q = QuboMatrix(3)
        self.add(q, 2, 1, 3.0)
        assert q.coefficient(1, 2) == 3.0
        assert q.coefficient(2, 1) == 3.0

    def test_accumulates(self):
        q = QuboMatrix(3)
        self.add(q, 1, 2, 3.0)
        self.add(q, 2, 1, -1.0)
        assert q.coefficient(1, 2) == 2.0

    def test_diagonal_is_linear_term(self):
        q = QuboMatrix(1)
        self.add(q, 0, 0, 5.0)
        assert q.energy([1]) == 5.0

    def test_out_of_range(self):
        q = QuboMatrix(3)
        with pytest.raises(IndexError):
            self.add(q, 0, 3, 1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, value):
        q = QuboMatrix(3)
        with pytest.raises(ModelError):
            self.add(q, 0, 0, value)
        assert q.coefficient(0, 0) == 0.0

    def test_overflowing_sum_rejected(self):
        q = QuboMatrix(2)
        self.add(q, 0, 1, 1e308)
        with pytest.raises(ModelError):
            self.add(q, 1, 0, 1e308)
        assert q.coefficient(0, 1) == 1e308

    @pytest.mark.parametrize("offset", [float("nan"), float("inf")])
    def test_non_finite_offset_rejected(self, offset):
        with pytest.raises(ModelError):
            QuboMatrix(3, offset=offset)

    def test_lower_triangle_stays_zero(self):
        rng = np.random.default_rng(5)
        q = QuboMatrix(6)
        for _ in range(50):
            i, j = rng.integers(0, 6, size=2)
            self.add(q, int(i), int(j), float(rng.normal()))
        lower = np.tril(q.upper, k=-1)
        assert np.all(lower == 0.0)


class TestAddTerms(TestAddCoefficient):
    """Every ``TestAddCoefficient`` case, through a one-term bulk call."""

    @staticmethod
    def add(q, i, j, value):
        return q.add_terms([i], [j], [value])

    def test_matches_sequential_adds(self):
        rng = np.random.default_rng(6)
        rows, cols = rng.integers(0, 5, size=(2, 200))  # many duplicate cells
        values = rng.normal(size=200) * 10.0 ** rng.integers(-8, 8, size=200)
        one_by_one = QuboMatrix(5)
        for i, j, v in zip(rows.tolist(), cols.tolist(), values.tolist()):
            one_by_one.add_coefficient(i, j, v)
        bulk = QuboMatrix(5).add_terms(rows, cols, values)
        assert bulk.upper.tobytes() == one_by_one.upper.tobytes()

    def test_overflow_leaves_the_whole_call_unapplied(self):
        q = QuboMatrix(3)
        q.add_terms([0, 1], [1, 2], [1e308, 5.0])
        before = q.upper.copy()
        with pytest.raises(ModelError, match=r"\(0,1\)"):
            q.add_terms([0, 2, 0, 1], [0, 1, 2, 0], [1.0, 2.0, 3.0, 1e308])
        assert q.upper.tobytes() == before.tobytes()


class TestSymmetricParts:
    def test_large_diagonal_does_not_overflow(self):
        q = QuboMatrix(3)  # the overflow QUBO of test_solvers.py
        for i, j, v in [(0, 0, 1e308), (0, 1, 1e308), (1, 1, 1e308), (0, 2, -1e308), (1, 2, -1e308)]:
            q.add_coefficient(i, j, v)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            diag, sym = q.symmetric_parts()
        assert diag.tolist() == [1e308, 1e308, 0.0]
        assert sym.tolist() == [[0.0, 1e308, -1e308], [1e308, 0.0, -1e308], [-1e308, -1e308, 0.0]]


class TestEnergy:
    def test_all_zero_state(self):
        q = QuboMatrix(4)
        q.add_coefficient(0, 1, 2.5)
        assert q.energy([0, 0, 0, 0]) == 0.0

    def test_small_hand_case(self):
        q = QuboMatrix(2)
        q.add_coefficient(0, 0, 1.0)
        q.add_coefficient(0, 1, 2.0)
        q.add_coefficient(1, 1, 3.0)
        assert q.energy([1, 1]) == 6.0

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            q = random_qubo(rng)
            x = rng.integers(0, 2, size=q.n_vars)
            assert q.energy(x) == pytest.approx(naive_energy(q, x), abs=1e-12)

    def test_length_mismatch(self):
        q = QuboMatrix(3)
        with pytest.raises(DimensionError):
            q.energy([0, 1])

    def test_offset_shifts_all_energies(self):
        rng = np.random.default_rng(1)
        q = random_qubo(rng, n=6)
        states = [rng.integers(0, 2, size=6) for _ in range(30)]
        before = [q.energy(x) for x in states]
        argmin_before = int(np.argmin(before))
        q.offset += 2.75
        after = [q.energy(x) for x in states]
        assert np.allclose(np.array(after) - np.array(before), 2.75)
        assert int(np.argmin(after)) == argmin_before


class TestEnergyDelta:
    def test_from_zero_state_is_linear_term(self):
        q = QuboMatrix(4)
        q.add_coefficient(2, 2, -1.5)
        q.add_coefficient(1, 2, 4.0)
        assert q.energy_delta([0, 0, 0, 0], 2) == -1.5

    def test_double_flip_cancels(self):
        rng = np.random.default_rng(2)
        q = random_qubo(rng, n=8)
        x = rng.integers(0, 2, size=8)
        d1 = q.energy_delta(x, 3)
        y = x.copy()
        y[3] ^= 1
        d2 = q.energy_delta(y, 3)
        assert d1 + d2 == pytest.approx(0.0, abs=1e-12)

    def test_matches_full_recompute(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            q = random_qubo(rng, n=12)
            x = rng.integers(0, 2, size=12)
            flip = int(rng.integers(0, 12))
            y = x.copy()
            y[flip] ^= 1
            assert q.energy_delta(x, flip) == pytest.approx(
                q.energy(y) - q.energy(x), abs=1e-9
            )

    def test_out_of_range(self):
        q = QuboMatrix(3)
        with pytest.raises(IndexError):
            q.energy_delta([0, 0, 0], 3)


class TestJsonInterchange:
    def test_qubo_round_trip(self):
        rng = np.random.default_rng(4)
        q = random_qubo(rng, n=7)
        again = qubo_from_json(qubo_to_json(q))
        assert again == q

    def test_terms_are_upper_triangular(self):
        q = QuboMatrix(3, offset=0.5)
        q.add_coefficient(2, 0, 1.25)
        obj = json.loads(qubo_to_json(q))
        assert obj["terms"] == [[0, 2, 1.25]]
        assert obj["offset"] == 0.5

    def test_rejects_lower_triangular_input(self):
        with pytest.raises(DimensionError):
            qubo_from_json('{"n_vars": 3, "offset": 0, "terms": [[2, 0, 1.0]]}')

    @pytest.mark.parametrize(
        "text",
        [
            '{"n_vars": 2, "offset": NaN, "terms": []}',
            '{"n_vars": 2, "offset": 0, "terms": [[0, 1, NaN]]}',
            '{"n_vars": 2, "offset": 0, "terms": [[1, 1, -Infinity]]}',
        ],
    )
    def test_rejects_non_finite_input(self, text):
        with pytest.raises(ModelError):
            qubo_from_json(text)

    @pytest.mark.parametrize(
        "text,error",
        [
            ('{"n_vars": 3.7, "terms": []}', DimensionError),
            ('{"n_vars": true, "terms": []}', DimensionError),
            ('{"n_vars": "3", "terms": []}', DimensionError),
            ('{"n_vars": 3, "terms": [[1.5, 2, 1.0]]}', DimensionError),
            ('{"n_vars": 3, "terms": [[true, 2, 1.0]]}', DimensionError),
            ('{"n_vars": 3, "terms": [[0, 2]]}', DimensionError),
            ('{"n_vars": 3, "terms": {"0": [0, 1, 1.0]}}', DimensionError),
            ('{"n_vars": 3, "terms": [[0, 2, "2.5"]]}', ModelError),
            ('{"n_vars": 3, "terms": [[0, 2, false]]}', ModelError),
            ('{"n_vars": 3, "offset": "1", "terms": []}', ModelError),
            ('{"n_vars": 3, "terms": [[0, 2, 1%s]]}' % ("0" * 400), ModelError),
        ],
        ids=[
            "float-size", "bool-size", "string-size", "float-index", "bool-index",
            "short-term", "terms-object", "string-value", "bool-value", "string-offset",
            "huge-int-value",
        ],
    )
    def test_rejects_mistyped_input(self, text, error):
        with pytest.raises(error):
            qubo_from_json(text)

    @pytest.mark.parametrize(
        "record,error",
        [
            ({"bits": "012", "energy": 1.0, "read_index": 1}, DimensionError),
            ({"bits": [0, 1], "energy": 1.0, "read_index": 1}, DimensionError),
            ({"bits": "01", "energy": 1.0, "read_index": 1.0}, DimensionError),
            ({"bits": "01", "energy": "1.0", "read_index": 1}, ModelError),
        ],
        ids=["digit-2", "list-bits", "float-read-index", "string-energy"],
    )
    def test_sampleset_rejects_mistyped_records(self, record, error):
        text = json.dumps({"solver": "tabu", "params": None, "timing": {}, "samples": [record]})
        with pytest.raises(error):
            sampleset_from_json(text)

    def test_sampleset_round_trip(self):
        s = SampleSet(
            samples=[
                Sample(bits=(0, 1, 1), energy=-2.5, read_index=1),
                Sample(bits=(1, 0, 0), energy=0.25, read_index=2),
            ],
            timing={"wall_time_us": 123.5},
            solver_name="tabu",
            params={"num_reads": 2, "seed": 9},
        )
        again = sampleset_from_json(sampleset_to_json(s))
        assert again == s

    def test_sampleset_json_shape(self):
        s = SampleSet(
            samples=[Sample(bits=(1, 0), energy=1.0, read_index=1)],
            timing={"wall_time_us": 1.0},
            solver_name="simulated_annealing",
            params=None,
        )
        obj = json.loads(sampleset_to_json(s))
        assert obj["samples"][0]["bits"] == "10"
        assert obj["solver"] == "simulated_annealing"

    def test_ranked_states_json_matches_sample_list(self):
        ranked = solve_exact(random_qubo(np.random.default_rng(4), n=14))
        listed = SampleSet(
            samples=list(ranked.samples),
            timing=ranked.timing,
            solver_name=ranked.solver_name,
            params=ranked.params,
        )
        # The streamed text must be that of one json.dumps over the whole set.
        whole = json.dumps(
            {
                "solver": ranked.solver_name,
                "params": ranked.params,
                "timing": ranked.timing,
                "samples": [
                    {
                        "bits": "".join(map(str, s.bits)),
                        "energy": s.energy,
                        "read_index": s.read_index,
                    }
                    for s in listed.samples
                ],
            }
        )
        # Digests, since pytest's diff of two 1 MB strings takes minutes.
        digests = [
            hashlib.sha256(text.encode()).hexdigest()
            for text in (sampleset_to_json(ranked), sampleset_to_json(listed), whole)
        ]
        assert digests[0] == digests[1] == digests[2]

    def test_empty_sampleset_json(self):
        s = SampleSet(samples=[], timing={}, solver_name="tabu")
        assert sampleset_to_json(s) == json.dumps(
            {"solver": "tabu", "params": None, "timing": {}, "samples": []}
        )
