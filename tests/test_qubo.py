"""QUBO representation: canonical storage, energy evaluation, fast deltas.

The energy oracle here is an independent double loop over all (i, j)
pairs, kept deliberately naive so it cannot share bugs with the matrix
implementation it checks.
"""

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
    qubo_to_json,
    sampleset_to_json,
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

    @pytest.mark.parametrize(
        "i, j, bad",
        [(1.5, 2, "1.5"), (2, 0.5, "0.5"), (np.float64(1.5), 0, "1.5"), (np.nan, 1, "nan")],
    )
    def test_non_integer_index_rejected(self, i, j, bad):
        q = QuboMatrix(3)
        with pytest.raises(IndexError, match=f"variable index {bad} is not an integer"):
            self.add(q, i, j, 1.0)
        assert not q.upper.any()

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


class TestEnergies:
    def test_each_row_as_if_alone(self):
        rng = np.random.default_rng(8)
        for n in (3, 8, 17, 40):
            q = random_qubo(rng, n=n)
            states = rng.integers(0, 2, size=(50, n))
            energies = q.energies(states)
            assert energies.tolist() == [q.energy(x) for x in states]
            assert energies.tolist() == [q.energies(states[r : r + 1])[0] for r in range(50)]

    @pytest.mark.parametrize("shape", [(3,), (2, 4), (2, 2), (1, 3, 1)])
    def test_wrong_shape(self, shape):
        with pytest.raises(DimensionError):
            QuboMatrix(3).energies(np.zeros(shape))


class TestBinaryStates:
    """A state entry other than 0 or 1 has no energy under the QUBO."""

    @staticmethod
    def qubo():
        q = QuboMatrix(2)
        q.add_coefficient(0, 0, 5.0)
        q.add_coefficient(0, 1, 1.0)
        return q

    @pytest.mark.parametrize(
        "call, bad",
        [
            (lambda q: q.energy([2, 0]), "2.0"),
            (lambda q: q.energy([0.5, -1]), "0.5"),
            (lambda q: q.energies([[3, 3]]), "3.0"),
            (lambda q: q.energies([[0, 1], [1, float("nan")]]), "nan"),
            (lambda q: q.energy_delta([2, 0], 1), "2.0"),
        ],
        ids=["energy-2", "energy-half", "energies-3", "energies-nan", "delta-2"],
    )
    def test_non_binary_entry_rejected(self, call, bad):
        with pytest.raises(DimensionError, match=f"entries must be 0 or 1, got {bad}$"):
            call(self.qubo())

    def test_bools_are_bits(self):
        q = self.qubo()
        assert q.energy([True, False]) == q.energy([1, 0]) == 5.0
        assert q.energies([[True, True], [False, True]]).tolist() == [6.0, 0.0]
        assert q.energy_delta([True, False], 1) == q.energy_delta([1, 0], 1) == 1.0


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

    def test_non_integer_index_rejected(self):
        q = QuboMatrix(3)
        with pytest.raises(IndexError, match="variable index 1.5 is not an integer"):
            q.energy_delta([0, 0, 0], 1.5)
        with pytest.raises(IndexError, match="variable index 1.5 is not an integer"):
            q.coefficient(1.5, 2)


class TestJsonInterchange:
    def test_qubo_round_trip(self):
        rng = np.random.default_rng(4)
        q = random_qubo(rng, n=7)
        obj = json.loads(qubo_to_json(q))
        i, j, v = np.array(obj["terms"], dtype=float).reshape(-1, 3).T
        again = QuboMatrix(obj["n_vars"], offset=obj["offset"]).add_terms(
            i.astype(int), j.astype(int), v
        )
        assert again == q

    def test_terms_are_upper_triangular(self):
        q = QuboMatrix(3, offset=0.5)
        q.add_coefficient(2, 0, 1.25)
        obj = json.loads(qubo_to_json(q))
        assert obj["terms"] == [[0, 2, 1.25]]
        assert obj["offset"] == 0.5

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
        obj = json.loads(sampleset_to_json(s))
        again = SampleSet(
            samples=[
                Sample(tuple(map(int, r["bits"])), r["energy"], r["read_index"])
                for r in obj["samples"]
            ],
            timing=obj["timing"],
            solver_name=obj["solver"],
            params=obj["params"],
        )
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

    def test_empty_sampleset_json(self):
        s = SampleSet(samples=[], timing={}, solver_name="tabu")
        assert sampleset_to_json(s) == json.dumps(
            {"solver": "tabu", "params": None, "timing": {}, "samples": []}
        )

    def test_empty_sampleset_has_no_best(self):
        with pytest.raises(DimensionError):
            SampleSet([], {}, "tabu").best()
