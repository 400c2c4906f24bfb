"""Quadratic unconstrained binary optimization problems and their samples.

Energies follow the upper-triangular convention: diagonal entries are the
linear coefficients, entries above the diagonal the pairwise couplings, and
a tracked constant offset sits on top so reported energies can be compared
against hand-computed objective values instead of drifting by a constant.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ModelError


class QuboMatrix:
    """Dense upper-triangular coefficient matrix plus constant offset.

    Mutable while being assembled (``add_coefficient`` accumulates), then
    treated as read-only: samplers only ever read it, so one instance can
    back many concurrent solver runs.  Dense storage is deliberate: the
    loop QUBOs benchmarked here reach 240 variables, a 460 KB matrix.
    Coefficients and the offset must be finite, since one NaN or inf
    makes every energy meaningless.
    """

    def __init__(self, n_vars: int, offset: float = 0.0):
        if n_vars < 1:
            raise DimensionError(f"need at least 1 variable, got {n_vars}")
        self.n_vars = n_vars
        self.offset = float(offset)
        if not math.isfinite(self.offset):
            raise ModelError(f"offset must be finite, got {self.offset}")
        self._coeff = np.zeros((n_vars, n_vars))

    def add_coefficient(self, i: int, j: int, value: float) -> "QuboMatrix":
        """Accumulate ``value`` at the canonical position (min(i,j), max(i,j)).

        Accumulation is additive so independently-built objective and
        penalty terms compose by simple summation.
        """
        self._check_index(i)
        self._check_index(j)
        a, b = (i, j) if i <= j else (j, i)
        total = float(self._coeff[a, b]) + value
        if not math.isfinite(total):
            raise ModelError(f"coefficient ({a},{b}) must be finite, got {total}")
        self._coeff[a, b] = total
        return self

    def coefficient(self, i: int, j: int) -> float:
        self._check_index(i)
        self._check_index(j)
        a, b = (i, j) if i <= j else (j, i)
        return float(self._coeff[a, b])

    def energy(self, x) -> float:
        """Evaluate sum_i q[i,i] x_i + sum_{i<j} q[i,j] x_i x_j + offset."""
        v = self._as_vector(x)
        return float(v @ self._coeff @ v + self.offset)

    def energy_delta(self, x, flip: int) -> float:
        """Energy change from flipping bit ``flip``, in O(n) from its row/column."""
        self._check_index(flip)
        v = self._as_vector(x)
        sign = 1.0 - 2.0 * v[flip]
        diag = self._coeff[flip, flip]
        # Row + column sweep double-counts the diagonal entry when the bit
        # is set; subtract that before adding the linear term once.
        coupling = self._coeff[flip, :] @ v + self._coeff[:, flip] @ v
        return float(sign * (diag + coupling - 2.0 * diag * v[flip]))

    # -- helpers -------------------------------------------------------------

    def _as_vector(self, x) -> np.ndarray:
        v = np.asarray(x, dtype=float)
        if v.shape != (self.n_vars,):
            raise DimensionError(
                f"state has length {v.shape}, expected ({self.n_vars},)"
            )
        return v

    def _check_index(self, i: int) -> None:
        if not (0 <= i < self.n_vars):
            raise IndexError(f"variable index {i} out of range [0, {self.n_vars})")

    @property
    def upper(self) -> np.ndarray:
        """Read-only view of the raw upper-triangular coefficient array."""
        view = self._coeff.view()
        view.flags.writeable = False
        return view

    def max_abs_coefficient(self) -> float:
        return float(np.max(np.abs(self._coeff))) if self.n_vars else 0.0

    def symmetric_parts(self) -> tuple[np.ndarray, np.ndarray]:
        """(diagonal, symmetric off-diagonal coupling) for sampler inner loops."""
        diag = np.diag(self._coeff).copy()
        sym = self._coeff + self._coeff.T
        np.fill_diagonal(sym, 0.0)
        return diag, sym

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuboMatrix):
            return NotImplemented
        return (
            self.n_vars == other.n_vars
            and self.offset == other.offset
            and np.array_equal(self._coeff, other._coeff)
        )

    def __repr__(self) -> str:
        nnz = int(np.count_nonzero(self._coeff))
        return f"QuboMatrix(n_vars={self.n_vars}, nonzero={nnz}, offset={self.offset})"


@dataclass(frozen=True)
class Sample:
    """One candidate bitvector with its energy and production position."""

    bits: tuple[int, ...]
    energy: float
    read_index: int


@dataclass
class SampleSet:
    """Samples in the exact order a solver produced them, plus timing.

    ``timing`` values are microseconds.  ``params`` records the sampler
    parameters used, when applicable, so exported sets are replayable.
    """

    samples: list[Sample]
    timing: dict[str, float]
    solver_name: str
    params: dict | None = None

    def best(self) -> Sample:
        return min(self.samples, key=lambda s: (s.energy, s.bits))

    def __len__(self) -> int:
        return len(self.samples)


# -- JSON interchange ----------------------------------------------------------


def qubo_to_json(q: QuboMatrix) -> str:
    """Serialize as {"n_vars": N, "offset": c, "terms": [[i, j, value], ...]}."""
    terms = []
    for i in range(q.n_vars):
        for j in range(i, q.n_vars):
            v = q.coefficient(i, j)
            if v != 0.0:
                terms.append([i, j, v])
    return json.dumps({"n_vars": q.n_vars, "offset": q.offset, "terms": terms})


def qubo_from_json(text: str) -> QuboMatrix:
    obj = json.loads(text)
    q = QuboMatrix(int(obj["n_vars"]), offset=float(obj.get("offset", 0.0)))
    for i, j, v in obj["terms"]:
        if i > j:
            raise DimensionError(f"term ({i},{j}) is not upper-triangular")
        q.add_coefficient(int(i), int(j), float(v))
    return q


def sampleset_to_json(s: SampleSet) -> str:
    obj = {
        "solver": s.solver_name,
        "params": s.params,
        "timing": s.timing,
        "samples": [
            {
                "bits": "".join(str(b) for b in smp.bits),
                "energy": smp.energy,
                "read_index": smp.read_index,
            }
            for smp in s.samples
        ],
    }
    return json.dumps(obj)


def sampleset_from_json(text: str) -> SampleSet:
    obj = json.loads(text)
    samples = [
        Sample(
            bits=tuple(int(c) for c in rec["bits"]),
            energy=float(rec["energy"]),
            read_index=int(rec["read_index"]),
        )
        for rec in obj["samples"]
    ]
    return SampleSet(
        samples=samples,
        timing={k: float(v) for k, v in obj.get("timing", {}).items()},
        solver_name=obj["solver"],
        params=obj.get("params"),
    )
