"""Quadratic unconstrained binary optimization problems and their samples.

Energies follow the upper-triangular convention: diagonal entries are the
linear coefficients, entries above the diagonal the pairwise couplings, and
a tracked constant offset sits on top so reported energies can be compared
against hand-computed objective values instead of drifting by a constant.
Every energy the package reports is ``QuboMatrix.energies`` of its state:
one evaluator, whose value for a state never depends on the states
evaluated with it.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ModelError, TooLarge

# Package-wide "same energy" tolerance.  Energies summed in different
# orders differ in the last bits, and tabu's incremental energies drift by
# ulps over long walks; differences below this are noise, and treating
# them as progress would reset tabu's stall counter indefinitely (where
# ulps exceed it, tabu confirms small gains from scratch).  It is also
# the tie rule: candidates within it of the minimum tie, and the lowest
# index wins -- the lowest variable for a tabu move
# (``solvers._tabu_walks``), the lowest bits for a state -- so exact ties
# on arbitrage-free markets do not hang on the last bits of a sum.
ENERGY_EPS = 1e-9

# Dense storage costs 8 * n_vars^2 bytes, 128 MiB here.  ``n_vars`` comes
# from a rates file's N times the loop length, so a larger one fails before
# numpy is asked for gigabytes.
QUBO_MAX_VARS = 4096


class QuboMatrix:
    """Dense upper-triangular coefficient matrix plus constant offset.

    Mutable while being assembled (``add_terms`` accumulates), then
    treated as read-only: samplers only ever read it, so one instance can
    back many concurrent solver runs.  Dense storage is deliberate (the
    loop QUBOs benchmarked here reach 240 variables, a 460 KB matrix) and
    capped at ``QUBO_MAX_VARS`` variables.  Coefficients and the offset
    must be finite, since one NaN or inf makes every energy meaningless.
    Every solver first calls :meth:`check_energy_range`, which refuses a
    sum ``S`` of coefficient and offset magnitudes at or past DBL_MAX/4,
    even where every energy is finite (linear terms +1e308 and -1e308):
    any sum a solver forms is at most ``2 * S``, so below it none overflows.

    ``loop_shape``, which equality and JSON ignore, is the shape whose
    closed walks hold the optimum: ``model.build_qubo`` sets it, and any
    added term clears it.
    """

    def __init__(self, n_vars: int, offset: float = 0.0):
        if n_vars < 1:
            raise DimensionError(f"need at least 1 variable, got {n_vars}")
        if n_vars > QUBO_MAX_VARS:
            raise TooLarge(f"{n_vars} variables exceeds the dense QUBO guard {QUBO_MAX_VARS}")
        self.n_vars = n_vars
        self.offset = float(offset)
        if not math.isfinite(self.offset):
            raise ModelError(f"offset must be finite, got {self.offset}")
        self._coeff = np.zeros((n_vars, n_vars))
        self.loop_shape = None

    def add_coefficient(self, i: int, j: int, value: float) -> "QuboMatrix":
        """Accumulate one term; see :meth:`add_terms`."""
        return self.add_terms([i], [j], [value])

    def add_terms(self, rows, cols, values) -> "QuboMatrix":
        """Accumulate ``values[t]`` at (min, max) of ``(rows[t], cols[t])``.

        ``rows`` and ``cols`` share one shape, and ``values`` broadcasts to
        it.  Terms add in order, duplicates one after another, so a bulk
        call leaves the same bits as the scalar adds it replaces.
        Accumulation is additive so independently-built objective and
        penalty terms compose by simple summation.  An index that is not an
        integer in [0, n_vars) raises ``IndexError``, and a non-finite sum
        ``ModelError``; either leaves the matrix as it was, and any other
        call clears ``loop_shape``.
        """
        a, b = np.minimum(rows, cols), np.maximum(rows, cols)
        if a.size and not (a.dtype.kind in "iu" and 0 <= a.min() and b.max() < self.n_vars):
            for i, j in zip(np.ravel(rows), np.ravel(cols)):
                self._check_index(i)
                self._check_index(j)
        a, b = a.astype(np.intp, copy=False), b.astype(np.intp, copy=False)
        before = self._coeff[a, b]
        with np.errstate(over="ignore", invalid="ignore"):
            np.add.at(self._coeff, (a, b), np.asarray(values, dtype=float))
        after = self._coeff[a, b]
        if not np.isfinite(after).all():
            self._coeff[a, b] = before  # duplicates all gathered the same value
            t = np.flatnonzero(~np.isfinite(after))[0]
            raise ModelError(
                f"coefficient ({a.flat[t]},{b.flat[t]}) must be finite, got {after.flat[t]}"
            )
        self.loop_shape = None
        return self

    def coefficient(self, i: int, j: int) -> float:
        a, b = sorted((self._check_index(i), self._check_index(j)))
        return float(self._coeff[a, b])

    def energies(self, states) -> np.ndarray:
        """The energy of each row of ``states``: each row takes the same
        (1, n) product, a stacked matmul, so no row's value depends on the
        rows evaluated with it.  An entry other than 0 or 1 is a
        :class:`DimensionError`, as is a row of another width."""
        x = _binary(states)
        if x.ndim != 2 or x.shape[1] != self.n_vars:
            raise DimensionError(f"states have shape {x.shape}, expected (rows, {self.n_vars})")
        return ((x[:, None, :] @ self._coeff)[:, 0, :] * x).sum(axis=1) + self.offset

    def energy(self, x) -> float:
        """sum_i q[i,i] x_i + sum_{i<j} q[i,j] x_i x_j + offset: the one
        row of :meth:`energies`."""
        return float(self.energies(self._as_vector(x)[None])[0])

    def energy_delta(self, x, flip: int) -> float:
        """Energy change from flipping bit ``flip``: its sign ``1 - 2x``
        times its local field, the linear term plus the couplings to the
        set bits, as the samplers take a flip's delta."""
        f = self._check_index(flip)
        v, c = self._as_vector(x), self._coeff
        field = c[f, f] + c[f, f + 1 :] @ v[f + 1 :] + c[:f, f] @ v[:f]
        return float((1.0 - 2.0 * v[f]) * field)

    # -- helpers -------------------------------------------------------------

    def _as_vector(self, x) -> np.ndarray:
        v = _binary(x)
        if v.shape != (self.n_vars,):
            raise DimensionError(
                f"state has length {v.shape}, expected ({self.n_vars},)"
            )
        return v

    def _check_index(self, i) -> int:
        """``i`` as an int, once checked to be an integer in [0, n_vars)."""
        if not (0 <= i < self.n_vars and i == int(i)):
            raise IndexError(f"variable index {i} is not an integer in [0, {self.n_vars})")
        return int(i)

    @property
    def upper(self) -> np.ndarray:
        """Read-only view of the raw upper-triangular coefficient array."""
        view = self._coeff.view()
        view.flags.writeable = False
        return view

    def max_abs_coefficient(self) -> float:
        return float(np.max(np.abs(self._coeff)))

    def check_energy_range(self) -> float:
        """``S = sum |upper| + |offset|``, once checked below DBL_MAX/4."""
        # Scaled by 2^-26, the sum of at most 2^24 magnitudes stays finite.
        magnitudes = np.abs(self._coeff)
        magnitudes *= 2.0**-26
        scaled = float(magnitudes.sum()) + abs(self.offset) * 2.0**-26
        bound = sys.float_info.max * 2.0**-28  # DBL_MAX/4, scaled
        if not scaled < bound:
            raise ModelError(
                f"coefficient and offset magnitudes sum to S = {scaled / bound:.4g} x "
                "DBL_MAX/4; S must stay below DBL_MAX/4, or energies could overflow"
            )
        return scaled * 2.0**26

    def symmetric_parts(self) -> tuple[np.ndarray, np.ndarray]:
        """(diagonal, symmetric off-diagonal coupling) for sampler inner loops."""
        # Only the strict upper triangle is summed: doubling a diagonal
        # entry above half the float range would overflow.
        couplings = np.triu(self._coeff, 1)
        return np.diag(self._coeff).copy(), couplings + couplings.T

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


def _binary(states) -> np.ndarray:
    """``states`` as floats, once checked to hold only 0s and 1s (bools
    pass): any other entry is a :class:`DimensionError`."""
    x = np.asarray(states, dtype=float)
    off = (x != 0) & (x != 1)
    if off.any():
        raise DimensionError(f"state entries must be 0 or 1, got {x[off][0]}")
    return x


@dataclass(frozen=True)
class Sample:
    """One candidate bitvector with its energy and production position."""

    bits: tuple[int, ...]
    energy: float
    read_index: int


def _state_bits(index: int, n: int) -> tuple[int, ...]:
    """Bits of enumeration state ``index``; bit 0 is the high bit.

    With that convention, ascending state index is exactly ascending
    lexicographic order of the bit tuples, so the lowest tied index is the
    lowest tied bits.
    """
    return tuple((index >> shift) & 1 for shift in range(n - 1, -1, -1))


@dataclass
class SampleSet:
    """Samples plus timing.

    A sampler's samples are in the order it produced them, one per read;
    the exact solver's set holds one sample, the optimum, as read 1.
    ``timing`` values are microseconds.  ``params`` records the sampler
    parameters used, when applicable, so exported sets are replayable.
    """

    samples: list[Sample]
    timing: dict[str, float]
    solver_name: str
    params: dict | None = None

    def best(self) -> Sample:
        """The sample with the lowest bits among those whose energies lie
        within ``ENERGY_EPS`` of the minimum; of equal bits, the first.

        The tolerance is the package's tie rule, so the pick matches the
        exact solver's.  An empty set has no best sample:
        :class:`DimensionError`.
        """
        if not self.samples:
            raise DimensionError(f"{self.solver_name} sample set holds no samples")
        lowest = min(s.energy for s in self.samples)
        return min(
            (s for s in self.samples if s.energy <= lowest + ENERGY_EPS), key=lambda s: s.bits
        )

    def __len__(self) -> int:
        return len(self.samples)


# -- JSON output ---------------------------------------------------------------


def qubo_to_json(q: QuboMatrix) -> str:
    """Serialize as {"n_vars": N, "offset": c, "terms": [[i, j, value], ...]}."""
    i, j = np.nonzero(q.upper)
    terms = list(zip(i.tolist(), j.tolist(), q.upper[i, j].tolist()))
    return json.dumps({"n_vars": q.n_vars, "offset": q.offset, "terms": terms})


def sampleset_to_json(s: SampleSet) -> str:
    """The set as one JSON object: solver, params, timing and samples."""
    samples = [
        {
            "bits": "".join(str(b) for b in smp.bits),
            "energy": smp.energy,
            "read_index": smp.read_index,
        }
        for smp in s.samples
    ]
    return json.dumps(
        {"solver": s.solver_name, "params": s.params, "timing": s.timing, "samples": samples}
    )
