"""Quadratic unconstrained binary optimization problems and their samples.

Energies follow the upper-triangular convention: diagonal entries are the
linear coefficients, entries above the diagonal the pairwise couplings, and
a tracked constant offset sits on top so reported energies can be compared
against hand-computed objective values instead of drifting by a constant.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ModelError


class QuboMatrix:
    """Dense upper-triangular coefficient matrix plus constant offset.

    Mutable while being assembled (``add_terms`` accumulates), then
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
        """Accumulate one term; see :meth:`add_terms`."""
        return self.add_terms([i], [j], [value])

    def add_terms(self, rows, cols, values) -> "QuboMatrix":
        """Accumulate ``values[t]`` at (min, max) of ``(rows[t], cols[t])``.

        ``rows`` and ``cols`` share one shape, and ``values`` broadcasts to
        it.  Terms add in order, duplicates one after another, so a bulk
        call leaves the same bits as the scalar adds it replaces.
        Accumulation is additive so independently-built objective and
        penalty terms compose by simple summation.  A non-finite sum raises
        ``ModelError`` and leaves the matrix as it was.
        """
        a, b = np.minimum(rows, cols), np.maximum(rows, cols)
        if a.size and not (0 <= a.min() and b.max() < self.n_vars):
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
        return float(np.max(np.abs(self._coeff)))

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


@dataclass(frozen=True)
class Sample:
    """One candidate bitvector with its energy and production position."""

    bits: tuple[int, ...]
    energy: float
    read_index: int


def _state_bits(index: int, n: int) -> tuple[int, ...]:
    """Bits of enumeration state ``index``; bit 0 is the high bit.

    With that convention, ascending state index is exactly ascending
    lexicographic order of the bit tuples, so stable sorts on energy break
    ties lexicographically for free.
    """
    return tuple((index >> shift) & 1 for shift in range(n - 1, -1, -1))


class RankedStates(Sequence[Sample]):
    """Every state of an ``n_vars`` QUBO, ranked by ascending energy.

    ``energies[i]`` is the energy of enumeration state ``i`` and ``order``
    its stable argsort, so ties rank in lexicographic bit order.  The
    ``Sample`` at rank ``r`` is built on access, with ``read_index`` r + 1:
    the view costs 16 bytes per state instead of one object each.
    """

    def __init__(self, energies: np.ndarray, order: np.ndarray, n_vars: int):
        self.energies = energies
        self.order = order
        self.n_vars = n_vars

    def __len__(self) -> int:
        return len(self.order)

    def __getitem__(self, rank):
        if isinstance(rank, slice):
            return [self[r] for r in range(*rank.indices(len(self)))]
        rank = operator.index(rank)
        if rank < 0:
            rank += len(self)
        if not 0 <= rank < len(self):
            raise IndexError(f"rank {rank} out of range [0, {len(self)})")
        state = int(self.order[rank])
        return Sample(
            bits=_state_bits(state, self.n_vars),
            energy=float(self.energies[state]),
            read_index=rank + 1,
        )

    def __iter__(self) -> Iterator[Sample]:
        ranked = zip(self.order.tolist(), self.energies[self.order].tolist())
        for rank, (state, energy) in enumerate(ranked, start=1):
            yield Sample(_state_bits(state, self.n_vars), energy, rank)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"RankedStates(n_vars={self.n_vars}, states={len(self)})"


@dataclass
class SampleSet:
    """Samples in the exact order a solver produced them, plus timing.

    The exact solver's ``samples`` is a :class:`RankedStates`, which builds
    each sample on access; the samplers' is a plain list.  ``timing``
    values are microseconds.  ``params`` records the sampler parameters
    used, when applicable, so exported sets are replayable.
    """

    samples: Sequence[Sample]
    timing: dict[str, float]
    solver_name: str
    params: dict | None = None

    def best(self) -> Sample:
        if isinstance(self.samples, RankedStates):
            return self.samples[0]  # ranked by the same (energy, bits) key
        return min(self.samples, key=lambda s: (s.energy, s.bits))

    def __len__(self) -> int:
        return len(self.samples)


# -- JSON interchange ----------------------------------------------------------


def qubo_to_json(q: QuboMatrix) -> str:
    """Serialize as {"n_vars": N, "offset": c, "terms": [[i, j, value], ...]}."""
    i, j = np.nonzero(q.upper)
    terms = list(zip(i.tolist(), j.tolist(), q.upper[i, j].tolist()))
    return json.dumps({"n_vars": q.n_vars, "offset": q.offset, "terms": terms})


def qubo_from_json(text: str) -> QuboMatrix:
    obj = json.loads(text)
    q = QuboMatrix(int(obj["n_vars"]), offset=float(obj.get("offset", 0.0)))
    # Object dtype keeps each index as JSON gave it, for range checks and messages.
    i, j, v = np.array(obj["terms"], dtype=object).reshape(-1, 3).T
    lower = np.flatnonzero(i > j)
    if lower.size:
        t = lower[0]
        raise DimensionError(f"term ({i[t]},{j[t]}) is not upper-triangular")
    return q.add_terms(i, j, v)


def _sample_records(samples: Sequence[Sample]) -> Iterator[tuple[str, float, int]]:
    """(bits string, energy, read index) of each sample, in order.

    A :class:`RankedStates` is read straight from its arrays, without
    building a ``Sample`` per state.
    """
    if isinstance(samples, RankedStates):
        width = f"0{samples.n_vars}b"
        ranked = zip(samples.order.tolist(), samples.energies[samples.order].tolist())
        for rank, (state, energy) in enumerate(ranked, start=1):
            yield format(state, width), energy, rank
    else:
        for smp in samples:
            yield "".join(str(b) for b in smp.bits), smp.energy, smp.read_index


def sampleset_to_json(s: SampleSet) -> str:
    obj = {
        "solver": s.solver_name,
        "params": s.params,
        "timing": s.timing,
        "samples": [
            {"bits": bits, "energy": energy, "read_index": read_index}
            for bits, energy, read_index in _sample_records(s.samples)
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
