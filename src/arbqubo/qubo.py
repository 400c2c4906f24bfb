"""Quadratic unconstrained binary optimization problems and their samples.

Energies follow the upper-triangular convention: diagonal entries are the
linear coefficients, entries above the diagonal the pairwise couplings, and
a tracked constant offset sits on top so reported energies can be compared
against hand-computed objective values instead of drifting by a constant.
"""

from __future__ import annotations

import io
import json
import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .errors import DimensionError, ModelError, TooLarge

# Package-wide "same energy" tolerance.  Energies summed in different
# orders differ in the last bits, and tabu's incremental energies drift by
# ulps over long walks; differences below this are noise, and treating
# them as progress would reset tabu's stall counter indefinitely.  It is
# also the tie rule (:func:`_lowest_tied`): candidates within it of the
# minimum tie, and the lowest index wins -- the lowest variable for a tabu
# move, the lexicographically lowest bits for a state -- so exact ties on
# arbitrage-free markets do not hang on the last bits of a sum.
ENERGY_EPS = 1e-9

# Dense storage costs 8 * n_vars^2 bytes, 128 MiB here.  ``n_vars`` comes
# from a QUBO file or a rates file's N times the loop length, so a larger
# one fails before numpy is asked for gigabytes.
QUBO_MAX_VARS = 4096


class QuboMatrix:
    """Dense upper-triangular coefficient matrix plus constant offset.

    Mutable while being assembled (``add_terms`` accumulates), then
    treated as read-only: samplers only ever read it, so one instance can
    back many concurrent solver runs.  Dense storage is deliberate (the
    loop QUBOs benchmarked here reach 240 variables, a 460 KB matrix) and
    capped at ``QUBO_MAX_VARS`` variables.  Coefficients and the offset
    must be finite, since one NaN or inf makes every energy meaningless.
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


def _lowest_tied(values: np.ndarray) -> np.ndarray:
    """Along the last axis, the lowest index within ``ENERGY_EPS`` of the minimum."""
    return np.argmax(values <= values.min(axis=-1, keepdims=True) + ENERGY_EPS, axis=-1)


class RankedStates(Sequence[Sample]):
    """Every state of an ``n_vars`` QUBO, ranked by ascending energy.

    ``energies[i]`` is the energy of enumeration state ``i``.  The ranking
    is its stable argsort, so ties rank in lexicographic bit order; it is
    computed on first use and cached, so reading only the best state (rank
    0 or :meth:`best`) sorts nothing.  The ``Sample`` at rank ``r`` is
    built on access, with ``read_index`` r + 1: the view costs 8 bytes per
    state, 16 once ranked, instead of one object each.
    """

    def __init__(self, energies: np.ndarray, n_vars: int):
        self.energies = energies
        self.n_vars = n_vars
        self._order: np.ndarray | None = None

    @property
    def order(self) -> np.ndarray:
        """State indices by ascending energy, ties in ascending index."""
        if self._order is None:
            self._order = np.argsort(self.energies, kind="stable")
        return self._order

    def best(self) -> Sample:
        """The lowest state index among energies within ``ENERGY_EPS`` of
        the minimum, at its rank, found by scans instead of a sort."""
        state = int(_lowest_tied(self.energies))
        energy = self.energies[state]
        rank = np.count_nonzero(self.energies < energy)
        rank += np.count_nonzero(self.energies[:state] == energy)
        return self._sample(state, int(rank))

    def __len__(self) -> int:
        return len(self.energies)

    def __getitem__(self, rank):
        if isinstance(rank, slice):
            return [self[r] for r in range(*rank.indices(len(self)))]
        rank = operator.index(rank)
        if rank < 0:
            rank += len(self)
        if not 0 <= rank < len(self):
            raise IndexError(f"rank {rank} out of range [0, {len(self)})")
        if rank == 0 and self._order is None:
            return self._sample(int(np.argmin(self.energies)), 0)
        return self._sample(int(self.order[rank]), rank)

    def _sample(self, state: int, rank: int) -> Sample:
        return Sample(_state_bits(state, self.n_vars), float(self.energies[state]), rank + 1)

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
        """The sample with the lowest bits among those whose energies lie
        within ``ENERGY_EPS`` of the minimum; of equal bits, the first.

        The tolerance makes the pick independent of the last bits of the
        energy sums, which differ between evaluators.
        """
        if isinstance(self.samples, RankedStates):
            return self.samples.best()
        lowest = min(s.energy for s in self.samples)
        return min(
            (s for s in self.samples if s.energy <= lowest + ENERGY_EPS), key=lambda s: s.bits
        )

    def __len__(self) -> int:
        return len(self.samples)


# -- JSON interchange ----------------------------------------------------------
#
# The readers are strict: a size, index or value of the wrong JSON type is a
# typed error, never truncated or parsed from a string.


def _json_int(value, what: str) -> int:
    """``value`` if JSON gave an integer; a bool or a float is a :class:`DimensionError`."""
    if type(value) is not int:
        raise DimensionError(f"{what} must be an integer, got {value!r}")
    return value


def _json_float(value, what: str) -> float:
    """``value`` as a float if JSON gave a number that fits one; anything
    else, a string or an integer past the float range, is a :class:`ModelError`."""
    if type(value) in (int, float):
        try:
            return float(value)
        except OverflowError:  # an integer literal past the float range
            pass
    raise ModelError(f"{what} must be a number in the float range, got {value!r}")


def qubo_to_json(q: QuboMatrix) -> str:
    """Serialize as {"n_vars": N, "offset": c, "terms": [[i, j, value], ...]}."""
    i, j = np.nonzero(q.upper)
    terms = list(zip(i.tolist(), j.tolist(), q.upper[i, j].tolist()))
    return json.dumps({"n_vars": q.n_vars, "offset": q.offset, "terms": terms})


def qubo_from_json(text: str) -> QuboMatrix:
    obj = json.loads(text)
    n_vars = _json_int(obj["n_vars"], "n_vars")
    q = QuboMatrix(n_vars, offset=_json_float(obj.get("offset", 0.0), "offset"))
    terms = obj["terms"]
    if not (isinstance(terms, list) and all(isinstance(t, list) and len(t) == 3 for t in terms)):
        raise DimensionError("terms must be a list of [i, j, value] triples")
    terms = [
        [_json_int(i, "term index"), _json_int(j, "term index"), _json_float(v, "term value")]
        for i, j, v in terms
    ]
    # Object dtype keeps each index as JSON gave it, for range checks and messages.
    i, j, v = np.array(terms, dtype=object).reshape(-1, 3).T
    lower = np.flatnonzero(i > j)
    if lower.size:
        t = lower[0]
        raise DimensionError(f"term ({i[t]},{j[t]}) is not upper-triangular")
    return q.add_terms(i, j, v)


# Records per write of the streamed sample-set JSON: bounds the Python
# objects alive at once, so writing 2^n ranked states stays within a few MB.
_JSON_BATCH = 1 << 12


def _record_batches(samples: Sequence[Sample]) -> Iterator[list[dict]]:
    """The JSON record of each sample, in order, ``_JSON_BATCH`` at a time.

    A :class:`RankedStates` is read straight from its arrays, without
    building a ``Sample`` per state.
    """
    for first in range(0, len(samples), _JSON_BATCH):
        if isinstance(samples, RankedStates):
            width = f"0{samples.n_vars}b"
            states = samples.order[first : first + _JSON_BATCH]
            records = zip(
                (format(state, width) for state in states.tolist()),
                samples.energies[states].tolist(),
                range(first + 1, first + 1 + len(states)),
            )
        else:
            records = (
                ("".join(str(b) for b in smp.bits), smp.energy, smp.read_index)
                for smp in samples[first : first + _JSON_BATCH]
            )
        yield [
            {"bits": bits, "energy": energy, "read_index": read_index}
            for bits, energy, read_index in records
        ]


def write_sampleset_json(s: SampleSet, fh: TextIO) -> None:
    """Write :func:`sampleset_to_json`'s text to the text file ``fh``.

    The samples are encoded and written a bounded batch at a time, so the
    whole text and one dict per sample never exist at once.  Each batch
    goes through ``json.dumps`` as a list, so the bytes are those of one
    ``json.dumps`` call over the whole set.
    """
    head = json.dumps(
        {"solver": s.solver_name, "params": s.params, "timing": s.timing, "samples": []}
    )
    fh.write(head[: -len("]}")])
    separator = ""
    for batch in _record_batches(s.samples):
        fh.write(separator + json.dumps(batch)[1:-1])
        separator = ", "
    fh.write("]}")


def sampleset_to_json(s: SampleSet) -> str:
    buf = io.StringIO()
    write_sampleset_json(s, buf)
    return buf.getvalue()


def _record_bits(bits) -> tuple[int, ...]:
    if type(bits) is not str or bits.strip("01"):
        raise DimensionError(f"bits must be a string of 0s and 1s, got {bits!r}")
    return tuple(map(int, bits))


def sampleset_from_json(text: str) -> SampleSet:
    obj = json.loads(text)
    samples = [
        Sample(
            bits=_record_bits(rec["bits"]),
            energy=_json_float(rec["energy"], "energy"),
            read_index=_json_int(rec["read_index"], "read_index"),
        )
        for rec in obj["samples"]
    ]
    return SampleSet(
        samples=samples,
        timing={k: float(v) for k, v in obj.get("timing", {}).items()},
        solver_name=obj["solver"],
        params=obj.get("params"),
    )
