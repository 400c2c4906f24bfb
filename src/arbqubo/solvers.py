"""Classical samplers over a QuboMatrix: the exact solver, simulated
annealing, and tabu search.

All three return a :class:`~arbqubo.qubo.SampleSet`.  The two stochastic
samplers share one read driver, :func:`_sample_reads`, whose docstring is
their read contract: one sample per read in production order, read ``r``
seeded with ``seed ^ r``.  The exact solver instead returns one sample,
the optimum, as read 1 -- it has no production order, and downstream
first-optimum analysis rejects its output by solver name.

:func:`solve_exact` is the one exact solver.  On a QUBO that
``model.build_qubo`` tagged with its ``loop_shape`` it runs the
closed-walk DP (``model.loop_optimum``) at any size, else it enumerates
within ``EXACT_MAX_VARS`` variables; :func:`ground_state` always
enumerates, the oracle the DP is checked against.  Among states within
``ENERGY_EPS`` of the minimum, both routes pick the lowest index
(lexicographic bits), so the pick does not depend on the order in which
an energy's terms were summed.

Enumeration splits the variables into two halves (meet in the middle,
:func:`_energy_kernel`): the energies of each half and the couplings
between them are tabulated once, and each block of 2^16 states is then
one small matrix product plus two broadcast adds.  One scan,
:func:`_scan_optimum`, finds the optimum a block at a time.

One energy per state: every solver reports a state at
``QuboMatrix.energies`` of it alone, never at the sum that picked it.
The scan's, the DP's and tabu's sums differ in the last bits, so only
this way do two routes that pick the same state, or two runs that block
a read with different reads, report the same energy.

Both samplers vectorize across reads without changing what a read does.
Tabu walks all reads in lock step, one row of an ``(reads, n)`` state
array each, and updates a row's local fields in O(n) per flip; its tie
rule keeps rounding noise from picking the move (:func:`_tabu_walks`).  SA
updates each level of mutually uncoupled variables in one step of three
calls (:func:`_level_runs`, :func:`_fold_set_bits`), and draws its
thresholds a fixed-size tile of sweeps at a time.

Every solver first refuses a QUBO whose coefficient and offset
magnitudes sum to DBL_MAX/4 or more (``QuboMatrix.check_energy_range``):
below that no sum a solver forms can overflow, so none meets inf or NaN.

Both inner loops are bound by numpy's per-call cost, not by arithmetic,
on arrays of a few rows.  So each step writes into buffers and views
built before the loop and passes them by position, calls ``np.dot``
rather than ``np.matmul``, whose gufunc dispatch costs more on every
call, takes with ``mode="clip"`` (the indices are valid, and the
default mode buffers ``out``), broadcasts no operand it can avoid, and
calls no function that wraps a ufunc or method in Python.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, ParamError, TooLarge
from .model import loop_optimum
from .qubo import (
    ENERGY_EPS,
    QuboMatrix,
    Sample,
    SampleSet,
    _state_bits,
)

EXACT_SOLVER_NAME = "exact"
SA_SOLVER_NAME = "simulated_annealing"
TABU_SOLVER_NAME = "tabu"

EXACT_MAX_VARS = 26
_ENUM_CHUNK = 1 << 16
# The samplers walk their reads in blocks, so memory stays bounded however
# many reads are asked for.  A block's (sweep, variable, read) thresholds
# would total at most this many, 64 MiB, but SA draws them one tile at a
# time.  The rule caps the tiles a read costs, one generator call each: a
# block of fewer reads gets longer tiles, so while one read's thresholds
# fit, a read costs at most 64 tiles.
_SA_BLOCK_ELEMENTS = 1 << 23
# SA's one threshold buffer holds a tile of sweeps of its block: at most
# this many elements, 2 MiB, or one sweep when a sweep is larger.  Neither
# the tiles nor the blocks change the output.
_SA_TILE_ELEMENTS = 1 << 18
# Tabu walks at most this many (read, variable) states at once, so each of
# its arrays stays within a few MB.
_TABU_BLOCK_ELEMENTS = 1 << 18
# The smallest -ln(u) is 2^-53, so at this beta an SA threshold rounds to
# 0, which :func:`_fold_set_bits` cannot carry: betas stay below it.
_BETA_LIMIT = 2.0**1022


@dataclass(frozen=True)
class SamplerParams:
    """Knobs shared by the stochastic samplers.

    ``beta_start``/``beta_end`` default to 0.1 and 10 divided by the
    largest coefficient magnitude of the problem being solved, which keeps
    the acceptance probabilities in a useful range regardless of how the
    instance is scaled.  Betas stay below 2^1022 (about 4.49e307), where
    an acceptance threshold would round to 0.  ``tabu_tenure`` defaults to
    ceil(n/4) of the problem's n variables.
    """

    num_reads: int = 100
    seed: int = 0
    sweeps_per_read: int = 1000
    beta_start: float | None = None
    beta_end: float | None = None
    tabu_tenure: int | None = None

    def __post_init__(self) -> None:
        if self.num_reads < 1:
            raise ParamError(f"num_reads must be >= 1, got {self.num_reads}")
        if self.seed < 0:
            raise ParamError(f"seed must be non-negative, got {self.seed}")
        if self.sweeps_per_read < 1:
            raise ParamError(f"sweeps_per_read must be >= 1, got {self.sweeps_per_read}")
        if (self.beta_start is None) != (self.beta_end is None):
            raise ParamError("beta_start and beta_end must be set together")
        if self.beta_start is not None and self.beta_end is not None:
            if not (0 < self.beta_start < self.beta_end < _BETA_LIMIT):
                raise ParamError(
                    f"need 0 < beta_start < beta_end < 2**1022, got "
                    f"({self.beta_start}, {self.beta_end})"
                )
        if self.tabu_tenure is not None and self.tabu_tenure < 1:
            raise ParamError(f"tabu_tenure must be >= 1, got {self.tabu_tenure}")

    def effective_betas(self, q: QuboMatrix) -> tuple[float, float]:
        """The set betas, else the defaults; a coefficient scale so small
        that the default ``beta_end`` reaches 2^1022 is a
        :class:`ModelError`."""
        if self.beta_start is not None and self.beta_end is not None:
            return self.beta_start, self.beta_end
        scale = q.max_abs_coefficient() or 1.0
        betas = 0.1 / scale, 10.0 / scale
        if not betas[1] < _BETA_LIMIT:
            raise ModelError(f"largest coefficient {scale!r} is too small to scale the betas")
        return betas

    def effective_tenure(self, n_vars: int) -> int:
        return self.tabu_tenure if self.tabu_tenure is not None else math.ceil(n_vars / 4)


def _bit_table(m: int) -> np.ndarray:
    """Bits of all 2^m states of m variables, row i state i, high bit first."""
    states = np.arange(1 << m, dtype=np.int64)[:, None]
    return ((states >> np.arange(m - 1, -1, -1)) & 1).astype(float)


def _energy_kernel(q: QuboMatrix) -> tuple[range, Callable[[int], np.ndarray]]:
    """The first state of each chunk of the 2^n states, ascending, and the
    function computing the energies of the chunk that starts at one.

    The energy range and the size guard are checked on the call.  State
    ``s`` is a high half ``s >> low`` over the first ``high`` variables and
    a low half over the last ``low``, so its energy is ``E_hi[hi] +
    cross(hi, lo) + E_lo[lo]``.
    The half energies and ``cross = upper[:high, high:] @ B_lo.T`` are
    computed once; a chunk then costs one small GEMM, ``B_hi @ cross``,
    plus two broadcast adds: O(2^n * high) instead of O(2^n * n^2).
    """
    q.check_energy_range()
    if q.n_vars > EXACT_MAX_VARS:
        raise TooLarge(
            f"{q.n_vars} variables exceeds enumeration guard {EXACT_MAX_VARS}; past it the "
            "exact solver needs weights that dominate the constraint penalties by ENERGY_EPS"
        )
    n = q.n_vars
    low = (n + 1) // 2
    high = n - low
    upper = q.upper
    lo_bits, hi_bits = _bit_table(low), _bit_table(high)
    e_lo = ((lo_bits @ upper[high:, high:]) * lo_bits).sum(axis=1) + q.offset
    e_hi = ((hi_bits @ upper[:high, :high]) * hi_bits).sum(axis=1)
    cross = upper[:high, high:] @ lo_bits.T
    rows = max(1, _ENUM_CHUNK >> low)

    def chunk(start: int) -> np.ndarray:
        block = slice(start >> low, (start >> low) + rows)
        energies = hi_bits[block] @ cross
        energies += e_lo
        energies += e_hi[block, None]
        return energies.ravel()

    return range(0, 1 << n, rows << low), chunk


def _scan_optimum(q: QuboMatrix) -> tuple[int, ...]:
    """The bits of the optimum, the lowest state within ``ENERGY_EPS`` of
    the minimum.

    A first pass keeps each chunk's minimum.  The first chunk within
    ``ENERGY_EPS`` of the lowest, which holds the optimum, is then computed
    again: a later, lower minimum can drop an earlier tie, so one pass
    would not do.  Each chunk is dropped before the next is computed.
    """
    starts, chunk = _energy_kernel(q)
    lows = [chunk(start).min() for start in starts]
    bar = min(lows) + ENERGY_EPS
    first = next(start for start, low in zip(starts, lows) if low <= bar)
    pos = int(np.argmax(chunk(first) <= bar))
    return _state_bits(first + pos, q.n_vars)


def ground_state(q: QuboMatrix) -> tuple[tuple[int, ...], float]:
    """Lowest-energy state by enumeration, at ``q.energy`` of it: of
    the states within ``ENERGY_EPS`` of the minimum, the lowest index
    (lexicographic bits).  The scan holds one chunk of 2^16 energies
    (512 KiB) at a time."""
    bits = _scan_optimum(q)
    return bits, q.energy(bits)


def solve_exact(q: QuboMatrix) -> SampleSet:
    """The optimum of :func:`ground_state` as a one-sample set, read 1,
    with the solve's wall time: by the closed-walk DP when ``q.loop_shape``
    is set, else by enumeration."""
    t0 = time.perf_counter()
    if q.loop_shape is None:
        bits = _scan_optimum(q)
    else:
        q.check_energy_range()
        bits = loop_optimum(q, q.loop_shape)
    return SampleSet(
        samples=[Sample(bits, q.energy(bits), 1)],
        timing={"wall_time_us": (time.perf_counter() - t0) * 1e6},
        solver_name=EXACT_SOLVER_NAME,
    )


def _sample_reads(
    q: QuboMatrix, p: SamplerParams, t0: float, block_reads: int,
    walk: Callable[[range, np.ndarray, list], np.ndarray], solver_name: str, params: dict,
) -> SampleSet:
    """Reads 1..``num_reads`` of a stochastic sampler, ``block_reads`` at a time.

    Read ``r`` owns a generator seeded with ``seed ^ r``.  Its first draw
    is the read's random start state, and the walk draws anything further
    from it, so reads are independent and the output depends neither on
    execution order nor on the blocks.  ``walk(reads, starts, rngs)`` maps
    a block's ``(reads, n)`` start rows to its final rows.  Each final
    state is appended in read order at ``q.energies`` of it, free of the
    drift a walk's incremental updates accumulate and of the other reads.
    The params record is ``num_reads``, ``seed``, then ``params``.
    """
    q.check_energy_range()
    samples: list[Sample] = []
    for first in range(1, p.num_reads + 1, block_reads):
        reads = range(first, min(first + block_reads, p.num_reads + 1))
        rngs = [np.random.default_rng(p.seed ^ r) for r in reads]
        starts = np.array([rng.integers(0, 2, size=q.n_vars) for rng in rngs], dtype=float)
        final = walk(reads, starts, rngs)
        energies = q.energies(final)
        states = [tuple(row) for row in final.astype(np.int64).tolist()]
        samples.extend(map(Sample, states, energies.tolist(), reads))
    return SampleSet(
        samples=samples,
        timing={"wall_time_us": (time.perf_counter() - t0) * 1e6},
        solver_name=solver_name,
        params={"num_reads": p.num_reads, "seed": p.seed, **params},
    )


def _level_runs(sym: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Variables in level order, and the ``[a, b)`` span of each level in it.

    A variable's level is 0 when it couples to no lower-indexed variable,
    else one more than the highest level among those it couples to.  So
    the variables of one level are mutually uncoupled, and of a coupled
    pair ``u < v`` the level of ``u`` comes first: updating the levels in
    order sees exactly the states a sequential sweep over 0..n-1 sees.
    Within a level, variables keep ascending index order.  A dense QUBO
    has n levels of one variable.
    """
    n = sym.shape[0]
    level = np.zeros(n, dtype=np.int64)
    for v in range(1, n):
        coupled = level[:v][sym[:v, v] != 0.0]
        if coupled.size:
            level[v] = coupled.max() + 1
    ends = np.cumsum(np.bincount(level)).tolist()
    return np.argsort(level, kind="stable"), list(zip([0] + ends[:-1], ends))


def _fold_set_bits(
    state_bits: np.ndarray, threshold_bits: np.ndarray, set_bit: np.ndarray, sign_bit: np.ndarray
) -> None:
    """Turn the threshold ``t > 0`` of each set bit into ``nextafter(-t, inf)``.

    All four arrays are int64: the bits of the 0.0/1.0 states and of their
    thresholds, in place, and two scratch arrays.  A bit at 0 becomes 1
    when its field ``f < t``.  A bit at 1 flips when ``-f < t``, so it
    stays 1 exactly when ``f <= -t``, which is ``f < nextafter(-t, inf)``.
    With set bits' thresholds so folded, a bit's new value is ``f <
    threshold`` whatever its old one.  The bits of 1.0 shifted right by
    61 are 1, those of 0.0 are 0.  Setting the sign bit of ``t`` gives
    ``-t``, and its bits less one are the next float up (-0.0 from the
    smallest subnormal, -DBL_MAX from -inf).  A zero threshold would turn
    into NaN, which is why betas stay below 2^1022.
    """
    np.right_shift(state_bits, 61, out=set_bit)
    np.left_shift(set_bit, 63, out=sign_bit)
    threshold_bits ^= sign_bit
    threshold_bits -= set_bit


def sample_sa(q: QuboMatrix, p: SamplerParams) -> SampleSet:
    """Simulated annealing: independent restarts of single-flip Metropolis.

    Each read performs ``sweeps_per_read`` sequential passes over the
    variables from its start state, accepting a flip with probability
    min(1, exp(-beta * dE)) while beta follows a geometric ramp from
    ``beta_start`` to ``beta_end``.  Reads, seeds and energies follow
    :func:`_sample_reads`; after its start state, a read draws its
    acceptance thresholds sweep by sweep, variable by variable, as one
    unbroken stream.

    A sweep updates each level of :func:`_level_runs` in one step, for
    all reads of a block at once; that is the sequential sweep, because
    Metropolis updates of uncoupled variables commute.  Each sweep first
    gathers its thresholds into one level-ordered buffer, where each set
    bit's threshold ``t`` becomes ``nextafter(-t, inf)``
    (:func:`_fold_set_bits`): a variable is updated once per sweep, so its
    bit at the sweep's start is its bit at its step.  A step is then three
    calls on views and scratch built once per block, each given its output
    by position: the fields ``np.dot(couplings, states)``, plus
    ``linear``, and the new bits ``field < threshold``.  That is the
    Metropolis test ``x XOR ((1 - 2x) * field < t)``.  The tests check
    the samples against a step that computes the fields with ``@``, also
    at one-variable levels and one-read blocks, the shapes for which a
    BLAS may pick a matrix-vector routine.
    """
    t0 = time.perf_counter()
    n = q.n_vars
    beta_start, beta_end = p.effective_betas(q)
    betas = np.geomspace(beta_start, beta_end, p.sweeps_per_read)
    # geomspace can round an inner beta past beta_end, and past 2^1022 a
    # threshold can round to 0.
    np.minimum(betas, beta_end, out=betas)
    diag, sym = q.symmetric_parts()
    order, runs = _level_runs(sym)

    def walk(reads: range, starts: np.ndarray, rngs: list) -> np.ndarray:
        # Variables-major, in level order: states[i, row] is variable
        # order[i] of the block's read ``row``.
        states = np.ascontiguousarray(starts[:, order].T)
        block = len(rngs)
        # One sweep's thresholds, laid out like ``states``, and scratch for
        # folding the set bits' signs into them.
        sweep_thresholds = np.empty_like(states)
        state_bits, threshold_bits = states.view(np.int64), sweep_thresholds.view(np.int64)
        set_bit, sign_bit = np.empty_like(state_bits), np.empty_like(state_bits)
        # Per level, built once per block: its coupling rows and its linear
        # terms as a full (level, read) array, with variables in level
        # order, views of its states and thresholds, and scratch for its
        # fields.
        block_steps = [
            (
                sym[np.ix_(order[a:b], order)], np.repeat(diag[order[a:b], None], block, axis=1),
                states[a:b], sweep_thresholds[a:b], np.empty((b - a, block)),
            )
            for a, b in runs
        ]
        # np.dot skips the gufunc dispatch np.matmul pays on every call, and
        # ufuncs take ``out`` by position faster than by keyword.
        dot, add, less = np.dot, np.add, np.less
        tile_sweeps = min(p.sweeps_per_read, max(1, _SA_TILE_ELEMENTS // (n * block)))
        # Read-major, so each read's draws land in place: tile[row, s, v]
        # belongs to variable v in the tile's sweep s.
        tile = np.empty((block, tile_sweeps, n))
        for first in range(0, p.sweeps_per_read, tile_sweeps):
            tile_betas = betas[first : first + tile_sweeps]
            thresholds = tile[:, : len(tile_betas)]
            for row, rng in enumerate(rngs):
                rng.random(out=thresholds[row])
            # u < exp(-beta * max(delta, 0)) rewritten as delta < -ln(u) / beta;
            # the two disagree only where u is within rounding of the bound.
            # u = 0, or a beta below about 2e-307, gives inf: always accept.
            with np.errstate(divide="ignore", over="ignore"):
                np.log(thresholds, out=thresholds)
                thresholds /= -tile_betas[:, None]
            for sweep in range(len(tile_betas)):
                thresholds[:, sweep].T.take(order, axis=0, out=sweep_thresholds)
                _fold_set_bits(state_bits, threshold_bits, set_bit, sign_bit)
                for couplings, linear, x, threshold, field in block_steps:
                    dot(couplings, states, field)
                    add(field, linear, field)
                    less(field, threshold, x)
        final = np.empty_like(starts)
        final[:, order] = states.T
        return final

    block_reads = max(1, _SA_BLOCK_ELEMENTS // (p.sweeps_per_read * n))
    params = dict(sweeps_per_read=p.sweeps_per_read, beta_start=beta_start, beta_end=beta_end)
    return _sample_reads(q, p, t0, block_reads, walk, SA_SOLVER_NAME, params)


def _tabu_walks(
    q: QuboMatrix, diag: np.ndarray, sym: np.ndarray, reads: range, starts: np.ndarray,
    tenure: int, max_stall: int, moves: list | None,
) -> np.ndarray:
    """Best state of each of ``reads``, walked in lock step from ``starts``.

    Row i of every array is the walk of read ``reads[i]``, and a row is
    dropped once its read stalls out.  No step mixes rows, so each read
    takes the moves it would take alone.  The best rows come back in read
    order.  ``moves``, when given, gets each move's trace tuple.

    A row keeps its state as signs ``1 - 2x`` and its local fields
    ``diag + sym @ x``, so the deltas of all n flips are ``sign * field``.
    A flip of ``v`` with old sign ``s`` adds ``s * sym[v]`` to the fields:
    O(n) per move instead of a matrix-vector product.

    Blocked moves' candidates become inf in place, which leaves the chosen
    move's candidate, its new energy, as it was.  The tie rule picks the
    move: the lowest variable whose candidate is within ``ENERGY_EPS`` of
    the row's lowest.  A move improves when it aspires, but a gain within
    ``drift``, ulps of S over a stall window, of ``ENERGY_EPS`` may be
    rounding drift: it must also beat the best state in ``q.energies``.

    Each per-row value, the energy and the chosen move's index, sign and
    outcome, is a ``(rows, 1)`` column.  Each row's bar, best -
    ``ENERGY_EPS``, fills its row of a ``(rows, n)`` array, refreshed only
    on improvement, so the aspiration test broadcasts nothing.  Rows are
    checked for stalling, and the scratch is rebuilt, only at the first
    iteration at which one can have stalled out.  Until then an untraced
    iteration that improves no row allocates nothing.
    """
    n = q.n_vars
    drift = max_stall * 2.0**-50 * q.check_energy_range()
    energy = q.energies(starts)[:, None]
    field = diag + (sym @ starts[:, :, None])[:, :, 0]
    sign = 1.0 - 2.0 * starts
    rows = np.arange(len(reads))
    best = np.empty_like(starts)
    best_sign = sign.copy()
    # Aspiration and improvement both need a move below best - ENERGY_EPS.
    bar = np.repeat(energy - ENERGY_EPS, n, axis=1)
    tabu_until = np.zeros(sign.shape, dtype=np.int64)
    improved_at = np.zeros(len(reads), dtype=np.int64)
    iteration = 0
    while rows.size:
        # ``improved_at`` only grows, so no row can stall out before
        # ``stop``; there the stalled rows, if any, drop.
        row_starts = np.arange(0, sign.size, n)[:, None]
        candidate, gathered = np.empty_like(sign), np.empty_like(sign)
        # sym.take of (rows, 1) indices writes its rows into this view.
        gathered_rows = gathered[:, None]
        aspiration, blocked, tied = (np.empty(sign.shape, dtype=bool) for _ in range(3))
        v, flat = np.empty(energy.shape, dtype=np.intp), np.empty(energy.shape, dtype=np.intp)
        bound, old, new = (np.empty_like(energy) for _ in range(3))
        improved = np.empty(energy.shape, dtype=bool)
        stop = int(improved_at.min()) + max_stall
        while iteration < stop:
            iteration += 1
            np.multiply(sign, field, candidate)
            np.add(candidate, energy, candidate)
            np.less(candidate, bar, aspiration)
            # Blocked: tabu and not aspiring (on bools, a > b is a and not b).
            np.greater_equal(tabu_until, iteration, blocked)
            np.greater(blocked, aspiration, blocked)
            # At most ``tenure`` variables are tabu at once, so only a tenure
            # of n or more can block every move of a row.
            if tenure >= n:
                blocked[blocked.all(axis=1)] = False
            # The chosen move is not blocked, so its candidate stays its energy.
            np.putmask(candidate, blocked, np.inf)
            # ``flat`` first holds the flat index of each row's lowest candidate.
            candidate.argmin(1, flat, keepdims=True)
            np.add(flat, row_starts, flat)
            candidate.take(flat, out=bound, mode="clip")
            np.add(bound, ENERGY_EPS, bound)
            np.less_equal(candidate, bound, tied)
            tied.argmax(1, v, keepdims=True)
            np.add(v, row_starts, flat)
            if moves is not None:
                read = (rows + reads.start).tolist()
                was_tabu = (tabu_until.take(flat) >= iteration).ravel().tolist()
                aspired = aspiration.take(flat).ravel().tolist()
                moves.extend(
                    zip(read, [iteration] * len(read), v.ravel().tolist(), was_tabu, aspired)
                )
            sign.take(flat, out=old, mode="clip")
            sym.take(v, axis=0, out=gathered_rows, mode="clip")
            np.multiply(gathered, old, gathered)
            np.add(field, gathered, field)
            np.negative(old, new)
            sign.put(flat, new)
            tabu_until.put(flat, iteration + tenure)
            candidate.take(flat, out=energy, mode="clip")
            aspiration.take(flat, out=improved, mode="clip")
            if np.count_nonzero(improved):
                hit = improved[:, 0]
                for row in np.flatnonzero(hit & (energy[:, 0] > bar[:, 0] - drift)):
                    pair = (np.stack([best_sign[row], sign[row]]) < 0).astype(float)
                    best_energy, new_energy = q.energies(pair)
                    hit[row] = new_energy < best_energy - ENERGY_EPS
                bar[hit] = energy[hit] - ENERGY_EPS
                best_sign[hit] = sign[hit]
                improved_at[hit] = iteration
        done = improved_at <= iteration - max_stall
        best[rows[done]] = best_sign[done] < 0
        keep = ~done
        rows, sign, field, energy, best_sign, bar, tabu_until, improved_at = (
            a[keep] for a in (rows, sign, field, energy, best_sign, bar, tabu_until, improved_at)
        )
    return best


def sample_tabu(
    q: QuboMatrix, p: SamplerParams, trace: list | None = None
) -> SampleSet:
    """Tabu search: steepest single-flip descent with a recency memory.

    Recently flipped variables are forbidden for ``tabu_tenure``
    iterations unless flipping one would beat the best energy seen in the
    read (aspiration).  Every iteration moves to the best allowed
    neighbor, uphill if necessary; allowed moves within ``ENERGY_EPS`` of
    the best one tie, and the lowest variable index wins.  A read stops
    after 50*n iterations without improving its best (recorded as
    ``max_iterations_per_read``) and returns its best state; a gain that
    rounding drift could explain must hold from scratch.  Reads, seeds and
    energies follow :func:`_sample_reads`.

    Reads walk in lock step (:func:`_tabu_walks`), in blocks that bound
    the state arrays to ``_TABU_BLOCK_ELEMENTS`` entries.

    ``trace``, when given, collects (read_index, iteration, variable,
    was_tabu, aspiration) tuples for diagnostics, read by read.
    """
    t0 = time.perf_counter()
    n = q.n_vars
    tenure = p.effective_tenure(n)
    max_stall = 50 * n
    moves = None if trace is None else []
    diag, sym = q.symmetric_parts()

    def walk(reads: range, starts: np.ndarray, _) -> np.ndarray:
        return _tabu_walks(q, diag, sym, reads, starts, tenure, max_stall, moves)

    params = dict(tabu_tenure=tenure, max_iterations_per_read=max_stall)
    block_reads = max(1, _TABU_BLOCK_ELEMENTS // n)
    result = _sample_reads(q, p, t0, block_reads, walk, TABU_SOLVER_NAME, params)
    if trace is not None:
        # Each tuple starts with (read, iteration): sorting gives read-by-read order.
        trace.extend(sorted(moves))
    return result
