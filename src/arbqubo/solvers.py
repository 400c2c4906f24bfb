"""Classical samplers over a QuboMatrix: exact enumeration, simulated
annealing, and tabu search.

All three return a :class:`~arbqubo.qubo.SampleSet`.  The two stochastic
samplers share one read driver, :func:`_sample_reads`, whose docstring is
their read contract: one sample per read in production order, read ``r``
seeded with ``seed ^ r``.  The exact solver instead returns every state
ranked by ascending energy (ties by lexicographic bitvector order) --
there is no meaningful production order for an enumeration, and
downstream first-optimum analysis rejects its output by solver name.

Enumeration splits the variables into two halves (meet in the middle,
:func:`_energy_chunks`): the energies of each half and the couplings
between them are tabulated once, and each block of 2^16 states is then
one small matrix product plus two broadcast adds.  The exact set keeps
only the 2^n energies, 8 bytes per state, and ranks them on first use;
``best()`` and :func:`ground_state` scan them instead.  Among states
within ``ENERGY_EPS`` of the minimum, the lowest index (lexicographic
bits) is the optimum, so the pick does not depend on the order in which
an energy's terms were summed.

Both samplers vectorize across reads without changing what a read does.
Tabu walks all reads in lock step, one row of an ``(reads, n)`` state
array each.  A row keeps the local fields ``diag + sym @ x`` of its state
and updates them in O(n) per flip, so its n move deltas cost no
matrix-vector product.  Tabu moves whose energies lie within
``ENERGY_EPS`` of the best allowed one tie, and the lowest variable index
wins (:func:`_lowest_tied`): rounding noise never picks the move.
SA keeps its states variables-major and updates, in one step, each run of
mutually uncoupled variables: the QUBO's sparsity pattern orders the
variables into levels so that updating level after level is the
sequential sweep (:func:`_level_runs`).  A dense QUBO degrades to one
variable per step.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, ParamError, TooLarge
from .qubo import (
    ENERGY_EPS,
    QuboMatrix,
    RankedStates,
    Sample,
    SampleSet,
    _lowest_tied,
    _state_bits,
)

EXACT_SOLVER_NAME = "exact"
SA_SOLVER_NAME = "simulated_annealing"
TABU_SOLVER_NAME = "tabu"

EXACT_MAX_VARS = 26
_ENUM_CHUNK = 1 << 16
# The samplers walk their reads in blocks, so memory stays bounded however
# many reads are asked for.  SA's largest array holds a block's
# (sweep, variable, read) thresholds: at most this many, 64 MiB.
_SA_BLOCK_ELEMENTS = 1 << 23
# Tabu walks at most this many (read, variable) states at once, so each of
# its arrays stays within a few MB.
_TABU_BLOCK_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class SamplerParams:
    """Knobs shared by the stochastic samplers.

    ``beta_start``/``beta_end`` default to 0.1 and 10 divided by the
    largest coefficient magnitude of the problem being solved, which keeps
    the acceptance probabilities in a useful range regardless of how the
    instance is scaled.  ``tabu_tenure`` defaults to ceil(n/4) of the
    problem's n variables.
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
            if not (0 < self.beta_start < self.beta_end < math.inf):
                raise ParamError(
                    f"need 0 < beta_start < beta_end < inf, got "
                    f"({self.beta_start}, {self.beta_end})"
                )
        if self.tabu_tenure is not None and self.tabu_tenure < 1:
            raise ParamError(f"tabu_tenure must be >= 1, got {self.tabu_tenure}")

    def effective_betas(self, q: QuboMatrix) -> tuple[float, float]:
        """The set betas, else the defaults; a coefficient scale so small
        (subnormal) that a default beta overflows is a :class:`ModelError`."""
        if self.beta_start is not None and self.beta_end is not None:
            return self.beta_start, self.beta_end
        scale = q.max_abs_coefficient() or 1.0
        betas = 0.1 / scale, 10.0 / scale
        if not math.isfinite(betas[1]):
            raise ModelError(f"largest coefficient {scale!r} is too small to scale the betas")
        return betas

    def effective_tenure(self, n_vars: int) -> int:
        return self.tabu_tenure if self.tabu_tenure is not None else math.ceil(n_vars / 4)


def _quadratic_forms(bits: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """``x @ upper @ x`` for each row ``x`` of ``bits``."""
    return ((bits @ upper) * bits).sum(axis=1)


def _bit_table(m: int) -> np.ndarray:
    """Bits of all 2^m states of m variables, row i state i, high bit first."""
    states = np.arange(1 << m, dtype=np.int64)[:, None]
    return ((states >> np.arange(m - 1, -1, -1)) & 1).astype(float)


def _enumerate_energies(q: QuboMatrix) -> Iterator[tuple[int, np.ndarray]]:
    """Energies of all 2^n states as ``(start, energies)`` chunks in
    ascending state-index order.

    The size guard is checked on the call, before any chunk is asked for.
    Finite coefficients can still sum past the float range; such a state
    has no energy to rank, so the chunk holding it raises
    :class:`ModelError`.
    """
    if q.n_vars > EXACT_MAX_VARS:
        raise TooLarge(f"{q.n_vars} variables exceeds enumeration guard {EXACT_MAX_VARS}")
    return _energy_chunks(q)


def _energy_chunks(q: QuboMatrix) -> Iterator[tuple[int, np.ndarray]]:
    """Split-halves enumeration (meet in the middle).

    State ``s`` is a high half ``s >> low`` over the first ``high``
    variables and a low half ``s & (2^low - 1)`` over the last ``low``,
    so its energy is ``E_hi[hi] + cross(hi, lo) + E_lo[lo]``.  The half
    energies and ``cross = upper[:high, high:] @ B_lo.T`` are computed
    once; a block of high states then costs one small GEMM, ``B_hi @
    cross``, plus two broadcast adds: O(2^n * high) instead of the
    O(2^n * n^2) of evaluating each state from scratch.
    """
    n = q.n_vars
    low = (n + 1) // 2
    high = n - low
    upper = q.upper
    lo_bits, hi_bits = _bit_table(low), _bit_table(high)
    with np.errstate(over="ignore", invalid="ignore"):
        e_lo = _quadratic_forms(lo_bits, upper[high:, high:]) + q.offset
        e_hi = _quadratic_forms(hi_bits, upper[:high, :high])
        cross = upper[:high, high:] @ lo_bits.T
    rows = max(1, _ENUM_CHUNK >> low)
    for first in range(0, 1 << high, rows):
        block = slice(first, first + rows)
        with np.errstate(over="ignore", invalid="ignore"):
            energies = hi_bits[block] @ cross
            energies += e_lo
            energies += e_hi[block, None]
        energies = energies.ravel()
        start = first << low
        # min and max propagate NaN and show +-inf without a mask array.
        if not (math.isfinite(energies.min()) and math.isfinite(energies.max())):
            state = start + int(np.argmin(np.isfinite(energies)))
            raise ModelError(
                f"energy of state {_state_bits(state, n)} is {energies[state - start]}: "
                "the coefficients overflow the float range"
            )
        yield start, energies


def ground_state(q: QuboMatrix) -> tuple[tuple[int, ...], float]:
    """Lowest-energy state by chunked enumeration, without materializing
    the 2^n energies.  Same guard and tie rule as :meth:`SampleSet.best`
    on :func:`solve_exact`: of the states within ``ENERGY_EPS`` of the
    minimum, the lowest index (lexicographic bits) wins.

    It enumerates twice, once for the minimum and once, up to the chunk
    holding the winner, for the lowest tied state: a later, lower minimum
    can drop a state that tied the earlier one.
    """
    lowest = min(energies.min() for _, energies in _enumerate_energies(q))
    for start, energies in _enumerate_energies(q):
        tied = np.flatnonzero(energies <= lowest + ENERGY_EPS)
        if tied.size:  # the chunk holding the minimum always has one
            break
    return _state_bits(start + int(tied[0]), q.n_vars), float(energies[tied[0]])


def solve_exact(q: QuboMatrix) -> SampleSet:
    """Enumerate all 2^n states, ranked by ascending energy.

    Ties rank in lexicographic bitvector order.  The samples are a
    :class:`~arbqubo.qubo.RankedStates` view over the energies, 8 bytes per
    state (512 MiB at the guard of 26 variables), plus 8 more for the
    ranking, which is sorted only when a rank past the first, an iteration
    or the JSON asks for it.  ``best()`` scans the energies.  Each Sample
    is built when it is read.  Use :func:`ground_state` when only the
    optimum matters.
    """
    t0 = time.perf_counter()
    chunks = _enumerate_energies(q)
    energies = np.empty(1 << q.n_vars)
    for start, chunk in chunks:
        energies[start : start + len(chunk)] = chunk
    return SampleSet(
        samples=RankedStates(energies, q.n_vars),
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
    state is appended in read order at its energy evaluated from scratch,
    free of the drift a walk's incremental updates accumulate.  A
    non-finite energy means the coefficients overflow the float range:
    :class:`ModelError`.  The params record is ``num_reads``, ``seed``,
    then ``params``.
    """
    samples: list[Sample] = []
    # Overflow inside a walk surfaces in the energy check below.
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(1, p.num_reads + 1, block_reads):
            reads = range(first, min(first + block_reads, p.num_reads + 1))
            rngs = [np.random.default_rng(p.seed ^ r) for r in reads]
            starts = np.array([rng.integers(0, 2, size=q.n_vars) for rng in rngs], dtype=float)
            final = walk(reads, starts, rngs)
            energies = _quadratic_forms(final, q.upper) + q.offset
            states = [tuple(row) for row in final.astype(np.int64).tolist()]
            for read_index, state, energy in zip(reads, states, energies.tolist()):
                if not math.isfinite(energy):
                    raise ModelError(
                        f"energy of read {read_index} at state {state} is {energy}: "
                        "the coefficients overflow the float range"
                    )
                samples.append(Sample(bits=state, energy=energy, read_index=read_index))
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


def sample_sa(q: QuboMatrix, p: SamplerParams) -> SampleSet:
    """Simulated annealing: independent restarts of single-flip Metropolis.

    Each read performs ``sweeps_per_read`` sequential passes over the
    variables from its start state, accepting a flip with probability
    min(1, exp(-beta * dE)) while beta follows a geometric ramp from
    ``beta_start`` to ``beta_end``.  Reads, seeds and energies follow
    :func:`_sample_reads`; a read draws all its acceptance thresholds
    right after its start state.

    A sweep updates each level of :func:`_level_runs` in one step, for
    all reads of a block at once; that is the sequential sweep, because
    Metropolis updates of uncoupled variables commute.
    """
    t0 = time.perf_counter()
    n = q.n_vars
    beta_start, beta_end = p.effective_betas(q)
    betas = np.geomspace(beta_start, beta_end, p.sweeps_per_read)
    diag, sym = q.symmetric_parts()
    order, runs = _level_runs(sym)
    # Per level: its span, its coupling rows and its linear terms, with
    # variables in level order.
    steps = [
        (slice(a, b), sym[np.ix_(order[a:b], order)], diag[order[a:b], None])
        for a, b in runs
    ]

    def walk(reads: range, starts: np.ndarray, rngs: list) -> np.ndarray:
        # Variables-major, in level order: states[i, row] is variable
        # order[i] of the block's read ``row``.
        states = np.ascontiguousarray(starts[:, order].T)
        thresholds = np.empty((p.sweeps_per_read, n, len(rngs)))
        for row, rng in enumerate(rngs):
            thresholds[:, :, row] = rng.random((p.sweeps_per_read, n))[:, order]
        # u < exp(-beta * max(delta, 0)) rewritten as delta < -ln(u) / beta;
        # the two disagree only where u is within rounding of the bound.
        with np.errstate(divide="ignore"):
            np.log(thresholds, out=thresholds)
        thresholds /= -betas[:, None, None]
        for sweep_thresholds in thresholds:
            for run, couplings, linear in steps:
                x = states[run]
                sign = 1.0 - 2.0 * x
                delta = sign * (linear + couplings @ states)
                x += (delta < sweep_thresholds[run]) * sign
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
    """
    n = q.n_vars
    energy = _quadratic_forms(starts, q.upper) + q.offset
    field = diag + (sym @ starts[:, :, None])[:, :, 0]
    sign = 1.0 - 2.0 * starts
    rows = np.arange(len(reads))
    best = np.empty_like(starts)
    best_sign = sign.copy()
    # Aspiration and improvement both need a move below best - ENERGY_EPS.
    bar = energy - ENERGY_EPS
    tabu_until = np.zeros(sign.shape, dtype=np.int64)
    improved_at = np.zeros(len(reads), dtype=np.int64)
    row_starts = np.arange(0, sign.size, n)
    iteration = 0
    while rows.size:
        iteration += 1
        candidate = sign * field
        candidate += energy[:, None]
        aspiration = candidate < bar[:, None]
        allowed = tabu_until < iteration
        allowed |= aspiration
        # At most ``tenure`` variables are tabu at once, so only a tenure
        # of n or more can leave a row with no allowed move.
        if tenure >= n:
            allowed[~allowed.any(axis=1)] = True
        v = _lowest_tied(np.where(allowed, candidate, np.inf))
        flat = row_starts + v
        if moves is not None:
            read = (rows + reads.start).tolist()
            was_tabu = (tabu_until.take(flat) >= iteration).tolist()
            aspired = aspiration.take(flat).tolist()
            moves.extend(zip(read, [iteration] * len(read), v.tolist(), was_tabu, aspired))
        old = sign.take(flat)
        field += old[:, None] * sym[v]
        sign.put(flat, -old)
        tabu_until.put(flat, iteration + tenure)
        energy = candidate.take(flat)
        improved = energy < bar
        if improved.any():
            bar[improved] = energy[improved] - ENERGY_EPS
            best_sign[improved] = sign[improved]
            improved_at[improved] = iteration
        if improved_at.min() <= iteration - max_stall:
            done = improved_at <= iteration - max_stall
            best[rows[done]] = best_sign[done] < 0
            keep = ~done
            rows, sign, field, energy, best_sign, bar, tabu_until, improved_at = (
                a[keep]
                for a in (rows, sign, field, energy, best_sign, bar, tabu_until, improved_at)
            )
            row_starts = row_starts[: rows.size]
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
    ``max_iterations_per_read``) and returns its best state.  Reads,
    seeds and energies follow :func:`_sample_reads`.

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
