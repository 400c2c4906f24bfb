"""Classical samplers over a QuboMatrix: exact enumeration, simulated
annealing, and tabu search.

All three return a :class:`~arbqubo.qubo.SampleSet`.  The two stochastic
samplers append one sample per read in production order and are fully
deterministic for a fixed seed: read ``r`` draws every random number it
will ever use from its own generator seeded with ``seed ^ r``, so reads
are independent and the output does not depend on execution order.  The
exact solver instead returns every state sorted by ascending energy (ties
by lexicographic bitvector order) -- there is no meaningful production
order for an enumeration, and downstream first-optimum analysis rejects
its output by solver name.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ParamError, TooLarge
from .qubo import QuboMatrix, Sample, SampleSet

EXACT_SOLVER_NAME = "exact"
SA_SOLVER_NAME = "simulated_annealing"
TABU_SOLVER_NAME = "tabu"

EXACT_MAX_VARS = 26
_ENUM_CHUNK = 1 << 16

# Package-wide "same energy" tolerance.  Tabu's incremental energies drift
# by ulps over long walks; improvements below this are noise, and treating
# them as progress would reset the stall counter indefinitely.
ENERGY_EPS = 1e-9


@dataclass(frozen=True)
class SamplerParams:
    """Knobs shared by the stochastic samplers.

    ``beta_start``/``beta_end`` default to 0.1 and 10 divided by the
    largest coefficient magnitude of the problem being solved, which keeps
    the acceptance probabilities in a useful range regardless of how the
    instance is scaled.  ``tabu_tenure`` defaults to ceil(n/4), sized for
    the <=30-variable instances this package targets.
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
            if not (0 < self.beta_start < self.beta_end):
                raise ParamError(
                    f"need 0 < beta_start < beta_end, got "
                    f"({self.beta_start}, {self.beta_end})"
                )
        if self.tabu_tenure is not None and self.tabu_tenure < 1:
            raise ParamError(f"tabu_tenure must be >= 1, got {self.tabu_tenure}")

    def effective_betas(self, q: QuboMatrix) -> tuple[float, float]:
        if self.beta_start is not None and self.beta_end is not None:
            return self.beta_start, self.beta_end
        scale = q.max_abs_coefficient() or 1.0
        return 0.1 / scale, 10.0 / scale

    def effective_tenure(self, n_vars: int) -> int:
        return self.tabu_tenure if self.tabu_tenure is not None else math.ceil(n_vars / 4)


def _state_bits(index: int, n: int) -> tuple[int, ...]:
    """Bits of enumeration state ``index``; bit 0 is the high bit.

    With that convention, ascending state index is exactly ascending
    lexicographic order of the bit tuples, so stable sorts on energy break
    ties lexicographically for free.
    """
    return tuple((index >> shift) & 1 for shift in range(n - 1, -1, -1))


def _chunk_energies(q: QuboMatrix, bits: np.ndarray) -> np.ndarray:
    return ((bits @ q.upper) * bits).sum(axis=1) + q.offset


def _enumerate_energies(q: QuboMatrix) -> Iterator[tuple[int, np.ndarray]]:
    """Energies of all 2^n states as ``(start, energies)`` chunks in
    ascending state-index order."""
    n = q.n_vars
    if n > EXACT_MAX_VARS:
        raise TooLarge(f"{n} variables exceeds enumeration guard {EXACT_MAX_VARS}")
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)[None, :]
    total = 1 << n
    for start in range(0, total, _ENUM_CHUNK):
        idx = np.arange(start, min(start + _ENUM_CHUNK, total), dtype=np.int64)[:, None]
        yield start, _chunk_energies(q, ((idx >> shifts) & 1).astype(float))


def _sample_set(
    samples: list[Sample], t0: float, solver_name: str, params: dict | None
) -> SampleSet:
    """Wrap a solver's samples with its wall time since ``t0``."""
    return SampleSet(
        samples=samples,
        timing={"wall_time_us": (time.perf_counter() - t0) * 1e6},
        solver_name=solver_name,
        params=params,
    )


def ground_state(q: QuboMatrix) -> tuple[tuple[int, ...], float]:
    """Lowest-energy state by chunked enumeration, without materializing
    the full sample list.  Same guard and tie-break as :func:`solve_exact`.
    """
    best_energy = math.inf
    best_index = -1
    for start, energies in _enumerate_energies(q):
        pos = int(np.argmin(energies))
        if energies[pos] < best_energy:
            best_energy = float(energies[pos])
            best_index = start + pos
    return _state_bits(best_index, q.n_vars), best_energy


def solve_exact(q: QuboMatrix) -> SampleSet:
    """Enumerate all 2^n states, sorted by ascending energy.

    Ties break by lexicographic bitvector order.  Each state becomes a
    Sample, so memory grows as 2^n; n near the guard of 26 is legal but
    expect gigabytes -- use :func:`ground_state` when only the optimum
    matters.
    """
    t0 = time.perf_counter()
    n = q.n_vars
    energies = np.concatenate([chunk for _, chunk in _enumerate_energies(q)])
    order = np.argsort(energies, kind="stable")
    samples = [
        Sample(
            bits=_state_bits(int(state), n),
            energy=float(energies[state]),
            read_index=rank,
        )
        for rank, state in enumerate(order, start=1)
    ]
    return _sample_set(samples, t0, EXACT_SOLVER_NAME, None)


def sample_sa(q: QuboMatrix, p: SamplerParams) -> SampleSet:
    """Simulated annealing: independent restarts of single-flip Metropolis.

    Each read starts from a uniformly random bitvector and performs
    ``sweeps_per_read`` sequential passes over the variables, accepting a
    flip with probability min(1, exp(-beta * dE)) while beta follows a
    geometric ramp from ``beta_start`` to ``beta_end``.  The final state
    of each read is appended in read order.
    """
    t0 = time.perf_counter()
    n = q.n_vars
    beta_start, beta_end = p.effective_betas(q)
    betas = np.geomspace(beta_start, beta_end, p.sweeps_per_read)
    diag, sym = q.symmetric_parts()

    samples: list[Sample] = []
    # Reads run lock-step in blocks for vectorization; every read still
    # consumes randomness only from its own seed ^ read_index stream.
    reads = list(range(1, p.num_reads + 1))
    block_size = max(1, min(p.num_reads, (1 << 23) // max(1, p.sweeps_per_read * n)))
    for block_start in range(0, len(reads), block_size):
        block = reads[block_start : block_start + block_size]
        states = np.empty((len(block), n))
        uniforms = np.empty((len(block), p.sweeps_per_read, n))
        for row, read_index in enumerate(block):
            rng = np.random.default_rng(p.seed ^ read_index)
            states[row] = rng.integers(0, 2, size=n)
            uniforms[row] = rng.random((p.sweeps_per_read, n))
        for sweep in range(p.sweeps_per_read):
            beta = betas[sweep]
            for v in range(n):
                sign = 1.0 - 2.0 * states[:, v]
                delta = sign * (diag[v] + states @ sym[:, v])
                accept = uniforms[:, sweep, v] < np.exp(
                    -beta * np.maximum(delta, 0.0)
                )
                states[:, v] += accept * sign
        energies = _chunk_energies(q, states)
        for row, read_index in enumerate(block):
            bits = tuple(int(b) for b in states[row])
            samples.append(
                Sample(bits=bits, energy=float(energies[row]), read_index=read_index)
            )

    return _sample_set(
        samples,
        t0,
        SA_SOLVER_NAME,
        {
            "num_reads": p.num_reads,
            "seed": p.seed,
            "sweeps_per_read": p.sweeps_per_read,
            "beta_start": beta_start,
            "beta_end": beta_end,
        },
    )


def sample_tabu(
    q: QuboMatrix, p: SamplerParams, trace: list | None = None
) -> SampleSet:
    """Tabu search: steepest single-flip descent with a recency memory.

    Recently flipped variables are forbidden for ``tabu_tenure``
    iterations unless flipping one would beat the best energy seen in the
    read (aspiration).  Every iteration moves to the best allowed
    neighbor, uphill if necessary; a read stops after 50*n iterations
    without improving its best (recorded as ``max_iterations_per_read``).
    The best state of each read is appended in read order.

    ``trace``, when given, collects (read_index, iteration, variable,
    was_tabu, aspiration) tuples for diagnostics.
    """
    t0 = time.perf_counter()
    n = q.n_vars
    tenure = p.effective_tenure(n)
    max_stall = 50 * n
    diag, sym = q.symmetric_parts()

    samples: list[Sample] = []
    for read_index in range(1, p.num_reads + 1):
        rng = np.random.default_rng(p.seed ^ read_index)
        x = rng.integers(0, 2, size=n).astype(float)
        energy = q.energy(x)
        best_x = x.copy()
        best_energy = energy
        tabu_until = np.zeros(n, dtype=np.int64)
        stall = 0
        iteration = 0
        while stall < max_stall:
            iteration += 1
            sign = 1.0 - 2.0 * x
            deltas = sign * (diag + sym @ x)
            candidate = energy + deltas
            aspiration = candidate < best_energy - ENERGY_EPS
            allowed = (tabu_until < iteration) | aspiration
            if not np.any(allowed):
                allowed = np.ones(n, dtype=bool)
            masked = np.where(allowed, candidate, np.inf)
            v = int(np.argmin(masked))
            if trace is not None:
                trace.append(
                    (
                        read_index,
                        iteration,
                        v,
                        bool(tabu_until[v] >= iteration),
                        bool(aspiration[v]),
                    )
                )
            x[v] = 1.0 - x[v]
            energy = float(candidate[v])
            tabu_until[v] = iteration + tenure
            if energy < best_energy - ENERGY_EPS:
                best_energy = energy
                best_x = x.copy()
                stall = 0
            else:
                stall += 1
        bits = tuple(int(b) for b in best_x)
        # Re-evaluate from scratch so stored energies are free of the tiny
        # drift incremental updates can accumulate.
        samples.append(
            Sample(bits=bits, energy=q.energy(best_x), read_index=read_index)
        )

    return _sample_set(
        samples,
        t0,
        TABU_SOLVER_NAME,
        {
            "num_reads": p.num_reads,
            "seed": p.seed,
            "tabu_tenure": tenure,
            "max_iterations_per_read": max_stall,
        },
    )
