"""Exact enumeration, simulated annealing, and tabu search.

The exact solver's split-halves energies are checked against a fresh
term-by-term enumeration that shares no code with them.  The stochastic
samplers are checked for determinism, per-read independence, production
ordering, and for actually reaching the known optimum on planted
instances.  Golden values pin their exact output, and both samplers are
checked against plain one-read-at-a-time references.
"""

import dataclasses
import hashlib
import itertools
import math
import re
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from arbqubo import (
    ModelError,
    ParamError,
    ProblemShape,
    QuboMatrix,
    RateMatrix,
    Sample,
    SampleSet,
    SamplerParams,
    TooLarge,
    build_qubo,
    default_weights,
    generate_consistent,
    ground_state,
    plant_cycle,
    sample_sa,
    sample_tabu,
    solve_exact,
    to_log_weights,
)
from arbqubo import solvers

ETOL = 1e-9


def planted_qubo(n=5, k=4, seed=7, strength=1.05):
    rm = plant_cycle(generate_consistent(n, seed=seed), (0, 1, 2), strength=strength)
    w = to_log_weights(rm)
    shape = ProblemShape(n, k)
    return build_qubo(w, shape, default_weights(w, shape))


def noisy_loop_qubo(n=5, k=4):
    """N=n K=k planted loop on a market with up to 1% noise on each rate.

    The noise breaks the exact move ties of an arbitrage-free market,
    which tabu would settle on the last bits of BLAS sums, so the golden
    values below do not depend on the BLAS build.
    """
    base = generate_consistent(n, seed=7)
    noise = np.exp(np.random.default_rng(7).uniform(-0.01, 0.01, size=(n, n)))
    np.fill_diagonal(noise, 1.0)
    rm = plant_cycle(RateMatrix(base.labels, base.rate * noise), (0, 1, 2), 1.05)
    w = to_log_weights(rm)
    shape = ProblemShape(n, k)
    return build_qubo(w, shape, default_weights(w, shape))


def bit_string(n, *ones):
    """The n-bit string with 1 at the positions ``ones``."""
    return "".join("1" if i in ones else "0" for i in range(n))


def dense_qubo():
    rng = np.random.default_rng(5)
    q = QuboMatrix(8, offset=float(rng.normal()))
    for i in range(8):
        for j in range(i, 8):
            q.add_coefficient(i, j, float(rng.normal()))
    return q


def sparse_qubo(n, density, seed):
    rng = np.random.default_rng(seed)
    q = QuboMatrix(n)
    for i in range(n):
        q.add_coefficient(i, i, float(rng.normal()))
        for j in range(i + 1, n):
            if rng.random() < density:
                q.add_coefficient(i, j, float(rng.normal()))
    return q


def naive_minimum(q: QuboMatrix) -> float:
    """Independent full enumeration with its own energy code."""
    best = None
    for idx in range(1 << q.n_vars):
        bits = [(idx >> (q.n_vars - 1 - i)) & 1 for i in range(q.n_vars)]
        total = q.offset
        for i in range(q.n_vars):
            if bits[i]:
                total += q.coefficient(i, i)
                for j in range(i + 1, q.n_vars):
                    if bits[j]:
                        total += q.coefficient(i, j)
        if best is None or total < best:
            best = total
    return best


class TestSolveExact:
    def test_independent_bits(self):
        q = QuboMatrix(2)
        q.add_coefficient(0, 0, -1.0)
        q.add_coefficient(1, 1, 1.0)
        result = solve_exact(q)
        assert result.samples[0].bits == (1, 0)
        assert result.samples[0].energy == -1.0

    def test_minimum_matches_naive_oracle(self):
        q = planted_qubo(n=3, k=4, seed=5)
        result = solve_exact(q)
        assert result.samples[0].energy == pytest.approx(naive_minimum(q), abs=1e-12)

    def test_guard(self):
        with pytest.raises(TooLarge):
            solve_exact(QuboMatrix(27))

    def test_guard_precedes_allocation(self):
        with pytest.raises(TooLarge):  # 2^64 energies could not be allocated
            solve_exact(QuboMatrix(64))

    def test_wall_time_recorded(self):
        result = solve_exact(QuboMatrix(2))
        assert result.timing["wall_time_us"] > 0

    def test_ground_state_agrees_with_full_solve(self):
        q = planted_qubo(n=4, k=3, seed=9)
        bits, energy = ground_state(q)
        full = solve_exact(q)
        assert bits == full.samples[0].bits
        assert energy == full.samples[0].energy

    def test_set_is_the_optimum_alone(self):
        q = planted_qubo(n=3, k=4, seed=5)
        result = solve_exact(q)
        assert result.samples == [Sample(*ground_state(q), 1)]
        assert result.solver_name == "exact"
        assert result.params is None
        assert list(result.timing) == ["wall_time_us"]
        assert result.timing["wall_time_us"] > 0


def overflowing_qubo():
    """Finite coefficients whose sums leave the float range."""
    q = QuboMatrix(3)
    for i, j, v in [(0, 0, 1e308), (0, 1, 1e308), (1, 1, 1e308), (0, 2, -1e308), (1, 2, -1e308)]:
        q.add_coefficient(i, j, v)
    return q


# What every solver raises, before it reads the matrix, when the
# magnitudes sum to S >= DBL_MAX/4 (``QuboMatrix.check_energy_range``).
ENERGY_RANGE_ERROR = r"^coefficient and offset magnitudes sum to S = \S+ x DBL_MAX/4; "
DBL_MAX = sys.float_info.max


def energy_range_error(q: QuboMatrix) -> str:
    """The message ``q.check_energy_range()`` raises."""
    with pytest.raises(ModelError, match=ENERGY_RANGE_ERROR) as raised:
        q.check_energy_range()
    return str(raised.value)


class TestNonFiniteEnergies:
    def test_ground_state_rejects_overflow(self):
        with pytest.raises(ModelError):
            ground_state(overflowing_qubo())

    def test_solve_exact_rejects_overflow(self):
        with pytest.raises(ModelError):
            solve_exact(overflowing_qubo())

    def test_tabu_rejects_overflow(self):
        q = overflowing_qubo()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelError) as raised:
                sample_tabu(q, SamplerParams(num_reads=4, seed=1))
        assert str(raised.value) == energy_range_error(q)

    @pytest.mark.parametrize("sampler", [sample_sa, sample_tabu])
    def test_samplers_reject_overflowing_descent(self, sampler):
        q = descending_qubo(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelError) as raised:
                sampler(q, SamplerParams(num_reads=2, seed=1, sweeps_per_read=5))
        assert str(raised.value) == energy_range_error(q)


def term_by_term_energies(q: QuboMatrix) -> np.ndarray:
    """Energies of all states in index order, adding one QUBO term at a
    time across every state."""
    n = q.n_vars
    states = np.arange(1 << n)
    bits = [((states >> (n - 1 - i)) & 1).astype(bool) for i in range(n)]
    total = np.full(1 << n, q.offset)
    for i in range(n):
        for j in range(i, n):
            total += q.coefficient(i, j) * (bits[i] & bits[j])
    return total


class TestSplitHalvesEnergies:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 13, 20])
    def test_matches_term_by_term_reference(self, n):
        rng = np.random.default_rng(n)
        q = QuboMatrix(n, offset=float(rng.normal()))
        rows, cols = np.triu_indices(n)
        q.add_terms(rows, cols, rng.normal(size=rows.size))
        starts, chunk = solvers._energy_kernel(q)
        chunks = [chunk(start) for start in starts]
        sizes = [len(chunk) for chunk in chunks]
        assert max(sizes) <= solvers._ENUM_CHUNK
        assert list(starts) == np.cumsum([0] + sizes[:-1]).tolist()
        energies = np.concatenate(chunks)
        reference = term_by_term_energies(q)
        assert energies.shape == reference.shape
        assert np.all(np.abs(energies - reference) <= 1e-12 * np.maximum(1.0, np.abs(reference)))
        for state in rng.integers(0, 1 << n, size=20).tolist():
            expected = q.energy(solvers._state_bits(state, n))
            assert abs(energies[state] - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_overflow_names_a_non_finite_state(self):
        # The kernel refuses the matrix before it computes a chunk, naming
        # S, here 5e308, in units of DBL_MAX/4.
        with pytest.raises(ModelError, match=ENERGY_RANGE_ERROR) as raised:
            solvers._energy_kernel(overflowing_qubo())
        named = float(re.search(r"S = (\S+) x", str(raised.value)).group(1))
        assert named == pytest.approx(5 * (1e308 / (DBL_MAX / 4)), rel=1e-3)


def near_tie_qubo(low: float) -> QuboMatrix:
    """Two variables: (0, 1) at -1.0, (1, 0) at ``low``, (1, 1) far above."""
    q = QuboMatrix(2)
    return q.add_terms([0, 1, 0], [0, 1, 1], [low, -1.0, 10.0])


class TestTieRule:
    @pytest.mark.parametrize(
        "low, expected",
        [
            (np.nextafter(-1.0, -2.0), (0, 1)),  # lower by rounding: lowest bits win
            (-1.0 - 2e-9, (1, 0)),  # lower by more than ENERGY_EPS
        ],
    )
    def test_lowest_bits_win_within_eps(self, low, expected):
        q = near_tie_qubo(low)
        assert ground_state(q)[0] == expected
        assert solve_exact(q).best().bits == expected
        states = [(1, 1), (0, 0), (0, 1), (1, 0)]  # the lowest energy last
        reads = [Sample(bits, q.energy(bits), r) for r, bits in enumerate(states, start=1)]
        assert SampleSet(reads, {}, "tabu").best().bits == expected

    def test_ground_state_rule_spans_chunks(self):
        # State 2 is the first chunk's minimum and state 1 ties it.  The
        # second chunk's minimum, state 2^16, lies more than ENERGY_EPS
        # below state 1 but within it of state 2, so state 2 wins.
        q = QuboMatrix(17)
        q.add_terms(
            [16, 15, 0, 15, 0, 0],
            [16, 15, 0, 16, 15, 16],
            [-1.0, -1.0 - 0.8e-9, -1.0 - 1.5e-9, 10.0, 10.0, 10.0],
        )
        bits, energy = ground_state(q)
        assert bits == (0,) * 15 + (1, 0)
        assert energy == -1.0 - 0.8e-9
        assert solve_exact(q).best().bits == bits


def planted_minima(n: int, linear: dict[int, float]) -> QuboMatrix:
    """``n`` variables whose low states each set one planted variable.

    Planted variable ``v`` has linear term ``linear[v]``, every other one
    10, and every coupling between planted ones is 10, so state
    ``2^(n-1-v)`` has energy ``linear[v]`` and no state with two planted
    bits is below 0.  A chunk holds 2^16 states: variable ``v < n - 16``
    alone is in chunk ``2^(n-17-v)``, any later one in chunk 0.
    """
    q = QuboMatrix(n)
    q.add_terms(range(n), range(n), [linear.get(v, 10.0) for v in range(n)])
    pairs = list(itertools.combinations(sorted(linear), 2))
    return q.add_terms([a for a, _ in pairs], [b for _, b in pairs], 10.0)


def materialized_optimum(q: QuboMatrix) -> tuple[Sample, int]:
    """The optimum by the tie rule from all 2^n energies at once, and the
    one chunk a scan must compute again: the first within ``ENERGY_EPS``
    of the minimum, which holds the optimum."""
    starts, chunk = solvers._energy_kernel(q)
    energies = np.concatenate([chunk(start) for start in starts])
    best = int(np.flatnonzero(energies <= energies.min() + solvers.ENERGY_EPS)[0])
    optimum = Sample(solvers._state_bits(best, q.n_vars), float(energies[best]), 1)
    return optimum, best - best % solvers._ENUM_CHUNK


MIN = -1.0 - 1.5e-9  # the minimum of each planted case
NEAR = MIN + 0.5e-9  # 0.5 * ENERGY_EPS above it: ties
FAR = MIN + 1.5e-9  # 1.5 * ENERGY_EPS above it: does not tie


class TestMultiChunkTies:
    """QUBOs of 2 to 8 chunks, where the optimum's chunk is not the minimum's."""

    @pytest.mark.parametrize(
        "n, linear, winner",
        [
            # A tie in chunk 0 with the minimum in chunk 1.
            (17, {16: NEAR, 0: MIN}, 1),
            # Chunk 0 ties chunk 1 until chunk 2's lower minimum drops it.
            (18, {17: FAR, 1: NEAR, 0: MIN}, 1 << 16),
            # The minimum in chunk 1 wins; chunk 2 ties it from above.
            (19, {18: FAR, 2: MIN, 1: NEAR, 0: FAR}, 1 << 16),
            # Equal near-ties in chunks 0 and 2, the minimum in chunk 4.
            (19, {17: NEAR, 2: FAR, 1: NEAR, 0: MIN}, 2),
            # Every state of every chunk ties.
            (18, None, 0),
        ],
        ids=["tie-before-minimum", "lower-minimum-drops-tie", "minimum-wins", "equal-ties", "zero"],
    )
    def test_matches_materialized_ranking(self, monkeypatch, n, linear, winner):
        q = QuboMatrix(n) if linear is None else planted_minima(n, linear)
        best, first = materialized_optimum(q)
        assert best.bits == solvers._state_bits(winner, n)
        kernel = solvers._energy_kernel
        computed = []

        def spy(q):
            starts, chunk = kernel(q)

            def counted(start):
                computed.append(start)
                return chunk(start)

            return starts, counted

        with monkeypatch.context() as patch:
            patch.setattr(solvers, "_energy_kernel", spy)
            assert ground_state(q) == (best.bits, best.energy)
        assert computed == list(range(0, 1 << n, solvers._ENUM_CHUNK)) + [first]
        assert solve_exact(q).samples == [best]

    def test_optimum_needs_no_memory_per_state(self):
        rng = np.random.default_rng(24)
        q = QuboMatrix(24)
        rows, cols = np.triu_indices(24)
        q.add_terms(rows, cols, rng.normal(size=rows.size))
        tracemalloc.start()
        try:
            result = solve_exact(q)
            result.best(), result.samples[0], len(result.samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The 2^24 energies alone would take 128 MiB.
        assert peak < 4 * 2**20


class TestSamplerParams:
    def test_defaults_are_valid(self):
        SamplerParams()

    def test_bad_reads(self):
        with pytest.raises(ParamError):
            SamplerParams(num_reads=0)

    def test_beta_order(self):
        with pytest.raises(ParamError):
            SamplerParams(beta_start=5.0, beta_end=1.0)

    def test_betas_come_in_pairs(self):
        with pytest.raises(ParamError):
            SamplerParams(beta_start=1.0)

    @pytest.mark.parametrize("betas", [(1.0, float("inf")), (float("nan"), 1.0)])
    def test_non_finite_betas_rejected(self, betas):
        with pytest.raises(ParamError):
            SamplerParams(beta_start=betas[0], beta_end=betas[1])

    @pytest.mark.parametrize("beta_end", [2.0**1022, 1e308])
    def test_beta_end_below_two_to_the_1022(self, beta_end):
        # At beta 2^1022 the smallest threshold, 2^-53 / beta, rounds to 0.
        with pytest.raises(ParamError, match="2\\*\\*1022"):
            SamplerParams(beta_start=1.0, beta_end=beta_end)
        SamplerParams(beta_start=1.0, beta_end=math.nextafter(2.0**1022, 0.0))

    def test_bad_tenure(self):
        with pytest.raises(ParamError):
            SamplerParams(tabu_tenure=0)

    def test_negative_seed(self):
        with pytest.raises(ParamError):
            SamplerParams(seed=-1)

    def test_bad_sweeps(self):
        with pytest.raises(ParamError):
            SamplerParams(sweeps_per_read=0)


class TestSimulatedAnnealing:
    def test_subnormal_scale_fails_fast(self):
        # 10 / 1e-320 overflows, so the default betas would be inf.
        q = QuboMatrix(3)
        q.add_terms([0, 1], [1, 2], [1e-320, -1e-320])
        params = SamplerParams(num_reads=2, seed=1, sweeps_per_read=5)
        with pytest.raises(ModelError, match="too small"):
            params.effective_betas(q)
        with pytest.raises(ModelError, match="too small"):
            sample_sa(q, params)
        # Betas set by hand need no scale.
        set_betas = SamplerParams(
            num_reads=2, seed=1, sweeps_per_read=5, beta_start=1.0, beta_end=2.0
        )
        assert len(sample_sa(q, set_betas)) == 2

    @pytest.mark.parametrize("scale, fails", [(2.3e-307, False), (2.2e-307, True)])
    def test_default_beta_end_stays_below_two_to_the_1022(self, scale, fails):
        # 10 / 2.2e-307 is past 2^1022 = 4.49e307; 10 / 2.3e-307 is not.
        q = QuboMatrix(3)
        q.add_terms([0, 1], [1, 2], [scale, -scale])
        params = SamplerParams(num_reads=2, seed=1, sweeps_per_read=5)
        if fails:
            with pytest.raises(ModelError, match="too small"):
                sample_sa(q, params)
        else:
            assert params.effective_betas(q)[1] < 2.0**1022
            assert len(sample_sa(q, params)) == 2

    def test_zero_problem_stays_at_zero_energy(self):
        q = QuboMatrix(6)
        result = sample_sa(q, SamplerParams(num_reads=10, seed=4, sweeps_per_read=20))
        assert all(s.energy == 0.0 for s in result.samples)

    def test_deterministic(self):
        q = planted_qubo(n=4, k=3)
        params = SamplerParams(num_reads=25, seed=11, sweeps_per_read=60)
        # samples are bit-for-bit reproducible; wall time of course is not
        assert sample_sa(q, params).samples == sample_sa(q, params).samples

    def test_reads_are_independent_of_read_count(self):
        q = planted_qubo(n=4, k=3)
        small = sample_sa(q, SamplerParams(num_reads=3, seed=2, sweeps_per_read=40))
        large = sample_sa(q, SamplerParams(num_reads=8, seed=2, sweeps_per_read=40))
        assert small.samples == large.samples[:3]

    def test_read_blocks_do_not_change_output(self, monkeypatch):
        q = planted_qubo(n=3, k=3)
        params = SamplerParams(num_reads=8, seed=5, sweeps_per_read=30)
        whole = sample_sa(q, params)
        # Blocks of 3, 3 and 2 reads.
        monkeypatch.setattr(solvers, "_SA_BLOCK_ELEMENTS", 3 * params.sweeps_per_read * q.n_vars)
        blocked = sample_sa(q, params)
        assert blocked.samples == whole.samples
        assert blocked.params == whole.params

    @pytest.mark.parametrize(
        "block_reads",
        [
            8,  # one block; tiles of 7, 7, 7, 7 and 2 sweeps
            3,  # blocks of 3, 3 and 2 reads; tiles of 7 x 4 + 2, then 10 x 3
        ],
    )
    def test_sweep_tiles_do_not_change_output(self, monkeypatch, block_reads):
        q = planted_qubo(n=3, k=3)
        params = SamplerParams(num_reads=8, seed=5, sweeps_per_read=30)
        whole = sample_sa(q, params)
        monkeypatch.setattr(solvers, "_SA_BLOCK_ELEMENTS", block_reads * 30 * q.n_vars)
        # Seven sweeps of a full block.
        monkeypatch.setattr(solvers, "_SA_TILE_ELEMENTS", 7 * q.n_vars * block_reads)
        tiled = sample_sa(q, params)
        assert tiled.samples == whole.samples
        assert tiled.params == whole.params

    def test_threshold_memory_does_not_grow_with_sweeps(self):
        params = SamplerParams(num_reads=500, seed=1, sweeps_per_read=250)
        q = planted_qubo()
        tracemalloc.start()
        try:
            sample_sa(q, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # All 500 x 250 x 20 thresholds at once would take 20 MB.
        assert peak < 4 * 2**20

    def test_production_order(self):
        q = planted_qubo(n=3, k=3)
        result = sample_sa(q, SamplerParams(num_reads=12, seed=0, sweeps_per_read=30))
        assert [s.read_index for s in result.samples] == list(range(1, 13))

    def test_energies_reevaluate(self):
        q = planted_qubo(n=4, k=4)
        result = sample_sa(q, SamplerParams(num_reads=20, seed=3, sweeps_per_read=50))
        for s in result.samples:
            assert s.energy == q.energy(s.bits)

    def test_reaches_exact_optimum_on_planted_instance(self):
        q = planted_qubo(n=3, k=4, seed=7)
        optimum = solve_exact(q).samples[0].energy
        result = sample_sa(q, SamplerParams(num_reads=500, seed=1))
        best = min(s.energy for s in result.samples)
        assert best == pytest.approx(optimum, abs=ETOL)

    def test_median_final_energy_non_increasing_in_beta_end(self):
        q = planted_qubo()
        scale = q.max_abs_coefficient()
        medians = []
        for beta_end in (0.05, 0.5, 5.0, 50.0):
            finals = []
            for seed in range(20):
                result = sample_sa(
                    q,
                    SamplerParams(
                        num_reads=1,
                        seed=seed,
                        sweeps_per_read=200,
                        beta_start=0.01 / scale,
                        beta_end=beta_end / scale,
                    ),
                )
                finals.append(result.samples[0].energy)
            medians.append(float(np.median(finals)))
        for colder, hotter in zip(medians[1:], medians):
            assert colder <= hotter + ETOL


class TestTabu:
    def test_greedy_case_solved_in_first_read(self):
        q = QuboMatrix(8)
        for i in range(8):
            q.add_coefficient(i, i, -1.0 - 0.1 * i)
        result = sample_tabu(q, SamplerParams(num_reads=1, seed=5))
        assert result.samples[0].bits == (1,) * 8

    def test_deterministic(self):
        q = planted_qubo(n=4, k=3)
        params = SamplerParams(num_reads=10, seed=21)
        assert sample_tabu(q, params).samples == sample_tabu(q, params).samples

    def test_reads_are_independent_of_read_count(self):
        q = planted_qubo(n=4, k=3)
        small_trace: list = []
        large_trace: list = []
        small = sample_tabu(q, SamplerParams(num_reads=3, seed=2), trace=small_trace)
        large = sample_tabu(q, SamplerParams(num_reads=8, seed=2), trace=large_trace)
        assert small.samples == large.samples[:3]
        assert small_trace == large_trace[: len(small_trace)]

    def test_read_blocks_do_not_change_output(self, monkeypatch):
        q = planted_qubo(n=3, k=3)
        params = SamplerParams(num_reads=8, seed=5)
        whole_trace: list = []
        blocked_trace: list = []
        whole = sample_tabu(q, params, trace=whole_trace)
        monkeypatch.setattr(solvers, "_TABU_BLOCK_ELEMENTS", 3 * q.n_vars)
        blocked = sample_tabu(q, params, trace=blocked_trace)
        assert blocked.samples == whole.samples
        assert blocked_trace == whole_trace

    def test_energies_reevaluate(self):
        q = planted_qubo(n=4, k=4)
        result = sample_tabu(q, SamplerParams(num_reads=10, seed=6))
        for s in result.samples:
            assert s.energy == q.energy(s.bits)

    def test_first_read_reaches_optimum_on_most_seeds(self):
        q = planted_qubo()
        _, optimum = ground_state(q)
        hits = 0
        for seed in range(50):
            result = sample_tabu(q, SamplerParams(num_reads=1, seed=seed))
            if result.samples[0].energy <= optimum + ETOL:
                hits += 1
        assert hits >= 45

    def test_no_tabu_move_without_aspiration(self):
        q = planted_qubo(n=4, k=3)
        trace: list = []
        sample_tabu(q, SamplerParams(num_reads=3, seed=13), trace=trace)
        assert trace, "trace should record every move"
        for _read, _iteration, _var, was_tabu, aspiration in trace:
            if was_tabu:
                assert aspiration

    def test_production_order(self):
        q = planted_qubo(n=3, k=3)
        result = sample_tabu(q, SamplerParams(num_reads=7, seed=0))
        assert [s.read_index for s in result.samples] == list(range(1, 8))


class TestOneEnergyPerState:
    """A read's energy is ``q.energy`` of its bits, whatever reads are
    computed with it."""

    # Each sampler, its block budget and what a read of 50 sweeps costs in
    # it per variable.
    SAMPLERS = {
        "sa": (sample_sa, "_SA_BLOCK_ELEMENTS", 50),
        "tabu": (sample_tabu, "_TABU_BLOCK_ELEMENTS", 1),
    }

    @pytest.mark.parametrize("solver", ["sa", "tabu"])
    @pytest.mark.parametrize(
        "make",
        [lambda: planted_qubo(4, 4, seed=4), lambda: planted_qubo(5, 3, seed=2), dense_qubo],
        ids=["loop-4x4-seed4", "loop-5x3", "dense"],
    )
    def test_reads_do_not_depend_on_the_reads_beside_them(self, monkeypatch, solver, make):
        q = make()
        sample, budget, cost = self.SAMPLERS[solver]
        params = SamplerParams(num_reads=8, seed=1, sweeps_per_read=50)
        whole = sample(q, params).samples
        for num_reads in range(1, 8):
            alone = sample(q, dataclasses.replace(params, num_reads=num_reads)).samples
            assert alone == whole[:num_reads]
        for block_reads in (1, 3):
            monkeypatch.setattr(solvers, budget, block_reads * cost * q.n_vars)
            assert sample(q, params).samples == whole

    def test_every_sample_is_at_its_states_energy(self):
        params = SamplerParams(num_reads=10, seed=1, sweeps_per_read=50)
        for n, k in [(3, 3), (3, 4), (4, 3), (4, 4), (5, 3), (4, 5), (5, 4), (6, 3)]:
            for seed in (1, 2, 3, 4):
                q = planted_qubo(n, k, seed=seed)
                for result in (sample_sa(q, params), sample_tabu(q, params), solve_exact(q)):
                    for s in result.samples:
                        assert s.energy == q.energy(s.bits), (n, k, seed, result.solver_name)


# Output of the sequential one-read-at-a-time samplers on three QUBOs:
# (QUBO, SA params, SA reads, tabu params, tabu reads, tabu trace), a read
# being (bits, energy, read_index) and the trace (moves, last iteration per
# read, sha256 of the trace's repr).  "loop-240" is the N=30 K=8 shape of
# the reads-240v benchmark: 240 variables in 66 levels.  Its SA reads match
# the sequential sweep (below); its tabu walks, 12,000 moves per read, are
# too long for the sequential reference and were recorded from the
# lock-step walk.
GOLDEN = {
    "loop-240": (
        lambda: noisy_loop_qubo(30, 8),
        SamplerParams(num_reads=4, seed=9, sweeps_per_read=40),
        [
            (bit_string(240, 43, 53, 158, 161, 188, 209, 210, 216, 223), -1217.206768296088, 1),
            (bit_string(240, 64, 71, 89, 118, 122, 123, 140, 165), -1254.1156859340051, 2),
            (bit_string(240, 16, 19, 23, 46, 81, 92, 221, 224, 234), -1183.1007613309757, 3),
            (bit_string(240, 29, 64, 71, 100, 105, 131, 186, 190), -1254.1235772023783, 4),
        ],
        SamplerParams(num_reads=2, seed=9),
        [
            (bit_string(240, 5, 14, 52, 89, 104, 111, 138, 187), -1254.2121949067916, 1),
            (bit_string(240, 3, 5, 12, 14, 18, 104, 111, 121), -1254.2468201501504, 2),
        ],
        (
            24233,
            {1: 12116, 2: 12117},
            "b47a065434c13dc8567bdffcc79ff564b4d5a9294d99bb61d3cb3b3a55dd93fb",
        ),
    ),
    "loop": (
        noisy_loop_qubo,
        SamplerParams(num_reads=5, seed=9, sweeps_per_read=30),
        [
            ("01000000000000001011", -104.38840457377545, 1),
            ("01001001000000000010", -104.39377370939582, 2),
            ("01000000000010110000", -104.39366916495382, 3),
            ("00100100000010010000", -104.40898029248893, 4),
            ("00001011000000000100", -104.39065801384655, 5),
        ],
        SamplerParams(num_reads=4, seed=9),
        [
            ("11010010000000000000", -104.46230058320927, 1),
            ("01101001000000000000", -104.46230058320927, 2),
            ("01101001000000000000", -104.46230058320927, 3),
            ("10010110000000000000", -104.46230058320927, 4),
        ],
        (
            4076,
            {1: 1006, 2: 1047, 3: 1013, 4: 1010},
            "0c49d1ae976d4f74538d081c05099bf336fa4d9a239b3e44ab9650216382c140",
        ),
    ),
    "dense": (
        dense_qubo,
        SamplerParams(num_reads=5, seed=9, sweeps_per_read=3),
        [
            ("01111111", -10.152435530752557, 1),
            ("11111111", -10.647639883744898, 2),
            ("11111111", -10.647639883744898, 3),
            ("01111011", -10.37180616902295, 4),
            ("01111011", -10.37180616902295, 5),
        ],
        SamplerParams(num_reads=4, seed=9),
        [
            ("11111111", -10.647639883744896, 1),
            ("11111111", -10.647639883744896, 2),
            ("11111111", -10.647639883744896, 3),
            ("11111111", -10.647639883744896, 4),
        ],
        (
            1613,
            {1: 404, 2: 404, 3: 403, 4: 402},
            "ec121b071f9662ce265372a85fa732c4a1d4f97c34490a8c288dcf4d5e4c1e7b",
        ),
    ),
}


def assert_samples(result, expected):
    assert [("".join(map(str, s.bits)), s.read_index) for s in result.samples] == [
        (bits, read_index) for bits, _, read_index in expected
    ]
    for sample, (_, energy, _) in zip(result.samples, expected):
        assert sample.energy == pytest.approx(energy, rel=1e-12)


@pytest.mark.parametrize("name", sorted(GOLDEN))
class TestGoldenOutput:
    def test_sa(self, name):
        make, params, expected, *_ = GOLDEN[name]
        assert_samples(sample_sa(make(), params), expected)

    def test_tabu_samples_and_trace(self, name):
        make, _, _, params, expected, (moves, last, digest) = GOLDEN[name]
        trace: list = []
        assert_samples(sample_tabu(make(), params, trace=trace), expected)
        assert len(trace) == moves
        assert {read: iteration for read, iteration, *_ in trace} == last
        assert hashlib.sha256(repr(trace).encode()).hexdigest() == digest


class TestGoldenAt240Variables:
    """The 240-variable goldens hold however the work is split."""

    def test_sa_with_uneven_tiles_and_blocks(self, monkeypatch):
        make, params, expected, *_ = GOLDEN["loop-240"]
        q = make()
        # Blocks of 3 and 1 reads; tiles of 7 x 5 + 5 sweeps, then 21 + 19.
        monkeypatch.setattr(solvers, "_SA_BLOCK_ELEMENTS", 3 * 40 * q.n_vars)
        monkeypatch.setattr(solvers, "_SA_TILE_ELEMENTS", 7 * q.n_vars * 3)
        assert_samples(sample_sa(q, params), expected)

    def test_sa_matches_sequential_sweep(self):
        make, params, *_ = GOLDEN["loop-240"]
        q = make()
        assert [s.bits for s in sample_sa(q, params).samples] == sequential_sa(q, params)

    def test_tabu_trace_does_not_change_samples(self):
        make, _, _, params, expected, _ = GOLDEN["loop-240"]
        q = make()
        untraced = sample_tabu(q, params)
        assert untraced.samples == sample_tabu(q, params, trace=[]).samples
        assert_samples(untraced, expected)


def sequential_sa(q: QuboMatrix, p: SamplerParams) -> list[tuple[int, ...]]:
    """Final bits of each read of a plain sweep over variables 0..n-1."""
    betas = np.geomspace(*p.effective_betas(q), p.sweeps_per_read)
    diag, sym = q.symmetric_parts()
    finals = []
    for read_index in range(1, p.num_reads + 1):
        rng = np.random.default_rng(p.seed ^ read_index)
        x = rng.integers(0, 2, size=q.n_vars).astype(float)
        uniforms = rng.random((p.sweeps_per_read, q.n_vars))
        for beta, sweep_uniforms in zip(betas, uniforms):
            for v in range(q.n_vars):
                delta = (1.0 - 2.0 * x[v]) * (diag[v] + sym[v] @ x)
                if sweep_uniforms[v] < np.exp(-beta * max(delta, 0.0)):
                    x[v] = 1.0 - x[v]
        finals.append(tuple(int(b) for b in x))
    return finals


class TestLevelOrderedSweeps:
    QUBOS = {
        "loop-3x3": lambda: planted_qubo(n=3, k=3),
        "loop-5x4": lambda: planted_qubo(),
        "loop-4x5": lambda: planted_qubo(n=4, k=5),
        "loop-8x6": lambda: planted_qubo(n=8, k=6, seed=3),
        "sparse-30": lambda: sparse_qubo(30, 0.1, seed=1),
        "sparse-40": lambda: sparse_qubo(40, 0.3, seed=2),
        "diagonal": lambda: sparse_qubo(12, 0.0, seed=3),
        "dense": dense_qubo,
    }

    @pytest.mark.parametrize("name", sorted(QUBOS))
    def test_levels_are_uncoupled_and_ordered(self, name):
        _, sym = self.QUBOS[name]().symmetric_parts()
        n = sym.shape[0]
        order, runs = solvers._level_runs(sym)
        assert sorted(order.tolist()) == list(range(n))
        assert [a for a, _ in runs] == [0] + [b for _, b in runs[:-1]]
        assert runs[-1][1] == n
        level_of = np.empty(n, dtype=int)
        for level, (a, b) in enumerate(runs):
            members = order[a:b]
            assert b > a
            assert not sym[np.ix_(members, members)].any()
            level_of[members] = level
        for u, v in zip(*np.nonzero(np.triu(sym))):
            assert level_of[u] < level_of[v]

    @pytest.mark.parametrize(
        "q, levels",
        [
            (planted_qubo(), 12),
            (planted_qubo(n=30, k=8), 66),
            (dense_qubo(), 8),
            (sparse_qubo(12, 0.0, seed=3), 1),
        ],
        ids=["loop-5x4", "loop-30x8", "dense", "diagonal"],
    )
    def test_level_counts(self, q, levels):
        assert len(solvers._level_runs(q.symmetric_parts()[1])[1]) == levels

    @pytest.mark.parametrize("name", ["loop-4x5", "sparse-30", "dense"])
    def test_matches_sequential_sweep(self, name):
        q = self.QUBOS[name]()
        params = SamplerParams(num_reads=3, seed=4, sweeps_per_read=25)
        result = sample_sa(q, params)
        assert [s.bits for s in result.samples] == sequential_sa(q, params)


def metropolis_bits(x: np.ndarray, field: np.ndarray, t: np.ndarray) -> np.ndarray:
    """New bits of the Metropolis test: flip when ``(1 - 2x) * field < t``."""
    return np.logical_xor(x, (1.0 - x - x) * field < t)


class TestFoldedThresholds:
    """A step's ``field < threshold``, after the set bits' thresholds are
    folded, is the Metropolis test for every threshold above 0."""

    MAX = np.finfo(float).max
    THRESHOLDS = [2.0**-1074, 1e-310, 2.0**-1022, 0.5, MAX, math.inf]

    @pytest.mark.parametrize("t", THRESHOLDS)
    def test_matches_metropolis_on_edge_fields(self, t):
        fields = [math.inf, -math.inf, self.MAX, -self.MAX, 0.0, -0.0, t, -t]
        fields += [math.nextafter(f, to) for f in (t, -t) for to in (math.inf, -math.inf)]
        f = np.array(fields * 2)[:, None]
        x = np.repeat([0.0, 1.0], len(fields))[:, None]
        threshold = np.full_like(x, t)
        scratch = np.empty_like(x.view(np.int64)), np.empty_like(x.view(np.int64))
        solvers._fold_set_bits(x.view(np.int64), threshold.view(np.int64), *scratch)
        assert (threshold[x == 0.0] == t).all()
        assert (threshold[x == 1.0] == math.nextafter(-t, math.inf)).all()
        with np.errstate(invalid="ignore"):
            expected = metropolis_bits(x, f, t)
        assert np.array_equal(f < threshold, expected)


def seven_call_sa(q: QuboMatrix, p: SamplerParams) -> SampleSet:
    """SA with the earlier level step, which tested ``(1 - 2x) * field <
    t`` and XORed the accepted flips into the bits, on the level order,
    read blocks, thresholds and read driver of ``sample_sa``."""
    beta_start, beta_end = p.effective_betas(q)
    betas = np.geomspace(beta_start, beta_end, p.sweeps_per_read)
    diag, sym = q.symmetric_parts()
    order, runs = solvers._level_runs(sym)
    steps = [(sym[np.ix_(order[a:b], order)], diag[order[a:b], None], slice(a, b)) for a, b in runs]

    def walk(reads, starts, rngs):
        states = np.ascontiguousarray(starts[:, order].T)
        uniforms = np.array([rng.random((p.sweeps_per_read, q.n_vars)) for rng in rngs])
        with np.errstate(divide="ignore"):
            thresholds = np.log(uniforms) / -betas[:, None]
        for sweep in range(p.sweeps_per_read):
            sweep_thresholds = thresholds[:, sweep].T[order]
            for couplings, linear, level in steps:
                field = couplings @ states + linear
                states[level] = metropolis_bits(states[level], field, sweep_thresholds[level])
        final = np.empty_like(starts)
        final[:, order] = states.T
        return final

    block_reads = max(1, solvers._SA_BLOCK_ELEMENTS // (p.sweeps_per_read * q.n_vars))
    params = dict(sweeps_per_read=p.sweeps_per_read, beta_start=beta_start, beta_end=beta_end)
    return solvers._sample_reads(
        q, p, time.perf_counter(), block_reads, walk, solvers.SA_SOLVER_NAME, params
    )


def mapped_qubo(q: QuboMatrix, f) -> QuboMatrix:
    """``q`` with ``f`` applied to its nonzero coefficients."""
    rows, cols = np.nonzero(q.upper)
    return QuboMatrix(q.n_vars).add_terms(rows, cols, f(q.upper[rows, cols]))


class TestMatchesSevenCallStep:
    """``sample_sa`` gives the bits, energies and params of the Metropolis
    step it replaced, at zero fields, subnormal thresholds and +-inf fields."""

    @pytest.mark.parametrize("seed", range(8))
    def test_integer_coefficients(self, seed):
        # Rounded coefficients leave many fields exactly 0.
        q = mapped_qubo(sparse_qubo(4 + seed, 0.4, seed), np.round)
        betas = {} if seed % 2 else dict(beta_start=0.5, beta_end=5.0)
        params = SamplerParams(num_reads=6, seed=seed, sweeps_per_read=30, **betas)
        self.assert_same(q, params)

    @pytest.mark.parametrize("seed", range(4))
    def test_subnormal_thresholds(self, seed):
        # Thresholds -ln(u) / beta reach below 1e-308 at these betas.
        q = mapped_qubo(sparse_qubo(10, 0.5, seed), lambda c: c * 1e-300)
        params = SamplerParams(
            num_reads=6, seed=seed, sweeps_per_read=30, beta_start=1e300, beta_end=4e307
        )
        self.assert_same(q, params)

    @pytest.mark.parametrize("n", [3, 6])
    def test_infinite_fields(self, n):
        # Fields that would overflow never form: the read driver refuses
        # the matrix before the first read.
        q = descending_qubo(n)
        params = SamplerParams(num_reads=4, seed=1, sweeps_per_read=5)
        messages = []
        for sampler in (sample_sa, seven_call_sa):
            with pytest.raises(ModelError, match=ENERGY_RANGE_ERROR) as raised:
                sampler(q, params)
            messages.append(str(raised.value))
        assert messages[0] == messages[1] == energy_range_error(q)

    @pytest.mark.parametrize("num_reads", [1, 4])
    def test_one_variable_levels(self, num_reads):
        # A dense QUBO has a level per variable, so each step's product is
        # one coupling row times the block's states.
        params = SamplerParams(num_reads=num_reads, seed=3, sweeps_per_read=25)
        self.assert_same(dense_qubo(), params)

    @pytest.mark.parametrize(
        "make", [planted_qubo, lambda: noisy_loop_qubo(30, 8), dense_qubo],
        ids=["loop-5x4", "loop-30x8", "dense"],
    )
    def test_one_read(self, make):
        # Each step's product is a level's coupling rows times one column.
        self.assert_same(make(), SamplerParams(num_reads=1, seed=5, sweeps_per_read=20))

    @pytest.mark.parametrize("name", ["loop-5x4", "sparse-30", "dense"])
    def test_one_read_blocks(self, monkeypatch, name):
        # The sweeps of one read fill the block budget, so each of the
        # three blocks holds one read.
        q = TestLevelOrderedSweeps.QUBOS[name]()
        params = SamplerParams(num_reads=3, seed=2, sweeps_per_read=25)
        monkeypatch.setattr(solvers, "_SA_BLOCK_ELEMENTS", params.sweeps_per_read * q.n_vars)
        self.assert_same(q, params)

    @staticmethod
    def assert_same(q, params):
        result, reference = sample_sa(q, params), seven_call_sa(q, params)
        assert result.samples == reference.samples
        assert result.params == reference.params


def sequential_tabu(q: QuboMatrix, p: SamplerParams) -> tuple[list, list, int]:
    """Final bits and trace of each read of a one-read tabu walk.

    Deltas come from ``QuboMatrix.energy_delta``; allowed moves within
    ``ENERGY_EPS`` of the best one tie, and the lowest index wins.  An
    aspiring move improves only if ``QuboMatrix.energy`` of its state also
    beats that of the best state by ``ENERGY_EPS``.  Also counts the
    iterations on which every variable was tabu.
    """
    eps = solvers.ENERGY_EPS
    n = q.n_vars
    tenure = p.effective_tenure(n)
    finals, trace, all_tabu = [], [], 0
    for read_index in range(1, p.num_reads + 1):
        rng = np.random.default_rng(p.seed ^ read_index)
        x = rng.integers(0, 2, size=n).astype(float)
        energy = q.energy(x)
        best_x, best_energy = x.copy(), energy
        tabu_until = [0] * n
        iteration = stall = 0
        while stall < 50 * n:
            iteration += 1
            candidates = [energy + q.energy_delta(x, v) for v in range(n)]
            aspiration = [c < best_energy - eps for c in candidates]
            allowed = [tabu_until[v] < iteration or aspiration[v] for v in range(n)]
            if not any(allowed):
                all_tabu += 1
                allowed = [True] * n
            lowest = min(c for c, ok in zip(candidates, allowed) if ok)
            v = next(v for v in range(n) if allowed[v] and candidates[v] <= lowest + eps)
            trace.append((read_index, iteration, v, tabu_until[v] >= iteration, aspiration[v]))
            x[v] = 1.0 - x[v]
            energy = candidates[v]
            tabu_until[v] = iteration + tenure
            if aspiration[v] and q.energy(x) < q.energy(best_x) - eps:
                best_x, best_energy, stall = x.copy(), energy, 0
            else:
                stall += 1
        finals.append(tuple(int(b) for b in best_x))
    return finals, trace, all_tabu


def beats_from_scratch(q: QuboMatrix, x: np.ndarray, best_x: np.ndarray) -> bool:
    """Whether state ``x`` beats ``best_x`` by ``ENERGY_EPS``, in energies
    taken from scratch as ``sample_tabu`` takes them."""
    best, new = q.energies(np.stack([best_x, x]))
    return new < best - solvers.ENERGY_EPS


def one_read_tabu(q: QuboMatrix, p: SamplerParams) -> tuple[list, list]:
    """Final bits and trace of each read of a one-read tabu walk in numpy.

    The walk of ``sequential_tabu``, one read at a time, with the n deltas
    of an iteration taken as ``sign * field`` from local fields that each
    flip updates, as ``sample_tabu`` keeps them, so its energies drift by
    the same ulps.  Blocked candidates become inf.  An aspiring move
    improves only if its state :func:`beats_from_scratch` the best state.
    An iteration is a dozen numpy calls on n values where
    ``sequential_tabu`` makes n Python calls, so a walk at 240 variables
    stays short enough for the test suite.
    """
    eps = solvers.ENERGY_EPS
    n = q.n_vars
    tenure = p.effective_tenure(n)
    diag, sym = q.symmetric_parts()
    finals, trace = [], []
    for read_index in range(1, p.num_reads + 1):
        rng = np.random.default_rng(p.seed ^ read_index)
        x = rng.integers(0, 2, size=n).astype(float)
        energy = q.energy(x)
        field = diag + sym @ x
        best_x, best_energy = x.copy(), energy
        tabu_until = np.zeros(n, dtype=np.int64)
        iteration = stall = 0
        while stall < 50 * n:
            iteration += 1
            sign = 1.0 - 2.0 * x
            candidates = sign * field + energy
            aspiration = candidates < best_energy - eps
            allowed = (tabu_until < iteration) | aspiration
            if not allowed.any():
                allowed[:] = True
            candidates[~allowed] = np.inf
            v = int(np.argmax(candidates <= candidates.min() + eps))
            trace.append(
                (read_index, iteration, v, bool(tabu_until[v] >= iteration), bool(aspiration[v]))
            )
            field += sign[v] * sym[v]
            x[v] = 1.0 - x[v]
            energy = candidates[v]
            tabu_until[v] = iteration + tenure
            if aspiration[v] and beats_from_scratch(q, x, best_x):
                best_x, best_energy, stall = x.copy(), energy, 0
            else:
                stall += 1
        finals.append(tuple(int(b) for b in best_x))
    return finals, trace


def descending_qubo(n: int) -> QuboMatrix:
    """Every coefficient -1e308: any two set bits sum below -max float."""
    q = QuboMatrix(n)
    for i in range(n):
        for j in range(i, n):
            q.add_coefficient(i, j, -1e308)
    return q


class TestTabuMatchesSequentialWalk:
    CASES = {
        "planted": (planted_qubo, SamplerParams(num_reads=3, seed=4)),
        "noisy-loop": (noisy_loop_qubo, SamplerParams(num_reads=3, seed=9)),
        "dense": (dense_qubo, SamplerParams(num_reads=4, seed=2)),
        "sparse-30": (lambda: sparse_qubo(30, 0.1, seed=1), SamplerParams(num_reads=2, seed=3)),
        "all-tabu": (dense_qubo, SamplerParams(num_reads=4, seed=2, tabu_tenure=8)),
        # Integer coefficients: many moves tie exactly at the minimum.
        "integer-sparse": (
            lambda: mapped_qubo(sparse_qubo(12, 0.4, seed=6), np.round),
            SamplerParams(num_reads=3, seed=5),
        ),
        "integer-loop": (
            lambda: mapped_qubo(planted_qubo(), lambda c: np.round(4 * c)),
            SamplerParams(num_reads=3, seed=6),
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bits_and_trace(self, name):
        make, params = self.CASES[name]
        q = make()
        bits, expected_trace, all_tabu = sequential_tabu(q, params)
        trace: list = []
        result = sample_tabu(q, params, trace=trace)
        assert [s.bits for s in result.samples] == bits
        assert trace == expected_trace
        if name == "all-tabu":
            assert all_tabu > 0  # the fallback ran

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_one_read_reference_is_the_sequential_walk(self, name):
        make, params = self.CASES[name]
        q = make()
        assert one_read_tabu(q, params)[:2] == sequential_tabu(q, params)[:2]

    def test_bits_and_trace_at_240_variables(self):
        # Two lock-step rows whose reads stall out one iteration apart.
        q, params = noisy_loop_qubo(30, 8), SamplerParams(num_reads=2, seed=9)
        bits, expected_trace = one_read_tabu(q, params)
        trace: list = []
        result = sample_tabu(q, params, trace=trace)
        assert [s.bits for s in result.samples] == bits
        assert trace == expected_trace
        assert {read: iteration for read, iteration, *_ in trace} == {1: 12116, 2: 12117}

    @pytest.mark.parametrize("n, seed", [(3, 1), (4, 2), (6, 0), (6, 3)])
    def test_overflowing_descent_names_the_reference_read(self, n, seed):
        # No read walks: the matrix is refused before the first move, with
        # the message exact enumeration gives.
        q, params = descending_qubo(n), SamplerParams(num_reads=4, seed=seed)
        trace: list = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelError, match=ENERGY_RANGE_ERROR) as raised:
                sample_tabu(q, params, trace=trace)
            with pytest.raises(ModelError) as exact:
                ground_state(q)
        assert trace == []
        assert str(raised.value) == str(exact.value) == energy_range_error(q)

    def test_rounding_tie_takes_lowest_index(self):
        # Flipping bit 0 or bit 1 up costs -0.3; bit 1's sum rounds 5.6e-17
        # lower, which a plain argmin would take.
        q = QuboMatrix(2)
        q.add_coefficient(0, 0, -0.3)
        q.add_coefficient(1, 1, -0.1)
        q.add_coefficient(1, 1, -0.2)
        assert q.coefficient(1, 1) < q.coefficient(0, 0)
        params = SamplerParams(num_reads=2, seed=9)
        # Read 2 starts from (0, 0), where both flips tie.
        assert np.random.default_rng(params.seed ^ 2).integers(0, 2, size=2).tolist() == [0, 0]
        trace: list = []
        sample_tabu(q, params, trace=trace)
        assert [var for read, iteration, var, *_ in trace if (read, iteration) == (2, 1)] == [0]


def scaled_qubo(n: int, total: float, negative: bool = False) -> QuboMatrix:
    """Normal coefficients on every (i, j), i <= j, scaled so that their
    magnitudes sum to ``total``; all negative when ``negative``."""
    rows, cols = np.triu_indices(n)
    values = np.random.default_rng(0).normal(size=rows.size)
    if negative:
        values = -np.abs(values)
    return QuboMatrix(n).add_terms(rows, cols, values * (total / np.abs(values).sum()))


class TestEnergyRange:
    """Below S = DBL_MAX/4 every solver gives finite energies without a
    warning; past it every solver raises the one boundary error."""

    SOLVERS = {
        "ground_state": lambda q: [ground_state(q)[1]],
        "solve_exact": lambda q: [s.energy for s in solve_exact(q).samples],
        "sample_sa": lambda q: [
            s.energy
            for s in sample_sa(q, SamplerParams(num_reads=2, seed=1, sweeps_per_read=20)).samples
        ],
        "sample_tabu": lambda q: [
            s.energy for s in sample_tabu(q, SamplerParams(num_reads=2, seed=1)).samples
        ],
    }

    @pytest.mark.parametrize("negative", [False, True], ids=["random-signs", "all-negative"])
    @pytest.mark.parametrize("n", [6, 12, 20])
    def test_just_below_the_bound_is_finite(self, n, negative):
        q = scaled_qubo(n, DBL_MAX / 4 * 0.999, negative)
        assert q.check_energy_range() < DBL_MAX / 4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, solve in self.SOLVERS.items():
                assert all(math.isfinite(e) for e in solve(q)), name

    @pytest.mark.parametrize("negative", [False, True], ids=["random-signs", "all-negative"])
    @pytest.mark.parametrize("n", [6, 12, 20])
    def test_just_past_the_bound_is_refused(self, n, negative):
        q = scaled_qubo(n, DBL_MAX / 4 * 1.002, negative)
        message = energy_range_error(q)
        assert "S = 1.002 x DBL_MAX/4" in message
        for name, solve in self.SOLVERS.items():
            with pytest.raises(ModelError) as raised:
                solve(q)
            assert str(raised.value) == message, name

    def test_refused_although_every_energy_is_finite(self):
        # The states' energies are 0, 1e308, -1e308 and 0, but S = 2e308.
        q = QuboMatrix(2).add_terms([0, 1], [0, 1], [1e308, -1e308])
        with pytest.raises(ModelError, match=ENERGY_RANGE_ERROR):
            ground_state(q)

    def test_returns_the_magnitude_sum(self):
        q = QuboMatrix(3, offset=-2.0).add_terms([0, 0, 2], [0, 1, 2], [1.5, -4.0, 0.25])
        assert q.check_energy_range() == 7.75


class TestTabuRoundingDrift:
    """Where an ulp of the energy exceeds ``ENERGY_EPS``, the incremental
    energy's drift is not improvement, so the walk still stalls out."""

    def test_stops_as_at_scale_one(self):
        params = SamplerParams(num_reads=1, seed=1)
        traces = []
        for total in (1.0, 1e300):
            q = scaled_qubo(12, total)
            trace: list = []
            sample_tabu(q, params, trace=trace)
            assert trace == one_read_tabu(q, params)[1]
            traces.append(trace)
        # Drift still makes some moves aspire, which changes the walk, but
        # the read stalls out after as many moves as at scale one.  If drift
        # counted as improvement, it would do so on thousands of moves and
        # the read would not stall out.
        assert len(traces[1]) == len(traces[0]) == 604

