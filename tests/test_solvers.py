"""Exact enumeration, simulated annealing, and tabu search.

The exact solver's split-halves energies are checked against a fresh
term-by-term enumeration that shares no code with them.  The stochastic
samplers are checked for determinism, per-read independence, production
ordering, and for actually reaching the known optimum on planted
instances.  Golden values pin their exact output, and both samplers are
checked against plain one-read-at-a-time references.
"""

import ast
import hashlib
import itertools
import math
import re
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


def noisy_loop_qubo():
    """N=5 K=4 planted loop on a market with up to 1% noise on each rate.

    The noise breaks the exact move ties of an arbitrage-free market,
    which tabu would settle on the last bits of BLAS sums, so the golden
    values below do not depend on the BLAS build.
    """
    base = generate_consistent(5, seed=7)
    noise = np.exp(np.random.default_rng(7).uniform(-0.01, 0.01, size=(5, 5)))
    np.fill_diagonal(noise, 1.0)
    rm = plant_cycle(RateMatrix(base.labels, base.rate * noise), (0, 1, 2), 1.05)
    w = to_log_weights(rm)
    shape = ProblemShape(5, 4)
    return build_qubo(w, shape, default_weights(w, shape))


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

    def test_covers_all_states(self):
        q = QuboMatrix(5)
        result = solve_exact(q)
        assert len(result) == 32
        assert len({s.bits for s in result.samples}) == 32

    def test_energy_sorted_with_lexicographic_ties(self):
        q = QuboMatrix(2)  # all energies zero: pure tie-break
        result = solve_exact(q)
        assert [s.bits for s in result.samples] == [
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 1),
        ]
        energies = [s.energy for s in result.samples]
        assert energies == sorted(energies)

    def test_minimum_matches_naive_oracle(self):
        q = planted_qubo(n=3, k=4, seed=5)
        result = solve_exact(q)
        assert result.samples[0].energy == pytest.approx(naive_minimum(q), abs=1e-12)

    def test_read_index_contiguous(self):
        q = QuboMatrix(3)
        q.add_coefficient(0, 1, 1.0)
        result = solve_exact(q)
        assert [s.read_index for s in result.samples] == list(range(1, 9))

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


def overflowing_qubo():
    """Finite coefficients whose sums leave the float range."""
    q = QuboMatrix(3)
    for i, j, v in [(0, 0, 1e308), (0, 1, 1e308), (1, 1, 1e308), (0, 2, -1e308), (1, 2, -1e308)]:
        q.add_coefficient(i, j, v)
    return q


class TestNonFiniteEnergies:
    def test_ground_state_rejects_overflow(self):
        with pytest.raises(ModelError):
            ground_state(overflowing_qubo())

    def test_solve_exact_rejects_overflow(self):
        with pytest.raises(ModelError):
            solve_exact(overflowing_qubo())

    def test_tabu_rejects_overflow(self):
        # Reads 1 and 4 end at states whose energy sums to NaN.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelError, match="read 1 "):
                sample_tabu(overflowing_qubo(), SamplerParams(num_reads=4, seed=1))

    @pytest.mark.parametrize("sampler", [sample_sa, sample_tabu])
    def test_samplers_reject_overflowing_descent(self, sampler):
        q = QuboMatrix(3)  # every pair of set bits sums below -max float
        for i in range(3):
            for j in range(i, 3):
                q.add_coefficient(i, j, -1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelError, match="read 1 "):
                sampler(q, SamplerParams(num_reads=2, seed=1, sweeps_per_read=5))


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
        starts, chunks = zip(*solvers._enumerate_energies(q))
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
        q = overflowing_qubo()
        with pytest.raises(ModelError) as raised:
            list(solvers._enumerate_energies(q))
        bits = ast.literal_eval(re.search(r"state (\([01, ]+\))", str(raised.value)).group(1))
        with np.errstate(over="ignore", invalid="ignore"):
            assert not math.isfinite(q.energy(bits))


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
        result = solve_exact(q)
        assert result.samples[0].bits == (1, 0)  # the ranking itself is strict
        assert ground_state(q)[0] == expected
        best = result.best()
        assert best.bits == expected
        assert best == list(result.samples)[best.read_index - 1]
        reads = SampleSet(list(reversed(list(result.samples))), {}, "tabu")
        assert reads.best().bits == expected

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


def tied_qubo():
    """6 variables, coefficients in {-1, 0, 1}: exact sums, many ties."""
    rng = np.random.default_rng(11)
    q = QuboMatrix(6)
    for i in range(6):
        for j in range(i, 6):
            q.add_coefficient(i, j, float(rng.integers(-1, 2)))
    return q


def ranked_reference(q: QuboMatrix) -> list[Sample]:
    """All states by (energy, bits), energies summed term by term."""
    scored = []
    for bits in itertools.product((0, 1), repeat=q.n_vars):
        total = q.offset + sum(
            q.coefficient(i, j)
            for i in range(q.n_vars)
            for j in range(i, q.n_vars)
            if bits[i] and bits[j]
        )
        scored.append((total, bits))
    scored.sort()
    return [Sample(bits, energy, rank) for rank, (energy, bits) in enumerate(scored, start=1)]


class TestRankedStates:
    def test_ranking_matches_reference(self):
        q = tied_qubo()
        reference = ranked_reference(q)
        assert len({s.energy for s in reference}) < 16  # 64 states, heavy ties
        assert list(solve_exact(q).samples) == reference

    def test_best_is_minimum_of_materialized_list(self):
        result = solve_exact(tied_qubo())
        assert result.best() == min(list(result.samples), key=lambda s: (s.energy, s.bits))

    def test_best_and_first_rank_sort_nothing(self, monkeypatch):
        def no_sort(*args, **kwargs):
            raise AssertionError("the ranking was built")

        q = tied_qubo()
        with monkeypatch.context() as patch:
            patch.setattr(np, "argsort", no_sort)
            result = solve_exact(q)
            best, first = result.best(), result.samples[0]
        ranked = list(result.samples)
        assert best == min(ranked, key=lambda s: (s.energy, s.bits))  # exact sums
        assert first == ranked[0]
        assert result.samples.order is result.samples.order

    def test_sequence_access(self):
        q = tied_qubo()
        reference = ranked_reference(q)
        samples = solve_exact(q).samples
        assert len(samples) == 64
        assert samples[5] == reference[5]
        assert samples[-1] == reference[-1]
        assert samples[-64] == reference[0]
        assert samples[10:20] == reference[10:20]
        assert samples[::-7] == reference[::-7]
        assert samples[60:100] == reference[60:]
        with pytest.raises(IndexError):
            samples[64]
        with pytest.raises(IndexError):
            samples[-65]
        assert samples == reference
        assert reference == samples
        assert samples != reference[:-1]
        assert samples != reference[::-1]


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

    def test_production_order(self):
        q = planted_qubo(n=3, k=3)
        result = sample_sa(q, SamplerParams(num_reads=12, seed=0, sweeps_per_read=30))
        assert [s.read_index for s in result.samples] == list(range(1, 13))

    def test_energies_reevaluate(self):
        q = planted_qubo(n=4, k=4)
        result = sample_sa(q, SamplerParams(num_reads=20, seed=3, sweeps_per_read=50))
        for s in result.samples:
            assert s.energy == pytest.approx(q.energy(s.bits), abs=ETOL)

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
            assert s.energy == pytest.approx(q.energy(s.bits), abs=ETOL)

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


# Output of the sequential one-read-at-a-time samplers on two QUBOs:
# (QUBO, SA params, SA reads, tabu params, tabu reads, tabu trace), a read
# being (bits, energy, read_index) and the trace (moves, last iteration per
# read, sha256 of the trace's repr).
GOLDEN = {
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


def sequential_tabu(q: QuboMatrix, p: SamplerParams) -> tuple[list, list, int]:
    """Final bits and trace of each read of a one-read tabu walk.

    Deltas come from ``QuboMatrix.energy_delta``; allowed moves within
    ``ENERGY_EPS`` of the best one tie, and the lowest index wins.  Also
    counts the iterations on which every variable was tabu.
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
            if energy < best_energy - eps:
                best_x, best_energy, stall = x.copy(), energy, 0
            else:
                stall += 1
        finals.append(tuple(int(b) for b in best_x))
    return finals, trace, all_tabu


class TestTabuMatchesSequentialWalk:
    CASES = {
        "planted": (planted_qubo, SamplerParams(num_reads=3, seed=4)),
        "noisy-loop": (noisy_loop_qubo, SamplerParams(num_reads=3, seed=9)),
        "dense": (dense_qubo, SamplerParams(num_reads=4, seed=2)),
        "sparse-30": (lambda: sparse_qubo(30, 0.1, seed=1), SamplerParams(num_reads=2, seed=3)),
        "all-tabu": (dense_qubo, SamplerParams(num_reads=4, seed=2, tabu_tenure=8)),
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
