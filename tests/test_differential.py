"""Differential checks: each pair of independent routes to one answer must agree.

Rows are (shape, market kind, seed) over every shape ``ProblemShape``
admits with N*K <= 22.  Columns implemented so far:
    - ``solve_exact``'s closed-walk DP and tie walk against enumeration
      (``ground_state``): the same bits at the same energy, ``==``.
    - the same DP against enumeration of all N^(K-1) closed walks, on
      shapes with K >= 5 and up to 42 variables, past ``ground_state``'s
      reach: the lowest bits among the walks within ``ENERGY_EPS`` of the
      cheapest, at the same energy, ``==``.

The DP's input, ``loop_tables``, is pinned on its own: a closed walk's
energy read off the tables equals the QUBO's energy of the encoded walk.

Plus the exact route's other branches: the loop-shape tag that selects
the DP, the enumeration fallback when the weights do not dominate, its
error beyond the enumeration guard, the cap on tied loops, and the DP's
blocking over starts.
"""

import dataclasses
import itertools
import time
import tracemalloc

import numpy as np
import pytest

from arbqubo import (
    ProblemShape,
    QuboMatrix,
    RateMatrix,
    Sample,
    SampleSet,
    TooLarge,
    build_qubo,
    decode,
    default_weights,
    encode_loop,
    generate_consistent,
    ground_state,
    plant_cycle,
    qubo_to_json,
    solve_exact,
    to_log_weights,
    var_index,
)
from arbqubo import cli, model, solvers
from arbqubo.cli import main
from arbqubo.model import loop_tables, weights_dominate
from arbqubo.qubo import ENERGY_EPS

SHAPES = [(n, k) for n in range(2, 12) for k in range(2, n + 2) if n * k <= 22]
MARKETS = ["planted", "noisy", "consistent"]
SEEDS = [1, 2, 3]


def market(kind: str, n: int, seed: int) -> RateMatrix:
    """An arbitrage-free market, with a planted cycle or with every rate
    perturbed by up to 5%."""
    base = generate_consistent(n, seed)
    if kind == "consistent":
        return base
    if kind == "planted":
        return plant_cycle(base, range(min(n, 3)), 1.05)
    rng = np.random.default_rng(seed)
    rate = np.array(base.rate) * np.exp(rng.uniform(-0.05, 0.05, size=(n, n)))
    np.fill_diagonal(rate, 1.0)
    return RateMatrix(labels=base.labels, rate=rate)


def problem(kind, n, k, seed, **overrides):
    w = to_log_weights(market(kind, n, seed))
    shape = ProblemShape(n, k)
    weights = dataclasses.replace(default_weights(w, shape), **overrides)
    return build_qubo(w, shape, weights), w, shape, weights


def no_enumeration(q):
    raise AssertionError("the exact route enumerated")


@pytest.mark.parametrize("kind", MARKETS)
@pytest.mark.parametrize("n, k", SHAPES, ids=[f"N{n}K{k}" for n, k in SHAPES])
def test_dp_matches_enumeration(monkeypatch, n, k, kind):
    problems = [problem(kind, n, k, seed) for seed in SEEDS]
    enumerated = [ground_state(q) for q, *_ in problems]
    monkeypatch.setattr(solvers, "_scan_optimum", no_enumeration)
    for (q, w, shape, weights), expected in zip(problems, enumerated):
        assert weights_dominate(w, shape, weights)
        assert q.loop_shape == shape
        best = solve_exact(q).samples[0]
        assert (best.bits, best.energy) == expected
        assert best.read_index == 1


WALK_SHAPES = [(4, 5), (5, 5), (5, 6), (6, 6), (6, 7)]


def walk_optimum(q, shape):
    """The lowest bits among all closed walks within ``ENERGY_EPS`` of the
    cheapest, and their energy: every walk encoded and priced at once."""
    n, k = shape.n_currencies, shape.loop_length
    walks = np.array(list(itertools.product(range(n), repeat=k - 1)))
    walks = np.column_stack([walks, walks[:, 0]])
    index = np.array([[var_index(c, p, shape) for p in range(1, k + 1)] for c in range(n)])
    states = np.zeros((len(walks), shape.n_vars), dtype=np.int8)
    states[np.arange(len(walks))[:, None], index[walks, np.arange(k)]] = 1
    energies = q.energies(states)
    tied = np.flatnonzero(energies <= energies.min() + ENERGY_EPS)
    best = min(tied, key=lambda row: tuple(states[row].tolist()))
    return tuple(states[best].tolist()), float(energies[best])


@pytest.mark.parametrize("kind", MARKETS)
@pytest.mark.parametrize("n, k", WALK_SHAPES, ids=[f"N{n}K{k}" for n, k in WALK_SHAPES])
def test_dp_matches_walk_enumeration(n, k, kind):
    for seed in SEEDS:
        q, _, shape, _ = problem(kind, n, k, seed)
        assert q.loop_shape == shape
        best = solve_exact(q).samples[0]
        assert (best.bits, best.energy) == walk_optimum(q, shape)


TABLE_SHAPES = [(7, 2), (5, 3), (4, 4), (6, 5), (5, 6), (30, 8)]


@pytest.mark.parametrize("kind", MARKETS)
@pytest.mark.parametrize("n, k", TABLE_SHAPES, ids=[f"N{n}K{k}" for n, k in TABLE_SHAPES])
def test_loop_tables_price_random_closed_walks(n, k, kind):
    rng = np.random.default_rng(n * k)
    for seed in SEEDS:
        q, _, shape, _ = problem(kind, n, k, seed)
        lin, pair, close = loop_tables(q, shape)
        for _ in range(20):
            walk = list(rng.integers(n, size=k - 1))
            walk.append(walk[0])
            energy = (
                q.offset
                + close[walk[0]]
                + sum(lin[p, c] for p, c in enumerate(walk))
                + sum(pair[p, c, d] for p, (c, d) in enumerate(zip(walk, walk[1:])))
            )
            bits = encode_loop(walk, shape)
            assert abs(energy - q.energy(bits)) <= ENERGY_EPS


def test_one_start_per_block_gives_the_same_optimum(monkeypatch):
    cases = [("planted", 30, 8, 1), ("noisy", 11, 2, 2), ("consistent", 7, 3, 3), ("noisy", 5, 4, 1)]
    wide = [solve_exact(problem(*case)[0]).samples for case in cases]
    monkeypatch.setattr(model, "_DP_BLOCK_ELEMENTS", 1)
    assert [solve_exact(problem(*case)[0]).samples for case in cases] == wide


def test_dp_memory_is_blocked_over_starts():
    # N^3 floats at N=160 would take 32 MiB; a block holds at most 8 MiB.
    q, *_ = problem("planted", 160, 3, 1)
    tracemalloc.start()
    try:
        solve_exact(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_tied_loops_are_capped():
    # Without the consecutive reward every closed walk of a consistent
    # market ties: 30^7 of them.
    q, *_ = problem("consistent", 30, 8, 1, consecutive=0.0)
    t0 = time.perf_counter()
    with pytest.raises(TooLarge, match="more than 65536 loops"):
        solve_exact(q)
    assert time.perf_counter() - t0 < 1.0


class TestLoopShape:
    def test_dominating_weights_tag_the_shape(self):
        q, _, shape, _ = problem("planted", 5, 4, 1)
        assert q.loop_shape == shape

    def test_weights_that_do_not_dominate_leave_no_tag(self):
        # The two FALLBACK_WEIGHTS below, as the CLI resolves them.
        q, w, shape, _ = problem("planted", 5, 4, 1, one_hot=0.5, fill=-5.0)
        assert q.loop_shape is None
        assert build_qubo(w, shape, default_weights(w, shape, rate=1e-12)).loop_shape is None

    def test_any_added_term_clears_the_tag(self):
        q, *_ = problem("planted", 5, 4, 1)
        q.add_coefficient(0, 0, 0.0)
        assert q.loop_shape is None
        q, *_ = problem("planted", 5, 4, 1)
        q.add_terms([0, 1], [2, 3], [0.0, 0.0])
        assert q.loop_shape is None

    def test_equality_and_json_ignore_the_tag(self):
        q, *_ = problem("planted", 5, 4, 1)
        rows, cols = np.nonzero(q.upper)
        plain = QuboMatrix(q.n_vars, q.offset).add_terms(rows, cols, q.upper[rows, cols])
        assert plain.loop_shape is None
        assert plain == q and qubo_to_json(plain) == qubo_to_json(q)

    def test_an_infeasible_optimum_is_enumerated(self):
        q, _, shape, weights = problem("planted", 5, 4, 1)
        # Currencies 0 and 1 both at position 1 now pay far more than the
        # one-hot penalty costs, so the DP's closed walks miss the optimum.
        q.add_coefficient(var_index(0, 1, shape), var_index(1, 1, shape), -10 * weights.one_hot)
        best = solve_exact(q).samples[0]
        assert (best.bits, best.energy) == ground_state(q)
        assert not decode(best.bits, shape).feasible


class TestDominance:
    def test_default_weights_dominate(self):
        _, w, shape, weights = problem("planted", 5, 4, 1)
        assert weights_dominate(w, shape, weights)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"one_hot": 0.5, "fill": -5.0},  # crowding pays
            {"consecutive": 1e-3},  # a stay penalty, which the bound excludes
        ],
    )
    def test_failing_weights(self, overrides):
        _, w, shape, weights = problem("planted", 5, 4, 1, **overrides)
        assert not weights_dominate(w, shape, weights)

    def test_margins_need_energy_eps_slack(self):
        # At rate 1e-12 every margin is positive but below ENERGY_EPS.
        _, w, shape, _ = problem("planted", 5, 4, 1)
        assert not weights_dominate(w, shape, default_weights(w, shape, rate=1e-12))


FALLBACK_WEIGHTS = [
    ["--weight-one-hot", "0.5", "--weight-fill", "-5"],
    ["--weight-rate", "1e-12"],
]


def gen(tmp_path, n):
    path = tmp_path / f"m{n}.csv"
    argv = ["gen", "--n", str(n), "--seed", "7", "--plant", "0,1", "--strength", "1.05"]
    assert main(argv + ["--out", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("flags", FALLBACK_WEIGHTS, ids=["crowding", "tiny-rate"])
def test_fallback_enumerates_within_the_guard(tmp_path, capsys, monkeypatch, flags):
    argv = ["solve", "--rates", gen(tmp_path, 5), "--loop-length", "4", *flags]
    capsys.readouterr()
    code = main(argv)
    out = capsys.readouterr().out
    # The enumerated ground state is infeasible at these weights.
    assert code == 3
    assert "best sample is infeasible:" in out
    # The same output as the enumerated ground state.
    def enumerated(q):
        return SampleSet([Sample(*ground_state(q), 1)], {}, "exact")

    monkeypatch.setattr(cli, "solve_exact", enumerated)
    assert main(argv) == code
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("flags", FALLBACK_WEIGHTS, ids=["crowding", "tiny-rate"])
def test_fallback_beyond_the_guard_is_an_error(tmp_path, capsys, flags):
    rates = gen(tmp_path, 30)
    capsys.readouterr()
    code = main(["solve", "--rates", rates, "--loop-length", "8", *flags])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "240 variables exceeds enumeration guard 26" in lines[0]
    assert "weights that dominate the constraint penalties" in lines[0]
