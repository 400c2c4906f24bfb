"""Direct cycle search and the negative-cycle screen.

These are the reference implementations everything else is judged
against, so they get their own cross-checks: the two detectors must agree
on arbitrage existence over random markets, and the Bellman-Ford answer
must be blind to potential transforms of the weight graph.
"""

import numpy as np
import pytest

from arbqubo import (
    LogWeightMatrix,
    ParamError,
    RateMatrix,
    TooLarge,
    best_cycle_bruteforce,
    generate_consistent,
    has_arbitrage_bellman_ford,
    plant_cycle,
    to_log_weights,
)


def random_market(rng, n):
    rate = np.exp(rng.uniform(-0.5, 0.5, size=(n, n)))
    np.fill_diagonal(rate, 1.0)
    labels = tuple(f"C{i}" for i in range(n))
    return RateMatrix(labels=labels, rate=rate)


class TestBruteForce:
    def test_fig1_triangle(self, fig1):
        result = best_cycle_bruteforce(fig1, max_len=4)
        names = [fig1.labels[c] for c in result.best_cycle]
        assert names == ["USD", "EUR", "GBP", "USD"]
        assert result.best_profit == pytest.approx(1.39230, abs=1e-5)
        assert result.has_arbitrage

    def test_consistent_market_has_no_arbitrage(self):
        rm = generate_consistent(5, seed=3)
        result = best_cycle_bruteforce(rm, max_len=5)
        assert not result.has_arbitrage
        assert result.best_profit == pytest.approx(1.0, abs=1e-9)

    def test_planted_cycle_profit(self):
        rm = plant_cycle(generate_consistent(5, seed=6), (1, 3, 4), strength=1.05)
        result = best_cycle_bruteforce(rm, max_len=5)
        assert result.best_profit == pytest.approx(1.05, abs=1e-9)

    def test_tie_break_prefers_shortest_then_lexicographic(self):
        # Boosting edge 0->1 lifts every cycle through it equally; the
        # 3-position loop [0, 1, 0] must win the tie.
        rm = plant_cycle(generate_consistent(4, seed=6), (0, 1, 2), strength=1.05)
        result = best_cycle_bruteforce(rm, max_len=4)
        assert result.best_cycle == (0, 1, 0)

    def test_size_guard(self):
        rm = generate_consistent(4, seed=0)
        with pytest.raises(TooLarge):
            best_cycle_bruteforce(rm, max_len=6)

    def test_currency_guard(self):
        with pytest.raises(TooLarge):
            best_cycle_bruteforce(generate_consistent(11, seed=0), max_len=3)

    def test_max_len_below_two_rejected(self):
        with pytest.raises(ParamError):
            best_cycle_bruteforce(generate_consistent(4, seed=0), max_len=1)


class TestBellmanFord:
    def test_consistent_market(self):
        w = to_log_weights(generate_consistent(6, seed=9))
        assert not has_arbitrage_bellman_ford(w)

    def test_fig1(self, fig1):
        assert has_arbitrage_bellman_ford(to_log_weights(fig1))

    def test_agrees_with_bruteforce_on_random_markets(self):
        rng = np.random.default_rng(77)
        agree = 0
        for _ in range(200):
            n = int(rng.integers(3, 7))
            rm = random_market(rng, n)
            brute = best_cycle_bruteforce(rm, max_len=n)
            bf = has_arbitrage_bellman_ford(to_log_weights(rm))
            assert bf == brute.has_arbitrage
            agree += 1
        assert agree == 200

    def test_invariant_under_potential_transform(self):
        rng = np.random.default_rng(78)
        for _ in range(30):
            n = int(rng.integers(3, 6))
            rm = random_market(rng, n)
            w = to_log_weights(rm).w.copy()
            before = has_arbitrage_bellman_ford(LogWeightMatrix(w=w))
            vertex = int(rng.integers(0, n))
            shift = float(rng.uniform(-1, 1))
            adjusted = w.copy()
            adjusted[vertex, :] += shift
            adjusted[:, vertex] -= shift
            adjusted[vertex, vertex] = 0.0
            after = has_arbitrage_bellman_ford(LogWeightMatrix(w=adjusted))
            assert after == before


class TestOneTolerance:
    def test_detectors_agree_just_above_the_tolerance(self):
        # A 5e-10 profit lies above PROFIT_EPS (1e-12): both detectors call it.
        rm = plant_cycle(generate_consistent(4, seed=2), (0, 1, 2), strength=1.0000000005)
        assert best_cycle_bruteforce(rm, max_len=4).has_arbitrage
        assert has_arbitrage_bellman_ford(to_log_weights(rm))

    @pytest.mark.parametrize("n", [2, 5, 20, 60])
    def test_screen_quiet_on_consistent_markets(self, n):
        for seed in range(10):
            assert not has_arbitrage_bellman_ford(to_log_weights(generate_consistent(n, seed)))
