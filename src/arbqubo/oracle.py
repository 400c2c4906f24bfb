"""Ground truth for arbitrage detection, independent of any QUBO.

Two views of the same question.  The brute-force search enumerates every
closed loop up to a position budget and reports the most profitable one;
it is the primary reference the QUBO path is checked against.  The
Bellman-Ford screen answers only whether *some* negative cycle exists in
the log-weight graph, with no length bound, so it is used as an existence
cross-check rather than a value oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .errors import ParamError, TooLarge
from .rates import LogWeightMatrix, RateMatrix

# The package's one arbitrage tolerance: a loop is profitable when its
# rate product exceeds 1 + PROFIT_EPS.  It is also Bellman-Ford's
# relaxation slack on log weights, where ln(1 + eps) ~ eps, and keeps the
# rounding noise of consistent (zero-sum) markets from registering as a
# negative cycle.
PROFIT_EPS = 1e-12
MAX_ORACLE_CURRENCIES = 10


@dataclass(frozen=True)
class OracleResult:
    best_cycle: tuple[int, ...]
    best_profit: float
    has_arbitrage: bool


def best_cycle_bruteforce(rates: RateMatrix, max_len: int) -> OracleResult:
    """Most profitable closed loop of at most ``max_len`` positions.

    Loops run [c1, ..., cm, c1] with distinct currencies c1..cm, counting
    m+1 positions including the closing repeat; m+1 ranges over
    2..max_len.  Ties (to within 1e-12 relative) break toward the
    shortest loop, then lexicographic order, so output is deterministic.
    """
    n = rates.n
    if n > MAX_ORACLE_CURRENCIES:
        raise TooLarge(f"{n} currencies exceeds oracle guard {MAX_ORACLE_CURRENCIES}")
    if max_len > n + 1:
        raise TooLarge(f"max_len {max_len} exceeds the n+1 bound ({n + 1})")
    if max_len < 2:
        raise ParamError(f"max_len must be at least 2, got {max_len}")

    rate = rates.rate.tolist()
    # The first loop in order, [0, 0], prices at exactly 1 (self-rates are
    # fixed at 1), as does every other length-2 loop.  Loops come shortest
    # first, then in lexicographic order, so that order is the tie rule: a
    # tied later loop never replaces the one found first.
    best_cycle, best_profit = (0, 0), 1.0
    for positions in range(3, max_len + 1):
        for body in permutations(range(n), positions - 1):
            loop = body + (body[0],)
            profit = 1.0
            for a, b in zip(loop, loop[1:]):
                profit *= rate[a][b]
            if profit > best_profit + PROFIT_EPS * max(1.0, abs(best_profit)):
                best_cycle, best_profit = loop, profit
    return OracleResult(best_cycle, best_profit, best_profit > 1.0 + PROFIT_EPS)


def has_arbitrage_bellman_ford(w: LogWeightMatrix) -> bool:
    """True iff the log-weight graph contains a negative cycle of any length.

    Standard Bellman-Ford with a virtual source connected to every vertex:
    |V| relaxation rounds, then one extra round -- any further improvement
    means a negative cycle is reachable.  A round that changes nothing
    answers no at once.
    """
    n, weight = w.n, w.w.tolist()
    dist = [0.0] * n  # virtual source already relaxed once into every node
    for _ in range(n + 1):
        changed = False
        for u, row in enumerate(weight):
            du = dist[u]
            for v in range(n):
                cand = du + row[v]
                if u != v and cand < dist[v] - PROFIT_EPS:
                    dist[v] = cand
                    changed = True
        if not changed:
            return False
    return True
