"""Benchmark-owned reference optimum: a closed-walk min-plus DP.

A feasible loop puts one currency ``c_p`` on each position p = 1..K with
``c_K = c_1``.  On such a state only three coupling families can be
non-zero: the diagonal, couplings between adjacent positions, and the
endpoint coupling between (c, 1) and (c, K).  The energy is then a path
cost, minimised over all N starts in O(K * N^3) instead of 2^(N*K).  The
package's calibration makes the QUBO ground state a feasible loop, so this
equals the enumeration optimum; the benchmark cross-checks that at start-up
and against ``solve_exact`` on every exact instance.

Any other coupling would make the DP wrong, so it is refused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class StructureError(ValueError):
    """The QUBO has a coupling the closed-walk DP does not model."""


@dataclass(frozen=True)
class Reference:
    energy: float
    loop: tuple[int, ...]


def check_structure(upper: np.ndarray, n: int, k: int) -> None:
    """Raise :class:`StructureError` on a coupling outside the loop structure."""
    rows, cols = np.nonzero(np.triu(upper, 1))
    cur_a, pos_a = rows // k, rows % k
    cur_b, pos_b = cols // k, cols % k
    allowed = (pos_a == pos_b) | (np.abs(pos_a - pos_b) == 1)
    allowed |= (cur_a == cur_b) & (np.minimum(pos_a, pos_b) == 0) & (
        np.maximum(pos_a, pos_b) == k - 1
    )
    if not np.all(allowed):
        bad = int(np.argmin(allowed))
        raise StructureError(
            f"coupling ({rows[bad]}, {cols[bad]}) joins currency {cur_a[bad]} "
            f"at position {pos_a[bad] + 1} with currency {cur_b[bad]} at "
            f"position {pos_b[bad] + 1}; the closed-walk DP cannot price it"
        )


def loop_optimum(upper: np.ndarray, offset: float, n: int, k: int) -> Reference:
    """Lowest-energy feasible loop of an N-currency, K-position loop QUBO.

    ``upper`` is ``QuboMatrix.upper`` with variable ``c * K + (p - 1)`` for
    currency c at position p.
    """
    if upper.shape != (n * k, n * k):
        raise StructureError(f"QUBO is {upper.shape}, expected {n * k} variables")
    check_structure(upper, n, k)
    sym = upper + upper.T
    # lin[p, c]: linear term of currency c at position p (0-based).
    lin = np.diag(upper).reshape(n, k).T
    # pair[p, c, d]: coupling of (c at p) with (d at p + 1).
    pair = np.stack([sym[p::k, p + 1 :: k] for p in range(k - 1)])

    # cost[s, c]: best energy of a walk starting at s, now at c.
    cost = np.full((n, n), np.inf)
    cost[np.arange(n), np.arange(n)] = lin[0]
    back = np.empty((k - 1, n, n), dtype=np.int64)
    for p in range(k - 1):
        step = cost[:, :, None] + pair[p][None, :, :]
        back[p] = np.argmin(step, axis=1)
        cost = np.take_along_axis(step, back[p][:, None, :], axis=1)[:, 0, :]
        cost = cost + lin[p + 1][None, :]
    close = cost[np.arange(n), np.arange(n)].copy()
    if k > 2:
        close += sym[np.arange(n) * k, np.arange(n) * k + k - 1]
    start = int(np.argmin(close))

    loop = [start]
    for p in range(k - 2, -1, -1):
        loop.append(int(back[p, start, loop[-1]]))
    loop.reverse()
    return Reference(energy=float(close[start] + offset), loop=tuple(loop))


def loop_profit(rate: np.ndarray, loop) -> float:
    """Product of rates along the loop's K - 1 transitions."""
    seq = list(loop)
    product = 1.0
    for a, b in zip(seq, seq[1:]):
        product *= float(rate[a, b])
    return product
