"""Benchmark-owned instance generator.

Markets are drawn here from numpy and the workload seed, never through the
package's ``generate_consistent``/``plant_cycle``, so a change to those
functions cannot change a workload's inputs.  Each instance is handed to
the pipeline only as rate-CSV bytes.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

STRENGTH_RANGE = (1.05, 1.09)


@dataclass(frozen=True)
class Instance:
    """One generated market: its shape, the planted cycle and its CSV bytes."""

    index: int
    n_currencies: int
    loop_length: int
    cycle: tuple[int, ...]
    strength: float
    csv: bytes


def market_rates(
    rng: np.random.Generator, n: int, cycle: tuple[int, ...], strength: float
) -> np.ndarray:
    """Arbitrage-free rates from random potentials, with ``cycle`` boosted.

    ``rate[i][j] = p_i / p_j`` makes every directed cycle multiply out to 1;
    scaling the cycle's first edge by ``strength`` then gives every loop
    through that edge the known profit factor.  Self-rates stay exactly 1.
    """
    potentials = np.exp(rng.uniform(-1.0, 1.0, size=n))
    rate = potentials[:, None] / potentials[None, :]
    rate[cycle[0], cycle[1]] *= strength
    np.fill_diagonal(rate, 1.0)
    return rate


def rates_csv(rate: np.ndarray) -> bytes:
    """Serialize to the ``from,to,rate`` CSV that ``load_rates`` parses."""
    n = rate.shape[0]
    lines = ["from,to,rate"]
    for i in range(n):
        for j in range(n):
            if i != j:
                lines.append(f"C{i},C{j},{float(rate[i, j])!r}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def make_instance(
    tag: str,
    seed: int,
    index: int,
    n: int,
    k: int,
    cycle: tuple[int, ...] | int,
) -> Instance:
    """Instance ``index`` of the stream named ``tag`` for ``seed``.

    ``cycle`` is either the planted currency tuple or a length, in which
    case distinct currencies are drawn.  The same arguments always give
    the same bytes.
    """
    rng = np.random.default_rng([seed, zlib.crc32(tag.encode()), index])
    if isinstance(cycle, int):
        cycle = tuple(int(c) for c in rng.choice(n, size=cycle, replace=False))
    strength = float(rng.uniform(*STRENGTH_RANGE))
    rate = market_rates(rng, n, cycle, strength)
    return Instance(index, n, k, tuple(cycle), strength, rates_csv(rate))
