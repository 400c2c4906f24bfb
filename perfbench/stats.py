"""Summary statistics: tail percentile, time-to-solution and the cost fit."""

from __future__ import annotations

import math
import statistics

import numpy as np

TAIL_BEYOND = 10


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  Below 2 * 10 samples that
    percentile would not exceed the median, so the maximum is returned as
    p100 with nothing beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def tts99(t_read: float, p: float) -> float:
    """Time to reach the optimum with 99% confidence (Ronnow et al. 2014).

    ``t_read * ln(0.01) / ln(1 - p)``; one read suffices once p >= 0.99,
    and p = 0 never reaches it (infinity).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"hit probability must lie in [0, 1], got {p}")
    if p >= 0.99:
        return t_read
    if p == 0.0:
        return math.inf
    return t_read * math.log(0.01) / math.log1p(-p)


def fit_cost(reads: list[int], times_us: list[float]) -> tuple[float, float, float]:
    """Least-squares fit of ``times = fixed + reads * per_read``.

    Returns (fixed_us, per_read_us, relative residual), the residual being
    ||times - fit|| / ||times||.
    """
    x = np.asarray(reads, dtype=float)
    y = np.asarray(times_us, dtype=float)
    design = np.column_stack([np.ones_like(x), x])
    (fixed, per_read), *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = float(np.linalg.norm(y - design @ [fixed, per_read]))
    return float(fixed), float(per_read), resid / float(np.linalg.norm(y))


def median(values: list[float]) -> float:
    return float(statistics.median(values))
