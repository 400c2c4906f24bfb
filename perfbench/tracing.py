"""In-memory spans around the calls into each arbqubo layer.

:func:`patched` swaps each public function named in :data:`LAYERS` for a
wrapper that records a span, wherever the package holds a reference to it
(module globals, ``bench.SOLVER_REGISTRY``), and restores the originals on
exit.  The pipeline code is therefore identical in traced and untraced
runs.  Spans stay in memory; the run writes them out when it ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

ROOT_LAYER = "perfbench"

# layer -> (module or class path inside arbqubo, public functions)
LAYERS = {
    "rates": [("rates", ("load_rates", "to_log_weights"))],
    "model": [("model", ("default_weights", "build_qubo", "decode", "profitability"))],
    "qubo": [
        ("qubo.QuboMatrix", ("symmetric_parts",)),
        ("qubo.SampleSet", ("best",)),
        ("qubo", ("sampleset_to_json",)),
    ],
    "solvers": [("solvers", ("solve_exact", "ground_state", "sample_tabu", "sample_sa"))],
    "oracle": [("oracle", ("best_cycle_bruteforce", "has_arbitrage_bellman_ford"))],
    "bench": [("bench", ("run_batches", "first_optimum_read", "emit_report"))],
}


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    layer: str
    name: str
    instance: int | None
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``instance`` tags every span opened under it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.instance: int | None = None
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, layer: str, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, parent, layer, name, self.instance, start, end))

    def self_times(self) -> dict[str, float]:
        """Seconds per layer not covered by that span's children."""
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.layer] += s.duration - covered[s.id]
        return dict(out)

    def durations(self, layer: str, name: str, pipeline: bool = True) -> list[float]:
        """Durations of the ``layer.name`` spans; with ``pipeline`` only
        those opened while solving an instance."""
        return [
            s.duration
            for s in self.spans
            if s.layer == layer
            and s.name == name
            and (s.instance is not None or not pipeline)
        ]

    def to_json(self) -> list[dict]:
        return [s.__dict__ for s in self.spans]


def _resolve(path: str):
    obj = sys.modules["arbqubo." + path.split(".")[0]]
    for part in path.split(".")[1:]:
        obj = getattr(obj, part)
    return obj


def _wrap(tracer: Tracer, layer: str, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(layer, name):
            return fn(*args, **kwargs)

    return traced


@contextmanager
def patched(tracer: Tracer):
    """Route every call into the functions of :data:`LAYERS` through spans."""
    import arbqubo.bench  # noqa: F401  (loads every layer module)

    holders = [
        vars(mod)
        for name, mod in sys.modules.items()
        if name == "arbqubo" or name.startswith("arbqubo.")
    ]
    holders.append(sys.modules["arbqubo.bench"].SOLVER_REGISTRY)
    undo = []
    try:
        for layer, entries in LAYERS.items():
            for path, names in entries:
                owner = _resolve(path)
                for name in names:
                    original = getattr(owner, name)
                    wrapped = _wrap(tracer, layer, name, original)
                    setattr(owner, name, wrapped)
                    undo.append((owner, name, original))
                    for holder in holders:
                        for key, value in list(holder.items()):
                            if value is original:
                                holder[key] = wrapped
                                undo.append((holder, key, original))
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
