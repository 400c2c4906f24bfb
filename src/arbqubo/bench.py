"""Solver comparison harness: reads-to-optimum, batch timing, and the
annealer access-time cost model.

The cost model decomposes total processor occupancy into a one-time
programming cost, an optional fixed initialization overhead, and a
per-sample cost (anneal + readout + post-read delay) that scales linearly
with the number of reads.  Batch runs record, per execution, how long the
solver took and the first read at which it produced the known optimum.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from typing import Callable

from .errors import DimensionError, ModelError, ParamError, WrongOrdering
from .qubo import ENERGY_EPS, QuboMatrix, SampleSet
from .rates import csv_bytes
from .solvers import (
    EXACT_SOLVER_NAME,
    SA_SOLVER_NAME,
    TABU_SOLVER_NAME,
    SamplerParams,
    sample_sa,
    sample_tabu,
    solve_exact,
)

#: Worst-case initialization overhead in microseconds (vendor-quoted range
#: tops out around 20 ms).
DEFAULT_OVERHEAD_US = 20000.0

#: The one table of sampler names, aliases included.  Rows are labelled
#: with the ``solver_name`` of the SampleSet the sampler returns.
SOLVER_REGISTRY: dict[str, Callable[[QuboMatrix, SamplerParams], SampleSet]] = {
    SA_SOLVER_NAME: sample_sa,
    "sa": sample_sa,
    TABU_SOLVER_NAME: sample_tabu,
}


@dataclass(frozen=True)
class QpuTimingModel:
    """Access-time decomposition parameters, all in microseconds.

    ``t_programming`` is paid once per problem submission,
    ``overhead_delta`` is a fixed low-level initialization cost that the
    vendor excludes from reported access times, and the three per-sample
    fields are paid once per read.
    """

    t_programming: float
    t_anneal: float
    t_readout: float
    t_delay: float
    overhead_delta: float = DEFAULT_OVERHEAD_US

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise ParamError(f"{f.name} must be finite and non-negative, got {value}")


def qpu_access_time(
    m: QpuTimingModel, num_reads: int, include_overhead: bool = False
) -> float:
    """Modeled processor time for ``num_reads`` samples, in microseconds.

    programming + reads * (anneal + readout + delay), plus the fixed
    overhead when ``include_overhead``.
    """
    if num_reads < 1:
        raise ParamError(f"num_reads must be >= 1, got {num_reads}")
    total = m.t_programming + num_reads * (m.t_anneal + m.t_readout + m.t_delay)
    if include_overhead:
        total += m.overhead_delta
    return total


def lookup_solver(name: str) -> Callable[[QuboMatrix, SamplerParams], SampleSet]:
    """The registered sampler called ``name``."""
    if name not in SOLVER_REGISTRY:
        raise ParamError(
            f"unknown solver {name!r}; expected one of {sorted(SOLVER_REGISTRY)}"
        )
    return SOLVER_REGISTRY[name]


def check_batches(batches: int) -> None:
    """Refuse a batch count below 1."""
    if batches < 1:
        raise ParamError(f"batches must be >= 1, got {batches}")


def first_optimum_read(
    s: SampleSet, optimal_energy: float, tol: float = ENERGY_EPS
) -> int | None:
    """Smallest read index whose energy reaches the optimum within ``tol``.

    Only meaningful on production-ordered sets; an exact-solver set holds
    the optimum alone, with no production order, and is rejected.
    """
    if s.solver_name == EXACT_SOLVER_NAME:
        raise WrongOrdering(
            "an exact-solver SampleSet holds the optimum, not reads in production order"
        )
    for sample in s.samples:
        if sample.energy <= optimal_energy + tol:
            return sample.read_index
    return None


@dataclass(frozen=True)
class BenchRow:
    solver: str
    num_reads: int
    batch: int
    total_time_us: float
    first_optimum_read: int | None
    best_energy: float
    optimal_energy: float


def _optional_int(text: str) -> int | None:
    return None if text == "" else int(text)


def _finite_float(text: str) -> float:
    """A CSV cell's number; ``nan``, ``inf`` or one past the float range
    is a :class:`ModelError`."""
    value = float(text)
    if not math.isfinite(value):
        raise ModelError(f"cell must be a finite number in the float range, got {value!r}")
    return value


#: The parser of a CSV cell's text, per annotated field type.
_CSV_PARSERS = {"str": str, "int": int, "float": _finite_float, "int | None": _optional_int}


#: Report columns are the BenchRow fields, in order.
REPORT_COLUMNS = [f.name for f in fields(BenchRow)]


@dataclass
class BenchReport:
    rows: list[BenchRow] = field(default_factory=list)

    def aggregate(self) -> list[dict]:
        """Arithmetic means per (solver, num_reads), in row-insertion order.

        ``mean_first_optimum_read`` averages only the batches that reached
        the optimum; ``hits`` counts how many did.
        """
        groups: dict[tuple[str, int], list[BenchRow]] = {}
        for row in self.rows:
            groups.setdefault((row.solver, row.num_reads), []).append(row)
        out = []
        for (solver, num_reads), rows in groups.items():
            hits = [r.first_optimum_read for r in rows if r.first_optimum_read is not None]
            out.append(
                {
                    "solver": solver,
                    "num_reads": num_reads,
                    "batches": len(rows),
                    "mean_total_time_us": sum(r.total_time_us for r in rows) / len(rows),
                    "mean_first_optimum_read": (sum(hits) / len(hits)) if hits else None,
                    "hits": len(hits),
                }
            )
        return out


def run_batches(
    solver: str,
    q: QuboMatrix,
    params: SamplerParams,
    batches: int,
    optimal_energy: float | None = None,
) -> BenchReport:
    """Run a sampler ``batches`` times and record time and reads-to-optimum.

    The optimum is ``optimal_energy`` when given, else established once by
    :func:`solve_exact`, which answers at any size on a QUBO that
    ``build_qubo`` tagged with its loop shape.  Batch ``b``
    reseeds the sampler with ``params.seed + b`` so batches differ but the
    whole report stays reproducible.  ``solver`` is a name in
    :data:`SOLVER_REGISTRY`; rows carry the sampler's own solver name.
    """
    solver_fn = lookup_solver(solver)
    check_batches(batches)

    if optimal_energy is None:
        optimal_energy = solve_exact(q).best().energy
    report = BenchReport()
    for batch in range(1, batches + 1):
        batch_params = replace(params, seed=params.seed + batch)
        result = solver_fn(q, batch_params)
        best = result.best()
        report.rows.append(
            BenchRow(
                solver=result.solver_name,
                num_reads=params.num_reads,
                batch=batch,
                total_time_us=result.timing["wall_time_us"],
                first_optimum_read=first_optimum_read(result, optimal_energy),
                best_energy=best.energy,
                optimal_energy=optimal_energy,
            )
        )
    return report


# -- report serialization -----------------------------------------------------


def _format_number(value: float) -> str:
    """Integers print without a decimal point so ingested integer data
    round-trips byte-exactly."""
    if math.isfinite(value) and value == int(value):
        return str(int(value))
    return repr(value)


def _csv_cell(value) -> object:
    if value is None:
        return ""
    return _format_number(value) if isinstance(value, float) else value


def _read_csv(data: bytes, row_type, what: str) -> list:
    """The rows of a UTF-8 CSV whose header is the fields of the dataclass
    ``row_type``, as ``row_type`` instances, each cell read by the parser of
    its field's type; blank rows are skipped.  Bad UTF-8 or quoting, any
    other header, a row of another length or a cell its parser rejects is
    a :class:`DimensionError`; a number that is not finite, a
    :class:`ModelError`."""
    try:
        header, *records = list(csv.reader(io.StringIO(data.decode("utf-8")))) or [None]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DimensionError(f"malformed {what}: {exc}") from None
    columns = [f.name for f in fields(row_type)]
    if header != columns:
        raise DimensionError(f"expected {what} header {columns}, got {header}")
    parsers = [_CSV_PARSERS[f.type] for f in fields(row_type)]
    rows = []
    for number, rec in enumerate(records, start=2):
        if not rec:
            continue
        if len(rec) != len(parsers):
            raise DimensionError(f"{what} row {number} has {len(rec)} cells, not {len(parsers)}")
        try:
            rows.append(row_type(*[parse(cell) for parse, cell in zip(parsers, rec)]))
        except ValueError as exc:
            raise DimensionError(f"{what} row {number}: {exc}") from None
        except ModelError as exc:
            raise ModelError(f"{what} row {number}: {exc}") from None
    return rows


def emit_report(r: BenchReport, fmt: str = "csv") -> bytes:
    """Serialize a report with a stable column order."""
    if fmt == "csv":
        return csv_bytes(REPORT_COLUMNS, ([_csv_cell(v) for v in astuple(row)] for row in r.rows))
    if fmt == "json":
        obj = [asdict(row) for row in r.rows]
        return (json.dumps(obj, indent=2) + "\n").encode("utf-8")
    raise ValueError(f"unknown report format: {fmt!r}")


def load_report(data: bytes) -> BenchReport:
    """Read :func:`emit_report`'s CSV bytes back; a malformed report is a typed error."""
    return BenchReport(rows=_read_csv(data, BenchRow, "report"))


# -- external timing logs -------------------------------------------------------


@dataclass(frozen=True)
class TimingLogRow:
    system: str
    num_reads: int
    batch: int
    qpu_access_time_us: float


def load_timing_log(data: bytes) -> list[TimingLogRow]:
    """Parse an external access-time log: system, num_reads, batch, time."""
    return _read_csv(data, TimingLogRow, "timing log")


def timing_log_means(rows: list[TimingLogRow]) -> list[tuple[str, int, int, float]]:
    """Arithmetic mean access time per (system, num_reads, batch)."""
    groups: dict[tuple[str, int, int], list[float]] = {}
    for row in rows:
        key = (row.system, row.num_reads, row.batch)
        groups.setdefault(key, []).append(row.qpu_access_time_us)
    return [(*key, sum(times) / len(times)) for key, times in groups.items()]


def emit_timing_means(rows: list[TimingLogRow]) -> bytes:
    """Re-emit per-group mean access times; integral means print as integers."""
    return csv_bytes(
        ["system", "num_reads", "batch", "mean_qpu_access_time_us"],
        ([*key, _format_number(mean)] for *key, mean in timing_log_means(rows)),
    )
