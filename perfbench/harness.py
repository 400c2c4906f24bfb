"""One benchmark run: set-up, timed loop, CLI command and traced pass.

Load model: closed loop, one client.  A single process solves one
instance after another; CLI subprocesses run one at a time, between
segments of the in-process loop, never overlapping it.  End-to-end
metrics come from untraced runs (``--trace 0``); per-layer metrics only
from the traced run (``--trace 1``), which repeats the pass once
untraced to measure the tracing overhead.
"""

from __future__ import annotations

import math
import os
import resource
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

from arbqubo import bench, model, qubo

from . import calibrate, workloads
from .stats import fit_cost, median, tail, tts99
from .tracing import ROOT_LAYER, Tracer, patched
from .workloads import ENERGY_TOL, PROFIT_TOL, Prepared, Solved

SETUP_REPEATS = 7
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 150.0
POLL_S = 0.002

# Declared in BENCHMARK.json: measured on every workload.
END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_p50_norm_ms": "ms",
    "profit_ratio_mean": "ratio",
    "peak_rss_mb": "MB",
    "cli_peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "rates.load_rates_us": "us",
    "rates.to_log_weights_us": "us",
    "rates.csv_bytes": "count",
    "model.default_weights_us": "us",
    "model.build_qubo_us": "us",
    "model.qubo_nonzeros": "count",
    "model.decode_us": "us",
    "model.profitability_us": "us",
    "qubo.samples_returned": "count",
    "qubo.best_us": "us",
    "qubo.sampleset_to_json_us": "us",
    "solvers.solve_us": "us",
    "solvers.states_enumerated": "count",
    "cli.import_s": "s",
    "rates.self_s": "s",
    "model.self_s": "s",
    "qubo.self_s": "s",
    "solvers.self_s": "s",
    "cli.self_s": "s",
    "perfbench.self_s": "s",
    "trace_overhead_frac": "ratio",
}


@dataclass
class Tally:
    """Operations attempted and failed; every failure is kept with its reason."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, what: str, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.reasons.extend(f"{what}: {f}" for f in failures)


@dataclass
class Quality:
    """Answer quality over one pass of the instance list (deterministic)."""

    hits: list[bool] = field(default_factory=list)
    profit_ratios: list[float] = field(default_factory=list)
    reads: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    read_hits: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    feasible_reads: int = 0
    first_reads: dict[str, list[int]] = field(default_factory=lambda: defaultdict(list))
    agree: list[bool] = field(default_factory=list)
    # solver -> (loop text, profit text) of instance 0, as the CLI prints them
    cli_expect: dict[str, tuple[str, str]] = field(default_factory=dict)

    def add(self, prep: Prepared, idx: int, solved: Solved) -> None:
        ref, ref_profit = prep.refs[idx], prep.ref_profits[idx]
        for r in solved.results:
            self.hits.append(r.best.energy <= ref.energy + ENERGY_TOL)
            self.profit_ratios.append((r.profit or 0.0) / ref_profit)
            if idx == 0 and r.profit is not None:
                labels = solved.rate_matrix.labels
                loop = model.canonical_rotation(r.decoded.loop)
                text = " -> ".join(labels[c] for c in loop)
                self.cli_expect[r.solver] = (text, f"{r.profit:.5f}")
            if r.solver == "exact":
                continue
            samples = r.samples.samples
            self.reads[r.solver] += len(samples)
            self.read_hits[r.solver] += sum(s.energy <= ref.energy + ENERGY_TOL for s in samples)
            self.feasible_reads += sum(model.decode(s.bits, solved.shape).feasible for s in samples)
            first = bench.first_optimum_read(r.samples, ref.energy)
            if first is not None:
                self.first_reads[r.solver].append(first)
        if solved.oracle_profit is not None:
            found = solved.results[0].profit
            self.agree.append(
                found is not None
                and abs(found - solved.oracle_profit) <= PROFIT_TOL * max(1.0, found)
            )


@dataclass
class Pass:
    """Latencies (s) of every instance solved, each latency (ms) over the
    mean probe time (ms) during it, and sampler per-read times (us)."""

    latencies: list[float] = field(default_factory=list)
    relative: list[float] = field(default_factory=list)
    probe_ms: list[float] = field(default_factory=list)
    per_read_us: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))

    def add_reads(self, solved: Solved) -> None:
        for r in solved.results:
            if r.solver != "exact":
                self.per_read_us[r.solver].append(r.samples.timing["wall_time_us"] / len(r.samples))


class TimedLoop:
    """Solves the instances in order, cycling; each ``run`` resumes the cycle.

    ``quality`` collects the first pass only, so it does not depend on how
    many instances the time allowed.  A speed probe samples the machine
    while each instance is solved; its time is left out of the latency
    (see :mod:`.calibrate`).
    """

    def __init__(self, prep: Prepared, tally: Tally, quality: Quality) -> None:
        self.prep, self.tally, self.quality = prep, tally, quality
        self.result = Pass()
        self._next = 0
        self._probe = calibrate.SpeedProbe()

    def run(self, seconds: float, finish_pass: bool) -> None:
        """Solve at least one instance, then more until ``seconds`` have passed
        and, with ``finish_pass``, until the first pass is complete."""
        count = len(self.prep.instances)
        start = time.perf_counter()
        self._solve_next()
        while time.perf_counter() - start < seconds or (finish_pass and self._next < count):
            self._solve_next()

    def _solve_next(self) -> None:
        prep, idx = self.prep, self._next % len(self.prep.instances)
        first_pass = self._next < len(prep.instances)
        self._next += 1
        probe = self._probe
        try:
            with probe.active():
                t0 = time.perf_counter()
                solved = workloads.solve(prep.instances[idx], prep.workload, prep.seed)
                latency = time.perf_counter() - t0 - probe.spent
        except Exception as exc:  # a failed operation is counted, not fatal
            self.result.latencies.append(time.perf_counter() - t0 - probe.spent)
            traceback.print_exc(file=sys.stderr)
            self.tally.record(f"instance {idx}", [f"{type(exc).__name__}: {exc}"])
            return
        self.result.latencies.append(latency)
        probe_ms = probe.mean_ms()
        if probe_ms is not None:
            self.result.probe_ms.append(probe_ms)
            self.result.relative.append(latency * 1e3 / probe_ms)
        self.tally.record(f"instance {idx}", workloads.check(prep.refs[idx], solved))
        self.result.add_reads(solved)
        if first_pass:
            self.quality.add(prep, idx, solved)


# -- subprocesses ---------------------------------------------------------------


@dataclass(frozen=True)
class ChildResult:
    wall_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str
    stderr: str


def _vm_hwm_mb(pid: int) -> float:
    """Peak RSS of a live process since its exec (``VmHWM``), 0 once it is gone.

    ``wait4``'s ``ru_maxrss`` is not used: Linux carries the parent's peak
    into a spawned child, so it never reads below the benchmark's own.
    """
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def run_child(argv: list[str], root: str, tmp: str) -> ChildResult:
    """Run one subprocess to completion, timing it and polling its peak RSS.

    A child that outlives the timeout is killed.
    """
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out_path, err_path = os.path.join(tmp, "child.out"), os.path.join(tmp, "child.err")
    peak = 0.0
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=env, stdout=out, stderr=err)
        while True:
            pid, status, _ = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                wall = time.perf_counter() - t0
                break
            peak = max(peak, _vm_hwm_mb(proc.pid))
            if time.perf_counter() - t0 > CHILD_TIMEOUT_S:
                proc.kill()
            time.sleep(POLL_S)
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return ChildResult(wall, peak, proc.returncode, stdout, stderr)


def setup_times(prep: Prepared, root: str, tmp: str, tally: Tally) -> list[float]:
    """Wall time of fresh processes from spawn to the first timed instance."""
    argv = [
        sys.executable,
        os.path.join(root, "perfbench", "run.py"),
        "--workload", prep.workload.name,
        "--seed", str(prep.seed),
        "--seconds", "0",
        "--trace", "0",
        "--setup-only",
    ]
    out = []
    for _ in range(SETUP_REPEATS):
        child = run_child(argv, root, tmp)
        ok = child.returncode == 0 and child.stdout.split() == ["ready"]
        tally.record("setup", [] if ok else [f"set-up child failed: {child.stderr[-500:]}"])
        out.append(child.wall_s)
    return out


def import_times(root: str, tmp: str) -> list[float]:
    argv = [sys.executable, "-c", "import arbqubo"]
    return [run_child(argv, root, tmp).wall_s for _ in range(IMPORT_REPEATS)]


def cli_argv(prep: Prepared, csv_path: str, out_path: str) -> list[str]:
    wl, first = prep.workload, prep.instances[0]
    base = [sys.executable, "-m", "arbqubo.cli"]
    common = ["--rates", csv_path, "--loop-length", str(first.loop_length)]
    if wl.cli == "solve-exact":
        return base + ["solve", *common]
    if wl.cli == "solve-tabu":
        return base + [
            "solve", *common, "--solver", "tabu",
            "--reads", str(wl.tabu_reads), "--seed", str(prep.seed),
        ]
    return base + [
        "bench", *common, "--solvers", "sa,tabu",
        "--reads", ",".join(str(r) for r in wl.sweep_reads),
        "--batches", "1", "--seed", str(prep.seed),
        "--sweeps", str(wl.sa_sweeps), "--out", out_path,
    ]


def _row_key(row: bench.BenchRow) -> tuple:
    """A bench row without its wall time, which differs between runs."""
    return (row.solver, row.num_reads, row.batch, row.first_optimum_read,
            row.best_energy, row.optimal_energy)


def check_cli(
    prep: Prepared,
    child: ChildResult,
    quality: Quality,
    report: bench.BenchReport | None,
    out_path: str,
) -> list[str]:
    """The CLI must exit 0 and agree with the library on the same instance."""
    if child.returncode != 0:
        return [f"exit code {child.returncode}: {child.stderr[-500:]}"]
    if prep.workload.cli == "bench":
        with open(out_path, "rb") as fh:
            rows = bench.load_report(fh.read()).rows
        if report is None or [_row_key(r) for r in rows] != [_row_key(r) for r in report.rows]:
            return ["bench report differs from the library's run_batches"]
        ref = prep.refs[0].energy
        if any(abs(r.optimal_energy - ref) > ENERGY_TOL for r in rows):
            return ["bench optimal_energy differs from the DP reference"]
        return []
    solver = "exact" if prep.workload.cli == "solve-exact" else "tabu"
    loop, profit = quality.cli_expect.get(solver, ("?", "?"))
    lines = child.stdout.splitlines()
    if f"best loop: {loop}" not in lines or f"profitability: {profit}" not in lines:
        return [f"CLI printed {lines!r}, library gives loop {loop} at {profit}"]
    return []


# -- runs -----------------------------------------------------------------------


@dataclass
class Outcome:
    """Declared metrics, extra per-workload figures, failures and spans."""

    metrics: dict[str, tuple[float, str]]
    extras: dict[str, tuple[float, str]]
    notes: list[str]
    tally: Tally
    spans: list[dict]


def _run_cli(prep, quality, report, root, tmp, tally) -> ChildResult:
    csv_path = os.path.join(tmp, "instance0.csv")
    out_path = os.path.join(tmp, "report.csv")
    with open(csv_path, "wb") as fh:
        fh.write(prep.instances[0].csv)
    child = run_child(cli_argv(prep, csv_path, out_path), root, tmp)
    tally.record("cli", check_cli(prep, child, quality, report, out_path))
    return child


def _sweep(prep: Prepared, tally: Tally) -> bench.BenchReport | None:
    if not prep.workload.sweep_reads:
        return None
    *_, q = workloads.build(prep.instances[0])
    try:
        report = workloads.sweep(prep.workload, q, prep.seed)
    except Exception as exc:  # a failed operation is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        tally.record("sweep", [f"{type(exc).__name__}: {exc}"])
        return None
    tally.record("sweep", [])
    return report


def quality_extras(wl, quality: Quality, loop: Pass, tally: Tally) -> dict:
    out = {
        "optimum_hit_frac": (_mean(quality.hits), "ratio"),
        "failed_frac": (tally.failed / tally.attempted, "ratio"),
    }
    for solver in ("tabu", "sa"):
        if solver not in wl.solvers or not quality.reads[solver]:
            continue
        p = quality.read_hits[solver] / quality.reads[solver]
        t_read_ms = median(loop.per_read_us[solver]) / 1e3
        out[f"tts99_ms.{solver}"] = (tts99(t_read_ms, p), "ms")
        out[f"solvers.read_hit_frac.{solver}"] = (p, "ratio")
        if quality.first_reads[solver]:
            out[f"solvers.first_optimum_read_p50.{solver}"] = (
                median(quality.first_reads[solver]), "count")
    reads = sum(quality.reads.values())
    if reads:
        out["model.feasible_read_frac"] = (quality.feasible_reads / reads, "ratio")
    if quality.agree:
        out["oracle.agree_frac"] = (sum(quality.agree) / len(quality.agree), "ratio")
    return out


def fit_extras(report: bench.BenchReport | None) -> dict:
    out = {}
    if report is None:
        return out
    for label, solver in (("tabu", "tabu"), ("sa", "simulated_annealing")):
        rows = [r for r in report.rows if r.solver == solver]
        fixed, per_read, resid = fit_cost(
            [r.num_reads for r in rows], [r.total_time_us for r in rows])
        out[f"bench.fixed_us.{label}"] = (fixed, "us")
        out[f"bench.per_read_us.{label}"] = (per_read, "us")
        out[f"bench.fit_rel_residual.{label}"] = (resid, "ratio")
    return out


def _tally(prep: Prepared) -> Tally:
    """A tally that starts with the set-up checks: DP cross-check, warm-up."""
    tally = Tally()
    tally.record("set-up", prep.setup_failures)
    return tally


def run_untraced(prep: Prepared, seconds: float, root: str, tmp: str) -> Outcome:
    """End-to-end metrics.  The timed phase is split into one segment per
    CLI run, with the CLI runs in between, so the figures sample the whole
    run rather than one stretch of it."""
    tally, quality = _tally(prep), Quality()
    setup = setup_times(prep, root, tmp, tally)
    report = _sweep(prep, tally)
    timed = TimedLoop(prep, tally, quality)
    repeats = prep.workload.cli_repeats
    clis = []
    for k in range(repeats):
        timed.run(seconds / repeats, finish_pass=k == repeats - 1)
        clis.append(_run_cli(prep, quality, report, root, tmp, tally))
    loop = timed.result
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies_ms = [t * 1e3 for t in loop.latencies]
    cli_s = [c.wall_s for c in clis]
    tail_ms, pct, beyond = tail(latencies_ms)
    metrics = {
        "setup_s": median(setup),
        "solve_p50_norm_ms": median(loop.relative or [0.0]) * calibrate.REFERENCE_MS,
        "profit_ratio_mean": _mean(quality.profit_ratios),
        "peak_rss_mb": peak,
        "cli_peak_rss_mb": max(c.peak_rss_mb for c in clis),
    }
    extras = {
        "instances_per_s": (len(latencies_ms) / sum(loop.latencies), "1/s"),
        "solve_p50_ms": (median(latencies_ms), "ms"),
        "solve_min_ms": (min(latencies_ms), "ms"),
        "probe_ms": (median(loop.probe_ms or [0.0]), "ms"),
        "solve_tail_ms": (tail_ms, "ms"),
        "cli_min_s": (min(cli_s), "s"),
        "cli_s": (median(cli_s), "s"),
    }
    extras.update(quality_extras(prep.workload, quality, loop, tally))
    extras.update(fit_extras(report))
    notes = [
        f"solve_tail_ms is p{pct:.1f} of {len(latencies_ms)} instances "
        f"({beyond} beyond it)",
        "setup_s is the median of fresh processes: " + _seconds(setup),
        "cli_min_s and cli_s are the fastest and median CLI runs: " + _seconds(cli_s),
    ]
    return Outcome(
        {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, extras, notes, tally, []
    )


def _mean(values) -> float:
    """Mean, or 0 when every operation failed and nothing was measured."""
    return sum(values) / len(values) if values else 0.0


def _seconds(values: list[float]) -> str:
    return ", ".join(f"{v:.4f} s" for v in values)


def _loops_enumerated(n: int, k: int) -> int:
    return sum(math.perm(n, m) for m in range(1, k))


def _serialize(solved: Solved) -> None:
    """What ``arbqubo solve --out`` pays: every sample set as JSON."""
    for r in solved.results:
        qubo.sampleset_to_json(r.samples)


def run_traced(prep: Prepared, root: str, tmp: str) -> Outcome:
    wl = prep.workload
    tally, quality = _tally(prep), Quality()
    untraced_loop = TimedLoop(prep, tally, quality)
    untraced_loop.run(0.0, finish_pass=True)
    untraced = untraced_loop.result
    tracer = Tracer()
    traced_lat: list[float] = []
    nonzeros, returned = [], []
    tabu_iterations = states = sa_flips = 0
    report = None
    with patched(tracer):
        for idx, inst in enumerate(prep.instances):
            iterations: list | None = [] if "tabu" in wl.solvers else None
            tracer.instance = idx
            try:
                with tracer.span(ROOT_LAYER, "instance"):
                    solved = workloads.solve(inst, wl, prep.seed, tabu_trace=iterations)
            except Exception as exc:  # a failed operation is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                tally.record(f"traced instance {idx}", [f"{type(exc).__name__}: {exc}"])
                continue
            finally:
                tracer.instance = None
            traced_lat.append(tracer.spans[-1].duration)
            tally.record(f"traced instance {idx}", workloads.check(prep.refs[idx], solved))
            tabu_iterations += len(iterations or ())
            nonzeros.append(int((solved.q.upper != 0).sum()))
            returned.append(sum(len(r.samples) for r in solved.results))
            n_vars = solved.q.n_vars
            states += sum(1 << n_vars for r in solved.results if r.solver == "exact")
            if "sa" in wl.solvers:
                sa_flips += wl.sa_reads * wl.sa_sweeps * n_vars
            if idx == 0:
                with tracer.span(ROOT_LAYER, "probe"):
                    _serialize(solved)
            del solved
        if wl.sweep_reads:
            with tracer.span(ROOT_LAYER, "sweep"):
                report = _sweep(prep, tally)
            n0 = prep.instances[0].n_currencies * prep.instances[0].loop_length
            states += len(tracer.durations("solvers", "ground_state", pipeline=False)) << n0
        with tracer.span("cli", wl.cli):
            _run_cli(prep, quality, report, root, tmp, tally)
    imports = import_times(root, tmp)

    def med_us(layer: str, name: str, pipeline: bool = True) -> float:
        values = tracer.durations(layer, name, pipeline)
        return median(values) * 1e6 if values else 0.0

    def total(layer: str, name: str) -> float:
        return sum(tracer.durations(layer, name, pipeline=False))

    per_instance_solver: dict[int, float] = defaultdict(float)
    for s in tracer.spans:
        if s.layer == "solvers" and s.instance is not None:
            per_instance_solver[s.instance] += s.duration
    self_s = tracer.self_times()
    base = sum(untraced.latencies)
    count = len(prep.instances)
    metrics = {
        "rates.load_rates_us": med_us("rates", "load_rates"),
        "rates.to_log_weights_us": med_us("rates", "to_log_weights"),
        "rates.csv_bytes": sum(len(i.csv) for i in prep.instances) / count,
        "model.default_weights_us": med_us("model", "default_weights"),
        "model.build_qubo_us": med_us("model", "build_qubo"),
        "model.qubo_nonzeros": sum(nonzeros) / max(1, len(nonzeros)),
        "model.decode_us": med_us("model", "decode"),
        "model.profitability_us": med_us("model", "profitability"),
        "qubo.samples_returned": sum(returned) / max(1, len(returned)),
        "qubo.best_us": med_us("qubo", "best"),
        "qubo.sampleset_to_json_us": total("qubo", "sampleset_to_json") * 1e6,
        "solvers.solve_us": median(list(per_instance_solver.values()) or [0.0]) * 1e6,
        "solvers.states_enumerated": states,
        "cli.import_s": median(imports),
        "trace_overhead_frac": (sum(traced_lat) - base) / base,
    }
    for layer in ("rates", "model", "qubo", "solvers", "cli", ROOT_LAYER):
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)

    extras = quality_extras(wl, quality, untraced, tally)
    extras.update(fit_extras(report))
    if "exact" in wl.solvers:
        extras["solvers.solve_exact_us"] = (med_us("solvers", "solve_exact"), "us")
    if total("solvers", "ground_state"):
        extras["solvers.ground_state_us"] = (med_us("solvers", "ground_state", False), "us")
    if tabu_iterations:
        tabu_s = sum(tracer.durations("solvers", "sample_tabu"))
        reads = count * wl.tabu_reads
        extras["solvers.tabu_read_us"] = (tabu_s / reads * 1e6, "us")
        extras["solvers.tabu_iterations_per_read"] = (tabu_iterations / reads, "count")
        extras["solvers.tabu_iteration_us"] = (tabu_s / tabu_iterations * 1e6, "us")
    if sa_flips:
        sa_s = sum(tracer.durations("solvers", "sample_sa"))
        extras["solvers.sa_read_us"] = (sa_s / (count * wl.sa_reads) * 1e6, "us")
        extras["solvers.sa_flip_attempts"] = (sa_flips, "count")
        extras["solvers.sa_flip_attempt_ns"] = (sa_s / sa_flips * 1e9, "ns")
        extras["qubo.symmetric_parts_us"] = (med_us("qubo", "symmetric_parts"), "us")
    if wl.oracle:
        extras["oracle.bruteforce_us"] = (med_us("oracle", "best_cycle_bruteforce"), "us")
        extras["oracle.bellman_ford_us"] = (med_us("oracle", "has_arbitrage_bellman_ford"), "us")
        extras["oracle.loops_enumerated"] = (
            sum(_loops_enumerated(i.n_currencies, i.loop_length) for i in prep.instances),
            "count")
        extras["oracle.self_s"] = (self_s.get("oracle", 0.0), "s")
    if report is not None and total("bench", "run_batches"):
        batches_s = total("bench", "run_batches")
        extras["bench.run_batches_us"] = (batches_s * 1e6, "us")
        extras["bench.ground_state_share"] = (total("solvers", "ground_state") / batches_s, "ratio")
        extras["bench.emit_report_us"] = (total("bench", "emit_report") * 1e6, "us")
        extras["bench.self_s"] = (self_s.get("bench", 0.0), "s")

    traced_total = sum(s.duration for s in tracer.spans if s.parent is None)
    notes = [
        f"layer self times sum to {sum(self_s.values()):.6f} s of {traced_total:.6f} s "
        f"traced; {self_s.get(ROOT_LAYER, 0.0):.6f} s of it is benchmark overhead "
        f"({ROOT_LAYER}.self_s)",
        f"traced pass {sum(traced_lat):.6f} s vs untraced {base:.6f} s over {count} instances",
    ]
    return Outcome(
        {k: (v, PER_LAYER_UNITS[k]) for k, v in metrics.items()},
        extras, notes, tally, tracer.to_json(),
    )
