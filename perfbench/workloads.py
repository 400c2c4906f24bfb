"""The three workloads: their inputs, the measured pipeline and its checks.

Every call into the package goes through a module attribute (``rates.``,
``model.``, ...), so :func:`perfbench.tracing.patched` can put a span
around it in the traced run without a second copy of the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from arbqubo import bench, model, oracle, rates, solvers
from arbqubo.qubo import QuboMatrix, Sample, SampleSet
from arbqubo.solvers import SamplerParams

from .instances import Instance, make_instance
from .reference import Reference, loop_optimum, loop_profit

ENERGY_TOL = 1e-9
PROFIT_TOL = 1e-9

# Shapes the DP is cross-checked against 2^n enumeration on at start-up.
CROSSCHECK_SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3), (4, 4))
WARMUP_SHAPE = (3, 4)


@dataclass(frozen=True)
class Workload:
    """Inputs and pipeline settings of one named workload.

    Instance ``i`` takes ``shapes[i % len]`` and ``cycles[i % len]``; a
    cycle is a tuple of currencies or a length to draw.  ``cli`` names the
    CLI command run on instance 0, ``cli_repeats`` times in an untraced
    run.  ``sweep_reads`` is the ``run_batches`` reads grid for the cost
    fit (empty: no sweep).
    """

    name: str
    shapes: tuple[tuple[int, int], ...]
    cycles: tuple[tuple[int, ...] | int, ...]
    count: int
    solvers: tuple[str, ...]
    cli: str
    cli_repeats: int
    tabu_reads: int = 0
    sa_reads: int = 0
    sa_sweeps: int = 0
    oracle: bool = False
    sweep_reads: tuple[int, ...] = ()

    def instances(self, seed: int) -> list[Instance]:
        out = []
        for i in range(self.count):
            n, k = self.shapes[i % len(self.shapes)]
            cycle = self.cycles[i % len(self.cycles)]
            out.append(make_instance(self.name, seed, i, n, k, cycle))
        return out

    def tabu_params(self, seed: int) -> SamplerParams:
        return SamplerParams(num_reads=self.tabu_reads, seed=seed)

    def sa_params(self, seed: int) -> SamplerParams:
        return SamplerParams(
            num_reads=self.sa_reads, seed=seed, sweeps_per_read=self.sa_sweeps
        )


WORKLOADS = {
    w.name: w
    for w in (
        # Default CLI path: 2^20 enumeration dominates, samplers idle.  The
        # K=5 instances show the QUBO-vs-oracle disagreement (repeated cycles).
        Workload(
            name="exact-20v",
            shapes=((5, 4), (4, 5)),
            cycles=(3, 2),
            count=3,
            solvers=("exact",),
            cli="solve-exact",
            cli_repeats=1,
            oracle=True,
        ),
        # Sampler kernels at small n: many reads, per-iteration overhead.
        Workload(
            name="reads-20v",
            shapes=((5, 4),),
            cycles=((0, 1, 2), (1, 3), (0, 2, 4), (2, 3)),
            count=8,
            solvers=("tabu", "sa"),
            cli="bench",
            cli_repeats=2,
            tabu_reads=10,
            sa_reads=500,
            sa_sweeps=250,
            sweep_reads=(1, 10, 100),
        ),
        # Sampler kernels at large n: few long reads, beyond enumeration.
        Workload(
            name="reads-240v",
            shapes=((30, 8),),
            cycles=(4,),
            count=4,
            solvers=("tabu", "sa"),
            cli="solve-tabu",
            cli_repeats=2,
            tabu_reads=4,
            sa_reads=4,
            sa_sweeps=1000,
        ),
    )
}


@dataclass
class SolverResult:
    solver: str
    samples: SampleSet
    best: Sample
    decoded: model.DecodedLoop
    profit: float | None


@dataclass
class Solved:
    """Everything one pass of the pipeline produced for one instance."""

    rate_matrix: rates.RateMatrix
    shape: model.ProblemShape
    q: QuboMatrix
    results: list[SolverResult] = field(default_factory=list)
    oracle_profit: float | None = None


def build(inst: Instance):
    """Parse the CSV bytes and assemble the QUBO with the default weights.

    Returns (rate matrix, log weights, shape, QUBO).
    """
    rm = rates.load_rates(inst.csv)
    w = rates.to_log_weights(rm)
    shape = model.ProblemShape(inst.n_currencies, inst.loop_length)
    return rm, w, shape, model.build_qubo(w, shape, model.default_weights(w, shape))


def solve(inst: Instance, wl: Workload, seed: int, tabu_trace: list | None = None) -> Solved:
    """The measured pipeline, from CSV bytes to a priced best loop."""
    rm, w, shape, q = build(inst)
    out = Solved(rm, shape, q)
    for solver in wl.solvers:
        if solver == "exact":
            samples = solvers.solve_exact(q)
        elif solver == "tabu" and tabu_trace is None:
            samples = solvers.sample_tabu(q, wl.tabu_params(seed))
        elif solver == "tabu":
            samples = solvers.sample_tabu(q, wl.tabu_params(seed), trace=tabu_trace)
        else:
            samples = solvers.sample_sa(q, wl.sa_params(seed))
        best = samples.best()
        decoded = model.decode(best.bits, shape)
        profit = model.profitability(decoded, rm) if decoded.feasible else None
        out.results.append(SolverResult(solver, samples, best, decoded, profit))
    if wl.oracle:
        out.oracle_profit = oracle.best_cycle_bruteforce(rm, shape.loop_length).best_profit
        oracle.has_arbitrage_bellman_ford(w)
    return out


def check(ref: Reference, solved: Solved) -> list[str]:
    """Failures of one pipeline answer against the reference optimum."""
    failures = []
    for r in solved.results:
        if not r.decoded.feasible:
            failures.append(f"{r.solver}: best sample is infeasible")
        if r.best.energy < ref.energy - ENERGY_TOL:
            failures.append(
                f"{r.solver}: energy {r.best.energy!r} below reference {ref.energy!r}"
            )
        if r.solver == "exact" and abs(r.best.energy - ref.energy) > ENERGY_TOL:
            failures.append(
                f"exact: solve_exact optimum {r.best.energy!r} differs from the "
                f"DP reference {ref.energy!r}"
            )
    return failures


@dataclass(frozen=True)
class Prepared:
    workload: Workload
    seed: int
    instances: list[Instance]
    refs: list[Reference]
    ref_profits: list[float]
    setup_failures: list[str]


def crosscheck(seed: int) -> list[str]:
    """Compare the DP with ``ground_state`` on small shapes; return mismatches."""
    failures = []
    for i, (n, k) in enumerate(CROSSCHECK_SHAPES):
        *_, q = build(make_instance("crosscheck", seed, i, n, k, 2))
        ref = loop_optimum(q.upper, q.offset, n, k)
        _, energy = solvers.ground_state(q)
        if abs(ref.energy - energy) > ENERGY_TOL:
            failures.append(
                f"N={n} K={k}: DP optimum {ref.energy!r} != ground_state {energy!r}"
            )
    return failures


def prepare(wl: Workload, seed: int) -> Prepared:
    """Set-up before timing: inputs, reference optima and one warm-up solve.

    The warm-up runs the workload's pipeline on a small instance of the
    same kind, which loads and exercises every code path the timed loop
    uses without paying for a full-size solve (10 s on ``exact-20v``).
    """
    instances = wl.instances(seed)
    failures = crosscheck(seed)
    refs, profits = [], []
    for inst in instances:
        rm, _, _, q = build(inst)
        refs.append(loop_optimum(q.upper, q.offset, inst.n_currencies, inst.loop_length))
        profits.append(loop_profit(rm.rate, refs[-1].loop))
    try:
        solve(make_instance("warmup", seed, 0, *WARMUP_SHAPE, 2), wl, seed)
    except Exception as exc:  # counted as a failure; the timed loop still runs
        failures.append(f"warm-up solve: {type(exc).__name__}: {exc}")
    return Prepared(wl, seed, instances, refs, profits, failures)


def sweep(wl: Workload, q: QuboMatrix, seed: int) -> bench.BenchReport:
    """``run_batches`` over the reads grid, as ``arbqubo bench --solvers sa,tabu``."""
    combined = bench.BenchReport()
    for solver in (solvers.SA_SOLVER_NAME, solvers.TABU_SOLVER_NAME):
        for reads in wl.sweep_reads:
            params = SamplerParams(num_reads=reads, seed=seed, sweeps_per_read=wl.sa_sweeps)
            combined.rows.extend(bench.run_batches(solver, q, params, 1).rows)
    bench.emit_report(combined)  # what the CLI writes; timed in the traced run
    return combined
