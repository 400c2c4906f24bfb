"""Command-line front-end.

Subcommands: ``gen`` synthesizes rate tables, ``solve`` builds and solves
the loop-search QUBO, ``bench`` runs the solver-comparison harness,
``timing`` evaluates the annealer access-time model, and ``oracle`` runs
the direct cycle search.  Exit codes: 0 success, 1 usage or parameter
error, 2 I/O failure, 3 solver finished but its best sample violates the
loop constraints.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import fields, replace

from .bench import (
    DEFAULT_OVERHEAD_US,
    SOLVER_REGISTRY,
    BenchReport,
    QpuTimingModel,
    _format_number,
    emit_report,
    lookup_solver,
    qpu_access_time,
    run_batches,
)
from .errors import ArbQuboError
from .model import (
    HamiltonianWeights,
    ProblemShape,
    build_qubo,
    canonical_rotation,
    decode,
    default_weights,
    model_to_json,
    profitability,
)
from .oracle import PROFIT_EPS, best_cycle_bruteforce, has_arbitrage_bellman_ford
from .qubo import qubo_to_json, sampleset_to_json
from .rates import (
    dump_rates_csv,
    generate_consistent,
    load_rates,
    plant_cycle,
    to_log_weights,
)
from .solvers import EXACT_SOLVER_NAME, SamplerParams, solve_exact

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_INFEASIBLE = 3


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage failures exit 1 instead of argparse's 2,
    and which reads ``-1e3`` as a value, not as an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip() != ""]


def _read_counts(text: str) -> list[int]:
    """A non-empty comma-separated list of read counts, each at least 1,
    so a bad entry fails before any batch runs or row prints."""
    counts = _int_list(text)
    if not counts or min(counts) < 1:
        raise argparse.ArgumentTypeError(f"need read counts >= 1, got {text!r}")
    return counts


def _read_rates(path: str):
    fmt = "json" if path.lower().endswith(".json") else "csv"
    with open(path, "rb") as fh:
        return load_rates(fh, fmt)


def _write(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def _problem(args):
    """The rate table, problem shape and log weights that ``args`` name."""
    rates = _read_rates(args.rates)
    return rates, ProblemShape(rates.n, args.loop_length), to_log_weights(rates)


def build_parser() -> _Parser:
    parser = _Parser(prog="arbqubo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    # The market, loop shape and sampler seeding shared by solve and bench.
    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("--rates", required=True, help="rate table (.csv or .json)")
    problem.add_argument("--loop-length", type=int, default=4)
    problem.add_argument("--seed", type=int, default=SamplerParams.seed)
    problem.add_argument("--sweeps", type=int, default=SamplerParams.sweeps_per_read)

    gen = sub.add_parser("gen", help="generate a synthetic rate table")
    gen.add_argument("--n", type=int, default=5, help="number of currencies")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument(
        "--plant",
        type=_int_list,
        default=None,
        help="comma-separated currency indices of a cycle to boost, e.g. 0,1,2",
    )
    gen.add_argument(
        "--strength",
        type=float,
        default=1.05,
        help="profit factor planted on the cycle (must exceed 1)",
    )
    gen.add_argument("--out", required=True, help="output CSV path")
    gen.set_defaults(func=cmd_gen)

    solve = sub.add_parser("solve", parents=[problem], help="build the QUBO and run one solver")
    solve.add_argument(
        "--solver", choices=[EXACT_SOLVER_NAME, *SOLVER_REGISTRY], default=EXACT_SOLVER_NAME
    )
    solve.add_argument("--reads", type=int, default=500)
    for family in fields(HamiltonianWeights):
        solve.add_argument(
            "--weight-" + family.name.replace("_", "-"),
            type=float,
            default=1.0 if family.name == "rate" else None,
        )
    solve.add_argument("--out", default=None, help="write the sample set as JSON")
    solve.add_argument(
        "--model-out", default=None, help="write the model description as JSON"
    )
    solve.add_argument("--qubo-out", default=None, help="write the QUBO as JSON")
    solve.set_defaults(func=cmd_solve)

    bench = sub.add_parser("bench", parents=[problem], help="batch solver comparison")
    bench.add_argument(
        "--solvers",
        default="sa,tabu",
        help=f"comma-separated subset of {','.join(SOLVER_REGISTRY)}",
    )
    bench.add_argument("--reads", type=_read_counts, default=[50, 500])
    bench.add_argument("--batches", type=int, default=2)
    bench.add_argument("--out", required=True, help="report output path")
    bench.add_argument("--format", choices=["csv", "json"], default="csv")
    bench.set_defaults(func=cmd_bench)

    timing = sub.add_parser("timing", help="evaluate the access-time model")
    timing.add_argument("--programming", type=float, required=True)
    timing.add_argument("--anneal", type=float, default=50.0)
    timing.add_argument("--readout", type=float, required=True)
    timing.add_argument("--delay", type=float, default=20.0)
    timing.add_argument("--reads", type=_read_counts, default=[1, 10, 100, 500])
    timing.add_argument("--include-overhead", action="store_true")
    timing.add_argument("--overhead", type=float, default=DEFAULT_OVERHEAD_US)
    timing.set_defaults(func=cmd_timing)

    oracle = sub.add_parser("oracle", help="direct cycle search, no QUBO")
    oracle.add_argument("--rates", required=True)
    oracle.add_argument("--max-len", type=int, default=4)
    oracle.set_defaults(func=cmd_oracle)

    return parser


def cmd_gen(args) -> int:
    rates = generate_consistent(args.n, args.seed)
    if args.plant is not None:
        rates = plant_cycle(rates, args.plant, args.strength)
    _write(args.out, dump_rates_csv(rates))
    print(f"wrote {args.out}: {rates.n} currencies")
    return EXIT_OK


def _resolve_weights(args, w, shape) -> HamiltonianWeights:
    weights = default_weights(w, shape, rate=args.weight_rate)
    overrides = {
        family.name: getattr(args, "weight_" + family.name)
        for family in fields(HamiltonianWeights)
    }
    return replace(weights, **{k: v for k, v in overrides.items() if v is not None})


def cmd_solve(args) -> int:
    rates, shape, w = _problem(args)
    weights = _resolve_weights(args, w, shape)
    q = build_qubo(w, shape, weights)

    if args.solver == EXACT_SOLVER_NAME:
        result = solve_exact(q)
    else:
        params = SamplerParams(
            num_reads=args.reads, seed=args.seed, sweeps_per_read=args.sweeps
        )
        result = SOLVER_REGISTRY[args.solver](q, params)

    if args.out:
        _write(args.out, sampleset_to_json(result).encode("utf-8"))
    if args.model_out:
        _write(args.model_out, model_to_json(shape, weights, rates.labels).encode("utf-8"))
    if args.qubo_out:
        _write(args.qubo_out, qubo_to_json(q).encode("utf-8"))

    best = result.best()
    decoded = decode(best.bits, shape)
    print(f"solver: {result.solver_name}")
    print(f"best energy: {best.energy!r}")
    if not decoded.feasible:
        print("best sample is infeasible:")
        for violation in decoded.violations:
            where = "" if violation.position is None else f" at position {violation.position}"
            print(f"  {violation.kind}{where}")
        return EXIT_INFEASIBLE

    profit = profitability(decoded, rates)
    loop = canonical_rotation(decoded.loop)
    names = " -> ".join(rates.labels[c] for c in loop)
    print(f"best loop: {names}")
    print(f"profitability: {profit:.5f}")
    if profit <= 1.0 + PROFIT_EPS:
        print("no profitable loop")
    return EXIT_OK


def cmd_bench(args) -> int:
    _, shape, w = _problem(args)
    q = build_qubo(w, shape, default_weights(w, shape))
    solvers = [token.strip() for token in args.solvers.split(",")]
    for solver in solvers:  # reject unknown names before any batch runs
        lookup_solver(solver)

    optimal_energy = solve_exact(q).best().energy
    combined = BenchReport()
    for solver in solvers:
        for reads in args.reads:
            params = SamplerParams(
                num_reads=reads, seed=args.seed, sweeps_per_read=args.sweeps
            )
            report = run_batches(solver, q, params, args.batches, optimal_energy)
            combined.rows.extend(report.rows)

    _write(args.out, emit_report(combined, args.format))
    print(f"wrote {args.out}: {len(combined.rows)} rows")
    for agg in combined.aggregate():
        mean_first = agg["mean_first_optimum_read"]
        first_text = "n/a" if mean_first is None else f"{mean_first:.2f}"
        print(
            f"{agg['solver']} reads={agg['num_reads']}: "
            f"mean time {agg['mean_total_time_us']:.0f} us, "
            f"mean first-optimum read {first_text} "
            f"({agg['hits']}/{agg['batches']} batches reached optimum)"
        )
    return EXIT_OK


def cmd_timing(args) -> int:
    model = QpuTimingModel(
        t_programming=args.programming,
        t_anneal=args.anneal,
        t_readout=args.readout,
        t_delay=args.delay,
        overhead_delta=args.overhead,
    )
    print("num_reads,access_time_us")
    for reads in args.reads:
        total = qpu_access_time(model, reads, include_overhead=args.include_overhead)
        print(f"{reads},{_format_number(total)}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    rates = _read_rates(args.rates)
    result = best_cycle_bruteforce(rates, args.max_len)
    names = " -> ".join(rates.labels[c] for c in result.best_cycle)
    print(f"best cycle: {names}")
    print(f"profitability: {result.best_profit:.5f}")
    print(f"arbitrage: {'yes' if result.has_arbitrage else 'no'}")
    screen = has_arbitrage_bellman_ford(to_log_weights(rates))
    print(f"negative-cycle screen (bellman-ford): {'yes' if screen else 'no'}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except ArbQuboError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
