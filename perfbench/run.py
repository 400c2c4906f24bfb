"""Benchmark entry point for the arbqubo pipeline.

    python3 perfbench/run.py --workload exact-20v --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and measures the package under
``src/``.  Prints every metric by name and unit, the run environment, and
as its last line one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  The full record, spans included, is written
to ``.perfbench_out/``.  Exits non-zero, printing no result, when the
checkout has no package sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--setup-only", action="store_true", help=argparse.SUPPRESS
    )  # one set-up sample: prepare, print "ready", exit
    return parser.parse_args(argv)


def _format(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "arbqubo", "__init__.py")):
        print(f"error: no arbqubo package under {SRC}", file=sys.stderr)
        return 2
    if sys.path and os.path.abspath(sys.path[0]) == os.path.dirname(os.path.abspath(__file__)):
        sys.path.pop(0)
    sys.path[:0] = [SRC, ROOT]
    # One BLAS thread, set before numpy loads and inherited by every child:
    # on a host with few shared cores a second thread waits on the
    # scheduler, which then sets the time of each small matrix product.
    os.environ.update({name: "1" for name in BLAS_THREAD_VARS})

    import arbqubo

    if os.path.dirname(os.path.abspath(arbqubo.__file__)) != os.path.join(SRC, "arbqubo"):
        print(f"error: arbqubo imported from {arbqubo.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from perfbench import harness, workloads
    from perfbench.envinfo import environment

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"expected one of {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 1
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 1
    prep = workloads.prepare(workloads.WORKLOADS[args.workload], args.seed)
    if args.setup_only:
        # Exit at once: the parent times this process up to its exit.
        print("ready", flush=True)
        os._exit(0)

    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        if args.trace:
            outcome = harness.run_traced(prep, ROOT, tmp)
        else:
            outcome = harness.run_untraced(prep, args.seconds, ROOT, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    env = environment(ROOT, args.seed)
    kind = "per-layer" if args.trace else "end-to-end"
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"{kind} metrics:")
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name} = {_format(value)} {unit}")
    print("workload-specific metrics:")
    for name, (value, unit) in outcome.extras.items():
        print(f"  {name} = {_format(value)} {unit}")
    for note in outcome.notes:
        print(f"note: {note}")
    for reason in outcome.tally.reasons:
        print(f"FAILED {reason}")
    print("env " + json.dumps(env, sort_keys=True))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()},
        "extras": {k: {"value": v, "unit": u} for k, (v, u) in outcome.extras.items()},
        "notes": outcome.notes,
        "failures": outcome.tally.reasons,
        "spans": outcome.spans,
    }
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, default=str)
    print(f"record written to {os.path.relpath(path, ROOT)}")

    result = {
        "correct": outcome.tally.failed == 0,
        "attempted": outcome.tally.attempted,
        "failed": outcome.tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
