"""One in-process workload run in a child of run.py.

    python3 bench/worker.py <workload> --seed N --seconds S [--trace]
        [--setup-only] [--quick] [--spans PATH] (more in --help)

Prints one JSON object: the set-up time, the reference and wall seconds
of every timed call grouped by round, the counts of attempted and failed
operations, the peak resident set and, with --trace, the per-layer
figures of the traced rounds.
"""

import argparse
import json
import resource
import statistics
import sys
from time import perf_counter

import inproc
import refclock


def _setup(workload):
    refclock.kernel_s()
    k0 = refclock.kernel_s()
    t0 = perf_counter()
    workload.setup()
    wall = perf_counter() - t0
    k1 = refclock.kernel_s()
    return {"wall": wall, "ref": refclock.to_ref(wall, k0, k1)}


def _cli_import():
    """Reference seconds of importing weylgeom.cli on top of the modules
    this workload already loaded (the workloads themselves never use
    it); the tracer's installation imports it next anyway."""
    k0 = refclock.kernel_s()
    t0 = perf_counter()
    import weylgeom.cli  # noqa: F401
    wall = perf_counter() - t0
    return refclock.to_ref(wall, k0, refclock.kernel_s())


def _round(workload, rec):
    rec.samples = []
    workload.round(rec)
    return {"ref": [s.ref for s in rec.samples],
            "wall": [s.wall for s in rec.samples],
            "kernel": statistics.median(s.kernel for s in rec.samples)}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("workload", choices=sorted(inproc.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--min-rounds", type=int, default=1)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--untraced-rounds", type=int, default=2,
                   help="rounds before the tracer is installed (--trace)")
    p.add_argument("--traced-rounds", type=int, default=2,
                   help="least number of rounds under the tracer (--trace)")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--spans", default=None)
    args = p.parse_args()

    workload = inproc.WORKLOADS[args.workload](args.seed, args.quick)
    out = {"setup": _setup(workload)}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    rec = inproc.Recorder()
    deadline = perf_counter() + args.seconds
    rounds = []
    traced = []
    tracer = None
    untraced_goal = args.untraced_rounds if args.trace else 0
    while True:
        if args.trace and tracer is None and len(rounds) >= untraced_goal:
            out["cli_import"] = _cli_import()
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        (traced if tracer else rounds).append(_round(workload, rec))
        done = len(rounds) + len(traced)
        if done >= args.min_rounds and perf_counter() >= deadline \
                and len(traced) >= (args.traced_rounds if args.trace else 0):
            break
    out.update(rounds=rounds, attempted=rec.attempted, failed=rec.failed,
               unexpected=len(rec.problems), problems=rec.problems[:20],
               rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if tracer is not None:
        out["traced"] = traced
        out["trace"] = tracer.dump()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
