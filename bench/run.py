"""Layered benchmark of weylgeom, in reference seconds.

    python3 bench/run.py --workload {plethysm,geometry,cli} --seed N \
        --seconds S --trace {0,1}
    python3 bench/run.py --quick

Runs one closed-loop workload for about S seconds, one process doing work
at a time, checks every output against oracles computed apart from the
library, prints each metric with its unit and raw wall time beside it,
and ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the per-layer ones, from rounds run under tracing wrappers.
--quick runs every workload at a small size, traced and untraced, with
all of its oracles.  See bench/README.md.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import cliwork  # noqa: E402
import refclock  # noqa: E402
from tracer import LAYERS  # noqa: E402

WORKLOADS = ("plethysm", "geometry", "cli")
DEFAULT_SEED = 1
SETUP_PROBES = 8
MIN_ROUNDS = 3
TIME_LIMIT_S = 170
LAYER_METRICS = (
    ("rootsystem.self_s", "s"), ("rootsystem.simple_coords_calls", "count"),
    ("rootsystem.reflect_calls", "count"),
    ("rootsystem.dominant_rep_calls", "count"),
    ("rootsystem.orbit_weights", "count"), ("charring.self_s", "s"),
    ("charring.mul_pairs", "count"), ("charring.power_weights", "count"),
    ("charring.decompose_irreps", "count"),
    ("charring.dominant_character_calls", "count"),
    ("charring.tables_computed", "count"),
    ("charring.table_hit_ratio", "ratio"), ("geometry.self_s", "s"),
    ("geometry.depth_calls", "count"), ("geometry.delta_spaces", "count"),
    ("geometry.apartment_objects", "count"),
    ("geometry.incidence_queries", "count"), ("duality.self_s", "s"),
    ("duality.psi_support_calls", "count"), ("cli.import_s", "s"),
    ("cli.self_s", "s"), ("cli.cache_files_written", "count"),
)


class Bench:
    """Paths, the children's environment and the run's clock."""

    def __init__(self):
        self.started = time.perf_counter()
        self.out_dir = ROOT / ".bench_out"
        self.pycache = ROOT / ".bench_build" / "pycache"
        self.python = sys.executable
        self.env = {
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONPATH": str(ROOT / "src"),
            "PYTHONHASHSEED": "0",
            "PYTHONDONTWRITEBYTECODE": "1",
            "PYTHONPYCACHEPREFIX": str(self.pycache),
            "LC_ALL": "C.UTF-8",
        }

    def build(self):
        """Compile the library and the benchmark to bytecode once, as an
        installed package would be, so no child compiles on import."""
        self.out_dir.mkdir(exist_ok=True)
        sys.pycache_prefix = str(self.pycache)
        ok = compileall.compile_dir(str(ROOT / "src" / "weylgeom"), quiet=1)
        ok = compileall.compile_dir(str(BENCH), quiet=1, maxlevels=0) and ok
        if not ok:
            raise SystemExit("run.py: compiling the sources failed")

    def left(self):
        return TIME_LIMIT_S - (time.perf_counter() - self.started)

    def worker(self, workload, seed, *extra):
        proc = subprocess.run(
            [self.python, "-S", str(BENCH / "worker.py"), workload,
             "--seed", str(seed)] + [str(x) for x in extra],
            env=self.env, capture_output=True, text=True,
            timeout=max(10.0, self.left()))
        if proc.returncode != 0:
            raise SystemExit("run.py: %s worker failed:\n%s"
                             % (workload, proc.stderr[-2000:]))
        return json.loads(proc.stdout.splitlines()[-1])


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _p90(xs):
    return statistics.quantiles(xs, n=10)[-1] if len(xs) >= 2 else _median(xs)


def _per_op(rounds, keys=None):
    """Each operation's median over its samples, with the number of
    samples per round.  Every round makes the same calls in the same
    order, so the i-th sample of every round is the same call; calls
    with equal keys (a command run with and without the disk cache) are
    pooled.  Taking medians first drops the preemptions that hit one
    round and not the others, and the cold first round."""
    if len({len(r) for r in rounds}) != 1:
        return [(t, 1.0 / len(rounds)) for r in rounds for t in r]
    keys = keys or range(len(rounds[0]))
    pooled = {}
    for ts in rounds:
        for key, t in zip(keys, ts):
            pooled.setdefault(key, []).append(t)
    return [(statistics.median(ts), len(ts) / len(rounds))
            for ts in pooled.values()]


def _work(rounds, keys=None):
    """work_s: the sum over one round's calls of their medians."""
    return sum(t * n for t, n in _per_op(rounds, keys))


def _end_to_end(setup, ref_rounds, wall_rounds, rss_mb, keys=None):
    """The four end-to-end metrics, each with its raw wall figure."""
    op_ref = _per_op(ref_rounds, keys)
    op_wall = _per_op(wall_rounds, keys)
    return {
        "setup_s": (_median([s["ref"] for s in setup]), "s",
                    _median([s["wall"] for s in setup])),
        "work_s": (_work(ref_rounds, keys), "s", _work(wall_rounds, keys)),
        "op_p50_ms": (1000 * _median([t for t, _ in op_ref]), "ms",
                      1000 * _median([t for t, _ in op_wall])),
        "peak_rss_mb": (rss_mb, "MB", None),
    }, {"op_p90_ms": 1000 * _p90([t for t, _ in op_ref]),
        "op_samples": len(op_ref), "rounds": len(ref_rounds)}


def _layers(self_s, counters, n_rounds, import_s=0.0, cache_files=0.0):
    """Per-layer metrics per traced round, in the benchmark's names."""
    out = {"%s.self_s" % layer: self_s.get(layer, 0.0) / n_rounds
           for layer in LAYERS}
    out.update({k: v / n_rounds for k, v in counters.items()})
    calls = counters.get("charring.dominant_character_calls", 0)
    out["charring.table_hit_ratio"] = (
        1.0 - counters.get("charring.tables_computed", 0) / calls
        if calls else 0.0)
    out["cli.import_s"] = import_s
    out["cli.cache_files_written"] = cache_files
    return out


def run_inproc(bench, workload, seed, seconds, trace, quick=False):
    extra = ["--quick"] if quick else []
    setup = [bench.worker(workload, seed, "--setup-only", *extra)["setup"]
             for _ in range(0 if quick else SETUP_PROBES)]
    args = ["--seconds", seconds] + extra
    if quick:
        args += ["--min-rounds", 2, "--untraced-rounds", 1,
                 "--traced-rounds", 1]
    else:
        args += ["--min-rounds", MIN_ROUNDS]
    if trace:
        args += ["--trace", "--spans",
                 bench.out_dir / ("spans-%s-%d.jsonl" % (workload, seed))]
    r = bench.worker(workload, seed, *args)
    setup.append(r["setup"])
    e2e, info = _end_to_end(setup, [x["ref"] for x in r["rounds"]],
                            [x["wall"] for x in r["rounds"]],
                            r["rss_kb"] / 1024.0)
    info["kernel_ms"] = 1000 * _median([x["kernel"] for x in r["rounds"]])
    result = {"attempted": r["attempted"], "failed": r["failed"],
              "correct": r["unexpected"] == 0, "problems": r["problems"],
              "end_to_end": e2e, "info": info}
    if trace:
        traced = r["traced"]
        ref = sum(sum(x["ref"]) for x in traced)
        wall = sum(sum(x["wall"]) for x in traced)
        factor = ref / wall if wall else 1.0
        self_s = {k: v * factor for k, v in r["trace"]["self_s"].items()}
        result["layers"] = _layers(self_s, r["trace"]["counters"],
                                   len(traced), r["cli_import"])
        # the first untraced round fills the memo: compare warm rounds
        result["overhead"] = (
            _work([x["ref"] for x in traced])
            / _work([x["ref"] for x in r["rounds"][1:] or r["rounds"]]))
        result["spans"] = (r["trace"]["spans"], r["trace"]["dropped"])
    return result


def run_cli(bench, seed, seconds, trace, quick=False):
    runner = cliwork.CliRunner(bench.python, str(BENCH / "cli_child.py"),
                               bench.env, str(bench.out_dir), seed, quick)
    deadline = time.perf_counter() + seconds
    untraced, traced = [], []
    while True:
        tracing = trace and bool(untraced)
        records, files = runner.round(tracing)
        (traced if tracing else untraced).append((records, files))
        enough = len(untraced) >= (1 if trace or quick else MIN_ROUNDS)
        if enough and (traced or not trace) \
                and time.perf_counter() >= deadline:
            break
    recs = [rec for records, _ in untraced for rec in records]
    setup = [{"ref": x["import_ref"], "wall": x["import_wall"]}
             for x in recs]
    ref_rounds = [[x["import_ref"] + x["main_ref"] for x in records]
                  for records, _ in untraced]
    wall_rounds = [[x["import_wall"] + x["main_wall"] for x in records]
                   for records, _ in untraced]
    rss_mb = max(x["rss_kb"] for x in recs) / 1024.0
    keys = [tuple(argv) for argv, _, _ in runner.runs]
    e2e, info = _end_to_end(setup, ref_rounds, wall_rounds, rss_mb, keys)
    info["kernel_ms"] = 1000 * _median([x["kernel"] for x in recs
                                        if x["kernel"] is not None])
    info["warm_share"] = (sum(1 for x in recs if x["warm"])
                          / max(1, len(recs) // 2))
    result = {"attempted": runner.attempted, "failed": runner.failed,
              "correct": runner.failed == 0,
              "problems": runner.problems[:20], "end_to_end": e2e,
              "info": info}
    if trace:
        self_s, counters, imports = {}, {}, []
        for records, _ in traced:
            for x in records:
                t = x.get("trace")
                if t is None:
                    continue
                factor = x["main_ref"] / x["main_wall"] \
                    if x["main_wall"] else 1.0
                for k, v in t["self_s"].items():
                    self_s[k] = self_s.get(k, 0.0) + v * factor
                for k, v in t["counters"].items():
                    counters[k] = counters.get(k, 0) + v
                imports.append(x["import_ref"])
        n = len(traced)
        result["layers"] = _layers(
            self_s, counters, n, _median(imports),
            sum(files for _, files in traced) / n)
        result["overhead"] = _work(
            [[x["import_ref"] + x["main_ref"] for x in records]
             for records, _ in traced], keys) / _work(ref_rounds, keys)
    return result


def run(bench, workload, seed, seconds, trace, quick=False):
    if workload == "cli":
        return run_cli(bench, seed, seconds, trace, quick)
    return run_inproc(bench, workload, seed, seconds, trace, quick)


def report(workload, seed, res, trace):
    """Human-readable lines; the metrics dict for the JSON line."""
    info = res["info"]
    print("workload %s, seed %d: %d operations attempted, %d failed, "
          "%d rounds" % (workload, seed, res["attempted"], res["failed"],
                         info["rounds"]))
    for problem in res["problems"]:
        print("  WRONG: %s" % problem)
    metrics = {}
    for name, (value, unit, wall) in res["end_to_end"].items():
        raw = "" if wall is None else "   (raw wall %.4f %s)" % (wall, unit)
        print("  %-12s %12.4f %-3s%s" % (name, value, unit, raw))
        metrics[name] = {"value": value, "unit": unit}
    print("  op_p90_ms    %12.4f ms   over %d operations (no bound%s)"
          % (info["op_p90_ms"], info["op_samples"],
             "" if info["op_samples"] >= 40 else "; under 40, not a tail"))
    if "kernel_ms" in info:
        print("  kernel: observed median %.3f ms, nominal %.3f ms"
              % (info["kernel_ms"], 1000 * refclock.NOMINAL_S))
    if "warm_share" in info:
        print("  cached commands that found every table on disk: %.0f%%"
              % (100 * info["warm_share"]))
    if trace:
        metrics = {}
        units = dict(LAYER_METRICS)
        for name, value in res["layers"].items():
            print("  %-36s %14.6f %s" % (name, value, units[name]))
            metrics[name] = {"value": value, "unit": units[name]}
        print("  tracing overhead: traced work_s / untraced work_s = %.3f"
              % res["overhead"])
        if "spans" in res:
            print("  spans kept %d, dropped past the cap %d" % res["spans"])
    return metrics


def quick(bench):
    """Every workload at a small size, untraced and traced rounds."""
    ok, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        res = run(bench, workload, DEFAULT_SEED, 0, True, quick=True)
        for name, m in report(workload, DEFAULT_SEED, res, True).items():
            metrics["%s/%s" % (workload, name)] = m
        ok = ok and res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
    print(json.dumps({"correct": ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true")
    args = p.parse_args()
    if not args.quick and args.workload is None:
        p.error("--workload is required without --quick")
    if not (ROOT / "src" / "weylgeom" / "cli.py").is_file():
        print("run.py: no weylgeom sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    bench = Bench()
    bench.build()
    if args.quick:
        return quick(bench)
    res = run(bench, args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = report(args.workload, args.seed, res, bool(args.trace))
    line = json.dumps({"correct": res["correct"],
                       "attempted": res["attempted"],
                       "failed": res["failed"], "metrics": metrics})
    name = "result-%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                              args.trace)
    (bench.out_dir / name).write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
