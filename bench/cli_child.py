"""One weylgeom command in a fresh interpreter, timed from inside.

    python3 bench/cli_child.py <trace 0|1> <spans path or -> <cli args...>

The reference kernel runs before the import of weylgeom.cli, between the
import and cli.main, and after cli.main, so both the import and the
command are measured in reference seconds.  Nothing but the kernel is
imported before weylgeom.cli.  Prints one JSON object with
the exit code, the command's standard output and the timings.
"""

import sys
from time import perf_counter

import refclock


def main():
    trace, spans, argv = sys.argv[1] == "1", sys.argv[2], sys.argv[3:]
    refclock.kernel_s()
    k0 = refclock.kernel_s()
    t0 = perf_counter()
    from weylgeom import cli
    t1 = perf_counter()
    k1 = refclock.kernel_s()
    # imported only now, so that the timed import pays for what the
    # library itself needs (json, re, argparse) as a real command does
    import contextlib
    import io
    import json
    import resource
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    out = io.StringIO()
    err = io.StringIO()
    t2 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # a traceback is a failed command
            code = "uncaught %s: %s" % (type(exc).__name__, exc)
    t3 = perf_counter()
    k2 = refclock.kernel_s()
    result = {
        "code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
        "import_wall": t1 - t0, "import_ref": refclock.to_ref(t1 - t0, k0, k1),
        "main_wall": t3 - t2, "main_ref": refclock.to_ref(t3 - t2, k1, k2),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "kernel": (k0 + k1 + k2) / 3.0,
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
        if spans != "-":
            tracer.write_spans(spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
