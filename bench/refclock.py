"""Reference seconds: wall time scaled by the speed of a fixed kernel.

A shared virtual machine changes speed from minute to minute, so raw wall
time of the same work drifts by tens of percent between runs.  The kernel
below does the kind of work the library does (short-lived weight tuples
summed coordinate-wise and counted in a dict) and is timed just before and
just after every timed call, in the process of the call.  A call's
reference time is its wall time times (NOMINAL_S / k) ** ELASTICITY, where
k is the mean of the two kernel times; a machine that runs the kernel in
exactly NOMINAL_S reports wall time unchanged.

This module imports nothing from weylgeom.
"""

from time import perf_counter

# nominal kernel time in seconds; a constant of the benchmark, never tuned
# per run (reference figures in README.md)
NOMINAL_S = 0.0015

# How much the library slows when the kernel slows by a factor f: by
# f ** ELASTICITY.  The kernel lives in the L1 cache and reacts to busy
# neighbours differently from the library's larger dicts.  Over two sets
# of ten runs per workload on this box, the exponent that minimised the
# run-to-run spread lay between 0.6 and 1.0 depending on the hour; 0.8 is
# the middle (README.md).
ELASTICITY = 0.8

_ROWS = tuple(tuple((5 * i + 3 * j) % 7 - 3 for j in range(7))
              for i in range(32))


def _kernel_once():
    out = {}
    for a in _ROWS:
        for b in _ROWS:
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, 0) + 1
    return len(out)


def kernel_s():
    """Observed kernel time: the faster of two back-to-back runs, so a
    single preemption inside one run does not count as a slow machine."""
    best = None
    for _ in range(2):
        t0 = perf_counter()
        _kernel_once()
        dt = perf_counter() - t0
        best = dt if best is None or dt < best else best
    return best


class Sample:
    """One timed call: raw wall seconds, reference seconds and the mean
    kernel time that converted one into the other."""

    __slots__ = ("wall", "ref", "kernel")

    def __init__(self, wall, k0, k1):
        self.wall = wall
        self.kernel = (k0 + k1) / 2.0
        self.ref = to_ref(wall, k0, k1)


def timed(fn, *args):
    """Run fn(*args) between two kernel measurements.

    Returns (result, error, Sample); an exception raised by fn is returned
    as the error, after the closing kernel has run, so that the caller can
    count it as a failed operation."""
    k0 = kernel_s()
    t0 = perf_counter()
    try:
        result, error = fn(*args), None
    except Exception as exc:  # counted as a failed operation by the caller
        result, error = None, exc
    wall = perf_counter() - t0
    k1 = kernel_s()
    return result, error, Sample(wall, k0, k1)


def to_ref(wall, k0, k1):
    """Reference seconds of a wall time bracketed by kernel times k0, k1."""
    return wall * (NOMINAL_S * 2.0 / (k0 + k1)) ** ELASTICITY
