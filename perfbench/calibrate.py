"""Host-speed calibration for shared, noisy machines.

On a shared VM the speed of one core drifts by up to 2x over minutes,
with phases longer than a run, so a median over more calls does not
steady the numbers.  A fixed kernel timed between the measured calls
tracks that drift: a call's time divided by the kernel time next to it
varies far less than the call's time alone.  Timings are reported as
``seconds * REFERENCE_S / kernel seconds``, i.e. seconds on a host where
the kernel takes REFERENCE_S.

The kernel mixes the kinds of work pmed does: interpreted Python, float
formatting (the CSV writer), numpy calls on small arrays (per-call
overhead) and numpy passes over a large array (per-element cost).  Of the
mixes tried on 4-5 minute traces of three workloads, this one steadied
all of them best (spread of 24 s medians 0.05-0.09, against 0.08-0.33
raw).  It is benchmark code, identical for every commit measured, so
ratios between commits are unaffected by it.
"""

import time

import numpy as np

# About the kernel's time in quiet phases on the 2-core Xeon VM (Python
# 3.11, numpy 2.4) where the benchmark was defined, so that normalized and
# raw seconds roughly agree there.
REFERENCE_S = 0.013

_VALUES = np.linspace(0.1, 0.9, 3000)
_SMALL = np.linspace(0.0, 1.0, 80)
_LARGE = np.linspace(0.0, 1.0, 160_000)


def _kernel():
    total = 0
    for i in range(30_000):
        total += i * i
    rows = "\n".join(",".join(repr(float(x)) for x in _VALUES[i:i + 3])
                     for i in range(0, _VALUES.size, 3))
    v = _SMALL
    for _ in range(300):
        v = np.maximum(np.where(v > 0.5, v[::-1], v) * 0.999, 0.0)
    w = _LARGE
    for _ in range(10):
        w = np.power(w, 1.0001) + 1e-9
    return total, rows, v, w


def kernel_s() -> float:
    """Seconds one run of the calibration kernel takes now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start
