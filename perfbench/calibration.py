"""Host-speed calibration for the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts: identical passes of
the same operations can take a third longer a minute later, because other
tenants load the same cores and caches.  Such drift is common to all code
of one kind in the process, so the benchmark runs a fixed kernel between
its operations and reports every end-to-end time rescaled by how fast the
kernel ran nearby::

    rescaled = raw * REF_KERNEL_S / (measured kernel time)

A reported time is therefore the time the operation would have taken on a
host where the kernel takes REF_KERNEL_S; the raw times are printed in the
details line.  The kernels never call cuspkit, so a change to cuspkit
cannot change them.

Interpreted code and vectorized numpy code do not drift alike: on a busy
host the first slowed by up to 1.8x while the second slowed by 1.25x.  So
there are two kernels, and each workload is rescaled by the one that looks
like its code:

* ``mixed``: mostly a Python loop over small numpy vectors (like an RK4
  sweep or a jet product), with a few vectorized passes;
* ``vectorized``: passes over a couple of thousand points (like a batched
  profile with its Newton inversion and quadrature).
"""

from __future__ import annotations

import gc
import time

import numpy as np

# Median time of either kernel on a 2-vCPU x86-64 host with CPython 3.11
# and numpy 2.4.
REF_KERNEL_S = 1.0e-3

_SMALL = np.array([1.0, -0.5, 0.25, 2.0])
_GRID = np.linspace(0.0, 1.0, 2001)


def mixed() -> float:
    """A Python loop over small vectors, then a few vectorized passes."""
    y = np.ones(4)
    acc = 0.0
    for k in range(200):
        y = y + 1e-3 * (_SMALL * y)
        acc += float(y[k % 4]) * 0.5
    for _ in range(20):
        z = np.sqrt(_GRID * _GRID + acc)
        acc = float(np.cumsum(z)[-1]) * 1e-6
    return acc


def vectorized() -> float:
    """Vectorized passes over a couple of thousand points."""
    acc = 0.0
    for _ in range(60):
        z = np.sqrt(_GRID * _GRID + acc)
        acc = float(np.cumsum(z)[-1]) * 1e-6
    return acc


def time_kernel(kernel) -> float:
    """Wall time of one call of ``kernel``, with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
