"""Host speed reference: a fixed numpy kernel that does not use momext.

The shared 2-vCPU host the benchmark was tuned on changes speed by up to 2x
within seconds, in CPU time as much as in wall time, and the same code can
run at one speed for a minute and at another the next. Timed alone, the
same instances then spread by more than the benchmark's bounds from run to
run. The kernel below runs after every instance, untimed. Each instance
time is scaled by `REF_S` over the kernel's median time around that
instance, so the benchmark reports seconds at the speed at which the kernel
takes `REF_S`. Like most of momext's own work, the kernel is numpy calls
on small matrices.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = 1.8e-3  # about the kernel's median time per pass on the tuning host
WINDOW = 15  # kernel samples in the rolling median around an instance

_A = np.random.default_rng(0).standard_normal((10, 10))
_A = _A + _A.T


def kernel_seconds():
    """Wall seconds of one pass of the reference kernel."""
    start = time.perf_counter()
    m = _A.copy()
    for _ in range(60):
        w, v = np.linalg.eigh(m)
        m = (v * w) @ v.T + 1e-9 * m
        m = 0.5 * (m + m.T)
    return time.perf_counter() - start


def factors(kernel_times, window=WINDOW):
    """Per-sample speed factors: REF_S over the rolling median of the kernel."""
    n = len(kernel_times)
    half = window // 2
    out = []
    for i in range(n):
        lo = max(0, min(i - half, n - window))
        out.append(REF_S / statistics.median(kernel_times[lo:lo + window]))
    return out
