"""A fixed reference workload that measures how fast the host runs now.

On a shared host the CPU speed a process gets drifts by 20-50% within
minutes, with other tenants' load. The benchmark runs this reference
between jobs and scales its host times by ``NOMINAL_S`` over the
reference's mean time in the same run, so the times it reports read as
seconds on a host of fixed speed and a slower program still shows in full.

It never touches the program. Its mix follows the program's: interpreter
work (an event heap, dicts, float arithmetic), small numpy arrays and a
``scipy.optimize.curve_fit`` least-squares fit.
"""

from __future__ import annotations

import gc
import heapq
import math
import statistics
import time

import numpy as np
from scipy.optimize import curve_fit

# About one pass's host seconds on the 2-vCPU VM the bounds were set on.
NOMINAL_S = 0.020
# Reference time run after each job, as a share of the job's host time.
SHARE = 0.05

_X = np.linspace(1.0, 60.0, 60)
_Y = 2.0 * _X ** -0.6 + 0.1 + 0.002 * np.sin(7.0 * _X)


def _decay(x, a, b, c):
    return a * np.power(x, -b) + c


def _interpreter(n: int) -> float:
    heap, table, acc = [], {}, 0.0
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        table[i % 257] = table.get(i % 257, 0.0) + i * 0.5
        if len(heap) > 64:
            t, j = heapq.heappop(heap)
            acc += t * 1e-3 + table[j % 257] * 1e-6
    return acc


def _arrays(n: int) -> float:
    a = np.arange(256, dtype=float)
    acc = 0.0
    for i in range(n):
        b = np.sqrt(a * a + i)
        acc += float(b.sum() - np.maximum(b, 50.0).mean())
    return acc


def _fits(n: int) -> None:
    for _ in range(n):
        curve_fit(_decay, _X, _Y, p0=(1.0, 0.5, 0.0), maxfev=2000)


def reference_s() -> float:
    """Host seconds one pass of the reference workload takes (about 20 ms,
    a third in each part).

    The garbage collector is off for the pass, so the pass does not pay for
    collecting what the job before it left behind.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _interpreter(5_000)
        _arrays(600)
        _fits(22)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def after_job(job_s: float) -> list[float]:
    """Reference passes worth ``SHARE`` of a job's host time, at least one,
    so the mean weights the host's speed by the time jobs spent in it."""
    n = max(1, math.ceil(SHARE * job_s / NOMINAL_S))
    return [reference_s() for _ in range(n)]


def scale(samples: list[float]) -> float:
    """Factor taking host seconds of a run to seconds at nominal speed."""
    return NOMINAL_S / statistics.fmean(samples)
