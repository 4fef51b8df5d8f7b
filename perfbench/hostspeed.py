"""A fixed reference computation, timed between the workload's units to track
the speed the shared host gives this process at each moment."""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(0)
# Gain 2 keeps the iterated values of order one, away from subnormal numbers.
_A = (_RNG.standard_normal((256, 256)) * 2 / 16).astype(np.float32)
_BIG = _RNG.standard_normal(4_000_000).astype(np.float32)  # 16 MB, past the caches
_OUT = np.empty_like(_BIG)


def reference_work() -> float:
    """About 10 ms of the program's kinds of work on one core: matrix
    products, a pass over memory larger than the caches, small numpy
    element-wise ops, and interpreted dict and string code."""
    x = _A
    for _ in range(4):
        x = np.tanh(x @ _A)
    np.multiply(_BIG, 0.5, out=_OUT)
    v = np.zeros(24, dtype=np.float32)
    for i in range(1500):
        v = v * 0.5 + _A[i % 256, :24]
    d: dict[str, int] = {}
    for i in range(6000):
        k = f"k{i % 97}"
        d[k] = d.get(k, 0) + i
    return float(x.sum()) + float(_OUT[:8].sum()) + float(v.sum()) + len(d)


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


# The rates are stated at the host speed at which the reference takes NOMINAL_S.
NOMINAL_S = 0.010
NEAR_S = 1.5  # reference timings this close to a sample describe the host during it


def local_reference(samples: list, probes: list) -> np.ndarray:
    """For each (work, seconds, end) sample, the median reference time among the
    probes (end, seconds) that ended within NEAR_S of the sample, or the nearest one."""
    ends = np.array([p[0] for p in probes])
    times = np.array([p[1] for p in probes])
    out = np.empty(len(samples))
    for i, (_, seconds, end) in enumerate(samples):
        lo, hi = np.searchsorted(ends, [end - seconds - NEAR_S, end + NEAR_S])
        out[i] = np.median(times[lo:hi]) if hi > lo else times[np.argmin(np.abs(ends - end))]
    return out


def adjusted_rate(samples: list, probes: list, sensitivity: float) -> float:
    """Median over samples of work per second, each scaled by (local reference
    time / NOMINAL_S) ** sensitivity: the rate the sample would have had at the
    nominal host speed, for a phase whose speed moves with the host's to that power."""
    work = np.array([s[0] for s in samples], dtype=float)
    seconds = np.array([s[1] for s in samples])
    scale = (local_reference(samples, probes) / NOMINAL_S) ** sensitivity
    return float(np.median(work / seconds * scale))
