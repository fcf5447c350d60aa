"""A fixed numpy reference kernel that tracks the machine's current speed.

On a shared machine the speed of small-array numpy code drifts by 20-60%
over stretches of seconds to a minute, with neighbours' load.  The benchmark
runs this kernel between ops, about every ``INTERVAL_S``, and scales each op
time by ``REFERENCE_MS`` over the kernel's median time in the seconds around
that op, so the gated timings read as on the reference machine at rest.  The
kernel uses no hqds3 code, so a change to the program cannot move it.  Its
mix -- SVD, QR, a solve and an einsum on 3x3 and 400x3 arrays -- is the mix
hqds3 spends its time in; measured over 100 s on the reference machine, op
times scaled by the kernel varied a third as much as the raw ones (10 s
windows: IQR/median 0.08-0.10 against 0.26-0.28).
"""
from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

# the kernel's time on the reference machine at rest (2-core x86 VM,
# Python 3.11, numpy 2.4, one BLAS thread)
REFERENCE_MS = 6.0
# seconds of ops between kernel samples
INTERVAL_S = 0.25
# an op is scaled by the kernel samples taken within this many seconds of it
WINDOW_S = 1.0

_RNG = np.random.default_rng(20140108)
_M = _RNG.standard_normal((3, 3, 3))
_P = _RNG.standard_normal((400, 3))


def kernel() -> float:
    acc = 0.0
    for _ in range(40):
        acc += float(np.linalg.svd(_M[0])[1][0])
        acc += float(np.max(np.abs(np.einsum("ni,ijk,nj->nk", _P, _M, _P))))
        acc += float(np.linalg.norm(np.linalg.solve(_M[1] + 3.0 * np.eye(3), _M[2][:, 0])))
        acc += float(np.linalg.qr(_M[2])[0][0, 0])
    return acc


class Calibrator:
    """Timed kernel samples; ``factor(t0, t1)`` scales an op run in [t0, t1]."""

    def __init__(self):
        self.reference_ms = REFERENCE_MS
        self.times: list[float] = []  # sample end times, increasing
        self.ms: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.times.append(t1)
        self.ms.append((t1 - t0) * 1e3)

    def maybe_sample(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def kernel_ms(self, t0: float, t1: float) -> float:
        """Median kernel time within WINDOW_S of [t0, t1]; at least the three
        samples nearest to the interval when the window holds fewer."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        while hi - lo < 3 and (lo > 0 or hi < len(self.times)):
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        return statistics.median(self.ms[lo:hi])

    def factor(self, t0: float, t1: float) -> float:
        return self.reference_ms / self.kernel_ms(t0, t1)
