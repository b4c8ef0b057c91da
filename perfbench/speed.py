"""Machine-speed calibration for timings taken on a shared, throttled host.

On a shared 2-CPU host the speed of the whole machine drifts by 20-50%
within seconds, and the drift slows process CPU time as much as wall
time.  A fixed reference loop, run next to the ops, slows by nearly the
same factor.  So the benchmark reports raw seconds x REFERENCE_S / (the
loop's duration around the op): the time the op would take on a
machine where the loop takes REFERENCE_S.  Library changes do not touch
the loop, so they still show in full.

The loop is a frozen miniature of the library's inner loop: fixed-step
RK4 of a geodesic spray on a 4-vector.  Code of that shape slows as the
library does.  Over 100 s of drift on the host, log(exp_map time)
followed log(loop time) with slope 0.88-0.95 and residual s.d. 0.05,
against 0.22 for the raw times; a tight numpy-arithmetic loop did worse
(slope 0.85-0.91, residual 0.07).

The drift decorrelates within ~0.3 s, so ops longer than INTERVAL_S are
sampled inside as well: while `sampling` is active, each entry to the
RK4 core (flows._run) runs the loop first when a sample is due.  Callers
subtract `spent`, the loop time, from the ops they time.
"""
from __future__ import annotations

import bisect
import contextlib
import statistics
import time

import numpy as np

from tracing import replace_in_library

STEPS = 100
# Duration of the reference loop that defines "reference speed" (about its
# time in the fast phase of the 2-CPU host the benchmark was written on).
REFERENCE_S = 4.7e-3
# The host's speed decorrelates within ~0.3 s, so sample at least this often.
INTERVAL_S = 0.1


def _spray(z):
    x, v = z[:2], z[2:]
    c = 2.0 / (1.0 + x @ x)
    return np.concatenate([v, c * (2.0 * (x @ v) * v - (v @ v) * x)])


def _vec(x):
    return np.atleast_1d(np.asarray(x, float))


def reference_loop():
    """RK4 steps of the round-sphere geodesic spray on one 4-vector."""
    z = np.array([0.3, 0.2, 0.1, 0.4])
    h = 1e-3
    for _ in range(STEPS):
        k1 = _vec(_spray(z))
        k2 = _vec(_spray(z + 0.5 * h * k1))
        k3 = _vec(_spray(z + 0.5 * h * k2))
        k4 = _vec(_spray(z + h * k3))
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        # the integrator's per-step divergence guard, kept for its cost
        if not np.all(np.isfinite(z)) or np.linalg.norm(z) > 1e8:
            break
    return z


class SpeedProbe:
    """Reference-loop timings at most every INTERVAL_S, and the speed factor near a time."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0

    def measure(self):
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.durations.append(t1 - t0)
        self.spent += t1 - t0

    def maybe(self):
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.measure()

    @contextlib.contextmanager
    def sampling(self, affinelab):
        """Within the block, sample before any flows._run call that is due."""
        run = affinelab.flows._run

        def sampled(*args, **kwargs):
            self.maybe()
            return run(*args, **kwargs)

        replaced = replace_in_library(run, sampled)
        try:
            yield
        finally:
            for module, attr, original in replaced:
                setattr(module, attr, original)

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the mean loop duration just before t0 and just after t1.

        Over a span holding many samples, the median of those samples is used.
        """
        lo = max(bisect.bisect_right(self.times, t0) - 1, 0)
        hi = min(bisect.bisect_left(self.times, t1), len(self.times) - 1)
        if hi - lo > 2:
            return REFERENCE_S / statistics.median(self.durations[lo:hi + 1])
        return REFERENCE_S / (0.5 * (self.durations[lo] + self.durations[hi]))
