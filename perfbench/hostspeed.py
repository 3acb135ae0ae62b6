"""Timing at a reference host speed, for a shared machine.

On the machine this benchmark was written on, the speed of the host drifts
by up to 2x within seconds, in CPU time as well as in wall time, and a
concurrent probe on the other CPU does not track it.  So while a timed
interval runs, a SIGALRM timer runs a fixed numpy kernel of about 1 ms
every PERIOD_S seconds on the same CPU.  The kernel's mean duration over
the interval, against its uncontended duration REF_S, is the slowdown the
interval saw.  The sampler's own time is taken out of the interval.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.02
ITERS = 20
REF_S = 0.0009           # kernel seconds on an uncontended host of this class

_X = np.linspace(0.0, 1.0, 193)


def kernel_s() -> float:
    """Seconds for a fixed loop of numpy calls on 193-node arrays."""
    f, v = np.zeros_like(_X), np.sin(_X)
    t0 = time.perf_counter()
    for _ in range(ITERS):
        d = np.diff(f) / 0.1
        m = 1.0 + 0.5 * (f[:-1] + f[1:])
        g = np.gradient(v, _X)
        f = f + 1e-6 * v
        v = v - 1e-6 * np.concatenate(([0.0], d * m)) + 1e-9 * g
        float(np.max(np.abs(v)))
    return time.perf_counter() - t0


class PlainTimer:
    """Times a `with` block: `wall_s`, with `scale` 1."""

    scale = 1.0

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall_s = time.perf_counter() - self._t0
        return False


class SampledTimer:
    """Times a `with` block: `wall_s` (sampling excluded) and `scale`.

    `wall_s * scale` is the block's time at the reference host speed;
    `sampling_s` is the sampler's time inside the block.
    """

    def __enter__(self):
        self.samples = [kernel_s()]
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        self.sampling_s = 0.0
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(kernel_s())
        self.sampling_s += time.perf_counter() - t0

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.wall_s = time.perf_counter() - self._t0 - self.sampling_s
        signal.signal(signal.SIGALRM, self._handler)
        self.samples.append(kernel_s())
        self.scale = REF_S / statistics.mean(self.samples)
        return False
