"""Host speed calibration.

The benchmark's host shares its cores with other machines' load.  Its speed
wanders by up to about 1.5x, correlated over about a second and drifting
over minutes, so medians of raw wall times over one run differ by 10-35 %
from run to run.  A run therefore samples two fixed kernels throughout its
timed phases and scales each phase to the speed at which the kernel matching
that phase takes its `REFERENCE_S`:

- `numpy`: gathers and reductions shaped like a Bellman sweep.  Sweeps slow
  down with it at a slope of about 1.1 in log time, and with the interpreter
  kernel at only about 0.7, so the solve phase is scaled by this kernel.
- `python`: an interpreter loop of small-array steps shaped like one
  closed-loop step (cell arithmetic, a sort, a gather, a tiny product).
  Callback-bound code (transition table, rollouts) follows it at a slope of
  about 1.0, and the numpy kernel at about 1.5, so every other phase is
  scaled by this kernel.

Samples are taken between phases and, while `sampling()` is active, from a
timer every `SAMPLE_EVERY_S` inside them.  `clock()` excludes the time spent
in samples, so a sample costs the timed code only its cache footprint.  A
phase is scaled by the median kernel time over the samples within
`WINDOW_S` of it (at least the last one before and the first one after), so
one sample's jitter does not go into the metric.  The kernels use only numpy
and their own fixed arrays, so no change to the library can alter them; a
sample during which other threads of the process use CPU is counted in
`busy_samples`, as such a library would slow the kernel and have its own
times scaled down.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# Median kernel times that define reference speed, measured on the 2-vCPU
# Xeon host the benchmark was written on.
REFERENCE_S = {"numpy": 0.0055, "python": 0.0085}
SAMPLE_EVERY_S = 0.2
WINDOW_S = 0.5
BUSY_SHARE = 0.1     # other threads' CPU per sample wall time that counts as busy


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.values = rng.random((1500, 21))
        self.index = rng.integers(0, 1500, size=(1500, 3))
        self.weights = rng.random((1500, 3))
        self.times = []                      # clock() of each sample
        self.kernel_s = {"numpy": [], "python": []}
        self.busy_samples = 0
        self._paused = 0.0
        self._in_sample = False

    def clock(self) -> float:
        """Seconds on a clock that stands still during samples."""
        return time.perf_counter() - self._paused

    def sample(self):
        """Time both kernels once."""
        self._in_sample = True
        t0, cpu0, own0 = time.perf_counter(), time.process_time(), time.thread_time()
        for _ in range(8):
            for b in range(21):
                np.einsum("ij,ij->i", self.weights, self.values[self.index, b])
        t1 = time.perf_counter()
        y, a = np.array([0.3, 0.2]), 0
        for i in range(300):
            cell = np.floor(y * 20.0).astype(int)
            frac = y * 20.0 - cell
            w = np.diff(np.concatenate(([1.0], frac[np.argsort(-frac)], [0.0])))
            near = self.values[self.index[i], a:].T @ self.weights[i]
            a = min(a + int(np.argmin(0.9 * near + 0.01)), 10)
            y = y + 0.001 * np.asarray(0.5 - y, dtype=float)
            float(w.sum())
        t2 = time.perf_counter()
        other = (time.process_time() - cpu0) - (time.thread_time() - own0)
        self.busy_samples += other > BUSY_SHARE * (t2 - t0)
        self.times.append(t0 - self._paused)
        self.kernel_s["numpy"].append(t1 - t0)
        self.kernel_s["python"].append(t2 - t1)
        self._paused += time.perf_counter() - t0
        self._in_sample = False

    @contextmanager
    def sampling(self):
        """Sample every SAMPLE_EVERY_S from a timer signal; the handler runs
        between bytecodes of the main thread, so it never splits a numpy call."""
        def handler(signum, frame):
            if not self._in_sample:
                self.sample()
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, kind: str, start: float, end: float) -> float:
        """Reference speed over host speed for the clock interval [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        lo = min(lo, max(bisect.bisect_right(self.times, start) - 1, 0))
        hi = max(hi, bisect.bisect_left(self.times, end) + 1)
        return REFERENCE_S[kind] / statistics.median(self.kernel_s[kind][lo:hi])
