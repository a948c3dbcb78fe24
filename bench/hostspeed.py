"""Host speed, sampled while the benchmark measures.

The benchmark shares its host with other tenants, and the host's speed
drifts: the same pisotile call takes up to 1.6 times as long in one stretch
of tens of seconds as in another, in CPU time as well as in wall time.  Raw
wall times of two runs of the same code then differ by more than any gain a
change to the program is likely to make.

A ``Sampler`` thread runs a fixed chunk of pure-Python work every
INTERVAL_S seconds and records the CPU time the chunk took (thread CPU
time, so waiting for the GIL does not count).  One CPU's slow stretches
need not be another's, so while it samples, the Sampler keeps the process
on one CPU, where the chunks and the measured calls then both run.
``scale`` turns the wall time of a call into its time at the reference
speed: the wall time times REF_CHUNK_S over the median chunk time sampled
during the call, padded by PAD_S on each side.  The chunk runs no pisotile
code, so a change to the program moves the scaled times just as it moves
the raw ones.  On the host described at REF_CHUNK_S, scaling brought the
ten-run spread (IQR over median) of the benchmark's end-to-end times from up
to 0.41 to at most 0.15; a single call still varies by about 0.1.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from fractions import Fraction

# CPU seconds one chunk takes at the reference speed: about what it takes on
# a 2-core Intel Xeon KVM guest, between its fast and slow stretches.
REF_CHUNK_S = 0.0025
INTERVAL_S = 0.2  # between chunks: the sampler costs about 1% of the host
PAD_S = 1.5  # chunks this long before and after a call still describe it
MIN_SAMPLES = 5


def chunk(n: int = 250) -> float:
    """CPU seconds of a fixed mix of integer, Fraction, dict and list work."""
    t0 = time.thread_time()
    d = {}
    x = 1
    f = Fraction(1, 3)
    for i in range(n):
        x = (x * 1103515245 + 12345) % (1 << 61)
        d[(i & 255, x & 15)] = x
        f = (f * 3 + Fraction(i & 7, 5)) / 4
        s = [x >> k for k in range(0, 60, 6)]
        s.sort()
    return time.thread_time() - t0


class Sampler:
    """A thread that samples the host speed until the ``with`` block ends."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.samples: list[tuple[float, float]] = []  # (perf_counter, chunk CPU s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="hostspeed", daemon=True)
        self._cpus = os.sched_getaffinity(0)

    def __enter__(self) -> Sampler:
        # Threads started from here on, the sampler's among them, inherit this.
        os.sched_setaffinity(0, {min(self._cpus)})
        for _ in range(MIN_SAMPLES):
            self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()
        os.sched_setaffinity(0, self._cpus)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def sample(self) -> None:
        t = time.perf_counter()
        self.samples.append((t, chunk()))

    def _chunk_s(self, t0: float, t1: float) -> float:
        """Median chunk time over [t0 - PAD_S, t1 + PAD_S], or over the
        MIN_SAMPLES samples nearest to [t0, t1] if that window has fewer."""
        samples = list(self.samples)
        near = [c for t, c in samples if t0 - PAD_S <= t <= t1 + PAD_S]
        if len(near) < MIN_SAMPLES:
            by_distance = sorted(samples, key=lambda s: max(t0 - s[0], s[0] - t1, 0.0))
            near = [c for _, c in by_distance[:MIN_SAMPLES]]
        return statistics.median(near)

    def scale(self, t0: float, wall_s: float) -> float:
        """Seconds at the reference speed of a call that started at
        perf_counter t0 and took wall_s."""
        return wall_s * REF_CHUNK_S / self._chunk_s(t0, t0 + wall_s)

    def slowdown_now(self) -> float:
        """How much slower than the reference speed the host is now."""
        now = time.perf_counter()
        return self._chunk_s(now, now) / REF_CHUNK_S

    def summary(self) -> dict:
        chunks = [c for _, c in self.samples]
        return {
            "ref_chunk_s": REF_CHUNK_S,
            "chunks": len(chunks),
            "chunk_s_median": statistics.median(chunks),
            "chunk_s_min": min(chunks),
            "chunk_s_max": max(chunks),
            "cpu": min(self._cpus),
        }
