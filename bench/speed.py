"""Machine-speed reference for the untraced timings.

The speed of a shared VM drifts. On the 2-core VM of the baselines in
README.md, a steady ``monitor_scale`` tick took 27 ms in one phase and
50 ms in the next, with phases lasting from ten seconds to over a minute,
so no run length averages them away. The untraced timings are therefore
reported at a reference machine speed.

While the measured commands run, ``Speedometer`` interrupts them every
``PERIOD_S`` on a timer signal and times two fixed loops: one of integer
arithmetic, dict lookups and calls, and one of random byte reads from an
8 MiB buffer, larger than a core's L2 cache. Neither allocates anything
the garbage collector tracks. A sample is the geometric mean of the two
loop times; it tracked the drift better than either loop alone. The time
spent sampling is taken out of the speedometer's clock, so spans timed
with ``clock()`` exclude it.

A span's time at reference speed is its duration times ``REF_S`` over the
median sample taken during the span (or of the ``NEAREST`` samples closest
to it, for spans shorter than a few periods). A sample is taken as soon as
the speedometer starts, so there is always one.
"""

import random
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

PERIOD_S = 0.1
NEAREST = 3
CPU_N = 8000
MEM_N = 4000
MEM_BYTES = 8 << 20
# Sample time in a fast phase of the VM the baselines were taken on. Only
# its constancy matters: a change to it rescales every timing, so it must
# stay the same across compared commits.
REF_S = 0.75e-3

_TABLE = {i: i * 7 for i in range(256)}


def _cpu_loop() -> int:
    table, acc = _TABLE, 0
    for i in range(CPU_N):
        acc = (acc + table[(i ^ acc) & 255]) & 0xFFFF
        acc = abs(acc - 1)
    return acc


class Speedometer:
    """Speed samples taken on a timer signal while ``running``."""

    def __init__(self):
        rng = random.Random(0)
        # Filled a page at a time, so the buffer is resident without a
        # second copy ever raising the peak memory.
        self._buffer = bytearray(MEM_BYTES)
        for at in range(0, MEM_BYTES, 4096):
            self._buffer[at:at + 4096] = rng.randbytes(4096)
        self._offsets = [rng.randrange(MEM_BYTES) for _ in range(MEM_N)]
        self.footprint_mb = MEM_BYTES / 2**20
        self.samples = []   # (clock time, sample seconds)
        self.spent = 0.0    # seconds spent sampling so far

    def clock(self) -> float:
        """Wall time with the time spent sampling taken out."""
        return perf_counter() - self.spent

    def _mem_loop(self) -> int:
        buffer, acc = self._buffer, 0
        for offset in self._offsets:
            acc += buffer[offset]
        return acc

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        _cpu_loop()
        mid = perf_counter()
        self._mem_loop()
        end = perf_counter()
        self.samples.append((start - self.spent,
                             ((mid - start) * (end - mid)) ** 0.5))
        self.spent += end - start

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._sample(None, None)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def at_reference(self, start: float, end: float) -> float:
        """Duration of the clock span ``[start, end]`` at reference speed."""
        inside = [s for t, s in self.samples if start <= t <= end]
        if len(inside) < NEAREST:
            mid = (start + end) / 2
            near = sorted(self.samples, key=lambda ts: abs(ts[0] - mid))
            inside = [s for _, s in near[:NEAREST]]
        return (end - start) * REF_S / statistics.median(inside)

    def median_sample_s(self) -> float:
        return statistics.median(s for _, s in self.samples)
