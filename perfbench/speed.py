"""The host's speed, sampled during a pass, to scale measured times.

On a shared host the same pass can take 5.3 s or 9.4 s depending on what
other tenants run; slow spells last tens of seconds, so medians within a
run cannot remove them.  A SpeedSampler runs a fixed kernel, which shares
no code with the library, from a timer signal every INTERVAL_S seconds
while a pass runs.  Its time is kept out of every measurement through
`clock()`, and the ratio of the kernel's reference time to its mean time
during the pass scales the pass's times to what they would be at the
reference speed.  A change to the library cannot move the kernel, so it
cannot move the scale.
"""

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.1
# Kernel time on the reference host (Xeon, 2 vCPU, 2.1 GHz, Python 3.11)
# when it is not contended; only the scale of the reported times depends on it.
REFERENCE_KERNEL_S = 0.0011
TRIM = 0.1


def kernel():
    """A fixed mix of integer arithmetic and tuple-keyed dict updates."""
    states = {(): 1}
    for _ in range(6):
        grown = {}
        for state, ways in states.items():
            base = max(state, default=0)
            for g in range(base, 7):
                key = (state + (g,))[-2:]
                grown[key] = grown.get(key, 0) + ways * (1 if g == base else 2)
        states = grown
    total = 0
    for i in range(12000):
        total += i * i % 7
    return total + sum(states.values())


def trimmed_mean(values, trim=TRIM):
    ordered = sorted(values)
    cut = int(len(ordered) * trim)
    return statistics.fmean(ordered[cut : len(ordered) - cut] or ordered)


class SpeedSampler:
    """Samples the kernel's time from SIGALRM while active (a context
    manager); `clock()` is perf_counter less the time spent sampling."""

    def __init__(self):
        self.samples = []
        self.busy = 0.0
        self._previous = None

    def clock(self):
        busy = self.busy
        return perf_counter() - busy

    def sample(self, *_):
        t0 = perf_counter()
        kernel()
        elapsed = perf_counter() - t0
        self.samples.append(elapsed)
        self.busy += elapsed

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.samples) < 3:
            self.sample()
        return False

    def scale(self):
        """Factor that turns a time measured by `clock()` while sampling
        into a time at the reference speed."""
        return REFERENCE_KERNEL_S / trimmed_mean(self.samples)
