"""Machine-speed probe that takes the host's drift out of the timings.

On a shared host the same pure-Python pass runs 15-25% slower or faster
from one stretch of seconds to the next, because of load outside this
process.  While a pass runs, ``SpeedProbe`` times a fixed reference
kernel every ``INTERVAL_S`` seconds from a SIGALRM handler.  The kernel is
a bipartite matching by augmenting paths on fixed masks, the same mix of
small-int bit operations, dict and set lookups and calls as the
library's hot loops, but it is code of the benchmark: no change to the
library moves it.  Each query's time is then scaled by
``REFERENCE_S / mean kernel time while it ran``, which gives seconds at
the speed of the reference machine; the probe's own time is taken out
first.

``REFERENCE_S`` is the kernel's mean time on a 2-vCPU Intel Xeon VM under
CPython 3.11.7.
"""

from __future__ import annotations

import signal
from time import perf_counter

REFERENCE_S = 0.8e-3
INTERVAL_S = 0.05
PAD = 3
_MASKS = (0b1011, 0b0110, 0b1100, 0b0011, 0b1001, 0b0101, 0b1110, 0b0111)


def _matching_size(masks) -> int:
    owner: dict[int, int] = {}

    def augment(i: int, banned: set) -> bool:
        m = masks[i]
        while m:
            low = m & -m
            c = low.bit_length() - 1
            m ^= low
            if c in banned:
                continue
            banned.add(c)
            if c not in owner or augment(owner[c], banned):
                owner[c] = i
                return True
        return False

    return sum(augment(i, set()) for i in range(len(masks)))


def _kernel():
    for k in range(60):
        _matching_size(_MASKS[k % 3 :])


class SpeedProbe:
    """Context manager sampling the kernel while it is entered."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # total probe time, to subtract from timings

    def sample(self, *_):
        t0 = perf_counter()
        _kernel()
        elapsed = perf_counter() - t0
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self):
        self.sample()  # at least one sample, even for a pass shorter than the interval
        self.spent = 0.0  # that one ran before the timed part
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def factor(self, first: int = 0, end: int | None = None) -> float:
        """Scale from this host's speed to the reference speed.

        The speed is taken from the samples ``first`` to ``end`` (those taken
        while a timed stretch ran) and ``PAD`` more on each side, so that a
        stretch shorter than the interval still gets a steady estimate.
        """
        end = len(self.samples) if end is None else end
        window = self.samples[max(first - PAD, 0) : end + PAD]
        return REFERENCE_S * len(window) / sum(window)
