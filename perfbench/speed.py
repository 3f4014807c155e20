"""The host's speed, sampled inside a process while it works.

This host shares its cores with other tenants, and how fast it runs Python
drifts with their load, by up to 2x, in spells of a fraction of a second to
minutes.  The benchmark's timings are therefore stated at a fixed reference
speed.  A fixed piece of pure-Python work (`probe`: benchmark code, untouched
by any change to the program) is timed every PERIOD_S seconds from a SIGALRM
handler.  The speed at a probe is REF_PROBE_S over its time, smoothed as
the mean over the probes within SMOOTH_S, and a span of the program's CPU
time becomes the integral of that speed over the span.

The probe mixes dict lookups, small objects and calls with float
arithmetic, as the program does.  In 45 s tests, with the host so loaded
that the program's raw time per 1 s window had an inter-quartile spread of
38-40 %, its time over the probe's had a spread of 2 % for both warm table
queries and fresh evaluations; an arithmetic loop alone as the probe gave
6-7 %, the object work alone 17-27 %.

`clock()` is CPU time, so time the process spends descheduled is left out,
and it leaves out the time spent in the handler, so a span timed with it is
the program's alone, whenever the signal arrives.

Standard library only: job processes import this module.
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array
from itertools import accumulate

REF_PROBE_S = 0.0004   # the probe's CPU time at the reference speed: about
                       # its time on this 2-vCPU Xeon host with no contention
                       # (0.36-0.38 ms; 0.73-0.78 ms under load)
PERIOD_S = 0.02        # one probe every 20 ms of wall time: about 3 % overhead
SMOOTH_S = 0.1         # the speed at a probe is the mean over the probes this near

# The probe's data: a small dict with tuple keys, objects with slots, calls
# with keyword arguments, then float arithmetic, as in the program's code.
_TABLE = {(i * 0.37, i % 7): float(i) for i in range(4000)}
_KEYS = list(_TABLE)


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a = a
        self.b = b


def _combine(p: _Pair, k: float = 1.0) -> float:
    return p.a * k + p.b


def probe() -> float:
    """CPU seconds that the fixed probe work takes now."""
    t0 = time.process_time()
    s = 0.0
    for i in range(350):
        key = _KEYS[(i * 37) % 4000]
        p = _Pair(_TABLE[key], key[0])
        s += _combine(p, k=0.5) if key[1] else max(s, _combine(p))
    for i in range(2500):
        s += (i * 0.5) ** 0.5
    return time.process_time() - t0


class SpeedSampler:
    """Probe times at regular instants, and spans of CPU time scaled by them."""

    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self.stolen = 0.0

    def _handler(self, signum, frame) -> None:
        t0 = time.process_time()
        self.took.append(probe())
        self.at.append(t0 - self.stolen)   # on clock()'s scale
        self.stolen += time.process_time() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Stop probing; from here on `seconds` can be asked."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        at, took = self.at, self.took
        if not took:
            raise RuntimeError("no probes: the process ran less than one period")
        cum = [0.0, *accumulate(REF_PROBE_S / t for t in took)]
        self._speed = []       # reference seconds per second around each probe
        for t in at:
            lo, hi = bisect.bisect_left(at, t - SMOOTH_S), bisect.bisect_right(at, t + SMOOTH_S)
            self._speed.append((cum[hi] - cum[lo]) / (hi - lo))
        # probe k holds from the midpoint with its predecessor to the one with
        # its successor; _area[k] is the integral of the speed up to _mid[k]
        self._mid = [(a + b) / 2 for a, b in zip(at, at[1:])]
        self._area, area, prev = [], 0.0, at[0]
        for m, v in zip(self._mid, self._speed):
            area += (m - prev) * v
            self._area.append(area)
            prev = m

    def _integral(self, t: float) -> float:
        k = bisect.bisect_right(self._mid, t)
        if k == 0:
            return (t - self.at[0]) * self._speed[0]
        return self._area[k - 1] + (t - self._mid[k - 1]) * self._speed[k]

    def clock(self) -> float:
        """This process's CPU time less the time spent probing so far."""
        while True:
            stolen = self.stolen
            now = time.process_time()
            if stolen == self.stolen:
                return now - stolen

    def seconds(self, start: float, end: float) -> float:
        """The span between two clock() readings, in seconds at the reference speed."""
        return self._integral(end) - self._integral(start)

    def mean_speed(self) -> float:
        """Reference seconds per second over the whole time probed."""
        span = self.at[-1] - self.at[0]
        return self.seconds(self.at[0], self.at[-1]) / span if span > 0 else self._speed[0]
