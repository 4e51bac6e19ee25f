"""Host-speed calibration: scale measured times to a reference host speed.

On a shared virtual machine the same code runs at speeds that switch, many
times a second, between a fast and a slow state (a fixed piece of work
takes about 25 ms or about 38 ms), and the share of time spent in the
slow state drifts over minutes with the neighbours' load.  Medians over
the rounds of one run cannot remove a drift that lasts longer than the
run.

So a timed round samples the host's speed while it runs.  An interval timer
interrupts the round every PERIOD_S seconds, and the handler runs a probe:
fixed pure-Python work of the two kinds qschur's hot loops do, products of
dict-keyed integer polynomials and lookups in a dict too large for the
core's own caches.  It touches nothing of qschur.  The clock below leaves
the time spent in probes out of every measured interval, and scales each
interval to reference seconds by the probes that ran during it:

    reference seconds = wall seconds * mean(REF_PROBE_S / probe time)

REF_PROBE_S is about the median time of a probe inside a round on the
2-core VM the README's figures come from, so a reference second is about
a wall second of that VM at its usual speed.  A slower host slows the probes and the program
alike and the product stays put; a faster or slower program moves the
reported time in proportion.
"""

from __future__ import annotations

import gc
import random
import signal
import time

REF_PROBE_S = 0.006
PERIOD_S = 0.05
MIN_PROBES = 10     # an interval's speed is the mean over at least this many
_POLY = {e: (e * 7919) % 1001 - 500 for e in range(-12, 12)}
_PRODUCTS = 20
_TABLE_SIZE = 1 << 14
_TABLE = {}
_KEYS = []
_EVICT_BYTES = 8 << 20


def _build_table():
    rng = random.Random(_TABLE_SIZE)
    _TABLE.update((rng.getrandbits(40), i) for i in range(_TABLE_SIZE))
    _KEYS.extend(_TABLE)
    rng.shuffle(_KEYS)


def probe():
    """The fixed work of one probe: products of small dict polynomials,
    which stay in the core's caches, and lookups of every key of a 1.7 MB
    dict in random order, which the work between probes evicts."""
    if not _TABLE:
        _build_table()
    for _ in range(_PRODUCTS):
        out = {}
        for i, x in _POLY.items():
            for j, y in _POLY.items():
                k = i + j
                out[k] = out.get(k, 0) + x * y
        out = {k: v for k, v in out.items() if v}
    total = 0
    for key in _KEYS:
        total += _TABLE[key]
    return total


class WallClock:
    """Wall seconds, for a round that runs no probes."""

    def lap(self):
        return time.perf_counter()

    def since(self, lap):
        """(seconds since lap, 0, 0): the same shape as CalibratedClock's."""
        return time.perf_counter() - lap, 0, 0

    def scale(self, lo=0, hi=None):
        return 1.0


class CalibratedClock:
    """A clock that samples the host's speed while it is running.

    Between start() and stop() a probe runs every PERIOD_S seconds from a
    SIGALRM handler, between two Python bytecodes of whatever is running.
    Intervals are measured with lap() and since(), which leave the time
    spent in probes out and note which probes ran during the interval, so
    that scale() can convert it by the host's speed at the time.
    """

    def __init__(self):
        self.probes_s = []
        self._spent = 0.0
        self._previous = None
        probe()   # builds the table, and warms up, before any probe is timed

    def lap(self):
        return time.perf_counter() - self._spent, len(self.probes_s)

    def since(self, lap):
        """(seconds since lap without probes, first probe, end probe)."""
        start, first = lap
        return time.perf_counter() - self._spent - start, first, \
            len(self.probes_s)

    def _tick(self, signum, frame):
        # no garbage collection inside a probe: a collection it set off
        # would be the program's work, left out of the timed interval
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.probes_s.append(t1 - t0)
        self._spent += time.perf_counter() - t0

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def sample(self, count):
        """Run count probes directly, for a process that only sets up.

        Before each probe, reading 8 MB evicts the probe's dict from the
        core's caches, as a round's work between two probes does, so that
        these probes measure what a round's probes measure.
        """
        evict = b"\1" * _EVICT_BYTES
        for _ in range(count):
            evict[::64]
            self._tick(None, None)

    def scale(self, lo=0, hi=None):
        """Factor from wall seconds to reference seconds for an interval
        during which probes lo..hi-1 ran: the mean speed of those probes
        and of the nearest ones on each side, at least one and enough for
        MIN_PROBES in all (of every probe by default)."""
        hi = len(self.probes_s) if hi is None else hi
        pad = max(1, (MIN_PROBES - (hi - lo) + 1) // 2)
        near = self.probes_s[max(lo - pad, 0):hi + pad] or self.probes_s
        return sum(REF_PROBE_S / t for t in near) / len(near)
