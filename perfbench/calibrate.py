"""CPU-speed calibration of timings taken on a shared host.

On a virtual machine that shares its cores, the same Python code runs up
to twice as slow for seconds or minutes while a neighbour is busy, so
raw wall times of one build spread too widely to compare two builds.
``Speedometer`` samples the host's speed while the benchmark runs: a
timer signal runs a small fixed pure-Python kernel every ``PERIOD_S``
seconds, in the benchmark's own thread, and records how long it took.
An interval's *reference seconds* are its wall time times
``REF_S / kernel time``, averaged over the samples taken in it: the time
the interval takes when the kernel takes ``REF_S``.  A change to hamloc
moves an interval's reference seconds; a busy neighbour does not.  The
kernel itself costs about 2 % of every interval, the same on every
build.  ``README.md`` here shows how much of an injected slowdown the
scaling keeps, and where it could divide one out.
"""

import bisect
import gc
import signal
import time

PERIOD_S = 0.1
REF_S = 0.002


class _Cell:
    __slots__ = ("direction", "key", "name")

    def __init__(self, direction, key):
        self.direction = direction
        self.key = key
        self.name = repr((direction, key))


def _kernel():
    """Work shaped like hamloc's, in two halves of about equal time: dict
    updates keyed by tuples, as in the word oracle and the DK
    certificate; and small objects named by their repr, with sorted
    tuples, as in hammock enumeration.  On this host contention slows
    the first half less than hamloc and the second more, so either alone
    leaves timings that move with the host."""
    table = {}
    for i in range(2400):
        key = (i % 251, i % 127)
        table[key] = table.get(key, 0) + 1
    rows = []
    for i in range(500):
        cell = _Cell(("f", "b")[i & 1], (i % 97, i % 13))
        table[cell.name] = cell
        rows.append(tuple(sorted((cell.key[0], cell.key[1], i % 7))))
    return len(table) + len(rows)


class Speedometer:
    """Samples the kernel's time every ``PERIOD_S`` seconds between
    ``start`` and ``stop``; call those from the main thread."""

    def __init__(self):
        self.times = []
        self.rates = []  # REF_S / kernel time, one per sample
        self._previous = None

    def _sample(self, *_):
        # a collection of hamloc's heap must not land in the kernel's time
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _kernel()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.times.append(start)
        self.rates.append(REF_S / (end - start))

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def reference_seconds(self, start, end):
        """The interval [start, end] of ``time.perf_counter`` in reference
        seconds, from the samples taken in it, or from the nearest one on
        each side when it is shorter than a period."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        rates = self.rates[lo:hi] or self.rates[max(lo - 1, 0):lo + 1]
        return (end - start) * sum(rates) / len(rates)
