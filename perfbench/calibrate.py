"""Machine-speed calibration.

The benchmark machine is shared.  For stretches of seconds to minutes it
runs the same Python code 1.5-2x slower than at other times, and the same
slowdown hits every piece of set, tuple and dict work alike.  A fixed
reference kernel measures that slowdown: it runs twice just before and
twice just after the timed calls of an input, and every SAMPLE_EVERY_S of
processor time while they run (from a SIGPROF handler, whose own time is
taken out of the call).  The call's time is scaled back to the reference speed.  On the
tuning machine, scaling cut the spread of one repeated audit from 58 % to
6 % (interquartile range over median, 1,192 calls over 60 s).
"""

from __future__ import annotations

import signal
import time

# The reference kernel's time on the uncontended tuning machine (2 vCPUs,
# Python 3.11.7).  Scaled times are seconds at that speed.
REFERENCE_S = 0.006
SAMPLE_EVERY_S = 0.25


def reference() -> float:
    """Seconds taken by a fixed closure of pairs under three maps, the same
    kind of set and tuple work as starcheck's closures."""
    start = time.perf_counter()
    seen: set[tuple[int, int]] = set()
    frontier = [(0, 0)]
    while frontier:
        grown = []
        for x, y in frontier:
            for d in (1, 7, 13):
                p = ((x * 31 + d) % 97, (y * 17 + d) % 89)
                if p not in seen:
                    seen.add(p)
                    grown.append(p)
        frontier = grown
    return time.perf_counter() - start


class Meter:
    """Times calls and measures the machine's slowdown while they run.

    Use as a context manager around one or more ``timed`` calls."""

    def __init__(self):
        self.ends: list[float] = []
        self.inside: list[float] = []
        self.spent = 0.0  # seconds the handler took inside the calls

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.inside.append(reference())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Meter":
        self.ends += [reference(), reference()]
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        self.ends += [reference(), reference()]

    def timed(self, fn):
        """(result, seconds of fn without the sampling handler)."""
        spent = self.spent
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start - (self.spent - spent)

    def slowdown(self) -> float:
        """How much slower than nominal the machine ran.  With samples from
        inside the calls, their harmonic mean weighs each slice of the calls
        equally; otherwise the fastest of the reference runs around the
        calls, since interference only ever adds time."""
        if self.inside:
            return len(self.inside) / sum(REFERENCE_S / s for s in self.inside)
        return min(self.ends) / REFERENCE_S


def slowdown_now() -> float:
    """The machine's slowdown at this moment, from two reference runs."""
    return min(reference(), reference()) / REFERENCE_S
