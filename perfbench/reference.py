"""Host-speed reference: times are reported in reference seconds.

The host the benchmark was tuned on runs a Python process at speeds that
change within a second and drift over minutes.  Raw wall times of identical
runs moved by up to 30% within five minutes, and no statistic over the raw
times removes that: the median sits between the speeds, and the minimum
depends on catching a rare fast moment.

So every timed piece of work is bracketed by a fixed pure-Python reference,
and its wall time is divided by the reference's time measured around it.
That ratio is the work's cost in reference units.  It is converted to
seconds with the reference's fixed nominal time :data:`REFERENCE_S`, its
time at the fast speed of the tuning host (with one correction, below).  A reported time therefore reads
as the wall time the work takes on that host when it is unloaded.

The reference is the geometric mean of two loops.  One works in registers
and the first-level cache; the other reads float objects scattered over
about 4 MB, more than a core's second-level cache.  The program slows in
both ways: with the speed of the core, and, in other episodes, with
contention for the shared caches while the first loop does not slow at all.
Over 60-90 s samples that alternated the loops with one solve and one
search, the program's time divided by the first loop alone still moved by
7-13% between 10 s windows; divided by the mean of both, by 2-8%.

The program still slows more than the reference does.  Within a run, a
regression of the log of each round's wall time on the log of its mean
reference time has a slope of 1.13-1.28 (per operation, 1.19-1.29) over
ten runs of each workload (seeds 301-310) timed without this correction.  So a wall time is
multiplied by ``(REFERENCE_S / reference time) ** RESPONSE``, with
:data:`RESPONSE` = 1.2, rather than divided by the reference time alone.

One reading is a point sample of a state that changes within a second.  An
operation in a round is therefore scaled by the mean of the readings around
it and around its :data:`WINDOW` neighbours on either side, which is 14
readings.  Set-up is timed the same way, in pieces (:class:`Stopwatch`).

Neither loop allocates containers, so neither can trigger a garbage
collection of the program's objects.
"""

from __future__ import annotations

import math
import random
import statistics
import time

# Steps of each loop, and the reference's time at the fast speed of the
# tuning host (2 vCPUs, CPython 3.11.7): about 0.35 ms for the first loop
# and 0.7 ms for the second.
LOOP_STEPS = 1000
WALK_STEPS = 2000
REFERENCE_S = 5.0e-4
# The program's time moves as this power of the reference's (see above).
RESPONSE = 1.2
WINDOW = 3

# Float objects in shuffled order, so that consecutive reads land on
# unrelated cache lines.
_POOL = [float(i) for i in range(120_000)]
random.Random(0).shuffle(_POOL)
_STRIDE = 7919
_walk_start = [0]


class _Line:
    __slots__ = ("f", "s", "q")

    def __init__(self, f: float, s: float, q: float):
        self.f = f
        self.s = s
        self.q = q


def _clipped(line: _Line, x: float) -> float:
    return min(max(line.f + line.s * (x - line.q), 0.0), 1.0)


def _loop(steps: int) -> float:
    line = _Line(0.25, 0.01, 3.0)
    best = 0.0
    x = 0.0
    for _ in range(steps):
        x += 0.37
        value = _clipped(line, x)
        if value > best:
            best = value
        elif x > 50.0:
            x = 0.0
    return best


def _walk(steps: int) -> float:
    pool, size = _POOL, len(_POOL)
    k = _walk_start[0]
    _walk_start[0] = (k + 13) % size
    total = 0.0
    for _ in range(steps):
        total += pool[k]
        k = (k + _STRIDE) % size
    return total


def measure() -> float:
    """Wall time of one reading of the reference, in seconds: the geometric
    mean of the two loops' times."""
    start = time.perf_counter()
    _loop(LOOP_STEPS)
    middle = time.perf_counter()
    _walk(WALK_STEPS)
    return math.sqrt((middle - start) * (time.perf_counter() - middle))


def factor(reference_s: float) -> float:
    """What turns a wall time into reference seconds, given the reference's
    time around it."""
    return (REFERENCE_S / reference_s) ** RESPONSE


def scaled(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` in reference seconds, given the reference's times around it."""
    return wall_s * factor(0.5 * (before_s + after_s))


def scaled_round(walls: list[float | None], loops: list[tuple[float, float]]) -> list[float | None]:
    """The wall times of one round in reference seconds.  ``loops[i]`` holds
    the reference's times before and after operation i; a None wall stays None."""
    out = []
    for i, wall in enumerate(walls):
        near = [t for pair in loops[max(0, i - WINDOW): i + WINDOW + 1] for t in pair]
        out.append(None if wall is None else wall * factor(statistics.fmean(near)))
    return out


class Stopwatch:
    """Reference time of work done in pieces.  Each ``with`` block is one
    piece, bracketed by reference readings; the pieces are scaled like the operations of
    a round and summed."""

    def __init__(self):
        self.walls: list[float] = []
        self.loops: list[tuple[float, float]] = []

    def __enter__(self):
        self._before = measure()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.walls.append(time.perf_counter() - self._start)
        self.loops.append((self._before, measure()))
        return False

    def seconds(self) -> float:
        return sum(scaled_round(self.walls, self.loops))
