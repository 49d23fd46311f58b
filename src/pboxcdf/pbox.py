"""p-box cdf-interval domains.

An uncertain quantity is stored as a quantile interval whose unknown cdf is
bracketed by two uniform (linear) cdf bounds: the line issued from the low
quantile point bounds the cdf from above, the line issued from the high
quantile point bounds it from below.  Both bounds are clipped into [0, 1]
when evaluated.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass


class PboxError(Exception):
    """Base class for errors raised by this package."""


class Inconsistent(PboxError):
    """A domain operation produced an empty or contradictory domain."""


class DivisorStraddlesZero(PboxError):
    """Interval division with a divisor range containing zero."""


# Absolute tolerance of every invariant comparison.
TOLERANCE = 1e-9


def json_number(value, kind=float):
    """A JSON number read as ``kind``; ints pass as floats, bools and strings
    never, nor an int too large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        raise ValueError(f"expected a number of type {kind.__name__}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise ValueError(f"a {value.bit_length()}-bit integer is too large for a float") from None


@dataclass(frozen=True, slots=True, init=False)
class CdfPoint:
    """A quantile together with the uniform cdf line issued from it.

    ``q`` is the quantile, ``f`` the cdf value at ``q`` and ``s`` the slope
    (cdf units per quantile unit) of the line through ``(q, f)``.
    """

    q: float
    f: float
    s: float

    def __init__(self, q: float, f: float, s: float):
        if not math.isfinite(q):
            raise ValueError(f"quantile must be finite, got {q!r}")
        if not 0.0 <= f <= 1.0:
            raise ValueError(f"cdf value must lie in [0, 1], got {f!r}")
        if not (s >= 0.0 and math.isfinite(s)):
            raise ValueError(f"slope must be finite and >= 0, got {s!r}")
        _set_q(self, q)
        _set_f(self, f)
        _set_s(self, s)

    def to_dict(self) -> dict:
        return {"q": self.q, "f": self.f, "s": self.s}

    @classmethod
    def from_dict(cls, obj: dict) -> "CdfPoint":
        return cls(json_number(obj["q"]), json_number(obj["f"]), json_number(obj["s"]))


# Slot setters: the generated frozen __init__ writes through object.__setattr__.
_set_q = CdfPoint.q.__set__
_set_f = CdfPoint.f.__set__
_set_s = CdfPoint.s.__set__


@dataclass(frozen=True, slots=True, init=False)
class PboxInterval:
    """Pair of cdf points; ``lo`` carries the upper cdf bound, ``hi`` the lower.

    The constructor checks only the cheap shape invariants.  Stochastic
    dominance of the clipped bounds is maintained by the operations through
    :func:`check_dominance` / :func:`repair_dominance`.
    """

    lo: CdfPoint
    hi: CdfPoint

    def __init__(self, lo: CdfPoint, hi: CdfPoint):
        if lo.q > hi.q:
            raise ValueError(f"quantile bounds out of order: {lo.q!r} > {hi.q!r}")
        _set_lo(self, lo)
        _set_hi(self, hi)

    def to_dict(self) -> dict:
        return {"lo": self.lo.to_dict(), "hi": self.hi.to_dict()}

    @classmethod
    def from_dict(cls, obj: dict) -> "PboxInterval":
        """A domain from its JSON form with dominance repaired (a dominant
        one is returned as built); one that admits no cdf raises
        ``ValueError``."""
        domain = cls(CdfPoint.from_dict(obj["lo"]), CdfPoint.from_dict(obj["hi"]))
        try:
            return repair_dominance(domain)
        except Inconsistent as exc:
            raise ValueError(f"domain admits no cdf: {exc}") from None


_set_lo = PboxInterval.lo.__set__
_set_hi = PboxInterval.hi.__set__


def convex_interval(lo_q: float, hi_q: float) -> PboxInterval:
    """Quantile range with no distribution knowledge: cdf anywhere in [0, 1]."""
    return PboxInterval(CdfPoint(lo_q, 1.0, 0.0), CdfPoint(hi_q, 0.0, 0.0))


def point_mass(value: float) -> PboxInterval:
    """A known constant: the cdf reaches 1 exactly at the value."""
    p = CdfPoint(value, 1.0, 0.0)
    return PboxInterval(p, p)


def upper_at(lo: CdfPoint, x: float) -> float:
    """Clipped upper cdf bound at quantile x."""
    return min(lo.f + lo.s * (x - lo.q), 1.0)


def lower_at(hi: CdfPoint, x: float) -> float:
    """Clipped lower cdf bound at quantile x."""
    return max(hi.f - hi.s * (hi.q - x), 0.0)


def anchor(p: CdfPoint, q: float) -> CdfPoint:
    """Move a bound point along its own line to quantile q.

    Upper and lower bound points move alike: ``p.f + p.s * (q - p.q)`` is
    bit-identical to ``p.f - p.s * (p.q - q)``, since IEEE subtraction and
    multiplication are sign-symmetric.
    """
    if q == p.q:
        return p
    f = p.f + p.s * (q - p.q)
    return CdfPoint(q, min(max(f, 0.0), 1.0), p.s)


def is_vacuous(interval: PboxInterval) -> bool:
    """True iff the cdf lines say nothing beyond the quantile range: both are
    flat, the upper one at level 1 and the lower one at level 0, or at 1 on
    a point as :func:`point_mass` builds it.  Binding such operands is
    interval arithmetic alone (see ``inventory.combine_bindings``)."""
    lo, hi = interval.lo, interval.hi
    return (
        lo.s == 0.0
        and hi.s == 0.0
        and lo.f == 1.0
        and (hi.f == 0.0 or hi.f == 1.0 and lo.q == hi.q)
    )


def reanchor(up: CdfPoint, low: CdfPoint, lo_q: float, hi_q: float) -> PboxInterval:
    """The domain over [lo_q, hi_q] bounded above by ``up``'s cdf line and
    below by ``low``'s: each point slides along its own line onto its end of
    the range (:func:`anchor`), then dominance is repaired.

    Two flat lines whose levels do not conflict only move their quantiles,
    with nothing to repair.  Their level is computed as :func:`anchor` does,
    ``f + 0 * move``: the bits are the general path's, down to the sign of a
    zero level, and a move too long for a float gives a NaN level that
    :class:`CdfPoint` rejects with the same ``ValueError``.
    """
    if up.s == 0.0 and low.s == 0.0 and not up.f < low.f - TOLERANCE:
        return PboxInterval(
            up if lo_q == up.q else CdfPoint(lo_q, up.f + up.s * (lo_q - up.q), up.s),
            low if hi_q == low.q else CdfPoint(hi_q, low.f + low.s * (hi_q - low.q), low.s),
        )
    return repair_dominance(PboxInterval(anchor(up, lo_q), anchor(low, hi_q)))


def tighter_upper(a: CdfPoint, b: CdfPoint, x: float) -> CdfPoint:
    """The upper-bound line with the smaller clipped value at x; ties pick the
    smaller slope."""
    va = upper_at(a, x)
    vb = upper_at(b, x)
    if abs(va - vb) <= TOLERANCE:
        return a if a.s <= b.s else b
    return a if va < vb else b


def tighter_lower(a: CdfPoint, b: CdfPoint, x: float) -> CdfPoint:
    """The lower-bound line with the larger clipped value at x; ties pick the
    smaller slope."""
    va = lower_at(a, x)
    vb = lower_at(b, x)
    if abs(va - vb) <= TOLERANCE:
        return a if a.s <= b.s else b
    return a if va > vb else b


def slope_between(p: tuple[float, float], q: tuple[float, float]) -> float:
    """Average cdf accumulation per quantile unit between two (quantile, cdf)
    points."""
    pq, pf = p
    qq, qf = q
    if qq <= pq:
        raise ValueError(f"degenerate slope: quantiles {pq!r} and {qq!r} must increase")
    return (qf - pf) / (qq - pq)


def project(interval: PboxInterval, x: float) -> tuple[float, float]:
    """Cdf bounds (f_low, f_up) of the interval at quantile x.

    Both bounds are linear in x and clipped into [0, 1].  Sub-tolerance
    excursions past the quantile bounds clamp to the nearest bound.
    """
    if not interval.lo.q <= x <= interval.hi.q:
        if not interval.lo.q - TOLERANCE <= x <= interval.hi.q + TOLERANCE:
            raise ValueError(
                f"quantile {x!r} outside domain [{interval.lo.q!r}, {interval.hi.q!r}]"
            )
        x = min(max(x, interval.lo.q), interval.hi.q)
    return lower_at(interval.hi, x), upper_at(interval.lo, x)


@dataclass(frozen=True, slots=True)
class ObservationSet:
    """Multiset of measured quantiles with occurrence counts."""

    entries: tuple[tuple[float, int], ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("observation set must contain at least one entry")
        prev = None
        for q, count in self.entries:
            if not math.isfinite(q):
                raise ValueError(f"quantile must be finite, got {q!r}")
            if not (isinstance(count, int) and count > 0):
                raise ValueError(f"count must be a positive integer, got {count!r}")
            if prev is not None and q <= prev:
                raise ValueError("quantiles must be strictly increasing")
            prev = q

    @property
    def m(self) -> int:
        """Total population size."""
        return sum(count for _, count in self.entries)

    @classmethod
    def from_pairs(cls, pairs) -> "ObservationSet":
        """Build from possibly unsorted (quantile, count) pairs, merging
        duplicate quantiles."""
        merged: dict[float, int] = {}
        for q, count in pairs:
            merged[float(q)] = merged.get(float(q), 0) + int(count)
        return cls(tuple(sorted(merged.items())))


@dataclass(frozen=True, slots=True, init=False)
class StaircaseCdf:
    """Empirical cdf of a finite observation multiset."""

    steps: tuple[tuple[float, float], ...]

    def __init__(self, steps: tuple[tuple[float, float], ...]):
        if not steps:
            raise ValueError("staircase must contain at least one step")
        prev_q = None
        prev_f = 0.0
        for q, f in steps:
            if not math.isfinite(q):
                raise ValueError(f"quantile must be finite, got {q!r}")
            if prev_q is not None and q <= prev_q:
                raise ValueError("step quantiles must be strictly increasing")
            if not prev_f < f <= 1.0:
                raise ValueError("step cdf values must be strictly increasing in (0, 1]")
            prev_q, prev_f = q, f
        if abs(steps[-1][1] - 1.0) > 1e-12:
            raise ValueError(f"final step must reach 1, got {steps[-1][1]!r}")
        _set_steps(self, steps)


_set_steps = StaircaseCdf.steps.__set__


def empirical_cdf(obs: ObservationSet) -> StaircaseCdf:
    """Cumulative step function of the observations."""
    m = obs.m
    steps = []
    running = 0
    for q, count in obs.entries:
        running += count
        steps.append((q, running / m))
    return StaircaseCdf(tuple(steps))


def envelope(cdf: StaircaseCdf) -> PboxInterval:
    """Tightest uniform-line envelope of a staircase cdf.

    The upper line is anchored at the first step value and gets the smallest
    slope that keeps it above every step's upper corner (q_k, F_k).  The lower
    line is anchored at the last quantile with the cumulative value just
    before the final step, and gets the smallest slope that keeps it below
    every step's lower corner (q_k, F_{k-1}).  A single-step staircase yields
    the degenerate point-mass interval.
    """
    steps = cdf.steps
    if len(steps) == 1:
        return point_mass(steps[0][0])
    q1, f1 = steps[0]
    qn = steps[-1][0]
    f_left = steps[-2][1]

    s_up = 0.0
    for q, f in steps[1:]:
        s_up = max(s_up, (f - f1) / (q - q1))

    s_low = 0.0
    prev_f = 0.0
    for q, f in steps[:-1]:
        s_low = max(s_low, (f_left - prev_f) / (qn - q))
        prev_f = f

    return PboxInterval(CdfPoint(q1, f1, s_up), CdfPoint(qn, f_left, s_low))


def check_dominance(interval: PboxInterval) -> bool:
    """True iff the clipped upper bound stays above the clipped lower bound
    across the whole quantile range."""
    # On the range the upper line is >= 0 and the lower line is <= 1, so
    # clipping cannot create a violation; the gap between the raw lines is
    # linear, so it is smallest at one of the two quantile bounds.
    lo, hi = interval.lo, interval.hi
    width = hi.q - lo.q
    return not (
        lo.f < hi.f - hi.s * width - TOLERANCE
        or lo.f + lo.s * width < hi.f - TOLERANCE
    )


def repair_dominance(interval: PboxInterval) -> PboxInterval:
    """Restore dominance by pruning the violating quantile side.

    The quantile bound on the violating side is moved to the intersection of
    the two raw cdf lines, sliding the pruned point along its own line.
    Raises :class:`Inconsistent` when the lines are parallel or the
    intersection falls outside the interval while the conflict persists.
    """
    if check_dominance(interval):
        return interval
    lo, hi = interval.lo, interval.hi
    den = lo.s - hi.s
    if den == 0.0:
        raise Inconsistent(
            f"parallel cdf bounds conflict everywhere in [{lo.q!r}, {hi.q!r}]"
        )
    x_star = (hi.f - hi.s * hi.q - lo.f + lo.s * lo.q) / den
    if not (lo.q - TOLERANCE <= x_star <= hi.q + TOLERANCE):
        raise Inconsistent(
            f"cdf bounds intersect at {x_star!r}, outside [{lo.q!r}, {hi.q!r}]"
        )
    x_star = min(max(x_star, lo.q), hi.q)
    if den > 0.0:
        # Upper line is steeper: the conflict sits at low quantiles.
        repaired = PboxInterval(anchor(lo, x_star), hi)
    else:
        repaired = PboxInterval(lo, anchor(hi, x_star))
    if not check_dominance(repaired):
        raise Inconsistent("dominance conflict persists after pruning")
    return repaired


def intersect_quantiles(
    a_lo: float, a_hi: float, b_lo: float, b_hi: float
) -> tuple[float, float]:
    """Intersection of two quantile ranges.

    Sub-tolerance inversions are rounding noise and collapse to their
    midpoint instead of failing.
    """
    lo_q = max(a_lo, b_lo)
    hi_q = min(a_hi, b_hi)
    if lo_q > hi_q:
        if lo_q - hi_q > TOLERANCE:
            raise Inconsistent(
                f"quantile ranges [{a_lo!r}, {a_hi!r}] and [{b_lo!r}, {b_hi!r}] "
                "are disjoint"
            )
        lo_q = hi_q = 0.5 * (lo_q + hi_q)
    return lo_q, hi_q


def meet(a: PboxInterval, b: PboxInterval) -> PboxInterval:
    """Intersection of two domains.

    Quantile bounds intersect; each cdf bound keeps whichever input line is
    tighter at the midpoint of the new range, placed on it by :func:`reanchor`.
    """
    lo_q, hi_q = intersect_quantiles(a.lo.q, a.hi.q, b.lo.q, b.hi.q)
    mid = 0.5 * (lo_q + hi_q)
    return reanchor(tighter_upper(a.lo, b.lo, mid), tighter_lower(a.hi, b.hi, mid), lo_q, hi_q)


def load_observations_csv(path) -> ObservationSet:
    """Read a ``quantile,count`` CSV into an observation set.

    Rows may be unsorted; duplicate quantiles are merged.  Errors carry the
    offending line number.  A UTF-8 byte-order mark, as spreadsheet programs
    write, is skipped.
    """
    pairs: list[tuple[float, int]] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("no observations: file is empty")
        if [col.strip().lower() for col in header[:2]] != ["quantile", "count"]:
            raise ValueError(f"line 1: expected header 'quantile,count', got {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < 2:
                raise ValueError(f"line {lineno}: expected 2 columns, got {len(row)}")
            try:
                q = float(row[0])
            except ValueError:
                raise ValueError(f"line {lineno}: bad quantile {row[0]!r}") from None
            if not math.isfinite(q):
                raise ValueError(f"line {lineno}: quantile must be finite, got {row[0]!r}")
            try:
                count = int(row[1])
            except ValueError:
                raise ValueError(f"line {lineno}: bad count {row[1]!r}") from None
            if count <= 0:
                raise ValueError(f"line {lineno}: count must be positive, got {count}")
            pairs.append((q, count))
    if not pairs:
        raise ValueError("no observations")
    return ObservationSet.from_pairs(pairs)
