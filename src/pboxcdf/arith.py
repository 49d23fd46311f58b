"""Interval arithmetic on quantile ranges.

Arithmetic moves quantile bounds exactly as real interval arithmetic does.
The bound formulas work on float endpoints: the engine's propagators call
them on the real line and project onto the cdf domain once per fixpoint,
by ``pbox.reanchor``.  ``slide`` narrows one domain to a target range and
places it by that same step.  Sums and differences need no helper: the
engine and ``inventory.combine_bindings`` add endpoints inline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .pbox import DivisorStraddlesZero, PboxInterval, intersect_quantiles, reanchor


@dataclass(frozen=True, slots=True)
class QuantileInterval:
    """Closed real interval of quantiles."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"bounds must be finite, got [{self.lo!r}, {self.hi!r}]")
        if self.lo > self.hi:
            raise ValueError(f"bounds out of order: {self.lo!r} > {self.hi!r}")


def mul_bounds(a_lo: float, a_hi: float, b_lo: float, b_hi: float) -> tuple[float, float]:
    p1 = a_lo * b_lo
    p2 = a_lo * b_hi
    p3 = a_hi * b_lo
    p4 = a_hi * b_hi
    return min(p1, p2, p3, p4), max(p1, p2, p3, p4)


def div_bounds(a_lo: float, a_hi: float, b_lo: float, b_hi: float) -> tuple[float, float]:
    if b_lo <= 0.0 <= b_hi:
        raise DivisorStraddlesZero(f"divisor range [{b_lo!r}, {b_hi!r}] contains zero")
    return mul_bounds(a_lo, a_hi, 1.0 / b_hi, 1.0 / b_lo)


def slide(interval: PboxInterval, target: QuantileInterval) -> PboxInterval:
    """Intersect the quantile range with ``target`` and re-anchor both cdf
    points along their own lines; the result is dominance-repaired.

    Sub-tolerance inversions of the intersection are rounding noise and
    collapse to a point instead of failing.
    """
    lo_q, hi_q = intersect_quantiles(interval.lo.q, interval.hi.q, target.lo, target.hi)
    if lo_q == interval.lo.q and hi_q == interval.hi.q:
        return interval
    return reanchor(interval.lo, interval.hi, lo_q, hi_q)
