import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pboxcdf.arith import QuantileInterval, div_bounds, mul_bounds, slide
from pboxcdf.pbox import (
    CdfPoint,
    DivisorStraddlesZero,
    Inconsistent,
    PboxInterval,
    check_dominance,
)

from conftest import add_bounds, checked, random_envelope, sub_bounds


def qi(lo, hi):
    return QuantileInterval(float(lo), float(hi))


def apply(bounds, a, b):
    """The checked range that a bound formula gives for two ranges."""
    return checked(*bounds(a.lo, a.hi, b.lo, b.hi))


class TestEndpointArithmetic:
    def test_add(self):
        assert apply(add_bounds, qi(10, 80), qi(20, 90)) == qi(30, 170)
        assert apply(add_bounds, qi(0, 0), qi(-3, 7)) == qi(-3, 7)
        assert apply(add_bounds, qi(-5, 3), qi(2, 2)) == qi(-3, 5)

    def test_sub(self):
        assert apply(sub_bounds, qi(30, 170), qi(20, 90)) == qi(-60, 150)
        assert apply(sub_bounds, qi(-3, 7), qi(0, 0)) == qi(-3, 7)
        assert apply(sub_bounds, qi(5, 5), qi(5, 5)) == qi(0, 0)

    def test_mul(self):
        assert apply(mul_bounds, qi(1, 2), qi(3, 4)) == qi(3, 8)
        assert apply(mul_bounds, qi(-1, 2), qi(-3, 4)) == qi(-6, 8)
        assert apply(mul_bounds, qi(-3, 7), qi(1, 1)) == qi(-3, 7)

    def test_div(self):
        assert apply(div_bounds, qi(4, 8), qi(2, 4)) == qi(1, 4)
        assert apply(div_bounds, qi(-3, 7), qi(1, 1)) == qi(-3, 7)
        with pytest.raises(DivisorStraddlesZero):
            apply(div_bounds, qi(1, 2), qi(-1, 1))
        with pytest.raises(DivisorStraddlesZero):
            apply(div_bounds, qi(1, 2), qi(0, 1))

    def test_identities_exact(self):
        a = qi(-1.375, 2.5)
        assert apply(add_bounds, a, qi(0, 0)) == a
        assert apply(add_bounds, qi(0, 0), a) == a
        assert apply(mul_bounds, a, qi(1, 1)) == a
        assert apply(mul_bounds, qi(1, 1), a) == a

    def test_commutative_and_associative_add(self, rng):
        for _ in range(200):
            a = qi(*sorted((rng.uniform(-50, 50), rng.uniform(-50, 50))))
            b = qi(*sorted((rng.uniform(-50, 50), rng.uniform(-50, 50))))
            c = qi(*sorted((rng.uniform(-50, 50), rng.uniform(-50, 50))))
            assert apply(add_bounds, a, b) == apply(add_bounds, b, a)
            assert apply(mul_bounds, a, b) == apply(mul_bounds, b, a)
            lhs = apply(add_bounds, apply(add_bounds, a, b), c)
            rhs = apply(add_bounds, a, apply(add_bounds, b, c))
            assert lhs.lo == pytest.approx(rhs.lo, abs=1e-9)
            assert lhs.hi == pytest.approx(rhs.hi, abs=1e-9)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            qi(2, 1)
        with pytest.raises(ValueError):
            qi(float("inf"), 1)


_interval = st.tuples(st.floats(-50, 50), st.floats(-50, 50)).map(
    lambda pair: qi(min(pair), max(pair))
)


@settings(max_examples=150, deadline=None)
@given(_interval, _interval, st.integers(0, 10**6))
def test_sampling_oracle_containment(a, b, seed):
    """Every sampled operand pair lands inside the computed interval, and the
    endpoints are attained at operand corners."""
    rng = random.Random(seed)
    cases = [
        (add_bounds, lambda x, y: x + y),
        (sub_bounds, lambda x, y: x - y),
        (mul_bounds, lambda x, y: x * y),
    ]
    if not b.lo <= 0.0 <= b.hi and min(abs(b.lo), abs(b.hi)) > 1e-2:
        cases.append((div_bounds, lambda x, y: x / y))
    for bounds, scalar in cases:
        out = apply(bounds, a, b)
        for _ in range(40):
            x = rng.uniform(a.lo, a.hi)
            y = rng.uniform(b.lo, b.hi)
            v = scalar(x, y)
            assert out.lo - 1e-9 <= v <= out.hi + 1e-9
        corners = [scalar(x, y) for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
        assert out.lo == pytest.approx(min(corners), rel=1e-9, abs=1e-9)
        assert out.hi == pytest.approx(max(corners), rel=1e-9, abs=1e-9)


class TestSlide:
    def test_own_range_is_identity(self):
        dom = PboxInterval(CdfPoint(10, 0.14, 0.016), CdfPoint(80, 0.49, 0.06))
        assert slide(dom, qi(10, 80)) is dom
        assert slide(dom, qi(0, 200)) is dom

    def test_anchors_move_along_their_lines(self):
        dom = PboxInterval(CdfPoint(10, 0.14, 0.016), CdfPoint(80, 0.49, 0.06))
        out = slide(dom, qi(30, 170))
        assert out.lo.q == 30.0
        assert out.lo.f == pytest.approx(0.46, abs=1e-9)
        assert out.lo.s == 0.016
        assert out.hi == dom.hi

    def test_disjoint_target_fails(self):
        dom = PboxInterval(CdfPoint(10, 0.14, 0.016), CdfPoint(80, 0.49, 0.06))
        with pytest.raises(Inconsistent):
            slide(dom, qi(100, 170))

    def test_sub_tolerance_gap_collapses_to_point(self):
        dom = PboxInterval(CdfPoint(0.0, 0.5, 0.01), CdfPoint(10.0, 0.6, 0.01))
        out = slide(dom, qi(10.0 + 1e-12, 20.0))
        assert out.lo.q == out.hi.q == pytest.approx(10.0, abs=1e-9)

    def test_contracting_and_clipped(self, rng):
        for _ in range(400):
            dom = random_envelope(rng)
            width = dom.hi.q - dom.lo.q
            lo = dom.lo.q + rng.uniform(-0.5, 0.8) * max(width, 1.0)
            hi = lo + rng.uniform(0.0, 1.5) * max(width, 1.0)
            try:
                out = slide(dom, qi(lo, hi))
            except Inconsistent:
                assert lo > dom.hi.q - 1e-9 or hi < dom.lo.q + 1e-9
                continue
            assert out.lo.q >= dom.lo.q - 1e-9
            assert out.hi.q <= dom.hi.q + 1e-9
            assert 0.0 <= out.lo.f <= 1.0
            assert 0.0 <= out.hi.f <= 1.0
            assert out.lo.s == dom.lo.s
            assert out.hi.s == dom.hi.s
            assert check_dominance(out)
