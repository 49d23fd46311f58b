import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pboxcdf.pbox import (
    TOLERANCE,
    CdfPoint,
    Inconsistent,
    ObservationSet,
    PboxInterval,
    StaircaseCdf,
    anchor,
    check_dominance,
    convex_interval,
    empirical_cdf,
    envelope,
    is_vacuous,
    lower_at,
    meet,
    point_mass,
    project,
    repair_dominance,
    slope_between,
    upper_at,
)

from conftest import check_frozen_value, random_envelope, random_observations

EX2 = PboxInterval(CdfPoint(5.17, 0.1, 1.2), CdfPoint(6.36, 0.7, 0.57))


class TestSlopeBetween:
    def test_example_interval_endpoints(self):
        assert slope_between((5.17, 0.1), (6.36, 0.7)) == pytest.approx(
            0.5042016806722689, abs=1e-12
        )

    def test_unit_uniform(self):
        assert slope_between((0.0, 0.0), (1.0, 1.0)) == 1.0

    def test_ordering_result_endpoints(self):
        assert slope_between((10.0, 0.14), (90.0, 0.9)) == pytest.approx(0.0095, abs=1e-12)

    def test_equal_quantiles_rejected(self):
        with pytest.raises(ValueError):
            slope_between((1.0, 0.2), (1.0, 0.4))
        with pytest.raises(ValueError):
            slope_between((2.0, 0.2), (1.0, 0.4))


class TestProject:
    def test_example_midpoint(self):
        f_low, f_up = project(EX2, 5.5)
        assert f_low == pytest.approx(0.2098, abs=1e-9)
        assert f_up == pytest.approx(0.496, abs=1e-9)

    def test_convex_embedding_is_uninformative(self):
        f_low, f_up = project(convex_interval(0.0, 1.0), 0.5)
        assert (f_low, f_up) == (0.0, 1.0)

    def test_upper_quantile_clips_at_one(self):
        f_low, f_up = project(EX2, 6.36)
        assert f_low == pytest.approx(0.7, abs=1e-12)
        assert f_up == 1.0

    def test_out_of_domain(self):
        with pytest.raises(ValueError):
            project(EX2, 5.0)
        with pytest.raises(ValueError):
            project(EX2, 7.0)

    def test_point_mass_behaves_as_scalar(self):
        f_low, f_up = project(point_mass(5.0), 5.0)
        assert f_low == f_up == 1.0

    def test_bounds_ordered_and_monotone_on_grid(self, rng):
        for _ in range(50):
            dom = random_envelope(rng)
            prev_low = prev_up = -1.0
            for i in range(21):
                x = dom.lo.q + (dom.hi.q - dom.lo.q) * i / 20.0
                f_low, f_up = project(dom, x)
                assert f_low <= f_up + 1e-12
                assert f_low >= prev_low - 1e-12
                assert f_up >= prev_up - 1e-12
                prev_low, prev_up = f_low, f_up


class TestEmpiricalCdf:
    def test_single_quantile(self):
        sc = empirical_cdf(ObservationSet(((5.17, 4),)))
        assert sc.steps == ((5.17, 1.0),)

    def test_cumulative_sums(self):
        sc = empirical_cdf(ObservationSet(((1.0, 1), (2.0, 1), (3.0, 2))))
        assert sc.steps == ((1.0, 0.25), (2.0, 0.5), (3.0, 1.0))

    def test_first_step_mass(self):
        obs = ObservationSet.from_pairs(
            [
                (5.17, 4),
                (5.3, 5),
                (5.45, 6),
                (5.55, 6),
                (5.7, 5),
                (5.9, 5),
                (6.1, 4),
                (6.2, 3),
                (6.36, 2),
            ]
        )
        assert obs.m == 40
        sc = empirical_cdf(obs)
        assert sc.steps[0] == (5.17, pytest.approx(0.1, abs=1e-15))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ObservationSet(())

    def test_from_pairs_sorts_and_merges(self):
        obs = ObservationSet.from_pairs([(3.0, 1), (1.0, 2), (3.0, 2)])
        assert obs.entries == ((1.0, 2), (3.0, 3))


def _min_enclosing_slopes_bruteforce(steps):
    """Grid-search oracle for the smallest enclosing slopes."""
    q1, f1 = steps[0]
    qn = steps[-1][0]
    f_left = steps[-2][1]

    def upper_ok(s):
        return all(min(f1 + s * (q - q1), 1.0) >= f - 1e-12 for q, f in steps)

    def lower_ok(s):
        prev = 0.0
        for q, _f in steps:
            if max(f_left - s * (qn - q), 0.0) > prev + 1e-12:
                return False
            prev = _f
        return True

    grid = [i * 1e-4 for i in range(0, 200001)]
    s_up = next(s for s in grid if upper_ok(s))
    s_low = next(s for s in grid if lower_ok(s))
    return s_up, s_low


class TestEnvelope:
    def test_three_step_slopes_match_bruteforce(self):
        sc = StaircaseCdf(((1.0, 0.25), (2.0, 0.5), (3.0, 1.0)))
        dom = envelope(sc)
        assert dom.lo == CdfPoint(1.0, 0.25, 0.375)
        assert dom.hi == CdfPoint(3.0, 0.5, 0.25)
        s_up, s_low = _min_enclosing_slopes_bruteforce(sc.steps)
        assert dom.lo.s == pytest.approx(s_up, abs=2e-4)
        assert dom.hi.s == pytest.approx(s_low, abs=2e-4)

    def test_point_mass_staircase(self):
        assert envelope(StaircaseCdf(((0.0, 1.0),))) == point_mass(0.0)

    def test_forty_observation_histogram(self):
        obs = ObservationSet.from_pairs(
            [
                (5.17, 4),
                (5.3, 5),
                (5.45, 6),
                (5.55, 6),
                (5.7, 5),
                (5.9, 5),
                (6.1, 4),
                (6.2, 3),
                (6.36, 2),
            ]
        )
        dom = envelope(empirical_cdf(obs))
        assert dom.lo.q == 5.17
        assert dom.hi.q == 6.36
        assert dom.lo.f == pytest.approx(0.1, abs=1e-15)
        assert dom.hi.f == pytest.approx(0.95, abs=1e-12)
        assert check_dominance(dom)

    def test_encloses_every_staircase_corner(self, rng):
        for _ in range(300):
            obs = random_observations(rng)
            sc = empirical_cdf(obs)
            dom = envelope(sc)
            prev = 0.0
            for q, f in sc.steps:
                assert upper_at(dom.lo, q) >= f - 1e-9
                assert lower_at(dom.hi, q) <= prev + 1e-9
                prev = f


class TestDominance:
    def test_crossing_outside_range_is_fine(self):
        dom = PboxInterval(CdfPoint(10, 0.14, 0.016), CdfPoint(80, 0.49, 0.06))
        assert check_dominance(dom)

    def test_full_range_convex(self):
        assert check_dominance(convex_interval(0.0, 10.0))

    def test_parallel_violation(self):
        dom = PboxInterval(CdfPoint(0.0, 0.0, 0.01), CdfPoint(10.0, 0.9, 0.01))
        assert not check_dominance(dom)

    def test_repair_identity_when_consistent(self):
        dom = PboxInterval(CdfPoint(10, 0.14, 0.016), CdfPoint(80, 0.49, 0.06))
        assert repair_dominance(dom) is dom

    def test_repair_prunes_to_line_intersection(self):
        dom = PboxInterval(CdfPoint(0.0, 0.5, 0.1), CdfPoint(10.0, 0.9, 0.02))
        assert not check_dominance(dom)
        fixed = repair_dominance(dom)
        assert fixed.lo.q == pytest.approx(2.5, abs=1e-9)
        assert fixed.lo.f == pytest.approx(0.75, abs=1e-9)
        assert fixed.lo.s == 0.1
        assert fixed.hi == dom.hi
        assert check_dominance(fixed)

    def test_repair_parallel_conflict_fails(self):
        dom = PboxInterval(CdfPoint(0.0, 0.0, 0.01), CdfPoint(10.0, 0.9, 0.01))
        with pytest.raises(Inconsistent):
            repair_dominance(dom)

    def test_repair_never_widens(self, rng):
        repaired = 0
        for _ in range(2000):
            lo_q = rng.uniform(-20, 20)
            hi_q = lo_q + rng.uniform(0.0, 30.0)
            dom = PboxInterval(
                CdfPoint(lo_q, rng.random(), rng.uniform(0, 0.5)),
                CdfPoint(hi_q, rng.random(), rng.uniform(0, 0.5)),
            )
            try:
                fixed = repair_dominance(dom)
            except Inconsistent:
                continue
            repaired += 1
            assert fixed.lo.q >= dom.lo.q - 1e-9
            assert fixed.hi.q <= dom.hi.q + 1e-9
            assert check_dominance(fixed)
        assert repaired > 100


def _dominance_by_scan(interval: PboxInterval) -> bool:
    """Reference: evaluate the clipped bounds at every point where their
    difference can change slope (the quantile bounds, the two clip
    breakpoints and the raw line intersection)."""
    lo, hi = interval.lo, interval.hi
    xs = [lo.q, hi.q]
    if lo.s > 0.0:
        xs.append(lo.q + (1.0 - lo.f) / lo.s)
    if hi.s > 0.0:
        xs.append(hi.q - hi.f / hi.s)
    den = lo.s - hi.s
    if den != 0.0:
        xs.append((hi.f - hi.s * hi.q - lo.f + lo.s * lo.q) / den)
    return not any(
        lo.q <= x <= hi.q and upper_at(lo, x) < lower_at(hi, x) - TOLERANCE
        for x in xs
    )


_slopes = st.one_of(st.just(0.0), st.floats(0.0, 0.1), st.floats(0.0, 50.0))


class TestDominanceAgainstScan:
    @given(
        lo_q=st.floats(-1e3, 1e3),
        width=st.one_of(st.just(0.0), st.floats(0.0, 1e-6), st.floats(0.0, 200.0)),
        lo_f=st.floats(0.0, 1.0),
        hi_f=st.floats(0.0, 1.0),
        lo_s=_slopes,
        hi_s=_slopes,
    )
    @example(lo_q=0.0, width=0.0, lo_f=0.2, hi_f=0.7, lo_s=0.0, hi_s=0.0)
    @example(lo_q=0.0, width=0.0, lo_f=0.7, hi_f=0.2, lo_s=1.0, hi_s=3.0)
    @example(lo_q=0.0, width=10.0, lo_f=0.0, hi_f=0.9, lo_s=0.01, hi_s=0.01)
    # Lines crossing inside the range, with the violation on either side.
    @example(lo_q=0.0, width=10.0, lo_f=0.5, hi_f=0.9, lo_s=0.1, hi_s=0.02)
    @example(lo_q=0.0, width=10.0, lo_f=0.1, hi_f=0.5, lo_s=0.02, hi_s=0.1)
    # Lines crossing outside the range.
    @example(lo_q=10.0, width=70.0, lo_f=0.14, hi_f=0.49, lo_s=0.016, hi_s=0.06)
    @settings(max_examples=1000, deadline=None)
    def test_two_endpoints_agree_with_scan(self, lo_q, width, lo_f, hi_f, lo_s, hi_s):
        dom = PboxInterval(CdfPoint(lo_q, lo_f, lo_s), CdfPoint(lo_q + width, hi_f, hi_s))
        assert check_dominance(dom) == _dominance_by_scan(dom)

    @given(
        q=st.floats(-1e6, 1e6),
        f=st.floats(0.0, 1.0),
        s=st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
        target=st.floats(-1e6, 1e6),
    )
    @settings(max_examples=1000, deadline=None)
    def test_anchor_matches_both_line_formulas(self, q, f, s, target):
        p = CdfPoint(q, f, s)
        moved = anchor(p, target)
        for raw in (f + s * (target - q), f - s * (q - target)):
            expected = min(max(raw, 0.0), 1.0)
            assert moved.q == target
            assert moved.s == s
            assert math.copysign(1.0, moved.f) == math.copysign(1.0, expected)
            assert moved.f == expected


def test_vacuous_means_no_cdf_knowledge():
    assert is_vacuous(convex_interval(1.0, 5.0))
    assert is_vacuous(point_mass(3.0))
    # A point whose lower line sits at 0, as a convex range slid onto a point.
    assert is_vacuous(PboxInterval(CdfPoint(3.0, 1.0, 0.0), CdfPoint(3.0, 0.0, 0.0)))
    # A lower level within the tolerance of 0 can still be the tightest line.
    assert not is_vacuous(PboxInterval(CdfPoint(3.0, 1.0, 0.0), CdfPoint(3.0, 5e-10, 0.0)))
    assert not is_vacuous(PboxInterval(CdfPoint(1.0, 1.0, 0.0), CdfPoint(5.0, 1.0, 0.0)))
    assert not is_vacuous(PboxInterval(CdfPoint(1.0, 0.9, 0.0), CdfPoint(5.0, 0.0, 0.0)))
    assert not is_vacuous(EX2)


class TestMeet:
    def test_idempotent(self):
        assert meet(EX2, EX2) == EX2

    def test_top_is_identity(self):
        top = convex_interval(0.0, 100.0)
        assert meet(top, EX2) == EX2
        assert meet(EX2, top) == EX2

    def test_midpoint_rule_then_repair(self):
        # Upper candidates at x=30 evaluate to 0.7 (first) and 0.5 (second),
        # lower candidates to 0.6 and 0.54; the chosen tightest pair conflicts
        # below x=50, so the repair prunes the quantile range to that point.
        a = PboxInterval(CdfPoint(0.0, 0.1, 0.02), CdfPoint(50.0, 0.8, 0.01))
        b = PboxInterval(CdfPoint(10.0, 0.2, 0.015), CdfPoint(60.0, 0.9, 0.012))
        assert upper_at(a.lo, 30.0) == pytest.approx(0.7)
        assert upper_at(b.lo, 30.0) == pytest.approx(0.5)
        assert lower_at(a.hi, 30.0) == pytest.approx(0.6)
        assert lower_at(b.hi, 30.0) == pytest.approx(0.54)
        merged = meet(a, b)
        assert merged.lo.q == pytest.approx(50.0, abs=1e-9)
        assert merged.hi.q == pytest.approx(50.0, abs=1e-9)
        assert merged.lo.f == pytest.approx(0.8, abs=1e-9)
        assert merged.lo.s == 0.015
        assert merged.hi.f == pytest.approx(0.8, abs=1e-9)
        assert merged.hi.s == 0.01
        assert check_dominance(merged)

    def test_compatible_lines_keep_range(self):
        a = PboxInterval(CdfPoint(0.0, 0.1, 0.02), CdfPoint(50.0, 0.9, 0.03))
        b = PboxInterval(CdfPoint(10.0, 0.2, 0.015), CdfPoint(60.0, 0.85, 0.016))
        merged = meet(a, b)
        assert merged.lo == CdfPoint(10.0, 0.2, 0.015)
        assert merged.hi.q == 50.0
        assert merged.hi.f == pytest.approx(0.69, abs=1e-9)
        assert merged.hi.s == 0.016
        assert check_dominance(merged)

    def test_disjoint_ranges_fail(self):
        with pytest.raises(Inconsistent):
            meet(convex_interval(0.0, 1.0), convex_interval(2.0, 3.0))

    def test_commutative_quantile_bounds_and_contraction(self, rng):
        for _ in range(300):
            a = random_envelope(rng)
            b = random_envelope(rng)
            try:
                ab = meet(a, b)
            except Inconsistent:
                with pytest.raises(Inconsistent):
                    meet(b, a)
                continue
            ba = meet(b, a)
            assert ab.lo.q == pytest.approx(ba.lo.q, abs=1e-9)
            assert ab.hi.q == pytest.approx(ba.hi.q, abs=1e-9)
            assert ab.lo.q >= max(a.lo.q, b.lo.q) - 1e-9
            assert ab.hi.q <= min(a.hi.q, b.hi.q) + 1e-9


class TestInvariantsAndSerialization:
    def test_cdf_point_validation(self):
        with pytest.raises(ValueError):
            CdfPoint(0.0, -0.1, 0.0)
        with pytest.raises(ValueError):
            CdfPoint(0.0, 1.1, 0.0)
        with pytest.raises(ValueError):
            CdfPoint(0.0, 0.5, -1.0)
        with pytest.raises(ValueError):
            CdfPoint(math.inf, 0.5, 0.0)
        with pytest.raises(ValueError):
            CdfPoint(0.0, 0.5, math.inf)

    def test_interval_orders_quantiles(self):
        with pytest.raises(ValueError):
            PboxInterval(CdfPoint(1.0, 0.0, 0.0), CdfPoint(0.0, 1.0, 0.0))

    # Each invalid constructor call with its ValueError message.
    @pytest.mark.parametrize(
        "cls, args, message",
        [
            pytest.param(CdfPoint, (math.nan, 0.5, 0.0), "quantile must be finite, got nan", id="q nan"),
            pytest.param(CdfPoint, (math.inf, 0.5, 0.0), "quantile must be finite, got inf", id="q inf"),
            pytest.param(CdfPoint, (-math.inf, 0.5, 0.0), "quantile must be finite, got -inf", id="q -inf"),
            pytest.param(CdfPoint, (0.0, -0.1, 0.0), "cdf value must lie in [0, 1], got -0.1", id="f < 0"),
            pytest.param(CdfPoint, (0.0, 1.1, 0.0), "cdf value must lie in [0, 1], got 1.1", id="f > 1"),
            pytest.param(CdfPoint, (0.0, math.nan, 0.0), "cdf value must lie in [0, 1], got nan", id="f nan"),
            pytest.param(CdfPoint, (0.0, 0.5, -1.0), "slope must be finite and >= 0, got -1.0", id="s < 0"),
            pytest.param(CdfPoint, (0.0, 0.5, math.nan), "slope must be finite and >= 0, got nan", id="s nan"),
            pytest.param(CdfPoint, (0.0, 0.5, math.inf), "slope must be finite and >= 0, got inf", id="s inf"),
            pytest.param(
                PboxInterval,
                (CdfPoint(1.0, 0.0, 0.0), CdfPoint(0.0, 1.0, 0.0)),
                "quantile bounds out of order: 1.0 > 0.0",
                id="lo.q > hi.q",
            ),
            pytest.param(StaircaseCdf, ((),), "staircase must contain at least one step", id="no step"),
            pytest.param(
                StaircaseCdf,
                (((math.nan, 0.5), (1.0, 1.0)),),
                "quantile must be finite, got nan",
                id="step q nan",
            ),
            pytest.param(
                StaircaseCdf,
                (((0.0, 0.5), (math.inf, 1.0)),),
                "quantile must be finite, got inf",
                id="step q inf",
            ),
            pytest.param(
                StaircaseCdf,
                (((-math.inf, 0.5), (1.0, 1.0)),),
                "quantile must be finite, got -inf",
                id="step q -inf",
            ),
            pytest.param(
                StaircaseCdf,
                (((2.0, 0.5), (1.0, 1.0)),),
                "step quantiles must be strictly increasing",
                id="decreasing quantiles",
            ),
            # Tied quantiles made envelope divide by zero.
            pytest.param(
                StaircaseCdf,
                (((1.0, 0.5), (1.0, 1.0)),),
                "step quantiles must be strictly increasing",
                id="tie of two steps",
            ),
            pytest.param(
                StaircaseCdf,
                (((1.0, 0.25), (2.0, 0.5), (2.0, 0.75), (3.0, 1.0)),),
                "step quantiles must be strictly increasing",
                id="tie in the middle",
            ),
            pytest.param(
                StaircaseCdf,
                (((1.0, 0.25), (2.0, 0.5), (2.0, 1.0)),),
                "step quantiles must be strictly increasing",
                id="tie at the end",
            ),
            pytest.param(
                StaircaseCdf,
                (((1.0, 0.5), (2.0, 0.5), (3.0, 1.0)),),
                "step cdf values must be strictly increasing in (0, 1]",
                id="flat step",
            ),
            pytest.param(
                StaircaseCdf,
                (((1.0, 0.5), (2.0, 0.9)),),
                "final step must reach 1, got 0.9",
                id="short of 1",
            ),
        ],
    )
    def test_constructor_rejects(self, cls, args, message):
        with pytest.raises(ValueError) as exc:
            cls(*args)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "value, text, bad, message",
        [
            (
                CdfPoint(1.0, 0.5, 0.25),
                "CdfPoint(q=1.0, f=0.5, s=0.25)",
                {"f": 2.0},
                "cdf value must lie in [0, 1], got 2.0",
            ),
            (
                EX2,
                "PboxInterval(lo=CdfPoint(q=5.17, f=0.1, s=1.2), hi=CdfPoint(q=6.36, f=0.7, s=0.57))",
                {"lo": CdfPoint(7.0, 0.1, 1.2)},
                "quantile bounds out of order: 7.0 > 6.36",
            ),
            (
                StaircaseCdf(((1.0, 0.25), (2.0, 1.0))),
                "StaircaseCdf(steps=((1.0, 0.25), (2.0, 1.0)))",
                {"steps": ((1.0, 0.25), (1.0, 1.0))},
                "step quantiles must be strictly increasing",
            ),
        ],
        ids=["CdfPoint", "PboxInterval", "StaircaseCdf"],
    )
    def test_frozen_value_contract(self, value, text, bad, message):
        check_frozen_value(value, text, bad, message)

    def test_domain_json_round_trip(self):
        again = PboxInterval.from_dict(EX2.to_dict())
        assert again == EX2

    def test_domain_json_is_dominance_repaired(self):
        # The lower line reaches 0.9 at q 10, above the upper line's 0.5:
        # the high quantile is cut to where the lines cross, q 2.
        crossing = {"lo": {"q": 0.0, "f": 0.0, "s": 0.05}, "hi": {"q": 10.0, "f": 0.9, "s": 0.1}}
        repaired = PboxInterval.from_dict(crossing)
        assert check_dominance(repaired)
        assert repaired.lo == CdfPoint(0.0, 0.0, 0.05)
        assert repaired.hi.q == pytest.approx(2.0)
        assert repaired.hi.f == pytest.approx(0.1)

    def test_domain_json_admitting_no_cdf_is_rejected(self):
        # Flat upper line at 0.1 below a flat lower line at 0.9.
        flat = {"lo": {"q": 0.0, "f": 0.1, "s": 0.0}, "hi": {"q": 10.0, "f": 0.9, "s": 0.0}}
        with pytest.raises(ValueError, match="domain admits no cdf"):
            PboxInterval.from_dict(flat)

    @given(
        st.floats(-1e6, 1e6),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1e3),
    )
    @settings(max_examples=100, deadline=None)
    def test_point_json_round_trip(self, q, f, s):
        p = CdfPoint(q, f, s)
        assert CdfPoint.from_dict(p.to_dict()) == p


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_envelope_fuzz_encloses_and_dominates(seed):
    rng = random.Random(seed)
    obs = random_observations(rng)
    sc = empirical_cdf(obs)
    dom = envelope(sc)
    assert check_dominance(dom)
    prev = 0.0
    for q, f in sc.steps:
        assert lower_at(dom.hi, q) <= prev + 1e-9
        assert upper_at(dom.lo, q) >= f - 1e-9
        prev = f
