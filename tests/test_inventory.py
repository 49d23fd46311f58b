import dataclasses
import json
import math
import random
from itertools import product

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pboxcdf import inventory
from pboxcdf.arith import mul_bounds
from pboxcdf.engine import CONSISTENT, FAILED, Constraint, DomainStore
from pboxcdf.inventory import (
    MODES,
    InventoryInstance,
    ModelVars,
    build_model,
    combine_bindings,
    default_instance,
    evaluate_schedule,
    generate_demand_observations,
    model_inputs,
    robust_order_sizes,
    run_benchmark,
    search,
)
from pboxcdf.pbox import (
    TOLERANCE,
    CdfPoint,
    Inconsistent,
    ObservationSet,
    PboxInterval,
    check_dominance,
    convex_interval,
    is_vacuous,
    lower_at,
    point_mass,
    project,
    repair_dominance,
    upper_at,
)

from conftest import (
    add_bounds,
    checked,
    random_envelope,
    random_scalar_instance,
    strip_keys,
    sub_bounds,
)


# Demand 30 in each of 1 000 cycles under an order cap of 30.
FORCED_H1000 = Path(__file__).parent / "data" / "forced_h1000.json"
# The winners at h384 seeds 0, 1, 2 and 42 and h500 seed 1 under both models.
WINNERS_H384_H500 = Path(__file__).parent / "data" / "search_winners_h384_h500.json"


def winner_golden_rows(horizon, mode=None):
    """Checks the search's winners against the h384/h500 golden rows of
    ``horizon`` (and ``mode``, if given), bit for bit; returns how many rows
    were checked."""
    rows = [
        row
        for row in json.loads(WINNERS_H384_H500.read_text())
        if row["horizon"] == horizon and mode in (None, row["model"])
    ]
    for row in rows:
        best = search(default_instance(horizon, row["seed"]), row["model"]).best
        assert "".join(str(int(flag)) for flag in best.schedule) == row["schedule"], row
        assert best.tc.to_dict() == row["tc"], row
        assert best.tc_hull.to_dict() == row["tc_hull"], row
    return len(rows)


# Forty instances from h2 to h10 with uncertain costs (cost_instance), 19 of
# them with initial stock, and their winners under both models.
UNCERTAIN_COSTS = Path(__file__).parent / "data" / "search_uncertain_costs.json"


def cost_golden_rows():
    """Checks the search's winners against every row of the uncertain-cost
    golden, bit for bit: schedule, ``tc``, ``tc_hull``, ``holding`` and the
    per-cycle domains; returns how many rows were checked."""
    rows = json.loads(UNCERTAIN_COSTS.read_text())
    for row in rows:
        inst = InventoryInstance.from_dict(row["instance"])
        best = search(inst, row["model"]).best.to_dict()
        assert "".join(map(str, best["schedule"])) == row["schedule"], row["instance"]
        for key in ("tc", "tc_hull", "holding", "cycles"):
            assert best[key] == row[key], (key, row["model"], row["instance"])
    return len(rows)


def tied_instance():
    """h7 seed 4 without holding cost, where seven covered leaves cost
    exactly the least cost."""
    return dataclasses.replace(default_instance(7, 4), holding_cost=0.0)


def scalar_instance(n, demands, a=10.0, h=1.0, v=2.0, i0=0.0, x_min=1.0, x_max=40.0):
    return InventoryInstance(
        horizon=n,
        ordering_cost=a,
        holding_cost=h,
        unit_cost=v,
        demands=tuple(demands),
        initial_stock=i0,
        x_min=x_min,
        x_max=x_max,
    )


def _three_branch_combine_bindings(op, a, b):
    """Reference: the binding rule with one hand-written branch per
    operation, subtraction included."""

    def upper_complete(d):
        return d.lo.f + d.lo.s * (d.hi.q - d.lo.q) >= 1.0 - TOLERANCE

    def lower_complete(d):
        return d.hi.f - d.hi.s * (d.hi.q - d.lo.q) <= TOLERANCE

    def levelwise(f1, s1, f2, s2):
        s = 1.0 / (1.0 / s1 + 1.0 / s2)
        f = s * (f1 / s1 + f2 / s2)
        return min(max(f, 0.0), 1.0), s

    def keep(points, q, f, s):
        # A subnormal slope gives a nan level or an overflowed scaled slope:
        # that candidate is dropped.
        if f == f and s < math.inf:
            points.append(CdfPoint(q, f, s))

    bounds = {"add": add_bounds, "sub": sub_bounds, "mul": mul_bounds}[op]
    rz = checked(*bounds(a.lo.q, a.hi.q, b.lo.q, b.hi.q))
    if rz.lo == rz.hi:
        return point_mass(rz.lo)
    deg_a = a.lo.q == a.hi.q
    deg_b = b.lo.q == b.hi.q
    uppers, lowers = [], []
    if op == "add":
        if deg_b or upper_complete(a):
            uppers.append(CdfPoint(rz.lo, a.lo.f, a.lo.s))
        if deg_a or upper_complete(b):
            uppers.append(CdfPoint(rz.lo, b.lo.f, b.lo.s))
        if deg_b or lower_complete(a):
            lowers.append(CdfPoint(rz.hi, a.hi.f, a.hi.s))
        if deg_a or lower_complete(b):
            lowers.append(CdfPoint(rz.hi, b.hi.f, b.hi.s))
        if a.lo.s > 0.0 and b.lo.s > 0.0:
            keep(uppers, rz.lo, *levelwise(a.lo.f, a.lo.s, b.lo.f, b.lo.s))
        if a.hi.s > 0.0 and b.hi.s > 0.0:
            keep(lowers, rz.hi, *levelwise(a.hi.f, a.hi.s, b.hi.f, b.hi.s))
    elif op == "sub":
        if deg_b or upper_complete(a):
            uppers.append(CdfPoint(rz.lo, a.lo.f, a.lo.s))
        if deg_a or lower_complete(b):
            uppers.append(CdfPoint(rz.lo, 1.0 - b.hi.f, b.hi.s))
        if deg_b or lower_complete(a):
            lowers.append(CdfPoint(rz.hi, a.hi.f, a.hi.s))
        if deg_a or upper_complete(b):
            lowers.append(CdfPoint(rz.hi, 1.0 - b.lo.f, b.lo.s))
        if a.lo.s > 0.0 and b.hi.s > 0.0:
            keep(uppers, rz.lo, *levelwise(a.lo.f, a.lo.s, 1.0 - b.hi.f, b.hi.s))
        if a.hi.s > 0.0 and b.lo.s > 0.0:
            keep(lowers, rz.hi, *levelwise(a.hi.f, a.hi.s, 1.0 - b.lo.f, b.lo.s))
    elif a.lo.q >= 0.0 and b.lo.q >= 0.0:
        if b.lo.q > 0.0 and (deg_b or upper_complete(a)):
            keep(uppers, rz.lo, a.lo.f, a.lo.s / b.lo.q)
        if a.lo.q > 0.0 and (deg_a or upper_complete(b)):
            keep(uppers, rz.lo, b.lo.f, b.lo.s / a.lo.q)
        if b.hi.q > 0.0 and (deg_b or lower_complete(a)):
            keep(lowers, rz.hi, a.hi.f, a.hi.s / b.hi.q)
        if a.hi.q > 0.0 and (deg_a or lower_complete(b)):
            keep(lowers, rz.hi, b.hi.f, b.hi.s / a.hi.q)
    if not uppers:
        uppers = [CdfPoint(rz.lo, 1.0, 0.0)]
    if not lowers:
        lowers = [CdfPoint(rz.hi, 0.0, 0.0)]
    mid = 0.5 * (rz.lo + rz.hi)
    up = min(uppers, key=lambda c: (upper_at(c, mid), c.f, c.s))
    low = max(lowers, key=lambda c: (lower_at(c, mid), c.f, -c.s))
    try:
        return repair_dominance(PboxInterval(up, low))
    except Inconsistent:
        return convex_interval(rz.lo, rz.hi)


# Levels at and within the tolerance of the ends of [0, 1].
_EDGE_LEVELS = (0.0, 1.0, TOLERANCE / 2, 1.0 - TOLERANCE / 2)
_levels = st.one_of(st.sampled_from(_EDGE_LEVELS), st.floats(0.0, 1.0))
_slopes = st.one_of(st.just(0.0), st.floats(0.0, 0.1), st.floats(0.0, 50.0))


def _split_point(q, low_f):
    """A point mass at ``q`` built from two distinct cdf points, with lower
    level ``low_f``."""
    return PboxInterval(CdfPoint(q, 1.0, 0.0), CdfPoint(q, low_f, 0.0))


def _flat(lo, hi, up_f, low_f):
    """Two flat lines that are not a convex range: upper level below 1, or
    lower level above 0."""
    if (up_f, low_f) == (1.0, 0.0):
        low_f = TOLERANCE / 2
    return PboxInterval(CdfPoint(lo, up_f, 0.0), CdfPoint(hi, low_f, 0.0))


# The operand kinds that bind as plain intervals when paired with each other
# and that are not built by point_mass or convex_interval.
_VACUOUS_KINDS = ("split point", "flat")
_KINDS = ("point", "convex", "lines", *_VACUOUS_KINDS)


@st.composite
def _bindings(draw, kinds=_KINDS):
    """Point masses (some from two distinct cdf points), convex ranges, flat
    line pairs that are not convex ranges, and line pairs, some of whose
    lines end exactly at cdf 0 or 1 on the far quantile bound; drawn from
    ``kinds``."""
    lo = draw(st.one_of(st.just(0.0), st.floats(-100.0, 100.0)))
    kind = draw(st.sampled_from(kinds))
    if kind == "point":
        return point_mass(lo)
    if kind == "split point":
        return _split_point(lo, draw(_levels))
    width = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e-6), st.floats(0.0, 100.0)))
    hi = lo + width
    if kind == "convex":
        return convex_interval(lo, hi)
    up_f, low_f = draw(_levels), draw(_levels)
    if kind == "flat":
        return _flat(lo, hi, up_f, low_f)
    up_s, low_s = draw(_slopes), draw(_slopes)
    # A width of a few ulps would give such lines an overflowing slope.
    if hi - lo > 1e-300 and draw(st.booleans()):
        up_s = (1.0 - up_f) / (hi - lo)
    if hi - lo > 1e-300 and draw(st.booleans()):
        low_s = low_f / (hi - lo)
    return PboxInterval(CdfPoint(lo, up_f, up_s), CdfPoint(hi, low_f, low_s))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, Inconsistent) as exc:
        return type(exc)


def _bits(outcome):
    """An outcome of ``_outcome`` with every float as its exact bits."""
    if isinstance(outcome, type):
        return outcome
    return tuple(v.hex() for p in (outcome.lo, outcome.hi) for v in (p.q, p.f, p.s))


def _sweep_operand(rng):
    """A point mass (plain or from two distinct cdf points), convex range,
    flat line pair that is not a convex range, envelope or pair of lines;
    some lie near the float range's end or have subnormal quantiles or
    slopes."""
    kind = rng.choice(("point", "split point", "convex", "flat", "envelope", "lines"))
    if kind == "envelope":
        return random_envelope(rng)
    roll = rng.random()
    if roll < 0.1:
        lo = rng.choice((-1.0, 1.0)) * rng.uniform(1e307, 1.7e308)
        hi = lo + abs(lo) * rng.choice((0.0, rng.uniform(0.0, 0.05)))
    elif roll < 0.2:
        lo = rng.choice((0.0, 5e-324, 1e-310))
        hi = lo + rng.choice((0.0, 1e-310, rng.uniform(0.0, 10.0)))
    else:
        lo = rng.choice((0.0, rng.uniform(-100.0, 100.0)))
        hi = lo + rng.choice((0.0, 1e-7, rng.uniform(0.0, 100.0)))
    levels = (*_EDGE_LEVELS, rng.random())
    if kind == "point":
        return point_mass(lo)
    if kind == "split point":
        return _split_point(lo, rng.choice(levels))
    if kind == "convex":
        return convex_interval(lo, hi)
    if kind == "flat":
        return _flat(lo, hi, rng.choice(levels), rng.choice(levels))
    slopes = (0.0, 5e-324, rng.uniform(0.0, 0.1), rng.uniform(0.0, 50.0))
    up_f, low_f = rng.choice(levels), rng.choice(levels)
    up_s, low_s = rng.choice(slopes), rng.choice(slopes)
    # Lines that end exactly at cdf 0 or 1 on the far bound.
    if hi - lo > 1e-300 and rng.random() < 0.4:
        up_s = (1.0 - up_f) / (hi - lo)
    if hi - lo > 1e-300 and rng.random() < 0.4:
        low_s = low_f / (hi - lo)
    return PboxInterval(CdfPoint(lo, up_f, up_s), CdfPoint(hi, low_f, low_s))


def combine_sweep(seed, n):
    """Checks ``combine_bindings`` against the three-branch reference bit for
    bit, or for the same exception type, on ``n`` seeded operand pairs.
    Returns how often each outcome type came up."""
    rng = random.Random(seed)
    seen = {}
    for _ in range(n):
        op = rng.choice(("add", "sub", "mul"))
        a, b = _sweep_operand(rng), _sweep_operand(rng)
        got = _bits(_outcome(combine_bindings, op, a, b))
        want = _bits(_outcome(_three_branch_combine_bindings, op, a, b))
        assert got == want, (op, a, b, got, want)
        kind = got.__name__ if isinstance(got, type) else "binding"
        seen[kind] = seen.get(kind, 0) + 1
    return seen


class TestCombineBindings:
    @given(
        st.sampled_from(["add", "sub", "mul"]),
        _bindings(_KINDS[:3]),
        _bindings(_KINDS[:3]),
    )
    @settings(max_examples=1500, deadline=None)
    def test_one_rule_matches_three_branches(self, op, a, b):
        # Subtraction as addition of the negated operand, and one loop for
        # the shifted and scaled copies, give the same binding bit for bit.
        assert _outcome(combine_bindings, op, a, b) == _outcome(
            _three_branch_combine_bindings, op, a, b
        )

    @given(
        st.sampled_from(["add", "sub", "mul"]),
        _bindings(_VACUOUS_KINDS),
        _bindings(),
        st.booleans(),
    )
    @settings(max_examples=500, deadline=None)
    def test_one_rule_matches_three_branches_on_flat_operands(self, op, a, b, swap):
        # Flat lines and point masses from distinct cdf points, against
        # every kind, on either side.
        if swap:
            a, b = b, a
        assert _outcome(combine_bindings, op, a, b) == _outcome(
            _three_branch_combine_bindings, op, a, b
        )

    def test_point_shift_is_exact(self):
        a = point_mass(5.0)
        b = random_envelope(random.Random(7))
        out = combine_bindings("add", a, b)
        assert out.lo == CdfPoint(5.0 + b.lo.q, b.lo.f, b.lo.s)
        assert out.hi == CdfPoint(5.0 + b.hi.q, b.hi.f, b.hi.s)

    def test_scalar_scaling_is_exact(self):
        rng = random.Random(11)
        b = random_envelope(rng)
        if b.lo.q <= 0:
            b = combine_bindings("add", point_mass(abs(b.lo.q) + 1.0), b)
        out = combine_bindings("mul", point_mass(2.0), b)
        assert out.lo.q == pytest.approx(2.0 * b.lo.q)
        assert out.lo.f == b.lo.f
        assert out.lo.s == pytest.approx(b.lo.s / 2.0)

    def test_degenerate_product(self):
        out = combine_bindings("mul", point_mass(0.0), convex_interval(1.0, 5.0))
        assert out == point_mass(0.0)

    def test_sum_of_envelopes_sound_and_exact_on_quantiles(self, rng):
        for _ in range(100):
            a = random_envelope(rng)
            b = random_envelope(rng)
            out = combine_bindings("add", a, b)
            assert check_dominance(out)
            assert out.lo.q == pytest.approx(a.lo.q + b.lo.q, abs=1e-9)
            assert out.hi.q == pytest.approx(a.hi.q + b.hi.q, abs=1e-9)

    def test_long_demand_chain_keeps_informative_lines(self):
        rng = random.Random(2)
        demands = generate_demand_observations(10, rng)
        from pboxcdf.pbox import empirical_cdf, envelope

        total = point_mass(0.0)
        for obs in demands:
            total = combine_bindings("add", total, envelope(empirical_cdf(obs)))
        mid = 0.5 * (total.lo.q + total.hi.q)
        f_low, f_up = project(total, mid)
        assert 0.0 < f_low <= f_up < 1.0

    def test_negative_product_falls_back_to_convex(self):
        a = convex_interval(-2.0, 3.0)
        b = convex_interval(1.0, 2.0)
        out = combine_bindings("mul", a, b)
        assert out.lo.f == 1.0 and out.lo.s == 0.0
        assert out.hi.f == 0.0 and out.hi.s == 0.0

    def test_unknown_op_is_named(self):
        with pytest.raises(ValueError, match="'div'"):
            combine_bindings("div", point_mass(1.0), convex_interval(1.0, 2.0))

    @pytest.mark.parametrize(
        "op, a, b",
        [
            ("add", point_mass(1e308), point_mass(1e308)),
            ("sub", convex_interval(-1e308, 0.0), convex_interval(0.0, 1e308)),
            ("mul", convex_interval(1.0, 1e200), convex_interval(1.0, 1e200)),
        ],
    )
    def test_overflowed_bounds_raise(self, op, a, b):
        assert _outcome(_three_branch_combine_bindings, op, a, b) is ValueError
        with pytest.raises(ValueError, match="overflowed"):
            combine_bindings(op, a, b)

    def test_overflowed_scaled_slope_is_dropped(self):
        # A subnormal factor scales the other line's slope past the float
        # range; that candidate is dropped and the binding stays sound.
        a = point_mass(5e-324)
        b = PboxInterval(CdfPoint(1.0, 0.2, 0.5), CdfPoint(3.0, 0.6, 0.5))
        out = combine_bindings("mul", a, b)
        assert check_dominance(out)
        assert out == convex_interval(5e-324, 1.5e-323)
        assert _bits(out) == _bits(_three_branch_combine_bindings("mul", a, b))

    def test_nan_levelwise_level_is_dropped(self):
        # A slope of 5e-324 makes the level-wise slope 0 and its level
        # 0 * inf; that candidate is dropped and b's shifted lines bind.
        a = PboxInterval(CdfPoint(0.0, 0.7, 5e-324), CdfPoint(2.0, 0.6, 0.5))
        b = PboxInterval(CdfPoint(1.0, 0.2, 0.5), CdfPoint(3.0, 0.6, 0.5))
        assert check_dominance(a) and check_dominance(b)
        out = combine_bindings("add", a, b)
        assert check_dominance(out)
        assert out.lo == CdfPoint(1.0, 0.2, 0.5)
        assert _bits(out) == _bits(_three_branch_combine_bindings("add", a, b))

    def test_conflicting_lines_fall_back_to_convex(self):
        # Both operands keep dominance, but their level-wise lines are
        # parallel and cross: the binding has no cdf knowledge.
        a = PboxInterval(CdfPoint(2.0, 1.0, 1.0), CdfPoint(3.0, 1.0, 0.25))
        b = PboxInterval(CdfPoint(0.0, 0.0, 0.25), CdfPoint(2.0, 0.25, 1.0))
        assert check_dominance(a) and check_dominance(b)
        want = _three_branch_combine_bindings("add", a, b)
        assert want == convex_interval(2.0, 5.0)
        assert _bits(combine_bindings("add", a, b)) == _bits(want)

    def test_matches_three_branches_on_a_seeded_sweep(self):
        # A larger sweep runs in CI: combine_sweep(1, 50_000).
        seen = combine_sweep(19, 4500)
        assert seen["binding"] > 2250 and seen["ValueError"] > 110


def _vacuous_term(rng):
    """A point mass (plain or with a lower level of 0) or a convex range,
    some near the float range's end."""
    big = rng.random() < 0.2
    if big:
        lo = rng.choice((-1.0, 1.0)) * rng.uniform(1e307, 1.6e308)
    else:
        lo = rng.choice((0.0, rng.uniform(-100.0, 100.0)))
    kind = rng.choice(("point", "split point", "convex"))
    if kind == "point":
        return point_mass(lo)
    if kind == "split point":
        return _split_point(lo, 0.0)
    if big:
        return convex_interval(lo, lo + abs(lo) * rng.uniform(0.0, 0.05))
    return convex_interval(lo, lo + rng.choice((1e-7, rng.uniform(0.0, 100.0))))


class TestSumBinding:
    def test_vacuous_terms_fold_like_the_reference(self):
        # The float fold equals the stepwise fold of the reference rule bit
        # for bit, overflows included.
        rng = random.Random(26)
        seen = set()
        for _ in range(2000):
            terms = [_vacuous_term(rng) for _ in range(rng.randint(2, 9))]
            assert all(map(is_vacuous, terms))
            got = _bits(_outcome(inventory._sum_binding, terms))
            want = terms[0]
            for term in terms[1:]:
                want = _outcome(_three_branch_combine_bindings, "add", want, term)
                if want is ValueError:
                    break
            assert got == _bits(want), terms
            seen.add(got if got is ValueError else "point" if got[0] == got[3] else "range")
        assert seen == {ValueError, "point", "range"}

    def test_overflowing_vacuous_sum_raises(self):
        terms = [point_mass(1.0), convex_interval(0.0, 1e308), convex_interval(0.0, 1e308)]
        with pytest.raises(ValueError, match="overflowed"):
            inventory._sum_binding(terms)


def _model(inputs, schedule, order_sizes=None):
    """``build_model``'s network, or with ``order_sizes`` the network of the
    bindings with orders pinned to them, forked over the horizon's topology
    as ``build_model`` forks its own."""
    if order_sizes is None:
        return build_model(inputs, schedule)
    network, mv = inventory._network(inputs.inst.horizon)
    return network.fork(inventory._bindings(inputs, schedule, order_sizes)), mv


class TestBuildModel:
    def test_single_cycle_nonnegativity_prunes_orders(self):
        inst = scalar_instance(1, [5.0], x_max=10.0)
        store, mv = build_model(model_inputs(inst), [True])
        assert store.propagate() == CONSISTENT
        order = store.domains[mv.order[0]]
        stock = store.domains[mv.stock[0]]
        assert order.lo.q == pytest.approx(5.0)
        assert order.hi.q == pytest.approx(10.0)
        assert stock.lo.q == pytest.approx(0.0)
        assert stock.hi.q == pytest.approx(5.0)

    def test_integer_flags_decide_like_booleans(self):
        # 0 and 1 decide a cycle as False and True do.
        inputs = model_inputs(default_instance(3, 7))
        flags = [True, False, True]
        sizes = robust_order_sizes(inputs, flags)
        for order_sizes in (None, sizes):
            stores = [
                _model(inputs, schedule, order_sizes)[0] for schedule in (flags, [1, 0, 1])
            ]
            assert stores[0].domains == stores[1].domains
            assert stores[0].propagate() == stores[1].propagate() == CONSISTENT
            assert stores[0].domains == stores[1].domains

    def test_all_idle_with_demand_fails(self):
        inst = scalar_instance(3, [5.0, 5.0, 5.0])
        store, _ = build_model(model_inputs(inst), [False, False, False])
        assert store.propagate() == FAILED

    def test_ten_cycle_means_order_total(self):
        demands = [26.0, 36.0, 23.0, 28.0, 32.0, 30.0, 29.0, 37.0, 25.0, 34.0]
        inst = scalar_instance(10, demands, a=100.0, x_max=100.0)
        result = search(inst)
        assert result.status == "optimal"
        total = sum(c.order.lo.q for c in result.best.cycles)
        assert total == pytest.approx(300.0, abs=1e-6)
        assert result.best.tc.lo.q == result.best.tc.hi.q

    def test_flow_conservation_for_scalar_inputs(self):
        demands = [26.0, 36.0, 23.0, 28.0, 32.0, 30.0]
        inst = scalar_instance(6, demands, i0=10.0, x_max=90.0)
        report = evaluate_schedule(inst, [True, False, True, False, True, False])
        assert report is not None
        ordered = sum(c.order.lo.q for c in report.cycles)
        final = report.cycles[-1].stock
        assert final.lo.q == pytest.approx(final.hi.q, abs=1e-9)
        assert final.lo.q == pytest.approx(
            10.0 + ordered - sum(demands), abs=1e-6
        )

    def test_every_covered_schedule_is_feasible(self):
        # Pinned covering sizes can leave the final stock or the order total
        # a rounding ulp outside the build's cut-offs; that must not reject.
        rng = random.Random(1618)
        instances = [random_scalar_instance(rng) for _ in range(60)]
        instances.append(default_instance(7, 0))
        covered = 0
        for inst in instances:
            inputs = model_inputs(inst)
            for flags in product((False, True), repeat=inst.horizon):
                if robust_order_sizes(inputs, flags) is None:
                    continue
                covered += 1
                assert evaluate_schedule(inst, flags) is not None, (inst, flags)
        assert covered > 500

    def test_scalar_cost_matches_closed_form(self):
        # With scalar inputs and pinned sizes every quantity is a number, so
        # the total cost is a*k + h*sum(stock_t) + v*sum(x_t), with stock_t
        # the end-of-cycle stock, computed here without the network.
        rng = random.Random(1618)
        covered = 0
        for inst in (random_scalar_instance(rng) for _ in range(60)):
            inputs = model_inputs(inst)
            for flags in product((False, True), repeat=inst.horizon):
                sizes = robust_order_sizes(inputs, flags)
                if sizes is None:
                    continue
                covered += 1
                stocks, stock = [], inst.initial_stock
                for x, d in zip(sizes, inst.demands):
                    stock += x - d
                    stocks.append(max(stock, 0.0))
                expected = (
                    inst.ordering_cost * sum(flags)
                    + inst.holding_cost * math.fsum(stocks)
                    + inst.unit_cost * math.fsum(sizes)
                )
                tc = evaluate_schedule(inst, flags).tc
                for q in (tc.lo.q, tc.hi.q):
                    assert abs(q - expected) <= 8 * 2**-52 * expected, (inst, flags, q)
        assert covered == 610

    def test_invalid_instances_rejected(self):
        with pytest.raises(ValueError):
            scalar_instance(0, [])
        with pytest.raises(ValueError):
            scalar_instance(2, [1.0])
        with pytest.raises(ValueError):
            scalar_instance(1, [1.0], a=-5.0)
        with pytest.raises(ValueError):
            scalar_instance(1, [1.0], i0=-1.0)
        with pytest.raises(ValueError):
            scalar_instance(1, [1.0], x_min=10.0, x_max=5.0)

    @pytest.mark.parametrize("mode", ["pbox", "convex"])
    def test_every_variable_but_tc_feeds_a_constraint(self, mode):
        # A variable that only ever appears as a constraint's result is a
        # sink: it prunes nothing and costs a binding and wakes per build.
        inst = default_instance(7, 42)
        inputs = model_inputs(inst, mode)
        decided = search(inst, mode=mode).best.schedule
        for schedule, sizes in (
            ([True] * 7, None),
            (decided, None),
            (decided, robust_order_sizes(inputs, decided)),
        ):
            store, mv = _model(inputs, schedule, sizes)
            assert store.status == CONSISTENT
            assert {c.kind for c in store.constraints} <= {"add", "sub", "mul"}
            read = {vid for c in store.constraints for vid in c.args[:-1]}
            unread = [
                store.names[vid]
                for vid in range(len(store.domains))
                if vid not in read and vid != mv.tc
            ]
            assert unread == [], (schedule, sizes)
        # Per cycle, demand, order, supply and stock, one supply sum and one
        # stock balance; the order, stock and 3-term total-cost sums over
        # one ordering-cost constant; holding priced once on the total stock
        # and purchase once on the total orders: 4n + 9 variables.
        every, _ = build_model(inputs, [True] * 7)
        kinds = [c.kind for c in every.constraints]
        assert len(every.domains) == 37
        assert (kinds.count("add"), kinds.count("sub"), kinds.count("mul")) == (7 + 3, 7, 2)
        assert [every.names[vid] for vid in every.constraints[-1].args] == [
            "total_ordering", "total_holding", "total_purchase", "total_cost"
        ]
        long, _ = build_model(model_inputs(default_instance(24, 42), mode), [True] * 24)
        assert (len(long.domains), len(long.constraints)) == (105, 53)

    def test_growing_one_network_leaves_the_next_build_unchanged(self):
        # Every network of a horizon is forked from the one topology that the
        # process keeps for it, so a variable or constraint added to a built
        # store, or to its clone, must not reach the next build.
        inputs = model_inputs(default_instance(5, 3))
        schedule = [True, False, True, False, True]
        first, mv = build_model(inputs, schedule)
        names, constraints = list(first.names), list(first.constraints)
        watchers = [list(w) for w in first._watchers]
        twin = first.clone()
        first.post(Constraint("add", (mv.holding, mv.tc, mv.tc)))
        extra = twin.new_var(point_mass(1.0), name="extra")
        twin.post(Constraint("add", (mv.order[0], extra, mv.tc)))
        grown, grown_mv = build_model(inputs, schedule)
        build_model(inputs, schedule)[0].clone().new_var(point_mass(2.0), name="other")
        for store in (grown, build_model(inputs, schedule)[0]):
            assert store.names == names
            assert store.constraints == constraints
            assert store._watchers == watchers
        assert grown_mv == mv
        # The forked store propagates as a build from fresh inputs does.
        fresh, _ = build_model(model_inputs(default_instance(5, 3)), schedule)
        assert grown.propagate() == fresh.propagate() == CONSISTENT
        assert grown.domains == fresh.domains
        assert grown.stats == fresh.stats

    def test_one_topology_per_horizon(self):
        # Networks of one horizon share the process's one topology, whatever
        # the instance; another horizon has its own, and the memo is bounded.
        schedule = [True, False, True, False, True]
        first, _ = build_model(model_inputs(default_instance(5, 3)), schedule)
        second, _ = build_model(model_inputs(default_instance(5, 4)), schedule)
        assert first.constraints is second.constraints
        other, _ = build_model(model_inputs(default_instance(6, 3)), [True] * 6)
        assert other.constraints is not first.constraints
        for horizon in range(30, 50):
            build_model(model_inputs(default_instance(horizon, 0)), [True] * horizon)
        assert inventory._network.cache_info().currsize <= 16

    def test_early_failures_build_failed_stores(self):
        # The first cycle's stock cannot reach 0: it has demand and no order.
        inst = scalar_instance(2, [5.0, 5.0])
        stock_below_zero, _ = build_model(model_inputs(inst), [False, True])
        # Each cycle's stock binding can reach 0, but the order caps cannot
        # cover the worst-case total demand.
        wide = convex_interval(1.0, 10.0)
        inst = scalar_instance(2, [wide, wide], x_max=6.0)
        orders_short, _ = build_model(model_inputs(inst), [True, True])
        for store in (stock_below_zero, orders_short):
            assert store.propagate() == FAILED

    def test_single_cycle_sums_are_their_own_terms(self):
        inst = scalar_instance(1, [5.0], x_max=10.0)
        store, mv = build_model(model_inputs(inst), [True])
        assert store.names == [
            "h", "v", "stock0", "demand1", "order1", "supply1", "stock1",
            "total_ordering", "total_holding", "total_purchase", "total_cost",
        ]
        assert store.constraints == [
            Constraint("add", (2, 4, 5)),
            Constraint("sub", (5, 3, 6)),
            Constraint("mul", (0, 6, 8)),
            Constraint("mul", (1, 4, 9)),
            Constraint("add", (7, 8, 9, 10)),
        ]
        assert mv == ModelVars(
            order=(4,), stock=(6,), demand=(3,), total_orders=4, ordering=7, tc=10, holding=8
        )

    def test_every_domain_passes_dominance_after_propagation(self, rng):
        inst = default_instance(6, 13)
        store, _ = build_model(model_inputs(inst), [True] * 6)
        assert store.propagate() == CONSISTENT
        for dom in store.domains:
            assert check_dominance(dom)


class TestRobustOrderSizes:
    def test_covers_worst_case_with_latest_allocation(self):
        inst = scalar_instance(3, [10.0, 10.0, 10.0], x_max=25.0)
        sizes = robust_order_sizes(model_inputs(inst), [True, False, True])
        assert sizes == [20.0, 0.0, 10.0]

    def test_cap_overflow_spills_to_earlier_order(self):
        inst = scalar_instance(3, [10.0, 10.0, 30.0], x_max=35.0)
        sizes = robust_order_sizes(model_inputs(inst), [True, True, False])
        assert sizes is not None
        assert sizes[1] == pytest.approx(35.0)
        assert sizes[0] == pytest.approx(15.0)

    def test_initial_stock_serves_earliest_demand(self):
        inst = scalar_instance(2, [10.0, 10.0], i0=15.0, x_max=30.0)
        sizes = robust_order_sizes(model_inputs(inst), [False, True])
        assert sizes == [0.0, 5.0]

    def test_uncoverable_returns_none(self):
        inst = scalar_instance(2, [10.0, 50.0], x_max=30.0)
        assert robust_order_sizes(model_inputs(inst), [True, False]) is None

    def test_minimum_order_bump(self):
        inst = scalar_instance(2, [10.0, 0.5], i0=12.0, x_min=2.0, x_max=30.0)
        sizes = robust_order_sizes(model_inputs(inst), [False, True])
        assert sizes == [0.0, 2.0]


def _brute_force(inst, mode="pbox"):
    """Enumerate all schedules with the same evaluator as the search."""
    best_key = None
    best = None
    for flags in product((False, True), repeat=inst.horizon):
        report = evaluate_schedule(inst, flags, mode)
        if report is None:
            continue
        key = (report.tc.lo.q, report.replenishments, flags)
        if best_key is None or key < best_key:
            best_key, best = key, report
    return best_key, best


def _bound_instance(rng, max_horizon):
    """A random instance of horizon 3 to ``max_horizon``: x_max in [60, 150],
    x_min 1 or 20, initial stock 0 or up to 75, scalar costs or (about a
    third of the time) observed ones, and scalar or observed demands."""
    n = rng.randint(3, max_horizon)
    observed = rng.random() < 0.3

    def observations(lo, hi, k):
        return ObservationSet(
            tuple(sorted((rng.uniform(lo, hi), rng.randint(1, 4)) for _ in range(k)))
        )

    def cost(lo, hi):
        return observations(lo, hi, rng.randint(2, 4)) if observed else rng.uniform(lo, hi)

    return InventoryInstance(
        horizon=n,
        ordering_cost=cost(20.0, 300.0),
        holding_cost=cost(0.1, 4.0),
        unit_cost=cost(0.5, 8.0),
        demands=tuple(
            observations(5.0, 90.0, 3) if rng.random() < 0.5 else rng.uniform(5.0, 90.0)
            for _ in range(n)
        ),
        initial_stock=rng.choice([0.0, rng.uniform(0.0, 75.0)]),
        x_min=rng.choice([1.0, 20.0]),
        x_max=rng.uniform(60.0, 150.0),
    )


def _uncertain_cost(rng, kind, lo, hi):
    """A cost in [lo, hi] of ``kind``: 0 a scalar, 1 an observation set, 2 a
    convex range, 3 a p-box whose two lines reach their clip levels inside
    its range."""
    if kind == 0:
        return rng.uniform(lo, hi)
    if kind == 1:
        return ObservationSet(
            tuple(sorted((rng.uniform(lo, hi), rng.randint(1, 4)) for _ in range(rng.randint(2, 4))))
        )
    a, b = sorted(rng.uniform(lo, hi) for _ in range(2))
    if kind == 2:
        return convex_interval(a, b)
    up_f, low_f = rng.uniform(0.0, 0.6), rng.uniform(0.4, 1.0)
    up = CdfPoint(a, up_f, (1.0 - up_f) / (b - a) * rng.uniform(1.0, 3.0))
    low = CdfPoint(b, low_f, low_f / (b - a) * rng.uniform(1.0, 3.0))
    return repair_dominance(PboxInterval(up, low))


def cost_instance(rng, min_horizon, max_horizon):
    """A random instance of horizon ``min_horizon`` to ``max_horizon`` whose
    ordering, holding and unit costs are scalars, observation sets, convex
    ranges or p-boxes, at least one of them uncertain; demands are scalar
    or observed and at most x_max, so ordering in every cycle covers them;
    initial stock is 0 or up to 75 about as often."""
    n = rng.randint(min_horizon, max_horizon)
    kinds = [rng.randrange(4) for _ in range(3)]
    if not any(kinds):
        kinds[rng.randrange(3)] = rng.randint(1, 3)
    return InventoryInstance(
        horizon=n,
        ordering_cost=_uncertain_cost(rng, kinds[0], 20.0, 300.0),
        holding_cost=_uncertain_cost(rng, kinds[1], 0.1, 4.0),
        unit_cost=_uncertain_cost(rng, kinds[2], 0.5, 8.0),
        demands=tuple(
            ObservationSet(tuple(sorted((rng.uniform(5.0, 60.0), rng.randint(1, 4)) for _ in range(3))))
            if rng.random() < 0.5
            else rng.uniform(5.0, 60.0)
            for _ in range(n)
        ),
        initial_stock=rng.choice([0.0, rng.uniform(0.0, 75.0)]),
        x_min=rng.choice([1.0, 20.0]),
        x_max=rng.uniform(60.0, 150.0),
    )


def cost_sweep(seed, instances, max_horizon):
    """Checks, on ``instances`` random instances with uncertain costs
    (:func:`cost_instance`, from h2), under both models in turn, that the
    search's winner is the least ``(tc.lo.q, replenishments, schedule)`` of
    an exhaustive enumeration by ``evaluate_schedule`` and that its report
    is that schedule's evaluation; returns the schedules evaluated."""
    rng = random.Random(seed)
    evaluated = 0
    for k in range(instances):
        inst = cost_instance(rng, 2, max_horizon)
        mode = MODES[k % 2]
        key, report = _brute_force(inst, mode)
        evaluated += 2**inst.horizon
        best = search(inst, mode).best
        assert (best.tc.lo.q, best.replenishments, best.schedule) == key, (inst, mode)
        assert dataclasses.replace(best, wall_time_s=0.0) == dataclasses.replace(
            report, wall_time_s=0.0
        ), (inst, mode)
    return evaluated


def _prefix_bounds(inst, mode="pbox"):
    """``({prefix: (bound, best)}, winner)`` over the whole schedule tree: the
    search's lot-sizing bound and the least resolved ``tc.lo.q`` of the
    prefix's completions, inf when the caps cover none of them; and the
    least ``(tc.lo.q, replenishments, schedule)`` of all leaves, None when
    none is covered.  Also checks that a leaf is covered (its served state
    is not None) exactly when it resolves, and that a covered leaf's scalar
    cost lies within half the search's margin of its resolved ``tc.lo.q``:
    the near-ties the search resolves then hold the winner.  And that a
    covered leaf's pinned network propagates to a consistent fixpoint whose
    ``tc``, ``holding`` and per-cycle domains are ``_resolve``'s bindings,
    bit for bit."""
    inputs = model_inputs(inst, mode)
    searcher = inventory._Searcher(inputs)
    served = served_states(searcher, inst.horizon)
    best = {}
    winner = None
    for flags in product((False, True), repeat=inst.horizon):
        fields = inventory._resolve(inputs, flags)
        assert (served[flags] is None) == (fields is None), (inst, flags)
        best[flags] = math.inf if fields is None else fields["tc"].lo.q
        if fields is not None:
            gap = abs(searcher._leaf_cost(served[flags]) - best[flags])
            assert gap <= searcher._margin / 2, (inst, flags, gap, searcher._margin)
            store, mv = _model(inputs, flags, robust_order_sizes(inputs, flags))
            assert store.propagate() == CONSISTENT, (inst, flags)
            d = store.domains
            fixpoint = [d[mv.tc], d[mv.holding]]
            fixpoint += [d[v] for cycle in zip(mv.order, mv.stock, mv.demand) for v in cycle]
            bindings = [fields["tc"], fields["holding"]]
            bindings += [dom for c in fields["cycles"] for dom in (c.order, c.stock, c.demand)]
            assert [_bits(x) for x in fixpoint] == [_bits(x) for x in bindings], (inst, flags)
            key = (best[flags], sum(flags), flags)
            winner = key if winner is None else min(winner, key)
    for depth in range(inst.horizon - 1, -1, -1):
        for flags in product((False, True), repeat=depth):
            best[flags] = min(best[flags + (False,)], best[flags + (True,)])
    bounds = {path: (searcher._node_bound(served[path]), b) for path, b in best.items()}
    return bounds, winner


def served_states(searcher, horizon):
    """The search's served state of every prefix of the schedule tree, each
    extended from its parent's as the search extends it; None once a cycle
    is left uncovered."""
    states = {(): searcher._root}
    for depth in range(horizon):
        for path in product((False, True), repeat=depth):
            parent = states[path]
            for flag in (False, True):
                states[path + (flag,)] = None if parent is None else searcher._served(parent, flag)
    return states


def served_sweep(seed, instances, max_horizon):
    """Checks, on every prefix of ``instances`` random instances (the same
    ones as ``bound_sweep`` with the same arguments), that the served state
    the search carries down its tree equals a serving of the whole prefix by
    ``_serve_latest_first``, bit for bit; returns the prefixes compared."""
    rng = random.Random(seed)
    compared = 0
    for k in range(instances):
        inst = _bound_instance(rng, max_horizon)
        inputs = model_inputs(inst, MODES[k % 2])
        for path, served in served_states(inventory._Searcher(inputs), inst.horizon).items():
            whole = inventory._serve_latest_first(inputs, path)
            if whole is None:
                assert served is None, (inst, path)
            else:
                _, spare, stock, holding = whole
                points = tuple(t for t, flag in enumerate(path) if flag)
                want = (points, [x.hex() for x in spare], stock.hex(), holding.hex())
                got = (served[0], [x.hex() for x in served[1]], served[2].hex(), served[3].hex())
                assert got == want, (inst, path)
            compared += 1
    return compared


def bound_sweep(seed, instances, max_horizon):
    """Checks the search's bound on every prefix of ``instances`` random
    instances, under both models in turn: it never exceeds the best
    completion, it is infinite exactly where no completion is covered, and
    it comes within 1e-6 of the best completion on at least a third of the
    undecided prefixes that have one.  Also checks that the search returns
    the enumerated winner, or ``infeasible`` when no leaf is covered, and
    (by ``_prefix_bounds``) that every covered leaf's scalar cost lies
    within half the search's margin of its resolved cost, and that its
    resolved domains equal its propagated pinned network's."""
    rng = random.Random(seed)
    tight = undecided = 0
    for k in range(instances):
        inst = _bound_instance(rng, max_horizon)
        bounds, winner = _prefix_bounds(inst, MODES[k % 2])
        result = search(inst, MODES[k % 2])
        if winner is None:
            assert result.status == "infeasible", inst
        else:
            best = result.best
            found = (best.tc.lo.q, best.replenishments, best.schedule)
            assert found == winner, (inst, found, winner)
        for path, (bound, best) in bounds.items():
            assert bound <= best, (inst, path, bound, best)
            assert (bound == math.inf) == (best == math.inf), (inst, path, bound)
            if len(path) < inst.horizon and best < math.inf:
                undecided += 1
                tight += best - bound <= 1e-6
    assert 3 * tight >= undecided, (tight, undecided)
    return tight, undecided


class TestNodeBound:
    def test_admissible_and_tight_on_random_instances(self):
        # A larger sweep runs in CI: bound_sweep(1, 1000, 9).
        tight, undecided = bound_sweep(15, 400, 7)
        assert undecided > 1000

    def test_carried_state_matches_serving_the_whole_path(self):
        # A larger sweep runs in CI: served_sweep(1, 1000, 12).
        assert served_sweep(15, 400, 7) > 20_000

    def test_overflow_goes_back_to_the_earlier_order(self):
        # Worst demands 52, 52, 52 under x_max 100: orders at cycles 1 and 2
        # serve them for 2 * 250 plus 56 * 2 holding (4 units carried from
        # cycle 1, 52 from cycle 2), so three orders (750) is no floor.
        inst = scalar_instance(3, [52.0] * 3, a=250.0, h=2.0, v=5.5, x_max=100.0)
        bounds, _ = _prefix_bounds(inst)
        for bound, best in bounds.values():
            assert bound <= best
        bound, best = bounds[()]
        assert best == pytest.approx(500.0 + 112.0 + 5.5 * 156.0)
        assert best - bound <= 1e-6

    def test_worst_demands_add_left_to_right(self):
        # The bound and the orders floor add floats as sum() did before
        # Python 3.12, whose compensated sum() gives 1.0 here.
        assert inventory._left_sum([0.1] * 10) == 0.9999999999999999
        assert inventory._left_sum([]) == 0.0


class TestSearch:
    def test_two_schedules_exhaustive(self):
        inst = scalar_instance(1, [5.0], x_max=10.0)
        result = search(inst)
        key, _ = _brute_force(inst)
        assert result.status == "optimal"
        assert result.best.tc.lo.q == key[0]
        assert result.best.schedule == key[2]

    def test_three_cycle_oracle(self):
        rng = random.Random(5)
        for _ in range(25):
            demands = [rng.uniform(2.0, 30.0) for _ in range(3)]
            inst = scalar_instance(
                3,
                demands,
                a=rng.uniform(20.0, 200.0),
                h=rng.uniform(0.2, 4.0),
                v=rng.uniform(0.5, 6.0),
                i0=rng.choice([0.0, rng.uniform(0.0, 15.0)]),
                x_max=rng.uniform(35.0, 80.0),
            )
            key, _ = _brute_force(inst)
            result = search(inst)
            if key is None:
                assert result.status == "infeasible"
                continue
            assert result.status == "optimal"
            assert result.best.tc.lo.q == key[0]
            assert (result.best.tc.lo.q, result.best.replenishments, result.best.schedule) == key

    def test_infeasible_instance_reports_infeasible(self):
        inst = scalar_instance(2, [50.0, 50.0], x_max=20.0)
        result = search(inst)
        assert result.status == "infeasible"
        assert result.best is None
        assert set(result.stats.values()) == {0}

    def test_reports_carry_no_frontier(self):
        # The visited leaves depend on what the bound pruned, so neither the
        # search result nor a bench row lists them.
        assert "frontier" not in search(default_instance(7, 42)).to_dict()
        assert "frontier" not in run_benchmark([5], seed=7)["rows"][0]

    def test_ten_cycle_seeded_instance_plausible_schedule(self):
        # Replenishment counts in the mid single digits are the expected
        # regime for these cost ratios; the exact count is data-dependent.
        result = search(default_instance(10, 42))
        assert result.status == "optimal"
        assert 2 <= result.best.replenishments <= 8

    def test_observed_costs_search_end_to_end(self):
        # Cost components given as raw observations get enveloped too.
        unit_cost = ObservationSet.from_pairs(
            [(5.17, 4), (5.5, 16), (5.9, 12), (6.36, 8)]
        )
        ordering = ObservationSet.from_pairs([(220.0, 2), (250.0, 5), (280.0, 3)])
        inst = InventoryInstance(
            horizon=4,
            ordering_cost=ordering,
            holding_cost=2.0,
            unit_cost=unit_cost,
            demands=tuple(generate_demand_observations(4, random.Random(8))),
            initial_stock=0.0,
            x_min=1.0,
            x_max=90.0,
        )
        result = search(inst)
        assert result.status == "optimal"
        best = result.best
        assert best.tc.lo.q < best.tc.hi.q
        assert check_dominance(best.tc)
        convex = evaluate_schedule(inst, best.schedule, mode="convex")
        assert convex.tc_hull.lo.q <= best.tc_hull.lo.q + 1e-9
        assert best.tc_hull.hi.q <= convex.tc_hull.hi.q + 1e-9

    def test_zero_costs_give_zero_tc(self):
        inst = scalar_instance(3, [5.0, 6.0, 7.0], a=0.0, h=0.0, v=0.0, x_max=30.0)
        for flags in product((False, True), repeat=3):
            report = evaluate_schedule(inst, flags)
            if report is None:
                continue
            assert report.tc.lo.q == pytest.approx(0.0, abs=1e-9)
            assert report.tc.hi.q == pytest.approx(0.0, abs=1e-9)

    def test_each_demand_is_enveloped_once_per_search(self, monkeypatch):
        # The inputs are normalised once per search, not at every build.
        calls = []
        real_envelope = inventory.envelope

        def counting_envelope(cdf):
            calls.append(cdf)
            return real_envelope(cdf)

        monkeypatch.setattr(inventory, "envelope", counting_envelope)
        result = search(default_instance(7, 42))
        assert result.nodes > 1
        assert len(calls) <= 7

    def test_unknown_mode_rejected(self):
        # The schedule covers no demand, so an unchecked mode would come back
        # as an infeasible schedule instead of an error.
        inst = default_instance(3, 0)
        with pytest.raises(ValueError, match="bogus"):
            evaluate_schedule(inst, [False] * 3, mode="bogus")
        with pytest.raises(ValueError, match="bogus"):
            search(inst, mode="bogus")
        with pytest.raises(ValueError, match="bogus"):
            run_benchmark([3], seed=0, model="bogus")

    def test_each_leaf_is_resolved_once(self, monkeypatch):
        # Only the near-ties cost a pinned network, one each; the winner's
        # report reuses its own.
        resolved, evaluated = [], []
        real_resolve = inventory._resolve
        real_evaluate = inventory.evaluate_schedule

        def counting_resolve(inputs, schedule):
            resolved.append(tuple(schedule))
            return real_resolve(inputs, schedule)

        def counting_evaluate(inst, schedule, mode="pbox"):
            evaluated.append(tuple(schedule))
            return real_evaluate(inst, schedule, mode)

        monkeypatch.setattr(inventory, "_resolve", counting_resolve)
        monkeypatch.setattr(inventory, "evaluate_schedule", counting_evaluate)
        result = search(default_instance(7, 1))
        assert result.best is not None
        assert evaluated == []
        assert result.best.schedule in resolved
        assert len(resolved) == len(set(resolved))

    @pytest.mark.parametrize("seed", [3, 7])
    def test_nodes_count_the_bounds_computed(self, monkeypatch, seed):
        # The search walks the tree once: every node's bound is computed
        # once and counted, every node but the root is served once, and
        # every leaf is re-solved at most once.  A node is named by its depth
        # and order points, taken from its parent's state when it is served,
        # since an uncovered child's state is None; the search bounds its
        # children in the order it serves them.
        bounds, resolved = [], []
        served_calls = 0
        named = [(0, ())]
        real_bound = inventory._Searcher._node_bound
        real_served = inventory._Searcher._served
        real_resolve = inventory._resolve

        def counting_bound(self, served):
            bounds.append(named.pop(0))
            return real_bound(self, served)

        def counting_served(self, served, flag):
            nonlocal served_calls
            served_calls += 1
            points, spare = served[0], served[1]
            t = len(spare)
            named.append((t + 1, (*points, t) if flag else points))
            return real_served(self, served, flag)

        def counting_resolve(inputs, schedule):
            resolved.append(tuple(schedule))
            return real_resolve(inputs, schedule)

        monkeypatch.setattr(inventory._Searcher, "_node_bound", counting_bound)
        monkeypatch.setattr(inventory._Searcher, "_served", counting_served)
        monkeypatch.setattr(inventory, "_resolve", counting_resolve)
        result = search(default_instance(24, seed))
        assert result.status == "optimal"
        assert result.nodes == len(bounds) == len(set(bounds))
        assert served_calls == result.nodes - 1
        assert len(resolved) == len(set(resolved))

    @pytest.mark.parametrize("mode", MODES)
    def test_near_ties_pick_the_least_resolved_key(self, monkeypatch, mode):
        # Seven covered leaves tie exactly at the least cost.  The search
        # resolves those seven alone, once each, and its winner is the least
        # (tc.lo.q, replenishments, schedule) over every leaf resolved.
        inst = tied_instance()
        _, winner = _prefix_bounds(inst, mode)
        resolved = []
        real_resolve = inventory._resolve

        def counting_resolve(inputs, schedule):
            resolved.append(tuple(schedule))
            return real_resolve(inputs, schedule)

        monkeypatch.setattr(inventory, "_resolve", counting_resolve)
        best = search(inst, mode).best
        assert (best.tc.lo.q, best.replenishments, best.schedule) == winner
        assert len(resolved) == len(set(resolved)) == 7

    @pytest.mark.parametrize("mode", MODES)
    def test_every_cycle_ordering_at_h1000(self, mode):
        # Demand meets the order cap in every cycle, so every cycle orders:
        # the walk goes down one path 1 000 cycles deep, as deep as Python's
        # default recursion limit.
        result = search(InventoryInstance.from_file(FORCED_H1000), mode)
        assert result.status == "optimal"
        assert result.nodes == 2001
        assert result.best.replenishments == 1000

    def test_h24_seed_spread_models_agree(self):
        # Both models pick the same schedule over the same search tree at
        # h24 under every seed from 0 to 9, in 49-65 nodes each (6 857-46 461
        # with the span bound the lot-sizing bound replaced).
        for seed in range(10):
            inst = default_instance(24, seed)
            pbox, convex = search(inst, mode="pbox"), search(inst, mode="convex")
            assert pbox.status == convex.status == "optimal"
            assert pbox.best.schedule == convex.best.schedule
            assert pbox.nodes == convex.nodes <= 100

    def test_results_match_golden_h7_to_h12(self):
        # search(...).to_dict() at h7, h10 and h12 under seeds 0-4 and both
        # models, node counts and store counters included, stored as JSON
        # (which round-trips floats exactly); wall times are left out.
        golden = Path(__file__).parent / "data" / "search_best_h7_h12.json"
        for row in json.loads(golden.read_text()):
            result = search(default_instance(row["horizon"], row["seed"]), row["model"])
            assert strip_keys(result.to_dict(), ("wall_time_s",)) == row["result"], row

    def test_winners_match_golden_beyond_h24(self):
        # Schedules and resolved total-cost lower bounds of the h48 and h96
        # winners under both models, stored as JSON (which round-trips
        # floats exactly).
        golden = Path(__file__).parent / "data" / "search_winners_h48_h96.json"
        for row in json.loads(golden.read_text()):
            best = search(default_instance(row["horizon"], row["seed"]), row["model"]).best
            assert "".join(str(int(flag)) for flag in best.schedule) == row["schedule"], row
            assert best.tc.lo.q == row["tc_lo"], row

    @pytest.mark.parametrize("mode", ["pbox", "convex"])
    def test_winners_match_golden_at_h384(self, mode):
        # Schedules, resolved total costs and relaxed (tc_hull) total costs
        # of the h384 winners; tc_hull is the fixpoint of a network with two
        # 384-term sums.  CI also checks the h500 row: winner_golden_rows(500).
        assert winner_golden_rows(384, mode) == 4

    def test_winners_match_golden_with_uncertain_costs(self):
        # Observation-set, convex-range and p-box costs make the ordering
        # cost an uncertain sum over the orders placed, which scalar costs
        # never exercise.
        assert cost_golden_rows() == 80

    def test_winners_match_enumeration_with_uncertain_costs(self):
        # A larger sweep runs in CI: cost_sweep(1, 300, 8).
        assert cost_sweep(29, 40, 6) > 500

    @pytest.mark.parametrize("mode", ["pbox", "convex"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 42])
    def test_best_matches_its_evaluation(self, mode, seed):
        inst = default_instance(6 + seed % 3, seed)
        best = search(inst, mode=mode).best
        report = evaluate_schedule(inst, best.schedule, mode=mode)
        assert dataclasses.replace(best, wall_time_s=0.0) == dataclasses.replace(
            report, wall_time_s=0.0
        )


class TestInstanceIO:
    def test_round_trip_with_observations(self, tmp_path):
        inst = default_instance(4, 9)
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(inst.to_dict()))
        again = InventoryInstance.from_file(path)
        assert again == inst

    def test_seeded_instance_file(self, tmp_path):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"horizon": 5, "seed": 42, "x_max": 90.0}))
        inst = InventoryInstance.from_file(path)
        assert inst.horizon == 5
        assert inst.x_max == 90.0
        assert inst.demands == default_instance(5, 42).demands

    def test_cost_from_csv(self, tmp_path):
        csv_path = tmp_path / "obs.csv"
        csv_path.write_text("quantile,count\n5.17,4\n6.36,36\n")
        path = tmp_path / "instance.json"
        path.write_text(
            json.dumps(
                {
                    "horizon": 1,
                    "unit_cost": {"csv": "obs.csv"},
                    "demands": [5.0],
                    "x_max": 20.0,
                }
            )
        )
        inst = InventoryInstance.from_file(path)
        assert isinstance(inst.unit_cost, ObservationSet)
        assert inst.unit_cost.m == 40

    def test_toml_instance(self, tmp_path):
        path = tmp_path / "instance.toml"
        path.write_text('horizon = 2\ndemands = [5.0, 6.0]\nx_max = 30.0\n')
        try:
            import tomllib  # noqa: F401
        except ImportError:
            with pytest.raises(ValueError, match="TOML"):
                InventoryInstance.from_file(path)
        else:
            inst = InventoryInstance.from_file(path)
            assert inst.horizon == 2
            assert inst.demands == (5.0, 6.0)

    def test_demand_generator_shape(self):
        rng = random.Random(3)
        sets = generate_demand_observations(4, rng)
        assert len(sets) == 4
        for obs in sets:
            assert len(obs.entries) == 5
            assert [c for _, c in obs.entries] == [1, 2, 3, 2, 1]
            qs = [q for q, _ in obs.entries]
            mean = qs[2]
            assert 20.0 <= mean <= 40.0
            spread = 0.15 * mean
            assert qs[0] == pytest.approx(mean - 2 * spread)
            assert qs[4] == pytest.approx(mean + 2 * spread)


class TestBenchmark:
    def test_same_seed_same_report(self):
        first = run_benchmark([5], seed=7, model="pbox")
        second = run_benchmark([5], seed=7, model="pbox")
        assert strip_keys(first) == strip_keys(second)

    def test_containment_asserted_per_run(self):
        report = run_benchmark([6], seed=11, model="pbox")
        row = report["rows"][0]
        assert row["status"] == "optimal"
        cont = row["containment"]
        assert cont["hull_contained"]
        assert cont["resolved_contained"]
        f_low, f_up = cont["tc_mid_cdf_bounds"]
        assert 0.0 < f_low <= f_up < 1.0
        assert cont["cdf_tighter_than_convex"]

    def test_domain_writes_count_the_search(self):
        # The search's one fixpoint is the winner's relaxed network (27
        # prunes here), so its counters are the winner's report's.
        result = search(tied_instance())
        assert result.nodes > 1
        assert result.stats == result.best.stats
        assert result.to_dict()["domain_writes"] == result.stats["prunes"] > 0
        # A convex row runs no containment evaluation, so its counters are
        # the search's alone.
        row = run_benchmark([], model="convex", instance=tied_instance())["rows"][0]
        assert row["stats"] == row["best"]["stats"]
        assert row["stats"]["prunes"] == row["alloc_counters"]["domain_writes"] > 0

    def test_a_search_propagates_once(self, monkeypatch):
        # The tied instance's seven near-ties are resolved on their bindings;
        # only the winner's relaxed network propagates.
        propagated = []
        real_propagate = DomainStore.propagate

        def counting_propagate(store):
            propagated.append(store)
            return real_propagate(store)

        monkeypatch.setattr(DomainStore, "propagate", counting_propagate)
        assert search(tied_instance()).status == "optimal"
        assert len(propagated) == 1

    def test_convex_model_rows_have_no_containment(self):
        report = run_benchmark([5], seed=7, model="convex")
        assert "containment" not in report["rows"][0]
        assert report["rows"][0]["status"] == "optimal"

    def test_explicit_instance_used(self):
        inst = scalar_instance(2, [5.0, 6.0], x_max=20.0)
        # The instance runs once, whatever the horizons say.
        report = run_benchmark([7, 10], seed=1, model="pbox", instance=inst)
        assert report["horizons"] == [2]
        assert [row["horizon"] for row in report["rows"]] == [2]

    @pytest.mark.parametrize("model", ["pbox", "convex"])
    def test_results_match_golden(self, model):
        # Result fields of the seeded h7/h10 rows, stored as JSON (which
        # round-trips floats exactly); counters and timings are left out.
        golden = Path(__file__).parent / "data" / f"bench_h7_h10_seed42_{model}.json"
        report = run_benchmark([7, 10], seed=42, model=model)
        fields = strip_keys(report, ("timing", "wall_time_s", "alloc_counters", "stats"))
        assert fields == json.loads(golden.read_text())
