import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from pboxcdf import engine, pbox
from pboxcdf.arith import div_bounds, mul_bounds
from pboxcdf.engine import (
    CONSISTENT,
    FAILED,
    Constraint,
    DomainStore,
    parse_model,
    solution_dict,
)
from pboxcdf.pbox import (
    TOLERANCE,
    CdfPoint,
    DivisorStraddlesZero,
    Inconsistent,
    PboxInterval,
    anchor,
    check_dominance,
    convex_interval,
    intersect_quantiles,
    meet,
    point_mass,
    project,
    reanchor,
    repair_dominance,
    tighter_lower,
    tighter_upper,
)

from conftest import add_bounds, check_frozen_value, random_domain, random_envelope, sub_bounds

DATA = Path(__file__).parent / "data"

EX3_I = PboxInterval(CdfPoint(10, 0.14, 0.016), CdfPoint(80, 0.49, 0.06))
EX3_J = PboxInterval(CdfPoint(20, 0.06, 0.025), CdfPoint(90, 0.9, 0.014))


def _store_with(*domains):
    store = DomainStore()
    return store, [store.new_var(d) for d in domains]


class TestNewVarAndPost:
    def test_explicit_domain_kept_exactly(self):
        store = DomainStore()
        ex2 = PboxInterval(CdfPoint(5.17, 0.1, 1.2), CdfPoint(6.36, 0.7, 0.57))
        v = store.new_var(ex2)
        assert store.domains[v] is ex2

    def test_unknown_kind_and_arity_rejected(self):
        with pytest.raises(ValueError):
            Constraint("xor", (0, 1))
        with pytest.raises(ValueError):
            Constraint("add", (0, 1))
        # Only add takes more than three variables.
        assert Constraint("add", (0, 1, 2, 3)).args == (0, 1, 2, 3)
        for kind in ("sub", "mul", "div"):
            with pytest.raises(ValueError):
                Constraint(kind, (0, 1, 2, 3))

    # Each invalid constraint with its ValueError message.
    @pytest.mark.parametrize(
        "kind, args, message",
        [
            ("xor", (0, 1), "unknown constraint kind 'xor'"),
            (None, (0, 1), "unknown constraint kind None"),
            ("eq", (0,), "constraint 'eq' takes 2 variables, got 1"),
            ("leq", (0, 1, 2), "constraint 'leq' takes 2 variables, got 3"),
            ("add", (0, 1), "constraint 'add' takes 3 variables, got 2"),
            ("sub", (0, 1, 2, 3), "constraint 'sub' takes 3 variables, got 4"),
            ("mul", (0, 1), "constraint 'mul' takes 3 variables, got 2"),
            ("div", (0, 1, 2, 3), "constraint 'div' takes 3 variables, got 4"),
        ],
    )
    def test_constructor_rejects(self, kind, args, message):
        with pytest.raises(ValueError) as exc:
            Constraint(kind, args)
        assert str(exc.value) == message

    def test_frozen_value_contract(self):
        check_frozen_value(
            Constraint("add", (0, 1, 2)),
            "Constraint(kind='add', args=(0, 1, 2))",
            {"kind": "xor"},
            "unknown constraint kind 'xor'",
        )

    def test_post_twice_idempotent_at_fixpoint(self):
        store, (x, y, z) = _store_with(
            convex_interval(0, 10), convex_interval(0, 10), convex_interval(5, 25)
        )
        store.post(Constraint("add", (x, y, z)))
        store.propagate()
        first = [store.domains[v] for v in (x, y, z)]
        store.post(Constraint("add", (x, y, z)))
        store.propagate()
        assert [store.domains[v] for v in (x, y, z)] == first

    def test_post_on_failed_store_is_noop(self):
        store, (x, y) = _store_with(convex_interval(0, 1), convex_interval(5, 6))
        store.post(Constraint("eq", (x, y)))
        assert store.propagate() == FAILED
        store.post(Constraint("leq", (x, y)))
        assert store.status == FAILED
        assert store.propagate() == FAILED


class TestOrdering:
    def test_sandwich_reproduces_cited_domain_bitwise(self):
        store = DomainStore()
        vi = store.new_var(EX3_I)
        vj = store.new_var(EX3_J)
        x = store.new_var(convex_interval(10.0, 90.0))
        store.post(Constraint("leq", (vi, x)))
        store.post(Constraint("leq", (x, vj)))
        assert store.propagate() == CONSISTENT
        dom = store.domains[x]
        assert dom.lo == CdfPoint(10.0, 0.14, 0.016)
        assert dom.hi == CdfPoint(90.0, 0.9, 0.014)

    def test_reflexive_ordering_never_changes(self):
        store = DomainStore()
        x = store.new_var(EX3_I)
        store.post(Constraint("leq", (x, x)))
        assert store.propagate() == CONSISTENT
        assert store.domains[x] == EX3_I

    def test_reverse_sandwich_candidate_and_engine_bounds(self):
        # The candidate assembled from J's low point and I's high point is
        # dominance-consistent, so no intersection pruning may fire.
        candidate = PboxInterval(CdfPoint(20.0, 0.06, 0.025), CdfPoint(80.0, 0.49, 0.06))
        assert check_dominance(candidate)

        store = DomainStore()
        vi = store.new_var(EX3_I)
        vj = store.new_var(EX3_J)
        y = store.new_var(convex_interval(10.0, 90.0))
        store.post(Constraint("leq", (y, vi)))
        store.post(Constraint("leq", (vj, y)))
        assert store.propagate() == CONSISTENT
        dom = store.domains[y]
        assert dom.lo.q == 20.0
        assert dom.hi.q == 80.0
        assert dom.lo == CdfPoint(20.0, 0.06, 0.025)
        assert check_dominance(dom)


class TestEquality:
    def test_identical_domains_unchanged(self):
        store, (x, y) = _store_with(EX3_I, EX3_I)
        store.post(Constraint("eq", (x, y)))
        assert store.propagate() == CONSISTENT
        assert store.domains[x] == EX3_I
        assert store.domains[y] == EX3_I

    def test_meet_with_top(self):
        ex2 = PboxInterval(CdfPoint(5.17, 0.1, 1.2), CdfPoint(6.36, 0.7, 0.57))
        store, (x, y) = _store_with(convex_interval(0.0, 10.0), ex2)
        store.post(Constraint("eq", (x, y)))
        assert store.propagate() == CONSISTENT
        assert store.domains[x] == ex2
        assert store.domains[y] == ex2

    def test_disjoint_fails(self):
        store, (x, y) = _store_with(convex_interval(0, 1), convex_interval(2, 3))
        store.post(Constraint("eq", (x, y)))
        assert store.propagate() == FAILED


def _three_step_div(store, x, y, z):
    """The former ``div`` propagator, kept as a reference: z, then x, then y,
    with its own zero checks."""
    los, his = store._lo, store._hi
    store._narrow(z, *div_bounds(los[x], his[x], los[y], his[y]))
    store._narrow(x, *mul_bounds(los[z], his[z], los[y], his[y]))
    if los[z] <= 0.0 <= his[z]:
        store.stats["skipped_div_projections"] += 1
    else:
        store._narrow(y, *div_bounds(los[x], his[x], los[z], his[z]))


def _round_fixpoint(store):
    """The former ``DomainStore._fixpoint``, kept as a reference: constraints
    whose divisor straddled zero stay set aside until the queue drains, then
    all run again, round after round, until a round changes no domain."""
    queue, queued = store._queue, store._queued
    constraints, stats, moved = store.constraints, store.stats, store._moved
    waiting = {}
    writes = -1
    while True:
        while True:
            if queue:
                idx = queue.popleft()
            elif moved:
                store._project(moved.pop())
                continue
            else:
                break
            queued[idx] = False
            stats["wakes"] += 1
            c = constraints[idx]
            try:
                engine._KINDS[c.kind][1](store, *c.args)
            except DivisorStraddlesZero as exc:
                waiting[idx] = exc
            except ValueError:
                queued[idx] = True
                queue.appendleft(idx)
                for other in waiting:
                    store._enqueue(other)
                raise
        if not waiting:
            return CONSISTENT
        if stats["prunes"] == writes:
            for other in reversed(waiting):
                queued[other] = True
                queue.appendleft(other)
            raise next(iter(waiting.values()))
        writes = stats["prunes"]
        for other in waiting:
            store._enqueue(other)
        waiting.clear()


_FORWARD = {"add": add_bounds, "sub": sub_bounds, "mul": mul_bounds, "div": div_bounds}


def _div_network(rng):
    """Domains and constraints of a random net rich in ``div``.

    Half the inputs are shifted clear of zero, so divisors and quotients
    straddle zero in some nets and exclude it in others.  Each derived
    variable covers its forward range, widened or cut by up to 30%, as a
    convex range or a stretched envelope; up to two more constraints between
    existing variables close cycles.
    """
    domains = []
    for _ in range(rng.randint(2, 4)):
        d = random_domain(rng)
        if rng.random() < 0.5:
            shift = rng.choice([-1.0, 1.0]) * (abs(d.lo.q) + abs(d.hi.q) + rng.uniform(0.5, 50.0))
            d = PboxInterval(
                CdfPoint(d.lo.q + shift, d.lo.f, d.lo.s), CdfPoint(d.hi.q + shift, d.hi.f, d.hi.s)
            )
        domains.append(d)
    posted = []
    for _ in range(rng.randint(2, 5)):
        kind = rng.choice(["div", "div", "add", "sub", "mul"])
        a, b = rng.sample(range(len(domains)), 2)
        da, db = domains[a], domains[b]
        try:
            lo, hi = _FORWARD[kind](da.lo.q, da.hi.q, db.lo.q, db.hi.q)
        except DivisorStraddlesZero:
            lo, hi = -1e3, 1e3
        pad = (hi - lo) * rng.uniform(-0.3, 0.5) + rng.uniform(0.0, 1.0)
        lo, hi = lo - pad, hi + pad
        if rng.random() < 0.4:
            domains.append(convex_interval(lo, hi))
        else:
            domains.append(_stretched(random_envelope(rng), lo, hi))
        posted.append(Constraint(kind, (a, b, len(domains) - 1)))
    for _ in range(rng.randint(0, 2)):
        kind = rng.choice(["eq", "leq", "div"])
        arity = 3 if kind == "div" else 2
        posted.append(Constraint(kind, tuple(rng.sample(range(len(domains)), arity))))
    rng.shuffle(posted)
    return domains, posted


class TestTernary:
    def test_add_unconstrained_sum_keeps_interval_sum(self):
        store = DomainStore()
        x = store.new_var(EX3_I)
        y = store.new_var(EX3_J)
        z = store.new_var(convex_interval(30.0, 170.0))
        store.post(Constraint("add", (x, y, z)))
        assert store.propagate() == CONSISTENT
        assert store.domains[x] == EX3_I
        assert store.domains[y] == EX3_J
        assert store.domains[z] == convex_interval(30.0, 170.0)

    def test_degenerate_addition(self):
        store, (x, y, z) = _store_with(
            point_mass(5.0), point_mass(3.0), convex_interval(0.0, 100.0)
        )
        store.post(Constraint("add", (x, y, z)))
        assert store.propagate() == CONSISTENT
        assert store.domains[z].lo.q == 8.0
        assert store.domains[z].hi.q == 8.0

    def test_infeasible_sum_fails(self):
        store, (x, y, z) = _store_with(point_mass(0.0), point_mass(1.0), point_mass(0.0))
        store.post(Constraint("add", (x, y, z)))
        assert store.propagate() == FAILED

    def test_mul_reverse_skips_zero_straddling_divisor(self):
        store, (x, y, z) = _store_with(
            convex_interval(-2.0, 2.0), convex_interval(-1.0, 1.0), convex_interval(-1.0, 1.0)
        )
        store.post(Constraint("mul", (x, y, z)))
        assert store.propagate() == CONSISTENT
        assert store.stats["skipped_div_projections"] > 0
        assert store.domains[x] == convex_interval(-2.0, 2.0)

    def test_div_forward_zero_straddle_is_hard_error(self):
        store, (x, y, z) = _store_with(
            convex_interval(1.0, 2.0), convex_interval(-1.0, 1.0), convex_interval(-10.0, 10.0)
        )
        store.post(Constraint("div", (x, y, z)))
        with pytest.raises(DivisorStraddlesZero):
            store.propagate()

    def test_interrupted_propagation_stays_queued(self):
        # sub narrows z to [-2, 1] before div meets it as a divisor; the
        # store must not report a fixpoint after the error.
        store, (x, y, z, w) = _store_with(
            convex_interval(1.0, 2.0),
            convex_interval(1.0, 3.0),
            convex_interval(-5.0, 5.0),
            convex_interval(0.0, 10.0),
        )
        store.post(Constraint("sub", (x, y, z)))
        store.post(Constraint("div", (w, z, y)))
        for _ in range(2):
            with pytest.raises(DivisorStraddlesZero):
                store.propagate()
            assert store.status == CONSISTENT

    def test_div_error_does_not_depend_on_posting_order(self):
        # eq narrows the divisor clear of zero; in either order the store
        # reaches the same fixpoint, and a divisor that still straddles zero
        # there raises in either order.
        domains = (
            convex_interval(1.0, 2.0),
            convex_interval(-1.0, 1.0),
            convex_interval(-10.0, 10.0),
            convex_interval(0.5, 1.0),
        )
        div, eq = Constraint("div", (0, 1, 2)), Constraint("eq", (1, 3))
        fixpoints = []
        for posted in ((div, eq), (eq, div)):
            store, _ = _store_with(*domains)
            for c in posted:
                store.post(c)
            assert store.propagate() == CONSISTENT
            fixpoints.append(store.domains)
        assert fixpoints[0] == fixpoints[1]
        assert fixpoints[0][1] == convex_interval(0.5, 1.0)
        assert fixpoints[0][2] == convex_interval(1.0, 4.0)
        leq = Constraint("leq", (1, 3))
        for posted in ((div, leq), (leq, div)):
            store, _ = _store_with(*domains)
            for c in posted:
                store.post(c)
            with pytest.raises(DivisorStraddlesZero):
                store.propagate()
            assert store.status == CONSISTENT

    def test_one_loop_fixpoint_matches_round_reference(self):
        # A larger sweep runs in CI: fixpoint_sweep(1, 20_000).
        seen = fixpoint_sweep(20260810, 1500)
        assert min(seen[CONSISTENT], seen[FAILED], seen["DivisorStraddlesZero"]) > 100, seen
        assert seen["fewer_wakes"] > 100, seen

    def _logged(self, monkeypatch):
        # Logs each propagator run by kind.
        runs = []
        for kind in ("div", "eq", "leq"):
            arity, prop = engine._KINDS[kind]

            def logged(store, *args, kind=kind, prop=prop):
                runs.append(kind)
                prop(store, *args)

            monkeypatch.setitem(engine._KINDS, kind, (arity, logged))
        return runs

    def test_cleared_divisor_is_not_run_again_at_the_fixpoint(self, monkeypatch):
        # div raises on its straddling divisor, eq clears it, and div runs
        # clean; nothing runs once the queue drains, so the wakes are the
        # runs of the two constraints and no more.
        runs = self._logged(monkeypatch)
        store, (x, y, z, w) = _store_with(
            convex_interval(1.0, 2.0),
            convex_interval(-1.0, 1.0),
            convex_interval(-10.0, 10.0),
            convex_interval(0.5, 1.0),
        )
        store.post(Constraint("div", (x, y, z)))
        store.post(Constraint("eq", (y, w)))
        assert store.propagate() == CONSISTENT
        assert runs == ["div", "eq", "div", "eq", "div"]
        assert store.stats["wakes"] == len(runs)
        assert store.domains[z] == convex_interval(1.0, 4.0)

    def test_straddling_divisors_are_queued_in_first_straddle_order(self, monkeypatch):
        # Both divs straddle; leq then narrows the first one's divisor, still
        # across zero, and it raises again.  At the fixpoint both go back to
        # the head of the queue in the order they first straddled, and the
        # first one's latest error is raised, with no round run again.
        runs = self._logged(monkeypatch)
        store, (x, y1, z1, y2, z2, u) = _store_with(
            convex_interval(1.0, 2.0),
            convex_interval(-1.0, 1.0),
            convex_interval(-10.0, 10.0),
            convex_interval(-2.0, 2.0),
            convex_interval(-10.0, 10.0),
            convex_interval(-5.0, 0.5),
        )
        store.post(Constraint("div", (x, y1, z1)))
        store.post(Constraint("div", (x, y2, z2)))
        store.post(Constraint("leq", (y1, u)))
        with pytest.raises(DivisorStraddlesZero, match=r"\[-1\.0, 0\.5\]"):
            store.propagate()
        assert runs == ["div", "div", "leq", "div", "leq"]
        assert store.stats["wakes"] == len(runs)
        assert list(store._queue) == [0, 1]
        assert store.status == CONSISTENT

    def test_div_projections(self):
        store, (x, y, z) = _store_with(
            convex_interval(4.0, 8.0), convex_interval(2.0, 4.0), convex_interval(0.0, 100.0)
        )
        store.post(Constraint("div", (x, y, z)))
        assert store.propagate() == CONSISTENT
        assert store.domains[z].lo.q == pytest.approx(1.0)
        assert store.domains[z].hi.q == pytest.approx(4.0)

    def test_div_as_mul_matches_three_step_reference(self, rng, monkeypatch):
        # div runs as the product z * y = x.  On every net the former
        # three-step propagator must reach the same status or raise the same
        # error.  Consistent fixpoints are equal; the two orders may stop
        # apart only by a change below the wake threshold.
        outcomes = {CONSISTENT: 0, FAILED: 0, "raised": 0, "exact": 0}
        for _ in range(1500):
            domains, posted = _div_network(rng)
            results = []
            for prop in (DomainStore._prop_div, _three_step_div):
                monkeypatch.setitem(engine._KINDS, "div", (3, prop))
                store, _ = _store_with(*domains)
                for c in posted:
                    store.post(c)
                try:
                    results.append((store.propagate(), store.domains))
                except (DivisorStraddlesZero, ValueError) as exc:
                    results.append(type(exc))
            new, old = results
            if not isinstance(new, tuple):
                assert new == old
                outcomes["raised"] += 1
                continue
            assert new[0] == old[0]
            outcomes[new[0]] += 1
            if new[0] == FAILED:
                continue
            outcomes["exact"] += new[1] == old[1]
            for a, b in zip(new[1], old[1]):
                for pa, pb in ((a.lo, b.lo), (a.hi, b.hi)):
                    for va, vb in ((pa.q, pb.q), (pa.f, pb.f), (pa.s, pb.s)):
                        assert abs(va - vb) <= TOLERANCE
        assert min(outcomes[CONSISTENT], outcomes[FAILED], outcomes["raised"]) > 100, outcomes
        assert outcomes["exact"] >= 0.99 * outcomes[CONSISTENT], outcomes


def _run_fixpoint(domains, posted, fixpoint):
    """Status (or the error raised, with its message), domain bits, counters
    and queue of ``posted`` over ``domains``, propagated with ``fixpoint``."""
    kept = DomainStore._fixpoint
    DomainStore._fixpoint = fixpoint
    try:
        store, _ = _store_with(*domains)
        for c in posted:
            store.post(c)
        try:
            status = store.propagate()
        except (DivisorStraddlesZero, ValueError) as exc:
            status = (type(exc), str(exc))
    finally:
        DomainStore._fixpoint = kept
    return status, _bits(store.domains), store.stats, list(store._queue)


def fixpoint_sweep(seed, nets):
    """Checks the one-loop fixpoint against :func:`_round_fixpoint` on
    ``nets`` seeded :func:`_div_network` nets: both must reach the same
    status (or raise the same error, message included), bit-equal domains
    and equal prunes, and the one loop may wake no more often.  A net that
    raises ``DivisorStraddlesZero`` must leave the same queue.  Returns how
    often each outcome came up, and on how many nets the one loop woke less
    often."""
    rng = random.Random(seed)
    seen = {"fewer_wakes": 0}
    for _ in range(nets):
        domains, posted = _div_network(rng)
        new = _run_fixpoint(domains, posted, DomainStore._fixpoint)
        old = _run_fixpoint(domains, posted, _round_fixpoint)
        assert new[:2] == old[:2], (domains, posted)
        assert new[2]["prunes"] == old[2]["prunes"], (domains, posted)
        assert new[2]["wakes"] <= old[2]["wakes"], (domains, posted)
        kind = new[0] if isinstance(new[0], str) else new[0][0].__name__
        if kind == "DivisorStraddlesZero":
            assert new[3] == old[3], (domains, posted)
        seen[kind] = seen.get(kind, 0) + 1
        seen["fewer_wakes"] += new[2]["wakes"] < old[2]["wakes"]
    return seen


def _full_pass_add(store, *args):
    """Reference for the ``add`` propagator: the same forward sum and backward
    pass, through arith's bound formulas instead of inline sums."""
    los, his = store._lo, store._hi
    n = len(args) - 1
    lo, hi = los[args[0]], his[args[0]]
    for i in range(1, n):
        lo, hi = add_bounds(lo, hi, los[args[i]], his[args[i]])
    store._narrow(args[n], lo, hi)
    lo, hi = los[args[n]], his[args[n]]
    rests = [(lo, hi)]
    for i in range(n - 1, 0, -1):
        lo, hi = sub_bounds(lo, hi, los[args[i]], his[args[i]])
        rests.append((lo, hi))
    for i, x in enumerate(args[:n]):
        lo, hi = rests.pop()
        if i:
            lo, hi = sub_bounds(lo, hi, p_lo, p_hi)
        if not (lo <= los[x] and hi >= his[x]):
            store._narrow(x, lo, hi)
        p_lo, p_hi = add_bounds(p_lo, p_hi, los[x], his[x]) if i else (los[x], his[x])


def _stretched(d, lo, hi):
    """``d``'s cdf lines moved onto the quantile range [lo, hi]."""
    if d.hi.q == d.lo.q or lo == hi:
        return convex_interval(lo, hi)
    k = (hi - lo) / (d.hi.q - d.lo.q)
    return PboxInterval(CdfPoint(lo, d.lo.f, d.lo.s / k), CdfPoint(hi, d.hi.f, d.hi.s / k))


def _long_sum_term(rng):
    """Mixed signs, magnitudes up to about 1e5, steep cdf lines and point masses."""
    if rng.random() < 0.2:
        return point_mass(rng.uniform(-1e5, 1e5))
    d = random_domain(rng)
    scale = 10.0 ** rng.uniform(-3.0, 2.0)
    shift = rng.uniform(-9e4, 9e4)
    return _stretched(d, d.lo.q * scale + shift, d.hi.q * scale + shift)


def _bits(domains):
    return [
        (p.q.hex(), p.f.hex(), p.s.hex()) for dom in domains for p in (dom.lo, dom.hi)
    ]


def _run_posted(kind, domains, args, prop):
    """Status (or the error raised), domain bits and counters of one
    constraint of ``kind`` posted over ``domains`` and propagated with
    ``prop`` as its propagator."""
    kept = engine._KINDS[kind]
    engine._KINDS[kind] = (kept[0], prop)
    try:
        store, _ = _store_with(*domains)
        store.post(Constraint(kind, tuple(args)))
        try:
            status = store.propagate()
        except ValueError as exc:
            status = (type(exc), str(exc))
    finally:
        engine._KINDS[kind] = kept
    return status, _bits(store.domains), store.stats


def _sum_draw(rng, n=None):
    """Domains and ``add`` args of one random sum of ``n`` terms, or of 2-26
    if not given.  Totals are often cut within a few rounding errors of the
    widest term's width, where a backward bound lands on or just past a
    term's own bound; some totals are also a term, and some terms repeat."""
    if n is None:
        n = rng.randint(2, 26)
    terms = [_long_sum_term(rng) for _ in range(n)]
    s_lo = s_hi = 0.0
    for t in terms:
        s_lo += t.lo.q
        s_hi += t.hi.q
    wmax = max(t.hi.q - t.lo.q for t in terms)
    big = max(max(-t.lo.q, t.hi.q) for t in terms)
    rounding = 4 * (n + 1) ** 2 * 2.0**-52 * big
    pad = rng.choice([0.0, rng.uniform(0.0, 10.0), rng.uniform(0.0, 1e4)])
    roll = rng.random()
    if roll < 0.6:
        gap = rng.uniform(-4.0, 4.0) * rounding
        if rng.random() < 0.5:
            z_lo, z_hi = s_hi - wmax - gap, s_hi + pad
        else:
            z_lo, z_hi = s_lo - pad, s_lo + wmax + gap
    elif roll < 0.8:
        z_lo, z_hi = sorted(rng.uniform(s_lo - pad, s_hi + pad) for _ in range(2))
    else:
        z_lo, z_hi = s_lo - pad, s_hi + pad
    z_lo, z_hi = min(z_lo, z_hi), max(z_lo, z_hi)
    total = _stretched(random_domain(rng), z_lo, z_hi)
    args = list(range(n + 1))
    roll = rng.random()
    if roll < 0.05:
        args[n] = rng.randrange(n)  # the total is also a term
    elif roll < 0.1:
        args[rng.randrange(n)] = rng.randrange(n)  # a repeated term
    domains = terms + [total]
    return domains, args


def add_sweep(seed, draws):
    """Checks the ``add`` propagator against :func:`_full_pass_add` on
    ``draws`` seeded :func:`_sum_draw` sums: both must reach the same status
    (or raise the same error), bit-equal domains and equal counters.
    Returns how often each outcome came up."""
    rng = random.Random(seed)
    seen = {}
    for _ in range(draws):
        domains, args = _sum_draw(rng)
        new = _run_posted("add", domains, args, DomainStore._prop_add)
        old = _run_posted("add", domains, args, _full_pass_add)
        assert new == old, (domains, args)
        kind = new[0] if isinstance(new[0], str) else new[0][0].__name__
        seen[kind] = seen.get(kind, 0) + 1
    return seen


class TestLinearSum:
    def test_sub_runs_as_add(self):
        # x - y = z narrows like z + y = x, in both directions.
        store, (x, y, z) = _store_with(
            convex_interval(0.0, 10.0), convex_interval(2.0, 3.0), convex_interval(4.0, 5.0)
        )
        store.post(Constraint("sub", (x, y, z)))
        assert store.propagate() == CONSISTENT
        assert store.domains[x] == convex_interval(6.0, 8.0)
        assert store.domains[z] == convex_interval(4.0, 5.0)

    def test_nary_add_matches_binary_chain(self, rng):
        # One add over n terms against the same sum as a chain of binary adds
        # with one accumulator per step, on mixed terms and a randomly
        # tightened (possibly infeasible) total.  The quantile ranges are
        # also checked against the closed-form projections of the sum.
        for _ in range(600):
            n = rng.randint(2, 8)
            terms = [random_domain(rng) for _ in range(n)]
            lo = sum(t.lo.q for t in terms)
            hi = sum(t.hi.q for t in terms)
            pad = 0.2 * (hi - lo) + 1.0
            cut = sorted(rng.uniform(lo - pad, hi + pad) for _ in range(2))
            z_lo, z_hi = lo, hi
            nary, nary_ids = _store_with(*terms, convex_interval(-1e4, 1e4))
            nary.post(Constraint("add", tuple(nary_ids)))
            chain, chain_ids = _store_with(*terms, convex_interval(-1e4, 1e4))
            acc = chain_ids[0]
            for k in range(1, n):
                out = chain_ids[n] if k == n - 1 else chain.new_var(convex_interval(-1e4, 1e4))
                chain.post(Constraint("add", (acc, chain_ids[k], out)))
                acc = out
            if rng.random() < 0.7:
                nary.tighten(nary_ids[n], convex_interval(*cut))
                chain.tighten(chain_ids[n], convex_interval(*cut))
                z_lo, z_hi = max(lo, cut[0]), min(hi, cut[1])
            status = nary.propagate()
            assert chain.propagate() == status
            assert (status == FAILED) == (z_lo > z_hi)
            if status == FAILED:
                continue
            expected = [
                (max(t.lo.q, z_lo - (hi - t.hi.q)), min(t.hi.q, z_hi - (lo - t.lo.q)))
                for t in terms
            ] + [(z_lo, z_hi)]
            for vid, (e_lo, e_hi) in zip(nary_ids, expected):
                assert nary.domains[vid].lo.q == pytest.approx(e_lo, abs=1e-9)
                assert nary.domains[vid].hi.q == pytest.approx(e_hi, abs=1e-9)
            for a_id, b_id in zip(nary_ids, chain_ids):
                a, b = nary.domains[a_id], chain.domains[b_id]
                for pa, pb in ((a.lo, b.lo), (a.hi, b.hi)):
                    for va, vb in ((pa.q, pb.q), (pa.f, pb.f), (pa.s, pb.s)):
                        assert math.isclose(va, vb, rel_tol=0.0, abs_tol=1e-12)


    def test_add_matches_full_backward_pass(self):
        # A larger sweep runs in CI: add_sweep(1, 50_000).
        seen = add_sweep(20260810, 2000)
        assert min(seen[CONSISTENT], seen[FAILED]) > 100, seen

    def test_two_term_kernel_matches_full_backward_pass(self, rng):
        # add_sweep draws few two-term sums, which _prop_add runs unrolled;
        # these also go through sub, which runs as z + y = x.
        seen = Counter()
        for _ in range(1500):
            domains, args = _sum_draw(rng, 2)
            x, y, z = args
            old = _run_posted("add", domains, args, _full_pass_add)
            assert _run_posted("add", domains, args, DomainStore._prop_add) == old
            assert _run_posted("sub", domains, (z, y, x), engine._KINDS["sub"][1]) == old
            seen[old[0]] += 1
        assert min(seen[CONSISTENT], seen[FAILED]) > 100, seen

    def test_overflowing_sum_matches_full_backward_pass(self):
        # A sum whose float value, or one of whose backward bounds, is not
        # finite: both propagators raise the same error or reach the same
        # domains.
        cases = [
            ([(1e308, 1.5e308), (1e308, 1.5e308)], (0.0, 1.0)),
            ([(0.0, 1e308), (0.0, 1e308)], (0.0, 1.0)),
            ([(-1e308, 1e308), (-1e308, 1e308)], (-1.0, 1.0)),
            ([(-6.9e306, 6.9e306)] * 26, (-1.79e308, 1.79e308)),
        ]
        statuses = []
        for terms, total in cases:
            domains = [convex_interval(lo, hi) for lo, hi in terms + [total]]
            args = range(len(domains))
            new = _run_posted("add", domains, args, DomainStore._prop_add)
            old = _run_posted("add", domains, args, _full_pass_add)
            assert new[:2] == old[:2]
            statuses.append(new[0])
        assert statuses[0][0] is ValueError
        assert statuses[1:] == [CONSISTENT] * 3

    def test_fixpoint_repropagation_changes_nothing(self, rng):
        # Re-propagating a fixpoint changes no domain and wakes each
        # constraint once.
        store = DomainStore()
        terms = [store.new_var(random_envelope(rng)) for _ in range(12)]
        mid = store.new_var(convex_interval(-1e4, 1e4))
        total = store.new_var(convex_interval(-1e4, 1e4))
        posted = [
            Constraint("add", (*terms[:6], mid)),
            Constraint("add", (mid, *terms[6:], total)),
        ]
        for c in posted:
            store.post(c)
        assert store.propagate() == CONSISTENT
        fixpoint = list(store.domains)
        before = dict(store.stats)
        for c in posted:
            store.post(c)
        assert store.propagate() == CONSISTENT
        assert store.domains == fixpoint
        assert store.stats["wakes"] - before["wakes"] == len(posted)
        assert store.stats["prunes"] == before["prunes"]

    def test_aliased_sums_wake_themselves(self):
        # Draws 17 090 and 31 996 of add_sweep(1, ...): sums of 10 and 15
        # terms whose total is also a term.  In exact arithmetic the other
        # terms cannot sum to 0 (they miss it by about 807 and 2 171), but one
        # pass does not see it; the re-run its own writes queue does.
        for row in json.loads((DATA / "sum_aliased_draws.json").read_text()):
            domains = [PboxInterval.from_dict(d) for d in row["domains"]]
            args = row["args"]
            weights = Counter(args[:-1])
            weights[args[-1]] -= 1
            ends = [
                sorted((Fraction(k * domains[v].lo.q), Fraction(k * domains[v].hi.q)))
                for v, k in weights.items()
            ]
            assert sum(hi for _, hi in ends) < 0 or sum(lo for lo, _ in ends) > 0, row["draw"]
            for prop in (DomainStore._prop_add, _full_pass_add):
                status, _, stats = _run_posted("add", domains, args, prop)
                assert (status, stats["wakes"]) == (FAILED, 2), row["draw"]

    @staticmethod
    def _solve_counted(monkeypatch, name):
        """The model ``tests/data/<name>`` and its store and variable order,
        propagated with every ``add`` run counted; the run after the 100th
        fails the test rather than letting the fixpoint run on."""
        runs = []
        arity, prop = engine._KINDS["add"]

        def counted(store, *args):
            runs.append(args)
            if len(runs) > 100:
                raise AssertionError("the sum keeps waking itself")
            prop(store, *args)

        monkeypatch.setitem(engine._KINDS, "add", (arity, counted))
        model = json.loads((DATA / name).read_text())
        store, order = parse_model(model)
        assert store.propagate() == CONSISTENT
        assert store.stats["wakes"] == len(runs)
        return model, store, order

    def test_distinct_sum_is_not_rerun_for_its_own_writes(self, monkeypatch):
        # One 6-term sum with values near 1e8: each pass rounds a bound by an
        # ulp (7.5e-9, above TOLERANCE).  Were its own writes to wake it, each
        # re-run would move a bound again and the fixpoint would not end.  Over
        # distinct variables one pass already leaves every bound supported.
        model, store, order = self._solve_counted(monkeypatch, "sum_ratchet.json")
        assert store.stats["wakes"] == 1
        spec = {v["name"]: v for v in model["vars"]}
        (x_lo, x_hi), (z_lo, z_hi) = (map(Fraction, spec[name]["range"]) for name in "xz")
        total = sum(Fraction(spec[f"c{i}"]["value"]) for i in range(1, 6))
        exact = {
            "x": (max(x_lo, z_lo - total), min(x_hi, z_hi - total)),
            "z": (max(z_lo, x_lo + total), min(z_hi, x_hi + total)),
        }
        assert [float(b) for b in exact["x"]] == [-65422951.44226962, -65422907.97938119]
        assert [float(b) for b in exact["z"]] == [-215402559.35660523, -215402515.8937168]
        for name, (lo, hi) in exact.items():
            d = store.domains[order.index(name)]
            assert abs(Fraction(d.lo.q) - lo) <= 1e-6 and abs(Fraction(d.hi.q) - hi) <= 1e-6

    def test_aliased_sum_near_1e8_wakes_itself_once(self, monkeypatch):
        # An 8-term sum with values near 1e8 whose total y is also a term, so
        # that exactly x = -(c0 + ... + c5).  Its own write wakes it; the
        # re-run writes nothing, and the fixpoint ends with x still holding
        # that value.
        model, store, order = self._solve_counted(monkeypatch, "sum_aliased_1e8.json")
        assert (store.stats["wakes"], store.stats["prunes"]) == (2, 1)
        x = store.domains[order.index("x")]
        exact = -sum(Fraction(v["value"]) for v in model["vars"] if "value" in v)
        assert Fraction(x.lo.q) <= exact <= Fraction(x.hi.q)
        assert x.lo.q > model["vars"][order.index("x")]["range"][0]

    def test_interrupted_sum_runs_first_next_time(self):
        # x + y = z narrows z, then overflows on y's upper bound.  Its own
        # write queued it at the tail, but it did not finish, so that is no
        # echo: it moves to the head of the queue, queued once, and raises
        # again on the next run.
        store, (x, y, z) = _store_with(
            convex_interval(-1e308, 0.0), convex_interval(0.0, 1e308), convex_interval(1.0, 1.5e308)
        )
        store.post(Constraint("add", (x, y, z)))
        for _ in range(2):
            with pytest.raises(ValueError, match="overflowed"):
                store.propagate()
            assert list(store._queue) == [0] and store._queued[0] is True
            assert store.domains[z] == convex_interval(1.0, 1e308)

    def test_any_other_write_clears_an_echo(self):
        # A queued echo keeps its place in the queue; a write to one of the
        # sum's variables by anything but its own pass (another constraint,
        # a projection, tighten) makes it a run again.
        store, (x, y, z, w) = _store_with(*[convex_interval(0.0, 10.0)] * 4)
        store.post(Constraint("add", (x, y, z)))
        store.post(Constraint("eq", (z, w)))
        store._queued[0] = None
        store._wake(z)
        assert list(store._queue) == [0, 1] and store._queued[:2] == [True, True]

    def test_sum_fed_by_binary_chain(self):
        # Every link of a chain of binary adds is a term of a 4-term sum,
        # posted first, and each link's move wakes the sum.  The links reach
        # the chain's bounds and the sum's total keeps its range.
        store = DomainStore()
        a = store.new_var(convex_interval(1.0, 2.0))
        links = [store.new_var(convex_interval(-1e4, 1e4)) for _ in range(4)]
        total = store.new_var(convex_interval(22.0, 24.0))
        store.post(Constraint("add", (*links, total)))
        prev = a
        for link in links:
            store.post(Constraint("add", (prev, a, link)))
            prev = link
        assert store.propagate() == CONSISTENT
        assert [store.domains[v].hi.q for v in links] == [4.0, 6.0, 8.0, 10.0]
        store.tighten(a, convex_interval(1.5, 2.0))
        assert store.propagate() == CONSISTENT
        assert [store.domains[v].lo.q for v in links] == [3.0, 4.5, 6.0, 7.5]
        assert store.domains[total] == convex_interval(22.0, 24.0)


def _flat_domain(rng):
    """Two flat cdf lines, with levels at (a zero of either sign), near or
    away from the ends of [0, 1], so that some conflict; some span a range
    too wide for a float width."""
    if rng.random() < 0.15:
        lo, hi = -rng.uniform(1e307, 1.7e308), rng.uniform(1e307, 1.7e308)
    else:
        lo = rng.uniform(-100.0, 100.0)
        hi = lo + rng.choice((0.0, 1e-7, rng.uniform(0.0, 100.0)))
    levels = (0.0, -0.0, 1.0, TOLERANCE / 2, 1.0 - TOLERANCE / 2, rng.random())
    up_f, low_f = rng.choice(levels), rng.choice(levels)
    return PboxInterval(CdfPoint(lo, up_f, 0.0), CdfPoint(hi, low_f, 0.0))


# References of the placement step: each slides its points with anchor and
# repairs dominance, with no shortcut for flat lines.


def _reanchored(up, low, lo, hi):
    return repair_dominance(PboxInterval(anchor(up, lo), anchor(low, hi)))


def _met(a, b):
    lo_q, hi_q = intersect_quantiles(a.lo.q, a.hi.q, b.lo.q, b.hi.q)
    mid = 0.5 * (lo_q + hi_q)
    up = tighter_upper(a.lo, b.lo, mid)
    low = tighter_lower(a.hi, b.hi, mid)
    return repair_dominance(PboxInterval(anchor(up, lo_q), anchor(low, hi_q)))


def _reference_leq(store, x, y):
    dx = store._domain(x)
    dy = store._domain(y)

    x_hi_q = min(dx.hi.q, dy.hi.q)
    if dx.lo.q > x_hi_q:
        if dx.lo.q - x_hi_q > TOLERANCE:
            raise Inconsistent(f"ordering wipes out {store.names[x]!r}")
        x_hi_q = dx.lo.q
    mid_x = 0.5 * (dx.lo.q + x_hi_q)
    low_x = tighter_lower(dx.hi, dy.hi, mid_x)
    store._update(x, repair_dominance(PboxInterval(dx.lo, anchor(low_x, x_hi_q))))

    dx = store.domains[x]
    y_lo_q = max(dy.lo.q, dx.lo.q)
    if y_lo_q > dy.hi.q:
        if y_lo_q - dy.hi.q > TOLERANCE:
            raise Inconsistent(f"ordering wipes out {store.names[y]!r}")
        y_lo_q = dy.hi.q
    mid_y = 0.5 * (y_lo_q + dy.hi.q)
    up_y = tighter_upper(dy.lo, dx.lo, mid_y)
    store._update(y, repair_dominance(PboxInterval(anchor(up_y, y_lo_q), dy.hi)))


def _projection_bits(fn, *args):
    """The bits of ``fn(*args)``, or the type of the error it raised."""
    try:
        return _bits([fn(*args)])
    except (ValueError, Inconsistent) as exc:
        return type(exc)


class TestFlatProjection:
    def test_projection_and_stock_floor_match_anchor_and_repair(self):
        # On flat lines, _project and build_model's stock floor equal
        # re-anchoring both points and repairing dominance, bit for bit, or
        # raise the same error: a level conflict, or a move that overflows.
        rng = random.Random(26)
        seen = set()
        for _ in range(3000):
            d = _flat_domain(rng)
            lo, hi = sorted(
                min(max(t * d.lo.q + (1.0 - t) * d.hi.q, d.lo.q), d.hi.q)
                for t in (rng.choice((0.0, 1.0, rng.random())) for _ in range(2))
            )
            store, (v,) = _store_with(d)
            store._lo, store._hi, store._moved = [lo], [hi], set()
            got = _projection_bits(store._project, v)
            assert got == _projection_bits(_reanchored, d.lo, d.hi, lo, hi), (d, lo, hi)
            seen.add(got if isinstance(got, type) else "projected")
            if d.lo.q < 0.0:

                def floor(onto):
                    floored = intersect_quantiles(d.lo.q, d.hi.q, 0.0, max(d.hi.q, 0.0))
                    return onto(d.lo, d.hi, *floored)

                assert _projection_bits(floor, reanchor) == _projection_bits(floor, _reanchored), d
        assert seen == {"projected", Inconsistent, ValueError}

    def test_placement_matches_anchor_and_repair(self):
        # A larger sweep runs in CI: placement_sweep(1, 400_000).
        seen = placement_sweep(20261020, 20_000)
        for op in ("meet", "reanchor"):
            assert {f"{op} placed", f"{op} Inconsistent", f"{op} ValueError"} <= set(seen)
        assert {"leq consistent", "leq failed", "leq ValueError"} <= set(seen)

    def test_flat_placements_repair_nothing(self, monkeypatch):
        # Flat lines whose levels do not conflict are placed by moving their
        # quantiles: a meet of two convex intervals and a leq over convex
        # domains repair no dominance.
        calls = []
        repair = pbox.repair_dominance

        def counted(interval):
            calls.append(interval)
            return repair(interval)

        for module in (pbox, engine):
            if getattr(module, "repair_dominance", None) is repair:
                monkeypatch.setattr(module, "repair_dominance", counted)
        met = meet(convex_interval(0.0, 10.0), convex_interval(5.0, 20.0))
        assert met == convex_interval(5.0, 10.0)
        store, (x, y) = _store_with(convex_interval(0.0, 10.0), convex_interval(-5.0, 6.0))
        store.post(Constraint("leq", (x, y)))
        assert store.propagate() == CONSISTENT
        assert store.domains == [convex_interval(0.0, 6.0)] * 2
        assert calls == []


def _placement_pair(rng):
    """Two domains, each with flat lines from :func:`_flat_domain` (some
    spanning ranges near +-1.7e308) or from ``random_domain``, mostly
    sloped.  The second one's lines often move onto a range that overlaps
    the first's, or that misses it by less than TOLERANCE, an inversion that
    collapses."""
    a, b = (rng.choice((_flat_domain, random_domain))(rng) for _ in range(2))
    roll = rng.random()
    if roll < 0.4:
        ends = (a.lo.q, a.hi.q, _inside(rng, a), _inside(rng, b))
        lo, hi = sorted(rng.choice(ends) for _ in range(2))
    elif roll < 0.7:
        gap, width = rng.uniform(0.0, TOLERANCE), rng.choice((0.0, rng.uniform(0.0, 50.0)))
        lo = a.hi.q + gap if rng.random() < 0.5 else a.lo.q - gap - width
        hi = lo + width
    else:
        return a, b
    b = PboxInterval(CdfPoint(lo, b.lo.f, b.lo.s), CdfPoint(hi, b.hi.f, b.hi.s))
    return (a, b) if rng.random() < 0.5 else (b, a)


def _inside(rng, d):
    # A point of d's quantile range, also when its width is too wide for a float.
    t = rng.random()
    return min(max(t * d.lo.q + (1.0 - t) * d.hi.q, d.lo.q), d.hi.q)


def placement_sweep(seed, cases):
    """Checks the placement step against its anchor-then-repair references
    on ``cases`` seeded operand pairs (see :func:`_placement_pair`), taking
    ``meet``, ``reanchor`` and a two-variable ``leq`` store in turn: each
    must give the reference's bits, or raise the same error type (for the
    store, the same status, error and message, and equal counters).
    ``reanchor`` takes one line of either domain per side and a range whose
    ends are domain bounds or points inside the first domain, sometimes
    inverted by less than TOLERANCE.  Returns how often each outcome came
    up."""
    rng = random.Random(seed)
    seen = {}
    for k in range(cases):
        a, b = _placement_pair(rng)
        op = ("meet", "reanchor", "leq")[k % 3]
        if op == "meet":
            got = _projection_bits(meet, a, b)
            assert got == _projection_bits(_met, a, b), (a, b)
        elif op == "reanchor":
            up, low = rng.choice((a.lo, b.lo)), rng.choice((a.hi, b.hi))
            ends = (a.lo.q, a.hi.q, b.lo.q, b.hi.q)
            lo, hi = sorted(
                rng.choice(ends) if rng.random() < 0.5 else _inside(rng, a) for _ in range(2)
            )
            if rng.random() < 0.1:
                lo = hi + rng.uniform(0.0, TOLERANCE)
            got = _projection_bits(reanchor, up, low, lo, hi)
            assert got == _projection_bits(_reanchored, up, low, lo, hi), (up, low, lo, hi)
        else:
            got = _run_posted("leq", (a, b), (0, 1), DomainStore._prop_leq)
            assert got == _run_posted("leq", (a, b), (0, 1), _reference_leq), (a, b)
            got = got[0] if isinstance(got[0], str) else got[0][0]
        outcome = f"{op} {'placed' if isinstance(got, list) else getattr(got, '__name__', got)}"
        seen[outcome] = seen.get(outcome, 0) + 1
    return dict(sorted(seen.items()))


def _random_network(rng, n_vars=6, n_constraints=5):
    """Random constraint net over mixed domains; div avoided near zero."""
    store = DomainStore()
    ids = [store.new_var(random_domain(rng)) for _ in range(n_vars)]
    posted = []
    for _ in range(n_constraints):
        kind = rng.choice(["eq", "leq", "add", "sub", "mul"])
        if kind in ("eq", "leq"):
            args = tuple(rng.sample(ids, 2))
        else:
            args = tuple(rng.sample(ids, 3))
        posted.append(Constraint(kind, args))
    return store, ids, posted


class TestPropagateFixpoint:
    def test_empty_store_consistent(self):
        assert DomainStore().propagate() == CONSISTENT

    def test_idempotence_and_contraction(self, rng):
        for _ in range(120):
            store, ids, posted = _random_network(rng)
            before = [store.domains[v] for v in ids]
            for c in posted:
                store.post(c)
            status = store.propagate()
            if status == FAILED:
                continue
            after = [store.domains[v] for v in ids]
            for b, a in zip(before, after):
                assert a.lo.q >= b.lo.q - 1e-9
                assert a.hi.q <= b.hi.q + 1e-9
                assert check_dominance(a)
            assert store.propagate() == CONSISTENT
            assert [store.domains[v] for v in ids] == after

    def test_cdf_bounds_only_tighten_at_fixed_quantiles(self, rng):
        for _ in range(80):
            store, ids, posted = _random_network(rng)
            before = [store.domains[v] for v in ids]
            for c in posted:
                store.post(c)
            if store.propagate() == FAILED:
                continue
            for b, vid in zip(before, ids):
                a = store.domains[vid]
                for i in range(5):
                    x = a.lo.q + (a.hi.q - a.lo.q) * i / 4.0
                    bl, bu = project(b, x)
                    al, au = project(a, x)
                    assert au <= bu + 1e-9
                    assert al >= bl - 1e-9

    def test_posting_order_does_not_change_fixpoint(self, rng):
        for _ in range(60):
            seed = rng.randrange(10**9)
            results = []
            for shuffle_seed in range(3):
                regen = random.Random(seed)
                store, ids, posted = _random_network(regen, n_vars=8, n_constraints=6)
                shuffled = list(posted)
                random.Random(shuffle_seed).shuffle(shuffled)
                for c in shuffled:
                    store.post(c)
                status = store.propagate()
                results.append(
                    (status, None)
                    if status == FAILED
                    else (status, [store.domains[v] for v in ids])
                )
            first = results[0]
            for other in results[1:]:
                assert other[0] == first[0]
                if first[1] is None:
                    continue
                for a, b in zip(first[1], other[1]):
                    for pa, pb in ((a.lo, b.lo), (a.hi, b.hi)):
                        assert pa.q == pytest.approx(pb.q, abs=1e-9)
                        assert pa.f == pytest.approx(pb.f, abs=1e-9)
                        assert pa.s == pytest.approx(pb.s, abs=1e-9)

    def test_convex_run_contains_pbox_run(self, rng):
        for _ in range(80):
            seed = rng.randrange(10**9)
            regen = random.Random(seed)
            store_p, ids_p, posted = _random_network(regen, n_vars=6, n_constraints=5)
            store_c = DomainStore()
            ids_c = [
                store_c.new_var(
                    convex_interval(store_p.domains[v].lo.q, store_p.domains[v].hi.q)
                )
                for v in ids_p
            ]
            for c in posted:
                store_p.post(c)
                store_c.post(c)
            status_p = store_p.propagate()
            status_c = store_c.propagate()
            if status_c == FAILED:
                continue
            assert status_p in (CONSISTENT, FAILED)
            if status_p == FAILED:
                continue
            for vp, vc in zip(ids_p, ids_c):
                assert store_c.domains[vc].lo.q <= store_p.domains[vp].lo.q + 1e-9
                assert store_c.domains[vc].hi.q >= store_p.domains[vp].hi.q - 1e-9

    def test_failed_and_interrupted_runs_leave_projected_domains(self):
        # x + y = z narrows the upper bounds of x and y, then a second
        # constraint fails, sees a divisor that straddles zero, or overflows.
        # The narrowed bounds are projected onto the cdf lines all the same.
        # The expected domains come from an engine that slid the cdf points
        # at every contraction.
        x = PboxInterval(CdfPoint(10.0, 0.14, 0.016), CdfPoint(80.0, 0.49, 0.06))
        y = PboxInterval(CdfPoint(20.0, 0.06, 0.025), CdfPoint(90.0, 0.9, 0.014))
        narrowed = [
            PboxInterval(CdfPoint(10.0, 0.14, 0.016), CdfPoint(40.0, 0.0, 0.06)),
            PboxInterval(CdfPoint(20.0, 0.06, 0.025), CdfPoint(50.0, 0.33999999999999997, 0.014)),
            convex_interval(40.0, 60.0),
        ]
        cases = [
            # y - 0 = t with t in [55, 70] wipes out y.
            ([point_mass(0.0), convex_interval(55.0, 70.0)], Constraint("sub", (1, 3, 4)), FAILED),
            (
                [convex_interval(1.0, 2.0), convex_interval(-1.0, 1.0), convex_interval(-10.0, 10.0)],
                Constraint("div", (3, 4, 5)),
                DivisorStraddlesZero,
            ),
            ([convex_interval(1e200, 2e200), convex_interval(0.0, 1.0)], Constraint("mul", (3, 3, 4)), ValueError),
        ]
        for extra, closing, outcome in cases:
            store, _ = _store_with(x, y, convex_interval(40.0, 60.0), *extra)
            store.post(Constraint("add", (0, 1, 2)))
            store.post(closing)
            if outcome == FAILED:
                assert store.propagate() == FAILED
            else:
                with pytest.raises(outcome):
                    store.propagate()
                assert store.status == CONSISTENT
            assert _bits(store.domains) == _bits(narrowed + extra)


class TestCloneAndTighten:
    def test_clone_is_independent(self):
        store, (x, y) = _store_with(convex_interval(0, 10), convex_interval(0, 10))
        store.post(Constraint("leq", (x, y)))
        store.propagate()
        twin = store.clone()
        twin.tighten(x, convex_interval(5.0, 10.0))
        twin.propagate()
        assert store.domains[x].lo.q == 0.0
        assert twin.domains[x].lo.q == 5.0

    def test_post_after_clone_does_not_leak(self):
        store, (x, y, z) = _store_with(
            convex_interval(0, 10), convex_interval(0, 10), convex_interval(0, 30)
        )
        twin = store.clone()
        twin.post(Constraint("add", (x, y, z)))
        assert len(store.constraints) == 0
        assert len(twin.constraints) == 1

    def test_fork_propagates_like_a_store_posted_anew(self):
        # A fork of a solved store restarts from its own domains over the
        # same constraints, queued in posting order, with zeroed counters.
        domains = [convex_interval(0.0, 10.0), convex_interval(2.0, 10.0), convex_interval(0.0, 8.0)]
        store, (x, y, z) = _store_with(*domains)
        store.post(Constraint("leq", (x, y)))
        store.post(Constraint("add", (x, y, z)))
        store.propagate()
        narrower = [convex_interval(1.0, 3.0), *domains[1:]]
        fresh, _ = _store_with(*narrower)
        fresh.post(Constraint("leq", (x, y)))
        fresh.post(Constraint("add", (x, y, z)))
        fork = store.fork(list(narrower))
        assert fork.stats == dict.fromkeys(store.stats, 0)
        assert fork.propagate() == fresh.propagate() == CONSISTENT
        assert _bits(fork.domains) == _bits(fresh.domains)
        assert fork.stats == fresh.stats
        fork.post(Constraint("eq", (x, z)))
        assert len(store.constraints) == 2
        with pytest.raises(ValueError):
            store.fork(domains[:2])

    def test_tighten_to_infeasible_fails_store(self):
        store, (x,) = _store_with(convex_interval(0, 10))
        assert store.tighten(x, convex_interval(20.0, 30.0)) == FAILED
        assert store.status == FAILED


class TestModelJson:
    def test_round_trip_solution(self):
        model = {
            "vars": [
                {"name": "x", "domain": EX3_I.to_dict()},
                {"name": "y", "range": [20, 90]},
                {"name": "z", "value": 4},
            ],
            "constraints": [{"kind": "leq", "args": ["x", "y"]}],
        }
        store, order = parse_model(model)
        store.propagate()
        out = solution_dict(store, order)
        assert out["status"] == "consistent"
        assert [v["name"] for v in out["vars"]] == ["x", "y", "z"]
        assert out["vars"][2]["domain"]["lo"]["q"] == 4.0

    def test_unknown_variable_rejected(self):
        model = {
            "vars": [{"name": "x", "range": [0, 1]}],
            "constraints": [{"kind": "leq", "args": ["x", "nope"]}],
        }
        with pytest.raises(ValueError):
            parse_model(model)

    def test_unknown_kind_rejected(self):
        model = {
            "vars": [{"name": "x", "range": [0, 1]}],
            "constraints": [{"kind": "alldiff", "args": ["x"]}],
        }
        with pytest.raises(ValueError):
            parse_model(model)

    def test_duplicate_names_rejected(self):
        model = {"vars": [{"name": "x", "range": [0, 1]}, {"name": "x", "value": 2}]}
        with pytest.raises(ValueError):
            parse_model(model)
