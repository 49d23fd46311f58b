"""Acceptance suite: one test per shipped guarantee, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest output.
"""

import json
import math
import random
import time
from itertools import product
from pathlib import Path

import pytest

from pboxcdf.arith import QuantileInterval, slide
from pboxcdf.engine import CONSISTENT, FAILED, Constraint, DomainStore
from pboxcdf.inventory import default_instance, evaluate_schedule, run_benchmark, search
from pboxcdf.pbox import (
    CdfPoint,
    Inconsistent,
    ObservationSet,
    PboxInterval,
    check_dominance,
    convex_interval,
    empirical_cdf,
    envelope,
    lower_at,
    meet,
    point_mass,
    project,
    repair_dominance,
    upper_at,
)

from conftest import (
    random_domain,
    random_envelope,
    random_observations,
    random_scalar_instance,
    strip_keys,
)


def _verdict(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def bench_reports():
    pbox = run_benchmark([7, 10, 24], seed=42, model="pbox")
    convex = run_benchmark([7, 10, 24], seed=42, model="convex")
    return pbox, convex


def test_criterion_1_projection_reproduction():
    dom = PboxInterval(CdfPoint(5.17, 0.1, 1.2), CdfPoint(6.36, 0.7, 0.57))
    f_low, f_up = project(dom, 5.5)
    assert f_low == pytest.approx(0.2098, abs=0.005)
    assert f_up == pytest.approx(0.496, abs=0.005)
    # The published rounded bounds.
    assert f_low == pytest.approx(0.2, abs=0.01)
    assert f_up == pytest.approx(0.5, abs=0.005)
    _verdict("criterion 1 projection", f"f_low={f_low:.6f} f_up={f_up:.6f}")


def test_criterion_2_ordering_reproduction():
    store = DomainStore()
    vi = store.new_var(PboxInterval(CdfPoint(10, 0.14, 0.016), CdfPoint(80, 0.49, 0.06)))
    vj = store.new_var(PboxInterval(CdfPoint(20, 0.06, 0.025), CdfPoint(90, 0.9, 0.014)))
    x = store.new_var(convex_interval(10.0, 90.0))
    store.post(Constraint("leq", (vi, x)))
    store.post(Constraint("leq", (x, vj)))
    assert store.propagate() == CONSISTENT
    dom = store.domains[x]
    assert (dom.lo.q, dom.lo.f, dom.lo.s) == (10.0, 0.14, 0.016)
    assert (dom.hi.q, dom.hi.f, dom.hi.s) == (90.0, 0.9, 0.014)
    _verdict("criterion 2 ordering", "stored triplets match bit-level")


def test_criterion_3_ternary_addition_flow():
    rng = random.Random(3141)
    checked = 0
    for _ in range(4000):
        if checked >= 1000:
            break
        a = random_envelope(rng)
        b = random_envelope(rng)
        sum_lo, sum_hi = a.lo.q + b.lo.q, a.hi.q + b.hi.q
        width = max(sum_hi - sum_lo, 1.0)
        shift = rng.uniform(-0.4 * width, 0.4 * width)
        k_obs = random_observations(rng)
        offset = sum_lo + shift - k_obs.entries[0][0]
        shifted = ObservationSet(tuple((q + offset, c) for q, c in k_obs.entries))
        k = envelope(empirical_cdf(shifted))
        if k.lo.q > sum_hi or k.hi.q < sum_lo:
            continue

        store = DomainStore()
        x = store.new_var(a)
        y = store.new_var(b)
        z = store.new_var(k)
        store.post(Constraint("add", (x, y, z)))
        assert store.propagate() == CONSISTENT

        z_expect = (max(k.lo.q, sum_lo), min(k.hi.q, sum_hi))
        x_expect = (max(a.lo.q, k.lo.q - b.hi.q), min(a.hi.q, k.hi.q - b.lo.q))
        y_expect = (max(b.lo.q, k.lo.q - a.hi.q), min(b.hi.q, k.hi.q - a.lo.q))
        for vid, (lo, hi) in ((z, z_expect), (x, x_expect), (y, y_expect)):
            dom = store.domains[vid]
            assert dom.lo.q == pytest.approx(lo, abs=1e-9)
            assert dom.hi.q == pytest.approx(hi, abs=1e-9)
        checked += 1
    assert checked >= 1000
    _verdict("criterion 3 ternary addition flow", f"{checked} consistent triples, 0 violations")


def test_criterion_4_dominance_safety():
    rng = random.Random(2718)
    checked = 0

    def check(dom):
        nonlocal checked
        checked += 1
        assert check_dominance(dom)

    for _ in range(3500):
        check(random_envelope(rng))

    merged = 0
    for _ in range(20000):
        if merged >= 3000:
            break
        a = random_domain(rng)
        b = random_domain(rng)
        try:
            check(meet(a, b))
            merged += 1
        except Inconsistent:
            pass

    slid = 0
    for _ in range(20000):
        if slid >= 3000:
            break
        dom = random_domain(rng)
        width = max(dom.hi.q - dom.lo.q, 1.0)
        lo = dom.lo.q + rng.uniform(-0.5, 0.6) * width
        try:
            check(slide(dom, QuantileInterval(lo, lo + rng.uniform(0.0, 1.2) * width)))
            slid += 1
        except Inconsistent:
            pass

    repaired = 0
    for _ in range(20000):
        if repaired >= 1200:
            break
        lo_q = rng.uniform(-20, 20)
        hi_q = lo_q + rng.uniform(0.0, 30.0)
        dom = PboxInterval(
            CdfPoint(lo_q, rng.random(), rng.uniform(0, 0.4)),
            CdfPoint(hi_q, rng.random(), rng.uniform(0, 0.4)),
        )
        try:
            fixed = repair_dominance(dom)
        except Inconsistent:
            continue
        assert fixed.lo.q >= dom.lo.q - 1e-9
        assert fixed.hi.q <= dom.hi.q + 1e-9
        check(fixed)
        repaired += 1
    assert repaired >= 1200

    steps = 0
    for _ in range(3000):
        if steps >= 2000:
            break
        store = DomainStore()
        ids = [store.new_var(random_domain(rng)) for _ in range(6)]
        for _ in range(5):
            kind = rng.choice(["eq", "leq", "add", "sub", "mul"])
            args = tuple(rng.sample(ids, 2 if kind in ("eq", "leq") else 3))
            store.post(Constraint(kind, args))
        if store.propagate() == FAILED:
            continue
        for vid in ids:
            check(store.domains[vid])
            steps += 1

    assert checked >= 10000
    _verdict("criterion 4 dominance safety", f"{checked} domains checked")


def test_criterion_5_search_matches_enumeration():
    rng = random.Random(1618)
    exact_matches = 0
    for _ in range(200):
        inst = random_scalar_instance(rng)
        best_key = None
        for flags in product((False, True), repeat=inst.horizon):
            report = evaluate_schedule(inst, flags)
            if report is None:
                continue
            key = (report.tc.lo.q, report.replenishments, flags)
            if best_key is None or key < best_key:
                best_key = key
        result = search(inst)
        if best_key is None:
            assert result.status == "infeasible"
        else:
            assert result.status == "optimal"
            assert result.best.tc.lo.q == best_key[0]
            assert result.best.schedule == best_key[2]
            exact_matches += 1
    assert exact_matches >= 150
    _verdict(
        "criterion 5 search oracle",
        f"200 instances, {exact_matches} feasible exact matches",
    )


def test_criterion_6_containment_and_cdf_tightening(bench_reports):
    pbox_report, convex_report = bench_reports
    for row in pbox_report["rows"]:
        assert row["status"] == "optimal"
        cont = row["containment"]
        assert cont["hull_contained"]
        assert cont["resolved_contained"]
        f_low, f_up = cont["tc_mid_cdf_bounds"]
        assert 0.0 < f_low <= f_up < 1.0
    for row in convex_report["rows"]:
        assert row["status"] == "optimal"
        best = row["best"]
        dom = PboxInterval.from_dict(best["tc"])
        mid = 0.5 * (dom.lo.q + dom.hi.q)
        f_low, f_up = project(dom, mid)
        assert (f_low, f_up) == (0.0, 1.0)
    mids = [
        tuple(row["containment"]["tc_mid_cdf_bounds"]) for row in pbox_report["rows"]
    ]
    _verdict(
        "criterion 6 containment",
        "horizons 7/10/24 contained; mid cdf bounds "
        + ", ".join(f"({lo:.3f},{up:.3f})" for lo, up in mids),
    )


def _best_times(rounds=20):
    # The least wall time of the seed-42 searches at h7, h10 and h24 under
    # each model, over rounds that each run all six once, so that a burst of
    # load slows one run of each search rather than every run of one.
    instances = [default_instance(h, 42) for h in (7, 10, 24)]
    best = {model: [math.inf] * len(instances) for model in ("pbox", "convex")}
    for _ in range(rounds):
        for model, times in best.items():
            for k, inst in enumerate(instances):
                started = time.perf_counter()
                search(inst, mode=model)
                times[k] = min(times[k], time.perf_counter() - started)
    return best


def test_criterion_7_tractability(bench_reports):
    pbox_report, convex_report = bench_reports
    pbox_24 = next(r for r in pbox_report["rows"] if r["horizon"] == 24)
    convex_24 = next(r for r in convex_report["rows"] if r["horizon"] == 24)
    assert pbox_24["timing"]["wall_time_s"] + convex_24["timing"]["wall_time_s"] <= 0.1
    # A search takes milliseconds, so one timing can be out of order by
    # noise alone; the ratio and the ordering compare best-of-20 times.
    best = _best_times()
    t_pbox, t_convex = best["pbox"][-1], best["convex"][-1]
    assert t_pbox <= 2.0 * t_convex
    for times in best.values():
        assert times == sorted(times)
    _verdict(
        "criterion 7 tractability",
        f"t=24 pbox {t_pbox * 1e3:.1f}ms vs convex {t_convex * 1e3:.1f}ms (best of 20), "
        f"ratio {t_pbox / t_convex:.2f}",
    )


@pytest.mark.parametrize("index, model", [(0, "pbox"), (1, "convex")])
def test_h24_results_match_golden(bench_reports, index, model):
    # The seeded h24 row without counters and timings, stored as JSON
    # (which round-trips floats exactly).
    row = next(r for r in bench_reports[index]["rows"] if r["horizon"] == 24)
    golden = Path(__file__).parent / "data" / f"bench_h24_seed42_{model}.json"
    fields = strip_keys(row, ("timing", "wall_time_s", "alloc_counters", "stats"))
    assert fields == json.loads(golden.read_text())


def test_criterion_8_envelope_tightness():
    rng = random.Random(5772)
    for _ in range(1000):
        obs = random_observations(rng)
        sc = empirical_cdf(obs)
        dom = envelope(sc)

        prev = 0.0
        for q, f in sc.steps:
            assert upper_at(dom.lo, q) >= f - 1e-9
            assert lower_at(dom.hi, q) <= prev + 1e-9
            prev = f

        shrunk_up = CdfPoint(dom.lo.q, dom.lo.f, dom.lo.s * 0.95)
        assert any(upper_at(shrunk_up, q) < f - 1e-12 for q, f in sc.steps)

        shrunk_low = CdfPoint(dom.hi.q, dom.hi.f, dom.hi.s * 0.95)
        prev = 0.0
        broken = False
        for q, f in sc.steps:
            if lower_at(shrunk_low, q) > prev + 1e-12:
                broken = True
                break
            prev = f
        assert broken
    _verdict("criterion 8 envelope tightness", "1000 observation sets")
