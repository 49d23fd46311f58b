#!/usr/bin/env python3
"""Shows that every output check of the benchmark has teeth.

    python3 perfbench/selftest.py

Solves one scheduling instance and one constraint network with the program,
asserts that the checks accept the real outputs, then corrupts each output
on purpose and asserts that the checks reject every corruption.  Exits 0
when all of that holds and 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import random
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def main() -> int:
    if not (SRC / "pboxcdf" / "__init__.py").is_file():
        print(f"error: no pboxcdf sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import oracle
    import workloads

    prog = workloads.import_program()
    failures: list[str] = []

    def expect(what: str, problems: list[str], rejected: bool) -> None:
        if bool(problems) != rejected:
            verdict = "accepted" if not problems else f"rejected ({problems[0]})"
            failures.append(f"{what}: {verdict}, expected {'rejection' if rejected else 'acceptance'}")

    # -- scheduling ----------------------------------------------------------
    case = workloads.catalogue_case(8, 0)
    inst = workloads.program_instance(prog, case)
    result = prog.inventory.search(inst, mode="pbox")
    best = result.best.to_dict()
    convex_tc = prog.inventory.evaluate_schedule(inst, result.best.schedule, mode="convex").tc.to_dict()
    expect("real schedule", oracle.check_schedule(case, best), False)
    expect("real p-box claims", oracle.check_pbox_claims(case, best, convex_tc), False)

    schedule = [bool(flag) for flag in best["schedule"]]
    orders = [cycle["order"]["lo"]["q"] for cycle in best["cycles"]]
    _, costs = oracle.exact_costs(case, schedule, orders)
    weights = oracle.level_weights(case)
    atoms = sorted(zip(costs, weights))
    lowest, highest = atoms[0][0], atoms[-1][0]

    def corrupted(edit) -> dict:
        bad = copy.deepcopy(best)
        edit(bad)
        return bad

    def shrink_hi(bad):
        bad["tc"]["hi"]["q"] = 0.5 * (lowest + highest)

    def shrink_lo(bad):
        bad["tc"]["lo"]["q"] = 0.5 * (lowest + highest)

    def upper_past_cdf(bad):
        # Upper line through half the exact cdf at the lowest cost.
        lo = bad["tc"]["lo"]
        target = 0.5 * atoms[0][1]
        lo["s"] = 0.0
        lo["f"] = target

    def lower_past_cdf(bad):
        # Lower line above the exact cdf just below the highest cost.
        hi = bad["tc"]["hi"]
        below = 1.0 - atoms[-1][1]
        hi["s"] = 0.0
        hi["f"] = below + 0.5 * atoms[-1][1]

    def order_over_cap(bad):
        t = schedule.index(True)
        bad["cycles"][t]["order"]["lo"]["q"] = bad["cycles"][t]["order"]["hi"]["q"] = case["x_max"] + 1.0

    def stock_below_zero(bad):
        t = schedule.index(True)
        bad["cycles"][t]["order"]["lo"]["q"] = bad["cycles"][t]["order"]["hi"]["q"] = case["x_min"]

    for what, edit in (
        ("total-cost range shrunk past the highest exact cost", shrink_hi),
        ("total-cost range shrunk past the lowest exact cost", shrink_lo),
        ("upper cdf line moved below the exact cdf", upper_past_cdf),
        ("lower cdf line moved above the exact cdf", lower_past_cdf),
        ("order above x_max", order_over_cap),
        ("order too small to keep stock non-negative", stock_below_zero),
    ):
        expect(what, oracle.check_schedule(case, corrupted(edit)), True)

    def widen_past_convex(bad):
        bad["tc"]["hi"]["q"] = convex_tc["hi"]["q"] + 1.0

    def vacuous_lines(bad):
        bad["tc"]["lo"].update(f=1.0, s=0.0)
        bad["tc"]["hi"].update(f=0.0, s=0.0)

    expect("p-box range wider than the convex one",
           oracle.check_pbox_claims(case, corrupted(widen_past_convex), convex_tc), True)
    expect("p-box lines that say nothing",
           oracle.check_pbox_claims(case, corrupted(vacuous_lines), convex_tc), True)

    # -- constraint networks ------------------------------------------------------
    net = workloads.network(random.Random("selftest"), "selftest")
    bare_model, env_model = workloads.network_models(net, lambda obs: workloads.envelope_domain(prog, obs))
    env_inputs = oracle.input_ranges(env_model)
    bare = workloads.solve_text(prog, json.dumps(bare_model))
    env = workloads.solve_text(prog, json.dumps(env_model))
    expect("real bare-range solution", oracle.check_bare_solution(net, bare), False)
    bare_ranges = oracle.solution_ranges(bare)
    expect("real envelope solution", oracle.check_envelope_solution(net, env_inputs, env, bare_ranges), False)

    # A variable whose scenarios differ, so a range can be cut between them.
    index, name = next(
        (i, var["name"])
        for i, var in enumerate(bare["vars"])
        if max(net["values"][var["name"]]) > min(net["values"][var["name"]]) + 1e-6
    )
    values = net["values"][name]

    def narrowed(solution: dict, lo=None, hi=None) -> dict:
        bad = copy.deepcopy(solution)
        domain = bad["vars"][index]["domain"]
        if lo is not None:
            domain["lo"]["q"] = lo
        if hi is not None:
            domain["hi"]["q"] = hi
        return bad

    middle = 0.5 * (min(values) + max(values))
    expect("bare range raised past the lowest scenario",
           oracle.check_bare_solution(net, narrowed(bare, lo=middle)), True)
    expect("bare range lowered past the highest scenario",
           oracle.check_bare_solution(net, narrowed(bare, hi=middle)), True)
    failed_status = dict(bare, status="failed")
    expect("bare status failed", oracle.check_bare_solution(net, failed_status), True)

    env_lo, env_hi = env["vars"][index]["domain"]["lo"]["q"], env["vars"][index]["domain"]["hi"]["q"]
    expect("envelope range wider than its input",
           oracle.check_envelope_solution(net, env_inputs, narrowed(env, hi=env_hi + 1e3), bare_ranges), True)
    expect("envelope range wider than the bare-range solution",
           oracle.check_envelope_solution(
               net, env_inputs, env, oracle.solution_ranges(narrowed(bare, lo=0.5 * (env_lo + env_hi)))
           ), True)

    def crossed_lines(solution: dict) -> dict:
        bad = copy.deepcopy(solution)
        domain = bad["vars"][index]["domain"]
        domain["lo"].update(f=0.0, s=0.0)
        domain["hi"].update(f=1.0, s=0.0)
        return bad

    expect("envelope lines crossed", oracle.check_envelope_solution(net, env_inputs, crossed_lines(env), bare_ranges), True)
    expect("envelope status failed",
           oracle.check_envelope_solution(net, env_inputs, dict(env, status="failed"), bare_ranges), True)

    # A bare-range operation that raised leaves its envelope operation
    # without a solution to compare with: that is a problem, not a crash.
    prepared = workloads.prepare_solve(prog, 0)
    expect("no result yet gives no quality", [] if prepared.quality() is None else ["quality"], False)
    expect("envelope solution without its bare-range solution",
           prepared.check(1, prepared.ops[1]()), True)

    for failure in failures:
        print(f"FAIL {failure}")
    print(f"selftest: {'ok' if not failures else f'{len(failures)} failures'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
