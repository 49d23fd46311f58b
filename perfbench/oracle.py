"""Output checks that share no code with the solver.

Every function here works on plain data: numbers, lists and the dicts the
program's ``to_dict`` / ``solution_dict`` produce.  Cdf lines are evaluated
with this module's own arithmetic, never with ``pboxcdf``.  Each check
returns a list of human-readable problems; an empty list means the output
passed.
"""

from __future__ import annotations

# Quantile comparisons are relative to the magnitude involved; cdf values
# live in [0, 1] and use an absolute tolerance.
Q_TOL = 1e-7
F_TOL = 1e-9


def q_tol(*values: float) -> float:
    return Q_TOL * (1.0 + max(abs(v) for v in values))


def upper_line(lo: dict, x: float) -> float:
    """Clipped upper cdf bound: the line issued from the low point."""
    return min(max(lo["f"] + lo["s"] * (x - lo["q"]), 0.0), 1.0)


def lower_line(hi: dict, x: float) -> float:
    """Clipped lower cdf bound: the line issued from the high point."""
    return min(max(hi["f"] - hi["s"] * (hi["q"] - x), 0.0), 1.0)


def _breakpoints(domain: dict) -> list[float]:
    # Both clipped lines are linear between these points, so the trapezoid
    # rule over them integrates the gap exactly.
    lo, hi = domain["lo"], domain["hi"]
    a, b = lo["q"], hi["q"]
    xs = {a, b}
    if lo["s"] > 0.0:
        xs.add(lo["q"] + (1.0 - lo["f"]) / lo["s"])
        xs.add(lo["q"] - lo["f"] / lo["s"])
    if hi["s"] > 0.0:
        xs.add(hi["q"] - hi["f"] / hi["s"])
        xs.add(hi["q"] + (1.0 - hi["f"]) / hi["s"])
    return sorted(x for x in xs if a <= x <= b)


def cdf_gap(domain: dict) -> float:
    """Mean vertical distance between the clipped upper and lower lines over
    the domain's quantile range; 1 for a bare convex range."""
    lo, hi = domain["lo"], domain["hi"]
    a, b = lo["q"], hi["q"]
    if b <= a:
        raise ValueError("cdf_gap needs a range of non-zero width")
    xs = _breakpoints(domain)
    area = 0.0
    for x0, x1 in zip(xs, xs[1:]):
        g0 = upper_line(lo, x0) - lower_line(hi, x0)
        g1 = upper_line(lo, x1) - lower_line(hi, x1)
        area += 0.5 * (g0 + g1) * (x1 - x0)
    return area / (b - a)


def cdf_violations(domain: dict, support: list[tuple[float, float]], label: str) -> list[str]:
    """Problems with an exact discrete distribution against a domain's lines.

    ``support`` lists (value, weight) pairs whose weights sum to 1.  The
    upper line must reach F(c) at every atom c, and the lower line may not
    exceed F just below c.  Between atoms F is flat and both lines are
    nondecreasing, so the atoms are the only places either can first fail.
    """
    lo, hi = domain["lo"], domain["hi"]
    problems = []
    atoms: dict[float, float] = {}
    for value, weight in support:
        atoms[value] = atoms.get(value, 0.0) + weight
    below = 0.0
    for c in sorted(atoms):
        at = below + atoms[c]
        if upper_line(lo, c) < at - F_TOL:
            problems.append(
                f"{label}: upper cdf line {upper_line(lo, c):.12g} < exact cdf {at:.12g} at {c!r}"
            )
        if lower_line(hi, c) > below + F_TOL:
            problems.append(
                f"{label}: lower cdf line {lower_line(hi, c):.12g} > exact cdf {below:.12g} just below {c!r}"
            )
        below = at
    return problems


def dominance_violations(domain: dict, label: str, points: int = 17) -> list[str]:
    """Problems where the clipped lower line rises above the upper one on a
    grid of the domain's quantile range."""
    lo, hi = domain["lo"], domain["hi"]
    a, b = lo["q"], hi["q"]
    problems = []
    for i in range(points):
        x = a + (b - a) * i / (points - 1)
        if upper_line(lo, x) < lower_line(hi, x) - F_TOL:
            problems.append(
                f"{label}: lower line {lower_line(hi, x):.12g} above upper line "
                f"{upper_line(lo, x):.12g} at {x!r}"
            )
            break
    return problems


# -- scheduling ----------------------------------------------------------------


def exact_costs(case: dict, schedule: list[bool], orders: list[float]) -> tuple[list[list[float]], list[float]]:
    """Stock per cycle and total cost at every demand level.

    All cycles sit at one common level, as the model assumes: level j takes
    the j-th observed quantile of every cycle's demand.
    """
    levels = len(case["demands"][0])
    stocks, costs = [], []
    for j in range(levels):
        stock = case["initial_stock"]
        cost = 0.0
        per_cycle = []
        for t, observations in enumerate(case["demands"]):
            stock += orders[t] - observations[j][0]
            per_cycle.append(stock)
            if schedule[t]:
                cost += case["ordering_cost"]
            cost += case["holding_cost"] * stock + case["unit_cost"] * orders[t]
        stocks.append(per_cycle)
        costs.append(cost)
    return stocks, costs


def level_weights(case: dict) -> list[float]:
    counts = [count for _, count in case["demands"][0]]
    for observations in case["demands"]:
        if [count for _, count in observations] != counts:
            raise ValueError("common-level weights need equal counts in every cycle")
    total = sum(counts)
    return [count / total for count in counts]


def check_schedule(case: dict, best: dict) -> list[str]:
    """Check a reported best schedule against the exact per-level costs.

    ``best`` is ``ScheduleReport.to_dict()``: the schedule flags, the pinned
    order sizes as point domains per cycle, and the total-cost domain.
    """
    label = case["label"]
    schedule = [bool(flag) for flag in best["schedule"]]
    problems = []
    if len(schedule) != case["horizon"]:
        return [f"{label}: schedule has {len(schedule)} cycles, expected {case['horizon']}"]
    orders = []
    for t, cycle in enumerate(best["cycles"]):
        lo_q, hi_q = cycle["order"]["lo"]["q"], cycle["order"]["hi"]["q"]
        if lo_q != hi_q:
            problems.append(f"{label}: order {t + 1} is not pinned: [{lo_q!r}, {hi_q!r}]")
        orders.append(lo_q)
        if schedule[t]:
            if not case["x_min"] - q_tol(lo_q) <= lo_q <= case["x_max"] + q_tol(lo_q):
                problems.append(
                    f"{label}: order {t + 1} = {lo_q!r} outside [{case['x_min']}, {case['x_max']}]"
                )
        elif lo_q != 0.0:
            problems.append(f"{label}: cycle {t + 1} orders {lo_q!r} without replenishment")
    stocks, costs = exact_costs(case, schedule, orders)
    for j, per_cycle in enumerate(stocks):
        for t, stock in enumerate(per_cycle):
            if stock < -q_tol(stock, orders[t]):
                problems.append(f"{label}: stock {t + 1} = {stock!r} < 0 at demand level {j}")
    tc = best["tc"]
    tc_lo, tc_hi = tc["lo"]["q"], tc["hi"]["q"]
    for j, cost in enumerate(costs):
        tol = q_tol(cost)
        if not tc_lo - tol <= cost <= tc_hi + tol:
            problems.append(
                f"{label}: exact cost {cost!r} at level {j} outside total-cost range "
                f"[{tc_lo!r}, {tc_hi!r}]"
            )
    problems += cdf_violations(tc, list(zip(costs, level_weights(case))), f"{label} total cost")
    return problems


def cost_spread(case: dict, best: dict) -> float:
    """Spread of the exact total cost over the demand levels."""
    schedule = [bool(flag) for flag in best["schedule"]]
    orders = [cycle["order"]["lo"]["q"] for cycle in best["cycles"]]
    _, costs = exact_costs(case, schedule, orders)
    return max(costs) - min(costs)


def check_pbox_claims(case: dict, best: dict, convex_tc: dict) -> list[str]:
    """The paper's two claims for one schedule: the p-box total-cost range
    lies inside the convex one, and its cdf lines say more than [0, 1]."""
    label = case["label"]
    tc = best["tc"]
    problems = []
    lo, hi = tc["lo"]["q"], tc["hi"]["q"]
    c_lo, c_hi = convex_tc["lo"]["q"], convex_tc["hi"]["q"]
    if not (c_lo - q_tol(c_lo) <= lo and hi <= c_hi + q_tol(c_hi)):
        problems.append(
            f"{label}: p-box total cost [{lo!r}, {hi!r}] not inside convex [{c_lo!r}, {c_hi!r}]"
        )
    if hi > lo and not cdf_gap(tc) < 1.0:
        problems.append(f"{label}: p-box total cost carries no cdf information")
    return problems


# -- constraint networks ---------------------------------------------------------


def solution_ranges(solution: dict) -> dict[str, tuple[float, float]]:
    """Quantile range of every variable of a solution."""
    return {
        var["name"]: (var["domain"]["lo"]["q"], var["domain"]["hi"]["q"])
        for var in solution["vars"]
    }


def check_bare_solution(net: dict, solution: dict) -> list[str]:
    """A bare-range network keeps every hidden scenario inside every range."""
    label = net["label"] + "/bare"
    if solution["status"] != "consistent":
        return [f"{label}: status {solution['status']!r} on a satisfiable network"]
    problems = []
    ranges = solution_ranges(solution)
    for name, values in net["values"].items():
        lo, hi = ranges[name]
        for k, value in enumerate(values):
            tol = q_tol(value)
            if not lo - tol <= value <= hi + tol:
                problems.append(
                    f"{label}: {name} range [{lo!r}, {hi!r}] lost scenario {k} value {value!r}"
                )
                break
    return problems


def input_ranges(model: dict) -> dict[str, tuple[float, float]]:
    """Quantile range of every variable of a model file."""
    out = {}
    for spec in model["vars"]:
        if "domain" in spec:
            out[spec["name"]] = (spec["domain"]["lo"]["q"], spec["domain"]["hi"]["q"])
        else:
            out[spec["name"]] = tuple(spec["range"])
    return out


def check_envelope_solution(
    net: dict,
    inputs: dict[str, tuple[float, float]],
    solution: dict,
    bare: dict[str, tuple[float, float]],
) -> list[str]:
    """An envelope network's outputs stay inside their input ranges and
    inside the ranges of the bare-range solution of the same network
    (``bare``, as :func:`solution_ranges` gives them), and keep dominance."""
    label = net["label"] + "/envelope"
    if solution["status"] != "consistent":
        return [f"{label}: status {solution['status']!r} on a satisfiable network"]
    problems = []
    for var in solution["vars"]:
        name, domain = var["name"], var["domain"]
        lo, hi = domain["lo"]["q"], domain["hi"]["q"]
        for what, (o_lo, o_hi) in (("input", inputs[name]), ("bare-range solution", bare[name])):
            if not (o_lo - q_tol(o_lo) <= lo and hi <= o_hi + q_tol(o_hi)):
                problems.append(
                    f"{label}: {name} [{lo!r}, {hi!r}] not inside its {what} [{o_lo!r}, {o_hi!r}]"
                )
        problems += dominance_violations(domain, f"{label} {name}")
    return problems
