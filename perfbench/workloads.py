"""Seeded inputs, timed operations and output checks of each workload.

The benchmark generates every input itself from ``--seed``; the program only
receives the generated instances and model files.  Nothing here imports
``pboxcdf`` at module level: :func:`import_program` does, so that set-up time
covers the import.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import random
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

import oracle

PROGRAM_MODULES = ("pbox", "arith", "engine", "inventory")

# -- scheduling instances ----------------------------------------------------------

# One round of the search workloads: (horizon, instances) pairs of a fixed
# catalogue of 100 instances.  The horizons are 7 and 10, two of the
# defaults of ``pboxcdf bench``, and 12, where the search was profiled.  The
# counts give each horizon about a third of the round's time: one search
# takes about 0.03 s at h7, 0.12 s at h10 and 0.19 s at h12 (reference
# seconds, mean over the catalogue's instances).  The third default, h24, is
# left out: one h24 search took 5-67 s, longer than a whole run.  The
# catalogue does not depend on the seed: the search tree of one instance is
# chaotic in its demand values (a 0.2% jitter of the means changes the node
# count up to threefold), so a seeded instance list would measure the luck of
# the draw.  The seed sets the order of the operations within the round.
SEARCH_CATALOGUE = ((7, 71), (10, 18), (12, 11))
DEMAND_LEVELS = 5
# The peak memory of this many operations is measured, under tracemalloc,
# which slows a search about fivefold: the first instances of the longest
# horizon, and the longest model files.
MEMORY_OPS = 5
ORDERING_COST = 250.0
HOLDING_COST = 2.0
UNIT_COST = 5.5
X_MIN = 1.0
X_MAX = 100.0

# -- constraint networks -----------------------------------------------------------

# One round of solve-models: this many networks, each solved once with bare
# input ranges and once with observation envelopes.
NETWORKS_PER_ROUND = 50
NET_INPUTS = 48
NET_VARS = 420
NET_LEVELS = 6
# Share of steps that add an eq twin or try a leq pair instead of an
# arithmetic constraint.
TWIN_SHARE = 0.12
LEQ_SHARE = 0.12
ARITH_WEIGHTS = {"add": 4, "sub": 3, "mul": 2, "div": 1}
PAD_FACTORS = (0.0, 0.05, 0.3, 1.0, 4.0)
MAX_MAGNITUDE = 1e5


def import_program() -> SimpleNamespace:
    """Import ``pboxcdf`` afresh, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "pboxcdf" or m.startswith("pboxcdf.")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{name: importlib.import_module(f"pboxcdf.{name}") for name in PROGRAM_MODULES}
    )


def catalogue_case(horizon: int, index: int) -> dict:
    """One scheduling instance of the catalogue as plain data: the demand
    observations of every cycle plus the scalar costs and order bounds.

    Each cycle draws a mean uniformly from [20, 40] and observes five
    distinct quantiles mean * (1 + 0.015 k) for integers k in [-20, 20].
    The five occurrence counts (each 1-4) are drawn once per instance and
    shared by its cycles, so that level j of every cycle has the same weight.
    """
    rng = random.Random(f"catalogue-{horizon}-{index}")
    counts = [rng.randint(1, 4) for _ in range(DEMAND_LEVELS)]
    demands = []
    for _ in range(horizon):
        mean = rng.uniform(20.0, 40.0)
        steps = sorted(rng.sample(range(-20, 21), DEMAND_LEVELS))
        demands.append([(mean * (1.0 + 0.015 * k), count) for k, count in zip(steps, counts)])
    return {
        "label": f"h{horizon}/{index}",
        "horizon": horizon,
        "index": index,
        "demands": demands,
        "ordering_cost": ORDERING_COST,
        "holding_cost": HOLDING_COST,
        "unit_cost": UNIT_COST,
        "initial_stock": 0.0,
        "x_min": X_MIN,
        "x_max": X_MAX,
    }


def catalogue_order(seed: int) -> list[tuple[int, int]]:
    """(horizon, index) of every catalogue instance, in the order the seed
    gives."""
    order = [(horizon, index) for horizon, count in SEARCH_CATALOGUE for index in range(count)]
    random.Random(f"order-{seed}").shuffle(order)
    return order


def _padded(rng: random.Random, values: list[float], keep_positive: bool) -> list[float]:
    lo, hi = min(values), max(values)
    width = max(hi - lo, 0.01 * (1.0 + abs(hi)))
    pad_lo = rng.choice(PAD_FACTORS) * width * rng.random()
    pad_hi = rng.choice(PAD_FACTORS) * width * rng.random()
    if keep_positive and lo > 0.0:
        pad_lo = min(pad_lo, 0.5 * lo)
    return [lo - pad_lo, hi + pad_hi]


def network(rng: random.Random, label: str) -> dict:
    """A satisfiable network built around hidden scenarios.

    All quantities are functions of one common level: level k holds one
    concrete value per variable and every constraint holds at every level.
    Inputs rise with the level, so their observations at the levels (with
    per-level counts) form a staircase whose envelope is a valid p-box.
    Derived variables get their own padded ranges; ``eq`` twins and ``leq``
    pairs carry cdf lines between variables.
    """
    counts = [rng.randint(1, 4) for _ in range(NET_LEVELS)]
    levels = [u / 1000.0 for u in sorted(rng.sample(range(1, 1000), NET_LEVELS))]
    names: list[str] = []
    values: dict[str, list[float]] = {}
    specs: dict[str, list[float]] = {}
    inputs: dict[str, list[tuple[float, int]]] = {}
    constraints: list[dict] = []

    def new_var(vals: list[float], rng_spec: list[float]) -> str:
        name = f"v{len(names)}"
        names.append(name)
        values[name] = vals
        specs[name] = rng_spec
        return name

    def pick() -> str:
        return rng.choice(names[-8:]) if rng.random() < 0.5 else rng.choice(names)

    # Operands that keep mul and div away from zero and overflow.
    factors: list[str] = []
    dividends: list[str] = []
    divisors: list[str] = []

    def register(name: str) -> None:
        lo, hi = specs[name]
        if lo > 0.0:
            dividends.append(name)
            if hi <= 300.0:
                factors.append(name)
        if lo >= 1.0:
            divisors.append(name)

    for _ in range(NET_INPUTS):
        base = rng.uniform(2.0, 60.0)
        slope = rng.uniform(0.5, 20.0)
        vals = [base + slope * u for u in levels]
        name = new_var(vals, [vals[0], vals[-1]])
        inputs[name] = list(zip(vals, counts))
        register(name)

    kinds = list(ARITH_WEIGHTS)
    weights = list(ARITH_WEIGHTS.values())
    while len(names) < NET_VARS:
        roll = rng.random()
        if roll < TWIN_SHARE:
            of = rng.choice(names)
            twin = new_var(list(values[of]), _padded(rng, values[of], specs[of][0] > 0.0))
            constraints.append({"kind": "eq", "args": [of, twin]})
            register(twin)
            continue
        if roll < TWIN_SHARE + LEQ_SHARE:
            a, b = rng.sample(names, 2)
            if all(x <= y for x, y in zip(values[a], values[b])):
                constraints.append({"kind": "leq", "args": [a, b]})
            elif all(y <= x for x, y in zip(values[a], values[b])):
                constraints.append({"kind": "leq", "args": [b, a]})
            continue
        kind = rng.choices(kinds, weights)[0]
        if kind == "mul":
            x, y = rng.choice(factors), rng.choice(factors)
            vals = [p * q for p, q in zip(values[x], values[y])]
        elif kind == "div":
            x, y = rng.choice(dividends), rng.choice(divisors)
            vals = [p / q for p, q in zip(values[x], values[y])]
        else:
            x, y = pick(), pick()
            if kind == "add":
                vals = [p + q for p, q in zip(values[x], values[y])]
            else:
                vals = [p - q for p, q in zip(values[x], values[y])]
        if max(abs(v) for v in vals) > MAX_MAGNITUDE:
            continue
        z = new_var(vals, _padded(rng, vals, min(vals) > 0.0))
        constraints.append({"kind": kind, "args": [x, y, z]})
        register(z)

    return {
        "label": label,
        "names": names,
        "values": values,
        "ranges": specs,
        "inputs": inputs,
        "constraints": constraints,
    }


def network_models(net: dict, envelope_of: Callable) -> tuple[dict, dict]:
    """The bare-range and the envelope model file of one network.

    Both give derived variables the same padded ranges; they differ only in
    the inputs, which are bare observation ranges in one and observation
    envelopes in the other.
    """
    bare_vars, env_vars = [], []
    for name in net["names"]:
        bare_vars.append({"name": name, "range": list(net["ranges"][name])})
        if name in net["inputs"]:
            env_vars.append({"name": name, "domain": envelope_of(net["inputs"][name])})
        else:
            env_vars.append(bare_vars[-1])
    return (
        {"vars": bare_vars, "constraints": net["constraints"]},
        {"vars": env_vars, "constraints": net["constraints"]},
    )


# -- workloads ---------------------------------------------------------------------


@dataclass
class Prepared:
    """One round of operations plus the checks of their outputs.

    ``ops[i]()`` runs operation i and returns its output; ``check(i, out)``
    returns the problems found in that output.  The first check of
    operation i also stores its results' cdf gaps and width ratios under
    key i; later rounds repeat the same deterministic operation.
    ``memory_ops`` are the operations whose peak memory is measured, in
    the order they are measured: the :data:`MEMORY_OPS` with the largest
    inputs, in an order that does not depend on the seed where the inputs
    do not.
    """

    ops: list[Callable[[], object]]
    check: Callable[[int, object], list[str]]
    memory_ops: list[int]
    cdf_gaps: dict[int, list[float]] = field(default_factory=dict)
    width_ratios: dict[int, list[float]] = field(default_factory=dict)

    def quality(self) -> tuple[float, float] | None:
        """Mean cdf gap and mean width ratio over every result, or None
        before any operation has given a result."""
        gaps = [g for values in self.cdf_gaps.values() for g in values]
        ratios = [r for values in self.width_ratios.values() for r in values]
        if not gaps or not ratios:
            return None
        return sum(gaps) / len(gaps), sum(ratios) / len(ratios)


# Set-up is timed in pieces with a ``reference.Stopwatch``; without one the
# pieces are not timed.
UNTIMED = contextlib.nullcontext()


def program_instance(prog: SimpleNamespace, case: dict):
    """The program's instance object for one plain-data case."""
    return prog.inventory.InventoryInstance(
        horizon=case["horizon"],
        ordering_cost=case["ordering_cost"],
        holding_cost=case["holding_cost"],
        unit_cost=case["unit_cost"],
        demands=tuple(prog.pbox.ObservationSet(tuple(obs)) for obs in case["demands"]),
        initial_stock=case["initial_stock"],
        x_min=case["x_min"],
        x_max=case["x_max"],
    )


def prepare_search(prog: SimpleNamespace, seed: int, mode: str, stopwatch=UNTIMED) -> Prepared:
    cases, instances = [], []
    longest = max(horizon for horizon, _ in SEARCH_CATALOGUE)
    # One timed piece: an instance alone takes far less time than the
    # reference readings around it, and would be scaled by readings taken
    # with the reference's own data still in the caches.
    with stopwatch:
        for horizon, index in catalogue_order(seed):
            case = catalogue_case(horizon, index)
            cases.append(case)
            instances.append(program_instance(prog, case))
    convex_tc: dict[int, dict] = {}

    def problems(i: int, result) -> list[str]:
        case = cases[i]
        if result.status != "optimal" or result.best is None:
            return [f"{case['label']}: search status {result.status!r} on a feasible instance"]
        best = result.best.to_dict()
        found = oracle.check_schedule(case, best)
        if i not in prepared.cdf_gaps:
            tc = best["tc"]
            prepared.cdf_gaps[i] = [oracle.cdf_gap(tc)]
            prepared.width_ratios[i] = [(tc["hi"]["q"] - tc["lo"]["q"]) / oracle.cost_spread(case, best)]
        if mode == "pbox":
            if i not in convex_tc:
                convex = prog.inventory.evaluate_schedule(
                    instances[i], result.best.schedule, mode="convex"
                )
                convex_tc[i] = convex.tc.to_dict()
            found += oracle.check_pbox_claims(case, best, convex_tc[i])
        return found

    prepared = Prepared(
        ops=[(lambda inst=inst: prog.inventory.search(inst, mode=mode)) for inst in instances],
        check=problems,
        memory_ops=sorted(
            (i for i, case in enumerate(cases) if case["horizon"] == longest and case["index"] < MEMORY_OPS),
            key=lambda i: cases[i]["index"],
        ),
    )
    return prepared


def solve_text(prog: SimpleNamespace, text: str) -> dict:
    """The ``pboxcdf solve`` path without the disk: parse the model JSON,
    propagate to fixpoint and serialise the solution."""
    store, order = prog.engine.parse_model(json.loads(text))
    store.propagate()
    solution = prog.engine.solution_dict(store, order)
    json.dumps(solution, indent=2)
    return solution


def envelope_domain(prog: SimpleNamespace, observations) -> dict:
    """Domain JSON of the envelope of (quantile, count) observations, as
    ``pboxcdf ingest`` writes it."""
    pbox = prog.pbox
    return pbox.envelope(pbox.empirical_cdf(pbox.ObservationSet(tuple(observations)))).to_dict()


def prepare_solve(prog: SimpleNamespace, seed: int, stopwatch=UNTIMED) -> Prepared:
    rng = random.Random(f"solve-{seed}")
    # Operation 2n solves network n with bare input ranges and 2n + 1 with
    # envelopes.  Only what the checks need is kept: the model texts, the
    # input ranges and the hidden scenarios.
    scenarios, texts, inputs = [], [], []
    for n in range(NETWORKS_PER_ROUND):
        with stopwatch:
            net = network(rng, f"net{n}")
            for model in network_models(net, lambda obs: envelope_domain(prog, obs)):
                texts.append(json.dumps(model))
                inputs.append(oracle.input_ranges(model))
            scenarios.append({"label": net["label"], "values": net["values"]})
    bare_ranges: dict[int, dict] = {}

    def problems(i: int, solution: dict) -> list[str]:
        net = scenarios[i // 2]
        if i % 2 == 0:
            bare_ranges.setdefault(i // 2, oracle.solution_ranges(solution))
            found = oracle.check_bare_solution(net, solution)
        elif i // 2 in bare_ranges:
            found = oracle.check_envelope_solution(net, inputs[i], solution, bare_ranges[i // 2])
        else:
            found = [f"{net['label']}/envelope: no bare-range solution to compare with"]
        if i not in prepared.cdf_gaps:
            gaps, ratios = prepared.cdf_gaps[i], prepared.width_ratios[i] = [], []
            for var in solution["vars"]:
                domain = var["domain"]
                lo, hi = domain["lo"]["q"], domain["hi"]["q"]
                in_lo, in_hi = inputs[i][var["name"]]
                if hi > lo:
                    gaps.append(oracle.cdf_gap(domain))
                if in_hi > in_lo:
                    ratios.append((hi - lo) / (in_hi - in_lo))
        return found

    prepared = Prepared(
        ops=[(lambda text=text: solve_text(prog, text)) for text in texts],
        check=problems,
        memory_ops=sorted(range(len(texts)), key=lambda i: (-len(texts[i]), i))[:MEMORY_OPS],
    )
    return prepared


WORKLOADS: dict[str, Callable[..., Prepared]] = {
    "search-pbox": lambda prog, seed, stopwatch=UNTIMED: prepare_search(prog, seed, "pbox", stopwatch),
    "search-convex": lambda prog, seed, stopwatch=UNTIMED: prepare_search(prog, seed, "convex", stopwatch),
    "solve-models": prepare_solve,
}
