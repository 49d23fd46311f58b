"""Replenishment-scheduling benchmark over p-box cdf-interval domains.

A horizon of demand cycles is modelled as a constraint network: per-cycle
order and stock variables tied by flow balance, cost terms accumulated into
a total cost, and non-negativity as quantile lower bounds.  Search decides
the boolean replenishment schedule by depth-first branch and bound on a
lot-sizing bound, in arithmetic alone; the near-ties of the least cost are
resolved on bindings, with orders pinned to the cheapest covering sizes.
"""

from __future__ import annotations

import gc
import json
import math
import random
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .pbox import (
    TOLERANCE,
    CdfPoint,
    Inconsistent,
    ObservationSet,
    PboxInterval,
    convex_interval,
    empirical_cdf,
    envelope,
    intersect_quantiles,
    is_vacuous,
    json_number,
    load_observations_csv,
    meet,
    point_mass,
    project,
    reanchor,
    repair_dominance,
)
from .arith import mul_bounds
from .engine import FAILED, Constraint, DomainStore

MODES = ("pbox", "convex")

# Symmetric occurrence counts for the five generated demand quantiles.
_DEMAND_COUNTS = (1, 2, 3, 2, 1)

DEFAULT_ORDERING_COST = 250.0
DEFAULT_HOLDING_COST = 2.0
DEFAULT_UNIT_COST = 5.5
DEFAULT_X_MAX = 100.0


def _left_sum(values) -> float:
    """The float sum of ``values`` rounded step by step from the left.  From
    Python 3.12 on ``sum`` compensates its rounding, so its last bits, and
    the results built on them, would depend on the Python version."""
    total = 0.0
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class InventoryInstance:
    """Inputs of the scheduling model.

    Costs and demands may be scalars, p-box intervals or raw observation
    sets; :func:`model_inputs` turns them into domains, enveloping
    observations, once per search or evaluation.
    """

    horizon: int
    ordering_cost: object
    holding_cost: object
    unit_cost: object
    demands: tuple
    initial_stock: float = 0.0
    x_min: float = 1.0
    x_max: float = DEFAULT_X_MAX

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if len(self.demands) != self.horizon:
            raise ValueError(
                f"expected {self.horizon} demand entries, got {len(self.demands)}"
            )
        if not 0.0 <= self.initial_stock < math.inf:
            raise ValueError(f"initial stock must be finite and >= 0, got {self.initial_stock!r}")
        if not 0.0 <= self.x_min <= self.x_max < math.inf:
            raise ValueError("order size bounds need finite 0 <= x_min <= x_max")
        for i, demand in enumerate(self.demands):
            if isinstance(demand, (int, float)) and not math.isfinite(demand):
                raise ValueError(f"demands[{i}] must be finite, got {demand!r}")
        for label in ("ordering_cost", "holding_cost", "unit_cost"):
            spec = getattr(self, label)
            if isinstance(spec, (int, float)) and not math.isfinite(spec):
                raise ValueError(f"{label} must be finite, got {spec!r}")
            if _domain_of(spec, "convex").lo.q < 0.0:
                raise ValueError(f"{label} must be non-negative")

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "ordering_cost": _spec_to_json(self.ordering_cost),
            "holding_cost": _spec_to_json(self.holding_cost),
            "unit_cost": _spec_to_json(self.unit_cost),
            "demands": [_spec_to_json(d) for d in self.demands],
            "initial_stock": self.initial_stock,
            "x_min": self.x_min,
            "x_max": self.x_max,
        }

    @classmethod
    def from_dict(cls, obj: dict, base_dir: Path | None = None) -> "InventoryInstance":
        """An instance from its JSON form; a malformed one raises ``ValueError``."""
        try:
            horizon = _named("horizon", json_number, obj["horizon"], int)
            if "demands" in obj:
                demands = tuple(
                    _named(f"demands[{i}]", _spec_from_json, d, base_dir)
                    for i, d in enumerate(obj["demands"])
                )
            elif "seed" in obj:
                seed = _named("seed", json_number, obj["seed"], int)
                demands = default_instance(horizon, seed).demands
            else:
                raise ValueError("instance needs either 'demands' or 'seed'")
            fields = {
                key: _named(key, read, obj.get(key, default), *args)
                for key, read, default, *args in (
                    ("ordering_cost", _spec_from_json, DEFAULT_ORDERING_COST, base_dir),
                    ("holding_cost", _spec_from_json, DEFAULT_HOLDING_COST, base_dir),
                    ("unit_cost", _spec_from_json, DEFAULT_UNIT_COST, base_dir),
                    ("initial_stock", json_number, 0.0),
                    ("x_min", json_number, 1.0),
                    ("x_max", json_number, DEFAULT_X_MAX),
                )
            }
            return cls(horizon=horizon, demands=demands, **fields)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed instance: {exc!r}") from None

    @classmethod
    def from_file(cls, path) -> "InventoryInstance":
        path = Path(path)
        if path.suffix.lower() == ".toml":
            try:
                import tomllib
            except ImportError:
                raise ValueError(
                    "TOML instances need Python 3.11+; use the JSON form instead"
                ) from None
            with open(path, "rb") as fh:
                obj = tomllib.load(fh)
        else:
            with open(path, encoding="utf-8") as fh:
                obj = json.load(fh)
        return cls.from_dict(obj, base_dir=path.parent)


def _named(label: str, read, *args):
    # ``read(*args)``, with ``label`` naming the field in a ValueError.
    try:
        return read(*args)
    except ValueError as exc:
        raise ValueError(f"{label}: {exc}") from None


def _spec_to_json(spec):
    if isinstance(spec, (int, float)):
        return float(spec)
    if isinstance(spec, PboxInterval):
        return {"domain": spec.to_dict()}
    if isinstance(spec, ObservationSet):
        return {"observations": [[q, c] for q, c in spec.entries]}
    raise ValueError(f"cannot serialize quantity spec {spec!r}")


def _spec_from_json(obj, base_dir: Path | None = None):
    if not isinstance(obj, dict):
        return json_number(obj)
    if "domain" in obj:
        return PboxInterval.from_dict(obj["domain"])
    if "observations" in obj:
        return ObservationSet.from_pairs(
            (json_number(q), json_number(c, int)) for q, c in obj["observations"]
        )
    if "csv" in obj:
        path = Path(obj["csv"])
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        return load_observations_csv(path)
    raise ValueError(f"cannot interpret quantity spec {obj!r}")


def _domain_of(spec, mode: str) -> PboxInterval:
    """Turn an input quantity into its domain under the chosen representation,
    ``"convex"`` or p-box."""
    if isinstance(spec, (int, float)):
        return point_mass(float(spec))
    if isinstance(spec, PboxInterval):
        if mode == "convex":
            return convex_interval(spec.lo.q, spec.hi.q)
        return spec
    if isinstance(spec, ObservationSet):
        if mode == "convex":
            return convex_interval(spec.entries[0][0], spec.entries[-1][0])
        return envelope(empirical_cdf(spec))
    raise ValueError(f"cannot interpret quantity spec {spec!r}")


@dataclass(frozen=True)
class ModelInputs:
    """An instance's quantities as domains under one representation.

    Every network of one search or evaluation starts from these domains, so
    observations are enveloped once per run; the topology they are filled
    into depends on the horizon alone (see :func:`_network`).  ``worst``
    holds each cycle's worst-case demand, ``initial_stock`` the initial
    stock as a point mass and ``order_range`` the range [x_min, x_max] of an
    order not pinned to a size.
    """

    inst: InventoryInstance
    ordering_cost: PboxInterval
    holding_cost: PboxInterval
    unit_cost: PboxInterval
    demands: tuple[PboxInterval, ...]
    worst: tuple[float, ...]
    initial_stock: PboxInterval
    order_range: PboxInterval


def model_inputs(inst: InventoryInstance, mode: str = "pbox") -> ModelInputs:
    """The domains of ``inst`` under ``mode``, ``"pbox"`` or ``"convex"``."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    demands = tuple(_domain_of(d, mode) for d in inst.demands)
    return ModelInputs(
        inst=inst,
        ordering_cost=_domain_of(inst.ordering_cost, mode),
        holding_cost=_domain_of(inst.holding_cost, mode),
        unit_cost=_domain_of(inst.unit_cost, mode),
        demands=demands,
        worst=tuple(d.hi.q for d in demands),
        initial_stock=point_mass(inst.initial_stock),
        order_range=convex_interval(inst.x_min, inst.x_max),
    )


# -- initial bindings for derived quantities ---------------------------------


def _levelwise(f1: float, s1: float, f2: float, s2: float) -> tuple[float, float]:
    # Quantiles of the two bound lines added at equal cdf level: the joint
    # slope is the harmonic combination, the anchor level the slope-weighted
    # average of the anchor levels.  A subnormal slope makes s 0 and f 0 * inf.
    s = 1.0 / (1.0 / s1 + 1.0 / s2)
    f = s * (f1 / s1 + f2 / s2)
    return min(max(f, 0.0), 1.0), s


def combine_bindings(op: str, a: PboxInterval, b: PboxInterval) -> PboxInterval:
    """Initial binding for a derived quantity ``a op b`` (op: add, sub, mul).

    Quantile bounds follow real interval arithmetic, and ``a - b`` is
    ``a + (-b)``.  Candidate cdf bound lines come from two constructions.  A
    shifted (for products over non-negative ranges, scaled) copy of one
    operand's own line is sound regardless of dependence, but only when its
    source line spans the full [0, 1] range or the other operand is a known
    constant, since otherwise the line would be extrapolated beyond its valid
    region.  Treating the operands of a sum as driven by one common level
    (the convention for this model's uncertain quantities) also admits the
    level-wise combination of both lines, whose slope is the harmonic mean;
    it stays informative through long chains of sums where any single
    shifted line clips to vacuity.  The tightest candidate at the midpoint
    wins, compared on floats; with none the bound degrades to the convex one.

    Two vacuous operands (:func:`pbox.is_vacuous`) offer no candidate that
    beats the convex bound, so they bind as plain intervals.  Otherwise one
    pass over each side's candidates, at most three, keeps the tightest, and
    the two cdf points are built once from the chosen floats.
    """
    if op not in ("add", "sub", "mul"):
        raise ValueError(f"op must be 'add', 'sub' or 'mul', got {op!r}")
    alq, ahq, blq, bhq = a.lo.q, a.hi.q, b.lo.q, b.hi.q
    if op == "sub":
        # -b mirrors the quantiles and swaps the ends.
        blq, bhq = -bhq, -blq
    add = op != "mul"
    lo, hi = (alq + blq, ahq + bhq) if add else mul_bounds(alq, ahq, blq, bhq)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"interval arithmetic overflowed to [{lo!r}, {hi!r}]")
    if lo == hi:
        return point_mass(lo)
    if is_vacuous(a) and is_vacuous(b):
        return convex_interval(lo, hi)
    alf, als, ahf, ahs = a.lo.f, a.lo.s, a.hi.f, a.hi.s
    blf, bls, bhf, bhs = b.lo.f, b.lo.s, b.hi.f, b.hi.s
    if op == "sub":
        # The level f of -b becomes 1 - f.
        blf, bls, bhf, bhs = 1.0 - bhf, bhs, 1.0 - blf, bls
    # Each side keeps the least (upper) or greatest (lower) key: the clipped
    # value at the midpoint, then, as ties are frequent once lines clip
    # there, the anchor level, then the slope; the first of equals stays,
    # as with min and max over the keys in candidate order.  A subnormal
    # slope gives a level-wise line a nan level, or a scaled copy an
    # overflowed slope; dropping that line loses only a vacuous bound.
    mid = 0.5 * (lo + hi)
    to_mid, from_mid = mid - lo, hi - mid
    up = low = None
    if add or (alq >= 0.0 and blq >= 0.0):
        for lf, ls, hf, hs, width, olq, ohq in (
            (alf, als, ahf, ahs, ahq - alq, blq, bhq),
            (blf, bls, bhf, bhs, bhq - blq, alq, ahq),
        ):
            lo_scale, hi_scale = (1.0, 1.0) if add else (olq, ohq)
            if lo_scale > 0.0 and (olq == ohq or lf + ls * width >= 1.0 - TOLERANCE):
                s = ls / lo_scale
                if s < math.inf:
                    key = (min(lf + s * to_mid, 1.0), lf, s)
                    if up is None or key < up:
                        up = key
            if hi_scale > 0.0 and (olq == ohq or hf - hs * width <= TOLERANCE):
                s = hs / hi_scale
                if s < math.inf:
                    key = (max(hf - s * from_mid, 0.0), hf, -s)
                    if low is None or key > low:
                        low = key
    if add and als > 0.0 and bls > 0.0:
        f, s = _levelwise(alf, als, blf, bls)
        if f == f:
            key = (min(f + s * to_mid, 1.0), f, s)
            if up is None or key < up:
                up = key
    if add and ahs > 0.0 and bhs > 0.0:
        f, s = _levelwise(ahf, ahs, bhf, bhs)
        if f == f:
            key = (max(f - s * from_mid, 0.0), f, -s)
            if low is None or key > low:
                low = key
    # A side without candidates keeps the convex bound's line.
    _, up_f, up_s = up or (1.0, 1.0, 0.0)
    _, low_f, neg_low_s = low or (0.0, 0.0, -0.0)
    low_s = -neg_low_s
    points = PboxInterval(CdfPoint(lo, up_f, up_s), CdfPoint(hi, low_f, low_s))
    try:
        return repair_dominance(points)
    except Inconsistent:
        return convex_interval(lo, hi)


# -- model construction -------------------------------------------------------


@dataclass(frozen=True)
class ModelVars:
    """Variable ids of one built scheduling network."""

    order: tuple[int, ...] = ()
    stock: tuple[int, ...] = ()
    demand: tuple[int, ...] = ()
    total_orders: int = -1
    ordering: int = -1
    tc: int = -1
    holding: int = -1


# The domain of a cycle without an order, and the ordering cost of a schedule
# that places none.
_ZERO = point_mass(0.0)


def _post_sum(store: DomainStore, terms: list[int], name: str) -> int:
    """A variable for the sum of ``terms``, tied to them by one ``add``; a
    single term is its own sum."""
    if len(terms) == 1:
        return terms[0]
    total = store.new_var(_ZERO, name=name)
    store.post(Constraint("add", (*terms, total)))
    return total


# A topology holds about 1.3 KB per cycle (1.3 MB at h1000), so the process
# keeps at most 16 of them.
@lru_cache(maxsize=16)
def _network(horizon: int) -> tuple[DomainStore, ModelVars]:
    """The variables and constraints that every scheduling network of
    ``horizon`` cycles shares, over placeholder domains; built once per
    horizon for the process.

    Variables: ``h``, ``v`` and ``stock0``, then per cycle its demand, order,
    supply and stock, then the order and stock totals (a single cycle's
    order and stock are their own totals), the total ordering cost, holding,
    purchase and the total cost: 4n + 9 variables over n cycles, 4n + 7 at
    one cycle.  Per cycle, supply is stock plus order and stock is supply
    minus demand; holding and purchase are each one product over a total,
    and the total cost is the 3-term sum of ordering, holding and purchase.
    """
    store = DomainStore()
    new_var = store.new_var
    hvar = new_var(_ZERO, name="h")
    vvar = new_var(_ZERO, name="v")
    prev_stock = new_var(_ZERO, name="stock0")
    demand, order, stock = [], [], []
    for cyc in range(1, horizon + 1):
        d_t = new_var(_ZERO, name=f"demand{cyc}")
        x_t = new_var(_ZERO, name=f"order{cyc}")
        b_t = new_var(_ZERO, name=f"supply{cyc}")
        i_t = new_var(_ZERO, name=f"stock{cyc}")
        store.post(Constraint("add", (prev_stock, x_t, b_t)))
        store.post(Constraint("sub", (b_t, d_t, i_t)))
        demand.append(d_t)
        order.append(x_t)
        stock.append(i_t)
        prev_stock = i_t
    total_orders = _post_sum(store, order, "total_orders")
    total_stock = _post_sum(store, stock, "total_stock")
    ordering = new_var(_ZERO, name="total_ordering")
    holding = new_var(_ZERO, name="total_holding")
    store.post(Constraint("mul", (hvar, total_stock, holding)))
    purchase = new_var(_ZERO, name="total_purchase")
    store.post(Constraint("mul", (vvar, total_orders, purchase)))
    tc = _post_sum(store, [ordering, holding, purchase], "total_cost")
    return store, ModelVars(
        order=tuple(order),
        stock=tuple(stock),
        demand=tuple(demand),
        total_orders=total_orders,
        ordering=ordering,
        tc=tc,
        holding=holding,
    )


def _sum_binding(bindings: list[PboxInterval]) -> PboxInterval:
    # The binding of a sum: the left fold of its terms' bindings.  Vacuous
    # terms fold as float bounds into one domain; an overflow is left to the
    # stepwise fold, which raises it at its step.
    total = bindings[0]
    if len(bindings) > 1 and all(map(is_vacuous, bindings)):
        lo, hi = total.lo.q, total.hi.q
        for binding in bindings[1:]:
            lo += binding.lo.q
            hi += binding.hi.q
        if math.isfinite(lo) and math.isfinite(hi):
            return point_mass(lo) if lo == hi else convex_interval(lo, hi)
    for binding in bindings[1:]:
        total = combine_bindings("add", total, binding)
    return total


def _bindings(inputs: ModelInputs, schedule, order_sizes=None) -> list[PboxInterval] | None:
    """The initial bindings of one decided schedule's network, one per
    variable of its horizon's topology (see :func:`_network`) in id order;
    None when they already rule the schedule out.

    ``schedule`` holds one flag per cycle: a true flag forces an order in
    [x_min, x_max], a false one forces none.  With ``order_sizes`` the orders
    are pinned to those quantities instead.  Stock is floored at 0.  A floor
    on the total orders, set in their binding, prices purchase into the
    total cost's lower bound once the network propagates.
    """
    inst, cost = inputs.inst, inputs.ordering_cost
    if len(schedule) != inst.horizon:
        raise ValueError(f"schedule length {len(schedule)} != horizon {inst.horizon}")
    if order_sizes is not None and len(order_sizes) != inst.horizon:
        raise ValueError("order_sizes length must match the horizon")

    prev_stock = inputs.initial_stock
    domains = [inputs.holding_cost, inputs.unit_cost, prev_stock]
    orders, stocks = [], []
    for t in range(inst.horizon):
        d_t = inputs.demands[t]
        if not schedule[t]:
            x_t = _ZERO
        elif order_sizes is not None:
            x_t = point_mass(order_sizes[t])
        else:
            x_t = inputs.order_range
        # stock_t = stock_{t-1} + order_t - demand_t, floored at 0: stock that
        # rounds to a hair below zero counts as empty.
        b_t = combine_bindings("add", prev_stock, x_t)
        i_t = combine_bindings("sub", b_t, d_t)
        if i_t.hi.q < -TOLERANCE:
            return None
        if i_t.lo.q < 0.0:
            floor = intersect_quantiles(i_t.lo.q, i_t.hi.q, 0.0, max(i_t.hi.q, 0.0))
            i_t = reanchor(i_t.lo, i_t.hi, *floor)
        domains += (d_t, x_t, b_t, i_t)
        orders.append(x_t)
        stocks.append(i_t)
        prev_stock = i_t

    total_orders = _sum_binding(orders)
    total_stock = _sum_binding(stocks)
    if inst.horizon > 1:  # one cycle's order and stock are their own totals
        domains += (total_orders, total_stock)
    holding = combine_bindings("mul", inputs.holding_cost, total_stock)
    purchase = combine_bindings("mul", inputs.unit_cost, total_orders)

    # Orders must be able to meet demand up to the next replenishment, so the
    # total ordered quantity is floored by worst-case total demand.  Pinned
    # covering sizes can sum to a rounding ulp below that floor.
    worst_total = _left_sum(inputs.worst) - inst.initial_stock
    hi = total_orders.hi.q
    if worst_total > hi + TOLERANCE:
        return None
    placed = sum(map(bool, schedule))
    ordering = _sum_binding([cost] * placed) if placed else _ZERO
    domains += (ordering, holding, purchase, _sum_binding([ordering, holding, purchase]))

    if worst_total > total_orders.lo.q:
        try:
            domains[_network(inst.horizon)[1].total_orders] = meet(
                total_orders, convex_interval(min(worst_total, hi), hi)
            )
        except Inconsistent:
            return None
    return domains


def build_model(inputs: ModelInputs, schedule) -> tuple[DomainStore, ModelVars]:
    """Constraint network for one decided schedule, its orders ranging over
    [x_min, x_max] (see :func:`_bindings`).

    Flow balance, non-negative stock and the cost sum are posted.  Holding
    and purchase are each one product over a total, ``h * sum(stock_t)`` and
    ``v * sum(order_t)``: costs, stock and orders are non-negative, and over
    non-negative intervals multiplication distributes over addition exactly,
    so the per-cycle products would add no bound.  The ordering cost is one
    constant, the per-order cost summed over the orders placed; no
    constraint narrows it.

    Every network of a horizon is filled into its one topology (see
    :func:`_network`): this forks a store over the schedule's bindings,
    which it does not edit.  A schedule that its bindings already rule out
    gets an empty failed store.
    """
    domains = _bindings(inputs, schedule)
    if domains is None:
        store = DomainStore()
        store.fail()
        return store, ModelVars()
    network, mv = _network(inputs.inst.horizon)
    return network.fork(domains), mv


# -- schedule evaluation ------------------------------------------------------


@dataclass(frozen=True)
class CycleDomains:
    order: PboxInterval
    stock: PboxInterval
    demand: PboxInterval

    def to_dict(self) -> dict:
        return {
            "order": self.order.to_dict(),
            "stock": self.stock.to_dict(),
            "demand": self.demand.to_dict(),
        }


@dataclass(frozen=True)
class ScheduleReport:
    """A solved schedule with interval-valued costs and per-cycle domains;
    ``stats`` count the fixpoint of the relaxed network behind ``tc_hull``."""

    schedule: tuple[bool, ...]
    replenishments: int
    tc: PboxInterval
    tc_hull: PboxInterval
    holding: PboxInterval
    cycles: tuple[CycleDomains, ...]
    wall_time_s: float
    stats: dict

    def to_dict(self) -> dict:
        return {
            "schedule": [int(flag) for flag in self.schedule],
            "replenishments": self.replenishments,
            "tc": self.tc.to_dict(),
            "tc_hull": self.tc_hull.to_dict(),
            "holding": self.holding.to_dict(),
            "cycles": [c.to_dict() for c in self.cycles],
            "wall_time_s": self.wall_time_s,
            "stats": dict(self.stats),
        }


# Worst-case demand a cycle may leave uncovered, as rounding noise.
_COVER_SLACK = 1e-12


def _serve_cycle(
    t: int,
    need: float,
    stock: float,
    holding: float,
    points,
    spare: list[float],
    alloc: list[float] | None = None,
) -> tuple[float, float] | None:
    """Serve cycle ``t``'s worst-case demand ``need`` first from the initial
    ``stock`` left, then from the latest of the order ``points`` with spare
    capacity, which minimizes holding.

    ``spare`` (and ``alloc``, when given) hold each cycle's spare (and
    allocated) order capacity and are updated in place.  Returns the stock
    left and the running ``holding`` of the served demand in unit-cycles, a
    unit counting from its order's cycle (initial stock from cycle 0) to the
    cycle that consumes it; None when the caps cannot cover the cycle.
    """
    take = min(stock, need)
    stock -= take
    need -= take
    holding += t * take
    for p in reversed(points):
        if need <= 0.0:
            break
        take = min(spare[p], need)
        if alloc is not None:
            alloc[p] += take
        spare[p] -= take
        need -= take
        holding += (t - p) * take
    if need > _COVER_SLACK:
        return None
    return stock, holding


def _serve_latest_first(inputs: ModelInputs, schedule):
    """Serve the worst-case demand of each cycle of ``schedule``, which may be
    a prefix of the horizon, by :func:`_serve_cycle`.

    Returns ``(alloc, spare, stock, holding)``: each cycle's allocated and
    spare order capacity, the initial stock left over, and the holding of
    the served demand.  Returns None when the caps cannot cover some cycle.
    """
    inst = inputs.inst
    alloc = [0.0] * len(schedule)
    spare = [inst.x_max if flag else 0.0 for flag in schedule]
    stock = inst.initial_stock
    holding = 0.0
    points: list[int] = []
    for t in range(len(schedule)):
        if schedule[t]:
            points.append(t)
        served = _serve_cycle(t, inputs.worst[t], stock, holding, points, spare, alloc)
        if served is None:
            return None
        stock, holding = served
    return alloc, spare, stock, holding


def robust_order_sizes(inputs: ModelInputs, schedule) -> list[float] | None:
    """Cheapest order quantities that cover worst-case demand in every cycle,
    allocated by :func:`_serve_latest_first` and raised to ``x_min``.
    Returns None when the caps cannot cover some cycle.
    """
    served = _serve_latest_first(inputs, schedule)
    if served is None:
        return None
    alloc = served[0]
    x_min = inputs.inst.x_min
    for t, flag in enumerate(schedule):
        if flag and alloc[t] < x_min:
            alloc[t] = x_min
    return alloc


def _resolve(inputs: ModelInputs, schedule) -> dict | None:
    """The report fields of a decided schedule with its orders pinned to the
    cheapest covering sizes, read off its bindings by its topology's ids (its
    floors cut nothing once the sizes cover, so propagation would change no
    domain, and no store is built); None when the caps cannot cover
    worst-case demand or the bindings fail."""
    sizes = robust_order_sizes(inputs, schedule)
    if sizes is None:
        return None
    d = _bindings(inputs, schedule, sizes)
    if d is None:
        return None
    mv = _network(inputs.inst.horizon)[1]
    return {
        "tc": d[mv.tc],
        "holding": d[mv.holding],
        "cycles": tuple(
            CycleDomains(d[x], d[i], d[w]) for x, i, w in zip(mv.order, mv.stock, mv.demand)
        ),
    }


def _report(
    inputs: ModelInputs, schedule, resolved: dict, started: float
) -> ScheduleReport | None:
    # Completes a resolved schedule's report with its relaxed network's fixpoint.
    hull, hull_mv = build_model(inputs, schedule)
    if hull.propagate() == FAILED:
        return None
    return ScheduleReport(
        schedule=schedule,
        replenishments=sum(schedule),
        tc_hull=hull.domains[hull_mv.tc],
        wall_time_s=time.perf_counter() - started,
        stats=hull.stats,
        **resolved,
    )


def evaluate_schedule(
    inst: InventoryInstance, schedule, mode: str = "pbox"
) -> ScheduleReport | None:
    """Report one fully decided schedule; None when it is infeasible.

    A schedule is feasible when the order caps can cover worst-case demand in
    every cycle and its bindings with the orders pinned to the cheapest
    covering sizes hold.  The reported costs describe those resolved
    decisions over the full demand uncertainty; ``tc_hull`` is the total cost
    of the relaxed network, whose orders range over their caps.
    """
    started = time.perf_counter()
    inputs = model_inputs(inst, mode)
    schedule = tuple(bool(flag) for flag in schedule)
    resolved = _resolve(inputs, schedule)
    if resolved is None:
        return None
    return _report(inputs, schedule, resolved, started)


# -- search -------------------------------------------------------------------


@dataclass
class SearchResult:
    status: str  # "optimal" or "infeasible"
    best: ScheduleReport | None
    nodes: int
    clones: int  # Always 0: the search clones no store.
    # The winner's stats, those of the search's one fixpoint; else zeros.
    stats: dict
    wall_time_s: float

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "best": self.best.to_dict() if self.best is not None else None,
            "nodes": self.nodes,
            "clones": self.clones,
            "domain_writes": self.stats["prunes"],
            "stats": dict(self.stats),
            "wall_time_s": self.wall_time_s,
        }


class _Searcher:
    """Depth-first branch and bound over the replenishment flags.

    Cycles are decided left to right, in one loop over an explicit stack
    (:meth:`run`).  A node is its served state (:meth:`_served`), its
    parent's extended by one cycle.  At each visited node the search
    computes both children's lot-sizing bounds (:meth:`_node_bound`, a lower
    bound on the resolved cost of every completion) and visits the smaller
    first, the no-order child on ties; a child is skipped once its bound is
    infinite or exceeds the least leaf cost.  ``nodes`` counts the bounds
    computed, the root's included.  The walk is arithmetic: a leaf is scored
    on its resolved cost computed from its served state (:meth:`_leaf_cost`),
    and only :meth:`result` builds networks, for the near-ties.
    """

    def __init__(self, inputs: ModelInputs):
        inst = inputs.inst
        n = inst.horizon
        self.inputs = inputs
        self.inst = inst
        self.worst = inputs.worst
        self.a_lo = inputs.ordering_cost.lo.q
        self.h_lo = inputs.holding_cost.lo.q
        self.v_lo = v_lo = inputs.unit_cost.lo.q
        self.purchase_lo = v_lo * max(0.0, _left_sum(self.worst) - inst.initial_stock)
        # Rounding margins of _node_bound and _leaf_cost.  Let u = 2^-53.
        # Every quantity there (demand, stock, order capacity, R, pool) lies
        # in [0, B_q], and every cost term in [0, B].  Each float value is
        # formed by at most (n+2)^2 roundings over terms whose magnitudes sum
        # to at most (n+2)*B, so it is within e = (n+2)^3*u*B of its exact
        # value; the resolved store's tc.lo.q, a forward sum over the same
        # cycles, is too.  Covering also leaves up to _COVER_SLACK of each
        # cycle's demand unserved, so a covered completion may need up to
        # n*_COVER_SLACK more than the decided supply and pay up to S =
        # (v_lo + h_lo*n)*n*_COVER_SLACK less for it; the cap on R includes
        # that.  The cost margin is 8e + 2S.  A leaf's cost then lies within
        # 2e + S, half the margin, of its tc.lo.q, so the leaves within the
        # margin of the least cost hold the winner, and no pruned leaf's
        # tc.lo.q is below that of the least-cost leaf.
        b_q = inst.initial_stock + _left_sum(self.worst) + n * inst.x_max
        b = self.a_lo * n + (v_lo + 2.0 * self.h_lo * n) * b_q
        ulps = 4.0 * (n + 2) ** 3 * 2.0**-52
        self._cap_slack = ulps * b_q + n * _COVER_SLACK
        self._margin = ulps * b + 2.0 * (v_lo + self.h_lo * n) * n * _COVER_SLACK
        self._open_costs = self._open_cost_table()
        # The served state of the empty schedule (see _served).
        self._root = ((), [], inst.initial_stock, 0.0)
        self.nodes = 0
        # The least leaf cost, and the near-ties: the (cost, order points) of
        # every leaf within _margin of it, among which the winner lies.
        self.least = math.inf
        self.ties: list[tuple[float, tuple[int, ...]]] = []

    def _open_cost_table(self) -> list[list[tuple[float, float]]]:
        # table[d]: (R, c) pairs over the order choices of the open cycles
        # d..n-1, walked backwards over their worst demands (Wagner & Whitin,
        # Management Science 1958; Florian & Klein, 1971).  R is the demand
        # not yet supplied; an order at cycle q takes u_q = min(x_max, R),
        # which for these order cycles leaves the least R to earlier supply
        # and holds the least.  c = a_lo*orders + h_lo*(sum_{t>=d} t*w_t -
        # sum_q q*u_q) prices ordering and the holding of every open
        # demand, the R left over held from cycle 0; supply from cycle p
        # holds h_lo*p*R less.  With p <= d - 1 at depth d, a pair is kept
        # only if no pair with R no larger has a lower c - h_lo*(d-1)*R:
        # that one is then no dearer at any p <= d - 1 under any cap, and a
        # later step keeps it so.  One dict, keyed by R, rolls over q.
        n = self.inst.horizon
        a_lo, h_lo, x_max = self.a_lo, self.h_lo, self.inst.x_max
        table: list[list[tuple[float, float]]] = [[] for _ in range(n + 1)]
        table[n] = [(0.0, 0.0)]
        states = {0.0: 0.0}
        for q in range(n - 1, -1, -1):
            w = self.worst[q]
            held = h_lo * q * w
            rolled: dict[float, float] = {}
            for r, c in states.items():
                r += w
                c += held
                if c < rolled.get(r, math.inf):
                    rolled[r] = c
                u = min(x_max, r)
                r -= u
                c += a_lo - h_lo * q * u
                if c < rolled.get(r, math.inf):
                    rolled[r] = c
            credit = h_lo * max(q - 1, 0)
            kept = []
            best = math.inf
            for r in sorted(rolled):
                c = rolled[r]
                if c - credit * r < best:
                    best = c - credit * r
                    kept.append((r, c))
            table[q] = kept
            states = dict(kept)
        return table

    def run(self) -> None:
        """Pops ``(bound, served state)`` entries; a state's spare list holds
        one entry per decided cycle.  A node is skipped once its bound exceeds
        the least cost, and so is its sibling below it, whose bound is no
        smaller while the least cost only falls.  Each child is served once, for
        its bound, and pushed with that state; the smaller bound pops first, the
        no-order child's on ties."""
        self.nodes = 1
        stack = [(self._node_bound(self._root), self._root)]
        while stack:
            bound, served = stack.pop()
            if bound == math.inf or bound > self.least + TOLERANCE:
                continue
            if len(served[1]) == self.inst.horizon:
                self._score(served)
                continue
            children = [self._served(served, flag) for flag in (False, True)]
            bounds = [self._node_bound(child) for child in children]
            self.nodes += 2
            for flag in (True, False) if bounds[0] <= bounds[1] else (False, True):
                stack.append((bounds[flag], children[flag]))

    def _leaf_cost(self, served) -> float:
        # The resolved tc.lo.q of a covered leaf, from its served state:
        # a_lo*orders + v_lo*sum(sizes) + h_lo*sum(stock_t) at worst-case
        # demand.  The sizes are the allocations raised to x_min; the
        # initial stock left over is held n cycles, a raise at cycle p n - p.
        points, spare, stock, holding = served
        n, x_min, x_max = self.inst.horizon, self.inst.x_min, self.inst.x_max
        bought, held = 0.0, holding + n * stock
        for p in points:
            size = x_max - spare[p]
            if size < x_min:
                held += (n - p) * (x_min - size)
                size = x_min
            bought += size
        return self.a_lo * len(points) + self.v_lo * bought + self.h_lo * held

    def _score(self, served) -> None:
        cost = self._leaf_cost(served)
        if cost < self.least:
            self.least = cost
            self.ties = [tie for tie in self.ties if tie[0] <= cost + self._margin]
        if cost <= self.least + self._margin:
            self.ties.append((cost, served[0]))

    def result(self, started: float) -> SearchResult:
        """The winner's report, whose counters are the search's: the near-ties
        are resolved with robust order sizes, the least ``(tc.lo.q,
        replenishments, schedule)`` wins, and its relaxed network, the one
        that propagates, completes its report.  That network holds wherever
        the pinned one does: the covering sizes are one of its scenarios."""
        solved = {}
        for _, points in self.ties:
            chosen = set(points)
            schedule = tuple(t in chosen for t in range(self.inst.horizon))
            fields = _resolve(self.inputs, schedule)
            if fields is not None:
                solved[schedule] = fields
        winner = min(solved, key=lambda s: (solved[s]["tc"].lo.q, sum(s), s), default=None)
        best = None if winner is None else _report(self.inputs, winner, solved[winner], started)
        return SearchResult(
            status="optimal" if solved else "infeasible",
            best=best,
            nodes=self.nodes,
            clones=0,
            stats=dict.fromkeys(DomainStore().stats, 0) if best is None else dict(best.stats),
            wall_time_s=time.perf_counter() - started,
        )

    def _served(self, served, flag: bool):
        # The served state of a child: its parent's ``served`` state
        # extended by one cycle decided by ``flag``, served by _serve_cycle
        # as robust_order_sizes serves it; None when the caps cannot cover
        # that cycle.  A state is (order points, each decided cycle's spare
        # capacity, initial stock left, holding), and the spare list is the
        # child's own.
        points, spare, stock, holding = served
        t = len(spare)
        if flag:
            points = (*points, t)
            spare = [*spare, self.inst.x_max]
        else:
            spare = [*spare, 0.0]
        served = _serve_cycle(t, self.worst[t], stock, holding, points, spare)
        if served is None:
            return None
        return points, spare, *served

    def _node_bound(self, served) -> float:
        """A lower bound on the resolved cost of every completion of the node
        ``served`` (see :meth:`_served`); inf when it is None, as none can be
        covered.  The decided orders' spare capacity and the initial stock left
        cap the R of the open cycles' table entries, and supply comes from no
        later cycle than the latest decided order, at p (0 without one)."""
        if served is None:
            return math.inf
        points, spare, stock, holding = served
        cap = _left_sum(spare) + stock + self._cap_slack
        credit = self.h_lo * (points[-1] if points else 0)
        future = math.inf
        for r, c in self._open_costs[len(spare)]:
            if r > cap:
                break
            if c - credit * r < future:
                future = c - credit * r
        return (
            self.a_lo * len(points)
            + self.purchase_lo
            + self.h_lo * holding
            + future
            - self._margin
        )


def search(inst: InventoryInstance, mode: str = "pbox") -> SearchResult:
    """Best schedule: the least total-cost lower bound, then the fewest
    replenishments, then the lexicographically least schedule."""
    started = time.perf_counter()
    searcher = _Searcher(model_inputs(inst, mode))
    searcher.run()
    return searcher.result(started)


# -- benchmark ----------------------------------------------------------------


def generate_demand_observations(cycles: int, rng: random.Random) -> list[ObservationSet]:
    """Reproducible per-cycle demand observations.

    Each cycle draws a base mean uniformly from [20, 40] and observes five
    quantiles at mean plus {-2, -1, 0, 1, 2} times a spread of 0.15 * mean,
    with symmetric counts (1, 2, 3, 2, 1).
    """
    sets = []
    for _ in range(cycles):
        mean = rng.uniform(20.0, 40.0)
        spread = 0.15 * mean
        sets.append(
            ObservationSet(
                tuple(
                    (mean + k * spread, count)
                    for k, count in zip((-2, -1, 0, 1, 2), _DEMAND_COUNTS)
                )
            )
        )
    return sets


def default_instance(
    horizon: int,
    seed: int,
    x_min: float = 1.0,
    x_max: float = DEFAULT_X_MAX,
) -> InventoryInstance:
    rng = random.Random(seed * 1_000_003 + horizon)
    return InventoryInstance(
        horizon=horizon,
        ordering_cost=DEFAULT_ORDERING_COST,
        holding_cost=DEFAULT_HOLDING_COST,
        unit_cost=DEFAULT_UNIT_COST,
        demands=tuple(generate_demand_observations(horizon, rng)),
        initial_stock=0.0,
        x_min=x_min,
        x_max=x_max,
    )


def _containment_fields(inst: InventoryInstance, best: ScheduleReport) -> dict:
    """Evaluate the winning schedule under the convex representation and
    compare the total-cost quantile intervals."""
    convex = evaluate_schedule(inst, best.schedule, mode="convex")
    out = {"convex_feasible": convex is not None}
    if convex is None:  # pragma: no cover - convex relaxation cannot be tighter
        out["hull_contained"] = False
        return out
    out["convex_tc_hull"] = convex.tc_hull.to_dict()
    out["hull_contained"] = (
        convex.tc_hull.lo.q <= best.tc_hull.lo.q + TOLERANCE
        and best.tc_hull.hi.q <= convex.tc_hull.hi.q + TOLERANCE
    )
    out["resolved_contained"] = (
        convex.tc.lo.q <= best.tc.lo.q + TOLERANCE
        and best.tc.hi.q <= convex.tc.hi.q + TOLERANCE
    )
    mid = 0.5 * (best.tc.lo.q + best.tc.hi.q)
    f_low, f_up = project(best.tc, mid)
    out["tc_mid_cdf_bounds"] = [f_low, f_up]
    out["cdf_tighter_than_convex"] = f_low > TOLERANCE and f_up < 1.0 - TOLERANCE
    return out


def run_benchmark(
    horizons,
    seed: int = 42,
    model: str = "pbox",
    x_min: float = 1.0,
    x_max: float = DEFAULT_X_MAX,
    instance: InventoryInstance | None = None,
) -> dict:
    """Timed search runs over seeded instances, one row per horizon.

    Rows record wall time, an allocation counter (domain writes stand in
    for heap metrics) and the search's store counters (``stats``, those of
    its one fixpoint, the winner's relaxed network, so equal to
    ``best.stats``).  Under the p-box model each row also carries the
    convex evaluation of the winning schedule and containment checks of the
    total-cost intervals.  A given ``instance`` replaces the seeded ones: it
    runs once, and the report's horizons and order bounds are its own, with
    no seed.
    """
    if instance is not None:
        instances = [instance]
        seed, x_min, x_max = None, instance.x_min, instance.x_max
    else:
        instances = [
            default_instance(int(h), seed, x_min=x_min, x_max=x_max) for h in horizons
        ]
    rows = []
    for inst in instances:
        # A full collection of the caller's heap would otherwise land in
        # whichever search crosses the collector's threshold, timed as its own.
        gc.collect()
        started = time.perf_counter()
        result = search(inst, mode=model)
        elapsed = time.perf_counter() - started
        row = {
            "horizon": inst.horizon,
            "model": model,
            "seed": seed,
            "status": result.status,
            "nodes": result.nodes,
            "alloc_counters": {"domain_writes": result.stats["prunes"]},
            "stats": result.stats,
            "timing": {"wall_time_s": elapsed},
        }
        if result.best is not None:
            row["best"] = result.best.to_dict()
            if model == "pbox":
                row["containment"] = _containment_fields(inst, result.best)
        rows.append(row)
    return {
        "model": model,
        "seed": seed,
        "horizons": [inst.horizon for inst in instances],
        "x_min": x_min,
        "x_max": x_max,
        "rows": rows,
    }
