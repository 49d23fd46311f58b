import copy
import dataclasses
import math
import pickle
import random

import pytest

from pboxcdf.arith import QuantileInterval
from pboxcdf.inventory import InventoryInstance
from pboxcdf.pbox import (
    ObservationSet,
    PboxInterval,
    convex_interval,
    empirical_cdf,
    envelope,
    point_mass,
)


# Reference interval arithmetic on float endpoints.  The engine's add
# propagator and combine_bindings add and subtract endpoints inline; the
# tests check them against these formulas.


def add_bounds(a_lo: float, a_hi: float, b_lo: float, b_hi: float) -> tuple[float, float]:
    return a_lo + b_lo, a_hi + b_hi


def sub_bounds(a_lo: float, a_hi: float, b_lo: float, b_hi: float) -> tuple[float, float]:
    return a_lo - b_hi, a_hi - b_lo


def checked(lo: float, hi: float) -> QuantileInterval:
    """The range [lo, hi]; an overflowed bound is an error."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"interval arithmetic overflowed to [{lo!r}, {hi!r}]")
    return QuantileInterval(lo, hi)


def random_observations(rng: random.Random, min_entries: int = 2, max_entries: int = 8) -> ObservationSet:
    n = rng.randint(min_entries, max_entries)
    start = rng.uniform(-50.0, 50.0)
    qs = []
    q = start
    for _ in range(n):
        q += rng.uniform(0.1, 20.0)
        qs.append(q)
    return ObservationSet(tuple((q, rng.randint(1, 9)) for q in qs))


def random_envelope(rng: random.Random) -> PboxInterval:
    return envelope(empirical_cdf(random_observations(rng)))


def random_domain(rng: random.Random) -> PboxInterval:
    """Mixed population: envelopes, convex embeddings and point masses."""
    roll = rng.random()
    if roll < 0.6:
        return random_envelope(rng)
    if roll < 0.85:
        lo = rng.uniform(-100.0, 100.0)
        return convex_interval(lo, lo + rng.uniform(0.0, 80.0))
    return point_mass(rng.uniform(-100.0, 100.0))


def random_scalar_instance(rng: random.Random) -> InventoryInstance:
    """Small instance with scalar costs and demands, horizon 1 to 6."""
    n = rng.randint(1, 6)
    return InventoryInstance(
        horizon=n,
        ordering_cost=rng.uniform(20.0, 300.0),
        holding_cost=rng.uniform(0.1, 4.0),
        unit_cost=rng.uniform(0.5, 8.0),
        demands=tuple(rng.uniform(2.0, 40.0) for _ in range(n)),
        initial_stock=rng.choice([0.0, rng.uniform(0.0, 20.0)]),
        x_min=1.0,
        x_max=rng.uniform(45.0, 120.0),
    )


def strip_keys(obj, keys=("timing", "wall_time_s")):
    """``obj`` without the given keys at any depth."""
    if isinstance(obj, dict):
        return {k: strip_keys(v, keys) for k, v in obj.items() if k not in keys}
    if isinstance(obj, list):
        return [strip_keys(v, keys) for v in obj]
    return obj


def check_frozen_value(value, text: str, bad: dict, message: str) -> None:
    """The contract of a frozen value class: ``repr`` reads ``text``; the
    value built anew from its fields, every pickle and a deep copy compare
    and hash equal to it; setting or deleting a field raises
    ``FrozenInstanceError``; ``dataclasses.replace`` validates its result,
    so the ``bad`` changes raise ``ValueError`` with ``message``."""
    names = [f.name for f in dataclasses.fields(value)]
    assert repr(value) == text
    copies = [type(value)(*(getattr(value, name) for name in names)), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert other == value and hash(other) == hash(value) and repr(other) == text
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
    assert dataclasses.replace(value) == value
    with pytest.raises(ValueError) as exc:
        dataclasses.replace(value, **bad)
    assert str(exc.value) == message


@pytest.fixture
def rng():
    return random.Random(20260810)
