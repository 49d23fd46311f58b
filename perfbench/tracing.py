"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public functions of each ``pboxcdf`` module while
it is entered and restores the originals on exit.  A name bound into another
module with ``from .x import f`` is wrapped there too, since calls go through
the importing module's globals.  Each wrapper records calls, inclusive time
and self time (its duration minus the time its traced children took), plus a
few counters read from arguments and results.  :func:`microbench` times the
unwrapped domain primitives on a seeded population.
"""

from __future__ import annotations

import random
import statistics
import sys
import time

import reference

# (module, function or Class.method).  Metric names drop the class.
TARGETS = (
    ("pbox", "envelope"),
    ("pbox", "check_dominance"),
    ("pbox", "repair_dominance"),
    ("pbox", "meet"),
    ("arith", "slide"),
    ("engine", "DomainStore.propagate"),
    ("engine", "DomainStore.clone"),
    ("engine", "DomainStore.tighten"),
    ("engine", "parse_model"),
    ("engine", "solution_dict"),
    ("inventory", "build_model"),
    ("inventory", "combine_bindings"),
    ("inventory", "evaluate_schedule"),
    ("inventory", "search"),
)

MICRO_FUNCTIONS = (
    "pbox.check_dominance",
    "pbox.repair_dominance",
    "pbox.meet",
    "pbox.envelope",
    "arith.slide",
)


def metric_base(module: str, name: str) -> str:
    return f"{module}.{name.rsplit('.', 1)[-1]}"


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "counts")

    def __init__(self, counters=()):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.counts = dict.fromkeys(counters, 0)

    def snapshot(self) -> dict:
        return {"calls": self.calls, **self.counts}


def _store_counts(args):
    stats = args[0].stats
    return stats["wakes"], stats["prunes"]


def _propagate_after(stat, args, result, before):
    stats = args[0].stats
    stat.counts["wakes"] += stats["wakes"] - before[0]
    stat.counts["prunes"] += stats["prunes"] - before[1]


def _search_after(stat, args, result, before):
    stat.counts["nodes"] += result.nodes
    stat.counts["clones"] += result.clones


def _changed_after(stat, args, result, before):
    if result is not args[0] and result != args[0]:
        stat.counts["changed"] += 1


# Counters summed per call beyond ``calls`` and ``self_s``, with the hooks
# that update them: ``before(args)`` runs before the call and
# ``after(stat, args, result, before_value)`` after it.
HOOKS = {
    "engine.propagate": (("wakes", "prunes"), _store_counts, _propagate_after),
    "inventory.search": (("nodes", "clones"), None, _search_after),
    "pbox.repair_dominance": (("changed",), None, _changed_after),
    "arith.slide": (("changed",), None, _changed_after),
}
NO_HOOKS = ((), None, None)


class Tracer:
    """Wraps the traced functions while entered; stats accumulate across
    entries.  ``end_round`` snapshots the counts of one round."""

    def __init__(self, prog):
        self.stats = {}
        self.rounds: list[dict] = []
        self.round_times: list[dict] = []
        self._last: dict = {}
        self._last_times: dict = {}
        self._stack = [0.0]
        self._patches = []
        program_modules = [
            module
            for name, module in sys.modules.items()
            if name == "pboxcdf" or name.startswith("pboxcdf.")
        ]
        for module_name, name in TARGETS:
            module = getattr(prog, module_name)
            base = metric_base(module_name, name)
            stat = self.stats[base] = Stat(HOOKS.get(base, NO_HOOKS)[0])
            if "." in name:
                cls_name, attr = name.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patches.append((owner, attr, original, self._wrap(original, stat, base)))
                continue
            original = getattr(module, name)
            wrapper = self._wrap(original, stat, base)
            for other in program_modules:
                if getattr(other, name, None) is original:
                    self._patches.append((other, name, original, wrapper))

    def _wrap(self, fn, stat: Stat, base: str):
        _, before_hook, after_hook = HOOKS.get(base, NO_HOOKS)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            before = before_hook(args) if before_hook is not None else None
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                stat.calls += 1
                stat.self_s += elapsed - child
                stat.total_s += elapsed
            if after_hook is not None:
                after_hook(stat, args, result, before)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        return False

    def end_round(self, scale: float) -> None:
        """Record the counts and times of the round just finished; ``scale``
        converts this round's wall seconds to reference seconds."""
        totals = {base: stat.snapshot() for base, stat in self.stats.items()}
        times = {base: (stat.self_s, stat.total_s) for base, stat in self.stats.items()}
        self.rounds.append(
            {
                base: {key: value - self._last.get(base, {}).get(key, 0) for key, value in counts.items()}
                for base, counts in totals.items()
            }
        )
        self.round_times.append(
            {
                base: tuple(
                    scale * (now - before)
                    for now, before in zip(pair, self._last_times.get(base, (0.0, 0.0)))
                )
                for base, pair in times.items()
            }
        )
        self._last, self._last_times = totals, times

    def rounds_agree(self) -> bool:
        return all(r == self.rounds[0] for r in self.rounds[1:])

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-round metrics: the first round's counts (every round runs the
        same operations) and the median self time over the rounds, in
        reference seconds."""
        first = self.rounds[0]

        def per_round(base: str, which: int) -> float:
            return statistics.median(times[base][which] for times in self.round_times)

        out: dict[str, tuple[float, str]] = {}
        for base in self.stats:
            out[f"{base}.calls"] = (first[base]["calls"], "count")
            out[f"{base}.self_s"] = (per_round(base, 0), "s")
        propagate = first["engine.propagate"]
        out["engine.propagate.wakes"] = (propagate["wakes"], "count")
        out["engine.propagate.prunes"] = (propagate["prunes"], "count")
        out["engine.propagate.prunes_per_wake"] = (
            propagate["prunes"] / propagate["wakes"] if propagate["wakes"] else 0.0,
            "ratio",
        )
        search = first["inventory.search"]
        search_s = per_round("inventory.search", 1)
        out["inventory.search.nodes"] = (search["nodes"], "count")
        out["inventory.search.clones"] = (search["clones"], "count")
        out["inventory.search.nodes_per_s"] = (
            search["nodes"] / search_s if search_s else 0.0,
            "1/s",
        )
        for base in ("pbox.repair_dominance", "arith.slide"):
            counts = first[base]
            out[f"{base}.changed_per_call"] = (
                counts["changed"] / counts["calls"] if counts["calls"] else 0.0,
                "ratio",
            )
        return out


# -- microbenchmark ----------------------------------------------------------------

MICRO_ITEMS = 2000
MICRO_REPEATS = 9


def _observations(rng: random.Random, pbox):
    q = rng.uniform(-50.0, 50.0)
    entries = []
    for _ in range(rng.randint(2, 8)):
        q += rng.uniform(0.1, 20.0)
        entries.append((q, rng.randint(1, 9)))
    return pbox.ObservationSet(tuple(entries))


def _domain(rng: random.Random, pbox):
    roll = rng.random()
    if roll < 0.6:
        return pbox.envelope(pbox.empirical_cdf(_observations(rng, pbox)))
    lo = rng.uniform(-100.0, 100.0)
    if roll < 0.85:
        return pbox.convex_interval(lo, lo + rng.uniform(0.0, 80.0))
    return pbox.point_mass(lo)


def _lines(rng: random.Random, pbox):
    # Arbitrary line pairs: some violate dominance, some cannot be repaired.
    lo = rng.uniform(-50.0, 50.0)
    hi = lo + rng.uniform(0.1, 60.0)
    return pbox.PboxInterval(
        pbox.CdfPoint(lo, rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.1)),
        pbox.CdfPoint(hi, rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.1)),
    )


def microbench(prog, seed: int) -> dict[str, float]:
    """Reference nanoseconds per call of each domain primitive, median over
    repeats, on a population drawn from ``seed``.  Calls that raise
    ``Inconsistent`` count like any other."""
    pbox, arith = prog.pbox, prog.arith
    rng = random.Random(f"micro-{seed}")
    domains = [_domain(rng, pbox) for _ in range(MICRO_ITEMS)]
    lines = [_lines(rng, pbox) for _ in range(MICRO_ITEMS)]
    pairs = []
    for d in domains:
        shift = rng.uniform(-0.5, 0.5) * (d.hi.q - d.lo.q)
        pairs.append(
            (d, pbox.PboxInterval(
                pbox.CdfPoint(d.lo.q + shift, d.lo.f, d.lo.s),
                pbox.CdfPoint(d.hi.q + shift, d.hi.f, d.hi.s),
            ))
        )
    staircases = [pbox.empirical_cdf(_observations(rng, pbox)) for _ in range(MICRO_ITEMS)]
    targets = []
    for d in domains:
        width = d.hi.q - d.lo.q
        lo = d.lo.q + rng.uniform(-0.2, 0.6) * width
        targets.append((d, arith.QuantileInterval(lo, lo + rng.uniform(0.0, 0.8) * width)))
    cases = {
        "pbox.check_dominance": (pbox.check_dominance, [(d,) for d in lines]),
        "pbox.repair_dominance": (pbox.repair_dominance, [(d,) for d in lines]),
        "pbox.meet": (pbox.meet, pairs),
        "pbox.envelope": (pbox.envelope, [(s,) for s in staircases]),
        "arith.slide": (arith.slide, targets),
    }
    inconsistent = pbox.Inconsistent
    per_call: dict[str, list[float]] = {name: [] for name in MICRO_FUNCTIONS}
    # Repeats of one function are interleaved with the others'.
    for _ in range(MICRO_REPEATS):
        for name in MICRO_FUNCTIONS:
            fn, calls = cases[name]
            before = reference.measure()
            start = time.perf_counter()
            for args in calls:
                try:
                    fn(*args)
                except inconsistent:
                    pass
            wall = time.perf_counter() - start
            per_call[name].append(reference.scaled(wall, before, reference.measure()) * 1e9 / len(calls))
    return {name: statistics.median(times) for name, times in per_call.items()}
