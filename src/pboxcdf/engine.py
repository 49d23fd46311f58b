"""Variable store and fixpoint propagation for p-box cdf-interval constraints.

Propagation is an interval computation on the real line, projected onto the
cdf domain once per fixpoint.  While ``propagate`` runs, the arithmetic
propagators read and narrow plain float quantile bounds; when no propagator
is queued, each variable whose bounds moved has its two cdf points slid
along their own lines onto the new bounds and dominance-repaired.  ``eq`` and
``leq`` exchange cdf lines, so they read projected domains.

Variables take :class:`PboxInterval` domains; :func:`parse_model` turns a
model file's ranges and values into domains.  Constraints register watch
lists on their variables and wait in one FIFO wake queue, which the fixpoint
drains in one loop.  A propagator re-enters the queue only when one of its
variables moved by more than the fixed absolute ``TOLERANCE`` in any scalar
component, so runs terminate at a stable fixpoint.  A sum over distinct
variables does not re-enter the queue for its own writes: one pass of a
linear equation over distinct variables leaves every bound supported
(bounds consistency), so a re-run could only move a bound by rounding,
which near 1e8 exceeds ``TOLERANCE``.  One n-ary ``add`` also runs ``sub``;
``mul`` runs ``div``, which waits aside while its divisor straddles zero and
raises if it still does at the fixpoint.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .pbox import (
    TOLERANCE,
    CdfPoint,
    DivisorStraddlesZero,
    Inconsistent,
    PboxInterval,
    convex_interval,
    json_number,
    meet,
    point_mass,
    reanchor,
    tighter_lower,
    tighter_upper,
)
from .arith import div_bounds, mul_bounds

CONSISTENT = "consistent"
FAILED = "failed"


@dataclass(frozen=True, slots=True, init=False)
class Constraint:
    """A constraint record over variable ids.

    Binary kinds: ``eq``, ``leq``.  ``add`` takes two or more terms, then
    the result: ``x1 + ... + xn = z``.  Ternary kinds ``sub``, ``mul``,
    ``div`` relate ``args[0] op args[1] = args[2]``.
    """

    kind: str
    args: tuple[int, ...]

    def __init__(self, kind: str, args: tuple[int, ...]):
        if not isinstance(kind, str) or kind not in _KINDS:
            raise ValueError(f"unknown constraint kind {kind!r}")
        arity = _KINDS[kind][0]
        n = len(args)
        if n < arity or n > arity and kind != "add":
            raise ValueError(f"constraint {kind!r} takes {arity} variables, got {n}")
        _set_kind(self, kind)
        _set_args(self, args)


# Slot setters: the generated frozen __init__ writes through object.__setattr__.
_set_kind = Constraint.kind.__set__
_set_args = Constraint.args.__set__


def _level(p: CdfPoint, q: float) -> float:
    # The cdf level of anchor(p, q), without building the point.
    return min(max(p.f + p.s * (q - p.q), 0.0), 1.0)


class DomainStore:
    """Solver state: domains, constraints, watch lists and the wake queue.

    A store is single-threaded.  Stores can share one topology (names,
    constraints and watch lists) until one of them adds a variable
    or a constraint, which copies it first.  ``clone`` is a cheap independent
    copy for trying narrowings on a solved store; ``fork`` starts a fresh
    store over the same topology from new domains, which is how
    ``inventory.build_model`` fills every network of a horizon into the one
    topology that the process keeps for that horizon.
    """

    def __init__(self):
        self.domains: list[PboxInterval] = []
        self.names: list[str] = []
        self.constraints: list[Constraint] = []
        self._watchers: list[list[int]] = []
        # Per constraint: a sum over distinct variables, whose one pass leaves
        # every bound supported, so that a wake by its own writes is an echo.
        self._idempotent: list[bool] = []
        self._queue: deque[int] = deque()
        # Per constraint: False off the queue, True queued, None queued as an
        # echo of its own writes, which is dropped unless a later write by
        # another constraint or a projection clears the mark.
        self._queued: list[bool | None] = []
        self.status: str = CONSISTENT
        self.stats = {
            "wakes": 0,
            "prunes": 0,
            "skipped_div_projections": 0,
        }
        self._shared_topology = False
        # Only while propagate runs: every variable's quantile bounds, and
        # the variables whose bounds moved off their domain's points.
        self._lo: list[float] | None = None
        self._hi: list[float] | None = None
        self._moved: set[int] | None = None

    # -- construction ------------------------------------------------------

    def new_var(self, domain: PboxInterval, name: str | None = None) -> int:
        """Add a variable over ``domain``; returns its id."""
        if self._shared_topology:
            self._unshare()
        vid = len(self.domains)
        self.domains.append(domain)
        self.names.append(name if name is not None else f"v{vid}")
        self._watchers.append([])
        return vid

    def post(self, constraint: Constraint) -> None:
        """Register a constraint and enqueue it once.  No-op on a failed store."""
        if self.status == FAILED:
            return
        for vid in constraint.args:
            if not 0 <= vid < len(self.domains):
                raise ValueError(f"constraint references unknown variable {vid}")
        if self._shared_topology:
            self._unshare()
        idx = len(self.constraints)
        self.constraints.append(constraint)
        self._queued.append(False)
        distinct = set(constraint.args)
        self._idempotent.append(
            constraint.kind in ("add", "sub") and len(distinct) == len(constraint.args)
        )
        for vid in distinct:
            self._watchers[vid].append(idx)
        self._enqueue(idx)

    def clone(self) -> "DomainStore":
        """Independent copy sharing the (append-only) constraint topology."""
        other = self._sharing(list(self.domains))
        other._queue = deque(self._queue)
        other._queued = list(self._queued)
        other.status = self.status
        other.stats = dict(self.stats)
        return other

    def fork(self, domains: list[PboxInterval]) -> "DomainStore":
        """A fresh store over this store's topology that adopts ``domains``,
        one per variable in id order: every constraint is queued in posting
        order and every counter is 0, as if each variable had been created
        with its domain and each constraint posted again."""
        if len(domains) != len(self.names):
            raise ValueError(f"expected {len(self.names)} domains, got {len(domains)}")
        n = len(self.constraints)
        other = self._sharing(domains)
        other._queue = deque(range(n))
        other._queued = [True] * n
        other.status = CONSISTENT
        other.stats = dict.fromkeys(self.stats, 0)
        return other

    def _sharing(self, domains: list[PboxInterval]) -> "DomainStore":
        # A store over ``domains`` that shares this one's topology; the caller
        # sets its queue, status and counters.
        other = DomainStore.__new__(DomainStore)
        other.domains = domains
        other.names = self.names
        other.constraints = self.constraints
        other._watchers = self._watchers
        other._idempotent = self._idempotent
        other._shared_topology = True
        other._lo = other._hi = other._moved = None
        self._shared_topology = True
        return other

    def _unshare(self) -> None:
        self.names = list(self.names)
        self.constraints = list(self.constraints)
        self._watchers = [list(w) for w in self._watchers]
        self._idempotent = list(self._idempotent)
        self._shared_topology = False

    # -- propagation -------------------------------------------------------

    def _enqueue(self, idx: int) -> None:
        if not self._queued[idx]:
            self._queued[idx] = True
            self._queue.append(idx)

    def _wake(self, vid: int) -> None:
        # Counts one domain write and queues the watchers of the variable; a
        # watcher queued as an echo keeps its place and will run.
        self.stats["prunes"] += 1
        queued, queue = self._queued, self._queue
        for idx in self._watchers[vid]:
            mark = queued[idx]
            if mark is not True:
                queued[idx] = True
                if mark is False:
                    queue.append(idx)

    def fail(self) -> None:
        """Mark the store inconsistent and drop all pending wakes."""
        self.status = FAILED
        self._queue.clear()

    def _update(self, vid: int, new: PboxInterval) -> None:
        # Writes a domain that moved by more than TOLERANCE in any component.
        old = self.domains[vid]
        if new is old:
            return
        if (
            abs(new.lo.q - old.lo.q) <= TOLERANCE
            and abs(new.lo.f - old.lo.f) <= TOLERANCE
            and abs(new.lo.s - old.lo.s) <= TOLERANCE
            and abs(new.hi.q - old.hi.q) <= TOLERANCE
            and abs(new.hi.f - old.hi.f) <= TOLERANCE
            and abs(new.hi.s - old.hi.s) <= TOLERANCE
        ):
            return
        self.domains[vid] = new
        if self._lo is not None:
            self._lo[vid] = new.lo.q
            self._hi[vid] = new.hi.q
        self._wake(vid)

    def tighten(self, vid: int, narrower: PboxInterval) -> str:
        """Meet a variable's domain with a narrower one, counting a write and
        queueing its watchers if it moved; an empty meet fails the store."""
        if self.status == FAILED:
            return FAILED
        try:
            self._update(vid, meet(self.domains[vid], narrower))
        except Inconsistent:
            self.fail()
        return self.status

    def propagate(self) -> str:
        """Run queued propagators to fixpoint; returns the resulting status.

        The arithmetic propagators narrow float quantile bounds only.  Once
        no propagator is queued, each variable whose bounds moved has its two
        cdf points re-anchored onto them and dominance-repaired; a repair that
        cuts a bound wakes the variable's watchers and propagation goes on.

        A write queues every constraint on the variable, the writer too,
        except that an ``add`` or ``sub`` over distinct variables is not run
        again for its own writes: its one pass leaves every bound supported
        in exact arithmetic, so a re-run could only move a bound by rounding.
        Its own write queues it as an echo in the place a wake would take; a
        later write by another constraint, a projection or ``tighten``
        makes it a run again, and an echo still marked when it is popped is
        dropped without a run or a wake count.  A sum with a repeated term or
        whose result is also a term, ``eq``, ``leq``, ``mul`` and ``div`` wake
        themselves as any watcher.

        A propagator that raises :class:`DivisorStraddlesZero` has changed
        nothing; it is set aside, a change to one of its variables wakes it
        as usual, and a run that does not raise takes it off.  When no
        propagator is queued and every moved variable is projected, the
        constraints still set aside go back to the head of the queue in the
        order they were set aside, and the first one's error is raised: a
        model errors only if a divisor still contains zero at the fixpoint,
        whatever the order of its constraints.  An overflow ``ValueError``
        puts the interrupted constraint back at the head of the queue, once,
        and is re-raised, and the interrupted sum is no echo.  Either way
        the store never reports a fixpoint it has not reached, and every
        exit leaves the domains projected.
        """
        if self.status == FAILED:
            return FAILED
        if not self._queue:
            return CONSISTENT
        domains = self.domains
        self._lo = [d.lo.q for d in domains]
        self._hi = [d.hi.q for d in domains]
        self._moved = set()
        try:
            return self._fixpoint()
        except Inconsistent:
            self._project_moved()
            self.fail()
            return FAILED
        except ValueError:
            if not self._project_moved():
                # A repair found the store inconsistent before the overflow.
                self.fail()
                return FAILED
            raise
        finally:
            self._lo = self._hi = self._moved = None

    def _fixpoint(self) -> str:
        queue, queued, idempotent = self._queue, self._queued, self._idempotent
        constraints, stats, moved = self.constraints, self.stats, self._moved
        # The constraints whose divisor straddled zero at their last run, in
        # the order they were set aside; a run that does not raise takes its
        # constraint off.  Bounds narrow, so a divisor clear of zero stays
        # clear, and nothing needs to run again at the fixpoint.
        waiting: dict[int, DivisorStraddlesZero] = {}
        while True:
            if queue:
                idx = queue.popleft()
                if queued[idx] is None:
                    # An echo: only its own last pass wrote its variables.
                    queued[idx] = False
                    continue
            elif moved:
                self._project(moved.pop())
                continue
            elif waiting:
                for other in reversed(waiting):
                    queued[other] = True
                    queue.appendleft(other)
                raise next(iter(waiting.values()))
            else:
                return CONSISTENT
            queued[idx] = False
            stats["wakes"] += 1
            c = constraints[idx]
            try:
                _KINDS[c.kind][1](self, *c.args)
            except DivisorStraddlesZero as exc:
                waiting[idx] = exc
            except ValueError:
                if queued[idx]:
                    # Its own write before the overflow queued it at the tail.
                    queue.remove(idx)
                queued[idx] = True
                queue.appendleft(idx)
                for other in waiting:
                    self._enqueue(other)
                raise
            else:
                waiting.pop(idx, None)
                if queued[idx] and idempotent[idx]:
                    # Only its own writes can have queued it.
                    queued[idx] = None

    def _project(self, vid: int) -> PboxInterval:
        # Places vid's cdf points onto its bounds (pbox.reanchor): flat lines
        # whose levels do not conflict, as in every domain of the convex
        # model, only move their quantiles.
        lo, hi = self._lo[vid], self._hi[vid]
        old = self.domains[vid]
        d = self.domains[vid] = reanchor(old.lo, old.hi, lo, hi)
        if d.lo.q != lo or d.hi.q != hi:
            self._lo[vid] = d.lo.q
            self._hi[vid] = d.hi.q
            self._wake(vid)
        return d

    def _project_moved(self) -> bool:
        # On an early exit: projects every moved variable; False if a repair
        # failed, and that variable keeps its last projected domain.
        moved = self._moved
        ok = True
        while moved:
            try:
                self._project(moved.pop())
            except Inconsistent:
                ok = False
        return ok

    def _domain(self, vid: int) -> PboxInterval:
        # vid's domain, projected onto its current bounds.
        if vid in self._moved:
            self._moved.remove(vid)
            return self._project(vid)
        return self.domains[vid]

    def _narrow(self, vid: int, lo: float, hi: float) -> None:
        # Intersects vid's bounds with [lo, hi].  A sub-tolerance inversion
        # collapses to its midpoint; a move is written unless both bounds and
        # the cdf values re-anchored onto them move by at most TOLERANCE.
        cur_lo, cur_hi = self._lo[vid], self._hi[vid]
        if lo <= cur_lo and hi >= cur_hi:
            return
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"interval arithmetic overflowed to [{lo!r}, {hi!r}]")
        new_lo = lo if lo > cur_lo else cur_lo
        new_hi = hi if hi < cur_hi else cur_hi
        if new_lo > new_hi:
            if new_lo - new_hi > TOLERANCE:
                raise Inconsistent(
                    f"quantile ranges [{cur_lo!r}, {cur_hi!r}] and [{lo!r}, {hi!r}] "
                    "are disjoint"
                )
            new_lo = new_hi = 0.5 * (new_lo + new_hi)
        if abs(new_lo - cur_lo) <= TOLERANCE and abs(new_hi - cur_hi) <= TOLERANCE:
            # Flat lines keep their levels wherever they are anchored.
            up, low = self.domains[vid].lo, self.domains[vid].hi
            if (up.s == 0.0 and low.s == 0.0) or (
                abs(_level(up, new_lo) - _level(up, cur_lo)) <= TOLERANCE
                and abs(_level(low, new_hi) - _level(low, cur_hi)) <= TOLERANCE
            ):
                return
        self._lo[vid] = new_lo
        self._hi[vid] = new_hi
        self._moved.add(vid)
        self._wake(vid)

    # eq and leq exchange cdf lines, so they read projected domains.

    def _prop_eq(self, x: int, y: int) -> None:
        merged = meet(self._domain(x), self._domain(y))
        self._update(x, merged)
        self._update(y, merged)

    def _prop_leq(self, x: int, y: int) -> None:
        # x <= y: quantile bounds inherit across; pointwise F_x >= F_y lets
        # x borrow y's lower cdf line and y borrow x's upper one.  Unlike
        # meet, a sub-tolerance inversion collapses onto the bound that is
        # kept, not onto the midpoint.
        dx = self._domain(x)
        dy = self._domain(y)

        x_hi_q = min(dx.hi.q, dy.hi.q)
        if dx.lo.q > x_hi_q:
            if dx.lo.q - x_hi_q > TOLERANCE:
                raise Inconsistent(f"ordering wipes out {self.names[x]!r}")
            x_hi_q = dx.lo.q
        mid_x = 0.5 * (dx.lo.q + x_hi_q)
        low_x = tighter_lower(dx.hi, dy.hi, mid_x)
        self._update(x, reanchor(dx.lo, low_x, dx.lo.q, x_hi_q))

        dx = self.domains[x]
        y_lo_q = max(dy.lo.q, dx.lo.q)
        if y_lo_q > dy.hi.q:
            if y_lo_q - dy.hi.q > TOLERANCE:
                raise Inconsistent(f"ordering wipes out {self.names[y]!r}")
            y_lo_q = dy.hi.q
        mid_y = 0.5 * (y_lo_q + dy.hi.q)
        up_y = tighter_upper(dy.lo, dx.lo, mid_y)
        self._update(y, reanchor(up_y, dy.hi, y_lo_q, dy.hi.q))

    # The arithmetic propagators project x op y = z onto each variable in
    # turn, always reading the bounds left by the previous projection.

    def _prop_add(self, *args: int) -> None:
        # x1 + ... + xn = z in O(n): z takes the left-to-right sum of the
        # terms; term k takes z minus the later terms, one at a time, minus the
        # sum of the earlier ones as narrowed: a binary-sum chain without
        # accumulators.  The interval sums are computed inline: this is the
        # hottest propagator.  Two terms, the most common sum, run the same
        # float operations in the same order unrolled, with no list of rests.
        los, his = self._lo, self._hi
        n = len(args) - 1
        if n == 2:
            x, y, z = args
            self._narrow(z, los[x] + los[y], his[x] + his[y])
            z_lo, z_hi = los[z], his[z]
            lo, hi = z_lo - his[y], z_hi - los[y]
            if not (lo <= los[x] and hi >= his[x]):
                self._narrow(x, lo, hi)
            lo, hi = z_lo - his[x], z_hi - los[x]
            if not (lo <= los[y] and hi >= his[y]):
                self._narrow(y, lo, hi)
            return
        x = args[0]
        lo, hi = los[x], his[x]
        for x in args[1:n]:
            lo += los[x]
            hi += his[x]
        z = args[n]
        self._narrow(z, lo, hi)
        lo, hi = los[z], his[z]
        rests = [(lo, hi)]
        for i in range(n - 1, 0, -1):
            x = args[i]
            lo -= his[x]
            hi -= los[x]
            rests.append((lo, hi))
        for i, x in enumerate(args[:n]):
            lo, hi = rests.pop()
            if i:
                lo -= p_hi
                hi -= p_lo
            t_lo, t_hi = los[x], his[x]
            # The contraction test of _narrow, inlined: this loop is hot.
            if not (lo <= t_lo and hi >= t_hi):
                self._narrow(x, lo, hi)
                t_lo, t_hi = los[x], his[x]
            if i:
                p_lo += t_lo
                p_hi += t_hi
            else:
                p_lo, p_hi = t_lo, t_hi

    def _prop_mul(self, x: int, y: int, z: int) -> None:
        # Reverse projections over a zero-straddling factor are skipped,
        # which is sound but weaker.
        los, his = self._lo, self._hi
        self._narrow(z, *mul_bounds(los[x], his[x], los[y], his[y]))
        y_lo, y_hi = los[y], his[y]
        if y_lo <= 0.0 <= y_hi:
            self.stats["skipped_div_projections"] += 1
        else:
            self._narrow(x, *div_bounds(los[z], his[z], y_lo, y_hi))
        x_lo, x_hi = los[x], his[x]
        if x_lo <= 0.0 <= x_hi:
            self.stats["skipped_div_projections"] += 1
        else:
            self._narrow(y, *div_bounds(los[z], his[z], x_lo, x_hi))

    def _prop_div(self, x: int, y: int, z: int) -> None:
        # A zero-straddling divisor raises before any projection, and
        # propagate sets the constraint aside until the fixpoint; otherwise
        # x / y = z runs as the product z * y = x.
        y_lo, y_hi = self._lo[y], self._hi[y]
        if y_lo <= 0.0 <= y_hi:
            raise DivisorStraddlesZero(f"divisor range [{y_lo!r}, {y_hi!r}] contains zero")
        self._prop_mul(z, y, x)


# Kind -> (arity, propagator); x - y = z runs as z + y = x, x / y = z as z * y = x.
_KINDS = {
    "eq": (2, DomainStore._prop_eq),
    "leq": (2, DomainStore._prop_leq),
    "add": (3, DomainStore._prop_add),
    "sub": (3, lambda store, x, y, z: store._prop_add(z, y, x)),
    "mul": (3, DomainStore._prop_mul),
    "div": (3, DomainStore._prop_div),
}


# -- model files -----------------------------------------------------------


def parse_model(obj: dict) -> tuple[DomainStore, list[str]]:
    """Build a store from the model JSON structure.

    Variables carry either a full ``domain``, a convex ``range`` or a scalar
    ``value``; constraints name variables by their declared names.  A
    malformed model raises ``ValueError``.
    """
    if not isinstance(obj, dict):
        raise ValueError("model must be a JSON object")
    var_specs, con_specs = obj.get("vars", []), obj.get("constraints", [])
    if not (isinstance(var_specs, list) and isinstance(con_specs, list)):
        raise ValueError("'vars' and 'constraints' must be lists")
    store = DomainStore()
    ids: dict[str, int] = {}
    order: list[str] = []
    for spec in var_specs:
        if not isinstance(spec, dict):
            raise ValueError(f"variable must be an object: {spec!r}")
        name = spec.get("name")
        if not isinstance(name, str) or not name:
            raise ValueError(f"variable needs a name: {spec!r}")
        if name in ids:
            raise ValueError(f"duplicate variable {name!r}")
        try:
            if "domain" in spec:
                domain = PboxInterval.from_dict(spec["domain"])
            elif "range" in spec:
                lo, hi = spec["range"]
                domain = convex_interval(json_number(lo), json_number(hi))
            elif "value" in spec:
                domain = point_mass(json_number(spec["value"]))
            else:
                raise ValueError("needs a domain, range or value")
        except (KeyError, TypeError) as exc:
            raise ValueError(f"variable {name!r} has a malformed domain: {exc!r}") from None
        except ValueError as exc:
            raise ValueError(f"variable {name!r}: {exc}") from None
        ids[name] = store.new_var(domain, name=name)
        order.append(name)
    for spec in con_specs:
        if not isinstance(spec, dict) or not isinstance(spec.get("args", []), list):
            raise ValueError(f"constraint must be an object with a list of args: {spec!r}")
        args = spec.get("args", [])
        try:
            resolved = tuple([ids[arg] for arg in args])
        except (KeyError, TypeError):
            raise ValueError(f"constraint references unknown variables: {args!r}") from None
        store.post(Constraint(spec.get("kind"), resolved))
    return store, order


def solution_dict(store: DomainStore, order: list[str]) -> dict:
    """Final domains plus status, mirroring the model's variable order."""
    by_name = {name: store.domains[vid] for vid, name in enumerate(store.names)}
    return {
        "status": store.status,
        "vars": [
            {"name": name, "domain": by_name[name].to_dict()} for name in order
        ],
    }
