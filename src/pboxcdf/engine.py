"""Variable store and fixpoint propagation for p-box cdf-interval constraints.

Constraints register watch lists on their variables and sit in a FIFO wake
queue.  A propagator re-enters the queue only when one of its variables moved
by more than the fixed absolute ``TOLERANCE`` in any scalar component, so runs
terminate at a stable fixpoint.  One n-ary ``add`` also runs ``sub``; ``mul`` runs ``div``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .pbox import (
    TOLERANCE,
    DivisorStraddlesZero,
    Inconsistent,
    PboxInterval,
    anchor,
    convex_interval,
    json_number,
    meet,
    point_mass,
    repair_dominance,
    tighter_lower,
    tighter_upper,
)
from .arith import checked, div_bounds, mul_bounds, slide

# _prop_add's slack-test margin per (terms + 1)^2 and per unit of the largest
# endpoint magnitude, 4 * 2^-52; and the cap on the margin below which no sum
# of its endpoints can overflow (see _prop_add).
_MARGIN_ULP = 2.0**-50
_MARGIN_CAP = 2.0**970

CONSISTENT = "consistent"
FAILED = "failed"


@dataclass(frozen=True, slots=True)
class Constraint:
    """A constraint record over variable ids.

    Binary kinds: ``eq``, ``leq``.  ``add`` takes two or more terms, then
    the result: ``x1 + ... + xn = z``.  Ternary kinds ``sub``, ``mul``,
    ``div`` relate ``args[0] op args[1] = args[2]``.
    """

    kind: str
    args: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _KINDS:
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        arity = _KINDS[self.kind][0]
        n = len(self.args)
        if n < arity or n > arity and self.kind != "add":
            raise ValueError(f"constraint {self.kind!r} takes {arity} variables, got {n}")


def coerce_domain(initial) -> PboxInterval:
    """Accept a PboxInterval, a (lo, hi) quantile range (convex embedding) or
    a scalar (point mass)."""
    if isinstance(initial, PboxInterval):
        return initial
    if isinstance(initial, (int, float)):
        return point_mass(float(initial))
    if isinstance(initial, (tuple, list)) and len(initial) == 2:
        return convex_interval(float(initial[0]), float(initial[1]))
    raise ValueError(f"cannot interpret {initial!r} as a variable domain")


class DomainStore:
    """Solver state: domains, constraints, watch lists and the wake queue.

    A store is single-threaded; clones are cheap and independent, which is
    how search explores alternatives.
    """

    def __init__(self):
        self.domains: list[PboxInterval] = []
        self.names: list[str] = []
        self.constraints: list[Constraint] = []
        self._watchers: list[list[int]] = []
        self._queue: deque[int] = deque()
        self._queued: list[bool] = []
        self.status: str = CONSISTENT
        self.stats = {
            "wakes": 0,
            "prunes": 0,
            "skipped_div_projections": 0,
            "skipped_add_passes": 0,
        }
        self._shared_topology = False

    # -- construction ------------------------------------------------------

    def new_var(self, initial, name: str | None = None) -> int:
        domain = coerce_domain(initial)
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
        for vid in set(constraint.args):
            self._watchers[vid].append(idx)
        self._enqueue(idx)

    def clone(self) -> "DomainStore":
        """Independent copy sharing the (append-only) constraint topology."""
        other = DomainStore.__new__(DomainStore)
        other.domains = list(self.domains)
        other.names = self.names
        other.constraints = self.constraints
        other._watchers = self._watchers
        other._queue = deque(self._queue)
        other._queued = list(self._queued)
        other.status = self.status
        other.stats = dict(self.stats)
        other._shared_topology = True
        self._shared_topology = True
        return other

    def _unshare(self) -> None:
        self.names = list(self.names)
        self.constraints = list(self.constraints)
        self._watchers = [list(w) for w in self._watchers]
        self._shared_topology = False

    # -- propagation -------------------------------------------------------

    def _enqueue(self, idx: int) -> None:
        if not self._queued[idx]:
            self._queued[idx] = True
            self._queue.append(idx)

    def fail(self) -> None:
        """Mark the store inconsistent and drop all pending wakes."""
        self.status = FAILED
        self._queue.clear()

    def _update(self, vid: int, new: PboxInterval) -> None:
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
        self.stats["prunes"] += 1
        for idx in self._watchers[vid]:
            self._enqueue(idx)

    def tighten(self, vid: int, narrower) -> str:
        """Meet a variable's domain with a narrower one and propagate wakes."""
        if self.status == FAILED:
            return FAILED
        try:
            self._update(vid, meet(self.domains[vid], coerce_domain(narrower)))
        except Inconsistent:
            self.fail()
        return self.status

    def propagate(self) -> str:
        """Run queued propagators to fixpoint; returns the resulting status.

        A propagator that raises :class:`DivisorStraddlesZero` has changed
        nothing; it is set aside, and a change to one of its variables wakes
        it as usual.  Once the queue is empty the set-aside constraints run
        again, and if a round of them changes no domain the first one is put
        back at the head of the queue and its error is raised, so a model
        errors only if a divisor still contains zero at the fixpoint,
        whatever the order of its constraints.  An overflow ``ValueError``
        puts the interrupted constraint back at the head of the queue and is
        re-raised.  Either way the store never reports a fixpoint it has not
        reached.
        """
        if self.status == FAILED:
            return FAILED
        queue = self._queue
        waiting: dict[int, DivisorStraddlesZero] = {}
        writes = -1
        while True:
            while queue:
                idx = queue.popleft()
                self._queued[idx] = False
                self.stats["wakes"] += 1
                c = self.constraints[idx]
                try:
                    _KINDS[c.kind][1](self, *c.args)
                except Inconsistent:
                    self.fail()
                    return FAILED
                except DivisorStraddlesZero as exc:
                    waiting[idx] = exc
                except ValueError:
                    self._queued[idx] = True
                    queue.appendleft(idx)
                    for other in waiting:
                        self._enqueue(other)
                    raise
            if not waiting:
                return CONSISTENT
            if self.stats["prunes"] == writes:
                # The set-aside constraints ran again on unchanged domains.
                for other in reversed(waiting):
                    self._queued[other] = True
                    queue.appendleft(other)
                raise next(iter(waiting.values()))
            writes = self.stats["prunes"]
            for other in waiting:
                self._enqueue(other)
            waiting.clear()

    def _slide_to(self, vid: int, bounds: tuple[float, float]) -> None:
        # Fast exit for the common fixpoint case where nothing contracts.
        lo, hi = bounds
        d = self.domains[vid]
        if lo <= d.lo.q and hi >= d.hi.q:
            return
        self._update(vid, slide(d, checked(lo, hi)))

    def _prop_eq(self, x: int, y: int) -> None:
        merged = meet(self.domains[x], self.domains[y])
        self._update(x, merged)
        self._update(y, merged)

    def _prop_leq(self, x: int, y: int) -> None:
        # x <= y: quantile bounds inherit across; pointwise F_x >= F_y lets
        # x borrow y's lower cdf line and y borrow x's upper one.  Unlike
        # meet, a sub-tolerance inversion collapses onto the bound that is
        # kept, not onto the midpoint.
        dx = self.domains[x]
        dy = self.domains[y]

        x_hi_q = min(dx.hi.q, dy.hi.q)
        if dx.lo.q > x_hi_q:
            if dx.lo.q - x_hi_q > TOLERANCE:
                raise Inconsistent(f"ordering wipes out {self.names[x]!r}")
            x_hi_q = dx.lo.q
        mid_x = 0.5 * (dx.lo.q + x_hi_q)
        low_x = tighter_lower(dx.hi, dy.hi, mid_x)
        self._update(x, repair_dominance(PboxInterval(dx.lo, anchor(low_x, x_hi_q))))

        dx = self.domains[x]
        y_lo_q = max(dy.lo.q, dx.lo.q)
        if y_lo_q > dy.hi.q:
            if y_lo_q - dy.hi.q > TOLERANCE:
                raise Inconsistent(f"ordering wipes out {self.names[y]!r}")
            y_lo_q = dy.hi.q
        mid_y = 0.5 * (y_lo_q + dy.hi.q)
        up_y = tighter_upper(dy.lo, dx.lo, mid_y)
        self._update(y, repair_dominance(PboxInterval(anchor(up_y, y_lo_q), dy.hi)))

    # The arithmetic propagators project x op y = z onto each variable in
    # turn, always reading the domains left by the previous projection.

    def _prop_add(self, *args: int) -> None:
        # x1 + ... + xn = z in O(n): z takes the left-to-right sum S of the
        # terms; term k takes z minus the later terms, one at a time, minus the
        # sum of the earlier ones as narrowed: a binary-sum chain without
        # accumulators.  The interval sums of arith.add_bounds/sub_bounds are
        # inlined (the same float operations): this is the hottest propagator.
        #
        # Slack test (Harvey & Schimpf, TRICS 2002).  In exact arithmetic term
        # k's new lower bound is hi_k - (S_hi - z_lo), so it moves only if its
        # width w_k exceeds S_hi - z_lo; likewise for the upper bound with
        # z_hi - S_lo.  When wmax + margin < min(S_hi - z_lo, z_hi - S_lo),
        # the backward pass would slide no term, so it is skipped.
        #
        # Margin.  Let B = max(hi, -lo) over the terms and z, which bounds
        # |lo| and |hi| as lo <= hi, and u = 2^-53.  Each float sum here (S,
        # the slack, a term's backward bound) adds or subtracts at most n+1 of
        # those values with at most n roundings, so it is within n*(n+1)*u*B
        # of its exact value; a width is within 2*u*B.  The slack and one
        # backward bound together are off by under 2*(n+1)^2*u*B, and the
        # margin 4*(n+1)^2*2^-52*B is four times that, higher-order terms
        # included.  So a skip implies w_k < S_hi - z_lo exactly, and every
        # term's float bound would have passed the contraction test below.
        # The test also requires (n+1)*B < 2^1020 (margin < 2^970): then no
        # sum overflows, and a non-finite S or slack never skips.
        #
        # z is read after its slide.  If z is also a term and the slide moved
        # it, S cut one of its old bounds, so that side's slack is below z's
        # old width and the test fails: a skip sees the terms the backward
        # pass would read.
        d = self.domains
        n = len(args) - 1
        dt = d[args[0]]
        lo, hi = dt.lo.q, dt.hi.q
        wmax = hi - lo
        big = hi if hi > -lo else -lo
        for x in args[1:n]:
            dt = d[x]
            t_lo, t_hi = dt.lo.q, dt.hi.q
            lo += t_lo
            hi += t_hi
            if t_hi - t_lo > wmax:
                wmax = t_hi - t_lo
            if t_hi > big:
                big = t_hi
            if -t_lo > big:
                big = -t_lo
        z = args[n]
        self._slide_to(z, (lo, hi))
        dz = d[z]
        z_lo, z_hi = dz.lo.q, dz.hi.q
        if z_hi > big:
            big = z_hi
        if -z_lo > big:
            big = -z_lo
        margin = (n + 1) * (n + 1) * _MARGIN_ULP * big
        bar = wmax + margin
        if bar < hi - z_lo and bar < z_hi - lo and margin < _MARGIN_CAP:
            self.stats["skipped_add_passes"] += 1
            return
        lo, hi = z_lo, z_hi
        rests = [(lo, hi)]
        for i in range(n - 1, 0, -1):
            dt = d[args[i]]
            lo -= dt.hi.q
            hi -= dt.lo.q
            rests.append((lo, hi))
        for i, x in enumerate(args[:n]):
            lo, hi = rests.pop()
            if i:
                lo -= p_hi
                hi -= p_lo
            dt = d[x]
            # The contraction test of _slide_to, inlined: this loop is hot.
            if not (lo <= dt.lo.q and hi >= dt.hi.q):
                self._update(x, slide(dt, checked(lo, hi)))
                dt = d[x]
            if i:
                p_lo += dt.lo.q
                p_hi += dt.hi.q
            else:
                p_lo, p_hi = dt.lo.q, dt.hi.q

    def _prop_mul(self, x: int, y: int, z: int) -> None:
        # Reverse projections over a zero-straddling factor are skipped,
        # which is sound but weaker.
        d = self.domains
        dx, dy = d[x], d[y]
        self._slide_to(z, mul_bounds(dx.lo.q, dx.hi.q, dy.lo.q, dy.hi.q))
        dy = d[y]
        if dy.lo.q <= 0.0 <= dy.hi.q:
            self.stats["skipped_div_projections"] += 1
        else:
            dz = d[z]
            self._slide_to(x, div_bounds(dz.lo.q, dz.hi.q, dy.lo.q, dy.hi.q))
        dx = d[x]
        if dx.lo.q <= 0.0 <= dx.hi.q:
            self.stats["skipped_div_projections"] += 1
        else:
            dz = d[z]
            self._slide_to(y, div_bounds(dz.lo.q, dz.hi.q, dx.lo.q, dx.hi.q))

    def _prop_div(self, x: int, y: int, z: int) -> None:
        # A zero-straddling divisor raises before any projection, and
        # propagate sets the constraint aside until the fixpoint; otherwise
        # x / y = z runs as the product z * y = x.
        dy = self.domains[y]
        if dy.lo.q <= 0.0 <= dy.hi.q:
            raise DivisorStraddlesZero(f"divisor range [{dy.lo.q!r}, {dy.hi.q!r}] contains zero")
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
