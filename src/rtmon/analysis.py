"""Conservative analysis when only some roles report their changes.

A role monitor splits the world into roles whose growth is observable and
roles whose shrinkage is observable.  Everything else may drift silently,
so exact membership is replaced by a pair of bounds, both seeded runs of
the evaluator of :mod:`rtmon.engine` on the state's one index: the
lower bound holds roles outside the shrink-trusted set at the empty set,
so only shrink-trusted definitions count; the upper bound holds roles
outside the growth-trusted set at the universe, current principals plus
the reserved ``TOP`` for principals not seen yet.  Both are sparse, and
:class:`BoundIndex` supplies the bound of every role they leave out.

Every pass asks the monitor's trusted sets only ``role in ...``, so a set
may be :data:`~rtmon.model.EVERY_ROLE` and is never expanded to the roles
of a state.

The trusted core is read off the upper bound: it is the growth-trusted
roles whose bound lacks ``TOP``.  ``TOP`` enters the upper bound only
through a role held at the universe, and a trusted role that gains ``TOP``
through one gains the whole universe, so these are exactly the roles that
no untrusted dependency forces to the universe.  Restricted growth sets
stay inside the core, giving the monitor an add-side frontier it can
actually observe.

A state keeps what is derived from it here: its lower bound per
shrink-trusted set, its upper bound and core per growth-trusted set, and
both bounds per monitor.  Each is computed once per state, however many
constraints read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Mapping

from .deps import _growth_roles
from .engine import _saturate, _walk_expr
from .model import (
    Constraint,
    PolicyState,
    PositiveRoleExpr,
    Principal,
    Role,
    RoleMonitor,
    RoleRef,
    TOP,
    _frozen,
    roles_of,
)

__all__ = [
    "BoundIndex",
    "CoreSet",
    "BoundedCheck",
    "lower_bound",
    "upper_bound",
    "bounds",
    "eval_lower",
    "eval_upper",
    "core",
    "gamma_restricted",
    "gamma_restricted_expr",
    "check_bounded_containment",
]

#: A sparse bound: roles absent from the map take their default bound.
Bound = Mapping[Role, frozenset[Principal]]


@dataclass(frozen=True)
class BoundIndex:
    """Lower/upper membership bounds of one state, held sparsely.

    ``lower`` holds the roles with a non-empty lower bound and ``upper`` the
    growth-trusted roles with a non-empty upper bound.  Read any role
    through :meth:`lower_of` and :meth:`upper_of`: an absent role takes the
    bound its trust status dictates, empty below, and above either empty
    (growth-trusted, so no unobserved statements can appear) or the full
    universe.
    """

    lower: Bound
    upper: Bound
    universe: frozenset[Principal]
    monitor: RoleMonitor

    def lower_of(self, role: Role) -> frozenset[Principal]:
        return self.lower.get(role, frozenset())

    def upper_of(self, role: Role) -> frozenset[Principal]:
        if role.owner == TOP:
            return self.universe
        got = self.upper.get(role)
        if got is not None:
            return got
        return frozenset() if role in self.monitor.growth_trusted else self.universe


@dataclass(frozen=True)
class CoreSet:
    """Growth-trusted roles not undermined by untrusted dependencies: the
    roles in ``trusted`` and not in ``expelled``."""

    trusted: Container[Role]
    expelled: frozenset[Role]

    def __contains__(self, role: object) -> bool:
        return role in self.trusted and role not in self.expelled


def lower_bound(p: PolicyState, r: RoleMonitor) -> Bound:
    """Membership provable from shrink-trusted definitions alone.

    Statements heading an untrusted role may vanish unobserved, so the
    evaluator holds every role outside the shrink-trusted set at the empty
    set: only the statements heading a shrink-trusted role count.
    """
    s = r.shrink_trusted
    return p._derived(
        "lower", s, lambda: _saturate(p._index, fixed=lambda role: role not in s).members
    )


def upper_bound(p: PolicyState, r: RoleMonitor) -> Bound:
    """Largest membership reachable through unobserved additions, for the
    growth-trusted roles that have members.

    Roles outside the growth-trusted set hold the full universe (current
    principals plus ``TOP``), and so does every role of the form ``TOP.x``,
    which a linked role reaches when it walks through an untrusted first
    component.  The evaluator holds both at the universe without storing
    them.
    """
    return _upper(p, r.growth_trusted)


def _upper(p: PolicyState, g: Container[Role]) -> Bound:
    """:func:`upper_bound` for the growth-trusted set ``g``, a frozenset or
    :data:`~rtmon.model.EVERY_ROLE`: the one entry of ``p`` that the
    bounds, the core and the restricted growth walk read."""

    def fixed(role: Role) -> bool:
        return role.owner == TOP or role not in g

    def compute() -> Bound:
        return _saturate(p._index, fixed=fixed, universe=p.principals | {TOP}).members

    return p._derived("upper", g, compute)


def bounds(p: PolicyState, r: RoleMonitor) -> BoundIndex:
    """Both bounds for one state under one monitor."""
    return p._derived(
        "bounds",
        r,
        lambda: BoundIndex(
            lower=lower_bound(p, r),
            upper=upper_bound(p, r),
            universe=p.principals | {TOP},
            monitor=r,
        ),
    )


def eval_lower(idx: BoundIndex, expr: PositiveRoleExpr) -> frozenset[Principal]:
    return _walk_expr(expr, idx.lower_of)


def eval_upper(idx: BoundIndex, expr: PositiveRoleExpr) -> frozenset[Principal]:
    return _walk_expr(expr, idx.upper_of)


def core(p: PolicyState, g: Container[Role]) -> CoreSet:
    """The growth-trusted roles whose upper bounds stay informative.

    A role is expelled when its upper bound holds ``TOP``.  ``TOP`` enters
    the bound only through a role held at the universe, and a trusted role
    that gains ``TOP`` gains the whole universe with it.
    """
    g = _frozen(g)
    return p._derived(
        "core",
        g,
        lambda: CoreSet(g, frozenset(role for role, found in _upper(p, g).items() if TOP in found)),
    )


def gamma_restricted(p: PolicyState, g: Container[Role], target: Role) -> frozenset[Role]:
    """Growth frontier of ``target`` kept inside the trusted core.

    A target outside the core gets the empty set: its upper bound is the
    full universe already, so no observable addition frontier exists.
    """
    return gamma_restricted_expr(p, g, RoleRef(target))


def gamma_restricted_expr(
    p: PolicyState, g: Container[Role], expr: PositiveRoleExpr
) -> frozenset[Role]:
    """Union of restricted growth sets over the expression's roles."""
    g = _frozen(g)
    # A core role's simple and linked inputs lie in the core themselves, so
    # staying inside it drops only intersection parts.
    return _growth_roles(p._index, roles_of(expr), _upper(p, g), core(p, g))


@dataclass(frozen=True)
class BoundedCheck:
    """Outcome of the conservative containment test.

    When it holds, no unobserved drift of the untrusted roles can break
    the constraint; witnesses are the upper-bound members of the left side
    that the lower bound of the right side cannot cover (possibly ``TOP``).
    """

    holds: bool
    witnesses: frozenset[Principal]
    lhs_upper: frozenset[Principal]
    rhs_lower: frozenset[Principal]


def check_bounded_containment(p: PolicyState, r: RoleMonitor, q: Constraint) -> BoundedCheck:
    idx = bounds(p, r)
    lhs_upper = eval_upper(idx, q.lhs)
    rhs_lower = eval_lower(idx, q.rhs)
    witnesses = lhs_upper - rhs_lower
    return BoundedCheck(
        holds=not witnesses,
        witnesses=frozenset(witnesses),
        lhs_upper=lhs_upper,
        rhs_lower=rhs_lower,
    )
