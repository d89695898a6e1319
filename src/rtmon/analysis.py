"""Conservative analysis when only some roles report their changes.

A role monitor splits the world into roles whose growth is observable and
roles whose shrinkage is observable.  Everything else may drift silently,
so exact membership is replaced by a pair of bounds: the lower bound is
what survives any unobserved shrinkage (only shrink-trusted definitions
count), the upper bound is what any unobserved growth could produce (roles
outside the growth-trusted set are assumed to contain everyone, including
the reserved ``TOP`` principal standing for principals not seen yet).
Both bounds come from the evaluator of :mod:`rtmon.engine` and are sparse:
they hold only roles with members, the upper bound only growth-trusted
ones, and :class:`BoundIndex` supplies the bound of every other role.

The trusted core strips from the growth-trusted set those roles whose
upper bound is forced to the full universe by an untrusted dependency;
restricted growth sets then stay inside the core, giving the monitor an
add-side frontier it can actually observe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Union

from .deps import _growth_roles, restrict
from .engine import _saturate, _walk_expr, evaluate
from .model import (
    Constraint,
    IntersectionInclusion,
    LinkingInclusion,
    PolicyState,
    PositiveRoleExpr,
    Principal,
    Role,
    RoleMonitor,
    RoleRef,
    SimpleInclusion,
    TOP,
    roles_of,
)

__all__ = [
    "BoundIndex",
    "CoreSet",
    "RestrictedGrowthSet",
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
    """Growth-trusted roles not undermined by untrusted dependencies."""

    roles: frozenset[Role]

    def __contains__(self, role: object) -> bool:
        return role in self.roles

    def __iter__(self) -> Iterator[Role]:
        return iter(self.roles)


@dataclass(frozen=True)
class RestrictedGrowthSet:
    """Growth frontier limited to roles inside the trusted core."""

    target: Union[Role, PositiveRoleExpr]
    roles: frozenset[Role]

    def __contains__(self, role: object) -> bool:
        return role in self.roles

    def __iter__(self) -> Iterator[Role]:
        return iter(self.roles)


def lower_bound(p: PolicyState, r: RoleMonitor) -> Bound:
    """Membership provable from shrink-trusted definitions alone.

    Statements heading an untrusted role may vanish unobserved, so only the
    restriction of the state to shrink-trusted heads counts; roles outside
    the shrink-trusted set therefore bound to the empty set.
    """
    return evaluate(restrict(p, r.bind(p).shrink_trusted)).members


def upper_bound(p: PolicyState, r: RoleMonitor) -> Bound:
    """Largest membership reachable through unobserved additions, for the
    growth-trusted roles that have members.

    Roles outside the growth-trusted set hold the full universe (current
    principals plus ``TOP``), and so does every role of the form ``TOP.x``,
    which a linked role reaches when it walks through an untrusted first
    component.  The evaluator holds both at the universe without storing
    them.
    """
    g = r.bind(p).growth_trusted

    def fixed(role: Role) -> bool:
        return role.owner == TOP or role not in g

    return _saturate(p, fixed, p.principals | {TOP}).members


def bounds(p: PolicyState, r: RoleMonitor) -> BoundIndex:
    """Both bounds for one state under one monitor."""
    m = r.bind(p)
    return BoundIndex(
        lower=lower_bound(p, m),
        upper=upper_bound(p, m),
        universe=p.principals | {TOP},
        monitor=m,
    )


def eval_lower(idx: BoundIndex, expr: PositiveRoleExpr) -> frozenset[Principal]:
    return _walk_expr(expr, idx.lower_of)


def eval_upper(idx: BoundIndex, expr: PositiveRoleExpr) -> frozenset[Principal]:
    return _walk_expr(expr, idx.upper_of)


def core(p: PolicyState, g: Iterable[Role], ub: Optional[Bound] = None) -> CoreSet:
    """The growth-trusted roles whose upper bounds stay informative.

    Computed by closing the complement: a trusted role is expelled when it
    simply includes an expelled/untrusted role, when its linked role walks
    from one, when the walk can land on one (judged against the upper bound
    of the first component, where ``TOP`` always lands outside), or when
    every part of an intersection it reads is out.

    ``ub`` is ``upper_bound(p, RoleMonitor(growth_trusted=g))`` when the
    caller already holds it.
    """
    g = frozenset(g)
    if ub is None:
        ub = upper_bound(p, RoleMonitor(growth_trusted=g))
    expelled: set[Role] = set()

    def outside(role: Role) -> bool:
        return role.owner == TOP or role not in g or role in expelled

    changed = True
    while changed:
        changed = False
        for stmt in p:
            if outside(stmt.head):
                continue
            body = stmt.body
            if isinstance(body, SimpleInclusion):
                out = outside(body.source)
            elif isinstance(body, LinkingInclusion):
                out = outside(body.first) or any(
                    outside(Role(x, body.second)) for x in ub.get(body.first, ())
                )
            elif isinstance(body, IntersectionInclusion):
                out = all(outside(part) for part in body.parts)
            else:
                continue
            if out:
                expelled.add(stmt.head)
                changed = True
    return CoreSet(g - expelled)


def gamma_restricted(p: PolicyState, g: Iterable[Role], target: Role) -> RestrictedGrowthSet:
    """Growth frontier of ``target`` kept inside the trusted core.

    A target outside the core gets the empty set: its upper bound is the
    full universe already, so no observable addition frontier exists.
    """
    return RestrictedGrowthSet(target, gamma_restricted_expr(p, g, RoleRef(target)).roles)


def gamma_restricted_expr(
    p: PolicyState,
    g: Iterable[Role],
    expr: PositiveRoleExpr,
    ub: Optional[Bound] = None,
    coreset: Optional[CoreSet] = None,
) -> RestrictedGrowthSet:
    """Union of restricted growth sets over the expression's roles.

    ``ub`` and ``coreset`` are ``upper_bound(p, RoleMonitor(growth_trusted=g))``
    and ``core(p, g, ub)`` when the caller already holds them.
    """
    g = frozenset(g)
    if ub is None:
        ub = upper_bound(p, RoleMonitor(growth_trusted=g))
    if coreset is None:
        coreset = core(p, g, ub)
    # A core role's simple and linked inputs lie in the core themselves, so
    # staying inside it drops only intersection parts.
    return RestrictedGrowthSet(expr, _growth_roles(p, roles_of(expr), ub, coreset.roles))


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


def check_bounded_containment(
    p: PolicyState, r: RoleMonitor, q: Constraint, idx: Optional[BoundIndex] = None
) -> BoundedCheck:
    """``idx`` is ``bounds(p, r)`` when the caller already holds it."""
    if idx is None:
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
