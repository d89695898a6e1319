"""Conservative analysis when only some roles report their changes.

A role monitor splits the world into roles whose growth is observable and
roles whose shrinkage is observable.  Everything else may drift silently,
so exact membership is replaced by a pair of bounds, both runs of the
evaluator of :mod:`rtmon.engine` on the state's one index with each held
role at a set of its own.  :func:`_below` holds roles outside the
shrink-trusted set at the empty set, so only shrink-trusted definitions
count; :func:`_above` holds roles of ``TOP`` and roles outside the
growth-trusted set at the universe, current principals plus the reserved
``TOP`` for principals not seen yet.  Both bounds are sparse, and
:class:`BoundIndex` reads the roles they leave out by the same rules.

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
shrink-trusted set, and its upper bound with its held rule and its core per
growth-trusted set.  Each is computed once per state, however many
constraints read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Mapping

from .deps import _growth_roles
from .engine import _EMPTY, Held, _saturate, _walk_expr
from .model import (
    Constraint,
    PolicyState,
    PositiveRoleExpr,
    Principal,
    Role,
    RoleMonitor,
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
    "core",
    "gamma_restricted_expr",
    "check_bounded_containment",
]

#: A sparse bound: roles absent from the map take their default bound.
Bound = Mapping[Role, frozenset[Principal]]


@dataclass(frozen=True)
class BoundIndex:
    """Lower/upper membership bounds of one state, held sparsely.

    ``lower`` and ``upper`` hold the computed roles with a non-empty bound,
    and ``above`` is the upper bound's held rule.  Read any role through
    :meth:`lower_of` and :meth:`upper_of`: an absent role is empty below;
    above, it reads as its held set, the universe, or is empty
    (growth-trusted, so no unobserved statements can appear).
    """

    lower: Bound
    upper: Bound
    above: Held

    def lower_of(self, role: Role) -> frozenset[Principal]:
        return self.lower.get(role, _EMPTY)

    def upper_of(self, role: Role) -> frozenset[Principal]:
        held = self.above(role)
        return self.upper.get(role, _EMPTY) if held is None else held


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
    return p._derived("lower", s, lambda: _saturate(p._index, held=_below(s)).members)


def _below(s: Container[Role]) -> Held:
    """The lower bound's held rule for the shrink-trusted set ``s``: the
    empty set for a role outside ``s``."""
    return lambda role: None if role in s else _EMPTY


def upper_bound(p: PolicyState, r: RoleMonitor) -> Bound:
    """Largest membership reachable through unobserved additions, for the
    growth-trusted roles that have members; the roles :func:`_above` holds
    at the universe are not stored."""
    return _upper(p, r.growth_trusted)[1]


def _above(p: PolicyState, g: Container[Role]) -> Held:
    """The upper bound's held rule for the growth-trusted set ``g``: the
    universe (current principals plus ``TOP``) for a role outside ``g``,
    and for every role of the form ``TOP.x``, which a linked role reaches
    when it walks through an untrusted first component."""
    universe = p.principals | {TOP}
    return lambda role: universe if role.owner == TOP or role not in g else None


def _upper(p: PolicyState, g: Container[Role]) -> tuple[Held, Bound]:
    """The held rule and the upper bound for the growth-trusted set ``g``,
    a frozenset or :data:`~rtmon.model.EVERY_ROLE`: the one entry of ``p``
    that the bounds, the core and the restricted growth walk read."""

    def compute() -> tuple[Held, Bound]:
        above = _above(p, g)
        return above, _saturate(p._index, held=above).members

    return p._derived("upper", g, compute)


def bounds(p: PolicyState, r: RoleMonitor) -> BoundIndex:
    """Both bounds for one state under one monitor, each read from its own
    entry of ``p``."""
    return BoundIndex(lower_bound(p, r), upper_bound(p, r), _upper(p, r.growth_trusted)[0])


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
        lambda: CoreSet(
            g, frozenset(role for role, found in _upper(p, g)[1].items() if TOP in found)
        ),
    )


def gamma_restricted_expr(
    p: PolicyState, g: Container[Role], expr: PositiveRoleExpr
) -> frozenset[Role]:
    """Union of restricted growth sets over the expression's roles."""
    g = _frozen(g)
    # A core role's simple and linked inputs lie in the core themselves, so
    # staying inside it drops only intersection parts.
    return _growth_roles(p._index, roles_of(expr), _upper(p, g)[1], core(p, g))


@dataclass(frozen=True)
class BoundedCheck:
    """Outcome of the conservative containment test.

    When it holds, no unobserved drift of the untrusted roles can break
    the constraint; witnesses are the members of ``lhs_upper``, the upper
    bound of the left side, that the lower bound of the right side cannot
    cover (possibly ``TOP``).
    """

    holds: bool
    witnesses: frozenset[Principal]
    lhs_upper: frozenset[Principal]


def check_bounded_containment(p: PolicyState, r: RoleMonitor, q: Constraint) -> BoundedCheck:
    idx = bounds(p, r)
    lhs_upper = _walk_expr(q.lhs, idx.upper_of)
    witnesses = lhs_upper - _walk_expr(q.rhs, idx.lower_of)
    return BoundedCheck(not witnesses, witnesses, lhs_upper)
