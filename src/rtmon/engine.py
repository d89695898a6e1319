"""Bottom-up fixpoint evaluation of policy states and constraint checking.

Membership is the least model of the clauses induced by the four statement
forms.  The evaluator indexes the rules once per call by the roles they
read (a linked rule ``A.r <- A.r1.r2`` under ``A.r1`` and under the role
name ``r2``) and runs semi-naive rounds: a rule fires only on the members
its inputs gained in the previous round, joined with what the other inputs
already hold.  Results are independent of statement order.  The same loop
computes the upper bound of restricted trust, with the roles nobody
observes held at the universe of principals.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import AbstractSet, Callable, Iterable, Iterator, Mapping, Optional

from .model import (
    Constraint,
    IntersectionExpr,
    LinkingInclusion,
    PolicyState,
    PositiveRoleExpr,
    Principal,
    PrincipalSet,
    Role,
    RoleName,
    RoleRef,
    SimpleInclusion,
    SimpleMember,
    Statement,
    UnionExpr,
)

__all__ = [
    "MembershipAtom",
    "SemanticsIndex",
    "evaluate",
    "role_members",
    "eval_expr",
    "ConstraintCheck",
    "check_constraint",
]


@dataclass(frozen=True)
class MembershipAtom:
    """Ground membership fact: ``member`` belongs to ``owner.role_name``."""

    owner: Principal
    role_name: RoleName
    member: Principal


@dataclass(frozen=True)
class SemanticsIndex:
    """Role membership for one state, holding only the non-empty roles.

    Every role absent from ``members`` is empty; read it through
    :func:`role_members` or ``members.get(role, frozenset())``.
    ``iteration_count`` is the number of rounds the evaluator ran, kept for
    diagnostics only.
    """

    members: Mapping[Role, frozenset[Principal]]
    iteration_count: int = 0

    def atoms(self) -> Iterator[MembershipAtom]:
        for role in sorted(self.members, key=str):
            for member in sorted(self.members[role], key=str):
                yield MembershipAtom(role.owner, role.name, member)


_EMPTY: frozenset[Principal] = frozenset()


def evaluate(p: PolicyState) -> SemanticsIndex:
    """Compute role membership for every role with members in the state."""
    return _saturate(p)


def _saturate(
    p: PolicyState,
    fixed: Optional[Callable[[Role], bool]] = None,
    universe: frozenset[Principal] = _EMPTY,
) -> SemanticsIndex:
    """Least model of the state with the roles ``fixed`` selects held at
    ``universe``.

    A fixed role is never stored and never gains: statements heading it are
    skipped, reading it returns ``universe``, and it enters the first round
    as new members for every rule that reads it by name.  Without ``fixed``
    this is exact membership.
    """
    members: dict[Role, set[Principal]] = {}
    # Rules by input role, and linked rules by the name of their second role.
    readers: dict[Role, list[Statement]] = defaultdict(list)
    linked_by_name: dict[RoleName, list[Statement]] = defaultdict(list)
    for stmt in p.statements:
        if fixed is not None and fixed(stmt.head):
            continue
        body = stmt.body
        if isinstance(body, SimpleMember):
            members.setdefault(stmt.head, set()).add(body.member)
        elif isinstance(body, SimpleInclusion):
            readers[body.source].append(stmt)
        elif isinstance(body, LinkingInclusion):
            readers[body.first].append(stmt)
            linked_by_name[body.second].append(stmt)
        else:
            for part in body.part_set:
                readers[part].append(stmt)
    delta: dict[Role, AbstractSet[Principal]] = {
        role: set(found) for role, found in members.items()
    }
    if fixed is not None:
        # A fixed second component ``Y.r2`` needs no seed: the walk from the
        # first component reads it at ``universe`` when ``Y`` arrives there.
        delta.update((role, universe) for role in readers if fixed(role))

    def read(role: Role) -> frozenset[Principal]:
        if fixed is not None and fixed(role):
            return universe
        return members.get(role, _EMPTY)

    def gain(head: Role, found: Iterable[Principal], fresh: dict[Role, set[Principal]]) -> None:
        have = members.get(head)
        if have is None:
            have = members[head] = set()
        new = [x for x in found if x not in have]
        if new:
            have.update(new)
            fresh.setdefault(head, set()).update(new)

    rounds = 0
    while delta:
        rounds += 1
        fresh: dict[Role, set[Principal]] = {}
        for role, added in delta.items():
            for stmt in readers.get(role, ()):
                body = stmt.body
                if isinstance(body, SimpleInclusion):
                    gain(stmt.head, added, fresh)
                elif isinstance(body, LinkingInclusion):
                    # ``role`` is the first component: walk the new members.
                    for y in added:
                        gain(stmt.head, read(Role(y, body.second)), fresh)
                else:
                    others = [read(part) for part in body.parts if part != role]
                    gain(stmt.head, (x for x in added if all(x in o for o in others)), fresh)
            for stmt in linked_by_name.get(role.name, ()):
                # ``role`` may be the second component, reached through its owner.
                if role.owner in read(stmt.body.first):
                    gain(stmt.head, added, fresh)
        delta = fresh

    return SemanticsIndex(
        {role: frozenset(found) for role, found in members.items() if found}, rounds
    )


def role_members(idx: SemanticsIndex, role: Role) -> frozenset[Principal]:
    """Members of ``role``; empty for roles absent from the index."""
    return idx.members.get(role, frozenset())


def eval_expr(idx: SemanticsIndex, expr: PositiveRoleExpr) -> frozenset[Principal]:
    """Evaluate a positive role expression against an index."""
    return _walk_expr(expr, lambda role: role_members(idx, role))


def _walk_expr(
    expr: PositiveRoleExpr, members_of: Callable[[Role], frozenset[Principal]]
) -> frozenset[Principal]:
    """Evaluate ``expr`` with each role read through ``members_of``."""
    if isinstance(expr, PrincipalSet):
        return expr.members
    if isinstance(expr, RoleRef):
        return members_of(expr.role)
    if isinstance(expr, UnionExpr):
        return _walk_expr(expr.left, members_of) | _walk_expr(expr.right, members_of)
    if isinstance(expr, IntersectionExpr):
        return _walk_expr(expr.left, members_of) & _walk_expr(expr.right, members_of)
    raise TypeError(f"unknown expression node: {expr!r}")


@dataclass(frozen=True)
class ConstraintCheck:
    satisfied: bool
    violators: frozenset[Principal]


def check_constraint(
    p: PolicyState, q: Constraint, idx: Optional[SemanticsIndex] = None
) -> ConstraintCheck:
    """Does ``p`` satisfy ``q``?  Violators are lhs members missing from rhs.

    ``idx`` is ``evaluate(p)`` when the caller already holds it.
    """
    if idx is None:
        idx = evaluate(p)
    lhs = eval_expr(idx, q.lhs)
    rhs = eval_expr(idx, q.rhs)
    violators = lhs - rhs
    return ConstraintCheck(satisfied=not violators, violators=frozenset(violators))
