"""Bottom-up fixpoint evaluation of policy states and constraint checking.

Membership is the least model of the clauses induced by the four statement
forms.  :func:`rtmon.model._reads` is the one place that says which roles
a statement reads, and a state's statements by head in its one index are
what every membership pass and growth walk reads: the state builds the
index once, on first use, or carries it over from the state it was
derived from (``PolicyState._index``).  :func:`_saturate` is the one
membership loop.  It indexes rules by the roles they read as it goes and
runs semi-naive rounds: a rule fires only on the members its inputs gained
in the previous round, joined with what the other inputs already hold.
:func:`evaluate` runs it on the whole state, or goal-directed on the cone
of some roots, indexing a role's rules only when the role is found to
matter.  Results are independent of statement order.  With some roles
held, each at a set of its own, the same loop on the same index gives
both bounds of restricted trust.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional

from .model import (
    Constraint,
    LinkingInclusion,
    PolicyState,
    PositiveRoleExpr,
    Principal,
    Role,
    RoleName,
    RoleRef,
    SimpleInclusion,
    SimpleMember,
    Statement,
    _reads,
    fold_expr,
)

__all__ = [
    "SemanticsIndex",
    "evaluate",
    "role_members",
    "eval_expr",
    "ConstraintCheck",
    "check_constraint",
]


@dataclass(frozen=True)
class SemanticsIndex:
    """Role membership for one state, holding only the non-empty roles.

    ``cone`` is ``None`` when every statement of the state was evaluated:
    then every role absent from ``members`` is empty.  Otherwise only the
    statements heading a role in ``cone`` were, and ``cone`` is closed
    under the roles those statements read, a linked role ``A.r1.r2``
    reading ``Y.r2`` for each ``Y`` in ``A.r1`` (see :func:`evaluate` with
    ``roots``): a role in it that is absent from ``members`` is empty, and
    a role outside it is unknown.  Read roles
    through :func:`role_members`, which raises ``LookupError`` for an
    unknown role instead of reading it as empty.  ``iteration_count`` is the
    number of rounds the evaluator ran, kept for diagnostics only.
    """

    members: Mapping[Role, frozenset[Principal]]
    iteration_count: int = 0
    cone: Optional[frozenset[Role]] = None


_EMPTY: frozenset[Principal] = frozenset()

#: The set a held role reads as, or ``None`` for a role the run computes.
Held = Callable[[Role], Optional[frozenset[Principal]]]


def evaluate(p: PolicyState, roots: Optional[Iterable[Role]] = None) -> SemanticsIndex:
    """Role membership in ``p``: of every role with members, or with
    ``roots`` given, of every role in their cone, whose result raises
    ``LookupError`` on a role outside it (see :class:`SemanticsIndex`)."""
    return _saturate(p._index, roots)


def _saturate(
    index: Mapping[Role, list[Statement]],
    roots: Optional[Iterable[Role]] = None,
    held: Optional[Held] = None,
) -> SemanticsIndex:
    """Least model of the statements of ``index`` with each role that
    ``held`` gives a set held at it, on every role or on the cone of ``roots``.

    A held role is never stored and never gains: statements heading it are
    skipped, reading it returns its held set, and it enters the next round
    as new members for every rule indexed as reading it by name.  Without
    ``held`` this is exact membership; with every held set empty it is
    membership in the state restricted to the heads it computes.

    Rules are indexed by the roles they read, and linked rules also by the
    name of their second role; the facts are the first round's new members.
    :func:`take` does both for one head, where the index's list of its
    statements is split into facts and rules.  Without ``roots`` every head
    is taken up front.  With ``roots``, a role is taken when it enters the
    cone: when it is a root, when a cone rule reads it, or, for
    ``Y.r2``, once ``Y`` reaches ``A.r1`` under ``A.r <- A.r1.r2``.  A rule
    indexed after the rounds began has what its inputs already hold passed
    to it as new, so it fires on that once in the next round, and from then
    on on what they gain: the result is exact on every role of the cone it
    returns.  This is the backward search of RT credential chain discovery
    (Li, Winsborough & Mitchell, JCS 2003) inside one semi-naive loop.
    """
    readers: dict[Role, list[Statement]] = defaultdict(list)
    linked: dict[RoleName, list[Statement]] = defaultdict(list)
    members: dict[Role, set[Principal]] = {}
    fresh: dict[Role, Iterable[Principal]] = {}
    cone: Optional[set[Role]] = None
    rounds = 0

    def read(role: Role) -> frozenset[Principal]:
        if held is not None and (got := held(role)) is not None:
            return got
        return members.get(role, _EMPTY)

    def gain(head: Role, found: Iterable[Principal]) -> None:
        # Set operations reuse the hashes a set holds: a candidate is hashed
        # at most once, and not at all when ``found`` is a set.
        new = set(found)
        have = members.get(head)
        if have is None:
            have = members[head] = set()
        new -= have
        if new:
            have |= new
            fresh.setdefault(head, set()).update(new)

    def put(stmt: Statement) -> tuple[Role, ...]:
        """Index ``stmt`` and pass it, as new, what the roles it reads by
        name already hold, so that it fires on them in the next round (the
        other rules reading those roles get them again and derive nothing
        new).  Before the rounds begin every member found is still new."""
        reads = _reads(stmt)
        for role in reads:
            readers[role].append(stmt)
            if held is not None and (got := held(role)) is not None:
                # The shared object: a held role never gains, so its entry
                # is never updated in place.
                fresh[role] = got
            elif rounds and role in members:
                fresh.setdefault(role, set()).update(members[role])
        if isinstance(stmt.body, LinkingInclusion):
            # A held second component ``Y.r2`` is read at its held set
            # when the walk from the first component reaches ``Y``.
            linked[stmt.body.second].append(stmt)
        return reads

    def take(head: Role) -> list[Role]:
        """Pass on the members the facts heading ``head`` name and index
        its rules; return the roles those rules read."""
        found: list[Principal] = []
        reads: list[Role] = []
        for stmt in index.get(head, ()):
            if isinstance(stmt.body, SimpleMember):
                found.append(stmt.body.member)
            else:
                reads += put(stmt)
        if found:
            gain(head, found)
        return reads

    def enter(root: Role) -> None:
        """Add ``root`` to the cone, and every role the rules heading a role
        added read, taking each."""
        cone.add(root)
        work = [root]
        while work:
            role = work.pop()
            if held is not None and held(role) is not None:
                continue
            for read_role in take(role):
                if read_role not in cone:
                    cone.add(read_role)
                    work.append(read_role)

    if roots is None:
        for head in index:
            if held is None or held(head) is None:
                take(head)
    else:
        cone = set()
        for root in roots:
            if root not in cone:
                enter(root)

    while fresh:
        rounds += 1
        delta, fresh = fresh, {}
        for role, added in delta.items():
            for stmt in readers.get(role, ()):
                body = stmt.body
                if isinstance(body, SimpleInclusion):
                    gain(stmt.head, added)
                elif isinstance(body, LinkingInclusion):
                    # ``role`` is the first component: walk the new members.
                    for y in added:
                        second = Role(y, body.second)
                        if cone is not None and second not in cone:
                            enter(second)
                        gain(stmt.head, read(second))
                else:
                    others = [read(part) for part in body.parts if part != role]
                    gain(stmt.head, (x for x in added if all(x in o for o in others)))
            for stmt in linked.get(role.name, ()):
                # ``role`` may be the second component, reached through its owner.
                if role.owner in read(stmt.body.first):
                    gain(stmt.head, added)

    return SemanticsIndex(
        {role: frozenset(found) for role, found in members.items() if found},
        rounds,
        None if cone is None else frozenset(cone),
    )


def role_members(idx: SemanticsIndex, role: Role) -> frozenset[Principal]:
    """Members of ``role``; empty for roles absent from the index, and a
    ``LookupError`` for roles outside the index's cone."""
    got = idx.members.get(role)
    if got is None:
        _require_cone(idx, (role,))
        return _EMPTY
    return got


def _require_cone(idx: SemanticsIndex, roles: Iterable[Role]) -> None:
    """Raise ``LookupError`` when ``idx`` is exact only on a cone that
    leaves out one of ``roles``."""
    if idx.cone is not None:
        for role in roles:
            if role not in idx.cone:
                raise LookupError(f"role {role} lies outside the evaluated cone")


def eval_expr(idx: SemanticsIndex, expr: PositiveRoleExpr) -> frozenset[Principal]:
    """Evaluate a positive role expression against an index."""
    return _walk_expr(expr, lambda role: role_members(idx, role))


def _walk_expr(
    expr: PositiveRoleExpr, members_of: Callable[[Role], frozenset[Principal]]
) -> frozenset[Principal]:
    """Evaluate ``expr`` with each role read through ``members_of``."""
    return fold_expr(
        expr,
        lambda e: members_of(e.role) if isinstance(e, RoleRef) else e.members,
        operator.or_,
        operator.and_,
    )


@dataclass(frozen=True)
class ConstraintCheck:
    satisfied: bool
    violators: frozenset[Principal]


def check_constraint(
    p: PolicyState, q: Constraint, idx: Optional[SemanticsIndex] = None
) -> ConstraintCheck:
    """Does ``p`` satisfy ``q``?  Violators are lhs members missing from rhs.

    ``idx`` is ``evaluate(p)``, or a cone of ``p`` holding the roles of both
    sides, when the caller already holds it.
    """
    if idx is None:
        idx = evaluate(p)
    lhs = eval_expr(idx, q.lhs)
    rhs = eval_expr(idx, q.rhs)
    violators = lhs - rhs
    return ConstraintCheck(satisfied=not violators, violators=frozenset(violators))
