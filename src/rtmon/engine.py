"""Bottom-up fixpoint evaluation of policy states and constraint checking.

Membership is the least model of the clauses induced by the four statement
forms.  :func:`_reads` is the one place that says which roles a statement
reads.  :func:`_by_head` indexes statements by head, as member facts and
rules, which is all a walk over the rules heading some roles reads; and
:func:`_rule_index` completes that into the index every fixpoint pass
shares, adding rules by the roles they read and linked rules by the name
of their second role.  :meth:`_HeadIndex.select` builds the index of just
the statements heading some roles.  The evaluator takes the index from
its caller or builds it, and runs semi-naive rounds: a rule fires only on
the members its inputs gained in the previous round, joined with what the
other inputs already hold.  Results are independent of statement order.
Seeded with fixed roles, the same loop gives both bounds of restricted
trust.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional

from .model import (
    Constraint,
    IntersectionInclusion,
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
    under the roles those statements read (see
    :func:`rtmon.deps.evaluate_cone`): a role in it that is absent from
    ``members`` is empty, and a role outside it is unknown.  Read roles
    through :func:`role_members`, which raises ``LookupError`` for an
    unknown role instead of reading it as empty.  ``iteration_count`` is the
    number of rounds the evaluator ran, kept for diagnostics only.
    """

    members: Mapping[Role, frozenset[Principal]]
    iteration_count: int = 0
    cone: Optional[frozenset[Role]] = None


_EMPTY: frozenset[Principal] = frozenset()


def evaluate(p: PolicyState, index: Optional[_RuleIndex] = None) -> SemanticsIndex:
    """Compute role membership for every role with members in the state.

    ``index`` is ``_rule_index(p.statements)`` when the caller already holds it.
    """
    return _saturate(p, index=index)


def _reads(
    stmt: Statement, walk: Optional[Mapping[Role, Iterable[Principal]]] = None
) -> tuple[Role, ...]:
    """The roles ``stmt`` reads: the source of a simple inclusion, the first
    role of a linked one, the parts of an intersection (in name order),
    none for a member fact.  With ``walk`` given, ``A.r <- A.r1.r2`` also
    reads ``Y.r2`` for every ``Y`` that ``walk`` holds for ``A.r1``."""
    body = stmt.body
    if isinstance(body, SimpleInclusion):
        return (body.source,)
    if isinstance(body, LinkingInclusion):
        walked = walk.get(body.first, ()) if walk is not None else ()
        return (body.first, *(Role(y, body.second) for y in walked))
    if isinstance(body, IntersectionInclusion):
        return tuple(sorted(body.part_set, key=str))
    return ()


@dataclass(frozen=True)
class _HeadIndex:
    """Statements by head: member facts and rules (the other statements).
    Walks over the rules heading some roles need no more than this."""

    facts: Mapping[Role, list[Principal]]
    heads: Mapping[Role, list[Statement]]

    def select(self, roles: Iterable[Role]) -> _RuleIndex:
        """The rule index of just the statements heading ``roles``."""
        facts = {r: self.facts[r] for r in roles if r in self.facts}
        heads = {r: self.heads[r] for r in roles if r in self.heads}
        return _index_rules(facts, heads)


@dataclass(frozen=True)
class _RuleIndex(_HeadIndex):
    """Statements indexed for fixpoint passes: by head, rules by each role
    they read, and linked rules by the name of their second role."""

    readers: Mapping[Role, list[Statement]]
    linked: Mapping[RoleName, list[Statement]]


def _by_head(
    statements: Iterable[Statement], skip: Optional[Callable[[Role], bool]] = None
) -> _HeadIndex:
    """Index ``statements`` by head, leaving out those whose head ``skip``
    selects."""
    facts: dict[Role, list[Principal]] = defaultdict(list)
    heads: dict[Role, list[Statement]] = defaultdict(list)
    for stmt in statements:
        if skip is not None and skip(stmt.head):
            continue
        body = stmt.body
        if isinstance(body, SimpleMember):
            facts[stmt.head].append(body.member)
        else:
            heads[stmt.head].append(stmt)
    return _HeadIndex(facts, heads)


def _rule_index(
    statements: Iterable[Statement], skip: Optional[Callable[[Role], bool]] = None
) -> _RuleIndex:
    """Index ``statements``, leaving out those whose head ``skip`` selects."""
    by_head = _by_head(statements, skip)
    return _index_rules(by_head.facts, by_head.heads)


def _index_rules(
    facts: Mapping[Role, list[Principal]], heads: Mapping[Role, list[Statement]]
) -> _RuleIndex:
    """Complete the index of the given facts and rules by head."""
    readers: dict[Role, list[Statement]] = defaultdict(list)
    linked: dict[RoleName, list[Statement]] = defaultdict(list)
    for rules in heads.values():
        for stmt in rules:
            for role in _reads(stmt):
                readers[role].append(stmt)
            if isinstance(stmt.body, LinkingInclusion):
                linked[stmt.body.second].append(stmt)
    return _RuleIndex(facts, heads, readers, linked)


def _saturate(
    p: PolicyState,
    fixed: Optional[Callable[[Role], bool]] = None,
    universe: frozenset[Principal] = _EMPTY,
    index: Optional[_RuleIndex] = None,
) -> SemanticsIndex:
    """Least model of the state with the roles ``fixed`` selects held at
    ``universe``.

    A fixed role is never stored and never gains: statements heading it are
    skipped, reading it returns ``universe``, and it enters the first round
    as new members for every rule that reads it by name.  Without ``fixed``
    this is exact membership; with an empty ``universe`` it is membership
    in the state restricted to the heads ``fixed`` leaves out.

    ``index`` is ``_rule_index(p.statements, fixed)`` when the caller
    already holds it.
    """
    if index is None:
        index = _rule_index(p.statements, fixed)
    readers, linked = index.readers, index.linked
    members: dict[Role, set[Principal]] = {
        role: set(found) for role, found in index.facts.items()
    }
    delta: dict[Role, Iterable[Principal]] = dict(index.facts)
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
            for stmt in linked.get(role.name, ()):
                # ``role`` may be the second component, reached through its owner.
                if role.owner in read(stmt.body.first):
                    gain(stmt.head, added, fresh)
        delta = fresh

    return SemanticsIndex(
        {role: frozenset(found) for role, found in members.items() if found}, rounds
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
