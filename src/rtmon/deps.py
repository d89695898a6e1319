"""Dependency analysis for constraint monitoring under full cooperation.

The portion of a state a constraint depends on is its cone: the roles of
its two sides, closed under the rules heading each role found, where a
linked role ``A.r1.r2`` reads ``Y.r2`` only for the ``Y`` that reach
``A.r1``.  :func:`rtmon.engine.evaluate` with ``roots`` finds it while it
evaluates, and the growth sets here walk inside it.

Two dual questions drive the monitor.  Growth sets answer "which role
definitions, if extended, could enlarge this membership" -- the add-side
frontier, a closure over the statements by head of the state's one index.
Supports answer "which roles (or which exact statements) currently prove
the memberships the constraint needs" -- the remove-side frontier.  Both
are plain sets in every layer: a growth set or a role support is a
``frozenset`` of roles, a credential support a ``frozenset`` of statements.
Inside the worklist a support is a bare token set, its membership's
why-provenance (Green, Karvounarakis & Tannen, PODS 2007), whose tokens are
roles or statements.  The worklist here computes, per role and member,
all minimal supports at once, pruning dominated supports.  Its first pass
walks the heads of the state's index in text order and each head's list
in order, so it fires every statement in the order of its text, and sets
the rules apart as it goes.  A member fact's singleton support is final,
so later passes visit only those rules, and re-fire one only when a role
:func:`rtmon.model._reads` names for it changed.  An intersection
joins its parts one at a time and keeps only the minimal unions, so its
cost grows with the number of minimal unions, not with the product of the
parts' supports.  A cap per (role, member) bounds pathological states at
the cost of possibly non-minimal (still valid) supports.  The cap and every
pick read one order: fewest tokens first, ties broken by sorted token
texts.  A state keeps the role-support worklist it ran per admissible set
and cap, so every support read of one state at one cap shares one run.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Container, Iterable, Iterator, Mapping, Optional, Union

from .engine import SemanticsIndex, _require_cone, evaluate
from .model import (
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
    _frozen,
    _reads,
    fold_expr,
    roles_of,
)

__all__ = [
    "DEFAULT_SUPPORT_CAP",
    "JustifiedEntry",
    "JustifiedSemantics",
    "NoSupport",
    "gamma",
    "gamma_expr",
    "justified_semantics",
    "support_for_constraint",
    "credential_support_for_constraint",
]

#: Per-(role, member) cap on retained support entries.
DEFAULT_SUPPORT_CAP = 8


@dataclass(frozen=True)
class JustifiedEntry:
    """One membership justification: ``member`` is provable from the
    statements of the roles in ``support`` alone."""

    member: Principal
    support: frozenset[Role]


@dataclass(frozen=True)
class JustifiedSemantics:
    """Per-role minimal supports.  ``truncated_roles`` holds the roles at
    which the entry cap dropped a support that no kept entry is a subset
    of; the entries of those roles and of the roles they feed are still
    valid supports, but minimality is no longer guaranteed.  When it is
    empty, the entries are exactly the minimal supports."""

    entries: Mapping[Role, frozenset[JustifiedEntry]]
    truncated_roles: frozenset[Role] = frozenset()

    @property
    def truncated(self) -> bool:
        """Did the cap lose a support anywhere?"""
        return bool(self.truncated_roles)

    def for_role(self, role: Role) -> frozenset[JustifiedEntry]:
        return self.entries.get(role, frozenset())


class NoSupport(Exception):
    """No (admissible) support proves the member's required membership."""

    def __init__(self, member: Principal):
        super().__init__(f"no admissible support for member {member.name}")
        self.member = member


def _growth_roles(
    heads: Mapping[Role, Iterable[Statement]],
    roots: Iterable[Role],
    members: Mapping[Role, frozenset[Principal]],
    within: Optional[Container[Role]] = None,
) -> frozenset[Role]:
    """Close ``roots`` under the definitions reachable from them.

    ``heads`` holds the statements by head, as ``PolicyState._index``
    does; a member fact reads no role.  ``members`` gives the members a
    linked role walks (absent roles are empty); with ``within`` given, only
    roles inside it are kept.
    """
    found: set[Role] = {r for r in roots if within is None or r in within}
    work = list(found)
    while work:
        for stmt in heads.get(work.pop(), ()):
            for r in _reads(stmt, members):
                if r not in found and (within is None or r in within):
                    found.add(r)
                    work.append(r)
    return frozenset(found)


def gamma(p: PolicyState, target: Role) -> frozenset[Role]:
    """Close ``{target}`` under the roles the statements heading each found
    role read, a linked role walking its first role's current members."""
    return gamma_expr(p, RoleRef(target))


def gamma_expr(
    p: PolicyState, expr: PositiveRoleExpr, idx: Optional[SemanticsIndex] = None
) -> frozenset[Role]:
    """Union of the growth sets of the expression's roles; empty when static.

    ``idx`` is ``evaluate(p)`` or a cone of ``p`` holding the expression's
    roles when the caller already holds it; the walk reads only roles of
    the cone.
    """
    roots = roles_of(expr)
    if idx is None:
        # The cone of the expression's roles is their growth set.
        return evaluate(p, roots).cone
    _require_cone(idx, roots)
    return _growth_roles(p._index, roots, idx.members)


# Worklist output: role -> member -> supports, each a set of tokens.
_Saturated = dict[Role, dict[Principal, list[frozenset]]]


def _support_key(support: frozenset):
    """The one support order: fewest tokens first, ties broken by the
    sorted token texts."""
    return (len(support), sorted(str(x) for x in support))


def _join(tok: frozenset, parts: list[list[frozenset]]) -> list[frozenset]:
    """The minimal unions of ``tok`` with one support of every part.

    The parts are joined one at a time, and after each join only the unions
    with no other union as a subset are kept: an extension of a dominated
    union is dominated by the same extension of its dominator, so this
    equals the minimal elements of the whole product.  Each step is
    quadratic in the unions it forms, never exponential in the number of
    parts, unless the minimal unions themselves are that many.
    """
    joined = [tok]
    for supports in parts:
        joined = [s | t for s in joined for t in supports]
        if len(joined) > 1:
            # Smaller first, so every subset of a union is met before it; the
            # sort is stable, since ``offer`` sees the unions in this order.
            joined.sort(key=len)
            unions, joined = joined, []
            for union in unions:
                for kept in joined:
                    if kept <= union:
                        break
                else:
                    joined.append(union)
    return joined


def _worklist(
    p: PolicyState,
    cap: Optional[int],
    heads: Optional[Container[Role]] = None,
    by_statement: bool = False,
) -> tuple[_Saturated, frozenset[Role]]:
    """Saturate supports per role and member, with subsumption pruning.

    The statements fired are those of ``p`` heading a role in ``heads``
    (every statement when it is ``None``).  The first pass sorts those
    heads by text and reads each one's list off the state's index, already
    in text order, so no run sorts statements.  What a fired statement
    contributes to a support, its token, is its head role, built once per
    head, or with ``by_statement`` the statement itself (only the credential
    replay asks for it, on a role support's few statements).
    A candidate is dropped when a kept support for the same member is a
    subset of it; inserting a candidate evicts the supports it dominates.
    When ``cap`` is hit for one (role, member), the first supports under
    :func:`_support_key` are kept.  A role is returned as truncated when
    some support cut there contains no support kept at the end: otherwise
    every candidate the cap cut was dominated anyway, the kept supports are
    closed under the rules up to dominance, and they are exactly the
    minimal supports.  A role's supports are built from the supports of the
    roles in its cone alone, so they are exact when no truncated role lies
    in that cone.

    Each pass fires statements in the order of their rendered text over
    insertion-ordered supports, so the result does not depend on hash seeds
    even under the cap.  ``cap`` is at least 1.  The first pass fires every
    statement, and a member fact fires only there: it offers the singleton
    of its token, which stays kept.  That pass lists the rules, with the
    roles each reads, as it fires them, and later passes visit that list
    alone.
    A rule fires again only when a role it reads changed since it last
    fired (for a linked rule: its first role or any role carrying its
    second name), or when a dominance eviction freed room under the cap in
    its head, which may admit a candidate the cap dropped before.
    """
    index = p._index
    rules: list[tuple[Statement, frozenset, tuple[Role, ...]]] = []
    cur: _Saturated = defaultdict(dict)
    # Logical clock: a role's stamp is the tick of its last change; a rule
    # remembers the tick at which it last fired.
    clock = 0
    changed_at: dict[Role, int] = {}
    name_changed_at: dict[RoleName, int] = {}
    freed_at: dict[Role, int] = {}
    fired_at: list[int] = []
    cut: list[tuple[Role, Principal, frozenset]] = []

    def offer(head: Role, member: Principal, support: frozenset) -> None:
        nonlocal clock
        by_member = cur[head]
        supports = by_member.get(member)
        if supports is None:
            # Nothing to dominate, evict or cut: ``cap`` is at least 1.
            by_member[member] = [support]
            freed = False
        else:
            for s in supports:
                if s <= support:
                    return
            kept = [s for s in supports if not support <= s]
            freed = len(kept) < len(supports)
            kept.append(support)
            if cap is not None and len(kept) > cap:
                kept.sort(key=_support_key)
                dropped = kept[cap:]
                del kept[cap:]
                cut.extend((head, member, s) for s in dropped)
                # A cut candidate evicted nothing (it would sort before what
                # it dominates), so the supports are unchanged.
                if any(s is support for s in dropped):
                    return
            by_member[member] = kept
        clock += 1
        changed_at[head] = clock
        name_changed_at[head.name] = clock
        if freed and cap is not None:
            freed_at[head] = clock

    def fire(stmt: Statement, tok: frozenset, inputs: tuple[Role, ...]) -> None:
        head, body = stmt.head, stmt.body
        if isinstance(body, SimpleInclusion):
            for member, supports in list(cur[body.source].items()):
                for sup in supports:
                    offer(head, member, sup | tok)
        elif isinstance(body, LinkingInclusion):
            for via, supports1 in list(cur[body.first].items()):
                second = cur.get(Role(via, body.second))
                if not second:
                    continue
                for sup1 in supports1:
                    for member, supports2 in list(second.items()):
                        for sup2 in supports2:
                            offer(head, member, sup1 | sup2 | tok)
        else:
            buckets = [cur[part] for part in inputs]
            for member in list(buckets[0]):
                if not all(member in b for b in buckets[1:]):
                    continue
                for support in _join(tok, [b[member] for b in buckets]):
                    offer(head, member, support)

    # The first pass.  A rule's slot in ``fired_at`` is its position in
    # ``rules``.  A fact's singleton stays kept: only the empty set is a
    # proper subset of it, and every singleton candidate for its (role,
    # member) equals it, so the cap, which keeps the smallest first, never
    # cuts it.  Firing the fact again would offer it again.
    for head in sorted((h for h in index if heads is None or h in heads), key=str):
        tok = frozenset((head,))
        for stmt in index[head]:
            if by_statement:
                tok = frozenset((stmt,))
            if isinstance(stmt.body, SimpleMember):
                offer(head, stmt.body.member, tok)
            else:
                inputs = _reads(stmt)
                rules.append((stmt, tok, inputs))
                fired_at.append(clock)
                fire(stmt, tok, inputs)
    start = 0
    while clock != start:
        start = clock
        for n, (stmt, tok, inputs) in enumerate(rules):
            head, body = stmt.head, stmt.body
            last = fired_at[n]
            if freed_at.get(head, 0) <= last:
                stamp = max((changed_at.get(r, 0) for r in inputs), default=0)
                if isinstance(body, LinkingInclusion):
                    stamp = max(stamp, name_changed_at.get(body.second, 0))
                if stamp <= last:
                    continue
            fired_at[n] = clock
            fire(stmt, tok, inputs)
    truncated = frozenset(
        head
        for head, member, support in cut
        if not any(s <= support for s in cur[head][member])
    )
    return {role: by_member for role, by_member in cur.items() if by_member}, truncated


def _check_cap(cap: Optional[int]) -> None:
    """Reject a support cap that would keep no support at all."""
    if cap is not None and cap < 1:
        raise ValueError(f"max_entries_per_member must be None or at least 1, got {cap}")


def _role_worklist(
    p: PolicyState, admissible: Optional[Container[Role]], cap: Optional[int]
) -> tuple[_Saturated, frozenset[Role]]:
    """Role supports per role and member, over the statements of ``p``
    heading a role in ``admissible`` (every statement when it is ``None``),
    with the roles the cap truncated; run once per admissible set and cap,
    and kept on ``p``.  Raises ``ValueError`` for a cap below 1."""
    _check_cap(cap)
    if admissible is not None:
        admissible = _frozen(admissible)
    return p._derived("worklist", (admissible, cap), lambda: _worklist(p, cap, admissible))


def justified_semantics(
    p: PolicyState, *, max_entries_per_member: Optional[int] = DEFAULT_SUPPORT_CAP
) -> JustifiedSemantics:
    """All minimal role-supports, per role and member, in one pass.

    With ``max_entries_per_member=None`` the result is exact, and it can be
    exponential in the size of the policy: an intersection of ``w`` parts
    with two disjoint alternatives each has ``2**w`` minimal supports.
    Raises ``ValueError`` for a cap below 1.
    """
    raw, truncated = _role_worklist(p, None, max_entries_per_member)
    entries = {
        role: frozenset(JustifiedEntry(m, sup) for m, found in by_member.items() for sup in found)
        for role, by_member in raw.items()
    }
    return JustifiedSemantics(entries, truncated)


def _best(candidates: Iterable[frozenset]) -> Optional[frozenset]:
    """The first candidate under :func:`_support_key`; ``None`` when there
    is none."""
    return min(candidates, key=_support_key, default=None)


def _member_expr_support(
    member: Principal, expr: PositiveRoleExpr, raw: _Saturated
) -> Optional[frozenset]:
    """One support witnessing ``member``'s membership in ``expr``.

    Principal sets need no support; a union takes whichever branch admits
    the member (the first under :func:`_support_key`); an intersection unions
    the supports of both branches.  ``None`` means not witnessable.
    """

    def leaf(e: Union[PrincipalSet, RoleRef]) -> Optional[frozenset]:
        if isinstance(e, PrincipalSet):
            return frozenset() if member in e.members else None
        return _best(raw.get(e.role, {}).get(member, ()))

    def either(left: Optional[frozenset], right: Optional[frozenset]) -> Optional[frozenset]:
        return _best([got for got in (left, right) if got is not None])

    def both(left: Optional[frozenset], right: Optional[frozenset]) -> Optional[frozenset]:
        return None if left is None or right is None else left | right

    return fold_expr(expr, leaf, either, both)


def _member_supports(
    members: Iterable[Principal], rhs: PositiveRoleExpr, raw: _Saturated
) -> Iterator[tuple[Principal, frozenset]]:
    """Each member, in name order, with the support :func:`_member_expr_support`
    picks for it; raises :class:`NoSupport` at the first member without one."""
    for member in sorted(set(members), key=str):
        got = _member_expr_support(member, rhs, raw)
        if got is None:
            raise NoSupport(member)
        yield member, got


def support_for_constraint(
    p: PolicyState,
    members: Iterable[Principal],
    rhs: PositiveRoleExpr,
    admissible: Optional[Container[Role]] = None,
    *,
    max_entries_per_member: Optional[int] = DEFAULT_SUPPORT_CAP,
) -> frozenset[Role]:
    """One role support proving every member's membership in ``rhs``.

    With ``admissible`` given, only supports inside it qualify (achieved by
    running the worklist on the statements heading admissible roles, which
    yields exactly the supports contained in ``admissible``).  Raises
    :class:`NoSupport` when some member has no qualifying support, and
    ``ValueError`` for a cap below 1.
    """
    saturated = _role_worklist(p, admissible, max_entries_per_member)[0]
    total: set[Role] = set()
    for _, got in _member_supports(members, rhs, saturated):
        total |= got
    return frozenset(total)


def credential_support_for_constraint(
    p: PolicyState,
    members: Iterable[Principal],
    rhs: PositiveRoleExpr,
    *,
    max_entries_per_member: Optional[int] = DEFAULT_SUPPORT_CAP,
) -> frozenset[Statement]:
    """Statement-level support: the statements one derivation actually uses.

    Per member, the role support is chosen exactly as in
    :func:`support_for_constraint`; the statements are then collected by
    re-running the worklist over the statements heading a role of that role
    support, so every collected statement's head lies inside it.  The
    worklist runs once per distinct role support, and the members sharing
    it pick their statements from that one run.  Raises ``ValueError`` for a
    cap below 1.
    """
    saturated = _role_worklist(p, None, max_entries_per_member)[0]
    replays: dict[frozenset, _Saturated] = {}
    total: set[Statement] = set()
    for member, role_support in _member_supports(members, rhs, saturated):
        if role_support not in replays:
            replays[role_support] = _worklist(
                p, max_entries_per_member, role_support, by_statement=True
            )[0]
        # The role support proves the membership, so the replay does too.
        total |= _member_expr_support(member, rhs, replays[role_support])
    return frozenset(total)
