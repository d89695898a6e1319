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
the rules apart as it goes, each under its watched keys.  A run confined
to admitted roles, the credential replay or a restricted support, walks
only the admitted heads and sets apart only the rules whose read roles are
all admitted heads; no other rule could ever offer.  A member fact's
singleton support is final, so later passes fire only rules, and only
those that a change of a watched role or role name made stale, in the
first pass's order.  An intersection
joins its parts one at a time and keeps only the minimal unions, so its
cost grows with the number of minimal unions, not with the product of the
parts' supports.  A cap per (role, member) bounds pathological states at
the cost of possibly non-minimal (still valid) supports.  The cap and every
pick read one order: fewest tokens first, ties broken by the sorted
positions of the tokens in the first pass, a head for a role token and a
statement for a statement token.  That pass walks both in text order, so
this is the order of the sorted token texts, and no ranking renders text.
A state keeps the worklist it ran per admissible set, cap and token kind:
every support read of one state at one cap shares one role-support run,
and every credential support read of it one replay per role support.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Container, Iterable, Iterator, Mapping, Optional, Union

from .engine import SemanticsIndex, _require_cone, evaluate
from .model import (
    EVERY_ROLE,
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
# The support order of one worklist run: a sort key on its supports.
_Order = Callable[[frozenset], tuple]


def _ranked(rank: Mapping[object, int]) -> _Order:
    """The one support order of a run whose first pass gave each token its
    position ``rank``: fewest tokens first, ties broken by the sorted
    positions.  That pass walks heads and statements in text order, so on
    distinct tokens this is the order of the sorted token texts."""
    position = rank.__getitem__

    def key(support: frozenset) -> tuple:
        return len(support), sorted(map(position, support))

    return key


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
    heads: Optional[frozenset[Role]] = None,
    by_statement: bool = False,
) -> tuple[_Saturated, frozenset[Role], _Order]:
    """Saturate supports per role and member, with subsumption pruning;
    returns the supports, the truncated roles and the run's support order.

    The statements fired are those of ``p`` heading a role in ``heads``
    (every statement when it is ``None``).  A ``heads``, the finite set of
    roles a run is confined to, is walked itself, not the whole index, and
    only the rules whose read roles all head statements in it are set
    apart: any other rule reads a role no statement fires for, so it could
    never offer.
    The first pass sorts the walked heads by text and reads each one's list
    off the state's index, already in text order, so no run sorts
    statements.  What a fired statement
    contributes to a support, its token, is its head role, built once per
    head, or with ``by_statement`` the statement itself (only the credential
    replay asks for it, on a role support's few statements).  Each token's
    position in that pass ranks it, and the run's order is
    :func:`_ranked` on those positions.
    A candidate is dropped when a kept support for the same member is a
    subset of it; inserting a candidate evicts the supports it dominates.
    When ``cap`` is hit for one (role, member), the first supports in the
    run's order are kept.  A role is returned as truncated when
    some support cut there contains no support kept at the end: otherwise
    every candidate the cap cut was dominated anyway, the kept supports are
    closed under the rules up to dominance, and they are exactly the
    minimal supports.  A role's supports are built from the supports of the
    roles in its cone alone, so they are exact when no truncated role lies
    in that cone.

    Each pass fires statements in the order of their rendered text over
    insertion-ordered supports, so the result does not depend on hash seeds
    even under the cap.  ``cap`` is at least 1.  The first pass fires every
    statement; a member fact fires only there, offering the singleton of its
    token, which stays kept.  That pass lists the rules, each under the
    keys it watches: the roles it reads and, for a linked rule, its second
    role name.  A firing that changes its head marks stale the rules
    watching the head or its name and, when a dominance eviction freed room
    under the cap, the rules heading it, which may now admit a candidate
    the cap dropped before.  A stale rule after the one fired fires later
    in the same pass, one at or before it in the next, so a rule fires
    again exactly when something it watches changed since its last firing,
    and later passes fire no other rule.
    """
    index = p._index
    confined: Optional[frozenset[Role]] = None
    if heads is None:
        walked: Iterable[Role] = index
    else:
        # The admitted heads as the state's own roles: one parsed apart, as
        # a monitor's are, is equal but not the same object, and each
        # lookup of it would compare fields.
        confined = frozenset(stmts[0].head for stmts in map(index.get, heads) if stmts)
        walked = confined
    rank: dict[Union[Role, Statement], int] = {}
    order = _ranked(rank)
    rules: list[tuple[Statement, frozenset, tuple]] = []
    cur: _Saturated = defaultdict(dict)
    # The positions in ``rules`` of the rules watching each role or role
    # name, and the range of those heading each role.
    readers: dict[Union[Role, RoleName], list[int]] = defaultdict(list)
    heading: dict[Role, range] = {}
    # Stale rules: ``now`` (a heap) fire later in this pass, ``later`` in
    # the next; ``queued`` flags the positions held in either.
    now: list[int] = []
    later: list[int] = []
    queued: list[bool] = []
    # Set by ``offer``, cleared after each statement fired: it changes one head.
    changed = freed_room = False
    cut: list[tuple[Role, Principal, frozenset]] = []

    def offer(head: Role, member: Principal, support: frozenset) -> None:
        nonlocal changed, freed_room
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
                kept.sort(key=order)
                dropped = kept[cap:]
                del kept[cap:]
                cut.extend((head, member, s) for s in dropped)
                # A cut candidate evicted nothing (it would sort before what
                # it dominates), so the supports are unchanged.
                if any(s is support for s in dropped):
                    return
            by_member[member] = kept
        changed = True
        if freed and cap is not None:
            freed_room = True

    def mark(head: Role, pos: int, below: int, freed: Iterable[int]) -> None:
        """Queue the rules before position ``below`` that a change of
        ``head`` made stale: those watching ``head`` or its name, and those
        in ``freed``, the rules heading it when an eviction freed room under
        the cap.  A rule after ``pos`` fires later in this pass, one at or
        before it in the next."""
        for q in [*readers.get(head, ()), *readers.get(head.name, ()), *freed]:
            if q < below and not queued[q]:
                queued[q] = True
                if q > pos:
                    heappush(now, q)
                else:
                    later.append(q)

    def fire(stmt: Statement, tok: frozenset, watched: tuple) -> None:
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
            buckets = [cur[part] for part in watched]
            for member in list(buckets[0]):
                if not all(member in b for b in buckets[1:]):
                    continue
                for support in _join(tok, [b[member] for b in buckets]):
                    offer(head, member, support)

    # The first pass.  A fact's singleton stays kept: only the empty set is
    # a proper subset of it, and every singleton candidate for its (role,
    # member) equals it, so the cap, which keeps the smallest first, never
    # cuts it.  Firing the fact again would offer it again.  A change makes
    # stale only the rules listed before it, all at or before the statement
    # fired, so this pass marks each head once, after its last statement,
    # and every mark goes to the next pass.
    for head in sorted(walked, key=str):
        tok = frozenset((head,))
        if not by_statement:
            rank[head] = len(rank)
        first_rule, stale_below, freed_below = len(rules), 0, 0
        for stmt in index[head]:
            fact = isinstance(stmt.body, SimpleMember)
            if not fact:
                watched = _reads(stmt)
                if confined is not None and not confined.issuperset(watched):
                    continue
            if by_statement:
                tok = frozenset((stmt,))
                rank[stmt] = len(rank)
            if fact:
                offer(head, stmt.body.member, tok)
            else:
                if isinstance(stmt.body, LinkingInclusion):
                    watched += (stmt.body.second,)
                for key in watched:
                    readers[key].append(len(rules))
                rules.append((stmt, tok, watched))
                queued.append(False)
                fire(stmt, tok, watched)
            if changed:
                stale_below = len(rules)
                if freed_room:
                    freed_below = len(rules)
                changed = freed_room = False
        heading[head] = range(first_rule, len(rules))
        if stale_below:
            mark(head, stale_below, stale_below, range(first_rule, freed_below))
    while later:
        now, later = sorted(later), []
        while now:
            pos = heappop(now)
            queued[pos] = False
            stmt, tok, watched = rules[pos]
            fire(stmt, tok, watched)
            if changed:
                mark(stmt.head, pos, len(rules), heading[stmt.head] if freed_room else ())
                changed = freed_room = False
    truncated = frozenset(
        head
        for head, member, support in cut
        if not any(s <= support for s in cur[head][member])
    )
    return {role: by_member for role, by_member in cur.items() if by_member}, truncated, order


def _role_worklist(
    p: PolicyState, admissible: Optional[Container[Role]], cap: Optional[int],
    by_statement: bool = False,
) -> tuple[_Saturated, frozenset[Role], _Order]:
    """Supports per role and member, over the statements of ``p`` heading a
    role in ``admissible`` (every statement when it is ``None``), with the
    roles the cap truncated and the run's support order; run once per
    admissible set, cap and token kind, and kept on ``p``.  The supports
    are role supports, or with ``by_statement`` statement supports, as the
    credential replay asks for.  Raises ``ValueError`` for a cap below 1.
    Every head of a legal state lies in :data:`~rtmon.model.EVERY_ROLE`,
    so it admits what ``None`` does and shares its run."""
    if cap is not None and cap < 1:
        raise ValueError(f"max_entries_per_member must be None or at least 1, got {cap}")
    if admissible is not None:
        admissible = None if admissible is EVERY_ROLE else frozenset(admissible)
    key = (admissible, cap, by_statement)
    return p._derived("worklist", key, lambda: _worklist(p, cap, admissible, by_statement))


def justified_semantics(
    p: PolicyState, *, max_entries_per_member: Optional[int] = DEFAULT_SUPPORT_CAP
) -> JustifiedSemantics:
    """All minimal role-supports, per role and member, in one pass.

    With ``max_entries_per_member=None`` the result is exact, and it can be
    exponential in the size of the policy: an intersection of ``w`` parts
    with two disjoint alternatives each has ``2**w`` minimal supports.
    Raises ``ValueError`` for a cap below 1.
    """
    raw, truncated, _ = _role_worklist(p, None, max_entries_per_member)
    entries = {
        role: frozenset(JustifiedEntry(m, sup) for m, found in by_member.items() for sup in found)
        for role, by_member in raw.items()
    }
    return JustifiedSemantics(entries, truncated)


def _best(candidates: Iterable[frozenset], order: _Order) -> Optional[frozenset]:
    """The first candidate in ``order``; ``None`` when there is none."""
    return min(candidates, key=order, default=None)


def _member_expr_support(
    member: Principal, expr: PositiveRoleExpr, raw: _Saturated, order: _Order
) -> Optional[frozenset]:
    """One support witnessing ``member``'s membership in ``expr``, picked
    from the supports ``raw`` of a worklist run in that run's ``order``.

    Principal sets need no support; a union takes whichever branch admits
    the member (the first in ``order``); an intersection unions the
    supports of both branches.  ``None`` means not witnessable.
    """

    def leaf(e: Union[PrincipalSet, RoleRef]) -> Optional[frozenset]:
        if isinstance(e, PrincipalSet):
            return frozenset() if member in e.members else None
        return _best(raw.get(e.role, {}).get(member, ()), order)

    def either(left: Optional[frozenset], right: Optional[frozenset]) -> Optional[frozenset]:
        return _best([got for got in (left, right) if got is not None], order)

    def both(left: Optional[frozenset], right: Optional[frozenset]) -> Optional[frozenset]:
        return None if left is None or right is None else left | right

    return fold_expr(expr, leaf, either, both)


def _member_supports(
    members: Iterable[Principal], rhs: PositiveRoleExpr, raw: _Saturated, order: _Order
) -> Iterator[tuple[Principal, frozenset]]:
    """Each member, in name order, with the support :func:`_member_expr_support`
    picks for it; raises :class:`NoSupport` at the first member without one."""
    for member in sorted(set(members), key=str):
        got = _member_expr_support(member, rhs, raw, order)
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
    saturated, _, order = _role_worklist(p, admissible, max_entries_per_member)
    total: set[Role] = set()
    for _, got in _member_supports(members, rhs, saturated, order):
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
    re-running the worklist confined to that role support, so every
    collected statement's head lies inside it.  A replay walks only the
    role support's heads and fires only the rules whose read roles are all
    heads in it, so its cost follows the role support, not the state.  The
    state keeps each replay, so the worklist runs once per distinct role
    support and cap, and every member and every constraint of the state
    sharing that support pick their statements from that one run.  Raises
    ``ValueError`` for a cap below 1.
    """
    cap = max_entries_per_member
    saturated, _, order = _role_worklist(p, None, cap)
    total: set[Statement] = set()
    for member, role_support in _member_supports(members, rhs, saturated, order):
        replay, _, replay_order = _role_worklist(p, role_support, cap, by_statement=True)
        # The role support proves the membership, so the replay does too.
        total |= _member_expr_support(member, rhs, replay, replay_order)
    return frozenset(total)
