"""Independent brute-force oracles cross-checking the analysis code.

These deliberately avoid the code paths they validate: minimal supports
are found by exhaustive restriction instead of the justification worklist,
and reachable states are enumerated explicitly instead of being reasoned
about through bounds.  ``dense_evaluate`` and ``round_robin_worklist`` keep
the plain evaluator and support worklist the library used before its
indexed, change-driven ones, ``polling_worklist`` the change-driven
worklist before member facts left its later passes, and
``round_robin_upper_bound`` and ``reference_gamma_restricted`` the
restricted-trust passes it used before they ran on that evaluator, as slow
references for differential tests.
``dense_core`` and ``round_robin_core`` close the expulsions of untrusted
dependencies statement by statement, against the dense and the library's
upper bound; they are the references for the trusted core the library
reads off the upper bound.  ``expand_wildcards`` turns a monitor's
symbolic ``*`` back into the finite role set it used to be expanded to.
``restrict`` keeps the statements heading a given role set.
``reference_step`` steps one record through one event by the public
``PolicyState.add``/``remove``, ``classify`` and ``register``, and builds
its warning itself, as the reference for a session's routed replay.
"""

from collections import defaultdict
from itertools import combinations, product

from rtmon.analysis import upper_bound
from rtmon.deps import _join, _support_key
from rtmon.engine import _reads, evaluate
from rtmon.model import (
    EVERY_ROLE,
    ChangeEvent,
    ChangeKind,
    Constraint,
    IntersectionInclusion,
    LinkingInclusion,
    PolicyState,
    Principal,
    Role,
    RoleMonitor,
    RoleName,
    SimpleInclusion,
    SimpleMember,
    Statement,
    TOP,
    _checked_state,
    roles_of,
)
from rtmon.monitor import (
    MonitorRecord,
    MonitorWarning,
    RecordStatus,
    WarningCause,
    WarningOutcome,
    classify,
    register,
)

FRESH_PRINCIPAL = Principal("Xfresh")


def restrict(p: PolicyState, sigma) -> PolicyState:
    """Keep exactly the statements whose head lies in ``sigma``; ``p``
    itself when ``sigma`` is :data:`~rtmon.model.EVERY_ROLE`."""
    if sigma is EVERY_ROLE:
        return p
    return _checked_state(frozenset(s for s in p.statements if s.head in sigma))


def reference_step(
    rec: MonitorRecord, state: PolicyState, ev: ChangeEvent
) -> tuple[PolicyState, MonitorWarning | None, MonitorRecord]:
    """One record's reaction to one event, applied to ``state`` alone.

    A holding record stays silent and unchanged on a no-op (the new state
    is ``state`` itself) and on an event that ``classify`` says does not
    reach it;
    otherwise the record is registered afresh on the new state, and the
    warning names the frontier the event crossed, or a re-check for a
    record that was not holding.
    """
    stmt = ev.statement
    new_state = state.add(stmt) if ev.kind is ChangeKind.ADD else state.remove(stmt)
    noop = new_state is state
    if rec.status is RecordStatus.HOLDING:
        if noop or not classify(rec, ev):
            return new_state, None, rec
        if ev.kind is ChangeKind.ADD:
            cause = WarningCause.GROWTH_SIDE_ADD
        else:
            cause = WarningCause.SUPPORT_SIDE_REMOVE
    else:
        cause = WarningCause.RECHECK
    fresh = register(new_state, rec.constraint, rec.mode)
    outcome = {
        RecordStatus.HOLDING: WarningOutcome.STILL_HOLDS,
        RecordStatus.VIOLATED: WarningOutcome.NOW_VIOLATED,
        RecordStatus.BOUND_VIOLATED: WarningOutcome.BOUND_NOW_VIOLATED,
    }[fresh.status]
    warning = MonitorWarning(
        constraint_id=rec.constraint.id,
        cause=cause,
        event=ev,
        outcome=outcome,
        violators=fresh.violators,
        recomputed=fresh.status is RecordStatus.HOLDING,
        noop=noop,
    )
    return new_state, warning, fresh


def brute_minimal_supports(p: PolicyState) -> dict[Role, set[tuple[Principal, frozenset[Role]]]]:
    """Minimal supports for every (role, member), by exhaustive restriction.

    A role set is a support of a member when the member is still derivable
    after dropping every statement heading a role outside the set; minimal
    means no single role can be removed without breaking that.
    """
    roles = sorted(p.roles, key=str)
    membership: dict[frozenset[Role], dict] = {}
    for size in range(len(roles) + 1):
        for combo in combinations(roles, size):
            sigma = frozenset(combo)
            membership[sigma] = evaluate(restrict(p, sigma)).members

    out: dict[Role, set[tuple[Principal, frozenset[Role]]]] = {}
    full = evaluate(p).members
    for role in roles:
        found = set()
        for member in full.get(role, frozenset()):
            for sigma, members in membership.items():
                if member not in members.get(role, frozenset()):
                    continue
                if all(
                    member not in membership[sigma - {x}].get(role, frozenset())
                    for x in sigma
                ):
                    found.add((member, sigma))
        if found:
            out[role] = found
    return out


def reachable_states(
    p: PolicyState,
    monitor: RoleMonitor,
    max_removals: int = 4,
    max_adds: int = 2,
    pool_cap: int = 10,
) -> list[PolicyState]:
    """A bounded under-approximation of the states reachable without
    touching growth-trusted definitions (no adds) or shrink-trusted ones
    (no removals).  One fresh principal stands in for newcomers."""
    g = monitor.growth_trusted
    s = monitor.shrink_trusted
    removable = sorted((st for st in p if st.head not in s), key=str)[:max_removals]

    principals = sorted(p.principals) + [FRESH_PRINCIPAL]
    names = sorted(p.role_names) or [RoleName("r")]
    heads = [r for r in sorted(p.roles, key=str) if r not in g]
    heads += [Role(FRESH_PRINCIPAL, n) for n in names]
    pool: list[Statement] = []
    for head in heads:
        for principal in principals:
            pool.append(Statement(head, SimpleMember(principal)))
        for source in sorted(p.roles, key=str):
            pool.append(Statement(head, SimpleInclusion(source)))
    pool = sorted(set(pool) - p.statements, key=str)[:pool_cap]

    states = []
    for k in range(len(removable) + 1):
        for removed in combinations(removable, k):
            base = frozenset(p.statements) - set(removed)
            for a in range(max_adds + 1):
                for added in combinations(pool, a):
                    states.append(PolicyState(base | set(added)))
    return states


def dense_evaluate(p: PolicyState) -> dict[Role, frozenset[Principal]]:
    """Membership of every role in ``p.roles``, by re-firing every rule
    whose inputs changed in the previous round over all of their members."""
    members: dict[Role, set[Principal]] = {role: set() for role in p.roles}
    rules: list[Statement] = []
    for stmt in sorted(p.statements, key=str):
        if isinstance(stmt.body, SimpleMember):
            members[stmt.head].add(stmt.body.member)
        else:
            rules.append(stmt)

    def inputs(stmt: Statement) -> set[Role]:
        body = stmt.body
        if isinstance(body, SimpleInclusion):
            return {body.source}
        if isinstance(body, LinkingInclusion):
            return {body.first} | {Role(y, body.second) for y in members[body.first]}
        return set(body.parts)

    def derive(stmt: Statement) -> set[Principal]:
        body = stmt.body
        if isinstance(body, SimpleInclusion):
            return set(members[body.source])
        if isinstance(body, LinkingInclusion):
            out: set[Principal] = set()
            for y in members[body.first]:
                out |= members[Role(y, body.second)]
            return out
        out = set(members[body.parts[0]])
        for part in body.parts[1:]:
            out &= members[part]
        return out

    dirty: set[Role] = set(members) if rules else set()
    while dirty:
        next_dirty: set[Role] = set()
        for stmt in rules:
            if not (inputs(stmt) & dirty):
                continue
            fresh = derive(stmt) - members[stmt.head]
            if fresh:
                members[stmt.head] |= fresh
                next_dirty.add(stmt.head)
        dirty = next_dirty
    return {role: frozenset(found) for role, found in members.items()}


def product_join(tok: frozenset, parts: list) -> list:
    """Every union of ``tok`` with one support of every part, dominated
    ones included: the enumeration the worklist's intersection join
    replaced."""
    return [tok.union(*combo) for combo in product(*parts)]


def round_robin_worklist(p: PolicyState, token, cap=None):
    """Justification triples ``(member, support, size)`` per role, by firing
    every statement over every entry each round until no bucket changes.

    Returns ``(entries, truncated)``.  Without a cap the supports are the
    minimal ones; with a cap the result depends on set iteration order.
    """
    stmts = sorted(p.statements, key=str)
    cur: dict[Role, set] = defaultdict(set)
    truncated = False

    def sort_key(t):
        return (len(t[1]), sorted(str(x) for x in t[1]), t[2])

    def subsumed(role, member, support) -> bool:
        return any(m == member and s <= support for m, s, _ in cur[role])

    def insert(role, cand) -> None:
        nonlocal truncated
        member, support, _ = cand
        bucket = cur[role]
        bucket.difference_update([t for t in bucket if t[0] == member and support <= t[1]])
        bucket.add(cand)
        if cap is not None:
            mine = sorted((t for t in bucket if t[0] == member), key=sort_key)
            if len(mine) > cap:
                bucket.difference_update(mine[cap:])
                truncated = True

    def offer(role, cand) -> None:
        if not subsumed(role, cand[0], cand[1]):
            insert(role, cand)

    while True:
        old = {role: frozenset(bucket) for role, bucket in cur.items()}
        for stmt in stmts:
            head, body, tok = stmt.head, stmt.body, token(stmt)
            if isinstance(body, SimpleMember):
                insert(head, (body.member, frozenset((tok,)), 1))
            elif isinstance(body, SimpleInclusion):
                for member, sup, i in list(cur[body.source]):
                    offer(head, (member, sup | {tok}, i + 1))
            elif isinstance(body, LinkingInclusion):
                for via, sup1, i1 in list(cur[body.first]):
                    for member, sup2, i2 in list(cur[Role(via, body.second)]):
                        offer(head, (member, sup1 | sup2 | {tok}, i1 + i2))
            else:
                buckets = [list(cur[part]) for part in sorted(body.part_set, key=str)]
                shared = set.intersection(*(set(t[0] for t in b) for b in buckets))
                for member in shared:
                    pools = [[t for t in b if t[0] == member] for b in buckets]
                    for combo in product(*pools):
                        support = frozenset((tok,)).union(*(t[1] for t in combo))
                        offer(head, (member, support, sum(t[2] for t in combo)))
        if all(frozenset(cur[role]) == old.get(role, frozenset()) for role in cur):
            break
    return {role: bucket for role, bucket in cur.items() if bucket}, truncated


def polling_worklist(statements, token, cap):
    """The support worklist as it was before member facts left its rounds:
    every pass polls the clock stamps of every statement, facts included.
    Same signature and output as :func:`rtmon.deps._worklist`."""
    rules = [(s, frozenset((token(s),)), _reads(s)) for s in sorted(statements, key=str)]
    cur = defaultdict(dict)
    # Logical clock: a role's stamp is the tick of its last change; a rule
    # remembers the tick at which it last fired.
    clock = 0
    changed_at: dict[Role, int] = {}
    name_changed_at: dict[RoleName, int] = {}
    freed_at: dict[Role, int] = {}
    fired_at: list[int] = [-1] * len(rules)
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

    while True:
        start = clock
        for n, (stmt, tok, inputs) in enumerate(rules):
            head, body = stmt.head, stmt.body
            last = fired_at[n]
            if last >= 0 and freed_at.get(head, 0) <= last:
                stamp = max((changed_at.get(r, 0) for r in inputs), default=0)
                if isinstance(body, LinkingInclusion):
                    stamp = max(stamp, name_changed_at.get(body.second, 0))
                if stamp <= last:
                    continue
            fired_at[n] = clock
            if isinstance(body, SimpleMember):
                offer(head, body.member, tok)
            elif isinstance(body, SimpleInclusion):
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
        if clock == start:
            break
    truncated = frozenset(
        head
        for head, member, support in cut
        if not any(s <= support for s in cur[head][member])
    )
    return {role: by_member for role, by_member in cur.items() if by_member}, truncated


def round_robin_upper_bound(p: PolicyState, monitor: RoleMonitor) -> dict[Role, frozenset[Principal]]:
    """Upper bound of every role in ``p.roles``: roles outside the
    growth-trusted set seed with the universe (principals plus ``TOP``),
    ``TOP.x`` reads as the universe, and every rule re-fires each round."""
    universe = frozenset(p.principals) | {TOP}
    members: dict[Role, set[Principal]] = {
        role: set(universe) if role not in monitor.growth_trusted else set()
        for role in p.roles
    }
    rules = []
    for stmt in sorted(p.statements, key=str):
        if isinstance(stmt.body, SimpleMember):
            members[stmt.head].add(stmt.body.member)
        else:
            rules.append(stmt)

    def derive(stmt) -> set[Principal]:
        body = stmt.body
        if isinstance(body, SimpleInclusion):
            return set(members[body.source])
        if isinstance(body, LinkingInclusion):
            out: set[Principal] = set()
            for y in members[body.first]:
                if y == TOP:
                    out |= universe
                else:
                    out |= members[Role(y, body.second)]
            return out
        parts = body.parts
        out = set(members[parts[0]])
        for part in parts[1:]:
            out &= members[part]
        return out

    changed = True
    while changed:
        changed = False
        for stmt in rules:
            fresh = derive(stmt) - members[stmt.head]
            if fresh:
                members[stmt.head] |= fresh
                changed = True
    return {role: frozenset(found) for role, found in members.items()}


def dense_core(p: PolicyState, g) -> frozenset[Role]:
    """Trusted core, expelling from a start of every untrusted role in
    ``p.roles`` against the dense upper bound."""
    g = frozenset(g)
    ub = round_robin_upper_bound(p, RoleMonitor(growth_trusted=g))
    expelled: set[Role] = set(p.roles) - g

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
    return frozenset(role for role in g if role not in expelled)


def reference_gamma_restricted(p: PolicyState, g, target: Role) -> frozenset[Role]:
    """Restricted growth set of ``target`` by its own closure: simple and
    linked inputs unfiltered, intersection parts kept only inside the core."""
    g = frozenset(g)
    coreset = dense_core(p, g)
    ub = round_robin_upper_bound(p, RoleMonitor(growth_trusted=g))
    if target not in coreset:
        return frozenset()
    grouped: dict[Role, list] = defaultdict(list)
    for stmt in sorted(p.statements, key=str):
        grouped[stmt.head].append(stmt)
    found: set[Role] = {target}
    work = [target]
    while work:
        role = work.pop()
        for stmt in grouped.get(role, ()):
            body = stmt.body
            if isinstance(body, SimpleInclusion):
                fresh = [body.source]
            elif isinstance(body, LinkingInclusion):
                fresh = [body.first]
                fresh.extend(
                    Role(x, body.second)
                    for x in ub.get(body.first, frozenset())
                    if x != TOP
                )
            elif isinstance(body, IntersectionInclusion):
                fresh = [part for part in body.parts if part in coreset]
            else:
                continue
            for r in fresh:
                if r not in found:
                    found.add(r)
                    work.append(r)
    return frozenset(found)


def round_robin_core(p: PolicyState, g) -> frozenset[Role]:
    """Trusted core against the library's sparse upper bound, rescanning
    every statement until a pass expels nothing."""
    g = frozenset(g)
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
    return g - expelled


def expand_wildcards(p: PolicyState, q: Constraint, monitor: RoleMonitor) -> RoleMonitor:
    """``monitor`` with each ``*`` side replaced by every role of ``p`` and
    of the constraint ``q``: the principals x role names cross product plus
    the roles ``q`` names, which no statement need mention."""
    roles = p.roles | roles_of(q.lhs) | roles_of(q.rhs)

    def expand(side):
        return roles if side is EVERY_ROLE else side

    return RoleMonitor(expand(monitor.growth_trusted), expand(monitor.shrink_trusted))
