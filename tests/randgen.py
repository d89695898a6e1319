"""Seeded random generation of small policies, expressions, and monitors.

Everything samples from sorted pools so a fixed seed reproduces the same
case sequence regardless of hash randomization.
"""

import random

from rtmon.model import (
    Constraint,
    IntersectionExpr,
    IntersectionInclusion,
    LinkingInclusion,
    PolicyState,
    PrincipalSet,
    Principal,
    Role,
    RoleMonitor,
    RoleName,
    RoleRef,
    SimpleInclusion,
    SimpleMember,
    Statement,
    UnionExpr,
)

_PRINCIPAL_POOL = [Principal(c) for c in "ABCD"]
_NAME_POOL = [RoleName(n) for n in ("r", "s")]


def random_state(
    rng: random.Random,
    max_principals: int = 4,
    max_names: int = 2,
    max_statements: int = 8,
) -> PolicyState:
    principals = _PRINCIPAL_POOL[: rng.randint(2, max_principals)]
    names = _NAME_POOL[: rng.randint(1, max_names)]
    roles = [Role(p, n) for p in principals for n in names]
    statements: set[Statement] = set()
    for _ in range(rng.randint(1, max_statements)):
        statements.add(random_statement(rng, principals, names, roles))
    return PolicyState(frozenset(statements))


def random_statement(rng, principals, names, roles, head: Role | None = None) -> Statement:
    head = head or rng.choice(roles)
    dice = rng.random()
    if dice < 0.35:
        body = SimpleMember(rng.choice(principals))
    elif dice < 0.65:
        body = SimpleInclusion(rng.choice(roles))
    elif dice < 0.85:
        body = LinkingInclusion(Role(head.owner, rng.choice(names)), rng.choice(names))
    else:
        k = rng.randint(2, min(3, len(roles))) if len(roles) >= 2 else 2
        picked = rng.sample(roles, k) if len(roles) >= k else roles * 2
        body = IntersectionInclusion(tuple(picked[:max(k, 2)]))
    return Statement(head, body)


def random_statement_for_state(
    rng, state: PolicyState, fresh_principal: str | None = None
) -> Statement:
    """A statement over the state's alphabet, optionally with a new principal."""
    principals = sorted(state.principals) or [Principal("A")]
    if fresh_principal is not None and rng.random() < 0.3:
        principals = principals + [Principal(fresh_principal)]
    names = sorted(state.role_names) or [RoleName("r")]
    roles = [Role(p, n) for p in principals for n in names]
    return random_statement(rng, principals, names, roles)


def random_expr(rng, state: PolicyState, depth: int = 2):
    roles = sorted(state.roles, key=str)
    principals = sorted(state.principals)
    if depth == 0 or rng.random() < 0.45:
        if roles and rng.random() < 0.6:
            return RoleRef(rng.choice(roles))
        k = rng.randint(0, min(2, len(principals)))
        return PrincipalSet(frozenset(rng.sample(principals, k)))
    left = random_expr(rng, state, depth - 1)
    right = random_expr(rng, state, depth - 1)
    if rng.random() < 0.5:
        return UnionExpr(left, right)
    return IntersectionExpr(left, right)


def random_constraint(rng, state: PolicyState, ident: str = "q") -> Constraint:
    owner = sorted(state.principals)[0] if state.principals else Principal("O")
    return Constraint(owner, random_expr(rng, state), random_expr(rng, state), ident)


def biased_satisfied_constraint(rng, state: PolicyState, ident: str = "q") -> Constraint:
    """Constraints likely (often trivially) satisfied: lhs narrowed, rhs widened."""
    owner = sorted(state.principals)[0] if state.principals else Principal("O")
    base = random_expr(rng, state, depth=1)
    lhs = IntersectionExpr(base, random_expr(rng, state, depth=1)) if rng.random() < 0.5 else base
    rhs = UnionExpr(base, random_expr(rng, state, depth=1)) if rng.random() < 0.7 else base
    return Constraint(owner, lhs, rhs, ident)


def random_role_subset(rng, state: PolicyState, density: float) -> frozenset[Role]:
    return frozenset(r for r in sorted(state.roles, key=str) if rng.random() < density)


def random_monitor(rng, state: PolicyState, g_density: float = 0.8, s_density: float = 0.8) -> RoleMonitor:
    return RoleMonitor(
        growth_trusted=random_role_subset(rng, state, g_density),
        shrink_trusted=random_role_subset(rng, state, s_density),
    )


def random_untrusted_link_monitor(
    rng, state: PolicyState, g_density: float = 0.8, s_density: float = 0.8
) -> RoleMonitor:
    """A random monitor that leaves the first component of one linked role
    untrusted, when the state has one, so ``TOP`` can flow through the walk."""
    m = random_monitor(rng, state, g_density, s_density)
    firsts = sorted(
        {s.body.first for s in state if isinstance(s.body, LinkingInclusion)}, key=str
    )
    if not firsts:
        return m
    return RoleMonitor(
        growth_trusted=m.growth_trusted - {rng.choice(firsts)},
        shrink_trusted=m.shrink_trusted,
    )


def random_fan_state(rng: random.Random) -> PolicyState:
    """An intersection of 2-4 roles, each fed by 2-3 alternative inclusion
    sources drawn from a shared pool, so members have many overlapping
    minimal supports and small caps bind."""
    head = Role(Principal("Top"), RoleName("r"))
    members = [Principal(f"M{i}") for i in range(rng.randint(1, 3))]
    pool = [Role(Principal(f"S{i}"), RoleName(rng.choice(("r", "s")))) for i in range(6)]
    parts = [Role(Principal(f"P{i}"), RoleName("r")) for i in range(rng.randint(2, 4))]
    statements = {Statement(head, IntersectionInclusion(tuple(parts)))}
    for part in parts:
        for source in rng.sample(pool, rng.randint(2, 3)):
            statements.add(Statement(part, SimpleInclusion(source)))
    for i, source in enumerate(pool):
        for member in rng.sample(members, rng.randint(0, len(members))):
            statements.add(Statement(source, SimpleMember(member)))
        if i and rng.random() < 0.5:
            statements.add(Statement(source, SimpleInclusion(rng.choice(pool[:i]))))
    return PolicyState(frozenset(statements))
