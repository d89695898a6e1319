import random

import pytest

import rtmon.engine
from rtmon.analysis import (
    bounds,
    check_bounded_containment,
    core,
    gamma_restricted_expr,
    lower_bound,
    upper_bound,
)
from rtmon.deps import gamma, justified_semantics
from rtmon.engine import _walk_expr, check_constraint, evaluate, role_members
from rtmon.model import (
    Constraint,
    PolicyState,
    Principal,
    PrincipalSet,
    Role,
    RoleMonitor,
    RoleName,
    RoleRef,
    SimpleInclusion,
    SimpleMember,
    Statement,
    EVERY_ROLE,
    TOP,
    roles_of,
)
from rtmon.parser import parse_constraint, parse_policy

from helpers import (
    core_roles,
    count_calls,
    hazmat_constraint,
    hazmat_policy,
    hazmat_policy_extended,
    prin,
    role,
    role_strs,
    self_link_policy,
)
from oracles import (
    dense_core,
    reference_gamma_restricted,
    restrict,
    round_robin_core,
    round_robin_upper_bound,
)
from randgen import (
    random_expr,
    random_fan_state,
    random_monitor,
    random_state,
    random_statement_for_state,
    random_untrusted_link_monitor,
)


def dept_excluded_monitor(p):
    return RoleMonitor(
        growth_trusted=p.roles - {role("Emergency.dept")},
        shrink_trusted=frozenset({role("ATF.hazmatDB")}),
    )


def universe_of(p):
    return frozenset(p.principals) | {TOP}


class TestLowerBound:
    def test_only_shrink_trusted_definitions_count(self):
        p = hazmat_policy()
        idx = bounds(p, RoleMonitor(shrink_trusted=frozenset({role("ATF.hazmatDB")})))
        assert idx.lower_of(role("ATF.hazmatDB")) == frozenset({prin("Rollins")})
        for r in p.roles:
            if r != role("ATF.hazmatDB"):
                assert idx.lower_of(r) == frozenset()

    def test_empty_shrink_set_gives_empty_bounds(self):
        p = self_link_policy()
        idx = bounds(p, RoleMonitor())
        assert all(idx.lower_of(r) == frozenset() for r in p.roles)

    def test_full_shrink_set_gives_exact_semantics(self):
        p = self_link_policy()
        got = bounds(p, RoleMonitor(shrink_trusted=EVERY_ROLE))
        idx = evaluate(p)
        assert {r: got.lower_of(r) for r in p.roles} == {r: role_members(idx, r) for r in p.roles}


class TestUpperBound:
    def test_full_growth_set_gives_exact_semantics(self):
        p = self_link_policy()
        got = bounds(p, RoleMonitor(growth_trusted=EVERY_ROLE))
        idx = evaluate(p)
        assert {r: got.upper_of(r) for r in p.roles} == {r: role_members(idx, r) for r in p.roles}

    def test_untrusted_link_target_floods_to_the_universe(self):
        p = hazmat_policy()
        idx = bounds(p, dept_excluded_monitor(p))
        assert idx.upper_of(role("Emergency.responsePersonnel")) == universe_of(p)

    def test_untrusted_role_is_the_universe(self):
        p = hazmat_policy()
        idx = bounds(p, dept_excluded_monitor(p))
        assert role("Emergency.dept") not in idx.upper
        assert idx.upper_of(role("Emergency.dept")) == universe_of(p)


class TestCore:
    def test_everything_trusted_keeps_everything(self):
        p = self_link_policy()
        got = core(p, p.roles)
        assert core_roles(got) == p.roles

    def test_untrusted_dept_expels_the_linked_role(self):
        p = hazmat_policy()
        got = core(p, p.roles - {role("Emergency.dept")})
        assert role("Emergency.responsePersonnel") not in got
        assert role("Emergency.hazmatPersonnel") in got
        assert role("ATF.hazmatTraining") in got
        assert len(core_roles(got)) == 33

    def test_untrusted_inclusion_source_expels_the_head(self):
        p = parse_policy("A.r <- B.r1\n")
        got = core(p, p.roles - {role("B.r1")})
        assert role("A.r") not in got


class TestGammaRestricted:
    def test_hazmat_restricted_frontier(self):
        p = hazmat_policy()
        got = gamma_restricted_expr(
            p, p.roles - {role("Emergency.dept")}, RoleRef(role("Emergency.hazmatPersonnel"))
        )
        assert role_strs(got) == {
            "Emergency.hazmatPersonnel",
            "ATF.hazmatTraining",
        }

    def test_full_trust_collapses_to_gamma(self):
        p = self_link_policy()
        got = gamma_restricted_expr(p, p.roles, RoleRef(role("A.r")))
        assert got == gamma(p, role("A.r"))

    def test_target_outside_core_has_empty_frontier(self):
        p = parse_policy("A.r <- B.r1\n")
        got = gamma_restricted_expr(p, p.roles - {role("B.r1")}, RoleRef(role("A.r")))
        assert got == frozenset()


class TestBoundedContainment:
    def test_holds_with_wildcard_growth_and_database_shrink(self):
        p = hazmat_policy()
        monitor = RoleMonitor(
            growth_trusted=EVERY_ROLE, shrink_trusted=frozenset({role("ATF.hazmatDB")})
        )
        got = check_bounded_containment(p, monitor, hazmat_constraint())
        assert got.holds and got.witnesses == frozenset()

    def test_untrusted_lhs_against_empty_static_rhs(self):
        p = parse_policy("A.r <- B\n")
        q = Constraint(prin("O"), RoleRef(role("A.r")), PrincipalSet(frozenset()), "q")
        got = check_bounded_containment(p, RoleMonitor(), q)
        assert not got.holds
        assert got.witnesses == universe_of(p)

    def test_full_trust_collapses_to_exact_check(self):
        rng = random.Random(601)
        from randgen import random_constraint

        for i in range(80):
            p = random_state(rng)
            q = random_constraint(rng, p, f"q{i}")
            monitor = RoleMonitor(growth_trusted=p.roles, shrink_trusted=p.roles)
            bounded = check_bounded_containment(p, monitor, q)
            exact = check_constraint(p, q)
            assert bounded.holds == exact.satisfied

    def test_dept_excluded_monitor_cannot_promise_the_hazmat_bound(self):
        # The training role's stated members flood the left side's upper
        # bound through the untrusted dept walk, while the right side's
        # lower bound can never exceed the database's actual members.
        p = hazmat_policy()
        got = check_bounded_containment(p, dept_excluded_monitor(p), hazmat_constraint())
        assert not got.holds
        assert got.witnesses == frozenset({prin("Burke"), prin("OConnel")})


class TestBoundDefaults:
    def test_untrusted_roles_bound_to_the_extremes(self):
        rng = random.Random(602)
        for _ in range(100):
            p = random_state(rng)
            monitor = random_monitor(rng, p)
            idx = bounds(p, monitor)
            for r in p.roles:
                if r not in monitor.shrink_trusted:
                    assert idx.lower_of(r) == frozenset()
                if r not in monitor.growth_trusted:
                    assert r not in idx.upper
                    assert idx.upper_of(r) == universe_of(p)
                # No monitor trusts a role of ``TOP``: it holds the universe.
                assert idx.upper_of(Role(TOP, r.name)) == universe_of(p)


class TestBoundSandwich:
    def test_lower_exact_upper(self):
        rng = random.Random(603)
        for _ in range(100):
            p = random_state(rng)
            monitor = random_monitor(rng, p)
            exact = evaluate(p).members
            idx = bounds(p, monitor)
            for r in p.roles:
                got = exact.get(r, frozenset())
                assert idx.lower_of(r) <= got
                assert got <= idx.upper_of(r) - {TOP}


class TestNonCoreUpperBounds:
    def test_outside_the_core_means_maximal_upper_bound(self):
        rng = random.Random(604)
        for _ in range(100):
            p = random_state(rng)
            g = random_monitor(rng, p).growth_trusted
            idx = bounds(p, RoleMonitor(growth_trusted=g))
            coreset = core(p, g)
            for r in p.roles:
                if r not in coreset:
                    assert idx.upper_of(r) == universe_of(p)

    def test_expelled_roles_hold_the_universe_and_core_roles_lack_top(self):
        # The core is read off the upper bound; this pins the argument
        # behind it: an expelled role is forced to the whole universe, and
        # no core role's bound holds TOP.
        rng = random.Random(618)
        expelled = 0
        for n in range(300):
            p = random_fan_state(rng) if n % 3 == 0 else random_state(rng, max_statements=12)
            monitor = random_untrusted_link_monitor(rng, p)
            g = monitor.growth_trusted
            idx = bounds(p, RoleMonitor(growth_trusted=g))
            coreset = core(p, g)
            for r in coreset.expelled:
                assert idx.upper_of(r) == universe_of(p)
            for r in p.roles:
                if r in coreset:
                    assert TOP not in idx.upper_of(r)
            expelled += len(coreset.expelled)
        assert expelled >= 100

    def test_core_is_sandwiched(self):
        rng = random.Random(605)
        for _ in range(60):
            p = random_state(rng)
            g = random_monitor(rng, p).growth_trusted
            coreset = core(p, g)
            assert core_roles(coreset) <= g
            target = rng.choice(sorted(p.roles, key=str))
            gg = gamma_restricted_expr(p, g, RoleRef(target))
            assert gg <= core_roles(coreset)


class TestRestrictedGrowthStability:
    def test_addition_outside_the_restricted_frontier(self):
        rng = random.Random(606)
        done = 0
        while done < 120:
            p = random_state(rng)
            g = random_monitor(rng, p, g_density=0.85).growth_trusted
            idx = bounds(p, RoleMonitor(growth_trusted=g))
            targets = [r for r in sorted(p.roles, key=str) if TOP not in idx.upper_of(r)]
            if not targets:
                continue
            target = rng.choice(targets)
            gg = gamma_restricted_expr(p, g, RoleRef(target))
            extra = None
            for _ in range(10):
                cand = random_statement_for_state(rng, p, fresh_principal="E")
                if cand.head not in gg and cand not in p:
                    extra = cand
                    break
            if extra is None:
                continue
            p2 = p.add(extra)
            idx2 = bounds(p2, RoleMonitor(growth_trusted=g))
            assert idx2.upper_of(target) == idx.upper_of(target)
            assert gamma_restricted_expr(p2, g, RoleRef(target)) == gg
            done += 1


class TestLowerBoundSupportStability:
    def test_shrink_trusted_support_pins_the_lower_bound(self):
        rng = random.Random(607)
        done = 0
        while done < 120:
            p = random_state(rng)
            monitor = random_monitor(rng, p, s_density=0.85)
            js = justified_semantics(restrict(p, monitor.shrink_trusted))
            pairs = [
                (r, e)
                for r, entries in sorted(js.entries.items(), key=lambda kv: str(kv[0]))
                for e in sorted(
                    entries, key=lambda e: (str(e.member), sorted(map(str, e.support)))
                )
            ]
            if not pairs:
                continue
            target, entry = rng.choice(pairs)
            assert entry.support <= monitor.shrink_trusted
            assert entry.member in bounds(p, monitor).lower_of(target)
            p2 = p
            for victim in sorted(p.statements, key=str):
                if victim.head not in entry.support and rng.random() < 0.5:
                    p2 = p2.remove(victim)
            for _ in range(rng.randint(0, 3)):
                p2 = p2.add(random_statement_for_state(rng, p, fresh_principal="E"))
            assert entry.member in bounds(p2, monitor).lower_of(target)
            done += 1


def test_bounds_hold_across_enumerated_reachable_states():
    """The real claim behind the bounds: for every state reachable without
    touching trusted definitions, the lower bound survives and nothing
    escapes the upper bound (TOP covering principals the base state never
    saw)."""
    from oracles import reachable_states

    rng = random.Random(608)
    instances = 0
    while instances < 30:
        p = random_state(rng, max_principals=3, max_names=2, max_statements=5)
        monitor = random_monitor(rng, p, 0.7, 0.7)
        idx = bounds(p, monitor)
        for p2 in reachable_states(p, monitor, max_removals=3, max_adds=2, pool_cap=8):
            got = evaluate(p2).members
            for r in p.roles:
                actual = got.get(r, frozenset())
                assert idx.lower_of(r) <= actual
                upper = idx.upper_of(r)
                for m in actual:
                    assert m in upper or (m not in p.principals and TOP in upper)
        instances += 1


def test_expression_bounds_follow_the_structure():
    p = hazmat_policy()
    monitor = dept_excluded_monitor(p)
    idx = bounds(p, monitor)
    q = hazmat_constraint()
    assert _walk_expr(q.lhs, idx.upper_of) == frozenset(
        {prin("Rollins"), prin("Burke"), prin("OConnel")}
    )
    assert _walk_expr(q.rhs, idx.lower_of) == frozenset({prin("Rollins")})
    static = PrincipalSet(frozenset({prin("Zoe")}))
    assert _walk_expr(static, idx.upper_of) == _walk_expr(static, idx.lower_of) == static.members
    chk = check_bounded_containment(p, monitor, q)
    assert chk.lhs_upper == _walk_expr(q.lhs, idx.upper_of)
    assert chk.witnesses == frozenset({prin("Burke"), prin("OConnel")})


def test_bound_walkers_reject_unknown_nodes():
    idx = bounds(hazmat_policy(), RoleMonitor())
    for read in (idx.lower_of, idx.upper_of):
        with pytest.raises(TypeError):
            _walk_expr(object(), read)


def test_gamma_restricted_expr_unions_roles():
    p = self_link_policy()
    q = parse_constraint("constraint q owner A: A.r | E.r <= {}")
    got = gamma_restricted_expr(p, p.roles, q.lhs)
    assert got == gamma_restricted_expr(p, p.roles, RoleRef(role("A.r"))) | (
        gamma_restricted_expr(p, p.roles, RoleRef(role("E.r")))
    )


def restricted_cases(seed, n):
    """Random states with monitors that often leave a linked role's first
    component untrusted."""
    rng = random.Random(seed)
    for _ in range(n):
        p = random_state(rng, max_statements=12)
        yield rng, p, random_untrusted_link_monitor(rng, p)


class TestSharedEvaluatorMatchesReferences:
    def test_upper_bound(self):
        flowed = 0
        for _, p, monitor in restricted_cases(610, 400):
            ref = round_robin_upper_bound(p, monitor)
            idx = bounds(p, monitor)
            assert {r: idx.upper_of(r) for r in p.roles} == ref
            flowed += any(TOP in ref[r] for r in p.roles & monitor.growth_trusted)
        # TOP reached a growth-trusted role in enough cases to matter.
        assert flowed >= 100

    def test_core(self):
        shrunk = 0
        for _, p, monitor in restricted_cases(611, 400):
            g = monitor.growth_trusted
            got = core_roles(core(p, g))
            assert got == dense_core(p, g)
            shrunk += got != g
        assert shrunk >= 100

    @pytest.mark.parametrize(
        "make_state",
        [
            random_fan_state,
            lambda rng: hazmat_policy(),
            lambda rng: hazmat_policy_extended(),
            lambda rng: self_link_policy(),
        ],
        ids=["fan", "hazmat", "hazmat-extended", "self-link"],
    )
    def test_core_under_untrusted_link_monitors(self, make_state):
        rng = random.Random(616)
        shrunk = 0
        for _ in range(150):
            p = make_state(rng)
            g = random_untrusted_link_monitor(rng, p).growth_trusted
            got = core_roles(core(p, g))
            assert got == dense_core(p, g) == round_robin_core(p, g)
            shrunk += got != g
        assert shrunk >= 20

    def test_core_under_every_role(self):
        rng = random.Random(617)
        fixed = [hazmat_policy(), hazmat_policy_extended(), self_link_policy()]
        states = fixed + [random_state(rng, max_statements=12) for _ in range(200)]
        states += [random_fan_state(rng) for _ in range(100)]
        for p in states:
            assert core(p, EVERY_ROLE).expelled == p.roles - dense_core(p, p.roles)

    def test_restricted_closure(self):
        for rng, p, monitor in restricted_cases(612, 200):
            g = monitor.growth_trusted
            for target in sorted(p.roles, key=str):
                got = gamma_restricted_expr(p, g, RoleRef(target))
                assert got == reference_gamma_restricted(p, g, target)
            expr = random_expr(rng, p)
            want = frozenset().union(
                *(reference_gamma_restricted(p, g, r) for r in roles_of(expr))
            )
            assert gamma_restricted_expr(p, g, expr) == want


class TestPropagatedCoreMatchesRoundRobin:
    @pytest.mark.parametrize("make_monitor", [random_monitor, random_untrusted_link_monitor])
    def test_random_states(self, make_monitor):
        rng = random.Random(614)
        shrunk = 0
        for _ in range(400):
            p = random_state(rng, max_statements=12)
            g = make_monitor(rng, p).growth_trusted
            got = core_roles(core(p, g))
            assert got == round_robin_core(p, g)
            shrunk += got != g
        assert shrunk >= 100

    def test_deep_chain_expelled_from_its_untrusted_end(self, monkeypatch):
        # R0 <- R1 <- ... <- R300 with R300 untrusted: every role of the
        # chain goes.  The core is read off the upper bound the state
        # already keeps, so it reads no statement at all.
        chain = [Role(Principal(f"P{i}"), RoleName("r")) for i in range(301)]
        p = PolicyState(
            frozenset(Statement(a, SimpleInclusion(b)) for a, b in zip(chain, chain[1:]))
            | {Statement(chain[-1], SimpleMember(Principal("M")))}
        )
        g = frozenset(chain[:-1]) | {role("Other.r")}
        upper_bound(p, RoleMonitor(growth_trusted=g))
        reads = count_calls(monkeypatch, rtmon.engine._reads)
        got = core_roles(core(p, g))
        assert reads == []
        assert got == {role("Other.r")} == round_robin_core(p, g)


def test_lower_bound_is_evaluation_of_the_shrink_trusted_restriction():
    rng = random.Random(615)
    for n in range(400):
        p = random_state(rng, max_statements=12)
        monitor = random_untrusted_link_monitor(rng, p) if n % 2 else random_monitor(rng, p)
        if n % 10 == 0:
            monitor = RoleMonitor(shrink_trusted=EVERY_ROLE)
        want = evaluate(restrict(p, monitor.shrink_trusted)).members
        assert lower_bound(p, monitor) == want


def test_upper_bound_stores_only_growth_trusted_heads_with_members():
    for _, p, monitor in restricted_cases(613, 300):
        ub = upper_bound(p, monitor)
        assert set(ub) <= monitor.growth_trusted & {s.head for s in p}
        assert all(ub.values())


def test_upper_bound_never_builds_the_cross_product():
    # 2000 principals under one role name: nothing growth-trusted has
    # members, so the bound is empty however many principals there are.
    hub = Role(Principal("Hub"), RoleName("staff"))
    p = PolicyState(
        frozenset(Statement(hub, SimpleMember(Principal(f"P{i}"))) for i in range(2000))
        | {Statement(Role(Principal("Org"), RoleName("staff")), SimpleInclusion(hub))}
    )
    assert upper_bound(p, RoleMonitor()) == {}
    assert lower_bound(p, RoleMonitor()) == {}
    assert core_roles(core(p, frozenset())) == frozenset()
    assert "roles" not in vars(p)
