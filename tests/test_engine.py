import random
from collections import Counter

from rtmon.analysis import _above, _below
from rtmon.engine import (
    _saturate,
    check_constraint,
    eval_expr,
    evaluate,
    role_members,
)
from rtmon.model import (
    EVERY_ROLE,
    TOP,
    IntersectionInclusion,
    PolicyState,
    PrincipalSet,
    RoleMonitor,
    RoleRef,
    Statement,
    UnionExpr,
    IntersectionExpr,
)
from rtmon.parser import parse_constraint, parse_policy

from helpers import (
    hazmat_constraint,
    hazmat_policy,
    hazmat_policy_extended,
    HAZMAT_ADD_9,
    names,
    prin,
    role,
    self_link_policy,
    stmt,
)
from oracles import dense_evaluate, reference_saturate
from randgen import (
    random_fan_state,
    random_monitor,
    random_state,
    random_statement_for_state,
    random_untrusted_link_monitor,
)


def members(idx, role_text):
    return names(role_members(idx, role(role_text)))


class TestHazmatSemantics:
    def test_base_state(self):
        idx = evaluate(hazmat_policy())
        assert members(idx, "ATF.hazmatDB") == {"Rollins"}
        assert members(idx, "ATF.hazmatTraining") == {"Rollins", "Burke", "OConnel"}
        assert members(idx, "Emergency.hazmatPersonnel") == set()
        assert members(idx, "Emergency.responsePersonnel") == set()
        assert members(idx, "Emergency.dept") == {"Fire", "Police"}

    def test_extended_state(self):
        idx = evaluate(hazmat_policy_extended())
        assert members(idx, "ATF.hazmatDB") == {"Rollins"}
        assert members(idx, "ATF.hazmatTraining") == {"Rollins", "Burke", "OConnel"}
        assert members(idx, "Emergency.hazmatPersonnel") == {"Rollins", "Burke"}
        assert members(idx, "Emergency.responsePersonnel") == {"Rollins", "Burke"}
        assert members(idx, "Emergency.dept") == {"Fire", "Police"}
        assert members(idx, "Police.responsePersonnel") == {"Rollins", "Burke"}

    def test_undefined_role_is_empty(self):
        idx = evaluate(hazmat_policy())
        assert members(idx, "Fire.responsePersonnel") == set()
        assert role_members(idx, role("Navy.fleet")) == frozenset()


class TestSelfLinkChain:
    def test_base_membership(self):
        idx = evaluate(self_link_policy())
        assert members(idx, "A.r") == {"B", "C"}

    def test_growth_through_the_link(self):
        p = self_link_policy().add(stmt("D.r <- E"))
        assert members(evaluate(p), "A.r") == {"B", "C", "E", "F"}


class TestEvalExpr:
    def test_principal_set_evaluates_to_itself(self):
        idx = evaluate(PolicyState())
        got = eval_expr(idx, PrincipalSet(frozenset({prin("D1"), prin("D2")})))
        assert names(got) == {"D1", "D2"}

    def test_union_with_static(self):
        idx = evaluate(self_link_policy())
        expr = UnionExpr(RoleRef(role("A.r")), PrincipalSet(frozenset({prin("A")})))
        assert names(eval_expr(idx, expr)) == {"A", "B", "C"}

    def test_intersection_with_empty_set(self):
        idx = evaluate(self_link_policy())
        expr = IntersectionExpr(RoleRef(role("A.r")), PrincipalSet(frozenset()))
        assert eval_expr(idx, expr) == frozenset()


class TestCheckConstraint:
    def test_satisfied_on_base_state(self):
        got = check_constraint(hazmat_policy(), hazmat_constraint())
        assert got.satisfied and got.violators == frozenset()

    def test_first_addition_keeps_it_satisfied(self):
        p = hazmat_policy().add(stmt(HAZMAT_ADD_9))
        got = check_constraint(p, hazmat_constraint())
        assert got.satisfied

    def test_second_addition_violates_with_burke(self):
        got = check_constraint(hazmat_policy_extended(), hazmat_constraint())
        assert not got.satisfied
        assert names(got.violators) == {"Burke"}

    def test_satisfied_iff_no_violators(self):
        rng = random.Random(401)
        for _ in range(100):
            p = random_state(rng)
            q = parse_constraint("constraint q owner A: A.r <= B.r")
            got = check_constraint(p, q)
            assert got.satisfied == (not got.violators)


def test_fixpoint_is_deterministic():
    p = self_link_policy()
    assert evaluate(p) == evaluate(p)
    text_reversed = "\n".join(reversed(sorted(str(s) for s in p))) + "\n"
    assert evaluate(parse_policy(text_reversed)).members == evaluate(p).members


def test_monotonicity_under_adds_and_removes():
    rng = random.Random(402)
    for _ in range(150):
        p = random_state(rng)
        extra = random_statement_for_state(rng, p, fresh_principal="E")
        bigger = p.add(extra)
        before = evaluate(p).members
        after = evaluate(bigger).members
        for r in p.roles:
            assert before.get(r, frozenset()) <= after.get(r, frozenset())
        victim = rng.choice(sorted(p.statements, key=str))
        smaller = p.remove(victim)
        shrunk = evaluate(smaller).members
        for r in smaller.roles:
            assert shrunk.get(r, frozenset()) <= before.get(r, frozenset())


def test_violating_change_has_fresh_witnesses():
    rng = random.Random(403)
    checked = 0
    from randgen import random_constraint

    while checked < 60:
        p = random_state(rng)
        q = random_constraint(rng, p)
        before = check_constraint(p, q)
        if not before.satisfied:
            continue
        ev = random_statement_for_state(rng, p, fresh_principal="E")
        after = check_constraint(p.add(ev), q)
        if after.satisfied:
            continue
        checked += 1
        assert after.violators
        assert after.violators.isdisjoint(before.violators)


class TestIndexedEvaluator:
    """The indexed semi-naive evaluator against the dense reference."""

    def assert_agrees(self, p):
        idx = evaluate(p)
        dense = dense_evaluate(p)
        for r in p.roles:
            assert role_members(idx, r) == dense[r], r
        assert all(idx.members.values())

    def test_random_states(self):
        rng = random.Random(1701)
        for _ in range(400):
            self.assert_agrees(random_state(rng, max_statements=12))

    def test_intersection_fans(self):
        rng = random.Random(1702)
        for _ in range(60):
            self.assert_agrees(random_fan_state(rng))

    def test_deep_chain_with_linked_roles(self):
        lines = [f"P{i}.r <- P{i + 1}.r" for i in range(200)]
        lines += ["P200.r <- X", "P200.r <- Y", "A.r <- A.s.r", "A.s <- P0", "A.s <- P150"]
        lines += ["B.r <- P0.r & P199.r", "P100.r <- A.r"]
        self.assert_agrees(parse_policy("\n".join(lines) + "\n"))

    def test_index_holds_only_non_empty_roles(self):
        p = hazmat_policy()
        idx = evaluate(p)
        assert role("Emergency.hazmatPersonnel") not in idx.members
        assert role("Fire.responsePersonnel") not in idx.members
        # The principals x role names cross product is never built.
        assert "roles" not in vars(p)


class TestOneMeet:
    """``_saturate`` meets an intersection's parts through ``_meet`` when
    roles are held and with a plain ``&`` when none are; the reference is
    the loop whose intersection branch tested ``TOP`` itself."""

    @staticmethod
    def with_duplicate_parts(rng, p):
        """``p`` with one more intersection naming a part twice, as in
        ``A.r <- B.s & B.s``, sometimes beside a second part."""
        roles = sorted(p.roles, key=str)
        twice = rng.choice(roles)
        parts = (twice, twice) if rng.random() < 0.5 else (twice, rng.choice(roles), twice)
        return p.add(Statement(rng.choice(roles), IntersectionInclusion(parts)))

    @staticmethod
    def assert_agrees(index, roots, held):
        got = _saturate(index, roots, held)
        assert got == reference_saturate(index, roots, held)
        return got

    def test_saturate_gives_the_reference_members_rounds_and_cone(self):
        rng = random.Random(3701)
        seen: Counter = Counter()
        for n in range(3000):
            p = random_fan_state(rng) if n % 5 == 4 else random_state(rng, max_statements=10)
            if n % 3 == 0:
                p = self.with_duplicate_parts(rng, p)
            index = p._index
            roles = sorted(p.roles, key=str)
            roots = rng.sample(roles, rng.randint(1, min(3, len(roles))))
            monitors = [
                random_monitor(rng, p, 0.6, 0.6),
                random_untrusted_link_monitor(rng, p, 0.7, 0.7),
                RoleMonitor(EVERY_ROLE, EVERY_ROLE),
            ]
            uppers = [_above(m.growth_trusted) for m in monitors]
            for held in [None, *(_below(m.shrink_trusted) for m in monitors), *uppers]:
                whole = self.assert_agrees(index, None, held)
                self.assert_agrees(index, roots, held)
                if held in uppers:
                    self.count_top(index, whole, held, seen)
            seen["duplicate"] += any(
                isinstance(s.body, IntersectionInclusion) and len(s.body.reads) < len(s.body.parts)
                for s in p
            )
        assert seen["duplicate"] >= 900
        assert seen["gains TOP"] >= 1000
        assert seen["every part TOP"] >= 900

    @staticmethod
    def count_top(index, whole, held, seen):
        """Count the upper-bound runs where an intersection computed has a
        part that gained ``TOP``, and where every part holds it."""
        gained = every = False
        for head, stmts in index.items():
            if held(head) is not None:
                continue
            for s in stmts:
                if isinstance(s.body, IntersectionInclusion):
                    reads = s.body.reads
                    gained |= any(held(r) is None and TOP in whole.members.get(r, ()) for r in reads)
                    every |= all(TOP in (held(r) or whole.members.get(r, ())) for r in reads)
        seen["gains TOP"] += gained
        seen["every part TOP"] += every

    def test_named_intersections_meet_as_the_reference_does(self):
        # Duplicate parts, a part that gains TOP through an untrusted
        # source, and an intersection whose every part holds TOP.
        p = parse_policy(
            "A.r <- B.s & B.s\nB.s <- C\nB.s <- U.t\n"
            "D.r <- B.s & E.s\nE.s <- C\nE.s <- F\n"
            "G.r <- U.t & V.t\nH.r <- U.t & B.s & U.t\n"
        )
        untrusted = {role("U.t"), role("V.t")}
        g = frozenset(r for r in p.roles if r not in untrusted)
        upper = self.assert_agrees(p._index, None, _above(g)).members
        assert upper[role("B.s")] == {prin("C"), TOP}
        assert upper[role("A.r")] == {prin("C"), TOP}
        assert upper[role("D.r")] == {prin("C"), prin("F")}
        assert upper[role("G.r")] == {TOP}
        assert upper[role("H.r")] == {prin("C"), TOP}
        for held in (None, _below(g), _above(g)):
            for roots in (None, [role("D.r")], [role("H.r"), role("A.r")]):
                self.assert_agrees(p._index, roots, held)
        assert evaluate(p).members[role("A.r")] == {prin("C")}
