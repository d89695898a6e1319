import copy
import importlib.util
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import rtmon.deps
import rtmon.engine
import rtmon.model
from rtmon.analysis import _above, _below
from rtmon.deps import (
    DEFAULT_SUPPORT_CAP,
    NoSupport,
    _growth_roles,
    credential_support_for_constraint,
    gamma,
    gamma_expr,
    justified_semantics,
    support_for_constraint,
    _member_expr_support,
    _role_worklist,
    _worklist,
)
from rtmon.engine import (
    _reads,
    _saturate,
    _walk_expr,
    check_constraint,
    eval_expr,
    evaluate,
    role_members,
)
from rtmon.model import (
    EVERY_ROLE,
    ChangeEvent,
    ChangeKind,
    IntersectionInclusion,
    LinkingInclusion,
    PolicyState,
    PrincipalSet,
    RoleRef,
    SimpleInclusion,
    SimpleMember,
    Statement,
    UnionExpr,
    _checked_state,
    _successor,
    roles_of,
)
from rtmon.parser import parse_changelog, parse_constraint, parse_constraints, parse_policy

from helpers import (
    SELF_LINK_POLICY_TEXT,
    count_calls,
    hazmat_policy,
    index_texts,
    member_supports,
    prin,
    redundant_support_policy,
    role,
    role_strs,
    self_link_policy,
    stmt,
    support_shift_policy,
)
import oracles
from oracles import (
    brute_minimal_supports,
    dense_evaluate,
    polling_worklist,
    product_join,
    restrict,
    round_robin_worklist,
)
from randgen import (
    biased_satisfied_constraint,
    random_constraint,
    random_expr,
    random_fan_state,
    random_monitor,
    random_state,
    random_statement_for_state,
)


class TestRestrict:
    def test_keeps_only_listed_heads(self):
        p = redundant_support_policy()
        got = restrict(p, {role("A.r"), role("B.r")})
        assert got.statements == frozenset(
            {stmt("A.r <- B.r"), stmt("A.r <- C.r"), stmt("B.r <- F")}
        )

    def test_empty_restriction(self):
        assert restrict(hazmat_policy(), frozenset()) == PolicyState()

    def test_full_restriction_is_identity(self):
        p = hazmat_policy()
        assert restrict(p, p.roles) == p

    def test_every_role_keeps_the_state_itself(self):
        p = hazmat_policy()
        assert restrict(p, EVERY_ROLE) is p

    def test_explicit_sets_give_equal_states_without_rechecking(self, monkeypatch):
        p = hazmat_policy()
        checks = count_calls(monkeypatch, rtmon.model._check_unreserved)
        every = restrict(p, p.roles)
        assert every == p and every is not p
        some = frozenset({role("ATF.hazmatTraining"), role("Emergency.dept")})
        assert restrict(p, some).statements == frozenset(s for s in p if s.head in some)
        # Statements of a state passed the ``TOP`` check when it was built.
        assert checks == []


class TestGamma:
    def test_self_link_chain(self):
        got = gamma(self_link_policy(), role("A.r"))
        assert role_strs(got) == {"A.r", "B.r", "C.r", "D.r"}

    def test_hazmat_lhs(self):
        got = gamma(hazmat_policy(), role("Emergency.hazmatPersonnel"))
        assert role_strs(got) == {
            "Emergency.hazmatPersonnel",
            "Emergency.responsePersonnel",
            "ATF.hazmatTraining",
            "Emergency.dept",
            "Fire.responsePersonnel",
            "Police.responsePersonnel",
        }

    def test_linked_role_growth_updates_the_set(self):
        p = parse_policy("A.r0 <- A.r1.r2\n")
        assert role_strs(gamma(p, role("A.r0"))) == {"A.r0", "A.r1"}
        p2 = p.add(stmt("A.r1 <- B"))
        assert role_strs(gamma(p2, role("A.r0"))) == {"A.r0", "A.r1", "B.r2"}


class TestGammaExpr:
    def test_static_expression_has_empty_growth_set(self):
        got = gamma_expr(hazmat_policy(), PrincipalSet(frozenset({prin("Alice")})))
        assert got == frozenset()

    def test_union_of_per_role_sets(self):
        expr = UnionExpr(RoleRef(role("A.r")), RoleRef(role("E.r")))
        got = gamma_expr(self_link_policy(), expr)
        assert role_strs(got) == {"A.r", "B.r", "C.r", "D.r", "E.r"}

    def test_single_role_matches_gamma(self):
        p = hazmat_policy()
        target = role("Emergency.hazmatPersonnel")
        assert gamma_expr(p, RoleRef(target)) == gamma(p, target)

    def test_without_an_index_the_evaluated_cone_is_the_growth_set(self, monkeypatch):
        p = hazmat_policy()
        expr = UnionExpr(RoleRef(role("Emergency.hazmatPersonnel")), RoleRef(role("ATF.hazmatDB")))
        want = gamma_expr(p, expr, evaluate(p))
        evaluations = count_calls(monkeypatch, rtmon.engine.evaluate)
        walks = count_calls(monkeypatch, rtmon.deps._growth_roles)
        assert gamma_expr(p, expr) == want
        assert len(evaluations) == 1
        assert walks == []


FIXTURES = Path(__file__).resolve().parent / "fixtures"
BENCHMARK = Path(__file__).resolve().parent.parent / "perfbench"


def _constraint_roles(q):
    return roles_of(q.lhs) | roles_of(q.rhs)


def _fixture_cases():
    """Every fixture policy with its constraints, and every state its change
    log passes through."""
    for name in sorted(path.stem for path in FIXTURES.glob("*.rt")):
        p = parse_policy((FIXTURES / f"{name}.rt").read_text())
        constraints = parse_constraints((FIXTURES / f"{name}.cst").read_text())
        yield p, constraints
        for ev in parse_changelog((FIXTURES / f"{name}.changes").read_text()):
            p = p.add(ev.statement) if ev.kind is ChangeKind.ADD else p.remove(ev.statement)
            yield p, constraints


def _random_cases(n):
    rng = random.Random(1414)
    for k in range(n):
        if k % 4 == 3:
            p = random_fan_state(rng)
        else:
            p = random_state(rng, max_statements=rng.choice((8, 16, 30)))
        make = biased_satisfied_constraint if rng.random() < 0.5 else random_constraint
        yield p, [make(rng, p, f"q{i}") for i in range(rng.randint(1, 3))]


_NONE: frozenset = frozenset()

# Self-linked rules, ``D.r <- D.r.r``: the rule walks the members it adds.
_SELF_LINKED = [
    ("D.r <- D.r.r\nD.r <- E\nE.r <- F\nF.r <- G\n", "D.r"),
    ("D.r <- D.r.r\nD.r <- D.s\nD.s <- E\nE.r <- E.r.r\nE.r <- D\n", "D.r"),
    (SELF_LINK_POLICY_TEXT, "A.r"),
]


def _self_linked_cases():
    for text, root in _SELF_LINKED:
        p = parse_policy(text)
        yield p, [parse_constraint(f"constraint q owner D: {root} <= {root}")]


def _linked_root_cases(n):
    """Seeded states, each with the head of one of its linked rules as the
    only root, so that the cone grows by walks more often."""
    rng = random.Random(1616)
    for _ in range(n):
        p = random_state(rng, max_statements=rng.choice((16, 30)))
        linked = sorted((s for s in p.statements if isinstance(s.body, LinkingInclusion)), key=str)
        if linked:
            yield p, frozenset({rng.choice(linked).head})


class TestCone:
    """Goal-directed membership against the dense whole-state oracle."""

    def test_cone_equals_the_whole_state_on_its_roles_and_growth_sets(self):
        seen: Counter = Counter()
        rng = random.Random(1617)
        cases = [
            (p, frozenset().union(*map(_constraint_roles, constraints)), constraints)
            for p, constraints in (*_self_linked_cases(), *_fixture_cases(), *_random_cases(400))
        ]
        cases += [(p, roots, []) for p, roots in _linked_root_cases(500)]
        for p, roots, constraints in cases:
            index = p._index
            dense = dense_evaluate(p)
            cone = evaluate(p, roots)
            # The cone is the closure of the roots under the exact members.
            assert cone.cone == _growth_roles(index, roots, dense)
            for r in cone.cone:
                assert role_members(cone, r) == dense.get(r, _NONE)
            for q in constraints:
                lhs, rhs = (_walk_expr(e, lambda r: dense.get(r, _NONE)) for e in (q.lhs, q.rhs))
                assert check_constraint(p, q, cone).violators == lhs - rhs
                for side in (q.lhs, q.rhs):
                    want = _growth_roles(index, roles_of(side), dense)
                    assert gamma_expr(p, side, cone) == want
                    assert gamma_expr(p, side) == want
            # Held roles: the cone of a bound equals the whole-state bound on
            # every role of the cone, under the upper bound's rule (the
            # universe for a role of TOP or outside growth-trusted) and the
            # lower bound's (the empty set outside shrink-trusted).
            monitor = random_monitor(rng, p, 0.7, 0.7)
            for kind, held in (
                ("upper", _above(p, monitor.growth_trusted)),
                ("lower", _below(monitor.shrink_trusted)),
            ):
                bounded = _saturate(index, roots, held)
                whole = _saturate(index, held=held)
                for r in bounded.cone:
                    assert bounded.members.get(r) == whole.members.get(r)
                seen[f"{kind} held"] += any(held(r) is not None for r in bounded.cone)
                seen[f"{kind} found"] += bool(bounded.members)
            # A rule indexed once the rounds began heads a role that only a
            # linked walk reached.  Count those with an input that entered
            # the cone before the rounds began, holding its facts.
            static = _growth_roles(index, roots, {})
            late = [s for s in p.statements if s.head in cone.cone - static]
            seen["late"] += any(
                r in static and any(isinstance(f.body, SimpleMember) for f in index.get(r, ()))
                for s in late
                for r in _reads(s)
            )
            heads = [s for s in p.statements if s.head in cone.cone]
            seen["cases"] += 1
            seen["outside"] += len(heads) < len(p.statements)
            seen.update(type(s.body).__name__ for s in heads)
            seen["walked"] += any(
                isinstance(s.body, LinkingInclusion) and dense.get(s.body.first)
                for s in heads
            )
        assert seen["cases"] >= 800
        assert seen["outside"] >= 100
        assert seen["walked"] >= 50
        assert seen["late"] >= 50
        for kind in ("upper", "lower"):
            assert seen[f"{kind} held"] >= 300 and seen[f"{kind} found"] >= 300, kind
        for form in ("SimpleMember", "SimpleInclusion", "LinkingInclusion", "IntersectionInclusion"):
            assert seen[form] >= 100, form

    def test_a_role_outside_the_cone_raises(self):
        p = parse_policy("A.r <- B.r\nB.r <- C\nD.s <- E\nD.t <- A.r\n")
        cone = evaluate(p, [role("A.r")])
        assert cone.cone == {role("A.r"), role("B.r")}
        assert role_members(cone, role("A.r")) == {prin("C")}
        for outside in (role("D.s"), role("D.t"), role("Z.z")):
            with pytest.raises(LookupError, match="outside the evaluated cone"):
                role_members(cone, outside)
            with pytest.raises(LookupError):
                eval_expr(cone, UnionExpr(RoleRef(role("A.r")), RoleRef(outside)))
            with pytest.raises(LookupError):
                gamma_expr(p, RoleRef(outside), cone)
        with pytest.raises(LookupError):
            check_constraint(p, parse_constraint("constraint q owner A: A.r <= D.s"), cone)
        # An empty role inside the cone reads as empty.
        empty = evaluate(p, [role("Z.z")])
        assert role_members(empty, role("Z.z")) == frozenset()

    def test_1000_nested_linked_roles_take_one_evaluation(self, monkeypatch):
        # A{i}.r reads A{i+1}.r only through A{i}.l, so the cone reaches one
        # level deeper with each member the walk finds.  It is found inside
        # one evaluation, whose rounds grow with the depth.
        depth = 1000
        p = parse_policy(
            "".join(f"A{i}.r <- A{i}.l.r\nA{i}.l <- A{i + 1}\n" for i in range(depth))
            + f"A{depth}.r <- M\nA{depth}.r <- A{depth}.l.r\n"
        )
        full = evaluate(p)
        calls = count_calls(monkeypatch, rtmon.engine._saturate)
        cone = evaluate(p, [role("A0.r")])
        assert len(calls) == 1
        assert cone.iteration_count <= 2 * depth + 2
        assert len(cone.cone) == 2 * depth + 2
        assert cone.members == full.members
        assert role_members(cone, role("A0.r")) == {prin("M")}


class TestJustifiedSemantics:
    def test_single_member_statement(self):
        js = justified_semantics(parse_policy("A.r <- B\n"))
        entries = js.for_role(role("A.r"))
        assert len(entries) == 1
        (entry,) = entries
        assert entry.member == prin("B")
        assert entry.support == frozenset({role("A.r")})

    def test_redundant_chains_give_two_minimal_supports(self):
        js = justified_semantics(redundant_support_policy())
        supports = {
            frozenset(str(r) for r in e.support)
            for e in js.for_role(role("A.r"))
            if e.member == prin("F")
        }
        assert supports == {
            frozenset({"A.r", "B.r"}),
            frozenset({"A.r", "C.r"}),
        }

    def test_matches_brute_force_on_random_states(self):
        rng = random.Random(501)
        for _ in range(40):
            p = random_state(rng)
            js = justified_semantics(p, max_entries_per_member=None)
            got = {
                r: {(e.member, e.support) for e in entries}
                for r, entries in js.entries.items()
            }
            assert got == brute_minimal_supports(p)

    def test_no_entry_subsumes_another(self):
        rng = random.Random(502)
        for _ in range(60):
            js = justified_semantics(random_state(rng), max_entries_per_member=None)
            for entries in js.entries.values():
                for a in entries:
                    for b in entries:
                        if a is not b and a.member == b.member:
                            assert not (a.support <= b.support)

    def test_cap_keeps_valid_supports(self):
        rng = random.Random(503)
        for _ in range(60):
            p = random_state(rng)
            js = justified_semantics(p, max_entries_per_member=1)
            for r, entries in js.entries.items():
                for e in entries:
                    restricted = evaluate(restrict(p, e.support))
                    assert e.member in role_members(restricted, r)


    def test_rendered_and_cold_statement_texts_give_the_same_supports(self):
        # The worklist fires statements in the order of their text, which a
        # state's index keeps.  A deep copy builds its own index, so it
        # checks that a kept text orders exactly as a fresh one does.
        seen = 0
        for p in [p for p, _ in _fixture_cases()] + [p for p, _ in _random_cases(300)]:
            p._index
            for cap in (1, 2, 8, None):
                cold = copy.deepcopy(p)
                assert cold == p
                got = justified_semantics(cold, max_entries_per_member=cap)
                want = justified_semantics(p, max_entries_per_member=cap)
                assert got.entries == want.entries
                assert got.truncated_roles == want.truncated_roles
            seen += 1
        assert seen >= 300 + len(list(_fixture_cases()))


def _benchmark_policies(monkeypatch):
    """The policies of the three benchmark workloads, as perfbench generates
    them at seeds 1 and 2."""
    spec = importlib.util.spec_from_file_location("bench_gen", BENCHMARK / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while they are built.
    monkeypatch.setitem(sys.modules, spec.name, gen)
    spec.loader.exec_module(gen)
    for name in ("org_churn", "chain_fan", "org_restricted"):
        for seed in (1, 2):
            yield parse_policy(gen.generate(name, seed).texts()["policy"])


class _Logged(list):
    """A head's list of statements that logs each one a pass reads."""

    def __init__(self, items, log):
        super().__init__(items)
        self.log = log

    def __iter__(self):
        for stmt in super().__iter__():
            self.log.append(stmt)
            yield stmt


def _first_pass(p, heads=None, by_statement=False) -> list:
    """The statements the worklist's first pass fires on the index of
    ``p``, carried or fresh, in firing order: it reads each head's list as
    it fires, and the later passes read only the rules it set apart."""
    fired: list = []
    probe = _checked_state(p.statements)
    logged = {head: _Logged(items, fired) for head, items in p._index.items()}
    object.__setattr__(probe, "_index", logged)
    _worklist(probe, DEFAULT_SUPPORT_CAP, heads, by_statement)
    return fired


def _respelled(s):
    """``s`` with its intersection's parts written in another order."""
    parts = s.body.parts
    return Statement(s.head, IntersectionInclusion(parts[1:] + parts[:1]))


def _changed(rng, state):
    """The next state of a seeded walk through ``_successor``: one to three
    events at once, additions, removals, and intersections removed by
    another spelling, often added back in it."""
    live = set(state.statements)
    events = []
    for _ in range(rng.randint(1, 3)):
        dice = rng.random()
        ordered = sorted(live, key=str)
        crossed = [s for s in ordered if isinstance(s.body, IntersectionInclusion)]
        if crossed and dice < 0.3:
            new = _respelled(rng.choice(crossed))
            events.append(ChangeEvent(ChangeKind.REMOVE, new))
            live.discard(new)
            if rng.random() < 0.7:
                events.append(ChangeEvent(ChangeKind.ADD, new))
                live.add(new)
        elif ordered and dice < 0.6:
            gone = rng.choice(ordered)
            events.append(ChangeEvent(ChangeKind.REMOVE, gone))
            live.discard(gone)
        else:
            added = random_statement_for_state(rng, state, "E")
            if added not in live:
                events.append(ChangeEvent(ChangeKind.ADD, added))
                live.add(added)
    return _successor(state, frozenset(live), events)


class TestTextOrder:
    """The worklist's first pass walks the heads in text order and each
    head's list in order, which is the order of the statements' texts, on a
    fresh index and on one carried through any changes; a carried index
    equals a fresh build list for list."""

    def _check(self, rng, p, steps) -> int:
        p._index
        state, respelled = p, 0
        for n in range(steps + 1):
            if n:
                state = _changed(rng, state)
            assert "_index" in vars(state)
            fresh = PolicyState(state.statements)
            assert index_texts(state) == index_texts(fresh)
            want = sorted(state.statements, key=str)
            for at in (state, fresh):
                assert list(map(str, _first_pass(at))) == list(map(str, want))
            # The credential replay: the heads of a role support, with a
            # token per statement.
            heads = sorted({s.head for s in want}, key=str)
            admitted = frozenset(rng.sample(heads, rng.randint(0, len(heads))))
            narrowed = [s for s in want if s.head in admitted]
            assert list(map(str, _first_pass(state, admitted, True))) == list(map(str, narrowed))
            respelled += any(
                s not in p or str(s) not in map(str, p._index[s.head])
                for s in state
                if isinstance(s.body, IntersectionInclusion)
            )
        return respelled

    def test_random_and_fixture_states_and_their_changes(self):
        rng = random.Random(2015)
        states = [random_state(rng, max_statements=rng.choice((8, 16, 30))) for _ in range(300)]
        states += [random_fan_state(rng) for _ in range(100)]
        states += [p for p, _ in _fixture_cases()]
        assert sum(self._check(rng, p, 6) for p in states) >= 300

    def test_benchmark_policies_and_their_changes(self, monkeypatch):
        rng = random.Random(2016)
        policies = list(_benchmark_policies(monkeypatch))
        assert len(policies) == 6 and min(map(len, policies)) >= 100
        for p in policies:
            self._check(rng, p, 8)


def _support_answers(p, members, rhs, admissible, cap) -> dict:
    """Every support read of ``p`` at ``cap``: a result, or the member
    :class:`NoSupport` names."""

    def answer(call):
        try:
            return call()
        except NoSupport as exc:
            return ("no support", exc.member)

    js = justified_semantics(p, max_entries_per_member=cap)
    return {
        "entries": js.entries,
        "truncated": js.truncated_roles,
        "roles": answer(
            lambda: support_for_constraint(p, members, rhs, max_entries_per_member=cap)
        ),
        "admissible": answer(
            lambda: support_for_constraint(
                p, members, rhs, admissible, max_entries_per_member=cap
            )
        ),
        "credential": answer(
            lambda: credential_support_for_constraint(p, members, rhs, max_entries_per_member=cap)
        ),
    }


class TestSupportCap:
    """A cap below 1 would keep no support at all."""

    POLICY = "A.r <- B\nA.r <- C.s\nC.s <- B\n"

    @staticmethod
    def _calls(p, cap):
        member, rhs = prin("B"), RoleRef(role("A.r"))
        return {
            "justified_semantics": lambda: justified_semantics(p, max_entries_per_member=cap),
            "member_supports": lambda: member_supports(p, member, role("A.r"), cap),
            "support_for_constraint": lambda: support_for_constraint(
                p, [member], rhs, max_entries_per_member=cap
            ),
            "credential_support_for_constraint": lambda: credential_support_for_constraint(
                p, [member], rhs, max_entries_per_member=cap
            ),
        }

    @pytest.mark.parametrize("cap", [0, -1])
    def test_a_cap_below_one_is_rejected_by_name(self, monkeypatch, cap):
        # Each public function passes through the one check before any
        # worklist runs.
        ran = []
        monkeypatch.setattr(rtmon.deps, "_worklist", lambda *args, **kw: ran.append(args))
        p = parse_policy(self.POLICY)
        for name, call in self._calls(p, cap).items():
            with pytest.raises(ValueError, match=f"max_entries_per_member .* got {cap}$"):
                call()
        assert ran == [] and not p._memo

    def test_a_cap_of_one_keeps_one_support(self):
        p = parse_policy(self.POLICY)
        got = self._calls(p, 1)
        js = got["justified_semantics"]()
        assert {e.support for e in js.for_role(role("A.r"))} == {frozenset({role("A.r")})}
        assert not js.truncated
        assert got["member_supports"]() == {frozenset({role("A.r")})}
        assert got["support_for_constraint"]() == frozenset({role("A.r")})
        assert got["credential_support_for_constraint"]() == frozenset({stmt("A.r <- B")})
        saturated, truncated = _role_worklist(p, None, 1)
        assert saturated[role("A.r")] == {prin("B"): [frozenset({role("A.r")})]}
        assert not truncated

    @pytest.mark.parametrize(
        "caps", [(1, DEFAULT_SUPPORT_CAP), (DEFAULT_SUPPORT_CAP, 1)], ids=["1-first", "8-first"]
    )
    def test_both_caps_on_one_state_answer_as_on_a_fresh_copy(self, caps):
        # A state keeps one worklist per admissible set and cap, so asking
        # at one cap never answers for the other, in either order; a plain
        # set of admissible roles reads the entry of the equal frozenset.
        rng = random.Random(431)
        differ = 0
        for n in range(200):
            p = random_fan_state(rng) if n % 2 else random_state(rng)
            rhs = random_expr(rng, p)
            members = sorted(eval_expr(evaluate(p), rhs))
            admissible = {r for r in p.roles if rng.random() < 0.8}
            by_cap = {}
            for cap in caps:
                got = _support_answers(p, members, rhs, admissible, cap)
                assert got == _support_answers(copy.copy(p), members, rhs, admissible, cap)
                by_cap[cap] = got
            differ += by_cap[1] != by_cap[DEFAULT_SUPPORT_CAP]
        assert differ >= 20


class TestMinimalSupports:
    def test_redundant_chains(self):
        got = member_supports(redundant_support_policy(), prin("F"), role("A.r"))
        assert {frozenset(str(r) for r in s) for s in got} == {
            frozenset({"A.r", "B.r"}),
            frozenset({"A.r", "C.r"}),
        }

    def test_direct_membership(self):
        got = member_supports(self_link_policy(), prin("B"), role("A.r"))
        assert {frozenset(str(r) for r in s) for s in got} == {frozenset({"A.r"})}

    def test_non_member_has_no_support(self):
        assert member_supports(self_link_policy(), prin("F"), role("A.r")) == frozenset()


class TestSupportForConstraint:
    def test_direct_database_support(self):
        p = hazmat_policy()
        got = support_for_constraint(p, {prin("Rollins")}, RoleRef(role("ATF.hazmatDB")))
        assert role_strs(got) == {"ATF.hazmatDB"}

    def test_support_after_removal_shifts_chain(self):
        p = redundant_support_policy().remove(stmt("B.r <- F"))
        got = support_for_constraint(p, {prin("F")}, RoleRef(role("A.r")))
        assert role_strs(got) == {"A.r", "C.r"}

    def test_support_grows_with_new_member(self):
        p = support_shift_policy()
        got = support_for_constraint(p, {prin("E")}, RoleRef(role("B.r")))
        assert role_strs(got) == {"B.r", "C.r"}
        p2 = p.add(stmt("A.r <- F"))
        got2 = support_for_constraint(p2, {prin("E"), prin("F")}, RoleRef(role("B.r")))
        assert role_strs(got2) == {"B.r", "C.r", "D.r"}

    def test_static_rhs_needs_no_support(self):
        got = support_for_constraint(
            hazmat_policy(), {prin("Rollins")}, PrincipalSet(frozenset({prin("Rollins")}))
        )
        assert got == frozenset()

    def test_admissible_filter(self):
        p = redundant_support_policy()
        got = support_for_constraint(
            p,
            {prin("F")},
            RoleRef(role("A.r")),
            admissible={role("A.r"), role("C.r")},
        )
        assert role_strs(got) == {"A.r", "C.r"}
        with pytest.raises(NoSupport):
            support_for_constraint(
                p, {prin("F")}, RoleRef(role("A.r")), admissible={role("A.r")}
            )

    def test_missing_member_raises(self):
        with pytest.raises(NoSupport) as err:
            support_for_constraint(
                self_link_policy(), {prin("Z")}, RoleRef(role("A.r"))
            )
        assert err.value.member == prin("Z")

    def test_empty_members_need_nothing(self):
        got = support_for_constraint(hazmat_policy(), set(), RoleRef(role("ATF.hazmatDB")))
        assert got == frozenset()


class TestCredentialSupport:
    def test_single_statement(self):
        p = parse_policy("A.r <- B\n")
        got = credential_support_for_constraint(p, {prin("B")}, RoleRef(role("A.r")))
        assert got == frozenset({stmt("A.r <- B")})

    def test_redundant_chains_give_one_complete_chain(self):
        got = credential_support_for_constraint(
            redundant_support_policy(), {prin("F")}, RoleRef(role("A.r"))
        )
        assert got in (
            frozenset({stmt("A.r <- B.r"), stmt("B.r <- F")}),
            frozenset({stmt("A.r <- C.r"), stmt("C.r <- F")}),
        )

    def test_hazmat_database_statement(self):
        got = credential_support_for_constraint(
            hazmat_policy(), {prin("Rollins")}, RoleRef(role("ATF.hazmatDB"))
        )
        assert got == frozenset({stmt("ATF.hazmatDB <- Rollins")})

    def test_credential_support_proves_membership_alone(self):
        rng = random.Random(504)
        proved = 0
        while proved < 50:
            p = random_state(rng)
            idx = evaluate(p)
            targets = [r for r in sorted(p.roles, key=str) if idx.members.get(r)]
            if not targets:
                continue
            target = rng.choice(targets)
            members = idx.members[target]
            got = credential_support_for_constraint(p, members, RoleRef(target))
            alone = evaluate(PolicyState(got))
            for m in members:
                assert m in role_members(alone, target)
            proved += 1

    def test_credential_statement_heads_stay_inside_role_support(self):
        rng = random.Random(505)
        done = 0
        while done < 50:
            p = random_state(rng)
            idx = evaluate(p)
            targets = [r for r in sorted(p.roles, key=str) if idx.members.get(r)]
            if not targets:
                continue
            target = rng.choice(targets)
            members = idx.members[target]
            roles_sigma = support_for_constraint(p, members, RoleRef(target))
            cred = credential_support_for_constraint(p, members, RoleRef(target))
            assert {s.head for s in cred} <= roles_sigma
            done += 1


    def test_members_sharing_a_role_support_replay_once(self, monkeypatch):
        p = parse_policy("A.r <- B.r\nB.r <- C\nB.r <- D\nB.r <- E\n")
        # The state keeps its role-support worklist, so only replays run.
        _role_worklist(p, None, DEFAULT_SUPPORT_CAP)
        runs = count_calls(monkeypatch, rtmon.deps._worklist)
        got = credential_support_for_constraint(
            p, {prin("C"), prin("D"), prin("E")}, RoleRef(role("A.r"))
        )
        assert len(runs) == 1
        assert got == frozenset(
            stmt(t) for t in ("A.r <- B.r", "B.r <- C", "B.r <- D", "B.r <- E")
        )

    @pytest.mark.parametrize("cap", [DEFAULT_SUPPORT_CAP, 1])
    def test_one_replay_per_role_support_matches_a_replay_per_member(self, cap):
        rng = random.Random(808 + cap)
        shared = 0
        for n in range(400):
            p = random_fan_state(rng) if n % 2 else random_state(rng)
            rhs = random_expr(rng, p)
            members = set(eval_expr(evaluate(p), rhs))
            if rng.random() < 0.2:
                members.add(prin(rng.choice("ABCDM")))
            try:
                got = credential_support_for_constraint(
                    p, members, rhs, max_entries_per_member=cap
                )
            except NoSupport as err:
                got = err.member
            want, supports = _credential_per_member(p, members, rhs, cap)
            assert got == want
            shared += len(supports) < len(members)
        assert shared >= 100


def _credential_per_member(p, members, rhs, cap):
    """A worklist replay per member: the statements (or the first member
    without a support) and the role supports chosen."""
    saturated = _worklist(p, cap)[0]
    total, supports = set(), set()
    for member in sorted(members, key=str):
        role_support = _member_expr_support(member, rhs, saturated)
        if role_support is None:
            return member, supports
        supports.add(role_support)
        replay = _worklist(restrict(p, role_support), cap, by_statement=True)[0]
        total |= _member_expr_support(member, rhs, replay)
    return frozenset(total), supports


class TestGrowthSetStability:
    """Adding outside the growth set changes neither membership nor the set."""

    def _case(self, rng):
        p = random_state(rng)
        target = rng.choice(sorted(p.roles, key=str))
        gset = gamma(p, target)
        for _ in range(10):
            extra = random_statement_for_state(rng, p, fresh_principal="E")
            if extra.head not in gset and extra not in p:
                return p, target, gset, extra
        return None

    def test_single_addition_outside_gamma(self):
        rng = random.Random(506)
        done = 0
        while done < 150:
            case = self._case(rng)
            if case is None:
                continue
            p, target, gset, extra = case
            p2 = p.add(extra)
            assert role_members(evaluate(p), target) == role_members(evaluate(p2), target)
            assert gamma(p2, target) == gset
            done += 1

    def test_multistep_changes_never_grow_membership(self):
        rng = random.Random(507)
        done = 0
        while done < 150:
            p = random_state(rng)
            target = rng.choice(sorted(p.roles, key=str))
            gset = gamma(p, target)
            p2 = p
            for _ in range(rng.randint(1, 4)):
                extra = random_statement_for_state(rng, p, fresh_principal="E")
                if extra.head not in gset:
                    p2 = p2.add(extra)
            for victim in sorted(p.statements, key=str):
                if rng.random() < 0.3:
                    p2 = p2.remove(victim)
            assert role_members(evaluate(p2), target) <= role_members(evaluate(p), target)
            assert gamma(p2, target) <= gset
            done += 1


class TestSupportStability:
    """Removals outside a support never break the membership it certifies."""

    def test_support_survives_changes(self):
        rng = random.Random(508)
        done = 0
        while done < 150:
            p = random_state(rng)
            js = justified_semantics(p)
            pairs = [
                (r, e)
                for r, entries in sorted(js.entries.items(), key=lambda kv: str(kv[0]))
                for e in sorted(entries, key=lambda e: (str(e.member), sorted(map(str, e.support))))
            ]
            if not pairs:
                continue
            target, entry = rng.choice(pairs)
            assert entry.member in role_members(evaluate(p), target)
            p2 = p
            for victim in sorted(p.statements, key=str):
                if victim.head not in entry.support and rng.random() < 0.5:
                    p2 = p2.remove(victim)
            for _ in range(rng.randint(0, 3)):
                p2 = p2.add(random_statement_for_state(rng, p, fresh_principal="E"))
            assert entry.member in role_members(evaluate(p2), target)
            done += 1


def _by_head(stmt):
    return stmt.head


def _by_statement(stmt):
    return stmt


def _run_worklist(p, token, cap):
    """``_worklist`` on every statement of ``p``, its tokens the heads or
    the statements, as ``token`` gives them; the oracles' signature."""
    return _worklist(p, cap, by_statement=token is _by_statement)


class TestWorklistAgainstRoundRobin:
    """The change-driven worklist against the round-robin reference."""

    @pytest.mark.parametrize("token", [_by_head, _by_statement])
    def test_uncapped_supports_match(self, token):
        rng = random.Random(2024)
        for k in range(240):
            p = random_fan_state(rng) if k % 3 == 0 else random_state(rng, max_statements=10)
            got, truncated = _run_worklist(p, token, None)
            want, _ = round_robin_worklist(p, token)
            assert not truncated
            # The oracle's derivation sizes are its own, so pairs are compared.
            assert {
                r: {(m, s) for m, found in by_member.items() for s in found}
                for r, by_member in got.items()
            } == {r: {(m, s) for m, s, _ in bucket} for r, bucket in want.items()}

    def test_capped_entries_are_real_supports(self):
        rng = random.Random(2025)
        truncated = 0
        for _ in range(60):
            p = random_fan_state(rng)
            for cap in (1, 2, 3):
                js = justified_semantics(p, max_entries_per_member=cap)
                truncated += js.truncated
                for target, entries in js.entries.items():
                    per_member: dict = {}
                    for e in entries:
                        per_member[e.member] = per_member.get(e.member, 0) + 1
                        assert e.member in role_members(evaluate(restrict(p, e.support)), target)
                    assert max(per_member.values()) <= cap
        assert truncated


def _fact_heavy_chain(rng):
    """An inclusion chain with member facts on its links and unrelated facts
    around it.  The links take random names, so a link's facts sort before
    some of the rules reading it and after others, and the unrelated facts'
    heads sort before (``A``) and after (``Z``) every link.  Extra sources,
    an intersection and a linked role give members several supports, so
    small caps bind."""
    d = rng.randint(3, 15)
    chain = [f"N{k:02d}.r" for k in rng.sample(range(100), d + 1)]
    members = [f"M{i}" for i in range(rng.randint(1, 4))]
    lines = [f"{chain[k]} <- {chain[k + 1]}" for k in range(d)]
    lines += [f"{rng.choice(chain)} <- {rng.choice(members)}" for _ in range(rng.randint(d, 3 * d))]
    for k in range(rng.randint(0, 4)):
        alt = f"{rng.choice('AZ')}{k}.s"
        lines += [f"{rng.choice(chain)} <- {alt}", f"{alt} <- {rng.choice(members)}"]
    if rng.random() < 0.5:
        lines.append("X.r <- {} & {}".format(*rng.sample(chain, 2)))
    if rng.random() < 0.5:
        lines += [f"X.d <- {rng.choice(chain).split('.')[0]}", "X.l <- X.d.r"]
    lines += [f"{rng.choice('AZ')}{k}.u <- {rng.choice(members)}" for k in range(rng.randint(0, 40))]
    return parse_policy("".join(f"{line}\n" for line in dict.fromkeys(lines)))


def _in_insertion_order(raw):
    return [(r, [(m, list(found)) for m, found in by_member.items()]) for r, by_member in raw.items()]


def _reversed_chain(links, facts):
    """``L00.r <- L01.r`` up to ``L{links-1}.r <- L{links}.r`` and
    ``L{links}.r <- M``: every rule sorts before the rule defining the role
    it reads, so each pass carries ``M`` one link.  ``facts`` unrelated
    member facts sort half before and half after the chain."""
    lines = [f"L{k:02d}.r <- L{k + 1:02d}.r" for k in range(links)] + [f"L{links:02d}.r <- M"]
    lines += [f"{'FZ'[k % 2]}{k:04d}.x <- M" for k in range(facts)]
    return parse_policy("".join(f"{line}\n" for line in lines))


class TestMemberFactsFireOnce:
    """The worklist's later passes fire only rules: a member fact fires in
    the first pass and never again."""

    def test_entries_and_truncation_match_the_polling_worklist(self):
        rng = random.Random(2029)
        states = [random_state(rng, max_statements=12) for _ in range(200)]
        states += [random_fan_state(rng) for _ in range(200)]
        states += [_fact_heavy_chain(rng) for _ in range(200)]
        cases, truncated = 0, Counter()
        for k, p in enumerate(states):
            for token in (_by_head, _by_statement):
                for cap in (1, 2, 3, 8, None):
                    got, got_truncated = _run_worklist(p, token, cap)
                    want, want_truncated = polling_worklist(p, token, cap)
                    assert _in_insertion_order(got) == _in_insertion_order(want), (k, cap)
                    assert got_truncated == want_truncated, (k, cap)
                    cases += 1
                    truncated[k // 200] += bool(got_truncated)
        assert cases == 6000
        # Random, fan and chain states all reach the cap somewhere.
        assert min(truncated[kind] for kind in range(3)) >= 20

    @staticmethod
    def _firings(monkeypatch, p, worklist):
        """The rules ``worklist`` fires on ``p`` (a state of simple
        inclusions and facts, each rule with a body of its own), in order.
        A rule's body gives up its ``source`` to ``_reads`` as the rule is
        set apart and to ``__str__`` as it is rendered; any other read is a
        firing."""
        by_body = {id(s.body): s for s in p.statements}
        slot = SimpleInclusion.__dict__["source"]
        fired = []

        def logged(body):
            if sys._getframe(1).f_code.co_name not in ("_reads", "__str__"):
                fired.append(by_body[id(body)])
            return slot.__get__(body)

        with monkeypatch.context() as m:
            m.setattr(SimpleInclusion, "source", property(logged))
            worklist(p, _by_head, None)
        return fired

    def test_later_passes_fire_the_stale_rules_in_the_order_the_first_pass_set_them_apart(
        self, monkeypatch
    ):
        # Each link's fact sorts before its rule and a fact of another role
        # after it, so facts and rules interleave in text order.
        links = 6
        lines = [f"L{links}.r <- M"]
        for k in range(links):
            lines += [f"L{k}.r <- F{k}", f"L{k}.r <- L{k + 1}.r", f"L{k}.s <- M"]
        p = parse_policy("".join(f"{line}\n" for line in lines))
        in_text_order = sorted(p.statements, key=str)
        facts = [isinstance(s.body, SimpleMember) for s in in_text_order]
        assert facts[:4] == [True, False, True, True]
        rules = [s for s, fact in zip(in_text_order, facts) if not fact]
        fired = self._firings(monkeypatch, p, _run_worklist)
        assert fired[:links] == rules
        # Each rule fires before the facts of the role it reads, so every
        # later pass carries each member one link up the chain, firing the
        # rules whose source changed in the pass before.  L6.r stops
        # changing first, then L5.r, and so on, so each pass fires one rule
        # fewer: six passes bring M to L0.r.
        assert fired[links:] == [s for n in range(links, 0, -1) for s in rules[:n]]
        assert fired == self._firings(monkeypatch, p, polling_worklist)

    @staticmethod
    def _polls(monkeypatch, p):
        """Statement visits of the polling worklist after its first pass:
        each one polls the clock stamps through one ``max`` call (a chain
        has no linked rule)."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return max(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(oracles, "max", counted, raising=False)
            polling_worklist(p, _by_head, None)
        return len(calls)

    def test_firings_after_the_first_pass_track_the_roles_changed(self, monkeypatch):
        bare = self._firings(monkeypatch, _reversed_chain(30, 0), _run_worklist)
        padded = self._firings(monkeypatch, _reversed_chain(30, 2000), _run_worklist)
        # The first pass fires the 30 rules on empty sources; then each
        # later pass fires the one rule whose source gained M, from the last
        # link to the first, and no other.
        assert len(bare) == len(padded) == 30 + 30
        assert bare[30:] == padded[30:] == bare[29::-1]
        assert bare == self._firings(monkeypatch, _reversed_chain(30, 0), polling_worklist)
        # The polling worklist visits every rule and fact in every pass.
        assert self._polls(monkeypatch, _reversed_chain(30, 2000)) == 31 * (30 + 1 + 2000)


def _late_second_name_state(rng):
    """Linked rules ``A.r <- A.r1.r2`` (owners ``A`` and ``B``) whose
    ``Y.r2`` gain members only after the linked rule first fired: each
    ``Y.r2`` is fed through an inclusion chain ``Y.r2 <- Y0.c <- Y1.c ...``
    whose rules sort before the roles they read, so every pass carries the
    members one link up, while ``A.r1`` may be complete after the first
    pass.  Member facts on random links of each chain, a chain into
    ``A.r1`` and a second link through a member's ``r2`` give members
    several supports, so small caps bind."""
    ys = rng.sample("PQRS", rng.randint(1, 3))
    members = [f"M{i}" for i in range(rng.randint(1, 3))]
    lines = []
    owners = rng.sample("AB", rng.randint(1, 2))
    for owner in owners:
        lines.append(f"{owner}.r <- {owner}.r1.r2")
        lines += [f"{owner}.r1 <- {y}" for y in rng.sample(ys, rng.randint(1, len(ys)))]
    for y in ys:
        chain = [f"{y}.r2"] + [f"{y}{k}.c" for k in range(rng.randint(1, 4))]
        lines += [f"{chain[k]} <- {chain[k + 1]}" for k in range(len(chain) - 1)]
        lines += [f"{rng.choice(chain)} <- {m}" for m in rng.sample(members, rng.randint(1, len(members)))]
    if rng.random() < 0.5:
        # A.r1 reached through a chain of its own, sorting after A.r.
        lines += [f"{owners[0]}.r1 <- C0.c", "C0.c <- C1.c", f"C1.c <- {rng.choice(ys)}"]
    if rng.random() < 0.5:
        # Members of one linked role lead a second link through their r2.
        lines += [f"D.r1 <- {owners[-1]}.r", "D.r <- D.r1.r2", f"{members[0]}.r2 <- {rng.choice(ys)}0.c"]
    return parse_policy("".join(f"{line}\n" for line in dict.fromkeys(lines)))


class TestOneTickMap:
    """Roles and role names mark their readers alike: a linked rule
    watches its second name beside the roles it reads, and fires again
    when any of them changed since it last fired."""

    @pytest.mark.parametrize("cap", [None, 8, 2, 1])
    @pytest.mark.parametrize("token", [_by_head, _by_statement])
    def test_linked_rules_match_the_polling_worklist(self, token, cap):
        rng = random.Random(2031)
        truncated = 0
        for k in range(300):
            p = _late_second_name_state(rng)
            got, got_truncated = _run_worklist(p, token, cap)
            want, want_truncated = polling_worklist(p, token, cap)
            assert _in_insertion_order(got) == _in_insertion_order(want), k
            assert got_truncated == want_truncated, k
            truncated += bool(got_truncated)
        if cap in (2, 1):
            assert truncated >= 20

    @pytest.mark.parametrize("cap", [None, 8, 2, 1])
    @pytest.mark.parametrize("token", [_by_head, _by_statement])
    def test_a_linked_rule_fires_again_when_only_its_second_name_ticks(self, token, cap):
        # In text order the linked rule fires first, on an empty A.r1; the
        # fact then puts Y in A.r1, and Z.s gets M last.  The second pass
        # fires the linked rule on Y while Y.r2 is still empty, then carries
        # M into Y.r2.  A.r1 never changes again, so only the change of the
        # name r2 makes the third pass fire the linked rule and reach M.
        p = parse_policy("A.r <- A.r1.r2\nA.r1 <- Y\nY.r2 <- Z.s\nZ.s <- M\n")
        got, truncated = _run_worklist(p, token, cap)
        assert _in_insertion_order(got) == _in_insertion_order(polling_worklist(p, token, cap)[0])
        assert not truncated
        tokens = {token(s) for s in p.statements}
        assert got[role("A.r")] == {prin("M"): [frozenset(tokens)]}


def test_an_eviction_under_the_cap_fires_the_rules_heading_the_role_again():
    # At cap 2, C.r's member N first keeps two supports through A.r's early
    # ones.  When a smaller support of A.r evicts them, the rules heading
    # C.r fire again although no role they read changed since, and so reach
    # the second support, which the cap had cut while there was no room.
    p = parse_policy(
        "A.r <- A.r & F.r\nA.r <- E.r & F.r\nA.r <- E.r & G.r\nA.r <- F.r\n"
        "C.r <- A.r & G.r\nC.r <- A.r & H.r\nC.r <- G.r\nD.r <- A.r\n"
        "D.r <- N\nE.r <- A.r\nE.r <- N\nF.r <- D.r\n"
        "G.r <- D.r\nH.r <- B.r\nH.r <- D.r\nH.r <- M\n"
        "I.r <- M\n"
    )
    got, truncated = _run_worklist(p, _by_head, 2)
    want, want_truncated = polling_worklist(p, _by_head, 2)
    assert _in_insertion_order(got) == _in_insertion_order(want)
    assert truncated == want_truncated == frozenset()
    assert got[role("C.r")][prin("N")] == [
        frozenset(map(role, ["C.r", "D.r", "G.r"])),
        frozenset(map(role, ["A.r", "C.r", "D.r", "F.r", "H.r"])),
    ]


def _pairs(js):
    return {r: {(e.member, e.support) for e in entries} for r, entries in js.entries.items()}


def _random_support_states(rng, n):
    """``n`` seeded states, every other one an intersection fan."""
    return [
        random_fan_state(rng) if k % 2 else random_state(rng, max_statements=12)
        for k in range(n)
    ]


class TestIntersectionJoin:
    """The part-by-part intersection join against the product enumeration."""

    @pytest.mark.parametrize("cap", [None, 8, 2, 1])
    def test_supports_match_the_product_enumeration(self, monkeypatch, cap):
        states = _random_support_states(random.Random(2026), 400)
        truncated = 0
        for p in states:
            folded = justified_semantics(p, max_entries_per_member=cap)
            with monkeypatch.context() as m:
                m.setattr(rtmon.deps, "_join", product_join)
                enumerated = justified_semantics(p, max_entries_per_member=cap)
            assert _pairs(folded) == _pairs(enumerated)
            truncated += folded.truncated
        if cap in (2, 1):
            assert truncated >= 20

    def test_truncated_only_when_some_member_has_more_minimal_supports_than_the_cap(self):
        # A dominated union offered before the union dominating it used to
        # overflow the cap for a moment and set the flag.
        flagged = Counter()
        for p in _random_support_states(random.Random(2027), 1500):
            full = justified_semantics(p, max_entries_per_member=None)
            counts = Counter((r, e.member) for r, entries in full.entries.items() for e in entries)
            most = max(counts.values(), default=0)
            for cap in (8, 2, 1):
                capped = justified_semantics(p, max_entries_per_member=cap)
                assert capped.truncated == (most > cap)
                assert capped.truncated or _pairs(capped) == _pairs(full)
                flagged[cap, capped.truncated] += 1
        assert flagged[2, True] >= 50 and flagged[2, False] >= 50

    def test_a_wide_intersection_joins_in_polynomial_time(self):
        # Every part has the same 8 alternatives, so 8 of the 8^20 unions
        # are minimal; enumerating the product would not finish.
        width = 20
        text = f"A.w <- {' & '.join(f'A.p{k}' for k in range(width))}\n"
        text += "".join(f"A.p{k} <- S{i}.x\n" for k in range(width) for i in range(8))
        text += "".join(f"S{i}.x <- M\n" for i in range(8))
        p = parse_policy(text)
        start = time.perf_counter()
        js = justified_semantics(p)
        elapsed = time.perf_counter() - start
        parts = {role("A.w")} | {role(f"A.p{k}") for k in range(width)}
        assert {e.support for e in js.for_role(role("A.w"))} == {
            frozenset(parts | {role(f"S{i}.x")}) for i in range(8)
        }
        assert not js.truncated
        assert elapsed < 1.0


_HASH_SEED_PROBE = """
import json, random
from randgen import random_fan_state
from rtmon.deps import justified_semantics
rng = random.Random(4242)
out = []
for _ in range(150):
    p = random_fan_state(rng)
    for cap in (1, 2, 3, 8):
        js = justified_semantics(p, max_entries_per_member=cap)
        entries = sorted(
            (str(r), e.member.name, sorted(map(str, e.support)))
            for r, found in js.entries.items()
            for e in found
        )
        out.append([entries, js.truncated])
print(json.dumps(out))
"""


CAPPED_SUPPORTS = Path(__file__).resolve().parent / "golden" / "capped_supports.json"


def _capped_support_cases():
    """The worklist on 300 seeded random and fan states, at caps 1, 2, 3
    and 8, with role and statement tokens: per case, the sorted token texts
    of every support in insertion order (per role, per member, per support)
    and the truncated roles.  The golden holds one case a line, as
    ``json.dumps(case, separators=(",", ":"))``, in a JSON list."""
    states = _random_support_states(random.Random(2028), 300)
    for k, p in enumerate(states):
        for name, token in (("role", _by_head), ("statement", _by_statement)):
            for cap in (1, 2, 3, 8):
                raw, truncated = _run_worklist(p, token, cap)
                yield {
                    "state": k,
                    "token": name,
                    "cap": cap,
                    "entries": [
                        [str(r), m.name, [sorted(map(str, s)) for s in found]]
                        for r, by_member in raw.items()
                        for m, found in by_member.items()
                    ],
                    "truncated": sorted(map(str, truncated)),
                }


def test_capped_supports_match_the_golden():
    # Under the cap, which supports are kept depends on the order in which
    # they are offered, so this pins the firing order and the cap's order.
    want = json.loads(CAPPED_SUPPORTS.read_text())
    got = list(_capped_support_cases())
    assert len(got) == len(want) == 2400
    assert sum(bool(case["truncated"]) for case in want) >= 500
    for case, expected in zip(got, want):
        assert case == expected


def test_capped_supports_do_not_depend_on_the_hash_seed():
    here = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(here.parent / "src"), str(here)])
    runs = []
    for seed in ("0", "1", "2", "3"):
        env["PYTHONHASHSEED"] = seed
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_PROBE],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        runs.append(json.loads(proc.stdout))
    assert any(truncated for _, truncated in runs[0])
    assert all(run == runs[0] for run in runs[1:])
