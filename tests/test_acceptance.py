"""Acceptance suite: one test per release criterion, exact expectations.

Each test prints a PASS line on success (visible with ``pytest -s``);
``pytest -v`` shows one outcome line per criterion either way.  Randomized
criteria use fixed seeds and assert their required case counts, so a run
either reproduces the full load or fails loudly.
"""

import json
import random
import time

from rtmon.analysis import (
    bounds,
    check_bounded_containment,
    core,
    gamma_restricted_expr,
)
from rtmon.cli import main
from rtmon.deps import (
    gamma,
    justified_semantics,
)
from rtmon.engine import check_constraint, evaluate, role_members
from rtmon.model import (
    ChangeEvent,
    ChangeKind,
    RoleMonitor,
    RoleRef,
    TOP,
)
from rtmon.monitor import (
    FullTrust,
    FullTrustCredential,
    RecordStatus,
    RestrictedTrust,
    WarningCause,
    WarningOutcome,
    classify,
    register,
    run_session,
)
from rtmon.parser import parse_constraint, parse_policy

from helpers import (
    HAZMAT_ADD_9,
    HAZMAT_ADD_10,
    hazmat_constraint,
    hazmat_policy,
    hazmat_policy_extended,
    member_supports,
    names,
    prin,
    redundant_support_policy,
    role,
    role_strs,
    self_link_policy,
    stmt,
    support_shift_constraint,
    support_shift_policy,
)
from oracles import brute_minimal_supports, reachable_states, reference_step, restrict
from randgen import (
    biased_satisfied_constraint,
    random_constraint,
    random_monitor,
    random_state,
    random_statement_for_state,
)


def _passed(tag: str, detail: str = "") -> None:
    print(f"ACCEPTANCE {tag}: PASS {detail}".rstrip())


def members(idx, role_text):
    return names(role_members(idx, role(role_text)))


def test_a01_hazmat_semantics_reproduced_exactly():
    started = time.perf_counter()
    base = evaluate(hazmat_policy())
    extended = evaluate(hazmat_policy_extended())
    elapsed = time.perf_counter() - started

    assert members(base, "ATF.hazmatDB") == {"Rollins"}
    assert members(base, "ATF.hazmatTraining") == {"Rollins", "Burke", "OConnel"}
    assert members(base, "Emergency.hazmatPersonnel") == set()
    assert members(base, "Emergency.responsePersonnel") == set()
    assert members(base, "Emergency.dept") == {"Fire", "Police"}

    assert members(extended, "ATF.hazmatDB") == {"Rollins"}
    assert members(extended, "ATF.hazmatTraining") == {"Rollins", "Burke", "OConnel"}
    assert members(extended, "Emergency.hazmatPersonnel") == {"Rollins", "Burke"}
    assert members(extended, "Emergency.responsePersonnel") == {"Rollins", "Burke"}
    assert members(extended, "Emergency.dept") == {"Fire", "Police"}
    assert members(extended, "Police.responsePersonnel") == {"Rollins", "Burke"}

    assert elapsed < 1.0, f"evaluation took {elapsed:.3f}s"
    _passed("A01", f"(eleven membership lines, {elapsed * 1000:.1f} ms)")


def test_a02_monitoring_scenario_warns_exactly_once_then_violates():
    session = run_session(
        hazmat_policy(),
        [(hazmat_constraint(), FullTrust())],
        [
            ChangeEvent(ChangeKind.ADD, stmt(HAZMAT_ADD_9)),
            ChangeEvent(ChangeKind.ADD, stmt(HAZMAT_ADD_10)),
        ],
    )
    assert len(session.warnings) == 2
    first, second = session.warnings
    assert first.cause is WarningCause.GROWTH_SIDE_ADD
    assert first.outcome is WarningOutcome.STILL_HOLDS
    assert first.violators == frozenset()
    assert second.outcome is WarningOutcome.NOW_VIOLATED
    assert names(second.violators) == {"Burke"}
    _passed("A02", "(still-holds then now-violated{Burke})")


def test_a03_growth_sets_match_the_worked_examples():
    chain = self_link_policy()
    assert members(evaluate(chain), "A.r") == {"B", "C"}
    grown = chain.add(stmt("D.r <- E"))
    assert members(evaluate(grown), "A.r") == {"B", "C", "E", "F"}
    assert role_strs(gamma(chain, role("A.r"))) == {"A.r", "B.r", "C.r", "D.r"}

    assert role_strs(gamma(hazmat_policy(), role("Emergency.hazmatPersonnel"))) == {
        "Emergency.hazmatPersonnel",
        "Emergency.responsePersonnel",
        "ATF.hazmatTraining",
        "Emergency.dept",
        "Fire.responsePersonnel",
        "Police.responsePersonnel",
    }

    micro = parse_policy("A.r0 <- A.r1.r2\n")
    assert role_strs(gamma(micro, role("A.r0"))) == {"A.r0", "A.r1"}
    micro2 = micro.add(stmt("A.r1 <- B"))
    assert role_strs(gamma(micro2, role("A.r0"))) == {"A.r0", "A.r1", "B.r2"}
    _passed("A03", "(chain, hazmat, and linked-role growth sets)")


def test_a04_redundant_supports_and_removal_recovery():
    p = redundant_support_policy()
    supports = member_supports(p, prin("F"), role("A.r"))
    assert {frozenset(str(r) for r in s) for s in supports} == {
        frozenset({"A.r", "B.r"}),
        frozenset({"A.r", "C.r"}),
    }

    q = parse_constraint("constraint q owner A: {F} <= A.r")
    rec = register(p, q, FullTrust())
    assert rec.status is RecordStatus.HOLDING
    assert role_strs(rec.support_cache) == {"A.r", "B.r"}
    _, warning, record = reference_step(rec, p, ChangeEvent(ChangeKind.REMOVE, stmt("B.r <- F")))
    assert warning.outcome is WarningOutcome.STILL_HOLDS
    assert warning.cause is WarningCause.SUPPORT_SIDE_REMOVE
    assert role_strs(record.support_cache) == {"A.r", "C.r"}
    _passed("A04", "(both minimal supports; removal recovery to {A.r, C.r})")


def test_a05_growth_side_add_forces_support_recompute():
    p = support_shift_policy()
    rec = register(p, support_shift_constraint(), FullTrust())
    assert rec.status is RecordStatus.HOLDING
    assert role_strs(rec.gamma_cache) == {"A.r"}
    assert role_strs(rec.support_cache) == {"B.r", "C.r"}
    _, warning, record = reference_step(rec, p, ChangeEvent(ChangeKind.ADD, stmt("A.r <- F")))
    assert warning.cause is WarningCause.GROWTH_SIDE_ADD
    assert warning.outcome is WarningOutcome.STILL_HOLDS
    assert role_strs(record.support_cache) == {"B.r", "C.r", "D.r"}
    _passed("A05", "(support {B.r, C.r} -> {B.r, C.r, D.r})")


def test_a06_untrusted_dept_frontier_and_bound_verdict(tmp_path, monkeypatch, capsys):
    p = hazmat_policy()
    g = p.roles - {role("Emergency.dept")}
    coreset = core(p, g)
    assert role("Emergency.responsePersonnel") not in coreset
    frontier = gamma_restricted_expr(p, g, RoleRef(role("Emergency.hazmatPersonnel")))
    assert role_strs(frontier) == {
        "Emergency.hazmatPersonnel",
        "ATF.hazmatTraining",
    }

    import pathlib

    fixtures = pathlib.Path(__file__).parent / "fixtures"
    monkeypatch.chdir(fixtures)
    rc = main(["--format", "machine", "analyze", "hazmat.rt", "hazmat.cst", "hazmat.mon"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    (verdict,) = report["result"]["constraints"]
    assert verdict["holds"] is True
    assert verdict["established"] is True
    _passed("A06", "(core exclusion, two-role frontier, bound holds)")


def test_a07_minimal_supports_match_brute_force_on_500_states():
    started = time.perf_counter()
    rng = random.Random(1001)
    for case in range(500):
        p = random_state(rng, max_principals=4, max_names=2, max_statements=8)
        js = justified_semantics(p, max_entries_per_member=None)
        got = {
            r: {(e.member, e.support) for e in entries}
            for r, entries in js.entries.items()
        }
        expected = brute_minimal_supports(p)
        assert got == expected, f"case {case}: {sorted(p.statements, key=str)}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"oracle comparison took {elapsed:.1f}s"
    _passed("A07", f"(500 states, zero mismatches, {elapsed:.1f}s)")


def _cases(seed: int, required: int, build):
    """Run ``build`` until ``required`` cases executed; bounded attempts."""
    rng = random.Random(seed)
    done = 0
    for _ in range(required * 60):
        if done >= required:
            break
        if build(rng):
            done += 1
    assert done >= required, f"generator starved: {done}/{required}"
    return done


def test_a08a_monotonicity_of_membership():
    def build(rng):
        p = random_state(rng)
        before = evaluate(p).members
        extra = random_statement_for_state(rng, p, fresh_principal="E")
        after = evaluate(p.add(extra)).members
        for r in p.roles:
            assert before.get(r, frozenset()) <= after.get(r, frozenset())
        victim = rng.choice(sorted(p.statements, key=str))
        shrunk = evaluate(p.remove(victim)).members
        for r, got in shrunk.items():
            assert got <= before.get(r, frozenset())
        return True

    done = _cases(1002, 1000, build)
    _passed("A08a", f"({done} monotonicity cases)")


def test_a08b_growth_set_shields_membership():
    def build(rng):
        p = random_state(rng)
        target = rng.choice(sorted(p.roles, key=str))
        gset = gamma(p, target)
        extra = random_statement_for_state(rng, p, fresh_principal="E")
        if extra.head in gset or extra in p:
            return False
        p2 = p.add(extra)
        assert role_members(evaluate(p), target) == role_members(evaluate(p2), target)
        assert gamma(p2, target) == gset
        return True

    done = _cases(1003, 1000, build)
    _passed("A08b", f"({done} single-addition cases)")


def test_a08c_growth_set_never_grows_under_mixed_changes():
    def build(rng):
        p = random_state(rng)
        target = rng.choice(sorted(p.roles, key=str))
        gset = gamma(p, target)
        p2 = p
        for _ in range(rng.randint(1, 4)):
            extra = random_statement_for_state(rng, p, fresh_principal="E")
            if extra.head not in gset:
                p2 = p2.add(extra)
        for victim in sorted(p.statements, key=str):
            if rng.random() < 0.35:
                p2 = p2.remove(victim)
        assert role_members(evaluate(p2), target) <= role_members(evaluate(p), target)
        assert gamma(p2, target) <= gset
        return True

    done = _cases(1004, 1000, build)
    _passed("A08c", f"({done} multi-step cases)")


def test_a08d_supports_survive_changes_outside_them():
    def build(rng):
        p = random_state(rng)
        js = justified_semantics(p)
        pairs = [
            (r, e)
            for r, entries in sorted(js.entries.items(), key=lambda kv: str(kv[0]))
            for e in sorted(
                entries, key=lambda e: (str(e.member), sorted(map(str, e.support)))
            )
        ]
        if not pairs:
            return False
        target, entry = rng.choice(pairs)
        assert entry.member in role_members(evaluate(p), target)
        p2 = p
        for victim in sorted(p.statements, key=str):
            if victim.head not in entry.support and rng.random() < 0.5:
                p2 = p2.remove(victim)
        for _ in range(rng.randint(0, 3)):
            p2 = p2.add(random_statement_for_state(rng, p, fresh_principal="E"))
        assert entry.member in role_members(evaluate(p2), target)
        return True

    done = _cases(1005, 1000, build)
    _passed("A08d", f"({done} support-stability cases)")


def test_a08e_restricted_growth_set_shields_upper_bounds():
    def build(rng):
        p = random_state(rng)
        g = random_monitor(rng, p, g_density=0.85).growth_trusted
        monitor = RoleMonitor(growth_trusted=g)
        idx = bounds(p, monitor)
        targets = [r for r in sorted(p.roles, key=str) if TOP not in idx.upper_of(r)]
        if not targets:
            return False
        target = rng.choice(targets)
        frontier = gamma_restricted_expr(p, g, RoleRef(target))
        extra = random_statement_for_state(rng, p, fresh_principal="E")
        if extra.head in frontier or extra in p:
            return False
        p2 = p.add(extra)
        assert bounds(p2, monitor).upper_of(target) == idx.upper_of(target)
        assert gamma_restricted_expr(p2, g, RoleRef(target)) == frontier
        return True

    done = _cases(1006, 1000, build)
    _passed("A08e", f"({done} restricted-frontier cases)")


def test_a08f_shrink_trusted_supports_pin_lower_bounds():
    def build(rng):
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
            return False
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
        return True

    done = _cases(1007, 1000, build)
    _passed("A08f", f"({done} lower-bound support cases)")


def test_a08g_untrusted_roles_bound_to_the_extremes():
    def build(rng):
        p = random_state(rng)
        monitor = random_monitor(rng, p)
        idx = bounds(p, monitor)
        universe = frozenset(p.principals) | {TOP}
        for r in p.roles:
            if r not in monitor.shrink_trusted:
                assert idx.lower_of(r) == frozenset()
            if r not in monitor.growth_trusted:
                assert r not in idx.upper
                assert idx.upper_of(r) == universe
        return True

    done = _cases(1008, 1000, build)
    _passed("A08g", f"({done} default-bound cases)")


def test_a08h_non_core_roles_have_maximal_upper_bounds_and_bounds_sandwich():
    def build(rng):
        p = random_state(rng)
        monitor = random_monitor(rng, p)
        g = monitor.growth_trusted
        exact = evaluate(p).members
        idx = bounds(p, monitor)
        universe = frozenset(p.principals) | {TOP}
        coreset = core(p, g)
        for r in p.roles:
            got = exact.get(r, frozenset())
            assert idx.lower_of(r) <= got
            assert got <= idx.upper_of(r) - {TOP}
            if r not in coreset:
                assert idx.upper_of(r) == universe
        return True

    done = _cases(1009, 1000, build)
    _passed("A08h", f"({done} core/sandwich cases)")


def _ignorable_event(rng, rec, state):
    for _ in range(12):
        if rng.random() < 0.5:
            cand = ChangeEvent(
                ChangeKind.ADD, random_statement_for_state(rng, state, fresh_principal="E")
            )
            noop = cand.statement in state
        else:
            pool = sorted(state.statements, key=str)
            if not pool:
                continue
            cand = ChangeEvent(ChangeKind.REMOVE, rng.choice(pool))
            noop = cand.statement not in state
        if noop or not classify(rec, cand):
            return cand
    return None


def test_a09_silence_is_sound_across_all_modes():
    def mode_for(rng, p, which):
        if which == 0:
            return FullTrust()
        if which == 1:
            return FullTrustCredential()
        return RestrictedTrust(random_monitor(rng, p, 0.85, 0.85))

    total = 0
    for which in (0, 1, 2):

        def build(rng, which=which):
            p = random_state(rng)
            q = biased_satisfied_constraint(rng, p)
            rec = register(p, q, mode_for(rng, p, which))
            if rec.status is not RecordStatus.HOLDING:
                return False
            state = p
            applied = 0
            for _ in range(rng.randint(1, 5)):
                ev = _ignorable_event(rng, rec, state)
                if ev is None:
                    break
                state, warning, _ = reference_step(rec, state, ev)
                assert warning is None
                applied += 1
            if applied == 0:
                return False
            if isinstance(rec.mode, RestrictedTrust):
                assert check_bounded_containment(state, rec.mode.monitor, q).holds
            else:
                assert check_constraint(state, q).satisfied
            return True

        total += _cases(1010 + which, 100, build)
    assert total >= 300
    _passed("A09", f"({total} ignorable-only runs, all final checks pass)")


def test_a10_bound_verdicts_cover_every_enumerated_reachable_state():
    rng = random.Random(1807)
    held = 0
    enumerated = 0
    for _ in range(1500):
        if held >= 50:
            break
        p = random_state(rng, max_principals=3, max_names=2, max_statements=6)
        monitor = random_monitor(rng, p, 0.85, 0.85)
        q = (
            biased_satisfied_constraint(rng, p)
            if rng.random() < 0.7
            else random_constraint(rng, p)
        )
        chk = check_bounded_containment(p, monitor, q)
        if not chk.holds:
            continue
        held += 1
        states = reachable_states(p, monitor)
        enumerated += len(states)
        for p2 in states:
            assert check_constraint(p2, q).satisfied, (
                f"reachable violation: {sorted(p2.statements, key=str)}"
            )
    assert held >= 50, f"only {held} holding instances"
    _passed("A10", f"({held} instances, {enumerated} reachable states, zero violations)")
