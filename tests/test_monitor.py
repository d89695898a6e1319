import random

import pytest

import rtmon.analysis
import rtmon.engine
from rtmon.deps import restrict
from rtmon.engine import check_constraint, eval_expr, evaluate
from rtmon.model import (
    ChangeEvent,
    ChangeKind,
    RoleMonitor,
)
from rtmon.monitor import (
    Classification,
    FullTrust,
    FullTrustCredential,
    RecordStatus,
    RestrictedTrust,
    StaleRecord,
    WarningCause,
    WarningOutcome,
    apply_change,
    classify,
    register,
    run_session,
)
from rtmon.analysis import check_bounded_containment

from helpers import (
    HAZMAT_ADD_10,
    HAZMAT_ADD_9,
    count_calls,
    hazmat_constraint,
    hazmat_policy,
    hazmat_policy_extended,
    names,
    redundant_support_policy,
    role,
    role_strs,
    stmt,
    support_shift_constraint,
    support_shift_policy,
)
from rtmon.parser import parse_constraint
from randgen import (
    biased_satisfied_constraint,
    random_monitor,
    random_state,
    random_statement_for_state,
)


def add(s):
    return ChangeEvent(ChangeKind.ADD, stmt(s))


def remove(s):
    return ChangeEvent(ChangeKind.REMOVE, stmt(s))


class TestRegister:
    def test_full_trust_holding_caches_both_frontiers(self):
        rec = register(hazmat_policy(), hazmat_constraint(), FullTrust())
        assert rec.status is RecordStatus.HOLDING
        assert role_strs(rec.gamma_cache.roles) == {
            "Emergency.hazmatPersonnel",
            "Emergency.responsePersonnel",
            "ATF.hazmatTraining",
            "Emergency.dept",
            "Fire.responsePersonnel",
            "Police.responsePersonnel",
        }
        assert role_strs(rec.support_cache.roles) == set()  # lhs is empty here

    def test_violated_registration(self):
        rec = register(hazmat_policy_extended(), hazmat_constraint(), FullTrust())
        assert rec.status is RecordStatus.VIOLATED
        assert names(rec.violators) == {"Burke"}
        assert rec.gamma_cache is None and rec.support_cache is None

    def test_restricted_with_wildcard_growth_holds(self):
        p = hazmat_policy()
        mode = RestrictedTrust(
            RoleMonitor(growth_all=True, shrink_trusted=frozenset({role("ATF.hazmatDB")}))
        )
        rec = register(p, hazmat_constraint(), mode)
        assert rec.status is RecordStatus.HOLDING
        assert rec.mode.monitor.is_bound
        assert rec.gamma_total
        # empty upper bound on the left side means nothing needs support
        assert rec.support_cache.roles == frozenset()

    def test_restricted_with_untrusted_dept_reports_bound_violation(self):
        p = hazmat_policy()
        mode = RestrictedTrust(
            RoleMonitor(
                growth_trusted=p.roles - {role("Emergency.dept")},
                shrink_trusted=frozenset({role("ATF.hazmatDB")}),
            )
        )
        rec = register(p, hazmat_constraint(), mode)
        assert rec.status is RecordStatus.BOUND_VIOLATED
        assert names(rec.violators) == {"Burke", "OConnel"}

    def test_restricted_unestablished_without_shrink_trust(self):
        # the bound holds (lhs upper bound = {E} via the support-shift state)
        # but no admissible support exists when nothing is shrink-trusted
        p = support_shift_policy()
        mode = RestrictedTrust(RoleMonitor(growth_all=True))
        rec = register(p, support_shift_constraint(), mode)
        assert rec.status in (RecordStatus.BOUND_VIOLATED, RecordStatus.UNESTABLISHED)


class TestClassify:
    def test_add_inside_gamma_triggers(self):
        rec = register(hazmat_policy(), hazmat_constraint(), FullTrust())
        assert classify(rec, add(HAZMAT_ADD_9)) is Classification.TRIGGERING

    def test_remove_outside_support_is_ignorable(self):
        p = hazmat_policy_extended()
        rec = register(p, hazmat_constraint(), FullTrust())
        assert rec.status is RecordStatus.VIOLATED
        # drop (10) to get back to a holding state, then classify
        p2 = p.remove(stmt(HAZMAT_ADD_10))
        rec = register(p2, hazmat_constraint(), FullTrust())
        assert rec.status is RecordStatus.HOLDING
        assert classify(rec, remove(HAZMAT_ADD_9)) is Classification.IGNORABLE

    def test_add_outside_gamma_is_ignorable(self):
        rec = register(hazmat_policy(), hazmat_constraint(), FullTrust())
        assert classify(rec, add("Navy.fleet <- Kim")) is Classification.IGNORABLE

    def test_credential_mode_tracks_statements_not_heads(self):
        p = redundant_support_policy()
        q = parse_constraint("constraint q owner A: {F} <= A.r")
        rec = register(p, q, FullTrustCredential())
        assert rec.status is RecordStatus.HOLDING
        chosen = rec.support_cache.statements
        inside = sorted(chosen, key=str)[0]
        assert classify(rec, ChangeEvent(ChangeKind.REMOVE, inside)) is Classification.TRIGGERING
        outside = stmt("C.r <- F") if stmt("B.r <- F") in chosen else stmt("B.r <- F")
        assert classify(rec, ChangeEvent(ChangeKind.REMOVE, outside)) is Classification.IGNORABLE

    def test_non_holding_record_is_stale(self):
        rec = register(hazmat_policy_extended(), hazmat_constraint(), FullTrust())
        with pytest.raises(StaleRecord):
            classify(rec, add("Navy.fleet <- Kim"))


class TestApplyChange:
    def test_growth_side_add_still_holds(self):
        p = hazmat_policy()
        rec = register(p, hazmat_constraint(), FullTrust())
        got = apply_change(rec, p, add(HAZMAT_ADD_9))
        assert got.warning is not None
        assert got.warning.cause is WarningCause.GROWTH_SIDE_ADD
        assert got.warning.outcome is WarningOutcome.STILL_HOLDS
        assert got.warning.recomputed
        assert got.record.status is RecordStatus.HOLDING

    def test_second_add_violates(self):
        p = hazmat_policy()
        rec = register(p, hazmat_constraint(), FullTrust())
        step1 = apply_change(rec, p, add(HAZMAT_ADD_9))
        step2 = apply_change(step1.record, step1.new_state, add(HAZMAT_ADD_10))
        assert step2.warning.outcome is WarningOutcome.NOW_VIOLATED
        assert names(step2.warning.violators) == {"Burke"}
        assert step2.record.status is RecordStatus.VIOLATED

    def test_support_side_remove_recomputes_sigma(self):
        p = redundant_support_policy()
        q = parse_constraint("constraint q owner A: {F} <= A.r")
        rec = register(p, q, FullTrust())
        assert role_strs(rec.support_cache.roles) == {"A.r", "B.r"}
        got = apply_change(rec, p, remove("B.r <- F"))
        assert got.warning.cause is WarningCause.SUPPORT_SIDE_REMOVE
        assert got.warning.outcome is WarningOutcome.STILL_HOLDS
        assert role_strs(got.record.support_cache.roles) == {"A.r", "C.r"}

    def test_noop_events_are_silent_for_holding_records(self):
        p = hazmat_policy()
        rec = register(p, hazmat_constraint(), FullTrust())
        # adding an existing statement, even one whose head is in gamma
        got = apply_change(rec, p, add("ATF.hazmatTraining <- Burke"))
        assert got.warning is None
        assert got.new_state == p
        assert got.record is rec
        got = apply_change(rec, p, remove("Navy.fleet <- Kim"))
        assert got.warning is None

    def test_violated_records_recheck_every_event(self):
        p = hazmat_policy_extended()
        rec = register(p, hazmat_constraint(), FullTrust())
        got = apply_change(rec, p, remove(HAZMAT_ADD_10))
        assert got.warning.cause is WarningCause.RECHECK
        assert got.warning.outcome is WarningOutcome.STILL_HOLDS
        assert got.record.status is RecordStatus.HOLDING


class TestRunSession:
    def test_hazmat_story(self):
        session = run_session(
            hazmat_policy(),
            [(hazmat_constraint(), FullTrust())],
            [add(HAZMAT_ADD_9), add(HAZMAT_ADD_10), remove(HAZMAT_ADD_10)],
        )
        outcomes = [w.outcome for w in session.warnings]
        assert outcomes == [
            WarningOutcome.STILL_HOLDS,
            WarningOutcome.NOW_VIOLATED,
            WarningOutcome.STILL_HOLDS,
        ]
        assert session.warnings[2].cause is WarningCause.RECHECK
        assert session.records[0].status is RecordStatus.HOLDING
        assert session.final_state == hazmat_policy().add(stmt(HAZMAT_ADD_9))

    def test_empty_log(self):
        p = hazmat_policy()
        session = run_session(p, [(hazmat_constraint(), FullTrust())], [])
        assert session.warnings == ()
        assert session.final_state == p

    def test_untouched_frontiers_stay_silent(self):
        p = hazmat_policy()
        log = [add("Navy.fleet <- Kim"), add("Navy.fleet <- Lee"), remove("Navy.fleet <- Kim")]
        session = run_session(p, [(hazmat_constraint(), FullTrust())], log)
        assert session.warnings == ()
        assert check_constraint(session.final_state, hazmat_constraint()).satisfied

    def test_support_shift_story(self):
        session = run_session(
            support_shift_policy(),
            [(support_shift_constraint(), FullTrust())],
            [add("A.r <- F")],
        )
        (warning,) = session.warnings
        assert warning.cause is WarningCause.GROWTH_SIDE_ADD
        assert warning.outcome is WarningOutcome.STILL_HOLDS
        assert role_strs(session.records[0].support_cache.roles) == {"B.r", "C.r", "D.r"}


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
        if noop or classify(rec, cand) is Classification.IGNORABLE:
            return cand
    return None


def _final_check_passes(rec, state):
    q = rec.constraint
    if isinstance(rec.mode, RestrictedTrust):
        return check_bounded_containment(state, rec.mode.monitor, q).holds
    return check_constraint(state, q).satisfied


@pytest.mark.parametrize(
    "mode_factory",
    [
        lambda rng, p: FullTrust(),
        lambda rng, p: FullTrustCredential(),
        lambda rng, p: RestrictedTrust(random_monitor(rng, p, 0.85, 0.85)),
    ],
    ids=["full-trust", "credential", "restricted"],
)
def test_silence_is_sound(mode_factory):
    rng = random.Random(701)
    done = 0
    for _ in range(20000):
        if done >= 60:
            break
        p = random_state(rng)
        q = biased_satisfied_constraint(rng, p)
        mode = mode_factory(rng, p)
        rec = register(p, q, mode)
        if rec.status is not RecordStatus.HOLDING:
            continue
        state = p
        applied = 0
        for _ in range(rng.randint(1, 5)):
            ev = _ignorable_event(rng, rec, state)
            if ev is None:
                break
            got = apply_change(rec, state, ev)
            assert got.warning is None
            assert got.record is rec
            state = got.new_state
            applied += 1
        if applied == 0:
            continue
        assert _final_check_passes(rec, state)
        done += 1
    assert done >= 60, f"generator starved: only {done} silent runs"


def test_caches_stay_valid_without_warnings():
    rng = random.Random(702)
    done = 0
    for _ in range(20000):
        if done >= 60:
            break
        p = random_state(rng)
        q = biased_satisfied_constraint(rng, p)
        rec = register(p, q, FullTrust())
        if rec.status is not RecordStatus.HOLDING:
            continue
        state = p
        applied = 0
        for _ in range(rng.randint(1, 4)):
            ev = _ignorable_event(rng, rec, state)
            if ev is None:
                break
            state = apply_change(rec, state, ev).new_state
            applied += 1
        if applied == 0:
            continue
        fresh = register(state, q, FullTrust())
        assert fresh.status is RecordStatus.HOLDING
        assert fresh.gamma_cache.roles <= rec.gamma_cache.roles
        # the cached support still proves every current lhs member
        members = eval_expr(evaluate(state), q.lhs)
        pinned = evaluate(restrict(state, rec.support_cache.roles))
        assert members <= eval_expr(pinned, q.rhs)
        done += 1
    assert done >= 60, f"generator starved: only {done} runs"


def test_credential_triggers_are_a_subset_of_role_triggers():
    rng = random.Random(703)
    done = 0
    for _ in range(20000):
        if done >= 60:
            break
        p = random_state(rng)
        q = biased_satisfied_constraint(rng, p)
        role_rec = register(p, q, FullTrust())
        cred_rec = register(p, q, FullTrustCredential())
        if (
            role_rec.status is not RecordStatus.HOLDING
            or cred_rec.status is not RecordStatus.HOLDING
        ):
            continue
        for victim in sorted(p.statements, key=str):
            ev = ChangeEvent(ChangeKind.REMOVE, victim)
            if classify(cred_rec, ev) is Classification.TRIGGERING:
                assert classify(role_rec, ev) is Classification.TRIGGERING
        done += 1
    assert done >= 60, f"generator starved: only {done} holding pairs"


def test_warning_violators_match_the_post_state():
    from randgen import random_constraint

    rng = random.Random(704)
    done = 0
    for _ in range(20000):
        if done >= 40:
            break
        p = random_state(rng)
        q = random_constraint(rng, p)
        rec = register(p, q, FullTrust())
        if rec.status is not RecordStatus.HOLDING:
            continue
        ev = ChangeEvent(
            ChangeKind.ADD, random_statement_for_state(rng, p, fresh_principal="E")
        )
        got = apply_change(rec, p, ev)
        if got.warning is None or got.warning.outcome is not WarningOutcome.NOW_VIOLATED:
            continue
        exact = check_constraint(got.new_state, q)
        assert got.warning.violators == exact.violators
        assert got.warning.violators
        done += 1
    assert done >= 40, f"generator starved: only {done} violating cases"


@pytest.fixture
def evaluations(monkeypatch):
    return count_calls(monkeypatch, rtmon.engine.evaluate)


@pytest.mark.parametrize("mode", [FullTrust(), FullTrustCredential()], ids=["role", "credential"])
def test_full_trust_register_evaluates_once(evaluations, mode):
    p = hazmat_policy()
    rec = register(p, hazmat_constraint(), mode)
    assert rec.status is RecordStatus.HOLDING
    assert evaluations == [p]
    # The principals x role names cross product is never built.
    assert "roles" not in vars(p)


def test_restricted_register_bounds_once_and_cores_once(monkeypatch):
    monitor = RoleMonitor(
        growth_trusted=hazmat_policy().roles, shrink_trusted=frozenset({role("ATF.hazmatDB")})
    )
    upper = count_calls(monkeypatch, rtmon.analysis.upper_bound)
    cores = count_calls(monkeypatch, rtmon.analysis.core)
    p = hazmat_policy()
    rec = register(p, hazmat_constraint(), RestrictedTrust(monitor))
    assert rec.status is RecordStatus.HOLDING
    assert upper == [p]
    assert cores == [p]
    # The principals x role names cross product is never built.
    assert "roles" not in vars(p)


def test_session_keeps_the_initial_records():
    p = hazmat_policy()
    q = hazmat_constraint()
    log = [ChangeEvent(ChangeKind.ADD, stmt(text)) for text in (HAZMAT_ADD_9, HAZMAT_ADD_10)]
    session = run_session(p, [(q, FullTrust())], log)
    assert session.initial == (register(p, q, FullTrust()),)
    assert session.records[0].status is RecordStatus.VIOLATED


def test_session_steps_each_record_like_apply_change():
    # run_session and apply_change share one event step, no-ops included.
    rng = random.Random(703)
    modes = [
        lambda p: FullTrust(),
        lambda p: FullTrustCredential(),
        lambda p: RestrictedTrust(random_monitor(rng, p, 0.85, 0.85)),
    ]
    noops = 0
    for n in range(90):
        p = random_state(rng)
        regs = [(biased_satisfied_constraint(rng, p, f"q{i}"), modes[n % 3](p)) for i in range(2)]
        log = []
        state = p
        for _ in range(6):
            if rng.random() < 0.5 or not state.statements:
                ev = ChangeEvent(ChangeKind.ADD, random_statement_for_state(rng, state, "E"))
            else:
                ev = ChangeEvent(ChangeKind.REMOVE, rng.choice(sorted(state.statements, key=str)))
            log.append(ev)
            if rng.random() < 0.3:
                log.append(ev)  # the same event again is a no-op
                noops += 1
            if ev.kind is ChangeKind.ADD:
                state = state.add(ev.statement)
            else:
                state = state.remove(ev.statement)
        session = run_session(p, regs, log)
        records = [register(p, q, mode) for q, mode in regs]
        warnings = []
        state = p
        for ev in log:
            for i, rec in enumerate(records):
                got = apply_change(rec, state, ev)
                if got.warning is not None:
                    warnings.append(got.warning)
                records[i] = got.record
            state = got.new_state
        assert session.final_state == state
        assert session.warnings == tuple(warnings)
        assert session.records == tuple(records)
    assert noops >= 50
