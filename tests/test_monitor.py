import copy
import dataclasses
import gc
import random
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest

import rtmon.analysis
import rtmon.deps
import rtmon.engine
import rtmon.model
import rtmon.monitor
from rtmon.deps import (
    DEFAULT_SUPPORT_CAP,
    credential_support_for_constraint,
    justified_semantics,
    support_for_constraint,
)
from rtmon.engine import check_constraint, eval_expr, evaluate
from rtmon.model import (
    EVERY_ROLE,
    TOP,
    ChangeEvent,
    ChangeKind,
    Constraint,
    IntersectionExpr,
    IntersectionInclusion,
    PolicyState,
    Role,
    RoleMonitor,
    RoleName,
    RoleRef,
    SimpleMember,
    Statement,
    UnionExpr,
    roles_of,
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
from rtmon.analysis import check_bounded_containment

from helpers import (
    HAZMAT_ADD_10,
    HAZMAT_ADD_9,
    HAZMAT_POLICY_TEXT,
    count_calls,
    count_index_builds,
    count_saturations,
    count_snapshots,
    patch_everywhere,
    hazmat_constraint,
    hazmat_policy,
    hazmat_policy_extended,
    index_texts,
    names,
    prin,
    redundant_support_policy,
    role,
    role_strs,
    stmt,
    support_shift_constraint,
    support_shift_policy,
)
from rtmon.parser import parse_changelog, parse_constraint, parse_constraints, parse_policy
from oracles import expand_wildcards, reference_step, restrict
from randgen import (
    biased_satisfied_constraint,
    random_constraint,
    random_expr,
    random_fan_state,
    random_monitor,
    random_state,
    random_statement_for_state,
    random_untrusted_link_monitor,
)


def add(s):
    return ChangeEvent(ChangeKind.ADD, stmt(s))


def remove(s):
    return ChangeEvent(ChangeKind.REMOVE, stmt(s))


def _hazmat_wildcard_mode():
    """Restricted trust as ``hazmat.mon`` declares it: ``*`` grows, only the
    database shrinks."""
    monitor = RoleMonitor(EVERY_ROLE, frozenset({role("ATF.hazmatDB")}))
    return RestrictedTrust(monitor)


class TestRegister:
    def test_full_trust_holding_caches_both_frontiers(self):
        rec = register(hazmat_policy(), hazmat_constraint(), FullTrust())
        assert rec.status is RecordStatus.HOLDING
        assert role_strs(rec.gamma_cache) == {
            "Emergency.hazmatPersonnel",
            "Emergency.responsePersonnel",
            "ATF.hazmatTraining",
            "Emergency.dept",
            "Fire.responsePersonnel",
            "Police.responsePersonnel",
        }
        assert role_strs(rec.support_cache) == set()  # lhs is empty here

    def test_violated_registration(self):
        rec = register(hazmat_policy_extended(), hazmat_constraint(), FullTrust())
        assert rec.status is RecordStatus.VIOLATED
        assert names(rec.violators) == {"Burke"}
        assert rec.gamma_cache is None and rec.support_cache is None

    def test_restricted_with_wildcard_growth_holds(self):
        p = hazmat_policy()
        mode = _hazmat_wildcard_mode()
        rec = register(p, hazmat_constraint(), mode)
        assert rec.status is RecordStatus.HOLDING
        assert rec.mode == mode
        assert rec.gamma_total
        # empty upper bound on the left side means nothing needs support
        assert rec.support_cache == frozenset()

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
        # With nothing shrink-trusted the right side's lower bound is empty,
        # so the left side's member E is a witness: the bound check fails
        # before any support is sought.
        p = support_shift_policy()
        mode = RestrictedTrust(RoleMonitor(growth_trusted=EVERY_ROLE))
        rec = register(p, support_shift_constraint(), mode)
        assert rec.status is RecordStatus.BOUND_VIOLATED
        assert names(rec.violators) == {"E"}


class TestClassify:
    def test_add_inside_gamma_triggers(self):
        rec = register(hazmat_policy(), hazmat_constraint(), FullTrust())
        assert classify(rec, add(HAZMAT_ADD_9)) is True

    def test_remove_outside_support_is_ignorable(self):
        p = hazmat_policy_extended()
        rec = register(p, hazmat_constraint(), FullTrust())
        assert rec.status is RecordStatus.VIOLATED
        # drop (10) to get back to a holding state, then classify
        p2 = p.remove(stmt(HAZMAT_ADD_10))
        rec = register(p2, hazmat_constraint(), FullTrust())
        assert rec.status is RecordStatus.HOLDING
        assert classify(rec, remove(HAZMAT_ADD_9)) is False

    def test_add_outside_gamma_is_ignorable(self):
        rec = register(hazmat_policy(), hazmat_constraint(), FullTrust())
        assert classify(rec, add("Navy.fleet <- Kim")) is False

    def test_credential_mode_tracks_statements_not_heads(self):
        p = redundant_support_policy()
        q = parse_constraint("constraint q owner A: {F} <= A.r")
        rec = register(p, q, FullTrustCredential())
        assert rec.status is RecordStatus.HOLDING
        chosen = rec.support_cache
        inside = sorted(chosen, key=str)[0]
        assert classify(rec, ChangeEvent(ChangeKind.REMOVE, inside)) is True
        outside = stmt("C.r <- F") if stmt("B.r <- F") in chosen else stmt("B.r <- F")
        assert classify(rec, ChangeEvent(ChangeKind.REMOVE, outside)) is False

    def test_non_holding_record_is_reached_by_every_event(self):
        rec = register(hazmat_policy_extended(), hazmat_constraint(), FullTrust())
        assert rec.status is RecordStatus.VIOLATED
        # Events that a holding record of this constraint ignores.
        assert classify(rec, add("Navy.fleet <- Kim")) is True
        assert classify(rec, remove(HAZMAT_ADD_9)) is True


class TestReferenceStep:
    def test_growth_side_add_still_holds(self):
        p = hazmat_policy()
        rec = register(p, hazmat_constraint(), FullTrust())
        _, warning, record = reference_step(rec, p, add(HAZMAT_ADD_9))
        assert warning is not None
        assert warning.cause is WarningCause.GROWTH_SIDE_ADD
        assert warning.outcome is WarningOutcome.STILL_HOLDS
        assert warning.recomputed
        assert record.status is RecordStatus.HOLDING

    def test_second_add_violates(self):
        p = hazmat_policy()
        rec = register(p, hazmat_constraint(), FullTrust())
        state1, _, record1 = reference_step(rec, p, add(HAZMAT_ADD_9))
        _, warning, record = reference_step(record1, state1, add(HAZMAT_ADD_10))
        assert warning.outcome is WarningOutcome.NOW_VIOLATED
        assert names(warning.violators) == {"Burke"}
        assert record.status is RecordStatus.VIOLATED

    def test_support_side_remove_recomputes_sigma(self):
        p = redundant_support_policy()
        q = parse_constraint("constraint q owner A: {F} <= A.r")
        rec = register(p, q, FullTrust())
        assert role_strs(rec.support_cache) == {"A.r", "B.r"}
        _, warning, record = reference_step(rec, p, remove("B.r <- F"))
        assert warning.cause is WarningCause.SUPPORT_SIDE_REMOVE
        assert warning.outcome is WarningOutcome.STILL_HOLDS
        assert role_strs(record.support_cache) == {"A.r", "C.r"}

    def test_noop_events_are_silent_for_holding_records(self):
        p = hazmat_policy()
        rec = register(p, hazmat_constraint(), FullTrust())
        # adding an existing statement, even one whose head is in gamma
        state, warning, record = reference_step(rec, p, add("ATF.hazmatTraining <- Burke"))
        assert warning is None
        assert state == p
        assert record is rec
        _, warning, _ = reference_step(rec, p, remove("Navy.fleet <- Kim"))
        assert warning is None

    def test_violated_records_recheck_every_event(self):
        p = hazmat_policy_extended()
        rec = register(p, hazmat_constraint(), FullTrust())
        _, warning, record = reference_step(rec, p, remove(HAZMAT_ADD_10))
        assert warning.cause is WarningCause.RECHECK
        assert warning.outcome is WarningOutcome.STILL_HOLDS
        assert record.status is RecordStatus.HOLDING


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
        assert role_strs(session.records[0].support_cache) == {"B.r", "C.r", "D.r"}


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
            state, warning, record = reference_step(rec, state, ev)
            assert warning is None
            assert record is rec
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
            state = reference_step(rec, state, ev)[0]
            applied += 1
        if applied == 0:
            continue
        fresh = register(state, q, FullTrust())
        assert fresh.status is RecordStatus.HOLDING
        assert fresh.gamma_cache <= rec.gamma_cache
        # the cached support still proves every current lhs member
        members = eval_expr(evaluate(state), q.lhs)
        pinned = evaluate(restrict(state, rec.support_cache))
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
            if classify(cred_rec, ev):
                assert classify(role_rec, ev)
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
        state, warning, _ = reference_step(rec, p, ev)
        if warning is None or warning.outcome is not WarningOutcome.NOW_VIOLATED:
            continue
        exact = check_constraint(state, q)
        assert warning.violators == exact.violators
        assert warning.violators
        done += 1
    assert done >= 40, f"generator starved: only {done} violating cases"


def _saturated_statements(monkeypatch) -> list:
    """The statements evaluated by each ``_saturate`` call, in call order:
    those of its index heading a role of the cone it returned, or all
    of them when it had no roots."""
    seen = []
    real = rtmon.engine._saturate

    def spy(index, roots=None, held=None):
        got = real(index, roots, held)
        given = frozenset().union(*index.values())
        if got.cone is not None:
            given = frozenset(s for s in given if s.head in got.cone)
        seen.append(given)
        return got

    for name, mod in list(sys.modules.items()):
        if name == "rtmon" or name.startswith("rtmon."):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, spy)
    return seen


def _cone_statements(p, constraints) -> frozenset:
    """The statements heading a role of the constraints' cone, found on the
    whole state."""
    roots = frozenset().union(*(roles_of(q.lhs) | roles_of(q.rhs) for q in constraints))
    cone = rtmon.deps._growth_roles(p._index, roots, evaluate(p).members)
    return frozenset(s for s in p.statements if s.head in cone)


# Outside the cone of the hazmat constraint and of the multi constraints:
# nothing they read reads Guest.pass.
_GUESTS = "Guest.pass <- ATF.hazmatDB\nGuest.pass <- Org.badge\nGuest.pass <- Dan\n"


@pytest.mark.parametrize("mode", [FullTrust(), FullTrustCredential()], ids=["role", "credential"])
def test_full_trust_register_evaluates_once(monkeypatch, mode):
    p = parse_policy(HAZMAT_POLICY_TEXT + _GUESTS)
    q = hazmat_constraint()
    cone = _cone_statements(p, [q])
    cones = count_calls(monkeypatch, rtmon.engine.evaluate)
    indexed = _saturated_statements(monkeypatch)
    rec = register(p, q, mode)
    assert rec.status is RecordStatus.HOLDING
    # One cone evaluation.  It walks Emergency.dept to Fire and Police as
    # it goes, and evaluates only the statements heading cone roles.
    assert cones == [p]
    assert indexed == [cone]
    assert not any(s.head == role("Guest.pass") for s in indexed[0])
    # The principals x role names cross product is never built.
    assert "roles" not in vars(p)


# 10^4 statements of every body form that head no role of the hazmat
# constraint's cone; some read cone roles, and some link through principals
# the cone holds.
_NOISE = "".join(
    f"N{i}.r <- N{i + 1}.r\nN{i}.s <- ATF.hazmatDB & N{i}.r\n"
    f"N{i}.t <- N{i}.r.responsePersonnel\nN{i}.r <- Police\n"
    for i in range(2500)
)


def test_unrelated_statements_leave_the_evaluated_statements_unchanged(monkeypatch):
    small = hazmat_policy()
    big = parse_policy(HAZMAT_POLICY_TEXT + _NOISE)
    assert len(big.statements) == len(small.statements) + 10**4
    q = hazmat_constraint()
    indexed = _saturated_statements(monkeypatch)
    for mode in (FullTrust(), FullTrustCredential()):
        # Fresh copies: a state keeps the cone it evaluated.
        want = register(copy.copy(small), q, mode)
        evaluated = list(indexed)
        del indexed[:]
        assert register(copy.copy(big), q, mode) == want
        assert indexed == evaluated
        assert evaluated == [small.statements]
        del indexed[:]


@pytest.mark.parametrize("mode", [FullTrust(), FullTrustCredential()], ids=["role", "credential"])
def test_full_trust_register_indexes_the_rules_of_cone_statements_only(monkeypatch, mode):
    p = parse_policy(HAZMAT_POLICY_TEXT + _NOISE)
    q = hazmat_constraint()
    cone = _cone_statements(p, [q])
    indexed = []
    real = rtmon.engine._reads

    def spy(stmt, walk=None):
        # The evaluator reads a rule's inputs, with no walk, to index it.
        if walk is None:
            indexed.append(stmt)
        return real(stmt, walk)

    monkeypatch.setattr(rtmon.engine, "_reads", spy)
    rec = register(p, q, mode)
    assert rec.status is RecordStatus.HOLDING
    # Each rule heading a cone role is indexed by the roles it reads once,
    # and no other rule is: the index that finds the cone reads none.
    rules = [s for s in cone if not isinstance(s.body, SimpleMember)]
    assert sorted(indexed, key=str) == sorted(rules, key=str)


def test_restricted_register_bounds_once_and_cores_once(monkeypatch):
    monitor = RoleMonitor(
        growth_trusted=hazmat_policy().roles, shrink_trusted=frozenset({role("ATF.hazmatDB")})
    )
    saturations = count_saturations(monkeypatch)
    cores = count_calls(monkeypatch, rtmon.analysis.CoreSet)
    p = hazmat_policy()
    rec = register(p, hazmat_constraint(), RestrictedTrust(monitor))
    assert rec.status is RecordStatus.HOLDING
    # One lower and one upper bound, and one core read off the upper bound.
    assert sorted(kind for kind, _ in saturations) == ["lower", "upper"]
    assert len(cores) == 1
    # The principals x role names cross product is never built.
    assert "roles" not in vars(p)


def test_each_state_builds_one_by_head_map(monkeypatch):
    monitor = RoleMonitor(
        growth_trusted=hazmat_policy().roles, shrink_trusted=frozenset({role("ATF.hazmatDB")})
    )
    q = hazmat_constraint()
    built = count_index_builds(monkeypatch)
    saturations = count_calls(monkeypatch, rtmon.engine._saturate)
    p = hazmat_policy()
    assert register(p, q, RestrictedTrust(monitor)).status is RecordStatus.HOLDING
    # One index: both bound evaluations, the restricted growth walk and the
    # support worklist read it, and the core is read off the upper bound.
    assert len(built) == 1 and built[0] is p
    assert len(saturations) == 2
    assert all(index is p._index for index in saturations)
    fresh = hazmat_policy()
    assert register(fresh, q, FullTrust()).status is RecordStatus.HOLDING
    assert len(built) == 2 and built[1] is fresh
    # Registering again on a state reads the index it holds.
    for state, mode in ((p, RestrictedTrust(monitor)), (fresh, FullTrust()), (p, FullTrust())):
        register(state, q, mode)
    assert len(built) == 2


def test_session_keeps_the_initial_records():
    p = hazmat_policy()
    q = hazmat_constraint()
    log = [ChangeEvent(ChangeKind.ADD, stmt(text)) for text in (HAZMAT_ADD_9, HAZMAT_ADD_10)]
    session = run_session(p, [(q, FullTrust())], log)
    assert session.initial == (register(p, q, FullTrust()),)
    assert session.records[0].status is RecordStatus.VIOLATED


def _random_log(rng, p, n_events, repeat=0.3):
    """``n_events`` random changes to ``p``, each repeated (a no-op) with
    probability ``repeat``; also returns the number of repeats."""
    log, state, noops = [], p, 0
    for _ in range(n_events):
        if rng.random() < 0.5 or not state.statements:
            ev = ChangeEvent(ChangeKind.ADD, random_statement_for_state(rng, state, "E"))
        else:
            ev = ChangeEvent(ChangeKind.REMOVE, rng.choice(sorted(state.statements, key=str)))
        log.append(ev)
        if rng.random() < repeat:
            log.append(ev)
            noops += 1
        state = state.add(ev.statement) if ev.kind is ChangeKind.ADD else state.remove(ev.statement)
    return log, noops


def _routed(index, ev):
    """The records the index's tables route ``ev`` to when it changes the
    live statements: those in ``every``, and those watching a key of the
    event in the table of its kind (the head of an addition; the head and
    the statement of a removal)."""
    stmt = ev.statement
    if ev.kind is ChangeKind.ADD:
        table, keys = index.added, (stmt.head,)
    else:
        table, keys = index.removed, (stmt.head, stmt)
    return set(index.every).union(*(table.get(key, ()) for key in keys))


def _assert_index_agrees(index, records, ev):
    """Every record the index's tables route ``ev`` to is one ``classify``
    calls triggering, or one without a frontier, and no other; and the
    tables, however often ``put`` replaced a record, are those of an index
    built afresh from the records, so no key is left watched by none."""
    routed = _routed(index, ev)
    for i, rec in enumerate(records):
        blind = rec.status is not RecordStatus.HOLDING or (
            isinstance(rec.mode, RestrictedTrust) and not rec.gamma_total
        )
        assert (i in index.every) == blind
        reached = classify(rec, ev)
        assert (i in routed) == reached
        assert reached or not blind
    fresh = rtmon.monitor._FrontierIndex(records)
    assert (index.added, index.removed, index.every) == (fresh.added, fresh.removed, fresh.every)


def test_session_steps_each_record_like_reference_step():
    # 300 seeded sessions of 5-6 constraints over 20+ events in mixed modes:
    # the session's routed replay equals stepping every record through
    # reference_step, and the frontier index routes exactly what classify
    # calls triggering, after every record replacement.
    rng = random.Random(705)
    modes = [
        lambda p: FullTrust(),
        lambda p: FullTrustCredential(),
        lambda p: RestrictedTrust(random_monitor(rng, p, 0.85, 0.6)),
        lambda p: RestrictedTrust(random_untrusted_link_monitor(rng, p, 0.85, 0.85)),
    ]
    moves: Counter = Counter()
    noops = blind = 0
    for n in range(300):
        p = random_state(rng)
        regs = []
        for i in range(5 + n % 2):
            make = biased_satisfied_constraint if rng.random() < 0.6 else random_constraint
            regs.append((make(rng, p, f"q{i}"), modes[(n + i) % 4](p)))
        log, repeats = _random_log(rng, p, 20)
        noops += repeats
        session = run_session(p, regs, log)

        records = [register(p, q, mode) for q, mode in regs]
        index = rtmon.monitor._FrontierIndex(records)
        warnings = []
        state = p
        for ev in log:
            _assert_index_agrees(index, records, ev)
            for i, rec in enumerate(records):
                new_state, warning, record = reference_step(rec, state, ev)
                if warning is not None:
                    warnings.append(warning)
                moves[rec.status, record.status] += 1
                blind += rec.status is RecordStatus.HOLDING and not rec.gamma_total
                if record is not rec:
                    index.put(i, record, rec)
                records[i] = record
            state = new_state
        assert session.final_state == state
        assert session.warnings == tuple(warnings)
        assert session.records == tuple(records)
    assert noops >= 1000
    assert blind >= 100
    for status in (RecordStatus.VIOLATED, RecordStatus.BOUND_VIOLATED):
        assert moves[RecordStatus.HOLDING, status] >= 20
        assert moves[status, RecordStatus.HOLDING] >= 20


def test_index_routes_what_classify_triggers_on_random_states():
    rng = random.Random(706)
    modes = [
        lambda p: FullTrust(),
        lambda p: FullTrustCredential(),
        lambda p: RestrictedTrust(random_untrusted_link_monitor(rng, p, 0.85, 0.85)),
    ]
    checked = 0
    for n in range(200):
        p = random_state(rng)
        records = [
            register(p, biased_satisfied_constraint(rng, p, f"q{i}"), modes[i % 3](p))
            for i in range(6)
        ]
        index = rtmon.monitor._FrontierIndex(records)
        events = [ChangeEvent(ChangeKind.REMOVE, s) for s in sorted(p.statements, key=str)]
        events += [
            ChangeEvent(ChangeKind.ADD, random_statement_for_state(rng, p, "E")) for _ in range(8)
        ]
        for ev in events:
            _assert_index_agrees(index, records, ev)
            checked += 1
    assert checked >= 2000


def _big_policy():
    """The hazmat policy beside 10^4 statements no constraint reads."""
    filler = "".join(f"F{i}.r <- G{i}\n" for i in range(10_000))
    return parse_policy(HAZMAT_POLICY_TEXT + filler)


def _hazmat_registrations(k):
    """``k`` copies of the hazmat constraint, in the three modes in turn."""
    trusted = RoleMonitor(
        growth_trusted=hazmat_policy().roles,
        shrink_trusted=frozenset({role("ATF.hazmatDB")}),
    )
    modes = [FullTrust(), FullTrustCredential(), RestrictedTrust(trusted)]
    return [
        (
            parse_constraint(
                f"constraint c{i} owner Emergency: Emergency.hazmatPersonnel <= ATF.hazmatDB"
            ),
            modes[i % 3],
        )
        for i in range(k)
    ]


def test_quiet_events_build_no_state_and_classify_nothing(monkeypatch):
    p = _big_policy()
    assert len(p) > 10_000
    regs = _hazmat_registrations(6)
    log = []
    for i in range(0, 400, 2):
        log.append(add(f"F{i}.r <- H"))
        log.append(remove(f"F{i + 1}.r <- G{i + 1}"))
        log.append(add(f"F{i}.r <- H"))  # a no-op
        log.append(remove(f"F{i}.r <- Nobody"))  # a no-op

    built = count_calls(monkeypatch, rtmon.model._checked_state)
    constructed = []
    post_init = PolicyState.__post_init__
    monkeypatch.setattr(
        PolicyState, "__post_init__", lambda self: constructed.append(self) or post_init(self)
    )
    updates = []
    for name in ("add", "remove"):
        real = getattr(PolicyState, name)
        monkeypatch.setattr(
            PolicyState, name, lambda self, stmt, real=real: updates.append(stmt) or real(self, stmt)
        )
    classified = count_calls(monkeypatch, rtmon.monitor.classify)
    marks = []

    def counts():
        return len(built), len(constructed), len(updates), len(classified)

    def quiet_log():
        marks.append(counts())
        yield from log
        marks.append(counts())

    session = run_session(p, regs, quiet_log())
    assert all(rec.status is RecordStatus.HOLDING for rec in session.initial)
    assert marks[0] == marks[1]
    assert updates == [] and classified == []
    assert session.warnings == ()
    assert session.records == session.initial
    # The final state is the one snapshot of the session.
    assert len(built) == marks[1][0] + 1 and len(constructed) == marks[1][1]
    assert len(session.final_state) == len(p)
    assert stmt("F0.r <- H") in session.final_state
    assert stmt("F1.r <- G1") not in session.final_state


def test_a_session_classifies_no_event(monkeypatch):
    # The frontier index routes each event to the records whose frontier it
    # crosses, so nothing classifies a warned event again.
    classified = count_calls(monkeypatch, rtmon.monitor.classify)
    log = [add("Navy.fleet <- Kim"), add(HAZMAT_ADD_9), add(HAZMAT_ADD_10), remove(HAZMAT_ADD_10)]
    session = run_session(hazmat_policy(), _hazmat_registrations(3), log)
    assert {w.event for w in session.warnings} == set(log[1:])
    assert classified == []


def test_quiet_events_hash_no_principal_and_collect_no_principal_set(monkeypatch):
    """A quiet event reads statement hashes cached at parse time: neither
    the set lookups nor the ``TOP`` check of an addition reach a principal's
    hash or build a statement's principal set."""
    p = _big_policy()
    assert len(p) > 10_000
    bodies = ("H{i}", "G{i}.s", "F{i}.s.t", "G{i}.s & H{i}.t")
    text = "".join(f"+ F{i}.r <- {bodies[i % 4].format(i=i)}\n" for i in range(250))
    text += "".join(f"- F{i}.r <- {bodies[i % 4].format(i=i)}\n" for i in range(250))
    text += "".join(f"- F{i}.r <- G{i}\n+ F{i}.r <- G{i}\n" for i in range(250))
    log = parse_changelog(text)
    assert len(log) == 1000

    hashed = []
    real_hash = rtmon.model.Principal.__hash__
    monkeypatch.setattr(
        rtmon.model.Principal, "__hash__", lambda self: hashed.append(self) or real_hash(self)
    )
    collected = count_calls(monkeypatch, rtmon.model.statement_principals)
    marks = []

    def quiet_log():
        marks.append((len(hashed), len(collected)))
        yield from log
        marks.append((len(hashed), len(collected)))

    session = run_session(p, _hazmat_registrations(6), quiet_log())
    assert session.warnings == ()
    # Listing the monitor's roles reaches both counters: both spies are live.
    assert min(marks[0]) > 0
    assert marks[0] == marks[1]
    assert session.final_state == p


def test_final_state_is_the_start_state_when_nothing_changed():
    p = hazmat_policy()
    log = [add(HAZMAT_ADD_9), remove(HAZMAT_ADD_9)]
    session = run_session(p, [(hazmat_constraint(), FullTrust())], [log[1], log[1]])
    assert session.final_state is p
    session = run_session(p, [(hazmat_constraint(), FullTrust())], log)
    assert session.final_state == p


@pytest.mark.parametrize("k", [1, 3, 6])
def test_an_event_shares_one_snapshot_among_its_records(monkeypatch, k):
    p = hazmat_policy()
    snapshots = count_snapshots(monkeypatch)
    session = run_session(p, _hazmat_registrations(k), [add(HAZMAT_ADD_9), add("Navy.fleet <- Kim")])
    assert [w.constraint_id for w in session.warnings] == [f"c{i}" for i in range(k)]
    assert all(w.event == add(HAZMAT_ADD_9) for w in session.warnings)
    # One for the warned event; the final state, after a quiet change, is
    # built afresh and carries nothing.
    assert len(snapshots) == 1
    assert session.final_state is not snapshots[0]
    assert "_index" not in vars(session.final_state)


_MAKE_MODES = [
    lambda rng, p: FullTrust(),
    lambda rng, p: FullTrustCredential(),
    lambda rng, p: RestrictedTrust(random_monitor(rng, p, 0.9, 0.9)),
]


def _with_readd(rng, p, log):
    """``log`` with one statement live at a random point removed there and
    added again by the next event, an intersection written in the reverse
    order, and the position of the removal."""
    at = rng.randrange(len(log) * 2 // 3 + 1)
    live = set(p.statements)
    for ev in log[:at]:
        (live.add if ev.kind is ChangeKind.ADD else live.discard)(ev.statement)
    if not live:
        return log, None
    meets = [s for s in live if isinstance(s.body, IntersectionInclusion)]
    # Half the time an intersection, when one is live.
    again = rng.choice(sorted(meets if meets and rng.random() < 0.5 else live, key=str))
    back = again
    if isinstance(again.body, IntersectionInclusion):
        back = Statement(again.head, IntersectionInclusion(again.body.parts[::-1]))
    pair = [ChangeEvent(ChangeKind.REMOVE, again), ChangeEvent(ChangeKind.ADD, back)]
    return log[:at] + pair + log[at:], at


@pytest.mark.parametrize("make_mode", _MAKE_MODES, ids=["full", "credential", "restricted"])
def test_snapshots_carry_what_a_fresh_build_gives(monkeypatch, make_mode):
    """Every snapshot of a session carries its predecessor's index over,
    and no memo, and it equals a fresh build of its statements list for
    list, compared as texts, so an intersection added back written in
    another order is carried as last written.  The caller's starting state
    keeps its own."""
    rng = random.Random(733)
    cases = []
    for _ in range(500):
        p = random_state(rng)
        # The third constraint is often violated, so records also fail their
        # check, and a failed check reads no support.
        make = [biased_satisfied_constraint, biased_satisfied_constraint, random_constraint]
        regs = [(make[i](rng, p, f"q{i}"), make_mode(rng, p)) for i in range(3)]
        cases.append((p, regs, *_with_readd(rng, p, _random_log(rng, p, 12)[0])))
    position = [None]

    def replay(log):
        for n, ev in enumerate(log):
            position[0] = n
            yield ev
        position[0] = None

    built = count_snapshots(monkeypatch, lambda state: (state, position[0], set(vars(state))))
    snapshots, readded = 0, Counter()
    for p, regs, log, at in cases:
        index = p._index
        start = index_texts(p)
        del built[:]
        session = run_session(p, regs, replay(log))
        snapshots += len(built)
        for state, _, carried in built:
            # Every snapshot reads its index before the next is built from it.
            assert "_index" in carried and "_memo" not in carried
            assert index_texts(state) == index_texts(PolicyState(state.statements))
        assert p._index is index
        assert index_texts(p) == start == index_texts(PolicyState(p.statements))
        assert session.final_state == PolicyState(_replayed(p, log))
        # The pair fell between two snapshots when neither of its events
        # built one and a later event did.
        built_at = [n for _, n, _ in built]
        if at is not None and not {at, at + 1} & set(built_at):
            if any(n > at + 1 for n in built_at):
                readded[log[at].statement is not log[at + 1].statement] += 1
    assert snapshots >= 3000
    # Added back as the same statement, and as an intersection respelled.
    assert readded[False] >= 15 and readded[True] >= 10



def test_a_noop_addition_of_an_equal_intersection_hashes_no_role(monkeypatch):
    """An intersection keeps its part set and that set's hash from when it
    was built, so a no-op addition of an intersection parsed apart from the
    live one, and written in another order, compares the two without
    hashing a role."""
    p = parse_policy("A.r <- B.s & C.t\nB.s <- D\nC.t <- D\n")
    [ev] = parse_changelog("+ A.r <- C.t & B.s\n")
    assert ev.statement in p and all(ev.statement is not s for s in p)
    regs = [(parse_constraint("constraint q owner A: A.r <= B.s"), FullTrust())]
    hashed = []
    real_hash = Role.__hash__
    monkeypatch.setattr(Role, "__hash__", lambda self: hashed.append(self) or real_hash(self))
    marks = []

    def marked(log):
        marks.append(len(hashed))
        yield from log
        marks.append(len(hashed))

    session = run_session(p, regs, marked([ev]))
    assert session.warnings == () and session.final_state is p
    assert marks[0] == marks[1]


def test_a_restricted_session_collects_no_statement_principals(monkeypatch):
    """The upper bound holds an untrusted role at ``{TOP}``, not at the
    principals of the state, so neither the registrations against the
    starting state nor the warned events after it collect a statement's
    principals, however many statements no constraint reads."""
    log = parse_changelog(
        "+ Zed.r <- Yan\n"  # quiet, with two fresh principals
        f"+ {HAZMAT_ADD_9}\n"  # warned, still holds
        "- Zed.r <- Yan\n"  # quiet, and the last statement naming Zed and Yan
        f"+ {HAZMAT_ADD_10}\n"  # warned, the bound breaks
        "+ Zed.r <- Yan\n"  # reaches the violated record
    )
    for p in (hazmat_policy(), _big_policy()):
        regs = _hazmat_registrations(3)[2:]
        collected = count_calls(monkeypatch, rtmon.model.statement_principals)
        session = run_session(p, regs, log)
        assert [w.event for w in session.warnings] == log[1:2] + log[3:]
        assert collected == []
        monkeypatch.undo()


def test_an_intersection_added_back_in_another_order_prints_as_last_written(monkeypatch):
    """Removed and added back written in another order between two
    snapshots, an intersection is carried with its new text: in the next
    snapshot's index and in the credential supports read off it, also
    under a cap of 1."""
    p = parse_policy("A.r <- B.s & C.t\nB.s <- X\nC.t <- X\nQ.q <- X\nZ.z <- X\n")
    q = parse_constraint("constraint cz owner Z: Z.z <= Q.q")
    log = [
        add("Q.q <- Y"),
        add("Z.z <- Y"),  # warned: the first snapshot, whose support is read
        remove("A.r <- B.s & C.t"),
        add("A.r <- C.t & B.s"),
        add("Q.q <- A.r"),
        remove("Q.q <- X"),  # warned: X is now in Q.q through A.r alone
    ]
    snapshots = count_snapshots(monkeypatch)
    session = run_session(p, [(q, FullTrustCredential())], log)
    assert [w.event for w in session.warnings] == [log[1], log[5]]
    assert all(w.outcome is WarningOutcome.STILL_HOLDS for w in session.warnings)
    assert len(snapshots) == 2 and snapshots[-1] is session.final_state
    last = snapshots[-1]
    fresh = PolicyState(last.statements)
    assert index_texts(last) == index_texts(fresh)
    texts = sorted(map(str, session.records[0].support_cache))
    assert "A.r <- C.t & B.s" in texts
    assert texts == sorted(map(str, register(fresh, q, FullTrustCredential()).support_cache))
    members = {prin("X"), prin("Y")}
    for cap in (DEFAULT_SUPPORT_CAP, 1):
        supports = [
            sorted(map(str, credential_support_for_constraint(
                state, members, q.rhs, max_entries_per_member=cap
            )))
            for state in (last, fresh)
        ]
        assert supports[0] == supports[1] and "A.r <- C.t & B.s" in supports[0]


# ``A.r <- B.s & C.t`` proves X in Q.q with 4 statements, and the chain
# through W.w with 6, so every support of X in Q.q picks the intersection
# while it is live, at any cap.
_RESPELL_POLICY = """\
A.r <- B.s & C.t
B.s <- X
C.t <- X
Q.q <- A.r
Q.q <- W.w
W.w <- V.v
V.v <- U.u
U.u <- T.t
T.t <- X
Z.z <- X
"""


@pytest.mark.parametrize("through", ["remove", "session"])
@pytest.mark.parametrize(
    "back", [None, "A.r <- C.t & B.s", "A.r <- B.s & C.t"], ids=["gone", "respelled", "as-held"]
)
def test_an_intersection_removed_by_another_spelling_leaves_what_a_fresh_build_gives(
    monkeypatch, through, back
):
    """An intersection removed by a line written in another order than the
    one the state holds, and perhaps added back, by ``PolicyState.remove``
    and ``add`` or in a session: the carried index equals a fresh build, and
    the credential supports read off it print as on a fresh state, at caps 1
    and 8."""
    p = parse_policy(_RESPELL_POLICY)
    q = parse_constraint("constraint cz owner Z: Z.z <= Q.q")
    mode = FullTrustCredential()
    held = register(p, q, mode)
    assert "A.r <- B.s & C.t" in map(str, held.support_cache)
    log = [remove("A.r <- C.t & B.s")]
    if back is not None:
        # Quiet, then warned: the support moves back to the intersection.
        log += [add(back), remove("T.t <- X")]
    if through == "remove":
        state = p
        for ev in log:
            change = state.add if ev.kind is ChangeKind.ADD else state.remove
            state = change(ev.statement)
            # Something besides the statements was carried over.
            assert vars(state).keys() > {"statements"}
        record = register(state, q, mode)
    else:
        snapshots = count_snapshots(monkeypatch)
        session = run_session(p, [(q, mode)], log)
        assert [w.event for w in session.warnings] == log[::2]
        state, record = snapshots[-1], session.records[0]
        assert state is session.final_state
    fresh = PolicyState(state.statements)
    assert index_texts(state) == index_texts(fresh)
    texts = sorted(map(str, record.support_cache))
    assert texts == sorted(map(str, register(fresh, q, mode).support_cache))
    assert (back in texts) if back else not any("&" in text for text in texts)
    members = {prin("X")}
    for cap in (1, DEFAULT_SUPPORT_CAP):
        supports = [
            sorted(map(str, credential_support_for_constraint(
                at, members, q.rhs, max_entries_per_member=cap
            )))
            for at in (state, fresh)
        ]
        assert supports[0] == supports[1]
        assert (back in supports[0]) if back else "T.t <- X" in supports[0]

def _replayed(p, log):
    live = set(p.statements)
    for ev in log:
        (live.add if ev.kind is ChangeKind.ADD else live.discard)(ev.statement)
    return live


@pytest.mark.parametrize("k", [1, 4, 12])
@pytest.mark.parametrize(
    "mode",
    [FullTrust(), FullTrustCredential(), RestrictedTrust(RoleMonitor(EVERY_ROLE, EVERY_ROLE))],
    ids=["full", "credential", "restricted"],
)
def test_only_the_starting_state_builds_its_map_and_sorts_its_statements(monkeypatch, mode, k):
    """A session warning on ``k`` events builds the index once, for the
    starting state, and sorts statements only there, each list of two or
    more statements once: every snapshot carries the index over from the
    one before.  Each run of the support worklist sorts the roles it
    admits, once, and no statements."""
    builds = count_index_builds(monkeypatch)
    snapshots = count_snapshots(monkeypatch)
    orders = []
    real_order = rtmon.model._in_text_order

    def order(index):
        lists = {head: frozenset(items) for head, items in index.items() if len(items) > 1}
        orders.append((lists, tuple(builds), len(snapshots)))
        return real_order(index)

    monkeypatch.setattr(rtmon.model, "_in_text_order", order)
    sorts = []
    real_worklist = rtmon.deps._worklist

    def worklist(*args, **kwargs):
        sorts.append("run")
        return real_worklist(*args, **kwargs)

    def sort_spy(items, **kwargs):
        items = list(items)
        if items and all(isinstance(x, Statement) for x in items):
            sorts.append("statements")
        elif items and all(isinstance(x, Role) for x in items):
            sorts.append("roles")
        return sorted(items, **kwargs)

    for module in (rtmon.model, rtmon.engine, rtmon.deps, rtmon.analysis, rtmon.monitor):
        monkeypatch.setattr(module, "sorted", sort_spy, raising=False)
    patch_everywhere(monkeypatch, real_worklist, worklist)
    p = support_shift_policy()
    # ``B.r`` gains X{i} quietly; ``A.r`` then gains it and warns, and the
    # constraint still holds, so each warned event recomputes the support.
    log = []
    for i in range(k):
        log += [add(f"B.r <- X{i}"), add(f"A.r <- X{i}")]
    session = run_session(p, [(support_shift_constraint(), mode)], log)
    assert [w.event for w in session.warnings] == log[1::2]
    assert all(w.outcome is WarningOutcome.STILL_HOLDS for w in session.warnings)
    assert len(snapshots) == k
    assert len(builds) == 1 and builds[0] is p
    # The lists sorted are those of each head of ``p`` with two or more
    # statements, once, while ``p`` is the only state that built its
    # index, before any snapshot.
    heads = Counter(s.head for s in p)
    lists = {h: frozenset(s for s in p if s.head == h) for h, n in heads.items() if n > 1}
    assert lists and orders == [(lists, (p,), 0)]
    runs = sorts.count("run")
    assert runs >= k
    assert sorts == ["run", "roles"] * runs


@pytest.mark.parametrize("make_mode", _MAKE_MODES, ids=["full", "credential", "restricted"])
def test_quiet_events_free_no_snapshot(monkeypatch, make_mode):
    """Every snapshot the session builds is released during an event that
    reaches a record, or after the last event, never during a quiet one."""
    rng = random.Random(711)
    cases = []
    for _ in range(60):
        p = random_state(rng)
        regs = [
            (biased_satisfied_constraint(rng, p, f"q{i}"), make_mode(rng, p)) for i in range(3)
        ]
        cases.append((p, regs, _random_log(rng, p, 20)[0]))
    position: list = [None]  # the event being replayed, None outside the log
    reached_at: set[int] = set()
    released: list = []
    built = count_snapshots(
        monkeypatch, lambda state: weakref.finalize(state, lambda: released.append(position[0]))
    )
    real_react = rtmon.monitor._react

    def react(rec, new_state, ev, noop):
        reached_at.add(position[0])
        return real_react(rec, new_state, ev, noop)

    monkeypatch.setattr(rtmon.monitor, "_react", react)

    def replay(log):
        for n, ev in enumerate(log):
            position[0] = n
            yield ev
        position[0] = None

    def expected_snapshots(p, log):
        """One per event that reaches a record after the live statements
        changed; a final state built after a later change carries nothing
        and is not one."""
        live, stale, count = set(p.statements), False, 0
        for n, ev in enumerate(log):
            size = len(live)
            (live.add if ev.kind is ChangeKind.ADD else live.discard)(ev.statement)
            stale = stale or len(live) != size
            if stale and n in reached_at:
                count, stale = count + 1, False
        return count

    quiet_after_reached = snapshots = 0
    # A collector pass may run during any event; this pins the frees the
    # session itself makes.
    gc.disable()
    try:
        for p, regs, log in cases:
            reached_at.clear()
            released.clear()
            built.clear()
            session = run_session(p, regs, replay(log))
            quiet = set(range(len(log))) - reached_at
            assert not quiet & set(released)
            quiet_after_reached += sum(n in quiet and n - 1 in reached_at for n in range(len(log)))
            assert len(built) == expected_snapshots(p, log)
            snapshots += len(built)
            del session
            gc.collect()
            assert len(released) == len(built)
    finally:
        gc.enable()
    assert quiet_after_reached >= 100
    assert snapshots >= 350


#: The value types whose hash and equality a quiet event may call.
_VALUE_TYPES = (
    rtmon.model.Principal,
    rtmon.model.RoleName,
    rtmon.model.Role,
    rtmon.model.SimpleMember,
    rtmon.model.SimpleInclusion,
    rtmon.model.LinkingInclusion,
    rtmon.model.IntersectionInclusion,
    rtmon.model.Statement,
)


def _quiet_log(rng, p, index, n_events):
    """Seeded events that reach no record of ``index`` in any state, with
    no-op additions and removals among them, each statement parsed again
    from its text so that lookups meet equal values, not the same objects;
    also returns whether each event changes the live statements."""
    candidates, _ = _random_log(rng, p, n_events)
    candidates += [ChangeEvent(ChangeKind.ADD, s) for s in sorted(p.statements, key=str)]
    candidates += [ChangeEvent(ChangeKind.REMOVE, s) for s in sorted(p.statements, key=str)]
    rng.shuffle(candidates)
    log, changes, live = [], [], set(p.statements)
    for ev in candidates:
        if _routed(index, ev):
            continue
        ev = ChangeEvent(ev.kind, stmt(str(ev.statement)))
        if ev.kind is ChangeKind.ADD:
            changes.append(ev.statement not in live)
            live.add(ev.statement)
        else:
            changes.append(ev.statement in live)
            live.discard(ev.statement)
        log.append(ev)
    return log, changes


@pytest.mark.parametrize(
    "make_mode",
    [
        lambda rng, p: FullTrust(),
        lambda rng, p: FullTrustCredential(),
        lambda rng, p: RestrictedTrust(random_monitor(rng, p, 1.0, 0.9)),
    ],
    ids=["full", "credential", "restricted"],
)
def test_quiet_events_call_only_value_hashes_and_the_top_check(make_mode):
    """During an event that reaches no record, the only Python-level calls
    into ``rtmon`` are the hash and equality of value types, and the ``TOP``
    check of an addition that changes the live statements: no router call.
    The live set hashes the statement once, and each frontier table probe
    hashes its key once: an addition hashes its statement once and, when it
    changes the live set, its head once; a removal that changes the live
    set hashes its head once and its statement twice.  Those are the
    hashes ``run_session`` itself calls for; an equality test may hash more
    (an intersection compares its parts as sets)."""
    rng = random.Random(713)
    position: list = [None]  # the event being replayed, None outside the log
    calls: list = []
    session_code = run_session.__code__

    def profile(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__", "").startswith("rtmon"):
            name = frame.f_code.co_name
            owner = type(frame.f_locals["self"]) if name in ("__hash__", "__eq__") else None
            direct = frame.f_back is not None and frame.f_back.f_code is session_code
            calls.append((position[0], name, owner, direct))

    def replay(log):
        for n, ev in enumerate(log):
            position[0] = n
            yield ev
        position[0] = None

    seen: Counter = Counter()
    sessions = 0
    while sessions < 40:
        p = random_state(rng)
        regs = [
            (biased_satisfied_constraint(rng, p, f"q{i}"), make_mode(rng, p)) for i in range(3)
        ]
        index = rtmon.monitor._FrontierIndex([register(p, q, mode) for q, mode in regs])
        if index.every:
            continue  # every event reaches a record without a frontier
        sessions += 1
        log, changes = _quiet_log(rng, p, index, 20)
        calls.clear()
        sys.setprofile(profile)
        try:
            session = run_session(p, regs, replay(log))
        finally:
            sys.setprofile(None)
        assert session.warnings == () and session.records == session.initial
        per_event: dict = {n: Counter() for n in range(len(log))}
        for n, name, owner, direct in calls:
            if n is not None:
                per_event[n][name, owner, direct] += 1
                assert name in ("__hash__", "__eq__", "_check_unreserved"), name
                assert owner is None or owner in _VALUE_TYPES, owner
        for n, ev in enumerate(log):
            adding = ev.kind is ChangeKind.ADD
            hashes = {
                owner: k for (name, owner, direct), k in per_event[n].items()
                if name == "__hash__" and direct
            }
            if adding:
                want = {Statement: 1, Role: 1} if changes[n] else {Statement: 1}
            else:
                want = {Statement: 2, Role: 1} if changes[n] else {Statement: 1}
            assert hashes == want, (ev, changes[n], hashes)
            assert per_event[n]["_check_unreserved", None, True] == (adding and changes[n])
            seen[ev.kind, changes[n]] += 1
            seen["__eq__"] += any(name == "__eq__" for name, _, _ in per_event[n])
    for kind in ChangeKind:
        for changed in (True, False):
            assert seen[kind, changed] >= 50, (kind, changed)
    assert seen["__eq__"] >= 100


def test_session_rejects_top_like_policy_state_add():
    p = hazmat_policy()
    bad = Statement(role("Navy.fleet"), SimpleMember(TOP))
    with pytest.raises(ValueError) as direct:
        p.add(bad)
    pulled = []

    def log():
        for ev in [add(HAZMAT_ADD_9), ChangeEvent(ChangeKind.ADD, bad), add(HAZMAT_ADD_10)]:
            pulled.append(ev)
            yield ev

    with pytest.raises(ValueError) as replayed:
        run_session(p, [(hazmat_constraint(), FullTrust())], log())
    assert str(replayed.value) == str(direct.value)
    assert len(pulled) == 2


def test_removing_an_absent_statement_that_holds_top_is_a_noop():
    p = hazmat_policy()
    bad = Statement(role("Navy.fleet"), SimpleMember(TOP))
    assert p.remove(bad) is p
    regs = _hazmat_registrations(3)
    session = run_session(p, regs, [ChangeEvent(ChangeKind.REMOVE, bad)])
    assert session.warnings == ()
    assert session.records == session.initial
    assert session.final_state is p


def _wildcard_monitor(rng, p):
    """A random monitor with ``*`` on its growth side, its shrink side, or
    both."""
    m = random_untrusted_link_monitor(rng, p, 0.85, 0.7)
    kind = rng.randrange(3)
    return RoleMonitor(
        EVERY_ROLE if kind != 1 else m.growth_trusted,
        EVERY_ROLE if kind != 0 else m.shrink_trusted,
    )


def _constraint_naming_a_fresh_role(rng, p, ident):
    """A constraint that names a role no statement of ``p`` mentions, on one
    side or both, beside the roles of a random constraint."""
    q = biased_satisfied_constraint(rng, p, ident)
    owner = sorted(p.principals)[0]
    fresh = RoleRef(rng.choice([role("Zed.q"), Role(owner, RoleName("fresh"))]))
    combine = UnionExpr if rng.random() < 0.6 else IntersectionExpr
    side = rng.randrange(3)
    lhs = combine(q.lhs, fresh) if side != 1 else q.lhs
    rhs = combine(q.rhs, fresh) if side != 0 else q.rhs
    return Constraint(q.owner, lhs, rhs, ident)


def _outcome(rec):
    return rec.status, rec.violators, rec.gamma_cache, rec.support_cache, rec.gamma_total


def test_wildcard_records_equal_the_explicit_expansion():
    # A symbolic ``*`` gives the record that expanding it to every role of
    # the state and of the constraint gives, but keeps the mode as written.
    rng = random.Random(730)
    statuses = Counter()
    fresh_named = 0
    for n in range(400):
        p = random_state(rng, max_statements=12)
        if n % 3 == 0:
            q = _constraint_naming_a_fresh_role(rng, p, f"q{n}")
            fresh_named += not (roles_of(q.lhs) | roles_of(q.rhs)) <= p.roles
        else:
            q = biased_satisfied_constraint(rng, p, f"q{n}")
        mode = RestrictedTrust(_wildcard_monitor(rng, p))
        got = register(p, q, mode)
        want = register(p, q, RestrictedTrust(expand_wildcards(p, q, mode.monitor)))
        assert got.mode == mode
        assert _outcome(got) == _outcome(want)
        statuses[got.status, got.gamma_total] += 1
    assert fresh_named >= 100
    assert statuses[RecordStatus.HOLDING, True] >= 100
    assert statuses[RecordStatus.HOLDING, False] >= 20
    assert statuses[RecordStatus.BOUND_VIOLATED, True] >= 50


def test_wildcard_trusts_a_role_the_policy_never_mentions():
    q = parse_constraint("constraint z owner Zed: Zed.q <= ATF.hazmatDB")
    mode = _hazmat_wildcard_mode()
    rec = register(hazmat_policy(), q, mode)
    assert rec.status is RecordStatus.HOLDING
    assert rec.gamma_total and role_strs(rec.gamma_cache) == {"Zed.q"}


def test_wildcard_session_covers_principals_that_appear_later():
    # EMS appears only after registration.  Under ``*`` its empty
    # responsePersonnel role is growth-trusted like every other, so the bound
    # still holds, as a fresh registration on the final state finds.
    p = hazmat_policy()
    q = hazmat_constraint()
    mode = _hazmat_wildcard_mode()
    session = run_session(p, [(q, mode)], [add("Emergency.dept <- EMS")])
    fresh = register(session.final_state, q, mode)
    assert fresh.status is RecordStatus.HOLDING
    assert session.records == (fresh,)
    assert [w.outcome for w in session.warnings] == [WarningOutcome.STILL_HOLDS]


def test_wildcard_sessions_match_a_fresh_register_at_every_step():
    # Every step's records reach the verdict a fresh registration on that
    # step's state reaches.  A record re-registered at the step equals the
    # fresh one; a holding record that ignored the event keeps its caches,
    # which stay sound but need not be the ones a fresh registration picks.
    rng = random.Random(731)
    moves: Counter = Counter()
    for n in range(100):
        p = random_state(rng)
        regs = []
        for i in range(3):
            make = _constraint_naming_a_fresh_role if i == 2 else biased_satisfied_constraint
            regs.append((make(rng, p, f"q{i}"), RestrictedTrust(_wildcard_monitor(rng, p))))
        log, _ = _random_log(rng, p, 20)
        records = [register(p, q, mode) for q, mode in regs]
        state = p
        for ev in log:
            for i, rec in enumerate(records):
                new_state, _, records[i] = reference_step(rec, state, ev)
                moves[rec.status, records[i].status] += 1
            state = new_state
            for rec, (q, mode) in zip(records, regs):
                fresh = register(state, q, mode)
                assert rec.mode == mode
                assert (rec.status, rec.violators) == (fresh.status, fresh.violators)
                if rec.status is not RecordStatus.HOLDING or not rec.gamma_total:
                    assert rec == fresh
        assert run_session(p, regs, log).records == tuple(records)
    assert moves[RecordStatus.HOLDING, RecordStatus.BOUND_VIOLATED] >= 20
    assert moves[RecordStatus.BOUND_VIOLATED, RecordStatus.HOLDING] >= 20


def test_wildcard_register_and_session_never_build_the_cross_product(monkeypatch):
    p = _big_policy()
    mode = RestrictedTrust(RoleMonitor(growth_trusted=EVERY_ROLE, shrink_trusted=EVERY_ROLE))
    snapshots = count_snapshots(monkeypatch)
    assert register(p, hazmat_constraint(), mode).status is RecordStatus.HOLDING
    log = [add("Emergency.dept <- EMS"), add(HAZMAT_ADD_9)]
    session = run_session(p, [(hazmat_constraint(), mode)], log)
    assert [w.event for w in session.warnings] == log
    # One snapshot per warned event; the second is the final state.
    assert len(snapshots) == 2 and snapshots[-1] is session.final_state
    assert all("roles" not in vars(s) for s in [p, *snapshots])


@pytest.mark.parametrize("cap", [DEFAULT_SUPPORT_CAP, 1])
def test_a_passing_check_always_has_a_support(cap):
    # Why ``register`` has no "unestablished" outcome.  Under full trust
    # every left-side member is a right-side member, and the worklist keeps
    # at least one support of every membership under any cap of 1 or more.
    # Under restricted trust the right side's lower bound is membership in
    # the state restricted to the shrink-trusted heads, the state the
    # support worklist runs on, and it covers the left side's upper bound.
    rng = random.Random(740 + cap)
    passed: Counter = Counter()
    for n in range(400):
        if n % 2:
            p = random_fan_state(rng)
            top = RoleRef(role("Top.r"))
            q = Constraint(prin("Top"), top, top if n % 4 == 1 else random_expr(rng, p), f"q{n}")
            passed["truncated"] += justified_semantics(p, max_entries_per_member=cap).truncated
        else:
            p = random_state(rng, max_statements=12)
            q = biased_satisfied_constraint(rng, p, f"q{n}")
        idx = evaluate(p)
        if check_constraint(p, q, idx).satisfied:
            members = eval_expr(idx, q.lhs)
            support_for_constraint(p, members, q.rhs, max_entries_per_member=cap)
            credential_support_for_constraint(p, members, q.rhs, max_entries_per_member=cap)
            for mode in (FullTrust(), FullTrustCredential()):
                assert register(p, q, mode).status is RecordStatus.HOLDING
            passed["full"] += 1
        monitor = _wildcard_monitor(rng, p) if n % 3 == 0 else random_monitor(rng, p, 0.8, 0.8)
        chk = check_bounded_containment(p, monitor, q)
        if chk.holds:
            support_for_constraint(
                p, chk.lhs_upper, q.rhs, admissible=monitor.shrink_trusted,
                max_entries_per_member=cap,
            )
            assert register(p, q, RestrictedTrust(monitor)).status is RecordStatus.HOLDING
            passed["restricted"] += 1
    assert passed["full"] >= 200 and passed["restricted"] >= 100
    if cap == 1:
        assert passed["truncated"] >= 50


MULTI_FIXTURES = Path(__file__).parent / "fixtures"


def _multi_policy():
    return parse_policy((MULTI_FIXTURES / "multi.rt").read_text())


def _multi_constraints():
    return parse_constraints((MULTI_FIXTURES / "multi.cst").read_text())


def _holding_multi_constraints():
    """Four constraints that all hold on the multi-constraint fixture."""
    held = [q for q in _multi_constraints() if q.id != "c4"]
    held.append(parse_constraint("constraint c5 owner Org: Org.cleared <= Org.vpn"))
    return held


def test_full_trust_registrations_evaluate_their_own_cones_and_share_one_worklist(monkeypatch):
    p = parse_policy((MULTI_FIXTURES / "multi.rt").read_text() + _GUESTS)
    held = _holding_multi_constraints()
    own = [_cone_statements(p, [q]) for q in held]
    # Which registration, if any, each cone evaluation runs inside.
    registering: list = [None]
    cones = []
    real_register, real_evaluate = rtmon.monitor.register, rtmon.engine.evaluate

    def register_spy(state, q, *args):
        registering.append(q.id)
        try:
            return real_register(state, q, *args)
        finally:
            registering.pop()

    def evaluate_spy(state, *args):
        cones.append((state, registering[-1]))
        return real_evaluate(state, *args)

    patch_everywhere(monkeypatch, real_register, register_spy)
    patch_everywhere(monkeypatch, real_evaluate, evaluate_spy)
    indexed = _saturated_statements(monkeypatch)
    worklists = count_calls(monkeypatch, rtmon.deps._worklist)
    session = run_session(p, [(q, FullTrust()) for q in held], [])
    assert [rec.status for rec in session.initial] == [RecordStatus.HOLDING] * 4
    # The four constraints' roles differ: each registration evaluates its
    # own cone, and all share one worklist over the whole state.  Together
    # the cones take in Sales.member and Labs.member once Org.dept's
    # members name them.
    assert cones == [(p, q.id) for q in held]
    assert worklists == [p]
    assert indexed == own
    assert frozenset().union(*own) == p.statements - parse_policy(_GUESTS).statements


def test_a_shrink_trusted_star_record_shares_the_full_trust_worklist(monkeypatch):
    # Every head of a legal state lies in ``*``, so a restricted record
    # that trusts every role's shrinkage picks its support from the run a
    # full-trust record on the same state made, and picks the same one.
    p = _multi_policy()
    q = parse_constraint("constraint c5 owner Org: Org.cleared <= Org.vpn")
    worklists = count_calls(monkeypatch, rtmon.deps._worklist)
    plain = register(p, q, FullTrust())
    star = register(p, q, RestrictedTrust(RoleMonitor(EVERY_ROLE, EVERY_ROLE)))
    assert plain.status is star.status is RecordStatus.HOLDING
    assert star.support_cache == plain.support_cache
    assert worklists == [p]


@pytest.mark.parametrize("mode", [FullTrust(), FullTrustCredential()], ids=["role", "credential"])
def test_constraints_with_equal_roles_share_one_cone_evaluation(monkeypatch, mode):
    same = [
        parse_constraint("constraint a owner Org: Org.staff <= Org.badge"),
        parse_constraint("constraint b owner Org: Org.badge & Org.staff <= Org.staff | Org.badge"),
    ]
    other = parse_constraint("constraint c owner Org: Org.cleared <= Org.badge")
    evaluations = count_calls(monkeypatch, rtmon.engine.evaluate)
    p = _multi_policy()
    for q in same:
        register(p, q, mode)
    assert len(evaluations) == 1 and evaluations[0] is p
    fresh = _multi_policy()
    for q in (same[0], other):
        register(fresh, q, mode)
    assert len(evaluations) == 3 and evaluations[1] is evaluations[2] is fresh


def test_restricted_registrations_under_one_monitor_share_bounds_and_core(monkeypatch):
    p = _multi_policy()
    monitor = RoleMonitor(
        growth_trusted=EVERY_ROLE,
        shrink_trusted=frozenset({role("Org.badge"), role("Sec.vetted")}),
    )
    saturations = count_saturations(monkeypatch)
    cores = count_calls(monkeypatch, rtmon.analysis.CoreSet)
    worklists = count_calls(monkeypatch, rtmon.deps._worklist)
    regs = [(q, RestrictedTrust(monitor)) for q in _multi_constraints()[:2]]
    session = run_session(p, regs, [])
    assert [rec.status for rec in session.initial] == [RecordStatus.HOLDING] * 2
    assert sorted(kind for kind, _ in saturations) == ["lower", "upper"]
    assert all(index is p._index for _, index in saturations)
    assert len(cores) == 1
    assert len(worklists) == 1


def _shared_modes(rng, p):
    """Modes for one state's constraints: two restricted ones share a
    monitor, a third has its own, and the rest are full trust."""
    shared = RestrictedTrust(random_monitor(rng, p, 0.85, 0.6))
    own = RestrictedTrust(random_untrusted_link_monitor(rng, p, 0.85, 0.85))
    return [FullTrust(), shared, FullTrustCredential(), shared, own, FullTrust()]


def _support_reads(p, q, mode, cap):
    """The supports of ``q`` that registering it under ``mode`` picks from,
    read of ``p`` at ``cap``; ``None`` when its check fails."""
    if isinstance(mode, RestrictedTrust):
        chk = check_bounded_containment(p, mode.monitor, q)
        if not chk.holds:
            return None
        return support_for_constraint(
            p, chk.lhs_upper, q.rhs, mode.monitor.shrink_trusted, max_entries_per_member=cap
        )
    idx = evaluate(p)
    if not check_constraint(p, q, idx).satisfied:
        return None
    members = eval_expr(idx, q.lhs)
    return (
        support_for_constraint(p, members, q.rhs, max_entries_per_member=cap),
        credential_support_for_constraint(p, members, q.rhs, max_entries_per_member=cap),
    )


@pytest.mark.parametrize("cap", [DEFAULT_SUPPORT_CAP, 1])
def test_batch_registration_equals_registration_on_a_fresh_copy(cap):
    # Records registered as one batch on a state, which keeps what they
    # share, equal records registered alone on a fresh copy of it.  Supports
    # read of the state at ``cap`` before the batch (at the default cap the
    # batch reuses them, at 1 it must not) and after it equal those read of
    # a fresh copy.
    rng = random.Random(750 + cap)
    seen: Counter = Counter()
    for n in range(240):
        if n % 3 == 2:
            p = random_fan_state(rng)
            top = RoleRef(role("Top.r"))
            make = lambda i: Constraint(prin("Top"), top, random_expr(rng, p), f"q{i}")  # noqa: E731
            seen["truncated"] += justified_semantics(
                copy.copy(p), max_entries_per_member=cap
            ).truncated
        else:
            p = random_state(rng)
            make = lambda i: (  # noqa: E731
                biased_satisfied_constraint if rng.random() < 0.6 else random_constraint
            )(rng, p, f"q{i}")
        modes = _shared_modes(rng, p)
        queries = [make(i) for i in range(len(modes))]
        before = [_support_reads(p, q, mode, cap) for q, mode in zip(queries, modes)]
        batch = [register(p, q, mode) for q, mode in zip(queries, modes)]
        for q, mode, got, read in zip(queries, modes, batch, before):
            assert got == register(copy.copy(p), q, mode)
            assert read == _support_reads(p, q, mode, cap)
            assert read == _support_reads(copy.copy(p), q, mode, cap)
            seen[got.status] += 1
    assert seen[RecordStatus.HOLDING] >= 500
    assert seen[RecordStatus.VIOLATED] >= 50 and seen[RecordStatus.BOUND_VIOLATED] >= 50
    if cap == 1:
        assert seen["truncated"] >= 30


_MULTI_MODES = [
    FullTrust(),
    FullTrustCredential(),
    RestrictedTrust(
        RoleMonitor(
            growth_trusted=EVERY_ROLE,
            shrink_trusted=frozenset(
                {role("Org.badge"), role("Sec.vetted"), role("Org.staff")}
            ),
        )
    ),
]


def _reference_replay(p, regs, log):
    """The warnings, final records and final state of stepping every
    record through every event of ``log`` by :func:`reference_step`."""
    records = [register(p, q, m) for q, m in regs]
    warnings = []
    state = p
    for ev in log:
        for i, rec in enumerate(records):
            new_state, warning, records[i] = reference_step(rec, state, ev)
            if warning is not None:
                warnings.append(warning)
        state = new_state
    return tuple(warnings), tuple(records), state


@pytest.mark.parametrize("mode", _MULTI_MODES, ids=["role", "credential", "restricted"])
def test_an_event_reregistering_several_records_matches_reference_step(monkeypatch, mode):
    p = _multi_policy()
    regs = [(q, mode) for q in _multi_constraints()]
    log = parse_changelog((MULTI_FIXTURES / "multi.changes").read_text())
    saturations = count_saturations(monkeypatch)
    # The state and the constraint roles of every registration; the list
    # keeps the states alive, so their ids stay distinct.
    registered = []
    real_register = rtmon.monitor.register

    def register_spy(state, q, *args):
        registered.append((state, roles_of(q.lhs) | roles_of(q.rhs)))
        return real_register(state, q, *args)

    patch_everywhere(monkeypatch, real_register, register_spy)
    session = run_session(p, regs, log)
    # The initial registrations and the records each warned event
    # re-registers evaluate one cone per state they read and constraint
    # roles, or share one lower and one upper bound of that state.
    warned = {id(w.event) for w in session.warnings}
    kinds = Counter(kind for kind, _ in saturations)
    if isinstance(mode, RestrictedTrust):
        assert kinds == {"lower": 1 + len(warned), "upper": 1 + len(warned)}
    else:
        assert kinds == {"cone": len({(id(state), roots) for state, roots in registered})}
    assert max(Counter(id(w.event) for w in session.warnings).values()) >= 2

    warnings, records, state = _reference_replay(p, regs, log)
    assert session.warnings == warnings
    assert session.records == records
    assert session.final_state == state


# Each misreports one field of every warning it is given.
_WRONG_WARNINGS = {
    "recomputed": lambda w: dataclasses.replace(w, recomputed=not w.recomputed),
    "cause": lambda w: dataclasses.replace(
        w, cause=next(c for c in WarningCause if c is not w.cause)
    ),
}


@pytest.mark.parametrize("mode", _MULTI_MODES, ids=["role", "credential", "restricted"])
@pytest.mark.parametrize("field", sorted(_WRONG_WARNINGS))
def test_the_reference_replay_catches_a_wrong_reaction(monkeypatch, mode, field):
    # reference_step builds its warnings without ``_react``, so a session
    # whose ``_react`` misreports a warning differs from the reference.
    real = rtmon.monitor._react

    def wrong(*args):
        warning, fresh = real(*args)
        return (None if warning is None else _WRONG_WARNINGS[field](warning)), fresh

    p = _multi_policy()
    regs = [(q, mode) for q in _multi_constraints()]
    log = parse_changelog((MULTI_FIXTURES / "multi.changes").read_text())
    monkeypatch.setattr(rtmon.monitor, "_react", wrong)
    session = run_session(p, regs, log)
    assert session.warnings
    warnings, records, _ = _reference_replay(p, regs, log)
    assert session.records == records
    assert session.warnings != warnings
