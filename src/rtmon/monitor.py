"""Event-driven constraint monitoring.

A registered record caches the two frontiers of its constraint: the growth
set of the left side and a support of the needed right-side memberships.
While the record holds, a change is ignorable exactly when it cannot cross
either frontier -- an added statement heading a role outside the growth
set, or a removed statement outside the support -- and in that case the
constraint (or its conservative bound) provably still holds without
re-evaluation.  A crossing change triggers a full re-check and a cache
rebuild, and the owner is warned either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence, Union

from .analysis import (
    bounds,
    check_bounded_containment,
    core,
    gamma_restricted_expr,
)
from .deps import (
    CredentialSupport,
    GrowthSet,
    NoSupport,
    RoleSupport,
    credential_support_for_constraint,
    gamma_expr,
    support_for_constraint,
)
from .engine import check_constraint, eval_expr, evaluate
from .model import (
    ChangeEvent,
    ChangeKind,
    Constraint,
    PolicyState,
    Principal,
    RoleMonitor,
    roles_of,
)

__all__ = [
    "FullTrust",
    "FullTrustCredential",
    "RestrictedTrust",
    "MonitorMode",
    "RecordStatus",
    "MonitorRecord",
    "WarningCause",
    "WarningOutcome",
    "MonitorWarning",
    "Classification",
    "StaleRecord",
    "register",
    "classify",
    "ChangeResult",
    "apply_change",
    "SessionResult",
    "run_session",
]


@dataclass(frozen=True)
class FullTrust:
    """Every role reports its changes; removals tracked per support role."""


@dataclass(frozen=True)
class FullTrustCredential:
    """Every role reports its changes; removals tracked per exact statement."""


@dataclass(frozen=True)
class RestrictedTrust:
    """Only the monitor's roles report; checks run on conservative bounds."""

    monitor: RoleMonitor


MonitorMode = Union[FullTrust, FullTrustCredential, RestrictedTrust]


class RecordStatus(Enum):
    HOLDING = "holding"
    VIOLATED = "violated"
    BOUND_VIOLATED = "bound-violated"
    UNESTABLISHED = "unestablished"


class WarningCause(Enum):
    GROWTH_SIDE_ADD = "growth-side-add"
    SUPPORT_SIDE_REMOVE = "support-side-remove"
    RECHECK = "recheck"


class WarningOutcome(Enum):
    STILL_HOLDS = "still-holds"
    NOW_VIOLATED = "now-violated"
    BOUND_NOW_VIOLATED = "bound-now-violated"


class Classification(Enum):
    IGNORABLE = "ignorable"
    TRIGGERING = "triggering"


class StaleRecord(Exception):
    """Classification was asked of a record that is not currently holding."""


@dataclass(frozen=True)
class MonitorRecord:
    """Per-constraint monitoring state.

    While ``status`` is HOLDING the caches are valid for the current policy
    state: ignorable changes leave them correct without recomputation.
    ``gamma_total`` is false only in restricted mode when some left-side
    role fell outside the trusted core; additions are then never ignorable
    because no observable growth frontier exists for that role.
    """

    constraint: Constraint
    mode: MonitorMode
    gamma_cache: Optional[GrowthSet]
    support_cache: Optional[Union[RoleSupport, CredentialSupport]]
    status: RecordStatus
    violators: frozenset[Principal] = frozenset()
    gamma_total: bool = True


@dataclass(frozen=True)
class MonitorWarning:
    constraint_id: str
    cause: WarningCause
    event: ChangeEvent
    outcome: WarningOutcome
    violators: frozenset[Principal] = frozenset()
    recomputed: bool = False
    noop: bool = False


def register(p: PolicyState, q: Constraint, mode: MonitorMode) -> MonitorRecord:
    """Check the constraint and, if it holds, build the monitoring caches.

    A missing admissible support surfaces as status UNESTABLISHED, never as
    an exception.
    """
    if isinstance(mode, RestrictedTrust):
        return _register_restricted(p, q, mode)

    idx = evaluate(p)
    result = check_constraint(p, q, idx)
    if not result.satisfied:
        return MonitorRecord(q, mode, None, None, RecordStatus.VIOLATED, result.violators)
    growth = gamma_expr(p, q.lhs, idx)
    members = eval_expr(idx, q.lhs)
    try:
        if isinstance(mode, FullTrustCredential):
            support: Union[RoleSupport, CredentialSupport] = (
                credential_support_for_constraint(p, members, q.rhs)
            )
        else:
            support = support_for_constraint(p, members, q.rhs)
    except NoSupport:
        return MonitorRecord(q, mode, growth, None, RecordStatus.UNESTABLISHED)
    return MonitorRecord(q, mode, growth, support, RecordStatus.HOLDING)


def _register_restricted(p: PolicyState, q: Constraint, mode: RestrictedTrust) -> MonitorRecord:
    bound_monitor = mode.monitor.bind(p)
    mode = RestrictedTrust(bound_monitor)
    idx = bounds(p, bound_monitor)
    chk = check_bounded_containment(p, bound_monitor, q, idx)
    if not chk.holds:
        return MonitorRecord(q, mode, None, None, RecordStatus.BOUND_VIOLATED, chk.witnesses)
    g = bound_monitor.growth_trusted
    coreset = core(p, g, idx.upper)
    gamma_total = roles_of(q.lhs) <= coreset.roles
    growth = gamma_restricted_expr(p, g, q.lhs, idx.upper, coreset)
    try:
        support = support_for_constraint(
            p, chk.lhs_upper, q.rhs, admissible=bound_monitor.shrink_trusted
        )
    except NoSupport:
        return MonitorRecord(
            q, mode, growth, None, RecordStatus.UNESTABLISHED, gamma_total=gamma_total
        )
    return MonitorRecord(
        q, mode, growth, support, RecordStatus.HOLDING, gamma_total=gamma_total
    )


def classify(rec: MonitorRecord, ev: ChangeEvent) -> Classification:
    """Is the event provably harmless for this holding record?"""
    if rec.status is not RecordStatus.HOLDING:
        raise StaleRecord(f"record for {rec.constraint.id} is {rec.status.value}")
    if isinstance(rec.mode, RestrictedTrust) and not rec.gamma_total:
        return Classification.TRIGGERING
    if ev.kind is ChangeKind.ADD:
        if ev.statement.head in rec.gamma_cache.roles:
            return Classification.TRIGGERING
        return Classification.IGNORABLE
    if isinstance(rec.mode, FullTrustCredential):
        triggering = ev.statement in rec.support_cache.statements
    else:
        triggering = ev.statement.head in rec.support_cache.roles
    return Classification.TRIGGERING if triggering else Classification.IGNORABLE


_OUTCOME_BY_STATUS = {
    RecordStatus.HOLDING: WarningOutcome.STILL_HOLDS,
    RecordStatus.VIOLATED: WarningOutcome.NOW_VIOLATED,
    RecordStatus.BOUND_VIOLATED: WarningOutcome.BOUND_NOW_VIOLATED,
    # The check itself passed; only cache establishment failed.
    RecordStatus.UNESTABLISHED: WarningOutcome.STILL_HOLDS,
}


def _react(
    rec: MonitorRecord, new_state: PolicyState, ev: ChangeEvent, noop: bool
) -> tuple[Optional[MonitorWarning], MonitorRecord]:
    """One record's reaction to an already-applied event."""
    if rec.status is RecordStatus.HOLDING:
        if noop or classify(rec, ev) is Classification.IGNORABLE:
            return None, rec
        cause = (
            WarningCause.GROWTH_SIDE_ADD
            if ev.kind is ChangeKind.ADD
            else WarningCause.SUPPORT_SIDE_REMOVE
        )
    else:
        # Outside the holding regime nothing is provably ignorable; every
        # event forces a re-check, which doubles as recovery.
        cause = WarningCause.RECHECK
    fresh = register(new_state, rec.constraint, rec.mode)
    warning = MonitorWarning(
        constraint_id=rec.constraint.id,
        cause=cause,
        event=ev,
        outcome=_OUTCOME_BY_STATUS[fresh.status],
        violators=fresh.violators,
        recomputed=fresh.status is RecordStatus.HOLDING,
        noop=noop,
    )
    return warning, fresh


@dataclass(frozen=True)
class ChangeResult:
    new_state: PolicyState
    warning: Optional[MonitorWarning]
    record: MonitorRecord


def _apply(p: PolicyState, ev: ChangeEvent) -> PolicyState:
    """The state after ``ev``: ``p`` itself when the event is a no-op."""
    return p.add(ev.statement) if ev.kind is ChangeKind.ADD else p.remove(ev.statement)


def apply_change(rec: MonitorRecord, p: PolicyState, ev: ChangeEvent) -> ChangeResult:
    """Apply one event for one record; no-ops are always ignorable."""
    new_state = _apply(p, ev)
    warning, fresh = _react(rec, new_state, ev, new_state is p)
    return ChangeResult(new_state, warning, fresh)


@dataclass(frozen=True)
class SessionResult:
    """Outcome of a replay; ``initial`` holds the records registered
    against the starting state, before the first event."""

    final_state: PolicyState
    warnings: tuple[MonitorWarning, ...]
    records: tuple[MonitorRecord, ...]
    initial: tuple[MonitorRecord, ...]


def run_session(
    p: PolicyState,
    registrations: Sequence[tuple[Constraint, MonitorMode]],
    log: Iterable[ChangeEvent],
) -> SessionResult:
    """Replay a change log against every registered constraint in order.

    Each event mutates the state once; every record then reacts to the
    same transition, in registration order.
    """
    initial = tuple(register(p, q, mode) for q, mode in registrations)
    records = list(initial)
    warnings: list[MonitorWarning] = []
    state = p
    for ev in log:
        new_state = _apply(state, ev)
        noop, state = new_state is state, new_state
        for i, rec in enumerate(records):
            warning, records[i] = _react(rec, state, ev, noop)
            if warning is not None:
                warnings.append(warning)
    return SessionResult(state, tuple(warnings), tuple(records), initial)
