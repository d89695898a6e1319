"""Event-driven constraint monitoring.

A registered record caches the two frontiers of its constraint: the growth
set of the left side and a support of the needed right-side memberships.
While the record holds, a change is ignorable exactly when it cannot cross
either frontier -- an added statement heading a role outside the growth
set, or a removed statement outside the support -- and in that case the
constraint (or its conservative bound) provably still holds without
re-evaluation.  A crossing change triggers a full re-check and a cache
rebuild, and the owner is warned either way.  Both frontiers are cached as
plain sets: the growth set holds roles, and the support holds roles or,
under credential supports, statements.

``_frontier`` is the one definition of crossing: ``classify`` reads it per
record, and ``run_session`` indexes it by key, so a session routes each
event straight to the records whose frontier it crosses, and classifies
nothing.  The session keeps the live statements in one mutable set and
builds a ``PolicyState`` only when some record re-registers.  An event
outside every frontier costs the same, whatever the policy size and the
number of constraints, and calls no router and builds no list:

* one operation on the live set and a size comparison: an insertion for
  an addition, which hashes its statement once, or a discard for a
  removal;
* for an addition of a statement not yet live, the ``TOP`` check, which
  reads the statement's body in place;
* for an event that changes the live set, its append to the list of the
  events since the snapshot, and one dictionary probe per key of the
  frontier tables, made inline: the head of an addition; the head and the
  statement of a removal.

Every probe reads the hash its statement or role computed when it was
built, so nothing on that path rehashes a statement or hashes a principal.

Nor does such an event free anything of the size of the policy.  A change
only marks the session's snapshot stale; the next event that reaches a
record builds the new snapshot from the stale one, which it then drops,
before its re-registrations; the final state is built afresh from the
live set only if the snapshot is still stale.  Freeing the snapshot on
the first quiet event after a warned one would make that event the
slowest quiet event of a session.  The new snapshot is derived by
:func:`rtmon.model._successor`, which replays the events since the stale
snapshot onto a copy of its by-head map, copying only the lists of the
heads they change, and onto a copy of its principal counts, so no
snapshot after the first indexes, sorts or collects the principals of the
whole policy again.

The shared part of a registration is kept on the snapshot it reads, next
to the snapshot's index: the initial registrations share the
starting state's, and the records one event re-registers share that
event's snapshot's.  Under full trust, membership is evaluated only on the
cone of the constraint -- the roles of both sides closed under the rules
heading them -- by one :func:`~rtmon.engine.evaluate` call with those roles
as roots, kept on the snapshot under them, so constraints with the same
roles share one evaluation; it finds the cone as it evaluates and indexes
only the cone's rules.  The support worklist still covers the whole
snapshot, once per admissible set.  Under restricted trust, both
bounds of a monitor are one evaluation each of every head of the index, each
untrusted role held at a set of its own, and the core is read off the upper
bound.  The upper bound holds a role outside growth trust at the universe,
the snapshot's principals plus ``TOP``; the principals are read off the
counts the snapshot carried over, so a warned event collects the
principals of the statements changed since the last snapshot and of no
other.  Each record adds only its check, growth closure walk and support picks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence, Union

from .analysis import check_bounded_containment, core, gamma_restricted_expr
from .deps import credential_support_for_constraint, gamma_expr, support_for_constraint
from .engine import SemanticsIndex, check_constraint, eval_expr, evaluate
from .model import (
    ChangeEvent,
    ChangeKind,
    Constraint,
    PolicyState,
    Principal,
    Role,
    RoleMonitor,
    Statement,
    _check_unreserved,
    _checked_state,
    _successor,
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
    "register",
    "classify",
    "SessionResult",
    "run_session",
]

# A frontier holds roles, or under credential supports its remove side
# holds statements.
_FrontierKey = Union[Role, Statement]


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


class WarningCause(Enum):
    GROWTH_SIDE_ADD = "growth-side-add"
    SUPPORT_SIDE_REMOVE = "support-side-remove"
    RECHECK = "recheck"


class WarningOutcome(Enum):
    STILL_HOLDS = "still-holds"
    NOW_VIOLATED = "now-violated"
    BOUND_NOW_VIOLATED = "bound-now-violated"


@dataclass(frozen=True)
class MonitorRecord:
    """Per-constraint monitoring state.

    While ``status`` is HOLDING the caches are valid for the current policy
    state: ignorable changes leave them correct without recomputation.
    ``gamma_cache`` is the left side's growth set, a set of roles.
    ``support_cache`` is the right side's support: a set of roles, or under
    :class:`FullTrustCredential` a set of statements.  Both are ``None``
    when the record is not holding.  ``gamma_total`` is false only in
    restricted mode when some left-side role fell outside the trusted core;
    additions are then never ignorable because no observable growth
    frontier exists for that role.
    """

    constraint: Constraint
    mode: MonitorMode
    gamma_cache: Optional[frozenset[Role]]
    support_cache: Optional[frozenset[_FrontierKey]]
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

    A check that passes always has a support: under full trust every
    left-side member is a right-side member, and under restricted trust the
    lower bound is membership in the state restricted to the shrink-trusted
    heads, the state the support is sought in.

    Under full trust the membership read is :func:`_cone`.
    """
    if isinstance(mode, RestrictedTrust):
        return _register_restricted(p, q, mode)
    idx = _cone(p, q)
    result = check_constraint(p, q, idx)
    if not result.satisfied:
        return MonitorRecord(q, mode, None, None, RecordStatus.VIOLATED, result.violators)
    growth = gamma_expr(p, q.lhs, idx)
    members = eval_expr(idx, q.lhs)
    if isinstance(mode, FullTrustCredential):
        support: frozenset[_FrontierKey] = credential_support_for_constraint(p, members, q.rhs)
    else:
        support = support_for_constraint(p, members, q.rhs)
    return MonitorRecord(q, mode, growth, support, RecordStatus.HOLDING)


def _cone(p: PolicyState, q: Constraint) -> SemanticsIndex:
    """Membership on the cone of the roles of both sides of ``q``, kept on
    ``p`` under those roots, so constraints with the same roles share it."""
    roots = roles_of(q.lhs) | roles_of(q.rhs)
    return p._derived("cone", roots, lambda: evaluate(p, roots))


def _register_restricted(p: PolicyState, q: Constraint, mode: RestrictedTrust) -> MonitorRecord:
    monitor = mode.monitor
    chk = check_bounded_containment(p, monitor, q)
    if not chk.holds:
        return MonitorRecord(q, mode, None, None, RecordStatus.BOUND_VIOLATED, chk.witnesses)
    g = monitor.growth_trusted
    coreset = core(p, g)
    growth = gamma_restricted_expr(p, g, q.lhs)
    support = support_for_constraint(p, chk.lhs_upper, q.rhs, monitor.shrink_trusted)
    gamma_total = all(r in coreset for r in roles_of(q.lhs))
    return MonitorRecord(
        q, mode, growth, support, RecordStatus.HOLDING, gamma_total=gamma_total
    )


# Bound once: an enum member read off its class costs more than the rest
# of a quiet event's kind test.
_ADD = ChangeKind.ADD


def _frontier(
    rec: MonitorRecord,
) -> Optional[tuple[frozenset[_FrontierKey], frozenset[_FrontierKey]]]:
    """The keys an event must hit to trigger ``rec``: its two caches, the
    growth roles for an addition and the support roles (or, under credential
    supports, the support statements) for a removal.  None when every event
    reaches the record: it is not holding, or it is restricted without a
    total growth set.

    An addition is looked up by its statement's head, a removal by its head
    and by the statement itself.  A role never equals a statement, so each
    removal key can only hit its own kind of support."""
    if rec.status is not RecordStatus.HOLDING or not rec.gamma_total:
        return None
    return rec.gamma_cache, rec.support_cache


def classify(rec: MonitorRecord, ev: ChangeEvent) -> bool:
    """Does the event reach the record?  False only when the record holds
    and the event crosses neither of its frontiers, so the record provably
    still holds; a record without a frontier is reached by every event."""
    front = _frontier(rec)
    if front is None:
        return True
    stmt = ev.statement
    if ev.kind is _ADD:
        return stmt.head in front[0]
    return stmt.head in front[1] or stmt in front[1]


_OUTCOME_BY_STATUS = {
    RecordStatus.HOLDING: WarningOutcome.STILL_HOLDS,
    RecordStatus.VIOLATED: WarningOutcome.NOW_VIOLATED,
    RecordStatus.BOUND_VIOLATED: WarningOutcome.BOUND_NOW_VIOLATED,
}


def _react(
    rec: MonitorRecord, new_state: PolicyState, ev: ChangeEvent, noop: bool
) -> tuple[Optional[MonitorWarning], MonitorRecord]:
    """One record's reaction to an already-applied event that reaches it
    (see :func:`classify`)."""
    if rec.status is RecordStatus.HOLDING:
        if noop:
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


class _FrontierIndex:
    """The records of a session by the ``_frontier`` keys they watch.

    Records are named by their registration position.  ``added`` and
    ``removed`` map the keys of each side of a frontier to the records
    watching them, a key watched by none leaving its table; ``every``
    holds the records without a frontier, which every event reaches.
    ``run_session`` probes the tables itself.
    """

    def __init__(self, records: Sequence[MonitorRecord]):
        self.added: dict[_FrontierKey, set[int]] = {}
        self.removed: dict[_FrontierKey, set[int]] = {}
        self.every: set[int] = set()
        self.fronts: dict[int, tuple[frozenset[_FrontierKey], frozenset[_FrontierKey]]] = {}
        for i, rec in enumerate(records):
            self.put(i, rec)

    def put(self, i: int, rec: MonitorRecord) -> None:
        """Index record ``i`` as ``rec``, replacing its earlier entries."""
        old = self.fronts.pop(i, None)
        if old is not None:
            for table, keys in zip((self.added, self.removed), old):
                for key in keys:
                    watchers = table[key]
                    watchers.discard(i)
                    if not watchers:
                        del table[key]
        self.every.discard(i)
        front = _frontier(rec)
        if front is None:
            self.every.add(i)
            return
        self.fronts[i] = front
        for table, keys in zip((self.added, self.removed), front):
            for key in keys:
                table.setdefault(key, set()).add(i)


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

    The live statements sit in one mutable set; an added statement gets the
    same ``TOP`` check as in ``PolicyState.add``.  Each event reaches, in
    registration order, the records whose ``_frontier`` it crosses and the
    records without one; every other record provably ignores it and is not
    visited.  The records reached react to one ``PolicyState`` snapshot of
    the live set, built at most once per event and only when some record
    re-registers, and share what is derived from it, which the snapshot
    keeps: records whose constraints have the same roles share one cone.
    Everything derived from the snapshot goes with it, except its index
    and its principal counts, which the next snapshot carries over with
    the session's changes in between replayed onto a copy (see
    :func:`rtmon.model._successor`).

    A snapshot lives until the first event that reaches a record after the
    live set changed: that event builds the next one from it and drops it,
    so an event that reaches no record neither builds nor frees anything of
    the size of the policy.  Such an event makes one set operation on the
    live statements and a size comparison (an addition hashes its
    statement once), the ``TOP`` check for an addition that changes them,
    and, for any event that does, an append to a list and one probe of the
    frontier tables per key.  It calls no router and builds no list of
    due records, so its cost does not grow with the policy or the number
    of constraints.
    ``final_state`` is the last snapshot when no change followed it, a
    state built from the live statements (carrying nothing) when one did,
    and ``p`` itself when nothing changed.
    """
    initial = tuple(register(p, q, mode) for q, mode in registrations)
    records = list(initial)
    index = _FrontierIndex(records)
    # ``put`` changes the tables in place, so they are bound once.
    watch_added, watch_removed, every = index.added.get, index.removed.get, index.every
    warnings: list[MonitorWarning] = []
    live = set(p.statements)
    snapshot = p
    # The events that changed the live set since the snapshot, in order.
    changes: list[ChangeEvent] = []
    note = changes.append
    for ev in log:
        stmt = ev.statement
        size = len(live)
        # An addition is inserted and the size compared, so its statement
        # is hashed once.  A no-op crosses no frontier.
        if ev.kind is _ADD:
            live.add(stmt)
            noop = len(live) == size
            if noop:
                hit = None
            else:
                _check_unreserved(stmt)
                note(ev)
                hit = watch_added(stmt.head)
        else:
            live.discard(stmt)
            noop = len(live) == size
            if noop:
                hit = None
            else:
                note(ev)
                hit = watch_removed(stmt.head)
                more = watch_removed(stmt)
                if more:
                    hit = hit | more if hit else more
        if not (hit or every):
            continue
        due = sorted(every | hit if hit else every)
        if changes:
            # Built from the snapshot it replaces, which it then releases.
            snapshot = _successor(snapshot, frozenset(live), changes)
            changes.clear()
        for i in due:
            warning, fresh = _react(records[i], snapshot, ev, noop)
            if warning is not None:
                warnings.append(warning)
            if fresh is not records[i]:
                records[i] = fresh
                index.put(i, fresh)
    if changes:
        # Nothing reads the final state's index or counts: neither is carried.
        snapshot = _checked_state(frozenset(live))
    return SessionResult(snapshot, tuple(warnings), tuple(records), initial)
