"""Seeded, deterministic workload generators.

Each generator returns a :class:`Workload`: the policy, constraints, optional
role monitor and change log as the program's text formats, plus the same
statements as plain tuples for the reference checker, and the planned mix.
The program under test only ever sees the text.

Statements are tuples:

* ``("m", owner, role, member)``              ``Owner.role <- Member``
* ``("i", owner, role, src_owner, src_role)`` ``Owner.role <- Src.role``
* ``("l", owner, role, first, second)``       ``Owner.role <- Owner.first.second``
* ``("x", owner, role, ((o, r), ...))``       ``Owner.role <- O1.r1 & O2.r2 ...``

Every generator only iterates lists and dicts, never sets, so the output is
byte-identical for a seed whatever ``PYTHONHASHSEED`` is.  The mix (counts of
statements, principals and planned event categories) depends only on the
generator's size constants, not on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

QUIET = "quiet"
CROSSING = "crossing"


def stmt_text(s: tuple) -> str:
    kind, owner, role = s[0], s[1], s[2]
    head = f"{owner}.{role}"
    if kind == "m":
        return f"{head} <- {s[3]}"
    if kind == "i":
        return f"{head} <- {s[3]}.{s[4]}"
    if kind == "l":
        return f"{head} <- {owner}.{s[3]}.{s[4]}"
    return f"{head} <- " + " & ".join(f"{o}.{r}" for o, r in s[3])


def stmt_principals(s: tuple) -> list[str]:
    kind = s[0]
    if kind == "m":
        return [s[1], s[3]]
    if kind == "i":
        return [s[1], s[3]]
    if kind == "l":
        return [s[1]]
    return [s[1]] + [o for o, _ in s[3]]


@dataclass
class Workload:
    name: str
    #: "full", "credential" or "restricted"
    mode: str
    policy: list[tuple]
    #: (id, owner, lhs role, rhs role); each side is one role ``(owner, name)``
    constraints: list[tuple[str, str, tuple[str, str], tuple[str, str]]]
    #: list of (sign, statement, category, planned class)
    log: list[tuple[str, tuple, str, str]]
    #: (growth-trusted roles, shrink-trusted roles) for restricted trust
    monitor: tuple[list[tuple[str, str]], list[tuple[str, str]]] | None = None
    mix: dict = field(default_factory=dict)

    def policy_text(self) -> str:
        return "".join(stmt_text(s) + "\n" for s in self.policy)

    def constraints_text(self) -> str:
        return "".join(
            f"constraint {cid} owner {owner}: {lhs[0]}.{lhs[1]} <= {rhs[0]}.{rhs[1]}\n"
            for cid, owner, lhs, rhs in self.constraints
        )

    def log_text(self) -> str:
        return "".join(f"{sign} {stmt_text(s)}\n" for sign, s, _, _ in self.log)

    def monitor_text(self) -> str | None:
        if self.monitor is None:
            return None
        growth, shrink = self.monitor
        return (
            "growth-trusted: " + ", ".join(f"{o}.{r}" for o, r in growth) + "\n"
            "shrink-trusted: " + ", ".join(f"{o}.{r}" for o, r in shrink) + "\n"
        )

    def texts(self) -> dict[str, str]:
        out = {
            "policy": self.policy_text(),
            "constraints": self.constraints_text(),
            "changelog": self.log_text(),
        }
        monitor = self.monitor_text()
        if monitor is not None:
            out["monitor"] = monitor
        return out


class _Pool:
    """Statements present in the simulated state, with O(1) random pick."""

    def __init__(self):
        self.items: list[tuple] = []
        self.pos: dict[tuple, int] = {}

    def add(self, s: tuple) -> None:
        if s not in self.pos:
            self.pos[s] = len(self.items)
            self.items.append(s)

    def discard(self, s: tuple) -> None:
        i = self.pos.pop(s, None)
        if i is None:
            return
        last = self.items.pop()
        if i < len(self.items):
            self.items[i] = last
            self.pos[last] = i

    def pick(self, rng: random.Random) -> tuple:
        return self.items[rng.randrange(len(self.items))]


class _Log:
    """Change-log writer that keeps the simulated state in step."""

    def __init__(self, policy: list[tuple]):
        self.present: dict[tuple, None] = dict.fromkeys(policy)
        self.events: list[tuple[str, tuple, str, str]] = []

    def add(self, s: tuple, category: str, planned: str) -> None:
        self.events.append(("+", s, category, planned))
        self.present[s] = None

    def remove(self, s: tuple, category: str, planned: str) -> None:
        self.events.append(("-", s, category, planned))
        self.present.pop(s, None)


def _schedule(rng: random.Random, n_quiet: int, units: list) -> list:
    """Interleave crossing units evenly among ``n_quiet`` quiet slots.

    Returns a list of ``None`` (one quiet event) and units, with the units
    spread over the log in strata so that any long stretch of the log has
    about the same share of crossing events.
    """
    n = len(units)
    base, extra = divmod(n_quiet, n + 1)
    gaps = [base + (1 if i < extra else 0) for i in range(n + 1)]
    # Seeded jitter: move quiet slots between neighbouring gaps.
    for i in range(n):
        shift = rng.randint(-base // 3, base // 3)
        shift = max(-gaps[i], min(shift, gaps[i + 1]))
        gaps[i] += shift
        gaps[i + 1] -= shift
    out: list = []
    for i in range(n):
        out.extend([None] * gaps[i])
        out.append(units[i])
    out.extend([None] * gaps[n])
    return out


def _alternate(rng: random.Random, tokens: list[str]) -> list[str]:
    """Shuffle, then turn the ``move`` tokens into alternating outs and ins.

    A move out never has to wait for a move in, so a membership is always
    available to remove without emptying anyone's last one.
    """
    rng.shuffle(tokens)
    out = []
    moves = 0
    for tok in tokens:
        if tok == "move":
            tok = "move-out" if moves % 2 == 0 else "move-in"
            moves += 1
        out.append(tok)
    return out


def _pair_order(rng: random.Random, tokens: list[str], paired: str) -> list[str]:
    """Turn each ``paired`` token into an open or a close, opens first."""
    total = tokens.count(paired)
    opens_left = closes_left = total // 2
    pending = 0
    out = []
    for tok in tokens:
        if tok != paired:
            out.append(tok)
            continue
        if pending == 0 or (opens_left and closes_left and rng.random() < 0.5 and pending < 3):
            out.append(paired + ":open")
            opens_left -= 1
            pending += 1
        else:
            out.append(paired + ":close")
            closes_left -= 1
            pending -= 1
    return out


# --------------------------------------------------------------------------
# org_churn and org_restricted: an org hierarchy with linked roles


def _bulk(rng, depts, members):
    """Unrelated departments: direct members plus a few rules each.

    Every person of the pool is a member of exactly two departments, so
    the principal count does not depend on the seed.
    """
    pool = [f"B{i}" for i in range(1, depts * members // 2 + 1)]
    rng.shuffle(pool)
    stmts = []
    for d in range(1, depts + 1):
        dept = f"Dept{d}"
        chosen = [pool[(d * members + i) % len(pool)] for i in range(members)]
        for p in chosen:
            stmts.append(("m", dept, "members", p))
        for p in chosen[:2]:
            stmts.append(("m", dept, "leads", p))
        stmts.append(("i", dept, "team", dept, "members"))
        stmts.append(("x", dept, "senior", ((dept, "team"), (dept, "leads"))))
    return stmts, pool


def _noop(rng, log: _Log, policy: list[tuple], add: bool, ghost_role: tuple[str, str]) -> None:
    """Re-add a present statement, or remove an absent one."""
    if add:
        while True:
            s = policy[rng.randrange(len(policy))]
            if s in log.present:
                log.add(s, "noop-add", QUIET)
                return
    owner, role = ghost_role
    log.remove(("m", f"{owner}{rng.randint(1, 9)}", role, f"Ghost{rng.randint(1, 99)}"),
               "noop-remove", QUIET)


def _org_workload(name: str, seed: int, *, restricted: bool, divisions: int, orgs: int,
                  staff: int, cleared: int, depts: int, dept_members: int, events: int,
                  staff_adds: int, staff_removes: int, cleared_pairs: int, joins: int,
                  drops: int, hires: int, noop_share: float = 0.15) -> Workload:
    """Org hierarchy plus bulk departments, with a churning change log.

    Crossing events: staff added to an org (growth side), a cleared
    statement removed from the support and later restored, the registry
    dropping an org (support side, violated) and restoring it at the next
    event, and an org joining a hub.  Under full trust a new org joins with a cleared member
    the registry does not know yet (violated), and the registry recognizes
    the org at the next event.  Under restricted trust a guest org outside
    the monitor joins (the bound breaks) and leaves at the next event.

    Quiet events have fixed counts per category, so every seed ends with
    the same number of statements and principals: bulk members moving
    between departments, fresh hires into departments, staff-only people
    leaving an org, and no-op repeats.
    """
    rng = random.Random(seed * 7919 + (3 if restricted else 1))
    stmts: list[tuple] = []
    info = []
    person = 0
    for k in range(1, divisions + 1):
        hub = f"Hub{k}"
        stmts.append(("l", hub, "staff", "orgs", "staff"))
        stmts.append(("l", hub, "cleared", "orgs", "cleared"))
        stmts.append(("x", hub, "access", ((hub, "staff"), (hub, "cleared"))))
        for j in range(1, orgs + 1):
            org = f"Org{k}x{j}"
            stmts.append(("m", hub, "orgs", org))
            people = []
            for _ in range(staff):
                person += 1
                people.append(f"E{person}")
            rng.shuffle(people)
            for p in people:
                stmts.append(("m", org, "staff", p))
            # people[0] is the anchor: staff and cleared in this org only,
            # never touched by the log, so the org's cleared role is always
            # in the constraint's support.
            for p in people[:cleared]:
                stmts.append(("m", org, "cleared", p))
            stmts.append(("i", "Reg", f"ok{k}", org, "cleared"))
            info.append({"hub": hub, "org": org, "people": people})
    constraints = [
        (f"c{k}", f"Hub{k}", (f"Hub{k}", "access"), ("Reg", f"ok{k}"))
        for k in range(1, divisions + 1)
    ]
    bulk_stmts, pool = _bulk(rng, depts, dept_members)
    policy = stmts + bulk_stmts

    monitor = None
    if restricted:
        growth: list[tuple[str, str]] = []
        shrink: list[tuple[str, str]] = []
        for k in range(1, divisions + 1):
            hub = f"Hub{k}"
            growth.extend([(hub, "orgs"), (hub, "staff"), (hub, "cleared"), (hub, "access")])
            shrink.append(("Reg", f"ok{k}"))
        for o in info:
            growth.extend([(o["org"], "staff"), (o["org"], "cleared")])
            shrink.append((o["org"], "cleared"))
        monitor = (growth, shrink)

    log = _Log(policy)
    members = _Pool()
    held: dict[str, int] = {}
    for s in bulk_stmts:
        if s[0] == "m":
            held[s[3]] = held.get(s[3], 0) + 1
            if s[2] == "members":
                members.add(s)
    # Staff-only people hold one statement each, so leaving drops them as
    # principals; anchors and cleared people never leave.
    staff_only = _Pool()
    cleared_in = _Pool()
    for o in info:
        for p in o["people"][cleared:]:
            staff_only.add(("m", o["org"], "staff", p))
        for p in o["people"][1:cleared]:
            cleared_in.add(("m", o["org"], "cleared", p))
    cleared_out: list[tuple] = []
    fresh = [0]

    def fresh_name() -> str:
        fresh[0] += 1
        return f"F{fresh[0]}"

    tokens = (["staff-add"] * staff_adds + ["cleared"] * (2 * cleared_pairs) + ["join"] * joins
              + ["drop"] * drops)
    rng.shuffle(tokens)
    units = _pair_order(rng, tokens, "cleared")
    prepare = 0 if restricted else 3
    n_quiet = events - (staff_adds + 2 * cleared_pairs + 2 * joins + 2 * drops) - prepare * joins
    n_noop = round(noop_share * n_quiet)
    moves = (n_quiet - n_noop - hires - staff_removes) // 2
    n_noop = n_quiet - hires - staff_removes - 2 * moves
    quiet = _alternate(rng, ["noop-add"] * (n_noop // 2) + ["noop-remove"] * (n_noop - n_noop // 2)
                       + ["hire"] * hires + ["staff-remove"] * staff_removes + ["move"] * (2 * moves))

    def crossing(unit: str) -> None:
        if unit == "staff-add":
            o = info[rng.randrange(len(info))]
            s = ("m", o["org"], "staff", fresh_name())
            staff_only.add(s)
            log.add(s, "staff-add", CROSSING)
        elif unit == "cleared:open":
            s = cleared_in.pick(rng)
            cleared_in.discard(s)
            cleared_out.append(s)
            log.remove(s, "cleared-remove", CROSSING)
        elif unit == "cleared:close":
            s = cleared_out.pop(0)
            cleared_in.add(s)
            log.add(s, "cleared-add", CROSSING)
        elif unit == "drop":
            o = info[rng.randrange(len(info))]
            k = int(o["hub"][3:])
            s = ("i", "Reg", f"ok{k}", o["org"], "cleared")
            log.remove(s, "registry-drop", CROSSING)
            log.add(s, "registry-restore", CROSSING)
        elif restricted:
            # An org outside the monitor joins a hub: its roles may grow
            # unobserved, so the bound breaks until the org leaves again.
            k = rng.randint(1, divisions)
            s = ("m", f"Hub{k}", "orgs", f"Guest{fresh_name()}")
            log.add(s, "guest-join", CROSSING)
            log.remove(s, "guest-leave", CROSSING)
        else:
            k = rng.randint(1, divisions)
            org = f"New{fresh_name()}"
            a, b = fresh_name(), fresh_name()
            log.add(("m", org, "staff", a), "org-prepare", QUIET)
            log.add(("m", org, "cleared", a), "org-prepare", QUIET)
            log.add(("m", org, "staff", b), "org-prepare", QUIET)
            log.add(("m", f"Hub{k}", "orgs", org), "org-join", CROSSING)
            log.add(("i", "Reg", f"ok{k}", org, "cleared"), "org-recognize", CROSSING)

    def quiet_event(kind: str) -> None:
        if kind.startswith("noop"):
            _noop(rng, log, policy, kind == "noop-add", ("Dept", "members"))
        elif kind == "staff-remove":
            s = staff_only.pick(rng)
            staff_only.discard(s)
            log.remove(s, "staff-remove", QUIET)
        elif kind == "move-out":
            # Never a person's last department, so nobody disappears.
            while True:
                s = members.pick(rng)
                if held[s[3]] > 1:
                    break
            members.discard(s)
            held[s[3]] -= 1
            log.remove(s, "bulk-move-out", QUIET)
        else:
            who = fresh_name() if kind == "hire" else pool[rng.randrange(len(pool))]
            while True:
                s = ("m", f"Dept{rng.randint(1, depts)}", "members", who)
                if s not in log.present:
                    break
            members.add(s)
            held[who] = held.get(who, 0) + 1
            log.add(s, "bulk-" + kind, QUIET)

    slots = iter(quiet)
    for slot in _schedule(rng, n_quiet, units):
        if slot is None:
            quiet_event(next(slots))
        else:
            crossing(slot)

    return Workload(
        name=name,
        mode="restricted" if restricted else "full",
        policy=policy,
        constraints=constraints,
        log=log.events,
        monitor=monitor,
        mix=_mix(policy, log.events),
    )


def gen_org_churn(seed: int) -> Workload:
    return _org_workload(
        "org_churn", seed, restricted=False, divisions=4, orgs=5, staff=6, cleared=3,
        depts=55, dept_members=10, events=2100, staff_adds=40, staff_removes=40,
        cleared_pairs=20, joins=8, drops=5, hires=60,
    )


# --------------------------------------------------------------------------
# chain_fan: credential supports over a deep chain and an intersection fan

_FAN_PARTS = ("a", "b", "c", "d")


def gen_chain_fan(seed: int) -> Workload:
    # A chain of 30 links: at 100 and more, one warned event takes over a
    # second on the evaluator this benchmark was written against, and a run
    # must hold at least 100 of them.
    depth, members, guests = 30, 3, 1
    side_owners, side_members = 4, 10
    events, outsiders, guest_visits, shifts = 1300, 22, 22, 44
    rng = random.Random(seed * 7919 + 2)
    people = [f"P{i}" for i in range(1, members + guests + 1)]
    rng.shuffle(people)
    # Guests pass the gate but start outside the chain base.
    base_people, guest_people = people[:members], people[members:]
    policy: list[tuple] = []
    for i in range(depth):
        policy.append(("i", "C", f"l{i}", "C", f"l{i + 1}"))
    base = f"l{depth}"
    for p in base_people:
        policy.append(("m", "C", base, p))
    policy.append(("x", "F", "gate", tuple(("F", part) for part in _FAN_PARTS)))
    for part in _FAN_PARTS:
        for alt in (1, 2):
            policy.append(("i", "F", part, "F", f"{part}{alt}"))
            for p in people:
                policy.append(("m", "F", f"{part}{alt}", p))
    side_pool = [f"S{i}" for i in range(1, 3 * side_members + 1)]
    rng.shuffle(side_pool)
    side_stmts = []
    for k in range(1, side_owners + 1):
        owner = f"Side{k}"
        for i in range(side_members):
            side_stmts.append(("m", owner, "x", side_pool[(k * side_members + i) % len(side_pool)]))
        side_stmts.append(("i", owner, "y", owner, "x"))
    policy.extend(side_stmts)
    constraints = [("c1", "C", ("C", "l0"), ("F", "gate"))]

    log = _Log(policy)
    side = _Pool()
    held: dict[str, int] = {}
    for s in side_stmts:
        if s[0] == "m":
            side.add(s)
            held[s[3]] = held.get(s[3], 0) + 1

    def alt_stmt(p: str, part: str, alt: int) -> tuple:
        return ("m", "F", f"{part}{alt}", p)

    def supported_alt() -> dict:
        # After any recompute the chosen support prefers alternative 1
        # (lexicographically smaller) wherever it is present.
        return {
            (p, part): 1 if alt_stmt(p, part, 1) in log.present else 2
            for p in people for part in _FAN_PARTS
        }

    current = supported_alt()
    restore: list[tuple] = []

    # An outsider fails the gate: adding it at the chain base violates the
    # constraint, and the next event removes it again.  A guest passes the
    # gate: it joins the base and leaves through a quiet removal.
    tokens = ["outsider"] * outsiders + ["guest"] * guest_visits + ["shift"] * shifts
    rng.shuffle(tokens)
    n_crossing = 2 * outsiders + guest_visits + shifts
    n_quiet = events - n_crossing - guest_visits
    outsider_count = [0]

    def crossing(unit: str) -> None:
        nonlocal current
        if unit == "outsider":
            outsider_count[0] += 1
            s = ("m", "C", base, f"Q{outsider_count[0]}")
            log.add(s, "base-add-outsider", CROSSING)
            log.remove(s, "base-repair", CROSSING)
        elif unit == "guest":
            g = guest_people[rng.randrange(len(guest_people))]
            log.add(("m", "C", base, g), "base-add-guest", CROSSING)
            log.remove(("m", "C", base, g), "base-remove-guest", QUIET)
        else:
            # Remove the supported alternative of a base member and part
            # whose other alternative is present, so the support shifts.
            choices = [
                (p, part) for p in base_people for part in _FAN_PARTS
                if alt_stmt(p, part, 3 - current[(p, part)]) in log.present
            ]
            p, part = choices[rng.randrange(len(choices))]
            s = alt_stmt(p, part, current[(p, part)])
            log.remove(s, "support-shift", CROSSING)
            restore.append(s)
        current = supported_alt()

    n_noop = round(0.2 * (n_quiet - shifts))
    moves = (n_quiet - shifts - n_noop) // 2
    n_noop = n_quiet - shifts - 2 * moves
    quiet = _alternate(rng, ["noop-add"] * (n_noop // 2) + ["noop-remove"] * (n_noop - n_noop // 2)
                       + ["move"] * (2 * moves))
    slots = iter(quiet)
    for slot in _schedule(rng, n_quiet - shifts, tokens):
        if slot is not None:
            crossing(slot)
            continue
        if restore:
            # Restore a removed alternative: an add to the right side,
            # outside the left side's growth set, so quiet.
            log.add(restore.pop(0), "alt-restore", QUIET)
        kind = next(slots)
        if kind.startswith("noop"):
            _noop(rng, log, policy, kind == "noop-add", ("Side", "x"))
        elif kind == "move-out":
            # Never a person's last side role, so nobody disappears.
            while True:
                s = side.pick(rng)
                if held[s[3]] > 1:
                    break
            side.discard(s)
            held[s[3]] -= 1
            log.remove(s, "side-remove", QUIET)
        else:
            while True:
                s = ("m", f"Side{rng.randint(1, side_owners)}", "x",
                     side_pool[rng.randrange(len(side_pool))])
                if s not in log.present:
                    break
            side.add(s)
            held[s[3]] += 1
            log.add(s, "side-add", QUIET)
    return Workload(
        name="chain_fan",
        mode="credential",
        policy=policy,
        constraints=constraints,
        log=log.events,
        mix=_mix(policy, log.events),
    )


def gen_org_restricted(seed: int) -> Workload:
    return _org_workload(
        "org_restricted", seed, restricted=True, divisions=2, orgs=4, staff=6, cleared=3,
        depts=12, dept_members=6, events=1400, staff_adds=40, staff_removes=20,
        cleared_pairs=20, joins=5, drops=5, hires=10,
    )


def _mix(policy: list[tuple], events: list) -> dict:
    initial: dict[str, None] = {}
    for s in policy:
        for p in stmt_principals(s):
            initial[p] = None
    seen = dict(initial)
    fresh = 0
    categories: dict[str, int] = {}
    for sign, s, category, _ in events:
        categories[category] = categories.get(category, 0) + 1
        for p in stmt_principals(s) if sign == "+" else ():
            if p not in seen:
                seen[p] = None
                fresh += 1
    return {
        "statements": len(policy),
        "principals": len(initial),
        "events": len(events),
        "planned_quiet": sum(1 for e in events if e[3] == QUIET),
        "planned_crossing": sum(1 for e in events if e[3] == CROSSING),
        "fresh_principals": fresh,
        "categories": dict(sorted(categories.items())),
    }


GENERATORS = {
    "org_churn": gen_org_churn,
    "chain_fan": gen_chain_fan,
    "org_restricted": gen_org_restricted,
}


def generate(name: str, seed: int) -> Workload:
    return GENERATORS[name](seed)
