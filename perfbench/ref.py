"""Untimed reference check of a replay, independent of the program.

Membership comes from a naive fixpoint over the generator's statement
tuples: every rule is re-applied until nothing changes.  Nothing here
imports the program; the worker hands over the program's outputs as plain
values (event index -> warnings, final statements, CLI report).
"""

from __future__ import annotations

import random

from gen import CROSSING, Workload, stmt_text


def members(stmts) -> dict[tuple[str, str], set[str]]:
    """Least fixpoint of the four statement forms, by plain iteration."""
    mem: dict[tuple[str, str], set[str]] = {}
    rules = []
    for s in stmts:
        if s[0] == "m":
            mem.setdefault((s[1], s[2]), set()).add(s[3])
        else:
            rules.append(s)
    empty: set[str] = set()
    changed = True
    while changed:
        changed = False
        for s in rules:
            kind, head = s[0], (s[1], s[2])
            if kind == "i":
                new = mem.get((s[3], s[4]), empty)
            elif kind == "l":
                new = set()
                for y in mem.get((s[1], s[3]), empty):
                    new |= mem.get((y, s[4]), empty)
            else:
                parts = [mem.get(part, empty) for part in s[3]]
                new = set.intersection(*parts)
            cur = mem.setdefault(head, set())
            if not new <= cur:
                cur |= new
                changed = True
    return mem


def violators(stmts, constraint) -> set[str]:
    _, _, lhs, rhs = constraint
    mem = members(stmts)
    return mem.get(lhs, set()) - mem.get(rhs, set())


class Checker:
    """Collects mismatches between the program's outputs and the reference."""

    def __init__(self, w: Workload):
        self.w = w
        self.failures: list[str] = []

    def fail(self, msg: str) -> None:
        self.failures.append(msg)

    def check_replay(self, n_events: int, warnings: dict[int, list[tuple[str, str, list[str]]]],
                     final_statements: list[str], sample_seed: int, samples: int = 40) -> None:
        """Check one replay of the first ``n_events`` log events.

        ``warnings`` maps an event index to (constraint id, outcome,
        violators) for each warning raised at that event.  Silence is
        checked at a seeded sample of quiet events and at every quiet event
        the generator meant to cross a frontier.
        """
        w = self.w
        restricted = w.mode == "restricted"
        quiet = [i for i in range(n_events) if i not in warnings]
        rng = random.Random(sample_seed)
        sampled = set(rng.sample(quiet, min(samples, len(quiet))))
        # Events planned to cross a frontier that the program let pass
        # silently are always checked.
        sampled.update(i for i in quiet if w.log[i][3] == CROSSING)
        by_id = {c[0]: c for c in w.constraints}
        state = dict.fromkeys(w.policy)
        for i in range(n_events):
            sign, s, _, _ = w.log[i]
            if sign == "+":
                state[s] = None
            else:
                state.pop(s, None)
            if i in warnings:
                for cid, outcome, names in warnings[i]:
                    got = set(names)
                    want = violators(state, by_id[cid])
                    if restricted:
                        # A bound that holds must imply the exact constraint.
                        ok = (outcome == "still-holds" and not want and not got) or (
                            outcome == "bound-now-violated" and bool(got)
                        )
                    elif want:
                        ok = outcome == "now-violated" and got == want
                    else:
                        ok = outcome == "still-holds" and not got
                    if not ok:
                        self.fail(
                            f"event {i} ({w.log[i][2]}): {cid} warned {outcome} {sorted(got)},"
                            f" reference violators {sorted(want)}"
                        )
            elif i in sampled:
                # Silence is sound: every record was holding, so every
                # constraint holds exactly.
                for c in w.constraints:
                    want = violators(state, c)
                    if want:
                        self.fail(f"event {i} ({w.log[i][2]}): silent, but {c[0]} is"
                                  f" violated by {sorted(want)}")
        expected = sorted(stmt_text(s) for s in state)
        if expected != sorted(final_statements):
            missing = sorted(set(expected) - set(final_statements))[:3]
            extra = sorted(set(final_statements) - set(expected))[:3]
            self.fail(f"final state differs: missing {missing}, unexpected {extra}")

    def check_cli(self, report: dict, exit_code: int) -> None:
        """The CLI's initial statuses and exit code on an empty change log."""
        w = self.w
        result = report.get("result", {})
        initial = {e["id"]: e for e in result.get("initial", [])}
        if sorted(initial) != sorted(c[0] for c in w.constraints):
            self.fail(f"cli initial lists {sorted(initial)}")
            return
        statuses = []
        for c in w.constraints:
            e = initial[c[0]]
            want = violators(w.policy, c)
            status = e["status"]
            statuses.append(status)
            if w.mode == "restricted":
                ok = (status in ("holding", "unestablished") and not want) or status == "bound-violated"
            elif want:
                ok = status == "violated" and set(e["violators"]) == want
            else:
                ok = status in ("holding", "unestablished") and not e["violators"]
            if not ok:
                self.fail(f"cli initial {c[0]}: {status} {e['violators']},"
                          f" reference violators {sorted(want)}")
        if "unestablished" in statuses:
            want_code = 3
        elif any(s in ("violated", "bound-violated") for s in statuses):
            want_code = 1
        else:
            want_code = 0
        if exit_code != want_code or report.get("exit_code") != want_code:
            self.fail(f"cli exit code {exit_code}, expected {want_code} for statuses {statuses}")
        if result.get("warnings"):
            self.fail("cli warned on an empty change log")
        if sorted(result.get("final_state", [])) != sorted(stmt_text(s) for s in w.policy):
            self.fail("cli final state differs from the policy on an empty change log")
