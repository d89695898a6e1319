"""Command-line front end.

Five verbs over the text formats: ``query`` evaluates an expression,
``check`` tests constraints, ``deps`` prints the monitoring frontiers,
``analyze`` runs the conservative bound analysis under a role monitor, and
``monitor`` replays a change log and streams warnings.

Every invocation produces one report; ``--format machine`` renders it as a
single JSON document with stable field names.  Exit codes: 0 all checks
hold, 1 a check or constraint is violated, 2 input error (an input that
cannot be read or parsed, or an ``--out`` file that cannot be written), 3
(``analyze`` only) monitoring could not be established: the record
``register`` makes under restricted trust is bound-violated, 4 internal
error (the tool failed; no verdict was reached).  ``analyze`` never exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import Optional

from .analysis import core, gamma_restricted_expr
from .deps import DEFAULT_SUPPORT_CAP, gamma_expr, justified_semantics, support_for_constraint
from .engine import check_constraint, eval_expr, evaluate
from .model import EVERY_ROLE, roles_of
from .monitor import (
    FullTrust,
    FullTrustCredential,
    MonitorMode,
    RecordStatus,
    RestrictedTrust,
    WarningOutcome,
    register,
    run_session,
)
from .parser import (
    ParseError,
    parse_changelog,
    parse_constraints,
    parse_expr,
    parse_monitor,
    parse_policy,
    serialize_expr,
    serialize_policy,
)

__all__ = ["main", "main_entry"]

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_INPUT_ERROR = 2
EXIT_UNESTABLISHED = 3
EXIT_INTERNAL_ERROR = 4


class _InputError(Exception):
    def __init__(self, path: str, detail: str):
        super().__init__(f"{path}: {detail}")


def _read(path: str) -> tuple[str, str]:
    """File contents plus its digest for the report's input echo."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise _InputError(path, exc.strerror or str(exc)) from exc
    try:
        # A byte-order mark opening the file is dropped; the digest stays
        # that of the raw bytes.
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise _InputError(path, f"not valid UTF-8 ({exc.reason})") from exc
    return text, hashlib.sha256(raw).hexdigest()


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``--out``; a path that cannot be written is an
    input error, like a file that cannot be read."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _InputError(path, exc.strerror or str(exc)) from exc


def _load(path: str, parse, inputs: dict, label: str):
    text, digest = _read(path)
    inputs[label] = {"path": path, "sha256": digest}
    try:
        return parse(text)
    except ParseError as exc:
        raise _InputError(path, str(exc)) from exc


def _names(principals) -> list[str]:
    return sorted(p.name for p in principals)


def _texts(items) -> list[str]:
    """Roles or statements as sorted text."""
    return sorted(str(x) for x in items)


def _exit_code(violated: bool) -> int:
    return EXIT_VIOLATED if violated else EXIT_OK


def _constraint_roles(constraints) -> frozenset:
    """The roles of both sides of every constraint."""
    return frozenset().union(*(roles_of(q.lhs) | roles_of(q.rhs) for q in constraints))


def cmd_query(args) -> dict:
    inputs: dict = {}
    state = _load(args.policy, parse_policy, inputs, "policy")
    try:
        expr = parse_expr(args.expr)
    except ParseError as exc:
        raise _InputError("<expr>", str(exc)) from exc
    members = eval_expr(evaluate(state, roles_of(expr)), expr)
    result = {"expr": serialize_expr(expr), "members": _names(members)}
    return _report("query", inputs, result, EXIT_OK)


def cmd_check(args) -> dict:
    inputs: dict = {}
    state = _load(args.policy, parse_policy, inputs, "policy")
    constraints = _load(args.constraints, parse_constraints, inputs, "constraints")
    idx = evaluate(state, _constraint_roles(constraints))
    verdicts = []
    for q in constraints:
        got = check_constraint(state, q, idx)
        verdicts.append(
            {"id": q.id, "satisfied": got.satisfied, "violators": _names(got.violators)}
        )
    violated = any(not v["satisfied"] for v in verdicts)
    return _report("check", inputs, {"constraints": verdicts}, _exit_code(violated))


def cmd_deps(args) -> dict:
    inputs: dict = {}
    state = _load(args.policy, parse_policy, inputs, "policy")
    constraints = _load(args.constraints, parse_constraints, inputs, "constraints")
    idx = evaluate(state, _constraint_roles(constraints))
    # The state keeps its whole-state worklist, so one run serves the
    # supports and, when asked for, every member's supports.
    js = justified_semantics(state) if args.all_supports else None
    verdicts = []
    violated = False
    for q in constraints:
        got = check_constraint(state, q, idx)
        entry: dict = {
            "id": q.id,
            "satisfied": got.satisfied,
            "gamma": _texts(gamma_expr(state, q.lhs, idx)),
        }
        if got.satisfied:
            members = eval_expr(idx, q.lhs)
            entry["support"] = _texts(support_for_constraint(state, members, q.rhs))
            if js is not None:
                found: dict = {}
                for role in roles_of(q.rhs):
                    for e in js.for_role(role):
                        found.setdefault(e.member, set()).add(tuple(_texts(e.support)))
                entry["all_supports"] = {
                    m.name: sorted(found.get(m, ())) for m in sorted(members, key=str)
                }
                # The right side's supports are built from its cone alone.
                rhs_cone = gamma_expr(state, q.rhs, idx)
                entry["all_supports_truncated"] = not js.truncated_roles.isdisjoint(rhs_cone)
        else:
            violated = True
            entry["support"] = None
            entry["violators"] = _names(got.violators)
        verdicts.append(entry)
    return _report("deps", inputs, {"constraints": verdicts}, _exit_code(violated))


def cmd_analyze(args) -> dict:
    inputs: dict = {}
    state = _load(args.policy, parse_policy, inputs, "policy")
    constraints = _load(args.constraints, parse_constraints, inputs, "constraints")
    monitor = _load(args.monitor, parse_monitor, inputs, "monitor")
    g = monitor.growth_trusted
    mode = RestrictedTrust(monitor)
    verdicts = []
    for q in constraints:
        rec = register(state, q, mode)
        holds = rec.status is RecordStatus.HOLDING
        entry: dict = {
            "id": q.id,
            "holds": holds,
            "witnesses": _names(rec.violators),
            "gamma_restricted": _texts(
                rec.gamma_cache if holds else gamma_restricted_expr(state, g, q.lhs)
            ),
            "support": _texts(rec.support_cache) if holds else None,
            "established": holds,
        }
        if not holds:
            # The support search, in name order, stops at the least witness.
            entry["unsupported_member"] = min(rec.violators, key=str).name
        verdicts.append(entry)
    listed = state.roles if g is EVERY_ROLE else g
    result = {"core": _texts(listed - core(state, g).expelled), "constraints": verdicts}
    held = all(v["holds"] for v in verdicts)
    return _report("analyze", inputs, result, EXIT_OK if held else EXIT_UNESTABLISHED)


def cmd_monitor(args) -> dict:
    inputs: dict = {}
    state = _load(args.policy, parse_policy, inputs, "policy")
    constraints = _load(args.constraints, parse_constraints, inputs, "constraints")
    log = _load(args.changelog, parse_changelog, inputs, "changelog")
    mode: MonitorMode
    if args.monitor:
        if args.credential_support:
            raise _InputError(
                "<flags>", "--credential-support cannot be combined with a role monitor"
            )
        mode = RestrictedTrust(_load(args.monitor, parse_monitor, inputs, "monitor"))
        mode_name = "restricted-trust"
    elif args.credential_support:
        mode = FullTrustCredential()
        mode_name = "full-trust-credential"
    else:
        mode = FullTrust()
        mode_name = "full-trust"

    session = run_session(state, [(q, mode) for q in constraints], log)

    # Echo the registration outcome so a pre-violated constraint is visible
    # even when the log never touches it.
    initial = [
        {
            "id": rec.constraint.id,
            "status": rec.status.value,
            "violators": _names(rec.violators),
        }
        for rec in session.initial
    ]

    warnings = []
    for w in session.warnings:
        if args.quiet_holds and w.outcome is WarningOutcome.STILL_HOLDS:
            continue
        warnings.append(
            {
                "constraint": w.constraint_id,
                "cause": w.cause.value,
                "event": str(w.event),
                "outcome": w.outcome.value,
                "violators": _names(w.violators),
                "recomputed": w.recomputed,
                "noop": w.noop,
            }
        )

    violated = any(
        w.outcome in (WarningOutcome.NOW_VIOLATED, WarningOutcome.BOUND_NOW_VIOLATED)
        for w in session.warnings
    ) or any(e["status"] in ("violated", "bound-violated") for e in initial)

    result = {
        "mode": mode_name,
        "initial": initial,
        "warnings": warnings,
        "final_state": [line for line in serialize_policy(session.final_state).splitlines()],
        "final_records": [
            {
                "id": rec.constraint.id,
                "status": rec.status.value,
                "gamma": None if rec.gamma_cache is None else _texts(rec.gamma_cache),
                "support": None if rec.support_cache is None else _texts(rec.support_cache),
            }
            for rec in session.records
        ],
    }
    report = _report("monitor", inputs, result, _exit_code(violated))
    if args.out:
        _write(args.out, serialize_policy(session.final_state))
    return report


def _report(command: str, inputs: dict, result: dict, exit_code: int) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "result": result,
        "exit_code": exit_code,
    }


def _render_human(report: dict) -> str:
    command = report["command"]
    result = report["result"]
    lines: list[str] = []
    if command == "query":
        lines.extend(result["members"])
    elif command in ("check", "deps"):
        for v in result["constraints"]:
            verdict = "satisfied" if v["satisfied"] else f"violated [{', '.join(v['violators'])}]"
            lines.append(f"{v['id']}: {verdict}")
            if command == "check":
                continue
            lines.append(f"  gamma: {', '.join(v['gamma']) or '(empty)'}")
            if v["support"] is not None:
                lines.append(f"  support: {', '.join(v['support']) or '(empty)'}")
            for member, supports in v.get("all_supports", {}).items():
                rendered = ", ".join("{" + ", ".join(s) + "}" for s in supports)
                lines.append(f"  supports for {member}: {rendered}")
            if "all_supports_truncated" in v:
                lines.append(
                    f"  all supports: truncated at {DEFAULT_SUPPORT_CAP} per role and member"
                    if v["all_supports_truncated"]
                    else "  all supports: complete"
                )
    elif command == "analyze":
        lines.append(f"core: {', '.join(result['core']) or '(empty)'}")
        for v in result["constraints"]:
            verdict = "bound holds" if v["holds"] else (
                f"bound violated [{', '.join(v['witnesses'])}]"
            )
            lines.append(f"{v['id']}: {verdict}")
            lines.append(
                f"  gamma-restricted: {', '.join(v['gamma_restricted']) or '(empty)'}"
            )
            if v["established"]:
                lines.append(f"  support: {', '.join(v['support']) or '(empty)'}")
            else:
                lines.append("  support: unestablished")
    elif command == "monitor":
        for e in result["initial"]:
            tail = f" [{', '.join(e['violators'])}]" if e["violators"] else ""
            lines.append(f"{e['id']}: {e['status']}{tail}")
        for w in result["warnings"]:
            tail = f": {', '.join(w['violators'])}" if w["violators"] else ""
            suffix = " (recomputed)" if w["recomputed"] else ""
            lines.append(
                f"warning {w['constraint']} {w['cause']} [{w['event']}]"
                f" -> {w['outcome']}{tail}{suffix}"
            )
        for rec in result["final_records"]:
            if rec["support"] is not None:
                lines.append(f"{rec['id']} support: {', '.join(rec['support']) or '(empty)'}")
        lines.append(f"final state: {len(result['final_state'])} statements")
    return "".join(line + "\n" for line in lines)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rtmon",
        description="Role-based trust policies with integrity-constraint monitoring",
    )
    top.add_argument(
        "--format", choices=("human", "machine"), default="human",
        help="report format (machine = one JSON document)",
    )
    top.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the report to FILE (for 'monitor': write the final policy state)",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("query", help="evaluate a role expression against a policy")
    p.add_argument("policy")
    p.add_argument("expr")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("check", help="check constraints against a policy")
    p.add_argument("policy")
    p.add_argument("constraints")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("deps", help="print growth sets and supports per constraint")
    p.add_argument("policy")
    p.add_argument("constraints")
    p.add_argument("--all-supports", action="store_true", dest="all_supports")
    p.set_defaults(func=cmd_deps)

    p = sub.add_parser("analyze", help="conservative containment under a role monitor")
    p.add_argument("policy")
    p.add_argument("constraints")
    p.add_argument("monitor")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("monitor", help="replay a change log and stream warnings")
    p.add_argument("policy")
    p.add_argument("constraints")
    p.add_argument("changelog")
    p.add_argument("monitor", nargs="?", default=None)
    p.add_argument("--credential-support", action="store_true", dest="credential_support")
    p.add_argument("--quiet-holds", action="store_true", dest="quiet_holds")
    p.set_defaults(func=cmd_monitor)
    return top


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except _InputError as exc:
        print(f"rtmon: error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:
        # A crash must not exit 1, which means "violated".
        print(f"rtmon: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


def _run(args) -> int:
    report = args.func(args)
    if args.format == "machine":
        text = json.dumps(report, indent=2) + "\n"
    else:
        text = _render_human(report)
    if args.out and report["command"] != "monitor":
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return report["exit_code"]


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
