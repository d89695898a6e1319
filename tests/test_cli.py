import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import rtmon.analysis
import rtmon.cli
import rtmon.deps
import rtmon.engine
import rtmon.monitor
import rtmon.parser
from rtmon.analysis import check_bounded_containment, core, gamma_restricted_expr
from rtmon.cli import main
from rtmon.deps import NoSupport, support_for_constraint
from rtmon.model import EVERY_ROLE, RoleMonitor
from rtmon.monitor import RecordStatus, RestrictedTrust, register
from rtmon.parser import (
    parse_constraints,
    parse_monitor,
    parse_policy,
    serialize_constraint,
    serialize_monitor,
    serialize_policy,
)

from helpers import count_calls, count_saturations, role
from randgen import biased_satisfied_constraint, random_constraint, random_monitor, random_state

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def in_fixtures(monkeypatch):
    monkeypatch.chdir(FIXTURES)


def run(capsys, *args):
    rc = main(list(args))
    return rc, capsys.readouterr().out


class TestQuery:
    def test_role_members_sorted(self, in_fixtures, capsys):
        rc, out = run(capsys, "query", "hazmat.rt", "ATF.hazmatTraining")
        assert rc == 0
        assert out == "Burke\nOConnel\nRollins\n"

    def test_empty_role(self, in_fixtures, capsys):
        rc, out = run(capsys, "query", "hazmat.rt", "Emergency.hazmatPersonnel")
        assert rc == 0
        assert out == ""

    def test_static_expression(self, in_fixtures, capsys):
        rc, out = run(capsys, "query", "hazmat.rt", "{Alice}")
        assert rc == 0
        assert out == "Alice\n"

    def test_parse_failure_exits_2(self, in_fixtures, capsys):
        rc, _ = run(capsys, "query", "hazmat.rt", "not an expression !")
        assert rc == 2

    def test_missing_file_exits_2(self, in_fixtures, capsys):
        rc, _ = run(capsys, "query", "no_such_file.rt", "A.r")
        assert rc == 2


class TestCheck:
    def test_satisfied(self, in_fixtures, capsys):
        rc, out = run(capsys, "check", "hazmat.rt", "hazmat.cst")
        assert rc == 0
        assert "c1: satisfied" in out

    def test_violation_exits_1(self, in_fixtures, capsys, tmp_path):
        extended = (FIXTURES / "hazmat.rt").read_text() + (
            "Police.responsePersonnel <- Rollins\n"
            "Police.responsePersonnel <- Burke\n"
        )
        policy = tmp_path / "extended.rt"
        policy.write_text(extended)
        rc, out = run(capsys, "check", str(policy), "hazmat.cst")
        assert rc == 1
        assert "c1: violated [Burke]" in out

    def test_evaluates_once_for_every_constraint(self, in_fixtures, capsys, monkeypatch):
        saturations = count_saturations(monkeypatch)
        rc, out = run(capsys, "check", "multi.rt", "multi.cst")
        assert rc == 1
        assert out.count(": satisfied") == 3
        # One cone for every constraint, found while it is evaluated: the
        # walk of Org.staff <- Org.dept.member to Sales and Labs needs no
        # second evaluation.
        assert [kind for kind, _ in saturations] == ["cone"]

    def test_empty_constraints_file(self, in_fixtures, capsys, tmp_path):
        empty = tmp_path / "none.cst"
        empty.write_text("")
        rc, out = run(capsys, "check", "hazmat.rt", str(empty))
        assert rc == 0
        assert out == ""


class TestDeps:
    @pytest.mark.parametrize("n_members", [1, 6])
    def test_all_supports_saturate_once_per_constraint(
        self, capsys, tmp_path, monkeypatch, n_members
    ):
        policy = tmp_path / "members.rt"
        policy.write_text(
            "A.r <- B.r\nA.r <- C.r\n"
            + "".join(f"B.r <- M{i}\nC.r <- M{i}\n" for i in range(n_members))
        )
        constraints = tmp_path / "members.cst"
        constraints.write_text("constraint q owner A: A.r <= A.r | B.r\n")
        runs = count_calls(monkeypatch, rtmon.deps._worklist)
        rc, out = run(
            capsys, "--format", "machine", "deps", str(policy), str(constraints), "--all-supports"
        )
        assert rc == 0
        supports = json.loads(out)["result"]["constraints"][0]["all_supports"]
        assert supports == {
            f"M{i}": [["A.r", "B.r"], ["A.r", "C.r"], ["B.r"]] for i in range(n_members)
        }
        # One run serves the support and every member's supports.
        assert len(runs) == 1

    def test_verdicts_name_the_violators_as_check_does(self, in_fixtures, capsys):
        outs = [run(capsys, verb, "multi.rt", "multi.cst") for verb in ("check", "deps")]
        assert [rc for rc, _ in outs] == [1, 1]
        checked, deps = (
            [line for line in out.splitlines() if not line.startswith(" ")] for _, out in outs
        )
        assert deps == checked
        assert "c4: violated [Bob]" in deps

    def test_all_supports_saturate_once_per_run(self, in_fixtures, capsys, monkeypatch):
        runs = count_calls(monkeypatch, rtmon.deps._worklist)
        saturations = count_saturations(monkeypatch)
        for flags in ([], ["--all-supports"]):
            del runs[:], saturations[:]
            rc, out = run(capsys, "deps", "multi.rt", "multi.cst", *flags)
            assert rc == 1
            assert out.count(": satisfied") == 3
            # One shared run for every support and, with the flag, for every
            # member's supports.
            assert len(runs) == 1, flags
            # One evaluation of the cone of every constraint.
            assert [kind for kind, _ in saturations] == ["cone"]

    def test_all_supports_report_a_truncation_by_the_cap(self, capsys, tmp_path):
        # A width-4 intersection whose parts have two disjoint alternatives
        # each: 16 minimal supports for M, twice the default cap.
        policy = tmp_path / "wide.rt"
        policy.write_text(
            "A.w <- A.p0 & A.p1 & A.p2 & A.p3\n"
            + "".join(f"A.p{k} <- S{k}{j}.x\nS{k}{j}.x <- M\n" for k in range(4) for j in range(2))
        )
        constraints = tmp_path / "wide.cst"
        constraints.write_text("constraint q owner A: A.w <= A.w\n")
        exact = rtmon.deps.justified_semantics(
            rtmon.parser.parse_policy(policy.read_text()), max_entries_per_member=None
        )
        assert not exact.truncated
        assert len(exact.for_role(role("A.w"))) == 16

        rc, out = run(
            capsys, "--format", "machine", "deps", str(policy), str(constraints), "--all-supports"
        )
        assert rc == 0
        result = json.loads(out)["result"]
        assert result["constraints"][0]["all_supports_truncated"] is True
        kept = result["constraints"][0]["all_supports"]["M"]
        assert len(kept) == rtmon.deps.DEFAULT_SUPPORT_CAP
        for support in kept:
            chosen = [[f"S{k}{j}.x" in support for j in range(2)] for k in range(4)]
            assert all(sum(picks) == 1 for picks in chosen)
            assert set(support) - {f"S{k}{j}.x" for k in range(4) for j in range(2)} == {
                "A.w", "A.p0", "A.p1", "A.p2", "A.p3"
            }

        rc, out = run(capsys, "deps", str(policy), str(constraints), "--all-supports")
        assert rc == 0
        assert out.splitlines()[-1] == "  all supports: truncated at 8 per role and member"

    def test_all_supports_flag_each_constraint_whose_right_side_was_cut(
        self, capsys, tmp_path
    ):
        # The intersection above beside a role with one support: only the
        # constraints whose right side reads the intersection were cut.
        policy = tmp_path / "wide.rt"
        policy.write_text(
            "A.w <- A.p0 & A.p1 & A.p2 & A.p3\n"
            + "".join(f"A.p{k} <- S{k}{j}.x\nS{k}{j}.x <- M\n" for k in range(4) for j in range(2))
            + "B.r <- N\nC.r <- A.w\n"
        )
        constraints = tmp_path / "wide.cst"
        constraints.write_text(
            "constraint b owner B: B.r <= B.r\n"
            "constraint w owner A: A.w <= A.w\n"
            "constraint c owner C: B.r <= B.r | C.r\n"
        )
        rc, out = run(
            capsys, "--format", "machine", "deps", str(policy), str(constraints), "--all-supports"
        )
        assert rc == 0
        result = json.loads(out)["result"]
        assert "all_supports_truncated" not in result
        flags = {v["id"]: v["all_supports_truncated"] for v in result["constraints"]}
        assert flags == {"b": False, "w": True, "c": True}
        assert result["constraints"][0]["all_supports"] == {"N": [["B.r"]]}

        rc, out = run(capsys, "deps", str(policy), str(constraints), "--all-supports")
        assert rc == 0
        assert [line for line in out.splitlines() if "all supports" in line] == [
            "  all supports: complete",
            "  all supports: truncated at 8 per role and member",
            "  all supports: truncated at 8 per role and member",
        ]

    def test_all_supports_say_when_nothing_was_cut(self, in_fixtures, capsys):
        rc, out = run(capsys, "deps", "redundant.rt", "redundant.cst", "--all-supports")
        assert rc == 0
        assert out.splitlines()[-1] == "  all supports: complete"
        rc, out = run(capsys, "deps", "redundant.rt", "redundant.cst")
        assert "all supports" not in out
        rc, out = run(capsys, "--format", "machine", "deps", "redundant.rt", "redundant.cst")
        assert "all_supports_truncated" not in json.loads(out)["result"]["constraints"][0]


class TestAnalyze:
    def test_wildcard_growth_bound_holds(self, in_fixtures, capsys):
        rc, out = run(capsys, "analyze", "hazmat.rt", "hazmat.cst", "hazmat.mon")
        assert rc == 0
        assert "c1: bound holds" in out

    def test_unestablished_without_shrink_trust_exits_3(self, in_fixtures, capsys, tmp_path):
        mon = tmp_path / "empty_shrink.mon"
        mon.write_text("growth-trusted: *\n")
        rc, out = run(capsys, "analyze", "support_shift.rt", "support_shift.cst", str(mon))
        assert rc == 3
        assert "unestablished" in out

    def test_bounds_and_core_once_per_state(self, in_fixtures, capsys, tmp_path, monkeypatch):
        cst = tmp_path / "two.cst"
        cst.write_text(
            "constraint c1 owner Emergency: Emergency.hazmatPersonnel <= ATF.hazmatDB\n"
            "constraint c2 owner Emergency: Emergency.responsePersonnel <= ATF.hazmatTraining\n"
        )
        saturations = count_saturations(monkeypatch)
        cores = count_calls(monkeypatch, rtmon.analysis.CoreSet)
        rc, out = run(capsys, "analyze", "hazmat.rt", str(cst), "hazmat.mon")
        assert rc == 0
        assert "c1: bound holds" in out and "c2: bound holds" in out
        # One lower and one upper bound of the state, and one core read off
        # the upper bound, for both constraints.
        assert sorted(kind for kind, _ in saturations) == ["lower", "upper"]
        assert len(cores) == 1

    def test_fully_trusted_monitor_collapses_to_check(self, in_fixtures, capsys, tmp_path):
        mon = tmp_path / "star.mon"
        mon.write_text("growth-trusted: *\nshrink-trusted: *\n")
        rc, out = run(
            capsys, "--format", "machine",
            "analyze", "support_shift.rt", "support_shift.cst", str(mon),
        )
        analyze_report = json.loads(out)
        rc2, out2 = run(
            capsys, "--format", "machine", "check", "support_shift.rt", "support_shift.cst"
        )
        check_report = json.loads(out2)
        for a, c in zip(
            analyze_report["result"]["constraints"], check_report["result"]["constraints"]
        ):
            assert a["holds"] == c["satisfied"]
        assert rc == rc2 == 0

    def test_an_entry_is_established_exactly_when_its_bound_holds(self, capsys, tmp_path):
        # The support is sought over the shrink-trusted heads, so it exists
        # exactly for the right side's lower-bound members, and a witness of
        # a violated bound has none: analyze exits 3 or 0, never 1.
        rng = random.Random(761)
        policy, constraints, monitor = (tmp_path / name for name in ("p.rt", "q.cst", "m.mon"))
        runs: Counter = Counter()
        for _ in range(300):
            p = random_state(rng)
            queries = [
                (biased_satisfied_constraint if rng.random() < 0.6 else random_constraint)(
                    rng, p, f"q{i}"
                )
                for i in range(2)
            ]
            policy.write_text(serialize_policy(p))
            constraints.write_text("".join(serialize_constraint(q) + "\n" for q in queries))
            monitor.write_text(serialize_monitor(random_monitor(rng, p, 0.8, 0.6)))
            rc, out = run(
                capsys, "--format", "machine",
                "analyze", str(policy), str(constraints), str(monitor),
            )
            entries = json.loads(out)["result"]["constraints"]
            assert [e["established"] for e in entries] == [e["holds"] for e in entries]
            violated = not all(e["holds"] for e in entries)
            assert rc == (3 if violated else 0)
            runs[violated] += 1
        assert runs[True] >= 50 and runs[False] >= 50


def _entry_from_record(p, q, monitor) -> dict:
    """The ``analyze`` entry of ``q``, read off what registering it under
    restricted trust records, with the restricted growth set of a violated
    bound, which no record keeps."""
    rec = register(p, q, RestrictedTrust(monitor))
    holds = rec.status is RecordStatus.HOLDING
    growth = rec.gamma_cache if holds else gamma_restricted_expr(p, monitor.growth_trusted, q.lhs)
    entry = {
        "id": q.id,
        "holds": holds,
        "witnesses": sorted(m.name for m in rec.violators),
        "gamma_restricted": sorted(str(r) for r in growth),
        "support": sorted(str(r) for r in rec.support_cache) if holds else None,
        "established": holds,
    }
    if not holds:
        entry["unsupported_member"] = min(rec.violators, key=str).name
    return entry


def _analyze_cases(rng, n):
    """Every fixture under its own monitor, when it has one, and under
    growth-only, full and random monitors; then ``n`` random states, each
    with two random constraints and a random monitor."""
    for rt in sorted(FIXTURES.glob("*.rt")):
        p = parse_policy(rt.read_text(encoding="utf-8"))
        constraints = parse_constraints(rt.with_suffix(".cst").read_text(encoding="utf-8"))
        monitors = [RoleMonitor(EVERY_ROLE), RoleMonitor(EVERY_ROLE, EVERY_ROLE)]
        monitors += [random_monitor(rng, p, 0.8, 0.6) for _ in range(4)]
        if rt.with_suffix(".mon").exists():
            monitors.append(parse_monitor(rt.with_suffix(".mon").read_text(encoding="utf-8")))
        for monitor in monitors:
            yield p, constraints, monitor
    for _ in range(n):
        p = random_state(rng)
        yield p, [random_constraint(rng, p, f"q{i}") for i in range(2)], random_monitor(rng, p)


class TestAnalyzeReportsTheRecord:
    def test_each_entry_is_what_register_records(self, capsys, tmp_path):
        policy, constraints, monitor = (tmp_path / name for name in ("p.rt", "q.cst", "m.mon"))
        runs: Counter = Counter()
        for p, queries, mon in _analyze_cases(random.Random(2917), 500):
            policy.write_text(serialize_policy(p))
            constraints.write_text("".join(serialize_constraint(q) + "\n" for q in queries))
            monitor.write_text(serialize_monitor(mon))
            rc, out = run(
                capsys, "--format", "machine",
                "analyze", str(policy), str(constraints), str(monitor),
            )
            result = json.loads(out)["result"]
            want = [_entry_from_record(p, q, mon) for q in queries]
            assert result["constraints"] == want
            g = mon.growth_trusted
            listed = p.roles if g is EVERY_ROLE else g
            assert result["core"] == sorted(str(r) for r in listed if r in core(p, g))
            assert rc == (0 if all(e["holds"] for e in want) else 3)
            runs.update(e["holds"] for e in want)
        assert runs[True] >= 200 and runs[False] >= 200

    def test_the_support_exists_exactly_when_the_bound_holds(self):
        # The support is sought over the shrink-trusted heads, so it exists
        # exactly for the right side's lower-bound members: the first
        # member, in name order, without one is the least witness.
        runs: Counter = Counter()
        for p, queries, monitor in _analyze_cases(random.Random(2918), 500):
            for q in queries:
                chk = check_bounded_containment(p, monitor, q)
                try:
                    support_for_constraint(p, chk.lhs_upper, q.rhs, monitor.shrink_trusted)
                except NoSupport as exc:
                    assert not chk.holds
                    assert exc.member == min(chk.witnesses, key=str)
                else:
                    assert chk.holds
                runs[chk.holds] += 1
        assert runs[True] >= 200 and runs[False] >= 200


class TestMonitor:
    def test_hazmat_run_exits_1(self, in_fixtures, capsys):
        rc, out = run(capsys, "monitor", "hazmat.rt", "hazmat.cst", "hazmat.changes")
        assert rc == 1
        assert "still-holds" in out
        assert "now-violated: Burke" in out

    def test_quiet_holds_suppresses_still_holds(self, in_fixtures, capsys):
        rc, out = run(
            capsys, "monitor", "hazmat.rt", "hazmat.cst", "hazmat.changes", "--quiet-holds"
        )
        assert rc == 1
        assert "still-holds" not in out
        assert "now-violated" in out

    def test_untouched_roles_stay_silent(self, in_fixtures, capsys, tmp_path):
        log = tmp_path / "quiet.changes"
        log.write_text("+ Navy.fleet <- Kim\n- Navy.fleet <- Lee\n")
        rc, out = run(capsys, "monitor", "hazmat.rt", "hazmat.cst", str(log))
        assert rc == 0
        assert "warning" not in out

    def test_out_writes_final_state(self, in_fixtures, capsys, tmp_path):
        out_file = tmp_path / "final.rt"
        rc, _ = run(
            capsys,
            "--out", str(out_file),
            "monitor", "hazmat.rt", "hazmat.cst", "hazmat.changes",
        )
        assert rc == 1
        text = out_file.read_text()
        assert "Police.responsePersonnel <- Burke" in text
        lines = text.splitlines()
        assert lines == sorted(lines)

    def test_credential_mode_with_monitor_file_is_an_error(self, in_fixtures, capsys):
        rc, _ = run(
            capsys,
            "monitor", "hazmat.rt", "hazmat.cst", "hazmat.changes", "hazmat.mon",
            "--credential-support",
        )
        assert rc == 2

    def test_credential_mode_runs(self, in_fixtures, capsys):
        rc, out = run(
            capsys,
            "--format", "machine",
            "monitor", "redundant.rt", "redundant.cst", "redundant.changes",
            "--credential-support",
        )
        report = json.loads(out)
        assert report["result"]["mode"] == "full-trust-credential"
        assert report["exit_code"] == 0

    def test_support_side_removal_recomputes(self, in_fixtures, capsys):
        rc, out = run(capsys, "monitor", "redundant.rt", "redundant.cst", "redundant.changes")
        assert rc == 0
        assert "support-side-remove" in out
        assert "q1 support: A.r, C.r" in out

    def test_restricted_trust_session(self, in_fixtures, capsys, tmp_path):
        log = tmp_path / "quiet.changes"
        log.write_text("+ Navy.fleet <- Kim\n")
        rc, out = run(
            capsys, "--format", "machine",
            "monitor", "hazmat.rt", "hazmat.cst", str(log), "hazmat.mon",
        )
        report = json.loads(out)
        assert report["result"]["mode"] == "restricted-trust"
        assert report["result"]["initial"][0]["status"] == "holding"
        assert rc == report["exit_code"]


    def test_registers_each_constraint_once(self, in_fixtures, capsys, tmp_path, monkeypatch):
        real = rtmon.monitor.register
        calls = []

        def counted(p, q, mode, *shared):
            calls.append(q.id)
            return real(p, q, mode, *shared)

        monkeypatch.setattr(rtmon.monitor, "register", counted)
        constraints = tmp_path / "two.cst"
        constraints.write_text(
            "constraint c1 owner Emergency: Emergency.hazmatPersonnel <= ATF.hazmatDB\n"
            "constraint c2 owner ATF: ATF.hazmatDB <= ATF.hazmatTraining\n"
        )
        log = tmp_path / "empty.changes"
        log.write_text("")
        rc, out = run(capsys, "monitor", "hazmat.rt", str(constraints), str(log))
        assert rc == 0
        assert out.startswith("c1: holding\nc2: holding\n")
        assert calls == ["c1", "c2"]


class TestInternalErrors:
    def test_crash_exits_4_not_1(self, in_fixtures, capsys, monkeypatch):
        def crash(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(rtmon.cli, "evaluate", crash)
        rc = main(["query", "hazmat.rt", "ATF.hazmatDB"])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("rtmon: internal error: RecursionError")


class TestUnwritableOut:
    @pytest.mark.parametrize(
        "verb",
        [
            ["check", "hazmat.rt", "hazmat.cst"],
            ["monitor", "hazmat.rt", "hazmat.cst", "hazmat.changes"],
        ],
        ids=["check", "monitor"],
    )
    def test_missing_out_directory_is_an_input_error(self, in_fixtures, capsys, tmp_path, verb):
        out = tmp_path / "no_such_dir" / "out.txt"
        rc = main(["--out", str(out), *verb])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == f"rtmon: error: {out}: No such file or directory\n"

    def test_directory_as_out_is_an_input_error(self, in_fixtures, capsys, tmp_path):
        rc = main(["--out", str(tmp_path), "check", "hazmat.rt", "hazmat.cst"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith(f"rtmon: error: {tmp_path}: ")


_HAZMAT = {ext: str(FIXTURES / f"hazmat.{ext}") for ext in ("rt", "cst", "changes")}

# Per loader: the file a verb reads with it, a malformed line for it, the
# arguments naming that file, and the parser's position and message.
_MALFORMED_INPUTS = {
    "policy": (
        "bad.rt", "A.r <- B\nA.r <- 9\n",
        ["check", "bad.rt", _HAZMAT["cst"]],
        "2:8: expected principal name",
    ),
    "constraints": (
        "bad.cst", "constraint c1 owner A: A.r <= B.s\nconstraint c2 owner A: A.r <=\n",
        ["check", _HAZMAT["rt"], "bad.cst"],
        "2:30: expected role or principal set",
    ),
    "changelog": (
        "bad.changes", "+ A.r <- B\n- A.r <- \n",
        ["monitor", _HAZMAT["rt"], _HAZMAT["cst"], "bad.changes"],
        "2:10: expected principal name",
    ),
    "monitor": (
        "bad.mon", "growth-trusted: *\nshrink-trusted: A.\n",
        ["analyze", _HAZMAT["rt"], _HAZMAT["cst"], "bad.mon"],
        "2:19: expected role name",
    ),
}


class TestUnreadableInputs:
    @pytest.mark.parametrize("loader", sorted(_MALFORMED_INPUTS))
    def test_a_malformed_line_is_an_input_error_at_its_position(
        self, capsys, tmp_path, monkeypatch, loader
    ):
        name, text, argv, where = _MALFORMED_INPUTS[loader]
        monkeypatch.chdir(tmp_path)
        (tmp_path / name).write_text(text, encoding="utf-8")
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == f"rtmon: error: {name}: {where}\n"

    @pytest.mark.parametrize("loader", sorted(_MALFORMED_INPUTS))
    def test_a_file_that_is_not_utf8_is_an_input_error(self, capsys, tmp_path, monkeypatch, loader):
        name, _, argv, _ = _MALFORMED_INPUTS[loader]
        monkeypatch.chdir(tmp_path)
        (tmp_path / name).write_bytes(b"\xff\n")
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == f"rtmon: error: {name}: not valid UTF-8 (invalid start byte)\n"


_BOM = "\ufeff".encode()


class TestByteOrderMark:
    """A UTF-8 byte-order mark opening a document is dropped; anywhere else
    it is text the parser rejects."""

    ARGS = ["--format", "machine", "monitor", "multi.rt", "multi.cst", "multi.changes", "multi.mon"]
    LABELS = {"rt": "policy", "cst": "constraints", "changes": "changelog", "mon": "monitor"}

    @pytest.mark.parametrize("ext", sorted(LABELS))
    def test_a_leading_mark_leaves_the_report_but_the_digest(
        self, capsys, tmp_path, monkeypatch, ext
    ):
        monkeypatch.chdir(tmp_path)
        for fixture in FIXTURES.glob("multi.*"):
            (tmp_path / fixture.name).write_bytes(fixture.read_bytes())
        plain = json.loads(run(capsys, *self.ARGS)[1])
        marked_bytes = _BOM + (FIXTURES / f"multi.{ext}").read_bytes()
        (tmp_path / f"multi.{ext}").write_bytes(marked_bytes)
        marked = json.loads(run(capsys, *self.ARGS)[1])
        label = self.LABELS[ext]
        assert marked["inputs"][label]["sha256"] == hashlib.sha256(marked_bytes).hexdigest()
        assert marked["inputs"][label]["sha256"] != plain["inputs"][label]["sha256"]
        for report in (plain, marked):
            del report["inputs"][label]["sha256"]
        assert marked == plain
        assert marked["exit_code"] == 1 and marked["result"]["warnings"]

    @pytest.mark.parametrize(
        "text,where",
        [
            ("A.r <- B\ufeff\n", "1:9: unexpected trailing input"),
            ("A.r <-\ufeff B\n", "1:7: expected principal name"),
            ("A.r <- B\n\ufeffA.r <- C\n", "2:1: expected principal name"),
            ("\ufeff\ufeffA.r <- B\n", "1:1: expected principal name"),
        ],
    )
    def test_a_mark_after_the_first_byte_is_a_syntax_error(
        self, capsys, tmp_path, monkeypatch, text, where
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "marked.rt").write_text(text, encoding="utf-8")
        rc = main(["query", "marked.rt", "A.r"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == f"rtmon: error: marked.rt: {where}\n"


class TestLongExpressions:
    @pytest.mark.parametrize("verb", ["query", "check", "deps", "monitor"])
    def test_verbs_answer_on_a_1500_term_union(self, in_fixtures, capsys, tmp_path, verb):
        lhs = " | ".join(["ATF.hazmatDB"] * 1500)
        rhs = " | ".join(["ATF.hazmatTraining"] * 1500)
        constraints = tmp_path / "long.cst"
        constraints.write_text(f"constraint long owner ATF: {lhs} <= {rhs}\n")
        args = {
            "query": ["query", "hazmat.rt", lhs],
            "check": ["check", "hazmat.rt", str(constraints)],
            "deps": ["deps", "hazmat.rt", str(constraints), "--all-supports"],
            "monitor": ["monitor", "hazmat.rt", str(constraints), "hazmat.changes"],
        }[verb]
        rc, out = run(capsys, "--format", "machine", *args)
        assert rc == 0
        result = json.loads(out)["result"]
        if verb == "query":
            assert result["members"] == ["Rollins"]
            assert result["expr"] == lhs
        elif verb == "monitor":
            assert result["initial"][0]["status"] == "holding"
            assert result["final_records"][0]["support"] == ["ATF.hazmatTraining"]
        else:
            assert result["constraints"][0]["satisfied"]
        if verb == "deps":
            assert result["constraints"][0]["gamma"] == ["ATF.hazmatDB"]
            assert result["constraints"][0]["all_supports"] == {
                "Rollins": [["ATF.hazmatTraining"]]
            }


    @pytest.mark.parametrize("verb", ["query", "check"])
    def test_verbs_answer_on_1200_nested_parentheses(self, in_fixtures, capsys, tmp_path, verb):
        lhs = "(" * 1200 + "ATF.hazmatDB" + ")" * 1200
        constraints = tmp_path / "deep.cst"
        constraints.write_text(f"constraint deep owner ATF: {lhs} <= ATF.hazmatTraining\n")
        args = {
            "query": ["query", "hazmat.rt", lhs],
            "check": ["check", "hazmat.rt", str(constraints)],
        }[verb]
        rc, out = run(capsys, "--format", "machine", *args)
        assert rc == 0
        result = json.loads(out)["result"]
        if verb == "query":
            assert result["members"] == ["Rollins"]
            assert result["expr"] == "ATF.hazmatDB"
        else:
            assert result["constraints"][0]["satisfied"]


class TestReports:
    def test_out_writes_report_for_non_monitor_verbs(self, in_fixtures, capsys, tmp_path):
        report_file = tmp_path / "report.json"
        rc, out = run(
            capsys,
            "--format", "machine", "--out", str(report_file),
            "check", "hazmat.rt", "hazmat.cst",
        )
        assert rc == 0
        assert out == ""
        report = json.loads(report_file.read_text())
        assert report["command"] == "check"
        assert report["exit_code"] == 0

    def test_exit_code_matches_report_payload(self, in_fixtures, capsys):
        rc, out = run(capsys, "--format", "machine", "monitor",
                      "hazmat.rt", "hazmat.cst", "hazmat.changes")
        report = json.loads(out)
        assert report["exit_code"] == rc == 1


GOLDEN_CASES = [
    ("query_hazmat.json", ["query", "hazmat.rt", "ATF.hazmatTraining"]),
    ("check_hazmat.json", ["check", "hazmat.rt", "hazmat.cst"]),
    ("deps_redundant.json", ["deps", "redundant.rt", "redundant.cst", "--all-supports"]),
    ("analyze_hazmat.json", ["analyze", "hazmat.rt", "hazmat.cst", "hazmat.mon"]),
    ("monitor_hazmat.json", ["monitor", "hazmat.rt", "hazmat.cst", "hazmat.changes"]),
    (
        "monitor_support_shift.json",
        ["monitor", "support_shift.rt", "support_shift.cst", "support_shift.changes"],
    ),
    ("check_multi.json", ["check", "multi.rt", "multi.cst"]),
    ("deps_multi.json", ["deps", "multi.rt", "multi.cst", "--all-supports"]),
    ("monitor_multi.json", ["monitor", "multi.rt", "multi.cst", "multi.changes"]),
    (
        "monitor_multi_credential.json",
        ["monitor", "multi.rt", "multi.cst", "multi.changes", "--credential-support"],
    ),
    (
        "monitor_multi_restricted.json",
        ["monitor", "multi.rt", "multi.cst", "multi.changes", "multi.mon"],
    ),
    ("analyze_multi.json", ["analyze", "multi.rt", "multi.cst", "multi.mon"]),
    (
        "monitor_hazmat_restricted.json",
        ["monitor", "hazmat.rt", "hazmat.cst", "hazmat.changes", "hazmat.mon"],
    ),
]


@pytest.mark.parametrize("golden_name,args", GOLDEN_CASES, ids=[g for g, _ in GOLDEN_CASES])
def test_machine_reports_match_goldens(in_fixtures, capsys, golden_name, args):
    rc, out = run(capsys, "--format", "machine", *args)
    expected = (GOLDEN / golden_name).read_text()
    assert out == expected
    assert rc == json.loads(expected)["exit_code"]


def _python_m(module, *args):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        cwd=FIXTURES, env=env, capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("module", ["rtmon", "rtmon.cli"])
def test_python_m_missing_input_exits_2(module):
    proc = _python_m(module, "check", "missing.rt", "hazmat.cst")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "missing.rt" in proc.stderr


@pytest.mark.parametrize("module", ["rtmon", "rtmon.cli"])
def test_python_m_check_matches_golden(module):
    proc = _python_m(module, "--format", "machine", "check", "hazmat.rt", "hazmat.cst")
    assert proc.stdout == (GOLDEN / "check_hazmat.json").read_text()
    assert proc.returncode == 0
    assert proc.stderr == ""
