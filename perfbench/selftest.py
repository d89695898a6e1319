"""Self-tests of the benchmark: generators and reference checker.

Run from the root of a checkout:

    python3 perfbench/selftest.py

The functions are also collectable by pytest (``pytest perfbench/selftest.py``).
"""

from __future__ import annotations

import copy
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import ref  # noqa: E402

_SAME_MIX = ("statements", "principals", "events", "planned_quiet", "planned_crossing",
             "fresh_principals")


def _digest_in_subprocess(name: str, seed: int, hash_seed: str) -> str:
    code = (
        "import hashlib, sys; sys.path.insert(0, sys.argv[1]); import gen; "
        "w = gen.generate(sys.argv[2], int(sys.argv[3])); "
        "print(hashlib.sha256(repr(sorted(w.texts().items())).encode()).hexdigest())"
    )
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run([sys.executable, "-c", code, str(HERE), name, str(seed)],
                         env=env, capture_output=True, text=True, check=True, timeout=60)
    return out.stdout.strip()


def test_same_seed_gives_identical_inputs():
    for name in gen.GENERATORS:
        assert gen.generate(name, 7).texts() == gen.generate(name, 7).texts(), name
        # Independent of string hashing, so of PYTHONHASHSEED.
        digests = {_digest_in_subprocess(name, 7, h) for h in ("0", "1", "12345")}
        assert len(digests) == 1, name


def test_other_seed_gives_other_inputs_with_same_mix():
    for name in gen.GENERATORS:
        a, b = gen.generate(name, 1), gen.generate(name, 2)
        assert a.texts()["changelog"] != b.texts()["changelog"], name
        assert a.texts()["policy"] != b.texts()["policy"], name
        for key in _SAME_MIX:
            assert a.mix[key] == b.mix[key], (name, key)


def test_mix_has_enough_samples():
    for name in gen.GENERATORS:
        mix = gen.generate(name, 3).mix
        assert mix["planned_quiet"] >= 1000, name
        assert mix["planned_crossing"] >= 100, name


def _program_outputs(w: gen.Workload, n_events: int):
    """Warnings by event index and the final statements, from the program."""
    from rtmon import monitor, parser

    texts = w.texts()
    state = parser.parse_policy(texts["policy"])
    constraints = parser.parse_constraints(texts["constraints"])
    events = parser.parse_changelog(texts["changelog"])[:n_events]
    if w.mode == "full":
        mode = monitor.FullTrust()
    elif w.mode == "credential":
        mode = monitor.FullTrustCredential()
    else:
        mode = monitor.RestrictedTrust(parser.parse_monitor(texts["monitor"]))
    session = monitor.run_session(state, [(q, mode) for q in constraints], events)
    index = {id(ev): i for i, ev in enumerate(events)}
    warnings: dict[int, list] = {}
    for wn in session.warnings:
        warnings.setdefault(index[id(wn.event)], []).append(
            (wn.constraint_id, wn.outcome.value, sorted(p.name for p in wn.violators)))
    return warnings, [str(s) for s in session.final_state.statements]


def _first_with(warnings: dict, outcome: str) -> tuple[int, int]:
    for i in sorted(warnings):
        for k, wn in enumerate(warnings[i]):
            if wn[1] == outcome:
                return i, k
    raise AssertionError(f"no {outcome} warning in the prefix")


def test_checker_accepts_the_program_and_rejects_planted_errors():
    w = gen.generate("org_churn", 5)
    n = 400
    warnings, final = _program_outputs(w, n)
    checker = ref.Checker(w)
    checker.check_replay(n, warnings, final, sample_seed=5)
    assert checker.failures == []

    # A warning claiming a violation that the reference does not see.
    planted = copy.deepcopy(warnings)
    i, k = _first_with(planted, "still-holds")
    cid, _, _ = planted[i][k]
    planted[i][k] = (cid, "now-violated", ["E1"])
    checker = ref.Checker(w)
    checker.check_replay(n, planted, final, sample_seed=5)
    assert any(f.startswith(f"event {i} ") for f in checker.failures)

    # A real violation with a wrong violator set.
    planted = copy.deepcopy(warnings)
    i, k = _first_with(planted, "now-violated")
    cid, outcome, names = planted[i][k]
    planted[i][k] = (cid, outcome, names + ["Nobody"])
    checker = ref.Checker(w)
    checker.check_replay(n, planted, final, sample_seed=5)
    assert any(f.startswith(f"event {i} ") for f in checker.failures)

    # A final state with one statement lost and one invented.
    checker = ref.Checker(w)
    checker.check_replay(n, warnings, final[1:] + ["Hub1.orgs <- Nowhere"], sample_seed=5)
    assert any(f.startswith("final state differs") for f in checker.failures)


def test_checker_rejects_unsound_restricted_bound():
    w = gen.generate("org_restricted", 5)
    n = 300
    warnings, final = _program_outputs(w, n)
    checker = ref.Checker(w)
    checker.check_replay(n, warnings, final, sample_seed=5)
    assert checker.failures == []
    # Plant an org the registry does not know, with a cleared staff member,
    # in the policy the checker replays: the program's "still-holds"
    # (bound holds) must then fail, since a holding bound implies that the
    # exact constraint holds.
    i, k = _first_with(warnings, "still-holds")
    hub = next(c for c in w.constraints if c[0] == warnings[i][k][0])[1]
    extra = [("m", hub, "orgs", "Rogue"), ("m", "Rogue", "staff", "Intruder"),
             ("m", "Rogue", "cleared", "Intruder")]
    planted = copy.deepcopy(w)
    planted.policy = w.policy + extra
    checker = ref.Checker(planted)
    checker.check_replay(n, warnings, final + [gen.stmt_text(s) for s in extra], sample_seed=5)
    assert any(f.startswith(f"event {i} ") for f in checker.failures)


def test_checker_rejects_wrong_cli_report():
    w = gen.generate("org_churn", 5)
    report = {
        "exit_code": 0,
        "result": {
            "initial": [{"id": c[0], "status": "holding", "violators": []} for c in w.constraints],
            "warnings": [],
            "final_state": [gen.stmt_text(s) for s in w.policy],
        },
    }
    checker = ref.Checker(w)
    checker.check_cli(report, 0)
    assert checker.failures == []
    checker.check_cli(report, 1)
    assert len(checker.failures) == 1
    bad = copy.deepcopy(report)
    bad["result"]["initial"][0]["status"] = "violated"
    checker = ref.Checker(w)
    checker.check_cli(bad, 0)
    assert checker.failures


def test_tracer_marks_a_missing_function_absent():
    import rtmon.monitor
    import spans

    saved = list(spans.TARGETS)
    spans.TARGETS[:] = [t if t[0] != "engine.evaluate" else (t[0], t[1], "evaluate_gone", t[3])
                        for t in saved]
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.absent == ["engine.evaluate"]
    finally:
        tracer.uninstall()
        spans.TARGETS[:] = saved
    assert rtmon.monitor.register.__name__ == "register"
    metrics = spans.layer_metrics(tracer, 1, [], 0.0)
    assert metrics["engine.evaluate_calls"]["value"] is None
    assert metrics["monitor.register_calls"]["value"] == 0


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
