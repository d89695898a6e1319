"""One workload run, in a fresh single-threaded process started by run.py.

Usage: worker.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR

The run replays the generated change log through the pipeline ``rtmon
monitor`` uses: the ``parse_*`` functions, then ``run_session``, which is
handed a log iterator that stamps the clock on every pull.  The first pull
marks the end of set-up; event i's latency is the gap between pulling
event i and pulling event i+1 (closed loop: the next event is handed over
only when the previous one is done).  Whole replays of the log repeat until
they have taken ``--seconds`` in all.
Every time is also adjusted to a reference host speed (see speed.py).

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it replays half the log untraced and the whole log with layer spans (see
spans.py) and reports per-layer metrics.  Either way the replay is checked
against the naive reference in ref.py, after timing.  The last stdout line is the result
as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import ref  # noqa: E402
import speed  # noqa: E402
import spans  # noqa: E402

#: set-up-only repeats before and again after the replays of an untraced
#: run (one more set-up comes with each replay); spreading them over the
#: run averages out slow and fast periods of a shared host
SETUP_REPEATS = 2
#: CLI runs before and again after the replays of an untraced run
CLI_REPEATS = 2
#: events replayed untimed before measuring
WARMUP_EVENTS = 60


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import rtmon
    import rtmon.cli
    import rtmon.monitor
    import rtmon.parser

    where = Path(rtmon.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"rtmon imported from {where}, not from {src}")
    return rtmon


class Run:
    def __init__(self, w: gen.Workload, out_dir: Path):
        self.rtmon = _import_program()
        self.w = w
        self.texts = w.texts()
        self.inputs = out_dir / f"inputs-{w.name}"
        self.inputs.mkdir(parents=True, exist_ok=True)
        names = {"policy": "policy.rt", "constraints": "constraints.cst", "monitor": "monitor.mon"}
        self.paths = {}
        for key, fname in names.items():
            if key in self.texts:
                path = self.inputs / fname
                path.write_text(self.texts[key], encoding="utf-8")
                self.paths[key] = str(path)
        self.paths["empty_log"] = str(self.inputs / "empty.changes")
        Path(self.paths["empty_log"]).write_text("", encoding="utf-8")
        self.on_event = None
        self.speed: speed.Speed | None = None

    def _mode(self):
        monitor, parser = self.rtmon.monitor, self.rtmon.parser
        if self.w.mode == "full":
            return monitor.FullTrust()
        if self.w.mode == "credential":
            return monitor.FullTrustCredential()
        return monitor.RestrictedTrust(parser.parse_monitor(self.texts["monitor"]))

    def replay(self, n_events: int) -> dict:
        """Parse every input, register every constraint, replay n events.

        ``pulls[i]`` is when event i was asked for and ``starts[i]`` when it
        was handed over (a host speed probe may run in between), so event
        i took ``pulls[i + 1] - starts[i]`` and set-up ``pulls[0] - start``.
        """
        parser, monitor = self.rtmon.parser, self.rtmon.monitor
        pulls: list[float] = []
        starts: list[float] = []
        on_event, speed = self.on_event, self.speed
        clock = time.perf_counter

        def stamped(events):
            for i, ev in enumerate(events):
                now = clock()
                pulls.append(now)
                if speed is not None:
                    speed.maybe_probe(now)
                if on_event is not None:
                    on_event(i)
                starts.append(clock())
                yield ev
            pulls.append(clock())

        start = clock()
        state = parser.parse_policy(self.texts["policy"])
        constraints = parser.parse_constraints(self.texts["constraints"])
        events = parser.parse_changelog(self.texts["changelog"])
        mode = self._mode()
        session = monitor.run_session(state, [(q, mode) for q in constraints], stamped(events[:n_events]))
        return {
            "start": start,
            "pulls": pulls,
            "starts": starts,
            "events": events[:len(starts)],
            "session": session,
        }

    def cli(self) -> tuple[float, dict, int]:
        argv = ["--format", "machine", "monitor", self.paths["policy"], self.paths["constraints"],
                self.paths["empty_log"]]
        if "monitor" in self.paths:
            argv.append(self.paths["monitor"])
        if self.w.mode == "credential":
            argv.append("--credential-support")
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = self.rtmon.cli.main(argv)
        elapsed = time.perf_counter() - start
        return elapsed, json.loads(buf.getvalue()), code


def _warnings_by_event(rep: dict) -> dict[int, list[tuple[str, str, list[str]]]]:
    index = {id(ev): i for i, ev in enumerate(rep["events"])}
    out: dict[int, list] = {}
    for wn in rep["session"].warnings:
        out.setdefault(index[id(wn.event)], []).append(
            (wn.constraint_id, wn.outcome.value, sorted(p.name for p in wn.violators))
        )
    return out


def _latencies(rep: dict) -> list[float]:
    pulls = rep["pulls"]
    return [pulls[i + 1] - t for i, t in enumerate(rep["starts"])]


def _quantile(xs: list[float], q: int, n: int) -> float:
    """The q-th of n quantiles; the median for a single sample."""
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=n)[q - 1]


def _settle() -> None:
    gc.collect()
    gc.collect()


def _machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rtmon").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return None


def _check(checker: ref.Checker, rep: dict, seed: int) -> None:
    final = [str(s) for s in rep["session"].final_state.statements]
    checker.check_replay(len(rep["events"]), _warnings_by_event(rep), final, sample_seed=seed)


def _mix(w: gen.Workload, rep: dict) -> dict:
    warned = _warnings_by_event(rep)
    n = len(rep["events"])
    mix = dict(w.mix)
    mix["replayed"] = n
    mix["quiet"] = n - len(warned)
    mix["warned"] = len(warned)
    mix["warnings"] = sum(len(v) for v in warned.values())
    return mix


def untraced(run: Run, seed: int, seconds: float) -> tuple[dict, dict]:
    w = run.w
    n_log = len(w.log)
    n_con = len(w.constraints)
    run.replay(WARMUP_EVENTS)
    run.cli()
    host = speed.Speed()
    run.speed = host

    # Each sample: (raw seconds, seconds adjusted to the reference host).
    setups: list[tuple[float, float]] = []
    cli_times: list[tuple[float, float]] = []
    cli_reports = []

    def probed(fn):
        """Run fn with the collector settled and a probe on either side."""
        _settle()
        host.probe()
        out = fn()
        host.probe()
        return out

    def sample_setup_and_cli() -> None:
        for _ in range(SETUP_REPEATS):
            rep = probed(lambda: run.replay(0))
            raw = rep["pulls"][0] - rep["start"]
            setups.append((raw, raw * host.factor(rep["start"] + raw / 2)))
        for _ in range(CLI_REPEATS):
            start = time.perf_counter()
            raw, report, code = probed(run.cli)
            cli_times.append((raw, raw * host.factor(start + raw / 2)))
            cli_reports.append((report, code))

    sample_setup_and_cli()
    quiet: list[tuple[float, float]] = []
    warned: list[tuple[float, float]] = []
    reps = []
    replay_time = 0.0
    # Whole replays only: the state grows along the log, so a partial
    # replay would shift the mix of cheap and costly events.
    while not reps or replay_time < seconds:
        rep = probed(lambda: run.replay(n_log))
        reps.append(rep)
        raw = rep["pulls"][0] - rep["start"]
        setups.append((raw, raw * host.factor(rep["start"] + raw / 2)))
        by_event = _warnings_by_event(rep)
        for i, (x, t) in enumerate(zip(_latencies(rep), rep["starts"])):
            (warned if i in by_event else quiet).append((x, x * host.factor(t)))
        replay_time += rep["pulls"][-1] - rep["pulls"][0]
        # Keep only what the checks need from later replays.
        if len(reps) > 1:
            rep["session_warnings"] = by_event
            rep.pop("session")
    sample_setup_and_cli()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.speed = None

    checker = ref.Checker(w)
    _check(checker, reps[0], seed)
    first = _warnings_by_event(reps[0])
    for k, rep in enumerate(reps[1:], 1):
        if rep["session_warnings"] != first:
            checker.fail(f"replay {k} warned differently from replay 0")
    for report, code in cli_reports:
        checker.check_cli(report, code)

    events = len(quiet) + len(warned)
    attempted = events + n_con * (len(setups) + len(cli_reports))
    failed = min(len(checker.failures), attempted)

    def figures(k: int) -> dict:
        """End-to-end metrics from raw (k=0) or adjusted (k=1) times."""
        q = [x[k] for x in quiet]
        wd = [x[k] for x in warned]
        return {
            "setup_s": (statistics.median(x[k] for x in setups), "s"),
            "cli_setup_s": (statistics.median(x[k] for x in cli_times), "s"),
            "events_per_s": (events / (sum(q) + sum(wd)), "events/s"),
            "quiet_event_us.p50": (statistics.median(q) * 1e6, "us"),
            "quiet_event_us.p99": (_quantile(q, 99, 100) * 1e6, "us"),
            "warned_event_ms.p50": (statistics.median(wd) * 1e3, "ms"),
            "warned_event_ms.p90": (_quantile(wd, 9, 10) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    metrics = figures(1)
    detail = {
        "ops_failed_frac": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "failures": checker.failures[:20],
        "raw_metrics": {k: {"value": v, "unit": u} for k, (v, u) in figures(0).items()},
        "host_probe_us": {
            "reference": speed.REFERENCE_S * 1e6,
            "median": statistics.median(host.values) * 1e6,
            "min": min(host.values) * 1e6,
            "max": max(host.values) * 1e6,
            "count": len(host.values),
        },
        "samples": {"setup": len(setups), "cli": len(cli_times), "quiet": len(quiet),
                    "warned": len(warned), "replays": len(reps)},
        "mix": _mix(w, reps[0]),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, detail


def traced(run: Run, seed: int, spans_path: Path) -> tuple[dict, dict]:
    """Fixed work, so that counts repeat exactly for a seed: half the log
    untraced, then set-up and the whole log traced, two traced set-ups and
    one traced CLI run."""
    w = run.w
    n_log = len(w.log)
    n_con = len(w.constraints)
    run.replay(WARMUP_EVENTS)
    run.cli()

    # Untraced replay of the first half of the log, for the overhead; both
    # rates are adjusted to the reference host speed.
    host = speed.Speed()
    run.speed = host
    _settle()
    plain = run.replay(n_log // 2)

    tracer = spans.Tracer()
    tracer.install()
    windows = []
    try:

        def on_event(i: int) -> None:
            tracer.event = i

        run.on_event = on_event
        tracer.phase = "pass"
        tracer.event = spans.SETUP_EVENT
        _settle()
        rep = run.replay(n_log)
        windows.append((rep["start"], rep["pulls"][0]))
        run.on_event = None
        run.speed = None
        tracer.phase = "setup"
        for _ in range(2):
            tracer.event = spans.SETUP_EVENT
            _settle()
            extra = run.replay(0)
            windows.append((extra["start"], extra["pulls"][0]))
        tracer.phase = "cli"
        tracer.event = spans.CLI_EVENT
        _settle()
        _, report, code = run.cli()
    finally:
        tracer.uninstall()
        run.on_event = None
        run.speed = None

    def adjusted(r: dict, n: int) -> float:
        return sum(x * host.factor(t) for x, t in zip(_latencies(r)[:n], r["starts"]))

    n = len(plain["events"])
    overhead = 1.0 - adjusted(plain, n) / adjusted(rep, n)

    checker = ref.Checker(w)
    _check(checker, rep, seed)
    checker.check_cli(report, code)
    tracer.dump(str(spans_path))

    metrics = spans.layer_metrics(tracer, n_con, windows, overhead)
    # Events of both replays; registrations of three set-ups, the untraced
    # replay and the CLI run.
    attempted = n + n_log + n_con * 5
    failed = min(len(checker.failures), attempted)
    detail = {
        "ops_failed_frac": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "failures": checker.failures[:20],
        "absent": tracer.absent,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "mix": _mix(w, rep),
    }
    return metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    w = gen.generate(args.workload, args.seed)
    run = Run(w, out_dir)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            metrics, detail = traced(run, args.seed, out_dir / f"{stem}-spans.jsonl")
        else:
            metrics, detail = untraced(run, args.seed, args.seconds)
    except Exception as exc:
        # The program raised: the run fails as a whole, with no figures.
        traceback.print_exc()
        metrics = {}
        detail = {"ops_failed_frac": 1.0, "attempted": 1, "failed": 1,
                  "failures": [f"raised {exc!r}"], "mix": dict(w.mix)}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": _machine(),
        "metrics": metrics,
        **detail,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(record))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
