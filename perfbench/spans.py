"""Layer-boundary spans recorded from outside the program.

The tracer replaces public functions of ``rtmon`` with timing wrappers under
every name their callers look up: a function imported with ``from .engine
import evaluate`` is patched in each module that holds it, so calls between
layers are caught too.  Spans stay in memory (name, start, end, parent span,
event index, count derived from the return value) and are written out when
the run ends.  A target missing from the program is reported as absent.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from typing import Callable, Optional

SETUP_EVENT = -1
CLI_EVENT = -2


def _worklist_count(js) -> tuple[int, bool]:
    return sum(len(v) for v in js.entries.values()), bool(js.truncated)


def _bound_entries(ub) -> int:
    return sum(len(v) for v in ub.values())


# (span name, defining module, attribute, count derived from the result)
TARGETS: list[tuple[str, str, str, Optional[Callable]]] = [
    ("parser.parse_policy", "rtmon.parser", "parse_policy", None),
    ("parser.parse_constraints", "rtmon.parser", "parse_constraints", None),
    ("parser.parse_changelog", "rtmon.parser", "parse_changelog", None),
    ("parser.parse_monitor", "rtmon.parser", "parse_monitor", None),
    ("model.add", "rtmon.model", "PolicyState.add", None),
    ("model.remove", "rtmon.model", "PolicyState.remove", None),
    ("monitor.run_session", "rtmon.monitor", "run_session", None),
    ("monitor.register", "rtmon.monitor", "register", lambda r: r.status.value == "holding"),
    ("monitor.classify", "rtmon.monitor", "classify", lambda r: r.value == "triggering"),
    ("engine.check_constraint", "rtmon.engine", "check_constraint", None),
    ("engine.evaluate", "rtmon.engine", "evaluate", lambda r: r.iteration_count),
    ("deps.gamma_expr", "rtmon.deps", "gamma_expr", None),
    ("deps.gamma", "rtmon.deps", "gamma", None),
    ("deps.justified_semantics", "rtmon.deps", "justified_semantics", _worklist_count),
    ("deps.support_for_constraint", "rtmon.deps", "support_for_constraint", None),
    ("deps.credential_support", "rtmon.deps", "credential_support_for_constraint", None),
    ("analysis.check_bounded_containment", "rtmon.analysis", "check_bounded_containment", None),
    ("analysis.bounds", "rtmon.analysis", "bounds", None),
    ("analysis.lower_bound", "rtmon.analysis", "lower_bound", None),
    ("analysis.upper_bound", "rtmon.analysis", "upper_bound", _bound_entries),
    ("analysis.core", "rtmon.analysis", "core", None),
    ("analysis.gamma_restricted_expr", "rtmon.analysis", "gamma_restricted_expr", None),
    ("cli.main", "rtmon.cli", "main", None),
]


class Tracer:
    def __init__(self):
        # Each span: (name, start, end, parent index, event, phase, count)
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.event = SETUP_EVENT
        self.phase = ""
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            stack.append(index)
            spans.append(None)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                # A tuple of plain values, so the collector stops tracking it.
                spans[index] = (name, start, end, parent, self.event, self.phase, None)
            if count is not None:
                try:
                    n = count(out)
                except (AttributeError, TypeError, ValueError):
                    n = None
                spans[index] = spans[index][:6] + (n,)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        homes = {}
        for modname in sorted({t[1] for t in TARGETS}):
            try:
                homes[modname] = importlib.import_module(modname)
            except ImportError:
                homes[modname] = None
        modules = [m for n, m in sorted(sys.modules.items()) if n == "rtmon" or n.startswith("rtmon.")]
        for name, modname, attr, count in TARGETS:
            owner = homes[modname]
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            fn = getattr(owner, path[-1], None) if owner is not None else None
            if fn is None or not callable(fn):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn, count)
            if len(path) > 1:
                # A method: patch it on its class.
                self._restore.append((owner, path[-1], fn))
                setattr(owner, path[-1], wrapper)
                continue
            for mod in modules:
                for gname, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, gname, fn))
                        setattr(mod, gname, wrapper)

    def uninstall(self) -> None:
        for owner, gname, fn in reversed(self._restore):
            setattr(owner, gname, fn)
        self._restore.clear()

    def dump(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "event", "phase", "count")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _self_times(spans: list[tuple]) -> list[float]:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _under(spans: list[tuple], i: int, ancestors: set[int]) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if parent in ancestors:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(tracer: Tracer, n_constraints: int, setup_windows: list[tuple[float, float]],
                  overhead_frac: float) -> dict:
    """Per-layer metrics from the spans of one traced run.

    Counts and sums come from the phase ``pass`` (set-up plus one whole
    replay of the log), so they repeat exactly for a seed; ``parser.parse_s``
    is the median over the traced set-ups, each given as a (start, first
    event pulled) window; the CLI figures come from the phase ``cli``.
    """
    spans = tracer.spans
    own = _self_times(spans)
    absent = set(tracer.absent)

    def pick(name: str, phase: str = "pass") -> list[int]:
        return [i for i, s in enumerate(spans) if s[0] == name and s[5] == phase]

    def dur(ids: list[int]) -> list[float]:
        return [spans[i][2] - spans[i][1] for i in ids]

    def self_sum(name: str) -> float:
        return sum(own[i] for i in pick(name))

    def median(xs: list[float]) -> float:
        return statistics.median(xs) if xs else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out: dict[str, tuple[object, str, list[str]]] = {}

    def put(metric: str, value, unit: str, needs: list[str]) -> None:
        out[metric] = (value, unit, needs)

    parse_names = {t[0] for t in TARGETS if t[0].startswith("parser.")}
    setups = [
        sum(s[2] - s[1] for s in spans if s[0] in parse_names and start <= s[1] and s[2] <= end)
        for start, end in setup_windows
    ]
    put("parser.parse_s", median(setups), "s", ["parser.parse_policy"])

    updates = pick("model.add") + pick("model.remove")
    put("model.state_update_us.p50", median(dur(updates)) * 1e6, "us", ["model.add", "model.remove"])
    put("model.state_updates", len(updates), "count", ["model.add", "model.remove"])

    classify = pick("monitor.classify")
    put("monitor.classify_us.p50", median(dur(classify)) * 1e6, "us", ["monitor.classify"])
    put("monitor.classify_calls", len(classify), "count", ["monitor.classify"])
    triggering = sum(spans[i][6] or 0 for i in classify)
    put("monitor.triggering_frac", ratio(triggering, len(classify)), "ratio", ["monitor.classify"])

    registers = pick("monitor.register")
    put("monitor.register_calls", len(registers), "count", ["monitor.register"])
    put("monitor.register_ms.p50", median(dur(registers)) * 1e3, "ms", ["monitor.register"])

    evaluates = pick("engine.evaluate")
    put("engine.evaluate_calls", len(evaluates), "count", ["engine.evaluate"])
    put("engine.evaluate_self_s", self_sum("engine.evaluate"), "s", ["engine.evaluate"])
    rounds = [spans[i][6] for i in evaluates if spans[i][6] is not None]
    put("engine.rounds_per_evaluate", ratio(sum(rounds), len(rounds)), "count", ["engine.evaluate"])
    # Per registration that ends holding, i.e. builds the monitoring caches;
    # a failed check returns before the frontiers are computed.
    holding = {i for i in registers if spans[i][6]}
    under = sum(1 for i in evaluates if _under(spans, i, holding))
    put("engine.evaluations_per_register", ratio(under, len(holding)), "ratio",
        ["engine.evaluate", "monitor.register"])

    put("deps.gamma_self_s", self_sum("deps.gamma"), "s", ["deps.gamma"])
    put("deps.gamma_calls", len(pick("deps.gamma")), "count", ["deps.gamma"])
    worklist = pick("deps.justified_semantics")
    put("deps.worklist_self_s", self_sum("deps.justified_semantics"), "s", ["deps.justified_semantics"])
    put("deps.worklist_calls", len(worklist), "count", ["deps.justified_semantics"])
    counted = [spans[i][6] for i in worklist if spans[i][6] is not None]
    put("deps.support_entries_mean", ratio(sum(n for n, _ in counted), len(counted)), "count",
        ["deps.justified_semantics"])
    put("deps.credential_self_s", self_sum("deps.credential_support"), "s", ["deps.credential_support"])
    truncated = sum(1 for _, flag in counted if flag)
    put("deps.truncated_frac", ratio(truncated, len(counted)), "ratio", ["deps.justified_semantics"])

    upper = pick("analysis.upper_bound")
    put("analysis.upper_bound_self_s", self_sum("analysis.upper_bound"), "s", ["analysis.upper_bound"])
    under = sum(1 for i in upper if _under(spans, i, holding))
    put("analysis.upper_bound_calls_per_register", ratio(under, len(holding)), "ratio",
        ["analysis.upper_bound", "monitor.register"])
    bound = [spans[i][6] for i in upper if spans[i][6] is not None]
    put("analysis.bound_entries_mean", ratio(sum(bound), len(bound)), "count", ["analysis.upper_bound"])
    put("analysis.core_self_s", self_sum("analysis.core"), "s", ["analysis.core"])
    put("analysis.lower_bound_self_s", self_sum("analysis.lower_bound"), "s", ["analysis.lower_bound"])
    put("analysis.gamma_restricted_self_s", self_sum("analysis.gamma_restricted_expr"), "s",
        ["analysis.gamma_restricted_expr"])

    cli = pick("cli.main", "cli")
    cli_registers = pick("monitor.register", "cli")
    put("cli.registrations_per_constraint", ratio(len(cli_registers), len(cli) * n_constraints),
        "ratio", ["cli.main", "monitor.register"])
    put("cli.self_s", median([own[i] for i in cli]), "s", ["cli.main"])
    put("trace.overhead_frac", overhead_frac, "ratio", [])

    metrics = {}
    for metric, (value, unit, needs) in out.items():
        if any(n in absent for n in needs):
            value = None
        metrics[metric] = {"value": value, "unit": unit}
    return metrics
