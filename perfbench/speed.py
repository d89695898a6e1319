"""Host speed probe, for times that do not depend on the host's load.

The benchmark was tuned on a 2-core VM whose cores are shared with other
tenants: the same Python code runs 1.4 to 2 times slower for stretches of
10 to 30 seconds, about as long as a run, so whole runs land in a fast or a
slow period and raw times of different runs disagree by far more than any
bound worth having.  The probe times a fixed kernel that is independent of
the program but does the same two kinds of work: Python-level hashing of
frozen dataclasses into a frozenset (as a policy update does) and C-level
building of sets and dicts of tuples (as evaluation does).  It runs every
``INTERVAL_S`` during timed work.  A time ``t`` measured next to probes
``p`` is reported as ``t * REFERENCE_S / p``: the time it would have taken
on a host where the probe takes ``REFERENCE_S``.  Raw times are kept next
to the adjusted ones.
"""

from __future__ import annotations

import bisect
import statistics
import time
from dataclasses import dataclass

#: probe time of the reference host (the tuning VM's probe takes 0.7 to 1.3 ms)
REFERENCE_S = 1e-3
#: least time between two probes during a replay
INTERVAL_S = 0.1
#: probes on each side of a time that give its host speed
_WINDOW = 2


@dataclass(frozen=True)
class _Name:
    name: str


@dataclass(frozen=True)
class _Pair:
    owner: _Name
    role: _Name


_PAIRS = [_Pair(_Name(f"Org{i}"), _Name(f"r{i % 7}")) for i in range(500)]
_TUPLES = [(f"Org{i}", "staff", f"E{i * 7}") for i in range(1500)]


def _kernel() -> None:
    for item in frozenset(_PAIRS):
        {item.owner, item.role}
    tuples = frozenset(_TUPLES)
    dict.fromkeys(set(tuples) | tuples)


class Speed:
    def __init__(self):
        self.times: list[float] = []
        self.values: list[float] = []

    def probe(self) -> None:
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - start)
        self.times.append(time.perf_counter())
        self.values.append(best)

    def maybe_probe(self, now: float) -> None:
        if not self.times or now - self.times[-1] >= INTERVAL_S:
            self.probe()

    def factor(self, at: float) -> float:
        """REFERENCE_S over the median of the probes around time ``at``."""
        i = bisect.bisect(self.times, at)
        window = self.values[max(0, i - _WINDOW):i + _WINDOW]
        return REFERENCE_S / statistics.median(window)
