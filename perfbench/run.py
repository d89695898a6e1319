"""Change-log replay benchmark for rtmon.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload org_churn --seed 1 --seconds 10 --trace 0

Workloads (see gen.py and BENCHMARK.json for why each exists):

* ``org_churn``      full trust, org hierarchy with linked roles, ~10^3 statements
* ``chain_fan``      credential supports, deep inclusion chain and an intersection fan
* ``org_restricted`` restricted trust under a role monitor, fresh principals

Each run happens in a fresh single-threaded worker process (worker.py) with
``PYTHONHASHSEED`` pinned, importing the program from ``src/`` of this
checkout.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics.  End-to-end times are adjusted to a reference host speed
measured by a probe next to every sample (speed.py); the raw times are
printed beside them and kept in the results file.  Human-readable lines come first; the last stdout line
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Full results (mix, machine info, failures, sample counts) and
the span file of a traced run are written under ``.perfbench-out/``.

Exit code 0 means every output matched the reference check; 1 a mismatch
or a failed worker; 2 a checkout without the program.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
HASH_SEED = "0"
WORKER_TIMEOUT_S = 170


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    import gen

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rtmon" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'rtmon'}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update({
        "PYTHONHASHSEED": HASH_SEED,
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
    })
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(OUT)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=WORKER_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"perfbench: worker failed with exit code {proc.returncode}", file=sys.stderr)
        return 1
    if not record["metrics"]:
        for failure in record["failures"]:
            print(f"FAIL {failure}")
        return 1

    mix = record["mix"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"(PYTHONHASHSEED={record['machine']['pythonhashseed']}, "
          f"python {record['machine']['python']}, nproc {record['machine']['nproc']})")
    print(f"mix: {mix['statements']} statements, {mix['principals']} principals, "
          f"{mix['replayed']} events: {mix['quiet']} quiet, {mix['warned']} warned, "
          f"{mix['fresh_principals']} fresh principals")
    raw = record.get("raw_metrics", {})
    if raw:
        print(f"  {'metric':40s} {'adjusted':>14s} {'raw':>14s}   (see perfbench/speed.py)")
    for name, m in record["metrics"].items():
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        raw_value = f"{raw[name]['value']:.6g}" if name in raw else ""
        print(f"  {name:40s} {value:>14s} {raw_value:>14s} {m['unit']}")
    print(f"  {'ops_failed_frac':40s} {record['ops_failed_frac']:>14.6g} ratio")
    for failure in record["failures"]:
        print(f"FAIL {failure}")
    if record.get("absent"):
        print(f"absent from the program: {', '.join(record['absent'])}")

    correct = record["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
