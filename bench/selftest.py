"""Quick self-test of the benchmark harness.

Run from the repository root:

    python3 bench/selftest.py

Runs every workload once at a tiny size, untraced and traced, and checks
that each run is correct, that the fault probes are the only failures, and
that every workload and metric named in BENCHMARK.json is reported with its
unit.  It then runs the benchmark in a directory without the program and
checks that it fails without printing a result.  Takes about 15 seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

PROBED = {"gen_split", "clean_track", "noisy_track"}


def check_declaration(spec: dict) -> list[str]:
    errors = []
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        if declared != table:
            errors.append(f"BENCHMARK.json {key} differs from run.py: "
                          f"{sorted(set(declared) ^ set(table))}")
    return errors


def check_result(name: str, trace: bool, result: dict, spec: dict) -> list[str]:
    errors = []
    declared = spec["per_layer" if trace else "end_to_end"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if not result["correct"]:
        errors.append("outputs failed their checks")
    if result["attempted"] < 1:
        errors.append("nothing attempted")
    # only the untimed fault probes (one a round, split workloads) may fail
    if result["failed"] > (result["attempted"] if name in PROBED else 0):
        errors.append(f"{result['failed']} failed operations")
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        errors.append(f"metrics {sorted(set(metrics) ^ {m['name'] for m in declared})}")
    for m in declared:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"]:
            errors.append(f"{m['name']}: unit {got.get('unit')!r}")
        if not trace and not got.get("value", 0) > 0:
            errors.append(f"{m['name']}: end-to-end value {got.get('value')} is not positive")
    return errors


def check_refuses_without_program(root: Path) -> list[str]:
    bare = root / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(root / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "selfcheck", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    errors = []
    if proc.returncode == 0:
        errors.append("run.py exited 0 without the program")
    if proc.stdout.strip():
        errors.append(f"run.py printed {proc.stdout.strip()[:80]!r} without the program")
    return errors


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    errors = check_declaration(spec)
    for name in run.WORKLOADS:
        for trace in (False, True):
            result = run.run_workload(name, seed=3, seconds=0.01, trace=trace, size=run.TINY,
                                      work=root / ".bench_work" / f"selftest-{name}")
            found = check_result(name, trace, result, spec)
            errors += [f"{name} trace={int(trace)}: {e}" for e in found]
            print(f"{name:>13} trace={int(trace)}: {'ok' if not found else 'FAILED'}")
    errors += check_refuses_without_program(root)
    for e in errors:
        print(f"selftest: {e}", file=sys.stderr)
    print("selftest passed" if not errors else f"selftest: {len(errors)} problems")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
