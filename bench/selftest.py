"""Fast self-test of the benchmark harness.

    python3 bench/selftest.py

Runs every workload named in BENCHMARK.json briefly, untraced and traced, and
checks that the last stdout line has the contract's keys and exactly the
metric names and units BENCHMARK.json declares. It also checks that the
benchmark refuses to run, without printing a result, in a directory holding
only BENCHMARK.json and the benchmark's own files. Exits 1 on any mismatch.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_result(result, declared, label) -> list[str]:
    errors = []
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"{label}: bad result line {result!r}"]
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        errors.append(f"{label}: attempted/failed not whole numbers")
    if result["correct"] is not True:
        errors.append(f"{label}: correct is {result['correct']}")
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        errors.append(f"{label}: metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
    for name, m in result["metrics"].items():
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            errors.append(f"{label}: {name} = {m['value']!r}")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for wl in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{wl['name']} --trace {trace}"
            proc = subprocess.run(
                [*spec["command"], "--workload", wl["name"], "--seed", "7",
                 "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode:
                errors.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            errors += check_result(last_json(proc.stdout), declared, label)
            print(f"ok {label}" if not errors else f"checked {label}", flush=True)

    bare = BENCH / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns(".work"))
        proc = subprocess.run(
            [*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            errors.append("benchmark ran without the library sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for e in errors:
        print(f"FAIL {e}", file=sys.stderr)
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
