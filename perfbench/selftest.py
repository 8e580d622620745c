#!/usr/bin/env python3
"""Smoke self-test of the delprop benchmark.

    python3 perfbench/selftest.py

Runs every BENCHMARK.json workload in smoke mode (a 120-row instance, short
jobs) with --trace 0 and --trace 1 through perfbench/run.py and checks that:
  * each run exits 0 and its last line is the contract's JSON object with
    correct=true, attempted >= 1 and failed == 0;
  * the metric names and units are exactly BENCHMARK.json's end_to_end list
    (--trace 0) or per_layer list (--trace 1), in any order, and every value
    is a finite number;
  * the deterministic metrics (unit count, side_effect_total, success_rate)
    repeat exactly when the same seed runs twice.
Exits 1 listing every failed check.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DETERMINISTIC = {"side_effect_total", "success_rate"}


def run(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else {}
    result["_returncode"] = done.returncode
    result["_stderr"] = done.stderr[-2000:]
    return result


def check(result: dict, expected: list, label: str, failures: list) -> None:
    if result.get("_returncode") != 0:
        failures.append(f"{label}: exit code {result.get('_returncode')}\n"
                        f"{result.get('_stderr', '')}")
    if set(result) - {"_returncode", "_stderr"} != {"correct", "attempted",
                                                    "failed", "metrics"}:
        failures.append(f"{label}: no contract result line")
        return
    if result["correct"] is not True or result["failed"] != 0 \
            or result["attempted"] < 1:
        failures.append(f"{label}: correct={result['correct']} "
                        f"attempted={result['attempted']} "
                        f"failed={result['failed']}")
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: entry.get("unit") for name, entry in metrics.items()}
    for name in sorted(set(want) - set(got)):
        failures.append(f"{label}: metric {name} missing")
    for name in sorted(set(got) - set(want)):
        failures.append(f"{label}: metric {name} not in BENCHMARK.json")
    for name in sorted(set(want) & set(got)):
        if want[name] != got[name]:
            failures.append(f"{label}: {name} unit {got[name]} != "
                            f"{want[name]}")
        value = metrics[name].get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append(f"{label}: {name} value {value!r}")


def deterministic(result: dict) -> dict:
    return {name: entry["value"]
            for name, entry in result.get("metrics", {}).items()
            if entry.get("unit") == "count" or name in DETERMINISTIC}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, expected in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            label = f"{workload} --trace {trace}"
            first = run(workload, 7, trace)
            check(first, expected, label, failures)
            again = run(workload, 7, trace)
            if deterministic(first) != deterministic(again):
                failures.append(f"{label}: deterministic metrics differ "
                                f"between two runs of seed 7")
            print(f"{label}: checked", flush=True)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
