#!/usr/bin/env python3
"""Self-check of the benchmark, in well under a minute per workload:

    python3 perfbench/selfcheck.py

1. A tiny size of each workload, untraced and traced, exits 0 and reports
   every metric BENCHMARK.json names, with the unit it names.
2. The same tiny runs with every check's reference value shifted fail every
   task and exit non-zero: each task's checks can fail.
3. In a directory holding only BENCHMARK.json and the benchmark (no src/),
   the command exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 180


def run(spec: dict, cwd: Path, workload: str, trace: int, *extra: str):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace),
        "--size", "tiny", *extra,
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def result_of(done) -> dict | None:
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "correct" in result else None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = run(spec, ROOT, workload, trace)
            result = result_of(done)
            if done.returncode != 0 or result is None or not result["correct"]:
                problems.append(f"{workload} trace {trace}: exit {done.returncode}\n{done.stderr}")
                continue
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{workload} trace {trace}: metrics {units} != {expected[trace]}")
            missing = [name for name in expected[trace] if name not in done.stdout.split("{")[0]]
            if missing:
                problems.append(f"{workload} trace {trace}: not printed: {missing}")
            if "fail_frac" not in done.stdout:
                problems.append(f"{workload} trace {trace}: fail_frac not printed")
        wrong = run(spec, ROOT, workload, 0, "--ref-offset", "1.0")
        result = result_of(wrong)
        record = json.loads((ROOT / ".bench_out" / f"{workload}-seed5-trace0.json").read_text())
        failing = {f["index"] for f in record["failures"] if f["pass"] == 0}
        passed = [name for i, name in enumerate(record["tasks"]) if i not in failing]
        if wrong.returncode == 0 or result is None or passed:
            problems.append(f"{workload}: a wrong reference did not fail {passed}")
        else:
            print(f"{workload}: ok; a wrong reference fails all {len(record['tasks'])} tasks")

    bare = ROOT / ".bench_out" / "bare_checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = run(spec, bare, spec["workloads"][0]["name"], 0)
    if done.returncode == 0 or result_of(done) is not None:
        problems.append("without src/ the benchmark did not fail cleanly")
    else:
        print(f"without src/: exit {done.returncode}, no result printed")
    shutil.rmtree(bare)

    for problem in problems:
        print("PROBLEM:", problem, file=sys.stderr)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
