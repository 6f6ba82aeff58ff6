#!/usr/bin/env python3
"""Run the benchmark over seeds 1..10 and summarise each metric.

    python3 perfbench/baseline.py --out perfbench/baseline.json

For each workload: ten untraced runs (seeds 1..10), then one traced run
(seed 1). Each end-to-end metric gets its median, quartiles
(statistics.quantiles, n=4) and spread = (Q3 - Q1) / median, next to the
bound BENCHMARK.json gives it; each per-layer metric gets the traced run's
value. Runs one benchmark process at a time, from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
RUN_TIMEOUT_S = 600


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    env = json.loads(done.stdout.strip().splitlines()[-2])["env"]
    if done.returncode != 0 or not result["correct"]:
        print(done.stdout + done.stderr, file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed")
    return {"env": env, **result}


def summarise(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(run_once(spec, workload, seed, 0))
            values = {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()}
            print(f"{workload} seed {seed}: {values}", flush=True)
        traced = run_once(spec, workload, SEEDS[0], 1)
        entry = {
            "env": runs[0]["env"],
            "seeds": [r["env"]["seed"] for r in runs],
            "end_to_end": {
                name: summarise([r["metrics"][name]["value"] for r in runs], bounds[name])
                for name in bounds
            },
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        report["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            flag = "" if s["spread"] <= s["bound"] / 3 else "  <-- above a third of the bound"
            print(f"  {name}: median {s['median']:.6g}  spread {s['spread']:.4f}  bound {s['bound']}{flag}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
