#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, summarised into one JSON file.

Run from the repository root:

    python3 tools/bench_pairs.py --parent <rev> --pairs 10 --out BENCH_<n>.json

The parent revision is exported with `git archive` into a temporary
directory, which is removed afterwards; the change is this checkout as it
stands. For every workload in BENCHMARK.json the script runs `--pairs` pairs
of `perfbench/run.py --trace 0`: one run of each side per pair, the side
that goes first alternating from pair to pair, pair i with seed i (1, 2,
...) and `--seconds` from `run_seconds`. After a workload's pairs, each side
makes one `--trace 1` run with seed 1: a traced run repeats its passes until
`--seconds` of timed work have run, and spends untimed time in per-op
replays on top, so its wall time can reach the run timeout long before
`run_s` moves. Runs go one at a time.

The output holds the environment facts and, per workload and end-to-end
metric, both sides' medians and quartiles (`summarise` from
perfbench/baseline.py), the pairs in which the change was better, and
per side the fraction of failed tasks and every run that failed outright.
Per workload, `traced` holds each side's traced run: its wall seconds, its
exit code (None after a timeout) and its error, if it failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
sys.path.insert(0, str(ROOT / "perfbench"))
from baseline import summarise  # noqa: E402

RUN_TIMEOUT_S = 600
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def export(rev: str, into: Path) -> None:
    """The committed files of ``rev`` under ``into``."""
    archive = into / "rev.tar"
    subprocess.run(["git", "archive", "--output", str(archive), rev], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into / "tree", filter="data")
    archive.unlink()


def run_once(checkout: Path, spec: dict, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One `--trace <trace>` run: its parsed result and environment, or the
    reason it failed; either way its wall seconds and exit code."""
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired as exc:
        return {"error": f"TimeoutExpired: {exc}", "wall_s": time.perf_counter() - start,
                "exit_code": None}
    wall = {"wall_s": time.perf_counter() - start, "exit_code": done.returncode}
    try:
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["env"] = json.loads(lines[-2])["env"]
    except (json.JSONDecodeError, IndexError, KeyError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}", **wall}
    if done.returncode != 0 and not result.get("failed"):
        return {"error": f"exit code {done.returncode}: {done.stderr[-500:]}", **wall}
    return {**result, **wall}


def workload_report(runs: list[dict], seeds: list[int], spec: dict) -> dict:
    """Per metric: both sides' summaries over the pairs where both ran, and
    how many of those pairs the change won."""
    ok = [i for i, pair in enumerate(runs) if all("metrics" in pair[s] for s in SIDES)]
    report = {
        "seeds": seeds,
        "first": ["parent" if i % 2 == 0 else "change" for i in range(len(runs))],
        "complete_pairs": len(ok),
        "failed_runs": [
            {"side": s, "seed": seeds[i], "error": pair[s]["error"]}
            for i, pair in enumerate(runs) for s in SIDES if "error" in pair[s]
        ],
        "fail_frac": {},
        "metrics": {},
    }
    for s in SIDES:
        done = [pair[s] for pair in runs if "metrics" in pair[s]]
        attempted = sum(r["attempted"] for r in done)
        report["fail_frac"][s] = sum(r["failed"] for r in done) / attempted if attempted else None
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {s: [runs[i][s]["metrics"][name]["value"] for i in ok] for s in SIDES}
        entry = {"better": metric["better"], "unit": metric["unit"]}
        if len(ok) >= 2:
            entry.update({s: summarise(values[s], metric["bound"]) for s in SIDES})
        entry["change_better"] = sum(
            (c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"])
        )
        entry["pairs"] = len(ok)
        report["metrics"][name] = entry
    return report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 (quartiles need two values)")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = list(range(1, args.pairs + 1))
    out = {
        "parent": {"rev": args.parent, "sha": git("rev-parse", args.parent)},
        "change": {"head": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain", "--", "src"))},
        "pairs": args.pairs,
        "run_seconds": seconds,
        "env": None,
        "src_sha256": {},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        export(args.parent, Path(tmp))
        checkouts = {"parent": Path(tmp) / "tree", "change": ROOT}
        for workload in (w["name"] for w in spec["workloads"]):
            runs = []
            for i, seed in enumerate(seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {s: run_once(checkouts[s], spec, workload, seed, seconds, 0) for s in order}
                runs.append(pair)
                for s in SIDES:
                    if "env" in pair[s]:
                        out["env"] = out["env"] or {k: v for k, v in pair[s]["env"].items()
                                                    if k not in ("seed", "git_sha", "src_sha256")}
                        out["src_sha256"].setdefault(s, pair[s]["env"]["src_sha256"])
                shown = {s: pair[s]["metrics"]["run_s"]["value"] if "metrics" in pair[s] else pair[s]["error"]
                         for s in SIDES}
                print(f"{workload} seed {seed}: run_s {shown}", flush=True)
            out["workloads"][workload] = workload_report(runs, seeds, spec)
            traced = {}
            for s in SIDES:
                done = run_once(checkouts[s], spec, workload, 1, seconds, 1)
                traced[s] = {k: done[k] for k in ("wall_s", "exit_code", "error") if k in done}
                print(f"{workload} traced seed 1 ({s}): {traced[s]}", flush=True)
            out["workloads"][workload]["traced"] = traced
            for name, entry in out["workloads"][workload]["metrics"].items():
                if "parent" in entry:
                    print(f"  {name}: {entry['parent']['median']:.6g} -> {entry['change']['median']:.6g}"
                          f" (change better in {entry['change_better']}/{entry['pairs']})", flush=True)
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
