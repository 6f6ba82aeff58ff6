#!/usr/bin/env python3
"""blockpec benchmark: run one workload, check its outputs, print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload gain_sweep --seed 1 --seconds 20 --trace 0

Workloads: gain_sweep, payoff_plan, budgeted_estimate, wide_exact (see
workloads.py and README.md). The blockpec package is imported from ./src of
the checkout the script lives in, never from an installed copy.

--trace 0 measures the end-to-end metrics with tracing off:
  setup_s      median over fresh processes of importing blockpec and
               generating and noise-tagging the workload's circuits;
  run_s        wall time of the fixed task list: the sum over tasks of
               each task's median time over the run's passes;
  peak_rss_mb  peak resident memory of this process (getrusage).
--trace 1 runs a first untraced pass, then alternates untraced passes and
traced passes (whose spans give the per-layer metrics), then the trace-only
probes; spans are written to .bench_out/. Passes repeat the same tasks until
--seconds of timed work have run (at least two passes in all). The first
pass's outputs are checked outside the timed region; every later pass must
reproduce them bitwise. The last line of stdout is the JSON result; the exit
code is 0 only when every task passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from tracer import NullTracer, Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("gain_sweep", "payoff_plan", "budgeted_estimate", "wide_exact")
# One BLAS thread (nproc is 2 on the reference machine): the workloads are
# single-process, and a pinned count keeps runs comparable.
BLAS_THREADS = 1
SETUP_SAMPLES = 7  # this process plus six fresh ones
SETUP_TIMEOUT_S = 120
LAYERS = ("bench", "generators", "experiments", "blocks", "classify", "conjugation", "noise", "simulate")

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "generators.build_s": "s",
    "classify.classify_s": "s",
    "classify.ops": "count",
    "classify.us_per_op": "us",
    "conjugation.images_s": "s",
    "conjugation.calls": "count",
    "noise.invert_s": "s",
    "noise.channels": "count",
    "blocks.gamma_std_s": "s",
    "blocks.block_coeffs_s": "s",
    "blocks.ns_per_op_entry": "ns",
    "blocks.plan_self_s": "s",
    "blocks.segments": "count",
    "blocks.block_segments": "count",
    "blocks.folded_ops": "count",
    "blocks.retained_mb": "MiB",
    "experiments.rows": "count",
    "experiments.ms_per_row": "ms",
    "simulate.estimate_s": "s",
    "simulate.samples": "count",
    "simulate.us_per_sample": "us",
    "simulate.trajectory_ms": "ms",
    "simulate.unitary_density_s": "s",
    "simulate.unitary_density_calls": "count",
    "simulate.unitary_density_gbps_computed": "GB/s",
    "simulate.z_mixture_density_s": "s",
    "simulate.z_mixture_density_calls": "count",
    "simulate.statevector_us_per_op": "us",
    "simulate.exact_s": "s",
}
# Self times of spans that have replayed (estimated) children.
ESTIMATED = (
    "blocks.gamma_std_s", "blocks.block_coeffs_s", "blocks.plan_self_s",
    "simulate.estimate_s", "simulate.exact_s", "experiments.self_s", "blocks.self_s",
    "simulate.self_s",
)


def pin_blas_threads() -> None:
    """Must run before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def setup(args, tracer):
    """Import blockpec from this checkout and build the workload: the work
    that setup_s measures. Returns (workload, seconds)."""
    t0 = time.perf_counter()
    if not (SRC / "blockpec" / "__init__.py").is_file():
        raise ImportError(f"no blockpec package under {SRC}")
    sys.path.insert(0, str(SRC))
    import blockpec

    if not Path(blockpec.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"blockpec imported from {blockpec.__file__}, not {SRC}")
    import workloads

    build = workloads.WORKLOADS[args.workload]
    wl = build(args.seed, tracer, args.size == "tiny", args.ref_offset)
    return wl, time.perf_counter() - t0


def setup_in_fresh_process(args) -> float:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
    ]
    done = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


class Runner:
    """Runs passes over the task list and keeps the failure account."""

    def __init__(self, workload) -> None:
        self.tasks = workload.tasks
        self.digests: dict[int, tuple] = {}
        self.failures: list[dict] = []
        self.attempted = 0
        self.passes = 0

    def _fail(self, i: int, problem: str) -> None:
        self.failures.append(
            {"index": i, "task": self.tasks[i].name, "pass": self.passes, "problem": problem}
        )

    def _check(self, i: int, out) -> None:
        task = self.tasks[i]
        try:
            digest = task.digest(out)
            if self.passes == 0:
                self.digests[i] = digest
                problems = task.check(out)
            elif digest != self.digests.get(i):
                problems = [f"output {digest!r} differs from first pass {self.digests.get(i)!r}"]
            else:
                problems = []
        except Exception as exc:  # a crashing check is a failed task
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        for problem in problems:
            self._fail(i, problem)

    def run_pass(self, tracer) -> list[float | None]:
        """One pass over every task; returns each task's timed seconds (None
        where the task raised)."""
        timed: list[float | None] = [None] * len(self.tasks)
        for i, task in enumerate(self.tasks):
            self.attempted += 1
            try:
                out, seconds = tracer.run_task(self.passes * len(self.tasks) + i, task.name, task.run)
            except Exception as exc:  # a raising task is a failed task
                self._fail(i, "".join(traceback.format_exception_only(exc)).strip())
                continue
            timed[i] = seconds
            self._check(i, out)
            del out
        self.passes += 1
        return timed

    def run_for(self, seconds: float, make_tracers) -> list[list[tuple[list, object]]]:
        """Rounds of one pass per tracer factory until ``seconds`` of timed work
        have run, and at least two passes; returns each factory's (times,
        tracer) pairs."""
        results = [[] for _ in make_tracers]
        while self.passes < 2 or sum(_timed(t) for r in results for t, _ in r) < seconds:
            for out, make_tracer in zip(results, make_tracers):
                tracer = make_tracer()
                out.append((self.run_pass(tracer), tracer))
        return results

    @property
    def failed(self) -> int:
        return len({(f["index"], f["pass"]) for f in self.failures})


def _timed(task_times) -> float:
    return sum(t for t in task_times if t is not None)


def task_list_seconds(passes) -> float:
    """Wall time of the task list: the sum over tasks of each task's median
    over passes, which a burst of load from elsewhere on the machine during
    one task moves less than it moves a whole pass."""
    total = 0.0
    for times in zip(*(t for t, _ in passes)):
        done = [t for t in times if t is not None]
        if done:
            total += statistics.median(done)
    return total


def median_pass_of(passes):
    """The (times, tracer) pair of the pass with the median total time."""
    return sorted(passes, key=lambda tt: _timed(tt[0]))[(len(passes) - 1) // 2]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def pass_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    selfs = self_times(spans)
    dur, slf = defaultdict(float), defaultdict(float)
    attr = defaultdict(float)
    for s in spans:
        dur[s.name] += s.duration
        slf[s.name] += selfs[s.id]
        for key, value in s.attrs.items():
            if isinstance(value, (int, float)):
                k = f"{s.name}:{key}"
                attr[k] = max(attr[k], value) if key.startswith("max_") else attr[k] + value
    m = {"trace.run_s": dur["bench.task"]}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(selfs[s.id] for s in spans if s.layer == layer)
    m["classify.classify_s"] = dur["classify.classify_circuit"]
    m["classify.ops"] = attr["classify.classify_circuit:ops"]
    m["classify.us_per_op"] = 1e6 * _ratio(m["classify.classify_s"], m["classify.ops"])
    m["conjugation.images_s"] = dur["conjugation.generator_images"]
    m["conjugation.calls"] = attr["conjugation.generator_images:calls"]
    m["noise.invert_s"] = dur["noise.invert"]
    m["noise.channels"] = attr["noise.invert:channels"]
    m["blocks.gamma_std_s"] = slf["blocks.gamma_std"]
    m["blocks.block_coeffs_s"] = slf["blocks.block_coefficients"]
    m["blocks.ns_per_op_entry"] = 1e9 * _ratio(
        m["blocks.block_coeffs_s"], attr["blocks.block_coefficients:entries"]
    )
    m["blocks.plan_self_s"] = slf["blocks.hybrid_plan"]
    for key in ("segments", "block_segments", "folded_ops"):
        m[f"blocks.{key}"] = attr[f"blocks.hybrid_plan:{key}"]
    m["blocks.retained_mb"] = attr["blocks.hybrid_plan:max_retained_bytes"] / 2**20
    m["experiments.rows"] = attr["experiments.run_gain_experiment:rows"]
    m["experiments.ms_per_row"] = 1e3 * _ratio(dur["experiments.run_gain_experiment"], m["experiments.rows"])
    m["simulate.estimate_s"] = slf["simulate.pec_estimate"]
    m["simulate.samples"] = attr["simulate.pec_estimate:samples"]
    m["simulate.us_per_sample"] = 1e6 * _ratio(m["simulate.estimate_s"], m["simulate.samples"])
    m["simulate.exact_s"] = slf["simulate.exact_mitigated_expectation"] + dur["simulate.noisy_expectation"]
    return m


def probe_metrics(spans) -> dict[str, float]:
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(name, key=None):
        return sum(s.attrs[key] if key else s.duration for s in by_name[name])

    trajectories = by_name["simulate.trajectory_probe"]
    m = {"simulate.trajectory_ms": 1e3 * _ratio(total("simulate.trajectory_probe"), len(trajectories))}
    m["simulate.unitary_density_s"] = total("simulate.apply_unitary_density")
    m["simulate.unitary_density_calls"] = total("simulate.apply_unitary_density", "calls")
    m["simulate.unitary_density_gbps_computed"] = 1e-9 * _ratio(
        total("simulate.apply_unitary_density", "bytes_computed"), m["simulate.unitary_density_s"]
    )
    m["simulate.z_mixture_density_s"] = total("simulate.apply_z_mixture_density")
    m["simulate.z_mixture_density_calls"] = total("simulate.apply_z_mixture_density", "calls")
    m["simulate.statevector_us_per_op"] = 1e6 * _ratio(
        total("simulate.apply_unitary_state"), total("simulate.apply_unitary_state", "calls")
    )
    return m


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "blockpec").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs, for the benchmark's self-check")
    ap.add_argument("--ref-offset", type=float, default=0.0,
                    help="shift every check's reference value (self-check: checks must fail)")
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: time one setup, print it and exit")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    setup_tracer = Tracer() if args.trace else NullTracer()
    try:
        wl, setup_s = setup(args, setup_tracer)
    except ImportError as exc:
        print(f"cannot import blockpec from this checkout: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    env = environment(args.seed)
    runner = Runner(wl)
    metrics: dict[str, float] = {}
    spans_out = {}
    if args.trace == 0:
        setups = [setup_s] + [setup_in_fresh_process(args) for _ in range(SETUP_SAMPLES - 1)]
        (passes,) = runner.run_for(args.seconds, [NullTracer])
        metrics["setup_s"] = statistics.median(setups)
        metrics["run_s"] = task_list_seconds(passes)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END
        detail = {"setup_samples_s": setups, "task_s": [t for t, _ in passes]}
    else:
        # A first untraced pass carries the checks and warms up; then traced
        # and untraced passes alternate, so both see the same machine state.
        runner.run_pass(NullTracer())
        untraced, traced = runner.run_for(args.seconds, [NullTracer, Tracer])
        probe_tracer = Tracer()
        wl.probe(probe_tracer)
        # Per-layer figures come from the median traced pass, so that its
        # layer self times add up to its run_s; the overhead compares it with
        # the median untraced pass.
        _, median_pass = median_pass_of(traced)
        metrics = pass_metrics(median_pass.spans)
        metrics["trace.untraced_run_s"] = _timed(median_pass_of(untraced)[0])
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["trace.untraced_run_s"]
        metrics["generators.build_s"] = sum(s.duration for s in setup_tracer.spans)
        metrics.update(probe_metrics(probe_tracer.spans))
        units = PER_LAYER
        detail = {
            "task_s_untraced": [t for t, _ in untraced],
            "task_s_traced": [t for t, _ in traced],
        }
        spans_out = {
            "setup": [s.to_dict() for s in setup_tracer.spans],
            "passes": [[s.to_dict() for s in tr.spans] for _, tr in traced],
            "probes": [s.to_dict() for s in probe_tracer.spans],
        }

    attempted, failed = runner.attempted, runner.failed
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {runner.passes}")
    for name, unit in units.items():
        mark = "  (estimated)" if args.trace and name in ESTIMATED else ""
        print(f"  {name:40s} {metrics[name]:>14.6g} {unit}{mark}")
    print(f"  {'fail_frac':40s} {failed / attempted:>14.6g} ratio ({failed} of {attempted} tasks)")
    if args.trace:
        layer_sum = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        print(f"  layer self times sum to {layer_sum:.6g} s of traced run_s {metrics['trace.run_s']:.6g} s;"
              f" tracing overhead {metrics['trace.overhead_s']:.3g} s")
    for f in runner.failures[:20]:
        print(f"FAILED {f['task']} (pass {f['pass']}): {f['problem']}", file=sys.stderr)
    print(json.dumps({"env": env}))

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "size": args.size,
        "tasks": [task.name for task in wl.tasks],
        "env": env, "metrics": metrics, "attempted": attempted, "failed": failed,
        "failures": runner.failures, "detail": detail, "spans": spans_out,
    }
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
