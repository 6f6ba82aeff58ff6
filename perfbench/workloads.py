"""The benchmark's four workloads: inputs, timed tasks, output checks, probes.

Every input is generated here from the workload seed; blockpec receives only
the generated circuits. Each task is a list of calls into blockpec's public
API, each call wrapped in a span named "<layer>.<function>". The layers are
blockpec's modules: generators, experiments, blocks, classify, conjugation,
noise and simulate; "bench" is the benchmark's own glue.

Why four workloads: the two heavy modules are each used in two opposite ways,
and an optimisation of one way can cost the other.

- gain_sweep: one deep compatible block per circuit (blocks.block_coefficients
  over a 2^n vector, plus classify and conjugation); simulate sits idle.
- payoff_plan: the same blocks layer with 100-160 shallow full-width blocks
  per circuit, split by H gates; the plan retains every block's array.
- budgeted_estimate: Hoeffding-budgeted pec_estimate on small circuits;
  time goes to simulate's sampling, dedup and per-trajectory evolution.
- wide_exact: simulate through a few large density-matrix kernels (n = 9-10)
  and a statevector estimate at n = 12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from blockpec import (
    PASS_THROUGH_KINDS,
    BlockCoefficients,
    ExperimentConfig,
    NoiseSpec,
    Observable,
    block_coefficients,
    build_family_circuit,
    classify_circuit,
    exact_mitigated_expectation,
    gamma_std,
    gen_option_payoff,
    gen_rbs_pyramid,
    gen_swap_network,
    generator_images,
    hybrid_plan,
    ideal_expectation,
    invert_z_mixture,
    make_dephasing,
    noisy_expectation,
    parse_circuit,
    pec_estimate,
    required_samples,
    run_gain_experiment,
)
from blockpec.simulate import (
    apply_unitary_density,
    apply_unitary_state,
    apply_z_mixture_density,
)
from blockpec.gates import unitary_of

# Gain (gamma_std / gamma_blk)^2 at p = 0.001 and generator seed 0. Both
# families are built from CNOT and pass-through XCZ gates only, so the gain
# does not depend on the drawn angles and every seed must reproduce it.
REFERENCE_GAINS = {
    "swap_network": {
        4: 1.0513255734173936,
        5: 1.1306569676608542,
        6: 1.2785685466420054,
        7: 1.5392313500348194,
        8: 1.993048719070164,
        9: 2.7499069254763158,
        10: 4.072945640497297,
        11: 6.059197041043871,
        12: 8.739931477787842,
    },
    "rbs_pyramid": {
        4: 1.0012577438330155,
        5: 1.0028785867453849,
        6: 1.005484060412592,
        7: 1.0092969800882363,
        8: 1.0145388394700916,
        9: 1.0214328919238655,
        10: 1.0302075751472048,
        11: 1.0411002977891741,
        12: 1.054361627242093,
        13: 1.0702599381401323,
        14: 1.089086603576968,
        15: 1.1111618360392304,
        16: 1.136841313552377,
        17: 1.1665237598002525,
    },
}

# The circuit of acceptance criterion 06 (fixed; only the estimator seed varies).
CRITERION_06 = (
    "qubits=3\nH 0\nRZ 0;theta=0.7\nH 0\nCNOT 0,1\n"
    "H 1\nRZ 1;theta=0.4\nH 1\nCNOT 1,2\n"
)

# Failure probability behind the estimator check's tolerance: the bound
# catches bugs, not bad luck.
CHECK_EPSILON = 1e-9


@dataclass(frozen=True)
class Task:
    name: str
    run: Callable[[Any], Any]  # run(tracer) -> output; the timed calls
    check: Callable[[Any], list[str]]  # untimed; returns the problems found
    digest: Callable[[Any], tuple]  # numbers that must repeat bitwise per pass


@dataclass(frozen=True)
class Workload:
    tasks: list[Task]
    probe: Callable[[Any], None]  # probe(tracer): trace-only kernel calls


def _noisy(c):
    return [
        (op, tag)
        for op, tag in zip(c.ops, c.noise_tags)
        if tag is not None and not tag.is_noiseless()
    ]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _shift(ref: float, offset: float) -> float:
    """The reference a check compares against; a nonzero offset makes the
    reference deliberately wrong, to show that the checks can fail."""
    return ref + offset * max(1.0, abs(ref))


# ---- public calls, each in a span, with the replays that attribute their
# ---- inner layers (see tracer.py)


def replay_noise(tr, ops_tags) -> None:
    """make_dephasing + invert_z_mixture for each noisy op, as layer_distribution
    does inside gamma_std, block_coefficients and the estimator's slots."""
    with tr.span("noise.invert", channels=len(ops_tags)):
        for op, tag in ops_tags:
            invert_z_mixture(make_dephasing(tag, tuple(sorted(op.qubits))))


def replay_block_coefficients(tr, c) -> None:
    with tr.span("conjugation.generator_images", calls=len(c.ops)):
        for op in c.ops:
            generator_images(op, c.n)
    replay_noise(tr, _noisy(c))


def call_block_coefficients(tr, c) -> BlockCoefficients:
    with tr.span("blocks.block_coefficients", entries=len(c.ops) << c.n) as s:
        coeffs = block_coefficients(c)
    tr.replay(s, replay_block_coefficients, c)
    return coeffs


def call_gamma_std(tr, c) -> float:
    with tr.span("blocks.gamma_std") as s:
        g = gamma_std(c)
    tr.replay(s, lambda t: replay_noise(t, _noisy(c)))
    return g


def replay_hybrid_plan(tr, c, plan) -> None:
    with tr.span("classify.classify_circuit", ops=len(c.ops)):
        classify_circuit(c)
    per_gate = []
    for seg in plan.segments:
        if seg.kind == "block":
            call_block_coefficients(tr, c.subcircuit(seg.start, seg.stop))
        else:
            per_gate.extend(_noisy(c.subcircuit(seg.start, seg.stop)))
    if per_gate:
        replay_noise(tr, per_gate)


def call_hybrid_plan(tr, c):
    with tr.span("blocks.hybrid_plan") as s:
        plan = hybrid_plan(c)
    if tr.enabled:
        blocks = [seg for seg in plan.segments if seg.kind == "block"]
        s.attrs.update(
            segments=len(plan.segments),
            block_segments=len(blocks),
            folded_ops=sum(seg.stop - seg.start for seg in blocks),
            max_retained_bytes=sum(seg.coeffs.coeffs.nbytes for seg in plan.segments),
        )
        tr.replay(s, replay_hybrid_plan, c, plan)
    return plan


def replay_mitigation(tr, c, mode: str) -> None:
    """The cost-engine calls that pec_estimate and exact_mitigated_expectation
    make internally to build their correction distributions."""
    if mode == "std":
        replay_noise(tr, _noisy(c))
    elif mode == "blk":
        call_block_coefficients(tr, c)
    else:
        call_hybrid_plan(tr, c)


def call_pec_estimate(tr, c, obs, mode: str, samples: int, seed: int):
    with tr.span("simulate.pec_estimate", samples=samples) as s:
        report = pec_estimate(c, obs, mode, samples, seed)
    tr.replay(s, replay_mitigation, c, mode)
    return report


def replay_gain_row(tr, cfg: ExperimentConfig, c) -> None:
    with tr.span("generators.build_family_circuit"):
        build_family_circuit(
            cfg.family, cfg.n_range[0], cfg.seeds[0], cfg.depth_factor, cfg.interaction
        ).with_noise(cfg.noise)
    call_gamma_std(tr, c)
    call_hybrid_plan(tr, c)


def call_gain_experiment(tr, cfg: ExperimentConfig, c):
    with tr.span("experiments.run_gain_experiment") as s:
        rows = run_gain_experiment(cfg)
    if tr.enabled:
        s.attrs["rows"] = len(rows)
        tr.replay(s, replay_gain_row, cfg, c)
    return rows


def generate(tr, make, noise: NoiseSpec):
    """Setup: build one circuit and tag its noise (counted in setup_s)."""
    with tr.span("generators.build"):
        return make().with_noise(noise)


# ---- checks


def check_plan(plan, gamma_ref: float, offset: float) -> list[str]:
    problems = []
    coeff_sum = _shift(1.0, offset)
    if not plan.total_gamma <= gamma_ref * (1 + 1e-12):
        problems.append(f"hybrid total {plan.total_gamma!r} exceeds gamma_std {gamma_ref!r}")
    product = math.prod(seg.gamma for seg in plan.segments)
    if _rel(plan.total_gamma, product) > 1e-12:
        problems.append(f"hybrid total {plan.total_gamma!r} != segment product {product!r}")
    for seg in plan.segments:
        total = float(np.sum(seg.coeffs.coeffs))
        if abs(total - coeff_sum) > 1e-9:
            problems.append(f"segment {seg.start}:{seg.stop} coefficients sum to {total!r}")
    return problems


def closed_form_gamma_std(c) -> float:
    """(1-2p)^-(sum of arities of noisy ops) for uncorrelated dephasing."""
    (p,) = {tag.p for _, tag in _noisy(c)}
    return (1.0 - 2.0 * p) ** -sum(op.arity for op, _ in _noisy(c))


def check_gamma_std(g: float, c, offset: float) -> list[str]:
    ref = _shift(closed_form_gamma_std(c), offset)
    if _rel(g, ref) > 1e-12:
        return [f"gamma_std {g!r} != closed form {ref!r}"]
    return []


def check_estimate(report, gamma: float, samples: int, ref: float, offset: float) -> list[str]:
    ref = _shift(ref, offset)
    tol = gamma * math.sqrt(math.log(2.0 / CHECK_EPSILON) / (2.0 * samples))
    problems = []
    if report.n_samples != samples:
        problems.append(f"ran {report.n_samples} samples, asked for {samples}")
    if not abs(report.mean - ref) <= tol:
        problems.append(f"mean {report.mean!r} is {abs(report.mean - ref):.3g} from {ref!r} (tol {tol:.3g})")
    return problems


def _digest_report(r) -> tuple:
    return (r.mean, r.sample_variance, r.n_samples, r.gamma_used)


def _digest_plan(plan) -> tuple:
    return (plan.total_gamma,) + tuple(seg.gamma for seg in plan.segments)


# ---- workloads


def gain_sweep(seed: int, tr, tiny: bool, ref_offset: float) -> Workload:
    p = 0.001
    noise = NoiseSpec("uncorrelated", p)
    sweeps = [
        ("swap_network", 3.0, "rbs", range(4, 7) if tiny else range(4, 13)),
        ("rbs_pyramid", 1.0, "rzz", range(4, 7) if tiny else range(4, 18)),
    ]
    tasks = []
    for family, depth_factor, interaction, ns in sweeps:
        for n in ns:
            cfg = ExperimentConfig(family, (n, n), noise, (seed,), depth_factor, interaction)
            c = generate(
                tr,
                lambda: build_family_circuit(family, n, seed, depth_factor, interaction),
                noise,
            )

            def check(rows, c=c, family=family, n=n):
                if len(rows) != 1:
                    return [f"expected one row, got {len(rows)}"]
                (row,) = rows
                problems = check_gamma_std(row.gamma_std, c, ref_offset)
                plan = hybrid_plan(c)
                problems += check_plan(plan, row.gamma_std, ref_offset)
                if row.gamma_blk != plan.total_gamma:
                    problems.append(f"row gamma_blk {row.gamma_blk!r} != plan {plan.total_gamma!r}")
                ref = _shift(REFERENCE_GAINS[family][n], ref_offset)
                if _rel(row.gain, ref) > 1e-9:
                    problems.append(f"gain {row.gain!r} != reference-seed gain {ref!r}")
                return problems

            tasks.append(
                Task(
                    f"run_gain_experiment {family} n={n}",
                    lambda t, cfg=cfg, c=c: call_gain_experiment(t, cfg, c),
                    check,
                    lambda rows: tuple((r.gamma_std, r.gamma_blk, r.gain) for r in rows),
                )
            )
    return Workload(tasks, lambda t: None)


def payoff_plan(seed: int, tr, tiny: bool, ref_offset: float) -> Workload:
    noise = NoiseSpec("uncorrelated", 0.001)
    tasks = []
    for n in range(3, 6) if tiny else range(15, 19):
        c = generate(tr, lambda: gen_option_payoff(n, seed=seed), noise)
        tasks.append(
            Task(
                f"gamma_std option_payoff n={n}",
                lambda t, c=c: call_gamma_std(t, c),
                lambda g, c=c: check_gamma_std(g, c, ref_offset),
                lambda g: (g,),
            )
        )
        tasks.append(
            Task(
                f"hybrid_plan option_payoff n={n}",
                lambda t, c=c: call_hybrid_plan(t, c),
                lambda plan, c=c: check_plan(plan, closed_form_gamma_std(c), ref_offset),
                _digest_plan,
            )
        )
    return Workload(tasks, lambda t: None)


def _budgeted(tr, c, obs, mode: str, delta: float, est_seed: int):
    """Time to a stated accuracy: the mode's gamma, its Hoeffding budget at
    (delta, 0.05), then the estimate."""
    if mode == "std":
        gamma = call_gamma_std(tr, c)
    elif mode == "blk":
        gamma = call_block_coefficients(tr, c).gamma()
    else:
        gamma = call_hybrid_plan(tr, c).total_gamma
    samples = required_samples(gamma, delta, 0.05)
    return call_pec_estimate(tr, c, obs, mode, samples, est_seed), gamma, samples


def _estimate_task(name, run, reference, ref_offset) -> Task:
    def check(out):
        report, gamma, samples = out
        return check_estimate(report, gamma, samples, reference(), ref_offset)

    return Task(name, run, check, lambda out: _digest_report(out[0]))


def budgeted_estimate(seed: int, tr, tiny: bool, ref_offset: float) -> Workload:
    delta = 0.2 if tiny else 0.05
    c06 = generate(tr, lambda: parse_circuit(CRITERION_06), NoiseSpec("uncorrelated", 0.1))
    noise = NoiseSpec("uncorrelated", 0.015)
    pyramid = generate(tr, lambda: gen_rbs_pyramid(4, seed=seed), noise)
    swap = generate(tr, lambda: gen_swap_network(5, 1.0, "rzz", seed), noise)
    jobs = [
        ("criterion_06", c06, Observable.z(3, 0), "std"),
        ("rbs_pyramid n=4", pyramid, Observable.z(4, 3), "std"),
        ("swap_network rzz n=5", swap, Observable.z(5, 0), "blk"),
        ("swap_network rzz n=5", swap, Observable.z(5, 0), "hybrid"),
    ]
    tasks = []
    for k, (label, c, obs, mode) in enumerate(jobs):
        if mode == "std":
            reference = lambda c=c, obs=obs: ideal_expectation(c, obs)
        else:
            # blk/hybrid keep the documented pass-through bias, so the
            # reference is the exact mitigated value in the same mode.
            reference = lambda c=c, obs=obs, mode=mode: exact_mitigated_expectation(c, obs, mode)
        run = lambda t, c=c, obs=obs, mode=mode, k=k: _budgeted(t, c, obs, mode, delta, seed * 16 + k)
        tasks.append(_estimate_task(f"pec_estimate {mode} {label}", run, reference, ref_offset))

    def probe(t):
        for c in (c06, pyramid, swap):
            with t.span("simulate.trajectory_probe"):
                noisy_expectation(c, Observable.z(c.n, 0))

    return Workload(tasks, probe)


def reference_noisy_density(c) -> np.ndarray:
    """The circuit's noisy evolution rebuilt from simulate's public kernels:
    each op's unitary, then the dephasing its noise tag names."""
    rho = np.zeros((1 << c.n, 1 << c.n), dtype=complex)
    rho[0, 0] = 1.0
    for op, tag in zip(c.ops, c.noise_tags):
        rho = apply_unitary_density(rho, unitary_of(op), op.qubits, c.n)
        if tag is not None and not tag.is_noiseless():
            rho = apply_z_mixture_density(rho, make_dephasing(tag, tuple(sorted(op.qubits))), c.n)
    return rho


def wide_exact(seed: int, tr, tiny: bool, ref_offset: float) -> Workload:
    # Families whose structure is fixed and whose angles follow the seed, so
    # every seed asks for the same amount of work: one swap-network layer at
    # n = 10 (16 MB density matrix) and the payoff network at n = 9.
    noise = NoiseSpec("uncorrelated", 0.01)
    dense_n, payoff_n, sv_n, sv_samples = (4, 3, 10, 64) if tiny else (10, 8, 11, 384)
    makers = [
        lambda: gen_swap_network(dense_n, 1.0 / dense_n, "rzz", seed),
        lambda: gen_option_payoff(payoff_n, seed=seed),
    ]
    dense = [generate(tr, make, noise) for make in makers]
    # sv_n + 1 qubits, past the density guard, so pec_estimate takes the
    # statevector path. At p = 0.001 gamma stays near 1.4, so the Hoeffding
    # tolerance (about 0.24 at 384 samples) is tight enough to catch a bug.
    sv = generate(tr, lambda: gen_option_payoff(sv_n, seed=seed), NoiseSpec("uncorrelated", 0.001))
    tasks = []
    for c in dense:
        obs = Observable.z(c.n, c.n - 1)
        label = f"{c.meta['family']} n={c.n}"

        def run_noisy(t, c=c, obs=obs):
            with t.span("simulate.noisy_expectation"):
                return noisy_expectation(c, obs)

        def check_noisy(v, c=c, obs=obs):
            ref = _shift(obs.expectation_density(reference_noisy_density(c)), ref_offset)
            return [] if abs(v - ref) <= 1e-9 else [f"noisy expectation {v!r} != kernel-by-kernel {ref!r}"]

        def run_exact(t, c=c, obs=obs):
            with t.span("simulate.exact_mitigated_expectation") as s:
                v = exact_mitigated_expectation(c, obs, "hybrid")
            t.replay(s, replay_mitigation, c, "hybrid")
            return v

        def check_exact(v, c=c, obs=obs, label=label):
            # Hybrid mitigation is exact when no block holds a pass-through
            # (XCZ/RBS) gate, which these generators never emit.
            if any(op.kind in PASS_THROUGH_KINDS for op in c.ops):
                return [f"{label} holds a pass-through gate; exactness is not expected"]
            ref = _shift(ideal_expectation(c, obs), ref_offset)
            return [] if abs(v - ref) <= 1e-9 else [f"exact hybrid {v!r} != ideal {ref!r}"]

        tasks.append(Task(f"noisy_expectation {label}", run_noisy, check_noisy, lambda v: (v,)))
        tasks.append(Task(f"exact_mitigated_expectation hybrid {label}", run_exact, check_exact, lambda v: (v,)))

    sv_obs = Observable.z(sv.n, sv.n - 1)

    def run_sv(t):
        report = call_pec_estimate(t, sv, sv_obs, "std", sv_samples, seed * 16 + 15)
        return report, report.gamma_used, sv_samples

    tasks.append(
        _estimate_task(
            f"pec_estimate std statevector option_payoff n={sv.n}",
            run_sv,
            lambda: ideal_expectation(sv, sv_obs),
            ref_offset,
        )
    )

    def probe(t):
        for c in dense:
            rho = np.zeros((1 << c.n, 1 << c.n), dtype=complex)
            rho[0, 0] = 1.0
            unitaries = [unitary_of(op) for op in c.ops]
            # Computed traffic: each call reads and writes the 16 * 4^n-byte
            # density matrix once for U rho and once for (U rho) U^dag.
            with t.span(
                "simulate.apply_unitary_density",
                calls=len(c.ops),
                bytes_computed=len(c.ops) * 64 * 4**c.n,
            ):
                for op, u in zip(c.ops, unitaries):
                    rho = apply_unitary_density(rho, u, op.qubits, c.n)
            mixes = [make_dephasing(tag, tuple(sorted(op.qubits))) for op, tag in _noisy(c)]
            with t.span("simulate.apply_z_mixture_density", calls=len(mixes)):
                for mix in mixes:
                    rho = apply_z_mixture_density(rho, mix, c.n)
        psi = np.zeros(1 << sv.n, dtype=complex)
        psi[0] = 1.0
        unitaries = [unitary_of(op) for op in sv.ops]
        with t.span("simulate.apply_unitary_state", calls=len(sv.ops)):
            for op, u in zip(sv.ops, unitaries):
                psi = apply_unitary_state(psi, u, op.qubits, sv.n)

    return Workload(tasks, probe)


WORKLOADS = {
    "gain_sweep": gain_sweep,
    "payoff_plan": payoff_plan,
    "budgeted_estimate": budgeted_estimate,
    "wide_exact": wide_exact,
}
