from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest
from conftest import EXACT_KINDS, random_circuit
from oracles import dense, forward_block_coefficients, forward_effective_noise, naive_block_coefficients

from blockpec.blocks import (
    MitigationPlan,
    analytic_pattern_gammas,
    block_coefficients,
    gamma_blk,
    gamma_std,
    hybrid_plan,
    layer_distribution,
    mitigation_plan,
    pattern_circuit,
)
from blockpec.circuits import Circuit
from blockpec.errors import (
    GuardExceeded,
    InvalidArgument,
    NotZClosed,
    Unsupported,
)
from blockpec.gates import GateOp
from blockpec.generators import gen_option_payoff
from blockpec.noise import NoiseSpec, fwht, invert_z_mixture
from blockpec.pauli import PauliZString

P01 = NoiseSpec("uncorrelated", 0.1)


def test_layer_distribution_pins():
    dist = layer_distribution(GateOp("CNOT", (1, 0)), P01)
    assert dist.support == (0, 1)  # sorted regardless of gate orientation
    assert np.allclose(
        dist.coeffs, [1.265625, -0.140625, -0.140625, 0.015625], atol=1e-12
    )
    assert dist.gamma() == pytest.approx(1.5625)

    quiet = layer_distribution(GateOp("CNOT", (0, 1)), None)
    assert np.array_equal(quiet.coeffs, [1.0, 0.0, 0.0, 0.0])
    assert layer_distribution(GateOp("X", (0,)), NoiseSpec("none")).gamma() == 1.0


def test_gamma_std_is_layer_product():
    c = Circuit(2, (GateOp("RZ", (1,), 0.3), GateOp("CNOT", (0, 1)))).with_noise(P01)
    assert gamma_std(c) == pytest.approx(1.25**3, abs=1e-12)
    # Untagged ops cost nothing.
    mixed = Circuit(
        2,
        (GateOp("RZ", (1,), 0.3), GateOp("CNOT", (0, 1))),
        noise_tags=(P01, None),
    )
    assert gamma_std(mixed) == pytest.approx(1.25, abs=1e-12)
    assert gamma_std(Circuit(3, ())) == 1.0


def test_single_gate_block_equals_layer():
    c = Circuit(2, (GateOp("CNOT", (0, 1)),)).with_noise(P01)
    b = block_coefficients(c)
    assert np.allclose(
        b.coeffs, [1.265625, -0.140625, -0.140625, 0.015625], atol=1e-12
    )
    assert b.gamma() == pytest.approx(gamma_std(c))
    assert b.coeffs.sum() == pytest.approx(1.0)


def test_closed_form_pins_at_p01():
    assert analytic_pattern_gammas("a", 0.1) == pytest.approx(
        (1.953125, 1.84375), abs=1e-12
    )
    assert analytic_pattern_gammas("b", 0.1) == pytest.approx(
        (2.44140625, 2.234375), abs=1e-12
    )
    assert analytic_pattern_gammas("c", 0.1) == pytest.approx(
        (2.44140625, 2.3046875), abs=1e-12
    )
    g_std, g_blk = analytic_pattern_gammas("b", 0.1, correlated=True)
    assert g_std == pytest.approx((3.2 / 2.6) ** 2, abs=1e-12)
    assert g_blk == pytest.approx(10.12 / 6.76, abs=1e-12)


def test_closed_forms_match_engine():
    for p in (0.01, 0.1, 0.3):
        spec = NoiseSpec("uncorrelated", p)
        for pattern in ("a", "b", "c"):
            c = pattern_circuit(pattern).with_noise(spec)
            g_std, g_blk = analytic_pattern_gammas(pattern, p)
            assert gamma_std(c) == pytest.approx(g_std, abs=1e-12)
            assert gamma_blk(c) == pytest.approx(g_blk, abs=1e-12)
        corr = pattern_circuit("b").with_noise(NoiseSpec("correlated", p))
        g_std, g_blk = analytic_pattern_gammas("b", p, correlated=True)
        assert gamma_std(corr) == pytest.approx(g_std, abs=1e-12)
        assert gamma_blk(corr) == pytest.approx(g_blk, abs=1e-12)


def test_three_way_oracle_agreement():
    rng = np.random.default_rng(41)
    for trial in range(30):
        n = int(rng.integers(2, 4))
        depth = int(rng.integers(1, 17 // n + 1))
        kind = "correlated" if trial % 3 == 0 else "uncorrelated"
        spec = NoiseSpec(kind, float(rng.uniform(0.01, 0.3)))
        c = random_circuit(rng, n, depth).with_noise(spec)
        recursive = dense(block_coefficients(c), n)
        naive = naive_block_coefficients(c).coeffs
        via_effective = invert_z_mixture(forward_effective_noise(c)).coeffs
        forward = forward_block_coefficients(c).coeffs
        scale = max(1.0, float(np.abs(recursive).max()))
        assert np.abs(recursive - naive).max() < 1e-12 * scale
        assert np.abs(recursive - via_effective).max() < 1e-12 * scale
        assert np.abs(recursive - forward).max() < 1e-12 * scale


def test_triangle_inequality():
    rng = np.random.default_rng(43)
    for _ in range(60):
        n = int(rng.integers(2, 5))
        depth = int(rng.integers(1, 7))
        spec = NoiseSpec("uncorrelated", float(rng.uniform(0.01, 0.4)))
        c = random_circuit(rng, n, depth).with_noise(spec)
        assert gamma_blk(c) <= gamma_std(c) * (1.0 + 1e-12)


def test_gamma_is_angle_invariant():
    rng = np.random.default_rng(47)
    base = random_circuit(rng, 3, 6)
    reference_std = reference_blk = None
    for _ in range(5):
        ops = tuple(
            GateOp(op.kind, op.qubits, rng.uniform(0, 2 * np.pi))
            if op.angle is not None
            else op
            for op in base.ops
        )
        c = Circuit(3, ops).with_noise(P01)
        if reference_std is None:
            reference_std, reference_blk = gamma_std(c), gamma_blk(c)
        assert gamma_std(c) == pytest.approx(reference_std, abs=1e-12)
        assert gamma_blk(c) == pytest.approx(reference_blk, abs=1e-12)


def test_block_channel_identity():
    # Summing the aggregated controls against the noisy circuit reproduces
    # the ideal circuit as a channel, entrywise on all basis matrices.
    from blockpec.simulate import (
        apply_unitary_density,
        apply_z_mixture_density,
    )
    from blockpec.gates import unitary_of
    from blockpec.noise import make_dephasing

    c = Circuit(
        2,
        (
            GateOp("RZ", (0,), 0.3),
            GateOp("CNOT", (0, 1)),
            GateOp("RZZ", (0, 1), 0.7),
        ),
    ).with_noise(P01)
    b = block_coefficients(c)
    for j in range(4):
        for k in range(4):
            rho = np.zeros((4, 4), dtype=complex)
            rho[j, k] = 1.0
            ideal = rho.copy()
            noisy = rho.copy()
            for op, tag in zip(c.ops, c.noise_tags):
                u = unitary_of(op)
                ideal = apply_unitary_density(ideal, u, op.qubits, 2)
                noisy = apply_unitary_density(noisy, u, op.qubits, 2)
                mix = make_dephasing(tag, tuple(sorted(op.qubits)))
                noisy = apply_z_mixture_density(noisy, mix, 2)
            mitigated = apply_z_mixture_density(noisy, b, 2)
            assert np.abs(mitigated - ideal).max() < 1e-10


def test_incompatible_gate_raises():
    c = Circuit(2, (GateOp("H", (0,)), GateOp("CNOT", (0, 1)))).with_noise(P01)
    with pytest.raises(NotZClosed):
        block_coefficients(c)


def test_hybrid_plan_mixed_circuit():
    c = Circuit(
        2, (GateOp("CNOT", (0, 1)), GateOp("H", (0,)), GateOp("CNOT", (0, 1)))
    ).with_noise(P01)
    plan = hybrid_plan(c)
    assert [seg.kind for seg in plan.segments] == ["block", "per_gate", "block"]
    assert [(seg.start, seg.stop) for seg in plan.segments] == [(0, 1), (1, 2), (2, 3)]
    assert plan.segments[0].gamma == pytest.approx(1.5625)
    assert plan.segments[1].gamma == pytest.approx(1.25)
    assert plan.total_gamma == pytest.approx(1.5625 * 1.25 * 1.5625, abs=1e-12)

    doc = json.loads(plan.to_json())
    assert doc["total_gamma"] == pytest.approx(plan.total_gamma)
    assert [seg["type"] for seg in doc["segments"]] == ["block", "per_gate", "block"]
    assert doc["segments"][0]["op_range"] == [0, 1]
    assert all(v != 0.0 for seg in doc["segments"] for _, v in seg["coeffs"])


def test_hybrid_plan_degenerate_cases():
    compatible = pattern_circuit("b").with_noise(P01)
    plan = hybrid_plan(compatible)
    assert len(plan.segments) == 1
    assert plan.segments[0].kind == "block"
    assert plan.total_gamma == pytest.approx(gamma_blk(compatible), abs=1e-12)

    hostile = Circuit(2, (GateOp("H", (0,)), GateOp("H", (1,)))).with_noise(P01)
    plan = hybrid_plan(hostile)
    assert all(seg.kind == "per_gate" for seg in plan.segments)
    assert plan.total_gamma == pytest.approx(gamma_std(hostile), abs=1e-12)

    toffoli = Circuit(3, (GateOp("TOFFOLI", (0, 1, 2)),)).with_noise(P01)
    plan = hybrid_plan(toffoli)
    assert [seg.kind for seg in plan.segments] == ["per_gate"]
    assert plan.total_gamma == pytest.approx(1.25**3, abs=1e-12)


def test_hybrid_between_blk_and_std():
    rng = np.random.default_rng(59)
    for _ in range(20):
        c = random_circuit(rng, 3, 5, EXACT_KINDS + ("H",)).with_noise(P01)
        total = hybrid_plan(c).total_gamma
        assert total <= gamma_std(c) + 1e-12


def test_guards():
    # The noise of a 20-CNOT chain reaches all 21 qubits.
    chain = Circuit(21, tuple(GateOp("CNOT", (q, q + 1)) for q in range(20)))
    with pytest.raises(GuardExceeded):
        block_coefficients(chain.with_noise(P01))
    c = Circuit(3, tuple(GateOp("CNOT", (0, 1)) for _ in range(6))).with_noise(P01)
    with pytest.raises(GuardExceeded):
        naive_block_coefficients(c)  # n*d = 18 > 16


def test_block_costs_past_20_qubits():
    # Each block of the 24-qubit payoff circuit reaches at most 2 qubits, so
    # its corrections stay small although the register is wide.
    c = gen_option_payoff(24, seed=0).with_noise(P01)
    plan = hybrid_plan(c)
    assert math.isfinite(plan.total_gamma)
    assert plan.total_gamma <= gamma_std(c) * (1.0 + 1e-12)
    product = math.prod(seg.gamma for seg in plan.segments)
    assert abs(plan.total_gamma - product) <= 1e-12 * product
    assert max(seg.coeffs.m for seg in plan.segments) <= 2
    for seg in json.loads(plan.to_json())["segments"]:
        masks = [mask for mask, _ in seg["coeffs"]]
        assert masks == sorted(set(masks))
    assert block_coefficients(Circuit(21, ())).coeffs.tolist() == [1.0]


def test_overflowing_costs_raise_guard():
    # 401 CNOTs at p = 0.4: gamma_std = 25^401 overflows float64, and so do
    # the block coefficients.
    c = Circuit(2, tuple(GateOp("CNOT", (0, 1)) for _ in range(401)))
    c = c.with_noise(NoiseSpec("uncorrelated", 0.4))
    with pytest.raises(GuardExceeded):
        gamma_std(c)
    with pytest.raises(GuardExceeded):
        gamma_blk(c)
    with pytest.raises(GuardExceeded):
        hybrid_plan(c)
    # Short blocks with finite gammas whose product overflows.
    pair = (GateOp("CNOT", (0, 1)), GateOp("H", (0,)))
    mixed = Circuit(2, pair * 401).with_noise(NoiseSpec("uncorrelated", 0.4))
    with pytest.raises(GuardExceeded):
        hybrid_plan(mixed)


@pytest.mark.parametrize("p", ["0.1", True, None], ids=["str", "bool", "none"])
def test_analytic_pattern_refuses_non_numbers(p):
    with pytest.raises(InvalidArgument, match="p must lie in"):
        analytic_pattern_gammas("a", p)


def test_analytic_pattern_errors():
    with pytest.raises(InvalidArgument):
        analytic_pattern_gammas("d", 0.1)
    with pytest.raises(InvalidArgument):
        analytic_pattern_gammas("a", 0.0)
    with pytest.raises(InvalidArgument):
        analytic_pattern_gammas("a", 0.5)
    with pytest.raises(Unsupported):
        analytic_pattern_gammas("a", 0.1, correlated=True)
    with pytest.raises(Unsupported):
        analytic_pattern_gammas("c", 0.1, correlated=True)
    with pytest.raises(InvalidArgument):
        pattern_circuit("d")


def test_effective_noise_is_convex_channel():
    # The blk segment carries the inverse's eigenvalues; their reciprocals
    # transform back to the effective noise, a convex Z-mixture.
    rng = np.random.default_rng(61)
    for _ in range(10):
        c = random_circuit(rng, 3, 4, EXACT_KINDS).with_noise(P01)
        (seg,) = mitigation_plan(c, "blk").segments
        eff = fwht(1.0 / seg.eigenvalues) / len(seg.eigenvalues)
        assert eff.min() >= -1e-12
        assert eff.sum() == pytest.approx(1.0, abs=1e-12)


def test_cost_scales_subquadratically_in_depth():
    rng = np.random.default_rng(67)
    circuits = {
        d: random_circuit(rng, 6, d, EXACT_KINDS).with_noise(P01)
        for d in (4, 8, 16, 32)
    }
    times = {}
    for d, c in circuits.items():
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            block_coefficients(c)
            best = min(best, time.perf_counter() - t0)
        times[d] = best
    # Linear depth scaling predicts a factor ~8 between d=4 and d=32; allow a
    # wide margin but rule out quadratic (factor 64) growth.
    assert times[32] <= 32 * max(times[4], 1e-5)


@pytest.mark.parametrize("bad, qubit", [(GateOp("H", (2,)), 2), (GateOp("TOFFOLI", (3, 0, 1)), 1)])
def test_blk_plan_error_names_the_failing_op_and_qubit(bad, qubit):
    """The first op that leaves the Z-string group raises, with its first
    qubit whose generator fails (a TOFFOLI's target)."""
    ops = (GateOp("CNOT", (0, 1)), GateOp("RZ", (2,), 0.3), bad, GateOp("H", (0,)), bad)
    c = Circuit(4, ops).with_noise(P01)
    with pytest.raises(NotZClosed) as exc:
        mitigation_plan(c, "blk")
    assert exc.value.gate is c.ops[2]
    assert exc.value.zstring == PauliZString.single(4, qubit)
    assert str(exc.value) == f"conjugation of {PauliZString.single(4, qubit)} through {bad} is not a Z-string"


@pytest.mark.parametrize("spec", ["x", 0.1, "none"])
def test_layer_distribution_refuses_a_tag_that_is_not_a_noise_spec(spec):
    with pytest.raises(InvalidArgument, match="NoiseSpec"):
        layer_distribution(GateOp("H", (0,)), spec)
