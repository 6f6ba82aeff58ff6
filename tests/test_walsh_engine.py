"""Differential tests: the Walsh-domain block engine against the forward
XOR-convolution oracle in oracles.py, and the per-call classifier tables
against the per-gate predicates."""

from __future__ import annotations

import math

import numpy as np
import pytest
from conftest import COMPATIBLE_KINDS
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    all_strings_z_compatible,
    dense,
    forward_block_coefficients,
    forward_effective_noise,
)

from blockpec.blocks import (
    block_coefficients,
    effective_noise,
    gamma_blk,
    gamma_std,
    hybrid_plan,
)
from blockpec.circuits import Circuit
from blockpec.classify import (
    classify_circuit,
    is_bias_preserving,
    is_s1_bias_preserving,
    pauli_z_compatible,
)
from blockpec.gates import GATE_KINDS, GateOp
from blockpec.generators import gen_rbs_pyramid, gen_swap_network
from blockpec.noise import NoiseSpec

P_LOW = NoiseSpec("uncorrelated", 0.001)


def assert_matches_oracle(c: Circuit) -> None:
    fast = dense(block_coefficients(c), c.n)
    slow = forward_block_coefficients(c).coeffs
    scale = max(1.0, float(np.abs(slow).max()))
    assert np.abs(fast - slow).max() <= 1e-12 * scale
    g_slow = float(np.abs(slow).sum())
    assert abs(gamma_blk(c) - g_slow) <= 1e-12 * g_slow
    # Masks the oracle never reaches stay exactly zero: plans, folding and
    # the estimator all iterate over the nonzero support.
    assert np.all(fast[slow == 0.0] == 0.0)

    eff = dense(effective_noise(c), c.n)
    eff_slow = forward_effective_noise(c).coeffs
    assert np.abs(eff - eff_slow).max() <= 1e-12
    assert np.all(eff[eff_slow == 0.0] == 0.0)


noise_tags = st.one_of(
    st.none(),
    st.builds(
        NoiseSpec,
        st.sampled_from(("uncorrelated", "correlated")),
        st.floats(0.001, 0.45),
    ),
    st.just(NoiseSpec("none")),
)


@st.composite
def tagged_circuits(draw, max_n=6, max_depth=10):
    n = draw(st.integers(1, max_n))
    # The ops act on a drawn subset of the qubits, often a strict one.
    active = draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    )
    usable = [k for k in COMPATIBLE_KINDS if GATE_KINDS[k][0] <= len(active)]
    ops = []
    for _ in range(draw(st.integers(0, max_depth))):
        kind = draw(st.sampled_from(usable))
        arity, takes_angle = GATE_KINDS[kind]
        qubits = draw(st.permutations(active))[:arity]
        angle = draw(st.floats(0.0, 2.0 * math.pi)) if takes_angle else None
        ops.append(GateOp(kind, tuple(qubits), angle))
    if draw(st.booleans()):
        tags = (draw(noise_tags),) * len(ops)
    else:
        tags = tuple(draw(noise_tags) for _ in ops)
    return Circuit(n, tuple(ops), tags)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(tagged_circuits())
def test_engine_matches_forward_oracle(c):
    assert_matches_oracle(c)


def _relabel(c: Circuit, width: int, qubit_of) -> Circuit:
    ops = tuple(
        GateOp(op.kind, tuple(qubit_of[q] for q in op.qubits), op.angle) for op in c.ops
    )
    return Circuit(width, ops, c.noise_tags)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(tagged_circuits(), st.integers(0, 4), st.randoms(use_true_random=False))
def test_costs_ignore_qubit_labels_and_register_width(c, extra, rnd):
    width = c.n + extra
    moved = _relabel(c, width, rnd.sample(range(width), c.n))
    for cost in (gamma_std, gamma_blk, lambda x: hybrid_plan(x).total_gamma):
        want = cost(c)
        assert abs(cost(moved) - want) <= 1e-12 * want
    # An order-preserving embedding keeps the local coefficient order, so
    # the coefficients stay bitwise and only the support moves.
    slots = sorted(rnd.sample(range(width), c.n))
    mix = block_coefficients(c)
    wide = block_coefficients(_relabel(c, width, slots))
    assert wide.support == tuple(slots[q] for q in mix.support)
    assert wide.coeffs.tobytes() == mix.coeffs.tobytes()


def test_strict_subset_block_is_exact_outside_span():
    ops = (
        GateOp("CNOT", (1, 3)),
        GateOp("RZZ", (3, 4), 0.3),
        GateOp("SWAP", (1, 4)),
    )
    c = Circuit(6, ops).with_noise(NoiseSpec("correlated", 0.2))
    assert_matches_oracle(c)
    coeffs = dense(block_coefficients(c), 6)
    touched = (1 << 1) | (1 << 3) | (1 << 4)
    outside = np.arange(64) & ~touched != 0
    assert np.all(coeffs[outside] == 0.0)


@pytest.mark.parametrize("n", range(2, 11))
def test_swap_network_rbs_matches_oracle(n):
    assert_matches_oracle(gen_swap_network(n, 3.0, "rbs", seed=n).with_noise(P_LOW))


@pytest.mark.parametrize("n", range(2, 13))
def test_rbs_pyramid_matches_oracle(n):
    assert_matches_oracle(gen_rbs_pyramid(n, seed=n).with_noise(P_LOW))


def test_hybrid_blocks_match_oracle():
    c = Circuit(
        3,
        (
            GateOp("CNOT", (0, 1)),
            GateOp("RZ", (2,), 0.4),
            GateOp("H", (1,)),
            GateOp("RZZ", (1, 2), 0.9),
            GateOp("CZ", (0, 2)),
        ),
    ).with_noise(NoiseSpec("uncorrelated", 0.05))
    for seg in hybrid_plan(c).segments:
        if seg.kind == "block":
            sub = c.subcircuit(seg.start, seg.stop)
            slow = forward_block_coefficients(sub).coeffs
            fast = dense(seg.coeffs, c.n)
            assert np.abs(fast - slow).max() <= 1e-12
            assert np.all(fast[slow == 0.0] == 0.0)


def _every_kind():
    for kind, (arity, takes_angle) in GATE_KINDS.items():
        qubits = tuple(range(arity))[::-1]
        if not takes_angle:
            yield GateOp(kind, qubits)
            continue
        for angle in (0.0, 0.37, math.pi / 2, math.pi, 2.0 * math.pi, -1.1):
            yield GateOp(kind, qubits, angle)


def test_classify_circuit_equals_per_gate_predicates():
    ops = list(_every_kind())
    # Repeat every gate so the per-call table is hit as well as filled.
    c = Circuit(3, tuple(ops + ops[::-1]))
    report = classify_circuit(c)
    for i, op in enumerate(c.ops):
        assert report.bias_preserving[i] == is_bias_preserving(op)
        want_s1 = op.arity == 2 and is_s1_bias_preserving(op)
        assert report.s1_bias_preserving[i] == want_s1
        assert report.pauli_z_compatible[i] == pauli_z_compatible(op)
        assert pauli_z_compatible(op) == all_strings_z_compatible(op)
    # Raw RY/CRY compatibility depends on the angle, so it must stay keyed.
    flags = {(op.kind, op.angle): pauli_z_compatible(op) for op in ops}
    assert flags[("RY", math.pi)] and not flags[("RY", 0.37)]
    assert flags[("CRY", 2.0 * math.pi)] and not flags[("CRY", 0.37)]
