"""Differential tests: the Walsh-domain block engine against the forward
XOR-convolution oracle in oracles.py, and the per-call classifier tables
against the flags of one-op circuits."""

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
    _block_span,
    _GateTables,
    _walsh_engine,
    block_coefficients,
    gamma_blk,
    gamma_std,
    hybrid_plan,
    layer_distribution,
    mitigation_plan,
)
from blockpec.circuits import Circuit
from blockpec.classify import classify_circuit, pauli_z_compatible
from blockpec.errors import BlockPecError, GuardExceeded, InvalidArgument, UnsupportedKind
from blockpec.gates import GATE_KINDS, GateOp, expand_composite
from blockpec.generators import gen_option_payoff, gen_rbs_pyramid, gen_swap_network
from blockpec.noise import NoiseSpec, fwht

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

    if c.ops:
        # The blk segment's eigenvalues invert the oracle's effective noise
        # at every pattern, which reads the bits of the block's support.
        seg = mitigation_plan(c, "blk").segments[0]
        support = seg.coeffs.support
        local = [sum((t >> q & 1) << i for i, q in enumerate(support)) for t in range(1 << c.n)]
        carried = seg.eigenvalues[local]
        product = carried * fwht(forward_effective_noise(c).coeffs)
        assert np.all(np.abs(product - 1.0) <= 1e-12 * np.maximum(1.0, np.abs(carried)))


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
def tagged_circuits(draw, max_n=6, max_depth=10, kinds=COMPATIBLE_KINDS):
    n = draw(st.integers(1, max_n))
    # The ops act on a drawn subset of the qubits, often a strict one.
    active = draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    )
    usable = [k for k in kinds if GATE_KINDS[k][0] <= len(active)]
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


@st.composite
def any_kind_circuits(draw):
    """Circuits over every gate kind, with RY/CRY kept whole or expanded
    into primitive gates that share the composite's noise tag."""
    c = draw(tagged_circuits(kinds=tuple(GATE_KINDS)))
    if draw(st.booleans()):
        pairs = [(x, tag) for op, tag in zip(c.ops, c.noise_tags) for x in expand_composite(op)]
        c = Circuit(c.n, tuple(x for x, _ in pairs), tuple(tag for _, tag in pairs))
    return c


@settings(max_examples=150, deadline=None, derandomize=True)
@given(any_kind_circuits())
def test_mitigation_plans_match_costs_and_classifier(c):
    for mode, cost in (("std", gamma_std), ("blk", gamma_blk)):
        try:
            want = cost(c)
        except BlockPecError as exc:
            with pytest.raises(BlockPecError) as info:
                mitigation_plan(c, mode)
            assert type(info.value) is type(exc)
        else:
            assert mitigation_plan(c, mode).total_gamma.hex() == want.hex()
    plan = mitigation_plan(c, "hybrid")
    blocks = tuple((seg.start, seg.stop) for seg in plan.segments if seg.kind == "block")
    assert blocks == classify_circuit(c).segments
    with pytest.raises(InvalidArgument):
        mitigation_plan(c, "turbo")


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


@pytest.mark.parametrize(
    "c, full_rank",
    [
        (gen_rbs_pyramid(6, seed=3).with_noise(P_LOW), True),
        (gen_swap_network(5, 2.0, "rbs", seed=1).with_noise(NoiseSpec("correlated", 0.05)), True),
        # Z_1 pushed through the CNOT is Z_0 Z_1: rank 1 on two qubits, then
        # rank 2 on three.
        (Circuit(2, (GateOp("RZ", (1,), 0.3), GateOp("CNOT", (0, 1))), (P_LOW, None)), False),
        (Circuit(3, (GateOp("RZZ", (1, 2), 0.3), GateOp("CNOT", (0, 1))),
                 (NoiseSpec("correlated", 0.2), None)), False),
    ],
)
def test_full_rank_blocks_equal_the_layout_route(c, full_rank):
    """A full-rank block's row and eigenvalues are used as they are: its
    layout is the identity. A rank-deficient block is scattered through it."""
    tables = _GateTables()
    local, support, _ = _block_span(c, 0, len(c.ops), tables)
    m = len(support)
    assert (len(local) == m) is full_rank
    index, pattern = tables.layout(local, m)
    identity = np.arange(1 << m)
    assert (np.array_equal(index, identity) and np.array_equal(pattern, identity)) is full_rank
    ((mix, lam),) = _walsh_engine(c, [(0, len(c.ops))], _GateTables())
    assert mix.support == support and lam.shape == (1 << m,)
    outside = np.setdiff1d(identity, index)
    assert np.all(mix.coeffs[outside] == 0.0) and np.all(mix.coeffs[index] != 0.0)
    # Each local pattern reads its span element's eigenvalue.
    assert np.allclose(lam, fwht(mix.coeffs), rtol=1e-12, atol=0.0)
    assert mix.coeffs.tobytes() == block_coefficients(c).coeffs.tobytes()
    assert_matches_oracle(c)


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


def _segment_by_segment(c: Circuit):
    """The hybrid plan's corrections one segment at a time in circuit order:
    block_coefficients of each block's subcircuit, layer_distribution of
    each op in between. Raises what the first failing segment raises."""
    stops = dict(classify_circuit(c).segments)
    out, i = [], 0
    while i < len(c.ops):
        if i in stops:
            out.append(block_coefficients(c.subcircuit(i, stops[i])))
            i = stops[i]
        else:
            out.append(layer_distribution(c.ops[i], c.noise_tags[i]))
            i += 1
    return out


def assert_plan_is_segment_by_segment(c: Circuit) -> None:
    """Every hybrid block segment equals, bytewise, its block on its own (the
    batch over the plan's blocks changes no bit), and a failing plan raises
    the first failure in circuit order."""
    try:
        want = _segment_by_segment(c)
    except BlockPecError as exc:
        with pytest.raises(type(exc)) as info:
            mitigation_plan(c, "hybrid")
        assert str(info.value) == str(exc)
        return
    if not math.isfinite(math.prod(mix.gamma() for mix in want)):
        with pytest.raises(GuardExceeded, match="total gamma"):
            mitigation_plan(c, "hybrid")
        return
    segments = mitigation_plan(c, "hybrid").segments
    assert len(segments) == len(want)
    for seg, mix in zip(segments, want):
        assert seg.coeffs.support == mix.support
        assert seg.coeffs.coeffs.tobytes() == mix.coeffs.tobytes()
        assert seg.gamma.hex() == mix.gamma().hex()


def _noise_of(kind: str, p: float) -> NoiseSpec | None:
    if kind == "impure":
        return NoiseSpec("impure", p, 3.0)
    return None if kind == "untagged" else NoiseSpec(kind, p)


@st.composite
def multi_block_circuits(draw):
    """Runs of Z-closed one- and two-qubit gates split by H (and sometimes
    TOFFOLI) separators, each run tagged as a whole or per op, so one plan
    holds blocks of several span ranks: rank 0 (noiseless runs) up to the
    qubits a run touches. A rare impure tag or high p makes some segment
    fail."""
    n = draw(st.integers(1, 5))
    kinds = [k for k in COMPATIBLE_KINDS if GATE_KINDS[k][0] <= n]
    tag_kinds = st.sampled_from(("uncorrelated", "correlated", "none", "untagged", "impure"))
    ops, tags = [], []
    for _ in range(draw(st.integers(1, 6))):
        run_tag = draw(tag_kinds)
        p = draw(st.sampled_from((0.001, 0.05, 0.3, 0.45)))
        for _ in range(draw(st.integers(0, 6))):
            kind = draw(st.sampled_from(kinds))
            arity, takes_angle = GATE_KINDS[kind]
            qubits = tuple(draw(st.permutations(range(n)))[:arity])
            angle = draw(st.floats(0.0, 2.0 * math.pi)) if takes_angle else None
            ops.append(GateOp(kind, qubits, angle))
            tag = run_tag if draw(st.booleans()) else draw(tag_kinds)
            rare = tag != "impure" or draw(st.integers(0, 9)) == 0
            tags.append(_noise_of(tag, p) if rare else None)
        if n >= 3 and draw(st.booleans()):
            ops.append(GateOp("TOFFOLI", (0, 1, 2)))
        else:
            ops.append(GateOp("H", (draw(st.integers(0, n - 1)),)))
        tags.append(_noise_of(draw(tag_kinds), 0.01) if draw(st.integers(0, 9)) == 0 else None)
    return Circuit(n, tuple(ops), tuple(tags))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(multi_block_circuits())
def test_batched_blocks_equal_each_block_alone(c):
    assert_plan_is_segment_by_segment(c)


def test_batched_blocks_cover_ranks_zero_to_three():
    ops = (
        GateOp("CNOT", (0, 1)),  # noiseless: rank 0
        GateOp("H", (0,)),
        GateOp("RZ", (2,), 0.3),  # rank 1
        GateOp("H", (2,)),
        GateOp("RZZ", (0, 1), 0.7),  # rank 2
        GateOp("H", (1,)),
        GateOp("CNOT", (0, 1)),  # rank 3, arities 1 and 2
        GateOp("CNOT", (1, 2)),
        GateOp("T", (2,)),
        GateOp("H", (0,)),
        GateOp("Z", (3,)),  # rank 1 again, on another qubit
    )
    u, corr = NoiseSpec("uncorrelated", 0.05), NoiseSpec("correlated", 0.1)
    tags = (None, u, u, corr, corr, None, u, corr, u, None, corr)
    c = Circuit(4, ops, tags)
    assert_plan_is_segment_by_segment(c)
    blocks = [seg.coeffs for seg in hybrid_plan(c).segments if seg.kind == "block"]
    assert [mix.support for mix in blocks] == [(), (2,), (0, 1), (0, 1, 2), (3,)]
    # A rank-r span holds 2^r strings, none of whose coefficients vanishes here.
    assert [np.count_nonzero(mix.coeffs) for mix in blocks] == [1, 2, 4, 8, 2]


@pytest.mark.parametrize("n", range(15, 19))
def test_option_payoff_blocks_equal_each_block_alone(n):
    for noise in (NoiseSpec("uncorrelated", 0.01), NoiseSpec("correlated", 0.05)):
        assert_plan_is_segment_by_segment(gen_option_payoff(n, seed=n).with_noise(noise))


_OVERFLOW = NoiseSpec("uncorrelated", 0.4)
_IMPURE = NoiseSpec("impure", 0.05, 3.0)


@pytest.mark.parametrize(
    "parts, error, match",
    [
        # An overflowing block, then an impure per-gate op.
        ([("CNOT", 401, _OVERFLOW), ("H", 1, _IMPURE)], GuardExceeded, "overflow"),
        # An impure per-gate op, then an overflowing block.
        ([("H", 1, _IMPURE), ("CNOT", 401, _OVERFLOW)], UnsupportedKind, "impure"),
        # An overflowing block, then a block holding an impure op.
        (
            [("CNOT", 401, _OVERFLOW), ("H", 1, None), ("RZ", 1, _IMPURE)],
            GuardExceeded,
            "overflow",
        ),
        # A block holding an impure op, then an overflowing block.
        (
            [("RZ", 1, _IMPURE), ("H", 1, None), ("CNOT", 401, _OVERFLOW)],
            UnsupportedKind,
            "impure",
        ),
    ],
)
def test_the_first_failing_segment_decides(parts, error, match):
    ops, tags = [], []
    for kind, count, tag in parts:
        qubits = (0, 1) if kind == "CNOT" else (0,)
        op = GateOp(kind, qubits, 0.2 if kind == "RZ" else None)
        ops += [op] * count
        tags += [tag] * count
    c = Circuit(2, tuple(ops), tuple(tags))
    with pytest.raises(error, match=match):
        mitigation_plan(c, "hybrid")
    assert_plan_is_segment_by_segment(c)


def test_an_overflowing_block_precedes_a_later_reach_guard():
    wide = tuple(GateOp("CNOT", (q, q + 1)) for q in range(21))
    ops = (GateOp("CNOT", (0, 1)),) * 401 + (GateOp("H", (0,)),) + wide
    tags = (_OVERFLOW,) * 401 + (None,) + (NoiseSpec("uncorrelated", 0.01),) * 21
    c = Circuit(22, ops, tags)
    with pytest.raises(GuardExceeded, match="overflow"):
        mitigation_plan(c, "hybrid")
    with pytest.raises(GuardExceeded, match="reaches 22 qubits"):
        mitigation_plan(c.subcircuit(401, len(ops)), "hybrid")


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
        alone = classify_circuit(Circuit(3, (op,)))
        assert report.bias_preserving[i] == alone.bias_preserving[0]
        assert report.s1_bias_preserving[i] == alone.s1_bias_preserving[0]
        assert report.pauli_z_compatible[i] == pauli_z_compatible(op)
        assert pauli_z_compatible(op) == all_strings_z_compatible(op)
    # Raw RY/CRY compatibility depends on the angle, so it must stay keyed.
    flags = {(op.kind, op.angle): pauli_z_compatible(op) for op in ops}
    assert flags[("RY", math.pi)] and not flags[("RY", 0.37)]
    assert flags[("CRY", 2.0 * math.pi)] and not flags[("CRY", 0.37)]
