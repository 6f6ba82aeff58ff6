from __future__ import annotations

import math

import numpy as np
import pytest

from blockpec.blocks import gamma_blk, gamma_std
from blockpec.circuits import serialize_circuit
from blockpec.classify import classify_circuit
from blockpec.errors import DegenerateVector, InvalidArgument
from blockpec.gates import unitary_of
from blockpec.generators import (
    PRNG_NAME,
    gen_option_payoff,
    gen_random_bp,
    gen_rbs_pyramid,
    gen_swap_network,
    gen_unary_loader,
    rbs_sequence,
)
from blockpec.noise import NoiseSpec
from blockpec.simulate import apply_unitary_state


def _amplitudes(c) -> np.ndarray:
    psi = np.zeros(1 << c.n, dtype=complex)
    psi[0] = 1.0
    for op in c.ops:
        psi = apply_unitary_state(psi, unitary_of(op), op.qubits, c.n)
    return psi


def test_generators_deterministic():
    builders = (
        lambda s: gen_random_bp(4, s),
        lambda s: gen_swap_network(4, 1.0, "rzz", s),
        lambda s: gen_swap_network(4, 3.0, "rbs", s),
        lambda s: gen_rbs_pyramid(4, seed=s),
        lambda s: gen_option_payoff(3, seed=s),
    )
    for build in builders:
        assert serialize_circuit(build(7)) == serialize_circuit(build(7))
        assert serialize_circuit(build(7)) != serialize_circuit(build(8))


def test_rbs_sequence_structure():
    seq = rbs_sequence(1, 2, 0.4)
    assert [g.kind for g in seq] == ["CNOT", "XCZ", "CNOT"]
    assert all(g.qubits == (1, 2) for g in seq)
    assert seq[1].angle == 0.4


def test_random_bp_structure():
    for n in (2, 4, 7):
        c = gen_random_bp(n, seed=11)
        assert len(c.ops) == n + 1
        assert c.n == n
        assert all(
            op.kind in ("X", "Z", "CNOT", "RZ", "RZZ", "CZ") for op in c.ops
        )
        report = classify_circuit(c)
        assert report.segments == ((0, n + 1),)
        assert c.meta == {
            "family": "random_bp",
            "n": n,
            "seed": 11,
            "prng": PRNG_NAME,
        }
    with pytest.raises(InvalidArgument):
        gen_random_bp(1, seed=0)


def test_random_bp_covers_kinds_and_angles():
    seen = set()
    for seed in range(40):
        c = gen_random_bp(5, seed)
        for op in c.ops:
            seen.add(op.kind)
            if op.angle is not None:
                assert 0.0 <= op.angle < 2.0 * math.pi
            assert len(set(op.qubits)) == len(op.qubits)
    assert seen == {"X", "Z", "CNOT", "RZ", "RZZ", "CZ"}


def test_swap_network_minimal():
    c = gen_swap_network(2, 1.0, "rzz", seed=3)
    assert [op.kind for op in c.ops] == ["RZZ", "CNOT", "CNOT", "CNOT"]
    assert [op.qubits for op in c.ops] == [(0, 1), (0, 1), (1, 0), (0, 1)]

    rbs_variant = gen_swap_network(2, 1.0, "rbs", seed=3)
    assert [op.kind for op in rbs_variant.ops] == [
        "CNOT",
        "XCZ",
        "CNOT",
        "CNOT",
        "CNOT",
        "CNOT",
    ]

    native = gen_swap_network(2, 1.0, "rzz", seed=3, decompose_swap=False)
    assert [op.kind for op in native.ops] == ["RZZ", "SWAP"]


def test_swap_network_brick_layout():
    c = gen_swap_network(4, 1.0, "rzz", seed=5)
    # Layers 0..3 alternate two even pairs and one odd pair: 6 interactions.
    rzz_ops = [op for op in c.ops if op.kind == "RZZ"]
    assert len(rzz_ops) == 6
    assert len(c.ops) == 6 * 4
    assert [op.qubits for op in rzz_ops] == [
        (0, 1),
        (2, 3),
        (1, 2),
        (0, 1),
        (2, 3),
        (1, 2),
    ]
    assert classify_circuit(c).segments == ((0, len(c.ops)),)
    assert c.meta["interaction"] == "rzz"
    assert c.meta["depth_factor"] == 1.0


def test_swap_network_contains_rotation_cnot_motif():
    c = gen_swap_network(5, 1.0, "rzz", seed=9)
    motifs = sum(
        1
        for a, b in zip(c.ops, c.ops[1:])
        if a.kind == "RZZ" and b.kind == "CNOT" and a.qubits == b.qubits
    )
    assert motifs >= 1


def test_swap_network_validation():
    with pytest.raises(InvalidArgument):
        gen_swap_network(1, 1.0, "rzz", seed=0)
    with pytest.raises(InvalidArgument):
        gen_swap_network(4, 1.0, "xy", seed=0)
    with pytest.raises(InvalidArgument):
        gen_swap_network(4, 0.0, "rzz", seed=0)


def test_swap_network_rejects_non_finite_depth_factor():
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(InvalidArgument):
            gen_swap_network(4, value, "rzz", seed=0)


def test_pyramid_minimal():
    c = gen_rbs_pyramid(2, seed=1)
    assert [op.kind for op in c.ops] == ["X", "CNOT", "XCZ", "CNOT"]
    assert c.ops[0].qubits == (0,)


def test_pyramid_schedule_and_size():
    for n in (3, 4, 6):
        c = gen_rbs_pyramid(n, seed=2)
        xcz = [op for op in c.ops if op.kind == "XCZ"]
        assert len(xcz) == n * (n - 1) // 2
        assert len(c.ops) == 1 + 3 * len(xcz)
        # Nearest-neighbor pairs only.
        assert all(op.qubits[1] == op.qubits[0] + 1 for op in xcz)
        assert classify_circuit(c).segments == ((0, len(c.ops)),)
    # Descending-diagonal schedule for n=3.
    c3 = gen_rbs_pyramid(3, seed=2)
    assert [op.qubits for op in c3.ops if op.kind == "XCZ"] == [
        (0, 1),
        (1, 2),
        (0, 1),
    ]


def test_pyramid_angle_handling():
    with pytest.raises(InvalidArgument):
        gen_rbs_pyramid(1, seed=0)
    with pytest.raises(InvalidArgument):
        gen_rbs_pyramid(3)  # neither angles nor seed
    with pytest.raises(InvalidArgument):
        gen_rbs_pyramid(3, angles=[0.1, 0.2])  # needs 3
    explicit = gen_rbs_pyramid(3, angles=[0.1, 0.2, 0.3])
    assert [op.angle for op in explicit.ops if op.kind == "XCZ"] == [0.1, 0.2, 0.3]
    assert "seed" not in explicit.meta
    assert gen_rbs_pyramid(3, seed=4).meta["seed"] == 4


def test_pyramid_gamma_angle_invariant():
    spec = NoiseSpec("uncorrelated", 0.01)
    a = gen_rbs_pyramid(4, seed=1).with_noise(spec)
    b = gen_rbs_pyramid(4, seed=2).with_noise(spec)
    assert gamma_std(a) == pytest.approx(gamma_std(b), abs=1e-12)
    assert gamma_blk(a) == pytest.approx(gamma_blk(b), abs=1e-12)


def test_payoff_structure():
    for n in (1, 3):
        c = gen_option_payoff(n, seed=6)
        assert c.n == n + 1
        assert len(c.ops) == 6 + 14 * n
        h_count = sum(1 for op in c.ops if op.kind == "H")
        assert h_count == 2 + 4 * n
        report = classify_circuit(c)
        # The only incompatible ops are exactly the H gates.
        incompatible = {
            i for i, ok in enumerate(report.pauli_z_compatible) if not ok
        }
        assert incompatible == {i for i, op in enumerate(c.ops) if op.kind == "H"}
        assert c.meta["family"] == "option_payoff"


def test_payoff_contains_rotation_cnot_motif():
    n = 3
    c = gen_option_payoff(n, seed=6)
    ancilla = n
    motifs = sum(
        1
        for a, b in zip(c.ops, c.ops[1:])
        if a.arity == 1
        and a.qubits == (ancilla,)
        and b.kind == "CNOT"
        and b.qubits[1] == ancilla
    )
    assert motifs >= n


def test_payoff_validation():
    with pytest.raises(InvalidArgument):
        gen_option_payoff(0, seed=1)
    with pytest.raises(InvalidArgument):
        gen_option_payoff(2)
    with pytest.raises(InvalidArgument):
        gen_option_payoff(2, angles=[0.1])
    explicit = gen_option_payoff(1, angles=[0.3, 0.4])
    assert len(explicit.ops) == 20


def test_loader_basis_vector():
    c = gen_unary_loader([1.0, 0.0])
    assert [op.kind for op in c.ops] == ["X", "RBS"]
    amps = _amplitudes(c)
    assert amps[0b10] == pytest.approx(1.0, abs=1e-12)


def test_loader_uniform_vectors():
    amps = _amplitudes(gen_unary_loader([1.0, 1.0]))
    assert amps[0b10].real == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert amps[0b01].real == pytest.approx(math.sqrt(0.5), abs=1e-12)

    d = 8
    c = gen_unary_loader(np.ones(d))
    amps = _amplitudes(c)
    for j in range(d):
        idx = 1 << (d - 1 - j)
        assert amps[idx].real == pytest.approx(1.0 / math.sqrt(d), abs=1e-10)
    # Nothing leaks outside the one-hot subspace.
    onehot = sum(abs(amps[1 << (d - 1 - j)]) ** 2 for j in range(d))
    assert onehot == pytest.approx(1.0, abs=1e-10)


def test_loader_signs_and_normalization():
    x = np.array([0.5, -0.5, 0.5, -0.5])
    amps = _amplitudes(gen_unary_loader(x))
    for j, want in enumerate(x):
        idx = 1 << (4 - 1 - j)
        assert amps[idx].real == pytest.approx(want, abs=1e-12)

    amps2 = _amplitudes(gen_unary_loader([3.0, 4.0]))
    assert amps2[0b10].real == pytest.approx(0.6, abs=1e-12)
    assert amps2[0b01].real == pytest.approx(0.8, abs=1e-12)

    amps3 = _amplitudes(gen_unary_loader([0.6, -0.8]))
    assert amps3[0b10].real == pytest.approx(0.6, abs=1e-12)
    assert amps3[0b01].real == pytest.approx(-0.8, abs=1e-12)


def test_loader_degenerate_inputs():
    with pytest.raises(DegenerateVector):
        gen_unary_loader([0.0, 0.0, 0.0])
    with pytest.raises(DegenerateVector):
        gen_unary_loader([1.0, 0.0, 0.0])  # middle sine underflows
    with pytest.raises(InvalidArgument):
        gen_unary_loader([1.0])
    with pytest.raises(InvalidArgument):
        gen_unary_loader(np.ones((2, 2)))
    assert gen_unary_loader([1e-3, 1e-3]).meta["family"] == "unary_loader"
