from __future__ import annotations

import math

import numpy as np
import pytest
from conftest import total_unitary
from oracles import xcz_kron_unitary

from blockpec.errors import InvalidArgument, UnsupportedGate
from blockpec.gates import (
    COMPOSITE_KINDS,
    GATE_KINDS,
    GateOp,
    expand_composite,
    unitary_of,
    z_sign_vector,
)


def _sample_op(kind: str, rng: np.random.Generator) -> GateOp:
    arity, takes_angle = GATE_KINDS[kind]
    angle = float(rng.uniform(0.0, 2.0 * np.pi)) if takes_angle else None
    return GateOp(kind, tuple(range(arity)), angle)


def test_every_kind_is_unitary():
    rng = np.random.default_rng(7)
    for kind in GATE_KINDS:
        for _ in range(5):
            g = _sample_op(kind, rng)
            u = unitary_of(g)
            dim = 1 << g.arity
            assert u.shape == (dim, dim)
            assert np.abs(u @ u.conj().T - np.eye(dim)).max() < 1e-12


def test_fixed_matrices():
    assert np.array_equal(unitary_of(GateOp("X", (0,))), [[0, 1], [1, 0]])
    assert np.array_equal(unitary_of(GateOp("Z", (0,))), np.diag([1.0, -1.0]))
    assert np.array_equal(unitary_of(GateOp("S", (0,))), np.diag([1.0, 1.0j]))
    assert unitary_of(GateOp("T", (0,)))[1, 1] == pytest.approx(
        np.exp(0.25j * math.pi)
    )
    h = unitary_of(GateOp("H", (0,)))
    assert np.allclose(h @ h, np.eye(2), atol=1e-15)
    assert np.array_equal(
        unitary_of(GateOp("CZ", (0, 1))), np.diag([1.0, 1.0, 1.0, -1.0])
    )
    cnot = unitary_of(GateOp("CNOT", (0, 1)))
    assert np.array_equal(cnot, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    swap = unitary_of(GateOp("SWAP", (0, 1)))
    assert np.array_equal(swap, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    tof = unitary_of(GateOp("TOFFOLI", (0, 1, 2)))
    expected = np.eye(8)
    expected[[6, 7]] = expected[[7, 6]]
    assert np.array_equal(tof, expected)


def test_rotation_conventions():
    theta = 0.7
    rz = unitary_of(GateOp("RZ", (0,), theta))
    assert np.allclose(
        rz, np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)]), atol=1e-15
    )
    ry = unitary_of(GateOp("RY", (0,), theta))
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    assert np.allclose(ry, [[c, -s], [s, c]], atol=1e-15)
    rzz = unitary_of(GateOp("RZZ", (0, 1), theta))
    a, b = np.exp(-0.5j * theta), np.exp(0.5j * theta)
    assert np.allclose(rzz, np.diag([a, b, b, a]), atol=1e-15)


def test_rbs_convention():
    theta = 0.31
    u = unitary_of(GateOp("RBS", (0, 1), theta))
    c, s = math.cos(theta), math.sin(theta)
    assert np.allclose(
        u,
        [[1, 0, 0, 0], [0, c, s, 0], [0, -s, c, 0], [0, 0, 0, 1]],
        atol=1e-15,
    )
    # Columns (big-endian locals): |01> -> c|01> - s|10>, |10> -> s|01> + c|10>.
    assert u[1, 1] == pytest.approx(c)
    assert u[2, 1] == pytest.approx(-s)
    assert u[1, 2] == pytest.approx(s)
    assert u[2, 2] == pytest.approx(c)
    assert np.allclose(unitary_of(GateOp("RBS", (0, 1), 0.0)), np.eye(4), atol=1e-15)


def test_xcz_convention():
    assert np.allclose(unitary_of(GateOp("XCZ", (0, 1), 0.0)), np.eye(4), atol=1e-15)
    theta = 1.1
    u = unitary_of(GateOp("XCZ", (0, 1), theta))
    assert u[0, 0] == pytest.approx((1.0 + np.exp(0.5j * theta)) / 2.0)
    # Diagonal in the (X on first qubit) x (Z on second qubit) eigenbasis.
    h = unitary_of(GateOp("H", (0,)))
    basis = np.kron(h, np.eye(2))
    d = basis.conj().T @ u @ basis
    assert np.abs(d - np.diag(np.diagonal(d))).max() < 1e-12


def test_xcz_block_form_is_bytewise_kron_form():
    # The estimator's reports are pinned bitwise, so the closed form must
    # reproduce every byte of the Kronecker construction, signed zeros too.
    rng = np.random.default_rng(11)
    special = [0.0, -0.0, math.pi, -math.pi, 2.0 * math.pi, math.pi / 2, 5e-324, 1e300]
    for theta in special + list(rng.uniform(-20.0, 20.0, 2000)):
        u = unitary_of(GateOp("XCZ", (0, 1), theta))
        assert u.tobytes() == xcz_kron_unitary(theta).tobytes(), theta


def test_cry_matrix():
    theta = 0.9
    u = unitary_of(GateOp("CRY", (0, 1), theta))
    expected = np.eye(4, dtype=complex)
    expected[2:, 2:] = unitary_of(GateOp("RY", (0,), theta))
    assert np.allclose(u, expected, atol=1e-15)


def test_expand_composite_identities():
    rng = np.random.default_rng(3)
    assert COMPOSITE_KINDS == ("RY", "CRY")
    for _ in range(10):
        theta = float(rng.uniform(-2.0 * np.pi, 2.0 * np.pi))
        ry = GateOp("RY", (0,), theta)
        ops = expand_composite(ry)
        assert [g.kind for g in ops] == ["Z", "S", "H", "RZ", "H", "S"]
        assert np.abs(total_unitary(ops, 1) - unitary_of(ry)).max() < 1e-12

        cry = GateOp("CRY", (0, 1), theta)
        ops = expand_composite(cry)
        assert len(ops) == 14
        assert all(g.kind not in COMPOSITE_KINDS for g in ops)
        assert np.abs(total_unitary(ops, 2) - unitary_of(cry)).max() < 1e-12

    plain = GateOp("CNOT", (0, 1))
    assert expand_composite(plain) == [plain]


def test_z_sign_vector():
    assert np.array_equal(z_sign_vector(0, 2), [1, 1, 1, 1])
    assert np.array_equal(z_sign_vector(0b01, 2), [1, 1, -1, -1])
    assert np.array_equal(z_sign_vector(0b10, 2), [1, -1, 1, -1])
    assert np.array_equal(z_sign_vector(0b11, 2), [1, -1, -1, 1])
    with pytest.raises(InvalidArgument):
        z_sign_vector(4, 2)
    with pytest.raises(InvalidArgument):
        z_sign_vector(-1, 1)


def test_gateop_validation():
    with pytest.raises(UnsupportedGate):
        GateOp("Q", (0,))
    with pytest.raises(UnsupportedGate):
        GateOp("CNOT", (0,))
    with pytest.raises(UnsupportedGate):
        GateOp("CNOT", (1, 1))
    with pytest.raises(UnsupportedGate):
        GateOp("X", (-1,))
    with pytest.raises(UnsupportedGate):
        GateOp("RZ", (0,))
    with pytest.raises(UnsupportedGate):
        GateOp("X", (0,), 0.3)


def test_gateop_rejects_non_finite_or_non_real_angles():
    for angle in (float("nan"), float("inf"), -float("inf"), "x", [0.3]):
        with pytest.raises(InvalidArgument):
            GateOp("RZ", (0,), angle)
    assert GateOp("RZ", (0,), -0.0).angle.hex() == "-0x0.0p+0"


@pytest.mark.parametrize("angle", ["0.5", b"0.5", True, False, np.bool_(True), 0.5j])
def test_gateop_refuses_angles_that_are_not_real_numbers(angle):
    with pytest.raises(InvalidArgument, match="RZ angle must be a real number"):
        GateOp("RZ", (0,), angle)


def test_gateop_takes_int_and_numpy_angles_as_float():
    for angle in (1, np.int64(1), np.float32(1.0), np.float64(1.0)):
        g = GateOp("RZ", (0,), angle)
        assert type(g.angle) is float and g == GateOp("RZ", (0,), 1.0)


def test_gateop_normalization():
    g = GateOp("cnot", (np.int64(0), np.int64(1)))
    assert g.kind == "CNOT"
    assert g.qubits == (0, 1)
    assert g.arity == 2
    assert str(g) == "CNOT 0,1"
    r = GateOp("rz", (2,), np.float64(0.25))
    assert isinstance(r.angle, float)
    assert str(r) == "RZ 2;theta=0.25"


@pytest.mark.parametrize(
    "qubits", [(True, 2), (0.0, 1), (0, 2.9), ("0", "1"), (None, 1), (np.bool_(False), 1)]
)
def test_gate_refuses_non_integer_qubit_indices(qubits):
    with pytest.raises(InvalidArgument, match="qubit index must be an integer"):
        GateOp("CNOT", qubits)


def test_gate_takes_numpy_integer_qubits_as_int():
    g = GateOp("CNOT", (np.int64(0), np.uint8(2)))
    assert g == GateOp("CNOT", (0, 2)) and all(type(q) is int for q in g.qubits)
