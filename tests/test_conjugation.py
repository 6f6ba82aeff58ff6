from __future__ import annotations

import itertools

import numpy as np
import pytest
from conftest import EXACT_KINDS
from oracles import all_strings_z_compatible, match_local_string, match_z_string

from blockpec import conjugation
from blockpec.classify import pauli_z_compatible
from blockpec.conjugation import (
    PASS_THROUGH_KINDS,
    conjugate_z_string,
    generator_images,
    local_images,
)
from blockpec.errors import InvalidArgument, NotZClosed
from blockpec.gates import GATE_KINDS, GateOp, unitary_of, z_sign_vector
from blockpec.pauli import PauliZString


def _sample_op(kind: str, rng: np.random.Generator) -> GateOp:
    arity, takes_angle = GATE_KINDS[kind]
    angle = float(rng.uniform(0.0, 2.0 * np.pi)) if takes_angle else None
    return GateOp(kind, tuple(range(arity)), angle)


def test_cnot_rules():
    g = GateOp("CNOT", (0, 1))
    n = 2
    # Z on the control commutes unchanged.
    assert conjugate_z_string(g, PauliZString.single(n, 0)).mask == 0b01
    # Z on the target picks up a Z on the control.
    assert conjugate_z_string(g, PauliZString.single(n, 1)).mask == 0b11
    # The double string therefore maps back to target-only.
    assert conjugate_z_string(g, PauliZString(0b11, n)).mask == 0b10


def test_identity_string_passes_any_gate():
    for kind in GATE_KINDS:
        arity, takes_angle = GATE_KINDS[kind]
        g = GateOp(kind, tuple(range(arity)), 0.3 if takes_angle else None)
        s = PauliZString(0, 3)
        assert conjugate_z_string(g, s) == s


def test_numeric_match_is_channel_exact():
    # For every exactly-handled kind and every local string, U Z_s U^dag must
    # equal (global phase) * Z_t for the matched t.
    rng = np.random.default_rng(19)
    for kind in EXACT_KINDS:
        for _ in range(4):
            g = _sample_op(kind, rng)
            u = unitary_of(g)
            for local in range(1, 1 << g.arity):
                t = conjugate_z_string(g, PauliZString(local, g.arity)).mask
                m = (u * z_sign_vector(local, g.arity)[np.newaxis, :]) @ u.conj().T
                phase = m[0, 0]
                assert abs(abs(phase) - 1.0) < 1e-10
                expected = phase * np.diag(z_sign_vector(t, g.arity))
                assert np.abs(m - expected).max() < 1e-10


def test_involution_through_self_inverse_gates():
    rng = np.random.default_rng(23)
    n = 3
    for kind in ("X", "Z", "CZ", "CNOT", "SWAP"):
        arity, _ = GATE_KINDS[kind]
        g = GateOp(kind, tuple(range(arity)))
        for _ in range(20):
            s = PauliZString(int(rng.integers(1 << n)), n)
            assert conjugate_z_string(g, conjugate_z_string(g, s)) == s


def test_xcz_numeric_closure():
    g = GateOp("XCZ", (0, 1), 0.8)
    # Z on the rotation qubit (local bit 1) commutes with both branches.
    assert match_local_string(g, 0b10) == 0b10
    # Z on the X-control qubit swaps the branches: not a Z-string for theta != 0.
    with pytest.raises(NotZClosed):
        match_local_string(g, 0b01)
    with pytest.raises(NotZClosed):
        match_local_string(g, 0b11)
    # At theta = 0 the gate is the identity, so every string is fixed.
    trivial = GateOp("XCZ", (0, 1), 0.0)
    for local in range(4):
        assert match_local_string(trivial, local) == local


def test_rbs_numeric_closure():
    g = GateOp("RBS", (0, 1), 0.6)
    # The double string is block-constant on the gate's invariant sectors.
    assert match_local_string(g, 0b11) == 0b11
    with pytest.raises(NotZClosed):
        match_local_string(g, 0b01)
    with pytest.raises(NotZClosed):
        match_local_string(g, 0b10)


def test_pass_through_rule():
    assert PASS_THROUGH_KINDS == frozenset({"XCZ", "RBS"})
    n = 3
    for kind in ("XCZ", "RBS"):
        g = GateOp(kind, (0, 2), 0.9)
        for mask in range(1 << n):
            s = PauliZString(mask, n)
            assert conjugate_z_string(g, s) == s


def test_toffoli_rules():
    g = GateOp("TOFFOLI", (0, 1, 2))
    n = 3
    # Z on either control commutes; Z on the target conjugates to a
    # non-linear phase pattern, which is not a Z-string.
    assert conjugate_z_string(g, PauliZString.single(n, 0)).mask == 0b001
    assert conjugate_z_string(g, PauliZString.single(n, 1)).mask == 0b010
    assert conjugate_z_string(g, PauliZString(0b011, n)).mask == 0b011
    with pytest.raises(NotZClosed):
        conjugate_z_string(g, PauliZString.single(n, 2))
    with pytest.raises(NotZClosed):
        match_local_string(g, 0b100)


def test_not_z_closed_carries_context():
    g = GateOp("H", (1,))
    s = PauliZString.single(2, 1)
    with pytest.raises(NotZClosed) as exc:
        conjugate_z_string(g, s)
    assert exc.value.gate == g
    assert exc.value.zstring == s


def test_spectator_qubits_untouched():
    g = GateOp("CNOT", (1, 2))
    s = PauliZString(0b1101, 4)  # Z on 0, 2, 3; gate acts on (1, 2)
    out = conjugate_z_string(g, s)
    # Target Z (qubit 2) picks up control qubit 1; spectators 0 and 3 stay.
    assert out.mask == 0b1111


def test_generator_images_are_xor_linear():
    rng = np.random.default_rng(31)
    n = 4
    for kind in ("CZ", "CNOT", "SWAP", "RZZ"):
        for _ in range(10):
            qubits = tuple(int(q) for q in rng.choice(n, size=2, replace=False))
            angle = float(rng.uniform(0, 2 * np.pi)) if kind == "RZZ" else None
            g = GateOp(kind, qubits, angle)
            images = generator_images(g, n)
            assert set(images) == set(qubits)
            combined = match_z_string(g, PauliZString.from_qubits(n, qubits))
            assert combined.mask == images[qubits[0]] ^ images[qubits[1]]


@pytest.mark.parametrize("kind", sorted(GATE_KINDS))
def test_local_images_equal_the_reference_route(kind):
    """local_images agrees with the whole-string matcher on every generator,
    and is None exactly where the matcher raises NotZClosed; generator_images
    reads the same images."""
    arity, takes_angle = GATE_KINDS[kind]
    rng = np.random.default_rng(31)
    special = [0.0, np.pi / 2, np.pi, 1.5 * np.pi, 2.0 * np.pi]
    angles = special + list(rng.uniform(0.0, 2.0 * np.pi, 6)) if takes_angle else [None]
    n = arity + 2
    for angle in angles:
        qubits = tuple(int(q) for q in rng.permutation(n)[:arity])
        g = GateOp(kind, qubits, angle)
        images = local_images(g)
        assert len(images) == arity
        for a, q in enumerate(qubits):
            try:
                want = match_z_string(g, PauliZString.single(n, q)).mask
            except NotZClosed:
                assert images[a] is None, (g, q)
                continue
            got = sum(1 << qb for b, qb in enumerate(qubits) if images[a] >> b & 1)
            assert got == want, (g, q)
        if None not in images:
            imgs = generator_images(g, n)
            assert [imgs[q] for q in qubits] == [
                sum(1 << qb for b, qb in enumerate(qubits) if m >> b & 1) for m in images
            ]
        else:
            with pytest.raises(NotZClosed):
                generator_images(g, n)


def test_local_images_build_one_unitary_per_gate(monkeypatch):
    calls = []
    monkeypatch.setattr(conjugation, "unitary_of", lambda g: calls.append(g) or unitary_of(g))
    g = GateOp("TOFFOLI", (2, 0, 1))
    assert local_images(g) == (0b001, 0b010, None)
    assert calls == [g]
    calls.clear()
    assert local_images(GateOp("RBS", (0, 1), 0.4)) == (0b01, 0b10) and calls == []


@pytest.mark.parametrize("kind", ["Z", "S", "T", "CZ", "RZ", "RZZ"])
def test_diagonal_gates_skip_the_match_and_agree_with_it(kind, monkeypatch):
    """A diagonal unitary maps every generator to itself: local_images says
    so from its one unitary_of call, without the numeric match, and the
    whole-string matcher agrees."""
    arity, takes_angle = GATE_KINDS[kind]
    angles = (0.0, 0.37, np.pi / 2, np.pi, 2.0 * np.pi, -1.1) if takes_angle else (None,)
    for angle in angles:
        g = GateOp(kind, tuple(range(arity))[::-1], angle)
        calls = []
        monkeypatch.setattr(conjugation, "unitary_of", lambda g: calls.append(g) or unitary_of(g))
        monkeypatch.setattr(conjugation, "_match", None)
        images = local_images(g)
        assert calls == [g]
        monkeypatch.undo()
        assert images == tuple(1 << a for a in range(arity))
        assert images == tuple(match_local_string(g, 1 << a) for a in range(arity))


def test_generator_images_refuse_a_qubit_outside_n():
    with pytest.raises(InvalidArgument):
        generator_images(GateOp("CNOT", (0, 3)), 3)


_DIFF_ANGLES = [0.0, np.pi / 2, np.pi, 1.5 * np.pi, 2.0 * np.pi, -np.pi] + list(
    np.random.default_rng(47).uniform(0.0, 2.0 * np.pi, 20)
)
_DIFF_CASES = [
    (kind, angle)
    for kind, (_, takes_angle) in sorted(GATE_KINDS.items())
    for angle in (_DIFF_ANGLES if takes_angle else [None])
]


@pytest.mark.parametrize("kind, angle", _DIFF_CASES)
def test_library_routes_equal_the_whole_string_matcher(kind, angle):
    """On 4 qubits, at every ordered placement: conjugate_z_string on every
    mask, generator_images and pauli_z_compatible equal the whole-string
    matcher, and raise NotZClosed exactly where it refuses."""
    n = 4
    for qubits in itertools.permutations(range(n), GATE_KINDS[kind][0]):
        g = GateOp(kind, qubits, angle)
        for mask in range(1 << n):
            s = PauliZString(mask, n)
            try:
                want = match_z_string(g, s)
            except NotZClosed:
                with pytest.raises(NotZClosed):
                    conjugate_z_string(g, s)
                continue
            assert conjugate_z_string(g, s) == want, (g, mask)
        try:
            want_images = {q: match_z_string(g, PauliZString.single(n, q)).mask for q in qubits}
        except NotZClosed:
            with pytest.raises(NotZClosed):
                generator_images(g, n)
        else:
            assert generator_images(g, n) == want_images, g
        assert pauli_z_compatible(g) == all_strings_z_compatible(g), g
