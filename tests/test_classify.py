from __future__ import annotations

import numpy as np
import pytest
from oracles import all_strings_z_compatible

from blockpec.circuits import Circuit
from blockpec.classify import classify_circuit, maximal_segments, pauli_z_compatible
from blockpec.gates import GATE_KINDS, GateOp


def _op(kind, qubits, angle=None):
    return GateOp(kind, qubits, angle)


def _bias(g: GateOp) -> bool:
    return classify_circuit(Circuit(max(g.qubits) + 1, (g,))).bias_preserving[0]


def _s1(g: GateOp) -> bool:
    return classify_circuit(Circuit(max(g.qubits) + 1, (g,))).s1_bias_preserving[0]


def test_core_gate_set_flags():
    # Every member of the core set is both bias-preserving and compatible.
    core = [
        _op("X", (0,)),
        _op("CZ", (0, 1)),
        _op("RZ", (0,), 0.4),
        _op("RZZ", (0, 1), 0.4),
        _op("CNOT", (0, 1)),
        _op("SWAP", (0, 1)),
    ]
    for g in core:
        assert _bias(g), g
        assert pauli_z_compatible(g), g
    assert [_s1(g) for g in core if g.arity == 2] == [
        True,  # CZ
        True,  # RZZ
        False,  # CNOT leaves the single-excitation span
        True,  # SWAP
    ]


def test_hadamard_fails_everything():
    g = _op("H", (0,))
    assert not _bias(g)
    assert not pauli_z_compatible(g)


def test_toffoli_bias_preserving_but_not_compatible():
    g = _op("TOFFOLI", (0, 1, 2))
    assert _bias(g)
    assert not pauli_z_compatible(g)


def test_angled_two_qubit_kinds():
    rng = np.random.default_rng(2)
    for _ in range(5):
        theta = float(rng.uniform(0.1, 2 * np.pi - 0.1))
        assert _s1(_op("RBS", (0, 1), theta))
        assert not _s1(_op("XCZ", (0, 1), theta))
        assert not _bias(_op("RBS", (0, 1), theta))
        assert not _bias(_op("XCZ", (0, 1), theta))
    assert _s1(_op("XCZ", (0, 1), 0.0))
    assert _s1(_op("RBS", (0, 1), 0.0))


def test_s1_requires_two_qubits():
    # The flag is False off two qubits, even for a bias-preserving gate.
    for g in (_op("X", (0,)), _op("Z", (0,)), _op("TOFFOLI", (0, 1, 2))):
        assert _bias(g) and not _s1(g), g


def test_classify_circuit_report():
    c = Circuit(
        2,
        (
            _op("CNOT", (0, 1)),
            _op("RZZ", (0, 1), 0.3),
            _op("H", (0,)),
            _op("CZ", (0, 1)),
        ),
    )
    report = classify_circuit(c)
    assert report.pauli_z_compatible == (True, True, False, True)
    assert report.bias_preserving == (True, True, False, True)
    assert report.s1_bias_preserving == (False, True, False, True)
    assert report.segments == ((0, 2), (3, 4))
    d = report.to_dict()
    assert d["segments"] == [[0, 2], [3, 4]]
    assert d["pauli_z_compatible"] == [True, True, False, True]


def test_classify_marks_non_two_qubit_ops_outside_s1():
    c = Circuit(3, (_op("X", (0,)), _op("TOFFOLI", (0, 1, 2))))
    report = classify_circuit(c)
    assert report.s1_bias_preserving == (False, False)
    assert report.pauli_z_compatible == (True, False)
    assert report.segments == ((0, 1),)


def test_classify_empty_circuit():
    report = classify_circuit(Circuit(1, ()))
    assert report.pauli_z_compatible == ()
    assert report.segments == ()


def test_maximal_segments():
    assert maximal_segments([]) == ()
    assert maximal_segments([False, False]) == ()
    assert maximal_segments([True, True, True]) == ((0, 3),)
    assert maximal_segments([True, False, True]) == ((0, 1), (2, 3))
    assert maximal_segments([False, True, True, False, True]) == ((1, 3), (4, 5))


@pytest.mark.parametrize("kind", sorted(GATE_KINDS))
def test_pauli_z_compatible_equals_the_all_strings_oracle(kind):
    arity, takes_angle = GATE_KINDS[kind]
    angles = [0.0, np.pi / 2, np.pi, 1.5 * np.pi, 2.0 * np.pi, 0.37, 4.1] if takes_angle else [None]
    for angle in angles:
        for qubits in (tuple(range(arity)), tuple(range(arity, 0, -1))):
            g = GateOp(kind, qubits, angle)
            assert pauli_z_compatible(g) == all_strings_z_compatible(g), g
