from __future__ import annotations

import numpy as np
import pytest
from conftest import random_circuit

from blockpec.circuits import (
    Circuit,
    load_circuit,
    parse_circuit,
    save_circuit,
    serialize_circuit,
)
from blockpec.errors import CircuitParseError, InvalidArgument, UnsupportedGate
from blockpec.gates import GateOp
from blockpec.noise import NoiseSpec


def test_parse_basic_text():
    text = """
    # a leading comment
    qubits=3
    # meta: family=demo
    # meta: seed=42
    h 0            # trailing comment
    CNOT 0,1
    RZ 1;theta=0.7
    rzz 1, 2 ; theta=-0.25
    """
    c = parse_circuit(text)
    assert c.n == 3
    assert [op.kind for op in c.ops] == ["H", "CNOT", "RZ", "RZZ"]
    assert c.ops[1].qubits == (0, 1)
    assert c.ops[2].angle == 0.7
    assert c.ops[3].qubits == (1, 2)
    assert c.ops[3].angle == -0.25
    assert c.meta == {"family": "demo", "seed": "42"}
    assert c.noise_tags == (None,) * 4


def test_serialize_parse_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        depth = int(rng.integers(0, 9))
        c = random_circuit(rng, n, depth)
        c = Circuit(c.n, c.ops, meta={"family": "roundtrip", "tag": "a b"})
        back = parse_circuit(serialize_circuit(c))
        assert back.n == c.n
        assert back.ops == c.ops  # angles survive with full precision
        assert back.meta == c.meta


def test_save_load_round_trip(tmp_path):
    c = Circuit(2, (GateOp("H", (0,)), GateOp("CNOT", (0, 1))), meta={"k": "v"})
    path = tmp_path / "c.txt"
    save_circuit(c, path)
    back = load_circuit(path)
    assert back.ops == c.ops
    assert back.n == 2
    assert back.meta == {"k": "v"}


def test_parse_errors():
    with pytest.raises(CircuitParseError):
        parse_circuit("H 0\nqubits=1\n")  # op before header
    with pytest.raises(CircuitParseError):
        parse_circuit("qubits=2\nqubits=2\n")  # duplicate header
    with pytest.raises(CircuitParseError):
        parse_circuit("qubits=two\n")  # bad qubit count
    with pytest.raises(CircuitParseError):
        parse_circuit("")  # missing header
    with pytest.raises(CircuitParseError):
        parse_circuit("qubits=2\nFOO 0\n")  # unknown kind
    with pytest.raises(CircuitParseError):
        parse_circuit("qubits=2\nCNOT 0,x\n")  # bad qubit list
    with pytest.raises(CircuitParseError):
        parse_circuit("qubits=2\nRZ 0;theta=abc\n")  # bad angle
    with pytest.raises(CircuitParseError):
        parse_circuit("qubits=2\nRZ 0;angle=1.0\n")  # wrong parameter name
    with pytest.raises(CircuitParseError):
        parse_circuit("qubits=2\nCNOT\n")  # missing qubit list
    with pytest.raises(CircuitParseError):
        parse_circuit("qubits=2\nRZ 0\n")  # missing required angle
    with pytest.raises(CircuitParseError):
        parse_circuit("qubits=1\nCNOT 0,1\n")  # op out of qubit range


def test_circuit_validation():
    with pytest.raises(InvalidArgument):
        Circuit(0, ())
    with pytest.raises(InvalidArgument):
        Circuit(1, (GateOp("X", (1,)),))
    with pytest.raises(InvalidArgument):
        Circuit(2, (GateOp("X", (0,)),), noise_tags=(None, None))
    with pytest.raises(UnsupportedGate):
        Circuit(2, (GateOp("X", (0, 1)),))


def test_with_noise_and_views():
    c = Circuit(2, (GateOp("H", (0,)), GateOp("CNOT", (0, 1)), GateOp("Z", (1,))))
    spec = NoiseSpec("uncorrelated", 0.1)
    noisy = c.with_noise(spec)
    assert noisy.noise_tags == (spec, spec, spec)
    assert noisy.ops == c.ops
    assert len(noisy) == 3

    sub = noisy.subcircuit(1, 3)
    assert sub.ops == noisy.ops[1:]
    assert sub.noise_tags == (spec, spec)
    assert sub.n == 2

    cleared = noisy.with_noise(None)
    assert cleared.noise_tags == (None, None, None)
