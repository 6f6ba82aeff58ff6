from __future__ import annotations

import numpy as np
import pytest
from conftest import random_circuit
from hypothesis import given, settings
from hypothesis import strategies as st

from blockpec.circuits import (
    Circuit,
    load_circuit,
    parse_circuit,
    save_circuit,
    serialize_circuit,
)
from blockpec.errors import CircuitParseError, InvalidArgument, UnsupportedGate
from blockpec.gates import GATE_KINDS, GateOp
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


def test_load_refuses_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes("qubits=1\n# caf\u00e9\nH 0\n".encode("latin-1"))
    with pytest.raises(CircuitParseError, match="not UTF-8"):
        load_circuit(path)


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
    for theta in ("nan", "inf", "-inf", "1e999"):
        with pytest.raises(CircuitParseError):
            parse_circuit(f"qubits=1\nRZ 0;theta={theta}\n")  # non-finite angle


def test_circuit_validation():
    with pytest.raises(InvalidArgument):
        Circuit(0, ())
    with pytest.raises(InvalidArgument):
        Circuit(1, (GateOp("X", (1,)),))
    with pytest.raises(InvalidArgument):
        Circuit(2, (GateOp("X", (0,)),), noise_tags=(None, None))
    with pytest.raises(UnsupportedGate):
        Circuit(2, (GateOp("X", (0, 1)),))


@pytest.mark.parametrize("n", [2.5, 2.0, "2", None, True])
def test_circuit_refuses_non_integer_qubit_counts(n):
    with pytest.raises(InvalidArgument, match="n must be an integer"):
        Circuit(n, ())


def test_circuit_takes_numpy_integer_qubit_counts_as_int():
    c = Circuit(np.int64(2), (GateOp("CNOT", (0, 1)),))
    assert type(c.n) is int and c == Circuit(2, (GateOp("CNOT", (0, 1)),))


@pytest.mark.parametrize("op", ["H 0", ("H", (0,)), None], ids=["text", "tuple", "none"])
def test_circuit_refuses_ops_that_are_not_gate_ops(op):
    with pytest.raises(InvalidArgument, match="op must be a GateOp"):
        Circuit(2, (GateOp("X", (0,)), op))


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


@st.composite
def any_circuits(draw):
    """Circuits over every gate kind with any finite angle, -0.0 included."""
    n = draw(st.integers(1, 6))
    kinds = [k for k, (arity, _) in GATE_KINDS.items() if arity <= n]
    angles = st.one_of(st.just(-0.0), st.floats(allow_nan=False, allow_infinity=False))
    ops = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        arity, takes_angle = GATE_KINDS[kind]
        qubits = tuple(draw(st.permutations(range(n)))[:arity])
        ops.append(GateOp(kind, qubits, draw(angles) if takes_angle else None))
    return Circuit(n, tuple(ops))


def _angle_bits(c: Circuit):
    return [None if op.angle is None else op.angle.hex() for op in c.ops]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(any_circuits())
def test_parse_inverts_serialize(c):
    back = parse_circuit(serialize_circuit(c))
    assert back == c
    assert _angle_bits(back) == _angle_bits(c)  # the sign of a zero angle survives


_JUNK = ("qubits=3", "QUBITS=0", "qubits=x", "# meta: k=v", "#", "=", ";", "WARP 0", "CNOT 1,1", "X -1", "X 9")
_THETAS = ("nan", "-inf", "inf", "1e999", "-0.0", "0x1p3", "x", "")


@st.composite
def near_circuit_texts(draw):
    """A serialized circuit with some angles swapped for odd tokens and some
    lines deleted or inserted."""
    lines = serialize_circuit(draw(any_circuits())).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(("theta", "insert", "delete")))
        if edit == "theta" and i < len(lines) and "theta=" in lines[i]:
            lines[i] = lines[i].split("=")[0] + "=" + draw(st.sampled_from(_THETAS))
        elif edit == "insert":
            lines.insert(i, draw(st.one_of(st.sampled_from(_JUNK), st.text(max_size=20))))
        elif i < len(lines):
            del lines[i]
    return "\n".join(lines)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.one_of(st.text(max_size=200), near_circuit_texts()))
def test_parser_raises_only_parse_errors(text):
    try:
        c = parse_circuit(text)
    except CircuitParseError:
        return
    back = parse_circuit(serialize_circuit(c))
    assert back == c and _angle_bits(back) == _angle_bits(c)


@pytest.mark.parametrize("tag", ["x", 0.1, {"kind": "uncorrelated", "p": 0.1}])
def test_circuit_refuses_noise_tags_that_are_not_specs(tag):
    ops = (GateOp("X", (0,)), GateOp("Z", (1,)))
    with pytest.raises(InvalidArgument, match="noise tag must be None or a NoiseSpec"):
        Circuit(2, ops, (None, tag))
    with pytest.raises(InvalidArgument, match="noise tag must be None or a NoiseSpec"):
        Circuit(2, ops).with_noise(tag)
