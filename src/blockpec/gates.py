"""Gate operations and their unitary matrices.

Matrices are returned on the gate's local qubits in big-endian order:
``qubits[0]`` is the most significant bit of the basis index. Parameterized
rotations follow the exp(-i*theta*G/2) convention, e.g. RZ(theta) =
diag(e^{-i theta/2}, e^{+i theta/2}).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, UnsupportedGate

# kind -> (arity, takes_angle)
GATE_KINDS: dict[str, tuple[int, bool]] = {
    "X": (1, False),
    "Z": (1, False),
    "S": (1, False),
    "T": (1, False),
    "H": (1, False),
    "RZ": (1, True),
    "RY": (1, True),
    "RZZ": (2, True),
    "CZ": (2, False),
    "CNOT": (2, False),
    "SWAP": (2, False),
    "XCZ": (2, True),
    "RBS": (2, True),
    "CRY": (2, True),
    "TOFFOLI": (3, False),
}

# Composite kinds are convenience wrappers; generators expand them to the
# primitive gate set before the circuits are analyzed or simulated.
COMPOSITE_KINDS = ("RY", "CRY")


def is_integer(value) -> bool:
    """Whether ``value`` is an int or a numpy integer; a bool or an integral
    float is not."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral)


def is_real(value) -> bool:
    """Whether ``value`` is a real number (an int, a float, a numpy integer or
    float); a bool or a string is not."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real)


def integer(value, what: str) -> int:
    """``value`` as an int. Anything that is not an integer raises
    InvalidArgument instead of being truncated."""
    if not is_integer(value):
        raise InvalidArgument(f"{what} must be an integer, got {value!r}")
    return int(value)


def natural(value, what: str) -> int:
    """``integer(value, what)``, refusing a negative value with InvalidArgument."""
    value = integer(value, what)
    if value < 0:
        raise InvalidArgument(f"{what} must be >= 0, got {value}")
    return value


@dataclass(frozen=True)
class GateOp:
    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        kind = self.kind.upper()
        object.__setattr__(self, "kind", kind)
        # Plain ints skip the abstract-class test of ``integer``.
        qubits = tuple(q if type(q) is int else integer(q, "qubit index") for q in self.qubits)
        object.__setattr__(self, "qubits", qubits)
        if kind not in GATE_KINDS:
            raise UnsupportedGate(f"unknown gate kind {kind!r}")
        arity, takes_angle = GATE_KINDS[kind]
        if len(self.qubits) != arity:
            raise UnsupportedGate(
                f"{kind} acts on {arity} qubit(s), got {len(self.qubits)}"
            )
        if len(set(self.qubits)) != arity:
            raise UnsupportedGate(f"{kind} qubits must be distinct: {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise UnsupportedGate(f"negative qubit index in {self.qubits}")
        if takes_angle:
            if self.angle is None:
                raise UnsupportedGate(f"{kind} requires an angle")
            angle = self.angle
            if type(angle) is not float:
                if not is_real(angle):
                    raise InvalidArgument(f"{kind} angle must be a real number, got {angle!r}")
                angle = float(angle)
            if not math.isfinite(angle):
                raise InvalidArgument(f"{kind} angle must be finite, got {angle}")
            object.__setattr__(self, "angle", angle)
        elif self.angle is not None:
            raise UnsupportedGate(f"{kind} takes no angle")

    @property
    def arity(self) -> int:
        return len(self.qubits)

    def __str__(self) -> str:
        qs = ",".join(str(q) for q in self.qubits)
        if self.angle is not None:
            return f"{self.kind} {qs};theta={self.angle!r}"
        return f"{self.kind} {qs}"


def _rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def unitary_of(g: GateOp) -> np.ndarray:
    """Unitary matrix of ``g`` on its local qubits (2^arity x 2^arity)."""
    kind, theta = g.kind, g.angle
    if kind == "X":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if kind == "Z":
        return np.diag([1.0 + 0j, -1.0])
    if kind == "S":
        return np.diag([1.0 + 0j, 1j])
    if kind == "T":
        return np.diag([1.0 + 0j, np.exp(0.25j * math.pi)])
    if kind == "H":
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    if kind == "RZ":
        return _rz(theta)
    if kind == "RY":
        return _ry(theta)
    if kind == "RZZ":
        a, b = np.exp(-0.5j * theta), np.exp(0.5j * theta)
        return np.diag([a, b, b, a])
    if kind == "CZ":
        return np.diag([1.0 + 0j, 1.0, 1.0, -1.0])
    if kind == "CNOT":
        m = np.eye(4, dtype=complex)
        m[[2, 3]] = m[[3, 2]]
        return m
    if kind == "SWAP":
        m = np.eye(4, dtype=complex)
        m[[1, 2]] = m[[2, 1]]
        return m
    if kind == "XCZ":
        # X-basis control on qubits[0], Z rotation by -theta on qubits[1]:
        # |+><+| (x) I + |-><-| (x) RZ(-theta), written out as 2x2 blocks
        # [[P + R, P - R], [P - R, P + R]] with P = I/2 and R = RZ(-theta)/2.
        p, r = 0.5 * np.eye(2), 0.5 * _rz(-theta)
        m = np.empty((4, 4), dtype=complex)
        m[:2, :2] = m[2:, 2:] = p + r
        m[:2, 2:] = m[2:, :2] = p - r
        return m
    if kind == "RBS":
        c, s = math.cos(theta), math.sin(theta)
        return np.array(
            [
                [1, 0, 0, 0],
                [0, c, s, 0],
                [0, -s, c, 0],
                [0, 0, 0, 1],
            ],
            dtype=complex,
        )
    if kind == "CRY":
        m = np.eye(4, dtype=complex)
        m[2:, 2:] = _ry(theta)
        return m
    if kind == "TOFFOLI":
        m = np.eye(8, dtype=complex)
        m[[6, 7]] = m[[7, 6]]
        return m
    raise UnsupportedGate(f"unknown gate kind {kind!r}")


def expand_composite(g: GateOp) -> list[GateOp]:
    """Expand RY/CRY into the primitive gate set; other kinds pass through.

    RY(theta) = S H RZ(theta) H S† with S† realized as S.Z, so the
    circuit-order expansion is [Z, S, H, RZ(theta), H, S]. CRY(theta) on
    (j, k) is [CNOT, RY(-theta/2)_k, CNOT, RY(theta/2)_k] in circuit order,
    each RY expanded recursively. Both identities are exact (no stray global
    phase).
    """
    if g.kind == "RY":
        (q,) = g.qubits
        return [
            GateOp("Z", (q,)),
            GateOp("S", (q,)),
            GateOp("H", (q,)),
            GateOp("RZ", (q,), g.angle),
            GateOp("H", (q,)),
            GateOp("S", (q,)),
        ]
    if g.kind == "CRY":
        j, k = g.qubits
        half = g.angle / 2
        out = [GateOp("CNOT", (j, k))]
        out += expand_composite(GateOp("RY", (k,), -half))
        out.append(GateOp("CNOT", (j, k)))
        out += expand_composite(GateOp("RY", (k,), half))
        return out
    return [g]


def z_sign_vector(mask: int, n: int) -> np.ndarray:
    """(+/-1)^{parity of mask bits} over the 2^n basis indices, big-endian:
    mask bit q refers to qubit q, which sits at index bit n-1-q (for a gate's
    local mask, qubit q is ``qubits[q]``)."""
    if not 0 <= mask < (1 << n):
        raise InvalidArgument(f"mask {mask} out of range for {n} qubit(s)")
    idx = np.arange(1 << n)
    signs = np.ones(1 << n)
    for q in range(n):
        if mask >> q & 1:
            signs *= np.where((idx >> (n - 1 - q)) & 1, -1.0, 1.0)
    return signs
