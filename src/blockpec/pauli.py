"""Phase-flip (Z) strings over n qubits, represented as bitmasks.

Bit i of ``mask`` set means a Z factor on qubit i; composition is bitwise
XOR (channel level, where global phases are irrelevant), so the strings form
an abelian group in which every element is its own inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidArgument
from .gates import integer, natural


@dataclass(frozen=True)
class PauliZString:
    mask: int
    n: int

    def __post_init__(self):
        mask, n = integer(self.mask, "mask"), integer(self.n, "qubit count")
        if n < 1:
            raise InvalidArgument(f"need at least one qubit, got n={n}")
        if not 0 <= mask < (1 << n):
            raise InvalidArgument(f"mask {mask:#x} out of range for n={n}")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "n", n)

    @classmethod
    def identity(cls, n: int) -> "PauliZString":
        return cls(0, n)

    @classmethod
    def single(cls, n: int, qubit: int) -> "PauliZString":
        return cls(1 << natural(qubit, "qubit"), n)

    @classmethod
    def from_qubits(cls, n: int, qubits) -> "PauliZString":
        mask = 0
        for q in qubits:
            mask |= 1 << natural(q, "qubit")
        return cls(mask, n)

    def compose(self, other: "PauliZString") -> "PauliZString":
        if other.n != self.n:
            raise InvalidArgument("cannot compose strings on different qubit counts")
        return PauliZString(self.mask ^ other.mask, self.n)

    def __xor__(self, other: "PauliZString") -> "PauliZString":
        return self.compose(other)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(q for q in range(self.n) if self.mask >> q & 1)

    @property
    def weight(self) -> int:
        return bin(self.mask).count("1")

    def is_identity(self) -> bool:
        return self.mask == 0

    def label(self) -> str:
        """Qubit-ordered label, e.g. mask 0b101 on 3 qubits -> 'ZIZ'."""
        return "".join("Z" if self.mask >> q & 1 else "I" for q in range(self.n))

    def __str__(self) -> str:
        return self.label()
