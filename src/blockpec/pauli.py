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
    def single(cls, n: int, qubit: int) -> "PauliZString":
        return cls(1 << natural(qubit, "qubit"), n)

    @classmethod
    def from_qubits(cls, n: int, qubits) -> "PauliZString":
        mask = 0
        for q in qubits:
            mask |= 1 << natural(q, "qubit")
        return cls(mask, n)

    def label(self) -> str:
        """Qubit-ordered label, e.g. mask 0b101 on 3 qubits -> 'ZIZ'."""
        return "".join("Z" if self.mask >> q & 1 else "I" for q in range(self.n))

    def __str__(self) -> str:
        return self.label()
