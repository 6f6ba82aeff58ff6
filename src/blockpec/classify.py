"""Gate and circuit compatibility classifiers.

A circuit-level report of three per-gate flags:

- bias-preserving: the unitary is a generalized permutation matrix (one
  unit-modulus entry per column), so phase flips map to phase flips.
- S1-bias-preserving: bias-preserving restricted to the single-excitation
  span{|01>, |10>} of a 2-qubit gate.
- Pauli-Z compatible: every phase-flip string on the gate's support commutes
  through it (possibly transformed), so aggregated correction layers can be
  pushed past the gate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import Circuit
from .conjugation import local_images
from .gates import GateOp, unitary_of

_TOL = 1e-10


def _bias_preserving(u: np.ndarray) -> bool:
    """Every column has exactly one entry of modulus >= 1 - 1e-10 and the
    rest <= 1e-10."""
    u = np.abs(u)
    big = u >= 1.0 - _TOL
    small = u <= _TOL
    per_column_ok = (big.sum(axis=0) == 1) & ((big | small).all(axis=0))
    return bool(per_column_ok.all())


def _s1_bias_preserving(u: np.ndarray) -> bool:
    """The 2-qubit unitary maps span{|01>, |10>} into itself: no weight from
    |01>, |10> into |00>, |11>. Its 2x2 block there is then unitary, and so
    is the D' = B D B^-1 it gives each phase-flip generator D in {Z1, Z2,
    Z1Z2}."""
    return bool(np.abs(u[np.ix_([0, 3], [1, 2])]).max() <= _TOL)


def pauli_z_compatible(g: GateOp) -> bool:
    """True iff conjugation succeeds for every local Z-string of the gate.

    Conjugation is a group homomorphism once phases are discarded, so it
    suffices that each single-qubit generator Z_q maps to a Z-string."""
    return None not in local_images(g)


@dataclass(frozen=True)
class CompatReport:
    """Per-gate classifier flags plus maximal compatible segments.

    ``segments`` holds (start, stop) index ranges with exclusive stop, in
    order, disjoint, covering exactly the compatible ops.
    """

    bias_preserving: tuple[bool, ...]
    s1_bias_preserving: tuple[bool, ...]
    pauli_z_compatible: tuple[bool, ...]
    segments: tuple[tuple[int, int], ...]

    def to_dict(self) -> dict:
        return {
            "bias_preserving": list(self.bias_preserving),
            "s1_bias_preserving": list(self.s1_bias_preserving),
            "pauli_z_compatible": list(self.pauli_z_compatible),
            "segments": [list(seg) for seg in self.segments],
        }


def maximal_segments(flags) -> tuple[tuple[int, int], ...]:
    """Maximal runs of consecutive True flags as (start, stop) ranges."""
    flags = list(flags)
    segments = []
    start = None
    for i, flag in enumerate(flags):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            segments.append((start, i))
            start = None
    if start is not None:
        segments.append((start, len(flags)))
    return tuple(segments)


def classify_circuit(c: Circuit) -> CompatReport:
    """Per-gate flags and maximal compatible segments. The flags depend only
    on the gate's kind and angle, so each distinct (kind, angle) gets one
    unitary and one classification per call."""
    flags: dict = {}
    rows = []
    for op in c.ops:
        key = (op.kind, op.angle)
        if key not in flags:
            u = unitary_of(op)
            flags[key] = (
                _bias_preserving(u),
                op.arity == 2 and _s1_bias_preserving(u),
                pauli_z_compatible(op),
            )
        rows.append(flags[key])
    bias, s1, compat = (tuple(col) for col in zip(*rows)) if rows else ((), (), ())
    return CompatReport(
        bias_preserving=bias,
        s1_bias_preserving=s1,
        pauli_z_compatible=compat,
        segments=maximal_segments(compat),
    )
