"""Commuting phase-flip strings through gates.

`conjugate_z_string(g, s)` returns the string s' with, at the channel level,
(gate channel) o (Z_s channel) = (Z_{s'} channel) o (gate channel). It is
computed numerically: U Z_s U^dag is matched, up to a unit-modulus global
phase, against the Z-strings on the gate's support. Phases are discarded
because conjugation channels rho -> V rho V^dag cannot see them.

Two kinds are exempt from the numeric match. XCZ and RBS carry a documented
pass-through rule (strings commute unchanged): XCZ commutes exactly with Z
on its rotation qubit and RBS with the double string Z1Z2, while the
remaining strings are transparent only as a modeling convention for circuits
confined to the single-excitation subspace. The numeric matcher deliberately
stays available for these kinds via `numeric_conjugate_local` so the
convention remains visible and testable.
"""

from __future__ import annotations

import numpy as np

from .errors import NotZClosed
from .gates import GateOp, local_z_diag, unitary_of
from .pauli import PauliZString

PASS_THROUGH_KINDS = frozenset({"XCZ", "RBS"})

_TOL = 1e-10


def numeric_conjugate_local(g: GateOp, local_mask: int) -> int:
    """Match U Z_local U^dag against local Z-strings; returns the matched
    local mask or raises NotZClosed. Local mask bit a refers to g.qubits[a]."""
    arity = g.arity
    if local_mask == 0:
        return 0
    u = unitary_of(g)
    z = local_z_diag(local_mask, arity)
    m = (u * z[np.newaxis, :]) @ u.conj().T
    diag = np.diagonal(m)
    off = m - np.diag(diag)
    if np.abs(off).max() > _TOL:
        raise NotZClosed(g, local_mask)
    phase = diag[0]
    if abs(abs(phase) - 1.0) > _TOL:
        raise NotZClosed(g, local_mask)
    ratios = diag / phase
    for t in range(1 << arity):
        if np.abs(ratios - local_z_diag(t, arity)).max() <= _TOL:
            return t
    raise NotZClosed(g, local_mask)


def conjugate_z_string(g: GateOp, s: PauliZString) -> PauliZString:
    """Commute the phase-flip string ``s`` leftward through gate ``g``.

    Qubits outside the gate's support pass through unchanged. Raises
    NotZClosed (carrying the gate and string) when U Z_s U^dag is not a
    phase times a Z-string.
    """
    local = sum(1 << a for a, q in enumerate(g.qubits) if s.mask >> q & 1)
    if local == 0 or g.kind in PASS_THROUGH_KINDS:
        return s
    try:
        new_local = numeric_conjugate_local(g, local)
    except NotZClosed:
        raise NotZClosed(g, s) from None
    mask = s.mask & ~sum(1 << q for q in g.qubits)
    mask |= sum(1 << q for a, q in enumerate(g.qubits) if new_local >> a & 1)
    return PauliZString(mask, s.n)


def generator_images(g: GateOp, n: int) -> dict[int, int]:
    """Global image mask of each single-qubit string Z_q, q in g.qubits.

    Conjugation is XOR-linear on masks (it is a group homomorphism once
    phases are discarded), so these images determine the whole map.
    """
    return {
        q: conjugate_z_string(g, PauliZString.single(n, q)).mask for q in g.qubits
    }
