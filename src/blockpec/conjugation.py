"""Commuting phase-flip strings through gates.

U Z_s U^dag is matched numerically, up to a unit-modulus global phase,
against the Z-strings on the gate's support; phases are discarded because
conjugation channels rho -> V rho V^dag cannot see them. The block engine
and the classifier read `local_images(g)`: each generator's image as a local
mask, from one unitary per gate. `conjugate_z_string(g, s)`, the s' with
(gate channel) o (Z_s channel) = (Z_{s'} channel) o (gate channel), and
`generator_images(g, n)` are the reference route on n-qubit strings.

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
from .gates import GateOp, unitary_of, z_sign_vector
from .pauli import PauliZString

PASS_THROUGH_KINDS = frozenset({"XCZ", "RBS"})

_TOL = 1e-10


def _match(u: np.ndarray, local_mask: int, arity: int) -> int | None:
    """The local mask t with U Z_local U^dag = (phase) Z_t, or None. Z_t
    has sign (-1)^{t_a} at the index where only local bit a is set, so t is
    read there and then checked against the whole diagonal."""
    m = (u * z_sign_vector(local_mask, arity)[np.newaxis, :]) @ u.conj().T
    diag = np.diagonal(m)
    if np.abs(m - np.diag(diag)).max() > _TOL or abs(abs(diag[0]) - 1.0) > _TOL:
        return None
    ratios = diag / diag[0]
    t = sum(1 << a for a in range(arity) if ratios[1 << (arity - 1 - a)].real < 0)
    if np.abs(ratios - z_sign_vector(t, arity)).max() > _TOL:
        return None
    return t


def local_images(g: GateOp) -> tuple[int | None, ...]:
    """Local mask (bit b = g.qubits[b]) of the image of each generator
    Z_{g.qubits[a]}, or None for a generator that leaves the Z-string group.
    Pass-through kinds and diagonal unitaries (which commute with every
    Z-string) map every generator to itself."""
    identity = tuple(1 << a for a in range(g.arity))
    if g.kind in PASS_THROUGH_KINDS:
        return identity
    u = unitary_of(g)
    if np.count_nonzero(u) == np.count_nonzero(np.diagonal(u)):
        return identity
    return tuple(_match(u, 1 << a, g.arity) for a in range(g.arity))


def numeric_conjugate_local(g: GateOp, local_mask: int) -> int:
    """Match U Z_local U^dag against local Z-strings; returns the matched
    local mask or raises NotZClosed. Local mask bit a refers to g.qubits[a]."""
    if local_mask == 0:
        return 0
    t = _match(unitary_of(g), local_mask, g.arity)
    if t is None:
        raise NotZClosed(g, local_mask)
    return t


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
