"""Commuting phase-flip strings through gates.

U Z_q U^dag is matched numerically, up to a unit-modulus global phase,
against the Z-strings on the gate's support; phases are discarded because
conjugation channels rho -> V rho V^dag cannot see them. `local_images(g)`
is the one route: each generator's image as a local mask, from one unitary
per gate. The block engine and the classifier read it. Conjugation is
XOR-linear on masks, so `conjugate_z_string(g, s)` (the s' with (gate
channel) o (Z_s channel) = (Z_{s'} channel) o (gate channel)) and
`generator_images(g, n)` are its images lifted to n-qubit strings.

Two kinds are exempt from the numeric match. XCZ and RBS carry a documented
pass-through rule (strings commute unchanged): XCZ commutes exactly with Z
on its rotation qubit and RBS with the double string Z1Z2, while the
remaining strings are transparent only as a modeling convention. It holds
for circuits confined to the single-excitation subspace, such as
`gen_unary_loader`, but `gen_rbs_pyramid` and the `rbs` swap network reach
2^(n-1) basis states. `tests/oracles.py` keeps a whole-string matcher that
shows the convention.
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


def _spread(g: GateOp, local_mask: int) -> int:
    """The global mask of a local mask (bit a = g.qubits[a])."""
    return sum(1 << q for a, q in enumerate(g.qubits) if local_mask >> a & 1)


def conjugate_z_string(g: GateOp, s: PauliZString) -> PauliZString:
    """Commute the phase-flip string ``s`` leftward through gate ``g``: the
    XOR of the images of its generators on the gate.

    Qubits outside the gate's support pass through unchanged. Raises
    NotZClosed (carrying the gate and string) when one of those generators
    leaves the Z-string group.
    """
    mask = s.mask
    for q, image in zip(g.qubits, local_images(g)):
        if s.mask >> q & 1:
            if image is None:
                raise NotZClosed(g, s)
            mask ^= (1 << q) ^ _spread(g, image)
    return PauliZString(mask, s.n)


def generator_images(g: GateOp, n: int) -> dict[int, int]:
    """Global image mask of each single-qubit string Z_q, q in g.qubits.
    A qubit outside n raises InvalidArgument before any image is computed."""
    PauliZString.from_qubits(n, g.qubits)
    images = {}
    for q, image in zip(g.qubits, local_images(g)):
        if image is None:
            raise NotZClosed(g, PauliZString.single(n, q))
        images[q] = _spread(g, image)
    return images
