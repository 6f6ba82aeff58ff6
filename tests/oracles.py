"""Reference routes for the cost engine, independent of its Walsh-domain
computation.

``forward_block_coefficients`` and ``forward_effective_noise`` push a dense
2^n mask distribution forward through the circuit, permuting it through each
op and XOR-convolving it with that op's own distribution: O(d * 2^n * 2^m)
work, simple enough to trust. ``all_strings_z_compatible`` checks Z-closure
on every local Z-string of a gate instead of on its generators only.
"""

from __future__ import annotations

import numpy as np

from blockpec.blocks import BlockCoefficients, layer_distribution
from blockpec.circuits import Circuit
from blockpec.conjugation import conjugate_z_string, generator_images
from blockpec.errors import NotZClosed
from blockpec.gates import GateOp
from blockpec.noise import ZMixtureChannel, make_dephasing
from blockpec.pauli import PauliZString


def _support_mask(op: GateOp) -> int:
    mask = 0
    for q in op.qubits:
        mask |= 1 << q
    return mask


def _global_masks(dist: ZMixtureChannel) -> np.ndarray:
    out = np.zeros(len(dist.coeffs), dtype=np.int64)
    for i, q in enumerate(dist.support):
        out |= ((np.arange(len(dist.coeffs)) >> i) & 1) << q
    return out


def _op_permutation(op: GateOp, n: int, masks: np.ndarray) -> np.ndarray | None:
    """Image of every mask under conjugation through ``op``; None if the map
    is the identity."""
    imgs = generator_images(op, n)
    if all(imgs[q] == 1 << q for q in op.qubits):
        return None
    perm = masks & ~_support_mask(op)
    for q in op.qubits:
        bit = (masks >> q) & 1
        perm = perm ^ bit * imgs[q]
    return perm


def forward_accumulation(c: Circuit, dist_of) -> np.ndarray:
    """Push the running mask distribution through each op, then XOR-convolve
    with that op's own distribution ``dist_of(op, tag)``."""
    size = 1 << c.n
    masks = np.arange(size, dtype=np.int64)
    vec = np.zeros(size)
    vec[0] = 1.0
    for op, tag in zip(c.ops, c.noise_tags):
        perm = _op_permutation(op, c.n, masks)
        if perm is not None:
            moved = np.empty_like(vec)
            moved[perm] = vec
            vec = moved
        dist = dist_of(op, tag)
        gmasks = _global_masks(dist)
        if len(gmasks) == 1 and gmasks[0] == 0:
            continue
        out = np.zeros(size)
        for gmask, a in zip(gmasks, dist.coeffs):
            if a != 0.0:
                out += a * vec[masks ^ gmask]
        vec = out
    return vec


def forward_block_coefficients(c: Circuit) -> BlockCoefficients:
    return BlockCoefficients(c.n, forward_accumulation(c, layer_distribution))


def forward_effective_noise(c: Circuit) -> ZMixtureChannel:
    def forward(op, tag):
        if tag is None or tag.is_noiseless():
            return ZMixtureChannel.identity(tuple(sorted(op.qubits)))
        return make_dephasing(tag, tuple(sorted(op.qubits)))

    return ZMixtureChannel(tuple(range(c.n)), forward_accumulation(c, forward))


def all_strings_z_compatible(g: GateOp) -> bool:
    """True iff conjugation succeeds for all 2^arity local Z-strings."""
    n = max(g.qubits) + 1
    for local in range(1 << g.arity):
        s = PauliZString.from_qubits(
            n, (q for a, q in enumerate(g.qubits) if local >> a & 1)
        )
        try:
            conjugate_z_string(g, s)
        except NotZClosed:
            return False
    return True
