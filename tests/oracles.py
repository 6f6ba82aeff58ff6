"""Reference routes for the cost engine, independent of its Walsh-domain
computation.

``forward_block_coefficients`` and ``forward_effective_noise`` push a dense
2^n mask distribution forward through the circuit, permuting it through each
op and XOR-convolving it with that op's own distribution: O(d * 2^n * 2^m)
work, simple enough to trust. ``all_strings_z_compatible`` checks Z-closure
on every local Z-string of a gate instead of on its generators only.
``xcz_kron_unitary`` builds the XCZ matrix from two Kronecker products.
``reference_pec_outcomes`` is the estimator's per-trajectory route: every
distinct row of drawn masks evolved on its own from the all-zeros state.
"""

from __future__ import annotations

import numpy as np

from blockpec.blocks import BlockCoefficients, layer_distribution
from blockpec.circuits import Circuit
from blockpec.conjugation import conjugate_z_string, generator_images
from blockpec.errors import NotZClosed
from blockpec.gates import GateOp
from blockpec.gates import _rz, unitary_of
from blockpec.noise import ZMixtureChannel, make_dephasing, make_impure
from blockpec.pauli import PauliZString
from blockpec.simulate import (
    Observable,
    apply_pauli1_density,
    apply_unitary_density,
    apply_unitary_state,
    apply_z_mixture_density,
    apply_z_string_density,
    z_sign_vector,
)


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


def xcz_kron_unitary(theta: float) -> np.ndarray:
    """|+><+| (x) I + |-><-| (x) RZ(-theta), built with np.kron."""
    plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    return np.kron(plus, np.eye(2)) + np.kron(minus, _rz(-theta))


def _reference_density_outcome(c: Circuit, obs: Observable, row) -> float:
    rho = np.zeros((1 << c.n, 1 << c.n), dtype=complex)
    rho[0, 0] = 1.0
    for op, tag, mask in zip(c.ops, c.noise_tags, row):
        rho = apply_unitary_density(rho, unitary_of(op), op.qubits, c.n)
        if tag is not None and not tag.is_noiseless():
            if tag.kind == "impure":
                forward, _ = make_impure(tag.p, tag.q)
                for q in op.qubits:
                    rho = apply_pauli1_density(rho, forward.coeffs, q, c.n)
            else:
                mix = make_dephasing(tag, tuple(sorted(op.qubits)))
                rho = apply_z_mixture_density(rho, mix, c.n)
        if mask:
            rho = apply_z_string_density(rho, int(mask), c.n)
    return obs.expectation_density(rho)


def _reference_state_outcome(c: Circuit, obs: Observable, row) -> float:
    psi = np.zeros(1 << c.n, dtype=complex)
    psi[0] = 1.0
    for op, mask in zip(c.ops, row):
        psi = apply_unitary_state(psi, unitary_of(op), op.qubits, c.n)
        if mask:
            psi = psi * z_sign_vector(int(mask), c.n)
    return obs.expectation_state(psi)


def reference_pec_outcomes(
    c: Circuit, obs: Observable, comb: np.ndarray, use_density: bool
) -> np.ndarray:
    """Outcome of every sample row of ``comb`` (one Z-string mask per op,
    applied right after that op): each distinct row is evolved from the
    all-zeros state on its own, with the op's noise channel on the density
    path and no noise on the statevector path (there the rows already carry
    the sampled noise strings)."""
    outcome = _reference_density_outcome if use_density else _reference_state_outcome
    uniq, inverse = np.unique(comb, axis=0, return_inverse=True)
    out = np.array([outcome(c, obs, row) for row in uniq])
    return out[inverse.reshape(-1)]
