"""Reference routes for the cost engine, independent of its Walsh-domain
computation.

``forward_block_coefficients`` and ``forward_effective_noise`` push a dense
2^n mask distribution forward through the circuit, permuting it through each
op and XOR-convolving it with that op's own distribution: O(d * 2^n * 2^m)
work, simple enough to trust. ``naive_block_coefficients`` enumerates every
tuple of per-layer controls instead. All three return full-support mixtures;
``dense`` scatters the engine's local mixtures to the same 2^n layout. ``all_strings_z_compatible`` checks Z-closure
on every local Z-string of a gate instead of on its generators only.
``xcz_kron_unitary`` builds the XCZ matrix from two Kronecker products.
``reference_pec_outcomes`` is the estimator's per-trajectory route: every
distinct row of drawn masks evolved on its own from the all-zeros state.

The simulator's reference kernels contract every gate with ``np.tensordot``
and apply every Z-mixture through a 2^n x 2^n coherence-factor table gathered
from a 4^n XOR-pattern index. ``reference_noisy_density``,
``reference_exact_mitigated`` and ``reference_ideal_state`` are the exact
evolutions built from them alone.
"""

from __future__ import annotations

import numpy as np

from blockpec.blocks import (
    block_coefficients,
    hybrid_plan,
    layer_distribution,
)
from blockpec.circuits import Circuit
from blockpec.conjugation import conjugate_z_string, generator_images
from blockpec.errors import GuardExceeded, NotZClosed
from blockpec.gates import GateOp
from blockpec.gates import _rz, unitary_of
from blockpec.noise import ZMixtureChannel, make_dephasing, make_impure
from blockpec.pauli import PauliZString
from blockpec.kernels import PAULI_1Q
from blockpec.simulate import Observable, z_sign_vector


_NAIVE_GUARD = 16


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


def dense(mix: ZMixtureChannel, n: int) -> np.ndarray:
    """The mixture's coefficients over all 2^n global masks."""
    out = np.zeros(1 << n)
    out[_global_masks(mix)] = mix.coeffs
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


def forward_block_coefficients(c: Circuit) -> ZMixtureChannel:
    return ZMixtureChannel(tuple(range(c.n)), forward_accumulation(c, layer_distribution))


def forward_effective_noise(c: Circuit) -> ZMixtureChannel:
    def forward(op, tag):
        if tag is None or tag.is_noiseless():
            return ZMixtureChannel.identity(tuple(sorted(op.qubits)))
        return make_dephasing(tag, tuple(sorted(op.qubits)))

    return ZMixtureChannel(tuple(range(c.n)), forward_accumulation(c, forward))


def naive_block_coefficients(c: Circuit) -> ZMixtureChannel:
    """Brute-force oracle: enumerate every tuple of per-layer controls,
    commute each control individually to the end, XOR-compose and accumulate
    the coefficient products. Exponential; guarded by n*d <= 16."""
    d = len(c.ops)
    if c.n * d > _NAIVE_GUARD:
        raise GuardExceeded(
            f"naive enumeration refused for n*d = {c.n * d} > {_NAIVE_GUARD}"
        )
    op_images = [generator_images(op, c.n) for op in c.ops]

    def push(mask: int, start: int) -> int:
        for op, imgs in zip(c.ops[start:], op_images[start:]):
            moved = mask & ~_support_mask(op)
            for q in op.qubits:
                if mask >> q & 1:
                    moved ^= imgs[q]
            mask = moved
        return mask

    acc_masks = np.zeros(1, dtype=np.int64)
    acc_coeffs = np.ones(1)
    for l, (op, tag) in enumerate(zip(c.ops, c.noise_tags)):
        dist = layer_distribution(op, tag)
        gmasks = _global_masks(dist)
        pushed = np.array([push(int(m), l + 1) for m in gmasks], dtype=np.int64)
        acc_masks = (acc_masks[:, None] ^ pushed[None, :]).ravel()
        acc_coeffs = (acc_coeffs[:, None] * dist.coeffs[None, :]).ravel()
    vec = np.bincount(acc_masks, weights=acc_coeffs, minlength=1 << c.n)
    return ZMixtureChannel(tuple(range(c.n)), vec)


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


def tensordot_unitary_state(psi: np.ndarray, u: np.ndarray, qubits, n: int) -> np.ndarray:
    k = len(qubits)
    tensor = psi.reshape((2,) * n)
    u_t = u.reshape((2,) * (2 * k))
    moved = np.tensordot(u_t, tensor, axes=(list(range(k, 2 * k)), list(qubits)))
    return np.moveaxis(moved, range(k), qubits).reshape(-1)


def tensordot_unitary_density(rho: np.ndarray, u: np.ndarray, qubits, n: int) -> np.ndarray:
    dim = 1 << n
    k = len(qubits)
    tensor = rho.reshape((2,) * (2 * n))
    u_t = u.reshape((2,) * (2 * k))
    # Row side: U rho
    moved = np.tensordot(u_t, tensor, axes=(list(range(k, 2 * k)), list(qubits)))
    tensor = np.moveaxis(moved, range(k), qubits)
    # Column side: ... U^dag
    cols = [n + q for q in qubits]
    moved = np.tensordot(u_t.conj(), tensor, axes=(list(range(k, 2 * k)), cols))
    tensor = np.moveaxis(moved, range(k), cols)
    return tensor.reshape(dim, dim)


def local_pattern_table(support, n: int) -> np.ndarray:
    """Local coefficient index of each global basis-index XOR pattern."""
    idx = np.arange(1 << n)
    table = np.zeros(1 << n, dtype=np.int64)
    for a, q in enumerate(support):
        table |= ((idx >> (n - 1 - q)) & 1) << a
    return table


def coherence_factors(mix: ZMixtureChannel, n: int) -> np.ndarray:
    """The mixture's Walsh-Hadamard eigenvalue at each coherence's XOR
    pattern (2^n x 2^n)."""
    lam_local = mix.eigenvalues()
    table = local_pattern_table(mix.support, n)
    idx = np.arange(1 << n)
    return lam_local[table[idx[:, None] ^ idx[None, :]]]


def table_z_mixture_density(rho: np.ndarray, mix: ZMixtureChannel, n: int) -> np.ndarray:
    return rho * coherence_factors(mix, n)


def z_sign_matrix(mask: int, n: int) -> np.ndarray:
    s = z_sign_vector(mask, n)
    return s[:, None] * s[None, :]


def table_pauli1_density(rho: np.ndarray, coeffs, qubit: int, n: int) -> np.ndarray:
    """Single-qubit Pauli mixture rho -> sum_P c_P P rho P^dag."""
    out = np.zeros_like(rho)
    for c, label in zip(coeffs, "IXYZ"):
        if c == 0.0:
            continue
        out = out + c * tensordot_unitary_density(rho, PAULI_1Q[label], (qubit,), n)
    return out


def _reference_op(rho: np.ndarray, op: GateOp, tag, n: int) -> np.ndarray:
    """One op's unitary, then its noise channel."""
    rho = tensordot_unitary_density(rho, unitary_of(op), op.qubits, n)
    if tag is None or tag.is_noiseless():
        return rho
    if tag.kind == "impure":
        forward, _ = make_impure(tag.p, tag.q)
        for q in op.qubits:
            rho = table_pauli1_density(rho, forward.coeffs, q, n)
        return rho
    return table_z_mixture_density(rho, make_dephasing(tag, tuple(sorted(op.qubits))), n)


def _zero_density(n: int) -> np.ndarray:
    rho = np.zeros((1 << n, 1 << n), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def reference_noisy_density(c: Circuit) -> np.ndarray:
    rho = _zero_density(c.n)
    for op, tag in zip(c.ops, c.noise_tags):
        rho = _reference_op(rho, op, tag, c.n)
    return rho


def reference_ideal_state(c: Circuit) -> np.ndarray:
    psi = np.zeros(1 << c.n, dtype=complex)
    psi[0] = 1.0
    for op in c.ops:
        psi = tensordot_unitary_state(psi, unitary_of(op), op.qubits, c.n)
    return psi


def reference_exact_mitigated(c: Circuit, obs: Observable, mode: str) -> float:
    """``exact_mitigated_expectation`` from the reference kernels."""
    if mode == "std":
        rho = _zero_density(c.n)
        for op, tag in zip(c.ops, c.noise_tags):
            rho = _reference_op(rho, op, tag, c.n)
            if tag is not None and not tag.is_noiseless():
                rho = table_z_mixture_density(rho, layer_distribution(op, tag), c.n)
        return obs.expectation_density(rho)
    if mode == "blk":
        coeffs = block_coefficients(c)
        rho = table_z_mixture_density(reference_noisy_density(c), coeffs, c.n)
        return obs.expectation_density(rho)
    rho = _zero_density(c.n)
    for seg in hybrid_plan(c).segments:
        for i in range(seg.start, seg.stop):
            rho = _reference_op(rho, c.ops[i], c.noise_tags[i], c.n)
        rho = table_z_mixture_density(rho, seg.coeffs, c.n)
    return obs.expectation_density(rho)


def _reference_density_outcome(c: Circuit, obs: Observable, row) -> float:
    rho = _zero_density(c.n)
    for op, tag, mask in zip(c.ops, c.noise_tags, row):
        rho = _reference_op(rho, op, tag, c.n)
        if mask:
            rho = rho * z_sign_matrix(int(mask), c.n)
    return obs.expectation_density(rho)


def _reference_state_outcome(c: Circuit, obs: Observable, row) -> float:
    psi = np.zeros(1 << c.n, dtype=complex)
    psi[0] = 1.0
    for op, mask in zip(c.ops, row):
        psi = tensordot_unitary_state(psi, unitary_of(op), op.qubits, c.n)
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
