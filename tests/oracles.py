"""Reference routes for the cost engine, independent of its Walsh-domain
computation.

``forward_block_coefficients`` and ``forward_effective_noise`` push a dense
2^n mask distribution forward through the circuit, permuting it through each
op and XOR-convolving it with that op's own distribution: O(d * 2^n * 2^m)
work, simple enough to trust. ``naive_block_coefficients`` enumerates every
tuple of per-layer controls instead. All three return full-support mixtures;
``dense`` scatters the engine's local mixtures to the same 2^n layout.

``match_local_string`` is the whole-string matcher: it compares
U Z_s U^dag against every local Z-string up to a unit phase, sharing no
code with the library's per-generator matcher. ``match_z_string`` and
``match_generator_images`` lift it to n-qubit strings with the pass-through
rule; the forward and naive routes push masks with them.
``all_strings_z_compatible`` checks Z-closure on every local Z-string of a
gate instead of on its generators only.
``xcz_kron_unitary`` builds the XCZ matrix from two Kronecker products.
``radix2_fwht`` is the in-place radix-2 Walsh-Hadamard transform, one
butterfly stage at a time; the library's transform must equal it bitwise.
``reference_pec_samples`` is the estimator's per-sample draw: every sample's
row of per-op masks built in a samples x ops array, and its sign product.
``reference_pec_outcomes`` is the estimator's per-trajectory route: every
distinct row of drawn masks evolved on its own from the all-zeros state.

The simulator's reference kernels contract every gate with ``np.tensordot``,
apply every Z-mixture, or a plan correction's carried eigenvalues, through a
2^n x 2^n coherence-factor table gathered from a 4^n XOR-pattern index, and
apply impure noise as the sum of its weighted ``PAULI_1Q`` conjugations, each
contracted with ``np.tensordot``.
``reference_noisy_density``, ``reference_exact_mitigated`` and
``reference_ideal_state`` are the exact evolutions built from them alone.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from blockpec.blocks import layer_distribution, mitigation_plan
from blockpec.circuits import Circuit
from blockpec.conjugation import PASS_THROUGH_KINDS
from blockpec.errors import GuardExceeded, NotZClosed
from blockpec.gates import GateOp
from blockpec.gates import _rz, unitary_of
from blockpec.noise import ZMixtureChannel, make_dephasing, make_impure
from blockpec.pauli import PauliZString
from blockpec.simulate import (
    DENSITY_GUARD,
    Observable,
    _draws,
    _estimator_rng,
    z_sign_vector,
)

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1.0 + 0j, -1.0]),
}


_NAIVE_GUARD = 16


def radix2_fwht(v: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis, stages h = 1, 2, 4, ...
    in place: each stage replaces every pair (lo, hi) h apart by (lo + hi,
    lo - hi)."""
    out = np.array(v, dtype=float, copy=True)
    h = 1
    while h < out.shape[-1]:
        blocks = out.reshape(*out.shape[:-1], -1, 2 * h)
        lo, hi = blocks[..., :h].copy(), blocks[..., h:].copy()
        blocks[..., :h] = lo + hi
        blocks[..., h:] = lo - hi
        h *= 2
    return out


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


def _local_z(local_mask: int, arity: int) -> np.ndarray:
    """Z_t on a gate's local qubits, local bit a on qubits[a] (the most
    significant first), built as a Kronecker product."""
    return reduce(np.kron, [PAULI_1Q["Z" if local_mask >> a & 1 else "I"] for a in range(arity)])


def match_local_string(g: GateOp, local_mask: int) -> int:
    """The local mask t with U Z_local U^dag = (unit phase) Z_t, found by
    trying every t; raises NotZClosed when none matches. No pass-through."""
    u = unitary_of(g)
    image = u @ _local_z(local_mask, g.arity) @ u.conj().T
    for t in range(1 << g.arity):
        z_t = _local_z(t, g.arity)
        phase = np.trace(z_t @ image) / (1 << g.arity)
        if abs(abs(phase) - 1.0) < 1e-10 and np.abs(image - phase * z_t).max() < 1e-10:
            return t
    raise NotZClosed(g, local_mask)


def match_z_string(g: GateOp, s: PauliZString) -> PauliZString:
    """``s`` commuted leftward through ``g`` by the whole-string matcher:
    spectators stay, pass-through kinds fix every string."""
    local = sum(1 << a for a, q in enumerate(g.qubits) if s.mask >> q & 1)
    if local == 0 or g.kind in PASS_THROUGH_KINDS:
        return s
    try:
        t = match_local_string(g, local)
    except NotZClosed:
        raise NotZClosed(g, s) from None
    mask = s.mask & ~_support_mask(g)
    mask |= sum(1 << q for a, q in enumerate(g.qubits) if t >> a & 1)
    return PauliZString(mask, s.n)


def match_generator_images(g: GateOp, n: int) -> dict[int, int]:
    """Global image mask of each Z_q, q in g.qubits, by the whole-string
    matcher."""
    return {q: match_z_string(g, PauliZString.single(n, q)).mask for q in g.qubits}


def _op_permutation(op: GateOp, n: int, masks: np.ndarray) -> np.ndarray | None:
    """Image of every mask under conjugation through ``op``; None if the map
    is the identity."""
    imgs = match_generator_images(op, n)
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
    op_images = [match_generator_images(op, c.n) for op in c.ops]

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
            match_z_string(g, s)
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


def coherence_factors(support, lam_local: np.ndarray, n: int) -> np.ndarray:
    """The eigenvalue ``lam_local`` (pattern bit i <-> qubit support[i]) at
    each coherence's XOR pattern (2^n x 2^n)."""
    table = local_pattern_table(support, n)
    idx = np.arange(1 << n)
    return lam_local[table[idx[:, None] ^ idx[None, :]]]


def table_z_mixture_density(rho: np.ndarray, mix: ZMixtureChannel, n: int) -> np.ndarray:
    """The mixture through the Walsh-Hadamard transform of its coefficients."""
    return rho * coherence_factors(mix.support, mix.eigenvalues(), n)


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
        forward = make_impure(tag.p, tag.q)
        for q in op.qubits:
            rho = table_pauli1_density(rho, forward, q, n)
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
    # blk and hybrid: each segment's correction from the eigenvalues the plan
    # carries, which for a block are not the transform of its coefficients.
    rho = _zero_density(c.n)
    for seg in mitigation_plan(c, mode).segments:
        for i in range(seg.start, seg.stop):
            rho = _reference_op(rho, c.ops[i], c.noise_tags[i], c.n)
        rho = rho * coherence_factors(seg.coeffs.support, seg.eigenvalues, c.n)
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


def reference_pec_samples(
    c: Circuit, mode: str, n_samples: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.random.Generator]:
    """Every sample's row of per-op Z-string masks (samples x ops), its sign
    product, and the stream after the draws: each slot's drawn string XORed
    into its op's column, then on the statevector path (n > 10) each noisy
    op's drawn forward string, taking the uniforms in the estimator's order
    (the slots' as one samples x slots block, then one vector per noisy op)."""
    slots, _ = _draws(c, mode, use_density=True)  # the slots alone
    rng = _estimator_rng(seed)
    comb = np.zeros((n_samples, len(c.ops)), dtype=np.int64)
    signs = np.ones(n_samples)
    if slots:
        u = rng.random((n_samples, len(slots)))
        for j, (after_op, gmasks, cum, slot_signs) in enumerate(slots):
            idx = np.minimum(np.searchsorted(cum, u[:, j], side="right"), len(gmasks) - 1)
            comb[:, after_op] ^= gmasks[idx]
            signs *= slot_signs[idx]
    if c.n > DENSITY_GUARD:
        for i, (op, tag) in enumerate(zip(c.ops, c.noise_tags)):
            if tag is None or tag.is_noiseless():
                continue
            mix = make_dephasing(tag, tuple(sorted(op.qubits)))
            gmasks = mix.masks()
            draw = np.minimum(
                np.searchsorted(np.cumsum(mix.coeffs), rng.random(n_samples), side="right"),
                len(gmasks) - 1,
            )
            comb[:, i] ^= gmasks[draw]
    return comb, signs, rng
