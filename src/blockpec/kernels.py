"""State-update kernels and the steps that the simulator compiles for them.

A step is a pair ``(kernel, args)``, applied by ``run(state, step)`` as
``kernel(state, *args)``; the state is a 2^n vector or a 2^n x 2^n density
matrix (qubit q is index bit n-1-q). There is one kernel per kind of step:

- ``gather``: a gate whose matrix has one nonzero entry per row, each in
  {+-1, +-i} (X, Z, S, CZ, CNOT, SWAP, TOFFOLI, the Paulis), moves every
  entry from its source index, then multiplies by a local phase tensor;
- ``broadcast``: a Z-mixture multiplies each coherence rho_{xy} by its
  Walsh-Hadamard eigenvalue at the support pattern of x xor y, a local factor
  on the support's row and column axes of the (2,)*2n view;
- ``dense``: every other gate is contracted with ``np.tensordot``.

Gather and broadcast multiply each entry by the exact unit or the eigenvalue
that the tensordot contraction or a full 2^n x 2^n coherence table would, so
their results equal the tensordot-and-table route bit for bit, up to the sign
of exact zeros. Elementwise phase multiplies round differently from zgemm,
so gates with other phases (T, RZ, RZZ, ...) stay dense.
"""

from __future__ import annotations

import itertools

import numpy as np

from .noise import ZMixtureChannel, make_dephasing, make_impure

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1.0 + 0j, -1.0]),
}

_UNIT_PHASES = (1, -1, 1j, -1j)

# A mixture on r qubits has a 4^r-entry factor. Past 2^(n + _FACTOR_SLACK)
# entries, the rows of some support qubits are looped over instead.
_FACTOR_SLACK = 4


def z_sign_vector(mask: int, n: int) -> np.ndarray:
    """(+/-1)^{parity of mask bits} over the 2^n basis indices (qubit q lives
    at index bit n-1-q)."""
    idx = np.arange(1 << n)
    signs = np.ones(1 << n)
    for q in range(n):
        if mask >> q & 1:
            signs *= np.where((idx >> (n - 1 - q)) & 1, -1.0, 1.0)
    return signs


def run(state: np.ndarray, step) -> np.ndarray:
    kernel, args = step
    return kernel(state, *args)


# ---- kernels (each returns a new array and leaves ``state`` untouched)


def gather(state: np.ndarray, src: np.ndarray, phase: np.ndarray | None) -> np.ndarray:
    """Entry x comes from ``src[x]`` and takes the phase ``phase[x]``; on a
    density matrix, entry (x, y) comes from (src[x], src[y]) and takes
    phase[x] * conj(phase[y])."""
    if state.ndim == 1:
        out = state[src]
        if phase is not None:
            out *= phase
        return out
    out = state[src[:, None], src]
    if phase is not None:
        out *= phase[:, None]
        out *= phase.conj()
    return out


def dense(state: np.ndarray, u_t: np.ndarray, u_conj, qubits: list, n: int) -> np.ndarray:
    """``np.tensordot`` with the (2,)*2k gate tensor, and on a density matrix
    with its conjugate on the column axes."""
    k = len(qubits)
    axes = list(range(k, 2 * k))
    if state.ndim == 1:
        moved = np.tensordot(u_t, state.reshape((2,) * n), axes=(axes, qubits))
        return np.moveaxis(moved, range(k), qubits).reshape(-1)
    moved = np.tensordot(u_t, state.reshape((2,) * (2 * n)), axes=(axes, qubits))
    tensor = np.moveaxis(moved, range(k), qubits)
    cols = [n + q for q in qubits]
    moved = np.tensordot(u_conj, tensor, axes=(axes, cols))
    return np.moveaxis(moved, range(k), cols).reshape(state.shape)


def broadcast(state: np.ndarray, factor: np.ndarray, looped: tuple) -> np.ndarray:
    """Multiply by ``factor`` over the (2,)*2n view. The factor covers the
    rows where every ``looped`` qubit reads 0; where such a qubit reads 1, the
    eigenvalue pattern is XOR-shifted on that qubit, which is the factor with
    the qubit's column axis reversed."""
    tensor = state.reshape((2,) * factor.ndim)
    if not looped:
        return (tensor * factor).reshape(state.shape)
    n = factor.ndim // 2
    out = np.empty(tensor.shape, np.result_type(tensor, factor))
    for bits in itertools.product((0, 1), repeat=len(looped)):
        index = [slice(None)] * tensor.ndim
        f = factor
        for q, b in zip(looped, bits):
            index[q] = slice(b, b + 1)
            if b:
                f = np.flip(f, n + q)
        np.multiply(tensor[tuple(index)], f, out=out[tuple(index)])
    return out.reshape(state.shape)


def signs(state: np.ndarray, s: np.ndarray) -> np.ndarray:
    """A Z-string: its 2^n sign vector on the rows (and on the columns)."""
    if state.ndim == 1:
        return state * s
    out = state * s[:, None]
    out *= s
    return out


def pauli_channel(rho: np.ndarray, coeffs, qubits, n: int) -> np.ndarray:
    """rho -> sum_P c_P P rho P^dag over the single-qubit Paulis, on each of
    ``qubits`` in turn."""
    for q in qubits:
        out = np.zeros_like(rho)
        for c, label in zip(coeffs, "IXYZ"):
            if c != 0.0:
                out = out + c * run(rho, unitary_step(PAULI_1Q[label], (q,), n, True))
        rho = out
    return rho


# ---- step builders


def _place(local: np.ndarray, axes, ndim: int) -> np.ndarray:
    """``local``, whose i-th axis is global axis ``axes[i]``, as a contiguous
    array broadcastable over a (2,)*ndim tensor."""
    shape = [1] * ndim
    for a in axes:
        shape[a] = 2
    return np.ascontiguousarray(local.transpose(np.argsort(axes)).reshape(shape))


def unitary_step(u: np.ndarray, qubits, n: int, density: bool):
    """A gather step if every row of ``u`` holds one nonzero entry in
    {+-1, +-i}, else a dense step."""
    qubits = [int(q) for q in qubits]
    k = len(qubits)
    cols, phases = [], []
    for row in u.tolist():
        nonzero = [j for j, x in enumerate(row) if x != 0]
        if len(nonzero) != 1 or row[nonzero[0]] not in _UNIT_PHASES:
            u_t = u.reshape((2,) * (2 * k))
            return dense, (u_t, u_t.conj() if density else None, qubits, n)
        cols.append(nonzero[0])
        phases.append(row[nonzero[0]])
    # Local index bit k-1-a is qubit qubits[a], global index bit n-1-q. Each
    # source index differs from its target by the bits where the local row
    # and its column differ.
    flips = [
        sum(((row ^ col) >> (k - 1 - a) & 1) << (n - 1 - q) for a, q in enumerate(qubits))
        for row, col in enumerate(cols)
    ]
    local = np.zeros(1 << n, dtype=np.intp)  # local index of every global one
    for a, q in enumerate(qubits):
        local.reshape(-1, 2, 1 << (n - 1 - q))[:, 1, :] += 1 << (k - 1 - a)
    phase = np.array(phases)[local] if any(p != 1 for p in phases) else None
    return gather, (np.arange(1 << n) ^ np.array(flips)[local], phase)


def mixture_step(mix: ZMixtureChannel, n: int):
    """A broadcast step for a (possibly signed) Z-mixture on a density matrix."""
    lam = mix.eigenvalues()
    # The eigenvalues do not depend on support qubits that no nonzero
    # coefficient touches, so the factor leaves those qubits out.
    used = int(np.bitwise_or.reduce(np.flatnonzero(mix.coeffs), initial=0))
    bits = [a for a in range(mix.m) if used >> a & 1]
    kept = [mix.support[a] for a in bits]
    r = len(kept)
    patterns = np.arange(1 << r)
    sub = np.zeros(1 << r, dtype=np.intp)
    for i, a in enumerate(bits):
        sub |= ((patterns >> i) & 1) << a
    lam = lam[sub]  # pattern bit i <-> qubit kept[i]
    j = max(0, 2 * r - n - _FACTOR_SLACK)  # looped qubits: kept[r-j:]
    rows = np.arange(1 << (r - j))
    local = lam[rows[:, None] ^ patterns[None, :]].reshape((2,) * (2 * r - j))
    axes = [kept[i] for i in reversed(range(r - j))] + [n + kept[i] for i in reversed(range(r))]
    return broadcast, (_place(local, axes, 2 * n), tuple(kept[r - j:]))


def sign_step(mask: int, n: int):
    """The Z-string ``mask`` (bit q for qubit q) as two 2^n sign vectors."""
    return signs, (z_sign_vector(mask, n),)


def noise_step(tag, qubits, n: int):
    """The forward channel of a (noisy) tag on an op's qubits."""
    if tag.kind == "impure":
        forward, _ = make_impure(tag.p, tag.q)
        return pauli_channel, (forward.coeffs, qubits, n)
    return mixture_step(make_dephasing(tag, tuple(sorted(qubits))), n)
