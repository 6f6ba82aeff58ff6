"""State-update kernels and the steps that the simulator compiles for them.

A step is a pair ``(kernel, args)``, applied by ``run(state, step)`` as
``kernel(state, *args)``; the state is a 2^n vector or a 2^n x 2^n
density matrix (qubit q is index bit n-1-q), or a stack of them along a
leading axis. Whether a step acts on density matrices is fixed when it is
compiled; the state's shape tells only how many states are stacked. There is
one kernel per kind of step:

- ``gather``: a gate whose matrix has one nonzero entry per row, each in
  {+-1, +-i} (X, Z, S, CZ, CNOT, SWAP, TOFFOLI), moves every
  entry from its source index, then multiplies by a local phase tensor; a
  diagonal one (Z, S, CZ, a drawn Z-string) moves nothing and only
  multiplies. A phase with a leading stack axis gives each stacked state its
  own phase (one drawn Z-string per state). On a density matrix whose
  trailing index bits after the gate's qubits run long, the move copies the
  K^2 slice blocks of the (2,)*2n view instead of indexing every entry;
- ``broadcast``: a Z-mixture multiplies each coherence rho_{xy} by its
  Walsh-Hadamard eigenvalue at the support pattern of x xor y, a local factor
  on the support's row and column axes of the (2,)*2n view; when the support
  reaches the last qubits, the factor is materialized over their column axes
  so that the multiply runs over contiguous stretches of the state;
- ``dense``: every other gate on ascending adjacent qubits q0..q0+k-1 is a
  ``np.matmul`` of the 2^k x 2^k matrix with the state's (G 2^q0, 2^k, rest)
  view, G the stack size (then of its conjugate with the columns' view); a
  gate on any other qubit tuple is contracted with ``np.tensordot``;
- ``pauli_channel``: impure noise sums its weighted single-qubit Pauli
  conjugations, one qubit at a time, on a view of the state that splits out
  that qubit's row and column bits: X rho X reverses both bit axes, and
  Y rho Y and Z rho Z are X rho X and rho times (-1)^(row bit xor column
  bit), so every term multiplies a view by a weight or a 2 x 2 weight
  pattern.

A kernel may overwrite the state it is given, whose dtype must hold the
result, and returns the result, which may be that state: the elementwise
multiplies of gather and broadcast run in place, a dense step on a large
state reuses the state's buffer for its intermediates, so it holds two 2^2n
arrays instead of up to four, and a Pauli channel writes each qubit's result
into the buffer that the qubit before it read. A caller that keeps a state
hands the kernel a copy.

Gather and broadcast multiply each entry by the exact unit or the eigenvalue
that the tensordot contraction or a full 2^n x 2^n coherence table would, so
their results equal the tensordot-and-table route bit for bit, up to the sign
of exact zeros. A Pauli channel adds the same weighted terms in the same
order as the tensordot route; folding a sign into a weight negates the
product exactly, so it too equals that route up to the sign of exact zeros.
A dense step hands zgemm the operands of tensordot in the same
roles (the gate on the left, the state on the right), either as one product or
as a batch of (2^k, c >= 4) products, which round alike, so it equals
tensordot bit for bit; tests/test_density_kernels.py checks every position
(numpy 2.4.6, OpenBLAS 0.3.31). A stack only adds columns to those products,
so each stacked state comes out as it would alone as long as every product
has a multiple of 4 columns, as on a density matrix with n >= 2; with fewer,
zgemm rounds the leftover columns differently. Elementwise phase multiplies
round differently from zgemm, so gates with other phases (T, RZ, RZZ, ...)
stay dense. Moves, in place or into a buffer, are exact copies.
"""

from __future__ import annotations

import itertools

import numpy as np

from .gates import z_sign_vector
from .noise import make_dephasing, make_impure

_UNIT_PHASES = (1, -1, 1j, -1j)

# A mixture on r qubits has a 4^r-entry factor. Past 2^(n + _FACTOR_SLACK)
# entries, the rows of some support qubits are looped over instead.
_FACTOR_SLACK = 4

# A broadcast factor whose support reaches the last _RUN_QUBITS qubits is
# materialized over their column axes: the multiply then runs over 64
# contiguous entries at a time, not 2.
_RUN_QUBITS = 6

# A dense step batches (2^k, c) products when the c entries after its qubits
# number at least _BATCH_RUN and the state holds at least _BATCH_SIZE entries
# (1 MiB); below either, the cost per product outweighs one transposed copy.
# Measured on one BLAS thread: at n = 10, k = 1, c = 8/16/32 take 18/10/6 ms
# batched against 11/10/10 ms copied; at n = 7 copying wins for every c.
# Batched products with c < 4 round differently from tensordot's.
_BATCH_RUN = 16
_BATCH_SIZE = 1 << 16

# A dense step on a state of at least _REUSE_SIZE entries (n = 7 for
# a density matrix) reuses the state's buffer for its intermediates; below
# that, the extra calls cost more than fresh arrays. Measured on one BLAS
# thread: H on qubit 0 at n = 5 takes 20 us with fresh arrays against 26 us
# reusing, at n = 8 1.8 ms against 1.3 ms.
_REUSE_SIZE = 1 << 14

# A permutation gather on a density matrix copies its K^2 slice blocks when
# the index bits after its last qubit give runs of at least _SLICE_RUN entries
# and each block holds at least _SLICE_BLOCK; otherwise it indexes every entry.
# Measured on one BLAS thread: a CNOT at n = 10 takes 2.2-4.3 ms by blocks
# with runs of 256 down to 8 entries against 5.8-6.4 ms indexed, and 6.9-8.4
# ms with runs of 4 to 1; at n = 6 (256-entry blocks) indexing wins, and on a
# statevector it wins at every size.
_SLICE_RUN = 8
_SLICE_BLOCK = 1 << 10


def run(state: np.ndarray, step) -> np.ndarray:
    kernel, args = step
    return kernel(state, *args)


# ---- kernels


def gather(state: np.ndarray, src, phase: np.ndarray | None, density: bool) -> np.ndarray:
    """Entry x comes from ``src[x]`` and takes the phase ``phase[x]``; on a
    density matrix, entry (x, y) comes from (src[x], src[y]) and takes
    phase[x] * conj(phase[y]). ``src`` None is the identity permutation (Z, S,
    CZ): the same phase multiplies, in the same order, act on the state
    itself. On a density matrix, ``src`` may instead be a tuple of (target,
    source) index pairs over the (2,)*2n view, one per slice block that the
    permutation moves whole."""
    rows = phase[..., None] if density and phase is not None else phase
    if src is None:
        out = state if phase is None else np.multiply(state, rows, out=state)
    else:
        if isinstance(src, np.ndarray):
            if not density:
                out = state.take(src, axis=-1)
            elif state.ndim == 2:
                out = state[src[:, None], src]
            else:  # a stack, taken through the flat index so the copy is contiguous
                flat = (src[:, None] * len(src) + src).ravel()
                out = state.reshape(len(state), -1).take(flat, axis=1).reshape(state.shape)
        else:
            out = np.empty_like(state)
            shape = state.shape[:-2] + (2,) * len(src[0][0])
            tensor, blocks = state.reshape(shape), out.reshape(shape)
            for target, source in src:
                blocks[(..., *target)] = tensor[(..., *source)]
        if phase is not None:
            out *= rows
    if density and phase is not None:
        out *= phase.conj()[..., None, :]
    return out


def _left(u: np.ndarray, x: np.ndarray, a: int, c: int, spare: np.ndarray | None):
    """``u`` applied to the middle axis of ``x`` viewed as (a, 2^k, c). As in
    tensordot, zgemm gets ``u`` as its left operand and the state as its right
    one, so the result is tensordot's bit for bit: a batch of (2^k, c)
    products when c is long, else one (2^k, a*c) product on a transposed copy
    (a strided view when c is 1), copied back.

    Without ``spare``, ``x`` is left untouched and the result is a new array.
    With a ``spare`` buffer of x's size, ``x`` and ``spare`` are the only
    memory used: the result lands in one of them. Returns the result and the
    buffer left over (None without ``spare``)."""
    k2 = len(u)
    x3 = x.reshape(a, k2, c)
    if c >= _BATCH_RUN and x.size >= _BATCH_SIZE:
        if spare is None:
            return np.matmul(u, x3), None
        return np.matmul(u, x3, out=spare.reshape(a, k2, c)), x
    if spare is None:
        moved = x3.transpose(1, 0, 2).reshape(k2, a * c)
        moved = (u @ moved).reshape(k2, a, c)  # frees the transposed copy
        return moved.transpose(1, 0, 2).copy(), None
    if c == 1:
        np.matmul(u, x.reshape(a, k2).T, out=spare.reshape(k2, a))
        np.copyto(x.reshape(a, k2), spare.reshape(k2, a).T)
        return x, spare
    np.copyto(spare.reshape(k2, a, c), x3.transpose(1, 0, 2))
    np.matmul(u, spare.reshape(k2, a * c), out=x.reshape(k2, a * c))
    np.copyto(spare.reshape(a, k2, c), x.reshape(k2, a, c).transpose(1, 0, 2))
    return spare, x


def dense(state: np.ndarray, u: np.ndarray, u_conj, qubits: list, n: int) -> np.ndarray:
    """``u`` on the rows, and on a density matrix (``u_conj`` given) its
    conjugate on the columns. A gate on ascending adjacent qubits
    q0..q0+k-1 multiplies the state's (G 2^q0, 2^k, rest) view, G states
    stacked; a large state shares that work with one more buffer. Any
    other qubit tuple is contracted with ``np.tensordot``."""
    k, q0 = len(qubits), qubits[0]
    nd = 1 if u_conj is None else 2
    stack = state.size >> (nd * n)
    if qubits == list(range(q0, q0 + k)):
        c = 1 << (n - q0 - k)
        spare = np.empty_like(state) if state.size >= _REUSE_SIZE else None
        out, spare = _left(u, state, stack << q0, c << n if nd == 2 else c, spare)
        if nd == 2:
            out, _ = _left(u_conj, out, stack << (n + q0), c, spare)
        return out.reshape(state.shape)
    tensor = state.reshape((stack,) + (2,) * (nd * n))
    for m, axes in ((u, qubits), (u_conj, [n + q for q in qubits]))[:nd]:
        axes = [1 + a for a in axes]
        moved = np.tensordot(m.reshape((2,) * (2 * k)), tensor, axes=(list(range(k, 2 * k)), axes))
        tensor = np.moveaxis(moved, range(k), axes)
    return tensor.reshape(state.shape)


def broadcast(state: np.ndarray, factor: np.ndarray, looped: tuple) -> np.ndarray:
    """Multiply by ``factor`` over the (2,)*2n view. The factor covers the
    rows where every ``looped`` qubit reads 0; where such a qubit reads 1, the
    eigenvalue pattern is XOR-shifted on that qubit, which is the factor with
    the qubit's column axis reversed."""
    tensor = state.reshape(state.shape[:-2] + (2,) * factor.ndim)
    if not looped:
        return np.multiply(tensor, factor, out=tensor).reshape(state.shape)
    n = factor.ndim // 2
    for bits in itertools.product((0, 1), repeat=len(looped)):
        index = [Ellipsis] + [slice(None)] * factor.ndim
        f = factor
        for q, b in zip(looped, bits):
            index[1 + q] = slice(b, b + 1)
            if b:
                f = np.flip(f, n + q)
        np.multiply(tensor[tuple(index)], f, out=tensor[tuple(index)])
    return tensor.reshape(state.shape)


def pauli_channel(rho: np.ndarray, weights: np.ndarray, qubits, n: int) -> np.ndarray:
    """rho -> sum_P w_P P rho P over P = I, X, Y, Z (``weights`` in that
    order, summed in that order) on each of ``qubits`` in turn. Each qubit
    views the state as (stack, 2^q, row bit, rest, 2^q, column bit, rest):
    X rho X is that view with both bit axes reversed, and the Y and Z terms
    take the sign (-1)^(row bit xor column bit) into their weights. The terms
    share one buffer; each qubit's result lands in the buffer that the
    previous qubit read."""
    w_i, w_x, w_y, w_z = weights
    parity = np.array([[1.0, -1.0], [-1.0, 1.0]]).reshape(2, 1, 1, 2, 1)
    w_y, w_z = w_y * parity, w_z * parity
    stack = rho.size >> (2 * n)
    term, out = np.empty_like(rho), np.empty_like(rho)
    for q in qubits:
        shape = (stack, 1 << q, 2, 1 << (n - 1 - q), 1 << q, 2, 1 << (n - 1 - q))
        r, o, t = (a.reshape(shape) for a in (rho, out, term))
        flipped = r[:, :, ::-1, :, :, ::-1]
        np.multiply(r, w_i, out=o)
        o += np.multiply(flipped, w_x, out=t)
        o += np.multiply(flipped, w_y, out=t)
        o += np.multiply(r, w_z, out=t)
        rho, out = out, rho
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
            u = np.ascontiguousarray(u)
            return dense, (u, u.conj() if density else None, qubits, n)
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
    if not any(flips):
        return gather, (None, phase, density)
    if not density or 1 << (n - 1 - max(qubits)) < _SLICE_RUN or 1 << (2 * (n - k)) < _SLICE_BLOCK:
        return gather, (np.arange(1 << n) ^ np.array(flips)[local], phase, density)

    def block(row: int, col: int) -> tuple:
        """The slice block of the (2,)*2n view at local row ``row`` and local
        column ``col``."""
        index = [slice(None)] * (2 * n)
        for a, q in enumerate(qubits):
            index[q] = row >> (k - 1 - a) & 1
            index[n + q] = col >> (k - 1 - a) & 1
        return tuple(index)

    pairs = itertools.product(range(1 << k), repeat=2)
    return gather, (tuple((block(r, c), block(cols[r], cols[c])) for r, c in pairs), phase, True)


def mixture_step(support: tuple, lam: np.ndarray, n: int):
    """A broadcast step for a (possibly signed) Z-mixture on a density matrix:
    each coherence times the mixture's eigenvalue ``lam`` at its XOR pattern
    (pattern bit i <-> qubit support[i])."""
    r = len(support)
    patterns = np.arange(1 << r)
    j = max(0, 2 * r - n - _FACTOR_SLACK)  # looped qubits: support[r-j:]
    rows = np.arange(1 << (r - j))
    local = lam[rows[:, None] ^ patterns[None, :]].reshape((2,) * (2 * r - j))
    axes = [support[i] for i in reversed(range(r - j))] + [n + support[i] for i in reversed(range(r))]
    factor = _place(local, axes, 2 * n)
    w = min(n, _RUN_QUBITS)
    if support and max(support) >= n - w:
        factor = np.ascontiguousarray(np.broadcast_to(factor, factor.shape[: 2 * n - w] + (2,) * w))
    return broadcast, (factor, support[r - j:])


def sign_step(mask: int, n: int, density: bool):
    """The Z-string ``mask`` (bit q for qubit q): a diagonal gather whose
    phase is its 2^n sign vector."""
    return gather, (None, z_sign_vector(mask, n), density)


def noise_step(tag, qubits, n: int):
    """The forward channel of a (noisy) tag on an op's qubits."""
    if tag.kind == "impure":
        return pauli_channel, (make_impure(tag.p, tag.q), tuple(qubits), n)
    mix = make_dephasing(tag, tuple(sorted(qubits)))
    return mixture_step(mix.support, mix.eigenvalues(), n)
