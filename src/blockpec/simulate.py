"""Exact simulation and Monte Carlo estimation of mitigated expectations.

Statevector simulation covers ideal circuits up to n = 14; exact noisy
evolution uses a dense density matrix up to n = 10, applying Z-mixtures as
elementwise coherence factors (rho'_{xy} = lambda(x xor y) * rho_{xy}).
The Monte Carlo estimator draws correction strings per sample from a single
keyed counter-based stream, so results are bitwise reproducible per seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .blocks import (
    BlockCoefficients,
    _global_masks,
    block_coefficients,
    hybrid_plan,
    layer_distribution,
)
from .circuits import Circuit
from .errors import (
    GuardExceeded,
    InvalidArgument,
    InvalidSamples,
)
from .gates import unitary_of
from .noise import ZMixtureChannel, make_dephasing, make_impure
from .pauli import PauliZString

STATEVECTOR_GUARD = 14
DENSITY_GUARD = 10
_ENUM_GUARD = 1 << 16

_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1.0 + 0j, -1.0]),
}


def z_sign_vector(mask: int, n: int) -> np.ndarray:
    """(+/-1)^{parity of mask bits} over the 2^n basis indices (qubit q lives
    at index bit n-1-q)."""
    idx = np.arange(1 << n)
    signs = np.ones(1 << n)
    for q in range(n):
        if mask >> q & 1:
            signs *= np.where((idx >> (n - 1 - q)) & 1, -1.0, 1.0)
    return signs


def apply_unitary_state(psi: np.ndarray, u: np.ndarray, qubits, n: int) -> np.ndarray:
    k = len(qubits)
    tensor = psi.reshape((2,) * n)
    u_t = u.reshape((2,) * (2 * k))
    moved = np.tensordot(u_t, tensor, axes=(list(range(k, 2 * k)), list(qubits)))
    return np.moveaxis(moved, range(k), qubits).reshape(-1)


def apply_unitary_density(rho: np.ndarray, u: np.ndarray, qubits, n: int) -> np.ndarray:
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


def _local_pattern_table(support, n: int) -> np.ndarray:
    """Local coefficient index of each global basis-index XOR pattern."""
    idx = np.arange(1 << n)
    table = np.zeros(1 << n, dtype=np.int64)
    for a, q in enumerate(support):
        table |= ((idx >> (n - 1 - q)) & 1) << a
    return table


def _coherence_factors(mix: ZMixtureChannel, n: int) -> np.ndarray:
    """The mixture's Walsh-Hadamard eigenvalue at each coherence's XOR
    pattern (2^n x 2^n)."""
    lam_local = mix.eigenvalues()
    table = _local_pattern_table(mix.support, n)
    idx = np.arange(1 << n)
    return lam_local[table[idx[:, None] ^ idx[None, :]]]


def apply_z_mixture_density(rho: np.ndarray, mix: ZMixtureChannel, n: int) -> np.ndarray:
    """Apply a (possibly signed) Z-mixture: multiply each coherence by the
    mixture's Walsh-Hadamard eigenvalue at that XOR pattern."""
    return rho * _coherence_factors(mix, n)


def apply_block_mixture_density(rho: np.ndarray, b: BlockCoefficients) -> np.ndarray:
    return apply_z_mixture_density(rho, b.to_mixture(), b.n)


def _z_sign_matrix(mask: int, n: int) -> np.ndarray:
    s = z_sign_vector(mask, n)
    return s[:, None] * s[None, :]


def apply_z_string_density(rho: np.ndarray, mask: int, n: int) -> np.ndarray:
    return rho * _z_sign_matrix(mask, n)


def apply_pauli1_density(rho: np.ndarray, coeffs, qubit: int, n: int) -> np.ndarray:
    """Single-qubit Pauli mixture rho -> sum_P c_P P rho P^dag."""
    out = np.zeros_like(rho)
    for c, label in zip(coeffs, "IXYZ"):
        if c == 0.0:
            continue
        out = out + c * apply_unitary_density(rho, _PAULI_1Q[label], (qubit,), n)
    return out


def _apply_op_noise_density(rho: np.ndarray, op, tag, n: int) -> np.ndarray:
    if tag is None or tag.is_noiseless():
        return rho
    if tag.kind == "impure":
        forward, _ = make_impure(tag.p, tag.q)
        for q in op.qubits:
            rho = apply_pauli1_density(rho, forward.coeffs, q, n)
        return rho
    mix = make_dephasing(tag, tuple(sorted(op.qubits)))
    return apply_z_mixture_density(rho, mix, n)


@dataclass(frozen=True)
class Observable:
    """Measurement operator with operator norm at most 1.

    Kinds: 'pauli_z_string' (payload PauliZString), 'diagonal_projector'
    (payload boolean vector over basis states), 'dense_hermitian' (payload
    Hermitian matrix, scaled down at construction if its norm exceeds 1).
    """

    kind: str
    n: int
    payload: object

    @classmethod
    def z_string(cls, s: PauliZString) -> "Observable":
        return cls("pauli_z_string", s.n, s)

    @classmethod
    def z(cls, n: int, qubit: int = 0) -> "Observable":
        return cls.z_string(PauliZString.single(n, qubit))

    @classmethod
    def projector(cls, n: int, basis_states) -> "Observable":
        mask = np.zeros(1 << n, dtype=bool)
        mask[list(basis_states)] = True
        return cls("diagonal_projector", n, mask)

    @classmethod
    def qubit_one_projector(cls, n: int, qubit: int) -> "Observable":
        """Projector onto basis states where ``qubit`` reads 1."""
        idx = np.arange(1 << n)
        return cls("diagonal_projector", n, ((idx >> (n - 1 - qubit)) & 1).astype(bool))

    @classmethod
    def dense(cls, matrix) -> "Observable":
        m = np.asarray(matrix, dtype=complex)
        dim = m.shape[0]
        n = dim.bit_length() - 1
        if m.shape != (dim, dim) or (1 << n) != dim:
            raise InvalidArgument(f"dense observable needs a 2^n square matrix, got {m.shape}")
        if np.abs(m - m.conj().T).max() > 1e-10:
            raise InvalidArgument("dense observable must be Hermitian")
        norm = float(np.abs(np.linalg.eigvalsh(m)).max())
        if norm > 1.0 + 1e-12:
            m = m / norm
        return cls("dense_hermitian", n, m)

    def expectation_state(self, psi: np.ndarray) -> float:
        if self.kind == "pauli_z_string":
            return float((np.abs(psi) ** 2 @ z_sign_vector(self.payload.mask, self.n)))
        if self.kind == "diagonal_projector":
            return float((np.abs(psi) ** 2)[self.payload].sum())
        return float(np.vdot(psi, self.payload @ psi).real)

    def expectation_density(self, rho: np.ndarray) -> float:
        diag = np.diagonal(rho).real
        if self.kind == "pauli_z_string":
            return float(diag @ z_sign_vector(self.payload.mask, self.n))
        if self.kind == "diagonal_projector":
            return float(diag[self.payload].sum())
        return float(np.trace(self.payload @ rho).real)


def _check_obs(c: Circuit, obs: Observable) -> None:
    if obs.n != c.n:
        raise InvalidArgument(f"observable on {obs.n} qubits, circuit on {c.n}")


def ideal_expectation(c: Circuit, obs: Observable) -> float:
    """Noiseless expectation from the all-zeros initial state (statevector)."""
    _check_obs(c, obs)
    if c.n > STATEVECTOR_GUARD:
        raise GuardExceeded(f"statevector refused for n={c.n} > {STATEVECTOR_GUARD}")
    psi = np.zeros(1 << c.n, dtype=complex)
    psi[0] = 1.0
    for op in c.ops:
        psi = apply_unitary_state(psi, unitary_of(op), op.qubits, c.n)
    return obs.expectation_state(psi)


def _zero_density(n: int) -> np.ndarray:
    rho = np.zeros((1 << n, 1 << n), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def _evolve_noisy_density(c: Circuit) -> np.ndarray:
    """Exact noisy evolution from the all-zeros state."""
    rho = _zero_density(c.n)
    for op, tag in zip(c.ops, c.noise_tags):
        rho = apply_unitary_density(rho, unitary_of(op), op.qubits, c.n)
        rho = _apply_op_noise_density(rho, op, tag, c.n)
    return rho


def noisy_expectation(c: Circuit, obs: Observable) -> float:
    """Exact expectation under the circuit's noise tags (density matrix)."""
    _check_obs(c, obs)
    if c.n > DENSITY_GUARD:
        raise GuardExceeded(f"density matrix refused for n={c.n} > {DENSITY_GUARD}")
    return obs.expectation_density(_evolve_noisy_density(c))


def _std_enum_size(c: Circuit) -> int:
    """Product of noisy-layer support sizes (the std-mode feasibility guard)."""
    size = 1
    for op, tag in zip(c.ops, c.noise_tags):
        if tag is not None and not tag.is_noiseless():
            size *= op.arity
    return size


def exact_mitigated_expectation(c: Circuit, obs: Observable, mode: str) -> float:
    """Full quasi-probability-weighted sum of noisy expectations.

    In std mode every noise layer is inverted in place, which is exact for
    any gate set, so the result equals the ideal expectation up to roundoff.
    blk/hybrid modes correct with one aggregated Z-string layer per block,
    which is an exact inverse precisely when every gate in the block maps
    Z-strings to Z-strings under conjugation (the bias-preserving kinds).
    For the pass-through kinds XCZ and RBS the aggregated layer keeps the
    sampling-cost accounting but is not an exact channel inverse, so the
    value can remain at the uncorrected noisy expectation — in particular
    for observables that commute with every Z-string.

    Evaluated by applying each slot's signed distribution as a Z-mixture
    inside one density evolution — an exact distributive refactoring of the
    tuple-by-tuple sum.
    """
    _check_obs(c, obs)
    if mode not in ("std", "blk", "hybrid"):
        raise InvalidArgument(f"unknown mode {mode!r}")
    if c.n > DENSITY_GUARD:
        raise GuardExceeded(f"density matrix refused for n={c.n} > {DENSITY_GUARD}")
    if mode == "std":
        if _std_enum_size(c) > _ENUM_GUARD:
            raise GuardExceeded("standard-mode control enumeration too large")
        rho = _zero_density(c.n)
        for op, tag in zip(c.ops, c.noise_tags):
            rho = apply_unitary_density(rho, unitary_of(op), op.qubits, c.n)
            rho = _apply_op_noise_density(rho, op, tag, c.n)
            if tag is not None and not tag.is_noiseless():
                rho = apply_z_mixture_density(rho, layer_distribution(op, tag), c.n)
        return obs.expectation_density(rho)
    if mode == "blk":
        coeffs = block_coefficients(c)
        rho = _evolve_noisy_density(c)
        return obs.expectation_density(apply_block_mixture_density(rho, coeffs))
    plan = hybrid_plan(c)
    rho = _zero_density(c.n)
    for seg in plan.segments:
        for i in range(seg.start, seg.stop):
            op, tag = c.ops[i], c.noise_tags[i]
            rho = apply_unitary_density(rho, unitary_of(op), op.qubits, c.n)
            rho = _apply_op_noise_density(rho, op, tag, c.n)
        if isinstance(seg.coeffs, BlockCoefficients):
            rho = apply_block_mixture_density(rho, seg.coeffs)
        else:
            rho = apply_z_mixture_density(rho, seg.coeffs, c.n)
    return obs.expectation_density(rho)


@dataclass(frozen=True)
class EstimatorReport:
    mean: float
    sample_variance: float
    n_samples: int
    gamma_used: float
    mode: str
    seed: int

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "sample_variance": self.sample_variance,
            "n_samples": self.n_samples,
            "gamma_used": self.gamma_used,
            "mode": self.mode,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


@dataclass(frozen=True)
class _Slot:
    """One sampling slot: a signed distribution whose drawn string is applied
    after op ``after_op``."""

    after_op: int
    gmasks: np.ndarray
    probs: np.ndarray
    cum: np.ndarray
    signs: np.ndarray
    gamma: float


def _make_slot(after_op: int, gmasks: np.ndarray, coeffs: np.ndarray) -> _Slot | None:
    keep = coeffs != 0.0
    gmasks, coeffs = gmasks[keep], coeffs[keep]
    gamma = float(np.abs(coeffs).sum())
    if len(coeffs) == 1 and gmasks[0] == 0 and coeffs[0] > 0:
        return None  # identity slot: nothing to draw
    probs = np.abs(coeffs) / gamma
    return _Slot(
        after_op=after_op,
        gmasks=gmasks,
        probs=probs,
        cum=np.cumsum(probs),
        signs=np.sign(coeffs),
        gamma=gamma,
    )


def _build_slots(c: Circuit, mode: str) -> tuple[list[_Slot], float]:
    slots: list[_Slot] = []
    gamma_total = 1.0
    if mode == "std":
        for i, (op, tag) in enumerate(zip(c.ops, c.noise_tags)):
            dist = layer_distribution(op, tag)
            slot = _make_slot(i, _global_masks(dist), dist.coeffs)
            if slot is not None:
                slots.append(slot)
                gamma_total *= slot.gamma
    elif mode == "blk":
        b = block_coefficients(c)
        slot = _make_slot(
            len(c.ops) - 1, np.arange(1 << c.n, dtype=np.int64), b.coeffs
        )
        if slot is not None:
            slots.append(slot)
            gamma_total *= slot.gamma
    elif mode == "hybrid":
        for seg in hybrid_plan(c).segments:
            if isinstance(seg.coeffs, BlockCoefficients):
                gmasks = np.arange(1 << c.n, dtype=np.int64)
                coeffs = seg.coeffs.coeffs
            else:
                gmasks = _global_masks(seg.coeffs)
                coeffs = seg.coeffs.coeffs
            slot = _make_slot(seg.stop - 1, gmasks, coeffs)
            if slot is not None:
                slots.append(slot)
                gamma_total *= slot.gamma
    else:
        raise InvalidArgument(f"unknown mode {mode!r}")
    return slots, gamma_total


_SEED_SALT = 0x5EC0_11EC


def _estimator_rng(seed: int) -> np.random.Generator:
    key = np.array([seed & (2**64 - 1), _SEED_SALT], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# Byte budgets of the estimator's per-call tables and of the prefix states its
# walk holds; past them, tables are rebuilt on use and states re-evolved.
_TABLE_BYTES = 1 << 26
_STATE_BYTES = 1 << 26


class _CallTables:
    """Memo for one estimator call. It stops storing once its entries fill
    ``budget`` bytes; a miss past that is rebuilt on every use."""

    def __init__(self, budget: int):
        self.budget = budget
        self.entries: dict = {}

    def get(self, key, build):
        value = self.entries.get(key)
        if value is None:
            value = build()
            if value.nbytes <= self.budget:
                self.entries[key] = value
                self.budget -= value.nbytes
        return value


def _unique_rows(comb: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Distinct rows of ``comb`` restricted to its nonzero columns, in byte
    order (rows sharing a prefix of columns are adjacent), the row index of
    every sample, and the kept op columns."""
    cols = np.flatnonzero(comb.any(axis=0)).tolist()
    keys = comb[:, cols].astype(np.uint8 if n <= 8 else np.uint16, order="C")
    if not cols:
        return keys[:1], np.zeros(len(keys), dtype=np.intp), cols
    rows = keys.view(np.dtype((np.void, keys.itemsize * len(cols)))).ravel()
    uniq, inverse = np.unique(rows, return_inverse=True)
    return uniq.view(keys.dtype).reshape(len(uniq), len(cols)), inverse, cols


def _trajectory_outcomes(
    c: Circuit, obs: Observable, comb: np.ndarray, use_density: bool
) -> np.ndarray:
    """Outcome of every sample row of ``comb``, whose entry (s, i) is a
    Z-string mask applied right after op i (after its noise channel on the
    density path; the statevector path has no channels, its rows already
    carry the drawn noise strings).

    The distinct rows are walked in byte order. Row r restarts from the state
    stored at its first column that differs from row r-1, so shared prefixes
    are evolved once. A state is stored only at depths where a later row
    branches off: the chain of running minima of the later rows' common-prefix
    lengths. Each op's step is the same kernel call on the same operands as a
    from-scratch evolution, so every outcome is bitwise the same.
    """
    n = c.n
    uniq, inverse, cols = _unique_rows(comb, n)
    tables = _CallTables(_TABLE_BYTES)

    def evolve(state, start, stop):
        for i in range(start, stop):
            op, tag = c.ops[i], c.noise_tags[i]
            angle = None if op.angle is None else op.angle.hex()  # keeps -0.0 apart
            u = tables.get((op.kind, angle), lambda: unitary_of(op))
            if not use_density:
                state = apply_unitary_state(state, u, op.qubits, n)
                continue
            state = apply_unitary_density(state, u, op.qubits, n)
            if tag is None or tag.is_noiseless():
                continue
            if tag.kind == "impure":
                state = _apply_op_noise_density(state, op, tag, n)
                continue
            support = tuple(sorted(op.qubits))
            state = state * tables.get(
                (tag, support), lambda: _coherence_factors(make_dephasing(tag, support), n)
            )
        return state

    if use_density:
        initial, expect, sign_table = _zero_density(n), obs.expectation_density, _z_sign_matrix
    else:
        initial = np.zeros(1 << n, dtype=complex)
        initial[0] = 1.0
        expect, sign_table = obs.expectation_state, z_sign_vector
    depth = len(cols)
    # Ops [bounds[d], bounds[d+1]) lead to depth d: the state right before
    # column d's mask. The last span runs to the end of the circuit.
    bounds = [0] + [i + 1 for i in cols] + [len(c.ops)]
    rows = uniq.tolist()
    lcp = [0]
    if len(rows) > 1:
        lcp += np.argmax(uniq[1:] != uniq[:-1], axis=1).tolist()
    # nxt[j]: the first later row with a shorter common prefix than row j.
    nxt = [len(rows)] * len(rows)
    pending: list[int] = []
    for j in range(len(rows) - 1, 0, -1):
        while pending and lcp[pending[-1]] >= lcp[j]:
            pending.pop()
        if pending:
            nxt[j] = pending[-1]
        pending.append(j)

    stack = [(0, evolve(initial, 0, bounds[1]) if depth else initial)]
    held = 0
    out = np.empty(len(rows))
    for r, row in enumerate(rows):
        while stack[-1][0] > lcp[r]:
            held -= stack.pop()[1].nbytes
        top, state = stack[-1]
        keep = []  # depths below which later rows branch, deepest first
        j = r + 1
        while j < len(rows) and lcp[j] > top:
            keep.append(lcp[j])
            j = nxt[j]
        for d in range(top, depth):
            if d > top:
                state = evolve(state, bounds[d], bounds[d + 1])
                if keep and keep[-1] == d:
                    keep.pop()
                    if held + state.nbytes <= _STATE_BYTES:
                        stack.append((d, state))
                        held += state.nbytes
            if row[d]:
                state = state * tables.get(("signs", row[d]), lambda: sign_table(row[d], n))
        out[r] = expect(evolve(state, bounds[depth], bounds[depth + 1]))
    return out[inverse]


def pec_estimate(
    c: Circuit,
    obs: Observable,
    mode: str,
    n_samples: int,
    seed: int,
    shots: int | None = None,
) -> EstimatorReport:
    """Monte Carlo mitigated estimator.

    Per sample: draw one string per slot with probability |coeff|/gamma,
    record the product of signs, evolve the noisy circuit with the drawn
    strings inserted, and average gamma * sign * outcome. The default outcome
    is the exact expectation of the sampled circuit (isolating mitigation
    variance from shot noise); ``shots=k`` draws k +/-1 outcomes instead.

    One Philox stream per seed, consumed in a fixed order (slot uniforms,
    then forward-noise uniforms on the statevector path, then shot draws),
    so fixed (inputs, seed) give bitwise-identical reports.

    Trajectories are evaluated once per distinct row of inserted strings.
    Dedup keeps only the ops where some sample drew a string, packs each row
    into bytes (uint8 masks up to n = 8, uint16 above) and sorts the rows
    bytewise, so rows sharing a prefix of inserted strings sit together. The
    walk then restarts each row from the state stored where it first differs
    from the row before, keeping states only at depths where a later row
    branches off (at most 64 MiB of them; deeper restarts re-evolve). Unitaries
    per (kind, angle), coherence factors per (noise tag, support) and sign
    tables per drawn string are built once per call and dropped on return.
    Every op is applied by the same kernel call on the same operands as a
    from-scratch evolution, so reports do not depend on the walk.
    """
    _check_obs(c, obs)
    if not isinstance(n_samples, (int, np.integer)) or n_samples < 1:
        raise InvalidSamples(f"n_samples must be a positive integer, got {n_samples}")
    if shots is not None and shots < 1:
        raise InvalidSamples(f"shots must be a positive integer, got {shots}")
    if c.n > STATEVECTOR_GUARD:
        raise GuardExceeded(f"estimator refused for n={c.n} > {STATEVECTOR_GUARD}")
    slots, gamma_total = _build_slots(c, mode)
    use_density = c.n <= DENSITY_GUARD
    rng = _estimator_rng(seed)

    # Per-op combined Z-string masks, one row per sample.
    comb = np.zeros((n_samples, len(c.ops)), dtype=np.int64)
    signs = np.ones(n_samples)
    if slots:
        u = rng.random((n_samples, len(slots)))
        for j, slot in enumerate(slots):
            idx = np.minimum(
                np.searchsorted(slot.cum, u[:, j], side="right"),
                len(slot.gmasks) - 1,
            )
            comb[:, slot.after_op] ^= slot.gmasks[idx]
            signs *= slot.signs[idx]

    if not use_density:
        # Statevector path: noise enters as sampled forward Z-strings.
        for i, (op, tag) in enumerate(zip(c.ops, c.noise_tags)):
            if tag is None or tag.is_noiseless():
                continue
            if tag.kind == "impure":
                raise InvalidArgument(
                    "impure noise is density-only; statevector path unsupported"
                )
            mix = make_dephasing(tag, tuple(sorted(op.qubits)))
            gmasks = _global_masks(mix)
            cum = np.cumsum(mix.coeffs)
            draw = np.minimum(
                np.searchsorted(cum, rng.random(n_samples), side="right"),
                len(gmasks) - 1,
            )
            comb[:, i] ^= gmasks[draw]
    outcomes = _trajectory_outcomes(c, obs, comb, use_density)

    if shots is not None:
        p_plus = np.clip((1.0 + outcomes) / 2.0, 0.0, 1.0)
        heads = rng.binomial(shots, p_plus)
        outcomes = 2.0 * heads / shots - 1.0
    values = gamma_total * signs * outcomes
    if np.all(values == values[0]):
        # Point-mass sample (e.g. p = 0): averaging identical floats can
        # perturb the last bit, so report the exact value directly.
        mean, variance = float(values[0]), 0.0
    else:
        mean = float(np.mean(values))
        variance = float(np.var(values, ddof=1)) if n_samples > 1 else 0.0
    return EstimatorReport(
        mean=mean,
        sample_variance=variance,
        n_samples=int(n_samples),
        gamma_used=gamma_total,
        mode=mode,
        seed=int(seed),
    )


def required_samples(gamma: float, delta: float, epsilon: float) -> int:
    """Hoeffding budget: smallest S with failure probability <= epsilon at
    precision delta, S = ceil(gamma^2 / (2 delta^2) * ln(2/epsilon))."""
    if gamma < 1.0:
        raise InvalidArgument(f"gamma must be >= 1, got {gamma}")
    if delta <= 0.0:
        raise InvalidArgument(f"delta must be > 0, got {delta}")
    if not 0.0 < epsilon <= 2.0:
        raise InvalidArgument(f"epsilon must lie in (0, 2], got {epsilon}")
    return int(math.ceil(gamma * gamma / (2.0 * delta * delta) * math.log(2.0 / epsilon)))
