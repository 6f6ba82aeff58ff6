"""Exact simulation and Monte Carlo estimation of mitigated expectations.

Statevector simulation covers ideal circuits up to n = 14; exact noisy
evolution uses a dense density matrix up to n = 10. Each call compiles its
circuit once into the steps of ``kernels``: one step per distinct gate,
noise channel and correction, no 2^n x 2^n tables.
Results are bitwise those of plain tensordot contractions and full
coherence-factor tables. The Monte Carlo estimator draws correction strings
per sample from a single keyed counter-based stream, so results are bitwise
reproducible per seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .blocks import MitigationPlan, _check_mode, mitigation_plan
from .circuits import Circuit
from .errors import (
    GuardExceeded,
    InvalidArgument,
    InvalidSamples,
)
from .gates import integer, is_integer, is_real, natural, unitary_of, z_sign_vector
from .kernels import (
    gather,
    mixture_step,
    noise_step,
    run,
    sign_step,
    unitary_step,
)
from .noise import ZMixtureChannel, make_dephasing
from .pauli import PauliZString

STATEVECTOR_GUARD = 14
DENSITY_GUARD = 10


def _copy_in(state, n, density: bool, qubits=(), u: np.ndarray | None = None) -> np.ndarray:
    """``state`` copied in the result's dtype for a step to overwrite, once
    ``n``, the shape of one 2^n state, distinct ``qubits`` in [0, n) and a
    2^k x 2^k ``u`` on k >= 1 of them are checked (InvalidArgument)."""
    n = natural(n, "qubit count")
    state = np.asarray(state)
    if state.shape != (1 << n,) * (1 + density):
        raise InvalidArgument(f"state of shape {state.shape} on {n} qubit(s)")
    qubits = tuple(qubits)
    if len(set(qubits)) != len(qubits) or not all(is_integer(q) and 0 <= q < n for q in qubits):
        raise InvalidArgument(f"need distinct qubits in [0, {n}), got {qubits}")
    if u is not None and (not qubits or u.shape != (1 << len(qubits),) * 2):
        raise InvalidArgument(f"a gate on qubits {qubits} needs a 2^k x 2^k matrix, got {u.shape}")
    return np.array(state, dtype=np.result_type(state, float if u is None else u))


def apply_unitary_state(psi: np.ndarray, u: np.ndarray, qubits, n: int) -> np.ndarray:
    u = np.asarray(u)
    psi = _copy_in(psi, n, False, qubits, u)
    return run(psi, unitary_step(u, qubits, n, density=False))


def apply_unitary_density(rho: np.ndarray, u: np.ndarray, qubits, n: int) -> np.ndarray:
    u = np.asarray(u)
    rho = _copy_in(rho, n, True, qubits, u)
    return run(rho, unitary_step(u, qubits, n, density=True))


def apply_z_mixture_density(rho: np.ndarray, mix: ZMixtureChannel, n: int) -> np.ndarray:
    """Apply a (possibly signed) Z-mixture: multiply each coherence by the
    mixture's Walsh-Hadamard eigenvalue at that XOR pattern."""
    if not isinstance(mix, ZMixtureChannel):
        raise InvalidArgument(f"need a ZMixtureChannel, got {mix!r}")
    rho = _copy_in(rho, n, True, mix.support)
    return run(rho, mixture_step(mix.support, mix.eigenvalues(), n))


# Byte budgets of the per-call compiled steps and of the prefix states the
# estimator's walk holds; past them, steps are rebuilt on use and states
# re-evolved.
_TABLE_BYTES = 1 << 26
_STATE_BYTES = 1 << 26


def _nbytes(args) -> int:
    """Bytes of the arrays in a step's arguments, nested tuples included."""
    if isinstance(args, np.ndarray):
        return args.nbytes
    return sum(map(_nbytes, args)) if isinstance(args, tuple) else 0


class _Program:
    """A circuit compiled into steps for one call, with a mitigation plan's
    corrections after the ops they follow. Each distinct gate (kind, angle,
    qubits), noise channel and correction (support, coefficients) is
    compiled once and kept while the steps' arrays fit ``_TABLE_BYTES``;
    past that a step is rebuilt on every use. An op whose steps are all kept
    is also looked up by its index, so the walk's many short re-evolutions
    skip rebuilding its keys. Nothing outlives the call."""

    def __init__(self, c: Circuit, density: bool, plan: MitigationPlan | None = None):
        self.c = c
        self.density = density
        self.budget = _TABLE_BYTES
        self.steps: dict = {}
        self.per_op: dict = {}
        # Identity corrections multiply by exactly 1.0, so they are left out.
        self.corrections = {
            seg.stop - 1: seg for seg in (plan.segments if plan else ()) if not seg.coeffs.is_identity()
        }

    def step(self, key, build):
        step = self.steps.get(key)
        if step is None:
            step = build()
            size = _nbytes(step[1])
            if size <= self.budget:
                self.steps[key] = step
                self.budget -= size
        return step

    def op_steps(self, i: int) -> tuple:
        """Op i's unitary step and, on the density path, its noise channel's
        and the correction that follows it."""
        steps = self.per_op.get(i)
        if steps is None:
            op, tag = self.c.ops[i], self.c.noise_tags[i]
            fix = self.corrections.get(i)
            n = self.c.n
            angle = None if op.angle is None else op.angle.hex()  # keeps -0.0 apart
            gate = (op.kind, angle, op.qubits)
            builds = [(gate, lambda: unitary_step(unitary_of(op), op.qubits, n, self.density))]
            if self.density and tag is not None and not tag.is_noiseless():
                builds.append(((tag, op.qubits), lambda: noise_step(tag, op.qubits, n)))
            if fix is not None:
                # The plan's eigenvalues: a block's are exact to relative precision.
                support, lam = fix.coeffs.support, fix.eigenvalues
                builds.append(((support, lam.tobytes()), lambda: mixture_step(support, lam, n)))
            steps = tuple(self.step(key, build) for key, build in builds)
            if all(key in self.steps for key, _ in builds):
                self.per_op[i] = steps
        return steps

    def evolve(self, state: np.ndarray, start: int, stop: int) -> np.ndarray:
        """Ops [start, stop) on ``state``, which the steps may overwrite:
        each op's unitary, then on the density path its noise channel and
        correction."""
        for i in range(start, stop):
            for step in self.op_steps(i):
                state = run(state, step)
        return state


def _check_index(name: str, value, size: int) -> None:
    if not is_integer(value) or not 0 <= value < size:
        raise InvalidArgument(f"{name} must be an integer in [0, {size}), got {value!r}")


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
        _check_index("qubit", qubit, n)
        return cls.z_string(PauliZString.single(n, qubit))

    @classmethod
    def projector(cls, n: int, basis_states) -> "Observable":
        n = natural(n, "qubit count")
        states = list(basis_states)
        for b in states:
            _check_index("basis state", b, 1 << n)
        mask = np.zeros(1 << n, dtype=bool)
        mask[states] = True
        return cls("diagonal_projector", n, mask)

    @classmethod
    def qubit_one_projector(cls, n: int, qubit: int) -> "Observable":
        """Projector onto basis states where ``qubit`` reads 1."""
        n = natural(n, "qubit count")
        _check_index("qubit", qubit, n)
        idx = np.arange(1 << n)
        return cls("diagonal_projector", n, ((idx >> (n - 1 - qubit)) & 1).astype(bool))

    @classmethod
    def dense(cls, matrix) -> "Observable":
        try:
            m = np.asarray(matrix, dtype=complex)
        except (TypeError, ValueError) as exc:
            raise InvalidArgument(f"dense observable entries must be numbers: {exc}") from None
        dim = m.shape[0] if m.ndim == 2 else 0
        if m.shape != (dim, dim) or dim < 1 or dim & (dim - 1):
            raise InvalidArgument(f"dense observable needs a 2^n square matrix, got {m.shape}")
        n = dim.bit_length() - 1
        if not np.isfinite(m).all():
            raise InvalidArgument("dense observable entries must be finite")
        if np.abs(m - m.conj().T).max() > 1e-10:
            raise InvalidArgument("dense observable must be Hermitian")
        norm = float(np.abs(np.linalg.eigvalsh(m)).max())
        if norm > 1.0 + 1e-12:
            m = m / norm
        return cls("dense_hermitian", n, m)

    @cached_property
    def _z_signs(self) -> np.ndarray:
        """The Z-string's sign vector over the basis states, built once."""
        return z_sign_vector(self.payload.mask, self.n)

    def expectation_state(self, psi: np.ndarray) -> float:
        if self.kind == "pauli_z_string":
            return float((np.abs(psi) ** 2 @ self._z_signs))
        if self.kind == "diagonal_projector":
            return float((np.abs(psi) ** 2)[self.payload].sum())
        return float(np.vdot(psi, self.payload @ psi).real)

    def expectation_density(self, rho: np.ndarray) -> float:
        diag = np.diagonal(rho).real
        if self.kind == "pauli_z_string":
            return float(diag @ self._z_signs)
        if self.kind == "diagonal_projector":
            return float(diag[self.payload].sum())
        return float(np.trace(self.payload @ rho).real)


def _check_obs(c: Circuit, obs: Observable) -> None:
    if not isinstance(obs, Observable):
        raise InvalidArgument(f"need an Observable, got {obs!r}")
    if obs.n != c.n:
        raise InvalidArgument(f"observable on {obs.n} qubits, circuit on {c.n}")


def _zero_state(n: int, density: bool) -> np.ndarray:
    """|0...0>, as a 2^n statevector or a 2^n x 2^n density matrix."""
    state = np.zeros((1 << n, 1 << n) if density else 1 << n, dtype=complex)
    state.flat[0] = 1.0
    return state


def ideal_expectation(c: Circuit, obs: Observable) -> float:
    """Noiseless expectation from the all-zeros initial state (statevector)."""
    _check_obs(c, obs)
    if c.n > STATEVECTOR_GUARD:
        raise GuardExceeded(f"statevector refused for n={c.n} > {STATEVECTOR_GUARD}")
    psi = _Program(c, density=False).evolve(_zero_state(c.n, False), 0, len(c.ops))
    return obs.expectation_state(psi)


def _density_expectation(c: Circuit, obs: Observable, mode: str | None) -> float:
    """One density evolution of the noisy circuit, with the corrections of
    ``mitigation_plan(c, mode)`` inserted when a mode is given."""
    if c.n > DENSITY_GUARD:
        raise GuardExceeded(f"density matrix refused for n={c.n} > {DENSITY_GUARD}")
    plan = None if mode is None else mitigation_plan(c, mode)
    rho = _Program(c, True, plan).evolve(_zero_state(c.n, True), 0, len(c.ops))
    return obs.expectation_density(rho)


def noisy_expectation(c: Circuit, obs: Observable) -> float:
    """Exact expectation under the circuit's noise tags (density matrix)."""
    _check_obs(c, obs)
    return _density_expectation(c, obs, None)


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

    Evaluated as the noisy evolution of ``noisy_expectation`` with each
    segment of ``mitigation_plan(c, mode)`` applied as a signed Z-mixture
    after the segment's last op — an exact distributive refactoring of the
    tuple-by-tuple sum. Raises InvalidArgument for an unknown mode before
    GuardExceeded for n > 10.
    """
    _check_obs(c, obs)
    _check_mode(mode)
    return _density_expectation(c, obs, mode)


@dataclass(frozen=True)
class EstimatorReport:
    mean: float
    sample_variance: float
    n_samples: int
    gamma_used: float
    mode: str
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _draws(c: Circuit, mode: str, use_density: bool) -> tuple[list[tuple], float]:
    """What a sample draws, in op order, as (op, masks, cumulative weights,
    signs) with the drawn string applied after op ``op``: one slot per
    segment of the mode's plan that is not the identity, drawn with
    probability |coeff| / gamma; on the statevector path also each noisy op's
    forward channel, with signs None. At one op, the slot comes first. Also
    the product of the slots' gammas."""
    draws = []
    gamma_total = 1.0
    for seg in mitigation_plan(c, mode).segments:
        if seg.coeffs.is_identity():
            continue
        keep = seg.coeffs.coeffs != 0.0
        masks, coeffs = seg.coeffs.masks()[keep], seg.coeffs.coeffs[keep]
        gamma = float(np.abs(coeffs).sum())
        draws.append((seg.stop - 1, masks, np.cumsum(np.abs(coeffs) / gamma), np.sign(coeffs)))
        gamma_total *= gamma
    if not use_density:
        # Statevector path: noise enters as sampled forward Z-strings.
        for i, (op, tag) in enumerate(zip(c.ops, c.noise_tags)):
            if tag is not None and not tag.is_noiseless():
                mix = make_dephasing(tag, tuple(sorted(op.qubits)))
                draws.append((i, mix.masks(), np.cumsum(mix.coeffs), None))
        draws.sort(key=lambda d: d[0])  # stable: a slot stays before its op's forward draw
    return draws, gamma_total


_SEED_SALT = 0x5EC0_11EC


def _estimator_rng(seed: int) -> np.random.Generator:
    key = np.array([seed & (2**64 - 1), _SEED_SALT], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _unique_rows(columns: np.ndarray, widths) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of ``columns`` (k columns of S non-negative ints, column j
    below 2^widths[j]): one sample holding each distinct row, the rows in
    lexicographic order, and the row index of every sample.

    The columns are packed big-endian into int64 words of at most 63 bits
    (the first column in the high bits), so ordering the words orders the
    rows. One word of at most 4 S values is counted with ``bincount``;
    otherwise the words are sorted."""
    keys, bits = [], 64
    for col, width in zip(columns, widths):
        if bits + width > 63:
            keys.append(col.astype(np.int64))
            bits = 0
        else:
            keys[-1] <<= width
            keys[-1] |= col
        bits += width
    size = columns.shape[1]
    if not keys:
        return np.zeros(1, dtype=np.intp), np.zeros(size, dtype=np.intp)
    if len(keys) == 1 and 1 << bits <= 4 * size:
        present = np.bincount(keys[0]) > 0
        inverse = (np.cumsum(present) - 1)[keys[0]]
        first = np.empty(np.count_nonzero(present), dtype=np.intp)
        first[inverse] = np.arange(size)
        return first, inverse
    order = np.lexsort(keys[::-1]) if len(keys) > 1 else np.argsort(keys[0])
    new = np.zeros(size, dtype=bool)
    new[0] = True
    for key in keys:
        ranked = key[order]
        new[1:] |= ranked[1:] != ranked[:-1]
    inverse = np.empty(size, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


# Byte budget of a row group: the stacked density matrices that the walk
# evolves as one array. Statevector rows, and the rows of a one-qubit density
# matrix, are walked one at a time: their dense steps' products can have
# fewer than 4 columns, which zgemm rounds differently once stacked.
_GROUP_BYTES = 1 << 19


def _trajectory_outcomes(
    c: Circuit, obs: Observable, comb: np.ndarray, use_density: bool
) -> np.ndarray:
    """Outcome of every sample row of ``comb``, whose entry (s, i) is a
    Z-string mask applied right after op i (after its noise channel on the
    density path; the statevector path has no channels, its rows already
    carry the drawn noise strings).

    The distinct rows are walked in lexicographic order, in row groups:
    consecutive rows whose stacked density matrices fit ``_GROUP_BYTES``
    (single rows on the statevector path and at n = 1). A group restarts
    from the deepest stored state that it shares with the row before it,
    evolves its rows' shared prefix once, then evolves the rest level by
    level as one stacked array: one state per distinct prefix, a branch an
    index copy, the drawn strings one stacked multiply. States are stored
    only where a later group restarts: the chain of running minima of the
    later groups' restart depths, each at most that group's shared prefix.
    Every state meets the same compiled steps as in a from-scratch
    evolution, and every outcome is taken from its own row's state, so
    every outcome is bitwise the same.
    """
    n = c.n
    cols = np.flatnonzero(comb.any(axis=0)).tolist()
    first, inverse = _unique_rows(comb.T[cols], [n] * len(cols))
    uniq = comb[first][:, cols]
    program = _Program(c, use_density)
    evolve = program.evolve

    initial = _zero_state(n, use_density)
    expect = obs.expectation_density if use_density else obs.expectation_state

    def signs(mask: int):
        return program.step(("signs", mask), lambda: sign_step(mask, n, use_density))

    depth = len(cols)
    # The state at depth d has met ops [0, bounds[d + 1]) and the masks of
    # columns before d; depth ``depth`` is the end of the circuit.
    bounds = [0] + [i + 1 for i in cols] + [len(c.ops)]
    rows = uniq.tolist()
    lcp = np.zeros(len(rows), dtype=np.intp)
    if len(rows) > 1:
        lcp[1:] = np.argmax(uniq[1:] != uniq[:-1], axis=1)
    size = max(1, _GROUP_BYTES // initial.nbytes) if use_density and n > 1 else 1
    firsts = list(range(0, len(rows), size)) + [len(rows)]
    # shared[g]: the columns that group g's rows share; start[g]: where it
    # restarts, within both its shared prefix and the row before it.
    shared = [int(lcp[a + 1 : b].min()) if b - a > 1 else depth for a, b in zip(firsts, firsts[1:])]
    start = [0] + [min(int(lcp[a]), s) for a, s in zip(firsts[1:], shared[1:])]
    # nxt[g]: the first later group with a shallower restart than group g.
    nxt = [len(start)] * len(start)
    pending: list[int] = []
    for g in range(len(start) - 1, 0, -1):
        while pending and start[pending[-1]] >= start[g]:
            pending.pop()
        if pending:
            nxt[g] = pending[-1]
        pending.append(g)

    # States on the stack are shared by later groups, so each group evolves
    # a copy of the one it restarts from, and the stack keeps copies.
    stack = [(0, evolve(initial, 0, bounds[1]))]
    held = 0
    out = np.empty(len(rows))
    for g, (a, b) in enumerate(zip(firsts, firsts[1:])):
        while stack[-1][0] > start[g]:
            held -= stack.pop()[1].nbytes
        top, state = stack[-1]
        state = state.copy()
        keep = []  # depths where later groups restart, shallowest last
        j = g + 1
        while j < len(start) and start[j] > top:
            keep.append(start[j])
            j = nxt[j]
        for d in range(top, shared[g] + 1):
            if d > top:
                state = evolve(state, bounds[d], bounds[d + 1])
                if keep and keep[-1] == d:
                    keep.pop()
                    if held + state.nbytes <= _STATE_BYTES:
                        stack.append((d, state.copy()))
                        held += state.nbytes
            if d < shared[g] and rows[a][d]:
                state = run(state, signs(rows[a][d]))
        if b - a == 1:
            out[a] = expect(state)
            continue
        # States at depth d: one per distinct prefix of columns [0, d) in the
        # group, headed by the rows that open it (lcp < d).
        group, opens = uniq[a:b], lcp[a:b] < np.arange(depth + 1)[:, None]
        opens[:, 0] = True
        states = state[None]
        for d in range(shared[g], depth):
            heads = np.flatnonzero(opens[d + 1])
            if len(heads) > len(states):
                states = states[np.cumsum(opens[d])[heads] - 1]
            hit = np.flatnonzero(group[heads, d])
            if len(hit):
                drawn, which = np.unique(group[heads[hit], d], return_inverse=True)
                # Each drawn mask's compiled sign vector, one row per state.
                phases = np.stack([signs(m)[1][1] for m in drawn.tolist()])[which]
                step = (gather, (None, phases, use_density))
                if len(hit) == len(states):
                    states = run(states, step)
                else:
                    states[hit] = run(states[hit], step)
            states = evolve(states, bounds[d + 1], bounds[d + 2])
        for r, final in enumerate(states):
            out[a + r] = expect(final)
    return out[inverse]


def _sample_rows(
    c: Circuit, draws: list[tuple], n_samples: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct rows of per-op Z-string masks drawn for ``n_samples``
    samples, their sign products, and every sample's row. A sample is its
    index per draw of ``_draws``; the stream gives the slots' uniforms as one
    samples x slots block, then one vector per forward draw in op order."""
    slots = sum(sign is not None for *_, sign in draws)
    uniforms = iter(rng.random((n_samples, slots)).T)
    index = np.empty((len(draws), n_samples), dtype=np.intp)
    for row, (_, masks, cum, sign) in zip(index, draws):
        u = rng.random(n_samples) if sign is None else next(uniforms)
        np.minimum(np.searchsorted(cum, u, side="right"), len(masks) - 1, out=row)
    first, inverse = _unique_rows(index, [(len(d[1]) - 1).bit_length() for d in draws])
    rows = np.zeros((len(first), len(c.ops)), dtype=np.int64)
    signs = np.ones(len(first))
    for row, (op, masks, _, sign) in zip(index, draws):
        drawn = row[first]
        rows[:, op] ^= masks[drawn]
        if sign is not None:
            signs *= sign[drawn]
    return rows, signs, inverse


def _check_count(name: str, value) -> None:
    if not is_integer(value) or value < 1:
        raise InvalidSamples(f"{name} must be a positive integer, got {value!r}")


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

    Samples are drawn as indices (per slot and, on the statevector path, per
    noisy op's forward channel), packed as ceil(log2 L)-bit digits for L
    entries into int64 keys, first op highest, and deduped with a bincount
    (one key of at most 4x as many values as samples) or a sort; only the
    distinct keys are decoded into rows of strings and sign products. The
    walk dedups those rows the same way (n bits per op, only the ops where
    some row inserts a string), so rows sharing a prefix sit together. It takes
    the rows in groups whose stacked density matrices fit 512 KiB (single
    rows on the statevector path and at n = 1): a group restarts from the
    state stored where it first differs from the row before, evolves its
    shared prefix once and the rest as one stacked array, branching by index
    copies. States are kept only at depths where a later group restarts (at
    most 64 MiB of them; deeper restarts re-evolve). Steps per gate (kind,
    angle, qubits), noise channel and drawn string are compiled once per
    call and dropped on return. Every op is applied by the same step as in a
    from-scratch evolution, so reports do not depend on the walk. A mean or
    variance that overflows float64 raises GuardExceeded.
    """
    _check_obs(c, obs)
    _check_count("n_samples", n_samples)
    if shots is not None:
        _check_count("shots", shots)
    seed = integer(seed, "seed")
    if c.n > STATEVECTOR_GUARD:
        raise GuardExceeded(f"estimator refused for n={c.n} > {STATEVECTOR_GUARD}")
    use_density = c.n <= DENSITY_GUARD
    draws, gamma_total = _draws(c, mode, use_density)
    rng = _estimator_rng(seed)

    rows, row_signs, inverse = _sample_rows(c, draws, n_samples, rng)
    outcomes = _trajectory_outcomes(c, obs, rows, use_density)[inverse]
    signs = row_signs[inverse]

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
        with np.errstate(over="ignore", invalid="ignore"):
            mean = float(np.mean(values))
            variance = float(np.var(values, ddof=1)) if n_samples > 1 else 0.0
    if not (math.isfinite(mean) and math.isfinite(variance)):
        raise GuardExceeded(f"the estimate overflows float64 at gamma = {gamma_total:.3g}")
    return EstimatorReport(
        mean=mean,
        sample_variance=variance,
        n_samples=int(n_samples),
        gamma_used=gamma_total,
        mode=mode,
        seed=seed,
    )


def required_samples(gamma: float, delta: float, epsilon: float) -> int:
    """Hoeffding budget: smallest S with failure probability <= epsilon at
    precision delta, S = ceil(gamma^2 / (2 delta^2) * ln(2/epsilon)), or
    GuardExceeded when S is not a finite float64."""
    for name, value in (("gamma", gamma), ("delta", delta), ("epsilon", epsilon)):
        if not is_real(value):
            raise InvalidArgument(f"{name} must be a real number, got {value!r}")
    if not (math.isfinite(gamma) and gamma >= 1.0):
        raise InvalidArgument(f"gamma must be finite and >= 1, got {gamma}")
    if not (math.isfinite(delta) and delta > 0.0):
        raise InvalidArgument(f"delta must be finite and > 0, got {delta}")
    if not 0.0 < epsilon <= 2.0:
        raise InvalidArgument(f"epsilon must lie in (0, 2], got {epsilon}")
    denominator = 2.0 * delta * delta
    budget = gamma * gamma / denominator * math.log(2.0 / epsilon) if denominator else math.inf
    if not math.isfinite(budget):
        raise GuardExceeded(f"the Hoeffding budget is {budget}, not a finite float64")
    return int(math.ceil(budget))
