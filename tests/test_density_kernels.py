"""Differential tests: the compiled gather, broadcast and dense steps against
the reference kernels in oracles.py (tensordot for every gate, a 2^n x 2^n
coherence table for every Z-mixture), entry for entry, and the exact
evolutions built on them against the reference evolutions, bit for bit."""

from __future__ import annotations

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    PAULI_1Q,
    dense,
    reference_exact_mitigated,
    reference_ideal_state,
    reference_noisy_density,
    table_pauli1_density,
    table_z_mixture_density,
    tensordot_unitary_density,
    tensordot_unitary_state,
    z_sign_matrix,
)

from blockpec import kernels
from blockpec.blocks import block_coefficients
from blockpec.circuits import Circuit
from blockpec.errors import BlockPecError
from blockpec.gates import GATE_KINDS, GateOp, unitary_of
from blockpec.noise import (
    NoiseSpec,
    ZMixtureChannel,
    invert_z_mixture,
    make_dephasing,
    make_impure,
)
from blockpec.simulate import (
    Observable,
    apply_unitary_density,
    apply_unitary_state,
    apply_z_mixture_density,
    exact_mitigated_expectation,
    ideal_expectation,
    noisy_expectation,
)

ANGLES = (0.0, -0.0, 0.3, math.pi / 2, math.pi, -2.1, 2 * math.pi)


def _states(rng, n):
    """Random dense, basis-state and zero-heavy (with signed zeros) vectors."""
    dim = 1 << n
    dense = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    basis = np.zeros(dim, dtype=complex)
    basis[int(rng.integers(dim))] = 1.0
    sparse = dense * (rng.random(dim) < 0.3)
    sparse.real[rng.random(dim) < 0.3] = -0.0
    return dense, basis, sparse


def _densities(rng, n):
    dim = 1 << n
    dense = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    pure = np.outer(psi, psi.conj())
    basis = np.zeros((dim, dim), dtype=complex)
    basis[int(rng.integers(dim)), int(rng.integers(dim))] = 1.0
    sparse = dense * (rng.random((dim, dim)) < 0.2)
    sparse.imag[rng.random((dim, dim)) < 0.3] = -0.0
    return dense, pure, basis, sparse


def _ops(rng, n):
    for kind, (arity, takes_angle) in GATE_KINDS.items():
        if arity > n:
            continue
        for angle in ANGLES if takes_angle else (None,):
            qubits = tuple(int(q) for q in rng.permutation(n)[:arity])
            yield GateOp(kind, qubits, angle)


def _run(state, step):
    """The step's result on a copy of ``state``, which the step may
    overwrite."""
    return kernels.run(state.copy(), step)


@pytest.mark.parametrize("n", range(1, 7))
def test_gate_steps_equal_tensordot(n):
    rng = np.random.default_rng(100 + n)
    states, densities = _states(rng, n), _densities(rng, n)
    for op in _ops(rng, n):
        u = unitary_of(op)
        for psi in states:
            got = apply_unitary_state(psi, u, op.qubits, n)
            assert np.array_equal(got, tensordot_unitary_state(psi, u, op.qubits, n)), op
        for rho in densities:
            got = apply_unitary_density(rho, u, op.qubits, n)
            assert np.array_equal(got, tensordot_unitary_density(rho, u, op.qubits, n)), op


def test_monomial_gates_take_the_gather_step():
    for kind in ("X", "Z", "S", "CZ", "CNOT", "SWAP", "TOFFOLI"):
        op = GateOp(kind, tuple(range(GATE_KINDS[kind][0])))
        assert kernels.unitary_step(unitary_of(op), op.qubits, 3, True)[0] is kernels.gather
    for kind in ("H", "T", "RZ", "RY", "RZZ", "XCZ", "RBS", "CRY"):
        arity, takes_angle = GATE_KINDS[kind]
        op = GateOp(kind, tuple(range(arity)), 0.7 if takes_angle else None)
        assert kernels.unitary_step(unitary_of(op), op.qubits, 3, True)[0] is kernels.dense
    for label, pauli in PAULI_1Q.items():
        assert kernels.unitary_step(pauli, (0,), 1, True)[0] is kernels.gather, label
    for mask in range(8):
        kernel, (src, phase, density) = kernels.sign_step(mask, 3, True)
        assert kernel is kernels.gather and src is None and phase.shape == (8,) and density, mask


DENSE_OPS = (
    GateOp("H", (0,)),
    GateOp("T", (0,)),
    GateOp("RZ", (0,), 0.3),
    GateOp("RY", (0,), -2.1),
    GateOp("RZZ", (0, 1), 0.7),
    GateOp("RBS", (0, 1), 0.4),
    GateOp("XCZ", (0, 1), 1.1),
    GateOp("CRY", (0, 1), 0.9),
)

# Batched products from c = 4 on at every size, or the transposed-copy route
# at every c, both reusing the state's buffer at every size; "measured"
# keeps the kernel's own crossovers.
ROUTES = {
    "measured": {"_BATCH_RUN": kernels._BATCH_RUN},
    "batched": {"_BATCH_RUN": 4, "_BATCH_SIZE": 0, "_REUSE_SIZE": 0},
    "copy": {"_BATCH_RUN": 1 << 30, "_REUSE_SIZE": 0},
}


@pytest.mark.parametrize(
    "n, route", [(n, r) for n in range(1, 9) for r in ROUTES] + [(9, "measured"), (10, "measured")]
)
def test_dense_steps_equal_tensordot_at_every_position(n, route):
    """Every dense kind on every run of adjacent ascending qubits (so every
    trailing extent c = 2^(n-q0-k)) for n <= 8, and on the first, the
    second-to-last and the last qubits at n = 9 and 10, equals np.tensordot
    bit for bit on statevectors and densities. The equality rests on zgemm
    rounding each entry alike in one large product and in a batch of
    (2^k, c >= 4) products; it was established with numpy 2.4.6 on OpenBLAS
    0.3.31 (scipy-openblas64, DYNAMIC_ARCH, Haswell kernels)."""
    rng = np.random.default_rng(200 + n)
    dim = 1 << n
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    densities = _densities(rng, n)
    densities = (densities[0], densities[3]) if n <= 8 else densities[:1]
    with mock.patch.multiple(kernels, **ROUTES[route]):
        for op in DENSE_OPS:
            k = len(op.qubits)
            u = unitary_of(op)
            starts = range(n - k + 1) if n <= 8 else sorted({0, n - k - 1, n - k} - {-1})
            for q0 in starts:
                qubits = tuple(range(q0, q0 + k))
                step = kernels.unitary_step(u, qubits, n, True)
                assert step[0] is kernels.dense, op
                want = tensordot_unitary_state(psi, u, qubits, n)
                got = _run(psi, kernels.unitary_step(u, qubits, n, False))
                assert np.array_equal(got, want), (op, q0)
                for rho in densities:
                    want = tensordot_unitary_density(rho, u, qubits, n)
                    assert np.array_equal(_run(rho, step), want), (op, q0)


PERMUTATIONS = {
    "X": PAULI_1Q["X"],
    "Y": PAULI_1Q["Y"],  # a permutation with phases
    "CNOT": unitary_of(GateOp("CNOT", (0, 1))),
    "SWAP": unitary_of(GateOp("SWAP", (0, 1))),
    "TOFFOLI": unitary_of(GateOp("TOFFOLI", (0, 1, 2))),
}

# Slice blocks at every position and size, or the index at every one.
GATHER_ROUTES = {
    "slices": ({"_SLICE_RUN": 1, "_SLICE_BLOCK": 0}, tuple),
    "indexed": ({"_SLICE_RUN": 1 << 30}, np.ndarray),
}


def _positions(n, k):
    """Every ordered qubit tuple for n <= 8; past that the first, middle and
    last runs of adjacent qubits, ascending and descending."""
    if n <= 8:
        return list(itertools.permutations(range(n), k))
    runs = [tuple(range(q0, q0 + k)) for q0 in (0, (n - k) // 2, n - k)]
    return runs + [run[::-1] for run in runs if k > 1]


@pytest.mark.parametrize("n", range(1, 11))
def test_permutation_gathers_equal_tensordot_on_both_routes(n):
    """Every permutation kind, on every qubit tuple that _positions gives,
    moved by slice blocks and by the 2-D index, equals np.tensordot bit for
    bit (signed zeros compare equal)."""
    rng = np.random.default_rng(400 + n)
    densities = _densities(rng, n)
    densities = (densities[0], densities[3]) if n <= 8 else densities[:1]
    for kind, u in PERMUTATIONS.items():
        k = len(u).bit_length() - 1
        for qubits in _positions(n, k) if k <= n else ():
            wants = [tensordot_unitary_density(rho, u, qubits, n) for rho in densities]
            for route, (constants, src_type) in GATHER_ROUTES.items():
                with mock.patch.multiple(kernels, **constants):
                    step = kernels.unitary_step(u, qubits, n, True)
                assert step[0] is kernels.gather and isinstance(step[1][0], src_type), (kind, route)
                for rho, want in zip(densities, wants):
                    assert np.array_equal(_run(rho, step), want), (kind, qubits, route)


def test_slice_route_follows_the_measured_crossover():
    """Blocks where runs after the gate's last qubit reach _SLICE_RUN entries
    and blocks hold _SLICE_BLOCK; the index elsewhere and on statevectors."""
    cnot = PERMUTATIONS["CNOT"]
    assert isinstance(kernels.unitary_step(cnot, (5, 6), 10, True)[1][0], tuple)  # runs of 8
    assert isinstance(kernels.unitary_step(cnot, (6, 7), 10, True)[1][0], np.ndarray)  # runs of 4
    assert isinstance(kernels.unitary_step(cnot, (0, 1), 7, True)[1][0], tuple)  # 1024-entry blocks
    assert isinstance(kernels.unitary_step(cnot, (0, 1), 6, True)[1][0], np.ndarray)  # 256-entry blocks
    assert isinstance(kernels.unitary_step(cnot, (0, 1), 12, False)[1][0], np.ndarray)


@pytest.mark.parametrize("n", range(1, 7))
def test_identity_permutation_gathers_skip_the_index(n):
    """Z, S, CZ, RZ(+-0) and I permute nothing: their steps carry no source
    index, and the phase multiplies alone equal tensordot."""
    rng = np.random.default_rng(300 + n)
    ops = [GateOp("Z", (n - 1,)), GateOp("S", (0,)), GateOp("RZ", (0,), 0.0), GateOp("RZ", (0,), -0.0)]
    ops += [GateOp("CZ", (n - 1, 0))] if n > 1 else []
    cases = [(unitary_of(op), op.qubits) for op in ops] + [(PAULI_1Q["I"], (n // 2,))]
    states, densities = _states(rng, n), _densities(rng, n)
    for u, qubits in cases:
        kernel, args = kernels.unitary_step(u, qubits, n, True)
        assert kernel is kernels.gather and args[0] is None, qubits
        for psi in states:
            got = apply_unitary_state(psi, u, qubits, n)
            assert got is not psi and np.array_equal(got, tensordot_unitary_state(psi, u, qubits, n))
            assert np.array_equal(_run(psi, kernels.unitary_step(u, qubits, n, False)), got)
        for rho in densities:
            got = apply_unitary_density(rho, u, qubits, n)
            assert got is not rho and np.array_equal(got, tensordot_unitary_density(rho, u, qubits, n))
            assert np.array_equal(_run(rho, (kernel, args)), got)


def test_real_inputs_keep_the_tensordot_dtype():
    rho = np.arange(16.0).reshape(4, 4)
    for u in (np.array([[0.0, 1.0], [1.0, 0.0]]), unitary_of(GateOp("S", (1,)))):
        got = apply_unitary_density(rho, u, (1,), 2)
        want = tensordot_unitary_density(rho, u, (1,), 2)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _support_mixtures(n):
    """Uncorrelated/correlated channels and their (signed) inverses on every
    ordered support subset, and mixtures that never flip one support qubit."""
    for r in range(1, n + 1):
        for support in itertools.permutations(range(n), r):
            for spec in (NoiseSpec("uncorrelated", 0.07), NoiseSpec("correlated", 0.11)):
                mix = make_dephasing(spec, support)
                yield mix
                yield invert_z_mixture(mix)
            skip = np.array(make_dephasing(NoiseSpec("uncorrelated", 0.2), support).coeffs)
            skip[np.arange(1 << r) & 1 == 1] = 0.0  # support[0] never flips
            yield ZMixtureChannel(support, skip)


def _block_mixtures(n, rng):
    """Block coefficients of random compatible circuits whose noise sits on
    a subset of the qubits, or on all of them: the engine's mixture on the
    qubits the noise reaches, and the same coefficients on all n qubits."""
    kinds = ("X", "Z", "S", "CZ", "CNOT", "SWAP", "RZ", "RZZ")
    for noisy in (1, n):
        ops, tags = [], []
        for _ in range(6):
            kind = kinds[int(rng.integers(len(kinds)))]
            arity, takes_angle = GATE_KINDS[kind]
            if arity > n:
                continue
            qubits = tuple(int(q) for q in rng.permutation(n)[:arity])
            ops.append(GateOp(kind, qubits, float(rng.uniform(0, 6)) if takes_angle else None))
            flagged = max(qubits) < noisy
            tags.append(NoiseSpec("uncorrelated", 0.05) if flagged else None)
        if ops:
            mix = block_coefficients(Circuit(n, tuple(ops), tuple(tags)))
            yield mix
            yield ZMixtureChannel(tuple(range(n)), dense(mix, n))


@pytest.mark.parametrize("slack", [None, 0])
@pytest.mark.parametrize("n", range(1, 6))
def test_broadcast_factor_is_bytewise_the_coherence_table(n, slack):
    # Slack 0 loops over the rows of every support qubit past n/2, so small
    # n reaches the looped branch too.
    slack = kernels._FACTOR_SLACK if slack is None else slack
    rng = np.random.default_rng(n)
    ones = np.ones((1 << n, 1 << n))
    with mock.patch.object(kernels, "_FACTOR_SLACK", slack):
        for mix in itertools.chain(_support_mixtures(n), _block_mixtures(n, rng)):
            got = apply_z_mixture_density(ones, mix, n)
            assert got.tobytes() == table_z_mixture_density(ones, mix, n).tobytes(), mix.support
            step = kernels.mixture_step(mix.support, mix.eigenvalues(), n)
            assert _run(ones, step).tobytes() == got.tobytes(), mix.support


@pytest.mark.parametrize("slack", [None, 0])
@pytest.mark.parametrize("n", (6, 7, 8))
def test_widened_factor_is_bytewise_the_coherence_table(n, slack):
    """A factor whose support reaches the last six qubits is materialized
    over their column axes; one that stays clear of them is not."""
    slack = kernels._FACTOR_SLACK if slack is None else slack
    supports = [(0,), (1, 0), (n - 7,), (n - 1,), (n - 2, n - 1), (0, n - 1), (n - 1, 2, 0)]
    supports += [tuple(range(n - 6, n)), tuple(range(n))]
    ones = np.ones((1 << n, 1 << n))
    with mock.patch.object(kernels, "_FACTOR_SLACK", slack):
        for support in supports:
            if min(support) < 0:
                continue
            mix = make_dephasing(NoiseSpec("correlated", 0.11), support)
            for m in (mix, invert_z_mixture(mix)):
                step = kernels.mixture_step(m.support, m.eigenvalues(), n)
                _, (factor, looped) = step
                widened = max(support) >= n - kernels._RUN_QUBITS
                assert (factor.shape[-kernels._RUN_QUBITS :] == (2,) * kernels._RUN_QUBITS) == widened
                got = apply_z_mixture_density(ones, m, n)
                assert got.tobytes() == table_z_mixture_density(ones, m, n).tobytes(), (support, looped)
                assert _run(ones, step).tobytes() == got.tobytes(), (support, looped)


@pytest.mark.parametrize("slack", [None, 0])
@pytest.mark.parametrize("n", (3, 5, 8))
def test_padded_mixture_equals_the_mixture_on_its_used_qubits(n, slack):
    """Support qubits that no nonzero coefficient flips change nothing, bit
    for bit: the eigenvalues do not depend on them. Slack 0 loops over the
    rows of some support qubits."""
    slack = kernels._FACTOR_SLACK if slack is None else slack
    rng = np.random.default_rng(70 + n)
    rho = _densities(rng, n)[0]
    for _ in range(6):
        m = int(rng.integers(2, min(n, 5) + 1))
        support = tuple(int(q) for q in rng.permutation(n)[:m])
        used = [a for a in range(m) if rng.random() < 0.5] or [0]
        small = ZMixtureChannel(tuple(support[a] for a in used), rng.normal(size=1 << len(used)))
        coeffs = np.zeros(1 << m)
        for i, c in enumerate(small.coeffs):
            coeffs[sum(1 << a for j, a in enumerate(used) if i >> j & 1)] = c
        padded = ZMixtureChannel(support, coeffs)
        with mock.patch.object(kernels, "_FACTOR_SLACK", slack):
            got = apply_z_mixture_density(rho, padded, n)
            assert got.tobytes() == apply_z_mixture_density(rho, small, n).tobytes(), (support, used)


def test_full_support_factor_loops_instead_of_a_4n_table():
    n = 6
    mix = make_dephasing(NoiseSpec("uncorrelated", 0.1), tuple(range(n)))
    _, (factor, looped) = kernels.mixture_step(mix.support, mix.eigenvalues(), n)
    assert factor.size <= 1 << (n + kernels._FACTOR_SLACK) and len(looped) == 2
    rho = _densities(np.random.default_rng(6), n)[0]
    assert np.array_equal(apply_z_mixture_density(rho, mix, n), table_z_mixture_density(rho, mix, n))


# Impure noise's forward weights, and signed weights that differ on X and Y
# as an inverse's would.
PAULI_WEIGHTS = (make_impure(0.1, 0.7), np.array([1.3, -0.05, -0.11, -0.14]))


@pytest.mark.parametrize("n", range(1, 7))
def test_signs_and_pauli_channel_equal_reference(n):
    """Sign steps equal the sign table. The Pauli channel on every qubit and
    every ordered qubit pair, on each density alone and on a stack of three,
    equals the tensordot sum of Pauli conjugations."""
    rng = np.random.default_rng(40 + n)
    densities = _densities(rng, n)
    for rho in densities:
        for mask in range(1 << n):
            got = _run(rho, kernels.sign_step(mask, n, True))
            assert np.array_equal(got, rho * z_sign_matrix(mask, n))
    stack = np.stack(densities[:3])
    positions = [(q,) for q in range(n)] + list(itertools.permutations(range(n), 2))
    for weights in PAULI_WEIGHTS:
        for qubits in positions:
            step = (kernels.pauli_channel, (weights, qubits, n))
            wants = []
            for rho in densities:
                want = rho
                for q in qubits:
                    want = table_pauli1_density(want, weights, q, n)
                wants.append(want)
                assert np.array_equal(_run(rho, step), want), (weights, qubits)
            got = _run(stack, step)
            assert got.shape == stack.shape
            assert np.array_equal(got, np.stack(wants[:3])), (weights, qubits)
    assert kernels.noise_step(NoiseSpec("impure", 0.1, 0.7), (0,), n)[0] is kernels.pauli_channel


noise_tags = st.one_of(
    st.none(),
    st.just(NoiseSpec("none")),
    st.builds(
        NoiseSpec,
        st.sampled_from(("uncorrelated", "correlated")),
        st.floats(0.001, 0.3),
    ),
    st.builds(NoiseSpec, st.just("impure"), st.floats(0.001, 0.3), st.floats(0.0, 3.0)),
)


def _stacked_steps(rng, n):
    """Density steps of every kind: each gate (index, slice-block and
    diagonal gathers, dense steps on both routes), dephasing and its inverse,
    block mixtures (looped at slack 0), impure noise and drawn Z-strings."""
    for op in _ops(rng, n):
        yield kernels.unitary_step(unitary_of(op), op.qubits, n, True)
    for support in ((0,), (n - 1,), (n - 1, 0), (n // 2, 0), tuple(range(n)), tuple(range(n))[::-1]):
        for spec in (NoiseSpec("uncorrelated", 0.07), NoiseSpec("correlated", 0.11)):
            mix = make_dephasing(spec, support)
            yield kernels.mixture_step(mix.support, mix.eigenvalues(), n)
            yield kernels.mixture_step(mix.support, invert_z_mixture(mix).eigenvalues(), n)
    for mix in _block_mixtures(n, rng):
        yield kernels.mixture_step(mix.support, mix.eigenvalues(), n)
    yield kernels.noise_step(NoiseSpec("impure", 0.1, 0.7), tuple(range(min(n, 2))), n)
    for mask in range(0, 1 << n, max(1, (1 << n) // 5)):
        yield kernels.sign_step(mask, n, True)


@pytest.mark.parametrize("slack", [None, 0])
@pytest.mark.parametrize("n", (2, 3, 5, 7))
def test_stacked_steps_equal_each_state_alone(n, slack):
    """A stack of density matrices along a leading axis meets every step as
    each of its states would alone, bit for bit. At n >= 2
    every dense product has a multiple of 4 columns, which zgemm rounds the
    same however many states add columns."""
    slack = kernels._FACTOR_SLACK if slack is None else slack
    rng = np.random.default_rng(500 + n)
    stack = np.stack(_densities(rng, n))
    with mock.patch.object(kernels, "_FACTOR_SLACK", slack):
        steps = list(_stacked_steps(rng, n))
    for step in steps:
        alone = np.stack([_run(rho, step) for rho in stack])
        got = _run(stack, step)
        assert got.shape == stack.shape and got.flags.c_contiguous
        assert got.tobytes() == alone.tobytes(), step[0].__name__
    # One drawn Z-string per stacked state: a phase with a stack axis.
    phases = np.stack([kernels.z_sign_vector(int(m), n) for m in rng.integers(0, 1 << n, len(stack))])
    alone = np.stack([_run(rho, (kernels.gather, (None, p, True))) for rho, p in zip(stack, phases)])
    assert _run(stack, (kernels.gather, (None, phases, True))).tobytes() == alone.tobytes()


@pytest.mark.parametrize("n", (5, 7))
def test_stacked_statevectors_equal_each_state_alone(n):
    # From n = 5 on, a gate of up to 3 qubits leaves products of at least 4
    # columns on a statevector too.
    rng = np.random.default_rng(600 + n)
    stack = np.stack(_states(rng, n))
    for op in _ops(rng, n):
        step = kernels.unitary_step(unitary_of(op), op.qubits, n, False)
        alone = np.stack([_run(psi, step) for psi in stack])
        got = _run(stack, step)
        assert got.flags.c_contiguous and got.tobytes() == alone.tobytes(), op


@st.composite
def circuits(draw, max_n=4, max_depth=8):
    n = draw(st.integers(1, max_n))
    usable = [k for k, (arity, _) in GATE_KINDS.items() if arity <= n]
    ops = []
    for _ in range(draw(st.integers(0, max_depth))):
        kind = draw(st.sampled_from(usable))
        arity, takes_angle = GATE_KINDS[kind]
        qubits = draw(st.permutations(range(n)))[:arity]
        angle = draw(st.floats(-7.0, 7.0)) if takes_angle else None
        ops.append(GateOp(kind, tuple(qubits), angle))
    tags = tuple(draw(noise_tags) for _ in ops)
    c = Circuit(n, tuple(ops), tags)
    hopping = 0.3 * (np.eye(1 << n, k=1) + np.eye(1 << n, k=-1))
    dense = Observable.dense(np.diag(np.linspace(-1.0, 1.0, 1 << n)) + hopping)
    observables = (Observable.z(n, n - 1), Observable.qubit_one_projector(n, 0), dense)
    return c, draw(st.sampled_from(observables))


def _outcome(f, *args):
    try:
        return f(*args).hex()
    except BlockPecError as exc:
        return type(exc).__name__


@settings(max_examples=150, deadline=None, derandomize=True)
@given(circuits())
def test_exact_evolutions_bitwise_equal_reference(case):
    c, obs = case
    noisy = obs.expectation_density(reference_noisy_density(c))
    assert noisy_expectation(c, obs).hex() == noisy.hex()
    assert ideal_expectation(c, obs).hex() == obs.expectation_state(reference_ideal_state(c)).hex()
    for mode in ("std", "blk", "hybrid"):
        got = _outcome(exact_mitigated_expectation, c, obs, mode)
        assert got == _outcome(reference_exact_mitigated, c, obs, mode), mode
