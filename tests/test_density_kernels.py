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
    coherence_factors,
    dense,
    reference_exact_mitigated,
    reference_ideal_state,
    reference_noisy_density,
    table_pauli1_density,
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
    apply_z_string_density,
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
    for label, pauli in kernels.PAULI_1Q.items():
        assert kernels.unitary_step(pauli, (0,), 1, True)[0] is kernels.gather, label


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
            assert got.tobytes() == coherence_factors(mix, n).tobytes(), mix.support


def test_full_support_factor_loops_instead_of_a_4n_table():
    n = 6
    mix = make_dephasing(NoiseSpec("uncorrelated", 0.1), tuple(range(n)))
    _, (factor, looped) = kernels.mixture_step(mix, n)
    assert factor.size <= 1 << (n + kernels._FACTOR_SLACK) and len(looped) == 2
    rho = _densities(np.random.default_rng(6), n)[0]
    assert np.array_equal(apply_z_mixture_density(rho, mix, n), rho * coherence_factors(mix, n))


@pytest.mark.parametrize("n", range(1, 5))
def test_signs_and_pauli_channel_equal_reference(n):
    rng = np.random.default_rng(40 + n)
    forward, _ = make_impure(0.1, 0.7)
    for rho in _densities(rng, n):
        for mask in range(1 << n):
            got = apply_z_string_density(rho, mask, n)
            assert np.array_equal(got, rho * z_sign_matrix(mask, n))
        for q in range(n):
            got = kernels.pauli_channel(rho, forward.coeffs, (q,), n)
            assert np.array_equal(got, table_pauli1_density(rho, forward.coeffs, q, n))


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
