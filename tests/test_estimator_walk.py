"""Differential test: the estimator's prefix-shared trajectory walk against
the per-trajectory route in oracles.py, bit for bit, on random small
circuits and random mask rows, on both the density and the statevector
evolution, and with the walk's table and state budgets squeezed to zero."""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_pec_outcomes

from blockpec import kernels, simulate
from blockpec.circuits import Circuit
from blockpec.gates import GATE_KINDS, GateOp
from blockpec.noise import NoiseSpec
from blockpec.simulate import Observable, _trajectory_outcomes

noise_tags = st.one_of(
    st.none(),
    st.just(NoiseSpec("none")),
    st.builds(
        NoiseSpec,
        st.sampled_from(("uncorrelated", "correlated")),
        st.floats(0.001, 0.45),
    ),
    st.builds(NoiseSpec, st.just("impure"), st.floats(0.001, 0.45), st.floats(0.0, 3.0)),
)


@st.composite
def walk_cases(draw, max_n=4, max_depth=8, max_samples=40):
    n = draw(st.integers(2, max_n))
    usable = [k for k, (arity, _) in GATE_KINDS.items() if arity <= n]
    ops = []
    for _ in range(draw(st.integers(1, max_depth))):
        kind = draw(st.sampled_from(usable))
        arity, takes_angle = GATE_KINDS[kind]
        qubits = draw(st.permutations(range(n)))[:arity]
        angle = draw(st.floats(0.0, 2.0 * math.pi)) if takes_angle else None
        ops.append(GateOp(kind, tuple(qubits), angle))
    use_density = draw(st.booleans())
    tags = tuple(draw(noise_tags) for _ in ops) if use_density else ()
    c = Circuit(n, tuple(ops), tags)

    # Few distinct masks per column, so rows repeat and share prefixes.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = draw(st.integers(2, max_samples))
    comb = np.zeros((samples, len(ops)), dtype=np.int64)
    for i in range(len(ops)):
        if rng.random() < 0.7:
            choices = rng.integers(0, 1 << n, size=int(rng.integers(2, 4)))
            comb[:, i] = rng.choice(choices, size=samples)

    hopping = 0.3 * (np.eye(1 << n, k=1) + np.eye(1 << n, k=-1))
    dense = Observable.dense(np.diag(np.linspace(-1.0, 1.0, 1 << n)) + hopping)
    obs = draw(
        st.sampled_from((Observable.z(n, n - 1), Observable.qubit_one_projector(n, 0), dense))
    )
    # (table bytes, state bytes); None keeps the default budget.
    budgets = draw(
        st.sampled_from(((None, None), (0, 0), (0, None), (None, 0), (1 << 12, 1 << 12)))
    )
    return c, obs, comb, use_density, budgets


@settings(max_examples=200, deadline=None, derandomize=True)
@given(walk_cases())
def test_walk_matches_per_trajectory_oracle(case):
    c, obs, comb, use_density, (table_bytes, state_bytes) = case
    with mock.patch.multiple(
        simulate,
        _TABLE_BYTES=simulate._TABLE_BYTES if table_bytes is None else table_bytes,
        _STATE_BYTES=simulate._STATE_BYTES if state_bytes is None else state_bytes,
    ):
        got = _trajectory_outcomes(c, obs, comb.copy(), use_density)
    want = reference_pec_outcomes(c, obs, comb, use_density)
    assert got.tobytes() == want.tobytes()


def test_blk_rows_share_everything_but_the_last_op():
    # A blk slot draws after the last op only: one column survives dedup, so
    # the walk evolves the circuit once and branches at the end.
    ops = tuple(GateOp("RZZ", (i, i + 1), 0.3 + i) for i in range(3))
    c = Circuit(4, ops).with_noise(NoiseSpec("uncorrelated", 0.05))
    comb = np.zeros((64, 3), dtype=np.int64)
    comb[:, 2] = np.arange(64) % 16
    obs = Observable.z(4, 3)
    kernel = kernels.dense
    with mock.patch.object(kernels, "dense", wraps=kernel) as spy:
        got = _trajectory_outcomes(c, obs, comb, True)
    assert spy.call_count == len(ops)
    assert got.tobytes() == reference_pec_outcomes(c, obs, comb, True).tobytes()
