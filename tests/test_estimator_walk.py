"""Differential tests of the estimator's internals. The prefix-shared
trajectory walk against the per-trajectory route in oracles.py, bit for bit,
on random small circuits and random mask rows, on both the density and the
statevector evolution, with the walk's table and state budgets squeezed to
zero and its row groups of one row, of a few rows, or of the default size.
The sampler's distinct rows and signs against the per-sample draw in
oracles.py, and the packed-key dedup against ``np.unique``."""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import reference_pec_outcomes, reference_pec_samples

from blockpec import kernels, simulate
from blockpec.blocks import gamma_std
from blockpec.circuits import Circuit, parse_circuit
from blockpec.gates import GATE_KINDS, GateOp
from blockpec.generators import gen_swap_network
from blockpec.noise import NoiseSpec
from blockpec.simulate import (
    DENSITY_GUARD,
    Observable,
    _draws,
    _estimator_rng,
    _sample_rows,
    _trajectory_outcomes,
    _unique_rows,
    pec_estimate,
    required_samples,
)

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
    # Group bytes: groups of one row; of 12, 3 or 1 rows at n = 2, 3, 4 (many
    # groups, restarting within their own shared prefix); the default.
    group_bytes = draw(st.sampled_from((0, 3 << 10, None)))
    return c, obs, comb, use_density, budgets + (group_bytes,)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(walk_cases())
def test_walk_matches_per_trajectory_oracle(case):
    c, obs, comb, use_density, (table_bytes, state_bytes, group_bytes) = case
    with mock.patch.multiple(
        simulate,
        _TABLE_BYTES=simulate._TABLE_BYTES if table_bytes is None else table_bytes,
        _STATE_BYTES=simulate._STATE_BYTES if state_bytes is None else state_bytes,
        _GROUP_BYTES=simulate._GROUP_BYTES if group_bytes is None else group_bytes,
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


def test_groups_restart_within_their_own_shared_prefix():
    # Groups of two rows (256-byte states, 512-byte budget). Rows 2 and 4
    # share five kept columns (op 4 draws nothing) with the row before them
    # but only two and three with the other row of their own group;
    # restarting from the previous group's path at such a depth would carry
    # that row's masks into the other.
    rows = [
        [2, 0, 0, 0, 0, 0, 1],
        [2, 0, 0, 0, 0, 1, 0],
        [2, 0, 0, 0, 0, 1, 1],
        [2, 0, 1, 0, 0, 0, 0],
        [2, 0, 1, 0, 0, 0, 1],
        [2, 0, 1, 1, 0, 0, 0],
        [2, 3, 0, 0, 0, 0, 0],
    ]
    kinds = ("H", "RZ", "CNOT", "RZZ", "H", "T", "RZ")
    ops = tuple(
        GateOp(kind, (i % 2,) if kind in ("H", "RZ", "T") else (0, 1), 0.3 + i if kind in ("RZ", "RZZ") else None)
        for i, kind in enumerate(kinds)
    )
    c = Circuit(2, ops).with_noise(NoiseSpec("uncorrelated", 0.05))
    comb = np.array(rows * 3, dtype=np.int64)
    uniq = np.unique(comb[:, comb.any(axis=0)], axis=0)
    lcp = np.argmax(uniq[1:] != uniq[:-1], axis=1)  # lcp[r - 1]: rows r - 1 and r
    assert lcp[1] > lcp[2] and lcp[3] > lcp[4]  # deeper than their group's share
    obs = Observable.z(2, 1)
    want = reference_pec_outcomes(c, obs, comb, True)
    for group_bytes in (0, 512, 1024, simulate._GROUP_BYTES):
        for state_bytes in (0, simulate._STATE_BYTES):
            with mock.patch.multiple(simulate, _GROUP_BYTES=group_bytes, _STATE_BYTES=state_bytes):
                got = _trajectory_outcomes(c, obs, comb, True)
            assert got.tobytes() == want.tobytes(), (group_bytes, state_bytes)


def test_one_qubit_rows_match_the_oracle():
    # A 2x2 density matrix gives dense products of 2 columns, which zgemm
    # would round differently stacked; its rows are walked one at a time.
    rng = np.random.default_rng(5)
    for _ in range(10):
        kinds = rng.choice(["H", "RZ", "T", "X"], 6)
        ops = tuple(GateOp(k, (0,), float(rng.uniform(0, 6)) if k == "RZ" else None) for k in kinds)
        c = Circuit(1, ops).with_noise(NoiseSpec("uncorrelated", 0.1))
        comb = rng.integers(0, 2, size=(60, 6))
        obs = Observable.z(1, 0)
        want = reference_pec_outcomes(c, obs, comb, True)
        assert _trajectory_outcomes(c, obs, comb, True).tobytes() == want.tobytes()


CRITERION_06 = "qubits=3\nH 0\nRZ 0;theta=0.7\nH 0\nCNOT 0,1\nH 1\nRZ 1;theta=0.4\nH 1\nCNOT 1,2\n"


def test_criterion_06_walk_receives_only_the_distinct_rows():
    # The sampler dedups the drawn indices before it decodes masks, so the
    # walk is handed the 479 distinct rows of the 63,992 samples.
    c = parse_circuit(CRITERION_06).with_noise(NoiseSpec("uncorrelated", 0.1))
    samples = required_samples(gamma_std(c), 0.05, 0.05)
    assert samples == 63_992
    comb, _, _ = reference_pec_samples(c, "std", samples, 1)
    distinct = len(np.unique(comb, axis=0))
    assert distinct == 479
    walk = simulate._trajectory_outcomes
    with mock.patch.object(simulate, "_trajectory_outcomes", wraps=walk) as spy:
        pec_estimate(c, Observable.z(3, 0), "std", samples, 1)
    assert spy.call_count == 1 and spy.call_args.args[2].shape == (distinct, len(c.ops))


def test_criterion_06_rows_evolve_as_one_stack():
    # Its few hundred distinct rows of 1 KiB density matrices fit one group:
    # past the shared start, every op runs once on the stack of all of them.
    c = parse_circuit(CRITERION_06).with_noise(NoiseSpec("uncorrelated", 0.1))
    samples = required_samples(gamma_std(c), 0.05, 0.05)
    with mock.patch.object(kernels, "dense", wraps=kernels.dense) as spy:
        pec_estimate(c, Observable.z(3, 0), "std", samples, 1)
    assert spy.call_count == sum(op.kind in ("H", "RZ") for op in c.ops) == 6


_C06 = parse_circuit(CRITERION_06)
_SWAP = gen_swap_network(4, 1.0, "rzz", 0)
_SWAP5 = gen_swap_network(5, 1.0, "rzz", 0)
_WIDE = gen_swap_network(11, 0.5, "rzz", 0)  # statevector path
_P1, _P05, _P01 = (NoiseSpec("uncorrelated", p) for p in (0.1, 0.05, 0.01))
# name: (circuit, mode, sample range, dedup route of the drawn indices)
SAMPLING_CASES = {
    # 10 bits of digits: one word, counted once 2^10 <= 4 S.
    "std bincount": (_C06.with_noise(_P1), "std", (256, 3000), "bincount"),
    "blk": (_SWAP.with_noise(_P05), "blk", (1, 2000), None),
    "hybrid": (_C06.with_noise(_P05), "hybrid", (1, 2000), None),
    # 40 slots of 2 bits: two words.
    "std words": (_SWAP5.with_noise(_P05), "std", (1, 500), "words"),
    "statevector std": (_WIDE.with_noise(_P01), "std", (1, 200), "words"),
    "statevector blk": (_WIDE.with_noise(NoiseSpec("correlated", 0.01)), "blk", (1, 200), "words"),
    "no slots": (_C06.with_noise(NoiseSpec("uncorrelated", 0.0)), "std", (1, 500), "none"),
    "statevector no noise": (_WIDE, "std", (1, 50), "none"),
}


@pytest.mark.parametrize("name", list(SAMPLING_CASES))
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_sampled_rows_match_the_per_sample_draw(name, data):
    # The distinct rows and signs, taken back through the sample-to-row
    # index, are bytewise the samples x ops draw, and the stream is left at
    # the same place.
    c, mode, (lo, hi), route = SAMPLING_CASES[name]
    samples = data.draw(st.integers(lo, hi))
    seed = data.draw(st.integers(0, 2**64 - 1))
    draws, _ = _draws(c, mode, c.n <= DENSITY_GUARD)
    rng = _estimator_rng(seed)
    with mock.patch.object(simulate, "_unique_rows", wraps=_unique_rows) as spy:
        rows, signs, inverse = _sample_rows(c, draws, samples, rng)
    comb, want_signs, want_rng = reference_pec_samples(c, mode, samples, seed)
    assert rows[inverse].tobytes() == comb.tobytes()
    assert signs[inverse].tobytes() == want_signs.tobytes()
    assert rng.random() == want_rng.random()
    bits = sum(spy.call_args.args[1])  # the digits' widths
    if route == "none":
        assert bits == 0 and len(rows) == 1
    elif route == "bincount":
        assert bits <= 63 and 1 << bits <= 4 * samples
    elif route == "words":
        assert bits > 63


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.lists(st.integers(0, 3), max_size=4),  # few bits: one counted word
        st.lists(st.integers(0, 14), max_size=40),  # wide rows span several words
    ),
    st.integers(1, 300),
    st.integers(0, 2**32 - 1),
)
@example([14] * 4 + [0, 5, 13] * 10, 200, 1)
@example([2, 0, 3, 1], 300, 2)
def test_packed_dedup_matches_numpy_unique(widths, samples, seed):
    # One sample per distinct row, the rows in lexicographic order, and the
    # sample to row index; columns of mixed bit widths, counted with a
    # bincount when they pack into one small word, sorted otherwise.
    rng = np.random.default_rng(seed)
    cols = [rng.integers(0, 1 << w, size=samples) * (rng.random(samples) < 0.6) for w in widths]
    comb = np.array(cols, dtype=np.int64).reshape(len(widths), samples).T
    first, inverse = _unique_rows(comb.T, widths)
    if not widths:
        assert first.tolist() == [0] and not inverse.any()
        return
    want, want_inverse = np.unique(comb, axis=0, return_inverse=True)
    assert np.array_equal(comb[first], want)
    assert np.array_equal(inverse, want_inverse.reshape(-1))
