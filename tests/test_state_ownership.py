"""Kernels may overwrite the state they are given, so only the callers that
keep a state copy it: the ``apply_*`` wrappers leave their inputs bytewise
unchanged, and the estimator's walk hands each row group a copy of the
prefix state it stores. The exact evolutions and a chain of wrapper calls
hold no more 2^2n arrays at their peak than those copies need."""

from __future__ import annotations

import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_pec_outcomes
from test_density_kernels import _densities, _states, circuits

from blockpec import simulate
from blockpec.gates import unitary_of
from blockpec.generators import gen_swap_network
from blockpec.noise import NoiseSpec, make_dephasing
from blockpec.simulate import (
    Observable,
    _trajectory_outcomes,
    apply_unitary_density,
    apply_unitary_state,
    apply_z_mixture_density,
    exact_mitigated_expectation,
    noisy_expectation,
    pec_estimate,
)


def _unchanged(*arrays):
    """Snapshot ``arrays``; the returned check asserts they still hold it."""
    before = [(a, a.tobytes()) for a in arrays]

    def check():
        for a, b in before:
            assert a.tobytes() == b

    return check


@settings(max_examples=60, deadline=None, derandomize=True)
@given(circuits(), st.integers(0, 2**32 - 1))
def test_wrappers_leave_their_inputs_unchanged(case, seed):
    c, obs = case
    n = c.n
    rng = np.random.default_rng(seed)
    rho, psi = _densities(rng, n)[0], _states(rng, n)[0]
    for op, tag in zip(c.ops, c.noise_tags):
        u = unitary_of(op)
        check = _unchanged(rho, psi, u)
        apply_unitary_state(psi, u, op.qubits, n)
        apply_unitary_density(rho, u, op.qubits, n)
        if tag is not None and tag.kind in ("uncorrelated", "correlated"):
            mix = make_dephasing(tag, tuple(sorted(op.qubits)))
            check_mix = _unchanged(mix.coeffs)
            apply_z_mixture_density(rho, mix, n)
            check_mix()
        check()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(circuits(), st.integers(0, 2**32 - 1))
def test_walk_overwrites_only_states_it_owns(case, seed):
    """The walk keeps prefix states on a stack and hands each row group a
    copy of the one it restarts from. Rows drawn from two masks per op share
    many prefixes, so groups restart from stored states again and again; a
    group that overwrote a stored state would change a later row's outcome
    from that of the row evolved alone. The mask rows and the observable are
    left as they were."""
    c, obs = case
    rng = np.random.default_rng(seed)
    comb = np.zeros((24, len(c.ops)), dtype=np.int64)
    for i in range(len(c.ops)):
        comb[:, i] = rng.choice(rng.integers(0, 1 << c.n, size=2), size=len(comb))
    inputs = _unchanged(comb, *([obs.payload] if isinstance(obs.payload, np.ndarray) else []))
    for use_density in (True, False):
        want = reference_pec_outcomes(c, obs, comb, use_density)
        for group_bytes in (0, simulate._GROUP_BYTES):  # groups of one row, and the default
            with mock.patch.object(simulate, "_GROUP_BYTES", group_bytes):
                got = _trajectory_outcomes(c, obs, comb, use_density)
            assert got.tobytes() == want.tobytes(), (use_density, group_bytes)
    inputs()


def test_stacked_steps_go_through_run_and_evolve():
    """Row groups evolve as one (G, 2^n, 2^n) stack; those steps, too, pass
    through ``run`` and ``_Program.evolve``."""
    c = gen_swap_network(4, 1.0, "rzz", 3).with_noise(NoiseSpec("uncorrelated", 0.05))
    seen = {"run": 0, "evolve": 0}
    real_run, real_evolve = simulate.run, simulate._Program.evolve

    def run(state, step):
        seen["run"] += state.ndim == 3
        return real_run(state, step)

    def evolve(self, state, start, stop):
        seen["evolve"] += state.ndim == 3
        return real_evolve(self, state, start, stop)

    with mock.patch.object(simulate, "run", run), mock.patch.object(simulate._Program, "evolve", evolve):
        pec_estimate(c, Observable.z(4, 0), "std", 400, 2)
    assert seen["run"] and seen["evolve"], seen


# tracemalloc peaks of the two evolutions below at the last commit whose
# steps each returned a new array (numpy 2.4.6): about four and five 16 MiB
# states. Holding spare buffers between steps would raise them.
PEAK_BOUND_MIB = {"noisy": 64.1, "hybrid": 80.1}


@pytest.mark.parametrize("seed", [0, 1])
def test_exact_evolutions_hold_no_more_states_than_before(seed):
    c = gen_swap_network(10, 0.1, "rzz", seed).with_noise(NoiseSpec("uncorrelated", 0.01))
    obs = Observable.z(10, 9)
    runs = {
        "noisy": lambda: noisy_expectation(c, obs),
        "hybrid": lambda: exact_mitigated_expectation(c, obs, "hybrid"),
    }
    peaks = {}
    for name, evolution in runs.items():
        tracemalloc.start()
        try:
            evolution()
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak <= PEAK_BOUND_MIB[name], (name, peak)
        peaks[name] = peak
    # Hybrid mitigation is the noisy evolution with corrections inserted, so
    # it holds no state beyond the noisy one's (a pinned segment input would
    # add 16 MiB).
    assert peaks["hybrid"] <= peaks["noisy"] + 1.0, peaks


# A chain of apply_unitary_density calls holds at its peak the previous
# result, the wrapper's copy and a large dense step's spare buffer: three
# 16 MiB states at n = 10 (48.2 MiB traced, numpy 2.4.6). Wrappers whose
# steps left the input untouched by building fresh intermediates held four
# (64.1 MiB).
WRAPPER_PEAK_MIB = 48.5


@pytest.mark.parametrize("seed", [0, 1])
def test_wrapper_chain_holds_three_states(seed):
    n = 10
    c = gen_swap_network(n, 0.1, "rzz", seed)
    unitaries = [unitary_of(op) for op in c.ops]
    tracemalloc.start()
    try:
        rho = np.zeros((1 << n, 1 << n), dtype=complex)
        rho[0, 0] = 1.0
        for op, u in zip(c.ops, unitaries):
            before = hashlib.sha256(rho).digest()
            out = apply_unitary_density(rho, u, op.qubits, n)
            assert hashlib.sha256(rho).digest() == before, op
            rho = out
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak <= WRAPPER_PEAK_MIB, peak
