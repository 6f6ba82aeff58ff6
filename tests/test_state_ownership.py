"""Evolution owns only its own intermediates: every array handed to
``_Program.evolve``, to the ``apply_*`` wrappers or, without ownership, to a
step of the estimator's walk is bytewise unchanged afterwards; and the exact
evolutions hold no more 2^2n arrays at their peak than they did when every
step returned a new array."""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_density_kernels import _densities, _states, circuits

from blockpec import simulate
from blockpec.errors import BlockPecError
from blockpec.gates import unitary_of
from blockpec.generators import gen_swap_network
from blockpec.noise import NoiseSpec, make_dephasing
from blockpec.simulate import (
    Observable,
    _trajectory_outcomes,
    apply_unitary_density,
    apply_unitary_state,
    apply_z_mixture_density,
    apply_z_string_density,
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
def test_evolve_and_wrappers_leave_their_inputs_unchanged(case, seed):
    c, obs = case
    n = c.n
    rng = np.random.default_rng(seed)
    for density, states in ((True, _densities(rng, n)), (False, _states(rng, n))):
        program = simulate._Program(c, density)
        for state in states:
            check = _unchanged(state)
            program.evolve(state, 0, len(c.ops))
            program.evolve(state, len(c.ops) // 2, len(c.ops))
            check()
    rho, psi = _densities(rng, n)[0], _states(rng, n)[0]
    for op, tag in zip(c.ops, c.noise_tags):
        u = unitary_of(op)
        check = _unchanged(rho, psi, u)
        apply_unitary_state(psi, u, op.qubits, n)
        apply_unitary_density(rho, u, op.qubits, n)
        apply_z_string_density(rho, int(rng.integers(1 << n)), n)
        if tag is not None and tag.kind in ("uncorrelated", "correlated"):
            mix = make_dephasing(tag, tuple(sorted(op.qubits)))
            check_mix = _unchanged(mix.coeffs)
            apply_z_mixture_density(rho, mix, n)
            check_mix()
        check()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(circuits(), st.integers(0, 2**32 - 1), st.sampled_from(("std", "blk", "hybrid")))
def test_walk_overwrites_only_states_it_owns(case, seed, mode):
    """The walk keeps prefix states on a stack and hands them to later rows;
    a step given a state without ownership must leave it as it was, until
    the whole estimate is done."""
    c, obs = case
    handed = []
    real_run, real_evolve = simulate.run, simulate._Program.evolve

    def run(state, step, owned=False):
        if not owned:
            handed.append(_unchanged(state))
        return real_run(state, step, owned)

    def evolve(self, state, start, stop, owned=False):
        if not owned:
            handed.append(_unchanged(state))
        return real_evolve(self, state, start, stop, owned)

    rng = np.random.default_rng(seed)
    comb = np.zeros((24, len(c.ops)), dtype=np.int64)
    for i in range(len(c.ops)):
        comb[:, i] = rng.choice(rng.integers(0, 1 << c.n, size=2), size=len(comb))
    inputs = _unchanged(comb, *([obs.payload] if isinstance(obs.payload, np.ndarray) else []))
    with mock.patch.object(simulate, "run", run), mock.patch.object(simulate._Program, "evolve", evolve):
        try:
            pec_estimate(c, obs, mode, 40, seed)
        except BlockPecError:
            pass  # a mode the circuit does not support
        for use_density in (True, False):
            _trajectory_outcomes(c, obs, comb, use_density)
    inputs()
    for check in handed:
        check()


def test_stacked_steps_go_through_run_and_evolve():
    """Row groups evolve as one (G, 2^n, 2^n) stack; those steps, too, pass
    through ``run`` and ``_Program.evolve``, where the test above sees them."""
    c = gen_swap_network(4, 1.0, "rzz", 3).with_noise(NoiseSpec("uncorrelated", 0.05))
    seen = {"run": 0, "evolve": 0}
    real_run, real_evolve = simulate.run, simulate._Program.evolve

    def run(state, step, owned=False):
        seen["run"] += state.ndim == 3
        return real_run(state, step, owned)

    def evolve(self, state, start, stop, owned=False):
        seen["evolve"] += state.ndim == 3
        return real_evolve(self, state, start, stop, owned)

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
