from __future__ import annotations

import json
import math

import numpy as np
import pytest
from conftest import EXACT_KINDS, random_circuit

from blockpec.blocks import gamma_blk, gamma_std, layer_distribution
from blockpec.circuits import Circuit, parse_circuit
from blockpec.errors import (
    GuardExceeded,
    InvalidArgument,
    InvalidSamples,
    NotZClosed,
)
from blockpec.gates import GateOp, unitary_of
from blockpec.noise import NoiseSpec, make_dephasing
from blockpec.pauli import PauliZString
from blockpec.simulate import (
    Observable,
    apply_unitary_density,
    apply_z_mixture_density,
    apply_z_string_density,
    exact_mitigated_expectation,
    ideal_expectation,
    noisy_expectation,
    pec_estimate,
    required_samples,
)

P01 = NoiseSpec("uncorrelated", 0.1)
X_MAT = np.array([[0.0, 1.0], [1.0, 0.0]])


def _bell_pair() -> Circuit:
    return Circuit(2, (GateOp("H", (0,)), GateOp("CNOT", (0, 1))))


def test_observable_constructors():
    z0 = Observable.z(2, 0)
    assert z0.kind == "pauli_z_string"
    assert z0.payload.mask == 0b01

    proj = Observable.projector(2, [1, 3])
    assert proj.kind == "diagonal_projector"
    assert list(proj.payload) == [False, True, False, True]

    # Qubit q reads 1 on basis indices whose bit (n-1-q) is set.
    q1 = Observable.qubit_one_projector(2, 0)
    assert list(q1.payload) == [False, False, True, True]

    dense = Observable.dense(X_MAT)
    assert dense.kind == "dense_hermitian"
    assert dense.n == 1


def test_dense_observable_rejects_non_finite_entries():
    for bad in (float("nan"), float("inf")):
        m = np.diag([1.0, bad])
        with pytest.raises(InvalidArgument):
            Observable.dense(m)


def test_dense_observable_validation_and_normalization():
    with pytest.raises(InvalidArgument):
        Observable.dense(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(InvalidArgument):
        Observable.dense(np.ones((3, 3)))  # not 2^n square
    scaled = Observable.dense(2.0 * np.diag([1.0, -1.0]))
    psi = np.array([1.0, 0.0], dtype=complex)
    assert scaled.expectation_state(psi) == pytest.approx(1.0)  # rescaled to norm 1


def test_expectations_agree_between_state_and_density():
    rng = np.random.default_rng(3)
    for _ in range(10):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        herm = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        herm = herm + herm.conj().T
        for obs in (
            Observable.z(2, 1),
            Observable.projector(2, [0, 2]),
            Observable.dense(herm),
        ):
            assert obs.expectation_state(psi) == pytest.approx(
                obs.expectation_density(rho), abs=1e-12
            )


def test_ideal_expectation_pins():
    assert ideal_expectation(Circuit(1, ()), Observable.z(1, 0)) == pytest.approx(1.0)
    flipped = Circuit(1, (GateOp("X", (0,)),))
    assert ideal_expectation(flipped, Observable.z(1, 0)) == pytest.approx(-1.0)

    theta = 0.6
    swapish = Circuit(2, (GateOp("X", (0,)), GateOp("RBS", (0, 1), theta)))
    transfer = Observable.qubit_one_projector(2, 1)
    assert ideal_expectation(swapish, transfer) == pytest.approx(
        math.sin(theta) ** 2, abs=1e-12
    )

    ghz = _bell_pair()
    assert ideal_expectation(ghz, Observable.z(2, 0)) == pytest.approx(0.0, abs=1e-12)
    assert ideal_expectation(ghz, Observable.projector(2, [0, 3])) == pytest.approx(
        1.0, abs=1e-12
    )


def test_observable_qubit_count_checked():
    with pytest.raises(InvalidArgument):
        ideal_expectation(Circuit(2, ()), Observable.z(3, 0))
    with pytest.raises(InvalidArgument):
        noisy_expectation(Circuit(2, ()), Observable.z(1, 0))


def test_statevector_guard():
    with pytest.raises(GuardExceeded):
        ideal_expectation(Circuit(15, ()), Observable.z(15, 0))


def test_noisy_expectation_pins():
    quiet = _bell_pair().with_noise(NoiseSpec("uncorrelated", 0.0))
    obs = Observable.projector(2, [0, 3])
    assert noisy_expectation(quiet, obs) == pytest.approx(
        ideal_expectation(quiet, obs), abs=1e-14
    )

    # Dephasing after H shrinks the X coherence by 1 - 2p.
    plus = Circuit(1, (GateOp("H", (0,)),)).with_noise(P01)
    assert noisy_expectation(plus, Observable.dense(X_MAT)) == pytest.approx(
        0.8, abs=1e-12
    )

    # Z-mixtures act trivially on diagonal states.
    basis = Circuit(2, (GateOp("X", (0,)), GateOp("CNOT", (0, 1)))).with_noise(
        NoiseSpec("uncorrelated", 0.3)
    )
    zz = Observable.z_string(PauliZString(0b11, 2))
    assert noisy_expectation(basis, zz) == pytest.approx(1.0, abs=1e-12)


def test_noisy_expectation_impure():
    # Depolarizing limit (q=0) damps Z by 1 - 4p/3 per op.
    c = Circuit(1, (GateOp("X", (0,)),)).with_noise(NoiseSpec("impure", 0.1, q=0.0))
    assert noisy_expectation(c, Observable.z(1, 0)) == pytest.approx(
        -(1.0 - 0.4 / 3.0), abs=1e-12
    )
    with pytest.raises(GuardExceeded):
        noisy_expectation(Circuit(11, ()), Observable.z(11, 0))


def test_exact_mitigated_unbiased_all_modes():
    rng = np.random.default_rng(71)
    for _ in range(12):
        n = int(rng.integers(2, 5))
        depth = int(rng.integers(1, 7))
        p = float(rng.choice([0.01, 0.1]))
        c = random_circuit(rng, n, depth, EXACT_KINDS).with_noise(
            NoiseSpec("uncorrelated", p)
        )
        target = ideal_expectation(Circuit(c.n, c.ops), Observable.z(c.n, 0))
        for mode in ("std", "blk", "hybrid"):
            got = exact_mitigated_expectation(c, Observable.z(c.n, 0), mode)
            assert got == pytest.approx(target, abs=1e-10)


def test_exact_mitigated_other_observables():
    rng = np.random.default_rng(73)
    c = random_circuit(rng, 3, 5, EXACT_KINDS).with_noise(P01)
    herm = rng.normal(size=(8, 8))
    herm = herm + herm.T
    for obs in (
        Observable.projector(3, [0, 5, 6]),
        Observable.dense(herm),
        Observable.qubit_one_projector(3, 2),
    ):
        target = ideal_expectation(Circuit(3, c.ops), obs)
        for mode in ("std", "blk", "hybrid"):
            assert exact_mitigated_expectation(c, obs, mode) == pytest.approx(
                target, abs=1e-10
            )


def test_exact_mitigated_std_handles_incompatible_gates():
    # Per-gate inversion needs no conjugation, so H circuits still cancel.
    c = Circuit(
        2, (GateOp("H", (0,)), GateOp("CNOT", (0, 1)), GateOp("H", (1,)))
    ).with_noise(P01)
    obs = Observable.dense(np.kron(X_MAT, X_MAT))
    target = ideal_expectation(Circuit(2, c.ops), obs)
    assert exact_mitigated_expectation(c, obs, "std") == pytest.approx(
        target, abs=1e-10
    )
    with pytest.raises(NotZClosed):
        exact_mitigated_expectation(c, obs, "blk")
    # Hybrid falls back to per-gate segments around the H gates.
    assert exact_mitigated_expectation(c, obs, "hybrid") == pytest.approx(
        target, abs=1e-10
    )


def test_exact_mitigated_validation_and_guards():
    c = _bell_pair().with_noise(P01)
    with pytest.raises(InvalidArgument):
        exact_mitigated_expectation(c, Observable.z(2, 0), "turbo")
    with pytest.raises(GuardExceeded):
        exact_mitigated_expectation(Circuit(11, ()), Observable.z(11, 0), "std")
    # Exact std is one evolution, so 17 noisy two-qubit ops are no harder
    # than 16.
    wide = Circuit(
        2, tuple(GateOp("CNOT", (0, 1)) for _ in range(17))
    ).with_noise(P01)
    target = ideal_expectation(Circuit(2, wide.ops), Observable.z(2, 0))
    assert exact_mitigated_expectation(
        wide, Observable.z(2, 0), "std"
    ) == pytest.approx(target, abs=1e-10)
    at_guard = Circuit(
        2, tuple(GateOp("CNOT", (0, 1)) for _ in range(16))
    ).with_noise(P01)
    target = ideal_expectation(Circuit(2, at_guard.ops), Observable.z(2, 0))
    assert exact_mitigated_expectation(
        at_guard, Observable.z(2, 0), "std"
    ) == pytest.approx(target, abs=1e-10)


def test_tuple_enumeration_matches_distributive_sum():
    # Brute-force the per-gate quasi-probability sum and compare with the
    # factored evaluation and the ideal value.
    c = Circuit(
        2, (GateOp("RZZ", (0, 1), 0.37), GateOp("CNOT", (0, 1)))
    ).with_noise(P01)
    obs = Observable.z(2, 1)
    dists = [layer_distribution(op, tag) for op, tag in zip(c.ops, c.noise_tags)]
    mixes = [make_dephasing(tag, tuple(sorted(op.qubits))) for op, tag in zip(c.ops, c.noise_tags)]
    total = 0.0
    for m1 in range(4):
        for m2 in range(4):
            rho = np.zeros((4, 4), dtype=complex)
            rho[0, 0] = 1.0
            for op, mix, control in zip(c.ops, mixes, (m1, m2)):
                rho = apply_unitary_density(rho, unitary_of(op), op.qubits, 2)
                rho = apply_z_mixture_density(rho, mix, 2)
                rho = apply_z_string_density(rho, control, 2)
            weight = dists[0].coeff(m1) * dists[1].coeff(m2)
            total += weight * obs.expectation_density(rho)
    ideal = ideal_expectation(Circuit(2, c.ops), obs)
    assert total == pytest.approx(ideal, abs=1e-12)
    assert exact_mitigated_expectation(c, obs, "std") == pytest.approx(
        total, abs=1e-12
    )


def test_pec_estimate_deterministic():
    c = _bell_pair().with_noise(P01)
    obs = Observable.projector(2, [0, 3])
    a = pec_estimate(c, obs, "std", 500, 42)
    b = pec_estimate(c, obs, "std", 500, 42)
    assert a == b  # bitwise-identical dataclass
    other = pec_estimate(c, obs, "std", 500, 43)
    assert other.mean != a.mean
    assert a.mode == "std" and a.seed == 42 and a.n_samples == 500
    assert a.gamma_used == pytest.approx(gamma_std(c), abs=1e-12)


def test_pec_estimate_noiseless_is_exact():
    c = _bell_pair().with_noise(NoiseSpec("uncorrelated", 0.0))
    obs = Observable.projector(2, [0, 3])
    report = pec_estimate(c, obs, "std", 7, 5)
    assert report.mean == ideal_expectation(c, obs)
    assert report.sample_variance == 0.0
    assert report.gamma_used == 1.0


def test_pec_estimate_consistency():
    text = """qubits=3
    H 0
    RZ 0;theta=0.7
    H 0
    CNOT 0,1
    H 1
    RZ 1;theta=0.4
    H 1
    CNOT 1,2
    """
    c = parse_circuit(text).with_noise(P01)
    obs = Observable.z(3, 0)
    ideal = ideal_expectation(parse_circuit(text), obs)
    report = pec_estimate(c, obs, "std", 2000, 0)
    assert report.gamma_used == pytest.approx(9.313225746154785, abs=1e-9)
    assert report.mean == pytest.approx(ideal, abs=0.15)
    assert report.sample_variance > 1.0  # genuine mitigation variance


def test_pec_estimate_sign_cancellation_regime():
    # When every propagated correction merely flips the observable's sign in
    # step with its coefficient's sign, the estimator output is constant.
    c = parse_circuit(
        "qubits=3\nH 0\nCNOT 0,1\nCNOT 1,2\nRZ 2;theta=0.7\n"
    ).with_noise(P01)
    obs = Observable.dense(np.kron(np.kron(X_MAT, X_MAT), X_MAT))
    ideal = ideal_expectation(parse_circuit("qubits=3\nH 0\nCNOT 0,1\nCNOT 1,2\nRZ 2;theta=0.7\n"), obs)
    report = pec_estimate(c, obs, "std", 400, 7)
    assert report.mean == pytest.approx(ideal, rel=1e-12)
    assert report.sample_variance < 1e-28


def test_pec_estimate_variance_ordering_matched_seeds():
    # Diagonal circuit built on the two-qubit rotation/CNOT motif: the
    # aggregated-mode cost is strictly smaller, so its variance should win.
    c = Circuit(
        2,
        (GateOp("X", (0,)), GateOp("RZZ", (0, 1), 0.37), GateOp("CNOT", (0, 1))),
    ).with_noise(P01)
    obs = Observable.z(2, 0)
    assert gamma_blk(c) < gamma_std(c)
    wins = 0
    for seed in range(50):
        std = pec_estimate(c, obs, "std", 1500, seed)
        blk = pec_estimate(c, obs, "blk", 1500, seed)
        wins += blk.sample_variance <= std.sample_variance
    assert wins >= 45


def test_pec_estimate_shots():
    c = _bell_pair().with_noise(P01)
    obs = Observable.projector(2, [0, 3])
    exact = pec_estimate(c, obs, "std", 800, 9)
    shot = pec_estimate(c, obs, "std", 800, 9, shots=1)
    again = pec_estimate(c, obs, "std", 800, 9, shots=1)
    assert shot == again
    assert shot.sample_variance > exact.sample_variance
    assert abs(shot.mean - exact.mean) < 0.5
    many = pec_estimate(c, obs, "std", 800, 9, shots=4096)
    assert abs(many.mean - exact.mean) < 0.1


def test_pec_estimate_sample_validation():
    c = _bell_pair().with_noise(P01)
    obs = Observable.z(2, 0)
    with pytest.raises(InvalidSamples):
        pec_estimate(c, obs, "std", 0, 1)
    with pytest.raises(InvalidSamples):
        pec_estimate(c, obs, "std", -3, 1)
    with pytest.raises(InvalidSamples):
        pec_estimate(c, obs, "std", 2.5, 1)
    with pytest.raises(InvalidSamples):
        pec_estimate(c, obs, "std", 10, 1, shots=0)
    with pytest.raises(InvalidArgument):
        pec_estimate(c, obs, "warp", 10, 1)
    with pytest.raises(GuardExceeded):
        pec_estimate(Circuit(15, ()), Observable.z(15, 0), "std", 10, 1)


def test_pec_estimate_statevector_path():
    # 10 < n <= 14 runs trajectories on statevectors instead of densities.
    ops = (GateOp("H", (0,)),) + tuple(GateOp("CNOT", (i, i + 1)) for i in range(10))
    c = Circuit(11, ops)
    obs = Observable.qubit_one_projector(11, 10)
    quiet = pec_estimate(
        c.with_noise(NoiseSpec("uncorrelated", 0.0)), obs, "std", 3, 1
    )
    assert quiet.mean == ideal_expectation(c, obs)

    noisy = c.with_noise(NoiseSpec("uncorrelated", 0.05))
    r1 = pec_estimate(noisy, obs, "std", 300, 2)
    r2 = pec_estimate(noisy, obs, "std", 300, 2)
    assert r1 == r2
    assert abs(r1.mean - 0.5) < 1.0  # wide stochastic band

    impure = c.with_noise(NoiseSpec("impure", 0.05, q=1.0))
    with pytest.raises(Exception):
        pec_estimate(impure, obs, "std", 10, 1)


def test_required_samples():
    assert required_samples(1.0, 0.1, 0.05) == 185
    assert required_samples(2.0, 0.1, 0.05) == 738
    assert required_samples(3.0, 0.1, 2.0) == 0
    with pytest.raises(InvalidArgument):
        required_samples(0.5, 0.1, 0.05)
    with pytest.raises(InvalidArgument):
        required_samples(1.0, 0.0, 0.05)
    with pytest.raises(InvalidArgument):
        required_samples(1.0, 0.1, 0.0)
    with pytest.raises(InvalidArgument):
        required_samples(1.0, 0.1, 2.5)


@pytest.mark.parametrize(
    "gamma, delta",
    [(math.nan, 0.1), (math.inf, 0.1), (1.5, math.nan), (1.5, math.inf), (math.nan, math.nan)],
)
def test_required_samples_refuses_non_finite_inputs(gamma, delta):
    with pytest.raises(InvalidArgument):
        required_samples(gamma, delta, 0.05)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Observable.z(3, -1),
        lambda: Observable.z(3, 3),
        lambda: Observable.z(3, 1.0),
        lambda: Observable.qubit_one_projector(3, 7),
        lambda: Observable.qubit_one_projector(3, -1),
        lambda: Observable.qubit_one_projector(3, True),
        lambda: Observable.projector(3, [9]),
        lambda: Observable.projector(3, [-1]),
        lambda: Observable.projector(3, [0.5]),
    ],
    ids=[
        "z-negative", "z-too-large", "z-float", "qubit-one-too-large", "qubit-one-negative",
        "qubit-one-bool", "projector-too-large", "projector-negative", "projector-float",
    ],
)
def test_observable_constructors_refuse_bad_indices(make):
    with pytest.raises(InvalidArgument):
        make()


def test_observable_constructors_accept_numpy_indices():
    assert Observable.z(3, np.int64(2)).payload.mask == 0b100
    assert list(Observable.projector(2, np.array([1, 3])).payload) == [False, True, False, True]
    assert Observable.qubit_one_projector(3, np.int32(2)).payload.sum() == 4


@pytest.mark.parametrize(
    "n_samples, shots",
    [(True, None), (np.bool_(True), None), (10.0, None), (10, 2.5), (10, True), (10, "4")],
)
def test_pec_estimate_refuses_non_integer_counts(n_samples, shots):
    c = _bell_pair().with_noise(P01)
    with pytest.raises(InvalidSamples):
        pec_estimate(c, Observable.z(2, 0), "std", n_samples, 1, shots=shots)


def test_pec_estimate_accepts_numpy_integer_counts():
    c = _bell_pair().with_noise(P01)
    obs = Observable.z(2, 0)
    plain = pec_estimate(c, obs, "std", 40, 3, shots=8)
    assert pec_estimate(c, obs, "std", np.int64(40), 3, shots=np.int32(8)) == plain


def test_estimator_report_serialization():
    c = _bell_pair().with_noise(P01)
    report = pec_estimate(c, Observable.z(2, 0), "hybrid", 64, 12)
    doc = report.to_dict()
    assert set(doc) == {
        "mean",
        "sample_variance",
        "n_samples",
        "gamma_used",
        "mode",
        "seed",
    }
    assert json.loads(report.to_json()) == doc
    assert doc["mode"] == "hybrid"
    assert doc["n_samples"] == 64
