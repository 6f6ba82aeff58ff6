from __future__ import annotations

import numpy as np
import pytest

from blockpec.errors import InvalidArgument, SingularChannel, UnsupportedKind
from blockpec.noise import (
    NoiseSpec,
    PauliMixture,
    ZMixtureChannel,
    fwht,
    gamma_of,
    invert_z_mixture,
    make_dephasing,
    make_impure,
    taylor_inverse,
)


def test_fwht_basics():
    assert np.array_equal(fwht(np.array([3.0, 1.0])), [4.0, 2.0])
    v = np.array([0.5, 0.25, 0.125, 0.125])
    assert np.allclose(fwht(fwht(v)), 4.0 * v, atol=1e-15)
    # Kernel row for t=0b01 over [00, 01, 10, 11] is [1, -1, 1, -1].
    assert fwht(v)[1] == pytest.approx(0.5 - 0.25 + 0.125 - 0.125)
    with pytest.raises(InvalidArgument):
        fwht(np.ones(3))


def test_noise_spec_domains():
    spec = NoiseSpec("uncorrelated", 0.1)
    assert not spec.is_noiseless()
    assert NoiseSpec("uncorrelated", 0.0).is_noiseless()
    assert NoiseSpec("none").is_noiseless()
    with pytest.raises(InvalidArgument):
        NoiseSpec("uncorrelated", 0.5)
    with pytest.raises(InvalidArgument):
        NoiseSpec("correlated", -0.01)
    with pytest.raises(InvalidArgument):
        NoiseSpec("impure", 0.1)  # q required
    with pytest.raises(InvalidArgument):
        NoiseSpec("impure", 0.1, q=-1.0)
    with pytest.raises(InvalidArgument):
        NoiseSpec("flipflop", 0.1)


def test_noise_spec_json_round_trip():
    for spec in (
        NoiseSpec("uncorrelated", 0.05),
        NoiseSpec("correlated", 0.2),
        NoiseSpec("impure", 0.1, q=2.5),
        NoiseSpec("none"),
    ):
        assert NoiseSpec.from_json(spec.to_json()) == spec
    assert NoiseSpec.from_json('{"kind":"uncorrelated","p":0.1}') == NoiseSpec(
        "uncorrelated", 0.1
    )
    with pytest.raises(InvalidArgument):
        NoiseSpec.from_json("not json")
    with pytest.raises(InvalidArgument):
        NoiseSpec.from_json("[1,2]")
    with pytest.raises(InvalidArgument):
        NoiseSpec.from_dict({"p": 0.1})


def test_z_mixture_validation():
    with pytest.raises(InvalidArgument):
        ZMixtureChannel((0, 0), np.ones(4) / 4)
    with pytest.raises(InvalidArgument):
        ZMixtureChannel((0, 1), np.ones(2))
    ident = ZMixtureChannel.identity((0, 1))
    assert np.array_equal(ident.coeffs, [1.0, 0.0, 0.0, 0.0])
    assert ident.is_convex()
    assert ident.m == 2


def test_make_dephasing_uncorrelated():
    ch = make_dephasing(NoiseSpec("uncorrelated", 0.1), (0,))
    assert np.allclose(ch.coeffs, [0.9, 0.1], atol=1e-15)
    ch2 = make_dephasing(NoiseSpec("uncorrelated", 0.1), (0, 1))
    assert np.allclose(ch2.coeffs, [0.81, 0.09, 0.09, 0.01], atol=1e-15)
    assert ch2.is_convex()
    assert ch2.total() == pytest.approx(1.0)
    assert ch2.coeff_for((0, 1)) == pytest.approx(0.01)
    # Product structure: coeff(B) = (1-p)^(m-|B|) p^|B| for any support size.
    ch3 = make_dephasing(NoiseSpec("uncorrelated", 0.05), (0, 1, 2))
    for mask in range(8):
        w = bin(mask).count("1")
        assert ch3.coeff(mask) == pytest.approx(0.95 ** (3 - w) * 0.05**w)


def test_make_dephasing_correlated():
    ch = make_dephasing(NoiseSpec("correlated", 0.1), (0, 1))
    assert np.allclose(ch.coeffs, [0.9, 0.1 / 3, 0.1 / 3, 0.1 / 3], atol=1e-15)
    assert ch.is_convex()
    # All non-identity eigenvalues coincide at 1 - 4p/3.
    lam = ch.eigenvalues()
    assert lam[0] == pytest.approx(1.0)
    assert np.allclose(lam[1:], 1.0 - 0.4 / 3, atol=1e-15)


def test_make_dephasing_errors():
    with pytest.raises(InvalidArgument):
        make_dephasing(NoiseSpec("uncorrelated", 0.1), ())
    with pytest.raises(UnsupportedKind):
        make_dephasing(NoiseSpec("impure", 0.1, q=1.0), (0,))
    none_ch = make_dephasing(NoiseSpec("none"), (0, 1))
    assert np.array_equal(none_ch.coeffs, [1.0, 0.0, 0.0, 0.0])


def test_coeff_for_unknown_qubit():
    ch = make_dephasing(NoiseSpec("uncorrelated", 0.1), (1, 3))
    assert ch.coeff_for((3,)) == pytest.approx(0.09)
    with pytest.raises(InvalidArgument):
        ch.coeff_for((2,))


def test_exact_inverse_single_qubit():
    ch = make_dephasing(NoiseSpec("uncorrelated", 0.1), (0,))
    inv = invert_z_mixture(ch)
    assert np.allclose(inv.coeffs, [1.125, -0.125], atol=1e-15)
    assert inv.gamma() == pytest.approx(1.25)  # = 1/(1 - 2p)
    assert inv.total() == pytest.approx(1.0)
    assert not inv.is_convex()
    round_trip = ch.compose(inv)
    assert np.allclose(round_trip.coeffs, [1.0, 0.0], atol=1e-12)


def test_exact_inverse_two_qubit_product():
    ch = make_dephasing(NoiseSpec("uncorrelated", 0.1), (0, 1))
    inv = invert_z_mixture(ch)
    assert np.allclose(
        inv.coeffs, [1.265625, -0.140625, -0.140625, 0.015625], atol=1e-12
    )
    assert inv.gamma() == pytest.approx(1.5625)  # = (1/(1 - 2p))^2
    assert np.allclose(ch.compose(inv).coeffs, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_exact_inverse_correlated_closed_form():
    for p in (0.01, 0.1, 0.3):
        ch = make_dephasing(NoiseSpec("correlated", p), (0, 1))
        inv = invert_z_mixture(ch)
        c_id = (3.0 - p) / (3.0 - 4.0 * p)
        c_rest = -p / (3.0 - 4.0 * p)
        assert np.allclose(inv.coeffs, [c_id, c_rest, c_rest, c_rest], atol=1e-12)
        assert inv.gamma() == pytest.approx((3.0 + 2.0 * p) / (3.0 - 4.0 * p))
        assert np.allclose(
            ch.compose(inv).coeffs, [1.0, 0.0, 0.0, 0.0], atol=1e-12
        )


def test_singular_channel_rejected():
    with pytest.raises(SingularChannel):
        invert_z_mixture(ZMixtureChannel((0,), np.array([0.5, 0.5])))


def test_taylor_inverse():
    ch = make_dephasing(NoiseSpec("uncorrelated", 0.1), (0,))
    approx = taylor_inverse(ch)
    assert np.allclose(approx.coeffs, [1.1, -0.1], atol=1e-15)
    assert approx.gamma() == pytest.approx(1.2)
    composed = ch.compose(approx)
    # Residual eigenvalue error is O(p^2): 0.8 * 1.2 = 0.96 on the flip sector.
    assert composed.eigenvalues()[1] == pytest.approx(0.96)
    assert abs(composed.eigenvalues()[1] - 1.0) == pytest.approx(0.04)


def test_taylor_gamma_never_exceeds_exact():
    for p in np.linspace(0.01, 0.45, 23):
        ch = make_dephasing(NoiseSpec("uncorrelated", float(p)), (0,))
        assert taylor_inverse(ch).gamma() <= invert_z_mixture(ch).gamma() + 1e-12


def test_compose_is_eigenvalue_product():
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = ZMixtureChannel((0, 2), rng.uniform(-1, 1, size=4))
        b = ZMixtureChannel((0, 2), rng.uniform(-1, 1, size=4))
        prod = a.compose(b)
        assert np.allclose(
            prod.eigenvalues(), a.eigenvalues() * b.eigenvalues(), atol=1e-12
        )
    with pytest.raises(InvalidArgument):
        a.compose(ZMixtureChannel((0, 1), np.ones(4) / 4))


def test_make_impure_limits():
    fwd, inv = make_impure(0.12, 0.0)
    # q = 0 is depolarizing: equal X, Y, Z weights.
    assert np.allclose(fwd.coeffs, [0.88, 0.04, 0.04, 0.04], atol=1e-15)
    assert fwd.total() == pytest.approx(1.0)

    fwd_deph, _ = make_impure(0.12, 1e9)
    assert fwd_deph.coeffs[1] == pytest.approx(0.0, abs=1e-9)
    assert fwd_deph.coeffs[2] == pytest.approx(0.0, abs=1e-9)
    assert fwd_deph.coeffs[3] == pytest.approx(0.12, abs=1e-8)

    fwd0, inv0 = make_impure(0.0, 3.0)
    assert np.array_equal(fwd0.coeffs, [1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(inv0.coeffs, [1.0, -0.0, -0.0, -0.0])


def test_make_impure_inverse_gamma():
    for p, q in ((0.05, 0.0), (0.1, 1.0), (0.2, 7.5)):
        fwd, inv = make_impure(p, q)
        assert inv.total() == pytest.approx(1.0)
        assert gamma_of(inv) == pytest.approx(1.0 / (1.0 - 2.0 * p))
        assert inv.as_dict()["Z"] < 0
    with pytest.raises(InvalidArgument):
        make_impure(0.5, 1.0)
    with pytest.raises(InvalidArgument):
        make_impure(0.1, -0.5)


def test_non_finite_impure_bias_rejected():
    for q in (float("nan"), float("inf")):
        with pytest.raises(InvalidArgument):
            NoiseSpec("impure", 0.1, q)
        with pytest.raises(InvalidArgument):
            make_impure(0.1, q)


def test_pauli_mixture_validation():
    with pytest.raises(InvalidArgument):
        PauliMixture(0, np.ones(3))
    mix = PauliMixture(0, np.array([0.7, 0.1, 0.1, 0.1]))
    assert mix.as_dict() == {"I": 0.7, "X": 0.1, "Y": 0.1, "Z": 0.1}
    assert mix.gamma() == pytest.approx(1.0)


def test_gamma_of():
    assert gamma_of(ZMixtureChannel((0,), np.array([1.125, -0.125]))) == pytest.approx(
        1.25
    )
    assert gamma_of(PauliMixture(0, np.array([1.0, -0.25, 0.0, 0.25]))) == pytest.approx(
        1.5
    )
