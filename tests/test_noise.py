from __future__ import annotations

import numpy as np
import pytest

from blockpec.errors import InvalidArgument, SingularChannel, UnsupportedKind
from blockpec.noise import (
    NoiseSpec,
    ZMixtureChannel,
    fwht,
    gamma_of,
    invert_z_mixture,
    make_dephasing,
    make_impure,
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
    assert ident.m == 2


@pytest.mark.parametrize(
    "coeffs, match",
    [([np.nan, 0.0], "finite"), ([np.inf, 0.0], "finite"), ([0.5, -np.inf], "finite"),
     ([1j, 0.0], "real numbers"), (["a", 0.0], "real numbers")],
    ids=["nan", "inf", "minus-inf", "complex", "string"],
)
def test_z_mixture_refuses_coefficients_it_cannot_represent(coeffs, match):
    with pytest.raises(InvalidArgument, match=match):
        ZMixtureChannel((0,), coeffs)


@pytest.mark.parametrize(
    "support", [(-1,), (0, -2), (1.5,), ("0",), (True,)],
    ids=["negative", "second-negative", "fraction", "string", "bool"],
)
def test_z_mixture_refuses_support_qubits_that_are_not_indices(support):
    # A negative qubit would shift into no mask bit, and 1.5 would be qubit 1.
    with pytest.raises(InvalidArgument):
        ZMixtureChannel(support, np.eye(1 << len(support))[0])
    with pytest.raises(InvalidArgument):
        make_dephasing(NoiseSpec("uncorrelated", 0.1), support)
    mix = ZMixtureChannel((np.int64(2),), [1.0, 0.0])
    assert mix.support == (2,) and type(mix.support[0]) is int


def test_identity_reads_a_one_shot_support_once():
    ident = ZMixtureChannel.identity(q for q in (0, 3))
    assert ident.support == (0, 3)
    assert np.array_equal(ident.coeffs, [1.0, 0.0, 0.0, 0.0])


def test_masks_follow_the_support_bits():
    rng = np.random.default_rng(17)
    for _ in range(30):
        m = int(rng.integers(0, 5))
        support = tuple(int(q) for q in rng.permutation(12)[:m])
        mix = ZMixtureChannel(support, rng.standard_normal(1 << m))
        want = [
            sum(1 << q for i, q in enumerate(support) if local >> i & 1)
            for local in range(1 << m)
        ]
        assert mix.masks().tolist() == want


def test_is_identity_only_for_exactly_one_then_zeros():
    assert ZMixtureChannel.identity().is_identity()
    assert ZMixtureChannel.identity((2, 0)).is_identity()
    assert ZMixtureChannel((1,), [1.0, -0.0]).is_identity()
    for coeffs in ([1.0, 1e-300], [np.nextafter(1.0, 0.0), 0.0], [2.0, 0.0], [0.0, 1.0], [1.0, -1.0]):
        assert not ZMixtureChannel((0,), coeffs).is_identity(), coeffs
    assert not ZMixtureChannel((), [0.5]).is_identity()
    assert not make_dephasing(NoiseSpec("uncorrelated", 0.1), (0, 1)).is_identity()


def test_make_dephasing_uncorrelated():
    ch = make_dephasing(NoiseSpec("uncorrelated", 0.1), (0,))
    assert np.allclose(ch.coeffs, [0.9, 0.1], atol=1e-15)
    ch2 = make_dephasing(NoiseSpec("uncorrelated", 0.1), (0, 1))
    assert np.allclose(ch2.coeffs, [0.81, 0.09, 0.09, 0.01], atol=1e-15)
    assert ch2.coeffs.min() >= 0.0
    assert ch2.coeffs.sum() == pytest.approx(1.0)
    # Product structure: coeff(B) = (1-p)^(m-|B|) p^|B| for any support size.
    ch3 = make_dephasing(NoiseSpec("uncorrelated", 0.05), (0, 1, 2))
    for mask in range(8):
        w = bin(mask).count("1")
        assert ch3.coeffs[mask] == pytest.approx(0.95 ** (3 - w) * 0.05**w)


def test_make_dephasing_correlated():
    ch = make_dephasing(NoiseSpec("correlated", 0.1), (0, 1))
    assert np.allclose(ch.coeffs, [0.9, 0.1 / 3, 0.1 / 3, 0.1 / 3], atol=1e-15)
    assert ch.coeffs.min() >= 0.0 and ch.coeffs.sum() == pytest.approx(1.0)
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


def test_exact_inverse_single_qubit():
    ch = make_dephasing(NoiseSpec("uncorrelated", 0.1), (0,))
    inv = invert_z_mixture(ch)
    assert np.allclose(inv.coeffs, [1.125, -0.125], atol=1e-15)
    assert inv.gamma() == pytest.approx(1.25)  # = 1/(1 - 2p)
    assert inv.coeffs.sum() == pytest.approx(1.0)
    assert inv.coeffs.min() < 0.0
    # The round trip is the identity channel: every eigenvalue product is 1.
    assert np.allclose(ch.eigenvalues() * inv.eigenvalues(), 1.0, atol=1e-12)


def test_exact_inverse_two_qubit_product():
    ch = make_dephasing(NoiseSpec("uncorrelated", 0.1), (0, 1))
    inv = invert_z_mixture(ch)
    assert np.allclose(
        inv.coeffs, [1.265625, -0.140625, -0.140625, 0.015625], atol=1e-12
    )
    assert inv.gamma() == pytest.approx(1.5625)  # = (1/(1 - 2p))^2
    assert np.allclose(ch.eigenvalues() * inv.eigenvalues(), 1.0, atol=1e-12)


def test_exact_inverse_correlated_closed_form():
    for p in (0.01, 0.1, 0.3):
        ch = make_dephasing(NoiseSpec("correlated", p), (0, 1))
        inv = invert_z_mixture(ch)
        c_id = (3.0 - p) / (3.0 - 4.0 * p)
        c_rest = -p / (3.0 - 4.0 * p)
        assert np.allclose(inv.coeffs, [c_id, c_rest, c_rest, c_rest], atol=1e-12)
        assert inv.gamma() == pytest.approx((3.0 + 2.0 * p) / (3.0 - 4.0 * p))
        assert np.allclose(ch.eigenvalues() * inv.eigenvalues(), 1.0, atol=1e-12)


def test_singular_channel_rejected():
    with pytest.raises(SingularChannel):
        invert_z_mixture(ZMixtureChannel((0,), np.array([0.5, 0.5])))


def test_make_impure_limits():
    fwd = make_impure(0.12, 0.0)
    # q = 0 is depolarizing: equal X, Y, Z weights.
    assert np.allclose(fwd, [0.88, 0.04, 0.04, 0.04], atol=1e-15)
    assert fwd.sum() == pytest.approx(1.0)

    fwd_deph = make_impure(0.12, 1e9)
    assert fwd_deph[1] == pytest.approx(0.0, abs=1e-9)
    assert fwd_deph[2] == pytest.approx(0.0, abs=1e-9)
    assert fwd_deph[3] == pytest.approx(0.12, abs=1e-8)

    assert np.array_equal(make_impure(0.0, 3.0), [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(InvalidArgument):
        make_impure(0.5, 1.0)
    with pytest.raises(InvalidArgument):
        make_impure(0.1, -0.5)
    # p and q must be real numbers: no strings, and no bools read as 0 or 1.
    for p, q in (("0.1", 1.0), (0.1, "1"), (False, 1.0), (0.1, True)):
        with pytest.raises(InvalidArgument):
            make_impure(p, q)
    assert np.array_equal(make_impure(np.float64(0.12), 0), fwd)


def test_non_finite_impure_bias_rejected():
    for q in (float("nan"), float("inf")):
        with pytest.raises(InvalidArgument):
            NoiseSpec("impure", 0.1, q)
        with pytest.raises(InvalidArgument):
            make_impure(0.1, q)


def test_noise_spec_numbers_must_be_real():
    for data in (
        {"kind": "uncorrelated", "p": "x"},
        {"kind": "uncorrelated", "p": [0.1]},
        {"kind": "none", "p": {}},
        {"kind": "impure", "p": 0.1, "q": "x"},
        {"kind": "impure", "p": 0.1, "q": [1.0]},
        {"kind": "uncorrelated", "p": "0.1"},
        {"kind": "none", "p": True},
        {"kind": "impure", "p": 0.1, "q": True},
    ):
        with pytest.raises(InvalidArgument):
            NoiseSpec.from_dict(data)
    with pytest.raises(InvalidArgument):
        NoiseSpec("uncorrelated", "0.1")
    with pytest.raises(InvalidArgument):
        NoiseSpec("impure", 0.1, True)
    # Ints and numpy floats are real numbers.
    spec = NoiseSpec("impure", np.float64(0.25), 2)
    assert (spec.p, spec.q) == (0.25, 2.0) and type(spec.p) is float and type(spec.q) is float
    assert NoiseSpec("none", 0).p == 0.0


def test_gamma_of():
    assert gamma_of(ZMixtureChannel((0,), np.array([1.125, -0.125]))) == pytest.approx(
        1.25
    )


def test_fwht_acts_on_the_last_axis_row_by_row():
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(3, 8))
    out = fwht(rows)
    for row, got in zip(rows, out):
        assert got.tobytes() == fwht(row).tobytes()
    assert fwht(rows[None]).tobytes() == out.tobytes()
    assert out.shape == (3, 8) and rows.shape == (3, 8)
    with pytest.raises(InvalidArgument):
        fwht(np.ones((2, 3)))
    with pytest.raises(InvalidArgument):
        fwht(np.float64(1.0))


@pytest.mark.parametrize("spec", ["x", 0.1, {"kind": "uncorrelated", "p": 0.1}])
def test_make_dephasing_refuses_a_spec_that_is_not_a_noise_spec(spec):
    with pytest.raises(InvalidArgument, match="NoiseSpec"):
        make_dephasing(spec, (0,))
