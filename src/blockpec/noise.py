"""Dephasing-type noise channels as signed mixtures of Z-strings.

A ``ZMixtureChannel`` stores real coefficients over the 2^m phase-flip
strings on its support. Such a mixture acts diagonally on the Pauli basis:
its eigenvalue on the X-support pattern ``t`` is the Walsh-Hadamard
transform of the coefficients, lambda(t) = sum_B c(B) (-1)^{|B & t|}. That
makes composition a pointwise eigenvalue product and exact inversion a
pointwise reciprocal.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, SingularChannel, UnsupportedKind
from .gates import integer, is_real

NOISE_KINDS = ("uncorrelated", "correlated", "impure", "none")

_SINGULAR_TOL = 1e-12


def fwht(v: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis with the (-1)^{|a & b|}
    kernel (natural ordering), unnormalized: applying it twice multiplies by
    the axis length. Every row gets the same butterflies as on its own.

    Constant-geometry form (Pease): each stage reads the even and odd
    entries, writes their sums and differences as the two contiguous halves
    of the other of two buffers, and so rotates the index bits right by one.
    Stage k therefore pairs the entries whose input indices differ in bit k,
    the even one first, which is the in-place radix-2 order h = 1, 2, 4, ...:
    every output is bitwise what that order gives, and after log2(size)
    stages the order is natural again."""
    out = np.array(v, dtype=float, copy=True)
    size = out.shape[-1] if out.ndim else 0
    if not out.ndim or size & (size - 1):
        raise InvalidArgument(f"length {size} is not a power of two")
    half = size // 2
    spare = np.empty_like(out)
    for _ in range(half.bit_length()):
        even, odd = out[..., 0::2], out[..., 1::2]
        np.add(even, odd, out=spare[..., :half])
        np.subtract(even, odd, out=spare[..., half:])
        out, spare = spare, out
    return out


def _real(name: str, value) -> float:
    if not is_real(value):
        raise InvalidArgument(f"noise {name} must be a real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class NoiseSpec:
    """Noise model tag: kind, flip probability p, and bias ratio q (impure)."""

    kind: str
    p: float = 0.0
    q: float | None = None

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise InvalidArgument(f"unknown noise kind {self.kind!r}")
        object.__setattr__(self, "p", _real("p", self.p))
        if self.kind != "none":
            if not 0.0 <= self.p < 0.5:
                raise InvalidArgument(
                    f"p must lie in [0, 0.5), got {self.p} (inversion is singular "
                    "at p = 0.5)"
                )
        if self.kind == "impure":
            q = None if self.q is None else _real("q", self.q)
            if q is None or not (math.isfinite(q) and q >= 0):
                raise InvalidArgument(f"impure noise requires a finite q >= 0, got {self.q}")
            object.__setattr__(self, "q", q)

    def is_noiseless(self) -> bool:
        return self.kind == "none" or self.p == 0.0

    def to_json(self) -> str:
        return json.dumps({"kind": self.kind, "p": self.p, "q": self.q})

    @classmethod
    def from_dict(cls, data: dict) -> "NoiseSpec":
        try:
            kind = data["kind"]
            p = data.get("p", 0.0)
            q = data.get("q")
        except (TypeError, KeyError, AttributeError) as exc:
            raise InvalidArgument(f"bad noise spec: {exc}") from exc
        return cls(kind=kind, p=p, q=q)

    @classmethod
    def from_json(cls, text: str) -> "NoiseSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidArgument(f"bad noise JSON: {exc}") from exc
        return cls.from_dict(data)


@dataclass(frozen=True)
class ZMixtureChannel:
    """Real coefficients over Z-strings on ``support``.

    Local mask bit i refers to qubit ``support[i]``. Convex coefficients model
    noise channels; signed coefficients (summing to 1) are quasi-probability
    distributions. Support qubits must be distinct non-negative integers and
    coefficients finite real numbers; anything else raises InvalidArgument.
    """

    support: tuple[int, ...]
    coeffs: np.ndarray

    def __post_init__(self):
        support = tuple(q if type(q) is int else integer(q, "support qubit") for q in self.support)
        if len(set(support)) != len(support):
            raise InvalidArgument(f"duplicate qubits in support {support}")
        if support and min(support) < 0:
            raise InvalidArgument(f"negative qubit in support {support}")
        try:
            coeffs = np.asarray(self.coeffs, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidArgument(f"coefficients must be real numbers: {exc}") from None
        if coeffs.shape != (1 << len(support),):
            raise InvalidArgument(
                f"need {1 << len(support)} coefficients for support {support}, "
                f"got shape {coeffs.shape}"
            )
        # count_nonzero has half the fixed cost of .all() on the small arrays
        # that plans build by the hundred.
        if np.count_nonzero(np.isfinite(coeffs)) < coeffs.size:
            raise InvalidArgument(f"coefficients must be finite, got {coeffs}")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "coeffs", coeffs)

    def __eq__(self, other):
        """Value equality: the same support and equal coefficients."""
        if not isinstance(other, ZMixtureChannel):
            return NotImplemented
        return self.support == other.support and np.array_equal(self.coeffs, other.coeffs)

    @classmethod
    def identity(cls, support=()) -> "ZMixtureChannel":
        support = tuple(support)
        coeffs = np.zeros(1 << len(support))
        coeffs[0] = 1.0
        return cls(support, coeffs)

    @property
    def m(self) -> int:
        return len(self.support)

    def masks(self) -> np.ndarray:
        """Global Z-string mask (bit q for qubit q) of each local index."""
        local = np.arange(len(self.coeffs))
        out = np.zeros(len(self.coeffs), dtype=np.int64)
        for i, q in enumerate(self.support):
            out |= ((local >> i) & 1) << q
        return out

    def is_identity(self) -> bool:
        """Whether the coefficients are exactly [1, 0, ...]: applying the
        mixture multiplies by exactly 1.0 and it has nothing to draw."""
        return bool(self.coeffs[0] == 1.0 and not self.coeffs[1:].any())

    def eigenvalues(self) -> np.ndarray:
        return fwht(self.coeffs)

    def gamma(self) -> float:
        return float(np.abs(self.coeffs).sum())


def make_dephasing(spec: NoiseSpec, support) -> ZMixtureChannel:
    """Dephasing channel on ``support`` for an uncorrelated/correlated spec.

    Uncorrelated: coeff(B) = (1-p)^(m-|B|) p^|B| (independent flips per
    qubit). Correlated: coeff(empty) = 1-p, every other string p/(2^m - 1).
    """
    if not isinstance(spec, NoiseSpec):
        raise InvalidArgument(f"need a NoiseSpec, got {spec!r}")
    support = tuple(support)
    m = len(support)
    if m < 1:
        raise InvalidArgument("support must contain at least one qubit")
    if spec.kind == "none":
        return ZMixtureChannel.identity(support)
    if spec.kind == "uncorrelated":
        p = spec.p
        coeffs = np.ones(1)
        for _ in range(m):
            coeffs = np.concatenate([coeffs * (1.0 - p), coeffs * p])
        return ZMixtureChannel(support, coeffs)
    if spec.kind == "correlated":
        size = 1 << m
        coeffs = np.full(size, spec.p / (size - 1))
        coeffs[0] = 1.0 - spec.p
        return ZMixtureChannel(support, coeffs)
    raise UnsupportedKind(f"make_dephasing cannot build kind {spec.kind!r}")


def invert_z_mixture(ch: ZMixtureChannel) -> ZMixtureChannel:
    """Exact inverse quasi-distribution: invert the Walsh-Hadamard eigenvalues
    pointwise and transform back, so the two eigenvalues multiply to 1 up to
    floating-point roundoff."""
    lam = ch.eigenvalues()
    if np.abs(lam).min() < _SINGULAR_TOL:
        raise SingularChannel(
            f"channel eigenvalue within {_SINGULAR_TOL} of zero; not invertible"
        )
    inv_coeffs = fwht(1.0 / lam) / len(lam)
    return ZMixtureChannel(ch.support, inv_coeffs)


def make_impure(p: float, q: float) -> np.ndarray:
    """Forward weights over (I, X, Y, Z) of a dephasing-dominated channel
    with a tunable depolarizing admixture: 1-p, r, r, p(3q+1)/(3(q+1)) with
    r = p/(3(q+1)); q=0 is depolarizing, large q approaches pure dephasing."""
    spec = NoiseSpec("impure", p, q)
    p, q = spec.p, spec.q
    r = p / (3.0 * (q + 1.0))
    return np.array([1.0 - p, r, r, p * (3.0 * q + 1.0) / (3.0 * (q + 1.0))])


def gamma_of(d) -> float:
    """Sampling cost of a quasi-distribution: the L1 norm of its coefficients."""
    return float(np.abs(np.asarray(d.coeffs, dtype=float)).sum())
