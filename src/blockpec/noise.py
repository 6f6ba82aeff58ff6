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

NOISE_KINDS = ("uncorrelated", "correlated", "impure", "none")

_SINGULAR_TOL = 1e-12


def fwht(v: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform with the (-1)^{|a & b|} kernel (natural
    ordering), unnormalized: applying it twice multiplies by len(v)."""
    out = np.array(v, dtype=float, copy=True)
    size = len(out)
    if size & (size - 1):
        raise InvalidArgument(f"length {size} is not a power of two")
    h = 1
    while h < size:
        blocks = out.reshape(-1, 2 * h)
        lo, hi = blocks[:, :h].copy(), blocks[:, h:].copy()
        blocks[:, :h] = lo + hi
        blocks[:, h:] = lo - hi
        h *= 2
    return out


@dataclass(frozen=True)
class NoiseSpec:
    """Noise model tag: kind, flip probability p, and bias ratio q (impure)."""

    kind: str
    p: float = 0.0
    q: float | None = None

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise InvalidArgument(f"unknown noise kind {self.kind!r}")
        object.__setattr__(self, "p", float(self.p))
        if self.kind != "none":
            if not 0.0 <= self.p < 0.5:
                raise InvalidArgument(
                    f"p must lie in [0, 0.5), got {self.p} (inversion is singular "
                    "at p = 0.5)"
                )
        if self.kind == "impure":
            if self.q is None or not (math.isfinite(self.q) and self.q >= 0):
                raise InvalidArgument(f"impure noise requires a finite q >= 0, got {self.q}")
            object.__setattr__(self, "q", float(self.q))

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
    distributions.
    """

    support: tuple[int, ...]
    coeffs: np.ndarray

    def __post_init__(self):
        support = tuple(int(q) for q in self.support)
        if len(set(support)) != len(support):
            raise InvalidArgument(f"duplicate qubits in support {support}")
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.shape != (1 << len(support),):
            raise InvalidArgument(
                f"need {1 << len(support)} coefficients for support {support}, "
                f"got shape {coeffs.shape}"
            )
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def identity(cls, support=()) -> "ZMixtureChannel":
        coeffs = np.zeros(1 << len(tuple(support)))
        coeffs[0] = 1.0
        return cls(tuple(support), coeffs)

    @property
    def m(self) -> int:
        return len(self.support)

    def coeff(self, local_mask: int) -> float:
        return float(self.coeffs[local_mask])

    def coeff_for(self, qubits) -> float:
        """Coefficient of the Z-string on the given (global) qubit subset."""
        mask = 0
        index = {q: i for i, q in enumerate(self.support)}
        for q in qubits:
            if q not in index:
                raise InvalidArgument(f"qubit {q} not in support {self.support}")
            mask |= 1 << index[q]
        return self.coeff(mask)

    def eigenvalues(self) -> np.ndarray:
        return fwht(self.coeffs)

    def total(self) -> float:
        return float(self.coeffs.sum())

    def gamma(self) -> float:
        return float(np.abs(self.coeffs).sum())

    def is_convex(self, tol: float = 1e-12) -> bool:
        return bool(self.coeffs.min() >= -tol and abs(self.total() - 1.0) <= tol)

    def compose(self, other: "ZMixtureChannel") -> "ZMixtureChannel":
        """Channel composition (same support): XOR-convolution of coefficients,
        i.e. a pointwise product of eigenvalues."""
        if other.support != self.support:
            raise InvalidArgument("compose requires identical supports")
        lam = self.eigenvalues() * other.eigenvalues()
        return ZMixtureChannel(self.support, fwht(lam) / len(lam))


def make_dephasing(spec: NoiseSpec, support) -> ZMixtureChannel:
    """Dephasing channel on ``support`` for an uncorrelated/correlated spec.

    Uncorrelated: coeff(B) = (1-p)^(m-|B|) p^|B| (independent flips per
    qubit). Correlated: coeff(empty) = 1-p, every other string p/(2^m - 1).
    """
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
    pointwise and transform back. ch.compose(result) is the identity channel
    up to floating-point roundoff."""
    lam = ch.eigenvalues()
    if np.abs(lam).min() < _SINGULAR_TOL:
        raise SingularChannel(
            f"channel eigenvalue within {_SINGULAR_TOL} of zero; not invertible"
        )
    inv_coeffs = fwht(1.0 / lam) / len(lam)
    return ZMixtureChannel(ch.support, inv_coeffs)


def taylor_inverse(ch: ZMixtureChannel) -> ZMixtureChannel:
    """Order-1 truncated inverse of (1-p)I + p*A: returns (1+p)I - p*A.

    Cheaper but inexact: composing with the original channel leaves O(p^2)
    eigenvalue error.
    """
    coeffs = -np.array(ch.coeffs, copy=True)
    p = 1.0 + coeffs[0]  # p = 1 - coeff(identity)
    coeffs[0] = 1.0 + p
    return ZMixtureChannel(ch.support, coeffs)


@dataclass(frozen=True)
class PauliMixture:
    """Single-qubit channel with general Pauli terms (coefficients over
    I, X, Y, Z in that order), used only by ``make_impure``."""

    qubit: int
    coeffs: np.ndarray
    basis: str = "pauli"

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.shape != (4,):
            raise InvalidArgument("PauliMixture takes exactly 4 coefficients")
        object.__setattr__(self, "coeffs", coeffs)

    def as_dict(self) -> dict[str, float]:
        return dict(zip("IXYZ", (float(c) for c in self.coeffs)))

    def total(self) -> float:
        return float(self.coeffs.sum())

    def gamma(self) -> float:
        return float(np.abs(self.coeffs).sum())


def make_impure(p: float, q: float, qubit: int = 0) -> tuple[PauliMixture, PauliMixture]:
    """Dephasing-dominated channel with a tunable depolarizing admixture.

    Forward coefficients: I: 1-p, X: r, Y: r, Z: p(3q+1)/(3(q+1)) with
    r = p/(3(q+1)); q=0 is depolarizing, large q approaches pure dephasing.
    Returns (forward, closed-form inverse); the inverse is the standard
    first-order closed form gamma_1*((1-p)I - zc*Z - r*(X+Y)), exact only in
    the pure-dephasing limit.
    """
    if not 0.0 <= p < 0.5:
        raise InvalidArgument(f"p must lie in [0, 0.5), got {p}")
    if not (math.isfinite(q) and q >= 0):
        raise InvalidArgument(f"q must be finite and >= 0, got {q}")
    r = p / (3.0 * (q + 1.0))
    zc = p * (3.0 * q + 1.0) / (3.0 * (q + 1.0))
    forward = PauliMixture(qubit, np.array([1.0 - p, r, r, zc]))
    gamma1 = 1.0 / (1.0 - 2.0 * p)
    inverse = PauliMixture(
        qubit, gamma1 * np.array([1.0 - p, -r, -r, -zc])
    )
    return forward, inverse


def gamma_of(d) -> float:
    """Sampling cost of a quasi-distribution: the L1 norm of its coefficients."""
    return float(np.abs(np.asarray(d.coeffs, dtype=float)).sum())
