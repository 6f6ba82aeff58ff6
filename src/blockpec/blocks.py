"""Quasi-probability engines.

Standard PEC inverts each gate's noise right where it acts; the block engine
commutes every per-gate correction to the end of a compatible block and
aggregates them into a single signed distribution over phase-flip strings: a
``ZMixtureChannel`` on the qubits the block's noise reaches. Aggregation can
only shrink the L1 norm (triangle inequality), so gamma_blk <= gamma_std.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit
from .classify import classify_circuit
from .conjugation import generator_images
from .errors import GuardExceeded, InvalidArgument, SingularChannel, Unsupported
from .gates import GateOp
from .noise import (
    _SINGULAR_TOL,
    NoiseSpec,
    ZMixtureChannel,
    fwht,
    gamma_of,
    invert_z_mixture,
    make_dephasing,
)

# Widest block correction built: a block whose noise reaches more qubits
# raises GuardExceeded before any 2^r array exists.
_REACH_GUARD_QUBITS = 20

# Block coefficients are Z-mixtures; the old name stays importable because
# perfbench/workloads.py uses it.
BlockCoefficients = ZMixtureChannel


def layer_distribution(g: GateOp, spec: NoiseSpec | None) -> ZMixtureChannel:
    """Quasi-distribution cancelling the noise of one gate treated as its own
    layer: the exact inverse of the given dephasing on the gate's support."""
    support = tuple(sorted(g.qubits))
    if spec is None or spec.is_noiseless():
        return ZMixtureChannel.identity(support)
    return invert_z_mixture(make_dephasing(spec, support))


def _global_masks(dist: ZMixtureChannel) -> np.ndarray:
    """Global Z-string mask of each local coefficient index."""
    out = np.zeros(len(dist.coeffs), dtype=np.int64)
    for i, q in enumerate(dist.support):
        out |= ((np.arange(len(dist.coeffs)) >> i) & 1) << q
    return out


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise GuardExceeded(f"{what} is {value}: the cost overflows float64")
    return value


class _GateTables:
    """What the engines need from each distinct gate and noise tag, derived
    once per public call: local generator images per (kind, angle) and, per
    (NoiseSpec, arity), the layer inverse with its gamma and the local Walsh
    expansion of the noise's log-eigenvalues. Nothing outlives the call."""

    def __init__(self, n: int):
        self.n = n
        self._images: dict = {}
        self._layers: dict = {}
        self._log_walsh: dict = {}

    def local_images(self, op: GateOp) -> tuple[int, ...] | None:
        """Local mask (bit b = op.qubits[b]) of the image of each generator
        Z_{op.qubits[a]}; None when the gate maps every generator to itself.
        Raises NotZClosed for a gate that leaves the Z-string group."""
        key = (op.kind, op.angle)
        if key not in self._images:
            imgs = generator_images(op, self.n)
            local = tuple(
                sum(1 << b for b, qb in enumerate(op.qubits) if imgs[q] >> qb & 1)
                for q in op.qubits
            )
            identity = all(m == 1 << a for a, m in enumerate(local))
            self._images[key] = None if identity else local
        return self._images[key]

    def _layer(self, op: GateOp, spec: NoiseSpec | None) -> tuple[np.ndarray, float]:
        key = (spec, op.arity)
        if key not in self._layers:
            dist = layer_distribution(op, spec)
            self._layers[key] = (dist.coeffs, gamma_of(dist))
        return self._layers[key]

    def layer(self, op: GateOp, spec: NoiseSpec | None) -> ZMixtureChannel:
        """layer_distribution(op, spec)."""
        coeffs, _ = self._layer(op, spec)
        return ZMixtureChannel(tuple(sorted(op.qubits)), coeffs.copy())

    def layer_gamma(self, op: GateOp, spec: NoiseSpec | None) -> float:
        return self._layer(op, spec)[1]

    def log_walsh(self, op: GateOp, spec: NoiseSpec | None) -> np.ndarray | None:
        """g(u) = FWHT(log lambda)(u) / 2^m over the local strings u of the
        op's noise (local bit i = i-th qubit of the sorted support), so that
        log lambda(t) = sum_u g(u) (-1)^{|u & t|}; None when noiseless."""
        if spec is None or spec.is_noiseless():
            return None
        key = (spec, op.arity)
        if key not in self._log_walsh:
            lam = make_dephasing(spec, range(op.arity)).eigenvalues()
            if lam.min() < _SINGULAR_TOL:
                raise SingularChannel(
                    f"channel eigenvalue within {_SINGULAR_TOL} of zero; "
                    "not invertible"
                )
            self._log_walsh[key] = fwht(np.log(lam)) / len(lam)
        return self._log_walsh[key]


def _xor_of(rows, local_mask: int) -> int:
    out = 0
    for b, row in enumerate(rows):
        if local_mask >> b & 1:
            out ^= row
    return out


def _span_basis(rows) -> list[int]:
    """Reduced row-echelon basis of the GF(2) span of integer masks, in
    ascending pivot (highest set bit) order. No basis row has another row's
    pivot bit set, so a span element's coordinates are its pivot bits."""
    basis: dict[int, int] = {}
    for v in rows:
        while v:
            p = v.bit_length() - 1
            if p not in basis:
                basis[p] = v
                break
            v ^= basis[p]
    pivots = sorted(basis)
    for i, p in enumerate(pivots):
        for q in pivots[i + 1 :]:
            if basis[q] >> p & 1:
                basis[q] ^= basis[p]
    return [basis[p] for p in pivots]


def _walsh_engine(c: Circuit, tables: _GateTables, sign: float) -> ZMixtureChannel:
    """The block's effective noise (sign=+1) or its inverse (sign=-1) as a
    Z-mixture, computed in the Walsh (eigenvalue) domain.

    Walking the ops backward keeps pushed[q], the mask that Z_q at the
    current point becomes at the block's end. A noisy op's channel, pushed to
    the end, has log-eigenvalue sum_u g(u) (-1)^{|mask(u) & T|}, where
    mask(u) is the XOR of pushed[q] over the qubits q of u. The composed
    channel's log-eigenvalues are therefore the Walsh transform of the
    histogram of g over those masks. Every mask lies in the GF(2) span of the
    pushed rows, so the histogram and both transforms live on the 2^r
    coordinates of that span. The result is scattered into the 2^m local
    vector of the m qubits the span's masks touch (r <= m <= the qubits the
    ops touch); masks outside the span stay exactly 0.
    """
    # Compile in circuit order so that the first offending op raises.
    compiled = [
        (tables.local_images(op), tables.log_walsh(op, tag))
        for op, tag in zip(c.ops, c.noise_tags)
    ]
    pushed = [1 << q for q in range(c.n)]
    # Per arity m: the pushed masks of each noisy op's sorted qubits (m per
    # op, flat) and the op's Walsh weights.
    rows_by_arity: dict[int, tuple[list, list]] = {}
    for op, (images, g_hat) in zip(reversed(c.ops), reversed(compiled)):
        if g_hat is not None:
            rows, weights = rows_by_arity.setdefault(op.arity, ([], []))
            rows.extend(pushed[q] for q in sorted(op.qubits))
            weights.append(g_hat)
        if images is not None:
            before = [pushed[q] for q in op.qubits]
            for q, image in zip(op.qubits, images):
                pushed[q] = _xor_of(before, image)
    masks = {mask for rows, _ in rows_by_arity.values() for mask in rows}
    basis = _span_basis(masks)
    reach = 0
    for b in basis:
        reach |= b
    support = tuple(q for q in range(reach.bit_length()) if reach >> q & 1)
    if len(support) > _REACH_GUARD_QUBITS:
        raise GuardExceeded(
            f"block noise reaches {len(support)} qubits > {_REACH_GUARD_QUBITS}"
        )
    # A span element's coordinates are its pivot bits.
    pivots = [b.bit_length() - 1 for b in basis]
    coord = {mask: sum(1 << j for j, p in enumerate(pivots) if mask >> p & 1) for mask in masks}
    size = 1 << len(basis)
    hist = np.zeros(size)
    for m, (rows, weights) in sorted(rows_by_arity.items()):
        coords = np.fromiter(map(coord.get, rows), np.int64, len(rows)).reshape(-1, m)
        local = np.arange(1 << m)
        index = np.zeros((len(coords), 1 << m), dtype=np.int64)
        for i in range(m):
            index ^= ((local >> i) & 1)[None, :] * coords[:, i : i + 1]
        hist += np.bincount(
            index.ravel(), weights=np.concatenate(weights), minlength=size
        )
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = fwht(np.exp(sign * fwht(hist))) / size
    if not np.isfinite(coeffs).all():
        raise GuardExceeded("block coefficients overflow float64")
    # Span element k (bit j = basis row j) goes to its mask's local index.
    index = np.zeros(1, dtype=np.int64)
    for b in basis:
        local_b = sum(1 << i for i, q in enumerate(support) if b >> q & 1)
        index = np.concatenate([index, index ^ local_b])
    out = np.zeros(1 << len(support))
    out[index] = coeffs
    return ZMixtureChannel(support, out)


def block_coefficients(c: Circuit) -> ZMixtureChannel:
    """Aggregated control-layer coefficients of a fully compatible block, as
    a signed Z-mixture on the qubits the block's noise reaches (ascending).

    Computed in the Walsh domain (see ``_walsh_engine``): O(d) bookkeeping
    over the ops plus two transforms of length 2^r, r <= the number of
    qubits the noise reaches. Raises NotZClosed on incompatible gates,
    SingularChannel on non-invertible noise, UnsupportedKind on impure noise,
    GuardExceeded when the noise reaches more than 20 qubits or the
    coefficients overflow float64.
    """
    return _walsh_engine(c, _GateTables(c.n), -1.0)


def effective_noise(c: Circuit) -> ZMixtureChannel:
    """All per-gate noise channels commuted to the end and composed: the
    single Z-mixture N_eff with (noisy circuit) = N_eff o (ideal circuit),
    on the qubits the noise reaches.

    The same Walsh-domain computation as block_coefficients, with the
    log-eigenvalues taken positive instead of negated."""
    return _walsh_engine(c, _GateTables(c.n), 1.0)


def gamma_std(c: Circuit) -> float:
    """Per-gate sampling cost: the product of per-layer L1 norms. Raises
    GuardExceeded when the product overflows float64."""
    tables = _GateTables(c.n)
    total = 1.0
    for op, tag in zip(c.ops, c.noise_tags):
        total *= tables.layer_gamma(op, tag)
    return _finite(total, "gamma_std")


def gamma_blk(c: Circuit) -> float:
    """Aggregated-control sampling cost; always <= gamma_std."""
    return _finite(block_coefficients(c).gamma(), "gamma_blk")


def fold_noisy_controls(
    b: ZMixtureChannel, spec: NoiseSpec | None
) -> ZMixtureChannel:
    """Rewrite the perfect-control distribution over noisy controls.

    Each nontrivial control V' is realized as (dephasing on its support)
    followed by V', so the perfect V' expands with the inverse of that
    dephasing: beta_{V'}(W) = inv(W xor V'). The identity control needs no
    gate and stays noiseless. Its L1 norm can only grow: gamma(delta) >=
    gamma(alpha). The inverse depends only on how many qubits V' touches, so
    it is built on the local bit positions of V' and XORed into local masks.
    """
    if spec is None or spec.is_noiseless():
        return ZMixtureChannel(b.support, b.coeffs.copy())
    delta = np.zeros(len(b.coeffs))
    delta[0] = b.coeffs[0]
    for mask in np.flatnonzero(b.coeffs).tolist():
        if mask == 0:
            continue
        positions = tuple(i for i in range(b.m) if mask >> i & 1)
        inv = invert_z_mixture(make_dephasing(spec, positions))
        for local, beta in zip(_global_masks(inv), inv.coeffs):
            delta[mask ^ local] += b.coeffs[mask] * beta
    return ZMixtureChannel(b.support, delta)


@dataclass(frozen=True)
class PlanSegment:
    kind: str  # "block" | "per_gate"
    start: int
    stop: int
    gamma: float
    coeffs: ZMixtureChannel


@dataclass(frozen=True)
class MitigationPlan:
    """Ordered, disjoint segments covering all ops; total_gamma is the
    product of segment costs."""

    segments: tuple[PlanSegment, ...]
    total_gamma: float

    def to_json(self) -> str:
        payload = []
        for seg in self.segments:
            bits = [1 << q for q in seg.coeffs.support]
            pairs = [
                [_xor_of(bits, i), float(seg.coeffs.coeffs[i])]
                for i in np.flatnonzero(seg.coeffs.coeffs).tolist()
            ]
            payload.append(
                {
                    "type": seg.kind,
                    "op_range": [seg.start, seg.stop],
                    "gamma": seg.gamma,
                    "coeffs": pairs,
                }
            )
        return json.dumps({"segments": payload, "total_gamma": self.total_gamma})


def hybrid_plan(c: Circuit) -> MitigationPlan:
    """Block segments for maximal compatible runs, per-gate inversion for
    everything else. A circuit with no compatible gate degenerates to
    standard PEC with the same total cost."""
    report = classify_circuit(c)
    runs = dict(report.segments)
    tables = _GateTables(c.n)
    segments: list[PlanSegment] = []
    total = 1.0
    i = 0
    while i < len(c.ops):
        if i in runs:
            start, stop = i, runs[i]
            coeffs = _walsh_engine(c.subcircuit(start, stop), tables, -1.0)
            g = coeffs.gamma()
            segments.append(PlanSegment("block", start, stop, g, coeffs))
            i = stop
        else:
            dist = tables.layer(c.ops[i], c.noise_tags[i])
            g = tables.layer_gamma(c.ops[i], c.noise_tags[i])
            segments.append(PlanSegment("per_gate", i, i + 1, g, dist))
            i += 1
        total *= g
    return MitigationPlan(tuple(segments), _finite(total, "hybrid total gamma"))


def analytic_pattern_gammas(
    pattern: str, p: float, correlated: bool = False
) -> tuple[float, float]:
    """Closed-form (gamma_std, gamma_blk) for the three two-layer motifs.

    Patterns: 'a' = 1q rotation then CNOT on the same target; 'b' = 2q
    rotation then CNOT on the same pair; 'c' = 2q rotation then CNOT
    overlapping on one qubit. The correlated variant exists for 'b' only.
    """
    if pattern not in ("a", "b", "c"):
        raise InvalidArgument(f"unknown pattern {pattern!r}")
    if not 0.0 < p < 0.5:
        raise InvalidArgument(f"p must lie in (0, 0.5), got {p}")
    if correlated:
        if pattern != "b":
            raise Unsupported(
                f"no closed form for correlated pattern {pattern!r}"
            )
        g_layer = (3.0 + 2.0 * p) / (3.0 - 4.0 * p)
        g_std = g_layer**2
        g_blk = (9.0 + 12.0 * p - 8.0 * p * p) / (3.0 - 4.0 * p) ** 2
        return g_std, g_blk
    g1 = 1.0 / (1.0 - 2.0 * p)
    if pattern == "a":
        return g1**3, (1.0 + 2.0 * p - 2.0 * p * p) * g1**2
    if pattern == "b":
        return g1**4, (1.0 + 2.0 * p - 6.0 * p * p + 4.0 * p**3) * g1**3
    return g1**4, (1.0 + 2.0 * p - 2.0 * p * p) * g1**3


def pattern_circuit(pattern: str, theta: float = 0.37) -> Circuit:
    """Reference circuits matching ``analytic_pattern_gammas``."""
    if pattern == "a":
        return Circuit(2, (GateOp("RZ", (1,), theta), GateOp("CNOT", (0, 1))))
    if pattern == "b":
        return Circuit(2, (GateOp("RZZ", (0, 1), theta), GateOp("CNOT", (0, 1))))
    if pattern == "c":
        return Circuit(3, (GateOp("RZZ", (1, 2), theta), GateOp("CNOT", (0, 1))))
    raise InvalidArgument(f"unknown pattern {pattern!r}")
