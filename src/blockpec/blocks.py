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
from .classify import maximal_segments
from .conjugation import local_images
from .errors import BlockPecError, GuardExceeded, InvalidArgument, NotZClosed, Unsupported
from .gates import GateOp, is_real
from .noise import (
    NoiseSpec,
    ZMixtureChannel,
    fwht,
    invert_z_mixture,
    make_dephasing,
)
from .pauli import PauliZString

# Widest block correction built: a block whose noise reaches more qubits
# raises GuardExceeded before any 2^r array exists.
_REACH_GUARD_QUBITS = 20

# Block coefficients are Z-mixtures; the old name stays importable because
# perfbench/workloads.py uses it.
BlockCoefficients = ZMixtureChannel

# The mitigation modes: per-gate, one aggregated block, and segmented.
MODES = ("std", "blk", "hybrid")


def layer_distribution(g: GateOp, spec: NoiseSpec | None) -> ZMixtureChannel:
    """Quasi-distribution cancelling the noise of one gate treated as its own
    layer: the exact inverse of the given dephasing on the gate's support."""
    support = tuple(sorted(g.qubits))
    if spec is not None and not isinstance(spec, NoiseSpec):
        raise InvalidArgument(f"a noise tag must be None or a NoiseSpec, got {spec!r}")
    if spec is None or spec.is_noiseless():
        return ZMixtureChannel.identity(support)
    return invert_z_mixture(make_dephasing(spec, support))


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise GuardExceeded(f"{what} is {value}: the cost overflows float64")
    return value


class _GateTables:
    """What the engines need from each distinct gate and noise tag, derived
    once per public call: local generator images per (kind, angle) and, per
    (NoiseSpec, arity), the layer inverse with its gamma and the local Walsh
    expansion of the noise's log-eigenvalues. Nothing outlives the call."""

    def __init__(self):
        self._images: dict = {}
        self._noise: dict = {}
        self._layouts: dict = {}

    def images(self, op: GateOp) -> tuple[int | None, ...]:
        """conjugation.local_images(op) once per (kind, angle): the local mask
        (bit b = op.qubits[b]) of the image of each generator Z_{op.qubits[a]},
        None for one that leaves the Z-string group; () when the gate maps
        every generator to itself."""
        key = (op.kind, op.angle)
        images = self._images.get(key)
        if images is None:
            images = local_images(op)
            if all(m == 1 << a for a, m in enumerate(images)):
                images = ()
            self._images[key] = images
        return images

    def noise(self, op: GateOp, spec: NoiseSpec | None) -> tuple:
        """Per (spec, op arity): the coefficients of layer_distribution(op,
        spec), their gamma, g(u) = FWHT(log lambda)(u) / 2^m over the local
        strings u of the forward channel (local bit i = i-th qubit of the
        sorted support), so that log lambda(t) = sum_u g(u) (-1)^{|u & t|},
        or None when noiseless, and the coefficients' eigenvalues."""
        key = (spec, op.arity)
        if key not in self._noise:
            dist = layer_distribution(op, spec)
            g_hat = None
            if spec is not None and not spec.is_noiseless():
                lam = make_dephasing(spec, range(op.arity)).eigenvalues()
                g_hat = fwht(np.log(lam)) / len(lam)
            self._noise[key] = (dist.coeffs, dist.gamma(), g_hat, dist.eigenvalues())
        return self._noise[key]

    def layout(self, local: tuple, m: int) -> tuple:
        """Per span basis ``local`` on m qubits: the local mask of each span
        element (bit i = basis row i), and the element each local pattern t
        reads, whose bit i is the parity of t & local[i]."""
        key = (local, m)
        if key not in self._layouts:
            index = np.zeros(1, dtype=np.int64)
            for b in local:
                index = np.concatenate([index, index ^ b])
            pattern = np.zeros(1, dtype=np.int64)
            for q in range(m):
                column = sum((b >> q & 1) << i for i, b in enumerate(local))
                pattern = np.concatenate([pattern, pattern ^ column])
            self._layouts[key] = index, pattern
        return self._layouts[key]


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


def _block_span(c: Circuit, start: int, stop: int, tables: _GateTables) -> tuple:
    """The per-block bookkeeping of _walsh_engine, raising in circuit order:
    the local index of each span basis row, the support, and per arity m
    the span coordinates of the noisy ops' pushed masks (m per op, of its
    sorted qubits, flat) with each op's Walsh weights."""
    ops = c.ops[start:stop]
    compiled = []
    for op, tag in zip(ops, c.noise_tags[start:stop]):
        images = tables.images(op)
        if None in images:
            raise NotZClosed(op, PauliZString.single(c.n, op.qubits[images.index(None)]))
        compiled.append((images, tables.noise(op, tag)[2]))
    pushed = [1 << q for q in range(c.n)]
    rows_by_arity: dict[int, tuple[list, list]] = {}
    for op, (images, g_hat) in zip(reversed(ops), reversed(compiled)):
        if g_hat is not None:
            rows, weights = rows_by_arity.setdefault(op.arity, ([], []))
            rows.extend(pushed[q] for q in sorted(op.qubits))
            weights.append(g_hat)
        if images:
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
    for rows, _ in rows_by_arity.values():
        rows[:] = map(coord.get, rows)
    local = tuple(sum(1 << i for i, q in enumerate(support) if b >> q & 1) for b in basis)
    return local, support, rows_by_arity


def _walsh_engine(c: Circuit, runs, tables: _GateTables) -> list[tuple]:
    """The inverse of the effective noise of each block c.ops[start:stop] in
    ``runs``, as a Z-mixture computed in the Walsh (eigenvalue) domain, with
    its eigenvalues over the mixture's 2^m local patterns.

    Walking a block's ops backward keeps pushed[q], the mask that Z_q at the
    current point becomes at the block's end. A noisy op's channel, pushed
    to the end, has log-eigenvalue sum_u g(u) (-1)^{|mask(u) & T|}, where
    mask(u) is the XOR of pushed[q] over the qubits q of u. The composed
    channel's log-eigenvalues are therefore the Walsh transform of the
    histogram of g over those masks. Every mask lies in the GF(2) span of
    the pushed rows, so the histogram and both transforms live on the 2^r
    coordinates of that span. The result is scattered into the 2^m local
    vector of the m qubits the span's masks touch (r <= m <= the qubits the
    ops touch); masks outside the span stay exactly 0. The eigenvalues are
    the exponentials, exact to relative precision; the transform of the
    coefficients has an absolute error that grows with gamma.

    Bookkeeping runs per block (``_block_span``); the numbers run once per
    span rank r, as rows of one (blocks, 2^r) histogram and one pair of
    transforms. Each bin sums the same weights in the same order and each
    row gets the same butterflies as alone, so no coefficient depends on
    the batch. A failing block raises once the blocks before it are priced."""
    spans, failure = [], None
    for start, stop in runs:
        try:
            spans.append(_block_span(c, start, stop, tables))
        except BlockPecError as exc:
            failure = exc
            break
    out = [None] * len(spans)
    for rank in {len(local) for local, _, _ in spans}:
        members = [k for k, span in enumerate(spans) if len(span[0]) == rank]
        size = 1 << rank
        hist = np.zeros(len(members) * size)
        for m in sorted({m for k in members for m in spans[k][2]}):
            # Row b of the histogram holds block members[b].
            offsets, coords, weights = [], [], []
            for b, k in enumerate(members):
                rows, ws = spans[k][2].get(m, ((), ()))
                offsets += [b * size] * len(ws)
                coords += rows
                weights += ws
            index = np.repeat(np.array(offsets, dtype=np.int64)[:, None], 1 << m, axis=1)
            bits = np.arange(1 << m)
            coords = np.array(coords, dtype=np.int64).reshape(-1, m)
            for i in range(m):
                index ^= ((bits >> i) & 1) * coords[:, i : i + 1]
            hist += np.bincount(index.ravel(), np.concatenate(weights), len(hist))
        with np.errstate(over="ignore", invalid="ignore"):
            eigs = np.exp(-fwht(hist.reshape(-1, size)))
            coeffs = fwht(eigs) / size
        if not np.isfinite(coeffs).all():
            raise GuardExceeded("block coefficients overflow float64")
        for k, row, lam in zip(members, coeffs, eigs):
            local, support, _ = spans[k]
            index, pattern = tables.layout(local, len(support))
            vec = np.zeros(1 << len(support))
            vec[index] = row
            out[k] = (ZMixtureChannel(support, vec), lam[pattern])
    if failure is not None:
        raise failure
    return out


def block_coefficients(c: Circuit) -> ZMixtureChannel:
    """Aggregated control-layer coefficients of a fully compatible block, as
    a signed Z-mixture on the qubits the block's noise reaches (ascending).

    Computed in the Walsh domain (see ``_walsh_engine``): O(d) bookkeeping
    over the ops plus two transforms of length 2^r, r <= the number of
    qubits the noise reaches. Raises NotZClosed on incompatible gates,
    SingularChannel on non-invertible noise, UnsupportedKind on impure noise,
    GuardExceeded when the noise reaches more than 20 qubits or the
    coefficients overflow float64.

    Its ``.eigenvalues()`` stays the transform of these coefficients, whose
    error grows with gamma; ``mitigation_plan``'s block segments carry the
    engine's own.
    """
    return _walsh_engine(c, [(0, len(c.ops))], _GateTables())[0][0]


def gamma_std(c: Circuit) -> float:
    """Per-gate sampling cost: the product of per-layer L1 norms. Raises
    GuardExceeded when the product overflows float64."""
    tables = _GateTables()
    total = 1.0
    for op, tag in zip(c.ops, c.noise_tags):
        total *= tables.noise(op, tag)[1]
    return _finite(total, "gamma_std")


def gamma_blk(c: Circuit) -> float:
    """Aggregated-control sampling cost; always <= gamma_std."""
    return _finite(block_coefficients(c).gamma(), "gamma_blk")


@dataclass(frozen=True)
class PlanSegment:
    kind: str  # "block" | "per_gate"
    start: int
    stop: int
    gamma: float
    coeffs: ZMixtureChannel
    eigenvalues: np.ndarray  # of coeffs: a block's from _walsh_engine, else fwht(coeffs)


@dataclass(frozen=True)
class MitigationPlan:
    """Ordered, disjoint segments covering all ops; total_gamma is the
    product of segment costs."""

    segments: tuple[PlanSegment, ...]
    total_gamma: float

    def to_json(self) -> str:
        payload = []
        for seg in self.segments:
            masks = seg.coeffs.masks().tolist()
            pairs = [
                [masks[i], float(seg.coeffs.coeffs[i])]
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


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise InvalidArgument(f"unknown mode {mode!r}")


def mitigation_plan(c: Circuit, mode: str) -> MitigationPlan:
    """The corrections of one mode, each applied after its segment's last
    op: ``std`` has one per_gate segment per op, ``blk`` one block segment
    over all ops (block_coefficients), and ``hybrid`` block segments for the
    maximal runs of Z-closed gates with per_gate segments in between. The
    total is gamma_std, gamma_blk or the hybrid cost; an unknown mode raises
    InvalidArgument and an overflowing total GuardExceeded."""
    _check_mode(mode)
    tables = _GateTables()
    if mode == "std":
        runs = ()
    elif mode == "blk":
        runs = ((0, len(c.ops)),)
    else:
        runs = maximal_segments(None not in tables.images(op) for op in c.ops)
    stops = dict(runs)
    # Per-gate segments first, blocks as None; a failing op hands the engine
    # only the blocks before it, so the first failure in circuit order raises.
    segments, failure, i = [], None, 0
    while i < len(c.ops):
        if i in stops:
            segments.append(None)
            i = stops[i]
            continue
        try:
            coeffs, g, _, lam = tables.noise(c.ops[i], c.noise_tags[i])
        except BlockPecError as exc:
            failure, runs = exc, [r for r in runs if r[0] < i]
            break
        dist = ZMixtureChannel(tuple(sorted(c.ops[i].qubits)), coeffs.copy())
        segments.append(PlanSegment("per_gate", i, i + 1, g, dist, lam.copy()))
        i += 1
    mixes = _walsh_engine(c, runs, tables)
    if failure is not None:
        raise failure
    blocks = iter([PlanSegment("block", *run, mix.gamma(), mix, lam) for run, (mix, lam) in zip(runs, mixes)])
    segments = tuple(next(blocks) if seg is None else seg for seg in segments)
    total = math.prod((seg.gamma for seg in segments), start=1.0)
    return MitigationPlan(segments, _finite(total, f"{mode} total gamma"))


def hybrid_plan(c: Circuit) -> MitigationPlan:
    """mitigation_plan(c, "hybrid")."""
    return mitigation_plan(c, "hybrid")


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
    if not (is_real(p) and 0.0 < p < 0.5):
        raise InvalidArgument(f"p must lie in (0, 0.5), got {p!r}")
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


def pattern_circuit(pattern: str) -> Circuit:
    """Reference circuits matching ``analytic_pattern_gammas`` (angle 0.37)."""
    if pattern == "a":
        return Circuit(2, (GateOp("RZ", (1,), 0.37), GateOp("CNOT", (0, 1))))
    if pattern == "b":
        return Circuit(2, (GateOp("RZZ", (0, 1), 0.37), GateOp("CNOT", (0, 1))))
    if pattern == "c":
        return Circuit(3, (GateOp("RZZ", (1, 2), 0.37), GateOp("CNOT", (0, 1))))
    raise InvalidArgument(f"unknown pattern {pattern!r}")
