"""Benchmark circuit families.

All randomized families use a counter-based PRNG (Philox 4x64) keyed by the
caller's seed plus a per-family salt, and record the PRNG name in circuit
metadata so outputs are re-runnable bit-for-bit.
"""

from __future__ import annotations

import math

import numpy as np

from .circuits import Circuit
from .errors import DegenerateVector, InvalidArgument
from .gates import GateOp, expand_composite

PRNG_NAME = "philox4x64-v1"

_FAMILY_SALT = {
    "random_bp": 0xA1,
    "swap_network": 0xA2,
    "rbs_pyramid": 0xA3,
    "option_payoff": 0xA4,
    "unary_loader": 0xA5,
}

_TWO_PI = 2.0 * math.pi


def _rng(seed: int, family: str) -> np.random.Generator:
    key = np.array([int(seed) & (2**64 - 1), _FAMILY_SALT[family]], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def rbs_sequence(j: int, k: int, theta: float) -> list[GateOp]:
    """Three-gate compiled form of a beam-splitter interaction on (j, k):
    CNOT, then an X-controlled Z rotation, then CNOT again."""
    return [
        GateOp("CNOT", (j, k)),
        GateOp("XCZ", (j, k), theta),
        GateOp("CNOT", (j, k)),
    ]


def _swap_sequence(a: int, b: int, decompose: bool) -> list[GateOp]:
    if decompose:
        return [GateOp("CNOT", (a, b)), GateOp("CNOT", (b, a)), GateOp("CNOT", (a, b))]
    return [GateOp("SWAP", (a, b))]


def gen_random_bp(n: int, seed: int) -> Circuit:
    """n+1 gates drawn uniformly from {X, Z, CNOT, RZ, RZZ, CZ} with uniform
    qubit placement (distinct ordered pairs for two-qubit kinds) and angles
    uniform in [0, 2*pi)."""
    if n < 2:
        raise InvalidArgument(f"random_bp needs n >= 2, got {n}")
    rng = _rng(seed, "random_bp")
    kinds = ("X", "Z", "CNOT", "RZ", "RZZ", "CZ")
    ops = []
    for _ in range(n + 1):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        if kind in ("X", "Z", "RZ"):
            qubits = (int(rng.integers(0, n)),)
        else:
            a = int(rng.integers(0, n))
            b = int(rng.integers(0, n - 1))
            if b >= a:
                b += 1
            qubits = (a, b)
        theta = float(rng.uniform(0.0, _TWO_PI)) if kind in ("RZ", "RZZ") else None
        ops.append(GateOp(kind, qubits, theta))
    meta = {"family": "random_bp", "n": n, "seed": int(seed), "prng": PRNG_NAME}
    return Circuit(n, tuple(ops), meta=meta)


def gen_swap_network(
    n: int,
    depth_factor: float,
    interaction: str,
    seed: int,
    decompose_swap: bool = True,
) -> Circuit:
    """Brick-pattern network: depth_factor*n alternating layers of adjacent
    pairs, each pair applying the interaction (random angle) and then a SWAP
    compiled as 3 CNOTs (or left native with decompose_swap=False)."""
    if n < 2:
        raise InvalidArgument(f"swap_network needs n >= 2, got {n}")
    if interaction not in ("rzz", "rbs"):
        raise InvalidArgument(f"interaction must be 'rzz' or 'rbs', got {interaction!r}")
    if not (math.isfinite(depth_factor) and depth_factor > 0):
        raise InvalidArgument(f"depth_factor must be finite and positive, got {depth_factor}")
    rng = _rng(seed, "swap_network")
    ops = []
    for layer in range(int(round(depth_factor * n))):
        for i in range(layer % 2, n - 1, 2):
            theta = float(rng.uniform(0.0, _TWO_PI))
            if interaction == "rzz":
                ops.append(GateOp("RZZ", (i, i + 1), theta))
            else:
                ops.extend(rbs_sequence(i, i + 1, theta))
            ops.extend(_swap_sequence(i, i + 1, decompose_swap))
    meta = {
        "family": "swap_network",
        "n": n,
        "depth_factor": depth_factor,
        "interaction": interaction,
        "seed": int(seed),
        "prng": PRNG_NAME,
    }
    return Circuit(n, tuple(ops), meta=meta)


def _pyramid_pairs(n: int) -> list[tuple[int, int]]:
    """Nearest-neighbor pyramid schedule: diagonals growing from the top wire,
    n(n-1)/2 pairs in total."""
    pairs = []
    for start in range(n - 1):
        for j in range(start, -1, -1):
            pairs.append((j, j + 1))
    return pairs


def gen_rbs_pyramid(n: int, angles=None, seed: int | None = None) -> Circuit:
    """X on qubit 0 (seeding a one-hot state) followed by the pyramid of
    beam-splitter interactions, each compiled to the 3-gate sequence."""
    if n < 2:
        raise InvalidArgument(f"rbs_pyramid needs n >= 2, got {n}")
    pairs = _pyramid_pairs(n)
    if angles is None:
        if seed is None:
            raise InvalidArgument("rbs_pyramid needs angles or a seed")
        rng = _rng(seed, "rbs_pyramid")
        angles = [float(rng.uniform(0.0, _TWO_PI)) for _ in pairs]
    angles = [float(a) for a in angles]
    if len(angles) != len(pairs):
        raise InvalidArgument(f"rbs_pyramid n={n} needs {len(pairs)} angles, got {len(angles)}")
    ops = [GateOp("X", (0,))]
    for (j, k), theta in zip(pairs, angles):
        ops.extend(rbs_sequence(j, k, theta))
    meta = {"family": "rbs_pyramid", "n": n, "prng": PRNG_NAME}
    if seed is not None:
        meta["seed"] = int(seed)
    return Circuit(n, tuple(ops), meta=meta)


def gen_option_payoff(n: int, angles=None, seed: int | None = None) -> Circuit:
    """Payoff rotation network on n register qubits plus one ancilla (the last
    qubit): Y(theta_0) on the ancilla, then for j = 1..n a controlled-Y of
    theta_j with control j-1 and target the ancilla. Y rotations are expanded
    into {Z, S, H, RZ} and controlled-Y into two CNOTs plus two half-angle Y
    rotations, so only the H gates break Z-string compatibility."""
    if n < 1:
        raise InvalidArgument(f"option_payoff needs n >= 1, got {n}")
    n_angles = n + 1
    if angles is None:
        if seed is None:
            raise InvalidArgument("option_payoff needs angles or a seed")
        rng = _rng(seed, "option_payoff")
        angles = [float(rng.uniform(0.0, _TWO_PI)) for _ in range(n_angles)]
    angles = [float(a) for a in angles]
    if len(angles) != n_angles:
        raise InvalidArgument(f"option_payoff n={n} needs {n_angles} angles, got {len(angles)}")
    ancilla = n
    ops = list(expand_composite(GateOp("RY", (ancilla,), angles[0])))
    for j in range(1, n + 1):
        ops.extend(expand_composite(GateOp("CRY", (j - 1, ancilla), angles[j])))
    meta = {"family": "option_payoff", "n": n, "prng": PRNG_NAME}
    if seed is not None:
        meta["seed"] = int(seed)
    return Circuit(n + 1, tuple(ops), meta=meta)


def gen_unary_loader(x) -> Circuit:
    """Amplitude loader for a real unit vector onto one-hot basis states.

    X on qubit 0 then a chain of native beam-splitter gates RBS(theta_j) on
    (j, j+1); angles follow the arccos recursion so the ideal output carries
    amplitude x[j] on the one-hot state of qubit j. The final angle's sign is
    flipped when x[-1] < 0, which loads every sign pattern exactly.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise InvalidArgument(f"loader needs a real vector of dimension >= 2, got shape {x.shape}")
    norm = float(np.linalg.norm(x))
    if norm < 1e-12:
        raise DegenerateVector("cannot load the zero vector")
    x = x / norm
    d = x.size
    angles = []
    sines = 1.0
    for j in range(d - 1):
        if abs(sines) < 1e-12:
            raise DegenerateVector(
                f"sine product underflows at position {j}; remaining entries unreachable"
            )
        c = min(max(x[j] / sines, -1.0), 1.0)
        theta = math.acos(c)
        if j == d - 2 and x[d - 1] < 0.0:
            theta = -theta
        angles.append(theta)
        sines *= math.sin(theta)
    ops = [GateOp("X", (0,))]
    for j, theta in enumerate(angles):
        ops.append(GateOp("RBS", (j, j + 1), theta))
    meta = {"family": "unary_loader", "n": d}
    return Circuit(d, tuple(ops), meta=meta)
