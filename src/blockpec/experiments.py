"""Gain-experiment driver, CSV output, and gain-curve model fitting."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .blocks import gamma_std, hybrid_plan
from .circuits import Circuit
from .errors import InvalidArgument
from .gates import integer, is_real
from .generators import (
    _rng,
    gen_option_payoff,
    gen_random_bp,
    gen_rbs_pyramid,
    gen_swap_network,
    gen_unary_loader,
)
from .noise import NoiseSpec

FAMILIES = ("random_bp", "swap_network", "rbs_pyramid", "option_payoff", "unary_loader")

CSV_HEADER = ("family", "n", "depth", "seed", "gamma_std", "gamma_blk", "gain")


def _integer(value, what: str) -> int:
    """gates.integer(value), after turning an integral float into an int
    (JSON may give 4 as 4.0); 4.9, "4" and True are refused."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return integer(value, what)


@dataclass(frozen=True)
class ExperimentConfig:
    family: str
    n_range: tuple[int, int]  # inclusive bounds
    noise: NoiseSpec
    seeds: tuple[int, ...]
    depth_factor: float = 1.0
    interaction: str = "rzz"
    output_path: str | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise InvalidArgument(f"unknown family {self.family!r}")
        if not isinstance(self.n_range, (tuple, list)) or len(self.n_range) != 2:
            raise InvalidArgument(f"n_range must be two bounds, got {self.n_range!r}")
        lo, hi = (_integer(b, "n_range bound") for b in self.n_range)
        if lo > hi or lo < 1:
            raise InvalidArgument(f"bad n_range {self.n_range}")
        object.__setattr__(self, "n_range", (lo, hi))
        if not isinstance(self.seeds, (tuple, list)):
            raise InvalidArgument(f"seeds must be a list of integers, got {self.seeds!r}")
        object.__setattr__(self, "seeds", tuple(_integer(s, "seed") for s in self.seeds))
        if not self.seeds:
            raise InvalidArgument("seeds must be non-empty")
        if not isinstance(self.noise, NoiseSpec):
            raise InvalidArgument(f"noise must be a NoiseSpec, got {self.noise!r}")
        if self.interaction not in ("rzz", "rbs"):
            raise InvalidArgument(f"interaction must be 'rzz' or 'rbs', got {self.interaction!r}")
        if not (is_real(self.depth_factor) and math.isfinite(self.depth_factor)):
            raise InvalidArgument(f"depth_factor must be a finite real number, got {self.depth_factor!r}")
        object.__setattr__(self, "depth_factor", float(self.depth_factor))

    @property
    def ns(self) -> range:
        return range(self.n_range[0], self.n_range[1] + 1)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        try:
            cfg = cls(
                family=d["family"],
                n_range=d["n_range"],
                noise=NoiseSpec.from_dict(d["noise"]),
                seeds=d["seeds"],
                depth_factor=d.get("depth_factor", 1.0),
                interaction=d.get("interaction", "rzz"),
                output_path=d.get("output_path"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidArgument(f"bad experiment config: {exc}") from exc
        # open() would take an int as a file descriptor.
        if cfg.output_path is not None and not isinstance(cfg.output_path, str):
            raise InvalidArgument(f"output_path must be a string, got {cfg.output_path!r}")
        return cfg

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise InvalidArgument(f"bad experiment config JSON: {exc}") from exc


def build_family_circuit(
    family: str,
    n: int,
    seed: int,
    depth_factor: float = 1.0,
    interaction: str = "rzz",
) -> Circuit:
    """One noiseless circuit of the requested family; noise is tagged on by
    the caller."""
    if family == "random_bp":
        return gen_random_bp(n, seed)
    if family == "swap_network":
        return gen_swap_network(n, depth_factor, interaction, seed)
    if family == "rbs_pyramid":
        return gen_rbs_pyramid(n, seed=seed)
    if family == "option_payoff":
        return gen_option_payoff(n, seed=seed)
    if family == "unary_loader":
        vec = _rng(seed, "unary_loader").standard_normal(n)
        return gen_unary_loader(vec)
    raise InvalidArgument(f"unknown family {family!r}")


@dataclass(frozen=True)
class GainRow:
    family: str
    n: int
    depth: int
    seed: int
    gamma_std: float
    gamma_blk: float
    gain: float


def run_gain_experiment(cfg: ExperimentConfig) -> list[GainRow]:
    """Sampling-cost gain (gamma_std / gamma_blk)^2 for every (n, seed) of the
    config, rows emitted in (n, seed) order. The aggregated-control cost uses
    the per-segment plan, which reduces to the whole-circuit block cost when
    the circuit is fully compatible. Writes CSV when output_path is set."""
    rows: list[GainRow] = []
    for n in cfg.ns:
        for seed in cfg.seeds:
            c = build_family_circuit(
                cfg.family, n, seed, cfg.depth_factor, cfg.interaction
            ).with_noise(cfg.noise)
            g_std = gamma_std(c)
            g_blk = hybrid_plan(c).total_gamma
            rows.append(
                GainRow(
                    family=cfg.family,
                    n=n,
                    depth=len(c.ops),
                    seed=seed,
                    gamma_std=g_std,
                    gamma_blk=g_blk,
                    gain=(g_std / g_blk) ** 2,
                )
            )
    if cfg.output_path:
        write_gain_csv(rows, cfg.output_path)
    return rows


def write_gain_csv(rows, path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        for r in rows:
            w.writerow(
                [r.family, r.n, r.depth, r.seed, repr(r.gamma_std), repr(r.gamma_blk), repr(r.gain)]
            )


def read_gain_csv(path: str) -> list[GainRow]:
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidArgument(f"{path} is not UTF-8 text: {exc}") from None
    rows = []
    reader = csv.DictReader(io.StringIO(text, newline=""))
    if reader.fieldnames is None or tuple(reader.fieldnames) != CSV_HEADER:
        raise InvalidArgument(f"unexpected CSV header in {path}: {reader.fieldnames}")
    for rec in reader:
        # DictReader fills a short row's missing fields with None and
        # files a long row's extras under the key None.
        if None in rec or None in rec.values():
            raise InvalidArgument(
                f"{path} line {reader.line_num}: expected {len(CSV_HEADER)} fields"
            )
        try:
            rows.append(
                GainRow(
                    family=rec["family"],
                    n=int(rec["n"]),
                    depth=int(rec["depth"]),
                    seed=int(rec["seed"]),
                    gamma_std=float(rec["gamma_std"]),
                    gamma_blk=float(rec["gamma_blk"]),
                    gain=float(rec["gain"]),
                )
            )
        except ValueError as exc:
            raise InvalidArgument(f"{path} line {reader.line_num}: {exc}") from None
    return rows


def mean_gain_by_n(rows) -> dict[int, float]:
    """Arithmetic mean of the gain over seeds, per circuit width."""
    sums: dict[int, list[float]] = {}
    for r in rows:
        sums.setdefault(r.n, []).append(r.gain)
    return {n: float(np.mean(v)) for n, v in sorted(sums.items())}


@dataclass(frozen=True)
class FitResult:
    model: str  # 'exponential' (a*e^(b*n)+c) or 'quadratic' (a*n^2+b*n+c)
    params: tuple[float, float, float]
    total_squared_residual: float
    converged: bool = True

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "params": list(self.params),
            "total_squared_residual": self.total_squared_residual,
            "converged": self.converged,
        }


def _fit_quadratic(ns: np.ndarray, gains: np.ndarray) -> FitResult:
    coeffs = np.polyfit(ns, gains, 2)
    resid = float(np.sum((np.polyval(coeffs, ns) - gains) ** 2))
    return FitResult("quadratic", tuple(float(v) for v in coeffs), resid)


def _fit_exponential(ns: np.ndarray, gains: np.ndarray) -> FitResult:
    # Imported here, not at module level: scipy.optimize takes most of the
    # package's import time and memory, and only this fit uses it.
    from scipy.optimize import least_squares

    # Seed (a, b) from a log-linear regression after shifting the floor out.
    eps = 1e-6
    shift = float(gains.min())
    logged = np.log(gains - shift + eps)
    b0, log_a0 = np.polyfit(ns, logged, 1)
    x0 = np.array([math.exp(log_a0), b0, shift - eps])

    def residuals(params):
        a, b, c = params
        return a * np.exp(np.clip(b * ns, -700, 700)) + c - gains

    sol = least_squares(residuals, x0, max_nfev=500)
    resid = float(np.sum(sol.fun**2))
    return FitResult(
        "exponential",
        tuple(float(v) for v in sol.x),
        resid,
        converged=bool(sol.status > 0),
    )


def fit_models(points) -> tuple[FitResult, FitResult]:
    """Least-squares fits of a*e^(b*n)+c and a*n^2+b*n+c to (n, gain) points;
    returns (exponential, quadratic). A fit that exhausts its iteration budget
    comes back flagged converged=False with the best parameters found."""
    pts = list(points)
    try:
        pairs_ok = all(is_real(n) and is_real(g) for n, g in pts)
    except (TypeError, ValueError):  # a point that does not unpack into two
        pairs_ok = False
    if not pairs_ok:
        raise InvalidArgument(f"fit points must be pairs of real numbers, got {pts}")
    pts = [(float(n), float(g)) for n, g in pts]
    if len(pts) < 4:
        raise InvalidArgument(f"need at least 4 points to fit, got {len(pts)}")
    bad = [p for p in pts if not (math.isfinite(p[0]) and math.isfinite(p[1]))]
    if bad:
        raise InvalidArgument(f"fit points must be finite, got {bad[0]}")
    ns = np.array([p[0] for p in pts])
    gains = np.array([p[1] for p in pts])
    return _fit_exponential(ns, gains), _fit_quadratic(ns, gains)
