"""Command-line interface.

Subcommands: gamma, estimate, experiment, fit, check-compat. Exit codes:
0 success, 2 resource guard exceeded (including a cost or output value that
overflows float64), 3 singular (non-invertible) channel, 4 unparseable input
(circuit file, JSON, CSV, or command line), 1 other package errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .blocks import MODES, mitigation_plan
from .circuits import Circuit, load_circuit
from .classify import classify_circuit
from .errors import (
    BlockPecError,
    CircuitParseError,
    GuardExceeded,
    InvalidArgument,
    InvalidSamples,
    SingularChannel,
)
from .experiments import (
    ExperimentConfig,
    fit_models,
    mean_gain_by_n,
    read_gain_csv,
    run_gain_experiment,
    write_gain_csv,
)
from .noise import NoiseSpec
from .simulate import Observable, ideal_expectation, pec_estimate

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_GUARD = 2
EXIT_SINGULAR = 3
EXIT_PARSE = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors map to the parse-error exit code
    instead of argparse's default exit(2)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="blockpec", description="Quasi-probability error cancellation with aggregated Z-string controls.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gamma = sub.add_parser("gamma", help="sampling cost of a circuit")
    p_gamma.add_argument("circuit", help="circuit text file")
    p_gamma.add_argument("--mode", choices=MODES, default="std")
    p_gamma.add_argument("--noise", help='noise JSON, e.g. {"kind":"uncorrelated","p":0.1}')

    p_est = sub.add_parser("estimate", help="Monte Carlo mitigated expectation")
    p_est.add_argument("circuit", help="circuit text file")
    p_est.add_argument("--samples", type=int, required=True)
    p_est.add_argument("--seed", type=int, required=True)
    p_est.add_argument("--shots", type=int, default=None, help="per-sample +/-1 shots (default: exact outcomes)")
    p_est.add_argument("--mode", choices=MODES, default="std")
    p_est.add_argument("--noise", help="noise JSON applied to every gate")

    p_exp = sub.add_parser("experiment", help="gain sweep over (n, seed) grid")
    p_exp.add_argument("--config", required=True, help="experiment config JSON file")

    p_fit = sub.add_parser("fit", help="fit gain-vs-n models to an experiment CSV")
    p_fit.add_argument("csv", help="CSV produced by the experiment subcommand")

    p_chk = sub.add_parser("check-compat", help="per-gate compatibility report")
    p_chk.add_argument("circuit", help="circuit text file")
    return parser


def _load(path: str, noise_json: str | None) -> Circuit:
    c = load_circuit(path)
    if noise_json is not None:
        c = c.with_noise(NoiseSpec.from_json(noise_json))
    return c


def _default_observable(c: Circuit) -> Observable:
    """Z on qubit 0 generally; for payoff circuits, the ancilla |1><1|
    projector (the ancilla is the last qubit)."""
    if c.meta.get("family") == "option_payoff":
        return Observable.qubit_one_projector(c.n, c.n - 1)
    return Observable.z(c.n, 0)


def _emit(payload: dict) -> None:
    """Print one JSON line; a non-finite number is an overflow, not output."""
    try:
        text = json.dumps(payload, allow_nan=False)
    except ValueError as exc:
        raise GuardExceeded(f"non-finite value in output: {exc}") from None
    print(text)


def _cmd_gamma(args) -> int:
    c = _load(args.circuit, args.noise)
    gamma = mitigation_plan(c, args.mode).total_gamma
    _emit({"mode": args.mode, "gamma": gamma, "n": c.n, "ops": len(c.ops)})
    return EXIT_OK


def _cmd_estimate(args) -> int:
    c = _load(args.circuit, args.noise)
    obs = _default_observable(c)
    report = pec_estimate(c, obs, args.mode, args.samples, args.seed, shots=args.shots)
    out = report.to_dict()
    ideal = ideal_expectation(c, obs)
    out["ideal"] = ideal
    out["abs_error"] = abs(report.mean - ideal)
    _emit(out)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidArgument(f"{args.config} is not UTF-8 text: {exc}") from None
    cfg = ExperimentConfig.from_json(text)
    rows = run_gain_experiment(cfg)
    if cfg.output_path:
        summary = {
            "rows": len(rows),
            "csv": cfg.output_path,
            "mean_gain_by_n": {str(n): g for n, g in mean_gain_by_n(rows).items()},
        }
        _emit(summary)
    else:
        write_gain_csv(rows, "/dev/stdout")
    return EXIT_OK


def _cmd_fit(args) -> int:
    rows = read_gain_csv(args.csv)
    points = sorted(mean_gain_by_n(rows).items())
    exp_fit, quad_fit = fit_models(points)
    _emit({"exponential": exp_fit.to_dict(), "quadratic": quad_fit.to_dict()})
    return EXIT_OK


def _cmd_check_compat(args) -> int:
    c = load_circuit(args.circuit)
    _emit(classify_circuit(c).to_dict())
    return EXIT_OK


_HANDLERS = {
    "gamma": _cmd_gamma,
    "estimate": _cmd_estimate,
    "experiment": _cmd_experiment,
    "fit": _cmd_fit,
    "check-compat": _cmd_check_compat,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        return _HANDLERS[args.command](args)
    except GuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except SingularChannel as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except (CircuitParseError, OSError, InvalidArgument, InvalidSamples) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BlockPecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
