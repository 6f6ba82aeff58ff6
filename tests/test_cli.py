from __future__ import annotations

import csv
import io
import json

import pytest

from blockpec.blocks import gamma_blk, gamma_std
from blockpec.circuits import save_circuit
from blockpec.cli import main
from blockpec.errors import SingularChannel
from blockpec.generators import gen_option_payoff
from blockpec.noise import NoiseSpec
from blockpec.simulate import Observable, ideal_expectation

NOISE = '{"kind": "uncorrelated", "p": 0.1}'


@pytest.fixture
def diag_circuit(tmp_path):
    path = tmp_path / "diag.txt"
    path.write_text("qubits=2\nX 0\nRZZ 0,1;theta=0.37\nCNOT 0,1\n")
    return str(path)


@pytest.fixture
def h_circuit(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("qubits=2\nH 0\nCNOT 0,1\n")
    return str(path)


def test_gamma_modes(diag_circuit, capsys):
    results = {}
    for mode in ("std", "blk", "hybrid"):
        assert main(["gamma", diag_circuit, "--noise", NOISE, "--mode", mode]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["mode"] == mode
        assert out["n"] == 2
        assert out["ops"] == 3
        results[mode] = out["gamma"]
    from blockpec.circuits import load_circuit

    c = load_circuit(diag_circuit).with_noise(NoiseSpec("uncorrelated", 0.1))
    assert results["std"] == pytest.approx(gamma_std(c), rel=1e-12)
    assert results["blk"] == pytest.approx(gamma_blk(c), rel=1e-12)
    assert results["blk"] <= results["std"]
    assert results["hybrid"] == pytest.approx(results["blk"], rel=1e-12)

    assert main(["gamma", diag_circuit]) == 0  # noiseless default
    assert json.loads(capsys.readouterr().out)["gamma"] == pytest.approx(1.0)


def test_estimate_output_and_determinism(diag_circuit, capsys):
    argv = [
        "estimate",
        diag_circuit,
        "--samples",
        "300",
        "--seed",
        "5",
        "--noise",
        NOISE,
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    out = json.loads(first)
    assert set(out) == {
        "mean",
        "sample_variance",
        "gamma_used",
        "n_samples",
        "seed",
        "mode",
        "ideal",
        "abs_error",
    }
    assert out["n_samples"] == 300
    assert out["seed"] == 5
    assert out["mode"] == "std"
    assert out["abs_error"] == pytest.approx(abs(out["mean"] - out["ideal"]), abs=1e-15)

    assert main(argv) == 0
    assert capsys.readouterr().out == first  # bitwise reproducible

    assert main(argv + ["--shots", "2048", "--mode", "blk"]) == 0
    shot_out = json.loads(capsys.readouterr().out)
    assert shot_out["mode"] == "blk"
    assert shot_out["mean"] != out["mean"]


def test_estimate_payoff_uses_ancilla_projector(tmp_path, capsys):
    c = gen_option_payoff(1, seed=2)
    path = str(tmp_path / "payoff.txt")
    save_circuit(c, path)
    proj_val = ideal_expectation(c, Observable.qubit_one_projector(c.n, c.n - 1))
    z_val = ideal_expectation(c, Observable.z(c.n, 0))
    assert abs(proj_val - z_val) > 1e-3  # the check below discriminates
    assert main(["estimate", path, "--samples", "10", "--seed", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ideal"] == pytest.approx(proj_val, abs=1e-12)
    assert out["mean"] == pytest.approx(proj_val, abs=1e-12)  # noiseless


def test_check_compat(h_circuit, capsys):
    assert main(["check-compat", h_circuit]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pauli_z_compatible"] == [False, True]
    assert out["bias_preserving"] == [False, True]
    assert out["segments"] == [[1, 2]]


def _write_config(tmp_path, **overrides):
    cfg = {
        "family": "random_bp",
        "n_range": [2, 5],
        "noise": {"kind": "uncorrelated", "p": 0.05},
        "seeds": [0, 1],
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_experiment_stdout_csv(tmp_path, capfd):
    cfg = _write_config(tmp_path)
    assert main(["experiment", "--config", cfg]) == 0
    rows = list(csv.DictReader(io.StringIO(capfd.readouterr().out)))
    assert len(rows) == 4 * 2
    assert rows[0]["family"] == "random_bp"
    assert float(rows[0]["gain"]) >= 1.0 - 1e-12


def test_experiment_summary_and_fit(tmp_path, capsys):
    out_csv = str(tmp_path / "gains.csv")
    cfg = _write_config(tmp_path, output_path=out_csv)
    assert main(["experiment", "--config", cfg]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["rows"] == 8
    assert summary["csv"] == out_csv
    assert sorted(summary["mean_gain_by_n"]) == ["2", "3", "4", "5"]

    assert main(["fit", out_csv]) == 0
    fits = json.loads(capsys.readouterr().out)
    assert set(fits) == {"exponential", "quadratic"}
    for model in fits.values():
        assert set(model) == {"model", "params", "total_squared_residual", "converged"}
        assert len(model["params"]) == 3


def test_usage_errors(capsys):
    assert main([]) == 4
    assert main(["frobnicate"]) == 4
    assert main(["estimate", "nonexistent.txt", "--seed", "1"]) == 4  # --samples missing
    capsys.readouterr()


def test_parse_errors(tmp_path, diag_circuit, capsys):
    assert main(["gamma", str(tmp_path / "missing.txt")]) == 4
    assert main(["gamma", diag_circuit, "--noise", "{not json"]) == 4
    assert main(["gamma", diag_circuit, "--noise", '{"kind": "sideways", "p": 0.1}']) == 4
    bad = tmp_path / "bad.txt"
    bad.write_text("qubits=2\nWARP 0\n")
    assert main(["gamma", str(bad)]) == 4
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"family": "random_bp"}')
    assert main(["experiment", "--config", str(cfg)]) == 4
    assert main(["fit", str(tmp_path / "missing.csv")]) == 4
    assert "error:" in capsys.readouterr().err


def test_invalid_samples_exit(diag_circuit, capsys):
    assert main(["estimate", diag_circuit, "--samples", "0", "--seed", "1"]) == 4
    capsys.readouterr()


def test_guard_exit(tmp_path, capsys):
    big = tmp_path / "big.txt"
    big.write_text("qubits=15\nX 0\n")
    assert main(["estimate", str(big), "--samples", "4", "--seed", "0"]) == 2
    capsys.readouterr()


def test_overflowing_gamma_exits_guard(tmp_path, capsys):
    path = tmp_path / "deep.txt"
    path.write_text("qubits=2\n" + "CNOT 0,1\n" * 401)
    noise = '{"kind": "uncorrelated", "p": 0.4}'
    for mode in ("std", "blk", "hybrid"):
        assert main(["gamma", str(path), "--noise", noise, "--mode", mode]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err


def test_experiment_accepts_negative_seed(tmp_path, capfd):
    cfg = _write_config(tmp_path, family="unary_loader", n_range=[3, 4], seeds=[-1])
    assert main(["experiment", "--config", cfg]) == 0
    rows = list(csv.DictReader(io.StringIO(capfd.readouterr().out)))
    assert [row["seed"] for row in rows] == ["-1", "-1"]


def test_experiment_rejects_non_finite_depth_factor(tmp_path, capsys):
    for value in (float("nan"), float("inf")):
        cfg = _write_config(tmp_path, family="swap_network", depth_factor=value)
        assert main(["experiment", "--config", cfg]) == 4
        assert "depth_factor" in capsys.readouterr().err


def test_singular_exit(diag_circuit, capsys, monkeypatch):
    def boom(path, noise_json):
        raise SingularChannel("channel is not invertible")

    monkeypatch.setattr("blockpec.cli._load", boom)
    assert main(["gamma", diag_circuit]) == 3
    capsys.readouterr()


def test_other_package_error_exit(h_circuit, capsys):
    assert main(["gamma", h_circuit, "--noise", NOISE, "--mode", "blk"]) == 1
    assert "error:" in capsys.readouterr().err
