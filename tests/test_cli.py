from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blockpec

from blockpec.blocks import gamma_blk, gamma_std
from blockpec.circuits import save_circuit
from blockpec.cli import main
from blockpec.errors import SingularChannel
from blockpec.experiments import CSV_HEADER
from blockpec.generators import gen_option_payoff, gen_swap_network
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


def test_estimate_exits_2_when_the_variance_overflows(tmp_path, capsys):
    # gamma 8.1e171: the squared deviations overflow float64. An error that
    # escaped main, or a numpy overflow warning (an error under this suite's
    # warning filter), would fail the call itself.
    path = str(tmp_path / "swap.txt")
    save_circuit(gen_swap_network(4, 12.0, "rzz", 0), path)
    argv = ["estimate", path, "--samples", "20", "--seed", "1", "--mode", "blk"]
    assert main(argv + ["--noise", '{"kind":"uncorrelated","p":0.3}']) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


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


_GAIN_ROWS = [f"random_bp,{n},{n + 1},0,1.5,1.25,{1.0 + 0.1 * n * n!r}" for n in range(2, 7)]


@pytest.mark.parametrize(
    "row",
    [
        "random_bp,x,3,0,1.5,1.25,1.44",
        "random_bp,7,8,0,1.5",
        "random_bp,7,8,0,1.5,1.25,nan",
        "random_bp,7,8,0,1.5,1.25,inf",
    ],
    ids=["non-numeric", "short-row", "nan-gain", "inf-gain"],
)
def test_fit_bad_csv_exits_parse_error(tmp_path, capsys, row):
    path = tmp_path / "gains.csv"
    path.write_text("\n".join([",".join(CSV_HEADER), *_GAIN_ROWS, row]) + "\n")
    assert main(["fit", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    path.write_text("\n".join([",".join(CSV_HEADER), *_GAIN_ROWS]) + "\n")
    assert main(["fit", str(path)]) == 0  # the same file without the bad row fits
    capsys.readouterr()


def test_circuit_file_that_is_not_utf8_exits_parse_error(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes("qubits=2\n# caf\u00e9\nCNOT 0,1\n".encode("latin-1"))
    for argv in (["gamma", str(path)], ["gamma", str(path), "--mode", "hybrid"],
                 ["check-compat", str(path)]):
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and "not UTF-8" in captured.err


def test_config_and_csv_that_are_not_utf8_exit_parse_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(
        '{"family": "random_bp", "n_range": [2, 3], "noise": {"kind": "uncorrelated", "p": 0.05},'
        ' "seeds": [0], "interaction": "caf\u00e9"}'.encode("latin-1")
    )
    gains = tmp_path / "gains.csv"
    gains.write_bytes(("\n".join([",".join(CSV_HEADER), *_GAIN_ROWS, "caf\u00e9,7,8,0,1.5,1.25,1.44"])
                       + "\n").encode("latin-1"))
    for argv in (["experiment", "--config", str(config)], ["fit", str(gains)]):
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:") and "not UTF-8" in captured.err


@pytest.mark.parametrize("output_path", [7, True, ["gains.csv"]], ids=["int", "bool", "list"])
def test_experiment_refuses_non_string_output_path(tmp_path, capsys, monkeypatch, output_path):
    def no_sweep(cfg):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr("blockpec.cli.run_gain_experiment", no_sweep)
    cfg = _write_config(tmp_path, output_path=output_path)
    assert main(["experiment", "--config", cfg]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "output_path must be a string" in captured.err


def test_python_m_blockpec_runs_the_cli(diag_circuit):
    src = str(Path(blockpec.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    argv = ["gamma", diag_circuit, "--noise", NOISE, "--mode", "blk"]
    done = subprocess.run(
        [sys.executable, "-m", "blockpec", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["mode"] == "blk" and out["gamma"] > 1.0
    bad = subprocess.run(
        [sys.executable, "-m", "blockpec", "gamma"], capture_output=True, text=True, env=env, timeout=120
    )
    assert bad.returncode == 4 and bad.stderr.startswith("error:")


@pytest.mark.parametrize(
    "overrides",
    [{"seeds": [0.5]}, {"n_range": [4.9, 5]}, {"n_range": ["3", "4"]}],
    ids=["fractional-seed", "fractional-n", "string-n"],
)
def test_experiment_refuses_fractional_integers(tmp_path, capsys, overrides):
    cfg = _write_config(tmp_path, **overrides)
    assert main(["experiment", "--config", cfg]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "must be an integer" in captured.err


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


def test_malformed_config_json_exits_parse_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{")
    assert main(["experiment", "--config", str(cfg)]) == 4
    assert capsys.readouterr().err.startswith("error: bad experiment config JSON")


def test_non_finite_angle_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "nan.txt"
    for theta in ("nan", "inf"):
        path.write_text(f"qubits=1\nRZ 0;theta={theta}\n")
        for mode in ("std", "blk", "hybrid"):
            assert main(["gamma", str(path), "--noise", NOISE, "--mode", mode]) == 4
        assert main(["estimate", str(path), "--samples", "4", "--seed", "0"]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and "angle must be finite" in captured.err


@pytest.mark.parametrize(
    "noise",
    [
        '{"kind": "uncorrelated", "p": "x"}',
        '{"kind": "uncorrelated", "p": [0.1]}',
        '{"kind": "impure", "p": 0.1, "q": "x"}',
        '{"kind": "uncorrelated", "p": "0.1"}',
        '{"kind": "none", "p": true}',
        '{"kind": "impure", "p": 0.1, "q": true}',
    ],
    ids=["p-string", "p-list", "q-string", "p-numeric-string", "p-bool", "q-bool"],
)
def test_noise_numbers_must_be_real(diag_circuit, capsys, noise):
    assert main(["gamma", diag_circuit, "--noise", noise]) == 4
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
    for value in (float("nan"), float("inf"), "2.5", True):
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
