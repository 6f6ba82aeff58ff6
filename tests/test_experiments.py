from __future__ import annotations

import json
import math

import numpy as np
import pytest

from blockpec.blocks import hybrid_plan
from blockpec.circuits import serialize_circuit
from blockpec.errors import InvalidArgument
from blockpec.experiments import (
    CSV_HEADER,
    ExperimentConfig,
    FitResult,
    build_family_circuit,
    fit_models,
    mean_gain_by_n,
    read_gain_csv,
    run_gain_experiment,
    write_gain_csv,
)
from blockpec.generators import gen_unary_loader
from blockpec.noise import NoiseSpec


def _cfg(**overrides):
    base = dict(
        family="random_bp",
        n_range=(2, 4),
        noise=NoiseSpec("uncorrelated", 0.05),
        seeds=(0, 1),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation():
    cfg = _cfg()
    assert list(cfg.ns) == [2, 3, 4]
    with pytest.raises(InvalidArgument):
        _cfg(family="mystery")
    with pytest.raises(InvalidArgument):
        _cfg(n_range=(5, 3))
    with pytest.raises(InvalidArgument):
        _cfg(n_range=(0, 3))
    with pytest.raises(InvalidArgument):
        _cfg(seeds=())
    with pytest.raises(InvalidArgument):
        _cfg(interaction="xy")


def test_config_rejects_non_finite_depth_factor():
    for value in (float("nan"), float("inf")):
        with pytest.raises(InvalidArgument):
            ExperimentConfig("swap_network", (2, 3), NoiseSpec("uncorrelated", 0.1), (0,), value)
        text = json.dumps(
            {"family": "random_bp", "n_range": [2, 3], "noise": {"kind": "uncorrelated", "p": 0.1},
             "seeds": [0], "depth_factor": value}
        )
        with pytest.raises(InvalidArgument):
            ExperimentConfig.from_json(text)


def test_config_from_json():
    cfg = ExperimentConfig.from_json(
        '{"family": "swap_network", "n_range": [2, 5],'
        ' "noise": {"kind": "uncorrelated", "p": 0.01},'
        ' "seeds": [3, 4], "interaction": "rbs", "depth_factor": 2.0}'
    )
    assert cfg.family == "swap_network"
    assert cfg.n_range == (2, 5)
    assert cfg.noise == NoiseSpec("uncorrelated", 0.01)
    assert cfg.seeds == (3, 4)
    assert cfg.interaction == "rbs"
    assert cfg.depth_factor == 2.0
    assert cfg.output_path is None
    with pytest.raises(InvalidArgument):
        ExperimentConfig.from_json('{"family": "random_bp"}')


def test_build_family_circuit():
    for family in ("random_bp", "swap_network", "rbs_pyramid", "option_payoff"):
        c = build_family_circuit(family, 3, seed=5)
        assert c.meta["family"] == family
    a = build_family_circuit("unary_loader", 6, seed=9)
    b = build_family_circuit("unary_loader", 6, seed=9)
    assert serialize_circuit(a) == serialize_circuit(b)
    assert a.n == 6
    with pytest.raises(InvalidArgument):
        build_family_circuit("mystery", 3, seed=0)


def test_unary_loader_seed_keys():
    # Non-negative seeds keep their circuits; negative seeds wrap to 64 bits.
    key = np.array([9, 0xA5], dtype=np.uint64)
    vec = np.random.Generator(np.random.Philox(key=key)).standard_normal(6)
    assert serialize_circuit(build_family_circuit("unary_loader", 6, seed=9)) == (
        serialize_circuit(gen_unary_loader(vec))
    )
    neg = build_family_circuit("unary_loader", 6, seed=-1)
    key = np.array([2**64 - 1, 0xA5], dtype=np.uint64)
    vec = np.random.Generator(np.random.Philox(key=key)).standard_normal(6)
    assert serialize_circuit(neg) == serialize_circuit(gen_unary_loader(vec))
    rows = run_gain_experiment(
        ExperimentConfig("unary_loader", (3, 4), NoiseSpec("uncorrelated", 0.01), (-1,))
    )
    assert [r.seed for r in rows] == [-1, -1]


def test_rows_order_and_shape():
    cfg = _cfg()
    rows = run_gain_experiment(cfg)
    assert len(rows) == 3 * 2
    assert [(r.n, r.seed) for r in rows] == [
        (2, 0),
        (2, 1),
        (3, 0),
        (3, 1),
        (4, 0),
        (4, 1),
    ]
    for r in rows:
        assert r.family == "random_bp"
        assert r.depth == r.n + 1
        assert r.gain == pytest.approx((r.gamma_std / r.gamma_blk) ** 2, rel=1e-12)
        assert r.gamma_blk <= r.gamma_std * (1.0 + 1e-12)


def test_noiseless_gains_are_unit():
    rows = run_gain_experiment(_cfg(noise=NoiseSpec("uncorrelated", 0.0)))
    assert all(r.gamma_std == pytest.approx(1.0, abs=1e-12) for r in rows)
    assert all(r.gain == pytest.approx(1.0, abs=1e-12) for r in rows)


def test_block_cost_column_matches_segment_plan():
    cfg = _cfg(family="option_payoff", n_range=(2, 3), seeds=(7,))
    rows = run_gain_experiment(cfg)
    for r in rows:
        c = build_family_circuit("option_payoff", r.n, r.seed).with_noise(cfg.noise)
        assert r.gamma_blk == pytest.approx(hybrid_plan(c).total_gamma, rel=1e-12)
        assert r.gain >= 1.0 - 1e-12


def test_csv_round_trip(tmp_path):
    path = str(tmp_path / "gains.csv")
    cfg = _cfg(output_path=path)
    rows = run_gain_experiment(cfg)
    back = read_gain_csv(path)
    assert back == rows  # repr() serialization keeps floats exact

    bad = tmp_path / "bad.csv"
    bad.write_text("family,n,lucky_number\nrandom_bp,2,13\n")
    with pytest.raises(InvalidArgument):
        read_gain_csv(str(bad))


def test_write_csv_header(tmp_path):
    path = tmp_path / "out.csv"
    write_gain_csv([], str(path))
    assert path.read_text().strip() == ",".join(CSV_HEADER)


def test_mean_gain_by_n():
    cfg = _cfg(n_range=(2, 3), seeds=(0, 1, 2))
    rows = run_gain_experiment(cfg)
    means = mean_gain_by_n(rows)
    assert sorted(means) == [2, 3]
    want2 = np.mean([r.gain for r in rows if r.n == 2])
    assert means[2] == pytest.approx(want2, rel=1e-12)


def test_fit_quadratic_exact():
    pts = [(n, 2.0 * n**2 + 3.0 * n + 1.0) for n in range(1, 7)]
    _, quad = fit_models(pts)
    assert quad.model == "quadratic"
    assert quad.total_squared_residual < 1e-18
    assert quad.params == pytest.approx((2.0, 3.0, 1.0), abs=1e-9)


def test_fit_exponential_exact():
    a, b, c = 0.0018, 0.2905, 0.9962
    pts = [(n, a * math.exp(b * n) + c) for n in range(4, 13)]
    exp_fit, quad_fit = fit_models(pts)
    assert exp_fit.model == "exponential"
    assert exp_fit.converged
    assert exp_fit.params[1] == pytest.approx(b, abs=0.01)
    assert exp_fit.total_squared_residual < quad_fit.total_squared_residual


def test_fit_prefers_exponential_on_noisy_growth():
    rng = np.random.Generator(np.random.Philox(key=np.array([3, 0], dtype=np.uint64)))
    ns = np.arange(4, 13)
    gains = (0.05 * np.exp(0.5 * ns) + 1.0) * (1.0 + 0.01 * rng.standard_normal(ns.size))
    exp_fit, quad_fit = fit_models(list(zip(ns, gains)))
    assert exp_fit.total_squared_residual < quad_fit.total_squared_residual


def test_fit_validation_and_serialization():
    with pytest.raises(InvalidArgument):
        fit_models([(1, 1.0), (2, 1.1), (3, 1.2)])
    fr = FitResult("quadratic", (1.0, 2.0, 3.0), 0.5)
    assert fr.to_dict() == {
        "model": "quadratic",
        "params": [1.0, 2.0, 3.0],
        "total_squared_residual": 0.5,
        "converged": True,
    }


def test_pyramid_gain_grows():
    cfg = ExperimentConfig(
        family="rbs_pyramid",
        n_range=(8, 8),
        noise=NoiseSpec("uncorrelated", 0.01),
        seeds=(0,),
    )
    rows = run_gain_experiment(cfg)
    assert rows[0].gain > 2.0
