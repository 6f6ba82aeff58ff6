"""The package surface that perfbench/ uses: every name its modules import
from blockpec resolves, and plans keep the fields that it reads. A deletion
that would break the benchmark fails here first."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

from blockpec import NoiseSpec, gen_option_payoff, gen_swap_network, mitigation_plan

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _blockpec_imports() -> list[tuple[str, str]]:
    """(module, name) of every ``from blockpec... import name`` in perfbench/."""
    out = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "blockpec":
                out.extend((node.module, alias.name) for alias in node.names)
    return out


def test_perfbench_imports_something_from_blockpec():
    modules = {module for module, _ in _blockpec_imports()}
    assert {"blockpec", "blockpec.simulate", "blockpec.gates"} <= modules


@pytest.mark.parametrize("module, name", _blockpec_imports())
def test_perfbench_import_resolves(module, name):
    assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


@pytest.mark.parametrize("mode", ["std", "blk", "hybrid"])
def test_plans_keep_the_fields_perfbench_reads(mode):
    # The payoff circuit's H gates split a hybrid plan into both segment
    # kinds; blk needs a circuit without them.
    c = gen_swap_network(3, 1.0, "rzz", 0) if mode == "blk" else gen_option_payoff(2, seed=0)
    c = c.with_noise(NoiseSpec("uncorrelated", 0.01))
    plan = mitigation_plan(c, mode)
    assert isinstance(plan.total_gamma, float) and plan.segments
    for seg in plan.segments:
        assert seg.kind in ("block", "per_gate")
        assert 0 <= seg.start < seg.stop <= len(c.ops)
        assert isinstance(seg.gamma, float)
        assert seg.coeffs.coeffs.ndim == 1
    if mode == "hybrid":
        assert {seg.kind for seg in plan.segments} == {"block", "per_gate"}
