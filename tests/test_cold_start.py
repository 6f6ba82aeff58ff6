"""Import graph of the cold path: `import blockpec` and the everyday CLI
subcommands must not load scipy, which only the gain-curve fit needs.

The check runs in a fresh interpreter, because this test process may
already hold scipy from other tests."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import blockpec
from blockpec.experiments import CSV_HEADER

_PROBE = r"""
import json
import sys

import blockpec
from blockpec.cli import main

circuit, bad_csv, good_csv = sys.argv[1:]
noise = '{"kind": "uncorrelated", "p": 0.05}'


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


result = {"after_import": scipy_modules(), "codes": {}}
for mode in ("std", "blk", "hybrid"):
    result["codes"]["gamma " + mode] = main(["gamma", circuit, "--noise", noise, "--mode", mode])
for mode in ("std", "hybrid"):
    result["codes"]["estimate " + mode] = main(
        ["estimate", circuit, "--samples", "50", "--seed", "3", "--noise", noise, "--mode", mode]
    )
result["codes"]["check-compat"] = main(["check-compat", circuit])
result["codes"]["fit non-finite"] = main(["fit", bad_csv])
result["after_cli"] = scipy_modules()
result["codes"]["fit"] = main(["fit", good_csv])
result["after_fit"] = scipy_modules()
print(json.dumps(result))
"""


def test_cold_path_does_not_import_scipy(tmp_path):
    circuit = tmp_path / "c.txt"
    circuit.write_text("qubits=3\nX 0\nCNOT 0,1\nRZZ 1,2;theta=0.4\nCZ 0,2\n")
    header = ",".join(CSV_HEADER)
    rows = [f"random_bp,{n},{n + 1},0,1.5,1.25,{1.0 + 0.1 * n * n!r}" for n in range(2, 7)]
    good_csv = tmp_path / "good.csv"
    good_csv.write_text("\n".join([header, *rows]) + "\n")
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("\n".join([header, *rows, "random_bp,7,8,0,1.5,1.25,nan"]) + "\n")

    src = str(Path(blockpec.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, str(circuit), str(bad_csv), str(good_csv)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])

    assert result["codes"] == {
        "gamma std": 0, "gamma blk": 0, "gamma hybrid": 0,
        "estimate std": 0, "estimate hybrid": 0,
        "check-compat": 0, "fit non-finite": 4, "fit": 0,
    }
    assert result["after_import"] == []
    assert result["after_cli"] == []
    # The probe sees scipy once the fit has loaded it, so the empty lists
    # above are not an artifact of how modules are looked up.
    assert "scipy.optimize" in result["after_fit"]
