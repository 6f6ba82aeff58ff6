#!/usr/bin/env python3
"""Which tier-1 tests kill five hand-written mutants of the mitigation code.

Run from the repository root:

    python3 tools/mutants.py

Each mutant is a list of exact (file, old, new) text substitutions, applied
to a copy of the repository in a temporary directory; the script stops with
an error if an ``old`` text is not found exactly once. For the unmutated copy
and for each mutant it runs the tier-1 suite with
tests/test_estimator_golden.py deselected (its pinned digests would kill
every mutant that moves a number), and reports the tests that fail on the
mutant but not on the unmutated copy, as a Markdown table on stdout.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLOCKS, SIMULATE = "src/blockpec/blocks.py", "src/blockpec/simulate.py"

MUTANTS = {
    "M1": (
        "block corrections are the identity, gamma kept",
        [(
            BLOCKS,
            'PlanSegment("block", *run, mix.gamma(), mix, lam)',
            'PlanSegment("block", *run, mix.gamma(), ZMixtureChannel.identity(mix.support), np.ones_like(lam))',
        )],
    ),
    "M2": (
        "block corrections are the forward channel",
        [(BLOCKS, "eigs = np.exp(-fwht(hist.reshape(-1, size)))", "eigs = np.exp(fwht(hist.reshape(-1, size)))")],
    ),
    "M3": (
        "per-gate corrections are the identity, gamma kept",
        [(
            BLOCKS,
            "dist = ZMixtureChannel(tuple(sorted(c.ops[i].qubits)), coeffs.copy())",
            "dist = ZMixtureChannel.identity(tuple(sorted(c.ops[i].qubits)))",
        )],
    ),
    "M4": (
        "estimator sign products are dropped",
        [(SIMULATE, "            signs *= sign[drawn]\n", "            pass\n")],
    ),
    "M5": (
        "exact corrections recover eigenvalues from coefficients",
        [(SIMULATE, "fix.coeffs.support, fix.eigenvalues", "fix.coeffs.support, fix.coeffs.eigenvalues()")],
    ),
}

SUITE = [
    sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
    "--continue-on-collection-errors", "--deselect", "tests/test_estimator_golden.py",
]


def failures(tree: Path) -> set[str]:
    """Node ids of the tests that fail in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(SUITE, cwd=tree, capture_output=True, text=True, env=env)
    if done.returncode not in (0, 1):
        raise SystemExit(f"the suite did not run in {tree} (exit {done.returncode}):\n{done.stdout[-2000:]}")
    # A node id may hold spaces (hypothesis-style parameters); " - " starts the message.
    return set(re.findall(r"^FAILED (.+?)(?: - .*)?$", done.stdout, re.MULTILINE))


def copy_repo(into: Path) -> Path:
    tree = into / "tree"
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache"))
    return tree


def apply(tree: Path, edits) -> None:
    for name, old, new in edits:
        path = tree / name
        text = path.read_text()
        if text.count(old) != 1:
            raise SystemExit(f"{name}: expected one occurrence of {old!r}, found {text.count(old)}")
        path.write_text(text.replace(old, new))


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tree = copy_repo(Path(tmp))
        sources = {name: (tree / name).read_text() for name in (BLOCKS, SIMULATE)}
        baseline = failures(tree)
        rows = []
        for key, (what, edits) in MUTANTS.items():
            apply(tree, edits)
            killers = sorted(failures(tree) - baseline)
            for name, text in sources.items():
                (tree / name).write_text(text)
            rows.append((key, what, killers))
            print(f"{key}: {len(killers)} killing tests", file=sys.stderr)
    print("| Mutant | Change | Killing tests | Killing tests per file |")
    print("|---|---|---|---|")
    for key, what, killers in rows:
        files = Counter(k.split("::")[0].removeprefix("tests/") for k in killers)
        per_file = ", ".join(f"`{f}` {count}" for f, count in sorted(files.items())) or "none: it survives"
        print(f"| {key} | {what} | {len(killers)} | {per_file} |")
    for key, _, killers in rows:
        print(f"\n{key}: " + " ".join(killers))
    print(f"\nFailing on the unmutated code too, so not counted: {' '.join(sorted(baseline)) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
