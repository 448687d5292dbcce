"""Move each tolerance constant of becphase to a low and a high value, and
run the test suite on each move.

Every constant in CONSTANTS is either pinned, when a boundary test must fail
once it moves in either direction, or a speed knob, when the tests must pass
at both values. For each constant and value the script copies src/, tests/,
configs/ and pyproject.toml (and scripts/ and perfbench/, which
tests/test_dead_code.py reads) to a temporary directory, rewrites the
constant's module-level assignment there, and runs `pytest -x -q tests` on
that copy. It prints one row per constant and exits 1 if a pinned constant
passes at either value or a speed knob fails at either value.

    python scripts/constant_sweep.py

The runs are sequential; each takes about as long as the test suite, or
less when it stops at its first failure.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "configs", "scripts", "perfbench", "pyproject.toml")

# (module, name, low, high, kind): each value replaces the right-hand side of
# the module's `name = ...` line. Most move 100 times each way. The
# exceptions: COARSE_LINK_WARNING and RATIO_WINDOW move within (0, 1) and
# around 1, and _HALF_BAND stays above 2**-45, below which its comment says
# the text changes.
CONSTANTS = [
    ("density", "HERMITICITY_TOL", "1e-14", "1e-10", "pinned"),
    ("density", "TRACE_TOL", "1e-12", "1e-8", "pinned"),
    ("density", "POSITIVITY_TOL", "1e-12", "1e-8", "pinned"),
    ("density", "DEGENERACY_TOL", "1e-11", "1e-7", "pinned"),
    ("density", "SUPPORT_TOL", "1e-14", "1e-10", "pinned"),
    ("density", "MATCH_MARGIN", "1e-8", "1e-4", "speed knob"),
    ("dynamics", "JOINT_NORM_TOL", "1e-12", "1e-8", "pinned"),
    ("dynamics", "TAIL_TOL", "1e-14", "1e-10", "pinned"),
    ("geomphase", "COARSE_LINK_WARNING", "0.5", "0.99", "pinned"),
    ("geomphase", "ORIGIN_WARNING_RATIO", "1e-8", "1e-4", "pinned"),
    ("geomphase", "RATIO_WINDOW", "(0.97, 1.03)", "(0.5, 1.5)", "pinned"),
    ("geomphase", "SPECIAL_POINT_TOL", "1e-11", "1e-7", "pinned"),
    ("cli", "ORACLE_MATCH_TOL", "1e-11", "1e-7", "pinned"),
    ("cli", "_HALF_BAND", "2.0**-44", "2.0**-30", "speed knob"),
    ("entanglement", "ABOVE_ONE_TOL", "1e-14", "1e-10", "pinned"),
    ("entanglement", "WITNESS_RANGE_TOL", "1e-14", "1e-10", "pinned"),
    ("entanglement", "RANK_TWO_TOL", "1e-12", "1e-8", "pinned"),
]


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def set_constant(tree: Path, module: str, name: str, value: str) -> None:
    path = tree / "src" / "becphase" / f"{module}.py"
    text, count = re.subn(rf"^{re.escape(name)} = .*$", f"{name} = {value}", path.read_text(), flags=re.M)
    if count != 1:
        raise SystemExit(f"{path.name}: expected one assignment of {name}, found {count}")
    path.write_text(text)


def run_tests(tree: Path) -> tuple[bool, str]:
    """Whether the tests pass on the copy, and the test that failed or the
    last line they print."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    where = subprocess.run([sys.executable, "-c", "import becphase; print(becphase.__file__)"],
                           cwd=tree, env=env, capture_output=True, text=True, check=True)
    if not Path(where.stdout.strip()).is_relative_to(tree):
        raise SystemExit(f"the copy's tests would import becphase from {where.stdout.strip()}")
    run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"],
                         cwd=tree, env=env, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    failed = [line.split(" - ")[0] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return run.returncode == 0, (failed or lines or [run.stderr.strip()[-200:]])[-1]


def main() -> int:
    bad = 0
    print(f"{'constant':<22} {'kind':<10} {'value':<14} {'tests':<6} {'as required':<11} failed test or summary")
    for module, name, low, high, kind in CONSTANTS:
        for value in (low, high):
            with tempfile.TemporaryDirectory() as tmp:
                tree = Path(tmp).resolve()
                copy_tree(tree)
                set_constant(tree, module, name, value)
                passed, last = run_tests(tree)
            ok = passed == (kind == "speed knob")
            bad += not ok
            print(f"{name:<22} {kind:<10} {value:<14} {'pass' if passed else 'fail':<6} "
                  f"{'yes' if ok else 'NO':<11} {last}", flush=True)
    print(f"{bad} of {2 * len(CONSTANTS)} runs disagree with their constant's kind")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
