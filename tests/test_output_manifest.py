"""Every verb's output on the shipped configs, pinned by a manifest.

tests/output_manifest.json records, for each case (a verb, a config and
its flags), the exit code, the sha256 of stdout and of stderr, and the
parsed cells of stdout. The cases run in process through cli.main. On the
numpy version, BLAS and CPU recorded in the manifest the bytes must match,
and everywhere the cells must: [rad] columns within the config's phase_tol
(principal values modulo 2 pi), other floats within 1e-12 of their
column's largest magnitude, the validation report's numbers within
PHASE_TOL, and everything else exactly.

Rewrite the manifest, after a change that moves output on purpose, with

    PYTHONPATH=src python tests/test_output_manifest.py

and list its diff as the change's byte changes.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
from pathlib import Path

import numpy as np
import pytest

from becphase import parse_config
from becphase.cli import main
from becphase.geomphase import PHASE_TOL

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).resolve().parent / "output_manifest.json"
CONFIGS = ("micro_micro", "macro_both", "macro_single", "general",
           "sweep_entanglement_micro", "sweep_entanglement_macro")
# at most this many rows of a table past the first are kept as cells:
# every stride-th row, stride = (rows - 1) // ROW_SAMPLE
ROW_SAMPLE = 32


def cases() -> list[list[str]]:
    """Every verb on each shipped config at its own grid, at 8,192 steps
    and as tsv; phase at 2 ... 128 steps on the four point configs; both
    forms of validate. The two sweep configs' sweeps are the figure CSVs."""
    argvs = []
    for name in CONFIGS:
        for verb in ("phase", "evolve", "witness", "sweep"):
            base = [verb, "--config", f"configs/{name}.json"]
            argvs += [base, base + ["--steps", "8192"], base + ["--format", "tsv"]]
    for name in CONFIGS[:4]:
        argvs += [["phase", "--config", f"configs/{name}.json", "--steps", str(2**k)] for k in range(1, 8)]
    return argvs + [["validate"], ["validate", "--config", "configs/general.json"]]


def environment() -> dict:
    """What output bytes depend on besides the source: numpy's version, its
    BLAS and the CPU features its kernels dispatch on."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "machine": platform.machine(),
        "simd": config["SIMD Extensions"]["found"],
    }


def run_case(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def cells(argv: list[str], stdout: str) -> list[list[str]]:
    """A table's header and sampled rows, or a report's lines as words."""
    if argv[0] == "validate":
        return [line.split() for line in stdout.splitlines()]
    rows = list(csv.reader(io.StringIO(stdout), delimiter="\t" if "tsv" in argv else ","))
    stride = max(1, (len(rows) - 2) // ROW_SAMPLE)
    return rows[:1] + rows[1::stride]


def record(argv: list[str]) -> dict:
    code, stdout, stderr = run_case(argv)
    return {
        "argv": argv,
        "exit": code,
        "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        "stderr_sha256": hashlib.sha256(stderr.encode()).hexdigest(),
        "cells": cells(argv, stdout),
    }


def write_manifest() -> None:
    lines = [json.dumps(record(argv)) for argv in cases()]
    MANIFEST.write_text(
        '{"environment": ' + json.dumps(environment()) + ',\n"cases": [\n' + ",\n".join(lines) + "\n]}\n"
    )


def _float(cell: str) -> float | None:
    try:
        return float(cell.rstrip(","))
    except ValueError:
        return None


def _agree(got: str, want: str, tol: float | None, period: float | None = None) -> bool:
    """Equal cells, or numbers within tol (None: equal cells only), their
    difference taken modulo period when given."""
    if got == want:
        return True
    a, b = _float(got), _float(want)
    if tol is None or a is None or b is None:
        return False
    return abs(a - b if period is None else math.remainder(a - b, period)) <= tol


def cell_mismatches(argv: list[str], got: list[list[str]], want: list[list[str]]) -> list[str]:
    """Where the cells got differ from want beyond the tolerances of the
    module docstring; empty when they agree."""
    if [len(row) for row in got] != [len(row) for row in want]:
        return [f"shape {[len(row) for row in got]} != {[len(row) for row in want]}"]
    if argv[0] == "validate":
        return [f"line {i}: {g!r} != {w!r}" for i, (g_line, w_line) in enumerate(zip(got, want))
                for g, w in zip(g_line, w_line) if not _agree(g, w, PHASE_TOL)]
    if got[:1] != want[:1]:
        return [f"header {got[:1]} != {want[:1]}"]
    phase_tol = parse_config((ROOT / argv[2]).read_text()).phase_tol
    bad = []
    for k, name in enumerate(want[0] if want else ()):
        column = [row[k] for row in want[1:]]
        if name == "n_steps[1]":
            tol = None
        elif name.endswith("[rad]"):
            tol = phase_tol
        else:
            tol = 1e-12 * max((abs(_float(cell) or 0.0) for cell in column), default=0.0)
        period = 2.0 * math.pi if "principal" in name else None
        bad += [f"row {i} {name}: {row[k]!r} != {w!r}" for i, (row, w) in enumerate(zip(got[1:], column))
                if not _agree(row[k], w, tol, period)]
    return bad


@pytest.fixture(scope="module")
def manifest():
    return json.loads(MANIFEST.read_text())


@pytest.fixture(scope="module")
def outputs(manifest):
    return {tuple(case["argv"]): run_case(case["argv"]) for case in manifest["cases"]}


def test_the_manifest_holds_every_case(manifest):
    assert [case["argv"] for case in manifest["cases"]] == cases()


def test_outputs_match_the_manifest(manifest, outputs):
    """Exit codes and cells everywhere, and the bytes as well on the
    recorded environment."""
    same = manifest["environment"] == environment()
    for case in manifest["cases"]:
        argv = case["argv"]
        code, stdout, stderr = outputs[tuple(argv)]
        assert code == case["exit"], argv
        assert cell_mismatches(argv, cells(argv, stdout), case["cells"]) == [], argv
        if same:
            assert hashlib.sha256(stdout.encode()).hexdigest() == case["stdout_sha256"], argv
            assert hashlib.sha256(stderr.encode()).hexdigest() == case["stderr_sha256"], argv


def test_cells_catch_a_move_beyond_their_tolerance(manifest):
    by_argv = {tuple(case["argv"]): case["cells"] for case in manifest["cases"]}
    argv = ["phase", "--config", "configs/micro_micro.json"]
    want = by_argv[tuple(argv)]
    column = want[0].index("phase_unwrapped[rad]")
    for shift, caught in ((0.5 * PHASE_TOL, False), (2.0 * PHASE_TOL, True)):
        got = [list(row) for row in want]
        got[1][column] = repr(float(want[1][column]) + shift)
        assert bool(cell_mismatches(argv, got, want)) is caught, shift
    got = [list(row) for row in want]
    got[1][want[0].index("n_steps[1]")] = "1024"
    assert cell_mismatches(argv, got, want)
    report = by_argv[("validate",)]
    got = [list(row) for row in report]
    got[2][-1] = "MISMATCH"
    assert cell_mismatches(["validate"], got, report)


if __name__ == "__main__":
    write_manifest()
