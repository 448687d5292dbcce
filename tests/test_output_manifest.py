"""Every verb's output on the shipped configs and on a seeded corpus of
configs, pinned by a manifest.

tests/output_manifest.json records, for each case (a verb, a config and
its flags), the exit code, the sha256 of stdout and of stderr, and the
parsed cells of stdout. The cases run in process through cli.main; a
corpus case writes its config to a temporary file first, and runs with
geomphase.MAX_STEPS at its max_steps when it has one. On the
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
import tempfile
from pathlib import Path

import numpy as np
import pytest

from becphase import geomphase, parse_config
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


# The corpus draws its configs from a box (corpus_doc) with this seed.
CORPUS_SEED = 13
# A general config that does not converge within the default MAX_STEPS
# (2**21 steps, about 1.5 GB); it runs with MAX_STEPS at DEEP_MAX_STEPS,
# which it exits 2 at.
DEEP_GENERAL = {
    "scenario": "general", "omega": 0.03138, "j_vdw": -0.5331, "omega_b": 1.793, "chi": -0.06522,
    "lambda_c": 0.1777, "alpha": [30.37, -12.65],
    "coefficients": [[0.11903547785939102, -0.31209301758092434], [0.3611076261112618, -0.22406678185297133],
                     [-0.39011627197615545, 0.26507900531713124], [0.14604352745774024, -0.6812030287583638]],
}
DEEP_MAX_STEPS = 2**14
# A macro_single config whose run from 2 steps accepts 1.58e-9 rad at 4
# steps with no warning, where the phase is 2.6275 rad (from 256 steps).
ALIASED = {
    "scenario": "macro_single", "omega": 0.05838953941129515, "j_vdw": -0.14146448824410474,
    "lambda_c": 0.13889322900381032, "alpha": [2.7227849641813426, 2.207668539485735],
    "eta0": 0.3912109973203218, "grid": {"n_steps": 2, "phase_tol": 3.195232454528061e-05},
}
SWEEP_RANGES = {"concurrence": (0.0, 0.99), "alpha": (0.1, 4.0), "lambda_c": (1e-3, 0.5),
                "eta0": (0.0, math.pi / 2)}


def corpus_doc(rng: np.random.Generator, scenario: str, occupied: int = 4) -> dict:
    """One config of the corpus box: random physics, |alpha| up to 20, a start
    of 2 ... 512 steps, and for general a state on `occupied` basis states."""
    alpha_abs, arg = 20.0 * rng.uniform() ** 2, rng.uniform(-math.pi, math.pi)
    doc = {
        "scenario": scenario,
        "omega": rng.uniform(0.2, 2.0),
        "j_vdw": rng.uniform(-0.5, 0.5),
        "omega_b": rng.uniform(0.0, 2.0),
        "chi": rng.uniform(-0.1, 0.1),
        "lambda_c": 10.0 ** rng.uniform(-3.0, 0.0),
        "alpha": [alpha_abs * math.cos(arg), alpha_abs * math.sin(arg)],
        "grid": {"n_steps": 2 ** int(rng.integers(1, 10))},
    }
    if scenario == "general":
        coefficients = rng.normal(size=(4, 2))
        coefficients[rng.permutation(4)[occupied:]] = 0.0
        doc["coefficients"] = (coefficients / np.linalg.norm(coefficients)).tolist()
    else:
        doc["eta0"] = rng.uniform(0.0, math.pi / 2)
    return doc


def corpus() -> list[dict]:
    """The corpus cases, each a config, a verb and its max_steps (None: the
    module's MAX_STEPS): phase on nine draws per scenario (general on 2, 3
    and 4 basis states in turn) and evolve on one more; sweeps of three
    points over each sweep variable on two named scenarios; and phase on
    DEEP_GENERAL and ALIASED."""
    rng = np.random.default_rng(CORPUS_SEED)
    cases = []
    for scenario in CONFIGS[:4]:
        for k in range(10):
            doc = corpus_doc(rng, scenario, occupied=2 + k % 3)
            cases.append({"config": doc, "verb": "phase" if k < 9 else "evolve", "max_steps": None})
    for k, (variable, (start, stop)) in enumerate(SWEEP_RANGES.items()):
        for scenario in (CONFIGS[k % 3], CONFIGS[(k + 1) % 3]):
            doc = corpus_doc(rng, scenario)
            doc["sweep"] = {"variable": variable, "start": start, "stop": stop, "count": 3}
            cases.append({"config": doc, "verb": "sweep", "max_steps": None})
    return cases + [{"config": DEEP_GENERAL, "verb": "phase", "max_steps": DEEP_MAX_STEPS},
                    {"config": ALIASED, "verb": "phase", "max_steps": None}]


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


def run_corpus_case(case: dict) -> tuple[int, str, str]:
    with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as mp:
        path = Path(directory) / "config.json"
        path.write_text(json.dumps(case["config"]))
        if case["max_steps"] is not None:
            mp.setattr(geomphase, "MAX_STEPS", case["max_steps"])
        return run_case([case["verb"], "--config", str(path)])


def cells(argv: list[str], stdout: str) -> list[list[str]]:
    """A table's header and sampled rows, or a report's lines as words."""
    if argv[0] == "validate":
        return [line.split() for line in stdout.splitlines()]
    rows = list(csv.reader(io.StringIO(stdout), delimiter="\t" if "tsv" in argv else ","))
    stride = max(1, (len(rows) - 2) // ROW_SAMPLE)
    return rows[:1] + rows[1::stride]


def record(argv: list[str], case: dict | None = None) -> dict:
    """The manifest's record of a shipped-config argv, or of a corpus case
    (whose cells are parsed as those of its verb alone)."""
    code, stdout, stderr = run_case(argv) if case is None else run_corpus_case(case)
    return {
        **({"argv": argv} if case is None else case),
        "exit": code,
        "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        "stderr_sha256": hashlib.sha256(stderr.encode()).hexdigest(),
        "cells": cells(argv, stdout),
    }


def write_manifest() -> None:
    lines = [json.dumps(record(argv)) for argv in cases()]
    corpus_lines = [json.dumps(record([case["verb"]], case)) for case in corpus()]
    MANIFEST.write_text(
        '{"environment": ' + json.dumps(environment()) + ',\n"cases": [\n' + ",\n".join(lines)
        + '\n],\n"corpus": [\n' + ",\n".join(corpus_lines) + "\n]}\n"
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


def cell_mismatches(argv: list[str], got: list[list[str]], want: list[list[str]],
                    phase_tol: float | None = None) -> list[str]:
    """Where the cells got differ from want beyond the tolerances of the
    module docstring; empty when they agree. phase_tol is that of the
    config that argv names unless given."""
    if [len(row) for row in got] != [len(row) for row in want]:
        return [f"shape {[len(row) for row in got]} != {[len(row) for row in want]}"]
    if argv[0] == "validate":
        return [f"line {i}: {g!r} != {w!r}" for i, (g_line, w_line) in enumerate(zip(got, want))
                for g, w in zip(g_line, w_line) if not _agree(g, w, PHASE_TOL)]
    if got[:1] != want[:1]:
        return [f"header {got[:1]} != {want[:1]}"]
    if phase_tol is None:
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


def test_the_manifest_holds_the_corpus(manifest):
    assert [{k: case[k] for k in ("config", "verb", "max_steps")} for case in manifest["corpus"]] == corpus()


def test_corpus_outputs_match_the_manifest(manifest):
    same = manifest["environment"] == environment()
    for case in manifest["corpus"]:
        code, stdout, stderr = run_corpus_case(case)
        argv, phase_tol = [case["verb"]], parse_config(json.dumps(case["config"])).phase_tol
        assert code == case["exit"], case
        assert cell_mismatches(argv, cells(argv, stdout), case["cells"], phase_tol) == [], case
        if same:
            assert hashlib.sha256(stdout.encode()).hexdigest() == case["stdout_sha256"], case
            assert hashlib.sha256(stderr.encode()).hexdigest() == case["stderr_sha256"], case


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
