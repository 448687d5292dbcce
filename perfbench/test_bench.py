"""Tests of the benchmark itself: every declared metric is printed with its
unit, a wrong output counts as a failed op, and without the program the
benchmark fails without printing a result."""

import csv
import dataclasses
import io
import json
import re
import shutil
import subprocess
import sys

import pytest

import bench

program = bench.load_program()
import workloads  # noqa: E402  (imports becphase, so it follows load_program)

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def test_declared_workloads_exist():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, capsys):
    result = bench.run(workload, seed=7, seconds=0.0, trace=trace, pool_size=1)
    printed = capsys.readouterr().out
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert re.search(rf"^{re.escape(name)}\s+\S+ {re.escape(unit)}$", printed, re.M), name


def _shift(text: str, column: str, delta: float) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    k = rows[0].index(column)
    rows[1][k] = repr(float(rows[1][k]) + delta)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


@pytest.mark.parametrize(
    "workload, column, delta",
    [
        ("sweep_micro", "phase_kinematic[rad]", 1e-3),
        ("phase_fock", "phase_unwrapped[rad]", 1e-3),
        ("evolve_dense", "concurrence[1]", 1e-3),
    ],
)
def test_wrong_output_is_a_failed_op(tmp_path, workload, column, delta):
    (op,) = workloads.generate(workload, seed=7, pool_size=1)
    path = tmp_path / "op.json"
    path.write_text(json.dumps(op.config))
    good = bench.call(program.cli, 0, op.argv(str(path)))
    runs = [
        good,
        dataclasses.replace(good, text=_shift(good.text, column, delta)),
        dataclasses.replace(good, rc=2, stderr="error: did not converge"),
        dataclasses.replace(good, rc=None, text="", error="RuntimeError: boom"),
    ]
    verdicts = bench.failures(workloads.WORKLOADS[workload], [op], runs)
    assert verdicts[0] is None
    assert all(v is not None for v in verdicts[1:])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/bench.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
