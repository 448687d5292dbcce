"""Benchmark of becphase: seeded workloads run through the public CLI entry point.

Run from the repository root:

    python3 perfbench/bench.py --workload phase_fock --seed 1 --seconds 30 --trace 0

One client calls `becphase.cli.main(argv)` in-process in a closed loop: the
next op starts when the previous one has returned. The loop runs whole passes
over the workload's op pool (see workloads.py) until the pass boundary nearest
to `--seconds`. Every output is checked after the loop, outside the timed
interval; an exception, a non-zero exit code or a failed check is a failed op.

`--trace 0` reports the end-to-end metrics: set-up time of a fresh
interpreter (median of samples taken between ops across the run), peak RSS
of a fresh process running the pool's largest op, and op latency median,
tail and throughput in units of a calibration kernel timed before each op
(calibration.py), so that the figures do not follow the machine's slow
phases; the same figures in seconds are in the report line.
`--trace 1` runs each op twice, untraced and traced in alternating order, and
reports per-op medians of the layer figures of spans.py plus the tracing
overhead. The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it is a JSON report with
the machine, the counts behind each figure and the sha256 of the emitted CSV.

The program is imported from `src/` next to this directory and from nowhere
else; without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# A single client on a shared machine: one BLAS thread keeps the figures from
# depending on what else runs there. OpenBLAS reads these once, when numpy loads.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up samples per pass over the pool; spread over the run, their median
# does not rest on one phase of the machine.
SETUP_PER_PASS = 2
TAIL_BEYOND = 10
# Calibration samples (centred on the op) whose median is an op's unit.
CAL_WINDOW = 5
# No new pass starts after this, so that a run ends well within 180 s.
HARD_STOP_S = 90.0
CHILD_TIMEOUT_S = 60.0

# Op latency and throughput are gated in units of the calibration kernel
# (calibration.py) timed next to each op; the seconds are in the report.
E2E_UNITS = {
    "setup_s": "s",
    "op_cal.p50": "cal",
    "op_cal.tail": "cal",
    "ops_per_cal": "1/cal",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.parse_config.self_s": "s",
    "cli.emit.self_s": "s",
    "cli.emit.bytes": "B",
    "dynamics.initial_state.self_s": "s",
    "dynamics.fock_dim": "count",
    "density.oracle_rho_path.self_s": "s",
    "density.oracle_rho_path.calls": "count",
    "density.oracle_rho_path.points": "count",
    "density.oracle_rho_path.cells": "count",
    "density.oracle_rho_path.bytes_computed": "B",
    "density.eigen_path.self_s": "s",
    "density.eigen_path.points": "count",
    "geomphase.converge_phase.self_s": "s",
    "geomphase.converge_phase.levels": "count",
    "geomphase.converge_phase.grid_points": "count",
    "geomphase.converge_phase.final_n_steps": "count",
    "geomphase.converge_phase.failed": "count",
    "geomphase.kinematic_phase.self_s": "s",
    "geomphase.phase_micro_micro_closed.self_s": "s",
    "geomphase.phase_trace.self_s": "s",
    "entanglement.concurrence_wootters.self_s": "s",
    "entanglement.concurrence_wootters.calls": "count",
    "trace.op_s.p50": "s",
    "trace.overhead_s": "s",
}

# Fresh interpreter: import the package and parse the first config.
SETUP_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from becphase.cli import parse_config
with open(sys.argv[2]) as fh:
    parse_config(fh.read())
"""
# Fresh process: run one op and print the exit code and peak RSS in KiB.
RSS_CHILD = """
import contextlib, io, resource, sys
sys.path.insert(0, sys.argv[1])
from becphase.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(sys.argv[2:])
print(rc, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


@dataclass
class Run:
    """One timed call of `becphase.cli.main`."""

    index: int
    traced: bool
    seconds: float
    rc: int | None
    text: str
    stderr: str = ""
    error: str | None = None
    cal_s: float = math.nan


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS


def load_program():
    """Import becphase from this checkout's src/ and refuse any other copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import becphase.cli

    if not Path(becphase.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"becphase was imported from {becphase.cli.__file__}, not {SRC}")
    return becphase


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def call(cli, index: int, argv: list[str], traced: bool = False) -> Run:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # a raising op is a failed op; the loop goes on
        return Run(index, traced, time.perf_counter() - start, None, "", err.getvalue(),
                   f"{type(exc).__name__}: {exc}")
    return Run(index, traced, time.perf_counter() - start, rc, out.getvalue(), err.getvalue())


def closed_loop(pass_once, seconds: float) -> tuple[list[Run], float, int]:
    """Whole passes until the pass boundary nearest to `seconds`; returns the
    runs, the timed wall time and the number of passes."""
    runs: list[Run] = []
    start = time.perf_counter()
    passes = 0
    while True:
        runs.extend(pass_once())
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / passes >= seconds or elapsed >= HARD_STOP_S:
            return runs, elapsed, passes


def failures(workload, ops, runs: list[Run]) -> list[str | None]:
    """Why each run failed, or None; identical outputs of one op are checked once."""
    verdicts: dict[tuple[int, str], str | None] = {}
    out = []
    for run in runs:
        if run.error is not None:
            out.append(run.error)
        elif run.rc != 0:
            out.append(f"exit code {run.rc}: {run.stderr.strip()}")
        else:
            key = (run.index, run.text)
            if key not in verdicts:
                try:
                    verdicts[key] = workload.check(ops[run.index], run.text)
                except (ValueError, KeyError, IndexError) as exc:
                    verdicts[key] = f"malformed output: {type(exc).__name__}: {exc}"
            out.append(verdicts[key])
    return out


def tail(values: list[float]) -> tuple[float, int]:
    """Highest multiple-of-ten percentile with at least TAIL_BEYOND samples
    above it (nearest rank). Whole tens keep the percentile, and so its rank
    in the op pool, fixed when a run completes one pass more or less."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100
    pct = 10 * math.floor(10 * (n - TAIL_BEYOND) / n)
    return ordered[max(0, math.ceil(pct * n / 100) - 1)], pct


def in_calibration_units(runs: list[Run]) -> list[float]:
    cal = [r.cal_s for r in runs]
    half = CAL_WINDOW // 2
    return [r.seconds / statistics.median(cal[max(0, k - half): k + half + 1])
            for k, r in enumerate(runs)]


def setup_seconds(config_path: Path) -> float:
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", SETUP_CHILD, str(SRC), str(config_path)])
    # A blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms,
    # which would quantize the figure.
    watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
    watchdog.start()
    try:
        rc = child.wait()
    finally:
        watchdog.cancel()
    if rc != 0:
        raise subprocess.CalledProcessError(rc, child.args)
    return time.perf_counter() - start


def peak_rss_mb(argv: list[str]) -> float:
    proc = subprocess.run([sys.executable, "-c", RSS_CHILD, str(SRC), *argv],
                          check=True, timeout=CHILD_TIMEOUT_S, capture_output=True, text=True)
    rc, kib = proc.stdout.split()
    if rc != "0":
        raise RuntimeError(f"memory probe op exited with {rc}: {proc.stderr.strip()}")
    return int(kib) * 1024 / 1e6


def run(name: str, seed: int, seconds: float, trace: bool, pool_size: int | None = None) -> dict:
    """One benchmark run; prints the report and returns the result object."""
    program = load_program()
    import calibration
    import spans
    import workloads

    cli, geomphase = program.cli, program.geomphase
    workload = workloads.WORKLOADS[name]
    ops = workloads.generate(name, seed, pool_size)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK))
    try:
        paths = []
        for k, op in enumerate(ops):
            paths.append(work / f"op{k:03d}.json")
            paths[-1].write_text(json.dumps(op.config))
        argvs = [op.argv(str(path)) for op, path in zip(ops, paths)]
        report: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                        "environment": environment(), "pool_size": len(ops),
                        "loop": "closed, 1 client, in-process becphase.cli.main"}
        metrics: dict[str, float] = {}
        if not trace:
            largest = max(range(len(ops)), key=lambda k: ops[k].size)
            metrics["peak_rss_mb"] = peak_rss_mb(argvs[largest])
            report["peak_rss_op"] = largest

        call(cli, 0, argvs[0])  # warm-up: lazy imports and first allocations
        tracer = spans.Tracer()

        def timed(index: int, traced: bool) -> Run:
            if not traced:
                return call(cli, index, argvs[index])
            op_id = len(tracer.op_seconds)
            with tracer.tracing(op_id, cli, geomphase):
                result = call(cli, index, argvs[index], traced=True)
            tracer.op_seconds[op_id] = result.seconds
            return result

        reference = calibration.Calibration()
        setup: list[float] = []
        setup_stride = math.ceil(len(ops) / SETUP_PER_PASS)

        def calibrated(index: int) -> Run:
            if index % setup_stride == 0:
                setup.append(setup_seconds(paths[0]))
            cal_s = reference.seconds()
            result = timed(index, False)
            result.cal_s = cal_s
            return result

        def pass_once() -> list[Run]:
            if not trace:
                return [calibrated(k) for k in range(len(ops))]
            # Untraced and traced back to back, alternating which goes first.
            return [timed(k, (j + k) % 2 == 1) for k in range(len(ops)) for j in range(2)]

        runs, wall, passes = closed_loop(pass_once, seconds)
        why = failures(workload, ops, runs)
        failed = sum(w is not None for w in why)
        first_pass = [r for r in runs[: len(runs) // passes] if not r.traced]
        report["csv_sha256"] = hashlib.sha256(
            b"".join(r.text.encode() for r in first_pass)).hexdigest()
        report.update(attempted=len(runs), failed=failed, fail_share=failed / len(runs),
                      passes=passes, timed_wall_s=wall,
                      failures=sorted({w for w in why if w is not None})[:5])
        if not trace:
            metrics["setup_s"] = statistics.median(setup)
            report["setup_s_samples"] = setup
            times = [r.seconds for r in runs]
            rel = in_calibration_units(runs)
            metrics["op_cal.p50"] = statistics.median(rel)
            metrics["op_cal.tail"], tail_pct = tail(rel)
            metrics["ops_per_cal"] = (len(runs) - failed) / sum(rel)
            report["op_s"] = {"p50": statistics.median(times), "tail": tail(times)[0],
                              "ops_per_s": (len(runs) - failed) / sum(times), "samples": len(times),
                              "tail_percentile": tail_pct}
            report["calibration_s.p50"] = statistics.median(r.cal_s for r in runs)
        else:
            metrics.update(layer_metrics(tracer, runs, len(ops), report))
            spans_path = WORK / f"spans-{name}-{seed}.jsonl"
            tracer.write(spans_path)
            report["spans_file"] = str(spans_path.relative_to(ROOT))
        units = LAYER_UNITS if trace else E2E_UNITS
        for key, unit in units.items():
            print(f"{key:44s} {metrics[key]:.6g} {unit}")
        print(json.dumps(report))
        return {
            "correct": failed == 0,
            "attempted": len(runs),
            "failed": failed,
            "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def layer_metrics(tracer, runs: list[Run], pool_size: int, report: dict) -> dict[str, float]:
    """Per-op medians of the layer figures over the traced ops, the tracing
    overhead, and (in the report) each layer's share of traced op time and
    the convergence counts of the first pass, which are exact for a seed."""
    per_op = tracer.per_op()
    figures = list(per_op.values())
    metrics = {key: statistics.median(f.get(key, 0.0) for f in figures)
               for key in LAYER_UNITS if not key.startswith("trace.")}
    untraced = statistics.median(r.seconds for r in runs if not r.traced)
    metrics["trace.op_s.p50"] = statistics.median(r.seconds for r in runs if r.traced)
    metrics["trace.overhead_s"] = metrics["trace.op_s.p50"] - untraced
    report["untraced_op_s.p50"] = untraced
    report["traced_ops"] = len(figures)
    total = sum(tracer.op_seconds.values())
    self_keys = sorted({k for f in figures for k in f if k.endswith(".self_s")})
    report["layer_share_of_op_time"] = {
        k[: -len(".self_s")]: sum(f.get(k, 0.0) for f in figures) / total for k in self_keys}
    report["first_pass"] = {
        key: int(sum(per_op[op].get(f"geomphase.converge_phase.{key}", 0) for op in range(pool_size)))
        for key in ("levels", "grid_points", "final_n_steps", "failed")}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_threads()
    try:
        load_program()
    except ImportError as exc:
        print(f"error: cannot import becphase from {SRC}: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
