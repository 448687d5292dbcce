"""Seeded workloads of the becphase benchmark: op generators and output checks.

A workload turns a seed into a fixed pool of ops. An op is one CLI verb run
on a JSON config that the benchmark writes before timing. Each input whose
range changes the cost of an op (concurrence, |alpha|) is stratified over
its range, one stratum per op, and the seed places the value inside its
stratum. Every seed therefore draws the same mix of sizes, and a run that
executes whole passes over the pool measures that mix.

Checks recompute the reference with the library's own closed forms or
analytic density path and compare with the tolerances of the acceptance
criteria. Importing this module imports numpy and becphase, so the caller
fixes the BLAS thread count and the import path first.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from becphase.cli import initial_state, parse_config
from becphase.density import Scenario, analytic_rho_path, oracle_rho_path
from becphase.geomphase import analytic_path_builder, converge_phase
from becphase.model import quasicycle_period

# Tolerances of acceptance criteria 2 (closed-form path), 3 (oracle density)
# and 4 (concurrence identity).
CLOSED_FORM_TOL = 1e-6
DENSITY_TOL = 1e-9
CONCURRENCE_TOL = 1e-12
# Times per op at which the oracle density is compared with the analytic one.
DENSITY_CHECK_POINTS = 5

EVOLVE_STEPS = 8192

# Physics of configs/sweep_entanglement_micro.json (lambda_c tau = 1e-4, D = 15),
# copied so that the benchmark inputs do not move when shipped configs do.
SWEEP_MICRO_PHYSICS = {
    "scenario": "micro_micro",
    "omega": 1.0,
    "lambda_c": 1.5915494309189535e-05,
    "alpha": 1.0,
    "eta0": 0.0,
}
SWEEP_C_MAX = 0.99

# Shipped scenario configs with |alpha| = 1; eta0 or coefficients come from the seed.
EVOLVE_SCENARIOS = (
    {"scenario": "micro_micro", "omega": 1.0, "lambda_c": 0.001, "alpha": 1.0},
    {"scenario": "macro_both", "omega": 1.0, "j_vdw": 0.1, "lambda_c": 0.125, "alpha": 1.0},
    {"scenario": "macro_single", "omega": 1.0, "j_vdw": 0.1, "lambda_c": 0.125, "alpha": 1.0},
    {
        "scenario": "general",
        "omega": 1.0,
        "j_vdw": 0.05,
        "omega_b": 0.9,
        "chi": 0.002,
        "lambda_c": 0.04,
        "alpha": [2.0 / math.sqrt(5.0), 1.0 / math.sqrt(5.0)],
    },
)


@dataclass(frozen=True)
class Op:
    """One CLI invocation: `becphase <verb> --config <file> <extra>`."""

    verb: str
    config: dict
    extra: tuple[str, ...] = ()
    # Input size that sets the op's memory; the memory probe runs the largest.
    size: float = 0.0

    def argv(self, config_path: str) -> list[str]:
        return [self.verb, "--config", config_path, *self.extra]


@dataclass(frozen=True)
class Workload:
    name: str
    pool_size: int
    generate: Callable[[random.Random, int], list[Op]]
    check: Callable[[Op, str], str | None]


def _strata(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    return [lo + (hi - lo) * (k + rng.random()) / count for k in range(count)]


def _read_table(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# sweep_micro: the grid-doubling loop and the eigen-path at D = 15.
# ---------------------------------------------------------------------------

def _sweep_ops(rng: random.Random, count: int) -> list[Op]:
    half = SWEEP_C_MAX / 2.0
    lows = _strata(rng, 0.0, half, count)
    highs = _strata(rng, half, SWEEP_C_MAX, count)
    return [
        Op(
            "sweep",
            {
                **SWEEP_MICRO_PHYSICS,
                "sweep": {"variable": "concurrence", "start": lo, "stop": hi, "count": 2},
            },
            size=hi,
        )
        for lo, hi in zip(lows, highs)
    ]


def _check_sweep(op: Op, text: str) -> str | None:
    rows = _read_table(text)
    spec = op.config["sweep"]
    expected = [spec["start"], spec["stop"]]
    if [float(r["concurrence[1]"]) for r in rows] != expected:
        return f"sweep rows do not match the requested points {expected}"
    for row in rows:
        dev = abs(float(row["phase_kinematic[rad]"]) - float(row["phase_closed_form[rad]"]))
        if not dev <= CLOSED_FORM_TOL:
            return f"C={row['concurrence[1]']}: |kinematic - closed form| = {dev:.3g} rad"
    return None


# ---------------------------------------------------------------------------
# phase_fock: the reduced-density path on a wide Fock basis (D = 129..377).
# ---------------------------------------------------------------------------

def _phase_ops(rng: random.Random, count: int) -> list[Op]:
    ops = []
    for k, mod in enumerate(_strata(rng, 8.0, 16.0, count)):
        arg = rng.uniform(-math.pi, math.pi)
        config = {
            "scenario": ("macro_both", "macro_single")[k % 2],
            "omega": 1.0,
            "j_vdw": rng.uniform(0.0, 0.1),
            "lambda_c": rng.uniform(0.02, 0.1),
            "alpha": [mod * math.cos(arg), mod * math.sin(arg)],
            "eta0": rng.uniform(0.2, 0.6),
        }
        ops.append(Op("phase", config, size=mod))
    return ops


def _check_phase(op: Op, text: str) -> str | None:
    (row,) = _read_table(text)
    cfg = parse_config(json.dumps(op.config))
    scenario = Scenario(cfg.scenario)
    # The oracle density against the analytic one: at large |alpha| the phase
    # itself is ~0 whatever the Fock window, the density is not.
    times = np.linspace(0.0, quasicycle_period(cfg.params), DENSITY_CHECK_POINTS)
    numeric = oracle_rho_path(initial_state(cfg), times, cfg.params)
    analytic = analytic_rho_path(scenario, cfg.eta0, cfg.params, times)
    dev = float(np.max(np.abs(numeric - analytic)))
    if not dev <= DENSITY_TOL:
        return f"oracle density deviates from the analytic path by {dev:.3g}"
    reference = converge_phase(
        analytic_path_builder(scenario, cfg.eta0, cfg.params, degeneracy_tol=cfg.degeneracy_tol),
        n_start=cfg.n_steps,
        phase_tol=cfg.phase_tol,
    )
    dev = abs(float(row["phase_unwrapped[rad]"]) - reference.unwrapped)
    if not dev <= cfg.phase_tol:
        return f"phase deviates from the analytic-path phase by {dev:.3g} rad"
    return None


# ---------------------------------------------------------------------------
# evolve_dense: per-point Wootters concurrence and CSV emission, no convergence loop.
# ---------------------------------------------------------------------------

def _evolve_ops(rng: random.Random, count: int) -> list[Op]:
    ops = []
    for k in range(count):
        config = dict(EVOLVE_SCENARIOS[k % len(EVOLVE_SCENARIOS)])
        if config["scenario"] == "general":
            coeffs = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(4)]
            norm = math.sqrt(sum(abs(c) ** 2 for c in coeffs))
            config["coefficients"] = [[c.real / norm, c.imag / norm] for c in coeffs]
        else:
            config["eta0"] = rng.uniform(0.0, math.pi / 2.0)
        occupied = 4 if config["scenario"] == "general" else 2
        ops.append(Op("evolve", config, ("--steps", str(EVOLVE_STEPS)), size=occupied))
    return ops


# Columns the library leaves empty for the general scenario (no closed form).
_CLOSED_FORM_COLUMNS = ("lambda_phase[rad]", "gamma_decay[1]")


def _check_evolve(op: Op, text: str) -> str | None:
    rows = _read_table(text)
    if len(rows) != EVOLVE_STEPS + 1:
        return f"expected {EVOLVE_STEPS + 1} rows, got {len(rows)}"
    general = op.config["scenario"] == "general"
    for m, row in enumerate(rows):
        for column, cell in row.items():
            if column == "warnings" or (general and column in _CLOSED_FORM_COLUMNS and cell == ""):
                continue
            if not math.isfinite(float(cell)):
                return f"row {m}: {column} = {cell!r} is not finite"
        for column in ("concurrence[1]", "purity[1]"):
            value = float(row[column])
            if not 0.0 <= value <= 1.0:
                return f"row {m}: {column} = {value!r} lies outside [0, 1]"
    if op.config["scenario"] == "micro_micro":
        expected = abs(math.sin(2.0 * op.config["eta0"]))
        dev = abs(float(rows[0]["concurrence[1]"]) - expected)
        if not dev <= CONCURRENCE_TOL:
            return f"t=0 concurrence deviates from |sin 2 eta0| by {dev:.3g}"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep_micro", 8, _sweep_ops, _check_sweep),
        Workload("phase_fock", 16, _phase_ops, _check_phase),
        Workload("evolve_dense", 8, _evolve_ops, _check_evolve),
    )
}


def generate(name: str, seed: int, pool_size: int | None = None) -> list[Op]:
    """The op pool of a workload; the same seed gives the same ops."""
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    return workload.generate(rng, pool_size or workload.pool_size)
