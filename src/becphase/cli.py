"""Scenario runner: JSON config parsing, evolve/phase/witness/sweep pipelines,
machine-readable CSV/TSV output, and the analytic-vs-numeric validation report."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .model import ModelParams, quasicycle_period
from .dynamics import (
    CoherentBranches,
    JointState,
    bell_initial,
    check_coefficients,
    general_initial,
    macro_both_initial,
    macro_single_initial,
)
from .density import (
    BLOCK_INDEX,
    DEGENERACY_TOL,
    EigenPath,
    Scenario,
    analytic_rho_path,
    coherent_rho_path,
    decay_phase,
    eigen_path,
    oracle_rho_path,
    partial_trace,
)
from .geomphase import (
    MAX_STEPS,
    N_STEPS,
    PHASE_TOL,
    ConvergenceError,
    PhaseResult,
    analytic_path_builder,
    at_special_point,
    converge_phase,
    phase_macro_closed,
    phase_micro_micro_closed,
    phase_trace,
    refining_path_builder,
    weak_coupling_phase,
    weak_coupling_phase_limit,
)
from .entanglement import (
    concurrence_wootters,
    hybrid_concurrence,
    macro_phase_relation,
    purity_oracle,
    witness_micro_macro,
    witness_micro_micro,
)

PARAM_KEYS = ("omega", "j_vdw", "omega_b", "chi", "lambda_c", "alpha")
TOP_KEYS = set(PARAM_KEYS) | {"scenario", "eta0", "coefficients", "grid", "sweep", "phase"}
GRID_KEYS = {"n_steps", "phase_tol", "degeneracy_tol"}
SWEEP_KEYS = {"variable", "start", "stop", "count"}
SWEEP_VARIABLES = ("concurrence", "alpha", "lambda_c", "eta0")
# The most points a sweep may have; the shipped sweeps use 50.
MAX_SWEEP_COUNT = 1000
# The finest grid evolve prints: it holds whole-path arrays of about 2 KB
# per grid point (peak RSS ~280 MB at this bound on micro_micro).
MAX_EVOLVE_STEPS = 2**17
MANDATORY = {
    "micro_micro": ("omega", "lambda_c", "alpha", "eta0"),
    "macro_both": ("omega", "lambda_c", "alpha", "eta0"),
    "macro_single": ("omega", "lambda_c", "alpha", "eta0"),
    "general": ("omega", "lambda_c", "alpha", "coefficients"),
}
SCENARIOS = tuple(MANDATORY)


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    start: float
    stop: float
    count: int


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    params: ModelParams
    eta0: float | None = None
    coefficients: np.ndarray | None = None
    n_steps: int = N_STEPS
    phase_tol: float = PHASE_TOL
    degeneracy_tol: float = DEGENERACY_TOL
    sweep: SweepSpec | None = None
    phase: float | None = None

    def __post_init__(self) -> None:
        if self.n_steps < 2 or self.n_steps % 2:
            raise ValueError(f"n_steps must be an even integer >= 2, got {self.n_steps}")
        if self.n_steps > MAX_STEPS:
            raise ValueError(f"n_steps must be at most {MAX_STEPS}, got {self.n_steps}")


def _real(value, key: str) -> float:
    """A finite JSON number as a float; null, bools, strings, lists and ints
    beyond the float range are refused."""
    if type(value) is int and abs(value) < 1e308 or type(value) is float and math.isfinite(value):
        return float(value)
    raise ValueError(f"{key} must be a finite number, got {value!r}")


def _integer(value, key: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def _as_complex(value, key: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(_real(value, key))
    if isinstance(value, list) and len(value) == 2:
        return complex(_real(value[0], key), _real(value[1], key))
    raise ValueError(f"{key} must be a number or a [re, im] pair, got {value!r}")


def _check_keys(doc: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ValueError(f"unknown {where} keys: {', '.join(unknown)}")


def parse_config(text: str) -> RunConfig:
    """Validate a JSON configuration document and fill defaults."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"configuration is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("configuration must be a JSON object")
    _check_keys(doc, TOP_KEYS, "configuration")

    scenario = doc.get("scenario")
    if scenario not in SCENARIOS:
        raise ValueError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    missing = [k for k in MANDATORY[scenario] if k not in doc]
    if missing:
        raise ValueError(
            f"scenario {scenario!r} requires keys: {', '.join(MANDATORY[scenario])}; "
            f"missing: {', '.join(missing)}"
        )

    params = ModelParams(
        **{k: _real(doc.get(k, 0.0), k) for k in PARAM_KEYS if k != "alpha"},
        alpha=_as_complex(doc.get("alpha", 1.0), "alpha"),
    )

    coefficients = None
    if "coefficients" in doc:
        raw = doc["coefficients"]
        if not isinstance(raw, list) or len(raw) != 4:
            raise ValueError("coefficients must be a list of four entries")
        coefficients = check_coefficients([_as_complex(v, "coefficients") for v in raw])

    grid = doc.get("grid", {})
    if not isinstance(grid, dict):
        raise ValueError("grid must be an object")
    _check_keys(grid, GRID_KEYS, "grid")
    n_steps = _integer(grid.get("n_steps", N_STEPS), "grid.n_steps")
    phase_tol = _real(grid.get("phase_tol", PHASE_TOL), "grid.phase_tol")
    degeneracy_tol = _real(grid.get("degeneracy_tol", DEGENERACY_TOL), "grid.degeneracy_tol")
    if not phase_tol > 0:
        raise ValueError(f"grid.phase_tol must be positive, got {phase_tol}")
    if not degeneracy_tol >= 0:
        raise ValueError(f"grid.degeneracy_tol must not be negative, got {degeneracy_tol}")

    sweep = None
    if "sweep" in doc:
        sdoc = doc["sweep"]
        if not isinstance(sdoc, dict):
            raise ValueError("sweep must be an object")
        _check_keys(sdoc, SWEEP_KEYS, "sweep")
        if SWEEP_KEYS - set(sdoc):
            raise ValueError(f"sweep requires keys: {', '.join(sorted(SWEEP_KEYS))}")
        variable = sdoc["variable"]
        if variable not in SWEEP_VARIABLES:
            raise ValueError(
                f"sweep variable must be one of {SWEEP_VARIABLES}, got {variable!r}"
            )
        count = _integer(sdoc["count"], "sweep.count")
        if not 2 <= count <= MAX_SWEEP_COUNT:
            raise ValueError(f"sweep.count must lie in [2, {MAX_SWEEP_COUNT}], got {count}")
        sweep = SweepSpec(
            variable, _real(sdoc["start"], "sweep.start"), _real(sdoc["stop"], "sweep.stop"), count
        )

    eta0 = _real(doc["eta0"], "eta0") if "eta0" in doc else None
    phase = _real(doc["phase"], "phase") if "phase" in doc else None
    return RunConfig(
        scenario=scenario,
        params=params,
        eta0=eta0,
        coefficients=coefficients,
        n_steps=n_steps,
        phase_tol=phase_tol,
        degeneracy_tol=degeneracy_tol,
        sweep=sweep,
        phase=phase,
    )


# ---------------------------------------------------------------------------
# Pipelines.
# ---------------------------------------------------------------------------

def initial_branches(cfg: RunConfig) -> CoherentBranches:
    if cfg.scenario == "micro_micro":
        return bell_initial(cfg.eta0, cfg.params)
    if cfg.scenario == "macro_both":
        return macro_both_initial(cfg.eta0, cfg.params)
    if cfg.scenario == "macro_single":
        return macro_single_initial(cfg.eta0, cfg.params)
    return general_initial(cfg.coefficients, cfg.params)


def initial_state(cfg: RunConfig) -> JointState:
    """The configured state on the truncated Fock basis, for the ground-truth
    oracle_rho_path."""
    return initial_branches(cfg).fock()


def path_builder(cfg: RunConfig) -> Callable[[int], EigenPath]:
    state0 = initial_branches(cfg)
    # coherent_rho_path and eigen_path are looked up here at call time, so
    # that a caller may replace them on this module, as perfbench does to
    # trace its layers.
    return refining_path_builder(
        quasicycle_period(cfg.params),
        lambda times: coherent_rho_path(state0, times, cfg.params),
        lambda times, rhos, coarse=None: eigen_path(
            times, rhos, degeneracy_tol=cfg.degeneracy_tol, coarse=coarse
        ),
    )


def compute_phase(cfg: RunConfig) -> PhaseResult:
    """Converged kinematic phase of the configured scenario over one quasicycle."""
    return converge_phase(
        path_builder(cfg), n_start=cfg.n_steps, phase_tol=cfg.phase_tol
    )


@dataclass
class Table:
    columns: list[str]
    rows: list[list]


def _fmt(value) -> str:
    """A non-string cell: 17 significant digits, integers as such, None empty."""
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def emit(table: Table, fmt: str = "csv", path: str | None = None) -> str:
    """Render a table with 17-significant-digit floats; refuse empty tables.

    Cells are formatted a column at a time; each distinct string cell goes
    through csv.writer once, so that its quoting is the writer's."""
    if not table.rows:
        raise ValueError("refusing to emit an empty table")
    if fmt not in ("csv", "tsv"):
        raise ValueError(f"format must be csv or tsv, got {fmt!r}")
    delim = "," if fmt == "csv" else "\t"
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=delim, lineterminator="\n")
    writer.writerow(table.columns)
    quoted: dict[str, str] = {}

    def quote(cell: str) -> str:
        if cell not in quoted:
            one = io.StringIO()
            # A trailing empty field keeps the writer from quoting a lone "".
            csv.writer(one, delimiter=delim, lineterminator="\n").writerow([cell, ""])
            quoted[cell] = one.getvalue()[:-2]
        return quoted[cell]

    cells = []
    for col in zip(*table.rows):
        if all(type(v) is float for v in col):
            cells.append(map("%.17g".__mod__, col))
        else:
            cells.append([quote(v) if isinstance(v, str) else _fmt(v) for v in col])
    lines = map(delim.join, zip(*cells))
    text = buf.getvalue() + "\n".join(lines) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def run_evolve(cfg: RunConfig) -> Table:
    if cfg.n_steps > MAX_EVOLVE_STEPS:
        raise ValueError(f"n_steps must be at most {MAX_EVOLVE_STEPS} for evolve, got {cfg.n_steps}")
    tau = quasicycle_period(cfg.params)
    times = np.linspace(0.0, tau, cfg.n_steps + 1)
    rhos = coherent_rho_path(initial_branches(cfg), times, cfg.params)
    path = eigen_path(times, rhos, degeneracy_tol=cfg.degeneracy_tol)
    running = phase_trace(path)
    warnings = "; ".join(path.flags)

    if cfg.scenario == "general":
        lam = gam = [""] * times.size
        i0, i1 = 0, 1
    else:
        scenario = Scenario(cfg.scenario)
        lam, gam = decay_phase(scenario, cfg.params, times)
        i0, i1 = BLOCK_INDEX[scenario]

    eps = np.zeros((times.size, 2))
    eps[:, : min(2, path.n_branches)] = path.values[:, :2]
    purity = np.real(np.einsum("mij,mji->m", rhos, rhos))
    if purity.max() > 1.0 + 1e-12:
        raise ValueError(f"purity must not exceed 1, got {purity.max()!r}")
    purity = np.minimum(purity, 1.0)
    conc = concurrence_wootters(rhos, frames=path.frames)
    offdiag = np.abs(rhos[:, i0, i1])

    columns = [
        "t[time]",
        "lambda_phase[rad]",
        "gamma_decay[1]",
        "eps1[1]",
        "eps2[1]",
        "offdiag_abs[1]",
        "running_phase[rad]",
        "concurrence[1]",
        "purity[1]",
        "warnings",
    ]
    values = (times, lam, gam, eps[:, 0], eps[:, 1], offdiag, running, conc, purity)
    rows = [
        [*row, warnings]
        for row in zip(*(v.tolist() if isinstance(v, np.ndarray) else v for v in values))
    ]
    return Table(columns, rows)


def run_phase(cfg: RunConfig) -> Table:
    result = compute_phase(cfg)
    closed = weak_law = weak_limit = special = ""
    if cfg.scenario == "micro_micro":
        closed = phase_micro_micro_closed(cfg.eta0, cfg.params)
        conc0 = abs(math.sin(2 * cfg.eta0))
        weak_law = weak_coupling_phase(conc0, cfg.params)
        weak_limit = weak_coupling_phase_limit(conc0)
    elif cfg.scenario in ("macro_both", "macro_single") and at_special_point(cfg.eta0, cfg.params):
        special = phase_macro_closed(Scenario(cfg.scenario), cfg.eta0, cfg.params)
    columns = [
        "tau[time]",
        "phase_unwrapped[rad]",
        "phase_principal[rad]",
        "n_steps[1]",
        "error_estimate[rad]",
        "phase_closed_form[rad]",
        "phase_weak_law[rad]",
        "phase_weak_limit[rad]",
        "phase_special_point[rad]",
        "warnings",
    ]
    row = [
        quasicycle_period(cfg.params),
        result.unwrapped,
        result.principal,
        result.n_steps,
        result.error_estimate,
        closed,
        weak_law,
        weak_limit,
        special,
        "; ".join(result.warnings),
    ]
    return Table(columns, [row])


def run_witness(cfg: RunConfig) -> Table:
    if cfg.phase is None:
        raise ValueError("witness verb requires a 'phase' value in the configuration")
    if cfg.scenario == "micro_micro":
        res = witness_micro_micro(cfg.phase, cfg.params)
    elif cfg.scenario in ("macro_both", "macro_single"):
        res = witness_micro_macro(cfg.phase, Scenario(cfg.scenario), cfg.params)
    else:
        raise ValueError("witness inversions exist for the three named scenarios only")
    columns = [
        "phase[rad]",
        "concurrence_consistent[1]",
        "concurrence_verbatim[1]",
        "scenario",
    ]
    return Table(columns, [[cfg.phase, res.consistent, res.verbatim, cfg.scenario]])


def _micro_sweep_point(cfg: RunConfig, value: float) -> list:
    if cfg.sweep.variable == "concurrence":
        eta0 = 0.5 * math.asin(value)
        point = replace(cfg, eta0=eta0)
        conc = value
    else:
        point = _override_variable(cfg, value)
        eta0 = point.eta0
        conc = abs(math.sin(2 * eta0))
    result = compute_phase(point)
    closed = phase_micro_micro_closed(point.eta0, point.params)
    weak_law = weak_coupling_phase(conc, point.params)
    weak_limit = weak_coupling_phase_limit(conc)
    witness = witness_micro_micro(weak_law, point.params).consistent
    return [
        value,
        eta0,
        result.unwrapped,
        result.principal,
        closed,
        weak_law,
        weak_limit,
        witness,
        "; ".join(result.warnings),
    ]


def _macro_sweep_point(cfg: RunConfig, value: float) -> list:
    scenario = Scenario(cfg.scenario)
    if cfg.sweep.variable == "concurrence":
        # Special-point mapping: eta0 = pi/4, lambda tau = pi/4, alpha set by C.
        alpha = math.sqrt(-0.5 * math.log(1.0 - value**2)) if value > 0 else 0.0
        params = replace(cfg.params, lambda_c=cfg.params.omega / 8.0, alpha=complex(alpha))
        point = replace(cfg, params=params, eta0=math.pi / 4)
        conc = value
    else:
        point = _override_variable(cfg, value)
        conc = ""
    result = compute_phase(point)
    relation = (
        macro_phase_relation(conc, scenario, point.params)
        if isinstance(conc, float) and conc < 1.0
        else ""
    )
    witness = (
        witness_micro_macro(relation, scenario, point.params).consistent
        if relation != ""
        else ""
    )
    return [
        value,
        abs(point.params.alpha),
        result.unwrapped,
        result.principal,
        relation,
        witness,
        "; ".join(result.warnings),
    ]


def _override_variable(cfg: RunConfig, value: float) -> RunConfig:
    var = cfg.sweep.variable
    if var == "alpha":
        return replace(cfg, params=replace(cfg.params, alpha=complex(value)))
    if var == "lambda_c":
        return replace(cfg, params=replace(cfg.params, lambda_c=value))
    return replace(cfg, eta0=value)


def run_sweep(cfg: RunConfig) -> Table:
    if cfg.sweep is None:
        raise ValueError("sweep verb requires a 'sweep' block in the configuration")
    values = np.linspace(cfg.sweep.start, cfg.sweep.stop, cfg.sweep.count)
    if cfg.scenario == "micro_micro":
        point_fn = _micro_sweep_point
        columns = [
            f"{cfg.sweep.variable}[1]",
            "eta0[rad]",
            "phase_kinematic[rad]",
            "phase_principal[rad]",
            "phase_closed_form[rad]",
            "phase_weak_law[rad]",
            "phase_weak_limit[rad]",
            "witness_from_law[1]",
            "warnings",
        ]
    elif cfg.scenario in ("macro_both", "macro_single"):
        point_fn = _macro_sweep_point
        columns = [
            f"{cfg.sweep.variable}[1]",
            "alpha_abs[1]",
            "phase_kinematic[rad]",
            "phase_principal[rad]",
            "phase_relation[rad]",
            "witness_roundtrip[1]",
            "warnings",
        ]
    else:
        raise ValueError("sweeps are defined for the three named scenarios")
    if cfg.sweep.variable == "concurrence" and not (0.0 <= values.min() and values.max() < 1.0):
        raise ValueError("concurrence sweep values must lie in [0, 1)")
    return Table(columns, [point_fn(cfg, v) for v in values.tolist()])


def run_scenario(cfg: RunConfig, verb: str) -> Table:
    """Dispatch one pipeline run; deterministic for a fixed configuration."""
    if verb == "evolve":
        return run_evolve(cfg)
    if verb == "phase":
        return run_phase(cfg)
    if verb == "witness":
        return run_witness(cfg)
    if verb == "sweep":
        return run_sweep(cfg)
    raise ValueError(f"unknown verb {verb!r}")


# ---------------------------------------------------------------------------
# Validation report: analytic closed forms against the numerical evolution.
# ---------------------------------------------------------------------------

ORACLE_MATCH_TOL = 1e-9
REPORT_ETA0 = 0.5
REPORT_POINTS = 100
REPORT_COEFFICIENTS = np.array([0.5, 0.5j, -0.5, 0.5])


def validation_report(p: ModelParams | None = None) -> str:
    """Analytic-vs-numeric discrepancy report over all scenarios and variants."""
    if p is None:
        p = ModelParams(
            omega=1.0, j_vdw=0.07, omega_b=0.9, chi=0.003, lambda_c=0.05, alpha=1.2
        )
    lines = ["validation report (numerical evolution is the reference)", ""]
    resolutions = []
    times = np.linspace(0.0, quasicycle_period(p), REPORT_POINTS)
    exact_lines = []
    # One Fock path per scenario serves both comparisons; the closed-form
    # lines print first.
    for name in SCENARIOS:
        cfg = RunConfig(name, p, eta0=REPORT_ETA0, coefficients=REPORT_COEFFICIENTS)
        numeric = oracle_rho_path(initial_state(cfg), times, p)
        dev = float(np.max(np.abs(coherent_rho_path(initial_branches(cfg), times, p) - numeric)))
        exact_lines.append(
            f"exact coherent-overlap density: scenario={name:<12s} "
            f"max entrywise deviation from the Fock path = {dev:.3e}"
        )
        if name == "general":
            continue
        for variant in ("corrected", "verbatim"):
            analytic = analytic_rho_path(Scenario(name), REPORT_ETA0, p, times, variant)
            dev = float(np.max(np.abs(numeric - analytic)))
            verdict = "MATCH" if dev < ORACLE_MATCH_TOL else "MISMATCH"
            lines.append(
                f"reduced density: scenario={name:<12s} variant={variant:<9s} "
                f"max entrywise deviation = {dev:.3e}  -> {verdict}"
            )
            if name == "macro_single" and variant == "corrected" and dev < ORACLE_MATCH_TOL:
                resolutions.append(
                    "resolution: the corrected single-qubit closed form "
                    "(detuning omega - 2J, coupling-frequency factors) matches the evolution; "
                    "the printed omega - 4J form does not"
                )
    lines += ["", *exact_lines, ""]

    special = ModelParams(omega=p.omega, j_vdw=p.j_vdw, lambda_c=p.omega / 8.0, alpha=1.0)
    state = macro_both_initial(math.pi / 4, special).fock()
    oracle_c = purity_oracle(state)
    t0 = partial_trace(state)
    overlap = t0[0, 1] / (0.5 * math.sin(math.pi / 2))
    hybrid = hybrid_concurrence(math.pi / 4, overlap)
    lines.append(
        f"hybrid concurrence at alpha=1, eta0=pi/4: purity oracle = {oracle_c:.12f}, "
        f"overlap-squared form = {hybrid.general:.12f}, "
        f"linear-overlap form = {hybrid.verbatim:.12f}"
    )
    resolutions.append(
        "resolution: the purity oracle matches the overlap-squared concurrence; "
        "the linear-overlap form underestimates it"
    )

    weak = ModelParams(omega=1.0, lambda_c=1e-4 / (2 * math.pi), alpha=1.0)
    conc = 0.5
    cfg = RunConfig("micro_micro", weak, eta0=0.5 * math.asin(conc))
    kin = compute_phase(cfg)
    lines.append(
        f"weak-coupling phase at C={conc}: kinematic = {kin.unwrapped:.9f}, "
        f"published law = {weak_coupling_phase(conc, weak):.3e}, "
        f"zero-coupling limit 2 pi (1 - sqrt(1-C^2)) = {weak_coupling_phase_limit(conc):.9f}"
    )
    resolutions.append(
        "resolution: the kinematic phase follows the zero-coupling limit form; "
        "the published weak-coupling law differs from the path computation by "
        "a factor of order omega / (2 lambda |alpha|^2)"
    )

    for scenario in (Scenario.MACRO_BOTH, Scenario.MACRO_SINGLE):
        kin = converge_phase(analytic_path_builder(scenario, math.pi / 4, special))
        lines.append(
            f"special-point phase: scenario={scenario.value:<12s} "
            f"closed form = {phase_macro_closed(scenario, math.pi / 4, special):.9f}, "
            f"kinematic principal = {kin.principal:.9f}, unwrapped = {kin.unwrapped:.9f}"
        )
    lines.append("")
    lines.extend(resolutions)
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="becphase",
        description="Geometric-phase entanglement witnesses for impurity qubits "
        "coupled to a single bosonic mode.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, text in (
        ("evolve", "time series of the reduced state and entanglement"),
        ("phase", "single converged geometric-phase computation"),
        ("witness", "invert a phase value into a concurrence"),
        ("sweep", "parameter sweep for figure-style data"),
    ):
        sp = sub.add_parser(verb, help=text)
        sp.add_argument("--config", required=True, help="path to a JSON configuration")
        sp.add_argument("--output", help="output file (default: stdout)")
        sp.add_argument("--format", choices=("csv", "tsv"), default="csv", help="output format")
        sp.add_argument("--steps", type=int, help="override grid n_steps")
    vp = sub.add_parser("validate", help="print the analytic-vs-numeric discrepancy report")
    vp.add_argument("--config", help="optional JSON configuration for model parameters")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of non-convergence here.
        return 0 if exc.code in (0, None) else 1
    try:
        if args.verb == "validate":
            p = parse_config(Path(args.config).read_text()).params if args.config else None
            sys.stdout.write(validation_report(p))
            return 0
        cfg = parse_config(Path(args.config).read_text())
        if args.steps is not None:
            cfg = replace(cfg, n_steps=args.steps)
        table = run_scenario(cfg, args.verb)
        text = emit(table, args.format, args.output)
        if args.output is None:
            sys.stdout.write(text)
        return 0
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
