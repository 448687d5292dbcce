"""Scenario runner: JSON config parsing, evolve/phase/witness/sweep pipelines,
machine-readable CSV/TSV output, and the analytic-vs-numeric validation report."""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterator, Sequence

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
    PATH_CHUNK_POINTS,
    BlockEntries,
    EigenPath,
    Frames,
    Scenario,
    analytic_rho_path,
    block_batch_key,
    coherent_block_path,
    coherent_block_paths,
    coherent_rho_path,
    decay_phase,
    eigen_path,
    oracle_rho_path,
    partial_trace,
    point_chunks,
    validate_density,
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
    ABOVE_ONE_TOL,
    WitnessResult,
    concurrence_wootters,
    hybrid_concurrence,
    macro_phase_relation,
    purity_oracle,
    special_point_intensity,
    weak_law_scale,
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
# The finest grid evolve prints: it holds whole-path arrays of about 0.66 KB
# per grid point (0.37 KB on a two-state block, which has no density stack).
# Peak RSS at this bound, in a fresh process with stdout captured: about
# 100 MB on configs/micro_micro.json, set by emit's text, and 123-126 MB on
# configs/general.json.
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
        # converge_phase needs room for at least one doubling within MAX_STEPS.
        if self.n_steps > MAX_STEPS // 2:
            raise ValueError(f"n_steps must be at most {MAX_STEPS // 2}, got {self.n_steps}")


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
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
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


def density_path(
    state0: CoherentBranches, times: np.ndarray, p: ModelParams
) -> np.ndarray | BlockEntries:
    """The density path of a state for eigen_path: the entries of its 2x2
    block (coherent_block_path) when it occupies at most two basis states,
    as every named scenario does, else the (M, 4, 4) stack of
    coherent_rho_path. Both are looked up here at call time, so that a
    caller may replace them on this module, as the tests do."""
    if np.count_nonzero(state0.coeffs) <= 2:
        return coherent_block_path(state0, times, p)
    return coherent_rho_path(state0, times, p)


def path_builder(
    cfg: RunConfig, state0: CoherentBranches | None = None, first: EigenPath | None = None
) -> Callable[..., EigenPath]:
    """converge_phase's path factory for a config, whose state is state0 when
    the caller has built it. first, when given, is the path that first_paths
    built on its grid, which the factory returns for that grid instead of
    building it again."""
    if state0 is None:
        state0 = initial_branches(cfg)
    # density_path and eigen_path are looked up at call time, as above.
    build = refining_path_builder(
        quasicycle_period(cfg.params),
        lambda times: density_path(state0, times, cfg.params),
        lambda times, rhos, coarse=None: eigen_path(
            times, rhos, degeneracy_tol=cfg.degeneracy_tol, coarse=coarse
        ),
    )
    if first is None:
        return build
    return lambda n_steps, coarse=None: (
        first if coarse is None and n_steps == first.n_steps else build(n_steps, coarse)
    )


def first_paths(cfgs: Sequence[RunConfig], states: Sequence[CoherentBranches]) -> list[EigenPath]:
    """The first paths of a batch of configs (compute_phases), whose states
    share one block_batch_key: the EigenPaths on the grid of 2 n_steps steps
    that converge_phase builds first. One coherent_block_paths call
    evaluates the coherences of all their states from the factor that they
    share, one validate_density call checks and decomposes them, and each
    config's Frames then go through eigen_path."""
    cfg = cfgs[0]
    times = np.linspace(0.0, quasicycle_period(cfg.params), 2 * cfg.n_steps + 1)
    values, vectors, block = validate_density(coherent_block_paths(states, times, cfg.params))
    return [
        eigen_path(times, Frames(v, w, block), degeneracy_tol=c.degeneracy_tol)
        for c, v, w in zip(cfgs, values, vectors)
    ]


def _block_key(cfg: RunConfig) -> tuple | None:
    """The block_batch_key of a config's state; None for a state that is
    refused (it raises in its turn)."""
    try:
        return block_batch_key(initial_branches(cfg))
    except ValueError:
        return None


def compute_phases(cfgs: Sequence[RunConfig]) -> Iterator[PhaseResult]:
    """compute_phase of each config in turn. Consecutive configs with one
    params, n_steps and _block_key (not None) converge in batches of as
    many configs as hold PATH_CHUNK_POINTS + 1 first-path grid points in
    all, at least one (_converge_batch); the others one at a time. A batch
    is built when its first config's turn comes, so one batch is held at a
    time."""
    runs = itertools.groupby(cfgs, lambda cfg: (cfg.params, cfg.n_steps, _block_key(cfg)))
    for (_, n_steps, block), run in runs:
        run = list(run)
        size = 1 if block is None else max(1, (PATH_CHUNK_POINTS + 1) // (2 * n_steps + 1))
        for start in range(0, len(run), size):
            yield from _converge_batch(run[start : start + size])


def _converge_batch(batch: Sequence[RunConfig]) -> Iterator[PhaseResult]:
    """The phase of each config of a batch, in order. Each converges alone
    from its first path, which first_paths builds for a batch of more than
    one; a batch of one builds it as every later path, through density_path.
    Errors come in config order: a batch whose first_paths call fails is
    built again one config at a time, so that each raises its own error in
    its turn."""
    states = [initial_branches(cfg) for cfg in batch]
    try:
        firsts = first_paths(batch, states) if len(batch) > 1 else [None]
    except ValueError:
        for cfg in batch:
            yield from _converge_batch([cfg])
        return
    for cfg, state0, first in zip(batch, states, firsts):
        yield converge_phase(path_builder(cfg, state0, first), n_start=cfg.n_steps, phase_tol=cfg.phase_tol)


def compute_phase(cfg: RunConfig) -> PhaseResult:
    """Converged kinematic phase of the configured scenario over one
    quasicycle: compute_phases' batch of one."""
    return next(_converge_batch([cfg]))


@dataclass
class Table:
    """Named columns of one length: a float64 array, a sequence of cells, or
    one string that every row repeats."""

    columns: dict[str, np.ndarray | Sequence | str]

    def __len__(self) -> int:
        lengths = {len(col) for col in self.columns.values() if not isinstance(col, str)}
        if len(lengths) != 1:
            raise ValueError(f"a table needs columns of one length, got {sorted(lengths)}")
        return lengths.pop()


def _fmt(value) -> str:
    """A non-string cell: 17 significant digits, integers as such, None empty."""
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


# ---------------------------------------------------------------------------
# "%.17g" of float64 arrays at numpy speed.
# ---------------------------------------------------------------------------

# |x| in (_G17_MIN, _G17_MAX) goes through the kernel; Dekker's split of it and
# of its power of ten cannot overflow there. CPython formats the rest.
_G17_MIN, _G17_MAX = 1e-280, 1e280
# The decimal exponents k whose 10**(16 - k) the kernel may scale by: those
# of that range, one more either side for log10's rounding, and one above
# for a rounding that carries into a new leading digit.
_K_MIN, _K_MAX = -281, 282
# Veltkamp's splitter 2**27 + 1: x * _SPLIT splits x into two 26-bit halves.
_SPLIT = 134217729.0
# Below 1e17 the scaled value is computed to within 2**-46. A fractional part
# within this band of 1/2 (every exact tie among them) is left to CPython.
# A speed knob: any band of at least 2**-45 gives the same text, and a wider
# one only sends more values to CPython.
_HALF_BAND = 2.0**-40
# The byte that pads the kernel's rows: no UTF-8 text holds it.
_PAD = b"\xff"
# Each row is 48 bytes, six words: "-0.000" (the sign and the zeros of
# 0.000d), the 17 digits each followed by "." (bytes 6 to 39), "e+ddd" at
# byte 40 and three spare bytes, which emit fills with the text up to the
# next cell. Layout classes: decimal exponents -4..16
# print in fixed notation, each its own class; the others as d.ddde+dd or
# d.ddde+ddd.
_ROW, _SPARE, _CLASSES = 48, 3, 23
# The bytes of the marks that stand for texts longer than the spare bytes:
# no UTF-8 text holds them either.
_MARK_BYTES = range(0xF8, 0xFF)


@functools.cache
def _g17_tables() -> tuple[np.ndarray, ...]:
    """The kernel's lookup tables, built on first use with int arithmetic.

    For each k in [_K_MIN, _K_MAX]: 10**(16 - k) as hi + lo, hi its double
    and lo the double of the rest (int / int is correctly rounded), with hi's
    Veltkamp halves; the row offset of k's layout class; and "e+ddd". For
    each 4-digit group: its digits each followed by "." as one word, and the
    count of digits up to its last nonzero one at each of the four group
    positions (1, the leading digit, for a zero group). For each sign, class
    and number of significant digits: the row with _PAD at every byte that
    "%.17g" leaves out and 0 at every byte that it keeps.
    """
    ks = range(_K_MIN, _K_MAX + 1)
    powers = []
    for k in ks:
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        hi = num / den
        a, b = hi.as_integer_ratio()
        powers.append((hi, (num * b - a * den) / (den * b)))
    hi, lo = np.array(powers).T
    c = hi * _SPLIT
    hi_hi = c - (c - hi)

    def word(text: bytes) -> int:
        return int.from_bytes(text, "little")

    quads = [b"%04d" % g for g in range(10000)]
    pairs = np.array([word(bytes(c for d in q for c in (d, ord(".")))) for q in quads], dtype=np.uint64)
    sig = np.array([len(q.rstrip(b"0")) for q in quads])
    last = np.array([np.where(sig > 0, 1 + 4 * i + sig, 1) for i in range(4)], dtype=np.uint8)
    exponent = np.array([word(b"e%+04d" % k + _PAD * 3) for k in ks], dtype=np.uint64)
    classes = [*range(-4, 17), 17, 100]
    layout = np.array([classes.index(k if -4 <= k <= 16 else 17 if abs(k) < 100 else 100) for k in ks])
    drop = []
    for negative in (False, True):
        for k in classes:
            for nd in range(18):
                keep = [0] if negative else []
                if -4 <= k < 0:
                    keep += [1, 2, *range(3, 2 - k), *range(6, 6 + 2 * nd, 2)]
                else:
                    point = k if k <= 16 else 0
                    keep += range(6, 8 + 2 * max(nd - 1, point), 2)
                    keep += [7 + 2 * point] if nd > point + 1 else []
                    keep += [] if k <= 16 else [40, 41, 43, 44] + [42] * (abs(k) >= 100)
                row = bytearray(_PAD * _ROW)
                for i in keep:
                    row[i] = 0
                drop.append(bytes(row))
    drop = np.frombuffer(b"".join(drop), dtype=f"V{_ROW}")
    return hi, hi_hi, hi - hi_hi, lo, pairs, last, exponent, layout * 18, drop


def _decimal17(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|a| rounded half-even to 17 significant digits: the digits as an
    integer in [1e16, 1e17), the decimal exponent k of the leading digit, and
    where that is by construction the rounding of CPython's "%.17g", which is
    correctly rounded (D. M. Gay, AT&T Numerical Analysis Manuscript 90-10
    (1990)).

    The scaled value x 10**(16 - k), x = |a|, comes out as p + r: p is the
    double of x hi, r = (x hi - p) + x lo, and x hi - p is exact by Dekker's
    two-product (T. J. Dekker, Numer. Math. 18, 224 (1971)). k starts at
    floor(log10 x) and moves by one where p + r lies outside [1e16, 1e17):
    p alone may round onto a bound that the value does not reach (a value
    within the error of a bound rounds to the same digits either way). +-0
    is decided, with digits 0 and k 0, which _g17 lays out as "0" and "-0".
    The result is undecided where x is nonzero and outside
    (_G17_MIN, _G17_MAX) or not finite, and where r's fractional part lies
    within _HALF_BAND of 1/2 (any band of at least 2**-45 only sends more
    values to CPython).
    """
    pow_hi, pow_hi_hi, pow_hi_lo, pow_lo = _g17_tables()[:4]
    x = np.abs(a)
    zero = x == 0.0
    decided = (x > _G17_MIN) & (x < _G17_MAX)
    x = np.where(decided, x, 1.0)
    k = np.floor(np.log10(x)).astype(np.intp)

    def scaled(x: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        i = k - _K_MIN
        hi, hi_hi, hi_lo = pow_hi[i], pow_hi_hi[i], pow_hi_lo[i]
        p = x * hi
        c = x * _SPLIT
        x_hi = c - (c - x)
        x_lo = x - x_hi
        err = ((x_hi * hi_hi - p) + x_hi * hi_lo + x_lo * hi_hi) + x_lo * hi_lo
        return p, err + x * pow_lo[i]

    p, r = scaled(x, k)
    low = (p < 1e16) | ((p == 1e16) & (r < 0))
    high = (p > 1e17) | ((p == 1e17) & (r >= 0))
    moved = np.flatnonzero(low | high)
    k[moved] += high[moved].astype(np.intp) - low[moved]
    p[moved], r[moved] = scaled(x[moved], k[moved])
    q = np.rint(r)
    decided &= np.abs(r - q) < 0.5 - _HALF_BAND
    digits = p.astype(np.int64) + q.astype(np.int64)
    carry = digits == 10**17
    digits[carry] = 10**16
    k += carry
    digits[zero] = 0  # k is already 0: a zero was scaled as 1.0
    return digits, k, decided | zero


def _g17(values: np.ndarray) -> np.ndarray:
    """"%.17g" % v of every float64 v, as the rows of an (n, 48) uint8 array:
    a row with its _PAD bytes deleted is the text. Values that _decimal17
    leaves undecided (nan, +-inf, |v| outside (_G17_MIN, _G17_MAX) but not
    +-0, and near-ties) are formatted by CPython."""
    a = np.ravel(values)
    digits, k, decided = _decimal17(a)
    pairs, last, exponent, layout, drop = _g17_tables()[4:]
    # the 17 digits as the leading one and four groups of 4, by // and a
    # product back, which numpy does faster than np.divmod
    top = digits // 10**8
    lead = top // 10**8
    groups = []
    for part in (top - lead * 10**8, digits - top * 10**8):
        high = part // 10**4
        groups += [high, part - high * 10**4]
    # last[3] reads 17 where the 17th digit is not 0; the other groups are
    # read only where it is (about one value in ten)
    nd = last[3, groups[3]]
    short = np.flatnonzero(nd != 17)
    nd[short] = np.maximum.reduce([nd[short], *(last[i, group[short]] for i, group in enumerate(groups[:3]))])
    words = drop[np.signbit(a) * (_CLASSES * 18) + layout[k - _K_MIN] + nd].view(np.uint64).reshape(-1, 6)
    words[:, 0] |= (lead.astype(np.uint64) + np.uint64(ord("0"))) << np.uint64(48) | np.uint64(
        int.from_bytes(b"-0.000\x00.", "little")
    )
    for i, group in enumerate(groups, 1):
        words[:, i] |= pairs[group]
    words[:, 5] |= exponent[k - _K_MIN]
    rows = words.view(np.uint8)
    undecided = np.flatnonzero(~decided)
    if undecided.size:
        text = b"".join((b"%.17g" % v).ljust(_ROW, _PAD) for v in a[undecided].tolist())
        rows[undecided] = np.frombuffer(text, np.uint8).reshape(-1, _ROW)
    return rows


def emit(table: Table, fmt: str = "csv", path: str | None = None) -> str:
    """Render a table with 17-significant-digit floats; refuse empty tables.

    Each distinct string goes through csv.writer once, so that its quoting is
    the writer's. A table of float64 arrays and repeated strings (evolve's)
    is built as bytes by _float_rows. Any other table (phase, sweep and
    witness tables, too small to repay numpy calls) is one % of its row
    format per line: strings quoted, other cells through _fmt, each cell an
    argument of the format, never part of its text.
    """
    n = len(table)
    if not n:
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

    columns = list(table.columns.values())
    if all(isinstance(c, str) or isinstance(c, np.ndarray) and c.dtype == np.float64 for c in columns):
        rows = _float_rows([quote(c) if isinstance(c, str) else c for c in columns], n, delim)
        text = b"".join([buf.getvalue().encode(), *rows]).decode()
    else:
        cells = [[col] * n if isinstance(col, str) else col for col in columns]
        cells = [[quote(v) if isinstance(v, str) else _fmt(v) for v in col] for col in cells]
        if len(cells) == 1:  # a row of one empty field, which the writer writes as ""
            cells = [[v or '""' for v in cells[0]]]
        line = delim.join(["%s"] * len(columns)) + "\n"
        text = buf.getvalue() + "".join(map(line.__mod__, zip(*cells)))
    if path is not None:
        Path(path).write_text(text)
    return text


def _float_rows(columns: list, n: int, delim: str) -> Iterator[bytes]:
    """emit's rows as bytes, for columns that are float64 arrays or quoted
    repeated strings: the strings that open the first row, then one
    density.point_chunks chunk at a time.

    A chunk's float64 columns go through one _g17 call, whose rows are the
    chunk's canvas. The spare bytes of each float cell carry the text up to
    the next float cell: its delimiter, then each repeated string that
    follows with its own delimiter; the last float cell's carry the newline
    and the strings that open the next row, which the last chunk leaves out.
    A text longer than the spare bytes is written as a mark of _MARK_BYTES,
    one, two or three of them as the number of such texts needs. One
    bytes.translate deletes the _PAD bytes, and bytes.replace swaps each mark
    for its text: every float cell holds at least one byte, so each mark
    stands alone between two of them. A table with more such texts than
    three mark bytes tell apart (7**3) is refused."""
    ends = [delim] * (len(columns) - 1) + ["\n"]
    floats, texts = [], [b""]
    for col, end in zip(columns, ends):
        if isinstance(col, str):
            texts[-1] += (col + end).encode()
        else:
            floats.append(col)
            texts.append(end.encode())
    lead = texts.pop(0)
    texts[-1] += lead
    long = list(dict.fromkeys(text for text in texts if len(text) > _SPARE))
    if len(long) > len(_MARK_BYTES) ** _SPARE:
        raise ValueError(f"a table holds at most {len(_MARK_BYTES) ** _SPARE} texts of over {_SPARE} bytes "
                         f"between its float columns, got {len(long)}")
    width = next(w for w in range(1, _SPARE + 1) if len(long) <= len(_MARK_BYTES) ** w)
    marks = dict(zip(long, map(bytes, itertools.product(_MARK_BYTES, repeat=width))))
    spare = b"".join(marks.get(text, text).ljust(_SPARE, _PAD) for text in texts)
    spare = np.frombuffer(spare, np.uint8).reshape(-1, _SPARE)
    yield lead
    for rows in point_chunks(n):
        size = rows.stop - rows.start
        canvas = _g17(np.stack([col[rows] for col in floats], axis=1)).reshape(size, len(floats), _ROW)
        canvas[..., -_SPARE:] = spare
        text = canvas.tobytes().translate(None, _PAD)
        for full, mark in marks.items():
            text = text.replace(mark, full)
        yield text if rows.stop < n else text[: len(text) - len(lead)]


def _at_most_one(values: np.ndarray, name: str) -> np.ndarray:
    """values with rounding above 1 clipped to 1; more than ABOVE_ONE_TOL above is an error."""
    if values.max() > 1.0 + ABOVE_ONE_TOL:
        raise ValueError(f"{name} must not exceed 1, got {values.max()!r}")
    return np.minimum(values, 1.0)


def run_evolve(cfg: RunConfig) -> Table:
    if cfg.n_steps > MAX_EVOLVE_STEPS:
        raise ValueError(f"n_steps must be at most {MAX_EVOLVE_STEPS} for evolve, got {cfg.n_steps}")
    tau = quasicycle_period(cfg.params)
    times = np.linspace(0.0, tau, cfg.n_steps + 1)
    rhos = density_path(initial_branches(cfg), times, cfg.params)
    path = eigen_path(times, rhos, degeneracy_tol=cfg.degeneracy_tol)
    running = phase_trace(path)

    if cfg.scenario == "general":
        lam = gam = ""
        i0, i1 = 0, 1
    else:
        scenario = Scenario(cfg.scenario)
        lam, gam = decay_phase(scenario, cfg.params, times)
        i0, i1 = BLOCK_INDEX[scenario]

    eps = np.zeros((times.size, 2))
    eps[:, : min(2, path.n_branches)] = path.values[:, :2]
    if isinstance(rhos, BlockEntries):
        a, d, b, block = rhos
        # The einsum's sum below, term by term: rows i and j of the block,
        # each |b|^2 = b conj(b) as its complex product rounds it.
        mod2 = b.real * b.real + b.imag * b.imag
        purity = (a * a + mod2) + (mod2 + d * d)
        offdiag = np.abs(b) if block == (i0, i1) else np.zeros(times.size)
    else:
        purity = np.real(np.einsum("mij,mji->m", rhos, rhos))
        offdiag = np.abs(rhos[:, i0, i1])
    purity = _at_most_one(purity, "purity")
    conc = _at_most_one(concurrence_wootters(rhos, frames=path.frames), "concurrence")
    return Table({
        "t[time]": times,
        "lambda_phase[rad]": lam,
        "gamma_decay[1]": gam,
        "eps1[1]": eps[:, 0],
        "eps2[1]": eps[:, 1],
        "offdiag_abs[1]": offdiag,
        "running_phase[rad]": running,
        "concurrence[1]": conc,
        "purity[1]": purity,
        "warnings": "; ".join(path.flags),
    })


def _point(cfg: RunConfig, value: float | None = None) -> tuple[RunConfig, float | None]:
    """The config at one swept value (cfg itself for None) and the point's
    initial concurrence: the swept C, else micro_micro's |sin 2 eta0|, else None.

    A micro_micro C sets eta0 = asin(C) / 2. A hybrid C moves the point to the
    special point: eta0 = pi/4, lambda = omega/8 and the |alpha|^2 of
    special_point_intensity.
    """
    variable = None if value is None else cfg.sweep.variable
    if variable == "concurrence":
        if cfg.scenario == "micro_micro":
            return replace(cfg, eta0=0.5 * math.asin(value)), value
        alpha = math.sqrt(special_point_intensity(value))
        params = replace(cfg.params, lambda_c=cfg.params.omega / 8.0, alpha=complex(alpha))
        return replace(cfg, params=params, eta0=math.pi / 4), value
    if variable == "alpha":
        cfg = replace(cfg, params=replace(cfg.params, alpha=complex(value)))
    elif variable == "lambda_c":
        cfg = replace(cfg, params=replace(cfg.params, lambda_c=value))
    elif variable == "eta0":
        cfg = replace(cfg, eta0=value)
    return cfg, abs(math.sin(2 * cfg.eta0)) if cfg.scenario == "micro_micro" else None


def _weak_laws(cfg: RunConfig, conc: float) -> tuple[float, float]:
    """micro_micro's weak-law and weak-limit phases."""
    return weak_coupling_phase(conc, cfg.params), weak_coupling_phase_limit(conc)


def _witness(cfg: RunConfig, phase: float) -> WitnessResult:
    """The scenario's inversion of a phase into an initial concurrence."""
    if cfg.scenario == "micro_micro":
        return witness_micro_micro(phase, cfg.params)
    if cfg.scenario == "general":
        raise ValueError("witness inversions exist for the three named scenarios only")
    return witness_micro_macro(phase, Scenario(cfg.scenario), cfg.params)


def run_phase(cfg: RunConfig) -> Table:
    result = compute_phase(cfg)
    closed = weak_law = weak_limit = special = ""
    if cfg.scenario == "micro_micro":
        point, conc = _point(cfg)
        closed = phase_micro_micro_closed(point.eta0, point.params)
        weak_law, weak_limit = _weak_laws(point, conc)
    elif cfg.scenario != "general" and at_special_point(cfg.eta0, cfg.params):
        special = phase_macro_closed(Scenario(cfg.scenario), cfg.eta0, cfg.params)
    cells = {
        "tau[time]": quasicycle_period(cfg.params),
        "phase_unwrapped[rad]": result.unwrapped,
        "phase_principal[rad]": result.principal,
        "n_steps[1]": result.n_steps,
        "error_estimate[rad]": result.error_estimate,
        "phase_closed_form[rad]": closed,
        "phase_weak_law[rad]": weak_law,
        "phase_weak_limit[rad]": weak_limit,
        "phase_special_point[rad]": special,
        "warnings": "; ".join(result.warnings),
    }
    return Table({name: [cell] for name, cell in cells.items()})


def run_witness(cfg: RunConfig) -> Table:
    if cfg.phase is None:
        raise ValueError("witness verb requires a 'phase' value in the configuration")
    res = _witness(cfg, cfg.phase)
    return Table({
        "phase[rad]": [cfg.phase],
        "concurrence_consistent[1]": [res.consistent],
        "concurrence_verbatim[1]": [res.verbatim],
        "scenario": [cfg.scenario],
    })


def _sweep_row(cfg: RunConfig, value: float, point: RunConfig, conc: float | None,
               result: PhaseResult, closed: float | None) -> list:
    """The swept value, the point's eta0 (micro_micro) or |alpha| (hybrids), its
    phase, micro_micro's closed-form phase (closed) and weak laws or the
    hybrids' published phase law, that law inverted (empty if it has no
    inverse) and warnings."""
    if cfg.scenario == "micro_micro":
        law, limit = _weak_laws(point, conc)
        cells = [point.eta0, result.unwrapped, result.principal, closed, law, limit]
    else:
        law = "" if conc is None else macro_phase_relation(conc, Scenario(cfg.scenario), point.params)
        cells = [abs(point.params.alpha), result.unwrapped, result.principal, law]
    # micro_micro's weak law has no inverse where lambda |alpha|^2 <= 0
    invertible = cfg.scenario != "micro_micro" or weak_law_scale(point.params) > 0.0
    witness = _witness(point, law).consistent if law != "" and invertible else ""
    return [value, *cells, witness, "; ".join(result.warnings)]


def _closed_forms(points: Sequence[RunConfig]) -> list[float]:
    """micro_micro's closed-form phase of every point: one
    phase_micro_micro_closed call for each run of points with one params."""
    closed = []
    for params, run in itertools.groupby(points, key=lambda point: point.params):
        closed += phase_micro_micro_closed(np.array([point.eta0 for point in run]), params).tolist()
    return closed


def run_sweep(cfg: RunConfig) -> Table:
    """One row per swept value (_sweep_row), each equal to the phase run of
    its point. What the points share is computed once: micro_micro's closed
    forms in one call per run of points with one params (_closed_forms), and
    the first paths of consecutive points with one params and block, in
    batches of at most PATH_CHUNK_POINTS + 1 grid points (compute_phases).
    The points then converge one after another, and the first that fails
    ends the sweep with its error."""
    if cfg.sweep is None:
        raise ValueError("sweep verb requires a 'sweep' block in the configuration")
    if cfg.scenario == "general":
        raise ValueError("sweeps are defined for the three named scenarios")
    values = np.linspace(cfg.sweep.start, cfg.sweep.stop, cfg.sweep.count).tolist()
    if cfg.sweep.variable == "concurrence" and not (0.0 <= min(values) and max(values) < 1.0):
        raise ValueError("concurrence sweep values must lie in [0, 1)")
    if cfg.scenario == "micro_micro":
        middle = ["eta0[rad]", "phase_kinematic[rad]", "phase_principal[rad]",
                  "phase_closed_form[rad]", "phase_weak_law[rad]", "phase_weak_limit[rad]",
                  "witness_from_law[1]"]
    else:
        middle = ["alpha_abs[1]", "phase_kinematic[rad]", "phase_principal[rad]",
                  "phase_relation[rad]", "witness_roundtrip[1]"]
    columns = [f"{cfg.sweep.variable}[1]", *middle, "warnings"]
    points, concs = zip(*(_point(cfg, v) for v in values))
    closed = _closed_forms(points) if cfg.scenario == "micro_micro" else [None] * len(points)
    rows = [
        _sweep_row(cfg, *cells)
        for cells in zip(values, points, concs, compute_phases(points), closed)
    ]
    return Table(dict(zip(columns, zip(*rows))))


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


def _fixed9(value: float) -> str:
    """value with 9 decimals; one that rounds to zero there prints unsigned."""
    text = f"{value:.9f}"
    return text.lstrip("-") if float(text) == 0.0 else text


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
            f"kinematic principal = {_fixed9(kin.principal)}, unwrapped = {_fixed9(kin.unwrapped)}"
        )
    lines.append("")
    lines.extend(resolutions)
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

@functools.cache
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
