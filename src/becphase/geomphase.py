"""Kinematic mixed-state geometric phase along a density-matrix path.

The phase is arg of the sum over eigenbranches of
sqrt(eps_i(0) eps_i(tau)) <eps_i(0)|eps_i(tau)> exp(-int <eps_i|d/dt eps_i>).
The discretization is a per-branch product of phase-normalized neighbor
overlaps (a link product): each branch contributes

    sqrt(eps_i(0) eps_i(tau)) * <eps_i(0)|eps_i(tau)> * conj(L_i),
    L_i = prod_k <eps_i(t_k)|eps_i(t_k+1)> / |<eps_i(t_k)|eps_i(t_k+1)>|,

which realizes the integral expression exactly in the fine-grid limit and is
gauge invariant step by step: arbitrary per-point eigenvector phases cancel
between the link product and the endpoint overlap. The unwrapped value tracks
the running argument of the partial-path sum, so totals beyond pi survive.

Closed-form companions: the single-branch quadrature form for the two-qubit
Bell scenario and the published weak-coupling and special-point shortcuts
(kept verbatim for comparison even where they disagree with the path
computation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .model import ModelParams, quasicycle_period
from .density import (
    DEGENERACY_TOL,
    SUPPORT_TOL,
    EigenPath,
    Scenario,
    analytic_rho_path,
    decay_phase,
    eigen_path,
    gather_columns,
    point_chunks,
    strided_path,
)

PHASE_TOL = 1e-7
N_STEPS = 256
# The finest grid any run builds, whatever its start.
MAX_STEPS = 2**21
COARSE_LINK_WARNING = 0.9
ORIGIN_WARNING_RATIO = 1e-6
N_QUAD = 4096
# Romberg acceptance in converge_phase: the table's deepest column (h^2, h^4,
# h^6 removed), and the window of a column's delta ratio relative to the
# ratio 4^j that its child column j assumes.
ROMBERG_DEPTH = 3
RATIO_WINDOW = (0.875, 1.125)


class ConvergenceError(RuntimeError):
    """Grid refinement failed to settle the phase within tolerance."""


@dataclass(frozen=True)
class PhaseResult:
    principal: float
    unwrapped: float
    per_branch: np.ndarray
    n_steps: int
    error_estimate: float | None
    warnings: tuple[str, ...] = ()


def _branch_sums(
    path: EigenPath, weighted: np.ndarray | None = None, record: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """The branch sum of the partial-path contributions z[m, k] at every grid
    point, the last point's z[-1, k], and the smallest live link modulus.

    A branch whose initial weight eps(0) is at most SUPPORT_TOL is null: it
    gets weight 0, so that the rounding noise of a pure state's zero
    eigenvalue adds nothing to the sum, and its link modulus is not tracked.
    The points run in point_chunks, each gathering its branch columns from
    the frames; the link product carries across chunks as the first factor
    of the next chunk's cumprod, which repeats the unchunked products.
    weighted, when given, holds the factor of z[m, k] that no link enters,
    sqrt(eps_k(0) eps_k(t_m)) <eps_k(0)|eps_k(t_m)>, at every grid point: a
    level shares it with the path whose points it strides (converge_phase).
    Otherwise each chunk computes its own, and writes it into record, an
    (M, k) array, when given.
    """
    frame_values, frame_vectors, _ = path.frames
    first = path.columns[0]
    live = frame_values[0, first] > SUPPORT_TOL
    # a view of every link modulus when every branch is live
    tracked = slice(None) if live.all() else live
    if weighted is None:
        w0 = np.where(live, frame_values[0, first], 0.0)
        v0 = frame_vectors[0][:, first].conj()
    sums = np.empty(path.times.size, dtype=complex)
    min_link = 1.0
    for chunk in point_chunks(path.times.size):
        linked = slice(max(chunk.start - 1, 0), chunk.stop)
        vectors = gather_columns(frame_vectors[linked], path.columns[linked])
        if weighted is None:
            values = gather_columns(frame_values[chunk], path.columns[chunk])
            weights = np.sqrt(w0 * np.maximum(values, 0.0))
            part = weights * np.einsum("ak,mak->mk", v0, vectors[chunk.start - linked.start :])
            if record is not None:
                record[chunk] = part
        else:
            # contiguous, as a chunk's own product: numpy multiplies operands
            # of unequal strides in another loop, which can round differently
            part = np.ascontiguousarray(weighted[chunk])
        links = np.einsum("mak,mak->mk", vectors[:-1].conj(), vectors[1:])
        mods = np.abs(links)
        if mods.size and live.any():
            min_link = min(min_link, float(mods[:, tracked].min()))
        if min_link == 0.0:
            raise ConvergenceError("vanishing neighbor overlap: grid cannot resolve the path")
        if mods.all():
            unit = links / mods
        else:  # dead-branch links may be ill-defined inside a degenerate zero subspace
            nonzero = mods > 0.0
            unit = np.where(nonzero, links / np.where(nonzero, mods, 1.0), 1.0)
        if chunk.start == 0:
            cum = np.empty_like(part)
            cum[0] = 1.0
            cum[1:] = _cumprod(unit, path.n_steps)
        else:
            cum = _cumprod(np.concatenate([cum[-1:], unit]), path.n_steps)[1:]
        z = part * cum.conj()
        sums[chunk] = z.sum(axis=1)
    return sums, z[-1].copy(), min_link


def _cumprod(rows: np.ndarray, n_links: int) -> np.ndarray:
    """np.cumprod(rows, axis=0) with the roundings of one cumprod over all
    n_links links of a path. np.cumprod multiplies in its scalar loop from
    three rows on but with the vectorized multiply, which can round
    differently, at two; so two rows get a unit row appended unless the
    whole path has two links."""
    if rows.shape[0] == 2 and n_links > 2:
        return np.cumprod(np.concatenate([rows, np.ones_like(rows[:1])]), axis=0)[:2]
    return np.cumprod(rows, axis=0)


def _unwrapped_span(ang: np.ndarray, dd: np.ndarray) -> float:
    """np.unwrap(ang)[-1] - np.unwrap(ang)[0], bit for bit, given
    dd = np.diff(ang). np.unwrap corrects only the steps that are not
    below pi; every other correction is an exact 0, and adding 0 leaves
    its sequential cumsum unchanged, so only those steps are corrected
    and summed here, with np.unwrap's arithmetic."""
    wraps = dd[~(np.abs(dd) < np.pi)]
    correction = 0.0
    if wraps.size:
        mod = np.mod(wraps + np.pi, 2.0 * np.pi) - np.pi
        mod[(mod == -np.pi) & (wraps > 0)] = np.pi
        correction = np.cumsum(mod - wraps)[-1]
    return float((ang[-1] + correction) - ang[0])


def phase_trace(path: EigenPath) -> np.ndarray:
    """Unwrapped running phase of the partial path at every grid point."""
    sums, _, _ = _branch_sums(path)
    return np.unwrap(np.angle(sums))


def kinematic_phase(
    path: EigenPath, weighted: np.ndarray | None = None, record: np.ndarray | None = None
) -> PhaseResult:
    """Geometric phase of the whole path.

    Zero-weight branches drop out of the sum; near-degenerate stretches
    flagged by the path are propagated as warnings. The principal value is
    the argument of the final branch sum, the unwrapped value its continuous
    continuation from zero: np.unwrap's span, from the steps of the
    running argument that wrap (_unwrapped_span). A single path carries no
    error estimate; converge_phase supplies one. weighted and record are
    _branch_sums'.
    """
    if path.times.size < 2:
        raise ValueError("path must contain at least two time points")
    warnings = list(path.flags)
    tot, last, min_link = _branch_sums(path, weighted, record)
    if min_link < COARSE_LINK_WARNING:
        warnings.append(
            f"coarse-grid: smallest neighbor overlap modulus {min_link:.3g}"
        )
    mags = np.abs(tot)
    raw_ang = np.angle(tot)
    dd = np.diff(raw_ang)
    steps = np.abs(dd)
    steps = np.minimum(steps, 2.0 * np.pi - steps)
    if mags.min() < ORIGIN_WARNING_RATIO * mags.max() or (
        steps.size and steps.max() > 0.5 * np.pi
    ):
        warnings.append(
            "phase-origin-crossing: path sum passes near zero, "
            "unwrapped value is convention dependent there"
        )
    return PhaseResult(
        principal=float(np.angle(tot[-1])),
        unwrapped=_unwrapped_span(raw_ang, dd),
        per_branch=last,
        n_steps=path.n_steps,
        error_estimate=None,
        warnings=tuple(warnings),
    )


def romberg_acceptance(levels: Sequence[float], phase_tol: float) -> tuple[int, float, float] | None:
    """Whether the last of the level values P_0..P_k, each on twice the
    previous grid, settles the phase to phase_tol.

    The Romberg table has T[k][0] = P_k and, up to ROMBERG_DEPTH,
    T[k][j] = T[k][j-1] + (T[k][j-1] - T[k-1][j-1]) / (4^j - 1). From three
    levels on, column j >= 1 is accepted at level k when the deltas of its
    parent column, T[k-1][j-1] - T[k-2][j-1] over T[k][j-1] - T[k-1][j-1],
    have a ratio inside RATIO_WINDOW times 4^j and |T[k][j] - T[k-1][j]| <
    phase_tol. The deepest accepted column gives the error estimate, and the
    value is the deepest column of level k. Otherwise column 0 is accepted
    when |P_k - P_{k-1}| < phase_tol, with the value P_k: the plain rule,
    which is all that two levels can take. A difference is taken as at
    least one ulp of the newer value: levels that agree to the last bit
    agree to rounding, not exactly. Returns (accepted column, value, error
    estimate), or None.
    """
    rows: list[list[float]] = []
    for value in levels:
        row = [value]
        for j in range(1, min(len(rows), ROMBERG_DEPTH) + 1):
            row.append(row[j - 1] + (row[j - 1] - rows[-1][j - 1]) / (4**j - 1))
        rows.append(row)
    if len(rows) < 2:
        return None
    cur, prev = rows[-1], rows[-2]
    if len(rows) > 2:
        before = rows[-3]
        for j in range(len(prev) - 1, 0, -1):
            delta = cur[j - 1] - prev[j - 1]
            error = max(abs(cur[j] - prev[j]), math.ulp(cur[j]))
            if (
                delta != 0.0
                and RATIO_WINDOW[0] * 4**j <= (prev[j - 1] - before[j - 1]) / delta
                <= RATIO_WINDOW[1] * 4**j
                and error < phase_tol
            ):
                return j, cur[-1], error
    error = max(abs(cur[0] - prev[0]), math.ulp(cur[0]))
    return (0, cur[0], error) if error < phase_tol else None


def converge_phase(
    build_path: Callable[..., EigenPath],
    n_start: int = N_STEPS,
    phase_tol: float = PHASE_TOL,
) -> PhaseResult:
    """Double the grid, never beyond MAX_STEPS, until the unwrapped phase
    is settled to phase_tol: the first of _tables' tables of levels that
    _accept settles gives the result. Pre-levels are not doublings: the
    ConvergenceError counts path builds only, and a start of 2 steps builds
    at most about 2 MAX_STEPS grid points in all.
    """
    if n_start < 2 or n_start % 2:
        raise ValueError("n_start must be an even integer >= 2")
    if 2 * n_start > MAX_STEPS:
        raise ConvergenceError(f"no doubling of {n_start} steps stays within {MAX_STEPS} steps")
    for table in _tables(build_path, n_start):
        accepted = _accept(table, phase_tol)
        if accepted is not None:
            return accepted
    finest, delta = table[-1], abs(table[-1].unwrapped - table[-2].unwrapped)
    raise ConvergenceError(
        f"phase did not converge to {phase_tol:g} within {(finest.n_steps // n_start).bit_length() - 1} "
        f"doublings (last delta {delta:g} at {finest.n_steps} of at most {MAX_STEPS} steps)"
    )


def _tables(build_path: Callable[..., EigenPath], n_start: int) -> Iterator[list[PhaseResult]]:
    """The tables of levels that converge_phase judges in turn, coarsest
    level first. The first holds the 2 n_start and n_start levels of
    build_path(2 n_start) (_first_levels). While its finest level carries
    no warning, up to ROMBERG_DEPTH - 1 pre-levels of that path follow at
    the coarse end, n_start / 2 and then n_start / 4; a pre-level that
    carries a warning or raises ConvergenceError is left out and ends the
    descent. Then each doubling adds build_path(2 n, coarse=path), which
    may refine the last path or ignore it, at the fine end.
    """
    n = 2 * n_start
    path = build_path(n)
    first = _first_levels(path)
    finest = next(first)
    table = [next(first), finest]
    yield table
    while not finest.warnings and len(table) <= ROMBERG_DEPTH:
        try:
            coarser = next(first)
        except (StopIteration, ConvergenceError):
            break
        if coarser.warnings:
            break
        table = [coarser, *table]
        yield table
    first = None  # what the first path's levels share is not held past them
    while 2 * n <= MAX_STEPS:
        n *= 2
        path = build_path(n, coarse=path)
        table = [*table, kinematic_phase(path)]
        yield table


def _accept(table: Sequence[PhaseResult], phase_tol: float) -> PhaseResult | None:
    """The finest level of a table, coarsest first, with the value and error
    estimate that romberg_acceptance accepts over its unwrapped phases, or
    None. The grid error is a series in h^2 only on a resolved, smooth path,
    so under any warning on the finest level only the two finest are judged.
    The principal value is shifted as the unwrapped one, and wrapped."""
    finest = table[-1]
    levels = table[-2:] if finest.warnings else table
    accepted = romberg_acceptance([level.unwrapped for level in levels], phase_tol)
    if accepted is None:
        return None
    _, value, error = accepted
    principal = math.remainder(finest.principal + (value - finest.unwrapped), 2.0 * math.pi)
    return replace(finest, unwrapped=value, principal=principal, error_estimate=error)


def _first_levels(path: EigenPath) -> Iterator[PhaseResult]:
    """kinematic_phase of converge_phase's first path, then of its levels on
    every second, fourth, ... grid point, one per next(), down to an odd
    step count. A level whose strided links vanish raises ConvergenceError,
    as any path does; _tables leaves out such a pre-level.

    Each level is strided_path's view of the path's points, which follows
    the path's branch matching, and every point's weight and endpoint
    overlap (_branch_sums' weighted) are computed once, in the pass over the
    path, for all levels: a level computes only its own links, their unit
    phasors, cumprod and sums.
    """
    weighted = np.empty(path.columns.shape, dtype=complex)
    yield kinematic_phase(path, record=weighted)
    stride = 2
    while path.n_steps % stride == 0:
        level = strided_path(path, stride)
        shared = weighted[::stride]
        if level.n_branches < path.n_branches:  # a null branch, cut on fewer points
            shared = shared[:, np.isin(path.columns[0], level.columns[0])]
        yield kinematic_phase(level, shared)
        stride *= 2


def refining_path_builder(
    tau: float,
    rho_path: Callable[[np.ndarray], np.ndarray],
    decompose: Callable[..., EigenPath],
) -> Callable[..., EigenPath]:
    """Path factory build(n, coarse=None) on linspace(0, tau, n + 1) for
    converge_phase: rho_path(times) gives the density matrices, or a
    two-state path's BlockEntries, and decompose(times, rhos, coarse=None)
    their EigenPath, as eigen_path does.
    Given coarse, the path on n / 2 steps, only the midpoints of its steps
    are evaluated and decomposed, and the path equals one built from scratch.
    """

    def build(n_steps: int, coarse: EigenPath | None = None) -> EigenPath:
        times = np.linspace(0.0, tau, n_steps + 1)
        if coarse is None:
            return decompose(times, rho_path(times))
        mid = times[1::2]
        return decompose(mid, rho_path(mid), coarse=coarse)

    return build


def analytic_path_builder(
    scenario: Scenario,
    eta0: float,
    p: ModelParams,
    degeneracy_tol: float = DEGENERACY_TOL,
) -> Callable[..., EigenPath]:
    """Path factory over one quasicycle from the corrected closed-form density matrices."""
    return refining_path_builder(
        quasicycle_period(p),
        lambda times: analytic_rho_path(scenario, eta0, p, times),
        partial(eigen_path, degeneracy_tol=degeneracy_tol),
    )


# ---------------------------------------------------------------------------
# Closed forms.
# ---------------------------------------------------------------------------

def phase_micro_micro_closed(eta0: float | np.ndarray, p: ModelParams) -> float | np.ndarray:
    """Single-branch closed form of the Bell-scenario phase by quadrature.

    Evaluates arg<eps1(0)|eps1(tau)> (argument tracked continuously along the
    cycle) plus the integral of dLambda/dt sin^2 theta(t) by Simpson's rule
    on N_QUAD intervals. Agrees with kinematic_phase on the same path.

    eta0 is one angle, whose phase comes back as a float, or an array of
    angles, whose phases come back as an array of that shape. The grid that
    no angle changes (Lambda, dLambda/dt, e^{-2 Gamma} and e^{-i Lambda} on
    N_QUAD + 1 times) is built once per call, and each angle then takes the
    arithmetic of a one-angle call, row by row: its phase has the same bits
    in any array.
    """
    tau = quasicycle_period(p)
    t = np.linspace(0.0, tau, N_QUAD + 1)
    lam, gam = decay_phase(Scenario.MICRO_MICRO, p, t)
    decay = np.exp(-2.0 * gam)
    turn = np.exp(-1j * lam)
    a2 = abs(p.alpha) ** 2
    lambda_dot = 2 * p.omega + 2 * p.lambda_c * a2 * np.cos(2 * p.lambda_c * t)
    h = tau / N_QUAD

    def phase(eta0: float) -> float:
        # Mixing angle of eps1 = cos theta |00> + sin theta e^{-i Lambda} |11>.
        # The eigenvalue gap e is summed from its two positive terms: as
        # 1 - sin^2 2 eta0 (1 - e^{-2 Gamma}) it cancels to 0 at eta0 = pi/4.
        c2e = math.cos(2 * eta0)
        e = np.sqrt(c2e**2 + math.sin(2 * eta0) ** 2 * decay)
        cos_theta = np.sqrt(np.clip((e + c2e) / (2.0 * e), 0.0, None))
        sin_theta = np.sqrt(np.clip((e - c2e) / (2.0 * e), 0.0, None))
        integrand = lambda_dot * sin_theta**2
        integral = (h / 3.0) * (
            integrand[0]
            + integrand[-1]
            + 4.0 * integrand[1:-1:2].sum()
            + 2.0 * integrand[2:-1:2].sum()
        )
        overlap = math.cos(eta0) * cos_theta + math.sin(eta0) * sin_theta * turn
        arg = np.angle(overlap)
        return _unwrapped_span(arg, np.diff(arg)) + float(integral)

    if np.ndim(eta0) == 0:
        return phase(eta0)
    eta0 = np.asarray(eta0, dtype=float)
    return np.array([phase(x) for x in eta0.ravel().tolist()]).reshape(eta0.shape)


def weak_coupling_phase(concurrence: float, p: ModelParams) -> float:
    """Published weak-coupling relation 4 pi lambda |alpha|^2 (1 - sqrt(1-C^2)) / omega.

    Kept verbatim; the path computation gives weak_coupling_phase_limit
    instead, and both are reported by the validation verb.
    """
    if not 0.0 <= concurrence <= 1.0:
        raise ValueError(f"concurrence must lie in [0, 1], got {concurrence}")
    a2 = abs(p.alpha) ** 2
    return 4.0 * math.pi * p.lambda_c * a2 * _one_minus_sqrt_one_minus_sq(concurrence) / p.omega


def weak_coupling_phase_limit(concurrence: float) -> float:
    """Zero-coupling limit of the kinematic phase over one quasicycle,
    2 pi (1 - sqrt(1 - C^2)); coupling corrections enter only at second order."""
    if not 0.0 <= concurrence <= 1.0:
        raise ValueError(f"concurrence must lie in [0, 1], got {concurrence}")
    return 2.0 * math.pi * _one_minus_sqrt_one_minus_sq(concurrence)


def _one_minus_sqrt_one_minus_sq(c: float) -> float:
    """1 - sqrt(1 - c^2) as c^2 / (1 + sqrt(1 - c^2)), which keeps the
    ~c^2/2 value for small c instead of cancelling it to 0."""
    c2 = c * c
    return c2 / (1.0 + math.sqrt(1.0 - c2))


SPECIAL_POINT_TOL = 1e-9


def at_special_point(eta0: float, p: ModelParams) -> bool:
    """Whether eta0 = pi/4 and lambda * tau = pi/4, where the hybrid closed forms hold."""
    return (
        abs(eta0 - math.pi / 4) < SPECIAL_POINT_TOL
        and abs(p.lambda_c * quasicycle_period(p) - math.pi / 4) < SPECIAL_POINT_TOL
    )


def special_point_phase(scenario: Scenario, a2: float, p: ModelParams) -> float:
    """Published special-point phase of a hybrid scenario at mode intensity
    a2 = |alpha|^2; MACRO_SINGLE's keeps the published detuning omega - 4J."""
    if scenario == Scenario.MACRO_BOTH:
        return (16.0 + p.omega) / 32.0 * a2
    if scenario == Scenario.MACRO_SINGLE:
        return -math.pi * (1.0 - 4.0 * p.j_vdw / p.omega) - 0.5 * a2
    raise ValueError("special-point closed forms exist for the two hybrid scenarios only")


def phase_macro_closed(scenario: Scenario, eta0: float, p: ModelParams) -> float:
    """Special-point closed form of a hybrid scenario's phase at the |alpha| of p.

    It disagrees with the kinematic phase of the same path; `becphase
    validate` prints the two side by side.
    """
    if not at_special_point(eta0, p):
        raise ValueError(
            f"special point requires eta0 = pi/4 and lambda * tau = pi/4, "
            f"got {eta0} and {p.lambda_c * quasicycle_period(p)}"
        )
    return special_point_phase(scenario, abs(p.alpha) ** 2, p)
