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
from typing import Callable

import numpy as np

from .model import ModelParams, quasicycle_period
from .density import (
    DEGENERACY_TOL,
    EigenPath,
    Scenario,
    analytic_rho_path,
    decay_phase,
    eigen_path,
)

PHASE_TOL = 1e-7
N_STEPS = 2048
MAX_DOUBLINGS = 10
COARSE_LINK_WARNING = 0.9
ORIGIN_WARNING_RATIO = 1e-6
# Extrapolated acceptance in converge_phase: the window of d_{k-1} / d_k
# around the O(h^2) ratio 4, and the warnings under which the grid error is
# not known to be O(h^2).
RATIO_WINDOW = (3.5, 4.5)
EXTRAPOLATION_BLOCKERS = ("branch-ambiguity", "coarse-grid", "phase-origin-crossing")


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


def _branch_phasors(values: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, float]:
    """Partial-path branch contributions z[m, k]; also the smallest link modulus.

    The link modulus is tracked only over branches with nonzero initial
    weight, since a branch with eps(0) = 0 contributes nothing to any sum.
    """
    w0 = np.clip(values[0], 0.0, None)
    wt = np.clip(values, 0.0, None)
    weights = np.sqrt(w0[None, :] * wt)
    endpoint = np.einsum("ak,mak->mk", vectors[0].conj(), vectors)
    links = np.einsum("mak,mak->mk", vectors[:-1].conj(), vectors[1:])
    mods = np.abs(links)
    live = w0 > 1e-12
    min_link = float(mods[:, live].min()) if mods.size and live.any() else 1.0
    if min_link == 0.0:
        raise ConvergenceError("vanishing neighbor overlap: grid cannot resolve the path")
    # dead-branch links may be ill-defined inside a degenerate zero subspace
    unit = np.where(mods > 0.0, links / np.where(mods > 0.0, mods, 1.0), 1.0)
    cum = np.empty_like(endpoint)
    cum[0] = 1.0
    np.cumprod(unit, axis=0, out=cum[1:])
    return weights * endpoint * cum.conj(), min_link


def phase_trace(path: EigenPath) -> np.ndarray:
    """Unwrapped running phase of the partial path at every grid point."""
    z, _ = _branch_phasors(path.values, path.vectors)
    return np.unwrap(np.angle(z.sum(axis=1)))


def kinematic_phase(path: EigenPath) -> PhaseResult:
    """Geometric phase of the whole path.

    Zero-weight branches drop out of the sum; near-degenerate stretches
    flagged by the path are propagated as warnings. The principal value is
    the argument of the final branch sum, the unwrapped value its continuous
    continuation from zero. A single path carries no error estimate;
    converge_phase supplies one.
    """
    if path.times.size < 2:
        raise ValueError("path must contain at least two time points")
    warnings = list(path.flags)
    z, min_link = _branch_phasors(path.values, path.vectors)
    if min_link < COARSE_LINK_WARNING:
        warnings.append(
            f"coarse-grid: smallest neighbor overlap modulus {min_link:.3g}"
        )
    tot = z.sum(axis=1)
    mags = np.abs(tot)
    raw_ang = np.angle(tot)
    steps = np.abs(np.diff(raw_ang))
    steps = np.minimum(steps, 2.0 * np.pi - steps)
    if mags.min() < ORIGIN_WARNING_RATIO * mags.max() or (
        steps.size and steps.max() > 0.5 * np.pi
    ):
        warnings.append(
            "phase-origin-crossing: path sum passes near zero, "
            "unwrapped value is convention dependent there"
        )
    ang = np.unwrap(raw_ang)
    return PhaseResult(
        principal=float(np.angle(tot[-1])),
        unwrapped=float(ang[-1] - ang[0]),
        per_branch=z[-1].copy(),
        n_steps=path.n_steps,
        error_estimate=None,
        warnings=tuple(warnings),
    )


def converge_phase(
    build_path: Callable[[int], EigenPath],
    n_start: int = N_STEPS,
    phase_tol: float = PHASE_TOL,
) -> PhaseResult:
    """Double the grid, at most MAX_DOUBLINGS times, until the unwrapped
    phase is settled to phase_tol.

    The link product's grid error is O(h^2), so consecutive deltas
    d_k = P_k - P_{k-1} shrink by 4 and R_k = P_k + d_k / 3 removes the
    leading error. From the third level on, a level is accepted with R_k
    when d_{k-1} / d_k lies in RATIO_WINDOW, the finest path carries none of
    the EXTRAPOLATION_BLOCKERS warnings and |R_k - R_{k-1}| < phase_tol; the
    principal value is shifted by R_k - P_k and wrapped, and error_estimate
    is |R_k - R_{k-1}|. Otherwise a level is accepted when |d_k| < phase_tol,
    with P_k and error_estimate |d_k|. per_branch and n_steps are those of the
    finest grid.
    """
    if n_start < 2 or n_start % 2:
        raise ValueError("n_start must be an even integer >= 2")
    n = n_start
    prev = kinematic_phase(build_path(n))
    prev_delta = prev_extrapolated = None
    delta = math.inf
    for _ in range(MAX_DOUBLINGS):
        n *= 2
        cur = kinematic_phase(build_path(n))
        delta = cur.unwrapped - prev.unwrapped
        extrapolated = cur.unwrapped + delta / 3.0
        if (
            prev_delta is not None
            and delta != 0.0
            and RATIO_WINDOW[0] <= prev_delta / delta <= RATIO_WINDOW[1]
            and not any(w.startswith(EXTRAPOLATION_BLOCKERS) for w in cur.warnings)
            and abs(extrapolated - prev_extrapolated) < phase_tol
        ):
            return replace(
                cur,
                unwrapped=extrapolated,
                principal=math.remainder(cur.principal + delta / 3.0, 2.0 * math.pi),
                error_estimate=abs(extrapolated - prev_extrapolated),
            )
        if abs(delta) < phase_tol:
            return replace(cur, error_estimate=abs(delta))
        prev, prev_delta, prev_extrapolated = cur, delta, extrapolated
    raise ConvergenceError(
        f"phase did not converge to {phase_tol:g} within {MAX_DOUBLINGS} doublings "
        f"(last delta {abs(delta):g} at {n} steps)"
    )


def refining_path_builder(
    tau: float,
    rho_path: Callable[[np.ndarray], np.ndarray],
    decompose: Callable[..., EigenPath],
) -> Callable[[int], EigenPath]:
    """Path factory on the grid linspace(0, tau, n + 1) for converge_phase.

    rho_path(times) gives the density matrices and decompose(times, rhos,
    coarse=None) their EigenPath, as eigen_path does. A call at twice the
    previous call's n reuses that level, whose grid is the new grid's even
    points: only the midpoints get a density matrix and an
    eigen-decomposition, and the path equals one built from scratch. Any
    other n starts afresh. Only the last level is kept.
    """
    last: EigenPath | None = None

    def build(n_steps: int) -> EigenPath:
        nonlocal last
        times = np.linspace(0.0, tau, n_steps + 1)
        if last is not None and n_steps == 2 * last.n_steps:
            mid = times[1::2]
            last = decompose(mid, rho_path(mid), coarse=last)
        else:
            last = decompose(times, rho_path(times))
        return last

    return build


def analytic_path_builder(
    scenario: Scenario,
    eta0: float,
    p: ModelParams,
    degeneracy_tol: float = DEGENERACY_TOL,
) -> Callable[[int], EigenPath]:
    """Path factory over one quasicycle from the corrected closed-form density matrices."""
    return refining_path_builder(
        quasicycle_period(p),
        lambda times: analytic_rho_path(scenario, eta0, p, times),
        partial(eigen_path, degeneracy_tol=degeneracy_tol),
    )


# ---------------------------------------------------------------------------
# Closed forms.
# ---------------------------------------------------------------------------

def phase_micro_micro_closed(eta0: float, p: ModelParams, n_quad: int = 4096) -> float:
    """Single-branch closed form of the Bell-scenario phase by quadrature.

    Evaluates arg<eps1(0)|eps1(tau)> (argument tracked continuously along the
    cycle) plus the integral of dLambda/dt sin^2 theta(t) by Simpson's rule.
    Agrees with kinematic_phase on the same path.
    """
    if n_quad < 16:
        raise ValueError("n_quad must be at least 16")
    if n_quad % 2:
        n_quad += 1
    tau = quasicycle_period(p)
    t = np.linspace(0.0, tau, n_quad + 1)
    lam, gam = decay_phase(Scenario.MICRO_MICRO, p, t)
    # Mixing angle of eps1 = cos theta |00> + sin theta e^{-i Lambda} |11>.
    # The eigenvalue gap e is summed from its two positive terms: as
    # 1 - sin^2 2 eta0 (1 - e^{-2 Gamma}) it cancels to 0 at eta0 = pi/4.
    c2e = math.cos(2 * eta0)
    e = np.sqrt(c2e**2 + math.sin(2 * eta0) ** 2 * np.exp(-2.0 * gam))
    cos_theta = np.sqrt(np.clip((e + c2e) / (2.0 * e), 0.0, None))
    sin_theta = np.sqrt(np.clip((e - c2e) / (2.0 * e), 0.0, None))
    a2 = abs(p.alpha) ** 2
    lambda_dot = 2 * p.omega + 2 * p.lambda_c * a2 * np.cos(2 * p.lambda_c * t)
    integrand = lambda_dot * sin_theta**2
    h = tau / n_quad
    integral = (h / 3.0) * (
        integrand[0]
        + integrand[-1]
        + 4.0 * integrand[1:-1:2].sum()
        + 2.0 * integrand[2:-1:2].sum()
    )
    overlap = math.cos(eta0) * cos_theta + math.sin(eta0) * sin_theta * np.exp(-1j * lam)
    tracked = np.unwrap(np.angle(overlap))
    return float(tracked[-1] - tracked[0] + integral)


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
