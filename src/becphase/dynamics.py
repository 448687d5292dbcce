"""Truncated-Fock coherent states and exact branch-resolved time evolution.

Every qubit branch evolves under its own diagonal spectrum, so evolution is a
pure per-Fock-index phase. The partial trace of these states is the numerical
ground truth against which every analytic shortcut in the package is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import N_BRANCHES, ModelParams, branch_frequency

JOINT_NORM_TOL = 1e-10


@dataclass(frozen=True)
class FockVector:
    """Complex amplitudes over Fock states 0..n_max."""

    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amps, dtype=complex)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("amps must be a non-empty 1-d array")
        object.__setattr__(self, "amps", amps)

    @property
    def n_max(self) -> int:
        return self.amps.size - 1

    def norm2(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))


@dataclass(frozen=True)
class JointState:
    """Four branch coefficients, each paired with a Fock vector of equal length."""

    coeffs: np.ndarray
    branches: tuple[FockVector, ...]

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.shape != (N_BRANCHES,):
            raise ValueError("coeffs must have exactly four entries")
        if len(self.branches) != N_BRANCHES:
            raise ValueError("branches must have exactly four entries")
        dims = {b.n_max for b in self.branches}
        if len(dims) != 1:
            raise ValueError("all branch vectors must share one truncation")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def n_max(self) -> int:
        return self.branches[0].n_max

    def norm2(self) -> float:
        return float(
            sum(abs(c) ** 2 * b.norm2() for c, b in zip(self.coeffs, self.branches))
        )


def validate_joint(state: JointState, tol: float = JOINT_NORM_TOL) -> None:
    norm2 = state.norm2()
    if abs(norm2 - 1.0) > tol:
        raise ValueError(f"joint state is not normalized: |psi|^2 = {norm2!r}")


def truncation_dim(alpha: complex, tail_tol: float, floor: int = 4) -> int:
    """Smallest n_max with Poissonian tail mass below tail_tol (never below `floor`).

    The search is capped at ceil(|alpha|^2 + 10 |alpha| + 20), which always
    dominates the requested quantile for tail_tol >= 1e-15.
    """
    if not 0.0 < tail_tol < 1.0:
        raise ValueError(f"tail_tol must lie in (0, 1), got {tail_tol}")
    mu = abs(alpha) ** 2
    bound = math.ceil(mu + 10.0 * abs(alpha) + 20.0)
    p = math.exp(-mu)
    cum = p
    if 1.0 - cum < tail_tol:
        return max(0, floor)
    for n in range(1, bound + 1):
        p *= mu / n
        cum += p
        if 1.0 - cum < tail_tol:
            return max(n, floor)
    return bound


def coherent(alpha: complex, n_max: int) -> FockVector:
    """Coherent-state amplitudes e^{-|a|^2/2} a^n / sqrt(n!) via a stable recurrence."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    amps = np.empty(n_max + 1, dtype=complex)
    amps[0] = math.exp(-abs(alpha) ** 2 / 2.0)
    if n_max > 0:
        steps = alpha / np.sqrt(np.arange(1, n_max + 1))
        amps[1:] = amps[0] * np.cumprod(steps)
    return FockVector(amps)


def zero_fock(n_max: int) -> FockVector:
    return FockVector(np.zeros(n_max + 1, dtype=complex))


def evolve_branch(phi0: FockVector, branch: int, t: float, p: ModelParams) -> FockVector:
    """Apply the per-Fock-index phase e^{-i t theta_branch(n)}; norm is unchanged."""
    n = np.arange(phi0.n_max + 1)
    theta = branch_frequency(branch, n, p)
    return FockVector(phi0.amps * np.exp(-1j * t * theta))


def evolve_joint(state0: JointState, t: float, p: ModelParams) -> JointState:
    """Evolve each branch by its own running frequency; coefficients are untouched."""
    validate_joint(state0)
    branches = tuple(
        evolve_branch(b, i, t, p) for i, b in enumerate(state0.branches)
    )
    return JointState(state0.coeffs.copy(), branches)


def branch_overlap(a: FockVector, b: FockVector) -> complex:
    """Inner product <a|b> over the shared truncated basis."""
    if a.n_max != b.n_max:
        raise ValueError(f"dimension mismatch: {a.n_max} vs {b.n_max}")
    return complex(np.vdot(a.amps, b.amps))


# ---------------------------------------------------------------------------
# Initial states of the three scenarios plus the general four-branch state.
# ---------------------------------------------------------------------------

def bell_initial(eta0: float, p: ModelParams, tail_tol: float = 1e-12) -> JointState:
    """(cos eta0 |00> + sin eta0 |11>) with the mode in one coherent state."""
    n_max = truncation_dim(p.alpha, tail_tol)
    coh = coherent(p.alpha, n_max)
    coeffs = np.array([math.cos(eta0), math.sin(eta0), 0.0, 0.0], dtype=complex)
    return JointState(coeffs, (coh, coh, zero_fock(n_max), zero_fock(n_max)))


def macro_both_initial(eta0: float, p: ModelParams, tail_tol: float = 1e-12) -> JointState:
    """cos eta0 |00>|alpha> + sin eta0 |11>|-alpha>: both qubits tied to the mode."""
    n_max = truncation_dim(p.alpha, tail_tol)
    coeffs = np.array([math.cos(eta0), math.sin(eta0), 0.0, 0.0], dtype=complex)
    branches = (
        coherent(p.alpha, n_max),
        coherent(-p.alpha, n_max),
        zero_fock(n_max),
        zero_fock(n_max),
    )
    return JointState(coeffs, branches)


def macro_single_initial(eta0: float, p: ModelParams, tail_tol: float = 1e-12) -> JointState:
    """cos eta0 |00>|alpha> + sin eta0 |01>|-alpha>: one qubit tied to the mode."""
    n_max = truncation_dim(p.alpha, tail_tol)
    coeffs = np.array([math.cos(eta0), 0.0, math.sin(eta0), 0.0], dtype=complex)
    branches = (
        coherent(p.alpha, n_max),
        zero_fock(n_max),
        coherent(-p.alpha, n_max),
        zero_fock(n_max),
    )
    return JointState(coeffs, branches)


def check_coefficients(coeffs) -> np.ndarray:
    """Four branch coefficients as a complex array, refused unless normalized."""
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != (N_BRANCHES,):
        raise ValueError("general state needs exactly four coefficients")
    norm2 = float(np.sum(np.abs(coeffs) ** 2))
    if abs(norm2 - 1.0) > JOINT_NORM_TOL:
        raise ValueError(
            f"coefficients must satisfy sum |c_i|^2 = 1; computed norm^2 = {norm2!r}"
        )
    return coeffs


def general_initial(coeffs, p: ModelParams, tail_tol: float = 1e-12) -> JointState:
    """Arbitrary normalized four-branch superposition with a shared coherent mode."""
    coeffs = check_coefficients(coeffs)
    n_max = truncation_dim(p.alpha, tail_tol)
    coh = coherent(p.alpha, n_max)
    return JointState(coeffs, (coh, coh, coh, coh))
