"""Truncated-Fock coherent states of the qubit pair and the mode.

Every qubit branch evolves under its own diagonal spectrum, so evolution is a
pure per-Fock-index phase, which density.oracle_rho_path applies. The partial
trace of these states is the numerical ground truth against which every
analytic shortcut in the package is checked.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .model import N_BRANCHES, ModelParams

JOINT_NORM_TOL = 1e-10
TAIL_TOL = 1e-12
# Largest |alpha| whose vacuum amplitude exp(-|alpha|^2 / 2) is a normal
# double: beyond it the amplitudes underflow and their recurrence overflows.
MAX_ALPHA = math.sqrt(-2.0 * math.log(sys.float_info.min))


@dataclass(frozen=True)
class JointState:
    """Four branch coefficients, each paired with a row of Fock amplitudes
    over states 0..n_max: amps has shape (4, n_max + 1)."""

    coeffs: np.ndarray
    amps: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=complex)
        amps = np.asarray(self.amps, dtype=complex)
        if coeffs.shape != (N_BRANCHES,):
            raise ValueError("coeffs must have exactly four entries")
        if amps.ndim != 2 or amps.shape[0] != N_BRANCHES or amps.shape[1] == 0:
            raise ValueError(f"amps must have shape (4, D) with D >= 1, got {amps.shape}")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "amps", amps)

    @property
    def n_max(self) -> int:
        return self.amps.shape[1] - 1

    def norm2(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2 * np.sum(np.abs(self.amps) ** 2, axis=1)))


def validate_joint(state: JointState) -> None:
    norm2 = state.norm2()
    if abs(norm2 - 1.0) > JOINT_NORM_TOL:
        raise ValueError(f"joint state is not normalized: |psi|^2 = {norm2!r}")


def truncation_dim(alpha: complex, tail_tol: float) -> int:
    """Smallest n_max >= 4 with Poissonian tail mass below tail_tol.

    The search is capped at ceil(|alpha|^2 + 10 |alpha| + 20), which always
    dominates the requested quantile for tail_tol >= 1e-15, and returns the cap
    where its start exp(-|alpha|^2) is not a normal double. An |alpha| above
    MAX_ALPHA is refused before the search starts.
    """
    if not 0.0 < tail_tol < 1.0:
        raise ValueError(f"tail_tol must lie in (0, 1), got {tail_tol}")
    if abs(alpha) > MAX_ALPHA:
        raise ValueError(
            f"alpha = {alpha} is too large for the truncated Fock basis: "
            f"|alpha| must not exceed {MAX_ALPHA:.4g}"
        )
    mu = abs(alpha) ** 2
    bound = math.ceil(mu + 10.0 * abs(alpha) + 20.0)
    p = math.exp(-mu)
    if p < sys.float_info.min:
        return bound
    cum = p
    if 1.0 - cum < tail_tol:
        return 4
    for n in range(1, bound + 1):
        p *= mu / n
        cum += p
        if 1.0 - cum < tail_tol:
            return max(n, 4)
    return bound


def coherent(alpha: complex, n_max: int) -> np.ndarray:
    """Coherent-state amplitudes e^{-|a|^2/2} a^n / sqrt(n!) for n = 0..n_max,
    via a stable recurrence."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    amps = np.empty(n_max + 1, dtype=complex)
    amps[0] = math.exp(-abs(alpha) ** 2 / 2.0)
    if n_max > 0:
        steps = alpha / np.sqrt(np.arange(1, n_max + 1))
        amps[1:] = amps[0] * np.cumprod(steps)
    return amps


# ---------------------------------------------------------------------------
# Initial states of the three scenarios plus the general four-branch state.
# ---------------------------------------------------------------------------

def _coherent_branches(alpha: complex, signs: tuple[int, ...], tail_tol: float) -> np.ndarray:
    """(4, D) amplitudes: branch k holds |signs[k] alpha>, or nothing where signs[k] is 0."""
    n_max = truncation_dim(alpha, tail_tol)
    amps = np.zeros((N_BRANCHES, n_max + 1), dtype=complex)
    for k, sign in enumerate(signs):
        if sign:
            amps[k] = coherent(sign * alpha, n_max)
    return amps


def bell_initial(eta0: float, p: ModelParams, tail_tol: float = TAIL_TOL) -> JointState:
    """(cos eta0 |00> + sin eta0 |11>) with the mode in one coherent state."""
    coeffs = [math.cos(eta0), math.sin(eta0), 0.0, 0.0]
    return JointState(coeffs, _coherent_branches(p.alpha, (1, 1, 0, 0), tail_tol))


def macro_both_initial(eta0: float, p: ModelParams, tail_tol: float = TAIL_TOL) -> JointState:
    """cos eta0 |00>|alpha> + sin eta0 |11>|-alpha>: both qubits tied to the mode."""
    coeffs = [math.cos(eta0), math.sin(eta0), 0.0, 0.0]
    return JointState(coeffs, _coherent_branches(p.alpha, (1, -1, 0, 0), tail_tol))


def macro_single_initial(eta0: float, p: ModelParams, tail_tol: float = TAIL_TOL) -> JointState:
    """cos eta0 |00>|alpha> + sin eta0 |01>|-alpha>: one qubit tied to the mode."""
    coeffs = [math.cos(eta0), 0.0, math.sin(eta0), 0.0]
    return JointState(coeffs, _coherent_branches(p.alpha, (1, 0, -1, 0), tail_tol))


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


def general_initial(coeffs, p: ModelParams, tail_tol: float = TAIL_TOL) -> JointState:
    """Arbitrary normalized four-branch superposition with a shared coherent mode."""
    coeffs = check_coefficients(coeffs)
    return JointState(coeffs, _coherent_branches(p.alpha, (1, 1, 1, 1), tail_tol))
