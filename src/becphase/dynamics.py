"""The qubit pair and the mode as four coherent branches, and their
truncated-Fock form.

Each initial state is a superposition of four qubit branches, branch k
holding the coherent mode state |sign_k alpha>. Every branch evolves under its
own diagonal spectrum, so it stays coherent up to a Kerr factor that all
branches share: density.coherent_rho_path reads the reduced state off that in
closed form. On the truncated Fock basis the evolution is a pure
per-Fock-index phase, which density.oracle_rho_path applies; that partial
trace is the numerical ground truth against which every shortcut in the
package is checked.
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
# double: beyond it the Fock amplitudes underflow and their recurrence
# overflows. States are refused beyond it, so that every accepted input stays
# checkable against the truncated-Fock ground truth.
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


def _check_alpha(alpha: complex) -> None:
    if abs(alpha) > MAX_ALPHA:
        raise ValueError(
            f"alpha = {alpha} is too large for the truncated Fock basis: "
            f"|alpha| must not exceed {MAX_ALPHA:.4g}"
        )


def truncation_dim(alpha: complex, tail_tol: float) -> int:
    """Smallest n_max >= 4 with Poissonian tail mass below tail_tol.

    The tail is summed from the top, term by term in log space, starting at
    the cap ceil(|alpha|^2 + 10 |alpha| + 20), whose own tail lies below
    1e-23 for every accepted |alpha|; a tail_tol smaller still gets the cap.
    An |alpha| above MAX_ALPHA is refused before the search starts.
    """
    if not 0.0 < tail_tol < 1.0:
        raise ValueError(f"tail_tol must lie in (0, 1), got {tail_tol}")
    _check_alpha(alpha)
    mu = abs(alpha) ** 2
    if mu == 0.0:
        return 4
    n = math.ceil(mu + 10.0 * abs(alpha) + 20.0)
    log_mu = math.log(mu)
    tail = 0.0  # Poisson mass above n
    while n > 4:
        p_n = math.exp(n * log_mu - mu - math.lgamma(n + 1))
        if tail + p_n >= tail_tol:
            break
        tail += p_n
        n -= 1
    return n


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


@dataclass(frozen=True)
class CoherentBranches:
    """Four branch coefficients, branch k holding the coherent mode state
    |signs[k] alpha>, or no mode state where signs[k] is 0 (its coefficient
    is then 0 too)."""

    coeffs: np.ndarray
    signs: tuple[int, ...]
    alpha: complex

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=complex))

    @property
    def betas(self) -> np.ndarray:
        """Coherent amplitude of each branch, 0 where a branch is empty."""
        return np.array(self.signs) * self.alpha

    @property
    def n_max(self) -> int:
        """Fock truncation of the ground-truth form, at tail mass TAIL_TOL."""
        return truncation_dim(self.alpha, TAIL_TOL)

    def fock(self) -> JointState:
        """The same state on the truncated Fock basis 0..n_max."""
        n_max = self.n_max
        amps = np.zeros((N_BRANCHES, n_max + 1), dtype=complex)
        for k, sign in enumerate(self.signs):
            if sign:
                amps[k] = coherent(sign * self.alpha, n_max)
        return JointState(self.coeffs, amps)


# ---------------------------------------------------------------------------
# Initial states of the three scenarios plus the general four-branch state.
# ---------------------------------------------------------------------------

def bell_initial(eta0: float, p: ModelParams) -> CoherentBranches:
    """(cos eta0 |00> + sin eta0 |11>) with the mode in one coherent state."""
    return CoherentBranches([math.cos(eta0), math.sin(eta0), 0.0, 0.0], (1, 1, 0, 0), p.alpha)


def macro_both_initial(eta0: float, p: ModelParams) -> CoherentBranches:
    """cos eta0 |00>|alpha> + sin eta0 |11>|-alpha>: both qubits tied to the mode."""
    return CoherentBranches([math.cos(eta0), math.sin(eta0), 0.0, 0.0], (1, -1, 0, 0), p.alpha)


def macro_single_initial(eta0: float, p: ModelParams) -> CoherentBranches:
    """cos eta0 |00>|alpha> + sin eta0 |01>|-alpha>: one qubit tied to the mode."""
    return CoherentBranches([math.cos(eta0), 0.0, math.sin(eta0), 0.0], (1, 0, -1, 0), p.alpha)


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


def general_initial(coeffs, p: ModelParams) -> CoherentBranches:
    """Arbitrary normalized four-branch superposition with a shared coherent mode."""
    return CoherentBranches(check_coefficients(coeffs), (1, 1, 1, 1), p.alpha)
