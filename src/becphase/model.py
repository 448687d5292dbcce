"""Physical parameters and the exact diagonal spectrum of the qubit-pair + mode system."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# sigma_z eigenvalue per qubit label: |0> -> -1, |1> -> +1 (fixed globally)
SPIN_VALUE = {0: -1, 1: +1}

# Branch ordering |00>, |11>, |01>, |10> shared by every module.
BRANCH_LABELS = ((0, 0), (1, 1), (0, 1), (1, 0))
N_BRANCHES = 4


@dataclass(frozen=True)
class ModelParams:
    """Angular-frequency constants of the model (hbar = 1).

    omega     qubit transition frequency, must be positive
    j_vdw     sigma_z * sigma_z coupling between the two qubits
    omega_b   mode frequency
    chi       Kerr nonlinearity of the mode
    lambda_c  qubit-mode coupling
    alpha     coherent amplitude of the mode (dimensionless)
    """

    omega: float
    j_vdw: float = 0.0
    omega_b: float = 0.0
    chi: float = 0.0
    lambda_c: float = 0.0
    alpha: complex = field(default=1.0 + 0.0j)

    def __post_init__(self) -> None:
        values = (self.omega, self.j_vdw, self.omega_b, self.chi, self.lambda_c)
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
            raise ValueError("all frequency parameters must be finite real numbers")
        a = complex(self.alpha)
        if not (math.isfinite(a.real) and math.isfinite(a.imag)):
            raise ValueError("alpha must be a finite complex number")
        object.__setattr__(self, "alpha", a)
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")


def energy(s1: int, s2: int, n, p: ModelParams):
    """Eigenenergy of |s1 s2> x |n| under the diagonal Hamiltonian.

    s1, s2 are qubit labels in {0, 1}; n is a Fock index (scalar or array).
    """
    if s1 not in SPIN_VALUE or s2 not in SPIN_VALUE:
        raise ValueError(f"qubit labels must be 0 or 1, got ({s1}, {s2})")
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValueError("Fock index must be non-negative")
    a, b = SPIN_VALUE[s1], SPIN_VALUE[s2]
    e = (
        0.5 * p.omega * (a + b)
        + p.omega_b * n
        + p.j_vdw * a * b
        + 0.5 * p.lambda_c * (a + b) * n
        + p.chi * n * (n - 1)
    )
    return float(e) if np.ndim(e) == 0 else e


def branch_frequency(branch: int, n, p: ModelParams):
    """Running frequency theta_branch(n) of one qubit branch, vectorized over n.

    Branches are indexed 0..3 for |00>, |11>, |01>, |10>.
    """
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValueError("Fock index must be non-negative")
    kerr = p.chi * n * (n - 1)
    if branch == 0:
        out = -p.omega + p.j_vdw + (p.omega_b - p.lambda_c) * n + kerr
    elif branch == 1:
        out = p.omega + p.j_vdw + (p.omega_b + p.lambda_c) * n + kerr
    elif branch in (2, 3):
        out = -p.j_vdw + p.omega_b * n + kerr
    else:
        raise ValueError(f"branch must be in 0..3, got {branch}")
    return float(out) if np.ndim(out) == 0 else out


def quasicycle_period(p: ModelParams) -> float:
    """Evolution window tau = 2 pi / omega over which the phase is accumulated."""
    return 2.0 * math.pi / p.omega
