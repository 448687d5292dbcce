"""Physical parameters and the exact diagonal spectrum of the qubit-pair + mode system."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Branches |00>, |11>, |01>, |10>, indexed 0..3 in every module.
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


def branch_frequency(branch, n, p: ModelParams):
    """Running frequency theta_branch(n) of qubit branches, vectorized over
    branch indices and n, which broadcast against each other: the
    eigenenergy of |branch> x |n> under the diagonal Hamiltonian, with
    sigma_z |0> = -|0> and sigma_z |1> = +|1>. Scalar arguments give a float.

    Branches are indexed 0..3 for |00>, |11>, |01>, |10>.
    """
    branch, n = np.asarray(branch), np.asarray(n)
    if branch.dtype.kind not in "iu" or branch.min() < 0 or branch.max() >= N_BRANCHES:
        raise ValueError(f"branch must be in 0..3, got {branch}")
    if (n < 0).any():
        raise ValueError("Fock index must be non-negative")
    kerr = p.chi * n * (n - 1)
    energy = np.array([-p.omega + p.j_vdw, p.omega + p.j_vdw, -p.j_vdw, -p.j_vdw])
    slope = np.array([p.omega_b - p.lambda_c, p.omega_b + p.lambda_c, p.omega_b, p.omega_b])
    out = energy[branch] + slope[branch] * n + kerr
    return float(out) if np.ndim(out) == 0 else out


def quasicycle_period(p: ModelParams) -> float:
    """Evolution window tau = 2 pi / omega over which the phase is accumulated."""
    return 2.0 * math.pi / p.omega
