"""Reference implementations that the tests compare the library against.

- evolve_branch / evolve_joint / branch_overlap: point-by-point evolution
  and overlaps on the truncated Fock basis, the reference for the vectorized
  `oracle_rho_path`.
- to_computational / from_computational: the module basis order
  (|00>,|11>,|01>,|10>) against the computational product order.
- x_state_density / concurrence_x_state: the closed-form concurrence of the
  cross-shaped family, a cross-check of Wootters' formula.
- factorization_functions: the paper's two-branch split F1 F2 F3 of the
  kinematic phase.
- single_qubit_concurrence: the purity concurrence of one qubit against the
  other qubit and the mode, a cut that `purity_oracle` does not take.
- BRANCH_LABELS: the qubit states (s1, s2) of the branches |00>, |11>,
  |01>, |10>, for Hamiltonian energies and single-qubit cuts.
- exhaustive_step_permutations: scores all 24 column permutations on every
  step, the reference for the shortcut of `density._step_permutations`.
- coherent_rho_full: the coherent-overlap density on all 16 entries, the
  reference for the occupied-block evaluation of `coherent_rho_path`.
- emit_rowwise: one `csv.writer` row per table row, the reference for the
  column-wise `emit`.
- converge_phase_h2: grid doubling from 2,048 steps with one h^2
  extrapolation step, the reference for the Romberg acceptance of
  `converge_phase`.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from becphase import (
    CoherentBranches,
    EigenPath,
    JointState,
    ModelParams,
    Table,
    branch_frequency,
    kinematic_phase,
    validate_joint,
)
from becphase.cli import _fmt
from becphase.density import SUPPORT_TOL
from becphase.geomphase import EXTRAPOLATION_BLOCKERS, PHASE_TOL, ConvergenceError, PhaseResult


def evolve_branch(phi0: np.ndarray, branch: int, t: float, p: ModelParams) -> np.ndarray:
    """Apply the per-Fock-index phase e^{-i t theta_branch(n)}; norm is unchanged."""
    n = np.arange(phi0.size)
    return phi0 * np.exp(-1j * t * branch_frequency(branch, n, p))


def evolve_joint(state0: JointState, t: float, p: ModelParams) -> JointState:
    """Evolve each branch by its own running frequency; coefficients are untouched."""
    validate_joint(state0)
    amps = np.stack([evolve_branch(a, k, t, p) for k, a in enumerate(state0.amps)])
    return JointState(state0.coeffs.copy(), amps)


def branch_overlap(a: np.ndarray, b: np.ndarray) -> complex:
    """Inner product <a|b> over the shared truncated basis."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


# Module basis order (|00>,|11>,|01>,|10>) maps onto the computational
# product order (|00>,|01>,|10>,|11>) through this index list.
MODULE_TO_COMPUTATIONAL = (0, 3, 1, 2)


def to_computational(mat: np.ndarray) -> np.ndarray:
    """Reorder a module-basis 4x4 matrix into computational product order."""
    inv = np.argsort(MODULE_TO_COMPUTATIONAL)
    return mat[np.ix_(inv, inv)]


def from_computational(mat: np.ndarray) -> np.ndarray:
    perm = np.asarray(MODULE_TO_COMPUTATIONAL)
    return mat[np.ix_(perm, perm)]


def x_state_density(w: float, x: float, y: float, z: complex) -> np.ndarray:
    """Assemble the cross-shaped density matrix with corner coherence z."""
    if min(w, x, y) < -1e-12:
        raise ValueError("populations must be non-negative")
    if abs(w + 2 * x + y - 1.0) > 1e-9:
        raise ValueError(f"populations must satisfy w + 2x + y = 1, got {w + 2 * x + y}")
    if abs(z) > math.sqrt(max(w * y, 0.0)) + 1e-12:
        raise ValueError("coherence |z| exceeds sqrt(w y)")
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0], mat[1, 1] = w, y
    mat[2, 2] = mat[3, 3] = x
    mat[0, 1], mat[1, 0] = z, np.conj(z)
    return mat


def concurrence_x_state(w: float, x: float, y: float, z: complex) -> float:
    """Closed form max{0, 2|z| - 2x} for the cross-shaped family."""
    x_state_density(w, x, y, z)
    return float(max(0.0, 2.0 * abs(z) - 2.0 * x))


@dataclass(frozen=True)
class FactorizationResult:
    f1: float
    f2: complex
    f3: complex
    phase_part2: float


def factorization_functions(path: EigenPath) -> FactorizationResult:
    """Two-branch split F1, F2, F3 and the second phase part arg(1 + F1 F2 F3).

    With z_k the contribution of branch k to the kinematic phase sum,
    z_1 / z_0 = F1 F2 F3, so the phase is arg(z_0) + arg(1 + F1 F2 F3).
    F2 and F3 are reported in the gauge where the dominant component of each
    eigenvector at t=0 is real positive along the whole path; their product
    with F1 is gauge invariant.
    """
    if path.n_branches != 2:
        raise ValueError("factorization functions need exactly two branches")
    vals, vecs = path.values, path.vectors
    denom = vals[0, 0] * vals[-1, 0]
    if denom <= 0.0:
        raise ZeroDivisionError("leading branch carries no endpoint weight")
    # A branch with eps(0) <= SUPPORT_TOL is null and weighs 0, as in the library.
    f1 = math.sqrt(max(vals[0, 1] * vals[-1, 1], 0.0) / denom) if vals[0, 1] > SUPPORT_TOL else 0.0

    anchor = int(np.argmax(np.abs(vecs[0, :, 0])))
    fixed = np.empty_like(vecs)
    for k in range(2):
        comp = vecs[:, anchor, k]
        mags = np.abs(comp)
        phase = np.where(mags > 0, comp / np.where(mags > 0, mags, 1.0), 1.0)
        fixed[:, :, k] = vecs[:, :, k] / phase[:, None]

    endpoint = np.einsum("ak,ak->k", fixed[0].conj(), fixed[-1])
    links = np.einsum("mak,mak->mk", fixed[:-1].conj(), fixed[1:])
    unit = links / np.abs(links)
    lprod = np.prod(unit, axis=0)
    f2 = complex(endpoint[1] / endpoint[0])
    f3 = complex(lprod[1].conj() * lprod[0])
    phase_part2 = float(np.angle(1.0 + f1 * f2 * f3))
    return FactorizationResult(f1, f2, f3, phase_part2)


# Qubit states (s1, s2) of the branches |00>, |11>, |01>, |10>.
BRANCH_LABELS = ((0, 0), (1, 1), (0, 1), (1, 0))
_QUBIT1 = tuple(lbl[0] for lbl in BRANCH_LABELS)
_QUBIT2 = tuple(lbl[1] for lbl in BRANCH_LABELS)


def single_qubit_concurrence(state: JointState, cut: str) -> float:
    """Concurrence sqrt(2 (1 - Tr rho^2)) of a pure state across the cut
    "qubit1" or "qubit2": one qubit against the other qubit and the mode."""
    validate_joint(state)
    labels = _QUBIT1 if cut == "qubit1" else _QUBIT2
    other = _QUBIT2 if cut == "qubit1" else _QUBIT1
    gram = state.amps.conj() @ state.amps.T  # gram[j, i] = <phi_j|phi_i>
    c = state.coeffs
    rho = np.zeros((2, 2), dtype=complex)
    for i in range(4):
        for j in range(4):
            if other[i] == other[j]:
                rho[labels[i], labels[j]] += c[i] * np.conj(c[j]) * gram[j, i]
    purity = float(np.real(np.trace(rho @ rho)))
    return math.sqrt(max(0.0, 2.0 * (1.0 - purity)))


PERMUTATIONS = np.array(list(itertools.permutations(range(4))))  # [0] is the identity


def exhaustive_step_permutations(evecs: np.ndarray) -> np.ndarray:
    """Index into PERMUTATIONS of the column permutation that maximizes the
    summed squared overlaps between evecs[m] and evecs[m + 1], scored over
    all 24 permutations on every step."""
    ov2 = np.abs(np.einsum("maf,mag->mfg", evecs[:-1].conj(), evecs[1:])) ** 2
    rows = np.broadcast_to(np.arange(4), PERMUTATIONS.shape)
    return np.argmax(ov2[:, rows, PERMUTATIONS].sum(axis=2), axis=1)


def coherent_rho_full(state0: CoherentBranches, times: np.ndarray, p: ModelParams) -> np.ndarray:
    """rho_ij(t) = c_i conj(c_j) exp(-i (E_i - E_j) t + G_ij(t)) on every
    entry, empty branches included (their weight is 0)."""
    t = np.asarray(times, dtype=float)[:, None, None]
    energy = np.array([branch_frequency(k, 0, p) for k in range(4)])
    slope = np.array([branch_frequency(k, 1, p) for k in range(4)]) - energy
    b = state0.betas
    cross = np.outer(b, b.conj())
    g0 = -0.5 * np.abs(b[:, None] - b[None, :]) ** 2 + 1j * cross.imag
    mu = slope[:, None] - slope[None, :]
    de = energy[:, None] - energy[None, :]
    weight = np.outer(state0.coeffs, state0.coeffs.conj())
    g = g0 - cross * (2.0 * np.sin(0.5 * mu * t) ** 2 + 1j * np.sin(mu * t))
    return weight * np.exp(g - 1j * de * t)


def emit_rowwise(table: Table, fmt: str) -> str:
    """The table written one `csv.writer` row at a time, strings as they are."""
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter="," if fmt == "csv" else "\t", lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([v if isinstance(v, str) else _fmt(v) for v in row])
    return buf.getvalue()


def converge_phase_h2(build_path, n_start: int = 2048, phase_tol: float = PHASE_TOL) -> PhaseResult:
    """Double the grid, at most 10 times. From the third level on, accept
    R_k = P_k + d_k / 3 when d_{k-1} / d_k lies in [3.5, 4.5], the finest path
    carries no extrapolation blocker and |R_k - R_{k-1}| < phase_tol;
    otherwise accept P_k when |d_k| < phase_tol."""
    n = n_start
    prev = kinematic_phase(build_path(n))
    prev_delta = prev_extrapolated = None
    for _ in range(10):
        n *= 2
        cur = kinematic_phase(build_path(n))
        delta = cur.unwrapped - prev.unwrapped
        extrapolated = cur.unwrapped + delta / 3.0
        if (
            prev_delta is not None
            and delta != 0.0
            and 3.5 <= prev_delta / delta <= 4.5
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
    raise ConvergenceError(f"phase did not converge to {phase_tol:g} within 10 doublings")
