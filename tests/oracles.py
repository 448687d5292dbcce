"""Reference implementations that the tests compare the library against.

- evolve_branch / evolve_joint / branch_overlap: point-by-point evolution
  and overlaps on the truncated Fock basis, the reference for the vectorized
  `oracle_rho_path`.
- to_computational / from_computational: the module basis order
  (|00>,|11>,|01>,|10>) against the computational product order.
- local_unitary: a fixed local unitary that spreads a two-state support over
  all four basis states, so that `eigh` and the Wootters SVD run where the
  closed forms would.
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
- branch_frequency_cases: one branch's running frequency written out case
  by case, the reference for the vectorized `branch_frequency`, which
  takes an array of branches.
- coherent_rho_full: the coherent-overlap density on all 16 entries, the
  reference for the lower triangle of `coherent_rho_path`, which evaluates
  each occupied pair once.
- numpy_unwrapped_span: the span of `np.unwrap` over a whole series, the
  reference for `geomphase._unwrapped_span`, which corrects only the steps
  that wrap.
- emit_rowwise: one `csv.writer` row per table row, the reference for the
  column-wise `emit`.
- block_frames_4x4: the closed-form eigenframes of a two-state block laid
  out as 4x4 frames, spectator columns included, the reference for the
  block-only `Frames` of `validate_density` and for `embed_frames`.
- SIGMA_YY / concurrence_sigma_yy_matmul: sigma_y (x) sigma_y in the module
  basis order, and Wootters' SVD route with the spin flip as the product
  sqrt_rho @ SIGMA_YY, the reference for the signed column permutation of
  `concurrence_wootters`.
- whole_path_phasors: every branch contribution of the kinematic phase sum
  in one pass over the whole path, the reference for the chunked phase sums
  of `kinematic_phase` and `phase_trace`.
- converge_phase_h2: grid doubling from 2,048 steps with one h^2
  extrapolation step, the reference for the Romberg acceptance of
  `converge_phase`.
- converge_phase_levels: the Romberg loop of `converge_phase` with every
  level, the first and the pre-levels below it included, built by its own
  `build_path` call; the reference for deriving those levels from the
  first path's even points. With pre_levels=0 it is the two-level rule.
- even_point_path: the path on every second grid point, on contiguous
  copies of those points' times, frames and columns, with no flags; the
  reference for `density.strided_path`'s views.
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
    Frames,
    JointState,
    ModelParams,
    Table,
    branch_frequency,
    kinematic_phase,
    validate_joint,
)
from becphase import geomphase
from becphase.cli import _fmt
from becphase.density import SUPPORT_TOL, _direction
from becphase.geomphase import PHASE_TOL, ConvergenceError, PhaseResult, romberg_acceptance

# Eigenvalues below this are clamped to 0 before the square root. Every
# eigenvalue at or above it is positive, so this gives concurrence_wootters'
# max(v, 0), written another way so that the oracle stays independent.
EIGENVALUE_CLAMP = 1e-12

# The warning codes under which a grid's error is not known to be a series
# in h^2, so no level is extrapolated: every code that a level can carry.
BLOCKING_CODES = ("branch-ambiguity", "coarse-grid", "phase-origin-crossing")


def blocked(result: PhaseResult) -> bool:
    return any(w.startswith(BLOCKING_CODES) for w in result.warnings)


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


def local_unitary() -> np.ndarray:
    """A fixed u1 (x) u2 in the module basis order."""

    def u(angle, phase):
        c, s = math.cos(angle), math.sin(angle)
        return np.array([[c, -s * np.exp(-1j * phase)], [s * np.exp(1j * phase), c]])

    return from_computational(np.kron(u(0.7, 0.3), u(1.1, -0.8)))


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
    # Branch k is frame column columns[m, k] at grid point m.
    points = np.arange(path.times.size)[:, None]
    vals = path.frames.values[points, path.columns]
    vecs = np.swapaxes(path.frames.vectors[points, :, path.columns], 1, 2)
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


def branch_frequency_cases(branch: int, n, p: ModelParams):
    """theta_branch(n) of one branch, each branch's formula written out."""
    n = np.asarray(n)
    kerr = p.chi * n * (n - 1)
    if branch == 0:
        return -p.omega + p.j_vdw + (p.omega_b - p.lambda_c) * n + kerr
    if branch == 1:
        return p.omega + p.j_vdw + (p.omega_b + p.lambda_c) * n + kerr
    return -p.j_vdw + p.omega_b * n + kerr


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


def block_frames_4x4(m: np.ndarray, block: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (..., 4) and eigenvectors (..., 4, 4) of matrices whose
    entries outside the rows and columns of block = (i, j) are 0: columns 0
    and 1 hold the block's v+ = cos(t) |i> + sin(t) u |j> and
    v- = sin(t) |i> - cos(t) u |j> with eigenvalues mean +- r, columns 2 and
    3 the two other basis states, ascending, with eigenvalue 0. The
    arithmetic of each entry is the closed form's, written into full frames."""
    i, j = block
    a, d, b = m[..., i, i].real, m[..., j, j].real, m[..., i, j]
    half = 0.5 * (a - d)
    mod_b = np.abs(b)
    mean, r = 0.5 * (a + d), np.hypot(half, mod_b)
    evals = np.zeros(a.shape + (4,))
    evals[..., 0] = mean + r
    evals[..., 1] = mean - r
    (cos2, u_re), (sin2, u_im) = _direction(np.stack([half, b.real]), np.stack([mod_b, -b.imag]))
    larger = np.sqrt(0.5 * (1.0 + np.abs(cos2)))
    smaller = sin2 / (2.0 * larger)
    cos = np.where(cos2 >= 0.0, larger, smaller)
    sin = np.where(cos2 >= 0.0, smaller, larger)
    u = u_re + 1j * u_im
    evecs = np.zeros(a.shape + (4, 4), dtype=complex)
    evecs[..., i, 0] = cos
    evecs[..., j, 0] = sin * u
    evecs[..., i, 1] = sin
    evecs[..., j, 1] = -cos * u
    for col, k in enumerate(sorted({0, 1, 2, 3} - {i, j}), start=2):
        evecs[..., k, col] = 1.0
    return evals, evecs


# sigma_y (x) sigma_y expressed in the module basis order.
SIGMA_YY = np.array(
    [
        [0, -1, 0, 0],
        [-1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)


def concurrence_sigma_yy_matmul(frames: Frames) -> np.ndarray:
    """max{0, l1 - l2 - l3 - l4} from the singular values of
    sqrt(rho) (sy x sy) conj(sqrt(rho)) on 4x4 frames, the spin flip as a
    matrix product, over the whole stack at once."""
    vals, vecs = frames.values, frames.vectors
    vals = np.where(vals < EIGENVALUE_CLAMP, np.maximum(vals, 0.0), vals)
    sqrt_rho = (vecs * np.sqrt(vals)[..., None, :]) @ np.conj(np.swapaxes(vecs, -1, -2))
    lam = np.linalg.svd(sqrt_rho @ SIGMA_YY @ sqrt_rho.conj(), compute_uv=False)
    return np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])


def whole_path_phasors(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """z[m, k] = sqrt(w_k(0) eps_k(t_m)) <eps_k(0)|eps_k(t_m)> conj(L_k(m)),
    L_k(m) the product of the unit links up to t_m, with w_k(0) = eps_k(0)
    above SUPPORT_TOL and 0 otherwise; each array spans the whole path."""
    w0 = values[0]
    weights = np.sqrt(np.where(w0 > SUPPORT_TOL, w0, 0.0)[None, :] * np.clip(values, 0.0, None))
    endpoint = np.einsum("ak,mak->mk", vectors[0].conj(), vectors)
    links = np.einsum("mak,mak->mk", vectors[:-1].conj(), vectors[1:])
    mods = np.abs(links)
    unit = np.where(mods > 0.0, links / np.where(mods > 0.0, mods, 1.0), 1.0)
    cum = np.empty_like(endpoint)
    cum[0] = 1.0
    np.cumprod(unit, axis=0, out=cum[1:])
    return weights * endpoint * cum.conj()


def numpy_unwrapped_span(ang: np.ndarray, dd: np.ndarray) -> float:
    """np.unwrap(ang)[-1] - np.unwrap(ang)[0]; dd, np.diff(ang), is not used."""
    tracked = np.unwrap(ang)
    return float(tracked[-1] - tracked[0])


def emit_rowwise(table: Table, fmt: str) -> str:
    """The table written one `csv.writer` row at a time, strings as they are;
    a string column repeats on every row."""
    n = len(table)
    columns = [[c] * n if isinstance(c, str) else list(c) for c in table.columns.values()]
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter="," if fmt == "csv" else "\t", lineterminator="\n")
    writer.writerow(table.columns)
    for row in zip(*columns):
        writer.writerow([v if isinstance(v, str) else _fmt(v) for v in row])
    return buf.getvalue()


def converge_phase_h2(build_path, n_start: int = 2048, phase_tol: float = PHASE_TOL) -> PhaseResult:
    """Double the grid, at most 10 times. From the third level on, accept
    R_k = P_k + d_k / 3 when d_{k-1} / d_k lies in [3.5, 4.5], the finest path
    is not blocked and |R_k - R_{k-1}| < phase_tol;
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
            and not blocked(cur)
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


def converge_phase_levels(
    build_path, n_start: int, phase_tol: float = PHASE_TOL, pre_levels: int | None = None
) -> PhaseResult:
    """Build the levels n_start, 2 n_start, ... one build_path call each and
    accept as `converge_phase` does, within its MAX_STEPS.

    A blocked finest level is judged on the two finest levels alone. When
    the first two levels are not settled and the second is not blocked, the
    pre-levels n_start / 2, n_start / 4, ... (at most pre_levels of them,
    ROMBERG_DEPTH - 1 by default) are built and judged one at a time, down
    to an odd step count, a blocked level or one that raises
    ConvergenceError, which is left out. pre_levels=0 is the two-level
    rule: no pre-level.
    """
    if pre_levels is None:
        pre_levels = geomphase.ROMBERG_DEPTH - 1
    n = n_start
    pre = []
    levels = [kinematic_phase(build_path(n)).unwrapped]
    while 2 * n <= geomphase.MAX_STEPS:
        n *= 2
        cur = kinematic_phase(build_path(n))
        levels.append(cur.unwrapped)
        accepted = romberg_acceptance(levels[-2:] if blocked(cur) else pre + levels, phase_tol)
        m = n_start
        first = n == 2 * n_start and not blocked(cur)
        while accepted is None and first and len(pre) < pre_levels and m % 2 == 0:
            m //= 2
            try:
                coarser = kinematic_phase(build_path(m))
            except ConvergenceError:
                break
            if blocked(coarser):
                break
            pre.insert(0, coarser.unwrapped)
            accepted = romberg_acceptance(pre + levels, phase_tol)
        if accepted is not None:
            _, value, error = accepted
            return replace(
                cur,
                unwrapped=value,
                principal=math.remainder(cur.principal + (value - cur.unwrapped), 2.0 * math.pi),
                error_estimate=error,
            )
    raise ConvergenceError(f"phase did not converge to {phase_tol:g} at {n} steps")


def even_point_path(path: EigenPath) -> EigenPath:
    """The path on every second grid point of `path`, from contiguous copies
    of its times, frames and columns, as a decomposition's own arrays, with
    no flags."""
    if path.n_steps % 2:
        raise ValueError("even points need an even number of steps")
    values, vectors, block = path.frames
    frames = Frames(np.ascontiguousarray(values[::2]), np.ascontiguousarray(vectors[::2]), block)
    return EigenPath(np.ascontiguousarray(path.times[::2]), frames, np.ascontiguousarray(path.columns[::2]), ())
