"""Reduced qubit-pair density matrices: the exact coherent-overlap path, the
truncated-Fock partial trace that checks it, analytic forms, and
eigen-decomposition with branch continuity along a time path."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .model import ModelParams, branch_frequency
from .dynamics import CoherentBranches, JointState, validate_joint

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10
DEGENERACY_TOL = 1e-9
SUPPORT_TOL = 1e-12
# Cells of the (time, branch, Fock) arrays that oracle_rho_path holds per
# chunk; each of its three complex temporaries then stays near 4 MB.
RHO_CHUNK_CELLS = 2**18


class Scenario(str, Enum):
    MICRO_MICRO = "micro_micro"
    MACRO_BOTH = "macro_both"
    MACRO_SINGLE = "macro_single"


# Index pair of the occupied 2x2 block in the (|00>,|11>,|01>,|10>) basis.
BLOCK_INDEX = {
    Scenario.MICRO_MICRO: (0, 1),
    Scenario.MACRO_BOTH: (0, 1),
    Scenario.MACRO_SINGLE: (0, 2),
}


def decay_phase(
    scenario: Scenario, p: ModelParams, t: np.ndarray, variant: str = "corrected"
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form phase Lambda(t) and decay Gamma(t) of the off-diagonal
    element of a scenario at the times t.

    For MACRO_SINGLE two variants exist: "corrected" is the one derived from
    the branch spectrum (detuning omega - 2J, coupling-frequency factors) and
    matches the numerical evolution; "verbatim" keeps the published printed
    form (detuning omega - 4J, doubled-frequency factors) for comparison.
    For the other scenarios both variant names give the same values.
    """
    if variant not in ("corrected", "verbatim"):
        raise ValueError(f"unknown variant {variant!r}")
    a2 = abs(p.alpha) ** 2
    w, lam = p.omega, p.lambda_c
    if scenario == Scenario.MICRO_MICRO:
        return 2 * w * t + a2 * np.sin(2 * lam * t), 2 * a2 * np.sin(lam * t) ** 2
    if scenario == Scenario.MACRO_BOTH:
        return 2 * w * t - a2 * np.sin(2 * lam * t), 2 * a2 * np.cos(lam * t) ** 2
    if scenario == Scenario.MACRO_SINGLE:
        if variant == "corrected":
            detuning = w - 2.0 * p.j_vdw
            return detuning * t - a2 * np.sin(lam * t), 2 * a2 * np.cos(lam * t / 2) ** 2
        detuning = w - 4.0 * p.j_vdw
        return detuning * t - a2 * np.sin(2 * lam * t), 2 * a2 * np.cos(lam * t) ** 2
    raise ValueError(f"unknown scenario {scenario!r}")


# Flat indices of the entries (i, j) and (j, i), i < j, of a 4x4 matrix.
_UPPER = np.array([1, 2, 3, 6, 7, 11])
_LOWER = np.array([4, 8, 12, 9, 13, 14])


def validate_density(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Check Hermiticity, unit trace and positivity of a 4x4 density matrix or
    of every matrix of a (..., 4, 4) stack; return the eigen-decomposition
    (values, vectors) that the positivity check computes.

    When every matrix is supported on the same two basis states or one, the
    decomposition is _block_frames' closed form; otherwise it is `eigh`'s,
    with ascending values.
    """
    evals, evecs, _ = _checked_frames(rho)
    return evals, evecs


def _checked_frames(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple[int, int] | None]:
    """validate_density's checks and decomposition, and the index pair of the
    block decomposed in closed form (None when `eigh` ran)."""
    m = np.asarray(rho, dtype=complex)
    if m.shape[-2:] != (4, 4):
        raise ValueError(f"density matrices must be 4x4, got shape {m.shape}")
    # The largest entry of |m - m^H| without forming it: |m_ij - conj(m_ji)|
    # over the six pairs i < j, and 2 |Im m_ii|.
    flat = m.reshape(-1, 16)
    pairs = np.take(flat, _UPPER, axis=1) - np.conj(np.take(flat, _LOWER, axis=1))
    herm = max(
        np.max(np.abs(pairs)),
        2.0 * np.max(np.abs(np.diagonal(m, axis1=-2, axis2=-1).imag)),
    )
    if not herm <= HERMITICITY_TOL:
        raise ValueError(f"density matrix not Hermitian: deviation {herm:g}")
    traces = np.trace(m, axis1=-2, axis2=-1).ravel()
    worst = complex(traces[np.argmax(np.abs(traces - 1.0))])
    if not abs(worst - 1.0) <= TRACE_TOL:
        raise ValueError(f"density matrix trace is {worst!r}, expected 1")
    # Basis states whose row or column holds a nonzero entry in some matrix.
    nonzero = flat.any(axis=0).reshape(4, 4)
    support = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
    if support.size == 1:  # a lone basis state is paired with an empty one
        support = np.union1d(support, [1 if support[0] == 0 else 0])
    block = (int(support[0]), int(support[1])) if support.size == 2 else None
    if block is None:
        evals, evecs = np.linalg.eigh(m)
    else:
        evals, evecs = _block_frames(m, block)
    if not evals.min() >= -POSITIVITY_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {evals.min():g}")
    return evals, evecs, block


def _direction(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) / hypot(x, y), and (1, 0) where x = y = 0. The division is
    done twice: the first brings subnormal inputs, whose hypot carries few
    digits, to the normal range, and the second gives a unit vector."""
    for _ in range(2):
        n = np.hypot(x, y)
        safe = np.where(n > 0.0, n, 1.0)
        x, y = np.where(n > 0.0, x / safe, 1.0), y / safe
    return x, y


def _block_frames(m: np.ndarray, block: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigen-decomposition of matrices whose entries outside the
    rows and columns of block = (i, j) are 0.

    The block [[a, b], [conj b, d]] has the eigenvalues mean +- r, with
    r = hypot((a - d)/2, |b|), and the eigenvectors
    v+ = cos(t) |i> + sin(t) u |j> and v- = sin(t) |i> - cos(t) u |j>, where
    (cos 2t, sin 2t) = ((a - d)/2, |b|) / r and u = conj(b) / |b|. Columns 0
    and 1 hold v+ and v-, columns 2 and 3 the two other basis states with
    eigenvalue 0. Only sqrt, hypot and division enter, so a matrix gives the
    same bits alone as in a stack.
    """
    i, j = block
    a, d, b = m[..., i, i].real, m[..., j, j].real, m[..., i, j]
    half = 0.5 * (a - d)
    mod_b = np.abs(b)
    cos2, sin2 = _direction(half, mod_b)
    # The larger of cos(t), sin(t) is sqrt((1 + |cos 2t|) / 2) >= sqrt(1/2); the
    # smaller, sin 2t / (2 larger), does not cancel the way sqrt((1 - |cos 2t|) / 2) does.
    larger = np.sqrt(0.5 * (1.0 + np.abs(cos2)))
    smaller = sin2 / (2.0 * larger)
    cos = np.where(cos2 >= 0.0, larger, smaller)
    sin = np.where(cos2 >= 0.0, smaller, larger)
    # From real divisions: numpy's complex division takes 1 / |b|, which
    # overflows for a subnormal b.
    u_re, u_im = _direction(b.real, -b.imag)
    u = u_re + 1j * u_im
    mean, r = 0.5 * (a + d), np.hypot(half, mod_b)
    evals = np.zeros(a.shape + (4,))
    evals[..., 0] = mean + r
    evals[..., 1] = mean - r
    evecs = np.zeros(a.shape + (4, 4), dtype=complex)
    evecs[..., i, 0] = cos
    evecs[..., j, 0] = sin * u
    evecs[..., i, 1] = sin
    evecs[..., j, 1] = -cos * u
    for col, k in enumerate(sorted({0, 1, 2, 3} - {i, j}), start=2):
        evecs[..., k, col] = 1.0
    return evals, evecs


def partial_trace(state: JointState) -> np.ndarray:
    """Trace out the mode: the 4x4 matrix rho[i, j] = c_i conj(c_j) <phi_j|phi_i>
    in (|00>,|11>,|01>,|10>) order."""
    validate_joint(state)
    gram = state.amps.conj() @ state.amps.T  # gram[j, i] = <phi_j|phi_i>
    c = state.coeffs
    return np.outer(c, c.conj()) * gram.T


def coherent_rho_path(state0: CoherentBranches, times: np.ndarray, p: ModelParams) -> np.ndarray:
    """Reduced density matrices at many times from Glauber's coherent-state
    overlap, exact and with no Fock basis.

    Branch k evolves as exp(-i theta_k(n) t) with theta_k(n) = E_k + mu_k n
    plus a Kerr term that all branches share, so up to that common factor it
    stays the coherent state b_k exp(-i mu_k t), b_k = state0.betas[k], and
    rho_ij(t) = c_i conj(c_j) exp(-i (E_i - E_j) t + G_ij(t)) with
    G_ij = -|b_i - b_j|^2 / 2 + i Im(b_i conj(b_j))
           - b_i conj(b_j) (2 sin^2(mu_ij t / 2) + i sin(mu_ij t)),
    mu_ij = mu_i - mu_j: the form of the log of Glauber's overlap that does
    not cancel when |b|^2 is large (R. J. Glauber, Phys. Rev. 131, 2766 (1963)).
    Only the block of occupied branches (c_k != 0) is evaluated; every
    other entry carries a zero weight and is written as 0.
    """
    t = np.asarray(times, dtype=float)[:, None, None]
    occ = np.flatnonzero(state0.coeffs)
    c, b = state0.coeffs[occ], state0.betas[occ]
    energy = np.array([branch_frequency(k, 0, p) for k in occ])
    slope = np.array([branch_frequency(k, 1, p) for k in occ]) - energy
    cross = np.outer(b, b.conj())  # b_i conj(b_j)
    g0 = -0.5 * np.abs(b[:, None] - b[None, :]) ** 2 + 1j * cross.imag
    mu = slope[:, None] - slope[None, :]
    de = energy[:, None] - energy[None, :]
    weight = np.outer(c, c.conj())
    g = g0 - cross * (2.0 * np.sin(0.5 * mu * t) ** 2 + 1j * np.sin(mu * t))
    rho = weight * np.exp(g - 1j * de * t)
    if occ.size == 4:
        return rho
    out = np.zeros((t.shape[0], 4, 4), dtype=complex)
    out[:, occ[:, None], occ] = rho
    return out


def oracle_rho_path(state0: JointState, times: np.ndarray, p: ModelParams) -> np.ndarray:
    """Reduced density matrices at many times on the truncated Fock basis,
    identical to evolving and partial-tracing point by point but computed in
    vectorized chunks of at most RHO_CHUNK_CELLS (time, branch, Fock) cells:
    the ground truth that checks coherent_rho_path."""
    validate_joint(state0)
    times = np.asarray(times, dtype=float)
    amps = state0.amps
    n = np.arange(state0.n_max + 1)
    # omega_b n + chi n(n-1) is shared by all branches and cancels in rho; left
    # out, its rounding at 1e5-1e6 rad (large |alpha|) cannot enter rho.
    shared_free = replace(p, omega_b=0.0, chi=0.0)
    thetas = np.stack([branch_frequency(b, n, shared_free) for b in range(4)])  # (4, D)
    c = state0.coeffs
    weight = np.outer(c, c.conj())
    chunk = max(1, RHO_CHUNK_CELLS // amps.size)
    out = np.empty((times.size, 4, 4), dtype=complex)
    for start in range(0, times.size, chunk):
        ts = times[start : start + chunk]
        phases = np.exp(-1j * ts[:, None, None] * thetas[None, :, :])
        evolved = amps[None, :, :] * phases
        gram = np.einsum("mjn,min->mij", evolved.conj(), evolved)
        out[start : start + ts.size] = weight[None, :, :] * gram
    return out


def analytic_rho_path(
    scenario: Scenario,
    eta0: float,
    p: ModelParams,
    times: np.ndarray,
    variant: str = "corrected",
) -> np.ndarray:
    """Closed-form reduced density matrices, vectorized over times: the
    occupied block [[cos^2 eta0, off], [conj(off), sin^2 eta0]] with
    off = sin(2 eta0)/2 * exp(i Lambda - Gamma), at the scenario's index pair."""
    t = np.asarray(times, dtype=float)
    lam, gam = decay_phase(scenario, p, t, variant)
    off = 0.5 * math.sin(2 * eta0) * np.exp(1j * lam - gam)
    i0, i1 = BLOCK_INDEX[scenario]
    out = np.zeros(t.shape + (4, 4), dtype=complex)
    out[..., i0, i0] = math.cos(eta0) ** 2
    out[..., i1, i1] = math.sin(eta0) ** 2
    out[..., i0, i1] = off
    out[..., i1, i0] = np.conj(off)
    return out


# ---------------------------------------------------------------------------
# Eigen-decomposition along a path with branch continuity.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenPath:
    """Continuity-ordered eigenvalue/eigenvector branches along a time grid.

    values[m, k] and vectors[m, :, k] describe branch k at times[m]. Branches
    are ordered by descending eigenvalue at the first time and then followed
    by maximal-overlap matching, or on a closed-form block stay the larger
    and the smaller block eigenvalue; spectator branches whose eigenvalue never
    exceeds the support cutoff are dropped. flags carries warnings about
    near-degenerate stretches where the matching is ill-conditioned. frames
    holds validate_density's decomposition (values, vectors) at every grid
    point, and block the index pair it decomposed in closed form (None when
    `eigh` ran); a refinement of the path reuses both.
    """

    times: np.ndarray
    values: np.ndarray
    vectors: np.ndarray
    flags: tuple[str, ...] = ()
    frames: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)
    block: tuple[int, int] | None = field(default=None, repr=False, compare=False)

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @property
    def n_branches(self) -> int:
        return self.values.shape[1]


_PERMS = np.array(list(itertools.permutations(range(4))))  # _PERMS[0] is the identity
# A step whose diagonal squared overlaps all exceed 1/2 + MATCH_MARGIN keeps
# the identity without scoring the permutations; see _step_permutations.
MATCH_MARGIN = 1e-6


def _interleave(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    out = np.empty((even.shape[0] + odd.shape[0],) + even.shape[1:], dtype=even.dtype)
    out[0::2] = even
    out[1::2] = odd
    return out


def _step_permutations(evecs: np.ndarray) -> np.ndarray:
    """Index into _PERMS of the column permutation that maximizes the summed
    squared overlaps between the eigenframes evecs[m] and evecs[m + 1].

    Only steps where some diagonal squared overlap is at most
    1/2 + MATCH_MARGIN are scored; every other step gets the identity, which
    is what the scoring would pick. The squared overlaps of two orthonormal
    frames form a doubly stochastic matrix. If every diagonal entry exceeds
    1/2 + d, each off-diagonal entry is below 1/2 - d, so a permutation that
    moves columns f and g loses more than 2d on each of them: the identity
    beats every other permutation by more than 4d, far above the rounding of
    a four-term sum.
    """
    a, b = evecs[:-1], evecs[1:]
    diag = np.abs(np.einsum("maf,maf->mf", a.conj(), b)) ** 2
    best = np.zeros(diag.shape[0], dtype=int)
    steps = np.flatnonzero((diag <= 0.5 + MATCH_MARGIN).any(axis=1))
    if steps.size:
        ov2 = np.abs(np.einsum("maf,mag->mfg", a[steps].conj(), b[steps])) ** 2
        rows = np.broadcast_to(np.arange(4), _PERMS.shape)
        best[steps] = np.argmax(ov2[:, rows, _PERMS].sum(axis=2), axis=1)
    return best


def _matched_branches(evals: np.ndarray, evecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalue and eigenvector columns of every frame reordered so that
    column k follows one branch: descending at the first frame, then
    composed along the path from the best permutation of every step."""
    best = _step_permutations(evecs)
    # Descending sort keys of the first frame's columns; equal keys put the
    # higher column first.
    tied = evals[0] < SUPPORT_TOL
    key = np.where(tied, evals[1, _PERMS[best[0]]], evals[0])
    order0 = np.lexsort((-np.arange(4), -key, tied))

    # The order changes only after steps whose best permutation is not the
    # identity; in between it is constant.
    col = np.empty(evals.shape, dtype=int)
    current, start = order0, 0
    for m in np.flatnonzero(best) + 1:
        col[start:m] = current
        current = _PERMS[best[m - 1]][current]
        start = m
    col[start:] = current
    return np.take_along_axis(evals, col, axis=1), np.take_along_axis(evecs, col[:, None, :], axis=2)


def eigen_path(
    times: np.ndarray,
    rhos: np.ndarray,
    degeneracy_tol: float = DEGENERACY_TOL,
    coarse: EigenPath | None = None,
) -> EigenPath:
    """Spectrally decompose a time-ordered family of 4x4 density matrices.

    Validates Hermiticity, unit trace and positivity of every matrix, then
    assigns eigenvector columns across neighboring times by the permutation
    that maximizes the summed squared overlaps (_step_permutations).
    Near-degenerate eigenvalue pairs among retained branches are flagged,
    not fatal.

    When every matrix is supported on the same two basis states (or one),
    validate_density decomposes the block in closed form and no matching
    runs: the branches are the larger and the smaller block eigenvalue,
    whose gap 2 hypot((a - d)/2, |b|) is positive unless the block is a
    multiple of the identity, so they never cross.

    Branches are ordered by descending eigenvalue at the first time.
    Eigenvalues below SUPPORT_TOL there count as tied, and their branches
    are ordered by their matched eigenvalue one grid step later, so that the
    order of a pure initial state's null branches does not rest on rounding.

    With `coarse`, `times` and `rhos` are the midpoints of coarse's grid
    steps: only they are validated and decomposed, coarse's frames fill the
    even points, and matching and flags run over the merged grid, so the
    result equals a decomposition of the merged grid from scratch.
    """
    times = np.asarray(times, dtype=float)
    rhos = np.asarray(rhos, dtype=complex)
    if coarse is None:
        if times.ndim != 1 or times.size < 2:
            raise ValueError("need at least two time points")
    elif coarse.frames is None or times.shape != (coarse.n_steps,):
        raise ValueError("refinement needs one midpoint per step of a path that keeps its frames")
    if rhos.shape != (times.size, 4, 4):
        raise ValueError(f"expected shape {(times.size, 4, 4)}, got {rhos.shape}")
    evals, evecs, block = _checked_frames(rhos)
    if coarse is not None:
        times = _interleave(coarse.times, times)
        evals = _interleave(coarse.frames[0], evals)
        evecs = _interleave(coarse.frames[1], evecs)
        if coarse.block != block:
            block = None

    m_total = times.size
    if block is None:
        vals, vecs = _matched_branches(evals, evecs)
    else:
        vals, vecs = evals, evecs
    keep = np.flatnonzero(vals.max(axis=0) > SUPPORT_TOL)
    if keep.size == 0:
        raise ValueError("no branch carries weight above the support cutoff")
    vals, vecs = vals[:, keep], vecs[:, :, keep]

    flags: list[str] = []
    if vals.shape[1] >= 2:
        gaps = np.full(m_total, np.inf)
        for i, j in itertools.combinations(range(vals.shape[1]), 2):
            gaps = np.minimum(gaps, np.abs(vals[:, i] - vals[:, j]))
        close = gaps < degeneracy_tol
        if np.any(close):
            idx = np.flatnonzero(close)
            flags.append(
                "branch-ambiguity: eigenvalue gap below "
                f"{degeneracy_tol:g} on {idx.size} of {m_total} grid points, "
                f"t in [{times[idx[0]]:.6g}, {times[idx[-1]]:.6g}]"
            )
    return EigenPath(times, vals, vecs, tuple(flags), frames=(evals, evecs), block=block)
