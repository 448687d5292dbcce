"""Reduced qubit-pair density matrices: the exact coherent-overlap path, the
truncated-Fock partial trace that checks it, analytic forms, and
eigen-decomposition with branch continuity along a time path."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterator, NamedTuple

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
# Grid points per chunk of the kernels that run along a whole path
# (coherent_rho_path, the phase sums, the SVD concurrence): their
# temporaries stay near 2**11 points, whatever the grid.
PATH_CHUNK_POINTS = 2**11


def point_chunks(n_points: int) -> list[slice]:
    """Consecutive slices of range(n_points), PATH_CHUNK_POINTS points each
    but the first, which holds one more: a grid of 2 PATH_CHUNK_POINTS steps
    has that many points plus one, and runs in one chunk."""
    stops = range(PATH_CHUNK_POINTS + 1, n_points, PATH_CHUNK_POINTS)
    return [slice(a, b) for a, b in zip([0, *stops], [*stops, n_points])]


def gather_columns(part: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """part[m, ..., columns[m, k]] at every m and k: frame values (M, n) or
    vectors (M, r, n) reordered into branch columns. Columns that are the
    same at every point take one index for all points: those of a block
    path, one row broadcast along the grid (stride 0), and most stretches
    of a matched path."""
    if not columns.strides[0] or (columns == columns[0]).all():
        return part[..., columns[0]]
    index = columns.reshape(columns.shape[:1] + (1,) * (part.ndim - 2) + columns.shape[1:])
    return np.take_along_axis(part, index, axis=-1)


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


# Flat indices of the entries (i, j) and (j, i), i < j, and (i, i) of a 4x4 matrix.
_UPPER = np.array([1, 2, 3, 6, 7, 11])
_LOWER = np.array([4, 8, 12, 9, 13, 14])
_DIAGONAL = np.array([0, 5, 10, 15])


class Frames(NamedTuple):
    """An eigen-decomposition of a 4x4 density matrix or of every matrix of
    a (..., 4, 4) stack: values[..., k] and vectors[..., :, k] are its
    eigenpairs. block is None when they span the whole basis: values
    (..., 4) and vectors (..., 4, 4), as `eigh` gives them. Otherwise block
    is the index pair (i, j) of the two-state support that _block_frames
    decomposed in closed form, and the frames hold that block only: values
    (..., 2) and vectors (..., 2, 2), whose rows are the states i and j. The
    two other basis states are eigenvectors of eigenvalue 0 and are not
    stored; embed_frames adds them."""

    values: np.ndarray
    vectors: np.ndarray
    block: tuple[int, int] | None


class BlockEntries(NamedTuple):
    """A density path on one two-state block (i, j), i < j, as its entries:
    the populations a = rho_ii and d = rho_jj, the same at every time, and
    the coherences b = rho_ij, one per time. Every other entry is 0."""

    a: float
    d: float
    b: np.ndarray
    block: tuple[int, int]


def validate_density(rho: np.ndarray) -> Frames:
    """Check Hermiticity, unit trace and positivity of a 4x4 density matrix or
    of every matrix of a (..., 4, 4) stack; return the Frames that the
    positivity check computes.

    When every matrix is supported on the same two basis states or one, the
    decomposition is _block_frames' closed form, over the block's two
    states; otherwise it is `eigh`'s, with ascending values. A path of a
    state that occupies at most two basis states can skip the stack:
    coherent_block_path gives its block's entries and validate_block checks
    them, with the same Frames.
    """
    m = np.asarray(rho, dtype=complex)
    if m.shape[-2:] != (4, 4):
        raise ValueError(f"density matrices must be 4x4, got shape {m.shape}")
    flat = m.reshape(-1, 16)
    # Basis states whose row or column holds a nonzero entry in some matrix.
    nonzero = flat.any(axis=0).reshape(4, 4)
    support = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
    if support.size == 1:  # a lone basis state is paired with an empty one
        support = np.union1d(support, [1 if support[0] == 0 else 0])
    block = (int(support[0]), int(support[1])) if support.size == 2 else None
    # The largest entry of |m - m^H| without forming it: |m_ij - conj(m_ji)|
    # over the pairs i < j, and 2 |Im m_ii|. On a block every other entry is
    # an exact 0, so its entries alone give the same maxima and traces.
    if block is None:
        upper, lower, diagonal = _UPPER, _LOWER, _DIAGONAL
    else:
        i, j = block
        upper, lower, diagonal = [4 * i + j], [4 * j + i], [5 * i, 5 * j]
    pairs = np.take(flat, upper, axis=1) - np.conj(np.take(flat, lower, axis=1))
    diag = np.take(flat, diagonal, axis=1)
    herm = max(np.max(np.abs(pairs)), 2.0 * np.max(np.abs(diag.imag)))
    if not herm <= HERMITICITY_TOL:
        raise ValueError(f"density matrix not Hermitian: deviation {herm:g}")
    traces = diag.sum(axis=1) if block is None else diag[:, 0] + diag[:, 1]
    _check_trace(complex(traces[np.argmax(np.abs(traces - 1.0))]))
    if block is None:
        return _check_positive(Frames(*np.linalg.eigh(m), None))
    i, j = block
    evals, evecs = _block_frames(m[..., i, i].real, m[..., j, j].real, m[..., i, j])
    return _check_positive(Frames(evals, evecs, block))


def validate_block(entries: BlockEntries) -> Frames:
    """validate_density for a path given as its block's entries
    (coherent_block_path): the Frames of the matrices that the entries stand
    for, from _block_frames, with no (M, 4, 4) stack. Only the checks that
    can fail on such entries run: finite coherences, unit trace of the
    populations and positivity of the block eigenvalues. The matrices are
    Hermitian by construction."""
    a, d, b, block = entries
    if not np.isfinite(b).all():
        raise ValueError("density matrix has a non-finite coherence")
    _check_trace(complex(a + d))
    return _check_positive(Frames(*_block_frames(a, d, b), block))


def _check_trace(trace: complex) -> None:
    if not abs(trace - 1.0) <= TRACE_TOL:
        raise ValueError(f"density matrix trace is {trace!r}, expected 1")


def _check_positive(frames: Frames) -> Frames:
    if not frames.values.min() >= -POSITIVITY_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {frames.values.min():g}")
    return frames


def _direction(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) / hypot(x, y), and (1, 0) where x = y = 0. The division is
    done twice: the first brings subnormal inputs, whose hypot carries few
    digits, to the normal range, and the second gives a unit vector."""
    for _ in range(2):
        n = np.hypot(x, y)
        nonzero = n > 0.0
        safe = np.where(nonzero, n, 1.0)
        x, y = np.where(nonzero, x / safe, 1.0), y / safe
    return x, y


def _block_frames(a, d, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigen-decomposition of the 2x2 blocks [[a, b], [conj b, d]]:
    a and d real, b complex, a and d broadcasting against b. validate_density
    passes the entries of its matrices; validate_block the constant
    populations and the coherences of a coherent_block_path.

    The block has the eigenvalues mean +- r, with
    r = hypot((a - d)/2, |b|), and the eigenvectors
    v+ = cos(t) |i> + sin(t) u |j> and v- = sin(t) |i> - cos(t) u |j>, where
    (cos 2t, sin 2t) = ((a - d)/2, |b|) / r and u = conj(b) / |b|. values
    (..., 2) hold mean + r and mean - r, and the columns of vectors
    (..., 2, 2) hold v+ and v- as their |i> and |j> components. Only sqrt,
    hypot and division enter, so a matrix gives the same bits alone as in a
    stack, and constant populations the same bits as their repeated values.
    """
    half = 0.5 * (a - d)
    mod_b = np.abs(b)
    mean, r = 0.5 * (a + d), np.hypot(half, mod_b)
    evals = np.empty(r.shape + (2,))
    np.add(mean, r, out=evals[..., 0])
    np.subtract(mean, r, out=evals[..., 1])
    # (cos 2t, sin 2t), and u from real divisions: numpy's complex division
    # takes 1 / |b|, which overflows for a subnormal b.
    x, y = np.empty((2, 2) + b.shape)
    x[0], x[1], y[0], y[1] = half, b.real, mod_b, -b.imag
    (cos2, u_re), (sin2, u_im) = _direction(x, y)
    # The larger of cos(t), sin(t) is sqrt((1 + |cos 2t|) / 2) >= sqrt(1/2); the
    # smaller, sin 2t / (2 larger), does not cancel the way sqrt((1 - |cos 2t|) / 2) does.
    larger = np.sqrt(0.5 * (1.0 + np.abs(cos2)))
    smaller = sin2 / (2.0 * larger)
    cos_larger = cos2 >= 0.0
    cos = np.where(cos_larger, larger, smaller)
    sin = np.where(cos_larger, smaller, larger)
    u = u_re + 1j * u_im
    evecs = np.empty(b.shape + (2, 2), dtype=complex)
    evecs[..., 0, 0] = cos
    evecs[..., 1, 0] = sin * u
    evecs[..., 0, 1] = sin
    evecs[..., 1, 1] = -cos * u
    return evals, evecs


def embed_frames(frames: Frames) -> Frames:
    """frames over the whole 4-state basis, with block None: a block's
    values (..., 2) and vectors (..., 2, 2) become values (..., 4) and
    vectors (..., 4, 4), whose columns 0 and 1 are the block's eigenpairs
    and columns 2 and 3 the two other basis states, in ascending order, with
    eigenvalue 0. Frames whose block is None are returned as they are."""
    if frames.block is None:
        return frames
    values, vectors, (i, j) = frames
    full_values = np.zeros(values.shape[:-1] + (4,))
    full_values[..., :2] = values
    full_vectors = np.zeros(values.shape[:-1] + (4, 4), dtype=complex)
    full_vectors[..., [i, j], :2] = vectors
    for col, k in enumerate(sorted({0, 1, 2, 3} - {i, j}), start=2):
        full_vectors[..., k, col] = 1.0
    return Frames(full_values, full_vectors, None)


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
    Only the occupied branches (c_k != 0) enter, in chunks of
    PATH_CHUNK_POINTS times (_coherences): each strictly lower occupied pair
    i > j is evaluated once, the upper entry is its exact conjugate, the
    diagonal is |c_i|^2 = Re(c_i conj(c_i)), and every other entry carries a
    zero weight and is written as 0. The matrices are Hermitian to the last
    bit, and `eigh`, which reads the lower triangle, sees the full formula's
    bits below the diagonal.

    cli.density_path takes this route for a state that occupies three or
    four basis states. For one that occupies at most two it takes
    coherent_block_path, which gives the same entries of its block with no
    (M, 4, 4) stack.
    """
    times = np.asarray(times, dtype=float)
    occ = np.flatnonzero(state0.coeffs)
    out = np.zeros((times.size, 4, 4), dtype=complex)
    out[:, occ, occ] = _populations(state0)[occ]
    lower = [(i, j) for i in occ for j in occ if j < i]
    if lower:
        rows, cols = np.array(lower).T
        for chunk, rho in _coherences(state0, times, p, rows, cols):
            out[chunk, rows, cols] = rho
            out[chunk, cols, rows] = rho.conj()
    return out


def coherent_block_path(state0: CoherentBranches, times: np.ndarray, p: ModelParams) -> BlockEntries:
    """coherent_rho_path of a state that occupies at most two basis states, as
    the entries of its 2x2 block: the same bits with no (M, 4, 4) stack, for
    validate_block and eigen_path.

    The block is the pair of basis states whose rows or columns hold a
    nonzero entry at some time, a lone one paired with an empty one, as
    validate_density finds it on the stack.
    """
    times = np.asarray(times, dtype=float)
    occ = np.flatnonzero(state0.coeffs)
    if occ.size > 2:
        raise ValueError(f"a block path needs at most two occupied basis states, got {occ.size}")
    pops = _populations(state0)
    b = np.zeros(times.size, dtype=complex)
    if occ.size == 2:
        for chunk, rho in _coherences(state0, times, p, occ[1:], occ[:1]):
            b[chunk] = rho[:, 0].conj()
    live = [int(k) for k in occ if pops[k] or b.any()]
    i, j = sorted([*live, *(k for k in (0, 1) if k not in live)][:2])
    return BlockEntries(float(pops[i]), float(pops[j]), b, (i, j))


def _populations(state0: CoherentBranches) -> np.ndarray:
    """The diagonal of every reduced density matrix, |c_k|^2 = Re(c_k conj(c_k))."""
    return (state0.coeffs * state0.coeffs.conj()).real


def _coherences(
    state0: CoherentBranches, times: np.ndarray, p: ModelParams, rows: np.ndarray, cols: np.ndarray
) -> Iterator[tuple[slice, np.ndarray]]:
    """coherent_rho_path's entries rho_ij(t) at (i, j) = (rows[k], cols[k]),
    one point_chunks chunk of times at a time: yields the chunk's slice and
    its (chunk size, number of pairs) array."""
    c, b = state0.coeffs, state0.betas
    theta = branch_frequency(np.arange(4)[:, None], np.arange(2), p)
    energy, slope = theta[:, 0], theta[:, 1] - theta[:, 0]
    cross = b[rows] * b[cols].conj()  # b_i conj(b_j)
    g0 = -0.5 * np.abs(b[rows] - b[cols]) ** 2 + 1j * cross.imag
    mu = slope[rows] - slope[cols]
    de = energy[rows] - energy[cols]
    weight = c[rows] * c[cols].conj()
    for chunk in point_chunks(times.size):
        t = times[chunk, None]
        g = g0 - cross * (2.0 * np.sin(0.5 * mu * t) ** 2 + 1j * np.sin(mu * t))
        yield chunk, weight * np.exp(g - 1j * de * t)


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
    thetas = branch_frequency(np.arange(4)[:, None], n, shared_free)  # (4, D)
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

@dataclass(frozen=True, eq=False)
class EigenPath:
    """Continuity-ordered eigenvalue/eigenvector branches along a time grid.

    frames holds validate_density's Frames at every grid point, once, and
    branch k takes frame column columns[m, k] at times[m]: values[m, k] and
    vectors[m, :, k], gathered from the frames on access, describe it there.
    On a closed-form block the frames hold the block only, 80 bytes per grid
    point instead of a 4x4 frame's 288, and vectors embeds the gathered
    columns into the 4-state basis (embed_frames).
    Branches are ordered by descending eigenvalue at the first time and then
    followed by maximal-overlap matching, or on a closed-form block stay the
    larger and the smaller block eigenvalue; spectator branches whose
    eigenvalue never exceeds the support cutoff have no column. flags carries
    warnings about near-degenerate stretches where the matching is
    ill-conditioned. A refinement of the path reuses its frames, and
    even_point_path derives the path on every second grid point from them.
    Paths compare by identity.
    """

    times: np.ndarray
    frames: Frames = field(repr=False)
    columns: np.ndarray = field(repr=False)
    flags: tuple[str, ...]

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @property
    def n_branches(self) -> int:
        return self.columns.shape[1]

    @property
    def values(self) -> np.ndarray:
        return gather_columns(self.frames.values, self.columns)

    @property
    def vectors(self) -> np.ndarray:
        return gather_columns(embed_frames(self.frames).vectors, self.columns)


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
    diag = np.empty((a.shape[0], 4))
    for chunk in point_chunks(diag.shape[0]):
        diag[chunk] = np.abs(np.einsum("maf,maf->mf", a[chunk].conj(), b[chunk])) ** 2
    best = np.zeros(diag.shape[0], dtype=int)
    steps = np.flatnonzero((diag <= 0.5 + MATCH_MARGIN).any(axis=1))
    if steps.size:
        ov2 = np.abs(np.einsum("maf,mag->mfg", a[steps].conj(), b[steps])) ** 2
        rows = np.broadcast_to(np.arange(4), _PERMS.shape)
        best[steps] = np.argmax(ov2[:, rows, _PERMS].sum(axis=2), axis=1)
    return best


def _matched_columns(evals: np.ndarray, evecs: np.ndarray) -> np.ndarray:
    """The frame column of every branch at every grid point, col[m, k]:
    branches descend at the first frame and then follow the best
    permutation of every step."""
    best = _step_permutations(evecs)
    # Descending sort keys of the first frame's columns; equal keys put the
    # higher column first.
    tied = evals[0] < SUPPORT_TOL
    key = np.where(tied, evals[1, _PERMS[best[0]]], evals[0])
    order0 = np.lexsort((-np.arange(4), -key, tied))

    # The order changes only after steps whose best permutation is not the
    # identity; in between it is constant.
    col = np.empty(evals.shape, dtype=np.int8)
    current, start = order0, 0
    for m in np.flatnonzero(best) + 1:
        col[start:m] = current
        current = _PERMS[best[m - 1]][current]
        start = m
    col[start:] = current
    return col


def eigen_path(
    times: np.ndarray,
    rhos: np.ndarray | BlockEntries,
    degeneracy_tol: float = DEGENERACY_TOL,
    coarse: EigenPath | None = None,
) -> EigenPath:
    """Spectrally decompose a time-ordered family of 4x4 density matrices.

    Validates Hermiticity, unit trace and positivity of every matrix, then
    assigns eigenvector columns across neighboring times by the permutation
    that maximizes the summed squared overlaps (_step_permutations).
    Near-degenerate eigenvalue pairs among retained branches are flagged,
    not fatal.

    rhos is an (M, 4, 4) stack, which validate_density checks, or, for a
    state that occupies at most two basis states, its block's entries from
    coherent_block_path, which validate_block checks with no stack; both
    give the same Frames. When every matrix is supported on the same two
    basis states (or one), the block is decomposed in closed form and no
    matching runs: the branches are the larger and the smaller block
    eigenvalue, whose gap 2 hypot((a - d)/2, |b|) is positive unless the
    block is a multiple of the identity, so they never cross.

    Branches are ordered by descending eigenvalue at the first time.
    Eigenvalues below SUPPORT_TOL there count as tied, and their branches
    are ordered by their matched eigenvalue one grid step later, so that the
    order of a pure initial state's null branches does not rest on rounding.

    With `coarse`, `times` and `rhos` are the midpoints of coarse's grid
    steps: only they are validated and decomposed, coarse's frames fill the
    even points, and matching and flags run over the merged grid, so the
    result equals a decomposition of the merged grid from scratch. Levels
    on different supports (a block and `eigh`'s frames, or two blocks) are
    embedded into the 4-state basis first (embed_frames), and the merged
    frames have block None. The converse, the path on the even points of a
    decomposed grid, is even_point_path's.
    """
    times = np.asarray(times, dtype=float)
    if coarse is None:
        if times.ndim != 1 or times.size < 2:
            raise ValueError("need at least two time points")
    elif times.shape != (coarse.n_steps,):
        raise ValueError("refinement needs one midpoint per step of the coarse path")
    if isinstance(rhos, BlockEntries):
        if rhos.b.shape != times.shape:
            raise ValueError(f"expected {times.size} coherences, got shape {rhos.b.shape}")
        frames = validate_block(rhos)
    else:
        rhos = np.asarray(rhos, dtype=complex)
        if rhos.shape != (times.size, 4, 4):
            raise ValueError(f"expected shape {(times.size, 4, 4)}, got {rhos.shape}")
        frames = validate_density(rhos)
    if coarse is not None:
        times = _interleave(coarse.times, times)
        even = coarse.frames
        if even.block != frames.block:  # a block level meets eigh's or another block's
            even, frames = embed_frames(even), embed_frames(frames)
        frames = Frames(
            _interleave(even.values, frames.values),
            _interleave(even.vectors, frames.vectors),
            frames.block,
        )
    return _branch_path(times, frames, degeneracy_tol)


def even_point_path(path: EigenPath) -> EigenPath:
    """The path on every second grid point of `path`, from its frames: no
    density matrix is validated or decomposed again.

    Matching, support cut and flags run over the even points, so the result
    equals eigen_path on those points from scratch, flags at DEGENERACY_TOL,
    whenever they span the basis states that the whole grid spans, as on
    every path whose support stays the same along the grid.
    """
    if path.n_steps % 2:
        raise ValueError("even points need an even number of steps")
    # Contiguous, as a decomposition's own arrays: the matching's overlap
    # sums then see the memory layout they see from scratch.
    values, vectors, block = path.frames
    frames = Frames(np.ascontiguousarray(values[::2]), np.ascontiguousarray(vectors[::2]), block)
    return _branch_path(path.times[::2], frames, DEGENERACY_TOL)


def _branch_path(times: np.ndarray, frames: Frames, degeneracy_tol: float) -> EigenPath:
    """The EigenPath of frames on a grid: branches matched across grid points
    unless a closed-form block keeps them apart, branches that never exceed
    SUPPORT_TOL cut, and near-degenerate pairs flagged."""
    m_total = times.size
    vals = frames.values
    if frames.block is None:
        columns = _matched_columns(vals, frames.vectors)
        vals = gather_columns(vals, columns)
    # Column by column: numpy's max over axis 0 of an (M, n) array is
    # several times slower than n maxima of its columns.
    keep = np.flatnonzero([vals[:, k].max() > SUPPORT_TOL for k in range(vals.shape[1])])
    if keep.size == 0:
        raise ValueError("no branch carries weight above the support cutoff")
    vals = vals[:, keep]
    if frames.block is None:
        columns = columns[:, keep]
    else:
        # A closed-form block keeps its column order: one row, broadcast along the grid.
        columns = np.broadcast_to(keep.astype(np.int8), vals.shape)

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
    return EigenPath(times, frames, columns, tuple(flags))
