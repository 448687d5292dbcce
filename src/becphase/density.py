"""Reduced qubit-pair density matrices: the exact coherent-overlap path, the
truncated-Fock partial trace that checks it, analytic forms, and
eigen-decomposition with branch continuity along a time path."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterator, NamedTuple, Sequence

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
    the coherences b = rho_ij, one per time. Every other entry is 0. The
    paths of a batch of P states on one grid and block (coherent_block_paths)
    hold a and d as (P, 1) arrays and b as a (P, M) array."""

    a: float
    d: float
    b: np.ndarray
    block: tuple[int, int]


def validate_density(rho: np.ndarray | BlockEntries) -> Frames:
    """Check a density path and return the Frames that its positivity check
    computes.

    rho is a 4x4 density matrix or a (..., 4, 4) stack, whose matrices are
    checked for Hermiticity, unit trace and positivity. When every matrix is
    supported on the same two basis states or one, the decomposition is
    _block_frames' closed form, over the block's two states; otherwise it is
    `eigh`'s, with ascending values.

    rho may also be the BlockEntries of a path on one block
    (coherent_block_path), which give the same Frames with no (M, 4, 4)
    stack. Their matrices are Hermitian by construction, so the checks are
    finite coherences, unit trace of the populations and positivity of the
    block eigenvalues. The entries of a batch are checked and decomposed in
    one pass, into values (P, M, 2) and vectors (P, M, 2, 2); point k of the
    batch gets the bits that its own entries give alone. A batch that fails
    a check raises the error of its trace farthest from 1 or of its lowest
    eigenvalue, which need not be that of its first failing point.
    """
    if isinstance(rho, BlockEntries):
        a, d, b, block = rho
        if not np.isfinite(b).all():
            raise ValueError("density matrix has a non-finite coherence")
        traces = a + d
    else:
        m = np.asarray(rho, dtype=complex)
        if m.shape[-2:] != (4, 4):
            raise ValueError(f"density matrices must be 4x4, got shape {m.shape}")
        flat = m.reshape(-1, 16)
        # Basis states whose row or column holds a nonzero entry in some matrix.
        nonzero = flat.any(axis=0).reshape(4, 4)
        block = _pair_block(np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1)).tolist())
        # The largest entry of |m - m^H| without forming it: |m_ij - conj(m_ji)|
        # over the pairs i < j, and 2 |Im m_ii|. On a block every other entry is
        # an exact 0, which leaves the maxima and traces as the block's own.
        pairs = np.take(flat, _UPPER, axis=1) - np.conj(np.take(flat, _LOWER, axis=1))
        diag = np.take(flat, _DIAGONAL, axis=1)
        herm = max(np.max(np.abs(pairs)), 2.0 * np.max(np.abs(diag.imag)))
        if not herm <= HERMITICITY_TOL:
            raise ValueError(f"density matrix not Hermitian: deviation {herm:g}")
        traces = diag.sum(axis=1)
        if block is not None:
            i, j = block
            a, d, b = m[..., i, i].real, m[..., j, j].real, m[..., i, j]
    _check_trace(traces)
    if block is None:
        return _check_positive(Frames(*np.linalg.eigh(m), None))
    return _check_positive(Frames(*_block_frames(a, d, b), block))


def _pair_block(support: list[int]) -> tuple[int, int] | None:
    """The block (i, j), i < j, of an ascending support of one or two basis
    states; None for any other support. A lone state is paired with the
    empty state 0, or with state 1 if it is state 0."""
    if len(support) == 1:
        support = sorted([*support, 1 if support[0] == 0 else 0])
    return tuple(support) if len(support) == 2 else None


def _check_trace(traces: np.ndarray | float) -> None:
    traces = np.ravel(traces)
    trace = complex(traces[np.argmax(np.abs(traces - 1.0))])
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
    passes the entries of its matrices, or the constant populations and the
    coherences of a coherent_block_path.

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
    out[:, occ, occ] = _populations(state0.coeffs)[occ]
    lower = [(i, j) for i in occ for j in occ if j < i]
    if lower:
        rows, cols = np.array(lower).T
        for chunk, (rho,) in _coherences(state0.coeffs[None], state0.betas, times, p, rows, cols):
            out[chunk, rows, cols] = rho
            out[chunk, cols, rows] = rho.conj()
    return out


def coherent_block_path(state0: CoherentBranches, times: np.ndarray, p: ModelParams) -> BlockEntries:
    """coherent_rho_path of a state that occupies at most two basis states, as
    the entries of its 2x2 block: the same bits with no (M, 4, 4) stack, for
    validate_density and eigen_path. It is coherent_block_paths' batch of one,
    with its populations as floats.

    The block is the pair of basis states whose rows or columns hold a
    nonzero entry at some time, a lone one paired with an empty one, as
    validate_density finds it on the stack.
    """
    a, d, b, block = coherent_block_paths([state0], times, p)
    return BlockEntries(float(a[0, 0]), float(d[0, 0]), b[0], block)


def coherent_block_paths(states: Sequence[CoherentBranches], times: np.ndarray, p: ModelParams) -> BlockEntries:
    """coherent_block_path of each of a batch of P states on one grid, as
    BlockEntries whose a and d are (P, 1) and b (P, M) arrays: each chunk of
    times evaluates the factor of the coherences that the states share
    once, and each state's row has the bits of its own call. The states of
    a batch of more than one must share a block_batch_key, which fixes one
    block for them all.
    """
    times = np.asarray(times, dtype=float)
    occ = np.flatnonzero(states[0].coeffs)
    if occ.size > 2:
        raise ValueError(f"a block path needs at most two occupied basis states, got {occ.size}")
    if len(states) > 1:
        keys = {block_batch_key(s) for s in states}
        if None in keys or len(keys) > 1:
            raise ValueError("a batch of block paths needs states of one block_batch_key")
    c = np.array([s.coeffs for s in states])
    pops = _populations(c)
    b = np.zeros((len(states), times.size), dtype=complex)
    if occ.size == 2:
        for chunk, rho in _coherences(c, states[0].betas, times, p, occ[1:], occ[:1]):
            b[:, chunk] = rho[..., 0].conj()
    held = pops.any(axis=0)
    i, j = _pair_block([int(k) for k in occ if held[k] or b.any()])
    return BlockEntries(pops[:, i, None], pops[:, j, None], b, (i, j))


def block_batch_key(state0: CoherentBranches) -> tuple | None:
    """The key that the states of one coherent_block_paths batch share: the
    mode amplitudes (signs and alpha), which with the model parameters fix
    the factor of their coherences, and the occupied states. Every occupied
    state must have a nonzero population, so that the block does not depend
    on the coherences. None for a state that cannot join a batch: one that
    occupies more than two basis states, or one with an occupied state
    whose population rounds to 0."""
    occ = np.flatnonzero(state0.coeffs)
    if occ.size > 2 or not _populations(state0.coeffs)[occ].all():
        return None
    return state0.signs, state0.alpha, tuple(occ.tolist())


def _populations(c: np.ndarray) -> np.ndarray:
    """The diagonal of every reduced density matrix of the states whose
    coefficients are c (..., 4): |c_k|^2 = Re(c_k conj(c_k))."""
    return (c * c.conj()).real


def _coherences(
    c: np.ndarray, b: np.ndarray, times: np.ndarray, p: ModelParams, rows: np.ndarray, cols: np.ndarray
) -> Iterator[tuple[slice, np.ndarray]]:
    """coherent_rho_path's entries rho_ij(t) at (i, j) = (rows[k], cols[k])
    of the states whose coefficients are the rows of c and whose mode
    amplitudes are b, one point_chunks chunk of times at a time: yields the
    chunk's slice and its (states, chunk size, pairs) array. The factor
    exp(G_ij(t) - i (E_i - E_j) t) is evaluated once per chunk and
    multiplied by each state's c_i conj(c_j).

    Every complex product has operands of one ndim: numpy multiplies a
    single element of unequal ndim in another loop than longer operands,
    which rounds differently, so a point's bits would depend on the size of
    its chunk."""
    theta = branch_frequency(np.arange(4)[:, None], np.arange(2), p)
    energy, slope = theta[:, 0], theta[:, 1] - theta[:, 0]
    cross = b[rows] * b[cols].conj()  # b_i conj(b_j)
    g0 = -0.5 * np.abs(b[rows] - b[cols]) ** 2 + 1j * cross.imag
    mu = slope[rows] - slope[cols]
    de = energy[rows] - energy[cols]
    weight = (c[:, rows] * c[:, cols].conj())[:, None, :]
    cross, g0, mu, de = cross[None], g0[None], mu[None], de[None]
    for chunk in point_chunks(times.size):
        t = times[chunk, None]
        g = g0 - cross * (2.0 * np.sin(0.5 * mu * t) ** 2 + 1j * np.sin(mu * t))
        yield chunk, weight * np.exp(g - 1j * de * t)[None]


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
    ill-conditioned: pairs of kept branches closer than degeneracy_tol, at
    which the paths derived from this one are flagged too. A refinement of
    the path reuses its frames, and strided_path derives the paths on fewer
    of its grid points from its frames and columns. Paths compare by
    identity.
    """

    times: np.ndarray
    frames: Frames = field(repr=False)
    columns: np.ndarray = field(repr=False)
    flags: tuple[str, ...]
    degeneracy_tol: float = DEGENERACY_TOL

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
    rhos: np.ndarray | BlockEntries | Frames,
    degeneracy_tol: float = DEGENERACY_TOL,
    coarse: EigenPath | None = None,
) -> EigenPath:
    """Spectrally decompose a time-ordered family of 4x4 density matrices.

    Validates Hermiticity, unit trace and positivity of every matrix, then
    assigns eigenvector columns across neighboring times by the permutation
    that maximizes the summed squared overlaps (_step_permutations).
    Near-degenerate eigenvalue pairs among retained branches are flagged,
    not fatal.

    rhos is an (M, 4, 4) stack or, for a state that occupies at most two
    basis states, its block's entries from coherent_block_path; both give
    the same Frames of validate_density, which checks them. rhos may also
    be Frames that validate_density has already returned, one frame per
    time, as cli.first_paths passes those of a batch; they are not checked
    again. When every matrix is supported on the same two basis states (or
    one), the block is decomposed in closed form and no matching runs: the
    branches are the larger and the smaller block eigenvalue, whose gap
    2 hypot((a - d)/2, |b|) is positive unless the block is a multiple of
    the identity, so they never cross.

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
    frames have block None. The converse, the path on every second point of
    a decomposed grid, is strided_path's.
    """
    times = np.asarray(times, dtype=float)
    if coarse is None:
        if times.ndim != 1 or times.size < 2:
            raise ValueError("need at least two time points")
    elif times.shape != (coarse.n_steps,):
        raise ValueError("refinement needs one midpoint per step of the coarse path")
    if isinstance(rhos, Frames):
        if rhos.values.shape[0] != times.size:
            raise ValueError(f"expected {times.size} frames, got shape {rhos.values.shape}")
        frames = rhos
    else:
        if isinstance(rhos, BlockEntries):
            if rhos.b.shape != times.shape:
                raise ValueError(f"expected {times.size} coherences, got shape {rhos.b.shape}")
        elif np.shape(rhos) != (times.size, 4, 4):
            raise ValueError(f"expected shape {(times.size, 4, 4)}, got {np.shape(rhos)}")
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


def strided_path(path: EigenPath, stride: int) -> EigenPath:
    """The path on every stride-th grid point of `path`, made of views of its
    times, frames and columns: nothing is decomposed or matched again.
    Branch k keeps the path's columns[::stride, k], the matching of the finer
    grid; the support cut and flags are _branch_path's on those points, at
    the path's degeneracy_tol. On a resolved grid the result equals
    eigen_path on those points from scratch. Only a branch that starts null
    can be cut on fewer points. The gaps of the kept branches on fewer points
    are some of the path's, so an unflagged path has unflagged strides and
    their flags are not sought.
    """
    if stride < 1 or path.n_steps % stride:
        raise ValueError(f"a stride of {stride} does not divide {path.n_steps} steps")
    values, vectors, block = path.frames
    frames = Frames(values[::stride], vectors[::stride], block)
    return _branch_path(path.times[::stride], frames, path.degeneracy_tol, path.columns[::stride], bool(path.flags))


def _branch_path(
    times: np.ndarray, frames: Frames, degeneracy_tol: float, columns: np.ndarray | None = None, flag: bool = True
) -> EigenPath:
    """The EigenPath of frames on a grid whose branch k takes frame column
    columns[m, k]. Without columns, branches are matched across grid points
    unless a closed-form block keeps them apart, in one column row broadcast
    along the grid. A branch is kept if its value exceeds SUPPORT_TOL at the
    first point or, failing that, at any point; with flag, pairs of kept
    branches closer than degeneracy_tol are flagged."""
    values = frames.values
    if columns is None:
        columns = (_matched_columns(values, frames.vectors) if frames.block is None
                   else np.broadcast_to(np.arange(values.shape[1], dtype=np.int8), values.shape))
    # The branches' values, (M,) each: views of the frame columns when the
    # columns are one broadcast row, as a block's are. Their maxima are taken
    # one by one: numpy's max over axis 0 of an (M, n) array is several times
    # slower than n maxima of its columns.
    branches = list(gather_columns(values, columns).T) if columns.strides[0] else [values[:, k] for k in columns[0]]
    keep = [k for k, branch in enumerate(branches) if branch[0] > SUPPORT_TOL or branch.max() > SUPPORT_TOL]
    if not keep:
        raise ValueError("no branch carries weight above the support cutoff")
    if len(keep) < len(branches):
        # a block's columns stay one row broadcast along the grid
        columns = columns[:, keep] if columns.strides[0] else np.broadcast_to(columns[0, keep], (times.size, len(keep)))
    flags = _ambiguity_flags(times, [branches[k] for k in keep], degeneracy_tol) if flag else ()
    return EigenPath(times, frames, columns, flags, degeneracy_tol)


def _ambiguity_flags(times: np.ndarray, branches: list[np.ndarray], degeneracy_tol: float) -> tuple[str, ...]:
    """The branch-ambiguity flag of the kept branches' values on a grid, one
    (M,) array each, when two of them are closer than degeneracy_tol at some
    point."""
    if len(branches) < 2:
        return ()
    pairs = itertools.combinations(branches, 2)
    gaps = functools.reduce(np.minimum, (np.abs(a - b) for a, b in pairs))
    idx = np.flatnonzero(gaps < degeneracy_tol)
    if not idx.size:
        return ()
    return (
        "branch-ambiguity: eigenvalue gap below "
        f"{degeneracy_tol:g} on {idx.size} of {times.size} grid points, "
        f"t in [{times[idx[0]]:.6g}, {times[idx[-1]]:.6g}]",
    )
