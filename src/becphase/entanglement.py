"""Concurrence measures and the phase-to-concurrence witness inversions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams
from .dynamics import JointState
from .density import (
    BlockEntries,
    Frames,
    Scenario,
    partial_trace,
    point_chunks,
    validate_block,
    validate_density,
)
from .geomphase import special_point_phase

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

EIGENVALUE_CLAMP = 1e-12
# Index pairs of the basis states that differ in both qubits: |00>,|11> and |01>,|10>.
_ENTANGLED_BLOCKS = ((0, 1), (2, 3))


def concurrence_wootters(
    rho: np.ndarray | BlockEntries, frames: Frames | None = None
) -> float | np.ndarray:
    """Two-qubit concurrence max{0, l1 - l2 - l3 - l4} of one 4x4 matrix (a
    float) or of every matrix of an (M, 4, 4) stack (an array of M values).

    l_i are the descending square roots of the eigenvalues of the spin-flipped
    product rho (sy x sy) conj(rho) (sy x sy), computed here as the singular
    values of sqrt(rho) (sy x sy) conj(sqrt(rho)). The two spectra coincide,
    but the singular-value route stays accurate for (near-)pure states where
    the non-Hermitian product has defective zero eigenvalues.

    When every matrix is supported on the two basis states of a block (i, j),
    the concurrence is 2 |rho_ij| if those states differ in both qubits
    (|00>,|11> or |01>,|10>) and exactly 0 otherwise, where one qubit sits in
    a basis state and the state is a product; no SVD runs. rho may then also
    be a two-state path's BlockEntries (coherent_block_path), whose
    coherences b are its rho_ij.

    frames, when given, is rho's Frames as validate_density returns them and
    EigenPath.frames keeps them; rho is then neither checked nor decomposed
    again, and the SVD route runs unless frames.block names a block. The
    SVD route needs 4x4 frames; a block's frames take it through
    embed_frames, which gives them over the whole basis with block None.
    Without frames, rho is checked and decomposed here by validate_density,
    or by validate_block for BlockEntries.
    The SVD route runs in point_chunks, so its temporaries do not grow with M.
    """
    entries = isinstance(rho, BlockEntries)
    if frames is None:
        frames = validate_block(rho) if entries else validate_density(rho)
    evals, evecs, block = frames
    if block is None:
        value = np.empty(evals.shape[:-1])
        evals, evecs, out = evals.reshape(-1, 4), evecs.reshape(-1, 4, 4), value.reshape(-1)
        for chunk in point_chunks(out.size):
            vals, vecs = evals[chunk], evecs[chunk]
            vals = np.where(vals < EIGENVALUE_CLAMP, np.maximum(vals, 0.0), vals)
            sqrt_rho = (vecs * np.sqrt(vals)[..., None, :]) @ np.conj(np.swapaxes(vecs, -1, -2))
            flipped_root = sqrt_rho @ SIGMA_YY @ sqrt_rho.conj()
            lam = np.linalg.svd(flipped_root, compute_uv=False)
            out[chunk] = np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])
    else:
        coherence = rho.b if entries else np.asarray(rho)[..., block[0], block[1]]
        value = 2.0 * np.abs(coherence) if block in _ENTANGLED_BLOCKS else np.zeros(coherence.shape)
    return float(value) if value.ndim == 0 else value


@dataclass(frozen=True)
class HybridConcurrence:
    """Published and overlap-squared values of the pure two-branch concurrence."""

    verbatim: float
    general: float


def hybrid_concurrence(eta0: float, overlap: complex) -> HybridConcurrence:
    """Concurrence of cos|0>|A> + sin|1>|B> with <A|B> = overlap.

    `general` is |sin 2 eta0| sqrt(1 - |overlap|^2); `verbatim` keeps the
    published linear-in-|overlap| exponent for side-by-side comparison. The
    purity oracle adjudicates between them.
    """
    mod = abs(overlap)
    if mod > 1.0 + 1e-12:
        raise ValueError(f"overlap modulus must not exceed 1, got {mod}")
    mod = min(mod, 1.0)
    s = abs(math.sin(2 * eta0))
    return HybridConcurrence(
        verbatim=s * math.sqrt(max(0.0, 1.0 - mod)),
        general=s * math.sqrt(max(0.0, 1.0 - mod**2)),
    )


def purity_oracle(state: JointState) -> float:
    """Concurrence sqrt(2 (1 - Tr rho^2)) of a pure state across the cut
    between the qubit pair and the mode; the reduced qubit-pair support must
    be at most rank 2."""
    rho = partial_trace(state)
    ev = np.sort(np.linalg.eigvalsh(rho))[::-1]
    if ev[2:].max() > 1e-10:
        raise ValueError("qubit-pair support exceeds two dimensions across this cut")
    purity = float(np.real(np.trace(rho @ rho)))
    return math.sqrt(max(0.0, 2.0 * (1.0 - purity)))


# ---------------------------------------------------------------------------
# Witness inversions: geometric phase -> initial concurrence.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessResult:
    """Concurrence recovered from a phase value.

    consistent: algebraic inverse of the matching closed-form phase relation,
    the one that round-trips exactly. verbatim: the published inversion kept
    as printed, which differs for two of the three scenarios.
    """

    consistent: float
    verbatim: float


def weak_law_scale(p: ModelParams) -> float:
    """4 pi lambda |alpha|^2 / omega: the weak law at C = 1, invertible only if positive."""
    return 4.0 * math.pi * p.lambda_c * abs(p.alpha) ** 2 / p.omega


def witness_micro_micro(phase: float, p: ModelParams) -> WitnessResult:
    """Invert the weak-coupling phase relation of the Bell scenario."""
    scale = weak_law_scale(p)
    if scale <= 0.0:
        raise ValueError("witness needs lambda_c > 0 and alpha != 0")
    if not -1e-12 <= phase <= scale * (1.0 + 1e-12):
        raise ValueError(f"phase must lie in [0, {scale:g}], got {phase}")
    ratio = min(max(phase / scale, 0.0), 1.0)
    # 1 - (1 - r)^2 written as r (2 - r), which does not cancel for small r
    verbatim = ratio * (2.0 - ratio)
    consistent = math.sqrt(verbatim)
    return WitnessResult(consistent, verbatim)


def witness_micro_macro(phase: float, scenario: Scenario, p: ModelParams) -> WitnessResult:
    """Invert the hybrid special-point phase relations.

    For MACRO_BOTH the published inversion is the exact algebraic inverse of
    its phase relation, so both fields agree. For MACRO_SINGLE the published
    inversion drops an additive contribution; `consistent` restores it (with
    the published detuning omega - 4J) and is the one that round-trips.
    """
    if scenario == Scenario.MACRO_BOTH:
        val = _root_of_one_minus_exp(-64.0 * phase / (16.0 + p.omega))
        return WitnessResult(val, val)
    if scenario == Scenario.MACRO_SINGLE:
        j_shift = 16.0 * math.pi * p.j_vdw / p.omega
        consistent = _root_of_one_minus_exp(4.0 * phase + 4.0 * math.pi - j_shift)
        return WitnessResult(consistent, _root_of_one_minus_exp(4.0 * phase - j_shift))
    raise ValueError("witness inversions exist for the hybrid scenarios only")


def _root_of_one_minus_exp(arg: float) -> float:
    """sqrt(1 - exp(arg)) as sqrt(-expm1(arg)), exact for small |arg| and never
    -0.0; an arg up to 1e-12 counts as 0, a larger one is an error."""
    if arg > 1e-12:
        raise ValueError("phase out of range: concurrence would be imaginary")
    return math.sqrt(max(0.0, -math.expm1(min(arg, 0.0))))


def special_point_intensity(concurrence: float) -> float:
    """The |alpha|^2 = -ln(1 - C^2) / 2, as -log1p(-C^2) / 2, at which the
    hybrid state at eta0 = pi/4 has initial concurrence C (+0.0 at C = 0)."""
    if not 0.0 <= concurrence < 1.0:
        raise ValueError("concurrence must lie in [0, 1)")
    return -0.5 * math.log1p(-(concurrence**2))


def macro_phase_relation(concurrence: float, scenario: Scenario, p: ModelParams) -> float:
    """Closed-form special-point phase as a function of initial concurrence:
    special_point_phase at the special_point_intensity of C."""
    return special_point_phase(scenario, special_point_intensity(concurrence), p)
