"""The path kernels that run in chunks of PATH_CHUNK_POINTS grid points
(coherent_rho_path and coherent_block_path, alone and in batches, the
overlaps of the branch matching, the phase sums of kinematic_phase and
phase_trace, and the SVD concurrence) give the bits of one pass over the
whole path, and `evolve` holds a bounded number of bytes per grid point."""

import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from becphase import density
from becphase.cli import emit, initial_branches, parse_config, run_evolve
from becphase.density import (
    SUPPORT_TOL,
    coherent_block_path,
    coherent_block_paths,
    coherent_rho_path,
    eigen_path,
    embed_frames,
)
from becphase.entanglement import concurrence_wootters
from becphase.geomphase import kinematic_phase, phase_trace
from becphase.model import quasicycle_period
from oracles import whole_path_phasors
from test_block_route import config_doc

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
N_STEPS = 128
# A general state whose branches the matching permutes at interior grid
# points of the 128-step grid.
PERMUTED = {
    "scenario": "general", "omega": 0.038, "j_vdw": -0.219, "omega_b": 1.596, "chi": -0.024,
    "lambda_c": 1.28, "alpha": [1.125, 4.41],
    "coefficients": [[0.4514536601459871, -0.21295104185579417],
                     [-0.3257554137295286, 0.10138691038154475],
                     [-0.037605855241967835, -0.011397173841476973],
                     [0.7251699947451886, 0.3271542971500173]],
}
# The three kinds of path: a closed-form block; a general path with
# branches permuted along the grid; a general pure state whose null
# branches (eps(0) <= SUPPORT_TOL) are kept.
CONFIGS = {
    "block": (CONFIG_DIR / "macro_single.json").read_text(),
    "permuted": json.dumps(PERMUTED),
    "null-branch": (CONFIG_DIR / "general.json").read_text(),
}


def run_kernels(text: str) -> dict:
    cfg = replace(parse_config(text), n_steps=N_STEPS)
    times = np.linspace(0.0, quasicycle_period(cfg.params), N_STEPS + 1)
    rhos = coherent_rho_path(initial_branches(cfg), times, cfg.params)
    path = eigen_path(times, rhos)
    return {
        "path": path,
        "rhos": rhos,
        "phase": kinematic_phase(path),
        "trace": phase_trace(path),
        "concurrence": concurrence_wootters(rhos, frames=path.frames),
        # the SVD route on every path, blocks included: embedded, with block None
        "concurrence_svd": concurrence_wootters(rhos, frames=embed_frames(path.frames)),
        "evolve": emit(run_evolve(cfg)),
    }


@pytest.fixture(scope="module")
def unchunked():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(density, "PATH_CHUNK_POINTS", 2**30)
        return {kind: run_kernels(text) for kind, text in CONFIGS.items()}


def test_the_paths_are_of_their_kind(unchunked):
    block, permuted, null = (unchunked[k]["path"] for k in CONFIGS)
    assert block.frames.block is not None
    assert permuted.frames.block is None
    changes = np.flatnonzero((permuted.columns[1:] != permuted.columns[:-1]).any(axis=1))
    assert changes.max() > N_STEPS // 2
    assert null.frames.block is None and (null.values[0] <= SUPPORT_TOL).sum() == 2


@pytest.mark.parametrize("kind", CONFIGS)
def test_one_chunk_is_the_whole_path_formula(unchunked, kind):
    run = unchunked[kind]
    z = whole_path_phasors(run["path"].values, run["path"].vectors)
    assert np.array_equal(run["phase"].per_branch, z[-1])
    assert np.array_equal(run["trace"], np.unwrap(np.angle(z.sum(axis=1))))


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, N_STEPS + 2])
@pytest.mark.parametrize("kind", CONFIGS)
def test_chunks_give_the_unchunked_bits(monkeypatch, unchunked, kind, chunk):
    monkeypatch.setattr(density, "PATH_CHUNK_POINTS", chunk)
    run, ref = run_kernels(CONFIGS[kind]), unchunked[kind]
    assert np.array_equal(run["path"].columns, ref["path"].columns)
    for name in ("rhos", "trace", "concurrence", "concurrence_svd"):
        assert np.array_equal(run[name], ref[name]), name
    got, want = run["phase"], ref["phase"]
    for field in ("principal", "unwrapped", "n_steps", "error_estimate", "warnings"):
        assert getattr(got, field) == getattr(want, field), field
    assert np.array_equal(got.per_branch, want.per_branch)
    assert run["evolve"] == ref["evolve"]


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, N_STEPS + 2])
def test_matching_in_chunks_gives_the_one_chunk_columns(monkeypatch, unchunked, chunk):
    frames = unchunked["permuted"]["path"].frames
    with monkeypatch.context() as mp:
        mp.setattr(density, "PATH_CHUNK_POINTS", 2**30)
        best = density._step_permutations(frames.vectors)
        columns = density._matched_columns(frames.values, frames.vectors)
    assert np.count_nonzero(best) > 1
    monkeypatch.setattr(density, "PATH_CHUNK_POINTS", chunk)
    assert np.array_equal(density._step_permutations(frames.vectors), best)
    assert np.array_equal(density._matched_columns(frames.values, frames.vectors), columns)


def test_evolve_memory_per_grid_point():
    # The whole-path arrays of evolve on configs/general.json, from the
    # density matrices to the CSV text, measured as the growth of the traced
    # peak between two grids.
    cfg = parse_config((CONFIG_DIR / "general.json").read_text())
    peaks = {}
    for n_steps in (8192, 32768):
        tracemalloc.start()
        try:
            emit(run_evolve(replace(cfg, n_steps=n_steps)))
            peaks[n_steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (peaks[32768] - peaks[8192]) / (32768 - 8192) <= 1200


# A macro_single path whose point 26 once took other coherence bits in a
# one-point chunk: the complex products of a one-element pair array and a
# one-point chunk, of unequal ndim, ran in another numpy loop.
ONE_POINT_CHUNK = dict(config_doc(np.random.default_rng(1), "macro_single", math.pi / 4 + 1e-9, True),
                       grid={"n_steps": 64})
COHERENCE_CONFIGS = {"one-point-chunk": json.dumps(ONE_POINT_CHUNK), **CONFIGS}


def coherences(text: str) -> dict:
    cfg = parse_config(text)
    state0 = initial_branches(cfg)
    times = np.linspace(0.0, quasicycle_period(cfg.params), cfg.n_steps + 1)
    out = {"stack": coherent_rho_path(state0, times, cfg.params)}
    if np.count_nonzero(state0.coeffs) <= 2:
        # alone, and in a batch of three states that share its block
        out["block"] = coherent_block_path(state0, times, cfg.params).b
        batch = [initial_branches(replace(cfg, eta0=eta0)) for eta0 in (cfg.eta0, 0.3, 1.1)]
        out["batch"] = coherent_block_paths(batch, times, cfg.params).b
    return out


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
@pytest.mark.parametrize("kind", COHERENCE_CONFIGS)
def test_coherence_bits_do_not_depend_on_the_chunk_size(monkeypatch, kind, chunk):
    with monkeypatch.context() as mp:
        mp.setattr(density, "PATH_CHUNK_POINTS", 2**30)
        ref = coherences(COHERENCE_CONFIGS[kind])
    monkeypatch.setattr(density, "PATH_CHUNK_POINTS", chunk)
    got = coherences(COHERENCE_CONFIGS[kind])
    assert list(got) == list(ref)
    for name, bits in ref.items():
        assert got[name].tobytes() == bits.tobytes(), name
    if "batch" in ref:
        assert ref["batch"][0].tobytes() == ref["block"].tobytes()
