"""The path kernels that run in chunks of PATH_CHUNK_POINTS grid points
(coherent_rho_path and coherent_block_path, alone and in batches, the
branch matching, the phase sums of kinematic_phase and phase_trace, and the
SVD concurrence) give the bits of one pass over the whole path; `evolve`,
which runs the whole pipeline one chunk at a time, prints the bits of its
whole-path reference, decomposes each grid point once and holds a bounded
number of bytes per grid point."""

import contextlib
import io
import itertools
import json
import math
import os
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from becphase import cli, density
from becphase.cli import emit, initial_branches, main, parse_config, run_evolve
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
from oracles import whole_path_evolve, whole_path_phasors
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
    # What evolve holds per grid point on configs/general.json, from the
    # density entries to the rendered rows, measured as the growth of the
    # traced peak between two grids. The rows go to a sink that keeps no
    # text, so that the bound is evolve's own: the per-row floats that
    # cross chunks, 72 bytes per point.
    cfg = parse_config((CONFIG_DIR / "general.json").read_text())
    peaks = {}
    with open(os.devnull, "w") as sink:
        for n_steps in (8192, 32768):
            tracemalloc.start()
            try:
                emit(run_evolve(replace(cfg, n_steps=n_steps)), "csv", sink)
                peaks[n_steps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    assert (peaks[32768] - peaks[8192]) / (32768 - 8192) <= 200


def first_difference(got: str, want: str) -> tuple | None:
    """The first line where two texts differ, as its index and both lines."""
    lines = itertools.zip_longest(got.split("\n"), want.split("\n"))
    return next(((k, a, b) for k, (a, b) in enumerate(lines) if a != b), None)


def evolve_stdout(config: Path, steps: int, fmt: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["evolve", "--config", str(config), "--steps", str(steps), "--format", fmt]) == 0
    return out.getvalue()


EVOLVE_RUNS = [
    *((config, 64, fmt) for config in sorted(CONFIG_DIR.glob("*.json")) for fmt in ("csv", "tsv")),
    (CONFIG_DIR / "general.json", 8192, "csv"),
]


@pytest.fixture(scope="module")
def evolve_outputs():
    return {run: evolve_stdout(*run) for run in EVOLVE_RUNS}


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
@pytest.mark.parametrize("run", EVOLVE_RUNS, ids=lambda run: f"{run[0].stem}-{run[1]}-{run[2]}")
def test_evolve_prints_the_same_bytes_in_any_chunks(monkeypatch, evolve_outputs, run, chunk):
    # a first chunk of two points: the first frame's tie-break reads both
    monkeypatch.setattr(density, "PATH_CHUNK_POINTS", chunk)
    got, want = evolve_stdout(*run), evolve_outputs[run]
    same = got == want  # not compared inside the assert, whose diff of long texts is slow
    assert same, first_difference(got, want)


# Paths whose support cut drops branches: a general state on three basis
# states, one on a single basis state (a block), and a product state
# (alpha = 0) whose three null branches are all cut.
CUT = {
    "three-states": {"scenario": "general", "omega": 1.0, "lambda_c": 0.3, "alpha": [1.5, 0.4],
                     "coefficients": [[0.6, 0.1], [0.0, 0.0], [0.3, -0.5], [0.5, 0.2]]},
    "one-state": {"scenario": "general", "omega": 1.0, "lambda_c": 0.3, "alpha": 1.5,
                  "coefficients": [0.0, 0.0, [0.6, 0.8], 0.0]},
    "product": {"scenario": "general", "omega": 1.0, "lambda_c": 0.3, "alpha": 0.0,
                "coefficients": [0.5, [0.0, 0.5], -0.5, 0.5]},
}
# A general state on |11> and |10>, whose |10> population underflows to 0:
# the coherence is nonzero at t = 0, so the path's block is (1, 3), but it
# underflows to 0 on later chunks, which hold |11> alone and pair it with
# |00> as the block (0, 1). Taken chunk by chunk, the link between those
# blocks' frames would vanish.
SUPPORT_CHANGE = {"scenario": "general", "omega": 1.0, "lambda_c": 0.3, "alpha": 1.5,
                  "coefficients": [0.0, 1.0, 0.0, 5e-324]}
WHOLE_PATH = {
    **{path.stem: json.loads(path.read_text()) for path in sorted(CONFIG_DIR.glob("*.json"))},
    **CUT,
    "support-change": SUPPORT_CHANGE,
}


@pytest.mark.parametrize("width", [2, 4])
def test_null_terms_leave_a_branch_sum_as_it_is(width):
    # evolve sums the phase terms of every matched branch. A branch that the
    # support cut drops is null at the first point, so it orders after the
    # live ones and its terms are zeros of either sign: a row's sum must
    # give the bits of its kept terms alone, for any choice of the nulls
    # kept, and live terms that are zero or cancel exactly included.
    rng = np.random.default_rng(0)
    for live in range(1, width + 1):
        z = rng.normal(size=(3000, width)) + 1j * rng.normal(size=(3000, width))
        z[::3, :live] = 0.0
        z[1::3, :live] *= -0.0
        z[2::6, live - 1] = -z[2::6, 0]
        z.real[:, live:], z.imag[:, live:] = rng.choice([0.0, -0.0], size=(2, 3000, width - live))
        for kept in itertools.product([False, True], repeat=width - live):
            keep = [*range(live), *(live + k for k, kept_k in enumerate(kept) if kept_k)]
            assert z.sum(axis=1).tobytes() == np.ascontiguousarray(z[:, keep]).sum(axis=1).tobytes()


@pytest.mark.parametrize("kind", WHOLE_PATH)
def test_evolve_equals_its_whole_path_reference(kind):
    # a grid of two chunks
    cfg = replace(parse_config(json.dumps(WHOLE_PATH[kind])), n_steps=4096)
    if kind in CUT:  # the phase sums run over branches that the path cuts
        times = np.linspace(0.0, quasicycle_period(cfg.params), cfg.n_steps + 1)
        path = eigen_path(times, cli.density_path(initial_branches(cfg), times, cfg.params))
        assert path.n_branches < path.frames.values.shape[1]
    got, want = emit(run_evolve(cfg)), emit(whole_path_evolve(cfg))
    same = got == want
    assert same, first_difference(got, want)


def test_a_support_that_changes_between_chunks_is_computed_as_one_chunk(monkeypatch):
    cfg = replace(parse_config(json.dumps(SUPPORT_CHANGE)), n_steps=4096)
    passes = []
    evolve_columns = cli._evolve_columns

    def spy(cfg, state0, times, chunks):
        columns = evolve_columns(cfg, state0, times, chunks)
        passes.append((len(chunks), columns is None))
        return columns

    monkeypatch.setattr(cli, "_evolve_columns", spy)
    run_evolve(cfg)
    assert passes == [(2, True), (1, False)]


@pytest.mark.parametrize("name", ["general", "micro_micro"])
def test_evolve_decomposes_each_grid_point_once(monkeypatch, name):
    counted = []
    validate = cli.validate_density

    def counting(rho):
        counted.append(rho.b.size if isinstance(rho, density.BlockEntries) else len(rho))
        return validate(rho)

    monkeypatch.setattr(cli, "validate_density", counting)
    run_evolve(replace(parse_config((CONFIG_DIR / f"{name}.json").read_text()), n_steps=8192))
    assert len(counted) == len(density.point_chunks(8193)) > 1
    assert sum(counted) == 8193


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
