"""The two-state route against the 4x4 route, bit for bit.

A state that occupies at most two basis states (every named scenario, and
`general` with one or two nonzero coefficients) has its path built from its
block's entries: coherent_block_path, checked by validate_density. Any state
can also take the 4x4 route, coherent_rho_path checked by validate_density.
On a seeded box of such configs both routes give the same Frames, EigenPath,
refinement, converge_phase result and evolve columns, to the last bit. The
levels that converge_phase takes from the points of a block path (strided
views that share the first pass's weighted overlaps) equal
oracles.even_point_path and kinematic_phase level by level, to the last bit
too.

`assert_routes_agree` and `draw_configs` also serve a larger draw than this
module's:

    PYTHONPATH=src:tests python -c "import test_block_route as t; t.check_draw(2024, 2000)"
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path
from unittest.mock import ANY

import numpy as np
import pytest

from becphase import cli, density, geomphase
from becphase.density import (
    BlockEntries,
    coherent_block_path,
    coherent_block_paths,
    coherent_rho_path,
    eigen_path,
    validate_density,
)
from becphase.dynamics import MAX_ALPHA, CoherentBranches, general_initial
from becphase.geomphase import ConvergenceError
from becphase.model import ModelParams, quasicycle_period
from oracles import even_point_path, local_unitary

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# converge_phase stops at this grid on both routes, so that a config whose
# phase needs a finer one ends in the same ConvergenceError, cheaply.
MAX_STEPS = 2**12
ETA0S = (0.0, 5e-324, 1e-160, math.pi / 4 - 1e-9, math.pi / 4 + 1e-9, math.pi / 2)
NAMED = ("micro_micro", "macro_both", "macro_single")
# Index pairs of a two-coefficient general state, and the lone states.
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0,), (1,), (2,), (3,))
N_STEPS = (2, 4, 6, 10, 16, 64)


def config_doc(rng: np.random.Generator, scenario: str, eta0: float, complex_alpha: bool,
               pair: tuple[int, ...] = (0, 1), alpha_abs: float | None = None) -> dict:
    """One config of the box: random physics, |alpha| up to MAX_ALPHA."""
    if alpha_abs is None:
        alpha_abs = MAX_ALPHA * rng.uniform() ** 2
    arg = rng.uniform(-math.pi, math.pi) if complex_alpha else 0.0
    doc = {
        "scenario": scenario,
        "omega": rng.uniform(0.2, 2.0),
        "j_vdw": rng.uniform(-0.5, 0.5),
        "omega_b": rng.uniform(0.0, 2.0),
        "chi": rng.uniform(-0.1, 0.1),
        "lambda_c": 10.0 ** rng.uniform(-4.0, 0.0),
        "alpha": [alpha_abs * math.cos(arg), alpha_abs * math.sin(arg)],
        "grid": {"n_steps": int(rng.choice(N_STEPS))},
    }
    if scenario == "general":
        coefficients = [[0.0, 0.0] for _ in range(4)]
        mods = (math.cos(eta0), math.sin(eta0)) if len(pair) == 2 else (1.0,)
        for k, mod in zip(pair, mods):
            phase = rng.uniform(-math.pi, math.pi)
            coefficients[k] = [mod * math.cos(phase), mod * math.sin(phase)]
        doc["coefficients"] = coefficients
    else:
        doc["eta0"] = eta0
    return doc


def draw_configs(seed: int, count: int) -> list[dict]:
    """count configs: the scenarios and general's pairs in turn, eta0 from
    ETA0S in turn and then at random in [-pi, pi], real and complex alpha."""
    rng = np.random.default_rng(seed)
    kinds = [(name, (0, 1)) for name in NAMED] + [("general", pair) for pair in PAIRS]
    docs = []
    for k in range(count):
        scenario, pair = kinds[k % len(kinds)]
        turn = k // len(kinds)
        eta0 = ETA0S[turn] if turn < len(ETA0S) else rng.uniform(-math.pi, math.pi)
        docs.append(config_doc(rng, scenario, eta0, complex_alpha=bool(turn % 2), pair=pair))
    return docs


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_same_frames(a: density.Frames, b: density.Frames) -> None:
    assert same_bits(a.values, b.values) and same_bits(a.vectors, b.vectors)
    assert a.block == b.block


def assert_same_path(a: density.EigenPath, b: density.EigenPath) -> None:
    assert_same_frames(a.frames, b.frames)
    assert same_bits(a.times, b.times) and np.array_equal(a.columns, b.columns)
    assert same_bits(a.values, b.values) and same_bits(a.vectors, b.vectors)
    assert a.flags == b.flags


def outcome(fn, *args):
    """fn(*args), or the type and message of the error it exits with."""
    try:
        return fn(*args)
    except (ValueError, ConvergenceError) as exc:
        return type(exc), str(exc)


def assert_same_phase(a, b) -> None:
    if isinstance(a, tuple):
        assert a == b
        return
    for name in ("principal", "unwrapped", "per_branch", "error_estimate"):
        assert same_bits(getattr(a, name), getattr(b, name)), name
    assert (a.n_steps, a.warnings) == (b.n_steps, b.warnings)


def assert_same_table(a, b) -> None:
    if isinstance(a, tuple):
        assert a == b
        return
    assert list(a.columns) == list(b.columns)
    for name, col in a.columns.items():
        other = b.columns[name]
        assert (col == other) if isinstance(col, str) else same_bits(col, other), name


def level_outcomes(levels) -> list:
    """The PhaseResults of an iterator of levels, up to the error that ends
    it, whose type and message close the list."""
    out = []
    while True:
        try:
            out.append(next(levels))
        except StopIteration:
            return out
        except (ValueError, ConvergenceError) as exc:
            return out + [(type(exc), str(exc))]


def even_point_levels(path):
    """kinematic_phase of path and of even_point_path of each level before
    it, down to an odd step count: the reference for the strided levels of
    geomphase._first_levels."""
    yield geomphase.kinematic_phase(path)
    while path.n_steps % 2 == 0:
        path = even_point_path(path)
        yield geomphase.kinematic_phase(path)


def assert_levels_agree(path: density.EigenPath) -> list:
    """converge_phase's levels on the points of a block path
    (geomphase._first_levels) against even_point_levels, bit for bit, and
    each strided_path against even_point_path; returns the levels."""
    assert path.frames.block is not None
    levels = level_outcomes(geomphase._first_levels(path))
    reference = level_outcomes(even_point_levels(path))
    assert len(levels) == len(reference)
    for a, b in zip(levels, reference):
        assert_same_phase(a, b)
    even, stride = path, 2
    while path.n_steps % stride == 0:
        even = even_point_path(even)
        assert_same_path(density.strided_path(path, stride), even)
        stride *= 2
    return levels


def stack_route(state0, times, p):
    """cli.density_path on the 4x4 route, whatever the occupation."""
    return cli.coherent_rho_path(state0, times, p)


def assert_routes_agree(doc: dict) -> None:
    """The block route and the 4x4 route on one config: Frames, EigenPath and
    its refinement on the config's grid, converge_phase from it and every
    evolve column, and converge_phase's levels on the points of its first
    path (assert_levels_agree)."""
    cfg = cli.parse_config(json.dumps(doc))
    state0, p = cli.initial_branches(cfg), cfg.params
    assert np.count_nonzero(state0.coeffs) <= 2
    times = np.linspace(0.0, quasicycle_period(p), cfg.n_steps + 1)
    entries = cli.density_path(state0, times, p)
    assert isinstance(entries, BlockEntries)
    stack = coherent_rho_path(state0, times, p)
    assert_same_frames(validate_density(entries), validate_density(stack))
    tol = cfg.degeneracy_tol
    assert_same_path(eigen_path(times, entries, tol), eigen_path(times, stack, tol))
    coarse = [eigen_path(times[::2], build(state0, times[::2], p), tol)
              for build in (coherent_block_path, coherent_rho_path)]
    assert_same_path(
        eigen_path(times[1::2], coherent_block_path(state0, times[1::2], p), tol, coarse=coarse[0]),
        eigen_path(times[1::2], coherent_rho_path(state0, times[1::2], p), tol, coarse=coarse[1]),
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geomphase, "MAX_STEPS", MAX_STEPS)
        route = [outcome(run, cfg) for run in (cli.compute_phase, cli.run_evolve)]
        grids = []
        mp.setattr(cli, "density_path", lambda *a: grids.append(len(a[1])) or stack_route(*a))
        reference = [outcome(run, cfg) for run in (cli.compute_phase, cli.run_evolve)]
    # the reference's first path, on 2 n_steps steps, takes the 4x4 route
    # too, unless converge_phase refuses before it builds a path
    assert grids[0] == 2 * cfg.n_steps + 1 or reference[0] == (ConvergenceError, ANY)
    assert_same_phase(route[0], reference[0])
    assert_same_table(route[1], reference[1])
    first = outcome(cli.path_builder(cfg, state0), 2 * cfg.n_steps)
    if not isinstance(first, tuple):
        assert_levels_agree(first)


def check_draw(seed: int, count: int) -> None:
    """assert_routes_agree on draw_configs(seed, count); prints a summary."""
    for doc in draw_configs(seed, count):
        try:
            assert_routes_agree(doc)
        except AssertionError:
            print(json.dumps(doc))
            raise
    print(f"{count} configs: the block route equals the 4x4 route")


# ---------------------------------------------------------------------------
# Tier-1 box.
# ---------------------------------------------------------------------------

BOX = {
    **{f"{name}-{kind}-eta0={eta0!r}": config_doc(np.random.default_rng(k), name, eta0, kind == "complex")
       for k, (name, kind, eta0) in enumerate(
           (name, kind, eta0) for name in NAMED for kind in ("real", "complex") for eta0 in ETA0S)},
    **{f"{name}-alpha-max": config_doc(np.random.default_rng(100 + k), name, 0.4, True,
                                       alpha_abs=MAX_ALPHA)
       for k, name in enumerate(NAMED)},
    **{f"general-{pair}-eta0={eta0!r}": config_doc(np.random.default_rng(200 + k), "general", eta0,
                                                    True, pair=pair)
       for k, (pair, eta0) in enumerate(
           (pair, eta0) for pair in PAIRS for eta0 in (0.3, 5e-324, math.pi / 4 + 1e-9))},
}


class TestBlockRoute:
    @pytest.mark.parametrize("name", BOX)
    def test_box(self, name):
        assert_routes_agree(BOX[name])

    def test_seeded_draw(self):
        # eta0 from ETA0S for the first 78 configs, then at random
        for doc in draw_configs(26, 130):
            assert_routes_agree(doc)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_chunked(self, monkeypatch, chunk):
        # both routes evaluate the coherences in the same chunks
        monkeypatch.setattr(density, "PATH_CHUNK_POINTS", chunk)
        rng = np.random.default_rng(chunk)
        for doc in (config_doc(rng, "macro_single", math.pi / 4 + 1e-9, True),
                    config_doc(rng, "general", 0.3, True, pair=(2, 3))):
            doc["grid"]["n_steps"] = 64
            assert_routes_agree(doc)

    @pytest.mark.parametrize("name", ["micro_micro", "macro_both", "macro_single"])
    def test_shipped_configs_at_8192_steps(self, monkeypatch, name):
        # every evolve column, purity included, on a grid of several chunks
        cfg = replace(cli.parse_config((CONFIG_DIR / f"{name}.json").read_text()), n_steps=8192)
        route = [cli.run_evolve(cfg), cli.compute_phase(cfg)]
        monkeypatch.setattr(cli, "density_path", stack_route)
        assert_same_table(route[0], cli.run_evolve(cfg))
        assert_same_phase(route[1], cli.compute_phase(cfg))

    @pytest.mark.parametrize("pair", [(0, 2), (2, 3), (1, 3), (3,)])
    def test_offdiag_of_another_block_stays_0(self, pair):
        # general's offdiag_abs is |rho_01|, exactly 0 off the block (0, 1)
        doc = BOX[f"general-{pair}-eta0=0.3"]
        table = cli.run_evolve(cli.parse_config(json.dumps(doc)))
        offdiag = table.columns["offdiag_abs[1]"]
        assert same_bits(offdiag, np.zeros(offdiag.size))

    def test_lone_state_pairs_as_validate_density_pairs_it(self):
        # macro_single at eta0 = 5e-324: |01> is occupied, but its coherence
        # rounds to 0 at every time, so the support is |00> alone, paired with |11>
        doc = BOX["macro_single-real-eta0=5e-324"]
        cfg = cli.parse_config(json.dumps(doc))
        times = np.linspace(0.0, quasicycle_period(cfg.params), 65)
        entries = coherent_block_path(cli.initial_branches(cfg), times, cfg.params)
        assert not entries.b.any() and entries.block == (0, 1)
        stack = coherent_rho_path(cli.initial_branches(cfg), times, cfg.params)
        assert validate_density(stack).block == (0, 1)

    def test_three_occupied_states_are_refused(self):
        p = ModelParams(omega=1.0, alpha=1.0)
        state0 = general_initial([0.6, 0.0, 0.64, 0.48], p)
        with pytest.raises(ValueError, match="at most two occupied"):
            coherent_block_path(state0, np.linspace(0.0, 1.0, 3), p)


# ---------------------------------------------------------------------------
# Levels on the points of a first path.
# ---------------------------------------------------------------------------

def codes(result) -> list[str]:
    return [w.split(":")[0] for w in result.warnings]


def null_at_even_points_path(n_steps: int = 8) -> density.EigenPath:
    """A hand-made block path that is pure at its even points and mixed at
    its odd ones: its second branch is kept on the whole grid, null at
    t = 0, and cut on every second point."""
    times = np.linspace(0.0, 1.0, n_steps + 1)
    a, d = 0.7, 0.3
    purity = np.where(np.arange(times.size) % 2, 0.9, 1.0)
    return eigen_path(times, BlockEntries(a, d, math.sqrt(a * d) * purity * np.exp(2j * times), (0, 1)))


STRIDED_CASES = {
    # micro_micro starts pure: its second branch is null at t = 0 and kept
    "pure-start": lambda: cli.path_builder(cli.parse_config(json.dumps(
        {"scenario": "micro_micro", "omega": 1.0, "lambda_c": 0.2, "alpha": 1.0, "eta0": 0.3})))(64),
    # fl(pi/4): the block's gap closes at the end of the cycle
    "branch-ambiguity": lambda: cli.path_builder(cli.parse_config(json.dumps(
        {"scenario": "micro_micro", "eta0": math.pi / 4, "omega": 1.0, "lambda_c": 0.1,
         "alpha": 6.0, "grid": {"n_steps": 64}})))(128),
    # TestPreLevels' run from 16 steps: its 8-step level is coarse-grid
    "coarse-grid": lambda: geomphase.analytic_path_builder(
        density.Scenario.MICRO_MICRO, 0.3, ModelParams(omega=1.0, lambda_c=0.2, alpha=1.0))(32),
    "null-at-even-points": null_at_even_points_path,
}


class TestStridedLevels:
    """converge_phase takes a block path's coarser levels from strided views
    of its points, with the weighted overlaps of its first pass: each equals
    oracles.even_point_path followed by kinematic_phase, bit for bit, including
    strides that cross point_chunks' bounds."""

    @pytest.mark.parametrize("chunk", [None, 1, 2, 3, 7])
    @pytest.mark.parametrize("name", STRIDED_CASES)
    def test_equal_even_point_levels(self, monkeypatch, name, chunk):
        if chunk is not None:
            monkeypatch.setattr(density, "PATH_CHUNK_POINTS", chunk)
        path = STRIDED_CASES[name]()
        levels = assert_levels_agree(path)
        assert [level.n_steps for level in levels] == [path.n_steps >> k for k in range(len(levels))]
        live = path.frames.values[0, path.columns[0]] > density.SUPPORT_TOL
        if name == "pure-start":
            assert list(live) == [True, False]
            assert [level.per_branch.size for level in levels] == [2] * len(levels)
        if name == "branch-ambiguity":
            assert all("branch-ambiguity" in codes(level) for level in levels)
        if name == "coarse-grid":
            assert [codes(level) for level in levels[:3]] == [[], [], ["coarse-grid"]]
        if name == "null-at-even-points":
            assert list(live) == [True, False]
            assert [level.per_branch.size for level in levels] == [2, 1, 1, 1]

    def test_flags_at_the_paths_tolerance(self):
        # every stride of a block path flags at the tolerance that its path flags at
        doc = {"scenario": "micro_micro", "omega": 1.0, "lambda_c": 0.2, "alpha": 1.0, "eta0": 0.3,
               "grid": {"degeneracy_tol": 0.9}}
        path = cli.path_builder(cli.parse_config(json.dumps(doc)))(64)
        assert path.degeneracy_tol == 0.9 and path.flags
        for stride in (2, 4, 8):
            level = density.strided_path(path, stride)
            assert level.degeneracy_tol == 0.9
            assert level.flags[0].startswith("branch-ambiguity: eigenvalue gap below 0.9 on ")
        assert_levels_agree(path)

    def test_refused_strides(self):
        path = null_at_even_points_path(6)
        for stride in (0, 4):
            with pytest.raises(ValueError, match="does not divide 6 steps"):
                density.strided_path(path, stride)


def strided_levels(path):
    """kinematic_phase of path and of strided_path of it at strides 2, 4,
    ..., down to an odd step count, each with its own weighted overlaps."""
    yield geomphase.kinematic_phase(path)
    stride = 2
    while path.n_steps % stride == 0:
        yield geomphase.kinematic_phase(density.strided_path(path, stride))
        stride *= 2


def eigh_null_at_even_points_path() -> density.EigenPath:
    """null_at_even_points_path's densities under a local unitary, which
    eigh decomposes: its second branch is cut on every second point."""
    path = null_at_even_points_path()
    u = local_unitary()
    values, vectors, _ = path.frames
    rhos = np.zeros((path.times.size, 4, 4), dtype=complex)
    rhos[:, :2, :2] = (vectors * values[:, None, :]) @ vectors.conj().swapaxes(1, 2)
    return eigen_path(path.times, u @ rhos @ u.conj().T)


def general_path(doc: dict, n_steps: int) -> density.EigenPath:
    cfg = cli.parse_config(json.dumps(doc))
    return cli.path_builder(cfg, cli.initial_branches(cfg))(n_steps)


GENERAL = json.loads((CONFIG_DIR / "general.json").read_text())
EIGH_CASES = {
    "general": lambda: general_path(GENERAL, 64),
    # under-resolved: the strided levels follow the finer grid's matching
    "general-4-steps": lambda: general_path(GENERAL, 4),
    # three occupied states: the null spectator branch is cut from the path
    "three-state": lambda: general_path({**GENERAL, "lambda_c": 0.2, "alpha": 1.5,
                                         "coefficients": [0.6, 0.64, 0.0, 0.48]}, 64),
    "null-at-even-points": eigh_null_at_even_points_path,
}


class TestStridedEighLevels:
    """converge_phase takes an eigh path's coarser levels as strided views of
    it too, with the weighted overlaps of its first pass: each equals
    kinematic_phase of strided_path with its own overlaps, bit for bit."""

    @pytest.mark.parametrize("chunk", [None, 1, 2, 3, 7])
    @pytest.mark.parametrize("name", EIGH_CASES)
    def test_equal_levels_with_their_own_overlaps(self, monkeypatch, name, chunk):
        if chunk is not None:
            monkeypatch.setattr(density, "PATH_CHUNK_POINTS", chunk)
        path = EIGH_CASES[name]()
        assert path.frames.block is None
        levels = level_outcomes(geomphase._first_levels(path))
        reference = level_outcomes(strided_levels(path))
        assert len(levels) == len(reference) == path.n_steps.bit_length()
        for a, b in zip(levels, reference):
            assert_same_phase(a, b)
        if name == "three-state":
            assert path.frames.values.shape[1] == 4 and path.n_branches == 3
        if name == "null-at-even-points":
            # the null branches that the odd points' second eigenvalue visits are cut
            sizes = [level.per_branch.size for level in levels]
            assert sizes[0] >= 2 and sizes[1:] == [1, 1, 1]


# ---------------------------------------------------------------------------
# Batches: the block paths of several states in one pass.
# ---------------------------------------------------------------------------

class TestBatch:
    @pytest.mark.parametrize("complex_alpha", [False, True])
    @pytest.mark.parametrize("scenario", NAMED)
    def test_rows_are_the_paths_of_one_state(self, scenario, complex_alpha):
        # each row of a batch has the bits of its state's own path and Frames
        rng = np.random.default_rng(NAMED.index(scenario))
        cfg = cli.parse_config(json.dumps(config_doc(rng, scenario, 0.3, complex_alpha)))
        eta0s = (0.3, math.pi / 4 - 1e-9, math.pi / 4 + 1e-9, 1e-150, math.pi / 2, 2.0)
        states = [cli.initial_branches(replace(cfg, eta0=eta0)) for eta0 in eta0s]
        times = np.linspace(0.0, quasicycle_period(cfg.params), 65)
        batch = coherent_block_paths(states, times, cfg.params)
        frames = validate_density(batch)
        assert batch.b.shape == (6, 65) and frames.values.shape == (6, 65, 2)
        for k, state in enumerate(states):
            alone = coherent_block_path(state, times, cfg.params)
            assert (float(batch.a[k, 0]), float(batch.d[k, 0]), batch.block) == (alone.a, alone.d, alone.block)
            assert same_bits(batch.b[k], alone.b)
            assert_same_frames(density.Frames(frames.values[k], frames.vectors[k], frames.block),
                               validate_density(alone))

    def test_states_of_another_key_are_refused(self):
        p = ModelParams(omega=1.0, alpha=1.0)
        times = np.linspace(0.0, 1.0, 9)
        lone = cli.macro_single_initial(0.0, p)
        pair = cli.macro_single_initial(0.3, p)
        # |01>'s population rounds to 0, so the block would rest on the coherences
        faint = cli.macro_single_initial(1e-170, p)
        three = general_initial([0.6, 0.0, 0.64, 0.48], p)
        assert density.block_batch_key(faint) is None and density.block_batch_key(three) is None
        assert density.block_batch_key(lone) != density.block_batch_key(pair)
        other_alpha = cli.macro_single_initial(0.3, ModelParams(omega=1.0, alpha=2.0))
        for batch in ([pair, lone], [pair, faint], [faint, faint], [pair, other_alpha]):
            with pytest.raises(ValueError, match="block_batch_key"):
                coherent_block_paths(batch, times, p)
        # a batch of one takes any state that a block path takes
        assert coherent_block_paths([faint], times, p).block == coherent_block_path(faint, times, p).block


# ---------------------------------------------------------------------------
# Failure paths.
# ---------------------------------------------------------------------------

def entries(a=0.75, d=0.25, b=0.2 + 0.1j, m=5):
    return BlockEntries(a, d, np.full(m, b, dtype=complex), (0, 1))


class TestValidateBlock:
    def test_populations_off_unit_trace(self):
        with pytest.raises(ValueError, match=r"trace is \(1.0000010+1\+0j\), expected 1"):
            validate_density(entries(a=0.750001))
        with pytest.raises(ValueError, match="trace"):
            validate_density(entries(a=math.nan))
        # a state whose coefficients are not normalized
        state0 = CoherentBranches([1.0, 1e-3, 0.0, 0.0], (1, -1, 0, 0), 2.0)
        times = np.linspace(0.0, 1.0, 9)
        with pytest.raises(ValueError, match=r"trace is \(1.000001\+0j\), expected 1"):
            eigen_path(times, coherent_block_path(state0, times, ModelParams(omega=1.0, alpha=2.0)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.1, -math.inf)])
    def test_non_finite_coherence(self, bad):
        e = entries()
        e.b[3] = bad
        with pytest.raises(ValueError, match="non-finite coherence"):
            validate_density(e)
        with pytest.raises(ValueError, match="non-finite coherence"):
            eigen_path(np.linspace(0.0, 1.0, 5), e)

    def test_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            validate_density(entries(b=0.5))

    def test_coherences_per_time(self):
        with pytest.raises(ValueError, match="expected 4 coherences"):
            eigen_path(np.linspace(0.0, 1.0, 4), entries())

    @pytest.mark.parametrize("verb", ["phase", "evolve"])
    @pytest.mark.parametrize("damage, message", [
        (lambda e: e._replace(a=e.a + 1e-6), "trace is"),
        (lambda e: e._replace(b=np.where(np.arange(e.b.size) == 1, np.nan, e.b)), "non-finite coherence"),
    ], ids=["trace", "coherence"])
    def test_cli_exits_1(self, tmp_path, monkeypatch, capsys, verb, damage, message):
        exact = cli.coherent_block_path
        monkeypatch.setattr(cli, "coherent_block_path", lambda *a: damage(exact(*a)))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": "micro_micro", "omega": 1.0, "lambda_c": 0.001,
                                   "alpha": 1.0, "eta0": 0.3}))
        assert cli.main([verb, "--config", str(cfg), "--steps", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
