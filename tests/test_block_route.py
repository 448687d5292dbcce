"""The two-state route against the 4x4 route, bit for bit.

A state that occupies at most two basis states (every named scenario, and
`general` with one or two nonzero coefficients) has its path built from its
block's entries: coherent_block_path, checked by validate_block. Any state
can also take the 4x4 route, coherent_rho_path checked by validate_density.
On a seeded box of such configs both routes give the same Frames, EigenPath,
refinement, converge_phase result and evolve columns, to the last bit.

`assert_routes_agree` and `draw_configs` also serve a larger draw than this
module's:

    PYTHONPATH=src:tests python -c "import test_block_route as t; t.check_draw(2024, 2000)"
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from becphase import cli, density, geomphase
from becphase.density import (
    BlockEntries,
    coherent_block_path,
    coherent_rho_path,
    eigen_path,
    validate_block,
    validate_density,
)
from becphase.dynamics import MAX_ALPHA, CoherentBranches, general_initial
from becphase.geomphase import ConvergenceError
from becphase.model import ModelParams, quasicycle_period

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


def stack_route(state0, times, p):
    """cli.density_path on the 4x4 route, whatever the occupation."""
    return cli.coherent_rho_path(state0, times, p)


def assert_routes_agree(doc: dict) -> None:
    """The block route and the 4x4 route on one config: Frames, EigenPath and
    its refinement on the config's grid, converge_phase from it and every
    evolve column."""
    cfg = cli.parse_config(json.dumps(doc))
    state0, p = cli.initial_branches(cfg), cfg.params
    assert np.count_nonzero(state0.coeffs) <= 2
    times = np.linspace(0.0, quasicycle_period(p), cfg.n_steps + 1)
    entries = cli.density_path(state0, times, p)
    assert isinstance(entries, BlockEntries)
    stack = coherent_rho_path(state0, times, p)
    assert_same_frames(validate_block(entries), validate_density(stack))
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
        mp.setattr(cli, "density_path", stack_route)
        reference = [outcome(run, cfg) for run in (cli.compute_phase, cli.run_evolve)]
    assert_same_phase(route[0], reference[0])
    assert_same_table(route[1], reference[1])


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
# Failure paths.
# ---------------------------------------------------------------------------

def entries(a=0.75, d=0.25, b=0.2 + 0.1j, m=5):
    return BlockEntries(a, d, np.full(m, b, dtype=complex), (0, 1))


class TestValidateBlock:
    def test_populations_off_unit_trace(self):
        with pytest.raises(ValueError, match=r"trace is \(1.0000010+1\+0j\), expected 1"):
            validate_block(entries(a=0.750001))
        with pytest.raises(ValueError, match="trace"):
            validate_block(entries(a=math.nan))
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
            validate_block(e)
        with pytest.raises(ValueError, match="non-finite coherence"):
            eigen_path(np.linspace(0.0, 1.0, 5), e)

    def test_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            validate_block(entries(b=0.5))

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
