"""Kinematic phase, grid convergence and the closed forms.

`check_schedule_draw` also serves a larger draw than this module's:

    PYTHONPATH=src:tests python -c "import test_geomphase as t; t.check_schedule_draw(2024, 2000, 300)"
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from becphase import (
    ConvergenceError,
    ModelParams,
    Scenario,
    analytic_path_builder,
    bell_initial,
    coherent_rho_path,
    concurrence_wootters,
    converge_phase,
    decay_phase,
    eigen_path,
    embed_frames,
    kinematic_phase,
    oracle_rho_path,
    parse_config,
    phase_macro_closed,
    phase_micro_micro_closed,
    phase_trace,
    quasicycle_period,
    weak_coupling_phase,
    weak_coupling_phase_limit,
)
from becphase import density, geomphase
from becphase.cli import RunConfig, compute_phase, initial_branches, path_builder
from becphase.geomphase import PHASE_TOL, PhaseResult, _accept, refining_path_builder, romberg_acceptance
from hypothesis import given, settings, strategies as st

import test_block_route as block_route
from oracles import (
    BLOCKING_CODES,
    converge_phase_h2,
    converge_phase_levels,
    factorization_functions,
    local_unitary,
    numpy_unwrapped_span,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
TWO_PI = 2 * math.pi


def micro_path(eta0, p, n_steps=2048):
    return analytic_path_builder(Scenario.MICRO_MICRO, eta0, p)(n_steps)


def smooth_branch_vectors(eta0, p, times):
    """Closed-form leading eigenvector in an explicitly smooth gauge."""
    lam, gam = decay_phase(Scenario.MICRO_MICRO, p, times)
    s2 = math.sin(2 * eta0) ** 2
    e = np.sqrt(1 + s2 * (np.exp(-2 * gam) - 1))
    c2e = math.cos(2 * eta0)
    ct = np.sqrt((e + c2e) / (2 * e))
    st = np.sqrt((e - c2e) / (2 * e))
    v = np.zeros((times.size, 2), dtype=complex)
    v[:, 0] = ct
    v[:, 1] = st * np.exp(-1j * lam)
    return v


def finite_difference_phase(eta0, p, n=120000):
    """Independent evaluation: arg<v(0)|v(tau)> - Im int <v|dv/dt> dt by
    central differences and the trapezoid rule, in the smooth gauge."""
    tau = quasicycle_period(p)
    times = np.linspace(0.0, tau, n + 1)
    v = smooth_branch_vectors(eta0, p, times)
    vdot = np.gradient(v, times, axis=0)
    connection = np.einsum("ma,ma->m", v.conj(), vdot).imag
    berry = np.trapezoid(connection, times)
    overlap = v @ v[0].conj()
    tracked = np.unwrap(np.angle(overlap))
    return float(tracked[-1] - tracked[0] - berry)


class TestKinematicPhase:
    def test_constant_path_gives_zero(self):
        rho = np.diag([0.55, 0.45, 0.0, 0.0]).astype(complex)
        times = np.linspace(0, 1, 65)
        path = eigen_path(times, np.broadcast_to(rho, (65, 4, 4)).copy())
        res = kinematic_phase(path)
        assert res.unwrapped == pytest.approx(0.0, abs=1e-12)
        assert res.principal == pytest.approx(0.0, abs=1e-12)

    def test_principal_consistent_with_unwrapped(self):
        p = ModelParams(omega=1.0, lambda_c=0.05, alpha=1.5)
        res = kinematic_phase(micro_path(0.6, p))
        delta = (res.unwrapped - res.principal) / TWO_PI
        assert delta == pytest.approx(round(delta), abs=1e-9)

    def test_zero_coupling_pure_state_value(self):
        # decoupled qubits precess twice around the quasicycle: 4 pi sin^2(eta0)
        p = ModelParams(omega=1.0, lambda_c=0.0, alpha=1.0)
        for eta0 in (0.3, 0.6):
            res = converge_phase(analytic_path_builder(Scenario.MICRO_MICRO, eta0, p), 1024)
            assert res.unwrapped == pytest.approx(4 * math.pi * math.sin(eta0) ** 2, abs=1e-6)

    def test_matches_finite_difference_functional(self):
        p = ModelParams(omega=1.0, lambda_c=0.1, alpha=1.0)
        eta0 = 0.55
        res = converge_phase(analytic_path_builder(Scenario.MICRO_MICRO, eta0, p), 2048)
        assert res.unwrapped == pytest.approx(finite_difference_phase(eta0, p), abs=2e-5)

    def test_gauge_invariance(self):
        rng = np.random.default_rng(11)
        p = ModelParams(omega=1.0, lambda_c=0.07, alpha=1.3)
        path = micro_path(0.65, p, 1024)
        base = kinematic_phase(path)
        frames = embed_frames(path.frames)
        rephased = frames.vectors * np.exp(
            1j * rng.uniform(-math.pi, math.pi, size=(path.times.size, 1, 4))
        )
        res = kinematic_phase(replace(path, frames=frames._replace(vectors=rephased)))
        assert abs(res.unwrapped - base.unwrapped) < 1e-9
        assert np.max(np.abs(res.per_branch - base.per_branch)) < 1e-9

    def test_zero_weight_branch_contributes_nothing(self):
        p = ModelParams(omega=1.0, lambda_c=0.05, alpha=1.0)
        path = micro_path(0.4, p, 512)
        res = kinematic_phase(path)
        assert abs(res.per_branch[1]) == pytest.approx(0.0, abs=1e-12)

    def test_null_branch_link_of_modulus_zero_changes_nothing(self):
        # inside a pure state's null subspace a branch may jump to an
        # orthogonal vector; its link is then exactly 0 and must neither
        # poison the sum nor count as the smallest live link
        path = path_builder(config("general"))(256)
        null = np.flatnonzero(path.values[0] <= density.SUPPORT_TOL)
        assert null.size
        vectors = path.frames.vectors.copy()
        for m, basis in ((5, 0), (6, 1)):
            vectors[m, :, path.columns[m, null[0]]] = np.eye(4)[basis]
        jumped = replace(path, frames=path.frames._replace(vectors=vectors))
        assert_same_result(kinematic_phase(jumped), kinematic_phase(path))

    def test_null_branch_rounding_gets_no_weight(self):
        # eps(0) at or below SUPPORT_TOL is a pure state's null eigenvalue
        # in rounding; above it the branch weighs sqrt(eps(0) eps(tau))
        p = ModelParams(omega=1.0, lambda_c=0.05, alpha=1.0)
        path = micro_path(0.4, p, 512)
        for eps0, null in ((5e-17, True), (1e-12, True), (2e-12, False)):
            values = path.frames.values.copy()
            values[0, path.columns[0, 1]] = eps0
            res = kinematic_phase(replace(path, frames=path.frames._replace(values=values)))
            assert (res.per_branch[1] == 0.0) == null

    def test_grid_convergence_at_least_linear(self):
        p = ModelParams(omega=1.0, j_vdw=0.1, lambda_c=0.125, alpha=1.1)
        for scenario, eta0 in (
            (Scenario.MICRO_MICRO, 0.6),
            (Scenario.MACRO_BOTH, 0.6),
            (Scenario.MACRO_SINGLE, 0.6),
        ):
            build = analytic_path_builder(scenario, eta0, p)
            phases = [kinematic_phase(build(n)).unwrapped for n in (256, 512, 1024)]
            d1 = abs(phases[1] - phases[0])
            d2 = abs(phases[2] - phases[1])
            assert d2 < 0.6 * d1

    def test_error_estimate_reported(self):
        p = ModelParams(omega=1.0, lambda_c=0.05, alpha=1.0)
        res = converge_phase(analytic_path_builder(Scenario.MICRO_MICRO, 0.5, p))
        assert res.error_estimate is not None
        assert res.error_estimate < PHASE_TOL
        assert abs(res.unwrapped - phase_micro_micro_closed(0.5, p)) < PHASE_TOL

    def test_moderate_coupling_regression(self):
        # frozen from a converged run (tolerance 1e-8, cross-checked against
        # the closed-form quadrature below)
        p = ModelParams(omega=1.0, lambda_c=0.05, alpha=2.0)
        res = converge_phase(analytic_path_builder(Scenario.MICRO_MICRO, math.pi / 6, p), 2048)
        assert res.unwrapped == pytest.approx(2.842779661492137, abs=1e-6)

    def test_oracle_and_analytic_paths_agree(self):
        p = ModelParams(omega=1.0, j_vdw=0.05, omega_b=0.8, chi=0.002, lambda_c=0.08, alpha=1.2)
        eta0 = 0.45
        tau = quasicycle_period(p)
        state0 = bell_initial(eta0, p).fock()

        def build(n, coarse=None):  # every level from scratch
            times = np.linspace(0.0, tau, n + 1)
            return eigen_path(times, oracle_rho_path(state0, times, p))

        kin_oracle = converge_phase(build, 2048)
        kin_analytic = converge_phase(analytic_path_builder(Scenario.MICRO_MICRO, eta0, p), 2048)
        assert kin_oracle.unwrapped == pytest.approx(kin_analytic.unwrapped, abs=1e-6)

    def test_convergence_error(self, monkeypatch):
        # a small start doubles up to MAX_STEPS, however many doublings that takes
        monkeypatch.setattr(geomphase, "MAX_STEPS", 64)
        p = ModelParams(omega=1.0, lambda_c=0.05, alpha=1.0)
        inner = analytic_path_builder(Scenario.MICRO_MICRO, 0.5, p)
        built = []

        def build(n, coarse=None):
            built.append(n)
            return inner(n, coarse)

        with pytest.raises(ConvergenceError, match="within 4 doublings"):
            converge_phase(build, 4, phase_tol=1e-30)
        assert built == [8, 16, 32, 64]

    def test_phase_trace_starts_at_zero(self):
        p = ModelParams(omega=1.0, lambda_c=0.05, alpha=1.0)
        trace = phase_trace(micro_path(0.5, p, 256))
        assert trace[0] == pytest.approx(0.0, abs=1e-12)
        assert trace.shape == (257,)


def config(name):
    return parse_config((CONFIG_DIR / f"{name}.json").read_text())


class TestOriginWarning:
    """phase-origin-crossing where the path sum comes within
    ORIGIN_WARNING_RATIO of zero, relative to its largest modulus."""

    @staticmethod
    def dipping_path(dip):
        # one live branch, cos theta |00> + sin theta |11> with theta rising
        # to acos(dip) and back: every link is real and positive, so the
        # path sum is cos theta, real, positive and down to dip at mid-path
        times = np.linspace(0.0, 1.0, 65)
        theta = math.acos(dip) * np.sin(math.pi * times)
        psi = np.zeros((times.size, 4), dtype=complex)
        psi[:, 0], psi[:, 3] = np.cos(theta), np.sin(theta)
        return eigen_path(times, psi[:, :, None] * psi[:, None, :].conj())

    @pytest.mark.parametrize("dip, flagged", [(1e-7, True), (1e-5, False)])
    def test_a_dip_of_the_path_sum(self, dip, flagged):
        path = self.dipping_path(dip)
        sums, _, _ = geomphase._branch_sums(path)
        assert np.all(sums.real > 0.0) and np.all(sums.imag == 0.0)
        assert abs(sums).min() / abs(sums).max() == pytest.approx(dip, rel=1e-6)
        codes = [w.split(":")[0] for w in kinematic_phase(path).warnings]
        assert "coarse-grid" not in codes
        assert ("phase-origin-crossing" in codes) is flagged


# Angles as np.angle returns them and beyond, with the endpoints and zeros
# whose differences are steps of exactly +-pi, +-2 pi and 0.
ANGLES = st.one_of(
    st.floats(-math.pi, math.pi),
    st.floats(-20.0, 20.0),
    st.sampled_from([math.pi, -math.pi, 0.0, -0.0, math.pi / 2, -math.pi / 2]),
)


class TestUnwrappedSpan:
    """geomphase._unwrapped_span corrects only the steps of at least pi and
    equals the span of np.unwrap bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(ANGLES, min_size=2, max_size=40))
    def test_equals_numpy_unwrap(self, angles):
        ang = np.array(angles)
        span = geomphase._unwrapped_span(ang, np.diff(ang))
        assert span.hex() == numpy_unwrapped_span(ang, None).hex()

    @pytest.mark.parametrize(
        "ang",
        [
            [0.0, math.pi],
            [math.pi, 0.0],
            [-math.pi, math.pi],
            [0.0, -math.pi, 0.0, math.pi],
            # a quarter of the steps wrap: their corrections are summed in order
            np.random.default_rng(23).uniform(-math.pi, math.pi, 4097),
        ],
    )
    def test_steps_of_exactly_pi_and_many_wraps(self, ang):
        ang = np.array(ang)
        assert geomphase._unwrapped_span(ang, np.diff(ang)) == numpy_unwrapped_span(ang, None)

    @staticmethod
    def counting_reference(monkeypatch):
        """Replace _unwrapped_span by np.unwrap's span; the returned list
        gets the number of steps that wrap in each series."""
        wraps = []

        def reference(ang, dd):
            wraps.append(int(np.count_nonzero(np.abs(np.diff(ang)) >= math.pi)))
            return numpy_unwrapped_span(ang, dd)

        monkeypatch.setattr(geomphase, "_unwrapped_span", reference)
        return wraps

    def test_kinematic_phase_on_the_shipped_paths(self, monkeypatch):
        paths = []
        for name in ("micro_micro", "macro_both", "macro_single", "general"):
            cfg = config(name)
            build = path_builder(cfg)
            paths += [build(n) for n in (8, cfg.n_steps, 2 * cfg.n_steps)]
        results = [kinematic_phase(path) for path in paths]
        wraps = self.counting_reference(monkeypatch)
        for path, res in zip(paths, results):
            assert_same_result(res, kinematic_phase(path))
        assert max(wraps) > 0

    def test_closed_form_where_its_overlap_winds(self, monkeypatch):
        # above eta0 ~ pi/4 the overlap winds around the origin
        p = ModelParams(omega=1.0, lambda_c=0.1, alpha=6.0)
        eta0s = [0.3, math.pi / 4, math.pi / 4 + 1e-7, 1.2]
        values = [phase_micro_micro_closed(eta0, p) for eta0 in eta0s]
        wraps = self.counting_reference(monkeypatch)
        assert values == [phase_micro_micro_closed(eta0, p) for eta0 in eta0s]
        assert max(wraps) > 0


def assert_same_path(a, b):
    for name in ("times", "columns", "values", "vectors"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.flags == b.flags
    assert np.array_equal(a.frames.values, b.frames.values)
    assert np.array_equal(a.frames.vectors, b.frames.vectors)
    assert a.frames.block == b.frames.block


class TestExtrapolatedConvergence:
    def test_micro_micro_accepted_at_512(self):
        # settled on its first path: levels 128, 256 and 512 from one build
        cfg = config("micro_micro")
        res = compute_phase(cfg)
        assert res.n_steps == 512
        assert res.error_estimate < cfg.phase_tol
        assert abs(res.unwrapped - phase_micro_micro_closed(cfg.eta0, cfg.params)) < 1e-10
        turns = (res.unwrapped - res.principal) / TWO_PI
        assert turns == pytest.approx(round(turns), abs=1e-12)

    def test_flagged_path_falls_back_to_plain_doubling(self):
        # general.json carries branch-ambiguity, so the plain rule decides:
        # the raw phase of the finest grid and the last doubling delta
        cfg = config("general")
        res = compute_phase(cfg)
        assert any(w.startswith("branch-ambiguity") for w in res.warnings)
        assert res.n_steps == 16384
        fine = kinematic_phase(path_builder(cfg)(res.n_steps))
        half = kinematic_phase(path_builder(cfg)(res.n_steps // 2))
        assert res.unwrapped == fine.unwrapped
        assert res.principal == fine.principal
        assert res.error_estimate == abs(fine.unwrapped - half.unwrapped)

    def test_no_grid_beyond_the_step_limit(self, monkeypatch):
        p = ModelParams(omega=1.0, lambda_c=0.05, alpha=1.0)
        inner = analytic_path_builder(Scenario.MICRO_MICRO, 0.5, p)
        built = []

        def build(n, coarse=None):
            built.append(n)
            return inner(n, coarse)

        with pytest.raises(ConvergenceError, match="within 2097152 steps"):
            converge_phase(build, 2**50)
        assert built == []
        monkeypatch.setattr(geomphase, "MAX_STEPS", 1024)
        with pytest.raises(ConvergenceError, match="at 1024 of at most 1024 steps"):
            converge_phase(build, 256, phase_tol=1e-30)
        assert built == [512, 1024]

    def test_small_start_is_bounded_by_the_step_limit_alone(self):
        # from 2 steps this run needs 16 doublings, more than a start of 256
        # would leave below MAX_STEPS; it ends where the default start ends
        doc = {
            "scenario": "macro_both", "omega": 0.028053643775901645,
            "j_vdw": -0.015449855224270781, "lambda_c": 0.37243639496520375,
            "alpha": [0.27241172265553876, -3.5992871023950954], "eta0": 1.4190018173883652,
            "grid": {"phase_tol": 1.0393322148500854e-08},
        }
        cfg = parse_config(json.dumps(doc))
        res = converge_phase(path_builder(cfg), 2, cfg.phase_tol)
        assert res.n_steps == 131072
        assert_same_result(res, compute_phase(cfg))

    def test_unreachable_tolerance_still_raises(self, monkeypatch):
        monkeypatch.setattr(geomphase, "MAX_STEPS", 16384)
        p = ModelParams(omega=1.0, lambda_c=0.05, alpha=1.0)
        build = analytic_path_builder(Scenario.MICRO_MICRO, 0.5, p)
        with pytest.raises(ConvergenceError):
            converge_phase(build, 2048, phase_tol=1e-30)

    def test_refined_path_equals_scratch(self):
        p = ModelParams(omega=1.0, lambda_c=0.05, alpha=1.0)
        cfg = config("general")
        for build in (analytic_path_builder(Scenario.MICRO_MICRO, 0.5, p), path_builder(cfg)):
            coarse = build(512)
            for n in (1024, 2048, 4096):
                refined = build(n, coarse=coarse)
                assert_same_path(refined, build(n))
                coarse = refined

    @pytest.mark.parametrize("name", ["micro_micro", "general"])
    def test_builder_keeps_no_state(self, name):
        # repeated and out-of-order calls give the paths of a fresh builder
        cfg = config(name)
        build = path_builder(cfg)
        coarse = build(512)
        for n in (1024, 1024, 256, 4096, 2048):
            assert_same_path(build(n), path_builder(cfg)(n))
            assert_same_path(build(1024, coarse=coarse), path_builder(cfg)(1024))

    @pytest.mark.parametrize("name", ["micro_micro", "general"])
    def test_each_doubling_refines_the_last_level(self, name):
        cfg = config(name)
        if name == "micro_micro":  # settles on its first path at its own tolerance
            cfg = replace(cfg, phase_tol=1e-10)
        inner = path_builder(cfg)
        calls = []

        def build(n, coarse=None):
            path = inner(n, coarse)
            calls.append((n, coarse, path))
            return path

        def scratch(n, coarse=None):  # ignores coarse
            return inner(n)

        res = converge_phase(build, cfg.n_steps, cfg.phase_tol)
        assert len(calls) >= 2
        assert calls[0][:2] == (2 * cfg.n_steps, None)
        for (n, _, last), (m, coarse, _) in zip(calls, calls[1:]):
            assert m == 2 * n and coarse is last
        assert res.n_steps == calls[-1][0]
        assert_same_result(res, converge_phase(scratch, cfg.n_steps, cfg.phase_tol))


def counting_builder(cfg, calls):
    """path_builder(cfg) with the points of every density evaluation and
    every decomposition recorded in calls["rho"] and calls["decompose"]."""
    state0 = initial_branches(cfg)

    def rho_path(times):
        calls["rho"].append(times.size)
        return coherent_rho_path(state0, times, cfg.params)

    def decompose(times, rhos, coarse=None):
        calls["decompose"].append(times.size)
        return eigen_path(times, rhos, degeneracy_tol=cfg.degeneracy_tol, coarse=coarse)

    return refining_path_builder(quasicycle_period(cfg.params), rho_path, decompose)


def assert_same_result(a, b):
    for name in ("principal", "unwrapped", "n_steps", "error_estimate", "warnings"):
        assert getattr(a, name) == getattr(b, name), name
    assert np.array_equal(a.per_branch, b.per_branch)


def record_steps(monkeypatch, name):
    """Wrap geomphase's function of a path `name`; returns the list of the
    step counts of the paths it is called on."""
    steps = []
    inner = getattr(geomphase, name)

    def wrapper(path, *args, **kwargs):
        steps.append(path.n_steps)
        return inner(path, *args, **kwargs)

    monkeypatch.setattr(geomphase, name, wrapper)
    return steps


class TestFirstTwoLevels:
    """converge_phase builds the 2n grid once and takes level n, and the
    pre-levels below it, from its even points."""

    @pytest.mark.parametrize("name, levels, density_points", [
        ("macro_both", 2, [513]),
        ("micro_micro", 3, [513]),
    ])
    def test_density_and_decomposition_calls(self, monkeypatch, name, levels, density_points):
        # levels: the levels judged, 2n and n plus micro_micro's n / 2
        checked = []
        validate_density = density.validate_density

        def counting_validate_density(rho):
            checked.append(len(rho))
            return validate_density(rho)

        monkeypatch.setattr(density, "validate_density", counting_validate_density)
        judged = record_steps(monkeypatch, "kinematic_phase")
        cfg = config(name)
        calls = {"rho": [], "decompose": []}
        res = converge_phase(counting_builder(cfg, calls), cfg.n_steps, cfg.phase_tol)
        assert res.n_steps == 2 * cfg.n_steps
        assert sorted(judged, reverse=True) == [2 * cfg.n_steps >> k for k in range(levels)]
        assert calls == {"rho": density_points, "decompose": density_points}
        assert checked == density_points

    @pytest.mark.parametrize("name, n_start, degeneracy_tol", [
        ("micro_micro", None, None), ("macro_both", None, None), ("macro_single", None, None),
        ("general", None, None), ("micro_micro", 2, None), ("macro_both", 2, None),
        ("macro_single", 2, None), ("general", 2, None),
        # every level flags at the config's tolerance: at 0 general's
        # pre-levels carry no branch-ambiguity, and it settles at 512 steps
        # (at 1,024 when they were flagged at 1e-9)
        ("micro_micro", None, 0.0), ("macro_single", 2, 0.0), ("general", None, 0.0),
        ("general", 2, 0.0),
    ])
    def test_equals_levels_built_separately(self, name, n_start, degeneracy_tol):
        cfg = config(name)
        if degeneracy_tol is not None:
            cfg = replace(cfg, degeneracy_tol=degeneracy_tol)
        n_start = n_start or cfg.n_steps
        res = converge_phase(path_builder(cfg), n_start, cfg.phase_tol)
        assert_same_result(res, converge_phase_levels(path_builder(cfg), n_start, cfg.phase_tol))

    def test_equals_levels_built_separately_on_random_paths(self):
        rng = np.random.default_rng(16)
        for scenario in (Scenario.MICRO_MICRO, Scenario.MACRO_BOTH, Scenario.MACRO_SINGLE) * 2:
            p = ModelParams(
                omega=1.0,
                j_vdw=rng.uniform(0.0, 0.1),
                lambda_c=rng.uniform(0.005, 0.2),
                alpha=rng.uniform(0.3, 3.0) * np.exp(1j * rng.uniform(-math.pi, math.pi)),
            )
            eta0 = rng.uniform(0.15, 1.4)
            n_start = int(rng.choice([2, 16, 256]))
            res = converge_phase(analytic_path_builder(scenario, eta0, p), n_start)
            ref = converge_phase_levels(analytic_path_builder(scenario, eta0, p), n_start)
            assert_same_result(res, ref)

    def test_same_convergence_error(self, monkeypatch):
        monkeypatch.setattr(geomphase, "MAX_STEPS", 128)
        build = path_builder(config("micro_micro"))
        for converge in (converge_phase, converge_phase_levels):
            with pytest.raises(ConvergenceError):
                converge(build, 16, phase_tol=1e-30)


def general_configs(seed: int, count: int) -> list[dict]:
    """count general configs of test_block_route's box on 3 and 4 occupied
    states in turn, with |alpha| up to 20."""
    rng = np.random.default_rng(seed)
    docs = []
    for k in range(count):
        doc = block_route.config_doc(rng, "general", 0.0, True, alpha_abs=20.0 * rng.uniform() ** 2)
        coeffs = np.zeros(4, dtype=complex)
        occupied = rng.choice(4, 3 + k % 2, replace=False)
        coeffs[occupied] = rng.normal(size=occupied.size) + 1j * rng.normal(size=occupied.size)
        coeffs /= np.linalg.norm(coeffs)
        doc["coefficients"] = [[c.real, c.imag] for c in coeffs.tolist()]
        docs.append(doc)
    return docs


def check_schedule_draw(seed: int, count: int, general: int) -> None:
    """compute_phase against oracles.converge_phase_levels, which builds
    every level with its own build_path call, on test_block_route's
    draw_configs(seed, count) and general_configs(seed, general) at
    test_block_route.MAX_STEPS: the results bit for bit, or
    the types of the errors. Every warning of every level that
    converge_phase judges starts with one of oracles.BLOCKING_CODES, so a
    new warning code fails here until blocking is decided for it. Prints a
    summary."""
    docs = block_route.draw_configs(seed, count)
    docs += general_configs(seed, general)
    seen = set()
    inner = geomphase.kinematic_phase

    def recording(path, *args, **kwargs):
        res = inner(path, *args, **kwargs)
        seen.update(w.split(":")[0] for w in res.warnings)
        return res

    def run(converge, *args):
        try:
            return converge(*args)
        except (ValueError, ConvergenceError) as exc:
            return type(exc)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geomphase, "MAX_STEPS", block_route.MAX_STEPS)
        mp.setattr(geomphase, "kinematic_phase", recording)
        for doc in docs:
            cfg = parse_config(json.dumps(doc))
            got = run(compute_phase, cfg)
            want = run(converge_phase_levels, path_builder(cfg), cfg.n_steps, cfg.phase_tol)
            if got is not want:
                try:
                    assert isinstance(got, PhaseResult) and isinstance(want, PhaseResult), (got, want)
                    block_route.assert_same_phase(got, want)
                except AssertionError:
                    print(json.dumps(doc))
                    raise
    assert all(code.startswith(BLOCKING_CODES) for code in seen), seen
    print(f"{len(docs)} configs: the schedule equals levels built separately; warning codes {sorted(seen)}")


def test_schedule_draw():
    check_schedule_draw(31, 60, 12)


class TestPreLevels:
    """Before its first refinement, converge_phase takes the levels n / 2
    and n / 4 from every fourth and eighth point of its first path; the
    levels judged are those that kinematic_phase is called on."""

    @pytest.mark.parametrize("name, phase_tol", [("macro_both", None), ("micro_micro", 1e-3)])
    def test_settled_first_levels_take_no_pre_level(self, monkeypatch, name, phase_tol):
        # macro_both's two levels agree to rounding; micro_micro's 256- and
        # 512-step levels, unflagged, agree to 2.5e-4
        cfg = config(name)
        cfg = replace(cfg, phase_tol=phase_tol or cfg.phase_tol)
        judged = record_steps(monkeypatch, "kinematic_phase")
        res = converge_phase(path_builder(cfg), cfg.n_steps, cfg.phase_tol)
        assert judged == [2 * cfg.n_steps, cfg.n_steps]
        ref = converge_phase_levels(path_builder(cfg), cfg.n_steps, cfg.phase_tol, pre_levels=0)
        assert_same_result(res, ref)
        assert res.n_steps == 2 * cfg.n_steps

    def test_pre_level_with_coarse_grid_is_not_used(self, monkeypatch):
        # 32 and 16 steps are unflagged and unsettled; 8 steps is coarse-grid
        p = ModelParams(omega=1.0, lambda_c=0.2, alpha=1.0)
        build = analytic_path_builder(Scenario.MICRO_MICRO, 0.3, p)
        codes = [[w.split(":")[0] for w in kinematic_phase(build(n)).warnings] for n in (8, 16, 32)]
        assert codes == [["coarse-grid"], [], []]
        res = converge_phase(build, 16)
        assert_same_result(res, converge_phase_levels(build, 16, pre_levels=0))
        # used, the 8-step level would have settled the run on fewer steps
        inner = geomphase.kinematic_phase

        def unwarned_at_8(path, *args, **kwargs):
            res = inner(path, *args, **kwargs)
            if path.n_steps != 8:
                return res
            return replace(res, warnings=tuple(w for w in res.warnings if not w.startswith("coarse-grid")))

        monkeypatch.setattr(geomphase, "kinematic_phase", unwarned_at_8)
        assert converge_phase(build, 16).n_steps < res.n_steps

    def raise_at(self, monkeypatch, n_steps):
        """geomphase.kinematic_phase raising ConvergenceError on the level of
        n_steps; returns the step counts of the levels judged."""
        inner = geomphase.kinematic_phase

        def raising(path, *args, **kwargs):
            if path.n_steps == n_steps:
                raise ConvergenceError("vanishing neighbor overlap: grid cannot resolve the path")
            return inner(path, *args, **kwargs)

        monkeypatch.setattr(geomphase, "kinematic_phase", raising)
        return record_steps(monkeypatch, "kinematic_phase")

    def test_pre_level_that_raises_is_left_out(self, monkeypatch):
        # micro_micro from 16 steps: the 8-step pre-level raises, so the run
        # refines from its two first levels alone
        cfg = replace(config("micro_micro"), n_steps=16)
        judged = self.raise_at(monkeypatch, 8)
        res = converge_phase(path_builder(cfg), cfg.n_steps, cfg.phase_tol)
        assert judged == [32, 16, 8, 64, 128, 256]
        ref = converge_phase_levels(path_builder(cfg), cfg.n_steps, cfg.phase_tol, pre_levels=0)
        assert_same_result(res, ref)
        assert (res.n_steps, res.unwrapped) == (256, 1.0974052293158165)

    def test_first_path_level_that_raises_ends_the_run(self, monkeypatch):
        cfg = replace(config("micro_micro"), n_steps=16)
        judged = self.raise_at(monkeypatch, 16)
        with pytest.raises(ConvergenceError, match="vanishing neighbor overlap"):
            converge_phase(path_builder(cfg), cfg.n_steps, cfg.phase_tol)
        assert judged == [32, 16]

    def test_doubling_limit_counts_builds_only(self, monkeypatch):
        # micro_micro from 16 steps judges the 8-step pre-level (4 steps is
        # coarse-grid), which is no doubling: the limit and the message count builds
        monkeypatch.setattr(geomphase, "MAX_STEPS", 128)
        cfg = config("micro_micro")
        inner = path_builder(cfg)
        built = []

        def build(n, coarse=None):
            built.append(n)
            return inner(n, coarse)

        judged = record_steps(monkeypatch, "kinematic_phase")
        with pytest.raises(ConvergenceError) as raised:
            converge_phase(build, 16, phase_tol=1e-30)
        assert built == [32, 64, 128]
        assert judged == [32, 16, 8, 4, 64, 128]
        delta = abs(kinematic_phase(inner(128)).unwrapped - kinematic_phase(inner(64)).unwrapped)
        assert str(raised.value) == (
            f"phase did not converge to 1e-30 within 3 doublings "
            f"(last delta {delta:g} at 128 of at most 128 steps)"
        )


def planted_levels(terms, count=24):
    """P_k = sum of c h_k^q over the (c, q) in terms, on h_k = 2^-k."""
    return [sum(c * 0.5 ** (k * q) for c, q in terms) for k in range(count)]


def first_acceptance(levels, phase_tol=PHASE_TOL):
    """The first level that romberg_acceptance accepts, and its verdict."""
    for k in range(1, len(levels)):
        accepted = romberg_acceptance(levels[: k + 1], phase_tol)
        if accepted is not None:
            return k, accepted
    raise AssertionError("no level accepted")


def level_table(values, warned=()):
    """PhaseResults of the unwrapped values, coarsest first on doubling
    grids from 2 steps, with a warning on the levels at the indices warned."""
    return [
        PhaseResult(
            principal=math.remainder(value, TWO_PI),
            unwrapped=value,
            per_branch=np.array([k + 1j]),
            n_steps=2 << k,
            error_estimate=None,
            warnings=("coarse-grid: smallest neighbor overlap modulus 0.5",) if k in warned else (),
        )
        for k, value in enumerate(values)
    ]


class TestAccept:
    """converge_phase's acceptance step on tables of levels alone, with no
    path: Romberg over the unwrapped values, the plain rule on the two
    finest levels under a warning on the finest."""

    def test_settled_table_is_accepted_by_a_romberg_column(self):
        table = level_table(planted_levels([(0.5, 0), (1.0, 2)], count=3))
        res = _accept(table, PHASE_TOL)
        column, value, error = romberg_acceptance([level.unwrapped for level in table], PHASE_TOL)
        assert column == 1
        assert (res.unwrapped, res.error_estimate) == (value, error)
        assert res.unwrapped == pytest.approx(0.5, abs=1e-15)
        finest = table[-1]
        assert (res.n_steps, res.warnings) == (finest.n_steps, ())
        assert res.per_branch is finest.per_branch
        assert res.principal == math.remainder(finest.principal + (value - finest.unwrapped), TWO_PI)

    def test_blocked_levels_take_the_plain_rule(self):
        levels = planted_levels([(0.5, 0), (1.0, 2)], count=14)
        assert _accept(level_table(levels[:3], warned=(2,)), PHASE_TOL) is None
        res = _accept(level_table(levels, warned=(13,)), PHASE_TOL)
        assert res.unwrapped == levels[-1]
        assert res.error_estimate == abs(levels[-1] - levels[-2])
        assert res.warnings == level_table(levels, warned=(13,))[-1].warnings

    def test_a_warning_on_a_coarser_level_does_not_block(self):
        levels = planted_levels([(0.5, 0), (1.0, 2)], count=3)
        assert_same_result(_accept(level_table(levels, warned=(0, 1)), PHASE_TOL),
                           _accept(level_table(levels), PHASE_TOL))

    def test_unsettled_table_gives_none(self):
        assert _accept(level_table([0.0]), PHASE_TOL) is None
        assert _accept(level_table([0.0, 1.0]), PHASE_TOL) is None
        assert _accept(level_table([0.0, 0.5, 0.6]), PHASE_TOL) is None


class TestRombergAcceptance:
    def test_even_polynomial_is_taken_from_the_deepest_column(self):
        # columns 1-3 remove h^2, h^4 and h^6, so column 3 is exact from
        # level 3 on and its parent's deltas shrink by exactly 64
        levels = planted_levels([(1.2345, 0), (0.8, 2), (-0.5, 4), (0.3, 6)])
        k, (column, value, error) = first_acceptance(levels)
        assert (k, column) == (4, 3)
        assert value == pytest.approx(1.2345, abs=1e-13)
        assert error < 1e-13

    def test_pure_h2_accepts_column_1_at_the_third_level(self):
        levels = planted_levels([(0.5, 0), (1.0, 2)])
        k, (column, value, _) = first_acceptance(levels)
        assert (k, column) == (2, 1)
        assert value == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("column", [1, 2, 3])
    @pytest.mark.parametrize("edge", [0, 1])
    def test_each_column_is_taken_only_inside_its_window(self, column, edge):
        # Below column j, h^2 ... h^{2j-2} terms that column j removes keep
        # the plain deltas large; the leftover h^q makes the deltas of
        # column j - 1 shrink by exactly 2^q, set just inside or just outside
        # the edge of column j's window [0.875, 1.125] 4^j.
        bound = (0.875, 1.125)[edge] * 4**column
        inward = 1.0 if edge == 0 else -1.0
        lower = [(1.0, 2 * i) for i in range(1, column)]
        for shift, inside in ((1e-3, True), (-1e-3, False)):
            q = math.log2(bound * (1.0 + inward * shift))
            levels = planted_levels([(0.5, 0), *lower, (1.0, q)])
            assert (first_acceptance(levels)[1][0] == column) is inside, shift

    def test_bitwise_equal_levels_are_settled_to_one_ulp(self):
        assert romberg_acceptance([1.0, 1.0], 1e-30) is None
        assert romberg_acceptance([1.0, 1.0], PHASE_TOL) == (0, 1.0, math.ulp(1.0))

    def test_aliased_coarse_levels_are_not_accepted(self):
        # at alpha = 30 the 256- and 512-step paths are tens of radians off
        p = ModelParams(omega=1.0, lambda_c=0.1, alpha=30.0)
        closed = phase_micro_micro_closed(0.7, p)
        build = analytic_path_builder(Scenario.MICRO_MICRO, 0.7, p)
        for n in (256, 512):
            assert abs(kinematic_phase(build(n)).unwrapped - closed) > 1.0
        res = compute_phase(RunConfig("micro_micro", p, eta0=0.7))
        assert res.n_steps > 512
        assert abs(res.unwrapped - closed) < 1e-9

    def test_alpha_37_at_tight_tolerance(self):
        p = ModelParams(omega=1.0, lambda_c=0.1, alpha=37.0)
        res = compute_phase(RunConfig("micro_micro", p, eta0=0.7, phase_tol=1e-10))
        assert res.n_steps <= 65536
        assert abs(res.unwrapped - phase_micro_micro_closed(0.7, p)) < 1e-10

    def test_agrees_with_the_h2_rule_from_2048_steps(self):
        rng = np.random.default_rng(7)
        for scenario in (Scenario.MICRO_MICRO, Scenario.MACRO_BOTH, Scenario.MACRO_SINGLE) * 4:
            p = ModelParams(
                omega=1.0,
                j_vdw=rng.uniform(0.0, 0.1),
                lambda_c=rng.uniform(0.005, 0.2),
                alpha=rng.uniform(0.3, 3.0) * np.exp(1j * rng.uniform(-math.pi, math.pi)),
            )
            eta0 = rng.uniform(0.15, 1.4)
            new = converge_phase(analytic_path_builder(scenario, eta0, p))
            old = converge_phase_h2(analytic_path_builder(scenario, eta0, p))
            assert abs(new.unwrapped - old.unwrapped) < 2 * PHASE_TOL, (scenario, p, eta0)
            assert abs(math.remainder(new.principal - old.principal, TWO_PI)) < 2 * PHASE_TOL


class TestClosedFormEquivalence:
    def test_quadrature_matches_kinematic_on_grid(self, monkeypatch):
        # 20-point (eta0, lambda/omega) equivalence of the one-branch closed
        # form and the discretized path functional
        monkeypatch.setattr(geomphase, "N_QUAD", 8192)
        for eta0 in (0.15, 0.35, 0.55, 0.7, 1.0):
            for lam in (0.01, 0.05, 0.1, 0.2):
                p = ModelParams(omega=1.0, lambda_c=lam, alpha=1.0)
                kin = converge_phase(analytic_path_builder(Scenario.MICRO_MICRO, eta0, p), 2048)
                closed = phase_micro_micro_closed(eta0, p)
                assert abs(kin.unwrapped - closed) < 1e-6, (eta0, lam)

    @pytest.mark.parametrize("alpha", [20.0, 30.0])
    def test_matches_converged_phase_at_large_decay(self, alpha):
        # Gamma reaches 2 |alpha|^2 here; the mixing angle must not lose
        # digits to 1 - sin^2 2 eta0 (1 - e^{-2 Gamma})
        p = ModelParams(omega=1.0, lambda_c=0.1, alpha=alpha)
        kin = compute_phase(RunConfig("micro_micro", p, eta0=0.7, phase_tol=1e-10))
        assert abs(kin.unwrapped - phase_micro_micro_closed(0.7, p)) < 1e-10

    def test_quarter_pi_at_large_decay_is_finite_and_exact(self):
        # 21.991159383076784243 is the same Simpson sum and tracked argument
        # evaluated with 50-digit mpmath arithmetic
        p = ModelParams(omega=1.0, lambda_c=0.1, alpha=6.0)
        with np.errstate(all="raise"):
            closed = phase_micro_micro_closed(math.pi / 4, p)
        assert closed == pytest.approx(21.991159383076784243, rel=1e-14)

    def test_null_branch_near_the_alpha_cap_adds_nothing(self):
        # the pure initial state's null eigenvalue, a few 1e-17, once moved
        # the phase by 1.3e-9 through its weight sqrt(eps(0) eps(tau))
        p = ModelParams(omega=1.0, lambda_c=1e-3, alpha=37.5)
        kin = compute_phase(RunConfig("micro_micro", p, eta0=0.75))
        assert abs(kin.unwrapped - phase_micro_micro_closed(0.75, p)) < 1e-12

    def test_zero_mixing_gives_zero(self):
        p = ModelParams(omega=1.0, lambda_c=0.05, alpha=1.0)
        assert phase_micro_micro_closed(0.0, p) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("p", [
        ModelParams(omega=1.0, lambda_c=0.1, alpha=6.0),  # the overlap winds above ~pi/4
        ModelParams(omega=1.0, lambda_c=1e-3, alpha=0.6 - 0.8j),
        ModelParams(omega=0.7, j_vdw=0.2, lambda_c=0.3, alpha=2.0 + 1.5j),
    ], ids=["winding", "complex-alpha", "strong"])
    def test_an_array_of_angles_gives_the_bits_of_each_call(self, p):
        # the grid that no angle changes is built once per call; each angle
        # keeps the arithmetic of its own call
        eta0s = [0.0, 5e-324, math.pi / 4 - 1e-9, math.pi / 4, math.pi / 4 + 1e-9,
                 math.pi / 4 + 1e-7, 0.3, 1.2, math.pi / 2,
                 *np.random.default_rng(7).uniform(-math.pi, math.pi, 40).tolist()]
        values = phase_micro_micro_closed(np.array(eta0s), p)
        single = [phase_micro_micro_closed(eta0, p) for eta0 in eta0s]
        assert all(type(value) is float for value in single)
        assert values.dtype == np.float64 and values.tobytes() == np.array(single).tobytes()
        grid = phase_micro_micro_closed(np.array(eta0s[:8]).reshape(2, 4), p)
        assert grid.shape == (2, 4) and grid.ravel().tobytes() == np.array(single[:8]).tobytes()


class TestWeakCouplingLaw:
    def test_printed_law_values(self):
        p = ModelParams(omega=1.0, lambda_c=0.001, alpha=2.0)
        scale = 4 * math.pi * p.lambda_c * 4.0 / p.omega
        assert weak_coupling_phase(0.0, p) == 0.0
        assert weak_coupling_phase(1.0, p) == pytest.approx(scale)
        assert weak_coupling_phase(0.6, p) == pytest.approx(scale * 0.2)

    def test_domain(self):
        p = ModelParams(omega=1.0, lambda_c=0.001, alpha=1.0)
        with pytest.raises(ValueError):
            weak_coupling_phase(1.2, p)
        with pytest.raises(ValueError):
            weak_coupling_phase_limit(-0.1)

    def test_kinematic_follows_limit_form_not_printed_law(self):
        # the path computation rises to 2 pi (1 - sqrt(1 - C^2)); the printed
        # weak-coupling law differs from it by a factor omega/(2 lambda |alpha|^2)
        p = ModelParams(omega=1.0, lambda_c=1e-4 / TWO_PI, alpha=1.0)
        for conc in (0.2, 0.5, 0.9):
            eta0 = 0.5 * math.asin(conc)
            kin = converge_phase(analytic_path_builder(Scenario.MICRO_MICRO, eta0, p), 2048)
            limit = weak_coupling_phase_limit(conc)
            printed = weak_coupling_phase(conc, p)
            assert abs(kin.unwrapped - limit) / limit < 1e-2
            assert abs(kin.unwrapped - printed) / printed > 1e2

    def test_monotone_in_concurrence(self):
        p = ModelParams(omega=1.0, lambda_c=1e-4 / TWO_PI, alpha=1.0)
        values = []
        for conc in np.linspace(0.0, 0.99, 12):
            eta0 = 0.5 * math.asin(conc)
            values.append(
                converge_phase(analytic_path_builder(Scenario.MICRO_MICRO, eta0, p), 1024).unwrapped
            )
        assert np.all(np.diff(values) > 0)


class TestFactorization:
    def test_special_point_values(self):
        p = ModelParams(omega=1.0, lambda_c=0.125, alpha=1.0)
        path = analytic_path_builder(Scenario.MACRO_BOTH, math.pi / 4, p)(4096)
        res = factorization_functions(path)
        a2 = abs(p.alpha) ** 2
        expected_f1 = (1 - math.exp(-a2)) / math.sqrt(1 + math.exp(-2 * a2))
        assert res.f1 == pytest.approx(expected_f1, abs=1e-9)
        assert res.f1 == pytest.approx(0.5932501380357157, abs=1e-9)
        assert res.f2 == pytest.approx(1.0, abs=1e-9)
        assert res.f3 == pytest.approx(1.0, abs=1e-7)
        assert res.phase_part2 == pytest.approx(0.0, abs=1e-9)

    def test_f1_from_endpoint_gaps(self):
        p = ModelParams(omega=1.0, lambda_c=0.125, alpha=1.3)
        path = analytic_path_builder(Scenario.MACRO_BOTH, 0.6, p)(1024)
        res = factorization_functions(path)
        e0, et = path.values[0], path.values[-1]
        assert res.f1 == pytest.approx(
            math.sqrt((e0[1] * et[1]) / (e0[0] * et[0])), abs=1e-12
        )

    def test_pure_path_degenerates(self):
        p = ModelParams(omega=1.0, lambda_c=0.1, alpha=1.0)
        times = np.linspace(0.0, quasicycle_period(p), 257)
        from becphase import analytic_rho_path

        rhos = analytic_rho_path(Scenario.MICRO_MICRO, 0.5, p, times)
        path = eigen_path(times, rhos)
        res = factorization_functions(path)
        assert res.f1 == pytest.approx(0.0, abs=1e-12)
        assert res.phase_part2 == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("name", ["macro_both", "macro_single", "micro_micro"])
    def test_split_reproduces_kinematic_phase(self, name):
        # z_1 / z_0 = F1 F2 F3, so the phase is arg(z_0) + arg(1 + F1 F2 F3)
        cfg = parse_config((CONFIG_DIR / f"{name}.json").read_text())
        for eta0 in (cfg.eta0, 0.5):
            path = path_builder(replace(cfg, eta0=eta0))(cfg.n_steps)
            assert path.n_branches == 2
            res = kinematic_phase(path)
            split = np.angle(res.per_branch[0]) + factorization_functions(path).phase_part2
            assert abs(math.remainder(res.principal - split, TWO_PI)) < 1e-12

    def test_requires_two_branches(self):
        p = ModelParams(omega=1.0, lambda_c=0.0, alpha=1.0)
        path = analytic_path_builder(Scenario.MICRO_MICRO, 0.5, p)(128)
        with pytest.raises(ValueError):
            factorization_functions(path)


class TestMacroClosedForms:
    def test_macro_both_printed_value(self):
        p = ModelParams(omega=1.0, lambda_c=0.125, alpha=1.0)
        res = phase_macro_closed(Scenario.MACRO_BOTH, math.pi / 4, p)
        assert res == pytest.approx(0.53125, abs=1e-12)
        assert isinstance(res, float)

    def test_macro_single_quarter_j(self):
        # J = omega/4 removes the pi term of the printed form
        p = ModelParams(omega=1.0, j_vdw=0.25, lambda_c=0.125, alpha=1.4)
        res = phase_macro_closed(Scenario.MACRO_SINGLE, math.pi / 4, p)
        assert res == pytest.approx(-0.5 * 1.4**2, abs=1e-12)

    def test_macro_single_corrected_variant(self):
        p = ModelParams(omega=1.0, j_vdw=0.1, lambda_c=0.125, alpha=1.0)
        verb = phase_macro_closed(Scenario.MACRO_SINGLE, math.pi / 4, p)
        assert verb == pytest.approx(-math.pi * 0.6 - 0.5, abs=1e-12)

    def test_small_amplitude_limit(self):
        p = ModelParams(omega=1.0, lambda_c=0.125, alpha=1e-4)
        assert phase_macro_closed(Scenario.MACRO_BOTH, math.pi / 4, p) == pytest.approx(
            0.0, abs=1e-7
        )
        kin = converge_phase(analytic_path_builder(Scenario.MACRO_BOTH, math.pi / 4, p))
        assert kin.principal == pytest.approx(0.0, abs=1e-6)

    def test_special_point_preconditions(self):
        p = ModelParams(omega=1.0, lambda_c=0.1, alpha=1.0)
        with pytest.raises(ValueError):
            phase_macro_closed(Scenario.MACRO_BOTH, math.pi / 4, p)
        p = ModelParams(omega=1.0, lambda_c=0.125, alpha=1.0)
        with pytest.raises(ValueError):
            phase_macro_closed(Scenario.MACRO_BOTH, 0.5, p)
        with pytest.raises(ValueError):
            phase_macro_closed(Scenario.MICRO_MICRO, math.pi / 4, p)

    def test_origin_crossing_is_flagged_at_special_point(self):
        p = ModelParams(omega=1.0, lambda_c=0.125, alpha=1.0)
        kin = converge_phase(analytic_path_builder(Scenario.MACRO_BOTH, math.pi / 4, p))
        assert any("origin" in w for w in kin.warnings)


QUARTER_PI = {"omega": 1.0, "lambda_c": 0.1, "alpha": 6.0, "grid": {"phase_tol": 1e-10}}


class TestQuarterPi:
    """eta0 = pi/4 at lambda = 0.1, alpha = 6: the block's eigenvalue gap
    falls to e^(-Gamma(tau)) = 1.6e-11, where `eigh` loses arg rho_01."""

    def test_equal_populations_converge_to_seven_pi(self):
        h = math.sqrt(0.5)
        doc = {"scenario": "general", "coefficients": [h, h, 0, 0], **QUARTER_PI}
        res = compute_phase(parse_config(json.dumps(doc)))
        assert abs(res.unwrapped - 7 * math.pi) < 1e-12

    def test_rounded_quarter_pi_converges_and_is_flagged(self):
        # one ulp between cos^2 and sin^2 of fl(pi/4) moves the phase by ~4e-5
        doc = {"scenario": "micro_micro", "eta0": math.pi / 4, **QUARTER_PI}
        res = compute_phase(parse_config(json.dumps(doc)))
        assert abs(res.unwrapped - 7 * math.pi) < 1e-4
        assert any(w.startswith("branch-ambiguity") for w in res.warnings)


AGREEMENT_POINTS = [
    "micro_micro",
    "macro_both",
    "macro_single",
    # sweep_micro physics at C = 0.3 and 0.9
    {"scenario": "micro_micro", "omega": 1.0, "lambda_c": 1.5915494309189535e-05,
     "alpha": 1.0, "eta0": 0.5 * math.asin(0.3)},
    {"scenario": "micro_micro", "omega": 1.0, "lambda_c": 1.5915494309189535e-05,
     "alpha": 1.0, "eta0": 0.5 * math.asin(0.9)},
    # phase_fock ranges: |alpha| in [8, 16], lambda in [0.02, 0.1]
    {"scenario": "macro_both", "omega": 1.0, "j_vdw": 0.05, "lambda_c": 0.05,
     "alpha": [6.0, 8.0], "eta0": 0.4},
    {"scenario": "macro_single", "omega": 1.0, "j_vdw": 0.05, "lambda_c": 0.05,
     "alpha": [-9.0, 5.0], "eta0": 0.3},
]


@pytest.mark.parametrize("point", AGREEMENT_POINTS)
def test_block_and_eigh_paths_agree(point):
    # U rho U^H spreads the support over all four basis states, so its path
    # runs eigh and matching, while the kinematic phase and the concurrence
    # are invariant under a fixed local unitary
    doc = point if isinstance(point, dict) else json.loads((CONFIG_DIR / f"{point}.json").read_text())
    cfg = parse_config(json.dumps(doc))
    state0 = initial_branches(cfg)
    tau, u = quasicycle_period(cfg.params), local_unitary()

    def block_rhos(times):
        return coherent_rho_path(state0, times, cfg.params)

    def spread_rhos(times):
        return u @ block_rhos(times) @ u.conj().T

    times = np.linspace(0.0, tau, 257)
    assert eigen_path(times, block_rhos(times)).frames.block is not None
    assert eigen_path(times, spread_rhos(times)).frames.block is None
    results = [
        converge_phase(refining_path_builder(tau, rho_path, eigen_path), cfg.n_steps, cfg.phase_tol)
        for rho_path in (block_rhos, spread_rhos)
    ]
    assert not any(w.startswith("branch-ambiguity") for r in results for w in r.warnings)
    assert abs(results[0].unwrapped - results[1].unwrapped) < cfg.phase_tol
    concurrence = [concurrence_wootters(f(times)) for f in (block_rhos, spread_rhos)]
    assert np.max(np.abs(concurrence[0] - concurrence[1])) < 1e-12
