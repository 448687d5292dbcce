import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from becphase import (
    ConvergenceError,
    EigenPath,
    ModelParams,
    Scenario,
    analytic_path_builder,
    bell_initial,
    coherent_rho_path,
    concurrence_wootters,
    converge_phase,
    decay_phase,
    eigen_path,
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
from becphase import geomphase
from becphase.cli import RunConfig, compute_phase, initial_branches, path_builder
from becphase.geomphase import PHASE_TOL, refining_path_builder, romberg_acceptance
from oracles import converge_phase_h2, factorization_functions, from_computational

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
        rephased = path.vectors * np.exp(
            1j * rng.uniform(-math.pi, math.pi, size=(path.times.size, 1, path.n_branches))
        )
        res = kinematic_phase(EigenPath(path.times, path.values, rephased, path.flags))
        assert abs(res.unwrapped - base.unwrapped) < 1e-9
        assert np.max(np.abs(res.per_branch - base.per_branch)) < 1e-9

    def test_zero_weight_branch_contributes_nothing(self):
        p = ModelParams(omega=1.0, lambda_c=0.05, alpha=1.0)
        path = micro_path(0.4, p, 512)
        res = kinematic_phase(path)
        assert abs(res.per_branch[1]) == pytest.approx(0.0, abs=1e-12)

    def test_null_branch_rounding_gets_no_weight(self):
        # eps(0) at or below SUPPORT_TOL is a pure state's null eigenvalue
        # in rounding; above it the branch weighs sqrt(eps(0) eps(tau))
        p = ModelParams(omega=1.0, lambda_c=0.05, alpha=1.0)
        path = micro_path(0.4, p, 512)
        for eps0, null in ((5e-17, True), (1e-12, True), (2e-12, False)):
            values = path.values.copy()
            values[0, 1] = eps0
            res = kinematic_phase(replace(path, values=values))
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

        def build(n):
            times = np.linspace(0.0, tau, n + 1)
            return eigen_path(times, oracle_rho_path(state0, times, p))

        kin_oracle = converge_phase(build, 2048)
        kin_analytic = converge_phase(analytic_path_builder(Scenario.MICRO_MICRO, eta0, p), 2048)
        assert kin_oracle.unwrapped == pytest.approx(kin_analytic.unwrapped, abs=1e-6)

    def test_convergence_error(self, monkeypatch):
        monkeypatch.setattr(geomphase, "MAX_DOUBLINGS", 3)
        p = ModelParams(omega=1.0, lambda_c=0.05, alpha=1.0)
        build = analytic_path_builder(Scenario.MICRO_MICRO, 0.5, p)
        with pytest.raises(ConvergenceError):
            converge_phase(build, 4, phase_tol=1e-30)

    def test_phase_trace_starts_at_zero(self):
        p = ModelParams(omega=1.0, lambda_c=0.05, alpha=1.0)
        trace = phase_trace(micro_path(0.5, p, 256))
        assert trace[0] == pytest.approx(0.0, abs=1e-12)
        assert trace.shape == (257,)


def config(name):
    return parse_config((CONFIG_DIR / f"{name}.json").read_text())


def assert_same_path(a, b):
    for name in ("times", "values", "vectors"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.flags == b.flags


class TestExtrapolatedConvergence:
    def test_micro_micro_accepted_at_1024(self):
        cfg = config("micro_micro")
        res = compute_phase(cfg)
        assert res.n_steps == 1024
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

        def build(n):
            built.append(n)
            return inner(n)

        with pytest.raises(ConvergenceError, match="within 2097152 steps"):
            converge_phase(build, 2**50)
        assert built == []
        monkeypatch.setattr(geomphase, "MAX_STEPS", 1024)
        with pytest.raises(ConvergenceError, match="at 1024 of at most 1024 steps"):
            converge_phase(build, 256, phase_tol=1e-30)
        assert built == [256, 512, 1024]

    def test_unreachable_tolerance_still_raises(self, monkeypatch):
        monkeypatch.setattr(geomphase, "MAX_DOUBLINGS", 3)
        p = ModelParams(omega=1.0, lambda_c=0.05, alpha=1.0)
        build = analytic_path_builder(Scenario.MICRO_MICRO, 0.5, p)
        with pytest.raises(ConvergenceError):
            converge_phase(build, 2048, phase_tol=1e-30)

    def test_refined_path_equals_scratch(self):
        p = ModelParams(omega=1.0, lambda_c=0.05, alpha=1.0)
        cfg = config("general")
        for make in (
            lambda: analytic_path_builder(Scenario.MICRO_MICRO, 0.5, p),
            lambda: path_builder(cfg),
        ):
            build = make()
            for n in (1024, 2048, 4096):
                refined = build(n)
                assert_same_path(refined, make()(n))


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

    def test_blocked_levels_take_the_plain_rule(self):
        levels = planted_levels([(0.5, 0), (1.0, 2)], count=14)
        assert romberg_acceptance(levels[:3], PHASE_TOL, extrapolate=False) is None
        column, value, error = romberg_acceptance(levels, PHASE_TOL, extrapolate=False)
        assert (column, value) == (0, levels[-1])
        assert error == abs(levels[-1] - levels[-2])

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


def local_unitary():
    """A fixed u1 (x) u2 in the module basis order."""

    def u(angle, phase):
        c, s = math.cos(angle), math.sin(angle)
        return np.array([[c, -s * np.exp(-1j * phase)], [s * np.exp(1j * phase), c]])

    return from_computational(np.kron(u(0.7, 0.3), u(1.1, -0.8)))


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
    assert eigen_path(times, block_rhos(times)).block is not None
    assert eigen_path(times, spread_rhos(times)).block is None
    results = [
        converge_phase(refining_path_builder(tau, rho_path, eigen_path), cfg.n_steps, cfg.phase_tol)
        for rho_path in (block_rhos, spread_rhos)
    ]
    assert not any(w.startswith("branch-ambiguity") for r in results for w in r.warnings)
    assert abs(results[0].unwrapped - results[1].unwrapped) < cfg.phase_tol
    concurrence = [concurrence_wootters(f(times)) for f in (block_rhos, spread_rhos)]
    assert np.max(np.abs(concurrence[0] - concurrence[1])) < 1e-12
