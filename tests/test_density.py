import cmath
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from becphase import (
    EigenPath,
    Frames,
    ModelParams,
    Scenario,
    analytic_rho_path,
    bell_initial,
    coherent_rho_path,
    concurrence_wootters,
    decay_phase,
    eigen_path,
    embed_frames,
    general_initial,
    kinematic_phase,
    macro_both_initial,
    macro_single_initial,
    oracle_rho_path,
    partial_trace,
    phase_trace,
    quasicycle_period,
    validate_density,
)
from becphase import cli, density, dynamics
from becphase.cli import initial_branches, initial_state, parse_config, run_evolve
from becphase.density import DEGENERACY_TOL, BlockEntries, strided_path
from oracles import (
    block_frames_4x4,
    coherent_rho_full,
    even_point_path,
    evolve_joint,
    exhaustive_step_permutations,
    local_unitary,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
P = ModelParams(omega=1.0, j_vdw=0.07, omega_b=0.9, chi=0.003, lambda_c=0.05, alpha=1.2)

BUILDERS = {
    Scenario.MICRO_MICRO: bell_initial,
    Scenario.MACRO_BOTH: macro_both_initial,
    Scenario.MACRO_SINGLE: macro_single_initial,
}


class TestDecayPhase:
    def test_micro_forms(self):
        t = np.linspace(0, 5, 11)
        lam, gam = decay_phase(Scenario.MICRO_MICRO, P, t)
        a2 = abs(P.alpha) ** 2
        np.testing.assert_allclose(
            lam, 2 * P.omega * t + a2 * np.sin(2 * P.lambda_c * t), atol=1e-14
        )
        np.testing.assert_allclose(gam, 2 * a2 * np.sin(P.lambda_c * t) ** 2, atol=1e-14)

    def test_phase_starts_at_zero_and_decay_nonnegative(self):
        t = np.linspace(0, 4 * math.pi, 300)
        for scen in Scenario:
            for variant in ("corrected", "verbatim"):
                lam, gam = decay_phase(scen, P, t, variant)
                assert lam[0] == pytest.approx(0.0, abs=1e-14)
                assert np.all(gam >= -1e-14)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            decay_phase(Scenario.MICRO_MICRO, P, np.zeros(1), "other")


class TestPartialTrace:
    def test_bell_t0_block(self):
        eta0 = 0.6
        rho = partial_trace(bell_initial(eta0, P).fock())
        c2, s2 = math.cos(eta0) ** 2, math.sin(eta0) ** 2
        half = 0.5 * math.sin(2 * eta0)
        expected = np.zeros((4, 4))
        expected[0, 0], expected[1, 1] = c2, s2
        expected[0, 1] = expected[1, 0] = half
        np.testing.assert_allclose(rho, expected, atol=1e-11)

    def test_bell_quarter_pi_offdiagonal_half(self):
        rho = partial_trace(bell_initial(math.pi / 4, P).fock())
        assert rho[0, 1] == pytest.approx(0.5, abs=1e-11)

    def test_bell_offdiagonal_modulus_at_t(self):
        p = ModelParams(omega=1.0, lambda_c=0.1, alpha=1.0)
        eta0 = 0.5
        rho = partial_trace(evolve_joint(bell_initial(eta0, p).fock(), 1.0, p))
        expected = 0.5 * math.sin(2 * eta0) * math.exp(-2 * math.sin(0.1) ** 2)
        assert abs(rho[0, 1]) == pytest.approx(expected, abs=1e-11)

    def test_hermitian_and_valid(self):
        state = evolve_joint(macro_both_initial(0.7, P).fock(), 2.3, P)
        rho = partial_trace(state)
        assert rho.shape == (4, 4)
        validate_density(rho)
        np.testing.assert_array_equal(rho, rho.conj().T)

    def test_macro_both_t0_offdiagonal(self):
        # off-diagonal e^{-Gamma(0)}/2 = e^{-2|alpha|^2}/2 at eta0 = pi/4
        p = ModelParams(omega=1.0, lambda_c=0.125, alpha=1.0)
        rho = partial_trace(macro_both_initial(math.pi / 4, p).fock())
        assert rho[0, 1] == pytest.approx(0.5 * math.exp(-2.0), abs=1e-11)


class TestOracleVsAnalytic:
    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_corrected_matches_oracle(self, scenario):
        eta0 = 0.5
        state0 = BUILDERS[scenario](eta0, P).fock()
        times = np.linspace(0.0, quasicycle_period(P), 100)
        numeric = oracle_rho_path(state0, times, P)
        analytic = analytic_rho_path(scenario, eta0, P, times, "corrected")
        assert np.max(np.abs(numeric - analytic)) < 1e-9

    def test_macro_single_verbatim_disagrees(self):
        eta0 = 0.5
        state0 = macro_single_initial(eta0, P).fock()
        times = np.linspace(0.0, quasicycle_period(P), 100)
        numeric = oracle_rho_path(state0, times, P)
        analytic = analytic_rho_path(Scenario.MACRO_SINGLE, eta0, P, times, "verbatim")
        assert np.max(np.abs(numeric - analytic)) > 1e-3

    def test_pointwise_equals_batched(self):
        state0 = bell_initial(0.43, P).fock()
        for t in (0.0, 0.9, 3.3):
            rho = partial_trace(evolve_joint(state0, t, P))
            batched = oracle_rho_path(state0, np.array([t]), P)[0]
            np.testing.assert_allclose(rho, batched, atol=1e-13)

    def test_chunks_equal_one_chunk(self, monkeypatch):
        state0 = macro_both_initial(0.7, P).fock()
        times = np.linspace(0.0, quasicycle_period(P), 1001)
        whole = oracle_rho_path(state0, times, P)
        monkeypatch.setattr(density, "RHO_CHUNK_CELLS", 7 * 4 * (state0.n_max + 1))
        assert np.array_equal(oracle_rho_path(state0, times, P), whole)

    def test_macro_both_overlap_modulus_below_one(self):
        # the decaying factor keeps the off-diagonal modulus bounded by 1/2;
        # the sign-flipped exponent would exceed it
        p = ModelParams(omega=1.0, lambda_c=0.125, alpha=1.0)
        state0 = macro_both_initial(math.pi / 4, p).fock()
        times = np.linspace(0.0, quasicycle_period(p), 50)
        rhos = oracle_rho_path(state0, times, p)
        mods = np.abs(rhos[:, 0, 1])
        assert np.all(mods <= 0.5 + 1e-12)
        a2 = abs(p.alpha) ** 2
        np.testing.assert_allclose(
            mods, 0.5 * np.exp(-2 * a2 * np.cos(p.lambda_c * times) ** 2), atol=1e-11
        )

    def test_macro_single_oracle_settles_detuning(self):
        # corrected detuning omega - 2J: the off-diagonal phase advances by
        # (omega - 2J) t - |alpha|^2 sin(lambda t)
        p = ModelParams(omega=1.0, j_vdw=0.2, lambda_c=0.08, alpha=1.1)
        state0 = macro_single_initial(0.6, p).fock()
        t = 1.7
        rho = partial_trace(evolve_joint(state0, t, p))
        a2 = abs(p.alpha) ** 2
        lam3 = (p.omega - 2 * p.j_vdw) * t - a2 * math.sin(p.lambda_c * t)
        gam3 = 2 * a2 * math.cos(p.lambda_c * t / 2) ** 2
        expected = 0.5 * math.sin(2 * 0.6) * cmath.exp(1j * lam3 - gam3)
        assert rho[0, 2] == pytest.approx(expected, abs=1e-11)
        wrong = (p.omega - 4 * p.j_vdw) * t - a2 * math.sin(2 * p.lambda_c * t)
        assert abs(cmath.phase(rho[0, 2]) - wrong) > 1e-2


@pytest.mark.parametrize("name", ["micro_micro", "macro_both", "macro_single", "general"])
def test_kerr_and_mode_frequency_drop_out_of_rho(name):
    # chi n(n-1) and omega_b n are the same for every branch, so they cancel
    # from every branch overlap <phi_j(t)|phi_i(t)> and hence from rho
    cfg = parse_config((CONFIG_DIR / f"{name}.json").read_text())
    times = np.linspace(0.0, quasicycle_period(cfg.params), cfg.n_steps + 1)
    state0 = initial_state(cfg)

    def rhos(chi, omega_b):
        return oracle_rho_path(state0, times, replace(cfg.params, chi=chi, omega_b=omega_b))

    reference = rhos(0.0, 0.0)
    for chi, omega_b in ((0.5, 7.0), (0.002, 0.9), (-0.3, -2.0)):
        assert np.max(np.abs(rhos(chi, omega_b) - reference)) <= 1e-12


class TestCoherentPath:
    """The exact coherent-overlap path against the truncated-Fock ground truth."""

    def test_seeded_draws_agree_with_the_fock_path(self, monkeypatch):
        # A Fock tail of 1e-14 keeps the checker's own truncation below the
        # 1e-12 bound. chi n(n-1) t reaches ~1e5 rad at |alpha| = 30 and
        # chi = 0.1; the checker leaves that branch-shared phase out.
        monkeypatch.setattr(dynamics, "TAIL_TOL", 1e-14)
        rng = np.random.default_rng(20261018)
        builders = (bell_initial, macro_both_initial, macro_single_initial)
        worst = 0.0
        for k in range(150):
            p = ModelParams(
                omega=rng.uniform(0.5, 2.0),
                j_vdw=rng.uniform(-0.2, 0.2),
                omega_b=rng.uniform(-1.0, 1.0),
                chi=rng.uniform(-0.1, 0.1),
                lambda_c=rng.uniform(-0.2, 0.2),
                alpha=30.0 * rng.random() * cmath.exp(1j * rng.uniform(-math.pi, math.pi)),
            )
            if k % 4 == 3:
                c = rng.normal(size=4) + 1j * rng.normal(size=4)
                state0 = general_initial(c / np.linalg.norm(c), p)
            else:
                state0 = builders[k % 4](rng.uniform(0.0, math.pi / 2), p)
            times = np.linspace(0.0, quasicycle_period(p), 65)
            dev = np.max(np.abs(coherent_rho_path(state0, times, p) - oracle_rho_path(state0.fock(), times, p)))
            worst = max(worst, dev)
        assert worst <= 1e-12

    def test_strong_kerr_at_large_alpha_agrees_with_the_fock_path(self):
        # chi n(n-1) t reaches ~1e5 rad here; the checker leaves that
        # branch-shared phase out, so its rounding does not enter rho.
        p = replace(P, chi=0.1, alpha=28.5)
        state0 = general_initial(np.array([0.5, 0.5j, -0.5, 0.5]), p)
        times = np.linspace(0.0, quasicycle_period(p), 200)
        dev = np.max(np.abs(coherent_rho_path(state0, times, p) - oracle_rho_path(state0.fock(), times, p)))
        assert dev <= 5e-13

    @pytest.mark.parametrize("name", ["micro_micro", "macro_both", "macro_single", "general", "complex-alpha"])
    def test_shipped_configs_agree_at_the_default_tail(self, name):
        if name == "complex-alpha":
            doc = json.loads((CONFIG_DIR / "macro_single.json").read_text())
            cfg = parse_config(json.dumps({**doc, "alpha": [2.1, -1.7], "eta0": 0.6}))
        else:
            cfg = parse_config((CONFIG_DIR / f"{name}.json").read_text())
        times = np.linspace(0.0, quasicycle_period(cfg.params), cfg.n_steps + 1)
        exact = coherent_rho_path(initial_branches(cfg), times, cfg.params)
        assert np.max(np.abs(exact - oracle_rho_path(initial_state(cfg), times, cfg.params))) <= 1e-12

    def test_empty_branches_stay_empty(self):
        state0 = macro_single_initial(0.6, P)
        np.testing.assert_array_equal(state0.betas, [P.alpha, 0.0, -P.alpha, 0.0])
        assert not np.any(state0.fock().amps[[1, 3]])
        rhos = coherent_rho_path(state0, np.linspace(0.0, 3.0, 7), P)
        assert not np.any(rhos[:, [1, 3], :]) and not np.any(rhos[:, :, [1, 3]])

    @pytest.mark.parametrize("name", ["micro_micro", "macro_both", "macro_single", "general"])
    def test_occupied_block_equals_the_full_formula(self, name):
        # the lower triangle is the full formula's, the upper its exact
        # conjugate and the diagonal |c_i|^2, also at complex alpha, where
        # the full formula's upper triangle and diagonal differ from those
        # in rounding
        cfg = parse_config((CONFIG_DIR / f"{name}.json").read_text())
        rng = np.random.default_rng(7)
        alpha = 2.7 * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        configs = [cfg, replace(cfg, params=replace(cfg.params, alpha=alpha))]
        if cfg.scenario != "general":
            # eta0 = 0 and pi/2 leave a single occupied branch
            configs += [replace(cfg, eta0=e) for e in (0.0, math.pi / 2, rng.uniform(0, 1.5))]
        else:
            c = rng.normal(size=4) + 1j * rng.normal(size=4)
            configs.append(replace(cfg, coefficients=c / np.linalg.norm(c)))
        times = np.sort(rng.uniform(0.0, 40.0, 301))
        lower = np.tril_indices(4, -1)
        for state0, params in ((initial_branches(c), c.params) for c in configs):
            empty = np.flatnonzero(state0.coeffs == 0)
            rhos = coherent_rho_path(state0, times, params)
            full = coherent_rho_full(state0, times, params)
            assert np.array_equal(rhos[:, lower[0], lower[1]], full[:, lower[0], lower[1]])
            assert np.array_equal(rhos, np.conj(np.swapaxes(rhos, 1, 2)))
            diagonal = np.diagonal(rhos, axis1=1, axis2=2)
            assert np.array_equal(diagonal, np.broadcast_to((state0.coeffs * state0.coeffs.conj()).real, diagonal.shape))
            assert np.max(np.abs(rhos - full)) <= 1e-13
            assert not np.any(rhos[:, empty, :]) and not np.any(rhos[:, :, empty])

    def test_general_eps2_does_not_rest_on_rounding(self, monkeypatch):
        # The general state starts pure: three eigenvalues are 0 up to
        # rounding, and eps2 must follow the branch that grows first, not the
        # one that rounding orders second at t = 0.
        cfg = parse_config((CONFIG_DIR / "general.json").read_text())
        exact = run_evolve(cfg)
        monkeypatch.setattr(cli, "coherent_rho_path", lambda s, t, p: oracle_rho_path(s.fock(), t, p))
        fock = run_evolve(cfg)
        eps2 = np.column_stack([exact.columns["eps2[1]"], fock.columns["eps2[1]"]])
        assert np.max(np.abs(eps2[:, 0] - eps2[:, 1])) <= 1e-9
        assert eps2[1, 0] > 1e-9

    def test_micro_off_diagonal_matches_its_closed_form_near_the_alpha_cap(self):
        p = ModelParams(omega=1.0, lambda_c=1e-3, alpha=37.5)
        times = np.linspace(0.0, quasicycle_period(p), 9)
        lam, gam = decay_phase(Scenario.MICRO_MICRO, p, times)
        off = 0.5 * math.sin(0.6) * np.exp(1j * lam - gam)
        exact = coherent_rho_path(bell_initial(0.3, p), times, p)
        np.testing.assert_allclose(exact[:, 0, 1], off, rtol=0, atol=1e-12)


class TestAnalyticBlock:
    def test_micro_zero_coupling_modulus_constant(self):
        p = ModelParams(omega=1.0, lambda_c=0.0, alpha=1.0)
        t = np.linspace(0, 7, 60)
        rhos = analytic_rho_path(Scenario.MICRO_MICRO, 0.4, p, t)
        np.testing.assert_allclose(
            np.abs(rhos[:, 0, 1]), 0.5 * abs(math.sin(0.8)), atol=1e-13
        )

    def test_embedding_index_pairs(self):
        t, eta0 = 1.0, 0.3
        lam, gam = decay_phase(Scenario.MACRO_SINGLE, P, t)
        full = analytic_rho_path(Scenario.MACRO_SINGLE, eta0, P, np.array(t))
        off = 0.5 * math.sin(2 * eta0) * cmath.exp(1j * lam - gam)
        assert full[0, 2] == pytest.approx(off, abs=1e-15)
        assert full[2, 2] == math.sin(eta0) ** 2
        assert full[1, 1] == 0.0


def two_branch_path(scenario=Scenario.MICRO_MICRO, eta0=0.5, p=P, n_steps=400, variant="corrected"):
    times = np.linspace(0.0, quasicycle_period(p), n_steps + 1)
    rhos = analytic_rho_path(scenario, eta0, p, times, variant)
    return times, rhos, eigen_path(times, rhos)


class TestEigenPath:
    def test_initial_eigenvalues_pure_state(self):
        _, _, path = two_branch_path()
        assert path.values[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert path.values[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_eigenvalue_sum_one(self):
        _, _, path = two_branch_path(Scenario.MACRO_BOTH, 0.7)
        np.testing.assert_allclose(path.values.sum(axis=1), 1.0, atol=1e-10)

    def test_spectator_branches_dropped(self):
        _, _, path = two_branch_path()
        assert path.n_branches == 2

    def test_gap_formula_at_quarter_pi(self):
        # gap = e^{-Gamma(t)} when the two populations are equal
        p = ModelParams(omega=1.0, lambda_c=0.3, alpha=1.0)
        times, _, path = two_branch_path(Scenario.MICRO_MICRO, math.pi / 4, p)
        _, gam = decay_phase(Scenario.MICRO_MICRO, p, times)
        np.testing.assert_allclose(path.values[:, 0] - path.values[:, 1], np.exp(-gam), atol=1e-10)

    def test_macro_both_endpoint_gaps(self):
        # gap(0) = e^{-2 |alpha|^2}, gap(tau) = e^{-|alpha|^2} at the special point
        p = ModelParams(omega=1.0, lambda_c=0.125, alpha=1.0)
        _, _, path = two_branch_path(Scenario.MACRO_BOTH, math.pi / 4, p)
        assert path.values[0, 0] - path.values[0, 1] == pytest.approx(
            math.exp(-2.0), abs=1e-10
        )
        assert path.values[-1, 0] - path.values[-1, 1] == pytest.approx(
            math.exp(-1.0), abs=1e-10
        )

    def test_continuity_dominates_cross_overlaps(self):
        _, _, path = two_branch_path(Scenario.MACRO_BOTH, 0.7)
        v = path.vectors
        own = np.abs(np.einsum("mak,mak->mk", v[:-1].conj(), v[1:]))
        cross = np.abs(np.einsum("mak,mal->mkl", v[:-1].conj(), v[1:]))
        for k in range(2):
            other = cross[:, k, 1 - k]
            assert np.all(own[:, k] > other)

    def test_mixing_angle_identity(self):
        # closed-form eigenvectors agree with the numeric ones up to phase
        p = ModelParams(omega=1.0, lambda_c=0.2, alpha=1.0)
        eta0 = 0.55
        times, _, path = two_branch_path(Scenario.MICRO_MICRO, eta0, p, 200)
        lam, gam = decay_phase(Scenario.MICRO_MICRO, p, times)
        s2 = math.sin(2 * eta0) ** 2
        e = np.sqrt(1 + s2 * (np.exp(-2 * gam) - 1))
        c2e = math.cos(2 * eta0)
        ct = np.sqrt((e + c2e) / (2 * e))
        st = np.sqrt((e - c2e) / (2 * e))
        assert np.max(np.abs(ct**2 + st**2 - 1.0)) < 1e-12
        v1 = np.zeros((times.size, 4), dtype=complex)
        v1[:, 0] = ct
        v1[:, 1] = st * np.exp(-1j * lam)
        overlap = np.abs(np.einsum("ma,ma->m", v1.conj(), path.vectors[:, :, 0]))
        assert np.min(overlap) > 1 - 1e-9

    def test_requires_two_points(self):
        times = np.array([0.0])
        rhos = analytic_rho_path(Scenario.MICRO_MICRO, 0.5, P, times)
        with pytest.raises(ValueError):
            eigen_path(times, rhos)

    def test_rejects_nonhermitian(self):
        times = np.linspace(0, 1, 3)
        rhos = analytic_rho_path(Scenario.MICRO_MICRO, 0.5, P, times)
        rhos[1, 0, 1] += 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            eigen_path(times, rhos)

    def test_degenerate_pair_flagged(self):
        times = np.linspace(0, 1, 5)
        rhos = np.broadcast_to(np.eye(4, dtype=complex) / 4.0, (5, 4, 4)).copy()
        path = eigen_path(times, rhos)
        assert any("branch-ambiguity" in f for f in path.flags)

    def test_purity_range_two_branch(self):
        _, rhos, path = two_branch_path(Scenario.MACRO_BOTH, math.pi / 4)
        purity = np.real(np.einsum("mij,mji->m", rhos, rhos))
        assert np.all(purity > 0.5 - 1e-10)
        assert np.all(purity < 1.0 + 1e-10)

    def test_paths_compare_by_identity(self):
        # equal arrays in two paths: == must not ask numpy for an array's truth
        a, b = (two_branch_path()[2] for _ in range(2))
        assert_same_path(a, b)
        assert a == a and a != b and not a == b
        assert hash(a) == hash(a) and len({a, b}) == 2


def crossing_path(n_steps=397):
    """Diagonal density path whose populations cross: the first crosses the
    second at t = pi/2 and 3 pi/2, and both cross the constant third."""
    times = np.linspace(0.0, 2 * math.pi, n_steps + 1)
    c = np.cos(times)
    pops = np.stack(
        [0.35 + 0.2 * c, 0.35 - 0.2 * c, np.full_like(c, 0.2), np.full_like(c, 0.1)], axis=1
    )
    rhos = pops[:, :, None] * np.eye(4)
    return times, pops, rhos


class TestBranchOrder:
    def test_crossing_branches_keep_their_columns(self):
        # descending at t = 0: population 0, 2, 1, 3; each branch keeps its
        # basis vector through every crossing
        times, pops, rhos = crossing_path()
        path = eigen_path(times, rhos)
        order = [0, 2, 1, 3]
        np.testing.assert_array_equal(path.values, pops[:, order])
        np.testing.assert_array_equal(
            np.abs(path.vectors), np.broadcast_to(np.eye(4)[:, order], path.vectors.shape)
        )
        # eigh's ascending columns do change order along the path
        assert len({tuple(np.argsort(row)) for row in pops}) > 1

    def test_refinement_equals_scratch(self):
        times, _, rhos = crossing_path(794)
        coarse = eigen_path(times[::2], rhos[::2])
        refined = eigen_path(times[1::2], rhos[1::2], coarse=coarse)
        scratch = eigen_path(times, rhos)
        for name in ("times", "columns", "values", "vectors"):
            assert np.array_equal(getattr(refined, name), getattr(scratch, name))
        assert refined.flags == scratch.flags

    def test_refinement_needs_one_midpoint_per_step(self):
        times, _, rhos = crossing_path()
        coarse = eigen_path(times, rhos)
        with pytest.raises(ValueError, match="midpoint"):
            eigen_path(times, rhos, coarse=coarse)


def assert_same_path(a: EigenPath, b: EigenPath) -> None:
    for name in ("times", "columns", "values", "vectors"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.flags == b.flags
    assert np.array_equal(a.frames.values, b.frames.values)
    assert np.array_equal(a.frames.vectors, b.frames.vectors)
    assert a.frames.block == b.frames.block


def config_path_rhos(name, n_steps):
    """The grid of a shipped config's quasicycle and its coherent-overlap densities."""
    cfg = parse_config((CONFIG_DIR / f"{name}.json").read_text())
    times = np.linspace(0.0, quasicycle_period(cfg.params), n_steps + 1)
    return times, coherent_rho_path(initial_branches(cfg), times, cfg.params)


def route_rhos(name, n_steps, route):
    """A shipped config's grid and its densities on one route: the stack
    (a block or eigh, from its support), a block path's entries, or the
    stack under a local unitary, which eigh decomposes."""
    times, rhos = config_path_rhos(name, n_steps)
    if route == "entries":
        cfg = parse_config((CONFIG_DIR / f"{name}.json").read_text())
        return times, density.coherent_block_path(initial_branches(cfg), times, cfg.params)
    if route == "eigh":
        u = local_unitary()
        return times, u @ rhos @ u.conj().T
    return times, rhos


def every(rhos, stride):
    if isinstance(rhos, density.BlockEntries):
        return rhos._replace(b=rhos.b[::stride])
    return rhos[::stride]


SHIPPED = ("micro_micro", "macro_both", "macro_single", "general",
           "sweep_entanglement_micro", "sweep_entanglement_macro")


class TestStridedPath:
    """strided_path: the path on every stride-th grid point, from the frames
    and columns of the path."""

    @pytest.mark.parametrize("stride", [2, 4])
    @pytest.mark.parametrize(
        "name, route",
        [(name, route) for name in SHIPPED for route in ("stack", "entries", "eigh")
         if not (name == "general" and route == "entries")],
    )
    def test_equals_a_decomposition_from_scratch(self, monkeypatch, name, route, stride):
        times, rhos = route_rhos(name, 512, route)
        fine = eigen_path(times, rhos)
        scratch = eigen_path(times[::stride], every(rhos, stride))
        # nothing is validated or decomposed again
        monkeypatch.setattr(density, "validate_density", None)
        level = strided_path(fine, stride)
        # a level carries no flags, and its columns are the path's
        assert level.flags == () and np.array_equal(level.columns, fine.columns[::stride])
        assert_same_path(level, replace(scratch, flags=()))
        assert (level.frames.block is None) == (name == "general" or route == "eigh")
        for a, b in ((level.times, fine.times), (level.columns, fine.columns),
                     *zip(level.frames[:2], fine.frames[:2])):
            assert np.shares_memory(a, b)

    @pytest.mark.parametrize(
        "name, n_steps, fine_tol",
        [
            # a path flagged at its tolerance has unflagged strides
            ("general", 512, 1e-4),
            # the smallest start: 5 points give 3
            ("macro_both", 4, DEGENERACY_TOL),
        ],
        ids=["general-tol-1e-4", "macro_both-4-steps"],
    )
    def test_equals_a_decomposition_from_scratch_at(self, monkeypatch, name, n_steps, fine_tol):
        times, rhos = config_path_rhos(name, n_steps)
        fine = eigen_path(times, rhos, degeneracy_tol=fine_tol)
        scratch = eigen_path(times[::2], rhos[::2], degeneracy_tol=fine_tol)
        monkeypatch.setattr(density, "validate_density", None)
        level = strided_path(fine, 2)
        assert level.flags == () and np.array_equal(level.columns, fine.columns[::2])
        assert np.shares_memory(level.columns, fine.columns)
        assert_same_path(level, replace(scratch, flags=()))

    def test_follows_the_matching_of_the_finer_grid(self):
        # general.json at 4 steps: matching its 3 even points afresh pairs
        # other columns, the strided level keeps the finer grid's
        times, rhos = config_path_rhos("general", 4)
        fine = eigen_path(times, rhos)
        level = strided_path(fine, 2)
        assert np.array_equal(level.columns, fine.columns[::2])
        assert not np.array_equal(level.columns, eigen_path(times[::2], rhos[::2]).columns)

    def test_needs_a_stride_that_divides_the_steps(self):
        times, rhos = config_path_rhos("micro_micro", 8)
        with pytest.raises(ValueError, match="does not divide 7 steps"):
            strided_path(eigen_path(times[:-1], rhos[:-1]), 2)


def random_unitary(rng, scale=1.0):
    z = np.eye(4) + scale * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return np.linalg.qr(z)[0]


def planted_frames(rng, m):
    """Orthonormal frames along a walk of small unitary steps, with planted
    column swaps and two-column rotations whose diagonal squared overlap
    cos^2(theta) lies within a few MATCH_MARGIN of 1/2, on both sides."""
    frames = np.empty((m, 4, 4), dtype=complex)
    v = random_unitary(rng)
    for k in range(m):
        frames[k] = v
        kind = rng.integers(6)
        if kind == 0:
            v = v[:, rng.permutation(4)]
        elif kind == 1:
            i, j = rng.choice(4, size=2, replace=False)
            shift = rng.choice([0.0, 1.0, -1.0, 0.5, 1.5, 3.0, -3.0]) * density.MATCH_MARGIN
            theta = math.acos(math.sqrt(0.5 + shift))
            phase = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            vi, vj = v[:, i].copy(), v[:, j].copy()
            v = v.copy()
            v[:, i] = math.cos(theta) * vi + math.sin(theta) * phase * vj
            v[:, j] = -math.sin(theta) * phase.conjugate() * vi + math.cos(theta) * vj
        else:
            v = v @ random_unitary(rng, 0.05)
    return frames


class TestMatchingShortcut:
    """eigen_path skips the permutation scoring where the identity must win;
    its result must equal that of scoring every step."""

    @staticmethod
    def reference(monkeypatch, *args, **kwargs):
        with monkeypatch.context() as mp:
            mp.setattr(density, "_step_permutations", exhaustive_step_permutations)
            return eigen_path(*args, **kwargs)

    def test_planted_frames(self):
        rng = np.random.default_rng(20261018)
        frames = planted_frames(rng, 3000)
        best = density._step_permutations(frames)
        assert np.array_equal(best, exhaustive_step_permutations(frames))
        diag = np.abs(np.einsum("maf,maf->mf", frames[:-1].conj(), frames[1:])) ** 2
        near_half = np.abs(diag.min(axis=1) - 0.5) <= 4 * density.MATCH_MARGIN
        assert near_half.sum() > 100
        assert 0 < np.count_nonzero(best[near_half]) < near_half.sum()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_planted_density_paths(self, monkeypatch, seed):
        # eigenvalues that cross, and stretches with an exactly or nearly
        # degenerate pair or two empty branches
        rng = np.random.default_rng(seed)
        m = 1201
        frames = planted_frames(rng, m)
        x = np.linspace(0.0, 6.0, m)[:, None]
        pops = 1.0 + 0.8 * np.cos(rng.uniform(0.5, 2.0, 4) * x + rng.uniform(0, 6, 4))
        pops[200:400, 1] = pops[200:400, 0]
        pops[500:700, 2] = pops[500:700, 3] + 1e-13
        pops[800:1000, 2:] = 0.0
        pops /= pops.sum(axis=1, keepdims=True)
        rhos = np.einsum("mak,mk,mbk->mab", frames, pops, frames.conj())
        rhos = 0.5 * (rhos + np.conj(np.swapaxes(rhos, 1, 2)))
        times = np.linspace(0.0, 1.0, m)
        path = eigen_path(times, rhos)
        assert path.flags
        assert_same_path(path, self.reference(monkeypatch, times, rhos))
        coarse = eigen_path(times[::2], rhos[::2])
        assert_same_path(
            eigen_path(times[1::2], rhos[1::2], coarse=coarse),
            self.reference(monkeypatch, times[1::2], rhos[1::2],
                           coarse=self.reference(monkeypatch, times[::2], rhos[::2])),
        )

    def test_margin_is_a_speed_knob(self, monkeypatch):
        # the same permutations at margins from 1e-12 to 0.49: on general.json
        # at 64, 512 and 4,096 steps and on 20 random four-coefficient states
        frames = [validate_density(config_path_rhos("general", n)[1]).vectors for n in (64, 512, 4096)]
        p = parse_config((CONFIG_DIR / "general.json").read_text()).params
        times = np.linspace(0.0, quasicycle_period(p), 513)
        rng = np.random.default_rng(14)
        for _ in range(20):
            c = rng.normal(size=4) + 1j * rng.normal(size=4)
            frames.append(validate_density(coherent_rho_path(general_initial(c / np.linalg.norm(c), p), times, p)).vectors)
        reference = [density._step_permutations(f) for f in frames]
        for margin in (1e-12, 1e-9, 1e-3, 0.1, 0.49):
            monkeypatch.setattr(density, "MATCH_MARGIN", margin)
            for f, best in zip(frames, reference):
                assert np.array_equal(density._step_permutations(f), best), margin

    @pytest.mark.parametrize("name", ["micro_micro", "macro_both", "macro_single", "general"])
    def test_shipped_configs(self, monkeypatch, name):
        cfg = parse_config((CONFIG_DIR / f"{name}.json").read_text())
        state0 = initial_branches(cfg)
        times = np.linspace(0.0, quasicycle_period(cfg.params), 4097)
        rhos = coherent_rho_path(state0, times, cfg.params)
        coarse = eigen_path(times[::2], rhos[::2])
        reference = self.reference(monkeypatch, times[::2], rhos[::2])
        assert_same_path(coarse, reference)
        assert_same_path(
            eigen_path(times[1::2], rhos[1::2], coarse=coarse),
            self.reference(monkeypatch, times[1::2], rhos[1::2], coarse=reference),
        )


def test_validate_density_checks_every_matrix_of_a_stack():
    rhos = analytic_rho_path(Scenario.MICRO_MICRO, 0.5, P, np.linspace(0, 1, 4))
    frames = validate_density(rhos)
    assert frames.values.shape == (4, 2) and frames.vectors.shape == (4, 2, 2)
    evals, evecs, _ = embed_frames(frames)
    assert evals.shape == (4, 4) and evecs.shape == (4, 4, 4) and frames.block == (0, 1)
    rhos[2] *= 1.01
    with pytest.raises(ValueError, match="trace"):
        validate_density(rhos)


def test_validate_density_reports_the_largest_hermiticity_deviation():
    # one perturbed entry anywhere in one matrix of the stack; the reported
    # deviation is the largest entry of |m - m^H|
    base = analytic_rho_path(Scenario.MICRO_MICRO, 0.5, P, np.linspace(0, 1, 4))
    for i in range(4):
        for j in range(4):
            rhos = base.copy()
            rhos[2, i, j] += 1e-9j * (1 + i + 4 * j)
            dev = np.max(np.abs(rhos - np.conj(np.swapaxes(rhos, -1, -2))))
            with pytest.raises(ValueError, match=f"not Hermitian: deviation {dev:g}$"):
                validate_density(rhos)


def test_validate_density_rejects_bad_trace():
    mat = np.eye(4, dtype=complex)
    with pytest.raises(ValueError, match="trace"):
        validate_density(mat)


def test_hermiticity_is_refused_beyond_its_tolerance():
    # HERMITICITY_TOL: |rho_01 - conj(rho_10)| = 1e-11 is refused, 1e-13 accepted
    def rho(dev):
        m = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        m[0, 1], m[1, 0] = 0.1, 0.1 + dev
        return m

    with pytest.raises(ValueError, match="not Hermitian"):
        validate_density(rho(1e-11))
    validate_density(rho(1e-13))


def test_trace_is_refused_beyond_its_tolerance():
    # TRACE_TOL: block entries of trace 1 + 1e-9 are refused, 1 + 1e-11 accepted
    b = np.full(3, 0.1 + 0j)
    with pytest.raises(ValueError, match="trace"):
        validate_density(BlockEntries(0.5 + 1e-9, 0.5, b, (0, 1)))
    validate_density(BlockEntries(0.5 + 1e-11, 0.5, b, (0, 1)))


def test_negative_eigenvalue_is_refused_beyond_its_tolerance():
    # POSITIVITY_TOL: a block eigenvalue of -1e-9 is refused, -1e-11 accepted;
    # the block [[1/2, 1/2 + e], [1/2 + e, 1/2]] has the eigenvalues 1 + e and -e
    def entries(e):
        return BlockEntries(0.5, 0.5, np.full(3, 0.5 + e + 0j), (0, 1))

    with pytest.raises(ValueError, match="negative eigenvalue"):
        validate_density(entries(1e-9))
    assert validate_density(entries(1e-11)).values.min() < 0.0


def block_stack(rng, m, block=(0, 1)):
    """m random density matrices supported on the basis states of block."""
    i, j = block
    a = rng.uniform(0.0, 1.0, m)
    b = np.sqrt(a * (1.0 - a)) * rng.uniform(0.0, 1.0, m) * np.exp(1j * rng.uniform(-4, 4, m))
    rhos = np.zeros((m, 4, 4), dtype=complex)
    rhos[:, i, i], rhos[:, j, j] = a, 1.0 - a
    rhos[:, i, j], rhos[:, j, i] = b, np.conj(b)
    return rhos


class TestBlockFrames:
    """validate_density's closed-form decomposition of a 2x2 block."""

    @pytest.mark.parametrize("block", [(0, 1), (0, 2), (1, 3), (2, 3)])
    def test_eigenpairs_and_orthonormality(self, block):
        rhos = block_stack(np.random.default_rng(7), 500, block)
        rhos[:3, block[0], block[1]] = rhos[:3, block[1], block[0]] = 0.0
        rhos[0, block[0], block[0]] = rhos[0, block[1], block[1]] = 0.5
        # a coherence far below the population difference: the small
        # eigenvector component must not cancel to 0
        rhos[3, block[0], block[1]] = 1e-9j
        rhos[3, block[1], block[0]] = -1e-9j
        frames = validate_density(rhos)
        assert frames.block == block
        evals, evecs, _ = embed_frames(frames)
        residual = rhos @ evecs - evecs * evals[:, None, :]
        assert np.max(np.abs(residual)) < 1e-15
        gram = np.conj(np.swapaxes(evecs, 1, 2)) @ evecs
        assert np.max(np.abs(gram - np.eye(4))) < 1e-15
        assert np.all(evals[:, 0] >= evals[:, 1]) and np.all(evals[:, 2:] == 0.0)
        np.testing.assert_allclose(np.sort(evals, axis=1), np.linalg.eigvalsh(rhos), atol=1e-15)

    def test_one_matrix_gives_the_bits_of_the_stack(self):
        rhos = block_stack(np.random.default_rng(8), 64, (0, 2))
        evals, evecs, _ = validate_density(rhos)
        for m in range(rhos.shape[0]):
            one_vals, one_vecs, _ = validate_density(rhos[m])
            assert np.array_equal(one_vals, evals[m]) and np.array_equal(one_vecs, evecs[m])

    def test_one_occupied_state_and_tiny_coherences(self):
        # a lone basis state pairs with an empty one; a subnormal coherence
        # and a degenerate block (a = d, b = 0) divide by nothing
        lone = np.zeros((2, 4, 4), dtype=complex)
        lone[:, 3, 3] = 1.0
        frames = validate_density(lone)
        assert frames.block == (0, 3)
        evals, evecs, _ = embed_frames(frames)
        assert np.array_equal(evals, [[1.0, 0.0, 0.0, 0.0]] * 2)
        assert np.array_equal(np.abs(evecs[:, :, 0]), [[0.0, 0.0, 0.0, 1.0]] * 2)
        tiny = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)[None].repeat(3, axis=0)
        # |b| of this subnormal b rounds to 6 units of 5e-324, not 6.08
        tiny[1, 0, 1] = complex(6, 1) * 5e-324
        tiny[1, 1, 0] = np.conj(tiny[1, 0, 1])
        tiny[2, 0, 0], tiny[2, 1, 1] = 0.75, 0.25
        tiny[2, 0, 1] = tiny[2, 1, 0] = 1e-310
        evals, evecs, _ = embed_frames(validate_density(tiny))
        gram = np.conj(np.swapaxes(evecs, 1, 2)) @ evecs
        assert np.max(np.abs(gram - np.eye(4))) < 1e-15
        # equal populations mix at 45 degrees however small the coherence
        expected = [np.eye(2), np.full((2, 2), math.sqrt(0.5)), np.eye(2)]
        np.testing.assert_allclose(np.abs(evecs[:, :2, :2]), expected, atol=1e-15)
        assert np.array_equal(evals[:, :2], [[0.5, 0.5], [0.5, 0.5], [0.75, 0.25]])

    def test_entries_off_the_block_take_eigh(self):
        rhos = block_stack(np.random.default_rng(9), 10)
        assert eigen_path(np.linspace(0, 1, 10), rhos).frames.block == (0, 1)
        rhos[4, 2, 2] = 1e-300
        rhos[4, 0, 0] -= 1e-300
        path = eigen_path(np.linspace(0, 1, 10), rhos)
        assert path.frames.block is None
        np.testing.assert_allclose(path.frames.values, np.linalg.eigvalsh(rhos), atol=1e-15)

    def test_checks_still_run(self):
        rhos = block_stack(np.random.default_rng(10), 4)
        bad = rhos.copy()
        bad[2, 0, 1] += 1e-9
        with pytest.raises(ValueError, match="Hermitian"):
            validate_density(bad)
        bad = rhos.copy()
        bad[1, 0, 0] += 1e-6
        with pytest.raises(ValueError, match="trace"):
            validate_density(bad)
        bad = rhos.copy()
        bad[3, 0, 1] = bad[3, 1, 0] = 0.6
        bad[3, 0, 0] = bad[3, 1, 1] = 0.5
        with pytest.raises(ValueError, match="negative eigenvalue"):
            validate_density(bad)
        bad = rhos.copy()
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="trace"):
            validate_density(bad)

    @pytest.mark.parametrize("entry, block", [((1, 0), (0, 1)), ((2, 0), None)])
    def test_hermiticity_on_and_off_the_block(self, entry, block):
        # the block route checks the block's entries only; a bad entry off the
        # block widens the support, so the full check runs. Either reports the
        # largest entry of |m - m^H| over the whole stack.
        rhos = block_stack(np.random.default_rng(12), 4)
        rhos[2][entry] += 1e-7j
        hermitian = (rhos + np.conj(np.swapaxes(rhos, -1, -2))) / 2
        assert eigen_path(np.linspace(0, 1, 4), hermitian).frames.block == block
        dev = np.max(np.abs(rhos - np.conj(np.swapaxes(rhos, -1, -2))))
        with pytest.raises(ValueError, match=f"not Hermitian: deviation {dev:g}$"):
            validate_density(rhos)

    def test_refinement_of_an_eigh_level_runs_the_matching(self):
        # a coarse level that eigh decomposed and block midpoints: the merged
        # grid goes through matching and gives the block path's branches
        times, rhos = np.linspace(0.0, 1.0, 513), block_stack(np.random.default_rng(11), 513)
        rhos[:, 0, 1] = rhos[:, 1, 0] = 0.3
        rhos[:, 0, 0] = 0.4 + 0.2 * np.cos(times)
        rhos[:, 1, 1] = 1.0 - rhos[:, 0, 0]
        coarse = eigen_path(times[::2], rhos[::2])
        eigh_level = replace(coarse, frames=Frames(*np.linalg.eigh(rhos[::2]), None))
        merged = eigen_path(times[1::2], rhos[1::2], coarse=eigh_level)
        scratch = eigen_path(times, rhos)
        assert merged.frames.block is None and scratch.frames.block == (0, 1)
        np.testing.assert_allclose(merged.values, scratch.values, atol=1e-15)
        overlap = np.abs(np.einsum("mak,mak->mk", merged.vectors.conj(), scratch.vectors))
        np.testing.assert_allclose(overlap, 1.0, atol=1e-14)


def assert_same_bits(a, b) -> None:
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# fl(pi/4) is the double nearest pi/4; its upper neighbour tips the populations.
BLOCK_ETA0S = {
    "0": 0.0,
    "pi/4": math.pi / 4,
    "pi/4+ulp": float(np.nextafter(math.pi / 4, 1.0)),
    "pi/2": math.pi / 2,
    "random": float(np.random.default_rng(25).uniform(0.0, math.pi / 2)),
}


def scenario_block_rhos(scenario, alpha, eta0, n_steps=256):
    doc = {"scenario": scenario, "omega": 1.0, "j_vdw": 0.07, "omega_b": 0.9, "chi": 0.003,
           "lambda_c": 0.1, "alpha": alpha, "eta0": eta0}
    cfg = parse_config(json.dumps(doc))
    times = np.linspace(0.0, quasicycle_period(cfg.params), n_steps + 1)
    return times, coherent_rho_path(initial_branches(cfg), times, cfg.params)


def hand_block_rhos(kind, m=65):
    """A lone occupied basis state (|10>), or a |01>,|10> block whose
    populations start equal and whose coherences are subnormal or 0."""
    rhos = np.zeros((m, 4, 4), dtype=complex)
    if kind == "lone-state":
        rhos[:, 3, 3] = 1.0
    else:
        a = np.linspace(0.5, 0.75, m)
        n = np.arange(m)
        b = (n % 7) * 5e-324 + 1j * (n % 5) * 5e-324
        b[::9] = 1e-310 * np.exp(1j * n[::9])
        rhos[:, 2, 2], rhos[:, 3, 3] = a, 1.0 - a
        rhos[:, 2, 3], rhos[:, 3, 2] = b, np.conj(b)
    return np.linspace(0.0, 1.0, m), rhos


BLOCK_PATHS = {
    **{f"{scenario}-{kind}-{name}": (scenario, alpha, eta0)
       for scenario in ("micro_micro", "macro_both", "macro_single")
       for kind, alpha in (("real", 1.3), ("complex", [0.9, -1.1]))
       for name, eta0 in BLOCK_ETA0S.items()},
    "lone-state": None,
    "subnormal": None,
}


class TestCompactBlockFrames:
    """A block path's frames hold its 2x2 block only. Embedded into the whole
    basis they are the 4x4 closed-form frames bit for bit
    (oracles.block_frames_4x4), and the phase sums and the concurrences give
    the same bits on paths built from either format."""

    @pytest.mark.parametrize("name", BLOCK_PATHS)
    def test_equal_the_4x4_reference_bit_for_bit(self, name):
        args = BLOCK_PATHS[name]
        times, rhos = hand_block_rhos(name) if args is None else scenario_block_rhos(*args)
        frames = validate_density(rhos)
        assert frames.block is not None
        assert frames.values.shape == (times.size, 2) and frames.vectors.shape == (times.size, 2, 2)
        values, vectors = block_frames_4x4(rhos, frames.block)
        embedded = embed_frames(frames)
        assert embedded.block is None
        assert_same_bits(embedded.values, values)
        assert_same_bits(embedded.vectors, vectors)

        # the block route's columns and flags on the 4x4 frames, which are
        # then marked as spanning the whole basis for access
        full = Frames(np.ascontiguousarray(values), np.ascontiguousarray(vectors), None)
        reference = replace(eigen_path(times, full._replace(block=frames.block), DEGENERACY_TOL), frames=full)
        compact = eigen_path(times, rhos)
        pairs = ((compact, reference), (strided_path(compact, 2), even_point_path(reference)))
        for a, b in pairs:
            assert np.array_equal(a.columns, b.columns) and a.flags == b.flags
            assert_same_bits(a.values, b.values)
            assert_same_bits(a.vectors, b.vectors)
            got, want = kinematic_phase(a), kinematic_phase(b)
            assert_same_bits(got.principal, want.principal)
            assert_same_bits(got.unwrapped, want.unwrapped)
            assert_same_bits(got.per_branch, want.per_branch)
            assert got.warnings == want.warnings
            assert_same_bits(phase_trace(a), phase_trace(b))
        assert_same_bits(
            concurrence_wootters(rhos, frames=compact.frames),
            concurrence_wootters(rhos, frames=Frames(values, vectors, frames.block)),
        )
        # the SVD route, on the embedded frames and on the reference's
        assert_same_bits(
            concurrence_wootters(rhos, frames=embedded),
            concurrence_wootters(rhos, frames=Frames(values, vectors, None)),
        )

    def test_block_paths_hold_80_bytes_per_grid_point(self):
        def per_point(path):
            return (path.frames.values.nbytes + path.frames.vectors.nbytes) / path.times.size

        times, rhos = config_path_rhos("micro_micro", 512)
        path = eigen_path(times, rhos)
        coarse = eigen_path(times[::2], rhos[::2])
        assert per_point(path) == per_point(coarse) == 80
        assert per_point(eigen_path(times[1::2], rhos[1::2], coarse=coarse)) == 80
        assert per_point(strided_path(path, 2)) == 80
        # a block level meets eigh's frames or another block's: both are
        # embedded, and the merged 4x4 frames have block None
        eigh_level = replace(coarse, frames=Frames(*np.linalg.eigh(rhos[::2]), None))
        merged = eigen_path(times[1::2], rhos[1::2], coarse=eigh_level)
        assert merged.frames.block is None and per_point(merged) == 288
        rng = np.random.default_rng(26)
        other = eigen_path(np.linspace(0.0, 1.0, 5), block_stack(rng, 5, (0, 2)))
        merged = eigen_path(np.linspace(0.125, 0.875, 4), block_stack(rng, 4, (0, 1)), coarse=other)
        assert merged.frames.block is None and per_point(merged) == 288
        even = embed_frames(other.frames)
        assert_same_bits(merged.frames.values[::2], even.values)
        assert_same_bits(merged.frames.vectors[::2], even.vectors)
