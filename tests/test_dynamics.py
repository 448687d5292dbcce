import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from becphase import (
    JointState,
    ModelParams,
    bell_initial,
    coherent,
    general_initial,
    macro_both_initial,
    macro_single_initial,
    partial_trace,
    truncation_dim,
    validate_joint,
)
from becphase.dynamics import MAX_ALPHA, TAIL_TOL
from oracles import branch_overlap, evolve_branch, evolve_joint


def norm2(amps: np.ndarray) -> float:
    return float(np.sum(np.abs(amps) ** 2))


def poisson_tail(alpha: complex, n_max: int) -> float:
    """Independent cumulative-sum reference for the truncation search."""
    mu = abs(alpha) ** 2
    p = math.exp(-mu)
    cum = p
    for n in range(1, n_max + 1):
        p *= mu / n
        cum += p
    return 1.0 - cum


def log_space_tail(alpha: complex, n_max: int) -> float:
    """Poisson mass above n_max summed from log-space terms, which stay
    normal doubles where exp(-|alpha|^2) does not."""
    mu = abs(alpha) ** 2
    return math.fsum(
        math.exp(n * math.log(mu) - mu - math.lgamma(n + 1))
        for n in range(n_max + 1, n_max + 4000)
    )


class TestTruncation:
    def test_vacuum_floor(self):
        n = truncation_dim(0.0, 1e-12)
        assert n <= 8
        assert poisson_tail(0.0, n) < 1e-12

    def test_alpha_two_reference(self):
        n = truncation_dim(2.0, 1e-12)
        assert 25 <= n <= 45
        assert poisson_tail(2.0, n) < 1e-12
        assert poisson_tail(2.0, n - 1) >= 1e-12

    def test_depends_on_modulus_only(self):
        assert truncation_dim(3j, 1e-12) == truncation_dim(3.0, 1e-12)
        assert truncation_dim(-2.5, 1e-10) == truncation_dim(2.5, 1e-10)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            truncation_dim(1.0, 0.0)
        with pytest.raises(ValueError):
            truncation_dim(1.0, 1.5)

    def test_refuses_alpha_whose_vacuum_amplitude_underflows(self):
        # exp(-|alpha|^2 / 2) stops being a normal double at |alpha| ~ 37.64
        assert truncation_dim(37.6, 1e-12) > 1400
        with pytest.raises(ValueError, match="alpha"):
            truncation_dim(37.7j, 1e-12)

    def test_tail_where_the_vacuum_mass_is_subnormal(self):
        # exp(-|alpha|^2) is subnormal for 26.6 < |alpha| < 27.3
        for mod in (26.7, 27.0, 27.2):
            assert log_space_tail(mod, truncation_dim(mod, TAIL_TOL)) < TAIL_TOL

    @pytest.mark.parametrize("tol", [1e-14, 1e-13])
    def test_tight_tails_up_to_the_alpha_cap(self, tol):
        # the smallest n_max whose log-space tail lies below tol, everywhere
        # up to MAX_ALPHA, including where exp(-|alpha|^2) underflows
        for mod in np.linspace(MAX_ALPHA / 100, MAX_ALPHA, 100):
            n = truncation_dim(mod, tol)
            assert log_space_tail(mod, n) < tol <= log_space_tail(mod, n - 1)

    @given(
        st.floats(min_value=0.0, max_value=4.0),
        st.floats(min_value=-math.pi, max_value=math.pi),
        st.sampled_from([1e-8, 1e-10, 1e-12]),
    )
    @settings(max_examples=40)
    def test_tail_property(self, mod, arg, tol):
        alpha = mod * cmath.exp(1j * arg)
        n = truncation_dim(alpha, tol)
        assert poisson_tail(alpha, n) < tol


class TestCoherent:
    def test_vacuum(self):
        v = coherent(0.0, 5)
        assert v[0] == pytest.approx(1.0)
        assert np.all(v[1:] == 0)

    def test_first_amplitudes(self):
        v = coherent(1.0, 2)
        scale = math.exp(-0.5)
        np.testing.assert_allclose(
            v, scale * np.array([1.0, 1.0, 1.0 / math.sqrt(2)]), atol=1e-15
        )

    def test_norm_close_to_one(self):
        n = truncation_dim(2.0, 1e-12)
        assert abs(norm2(coherent(2.0, n)) - 1.0) < 1e-12

    def test_antipodal_overlap(self):
        n = truncation_dim(1.0, 1e-14)
        ov = branch_overlap(coherent(1.0, n), coherent(-1.0, n))
        assert ov == pytest.approx(math.exp(-2.0), abs=1e-12)

    def test_general_coherent_overlap(self):
        # closed form exp(-(|a|^2+|b|^2)/2 + conj(a) b) against the sum
        a, b = 1.0, 1.0j
        n = truncation_dim(2.0, 1e-14)
        ov = branch_overlap(coherent(a, n), coherent(b, n))
        expected = cmath.exp(-(abs(a) ** 2 + abs(b) ** 2) / 2 + a.conjugate() * b)
        assert ov == pytest.approx(expected, abs=1e-12)
        assert abs(ov) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_negative_dim_rejected(self):
        with pytest.raises(ValueError):
            coherent(1.0, -1)


class TestEvolveBranch:
    def test_identity_at_t0(self):
        p = ModelParams(omega=1.0, j_vdw=0.1, omega_b=0.5, chi=0.02, lambda_c=0.1)
        v = coherent(1.5, 30)
        np.testing.assert_array_equal(evolve_branch(v, 0, 0.0, p), v)

    def test_unitarity(self):
        p = ModelParams(omega=1.3, j_vdw=0.2, omega_b=0.8, chi=0.05, lambda_c=0.3)
        v = coherent(2.0, 45)
        for branch in range(4):
            w = evolve_branch(v, branch, 3.7, p)
            assert norm2(w) == pytest.approx(norm2(v), abs=1e-13)

    def test_linear_spectrum_rotates_coherent_state(self):
        # chi = 0, lambda = 0, branch 2: global phase times alpha -> alpha e^{-i wb t}
        p = ModelParams(omega=1.0, j_vdw=0.15, omega_b=0.7, chi=0.0, lambda_c=0.0)
        alpha, t = 1.2, 0.9
        n = truncation_dim(alpha, 1e-13)
        evolved = evolve_branch(coherent(alpha, n), 2, t, p)
        rotated = coherent(alpha * cmath.exp(-1j * p.omega_b * t), n)
        global_phase = cmath.exp(1j * p.j_vdw * t)
        np.testing.assert_allclose(evolved, global_phase * rotated, atol=1e-12)

    def test_branch_pair_overlap_closed_form(self):
        # |<phi0(t)|phi1(t)>| = exp(-2 |alpha|^2 sin^2(lambda t)); Kerr terms cancel
        p = ModelParams(omega=1.0, j_vdw=0.0, omega_b=0.4, chi=0.07, lambda_c=0.1, alpha=1.0)
        n = truncation_dim(1.0, 1e-14)
        v = coherent(1.0, n)
        t = 1.0
        f0 = evolve_branch(v, 0, t, p)
        f1 = evolve_branch(v, 1, t, p)
        ov = branch_overlap(f1, f0)
        lam1 = 2 * p.omega * t + abs(p.alpha) ** 2 * math.sin(2 * p.lambda_c * t)
        gam1 = 2 * abs(p.alpha) ** 2 * math.sin(p.lambda_c * t) ** 2
        assert abs(ov) == pytest.approx(math.exp(-2 * math.sin(0.1) ** 2), abs=1e-12)
        assert ov == pytest.approx(cmath.exp(1j * lam1 - gam1), abs=1e-12)

    def test_overlap_dimension_mismatch(self):
        with pytest.raises(ValueError):
            branch_overlap(coherent(1.0, 10), coherent(1.0, 11))

    def test_normalized_self_overlap(self):
        v = coherent(1.0, 40)
        assert branch_overlap(v, v) == pytest.approx(norm2(v), abs=1e-14)


class TestJointState:
    def test_bell_normalized(self):
        p = ModelParams(omega=1.0, alpha=1.0)
        state = bell_initial(0.4, p).fock()
        validate_joint(state)

    def test_all_builders_normalized(self):
        p = ModelParams(omega=1.0, alpha=1.5)
        for state in (
            bell_initial(0.8, p).fock(),
            macro_both_initial(0.8, p).fock(),
            macro_single_initial(0.8, p).fock(),
            general_initial([0.5, 0.5, 0.5, 0.5], p).fock(),
        ):
            validate_joint(state)

    def test_general_rejects_bad_norm(self):
        p = ModelParams(omega=1.0)
        with pytest.raises(ValueError, match="c_i"):
            general_initial([0.5, 0.5, 0.5, 0.6], p)

    def test_evolve_joint_preserves_norm_and_coeffs(self):
        p = ModelParams(omega=1.0, j_vdw=0.1, omega_b=0.5, chi=0.01, lambda_c=0.2, alpha=1.3)
        s0 = bell_initial(0.6, p).fock()
        st1 = evolve_joint(s0, 2.1, p)
        np.testing.assert_array_equal(st1.coeffs, s0.coeffs)
        assert abs(st1.norm2() - 1.0) < 1e-10

    def test_evolve_joint_rejects_unnormalized(self):
        p = ModelParams(omega=1.0)
        bad = bell_initial(0.6, p).fock()
        bad = JointState(bad.coeffs * 0.9, bad.amps)
        with pytest.raises(ValueError):
            evolve_joint(bad, 1.0, p)

    def test_product_state_stays_product(self):
        p = ModelParams(omega=1.0, lambda_c=0.3, chi=0.02, omega_b=0.7, alpha=1.0)
        s0 = general_initial([1.0, 0.0, 0.0, 0.0], p).fock()
        rho = partial_trace(evolve_joint(s0, 1.7, p))
        target = np.zeros((4, 4))
        target[0, 0] = 1.0
        np.testing.assert_allclose(rho, target, atol=1e-12)

    def test_branches_refuse_alpha_beyond_the_cap(self):
        p = ModelParams(omega=1.0, alpha=37.7j)
        for build in (bell_initial, macro_both_initial, macro_single_initial):
            with pytest.raises(ValueError, match="alpha"):
                build(0.4, p)
        with pytest.raises(ValueError, match="alpha"):
            general_initial([0.5, 0.5, 0.5, 0.5], p)

    def test_macro_both_branch_overlap_at_t0(self):
        p = ModelParams(omega=1.0, alpha=1.0)
        s = macro_both_initial(math.pi / 4, p).fock()
        ov = branch_overlap(s.amps[0], s.amps[1])
        assert ov == pytest.approx(math.exp(-2.0), abs=1e-12)


class TestInvariantProperties:
    def test_revival_periodicity_without_kerr(self):
        p = ModelParams(omega=1.0, j_vdw=0.1, omega_b=0.6, chi=0.0, lambda_c=0.25, alpha=1.4)
        n = truncation_dim(p.alpha, 1e-13)
        v = coherent(p.alpha, n)
        period = math.pi / p.lambda_c
        for t in (0.3, 1.1):
            a = branch_overlap(evolve_branch(v, 0, t, p), evolve_branch(v, 1, t, p))
            b = branch_overlap(
                evolve_branch(v, 0, t + period, p), evolve_branch(v, 1, t + period, p)
            )
            assert abs(a) == pytest.approx(abs(b), abs=1e-11)

    def test_zero_coupling_keeps_overlap_modulus_one(self):
        p = ModelParams(omega=1.0, j_vdw=0.1, omega_b=0.6, chi=0.03, lambda_c=0.0, alpha=1.2)
        n = truncation_dim(p.alpha, 1e-13)
        v = coherent(p.alpha, n)
        for t in (0.5, 2.0, 6.0):
            ov = branch_overlap(evolve_branch(v, 0, t, p), evolve_branch(v, 1, t, p))
            assert abs(ov) == pytest.approx(norm2(v), abs=1e-12)

    def test_truncation_convergence(self):
        p = ModelParams(omega=1.0, omega_b=0.4, chi=0.05, lambda_c=0.15, alpha=2.0)
        t = 1.9
        n = truncation_dim(p.alpha, 1e-12)
        values = []
        for dim in (n, 2 * n):
            v = coherent(p.alpha, dim)
            values.append(
                branch_overlap(evolve_branch(v, 0, t, p), evolve_branch(v, 1, t, p))
            )
        assert abs(values[0] - values[1]) < 1e-10


def test_joint_state_requires_four_amplitude_rows():
    with pytest.raises(ValueError, match="amps"):
        JointState(np.ones(4) / 2, np.ones(5))
    with pytest.raises(ValueError, match="amps"):
        JointState(np.ones(4) / 2, np.ones((3, 5)))
    with pytest.raises(ValueError, match="amps"):
        JointState(np.ones(4) / 2, np.ones((4, 0)))
