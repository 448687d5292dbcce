import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from becphase import ModelParams, branch_frequency, quasicycle_period
from oracles import BRANCH_LABELS, branch_frequency_cases

freqs = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
pos_freqs = st.floats(min_value=0.05, max_value=5.0, allow_nan=False)


def hamiltonian_energy(s1: int, s2: int, n: int, p: ModelParams) -> float:
    """Eigenenergy of |s1 s2> x |n> written out from the README Hamiltonian,
    with sigma_z |0> = -|0> and sigma_z |1> = +|1>."""
    a, b = 2 * s1 - 1, 2 * s2 - 1
    return (
        0.5 * p.omega * (a + b)
        + p.omega_b * n
        + p.j_vdw * a * b
        + 0.5 * p.lambda_c * (a + b) * n
        + p.chi * n * (n - 1)
    )


def test_energy_direct_substitution():
    # |11>, n = 0: all n terms vanish
    p = ModelParams(omega=1.3, j_vdw=0.2, omega_b=2.0, chi=0.4, lambda_c=0.7)
    assert branch_frequency(1, 0, p) == pytest.approx(1.3 + 0.2, abs=1e-15)
    # |00>, n = 2 summed term by term
    p = ModelParams(omega=1.0, j_vdw=0.1, omega_b=2.0, chi=0.01, lambda_c=0.05)
    assert branch_frequency(0, 2, p) == pytest.approx(3.02, abs=1e-14)


def test_energy_rejects_negative_fock_index():
    p = ModelParams(omega=1.0)
    with pytest.raises(ValueError):
        branch_frequency(2, -3, p)
    with pytest.raises(ValueError):
        branch_frequency(0, np.array([0, 1, -1]), p)


def test_opposite_spin_branch_is_j_independent_of_omega():
    p = ModelParams(omega=1.7, j_vdw=0.3, omega_b=0.8, chi=0.02, lambda_c=0.4)
    for n in range(6):
        expected = -0.3 + 0.8 * n + 0.02 * n * (n - 1)
        assert branch_frequency(2, n, p) == pytest.approx(expected, abs=1e-14)
        assert branch_frequency(3, n, p) == pytest.approx(expected, abs=1e-14)


@given(pos_freqs, freqs, freqs, freqs, freqs, st.integers(0, 50), st.integers(0, 3))
def test_branch_frequency_matches_energy(w, j, wb, chi, lam, n, branch):
    p = ModelParams(omega=w, j_vdw=j, omega_b=wb, chi=chi, lambda_c=lam)
    s1, s2 = BRANCH_LABELS[branch]
    assert branch_frequency(branch, n, p) == pytest.approx(
        hamiltonian_energy(s1, s2, n, p), abs=1e-10, rel=1e-12
    )


@given(pos_freqs, freqs, freqs, freqs, freqs, st.integers(0, 50))
def test_mixed_branches_degenerate(w, j, wb, chi, lam, n):
    p = ModelParams(omega=w, j_vdw=j, omega_b=wb, chi=chi, lambda_c=lam)
    assert branch_frequency(2, n, p) == branch_frequency(3, n, p)


@given(pos_freqs, freqs, freqs, freqs, freqs, st.integers(0, 50))
def test_branch_splitting(w, j, wb, chi, lam, n):
    p = ModelParams(omega=w, j_vdw=j, omega_b=wb, chi=chi, lambda_c=lam)
    split = branch_frequency(1, n, p) - branch_frequency(0, n, p)
    assert split == pytest.approx(2 * w + 2 * lam * n, abs=1e-10, rel=1e-12)


def test_zero_coupling_splitting_is_constant():
    p = ModelParams(omega=1.4, j_vdw=0.2, omega_b=0.9, chi=0.05, lambda_c=0.0)
    for n in (0, 1, 7, 50):
        assert branch_frequency(1, n, p) - branch_frequency(0, n, p) == pytest.approx(
            2.8, abs=1e-13
        )


def test_branch_frequency_vectorized():
    p = ModelParams(omega=1.0, j_vdw=0.1, omega_b=0.5, chi=0.01, lambda_c=0.2)
    n = np.arange(20)
    vec = branch_frequency(1, n, p)
    assert vec.shape == (20,)
    assert vec[7] == pytest.approx(branch_frequency(1, 7, p), abs=1e-14)


def test_quasicycle_period():
    assert quasicycle_period(ModelParams(omega=2 * math.pi)) == pytest.approx(1.0)
    assert quasicycle_period(ModelParams(omega=1.0)) == pytest.approx(2 * math.pi)
    assert quasicycle_period(ModelParams(omega=4.0)) == pytest.approx(math.pi / 2)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        ModelParams(omega=0.0)
    with pytest.raises(ValueError):
        ModelParams(omega=-1.0)
    with pytest.raises(ValueError):
        ModelParams(omega=math.nan)
    with pytest.raises(ValueError):
        ModelParams(omega=1.0, alpha=complex(math.inf, 0))


def test_branch_out_of_range():
    p = ModelParams(omega=1.0)
    with pytest.raises(ValueError):
        branch_frequency(4, 0, p)


@given(pos_freqs, freqs, freqs, freqs, freqs)
def test_branch_arrays_give_the_per_branch_bits(w, j, wb, chi, lam):
    # one call over an array of branches, as coherent_rho_path and
    # oracle_rho_path make it, against one formula per branch
    p = ModelParams(omega=w, j_vdw=j, omega_b=wb, chi=chi, lambda_c=lam)
    n = np.arange(60)
    for branches in (np.arange(4), np.array([0, 1]), np.array([0, 2]), np.array([3, 1, 2])):
        want = np.stack([branch_frequency_cases(b, n, p) for b in branches])
        assert branch_frequency(branches[:, None], n, p).tobytes() == want.tobytes()
    for branch in range(4):
        for k in (0, 1, 9):
            got = branch_frequency(branch, k, p)
            assert type(got) is float
            assert np.float64(got).tobytes() == branch_frequency_cases(branch, k, p).tobytes()


def test_branch_outside_0_to_3_is_refused():
    p = ModelParams(omega=1.0)
    for branch in (4, -1, np.array([0, 4]), 1.0):
        with pytest.raises(ValueError, match="branch"):
            branch_frequency(branch, 2, p)
