import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from becphase import (
    ModelParams,
    Scenario,
    bell_initial,
    concurrence_wootters,
    general_initial,
    hybrid_concurrence,
    macro_both_initial,
    macro_phase_relation,
    macro_single_initial,
    partial_trace,
    purity_oracle,
    weak_coupling_phase,
    witness_micro_macro,
    witness_micro_micro,
)
from becphase.cli import initial_branches, initial_state, parse_config
from becphase.entanglement import special_point_intensity
from becphase.geomphase import special_point_phase
from becphase.density import (
    coherent_rho_path,
    eigen_path,
    embed_frames,
    oracle_rho_path,
    validate_density,
)
from becphase.model import quasicycle_period
from oracles import (
    SIGMA_YY,
    branch_overlap,
    concurrence_sigma_yy_matmul,
    concurrence_x_state,
    evolve_joint,
    from_computational,
    local_unitary,
    single_qubit_concurrence,
    to_computational,
    x_state_density,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def bell_block(eta0: float) -> np.ndarray:
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = math.cos(eta0) ** 2
    mat[1, 1] = math.sin(eta0) ** 2
    mat[0, 1] = mat[1, 0] = 0.5 * math.sin(2 * eta0)
    return mat


def random_x_state(rng) -> tuple[float, float, float, complex]:
    probs = rng.dirichlet([1.0, 1.0, 1.0, 1.0])
    w, y = probs[0], probs[1]
    x = (probs[2] + probs[3]) / 2
    zmod = rng.uniform(0, math.sqrt(w * y))
    z = zmod * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
    return w, x, y, z


class TestSigmaYY:
    def test_hand_checked_matrix(self):
        sy = np.array([[0, -1j], [1j, 0]])
        comp = np.kron(sy, sy)
        np.testing.assert_array_equal(SIGMA_YY, from_computational(comp))

    def test_basis_permutation_round_trip(self):
        rng = np.random.default_rng(3)
        mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        np.testing.assert_allclose(from_computational(to_computational(mat)), mat)


class TestWootters:
    def test_bell_state_maximal(self):
        assert concurrence_wootters(bell_block(math.pi / 4)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_product_state_zero(self):
        mat = np.zeros((4, 4), dtype=complex)
        mat[0, 0] = 1.0
        assert concurrence_wootters(mat) == 0.0

    def test_initial_bell_family(self):
        for eta0 in np.linspace(0.05, 1.5, 20):
            c = concurrence_wootters(bell_block(eta0))
            assert c == pytest.approx(abs(math.sin(2 * eta0)), abs=1e-12)

    def test_oracle_state_matches_decay_law(self):
        # C(t) = |sin 2 eta0| e^{-Gamma(t)}
        p = ModelParams(omega=1.0, lambda_c=0.2, alpha=1.0)
        eta0 = 0.5
        t = math.pi / 2 / p.lambda_c / 2  # lambda t = pi/4
        rho = partial_trace(evolve_joint(bell_initial(eta0, p).fock(), t, p))
        gamma = 2 * abs(p.alpha) ** 2 * math.sin(p.lambda_c * t) ** 2
        assert concurrence_wootters(rho) == pytest.approx(
            abs(math.sin(2 * eta0)) * math.exp(-gamma), abs=1e-10
        )

    def test_antipodal_decay_endpoint(self):
        # lambda t = pi/2 gives Gamma = 2 |alpha|^2
        p = ModelParams(omega=1.0, lambda_c=0.2, alpha=1.0)
        eta0 = 0.6
        t = math.pi / 2 / p.lambda_c
        rho = partial_trace(evolve_joint(bell_initial(eta0, p).fock(), t, p))
        assert concurrence_wootters(rho) == pytest.approx(
            abs(math.sin(2 * eta0)) * math.exp(-2.0), abs=1e-10
        )

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(5)
        rho0 = to_computational(bell_block(0.5))
        for _ in range(20):
            u1, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            u2, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            u = np.kron(u1, u2)
            rot = from_computational(u @ rho0 @ u.conj().T)
            assert concurrence_wootters(rot) == pytest.approx(
                math.sin(1.0), abs=1e-9
            )

    def test_rejects_invalid_density(self):
        with pytest.raises(ValueError):
            concurrence_wootters(np.eye(4, dtype=complex))


class TestStackedWootters:
    @pytest.mark.parametrize("name", ["micro_micro", "macro_both", "macro_single", "general"])
    def test_stack_equals_pointwise_on_shipped_configs(self, name):
        cfg = parse_config((CONFIG_DIR / f"{name}.json").read_text())
        times = np.linspace(0.0, quasicycle_period(cfg.params), cfg.n_steps + 1)
        rhos = oracle_rho_path(initial_state(cfg), times, cfg.params)
        stacked = concurrence_wootters(rhos)
        assert stacked.dtype == np.float64 and stacked.shape == (times.size,)
        assert np.array_equal(stacked, [concurrence_wootters(r) for r in rhos])

    def test_single_matrix_is_a_float(self):
        value = concurrence_wootters(bell_block(0.3))
        assert type(value) is float
        assert concurrence_wootters(bell_block(0.3)[None]).tolist() == [value]

    def test_one_non_hermitian_matrix_rejects_the_stack(self):
        stack = np.stack([bell_block(eta0) for eta0 in np.linspace(0.1, 1.4, 5)])
        stack[3, 0, 1] += 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            concurrence_wootters(stack)

    def test_one_negative_eigenvalue_rejects_the_stack(self):
        stack = np.stack([bell_block(eta0) for eta0 in np.linspace(0.1, 1.4, 5)])
        stack[3] = np.diag([0.6, 0.5, -0.1, 0.0])
        with pytest.raises(ValueError, match="negative eigenvalue"):
            concurrence_wootters(stack)


class TestSpinFlipPermutation:
    """The SVD route's spin flip, a signed column permutation of sqrt(rho),
    against the product sqrt(rho) @ SIGMA_YY, bit for bit: on seeded general
    paths of four occupied states and of three, whose empty state gives rho
    an exact-zero row and column."""

    @pytest.mark.parametrize("empty", [None, 0, 1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_matmul(self, seed, empty):
        rng = np.random.default_rng(seed)
        coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
        if empty is not None:
            coeffs[empty] = 0.0
        coeffs /= np.linalg.norm(coeffs)
        mod, arg = rng.uniform(0.0, 4.0), rng.uniform(-math.pi, math.pi)
        doc = {"scenario": "general", "omega": rng.uniform(0.2, 2.0), "j_vdw": rng.uniform(-0.5, 0.5),
               "omega_b": rng.uniform(0.0, 2.0), "chi": rng.uniform(-0.1, 0.1),
               "lambda_c": rng.uniform(0.01, 0.5), "alpha": [mod * math.cos(arg), mod * math.sin(arg)],
               "coefficients": [[c.real, c.imag] for c in coeffs.tolist()]}
        cfg = parse_config(json.dumps(doc))
        times = np.linspace(0.0, quasicycle_period(cfg.params), 1025)
        rhos = coherent_rho_path(initial_branches(cfg), times, cfg.params)
        frames = validate_density(rhos)
        assert frames.block is None
        if empty is not None:
            assert not rhos[:, empty].any() and not rhos[:, :, empty].any()
        got = concurrence_wootters(rhos, frames=frames)
        assert got.tobytes() == concurrence_sigma_yy_matmul(frames).tobytes()


class TestBlockConcurrence:
    """The closed form on a two-state block against the SVD route, which runs
    on the block's frames embedded into the whole basis (block None) and on a
    support spread by a local unitary."""

    def test_bell_family_on_every_route(self):
        u = local_unitary()
        for eta0 in np.linspace(0.05, 1.5, 20):
            rho, expected = bell_block(eta0), abs(math.sin(2 * eta0))
            assert concurrence_wootters(rho) == expected
            svd = concurrence_wootters(rho, frames=embed_frames(validate_density(rho)))
            assert abs(svd - expected) < 1e-12
            assert abs(concurrence_wootters(u @ rho @ u.conj().T) - expected) < 1e-12

    @pytest.mark.parametrize("name, block", [("micro_micro", (0, 1)), ("general", None)])
    def test_frames_less_call_equals_the_paths_frames(self, name, block):
        # evolve passes its path's frames; a call without them decomposes the
        # stack itself, on the block route (micro_micro) or eigh's (general)
        cfg = parse_config((CONFIG_DIR / f"{name}.json").read_text())
        times = np.linspace(0.0, quasicycle_period(cfg.params), 16385)
        rhos = coherent_rho_path(initial_branches(cfg), times, cfg.params)
        path = eigen_path(times, rhos)
        assert path.frames.block == block
        assert np.array_equal(concurrence_wootters(rhos), concurrence_wootters(rhos, frames=path.frames))

    @staticmethod
    def general_path(coefficients):
        doc = json.loads((CONFIG_DIR / "general.json").read_text())
        cfg = parse_config(json.dumps(dict(doc, coefficients=coefficients)))
        times = np.linspace(0.0, quasicycle_period(cfg.params), 257)
        rhos = coherent_rho_path(initial_branches(cfg), times, cfg.params)
        u = local_unitary()
        return rhos, u @ rhos @ u.conj().T

    def test_block_of_states_differing_in_both_qubits(self):
        # |01>, |10>: the concurrence is 2 |rho_23|
        rhos, spread = self.general_path([0.0, 0.0, 0.6, [0.0, 0.8]])
        closed = concurrence_wootters(rhos)
        assert np.array_equal(closed, 2.0 * np.abs(rhos[:, 2, 3])) and closed.min() > 0.9
        assert np.max(np.abs(closed - concurrence_wootters(spread))) < 1e-12

    def test_block_of_one_qubits_states_is_a_product(self):
        # |00>, |01>: the first qubit stays in |0>
        rhos, spread = self.general_path([0.6, 0.0, [0.0, 0.8], 0.0])
        assert np.array_equal(concurrence_wootters(rhos), np.zeros(rhos.shape[0]))
        assert np.max(concurrence_wootters(spread)) <= 1e-12


class TestXState:
    def test_zero_coherence(self):
        assert concurrence_x_state(0.5, 0.1, 0.3, 0.0) == 0.0

    def test_bell_corner(self):
        assert concurrence_x_state(0.5, 0.0, 0.5, 0.5) == pytest.approx(1.0)

    def test_unphysical_rejected(self):
        with pytest.raises(ValueError):
            concurrence_x_state(0.5, 0.1, 0.3, 0.5)
        with pytest.raises(ValueError):
            concurrence_x_state(0.6, 0.1, 0.3, 0.0)
        with pytest.raises(ValueError):
            concurrence_x_state(-0.1, 0.3, 0.5, 0.0)

    def test_matches_wootters_on_200_draws(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            w, x, y, z = random_x_state(rng)
            shortcut = concurrence_x_state(w, x, y, z)
            full = concurrence_wootters(x_state_density(w, x, y, z))
            assert abs(shortcut - full) < 1e-10

    @given(
        st.floats(0.01, 0.97),
        st.floats(0.0, 1.0),
        st.floats(0.0, 0.999),
        st.floats(-math.pi, math.pi),
    )
    @settings(max_examples=60)
    def test_matches_wootters_property(self, w_frac, y_frac, z_frac, z_arg):
        w = w_frac
        y = (1.0 - w) * y_frac
        x = (1.0 - w - y) / 2
        z = z_frac * math.sqrt(w * y) * cmath.exp(1j * z_arg)
        shortcut = concurrence_x_state(w, x, y, z)
        full = concurrence_wootters(x_state_density(w, x, y, z))
        assert abs(shortcut - full) < 1e-10


class TestHybridConcurrence:
    def test_orthogonal_branches(self):
        res = hybrid_concurrence(math.pi / 4, 0.0)
        assert res.general == pytest.approx(1.0)
        assert res.verbatim == pytest.approx(1.0)

    def test_zero_mixing(self):
        res = hybrid_concurrence(0.0, 0.3)
        assert res.general == 0.0
        assert res.verbatim == 0.0

    def test_reference_values(self):
        res = hybrid_concurrence(math.pi / 4, math.exp(-2.0))
        assert res.verbatim == pytest.approx(math.sqrt(1 - math.exp(-2.0)), abs=1e-12)
        assert res.general == pytest.approx(math.sqrt(1 - math.exp(-4.0)), abs=1e-12)

    def test_overlap_bound(self):
        with pytest.raises(ValueError):
            hybrid_concurrence(0.5, 1.2)

    def test_overlap_above_one_is_rounding_up_to_its_tolerance(self):
        # 1 + 5e-13 is rounding, a unit overlap; 1 + 2e-12 is an error
        with pytest.raises(ValueError, match="overlap modulus must not exceed 1"):
            hybrid_concurrence(0.5, 1.0 + 2e-12)
        assert hybrid_concurrence(0.5, complex(1.0 + 5e-13)).general == 0.0

    @pytest.mark.parametrize("conc", [0.1, 0.5, 0.9])
    def test_special_point_intensity_sets_the_printed_concurrence(self, conc):
        # the hybrid sweeps' C is the linear-overlap form's; the purity
        # oracle gives the same state sqrt(1 - (1 - C^2)^2)
        a2 = special_point_intensity(conc)
        state = macro_both_initial(math.pi / 4, ModelParams(omega=1.0, alpha=math.sqrt(a2))).fock()
        res = hybrid_concurrence(math.pi / 4, branch_overlap(state.amps[0], state.amps[1]))
        assert res.verbatim == pytest.approx(conc, abs=1e-9)
        assert res.general == pytest.approx(math.sqrt(1 - (1 - conc**2) ** 2), abs=1e-9)
        assert macro_phase_relation(conc, Scenario.MACRO_BOTH, ModelParams(omega=1.0)) == (
            special_point_phase(Scenario.MACRO_BOTH, a2, ModelParams(omega=1.0))
        )

    def test_special_point_intensity_domain(self):
        assert math.copysign(1.0, special_point_intensity(0.0)) == 1.0
        for conc in (-0.1, 1.0):
            with pytest.raises(ValueError, match=r"\[0, 1\)"):
                special_point_intensity(conc)


class TestPurityOracle:
    def test_product_state(self):
        p = ModelParams(omega=1.0, alpha=1.0)
        state = general_initial([1.0, 0.0, 0.0, 0.0], p).fock()
        assert purity_oracle(state) < 1e-5

    def test_macro_both_large_alpha_saturates(self):
        p = ModelParams(omega=1.0, alpha=3.0)
        state = macro_both_initial(math.pi / 4, p).fock()
        assert purity_oracle(state) == pytest.approx(1.0, abs=1e-6)

    def test_adjudicates_overlap_exponent(self):
        # the reduced-purity value equals |sin 2 eta0| sqrt(1 - |overlap|^2)
        p = ModelParams(omega=1.0, alpha=1.0)
        state = macro_both_initial(math.pi / 4, p).fock()
        oracle = purity_oracle(state)
        overlap = branch_overlap(state.amps[0], state.amps[1])
        res = hybrid_concurrence(math.pi / 4, overlap)
        assert oracle == pytest.approx(res.general, abs=1e-9)
        assert abs(oracle - res.verbatim) > 0.05

    def test_single_qubit_cut(self):
        p = ModelParams(omega=1.0, alpha=1.0)
        state = macro_single_initial(math.pi / 4, p).fock()
        # qubit 2 carries the mode entanglement, qubit 1 none
        assert single_qubit_concurrence(state, "qubit2") == pytest.approx(
            math.sqrt(1 - math.exp(-4.0)), abs=1e-6
        )
        assert single_qubit_concurrence(state, "qubit1") < 1e-5

    def test_eta0_scaling(self):
        p = ModelParams(omega=1.0, alpha=1.0)
        eta0 = 0.4
        state = macro_both_initial(eta0, p).fock()
        overlap = branch_overlap(state.amps[0], state.amps[1])
        assert purity_oracle(state) == pytest.approx(
            abs(math.sin(2 * eta0)) * math.sqrt(1 - abs(overlap) ** 2), abs=1e-9
        )

    def test_rank_gate_on_qubits_cut(self):
        p = ModelParams(omega=1.0, lambda_c=0.1, omega_b=0.7, alpha=1.0)
        state = evolve_joint(general_initial([0.5, 0.5, 0.5, 0.5], p).fock(), 1.0, p)
        with pytest.raises(ValueError, match="support"):
            purity_oracle(state)


class TestWitnessMicroMicro:
    def test_endpoints(self):
        p = ModelParams(omega=1.0, lambda_c=0.001, alpha=1.0)
        scale = 4 * math.pi * p.lambda_c / p.omega
        assert witness_micro_micro(0.0, p).consistent == 0.0
        assert witness_micro_micro(scale, p).consistent == pytest.approx(1.0)

    def test_round_trip(self):
        p = ModelParams(omega=1.0, lambda_c=0.001, alpha=1.3)
        for conc in (0.1, 0.6, 0.95):
            phase = weak_coupling_phase(conc, p)
            res = witness_micro_micro(phase, p)
            assert res.consistent == pytest.approx(conc, abs=1e-10)

    def test_verbatim_returns_square(self):
        # the printed inversion reproduces C^2, not C
        p = ModelParams(omega=1.0, lambda_c=0.001, alpha=1.0)
        res = witness_micro_micro(weak_coupling_phase(0.6, p), p)
        assert res.verbatim == pytest.approx(0.36, abs=1e-10)

    def test_monotone(self):
        p = ModelParams(omega=1.0, lambda_c=0.001, alpha=1.0)
        scale = 4 * math.pi * p.lambda_c / p.omega
        phases = np.linspace(0, scale, 30)
        vals = [witness_micro_micro(ph, p).consistent for ph in phases]
        assert np.all(np.diff(vals) > 0)

    def test_domain(self):
        p = ModelParams(omega=1.0, lambda_c=0.001, alpha=1.0)
        scale = 4 * math.pi * p.lambda_c / p.omega
        with pytest.raises(ValueError):
            witness_micro_micro(-0.1 * scale, p)
        with pytest.raises(ValueError):
            witness_micro_micro(1.1 * scale, p)

    @given(st.floats(0.0, 0.999))
    @settings(max_examples=50)
    def test_round_trip_property(self, conc):
        p = ModelParams(omega=1.0, lambda_c=0.01, alpha=1.0)
        res = witness_micro_micro(weak_coupling_phase(conc, p), p)
        assert res.consistent == pytest.approx(conc, abs=1e-9)

    def test_round_trip_below_sqrt_epsilon(self):
        # C^2 is below double epsilon here, so 1 - sqrt(1 - C^2) cancels to 0
        # unless both directions are written without the subtraction
        p = ModelParams(omega=1.0, lambda_c=0.01, alpha=1.0)
        for conc in (1e-9, 1e-12):
            res = witness_micro_micro(weak_coupling_phase(conc, p), p)
            assert res.consistent == pytest.approx(conc, rel=1e-12)


class TestWitnessMicroMacro:
    def test_macro_both_round_trip(self):
        # to 2 ulp: log1p and expm1 keep the digits that 1 - C^2 and 1 - exp(x) cancel
        p = ModelParams(omega=1.0, alpha=1.0)
        for conc in (1e-9, 1e-5, 0.1, 0.5, 0.9, 0.99):
            phase = macro_phase_relation(conc, Scenario.MACRO_BOTH, p)
            res = witness_micro_macro(phase, Scenario.MACRO_BOTH, p)
            assert abs(res.consistent - conc) <= 2 * math.ulp(conc)
            assert res.verbatim == res.consistent

    def test_macro_both_reference_point(self):
        # phase (17/64) ln 2 at omega = 1 maps back to C = sqrt(1/2)
        p = ModelParams(omega=1.0, alpha=1.0)
        res = witness_micro_macro((17.0 / 64.0) * math.log(2.0), Scenario.MACRO_BOTH, p)
        assert res.verbatim == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_macro_single_round_trip_consistent_inverse(self):
        p = ModelParams(omega=1.0, j_vdw=0.2, alpha=1.0)
        for conc in (0.2, 0.5, 0.8):
            phase = macro_phase_relation(conc, Scenario.MACRO_SINGLE, p)
            res = witness_micro_macro(phase, Scenario.MACRO_SINGLE, p)
            assert res.consistent == pytest.approx(conc, abs=1e-10)

    def test_macro_single_printed_inverse_fails_round_trip(self):
        # the printed inversion omits an additive term and saturates near 1
        p = ModelParams(omega=1.0, j_vdw=0.2, alpha=1.0)
        phase = macro_phase_relation(0.5, Scenario.MACRO_SINGLE, p)
        res = witness_micro_macro(phase, Scenario.MACRO_SINGLE, p)
        assert abs(res.verbatim - 0.5) > 0.4

    def test_zero_exponent_gives_zero(self):
        p = ModelParams(omega=1.0, alpha=1.0)
        assert witness_micro_macro(0.0, Scenario.MACRO_BOTH, p).consistent == 0.0

    def test_domain(self):
        p = ModelParams(omega=1.0, alpha=1.0)
        with pytest.raises(ValueError):
            witness_micro_macro(-0.5, Scenario.MACRO_BOTH, p)
        with pytest.raises(ValueError):
            witness_micro_macro(0.0, Scenario.MICRO_MICRO, p)
