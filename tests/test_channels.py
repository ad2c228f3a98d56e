import numpy as np
import pytest

from gdiscord import (
    CanonicalForm,
    DomainError,
    GaussianChannelParams,
    InvalidChannelParams,
    NormalFormCM,
    NumericalFailure,
    apply_to_mode_A,
    classify,
    embed_normal_form,
    epr_cm,
    h,
    min_output_entropy,
    pathological_form_matrices,
    validate_bona_fide,
)
from states import WORKED_CM, seeded_states, thermal_reference


class TestParams:
    def test_k_matrix_extended(self):
        ch = GaussianChannelParams(-1.0, 2.0)
        assert np.allclose(ch.K, np.diag([1.0, -1.0]), atol=1e-15)
        assert np.allclose(ch.N, 2.0 * np.eye(2), atol=1e-15)

    def test_k_matrix_lossy(self):
        ch = GaussianChannelParams(0.25, 0.75)
        assert np.allclose(ch.K, 0.5 * np.eye(2), atol=1e-15)

    def test_rejects_subquantum_noise(self):
        with pytest.raises(InvalidChannelParams):
            GaussianChannelParams(0.5, 0.4)
        with pytest.raises(InvalidChannelParams):
            GaussianChannelParams(2.0, 0.9)

    def test_boundary_accepted(self):
        for tau in (-1.0, 0.0, 0.3, 1.0, 2.0):
            ch = GaussianChannelParams(tau, abs(1.0 - tau))
            assert ch.is_quantum_limited()

    @pytest.mark.parametrize("tau, eta", [(1.0000000001, 1e-9), (0.5, 0.5000000005), (1.0, 5e-10)])
    def test_quantum_limited_is_classify_reading(self, tau, eta):
        # near eta = |1 - tau| but not read on it: a nonzero n_bar, or B2_additive
        ch = GaussianChannelParams(tau, eta)
        cc = classify(ch)
        assert cc.n_bar != 0.0 and cc.label is not CanonicalForm.B2_IDENTITY
        assert not ch.is_quantum_limited()


class TestClassify:
    def test_identity(self):
        cc = classify(GaussianChannelParams(1.0, 0.0))
        assert cc.label is CanonicalForm.B2_IDENTITY
        assert cc.omega is None

    def test_additive(self):
        assert classify(GaussianChannelParams(1.0, 0.3)).label is CanonicalForm.B2_ADDITIVE

    def test_lossy(self):
        cc = classify(GaussianChannelParams(0.5, 0.6))
        assert cc.label is CanonicalForm.C_LOSSY
        assert cc.omega == pytest.approx(1.2, abs=1e-12)
        assert cc.n_bar == pytest.approx(0.1, abs=1e-12)

    def test_conjugate_amplifier(self):
        cc = classify(GaussianChannelParams(-1.0, 2.0))
        assert cc.label is CanonicalForm.D
        assert cc.omega == pytest.approx(1.0, abs=1e-12)

    def test_depolarizing(self):
        cc = classify(GaussianChannelParams(0.0, 3.0))
        assert cc.label is CanonicalForm.A1
        assert cc.omega == pytest.approx(3.0, abs=1e-12)

    def test_amplifier(self):
        cc = classify(GaussianChannelParams(3.0, 4.0))
        assert cc.label is CanonicalForm.C_AMPLIFIER
        assert cc.omega == pytest.approx(2.0, abs=1e-12)
        assert cc.n_bar == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("tau, eta", [
        (0.7, 0.3), (0.9, 0.1), (0.3, 0.7), (0.001, 0.999), (-0.7, 1.7), (1.3, 0.3), (2.0, 1.0)])
    def test_quantum_limited_in_decimal_has_no_thermal_photons(self, tau, eta):
        # 1 - tau and eta round apart; the parameters are still exactly those of the boundary
        cc = classify(GaussianChannelParams(tau, eta))
        assert (cc.omega, cc.n_bar) == (1.0, 0.0)

    def test_thermal_parameters_match_a_decimal_reference(self):
        rng = np.random.default_rng(7)
        taus = [t for t in rng.uniform(-3.0, 4.0, 600) if abs(t - 1.0) > 1e-3 and abs(t) > 1e-3]
        for tau, excess in zip(taus, 10.0 ** rng.uniform(-10.0, 1.0, len(taus))):
            eta = abs(1.0 - tau) + excess  # down to 1e-10 above the boundary, where omega - 1 cancels
            cc = classify(GaussianChannelParams(tau, eta))
            omega, n_bar = thermal_reference(tau, eta)
            assert abs(cc.omega - float(omega)) <= 1e-15 * float(omega), (tau, eta)
            assert abs(cc.n_bar - float(n_bar)) <= 1e-15 * float(n_bar), (tau, eta)

    def test_omega_past_the_float_range_is_a_numerical_failure(self):
        with pytest.raises(NumericalFailure, match="past the float range"):
            classify(GaussianChannelParams(0.5, 1e308))


class TestPathological:
    def test_a2(self):
        K, N = pathological_form_matrices(CanonicalForm.A2, n_bar=0.0)
        assert np.array_equal(K, np.diag([1.0, 0.0]))
        assert np.array_equal(N, np.eye(2))

    def test_a2_thermal(self):
        _, N = pathological_form_matrices("A2", n_bar=1.0)
        assert np.array_equal(N, 3.0 * np.eye(2))

    def test_b1(self):
        K, N = pathological_form_matrices(CanonicalForm.B1)
        assert np.array_equal(K, np.eye(2))
        assert np.array_equal(N, np.diag([0.0, 1.0]))

    def test_other_labels_rejected(self):
        with pytest.raises((DomainError, ValueError)):
            pathological_form_matrices(CanonicalForm.C_LOSSY)
        with pytest.raises(DomainError):
            pathological_form_matrices("A2", n_bar=-0.5)


class TestApply:
    def test_equals_the_block_assembly(self):
        # reference: [[K A K^T + N, K C], [(K C)^T, B]] with np.block, on arrays and row lists,
        # with an asymmetry inside SYMMETRY_RTOL below the diagonal of each block
        rng = np.random.default_rng(34)
        for V in seeded_states(rng, 400):
            V = V + np.tril(np.full((4, 4), 1e-13), -1)
            tau = rng.uniform(-3.0, 3.0)
            ch = GaussianChannelParams(tau, abs(1.0 - tau) + rng.uniform(0.0, 2.0))
            A, C = ch.K @ V[:2, :2] @ ch.K.T + ch.N, ch.K @ V[:2, 2:]
            ref = np.block([[A, C], [C.T, V[2:, 2:]]])
            assert np.array_equal(apply_to_mode_A(ch, V), ref)
            assert np.array_equal(apply_to_mode_A(ch, V.tolist()), ref)

    def test_identity_channel(self):
        V = epr_cm(2.5)
        out = apply_to_mode_A(GaussianChannelParams(1.0, 0.0), V)
        assert np.allclose(out, V, atol=1e-15)

    def test_amplified_epr_is_worked_state(self):
        out = apply_to_mode_A(GaussianChannelParams(2.0, 1.0), epr_cm(2.0, 1))
        target = WORKED_CM
        assert np.allclose(out, target, atol=1e-12)

    def test_depolarizing_gives_product(self):
        out = apply_to_mode_A(GaussianChannelParams(0.0, 3.5), epr_cm(4.0))
        target = embed_normal_form(NormalFormCM(3.5, 4.0, 0, 0))
        assert np.allclose(out, target, atol=1e-12)

    def test_vacuum_input_reaches_min_entropy_variance(self):
        # mode A of EPR(b=1) is the vacuum
        for tau, eta in [(0.7, 0.5), (2.0, 1.5), (-0.5, 2.0), (1.0, 0.0)]:
            out = apply_to_mode_A(GaussianChannelParams(tau, eta), epr_cm(1.0))
            assert np.allclose(out[:2, :2], (abs(tau) + eta) * np.eye(2), atol=1e-12)

    def test_preserves_bona_fide(self):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            b = rng.uniform(1.0, 5.0)
            tau = rng.uniform(-2.0, 3.0)
            eta = abs(1.0 - tau) + rng.exponential(1.0)
            out = apply_to_mode_A(GaussianChannelParams(tau, eta), epr_cm(b))
            assert validate_bona_fide(out).bona_fide

    def test_quantum_limited_lossy_composition(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            t1, t2 = rng.uniform(0.1, 1.0, 2)
            b = rng.uniform(1.0, 4.0)
            V = epr_cm(b)
            step = apply_to_mode_A(
                GaussianChannelParams(t1, 1.0 - t1),
                apply_to_mode_A(GaussianChannelParams(t2, 1.0 - t2), V),
            )
            once = apply_to_mode_A(GaussianChannelParams(t1 * t2, 1.0 - t1 * t2), V)
            assert np.max(np.abs(step - once)) <= 1e-12


class TestMinOutputEntropy:
    def test_identity(self):
        assert min_output_entropy(GaussianChannelParams(1.0, 0.0)) == 0.0

    def test_amplifier(self):
        assert min_output_entropy(GaussianChannelParams(2.0, 1.0)) == pytest.approx(2.0, abs=1e-14)

    def test_conjugate_amplifier(self):
        assert min_output_entropy(GaussianChannelParams(-1.0, 2.0)) == pytest.approx(2.0, abs=1e-14)

    def test_matches_h(self):
        ch = GaussianChannelParams(0.3, 1.9)
        assert min_output_entropy(ch) == pytest.approx(h(2.2), abs=1e-14)

    def test_monotone_in_eta(self):
        for tau in (-1.0, 0.0, 0.5, 1.0, 2.0):
            etas = np.linspace(abs(1 - tau), abs(1 - tau) + 5.0, 40)
            vals = [min_output_entropy(GaussianChannelParams(tau, e)) for e in etas]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
