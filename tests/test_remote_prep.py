import math

import numpy as np
import pytest

from gdiscord import (
    DomainError,
    GaussianMeasurement,
    NormalFormCM,
    condition_on_outcome,
    conditional_cm,
    conditional_mean_map,
    conditioning_on_mode_A,
    embed_normal_form,
    epr_cm,
    epr_squeezing_range,
)
from gdiscord.verification import random_normal_forms

SQRT6 = math.sqrt(6.0)
Z = np.diag([1.0, -1.0])


def schur_oracle(V, m, measured="B"):
    """Generic 4x4 Gaussian conditioning through numpy.linalg.solve."""
    V = np.asarray(V, float)
    if measured == "A":
        perm = [2, 3, 0, 1]
        V = V[np.ix_(perm, perm)]
    A, C, B = V[:2, :2], V[:2, 2:], V[2:, 2:]
    M = B + m.seed_cm()
    return A - C @ np.linalg.solve(M, C.T)


class TestMeasurementType:
    def test_validation(self):
        with pytest.raises(DomainError):
            GaussianMeasurement(-0.5)
        with pytest.raises(DomainError):
            GaussianMeasurement(float("nan"))

    def test_phi_reduced_mod_pi(self):
        m = GaussianMeasurement(2.0, math.pi + 0.3)
        assert m.phi == pytest.approx(0.3, abs=1e-12)

    def test_kinds(self):
        assert GaussianMeasurement.heterodyne().kind == "heterodyne"
        assert GaussianMeasurement.homodyne_q().kind == "homodyne_q"
        assert GaussianMeasurement.homodyne_p().kind == "homodyne_p"
        assert GaussianMeasurement(0.3).kind == "squeezed"

    def test_seed_cm_is_pure(self):
        m = GaussianMeasurement(3.7, 1.1)
        assert np.linalg.det(m.seed_cm()) == pytest.approx(1.0, abs=1e-12)

    def test_seed_round_trip(self):
        # the seed's eigenvalues are (1/u, u), with u along (cos phi, sin phi)
        m = GaussianMeasurement(3.7, 1.1)
        vals, vecs = np.linalg.eigh(m.seed_cm())
        assert vals == pytest.approx([1.0 / m.u, m.u], abs=1e-9)
        phi = math.atan2(vecs[1, 1], vecs[0, 1]) % math.pi
        assert phi == pytest.approx(m.phi, abs=1e-9)

    def test_homodyne_has_no_seed(self):
        with pytest.raises(DomainError):
            GaussianMeasurement.homodyne_q().seed_cm()


class TestConditioning:
    def test_product_state_unchanged(self):
        V = embed_normal_form(NormalFormCM(2.5, 1.5, 0, 0))
        st = condition_on_outcome(V, [0.4, -0.1, 0, 0], GaussianMeasurement.heterodyne(), [5, 5])
        assert np.allclose(st.cm, 2.5 * np.eye(2), atol=1e-12)
        assert np.allclose(st.mean, [0.4, -0.1], atol=1e-12)

    def test_epr_heterodyne_coherent_prep(self):
        mu = 2.0
        k = np.array([1.0, 0.5])
        st = condition_on_outcome(epr_cm(mu), None, GaussianMeasurement.heterodyne(), k)
        assert np.allclose(st.cm, np.eye(2), atol=1e-12)
        expect = (math.sqrt(mu**2 - 1) / (mu + 1)) * (Z @ k)
        assert np.allclose(st.mean, expect, atol=1e-12)
        assert np.allclose(st.mean, (math.sqrt(3) / 3) * Z @ k, atol=1e-12)

    def test_epr_sign_flip_only_affects_means(self):
        mu, k = 3.0, np.array([0.7, -0.2])
        m = GaussianMeasurement(0.6, 0.0)
        plus = condition_on_outcome(epr_cm(mu, 1), None, m, k)
        minus = condition_on_outcome(epr_cm(mu, -1), None, m, k)
        assert np.allclose(plus.cm, minus.cm, atol=1e-14)
        assert np.allclose(plus.mean, -minus.mean, atol=1e-14)

    @pytest.mark.parametrize("u", [0.2, 1.0, 5.0])
    def test_epr_squeezed_prep(self, u):
        mu = 2.5
        st = condition_on_outcome(epr_cm(mu), None, GaussianMeasurement(u), [0, 0])
        r = (1 + u * mu) / (u + mu)
        assert np.allclose(st.cm, np.diag([r, 1 / r]), atol=1e-12)

    def test_homodyne_limits(self):
        mu = 3.0
        st_q = condition_on_outcome(epr_cm(mu), None, GaussianMeasurement.homodyne_q(), [1, 0])
        assert np.allclose(st_q.cm, np.diag([1 / mu, mu]), atol=1e-12)
        st_p = condition_on_outcome(epr_cm(mu), None, GaussianMeasurement.homodyne_p(), [0, 1])
        assert np.allclose(st_p.cm, np.diag([mu, 1 / mu]), atol=1e-12)

    def test_homodyne_limit_matches_small_u(self):
        rng = np.random.default_rng(41)
        for nf in zip(*random_normal_forms(rng, 20)):
            V = embed_normal_form(NormalFormCM(*map(float, nf)))
            for phi in (0.0, 0.7):
                lim = conditional_cm(V, GaussianMeasurement(0.0, phi))
                tiny = conditional_cm(V, GaussianMeasurement(1e-9, phi))
                assert np.max(np.abs(lim - tiny)) <= 1e-6

    def test_extreme_u_matches_homodyne_limits(self):
        # no cancellation at large or small u: the finite seeds sit within
        # O(1/u) = 1e-12 of their limits, not at rounding noise of order u * eps
        rng = np.random.default_rng(45)
        for nf in zip(*random_normal_forms(rng, 50)):
            V = embed_normal_form(NormalFormCM(*map(float, nf)))
            for phi in (0.0, 0.7, 2.2):
                for u, lim in ((1e-12, 0.0), (1e12, math.inf)):
                    finite = conditional_cm(V, GaussianMeasurement(u, phi))
                    limit = conditional_cm(V, GaussianMeasurement(lim, phi))
                    assert np.max(np.abs(finite - limit)) <= 1e-10

    def test_matches_schur_oracle(self):
        rng = np.random.default_rng(42)
        for nf in zip(*random_normal_forms(rng, 200)):
            V = embed_normal_form(NormalFormCM(*map(float, nf)))
            m = GaussianMeasurement(10 ** rng.uniform(-2, 2), rng.uniform(0, math.pi))
            ours = conditional_cm(V, m)
            assert np.max(np.abs(ours - schur_oracle(V, m))) <= 1e-12


class TestModeASide:
    def test_symmetric_state_matches_b_side(self):
        V = embed_normal_form(NormalFormCM(2.0, 2.0, 0.8, -0.6))
        m = GaussianMeasurement(0.7, 0.4)
        k = [0.3, -0.9]
        a_side = conditioning_on_mode_A(V, None, m, k)
        b_side = condition_on_outcome(V, None, m, k)
        assert np.allclose(a_side.cm, b_side.cm, atol=1e-12)
        assert np.allclose(a_side.mean, b_side.mean, atol=1e-12)

    def test_epr_either_side_prepares_coherent(self):
        st = conditioning_on_mode_A(epr_cm(2.0), None, GaussianMeasurement.heterodyne(), [1, 1])
        assert np.allclose(st.cm, np.eye(2), atol=1e-12)

    def test_asymmetric_state_vs_schur_oracle(self):
        V = embed_normal_form(NormalFormCM(5, 2, SQRT6, -SQRT6))
        m = GaussianMeasurement(1.7, 0.3)
        st = conditioning_on_mode_A(V, None, m, [0.1, 0.2])
        assert np.max(np.abs(st.cm - schur_oracle(V, m, measured="A"))) <= 1e-12


class TestStatisticalIdentities:
    def test_law_of_total_variance(self):
        rng = np.random.default_rng(43)
        for nf in zip(*random_normal_forms(rng, 300)):
            a = float(nf[0])
            V = embed_normal_form(NormalFormCM(*map(float, nf)))
            m = GaussianMeasurement(10 ** rng.uniform(-2, 2), rng.uniform(0, math.pi))
            L = conditional_mean_map(V, m)
            total = conditional_cm(V, m) + L @ (V[2:, 2:] + m.seed_cm()) @ L.T
            assert np.max(np.abs(total - V[:2, :2])) <= 1e-12 * max(1.0, a)

    def test_coherent_prep_modulation_covariance(self):
        for mu in (1.0, 1.5, 2.0, 5.0, 10.0):
            L = conditional_mean_map(epr_cm(mu), GaussianMeasurement.heterodyne())
            cov = L @ ((mu + 1.0) * np.eye(2)) @ L.T
            assert np.max(np.abs(cov - (mu - 1.0) * np.eye(2))) <= 1e-12

    def test_ensemble_average_mean_statistical(self):
        # sampled conditional means should average to the prior mean
        mu = 2.0
        mean_ab = np.array([0.5, -0.3, 0.2, 0.1])
        V = epr_cm(mu)
        m = GaussianMeasurement.heterodyne()
        rng = np.random.default_rng(44)
        ks = rng.multivariate_normal(mean_ab[2:], V[2:, 2:] + m.seed_cm(), 100_000)
        L = conditional_mean_map(V, m)
        means = mean_ab[:2] + (ks - mean_ab[2:]) @ L.T
        sem = math.sqrt((mu - 1.0) / len(ks))  # per-axis std of the estimator
        assert np.max(np.abs(means.mean(axis=0) - mean_ab[:2])) <= 5 * sem


class TestSqueezingRange:
    def test_homodyne_q_limit(self):
        assert epr_squeezing_range(3.0, 0.0) == 1.0 / 3.0

    def test_heterodyne(self):
        for mu in (1.0, 2.0, 7.0):
            assert epr_squeezing_range(mu, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_finite_value(self):
        assert epr_squeezing_range(2.0, 4.0) == pytest.approx(1.5, abs=1e-15)

    def test_homodyne_p_limit(self):
        assert epr_squeezing_range(5.0, math.inf) == 5.0

    def test_domain(self):
        with pytest.raises(DomainError):
            epr_squeezing_range(0.9, 1.0)

