import math

import numpy as np
import pytest

from gdiscord import (
    DomainError,
    EPRState,
    NormalFormCM,
    NumericalFailure,
    embed_normal_form,
    epr_cm,
    normal_form_from_cm,
    rotation_matrix,
    squeezer_matrix,
    symplectic_spectrum,
    symplectic_spectrum_eigen,
    validate_bona_fide,
)
from gdiscord.symplectic import bona_fide_normal_form_mask, nu_min_normal_form

SQRT6 = math.sqrt(6.0)


def random_normal_forms(rng, n, vmax=5.0):
    out = []
    while len(out) < n:
        a = rng.uniform(1.0, vmax)
        b = rng.uniform(1.0, vmax)
        half = math.sqrt(max(a * b - 1.0 - abs(a - b), 0.0))
        c = rng.uniform(-half, half)
        cp = rng.uniform(-half, half)
        if bona_fide_normal_form_mask(a, b, c, cp):
            out.append(NormalFormCM(a, b, c, cp))
    return out


class TestEmbed:
    def test_vacuum(self):
        assert np.array_equal(embed_normal_form(NormalFormCM(1, 1, 0, 0)), np.eye(4))

    def test_epr_b2(self):
        s3 = math.sqrt(3.0)
        V = embed_normal_form(NormalFormCM(2, 2, s3, -s3))
        assert np.allclose(V, epr_cm(2.0, 1), atol=1e-15)

    def test_direct_construction(self):
        V = embed_normal_form(NormalFormCM(5, 2, SQRT6, -SQRT6))
        assert np.allclose(V[:2, :2], 5 * np.eye(2))
        assert np.allclose(V[2:, 2:], 2 * np.eye(2))
        assert np.allclose(V[:2, 2:], np.diag([SQRT6, -SQRT6]))
        assert np.array_equal(V, V.T)

    def test_pattern_extraction(self):
        nf = NormalFormCM(3.0, 1.5, 0.7, -0.2)
        assert normal_form_from_cm(embed_normal_form(nf)) == nf
        V = embed_normal_form(nf)
        V[0, 1] = 0.5
        V[1, 0] = 0.5
        assert normal_form_from_cm(V) is None


class TestSpectrum:
    def test_direct_sum(self):
        V = embed_normal_form(NormalFormCM(3.0, 1.5, 0, 0))
        nu = symplectic_spectrum(V)
        assert nu.nu_minus == pytest.approx(1.5, abs=1e-12)
        assert nu.nu_plus == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("b", [1.0, 2.0, 7.5])
    def test_epr_is_pure(self, b):
        nu = symplectic_spectrum(epr_cm(b))
        assert nu.nu_minus == pytest.approx(1.0, abs=1e-9)
        assert nu.nu_plus == pytest.approx(1.0, abs=1e-9)

    def test_worked_state(self):
        V = embed_normal_form(NormalFormCM(5, 2, SQRT6, -SQRT6))
        nu = symplectic_spectrum(V)
        assert nu.nu_minus == pytest.approx(1.0, abs=1e-12)
        assert nu.nu_plus == pytest.approx(4.0, abs=1e-12)
        oracle = symplectic_spectrum_eigen(V)
        assert nu.nu_minus == pytest.approx(oracle.nu_minus, abs=1e-9)
        assert nu.nu_plus == pytest.approx(oracle.nu_plus, abs=1e-9)

    def test_corrupted_input_raises(self):
        # indefinite symmetric matrix with complex symplectic values
        V = embed_normal_form(NormalFormCM(0.1, 0.2, 1.2, -1.2))
        with pytest.raises(NumericalFailure):
            symplectic_spectrum(V)

    def test_agrees_with_eigen_oracle(self):
        rng = np.random.default_rng(101)
        for nf in random_normal_forms(rng, 2000):
            V = embed_normal_form(nf)
            closed = symplectic_spectrum(V)
            oracle = symplectic_spectrum_eigen(V)
            assert closed.nu_minus == pytest.approx(oracle.nu_minus, abs=1e-9)
            assert closed.nu_plus == pytest.approx(oracle.nu_plus, abs=1e-9)

    def test_invariant_under_local_symplectics(self):
        rng = np.random.default_rng(102)
        for nf in random_normal_forms(rng, 300):
            V = embed_normal_form(nf)
            ref = symplectic_spectrum(V)
            s1 = squeezer_matrix(rng.uniform(0.3, 3.0)) @ rotation_matrix(rng.uniform(0, np.pi))
            s2 = squeezer_matrix(rng.uniform(0.3, 3.0)) @ rotation_matrix(rng.uniform(0, np.pi))
            S = np.block([[s1, np.zeros((2, 2))], [np.zeros((2, 2)), s2]])
            nu = symplectic_spectrum(S @ V @ S.T)
            assert nu.nu_minus == pytest.approx(ref.nu_minus, abs=1e-9)
            assert nu.nu_plus == pytest.approx(ref.nu_plus, abs=1e-9)

    def test_determinant_identity(self):
        rng = np.random.default_rng(103)
        for nf in random_normal_forms(rng, 500):
            det = np.linalg.det(embed_normal_form(nf))
            expect = (nf.a * nf.b - nf.c**2) * (nf.a * nf.b - nf.cp**2)
            assert det == pytest.approx(expect, rel=1e-9)

    def test_embedded_states_are_bona_fide(self):
        rng = np.random.default_rng(104)
        for nf in random_normal_forms(rng, 1000):
            nu = symplectic_spectrum(embed_normal_form(nf))
            assert nu.nu_minus >= 1.0 - 1e-9


class TestValidate:
    def test_identity_accepted(self):
        diag = validate_bona_fide(np.eye(4))
        assert diag.bona_fide
        assert diag.nu_min == pytest.approx(1.0, abs=1e-12)

    def test_diagnosis_carries_spectrum(self):
        for V in (np.eye(4), embed_normal_form(NormalFormCM(3.0, 2.0, 1.5, -0.5)),
                  embed_normal_form(NormalFormCM(2, 2, 2, -2))):
            diag = validate_bona_fide(V)
            assert (diag.nu_min, diag.nu_plus) == tuple(symplectic_spectrum(V))

    def test_overcorrelated_rejected_with_bound(self):
        diag = validate_bona_fide(embed_normal_form(NormalFormCM(2, 2, 2, -2)))
        assert not diag.bona_fide
        assert "c^2" in diag.reason

    def test_worked_state_boundary(self):
        diag = validate_bona_fide(embed_normal_form(NormalFormCM(5, 2, SQRT6, -SQRT6)))
        assert diag.bona_fide
        assert diag.nu_min == pytest.approx(1.0, abs=1e-9)

    def test_asymmetric_rejected(self):
        V = np.eye(4)
        V[0, 1] = 1e-6
        diag = validate_bona_fide(V)
        assert not diag.bona_fide
        assert "symmetric" in diag.reason

    @pytest.mark.parametrize("V", [-2.0 * np.eye(4), np.diag([2.0, 2.0, -2.0, -2.0])])
    def test_not_positive_definite_rejected(self, V):
        # the spectrum formula reads nu_min = 2 for both, as it does for 2 I
        diag = validate_bona_fide(V)
        assert not diag.bona_fide
        assert diag.reason == "not positive definite"

    def test_never_raises_on_garbage(self):
        assert not validate_bona_fide(np.full((4, 4), np.nan)).bona_fide
        assert not validate_bona_fide(np.eye(3)).bona_fide


class TestConstructors:
    def test_epr_b1_identity(self):
        assert np.array_equal(epr_cm(1.0, 1), np.eye(4))

    def test_epr_blocks(self):
        V = epr_cm(2.0, 1)
        assert np.allclose(V[:2, :2], 2 * np.eye(2))
        assert np.allclose(V[:2, 2:], math.sqrt(3.0) * np.diag([1, -1]))

    def test_epr_negative_sign_pure(self):
        nu = symplectic_spectrum(epr_cm(3.0, -1))
        assert nu.nu_minus == pytest.approx(1.0, abs=1e-9)
        assert nu.nu_plus == pytest.approx(1.0, abs=1e-9)

    def test_epr_domain(self):
        with pytest.raises(DomainError):
            epr_cm(0.5)
        with pytest.raises(DomainError):
            epr_cm(2.0, sign=0)

    def test_epr_state_dataclass(self):
        assert np.array_equal(EPRState(2.0, -1).cm(), epr_cm(2.0, -1))

    def test_squeezer_identity(self):
        assert np.array_equal(squeezer_matrix(1.0), np.eye(2))

    def test_squeezer_values(self):
        assert np.allclose(squeezer_matrix(4.0), np.diag([2.0, 0.5]), atol=1e-15)

    def test_squeezer_inverse(self):
        prod = squeezer_matrix(2.5) @ squeezer_matrix(1 / 2.5)
        assert np.allclose(prod, np.eye(2), atol=1e-15)

    def test_squeezer_domain(self):
        for bad in (0.0, -1.0):
            with pytest.raises(DomainError):
                squeezer_matrix(bad)


def test_nu_min_vectorized_matches_scalar():
    rng = np.random.default_rng(105)
    nfs = random_normal_forms(rng, 200)
    a = np.array([nf.a for nf in nfs])
    b = np.array([nf.b for nf in nfs])
    c = np.array([nf.c for nf in nfs])
    cp = np.array([nf.cp for nf in nfs])
    nu_vec = nu_min_normal_form(a, b, c, cp)
    for i, nf in enumerate(nfs):
        nu = symplectic_spectrum(embed_normal_form(nf))
        assert nu_vec[i] == pytest.approx(nu.nu_minus, abs=1e-12)
