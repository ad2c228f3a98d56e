import math

import numpy as np
import pytest

from gdiscord import (
    DomainError,
    NormalFormCM,
    NumericalFailure,
    embed_normal_form,
    epr_cm,
    normal_form_from_cm,
    reduce_cm,
    rotation_matrix,
    squeezer_matrix,
    symplectic_spectrum,
    symplectic_spectrum_eigen,
    validate_bona_fide,
)
from gdiscord.symplectic import _spectrum_arrays, bona_fide_normal_form_mask, normal_form_spectrum

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
        assert reduce_cm(embed_normal_form(nf)).tb_inv == (1.0, 0.0, 0.0, 1.0)
        V = embed_normal_form(nf)
        V[0, 1] = 0.5
        V[1, 0] = 0.5
        red = reduce_cm(V)
        assert normal_form_from_cm(V) == red.nf
        assert red.nf.a == pytest.approx(math.sqrt(3.0 * 3.0 - 0.25), rel=1e-15)
        assert red.nf.b == 1.5
        assert red.nf.c >= abs(red.nf.cp)
        assert red.nf.c * red.nf.cp == pytest.approx(0.7 * -0.2, rel=1e-14)
        assert red.nf.c**2 + red.nf.cp**2 > 0.7**2 + 0.2**2  # S_A stretches C

    def test_reduction_of_transformed_states(self):
        # a normal form under random local symplectics reduces back to it, with
        # c >= |cp|, and b T_B^{-1} T_B^{-T} rebuilds the B block
        rng = np.random.default_rng(106)
        for nf in random_normal_forms(rng, 300):
            S = np.zeros((4, 4))
            for k in (0, 2):
                S[k:k + 2, k:k + 2] = rotation_matrix(rng.uniform(0, np.pi)) @ squeezer_matrix(
                    math.exp(rng.uniform(-2.0, 2.0)))
            V = S @ embed_normal_form(nf) @ S.T
            red = reduce_cm(V)
            big, small = sorted((abs(nf.c), abs(nf.cp)), reverse=True)
            got = (red.nf.a, red.nf.b, red.nf.c, abs(red.nf.cp))
            assert got == pytest.approx((nf.a, nf.b, big, small), abs=1e-13 * nf.a * nf.b)
            if small > 1e-6:
                assert math.copysign(1.0, red.nf.cp) == math.copysign(1.0, nf.c * nf.cp)
            t = np.array(red.tb_inv).reshape(2, 2)
            assert np.abs(red.nf.b * t @ t.T - V[2:, 2:]).max() <= 1e-13 * np.abs(V).max()
            # C T_B^T = T_A^{-1} diag(c, cp), and T_A^{-T} A^{-1} T_A^{-1} = I/a
            X = V[:2, 2:] @ np.linalg.inv(t).T
            gram = X.T @ np.linalg.solve(V[:2, :2], X) * red.nf.a
            expect = np.diag([red.nf.c**2, red.nf.cp**2])
            assert gram == pytest.approx(expect, abs=1e-12 * nf.a * nf.b)


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

    def test_degenerate_spectrum_survives_local_symplectics(self):
        # a = b and cp = -c (pure states at x = 1) give nu_minus = nu_plus, where
        # Delta^2 - 4 det V of the reduced parameters is rounding of either sign;
        # the validator and the normal-form mask must accept these states alike
        rng = np.random.default_rng(106)
        for k in range(400):
            a = rng.uniform(1.0, 50.0)
            x = 1.0 if k % 2 else rng.uniform(0.0, 1.0)
            c = math.sqrt(x * (a * a - 1.0)) * (1.0 if k % 4 < 2 else -1.0)
            V = embed_normal_form(NormalFormCM(a, a, c, -c))
            s1 = squeezer_matrix(rng.uniform(0.3, 3.0)) @ rotation_matrix(rng.uniform(0, np.pi))
            s2 = squeezer_matrix(rng.uniform(0.3, 3.0)) @ rotation_matrix(rng.uniform(0, np.pi))
            S = np.block([[s1, np.zeros((2, 2))], [np.zeros((2, 2)), s2]])
            W = S @ V @ S.T
            diag = validate_bona_fide(W)
            assert diag.bona_fide, (a, x, diag.reason)
            nf = diag.reduction.nf
            assert bool(bona_fide_normal_form_mask(nf.a, nf.b, nf.c, nf.cp))
            arrays = [np.array([x]) for x in (nf.a, nf.b, nf.c, nf.cp)]
            assert _spectrum_arrays(*arrays)[1][0] == normal_form_spectrum(nf).nu_minus == diag.nu_min
            ref = symplectic_spectrum(V)
            assert diag.nu_min == pytest.approx(ref.nu_minus, abs=1e-9)
            assert diag.nu_plus == pytest.approx(ref.nu_plus, abs=1e-9)

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

    @pytest.mark.parametrize("V", [-2.0 * np.eye(4), np.diag([2.0, 2.0, -2.0, -2.0]),
                                   np.diag([1.0, 1.0, 1.0, 1.0]) + np.diag([2.0, 0.0, 0.0], 1)
                                   + np.diag([2.0, 0.0, 0.0], -1)])
    def test_not_positive_definite_rejected(self, V):
        # the spectrum formula reads nu_min = 2 for the first two, as it does
        # for 2 I; the last has an indefinite A block, so it has no normal form
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
    nu_vec = _spectrum_arrays(a, b, c, cp)[1]
    for i, nf in enumerate(nfs):
        assert nu_vec[i] == pytest.approx(normal_form_spectrum(nf).nu_minus, abs=1e-12)


def test_mask_keeps_the_symmetric_anti_diagonal():
    # a = b, cp = -c: nu_minus = nu_plus = sqrt(a^2 - c^2), bona fide for
    # c^2 <= a^2 - 1, and the spectrum is degenerate near the whole line.
    # Cell centres of the occupancy grid at a = b = 2 put cp within rounding
    # of -c, where Delta^2 - 4 det V is rounding of either sign
    half = math.sqrt(3.0)
    width = 2.0 * half / 200
    centers = -half + width * (np.arange(200) + 0.5)
    c, cp = centers, centers[::-1]
    assert bool(np.all(bona_fide_normal_form_mask(2.0, 2.0, c, cp)))
    scalar = [normal_form_spectrum(NormalFormCM(2.0, 2.0, x, y)).nu_minus for x, y in zip(c, cp)]
    assert np.allclose(_spectrum_arrays(2.0, 2.0, c, cp)[1], scalar, atol=1e-9)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", range(4))
def test_non_finite_parameters_are_never_bona_fide(slot, bad):
    good = [2.0, 2.0, 1.0, -1.0]
    params = list(good)
    params[slot] = bad
    assert not bool(bona_fide_normal_form_mask(*params))
    mask = bona_fide_normal_form_mask(*(np.array([x, y]) for x, y in zip(params, good)))
    assert mask.tolist() == [False, True]
    diag = validate_bona_fide(embed_normal_form(NormalFormCM(*params)))
    assert (diag.bona_fide, diag.reason) == (False, "matrix contains non-finite entries")
