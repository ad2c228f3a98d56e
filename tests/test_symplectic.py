import decimal
import math

import numpy as np
import pytest

from gdiscord import (
    DomainError,
    GaussianChannelParams,
    GaussianMeasurement,
    NormalFormCM,
    NumericalFailure,
    apply_to_mode_A,
    condition_on_outcome,
    conditional_cm,
    conditional_entropy_measured,
    conditional_mean_map,
    conditioning_on_mode_A,
    embed_normal_form,
    entropy_two_mode,
    epr_cm,
    gaussian_discord_numeric,
    normal_form_from_cm,
    reduce_cm,
    rotation_matrix,
    squeezer_matrix,
    symplectic_spectrum,
    symplectic_spectrum_eigen,
    validate_bona_fide,
)
from gdiscord.symplectic import (
    _PATTERN_RTOL,
    SYMMETRY_RTOL,
    _array_max,
    _verdict,
    bona_fide_normal_form_mask,
    normal_form_spectrum,
)
from states import (
    SPECTRUM_CLASSES,
    WORKED_CM,
    WORKED_NF,
    local_frame,
    scalar_normal_forms,
    seeded_states,
    spectrum_reference,
    squeezed_rotations,
)


class TestEmbed:
    def test_vacuum(self):
        assert np.array_equal(embed_normal_form(NormalFormCM(1, 1, 0, 0)), np.eye(4))

    def test_epr_b2(self):
        s3 = math.sqrt(3.0)
        V = embed_normal_form(NormalFormCM(2, 2, s3, -s3))
        assert np.allclose(V, epr_cm(2.0, 1), atol=1e-15)

    def test_direct_construction(self):
        V = WORKED_CM
        assert np.allclose(V[:2, :2], 5 * np.eye(2))
        assert np.allclose(V[2:, 2:], 2 * np.eye(2))
        assert np.allclose(V[:2, 2:], np.diag([WORKED_NF.c, WORKED_NF.cp]))
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
        for nf in scalar_normal_forms(rng, 300):
            S = local_frame(*(rotation_matrix(rng.uniform(0, np.pi)) @ squeezer_matrix(
                math.exp(rng.uniform(-2.0, 2.0))) for _ in range(2)))
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
        V = WORKED_CM
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
        for nf in scalar_normal_forms(rng, 2000):
            V = embed_normal_form(nf)
            closed = symplectic_spectrum(V)
            oracle = symplectic_spectrum_eigen(V)
            assert closed.nu_minus == pytest.approx(oracle.nu_minus, abs=1e-9)
            assert closed.nu_plus == pytest.approx(oracle.nu_plus, abs=1e-9)

    def test_eigen_oracle_on_a_stack_equals_one_call_per_cm(self):
        W = np.array(list(seeded_states(np.random.default_rng(103), 400)))
        assert list(zip(*symplectic_spectrum_eigen(W))) == [symplectic_spectrum_eigen(V) for V in W]
        assert type(symplectic_spectrum_eigen(W[0]).nu_minus) is float

    def test_invariant_under_local_symplectics(self):
        rng = np.random.default_rng(102)
        for nf in scalar_normal_forms(rng, 300):
            V = embed_normal_form(nf)
            ref = symplectic_spectrum(V)
            S = squeezed_rotations(rng)
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
            S = squeezed_rotations(rng)
            W = S @ V @ S.T
            diag = validate_bona_fide(W)
            assert diag.bona_fide, (a, x, diag.reason)
            nf = diag.reduction.nf
            assert bool(bona_fide_normal_form_mask(nf.a, nf.b, nf.c, nf.cp))
            arrays = [np.array([x]) for x in (nf.a, nf.b, nf.c, nf.cp)]
            nu_minus = _verdict(*arrays, np, _array_max)[2][0]
            assert nu_minus == normal_form_spectrum(nf).nu_minus == diag.nu_min
            ref = symplectic_spectrum(V)
            assert diag.nu_min == pytest.approx(ref.nu_minus, abs=1e-9)
            assert diag.nu_plus == pytest.approx(ref.nu_plus, abs=1e-9)

    def test_determinant_identity(self):
        rng = np.random.default_rng(103)
        for nf in scalar_normal_forms(rng, 500):
            det = np.linalg.det(embed_normal_form(nf))
            expect = (nf.a * nf.b - nf.c**2) * (nf.a * nf.b - nf.cp**2)
            assert det == pytest.approx(expect, rel=1e-9)

    def test_embedded_states_are_bona_fide(self):
        rng = np.random.default_rng(104)
        for nf in scalar_normal_forms(rng, 1000):
            nu = symplectic_spectrum(embed_normal_form(nf))
            assert nu.nu_minus >= 1.0 - 1e-9

    def test_thermal_product_keeps_nu_minus_at_any_ratio(self):
        # nu_minus = b << nu_plus = a: Delta - sqrt(disc) cancels, so nu_minus
        # must come from sqrt(det V) / nu_plus
        for b in (1.0, 1.0 + 1e-7, 3.0):
            for k in range(1, 78):
                diag = validate_bona_fide(NormalFormCM(10.0**k, b, 0.0, 0.0).rows())
                assert diag.bona_fide, (b, k, diag.reason)
                assert diag.nu_min == pytest.approx(b, rel=1e-15, abs=0.0), (b, k)


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
        diag = validate_bona_fide(WORKED_CM)
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
                                   + np.diag([2.0, 0.0, 0.0], -1),
                                   embed_normal_form(NormalFormCM(1.0, 1.0, 1000.0, 1.0001))])
    def test_not_positive_definite_rejected(self, V):
        # the spectrum formula reads nu_min = 2 for the first two, as it does
        # for 2 I; the third has an indefinite A block, so it has no normal
        # form; the last has det V > 0 but both block determinants negative,
        # and the formula reads nu_min = 0 there, from the clamped determinants
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
    nfs = scalar_normal_forms(rng, 200)
    a = np.array([nf.a for nf in nfs])
    b = np.array([nf.b for nf in nfs])
    c = np.array([nf.c for nf in nfs])
    cp = np.array([nf.cp for nf in nfs])
    _, _, nu_vec, nu_plus_vec, _ = _verdict(a, b, c, cp, np, _array_max)
    for i, nf in enumerate(nfs):
        assert (nu_vec[i], nu_plus_vec[i]) == normal_form_spectrum(nf)


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
    scalar = [normal_form_spectrum(NormalFormCM(2.0, 2.0, x, y)) for x, y in zip(c, cp)]
    _, _, nu_minus, nu_plus, _ = _verdict(2.0, 2.0, c, cp, np, _array_max)
    assert list(zip(nu_minus.tolist(), nu_plus.tolist())) == scalar


def test_mask_is_the_verdict_of_validate_bona_fide():
    # one rule at every scale: in-range states scaled by 1e-320 ... 1e308, free
    # draws of every magnitude and sign, and inf and NaN entries
    rng = np.random.default_rng(2028)
    scales = 10.0 ** np.arange(-320, 309, 4)
    nfs = [NormalFormCM(*(x * float(s) for x in nf))
           for nf, s in zip(scalar_normal_forms(rng, 1000), rng.choice(scales, 1000))]
    for _ in range(1000):
        mags = 10.0 ** rng.uniform(-320.0, 308.25, 4) * rng.choice([-1.0, 1.0], 4)
        mags[:2] = abs(mags[:2])
        nfs.append(NormalFormCM(*mags.tolist()))
    for special in (math.inf, -math.inf, math.nan):
        nfs += [NormalFormCM(*(special if i == slot else x for i, x in enumerate(nf)))
                for slot, nf in enumerate(nfs[:4])]
    nfs.append(NormalFormCM(1e78, 3.0, 0.0, 0.0))
    mask = bona_fide_normal_form_mask(*map(np.array, zip(*nfs)))
    verdicts = [validate_bona_fide(nf.rows()).bona_fide for nf in nfs]
    assert mask.tolist() == verdicts
    assert verdicts[-1] and 300 < sum(verdicts) < len(nfs) - 300


SPECTRUM_ULPS = 512


@pytest.mark.parametrize("name", SPECTRUM_CLASSES)
def test_spectrum_is_accurate_to_the_last_bits(name):
    nfs = SPECTRUM_CLASSES[name](np.random.default_rng(2026), 1000)
    _, _, arr_minus, arr_plus, _ = _verdict(*map(np.array, zip(*nfs)), np, _array_max)
    worst = {}
    for nf, arrays in zip(nfs, zip(arr_minus.tolist(), arr_plus.tolist())):
        refs = spectrum_reference(*nf)
        for path, got in (("float", normal_form_spectrum(nf)), ("array", arrays)):
            for which, x, ref in zip(("nu_minus", "nu_plus"), got, refs):
                ulps = abs(decimal.Decimal(x) - ref) / decimal.Decimal(math.ulp(float(ref)))
                worst[path, which] = max(worst.get((path, which), 0.0), float(ulps))
    assert max(worst.values()) <= SPECTRUM_ULPS, worst


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


def test_nested_rows_read_as_the_array():
    # validation, the reduction and the numeric route read a CM's entries as
    # floats, so an array and its nested rows give the same bits
    rng = np.random.default_rng(107)
    for k, nf in enumerate(scalar_normal_forms(rng, 200)):
        V = embed_normal_form(nf)
        if k % 2:
            S = squeezed_rotations(rng)
            V = S @ V @ S.T
            V = 0.5 * (V + V.T)
        for fn in (validate_bona_fide, reduce_cm, gaussian_discord_numeric):
            assert repr(fn(V)) == repr(fn(V.tolist())), (k, fn.__name__)


@pytest.mark.parametrize("V", [
    [[1, 2], [3]], "abc", [["x"] * 4] * 4, ["1234"] * 4, None, 2.0, np.eye(3), np.ones((1, 4, 4)),
], ids=["ragged", "string", "string-entries", "string-rows", "none", "number", "3x3", "1x4x4"])
def test_malformed_input_is_a_diagnosis_not_an_error(V):
    diag = validate_bona_fide(V)
    assert not diag.bona_fide and diag.nu_min is None and diag.reason, diag


_HETERODYNE = GaussianMeasurement(1.0)
# every public function that reads a two-mode CM, called on V alone
CM_READERS = {
    "reduce_cm": reduce_cm,
    "normal_form_from_cm": normal_form_from_cm,
    "symplectic_spectrum": symplectic_spectrum,
    "entropy_two_mode": entropy_two_mode,
    "gaussian_discord_numeric": gaussian_discord_numeric,
    "conditional_entropy_measured": lambda V: conditional_entropy_measured(V, _HETERODYNE),
    "conditional_cm": lambda V: conditional_cm(V, _HETERODYNE),
    "conditional_mean_map": lambda V: conditional_mean_map(V, _HETERODYNE),
    "condition_on_outcome": lambda V: condition_on_outcome(V, None, _HETERODYNE, [0.5, -0.5]),
    "apply_to_mode_A": lambda V: apply_to_mode_A(GaussianChannelParams(0.5, 0.6), V),
    "conditioning_on_mode_A": lambda V: conditioning_on_mode_A(V, None, _HETERODYNE, [0.5, -0.5]),
}


def _spoiled_epr(kind):
    V = epr_cm(2.0)
    if kind == "inf-entry":
        V[0, 0] = math.inf
    elif kind == "nan-pair":
        V[0, 1] = V[1, 0] = math.nan
    elif kind == "int-past-float-range":
        V = V.tolist()
        V[0][0] = 10**400
    else:
        V[0, 2] += 0.5
    return V


@pytest.mark.parametrize("kind", ["inf-entry", "nan-pair", "int-past-float-range", "asymmetric"])
@pytest.mark.parametrize("name", list(CM_READERS))
def test_every_cm_reader_rejects_what_validation_rejects(name, kind):
    V = _spoiled_epr(kind)
    reason = validate_bona_fide(V).reason
    assert reason in ("matrix contains non-finite entries", "not symmetric (max asymmetry 5.000e-01)")
    with pytest.raises(DomainError) as err:
        CM_READERS[name](V)
    assert str(err.value) == reason


@pytest.mark.parametrize("name", list(CM_READERS))
def test_every_cm_reader_takes_a_rounded_local_frame(name):
    # S V S^T as computed, not symmetrized: its asymmetry is rounding, ~1e-16
    S = local_frame(squeezer_matrix(1.7) @ rotation_matrix(0.4),
                    squeezer_matrix(0.6) @ rotation_matrix(2.1))
    V = S @ embed_normal_form(NormalFormCM(3.0, 2.0, 1.5, -1.2)) @ S.T
    assert 0.0 < np.max(np.abs(V - V.T)) < 1e-14
    CM_READERS[name](V)


class TestRecords:
    def test_fields_are_read_only(self):
        diag = validate_bona_fide(WORKED_NF.rows())
        for record, field in ((WORKED_NF, "a"), (diag, "nu_min")):
            with pytest.raises(AttributeError):
                setattr(record, field, 3.0)

    def test_truth_follows_the_verdict(self):
        accepted = validate_bona_fide(WORKED_NF.rows())
        rejected = validate_bona_fide(NormalFormCM(2.0, 2.0, 2.0, -2.0).rows())
        assert (bool(accepted), bool(rejected)) == (True, False)
        assert not validate_bona_fide([[1.0]])  # a non-empty record can still be false

    def test_reprs_name_every_field(self):
        assert repr(WORKED_NF) == (
            "NormalFormCM(a=5.0, b=2.0, c=2.449489742783178, cp=-2.449489742783178)")
        assert repr(validate_bona_fide(WORKED_NF.rows())) == (
            "BonaFideDiagnosis(bona_fide=True, nu_min=1.0, reason=None,"
            " nu_plus=4.0, reduction=Reduction(nf=NormalFormCM(a=5.0, b=2.0,"
            " c=2.449489742783178, cp=-2.449489742783178), tb_inv=(1.0, 0.0, 0.0, 1.0)))")
        assert repr(validate_bona_fide([[1.0]])) == (
            "BonaFideDiagnosis(bona_fide=False, nu_min=None, reason='expected 4x4 matrix,"
            " got (1, 1)', nu_plus=None, reduction=None)")


# the 12 entries that _reduce_rows holds to its pattern, each with the entry of
# the normal form it must equal (None: it must be 0)
_PATTERN_SLOTS = (((0, 1), None), ((0, 3), None), ((1, 0), None), ((1, 1), (0, 0)),
                  ((1, 2), None), ((2, 0), (0, 2)), ((2, 1), None), ((2, 3), None),
                  ((3, 0), None), ((3, 1), (1, 3)), ((3, 2), None), ((3, 3), (2, 2)))


def _pattern_edge(scale):
    """(M, t), M >= 3 scale, with _PATTERN_RTOL * M == t exactly and t of at most 4 significant bits.

    So t moves an entry of order ``scale`` exactly.
    """
    t0 = 2.0 ** math.ceil(math.log2(_PATTERN_RTOL * 3.0 * scale))
    for t in (t0 * (1.0 + k / 8.0) for k in range(8)):
        M = t / _PATTERN_RTOL
        for _ in range(3):
            M = math.nextafter(M, 0.0)
        for _ in range(7):
            if _PATTERN_RTOL * M == t:
                return M, t
            M = math.nextafter(M, math.inf)
    raise AssertionError(f"no edge found at scale {scale}")


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
@pytest.mark.parametrize("slot", range(12))
@pytest.mark.parametrize("past", [False, True], ids=["at-bound", "one-ulp-past"])
def test_pattern_bound_is_inclusive(past, slot, scale):
    # an entry off its pattern by exactly _PATTERN_RTOL max |V| still reads as
    # the normal form: its own bits, its (c, cp) order and T_B = I.  One ulp
    # further off and V is reduced, which puts c >= |cp|: a local rotation by
    # pi/2 on each mode, then by pi on one, reads (c, cp) as (-cp, -c)
    M, t = _pattern_edge(scale)
    nf = NormalFormCM(2.0 * scale, M, 0.75 * scale, -1.25 * scale)
    rows = nf.rows()
    (i, j), held = _PATTERN_SLOTS[slot]
    pattern = rows[held[0]][held[1]] if held else 0.0
    off = pattern - t
    assert off - pattern == -t  # the distance _reduce_rows reads is t, exactly
    rows[i][j] = math.nextafter(off, -math.inf) if past else off
    assert max(abs(x) for row in rows for x in row) == M
    red = reduce_cm(rows)
    if past:
        assert red.nf.c > abs(red.nf.cp)
        assert red.nf == pytest.approx((2.0 * scale, M, 1.25 * scale, -0.75 * scale), rel=1e-12, abs=0.0)
    else:
        assert red == (nf, (1.0, 0.0, 0.0, 1.0))
        assert red.nf.c < abs(red.nf.cp)


@pytest.mark.parametrize("scale", [0.5, 3.0], ids=["max-below-1", "max-above-1"])
@pytest.mark.parametrize("past", [False, True], ids=["at-bound", "one-ulp-past"])
def test_symmetry_bound_is_inclusive(scale, past):
    # an asymmetry of exactly SYMMETRY_RTOL max(1, max |V|) passes the gate and
    # one ulp more is rejected, with max |V| on either side of the floor of 1
    bound = SYMMETRY_RTOL * max(1.0, scale)
    rows = (scale * np.eye(4)).tolist()
    rows[1][0] = math.nextafter(bound, math.inf) if past else bound
    if past:
        with pytest.raises(DomainError, match=r"^not symmetric \(max asymmetry"):
            reduce_cm(rows)
    else:
        assert reduce_cm(rows).nf.a == scale


def test_tiny_cm_in_a_rotated_frame_quotes_its_own_nu_min():
    # every entry lies below 1e-13, so a pattern bound with a floor of 1 would
    # read this CM as its diagonal pattern and quote that state's nu_min
    R = local_frame(rotation_matrix(0.3), rotation_matrix(0.3))
    V = R @ (1e-14 * embed_normal_form(NormalFormCM(3.0, 2.0, 1.0, -1.0))) @ R.T
    diag = validate_bona_fide(V)
    assert not diag.bona_fide
    assert diag.reason.startswith("nu_min = 1.79128784748e-14 < 1;"), diag.reason
    assert diag.nu_min == pytest.approx(symplectic_spectrum_eigen(V).nu_minus, rel=1e-12)


@pytest.mark.parametrize("nf", [NormalFormCM(1e308, 1e308, 9e307, 9e307),
                                NormalFormCM(1.7e308, 1.7e308, -1.7e308, -1.7e308)],
                         ids=["bona-fide", "semidefinite"])
def test_spectrum_past_the_float_range_is_a_diagnosis(nf):
    # nu_plus is 1.9e308 and 3.4e308: read on the rescaled copy, it scales
    # back to inf rather than raising, and the verdict stands
    diag = validate_bona_fide(nf.rows())
    assert diag.nu_plus == math.inf
    if nf.c > 0:
        assert diag.bona_fide and diag.nu_min == pytest.approx(1e307, rel=1e-12)
    else:
        assert not diag.bona_fide and diag.reason == "nu_min = 0 < 1"


def test_reduction_past_the_product_range_reads_a_scaled_copy():
    # every product of 2^600 V overflows, so it is reduced as the exact copy
    # 2^-k V and scaled back: the normal form is 2^600 nf(V), bit for bit, and
    # T_B^{-1} is V's own map
    rng = np.random.default_rng(154)
    for nf in scalar_normal_forms(rng, 60):
        S = squeezed_rotations(rng)
        V = S @ embed_normal_form(nf) @ S.T
        red, big = reduce_cm(V), reduce_cm(2.0**600 * V)
        assert big.nf == tuple(2.0**600 * x for x in red.nf)
        assert big.tb_inv == red.tb_inv
        diag = validate_bona_fide(2.0**600 * V)
        assert diag.bona_fide and diag.nu_min == 2.0**600 * validate_bona_fide(V).nu_min
