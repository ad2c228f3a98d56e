import hashlib
import math

import numpy as np
import pytest

from gdiscord import (
    DomainError,
    FamilyParams,
    NormalFormCM,
    NotSqueezedThermalForm,
    NumericalFailure,
    OutOfFamily,
    apply_to_mode_A,
    decompose_squeezed_thermal,
    embed_normal_form,
    epr_cm,
    epr_squeezing_range,
    eta_from_a,
    family_cm_from_params,
    membership,
    occupancy_grid,
    sample_family,
    squeezer_matrix,
    tau_bounds,
)
from gdiscord.family import _correlation_arrays, _eta_arrays, _tau_bounds_arrays
from gdiscord.serialize import sample_to_csv
from gdiscord.symplectic import bona_fide_normal_form_mask
from gdiscord.verification import random_family_params

SQRT6 = math.sqrt(6.0)


def composite_construction(fp: FamilyParams) -> np.ndarray:
    """Independent rebuild: squeezer, channel, squeezer applied as matrices."""
    K = fp.channel.K
    k_total = squeezer_matrix(fp.xi) @ K @ squeezer_matrix(1.0 / fp.r)
    n_total = squeezer_matrix(fp.xi) @ fp.channel.N @ squeezer_matrix(fp.xi).T
    big_k = np.block([[k_total, np.zeros((2, 2))], [np.zeros((2, 2)), np.eye(2)]])
    big_n = np.block([[n_total, np.zeros((2, 2))], [np.zeros((2, 2)), np.zeros((2, 2))]])
    return big_k @ epr_cm(fp.b, fp.sign) @ big_k.T + big_n


class TestDecomposeSqueezedThermal:
    def test_worked_state(self):
        ch = decompose_squeezed_thermal(5, 2, SQRT6)
        assert ch.tau == pytest.approx(2.0, abs=1e-12)
        assert ch.eta == pytest.approx(1.0, abs=1e-12)

    def test_product(self):
        ch = decompose_squeezed_thermal(3.7, 1.4, 0.0)
        assert ch.tau == 0.0
        assert ch.eta == 3.7

    def test_pure_epr(self):
        ch = decompose_squeezed_thermal(3, 3, math.sqrt(8.0))
        assert ch.tau == pytest.approx(1.0, abs=1e-12)
        assert ch.eta == pytest.approx(0.0, abs=1e-12)

    def test_rejects_overcorrelated(self):
        with pytest.raises(NotSqueezedThermalForm):
            decompose_squeezed_thermal(2, 2, 2.0)

    def test_rejects_b1_with_correlations(self):
        with pytest.raises(DomainError):
            decompose_squeezed_thermal(2, 1, 0.5)

    def test_round_trip(self):
        rng = np.random.default_rng(21)
        for _ in range(2000):
            a, b = rng.uniform(1.0, 5.0, 2)
            bound = a * b - 1.0 - abs(a - b)
            c = (1 if rng.uniform() < 0.5 else -1) * math.sqrt(bound * rng.uniform())
            ch = decompose_squeezed_thermal(a, b, c)
            rebuilt = apply_to_mode_A(ch, epr_cm(b, 1 if c >= 0 else -1))
            target = embed_normal_form(NormalFormCM(a, b, c, -c))
            assert np.max(np.abs(rebuilt - target)) <= 1e-9


class TestForwardMap:
    def test_reduces_to_squeezed_thermal_at_r1(self):
        nf = family_cm_from_params(FamilyParams(b=2, r=1, tau=2, eta=1, sign=1))
        assert nf.a == pytest.approx(5.0, abs=1e-12)
        assert nf.c == pytest.approx(SQRT6, abs=1e-12)
        assert nf.cp == pytest.approx(-SQRT6, abs=1e-12)

    def test_negative_tau_flips_relative_sign(self):
        nf = family_cm_from_params(FamilyParams(b=2, r=1, tau=-1 / 3, eta=4 / 3, sign=1))
        assert nf.a == pytest.approx(2.0, abs=1e-12)
        assert nf.c == pytest.approx(1.0, abs=1e-12)
        assert nf.cp == pytest.approx(1.0, abs=1e-12)

    def test_general_squeezed_witness(self):
        fp = FamilyParams(b=2, r=2, tau=1, eta=1, sign=1)
        nf = family_cm_from_params(fp)
        assert nf.a == pytest.approx(2.0 * math.sqrt(2.5), abs=1e-12)
        # expected values from the explicit matrix construction
        target = composite_construction(fp)
        assert np.max(np.abs(embed_normal_form(nf) - target)) <= 1e-12
        assert nf.c * nf.cp == pytest.approx(-3.0, abs=1e-12)

    def test_matches_composite_construction(self):
        rng = np.random.default_rng(22)
        for fp in random_family_params(rng, 500):
            got = embed_normal_form(family_cm_from_params(fp))
            target = composite_construction(fp)
            scale = max(1.0, float(np.max(np.abs(target))))
            assert np.max(np.abs(got - target)) <= 1e-11 * scale

    def test_correlation_product_identity(self):
        rng = np.random.default_rng(23)
        for fp in random_family_params(rng, 1000):
            nf = family_cm_from_params(fp)
            sign_tau = 1.0 if fp.tau >= 0 else -1.0
            expect = -sign_tau * abs(fp.tau) * (fp.b**2 - 1.0)
            assert nf.c * nf.cp == pytest.approx(expect, rel=1e-9, abs=1e-12)

    def test_forward_states_bona_fide(self):
        rng = np.random.default_rng(24)
        for fp in random_family_params(rng, 1000):
            nf = family_cm_from_params(fp)
            assert bool(bona_fide_normal_form_mask(nf.a, nf.b, nf.c, nf.cp))

    def test_r_domain_enforced(self):
        with pytest.raises(DomainError):
            FamilyParams(b=2, r=2.5, tau=1, eta=1)
        with pytest.raises(DomainError):
            FamilyParams(b=2, r=0.4, tau=1, eta=1)

    def test_xi_definition(self):
        fp = FamilyParams(b=2, r=2, tau=1, eta=1)
        theta = lambda r: math.sqrt(fp.eta * r + abs(fp.tau) * fp.b)
        assert fp.xi == pytest.approx(fp.r * theta(1 / fp.r) / theta(fp.r), abs=1e-14)


class TestEtaFromA:
    def test_worked_values(self):
        assert eta_from_a(5, 1, 2, 2) == pytest.approx(1.0, abs=1e-12)
        assert eta_from_a(3, 1, 1, 3) == pytest.approx(0.0, abs=1e-12)
        assert eta_from_a(2, 1, -1 / 3, 2) == pytest.approx(4 / 3, abs=1e-12)

    def test_consistency_with_forward(self):
        rng = np.random.default_rng(25)
        for fp in random_family_params(rng, 500):
            nf = family_cm_from_params(fp)
            eta = eta_from_a(nf.a, fp.r, fp.tau, fp.b)
            assert eta == pytest.approx(fp.eta, abs=1e-9)
            theta = lambda r: math.sqrt(eta * r + abs(fp.tau) * fp.b)
            assert theta(fp.r) * theta(1 / fp.r) == pytest.approx(nf.a, abs=1e-12)

    def test_rejects_too_large_tau(self):
        with pytest.raises(DomainError):
            eta_from_a(2.0, 1.0, 1.5, 2.0)  # |tau| > a/b = 1


class TestTauBounds:
    def test_symmetric_state(self):
        lo, hi = tau_bounds(2, 2, 1)
        assert lo == pytest.approx(-1 / 3, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_vacuum(self):
        assert tau_bounds(1, 1, 1) == (0.0, 0.0)

    def test_endpoints_are_quantum_limited(self):
        rng = np.random.default_rng(26)
        for _ in range(500):
            b = rng.uniform(1.01, 5.0)
            a = rng.uniform(1.0, 5.0)
            r = rng.uniform(1 / b, b)
            lo, hi = tau_bounds(a, b, r)
            for tau in (lo, hi):
                eta = eta_from_a(a, r, tau, b)
                assert eta == pytest.approx(abs(1.0 - tau), abs=1e-9)

    def test_r_endpoints_finite(self):
        lo, hi = tau_bounds(2.0, 2.0, 2.0)
        lo2, hi2 = tau_bounds(2.0, 2.0, 0.5)
        assert math.isfinite(lo) and math.isfinite(hi)
        assert (lo, hi) == pytest.approx((lo2, hi2), abs=1e-12)

    def test_branch_agreement_at_a_equals_b(self):
        # both case branches must agree when a == b
        for b in (1.5, 2.0, 4.0):
            r = 1.2 / b + 0.3
            lo_hi = tau_bounds(b, b, min(max(r, 1 / b), b))
            assert lo_hi[0] < 0 < lo_hi[1]

    def test_interval_contains_zero(self):
        rng = np.random.default_rng(27)
        for _ in range(300):
            b = rng.uniform(1.01, 5.0)
            a = rng.uniform(1.0, 5.0)
            r = rng.uniform(1 / b, b)
            lo, hi = tau_bounds(a, b, r)
            assert lo <= 0.0 <= hi


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.5])
def test_every_variance_has_one_domain_check(bad):
    # one check guards every local or EPR variance; NaN fails it like 0.5 does
    calls = [
        lambda: FamilyParams(b=bad, r=1.0, tau=0.0, eta=1.0),
        lambda: decompose_squeezed_thermal(bad, 2.0, 0.0),
        lambda: decompose_squeezed_thermal(2.0, bad, 0.0),
        lambda: eta_from_a(bad, 1.0, 0.5, 2.0),
        lambda: tau_bounds(2.0, bad, 1.0),
        lambda: sample_family(bad, 2.0, 3, 0),
        lambda: sample_family(2.0, bad, 3, 0),
        lambda: epr_cm(bad),
        lambda: epr_squeezing_range(bad, 1.0),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="must be finite and >= 1"):
            call()


class TestMembership:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", range(4))
    def test_non_finite_rejected(self, slot, bad):
        params = [5.0, 2.0, SQRT6, -SQRT6]
        params[slot] = bad
        with pytest.raises(DomainError, match="not bona fide"):
            membership(NormalFormCM(*params))

    def test_squeezed_thermal_route(self):
        fp = membership(NormalFormCM(5, 2, SQRT6, -SQRT6))
        assert fp.r == 1.0
        assert fp.tau == pytest.approx(2.0, abs=1e-9)
        assert fp.eta == pytest.approx(1.0, abs=1e-9)
        assert fp.sign == 1

    def test_positive_product_route(self):
        fp = membership(NormalFormCM(2, 2, 1, 1))
        assert fp.r == pytest.approx(1.0, abs=1e-9)
        assert fp.tau == pytest.approx(-1 / 3, abs=1e-9)
        assert fp.eta == pytest.approx(4 / 3, abs=1e-9)

    def test_product_state(self):
        fp = membership(NormalFormCM(3.0, 2.0, 0, 0))
        assert fp.tau == 0.0
        assert fp.eta == 3.0

    def test_axis_state_out_of_family(self):
        with pytest.raises(OutOfFamily):
            membership(NormalFormCM(2, 2, 1.0, 0.0))

    def test_not_bona_fide_rejected(self):
        with pytest.raises(DomainError):
            membership(NormalFormCM(2, 2, 2, -2))

    def test_out_of_family_confirmed_by_grid_oracle(self):
        target = NormalFormCM(2, 2, 1.0, -0.5)
        with pytest.raises(OutOfFamily):
            membership(target)
        # brute force over a ragged (r, tau) grid at 1e-3 resolution: every
        # r in [1/b, b], every tau in [tau_min(r), tau_max(r)); no point
        # comes close.  Built from the forward formulae only, not membership.
        a, b, step = target.a, target.b, 1e-3
        r = np.minimum(np.arange(0.5, 2.0 + 1e-9, step), 2.0)
        lo, hi = _tau_bounds_arrays(a, b, r)
        counts = np.ceil((hi - lo) / step).astype(int)  # len(np.arange(lo, hi, step))
        offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        r = np.repeat(r, counts)
        tau = np.minimum(np.repeat(lo, counts) + offsets * step, np.repeat(hi, counts))
        eta = np.maximum(_eta_arrays(a, r, tau, b), np.abs(1.0 - tau))
        c, cp = _correlation_arrays(b, r, tau, eta, 1.0)
        best = float(np.min(np.maximum(np.abs(c - target.c), np.abs(cp - target.cp))))
        # a member would be approximated to ~grid resolution (1e-3); the
        # nearest family point is orders of magnitude further away
        assert best > 0.01

    def test_forward_inverse_round_trip(self):
        rng = np.random.default_rng(28)
        for fp in random_family_params(rng, 1500):
            nf1 = family_cm_from_params(fp)
            fp2 = membership(nf1)
            nf2 = family_cm_from_params(fp2)
            err = np.max(np.abs(embed_normal_form(nf1) - embed_normal_form(nf2)))
            assert err <= 1e-9

    def test_sampled_witnesses_recovered(self):
        # the closed-form inverse returns the sampler's own witness
        s = sample_family(2.3, 3.1, 20_000, 30)
        for i in range(s.n):
            fp = membership(NormalFormCM(s.a, s.b, float(s.c[i]), float(s.cp[i])))
            for got, want in ((fp.r, s.r[i]), (fp.tau, s.tau[i]), (fp.eta, s.eta[i])):
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
            assert fp.sign == s.sign[i]

    def test_within_tol_of_epr_is_member(self):
        # |tau| exceeds a/b = 1 by 1e-10, yet the eta = 0 witness reproduces
        # the state to ~3e-10, inside the forward-error tolerance
        target = NormalFormCM(2, 2, math.sqrt(3) * (1 + 1e-10), -math.sqrt(3))
        out = family_cm_from_params(membership(target))
        assert max(abs(out.a - target.a), abs(out.c - target.c),
                   abs(out.cp - target.cp)) <= 1e-9

    @pytest.mark.parametrize("c, cp", [(1e-5, 1e-5), (3e-5, -1e-5), (1e-5, -1e-5)])
    def test_vacuum_b_with_correlations_out_of_family(self, c, cp):
        # bona fide within the validator's tolerance, but b = 1 has no EPR
        # correlations to pass on
        assert bool(bona_fide_normal_form_mask(2.0, 1.0, c, cp))
        with pytest.raises(OutOfFamily):
            membership(NormalFormCM(2.0, 1.0, c, cp))

    def test_epr_is_member(self):
        fp = membership(NormalFormCM(2, 2, math.sqrt(3), -math.sqrt(3)))
        assert fp.tau == pytest.approx(1.0, abs=1e-9)
        assert fp.eta == pytest.approx(0.0, abs=1e-9)

    def test_bisector_states_always_members(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            a, b = rng.uniform(1.0, 5.0, 2)
            half = math.sqrt(max(a * b - 1.0 - abs(a - b), 0.0))
            c = rng.uniform(-half, half)
            for cp in (c, -c):
                if not bona_fide_normal_form_mask(a, b, c, cp):
                    continue
                fp = membership(NormalFormCM(a, b, c, cp))
                nf = family_cm_from_params(fp)
                assert abs(nf.c - c) <= 1e-9 * max(1.0, a)
                assert abs(nf.cp - cp) <= 1e-9 * max(1.0, a)


class TestSampler:
    def test_deterministic(self):
        s1 = sample_family(2.0, 2.0, 5000, 99)
        s2 = sample_family(2.0, 2.0, 5000, 99)
        assert np.array_equal(s1.c, s2.c)
        assert np.array_equal(s1.cp, s2.cp)

    def test_seed_changes_stream(self):
        s1 = sample_family(2.0, 2.0, 1000, 1)
        s2 = sample_family(2.0, 2.0, 1000, 2)
        assert not np.array_equal(s1.c, s2.c)

    def test_thread_count_invariant(self):
        s1 = sample_family(2.0, 3.0, 150_000, 5, threads=1)
        s4 = sample_family(2.0, 3.0, 150_000, 5, threads=4)
        for col in ("c", "cp", "r", "tau", "eta", "sign"):
            assert np.array_equal(getattr(s1, col), getattr(s4, col))

    def test_all_points_bona_fide(self):
        s = sample_family(2.0, 4.0, 50_000, 3)
        assert bool(np.all(bona_fide_normal_form_mask(2.0, 4.0, s.c, s.cp)))

    def test_both_signs_and_tau_signs_present(self):
        s = sample_family(2.0, 2.0, 20_000, 4)
        assert (s.sign > 0).any() and (s.sign < 0).any()
        assert (s.tau > 0).any() and (s.tau < 0).any()

    def test_witness_columns(self):
        s = sample_family(2.0, 2.0, 10, 6)
        assert s.n == len(s.c) == 10
        for i in range(s.n):
            fp = FamilyParams(b=s.b, r=float(s.r[i]), tau=float(s.tau[i]),
                              eta=float(s.eta[i]), sign=int(s.sign[i]))
            nf = family_cm_from_params(fp)
            # one formula serves the sampler and the scalar API
            assert (nf.c, nf.cp) == (s.c[i], s.cp[i])

    def test_csv_digest_pin(self):
        csv = sample_to_csv(sample_family(2.0, 2.0, 200_000, 42))
        assert hashlib.sha256(csv.encode()).hexdigest()[:16] == "22e1583402593166"

    def test_overflow_is_a_numerical_failure(self):
        # a^2 overflows in the tau bounds, and no redraw would mend that
        with pytest.raises(NumericalFailure):
            sample_family(1e160, 3.0, 3, 0)

    def test_degenerate_vacuum_pair(self):
        s = sample_family(1.0, 1.0, 50, 0)
        assert np.all(s.c == 0) and np.all(s.cp == 0)


class TestCoverage:
    def test_fraction_grows_with_b_at_fixed_ratio(self):
        fractions = []
        for a, b in [(2.0, 2.0), (3.0, 3.0), (4.0, 4.0)]:
            info = occupancy_grid(sample_family(a, b, 120_000, 13))
            fractions.append(info["coverage_fraction"])
        assert fractions[0] < fractions[1] < fractions[2]

    def test_bins_below_one_rejected(self):
        with pytest.raises(DomainError, match="bins"):
            occupancy_grid(sample_family(2.0, 2.0, 10, 0), bins=0)

    def test_grid_counts_total(self):
        s = sample_family(2.0, 2.0, 30_000, 14)
        info = occupancy_grid(s)
        assert int(np.sum(info["grid"])) == 30_000
        assert 0.0 < info["coverage_fraction"] < 1.0
