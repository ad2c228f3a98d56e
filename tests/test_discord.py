import hashlib
import json
import math

import numpy as np
import pytest

from gdiscord import (
    DomainError,
    FamilyParams,
    GaussianMeasurement,
    NormalFormCM,
    NumericalFailure,
    OutOfFamily,
    conditional_entropy_measured,
    discord_routes,
    embed_normal_form,
    entropy_two_mode,
    epr_cm,
    family_cm_from_params,
    gaussian_discord_closed_form,
    gaussian_discord_numeric,
    h,
    membership,
    min_output_entropy,
    normal_form_from_cm,
    rotation_matrix,
    squeezer_matrix,
    validate_bona_fide,
)
from gdiscord import discord as discord_module
from gdiscord import symplectic
from gdiscord.discord import ROUTE_GAP_BOUND, _best_seed, _form, _scan_forms
from gdiscord.family import _WITNESS_TOL, eta_from_a, tau_bounds
from gdiscord.remote_prep import conditional_cm
from gdiscord.symplectic import squeezed_thermal_bound
from gdiscord.verification import (
    random_family_params,
    random_normal_forms,
    random_squeezed_thermal,
)
from states import (
    CANCELLING_DISCORD,
    CANCELLING_NF,
    FIXED_FRAME_ANGLES,
    FIXED_FRAMES,
    FRAME_DEPENDENT_WITNESS_NF,
    WORKED_CM,
    WORKED_NF,
    classed_normal_forms,
    discord_reference,
    local_frame,
    local_symplectic,
    seeded_states,
    squeezed_rotations,
    verify_cms,
)

# bona fide (nu_min = 1.242), with a homodyne optimum (u = 0): the edge of
# the scan's u range
EDGE_CM = [
    [2.2996542582770254, 0, 0.4390670376374667, 0.2851396594617031],
    [0, 4.201636650263561, -0.01036061669447979, -0.7944371156548117],
    [0.4390670376374667, -0.01036061669447979, 1.8493232464685119, 0],
    [0.2851396594617031, -0.7944371156548117, 0, 1.031639623501059],
]


def _scan_objective(forms, x, y, cos2, sin2):
    """``det(A - C (B + V0)^{-1} C^T)`` for the seed ``u = x/y`` at angle phi.

    ``forms`` are :func:`_scan_forms` of the CM; ``cos2``, ``sin2`` are
    cos 2phi and sin 2phi.
    """
    (kn, tn, dn, en), (kd, td, dd, ed) = forms
    xy, sq, diff = x * y, x * x + y * y, y * y - x * x
    num = xy * kn + sq * tn + diff * (dn * cos2 + en * sin2)
    return num / (xy * kd + sq * td + diff * (dd * cos2 + ed * sin2))


def matched_measurement(fp: FamilyParams) -> GaussianMeasurement:
    """Measurement whose remote preparation matches a family witness.

    Measuring the EPR mode with seed squeezing ``u = (r b - 1)/(b - r)``
    prepares squeezed states of exactly the witness squeezing ``r``; the
    endpoints r = 1/b and r = b map to the two homodyne limits.
    """
    num = fp.r * fp.b - 1.0
    den = fp.b - fp.r
    if num <= 0.0:
        return GaussianMeasurement.homodyne_q()
    if den <= 0.0:
        return GaussianMeasurement.homodyne_p()
    return GaussianMeasurement(num / den)


# brute-force phi search for the oracle: a 32-point grid over [0, pi/2), the
# period of min_u, then a golden-section refinement around the grid winner
ORACLE_PHI_STEP = math.pi / 64.0
ORACLE_PHI_GRID = [k * ORACLE_PHI_STEP for k in range(32)]


def phi_search_oracle(V):
    """(u, phi) of the scan's minimum over a phi grid and golden refinement, u exact."""
    forms = _scan_forms(V.tolist())
    g = lambda p: _best_seed(forms, p)[0]
    phi = min(ORACLE_PHI_GRID, key=g)
    lo, hi, ratio = phi - ORACLE_PHI_STEP, phi + ORACLE_PHI_STEP, 0.5 * (math.sqrt(5.0) - 1.0)
    for _ in range(60):  # shrinks the bracket by 0.618^60, to ~3e-14
        x1, x2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        lo, hi = (lo, x2) if g(x1) <= g(x2) else (x1, hi)
    phi = min(phi, 0.5 * (lo + hi), key=g)
    _, x, y = _best_seed(forms, phi)
    if x > y:
        x, y, phi = y, x, phi + 0.5 * math.pi
    return x / y, phi % math.pi


class TestConditionalEntropy:
    def test_product_state_any_measurement(self):
        V = embed_normal_form(NormalFormCM(3.0, 2.0, 0, 0))
        for m in (GaussianMeasurement.heterodyne(), GaussianMeasurement(0.2, 0.9),
                  GaussianMeasurement.homodyne_q(), GaussianMeasurement.homodyne_p()):
            assert conditional_entropy_measured(V, m) == pytest.approx(h(3.0), abs=1e-12)

    def test_worked_state_heterodyne(self):
        s = conditional_entropy_measured(WORKED_CM, GaussianMeasurement.heterodyne())
        assert s == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("b", [1.0, 2.0, 6.0])
    def test_epr_heterodyne_prepares_coherent(self, b):
        s = conditional_entropy_measured(epr_cm(b), GaussianMeasurement.heterodyne())
        assert s == pytest.approx(0.0, abs=1e-9)


class TestScanObjective:
    def test_normal_form_forms_keep_solve_rounding(self):
        # A^{-1} C multiplies by 1/a, as LAPACK's solve does; c/a would move
        # the last bit on 47 of these 400 states
        for nf in zip(*random_normal_forms(np.random.default_rng(38), 400)):
            a, b, c, cp = map(float, nf)
            assert _scan_forms(NormalFormCM(a, b, c, cp).rows()) == (
                _form(b - c * (c * (1 / a)), 0.0, b - cp * (cp * (1 / a)), a * a),
                _form(b, 0.0, b, 1.0),
            )

    def test_singular_a_block_is_a_typed_error(self):
        rows = [[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
        with pytest.raises(NumericalFailure, match="not positive definite"):
            _scan_forms(rows)

    def test_matches_conditional_cm(self):
        # the ratio of quadratic forms ranks what conditional_cm evaluates
        for V in seeded_states(np.random.default_rng(39), 40):
            forms = _scan_forms(V.tolist())
            for u in (0.0, 1e-4, 0.3, 1.0, 3.0, 6.0, math.inf):  # inf: weights (1, 0)
                for phi in (0.0, 0.4, 1.3, 2.9):
                    m = GaussianMeasurement(u, phi)
                    D = conditional_cm(V, m)
                    det = _scan_objective(forms, *m.weights, math.cos(2 * phi), math.sin(2 * phi))
                    assert det == pytest.approx(D[0, 0] * D[1, 1] - D[0, 1] * D[1, 0], rel=1e-12)

    def test_heterodyne_row_is_bit_flat(self):
        # at u = 1 the phi terms carry the factor y^2 - x^2 = 0 exactly
        for V in seeded_states(np.random.default_rng(40), 20):
            forms = _scan_forms(V.tolist())
            det = [_scan_objective(forms, 1.0, 1.0, math.cos(2 * p), math.sin(2 * p))
                   for p in ORACLE_PHI_GRID]
            assert all(d == det[0] for d in det)

    def test_best_seed_values_match_objective_bitwise(self):
        # _best_seed writes out u = 0, inf and 1; its value must be what
        # _scan_objective gives at the returned weights, and no endpoint lower
        edge = embed_normal_form(family_cm_from_params(FamilyParams(2, 2, 1, 1, 1)))
        states = [WORKED_CM, edge, np.array(EDGE_CM), *seeded_states(np.random.default_rng(41), 20)]
        seen = set()
        for V in states:
            forms = _scan_forms(V.tolist())
            for phi in ORACLE_PHI_GRID[::5] + [0.37, 1.21]:
                cos2, sin2 = math.cos(2 * phi), math.sin(2 * phi)
                d, x, y = _best_seed(forms, phi)
                assert d == _scan_objective(forms, x, y, cos2, sin2)
                ends = [_scan_objective(forms, *w, cos2, sin2)
                        for w in ((0.0, 1.0), (1.0, 0.0), (1.0, 1.0))]
                assert d <= min(ends)
                seen.add((x, y) if (x, y) in ((0.0, 1.0), (1.0, 0.0), (1.0, 1.0)) else "root")
        assert seen == {(0.0, 1.0), (1.0, 0.0), (1.0, 1.0), "root"}

    @staticmethod
    def _rotated_worked_winner(theta):
        R = local_frame(rotation_matrix(theta), rotation_matrix(0.7 * theta))
        return gaussian_discord_numeric(R @ WORKED_CM @ R.T)

    @pytest.mark.parametrize("theta", [0.3, 1.1])
    def test_heterodyne_winner_reports_phi_zero(self, theta):
        res = self._rotated_worked_winner(theta)
        assert res.s_min_cond == pytest.approx(2.0, abs=1e-8)
        assert (res.u_opt, res.phi_opt) == (1.0, 0.0)

    def test_heterodyne_winner_reports_phi_zero_on_sweep(self):
        for theta in np.linspace(0.01, 3.1, 300):
            res = self._rotated_worked_winner(theta)
            assert res.s_min_cond == pytest.approx(2.0, abs=1e-8)
            assert (res.u_opt, res.phi_opt) == (1.0, 0.0), theta

    def test_numeric_report_joint_entropy(self):
        # S(AB) comes from the validation's spectrum, bit for bit entropy_two_mode
        for V in seeded_states(np.random.default_rng(42), 20):
            assert gaussian_discord_numeric(V).s_ab == entropy_two_mode(V)

    def test_coupled_state_matches_normal_form(self):
        # a normal form under a local symplectic (rotation times squeezer
        # diag(sqrt(s), 1/sqrt(s)) per mode) that couples u and phi strongly:
        # a coordinate descent in (u, phi) stops 2.3e-8 above the minimum here
        a, b, c, cp = (4.6698468087009335, 4.716915775305877,
                       -2.766168646876578, 4.415916563093463)
        nf = np.array([[a, 0, c, 0], [0, a, 0, cp], [c, 0, b, 0], [0, cp, 0, b]])
        S = local_frame(*(rotation_matrix(theta) @ squeezer_matrix(sq) for theta, sq in (
            (0.8767626113683948, 0.49643377916799275), (1.629210857405166, 2.9132206010834234))))
        V = S @ nf @ S.T
        V = 0.5 * (V + V.T)
        ref = gaussian_discord_numeric(nf).s_min_cond
        assert gaussian_discord_numeric(V).s_min_cond == pytest.approx(ref, abs=1e-12)


class TestMinimizer:
    def test_heterodyne_optimal_for_squeezed_thermal(self):
        res = gaussian_discord_numeric(WORKED_CM)
        assert res.s_min_cond == pytest.approx(2.0, abs=1e-8)
        assert res.u_opt == pytest.approx(1.0, abs=1e-3)

    def test_product_state_constant_objective(self):
        V = embed_normal_form(NormalFormCM(2.7, 1.9, 0, 0))
        res = gaussian_discord_numeric(V)
        assert res.s_min_cond == pytest.approx(h(2.7), abs=1e-10)
        # every seed ties; ties go to the first candidate, homodyne u = 0
        assert (res.u_opt, res.phi_opt) == (0.0, 0.0)

    def test_homodyne_witness_at_family_edge(self):
        fp = FamilyParams(b=2, r=2, tau=1, eta=1, sign=1)
        V = embed_normal_form(family_cm_from_params(fp))
        res = gaussian_discord_numeric(V)
        assert res.s_min_cond == pytest.approx(h(abs(fp.tau) + fp.eta), abs=1e-9)
        # u -> inf at phi = 0 is reported as u = 0 at phi = pi/2
        assert res.u_opt == 0.0
        assert type(res.phi_opt) is float

    def test_matched_measurement_identity(self):
        rng = np.random.default_rng(31)
        for fp in random_family_params(rng, 300):
            V = embed_normal_form(family_cm_from_params(fp))
            s = conditional_entropy_measured(V, matched_measurement(fp))
            assert s == pytest.approx(h(abs(fp.tau) + fp.eta), abs=1e-8)

    def test_matched_measurement_endpoints(self):
        for r, u in [(0.5, 0.0), (2.0, math.inf)]:  # the q and p homodyne limits
            fp = FamilyParams(b=2.0, r=r, tau=0.8, eta=1.1, sign=1)
            m = matched_measurement(fp)
            assert m.u == u
            V = embed_normal_form(family_cm_from_params(fp))
            s = conditional_entropy_measured(V, m)
            assert s == pytest.approx(h(abs(fp.tau) + fp.eta), abs=1e-8)

    def test_matches_phi_search_oracle_on_transformed_states(self):
        # the angle read off the reduction is as good as a brute-force phi search
        for V in seeded_states(np.random.default_rng(43), 120):
            res = gaussian_discord_numeric(V)
            oracle = conditional_entropy_measured(V, GaussianMeasurement(*phi_search_oracle(V)))
            assert abs(res.s_min_cond - oracle) <= 1e-13

    def test_heterodyne_never_beaten_on_squeezed_thermal(self):
        rng = np.random.default_rng(32)
        a, b, c = random_squeezed_thermal(rng, 200)
        het = GaussianMeasurement.heterodyne()
        for i in range(200):
            V = embed_normal_form(NormalFormCM(a[i], b[i], c[i], -c[i]))
            res = gaussian_discord_numeric(V)
            assert conditional_entropy_measured(V, het) - res.s_min_cond <= 1e-8

    def test_result_is_folded_into_unit_interval(self):
        # (u, phi) and (1/u, phi + pi/2) are the same measurement; the scan
        # covers u in [0, 1] once and reports its optimum there
        for V in seeded_states(np.random.default_rng(38), 100):
            res = gaussian_discord_numeric(V)
            assert 0.0 <= res.u_opt <= 1.0
            u, phi = res.u_opt, res.phi_opt
            twin = (GaussianMeasurement(1.0 / u, phi + 0.5 * math.pi) if u > 0.0
                    else GaussianMeasurement.homodyne_p(phi + 0.5 * math.pi))
            for m in (GaussianMeasurement(u, phi), twin):
                assert conditional_entropy_measured(V, m) == pytest.approx(res.s_min_cond, abs=1e-12)


class TestTermination:
    def test_edge_state_through_cli(self, run_cli):
        res = run_cli(["discord", "--state", json.dumps({"cm": EDGE_CM})])
        assert res.exit_code == 0
        assert math.isfinite(json.loads(res.stdout)["numeric"]["discord"])

    def test_locally_transformed_states_match_normal_form(self):
        rng = np.random.default_rng(37)
        for V in verify_cms(rng, 200):
            S = local_symplectic(rng)
            ref = gaussian_discord_numeric(V).discord
            assert gaussian_discord_numeric(S @ V @ S.T).discord == pytest.approx(ref, abs=1e-6)


class TestLocalInvariance:
    def test_discord_verdict_and_route_survive_local_symplectics(self):
        # the witness (r, sign, xi) is left out: it still depends on the frame
        # (ROADMAP item 4); (b, tau, eta) and the discord do not
        rng = np.random.default_rng(45)
        kinds = set()
        for nf in classed_normal_forms(rng, 60):
            V = embed_normal_form(nf)
            frames = (local_symplectic(rng), *FIXED_FRAMES)
            numeric, closed, _ = discord_routes(V)
            assert validate_bona_fide(V).bona_fide
            fp = None if closed is None else membership(normal_form_from_cm(V))
            tol = _WITNESS_TOL * max(1.0, nf.a)
            for S in frames:
                W = S @ V @ S.T
                assert validate_bona_fide(W).bona_fide
                numeric_t, closed_t, _ = discord_routes(W)
                assert numeric_t.discord == pytest.approx(numeric.discord, abs=1e-12)
                assert numeric_t.method == numeric.method
                assert (closed is None) == (closed_t is None)
                if closed is not None:
                    assert closed_t.discord == pytest.approx(closed.discord, abs=1e-12)
                    assert closed_t.method == closed.method
                    fp_t = membership(normal_form_from_cm(W))
                    for x, y in ((fp_t.b, fp.b), (fp_t.tau, fp.tau), (fp_t.eta, fp.eta)):
                        assert x == pytest.approx(y, abs=tol)
            kinds.add(closed is None)
        assert kinds == {True, False}

    def test_pure_states_survive_local_symplectics(self):
        # EPR states sit at nu_minus = 1, where h has infinite slope: the
        # rounding of ~eps b^2 in nu_minus that any frame carries moves S(AB)
        # by up to ~1e-11 at b = 20, so the bound here is looser
        rng = np.random.default_rng(47)
        for b in rng.uniform(1.0, 20.0, 60):
            for sign in (1, -1):
                V = epr_cm(b, sign)
                S = local_symplectic(rng)
                numeric, closed, _ = discord_routes(V)
                numeric_t, closed_t, _ = discord_routes(S @ V @ S.T)
                assert numeric_t.discord == pytest.approx(h(b), abs=1e-10)
                assert numeric.discord == pytest.approx(h(b), abs=1e-10)
                assert closed_t.discord == pytest.approx(closed.discord, abs=1e-10)

    def test_membership_and_closed_form_ignore_local_relabelling(self):
        # (c, cp), (cp, c) and (-c, -cp) are one state up to local rotations
        # by pi/2 on both modes and by pi on mode A
        rng = np.random.default_rng(46)
        in_family = 0
        for a, b, c, cp in zip(*map(lambda x: x.tolist(), random_normal_forms(rng, 1500))):
            reports = []
            for pair in ((c, cp), (cp, c), (-c, -cp)):
                try:
                    fp = membership(NormalFormCM(a, b, *pair))
                    reports.append(gaussian_discord_closed_form(fp))
                except OutOfFamily:
                    reports.append(None)
            assert len({r is None for r in reports}) == 1
            if reports[0] is not None:
                in_family += 1
                for r in reports[1:]:
                    assert r.discord == pytest.approx(reports[0].discord, abs=1e-12)
        assert in_family > 500


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: the witness r reads 1/r in a frame "
                   "that misses the normal-form pattern match")
def test_witness_survives_a_frame_that_misses_the_pattern_match():
    V = embed_normal_form(FRAME_DEPENDENT_WITNESS_NF)
    S = FIXED_FRAMES[2]  # 1e-9 on mode A
    fp, fp_t = (membership(normal_form_from_cm(W)) for W in (V, S @ V @ S.T))
    tol = _WITNESS_TOL * max(1.0, FRAME_DEPENDENT_WITNESS_NF.a)
    for x, y in ((fp_t.r, fp.r), (fp_t.sign, fp.sign), (fp_t.xi, fp.xi)):
        assert x == pytest.approx(y, abs=tol)


def _scaled_squeezed_thermal_cms(rng, e, n):
    """n squeezed-thermal CMs, a and b in [1, 10] 10^e, each in one of the bank's frames."""
    for _ in range(n):
        a, b = rng.uniform(1.0, 10.0, 2) * 10.0**e
        c = math.sqrt(rng.uniform(0.0, squeezed_thermal_bound(a, b)))
        V = embed_normal_form(NormalFormCM(a, b, c, -c))
        pick = rng.integers(6)
        S = (np.eye(4), local_symplectic(rng), squeezed_rotations(rng), *FIXED_FRAMES)[pick]
        yield S @ V @ S.T


_PAST_THE_NUMERIC_RANGE = pytest.mark.xfail(
    strict=True, raises=NumericalFailure,
    reason="ROADMAP item 15: the numeric route's forms overflow from a*b of about 1.3e154, "
           "and the route ends in NumericalFailure instead of a value")


@pytest.mark.parametrize("e", [*range(0, 73, 8), *(pytest.param(e, marks=_PAST_THE_NUMERIC_RANGE)
                                                    for e in (80, 100, 120))])
def test_routes_agree_at_scale(e):
    # verify's criterion 1 bounds the gap at 1e-6 on variances up to 5; here the
    # variances reach 10^(e+1), and the frames reach the reduction's general path
    rng = np.random.default_rng([17, e])
    for W in _scaled_squeezed_thermal_cms(rng, e, 40):
        numeric, closed, gap = discord_routes(W)
        assert closed is not None
        assert gap <= ROUTE_GAP_BOUND, (e, numeric, closed)


# accepted family states (nu_min 1.289 and about 1.0) whose conditional CM at the
# numeric route's winner has a determinant that rounds below the vacuum's 1
BELOW_VACUUM_NFS = [
    NormalFormCM(89892198.76922995, 115051409.94953917, 100494744.05535707, -101696726.65265156),
    NormalFormCM(24689254279.00259, 33744790517.337055, 28864055738.482246, -28860722072.313026),
]


def test_conditional_eigenvalue_below_the_vacuum_is_a_numerical_failure():
    # h is not applied to a clamped value: the error quotes the eigenvalue
    V = embed_normal_form(BELOW_VACUUM_NFS[0])
    assert validate_bona_fide(V).bona_fide
    with pytest.raises(NumericalFailure, match=r"eigenvalue 0\.9585299226721411 is below 1"):
        gaussian_discord_numeric(V)
    V = embed_normal_form(BELOW_VACUUM_NFS[1])
    with pytest.raises(NumericalFailure, match=r"eigenvalue 0\.0 is below 1"):
        conditional_entropy_measured(V, GaussianMeasurement.homodyne_q())


# an accepted family state whose numeric route runs, but whose witness normal
# form's nu- (nu_min 1.328 on the state) rounds below the vacuum's 1; and that
# witness, built by hand
CLOSED_FORM_BELOW_VACUUM_NF = NormalFormCM(72359750755252.84, 245003869751050.8,
                                           133148109071283.7, -133148109071253.8)
CLOSED_FORM_BELOW_VACUUM_FP = FamilyParams(245003869751050.8, 0.030978910540439487,
                                           0.29534125656366783, 1.0087507744730608)


def test_closed_form_eigenvalue_below_the_vacuum_is_a_numerical_failure():
    # membership refuses the witness, so discord and decompose end alike; the
    # closed form refuses the hand-built witness with the same message
    nf = CLOSED_FORM_BELOW_VACUUM_NF
    assert validate_bona_fide(nf.rows()).bona_fide
    for call, arg in ((membership, nf), (discord_routes, nf.rows()),
                      (gaussian_discord_closed_form, CLOSED_FORM_BELOW_VACUUM_FP)):
        with pytest.raises(NumericalFailure, match=r"witness normal form's symplectic eigenvalue "
                           r"0\.7669939408799111 is below 1"):
            call(arg)


@pytest.mark.xfail(strict=True, reason="ROADMAP items 2, 12 and 17: ab - c^2 cancels in both routes")
@pytest.mark.parametrize("route", ["numeric", "closed"])
def test_cancelling_state_gets_its_discord(route):
    if route == "numeric":
        report = gaussian_discord_numeric(embed_normal_form(CANCELLING_NF))
    else:
        report = gaussian_discord_closed_form(membership(CANCELLING_NF))
    assert report.discord == pytest.approx(CANCELLING_DISCORD, abs=1e-6)


# states whose discord the decimal oracle reproduces: the cancelling state, the
# 3e30 and 3e100 members of its family of scaled states, a state whose printed
# digits are not all true (ROADMAP item 12) and README's 10-digit worked state
ORACLE_VALUES = [
    (CANCELLING_NF, CANCELLING_DISCORD),
    (NormalFormCM(3e30, 2e30, 2.2e30, -2.2e30), 3.00976034392e-30),
    (NormalFormCM(3e100, 2e100, 2.2e100, -2.2e100), 3.00976034392e-100),
    (NormalFormCM(300000.0, 200000.0, 1000.0, -500.0), 6.01126022844e-11),
    (NormalFormCM(5.0, 2.0, 2.449489743, -2.449489743), 0.950067264846),
]


def test_discord_reference_reproduces_known_values():
    for nf, value in ORACLE_VALUES:
        assert discord_reference(*nf) == pytest.approx(value, rel=1e-11, abs=0.0), nf
    with pytest.raises(ArithmeticError):  # E_min's first branch divides by (det B - 1)^2
        discord_reference(2.0, 1.0, 0.0, 0.0)


def test_routes_agree_with_the_decimal_oracle():
    # bank states, in and out of the family, as normal forms and in the fixed frames;
    # the worst gaps read about 1e-14
    rng = np.random.default_rng(43)
    closed_seen = 0
    for nf in classed_normal_forms(rng, 100):
        ref = discord_reference(*nf)
        V = embed_normal_form(nf)
        for W in (V, *(S @ V @ S.T for S in FIXED_FRAMES)):
            numeric, closed, _ = discord_routes(W)
            assert numeric.discord == pytest.approx(ref, abs=1e-12), nf
            if closed is not None:
                closed_seen += 1
                assert closed.discord == pytest.approx(ref, abs=1e-12), nf
    assert closed_seen == 3 * 100 * 4  # the three family classes, in all four frames


class TestInputValidation:
    def test_nan_entry_rejected(self):
        V = WORKED_CM.copy()
        V[0, 1] = V[1, 0] = math.nan
        with pytest.raises(DomainError, match="non-finite"):
            gaussian_discord_numeric(V)

    @pytest.mark.parametrize("V", [-2.0 * np.eye(4), np.diag([2.0, 2.0, -2.0, -2.0])])
    def test_not_positive_definite_rejected(self, V):
        # the symplectic spectrum cannot tell V from -V
        with pytest.raises(DomainError, match="not positive definite"):
            gaussian_discord_numeric(V)

    def test_asymmetric_cm_rejected(self):
        V = WORKED_CM.copy()
        V[0, 2] += 0.1
        with pytest.raises(DomainError, match="not symmetric"):
            gaussian_discord_numeric(V)


class TestDiscordReports:
    def test_worked_number_closed(self):
        fp = membership(WORKED_NF)
        rep = gaussian_discord_closed_form(fp)
        expect = h(2.0) - h(1.0) - h(4.0) + h(3.0)
        assert rep.discord == pytest.approx(expect, abs=1e-12)
        assert rep.discord == pytest.approx(0.950067, abs=1e-6)
        assert rep.method == "closed_form"

    def test_worked_number_numeric(self):
        rep = gaussian_discord_numeric(WORKED_CM)
        assert rep.discord == pytest.approx(0.950067264945, abs=1e-9)
        assert rep.method == "numeric_scan"
        assert rep.u_opt == pytest.approx(1.0, abs=1e-3)

    def test_pure_epr_discord_is_h_b(self):
        for b in (1.5, 2.0, 4.0):
            fp = FamilyParams(b=b, r=1.0, tau=1.0, eta=0.0, sign=1)
            rep = gaussian_discord_closed_form(fp)
            assert rep.discord == pytest.approx(h(b), abs=1e-9)

    def test_product_discord_zero(self):
        fp = FamilyParams(b=2.0, r=1.0, tau=0.0, eta=3.0, sign=1)
        assert gaussian_discord_closed_form(fp).discord == pytest.approx(0.0, abs=1e-12)
        V = embed_normal_form(NormalFormCM(3.0, 2.0, 0, 0))
        assert gaussian_discord_numeric(V).discord == pytest.approx(0.0, abs=1e-6)

    def test_positive_correlations_example(self):
        V = embed_normal_form(NormalFormCM(2, 2, 1, 1))
        rep = gaussian_discord_numeric(V)
        expect = h(2.0) - h(1.0) - h(3.0) + h(5.0 / 3.0)
        assert rep.discord == pytest.approx(expect, abs=1e-6)
        assert expect == pytest.approx(0.459148, abs=1e-6)

    def test_report_invariants(self):
        rng = np.random.default_rng(33)
        for fp in random_family_params(rng, 100):
            V = embed_normal_form(family_cm_from_params(fp))
            for rep in (gaussian_discord_closed_form(fp), gaussian_discord_numeric(V)):
                assert rep.i_ab == pytest.approx(rep.s_a + rep.s_b - rep.s_ab, abs=1e-9)
                assert rep.discord == pytest.approx(
                    rep.s_min_cond - (rep.s_ab - rep.s_b), abs=1e-9
                )
                assert rep.discord >= -1e-6
                assert rep.classical_corr >= -1e-9

    def test_closed_matches_numeric_on_family(self):
        rng = np.random.default_rng(34)
        for fp in random_family_params(rng, 300):
            closed = gaussian_discord_closed_form(fp)
            V = embed_normal_form(family_cm_from_params(fp))
            numeric = gaussian_discord_numeric(V)
            assert abs(closed.discord - numeric.discord) <= 1e-6

    def test_closed_matches_numeric_at_large_variance(self):
        # b log-uniform in [1, 1e3]: the conditional CM loses precision as b grows
        rng = np.random.default_rng(41)
        for _ in range(100):
            b = 10.0 ** rng.uniform(0.0, 3.0)
            a = rng.uniform(1.0, b)
            r = rng.uniform(1.0 / b, b)
            tau = rng.uniform(*tau_bounds(a, b, r))
            eta = max(eta_from_a(a, r, tau, b), abs(1.0 - tau))
            fp = FamilyParams(b=b, r=r, tau=tau, eta=eta, sign=1 if rng.uniform() < 0.5 else -1)
            V = embed_normal_form(family_cm_from_params(fp))
            closed = gaussian_discord_closed_form(fp).discord
            assert abs(closed - gaussian_discord_numeric(V).discord) <= 1e-9

    def test_invariant_under_squeezing_mode_A(self):
        rng = np.random.default_rng(35)
        for fp in random_family_params(rng, 40):
            V = embed_normal_form(family_cm_from_params(fp))
            ref = gaussian_discord_numeric(V)
            S = local_frame(squeezer_matrix(rng.uniform(0.4, 2.5)), np.eye(2))
            rep = gaussian_discord_numeric(S @ V @ S.T)
            for field in ("s_a", "s_b", "s_ab", "s_min_cond", "discord"):
                assert getattr(rep, field) == pytest.approx(getattr(ref, field), abs=1e-8)

    def test_invariant_under_rotation_mode_B(self):
        rng = np.random.default_rng(36)
        for fp in random_family_params(rng, 20):
            V = embed_normal_form(family_cm_from_params(fp))
            ref = gaussian_discord_numeric(V)
            R = local_frame(np.eye(2), rotation_matrix(rng.uniform(0, math.pi)))
            rep = gaussian_discord_numeric(R @ V @ R.T)
            assert rep.s_min_cond == pytest.approx(ref.s_min_cond, abs=1e-8)
            assert rep.discord == pytest.approx(ref.discord, abs=1e-8)


@pytest.mark.parametrize("frame", [False, True], ids=["normal-form", "local-frame"])
@pytest.mark.parametrize("with_diag", [False, True], ids=["validated-here", "diagnosis-passed"])
def test_state_is_read_once(monkeypatch, frame, with_diag):
    # validation and the routes share one read and one reduction of V; a
    # second public call on the same float64 V reads and reduces it no more
    V = WORKED_CM
    if frame:
        S = local_symplectic(np.random.default_rng(37))
        V = S @ V @ S.T
        V = 0.5 * (V + V.T)
    validate_bona_fide(np.eye(4))  # another CM takes the last-read slot
    diag = validate_bona_fide(V) if with_diag else None
    reads, reductions = [], []
    checked, reduce_rows = symplectic._checked, symplectic._reduce_rows
    for name in ("family_cm_from_params", "normal_form_spectrum"):  # no witness CM is rebuilt
        monkeypatch.setattr(discord_module, name, None)
    monkeypatch.setattr(symplectic, "_checked", lambda rows: reads.append(rows) or checked(rows))
    monkeypatch.setattr(symplectic, "_reduce_rows",
                        lambda rows: reductions.append(rows) or reduce_rows(rows))
    numeric, _, gap = discord_routes(V, diag)
    assert (len(reads), len(reductions)) == (1, 0 if with_diag else 1) and gap <= 1e-9
    if not with_diag:  # the numeric route, on the same V, reads it 0 times
        reads.clear()
        reductions.clear()
        assert gaussian_discord_numeric(V) == numeric and (len(reads), len(reductions)) == (0, 0)
    assert numeric.discord == pytest.approx(0.950067264945, abs=1e-9)


def test_routes_reject_a_given_diagnosis_that_is_not_bona_fide():
    V = np.diag([1.0 - 1e-8, 1.0 - 1e-8, 1.0, 1.0])
    with pytest.raises(DomainError, match="not bona fide"):
        discord_routes(V, validate_bona_fide(V))


def test_report_is_a_read_only_record():
    rep = gaussian_discord_numeric(WORKED_CM)
    with pytest.raises(AttributeError):
        rep.discord = 0.0
    assert repr(rep) == (
        "DiscordReport(s_a=2.7548875021634687, s_b=1.3774437510817343, s_ab=2.427376486136672,"
        " i_ab=1.7049547671085312, s_min_cond=2.0000000000000004,"
        " classical_corr=0.7548875021634682, discord=0.950067264945063,"
        " method='numeric_scan', u_opt=1.0, phi_opt=0.0)")
    closed = gaussian_discord_closed_form(membership(WORKED_NF))
    assert repr(closed).endswith("method='closed_form', u_opt=None, phi_opt=None)")


def _frame_rows(phi_a, phi_b, s_a=1.0, s_b=1.0):
    """squeezer(s) rotation(phi) on each mode, as four rows of Python floats."""
    def block(phi, s):
        cos, sin, root = math.cos(phi), math.sin(phi), math.sqrt(s)
        return [[root * cos, -root * sin], [sin / root, cos / root]]
    (p, q), (t, u) = block(phi_a, s_a), block(phi_b, s_b)
    return [p + [0.0, 0.0], q + [0.0, 0.0], [0.0, 0.0] + t, [0.0, 0.0] + u]


def _in_frame(S, rows):
    """``S V S^T`` in Python floats, summed left to right: the same bits wherever floats are IEEE."""
    def dot(x, y):
        total = 0.0
        for xi, yi in zip(x, y):
            total = total + xi * yi
        return total
    SV = [[dot(s, col) for col in zip(*rows)] for s in S]
    return [[dot(sv, s) for s in S] for sv in SV]


# the off-pattern slots of a 4x4 normal form: zero in NormalFormCM.rows()
_OFF_PATTERN = [(i, j) for i in range(4) for j in range(4) if (i - j) % 2]


def _pinned_cms():
    """The CMs whose validation and discord reports :func:`test_reports_keep_their_bits` pins.

    Each seeded normal form comes in both (c, cp) orders, so a share of the
    optima fold to phi = pi/2; then with -0.0 in its off-pattern slots, then
    within _PATTERN_RTOL of its pattern but off it, then in local frames:
    the fixed frames of ``states`` and seeded squeezed rotations.
    """
    rng = np.random.default_rng(3141)
    nfs = [NormalFormCM(*map(float, v)) for nf in classed_normal_forms(rng, 12)
           for v in (nf, nf._replace(c=nf.cp, cp=nf.c))]
    for nf in nfs:
        yield nf.rows()
    for nf in nfs:
        rows = nf.rows()
        for i, j in _OFF_PATTERN:
            rows[i][j] = -0.0
        yield rows
    for nf in nfs:
        rows = nf.rows()
        off = 0.4 * symplectic._PATTERN_RTOL * max(nf.a, nf.b, abs(nf.c), abs(nf.cp))
        rows[0][1] = rows[1][0] = off
        rows[2][3] = rows[3][2] = -off
        rows[1][1] = nf.a + off
        yield rows
    frames = [_frame_rows(phi_a, phi_b) for phi_a, phi_b in FIXED_FRAME_ANGLES]
    for phi_a, phi_b, s_a, s_b in rng.uniform([0.0, 0.0, 0.5, 0.5], [math.pi, math.pi, 2.0, 2.0], (3, 4)):
        frames.append(_frame_rows(phi_a, phi_b, s_a, s_b))
    for nf in nfs[::3]:
        for S in frames:
            yield _in_frame(S, nf.rows())


def test_reports_keep_their_bits():
    # every bit of the diagnosis and of both routes' reports, on the inputs
    # that take each shortcut of the gate, the reduction and the numeric
    # route and on those that just miss it; the transformed CMs are built in
    # Python floats, so no BLAS or vector libm enters the pinned bits
    digest = hashlib.sha256()
    folded = 0
    for rows in _pinned_cms():
        diag = validate_bona_fide(rows)
        routes = discord_routes(rows, diag)
        assert routes == discord_routes(rows)
        numeric, closed, _ = routes
        assert numeric == gaussian_discord_numeric(rows)
        if closed is not None:  # the closed form adds only its family term to the state's entropies
            assert closed[:4] == numeric[:4]  # s_a, s_b, s_ab, i_ab
            assert closed.s_min_cond == min_output_entropy(membership(diag.reduction.nf))
        folded += numeric.phi_opt == 0.5 * math.pi
        digest.update(repr((diag, numeric, closed)).encode())
    assert folded >= 10
    assert digest.hexdigest()[:16] == "99e5012cc924e915"
