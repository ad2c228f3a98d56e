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
    embed_normal_form,
    entropy_two_mode,
    epr_cm,
    family_cm_from_params,
    gaussian_discord_closed_form,
    gaussian_discord_numeric,
    h,
    membership,
    normal_form_from_cm,
    rotation_matrix,
    squeezer_matrix,
    validate_bona_fide,
)
from gdiscord import discord, symplectic
from gdiscord.discord import _best_seed, _form, _scan_forms
from gdiscord.family import eta_from_a, tau_bounds
from gdiscord.remote_prep import conditional_cm
from gdiscord.verification import (
    random_family_params,
    random_normal_forms,
    random_squeezed_thermal,
)

SQRT6 = math.sqrt(6.0)
WORKED = embed_normal_form(NormalFormCM(5, 2, SQRT6, -SQRT6))
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


def local_symplectic(rng):
    """Random rotation times squeezer on each mode."""
    S = np.zeros((4, 4))
    for k in (0, 2):
        S[k:k + 2, k:k + 2] = rotation_matrix(rng.uniform(0, math.pi)) @ squeezer_matrix(
            math.exp(rng.uniform(-math.log(3.0), math.log(3.0))))
    return S


class TestConditionalEntropy:
    def test_product_state_any_measurement(self):
        V = embed_normal_form(NormalFormCM(3.0, 2.0, 0, 0))
        for m in (GaussianMeasurement.heterodyne(), GaussianMeasurement(0.2, 0.9),
                  GaussianMeasurement.homodyne_q(), GaussianMeasurement.homodyne_p()):
            assert conditional_entropy_measured(V, m) == pytest.approx(h(3.0), abs=1e-12)

    def test_worked_state_heterodyne(self):
        s = conditional_entropy_measured(WORKED, GaussianMeasurement.heterodyne())
        assert s == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("b", [1.0, 2.0, 6.0])
    def test_epr_heterodyne_prepares_coherent(self, b):
        s = conditional_entropy_measured(epr_cm(b), GaussianMeasurement.heterodyne())
        assert s == pytest.approx(0.0, abs=1e-9)


def seeded_states(rng, n):
    """Seeded normal forms, every other one under a random local symplectic."""
    for i, nf in enumerate(zip(*random_normal_forms(rng, n))):
        V = embed_normal_form(NormalFormCM(*map(float, nf)))
        if i % 2:
            S = local_symplectic(rng)
            V = S @ V @ S.T
        yield V


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
        states = [WORKED, edge, np.array(EDGE_CM), *seeded_states(np.random.default_rng(41), 20)]
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
        R = np.zeros((4, 4))
        R[:2, :2] = rotation_matrix(theta)
        R[2:, 2:] = rotation_matrix(0.7 * theta)
        return gaussian_discord_numeric(R @ WORKED @ R.T)

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

    def test_numeric_report_reuses_given_diagnosis(self):
        for V in seeded_states(np.random.default_rng(43), 20):
            assert gaussian_discord_numeric(V, validate_bona_fide(V)) == gaussian_discord_numeric(V)
        V = np.diag([1.0 - 1e-8, 1.0 - 1e-8, 1.0, 1.0])
        with pytest.raises(DomainError, match="not bona fide"):
            gaussian_discord_numeric(V, validate_bona_fide(V))

    def test_coupled_state_matches_normal_form(self):
        # a normal form under a local symplectic (rotation times squeezer
        # diag(sqrt(s), 1/sqrt(s)) per mode) that couples u and phi strongly:
        # a coordinate descent in (u, phi) stops 2.3e-8 above the minimum here
        a, b, c, cp = (4.6698468087009335, 4.716915775305877,
                       -2.766168646876578, 4.415916563093463)
        nf = np.array([[a, 0, c, 0], [0, a, 0, cp], [c, 0, b, 0], [0, cp, 0, b]])
        S = np.zeros((4, 4))
        for k, theta, sq in ((0, 0.8767626113683948, 0.49643377916799275),
                             (2, 1.629210857405166, 2.9132206010834234)):
            rot = np.array([[math.cos(theta), -math.sin(theta)],
                            [math.sin(theta), math.cos(theta)]])
            S[k:k + 2, k:k + 2] = rot @ np.diag([math.sqrt(sq), 1.0 / math.sqrt(sq)])
        V = S @ nf @ S.T
        V = 0.5 * (V + V.T)
        ref = gaussian_discord_numeric(nf).s_min_cond
        assert gaussian_discord_numeric(V).s_min_cond == pytest.approx(ref, abs=1e-12)


class TestMinimizer:
    def test_heterodyne_optimal_for_squeezed_thermal(self):
        res = gaussian_discord_numeric(WORKED)
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
        assert math.isfinite(json.loads(res.output)["numeric"]["discord"])

    def test_locally_transformed_states_match_normal_form(self):
        rng = np.random.default_rng(37)
        for nf in zip(*random_normal_forms(rng, 200)):
            V = embed_normal_form(NormalFormCM(*map(float, nf)))
            S = local_symplectic(rng)
            ref = gaussian_discord_numeric(V).discord
            assert gaussian_discord_numeric(S @ V @ S.T).discord == pytest.approx(ref, abs=1e-6)


def discord_routes(V):
    """(numeric report, closed-form report or None), as `gdiscord discord` computes them."""
    try:
        closed = gaussian_discord_closed_form(membership(normal_form_from_cm(V)))
    except OutOfFamily:
        closed = None
    return gaussian_discord_numeric(V), closed


class TestLocalInvariance:
    @staticmethod
    def _states(rng, n):
        a, b, c = random_squeezed_thermal(rng, n)
        yield from (NormalFormCM(*map(float, row), -float(row[2])) for row in zip(a, b, c))
        yield from (family_cm_from_params(fp) for fp in random_family_params(rng, n))
        outside = 0
        for nf in zip(*random_normal_forms(rng, 4 * n)):
            nf = NormalFormCM(*map(float, nf))
            try:
                membership(nf)
            except OutOfFamily:
                outside += 1
                yield nf
            if outside == n:
                break
        for b in rng.uniform(1.0, 20.0, n):  # symmetric squeezed thermal: a degenerate spectrum
            c = math.sqrt((b * b - 1.0) * rng.uniform(0.0, 1.0))
            yield NormalFormCM(b, b, c, -c)

    def test_discord_verdict_and_route_survive_local_symplectics(self):
        rng = np.random.default_rng(45)
        kinds = set()
        for nf in self._states(rng, 60):
            V = embed_normal_form(nf)
            S = local_symplectic(rng)
            numeric, closed = discord_routes(V)
            numeric_t, closed_t = discord_routes(S @ V @ S.T)
            assert numeric_t.discord == pytest.approx(numeric.discord, abs=1e-12)
            assert numeric_t.method == numeric.method
            assert (closed is None) == (closed_t is None)
            if closed is not None:
                assert closed_t.discord == pytest.approx(closed.discord, abs=1e-12)
                assert closed_t.method == closed.method
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
                numeric, closed = discord_routes(V)
                numeric_t, closed_t = discord_routes(S @ V @ S.T)
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


class TestInputValidation:
    def test_nan_entry_rejected(self):
        V = WORKED.copy()
        V[0, 1] = V[1, 0] = math.nan
        with pytest.raises(DomainError, match="non-finite"):
            gaussian_discord_numeric(V)

    @pytest.mark.parametrize("V", [-2.0 * np.eye(4), np.diag([2.0, 2.0, -2.0, -2.0])])
    def test_not_positive_definite_rejected(self, V):
        # the symplectic spectrum cannot tell V from -V
        with pytest.raises(DomainError, match="not positive definite"):
            gaussian_discord_numeric(V)

    def test_asymmetric_cm_rejected(self):
        V = WORKED.copy()
        V[0, 2] += 0.1
        with pytest.raises(DomainError, match="not symmetric"):
            gaussian_discord_numeric(V)


class TestDiscordReports:
    def test_worked_number_closed(self):
        fp = membership(NormalFormCM(5, 2, SQRT6, -SQRT6))
        rep = gaussian_discord_closed_form(fp)
        expect = h(2.0) - h(1.0) - h(4.0) + h(3.0)
        assert rep.discord == pytest.approx(expect, abs=1e-12)
        assert rep.discord == pytest.approx(0.950067, abs=1e-6)
        assert rep.method == "closed_form"

    def test_worked_number_numeric(self):
        rep = gaussian_discord_numeric(WORKED)
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
            S = np.block([
                [squeezer_matrix(rng.uniform(0.4, 2.5)), np.zeros((2, 2))],
                [np.zeros((2, 2)), np.eye(2)],
            ])
            rep = gaussian_discord_numeric(S @ V @ S.T)
            for field in ("s_a", "s_b", "s_ab", "s_min_cond", "discord"):
                assert getattr(rep, field) == pytest.approx(getattr(ref, field), abs=1e-8)

    def test_invariant_under_rotation_mode_B(self):
        rng = np.random.default_rng(36)
        for fp in random_family_params(rng, 20):
            V = embed_normal_form(family_cm_from_params(fp))
            ref = gaussian_discord_numeric(V)
            R = np.block([
                [np.eye(2), np.zeros((2, 2))],
                [np.zeros((2, 2)), rotation_matrix(rng.uniform(0, math.pi))],
            ])
            rep = gaussian_discord_numeric(R @ V @ R.T)
            assert rep.s_min_cond == pytest.approx(ref.s_min_cond, abs=1e-8)
            assert rep.discord == pytest.approx(ref.discord, abs=1e-8)


@pytest.mark.parametrize("frame", [False, True], ids=["normal-form", "local-frame"])
@pytest.mark.parametrize("with_diag", [False, True], ids=["validated-here", "diagnosis-passed"])
def test_state_is_read_once(monkeypatch, frame, with_diag):
    # validation and the route share one read of V through the checked gate
    V = WORKED
    if frame:
        S = local_symplectic(np.random.default_rng(37))
        V = S @ V @ S.T
        V = 0.5 * (V + V.T)
    diag = validate_bona_fide(V) if with_diag else None
    calls = []
    cm_rows = symplectic._cm_rows
    counted = lambda V: calls.append(V) or cm_rows(V)
    monkeypatch.setattr(symplectic, "_cm_rows", counted)
    monkeypatch.setattr(discord, "_cm_rows", counted)
    rep = gaussian_discord_numeric(V, diag)
    assert len(calls) == 1
    assert rep.discord == pytest.approx(0.950067264945, abs=1e-9)


def test_report_is_a_read_only_record():
    rep = gaussian_discord_numeric(WORKED)
    with pytest.raises(AttributeError):
        rep.discord = 0.0
    assert repr(rep) == (
        "DiscordReport(s_a=2.7548875021634687, s_b=1.3774437510817343, s_ab=2.427376486136672,"
        " i_ab=1.7049547671085312, s_min_cond=2.0000000000000004,"
        " classical_corr=0.7548875021634682, discord=0.950067264945063,"
        " method='numeric_scan', u_opt=1.0, phi_opt=0.0)")
    closed = gaussian_discord_closed_form(membership(NormalFormCM(5.0, 2.0, SQRT6, -SQRT6)))
    assert repr(closed).endswith("method='closed_form', u_opt=None, phi_opt=None)")
