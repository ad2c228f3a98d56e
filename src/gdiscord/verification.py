"""Acceptance checks runnable from both the CLI (`gdiscord verify`) and pytest.

Each check pins its own seed and tolerances and reports one pass/fail line.
The checks are intentionally redundant with independent oracles: closed
forms are compared against the numeric route, spectra against a generic
eigensolver, entropies against number-basis sums, and decompositions against
explicit matrix reconstructions.
"""

from __future__ import annotations

import hashlib
import math
import time
from typing import NamedTuple

from . import _numpy as np
from .channels import (
    CanonicalForm,
    GaussianChannelParams,
    apply_to_mode_A,
    classify,
    pathological_form_matrices,
)
from .discord import ROUTE_GAP_BOUND, conditional_entropy_measured, discord_routes
from .entropy import h, thermal_entropy_fock
from .errors import DomainError, GDiscordError
from .family import (
    FamilyParams,
    _eta_arrays,
    _tau_bounds_arrays,
    family_cm_from_params,
    membership,
    occupancy_grid,
    sample_family,
)
from .remote_prep import (
    GaussianMeasurement,
    condition_on_outcome,
    conditional_cm,
    conditional_mean_map,
    epr_squeezing_range,
)
from .samplecsv import sample_to_csv
from .symplectic import (
    NormalFormCM,
    bona_fide_normal_form_mask,
    embed_normal_form,
    epr_cm,
    squeezed_thermal_bound,
    symplectic_spectrum,
    symplectic_spectrum_eigen,
)

WORKED_DISCORD = 0.950067  # h(2) - h(1) - h(4) + h(3), rounded to 6 decimals
# the random states have local variances in [1, VMAX]
VMAX = 5.0
SWEEP_SEED = 20260809
ROUND_TRIP_SEED = 20260810
COVERAGE_SEED = 42
ORACLE_SEED = 20260811
REMOTE_PREP_SEED = 20260812
SAMPLER_SEED = 42


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: {self.detail} [{self.seconds:.1f}s]"


def _finish(name: str, passed: bool, detail: str, t0: float) -> CheckResult:
    return CheckResult(name, bool(passed), detail, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# random state generators


def random_squeezed_thermal(rng: np.random.Generator, n: int):
    """Arrays (a, b, c) of bona fide squeezed-thermal normal forms."""
    a = rng.uniform(1.0, VMAX, n)
    b = rng.uniform(1.0, VMAX, n)
    frac = rng.uniform(0.0, 1.0, n)
    sign = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
    bound = np.maximum(squeezed_thermal_bound(a, b), 0.0)
    c = sign * np.sqrt(frac * bound)
    return a, b, c

def random_normal_forms(rng: np.random.Generator, n: int):
    """Arrays (a, b, c, cp) of general bona fide normal forms (rejection)."""
    draws = np.empty((4, 0))
    while draws.shape[1] < n:
        need = n - draws.shape[1]
        m = max(2 * need, 128)
        a = rng.uniform(1.0, VMAX, m)
        b = rng.uniform(1.0, VMAX, m)
        half = np.sqrt(np.maximum(squeezed_thermal_bound(a, b), 0.0))
        c = rng.uniform(-1.0, 1.0, m) * half
        cp = rng.uniform(-1.0, 1.0, m) * half
        accepted = np.array([a, b, c, cp])[:, bona_fide_normal_form_mask(a, b, c, cp)]
        draws = np.concatenate([draws, accepted[:, :need]], axis=1)
    return tuple(draws)


def random_family_params(rng: np.random.Generator, n: int):
    """List of random decomposition witnesses drawn over the full domain.

    Per witness, five uniforms of one row-major block: b, a, r on [1/b, b],
    tau on its bounds at (a, b, r) and the sign coin; eta is the noise that
    gives local variance a (:func:`family.eta_from_a`), floored at |1 - tau|.
    """
    u_b, u_a, u_r, u_tau, coin = rng.random((n, 5)).T
    b = (1.0 + 1e-6) + (VMAX - (1.0 + 1e-6)) * u_b
    a = 1.0 + (VMAX - 1.0) * u_a
    r = 1.0 / b + (b - 1.0 / b) * u_r
    t_lo, t_hi = _tau_bounds_arrays(a, b, r)
    tau = t_lo + (t_hi - t_lo) * u_tau
    eta = _eta_arrays(a, r, tau, b, np.sqrt)
    if np.any(eta < -1e-12 * np.maximum(1.0, a)):
        raise DomainError("|tau| exceeds a/b in a witness; no nonnegative noise exists")
    eta = np.maximum(eta, np.abs(1.0 - tau))  # the floor >= 0 also does eta_from_a's clamp to 0
    sign = np.where(coin < 0.5, 1, -1)
    return list(map(FamilyParams, b.tolist(), r.tolist(), tau.tolist(), eta.tolist(), sign.tolist()))


def random_local_frames(rng: np.random.Generator, n: int):
    """(n, 4, 4) stack of ``squeezer_matrix(U[0.5, 2]) @ rotation_matrix(U[0, pi])`` on each mode.

    Drawn squeeze then angle, mode A then mode B, and each entry computed as
    in that product.
    """
    u = rng.random((n, 2, 2))
    s = np.sqrt(0.5 + 1.5 * u[..., 0])
    cos, sin = np.cos(math.pi * u[..., 1]), np.sin(math.pi * u[..., 1])
    blocks = np.stack([s * cos, s * -sin, (1.0 / s) * sin, (1.0 / s) * cos], axis=-1).reshape(n, 2, 2, 2)
    frames = np.zeros((n, 4, 4))
    frames[:, :2, :2], frames[:, 2:, 2:] = blocks[:, 0], blocks[:, 1]
    return frames


# ---------------------------------------------------------------------------
# criteria 1 and 2 share one sweep over the same random states


def discord_sweep(n: int = 1000) -> tuple[CheckResult, CheckResult]:
    t0 = time.perf_counter()
    rng = np.random.default_rng(SWEEP_SEED)
    a, b, c = random_squeezed_thermal(rng, n)
    heterodyne = GaussianMeasurement.heterodyne()
    max_dd = 0.0
    max_smin_err = 0.0
    max_het_gap = -math.inf
    for i in range(n):
        V = embed_normal_form(NormalFormCM(a[i], b[i], c[i], -c[i]))
        numeric, closed, gap = discord_routes(V)
        max_dd = max(max_dd, gap)
        # the closed form's S_min is the channel's minimum output entropy h(tau + eta)
        max_smin_err = max(max_smin_err, abs(numeric.s_min_cond - closed.s_min_cond))
        het = conditional_entropy_measured(V, heterodyne)
        max_het_gap = max(max_het_gap, het - numeric.s_min_cond)
    elapsed = time.perf_counter() - t0

    ok1 = max_dd <= ROUTE_GAP_BOUND and elapsed <= 60.0
    res1 = CheckResult(
        "1-closed-vs-numeric-agreement",
        ok1,
        f"{n} squeezed-thermal states, max |D_closed - D_numeric| = {max_dd:.3e}"
        f" (limit {ROUTE_GAP_BOUND:g}), runtime {elapsed:.1f}s (limit 60s)",
        elapsed,
    )
    ok2 = max_smin_err <= 1e-6 and max_het_gap <= 1e-8
    res2 = CheckResult(
        "2-heterodyne-optimality",
        ok2,
        f"max |S_min - h(tau+eta)| = {max_smin_err:.3e} (limit 1e-06), "
        f"max S(u=1) - S_min = {max_het_gap:.3e} (limit 1e-08)",
        elapsed,
    )
    return res1, res2


def check_worked_number() -> CheckResult:
    t0 = time.perf_counter()
    c = math.sqrt(6.0)
    numeric, closed, _ = discord_routes(embed_normal_form(NormalFormCM(5.0, 2.0, c, -c)))
    err_c = abs(closed.discord - WORKED_DISCORD)
    err_n = abs(numeric.discord - WORKED_DISCORD)
    ok = err_c <= 1e-6 and err_n <= 1e-6
    return _finish(
        "3-worked-number",
        ok,
        f"V(5,2,sqrt6,-sqrt6): closed {closed.discord:.9f}, numeric {numeric.discord:.9f}, "
        f"target {WORKED_DISCORD} +- 1e-06",
        t0,
    )


def check_decomposition_round_trips(n: int = 10_000) -> CheckResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(ROUND_TRIP_SEED)

    a, b, c = random_squeezed_thermal(rng, n)
    max_err_st = 0.0
    for i in range(n):
        nf = NormalFormCM(a[i], b[i], c[i], -c[i])
        fp = membership(nf)
        rebuilt = apply_to_mode_A(fp.channel, epr_cm(b[i], fp.sign))
        target = embed_normal_form(nf)
        max_err_st = max(max_err_st, float(np.max(np.abs(rebuilt - target))))

    max_err_fam = 0.0
    failures = 0
    for fp in random_family_params(rng, n):
        nf1 = family_cm_from_params(fp)
        try:
            fp2 = membership(nf1)
        except GDiscordError:
            failures += 1
            continue
        nf2 = family_cm_from_params(fp2)
        max_err_fam = max(max_err_fam, *(abs(x - y) for x, y in zip(nf1, nf2)))

    ok = max_err_st <= 1e-9 and max_err_fam <= 1e-9 and failures == 0
    return _finish(
        "4-decomposition-round-trips",
        ok,
        f"{n} squeezed-thermal rebuilds, max CM error {max_err_st:.3e}; "
        f"{n} family forward/inverse trips, max CM error {max_err_fam:.3e}, "
        f"{failures} membership failures (limits 1e-09, 0)",
        t0,
    )


def _coverage_panel(a: float, b: float, n: int) -> tuple[dict, bool]:
    sample = sample_family(a, b, n, COVERAGE_SEED)
    bona = bona_fide_normal_form_mask(a, b, sample.c, sample.cp)
    all_bona = bool(np.all(bona))

    # distance of sampled points to the two bisectors, with a magnitude floor
    mag = np.abs(sample.c) >= 0.5
    d_anti = np.abs(sample.c + sample.cp)[mag] / math.sqrt(2.0)
    d_main = np.abs(sample.c - sample.cp)[mag] / math.sqrt(2.0)
    info = occupancy_grid(sample, bins=200)
    info["_bisector_main"] = float(d_main.min()) if d_main.size else math.inf
    info["_bisector_anti"] = float(d_anti.min()) if d_anti.size else math.inf
    return info, all_bona


def check_family_coverage(n: int = 500_000) -> CheckResult:
    t0 = time.perf_counter()
    panel22, bona22 = _coverage_panel(2.0, 2.0, n)
    panel24, bona24 = _coverage_panel(2.0, 4.0, n)
    bis = [panel22["_bisector_main"], panel22["_bisector_anti"],
           panel24["_bisector_main"], panel24["_bisector_anti"]]
    frac22 = panel22["coverage_fraction"]
    frac24 = panel24["coverage_fraction"]
    ok = (
        bona22 and bona24
        and max(bis) <= 1e-3
        and frac24 > frac22
    )
    return _finish(
        "5-family-coverage",
        ok,
        f"{n} points per panel: all bona fide = {bona22 and bona24}; "
        f"worst bisector distance {max(bis):.2e} (limit 1e-03); "
        f"coverage (a=2,b=2) {frac22:.4f} < (a=2,b=4) {frac24:.4f}",
        t0,
    )


def check_entropy_oracles(n: int = 10_000) -> CheckResult:
    """h against its number-basis sum, and the closed-form spectrum against the eigensolver.

    The spectra are those of ``n`` random normal forms, each under a frame of
    :func:`random_local_frames`; the eigensolver reads the stack in one call.
    """
    t0 = time.perf_counter()
    xs = [1.0, 1.5, 2.0, 3.0, 5.0, 10.0]
    max_h_err = max(abs(h(x) - thermal_entropy_fock(x)) for x in xs)

    rng = np.random.default_rng(ORACLE_SEED)
    a, b, c, cp = random_normal_forms(rng, n)
    zero = np.zeros(n)
    V = np.stack([a, zero, c, zero, zero, a, zero, cp, c, zero, b, zero, zero, cp, zero, b], axis=-1)
    # each CM under a random local symplectic, S V S^T
    S = random_local_frames(rng, n)
    W = S @ V.reshape(n, 4, 4) @ S.transpose(0, 2, 1)
    max_nu_err = 0.0
    for Wi, nu_minus, nu_plus in zip(W, *symplectic_spectrum_eigen(W)):
        closed = symplectic_spectrum(Wi)
        max_nu_err = max(max_nu_err, abs(closed.nu_minus - nu_minus), abs(closed.nu_plus - nu_plus))
    ok = max_h_err <= 1e-9 and max_nu_err <= 1e-9
    return _finish(
        "6-entropy-oracles",
        ok,
        f"max |h - Fock sum| = {max_h_err:.3e} over {xs}; "
        f"max spectrum deviation vs eigensolver = {max_nu_err:.3e} on {n} CMs "
        f"(limits 1e-09)",
        t0,
    )


def check_remote_prep_identities(n: int = 2_000) -> CheckResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(REMOTE_PREP_SEED)

    # law of total variance: A = V_cond + L (B + V0) L^T
    a, b, c, cp = random_normal_forms(rng, n)
    max_ltv = 0.0
    for i in range(n):
        V = embed_normal_form(NormalFormCM(a[i], b[i], c[i], cp[i]))
        m = GaussianMeasurement(10.0 ** rng.uniform(-2, 2), rng.uniform(0, math.pi))
        L = conditional_mean_map(V, m)
        reconstructed = conditional_cm(V, m) + L @ (V[2:, 2:] + m.seed_cm()) @ L.T
        err = float(np.max(np.abs(reconstructed - V[:2, :2])))
        max_ltv = max(max_ltv, err / max(1.0, a[i]))

    # EPR + heterodyne: conditional means are modulated with covariance (mu-1) I
    max_mod = 0.0
    for mu in (1.0, 1.5, 2.0, 5.0, 10.0):
        V = epr_cm(mu)
        L = conditional_mean_map(V, GaussianMeasurement.heterodyne())
        cov = L @ ((mu + 1.0) * np.eye(2)) @ L.T
        max_mod = max(max_mod, float(np.max(np.abs(cov - (mu - 1.0) * np.eye(2)))))

    # homodyne limits prepare squeezing exactly mu that the u=0 and u=inf
    # code paths return exactly, with the conditioned CM matching diag(r, 1/r)
    endpoints_exact = all(
        epr_squeezing_range(mu, 0.0) == 1.0 / mu and epr_squeezing_range(mu, math.inf) == mu
        for mu in (2.0, 3.0, 5.0)
    )
    max_end = 0.0
    for mu in (2.0, 3.0, 5.0):
        V = epr_cm(mu)
        cm_q = condition_on_outcome(V, None, GaussianMeasurement.homodyne_q(), [0, 0]).cm
        cm_p = condition_on_outcome(V, None, GaussianMeasurement.homodyne_p(), [0, 0]).cm
        max_end = max(
            max_end,
            float(np.max(np.abs(cm_q - np.diag([1.0 / mu, mu])))),
            float(np.max(np.abs(cm_p - np.diag([mu, 1.0 / mu])))),
        )

    ok = (
        max_ltv <= 1e-12
        and max_mod <= 1e-12
        and endpoints_exact
        and max_end <= 1e-12
    )
    return _finish(
        "7-remote-prep-identities",
        ok,
        f"total-variance max error {max_ltv:.3e} (limit 1e-12); "
        f"coherent-prep modulation max error {max_mod:.3e} (limit 1e-12); "
        f"squeezing endpoints exact = {endpoints_exact}, homodyne CM error "
        f"{max_end:.3e} (limit 1e-12)",
        t0,
    )


def check_channel_classification() -> CheckResult:
    t0 = time.perf_counter()
    table = [
        (0.0, 2.0, CanonicalForm.A1, 2.0),
        (0.5, 0.6, CanonicalForm.C_LOSSY, 1.2),
        (0.5, 0.5, CanonicalForm.C_LOSSY, 1.0),   # quantum-limited boundary
        (1.0, 0.0, CanonicalForm.B2_IDENTITY, None),
        (1.0, 0.7, CanonicalForm.B2_ADDITIVE, None),
        (2.0, 1.0, CanonicalForm.C_AMPLIFIER, 1.0),
        (-1.0, 2.0, CanonicalForm.D, 1.0),
    ]
    problems = []
    for tau, eta, label, omega in table:
        try:
            cc = classify(GaussianChannelParams(tau, eta))
        except GDiscordError as exc:
            problems.append(f"({tau},{eta}) raised {exc}")
            continue
        if cc.label != label:
            problems.append(f"({tau},{eta}) -> {cc.label.value}, expected {label.value}")
        if omega is not None and (cc.omega is None or abs(cc.omega - omega) > 1e-12):
            problems.append(f"({tau},{eta}) omega {cc.omega}, expected {omega}")

    K, N = pathological_form_matrices(CanonicalForm.A2, n_bar=0.0)
    if not (np.array_equal(K, np.diag([1.0, 0.0])) and np.array_equal(N, np.eye(2))):
        problems.append("A2 matrices wrong")
    K, N = pathological_form_matrices(CanonicalForm.A2, n_bar=1.0)
    if not np.array_equal(N, 3.0 * np.eye(2)):
        problems.append("A2 noise at n_bar=1 wrong")
    K, N = pathological_form_matrices(CanonicalForm.B1)
    if not (np.array_equal(K, np.eye(2)) and np.array_equal(N, np.diag([0.0, 1.0]))):
        problems.append("B1 matrices wrong")

    ok = not problems
    return _finish(
        "8-channel-classification",
        ok,
        "7-row label table plus A2/B1 matrices all correct"
        if ok else "; ".join(problems),
        t0,
    )


def check_sampler_determinism(n: int = 200_000) -> CheckResult:
    t0 = time.perf_counter()
    csv_a = sample_to_csv(sample_family(2.0, 2.0, n, SAMPLER_SEED, threads=1))
    csv_b = sample_to_csv(sample_family(2.0, 2.0, n, SAMPLER_SEED, threads=1))
    csv_c = sample_to_csv(sample_family(2.0, 2.0, n, SAMPLER_SEED, threads=4))
    same = csv_a == csv_b == csv_c
    digest = hashlib.sha256(csv_a.encode()).hexdigest()[:16]
    return _finish(
        "9-sampler-determinism",
        same,
        f"{n} rows, seed {SAMPLER_SEED}: repeat run and 4-thread run byte-identical = {same} "
        f"(sha256 {digest})",
        t0,
    )


def run_all(quick: bool = False) -> list[CheckResult]:
    """Run every acceptance check; `quick` shrinks sample counts ~10x."""
    scale = 10 if quick else 1
    res1, res2 = discord_sweep(n=max(1000 // scale, 50))
    results = [res1, res2, check_worked_number()]
    results.append(check_decomposition_round_trips(n=max(10_000 // scale, 200)))
    results.append(check_family_coverage(n=max(500_000 // scale, 20_000)))
    results.append(check_entropy_oracles(n=max(10_000 // scale, 500)))
    results.append(check_remote_prep_identities(n=max(2_000 // scale, 200)))
    results.append(check_channel_classification())
    results.append(check_sampler_determinism(n=max(200_000 // scale, 10_000)))
    return results
