"""Acceptance checks runnable from both the CLI (`gdiscord verify`) and pytest.

Each check pins its own seed and tolerances and reports one pass/fail line.
The checks are intentionally redundant with independent oracles: closed
forms are compared against numerical scans, spectra against a generic
eigensolver, entropies against number-basis sums, and decompositions against
explicit matrix reconstructions.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass

import numpy as np

from .channels import (
    CanonicalForm,
    GaussianChannelParams,
    apply_to_mode_A,
    classify,
    pathological_form_matrices,
)
from .discord import (
    conditional_entropy_measured,
    gaussian_discord_closed_form,
    gaussian_discord_numeric,
)
from .entropy import h, thermal_entropy_fock
from .errors import GDiscordError
from .family import (
    FamilyParams,
    decompose_squeezed_thermal,
    eta_from_a,
    family_cm_from_params,
    membership,
    occupancy_grid,
    sample_family,
    tau_bounds,
)
from .remote_prep import (
    GaussianMeasurement,
    condition_on_outcome,
    conditional_cm,
    conditional_mean_map,
    epr_squeezing_range,
)
from .serialize import sample_to_csv
from .symplectic import (
    NormalFormCM,
    bona_fide_normal_form_mask,
    block_a,
    block_b,
    embed_normal_form,
    epr_cm,
    rotation_matrix,
    squeezed_thermal_bound,
    squeezer_matrix,
    symplectic_spectrum,
    symplectic_spectrum_eigen,
)

WORKED_DISCORD = 0.950067  # h(2) - h(1) - h(4) + h(3), rounded to 6 decimals


@dataclass
class CheckResult:
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


def random_squeezed_thermal(rng: np.random.Generator, n: int, vmax: float = 5.0):
    """Arrays (a, b, c) of bona fide squeezed-thermal normal forms."""
    a = rng.uniform(1.0, vmax, n)
    b = rng.uniform(1.0, vmax, n)
    frac = rng.uniform(0.0, 1.0, n)
    sign = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
    bound = np.maximum(squeezed_thermal_bound(a, b), 0.0)
    c = sign * np.sqrt(frac * bound)
    return a, b, c

def random_normal_forms(rng: np.random.Generator, n: int, vmax: float = 5.0):
    """Arrays (a, b, c, cp) of general bona fide normal forms (rejection)."""
    out_a = np.empty(n)
    out_b = np.empty(n)
    out_c = np.empty(n)
    out_cp = np.empty(n)
    filled = 0
    while filled < n:
        m = max(2 * (n - filled), 128)
        a = rng.uniform(1.0, vmax, m)
        b = rng.uniform(1.0, vmax, m)
        half = np.sqrt(np.maximum(squeezed_thermal_bound(a, b), 0.0))
        c = rng.uniform(-1.0, 1.0, m) * half
        cp = rng.uniform(-1.0, 1.0, m) * half
        ok = bona_fide_normal_form_mask(a, b, c, cp)
        take = min(int(ok.sum()), n - filled)
        idx = np.nonzero(ok)[0][:take]
        sl = slice(filled, filled + take)
        out_a[sl], out_b[sl] = a[idx], b[idx]
        out_c[sl], out_cp[sl] = c[idx], cp[idx]
        filled += take
    return out_a, out_b, out_c, out_cp


def random_family_params(rng: np.random.Generator, n: int, b_max: float = 5.0):
    """List of random decomposition witnesses drawn over the full domain."""
    params = []
    while len(params) < n:
        b = rng.uniform(1.0 + 1e-6, b_max)
        a = rng.uniform(1.0, b_max)
        r = rng.uniform(1.0 / b, b)
        t_lo, t_hi = tau_bounds(a, b, r)
        tau = rng.uniform(t_lo, t_hi)
        eta = eta_from_a(a, r, tau, b)
        eta = max(eta, abs(1.0 - tau))
        sign = 1 if rng.uniform() < 0.5 else -1
        params.append(FamilyParams(b=b, r=r, tau=tau, eta=eta, sign=sign))
    return params


# ---------------------------------------------------------------------------
# criteria 1 and 2 share one sweep over the same random states


def discord_sweep(n: int = 1000, seed: int = 20260809) -> tuple[CheckResult, CheckResult]:
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    a, b, c = random_squeezed_thermal(rng, n)
    heterodyne = GaussianMeasurement.heterodyne()
    max_dd = 0.0
    max_smin_err = 0.0
    max_het_gap = -math.inf
    for i in range(n):
        channel = decompose_squeezed_thermal(a[i], b[i], c[i])
        sign = 1 if c[i] >= 0 else -1
        fp = FamilyParams(b=b[i], r=1.0, tau=channel.tau, eta=channel.eta, sign=sign)
        closed = gaussian_discord_closed_form(fp)
        V = embed_normal_form(NormalFormCM(a[i], b[i], c[i], -c[i]))
        numeric = gaussian_discord_numeric(V)
        max_dd = max(max_dd, abs(closed.discord - numeric.discord))
        target = h(channel.tau + channel.eta)
        max_smin_err = max(max_smin_err, abs(numeric.s_min_cond - target))
        het = conditional_entropy_measured(V, heterodyne)
        max_het_gap = max(max_het_gap, het - numeric.s_min_cond)
    elapsed = time.perf_counter() - t0

    ok1 = max_dd <= 1e-6 and elapsed <= 60.0
    res1 = CheckResult(
        "1-closed-vs-numeric-agreement",
        ok1,
        f"{n} squeezed-thermal states, max |D_closed - D_numeric| = {max_dd:.3e}"
        f" (limit 1e-06), runtime {elapsed:.1f}s (limit 60s)",
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
    nf = NormalFormCM(5.0, 2.0, c, -c)
    V = embed_normal_form(nf)
    fp = membership(nf)
    closed = gaussian_discord_closed_form(fp).discord
    numeric = gaussian_discord_numeric(V).discord
    err_c = abs(closed - WORKED_DISCORD)
    err_n = abs(numeric - WORKED_DISCORD)
    ok = err_c <= 1e-6 and err_n <= 1e-6
    return _finish(
        "3-worked-number",
        ok,
        f"V(5,2,sqrt6,-sqrt6): closed {closed:.9f}, numeric {numeric:.9f}, "
        f"target {WORKED_DISCORD} +- 1e-06",
        t0,
    )


def check_decomposition_round_trips(n: int = 10_000, seed: int = 20260810) -> CheckResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)

    a, b, c = random_squeezed_thermal(rng, n)
    max_err_st = 0.0
    for i in range(n):
        channel = decompose_squeezed_thermal(a[i], b[i], c[i])
        sign = 1 if c[i] >= 0 else -1
        rebuilt = apply_to_mode_A(channel, epr_cm(b[i], sign))
        target = embed_normal_form(NormalFormCM(a[i], b[i], c[i], -c[i]))
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
        err = float(np.max(np.abs(embed_normal_form(nf1) - embed_normal_form(nf2))))
        max_err_fam = max(max_err_fam, err)

    ok = max_err_st <= 1e-9 and max_err_fam <= 1e-9 and failures == 0
    return _finish(
        "4-decomposition-round-trips",
        ok,
        f"{n} squeezed-thermal rebuilds, max CM error {max_err_st:.3e}; "
        f"{n} family forward/inverse trips, max CM error {max_err_fam:.3e}, "
        f"{failures} membership failures (limits 1e-09, 0)",
        t0,
    )


def _coverage_panel(a: float, b: float, n: int, seed: int) -> tuple[dict, bool]:
    sample = sample_family(a, b, n, seed)
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


def check_family_coverage(n: int = 500_000, seed: int = 42) -> CheckResult:
    t0 = time.perf_counter()
    panel22, bona22 = _coverage_panel(2.0, 2.0, n, seed)
    panel24, bona24 = _coverage_panel(2.0, 4.0, n, seed)
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


def check_entropy_oracles(n: int = 10_000, seed: int = 20260811) -> CheckResult:
    t0 = time.perf_counter()
    xs = [1.0, 1.5, 2.0, 3.0, 5.0, 10.0]
    max_h_err = max(abs(h(x) - thermal_entropy_fock(x)) for x in xs)

    rng = np.random.default_rng(seed)
    a, b, c, cp = random_normal_forms(rng, n)
    max_nu_err = 0.0
    mats = np.empty((n, 4, 4))
    for i in range(n):
        V = embed_normal_form(NormalFormCM(a[i], b[i], c[i], cp[i]))
        # random local symplectic: rotations and squeezers on each mode
        s1 = squeezer_matrix(rng.uniform(0.5, 2.0)) @ rotation_matrix(rng.uniform(0, math.pi))
        s2 = squeezer_matrix(rng.uniform(0.5, 2.0)) @ rotation_matrix(rng.uniform(0, math.pi))
        S = np.block([[s1, np.zeros((2, 2))], [np.zeros((2, 2)), s2]])
        mats[i] = S @ V @ S.T
    for i in range(n):
        closed = symplectic_spectrum(mats[i])
        oracle = symplectic_spectrum_eigen(mats[i])
        max_nu_err = max(
            max_nu_err,
            abs(closed.nu_minus - oracle.nu_minus),
            abs(closed.nu_plus - oracle.nu_plus),
        )
    ok = max_h_err <= 1e-9 and max_nu_err <= 1e-9
    return _finish(
        "6-entropy-oracles",
        ok,
        f"max |h - Fock sum| = {max_h_err:.3e} over {xs}; "
        f"max spectrum deviation vs eigensolver = {max_nu_err:.3e} on {n} CMs "
        f"(limits 1e-09)",
        t0,
    )


def check_remote_prep_identities(n: int = 2_000, seed: int = 20260812) -> CheckResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)

    # law of total variance: A = V_cond + L (B + V0) L^T
    a, b, c, cp = random_normal_forms(rng, n)
    max_ltv = 0.0
    for i in range(n):
        V = embed_normal_form(NormalFormCM(a[i], b[i], c[i], cp[i]))
        m = GaussianMeasurement(10.0 ** rng.uniform(-2, 2), rng.uniform(0, math.pi))
        L = conditional_mean_map(V, m)
        reconstructed = conditional_cm(V, m) + L @ (block_b(V) + m.seed_cm()) @ L.T
        err = float(np.max(np.abs(reconstructed - block_a(V))))
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


def check_sampler_determinism(n: int = 200_000, seed: int = 42) -> CheckResult:
    t0 = time.perf_counter()
    csv_a = sample_to_csv(sample_family(2.0, 2.0, n, seed, threads=1))
    csv_b = sample_to_csv(sample_family(2.0, 2.0, n, seed, threads=1))
    csv_c = sample_to_csv(sample_family(2.0, 2.0, n, seed, threads=4))
    same = csv_a == csv_b == csv_c
    digest = hashlib.sha256(csv_a.encode()).hexdigest()[:16]
    return _finish(
        "9-sampler-determinism",
        same,
        f"{n} rows, seed {seed}: repeat run and 4-thread run byte-identical = {same} "
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
