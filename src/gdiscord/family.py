"""Decomposition of two-mode Gaussian states into EPR-plus-local-channel form.

Every squeezed thermal state V(a, b, c, -c) equals an EPR state of variance
``b`` sent through a phase-insensitive channel on mode A, with

    tau = c^2 / (b^2 - 1),    eta = a - tau * b.

The general family adds input/output squeezers around an extended channel
(negative transmissivities allowed).  With ``theta(r) = sqrt(eta*r + |tau|*b)``
its normal form is

    a  = theta(r) * theta(1/r),
    c  = +- sqrt(|tau| (b^2 - 1) theta(1/r) / theta(r)),
    cp = -+ sign(tau) sqrt(|tau| (b^2 - 1) theta(r) / theta(1/r)),

for ``r in [1/b, b]``; the overall sign is set by the EPR correlation type.
Useful identities: ``c * cp = -sign(tau) |tau| (b^2 - 1)`` and
``|c/cp| = theta(1/r)/theta(r) = a / theta(r)^2``, which is strictly
decreasing in ``r`` whenever ``eta > 0``.

At fixed (a, b) the map inverts exactly.  With ``rho = |c/cp|``,
``theta(r)^2 = a/rho`` and ``theta(1/r)^2 = a*rho``, so

    eta * r = a/rho - |tau| b,    eta / r = a*rho - |tau| b,

    r = sqrt((a/rho - |tau| b) / (a*rho - |tau| b)),
    eta = sqrt((a/rho - |tau| b) (a*rho - |tau| b)),

with ``|tau| = |c*cp| / (b^2 - 1)``; :func:`membership` uses these.

Holding ``a`` fixed and choosing ``r`` instead inverts to

    eta = [sqrt(4 a^2 r^2 + (r^2-1)^2 tau^2 b^2) - (1+r^2) |tau| b] / (2r),

which is nonnegative iff ``|tau| <= a/b``, and the physicality constraint
``eta >= |1 - tau|`` confines ``tau`` to an interval [tau_min, tau_max]
implemented here in a cancellation-free rationalized form.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channels import GaussianChannelParams
from .errors import (
    DomainError,
    NotSqueezedThermalForm,
    NumericalFailure,
    OutOfFamily,
)
from .symplectic import BONA_FIDE_TOL, NormalFormCM, bona_fide_normal_form_mask

_R_DOMAIN_TOL = 1e-12
# Points per independently seeded sampler chunk; fixed so that output is
# byte-identical regardless of how many threads compute the chunks.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class FamilyParams:
    """Witness of an EPR-plus-channel decomposition.

    ``b`` is the EPR variance (equal to the B-block variance of the output),
    ``r`` the input anti-squeezing, ``(tau, eta)`` the extended channel and
    ``sign`` the EPR correlation type.  The output squeezing ``xi`` is
    derived, never stored.
    """

    b: float
    r: float
    tau: float
    eta: float
    sign: int = 1

    def __post_init__(self):
        if self.b < 1.0 - 1e-12:
            raise DomainError(f"EPR variance must be >= 1, got {self.b}")
        lo, hi = 1.0 / self.b, self.b
        if not (lo - _R_DOMAIN_TOL <= self.r <= hi + _R_DOMAIN_TOL):
            raise DomainError(
                f"input squeezing r = {self.r} outside [1/b, b] = [{lo}, {hi}]"
            )
        if self.sign not in (1, -1):
            raise DomainError(f"EPR sign must be +1 or -1, got {self.sign}")
        self.channel  # validates eta >= |1 - tau|

    @property
    def channel(self) -> GaussianChannelParams:
        return GaussianChannelParams(self.tau, self.eta)

    @property
    def xi(self) -> float:
        """Output squeezing that brings the state back to normal form."""
        return self.r * _theta(1.0 / self.r, self.tau, self.eta, self.b) / _theta(
            self.r, self.tau, self.eta, self.b
        )


def _theta(r: float, tau: float, eta: float, b: float) -> float:
    return math.sqrt(eta * r + abs(tau) * b)


def squeezed_thermal_bound(a: float, b: float) -> float:
    """Largest c^2 compatible with a squeezed thermal state V(a, b, c, -c)."""
    return a * b - 1.0 - abs(a - b)


def decompose_squeezed_thermal(a: float, b: float, c: float) -> GaussianChannelParams:
    """Channel (tau, eta) realizing V(a, b, c, -c) from an EPR state of variance b.

    Inverts ``a = tau*b + eta``, ``c^2 = tau*(b^2 - 1)``.  The EPR
    correlation sign follows sign(c) and is not part of the channel.
    """
    if a < 1.0 - 1e-12 or b < 1.0 - 1e-12:
        raise NotSqueezedThermalForm(f"local variances must be >= 1, got a={a}, b={b}")
    if c == 0.0:
        return GaussianChannelParams(0.0, a)
    if b <= 1.0:
        raise DomainError("b = 1 admits no correlations (c must vanish)")
    c2 = c * c
    bound = squeezed_thermal_bound(a, b)
    if c2 > bound + 1e-9 * max(1.0, bound):
        raise NotSqueezedThermalForm(
            f"c^2 = {c2:.12g} exceeds the physical bound ab - 1 - |a - b| = {bound:.12g}"
        )
    tau = c2 / (b * b - 1.0)
    eta = a - tau * b
    # The bound check above tolerates boundary states that pass the
    # uncertainty validator only within its tolerance; their noise deficit is
    # slack-level, so snap onto the quantum-limited line instead of failing.
    floor = abs(1.0 - tau)
    if eta < floor:
        if eta < floor - 1e-6 * max(1.0, a):
            raise NotSqueezedThermalForm(
                f"state requires unphysical channel noise eta = {eta:.12g} < |1-tau| = {floor:.12g}"
            )
        eta = floor
    return GaussianChannelParams(tau, eta)


def family_cm_from_params(fp: FamilyParams) -> NormalFormCM:
    """Normal form (a, b, c, cp) generated by a decomposition witness.

    ``a`` is taken from theta(r)^2, so that pure outputs (eta = 0, where
    theta(r) = theta(1/r)) stay exactly degenerate.
    """
    tb = abs(fp.tau) * fp.b
    a = math.sqrt((fp.eta * fp.r + tb) * (fp.eta / fp.r + tb))
    c, cp = _correlation_arrays(fp.b, fp.r, fp.tau, fp.eta, fp.sign, math.sqrt)
    return NormalFormCM(a=a, b=fp.b, c=c, cp=cp)


def _correlation_arrays(b, r, tau, eta, sign, sqrt=np.sqrt):
    """(c, cp) of the family normal form; arrays, or floats with ``sqrt=math.sqrt``."""
    tb = abs(tau) * b
    th_r, th_ri = sqrt(eta * r + tb), sqrt(eta / r + tb)
    amp = abs(tau) * (b * b - 1.0)
    sign_tau = 2.0 * (tau >= 0.0) - 1.0  # +-1, with tau = 0 counted positive
    return sign * sqrt(amp * th_ri / th_r), -sign * sign_tau * sqrt(amp * th_r / th_ri)


def eta_from_a(a: float, r: float, tau: float, b: float) -> float:
    """Channel noise that makes the family produce local variance ``a``.

    Solves ``theta(r) * theta(1/r) = a`` for eta; raises DomainError when the
    requested |tau| > a/b would force negative noise.
    """
    if a < 1.0 - 1e-12 or b < 1.0 - 1e-12:
        raise DomainError(f"local variances must be >= 1, got a={a}, b={b}")
    _check_r(r, b)
    eta = _eta_arrays(a, r, tau, b, math.sqrt)
    if eta < 0.0:
        if eta < -1e-12 * max(1.0, a):
            raise DomainError(
                f"|tau| = {abs(tau)} exceeds a/b = {a / b}; no nonnegative noise exists"
            )
        eta = 0.0
    return eta


def _eta_arrays(a, r, tau, b, sqrt=np.sqrt):
    """Unclamped :func:`eta_from_a`; arrays, or floats with ``sqrt=math.sqrt``."""
    tb = abs(tau) * b
    root = sqrt(4.0 * a * a * r * r + (r * r - 1.0) ** 2 * tau * tau * b * b)
    return (root - (1.0 + r * r) * tb) / (2.0 * r)


def _check_r(r: float, b: float) -> None:
    lo, hi = 1.0 / b, b
    if not (lo - _R_DOMAIN_TOL <= r <= hi + _R_DOMAIN_TOL):
        raise DomainError(f"r = {r} outside [1/b, b] = [{lo}, {hi}]")


def tau_bounds(a: float, b: float, r: float) -> tuple[float, float]:
    """Transmissivity interval on which ``eta_from_a(a, r, tau, b) >= |1-tau|``.

    Validating scalar form of :func:`_tau_bounds_arrays`.
    """
    if a < 1.0 - 1e-12 or b < 1.0 - 1e-12:
        raise DomainError(f"local variances must be >= 1, got a={a}, b={b}")
    _check_r(r, b)
    if b <= 1.0 and a <= 1.0:
        # both modes at the vacuum limit: product states only
        return (0.0, 0.0)
    tau_min, tau_max = _tau_bounds_arrays(a, b, r)
    return (float(tau_min), float(tau_max))


def _tau_bounds_arrays(a: float, b: float, r) -> tuple[np.ndarray, np.ndarray]:
    """tau_bounds for fixed (a, b) at every r; assumes b > 1 or a > 1.

    Rationalized closed forms (no subtractive cancellation at the domain
    endpoints r = 1/b, r = b, where the textbook expressions become 0/0):

        tau_min = -2 r (a^2 - 1) / (p+ + sqrt(q + 4 a^2 r g+)),
        tau_max =  2 r (a^2 - 1) / (p- + sqrt(q - 4 a^2 r g-))   for a <= b,
        tau_max = (p+ + sqrt(q + 4 a^2 r g+)) / (2 g+)           for a >= b,

    with g+- = (r +- b)(r b +- 1), q = (r^2-1)^2 b^2 and
    p+- = b (1 + r^2) +- 2 r.  A radicand below zero by more than rounding
    means r lies outside [1/b, b] and raises NumericalFailure.
    """
    r = np.asarray(r, float)
    q = (r * r - 1.0) ** 2 * b * b
    g_plus = (r + b) * (r * b + 1.0)
    p_plus = b * (1.0 + r * r) + 2.0 * r
    root_plus = np.sqrt(q + 4.0 * a * a * r * g_plus)
    tau_min = -2.0 * r * (a * a - 1.0) / (p_plus + root_plus)
    if a <= b:
        g_minus = (r - b) * (r * b - 1.0)
        p_minus = b * (1.0 + r * r) - 2.0 * r
        rad = q - 4.0 * a * a * r * g_minus
        if np.any(rad < -1e-9 * np.maximum(1.0, q)):
            raise NumericalFailure(
                f"negative radicand {np.min(rad)} in tau_max; r outside its domain?"
            )
        tau_max = 2.0 * r * (a * a - 1.0) / (p_minus + np.sqrt(np.maximum(rad, 0.0)))
    else:
        tau_max = (p_plus + root_plus) / (2.0 * g_plus)
    return tau_min, tau_max


class FamilySample:
    """Columnar batch of sampled family states at fixed (a, b).

    Row ``i`` of the columns (r, tau, eta, sign) is a decomposition witness
    (with ``b``) of the sampled correlation pair (c[i], cp[i]).
    """

    def __init__(self, a, b, n, seed, c, cp, r, tau, eta, sign, redraws):
        self.a = float(a)
        self.b = float(b)
        self.n = int(n)
        self.seed = int(seed)
        self.c = c
        self.cp = cp
        self.r = r
        self.tau = tau
        self.eta = eta
        self.sign = sign
        self.redraws = int(redraws)

    def __len__(self) -> int:
        return self.n


def _sample_chunk(a: float, b: float, n: int, seed: int, chunk_index: int):
    """Draw one deterministic chunk of family points.

    Each chunk derives its own stream from (seed, chunk_index), so the
    assembled output does not depend on how chunks are scheduled.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, chunk_index))))
    lo, hi = 1.0 / b, b
    r = np.empty(n)
    tau = np.empty(n)
    sign = np.empty(n)
    pending = np.arange(n)
    redraws = 0
    while pending.size:
        m = pending.size
        r_try = rng.uniform(lo, hi, m)
        t_lo, t_hi = _tau_bounds_arrays(a, b, r_try)
        tau_try = t_lo + (t_hi - t_lo) * rng.uniform(0.0, 1.0, m)
        sign_try = np.where(rng.uniform(0.0, 1.0, m) < 0.5, 1.0, -1.0)
        ok = np.isfinite(r_try) & np.isfinite(tau_try)
        r[pending[ok]] = r_try[ok]
        tau[pending[ok]] = tau_try[ok]
        sign[pending[ok]] = sign_try[ok]
        redraws += int(m - ok.sum())
        pending = pending[~ok]

    eta = np.maximum(_eta_arrays(a, r, tau, b), 0.0)
    c, cp = _correlation_arrays(b, r, tau, eta, sign)
    return c, cp, r, tau, eta, sign, redraws


def sample_family(
    a: float, b: float, n: int, seed: int, threads: int = 1
) -> FamilySample:
    """Sample ``n`` family states at fixed (a, b).

    Per point: r uniform on [1/b, b], tau uniform on [tau_min, tau_max] at
    that r, noise from :func:`eta_from_a`, and a fair EPR-sign coin, all from
    a counter-based stream keyed on (seed, chunk).  Output is reproducible
    for a fixed seed, independent of ``threads``.
    """
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    if a < 1.0 - 1e-12 or b < 1.0 - 1e-12:
        raise DomainError(f"local variances must be >= 1, got a={a}, b={b}")
    if b <= 1.0 and a <= 1.0:
        # no correlations possible; emit the product point deterministically
        zeros = np.zeros(n)
        return FamilySample(a, b, n, seed, zeros, zeros, np.ones(n),
                            zeros, np.full(n, a), np.ones(n), 0)
    sizes = [(i, min(_CHUNK, n - i * _CHUNK)) for i in range((n + _CHUNK - 1) // _CHUNK)]
    if threads > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(lambda s: _sample_chunk(a, b, s[1], seed, s[0]), sizes))
    else:
        chunks = [_sample_chunk(a, b, m, seed, i) for i, m in sizes]
    cols = [np.concatenate([ch[j] for ch in chunks]) for j in range(6)]
    redraws = sum(ch[6] for ch in chunks)
    return FamilySample(a, b, n, seed, *cols, redraws)


def correlation_half_width(a: float, b: float) -> float:
    """Half-width of the bounding box of the physical (c, cp) region."""
    return math.sqrt(max(squeezed_thermal_bound(a, b), 0.0))


def occupancy_grid(
    sample: FamilySample, bins: int = 200, tol: float = BONA_FIDE_TOL
) -> dict:
    """Bin a sample onto the (c, cp) plane and measure region coverage.

    The grid spans the square bounding box of the physical region.  The
    coverage fraction is (cells holding at least one sample) / (cells whose
    center is a bona fide state).
    """
    a, b = sample.a, sample.b
    half = correlation_half_width(a, b)
    if half <= 0.0:
        grid = np.zeros((bins, bins), dtype=int)
        return {
            "a": a, "b": b, "n": sample.n, "seed": sample.seed, "bins": bins,
            "extent": [0.0, 0.0], "redraws": sample.redraws,
            "physical_cells": 0, "occupied_physical_cells": 0,
            "coverage_fraction": 0.0, "grid": grid,
        }
    width = 2.0 * half / bins
    idx_c = np.clip(((sample.c + half) / width).astype(int), 0, bins - 1)
    idx_cp = np.clip(((sample.cp + half) / width).astype(int), 0, bins - 1)
    grid = np.zeros((bins, bins), dtype=np.int64)
    np.add.at(grid, (idx_c, idx_cp), 1)

    centers = -half + width * (np.arange(bins) + 0.5)
    cc, pp = np.meshgrid(centers, centers, indexing="ij")
    physical = bona_fide_normal_form_mask(a, b, cc, pp, tol=tol)
    occupied = (grid > 0) & physical
    n_phys = int(physical.sum())
    n_occ = int(occupied.sum())
    return {
        "a": a, "b": b, "n": sample.n, "seed": sample.seed, "bins": bins,
        "extent": [-half, half], "redraws": sample.redraws,
        "physical_cells": n_phys, "occupied_physical_cells": n_occ,
        "coverage_fraction": (n_occ / n_phys) if n_phys else 0.0,
        "grid": grid,
    }


def membership(nf: NormalFormCM, tol: float = 1e-9) -> FamilyParams:
    """Decomposition witness of a normal-form state, in closed form.

    The EPR variance is pinned to ``b`` (the channel leaves mode B alone),
    |tau| follows from ``|c*cp| = |tau|(b^2-1)`` and its sign from
    ``sign(c*cp)``; ``r`` and ``eta`` then follow from ``eta*r`` and
    ``eta/r`` (module docstring), with ``r`` clamped into [1/b, b].  The
    candidate is accepted when it reproduces (a, c, cp) to within ``tol``
    (relative to a), and OutOfFamily is raised otherwise.

    States on the axes (exactly one of c, cp zero) are only reached in the
    infinite-entanglement limit and are reported OutOfFamily, as are
    correlated states with ``b <= 1``.
    """
    a, b, c, cp = nf.a, nf.b, nf.c, nf.cp
    if not bool(bona_fide_normal_form_mask(a, b, c, cp)):
        raise DomainError(f"V({a}, {b}, {c}, {cp}) is not bona fide")
    scale = max(1.0, abs(c), abs(cp))
    if abs(c) <= 1e-12 * scale and abs(cp) <= 1e-12 * scale:
        return FamilyParams(b=b, r=1.0, tau=0.0, eta=a, sign=1)
    if abs(c) <= 1e-12 * scale or abs(cp) <= 1e-12 * scale:
        raise OutOfFamily(
            "axis states (c*cp = 0 with correlations) have no finite-b decomposition"
        )
    if b <= 1.0:
        raise OutOfFamily(f"b = {b} leaves no EPR correlations for c, cp to come from")
    sign = 1 if c > 0 else -1
    abs_tau = abs(c * cp) / (b * b - 1.0)
    tau = abs_tau if c * cp < 0 else -abs_tau
    tb = abs_tau * b
    rho = abs(c / cp)
    x = max(a / rho - tb, 0.0)  # eta * r
    y = max(a * rho - tb, 0.0)  # eta / r
    if x == y:
        r = 1.0
    else:
        r = min(max(math.sqrt(x / y) if y > 0.0 else b, 1.0 / b), b)
    eta = math.sqrt(x * y)
    floor = abs(1.0 - tau)
    if eta < floor:
        if eta < floor - 1e-6 * max(1.0, a):
            raise OutOfFamily(
                f"witness requires eta = {eta:.12g} < |1 - tau| = {floor:.12g}"
            )
        # snap to the boundary; the forward-error check below is the judge
        eta = floor
    fp = FamilyParams(b=b, r=r, tau=tau, eta=eta, sign=sign)
    out = family_cm_from_params(fp)
    err = max(abs(out.a - a), abs(out.c - c), abs(out.cp - cp))
    if err > tol * max(1.0, a):
        raise OutOfFamily(
            f"the closed-form witness misses (a, c, cp) by {err:.3e} (tolerance {tol:.1e})"
        )
    return fp
