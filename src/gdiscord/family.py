"""Decomposition of two-mode Gaussian states into EPR-plus-local-channel form.

The family is an EPR state of variance ``b`` sent through an extended
channel (tau, eta) on mode A (negative transmissivities allowed), framed by
input and output squeezers.  With ``theta(r) = sqrt(eta*r + |tau|*b)`` its
normal form is

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

with ``|tau| = |c*cp| / (b^2 - 1)``; :func:`membership` uses these.  On a
squeezed thermal state V(a, b, c, -c), ``rho = 1`` and the two products are
equal, so ``r = 1`` and the inversion is the phase-insensitive channel

    tau = c^2 / (b^2 - 1),    eta = a - tau * b.

Holding ``a`` fixed and choosing ``r`` instead inverts to

    eta = [sqrt(4 a^2 r^2 + (r^2-1)^2 tau^2 b^2) - (1+r^2) |tau| b] / (2r),

which is nonnegative iff ``|tau| <= a/b``, and the physicality constraint
``eta >= |1 - tau|`` confines ``tau`` to an interval [tau_min, tau_max]
implemented here in a cancellation-free rationalized form.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import _numpy as np
from .channels import GaussianChannelParams
from .entropy import _above_vacuum
from .errors import DomainError, NumericalFailure, OutOfFamily
from .symplectic import (
    NormalFormCM,
    _record,
    _verdict,
    bona_fide_normal_form_mask,
    check_variance,
    normal_form_spectrum,
    squeezed_thermal_bound,
)

_R_DOMAIN_TOL = 1e-12
# membership accepts a witness that reproduces (a, c, cp) to this share of a
_WITNESS_TOL = 1e-9
# Points per independently seeded sampler chunk; fixed so that output is
# byte-identical regardless of how many threads compute the chunks.
_CHUNK = 1 << 16


class _FamilyFields(NamedTuple):
    b: float
    r: float
    tau: float
    eta: float
    sign: int = 1


class FamilyParams(_FamilyFields):
    """Witness of an EPR-plus-channel decomposition.

    ``b`` is the EPR variance (equal to the B-block variance of the output),
    ``r`` the input anti-squeezing, ``(tau, eta)`` the extended channel and
    ``sign`` the EPR correlation type.  The output squeezing ``xi`` is
    derived, never stored.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, b: float, r: float, tau: float, eta: float, sign: int = 1):
        check_variance(b, "EPR variance")
        _check_r(r, b)
        if sign not in (1, -1):
            raise DomainError(f"EPR sign must be +1 or -1, got {sign}")
        GaussianChannelParams(tau, eta)  # validates eta >= |1 - tau|
        return super().__new__(cls, b, r, tau, eta, sign)

    @property
    def channel(self) -> GaussianChannelParams:
        return GaussianChannelParams(self.tau, self.eta)

    @property
    def xi(self) -> float:
        """Output squeezing that brings the state back to normal form."""
        tb = abs(self.tau) * self.b  # theta(r)^2 = eta r + |tau| b
        return self.r * math.sqrt(self.eta * (1.0 / self.r) + tb) / math.sqrt(
            self.eta * self.r + tb)


def family_cm_from_params(fp: FamilyParams) -> NormalFormCM:
    """Normal form (a, b, c, cp) generated by a decomposition witness.

    ``a`` is taken from theta(r)^2, so that pure outputs (eta = 0, where
    theta(r) = theta(1/r)) stay exactly degenerate.
    """
    tb = abs(fp.tau) * fp.b
    a = math.sqrt((fp.eta * fp.r + tb) * (fp.eta / fp.r + tb))
    c, cp = _correlation_arrays(fp.b, fp.r, fp.tau, fp.eta, fp.sign)
    return _record(NormalFormCM, (a, fp.b, c, cp))


def _correlation_arrays(b, r, tau, eta, sign, sqrt=math.sqrt):
    """(c, cp) of the family normal form; floats, or arrays with ``sqrt=np.sqrt``."""
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
    check_variance(a, "local variance a")
    check_variance(b, "local variance b")
    _check_r(r, b)
    eta = _eta_arrays(a, r, tau, b)
    if eta < 0.0:
        if eta < -1e-12 * max(1.0, a):
            raise DomainError(
                f"|tau| = {abs(tau)} exceeds a/b = {a / b}; no nonnegative noise exists"
            )
        eta = 0.0
    return eta


def _eta_arrays(a, r, tau, b, sqrt=math.sqrt):
    """Unclamped :func:`eta_from_a`; floats, or arrays with ``sqrt=np.sqrt``."""
    tb = abs(tau) * b
    # a product, not ** 2: a float's ** 2 calls libm pow, an array's squares exactly
    d = r * r - 1.0
    root = sqrt(4.0 * a * a * r * r + d * d * tau * tau * b * b)
    return (root - (1.0 + r * r) * tb) / (2.0 * r)


def _check_r(r: float, b: float) -> None:
    lo, hi = 1.0 / b, b
    if not (lo - _R_DOMAIN_TOL <= r <= hi + _R_DOMAIN_TOL):
        raise DomainError(f"r = {r} outside [1/b, b] = [{lo}, {hi}]")


def tau_bounds(a: float, b: float, r: float) -> tuple[float, float]:
    """Transmissivity interval on which ``eta_from_a(a, r, tau, b) >= |1-tau|``.

    Validating scalar form of :func:`_tau_bounds_arrays`, the one formula,
    which the sampler and ``verify`` read on arrays.
    """
    check_variance(a, "local variance a")
    check_variance(b, "local variance b")
    _check_r(r, b)
    if b <= 1.0 and a <= 1.0:
        # both modes at the vacuum limit: product states only
        return (0.0, 0.0)
    tau_min, tau_max = _tau_bounds_arrays(a, b, r)
    return (float(tau_min), float(tau_max))


def _tau_bounds_arrays(a, b, r) -> tuple[np.ndarray, np.ndarray]:
    """tau_bounds at every (a, b, r), floats or arrays that broadcast; assumes b > 1 or a > 1.

    Rationalized closed forms (no subtractive cancellation at the domain
    endpoints r = 1/b, r = b, where the textbook expressions become 0/0):

        tau_min = -2 r (a^2 - 1) / (p+ + sqrt(q + 4 a^2 r g+)),
        tau_max =  2 r (a^2 - 1) / (p- + sqrt(q - 4 a^2 r g-))   for a <= b,
        tau_max = (p+ + sqrt(q + 4 a^2 r g+)) / (2 g+)           for a >= b,

    with g+- = (r +- b)(r b +- 1), q = (r^2-1)^2 b^2 and
    p+- = b (1 + r^2) +- 2 r; tau_max is selected element by element, and a
    form that no element selects is not computed.  A radicand of an a <= b
    element below zero by more than rounding means r lies outside [1/b, b]
    and raises NumericalFailure.
    """
    r = np.asarray(r, float)
    d = r * r - 1.0  # squared as d * d, so a scalar r rounds as an array does
    q = d * d * b * b
    g_plus = (r + b) * (r * b + 1.0)
    p_plus = b * (1.0 + r * r) + 2.0 * r
    root_plus = np.sqrt(q + 4.0 * a * a * r * g_plus)
    tau_min = -2.0 * r * (a * a - 1.0) / (p_plus + root_plus)
    a_le_b = a <= b
    high = (p_plus + root_plus) / (2.0 * g_plus) if not np.all(a_le_b) else 0.0
    low = 0.0
    if np.any(a_le_b):
        rad = q - 4.0 * a * a * r * ((r - b) * (r * b - 1.0))  # q - 4 a^2 r g-
        bad = a_le_b & (rad < -1e-9 * np.maximum(1.0, q))
        if np.any(bad):
            raise NumericalFailure(f"negative radicand {np.min(rad[bad])} in tau_max; r outside its domain?")
        with np.errstate(divide="ignore"):  # a > b elements drop this form, 1/0 at b = 1, r = 1
            low = 2.0 * r * (a * a - 1.0) / (b * (1.0 + r * r) - 2.0 * r + np.sqrt(np.maximum(rad, 0.0)))
    return tau_min, np.where(a_le_b, low, high)


class FamilySample:
    """Columnar batch of sampled family states at fixed (a, b).

    Row ``i`` of the columns (r, tau, eta, sign) is a decomposition witness
    (with ``b``) of the sampled correlation pair (c[i], cp[i]).
    """

    # no draw is ever redrawn (a non-finite one raises); the count stays, at
    # 0, because the benchmark's counter and the --grid-out JSON read it
    redraws = 0

    def __init__(self, a, b, n, seed, c, cp, r, tau, eta, sign):
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


def _sample_chunk(a: float, b: float, n: int, seed: int, chunk_index: int):
    """Draw one deterministic chunk of family points.

    Each chunk derives its own stream from (seed, chunk_index), so the
    assembled output does not depend on how chunks are scheduled.  With
    finite (a, b) a draw is non-finite only when the closed forms overflow,
    which no redraw mends, so that raises NumericalFailure.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, chunk_index))))
    with np.errstate(invalid="ignore", over="ignore"):
        r = rng.uniform(1.0 / b, b, n)
        t_lo, t_hi = _tau_bounds_arrays(a, b, r)
        tau = t_lo + (t_hi - t_lo) * rng.uniform(0.0, 1.0, n)
        sign = np.where(rng.uniform(0.0, 1.0, n) < 0.5, 1.0, -1.0)
        eta = np.maximum(_eta_arrays(a, r, tau, b, np.sqrt), 0.0)
        c, cp = _correlation_arrays(b, r, tau, eta, sign, np.sqrt)
    if not all(np.isfinite(col).all() for col in (c, cp, tau, eta)):
        raise NumericalFailure(f"family formulae overflow at a = {a}, b = {b}")
    return c, cp, r, tau, eta, sign


def sample_family(
    a: float, b: float, n: int, seed: int, threads: int = 1
) -> FamilySample:
    """Sample ``n`` family states at fixed (a, b).

    Per point: r uniform on [1/b, b], tau uniform on [tau_min, tau_max] at
    that r, noise from :func:`eta_from_a`, and a fair EPR-sign coin, all from
    a counter-based stream keyed on (seed, chunk).  Output is reproducible
    for a fixed seed, independent of ``threads``.  With ``threads`` > 1 and
    more than one chunk, the chunks run on a pool of that many threads.
    """
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    if threads < 1:
        raise DomainError(f"threads must be >= 1, got {threads}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    check_variance(a, "local variance a")
    check_variance(b, "local variance b")
    # the columns (c, cp, r, tau, eta, sign), allocated before any draw
    cols = _allocated(np.empty, (6, n), float, f"sample size n = {n}")
    if b <= 1.0 and a <= 1.0:
        # no correlations possible; emit the product point deterministically
        cols[:] = np.array([0.0, 0.0, 1.0, 0.0, a, 1.0])[:, None]
        return FamilySample(a, b, n, seed, *cols)

    def fill(start: int) -> None:
        chunk = _sample_chunk(a, b, min(_CHUNK, n - start), seed, start // _CHUNK)
        for col, values in zip(cols, chunk):
            col[start:start + len(values)] = values

    starts = range(0, n, _CHUNK)
    if threads > 1 and len(starts) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, starts))
    else:
        for start in starts:
            fill(start)
    return FamilySample(a, b, n, seed, *cols)


def _allocated(make, shape: tuple, dtype, what: str):
    """``make(shape, dtype)``, or DomainError when numpy refuses the size.

    numpy refuses a shape past its index range, or one that malloc cannot
    serve, before it allocates anything.
    """
    try:
        return make(shape, dtype)
    except (ValueError, MemoryError):
        raise DomainError(f"{what} is too large: no {shape} array of {np.dtype(dtype)} fits") from None


def occupancy_grid(sample: FamilySample, bins: int = 200) -> dict:
    """Bin a sample onto the (c, cp) plane and measure region coverage.

    The grid spans the square bounding box of the physical region.  The
    coverage fraction is (cells holding at least one sample) / (cells whose
    center is a bona fide state), judged by :func:`bona_fide_normal_form_mask`,
    the rule of :func:`validate_bona_fide` at every finite scale.  Raises
    DomainError when ``bins < 1``.
    """
    if bins < 1:
        raise DomainError(f"bins must be >= 1, got {bins}")
    a, b = sample.a, sample.b
    half = math.sqrt(max(squeezed_thermal_bound(a, b), 0.0))  # the box's half-width
    grid = _allocated(np.zeros, (bins, bins), np.int64, f"bins = {bins}")
    n_phys = n_occ = 0
    if half > 0.0:  # a or b = 1 leaves no correlations: an empty grid on one point
        width = 2.0 * half / bins
        idx_c = np.clip(((sample.c + half) / width).astype(int), 0, bins - 1)
        idx_cp = np.clip(((sample.cp + half) / width).astype(int), 0, bins - 1)
        np.add.at(grid, (idx_c, idx_cp), 1)
        centers = -half + width * (np.arange(bins) + 0.5)
        cc, pp = np.meshgrid(centers, centers, indexing="ij")
        physical = bona_fide_normal_form_mask(a, b, cc, pp)
        n_phys = int(physical.sum())
        n_occ = int(((grid > 0) & physical).sum())
    return {
        "a": a, "b": b, "n": sample.n, "seed": sample.seed, "bins": bins,
        "extent": [-half, half], "redraws": sample.redraws,
        "physical_cells": n_phys, "occupied_physical_cells": n_occ,
        "coverage_fraction": (n_occ / n_phys) if n_phys else 0.0,
        "grid": grid,
    }


def membership(nf: NormalFormCM) -> FamilyParams:
    """Decomposition witness of a normal-form state, in closed form.

    The EPR variance is pinned to ``b`` (the channel leaves mode B alone),
    |tau| follows from ``|c*cp| = |tau|(b^2-1)`` and its sign from
    ``sign(c*cp)``; ``r`` and ``eta`` then follow from ``eta*r`` and
    ``eta/r`` (module docstring), with ``r`` clamped into [1/b, b] and
    ``eta`` raised to its floor ``|1 - tau|`` when rounding leaves it below.
    When ``eta*b`` is within the tolerance, no r moves the forward map and
    the state does not fix it, so r = 1 is reported in every local frame.
    The candidate is accepted when it reproduces (a, c, cp) to within
    ``_WITNESS_TOL`` (relative to a), and OutOfFamily is raised otherwise;
    this forward check is the only verdict on a witness.  NumericalFailure is
    raised when |tau| or eta overflows, and when the witness's own normal
    form has a negative discriminant or a nu- below ``1 - H_CLAMP_TOL``.

    States on the axes (exactly one of c, cp zero) are only reached in the
    infinite-entanglement limit and are reported OutOfFamily, as are
    correlated states with ``b <= 1``.
    """
    a, b, c, cp = nf.a, nf.b, nf.c, nf.cp
    if not _verdict(a, b, c, cp)[0]:
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
    cc, bb = c * cp, b * b - 1.0
    abs_tau = abs(cc) / bb
    tau = abs_tau if cc < 0 else -abs_tau
    tb = abs_tau * b
    rho = abs(c / cp)
    x = max(a / rho - tb, 0.0)  # eta * r
    y = max(a * rho - tb, 0.0)  # eta / r
    eta = max(math.sqrt(x * y), abs(1.0 - tau))
    if not (abs_tau < math.inf and eta < math.inf):  # also NaN
        # name the first quantity past the float range, not the NaNs it leads to
        steps = (("c*cp", abs(cc)), ("b^2 - 1", bb), ("|tau|", abs_tau), ("eta^2", x * y))
        name = next(name for name, value in steps if not value < math.inf)
        raise NumericalFailure(f"the family inversion overflows: {name} is past the float range")
    if x == y or eta * b <= _WITNESS_TOL * max(1.0, a):
        r = 1.0
    else:
        r = min(max(math.sqrt(x / y) if y > 0.0 else b, 1.0 / b), b)
    # FamilyParams' checks hold, so the witness is built without them: b > 1 (see
    # above) and finite, as a bona fide verdict reads only finite parameters; r
    # is 1 or clamped into [1/b, b]; sign is +-1; tau and eta are finite (see
    # above), and eta >= |1 - tau|, its floor
    fp = _record(FamilyParams, (b, r, tau, eta, sign))
    out = family_cm_from_params(fp)
    err = max(abs(out.a - a), abs(out.c - c), abs(out.cp - cp))
    if err > _WITNESS_TOL * max(1.0, a):
        raise OutOfFamily(
            f"the closed-form witness misses (a, c, cp) by {err:.3e} (tolerance {_WITNESS_TOL:.1e})"
        )
    _above_vacuum(normal_form_spectrum(out).nu_minus, "witness normal form's")
    return fp
