"""Quantum discord of two-mode Gaussian states under Gaussian measurements.

Two routes are provided and cross-checked:

* a closed form for states in the EPR-plus-channel family, where the optimal
  measurement is known and the minimal conditional entropy is the channel's
  minimum output entropy ``h(|tau| + eta)``;
* an independent numerical scan over the full rank-one Gaussian POVM family
  (seed ``R(phi) diag(u, 1/u) R(phi)^T``).

The seed at ``(u, phi)`` is the seed at ``(1/u, phi + pi/2)``, so u in
[0, 1] with phi in [0, pi) covers every measurement once: u = 0 is homodyne
detection (u -> inf is u = 0 at phi + pi/2) and u = 1 heterodyne.

The scan ranks measurements by ``det(A - C (B + V0)^{-1} C^T)``: the
measured conditional entropy is ``h`` of its square root, which increases
with it.  In homogeneous seed weights ``u = x/y``, with
``r = (cos phi, sin phi)``, ``s = (-sin phi, cos phi)`` and the Schur
complement ``S = B - C^T A^{-1} C``, it is a ratio of two binary quadratic
forms in (x, y):

    det A (xy (det S + 1) + x^2 s^T S s + y^2 r^T S r)
    / (xy (det B + 1) + x^2 s^T B s + y^2 r^T B r),

and each ``r^T X r`` is ``tr X/2 + (X00 - X11)/2 cos 2phi + X01 sin 2phi``
(``s^T X s`` flips the sign of the last two terms).  So a state gives eight
numbers once, the 202 x 64 grid is a few broadcast operations and one
refinement step a few float operations.  At u = 1 the phi terms carry the
factor ``y^2 - x^2 = 0`` exactly, so the heterodyne row is flat in phi to
the last bit.  The ratio only ranks candidates: the entropy reported for
the winner is :func:`conditional_entropy_measured` at it, which goes through
:func:`remote_prep.conditional_cm`, the one place that forms
``(B + V0)^{-1}``; so the scan reports exactly what conditioning on its
optimal measurement gives.

The grid is u in {0} plus [1e-4, 1] (201 log-spaced points), times phi in
[0, pi) (64 points).  Golden-section refinement in u and phi separately
follows; it may cross the fold point u = 1, and a winner beyond it is
reported at ``(1/u, phi + pi/2)``.  Ties are broken lexicographically on
(u, phi), so the result does not depend on evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .entropy import entropy_single_mode, entropy_two_mode, h
from .errors import DomainError, NumericalFailure
from .family import FamilyParams, family_cm_from_params
from .remote_prep import GaussianMeasurement, conditional_cm
from .symplectic import (
    block_a,
    block_b,
    block_c,
    embed_normal_form,
    symplectic_spectrum,
    validate_bona_fide,
)

U_GRID = np.logspace(-4.0, 0.0, 201)
PHI_GRID = np.linspace(0.0, math.pi, 64, endpoint=False)
# u of the scan rows: homodyne (u = 0), then U_GRID
_ROW_U = np.concatenate(([0.0], U_GRID))[:, None]
_COS2_GRID, _SIN2_GRID = np.cos(2.0 * PHI_GRID), np.sin(2.0 * PHI_GRID)
_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)
_GOLDEN_MAX_ITER = 200
_PARAM_TOL = 1e-10


@dataclass(frozen=True)
class DiscordReport:
    """Entropic breakdown of the correlations of a two-mode Gaussian state.

    All quantities in bits.  ``method`` records whether the minimal
    conditional entropy came from the family closed form or from the
    numerical POVM scan; the scan also reports its optimizer (u, phi).
    """

    s_a: float
    s_b: float
    s_ab: float
    i_ab: float
    s_min_cond: float
    classical_corr: float
    discord: float
    method: str
    u_opt: float | None = None
    phi_opt: float | None = None


def _form(X: np.ndarray, scale: float) -> tuple[float, float, float, float]:
    """Coefficients of ``xy (det X + 1) + x^2 s^T X s + y^2 r^T X r``, times scale.

    In the order (xy, x^2 + y^2, (y^2 - x^2) cos 2phi, (y^2 - x^2) sin 2phi).
    """
    x00, x01, x11 = float(X[0, 0]), float(X[0, 1]), float(X[1, 1])
    return (
        scale * (x00 * x11 - x01 * x01 + 1.0),
        0.5 * scale * (x00 + x11),
        0.5 * scale * (x00 - x11),
        scale * x01,
    )


def _scan_forms(V: np.ndarray):
    """Numerator and denominator forms of the scan objective of V."""
    A, B, C = block_a(V), block_b(V), block_c(V)
    S = B - C.T @ np.linalg.solve(A, C)
    return _form(S, float(A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0])), _form(B, 1.0)


def _scan_objective(forms, x, y, cos2, sin2):
    """``det(A - C (B + V0)^{-1} C^T)`` for the seed ``u = x/y`` at angle phi.

    ``cos2``, ``sin2`` are cos 2phi and sin 2phi.  Floats or broadcast arrays.
    """
    (kn, tn, dn, en), (kd, td, dd, ed) = forms
    xy, sq, diff = x * y, x * x + y * y, y * y - x * x
    num = xy * kn + sq * tn + diff * (dn * cos2 + en * sin2)
    return num / (xy * kd + sq * td + diff * (dd * cos2 + ed * sin2))


def conditional_entropy_measured(V: np.ndarray, m: GaussianMeasurement) -> float:
    """Average entropy of mode A after measuring mode B with ``m``.

    The conditional CM is outcome-independent, so no averaging is needed:
    the value is ``h`` of its symplectic eigenvalue.
    """
    D = conditional_cm(V, m)
    det = float(D[0, 0] * D[1, 1] - D[0, 1] * D[1, 0])
    if not math.isfinite(det):
        raise NumericalFailure("conditional CM is not finite")
    return h(math.sqrt(max(det, 0.0)))


class MinimizeResult(NamedTuple):
    u: float
    phi: float
    entropy: float


def _golden(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section minimization of a unimodal scalar function.

    Stops when the bracket is within ``tol`` or four ulps of ``hi``,
    whichever is wider, so brackets at large magnitude terminate too.
    """
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(_GOLDEN_MAX_ITER):
        if hi - lo <= max(tol, 4.0 * math.ulp(hi)):
            x = 0.5 * (lo + hi)
            return x, f(x)
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
    raise NumericalFailure(
        f"golden-section search did not converge in {_GOLDEN_MAX_ITER} iterations"
        f" (bracket [{lo!r}, {hi!r}])"
    )


def minimize_conditional_entropy(V: np.ndarray) -> MinimizeResult:
    """Global minimum of the measured conditional entropy over (u, phi).

    Deterministic: one pass over the grid with its homodyne row, then
    alternating golden-section passes on u and phi from the grid winner, and
    a phi refinement of the homodyne row's winner.  The result has u in
    [0, 1]; a homodyne winner is reported with u = 0.  Raises DomainError
    for a CM that is not bona fide.
    """
    V = np.asarray(V, float)
    diag = validate_bona_fide(V)
    if not diag.bona_fide:
        raise DomainError(f"state is not bona fide: {diag.reason}")
    forms = _scan_forms(V)
    det = _scan_objective(forms, _ROW_U, 1.0, _COS2_GRID, _SIN2_GRID)

    flat = int(np.argmin(det[1:]))
    ui, pj = divmod(flat, PHI_GRID.size)
    u_best, phi_best = float(U_GRID[ui]), float(PHI_GRID[pj])
    d_best = float(det[1 + ui, pj])

    # alternating golden-section refinement on u and phi; a refined point is
    # adopted only on strict improvement, so flat directions keep grid values.
    # Coordinate descent zigzags when u and phi are coupled (states away
    # from normal form), hence the generous sweep cap with an early exit.
    dphi = math.pi / PHI_GRID.size
    step = float(U_GRID[1] / U_GRID[0])  # constant ratio of the log grid
    for _ in range(40):
        d_before = d_best
        # one grid spacing to either side, centered on the current point so
        # the descent direction is never clipped off; below the first log
        # point the lower neighbour is the homodyne row u = 0
        lo = u_best / step if u_best > U_GRID[0] else 0.0
        cos2, sin2 = math.cos(2.0 * phi_best), math.sin(2.0 * phi_best)
        u_new, d_new = _golden(
            lambda u: _scan_objective(forms, u, 1.0, cos2, sin2),
            lo, u_best * step, _PARAM_TOL,
        )
        if d_new < d_best:
            u_best, d_best = u_new, d_new
        phi_new, d_new = _golden(
            lambda p: _scan_objective(forms, u_best, 1.0, math.cos(2.0 * p), math.sin(2.0 * p)),
            phi_best - dphi, phi_best + dphi, _PARAM_TOL,
        )
        if d_new < d_best:
            phi_best, d_best = phi_new % math.pi, d_new
        if d_before - d_best < 1e-14:
            break
    if u_best > 1.0:  # fold back: (u, phi) is the measurement (1/u, phi + pi/2)
        u_best, phi_best = 1.0 / u_best, (phi_best + 0.5 * math.pi) % math.pi

    p0 = float(PHI_GRID[int(np.argmin(det[0]))])
    phi_h, d_h = _golden(
        lambda p: _scan_objective(forms, 0.0, 1.0, math.cos(2.0 * p), math.sin(2.0 * p)),
        p0 - dphi, p0 + dphi, _PARAM_TOL,
    )
    _, u_min, phi_min = min((d_best, u_best, phi_best), (d_h, 0.0, phi_h % math.pi))
    entropy = conditional_entropy_measured(V, GaussianMeasurement(u_min, phi_min))
    return MinimizeResult(u=u_min, phi=phi_min, entropy=entropy)


def matched_measurement(fp: FamilyParams) -> GaussianMeasurement:
    """Measurement whose remote preparation matches a family witness.

    Measuring the EPR mode with seed squeezing ``u = (r b - 1)/(b - r)``
    prepares squeezed states of exactly the witness squeezing ``r``; the
    endpoints r = 1/b and r = b map to the two homodyne limits.
    """
    b, r = fp.b, fp.r
    num = r * b - 1.0
    den = b - r
    if num <= 0.0:
        return GaussianMeasurement.homodyne_q()
    if den <= 0.0:
        return GaussianMeasurement.homodyne_p()
    return GaussianMeasurement(num / den)


def _report(
    s_a: float, s_b: float, s_ab: float, s_min: float, method: str,
    u_opt: float | None = None, phi_opt: float | None = None,
) -> DiscordReport:
    i_ab = s_a + s_b - s_ab
    classical = s_a - s_min
    return DiscordReport(
        s_a=s_a, s_b=s_b, s_ab=s_ab, i_ab=i_ab,
        s_min_cond=s_min, classical_corr=classical,
        discord=i_ab - classical, method=method,
        u_opt=u_opt, phi_opt=phi_opt,
    )


def gaussian_discord_closed_form(fp: FamilyParams) -> DiscordReport:
    """Discord of a family state: ``h(b) - h(nu-) - h(nu+) + h(|tau| + eta)``.

    The last term is the channel's minimum output entropy, attained by the
    matched measurement; no numerical optimization is involved.
    """
    nf = family_cm_from_params(fp)
    V = embed_normal_form(nf)
    nu = symplectic_spectrum(V)
    s_ab = h(nu.nu_minus) + h(nu.nu_plus)
    s_min = h(abs(fp.tau) + fp.eta)
    return _report(h(nf.a), h(nf.b), s_ab, s_min, "closed_form")


def gaussian_discord_numeric(V: np.ndarray) -> DiscordReport:
    """Discord via the numerical measurement scan; no family structure assumed."""
    V = np.asarray(V, float)
    res = minimize_conditional_entropy(V)
    return _report(
        entropy_single_mode(block_a(V)),
        entropy_single_mode(block_b(V)),
        entropy_two_mode(V),
        res.entropy,
        "numeric_scan",
        u_opt=res.u,
        phi_opt=res.phi,
    )
