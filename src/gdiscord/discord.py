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
numbers once.  At fixed phi the ratio is ``N(u)/D(u)`` with quadratics
``N = alpha u^2 + beta u + gamma`` and D alike, so its minimum over u in
[0, inf] is exact: the best of u = 0, u = inf (weights (1, 0)), u = 1 and
the positive roots of ``N'D - ND'``, the quadratic

    (alpha beta' - alpha' beta) u^2 + 2 (alpha gamma' - alpha' gamma) u
    + (beta gamma' - beta' gamma).

No search over phi is needed.  For a normal form B and ``S`` are diagonal,
so both forms have ``e = 0`` and the ratio depends on phi only through
``p = d cos 2phi``; at fixed u it is a ratio of two functions linear in p,
hence monotone, and its minimum lies at phi = 0 or pi/2, which the fold
puts inside the u range at phi = 0.  So ``min_u`` at phi = 0 is the global
minimum for a normal form.  Any other CM reaches its normal form by local
symplectics ``T_A (+) T_B`` (:func:`symplectic.reduce_cm`); ``T_A`` leaves
the conditional entropy alone and ``T_B`` maps a seed sigma to
``T_B^{-1} sigma T_B^{-T}`` on the CM.  The optimal angle on V is thus that
of the normal form's optimal seed ``diag(x^2, y^2)`` carried back by
``T_B^{-1}``: ``phi* = atan2(2 P01, P00 - P11)/2`` for its image P, which
also covers the homodyne seeds (x or y zero).  The route values V's own
ratio at phi = 0 and at phi*, each minimised exactly over u, and adopts phi*
only when lower by more than a rounding margin, so a normal form keeps its
phi = 0 bits and flat directions keep the exact heterodyne and homodyne
points.  At u = 1 the phi terms carry the factor ``y^2 - x^2 = 0`` exactly,
so the heterodyne value is flat in phi to the last bit.  A root replaces the
best endpoint only when lower by the same margin.  The ratio only ranks
candidates: the entropy reported for the winner is
:func:`conditional_entropy_measured` at it, which goes through
:func:`remote_prep.conditional_cm`, the one place that forms
``(B + V0)^{-1}``; so the route reports exactly what conditioning on a real
measurement of V gives, and a wrong reduction could only raise it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import min_output_entropy
from .entropy import entropy_single_mode, h
from .errors import DomainError, NumericalFailure
from .family import FamilyParams, family_cm_from_params
from .remote_prep import GaussianMeasurement, conditional_cm
from .symplectic import (
    BonaFideDiagnosis,
    block_a,
    block_b,
    block_c,
    embed_normal_form,
    normal_form_spectrum,
    validate_bona_fide,
)

# relative margin by which a root or phi* must beat the incumbent; a few
# ulps, so rounding alone never moves an exact heterodyne or phi = 0 point
_ROUNDING_MARGIN = 8.0 * 2.0**-52


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

    ``cos2``, ``sin2`` are cos 2phi and sin 2phi.
    """
    (kn, tn, dn, en), (kd, td, dd, ed) = forms
    xy, sq, diff = x * y, x * x + y * y, y * y - x * x
    num = xy * kn + sq * tn + diff * (dn * cos2 + en * sin2)
    return num / (xy * kd + sq * td + diff * (dd * cos2 + ed * sin2))


def _best_seed(forms, phi: float) -> tuple[float, float, float]:
    """``(value, x, y)`` of the best seed weights at angle phi, u in [0, inf].

    At fixed phi each form ``(k, t, d, e)`` is ``(t - p) u^2 + k u + (t + p)``
    with ``p = d cos 2phi + e sin 2phi``; the candidates are u = 0, inf and 1
    and the positive roots of ``N'D - ND'``, valued as :func:`_scan_objective`
    does, written out with the same rounding.
    """
    (kn, tn, dn, en), (kd, td, dd, ed) = forms
    cos2, sin2 = math.cos(2.0 * phi), math.sin(2.0 * phi)
    pn, pd = dn * cos2 + en * sin2, dd * cos2 + ed * sin2
    best = ((tn + pn) / (td + pd), 0.0, 1.0)  # ties go to u = 0, then inf, then 1
    d = (tn - pn) / (td - pd)
    if d < best[0]:
        best = (d, 1.0, 0.0)
    d = (kn + 2.0 * tn) / (kd + 2.0 * td)
    if d < best[0]:
        best = (d, 1.0, 1.0)
    # N = al u^2 + be u + ga, D likewise with the primed (_d) coefficients
    al, be, ga = tn - pn, kn, tn + pn
    al_d, be_d, ga_d = td - pd, kd, td + pd
    a, b, c = al * be_d - al_d * be, al * ga_d - al_d * ga, be * ga_d - be_d * ga
    disc = b * b - a * c
    if disc < 0.0:
        return best
    q = -(b + math.copysign(math.sqrt(disc), b))  # roots q/a and c/q, without cancellation
    for u in (q / a if a else 0.0, c / q if q else 0.0):
        if 0.0 < u < math.inf:
            sq, diff = u * u + 1.0, 1.0 - u * u
            d = (u * kn + sq * tn + diff * pn) / (u * kd + sq * td + diff * pd)
            if d < best[0] * (1.0 - _ROUNDING_MARGIN):
                best = (d, u, 1.0)
    return best


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


def minimize_conditional_entropy(V: np.ndarray) -> MinimizeResult:
    """Global minimum of the measured conditional entropy over (u, phi).

    Deterministic and loop-free: the angle comes from the normal-form
    reduction and u is minimised exactly at it (see the module docstring).
    The result has u in [0, 1] and phi in [0, pi); a homodyne winner is
    reported with u = 0.  Raises DomainError for a CM that is not bona fide.
    """
    V = np.asarray(V, float)
    return _minimize(V, validate_bona_fide(V))


def _minimize(V: np.ndarray, diag: BonaFideDiagnosis) -> MinimizeResult:
    """:func:`minimize_conditional_entropy` of V, given V's diagnosis."""
    if not diag.bona_fide:
        raise DomainError(f"state is not bona fide: {diag.reason}")
    nf, (t00, t01, t10, t11) = diag.reduction
    _, x, y = _best_seed(_scan_forms(embed_normal_form(nf)), 0.0)
    xx, yy = x * x, y * y  # P = T_B^{-1} diag(x^2, y^2) T_B^{-T}, the seed on V
    p00 = t00 * t00 * xx + t01 * t01 * yy
    p01 = t00 * t10 * xx + t01 * t11 * yy
    p11 = t10 * t10 * xx + t11 * t11 * yy
    phi_star = 0.5 * math.atan2(2.0 * p01, p00 - p11)
    forms = _scan_forms(V)
    phi, best = 0.0, _best_seed(forms, 0.0)
    rival = _best_seed(forms, phi_star)
    if rival[0] < best[0] * (1.0 - _ROUNDING_MARGIN):
        phi, best = phi_star, rival
    _, x, y = best
    if x > y:  # fold: (u, phi) is the measurement (1/u, phi + pi/2); u = inf is (1, 0)
        x, y, phi = y, x, phi + 0.5 * math.pi
    u, phi = x / y, phi % math.pi
    entropy = conditional_entropy_measured(V, GaussianMeasurement(u, phi))
    return MinimizeResult(u=u, phi=phi, entropy=entropy)


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
    nu = normal_form_spectrum(nf)
    s_min = min_output_entropy(fp.channel)
    return _report(h(nf.a), h(nf.b), h(nu.nu_minus) + h(nu.nu_plus), s_min, "closed_form")


def gaussian_discord_numeric(
    V: np.ndarray, diag: BonaFideDiagnosis | None = None
) -> DiscordReport:
    """Discord via the numerical measurement scan; no family structure assumed.

    ``diag`` is V's :func:`symplectic.validate_bona_fide` diagnosis, when the
    caller already has it; otherwise V is validated here.
    """
    V = np.asarray(V, float)
    if diag is None:
        diag = validate_bona_fide(V)
    res = _minimize(V, diag)
    return _report(
        entropy_single_mode(block_a(V)), entropy_single_mode(block_b(V)),
        h(diag.nu_min) + h(diag.nu_plus), res.entropy,
        "numeric_scan", u_opt=res.u, phi_opt=res.phi,
    )
