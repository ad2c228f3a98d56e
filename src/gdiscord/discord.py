"""Quantum discord of two-mode Gaussian states under Gaussian measurements.

Two routes are provided, and :func:`discord_routes` runs both on one CM:

* a closed form for states in the EPR-plus-channel family, where the optimal
  measurement is known and the minimal conditional entropy is the channel's
  minimum output entropy ``h(|tau| + eta)``;
* an independent numeric route over the full rank-one Gaussian POVM family
  (seed ``R(phi) diag(u, 1/u) R(phi)^T``), which needs no family structure
  and no search: it minimises exactly over u at phi = 0 and at the angle
  phi* read off the state's normal-form reduction.

The seed at ``(u, phi)`` is the seed at ``(1/u, phi + pi/2)``, so u in
[0, 1] with phi in [0, pi) covers every measurement once: u = 0 is homodyne
detection (u -> inf is u = 0 at phi + pi/2) and u = 1 heterodyne.

The route ranks measurements by ``det(A - C (B + V0)^{-1} C^T)``: the
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
points.  Evaluations whose result the route already holds are shared: when
V's entries equal its normal form's (``-0.0 == 0.0``), V's phi = 0 value is
the normal form's, found once; and when phi* = 0 the phi* value is the
incumbent, so it is not computed again.  At u = 1 the phi terms carry the
factor ``y^2 - x^2 = 0`` exactly, so the heterodyne value is flat in phi to
the last bit.  A root replaces the best endpoint only when lower by the same
margin.  The ratio only ranks candidates: the entropy reported for the winner is
:func:`conditional_entropy_measured` at it, which reads ``D = A - C (B +
V0)^{-1} C^T`` from ``remote_prep._conditioning``, the one place that
conditions on a measurement; so the route reports exactly what conditioning
on a real measurement of V gives, and a wrong reduction could only raise it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import _numpy as np
from .channels import min_output_entropy
from .entropy import _above_vacuum, h
from .errors import DomainError, NumericalFailure, OutOfFamily
from .family import FamilyParams, family_cm_from_params, membership
from .remote_prep import GaussianMeasurement, _conditioning
from .symplectic import BonaFideDiagnosis, _cm_rows, _read, _record, normal_form_spectrum

# relative margin by which a root or phi* must beat the incumbent; a few
# ulps, so rounding alone never moves an exact heterodyne or phi = 0 point
_ROUNDING_MARGIN = 8.0 * 2.0**-52
# bits by which the numeric and closed-form discords of a family state may
# differ: the limit of verify's criterion 1; past it the CLI warns on stderr
ROUTE_GAP_BOUND = 1e-6


class DiscordReport(NamedTuple):
    """Entropic breakdown of the correlations of a two-mode Gaussian state.

    All quantities in bits.  ``method`` records whether the minimal
    conditional entropy came from the family closed form or from the
    numeric route's exact minimisation over u at phi = 0 and at phi*; the
    numeric route also reports its optimal measurement (u, phi).
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


def _form(x00: float, x01: float, x11: float, scale: float) -> tuple[float, float, float, float]:
    """Coefficients of ``xy (det X + 1) + x^2 s^T X s + y^2 r^T X r``, times scale.

    X is ``[[x00, x01], [x01, x11]]``; the order is (xy, x^2 + y^2,
    (y^2 - x^2) cos 2phi, (y^2 - x^2) sin 2phi).
    """
    return (
        scale * (x00 * x11 - x01 * x01 + 1.0),
        0.5 * scale * (x00 + x11),
        0.5 * scale * (x00 - x11),
        scale * x01,
    )


def _scan_forms(rows):
    """Numerator and denominator forms of the scan objective of the CM with entries ``rows``.

    ``S = B - C^T A^{-1} C``, eliminating on A without pivoting (A is positive
    definite) and multiplying by the pivots' reciprocals as LAPACK's ``solve``
    does, so a normal form's S is ``diag(b - c (c (1/a)), b - cp (cp (1/a)))``.
    Raises NumericalFailure when a coefficient is not finite (from a*b of
    about 1.3e154): no candidate can be ranked against inf.
    """
    (a00, a01, c00, c01), (a10, a11, c10, c11), (_, _, b00, b01), (_, _, _, b11) = rows
    r0 = 1.0 / a00
    l10 = a10 * r0
    u11 = a11 - l10 * a01
    if not u11 > 0.0:
        raise NumericalFailure("A block is not positive definite to working precision")
    r1 = 1.0 / u11
    x10, x11 = (c10 - l10 * c00) * r1, (c11 - l10 * c01) * r1  # X = A^{-1} C
    x00, x01 = (c00 - a01 * x10) * r0, (c01 - a01 * x11) * r0
    s00 = b00 - (c00 * x00 + c10 * x10)
    s01 = b01 - (c00 * x01 + c10 * x11)
    s11 = b11 - (c01 * x01 + c11 * x11)
    forms = _form(s00, s01, s11, a00 * a11 - a01 * a10), _form(b00, b01, b11, 1.0)
    if not all(map(math.isfinite, forms[0] + forms[1])):
        raise NumericalFailure("scan forms overflow: det A (det S + 1) or det B + 1 "
                               "is past the float range")
    return forms


def _best_seed(forms, phi: float) -> tuple[float, float, float]:
    """``(value, x, y)`` of the best seed weights at angle phi, u in [0, inf].

    At fixed phi each form ``(k, t, d, e)`` is ``(t - p) u^2 + k u + (t + p)``
    with ``p = d cos 2phi + e sin 2phi``; the candidates are u = 0, inf and 1
    and the positive roots of ``N'D - ND'``, each valued as the ratio of the
    two forms at its weights.
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


def _entropy_measured(rows, x: float, y: float, phi: float) -> float:
    """:func:`conditional_entropy_measured` of the CM with row-major entries ``rows``.

    The measurement is given as ``remote_prep._conditioning`` reads it: seed
    weights ``(x, y)`` and angle ``phi``.
    """
    _, ((d00, d01), (d10, d11)) = _conditioning(rows, x, y, phi)
    det = d00 * d11 - d01 * d10
    if not math.isfinite(det):
        raise NumericalFailure("conditional CM is not finite")
    return h(_above_vacuum(math.sqrt(max(det, 0.0)), "conditional CM's"))


def conditional_entropy_measured(V: np.ndarray, m: GaussianMeasurement) -> float:
    """Average entropy of mode A after measuring mode B with ``m``.

    The conditional CM is outcome-independent, so no averaging is needed:
    the value is ``h`` of its symplectic eigenvalue.  Raises NumericalFailure
    when the conditional CM is not finite, or when its eigenvalue has rounded
    below ``h``'s domain ``[1 - H_CLAMP_TOL, inf)``: no clamp lifts it to 1.
    """
    return _entropy_measured(_cm_rows(V), *m.weights, m.phi)


def _numeric_report(rows, diag: BonaFideDiagnosis) -> DiscordReport:
    """Numeric route's report: the least measured conditional entropy of a CM, at (u, phi).

    ``rows`` are its row-major entries, ``diag`` its diagnosis.  Deterministic
    and loop-free: the angle comes from the normal-form reduction
    ``diag.reduction`` and u is minimised exactly at it (see the module
    docstring).  u is in [0, 1] and phi in [0, pi); a homodyne winner is
    reported with u = 0.  S(AB) comes from the diagnosis's spectrum.  Raises
    DomainError for a CM that is not bona fide.

    When ``rows == nf.rows()``, V's forms and its phi = 0 best are the normal
    form's: they differ at most in the sign of a zero ``e`` term, on which no
    value the route computes depends.  When ``phi_star == 0.0`` the phi* best
    would be the incumbent, which a rival must beat by a margin, so it is not
    evaluated.  On an exact normal form whose phi = 0 winner has x < y, phi* is
    pi/2, whose candidates are the phi = 0 ones with p negated: the same
    endpoint values, but each root read as its reciprocal u > 1, where the
    sums of the ratio cancel differently.  That rival can win by more than the
    margin (V(896.1216897966443, 181.22551173647014, 402.9751649842417,
    -317.9255979398487), by 1.7e-13 of the value), so it is evaluated there too.
    """
    if not diag.bona_fide:
        raise DomainError(f"state is not bona fide: {diag.reason}")
    nf, (t00, t01, t10, t11) = diag.reduction
    nf_rows = nf.rows()
    nf_forms = _scan_forms(nf_rows)
    nf_best = _best_seed(nf_forms, 0.0)
    _, x, y = nf_best
    xx, yy = x * x, y * y  # P = T_B^{-1} diag(x^2, y^2) T_B^{-T}, the seed on V
    p00 = t00 * t00 * xx + t01 * t01 * yy
    p01 = t00 * t10 * xx + t01 * t11 * yy
    p11 = t10 * t10 * xx + t11 * t11 * yy
    phi_star = 0.5 * math.atan2(2.0 * p01, p00 - p11)
    if rows == nf_rows:
        forms, best = nf_forms, nf_best
    else:
        forms = _scan_forms(rows)
        best = _best_seed(forms, 0.0)
    phi = 0.0
    if phi_star != 0.0:
        rival = _best_seed(forms, phi_star)
        if rival[0] < best[0] * (1.0 - _ROUNDING_MARGIN):
            phi, best = phi_star, rival
    _, x, y = best
    if x > y:  # fold: (u, phi) is the measurement (1/u, phi + pi/2); u = inf is (1, 0)
        x, y, phi = y, x, phi + 0.5 * math.pi
    u, phi = x / y, phi % math.pi
    # the weights and angle GaussianMeasurement(u, phi) holds: u <= 1, and its
    # own reduction moves only a phi that rounded up to pi
    s_min = _entropy_measured(rows, u, 1.0, phi % math.pi)
    return _report(h(nf.a), h(nf.b), h(diag.nu_min) + h(diag.nu_plus), s_min,
                   "numeric_scan", u_opt=u, phi_opt=phi)


def _report(
    s_a: float, s_b: float, s_ab: float, s_min: float, method: str,
    u_opt: float | None = None, phi_opt: float | None = None,
) -> DiscordReport:
    i_ab = s_a + s_b - s_ab
    classical = s_a - s_min
    return _record(DiscordReport, (
        s_a, s_b, s_ab, i_ab, s_min, classical, i_ab - classical, method, u_opt, phi_opt,
    ))


def gaussian_discord_closed_form(fp: FamilyParams) -> DiscordReport:
    """Discord of a family state: ``h(b) - h(nu-) - h(nu+) + h(|tau| + eta)``.

    The last term is the channel's minimum output entropy, attained by the
    matched measurement; no numerical optimization is involved.  Raises
    NumericalFailure when the witness normal form's nu- has rounded below 1.
    """
    nf = family_cm_from_params(fp)
    nu = normal_form_spectrum(nf)
    s_min = min_output_entropy(fp)  # fp holds its channel's (tau, eta), already checked
    s_ab = h(_above_vacuum(nu.nu_minus, "witness normal form's")) + h(nu.nu_plus)
    return _report(h(nf.a), h(nf.b), s_ab, s_min, "closed_form")


def gaussian_discord_numeric(V: np.ndarray) -> DiscordReport:
    """Discord minimised over every rank-one Gaussian measurement; no family structure assumed.

    The least conditional entropy is found in closed form, minimising exactly
    over u at phi = 0 and at phi* (see the module docstring).  V is read and
    validated once, or not at all when it is the CM the last read read.
    """
    return _numeric_report(*_read(V))


def discord_routes(
    V: np.ndarray, diag: BonaFideDiagnosis | None = None
) -> tuple[DiscordReport, DiscordReport | None, float | None]:
    """``(numeric, closed, gap)``: both routes on one CM, as ``gdiscord discord`` reports them.

    V is read once and, unless ``diag`` holds its
    :func:`symplectic.validate_bona_fide` diagnosis, validated on that read;
    without ``diag``, a float64 V with the bits of the CM last read reuses
    that read (``symplectic._read``).
    The numeric route runs first; then the closed form on the family witness
    of the diagnosis's normal form, with ``closed`` None when V lies outside
    the family; it shares the numeric report's S(A), S(B) and S(AB) and adds
    only the family term ``h(|tau| + eta)``.  ``gap``, None outside the
    family, is ``|closed.discord - numeric.discord|``: the two conditional
    entropies' difference.  Past ``ROUTE_GAP_BOUND`` the routes disagree.
    """
    if diag is None:
        rows, diag = _read(V)
    else:
        rows = _cm_rows(V)
    numeric = _numeric_report(rows, diag)
    try:
        fp = membership(diag.reduction.nf)
    except OutOfFamily:
        return numeric, None, None
    closed = _report(numeric.s_a, numeric.s_b, numeric.s_ab, min_output_entropy(fp), "closed_form")
    return numeric, closed, abs(closed.discord - numeric.discord)
