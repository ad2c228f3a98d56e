"""Fixed-size covariance-matrix algebra for one- and two-mode Gaussian states.

Conventions used throughout the package:

* quadrature ordering ``(q_A, p_A, q_B, p_B)``,
* vacuum covariance matrix equal to the identity, so a thermal state with
  mean photon number ``nbar`` has variance ``2*nbar + 1``,
* single-mode symplectic form ``Omega = [[0, 1], [-1, 0]]``,
* annihilation operator ``a = (q + i*p) / 2``.

A two-mode covariance matrix (CM) is a 4x4 ``numpy`` array, or four rows
of four numbers, with block structure ``[[A, C], [C.T, B]]``, where A, B, C
are 2x2 real blocks and A, B are symmetric.  Normal-form states are the
subset with ``A = a*I``, ``B = b*I`` and ``C = diag(c, cp)``; every CM with
positive definite A and B reaches one by local symplectics, in closed form
(:func:`reduce_cm`), and validation and the spectrum read that reduction.
Every function of the package that takes a CM reads its entries as floats
through one gate, :func:`_cm_rows`, which admits only sixteen finite numbers
symmetric to ``SYMMETRY_RTOL``; the functions that build or return arrays
reach numpy through ``gdiscord._numpy``, which imports it on their first
``np.`` read.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import _numpy as np
from .entropy import H_CLAMP_TOL
from .errors import DomainError, NumericalFailure

# Uncertainty-principle tolerance: states with nu_min >= 1 - BONA_FIDE_TOL are
# accepted, so boundary (quantum-limited) states pass.  It is h's clamp
# tolerance, so h accepts every nu_minus this test admits.
BONA_FIDE_TOL = H_CLAMP_TOL
SYMMETRY_RTOL = 1e-12


def rotation_matrix(phi: float) -> np.ndarray:
    """2x2 phase-space rotation by angle ``phi``."""
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, -s], [s, c]])


def squeezer_matrix(r: float) -> np.ndarray:
    """Symplectic squeezer ``diag(sqrt(r), 1/sqrt(r))``.

    The inverse of ``squeezer_matrix(r)`` is ``squeezer_matrix(1/r)``.
    """
    if not r > 0.0:
        raise DomainError(f"squeezer parameter must be positive, got {r}")
    s = np.sqrt(r)
    return np.diag([s, 1.0 / s])


class NormalFormCM(NamedTuple):
    """Normal-form parameters (a, b, c, cp) of a two-mode Gaussian state.

    ``a`` and ``b`` are the local variances of modes A and B, ``c`` and
    ``cp`` the two correlation parameters on the diagonal of the C block.
    """

    a: float
    b: float
    c: float
    cp: float

    def rows(self) -> list[list[float]]:
        """Row-major entries of :func:`embed_normal_form`."""
        a, b, c, cp = self.a, self.b, self.c, self.cp
        return [[a, 0.0, c, 0.0], [0.0, a, 0.0, cp], [c, 0.0, b, 0.0], [0.0, cp, 0.0, b]]


def embed_normal_form(nf: NormalFormCM) -> np.ndarray:
    """Embed normal-form parameters into the full 4x4 covariance matrix."""
    return np.array(nf.rows(), dtype=float)


class Reduction(NamedTuple):
    """A CM's normal form and the local map that carries it back on mode B.

    Local symplectics ``T_A (+) T_B`` take the CM to ``embed_normal_form(nf)``;
    ``tb_inv`` is ``T_B^{-1}`` row-major, so a measurement seed ``sigma`` on
    the normal form is the seed ``T_B^{-1} sigma T_B^{-T}`` on the CM.
    """

    nf: NormalFormCM
    tb_inv: tuple[float, float, float, float]


# a CM within this relative distance of its normal-form pattern is read as
# that normal form, keeping its own bits and (c, cp) order
_PATTERN_RTOL = 1e-13
_IDENTITY = (1.0, 0.0, 0.0, 1.0)
# builds a record from a tuple of its fields without the record's Python-level
# __new__; for the package's own records whose fields need no check
_record = tuple.__new__


def _cm_rows(V) -> list[list[float]]:
    """A CM's entries as four rows of four floats: the one gate every CM passes.

    V is a 4x4 array (read with ``tolist``) or four rows of four numbers,
    all finite, symmetric to ``SYMMETRY_RTOL * max(1, max |V|)``; anything
    else raises DomainError, in that order of checks.
    """
    dtype = getattr(V, "dtype", None)
    if dtype is not None and dtype.char == "d" and V.shape == (4, 4):
        rows = V.tolist()
    else:
        rows = V.tolist() if dtype is not None else V
        try:
            rows = [list(map(float, row)) for row in rows if not isinstance(row, (str, bytes))]
        except TypeError:  # rows are numbers, or hold sequences
            rows = None
        except ValueError:
            raise DomainError("matrix contains non-numeric entries") from None
        except OverflowError:  # an int past the float range
            raise DomainError("matrix contains non-finite entries") from None
        if rows is None or len(rows) != 4 or [len(row) for row in rows] != [4, 4, 4, 4]:
            raise DomainError(f"expected 4x4 matrix, got {_shape_text(V)}")
    entries = rows[0] + rows[1] + rows[2] + rows[3]
    if not all(map(math.isfinite, entries)):
        raise DomainError("matrix contains non-finite entries")
    (_, v01, v02, v03), (v10, _, v12, v13), (v20, v21, _, v23), (v30, v31, v32, _) = rows
    asym = max(abs(v01 - v10), abs(v02 - v20), abs(v03 - v30),
               abs(v12 - v21), abs(v13 - v31), abs(v23 - v32))
    # the bound is at least SYMMETRY_RTOL, so max |V| is read only past it
    if asym > SYMMETRY_RTOL and asym > SYMMETRY_RTOL * max(1.0, max(map(abs, entries))):
        raise DomainError(f"not symmetric (max asymmetry {asym:.3e})")
    return rows


def _shape_text(V) -> str:
    """numpy's shape of V, for an error message; an error path, so numpy may load."""
    try:
        return str(np.shape(V))
    except ValueError:
        return "a ragged sequence"


def _unit_det_sqrt(x00: float, x01: float, x11: float, det: float):
    """(sqrt(det X), M^{1/2}, M^{-1/2}) of a positive definite 2x2 X, M = X/sqrt(det X).

    For ``det M = 1``, ``M^{+-1/2} = (M + I)/s`` and ``(adj M + I)/s`` with
    ``s = sqrt(tr M + 2)``; each matrix is returned as (m00, m01, m11).
    """
    root = math.sqrt(det)
    m00, m01, m11 = x00 / root, x01 / root, x11 / root
    s = math.sqrt(m00 + m11 + 2.0)
    h00, h01, h11 = (m00 + 1.0) / s, m01 / s, (m11 + 1.0) / s
    return root, (h00, h01, h11), (h11, -h01, h00)


def reduce_cm(V: np.ndarray) -> Reduction:
    """Normal form of a two-mode CM by local symplectics, in closed form.

    With ``S_X = M^{-1/2}`` for ``M = X/sqrt(det X)``, ``S_A A S_A = a I``
    and ``S_B B S_B = b I``.  The correlation block ``C' = S_A C S_B`` then
    has the signed singular value decomposition
    ``C' = R(alpha) diag(c, cp) R(beta)^T`` with ``c = Q + R`` and
    ``cp = Q - R``, where, from the entries m_ij of C',

        E, F, G, H = (m00 + m11)/2, (m00 - m11)/2, (m10 + m01)/2, (m10 - m01)/2,
        Q = hypot(E, H),  R = hypot(F, G),
        alpha - beta = atan2(H, E),  alpha + beta = atan2(G, F),

    so ``c >= |cp|`` and ``c cp = det C``; ``T_B^{-1} = M_B^{1/2} R(beta)``.
    A CM already in normal form is returned as it is, with ``T_B = I``; one
    whose block determinants pass the float range is reduced as its exact
    copy ``2^-k V`` (:func:`_reduce_scaled`).  Raises DomainError when V is
    not a 4x4 matrix of numbers, or when A or B is not positive definite.
    """
    return _reduce_rows(_cm_rows(V))


def _reduce_rows(rows) -> Reduction:
    """:func:`reduce_cm` of a CM already read by :func:`_cm_rows`."""
    (a00, a01, c00, c01), (v10, a11, c10, c11), (v20, v21, b00, b01), (v30, v31, v32, b11) = rows
    # max |V - nf| <= tol * max |V|, entry by entry, at every scale; the four
    # entries that define nf match themselves exactly, and a distance of 0
    # meets every bound.  Each other entry v is off its pattern entry p (0,
    # a00, b00, c00 or c11) by a term of the distance, exact when v and p are
    # within a factor 2 (Sterbenz) and at least |v|/2 when they are not, so
    # max |V| <= max |p| + distance unless the distance fails both bounds;
    # max |V| is read only where that bound lets the distance pass
    distance = max(abs(a01), abs(c01), abs(v10), abs(a11 - a00), abs(c10), abs(v20 - c00),
                   abs(v21), abs(b01), abs(v30), abs(v31 - c11), abs(v32), abs(b11 - b00))
    if distance == 0.0 or distance <= _PATTERN_RTOL * (
            max(abs(a00), abs(b00), abs(c00), abs(c11)) + distance
    ) and distance <= _PATTERN_RTOL * max(map(abs, sum(rows, []))):
        return _record(Reduction, (_record(NormalFormCM, (a00, b00, c00, c11)), _IDENTITY))
    # for floats x - y > 0 exactly when x > y; a product past the float range
    # leaves a determinant of inf or NaN, and only then is V scaled
    det_a, det_b = a00 * a11 - a01 * a01, b00 * b11 - b01 * b01
    if not (det_a < math.inf and det_b < math.inf):
        return _reduce_scaled(rows)
    if not (a00 > 0.0 and det_a > 0.0 and b00 > 0.0 and det_b > 0.0):
        raise DomainError("not positive definite")
    a, _, (p00, p01, p11) = _unit_det_sqrt(a00, a01, a11, det_a)
    b, (h00, h01, h11), (q00, q01, q11) = _unit_det_sqrt(b00, b01, b11, det_b)
    n00, n01 = p00 * c00 + p01 * c10, p00 * c01 + p01 * c11  # S_A C
    n10, n11 = p01 * c00 + p11 * c10, p01 * c01 + p11 * c11
    m00, m01 = n00 * q00 + n01 * q01, n00 * q01 + n01 * q11  # S_A C S_B
    m10, m11 = n10 * q00 + n11 * q01, n10 * q01 + n11 * q11
    e, f = 0.5 * (m00 + m11), 0.5 * (m00 - m11)
    g, h = 0.5 * (m10 + m01), 0.5 * (m10 - m01)
    q, r = math.hypot(e, h), math.hypot(f, g)
    beta = 0.5 * (math.atan2(g, f) - math.atan2(h, e))
    cb, sb = math.cos(beta), math.sin(beta)
    tb_inv = (h00 * cb + h01 * sb, h01 * cb - h00 * sb, h01 * cb + h11 * sb, h11 * cb - h01 * sb)
    return _record(Reduction, (_record(NormalFormCM, (a, b, q + r, q - r)), tb_inv))


def _reduce_scaled(rows) -> Reduction:
    """:func:`_reduce_rows` of the exact copy ``2^-k V``, the normal form scaled back by ``2^k``.

    k is the binary exponent of max |V| less one, so no product of the copy
    overflows; ``nf(2^-k V) = 2^-k nf(V)`` and ``tb_inv`` is the same map,
    exactly where no entry of the copy underflows.
    """
    k = math.frexp(max(map(abs, sum(rows, []))))[1] - 1
    nf, tb_inv = _reduce_rows([[math.ldexp(x, -k) for x in row] for row in rows])
    s = 2.0**k
    nf = _record(NormalFormCM, (nf.a * s, nf.b * s, nf.c * s, nf.cp * s))
    return _record(Reduction, (nf, tb_inv))


def normal_form_from_cm(V: np.ndarray) -> NormalFormCM:
    """Normal form (a, b, c, cp) of a two-mode CM: the ``nf`` of :func:`reduce_cm`."""
    return reduce_cm(V).nf


# a variance this close below 1 is rounding of the vacuum value and passes
_VARIANCE_SLACK = 1e-12


def check_variance(x: float, what: str) -> None:
    """Raise DomainError unless ``x`` is a finite quadrature variance >= 1.

    The one domain check on local and EPR variances; NaN and inf fail it.
    """
    if not 1.0 - _VARIANCE_SLACK <= x < math.inf:
        raise DomainError(f"{what} must be finite and >= 1, got {x}")


def squeezed_thermal_bound(a, b):
    """Largest c^2 compatible with a squeezed thermal state V(a, b, c, -c); floats or arrays."""
    return a * b - 1.0 - abs(a - b)


def epr_cm(b: float, sign: int = 1) -> np.ndarray:
    """CM of an EPR state: blocks b*I and ``sign*sqrt(b^2-1)*diag(1,-1)``."""
    check_variance(b, "EPR variance")
    if sign not in (1, -1):
        raise DomainError(f"EPR correlation sign must be +1 or -1, got {sign}")
    corr = sign * math.sqrt(max(b * b - 1.0, 0.0))
    return embed_normal_form(NormalFormCM(b, b, corr, -corr))


class SymplecticSpectrum(NamedTuple):
    nu_minus: float
    nu_plus: float


# a discriminant at or above -DISC_TOL is rounding and reads as zero; below
# it the parameters are no CM
_DISC_TOL = 1e-9
_NEGATIVE_DISC = "negative symplectic discriminant {}; input is not a valid CM"


def normal_form_spectrum(nf: NormalFormCM) -> SymplecticSpectrum:
    """Symplectic eigenvalues of ``embed_normal_form(nf)``, in closed form.

    Raises NumericalFailure when the discriminant is negative beyond
    tolerance, which indicates a corrupted input.
    """
    _, disc, nu_minus, nu_plus, _ = _verdict(nf.a, nf.b, nf.c, nf.cp)
    if disc < -_DISC_TOL:
        raise NumericalFailure(_NEGATIVE_DISC.format(disc))
    return _record(SymplecticSpectrum, (nu_minus, nu_plus))


def symplectic_spectrum(V: np.ndarray) -> SymplecticSpectrum:
    """Symplectic eigenvalues of a 4x4 CM, sorted ascending.

    :func:`normal_form_spectrum` of the normal form of :func:`reduce_cm`.
    Raises DomainError when A or B is not positive definite, and
    NumericalFailure as :func:`normal_form_spectrum` does.
    """
    return normal_form_spectrum(reduce_cm(V).nf)


def symplectic_spectrum_eigen(V: np.ndarray) -> SymplecticSpectrum:
    """Spectrum via the moduli of the eigenvalues of i*Omega*V.

    Independent of the closed form above; used as a cross-checking oracle.
    V is one CM, which gives float fields, or an (n, 4, 4) stack, which
    gives lists of n floats from one eigensolver call.
    """
    omega = np.array([[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]])
    eig = np.linalg.eigvals(1j * omega @ np.asarray(V, float))
    mods = np.sort(np.abs(eig), axis=-1)
    # eigenvalues come in +-nu pairs
    return SymplecticSpectrum(*mods[..., [0, 2]].T.tolist())


def _verdict(a, b, c, cp, xp=math, largest=max):
    """(ok, disc, nu_minus, nu_plus, indefinite) of V(a, b, c, cp): the one bona fide rule.

    Floats, or arrays with ``xp=np, largest=_array_max``.  All is read on the
    copy ``(a, b, c, cp) 2^-k``, k the binary exponent of the largest
    |parameter| less one (0 where one is inf or NaN, which no verdict
    accepts), so no product overflows; nu scales back by ``2^k``
    and disc by ``2^4k``, exactly: to the bits of an unscaled reading wherever
    that neither overflows nor underflows, and to +-inf past the float range
    (``1e308, 1e308, 9e307, 9e307`` has nu_plus = 1.9e308).

    ``nu_pm^2 = (Delta +- sqrt(disc)) / 2`` with ``Delta = a^2 + b^2 + 2 c cp``
    and ``disc = Delta^2 - 4 det V``, read as the identical
    ``(a^2 - b^2)^2 + 4 (ac + b cp)(bc + a cp)``: near a degenerate spectrum
    (pure states have a = b and cp = -c) the difference form is rounding of
    either sign, which the square root lifts to ~1e-8 in nu_minus.  nu_minus
    is ``sqrt(det_q det_p) / nu_plus``, as ``det V = det_q det_p`` for the
    block determinants ``ab - c^2`` and ``ab - cp^2``; it does not cancel where
    ``Delta - sqrt(disc)`` does, at nu_minus << nu_plus (``1e16, 3, 0, 0`` has
    nu_minus = 3), and a zero nu_plus divides by 1.  A negative disc, nu^2 or
    determinant reads as zero (``0.5 * (x + abs(x))`` is ``max(x, 0)`` exactly).

    ok iff V is positive definite (``a > 0``, ``det_q, det_p > 0``) with a
    real spectrum, ``disc >= -_DISC_TOL`` in the input's units, and
    ``nu_minus >= 1 - BONA_FIDE_TOL``; a positive definite V has ``a, b >=
    nu_minus``, so no ``a, b >= 1`` term is needed, and NaN fails every
    comparison.  ``indefinite`` (``a < 0`` or a negative determinant) names a
    rejection's reason.
    """
    # frexp's mantissa is in [0.5, 1) or 0, and inf or NaN with exponent 0 for a
    # non-finite parameter, which takes k = 0 so that no ldexp overflows
    mantissa, k = xp.frexp(largest(abs(a), abs(b), abs(c), abs(cp)))
    k = k - (mantissa < 1.0)
    ldexp, sqrt = xp.ldexp, xp.sqrt
    a, b, c, cp = ldexp(a, -k), ldexp(b, -k), ldexp(c, -k), ldexp(cp, -k)
    ab = a * b
    delta = a * a + b * b + 2.0 * c * cp
    det_q, det_p = ab - c * c, ab - cp * cp
    diff = a * a - b * b
    disc = diff * diff + 4.0 * ((a * c + b * cp) * (b * c + a * cp))
    hi = delta + sqrt(0.5 * (disc + abs(disc)))  # 2 nu_plus^2
    nu_plus = sqrt(0.25 * (hi + abs(hi)))
    root_det = sqrt(0.5 * (det_q + abs(det_q))) * sqrt(0.5 * (det_p + abs(det_p)))
    nu_minus = root_det / (nu_plus + (nu_plus == 0.0))
    s = 2.0**k  # finite, as -1074 <= k <= 1023; a product past the range is inf, not an error
    disc, nu_minus, nu_plus = disc * s * s * s * s, nu_minus * s, nu_plus * s
    ok = (a > 0.0) & (det_q > 0.0) & (det_p > 0.0) & (disc >= -_DISC_TOL) \
        & (nu_minus >= 1.0 - BONA_FIDE_TOL)
    return ok, disc, nu_minus, nu_plus, (a < 0.0) | (det_q < 0.0) | (det_p < 0.0)


def bona_fide_normal_form_mask(a, b, c, cp) -> np.ndarray:
    """Vectorized uncertainty-principle test for normal-form parameters.

    :func:`_verdict` on arrays: the rule :func:`validate_bona_fide` reads,
    entry by entry and bit for bit, at every finite scale; inf and NaN
    entries give False, without a floating-point warning.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        arrays = (np.asarray(x, float) for x in (a, b, c, cp))
        return _verdict(*arrays, np, _array_max)[0]


def _array_max(w, x, y, z):
    """Elementwise max of four arrays, the ``largest`` of :func:`_verdict` on arrays."""
    return np.maximum(np.maximum(w, x), np.maximum(y, z))


class BonaFideDiagnosis(NamedTuple):
    """Result of the uncertainty-principle check on a CM.

    ``nu_min`` and ``nu_plus`` are the spectrum, where computed, and
    ``reduction`` the :func:`reduce_cm` record of an accepted state.
    """

    bona_fide: bool
    nu_min: float | None
    reason: str | None = None
    nu_plus: float | None = None
    reduction: Reduction | None = None

    def __bool__(self) -> bool:
        return self.bona_fide


def validate_bona_fide(V) -> BonaFideDiagnosis:
    """Check a 4x4 CM against the uncertainty principle.

    Never raises: every failure mode is reported in the diagnosis.  A state
    is accepted iff its smallest symplectic eigenvalue is >= 1 -
    BONA_FIDE_TOL and it is positive definite, which the spectrum alone
    cannot tell (V and -V have the same one).  Both are read off the normal
    form of :func:`reduce_cm` by :func:`_verdict`: local symplectics keep
    the spectrum and, as a congruence, the signs of the eigenvalues; a normal
    form with a negative variance or block determinant is reported as "not
    positive definite".  For the squeezed-thermal subclass (cp = -c) the
    eigenvalue test is equivalent to the parameter bound c^2 <= a*b - 1 -
    |a - b|, which is quoted in the diagnosis when it is the constraint that
    failed.
    A V that fails the gate of :func:`_cm_rows` is reported with its reason.
    A spectrum past the float range has ``nu_plus = inf``.
    """
    try:
        rows = _cm_rows(V)
    except DomainError as exc:
        return BonaFideDiagnosis(False, None, str(exc))
    return _diagnose(rows)


def _diagnose(rows) -> BonaFideDiagnosis:
    """:func:`validate_bona_fide` of rows read by :func:`_cm_rows`, for a caller that holds them."""
    try:
        red = _reduce_rows(rows)
    except DomainError as exc:
        return BonaFideDiagnosis(False, None, str(exc))
    a, b, c, cp = red.nf
    ok, disc, nu_minus, nu_plus, indefinite = _verdict(a, b, c, cp)
    if ok:
        return _record(BonaFideDiagnosis, (True, nu_minus, None, nu_plus, red))
    if disc < -_DISC_TOL:
        return BonaFideDiagnosis(False, None, _NEGATIVE_DISC.format(disc))
    # an indefinite V (a negative variance or block determinant) is named before
    # nu_minus, which is no spectrum of it; a semidefinite V keeps its real
    # spectrum (nu_min = 0) as the reason.  NaN reads as nu_min < 1
    if nu_minus >= 1.0 - BONA_FIDE_TOL or indefinite:
        return BonaFideDiagnosis(False, None, "not positive definite")
    reason = f"nu_min = {nu_minus:.12g} < 1"
    if abs(cp + c) <= 1e-9 * max(1.0, abs(c)):
        bound = squeezed_thermal_bound(a, b)
        if c * c > bound:
            reason += (
                f"; squeezed-thermal bound violated: c^2 = {c * c:.12g}"
                f" > ab - 1 - |a - b| = {bound:.12g}"
            )
    return BonaFideDiagnosis(False, nu_minus, reason, nu_plus)
