"""Fixed-size covariance-matrix algebra for one- and two-mode Gaussian states.

Conventions used throughout the package:

* quadrature ordering ``(q_A, p_A, q_B, p_B)``,
* vacuum covariance matrix equal to the identity, so a thermal state with
  mean photon number ``nbar`` has variance ``2*nbar + 1``,
* single-mode symplectic form ``Omega = [[0, 1], [-1, 0]]``,
* annihilation operator ``a = (q + i*p) / 2``.

A two-mode covariance matrix (CM) is a plain 4x4 ``numpy`` array with block
structure ``[[A, C], [C.T, B]]``, where A, B, C are 2x2 real blocks and A, B
are symmetric.  Normal-form states are the subset with ``A = a*I``,
``B = b*I`` and ``C = diag(c, cp)``; every CM with positive definite A and B
reaches one by local symplectics, in closed form (:func:`reduce_cm`), and
validation and the spectrum read that reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericalFailure

# Uncertainty-principle tolerance: states with nu_min >= 1 - BONA_FIDE_TOL are
# accepted, so boundary (quantum-limited) states pass.
BONA_FIDE_TOL = 1e-9
SYMMETRY_RTOL = 1e-12

OMEGA_1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
OMEGA_2 = np.block(
    [[OMEGA_1, np.zeros((2, 2))], [np.zeros((2, 2)), OMEGA_1]]
)
Z = np.diag([1.0, -1.0])
I2 = np.eye(2)


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


def block_a(V: np.ndarray) -> np.ndarray:
    """Upper-left (mode A) 2x2 block."""
    return np.asarray(V, dtype=float)[:2, :2]


def block_b(V: np.ndarray) -> np.ndarray:
    """Lower-right (mode B) 2x2 block."""
    return np.asarray(V, dtype=float)[2:, 2:]


def block_c(V: np.ndarray) -> np.ndarray:
    """Upper-right (correlation) 2x2 block."""
    return np.asarray(V, dtype=float)[:2, 2:]


def assemble_cm(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Assemble a 4x4 CM from blocks A, B and the correlation block C."""
    A = np.asarray(A, float)
    B = np.asarray(B, float)
    C = np.asarray(C, float)
    return np.block([[A, C], [C.T, B]])


@dataclass(frozen=True)
class NormalFormCM:
    """Normal-form parameters (a, b, c, cp) of a two-mode Gaussian state.

    ``a`` and ``b`` are the local variances of modes A and B, ``c`` and
    ``cp`` the two correlation parameters on the diagonal of the C block.
    """

    a: float
    b: float
    c: float
    cp: float

    def to_matrix(self) -> np.ndarray:
        return embed_normal_form(self)


def embed_normal_form(nf: NormalFormCM) -> np.ndarray:
    """Embed normal-form parameters into the full 4x4 covariance matrix."""
    a, b, c, cp = nf.a, nf.b, nf.c, nf.cp  # written out: np.block is ten times slower
    rows = [[a, 0.0, c, 0.0], [0.0, a, 0.0, cp], [c, 0.0, b, 0.0], [0.0, cp, 0.0, b]]
    return np.array(rows, dtype=float)


class Reduction(NamedTuple):
    """A CM's normal form and the local map that carries it back on mode B.

    Local symplectics ``T_A (+) T_B`` take the CM to ``nf.to_matrix()``;
    ``tb_inv`` is ``T_B^{-1}`` row-major, so a measurement seed ``sigma`` on
    the normal form is the seed ``T_B^{-1} sigma T_B^{-T}`` on the CM.
    """

    nf: NormalFormCM
    tb_inv: tuple[float, float, float, float]


# a CM within this relative distance of its normal-form pattern is read as
# that normal form, keeping its own bits and (c, cp) order
_PATTERN_RTOL = 1e-13
_IDENTITY = (1.0, 0.0, 0.0, 1.0)


def _unit_det_sqrt(x00: float, x01: float, x11: float):
    """(sqrt(det X), M^{1/2}, M^{-1/2}) of a positive definite 2x2 X, M = X/sqrt(det X).

    For ``det M = 1``, ``M^{+-1/2} = (M + I)/s`` and ``(adj M + I)/s`` with
    ``s = sqrt(tr M + 2)``; each matrix is returned as (m00, m01, m11).
    """
    root = math.sqrt(x00 * x11 - x01 * x01)
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
    A CM already in normal form is returned as it is, with ``T_B = I``.
    Raises DomainError when A or B is not positive definite.
    """
    V = np.asarray(V, float)
    if V.shape != (4, 4):
        raise DomainError(f"expected a 4x4 covariance matrix, got shape {V.shape}")
    (a00, a01, c00, c01), (_, a11, c10, c11), (_, _, b00, b01), (_, _, _, b11) = V.tolist()
    nf = NormalFormCM(a=a00, b=b00, c=c00, cp=c11)
    if np.abs(V - embed_normal_form(nf)).max() <= _PATTERN_RTOL * max(1.0, np.abs(V).max()):
        return Reduction(nf, _IDENTITY)
    if not (a00 > 0.0 and a00 * a11 > a01 * a01 and b00 > 0.0 and b00 * b11 > b01 * b01):
        raise DomainError("not positive definite")
    a, _, (p00, p01, p11) = _unit_det_sqrt(a00, a01, a11)
    b, (h00, h01, h11), (q00, q01, q11) = _unit_det_sqrt(b00, b01, b11)
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
    return Reduction(NormalFormCM(a=a, b=b, c=q + r, cp=q - r), tb_inv)


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
    corr = sign * np.sqrt(max(b * b - 1.0, 0.0))
    return assemble_cm(b * I2, b * I2, corr * Z)


class SymplecticSpectrum(NamedTuple):
    nu_minus: float
    nu_plus: float


# delta^2 - 4 det V carries rounding of order eps * delta^2; below this share
# of delta^2 it has lost its digits and the sum form below is used instead
_CANCELLED_SHARE = 1e-8
# a discriminant at or above -DISC_TOL is rounding and reads as zero; below
# it the parameters are no CM
_DISC_TOL = 1e-9
_NEGATIVE_DISC = "negative symplectic discriminant {}; input is not a valid CM"


def _pick(cond, x, y):
    return x if cond else y


def _spectrum_arrays(a, b, c, cp, sqrt=np.sqrt, where=np.where):
    """(disc, nu_minus, nu_plus) of V(a, b, c, cp); arrays, or floats with ``math.sqrt, _pick``.

    ``nu_pm^2 = (Delta +- sqrt(Delta^2 - 4 det V)) / 2`` with
    ``Delta = a^2 + b^2 + 2 c cp`` and ``det V = (ab - c^2)(ab - cp^2)``.  The
    discriminant equals ``(a^2 - b^2)^2 + 4 (ac + b cp)(bc + a cp)``, which
    keeps its digits near a degenerate spectrum: there (pure states have
    a = b and cp = -c) the difference is rounding of either sign, which the
    square root lifts to ~1e-8 in nu_minus, so a locally transformed pure
    state would fail the bona fide test.  Away from it the difference is
    kept, so those results keep their bits.  A negative discriminant or nu^2
    reads as zero (``0.5 * (x + abs(x))`` is ``max(x, 0)`` exactly, for floats
    and arrays alike); callers reject a discriminant below ``-_DISC_TOL``.
    """
    ab = a * b
    delta = a * a + b * b + 2.0 * c * cp
    disc = delta * delta - 4.0 * ((ab - c * c) * (ab - cp * cp))
    diff = a * a - b * b
    disc = where(
        disc < _CANCELLED_SHARE * (delta * delta),
        diff * diff + 4.0 * ((a * c + b * cp) * (b * c + a * cp)),
        disc,
    )
    root = sqrt(0.5 * (disc + abs(disc)))
    lo, hi = delta - root, delta + root  # 2 nu^2
    return disc, sqrt(0.25 * (lo + abs(lo))), sqrt(0.25 * (hi + abs(hi)))


def normal_form_spectrum(nf: NormalFormCM) -> SymplecticSpectrum:
    """Symplectic eigenvalues of ``nf.to_matrix()``, in closed form.

    Raises NumericalFailure when the discriminant is negative beyond
    tolerance, which indicates a corrupted input.
    """
    disc, nu_minus, nu_plus = _spectrum_arrays(nf.a, nf.b, nf.c, nf.cp, math.sqrt, _pick)
    if disc < -_DISC_TOL:
        raise NumericalFailure(_NEGATIVE_DISC.format(disc))
    return SymplecticSpectrum(nu_minus, nu_plus)


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
    """
    eig = np.linalg.eigvals(1j * OMEGA_2 @ np.asarray(V, float))
    mods = np.sort(np.abs(eig))
    # eigenvalues come in +-nu pairs
    return SymplecticSpectrum(float(mods[0]), float(mods[2]))


def _bona_fide_verdict(a, b, c, cp, sqrt=np.sqrt, where=np.where):
    """(ok, disc, nu_minus, nu_plus) of V(a, b, c, cp); the one bona fide rule.

    ``ok`` holds iff V is positive definite (``a > 0`` and ``ab > c^2, cp^2``)
    and its spectrum is real with ``nu_minus >= 1 - BONA_FIDE_TOL``.  Arrays,
    or floats with ``math.sqrt, _pick`` as for :func:`_spectrum_arrays`; NaN
    fails every comparison, so a non-finite input is never ok.  No ``a, b >=
    1`` term is needed: a positive definite V has ``a, b >= nu_minus``.
    """
    disc, nu_minus, nu_plus = _spectrum_arrays(a, b, c, cp, sqrt, where)
    ab = a * b
    ok = (a > 0.0) & (ab > c * c) & (ab > cp * cp) & (disc >= -_DISC_TOL) \
        & (nu_minus >= 1.0 - BONA_FIDE_TOL)
    return ok, disc, nu_minus, nu_plus


def bona_fide_normal_form_mask(a, b, c, cp) -> np.ndarray:
    """Vectorized uncertainty-principle test for normal-form parameters.

    The array call of the verdict :func:`validate_bona_fide` reads; inf
    entries give False, without a floating-point warning.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        return _bona_fide_verdict(*(np.asarray(x, float) for x in (a, b, c, cp)))[0]


@dataclass(frozen=True)
class BonaFideDiagnosis:
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


def validate_bona_fide(V: np.ndarray) -> BonaFideDiagnosis:
    """Check a 4x4 CM against the uncertainty principle.

    Never raises: every failure mode is reported in the diagnosis.  A state
    is accepted iff its smallest symplectic eigenvalue is >= 1 -
    BONA_FIDE_TOL and it is positive definite, which the spectrum alone
    cannot tell (V and -V have the same one).  Both are read off the normal
    form of :func:`reduce_cm` by :func:`_bona_fide_verdict`: local
    symplectics keep the spectrum and, as a congruence, the signs of the
    eigenvalues.  For the squeezed-thermal subclass (cp = -c) the eigenvalue
    test is equivalent to the parameter bound c^2 <= a*b - 1 - |a - b|,
    which is quoted in the diagnosis when it is the constraint that failed.
    """
    V = np.asarray(V, dtype=float)
    if V.shape != (4, 4):
        return BonaFideDiagnosis(False, None, f"expected 4x4 matrix, got {V.shape}")
    if not np.isfinite(V).all():
        return BonaFideDiagnosis(False, None, "matrix contains non-finite entries")
    scale = max(1.0, float(np.abs(V).max()))
    asym = float(np.abs(V - V.T).max())
    if asym > SYMMETRY_RTOL * scale:
        return BonaFideDiagnosis(False, None, f"not symmetric (max asymmetry {asym:.3e})")
    try:
        red = reduce_cm(V)
    except DomainError as exc:
        return BonaFideDiagnosis(False, None, str(exc))
    a, b, c, cp = red.nf.a, red.nf.b, red.nf.c, red.nf.cp
    ok, disc, nu_minus, nu_plus = _bona_fide_verdict(a, b, c, cp, math.sqrt, _pick)
    if ok:
        return BonaFideDiagnosis(True, nu_minus, nu_plus=nu_plus, reduction=red)
    if disc < -_DISC_TOL:
        return BonaFideDiagnosis(False, None, _NEGATIVE_DISC.format(disc))
    if not nu_minus >= 1.0 - BONA_FIDE_TOL:  # also NaN, from an overflowed spectrum
        reason = f"nu_min = {nu_minus:.12g} < 1"
        if abs(cp + c) <= 1e-9 * max(1.0, abs(c)):
            bound = squeezed_thermal_bound(a, b)
            if c * c > bound:
                reason += (
                    f"; squeezed-thermal bound violated: c^2 = {c * c:.12g}"
                    f" > ab - 1 - |a - b| = {bound:.12g}"
                )
        return BonaFideDiagnosis(False, nu_minus, reason, nu_plus)
    return BonaFideDiagnosis(False, None, "not positive definite")
