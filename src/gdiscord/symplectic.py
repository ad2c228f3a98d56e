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
``B = b*I`` and ``C = diag(c, cp)``.
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


def normal_form_from_cm(V: np.ndarray, rtol: float = 1e-9) -> NormalFormCM | None:
    """Extract (a, b, c, cp) if ``V`` already has normal-form structure.

    Returns None when the matrix is not (numerically) in normal form.  This
    is pattern matching only; no symplectic reduction is attempted.
    """
    V = np.asarray(V, float)
    if V.shape != (4, 4):
        return None
    nf = NormalFormCM(a=float(V[0, 0]), b=float(V[2, 2]),
                      c=float(V[0, 2]), cp=float(V[1, 3]))
    scale = max(1.0, float(np.abs(V).max()))
    if np.abs(V - embed_normal_form(nf)).max() > rtol * scale:
        return None
    return nf


@dataclass(frozen=True)
class EPRState:
    """Two-mode squeezed vacuum with variance ``b`` and correlation sign."""

    b: float
    sign: int = 1

    def cm(self) -> np.ndarray:
        return epr_cm(self.b, self.sign)


def epr_cm(b: float, sign: int = 1) -> np.ndarray:
    """CM of an EPR state: blocks b*I and ``sign*sqrt(b^2-1)*diag(1,-1)``."""
    if b < 1.0 - 1e-12:
        raise DomainError(f"EPR variance must be >= 1, got {b}")
    if sign not in (1, -1):
        raise DomainError(f"EPR correlation sign must be +1 or -1, got {sign}")
    corr = sign * np.sqrt(max(b * b - 1.0, 0.0))
    return assemble_cm(b * I2, b * I2, corr * Z)


class SymplecticSpectrum(NamedTuple):
    nu_minus: float
    nu_plus: float


def symplectic_spectrum(V: np.ndarray) -> SymplecticSpectrum:
    """Symplectic eigenvalues of a 4x4 CM, sorted ascending.

    Uses the closed form nu_pm^2 = (Delta +- sqrt(Delta^2 - 4 det V)) / 2
    with Delta = det A + det B + 2 det C.  For matrices with normal-form
    structure the determinants are evaluated from the four scalar
    parameters, which keeps the rounding of Delta^2 and 4 det V correlated;
    this matters for pure states, where the two terms cancel exactly and a
    generic LU determinant would split the degenerate spectrum by ~1e-8.
    Raises NumericalFailure when the discriminant is negative beyond
    tolerance, which indicates a non-symmetric or corrupted input.
    """
    V = np.asarray(V, float)
    if V.shape != (4, 4):
        raise DomainError(f"expected a 4x4 covariance matrix, got shape {V.shape}")
    nf = normal_form_from_cm(V, rtol=1e-13)
    if nf is not None:
        ab = nf.a * nf.b
        delta = nf.a * nf.a + nf.b * nf.b + 2.0 * nf.c * nf.cp
        det_v = (ab - nf.c * nf.c) * (ab - nf.cp * nf.cp)
    else:
        delta = (
            float(np.linalg.det(block_a(V)))
            + float(np.linalg.det(block_b(V)))
            + 2.0 * float(np.linalg.det(block_c(V)))
        )
        det_v = float(np.linalg.det(V))
    disc = delta * delta - 4.0 * det_v
    if disc < -1e-9:
        raise NumericalFailure(
            f"negative symplectic discriminant {disc}; input is not a valid CM"
        )
    root = math.sqrt(max(disc, 0.0))
    nu_minus = math.sqrt(max(0.5 * (delta - root), 0.0))
    nu_plus = math.sqrt(max(0.5 * (delta + root), 0.0))
    return SymplecticSpectrum(nu_minus, nu_plus)


def symplectic_spectrum_eigen(V: np.ndarray) -> SymplecticSpectrum:
    """Spectrum via the moduli of the eigenvalues of i*Omega*V.

    Independent of the closed form above; used as a cross-checking oracle.
    """
    eig = np.linalg.eigvals(1j * OMEGA_2 @ np.asarray(V, float))
    mods = np.sort(np.abs(eig))
    # eigenvalues come in +-nu pairs
    return SymplecticSpectrum(float(mods[0]), float(mods[2]))


def nu_min_normal_form(a, b, c, cp) -> np.ndarray:
    """Vectorized smallest symplectic eigenvalue of V(a, b, c, cp).

    Invalid parameter combinations (indefinite V) yield NaN.
    """
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    c = np.asarray(c, float)
    cp = np.asarray(cp, float)
    delta = a * a + b * b + 2.0 * c * cp
    det_v = (a * b - c * c) * (a * b - cp * cp)
    disc = delta * delta - 4.0 * det_v
    bad = disc < 0
    root = np.sqrt(np.where(bad, 0.0, disc))
    nu2 = 0.5 * (delta - root)
    nu = np.sqrt(np.maximum(nu2, 0.0))
    return np.where(bad, np.nan, nu)


def bona_fide_normal_form_mask(a, b, c, cp, tol: float = BONA_FIDE_TOL) -> np.ndarray:
    """Vectorized uncertainty-principle test for normal-form parameters."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    c = np.asarray(c, float)
    cp = np.asarray(cp, float)
    positive = (a >= 1.0 - tol) & (b >= 1.0 - tol) \
        & (a * b - c * c > 0) & (a * b - cp * cp > 0)
    nu = nu_min_normal_form(a, b, c, cp)
    return positive & ~np.isnan(nu) & (nu >= 1.0 - tol)


@dataclass(frozen=True)
class BonaFideDiagnosis:
    """Result of the uncertainty-principle check on a CM."""

    bona_fide: bool
    nu_min: float | None
    reason: str | None = None
    nu_plus: float | None = None  # with nu_min the spectrum, where computed

    def __bool__(self) -> bool:
        return self.bona_fide


def validate_bona_fide(V: np.ndarray, tol: float = BONA_FIDE_TOL) -> BonaFideDiagnosis:
    """Check a 4x4 CM against the uncertainty principle.

    Never raises: every failure mode is reported in the diagnosis.  A state
    is accepted iff its smallest symplectic eigenvalue is >= 1 - tol and it
    is positive definite, which the spectrum alone cannot tell (V and -V
    have the same one).  For the squeezed-thermal subclass (cp = -c) the
    eigenvalue test is equivalent to the parameter bound
    c^2 <= a*b - 1 - |a - b|, which is quoted in the diagnosis when it is
    the constraint that failed.
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
        nu = symplectic_spectrum(V)
    except NumericalFailure as exc:
        return BonaFideDiagnosis(False, None, str(exc))
    if nu.nu_minus >= 1.0 - tol:
        try:
            np.linalg.cholesky(V)
        except np.linalg.LinAlgError:
            return BonaFideDiagnosis(False, None, "not positive definite")
        return BonaFideDiagnosis(True, nu.nu_minus, nu_plus=nu.nu_plus)
    reason = f"nu_min = {nu.nu_minus:.12g} < 1"
    nf = normal_form_from_cm(V)
    if nf is not None and abs(nf.cp + nf.c) <= 1e-9 * max(1.0, abs(nf.c)):
        bound = nf.a * nf.b - 1.0 - abs(nf.a - nf.b)
        if nf.c * nf.c > bound:
            reason += (
                f"; squeezed-thermal bound violated: c^2 = {nf.c * nf.c:.12g}"
                f" > ab - 1 - |a - b| = {bound:.12g}"
            )
    return BonaFideDiagnosis(False, nu.nu_minus, reason, nu.nu_plus)


def is_bona_fide(V: np.ndarray, tol: float = BONA_FIDE_TOL) -> bool:
    return validate_bona_fide(V, tol=tol).bona_fide

