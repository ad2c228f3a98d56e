"""Von Neumann entropy of Gaussian states, in bits.

All entropies are built from the thermal entropy function ``h`` applied to
symplectic eigenvalues.  ``h(x)`` is the entropy of a single-mode thermal
state with quadrature variance ``x = 2*nbar + 1``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .symplectic import symplectic_spectrum

# Floating-point spectra of pure states may dip slightly below 1; values in
# [1 - H_CLAMP_TOL, 1] are treated as exactly 1.
H_CLAMP_TOL = 1e-9
_FOCK_TAIL = 1e-15


def h(x: float) -> float:
    """Thermal entropy function, strictly increasing with h(1) = 0.

    ``h(x) = ((x+1)/2) log2((x+1)/2) - ((x-1)/2) log2((x-1)/2)``.
    """
    if x < 1.0 - H_CLAMP_TOL:
        raise DomainError(f"entropy argument must be >= 1, got {x}")
    if x <= 1.0:
        return 0.0
    xp = 0.5 * (x + 1.0)
    xm = 0.5 * (x - 1.0)
    return xp * math.log2(xp) - xm * math.log2(xm)


def entropy_single_mode(cm: np.ndarray) -> float:
    """Entropy of a single-mode Gaussian state: ``h(sqrt(det cm))``."""
    cm = np.asarray(cm, float)
    det = float(cm[0, 0] * cm[1, 1] - cm[0, 1] * cm[1, 0])
    if det < 0.0:
        raise DomainError(f"single-mode CM has negative determinant {det}")
    return h(math.sqrt(det))


def entropy_two_mode(V: np.ndarray) -> float:
    """Entropy of a two-mode Gaussian state: ``h(nu_minus) + h(nu_plus)``."""
    nu = symplectic_spectrum(V)
    return h(nu.nu_minus) + h(nu.nu_plus)


def thermal_entropy_fock(x: float) -> float:
    """Thermal entropy by direct number-basis summation.

    Independent oracle for ``h``: sums ``-p_n log2 p_n`` for the geometric
    photon-number distribution ``p_n = nbar^n / (nbar+1)^(n+1)`` until the
    remaining probability mass drops below ``_FOCK_TAIL``.
    """
    if x < 1.0:
        raise DomainError(f"thermal variance must be >= 1, got {x}")
    nbar = 0.5 * (x - 1.0)
    if nbar <= 0.0:
        return 0.0
    q = nbar / (nbar + 1.0)
    p = 1.0 / (nbar + 1.0)
    total = 0.0
    pn = p
    remaining = 1.0
    n = 0
    while remaining > _FOCK_TAIL and n < 100_000:
        if pn > 0.0:
            total -= pn * math.log2(pn)
        remaining -= pn
        pn *= q
        n += 1
    return total
