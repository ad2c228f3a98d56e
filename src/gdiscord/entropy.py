"""Von Neumann entropy of Gaussian states, in bits.

All entropies are built from the thermal entropy function ``h`` applied to
symplectic eigenvalues.  ``h(x)`` is the entropy of a single-mode thermal
state with quadrature variance ``x = 2*nbar + 1``.
"""

from __future__ import annotations

import math

from .errors import DomainError

# Floating-point spectra of pure states may dip slightly below 1; values in
# [1 - H_CLAMP_TOL, 1] are treated as exactly 1.  h must accept every
# nu_minus the bona fide test admits, so the two tolerances are one:
# symplectic.BONA_FIDE_TOL is this constant.  It lives here, so that this
# module imports no CM algebra and a command that reads no state loads none.
H_CLAMP_TOL = 1e-9
_FOCK_TAIL = 1e-15
_LN2 = math.log(2.0)


def h(x: float) -> float:
    """Thermal entropy function, strictly increasing with h(1) = 0.

    ``h(x) = ((x+1)/2) log2((x+1)/2) - ((x-1)/2) log2((x-1)/2)``, evaluated as
    ``(log1p(xm) + xm log1p(1/xm)) / ln 2``, ``xm = (x-1)/2``, whose terms never cancel.
    """
    if not 1.0 - H_CLAMP_TOL <= x < math.inf:
        raise DomainError(f"entropy argument must be finite and >= 1, got {x}")
    if x <= 1.0:
        return 0.0
    xm = 0.5 * (x - 1.0)
    return (math.log1p(xm) + xm * math.log1p(1.0 / xm)) / _LN2


def entropy_two_mode(V) -> float:
    """Entropy of a two-mode Gaussian state of 4x4 CM V: ``h(nu_minus) + h(nu_plus)``."""
    from .symplectic import symplectic_spectrum

    nu = symplectic_spectrum(V)
    return h(nu.nu_minus) + h(nu.nu_plus)


def thermal_entropy_fock(x: float) -> float:
    """Thermal entropy by direct number-basis summation.

    Independent oracle for ``h``: sums ``-p_n log2 p_n`` for the geometric
    photon-number distribution ``p_n = nbar^n / (nbar+1)^(n+1)`` until the
    remaining probability mass drops below ``_FOCK_TAIL``.
    """
    if not 1.0 <= x < math.inf:
        raise DomainError(f"thermal variance must be finite and >= 1, got {x}")
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
