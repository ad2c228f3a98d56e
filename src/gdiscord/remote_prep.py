"""Gaussian measurement conditioning on one mode of a two-mode Gaussian state.

A rank-one Gaussian measurement is a displaced projection onto a pure
Gaussian seed state with CM ``V0 = R(phi) diag(u, 1/u) R(phi)^T``.  The
special cases are heterodyne detection (``u = 1``) and the two homodyne
detections, reached as the limits ``u -> 0`` (measuring the ``phi``
quadrature) and ``u -> +inf``.

Measuring mode B with outcome ``k`` (a real 2-vector ``(q, p)``):

* outcome distribution: Gaussian with mean ``xB`` and covariance ``B + V0``,
* conditional mean of A: ``xA - C (B + V0)^{-1} (xB - k)``,
* conditional CM of A:   ``A - C (B + V0)^{-1} C^T`` (outcome-independent).

Every conditioning formula goes through one kernel on a CM's entries,
``_conditioning``, which forms ``(B + V0)^{-1}`` with ``u = x/y`` in
homogeneous weights.  With ``r = (cos phi, sin phi)`` and ``s = (-sin phi, cos phi)``,

    (B + V0)^{-1} = (xy adj B + x^2 s s^T + y^2 r r^T)
                    / (xy (det B + 1) + x^2 s^T B s + y^2 r^T B r).

``(x, y) = (u, 1)`` is a seed with u <= 1 and ``(1, 1/u)`` one with u > 1,
so no weight exceeds 1; ``(0, 1)`` is homodyne detection of the ``r``
quadrature (u -> 0) and ``(1, 0)`` of the ``s`` quadrature (u -> inf).  For
positive definite B every term is nonnegative, so no limit needs a branch
and no term cancels at large or small u.  The kernel is
``_conditioning(rows, x, y, phi)``: the CM's row-major entries, the seed's
weights and its angle, which the public functions pass as ``*m.weights,
m.phi`` and the discord route as the (u, phi) it has chosen.  It returns
``L = C (B + V0)^{-1}`` and ``D = A - L C^T``.  ``_conditioned_state``
turns them into the unmeasured mode's ``(mean, cm)`` as floats, with plain
float operations, for either measured mode; ``gdiscord condition`` prints
it, and ``condition_on_outcome`` and ``conditioning_on_mode_A`` are its
array views, as ``conditional_mean_map`` and ``conditional_cm`` are the
kernel's.  A denominator past the float range (``det B + 1``
overflows for variances above about 1.3e154) leaves no finite inverse, and
raises NumericalFailure rather than reading ``(B + V0)^{-1}`` as 0.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import _numpy as np
from .errors import DomainError, NumericalFailure
from .symplectic import _cm_rows, check_variance, rotation_matrix


class _MeasurementFields(NamedTuple):
    u: float
    phi: float = 0.0


class GaussianMeasurement(_MeasurementFields):
    """Rank-one Gaussian POVM with pure seed CM ``R(phi) diag(u, 1/u) R(phi)^T``.

    ``u == 0`` and ``u == inf`` tag the two homodyne limits; any finite
    ``u > 0`` is an ordinary squeezed-state quasi-projection, with ``u == 1``
    being heterodyne detection.  ``phi`` must be finite, and is reduced
    modulo pi.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, u: float, phi: float = 0.0):
        value = float(u)
        if math.isnan(value) or value < 0.0:
            raise DomainError(f"measurement squeezing u must be >= 0, got {u}")
        angle = float(phi)
        if not math.isfinite(angle):
            raise DomainError(f"measurement angle phi must be finite, got {phi}")
        return super().__new__(cls, value, angle % math.pi)

    @classmethod
    def heterodyne(cls) -> "GaussianMeasurement":
        return cls(1.0)

    @classmethod
    def homodyne_q(cls, phi: float = 0.0) -> "GaussianMeasurement":
        """Sharp measurement of the ``phi``-rotated q quadrature (u -> 0)."""
        return cls(0.0, phi)

    @classmethod
    def homodyne_p(cls, phi: float = 0.0) -> "GaussianMeasurement":
        """Sharp measurement of the ``phi``-rotated p quadrature (u -> inf)."""
        return cls(math.inf, phi)

    @property
    def is_homodyne(self) -> bool:
        return self.u == 0.0 or math.isinf(self.u)

    @property
    def weights(self) -> tuple[float, float]:
        """Homogeneous seed weights ``(x, y)`` with ``u = x/y``, neither above 1."""
        return (1.0, 1.0 / self.u) if self.u > 1.0 else (self.u, 1.0)

    def seed_cm(self) -> np.ndarray:
        """Seed CM for finite u; the homodyne limits have no finite seed."""
        if self.is_homodyne:
            raise DomainError("homodyne limits have no finite seed CM")
        R = rotation_matrix(self.phi)
        return R @ np.diag([self.u, 1.0 / self.u]) @ R.T


def _conditioning(rows, x: float, y: float, phi: float):
    """``(L, D)`` for measuring mode B of the CM with row-major entries ``rows``.

    The seed has weights ``(x, y)``, ``u = x/y``, and angle ``phi``, as in a
    :class:`GaussianMeasurement`'s ``weights`` and ``phi``.
    ``L = C (B + V0)^{-1}`` and ``D = A - L C^T``, each as 2x2 nested tuples
    of floats, with ``(B + V0)^{-1}`` from the module formula.  Raises
    NumericalFailure when B is not positive definite, or when the formula's
    denominator is not finite.
    """
    (a00, a01, c00, c01), (a10, a11, c10, c11), (_, _, b00, b01), (_, _, _, b11) = rows
    if not (b00 > 0.0 and b00 * b11 - b01 * b01 > 0.0):
        raise NumericalFailure("B block is not positive definite; cannot condition")
    cos_phi, sin_phi = math.cos(phi), math.sin(phi)
    cc, ss, cs = cos_phi * cos_phi, sin_phi * sin_phi, cos_phi * sin_phi
    xx, yy, xy = x * x, y * y, x * y
    rbr = b00 * cc + 2.0 * b01 * cs + b11 * ss
    sbs = b00 * ss - 2.0 * b01 * cs + b11 * cc
    den = xy * (b00 * b11 - b01 * b01 + 1.0) + xx * sbs + yy * rbr
    if not math.isfinite(den):  # (B + V0)^{-1} would read as 0, or as NaN at xy = 0
        raise NumericalFailure("conditional CM is not finite")
    i00 = (xy * b11 + xx * ss + yy * cc) / den
    i01 = ((yy - xx) * cs - xy * b01) / den
    i11 = (xy * b00 + xx * cc + yy * ss) / den
    l00, l01 = c00 * i00 + c01 * i01, c00 * i01 + c01 * i11
    l10, l11 = c10 * i00 + c11 * i01, c10 * i01 + c11 * i11
    return ((l00, l01), (l10, l11)), (
        (a00 - (l00 * c00 + l01 * c01), a01 - (l00 * c10 + l01 * c11)),
        (a10 - (l10 * c00 + l11 * c01), a11 - (l10 * c10 + l11 * c11)),
    )


class _ConditionalFields(NamedTuple):
    mean: np.ndarray
    cm: np.ndarray


class ConditionalState(_ConditionalFields):
    """Single-mode Gaussian state: mean 2-vector plus 2x2 CM."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, mean: np.ndarray, cm: np.ndarray):
        return super().__new__(
            cls, np.asarray(mean, float).reshape(2), np.asarray(cm, float).reshape(2, 2))


def _conditioned_state(rows, mean, m: GaussianMeasurement, k, mode: str):
    """``(mean, cm)`` of the unmeasured mode, as tuples of floats.

    ``rows`` are the CM's row-major entries, ``mean`` the state's four means
    (None for zero), ``k`` the outcome ``(q, p)`` and ``mode`` the measured
    mode, "A" or "B".  The mean is ``x + L (k - x')`` in plain float
    operations, with ``(L, D)`` from :func:`_conditioning`; the CM is ``D``.
    Raises NumericalFailure when the conditional mean or CM is not finite.
    """
    mean = (0.0, 0.0, 0.0, 0.0) if mean is None else mean
    if mode == "A":  # A and B roles permuted
        rows = [row[2:] + row[:2] for row in rows[2:] + rows[:2]]
        mean = (*mean[2:], *mean[:2])
    ((l00, l01), (l10, l11)), cm = _conditioning(rows, *m.weights, m.phi)
    x0, x1, xb0, xb1 = mean
    s0, s1 = k[0] - xb0, k[1] - xb1
    out = (x0 + (l00 * s0 + l01 * s1), x1 + (l10 * s0 + l11 * s1))
    if not all(map(math.isfinite, out + cm[0] + cm[1])):
        raise NumericalFailure("conditional mean or CM is not finite")
    return out, cm


def _array_view(V, mean_AB, m: GaussianMeasurement, k, mode: str) -> ConditionalState:
    """:func:`_conditioned_state` of array-like arguments, as arrays."""
    mean = None if mean_AB is None else np.asarray(mean_AB, float).reshape(4).tolist()
    k = np.asarray(k, float).reshape(2).tolist()
    return ConditionalState(*_conditioned_state(_cm_rows(V), mean, m, k, mode))


def conditional_mean_map(V: np.ndarray, m: GaussianMeasurement) -> np.ndarray:
    """Linear map L = C (B + V0)^{-1} sending (k - xB) to the mean shift of A."""
    return np.array(_conditioning(_cm_rows(V), *m.weights, m.phi)[0])


def conditional_cm(V: np.ndarray, m: GaussianMeasurement) -> np.ndarray:
    """Outcome-independent conditional CM of mode A: ``A - C (B+V0)^{-1} C^T``."""
    return np.array(_conditioning(_cm_rows(V), *m.weights, m.phi)[1])


def condition_on_outcome(
    V: np.ndarray, mean_AB, m: GaussianMeasurement, k
) -> ConditionalState:
    """State of mode A after measuring mode B with outcome ``k``.

    Raises NumericalFailure when the conditional mean or CM is not finite.
    """
    return _array_view(V, mean_AB, m, k, "B")


def conditioning_on_mode_A(
    V: np.ndarray, mean_AB, m: GaussianMeasurement, k
) -> ConditionalState:
    """State of mode B after measuring mode A (A and B roles permuted)."""
    return _array_view(V, mean_AB, m, k, "A")


def epr_squeezing_range(mu: float, u: float) -> float:
    """Squeezing prepared on the far mode of an EPR state of variance ``mu``.

    Measuring one EPR mode with seed squeezing ``u`` projects the other onto
    a pure squeezed state with CM diag(r, 1/r), ``r = (1 + u*mu)/(u + mu)``.
    The homodyne endpoints give exactly ``r = 1/mu`` (u = 0) and ``r = mu``
    (u = inf); heterodyne gives ``r = 1`` (coherent states).
    """
    check_variance(mu, "EPR variance")
    u = GaussianMeasurement(u).u
    if u == 0.0:
        return 1.0 / mu
    if math.isinf(u):
        return mu
    return (1.0 + u * mu) / (u + mu)
