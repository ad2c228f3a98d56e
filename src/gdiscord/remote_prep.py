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

Every conditioning formula goes through one kernel, ``_inverse_matrix``,
which forms ``(B + V0)^{-1}`` with ``u = x/y`` in homogeneous weights.  With
``r = (cos phi, sin phi)`` and ``s = (-sin phi, cos phi)``,

    (B + V0)^{-1} = (xy adj B + x^2 s s^T + y^2 r r^T)
                    / (xy (det B + 1) + x^2 s^T B s + y^2 r^T B r).

``(x, y) = (u, 1)`` is a finite seed, ``(0, 1)`` homodyne detection of the
``r`` quadrature (u -> 0) and ``(1, 0)`` of the ``s`` quadrature (u -> inf).
For positive definite B every term is nonnegative, so no limit needs a
branch and no term cancels at large or small u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalFailure
from .symplectic import block_a, block_b, block_c, check_variance, rotation_matrix

@dataclass(frozen=True)
class GaussianMeasurement:
    """Rank-one Gaussian POVM with pure seed CM ``R(phi) diag(u, 1/u) R(phi)^T``.

    ``u == 0`` and ``u == inf`` tag the two homodyne limits; any finite
    ``u > 0`` is an ordinary squeezed-state quasi-projection, with ``u == 1``
    being heterodyne detection.  ``phi`` is reduced modulo pi.
    """

    u: float
    phi: float = 0.0

    def __post_init__(self):
        u = float(self.u)
        if math.isnan(u) or u < 0.0:
            raise DomainError(f"measurement squeezing u must be >= 0, got {self.u}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "phi", float(self.phi) % math.pi)

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
        """Homogeneous seed weights ``(x, y)`` with ``u = x/y``."""
        return (1.0, 0.0) if math.isinf(self.u) else (self.u, 1.0)

    @property
    def kind(self) -> str:
        if self.u == 0.0:
            return "homodyne_q"
        if math.isinf(self.u):
            return "homodyne_p"
        if self.u == 1.0:
            return "heterodyne"
        return "squeezed"

    def seed_cm(self) -> np.ndarray:
        """Seed CM for finite u; the homodyne limits have no finite seed."""
        if self.is_homodyne:
            raise DomainError("homodyne limits have no finite seed CM")
        R = rotation_matrix(self.phi)
        return R @ np.diag([self.u, 1.0 / self.u]) @ R.T


def _inverse_matrix(V: np.ndarray, m: GaussianMeasurement) -> np.ndarray:
    """``(B + V0)^{-1}`` of the B block of ``V`` by the module formula, as a 2x2 array."""
    B = block_b(V)
    b00, b01, b11 = float(B[0, 0]), float(B[0, 1]), float(B[1, 1])
    if not (b00 > 0.0 and b00 * b11 - b01 * b01 > 0.0):
        raise NumericalFailure("B block is not positive definite; cannot condition")
    x, y = m.weights
    cos_phi, sin_phi = math.cos(m.phi), math.sin(m.phi)
    cc, ss, cs = cos_phi * cos_phi, sin_phi * sin_phi, cos_phi * sin_phi
    xx, yy, xy = x * x, y * y, x * y
    rbr = b00 * cc + 2.0 * b01 * cs + b11 * ss
    sbs = b00 * ss - 2.0 * b01 * cs + b11 * cc
    den = xy * (b00 * b11 - b01 * b01 + 1.0) + xx * sbs + yy * rbr
    i01 = ((yy - xx) * cs - xy * b01) / den
    return np.array([[(xy * b11 + xx * ss + yy * cc) / den, i01],
                     [i01, (xy * b00 + xx * cc + yy * ss) / den]])


@dataclass(frozen=True)
class ConditionalState:
    """Single-mode Gaussian state: mean 2-vector plus 2x2 CM."""

    mean: np.ndarray
    cm: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, float).reshape(2))
        object.__setattr__(self, "cm", np.asarray(self.cm, float).reshape(2, 2))


def _split_mean(mean_AB) -> tuple[np.ndarray, np.ndarray]:
    if mean_AB is None:
        return np.zeros(2), np.zeros(2)
    mean_AB = np.asarray(mean_AB, float).reshape(4)
    return mean_AB[:2], mean_AB[2:]


def conditional_mean_map(V: np.ndarray, m: GaussianMeasurement) -> np.ndarray:
    """Linear map L = C (B + V0)^{-1} sending (k - xB) to the mean shift of A."""
    return block_c(V) @ _inverse_matrix(V, m)


def conditional_cm(V: np.ndarray, m: GaussianMeasurement) -> np.ndarray:
    """Outcome-independent conditional CM of mode A: ``A - C (B+V0)^{-1} C^T``."""
    C = block_c(V)
    return block_a(V) - C @ _inverse_matrix(V, m) @ C.T


def condition_on_outcome(
    V: np.ndarray, mean_AB, m: GaussianMeasurement, k
) -> ConditionalState:
    """State of mode A after measuring mode B with outcome ``k``."""
    mean_a, mean_b = _split_mean(mean_AB)
    k = np.asarray(k, float).reshape(2)
    L = conditional_mean_map(V, m)
    C = block_c(V)
    mean = mean_a + L @ (k - mean_b)
    cm = block_a(V) - L @ C.T
    return ConditionalState(mean, cm)


def _swap_modes(V: np.ndarray) -> np.ndarray:
    perm = [2, 3, 0, 1]
    return np.asarray(V, float)[np.ix_(perm, perm)]


def conditioning_on_mode_A(
    V: np.ndarray, mean_AB, m: GaussianMeasurement, k
) -> ConditionalState:
    """State of mode B after measuring mode A (A and B roles permuted)."""
    mean_a, mean_b = _split_mean(mean_AB)
    swapped_mean = np.concatenate([mean_b, mean_a])
    return condition_on_outcome(_swap_modes(V), swapped_mean, m, k)


def epr_squeezing_range(mu: float, u: float) -> float:
    """Squeezing prepared on the far mode of an EPR state of variance ``mu``.

    Measuring one EPR mode with seed squeezing ``u`` projects the other onto
    a pure squeezed state with CM diag(r, 1/r), ``r = (1 + u*mu)/(u + mu)``.
    The homodyne endpoints give exactly ``r = 1/mu`` (u = 0) and ``r = mu``
    (u = inf); heterodyne gives ``r = 1`` (coherent states).
    """
    check_variance(mu, "EPR variance")
    if math.isnan(u) or u < 0.0:
        raise DomainError(f"measurement squeezing u must be >= 0, got {u}")
    if u == 0.0:
        return 1.0 / mu
    if math.isinf(u):
        return mu
    return (1.0 + u * mu) / (u + mu)
