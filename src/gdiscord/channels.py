"""Single-mode Gaussian channels in canonical form and their CM action.

A channel acts on a single-mode CM as ``V -> K V K^T + N``.  The extended
phase-insensitive family used throughout this package is parametrized by a
transmissivity ``tau`` (any real sign) and an added noise ``eta >= |1-tau|``:

    K = sqrt(|tau|) * diag(1, sign(tau)),    N = eta * I.

Within this family the canonical forms are:

    tau = 0              A1            completely depolarizing
    0 < tau < 1          C (lossy)     eta = (1 - tau) * omega
    tau = 1, eta = 0     B2            identity channel
    tau = 1, eta > 0     B2            additive classical noise
    tau > 1              C (amplifier) eta = (tau - 1) * omega
    tau < 0              D             conjugate amplifier

with ``omega = 2*nbar + 1`` the thermal variance of the environment.  The
pathological, highly phase-sensitive forms A2 and B1 fall outside this
parametrization; only their (K, N) matrices are provided, since no
finite-energy entropy-minimizing input is available for them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .entropy import h
from .errors import DomainError, InvalidChannelParams
from .symplectic import assemble_cm, block_a, block_b, block_c

# Quantum-limited channels sit exactly on eta = |1 - tau|; accept them with a
# small tolerance.  classify reads tau and eta this close to a boundary value
# (tau = 0 or 1, eta = 0) as on it.
CHANNEL_TOL = 1e-12
# is_quantum_limited reports channels within this distance of eta = |1 - tau|
QUANTUM_LIMITED_TOL = 1e-9


@dataclass(frozen=True)
class GaussianChannelParams:
    """Extended phase-insensitive channel (tau, eta).

    The matrices K and N are always derived from (tau, eta), never stored.
    """

    tau: float
    eta: float

    def __post_init__(self):
        if not (math.isfinite(self.tau) and math.isfinite(self.eta)):
            raise InvalidChannelParams(
                f"channel parameters must be finite, got tau={self.tau}, eta={self.eta}"
            )
        if self.eta < abs(1.0 - self.tau) - CHANNEL_TOL:
            raise InvalidChannelParams(
                f"eta = {self.eta} violates eta >= |1 - tau| = {abs(1.0 - self.tau)}"
            )

    @property
    def K(self) -> np.ndarray:
        s = 1.0 if self.tau >= 0.0 else -1.0
        return math.sqrt(abs(self.tau)) * np.diag([1.0, s])

    @property
    def N(self) -> np.ndarray:
        return self.eta * np.eye(2)

    def is_quantum_limited(self) -> bool:
        return abs(self.eta - abs(1.0 - self.tau)) <= QUANTUM_LIMITED_TOL


class CanonicalForm(str, enum.Enum):
    A1 = "A1"
    A2 = "A2"
    B1 = "B1"
    B2_IDENTITY = "B2_identity"
    B2_ADDITIVE = "B2_additive"
    C_LOSSY = "C_lossy"
    C_AMPLIFIER = "C_amplifier"
    D = "D"


@dataclass(frozen=True)
class ChannelClass:
    """Canonical-form label with environment thermal parameters if defined."""

    label: CanonicalForm
    omega: float | None = None
    n_bar: float | None = None


def classify(params: GaussianChannelParams) -> ChannelClass:
    """Canonical-form label of an extended channel (tau, eta).

    ``omega`` (and ``n_bar = (omega-1)/2``) are reported for the forms where
    the environment is a thermal state; they are undefined for B2.
    """
    tau, eta = params.tau, params.eta

    def thermal(label: CanonicalForm, denom: float) -> ChannelClass:
        omega = eta / denom
        return ChannelClass(label, omega=omega, n_bar=0.5 * (omega - 1.0))

    if abs(tau) <= CHANNEL_TOL:
        return thermal(CanonicalForm.A1, 1.0)
    if abs(tau - 1.0) <= CHANNEL_TOL:
        if eta <= CHANNEL_TOL:
            return ChannelClass(CanonicalForm.B2_IDENTITY)
        return ChannelClass(CanonicalForm.B2_ADDITIVE)
    if tau < 0.0:
        return thermal(CanonicalForm.D, 1.0 - tau)
    if tau < 1.0:
        return thermal(CanonicalForm.C_LOSSY, 1.0 - tau)
    return thermal(CanonicalForm.C_AMPLIFIER, tau - 1.0)


def pathological_form_matrices(
    label: CanonicalForm | str, n_bar: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """(K, N) matrices of the pathological canonical forms A2 and B1.

    These forms destroy or add noise to a single quadrature.  Classification
    and matrices only: no entropy optimization is offered, because no
    finite-energy optimal input is known for them.
    """
    label = CanonicalForm(label)
    if label == CanonicalForm.A2:
        if n_bar < 0.0:
            raise DomainError(f"mean photon number must be >= 0, got {n_bar}")
        return np.diag([1.0, 0.0]), (2.0 * n_bar + 1.0) * np.eye(2)
    if label == CanonicalForm.B1:
        return np.eye(2), np.diag([0.0, 1.0])
    raise DomainError(f"no pathological matrices for canonical form {label.value}")


def apply_to_mode_A(params: GaussianChannelParams, V: np.ndarray) -> np.ndarray:
    """Apply the channel to mode A of a two-mode CM.

    Implements ``V -> (K (+) I) V (K^T (+) I) + (N (+) 0)``.
    """
    V = np.asarray(V, float)
    if V.shape != (4, 4):
        raise DomainError(f"expected a 4x4 covariance matrix, got shape {V.shape}")
    K = params.K
    A = K @ block_a(V) @ K.T + params.N
    C = K @ block_c(V)
    return assemble_cm(A, block_b(V), C)


def min_output_entropy(params: GaussianChannelParams) -> float:
    """Minimum output entropy of the extended channel, in bits.

    Coherent inputs are optimal for the whole (tau, eta) family, and they
    come out as thermal states with variance ``|tau| + eta``, hence the
    value ``h(|tau| + eta)``.
    """
    return h(abs(params.tau) + params.eta)
