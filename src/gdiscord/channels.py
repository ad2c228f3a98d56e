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

with ``omega = 2*nbar + 1`` the thermal variance of the environment.
``classify`` reads a channel with eta within ``CHANNEL_TOL`` of ``|1 - tau|``
as quantum limited, with omega = 1 and nbar = 0 exactly.  The
pathological, highly phase-sensitive forms A2 and B1 fall outside this
parametrization; only their (K, N) matrices are provided, since no
finite-energy entropy-minimizing input is available for them.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from . import _numpy as np
from .entropy import h
from .errors import DomainError, InvalidChannelParams, NumericalFailure

# Quantum-limited channels sit exactly on eta = |1 - tau|; accept them with a
# small tolerance.  classify reads tau and eta this close to a boundary value
# (tau = 0 or 1, eta = 0 or |1 - tau|) as on it.
CHANNEL_TOL = 1e-12


class _ChannelFields(NamedTuple):
    tau: float
    eta: float


class GaussianChannelParams(_ChannelFields):
    """Extended phase-insensitive channel (tau, eta).

    The matrices K and N are always derived from (tau, eta), never stored.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, tau: float, eta: float):
        if not (math.isfinite(tau) and math.isfinite(eta)):
            raise InvalidChannelParams(
                f"channel parameters must be finite, got tau={tau}, eta={eta}"
            )
        if eta < abs(1.0 - tau) - CHANNEL_TOL:
            raise InvalidChannelParams(f"eta = {eta} violates eta >= |1 - tau| = {abs(1.0 - tau)}")
        return super().__new__(cls, tau, eta)

    @property
    def K(self) -> np.ndarray:
        s = 1.0 if self.tau >= 0.0 else -1.0
        return math.sqrt(abs(self.tau)) * np.diag([1.0, s])

    @property
    def N(self) -> np.ndarray:
        return self.eta * np.eye(2)

    def is_quantum_limited(self) -> bool:
        """True iff :func:`classify` reads the channel on eta = |1 - tau|.

        That is n_bar = 0 for the thermal forms and B2_identity for B2; it
        raises NumericalFailure where classify does.
        """
        cc = classify(self)
        return cc.n_bar == 0.0 or cc.label is CanonicalForm.B2_IDENTITY


class CanonicalForm(str, enum.Enum):
    A1 = "A1"
    A2 = "A2"
    B1 = "B1"
    B2_IDENTITY = "B2_identity"
    B2_ADDITIVE = "B2_additive"
    C_LOSSY = "C_lossy"
    C_AMPLIFIER = "C_amplifier"
    D = "D"


class ChannelClass(NamedTuple):
    """Canonical-form label with environment thermal parameters if defined."""

    label: CanonicalForm
    omega: float | None = None
    n_bar: float | None = None


def classify(params: GaussianChannelParams) -> ChannelClass:
    """Canonical-form label of an extended channel (tau, eta).

    ``omega = eta / d`` and ``n_bar = (eta - d) / (2 d)``, with ``d = |1 - tau|``
    (1 for A1), are reported for the forms where the environment is a thermal
    state; they are undefined for B2.  A channel with eta within CHANNEL_TOL
    of d is read as quantum limited: omega = 1 and n_bar = 0 exactly.  An
    omega past the float range raises NumericalFailure.
    """
    tau, eta = params.tau, params.eta

    def thermal(label: CanonicalForm, *terms: float) -> ChannelClass:
        # d is the sum of terms; eta - d is summed exactly, so n_bar keeps its
        # digits next to the boundary eta = d, where omega - 1 would cancel
        denom, excess = math.fsum(terms), math.fsum([eta, *(-t for t in terms)])
        if abs(excess) <= CHANNEL_TOL:
            return ChannelClass(label, omega=1.0, n_bar=0.0)
        omega = eta / denom
        if omega == math.inf:
            raise NumericalFailure(f"environment variance omega = {eta} / {denom} is past the float range")
        return ChannelClass(label, omega=omega, n_bar=0.5 * excess / denom)

    if abs(tau) <= CHANNEL_TOL:
        return thermal(CanonicalForm.A1, 1.0)
    if abs(tau - 1.0) <= CHANNEL_TOL:
        if eta <= CHANNEL_TOL:
            return ChannelClass(CanonicalForm.B2_IDENTITY)
        return ChannelClass(CanonicalForm.B2_ADDITIVE)
    if tau < 0.0:
        return thermal(CanonicalForm.D, 1.0, -tau)
    if tau < 1.0:
        return thermal(CanonicalForm.C_LOSSY, 1.0, -tau)
    return thermal(CanonicalForm.C_AMPLIFIER, tau, -1.0)


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

    Implements ``V -> (K (+) I) V (K^T (+) I) + (N (+) 0)``; V passes the
    CM gate of :func:`symplectic._cm_rows`.
    """
    from .symplectic import _cm_rows

    V = np.array(_cm_rows(V))  # a copy, filled block by block
    K = params.K
    V[:2, :2] = K @ V[:2, :2] @ K.T + params.N
    V[:2, 2:] = K @ V[:2, 2:]
    V[2:, :2] = V[:2, 2:].T
    return V


def min_output_entropy(params: GaussianChannelParams | FamilyParams) -> float:
    """Minimum output entropy of the extended channel, in bits.

    Coherent inputs are optimal for the whole (tau, eta) family, and they
    come out as thermal states with variance ``|tau| + eta``, hence the
    value ``h(|tau| + eta)``.  Only ``params.tau`` and ``params.eta`` are
    read, so a family witness, which has checked its channel, serves as it is.
    """
    return h(abs(params.tau) + params.eta)
