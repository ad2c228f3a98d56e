"""Seeded input generators of the benchmark.

They use only numpy and their own formulae, so later changes to gdiscord
(including its verification helpers) cannot change what is measured: the
same seed gives the same inputs on every commit.
"""

from __future__ import annotations

import math

import numpy as np

VMAX = 5.0
SQUEEZE_MAX = 3.0  # local squeezers are log-uniform in [1/3, 3]


def nu_min(a, b, c, cp):
    """Smallest symplectic eigenvalue of the normal form V(a, b, c, cp), or NaN."""
    delta = a * a + b * b + 2.0 * c * cp
    det_v = (a * b - c * c) * (a * b - cp * cp)
    disc = delta * delta - 4.0 * det_v
    root = np.sqrt(np.where(disc < 0.0, np.nan, disc))
    return np.sqrt(np.maximum(0.5 * (delta - root), 0.0))


def normal_forms(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` bona fide normal forms as rows (a, b, c, cp).

    Each draw is a squeezed thermal state (cp = -c) or a general normal form
    with a fair coin; about half of the general forms lie outside the
    EPR-plus-channel family.  Rejection keeps only states with nu_min >= 1.
    """
    rows = []
    filled = 0
    while filled < n:
        m = 2 * (n - filled) + 16
        a = rng.uniform(1.0, VMAX, m)
        b = rng.uniform(1.0, VMAX, m)
        half = np.sqrt(np.maximum(a * b - 1.0 - np.abs(a - b), 0.0))
        thermal = rng.uniform(0.0, 1.0, m) < 0.5
        c = rng.uniform(-1.0, 1.0, m) * half
        cp = np.where(thermal, -c, rng.uniform(-1.0, 1.0, m) * half)
        with np.errstate(invalid="ignore"):
            ok = (a * b - c * c > 0) & (a * b - cp * cp > 0) & (nu_min(a, b, c, cp) >= 1.0)
        batch = np.column_stack([a, b, c, cp])[ok][: n - filled]
        rows.append(batch)
        filled += len(batch)
    return np.concatenate(rows)


def normal_form_matrix(row) -> np.ndarray:
    a, b, c, cp = (float(x) for x in row)
    return np.array([[a, 0.0, c, 0.0], [0.0, a, 0.0, cp],
                     [c, 0.0, b, 0.0], [0.0, cp, 0.0, b]])


def local_symplectics(rng: np.random.Generator, n: int) -> np.ndarray:
    """Rows (theta_A, s_A, theta_B, s_B): a rotation and a squeezer per mode."""
    theta = rng.uniform(0.0, math.pi, (n, 2))
    squeeze = np.exp(rng.uniform(-math.log(SQUEEZE_MAX), math.log(SQUEEZE_MAX), (n, 2)))
    return np.column_stack([theta[:, 0], squeeze[:, 0], theta[:, 1], squeeze[:, 1]])


def _mode_symplectic(theta: float, s: float) -> np.ndarray:
    c, si = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -si], [si, c]])
    return rot @ np.diag([math.sqrt(s), 1.0 / math.sqrt(s)])


def transformed_cm(row, sym) -> np.ndarray:
    """Full 4x4 CM ``S V S^T`` of a normal form under a local symplectic S."""
    S = np.zeros((4, 4))
    S[:2, :2] = _mode_symplectic(sym[0], sym[1])
    S[2:, 2:] = _mode_symplectic(sym[2], sym[3])
    V = S @ normal_form_matrix(row) @ S.T
    return 0.5 * (V + V.T)
