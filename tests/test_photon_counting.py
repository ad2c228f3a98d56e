"""The paper's claim against a non-Gaussian rival: photon counting on mode B.

A two-mode squeezed thermal state V(a, b, c, -c) commutes with n_A - n_B,
so in the Fock basis it is block-diagonal in that difference: projecting
mode B on |n> leaves mode A diagonal, and the entropy of each conditional
state is the Shannon entropy of its photon distribution P(m | n).  The
measured conditional entropy is then ``sum_n p(n) H(P(. | n))``, exact up to
the truncation of the Fock basis, whose lost trace the tests bound.

The joint distribution comes from the generating function
``E[s^n_A t^n_B] = 4 / ((1 - s)(1 - t) sqrt(det(V + diag(v_s, v_s, v_t, v_t))))``,
``v_s = (1 + s)/(1 - s)``, which for this V is ``4 / (alpha (1 - x s)(1 - y t) - 4 c^2 s t / alpha)``
with ``alpha = (a + 1)(b + 1) - c^2``, ``x = ((a - 1)(b + 1) - c^2) / alpha`` and
``y = ((a + 1)(b - 1) - c^2) / alpha``, all nonnegative on bona fide states.
Expanding in ``w = 4 c^2 / alpha^2`` gives positive terms only: given n, A
holds ``j + k`` photons, with ``j ~ Binomial(n, v / (y + v))``,
``v = w / (1 - x)``, and ``k ~ NegativeBinomial(j + 1, x)``; B alone is
thermal, ``p(n) = nbar^n / (nbar + 1)^(n + 1)`` with ``nbar = (b - 1)/2``.
"""

import itertools
import math

import numpy as np
import pytest

from gdiscord import NormalFormCM, gaussian_discord_numeric
from states import classed_normal_forms

LEVELS = 100  # Fock levels of mode B; mode A gets twice as many


def photon_counting_entropy(a, b, c):
    """(H(A | photon count of B) in bits, lost trace) of the state V(a, b, c, -c)."""
    alpha = (a + 1.0) * (b + 1.0) - c * c
    x = ((a - 1.0) * (b + 1.0) - c * c) / alpha
    y = ((a + 1.0) * (b - 1.0) - c * c) / alpha
    v = 4.0 * c * c / (alpha * alpha * (1.0 - x))
    q = v / (y + v)
    nbar = 0.5 * (b - 1.0)
    n = np.arange(LEVELS)[:, None]  # count on B; j indexes columns
    m = np.arange(2 * LEVELS)  # count on A
    j = np.arange(LEVELS)[None, :]
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1.0, 2 * LEVELS + 1)))])
    fewer = np.minimum(j, n)  # keeps every index in range; the mask drops j > n
    binomial = np.where(j <= n, np.exp(log_fact[n] - log_fact[fewer] - log_fact[n - fewer]
                                       + j * math.log(q) + (n - j) * math.log1p(-q)), 0.0)
    k = m[None, :] - j.T  # A's photons beyond j, rows j
    k0 = np.maximum(k, 0)
    neg_binomial = np.where(k >= 0, np.exp(log_fact[k0 + j.T] - log_fact[j.T] - log_fact[k0]
                                           + (j.T + 1) * math.log1p(-x) + k0 * math.log(x)), 0.0)
    conditional = binomial @ neg_binomial  # P(m | n), rows n
    p_b = (nbar / (nbar + 1.0)) ** np.arange(LEVELS) / (nbar + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(conditional > 0.0, -conditional * np.log2(conditional), 0.0)
    return float(p_b @ terms.sum(axis=1)), float(1.0 - p_b @ conditional.sum(axis=1))


def _gaussian_optimum(a, b, c):
    return gaussian_discord_numeric(NormalFormCM(a, b, c, -c).rows()).s_min_cond


def test_photon_counting_never_beats_the_gaussian_optimum():
    rng = np.random.default_rng(11)
    for a, b, c, _ in itertools.islice(classed_normal_forms(rng, 20), 20):  # squeezed thermal first
        entropy, lost = photon_counting_entropy(a, b, c)
        assert abs(lost) < 1e-10
        assert entropy > _gaussian_optimum(a, b, c), (a, b, c)


def test_the_gap_closes_as_the_squeezing_vanishes():
    # two thermal modes (variances 2 and 1.5) through a two-mode squeezer r:
    # at r = 0 the state is a product, and every measurement leaves h(2)
    gaps = []
    for r in (0.5, 0.1, 0.01, 0.001):
        ch, sh = math.cosh(r), math.sinh(r)
        a, b, c = 2.0 * ch * ch + 1.5 * sh * sh, 2.0 * sh * sh + 1.5 * ch * ch, 3.5 * sh * ch
        entropy, lost = photon_counting_entropy(a, b, c)
        assert abs(lost) < 1e-10
        gaps.append(entropy - _gaussian_optimum(a, b, c))
    assert all(g > 0.0 for g in gaps)
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 1e-5
    assert gaps[-1] == pytest.approx(gaps[-2] / 100.0, rel=0.05)  # the gap is O(r^2)
