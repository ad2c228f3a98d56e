"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines, or ``gdiscord verify`` for the same checks outside pytest.
"""

import math

import numpy as np
import pytest

from gdiscord import FamilyParams, eta_from_a, rotation_matrix, squeezer_matrix, tau_bounds
from gdiscord import verification as ver
from states import local_frame


@pytest.fixture(scope="module")
def results():
    # one run of every criterion, at the sizes `gdiscord verify` uses, keyed by number
    return {int(result.name.split("-")[0]): result for result in ver.run_all()}


def _assert(results, criterion: int):
    result = results[criterion]
    print(result.line())
    assert result.passed, result.line()


def test_criterion_1_closed_vs_numeric(results):
    _assert(results, 1)


def test_criterion_2_heterodyne_optimality(results):
    _assert(results, 2)


def test_criterion_3_worked_number(results):
    _assert(results, 3)


def test_criterion_4_decomposition_round_trips(results):
    _assert(results, 4)


def test_criterion_5_family_coverage(results):
    _assert(results, 5)


def test_criterion_6_entropy_oracles(results):
    _assert(results, 6)


def test_criterion_7_remote_prep_identities(results):
    _assert(results, 7)


def test_criterion_8_channel_classification(results):
    _assert(results, 8)


def test_criterion_9_sampler_determinism(results):
    _assert(results, 9)


def scalar_family_params(rng, n):
    """The witnesses of ``ver.random_family_params``, drawn one scalar at a time."""
    params = []
    for _ in range(n):
        b = rng.uniform(1.0 + 1e-6, ver.VMAX)
        a = rng.uniform(1.0, ver.VMAX)
        r = rng.uniform(1.0 / b, b)
        tau = rng.uniform(*tau_bounds(a, b, r))
        eta = max(eta_from_a(a, r, tau, b), abs(1.0 - tau))
        sign = 1 if rng.uniform() < 0.5 else -1
        params.append(FamilyParams(b=b, r=r, tau=tau, eta=eta, sign=sign))
    return params


@pytest.mark.parametrize("seed", [0, 1, 2, ver.ROUND_TRIP_SEED])
def test_random_family_params_equal_the_scalar_loop(seed):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    assert ver.random_family_params(rng, 3000) == scalar_family_params(ref, 3000)
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("seed", [0, ver.ORACLE_SEED])
def test_random_local_frames_equal_the_per_state_products(seed):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    frames = [local_frame(*(squeezer_matrix(ref.uniform(0.5, 2.0)) @ rotation_matrix(ref.uniform(0, math.pi))
                            for _ in range(2))) for _ in range(3000)]
    assert np.array_equal(ver.random_local_frames(rng, 3000), frames)
    assert rng.bit_generator.state == ref.bit_generator.state
