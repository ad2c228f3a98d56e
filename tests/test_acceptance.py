"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines, or ``gdiscord verify`` for the same checks outside pytest.
"""

import pytest

from gdiscord import verification as ver


@pytest.fixture(scope="module")
def sweep():
    # criteria 1 and 2 share one pass over the same 1000 random states
    return ver.discord_sweep(n=1000)


def _assert(result: ver.CheckResult):
    print(result.line())
    assert result.passed, result.line()


def test_criterion_1_closed_vs_numeric(sweep):
    _assert(sweep[0])


def test_criterion_2_heterodyne_optimality(sweep):
    _assert(sweep[1])


def test_criterion_3_worked_number():
    _assert(ver.check_worked_number())


def test_criterion_4_decomposition_round_trips():
    _assert(ver.check_decomposition_round_trips(n=10_000))


def test_criterion_5_family_coverage():
    _assert(ver.check_family_coverage(n=500_000))


def test_criterion_6_entropy_oracles():
    _assert(ver.check_entropy_oracles(n=10_000))


def test_criterion_7_remote_prep_identities():
    _assert(ver.check_remote_prep_identities())


def test_criterion_8_channel_classification():
    _assert(ver.check_channel_classification())


def test_criterion_9_sampler_determinism():
    _assert(ver.check_sampler_determinism(n=200_000))
