import math

import numpy as np
import pytest

from gdiscord import (
    DomainError,
    NormalFormCM,
    embed_normal_form,
    entropy_single_mode,
    entropy_two_mode,
    epr_cm,
    gaussian_discord_numeric,
    h,
    thermal_entropy_fock,
)

SQRT6 = math.sqrt(6.0)


class TestH:
    def test_pure(self):
        assert h(1.0) == 0.0

    def test_exact_values(self):
        assert h(3.0) == pytest.approx(2.0, abs=1e-15)
        assert h(5.0) == pytest.approx(3.0 * math.log2(3.0) - 2.0, abs=1e-14)

    @pytest.mark.parametrize("x", [1.0, 1.5, 2.0, 3.0, 5.0, 10.0])
    def test_against_fock_sum(self, x):
        assert h(x) == pytest.approx(thermal_entropy_fock(x), abs=1e-9)

    def test_clamp_window(self):
        assert h(1.0 - 1e-10) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            h(0.999)

    def test_strictly_increasing(self):
        xs = np.linspace(1.0, 20.0, 400)
        vals = [h(x) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestStateEntropies:
    @pytest.mark.parametrize("b", [1.0, 2.0, 5.0])
    def test_epr_pure(self, b):
        assert entropy_two_mode(epr_cm(b)) == pytest.approx(0.0, abs=1e-9)

    def test_product_of_thermals(self):
        V = embed_normal_form(NormalFormCM(3.0, 1.7, 0, 0))
        assert entropy_two_mode(V) == pytest.approx(h(3.0) + h(1.7), abs=1e-12)

    def test_worked_state(self):
        V = embed_normal_form(NormalFormCM(5, 2, SQRT6, -SQRT6))
        assert entropy_two_mode(V) == pytest.approx(h(4.0), abs=1e-11)

    def test_single_mode(self):
        assert entropy_single_mode(np.eye(2)) == 0.0
        assert entropy_single_mode(3.0 * np.eye(2)) == pytest.approx(2.0, abs=1e-14)
        assert entropy_single_mode(np.diag([4.0, 0.25])) == 0.0  # pure squeezed


class TestMutualInformation:
    # I(A:B) = S(A) + S(B) - S(AB), as the discord report carries it
    def test_product_state(self):
        V = embed_normal_form(NormalFormCM(2.5, 4.0, 0, 0))
        assert gaussian_discord_numeric(V).i_ab == pytest.approx(0.0, abs=1e-12)

    def test_epr(self):
        assert gaussian_discord_numeric(epr_cm(2.0)).i_ab == pytest.approx(2 * h(2.0), abs=1e-9)

    def test_worked_state(self):
        V = embed_normal_form(NormalFormCM(5, 2, SQRT6, -SQRT6))
        expect = h(5.0) + h(2.0) - h(4.0)
        assert gaussian_discord_numeric(V).i_ab == pytest.approx(expect, abs=1e-11)
        assert expect == pytest.approx(1.7049547671, abs=1e-9)
