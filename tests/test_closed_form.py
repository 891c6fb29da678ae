"""Closed-form oracle: exact constants and structural identities."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality import chain_box, x_u
from contextuality import closed_form as cf

LOG2_4_3 = 0.41503749927884376


class TestBinaryEntropy:
    def test_half(self):
        assert cf.binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_endpoints(self):
        assert cf.binary_entropy(0.0) == 0.0
        assert cf.binary_entropy(1.0) == 0.0

    def test_three_quarters(self):
        assert cf.binary_entropy(0.75) == pytest.approx(0.8112781244591328, abs=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            cf.binary_entropy(1.2)


class TestChi:
    def test_zero_on_diagonal(self):
        assert cf.chi(0.3, 0.3) == pytest.approx(0.0, abs=1e-15)

    def test_kcbs_constant(self):
        assert cf.chi(1 - 2 / math.sqrt(5), 0.2) == pytest.approx(
            0.04665764960103094, abs=1e-14
        )

    def test_point_mass_vs_fair_coin(self):
        assert cf.chi(1.0, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_y_domain(self):
        with pytest.raises(ValueError):
            cf.chi(0.5, 0.0)


class TestXuIsotropic:
    def test_pr_corner(self):
        assert cf.xu_isotropic(4, 1.0) == pytest.approx(LOG2_4_3, abs=1e-14)

    def test_pm_corner(self):
        assert cf.xu_isotropic(6, 1.0) == pytest.approx(0.2630344058337938, abs=1e-14)

    def test_inside_interval_vanishes(self):
        assert cf.xu_isotropic(4, 0.5) == 0.0

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 9, 12])
    def test_continuity_at_upper_endpoint(self, n):
        hi = (n - 1) / n
        assert cf.xu_isotropic(n, hi) == pytest.approx(0.0, abs=1e-10)
        assert cf.xu_isotropic(n, hi + 1e-11) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("n", [4, 6, 8, 12])
    def test_continuity_at_lower_endpoint_even_n(self, n):
        lo = 1 / n
        assert cf.xu_isotropic(n, lo) == pytest.approx(0.0, abs=1e-10)
        assert cf.xu_isotropic(n, lo - 1e-11) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("n", [3, 4, 5, 7])
    def test_alpha_zero_matches_joint_solver(self, n):
        # alpha = 0 is the opposite box: non-contextual for odd n, so zero.
        solved = x_u(chain_box(n, 0.0))
        assert cf.xu_isotropic(n, 0.0) == pytest.approx(solved.value, abs=1e-5)

    @given(alpha=st.floats(0, 1))
    @settings(max_examples=50, deadline=None)
    def test_even_n_bitflip_symmetry(self, alpha):
        assert cf.xu_isotropic(6, alpha) == pytest.approx(
            cf.xu_isotropic(6, 1 - alpha), abs=1e-12
        )

    @pytest.mark.parametrize("n", [3, 4, 7, 10])
    def test_monotone_above_interval(self, n):
        lo = (n - 1) / n
        values = [cf.xu_isotropic(n, lo + t * (1 - lo) / 20) for t in range(21)]
        assert all(b >= a - 1e-14 for a, b in zip(values, values[1:]))
        assert values[-1] > values[0]


class TestQuantumChainAlpha:
    def test_n4_is_cos_squared_pi_over_8(self):
        assert cf.quantum_chain_alpha(4) == pytest.approx(0.8535533905932737, abs=1e-15)

    def test_n5(self):
        assert cf.quantum_chain_alpha(5) == pytest.approx(0.8944271909999159, abs=1e-15)

    def test_monotone_to_one(self):
        values = [cf.quantum_chain_alpha(n) for n in range(3, 60)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] < 1.0
        assert cf.quantum_chain_alpha(500) > 0.9999


class TestCostClosedForm:
    def test_pr_corner(self):
        assert cf.cost_closed_form("PR", 1.0) == 1.0

    def test_pm_boundary(self):
        assert cf.cost_closed_form("PM", 5 / 6) == pytest.approx(0.0, abs=1e-12)

    def test_chain5_quantum(self):
        alpha = cf.quantum_chain_alpha(5)
        assert cf.cost_closed_form("CH", alpha, n=5) == pytest.approx(
            0.4721359549995796, abs=1e-13
        )

    def test_clamped_at_zero(self):
        assert cf.cost_closed_form("M", 0.1) == 0.0


class TestTotalChain:
    def test_n4(self):
        assert cf.total_chain_x(4, 1.0) == pytest.approx(4 * LOG2_4_3, abs=1e-13)

    def test_n3(self):
        assert cf.total_chain_x(3, 1.0) == pytest.approx(1.7548875021634687, abs=1e-13)

    def test_large_n_nats_near_one(self):
        assert cf.total_chain_x(1000, 1.0, nats=True) == pytest.approx(
            1.000500333583622, abs=1e-12
        )


def test_chsh_quantum_value_rounds_to_paper_figure():
    alpha = cf.quantum_chain_alpha(4)
    value = cf.xu_chain(4, alpha)
    assert value == pytest.approx(0.046273846853407075, abs=1e-14)
    assert round(value, 4) == 0.0463
