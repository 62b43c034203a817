import math
from fractions import Fraction

import numpy as np
import pytest

from betadens import (DomainError, RateRegime, equivalent_density,
                      histogram_bins_bv, histogram_bins_lsv, kernel_bandwidth,
                      lsv_rate_exponent)
from betadens.quadrature import panel_nodes


def _integer_floor_power(n: int, exponent: Fraction) -> int:
    # largest m with m^q <= n^p, in exact integer arithmetic
    p, q = exponent.numerator, exponent.denominator
    target = n**p
    m = 1
    while (m + 1) ** q <= target:
        m += 1
    return m


class TestKernelBandwidth:
    def test_power_of_ten(self):
        h = kernel_bandwidth(10**5, RateRegime(s=2.0, delta=0.0))
        assert h == pytest.approx(0.1, abs=1e-15)

    def test_exact_dyadic_power(self):
        h = kernel_bandwidth(4096, RateRegime(s=1.0, delta=0.5))
        assert h == pytest.approx(0.25, abs=1e-12)

    def test_delta_near_one_limit(self):
        h = kernel_bandwidth(10**6, RateRegime(s=1.0, delta=1.0 - 1e-12), constant=3.0)
        assert h == pytest.approx(3.0, rel=1e-9)

    def test_strictly_decreasing_in_n(self):
        regime = RateRegime(s=1.5, delta=0.2)
        hs = [kernel_bandwidth(n, regime) for n in (10, 100, 1000, 10**4, 10**6)]
        assert all(a > b for a, b in zip(hs, hs[1:]))

    def test_regime_validation(self):
        with pytest.raises(DomainError):
            RateRegime(s=0.0)
        with pytest.raises(DomainError):
            RateRegime(delta=1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                RateRegime(s=bad)
        for constant in (math.nan, -1.0, 0.0, math.inf):
            with pytest.raises(DomainError):
                kernel_bandwidth(100, RateRegime(), constant)
        for n in (0, -3):
            with pytest.raises(DomainError, match="n must be >= 1"):
                kernel_bandwidth(n, RateRegime())


class TestHistogramBins:
    def test_exact_cube(self):
        assert histogram_bins_bv(1000) == 10

    def test_clamped_to_one(self):
        assert histogram_bins_bv(1) == 1
        assert histogram_bins_bv(2, constant=0.001) == 1

    def test_floor_oracle_5000(self):
        assert histogram_bins_bv(5000) == 17

    def test_integer_root_oracle(self):
        for n in [1, 2, 7, 8, 9, 26, 27, 28, 63, 64, 65, 999, 1000, 1001,
                  4913, 5000, 35000, 110000, 10**6]:
            assert histogram_bins_bv(n) == _integer_floor_power(n, Fraction(1, 3))

    def test_lsv_short_range_exponent(self):
        # gamma = 1/4: exponent 1/(3 - 1/2) = 2/5
        assert histogram_bins_lsv(60000, 0.25) == 81
        assert histogram_bins_lsv(60000, 0.25) == _integer_floor_power(60000, Fraction(2, 5))

    def test_lsv_long_range_exponent(self):
        # gamma = 3/4: exponent (1/4) / (3/4 * 3/2) = 2/9
        assert histogram_bins_lsv(10**7, 0.75) == 35
        assert histogram_bins_lsv(10**7, 0.75) == _integer_floor_power(10**7, Fraction(2, 9))

    def test_lsv_boundary_exact_square(self):
        assert histogram_bins_lsv(2**12, 0.5) == 64

    def test_non_decreasing_in_n(self):
        for gamma in (0.25, 0.5, 0.75):
            ms = [histogram_bins_lsv(n, gamma) for n in range(1, 3000, 37)]
            assert all(a <= b for a, b in zip(ms, ms[1:]))
        ms = [histogram_bins_bv(n) for n in range(1, 3000, 37)]
        assert all(a <= b for a, b in zip(ms, ms[1:]))

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            histogram_bins_bv(0)
        for constant in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(DomainError):
                histogram_bins_bv(1000, constant)
        with pytest.raises(DomainError, match="overflows"):
            histogram_bins_bv(1000, 1e308)
        with pytest.raises(DomainError):
            histogram_bins_lsv(100, 1.0)
        for n in (0, -3):
            with pytest.raises(DomainError, match="n must be >= 1"):
                histogram_bins_lsv(n, 0.5)


class TestRateExponent:
    def test_short_range_value(self):
        exponent, log_factor = lsv_rate_exponent(0.25)
        assert exponent == 0.3
        assert log_factor is False

    def test_boundary_carries_log_factor(self):
        assert lsv_rate_exponent(0.5) == (0.25, True)

    def test_long_range_value(self):
        exponent, log_factor = lsv_rate_exponent(0.75)
        assert exponent == pytest.approx(1.0 / 18.0, abs=1e-15)
        assert log_factor is False

    def test_continuous_at_boundary(self):
        exponent, _ = lsv_rate_exponent(0.5 - 1e-9)
        assert abs(exponent - 0.25) < 1e-8

    def test_rejects_out_of_range(self):
        for gamma in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(DomainError):
                lsv_rate_exponent(gamma)


class TestEquivalentDensity:
    def test_value_at_one(self):
        for gamma in (0.1, 0.25, 0.5, 0.9):
            assert equivalent_density(1.0, gamma) == pytest.approx(1.0 - gamma, abs=1e-15)

    def test_exact_arithmetic_point(self):
        assert equivalent_density(0.25, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_truncated_integral_closed_form(self):
        # int_{1/m}^1 f_gamma = 1 - (1/m)^(1-gamma)
        for gamma, m in ((0.25, 17), (0.5, 100), (0.75, 35)):
            x, w = panel_nodes(np.linspace(1.0 / m, 1.0, 257), 64)
            val = float(np.dot(w, equivalent_density(x, gamma)))
            assert val == pytest.approx(1.0 - (1.0 / m) ** (1.0 - gamma), abs=1e-10)

    def test_domain_rejection(self):
        with pytest.raises(DomainError):
            equivalent_density(0.0, 0.5)
        with pytest.raises(DomainError):
            equivalent_density(1.5, 0.5)
        for gamma in (0.0, 1.0, math.nan):
            with pytest.raises(DomainError, match=r"gamma must lie in \(0, 1\)"):
                equivalent_density(0.5, gamma)

