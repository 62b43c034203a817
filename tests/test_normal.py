import math

import numpy as np
import pytest

from betadens import DomainError, norm_cdf, norm_ppf


def _cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _ppf_bisection(p: float, lo: float = -40.0, hi: float = 0.0) -> float:
    # independent high-precision oracle: bisection on the erfc-based CDF.
    # The upper tail reduces to the lower one through the exact symmetry
    # PPF(1 - u) = -PPF(u); evaluating erfc near 2 would lose ~8 digits.
    if p > 0.5:
        return -_ppf_bisection(1.0 - p)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


ORACLE_GRID = [1e-300, 1e-200, 1e-100, 1e-30, 1e-9, 1e-4, 0.02425, 0.025,
               0.1, 0.3, 0.5, 0.7, 0.9, 0.975, 1.0 - 1e-4, 1.0 - 1e-9,
               1.0 - 1e-12, 1.0 - 1e-16]


@pytest.mark.parametrize("p", ORACLE_GRID)
def test_quantile_against_bisection_oracle(p):
    assert abs(norm_ppf(p) - _ppf_bisection(p)) < 1e-9


def test_median_and_tail_examples():
    assert norm_ppf(0.5) == 0.0
    assert norm_ppf(0.975) == pytest.approx(1.959964, abs=1e-5)
    assert norm_ppf(0.025) == pytest.approx(-1.959964, abs=1e-5)


def test_symmetry():
    for u in (0.01, 0.2, 0.4999, 0.25):
        assert norm_ppf(1.0 - u) == pytest.approx(-norm_ppf(u), abs=1e-13)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.25, 1.5, 2.0])
def test_rejects_out_of_domain(p):
    with pytest.raises(DomainError):
        norm_ppf(p)


def test_monotone_on_grid():
    ps = np.linspace(1e-6, 1.0 - 1e-6, 2001)
    xs = [norm_ppf(p) for p in ps]
    assert all(a < b for a, b in zip(xs, xs[1:]))


def test_cdf_ppf_roundtrip():
    for p in (1e-12, 1e-6, 0.01, 0.37, 0.5, 0.88, 1.0 - 1e-7):
        assert norm_cdf(norm_ppf(p)) == pytest.approx(p, rel=1e-12)


def test_pdf_matches_cdf_derivative():
    for x in (-3.0, -1.0, 0.0, 0.5, 2.5):
        h = 1e-6
        numeric = (norm_cdf(x + h) - norm_cdf(x - h)) / (2 * h)
        pdf = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        assert pdf == pytest.approx(numeric, rel=1e-8)
