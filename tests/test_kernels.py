import numpy as np
import pytest

from betadens import (EPANECHNIKOV, KERNELS, RECTANGULAR, TRIANGULAR,
                      DegenerateSample, DomainError, kernel_by_name, silverman_bandwidth)


def _grid_tv(kernel, points=2**17):
    # total variation oracle: sum of |increments| on a fine grid that
    # contains the kinks and the extremum, so monotone runs telescope exactly
    r = kernel.support_radius
    grid = np.unique(np.concatenate([
        np.linspace(-r - 0.5, r + 0.5, points),
        [-r, -0.5 * r, 0.0, 0.5 * r, r],
    ]))
    return float(np.abs(np.diff(kernel.eval(grid))).sum())


def _panel_l1(kernel):
    # |K| is polynomial between kinks; Gauss-Legendre panels are exact there
    r = kernel.support_radius
    u, w = np.polynomial.legendre.leggauss(24)
    total = 0.0
    for a, b in ((-r, 0.0), (0.0, r)):
        half = 0.5 * (b - a)
        x = a + half * (u + 1.0)
        total += half * float(np.dot(w, np.abs(kernel.eval(x))))
    return total


@pytest.mark.parametrize("kernel", [EPANECHNIKOV, RECTANGULAR, TRIANGULAR])
def test_total_variation_matches_grid_oracle(kernel):
    assert abs(_grid_tv(kernel) - kernel.total_variation) < 1e-6


@pytest.mark.parametrize("kernel", [EPANECHNIKOV, RECTANGULAR, TRIANGULAR])
def test_l1_norm_matches_quadrature(kernel):
    assert abs(_panel_l1(kernel) - kernel.l1_norm) < 1e-10


@pytest.mark.parametrize("kernel", [EPANECHNIKOV, RECTANGULAR, TRIANGULAR])
def test_vanishes_outside_support(kernel):
    r = kernel.support_radius
    for u in (-(r + 1e-9), r + 1e-9, 3 * r, -10.0):
        assert kernel.eval(u) == 0.0


@pytest.mark.parametrize("kernel", [EPANECHNIKOV, RECTANGULAR, TRIANGULAR])
def test_kinks_split_kernel_into_polynomials(kernel):
    # K is a polynomial of degree <= 2 strictly between consecutive kinks and
    # zero beyond the outer ones; with a kink left out, some piece is not
    assert list(kernel.kinks) == sorted(kernel.kinks)

    def pieces_fit(kinks):
        cuts = [-3.0, *kinks, 3.0]
        for a, b in zip(cuts[:-1], cuts[1:]):
            u = np.linspace(a, b, 41)[1:-1]
            coef = np.polyfit(u, kernel.eval(u), 2)
            if np.abs(np.polyval(coef, u) - kernel.eval(u)).max() > 1e-9:
                return False
        return True

    assert pieces_fit(kernel.kinks)
    for i in range(len(kernel.kinks)):
        assert not pieces_fit(kernel.kinks[:i] + kernel.kinks[i + 1:])


# the allocating np.where form of each kernel: the reference for the bits
# of its in-place form
_ALLOCATING_FORMS = {
    "epanechnikov": lambda u: np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0),
    "rectangular": lambda u: np.where(np.abs(u) <= 0.5, 1.0, 0.0),
    "triangular": lambda u: np.where(np.abs(u) <= 1.0, 1.0 - np.abs(u), 0.0),
}


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_in_place_form_has_the_bits_of_the_allocating_form(name):
    edges = [0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0),
             0.5, -0.5, np.nextafter(0.5, 1.0), np.nextafter(-0.5, -1.0),
             np.inf, -np.inf, np.nan]
    rng = np.random.default_rng(2024)
    u = np.concatenate([edges, rng.uniform(-1.001, 1.001, 10**6)])
    with np.errstate(invalid="ignore", over="ignore"):
        want = _ALLOCATING_FORMS[name](u)
        got = KERNELS[name].overwrite(u.copy())
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kernel", [EPANECHNIKOV, RECTANGULAR, TRIANGULAR])
def test_eval_leaves_its_argument_unchanged(kernel):
    u = np.linspace(-2.0, 2.0, 101)
    before = u.copy()
    k = kernel.eval(u)
    assert np.array_equal(u, before) and not np.shares_memory(k, u)
    assert np.array_equal(kernel.eval(list(u)), k)
    assert kernel.eval(float(u[60])) == k[60]


def test_known_analytic_values():
    assert EPANECHNIKOV.total_variation == 1.5
    assert RECTANGULAR.total_variation == 2.0
    assert TRIANGULAR.total_variation == 2.0
    assert EPANECHNIKOV.eval(0.0) == 0.75


def test_registry_lookup():
    assert kernel_by_name("Epanechnikov") is EPANECHNIKOV
    assert set(KERNELS) == {"epanechnikov", "rectangular", "triangular"}
    with pytest.raises(DomainError):
        kernel_by_name("gauss")


class TestSilverman:
    def test_formula_oracle_on_seeded_normal(self):
        rng = np.random.default_rng(123)
        x = rng.standard_normal(1000)
        h = silverman_bandwidth(x)
        sd = np.std(x, ddof=1)
        q75, q25 = np.percentile(x, [75, 25])
        oracle = 0.9 * min(sd, (q75 - q25) / 1.34) * 1000 ** (-0.2)
        assert abs(h - oracle) < 1e-12

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(7)
        x = rng.random(400)
        h = silverman_bandwidth(x)
        for c in (2.0, 0.125, 17.0):
            assert silverman_bandwidth(c * x) == pytest.approx(c * h, rel=1e-12)

    def test_constant_sample_rejected(self):
        with pytest.raises(DegenerateSample):
            silverman_bandwidth(np.full(50, 0.3))
        with pytest.raises(DegenerateSample):
            silverman_bandwidth([0.3])

    def test_zero_iqr_falls_back_to_sd(self):
        # heavy ties collapse the IQR but not the spread
        values = np.concatenate([np.full(97, 0.5), [0.0, 1.0, 0.25]])
        h = silverman_bandwidth(values)
        assert h > 0.0
