import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betadens import (EPANECHNIKOV, KERNELS, TRIANGULAR, DomainError, KernelDensity,
                      KernelSpec, PiecewisePolyDensity, ProcessKind, ProcessSpec,
                      UnsupportedDegree, build_poly_basis, estimate_mass, gaussian, generate,
                      histogram_estimate, projection_estimate, silverman_bandwidth,
                      step_density, two_level, uniform01)
from betadens.estimators import _GATHER_ELEMENTS
from betadens.processes import PREFIX_BITS, _prefix_bins, lsv_blocks
from test_processes import two_level_quantile_oracle


def _panel_integral(estimate, edges, nodes=16):
    # test-local Gauss-Legendre panels; exact when the estimate is piecewise
    # polynomial between consecutive edges
    u, w = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        x = a + half * (u + 1.0)
        total += half * float(np.dot(w, estimate.evaluate(x)))
    return total


def _evaluate_oracle(estimate, x):
    # the per-point loop that KernelDensity.evaluate replaced: one sum of K
    # over each query point's window of the sorted sample
    x = np.atleast_1d(np.asarray(x, dtype=float))
    v = estimate.sorted_values
    h = estimate.bandwidth
    r = h * estimate.kernel.support_radius
    lo = np.searchsorted(v, x - r, side="left")
    hi = np.searchsorted(v, x + r, side="right")
    out = np.zeros_like(x)
    for i in range(len(x)):
        if hi[i] > lo[i]:
            out[i] = estimate.kernel.eval((x[i] - v[lo[i]:hi[i]]) / h).sum()
    return out / (estimate.n * h)


# a few fixed values make duplicate sample values and equal window widths common
_VALUES = st.one_of(st.sampled_from([-1.0, 0.0, 0.25, 0.5, 2.0]), st.floats(-3.0, 3.0))


class TestVectorizedEvaluate:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(_VALUES, min_size=1, max_size=80),
           queries=st.lists(st.floats(-8.0, 8.0), max_size=80),
           kernel=st.sampled_from(sorted(KERNELS)),
           h=st.floats(0.01, 3.0))
    def test_bit_identical_to_per_point_loop(self, values, queries, kernel, h):
        est = KernelDensity(values, KERNELS[kernel], h)
        # the queries, points far outside the support (empty windows), and
        # every sample value and kink, where a window gains or loses a value
        x = np.concatenate([queries, [-50.0, 50.0], est.sorted_values,
                            est.breakpoints()])
        assert np.array_equal(est.evaluate(x), _evaluate_oracle(est, x))

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_window_wider_than_one_gather(self, kernel):
        rng = np.random.default_rng(17)
        values = rng.standard_normal(48000)
        est = KernelDensity(values, KERNELS[kernel], 3.0)
        x = np.concatenate([np.linspace(-5.0, 5.0, 37), values[:5]])
        r = est.bandwidth * est.kernel.support_radius
        v = est.sorted_values
        width = np.searchsorted(v, x + r, side="right") - np.searchsorted(v, x - r)
        assert width.max() > _GATHER_ELEMENTS and width.min() < _GATHER_ELEMENTS
        assert np.array_equal(est.evaluate(x), _evaluate_oracle(est, x))

    @pytest.mark.parametrize("h", [0.3, 0.7])
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_ties_at_the_window_edges(self, kernel, h, monkeypatch):
        # one-decimal values, each repeated up to three times; queries at
        # v +- h, v +- h r and their neighbours, where rounding puts window
        # ends just past the support
        base = np.round(np.random.default_rng(3).uniform(-2.0, 2.0, 40), 1)
        values = np.concatenate([base, base[:15], base[:5]])
        calls = []

        def count(name, f):
            def counted(*args, **kwargs):
                calls.append(name)
                return f(*args, **kwargs)
            return counted

        spec = KERNELS[kernel]
        spied = dataclasses.replace(spec, polynomial=count("polynomial", spec.polynomial))
        est = KernelDensity(values, spied, h)
        v, r = est.sorted_values, spec.support_radius
        c = np.concatenate([v + h, v - h, v + h * r, v - h * r])
        x = np.concatenate([c, np.nextafter(c, np.inf), np.nextafter(c, -np.inf)])
        with monkeypatch.context() as patch:
            patch.setattr(KernelSpec, "overwrite", count("zeroing", KernelSpec.overwrite))
            got = est.evaluate(x)
        # some copies take the zeroing (overwrite) and some skip it
        assert 0 < calls.count("zeroing") < calls.count("polynomial")
        assert np.array_equal(got, _evaluate_oracle(KernelDensity(values, spec, h), x))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_sample_value_is_refused(self, bad):
        with pytest.raises(DomainError, match="finite sample values"):
            KernelDensity([0.0, bad, 1.0], EPANECHNIKOV, 0.5)

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_non_finite_points_have_empty_windows(self, kernel):
        # ±inf and NaN query points find no sample value within h * radius:
        # 0.0, with no warning (the suite turns RuntimeWarning into an error)
        values = [-0.4, 0.0, 0.0, 0.3, 1.1]
        est = KernelDensity(values, KERNELS[kernel], 0.5)
        x = np.array([math.inf, -math.inf, math.nan, *values, 0.2])
        got = est.evaluate(x)
        assert np.array_equal(got[:3], [0.0, 0.0, 0.0])
        assert np.array_equal(got, _evaluate_oracle(est, x))


class TestKernelEstimate:
    def test_single_point_at_center(self):
        est = KernelDensity([0.0], EPANECHNIKOV, 1.0)
        assert est.evaluate(0.0)[0] == 0.75

    def test_single_point_outside_support(self):
        est = KernelDensity([0.0], EPANECHNIKOV, 1.0)
        assert est.evaluate(2.0)[0] == 0.0
        assert est.evaluate(-1.0001)[0] == 0.0

    def test_rejects_nonpositive_bandwidth(self):
        for h in (0.0, -0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                KernelDensity([0.1, 0.2], EPANECHNIKOV, h)

    def test_mass_is_kernel_l1_norm(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(2, 60))
            values = rng.random(n) * 3.0 - 1.0
            h = float(rng.uniform(0.05, 0.5))
            est = KernelDensity(values, EPANECHNIKOV, h)
            edges = est.breakpoints()
            assert abs(_panel_integral(est, edges) - 1.0) < 1e-6

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(3)
        values = rng.random(25)
        h = 0.17
        est = KernelDensity(values, EPANECHNIKOV, h)
        for x in (0.0, 0.3, 0.77, 1.2):
            direct = np.mean(EPANECHNIKOV.eval((x - values) / h)) / h
            assert est.evaluate(x)[0] == pytest.approx(direct, rel=1e-12)

    def test_breakpoints_list_every_kink(self):
        values = np.array([0.1, 0.4, 0.45])
        est = KernelDensity(values, TRIANGULAR, 0.2)
        # the triangular kernel peaks at each sample value
        assert np.array_equal(est.breakpoints(), np.unique(
            np.concatenate([values - 0.2, values, values + 0.2])))
        est = KernelDensity(values, EPANECHNIKOV, 0.2)
        assert np.array_equal(est.breakpoints(),
                              np.unique(np.concatenate([values - 0.2, values + 0.2])))

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_mass_exact_at_n5000(self, kernel):
        # 10,000 to 15,000 kinks: every panel still ends on a kink
        rng = np.random.default_rng(2024)
        values = rng.normal(10.0, math.sqrt(2.0), 5000)
        est = KernelDensity(values, KERNELS[kernel], silverman_bandwidth(values))
        assert abs(estimate_mass(est) - 1.0) < 1e-12

    def test_estimate_mass_helper_agrees(self):
        rng = np.random.default_rng(8)
        est = KernelDensity(rng.random(40), EPANECHNIKOV, 0.2)
        assert estimate_mass(est) == pytest.approx(
            _panel_integral(est, est.breakpoints()), abs=1e-10)


class TestHistogram:
    def test_counting_example(self):
        est = histogram_estimate([0.1, 0.3, 0.9], 2)
        assert est.evaluate(0.25)[0] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert est.evaluate(0.75)[0] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_zero_is_in_no_bin(self):
        est = histogram_estimate([0.1, 0.3, 0.9], 2)
        assert est.evaluate(0.0)[0] == 0.0
        assert est.evaluate(-0.2)[0] == 0.0
        assert est.evaluate(1.0001)[0] == 0.0

    def test_half_open_bin_membership(self):
        est = histogram_estimate([0.5, 0.5, 1.0], 2)
        # values at 0.5 land in bin 1 = (0, 1/2]; 1.0 lands in bin 2
        assert est.evaluate(0.5)[0] == pytest.approx(2 * 2 / 3, abs=1e-12)
        assert est.evaluate(1.0)[0] == pytest.approx(1 * 2 / 3, abs=1e-12)

    def test_empty_bin_is_zero(self):
        est = histogram_estimate([0.9, 0.95], 4)
        assert est.evaluate(0.3)[0] == 0.0

    def test_mass_one_for_unit_interval_samples(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 500))
            m = int(rng.integers(1, 64))
            est = histogram_estimate(rng.random(n) * 0.999 + 1e-4, m)
            assert abs(estimate_mass(est) - 1.0) < 1e-12

    def test_outside_values_contribute_zero_mass(self):
        est = histogram_estimate([0.5, 2.0, -1.0, 0.25], 4)
        assert estimate_mass(est) == pytest.approx(0.5, abs=1e-12)


def _projection_oracle(values, m, basis):
    # every degree as a weighted bincount, Q_1 = 1 included
    xi = values[(values > 0.0) & (values <= 1.0)]
    coeffs = np.zeros((basis.degree + 1, m))
    if len(xi):
        j = np.ceil(xi * m).astype(int)
        q = basis.eval_all(m * xi - (j - 1))
        for i in range(basis.degree + 1):
            coeffs[i] = np.bincount(j - 1, weights=q[i], minlength=m)
        coeffs *= np.sqrt(m) / len(values)
    return coeffs


_PREFIX_SHIFT = 64 - PREFIX_BITS

# the step marginals that the prefix table serves: the two shipped ones, and
# two whose pieces meet off the dyadic lattice, at rounded CDF values
MARGINALS = {
    "uniform01": uniform01(),
    "two_level": two_level(),
    "breaks_0.3_0.7": step_density((0.0, 0.3, 0.7, 1.0), (0.5, 1.75, 0.5)),
    "thirds": step_density((0.0, 1 / 3, 2 / 3, 1.0), (0.6, 1.8, 0.6)),
}
by_marginal = pytest.mark.parametrize("marginal", MARGINALS.values(), ids=MARGINALS.keys())


def _pipeline_bins(marginal, registers, m):
    # the bin a chain with `marginal` puts each uint64 register in: the value
    # float(R) 2^-64, its quantile (written out for two_level), then the
    # clamped ceil of x m
    x = np.asarray(registers, dtype=np.uint64).astype(np.float64) * 2.0**-64
    x = two_level_quantile_oracle(x) if marginal is two_level() else marginal.quantile(x)
    return np.clip(np.ceil(x * m), 0, m + 1).astype(np.int64)


def _prefix_ends(prefixes):
    low = np.asarray(prefixes, dtype=np.uint64) << np.uint64(_PREFIX_SHIFT)
    return low, low | np.uint64(2**_PREFIX_SHIFT - 1)


def _bin_edge_registers(marginal, m):
    # the first register of every bin that starts inside a prefix, found by
    # bisection on the pipeline, with its neighbours
    table = _prefix_bins(marginal, m)
    low, high = _prefix_ends(np.flatnonzero(table == m + 2))
    low_bin = _pipeline_bins(marginal, low, m)
    for _ in range(_PREFIX_SHIFT):
        mid = low + (high - low) // np.uint64(2)
        same = _pipeline_bins(marginal, mid, m) == low_bin
        low = np.where(same, mid, low)
        high = np.where(same, high, mid)
    # `high` is now the first register past the bin of the prefix's lowest one
    assert np.all(_pipeline_bins(marginal, high, m) > low_bin)
    return np.concatenate([low, high, high + np.uint64(1)])


def _kink_registers(marginal, ulps=200):
    # the registers of the values within `ulps` ulps of every CDF break, where
    # the quantile passes from one piece to the next, with their neighbours
    breaks, values = marginal.step_representation()
    kinks = np.cumsum(np.diff(breaks) * values)[:-1]
    near = (kinks.view(np.int64)[:, None] + np.arange(-ulps, ulps + 1)).view(np.float64)
    registers = (near.ravel() * 2.0**64).astype(np.uint64)
    return np.concatenate([registers - np.uint64(1), registers, registers + np.uint64(1)])


class TestChainHistogram:
    MS = tuple(range(1, 65)) + (253, 254, 255, 256, 1000, 5000)

    @by_marginal
    def test_table_entries_are_the_pipeline_bins_at_both_prefix_ends(self, marginal):
        low, high = _prefix_ends(np.arange(2**PREFIX_BITS))
        for m in self.MS:
            table = _prefix_bins(marginal, m)
            assert len(table) == 2**PREFIX_BITS and not table.flags.writeable
            first, last = _pipeline_bins(marginal, low, m), _pipeline_bins(marginal, high, m)
            # int64 comparison: an entry wrapped by a narrow dtype would differ
            want = np.where(first == last, first, m + 2)
            assert np.array_equal(table.astype(np.int64), want), m

    @by_marginal
    def test_bins_never_decrease_with_the_register(self, marginal):
        rng = np.random.default_rng(1234)
        for m in (1, 2, 3, 4, 7, 17, 47, 253, 254, 1000, 5000):
            registers = np.sort(np.concatenate([
                rng.integers(0, 2**64 - 1, size=20000, dtype=np.uint64, endpoint=True),
                np.array([0, 1, 2**64 - 2, 2**64 - 1], dtype=np.uint64),
                _kink_registers(marginal), _bin_edge_registers(marginal, m)]))
            assert np.all(np.diff(_pipeline_bins(marginal, registers, m)) >= 0), m

    def test_refuses_a_marginal_that_is_not_a_step(self):
        # the Gaussian quantile is not shown to be monotone in floating point
        with pytest.raises(DomainError, match="needs a step marginal"):
            _prefix_bins(gaussian(0.5, 0.01), 4)

    @pytest.mark.parametrize("kind", [ProcessKind.AR1_BINARY, ProcessKind.AR1_PIECEWISE])
    def test_lsv_count_refuses_other_processes(self, kind):
        # the blocks that bin_counts counts an lsv trajectory from
        with pytest.raises(DomainError, match="not an lsv trajectory"):
            next(lsv_blocks(ProcessSpec(kind, n=10, seed=1)))


class TestProjection:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_counts_equal_weighted_oracle(self, degree):
        basis = build_poly_basis(degree)
        chain = generate(ProcessSpec(ProcessKind.AR1_PIECEWISE, n=20000, seed=4))
        samples = ([0.0, 1.0, 0.5, 1.0, 0.25, 0.0],    # the bin edges 0 and 1
                   [-0.3, 1.7, 0.4, 2.0, 0.999, 1.0],   # values outside (0, 1]
                   [-1.0, 0.0, 1.5],                    # no inside values
                   [np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324, -5e-324, 0.5],
                   np.random.default_rng(17).random(1000), chain)
        for m in (1, 4, 13, 47):
            # every bin edge j/m with both neighbours, among other values
            edges = np.arange(m + 1) / m
            edges = np.concatenate([np.nextafter(edges, -np.inf), edges,
                                    np.nextafter(edges, np.inf), [np.nan, np.inf, 0.3]])
            for values in samples + (edges,):
                values = np.asarray(values, dtype=float)
                est = projection_estimate(values, m, degree)
                assert np.array_equal(est.coeffs, _projection_oracle(values, m, basis))

    def test_degree_zero_equals_counting_histogram(self):
        rng = np.random.default_rng(11)
        values = rng.random(200)
        m = 13
        est = projection_estimate(values, m, 0)
        heights = est.bin_values()
        for j in range(1, m + 1):
            count = int(np.sum((values > (j - 1) / m) & (values <= j / m)))
            assert heights[j - 1] == pytest.approx(m * count / 200, abs=1e-12)

    def test_coefficients_are_empirical_means(self):
        rng = np.random.default_rng(13)
        values = rng.random(50)
        m, r = 5, 2
        basis = build_poly_basis(r)
        est = projection_estimate(values, m, r)
        # independent accumulation of (1/n) sum sqrt(m) Q_i(m y - (j-1))
        for j in (1, 3, 5):
            inside = (values > (j - 1) / m) & (values <= j / m)
            t = m * values[inside] - (j - 1)
            for i in range(r + 1):
                expected = math.sqrt(m) * basis.eval_all(t)[i].sum() / 50
                assert est.coeffs[i, j - 1] == pytest.approx(expected, abs=1e-12)

    def test_projection_reproduces_polynomials(self):
        # projecting a degree-r polynomial density sampled exactly: the
        # estimate evaluated inside a bin uses only that bin's column
        est = PiecewisePolyDensity(np.array([[1.0, 0.5], [0.2, 0.0]]))
        x = 0.3
        t = 2 * x - 0
        expected = math.sqrt(2) * (1.0 * 1.0 + 0.2 * math.sqrt(3) * (2 * t - 1))
        assert est.evaluate(x)[0] == pytest.approx(expected, rel=1e-12)

    def test_linearity_under_concatenation(self):
        rng = np.random.default_rng(21)
        a, b = rng.random(120), rng.random(80)
        m, r = 7, 2
        ea = projection_estimate(a, m, r)
        eb = projection_estimate(b, m, r)
        eab = projection_estimate(np.concatenate([a, b]), m, r)
        x = rng.random(50)
        mix = (120 * ea.evaluate(x) + 80 * eb.evaluate(x)) / 200
        assert np.allclose(eab.evaluate(x), mix, atol=1e-12)

    def test_kernel_linearity_under_concatenation(self):
        rng = np.random.default_rng(22)
        a, b = rng.random(30), rng.random(50)
        h = 0.21
        ea = KernelDensity(a, EPANECHNIKOV, h)
        eb = KernelDensity(b, EPANECHNIKOV, h)
        eab = KernelDensity(np.concatenate([a, b]), EPANECHNIKOV, h)
        x = np.linspace(-0.3, 1.3, 41)
        mix = (30 * ea.evaluate(x) + 50 * eb.evaluate(x)) / 80
        assert np.allclose(eab.evaluate(x), mix, atol=1e-12)

    def test_rejects_bad_bin_count(self):
        with pytest.raises(DomainError):
            projection_estimate([0.5], 0, 0)

    def test_coefficient_shape_validated(self):
        # the shape is the whole description: 2-D, at least one bin, and a
        # supported number of rows (degree 0..10)
        for coeffs in (np.zeros(4), np.zeros((1, 2, 2)), np.zeros((2, 0)), 1.0):
            with pytest.raises(DomainError):
                PiecewisePolyDensity(coeffs)
        for rows in (0, 12):
            with pytest.raises(UnsupportedDegree):
                PiecewisePolyDensity(np.zeros((rows, 3)))
        with pytest.raises(UnsupportedDegree):
            projection_estimate([0.5], 4, 11)
        with pytest.raises(DomainError):
            PiecewisePolyDensity(np.array([[np.inf, 0.0]]))
        est = PiecewisePolyDensity(np.zeros((11, 3)))
        assert (est.degree, est.m) == (10, 3)

    def test_caller_array_stays_writeable_and_apart(self):
        c = np.zeros((1, 3))
        est = PiecewisePolyDensity(c)
        assert c.flags.writeable and not est.coeffs.flags.writeable
        c[0, 1] = 5.0
        assert np.array_equal(est.coeffs, np.zeros((1, 3)))
        assert np.array_equal(est.evaluate(np.array([0.5])), [0.0])


def _read_only(values):
    values = np.array(values, dtype=float)
    values.flags.writeable = False
    return values


_FLOATS = np.random.default_rng(29).random(300) * 1.4 - 0.2
_INTS = np.random.default_rng(29).integers(-2, 6, 300)

# each form the observations may take, with the float64 array it stands for
_FORMS = {
    "list": (_FLOATS.tolist(), _FLOATS),
    "int array": (_INTS, _INTS.astype(float)),
    "read-only array": (_read_only(_FLOATS), _FLOATS),
}


@pytest.mark.parametrize("form", sorted(_FORMS))
def test_every_form_of_the_observations_gives_the_float64_bits(form):
    given, floats = _FORMS[form]
    assert np.array_equal(histogram_estimate(given, 9).coeffs,
                          histogram_estimate(floats, 9).coeffs)
    for degree in (1, 3):
        assert np.array_equal(projection_estimate(given, 13, degree).coeffs,
                              projection_estimate(floats, 13, degree).coeffs)
    assert silverman_bandwidth(given) == silverman_bandwidth(floats)
    x = np.linspace(-3.0, 7.0, 201)
    for kernel in KERNELS.values():
        assert np.array_equal(KernelDensity(given, kernel, 0.4).evaluate(x),
                              KernelDensity(floats, kernel, 0.4).evaluate(x))


@pytest.mark.parametrize("values, shape", [
    ([], r"\(0,\)"), (np.random.default_rng(3).random((50, 4)), r"\(50, 4\)"),
    (0.5, r"\(\)"), ([[0.2], [0.4]], r"\(2, 1\)")])
def test_observations_that_are_not_a_nonempty_1d_array_are_refused(values, shape):
    named = "observations must be a nonempty 1-D array, got shape " + shape
    with pytest.raises(DomainError, match=named):
        histogram_estimate(values, 5)
    with pytest.raises(DomainError, match=named):
        projection_estimate(values, 5, 2)
    with pytest.raises(DomainError, match=named):
        KernelDensity(values, EPANECHNIKOV, 0.1)
    with pytest.raises(DomainError, match=named):
        silverman_bandwidth(values)


def test_bin_values_refuses_a_projection_of_positive_degree():
    estimate = projection_estimate([0.1, 0.5, 0.9], 4, 1)
    with pytest.raises(DomainError, match="defined for histograms"):
        estimate.bin_values()


def test_phi_system_gram_identity():
    # orthonormality of the scaled bin system, quadrature with 64 nodes per bin
    m, r = 8, 2
    basis = build_poly_basis(r)
    u, w = np.polynomial.legendre.leggauss(64)
    dim = (r + 1) * m
    gram = np.zeros((dim, dim))
    for j in range(m):
        a, b = j / m, (j + 1) / m
        half = 0.5 * (b - a)
        x = a + half * (u + 1.0)
        t = m * x - j
        q = basis.eval_all(t) * math.sqrt(m)
        block = (q * (half * w)) @ q.T
        s = slice(j * (r + 1), (j + 1) * (r + 1))
        gram[s, s] = block
    assert np.max(np.abs(gram - np.eye(dim))) < 1e-8
