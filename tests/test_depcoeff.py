import ast
import inspect
from fractions import Fraction

import numpy as np
import pytest

from betadens import (CapacityError, DomainError, b0_exact, b0_staircase_scan,
                      beta1_estimate, beta2_pair_lower_bound, conditional_atoms,
                      depcoeff, two_level)
from betadens.quadrature import gauss_legendre


def _pair_sum_oracle(x0, i, j, grid):
    """The pair sum as the product of the two centred indicator matrices,
    one row per grid point and one column per path."""
    paths = np.arange(2**i, dtype=float)
    x_i = (x0 + paths) * 2.0**-i
    x_j = (x0 + np.mod(paths, 2**j)) * 2.0**-j
    s = (np.arange(grid) + 0.5) / grid
    t = s
    a = (x_i[None, :] <= t[:, None]).astype(float) - t[:, None]
    b = (x_j[None, :] <= s[:, None]).astype(float) - s[:, None]
    return a @ b.T


def _pair_sum_fraction(x0, i, j, grid):
    """The pair sum in exact rational arithmetic, path by path."""
    x0 = Fraction(x0)
    points = [Fraction(2 * k + 1, 2 * grid) for k in range(grid)]
    total = [[Fraction(0)] * grid for _ in points]
    for p in range(2**i):
        x_i = (x0 + p) / 2**i
        x_j = (x0 + p % 2**j) / 2**j
        for row, t in enumerate(points):
            a = (x_i <= t) - t
            for col, s in enumerate(points):
                total[row][col] += a * ((x_j <= s) - s)
    return total


def _cases():
    # x0 at the 3-, 9- and 17-node Gauss points; j at both ends and the middle
    for nodes in (3, 9, 17):
        u, _ = gauss_legendre(nodes)
        for x0 in 0.5 * (u + 1.0):
            for i in range(2, 13):
                for j in sorted({1, i // 2, i - 1}):
                    yield float(x0), i, j


class TestConditionalAtoms:
    def test_one_step_from_zero(self):
        atoms = conditional_atoms(0.0, 1)
        assert np.array_equal(atoms, [0.0, 0.5])

    def test_two_steps_from_half(self):
        atoms = conditional_atoms(0.5, 2)
        assert np.allclose(atoms, [0.125, 0.375, 0.625, 0.875], atol=1e-15)

    def test_dyadic_lattice_spacing(self):
        atoms = conditional_atoms(0.3, 3)
        assert len(atoms) == 8
        assert np.allclose(np.diff(atoms), 0.125, atol=1e-15)

    def test_probabilities_sum_to_one(self):
        atoms = conditional_atoms(0.7, 10)
        assert len(atoms) * 2.0**-10 == 1.0

    def test_sorted_strictly_increasing_in_unit_interval(self):
        atoms = conditional_atoms(0.9, 6)
        assert np.all(np.diff(atoms) > 0)
        assert atoms[0] >= 0.0 and atoms[-1] < 1.0

    def test_capacity_bound(self):
        with pytest.raises(CapacityError):
            conditional_atoms(0.5, 25)
        with pytest.raises(DomainError):
            conditional_atoms(1.5, 3)
        for k in (0, -1):
            with pytest.raises(DomainError, match="k must be >= 1"):
                conditional_atoms(0.5, k)


class TestB0:
    def test_spec_examples(self):
        assert b0_exact(0.0, 1) == 0.5
        assert b0_staircase_scan(0.0, 1) == 0.5
        assert b0_exact(0.5, 1) == 0.25

    def test_closed_form_equals_staircase_scan(self):
        rng = np.random.default_rng(42)
        for k in range(1, 15):
            for x0 in rng.random(8):
                assert b0_exact(x0, k) == pytest.approx(
                    b0_staircase_scan(x0, k), abs=1e-15)

    def test_geometric_bound(self):
        rng = np.random.default_rng(1)
        for k in range(1, 21):
            xs = rng.random(200)
            assert all(b0_exact(x0, k) <= 2.0**-k for x0 in xs)

    def test_closed_form_region_beyond_enumeration(self):
        assert b0_exact(0.25, 40) == 2.0**-40 * 0.75
        with pytest.raises(CapacityError):
            b0_exact(0.5, 41)

    def test_monotone_transform_invariance(self):
        # applying the two-level quantile to atoms and comparing against the
        # transformed marginal CDF leaves the supremum unchanged
        def two_level_cdf(x):
            x = np.asarray(x, dtype=float)
            return np.where(x <= 0.25, 0.5 * x,
                            np.where(x <= 0.75, 0.125 + 1.5 * (x - 0.25),
                                     0.875 + 0.5 * (x - 0.75)))

        rng = np.random.default_rng(5)
        for k in (1, 2, 5, 9):
            for x0 in rng.random(4):
                atoms = conditional_atoms(x0, k)
                transformed = two_level().quantile(atoms)
                w = 2.0**-k
                below = np.arange(len(atoms)) * w
                g = two_level_cdf(transformed)
                sup = np.maximum(g - below, below + w - g).max()
                assert sup == pytest.approx(b0_exact(x0, k), abs=1e-12)


class TestBeta1:
    def test_range_for_k_one(self):
        val = beta1_estimate(1)
        assert 0.0 < val <= 0.5

    def test_bound_and_closed_form(self):
        # integral of 2^-k max(x, 1-x) over [0,1] is 3 * 2^-(k+2)
        for k in (1, 2, 5, 10, 20):
            val = beta1_estimate(k)
            assert val <= 2.0**-k
            assert val == pytest.approx(3.0 * 2.0 ** -(k + 2), rel=1e-12)

    def test_geometric_decay(self):
        vals = [beta1_estimate(k) for k in range(1, 12)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestPairLowerBounds:
    def test_lower_bound_below_certified_bound(self):
        # the grid value underestimates b_0(i, j), whose mean is <= 2^-j
        for i, j in ((2, 1), (3, 2), (5, 3)):
            val = beta2_pair_lower_bound(i, j, grid=64, x0_nodes=9)
            assert 0.0 <= val <= 2.0**-j + 1e-9

    def test_requires_ordered_indices(self):
        for i, j in ((2, 2), (1, 2), (3, 0)):
            with pytest.raises(DomainError):
                beta2_pair_lower_bound(i, j, grid=8, x0_nodes=3)

    @pytest.mark.parametrize("grid", [8, 64, 128, 256])
    def test_counted_pair_sum_equals_the_product_bit_for_bit(self, grid):
        # on a power-of-two grid every term is a multiple of grid^-2 / 4, so
        # both routes are exact and must agree in every bit
        for x0, i, j in _cases():
            counted = depcoeff._pair_sum(x0, i, j, grid)
            product = _pair_sum_oracle(x0, i, j, grid)
            assert counted.dtype == np.float64 and counted.shape == (grid, grid)
            assert np.array_equal(counted.view(np.uint64), product.view(np.uint64)), \
                (x0, i, j, grid)

    @pytest.mark.parametrize("x0, i, j, grid", [
        (0.375, 4, 2, 8),
        (0.0, 4, 2, 8),          # every odd path lands on a grid point
        (0.0, 4, 2, 2),          # X_j lands on the grid too
        (1.0, 3, 1, 4),          # the last path reaches 1, above every point
        (0.5 * (1.0 + gauss_legendre(9)[0][2]), 4, 2, 8),
        (0.5 * (1.0 + gauss_legendre(17)[0][16]), 5, 3, 16)])
    def test_counted_pair_sum_is_the_exact_rational_sum(self, x0, i, j, grid):
        counted = depcoeff._pair_sum(x0, i, j, grid)
        exact = _pair_sum_fraction(x0, i, j, grid)
        assert [[Fraction(v) for v in row] for row in counted.tolist()] == exact

    @pytest.mark.parametrize("grid", [10, 100])
    def test_other_grids_agree_with_the_product_to_rounding(self, grid):
        # grid points are not dyadic here, so neither route is exact; the
        # per-path means they feed the bound agree to 1e-12
        for x0, i, j in _cases():
            counted = depcoeff._pair_sum(x0, i, j, grid)
            product = _pair_sum_oracle(x0, i, j, grid)
            assert np.abs(counted - product).max() / 2**i <= 1e-12, (x0, i, j, grid)

    def test_shipped_rows_keep_their_bits(self, monkeypatch):
        # the coefficient report's rows, grid 128 and 17 nodes, as the product
        # of indicator matrices computed them
        rows = ((2, 1), (3, 2), (4, 3), (6, 4), (8, 6))
        counted = [beta2_pair_lower_bound(i, j, grid=128, x0_nodes=17).hex()
                   for i, j in rows]
        monkeypatch.setattr(depcoeff, "_pair_sum", _pair_sum_oracle)
        assert counted == [beta2_pair_lower_bound(i, j, grid=128, x0_nodes=17).hex()
                           for i, j in rows]

    def test_no_matrix_product_is_left(self):
        # a BLAS product here runs on BLAS threads, which compete with the
        # caller's own processes for the cores
        tree = ast.parse(inspect.getsource(depcoeff))
        assert not [node for node in ast.walk(tree)
                    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)]
        names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not names & {"matmul", "einsum", "tensordot", "inner", "outer"}

    def test_bound_at_the_path_cap(self):
        # 2^16 paths per node on a 256 grid: counts take O(2^i + grid^2)
        # memory, where the two (grid, 2^i) indicator matrices took 268 MB
        val = beta2_pair_lower_bound(16, 15, grid=256, x0_nodes=3)
        assert 0.0 <= val <= 2.0**-15 + 1e-9

    def test_rejects_too_many_paths_and_no_nodes(self):
        # 2^17 paths per node; raised before anything is allocated
        with pytest.raises(CapacityError):
            beta2_pair_lower_bound(17, 2)
        with pytest.raises(DomainError):
            beta2_pair_lower_bound(3, 2, grid=8, x0_nodes=0)
        for grid in (0, -1):
            with pytest.raises(DomainError):
                beta2_pair_lower_bound(2, 1, grid=grid, x0_nodes=3)

