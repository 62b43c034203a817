import numpy as np
import pytest

from betadens import (CapacityError, DomainError, b0_exact, b0_staircase_scan,
                      beta1_estimate, beta2_pair_lower_bound, conditional_atoms,
                      two_level)


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

    def test_rejects_too_many_paths_and_no_nodes(self):
        # 2^17 paths per node; raised before anything is allocated
        with pytest.raises(CapacityError):
            beta2_pair_lower_bound(17, 2)
        with pytest.raises(DomainError):
            beta2_pair_lower_bound(3, 2, grid=8, x0_nodes=0)
        for grid in (0, -1):
            with pytest.raises(DomainError):
                beta2_pair_lower_bound(2, 1, grid=grid, x0_nodes=3)
