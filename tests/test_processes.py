import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from betadens import (DomainError, ProcessKind, ProcessSpec, Sample,
                      ar1_binary_chain, ar1_step, gaussian_quantile_transform,
                      generate, lsv_step, lsv_trajectory, piecewise_quantile_transform,
                      two_level)
from betadens import processes
from betadens.processes import _BLOCK, PREFIX_BITS, _rng, register_values


def two_level_quantile_oracle(u):
    # the two-level quantile written out branch by branch: the density is
    # 1/2 on [0, 1/4] and [3/4, 1], 3/2 between, so its CDF is 1/8 at 1/4
    # and 7/8 at 3/4
    u = np.asarray(u, dtype=float)
    return np.where(u <= 0.125, 2.0 * u,
                    np.where(u <= 0.875, 0.25 + (2.0 / 3.0) * (u - 0.125),
                             0.75 + 2.0 * (u - 0.875)))


def _ks_uniform(values: np.ndarray) -> float:
    xs = np.sort(values)
    k = len(xs)
    ranks = np.arange(1, k + 1) / k
    return float(max(np.abs(ranks - xs).max(), np.abs(xs - (ranks - 1.0 / k)).max()))


def _chain_oracle(n: int, burn_in: int, seed: int) -> np.ndarray:
    # one shift-or pass per window position over the innovations, then the
    # bits of X_0 shifted into the first 64 windows
    rng = _rng(seed)
    x0 = rng.random()
    total = burn_in + n
    bits = rng.integers(0, 2, size=total, dtype=np.uint64)
    reg = np.zeros(total, dtype=np.uint64)
    for s in range(min(64, total)):
        reg[s:] |= bits[: total - s] << np.uint64(63 - s)
    reg0 = np.uint64(int(x0 * 2.0**64))
    head = min(64, total)
    reg[:head] |= reg0 >> np.arange(1, head + 1, dtype=np.uint64)
    return reg[burn_in:].astype(np.float64) * 2.0**-64


class TestAr1Chain:
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_log_doubled_window_matches_per_position_passes(self, seed):
        # burn-ins 0 and 1 give odd and even totals: the last raw Philox word
        # is used by its low half only, or in full
        for n in (1, 63, 64, 65, 2000, 8191, 8192, 8193):
            for burn_in in (0, 1, 63, 1000):
                got = ar1_binary_chain(n, burn_in=burn_in, seed=seed).values
                want = _chain_oracle(n, burn_in, seed)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), \
                    (n, burn_in)
        # the size of a sweep trial
        got = ar1_binary_chain(110_000, burn_in=1000, seed=seed).values
        assert np.array_equal(got.view(np.uint64),
                              _chain_oracle(110_000, 1000, seed).view(np.uint64))

    @given(reg=st.integers(0, 2**64 - 1))
    @example(reg=0)
    @example(reg=2**63 - 1)
    @example(reg=2**63)
    @example(reg=2**64 - 1)
    @example(reg=((2**52 + 1) << 11) | 2**10)     # a tie, rounded up to even
    @example(reg=(2**52 << 11) | 2**10)           # a tie, rounded down to even
    def test_two_halves_round_like_the_64_bit_register(self, reg):
        hi = np.array([reg >> 32], dtype=np.uint32)
        lo = np.array([reg & 0xFFFFFFFF], dtype=np.uint32)
        value = float(reg) * 2**-64
        binary = register_values(ProcessKind.AR1_BINARY, hi, lo)
        piecewise = register_values(ProcessKind.AR1_PIECEWISE, hi, lo)
        assert float(binary[0]).hex() == value.hex()
        assert float(piecewise[0]).hex() == float(two_level_quantile_oracle(value)).hex()
        # and so does the uint64 conversion that the oracle uses
        as_uint64 = np.array([reg], dtype=np.uint64).astype(np.float64)[0]
        assert float(as_uint64 * 2**-64).hex() == value.hex()

    def test_single_step_recursion(self):
        assert ar1_step(0.5, 1) == 0.75
        assert ar1_step(0.5, 0) == 0.25

    def test_values_in_unit_interval(self):
        s = ar1_binary_chain(5000, seed=1)
        assert s.values.min() >= 0.0 and s.values.max() <= 1.0

    def test_length_and_spec(self):
        s = ar1_binary_chain(321, burn_in=10, seed=9)
        assert len(s) == 321
        assert s.spec == ProcessSpec(ProcessKind.AR1_BINARY, n=321, seed=9, burn_in=10)

    def test_trajectory_follows_recursion(self):
        # consecutive values must be related by X' = (X + eps)/2 for a bit
        # eps in {0, 1}, up to the 2^-64 fixed-point resolution
        s = ar1_binary_chain(2000, seed=5)
        x = s.values
        eps = (2.0 * x[1:] - x[:-1]).round()
        assert set(np.unique(eps)) <= {0.0, 1.0}
        assert np.max(np.abs(2.0 * x[1:] - x[:-1] - eps)) < 1e-15

    def test_deterministic_given_seed(self):
        a = ar1_binary_chain(1000, seed=77)
        b = ar1_binary_chain(1000, seed=77)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, ar1_binary_chain(1000, seed=78).values)

    def test_marginal_is_uniform(self):
        # invariance of Uniform[0,1] under the kernel, checked empirically
        s = ar1_binary_chain(10**6, seed=2024)
        assert _ks_uniform(s.values) < 0.005

    def test_stationarity_over_windows(self):
        n = 2 * 10**5
        s = ar1_binary_chain(n, seed=31)
        half = n // 2
        tol = 3.0 / math.sqrt(half)
        for start in (0, n // 4, half):
            assert _ks_uniform(s.values[start:start + half]) < tol

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            ar1_binary_chain(0, seed=1)
        with pytest.raises(DomainError):
            ar1_binary_chain(10, burn_in=-1, seed=1)


class TestTransforms:
    def test_gaussian_median_maps_to_mu(self):
        u = [0.5, 0.975, 0.025]
        y = gaussian_quantile_transform(u, mu=10.0, sigma2=2.0)
        assert y[0] == pytest.approx(10.0, abs=1e-12)
        z = gaussian_quantile_transform(u, mu=0.0, sigma2=1.0)
        assert z[1] == pytest.approx(1.959964, abs=1e-5)
        assert z[2] == pytest.approx(-1.959964, abs=1e-5)

    def test_gaussian_rejects_boundary_values(self):
        for bad in ([0.0, 0.5], [0.5, 1.0]):
            with pytest.raises(DomainError):
                gaussian_quantile_transform(bad, 0.0, 1.0)

    def test_gaussian_checks_parameters_before_any_quantile(self, monkeypatch):
        calls = []

        def counting_ppf(u):
            calls.append(u)
            return 0.0

        monkeypatch.setattr(processes, "norm_ppf", counting_ppf)
        s = ar1_binary_chain(1000, seed=2).values
        for mu, sigma2 in ((0.0, -1.0), (0.0, 0.0), (0.0, math.inf), (0.0, math.nan),
                           (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0)):
            with pytest.raises(DomainError, match="need a finite mu and sigma2"):
                gaussian_quantile_transform(s, mu, sigma2)
        assert calls == []
        gaussian_quantile_transform(s, 0.0, 1.0)
        assert len(calls) == 1000

    def test_gaussian_run_survives_rounded_registers(self, monkeypatch):
        # registers 0 and >= 2^64 - 2^10 convert to exactly 0.0 and 1.0
        def chain(n, burn_in, seed):
            spec = ProcessSpec(ProcessKind.AR1_BINARY, n=n, seed=seed, burn_in=burn_in)
            return Sample(values=np.array([0.0, 0.5, 1.0]), spec=spec)

        monkeypatch.setattr(processes, "ar1_binary_chain", chain)
        spec = ProcessSpec(ProcessKind.AR1_GAUSSIAN, n=3, seed=0, mu=10.0, sigma2=2.0)
        y = generate(spec).values
        assert np.all(np.isfinite(y))
        assert y[0] < y[1] == 10.0 < y[2]

    @pytest.mark.parametrize("position", [0, -1, _BLOCK + 3])
    def test_transforms_reject_nan_before_any_quantile(self, monkeypatch, position):
        calls = []

        def counting_ppf(u):
            calls.append(u)
            return 0.0

        monkeypatch.setattr(processes, "norm_ppf", counting_ppf)
        values = np.full(2 * _BLOCK, 0.5)
        values[position] = math.nan
        with pytest.raises(DomainError, match="strictly inside"):
            gaussian_quantile_transform(values, 0.0, 1.0)
        with pytest.raises(DomainError, match="needs values in"):
            piecewise_quantile_transform(values)
        assert calls == []

    def test_piecewise_branch_values(self):
        quantile = two_level().quantile
        assert quantile(0.5) == pytest.approx(0.5, abs=1e-15)
        assert quantile(0.125) == pytest.approx(0.25, abs=1e-15)
        assert quantile(0.95) == pytest.approx(0.9, abs=1e-15)

    def test_step_quantile_has_the_bytes_of_the_closed_form(self):
        edges = [0.0, 0.125, 0.875, 1.0, math.nan]
        for edge in (0.125, 0.875):
            edges += [np.nextafter(edge, 0.0), np.nextafter(edge, 1.0)]
        # the lowest and highest register of every prefix, as _prefix_bins
        # builds them
        hi = np.arange(2**PREFIX_BITS, dtype=np.uint32) << (32 - PREFIX_BITS)
        lo = np.zeros_like(hi)
        prefix_ends = [register_values(ProcessKind.AR1_BINARY, hi, lo),
                       register_values(ProcessKind.AR1_BINARY,
                                       hi | (2**(32 - PREFIX_BITS) - 1), ~lo)]
        for u in [np.array(edges),
                  np.random.Generator(np.random.Philox(key=3)).random(10**6),
                  ar1_binary_chain(200_000, seed=105).values] + prefix_ends:
            got = two_level().quantile(u)
            assert np.array_equal(got.view(np.uint64),
                                  two_level_quantile_oracle(u).view(np.uint64))

    def test_piecewise_cdf_roundtrip(self):
        # forward CDF of the two-level density, written out independently
        def cdf(x):
            if x <= 0.25:
                return 0.5 * x
            if x <= 0.75:
                return 0.125 + 1.5 * (x - 0.25)
            return 0.875 + 0.5 * (x - 0.75)

        rng = np.random.default_rng(4)
        for u in np.concatenate([rng.random(200), [0.01, 0.12, 0.13, 0.87, 0.88, 0.99]]):
            assert cdf(float(two_level().quantile(u))) == pytest.approx(u, abs=1e-12)

    def test_piecewise_blocks_equal_one_call(self):
        specials = [0.0, 5e-324, 1.0]
        for edge in (0.125, 0.875):
            specials += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)]
        samples = [ar1_binary_chain(n, seed=n).values
                   for n in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5)]
        # the special values once on their own and once amid chain values
        across = samples[-1].copy()
        across[_BLOCK - 5:_BLOCK + 4] = specials
        for values in samples + [np.array(specials), across]:
            got = piecewise_quantile_transform(values)
            want = two_level_quantile_oracle(values)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), len(values)

    def test_piecewise_rejects_outside_unit_interval(self):
        with pytest.raises(DomainError):
            piecewise_quantile_transform([0.5, 1.2])
        # a bad value in a later block is found as well
        for bad in (-0.5, 1.5):
            values = np.full(3 * _BLOCK + 5, 0.5)
            values[-1] = bad
            with pytest.raises(DomainError, match="needs values in"):
                piecewise_quantile_transform(values)

    @pytest.mark.parametrize("values", [[], np.zeros((4, 2)), 0.5])
    def test_transforms_refuse_a_shape_that_is_not_observations(self, values):
        for transform in (piecewise_quantile_transform,
                          lambda v: gaussian_quantile_transform(v, 0.0, 1.0)):
            with pytest.raises(DomainError, match="nonempty 1-D array, got shape"):
                transform(values)

    def test_generate_labels_its_sample_with_the_given_spec(self):
        for spec in (ProcessSpec(ProcessKind.AR1_BINARY, n=50, seed=3),
                     ProcessSpec(ProcessKind.AR1_PIECEWISE, n=50, seed=3),
                     ProcessSpec(ProcessKind.AR1_GAUSSIAN, n=50, seed=3, mu=1.0, sigma2=4.0),
                     ProcessSpec(ProcessKind.LSV_TRAJECTORY, n=50, seed=3, gamma=0.5)):
            assert generate(spec).spec == spec

    def test_generate_refuses_an_unknown_kind(self):
        with pytest.raises(DomainError, match="unknown process kind 'ar2'"):
            generate(ProcessSpec("ar2", n=5))


class TestLsvMap:
    def test_fixed_points_and_branches(self):
        assert lsv_step(0.0, 0.5) == 0.0
        assert lsv_step(1.0, 0.5) == 1.0
        assert lsv_step(0.75, 0.3) == 0.5

    def test_left_branch_closed_form(self):
        # x(1 + 2^g x^g) at x = 1/4, g = 1/2 is 1/4 + sqrt(2)/8
        assert lsv_step(0.25, 0.5) == pytest.approx(0.25 + math.sqrt(2.0) / 8.0, abs=1e-15)

    def test_rejects_outside_domain(self):
        with pytest.raises(DomainError):
            lsv_step(-0.1, 0.5)
        with pytest.raises(DomainError):
            lsv_step(1.1, 0.5)
        with pytest.raises(DomainError):
            lsv_step(0.5, 1.5)

    def test_left_branch_stays_in_unit_interval_below_one_half(self):
        # the loop of lsv_blocks clamps nothing: in Python floats, as it
        # computes, the left branch maps the 4,096 largest doubles below 1/2
        # to at most 1 for every gamma of the grid
        below_half = (np.float64(0.5).view(np.uint64)
                      - np.arange(1, 4097, dtype=np.uint64)).view(np.float64).tolist()
        gammas = [1e-12, 0.25, 0.5, 0.75, math.nextafter(1.0, 0.0),
                  *np.linspace(0.01, 0.99, 99).tolist()]
        for gamma in gammas:
            scale = 2.0**gamma
            top = max(x * (1.0 + scale * x**gamma) for x in below_half)
            assert top <= 1.0, (gamma, top.hex())
        assert max(below_half) == math.nextafter(0.5, 0.0)

    def test_single_iterate_matches_step(self):
        seed = 99
        s = lsv_trajectory(1, 0.3, burn_in=0, seed=seed)
        y0 = np.random.Generator(np.random.Philox(key=seed)).random()
        assert s.values[0] == lsv_step(y0, 0.3)

    def test_trajectory_equals_folded_steps(self):
        # the last pairs put the end of the burn-in and the end of the
        # trajectory on both sides of a block edge
        seed, gamma = 12, 0.6
        for n, burn_in in ((400, 0), (400, 1), (400, 37), (1, _BLOCK - 1), (1, _BLOCK),
                           (2, _BLOCK - 1), (_BLOCK + 1, _BLOCK - 1), (_BLOCK, _BLOCK + 1),
                           (_BLOCK - 1, 1), (2 * _BLOCK + 1, 0)):
            s = lsv_trajectory(n, gamma, burn_in=burn_in, seed=seed)
            x = np.random.Generator(np.random.Philox(key=seed)).random()
            manual = []
            for _ in range(burn_in + n):
                x = lsv_step(x, gamma)
                manual.append(x)
            assert np.array_equal(s.values, np.array(manual[burn_in:])), (n, burn_in)

    def test_values_in_unit_interval(self):
        s = lsv_trajectory(5000, 0.75, seed=8)
        assert s.values.min() >= 0.0 and s.values.max() <= 1.0

    def test_long_sojourns_near_zero_for_large_gamma(self):
        # the neutral fixed point holds trajectories much longer at gamma=3/4
        n = 10**5
        frac = {}
        for gamma in (0.25, 0.75):
            s = lsv_trajectory(n, gamma, seed=314)
            frac[gamma] = float(np.mean(s.values <= 0.05))
        assert frac[0.75] > frac[0.25]

    def test_deterministic(self):
        a = lsv_trajectory(500, 0.5, seed=6)
        b = lsv_trajectory(500, 0.5, seed=6)
        assert np.array_equal(a.values, b.values)


class TestSpecValidation:
    def test_generate_dispatch(self):
        for kind, extra in ((ProcessKind.AR1_BINARY, {}),
                            (ProcessKind.AR1_PIECEWISE, {}),
                            (ProcessKind.AR1_GAUSSIAN, {"mu": 0.0, "sigma2": 1.0}),
                            (ProcessKind.LSV_TRAJECTORY, {"gamma": 0.5})):
            spec = ProcessSpec(kind=kind, n=64, seed=5, burn_in=16, **extra)
            s = generate(spec)
            assert len(s) == 64 and s.spec == spec

    def test_generate_is_deterministic(self):
        spec = ProcessSpec(ProcessKind.AR1_PIECEWISE, n=256, seed=11)
        assert np.array_equal(generate(spec).values, generate(spec).values)

    def test_gamma_only_for_lsv(self):
        with pytest.raises(DomainError):
            ProcessSpec(ProcessKind.AR1_BINARY, n=10, gamma=0.5)
        with pytest.raises(DomainError):
            ProcessSpec(ProcessKind.LSV_TRAJECTORY, n=10)

    def test_mu_sigma_only_for_gaussian(self):
        with pytest.raises(DomainError):
            ProcessSpec(ProcessKind.AR1_BINARY, n=10, mu=0.0, sigma2=1.0)
        with pytest.raises(DomainError):
            ProcessSpec(ProcessKind.AR1_GAUSSIAN, n=10, mu=0.0)
        for mu, sigma2 in ((0.0, -1.0), (0.0, 0.0), (0.0, math.inf), (0.0, math.nan),
                           (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0)):
            with pytest.raises(DomainError):
                ProcessSpec(ProcessKind.AR1_GAUSSIAN, n=10, mu=mu, sigma2=sigma2)

    def test_sample_is_immutable(self):
        s = ar1_binary_chain(10, seed=0)
        with pytest.raises(ValueError):
            s.values[0] = 0.5

    def test_sample_length_must_match_spec(self):
        spec = ProcessSpec(ProcessKind.AR1_BINARY, n=3, seed=0)
        with pytest.raises(DomainError):
            Sample(values=np.array([0.1, 0.2]), spec=spec)

    def test_unit_interval_kinds_enforce_range(self):
        spec = ProcessSpec(ProcessKind.AR1_BINARY, n=2, seed=0)
        with pytest.raises(DomainError):
            Sample(values=np.array([0.5, 1.2]), spec=spec)
        lsv = ProcessSpec(ProcessKind.LSV_TRAJECTORY, n=1, seed=0, gamma=0.5)
        with pytest.raises(DomainError):
            Sample(values=np.array([-0.1]), spec=lsv)

    @pytest.mark.parametrize("kind, gamma", [(ProcessKind.AR1_BINARY, None),
                                             (ProcessKind.AR1_PIECEWISE, None),
                                             (ProcessKind.LSV_TRAJECTORY, 0.5)])
    @pytest.mark.parametrize("position", [0, -1, _BLOCK + 3])
    def test_unit_interval_kinds_reject_nan(self, kind, gamma, position):
        values = np.full(2 * _BLOCK, 0.5)
        values[position] = math.nan
        spec = ProcessSpec(kind, n=len(values), seed=0, gamma=gamma)
        with pytest.raises(DomainError, match=r"samples live in \[0, 1\]"):
            Sample(values=values, spec=spec)
        with pytest.raises(DomainError, match=r"samples live in \[0, 1\]"):
            Sample(values=[math.nan, 0.5], spec=replace(spec, n=2))

    def test_gamma_must_lie_inside_the_unit_interval(self):
        for gamma in (0.0, 1.0, -0.5, 1.5, math.nan):
            with pytest.raises(DomainError, match=r"gamma must lie in \(0, 1\)"):
                ProcessSpec(ProcessKind.LSV_TRAJECTORY, n=2, gamma=gamma)

    def test_seed_must_be_unsigned_64_bit(self):
        with pytest.raises(DomainError):
            ProcessSpec(ProcessKind.AR1_BINARY, n=2, seed=-1)
        with pytest.raises(DomainError):
            ProcessSpec(ProcessKind.AR1_BINARY, n=2, seed=2**64)
