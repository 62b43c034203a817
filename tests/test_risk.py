import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from betadens import (EPANECHNIKOV, BetadensError, DomainError, EmptyEstimate,
                      HistogramSpec, KernelDensity, KernelEstimatorSpec,
                      PiecewisePolyDensity, ProcessKind, ProcessSpec, ReferenceDensity,
                      TrialError, binning_bias, envelope_check, gaussian,
                      histogram_bins_bv, histogram_bins_lsv, histogram_estimate,
                      loglog_slope, lp_distance, monte_carlo_risk, projection_estimate,
                      risk_rows, step_density, two_level, uniform01)
from betadens import build_estimate, generate, lsv_trajectory
from betadens.config import load_config
from betadens import processes, risk
from betadens.processes import _BLOCK, REGISTER_KINDS
from betadens.risk import _MAX_QUAD_PANELS, _trial_risk
from test_acceptance import REFERENCE_TABLE
from test_runner import CONFIG_DIR, ROOT


def _hist_from_heights(heights):
    heights = np.asarray(heights, dtype=float)
    m = len(heights)
    coeffs = (heights / math.sqrt(m)).reshape(1, m)
    return PiecewisePolyDensity(coeffs)


def _quad_oracle(estimate, reference, p, lo, hi, total_nodes=10**5):
    # independent integrator: merge the breakpoints, then distribute
    # Gauss-Legendre nodes over the pieces
    breaks = np.unique(np.concatenate([
        [lo, hi],
        estimate.breakpoints(),
        reference.step_representation()[0] if reference.step_representation() is not None
        else np.array([]),
    ]))
    breaks = breaks[(breaks >= lo) & (breaks <= hi)]
    per_piece = max(4, total_nodes // max(len(breaks) - 1, 1))
    u, w = np.polynomial.legendre.leggauss(min(per_piece, 128))
    reps = max(1, per_piece // len(u))
    total = 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        sub = np.linspace(a, b, reps + 1)
        for aa, bb in zip(sub[:-1], sub[1:]):
            half = 0.5 * (bb - aa)
            x = aa + half * (u + 1.0)
            fx = np.abs(estimate.evaluate(x) - reference.pdf(x)) ** p
            total += half * float(np.dot(w, fx))
    return total


def _merge_oracle(estimate, reference, p, lo, hi):
    # the per-cut merge: one scalar piece lookup on each side per cut
    def value(breaks, values, x):
        if x <= breaks[0] or x > breaks[-1]:
            return 0.0
        return float(values[int(np.searchsorted(breaks, x, side="left")) - 1])

    eb, ev = estimate.breakpoints(), estimate.bin_values()
    rb, rv = reference.step_representation()
    cuts = np.unique(np.concatenate([
        [lo, hi], eb[(eb > lo) & (eb < hi)], rb[(rb > lo) & (rb < hi)],
    ]))
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (a + b)
        total += abs(value(eb, ev, mid) - value(rb, rv, mid)) ** p * (b - a)
    return total


_heights = st.floats(0.0, 4.0)
_histograms = st.lists(_heights, min_size=1, max_size=40).map(_hist_from_heights)


def _step_of(histogram):
    return step_density(histogram.breakpoints(), histogram.bin_values())


@st.composite
def _step_pair(draw):
    heights = draw(st.lists(_heights, min_size=1, max_size=40))
    breaks = sorted(draw(st.lists(st.floats(-1.0, 2.0), min_size=2, max_size=30,
                                  unique=True)))
    values = draw(st.lists(_heights, min_size=len(breaks) - 1,
                           max_size=len(breaks) - 1))
    return _hist_from_heights(heights), step_density(breaks, values)


class TestLpDistance:
    @settings(max_examples=400, deadline=None)
    @given(pair=_step_pair(),
           p=st.one_of(st.just(1.0), st.just(2.0), st.floats(1.0, 4.0)),
           domain=st.one_of(st.none(), st.tuples(st.floats(-1.5, 2.5),
                                                  st.floats(-1.5, 2.5))))
    def test_exact_merge_equals_per_cut_oracle(self, pair, p, domain):
        estimate, reference = pair
        if domain is not None:
            assume(domain[0] < domain[1])
        lo, hi = domain if domain is not None else reference.support
        got = lp_distance(estimate, reference, p, domain=domain)
        assert got.hex() == _merge_oracle(estimate, reference, p, lo, hi).hex()

    @settings(max_examples=400, deadline=None)
    @given(pair=_step_pair(),
           p=st.one_of(st.just(1.0), st.just(2.0), st.floats(1.0, 4.0)),
           domain=st.one_of(st.none(), st.tuples(st.floats(-1.5, 2.5),
                                                  st.floats(-1.5, 2.5))))
    @example(pair=(_hist_from_heights([0.3, 2.0, 0.0]),
                   step_density([-0.5, 0.25, 0.75, 1.5], [0.5, 1.5, 0.5])),
             p=3.5, domain=None)
    def test_step_density_estimate_has_the_bits_of_its_histogram(self, pair, p, domain):
        histogram, reference = pair
        if domain is not None:
            assume(domain[0] < domain[1])
        got = lp_distance(_step_of(histogram), reference, p, domain=domain)
        assert got.hex() == lp_distance(histogram, reference, p, domain=domain).hex()

    def test_step_density_needs_a_step_reference(self):
        step = step_density((0.0, 0.5, 1.0), (1.5, 0.5))
        assert lp_distance(step, two_level()) == 0.5
        with pytest.raises(DomainError, match="only as a step density with a step"):
            lp_distance(step, gaussian(0.5, 1.0))
        with pytest.raises(DomainError, match="only as a step density with a step"):
            lp_distance(gaussian(0.5, 1.0), two_level())

    def test_pdf_conventions_at_the_jumps(self):
        # one rule for every step density: closed pieces, the smaller value
        # at a break, 0 off [breaks[0], breaks[-1]]
        assert two_level().pdf([0.0, 0.25, 0.75, 1.0]).tolist() == [0.5, 0.5, 0.5, 0.5]
        assert uniform01().pdf([0.0, 1.0]).tolist() == [1.0, 1.0]
        up_down = step_density([0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 2.0])
        x = [np.nextafter(0.0, -1.0), 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0,
             np.nextafter(3.0, 4.0)]
        assert up_down.pdf(x).tolist() == [0.0, 1.0, 1.0, 1.0, 3.0, 2.0, 2.0, 2.0, 0.0]

    def test_zero_on_identical_step_functions(self):
        est = _hist_from_heights([0.5, 1.5, 1.5, 0.5])   # m=4 matches two-level
        assert lp_distance(est, two_level(), 1.0) == 0.0

    def test_flat_one_versus_two_level(self):
        est = _hist_from_heights([1.0])
        assert lp_distance(est, two_level(), 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_exact_merge_matches_quadrature_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            m = int(rng.integers(1, 40))
            est = _hist_from_heights(rng.uniform(0.0, 3.0, size=m))
            ref = two_level() if rng.random() < 0.5 else uniform01()
            exact = lp_distance(est, ref, 1.0)
            approx = _quad_oracle(est, ref, 1.0, 0.0, 1.0)
            assert abs(exact - approx) < 1e-6

    def test_exact_merge_handles_p_two(self):
        est = _hist_from_heights([2.0])
        # int (2 - f)^2 = 1.5^2 * 1/2 + 0.5^2 * 1/2
        assert lp_distance(est, two_level(), 2.0) == pytest.approx(
            0.5 * 1.5**2 + 0.5 * 0.25, abs=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(a=_histograms, b=_histograms, p=st.floats(1.0, 4.0))
    def test_symmetry_through_step_reference(self, a, b, p):
        assert lp_distance(a, _step_of(b), p).hex() == lp_distance(b, _step_of(a), p).hex()

    @settings(max_examples=200, deadline=None)
    @given(f=_histograms, g=_histograms, h=_histograms)
    def test_triangle_inequality_on_step_triples(self, f, g, h):
        d_fh = lp_distance(f, _step_of(h), 1.0)
        d_fg = lp_distance(f, _step_of(g), 1.0)
        d_gh = lp_distance(g, _step_of(h), 1.0)
        # each distance sums its pieces left to right, a few roundings per
        # piece, and a pair of histograms has at most m + m' pieces
        ulps = 8 * (f.m + g.m + h.m)
        assert d_fh <= d_fg + d_gh + ulps * math.ulp(d_fg + d_gh)

    def test_quadrature_path_for_kernel_estimates(self):
        est = KernelDensity(np.array([-0.5, 0.0, 0.3, 0.8]), EPANECHNIKOV, 0.4)
        ref = gaussian(0.0, 1.0)
        d = lp_distance(est, ref, 1.0)
        oracle = _quad_oracle(est, ref, 1.0, *ref.support, total_nodes=2 * 10**5)
        assert d == pytest.approx(oracle, abs=1e-6)

    def test_quadrature_panels_respaced_past_the_cap(self):
        # n = 1100 Epanechnikov kinks (2 per value) exceed _MAX_QUAD_PANELS,
        # so the panels are re-spaced evenly and no longer end on every kink;
        # the adaptive refinement still meets the oracle, which splits at all
        # of them, within 1e-6 (they differ by about 1.4e-8 here)
        values = np.random.default_rng(17).normal(0.0, 1.0, 1100)
        est = KernelDensity(values, EPANECHNIKOV, 0.3)
        assert len(est.breakpoints()) > _MAX_QUAD_PANELS + 1
        ref = gaussian(0.0, 1.0)
        oracle = _quad_oracle(est, ref, 1.0, *ref.support)
        assert lp_distance(est, ref, 1.0) == pytest.approx(oracle, abs=1e-6)

    def test_rejects_bad_exponent_and_domain(self):
        est = _hist_from_heights([1.0])
        for p in (0.5, math.inf, math.nan):
            with pytest.raises(DomainError):
                lp_distance(est, two_level(), p)
        with pytest.raises(DomainError):
            lp_distance(est, two_level(), 1.0, domain=(0.0, math.inf))
        with pytest.raises(DomainError):
            lp_distance(est, two_level(), 1.0, domain=(1.0, 0.0))

    def test_gaussian_reference_rejects_bad_parameters(self):
        for mu, sigma2 in ((0.0, -1.0), (0.0, 0.0), (0.0, math.inf), (0.0, math.nan),
                           (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0)):
            with pytest.raises(DomainError):
                gaussian(mu, sigma2)

    def test_step_density_rejects_non_finite_breaks(self):
        # NaN fails both sides of the strictly-increasing check
        for breaks in ((0.0, math.nan, 1.0), (0.0, 0.5, math.inf), (-math.inf, 0.5, 1.0)):
            with pytest.raises(DomainError):
                step_density(breaks, (1.0, 1.0))

    def test_step_density_needs_one_more_increasing_break_than_values(self):
        for breaks, values in (((0.0, 1.0), (1.0, 2.0)), ((0.0, 0.5, 1.0), (1.0,)),
                               ((0.0,), ())):
            with pytest.raises(DomainError, match="one or more step values and one more"):
                step_density(breaks, values)
        for breaks in ((0.0, 0.5, 0.5), (0.0, 1.0, 0.5)):
            with pytest.raises(DomainError, match="strictly increasing"):
                step_density(breaks, (1.0, 1.0))

    def test_reference_step_masses(self):
        for ref in (uniform01(), two_level()):
            breaks, values = ref.step_representation()
            assert float(np.dot(np.diff(breaks), values)) == 1.0

    def test_step_quantile_refuses_a_piece_without_mass(self):
        # the pdf keeps such pieces: a mean histogram can have empty bins
        for values in ((2.0, 0.0), (2.0, -1.0)):
            ref = step_density((0.0, 0.5, 1.0), values)
            assert np.array_equal(ref.pdf([0.25, 0.75]), values)
            with pytest.raises(DomainError, match=r"piece 1 on \[0.5, 1.0\]"):
                ref.quantile([0.3, 1.0])

    def test_reference_needs_exactly_one_form(self):
        for fields in ({}, dict(breaks=(0.0, 1.0)), dict(mu=0.0),
                       dict(breaks=(0.0, 1.0), values=(1.0,), mu=0.5, sigma2=1.0)):
            with pytest.raises(DomainError, match="not both"):
                ReferenceDensity(**fields)

    def test_support_is_derived_from_the_form(self):
        assert step_density((0.2, 0.5, 0.9), (1.0, 2.0)).support == (0.2, 0.9)
        assert gaussian(10.0, 4.0).support == (-2.0, 22.0)
        with pytest.raises(TypeError):
            ReferenceDensity(support=(0.0, 2.0), breaks=(0.0, 1.0), values=(1.0,))


def _bin_averages(reference, m):
    # overlap of every bin with every piece, one pair at a time
    breaks, values = reference.step_representation()
    heights = np.zeros(m)
    for j in range(m):
        lo, hi = j / m, (j + 1) / m
        for a, b, v in zip(breaks[:-1], breaks[1:], values):
            heights[j] += v * max(0.0, min(b, hi) - max(a, lo))
    return m * heights


class TestBinningBias:
    @staticmethod
    def _references():
        rng = np.random.default_rng(41)
        refs = [two_level(), uniform01(), step_density([0.2, 0.5, 0.9], [1.0, 2.0])]
        for _ in range(3):
            inner = np.sort(rng.random(int(rng.integers(1, 8))))
            refs.append(step_density(np.concatenate([[0.0], inner, [1.0]]),
                                     rng.uniform(0.0, 3.0, size=len(inner) + 1)))
        return refs

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_equals_distance_of_bin_averaged_histogram(self, p):
        for ref in self._references():
            for m in range(1, 65):
                # a domain past both supports, so no part of either side is cut off
                expected = lp_distance(_hist_from_heights(_bin_averages(ref, m)), ref, p,
                                       domain=(-1.0, 2.0))
                assert binning_bias(m, ref, p) == pytest.approx(expected, rel=1e-12,
                                                                abs=1e-14)

    def test_two_level_closed_form(self):
        # a unit jump at fraction alpha of a bin costs 2 alpha (1 - alpha) / m
        for m in range(2, 65):
            alphas = [x * m - math.floor(x * m) for x in (0.25, 0.75)]
            expected = sum(2.0 * a * (1.0 - a) / m for a in alphas)
            assert abs(binning_bias(m, two_level(), 1.0) - expected) < 1e-13

    def test_vanishes_exactly_when_bins_align_with_jumps(self):
        for m in range(1, 65):
            assert (binning_bias(m, two_level(), 1.0) <= 1e-12) == (m % 4 == 0)

    def test_rejects_smooth_reference_and_empty_binning(self):
        with pytest.raises(DomainError):
            binning_bias(8, gaussian(0.5, 0.01), 1.0)
        with pytest.raises(DomainError):
            binning_bias(0, two_level(), 1.0)
        for p in (math.inf, math.nan):
            with pytest.raises(DomainError):
                binning_bias(10, two_level(), p)


def test_binning_bias_builds_no_histogram(monkeypatch):
    def refuse(self):
        raise AssertionError("binning_bias built a PiecewisePolyDensity")

    expected = binning_bias(6, two_level())
    monkeypatch.setattr(PiecewisePolyDensity, "__post_init__", refuse)
    assert binning_bias(6, two_level()) == expected


# a kernel run on two workers that is still busy when it is killed; argv[1]
# names its start method
_KILLED_RUN = """
import multiprocessing, sys
from betadens import KernelEstimatorSpec, ProcessKind, ProcessSpec, gaussian, monte_carlo_risk
multiprocessing.set_start_method(sys.argv[1])
spec = ProcessSpec(ProcessKind.AR1_GAUSSIAN, n=5000, seed=0, mu=0.0, sigma2=1.0)
monte_carlo_risk(spec, KernelEstimatorSpec(), gaussian(0.0, 1.0), trials=40, workers=2)
"""

# the killed run's descendants: its two workers, plus the resource tracker
# under spawn and forkserver, plus the fork server itself
_RUN_DESCENDANTS = {"fork": 2, "spawn": 3, "forkserver": 4}


def _exit_at_once(*task):
    """A trial, or a pool initializer, that kills its worker process."""
    os._exit(1)


def _proc_state(pid):
    """(state, parent pid) of a running or zombie process, None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1])


def _running(pid):
    state = _proc_state(pid)
    return state is not None and state[0] != "Z"


def _descendants(pid):
    """Every live or zombie process below `pid`: children, grandchildren, ..."""
    states = {int(e): _proc_state(e) for e in os.listdir("/proc") if e.isdigit()}
    found, todo = [], [pid]
    while todo:
        parent = todo.pop()
        kids = [k for k, state in states.items() if state is not None and state[1] == parent]
        found += kids
        todo += kids
    return found


class TestMonteCarlo:
    SPEC = ProcessSpec(ProcessKind.AR1_PIECEWISE, n=1500, seed=0)

    def test_single_trial_statistics(self):
        rep = monte_carlo_risk(self.SPEC, HistogramSpec(m=11), two_level(),
                               trials=1, master_seed=9)
        assert rep.mean_risk == rep.per_trial[0]
        assert rep.std_error == 0.0

    def test_report_invariants(self):
        rep = monte_carlo_risk(self.SPEC, HistogramSpec(m=11), two_level(),
                               trials=12, master_seed=9)
        arr = np.array(rep.per_trial)
        assert rep.mean_risk == pytest.approx(arr.mean(), rel=1e-15)
        assert rep.std_error == pytest.approx(arr.std(ddof=1) / math.sqrt(12), rel=1e-12)
        assert rep.n == 1500 and len(rep.per_trial) == 12

    def test_worker_count_does_not_change_results(self):
        kwargs = dict(trials=8, master_seed=5)
        serial = monte_carlo_risk(self.SPEC, HistogramSpec(m=11), two_level(), **kwargs)
        parallel = monte_carlo_risk(self.SPEC, HistogramSpec(m=11), two_level(),
                                    workers=4, **kwargs)
        assert serial.per_trial == parallel.per_trial

    def test_same_master_seed_reproduces(self):
        a = monte_carlo_risk(self.SPEC, HistogramSpec(m=7), two_level(),
                             trials=5, master_seed=1234)
        b = monte_carlo_risk(self.SPEC, HistogramSpec(m=7), two_level(),
                             trials=5, master_seed=1234)
        assert a == b

    def test_kernel_estimator_route(self):
        spec = ProcessSpec(ProcessKind.AR1_GAUSSIAN, n=400, seed=0, mu=0.0, sigma2=1.0)
        rep = monte_carlo_risk(spec, KernelEstimatorSpec(), gaussian(0.0, 1.0),
                               trials=3, master_seed=21)
        assert 0.0 < rep.mean_risk < 1.0

    def test_kernel_trial_value_is_pinned(self):
        # determinism contract: trial 1 of figure_kernel_gaussian_n1000.cfg
        # (Epanechnikov, Silverman bandwidth, p = 1) keeps its exact value
        cfg = load_config(CONFIG_DIR / "figure_kernel_gaussian_n1000.cfg")
        spec = ProcessSpec(ProcessKind.AR1_GAUSSIAN, n=cfg.n, seed=cfg.master_seed ^ 1,
                           burn_in=cfg.burn_in, mu=cfg.mu, sigma2=cfg.sigma2)
        assert (cfg.n, cfg.master_seed, cfg.kernel, cfg.bandwidth, cfg.p) == (
            1000, 101, "epanechnikov", "silverman", 1.0)
        value = _trial_risk((1, spec, KernelEstimatorSpec(kernel_name=cfg.kernel),
                             gaussian(cfg.mu, cfg.sigma2), cfg.p))
        assert value.hex() == "0x1.b7fb2bc4cfa30p-5"

    def test_errors_carry_trial_index(self):
        with pytest.raises(RuntimeError, match="trial 1") as info:
            monte_carlo_risk(self.SPEC, HistogramSpec(m=0), two_level(),
                             trials=2, master_seed=1)
        assert isinstance(info.value, BetadensError)
        assert "seed 0" in str(info.value)      # master_seed 1 XOR trial 1
        with pytest.raises(BetadensError, match=r"trial 1 \(seed 0\)"):
            monte_carlo_risk(self.SPEC, HistogramSpec(m=0), two_level(),
                             trials=2, master_seed=1, workers=2)

    @settings(max_examples=15, deadline=None)
    @given(ns=st.lists(st.sampled_from([300, 700, 1200, 1500]), min_size=1, max_size=4,
                       unique=True),
           trials=st.sampled_from([1, 2, 5, 7]), workers=st.sampled_from([1, 2, 3]))
    def test_rows_equal_per_row_serial_runs(self, ns, trials, workers):
        # one map over every row: chunks straddle row boundaries, yet each
        # row's report equals its own serial run
        rows = [(replace(self.SPEC, n=n, seed=1000 * r + n), HistogramSpec(m=5 + r))
                for r, n in enumerate(ns)]
        reports = risk_rows(rows, two_level(), trials=trials, workers=workers)
        assert [r.n for r in reports] == ns
        for report, (spec, estimator) in zip(reports, rows):
            serial = monte_carlo_risk(spec, estimator, two_level(), trials=trials,
                                      master_seed=spec.seed)
            assert report.per_trial == serial.per_trial
            assert report == serial

    def test_bad_exponent_rejected_before_any_trial(self):
        # m = 0 would fail trial 1 with a TrialError if any trial ran
        for p in (0.5, math.inf, math.nan):
            with pytest.raises(DomainError):
                monte_carlo_risk(self.SPEC, HistogramSpec(m=0), two_level(), trials=2, p=p)
            with pytest.raises(DomainError):
                risk_rows([(self.SPEC, HistogramSpec(m=0))], two_level(), trials=2, p=p,
                          workers=2)

    def test_no_trials_rejected_before_any_trial(self, monkeypatch):
        ran = []
        monkeypatch.setattr(risk, "_trial_risk", ran.append)
        for trials in (0, -2):
            with pytest.raises(DomainError, match=f"need at least one trial, got {trials}"):
                risk_rows([(self.SPEC, HistogramSpec(m=5))], two_level(), trials=trials)
        assert ran == []

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
    @pytest.mark.parametrize("method", sorted(_RUN_DESCENDANTS))
    def test_killed_run_leaves_no_worker(self, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method here")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        child = subprocess.Popen([sys.executable, "-c", _KILLED_RUN, method], env=env)
        expected = _RUN_DESCENDANTS[method]
        below = []
        try:
            deadline = time.monotonic() + 60
            while len(_descendants(child.pid)) < expected and time.monotonic() < deadline:
                time.sleep(0.05)
            time.sleep(1.0)
            below = _descendants(child.pid)
            assert len(below) == expected, [(p, _proc_state(p)) for p in below]
            child.terminate()
            child.wait()
            deadline = time.monotonic() + 3
            left = below
            while left and time.monotonic() < deadline:
                time.sleep(0.05)
                left = [p for p in below if _running(p)]
            # each descendant has exited: it is gone or a zombie awaiting its reaper
            assert not left, [_proc_state(p) for p in left]
        finally:
            child.kill()
            child.wait()
            for p in below:
                if _running(p):
                    os.kill(p, signal.SIGKILL)

    def test_dead_worker_raises_trial_error(self, monkeypatch):
        # every worker dies on its first task: no trial gets a value, so the
        # error names trial 1 (seed 9 XOR 1) and chains the pool's own error
        monkeypatch.setattr("betadens.risk._trial_risk", _exit_at_once)
        with pytest.raises(TrialError, match=r"trial 1 \(seed 8\)") as info:
            risk_rows([(replace(self.SPEC, seed=9), HistogramSpec(m=11))], two_level(),
                      trials=4, workers=2)
        assert isinstance(info.value.__cause__, BrokenProcessPool)

    def test_pool_that_never_starts_says_it_broke(self, monkeypatch):
        # no worker survives its initializer, so no trial runs: the error
        # says that the pool broke, not that trial 1 (seed 7 XOR 1) failed
        monkeypatch.setattr("betadens.risk._exit_with_parent", _exit_at_once)
        with pytest.raises(TrialError, match=r"pool broke before trial 1 \(seed 6\) "
                                             r"returned a value") as info:
            monte_carlo_risk(ProcessSpec(ProcessKind.AR1_PIECEWISE, n=5000), HistogramSpec(m=17),
                             two_level(), trials=4, workers=2, master_seed=7)
        assert isinstance(info.value.__cause__, BrokenProcessPool)

    def test_failing_later_row_names_its_trial(self):
        rows = [(replace(self.SPEC, seed=3), HistogramSpec(m=11)),
                (replace(self.SPEC, n=1000, seed=5), HistogramSpec(m=0))]
        with pytest.raises(TrialError, match=r"trial 1 \(seed 4\)"):
            risk_rows(rows, two_level(), trials=3, workers=2)


class TestBuildEstimate:
    @settings(max_examples=120, deadline=None)
    @given(kind=st.sampled_from(REGISTER_KINDS),
           n=st.sampled_from([1, 31, 32, 33, 63, 64, 65, 8191, 8192, 8193, 110_000]),
           burn_in=st.sampled_from([0, 1, 63, 1000]),
           seed=st.sampled_from([0, 7, 2**64 - 1]),
           m=st.one_of(st.none(), st.integers(1, 300),
                       st.sampled_from([253, 254, 255, 256, 4096, 5000])))
    def test_counted_histogram_equals_the_sample_histogram(self, kind, n, burn_in, seed, m):
        # m None is the BV schedule of n
        m = histogram_bins_bv(n) if m is None else m
        spec = ProcessSpec(kind, n=n, seed=seed, burn_in=burn_in)
        got = build_estimate(spec, HistogramSpec(m=m))
        want = histogram_estimate(generate(spec).values, m)
        assert got.coeffs.tobytes() == want.coeffs.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(gamma=st.sampled_from([0.25, 0.5, 0.75]),
           n=st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 60_000]),
           burn_in=st.sampled_from([0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 1000]),
           seed=st.sampled_from([0, 7, 2**64 - 1]),
           m=st.sampled_from([None, 1, 253, 254, 255, 256]))
    @example(gamma=0.75, n=_BLOCK + 1, burn_in=_BLOCK - 1, seed=7, m=None)
    @example(gamma=0.25, n=1, burn_in=_BLOCK, seed=2**64 - 1, m=256)
    @example(gamma=0.5, n=60_000, burn_in=1000, seed=0, m=253)
    def test_counted_lsv_histogram_equals_the_trajectory_histogram(self, gamma, n, burn_in,
                                                                   seed, m):
        # m None is the lsv schedule of n and gamma
        m = histogram_bins_lsv(n, gamma) if m is None else m
        spec = ProcessSpec(ProcessKind.LSV_TRAJECTORY, n=n, seed=seed, burn_in=burn_in,
                           gamma=gamma)
        got = build_estimate(spec, HistogramSpec(m=m))
        want = histogram_estimate(lsv_trajectory(n, gamma, burn_in, seed).values, m)
        assert got.coeffs.tobytes() == want.coeffs.tobytes()

    def test_lsv_start_state_nan_is_refused(self, monkeypatch):
        class NanStart:
            def random(self):
                return math.nan

        monkeypatch.setattr(processes, "_rng", lambda seed: NanStart())
        spec = ProcessSpec(ProcessKind.LSV_TRAJECTORY, n=50, seed=3, gamma=0.5)
        with pytest.raises(DomainError, match=r"lsv samples live in \[0, 1\]"):
            generate(spec)
        with pytest.raises(DomainError, match=r"lsv samples live in \[0, 1\]"):
            build_estimate(spec, HistogramSpec(m=10))
        # master seed 1, so trial 1 runs seed 1 ^ 1 = 0
        with pytest.raises(TrialError, match=r"trial 1 \(seed 0\)"):
            monte_carlo_risk(spec, HistogramSpec(m=10), uniform01(), trials=2, workers=1)

    @pytest.mark.parametrize("kind", list(ProcessKind))
    def test_zero_bins_raise_for_every_process(self, kind):
        extra = {ProcessKind.AR1_GAUSSIAN: dict(mu=0.0, sigma2=1.0),
                 ProcessKind.LSV_TRAJECTORY: dict(gamma=0.5)}.get(kind, {})
        spec = ProcessSpec(kind, n=20, seed=3, **extra)
        with pytest.raises(DomainError, match="bin count must be >= 1"):
            build_estimate(spec, HistogramSpec(m=0))

    def test_unknown_estimator_config_is_refused(self):
        spec = ProcessSpec(ProcessKind.AR1_BINARY, n=20, seed=3)
        with pytest.raises(DomainError, match="unknown estimator config"):
            build_estimate(spec, "histogram")


class TestEnvelope:
    def test_iid_sampling_from_equivalent_density(self):
        # inverse-CDF oracle: U^(1/(1-gamma)) has density f_gamma
        gamma, n = 0.25, 10**6
        rng = np.random.default_rng(2718)
        values = rng.random(n) ** (1.0 / (1.0 - gamma))
        est = histogram_estimate(values, 251)
        lo, hi = envelope_check(est, gamma, skip_bins=1)
        assert 0.8 < lo and hi < 1.25

    def test_bin_average_ratios_shrink_with_skip(self):
        # against exact bin averages the ratio spread is governed by the
        # first considered bin; it tightens as skip_bins grows
        gamma, m = 0.25, 256
        edges = np.arange(m + 1) / m
        masses = np.diff(edges ** (1.0 - gamma))
        est = _hist_from_heights(m * masses)
        spreads = []
        for skip in (1, 4, 16):
            lo, hi = envelope_check(est, gamma, skip_bins=skip)
            spreads.append(hi / lo)
        assert spreads[0] > spreads[1] > spreads[2] >= 1.0
        assert spreads[2] < 1.001

    def test_all_zero_histogram_rejected(self):
        est = _hist_from_heights(np.zeros(10))
        with pytest.raises(EmptyEstimate):
            envelope_check(est, 0.5, skip_bins=2)

    def test_skip_bins_validation(self):
        est = _hist_from_heights(np.ones(4))
        with pytest.raises(DomainError):
            envelope_check(est, 0.5, skip_bins=4)

    def test_needs_a_histogram_and_gamma_inside_the_unit_interval(self):
        values = [0.1, 0.4, 0.8]
        for est in (projection_estimate(values, 4, 1), KernelDensity(values, EPANECHNIKOV, 0.2)):
            with pytest.raises(DomainError, match="expects a histogram estimate"):
                envelope_check(est, 0.5)
        for gamma in (0.0, 1.0, math.nan):
            with pytest.raises(DomainError, match=r"gamma must lie in \(0, 1\)"):
                envelope_check(histogram_estimate(values, 4), gamma)


class TestLoglogSlope:
    def test_exact_power_law(self):
        points = [(n, n ** (-1.0 / 3.0)) for n in (10, 100, 1000, 10**4)]
        assert loglog_slope(points) == pytest.approx(-1.0 / 3.0, abs=1e-12)

    def test_scale_invariance(self):
        points = [(n, 7.3 * n ** (-1.0 / 3.0)) for n in (10, 55, 300, 2000)]
        assert loglog_slope(points) == pytest.approx(-1.0 / 3.0, abs=1e-12)

    def test_published_table_slope(self):
        slope = loglog_slope(REFERENCE_TABLE.items())
        assert -0.45 <= slope <= -0.20

    def test_input_validation(self):
        with pytest.raises(DomainError):
            loglog_slope([(10, 1.0), (20, 0.5)])
        with pytest.raises(DomainError):
            loglog_slope([(10, 1.0), (20, 0.5), (30, -0.1)])

    def test_rejects_non_finite_points(self):
        for bad in ((30, math.nan), (30, math.inf), (math.inf, 0.3), (math.nan, 0.3)):
            with pytest.raises(DomainError):
                loglog_slope([(10, 1.0), (20, 0.5), bad])
