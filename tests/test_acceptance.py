"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
Criterion 1 compares the Monte Carlo risk sweep row by row against published
reference values, allowing for the exact binning bias on the rows whose bin
edges miss the reference density's jumps; see notes/decisions.md for why the
exact-breaks protocol cannot match those rows and what was tried.
"""

import hashlib
import math
import os
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import betadens as bd
from betadens.config import load_config, parse_config
from betadens.csvio import read_csv
from betadens.runner import run_experiment

WORKERS = min(8, os.cpu_count() or 1)

# the shipped sweep, and the sha256 of its risk_table.csv on any worker count
SWEEP_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "table_risk_sweep.cfg"
SWEEP_TABLE_SHA256 = "40660b25f1bcc5db1aaa96c71565374b7ee4aa2379c2a6aab97bcf6796ff6b4d"

# published L1-integrated risk values this lab aims to reproduce
REFERENCE_TABLE = {
    5000: 0.0477, 10000: 0.0381, 15000: 0.0265, 20000: 0.0316, 25000: 0.0293,
    30000: 0.0292, 35000: 0.0207, 40000: 0.0277, 45000: 0.0245, 50000: 0.0191,
    55000: 0.0251, 60000: 0.0227, 65000: 0.0177, 70000: 0.0217, 75000: 0.0231,
    80000: 0.0209, 85000: 0.0202, 90000: 0.0156, 95000: 0.0197, 100000: 0.0209,
    105000: 0.0193, 110000: 0.0189,
}


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


@pytest.fixture(scope="module")
def risk_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    config = load_config(SWEEP_CONFIG, {"threads": str(WORKERS)})
    start = time.perf_counter()
    files = run_experiment(config, out_dir=out)
    elapsed = time.perf_counter() - start
    _, rows = read_csv(files[0])
    parsed = [(int(n), int(m), float(risk), float(se)) for n, m, risk, se in rows]
    return parsed, elapsed, files[0]


def test_criterion_1_risk_table_reproduction(risk_sweep):
    rows, elapsed, _ = risk_sweep
    assert len(rows) == 22
    failures = []
    for n, m, risk, se in rows:
        reference = REFERENCE_TABLE[n]
        tolerance = 3.0 * se + 0.15 * reference
        bias = bd.binning_bias(m, bd.two_level(), 1.0)
        if bias <= 1e-12:
            # bin edges hit both jumps: the risk itself must match
            low = risk
            inside = abs(risk - reference) <= tolerance
        else:
            # the published protocol carries an unknown share of the binning
            # bias, from none of it (risk - b) to all of it (risk)
            low = risk - bias
            inside = low - tolerance <= reference <= risk + tolerance
        status = "ok" if inside else "OUT"
        print(f"  n={n:6d} m={m:3d} risk={risk:.4f} b={bias:.4f} "
              f"[{low:.4f}, {risk:.4f}] ref={reference:.4f} tol={tolerance:.4f} "
              f"[{status}]", flush=True)
        if not inside:
            failures.append(n)
    ok = not failures and elapsed < 600.0
    _report(1, ok, f"{22 - len(failures)}/22 rows within 3*se + 15% of "
                   f"[risk - b(m), risk] "
                   f"(sweep took {elapsed:.0f}s with {WORKERS} workers)")
    assert elapsed < 600.0
    assert not failures, (
        f"rows {failures} fall outside 3*se + 15% of the interval "
        "[risk - b(m), risk], where b(m) is the exact binning bias of the "
        "two-level density (zero when 4 divides m, and then the risk itself "
        "must match); see notes/decisions.md")


def test_criterion_2_rate_slope(risk_sweep):
    rows, _, _ = risk_sweep
    slope = bd.loglog_slope([(n, risk) for n, _, risk, _ in rows])
    ok = -0.45 <= slope <= -0.20
    _report(2, ok, f"log-log slope of the sweep is {slope:.4f}, expected in [-0.45, -0.20]")
    assert ok


def test_criterion_3_coefficient_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    x0s = rng.random(10**4)
    worst_margin = math.inf
    for k in range(1, 21):
        bound = 2.0**-k
        values = np.array([bd.b0_exact(x0, k) for x0 in x0s])
        worst_margin = min(worst_margin, float((bound - values).min()))
        assert values.max() <= bound
        assert bd.beta1_estimate(k) <= bound
    elapsed = time.perf_counter() - start
    ok = worst_margin >= 0.0 and elapsed < 10.0
    _report(3, ok, f"b0 and beta1 below 2^-k for k=1..20, 10^4 starting points "
                   f"({elapsed:.1f}s)")
    assert elapsed < 10.0


def test_criterion_4_orthonormality():
    start = time.perf_counter()
    u, w = np.polynomial.legendre.leggauss(64)
    worst = 0.0
    for r, m in ((4, 64), (3, 32), (2, 7), (1, 64), (0, 5)):
        basis = bd.build_poly_basis(r)
        dim = (r + 1) * m
        nodes = np.empty(m * 64)
        weights = np.empty(m * 64)
        values = np.zeros((dim, m * 64))
        for j in range(m):
            a, b = j / m, (j + 1) / m
            half = 0.5 * (b - a)
            x = a + half * (u + 1.0)
            s = slice(j * 64, (j + 1) * 64)
            nodes[s] = x
            weights[s] = half * w
            # phi_{i,j} vanishes off bin j, so only this block is nonzero
            values[j * (r + 1):(j + 1) * (r + 1), s] = \
                math.sqrt(m) * basis.eval_all(m * x - j)
        gram = (values * weights) @ values.T
        worst = max(worst, float(np.max(np.abs(gram - np.eye(dim)))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 5.0
    _report(4, ok, f"Gram deviation {worst:.2e} for r <= 4, m <= 64 ({elapsed:.1f}s)")
    assert worst < 1e-8
    assert elapsed < 5.0


def test_criterion_5_mass_conservation():
    rng = np.random.default_rng(555)
    worst_hist = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 400))
        m = int(rng.integers(1, 64))
        values = rng.random(n) * (1.0 - 1e-9) + 1e-12
        heights = bd.histogram_estimate(values, m).bin_values()
        worst_hist = max(worst_hist, abs(float(heights.sum()) / m - 1.0))

    gl_u, gl_w = np.polynomial.legendre.leggauss(8)
    worst_kernel = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 60))
        h = float(rng.uniform(0.05, 0.6))
        values = rng.random(n) * 2.0 - 0.5
        est = bd.KernelDensity(values, bd.EPANECHNIKOV, h)
        edges = est.breakpoints()
        mass = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            half = 0.5 * (b - a)
            x = a + half * (gl_u + 1.0)
            mass += half * float(np.dot(gl_w, est.evaluate(x)))
        worst_kernel = max(worst_kernel, abs(mass - 1.0))

    ok = worst_hist < 1e-12 and worst_kernel < 1e-6
    _report(5, ok, f"histogram mass off by {worst_hist:.1e} (tol 1e-12), "
                   f"kernel mass off by {worst_kernel:.1e} (tol 1e-6)")
    assert worst_hist < 1e-12
    assert worst_kernel < 1e-6


def test_criterion_6_exact_merge_vs_quadrature():
    rng = np.random.default_rng(66)
    gl_u, gl_w = np.polynomial.legendre.leggauss(100)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 50))
        heights = rng.uniform(0.0, 3.0, size=m)
        est_coeffs = (heights / math.sqrt(m)).reshape(1, m)
        est = bd.PiecewisePolyDensity(est_coeffs)
        pieces = int(rng.integers(1, 8))
        breaks = np.unique(np.concatenate([[0.0, 1.0], rng.random(pieces - 1)]))
        ref = bd.step_density(breaks, rng.uniform(0.0, 3.0, size=len(breaks) - 1))
        exact = bd.lp_distance(est, ref, 1.0)
        # 10^5-node oracle: nodes distributed over the merged pieces
        cuts = np.unique(np.concatenate([est.breakpoints(), breaks]))
        reps = max(1, 10**5 // (100 * (len(cuts) - 1)))
        approx = 0.0
        for a, b in zip(cuts[:-1], cuts[1:]):
            sub = np.linspace(a, b, reps + 1)
            for aa, bb in zip(sub[:-1], sub[1:]):
                half = 0.5 * (bb - aa)
                x = aa + half * (gl_u + 1.0)
                approx += half * float(np.dot(gl_w, np.abs(est.evaluate(x) - ref.pdf(x))))
        worst = max(worst, abs(exact - approx))
    ok = worst < 1e-6
    _report(6, ok, f"largest |exact - quadrature| over 100 pairs: {worst:.2e} (tol 1e-6)")
    assert ok


def test_criterion_7_lsv_envelope():
    lo_all, hi_all = math.inf, -math.inf
    for seed in range(10):
        trajectory = bd.lsv_trajectory(60000, 0.25, seed=1000 + seed)
        estimate = bd.histogram_estimate(trajectory, 81)
        lo, hi = bd.envelope_check(estimate, 0.25, skip_bins=1)
        lo_all, hi_all = min(lo_all, lo), max(hi_all, hi)
    ok = 0.1 < lo_all and hi_all < 10.0
    _report(7, ok, f"density/envelope ratios span ({lo_all:.3f}, {hi_all:.3f}) "
                   "within (0.1, 10) over 10 seeds")
    assert ok


def _integer_floor_power(n: int, exponent: Fraction) -> int:
    p, q = exponent.numerator, exponent.denominator
    target = n**p
    m = 1
    while (m + 1) ** q <= target:
        m += 1
    return m


def test_criterion_8_schedule_arithmetic():
    checks = [
        bd.histogram_bins_lsv(10**7, 0.75) == 35,
        bd.histogram_bins_lsv(60000, 0.25) == 81,
        bd.lsv_rate_exponent(0.25) == (0.3, False),
        _integer_floor_power(10**7, Fraction(2, 9)) == 35,
        _integer_floor_power(60000, Fraction(2, 5)) == 81,
        Fraction(3, 4) / Fraction(5, 2) == Fraction(3, 10),
    ]
    ok = all(checks)
    _report(8, ok, "bin schedules and rate exponent match integer power oracles")
    assert ok


def test_criterion_9_variance_scaling():
    master = 777
    reference_values = bd.generate(bd.ProcessSpec(
        bd.ProcessKind.AR1_PIECEWISE, n=10**6, seed=master ^ 0xABCDEF))
    mean_hist = bd.histogram_estimate(reference_values, 8)
    reference = bd.step_density(mean_hist.breakpoints(), mean_hist.bin_values())
    process = bd.ProcessSpec(bd.ProcessKind.AR1_PIECEWISE, n=4096, seed=0)
    points = []
    for k in range(12, 18):
        n = 2**k
        report = bd.monte_carlo_risk(
            replace(process, n=n), bd.HistogramSpec(m=8), reference, trials=200, p=2.0,
            master_seed=bd.row_seed(master, n), workers=WORKERS)
        points.append((n, report.mean_risk))
    slope = bd.loglog_slope(points)
    ok = -1.15 <= slope <= -0.85
    _report(9, ok, f"centered squared-error slope {slope:.4f} vs theoretical -1, "
                   "expected in [-1.15, -0.85]")
    assert ok


def test_criterion_10_determinism(tmp_path, risk_sweep):
    text = ("experiment = risk-table-sweep\nn_grid = 600,1200\ntrials = 6\n"
            "master_seed = 99\nthreads = {threads}\n")
    first = run_experiment(parse_config(text.format(threads=1)), tmp_path / "a")
    second = run_experiment(parse_config(text.format(threads=1)), tmp_path / "b")
    bytes_equal = first[0].read_bytes() == second[0].read_bytes()

    eight = run_experiment(parse_config(text.format(threads=8)), tmp_path / "c")
    workers_equal = first[0].read_bytes() == eight[0].read_bytes()

    spec = bd.ProcessSpec(bd.ProcessKind.AR1_PIECEWISE, n=1000, seed=0)
    serial = bd.monte_carlo_risk(spec, bd.HistogramSpec(m=10), bd.two_level(),
                                 trials=8, master_seed=3)
    parallel = bd.monte_carlo_risk(spec, bd.HistogramSpec(m=10), bd.two_level(),
                                   trials=8, master_seed=3, workers=8)
    trials_equal = serial.per_trial == parallel.per_trial

    # the shipped sweep's table keeps its bytes
    table = risk_sweep[2].read_bytes()
    sweep_pinned = hashlib.sha256(table).hexdigest() == SWEEP_TABLE_SHA256

    ok = bytes_equal and workers_equal and trials_equal and sweep_pinned
    _report(10, ok, "byte-identical CSV on rerun; 1 vs 8 workers identical; "
                    "shipped sweep table keeps its sha256")
    assert bytes_equal and workers_equal and trials_equal and sweep_pinned
