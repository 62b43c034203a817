"""Experiment runner: configs in, CSV tables and SVG figures out."""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, validate_config
from .csvio import emit_csv
from .depcoeff import beta1_estimate, beta2_pair_lower_bound
from .processes import ProcessKind, ProcessSpec
from .risk import (HistogramSpec, KernelEstimatorSpec, build_estimate, loglog_slope,
                   risk_rows, row_seed)
from .schedules import (equivalent_density, histogram_bins_bv, histogram_bins_lsv)
from .svg import SvgFigure


def run_experiment(config: ExperimentConfig, out_dir: str | Path = "out") -> list[Path]:
    """Validate and execute one experiment, writing into `out_dir`, which is
    made with the first file, so a run that fails before it leaves none;
    returns the files written."""
    validate_config(config)
    return _RUNNERS[config.experiment](config, Path(out_dir))


def _kernel_gaussian_figure(config: ExperimentConfig, out: Path) -> list[Path]:
    spec = ProcessSpec(kind=ProcessKind.AR1_GAUSSIAN, n=config.n,
                       seed=config.master_seed, burn_in=config.burn_in,
                       mu=config.mu, sigma2=config.sigma2)
    bandwidth = None if config.bandwidth == "silverman" else float(config.bandwidth)
    estimate = build_estimate(spec, KernelEstimatorSpec(config.kernel, bandwidth))
    ref = spec.marginal
    sigma = math.sqrt(config.sigma2)
    grid = np.linspace(config.mu - 4.0 * sigma, config.mu + 4.0 * sigma,
                       config.grid_points)
    est_vals = estimate.evaluate(grid)
    true_vals = ref.pdf(grid)

    stem = f"kernel_gaussian_n{config.n}"
    csv_path = emit_csv(out / f"{stem}.csv",
                        ["x", "estimate", "true_density"],
                        [(float(x), float(e), float(t))
                         for x, e, t in zip(grid, est_vals, true_vals)])
    fig = SvgFigure(title=f"{estimate.kernel.name} kernel estimate, n={config.n}, "
                          f"h={estimate.bandwidth:.4g}",
                    xlabel="x", ylabel="density")
    top = 1.1 * max(est_vals.max(), true_vals.max())
    fig.set_limits((grid[0], grid[-1]), (0.0, top))
    fig.add_curve(grid, est_vals, stroke="#1f77b4", width=1.6)
    fig.add_curve(grid, true_vals, stroke="#cc0000", width=1.4)
    svg_path = fig.save(out / f"{stem}.svg")
    return [csv_path, svg_path]


def _histogram_figure(out: Path, stem: str, estimate, column: str,
                      density, title: str, overlay_x, overlay_y) -> list[Path]:
    """A histogram estimate: CSV rows with `density` at each bin midpoint, and
    an SVG of the bars under the overlay curve, titled with its bin count."""
    heights = estimate.bin_values()
    edges = estimate.breakpoints()
    at_mid = density((edges[:-1] + edges[1:]) / 2.0)
    csv_path = emit_csv(out / f"{stem}.csv",
                        ["bin", "left", "right", "height", column],
                        [(j + 1, float(edges[j]), float(edges[j + 1]),
                          float(heights[j]), float(at_mid[j]))
                         for j in range(estimate.m)])
    fig = SvgFigure(title=f"{title}, m={estimate.m}", xlabel="x", ylabel="density")
    fig.set_limits((0.0, 1.0), (0.0, 1.1 * max(float(heights.max()),
                                               float(overlay_y.max()))))
    fig.add_bars(edges, heights)
    fig.add_curve(overlay_x, overlay_y, stroke="#cc0000", width=1.6)
    return [csv_path, fig.save(out / f"{stem}.svg")]


def _histogram_two_level_figure(config: ExperimentConfig, out: Path) -> list[Path]:
    spec = ProcessSpec(kind=ProcessKind.AR1_PIECEWISE, n=config.n,
                       seed=config.master_seed, burn_in=config.burn_in)
    m = config.m if config.m is not None else histogram_bins_bv(config.n)
    estimate = build_estimate(spec, HistogramSpec(m))
    reference = spec.marginal
    breaks, values = reference.step_representation()
    return _histogram_figure(
        out, f"histogram_two_level_n{config.n}", estimate,
        "true_density_at_mid", reference.pdf,
        f"histogram, two-level density, n={config.n}",
        np.repeat(breaks, 2)[1:-1], np.repeat(values, 2))


def _risk_sweep_rows(config: ExperimentConfig):
    # every row is this chain at its n, on the row's seed
    chain = ProcessSpec(kind=ProcessKind.AR1_PIECEWISE, n=1, burn_in=config.burn_in)
    rows = [(replace(chain, n=n, seed=row_seed(config.master_seed, n)),
             HistogramSpec(m=histogram_bins_bv(n, config.bins_constant)))
            for n in config.n_grid]
    reports = risk_rows(rows, chain.marginal, trials=config.trials, p=config.p,
                        workers=config.threads)
    return [(r.n, estimator.m, r.mean_risk, r.std_error)
            for r, (_, estimator) in zip(reports, rows)]


def _risk_table_sweep(config: ExperimentConfig, out: Path) -> list[Path]:
    rows = _risk_sweep_rows(config)
    csv_path = emit_csv(out / "risk_table.csv",
                        ["n", "m", "mean_risk", "std_error"], rows)
    return [csv_path]


def _risk_slope_plot(config: ExperimentConfig, out: Path) -> list[Path]:
    rows = _risk_sweep_rows(config)
    slope = loglog_slope([(n, risk) for n, _, risk, _ in rows])
    table_path = emit_csv(out / "risk_slope_table.csv",
                          ["n", "m", "mean_risk", "std_error"], rows)
    summary_path = emit_csv(out / "risk_slope_summary.csv",
                            ["slope", "reference_exponent"], [(slope, -1.0 / 3.0)])

    ns = np.array([r[0] for r in rows], dtype=float)
    risks = np.array([r[2] for r in rows])
    # reference curve c * n^(-1/3), c fitted so the curve passes the data cloud
    c = float(np.exp(np.mean(np.log(risks) + np.log(ns) / 3.0)))
    ref_curve = c * ns ** (-1.0 / 3.0)
    fig = SvgFigure(title=f"L1 risk vs n (slope {slope:.3f})",
                    xlabel="log10 n" if config.loglog else "n",
                    ylabel="log10 risk" if config.loglog else "risk")
    if config.loglog:
        xs, ys, yr = np.log10(ns), np.log10(risks), np.log10(ref_curve)
    else:
        xs, ys, yr = ns, risks, ref_curve
    pad_x = 0.03 * (xs.max() - xs.min())
    lo_y = min(ys.min(), yr.min())
    hi_y = max(ys.max(), yr.max())
    pad_y = 0.08 * (hi_y - lo_y)
    fig.set_limits((xs.min() - pad_x, xs.max() + pad_x),
                   (lo_y - pad_y, hi_y + pad_y))
    fig.add_curve(xs, yr, stroke="#cc0000", width=1.4)
    fig.add_points(xs, ys)
    svg_path = fig.save(out / "risk_slope.svg")
    return [table_path, summary_path, svg_path]


def _lsv_histogram_figure(config: ExperimentConfig, out: Path) -> list[Path]:
    spec = ProcessSpec(kind=ProcessKind.LSV_TRAJECTORY, n=config.n,
                       seed=config.master_seed, burn_in=config.burn_in,
                       gamma=config.gamma)
    m = config.m if config.m is not None else histogram_bins_lsv(config.n, config.gamma)
    gamma_tag = f"{config.gamma}".replace(".", "p")
    # starting at the first bin's midpoint, the curve peaks where the
    # midpoint column does, so it sets the same y range
    curve_x = np.linspace(1.0 / (2.0 * m), 1.0, 512)
    return _histogram_figure(
        out, f"lsv_histogram_gamma{gamma_tag}_n{config.n}",
        build_estimate(spec, HistogramSpec(m)),
        "equivalent_density_at_mid", lambda x: equivalent_density(x, config.gamma),
        f"invariant density, gamma={config.gamma}, n={config.n}",
        curve_x, equivalent_density(curve_x, config.gamma))


def _coefficient_report(config: ExperimentConfig, out: Path) -> list[Path]:
    rows = []
    for k in range(1, config.k_max + 1):
        beta1 = beta1_estimate(k)
        bound = 2.0**-k
        rows.append((k, beta1, bound, beta1 / bound))
    coeff_path = emit_csv(out / "coefficients.csv",
                          ["k", "beta1", "bound", "beta1_over_bound"], rows)
    pair_rows = []
    for i, j in ((2, 1), (3, 2), (4, 3), (6, 4), (8, 6)):
        lower = beta2_pair_lower_bound(i, j, grid=128, x0_nodes=17)
        pair_rows.append((i, j, 128, lower, 2.0**-j))
    pair_path = emit_csv(out / "pair_coefficient_lower_bounds.csv",
                         ["i", "j", "grid", "grid_lower_bound", "bound"], pair_rows)
    return [coeff_path, pair_path]


_RUNNERS = {
    "kernel-gaussian-figure": _kernel_gaussian_figure,
    "histogram-two-level-figure": _histogram_two_level_figure,
    "risk-table-sweep": _risk_table_sweep,
    "risk-slope-plot": _risk_slope_plot,
    "lsv-histogram-figure": _lsv_histogram_figure,
    "coefficient-report": _coefficient_report,
}
