"""Integrated L^p distances and the Monte Carlo risk machinery.

The distance between two step functions, a histogram or a step density
against a step reference, is computed exactly by merging the two breakpoint
sets and summing closed-form pieces; everything else goes through panel
quadrature split at all known breakpoints.  Both default to a domain that
spans both sides.  An estimate is made from `processes.bin_counts` or the
generated values, never from a process kind.  Trial t of a row runs on seed
row_seed XOR t, where a sweep's row_seed is master_seed XOR
(n 0x9E3779B97F4A7C15 mod 2^64), and trials are reduced in trial order, so
reports are identical for any worker count.  Nearby master seeds share
trials (masters 1 and 2 share 298 of 300 trial seeds in every row), so the
next master seed is no independent replication.
"""

from __future__ import annotations

import ctypes
import math
import os
import platform
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from multiprocessing import parent_process
from multiprocessing.connection import wait

import numpy as np

from .errors import DomainError, EmptyEstimate, TrialError
from .estimators import KernelDensity, PiecewisePolyDensity, histogram_from_counts
from .kernels import kernel_by_name, silverman_bandwidth
from .processes import (ProcessSpec, ReferenceDensity, bin_counts, gaussian, generate,
                        step_density)  # gaussian: re-exported
from .quadrature import integrate_adaptive

_MAX_QUAD_PANELS = 2048
_SEED_MIX = 0x9E3779B97F4A7C15  # per-row seed separation for n-sweeps
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3   # glibc's mallopt(3) parameters


@dataclass(frozen=True)
class RiskReport:
    """Aggregate of one Monte Carlo risk experiment."""

    n: int
    mean_risk: float
    std_error: float
    per_trial: tuple[float, ...]


def _step_value(breaks: np.ndarray, values: np.ndarray, x) -> np.ndarray:
    """The step function with pieces (breaks[i], breaks[i+1]] at the points x;
    0 outside (breaks[0], breaks[-1]].  Only at a break does this differ from
    `ReferenceDensity.pdf`, and the exact merge evaluates only midpoints."""
    x = np.asarray(x, dtype=float)
    idx = np.clip(np.searchsorted(breaks, x, side="left") - 1, 0, len(values) - 1)
    inside = (x > breaks[0]) & (x <= breaks[-1])
    return np.where(inside, values[idx], 0.0)


def _check_exponent(p: float) -> None:
    if not 1.0 <= p < math.inf:
        raise DomainError(f"risk exponent must be >= 1 and finite, got {p}")


def lp_distance(estimate, reference: ReferenceDensity, p: float = 1.0,
                domain: tuple[float, float] | None = None) -> float:
    """integral over `domain` of |f_n - f|^p; the default domain spans the
    breakpoints of the estimate and the breaks, or the support, of the
    reference, so no mass of either side is left out.

    Exact when a histogram or a step `ReferenceDensity` meets a step
    reference: both sides are read on their half-open pieces at the
    midpoints of the merged breaks (`_step_value`).  Adaptive Gauss-Legendre
    split at all known breakpoints for any other estimate; a step density
    against a smooth reference raises DomainError.
    """
    _check_exponent(p)
    step = reference.step_representation()
    if isinstance(estimate, ReferenceDensity):
        if step is None or estimate.breaks is None:
            raise DomainError(f"a reference density is compared only as a step density "
                              f"with a step reference, got {estimate} and {reference}")
        eb, ev = estimate.step_representation()
    elif (isinstance(estimate, PiecewisePolyDensity) and estimate.degree == 0
          and step is not None):
        eb, ev = estimate.breakpoints(), estimate.bin_values()
    else:
        eb, ev = estimate.breakpoints(), None
        if len(eb) > _MAX_QUAD_PANELS:
            eb = np.linspace(eb[0], eb[-1], _MAX_QUAD_PANELS + 1)
    rb = np.asarray(reference.breaks or reference.support)
    if domain is None:
        domain = (min(eb[0], rb[0]), max(eb[-1], rb[-1]))
    lo, hi = float(domain[0]), float(domain[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        raise DomainError(f"domain must be a finite nonempty interval, got {domain}")
    cuts = np.unique(np.concatenate([
        [lo, hi], eb[(eb > lo) & (eb < hi)], rb[(rb > lo) & (rb < hi)],
    ]))
    if ev is None:
        integrand = lambda x: np.abs(estimate.evaluate(x) - reference.pdf(x)) ** p
        return integrate_adaptive(integrand, cuts, tol=1e-8)

    mids = 0.5 * (cuts[:-1] + cuts[1:])
    gaps = np.abs(_step_value(eb, ev, mids) - _step_value(rb, step[1], mids))
    # Python's float power and a left-to-right sum: numpy's power rounds
    # differently for p != 1, and a numpy sum would reorder the additions
    total = 0.0
    for gap, width in zip(gaps.tolist(), np.diff(cuts).tolist()):
        total += gap ** p * width
    return total


def binning_bias(m: int, reference: ReferenceDensity, p: float = 1.0) -> float:
    """Exact L^p binning bias of the regular m-bin histogram of a step density.

    The bin-averaged histogram takes on ((j-1)/m, j/m] the height
    m (F(j/m) - F((j-1)/m)), with F the reference CDF; the bias is the exact
    `lp_distance` of that step density to f over [0, 1] and the reference
    support.  It vanishes when every jump of f falls on a bin edge.
    """
    if m < 1:
        raise DomainError(f"bin count must be >= 1, got {m}")
    step = reference.step_representation()
    if step is None:
        raise DomainError(f"binning bias needs a step reference, got {reference}")
    breaks, values = step
    edges = np.arange(m + 1) / m
    covered = np.clip(edges[:, None], breaks[:-1], breaks[1:]) - breaks[:-1]
    averaged = step_density(edges, m * np.diff(covered @ values))
    return lp_distance(averaged, reference, p)


@dataclass(frozen=True)
class HistogramSpec:
    """Histogram estimator configuration: the regular histogram with m bins."""

    m: int


@dataclass(frozen=True)
class KernelEstimatorSpec:
    """Kernel estimator configuration; bandwidth None means the rule of thumb."""

    kernel_name: str = "epanechnikov"
    bandwidth: float | None = None


EstimatorSpec = HistogramSpec | KernelEstimatorSpec


def build_estimate(spec: ProcessSpec, config: EstimatorSpec):
    """The estimate `config` of a realization of `spec`: a histogram from the
    counts of `bin_counts`, a kernel estimate from the values of generate(spec)."""
    if isinstance(config, HistogramSpec):
        return histogram_from_counts(bin_counts(spec, config.m), spec.n)
    if isinstance(config, KernelEstimatorSpec):
        kernel = kernel_by_name(config.kernel_name)
        values = generate(spec)
        h = config.bandwidth if config.bandwidth is not None else silverman_bandwidth(values)
        return KernelDensity(values, kernel, h)
    raise DomainError(f"unknown estimator config {config!r}")


def _trial_risk(task) -> float:
    trial, spec, est_cfg, reference, p = task
    try:
        return lp_distance(build_estimate(spec, est_cfg), reference, p)
    except Exception as exc:
        raise TrialError(f"Monte Carlo trial {trial} (seed {spec.seed}) failed: {exc}") from exc


def _keep_freed_memory() -> None:
    """Raise glibc's mmap and trim thresholds in this process, so that the
    arrays a trial frees stay in the heap for the next trial instead of going
    back to the kernel and faulting in again, page by page: at the default
    128 KB thresholds a sweep trial of n = 110,000 took 373 minor faults.
    No other C library is touched."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)    # glibc's largest on 64 bits
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _start_worker() -> None:
    """Pool initializer: `_keep_freed_memory`, then `_exit_with_parent`."""
    _keep_freed_memory()
    _exit_with_parent()


def _exit_with_parent() -> None:
    """A daemon thread ends this worker with os._exit(1) once the process
    that made the pool has exited, so a run that is killed leaves no worker
    behind.  The thread waits on the parent's sentinel, the read end of a
    pipe whose write end the run holds, under every start method: spawn and
    forkserver workers get only their own pipe ends, and under fork a later
    worker inherits an earlier one's write end, so the workers end in a
    chain, newest first."""
    def watch():
        wait([parent_process().sentinel])
        os._exit(1)
    threading.Thread(target=watch, daemon=True).start()


def row_seed(master_seed: int, n: int) -> int:
    """The seed of a sweep's row of length n; its trial t runs on row_seed XOR t."""
    return (master_seed ^ (n * _SEED_MIX)) % 2**64


def risk_rows(rows, reference: ReferenceDensity, trials: int = 300, p: float = 1.0,
              workers: int = 1) -> list[RiskReport]:
    """One RiskReport per row (process spec, estimator spec), all on one pool.

    Trial t of a row runs its spec on seed spec.seed XOR t; the trials of
    every row go through one map in row then trial order, on no more workers
    than there are trials, and each row is reduced from its own slice, so the
    reports do not depend on `workers`.
    A bad trial count or exponent raises DomainError before any trial runs.
    A failing trial raises TrialError naming it and its seed; a pool whose
    worker dies, or never starts, raises one saying that the pool broke and
    naming the first trial left without a value.
    """
    if trials < 1:
        raise DomainError(f"need at least one trial, got {trials}")
    _check_exponent(p)
    tasks = [(t, replace(spec, seed=spec.seed ^ t), estimator, reference, p)
             for spec, estimator in rows for t in range(1, trials + 1)]
    if workers > 1 and len(tasks) > 1:
        chunk = max(1, trials // (4 * workers))
        values = []
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks)),
                                 initializer=_start_worker) as pool:
            try:
                for value in pool.map(_trial_risk, tasks, chunksize=chunk):
                    values.append(value)
            except BrokenProcessPool as exc:
                trial, spec = tasks[len(values)][:2]
                raise TrialError(f"Monte Carlo worker pool broke before trial {trial} "
                                 f"(seed {spec.seed}) returned a value: {exc}") from exc
    else:
        values = [_trial_risk(task) for task in tasks]
    reports = []
    for r, (spec, _) in enumerate(rows):
        row = values[r * trials:(r + 1) * trials]
        arr = np.asarray(row)
        se = float(arr.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        reports.append(RiskReport(n=spec.n, mean_risk=float(arr.mean()), std_error=se,
                                  per_trial=tuple(row)))
    return reports


def monte_carlo_risk(process: ProcessSpec, estimator: EstimatorSpec,
                     reference: ReferenceDensity, trials: int = 300, p: float = 1.0,
                     master_seed: int = 1, workers: int = 1) -> RiskReport:
    """Mean integrated |f_n - f|^p over seeded independent trials: the
    one-row `risk_rows` of `process` on seed master_seed."""
    (report,) = risk_rows([(replace(process, seed=master_seed), estimator)], reference,
                          trials, p, workers)
    return report


def envelope_check(estimate: PiecewisePolyDensity, gamma: float,
                   skip_bins: int = 1) -> tuple[float, float]:
    """Extremes of f_n / f_gamma over occupied bins past the first skip_bins.

    Reports only; whether the ratios are consistent with a bounded envelope
    is the caller's judgment.
    """
    if not isinstance(estimate, PiecewisePolyDensity) or estimate.degree != 0:
        raise DomainError("envelope check expects a histogram estimate")
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"gamma must lie in (0, 1), got {gamma}")
    m = estimate.m
    if not 0 <= skip_bins < m:
        raise DomainError(f"skip_bins must lie in [0, m), got {skip_bins}")
    heights = estimate.bin_values()[skip_bins:]
    mids = (np.arange(skip_bins, m) + 0.5) / m
    occupied = heights > 0.0
    if not np.any(occupied):
        raise EmptyEstimate("all considered bins are empty")
    ratios = heights[occupied] / ((1.0 - gamma) * mids[occupied] ** (-gamma))
    return float(ratios.min()), float(ratios.max())


def loglog_slope(points) -> float:
    """Least-squares slope of log(risk) against log(n)."""
    pts = [(float(n), float(r)) for n, r in points]
    if len(pts) < 3:
        raise DomainError(f"need at least 3 points, got {len(pts)}")
    if not all(0.0 < n < math.inf and 0.0 < r < math.inf for n, r in pts):
        raise DomainError("log-log regression needs positive finite coordinates")
    x = np.log([n for n, _ in pts])
    y = np.log([r for _, r in pts])
    x_cent = x - x.mean()
    return float(np.dot(x_cent, y - y.mean()) / np.dot(x_cent, x_cent))
