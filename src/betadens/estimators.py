"""Density estimators: kernel smoothing and piecewise-polynomial projection.

Each takes the observations alone, as any nonempty 1-D array-like of floats
(`observations` refuses any other shape), and gives an immutable value
object with a vectorized `evaluate` method.  A projection estimate is its
coefficient array alone: the degree and the bin count are its shape.
Histograms are the degree-0 special case; `histogram_from_counts` makes one
from bin counts, as `processes.bin_counts` gives them for a process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import build_poly_basis
from .errors import DomainError
from .kernels import KernelSpec
from .processes import bin_index, check_bin_count, observations
from .quadrature import panel_nodes

# sample values one gather of KernelDensity.evaluate holds at most (unless
# one window is wider); bounds its one window buffer to 256 KB whatever the
# number of query points
_GATHER_ELEMENTS = 32768


@dataclass(frozen=True, eq=False)
class KernelDensity:
    """f_n(x) = (1/(n h)) sum_k K((x - Y_k) / h) over a sorted copy of the
    finite observations Y_k; the one constructor, it checks that 0 < h < inf."""

    sorted_values: np.ndarray
    kernel: KernelSpec
    bandwidth: float

    def __post_init__(self):
        if not 0.0 < self.bandwidth < np.inf:
            raise DomainError(f"bandwidth must be positive and finite, got {self.bandwidth}")
        v = np.sort(observations(self.sorted_values))
        if not np.all(np.isfinite(v)):
            raise DomainError("kernel estimates need finite sample values")
        v.flags.writeable = False
        object.__setattr__(self, "sorted_values", v)

    @property
    def n(self) -> int:
        return len(self.sorted_values)

    def breakpoints(self) -> np.ndarray:
        """Kink locations of the estimate: Y_k + h u for every kink u of K."""
        offsets = self.bandwidth * np.asarray(self.kernel.kinks)
        return np.unique(self.sorted_values[:, None] + offsets)

    def evaluate(self, x) -> np.ndarray:
        """f_n at each x, bit for bit the sum of K over each point's window.

        The sample values within h * support_radius of x form a contiguous
        window of the sorted sample.  One strided view over the sample,
        padded by the widest window, holds each window as the head of a row.
        Points sorted by window width w are gathered from it into one
        contiguous (k, w) copy per width, at most _GATHER_ELEMENTS values at
        a time; u = (x - v) / h and then K(u) overwrite that copy, and each
        row is summed along its contiguous axis: the same pairwise order as
        summing the window alone.

        Rounding can put a window value just past the support (several, when
        they tie), where K's zeroing applies.  u never increases along a
        sorted row, so a row's first and last u bound all of it: a copy
        whose rows all end within the support skips the zeroing, which
        would change nothing there.  Any other copy is zeroed.  An infinite
        or NaN x has an empty window, so f_n is 0.0 there.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        v = self.sorted_values
        h = self.bandwidth
        radius = self.kernel.support_radius
        r = h * radius
        lo = np.searchsorted(v, x - r, side="left")
        width = np.searchsorted(v, x + r, side="right") - lo
        out = np.zeros_like(x)
        widest = int(width.max(initial=0))
        if widest == 0:
            return out
        # row i is v[i:i + widest], padded past the end; a window of w values
        # from lo has lo + w <= n, so it is the first w values of row lo
        view = np.lib.stride_tricks.sliding_window_view(
            np.concatenate((v, np.zeros(widest - 1))), widest)
        # a run of one width w > 0 starts wherever the sorted width grows;
        # points with empty windows (w = 0) come first and keep a zero sum
        order = np.argsort(width, kind="stable")
        width, lo, xs = width[order], lo[order], x[order]
        runs = [*np.flatnonzero(np.diff(width, prepend=0)).tolist(), len(x)]
        sums = np.zeros_like(x)
        for start, stop in zip(runs[:-1], runs[1:]):
            w = int(width[start])
            rows = max(1, _GATHER_ELEMENTS // w)
            for i in range(start, stop, rows):
                j = min(i + rows, stop)
                u = view[lo[i:j], :w]
                np.subtract(xs[i:j, None], u, out=u)
                u /= h
                if u[:, 0].max() <= radius and u[:, -1].min() >= -radius:
                    k = self.kernel.polynomial(u)
                else:
                    k = self.kernel.overwrite(u)
                sums[i:j] = k.sum(axis=1)
        out[order] = sums
        return out / (self.n * h)


@dataclass(frozen=True, eq=False)
class PiecewisePolyDensity:
    """Projection estimate sum_{i,j} c_{i,j} sqrt(m) Q_i(m x - (j-1)) on (0, 1].

    coeffs has shape (degree+1, m); bin j only ever uses column j-1, and any
    x outside (0, 1] evaluates to zero.  Bins are the half-open intervals
    ((j-1)/m, j/m].
    """

    coeffs: np.ndarray

    def __post_init__(self):
        # a copy, so that freezing it leaves the caller's array writeable
        c = np.array(self.coeffs, dtype=float)
        if c.ndim != 2 or c.shape[1] == 0:
            raise DomainError(f"coefficients must have shape (r+1, m), m >= 1, got {c.shape}")
        build_poly_basis(c.shape[0] - 1)    # UnsupportedDegree unless 0 <= r <= 10
        if not np.all(np.isfinite(c)):
            raise DomainError("projection coefficients must be finite")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def m(self) -> int:
        return self.coeffs.shape[1]

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    def breakpoints(self) -> np.ndarray:
        return np.arange(self.m + 1) / self.m

    def bin_values(self) -> np.ndarray:
        """Histogram heights per bin (degree 0 only)."""
        if self.degree != 0:
            raise DomainError("bin_values is defined for histograms (degree 0)")
        return self.coeffs[0] * np.sqrt(self.m)

    def evaluate(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(x)
        inside = (x > 0.0) & (x <= 1.0)
        if not np.any(inside):
            return out
        xi = x[inside]
        j = np.ceil(xi * self.m).astype(int)      # 1-based bin, half-open right
        t = self.m * xi - (j - 1)
        q = build_poly_basis(self.degree).eval_all(t)    # (r+1, k)
        c = self.coeffs[:, j - 1]                        # (r+1, k)
        out[inside] = np.sqrt(self.m) * np.sum(c * q, axis=0)
        return out


DensityEstimate = KernelDensity | PiecewisePolyDensity


def _projection(coeffs: np.ndarray, counts: np.ndarray, n: int) -> PiecewisePolyDensity:
    """The estimate of n values from their counts in bins 1..m (row 0, as
    Q_1 = 1) and the basis sums of the higher rows already in `coeffs`."""
    coeffs[0] = counts
    coeffs *= np.sqrt(coeffs.shape[1]) / n
    return PiecewisePolyDensity(coeffs)


def projection_estimate(values, m: int, degree: int) -> PiecewisePolyDensity:
    """Empirical projection coefficients c_{i,j} = (1/n) sum_k phi_{i,j}(Y_k),
    for the basis polynomials of degree <= `degree`.

    Values outside (0, 1] contribute zero, matching the zero extension of the
    base polynomials.  `check_bin_count` refuses m before any array is made.
    """
    check_bin_count(m)
    basis = build_poly_basis(degree)
    values = observations(values)
    coeffs = np.empty((degree + 1, m))
    j = bin_index(values, m)
    if degree:
        # t of the dropped bins is clipped to [0, 1] (or NaN) to raise no warning
        with np.errstate(over="ignore"):
            q = basis.eval_all(np.clip(m * values - (j - 1), 0.0, 1.0))
        for i in range(1, degree + 1):
            coeffs[i] = np.bincount(j, weights=q[i], minlength=m + 2)[1:-1]
    return _projection(coeffs, np.bincount(j, minlength=m + 2)[1:-1], len(values))


def histogram_estimate(values, m: int) -> PiecewisePolyDensity:
    """Regular histogram on ((j-1)/m, j/m], the degree-0 projection."""
    return projection_estimate(values, m, 0)


def histogram_from_counts(counts, n: int) -> PiecewisePolyDensity:
    """The regular histogram of n values from their counts in bins 1..m,
    bit for bit histogram_estimate of those values."""
    return _projection(np.empty((1, len(counts))), counts, n)


def estimate_mass(estimate: DensityEstimate) -> float:
    """Integral of the estimate over its support, exact up to rounding.

    Histogram/projection mass is a finite sum of exact bin integrals.  A
    kernel estimate is a polynomial of degree <= 2 between consecutive kinks,
    where 16-node Gauss-Legendre panels are exact.
    """
    if isinstance(estimate, PiecewisePolyDensity):
        # only the constant component carries mass: int_0^1 Q_i = 0 for i >= 2
        return float(estimate.coeffs[0].sum() / np.sqrt(estimate.m))
    x, w = panel_nodes(estimate.breakpoints(), 16)
    return float(np.dot(w, estimate.evaluate(x)))
