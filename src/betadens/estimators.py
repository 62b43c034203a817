"""Density estimators: kernel smoothing and piecewise-polynomial projection.

Both estimators are immutable value objects with vectorized `evaluate`
methods.  A projection estimate is its coefficient array alone: the degree
and the bin count are its shape.  Histograms are the degree-0 special case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import build_poly_basis
from .errors import DomainError
from .kernels import KernelSpec
from .processes import Sample
from .quadrature import panel_nodes

# sample values one gather of KernelDensity.evaluate holds at most; bounds
# its temporaries (about 64 KB each) whatever the number of query points
_GATHER_ELEMENTS = 8192


@dataclass(frozen=True, eq=False)
class KernelDensity:
    """f_n(x) = (1/(n h)) sum_k K((x - Y_k) / h) over a sorted copy of the sample."""

    sorted_values: np.ndarray
    kernel: KernelSpec
    bandwidth: float

    def __post_init__(self):
        v = np.sort(np.asarray(self.sorted_values, dtype=float))
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
        window of the sorted sample.  Points with equal window widths w are
        gathered into (k, w) rows, at most _GATHER_ELEMENTS values at a time,
        and each row is summed along its contiguous axis: the same pairwise
        order as summing the window alone.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        v = self.sorted_values
        h = self.bandwidth
        r = h * self.kernel.support_radius
        lo = np.searchsorted(v, x - r, side="left")
        width = np.searchsorted(v, x + r, side="right") - lo
        out = np.zeros_like(x)
        order = np.argsort(width, kind="stable")
        groups = np.split(order, np.flatnonzero(np.diff(width[order])) + 1)
        for group in groups:
            w = int(width[group[0]])
            if w == 0:
                continue
            offsets = np.arange(w)
            rows = max(1, _GATHER_ELEMENTS // w)
            for start in range(0, len(group), rows):
                idx = group[start:start + rows]
                window = v[lo[idx, None] + offsets]
                out[idx] = self.kernel.eval((x[idx, None] - window) / h).sum(axis=1)
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
        c = np.asarray(self.coeffs, dtype=float)
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


def kernel_estimate(sample: Sample, kernel: KernelSpec, h: float) -> KernelDensity:
    if not 0.0 < h < np.inf:
        raise DomainError(f"bandwidth must be positive and finite, got {h}")
    return KernelDensity(sorted_values=sample.values, kernel=kernel, bandwidth=h)


def projection_estimate(sample: Sample, m: int, degree: int) -> PiecewisePolyDensity:
    """Empirical projection coefficients c_{i,j} = (1/n) sum_k phi_{i,j}(Y_k),
    for the basis polynomials of degree <= `degree`.

    Sample values outside (0, 1] contribute zero, matching the zero extension
    of the base polynomials.
    """
    if m < 1:
        raise DomainError(f"bin count must be >= 1, got {m}")
    basis = build_poly_basis(degree)
    values = sample.values
    coeffs = np.empty((degree + 1, m))
    with np.errstate(over="ignore"):
        # bin j of ((j-1)/m, j/m]; bins 0 (x <= 0) and m + 1 (x > 1, NaN) are
        # dropped, and their t is clipped to [0, 1] (or NaN) to raise no warning
        j = np.fmax(np.fmin(np.ceil(values * m), m + 1.0), 0.0).astype(np.intp)
        # Q_1 = 1, so the degree-0 coefficients are plain counts
        coeffs[0] = np.bincount(j, minlength=m + 2)[1:-1]
        if degree:
            q = basis.eval_all(np.clip(m * values - (j - 1), 0.0, 1.0))
            for i in range(1, degree + 1):
                coeffs[i] = np.bincount(j, weights=q[i], minlength=m + 2)[1:-1]
    coeffs *= np.sqrt(m) / len(values)
    return PiecewisePolyDensity(coeffs)


def histogram_estimate(sample: Sample, m: int) -> PiecewisePolyDensity:
    """Regular histogram on ((j-1)/m, j/m], the degree-0 projection."""
    return projection_estimate(sample, m, 0)


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
