"""Bounded-variation kernels and the rule-of-thumb bandwidth of the observations.

Each kernel is written as its polynomial on the support, a function that
overwrites a float64 array u with it, plus one zeroing rule shared by all:
the polynomial is exact where |u| <= support_radius and at most 0 beyond
it, so K(u) = fmax(polynomial(u), 0).  For Epanechnikov, 0.75 (1 - u u) is
negative everywhere off the support: |u| > 1, ±inf included, gives
u u >= 1 + 2^-51.  On the support each polynomial is >= +0.0, so the zeroing
changes nothing there, and `KernelDensity.evaluate` skips it for a window
copy whose rows' own first and last u lie within the support.

The result has the bits of the allocating form `np.where(|u| <= r, K, 0)`,
a NaN included: `np.fmax` drops it for +0.0, as the `np.where` form does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateSample, DomainError
from .processes import observations


def _epanechnikov(u):
    u *= u
    np.subtract(1.0, u, out=u)
    u *= 0.75
    return u


def _rectangular(u):
    # the indicator itself: 1.0 on the support, +0.0 beyond it and at a NaN
    np.abs(u, out=u)
    return np.less_equal(u, 0.5, out=u)


def _triangular(u):
    np.abs(u, out=u)
    return np.subtract(1.0, u, out=u)


@dataclass(frozen=True)
class KernelSpec:
    """A kernel together with its analytic constants.

    total_variation is the variation norm of the measure dK and l1_norm the
    Lebesgue L1 norm of K; both are recorded analytically and cross-checked
    against grid/quadrature oracles in the test suite.  kinks lists every u
    where K is not smooth, in increasing order; K is a polynomial between
    consecutive kinks and zero beyond the outer ones.  polynomial(u)
    replaces the float64 array u by K's polynomial on the support, and
    `overwrite` zeroes it beyond with np.fmax(k, 0).
    """

    name: str
    polynomial: Callable[[np.ndarray], np.ndarray]
    total_variation: float
    l1_norm: float
    kinks: tuple[float, ...]

    @property
    def support_radius(self) -> float:
        return max(-self.kinks[0], self.kinks[-1])

    def overwrite(self, u: np.ndarray) -> np.ndarray:
        """Replace the float64 array u by K(u) and return it."""
        k = self.polynomial(u)
        return np.fmax(k, 0.0, out=k)

    def eval(self, u) -> np.ndarray:
        """K(u) as a new float array; u itself is left unchanged."""
        return self.overwrite(np.array(u, dtype=float))


EPANECHNIKOV = KernelSpec("epanechnikov", _epanechnikov,
                          total_variation=1.5, l1_norm=1.0, kinks=(-1.0, 1.0))
RECTANGULAR = KernelSpec("rectangular", _rectangular,
                         total_variation=2.0, l1_norm=1.0, kinks=(-0.5, 0.5))
TRIANGULAR = KernelSpec("triangular", _triangular,
                        total_variation=2.0, l1_norm=1.0, kinks=(-1.0, 0.0, 1.0))

KERNELS = {k.name: k for k in (EPANECHNIKOV, RECTANGULAR, TRIANGULAR)}


def kernel_by_name(name: str) -> KernelSpec:
    try:
        return KERNELS[name.lower()]
    except KeyError:
        raise DomainError(f"unknown kernel {name!r}; have {sorted(KERNELS)}") from None


def silverman_bandwidth(values) -> float:
    """0.9 * min(sd, IQR/1.34) * n^(-1/5) of the n observations `values`.

    Stands in for an off-the-shelf bandwidth selector.  Falls back to the
    standard deviation alone when the interquartile range collapses; raises
    DegenerateSample for constant samples and DomainError unless `values`
    is 1-D and nonempty.
    """
    values = observations(values)
    if len(values) < 2:
        raise DegenerateSample("bandwidth rule needs at least two points")
    if values.min() == values.max():
        raise DegenerateSample("sample is constant")
    sd = float(np.std(values, ddof=1))
    if sd == 0.0:
        raise DegenerateSample("sample has zero standard deviation")
    q75, q25 = np.percentile(values, [75, 25])
    scale = min(sd, (q75 - q25) / 1.34)
    if scale <= 0.0:
        scale = sd
    return 0.9 * scale * len(values) ** (-0.2)
