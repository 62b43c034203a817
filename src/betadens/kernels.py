"""Bounded-variation kernels and the rule-of-thumb bandwidth."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateSample, DomainError
from .processes import Sample


def _epanechnikov(u):
    u = np.asarray(u, dtype=float)
    return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)


def _rectangular(u):
    u = np.asarray(u, dtype=float)
    return np.where(np.abs(u) <= 0.5, 1.0, 0.0)


def _triangular(u):
    u = np.asarray(u, dtype=float)
    return np.maximum(1.0 - np.abs(u), 0.0)


@dataclass(frozen=True)
class KernelSpec:
    """A kernel together with its analytic constants.

    total_variation is the variation norm of the measure dK and l1_norm the
    Lebesgue L1 norm of K; both are recorded analytically and cross-checked
    against grid/quadrature oracles in the test suite.  kinks lists every u
    where K is not smooth, in increasing order; K is a polynomial between
    consecutive kinks and zero beyond the outer ones.
    """

    name: str
    eval: Callable[[np.ndarray], np.ndarray]
    total_variation: float
    l1_norm: float
    kinks: tuple[float, ...]

    @property
    def support_radius(self) -> float:
        return max(-self.kinks[0], self.kinks[-1])


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


def silverman_bandwidth(sample: Sample) -> float:
    """0.9 * min(sd, IQR/1.34) * n^(-1/5).

    Stands in for an off-the-shelf bandwidth selector.  Falls back to the
    standard deviation alone when the interquartile range collapses; raises
    DegenerateSample for constant samples.
    """
    values = sample.values
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
