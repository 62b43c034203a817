"""Bandwidth and bin-count schedules with their theoretical rate exponents."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .processes import check_bin_count


@dataclass(frozen=True)
class RateRegime:
    """Parameters entering the bandwidth exponent."""

    s: float = 1.0          # smoothness
    delta: float = 0.0      # dependence discount

    def __post_init__(self):
        if not 0.0 < self.s < math.inf:
            raise DomainError(f"smoothness must be finite and > 0, got {self.s}")
        if not 0.0 <= self.delta < 1.0:
            raise DomainError(f"delta must lie in [0, 1), got {self.delta}")


def kernel_bandwidth(n: int, regime: RateRegime, constant: float = 1.0) -> float:
    """h_n = C * n^(-(1 - delta) / (2s + 1))."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not 0.0 < constant < math.inf:
        raise DomainError(f"bandwidth constant must be finite and > 0, got {constant}")
    return constant * float(n) ** (-(1.0 - regime.delta) / (2.0 * regime.s + 1.0))


def _floor_power(x: float) -> int:
    # floor with a one-ulp-scale forgiveness so exact powers (1000^(1/3),
    # 4096^(1/2), ...) are not pushed below the integer by float rounding;
    # a count above MAX_BINS is refused here, so a sweep refuses while it
    # builds its rows
    m = math.floor(x)
    if (m + 1) <= x * (1.0 + 1e-12):
        m += 1
    m = max(m, 1)
    check_bin_count(m)
    return m


def histogram_bins_bv(n: int, constant: float = 1.0) -> int:
    """floor(C * n^(1/3)), clamped to >= 1: the schedule for BV densities.
    CapacityError above MAX_BINS."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not 0.0 < constant < math.inf:
        raise DomainError(f"bin constant must be finite and > 0, got {constant}")
    bins = constant * float(n) ** (1.0 / 3.0)
    if bins == math.inf:
        raise DomainError(f"bin count C n^(1/3) overflows at C = {constant}, n = {n}")
    return _floor_power(bins)


def histogram_bins_lsv(n: int, gamma: float) -> int:
    """Bin schedule for the intermittent map's invariant density.

    floor(n^(1/(3 - 2 gamma))) up to the boundary gamma = 1/2, and
    floor(n^((1 - gamma)/(gamma (3 - 2 gamma)))) in the long-range regime.
    CapacityError above MAX_BINS.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"gamma must lie in (0, 1), got {gamma}")
    if gamma <= 0.5:
        exponent = 1.0 / (3.0 - 2.0 * gamma)
    else:
        exponent = (1.0 - gamma) / (gamma * (3.0 - 2.0 * gamma))
    return _floor_power(float(n) ** exponent)


def lsv_rate_exponent(gamma: float) -> tuple[float, bool]:
    """Decay exponent of the L1 risk for the intermittent map.

    Returns (exponent, has_log_factor): n^-e below the boundary, the
    boundary case gamma = 1/2 carries a (n / log n)^(-1/4) rate, and the
    long-range regime decays like n^(-(1-gamma)^2 / (gamma (3 - 2 gamma))).
    """
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"gamma must lie in (0, 1), got {gamma}")
    if gamma < 0.5:
        return (1.0 - gamma) / (3.0 - 2.0 * gamma), False
    if gamma == 0.5:
        return 0.25, True
    return (1.0 - gamma) ** 2 / (gamma * (3.0 - 2.0 * gamma)), False


def equivalent_density(x, gamma: float):
    """f_gamma(x) = (1 - gamma) x^(-gamma) on (0, 1]; integrates to one."""
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"gamma must lie in (0, 1), got {gamma}")
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr > 1.0):
        raise DomainError("equivalent density is defined on (0, 1]")
    out = (1.0 - gamma) * arr ** (-gamma)
    return float(out) if np.isscalar(x) else out

