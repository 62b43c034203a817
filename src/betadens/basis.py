"""Orthonormal piecewise-polynomial bases on the unit interval.

The base polynomials are shifted Legendre polynomials normalized on [0, 1]:
Q_1 = 1, Q_2(x) = sqrt(3)(2x - 1), Q_3(x) = sqrt(5)(6x^2 - 6x + 1), ...
Scaled copies sqrt(m) * Q_i(m x - (j - 1)) on the bins ((j-1)/m, j/m] form an
orthonormal system of L2([0, 1]); degree 0 recovers the regular histogram.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedDegree

MAX_DEGREE = 10


def _legendre_values(r: int, u: np.ndarray) -> np.ndarray:
    """P_0..P_r at u in [-1, 1] via the three-term recurrence, shape (r+1, len(u))."""
    out = np.empty((r + 1, len(u)))
    out[0] = 1.0
    if r >= 1:
        out[1] = u
    for i in range(1, r):
        out[i + 1] = ((2 * i + 1) * u * out[i] - i * out[i - 1]) / (i + 1)
    return out


@dataclass(frozen=True)
class PolyBasis:
    """Orthonormal polynomials Q_1..Q_{r+1} on [0, 1]."""

    degree: int

    def eval_all(self, t) -> np.ndarray:
        """Values of all Q_i at points t in [0, 1], shape (r+1, len(t))."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        vals = _legendre_values(self.degree, 2.0 * t - 1.0)
        scale = np.sqrt(2.0 * np.arange(self.degree + 1) + 1.0)
        return vals * scale[:, None]


def build_poly_basis(r: int) -> PolyBasis:
    """Shifted-Legendre orthonormal basis of polynomials of degree <= r."""
    if r < 0:
        raise UnsupportedDegree(f"degree must be non-negative, got {r}")
    if r > MAX_DEGREE:
        raise UnsupportedDegree(f"degree {r} exceeds the implementation bound {MAX_DEGREE}")
    return PolyBasis(degree=r)
