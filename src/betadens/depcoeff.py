"""Dependence coefficients of the dyadic AR(1) chain, computed exactly.

Conditionally on X_0 = x0, the k-step state is uniform over the 2^k lattice
points (x0 + j) / 2^k.  The conditional CDF is therefore a staircase whose
deviation from the uniform CDF is constant across jumps, which gives the
one-index coefficient in closed form and certifies the geometric bound
b_0(k) <= 2^-k.  The two-index coefficient has no closed form; a grid lower
bound documents its size without claiming exactness.  Its pair sums over the
2^i paths are counted, not multiplied: a sum of products of centred
indicators is a joint count minus two marginal counts plus a constant, and
on a power-of-two grid every one of those terms is exact in float64.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError, DomainError
from .quadrature import gauss_legendre

MAX_ENUM_K = 24      # full atom enumeration: 2^24 atoms
MAX_CLOSED_K = 40    # closed-form staircase deviation only
MAX_PAIR_I = 16      # pair bounds count 2^i paths per x0 node: O(2^i + grid^2) memory


def _check_args(x0: float, k: int, limit: int) -> None:
    if not 0.0 <= x0 <= 1.0:
        raise DomainError(f"x0 must lie in [0, 1], got {x0}")
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if k > limit:
        raise CapacityError(f"k = {k} exceeds the bound {limit} for this operation")


def conditional_atoms(x0: float, k: int) -> np.ndarray:
    """Law of X_k given X_0 = x0: the 2^k equiprobable atoms (x0 + j) / 2^k,
    read-only; k is capped at 24 (16M atoms)."""
    _check_args(x0, k, MAX_ENUM_K)
    atoms = (x0 + np.arange(2**k, dtype=float)) * 2.0**-k
    atoms.flags.writeable = False
    return atoms


def b0_exact(x0: float, k: int) -> float:
    """sup_t |F_{X_k | X_0 = x0}(t) - t| in closed form.

    The staircase jumps by 2^-k at each atom (x0 + j)/2^k; just below a jump
    the gap is x0 * 2^-k and at the jump (1 - x0) * 2^-k, both independent of
    j, so the supremum is 2^-k max(x0, 1 - x0).  Always <= 2^-k.
    """
    _check_args(x0, k, MAX_CLOSED_K)
    return 2.0**-k * max(x0, 1.0 - x0)


def b0_staircase_scan(x0: float, k: int) -> float:
    """Same supremum by scanning every jump of the enumerated staircase."""
    atoms = conditional_atoms(x0, k)
    w = 2.0**-k
    below = np.arange(len(atoms)) * w       # F just below each jump
    at = below + w                          # F at the jump
    return float(np.maximum(atoms - below, at - atoms).max())


def beta1_estimate(k: int) -> float:
    """E(b_0(k)) for X_0 uniform, by quadrature over x0.

    The integrand 2^-k max(x0, 1 - x0) has a kink at 1/2 and is linear on
    each side, so 32 Gauss-Legendre nodes on each half panel integrate it
    exactly up to rounding; the closed-form value is 3 * 2^-(k+2).
    """
    _check_args(0.0, k, MAX_CLOSED_K)
    u, wu = gauss_legendre(32)
    total = 0.0
    for a, b in ((0.0, 0.5), (0.5, 1.0)):
        half = 0.5 * (b - a)
        x = a + half * (u + 1.0)
        total += half * float(np.dot(wu, [b0_exact(xi, k) for xi in x]))
    return total


def _pair_sum(x0: float, i: int, j: int, grid: int) -> np.ndarray:
    """Sum over the 2^i innovation paths from X_0 = x0 of
    (1{X_i <= t} - t)(1{X_j <= s} - s) on the grid x grid midpoint lattice,
    rows t and columns s.

    X_j reuses the first j bits of X_i's path.  With C(t, s) the number of
    paths with X_i <= t and X_j <= s, the sum is the count identity

        C(t, s) - s C(t, 1) - t C(1, s) + 2^i t s
          = C(t, s) + (2^i t - C(t, 1)) s - t C(1, s).

    C is one bincount of the cells (grid index of X_i, grid index of X_j),
    each index the first grid point at or above the value, summed
    cumulatively along both axes: O(2^i log grid + grid^2) time and
    O(2^i + grid^2) memory.  On a power-of-two grid of at most 2^16 points
    every grid point is a multiple of grid^-1 / 2, so every term and partial
    sum is a multiple of grid^-2 / 4 below 2^(i+2) and fits in 53 bits: the
    sum is exact, and equals the product of the two (grid, 2^i) indicator
    matrices bit for bit, since that product is exact in any summation
    order too.  On other grids the two agree to rounding.
    """
    paths = np.arange(2**i, dtype=float)
    x_i = (x0 + paths) * 2.0**-i
    x_j = (x0 + np.mod(paths, 2**j)) * 2.0**-j
    s = (np.arange(grid) + 0.5) / grid
    t = s
    cells = np.searchsorted(t, x_i) * (grid + 1) + np.searchsorted(s, x_j)
    counts = np.bincount(cells, minlength=(grid + 1)**2).reshape(grid + 1, grid + 1)
    c = counts.cumsum(axis=0).cumsum(axis=1)
    return (c[:grid, :grid] + (2.0**i * t - c[:grid, grid])[:, None] * s
            - t[:, None] * c[grid, :grid])


def beta2_pair_lower_bound(i: int, j: int, grid: int = 256,
                           x0_nodes: int = 33) -> float:
    """Grid LOWER bound of E(b_0(i, j)) for X_0 ~ U[0, 1].

    At each of x0_nodes Gauss-Legendre nodes x0, enumerates the 2^i
    innovation paths (X_j reuses the first j bits) and counts their pair
    sums on the grid (see `_pair_sum`: one bincount and two cumulative sums
    per node, exact on a power-of-two grid); the unconditional functional is
    the weighted sum of those conditionals.  The supremum over (s, t) is
    only sampled on a grid x grid lattice, so the value is a lower bound,
    not the coefficient itself.  At the cap, i = 16 on a 256 grid with 3
    nodes, it takes about 0.02 s and a few MB.
    """
    if not i > j >= 1:
        raise DomainError(f"need i > j >= 1, got ({i}, {j})")
    if i > MAX_PAIR_I:
        raise CapacityError(f"i = {i} exceeds the bound {MAX_PAIR_I} for this operation")
    if grid < 1 or x0_nodes < 1:
        raise DomainError(f"need grid >= 1 and x0_nodes >= 1, got {grid}, {x0_nodes}")
    u, wu = gauss_legendre(x0_nodes)
    w = 0.5 * wu
    sums = [_pair_sum(x0, i, j, grid) for x0 in 0.5 * (u + 1.0)]
    unconditional = np.zeros((grid, grid))
    for weight, pair_sum in zip(w, sums):
        unconditional += weight * pair_sum / 2**i
    total = 0.0
    for weight, pair_sum in zip(w, sums):
        total += weight * float(np.abs(pair_sum / 2**i - unconditional).max())
    return total
