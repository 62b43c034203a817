"""Generators for the dependent processes studied by this lab.

All processes are strictly stationary on [0, 1] (or transforms thereof):

* the dyadic AR(1) chain X_{k+1} = (X_k + eps_{k+1}) / 2 with fair-coin
  innovations and uniform initial state,
* its transforms by the quantile of its marginal `ReferenceDensity`, the
  Gaussian or the two-level density, whose `pdf` the estimates are compared
  with; `ProcessSpec.marginal` is the one place a kind decides it,
* trajectories of the intermittent interval map with parameter gamma.

Randomness comes from a counter-based generator (Philox) keyed by the seed,
so identical specs reproduce bit-identical values on any platform and
Monte Carlo trials can derive independent streams as seed XOR trial index.
`generate` makes the values of a spec as a read-only float64 array, and
`bin_counts` counts the histogram of every process on the bins of `bin_index`.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError
from .normal import norm_ppf_array

DEFAULT_BURN_IN = 1000
_BLOCK = 8192  # values per block of lsv_blocks
PREFIX_BITS = 12  # register bits that index the table of _prefix_bins
MAX_BINS = 2**20  # largest bin count m: its count array takes 8 MB
# most steps n + burn_in of one process: `generate` peaks near 55 bytes a
# step, so under 1 GB, and a chain's bit stream is made in one array
MAX_STEPS = 2**24


class ProcessKind(enum.Enum):
    AR1_BINARY = "ar1-binary"
    AR1_GAUSSIAN = "ar1-gaussian"
    AR1_PIECEWISE = "ar1-piecewise"
    LSV_TRAJECTORY = "lsv"


@dataclass(frozen=True)
class ProcessSpec:
    """Declarative description of a data-generating process."""

    kind: ProcessKind
    n: int
    seed: int = 0
    burn_in: int = DEFAULT_BURN_IN
    gamma: float | None = None
    mu: float | None = None
    sigma2: float | None = None

    def __post_init__(self):
        if not isinstance(self.kind, ProcessKind):
            raise DomainError(f"unknown process kind {self.kind!r}")
        if self.n < 1:
            raise DomainError(f"sample length must be >= 1, got {self.n}")
        if self.burn_in < 0:
            raise DomainError(f"burn-in must be >= 0, got {self.burn_in}")
        if self.n + self.burn_in > MAX_STEPS:
            raise CapacityError(f"n + burn_in = {self.n + self.burn_in} steps exceed the "
                                f"bound MAX_STEPS = {MAX_STEPS}")
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if (self.kind is ProcessKind.LSV_TRAJECTORY) != (self.gamma is not None):
            raise DomainError("gamma is required for lsv and forbidden otherwise")
        if self.gamma is not None and not 0.0 < self.gamma < 1.0:
            raise DomainError(f"gamma must lie in (0, 1), got {self.gamma}")
        is_gaussian = self.kind is ProcessKind.AR1_GAUSSIAN
        if is_gaussian != (self.mu is not None and self.sigma2 is not None):
            raise DomainError("mu/sigma2 are required exactly for the gaussian transform")
        if is_gaussian:
            gaussian(self.mu, self.sigma2)   # raises on a bad mu or sigma2

    @property
    def marginal(self) -> ReferenceDensity | None:
        """The density of each chain value: `uniform01` for ar1-binary,
        `two_level` for ar1-piecewise, N(mu, sigma2) for ar1-gaussian; None
        for lsv, whose invariant density has no closed form."""
        if self.kind is ProcessKind.AR1_BINARY:
            return uniform01()
        if self.kind is ProcessKind.AR1_PIECEWISE:
            return two_level()
        if self.kind is ProcessKind.AR1_GAUSSIAN:
            return gaussian(self.mu, self.sigma2)
        return None


@dataclass(frozen=True)
class ReferenceDensity:
    """A marginal density: a step density (`breaks`, `values`) or N(mu, sigma2),
    exactly one of the two, checked when it is made."""

    breaks: tuple[float, ...] | None = None
    values: tuple[float, ...] | None = None
    mu: float | None = None
    sigma2: float | None = None

    def __post_init__(self):
        given = [f is not None for f in (self.breaks, self.values, self.mu, self.sigma2)]
        if given not in ([True, True, False, False], [False, False, True, True]):
            raise DomainError("a reference density needs breaks and values, or mu and "
                              "sigma2, not both")
        if self.breaks is None:
            if not (math.isfinite(self.mu) and 0.0 < self.sigma2 < math.inf):
                raise DomainError("need a finite mu and sigma2 in (0, inf), "
                                  f"got {self.mu}, {self.sigma2}")
            return
        breaks = tuple(float(b) for b in self.breaks)
        values = tuple(float(v) for v in self.values)
        if len(breaks) != len(values) + 1 or not values:
            raise DomainError("need one or more step values and one more break")
        if not all(map(math.isfinite, breaks + values)):
            raise DomainError("breaks and step values must be finite")
        if any(b >= c for b, c in zip(breaks[:-1], breaks[1:])):
            raise DomainError("breaks must be strictly increasing")
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "values", values)

    @property
    def support(self) -> tuple[float, float]:
        """[breaks[0], breaks[-1]], or [mu - 6 sigma, mu + 6 sigma] for the
        Gaussian, whose mass outside it is below 1e-8, the quadrature budget."""
        if self.breaks is not None:
            return self.breaks[0], self.breaks[-1]
        sigma = math.sqrt(self.sigma2)
        return self.mu - 6.0 * sigma, self.mu + 6.0 * sigma

    def pdf(self, x) -> np.ndarray:
        """The density at the points x.  A step density takes values[i] on
        the closed piece [breaks[i], breaks[i+1]], the smaller of the two
        values that meet at a break, and 0 off [breaks[0], breaks[-1]]."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.breaks is None:
            sigma = math.sqrt(self.sigma2)
            z = (x - self.mu) / sigma
            return np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))
        breaks, values = self.step_representation()
        # the pieces left and right of x, which differ only at a break
        padded = np.concatenate([[np.inf], values, [np.inf]])
        at = np.minimum(padded[np.searchsorted(breaks, x, side="left")],
                        padded[np.searchsorted(breaks, x, side="right")])
        return np.where((x >= breaks[0]) & (x <= breaks[-1]), at, 0.0)

    def quantile(self, u) -> np.ndarray:
        """The inverse CDF at u: piece by piece for a step density, the end
        pieces extended; for the Gaussian mu + sigma norm_ppf_array(u), on
        the whole array, with the bytes of mu + sigma norm_ppf(p) for each p.
        A step density with a piece <= 0 has none and raises DomainError."""
        u = np.asarray(u, dtype=float)
        if self.breaks is None:
            mu, sigma = self.mu, math.sqrt(self.sigma2)
            return mu + sigma * norm_ppf_array(u)
        breaks, slopes, cdf = self._pieces
        i = np.searchsorted(cdf[1:-1], u, side="left")
        return breaks[i] + slopes[i] * (u - cdf[i])

    @functools.cached_property
    def _pieces(self):
        breaks, values = self.step_representation()
        bad = np.flatnonzero(values <= 0.0)
        if bad.size:
            i = bad[0]
            raise DomainError(f"a step quantile needs positive values; piece {i} on "
                              f"[{breaks[i]}, {breaks[i + 1]}] is {values[i]}")
        cdf = np.concatenate([[0.0], np.cumsum(np.diff(breaks) * values)])
        return breaks, 1.0 / values, cdf

    def step_representation(self):
        """(breaks, values) when the density is piecewise constant, else None."""
        if self.breaks is None:
            return None
        return np.asarray(self.breaks), np.asarray(self.values)


@functools.cache   # one instance, so the quantile's pieces are made once
def uniform01() -> ReferenceDensity:
    """The marginal of the binary chain; its quantile 0 + 1 (u - 0) is u
    bit for bit."""
    return step_density((0.0, 1.0), (1.0,))


@functools.cache   # one instance, so the quantile's pieces are made once
def two_level() -> ReferenceDensity:
    """The marginal of the piecewise chain: 1/2, 3/2, 1/2 on [0, 1]."""
    return step_density((0.0, 0.25, 0.75, 1.0), (0.5, 1.5, 0.5))


def gaussian(mu: float, sigma2: float) -> ReferenceDensity:
    return ReferenceDensity(mu=mu, sigma2=sigma2)


def step_density(breaks, values) -> ReferenceDensity:
    """Arbitrary piecewise-constant function on [breaks[0], breaks[-1]].

    Not required to integrate to one; used as a comparison target, e.g. an
    empirical mean histogram, whose empty bins are zero pieces.
    """
    return ReferenceDensity(breaks=breaks, values=values)


def observations(values) -> np.ndarray:
    """The observations `values` as a float64 array, returned as it is when
    it is one; DomainError naming the shape unless it is 1-D and nonempty."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or not values.size:
        raise DomainError(f"observations must be a nonempty 1-D array, got shape "
                          f"{values.shape}")
    return values


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def ar1_step(x: float, eps: int) -> float:
    """One exact step of the dyadic recursion."""
    return 0.5 * (x + eps)


def _windows16(n: int, burn_in: int, seed: int) -> np.ndarray:
    """The chain's bit stream as 16-bit windows; entry i is the window that
    ends at stream position i + 8, so the register of value k (0-based) is
    entries 56, 40, 24 and 8 past burn_in + k: 56 and 40 are its high 32-bit
    half, 24 and 8 its low half.

    The stream is the 64 bits of the uniform initial state, as innovations at
    times -64 ... -1, followed by the innovations (the top bit of each 32-bit
    half of a raw Philox word, low half first, as `integers(0, 2)` draws
    them); log-doubling shift-or passes on uint8 build the 8-bit windows.
    The initial state is `int(Generator.random() 2^64)`; `random()` is the
    first raw word's top 53 bits times 2^-53, so that is the word with its
    low 11 bits cleared.
    """
    total = burn_in + n
    raw = np.random.Philox(key=seed).random_raw(1 + (total + 1) // 2)
    x0 = raw[0] & np.uint64(0xFFFF_FFFF_FFFF_F800)
    words = raw[1:].astype("<u8", copy=False)
    bits = np.empty(64 + total, dtype=np.uint8)
    bits[:64] = ((x0 >> np.arange(64, dtype=np.uint64)) & np.uint64(1)) << np.uint64(7)
    # innovation j: the top bit of byte 3 of the j-th little-endian 32-bit half
    bits[64:] = words.view(np.uint8)[3::4][:total] & 0x80
    # after the pass with shift s, each entry holds the latest 2s bits
    for s in (1, 2, 4):
        bits[s:] |= bits[:-s] >> s
    w16 = bits[8:].astype(np.uint16)
    w16 <<= 8
    w16 |= bits[:-8]
    return w16


def _chain_registers(spec: ProcessSpec) -> tuple[np.ndarray, np.ndarray]:
    """The uint32 halves hi, lo of the registers of the chain values of `spec`.

    The recursion X_{k+1} = (X_k + eps_{k+1})/2 prepends each innovation bit
    to the binary expansion of the state, so the k-th iterate is the 64-bit
    sliding window over one bit stream (`_windows16`).  Value k has the
    register W[k] 2^32 + W[k-32] of its 32-bit windows W; W[k] joins 16-bit
    windows 56 and 40, W[k-32] windows 24 and 8.
    """
    w16 = _windows16(spec.n, spec.burn_in, spec.seed)
    w32 = (w16[16:].astype(np.uint32) << 16) | w16[:-16]    # entry i: window at i + 24
    return w32[40 + spec.burn_in:], w32[8 + spec.burn_in:8 + spec.burn_in + spec.n]


def ar1_binary_chain(n: int, burn_in: int = DEFAULT_BURN_IN, seed: int = 0) -> np.ndarray:
    """The dyadic AR(1) chain after discarding `burn_in` steps: each value is
    its register times 2^-64, rounded once (`register_values`), so it is
    within 2^-64 of the exact real recursion."""
    return generate(ProcessSpec(kind=ProcessKind.AR1_BINARY, n=n, seed=seed,
                                burn_in=burn_in))


def register_values(marginal: ReferenceDensity, hi: np.ndarray,
                    lo: np.ndarray) -> np.ndarray:
    """The values of a chain with `marginal` at the registers hi 2^32 + lo,
    from their uint32 halves: (hi 2^32 + lo) 2^-64 rounded once to
    nearest-even, as float(register) 2^-64 is, then its quantile."""
    values = lo * 2.0**-32
    values += hi
    values *= 2.0**-32
    return marginal.quantile(values)


def check_bin_count(m: int) -> None:
    """DomainError for m < 1 and CapacityError for m > MAX_BINS, raised
    before any array of m entries is made."""
    if m < 1:
        raise DomainError(f"bin count must be >= 1, got {m}")
    if m > MAX_BINS:
        raise CapacityError(f"bin count {m} exceeds the bound MAX_BINS = {MAX_BINS}")


def bin_index(values, m: int) -> np.ndarray:
    """Bin j of ((j-1)/m, j/m] of each value; 0 for x <= 0 and m + 1 for
    x > 1 or NaN, the two bins an estimate drops."""
    with np.errstate(over="ignore"):
        return np.fmax(np.fmin(np.ceil(values * m), m + 1.0), 0.0).astype(np.intp)


@functools.lru_cache(maxsize=256)
def _prefix_bins(marginal: ReferenceDensity, m: int) -> np.ndarray:
    """Per register prefix, the bin of the chain values with the step density
    `marginal`, or m + 2 where the prefix's registers fall in more than one bin.

    Register -> value -> bin is non-decreasing: `register_values` rounds
    once, each piece breaks[i] + (1/values[i])(u - cdf[i]) of a step quantile
    rounds monotone steps, then the clamped ceil.  Where two pieces meet, both
    give breaks[i] up to rounding: `two_level`'s meet at 1/4 and 3/4 exactly,
    and the tests probe off-lattice breaks.  So a prefix whose end registers
    share a bin has one bin.  The Gaussian quantile is not shown to be
    monotone in floating point, so a marginal that is not a step density is
    refused.  A prefix is the top bits of window 56, so prefix p's lowest
    register has the halves hi = p 2^20 and lo = 0, its highest
    hi = p 2^20 + 2^20 - 1 and lo = 2^32 - 1 (PREFIX_BITS = 12).
    """
    if marginal.step_representation() is None:
        raise DomainError(f"the prefix table needs a step marginal, got {marginal}")
    hi = np.arange(2**PREFIX_BITS, dtype=np.uint32) << (32 - PREFIX_BITS)
    lo = np.zeros_like(hi)
    first = bin_index(register_values(marginal, hi, lo), m)
    last = bin_index(register_values(marginal, hi | (2**(32 - PREFIX_BITS) - 1), ~lo), m)
    table = np.where(first == last, first, m + 2).astype(np.min_scalar_type(m + 2))
    table.flags.writeable = False
    return table


def bin_counts(spec: ProcessSpec, m: int) -> np.ndarray:
    """The counts in bins 1..m of `bin_index` of generate(spec), bit for bit;
    `check_bin_count` refuses m before any value is made.  An lsv trajectory is
    counted block by block, so its values are never held at once; a chain
    with a step marginal from its register prefixes, making only the values
    whose prefix `_prefix_bins` leaves open; any other chain from its values."""
    check_bin_count(m)
    marginal = spec.marginal
    if spec.kind is ProcessKind.LSV_TRAJECTORY:
        counts = np.zeros(m + 2, dtype=np.intp)
        for block in lsv_blocks(spec):
            counts += np.bincount(bin_index(block, m), minlength=m + 2)
    elif marginal.step_representation() is not None:
        w16 = _windows16(spec.n, spec.burn_in, spec.seed)
        top = w16[56 + spec.burn_in:56 + spec.burn_in + spec.n]
        found = np.take(_prefix_bins(marginal, m), top >> (16 - PREFIX_BITS))
        counts = np.bincount(found, minlength=m + 3)
        if counts[m + 2]:
            i = np.flatnonzero(found == m + 2) + (56 + spec.burn_in)
            hi = (w16[i].astype(np.uint32) << 16) | w16[i - 16]
            lo = (w16[i - 32].astype(np.uint32) << 16) | w16[i - 48]
            counts[:m + 2] += np.bincount(bin_index(register_values(marginal, hi, lo), m),
                                          minlength=m + 2)
    else:
        counts = np.bincount(bin_index(generate(spec), m), minlength=m + 2)
    return counts[1:m + 1]


def gaussian_quantile_transform(values, mu: float, sigma2: float) -> np.ndarray:
    """The N(mu, sigma2) quantile of each of the observations `values`,
    which must lie strictly inside (0, 1)."""
    density = gaussian(mu, sigma2)
    values = observations(values)
    if not (0.0 < values.min() and values.max() < 1.0):
        raise DomainError("gaussian transform needs values strictly inside (0, 1)")
    return density.quantile(values)


def piecewise_quantile_transform(values) -> np.ndarray:
    """The `two_level` quantile of each of the observations `values`, which
    must lie in [0, 1]."""
    values = observations(values)
    if not (0.0 <= values.min() and values.max() <= 1.0):
        raise DomainError("piecewise transform needs values in [0, 1]")
    return two_level().quantile(values)


def lsv_step(x: float, gamma: float) -> float:
    """One iteration of the intermittent map.

    Left branch x(1 + 2^gamma x^gamma) on [0, 1/2), right branch 2x - 1 on
    [1/2, 1].  In double precision the left branch stays at or below 1:
    (2x)^gamma < 1 for x < 1/2, so with 1-ulp errors in the two powers the
    factor 1 + 2^gamma x^gamma rounds to at most 2 + 2^-51, and the image of
    the largest such x, 1/2 - 2^-54, to at most the rounded
    (1/2 - 2^-54)(2 + 2^-51) = 1 + 2^-53 - 2^-105, which is 1.  So no image
    leaves [0, 1] and none is clamped.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"map argument must lie in [0, 1], got {x!r}")
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"gamma must lie in (0, 1), got {gamma!r}")
    return x * (1.0 + 2.0**gamma * x**gamma) if x < 0.5 else 2.0 * x - 1.0


def lsv_blocks(spec: ProcessSpec):
    """The n iterates of the intermittent map `spec` that follow its burn-in,
    (T^{b+1}(y), ..., T^{b+n}(y)) from a uniform start y, as float64 blocks of
    at most _BLOCK values, each checked for [0, 1].

    Each block is one list comprehension over Python floats with the same
    branch arithmetic as lsv_step, whose images stay in [0, 1] in double
    precision (the bound is in lsv_step), so no iterate is clamped, and one
    that left [0, 1] would fail its block's check; iterates escape the
    neutral fixed point in finitely many steps, so plain double precision is
    used throughout.  The kept iterates become the block in one
    `struct.pack`, which copies each C double as it is, and their list is
    dropped before the next block is made.  Blocks cut steps b + 1, ..., b + n
    at multiples of _BLOCK counted from the start, so the first and the last
    may be short.
    """
    if spec.kind is not ProcessKind.LSV_TRAJECTORY:
        raise DomainError(f"{spec.kind.value} is not an lsv trajectory")
    gamma, burn_in = spec.gamma, spec.burn_in
    x = _rng(spec.seed).random()
    scale = 2.0**gamma
    total = burn_in + spec.n
    for start in range(0, total, _BLOCK):
        kept = [(x := x * (1.0 + scale * x**gamma) if x < 0.5 else 2.0 * x - 1.0)
                for _ in itertools.repeat(None, min(_BLOCK, total - start))]
        if start < burn_in:
            kept = kept[burn_in - start:]
        if kept:
            block = np.frombuffer(struct.pack(f"{len(kept)}d", *kept))
            del kept
            # one min/max pair over the block; a NaN fails the comparison
            if not (0.0 <= block.min() and block.max() <= 1.0):
                raise DomainError("lsv samples live in [0, 1]")
            yield block


def lsv_trajectory(n: int, gamma: float, burn_in: int = DEFAULT_BURN_IN,
                   seed: int = 0) -> np.ndarray:
    """Iterate the intermittent map from a uniform start: the n iterates of
    `lsv_blocks` after the burn-in, in one array."""
    return generate(ProcessSpec(kind=ProcessKind.LSV_TRAJECTORY, n=n, seed=seed,
                                burn_in=burn_in, gamma=gamma))


def generate(spec: ProcessSpec) -> np.ndarray:
    """The n values of `spec`, as a read-only float64 array."""
    if spec.kind is ProcessKind.LSV_TRAJECTORY:
        values = np.empty(spec.n)
        filled = 0
        for block in lsv_blocks(spec):
            values[filled:filled + len(block)] = block
            filled += len(block)
    elif spec.kind is ProcessKind.AR1_GAUSSIAN:
        u = register_values(uniform01(), *_chain_registers(spec))
        # registers 0 and >= 2^64 - 2^10 round to 0.0 and 1.0, where the
        # quantile is infinite; every other chain value is left unchanged
        inside = np.clip(u, 2.0**-64, 1.0 - 2.0**-53)
        values = gaussian_quantile_transform(inside, spec.mu, spec.sigma2)
    else:
        values = register_values(spec.marginal, *_chain_registers(spec))
    values.flags.writeable = False
    return values
