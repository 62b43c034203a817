"""Generators for the dependent processes studied by this lab.

All processes are strictly stationary on [0, 1] (or transforms thereof):

* the dyadic AR(1) chain X_{k+1} = (X_k + eps_{k+1}) / 2 with fair-coin
  innovations and uniform initial state,
* its Gaussian and piecewise two-level quantile transforms,
* trajectories of the intermittent interval map with parameter gamma.

Randomness comes from a counter-based generator (Philox) keyed by the seed,
so identical specs reproduce bit-identical samples on any platform and
Monte Carlo trials can derive independent streams as seed XOR trial index.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .normal import norm_ppf

DEFAULT_BURN_IN = 1000
_BLOCK = 8192  # values per block of piecewise_quantile_transform


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
        if self.n < 1:
            raise DomainError(f"sample length must be >= 1, got {self.n}")
        if self.burn_in < 0:
            raise DomainError(f"burn-in must be >= 0, got {self.burn_in}")
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if (self.kind is ProcessKind.LSV_TRAJECTORY) != (self.gamma is not None):
            raise DomainError("gamma is required for lsv and forbidden otherwise")
        if self.gamma is not None and not 0.0 < self.gamma < 1.0:
            raise DomainError(f"gamma must lie in (0, 1), got {self.gamma}")
        gaussian = self.kind is ProcessKind.AR1_GAUSSIAN
        if gaussian != (self.mu is not None and self.sigma2 is not None):
            raise DomainError("mu/sigma2 are required exactly for the gaussian transform")
        if gaussian and not (math.isfinite(self.mu) and 0.0 < self.sigma2 < math.inf):
            raise DomainError("need a finite mu and sigma2 in (0, inf), "
                              f"got {self.mu}, {self.sigma2}")


@dataclass(frozen=True, eq=False)
class Sample:
    """Immutable realization (Y_1, ..., Y_n) of a process."""

    values: np.ndarray
    spec: ProcessSpec

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if len(values) != self.spec.n:
            raise DomainError(
                f"sample has {len(values)} values but spec.n = {self.spec.n}")
        if self.spec.kind in (ProcessKind.AR1_BINARY, ProcessKind.LSV_TRAJECTORY):
            if len(values) and (values.min() < 0.0 or values.max() > 1.0):
                raise DomainError(f"{self.spec.kind.value} samples live in [0, 1]")

    def __len__(self) -> int:
        return len(self.values)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def ar1_step(x: float, eps: int) -> float:
    """One exact step of the dyadic recursion."""
    return 0.5 * (x + eps)


def _register_value(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """(hi 2^32 + lo) 2^-64 rounded once to nearest-even, as float(register) 2^-64 is."""
    out = lo * 2.0**-32
    out += hi
    return np.multiply(out, 2.0**-32, out=out)


def ar1_binary_chain(n: int, burn_in: int = DEFAULT_BURN_IN, seed: int = 0) -> Sample:
    """Sample the dyadic AR(1) chain after discarding `burn_in` steps.

    The recursion X_{k+1} = (X_k + eps_{k+1})/2 prepends each innovation bit
    to the binary expansion of the state, so the k-th iterate is the 64-bit
    sliding window over one bit stream: the 64 bits of the uniform initial
    state, as innovations at times -64 ... -1, followed by the innovations
    (the top bit of each 32-bit half of a raw Philox word, low half first,
    as `integers(0, 2)` draws them).  Log-doubling shift-or passes on uint8,
    uint16 and uint32 build the 32-bit windows W; value k is the register
    W[k] 2^32 + W[k-32] times 2^-64, rounded once (`_register_value`), so it
    is within 2^-64 of the exact real recursion.
    """
    spec = ProcessSpec(kind=ProcessKind.AR1_BINARY, n=n, seed=seed, burn_in=burn_in)
    rng = _rng(seed)
    x0 = np.uint64(int(rng.random() * 2.0**64))
    total = burn_in + n
    words = rng.bit_generator.random_raw((total + 1) // 2).astype("<u8", copy=False)
    bits = np.empty(64 + total, dtype=np.uint8)
    bits[:64] = ((x0 >> np.arange(64, dtype=np.uint64)) & np.uint64(1)) << np.uint64(7)
    # innovation j: the top bit of byte 3 of the j-th little-endian 32-bit half
    bits[64:] = words.view(np.uint8)[3::4][:total] & 0x80
    # after the pass with shift s, each entry holds the latest 2s bits
    for s in (1, 2, 4):
        bits[s:] |= bits[:-s] >> s
    w16 = bits[8:].astype(np.uint16)    # entry i: window at position i + 8
    w16 <<= 8
    w16 |= bits[:-8]
    w32 = w16[16:].astype(np.uint32)    # entry i: window at position i + 24
    w32 <<= 16
    w32 |= w16[:-16]
    values = _register_value(w32[40 + burn_in:], w32[8 + burn_in:8 + burn_in + n])
    return Sample(values=values, spec=spec)


def gaussian_quantile_transform(sample: Sample, mu: float, sigma2: float) -> Sample:
    """Map a uniform-marginal sample through the N(mu, sigma2) quantile."""
    spec = replace(sample.spec, kind=ProcessKind.AR1_GAUSSIAN, mu=mu, sigma2=sigma2)
    values = sample.values
    if np.any(values <= 0.0) or np.any(values >= 1.0):
        raise DomainError("gaussian transform needs values strictly inside (0, 1)")
    sigma = math.sqrt(sigma2)
    out = np.fromiter((mu + sigma * norm_ppf(u) for u in values),
                      dtype=float, count=len(values))
    return Sample(values=out, spec=spec)


def piecewise_quantile(u):
    """Closed-form quantile of the two-level density on [0, 1].

    The density is 1/2 on [0, 1/4] and (3/4, 1], 3/2 on (1/4, 3/4]; its CDF
    inverts branch by branch.
    """
    u = np.asarray(u, dtype=float)
    return np.where(u <= 0.125, 2.0 * u,
                    np.where(u <= 0.875, 0.25 + (2.0 / 3.0) * (u - 0.125),
                             0.75 + 2.0 * (u - 0.875)))


def piecewise_quantile_transform(sample: Sample) -> Sample:
    """piecewise_quantile block by block, so that its temporaries stay in cache."""
    values = sample.values
    out = np.empty_like(values)
    for start in range(0, len(values), _BLOCK):
        block = values[start:start + _BLOCK]
        if np.any(block < 0.0) or np.any(block > 1.0):
            raise DomainError("piecewise transform needs values in [0, 1]")
        out[start:start + _BLOCK] = piecewise_quantile(block)
    spec = replace(sample.spec, kind=ProcessKind.AR1_PIECEWISE)
    return Sample(values=out, spec=spec)


def lsv_step(x: float, gamma: float) -> float:
    """One iteration of the intermittent map.

    Left branch x(1 + 2^gamma x^gamma) on [0, 1/2), right branch 2x - 1 on
    [1/2, 1].  The left branch may exceed 1 by a rounding ulp near 1/2; the
    result is clamped only against that.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"map argument must lie in [0, 1], got {x!r}")
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"gamma must lie in (0, 1), got {gamma!r}")
    if x < 0.5:
        t = x * (1.0 + 2.0**gamma * x**gamma)
    else:
        t = 2.0 * x - 1.0
    if t > 1.0:
        if t > 1.0 + 4.0 * np.finfo(float).eps:
            raise DomainError(f"map image {t!r} exceeds [0, 1] beyond rounding")
        t = 1.0
    return t


def lsv_trajectory(n: int, gamma: float, burn_in: int = DEFAULT_BURN_IN,
                   seed: int = 0) -> Sample:
    """Iterate the intermittent map from a uniform start.

    Returns the n iterates following the burn-in, i.e. (T^{b+1}(y), ...,
    T^{b+n}(y)).  The loop inlines the same branch arithmetic as lsv_step;
    iterates escape the neutral fixed point in finitely many steps, so plain
    double precision is used throughout.
    """
    spec = ProcessSpec(kind=ProcessKind.LSV_TRAJECTORY, n=n, seed=seed,
                       burn_in=burn_in, gamma=gamma)
    rng = _rng(seed)
    x = rng.random()
    scale = 2.0**gamma
    out = np.empty(n)
    for k in range(burn_in):
        x = x * (1.0 + scale * x**gamma) if x < 0.5 else 2.0 * x - 1.0
        if x > 1.0:
            x = 1.0
    for k in range(n):
        x = x * (1.0 + scale * x**gamma) if x < 0.5 else 2.0 * x - 1.0
        if x > 1.0:
            x = 1.0
        out[k] = x
    return Sample(values=out, spec=spec)


def generate(spec: ProcessSpec) -> Sample:
    """Realize any ProcessSpec."""
    if spec.kind is ProcessKind.AR1_BINARY:
        return ar1_binary_chain(spec.n, spec.burn_in, spec.seed)
    if spec.kind is ProcessKind.AR1_GAUSSIAN:
        base = ar1_binary_chain(spec.n, spec.burn_in, spec.seed)
        # registers 0 and >= 2^64 - 2^10 round to 0.0 and 1.0, where the
        # quantile is infinite; every other chain value is left unchanged
        inside = np.clip(base.values, 2.0**-64, 1.0 - 2.0**-53)
        return gaussian_quantile_transform(Sample(values=inside, spec=base.spec),
                                           spec.mu, spec.sigma2)
    if spec.kind is ProcessKind.AR1_PIECEWISE:
        base = ar1_binary_chain(spec.n, spec.burn_in, spec.seed)
        return piecewise_quantile_transform(base)
    if spec.kind is ProcessKind.LSV_TRAJECTORY:
        return lsv_trajectory(spec.n, spec.gamma, spec.burn_in, spec.seed)
    raise DomainError(f"unknown process kind {spec.kind!r}")
