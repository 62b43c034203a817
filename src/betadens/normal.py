"""Standard normal distribution functions.

The quantile is a rational approximation (Acklam's piecewise fit) polished
with two Newton iterations on the log-CDF.  The log-space iteration keeps the
correction finite far in the tails, where the plain Newton update
(Phi(x) - p) / phi(x) under- and overflows.  Absolute error is below 1e-12 on
(1e-300, 1 - 1e-16), comfortably inside the 1e-9 budget this package
guarantees.

`norm_ppf_array` takes whole arrays.  numpy has no erfc, so `math.erfc`,
`math.log` and `math.exp` are applied through `np.frompyfunc`, and every other
step is numpy's + - * / and sqrt, which round as Python's float operations do.
So each entry gets the bytes of the same expression on one Python float, and
`norm_ppf` is its one-element case.
"""

import math

import numpy as np

from .errors import DomainError

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT_2 = math.sqrt(2.0)

# Acklam's coefficients for the central and tail rational approximations.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425

_ERFC = np.frompyfunc(math.erfc, 1, 1)
_LOG = np.frompyfunc(math.log, 1, 1)
_EXP = np.frompyfunc(math.exp, 1, 1)

_CHUNK = 1024  # entries per pass of norm_ppf_array, which bounds its temporaries


def _each(func, x: np.ndarray) -> np.ndarray:
    # frompyfunc returns an object array of boxed floats; it is made float64
    # at once, so it does not outlive the call
    return func(x).astype(float)


def norm_cdf(x: float) -> float:
    """Phi(x) via the complementary error function."""
    return 0.5 * math.erfc(-x / _SQRT_2)


def norm_ppf_array(p) -> np.ndarray:
    """Inverse of the standard normal CDF at each entry of p, as a float64
    array of p's shape; each entry has the bytes that the same operations
    give on one Python float.

    Raises DomainError unless every entry lies in (0, 1); a NaN fails too,
    and nothing is computed before the check.  The entries are computed
    _CHUNK at a time, each independently of the others.
    """
    p = np.asarray(p, dtype=float)
    inside = (0.0 < p) & (p < 1.0)
    if not inside.all():
        raise DomainError("normal quantile needs p in (0, 1), got "
                          f"{float(p[~inside].flat[0])!r}")
    flat = p.ravel()
    out = np.empty_like(flat)
    for i in range(0, flat.size, _CHUNK):
        out[i:i + _CHUNK] = _ppf(flat[i:i + _CHUNK])
    return out.reshape(p.shape)


def _ppf(p: np.ndarray) -> np.ndarray:
    upper = p > 0.5
    # 1 - p is exact for p in [0.5, 1] (Sterbenz), so symmetry is lossless
    q = np.where(upper, 1.0 - p, p)
    log_q = _each(_LOG, q)

    # Acklam's fit on (0, 0.5], the tail and the central branch by mask
    x = np.empty_like(q)
    tail = q < _P_LOW
    t = np.sqrt(-2.0 * log_q[tail])
    x[tail] = ((((((_C[0] * t + _C[1]) * t + _C[2]) * t + _C[3]) * t + _C[4]) * t + _C[5])
               / ((((_D[0] * t + _D[1]) * t + _D[2]) * t + _D[3]) * t + 1.0))
    c = q[~tail] - 0.5
    r = c * c
    x[~tail] = ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * c
                / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))

    # the median gets +0.0 from the fit, and both steps keep it: its log-CDF
    # equals log p, so each correction is 0.0
    live = np.arange(x.size)
    for _ in range(2):
        # Newton on g(x) = log Phi(x) - log p; the step is
        # g(x) * Phi(x)/phi(x), assembled in log space to avoid overflow.
        # An entry whose CDF is 0 takes no further step.
        xl = x[live]
        phi_cdf = 0.5 * _each(_ERFC, -xl / _SQRT_2)
        going = ~(phi_cdf <= 0.0)
        live, xl, phi_cdf = live[going], xl[going], phi_cdf[going]
        log_cdf = _each(_LOG, phi_cdf)
        ratio = _each(_EXP, log_cdf + 0.5 * xl * xl + _LOG_SQRT_2PI)
        x[live] = xl - (log_cdf - log_q[live]) * ratio
    return np.where(upper, -x, x)


def norm_ppf(p: float) -> float:
    """Inverse of the standard normal CDF: the one-element case of
    `norm_ppf_array`.

    Raises DomainError unless 0 < p < 1.
    """
    return float(norm_ppf_array(p))
