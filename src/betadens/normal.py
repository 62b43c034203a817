"""Standard normal distribution functions.

The quantile is a rational approximation (Acklam's piecewise fit) polished
with two Newton iterations on the log-CDF.  The log-space iteration keeps the
correction finite far in the tails, where the plain Newton update
(Phi(x) - p) / phi(x) under- and overflows.  Absolute error is below 1e-12 on
(1e-300, 1 - 1e-16), comfortably inside the 1e-9 budget this package
guarantees.
"""

import math

from .errors import DomainError

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

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


def norm_cdf(x: float) -> float:
    """Phi(x) via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x - _LOG_SQRT_2PI)


def _acklam(p: float) -> float:
    # valid for p in (0, 0.5]; callers reduce by symmetry
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        return ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
                / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    q = p - 0.5
    r = q * q
    return ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
            / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))


def norm_ppf(p: float) -> float:
    """Inverse of the standard normal CDF.

    Raises DomainError unless 0 < p < 1.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"normal quantile needs p in (0, 1), got {p!r}")
    if p == 0.5:
        return 0.0
    if p > 0.5:
        # 1 - p is exact for p in [0.5, 1] (Sterbenz), so symmetry is lossless
        return -norm_ppf(1.0 - p)

    x = _acklam(p)
    log_p = math.log(p)
    for _ in range(2):
        # Newton on g(x) = log Phi(x) - log p; the step is
        # g(x) * Phi(x)/phi(x), assembled in log space to avoid overflow.
        phi_cdf = norm_cdf(x)
        if phi_cdf <= 0.0:
            break
        log_cdf = math.log(phi_cdf)
        ratio = math.exp(log_cdf + 0.5 * x * x + _LOG_SQRT_2PI)
        x -= (log_cdf - log_p) * ratio
    return x
