"""Density estimation lab for beta-dependent stationary sequences."""

from .basis import PolyBasis, build_poly_basis
from .depcoeff import (b0_exact, b0_staircase_scan, beta1_estimate,
                       beta2_pair_lower_bound, conditional_atoms)
from .errors import (BetadensError, CapacityError, ConfigError, DegenerateSample,
                     DomainError, EmptyEstimate, TrialError, UnsupportedDegree)
from .estimators import (DensityEstimate, KernelDensity, PiecewisePolyDensity,
                         estimate_mass, histogram_estimate, projection_estimate)
from .kernels import (EPANECHNIKOV, KERNELS, RECTANGULAR, TRIANGULAR, KernelSpec,
                      kernel_by_name, silverman_bandwidth)
from .normal import norm_cdf, norm_ppf
from .processes import (DEFAULT_BURN_IN, ProcessKind, ProcessSpec, ReferenceDensity,
                        ar1_binary_chain, ar1_step, gaussian, gaussian_quantile_transform,
                        generate, lsv_step, lsv_trajectory, piecewise_quantile_transform,
                        step_density, two_level, uniform01)
from .risk import (EstimatorSpec, HistogramSpec, KernelEstimatorSpec, RiskReport,
                   binning_bias, build_estimate, envelope_check, loglog_slope,
                   lp_distance, monte_carlo_risk, risk_rows, row_seed)
from .schedules import (RateRegime, equivalent_density, histogram_bins_bv,
                        histogram_bins_lsv, kernel_bandwidth, lsv_rate_exponent)

__version__ = "0.1.0"
