"""The benchmark's workload names and the shipped configs each one parses.

Kept apart from workloads.py, which imports betadens, so that run.py can
check its arguments before it has found the program.
"""

CONFIGS = {
    "histogram_sweep": ("table_risk_sweep.cfg",),
    "kernel_risk": ("figure_kernel_gaussian_n1000.cfg",),
    "figures": (
        "figure_kernel_gaussian_n1000.cfg",
        "figure_kernel_gaussian_n5000.cfg",
        "figure_histogram_two_level_n1000.cfg",
        "figure_histogram_two_level_n5000.cfg",
        "figure_lsv_gamma025_n60000.cfg",
        "figure_lsv_gamma05_n40000.cfg",
        "figure_lsv_gamma075_n10000000.cfg",
        "coefficients.cfg",
    ),
}

NAMES = tuple(CONFIGS)
