"""Mean shift denoising as a distribution operator.

Kernel density estimation with analytic gradients, mean shift steps in
empirical / population / generalized form, iterated denoising sweeps, and
the statistical applications built on top of them (clustering enhancement,
two-sample testing, anomaly scoring) plus a Monte Carlo lab that checks the
advertised concentration properties at desk scale.
"""

__version__ = "0.1.0"

from .density import (
    DensityModel,
    PointCloud,
    density_at,
    fit,
    gradient_at,
    select_bandwidth_normal_scale,
    select_bandwidth_scv,
    standardize,
)
from .shift import (
    AnalyticDensity,
    ShiftOperator,
    ShiftTrace,
    ZeroDensityError,
    denoise,
    empirical_step_weighted_mean,
    shift_step,
    shift_until_converged,
)
from .clustering import LabelSet, ari, hierarchical, kmeans, spectral
from .twosample import (
    PowerCurve,
    TestResult,
    energy_statistic,
    mmd2_biased,
    msd_pipeline,
    permutation_test,
    power_experiment_mixture_proportion,
    power_experiment_uniform_noise,
)
from .anomaly import AnomalyReport, anomaly_scores, top_k

__all__ = [
    "__version__",
    "PointCloud",
    "DensityModel",
    "fit",
    "density_at",
    "gradient_at",
    "select_bandwidth_normal_scale",
    "select_bandwidth_scv",
    "standardize",
    "AnalyticDensity",
    "ShiftOperator",
    "ShiftTrace",
    "ZeroDensityError",
    "shift_step",
    "empirical_step_weighted_mean",
    "shift_until_converged",
    "denoise",
    "LabelSet",
    "kmeans",
    "spectral",
    "hierarchical",
    "ari",
    "TestResult",
    "PowerCurve",
    "energy_statistic",
    "mmd2_biased",
    "permutation_test",
    "msd_pipeline",
    "power_experiment_uniform_noise",
    "power_experiment_mixture_proportion",
    "AnomalyReport",
    "anomaly_scores",
    "top_k",
]
