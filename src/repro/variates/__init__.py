"""``repro.variates`` — distributions, random streams, fitting, GoF tests.

The workload-characterization substrate of the reproduction: the
distribution families of Table 2, Law & Kelton MLE fitting, the
goodness-of-fit machinery behind Figure 8, and reproducible named
random streams used by every simulation entity.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "Distribution": "distributions",
    "Deterministic": "distributions",
    "Uniform": "distributions",
    "Exponential": "distributions",
    "Erlang": "distributions",
    "Lognormal": "distributions",
    "Weibull": "distributions",
    "Normal": "distributions",
    "Hyperexponential": "distributions",
    "Pareto": "distributions",
    "Empirical": "distributions",
    "StreamFactory": "streams",
    "VariateStream": "streams",
    "FitResult": "fitting",
    "fit_exponential": "fitting",
    "fit_lognormal": "fitting",
    "fit_weibull": "fitting",
    "fit_normal": "fitting",
    "fit_best": "fitting",
    "CANDIDATE_FAMILIES": "fitting",
    "ks_statistic": "goodness",
    "ks_test": "goodness",
    "anderson_darling": "goodness",
    "chi_square_test": "goodness",
    "ChiSquareResult": "goodness",
    "qq_series": "goodness",
    "QQSeries": "goodness",
    "histogram_series": "goodness",
    "HistogramSeries": "goodness",
})
