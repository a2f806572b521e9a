"""``repro.expdesign`` — 2^k·r factorial designs and their analysis.

Provides the paper's §4.1 methodology: full factorial designs,
allocation of variation (what the paper presents as "principal
component analysis"), true PCA as an independent cross-check, and
t-based confidence intervals on simulation output.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "Factor": "factorial",
    "FactorialDesign": "factorial",
    "FractionalFactorialDesign": "fractional",
    "batch_means": "batchmeans",
    "BatchMeansResult": "batchmeans",
    "lag1_autocorrelation": "batchmeans",
    "allocate_variation": "effects",
    "VariationResult": "effects",
    "EffectShare": "effects",
    "pca": "pca",
    "PCAResult": "pca",
    "mean_confidence_interval": "confidence",
    "MeanCI": "confidence",
    "repetitions_needed": "confidence",
})
