"""Differentially private sampling for finite-domain and Gaussian distributions.

Samplers release approximate fresh draws from the data-generating
distribution under pure DP, approximate DP, or zCDP; companion modules
provide exact divergence calculators, sample-complexity calculators, and an
audit suite that measures the realized privacy loss against the claimed
budget.
"""

__version__ = "0.11.0"

from .core import (
    CategoricalDist,
    KaryDataset,
    PrivacyBudget,
    RandomSource,
    VectorDataset,
    empirical_dist,
    validate_categorical,
)

__all__ = [
    "CategoricalDist",
    "KaryDataset",
    "PrivacyBudget",
    "RandomSource",
    "VectorDataset",
    "empirical_dist",
    "validate_categorical",
    "__version__",
]
