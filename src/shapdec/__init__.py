"""Conditional SHAP values split into interventional and dependent parts."""

from .core import (
    Decomposition,
    FeatureMatrix,
    RngStream,
)
from .distributions import (
    CopulaSampler,
    DiscreteJoint,
    DiscreteSampler,
    GaussianModel,
    GaussianSampler,
    MarginalSampler,
    fit_copula,
    fit_gaussian,
)
from .engine import (
    decompose,
    exact_decomposition,
    shapley_residuals,
)
from .models import (
    ExternalModel,
    ForestModel,
    LinearModel,
    LogOddsModel,
    fit_forest,
    fit_ols,
    model_from_json,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
