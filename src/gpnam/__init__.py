"""Additive Gaussian-process models for tabular data via random Fourier
features: convex training (direct ridge regression, SGD logistic regression),
per-feature shape functions, and a reproducible CLI."""

from ._kernels import BACKEND
from .data import Dataset, kernel_widths, load_csv, split, standardize, synth_additive
from .metrics import auc, error_rate, mse, rmse
from .model import (GPNAMModel, ShapeTable, load, param_count, predict,
                    predict_raw, save, shape_function)
from .rff import (FeatureBasis, approx_kernel, build_basis, feature_map,
                  mc_verify_integral_identity, pair_feature_map, rbf_kernel)
from .solvers import (FitConfig, SolverReport, StackedFeatures,
                      conjugate_gradients, fit_logistic_sgd, solve_ridge_cg,
                      stack_features)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "Dataset", "kernel_widths", "load_csv", "split", "standardize", "synth_additive",
    "auc", "error_rate", "mse", "rmse",
    "GPNAMModel", "ShapeTable", "load", "param_count", "predict", "predict_raw",
    "save", "shape_function",
    "FeatureBasis", "approx_kernel", "build_basis", "feature_map",
    "mc_verify_integral_identity", "pair_feature_map", "rbf_kernel",
    "FitConfig", "SolverReport", "StackedFeatures", "conjugate_gradients",
    "fit_logistic_sgd", "solve_ridge_cg", "stack_features",
    "__version__",
]
