"""Additive Gaussian-process models for tabular data via random Fourier
features: convex training (direct ridge regression, Newton logistic regression),
per-feature shape functions, and a reproducible CLI."""

from ._kernels import BACKEND

__version__ = "0.1.0"

__all__ = ["BACKEND", "__version__"]
