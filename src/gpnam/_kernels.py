"""Hot numeric kernels: RFF featurization and the Gram-operator matvec.

Featurization has two interchangeable backends: a numba ``@njit`` version and
a pure-numpy version. Selection happens once at import time from the
``GPNAM_BACKEND`` environment variable ("numba" or "numpy"); when unset, numba
is used if it imports. ``benchmarks/bench_backends.py`` times both. Both are
deterministic: each output element is written exactly once.

The Gram matvec is plain numpy (two BLAS GEMVs); the ridge solver forms the
Gram matrix once instead of applying it per iteration.
"""

import math
import os
import warnings

import numpy as np


def _featurize_numpy(X, z, c, widths):
    n, d = X.shape
    S = z.shape[0]
    scale = math.sqrt(2.0 / S)
    phi = np.empty((n, 1 + S * d))
    phi[:, 0] = 1.0
    for j in range(d):
        block = np.cos(np.outer(X[:, j] / widths[j], z) + c)
        block *= scale
        phi[:, 1 + j * S:1 + (j + 1) * S] = block
    return phi


_HAVE_NUMBA = False
try:
    import numba

    @numba.njit(cache=True, parallel=True)
    def _featurize_numba(X, z, c, widths):  # pragma: no cover - exercised via dispatch
        n, d = X.shape
        S = z.shape[0]
        scale = math.sqrt(2.0 / S)
        phi = np.empty((n, 1 + S * d))
        for i in numba.prange(n):
            phi[i, 0] = 1.0
            for j in range(d):
                xv = X[i, j] / widths[j]
                base = 1 + j * S
                for s in range(S):
                    phi[i, base + s] = scale * math.cos(z[s] * xv + c[s])
        return phi

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    pass


def _resolve_backend():
    choice = os.environ.get("GPNAM_BACKEND", "").strip().lower()
    if choice not in ("", "numba", "numpy"):
        warnings.warn(f"unknown GPNAM_BACKEND={choice!r}; using automatic selection")
        choice = ""
    if choice == "numba" and not _HAVE_NUMBA:
        warnings.warn("GPNAM_BACKEND=numba requested but numba is unavailable; using numpy")
        choice = "numpy"
    if not choice:
        choice = "numba" if _HAVE_NUMBA else "numpy"
    return choice


BACKEND = _resolve_backend()

_FEATURIZE = _featurize_numba if BACKEND == "numba" else _featurize_numpy


def featurize(X, z, c, widths):
    """Stacked design matrix: row i is [1, phi(X[i,0]), ..., phi(X[i,d-1])].

    phi(x) = sqrt(2/S) * cos(z * x / width + c) per feature, so the output has
    1 + S*d columns with the constant-1 bias first.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    z = np.ascontiguousarray(z, dtype=np.float64)
    c = np.ascontiguousarray(c, dtype=np.float64)
    widths = np.ascontiguousarray(widths, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be a 2-D matrix")
    if z.shape != c.shape:
        raise ValueError("z and c must have equal length")
    if widths.shape[0] != X.shape[1]:
        raise ValueError("one kernel width per feature column is required")
    return _FEATURIZE(X, z, c, widths)


def gram_apply(phi, p):
    """Apply the (unregularized) Gram operator: phi.T @ (phi @ p)."""
    phi = np.asarray(phi, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    return phi.T @ (phi @ p)
