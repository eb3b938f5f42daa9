"""Hot numeric kernels: RFF featurization and the Gram-operator matvec.

There is one backend, plain numpy: featurization fills each feature's
S-column cosine block with in-place array operations. Featurization is
elementwise, so every output element depends only on its own input cell and
basis entry, never on n or on how rows are grouped into calls.

``gram_apply`` (two BLAS GEMVs) has no caller in the package: the ridge
solver forms the Gram matrix once instead of applying it per iteration. It
stays only because the benchmark's span tracer, ``perfbench/spans.py``,
wraps it by name.
"""

import math

import numpy as np

#: Name of the compute backend, echoed into every JSON output.
BACKEND = "numpy"


def featurize(X, z, c, widths, out=None):
    """Stacked design matrix: row i is [1, phi(X[i,0]), ..., phi(X[i,d-1])].

    phi(x) = sqrt(2/S) * cos(z * x / width + c) per feature, so the output has
    1 + S*d columns with the constant-1 bias first. ``out``, if given, is an
    n x (1 + S*d) array (a column slice of a wider matrix is fine) that
    receives the result instead of a new allocation.
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
    n, d = X.shape
    S = z.shape[0]
    if out is None:
        out = np.empty((n, 1 + S * d))
    elif out.shape != (n, 1 + S * d):
        raise ValueError(f"out must have shape {(n, 1 + S * d)}, got {out.shape}")
    scale = math.sqrt(2.0 / S)
    out[:, 0] = 1.0
    for j in range(d):
        block = out[:, 1 + j * S:1 + (j + 1) * S]
        np.multiply.outer(X[:, j] / widths[j], z, out=block)
        block += c
        np.cos(block, out=block)
        block *= scale
    return out


def gram_apply(phi, p):
    """Apply the (unregularized) Gram operator: phi.T @ (phi @ p)."""
    phi = np.asarray(phi, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    return phi.T @ (phi @ p)
