"""Random Fourier feature basis for the RBF kernel.

A basis is the frozen sample set {(z_s, c_s)} shared by every per-feature map,
plus S two-dimensional frequencies for the pairwise interaction maps.
Inner products of the resulting cosine features approximate
exp(-(x - x')^2 / (2 b^2)); the approximation error vanishes as the basis size
S grows. Frequencies come either from seeded Monte Carlo draws or from a
deterministic quantile grid of the standard normal, whose quantiles are
``statistics.NormalDist().inv_cdf``.

All randomness flows through ``numpy.random.default_rng`` (PCG64), so a basis
is bit-reproducible from its (S, mode, seed) metadata on any platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import _kernels

TWO_PI = 2.0 * math.pi

MODE_MONTE_CARLO = "monte_carlo"
MODE_GRID = "grid"
MODES = (MODE_MONTE_CARLO, MODE_GRID)


@dataclass(frozen=True)
class FeatureBasis:
    """Frozen RFF sample set plus the metadata needed to rebuild it.

    Attributes
    ----------
    S : int
        Basis size (number of cosine features per input feature).
    z : ndarray, shape (S,)
        Frequency samples on the standard-normal scale.
    c : ndarray, shape (S,)
        Phase offsets in [0, 2*pi).
    mode : str
        "monte_carlo" or "grid".
    seed : int
        Seed of the generator that produced the samples.
    pair_z : ndarray, shape (S, 2)
        Two-dimensional frequencies for pairwise interaction maps, which
        share the phases c.
    """

    S: int
    z: np.ndarray
    c: np.ndarray
    mode: str
    seed: int
    pair_z: np.ndarray


def inv_std_normal_cdf(p):
    """Quantile function of N(0, 1) for p in (0, 1), per element.

    Each value is ``statistics.NormalDist().inv_cdf`` (Wichura's algorithm
    AS 241), within 6e-16 relative of the exact quantile.
    """
    p = np.asarray(p, dtype=np.float64)
    if not np.all(np.isfinite(p)) or np.any((p <= 0.0) | (p >= 1.0)):
        raise ValueError("probabilities must lie strictly inside (0, 1)")
    x = np.vectorize(NormalDist().inv_cdf, otypes=[np.float64])(p)
    return x if x.ndim else float(x)


def build_basis(S, mode=MODE_GRID, seed=0):
    """Construct a shared RFF basis.

    In monte_carlo mode, z ~ N(0,1) i.i.d., then c ~ Uniform[0, 2*pi), then
    the (S, 2) pair frequencies ~ N(0,1) i.i.d., drawn in that order from the
    seeded generator.

    In grid mode, z is the standard-normal quantile grid
    Phi^-1((s - 0.5) / S) for s = 1..S (:func:`inv_std_normal_cdf`). Phases
    are assigned antithetically: the positive frequencies take a seeded
    shuffle of an equally spaced midpoint grid on [0, 2*pi) and each
    mirrored frequency -z carries the reflected phase pi/2 - c, so every
    (z, -z) pair contributes cos(u)^2 + sin(u)^2 = 1 and the squared feature
    map sums to exactly S/2 at any input. An odd S places z = 0 in the middle
    with phase pi/4 (cos^2(pi/4) = 1/2, the half-weight the lone node needs);
    S = 1 keeps the single-cell midpoint phase pi. After the phase
    permutation, S//2 two-dimensional standard-normal rows give the positive
    pair frequencies; they are mirrored the same way, with a zero row in the
    middle for an odd S.

    Pair frequencies are drawn last, so z and c do not depend on them.
    """
    if not isinstance(S, (int, np.integer)) or isinstance(S, bool):
        raise ValueError("S must be an integer")
    if S < 1:
        raise ValueError("S must be >= 1")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    S = int(S)
    seed = int(seed)
    rng = np.random.default_rng(seed)
    if mode == MODE_MONTE_CARLO:
        z = rng.standard_normal(S)
        c = rng.uniform(0.0, TWO_PI, S)
        pair_z = rng.standard_normal((S, 2))
    else:
        probs = (np.arange(1, S + 1) - 0.5) / S
        m = S // 2
        z = np.empty(S)
        c = np.empty(S)
        if m > 0:
            z_pos = np.atleast_1d(inv_std_normal_cdf(probs[S - m:]))
            z[S - m:] = z_pos
            z[:m] = -z_pos[::-1]
            gamma = TWO_PI * (np.arange(1, m + 1) - 0.5) / m
            gamma = gamma[rng.permutation(m)]
            c[S - m:] = gamma
            c[:m] = np.mod(0.5 * math.pi - gamma, TWO_PI)[::-1]
        if S % 2:
            z[m] = 0.0
            c[m] = math.pi if S == 1 else 0.25 * math.pi
        pair_z = np.zeros((S, 2))
        if m > 0:
            pz_pos = rng.standard_normal((m, 2))
            pair_z[S - m:] = pz_pos
            pair_z[:m] = -pz_pos[::-1]

    for arr in (z, c, pair_z):
        arr.setflags(write=False)
    return FeatureBasis(S=S, z=z, c=c, mode=mode, seed=seed, pair_z=pair_z)


def _check_width(b):
    # written so that NaN fails; an infinite width makes every feature constant
    if not 0.0 < b < math.inf:
        raise ValueError("kernel width b must be positive and finite")


def angle_bound(F, x_abs, b):
    """(x_abs / b) @ max_s |F[s]|: for each row of ``x_abs`` (a value per
    column of F), a bound on the cosine angles |F[s] . x / b| of inputs with
    |x| <= x_abs. Where it is not finite an angle may overflow, and the
    features would be NaN."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return (x_abs / b) @ np.abs(F).max(axis=0)


def rbf_kernel(x, x_prime, b):
    """Exact RBF kernel exp(-||x - x'||^2 / (2 b^2)); the oracle the RFF
    features approximate."""
    _check_width(b)
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    x_prime = np.atleast_1d(np.asarray(x_prime, dtype=np.float64))
    if x.shape != x_prime.shape:
        raise ValueError("x and x_prime must have equal dimension")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(x_prime))):
        raise ValueError("inputs must be finite")
    diff = x - x_prime
    return float(np.exp(-float(diff @ diff) / (2.0 * b * b)))


def feature_map(basis, x, b):
    """sqrt(2/S) * cos(z * x / b + c) for a scalar input x."""
    _check_width(b)
    if not np.isfinite(x):
        raise ValueError("x must be finite")
    table, _ = _kernels.featurize(np.array([[float(x)]]), basis.z, basis.c,
                                  np.array([float(b)]))
    return table[0, 1:]


def approx_kernel(basis, x, x_prime, b):
    """Inner product of two feature maps; approximates rbf_kernel(x, x', b)."""
    fx = feature_map(basis, x, b)
    fy = feature_map(basis, x_prime, b)
    return float(fx @ fy)


def pair_feature_map(basis, x_i, x_j, b):
    """Two-dimensional RFF map sqrt(2/S) * cos(z1*(x_i/b) + z2*(x_j/b) + c).

    (z1, z2) are the rows of ``basis.pair_z``. Approximates the 2-D RBF kernel
    between (x_i, x_j) points. Scalars x_i, x_j give shape (S,); arrays of
    shape (n,) give an (n, S) block whose row r is bit-identical to the
    scalar map at (x_i[r], x_j[r]).
    """
    _check_width(b)
    x_i = np.asarray(x_i, dtype=np.float64)
    x_j = np.asarray(x_j, dtype=np.float64)
    if x_i.shape != x_j.shape or x_i.ndim > 1:
        raise ValueError("x_i and x_j must be scalars or vectors of equal length")
    if not (np.all(np.isfinite(x_i)) and np.all(np.isfinite(x_j))):
        raise ValueError("inputs must be finite")
    out = np.empty(x_i.shape + (basis.S,))
    _kernels.cosines([np.atleast_1d(x_i), np.atleast_1d(x_j)], b, basis.pair_z, basis.c,
                     out.reshape(-1, basis.S).T)
    out *= math.sqrt(2.0 / basis.S)
    return out


def fold_mirrored(freqs, c, weights):
    """Fold weighted cosine features whose frequencies agree up to sign.

    ``freqs`` holds one frequency per feature, shape (S,) or (S, k), with
    phases ``c``; ``weights`` has shape (..., S). Returns (F, phase, amp),
    where F has one row per group of frequencies equal up to sign, such that
    for every u

        sum_s weights[..., s] * sqrt(2/S) * cos(freqs[s] . u + c[s])
            = sum_t amp[..., t] * cos(F[t] . u + phase[..., t])

    exactly, so the two sides differ only by rounding: cos(-a + c) =
    cos(a - c) moves a frequency's sign into its phase, and
    sum_k w_k cos(a + p_k) = |A| cos(a + arg A) with A = sum_k w_k exp(i p_k).
    A grid basis mirrors every nonzero frequency, so its S features fold into
    S//2 + S%2 terms; Monte-Carlo features stay one term each.
    """
    rows = np.asarray(freqs, dtype=np.float64).reshape(len(c), -1)
    # the sign of each row's first nonzero entry (+1 for an all-zero row)
    lead = rows[np.arange(len(rows)), np.argmax(rows != 0, axis=1)]
    sign = np.where(lead < 0, -1.0, 1.0)
    F, group = np.unique(rows * sign[:, None], axis=0, return_inverse=True)
    weights = np.asarray(weights, dtype=np.float64)
    A = np.zeros(weights.shape[:-1] + (len(F),), dtype=np.complex128)
    np.add.at(A, (..., group.ravel()), weights * np.exp(1j * sign * np.asarray(c)))
    return F, np.angle(A), np.abs(A) * math.sqrt(2.0 / len(rows))

