"""Convex fitting on stacked RFF features.

Regression solves the regularized normal equations
(lambda*I + sum_n phi_n phi_n^T) w = sum_n y_n phi_n exactly: the Gram matrix
G = Phi^T Phi is formed once per fit (one pass over the n x D design matrix,
D^2 * 8 bytes: 5 MB at D = 801) and one np.linalg.solve factors G + lambda*I.
Binary classification minimizes the L2-regularized logistic loss, which is
strictly convex for lambda > 0, by damped Newton steps on the D x D Hessian,
stopping once the gradient norm is at most NEWTON_TOL. Seeded mini-batch SGD
(fit_logistic_sgd) stays in the library; no command calls it.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, rff
from .errors import NumericBreakdownError

# Newton stops once ||grad|| <= NEWTON_TOL, or after NEWTON_MAX_ITER steps
# (then its report says converged: false).
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
# Rows per Hessian chunk: BLAS workspace grows with the chunk, and a fixed
# chunk order keeps the summed Hessian bit-identical across reruns.
HESSIAN_CHUNK = 256


@dataclass
class FitConfig:
    """Solver settings. lam is the L2 strength (unit prior by default). cg_tol
    bounds the ridge residual for ``converged``; no solver reads cg_max_iter.
    Both stay because the acceptance tests build FitConfig(cg_tol, cg_max_iter).
    The sgd_* fields and seed are read by fit_logistic_sgd alone."""

    lam: float = 1.0
    cg_tol: float = 1e-8
    cg_max_iter: int | None = None
    sgd_lr: float = 0.1
    sgd_batch: int = 256
    sgd_epochs: int = 100
    sgd_lr_decay: float = 0.99
    sgd_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        # written so that NaN fails each check
        if not 0 < self.lam < math.inf:
            raise ValueError("lam must be positive and finite")
        if not 0 <= self.cg_tol < math.inf:
            raise ValueError("cg_tol must be finite and nonnegative")
        if not 0 < self.sgd_lr < math.inf:
            raise ValueError("learning rate must be positive and finite")
        if self.sgd_batch < 1 or self.sgd_epochs < 1:
            raise ValueError("sgd_batch and sgd_epochs must be >= 1")
        if not 0 < self.sgd_lr_decay <= 1:
            raise ValueError("sgd_lr_decay must be in (0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass
class SolverReport:
    """Outcome of a direct ridge solve, Newton or SGD. final_residual_or_loss
    holds the solve's relative residual and the final regularized loss of a
    logistic fit; gradient_norm is Newton's final ||grad||."""

    method: str
    iterations: int
    final_residual_or_loss: float
    tolerance: float
    converged: bool
    wall_time: float
    degenerate: bool = False
    loss_trace: list[float] = field(default_factory=list)
    gradient_norm: float | None = None

    def to_dict(self) -> dict:
        out = {
            "method": self.method,
            "iterations": self.iterations,
            "final_residual_or_loss": self.final_residual_or_loss,
            "tolerance": self.tolerance,
            "converged": self.converged,
            "wall_time": self.wall_time,
        }
        if self.method != "direct":
            out["degenerate"] = self.degenerate
            out["loss_first"] = self.loss_trace[0]
            out["loss_last"] = self.loss_trace[-1]
        if self.gradient_norm is not None:
            out["gradient_norm"] = self.gradient_norm
        return out


@dataclass(frozen=True)
class StackedFeatures:
    """Design matrix whose row n is stack(1, phi(x_1n), ..., phi(x_dn))
    plus one S-block per interaction pair."""

    phi: np.ndarray
    S: int
    d: int

    @property
    def n(self) -> int:
        return self.phi.shape[0]

    @property
    def dim(self) -> int:
        return self.phi.shape[1]

    def feature_block(self, i: int) -> slice:
        """Column slice of feature i's S cosine features."""
        return slice(1 + i * self.S, 1 + (i + 1) * self.S)

    def pair_block(self, k: int) -> slice:
        base = 1 + self.d * self.S
        return slice(base + k * self.S, base + (k + 1) * self.S)


def _penalty_mask(dim):
    """1 on each coordinate lam penalizes: all but the bias."""
    mask = np.ones(dim)
    mask[0] = 0.0
    return mask


def stack_features(basis, widths, X, pairs=None) -> StackedFeatures:
    """Build the stacked design matrix for standardized inputs X.

    ``pairs`` is an optional list of (i, j) feature-index tuples; each adds an
    S-column block of two-dimensional RFF features with kernel width
    sqrt(b_i * b_j), and requires a basis built with pairwise frequencies.
    A width so narrow that an angle z * x / b overflows is a ValueError that
    names it (an O(n*d) check, before any cosine). The matrix is C-contiguous,
    so ``_kernels.halve_width`` can take it to half the widths in place; a
    grid-basis ``train --bandwidth-scale auto`` calls this once, at its widest
    scale.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be a 2-D matrix")
    widths = np.asarray(widths, dtype=np.float64)
    if not np.all((widths > 0) & (widths < np.inf)):  # NaN fails too
        raise ValueError("all kernel widths must be positive and finite")
    if widths.shape[0] != X.shape[1]:
        raise ValueError("one kernel width per feature is required")
    if not np.all(np.isfinite(X)):
        raise ValueError("X contains non-finite entries")
    n, d = X.shape
    pairs = [(int(i), int(j)) for i, j in pairs or ()]
    for (i, j) in pairs:
        if not (0 <= i < d and 0 <= j < d) or i == j:
            raise ValueError(f"invalid interaction pair ({i}, {j}) for d={d}")
    x_max = np.maximum(X.max(axis=0, initial=0.0), -X.min(axis=0, initial=0.0))
    for j in range(d):
        _check_angles(basis.z[:, None], x_max[j:j + 1], widths[j], f"feature {j}")
    pair_widths = [math.sqrt(widths[i] * widths[j]) for i, j in pairs]
    if basis.pair_z is not None:  # else pair_feature_map says what is missing
        for (i, j), b_ij in zip(pairs, pair_widths):
            _check_angles(basis.pair_z, x_max[[i, j]], b_ij, f"pair ({i}, {j})")
    feats = StackedFeatures(phi=np.empty((n, 1 + basis.S * (d + len(pairs)))),
                            S=basis.S, d=d)
    _kernels.featurize(X, basis.z, basis.c, widths, out=feats.phi[:, :1 + basis.S * d])
    for k, ((i, j), b_ij) in enumerate(zip(pairs, pair_widths)):
        feats.phi[:, feats.pair_block(k)] = rff.pair_feature_map(basis, X[:, i], X[:, j], b_ij)
    return feats


def _check_angles(F, x_max, b, where):
    """Raise ValueError unless max_s |F[s]| . (x_max / b), which bounds the
    cosine angles |F[s] . x / b| of inputs with |x| <= x_max, is finite; an
    infinite angle would make the features NaN."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        bound = np.max(np.abs(F) @ (x_max / b))
    if not np.isfinite(bound):
        raise ValueError(f"kernel width {float(b)!r} of {where} is too narrow for the "
                         "inputs: the cosine angles overflow")


def conjugate_gradients(apply_A, v, tol=1e-8, max_iter=None):
    """Classic CG for SPD systems, started from w = 0.

    Stops when the residual norm falls to ``tol * ||v||`` or after max_iter
    iterations. Returns (w, iterations, relative_residual). No gpnam code
    calls it: like ``_kernels.gram_apply`` it stays for the benchmark's tracer.
    """
    v = np.asarray(v, dtype=np.float64)
    if max_iter is None:
        max_iter = 2 * v.shape[0]
    v_norm = float(np.linalg.norm(v))
    w = np.zeros_like(v)
    if v_norm == 0.0:
        return w, 0, 0.0
    r = v.copy()
    p = r.copy()
    rs = float(r @ r)
    rel = math.sqrt(rs) / v_norm
    k = 0
    while rel > tol and k < max_iter:
        Ap = apply_A(p)
        pAp = float(p @ Ap)
        if not math.isfinite(pAp) or pAp <= 0.0:
            raise NumericBreakdownError(f"CG breakdown at iteration {k}: p^T A p = {pAp}")
        alpha = rs / pAp
        w += alpha * p
        r -= alpha * Ap
        rs_new = float(r @ r)
        if not math.isfinite(rs_new):
            raise NumericBreakdownError(f"CG produced non-finite residual at iteration {k}")
        p *= rs_new / rs
        p += r
        rs = rs_new
        rel = math.sqrt(rs) / v_norm
        k += 1
    return w, k, rel


def solve_ridge_cg(features: StackedFeatures, y, cfg: FitConfig | None = None):
    """Solve (lam*I + Phi^T Phi) w = Phi^T y exactly on the formed Gram matrix.

    G = Phi^T Phi (D^2 * 8 bytes) is built once, lam goes onto its diagonal
    (not the bias coordinate's), and one np.linalg.solve,
    which copies the D x D system, gives w. lam > 0 and the bias column of ones
    make the system positive definite. The report holds ||A w - v|| / ||v|| and
    a wall_time that includes building G and Phi^T y. Returns (w, SolverReport).
    """
    cfg = cfg or FitConfig()
    phi = features.phi
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.shape[0] != phi.shape[0]:
        raise ValueError("y must be a vector with one entry per feature row")
    if y.shape[0] < 1:
        raise ValueError("need at least one sample")
    if not np.all(np.isfinite(y)):
        raise ValueError("y contains non-finite entries")

    t0 = time.perf_counter()
    gram = phi.T @ phi
    gram[np.diag_indices_from(gram)] += cfg.lam * _penalty_mask(phi.shape[1])
    v = phi.T @ y
    w = np.linalg.solve(gram, v)
    rel = float(np.linalg.norm(gram @ w - v) / np.linalg.norm(v)) if v.any() else 0.0
    wall = time.perf_counter() - t0
    report = SolverReport(method="direct", iterations=0, final_residual_or_loss=rel,
                          tolerance=cfg.cg_tol, converged=rel <= cfg.cg_tol,
                          wall_time=wall)
    return w, report


def sigmoid(t):
    """Numerically stable logistic function."""
    t = np.asarray(t, dtype=np.float64)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out if out.ndim else float(out)


def logistic_objective(w, phi, y_pm, lam):
    """Regularized logistic loss and its gradient.

    loss = mean(log(1 + exp(-y * phi w))) + lam/(2n) * ||w_reg||^2 with
    y in {-1, +1}; w_reg is w with the bias coordinate, never penalized, at 0.
    """
    n = phi.shape[0]
    margins = y_pm * (phi @ w)
    w_reg = np.concatenate(([0.0], w[1:]))
    loss = float(np.mean(np.logaddexp(0.0, -margins)))
    loss += 0.5 * lam / n * float(w_reg @ w_reg)
    grad = -(phi.T @ (y_pm * sigmoid(-margins))) / n
    grad += (lam / n) * w_reg
    return loss, grad


def _pm_labels(y, n):
    """(labels mapped to +/-1, degenerate): y must hold one {0, 1} label per
    feature row; a single class warns and flags the fit degenerate."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (n,):
        raise ValueError("y must have one label per feature row")
    labels = np.unique(y)
    if not np.all(np.isin(labels, (0.0, 1.0))):
        raise ValueError("labels must be in {0, 1}")
    degenerate = labels.size < 2
    if degenerate:
        warnings.warn("single-class labels: logistic fit is degenerate")
    return 2.0 * y - 1.0, degenerate


def _logistic_hessian(phi, w, lam, mask):
    """Phi^T diag(s) Phi / n + (lam/n) * diag(mask) with s = p(1 - p), summed
    over HESSIAN_CHUNK-row chunks in row order, so no n x D weighted copy of
    Phi is formed. Each chunk adds B^T B with B = sqrt(s) * rows."""
    n, dim = phi.shape
    t = phi @ w
    root_s = np.sqrt(sigmoid(t) * sigmoid(-t))
    hess = np.zeros((dim, dim))
    for start in range(0, n, HESSIAN_CHUNK):
        block = phi[start:start + HESSIAN_CHUNK] * root_s[start:start + HESSIAN_CHUNK, None]
        hess += block.T @ block
    hess /= n
    hess[np.diag_indices(dim)] += (lam / n) * mask
    return hess


def fit_logistic_newton(features: StackedFeatures, y, cfg: FitConfig | None = None):
    """Damped Newton for the L2-regularized logistic loss of logistic_objective.

    Labels are {0, 1}. From w = 0, each step solves H p = -grad on the
    Hessian of _logistic_hessian and halves the step length until the loss
    meets the Armijo condition loss(w + t p) <= loss(w) + 1e-4 * t * grad.p.
    Once -grad.p <= 1e-12 the full step is taken, so the loss trace falls
    except for rounding-level moves at the end. The fit stops once
    ||grad|| <= NEWTON_TOL (converged), after NEWTON_MAX_ITER steps, or when
    no step length lowers the loss (both not converged). A non-finite Newton
    step raises NumericBreakdownError. Only cfg.lam is read. Returns (w, SolverReport).
    """
    cfg = cfg or FitConfig()
    phi = features.phi
    n, dim = phi.shape
    y_pm, degenerate = _pm_labels(y, n)
    mask = _penalty_mask(dim)

    def objective(wv):
        return logistic_objective(wv, phi, y_pm, cfg.lam)

    t0 = time.perf_counter()
    w = np.zeros(dim)
    loss, grad = objective(w)
    trace = [loss]
    steps = 0
    # written so that a NaN gradient goes on to the finiteness check of the step
    while not (gnorm := float(np.linalg.norm(grad))) <= NEWTON_TOL and steps < NEWTON_MAX_ITER:
        step = np.linalg.solve(_logistic_hessian(phi, w, cfg.lam, mask), -grad)
        if not np.all(np.isfinite(step)):
            raise NumericBreakdownError(f"non-finite Newton step at iteration {steps}")
        slope = float(grad @ step)  # minus the squared Newton decrement
        for halvings in range(60):
            length = 0.5 ** halvings
            w_new = w + length * step
            loss_new, grad_new = objective(w_new)
            # below a squared decrement of 1e-12 the loss (at most log 2) moves
            # by rounding only, so it cannot rank step lengths: take the full step
            if loss_new <= loss + 1e-4 * length * slope or -slope <= 1e-12:
                break
        else:
            break  # no step length lowers the loss: stop unconverged
        w, loss, grad = w_new, loss_new, grad_new
        trace.append(loss)
        steps += 1
    wall = time.perf_counter() - t0
    report = SolverReport(method="newton", iterations=steps, final_residual_or_loss=loss,
                          tolerance=NEWTON_TOL, converged=gnorm <= NEWTON_TOL,
                          wall_time=wall, degenerate=degenerate, loss_trace=trace,
                          gradient_norm=gnorm)
    return w, report


def fit_logistic_sgd(features: StackedFeatures, y, cfg: FitConfig | None = None,
                     w_init=None):
    """Mini-batch SGD for L2-regularized logistic regression.

    Labels are {0, 1} at the interface and mapped to +/-1 internally.
    Shuffling is seeded (cfg.seed) and the learning rate decays by
    cfg.sgd_lr_decay per epoch; the fit stops when an epoch changes the full
    loss by at most cfg.sgd_tol (converged) or after cfg.sgd_epochs. A
    non-finite training loss after an epoch raises NumericBreakdownError.
    No command calls it; train fits with fit_logistic_newton.
    Returns (w, SolverReport).
    """
    cfg = cfg or FitConfig()
    phi = features.phi
    n, dim = phi.shape
    y_pm, degenerate = _pm_labels(y, n)
    rng = np.random.default_rng(cfg.seed)
    if w_init is None:
        w = np.zeros(dim)
    else:
        w = np.array(w_init, dtype=np.float64, copy=True)
        if w.shape != (dim,):
            raise ValueError("w_init has the wrong dimension")
    mask = _penalty_mask(dim)
    batch = min(cfg.sgd_batch, n)

    def full_loss(wv):
        return logistic_objective(wv, phi, y_pm, cfg.lam)[0]

    t0 = time.perf_counter()
    trace = [full_loss(w)]
    converged = False
    epochs_run = 0
    # a diverging fit overflows on its way to the check below, which reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.sgd_epochs):
            lr = cfg.sgd_lr * cfg.sgd_lr_decay ** epoch
            order = rng.permutation(n)
            for start in range(0, n, batch):
                idx = order[start:start + batch]
                phi_b, y_b = phi[idx], y_pm[idx]  # gathered once per mini-batch
                m = y_b * (phi_b @ w)
                s = sigmoid(-m)
                grad = -(phi_b.T @ (y_b * s)) / idx.size + (cfg.lam / n) * (mask * w)
                w -= lr * grad
            epochs_run = epoch + 1
            trace.append(full_loss(w))
            if not math.isfinite(trace[-1]):
                raise NumericBreakdownError(f"SGD diverged: training loss {trace[-1]} "
                                            f"after epoch {epochs_run}")
            if abs(trace[-2] - trace[-1]) <= cfg.sgd_tol:
                converged = True
                break
    wall = time.perf_counter() - t0
    report = SolverReport(method="sgd", iterations=epochs_run,
                          final_residual_or_loss=trace[-1], tolerance=cfg.sgd_tol,
                          converged=converged, wall_time=wall, degenerate=degenerate,
                          loss_trace=trace)
    return w, report
