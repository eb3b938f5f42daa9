"""Convex fitting on stacked RFF features.

``stack_features`` checks its inputs, then fills the cosine table of every
term, feature and interaction pair, in one ``_kernels.featurize`` call. A
``StackedFeatures`` holds the design matrix Phi as that table: a feature's
block of Phi repeats the table row of each distinct value of its column, so
the table holds those rows once, with the inverse index that gathers them.
No n x D matrix is formed to fit.

``train`` fits through ``fit_reduced``, in each block's eigenbasis. A
feature's S cosine columns see one scalar input, and the Gaussian kernel's
one-dimensional spectrum decays faster than exponentially, so each S-column
block B_j (every feature block and every interaction-pair block) has only a
few Gram eigenvalues above rounding. ``fit_reduced`` takes ``eigh`` of each
S x S block Gram, keeps the eigenvectors U_j whose eigenvalue exceeds
RANK_CUTOFF times the block's largest, fits on the n x R matrix
P = [1, B_1 U_1, ...] and lifts the weights back, W_j = U_j a_j. The penalty
is isotropic, so the optimum lies in the row space of Phi and the reduced
problem is the full one up to the dropped directions. A complement step on
the full D-space gradient then removes what those carry (more corrections
follow only while the full problem is unconverged). Regression sums P^T P
over REDUCED_CHUNK-row chunks and solves one R x R system, so no n x R or
D x D matrix is formed. Classification builds P and runs damped Newton on
it, both with Grams summed by ``_weighted_gram``. The report judges the
lifted weights on the full problem, whose Phi w and Phi^T r use the tables.

``solve_ridge_cg`` (one exact solve on the D x D Gram) and
``fit_logistic_newton`` (damped Newton on the D x D Hessian, stopping once
the gradient norm is at most NEWTON_TOL) stay as the exact references the
tests use; the benchmark's tracer names the former, and fit_reduced runs the
latter on P.
Seeded mini-batch SGD (fit_logistic_sgd) stays in the library; no command
calls it.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from .data import TASK_CLASSIFICATION, TASK_REGRESSION
from .errors import NumericBreakdownError
from .rff import angle_bound

# Newton stops once ||grad|| <= NEWTON_TOL, or after NEWTON_MAX_ITER steps
# (then its report says converged: false).
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
# fit_reduced keeps a block's Gram eigenvectors whose eigenvalue exceeds
# RANK_CUTOFF times the block's largest. The summed Gram's own rounding
# reaches a few 1e-15 times the largest, so a kept direction may be rounding;
# a cutoff of 1e-14 drops those, but then a lam = 1e-6 classification fit
# needs a second correction. Sitting at the rounding floor, the cutoff lets
# the BLAS thread count move the kept rank: on the seed-93 train_reg_auto
# training file the scale-4 fit keeps R = 73 with OPENBLAS_NUM_THREADS=1 and
# 72 with 2 (ROADMAP item 3 moves the cutoff to the penalty's scale).
RANK_CUTOFF = 1e-15
# Rows per chunk of every weighted Gram (the block Grams over table rows, the
# logistic Hessian over data rows) and of the reduced ridge statistics P^T P:
# no n x R matrix and no weighted copy of a table is formed, and a fixed
# chunk order keeps the sums bit-identical across reruns.
REDUCED_CHUNK = 1024
# fit_reduced's corrections on the full problem: the first, the complement
# step, always runs; the others only while the full problem is unconverged.
COMPLEMENT_STEPS = 3


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
    reduced_rank: int | None = None

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
        if self.reduced_rank is not None:
            out["reduced_rank"] = self.reduced_rank
            out["rank_cutoff"] = RANK_CUTOFF
        return out


class StackedFeatures:
    """The design matrix Phi, whose row i is stack(1, phi(x_i1), ...,
    phi(x_id)) plus one S-block per interaction pair, held as a table.

    ``table`` has a bias column of ones, then m blocks of S columns. Its rows
    come in groups, one per entry of ``index``: index[g] maps each of the n
    data rows to one of group g's rows, and the group has as many rows as
    index[g] reaches. Phi's bias column is group 0's, and its S-column blocks
    are each group's m blocks in turn: block b is B_b gathered by index_b,
    ``tables[b] = (B_b, index_b)``. ``featurize``'s table has a group of one
    block per term (a feature's distinct values, a pair's rows);
    StackedFeatures(phi, S, d) holds a dense Phi as one group of every block
    with the identity index.

    Only ``featurize`` and this class know the table's layout: the fit reads
    Phi through :meth:`block_values`, :meth:`matvec` and :meth:`rmatvec`, and
    train halves widths by :meth:`halve_width`. ``phi`` is Phi itself: the
    dense matrix given, or else a new n x D matrix on each read, which only
    the exact reference solvers and the tests make.
    """

    def __init__(self, phi, S, d, index=None):
        self.table, self.S, self.d = phi, S, d
        self._dense = index is None
        index = [np.arange(phi.shape[0])] if index is None else index
        sizes = [int(np.max(rows, initial=-1)) + 1 for rows in index]
        if (phi.shape[1] - 1) % S or sum(sizes) != phi.shape[0]:
            raise ValueError("the table must hold whole S-column blocks and "
                             "exactly the rows its index reaches")
        self.tables = [(phi[:sizes[0], :1], index[0])]
        start = 0
        for size, rows in zip(sizes, index):
            group = phi[start:start + size]
            self.tables += [(group[:, k:k + S], rows) for k in range(1, phi.shape[1], S)]
            start += size
        self.n = index[0].shape[0]
        self.dim = 1 + len(index) * (phi.shape[1] - 1)

    @property
    def phi(self) -> np.ndarray:
        if self._dense:
            return self.table
        out = np.empty((self.n, self.dim))
        for cols, (B, index) in zip(self.blocks(), self.tables):
            out[:, cols] = B[index]
        return out

    def feature_block(self, i: int) -> slice:
        """Column slice of feature i's S cosine features."""
        return self.blocks()[1 + i]

    def blocks(self) -> list[slice]:
        """Column slices of the bias, then of each S-column term block: each
        feature's, then each interaction pair's, in ``_kernels.terms`` order."""
        return [slice(0, 1)] + [slice(k, k + self.S) for k in range(1, self.dim, self.S)]

    def block_values(self, b, wb) -> np.ndarray:
        """Block b of Phi times its weights wb: (B_b wb)[index_b]."""
        B, index = self.tables[b]
        return (B @ wb)[index]

    def matvec(self, w) -> np.ndarray:
        """Phi w: the blocks' values summed from zero in block order."""
        out = np.zeros(self.n)
        for b, cols in enumerate(self.blocks()):
            out += self.block_values(b, w[cols])
        return out

    def rmatvec(self, r) -> np.ndarray:
        """Phi^T r: B_b^T bincount(index_b, r) for each block b, which sums r
        over the data rows of each table row in row order."""
        return np.concatenate([B.T @ np.bincount(index, r, B.shape[0])
                               for B, index in self.tables])

    def halve_width(self, c):
        """Halve every term's width in place (``_kernels.halve_width`` on the
        cosine columns) for a grid basis with phases ``c``; return self."""
        _kernels.halve_width(self.table[:, 1:], c)
        return self


def _penalty_mask(dim):
    """1 on each coordinate lam penalizes: all but the bias."""
    mask = np.ones(dim)
    mask[0] = 0.0
    return mask


def stack_features(basis, widths, X, pairs=None) -> StackedFeatures:
    """The stacked features of the standardized inputs X, as cosine tables.

    ``pairs`` is an optional list of (i, j) feature-index tuples; each adds an
    S-column block of two-dimensional RFF features (the basis's ``pair_z``)
    with kernel width sqrt(b_i * b_j).
    A width so narrow that an angle overflows is a ValueError naming its term
    (each ``_kernels.terms`` entry's ``rff.angle_bound`` on the largest |x|,
    before any cosine). Then one ``_kernels.featurize`` call fills every
    term's table. :meth:`StackedFeatures.halve_width` takes it to half the
    widths in place, so a grid-basis ``train --bandwidth-scale auto`` calls
    this once, at its widest scale.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] < 1:
        raise ValueError("X must be a 2-D matrix with at least one column")
    widths = np.asarray(widths, dtype=np.float64)
    if not np.all((widths > 0) & (widths < np.inf)):  # NaN fails too
        raise ValueError("all kernel widths must be positive and finite")
    if widths.shape[0] != X.shape[1]:
        raise ValueError("one kernel width per feature is required")
    if not np.all(np.isfinite(X)):
        raise ValueError("X contains non-finite entries")
    d = X.shape[1]
    pairs = [(int(i), int(j)) for i, j in pairs or ()]
    for (i, j) in pairs:
        if not (0 <= i < d and 0 <= j < d) or i == j:
            raise ValueError(f"invalid interaction pair ({i}, {j}) for d={d}")
    x_max = np.maximum(X.max(axis=0, initial=0.0), -X.min(axis=0, initial=0.0))
    for cols, width, F in _kernels.terms(basis.z, basis.pair_z, widths, pairs):
        if not np.isfinite(angle_bound(F, x_max[list(cols)], width)):
            where = f"feature {cols[0]}" if len(cols) == 1 else f"pair {cols}"
            raise ValueError(f"kernel width {float(width)!r} of {where} is too narrow "
                             "for the inputs: the cosine angles overflow")
    table, index = _kernels.featurize(X, basis.z, basis.c, widths, pairs, basis.pair_z)
    return StackedFeatures(table, basis.S, d, index)


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
    y = _ridge_targets(y, phi.shape[0])

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


def _ridge_targets(y, n):
    """y as a finite float vector with one entry per feature row, n >= 1."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.shape[0] != n:
        raise ValueError("y must be a vector with one entry per feature row")
    if n < 1:
        raise ValueError("need at least one sample")
    if not np.all(np.isfinite(y)):
        raise ValueError("y contains non-finite entries")
    return y


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
    return _logistic_loss(w, phi @ w, lambda r: phi.T @ r, y_pm, lam)


def _logistic_loss(w, scores, rmatvec, y_pm, lam):
    """logistic_objective from the scores phi w, with phi^T r as ``rmatvec(r)``."""
    n = scores.shape[0]
    margins = y_pm * scores
    w_reg = np.concatenate(([0.0], w[1:]))
    loss = float(np.mean(np.logaddexp(0.0, -margins)))
    loss += 0.5 * lam / n * float(w_reg @ w_reg)
    grad = -rmatvec(y_pm * sigmoid(-margins)) / n
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


def _weighted_gram(B, root, scratch):
    """B^T diag(root^2) B, summed over REDUCED_CHUNK-row chunks of B in row
    order; each adds s^T s, s = root * rows, written into ``scratch`` (at least
    min(rows, REDUCED_CHUNK) * columns floats), so no weighted B is formed."""
    gram = np.zeros((B.shape[1], B.shape[1]))
    for start in range(0, B.shape[0], REDUCED_CHUNK):
        rows = B[start:start + REDUCED_CHUNK]
        s = np.multiply(rows, root[start:start + REDUCED_CHUNK, None],
                        out=scratch[:rows.size].reshape(rows.shape))
        gram += s.T @ s
    return gram


def _logistic_hessian(phi, w, lam, mask):
    """Phi^T diag(s) Phi / n + (lam/n) * diag(mask) with s = p(1 - p), the
    first term a ``_weighted_gram`` with root sqrt(s)."""
    n, dim = phi.shape
    t = phi @ w
    root_s = np.sqrt(sigmoid(t) * sigmoid(-t))
    hess = _weighted_gram(phi, root_s, np.empty(min(n, REDUCED_CHUNK) * dim))
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


def _eigenbases(features: StackedFeatures):
    """(columns, U) for each block of ``features.blocks()``: U holds the
    orthonormal eigenvectors of the block's Gram whose eigenvalue exceeds
    RANK_CUTOFF times the largest. The bias block keeps its column. Block b's
    Gram is B_b^T diag(c) B_b, with c the number of data rows of each table
    row: a ``_weighted_gram`` with root sqrt(c), through one scratch."""
    scratch = np.empty(REDUCED_CHUNK * features.S)
    bases = []
    for cols, (B, index) in zip(features.blocks(), features.tables):
        gram = _weighted_gram(B, np.sqrt(np.bincount(index, minlength=B.shape[0])), scratch)
        vals, vecs = np.linalg.eigh(gram)
        bases.append((cols, vecs[:, vals > RANK_CUTOFF * vals[-1]]))
    return bases


def _project(features, bases, rows, out):
    """Fill ``out`` with the reduced coordinates [B_1 U_1, B_2 U_2, ...] of
    the data ``rows`` (a slice) of Phi and return it: each block's table
    rows, gathered by its index, times its U. The gather indexes the strided
    table view (np.take would first copy the whole table, on every call).
    Callers pass at most REDUCED_CHUNK rows: a product over all n rows
    touches more of BLAS's buffers, which showed as about 6 MB more peak RSS
    at n = 8,000."""
    k = 0
    for (_, U), (B, index) in zip(bases, features.tables):
        out[:, k:k + U.shape[1]] = B[index[rows]] @ U
        k += U.shape[1]
    return out


def _reduce(v, bases):
    """The reduced coordinates U^T v of a D-vector v; _lift is its adjoint."""
    return np.concatenate([U.T @ v[cols] for cols, U in bases])


def _lift(a, bases, dim):
    """The D-space weights of reduced weights a: W_j = U_j a_j."""
    w = np.zeros(dim)
    k = 0
    for cols, U in bases:
        w[cols] = U @ a[k:k + U.shape[1]]
        k += U.shape[1]
    return w


def _correct(w, objective, bases, hessian, curvature, tol):
    """Newton-type corrections of the lifted weights w on the full problem, in
    place: w -= U H^-1 U^T g + (I - U U^T) g / curvature, with g the full
    gradient, H the reduced Hessian and U the kept eigenvectors of each block.
    In the dropped directions the Hessian is the penalty's curvature plus
    rounding. At the lifted reduced optimum U^T g is rounding, so the first
    correction is the complement step; more follow, up to COMPLEMENT_STEPS,
    while the convergence measure exceeds tol (a small lam lets the rounding
    in the dropped directions matter). ``objective(w)`` returns (value,
    gradient, measure); the last value and measure are returned. A lam too
    small to fit overflows here; fit_reduced reports that, not numpy."""
    with np.errstate(all="ignore"):
        value, grad, measure = objective(w)
        for _ in range(COMPLEMENT_STEPS):
            step = _lift(np.linalg.solve(hessian, _reduce(grad, bases)), bases, w.shape[0])
            for cols, U in bases:
                g = grad[cols]
                step[cols] += (g - U @ (U.T @ g)) / curvature
            w -= step
            value, grad, measure = objective(w)
            if measure <= tol:
                break
    return value, measure


def fit_reduced(features: StackedFeatures, y, task, cfg: FitConfig | None = None):
    """Fit ``task`` (regression or binary classification) on ``features`` in
    each block's eigenbasis, as the module docstring says, and return
    (w, SolverReport).

    The report is the one solve_ridge_cg or fit_logistic_newton would give
    for w on the full problem: its relative residual, or its loss and
    gradient norm, each from Phi w and Phi^T r on the tables
    (``StackedFeatures.matvec`` and ``rmatvec``). Its iterations and loss trace
    are the reduced Newton's, ``reduced_rank`` is R, and wall_time includes
    the eigenbases, the projection and the corrections. Only cfg.lam and
    cfg.cg_tol are read. Non-finite weights or a non-finite measure raise
    NumericBreakdownError.
    """
    cfg = cfg or FitConfig()
    n, dim = features.n, features.dim
    if task not in (TASK_REGRESSION, TASK_CLASSIFICATION):
        raise ValueError(f"unknown task {task!r}")
    t0 = time.perf_counter()
    bases = _eigenbases(features)
    rank = sum(U.shape[1] for _, U in bases)
    if task == TASK_REGRESSION:
        y = _ridge_targets(y, n)
        mask = cfg.lam * _penalty_mask(dim)
        v = features.rmatvec(y)
        v_norm = float(np.linalg.norm(v))
        gram = np.zeros((rank, rank))
        chunk = np.empty((min(n, REDUCED_CHUNK), rank))
        for start in range(0, n, REDUCED_CHUNK):
            rows = slice(start, min(start + REDUCED_CHUNK, n))
            P = _project(features, bases, rows, chunk[:rows.stop - start])
            gram += P.T @ P
        gram[np.diag_indices(rank)] += cfg.lam * _penalty_mask(rank)
        w = _lift(np.linalg.solve(gram, _reduce(v, bases)), bases, dim)

        def residual(wv):
            g = features.rmatvec(features.matvec(wv)) + mask * wv - v
            rel = float(np.linalg.norm(g)) / v_norm if v_norm else 0.0
            return rel, g, rel

        rel, _ = _correct(w, residual, bases, gram, cfg.lam, cfg.cg_tol)
        report = SolverReport(method="direct", iterations=0, final_residual_or_loss=rel,
                              tolerance=cfg.cg_tol, converged=rel <= cfg.cg_tol,
                              wall_time=0.0)
    else:
        P = np.empty((n, rank))
        for start in range(0, n, REDUCED_CHUNK):
            rows = slice(start, min(start + REDUCED_CHUNK, n))
            _project(features, bases, rows, P[rows])
        a, report = fit_logistic_newton(StackedFeatures(P, 1, 0), y, cfg)
        w = _lift(a, bases, dim)
        y_pm = 2.0 * np.asarray(y, dtype=np.float64) - 1.0  # labels checked by Newton

        def loss_and_gradient(wv):
            loss, g = _logistic_loss(wv, features.matvec(wv), features.rmatvec, y_pm, cfg.lam)
            return loss, g, float(np.linalg.norm(g))

        hessian = _logistic_hessian(P, a, cfg.lam, _penalty_mask(rank))
        loss, gnorm = _correct(w, loss_and_gradient, bases, hessian, cfg.lam / n, NEWTON_TOL)
        report = replace(report, final_residual_or_loss=loss, gradient_norm=gnorm,
                         converged=gnorm <= NEWTON_TOL)
    if not (np.isfinite(w).all() and math.isfinite(report.final_residual_or_loss)
            and math.isfinite(report.gradient_norm or 0.0)):
        raise NumericBreakdownError(
            f"non-finite weights or convergence measure at lambda={cfg.lam:g}")
    return w, replace(report, reduced_rank=rank, wall_time=time.perf_counter() - t0)


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
