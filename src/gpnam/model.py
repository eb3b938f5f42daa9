"""Trained additive model: prediction, shape functions, persistence.

The model file is versioned JSON with explicit field names; reals serialize
at full round-trip precision (Python repr), so save/load reproduces every
parameter bit-exactly. The RFF basis is not stored verbatim - it is rebuilt
from (S, mode, seed), which the basis construction guarantees to be
bit-reproducible.

Prediction is additive, g(x) = w0 + sum_i f_i(x_i) + sum_(i,j) f_ij(x_i, x_j),
and is evaluated one term at a time: each term's value is summed from zero
in a fixed order, the term values are added from zero in term order, then
w0. A feature's term depends on one scalar, so it is evaluated once per
distinct value of its column and gathered back to the rows: inside the
model's standardized training range from the Chebyshev interpolant of its
shape function, built once per model object from the term's own cosines and
summed by Clenshaw's recurrence in the calling thread, and elsewhere from
the cosines, which alone share threads. So a prediction does not depend on
the other rows or on the thread count, and without pairs it is exactly w0
plus the uncentered shape values of its features.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .data import TASK_CLASSIFICATION, TASK_REGRESSION
from .errors import MalformedModelError, ModelInvariantError, SchemaVersionError
from .rff import (MODES, FeatureBasis, angle_bound, build_basis, feature_map,
                  fold_mirrored, pair_feature_map)
from .solvers import sigmoid

SCHEMA_VERSION = 1

# The degrees of a feature's Chebyshev interpolant, tried in turn. A term
# keeps its T folded cosines unless its interpolant resolves at one of them
# with at most CHEBYSHEV_PER_COSINE * T points (degree n has n + 1). A
# Clenshaw step costs about a tenth of a folded cosine (100,000 points: 65
# coefficients in 7.9 ms, 50 cosines in 63 ms, one thread, 2-vCPU host), so
# an interpolant is several times cheaper per value, and its build, T
# cosines at each of its points, costs what 2T distinct values would. The
# largest degree bounds the DCT's (degree + 1)^2 table at 0.5 MB.
CHEBYSHEV_DEGREES = (16, 32, 64, 128, 256)
CHEBYSHEV_PER_COSINE = 2
# A degree is resolved when its top quarter of coefficients is at most this
# times the term's largest |value| at the points.
CHEBYSHEV_TOL = 4 * 2.0**-52


@dataclass
class GPNAMModel:
    """Additive model g(x) = w0 + sum_i phi(x_i)^T W[i] over standardized
    inputs, with optional pairwise interaction terms.

    ``standardization`` is the (means, scales) pair applied to raw inputs
    before featurization. ``centering_offsets`` holds the training-set mean of
    each shape function; subtracting them (and adding their sum to the bias)
    leaves predictions unchanged and is how shape functions are exported.
    """

    basis: FeatureBasis
    feature_names: list[str]
    task: str
    w0: float
    W: np.ndarray
    b: np.ndarray
    standardization: tuple[np.ndarray, np.ndarray]
    centering_offsets: np.ndarray
    interactions: list[tuple[int, int, np.ndarray]] = field(default_factory=list)
    encodings: list[dict] | None = None
    feature_ranges: tuple[np.ndarray, np.ndarray] | None = None
    bandwidth_scale: float | None = None
    target_classes: list[str] | None = None

    def __post_init__(self):
        names = self.feature_names
        d = len(names)
        repeated = sorted({nm for nm in names if names.count(nm) > 1})
        if repeated:
            raise ModelInvariantError(f"feature name(s) {repeated} repeated; names must be distinct")
        self.W = np.asarray(self.W, dtype=np.float64)
        if self.W.shape != (d, self.basis.S):
            raise ModelInvariantError(f"W must be {d} x {self.basis.S}, got {self.W.shape}")
        self.b = _feature_vector(self.b, d, "kernel widths")
        if np.any(self.b <= 0):
            raise ModelInvariantError("kernel widths must be positive")
        self.centering_offsets = _feature_vector(self.centering_offsets, d, "centering offsets")
        means, scales = (_feature_vector(v, d, "standardization") for v in self.standardization)
        if np.any(scales == 0):
            raise ModelInvariantError("standardization scales must be nonzero")
        self.standardization = (means, scales)
        if self.feature_ranges is not None:
            mins, maxs = (_feature_vector(v, d, "feature ranges") for v in self.feature_ranges)
            if np.any(mins > maxs):
                raise ModelInvariantError("feature range mins must not exceed maxs")
            self.feature_ranges = (mins, maxs)
        if self.encodings is not None and not (
                isinstance(self.encodings, list) and len(self.encodings) == d
                and all(map(_valid_encoding, self.encodings))):
            raise ModelInvariantError(
                "encodings must list one {kind: numeric} or "
                "{kind: ordinal, categories: [str, ...]} per feature")
        if self.task not in (TASK_REGRESSION, TASK_CLASSIFICATION):
            raise ModelInvariantError(f"unknown task {self.task!r}")
        tc = self.target_classes
        if tc is not None and not (self.task == TASK_CLASSIFICATION and isinstance(tc, list)
                                   and len(tc) == 2 and tc[0] != tc[1]
                                   and all(isinstance(c, str) for c in tc)):
            raise ModelInvariantError("target_classes must be 2 distinct strings of a classifier")
        for (i, j, wij) in self.interactions:
            if not (0 <= i < d and 0 <= j < d) or i == j:
                raise ModelInvariantError(f"interaction pair ({i}, {j}) out of range")
            if np.asarray(wij).shape != (self.basis.S,):
                raise ModelInvariantError("interaction weights must have length S")
        weights = [self.w0, self.W, self.bandwidth_scale or 0.0]
        weights += [wij for (_, _, wij) in self.interactions]
        if not all(np.all(np.isfinite(w)) for w in weights):
            raise ModelInvariantError("w0, W, interaction weights and bandwidth_scale "
                                      "must be finite")

    @property
    def d(self) -> int:
        return len(self.feature_names)

    @property
    def S(self) -> int:
        return self.basis.S


def _feature_vector(values, d, name):
    """``values`` as a finite float64 array with one entry per feature."""
    v = np.asarray(values, dtype=np.float64)
    if v.shape != (d,) or not np.all(np.isfinite(v)):
        raise ModelInvariantError(f"{name} must be finite, one per feature (d={d})")
    return v


def _valid_encoding(enc) -> bool:
    if not isinstance(enc, dict):
        return False
    if enc.get("kind") == "numeric":
        return True
    categories = enc.get("categories")
    return (enc.get("kind") == "ordinal" and isinstance(categories, list)
            and all(isinstance(c, str) for c in categories))


@dataclass(frozen=True)
class ShapeTable:
    """Per-feature shape function sampled on a grid in original units."""

    feature_index: int
    feature_name: str
    grid: np.ndarray
    values: np.ndarray
    offset: float


def _standardize_rows(model: GPNAMModel, X):
    means, scales = model.standardization
    with np.errstate(over="ignore", invalid="ignore"):
        return (np.asarray(X, dtype=np.float64) - means) / scales


def _folded_terms(model: GPNAMModel):
    """Each term of :func:`_kernels.terms` as (input columns, kernel width,
    frequencies, phases, amplitudes, interpolant), folded by
    :func:`rff.fold_mirrored` for predict: each feature's, with the
    :func:`_interpolant` of its shape function on its standardized training
    range (None for a model without ``feature_ranges``), then each pair's,
    whose interpolant is None.

    The list is built on the first call and kept on the model object,
    outside its dataclass fields, so :func:`save` and dataclass equality
    ignore it; it is rebuilt when an array or pair index it is built from
    has changed since."""
    pairs = [(i, j) for (i, j, _) in model.interactions]
    weights = [*model.W, *(wij for (_, _, wij) in model.interactions)]
    arrays = (model.basis.z, model.basis.pair_z, model.basis.c, model.b,
              *model.standardization, *(model.feature_ranges or ()), *weights)
    key = (pairs, b"".join(np.ascontiguousarray(a).tobytes() for a in arrays))
    cached = model.__dict__.get("_folded_terms")
    if cached is not None and cached[0] == key:
        return cached[1]
    ranges = [(None, None)] * len(weights)
    if model.feature_ranges is not None:
        # the arithmetic of _standardize_rows, so a training value stays inside
        ends = [_standardize_rows(model, v) for v in model.feature_ranges]
        ranges[:model.d] = zip(np.minimum(*ends), np.maximum(*ends))
    terms = []
    for (cols, width, F), w, (lo, hi) in zip(
            _kernels.terms(model.basis.z, model.basis.pair_z, model.b, pairs), weights, ranges):
        F, phase, amp = fold_mirrored(F, model.basis.c, w)
        cheb = None if lo is None else _interpolant(width, F, phase, amp, lo, hi)
        terms.append((cols, width, F, phase, amp, cheb))
    model.__dict__["_folded_terms"] = (key, terms)
    return terms


def _interpolant(width, F, phase, amp, lo, hi):
    """(lo, hi, coefficients) of the Chebyshev interpolant of the folded
    one-column term sum_t amp[t] * cos(F[t] * (u / width) + phase[t]) on
    [lo, hi], or None where the cosines are to stay.

    The Chebyshev-Lobatto points of degree n, mid + half * cos(pi k / n),
    nest as n doubles, so the term's own cosines are evaluated once, at the
    points of the highest degree allowed: the largest of CHEBYSHEV_DEGREES
    with at most CHEBYSHEV_PER_COSINE points per folded cosine. Each
    allowed degree, from the smallest up, takes the DCT
    (:func:`_chebyshev_coefficients`) of its subset of the values. The term
    is band-limited, so its coefficients fall to rounding level past a
    degree that grows with the range over the width: the first degree whose
    top quarter of coefficients is at most CHEBYSHEV_TOL times the largest
    |value| is resolved, and the longest tail whose |coefficients| sum to at
    most that much is dropped. None for a constant column (lo == hi), a
    range whose angles overflow, or a term that no allowed degree resolves.
    """
    mid, half = (lo + hi) / 2, (hi - lo) / 2
    reach = angle_bound(F, np.array([max(-lo, hi)]), width)
    if not (half > 0 and math.isfinite(mid) and math.isfinite(half) and np.isfinite(reach)):
        return None
    degrees = [n for n in CHEBYSHEV_DEGREES if n < CHEBYSHEV_PER_COSINE * len(amp)]
    if not degrees:
        return None
    top = degrees[-1]
    points = mid + half * np.cos(np.pi * np.arange(top + 1) / top)
    values = _term_values(width, F, phase, amp, [points])
    tol = CHEBYSHEV_TOL * np.max(np.abs(values))
    for n in degrees:
        coefs = _chebyshev_coefficients(values[::top // n])
        if np.max(np.abs(coefs[3 * n // 4 + 1:])) <= tol:
            tails = np.cumsum(np.abs(coefs[::-1]))[::-1]  # sum of |coefs[j:]|
            return lo, hi, coefs[:max(1, np.count_nonzero(tails > tol))]
    return None


def _chebyshev_coefficients(values):
    """Coefficients a_0..a_n of the Chebyshev series that takes ``values``
    at the points cos(pi k / n), k = 0..n: the DCT-I
    a_j = (2/n) sum_k'' values[k] cos(pi j k / n), the ends of the sum and
    a_0 and a_n halved. Each a_j is numpy's pairwise sum of one row of
    products, an order fixed by n, so no BLAS product rounds it."""
    n = len(values) - 1
    k = np.arange(n + 1)
    weights = values * (2.0 / n)
    weights[[0, n]] /= 2
    cosines = np.cos(np.pi * np.arange(2 * n) / n)[np.multiply.outer(k, k) % (2 * n)]
    coefs = np.sum(cosines * weights, axis=1)
    coefs[[0, n]] /= 2
    return coefs


def _clenshaw(x, coefs, out):
    """Fill ``out`` with the Chebyshev series sum_j coefs[j] * T_j(x) at each
    point of ``x`` by Clenshaw's recurrence, b_j = coefs[j] + 2x b_(j+1) -
    b_(j+2), then out = coefs[0] + x b_1 - b_2: a few multiply-adds per
    coefficient, elementwise, in one arithmetic order."""
    two_x = x + x
    b1, b2, step = np.zeros_like(x), np.zeros_like(x), np.empty_like(x)
    for a in coefs[:0:-1]:
        np.multiply(two_x, b1, out=step)
        step -= b2
        step += a
        b1, b2, step = step, b1, b2
    np.multiply(x, b1, out=out)
    out -= b2
    out += coefs[0]
    return out


def predict_raw(model: GPNAMModel, x) -> float:
    """Additive score g(x) for one raw-unit input vector, term by term from
    the basis; an input :func:`usable_rows` rejects is a ValueError."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.d,):
        raise ValueError(f"expected a vector of length {model.d}, got shape {x.shape}")
    if not usable_rows(model, x[None, :])[0]:
        raise ValueError("input is not finite or overflows the cosine angles")
    xs = _standardize_rows(model, x)
    g = model.w0
    for i in range(model.d):
        g += float(feature_map(model.basis, xs[i], model.b[i]) @ model.W[i])
    for (i, j, wij) in model.interactions:
        b_ij = math.sqrt(model.b[i] * model.b[j])
        g += float(pair_feature_map(model.basis, xs[i], xs[j], b_ij) @ wij)
    return float(g)


def _sum_terms(terms, xs) -> np.ndarray:
    """Each row of the standardized matrix ``xs`` summed over the folded
    ``terms`` of :func:`_folded_terms`: the sum from zero of each term's
    value, in term order.

    The terms go one at a time, each at its :func:`_kernels.term_points`,
    the points at which train's ``featurize`` evaluates it too: a one-column
    term depends on one scalar, so it is evaluated once per distinct value of
    its column and gathered back to the rows; a pair term is evaluated on
    every row. A term whose ``rff.angle_bound`` on those points is not finite
    (a NaN, an infinity, an overflowing angle) is a ValueError instead.

    A term with an interpolant (lo, hi, coefficients) takes its value at a
    point in [lo, hi] from :func:`_clenshaw`, in the calling thread, in
    chunks of _kernels.CHUNK_FLOATS // 5 points (its five arrays of a
    chunk's length stay in cache); it agrees with the cosines to rounding.
    Every other value - of a pair, of a term with no interpolant, at a point
    outside [lo, hi] - is its weighted cosines added one by one, from zero,
    in one fixed order (a BLAS product amp @ block would round each value
    differently with the block's row count), by :func:`_term_values`.
    Either way a value depends on its point and the term alone: a row's sum
    does not depend on the other rows, the chunk size or the thread count.
    """
    total = np.zeros(xs.shape[0])
    for cols, width, F, phase, amp, cheb in terms:
        points, index = _kernels.term_points(xs, cols)
        if not np.all(np.isfinite(angle_bound(F, np.abs(points), width))):
            raise ValueError("input is not finite or overflows the cosine angles")
        n = start = stop = len(points)
        values = np.empty(n)
        if cheb is not None:  # the points are sorted, so those in range are one run
            lo, hi, coefs = cheb
            start, stop = (np.searchsorted(points[:, 0], end, side)
                           for end, side in ((lo, "left"), (hi, "right")))
            chunk = _kernels.CHUNK_FLOATS // 5  # _clenshaw's five arrays a point
            for first in range(start, stop, chunk):
                run = slice(first, min(first + chunk, stop))
                u = (points[run, 0] - (lo + hi) / 2) / ((hi - lo) / 2)
                _clenshaw(u, coefs, values[run])
        for part in (slice(0, start), slice(stop, n)):
            if part.start < part.stop:
                values[part] = _term_values(width, F, phase, amp, list(points[part].T))
        total += values[index]
    return total


def _term_values(width, F, phase, amp, columns) -> np.ndarray:
    """sum_t amp[t] * cos(F[t] . (u / width) + phase[t]) at each point u of
    ``columns`` (one vector per column of F), the terms added from zero in
    order. The points go through :func:`_kernels.in_row_chunks` at len(amp)
    floats a point, so memory is O(_kernels.CHUNK_FLOATS) a thread whatever
    the point count, and one chunk's points start no thread."""
    values = np.zeros(columns[0].shape[0])

    def fill(chunks, rows):
        scratch = np.empty(len(amp) * rows)
        weighted = np.empty(rows)
        for part in chunks:
            m = part.stop - part.start
            block = scratch[:len(amp) * m].reshape(len(amp), m)
            _kernels.cosines([x[part] for x in columns], width, F, phase, block)
            out, term = values[part], weighted[:m]
            for a, cosines in zip(amp, block):
                out += np.multiply(cosines, a, out=term)

    _kernels.in_row_chunks(values.shape[0], len(amp), fill)
    return values


def usable_rows(model: GPNAMModel, X) -> np.ndarray:
    """Flags the rows of the raw n x d matrix ``X`` that ``predict`` scores:
    those whose standardized values and every term's ``rff.angle_bound`` are
    finite, the test :func:`_sum_terms` makes before its cosines on the
    folded terms; folding keeps each column's largest |F|, all the bound reads.
    A NaN or a huge cell, such as -1.7e308, fails it."""
    xs = np.abs(_standardize_rows(model, X))
    usable = np.ones(xs.shape[0], bool)
    pairs = [(i, j) for (i, j, _) in model.interactions]
    for cols, width, F in _kernels.terms(model.basis.z, model.basis.pair_z, model.b, pairs):
        usable &= np.isfinite(angle_bound(F, xs[:, list(cols)], width))
    return usable


def predict(model: GPNAMModel, X) -> np.ndarray:
    """Batched prediction on an n x d raw-unit matrix.

    Each feature and each interaction pair is a term, a sum of weighted
    cosines. Those whose frequencies agree up to sign are folded into one
    cosine (:func:`rff.fold_mirrored`), so a grid basis costs S//2 + S%2
    cosines per term and a Monte-Carlo basis S. :func:`_sum_terms` evaluates
    a feature's term once per distinct value of its column and a pair's on
    every row. A feature's value inside the standardized training range comes
    from its shape function's Chebyshev interpolant (:func:`_interpolant`,
    built on the first call on a model object), by Clenshaw's recurrence in
    the calling thread: a few dozen multiply-adds instead of the cosines, and
    equal to them to rounding. Every other value takes its cosines, in
    chunks of about _kernels.CHUNK_FLOATS cosines, on WORKERS threads for
    more than one chunk. g(x) is w0 plus the sum from zero of the term
    values in term order, and a feature's term value is bit for bit what
    ``shape_function(model, i, ..., centered=False)`` returns, so a row's
    prediction does not depend on the other rows of ``X`` or on the thread
    count. Regression returns g(x); classification returns sigmoid(g(x)).
    A row that :func:`usable_rows` rejects is a ValueError, with no warning.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.d:
        raise ValueError(f"expected an n x {model.d} matrix, got shape {X.shape}")
    g = _sum_terms(_folded_terms(model), _standardize_rows(model, X))
    g += model.w0
    return sigmoid(g) if model.task == TASK_CLASSIFICATION else g


def shape_function(model: GPNAMModel, i, grid, centered=True) -> ShapeTable:
    """Evaluate shape function f_i over a grid given in original units.

    Values come from predict's evaluator :func:`_sum_terms` and the same
    folded term and interpolant, so f_i at a point does not depend on the
    other grid points, and with ``centered`` False they are the term values
    that :func:`predict` adds, bit for bit. A grid inside the model's
    ``feature_ranges`` is evaluated from the interpolant alone.
    With ``centered`` the stored training-mean offset is subtracted (and
    reported), so exported curves average to zero over the training data.
    A grid point that is not finite or overflows an angle is a ValueError.
    """
    if not 0 <= i < model.d:
        raise ValueError(f"feature index {i} out of range for d={model.d}")
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1:
        raise ValueError("grid must be one-dimensional")
    means, scales = model.standardization
    with np.errstate(over="ignore", invalid="ignore"):
        gs = (grid - means[i]) / scales[i]
    term = ((0,),) + _folded_terms(model)[i][1:]  # the one column of gs
    values = _sum_terms([term], gs[:, None])
    offset = float(model.centering_offsets[i]) if centered else 0.0
    return ShapeTable(feature_index=int(i), feature_name=model.feature_names[i],
                      grid=grid.copy(), values=values - offset, offset=offset)


def param_count(model: GPNAMModel) -> int:
    """Trainable-parameter count: S*d + 1, plus S per interaction term."""
    return model.S * model.d + 1 + model.S * len(model.interactions)


def _atomic_write_text(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def save(model: GPNAMModel, path) -> None:
    """Serialize the model to versioned JSON (atomically)."""
    means, scales = model.standardization
    doc = {
        "schema_version": SCHEMA_VERSION,
        "task": model.task,
        "S": model.S,
        "mode": model.basis.mode,
        "seed": model.basis.seed,
        "d": model.d,
        "feature_names": list(model.feature_names),
        "standardization": {"means": means.tolist(), "scales": scales.tolist()},
        "b": model.b.tolist(),
        "w0": model.w0,
        "W": model.W.tolist(),
        "centering_offsets": model.centering_offsets.tolist(),
        "interactions": [{"i": i, "j": j, "w": np.asarray(w).tolist()}
                         for (i, j, w) in model.interactions] or None,
        "encodings": model.encodings,
        "feature_ranges": None if model.feature_ranges is None else {
            "mins": model.feature_ranges[0].tolist(),
            "maxs": model.feature_ranges[1].tolist(),
        },
        "bandwidth_scale": model.bandwidth_scale,
    }
    if model.target_classes is not None:
        doc["target_classes"] = model.target_classes
    _atomic_write_text(path, json.dumps(doc, indent=1) + "\n")


_REQUIRED_FIELDS = ("schema_version", "task", "S", "mode", "seed", "d",
                    "feature_names", "standardization", "b", "w0", "W",
                    "centering_offsets")


def _json_int(value):
    """``value`` if it is a JSON integer; int() would read 0.9 as 0 and true as 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _json_real(value) -> float:
    """``value`` as a float if it is a JSON number; float() would also read
    the string "0.5" and true."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _json_reals(values) -> np.ndarray:
    """A JSON number, or nested lists of them, as a float64 array; numpy
    alone would also read strings and booleans as reals."""
    cells = np.asarray(values, dtype=object)
    return np.array([_json_real(v) for v in cells.flat], dtype=np.float64).reshape(cells.shape)


def load(path) -> GPNAMModel:
    """Load and validate a model file saved by :func:`save`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except UnicodeDecodeError as exc:
        raise MalformedModelError(f"{path}: not UTF-8 ({exc})") from None
    except json.JSONDecodeError as exc:
        raise MalformedModelError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise MalformedModelError(f"{path}: expected a JSON object")
    missing = [k for k in _REQUIRED_FIELDS if k not in doc]
    if missing:
        raise MalformedModelError(f"{path}: missing field(s) {missing}")
    try:
        version = _json_int(doc["schema_version"])
    except ValueError as exc:
        raise MalformedModelError(f"{path}: malformed schema_version ({exc})") from None
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"{path}: schema version {version!r} unsupported (expected {SCHEMA_VERSION})")
    if doc["mode"] not in MODES:
        raise ModelInvariantError(f"{path}: unknown basis mode {doc['mode']!r}")
    try:
        S = _json_int(doc["S"])
        d = _json_int(doc["d"])
        # not list() or str(): "abc" would be three features, [1, 2] names "1", "2"
        feature_names = doc["feature_names"]
        if not (isinstance(feature_names, list)
                and all(isinstance(v, str) for v in feature_names)):
            raise ValueError("feature_names must be a list of strings")
        means = _json_reals(doc["standardization"]["means"])
        scales = _json_reals(doc["standardization"]["scales"])
        b = _json_reals(doc["b"])
        w0 = _json_real(doc["w0"])
        W = _json_reals(doc["W"])
        offsets = _json_reals(doc["centering_offsets"])
        raw_inter = doc.get("interactions") or []
        interactions = [(_json_int(e["i"]), _json_int(e["j"]), _json_reals(e["w"]))
                        for e in raw_inter]
        seed = _json_int(doc["seed"])
        ranges = None
        if doc.get("feature_ranges"):
            ranges = (_json_reals(doc["feature_ranges"]["mins"]),
                      _json_reals(doc["feature_ranges"]["maxs"]))
        bw = doc.get("bandwidth_scale")
        bw = None if bw is None else _json_real(bw)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedModelError(f"{path}: malformed field ({exc})") from None
    if S < 1:
        raise ModelInvariantError(f"{path}: S must be >= 1")
    if len(feature_names) != d:
        raise ModelInvariantError(f"{path}: d={d} but {len(feature_names)} feature names")
    # before build_basis, whose time and memory grow with S
    if W.shape != (d, S) or any(w.shape != (S,) for (_, _, w) in interactions):
        raise ModelInvariantError(f"{path}: W must be {d} x {S}, and each interaction "
                                  f"weight of length {S}")

    basis = build_basis(S, doc["mode"], seed)
    try:
        return GPNAMModel(basis=basis, feature_names=feature_names, task=doc["task"],
                          w0=w0, W=W, b=b, standardization=(means, scales),
                          centering_offsets=offsets, interactions=interactions,
                          encodings=doc.get("encodings"), feature_ranges=ranges,
                          bandwidth_scale=bw, target_classes=doc.get("target_classes"))
    except ModelInvariantError as exc:
        raise ModelInvariantError(f"{path}: {exc}") from None


def csv_field(text: str) -> str:
    """``text`` as a CSV field, quoted (as csv.QUOTE_MINIMAL) if it holds , " CR or LF."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_shape_csv(tables, path) -> None:
    """Concatenated shape-function export: header feature,x,f with reals at
    9 significant digits, UTF-8, LF line endings."""
    lines = ["feature,x,f"]
    for t in tables:
        name = csv_field(t.feature_name)
        for x, v in zip(t.grid, t.values):
            lines.append(f"{name},{x:.9g},{v:.9g}")
    _atomic_write_text(path, "\n".join(lines) + "\n")


def training_ranges(X_raw) -> tuple[np.ndarray, np.ndarray]:
    """Per-column (min, max) of a raw-unit training matrix."""
    X_raw = np.asarray(X_raw, dtype=np.float64)
    return X_raw.min(axis=0), X_raw.max(axis=0)
