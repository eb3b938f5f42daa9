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
distinct value of its column and gathered back to the rows. So a prediction
does not depend on the other rows or on the thread count, and without pairs
it is exactly w0 plus the uncentered shape values of its features.
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

# Values of one term evaluated at once by predict and shape_function, across
# all threads.
PREDICT_CHUNK = 4096


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
    frequencies, phases, amplitudes), folded by :func:`rff.fold_mirrored` for predict."""
    pairs = [(i, j) for (i, j, _) in model.interactions]
    weights = list(model.W) + [wij for (_, _, wij) in model.interactions]
    terms = _kernels.terms(model.basis.z, model.basis.pair_z, model.b, pairs)
    return [(cols, width) + fold_mirrored(F, model.basis.c, w)
            for (cols, width, F), w in zip(terms, weights)]


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
    (a NaN, an infinity, an overflowing angle) is a ValueError instead. A
    term's value is its weighted cosines added one by one, from zero, in one
    fixed order (a BLAS product amp @ block would round each value
    differently with the block's row count), so it depends on its inputs
    alone: a row's sum does not depend on the other rows, the chunk size or
    the thread count. Values go in chunks through
    :func:`_kernels.in_row_chunks`, so at most PREDICT_CHUNK values of one
    term are in flight (memory is O(PREDICT_CHUNK * S) whatever n is), and a
    term of at most PREDICT_CHUNK values starts no thread.
    """
    total = np.zeros(xs.shape[0])
    for cols, width, F, phase, amp in terms:
        points, index = _kernels.term_points(xs, cols)
        if not np.all(np.isfinite(angle_bound(F, np.abs(points), width))):
            raise ValueError("input is not finite or overflows the cosine angles")
        total += _term_values(width, F, phase, amp, list(points.T))[index]
    return total


def _term_values(width, F, phase, amp, columns) -> np.ndarray:
    """sum_t amp[t] * cos(F[t] . (u / width) + phase[t]) at each point u of
    ``columns`` (one vector per column of F), the terms added from zero in
    order."""
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

    _kernels.in_row_chunks(values.shape[0], PREDICT_CHUNK, fill)
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
    every row, in chunks, on WORKERS threads for more than PREDICT_CHUNK
    values. g(x) is w0 plus the sum from zero of the term values in term
    order, and a feature's term value is bit for bit what
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

    Values come from predict's evaluator :func:`_sum_terms`, so f_i at a
    point does not depend on the other grid points, and with ``centered``
    False they are the term values that :func:`predict` adds, bit for bit.
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
    F, phase, amp = fold_mirrored(model.basis.z, model.basis.c, model.W[i])
    values = _sum_terms([((0,), model.b[i], F, phase, amp)], gs[:, None])
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
