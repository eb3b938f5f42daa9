"""Trained additive model: prediction, shape functions, persistence.

The model file is versioned JSON with explicit field names; reals serialize
at full round-trip precision (Python repr), so save/load reproduces every
parameter bit-exactly. The RFF basis is not stored verbatim - it is rebuilt
from (S, mode, seed), which the basis construction guarantees to be
bit-reproducible.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .data import TASK_CLASSIFICATION, TASK_REGRESSION
from .errors import MalformedModelError, ModelInvariantError, SchemaVersionError
from .rff import (MODES, FeatureBasis, build_basis, feature_map, fold_mirrored,
                  pair_feature_map)
from .solvers import sigmoid

SCHEMA_VERSION = 1

# Rows evaluated at once by predict.
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

    def __post_init__(self):
        d = len(self.feature_names)
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
        if self.interactions and self.basis.pair_z is None:
            raise ModelInvariantError("interaction terms need a basis with pairwise frequencies")
        for (i, j, wij) in self.interactions:
            if not (0 <= i < d and 0 <= j < d) or i == j:
                raise ModelInvariantError(f"interaction pair ({i}, {j}) out of range")
            if np.asarray(wij).shape != (self.basis.S,):
                raise ModelInvariantError("interaction weights must have length S")

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
    return (np.asarray(X, dtype=np.float64) - means) / scales


def _folded_terms(model: GPNAMModel):
    """Each additive term as (input columns, kernel width, frequencies, phases,
    amplitudes), its cosines folded by :func:`rff.fold_mirrored`."""
    F, phase, amp = fold_mirrored(model.basis.z, model.basis.c, model.W)
    terms = [((i,), model.b[i], F, phase[i], amp[i]) for i in range(model.d)]
    if model.interactions:
        w = np.array([wij for (_, _, wij) in model.interactions])
        F, phase, amp = fold_mirrored(model.basis.pair_z, model.basis.c, w)
        terms += [((i, j), math.sqrt(model.b[i] * model.b[j]), F, phase[k], amp[k])
                  for k, (i, j, _) in enumerate(model.interactions)]
    return terms


def _cosines(columns, width, F, phase, out):
    """Fill ``out`` (terms x rows) with cos(sum_k F[:, k] * columns[k] / width + phase).
    Each term's row of ``out`` is contiguous, so every pass writes whole rows."""
    np.multiply.outer(F[:, 0], columns[0] / width, out=out)
    for f, x in zip(F.T[1:], columns[1:]):
        out += np.multiply.outer(f, x / width)
    out += phase[:, None]
    np.cos(out, out=out)
    return out


def predict_raw(model: GPNAMModel, x) -> float:
    """Additive score g(x) for one raw-unit input vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.d,):
        raise ValueError(f"expected a vector of length {model.d}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("input contains non-finite entries")
    xs = _standardize_rows(model, x)
    g = model.w0
    for i in range(model.d):
        g += float(feature_map(model.basis, xs[i], model.b[i]) @ model.W[i])
    for (i, j, wij) in model.interactions:
        b_ij = math.sqrt(model.b[i] * model.b[j])
        g += float(pair_feature_map(model.basis, xs[i], xs[j], b_ij) @ wij)
    return float(g)


def predict(model: GPNAMModel, X) -> np.ndarray:
    """Batched prediction on an n x d raw-unit matrix.

    Each feature and each interaction pair is a sum of weighted cosines.
    Those whose frequencies agree up to sign are folded into one cosine
    (:func:`rff.fold_mirrored`), so a grid basis costs S//2 + S%2 cosines per
    term and a Monte-Carlo basis S. Rows are evaluated PREDICT_CHUNK at a time
    and each chunk's cosine block is dropped once summed, so memory is
    O(PREDICT_CHUNK * terms) whatever n is. Each row's terms are added in one
    fixed order, so a row's prediction does not depend on the other rows of
    ``X``. Regression returns g(x); classification returns sigmoid(g(x)).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.d:
        raise ValueError(f"expected an n x {model.d} matrix, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("input contains non-finite entries")
    xs = _standardize_rows(model, X)
    terms = _folded_terms(model)
    amp = np.concatenate([t[4] for t in terms])
    bounds = np.cumsum([0] + [len(t[4]) for t in terms])
    g = np.empty(X.shape[0])
    for start in range(0, X.shape[0], PREDICT_CHUNK):
        rows = xs[start:start + PREDICT_CHUNK]
        out = np.empty((amp.shape[0], rows.shape[0]))
        for (cols, width, F, phase, _), lo, hi in zip(terms, bounds, bounds[1:]):
            _cosines([rows[:, k] for k in cols], width, F, phase, out[lo:hi])
        # a BLAS product amp @ out would round each row differently with the
        # chunk's row count; adding the weighted term rows one by one does not
        total, term = np.zeros(rows.shape[0]), np.empty(rows.shape[0])
        for a, cosines in zip(amp, out):
            total += np.multiply(cosines, a, out=term)
        g[start:start + PREDICT_CHUNK] = model.w0 + total
    return sigmoid(g) if model.task == TASK_CLASSIFICATION else g


def shape_function(model: GPNAMModel, i, grid, centered=True) -> ShapeTable:
    """Evaluate shape function f_i over a grid given in original units.

    With ``centered`` the stored training-mean offset is subtracted (and
    reported), so exported curves average to zero over the training data.
    """
    if not 0 <= i < model.d:
        raise ValueError(f"feature index {i} out of range for d={model.d}")
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1:
        raise ValueError("grid must be one-dimensional")
    if not np.all(np.isfinite(grid)):
        raise ValueError("grid contains non-finite entries")
    means, scales = model.standardization
    gs = (grid - means[i]) / scales[i]
    F, phase, amp = fold_mirrored(model.basis.z, model.basis.c, model.W[i])
    values = amp @ _cosines([gs], model.b[i], F, phase, np.empty((amp.shape[0], gs.shape[0])))
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
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw)
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

    basis = build_basis(S, doc["mode"], seed, with_pairs=bool(interactions))
    try:
        return GPNAMModel(basis=basis, feature_names=feature_names, task=doc["task"],
                          w0=w0, W=W, b=b, standardization=(means, scales),
                          centering_offsets=offsets, interactions=interactions,
                          encodings=doc.get("encodings"), feature_ranges=ranges,
                          bandwidth_scale=bw)
    except ModelInvariantError as exc:
        raise ModelInvariantError(f"{path}: {exc}") from None


def write_shape_csv(tables, path) -> None:
    """Concatenated shape-function export: header feature,x,f with reals at
    9 significant digits, UTF-8, LF line endings."""
    lines = ["feature,x,f"]
    for t in tables:
        for x, v in zip(t.grid, t.values):
            lines.append(f"{t.feature_name},{x:.9g},{v:.9g}")
    _atomic_write_text(path, "\n".join(lines) + "\n")


def training_ranges(X_raw) -> tuple[np.ndarray, np.ndarray]:
    """Per-column (min, max) of a raw-unit training matrix."""
    X_raw = np.asarray(X_raw, dtype=np.float64)
    return X_raw.min(axis=0), X_raw.max(axis=0)
