"""Tabular data ingestion, standardization, kernel widths, splits.

CSV files are RFC-4180-style with a mandatory header row, UTF-8 (a leading
byte-order mark is skipped; other bytes are a ``DataError``), ``.`` decimal
separator. Training (``load_csv``) and prediction (``load_features``) ingest
run through one reader, ``_read_lines``, and parse each cell they read once
into one float matrix (``_tabulate``): its number, NaN if missing
(a marker, or a number whose float value is not finite, such as ``1e309``)
and inf for text. Rows with a NaN are dropped and counted, never imputed. A
column whose kept cells are all numbers is numeric, any other is
ordinal-encoded by first appearance (``_encode_column``). Text in a
regression target or a stored numeric column and a category unseen at
training are missing. Classification labels are the only other text read.

In a file without ``"`` or CR a byte scan (``_scan``) marks the lines that
one ``np.loadtxt`` call and ``str.split`` read; ``csv.reader`` reads the
others, or the whole file when it holds ``"`` or CR. The tables are
bit-identical to those of ``csv.reader`` reading every line.

Training splits raw rows, then fits means, scales and widths on the training
part. Splits and synthetic data use ``numpy.random.default_rng`` (PCG64), so
every operation here is bit-reproducible from its seed.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, EmptyDataError, MissingColumnError, TargetClassError

TASK_REGRESSION = "regression"
TASK_CLASSIFICATION = "binary_classification"
TASKS = (TASK_REGRESSION, TASK_CLASSIFICATION)

# Cell values treated as missing (case-insensitive, after strip). Any other
# cell that float() reads as non-finite is missing too (_is_missing), so one
# stray "1e309" drops a row instead of turning a numeric column ordinal.
MISSING_MARKERS = frozenset({"", "na", "n/a", "nan", "null", "?",
                             "inf", "+inf", "-inf", "infinity", "-infinity"})

#: Ground-truth shape functions cycled through by synth_additive.
SHAPE_FUNCTIONS = {
    "sin3": lambda t: np.sin(3.0 * t),
    "square": lambda t: np.square(t),
    "tanh2": lambda t: np.tanh(2.0 * t),
    "abs": np.abs,
    "identity": lambda t: np.asarray(t, dtype=np.float64),
}
SHAPE_CYCLE = ("sin3", "square", "tanh2", "abs", "identity")


@dataclass
class Dataset:
    """In-memory tabular dataset.

    ``X`` is an n x d float matrix, ``y`` the target (floats for regression,
    0/1 for classification). ``encodings`` records per-feature provenance:
    ``{"kind": "numeric"}`` or ``{"kind": "ordinal", "categories": [...]}``
    with categories in code order. ``standardization`` is ``(means, scales)``
    once ``standardize`` has run, else None.
    """

    X: np.ndarray
    y: np.ndarray
    feature_names: list[str]
    task: str
    encodings: list[dict]
    standardization: tuple[np.ndarray, np.ndarray] | None = None
    target_classes: list[str] | None = None
    ingest_report: dict | None = None
    shape_names: list[str] | None = None

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def _cell_value(cell: str) -> float:
    """A cell parsed once: its float value if finite, NaN if the cell is
    missing (a marker, or a number float() reads as non-finite), else inf
    (text that is not a number)."""
    try:
        v = float(cell)
    except ValueError:
        # every marker that float() reads (nan, inf, ...) is non-finite
        return math.nan if cell.strip().lower() in MISSING_MARKERS else math.inf
    return v if math.isfinite(v) else math.nan


def _is_missing(cell: str) -> bool:
    return math.isnan(_cell_value(cell))


def _read_lines(path, text_names, infer):
    """The one reader of a CSV file: ``(header, lines, rows, fast, text)``:
    the data lines ``_scan`` marks fast, the ``csv.reader`` rows of the other
    non-blank ones, flags of the fast ones among all in file order, and flags
    of the text columns (``text_names`` and, if ``infer``, the scan's). Without
    ``"`` or CR a line is one ``csv.reader`` record, as ``str.split`` reads it.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw in (b"", b"\xef\xbb\xbf"):
        raise EmptyDataError(f"{path}: file is empty")
    if b'"' in raw or b"\r" in raw:
        header, *rows = csv.reader(io.StringIO(raw.decode("utf-8-sig"), newline=""))
        header, lines, fast = _clean_header(path, header), [], np.zeros(len(rows), bool)
        text = np.isin(header, text_names)
    else:  # the scan runs before the text is split, so their memory does not add up
        first = raw[:raw.find(b"\n")] if b"\n" in raw else raw
        header = _clean_header(path, next(csv.reader([first.decode("utf-8-sig")])))
        fast, text = _scan(raw, np.isin(header, text_names), infer)
        lines = raw.decode("utf-8-sig").split("\n")
        del raw, lines[0]
        rows = list(csv.reader(itertools.compress(lines, (~fast).tolist())))
        lines = list(itertools.compress(lines, fast.tolist()))
    present = fast.copy()
    present[~fast] = [any(cell.strip() for cell in row) for row in rows]  # not blank
    if not present.any():
        raise EmptyDataError(f"{path}: no data rows")
    rows = list(itertools.compress(rows, present[~fast].tolist()))
    return header, lines, rows, fast[present], text


def _clean_header(path, header):
    header = [h.strip() for h in header]
    repeated = sorted({h for h in header if header.count(h) > 1})
    if repeated:
        raise DataError(f"{path}: column name(s) {repeated} repeated in header")
    return header


# Byte classes of the scan: 0 a character of a number, 1 any other, 2 ",", 3 LF.
_BYTE_CLASS = bytes({44: 2, 10: 3}.get(b, 0 if chr(b) in "0123456789.+-eE" else 1)
                    for b in range(256))


def _scan(raw, text, infer):
    """Flags the fast data lines of the bytes ``raw`` (LF-separated, the first
    the header, ``text.size`` its cell count); returns ``(fast, text)``.

    A full line has the header's cell count and no cell empty or longer
    than ``csv.field_size_limit()``. A fast one is a full data line whose
    bytes other than ``0-9 . + - e E`` lie in ``text`` columns only, and not
    in each of its cells (such a line may be blank). ``infer`` adds to
    ``text`` each column holding such a byte on a full data line in a cell
    that is not a missing marker (a line holding a marker is dropped). No
    byte of a UTF-8 multibyte character is a comma or LF.
    """
    codes = np.frombuffer((raw + b"\n").translate(_BYTE_CLASS), np.uint8)
    seps = np.flatnonzero(codes >= 2)  # the separator ending each cell
    ends = np.flatnonzero(codes[seps] == 3)  # the separator ending each line
    odd = codes == 1
    del codes
    # a cell holds such a byte iff a run of them starts in it (a run at byte 0
    # is the header's, whose flags go unused); one flag per cell
    other = np.zeros(seps.size, bool)
    other[np.searchsorted(seps, np.flatnonzero(odd[1:] > odd[:-1]) + 1)] = True
    del odd
    # separator j ends a cell of gaps[j - 1] - 1 bytes (the first one ends the header's)
    gaps = np.diff(seps)
    full = np.diff(ends, prepend=-1) == text.size
    full[np.searchsorted(ends, np.flatnonzero(
        (gaps == 1) | (gaps > csv.field_size_limit() + 1)) + 1)] = False
    full[0] = False  # the header
    cells = np.flatnonzero(other)
    line = np.searchsorted(ends, cells)
    cells, line = cells[full[line]], line[full[line]]  # the flagged cells of full lines
    col = cells - ends[line - 1] - 1
    for j in np.unique(col) if infer else ():  # a flagged cell that is not a missing marker
        text[j] |= not all(_is_missing(raw[seps[k - 1] + 1:seps[k]].decode(errors="replace"))
                           for k in cells[col == j])  # bad UTF-8 is reported once decoded
    fast = full.copy()
    fast[line[~text[col]]] = False
    fast[np.bincount(line, minlength=fast.size) == text.size] = False  # flags in every cell
    return fast[1:], text


def _encode_column(cells, enc=None):
    """Category codes of one column of string cells; returns (float64 array,
    encoding). ``enc`` None numbers the categories by first appearance in
    cells already cleared of missing ones; under a given ``enc`` a cell that
    is not one of its categories becomes NaN."""
    if enc is None:
        codes = {}
        vals = [codes.setdefault(cell.strip(), float(len(codes))) for cell in cells]
        return np.array(vals, dtype=np.float64), {"kind": "ordinal", "categories": list(codes)}
    # a category that is itself a missing marker never matches a cell, as at training
    codes = {cat: float(k) for k, cat in enumerate(enc["categories"]) if not _is_missing(cat)}
    return np.array([codes.get(cell.strip()) for cell in cells], dtype=np.float64), enc


def _encode_labels(cells, classes=None):
    """Encode classification target cells; returns (y, classes). The two
    classes map to {0, 1}: ``classes`` when given, else the sorted distinct
    values."""
    labels = [c.strip() for c in cells]
    if classes is None:
        classes = sorted(set(labels), key=_class_sort_key)
        if len(classes) != 2:
            raise TargetClassError(
                f"classification target must have exactly 2 distinct values, found {len(classes)}")
    else:
        unseen = sorted(set(labels) - set(classes))
        if unseen:
            raise TargetClassError(f"target value(s) {unseen} unseen at training time")
    mapping = {cls: float(k) for k, cls in enumerate(classes)}
    return np.array([mapping[c] for c in labels]), list(classes)


def _class_sort_key(value: str):
    v = _cell_value(value)
    return (0, v, value) if math.isfinite(v) else (1, 0.0, value)


def _read_table(path, target_column, task, feature_names=None, encodings=None,
                target_classes=None):
    """The reader core of both loaders; returns (Dataset, kept), where kept
    flags each data row of the file that survived. ``feature_names`` None
    reads every column but the target, and ``encodings`` None infers each
    column's encoding after dropping the rows with a missing feature cell;
    ``y`` is None without a target column. Bytes that are not UTF-8 and a
    cell longer than the csv module's field limit are a ``DataError``."""
    labels = [target_column] if target_column is not None and task != TASK_REGRESSION else []
    text_names = [nm for nm, enc in zip(feature_names or [], encodings or [])
                  if enc["kind"] != "numeric"] + labels
    try:
        table = _read_lines(path, text_names, encodings is None)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: not a readable UTF-8 CSV file ({exc})") from None
    return _tabulate(path, *table, target_column, task, feature_names, encodings,
                     target_classes)


def _tabulate(path, header, lines, rows, fast, text, target_column, task, feature_names,
              encodings, target_classes):
    """The table of one file, built on one float matrix ``values``.

    ``values`` has one row per non-blank data line, in the file order
    ``fast`` gives, and one column per column read (features, then the
    target). ``np.loadtxt`` reads the fast ``lines``' cells outside the
    ``text`` columns, ``_cell_value`` the others (all of them if loadtxt
    rejects one) and a stored category column holds codes. A row with a
    NaN is dropped; ``X`` and a regression ``y`` are slices of ``values``.
    """
    names = [h for h in header if h != target_column] if feature_names is None else feature_names
    missing = [nm for nm in names if nm not in header]
    if missing:
        raise MissingColumnError(f"feature column(s) {missing} not in header {header}")
    if (target_column is not None or feature_names is None) and target_column not in header:
        raise MissingColumnError(f"target column {target_column!r} not in header {header}")
    if not names:
        raise DataError(f"{path}: no feature column besides the target {target_column!r}")
    d = len(names)
    t_idx = None if target_column is None else header.index(target_column)
    cols = [header.index(nm) for nm in names] + ([] if t_idx is None else [t_idx])
    values = np.empty((fast.size, len(cols)))
    num = [j for j, i in enumerate(cols) if not text[i]] if lines else []  # loadtxt's columns
    try:
        numbers = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                             usecols=[cols[j] for j in num]) if num else None
    except ValueError:  # a cell such as "1e" or "1..2", which float() rejects too
        numbers, num = None, []
    if numbers is not None:
        numbers[~np.isfinite(numbers)] = np.nan  # a non-finite number is a missing cell
        if len(num) < len(cols):
            values[np.ix_(fast, num)] = numbers
        elif fast.all():  # no second copy of a file of fast lines only
            values = numbers
        else:
            values[fast] = numbers
        del numbers
    blank = [""] * len(header)  # every cell of a ragged row is missing
    rows = [row if len(row) == len(header) else blank for row in rows]
    strings = {}  # the cells of each text column read, every row in file order
    for i in {i for j, i in enumerate(cols) if j not in num}:
        strings[i] = np.empty(fast.size, object)
        strings[i][fast] = [line.split(",")[i] for line in lines]
        strings[i][~fast] = [row[i] for row in rows]
    for j, (i, enc) in enumerate(zip(cols, [*(encodings or [None] * d), None])):
        at, cells = (~fast, [row[i] for row in rows]) if j in num else (slice(None), strings[i])
        if enc and enc["kind"] != "numeric":
            values[at, j] = _encode_column(cells, enc)[0]
            continue
        vals = np.array([_cell_value(cell) for cell in cells], dtype=np.float64)
        if enc or (j == d and task == TASK_REGRESSION):
            vals[np.isinf(vals)] = np.nan  # text where a number must be is missing
        values[at, j] = vals
    kept = ~np.isnan(values).any(axis=1)
    encs = encodings
    if encodings is None:
        # an inferred column is numeric iff its kept values are all finite; a
        # kept row holds text only in the scan's text columns, which strings holds
        encs = [{"kind": "numeric"} for _ in range(d)]
        for j in np.flatnonzero(np.isinf(values[kept, :d]).any(axis=0)):
            values[kept, j], encs[j] = _encode_column(strings[cols[j]][kept])
    if not kept.any():
        raise EmptyDataError(f"{path}: every row was dropped during ingestion")
    X = values[kept, :d]
    y = values[kept, d] if t_idx is not None and task == TASK_REGRESSION else None
    if t_idx is not None and task != TASK_REGRESSION:  # the target is a text column
        y, target_classes = _encode_labels(strings[t_idx][kept], target_classes)
    report = {"rows_read": fast.size, "rows_dropped": fast.size - X.shape[0]}
    return Dataset(X=X, y=y, feature_names=names, task=task, encodings=encs,
                   target_classes=target_classes, ingest_report=report), kept


def load_csv(path, target_column, task) -> Dataset:
    """Ingest a CSV file into a Dataset.

    Rows with any missing cell (or, for regression, an unparseable target)
    are dropped; the count lands in ``ingest_report``. The classification
    target must hold exactly two distinct values, mapped to {0, 1} in sorted
    order (numeric when both values parse, lexicographic otherwise).
    """
    if task not in TASKS:
        raise ValueError(f"task must be one of {TASKS}, got {task!r}")
    ds, _ = _read_table(path, target_column, task)
    ds.ingest_report["encodings"] = {name: enc["kind"]
                                     for name, enc in zip(ds.feature_names, ds.encodings)}
    return ds


def load_features(path, feature_names, encodings, target_column=None, task=None,
                  target_classes=None):
    """Read feature columns with a trained model's encodings.

    Returns ``(X, y, row_ids, report)`` where row_ids index the file's data
    rows (0-based) that survived; rows with missing cells, unparseable numeric
    cells, or categories unseen at training time are dropped. ``y`` is None
    unless ``target_column`` is given, in which case the target is parsed per
    ``task`` (classification labels must be among ``target_classes`` when
    those are known).
    """
    ds, kept = _read_table(path, target_column, task, feature_names, encodings, target_classes)
    return ds.X, ds.y, np.flatnonzero(kept), ds.ingest_report


def standardize(ds: Dataset) -> Dataset:
    """Center/scale each column to mean 0, population std 1.

    Constant columns keep scale 1 (with a warning). The (mean, scale) pairs
    are stored on the returned Dataset; a model applies them to raw inputs.
    """
    if ds.standardization is not None:
        raise ValueError("dataset is already standardized")
    means = ds.X.mean(axis=0)
    scales = ds.X.std(axis=0)
    constant = scales == 0.0
    if np.any(constant):
        names = [ds.feature_names[i] for i in np.flatnonzero(constant)]
        warnings.warn(f"constant feature column(s) {names}: scale set to 1")
        scales = scales.copy()
        scales[constant] = 1.0
    X = (ds.X - means) / scales
    return replace(ds, X=X, standardization=(means, scales))


def kernel_widths(ds: Dataset, scale_factor=1.0) -> np.ndarray:
    """Kernel widths b_i = scale_factor * std of standardized column i, which
    ``standardize`` makes 1 (a constant column gets scale_factor too)."""
    if not 0.0 < scale_factor < math.inf:  # NaN fails too
        raise ValueError("scale_factor must be positive and finite")
    if ds.standardization is None:
        raise ValueError("kernel widths require a standardized dataset")
    return np.full(ds.d, float(scale_factor))


def split_fractions(fractions) -> tuple:
    """Check train/val/test fractions: three positive floats summing to 1."""
    fractions = tuple(float(f) for f in fractions)
    if len(fractions) != 3 or not all(f > 0 for f in fractions):  # NaN fails too
        raise ValueError("need three positive split fractions")
    if not abs(sum(fractions) - 1.0) <= 1e-9:
        raise ValueError("split fractions must sum to 1")
    return fractions


def split(ds: Dataset, fractions=(0.8, 0.1, 0.1), seed=0):
    """Deterministic train/val/test split.

    A seeded permutation is sliced contiguously. For classification the
    permutation is stratified: each class is shuffled separately and the
    classes are interleaved by within-class position, so any contiguous slice
    preserves class proportions to within one element per class. AUC scores
    the validation part, so when a validation part of two or more rows lacks
    a class of which training holds two or more rows, training's last row of
    that class trades places with the validation part's last row.
    """
    fractions = split_fractions(fractions)
    n = ds.n
    rng = np.random.default_rng(int(seed))
    if ds.task == TASK_CLASSIFICATION:
        order = _stratified_order(ds.y, rng)
    else:
        order = rng.permutation(n)
    n_train = int(n * fractions[0])
    n_val = int(n * fractions[1])
    n_test = n - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise ValueError(f"split of {n} rows by {fractions} leaves an empty part")
    train, val, test = order[:n_train], order[n_train:n_train + n_val], order[n_train + n_val:]
    if ds.task == TASK_CLASSIFICATION and n_val > 1:
        for cls in np.unique(ds.y):
            rows = np.flatnonzero(ds.y[train] == cls)
            if rows.size > 1 and not np.any(ds.y[val] == cls):
                train[rows[-1]], val[-1] = val[-1], train[rows[-1]]
    return tuple(_take(ds, idx) for idx in (train, val, test))


def _stratified_order(y, rng):
    chunks, keys = [], []
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        idx = idx[rng.permutation(idx.size)]
        chunks.append(idx)
        keys.append((np.arange(idx.size) + 0.5) / idx.size)
    order = np.concatenate(chunks)
    return order[np.argsort(np.concatenate(keys), kind="stable")]


def _take(ds: Dataset, idx) -> Dataset:
    return replace(ds, X=ds.X[idx], y=ds.y[idx], ingest_report=None)


def synth_additive(n, d, noise_sd, seed=0, shapes=None) -> Dataset:
    """Synthetic additive regression data with known ground truth.

    X ~ Uniform[-2, 2]^d and y = sum_i h_i(x_i) + N(0, noise_sd^2), where the
    h_i cycle through SHAPE_CYCLE by feature index (or take the given shape
    names). The shape names are stored for recovery experiments.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    if not 0 <= noise_sd < math.inf:  # written so that NaN fails
        raise ValueError("noise_sd must be nonnegative and finite")
    if shapes is None:
        shapes = [SHAPE_CYCLE[i % len(SHAPE_CYCLE)] for i in range(d)]
    else:
        shapes = list(shapes)
        if len(shapes) != d:
            raise ValueError("need one shape name per feature")
        unknown = [s for s in shapes if s not in SHAPE_FUNCTIONS]
        if unknown:
            raise ValueError(f"unknown shape name(s) {unknown}")
    rng = np.random.default_rng(int(seed))
    X = rng.uniform(-2.0, 2.0, (int(n), int(d)))
    y = np.zeros(int(n))
    for i, name in enumerate(shapes):
        y += SHAPE_FUNCTIONS[name](X[:, i])
    y += rng.normal(0.0, noise_sd, int(n))
    names = [f"x{i + 1}" for i in range(d)]
    return Dataset(X=X, y=y, feature_names=names, task=TASK_REGRESSION,
                   encodings=[{"kind": "numeric"} for _ in range(d)],
                   shape_names=shapes)
