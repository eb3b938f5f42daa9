"""CSV ingestion, standardization, widths, splits, synthetic data."""

import contextlib
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gpnam import data
from gpnam.errors import DataError, EmptyDataError, MissingColumnError, TargetClassError


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def small_clf_csv(tmp_path):
    return write_csv(tmp_path / "small.csv", "a,b,y\n1,2,0\n3,4,1\n5,6,0\n")


def read_rows(path):
    """The header and the non-blank rows of a file, all read by csv.reader."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        header, *rows = csv.reader(fh)
    return [h.strip() for h in header], [row for row in rows if any(c.strip() for c in row)]


def reference_load_features(path, feature_names, encodings):
    """The drop rules of load_features written out cell by cell: a row is
    kept only if it has the header's length and every feature cell is neither
    a missing marker nor unparseable (numeric) or unseen (ordinal)."""
    header, rows = read_rows(path)
    idx = [header.index(nm) for nm in feature_names]
    X_rows, row_ids = [], []
    for rid, row in enumerate(rows):
        if len(row) != len(header):
            continue
        vals = []
        for i, enc in zip(idx, encodings):
            cell = row[i]
            if data._is_missing(cell):
                break
            if enc["kind"] == "numeric":
                v = data._cell_value(cell)
                v = v if math.isfinite(v) else None
            else:
                v = {c: float(k) for k, c in enumerate(enc["categories"])}.get(cell.strip())
            if v is None:
                break
            vals.append(v)
        else:
            X_rows.append(vals)
            row_ids.append(rid)
    report = {"rows_read": len(rows), "rows_dropped": len(rows) - len(row_ids)}
    return np.array(X_rows), np.array(row_ids, dtype=np.int64), report


class TestLoadCsv:
    def test_labels_of_one_number_order_by_their_text(self, tmp_path):
        """'1' and '1.0' parse to one number, so their text orders them, under
        every hash seed: the positive class must not change between runs."""
        path = write_csv(tmp_path / "tie.csv", "a,y\n1,1.0\n2,1\n3,1.0\n")
        code = ("from gpnam import data; print(data.load_csv("
                f"{path!r}, 'y', data.TASK_CLASSIFICATION).target_classes)")
        for seed in "0123":
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  env=dict(os.environ, PYTHONHASHSEED=seed), check=True)
            assert proc.stdout == "['1', '1.0']\n"

    def test_small_classification(self, small_clf_csv):
        ds = data.load_csv(small_clf_csv, "y", data.TASK_CLASSIFICATION)
        assert ds.n == 3 and ds.d == 2
        assert ds.y.tolist() == [0.0, 1.0, 0.0]
        assert ds.feature_names == ["a", "b"]
        assert ds.X.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]

    def test_repeated_header_name_rejected(self, tmp_path):
        p = write_csv(tmp_path / "dup.csv", "x,x,y\n1,2,0\n3,4,1\n")
        with pytest.raises(DataError, match="repeated"):
            data.load_csv(p, "y", data.TASK_CLASSIFICATION)

    def test_missing_target_column(self, small_clf_csv):
        with pytest.raises(MissingColumnError):
            data.load_csv(small_clf_csv, "z", data.TASK_CLASSIFICATION)

    def test_ordinal_first_appearance(self, tmp_path):
        p = write_csv(tmp_path / "ord.csv", "s,y\nlow,1\nhigh,2\nlow,3\n")
        ds = data.load_csv(p, "y", data.TASK_REGRESSION)
        assert ds.X[:, 0].tolist() == [0.0, 1.0, 0.0]
        assert ds.encodings[0] == {"kind": "ordinal", "categories": ["low", "high"]}

    def test_rows_with_missing_cells_dropped(self, tmp_path):
        p = write_csv(tmp_path / "m.csv", "a,y\n1,2\n,3\n4,NaN\n5,6\n")
        ds = data.load_csv(p, "y", data.TASK_REGRESSION)
        assert ds.n == 2
        assert ds.ingest_report["rows_read"] == 4
        assert ds.ingest_report["rows_dropped"] == 2

    def test_unparseable_regression_target_dropped(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "a,y\n1,2\n3,oops\n5,6\n")
        ds = data.load_csv(p, "y", data.TASK_REGRESSION)
        assert ds.n == 2

    def test_classification_needs_two_classes(self, tmp_path):
        p = write_csv(tmp_path / "c3.csv", "a,y\n1,x\n2,y\n3,z\n")
        with pytest.raises(TargetClassError):
            data.load_csv(p, "y", data.TASK_CLASSIFICATION)
        p1 = write_csv(tmp_path / "c1.csv", "a,y\n1,x\n2,x\n")
        with pytest.raises(TargetClassError):
            data.load_csv(p1, "y", data.TASK_CLASSIFICATION)

    @pytest.mark.parametrize("labels, classes", [
        (("10", "9"), ["9", "10"]),     # numeric: 9 < 10, though "10" < "9" as text
        (("+a", "9"), ["9", "+a"]),     # a number before text, though "+a" < "9" as text
        (("abc", "2"), ["2", "abc"]),
        (("yes", "no"), ["no", "yes"]),
    ])
    def test_class_order(self, tmp_path, labels, classes):
        p = write_csv(tmp_path / "c.csv", "a,y\n1,{0}\n2,{1}\n3,{0}\n".format(*labels))
        ds = data.load_csv(p, "y", data.TASK_CLASSIFICATION)
        assert ds.target_classes == classes
        assert ds.y.tolist() == [float(classes.index(v)) for v in labels + labels[:1]]

    def test_string_labels_sorted_order(self, tmp_path):
        p = write_csv(tmp_path / "s.csv", "a,y\n1,yes\n2,no\n3,yes\n")
        ds = data.load_csv(p, "y", data.TASK_CLASSIFICATION)
        assert ds.y.tolist() == [1.0, 0.0, 1.0]  # lexicographic: no=0, yes=1
        assert ds.target_classes == ["no", "yes"]

    def test_empty_file(self, tmp_path):
        p = write_csv(tmp_path / "e.csv", "")
        with pytest.raises(EmptyDataError):
            data.load_csv(p, "y", data.TASK_REGRESSION)
        p2 = write_csv(tmp_path / "h.csv", "a,y\n")
        with pytest.raises(EmptyDataError):
            data.load_csv(p2, "y", data.TASK_REGRESSION)

    def test_every_row_dropped_names_the_columns_with_no_value(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", "a,b,y\n,1,2\nna,3,4\n")
        with pytest.raises(EmptyDataError, match=r"every row was dropped during ingestion; "
                           r"column\(s\) \['a'\] hold no value in any row$"):
            data.load_csv(p, "y", data.TASK_REGRESSION)
        # each row misses a value of a different column: no column is named
        p = write_csv(tmp_path / "b.csv", "a,b,y\n,1,2\n3,,4\n")
        with pytest.raises(EmptyDataError, match=r"every row was dropped during ingestion$"):
            data.load_csv(p, "y", data.TASK_REGRESSION)

    def test_idempotent(self, small_clf_csv):
        d1 = data.load_csv(small_clf_csv, "y", data.TASK_CLASSIFICATION)
        d2 = data.load_csv(small_clf_csv, "y", data.TASK_CLASSIFICATION)
        assert np.array_equal(d1.X, d2.X)
        assert np.array_equal(d1.y, d2.y)

    def test_bad_task(self, small_clf_csv):
        with pytest.raises(ValueError):
            data.load_csv(small_clf_csv, "y", "multiclass")


class TestLoadFeatures:
    def test_selects_columns_by_name(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", "b,extra,a\n10,zzz,1\n20,zzz,2\n")
        X, y, rid, report = data.load_features(p, ["a", "b"],
                                               [{"kind": "numeric"}] * 2)
        assert X.tolist() == [[1.0, 10.0], [2.0, 20.0]]
        assert y is None
        assert rid.tolist() == [0, 1]

    def test_repeated_header_name_rejected(self, tmp_path):
        p = write_csv(tmp_path / "dup.csv", "a,b,a\n1,2,3\n")
        with pytest.raises(DataError, match="repeated"):
            data.load_features(p, ["a", "b"], [{"kind": "numeric"}] * 2)

    def test_missing_column_raises(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", "a,y\n1,2\n")
        with pytest.raises(MissingColumnError):
            data.load_features(p, ["a", "b"], [{"kind": "numeric"}] * 2)

    def test_unseen_category_dropped(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", "s\nlow\nweird\nhigh\n")
        enc = [{"kind": "ordinal", "categories": ["low", "high"]}]
        X, _, rid, report = data.load_features(p, ["s"], enc)
        assert X[:, 0].tolist() == [0.0, 1.0]
        assert rid.tolist() == [0, 2]
        assert report["rows_dropped"] == 1

    def test_category_spelled_as_missing_marker_still_drops(self, tmp_path):
        # a hand-written model file may list a marker as a category; the cell
        # is missing all the same, as it would have been at training time
        p = write_csv(tmp_path / "f.csv", "s\nNA\nlow\n ? \n")
        enc = [{"kind": "ordinal", "categories": ["NA", "low", "?"]}]
        X, _, rid, report = data.load_features(p, ["s"], enc)
        assert X[:, 0].tolist() == [1.0]
        assert rid.tolist() == [1]

    def test_drop_rules_match_cell_by_cell_reference(self, tmp_path):
        variants = sorted({v for m in data.MISSING_MARKERS
                           for v in (m, m.upper(), m.title(), f" {m} ", f"\t{m.upper()} ")})
        rows = [["1.5", "2", "low"], [" 3.25 ", "1e3", " high "]]
        rows += [[v, "1", "low"] for v in variants]
        rows += [["0.5", v, "high"] for v in variants]
        rows += [["+infinity", "1", "low"], ["1_000", "-2", "high"],
                 ["2", "-infinity", "low"],
                 ["1", "2"], ["1", "2", "low", "extra"], ["7"], ["4", "5", "medium"],
                 ["4", "5", "NA"], ["4", "5", " ? "], ["4", "5", ""], ["-0.0", "5e-324", "high"]]
        path = tmp_path / "parity.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a", "b", "s"])
            writer.writerows(rows)
        names = ["s", "a", "b"]
        enc = [{"kind": "ordinal", "categories": ["low", "high"]},
               {"kind": "numeric"}, {"kind": "numeric"}]
        X, y, rid, report = data.load_features(str(path), names, enc)
        want_X, want_rid, want_report = reference_load_features(str(path), names, enc)
        assert y is None
        assert X.dtype == want_X.dtype and X.shape == want_X.shape
        assert np.array_equal(X, want_X)
        assert np.array_equal(rid, want_rid)
        assert report == want_report
        # the two plain rows, 1_000 (a valid float literal) and the subnormal row
        assert rid.tolist() == [0, 1, len(variants) * 2 + 3, len(rows) - 1]

    def test_with_target(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", "a,y\n1,0\n2,1\n")
        X, y, _, _ = data.load_features(p, ["a"], [{"kind": "numeric"}],
                                        target_column="y",
                                        task=data.TASK_CLASSIFICATION)
        assert y.tolist() == [0.0, 1.0]


MARKER_CELLS = st.builds(lambda m, case, pad: pad + case(m) + pad,
                         st.sampled_from(sorted(data.MISSING_MARKERS)),
                         st.sampled_from([str.lower, str.upper, str.title]),
                         st.sampled_from(["", " ", "\t", "  "]))
NUMERIC_CELLS = st.one_of(st.floats(-1e6, 1e6, allow_nan=False).map(repr),
                          st.sampled_from(["-0.0", "1e3", " 2.5 ", "1_000", "5e-324"]))
CATEGORY_CELLS = st.sampled_from(["low", " high ", "mid", "7"])
BAD_CELLS = st.one_of(MARKER_CELLS, st.sampled_from(["abc", "1.2.3", "--1",
                                                     "1e309", "+infinity", "-nan"]))


@st.composite
def training_csvs(draw):
    """Small training CSVs: numeric and categorical columns, missing markers
    in mixed case with padding, unparseable cells and ragged rows."""
    task = draw(st.sampled_from(data.TASKS))
    kinds = draw(st.lists(st.sampled_from(["num", "cat"]), min_size=1, max_size=3))
    target = (NUMERIC_CELLS if task == data.TASK_REGRESSION
              else st.sampled_from(["no", " yes", "yes "]))
    rows = []
    for _ in range(draw(st.integers(2, 12))):
        row = [draw(NUMERIC_CELLS if k == "num" else CATEGORY_CELLS) for k in kinds]
        row.append(draw(target))
        damage = draw(st.sampled_from(["none"] * 4 + ["cell", "short", "long"]))
        if damage == "cell":
            row[draw(st.integers(0, len(row) - 1))] = draw(BAD_CELLS)
        elif damage == "short":
            row.pop()
        elif damage == "long":
            row.append(draw(NUMERIC_CELLS))
        rows.append(row)
    return task, [f"f{j}" for j in range(len(kinds))] + ["t"], rows


class TestTrainingFileReadForPrediction:
    @settings(max_examples=80)
    @given(case=training_csvs())
    def test_load_features_gives_the_training_data(self, tmp_path_factory, case):
        task, header, rows = case
        path = tmp_path_factory.mktemp("rt") / "train.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        try:
            ds = data.load_csv(str(path), "t", task)
        except (EmptyDataError, TargetClassError):
            assume(False)
        X, y, rid, report = data.load_features(str(path), ds.feature_names, ds.encodings,
                                               "t", task, ds.target_classes)
        assert np.array_equal(X, ds.X) and X.dtype == ds.X.dtype
        assert np.array_equal(y, ds.y)
        # the rows load_csv keeps, indexed as the reader returns them
        _, read = read_rows(str(path))
        kept = [i for i, row in enumerate(read) if len(row) == len(header)
                and not any(data._is_missing(cell) for cell in row)
                and (task == data.TASK_CLASSIFICATION or math.isfinite(data._cell_value(row[-1])))]
        assert rid.tolist() == kept
        assert report == {k: ds.ingest_report[k] for k in ("rows_read", "rows_dropped")}


def csv_path_only():
    """Send every line through csv.reader: the byte scan marks no line fast."""
    scan = data._scan

    def no_fast_line(*args):
        fast, text = scan(*args)
        return np.zeros_like(fast), text
    return mock.patch.object(data, "_scan", no_fast_line)


class TestNonFiniteLiterals:
    @pytest.mark.parametrize("literal", ["1e309", "+infinity", "-nan",
                                         pytest.param("9" * 400, id="400-digits")])
    @pytest.mark.parametrize("csv_path", [False, True])
    def test_cell_is_missing(self, tmp_path, literal, csv_path):
        p = write_csv(tmp_path / "nf.csv", f"a,y\n1,2\n{literal},3\n4,{literal}\n5,6\n")
        with csv_path_only() if csv_path else contextlib.nullcontext():
            ds = data.load_csv(p, "y", data.TASK_REGRESSION)
            X, _, rid, _ = data.load_features(
                p, ["a"], [{"kind": "ordinal", "categories": ["1", literal, "5"]}])
        # training drops both rows and keeps "a" numeric
        assert ds.encodings == [{"kind": "numeric"}]
        assert ds.X[:, 0].tolist() == [1.0, 5.0] and ds.y.tolist() == [2.0, 6.0]
        assert ds.ingest_report["rows_dropped"] == 2
        # a category spelled as the literal never matches, as for a missing marker
        assert rid.tolist() == [0, 3] and X[:, 0].tolist() == [0.0, 2.0]


def table_bits(result):
    """The arrays of a loader's result as bit patterns, the rest as is."""
    return [np.asarray(v).view(np.int64).tolist() if isinstance(v, np.ndarray) else v
            for v in result]


def training_table(path, target="t", task=data.TASK_REGRESSION):
    ds = data.load_csv(path, target, task)
    return ds.X, ds.y, ds.ingest_report, ds.encodings, ds.target_classes


def read_every_way(path, names):
    """load_csv (regression) and load_features with and without the target;
    an error is kept as its type and message."""
    enc = [{"kind": "numeric"}] * len(names)
    calls = [lambda: training_table(path),
             lambda: data.load_features(path, names, enc),
             lambda: data.load_features(path, names, enc, "t", data.TASK_REGRESSION)]
    out = []
    for call in calls:
        try:
            out.append(table_bits(call()))
        except DataError as exc:
            out.append([type(exc), str(exc)])
    return out


FAST_CELLS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                       st.integers(-10**6, 10**6).map(str),
                       st.sampled_from(["-0.0", "5e-324", "1e309", "-1e309", "1E5", "+.5", "5."]))
SLOW_CELLS = st.one_of(MARKER_CELLS, st.sampled_from(
    ["1_000", " 2.5 ", "+infinity", "-nan", "abc"] * 3 + ["1e", "1..2"]))


@st.composite
def numeric_csvs(draw):
    """Numeric regression CSVs whose lines the fast path mostly takes: damaged
    cells, blank and all-comma lines, ragged rows, an unused damaged column,
    a byte-order mark and sometimes no newline after the last line."""
    width = draw(st.integers(1, 3))
    unused = draw(st.booleans())
    header = [f"f{j}" for j in range(width)] + ["t"] + ["u"] * unused
    lines = [",".join(header)]
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["fast"] * 6 + ["cell", "blank", "commas", "short", "long"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
            continue
        if kind == "commas":
            lines.append("," * draw(st.integers(1, width + 2)))
            continue
        row = [draw(FAST_CELLS) for _ in range(width + 1)]
        row += [draw(st.sampled_from(["note", "7", "", "two words"]))] * unused
        if kind == "cell":
            row[draw(st.integers(0, len(row) - 1))] = draw(SLOW_CELLS)
        elif kind == "short":
            row.pop()
        elif kind == "long":
            row.append(draw(FAST_CELLS))
        lines.append(",".join(row))
    text = "\n".join(lines) + draw(st.sampled_from(["\n", ""]))
    return header[:width], b"\xef\xbb\xbf" * draw(st.booleans()) + text.encode()


TEXT_CELLS = st.sampled_from(["low", "café", "日本", "1", " low ", "mid", "x y", "2.5", "NA", "?"])
LABEL_PAIRS = [("0", "1"), ("1", "1.0"), (" yes", "no"), ("yes", "NA")]
STORED_CATEGORIES = ["low", "café", "日本", "1", "NA"]


@st.composite
def text_csvs(draw):
    """CSVs with category columns and a label column, beside numeric ones or
    alone: multibyte, marker and padded categories, labels spelled as numbers
    or words, blank and whitespace-only lines, empty cells, ragged rows and
    ``1e`` cells, which loadtxt and float() both reject."""
    n_num, n_cat = draw(st.integers(0, 2)), draw(st.integers(1, 2))
    numeric = [f"f{j}" for j in range(n_num)] + ["t"] * draw(st.booleans())
    header = numeric[:n_num] + [f"c{j}" for j in range(n_cat)] + numeric[n_num:] + ["lab"]
    labels = draw(st.sampled_from(LABEL_PAIRS))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(1, 16))):
        kind = draw(st.sampled_from(["row"] * 9 + ["blank", "spaces", "empty", "cell", "1e",
                                                   "short", "long"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
            continue
        if kind == "spaces":  # a blank line with the header's count of cells
            lines.append(",".join(draw(st.sampled_from([" ", "  ", "\t"])) for _ in header))
            continue
        row = [draw(TEXT_CELLS if h[0] == "c" else FAST_CELLS) for h in header[:-1]]
        row.append(draw(st.sampled_from(labels)))
        if kind == "empty":
            row[draw(st.integers(0, len(row) - 1))] = ""
        elif kind == "cell":
            row[draw(st.integers(0, len(row) - 1))] = draw(SLOW_CELLS)
        elif kind == "1e" and numeric:
            row[header.index(draw(st.sampled_from(numeric)))] = "1e"
        elif kind == "short":
            row.pop()
        elif kind == "long":
            row.append(draw(TEXT_CELLS))
        lines.append(",".join(row))
    text = "\n".join(lines) + draw(st.sampled_from(["\n", ""]))
    return header, labels, b"\xef\xbb\xbf" * draw(st.booleans()) + text.encode()


def read_text_file(path, header, labels):
    """Training (regression and classification) and load_features under
    stored numeric and ordinal encodings, with and without a target; an
    error is kept as its type and message."""
    names = [h for h in header if h[0] in "fc"]
    numeric = [{"kind": "numeric"}] * len(names)
    ordinal = [{"kind": "ordinal", "categories": STORED_CATEGORIES} if h[0] == "c"
               else {"kind": "numeric"} for h in names]
    classes = [label.strip() for label in labels]
    calls = [lambda: training_table(path),
             lambda: training_table(path, "lab", data.TASK_CLASSIFICATION),
             lambda: data.load_features(path, names, numeric),
             lambda: data.load_features(path, names, ordinal),
             lambda: data.load_features(path, names, ordinal, "t", data.TASK_REGRESSION),
             lambda: data.load_features(path, names, numeric, "lab", data.TASK_CLASSIFICATION,
                                        classes),
             lambda: data.load_features(path, names, ordinal, "lab", data.TASK_CLASSIFICATION)]
    out = []
    for call in calls:
        try:
            out.append(table_bits(call()))
        except DataError as exc:
            out.append([type(exc), str(exc)])
    return out


class TestFastPath:
    @settings(max_examples=150)
    @given(case=numeric_csvs())
    def test_same_tables_as_the_csv_reader_path(self, tmp_path_factory, case):
        names, raw = case
        path = tmp_path_factory.mktemp("fp") / "num.csv"
        path.write_bytes(raw)
        fast = read_every_way(str(path), names)
        with csv_path_only():
            assert fast == read_every_way(str(path), names)

    @settings(max_examples=150)
    @given(case=text_csvs())
    def test_text_columns_read_as_the_csv_reader_path_reads_them(self, tmp_path_factory, case):
        header, labels, raw = case
        path = tmp_path_factory.mktemp("tc") / "text.csv"
        path.write_bytes(raw)
        fast = read_text_file(str(path), header, labels)
        with csv_path_only():
            assert fast == read_text_file(str(path), header, labels)

    def test_damaged_lines_keep_their_place(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b,t\n1,2,3\nNA,2,3\n\n,,\n4,1e309,6\n7,8\n"
                         b"-0.0,5e-324,1_000\n9,10,11")
        header, fast_lines, rows, fast, text = data._read_lines(str(path), [], False)
        assert header == ["a", "b", "t"] and text.tolist() == [False] * 3
        assert fast_lines == ["1,2,3", "4,1e309,6", "9,10,11"]
        assert rows == [["NA", "2", "3"], ["7", "8"], ["-0.0", "5e-324", "1_000"]]
        assert fast.tolist() == [True, False, True, False, False, True]
        enc = [{"kind": "numeric"}] * 2
        X, y, rid, report = data.load_features(str(path), ["a", "b"], enc, "t",
                                               data.TASK_REGRESSION)
        assert rid.tolist() == [0, 4, 5]
        assert report == {"rows_read": 6, "rows_dropped": 3}
        assert X.tolist() == [[1.0, 2.0], [-0.0, 5e-324], [9.0, 10.0]]
        assert y.tolist() == [3.0, 1000.0, 11.0]
        with csv_path_only():
            want = data.load_features(str(path), ["a", "b"], enc, "t", data.TASK_REGRESSION)
        assert table_bits((X, y, rid, report)) == table_bits(want)

    @pytest.mark.parametrize("text", [
        'a,t\n1,2\n"3",4\n',        # a quote anywhere
        "a,t\r\n1,2\r\n3,4\r\n",     # CR line ends
        "a,t\n1,2\n1e,4\n",          # a cell loadtxt and float() both reject: read cell by cell
        "a,t\n1,2\nlow,4\n",         # a category: "a" is a text column, made ordinal
    ])
    def test_left_to_the_csv_reader_path(self, tmp_path, text):
        path = write_csv(tmp_path / "slow.csv", text)
        got = table_bits(training_table(path))
        with csv_path_only():
            assert got == table_bits(training_table(path))


# Every ingest rule in one file: a byte-order mark; fast lines (the levels 1-3
# of the 7-level column g and the labels + and - are made of number
# characters); -0.0, a subnormal, 1e309, NA, a padded number and 1_000; text
# in the target t; ragged, blank and all-comma lines.
MIXED_CSV = ("\ufeffa,b,c,g,t,lab\n"
             "1,2,3,1,10,+\n"
             "-0.0,5e-324,4,2,11,-\n"
             "4,1e309,6,3,12,+\n"
             "NA,2,3,low,14,+\n"
             " 2.5 ,3,4,mid,15,-\n"
             "1_000,5,6,high,16,+\n"
             "\n"
             "5,6,7,top,NA,-\n"
             "8,9,10,low,17,NA\n"
             ",,,,,\n"
             "9,10,11,mid,x,+\n"
             "7,8,9,1,13,-\n"
             "1,2,3\n"
             "   \n"
             "1,2,3,low,4,+,9\n"
             "11,12,13,2,1e309,-\n"
             "-3,4,-5,top,20,-\n"
             "6,7,8,peak,21,+\n"
             "12,13,14,3,19,+\n"
             "2,3,4,mid,22,-\n")


def mixed_tables(path):
    """Every loader reading of MIXED_CSV: training (regression and
    classification) and load_features under stored numeric and ordinal
    encodings, with and without a target."""
    reg = data.load_csv(path, "t", data.TASK_REGRESSION)
    clf = data.load_csv(path, "lab", data.TASK_CLASSIFICATION)
    numeric = [{"kind": "numeric"}] * 3
    out = [table_bits((ds.X, ds.y, ds.ingest_report, ds.encodings, ds.feature_names,
                       ds.target_classes)) for ds in (reg, clf)]
    for call in ((reg.feature_names, reg.encodings),
                 (reg.feature_names, reg.encodings, "t", data.TASK_REGRESSION),
                 (["a", "b", "c"], numeric),
                 (["a", "b", "c"], numeric, "t", data.TASK_REGRESSION),
                 (clf.feature_names, clf.encodings, "lab", data.TASK_CLASSIFICATION,
                  clf.target_classes),
                 (["c", "a", "b"], numeric, "lab", data.TASK_CLASSIFICATION,
                  clf.target_classes)):
        out.append(table_bits(data.load_features(path, *call)))
    return out


class TestIngestGolden:
    def test_mixed_file_reads_to_pinned_bits(self, tmp_path):
        """Both paths give the same tables, and their bits are pinned: a change
        to any drop, parse or encoding rule changes the digest."""
        path = write_csv(tmp_path / "mixed.csv", MIXED_CSV)
        got = mixed_tables(path)
        with csv_path_only():
            assert mixed_tables(path) == got
        digest = hashlib.sha256(json.dumps(got, sort_keys=True).encode()).hexdigest()
        assert digest == (
            "f59ebcc1bfd87b328a2b941570be39ad660c398dce62443868793e8f14647ed9")


class TestStandardize:
    def test_two_point_column(self):
        ds = data.Dataset(X=np.array([[0.0], [2.0]]), y=np.zeros(2),
                          feature_names=["a"], task=data.TASK_REGRESSION,
                          encodings=[{"kind": "numeric"}])
        out = data.standardize(ds)
        assert out.X[:, 0].tolist() == [-1.0, 1.0]
        means, scales = out.standardization
        assert means.tolist() == [1.0] and scales.tolist() == [1.0]

    def test_constant_column(self):
        ds = data.Dataset(X=np.full((3, 1), 5.0), y=np.zeros(3),
                          feature_names=["a"], task=data.TASK_REGRESSION,
                          encodings=[{"kind": "numeric"}])
        with pytest.warns(UserWarning):
            out = data.standardize(ds)
        assert out.X[:, 0].tolist() == [0.0, 0.0, 0.0]
        assert out.standardization[1].tolist() == [1.0]

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        X = rng.normal(3.0, 7.0, (40, 3))
        ds = data.Dataset(X=X, y=np.zeros(40), feature_names=list("abc"),
                          task=data.TASK_REGRESSION,
                          encodings=[{"kind": "numeric"}] * 3)
        out = data.standardize(ds)
        assert np.max(np.abs(out.X.mean(axis=0))) < 1e-8
        assert np.max(np.abs(out.X.std(axis=0) - 1.0)) < 1e-8

    def test_column_too_large_is_data_error(self):
        X = np.zeros((20, 3))
        X[::10, 1] = 1e200  # the std's squares overflow
        X[:, 2] = 1.7e308  # the mean's sum overflows
        ds = data.Dataset(X=X, y=np.zeros(20), feature_names=list("abc"),
                          task=data.TASK_REGRESSION, encodings=[{"kind": "numeric"}] * 3)
        with pytest.raises(DataError, match=r"\['b', 'c'\] too large to standardize"):
            data.standardize(ds)

    def test_rejects_double_standardization(self):
        ds = data.Dataset(X=np.array([[0.0], [2.0]]), y=np.zeros(2),
                          feature_names=["a"], task=data.TASK_REGRESSION,
                          encodings=[{"kind": "numeric"}])
        with pytest.raises(ValueError):
            data.standardize(data.standardize(ds))


class TestKernelWidths:
    def _std_ds(self):
        rng = np.random.default_rng(1)
        ds = data.Dataset(X=rng.normal(0, 3, (50, 4)), y=np.zeros(50),
                          feature_names=list("abcd"), task=data.TASK_REGRESSION,
                          encodings=[{"kind": "numeric"}] * 4)
        return data.standardize(ds)

    def test_unit_factor(self):
        b = data.kernel_widths(self._std_ds(), 1.0)
        assert b.tolist() == [1.0] * 4

    def test_half_factor(self):
        b = data.kernel_widths(self._std_ds(), 0.5)
        assert b.tolist() == [0.5] * 4

    def test_requires_standardized(self):
        ds = data.Dataset(X=np.ones((3, 1)), y=np.zeros(3), feature_names=["a"],
                          task=data.TASK_REGRESSION, encodings=[{"kind": "numeric"}])
        with pytest.raises(ValueError):
            data.kernel_widths(ds, 1.0)

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            data.kernel_widths(self._std_ds(), 0.0)
        with pytest.raises(ValueError):
            data.kernel_widths(self._std_ds(), -1.0)

    @pytest.mark.parametrize("factor", [math.nan, math.inf])
    def test_rejects_non_finite_factor(self, factor):
        with pytest.raises(ValueError, match="positive and finite"):
            data.kernel_widths(self._std_ds(), factor)


class TestSplit:
    def _reg_ds(self, n):
        rng = np.random.default_rng(2)
        return data.Dataset(X=rng.normal(size=(n, 2)), y=rng.normal(size=n),
                            feature_names=["a", "b"], task=data.TASK_REGRESSION,
                            encodings=[{"kind": "numeric"}] * 2)

    def test_sizes(self):
        tr, va, te = data.split(self._reg_ds(10), (0.8, 0.1, 0.1), seed=0)
        assert (tr.n, va.n, te.n) == (8, 1, 1)

    def test_deterministic(self):
        ds = self._reg_ds(100)
        a = data.split(ds, (0.8, 0.1, 0.1), seed=7)
        b = data.split(ds, (0.8, 0.1, 0.1), seed=7)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.X, pb.X)
            assert np.array_equal(pa.y, pb.y)

    def test_partition_is_exact(self):
        ds = self._reg_ds(101)
        tr, va, te = data.split(ds, (0.7, 0.2, 0.1), seed=3)
        assert tr.n + va.n + te.n == 101
        all_y = np.sort(np.concatenate([tr.y, va.y, te.y]))
        assert np.array_equal(all_y, np.sort(ds.y))

    def test_stratified_proportions(self):
        rng = np.random.default_rng(5)
        y = (rng.uniform(size=10_000) < 0.5).astype(float)
        ds = data.Dataset(X=rng.normal(size=(10_000, 2)), y=y,
                          feature_names=["a", "b"], task=data.TASK_CLASSIFICATION,
                          encodings=[{"kind": "numeric"}] * 2)
        global_rate = y.mean()
        for part in data.split(ds, (0.8, 0.1, 0.1), seed=0):
            assert abs(part.y.mean() - global_rate) < 0.05

    @staticmethod
    def _clf_ds(y):
        rng = np.random.default_rng(1)
        return data.Dataset(X=rng.normal(size=(y.size, 2)), y=y.astype(float),
                            feature_names=["a", "b"], task=data.TASK_CLASSIFICATION,
                            encodings=[{"kind": "numeric"}] * 2)

    def test_validation_part_gets_a_missing_class(self):
        # 5 positives in 100 rows: the stratified slices give validation none
        rng = np.random.default_rng(0)
        y = np.zeros(100)
        y[rng.choice(100, 5, replace=False)] = 1
        ds = self._clf_ds(y)
        order = data._stratified_order(ds.y, np.random.default_rng(0))
        assert not np.any(ds.y[order[80:90]] == 1)
        tr, va, te = data.split(ds, (0.8, 0.1, 0.1), seed=0)
        assert (tr.n, va.n, te.n) == (80, 10, 10)
        assert np.unique(va.y).tolist() == np.unique(tr.y).tolist() == [0.0, 1.0]
        all_X = np.concatenate([tr.X, va.X, te.X])
        assert np.array_equal(np.sort(all_X, axis=0), np.sort(ds.X, axis=0))

    @pytest.mark.parametrize("seed, n", [(0, 300), (1, 300), (2, 300), (3, 10)])
    def test_split_keeps_the_stratified_slices(self, seed, n):
        # at n = 300 every part holds both classes; at n = 10 validation has one row
        rng = np.random.default_rng(seed)
        ds = self._clf_ds((rng.uniform(size=n) < 0.3).astype(float))
        order = data._stratified_order(ds.y, np.random.default_rng(seed))
        n_train, n_val = int(0.8 * n), int(0.1 * n)
        for part, idx in zip(data.split(ds, (0.8, 0.1, 0.1), seed=seed),
                             np.split(order, [n_train, n_train + n_val])):
            assert np.array_equal(part.X, ds.X[idx])

    def test_empty_part_rejected(self):
        with pytest.raises(ValueError):
            data.split(self._reg_ds(5), (0.9, 0.05, 0.05), seed=0)

    def test_bad_fractions_rejected(self):
        ds = self._reg_ds(30)
        with pytest.raises(ValueError):
            data.split(ds, (0.5, 0.2, 0.2), seed=0)
        with pytest.raises(ValueError):
            data.split(ds, (0.8, 0.2, -0.0), seed=0)


class TestSynthAdditive:
    def test_noise_free_identity(self):
        ds = data.synth_additive(50, 1, 0.0, seed=3, shapes=("identity",))
        assert np.array_equal(ds.y, ds.X[:, 0])

    def test_seed_reproducible(self):
        a = data.synth_additive(100, 4, 0.3, seed=9)
        b = data.synth_additive(100, 4, 0.3, seed=9)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    def test_variance_matches_quadrature_oracle(self):
        # trapezoid quadrature of each shape over Uniform[-2, 2]
        grid = np.linspace(-2.0, 2.0, 200_001)
        var_sum = 0.0
        d, noise = 5, 0.25
        for i in range(d):
            h = data.SHAPE_FUNCTIONS[data.SHAPE_CYCLE[i % 5]](grid)
            mean = np.trapezoid(h, grid) / 4.0
            var_sum += np.trapezoid((h - mean) ** 2, grid) / 4.0
        want = var_sum + noise ** 2
        ds = data.synth_additive(200_000, d, noise, seed=12)
        assert ds.y.var() == pytest.approx(want, rel=0.04)

    def test_shape_cycle_recorded(self):
        ds = data.synth_additive(10, 7, 0.1, seed=0)
        assert ds.shape_names == ["sin3", "square", "tanh2", "abs", "identity",
                                  "sin3", "square"]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            data.synth_additive(0, 3, 0.1)
        with pytest.raises(ValueError):
            data.synth_additive(10, 3, -0.5)
        with pytest.raises(ValueError):
            data.synth_additive(10, 2, 0.1, shapes=("sin3",))
        with pytest.raises(ValueError):
            data.synth_additive(10, 1, 0.1, shapes=("wiggle",))
