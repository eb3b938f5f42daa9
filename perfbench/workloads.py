"""Deterministic inputs and command lists for the benchmark workloads.

Every input file is a pure function of the workload seed: the same seed
writes byte-identical files. Each workload is one closed-loop cycle of
``gpnam`` commands; the benchmark starts a command only after the previous
one has exited.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# California Housing scale (n = 20,640, d = 8). The real CSV is not in the
# repository, so the regression inputs are synthetic at the same shape.
REG_ROWS = 20_640
REG_FEATURES = 8
# Criterion-9 ("LCD") scale: 10,000 rows, 5 numeric columns plus a
# categorical loan grade.
CLF_ROWS = 10_000
CLF_NUMERIC = 5
GRADES = ("A", "B", "C", "D", "E", "F", "G")
GRADE_PROBS = (0.18, 0.26, 0.22, 0.15, 0.10, 0.06, 0.03)
GRADE_EFFECT = (-1.2, -0.7, -0.2, 0.2, 0.6, 1.0, 1.4)
# 200,000 rows peaks at about 2.9 GB of RSS in `predict`, too much for a
# shared 7 GB machine; 100,000 peaks at about 1.4 GB.
BULK_ROWS = 100_000
# Share of bulk rows given a missing marker or a ragged shape, so the drop
# path runs and a faster parser has to keep its semantics.
BULK_BAD_SHARE = 0.01
S = 100
SHAPE_POINTS = 256

# Seed streams, so each file of a workload draws from its own generator.
_STREAM_TRAIN, _STREAM_HOLDOUT, _STREAM_BULK = 1, 2, 3


@dataclass
class Command:
    """One `gpnam` invocation: a name for reports and its arguments."""

    name: str
    argv: list[str]


@dataclass
class Workload:
    name: str
    commands: list[Command]
    # Files written by setup, and facts the output checks need.
    facts: dict = field(default_factory=dict)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), stream]))


def _reg_table(rng, n):
    """Eight numeric columns with different scales and an additive target."""
    z = rng.standard_normal((n, REG_FEATURES))
    X = np.empty_like(z)
    X[:, 0] = np.exp(0.4 * z[:, 0]) * 3.5          # income-like, skewed
    X[:, 1] = np.round(rng.uniform(1, 52, n))      # age-like, integer valued
    X[:, 2] = 5.0 + 1.2 * z[:, 2]
    X[:, 3] = 1.0 + 0.1 * z[:, 3]
    X[:, 4] = np.exp(0.7 * z[:, 4]) * 1200.0      # population-like
    X[:, 5] = 3.0 + 0.6 * z[:, 5]
    X[:, 6] = rng.uniform(32.5, 42.0, n)           # latitude-like
    X[:, 7] = rng.uniform(-124.3, -114.3, n)       # longitude-like
    X = np.round(X, 4)
    s = (X - X.mean(axis=0)) / X.std(axis=0)
    y = (1.0 + np.tanh(s[:, 0]) + 0.3 * np.sin(2.0 * s[:, 1]) + 0.2 * s[:, 2]
         - 0.1 * s[:, 3] ** 2 + 0.1 * np.abs(s[:, 4]) - 0.2 * s[:, 5]
         + 0.5 * np.sin(1.5 * s[:, 6]) + 0.4 * np.cos(s[:, 7])
         + rng.normal(0.0, 0.3, n))
    return X, np.round(y, 5)


def _clf_table(rng, n):
    """Five numeric columns, a 7-level `grade` column and a 0/1 label."""
    X = np.round(rng.uniform(-2.0, 2.0, (n, CLF_NUMERIC)), 4)
    grade = rng.choice(len(GRADES), size=n, p=GRADE_PROBS)
    logits = (np.sin(3 * X[:, 0]) + X[:, 1] ** 2 - 1.5 + np.tanh(2 * X[:, 2])
              + 0.5 * X[:, 3] - 0.5 * X[:, 4] + np.asarray(GRADE_EFFECT)[grade])
    label = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-logits))).astype(int)
    return X, grade, label


def _reg_lines(X, y):
    header = ",".join([f"x{i + 1}" for i in range(X.shape[1])] + ["y"])
    rows = [",".join(map(repr, r)) for r in np.column_stack([X, y]).tolist()]
    return [header] + rows


def _write(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_reg_csv(path: Path, seed: int, stream: int, n: int = REG_ROWS):
    X, y = _reg_table(_rng(seed, stream), n)
    _write(path, _reg_lines(X, y))
    return X, y


def write_clf_csv(path: Path, seed: int, stream: int, n: int = CLF_ROWS) -> None:
    X, grade, label = _clf_table(_rng(seed, stream), n)
    lines = ["f1,f2,grade,f3,f4,f5,label"]
    for r, g, lab in zip(X.tolist(), grade.tolist(), label.tolist()):
        lines.append(f"{r[0]!r},{r[1]!r},{GRADES[g]},{r[2]!r},{r[3]!r},{r[4]!r},{lab}")
    _write(path, lines)


def write_bulk_csv(path: Path, seed: int, n: int = BULK_ROWS):
    """Regression-shaped rows with about 1% damaged on purpose.

    Damage kinds: an ``NA`` marker, an empty cell, a row one cell short and a
    row one cell long. Only feature cells are damaged, so exactly the damaged
    rows are dropped by `predict`. Returns (X, y, kept row ids).
    """
    rng = _rng(seed, _STREAM_BULK)
    X, y = _reg_table(rng, n)
    lines = _reg_lines(X, y)
    bad = np.flatnonzero(rng.uniform(size=n) < BULK_BAD_SHARE)
    kinds = rng.integers(0, 4, bad.size)
    cols = rng.integers(0, X.shape[1], bad.size)
    for r, kind, col in zip(bad.tolist(), kinds.tolist(), cols.tolist()):
        cells = lines[r + 1].split(",")
        if kind == 0:
            cells[col] = "NA"
        elif kind == 1:
            cells[col] = ""
        elif kind == 2:
            cells.pop(col)
        else:
            cells.insert(col, "0.5")
        lines[r + 1] = ",".join(cells)
    _write(path, lines)
    kept = np.setdiff1d(np.arange(n), bad)
    return X, y, kept


def _train(data, target, task, model, bandwidth, *extra):
    return Command("train", ["train", "--data", str(data), "--target", target,
                             "--task", task, "--S", str(S), "--mode", "grid",
                             "--bandwidth-scale", bandwidth, "--seed", "0",
                             "--model", str(model), *extra])


def build(name: str, work: Path, seed: int) -> Workload:
    """Write the inputs of workload ``name`` into ``work`` and describe it.

    Model training for `predict_bulk` is part of its set-up, listed in
    ``facts["setup_commands"]``.
    """
    if name == "train_reg_auto":
        # Solver-heavy: the bandwidth search runs 5 CG ridge fits plus a refit
        # of the winner over a 16,512 x 801 design matrix. Gram-once solving
        # and reusing the winning fit show here; CSV ingest is a few percent.
        train, holdout = work / "reg_train.csv", work / "reg_holdout.csv"
        write_reg_csv(train, seed, _STREAM_TRAIN)
        write_reg_csv(holdout, seed, _STREAM_HOLDOUT)
        model, shapes = work / "reg_model.json", work / "reg_shapes.csv"
        return Workload(name, [
            _train(train, "y", "reg", model, "auto"),
            Command("evaluate", ["evaluate", "--data", str(holdout), "--target", "y",
                                 "--model", str(model)]),
            Command("shapes", ["shapes", "--model", str(model), "--data", str(train),
                               "--out", str(shapes)]),
        ], {"model": model, "shapes": shapes, "d": REG_FEATURES,
            "eval_metric": "rmse", "eval_rows": REG_ROWS})
    if name == "train_clf_lcd":
        # SGD-heavy: 100 epochs of Python mini-batches plus 201 full-loss
        # evaluations and never CG, so a ridge-solver change predicts no
        # change here while a Newton logistic solver does. The `grade` column
        # runs the ordinal (categorical) ingest path. Today's SGD stops
        # unconverged and `train` exits 3; the benchmark counts that as a
        # failure, so this data must not be tuned to avoid it.
        train, holdout = work / "clf_train.csv", work / "clf_holdout.csv"
        write_clf_csv(train, seed, _STREAM_TRAIN)
        write_clf_csv(holdout, seed, _STREAM_HOLDOUT)
        model = work / "clf_model.json"
        return Workload(name, [
            _train(train, "label", "clf", model, "1"),
            Command("evaluate", ["evaluate", "--data", str(holdout), "--target", "label",
                                 "--model", str(model)]),
        ], {"model": model, "eval_metric": "auc", "eval_rows": CLF_ROWS})
    if name == "predict_bulk":
        # Ingest- and featurize-heavy, no solver: a 100k x 901 design matrix
        # and a per-row Python loop for the interaction block. Row chunking,
        # a vectorized pair map and a fast parse path show here. It reads a
        # model and writes a 100k-line CSV; the train workloads write models.
        train, bulk = work / "bulk_train.csv", work / "bulk.csv"
        write_reg_csv(train, seed, _STREAM_TRAIN)
        X, y, kept = write_bulk_csv(bulk, seed)
        model, preds = work / "bulk_model.json", work / "bulk_preds.csv"
        return Workload(name, [
            Command("predict", ["predict", "--data", str(bulk), "--model", str(model),
                                "--out", str(preds)]),
        ], {"model": model, "preds": preds, "X": X, "y": y, "kept": kept,
            "setup_commands": [_train(train, "y", "reg", model, "1", "--interactions", "0:1")]})
    raise KeyError(name)


WORKLOADS = ("train_reg_auto", "train_clf_lcd", "predict_bulk")
