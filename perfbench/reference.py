"""Fixed reference computation that the benchmark times next to each cycle.

Usage::

    python reference.py WORKLOAD WORK_DIR

Each workload's reference repeats, in plain numpy and without ``gpnam``, the
kinds of work its `gpnam` cycle does on the same input files: CSV parsing in
Python, cosine features, and either Gram matvecs (train_reg_auto), a
mini-batch loop (train_clf_lcd) or a per-row loop with CSV formatting
(predict_bulk). Its code never changes with the program, so the ratio of a
cycle's wall time to the reference's tracks the program while cancelling
slowdowns of the whole machine, which on a shared host reach 2x for minutes.
"""

import csv
import math
import sys
from pathlib import Path

import numpy as np

S = 100
_rng = np.random.default_rng(0)
Z = _rng.standard_normal(S)
C = _rng.uniform(0.0, 2.0 * math.pi, S)
PAIR_Z = _rng.standard_normal((S, 2))


def _read(path, rows=None):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        out = []
        for row in reader:
            if rows is not None and len(out) == rows:
                break
            if len(row) == len(header) and all(cell.strip() not in ("", "NA") for cell in row):
                out.append(row)
    return header, out


def _floats(rows, cols):
    return np.array([[float(row[j]) for j in cols] for row in rows])


def _features(X):
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    n, d = X.shape
    phi = np.empty((n, 1 + S * d))
    phi[:, 0] = 1.0
    for j in range(d):
        phi[:, 1 + j * S:1 + (j + 1) * S] = math.sqrt(2.0 / S) * np.cos(np.outer(X[:, j], Z) + C)
    return phi


def reg(work):
    # Phi of the training split's size (16,512 x 801, about 106 MB) and half
    # the Gram matvecs of the program's bandwidth search
    header, rows = _read(work / "reg_train.csv", rows=16_512)
    X = _floats(rows, range(len(header) - 1))
    y = _floats(rows, [len(header) - 1])[:, 0]
    phi = _features(X)
    p = phi.T @ y
    for _ in range(500):
        p = phi.T @ (phi @ p)
        p /= np.linalg.norm(p)
    return float(p[0])


def clf(work):
    # half the program's SGD: 50 epochs of 256-row mini-batches on the
    # 8,000-row training split, plus one full-loss pass per epoch
    header, rows = _read(work / "clf_train.csv", rows=8_000)
    numeric = [j for j, h in enumerate(header) if h not in ("grade", "label")]
    codes = {}
    grade = np.array([codes.setdefault(row[header.index("grade")], len(codes)) for row in rows])
    X = np.column_stack([_floats(rows, numeric), grade])
    y = 2.0 * _floats(rows, [header.index("label")])[:, 0] - 1.0
    phi = _features(X)
    w = np.zeros(phi.shape[1])
    rng = np.random.default_rng(0)
    for epoch in range(50):
        order = rng.permutation(len(y))
        for start in range(0, len(y), 256):
            idx = order[start:start + 256]
            m = y[idx] * (phi[idx] @ w)
            w += 0.1 * (phi[idx].T @ (y[idx] / (1.0 + np.exp(m)))) / idx.size
        m = y * (phi @ w)
        w -= 1e-3 * (phi.T @ (y / (1.0 + np.exp(m)))) / len(y)
    return float(w[0])


def predict(work):
    # half the program's rows: parse, featurize, per-row pair map, format
    header, rows = _read(work / "bulk.csv", rows=50_000)
    X = _floats(rows, range(len(header) - 1))
    phi = _features(X)
    pair = np.empty((len(rows), S))
    for r in range(len(rows)):
        pair[r] = math.sqrt(2.0 / S) * np.cos(PAIR_Z[:, 0] * X[r, 0] + PAIR_Z[:, 1] * X[r, 1] + C)
    g = np.hstack([phi, pair]) @ np.ones(phi.shape[1] + S)
    text = "\n".join(f"{i},{float(v)!r}" for i, v in enumerate(g))
    return len(text)


WORK = {"train_reg_auto": reg, "train_clf_lcd": clf, "predict_bulk": predict}


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in WORK:
        print(__doc__, file=sys.stderr)
        sys.exit(64)
    WORK[sys.argv[1]](Path(sys.argv[2]))
