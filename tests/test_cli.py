"""CLI commands, exit codes, and output formats."""

import argparse
import ast
import builtins
import csv
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gpnam import _kernels, cli, data, model, rff, solvers
from gpnam.errors import DataError, NumericBreakdownError
from gpnam.solvers import sigmoid


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def synth_csv(tmp_path, capsys):
    path = tmp_path / "synth.csv"
    code, _, _ = run(capsys, "synth", "--out", str(path), "--n", "800", "--d", "2",
                     "--noise-sd", "0.1", "--seed", "3")
    assert code == 0
    return str(path)


@pytest.fixture
def clf_csv(tmp_path):
    rng = np.random.default_rng(8)
    X = rng.uniform(-2, 2, (900, 2))
    logit = 1.5 * np.tanh(2 * X[:, 0]) - X[:, 1]
    y = (rng.uniform(size=900) < sigmoid(logit)).astype(int)
    lines = ["a,b,y"] + [f"{float(X[i, 0])!r},{float(X[i, 1])!r},{y[i]}"
                         for i in range(900)]
    path = tmp_path / "clf.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestSynth:
    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (a, b):
            code, _, _ = run(capsys, "synth", "--out", str(p), "--n", "50",
                             "--d", "3", "--seed", "4")
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_requires_out(self, capsys):
        code, _, err = run(capsys, "synth", "--n", "10")
        assert code == 1

    @pytest.mark.parametrize("noise_sd", ["nan", "inf"])
    def test_non_finite_noise_rejected(self, tmp_path, capsys, noise_sd):
        path = tmp_path / "s.csv"
        code, _, _ = run(capsys, "synth", "--out", str(path), "--n", "5", "--d", "2",
                         "--noise-sd", noise_sd)
        assert code == 1
        assert not path.exists()

    def test_header(self, synth_csv):
        with open(synth_csv) as fh:
            assert fh.readline().strip() == "x1,x2,y"

    def test_output_bytes_pinned(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        code, _, _ = run(capsys, "synth", "--out", str(path), "--n", "500", "--d", "3",
                         "--seed", "0")
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "00f9df68d8d6d05e22a0529f99670129e8cd0497acc5adc8222806c95eabe13e")


class TestTrain:
    def test_regression_end_to_end(self, tmp_path, synth_csv, capsys):
        mpath = tmp_path / "m.json"
        code, out, _ = run(capsys, "train", "--data", synth_csv, "--target", "y",
                           "--task", "reg", "--model", str(mpath), "--S", "32")
        assert code == 0
        doc = json.loads(out)
        assert doc["solver"]["converged"]
        assert doc["validation"][0]["metric"] == "rmse"
        assert mpath.exists()

    def test_classification_end_to_end(self, tmp_path, clf_csv, capsys):
        mpath = tmp_path / "mc.json"
        code, out, _ = run(capsys, "train", "--data", clf_csv, "--target", "y",
                           "--task", "clf", "--model", str(mpath), "--S", "16")
        assert code == 0
        doc = json.loads(out)
        assert doc["solver"]["converged"] and doc["solver"]["method"] == "newton"
        assert doc["solver"]["gradient_norm"] <= solvers.NEWTON_TOL
        metrics_by_name = {m["metric"]: m["value"] for m in doc["validation"]}
        assert 0.6 <= metrics_by_name["auc"] <= 1.0
        m = model.load(mpath)
        assert m.task == "binary_classification"
        assert m.target_classes == ["0", "1"]

    def test_newton_breakdown_is_numeric_breakdown(self, tmp_path, clf_csv, capsys,
                                                   monkeypatch):
        def breakdown(*args, **kwargs):
            raise NumericBreakdownError("non-finite Newton step at iteration 0")

        monkeypatch.setattr(solvers, "fit_logistic_newton", breakdown)
        out, mpath = tmp_path / "t.json", tmp_path / "m.json"
        code, _, err = run(capsys, "train", "--data", clf_csv, "--target", "y",
                           "--task", "clf", "--model", str(mpath), "--out", str(out),
                           "--S", "16")
        assert code == 4
        assert err == "gpnam: numeric breakdown: non-finite Newton step at iteration 0\n"
        assert not mpath.exists() and not out.exists()

    def test_too_few_rows_for_the_split_is_a_data_error(self, tmp_path, capsys):
        """The split fractions pass the check made before reading, so a file
        too short to give each part a row is a data error naming the file."""
        full = tmp_path / "full.csv"
        assert run(capsys, "synth", "--out", str(full), "--n", "300", "--d", "3",
                   "--seed", "1")[0] == 0
        short = tmp_path / "short.csv"
        short.write_text("".join(full.read_text().splitlines(keepends=True)[:6]))
        mpath = tmp_path / "m.json"
        code, _, err = run(capsys, "train", "--data", str(short), "--target", "y",
                           "--task", "reg", "--model", str(mpath), "--S", "8")
        assert code == 2
        assert err == (f"gpnam: data error: {short}: split of 5 rows by (0.8, 0.1, 0.1) "
                       "leaves an empty part\n")
        assert not mpath.exists()

    def test_trailing_commas_name_the_empty_column(self, tmp_path, synth_csv, capsys):
        """Lines that all end with a comma add an unnamed column with no
        value in any row, so every row is dropped; the error names it."""
        trailing = tmp_path / "trailing.csv"
        trailing.write_text("".join(line + ",\n" for line in
                                    Path(synth_csv).read_text().splitlines()))
        code, _, err = run(capsys, "train", "--data", str(trailing), "--target", "y",
                           "--task", "reg", "--model", str(tmp_path / "m.json"), "--S", "8")
        assert code == 2
        assert err == (f"gpnam: data error: {trailing}: every row was dropped during "
                       "ingestion; column(s) [''] hold no value in any row\n")

    def test_undertrained_run_flags_not_converged(self, tmp_path, clf_csv, capsys,
                                                  monkeypatch):
        monkeypatch.setattr(solvers, "NEWTON_MAX_ITER", 1)
        code, out, _ = run(capsys, "train", "--data", clf_csv, "--target", "y",
                           "--task", "clf", "--model", str(tmp_path / "m.json"),
                           "--S", "16")
        assert code == 3
        solver = json.loads(out)["solver"]
        assert solver["iterations"] == 1 and not solver["converged"]
        assert (tmp_path / "m.json").exists()  # model still saved, flagged

    @pytest.mark.parametrize("mode", ["grid", "mc"])
    def test_byte_identical_reruns(self, tmp_path, synth_csv, capsys, mode):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for p in (a, b):
            code, _, _ = run(capsys, "train", "--data", synth_csv, "--target", "y",
                             "--task", "reg", "--model", str(p), "--S", "32",
                             "--mode", mode, "--seed", "1")
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("csv, args", [
        ("synth_csv", ["--task", "reg", "--bandwidth-scale", "auto"]),
        ("clf_csv", ["--task", "clf", "--interactions", "0:1"]),
    ])
    def test_byte_identical_reruns_of_search_and_pair_fits(self, tmp_path, capsys, request,
                                                          csv, args):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for p in (a, b):
            code, _, _ = run(capsys, "train", "--data", request.getfixturevalue(csv),
                             "--target", "y", "--model", str(p), "--S", "16", *args)
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_pair_fit_converges_on_the_full_problem(self, tmp_path, clf_csv, capsys):
        # without the complement step after the reduced fit, this fit ends at
        # a full gradient norm of 1.3e-10 and exits 3
        code, out, _ = run(capsys, "train", "--data", clf_csv, "--target", "y",
                           "--task", "clf", "--model", str(tmp_path / "m.json"), "--S", "16",
                           "--interactions", "0:1")
        assert code == 0
        solver = json.loads(out)["solver"]
        assert solver["converged"] and solver["gradient_norm"] <= solvers.NEWTON_TOL
        assert solver["rank_cutoff"] == solvers.RANK_CUTOFF
        assert 1 < solver["reduced_rank"] < 1 + 3 * 16

    def test_auto_bandwidth_reaches_noise_floor(self, tmp_path, capsys):
        csv = tmp_path / "nf.csv"
        code, _, _ = run(capsys, "synth", "--out", str(csv), "--n", "5000",
                         "--d", "3", "--noise-sd", "0.1", "--seed", "2")
        assert code == 0
        code, out, _ = run(capsys, "train", "--data", str(csv), "--target", "y",
                           "--task", "reg", "--model", str(tmp_path / "m.json"),
                           "--bandwidth-scale", "auto", "--seed", "0")
        assert code == 0
        doc = json.loads(out)
        rmse_val = next(m["value"] for m in doc["validation"] if m["metric"] == "rmse")
        assert rmse_val <= 1.2 * 0.1

    def test_auto_bandwidth_recorded(self, tmp_path, synth_csv, capsys):
        mpath = tmp_path / "m.json"
        code, out, _ = run(capsys, "train", "--data", synth_csv, "--target", "y",
                           "--task", "reg", "--model", str(mpath), "--S", "32",
                           "--bandwidth-scale", "auto")
        assert code == 0
        doc = json.loads(out)
        assert doc["chosen_bandwidth_scale"] in cli.BANDWIDTH_GRID
        assert len(doc["bandwidth_search"]) == len(cli.BANDWIDTH_GRID)
        chosen = next(row for row in doc["bandwidth_search"]
                      if row["bandwidth_scale"] == doc["chosen_bandwidth_scale"])
        assert chosen["reduced_rank"] == doc["solver"]["reduced_rank"]
        assert all(1 < row["reduced_rank"] <= 1 + 2 * 32 for row in doc["bandwidth_search"])
        assert model.load(mpath).bandwidth_scale == doc["chosen_bandwidth_scale"]

    def test_auto_bandwidth_keeps_winning_fit(self, tmp_path, synth_csv, capsys,
                                              monkeypatch):
        solved = []
        solve = solvers.fit_reduced

        def spying_solve(*args, **kwargs):
            w, report = solve(*args, **kwargs)
            solved.append(w.copy())
            return w, report

        monkeypatch.setattr(solvers, "fit_reduced", spying_solve)
        for mode in ("grid", "mc"):
            solved.clear()
            auto, fixed = tmp_path / f"auto_{mode}.json", tmp_path / f"fixed_{mode}.json"
            code, out, _ = run(capsys, "train", "--data", synth_csv, "--target", "y",
                               "--task", "reg", "--model", str(auto), "--S", "32",
                               "--mode", mode, "--bandwidth-scale", "auto")
            assert code == 0
            assert len(solved) == len(cli.BANDWIDTH_GRID)
            chosen = json.loads(out)["chosen_bandwidth_scale"]
            # the scales are fitted widest first; the saved weights are the
            # chosen fit's as solved, not a refit
            w = solved[sorted(cli.BANDWIDTH_GRID, reverse=True).index(chosen)]
            kept = model.load(auto)
            assert kept.w0 == w[0] and np.array_equal(kept.W.ravel(), w[1:])
            code, _, _ = run(capsys, "train", "--data", synth_csv, "--target", "y",
                             "--task", "reg", "--model", str(fixed), "--S", "32",
                             "--mode", mode, "--bandwidth-scale", repr(chosen))
            assert code == 0
            if mode == "mc":
                assert auto.read_bytes() == fixed.read_bytes()
                continue
            # a grid search halves the widest scale's cosines, so its features,
            # and the weights, differ from a fixed-scale train's by rounding
            # (measured on this file: 9.0e-14 * max|W|)
            refit = model.load(fixed)
            tol = 1e-9 * np.max(np.abs(refit.W))
            assert np.max(np.abs(kept.W - refit.W)) <= tol
            assert abs(kept.w0 - refit.w0) <= tol
            assert np.max(np.abs(kept.centering_offsets - refit.centering_offsets)) <= tol

    def test_auto_bandwidth_lists_grid_order_and_keeps_first_tie(self, tmp_path, synth_csv,
                                                                  capsys, monkeypatch):
        monkeypatch.setattr(cli.metrics_mod, "rmse", lambda preds, y: 1.0)
        code, out, _ = run(capsys, "train", "--data", synth_csv, "--target", "y",
                           "--task", "reg", "--model", str(tmp_path / "m.json"), "--S", "8",
                           "--bandwidth-scale", "auto")
        assert code == 0
        doc = json.loads(out)
        assert doc["chosen_bandwidth_scale"] == 0.25
        assert [row["bandwidth_scale"] for row in doc["bandwidth_search"]] == \
            list(cli.BANDWIDTH_GRID)

    def test_bandwidth_grid_doubles(self):
        # the auto search halves each grid-basis design matrix for the next scale
        grid = cli.BANDWIDTH_GRID
        assert grid[0] > 0 and all(b == 2 * a for a, b in zip(grid, grid[1:]))

    @pytest.mark.parametrize("mode, calls", [("grid", 1), ("mc", len(cli.BANDWIDTH_GRID))])
    def test_auto_bandwidth_cosine_passes(self, tmp_path, synth_csv, capsys, monkeypatch,
                                          mode, calls):
        featurized = []
        featurize = _kernels.featurize

        def counting_featurize(*args, **kwargs):
            featurized.append(1)
            return featurize(*args, **kwargs)

        monkeypatch.setattr(_kernels, "featurize", counting_featurize)
        code, _, _ = run(capsys, "train", "--data", synth_csv, "--target", "y",
                         "--task", "reg", "--model", str(tmp_path / "m.json"), "--S", "8",
                         "--mode", mode, "--bandwidth-scale", "auto")
        assert code == 0
        assert len(featurized) == calls

    def test_overflowing_kernel_width_is_usage_error(self, tmp_path, capsys, recwarn):
        path = tmp_path / "s.csv"
        code, _, _ = run(capsys, "synth", "--out", str(path), "--n", "300", "--d", "3",
                         "--seed", "1")
        assert code == 0
        mpath = tmp_path / "m.json"
        code, _, err = run(capsys, "train", "--data", str(path), "--target", "y",
                           "--task", "reg", "--model", str(mpath),
                           "--bandwidth-scale", "1e-320")
        assert code == 1
        assert err == ("gpnam: invalid argument: kernel width 1e-320 of feature 0 is too "
                       "narrow for the inputs: the cosine angles overflow\n")
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not mpath.exists()

    def test_column_too_large_to_standardize_is_data_error(self, tmp_path, capsys, recwarn):
        path = tmp_path / "s.csv"
        code, _, _ = run(capsys, "synth", "--out", str(path), "--n", "400", "--d", "3",
                         "--seed", "1")
        assert code == 0
        header, *lines = path.read_text().splitlines()
        lines = [f"1e200,{line.split(',', 1)[1]}" if k % 10 == 0 else line
                 for k, line in enumerate(lines)]
        path.write_text("\n".join([header] + lines) + "\n")
        code, _, err = run(capsys, "train", "--data", str(path), "--target", "y",
                           "--task", "reg", "--model", str(tmp_path / "m.json"), "--S", "8")
        assert code == 2
        assert err == ("gpnam: data error: feature column(s) ['x1'] too large to standardize: "
                       "their mean or standard deviation overflows\n")
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("task, scale", [("reg", "1"), ("reg", "auto"), ("clf", "1")])
    def test_validation_row_too_large_to_score_is_data_error(self, tmp_path, clf_csv, capsys,
                                                             recwarn, task, scale):
        if task == "reg":
            path = tmp_path / "s.csv"
            code, _, _ = run(capsys, "synth", "--out", str(path), "--n", "300", "--d", "3",
                             "--seed", "1")
            assert code == 0
        else:
            path = Path(clf_csv)
        # the first row that the seed-0 split puts into validation
        ds = data.load_csv(path, "y", cli._TASK_ALIASES[task])
        rows = replace(ds, X=np.arange(ds.n, dtype=np.float64)[:, None])
        k = int(data.split(rows, (0.8, 0.1, 0.1), seed=0)[1].X[0, 0])
        lines = path.read_text().splitlines()
        lines[1 + k] = "-1.7e308," + lines[1 + k].split(",", 1)[1]
        huge = tmp_path / "huge.csv"
        huge.write_text("\n".join(lines) + "\n")
        mpath, report = tmp_path / "m.json", tmp_path / "r.json"
        code, _, err = run(capsys, "train", "--data", str(huge), "--target", "y",
                           "--task", task, "--model", str(mpath), "--S", "8",
                           "--bandwidth-scale", scale, "--out", str(report))
        assert code == 2
        assert err == (f"gpnam: data error: {huge}: 1 validation row(s) hold a cell so "
                       "large that the cosine angles overflow\n")
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not mpath.exists() and not report.exists()

    def test_non_finite_report_value_is_numeric_breakdown(self, tmp_path, synth_csv, capsys,
                                                          monkeypatch):
        monkeypatch.setattr(cli.metrics_mod, "rmse", lambda preds, y: math.nan)
        report = tmp_path / "r.json"
        code, out, err = run(capsys, "train", "--data", synth_csv, "--target", "y",
                             "--task", "reg", "--model", str(tmp_path / "m.json"), "--S", "8",
                             "--out", str(report))
        assert code == 4
        assert err.startswith("gpnam: numeric breakdown: report holds a non-finite value")
        assert err.count("\n") == 1 and out == ""
        assert not report.exists()

    @pytest.mark.parametrize("task", ["reg", "clf"])
    def test_fit_reads_only_the_training_rows(self, tmp_path, synth_csv, clf_csv, capsys,
                                              task):
        path = Path(synth_csv if task == "reg" else clf_csv)
        # the rows split puts into validation and test: split the row indices
        ds = data.load_csv(path, "y", cli._TASK_ALIASES[task])
        rows = replace(ds, X=np.arange(ds.n, dtype=np.float64)[:, None])
        _, val, test = data.split(rows, (0.8, 0.1, 0.1), seed=5)
        held_out = set(np.concatenate([val.X[:, 0], test.X[:, 0]]).astype(int))
        lines = path.read_text().splitlines()
        for k in held_out:
            *features, y = lines[1 + k].split(",")
            lines[1 + k] = ",".join([repr(3.0 * float(v) + 7.0) for v in features] + [y])
        moved = tmp_path / "moved.csv"
        moved.write_text("\n".join(lines) + "\n")
        models = []
        for csv_path in (path, moved):
            mpath = tmp_path / f"{csv_path.stem}.json"
            code, _, _ = run(capsys, "train", "--data", str(csv_path), "--target", "y",
                             "--task", task, "--model", str(mpath), "--S", "16",
                             "--bandwidth-scale", "0.5", "--seed", "5")
            assert code == 0
            models.append(mpath.read_bytes())
        assert models[0] == models[1]

    @pytest.mark.parametrize("scale", ["1.0", "auto"])
    def test_validation_part_with_one_class_is_refilled(self, tmp_path, capsys, scale):
        # 5 positives in 100 rows: the stratified slices leave none for validation
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(100, 2))
        y = np.zeros(100, dtype=int)
        y[rng.choice(100, 5, replace=False)] = 1
        path = tmp_path / "rare.csv"
        path.write_text("x1,x2,y\n" + "".join(f"{a!r},{b!r},{t}\n"
                                                for (a, b), t in zip(X.tolist(), y)))
        mpath = tmp_path / "m.json"
        code, out, err = run(capsys, "train", "--data", str(path), "--target", "y",
                             "--task", "clf", "--model", str(mpath), "--S", "8",
                             "--bandwidth-scale", scale)
        assert code == 0, err
        assert model.load(mpath).task == data.TASK_CLASSIFICATION
        assert json.loads(out)["validation"][0]["metric"] == "auc"

    def test_byte_order_mark_is_skipped(self, tmp_path, synth_csv, capsys):
        # Excel's "CSV UTF-8" starts the file with a byte-order mark
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(synth_csv).read_bytes())
        outputs = []
        for csv_path in (synth_csv, bom):
            mpath = tmp_path / "m.json"
            code, _, _ = run(capsys, "train", "--data", str(csv_path), "--target", "y",
                             "--task", "reg", "--model", str(mpath), "--S", "16")
            assert code == 0
            code, preds, _ = run(capsys, "predict", "--data", str(csv_path),
                                 "--model", str(mpath))
            assert code == 0
            outputs.append((mpath.read_bytes(), preds))
        assert outputs[0] == outputs[1]

    def test_duplicate_header_is_data_error(self, tmp_path, capsys):
        csv = tmp_path / "dup.csv"
        csv.write_text("x,x,y\n" + "".join(f"{i},{-i},{i % 7}\n" for i in range(60)))
        code, _, err = run(capsys, "train", "--data", str(csv), "--target", "y",
                           "--task", "reg", "--model", str(tmp_path / "m.json"),
                           "--S", "8")
        assert code == 2
        assert "repeated" in err

    def test_zero_basis_size_is_usage_error(self, tmp_path, synth_csv, capsys):
        code, _, err = run(capsys, "train", "--data", synth_csv, "--target", "y",
                           "--task", "reg", "--model", str(tmp_path / "m.json"),
                           "--S", "0")
        assert code == 1

    def test_unallocatable_basis_is_one_line_error(self, tmp_path, synth_csv, capsys,
                                                   monkeypatch):
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(rff, "build_basis", too_large)
        code, _, err = run(capsys, "train", "--data", synth_csv, "--target", "y",
                           "--task", "reg", "--model", str(tmp_path / "m.json"),
                           "--S", "100000000000")
        assert code == 1
        assert err.startswith("gpnam: error: ") and err.count("\n") == 1
        assert not (tmp_path / "m.json").exists()

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code, _, _ = run(capsys, "train", "--data", str(tmp_path / "nope.csv"),
                         "--target", "y", "--task", "reg",
                         "--model", str(tmp_path / "m.json"))
        assert code == 2

    def test_numeric_scale_runs_no_search(self, tmp_path, synth_csv, capsys):
        code, out, _ = run(capsys, "train", "--data", synth_csv, "--target", "y",
                           "--task", "reg", "--model", str(tmp_path / "m.json"), "--S", "8",
                           "--bandwidth-scale", "0.5")
        assert code == 0
        doc = json.loads(out)
        assert doc["chosen_bandwidth_scale"] == 0.5
        assert doc["bandwidth_search"] is None

    @pytest.mark.parametrize("pair", ["0:2"])
    def test_interaction_pair_out_of_range(self, tmp_path, synth_csv, capsys, pair):
        code, _, err = run(capsys, "train", "--data", synth_csv, "--target", "y",
                           "--task", "reg", "--model", str(tmp_path / "m.json"), "--S", "8",
                           f"--interactions={pair}")
        assert code == 1
        assert "d=2" in err
        assert not (tmp_path / "m.json").exists()

    def test_interactions_accepted(self, tmp_path, synth_csv, capsys):
        mpath = tmp_path / "mi.json"
        code, _, _ = run(capsys, "train", "--data", synth_csv, "--target", "y",
                         "--task", "reg", "--model", str(mpath), "--S", "8",
                         "--interactions", "0:1")
        assert code == 0
        m = model.load(mpath)
        assert [(i, j) for (i, j, _) in m.interactions] == [(0, 1)]
        assert m.basis.pair_z is not None


    def test_file_without_a_feature_column_is_a_data_error(self, tmp_path, capsys):
        path, mpath = tmp_path / "only_y.csv", tmp_path / "m0.json"
        path.write_text("y\n1.5\n2.5\n3.5\n")
        code, out, err = run(capsys, "train", "--data", str(path), "--target", "y",
                             "--task", "reg", "--model", str(mpath), "--S", "8")
        assert code == 2 and out == ""
        assert f"{path}: no feature column besides the target 'y'" in err
        assert not mpath.exists()

    @pytest.mark.parametrize("lam", ["1e-100", "1e-200"])
    @pytest.mark.parametrize("task", ["reg", "clf"])
    def test_too_small_lambda_is_no_data_error(self, tmp_path, task, lam):
        """A penalty too small to fit gives a finite model or a numeric
        breakdown (exit 4), never a data error or a numpy warning."""
        rng = np.random.default_rng(5)
        X = rng.uniform(-2, 2, (300, 3))
        y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2 + rng.normal(0, 0.1, 300)
        if task == "clf":
            y = (y > np.median(y)).astype(int)
        path = tmp_path / "d.csv"
        path.write_text("a,b,c,y\n" + "".join(f"{r[0]!r},{r[1]!r},{r[2]!r},{t}\n"
                                               for r, t in zip(X.tolist(), y.tolist())))
        proc = subprocess.run([sys.executable, "-m", "gpnam.cli", "train", "--data", str(path),
                               "--target", "y", "--task", task, "--S", "8", "--lambda", lam,
                               "--model", str(tmp_path / "m.json")],
                              capture_output=True, text=True)
        assert "RuntimeWarning" not in proc.stderr
        assert proc.returncode in (0, 3, 4), proc.stderr
        if proc.returncode == 4:
            assert proc.stderr.startswith("gpnam: numeric breakdown: ")
            assert proc.stderr.count("\n") == 1

class TestTrainOnTables:
    """train fits on the cosine tables of stack_features and never forms the
    n x D design matrix: the features it builds raise on ``.phi``. Their
    table holds a row per distinct value of each training column and a row
    per training row for each interaction pair."""

    @pytest.fixture
    def tied_csv(self, tmp_path):
        """A regression and a classification file whose columns hold 1, 2, 7
        and about 300 distinct values."""
        rng = np.random.default_rng(5)
        X = np.column_stack([np.full(400, 0.5), rng.choice([-1.0, 2.0], 400),
                             rng.integers(0, 7, 400) / 4, rng.uniform(-2, 2, 400).round(2)])
        score = np.sin(X[:, 3]) + X[:, 1] * X[:, 2] / 4 + rng.normal(0, 0.3, 400)
        paths = {}
        for task, y in (("reg", score), ("clf", (score > 0.3).astype(float))):
            rows = [",".join(map(repr, row)) for row in np.column_stack([X, y]).tolist()]
            paths[task] = tmp_path / f"{task}.csv"
            paths[task].write_text("\n".join(["a,b,c,e,y"] + rows) + "\n")
        return paths

    @pytest.mark.parametrize("argv, fits", [
        (("--task", "reg", "--mode", "grid", "--bandwidth-scale", "auto"), 1),
        (("--task", "reg", "--mode", "mc", "--bandwidth-scale", "auto"), 5),
        (("--task", "clf"), 1),
        (("--task", "reg", "--interactions", "0:1,1:2"), 1),
    ])
    def test_train_never_forms_phi(self, tmp_path, tied_csv, capsys, monkeypatch, argv, fits):
        class Tables(solvers.StackedFeatures):
            @property
            def phi(self):
                raise AssertionError("train formed the n x D design matrix")

        built = []
        stack = solvers.stack_features

        def tables_only(basis, widths, X, pairs=None):
            feats = stack(basis, widths, X, pairs=pairs)
            feats.__class__ = Tables
            built.append((X, len(pairs), feats))
            return feats

        monkeypatch.setattr(solvers, "stack_features", tables_only)
        code, _, err = run(capsys, "train", "--data", str(tied_csv[argv[1]]), "--target", "y",
                           "--S", "16", "--model", str(tmp_path / "m.json"), *argv)
        assert code == 0, err
        assert len(built) == fits
        for X, pairs, feats in built:
            n, d = X.shape
            distinct = sum(np.unique(X[:, j]).size for j in range(d))
            assert distinct < n * d
            assert feats.table.shape == (distinct + n * pairs, 1 + 16)
            assert feats.dim == 1 + 16 * (d + pairs)


class TestSettingsCheckedBeforeReading:
    """Every train setting that does not depend on the data is rejected
    before the CSV is read."""

    @pytest.mark.parametrize("flags", [
        ["--lambda", "-1"], ["--lambda", "nan"], ["--cg-tol", "-1"], ["--cg-tol", "inf"],
        ["--lambda", "0"], ["--lambda", "inf"], ["--sgd-lr", "inf"],
        ["--sgd-lr", "0"], ["--sgd-lr", "nan"], ["--sgd-batch", "0"],
        ["--sgd-lr-decay", "1.5"], ["--split", "0.5,0.5"], ["--split", "0.5,0.6,0.1"],
        ["--split", "nan,0.5,0.5"], ["--split", "a,b,c"], ["--bandwidth-scale", "foo"],
        ["--bandwidth-scale", "0"], ["--bandwidth-scale", "-2"], ["--bandwidth-scale", "nan"],
        ["--bandwidth-scale", "inf"], ["--interactions", "0-1"], ["--interactions", "1:1"],
        ["--interactions=-1:0"], ["--interactions=-1:2"], ["--seed", "-1"]], ids="=".join)
    def test_rejected_without_reading_data(self, tmp_path, synth_csv, capsys, monkeypatch,
                                           flags):
        calls = []
        load_csv = data.load_csv

        def counting_load_csv(*args, **kwargs):
            calls.append(1)
            return load_csv(*args, **kwargs)

        monkeypatch.setattr(data, "load_csv", counting_load_csv)
        code, _, _ = run(capsys, "train", "--data", synth_csv, "--target", "y",
                         "--task", "reg", "--model", str(tmp_path / "m.json"), "--S", "8",
                         *flags)
        assert code == 1
        assert calls == []
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_cg_tol_is_not_a_setting(self, tmp_path, synth_csv, clf_csv, capsys, source):
        """The ridge solve is direct and Newton stops at a fixed gradient norm,
        so neither has a tolerance, step size or iteration limit to set."""
        for key, value, task, path in (("cg_tol", 1e-9, "reg", synth_csv),
                                       ("sgd_lr", 0.5, "clf", clf_csv)):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: value}))
            flag = "--" + key.replace("_", "-")
            extra = [flag, repr(value)] if source == "flag" else ["--config", str(cfg)]
            out, mpath = tmp_path / "t.json", tmp_path / "m.json"
            code, _, err = run(capsys, "train", "--data", path, "--target", "y",
                               "--task", task, "--model", str(mpath), "--out", str(out),
                               "--S", "8", *extra)
            assert code == 1
            assert (flag if source == "flag" else f"[{key!r}]") in err
            assert not mpath.exists() and not out.exists()

    def test_solver_defaults_are_fit_config_defaults(self):
        cfg = cli.resolve_config(cli.build_parser().parse_args(["train"]))
        assert cfg["lam"] == solvers.FitConfig().lam

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["train", "synth"])
    def test_negative_seed_is_usage_error(self, tmp_path, synth_csv, capsys, monkeypatch,
                                          command, source):
        calls = []
        for name in ("load_csv", "synth_additive"):
            monkeypatch.setattr(data, name, lambda *args, **kwargs: calls.append(1))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -1}))
        seed = ["--seed", "-1"] if source == "flag" else ["--config", str(cfg)]
        inputs = (["--data", synth_csv, "--target", "y", "--task", "reg",
                   "--model", str(tmp_path / "m.json")] if command == "train" else [])
        out = tmp_path / "out"
        code, _, err = run(capsys, command, *inputs, "--out", str(out), *seed)
        assert code == 1
        assert "--seed must be >= 0" in err
        assert calls == []
        assert not out.exists() and not (tmp_path / "m.json").exists()


def _flag(key):
    return "--lambda" if key == "lam" else "--" + key.replace("_", "-")


class TestCommandTable:
    """Each command accepts, requires and echoes only the settings it reads,
    as listed in ``cli._COMMANDS``."""

    @pytest.fixture
    def mpath(self, tmp_path, synth_csv, capsys):
        path = tmp_path / "m.json"
        code, _, _ = run(capsys, "train", "--data", synth_csv, "--target", "y",
                         "--task", "reg", "--model", str(path), "--S", "8")
        assert code == 0
        return str(path)

    @pytest.mark.parametrize("argv", [
        "predict --S 8", "predict --split 1,2,3", "evaluate --mode mc", "shapes --lambda 2",
        "shapes --verbose", "synth --task clf"])
    def test_unread_flag_is_usage_error(self, tmp_path, synth_csv, mpath, capsys, argv):
        command, *extra = argv.split()
        needed = {"predict": ["--data", synth_csv, "--model", mpath],
                  "evaluate": ["--data", synth_csv, "--target", "y", "--model", mpath],
                  "shapes": ["--model", mpath], "synth": ["--n", "20"]}
        out = tmp_path / "o.out"
        code, _, err = run(capsys, command, *needed[command], "--out", str(out), *extra)
        assert code == 1
        assert f"unrecognized arguments: {' '.join(extra)}" in err
        assert not out.exists()

    def test_unread_config_key_is_usage_error(self, tmp_path, synth_csv, mpath, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"S": 8}))
        out = tmp_path / "p.csv"
        code, _, err = run(capsys, "predict", "--data", synth_csv, "--model", mpath,
                           "--out", str(out), "--config", str(cfg))
        assert code == 1
        assert "['S']" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_config_echo_lists_the_command_settings(self, tmp_path, synth_csv, mpath,
                                                    capsys, command):
        argv = {"train": ["--data", synth_csv, "--target", "y", "--task", "reg",
                          "--model", str(tmp_path / "t.json"), "--S", "8"],
                "evaluate": ["--data", synth_csv, "--target", "y", "--model", mpath]}[command]
        code, out, _ = run(capsys, command, *argv)
        assert code == 0
        _, _, required, other = cli._COMMANDS[command]
        assert set(json.loads(out)["config"]) == {*required, *other, "command"}

    def test_each_command_takes_exactly_its_flags(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(cli._COMMANDS)
        for name, (_, _, required, other) in cli._COMMANDS.items():
            options = {opt for action in sub.choices[name]._actions
                       for opt in action.option_strings}
            assert options == {*map(_flag, required + other), "-h", "--help", "--config"}


class TestIngestReport:
    """Every run reports the rows it read and dropped; there is no --verbose."""

    @pytest.mark.parametrize("command", ["train", "predict", "evaluate", "synth"])
    def test_verbose_is_usage_error(self, tmp_path, synth_csv, capsys, command):
        mpath = tmp_path / "m.json"
        argv = {"train": ["--data", synth_csv, "--target", "y", "--task", "reg",
                          "--model", str(mpath)],
                "predict": ["--data", synth_csv, "--model", str(mpath)],
                "evaluate": ["--data", synth_csv, "--target", "y", "--model", str(mpath)],
                "synth": []}[command]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"verbose": True}))
        out = tmp_path / "o.out"
        for extra, message in ((["--verbose"], "unrecognized arguments: --verbose"),
                               (["--config", str(cfg)], "['verbose']")):
            code, _, err = run(capsys, command, *argv, "--out", str(out), *extra)
            assert code == 1
            assert message in err
            assert not out.exists() and not mpath.exists()

    def test_every_run_reports_its_rows(self, tmp_path, synth_csv, capsys):
        mpath = tmp_path / "m.json"
        code, out, err = run(capsys, "train", "--data", synth_csv, "--target", "y",
                             "--task", "reg", "--model", str(mpath), "--S", "8")
        assert code == 0 and err == ""
        assert json.loads(out)["ingest"] == {
            "rows_read": 800, "rows_dropped": 0,
            "encodings": {"x1": "numeric", "x2": "numeric"}}

        # one row with a missing cell, and one far outside the training range
        damaged = tmp_path / "damaged.csv"
        damaged.write_text(Path(synth_csv).read_text() + ",1.0,2.0\n100.0,0.0,1.0\n")
        mins, maxs = model.load(mpath).feature_ranges
        X, _, _, _ = data.load_features(synth_csv, ["x1", "x2"], [{"kind": "numeric"}] * 2)
        outside = sum(any(not lo <= v <= hi for v, lo, hi in zip(row, mins, maxs)) for row in X)
        want = {"rows_read": 802, "rows_dropped": 1, "rows_outside_training_range": outside + 1}
        code, out, err = run(capsys, "evaluate", "--data", str(damaged), "--target", "y",
                             "--model", str(mpath))
        assert code == 0 and err == ""
        assert json.loads(out)["ingest"] == want
        code, out, err = run(capsys, "predict", "--data", str(damaged), "--model", str(mpath),
                             "--out", str(tmp_path / "p.csv"))
        assert code == 0 and out == ""
        assert [json.loads(line) for line in err.splitlines()] == [want]
        code, out, err = run(capsys, "shapes", "--data", str(damaged), "--model", str(mpath),
                             "--out", str(tmp_path / "s.csv"))
        assert code == 0 and out == ""
        assert [json.loads(line) for line in err.splitlines()] == [want]

        code, out, err = run(capsys, "synth", "--out", str(tmp_path / "s.csv"),
                             "--n", "5", "--d", "2")
        assert code == 0 and out == ""
        (report,) = [json.loads(line) for line in err.splitlines()]
        assert (report["n"], report["d"], len(report["shapes"])) == (5, 2, 2)


class TestHugeCells:
    """A finite cell so large that its cosine angles overflow drops its row
    in predict, evaluate and shapes, as a missing cell does."""

    def test_row_dropped_and_counted(self, tmp_path, capsys, recwarn):
        train = tmp_path / "s.csv"
        code, _, _ = run(capsys, "synth", "--out", str(train), "--n", "400", "--d", "3",
                         "--seed", "1")
        assert code == 0
        mpath = str(tmp_path / "m.json")
        code, _, _ = run(capsys, "train", "--data", str(train), "--target", "y",
                         "--task", "reg", "--model", mpath, "--S", "8")
        assert code == 0
        header, *lines = train.read_text().splitlines()
        huge = tmp_path / "huge.csv"
        lines[7] = "-1.7e308," + lines[7].split(",", 1)[1]
        huge.write_text("\n".join([header] + lines) + "\n")

        def strict_json(text):
            return json.loads(text, parse_constant=lambda name: pytest.fail(name))

        out = tmp_path / "p.csv"
        code, _, err = run(capsys, "predict", "--data", str(huge), "--model", mpath,
                           "--out", str(out))
        assert code == 0
        assert strict_json(err)["rows_dropped"] == 1
        ids, preds = zip(*(row.split(",") for row in out.read_text().splitlines()[1:]))
        assert [int(i) for i in ids] == [k for k in range(400) if k != 7]
        assert all(math.isfinite(float(p)) for p in preds)
        code, text, _ = run(capsys, "evaluate", "--data", str(huge), "--target", "y",
                            "--model", mpath)
        assert code == 0
        doc = strict_json(text)
        assert doc["ingest"]["rows_dropped"] == 1
        assert all(math.isfinite(row["value"]) and row["n"] == 399 for row in doc["metrics"])
        code, _, err = run(capsys, "shapes", "--data", str(huge), "--model", mpath,
                           "--out", str(tmp_path / "shapes.csv"))
        assert code == 0 and strict_json(err)["rows_dropped"] == 1
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        huge.write_text("\n".join([header, lines[7], lines[7]]) + "\n")
        code, _, err = run(capsys, "predict", "--data", str(huge), "--model", mpath)
        assert code == 2
        assert err == f"gpnam: data error: {huge}: every row was dropped during ingestion\n"


@pytest.fixture
def csv_reader_refuses_data(monkeypatch):
    """csv.reader raising on a row that holds a number: a data line in the
    files below, whose headers hold none."""
    real = csv.reader

    def reader(*args, **kwargs):
        for row in real(*args, **kwargs):
            if any(math.isfinite(data._cell_value(cell)) for cell in row):
                raise AssertionError(f"csv.reader read the data line {row}")
            yield row

    monkeypatch.setattr(csv, "reader", reader)


class TestIngestPath:
    def test_numeric_regression_file_skips_csv_reader(self, tmp_path, synth_csv, capsys,
                                                      csv_reader_refuses_data):
        mpath, out = str(tmp_path / "m.json"), str(tmp_path / "out.csv")
        for argv in (["train", "--data", synth_csv, "--target", "y", "--task", "reg",
                      "--model", mpath, "--S", "8", "--bandwidth-scale", "auto"],
                     ["predict", "--data", synth_csv, "--model", mpath, "--out", out],
                     ["evaluate", "--data", synth_csv, "--target", "y", "--model", mpath],
                     ["shapes", "--data", synth_csv, "--model", mpath, "--out", out]):
            code, _, _ = run(capsys, *argv)
            assert code == 0, argv

    def test_quoted_file_uses_csv_reader(self, tmp_path, synth_csv, csv_reader_refuses_data):
        text = Path(synth_csv).read_text()
        quoted = tmp_path / "quoted.csv"
        quoted.write_text('"x1",x2,y' + text[text.index("\n"):])
        numeric = [{"kind": "numeric"}] * 2
        for read in (lambda: data.load_csv(str(quoted), "y", data.TASK_REGRESSION),
                     lambda: data.load_features(str(quoted), ["x1", "x2"], numeric)):
            with pytest.raises(AssertionError, match="csv.reader read the data line"):
                read()

    def test_classification_and_categorical_files_skip_csv_reader(self, tmp_path, clf_csv,
                                                                   csv_reader_refuses_data):
        lines = Path(clf_csv).read_text().splitlines()
        labelled = tmp_path / "labelled.csv"
        levels, labels = ["low", "mid", "high"], {"0": "no", "1": "yes"}
        labelled.write_text("a,b,g,y\n" + "".join(
            f"{line[:-1]}{levels[k % 3]},{labels[line[-1]]}\n"
            for k, line in enumerate(lines[1:])))
        numeric = [{"kind": "numeric"}] * 2
        for path in (clf_csv, str(labelled)):
            ds = data.load_csv(path, "y", data.TASK_CLASSIFICATION)
            X, y, _, _ = data.load_features(path, ds.feature_names, ds.encodings, "y",
                                            data.TASK_CLASSIFICATION, ds.target_classes)
            assert np.array_equal(X, ds.X) and np.array_equal(y, ds.y)
        assert [enc["kind"] for enc in ds.encodings] == ["numeric", "numeric", "ordinal"]
        assert ds.encodings[2]["categories"] == levels and ds.target_classes == ["no", "yes"]
        data.load_features(clf_csv, ["a", "b"], numeric, "y", data.TASK_CLASSIFICATION)


class TestPredict:
    def _zero_weight_model(self, tmp_path, w0=0.25, d=2):
        basis = rff.build_basis(8, "grid", 0)
        m = model.GPNAMModel(basis=basis, feature_names=[f"x{i+1}" for i in range(d)],
                             task="regression", w0=w0, W=np.zeros((d, 8)),
                             b=np.ones(d), standardization=(np.zeros(d), np.ones(d)),
                             centering_offsets=np.zeros(d))
        path = tmp_path / "zero.json"
        model.save(m, path)
        return str(path)

    def test_constant_prediction(self, tmp_path, synth_csv, capsys):
        mpath = self._zero_weight_model(tmp_path)
        out_csv = tmp_path / "p.csv"
        code, _, _ = run(capsys, "predict", "--data", synth_csv, "--model", mpath,
                         "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "row_id,prediction"
        values = {float(line.split(",")[1]) for line in lines[1:]}
        assert values == {0.25}

    def test_missing_feature_column(self, tmp_path, capsys):
        mpath = self._zero_weight_model(tmp_path, d=3)
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2\n1,2\n")
        code, _, _ = run(capsys, "predict", "--data", str(bad), "--model", mpath,
                         "--out", str(tmp_path / "p.csv"))
        assert code == 2

    def test_round_trip_matches_in_process(self, tmp_path, synth_csv, capsys):
        mpath = tmp_path / "m.json"
        code, _, _ = run(capsys, "train", "--data", synth_csv, "--target", "y",
                         "--task", "reg", "--model", str(mpath), "--S", "16")
        assert code == 0
        out_csv = tmp_path / "p.csv"
        code, _, _ = run(capsys, "predict", "--data", synth_csv, "--model",
                         str(mpath), "--out", str(out_csv))
        assert code == 0
        got = np.array([float(l.split(",")[1])
                        for l in out_csv.read_text().strip().splitlines()[1:]])
        m = model.load(mpath)
        X, _, _, _ = data.load_features(synth_csv, m.feature_names,
                                        [{"kind": "numeric"}] * 2)
        want = model.predict(m, X)
        assert np.max(np.abs(got - want)) < 1e-12


class TestEvaluate:
    def test_metric_objects(self, tmp_path, synth_csv, capsys):
        mpath = tmp_path / "m.json"
        run(capsys, "train", "--data", synth_csv, "--target", "y", "--task", "reg",
            "--model", str(mpath), "--S", "16")
        code, out, _ = run(capsys, "evaluate", "--data", synth_csv, "--target", "y",
                           "--model", str(mpath))
        assert code == 0
        doc = json.loads(out)
        names = {m["metric"] for m in doc["metrics"]}
        assert names == {"mse", "rmse"}
        for row in doc["metrics"]:
            assert set(row) == {"metric", "value", "n", "dataset", "model"}

    def test_overflowing_score_is_numeric_breakdown(self, tmp_path, capsys):
        """Finite weights so large that the squared errors overflow: the
        infinite mse is a numeric breakdown on one stderr line, with no
        numpy warning."""
        data_path, mpath = str(tmp_path / "s.csv"), tmp_path / "m.json"
        assert run(capsys, "synth", "--n", "300", "--d", "3", "--seed", "1",
                   "--out", data_path)[0] == 0
        assert run(capsys, "train", "--data", data_path, "--target", "y", "--task", "reg",
                   "--S", "8", "--model", str(mpath))[0] == 0
        doc = json.loads(mpath.read_text())
        doc["W"] = [[1e308] * len(row) for row in doc["W"]]
        mpath.write_text(json.dumps(doc))
        code, out, err = run(capsys, "evaluate", "--data", data_path, "--target", "y",
                             "--model", str(mpath))
        assert code == 4
        assert err.startswith("gpnam: numeric breakdown: report holds a non-finite value")
        assert err.count("\n") == 1 and out == ""

    def test_duplicate_header_is_data_error(self, tmp_path, synth_csv, capsys):
        mpath = tmp_path / "m.json"
        run(capsys, "train", "--data", synth_csv, "--target", "y", "--task", "reg",
            "--model", str(mpath), "--S", "16")
        rows = [line.split(",") for line in open(synth_csv).read().splitlines()[1:]]
        dup = tmp_path / "dup.csv"
        # the first x2 column holds x1's values; the model must not read it as x2
        dup.write_text("x1,x2,x2,y\n" + "".join(f"{a},{a},{b},{y}\n" for a, b, y in rows))
        code, _, err = run(capsys, "evaluate", "--data", str(dup), "--target", "y",
                           "--model", str(mpath))
        assert code == 2
        assert "repeated" in err

    @staticmethod
    def relabel(clf_csv, tmp_path, name, labels):
        """``clf_csv`` with its 0/1 labels written as ``labels[0]``/``labels[1]``."""
        lines = Path(clf_csv).read_text().splitlines()
        rows = [line.rsplit(",", 1) for line in lines[1:]]
        path = tmp_path / name
        path.write_text("\n".join([lines[0]] + [f"{x},{labels[int(y)]}" for x, y in rows]) + "\n")
        return str(path)

    def train_no_yes(self, clf_csv, tmp_path, capsys):
        data_path = self.relabel(clf_csv, tmp_path, "no_yes.csv", ("no", "yes"))
        mpath = tmp_path / "m.json"
        code, _, _ = run(capsys, "train", "--data", data_path, "--target", "y",
                         "--task", "clf", "--model", str(mpath), "--S", "8")
        assert code == 0
        return data_path, mpath

    def test_label_unseen_at_training_is_data_error(self, tmp_path, clf_csv, capsys):
        _, mpath = self.train_no_yes(clf_csv, tmp_path, capsys)
        # the rows labelled "yes" at training are labelled "no" here
        other = self.relabel(clf_csv, tmp_path, "maybe_no.csv", ("maybe", "no"))
        out = tmp_path / "e.json"
        code, _, err = run(capsys, "evaluate", "--data", other, "--target", "y",
                           "--model", str(mpath), "--out", str(out))
        assert code == 2
        assert "'maybe'" in err and "unseen" in err
        assert not out.exists()

    def test_model_file_without_target_classes_evaluates_as_before(self, tmp_path, clf_csv,
                                                                   capsys):
        data_path, mpath = self.train_no_yes(clf_csv, tmp_path, capsys)
        doc = json.loads(mpath.read_text())
        assert doc.pop("target_classes") == ["no", "yes"]
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(doc, indent=1) + "\n")
        metrics = []
        for path in (mpath, bare):
            code, out, _ = run(capsys, "evaluate", "--data", data_path, "--target", "y",
                               "--model", str(path))
            assert code == 0
            metrics.append([(r["metric"], r["value"], r["n"]) for r in json.loads(out)["metrics"]])
        assert metrics[0] == metrics[1]
        # without the key, the evaluation file's own sorted labels map to 0/1
        other = self.relabel(clf_csv, tmp_path, "maybe_no.csv", ("maybe", "no"))
        code, _, _ = run(capsys, "evaluate", "--data", other, "--target", "y",
                         "--model", str(bare))
        assert code == 0


class TestMetricTable:
    @pytest.mark.parametrize("task, target, names", [
        ("reg", "y", ["rmse", "mse"]), ("clf", "y", ["auc", "error_rate"])])
    def test_train_and_evaluate_report_the_same_metrics(self, tmp_path, synth_csv,
                                                        clf_csv, capsys, task, target, names):
        path = synth_csv if task == "reg" else clf_csv
        mpath = tmp_path / "m.json"
        code, out, _ = run(capsys, "train", "--data", path, "--target", target,
                           "--task", task, "--model", str(mpath), "--S", "8")
        assert code == 0
        validation = json.loads(out)["validation"]
        code, out, _ = run(capsys, "evaluate", "--data", path, "--target", target,
                           "--model", str(mpath))
        assert code == 0
        metrics = json.loads(out)["metrics"]
        assert [r["metric"] for r in validation] == [r["metric"] for r in metrics] == names
        for row in validation + metrics:
            assert set(row) == {"metric", "value", "n", "dataset", "model"}


class TestMalformedModelFile:
    """Model files that parse but break an invariant exit 2 on every command."""

    def _break(self, tmp_path, synth_csv, capsys, edit):
        mpath = tmp_path / "m.json"
        code, _, _ = run(capsys, "train", "--data", synth_csv, "--target", "y",
                         "--task", "reg", "--model", str(mpath), "--S", "8")
        assert code == 0
        doc = json.loads(mpath.read_text())
        edit(doc)
        mpath.write_text(json.dumps(doc))
        return str(mpath)

    @pytest.mark.parametrize("command", ["shapes", "predict"])
    def test_feature_ranges_one_short(self, tmp_path, synth_csv, capsys, command):
        mpath = self._break(tmp_path, synth_csv, capsys,
                            lambda doc: doc["feature_ranges"]["mins"].pop())
        extra = ["--data", synth_csv] if command == "predict" else []
        code, _, err = run(capsys, command, "--model", mpath,
                           "--out", str(tmp_path / "o.csv"), *extra)
        assert code == 2
        assert "feature ranges" in err

    def test_encodings_one_short(self, tmp_path, synth_csv, capsys):
        mpath = self._break(tmp_path, synth_csv, capsys, lambda doc: doc["encodings"].pop())
        code, _, err = run(capsys, "predict", "--data", synth_csv, "--model", mpath,
                           "--out", str(tmp_path / "p.csv"))
        assert code == 2
        assert "encodings" in err

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_non_finite_weight(self, tmp_path, synth_csv, capsys, command):
        mpath = self._break(tmp_path, synth_csv, capsys,
                            lambda doc: doc["W"][0].__setitem__(0, math.nan))
        assert "NaN" in Path(mpath).read_text()
        extra = ["--target", "y"] if command == "evaluate" else []
        code, out, err = run(capsys, command, "--data", synth_csv, "--model", mpath, *extra)
        assert (code, out) == (2, "")
        assert err == (f"gpnam: data error: {mpath}: w0, W, interaction weights and "
                       "bandwidth_scale must be finite\n")

    def test_encoding_without_kind(self, tmp_path, synth_csv, capsys):
        mpath = self._break(tmp_path, synth_csv, capsys,
                            lambda doc: doc["encodings"][0].pop("kind"))
        code, _, err = run(capsys, "predict", "--data", synth_csv, "--model", mpath,
                           "--out", str(tmp_path / "p.csv"))
        assert code == 2
        assert "encodings" in err


    def test_model_file_not_utf8(self, tmp_path, synth_csv, capsys):
        mpath = self._break(tmp_path, synth_csv, capsys, lambda doc: None)
        Path(mpath).write_bytes(Path(mpath).read_bytes().replace(b'"x1"', b'"x\xe9"', 1))
        code, _, err = run(capsys, "predict", "--data", synth_csv, "--model", mpath,
                           "--out", str(tmp_path / "p.csv"))
        assert code == 2
        assert mpath in err


class TestUnreadableBytes:
    """A data file that is not UTF-8, or holds a cell longer than the csv
    module's field limit, is a data error naming the file on every command."""

    @pytest.mark.parametrize("bad_line", [
        pytest.param(b"0.5,caf\xe9,1.0", id="latin-1"),
        pytest.param(b"0.5," + b"9" * 200_000 + b",1.0", id="long-cell"),
        pytest.param(b'0.5,"' + b"x" * 200_000 + b'",1.0', id="long-quoted-cell"),
    ])
    @pytest.mark.parametrize("command", ["train", "predict", "evaluate", "shapes"])
    def test_data_error_naming_the_file(self, tmp_path, synth_csv, capsys, command,
                                        bad_line):
        mpath = str(tmp_path / "m.json")
        code, _, _ = run(capsys, "train", "--data", synth_csv, "--target", "y",
                         "--task", "reg", "--model", mpath, "--S", "8")
        assert code == 0
        bad = tmp_path / "bad.csv"
        bad.write_bytes(Path(synth_csv).read_bytes() + bad_line + b"\n")
        argv = {"train": ["--target", "y", "--task", "reg", "--model", str(tmp_path / "n.json")],
                "predict": ["--model", mpath, "--out", str(tmp_path / "p.csv")],
                "evaluate": ["--target", "y", "--model", mpath],
                "shapes": ["--model", mpath, "--out", str(tmp_path / "s.csv")]}[command]
        code, out, err = run(capsys, command, "--data", str(bad), *argv)
        assert code == 2 and out == ""
        assert err.startswith("gpnam: data error: ") and str(bad) in err


class TestShapes:
    def test_zero_weight_model(self, tmp_path, synth_csv, capsys):
        basis = rff.build_basis(8, "grid", 0)
        m = model.GPNAMModel(basis=basis, feature_names=["x1", "x2"],
                             task="regression", w0=1.0, W=np.zeros((2, 8)),
                             b=np.ones(2), standardization=(np.zeros(2), np.ones(2)),
                             centering_offsets=np.zeros(2),
                             feature_ranges=(np.array([-2.0, -2.0]),
                                             np.array([2.0, 2.0])))
        mpath = tmp_path / "m.json"
        model.save(m, mpath)
        out_csv = tmp_path / "shapes.csv"
        code, _, _ = run(capsys, "shapes", "--model", str(mpath), "--out",
                         str(out_csv), "--grid-points", "16")
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "feature,x,f"
        assert len(lines) == 1 + 2 * 16
        assert all(float(l.split(",")[2]) == 0.0 for l in lines[1:])

    def test_density_written_with_data(self, tmp_path, synth_csv, capsys, monkeypatch):
        mpath = tmp_path / "m.json"
        run(capsys, "train", "--data", synth_csv, "--target", "y", "--task", "reg",
            "--model", str(mpath), "--S", "8")
        (tmp_path / "run.v2").mkdir()
        monkeypatch.chdir(tmp_path)
        # the density file takes the shapes file's name, whatever dots the path holds
        for out, density in (("shapes.csv", "shapes_density.csv"), ("shapes", "shapes_density"),
                             ("run.v2/shapes", "run.v2/shapes_density"),
                             ("./shapes", "shapes_density")):
            code, _, _ = run(capsys, "shapes", "--model", str(mpath), "--out", out,
                             "--data", synth_csv)
            assert code == 0
            assert (tmp_path / out).is_file()
            dens = tmp_path / density
            assert dens.exists()
            lines = dens.read_text().strip().splitlines()
            assert lines[0] == "feature,bin_left,bin_right,count"
            counts = [int(l.split(",")[3]) for l in lines[1:]]
            assert sum(counts) == 2 * 800  # every row lands in a bin, per feature
            dens.unlink()

    def test_exported_values_match_shape_function(self, tmp_path, synth_csv, capsys):
        mpath = tmp_path / "m.json"
        run(capsys, "train", "--data", synth_csv, "--target", "y", "--task", "reg",
            "--model", str(mpath), "--S", "16")
        out_csv = tmp_path / "shapes.csv"
        code, _, _ = run(capsys, "shapes", "--model", str(mpath), "--out",
                         str(out_csv), "--grid-points", "32")
        assert code == 0
        m = model.load(mpath)
        mins, maxs = m.feature_ranges
        rows = [l.split(",") for l in out_csv.read_text().strip().splitlines()[1:]]
        for i, name in enumerate(m.feature_names):
            got = np.array([float(r[2]) for r in rows if r[0] == name])
            table = model.shape_function(m, i, np.linspace(mins[i], maxs[i], 32))
            want = np.array([float(f"{v:.9g}") for v in table.values])
            assert np.array_equal(got, want)

    def test_feature_names_needing_quotes_parse_back(self, tmp_path, capsys):
        names = ["x, one", 'say "x"', "plain"]
        rng = np.random.default_rng(4)
        X = rng.uniform(-2, 2, (300, 3))
        path = tmp_path / "quoted.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(names + ["y"])
            writer.writerows([*map(repr, x), repr(float(np.sin(x).sum()))] for x in X)
        mpath, out = tmp_path / "m.json", tmp_path / "s.csv"
        code, _, _ = run(capsys, "train", "--data", str(path), "--target", "y",
                         "--task", "reg", "--model", str(mpath), "--S", "8")
        assert code == 0
        code, _, _ = run(capsys, "shapes", "--model", str(mpath), "--out", str(out),
                         "--data", str(path), "--grid-points", "4", "--density-bins", "3")
        assert code == 0
        for csv_path, width in ((out, 3), (tmp_path / "s_density.csv", 4)):
            with open(csv_path, newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            assert {len(r) for r in rows} == {width}
            assert [r[0] for r in rows[::len(rows) // 3]] == names
            assert "\nplain," in csv_path.read_text()  # a plain name is not quoted

    @pytest.mark.parametrize("bins", ["0", "-3"])
    def test_bad_density_bins_writes_nothing(self, tmp_path, synth_csv, capsys, bins):
        mpath = tmp_path / "m.json"
        run(capsys, "train", "--data", synth_csv, "--target", "y", "--task", "reg",
            "--model", str(mpath), "--S", "8")
        out_csv = tmp_path / "s.csv"
        code, _, _ = run(capsys, "shapes", "--model", str(mpath), "--out", str(out_csv),
                         "--data", synth_csv, "--density-bins", bins)
        assert code == 1
        assert not out_csv.exists()
        assert not (tmp_path / "s_density.csv").exists()

    def test_too_few_grid_points(self, tmp_path, synth_csv, capsys):
        mpath = tmp_path / "m.json"
        run(capsys, "train", "--data", synth_csv, "--target", "y", "--task", "reg",
            "--model", str(mpath), "--S", "8")
        code, _, _ = run(capsys, "shapes", "--model", str(mpath), "--out",
                         str(tmp_path / "s.csv"), "--grid-points", "1")
        assert code == 1


class TestBlasThreads:
    def test_predict_and_shapes_do_not_depend_on_the_thread_count(self, tmp_path,
                                                                  synth_csv, capsys):
        """predict and shapes sum through no BLAS routine, so a model file
        gives the same bytes at any BLAS thread count."""
        mpath = tmp_path / "m.json"
        run(capsys, "train", "--data", synth_csv, "--target", "y", "--task", "reg",
            "--model", str(mpath), "--S", "32", "--interactions", "0:1")
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads)
            out = tmp_path / threads
            out.mkdir()
            for argv in (("predict", "--data", synth_csv, "--out", str(out / "p.csv")),
                         ("shapes", "--data", synth_csv, "--out", str(out / "s.csv"))):
                proc = subprocess.run([sys.executable, "-m", "gpnam.cli", *argv,
                                       "--model", str(mpath)], env=env, capture_output=True)
                assert proc.returncode == 0, proc.stderr
            outputs.append([(out / f).read_bytes() for f in ("p.csv", "s.csv", "s_density.csv")])
        assert outputs[0] == outputs[1]

    def test_train_weights_do_not_depend_on_the_thread_count(self, tmp_path, synth_csv):
        """The ridge solve is exact, so the BLAS thread count moves the
        weights by rounding only."""
        models = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads)
            mpath = tmp_path / f"m{threads}.json"
            proc = subprocess.run([sys.executable, "-m", "gpnam.cli", "train", "--data",
                                   synth_csv, "--target", "y", "--task", "reg", "--S", "100",
                                   "--model", str(mpath)], env=env, capture_output=True)
            assert proc.returncode == 0, proc.stderr
            models.append(model.load(mpath))
        a, b = models
        scale = np.max(np.abs(a.W))
        assert abs(a.w0 - b.w0) <= 1e-12 * scale
        assert np.max(np.abs(a.W - b.W)) <= 1e-12 * scale


class TestPredictThreads:
    """Over model.PREDICT_CHUNK rows, predict's cosines run on one thread per
    usable CPU; smaller inputs run in the calling thread."""

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="no CPU affinity call on this platform")
    def test_outputs_do_not_depend_on_the_cpu_set(self, tmp_path, capsys):
        rows = tmp_path / "big.csv"
        run(capsys, "synth", "--out", str(rows), "--n", str(2 * model.PREDICT_CHUNK + 1),
            "--d", "2", "--noise-sd", "0.1", "--seed", "4")
        mpath = tmp_path / "m.json"
        code, _, _ = run(capsys, "train", "--data", str(rows), "--target", "y", "--task", "reg",
                         "--model", str(mpath), "--S", "32", "--interactions", "0:1")
        assert code == 0
        cpu = min(os.sched_getaffinity(0))
        outputs = []
        for name, preexec in (("one", lambda: os.sched_setaffinity(0, {cpu})), ("all", None)):
            out = tmp_path / name
            out.mkdir()
            printed = []
            for argv in (("predict", "--data", rows, "--out", out / "p.csv"),
                         ("evaluate", "--data", rows, "--target", "y"),
                         ("shapes", "--data", rows, "--out", out / "s.csv")):
                proc = subprocess.run([sys.executable, "-m", "gpnam.cli", *map(str, argv),
                                       "--model", str(mpath)],
                                      capture_output=True, preexec_fn=preexec)
                assert proc.returncode == 0, proc.stderr
                printed.append(proc.stdout)
            outputs.append(printed + [(out / f).read_bytes()
                                      for f in ("p.csv", "s.csv", "s_density.csv")])
        assert outputs[0] == outputs[1]

    def test_small_inputs_start_no_thread(self, tmp_path, capsys, monkeypatch):
        """Train's 1,000-row validation part, a 1-row predict and the
        256-point shape grids are one chunk each."""
        rng = np.random.default_rng(9)
        X = rng.uniform(-2, 2, (10_000, 2))
        y = (rng.uniform(size=10_000) < sigmoid(X[:, 0] - X[:, 1])).astype(int)
        lines = ["a,b,y"] + [f"{a!r},{b!r},{t}" for (a, b), t in zip(X.tolist(), y.tolist())]
        train = tmp_path / "clf.csv"
        train.write_text("\n".join(lines) + "\n")
        one_row = tmp_path / "one.csv"
        one_row.write_text("\n".join(lines[:2]) + "\n")

        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(_kernels, "WORKERS", 2)
        monkeypatch.setattr(threading, "Thread", no_thread)
        mpath = tmp_path / "m.json"
        code, out, err = run(capsys, "train", "--data", str(train), "--target", "y",
                             "--task", "clf", "--model", str(mpath), "--S", "8")
        assert code == 0, err
        assert json.loads(out)["split_sizes"]["val"] == 1000
        for argv in (("predict", "--data", str(one_row), "--out", str(tmp_path / "p.csv")),
                     ("shapes", "--out", str(tmp_path / "s.csv"))):
            code, _, err = run(capsys, *argv, "--model", str(mpath))
            assert code == 0, err


class TestConfigFile:
    def test_flags_override_config(self, tmp_path, synth_csv, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"S": 8, "seed": 5}))
        mpath = tmp_path / "m.json"
        code, out, _ = run(capsys, "train", "--data", synth_csv, "--target", "y",
                           "--task", "reg", "--model", str(mpath),
                           "--config", str(cfg), "--S", "16")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["S"] == 16
        assert doc["config"]["seed"] == 5
        assert model.load(mpath).S == 16

    def test_unknown_key_rejected(self, tmp_path, synth_csv, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"wibble": 1}))
        code, _, _ = run(capsys, "train", "--data", synth_csv, "--target", "y",
                         "--task", "reg", "--model", str(tmp_path / "m.json"),
                         "--config", str(cfg))
        assert code == 1


    @pytest.mark.parametrize("value", [{"S": "16"}, {"S": 16.5}, {"lam": "1"},
                                       {"mode": "quasi"}, {"data": 5}, {"S": 8.0},
                                       {"grid_points": 3.0}])
    def test_value_of_wrong_type_rejected(self, tmp_path, synth_csv, capsys, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(value))
        # grid_points is read by shapes only; every other key here is a train setting
        argv = (["shapes", "--out", str(tmp_path / "s.csv")] if "grid_points" in value
                else ["train", "--data", synth_csv, "--target", "y", "--task", "reg"])
        code, _, err = run(capsys, *argv, "--model", str(tmp_path / "m.json"),
                           "--config", str(cfg))
        assert code == 1
        assert f"config key {next(iter(value))!r}" in err
        assert not (tmp_path / "m.json").exists() and not (tmp_path / "s.csv").exists()

    def test_values_of_flag_types_accepted(self, tmp_path, synth_csv, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"S": 8, "lam": 2, "mode": "mc",
                                   "bandwidth_scale": "0.5"}))
        code, out, err = run(capsys, "train", "--data", synth_csv, "--target", "y",
                             "--task", "reg", "--model", str(tmp_path / "m.json"),
                             "--config", str(cfg))
        assert code == 0
        assert err == ""
        assert json.loads(out)["config"]["lam"] == 2

    def test_integer_lambda_fits_as_the_real_one(self, tmp_path, synth_csv, capsys):
        # nothing casts lam to float: a JSON 2 reaches the solver as the int 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lam": 2}))
        models = []
        for name, lam in (("flag", ["--lambda", "2"]), ("file", ["--config", str(cfg)])):
            mpath = tmp_path / f"{name}.json"
            code, _, _ = run(capsys, "train", "--data", synth_csv, "--target", "y",
                             "--task", "reg", "--model", str(mpath), "--S", "8", *lam)
            assert code == 0
            models.append(mpath.read_bytes())
        assert models[0] == models[1]

    def test_not_utf8_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"data": "caf\xe9.csv"}')
        assert cli.main(["train", "--config", str(cfg)]) == 1
        assert str(cfg) in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["5", '"S"', '[["S", 8]]'])
    def test_non_object_rejected(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert cli.main(["train", "--config", str(cfg)]) == 1
        assert "config file must hold a JSON object" in capsys.readouterr().err


class TestUsage:
    def test_predict_without_model(self, capsys, tmp_path):
        d = tmp_path / "d.csv"
        d.write_text("a\n1\n")
        code, _, _ = run(capsys, "predict", "--data", str(d))
        assert code == 1

    def test_unknown_command(self, capsys):
        assert cli.main(["nonsense"]) == 1

    def test_no_command(self, capsys):
        assert cli.main([]) == 1

    def test_unparseable_flag_value(self, capsys):
        assert cli.main(["train", "--S", "abc"]) == 1

    def test_bad_mode_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"mode": "quasi"}))
        assert cli.main(["train", "--config", str(cfg)]) == 1
        assert "config key 'mode' must be one of" in capsys.readouterr().err


def test_every_raised_error_has_an_exit_code():
    """Each class that ``src/gpnam`` raises by name is caught by one of
    ``cli.main``'s ``except`` clauses, so it ends in an exit code and not in
    a traceback. Both lists are read from the source with ``ast``."""
    def resolve(module, node):
        """The object that ``X``, ``X(...)`` or ``a.X(...)`` names in ``module``."""
        obj = module
        for part in ast.unparse(getattr(node, "func", node)).split("."):
            obj = getattr(obj, part, getattr(builtins, part, None))
        return obj

    main = next(node for node in ast.walk(ast.parse(Path(cli.__file__).read_text()))
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    handled = tuple(resolve(cli, t) for node in ast.walk(main) if isinstance(node, ast.Try)
                    for h in node.handlers
                    for t in (h.type.elts if isinstance(h.type, ast.Tuple) else [h.type]))
    assert ValueError in handled and all(isinstance(h, type) for h in handled)

    raised = {}
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        module = importlib.import_module("gpnam" if path.stem == "__init__"
                                         else f"gpnam.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text())):
            # a bare ``raise`` or ``raise errors[0]`` re-raises what a handler caught
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                cls = resolve(module, node.exc)
                assert isinstance(cls, type), f"{path.name}: {ast.unparse(node)}"
                raised[f"{path.name}: {cls.__name__}"] = cls
    assert {ValueError, DataError, NumericBreakdownError} <= set(raised.values())
    assert sorted(where for where, cls in raised.items() if not issubclass(cls, handled)) == []


def test_readme_lists_every_flag():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    parser = cli.build_parser()
    parsers = [parser] + [action.choices[name] for action in parser._actions
                          if isinstance(action, argparse._SubParsersAction)
                          for name in action.choices]
    options = {opt for p in parsers for action in p._actions for opt in action.option_strings}
    assert "--density-bins" in options
    assert sorted(opt for opt in options if opt not in readme) == []
    # the Default cell of each flag in the README table is its _SETTINGS default
    cells = {}
    for line in readme.splitlines():
        if line.startswith("| `--"):
            flags, defaults = line.split("|")[1:3]
            flags = [f.strip(" `") for f in flags.split(",")]
            defaults = defaults.split(",") if len(flags) > 1 else [defaults]
            cells.update(zip(flags, (d.strip(" `") for d in defaults)))
    settings = {s.flag: s.default for s in cli._SETTINGS.values()}
    assert set(cells) == set(settings)
    for flag, default in settings.items():
        if default is None:
            assert cells[flag] in ("none", "stdout"), flag
        elif isinstance(default, str):
            assert cells[flag] == default, flag
        else:
            assert float(cells[flag]) == default, flag
