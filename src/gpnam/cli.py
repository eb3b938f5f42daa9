"""Command-line interface.

Commands: train, predict, evaluate, shapes, synth. Outputs are
JSON (diagnostics, metrics) or CSV (predictions, shapes, synthetic data),
always written atomically; the command's resolved settings are echoed into
every JSON output for provenance. Every run reports what it read: train and
evaluate put their ingest report (rows read and dropped) into their JSON,
predict and shapes --data write it, and synth a summary of its data, as one
JSON line on stderr.

train fits both tasks with solvers.fit_reduced, in each feature and pair
block's eigenbasis: regression by one R x R ridge solve, classification by
damped Newton on the n x R reduced matrix, each followed by a complement step
on the full problem; neither has a setting beyond lambda. Its report gives R
(reduced_rank) and judges the weights on the full D-coordinate problem. Its
--bandwidth-scale auto search fits the scales widest first. Consecutive
BANDWIDTH_GRID scales differ by exactly 2, so with a grid basis each narrower
scale's features are the last ones halved (StackedFeatures.halve_width), and
the search computes its cosines once. No command forms the n x D design
matrix; a model takes its weights block by block (StackedFeatures.blocks).

Exit codes: 0 success, 1 usage error, 2 data/model-file error,
3 solver did not converge (model still saved), 4 numeric breakdown.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import data as data_mod
from . import metrics as metrics_mod
from . import model as model_mod
from . import rff, solvers
from .errors import (DataError, EmptyDataError, ModelFileError, NumericBreakdownError,
                     UndefinedMetricError)
from .model import _atomic_write_text

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NOT_CONVERGED = 3
EXIT_NUMERIC = 4

BANDWIDTH_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)

# Per task: the metrics reported by train and evaluate, and whether a higher
# score is better. The first metric is the bandwidth-selection score.
_TASK_METRICS = {data_mod.TASK_REGRESSION: (("rmse", "mse"), False),
                 data_mod.TASK_CLASSIFICATION: (("auc", "error_rate"), True)}

_TASK_ALIASES = {"reg": data_mod.TASK_REGRESSION, "regression": data_mod.TASK_REGRESSION,
                 "clf": data_mod.TASK_CLASSIFICATION,
                 "binary_classification": data_mod.TASK_CLASSIFICATION}
_MODE_ALIASES = {"mc": rff.MODE_MONTE_CARLO, "monte_carlo": rff.MODE_MONTE_CARLO,
                 "grid": rff.MODE_GRID}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; usage errors are exit code 1 here
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


class _Setting(NamedTuple):
    """A setting's flag, help text and default (None: it has none), and the
    argparse type and choices that its flag and config-file values must fit."""

    flag: str
    help: str
    default: object = None
    type: type = str
    choices: list | None = None


# Every setting a command can read, in --help order; "config" is the flag of
# the config file, which every command takes.
_SETTINGS = {
    "data": _Setting("--data", "input CSV path"),
    "target": _Setting("--target", "target column name"),
    "task": _Setting("--task", "reg or clf", choices=sorted(_TASK_ALIASES)),
    "S": _Setting("--S", "basis size", 100, int),
    "mode": _Setting("--mode", "mc or grid", "grid", choices=sorted(_MODE_ALIASES)),
    "seed": _Setting("--seed", "random seed", 0, int),
    "bandwidth_scale": _Setting(
        "--bandwidth-scale", "kernel width factor, or 'auto' for a validation grid search",
        "1.0"),
    "lam": _Setting("--lambda", "L2 strength", solvers.FitConfig.lam, float),
    "split": _Setting("--split", "train,val,test fractions", "0.8,0.1,0.1"),
    "model": _Setting("--model", "model file path"),
    "out": _Setting("--out", "output file path"),
    "grid_points": _Setting("--grid-points", "shape grid resolution", 256, int),
    "density_bins": _Setting("--density-bins", "histogram bins for shape densities", 32, int),
    "interactions": _Setting("--interactions", "pairwise terms as i:j,k:l feature indices"),
    "config": _Setting("--config", "JSON config file; flags override it"),
    "n": _Setting("--n", "number of rows", 1000, int),
    "d": _Setting("--d", "number of features", 3, int),
    "noise_sd": _Setting("--noise-sd", "noise standard deviation", 0.1, float),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="gpnam", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, required, other) in _COMMANDS.items():
        # no abbreviations: evaluate --mode must not be read as --model
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for key, s in _SETTINGS.items():
            if key in required + other or key == "config":
                # no argparse default, so that a config-file value can fill the setting
                shown = "" if s.default is None else f" (default {s.default})"
                p.add_argument(s.flag, dest=key, help=s.help + shown, type=s.type,
                               choices=s.choices)
    return parser


def _check_file_value(key, value):
    """Reject a config-file value the setting's flag could not have produced:
    its ``type`` must map the value to itself, an ``int`` setting takes only a
    JSON integer, and the value must be one of the ``choices``."""
    s = _SETTINGS[key]
    check = model_mod._json_int if s.type is int else s.type
    try:
        ok = not isinstance(value, bool) and check(value) == value
    except (TypeError, ValueError):
        ok = False
    if not ok or (s.choices is not None and value not in s.choices):
        want = f"one of {s.choices}" if s.choices else f"a {s.type.__name__}"
        raise UsageError(f"config key {key!r} must be {want}, got {value!r}")


def resolve_config(args: argparse.Namespace) -> dict:
    """The command's settings, sorted by key: defaults, then the config file,
    then the flags. Each value leaves here typed and bounded."""
    _, _, required, other = _COMMANDS[args.command]
    keys = required + other
    cfg = {key: _SETTINGS[key].default for key in keys}
    cfg["command"] = args.command
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from None
        except UnicodeDecodeError as exc:
            raise UsageError(f"config file {args.config} is not UTF-8: {exc}") from None
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = sorted(set(file_cfg) - set(keys))
        if unknown:
            raise UsageError(f"{args.command} reads no config key(s) {unknown}")
        for key, value in file_cfg.items():
            _check_file_value(key, value)
        cfg.update(file_cfg)
    for key in keys:
        value = getattr(args, key)
        if value is not None:
            cfg[key] = value
    if cfg.get("task") is not None:
        cfg["task"] = _TASK_ALIASES[cfg["task"]]
    if "mode" in cfg:
        cfg["mode"] = _MODE_ALIASES[cfg["mode"]]
    for key, low in (("S", 1), ("seed", 0), ("grid_points", 2), ("density_bins", 1)):
        if cfg.get(key, low) < low:
            raise UsageError(f"{_SETTINGS[key].flag} must be >= {low}")
    return dict(sorted(cfg.items()))


def _parse_split(text):
    try:
        fractions = [float(p) for p in text.split(",")]
    except ValueError:
        raise UsageError(f"bad split fractions {text!r}") from None
    return data_mod.split_fractions(fractions)


def _candidate_scales(text):
    """The bandwidth scales train fits: the grid for 'auto', else the one given."""
    text = text.strip().lower()
    if text == "auto":
        return BANDWIDTH_GRID
    try:
        factor = float(text)
    except ValueError:
        raise UsageError(f"--bandwidth-scale must be a number or 'auto', got {text!r}") from None
    if not (math.isfinite(factor) and factor > 0):
        raise UsageError("--bandwidth-scale must be positive and finite")
    return (factor,)


def _parse_interactions(text):
    """Sorted distinct (i, j) pairs with 0 <= i < j; stack_features checks j against d."""
    pairs = set()
    for item in text.split(",") if text else ():
        try:
            i, j = (int(v) for v in item.split(":"))
        except ValueError:
            raise UsageError(f"bad interaction pair {item!r}; expected i:j") from None
        if i == j or min(i, j) < 0:
            raise UsageError(f"bad interaction pair {item!r}; need two distinct indices >= 0")
        pairs.add((min(i, j), max(i, j)))
    return sorted(pairs)


def _emit_text(text, out_path=None):
    if out_path:
        _atomic_write_text(out_path, text)
    else:
        sys.stdout.write(text)


def _emit_json(doc, out_path=None):
    try:
        text = json.dumps(doc, indent=1, allow_nan=False)
    except ValueError as exc:  # NaN or infinity: no strict JSON reader takes it
        raise NumericBreakdownError(f"report holds a non-finite value ({exc})") from None
    _emit_text(text + "\n", out_path)


def _assemble_model(basis, w, feats, widths, ds, ranges, factor, pairs):
    # the weights of feats' blocks: the bias, each feature's, then each pair's
    bias, *terms = [w[cols] for cols in feats.blocks()]
    W = np.array(terms[:ds.d])
    offsets = np.array([float(np.mean(feats.block_values(1 + i, W[i]))) for i in range(ds.d)])
    interactions = [(i, j, wk) for (i, j), wk in zip(pairs, terms[ds.d:])]
    return model_mod.GPNAMModel(
        basis=basis, feature_names=ds.feature_names, task=ds.task, w0=float(bias[0]), W=W,
        b=widths, standardization=ds.standardization,
        centering_offsets=offsets, interactions=interactions, encodings=ds.encodings,
        feature_ranges=ranges, bandwidth_scale=factor, target_classes=ds.target_classes)


def _metric_rows(task, preds, y, data_path, model_path):
    """One ``{metric, value, n, dataset, model}`` row per metric of the task."""
    # looked up by name at call time, so a wrapper installed on metrics_mod sees the call
    return [{"metric": name, "value": getattr(metrics_mod, name)(preds, y), "n": int(y.shape[0]),
             "dataset": data_path, "model": model_path}
            for name in _TASK_METRICS[task][0]]


def cmd_train(cfg) -> int:
    # every setting that does not depend on the data is checked before reading it
    fractions = _parse_split(cfg["split"])
    scales = _candidate_scales(cfg["bandwidth_scale"])
    fit_cfg = solvers.FitConfig(lam=cfg["lam"])
    pairs = _parse_interactions(cfg["interactions"])
    task = cfg["task"]
    ds = data_mod.load_csv(cfg["data"], cfg["target"], task)
    # split raw rows first: every fitted statistic comes from the training rows
    try:  # the fractions passed _parse_split, so only the row count can fail
        train, val, test = data_mod.split(ds, fractions, seed=cfg["seed"])
    except ValueError as exc:
        raise DataError(f"{cfg['data']}: {exc}") from None
    # the report keeps these facts of the whole table and of the test rows,
    # which train never reads; their memory goes back before featurizing
    ingest = ds.ingest_report
    split_sizes = {"train": int(train.n), "val": int(val.n), "test": int(test.n)}
    del ds, test
    ranges = model_mod.training_ranges(train.X)
    train = data_mod.standardize(train)
    basis = rff.build_basis(cfg["S"], cfg["mode"], cfg["seed"])
    # Widest scale first. Consecutive BANDWIDTH_GRID scales differ by exactly
    # 2, so with a grid basis each narrower cosine table is the last one halved.
    halvable = basis.mode == rff.MODE_GRID and basis.S >= 2
    fits, feats = [], None
    for factor in reversed(scales):
        widths = data_mod.kernel_widths(train, factor)
        if halvable and feats is not None:
            feats.halve_width(basis.c)
        else:
            feats = None  # hold one table at a time
            feats = solvers.stack_features(basis, widths, train.X, pairs=pairs)
        w, report = solvers.fit_reduced(feats, train.y, task, fit_cfg)
        # reads feats before the next, narrower scale halves them
        mdl = _assemble_model(basis, w, feats, widths, train, ranges, factor, pairs)
        unusable = int(np.sum(~model_mod.usable_rows(mdl, val.X)))
        if unusable:
            raise DataError(f"{cfg['data']}: {unusable} validation row(s) hold a cell so "
                            "large that the cosine angles overflow")
        rows = _metric_rows(task, model_mod.predict(mdl, val.X), val.y, cfg["data"], cfg["model"])
        fits.append((mdl, report, rows))
    fits.reverse()  # back to the order of scales, for the search list and ties
    # the first metric scores each scale; min and max keep the first of a tie
    pick = max if _TASK_METRICS[task][1] else min
    mdl, report, val_rows = pick(fits, key=lambda f: f[2][0]["value"])
    model_mod.save(mdl, cfg["model"])

    doc = {
        "command": "train",
        "model": cfg["model"],
        "task": task,
        "chosen_bandwidth_scale": mdl.bandwidth_scale,
        "bandwidth_search": None if len(scales) == 1 else [
            {"bandwidth_scale": m.bandwidth_scale, rows[0]["metric"]: rows[0]["value"],
             "reduced_rank": rep.reduced_rank}
            for m, rep, rows in fits],
        "ingest": ingest,
        "split_sizes": split_sizes,
        "solver": report.to_dict(),
        "validation": val_rows,
        "config": cfg,
    }
    _emit_json(doc, cfg["out"])
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def _model_encodings(mdl):
    return mdl.encodings or [{"kind": "numeric"} for _ in range(mdl.d)]


def _load_model_rows(path, mdl, **target):
    """``load_features`` on ``path`` with the model's encodings. A row with
    a cell so large that its cosine angles overflow (``model.usable_rows``)
    is dropped and counted too. When the model stores its training ranges,
    the report also counts the rows outside them: extrapolation is allowed
    but flagged."""
    X, y, row_ids, report = data_mod.load_features(path, mdl.feature_names,
                                                   _model_encodings(mdl), **target)
    usable = model_mod.usable_rows(mdl, X)
    if not usable.all():
        if not usable.any():
            raise EmptyDataError(f"{path}: every row was dropped during ingestion")
        X, y, row_ids = X[usable], None if y is None else y[usable], row_ids[usable]
        report["rows_dropped"] += int(usable.size - usable.sum())
    if mdl.feature_ranges is not None:
        mins, maxs = mdl.feature_ranges
        outside = np.any((X < mins) | (X > maxs), axis=1)
        report["rows_outside_training_range"] = int(outside.sum())
    return X, y, row_ids, report


def cmd_predict(cfg) -> int:
    mdl = model_mod.load(cfg["model"])
    X, _, row_ids, report = _load_model_rows(cfg["data"], mdl)
    print(json.dumps(report), file=sys.stderr)
    preds = model_mod.predict(mdl, X)
    lines = ["row_id,prediction"]
    lines.extend(f"{rid},{p!r}" for rid, p in zip(row_ids.tolist(), preds.tolist()))
    _emit_text("\n".join(lines) + "\n", cfg["out"])
    return EXIT_OK


def cmd_evaluate(cfg) -> int:
    mdl = model_mod.load(cfg["model"])
    # a model file without target_classes maps this file's sorted labels to 0/1
    X, y, _, report = _load_model_rows(cfg["data"], mdl, target_column=cfg["target"],
                                       task=mdl.task, target_classes=mdl.target_classes)
    rows = _metric_rows(mdl.task, model_mod.predict(mdl, X), y, cfg["data"], cfg["model"])
    _emit_json({"command": "evaluate", "ingest": report, "metrics": rows,
                "config": cfg}, cfg["out"])
    return EXIT_OK


def cmd_shapes(cfg) -> int:
    mdl = model_mod.load(cfg["model"])
    points = cfg["grid_points"]
    X_data = None
    if cfg["data"]:
        X_data, _, _, report = _load_model_rows(cfg["data"], mdl)
        print(json.dumps(report), file=sys.stderr)
    if mdl.feature_ranges is not None:
        mins, maxs = mdl.feature_ranges
    elif X_data is not None:
        mins, maxs = model_mod.training_ranges(X_data)
    else:
        raise UsageError("model stores no feature ranges; pass --data")

    tables = []
    for i in range(mdl.d):
        grid = np.linspace(mins[i], maxs[i], points)
        tables.append(model_mod.shape_function(mdl, i, grid, centered=True))
    model_mod.write_shape_csv(tables, cfg["out"])

    if X_data is not None:
        bins = cfg["density_bins"]
        lines = ["feature,bin_left,bin_right,count"]
        for i, name in enumerate(map(model_mod.csv_field, mdl.feature_names)):
            counts, edges = np.histogram(X_data[:, i], bins=bins)
            for k in range(bins):
                lines.append(f"{name},{edges[k]:.9g},{edges[k + 1]:.9g},{int(counts[k])}")
        _atomic_write_text(_density_path(cfg["out"]), "\n".join(lines) + "\n")
    return EXIT_OK


def _density_path(out_path: str) -> Path:
    out = Path(out_path)
    return out.with_name(out.stem + "_density" + out.suffix)


def cmd_synth(cfg) -> int:
    ds = data_mod.synth_additive(cfg["n"], cfg["d"], cfg["noise_sd"], seed=cfg["seed"])
    lines = [",".join(ds.feature_names + ["y"])]
    lines.extend(",".join(map(repr, row)) for row in np.column_stack([ds.X, ds.y]).tolist())
    _atomic_write_text(cfg["out"], "\n".join(lines) + "\n")
    print(json.dumps({"n": ds.n, "d": ds.d, "shapes": ds.shape_names}), file=sys.stderr)
    return EXIT_OK


# name -> (handler, help, required settings, other settings read). A command
# takes the flags and config keys of these settings and --config, nothing
# else, and its JSON config echo lists exactly these settings.
_COMMANDS = {
    "train": (cmd_train, "fit a model on a CSV file and save it",
              ("data", "target", "task", "model"),
              ("S", "mode", "bandwidth_scale", "split", "interactions", "out", "lam", "seed")),
    "predict": (cmd_predict, "write predictions for a feature CSV",
                ("data", "model"), ("out",)),
    "evaluate": (cmd_evaluate, "compute metrics of a saved model on labeled data",
                 ("data", "model", "target"), ("out",)),
    "shapes": (cmd_shapes, "export shape-function (and density) CSV files",
               ("model", "out"), ("data", "grid_points", "density_bins")),
    "synth": (cmd_synth, "generate a synthetic additive dataset CSV",
              ("out",), ("n", "d", "noise_sd", "seed")),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = resolve_config(args)
        handler, _, required, _ = _COMMANDS[args.command]
        missing = [_SETTINGS[key].flag for key in required if not cfg[key]]
        if missing:
            raise UsageError(f"{args.command} requires {', '.join(missing)}")
        return handler(cfg)
    except UsageError as exc:
        print(f"gpnam: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"gpnam: invalid argument: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericBreakdownError as exc:
        print(f"gpnam: numeric breakdown: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, ModelFileError, UndefinedMetricError) as exc:
        print(f"gpnam: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"gpnam: i/o error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        # e.g. a basis size --S too large to allocate
        print(f"gpnam: error: out of memory ({str(exc) or 'allocation failed'})",
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
