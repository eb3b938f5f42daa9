"""The names the benchmark harness in ``perfbench/`` relies on.

The traced benchmark run wraps ``gpnam`` functions by name from outside the
package, so renaming or deleting one, or calling a metric through a function
object captured at import time, would only break ``--trace 1``. These tests
read ``perfbench/`` without editing it.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

import gpnam
from gpnam import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists():
    spans = load_perfbench("spans")
    for module_name, fn_name, *_ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(module_name), fn_name))
    assert isinstance(gpnam.BACKEND, str)
    assert callable(gpnam.model.predict_raw)


def test_package_root_exports_only_backend_and_version():
    # the package is used through its modules; the benchmark reads BACKEND
    assert gpnam.__all__ == ["BACKEND", "__version__"]
    assert isinstance(gpnam.BACKEND, str)


def test_every_workload_flag_is_read_by_its_command(tmp_path):
    workloads = load_perfbench("workloads")
    parser = cli.build_parser()
    for name in workloads.WORKLOADS:
        workload = workloads.build(name, tmp_path, seed=1)
        for command in workload.commands + workload.facts.get("setup_commands", []):
            # a flag its command does not read would be a usage error
            assert parser.parse_args(command.argv).command == command.name


def run_traced(*argvs):
    """Run each gpnam command line under perfbench's tracer, then restore
    every gpnam module's namespace; returns the tracer."""
    spans = load_perfbench("spans")
    saved = {m: dict(vars(sys.modules[m])) for m in list(sys.modules)
             if m == "gpnam" or m.startswith("gpnam.")}
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        for argv in argvs:
            assert cli.main(argv) == 0
    finally:
        for name, namespace in saved.items():
            vars(sys.modules[name]).update(namespace)
    return tracer


def test_traced_train_and_evaluate_see_every_layer(tmp_path, capsys):
    rng = np.random.default_rng(0)
    X = rng.uniform(-2, 2, (300, 2))
    lines = ["a,b,y"] + [f"{a:.6f},{b:.6f},{np.sin(a) + b:.6f}" for a, b in X]
    train = tmp_path / "train.csv"
    train.write_text("\n".join(lines) + "\n")
    holdout = tmp_path / "holdout.csv"
    holdout.write_text("\n".join(lines[:121]) + "\n")
    mpath = tmp_path / "m.json"

    tracer = run_traced(["train", "--data", str(train), "--target", "y", "--task", "reg",
                         "--S", "8", "--model", str(mpath)],
                        ["evaluate", "--data", str(holdout), "--target", "y",
                         "--model", str(mpath)])
    capsys.readouterr()
    stats = dict(tracer.stats)
    assert stats["metrics.rmse"]["calls"] == 2  # train validation, then evaluate
    assert stats["data.load_csv"]["calls"] == 1
    assert stats["data.load_features"]["calls"] == 1
    assert tracer.counts["data.load_features.rows"] == 120
    assert tracer.counts["data.load_csv.rows"] == 300


def test_traced_train_fills_pair_blocks_in_one_featurize_call(tmp_path, capsys):
    rng = np.random.default_rng(1)
    X = rng.uniform(-2, 2, (200, 3))
    lines = ["a,b,c,y"] + [f"{a:.6f},{b:.6f},{c:.6f},{a * b + c:.6f}" for a, b, c in X]
    train = tmp_path / "train.csv"
    train.write_text("\n".join(lines) + "\n")

    tracer = run_traced(["train", "--data", str(train), "--target", "y", "--task", "reg",
                         "--S", "8", "--interactions", "0:1",
                         "--model", str(tmp_path / "m.json")])
    n = json.loads(capsys.readouterr().out)["split_sizes"]["train"]
    stats = dict(tracer.stats)
    assert stats["kernels.featurize"]["calls"] == 1
    # the counter reads featurize's (X, z): n*d*S, the pair block not counted
    assert tracer.counts["kernels.featurize.cos_evals"] == n * 3 * 8
    assert "rff.pair_feature_map" not in stats
