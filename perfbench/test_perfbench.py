"""Tests of the benchmark's own code.

Run from the root of the repository::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from gpnam import _kernels, data, rff, solvers  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_nested_self_time():
    # a [0, 10] holds b [1, 4] and c [5, 6]; b holds d [2, 3.5]
    tracer = spans.Tracer(clock=FakeClock([0, 1, 2, 3.5, 4, 5, 6, 10]), rss=lambda: 0.0)
    tracer.enter("x.a", "x")
    tracer.enter("y.b", "y")
    tracer.enter("y.d", "y")
    tracer.exit()
    tracer.exit()
    tracer.enter("x.c", "x")
    tracer.exit()
    tracer.exit()
    st = tracer.stats
    assert st["x.a"]["s"] == 10 and st["x.a"]["self_s"] == 10 - 3 - 1
    assert st["y.b"]["s"] == 3 and st["y.b"]["self_s"] == 3 - 1.5
    assert st["y.d"]["self_s"] == 1.5
    assert st["x.c"]["self_s"] == 1
    # layer busy time counts nested spans of the same layer once
    assert tracer.layer_s == {"y": 3, "x": 10}
    assert sum(v["self_s"] for v in st.values()) == st["x.a"]["s"]


def test_recursive_span_counted_once():
    tracer = spans.Tracer(clock=FakeClock([0, 1, 3, 7]), rss=lambda: 0.0)
    tracer.enter("m.f", "m")
    tracer.enter("m.f", "m")
    tracer.exit()
    tracer.exit()
    assert tracer.stats["m.f"] == {"calls": 2, "s": 7, "self_s": 7, "hwm_delta_mb": 0.0}


def test_hwm_delta_and_counters():
    rss = iter([100.0, 160.0])
    tracer = spans.Tracer(clock=FakeClock([0, 1]), rss=lambda: next(rss))
    traced = tracer.wrap("m.g", "m", lambda n: n * 2, count=lambda a, k, r: {"m.items": r},
                         hwm=True)
    assert traced(21) == 42
    assert tracer.stats["m.g"]["hwm_delta_mb"] == 60.0
    assert tracer.counts == {"m.items": 42}


def test_span_closes_when_call_raises():
    tracer = spans.Tracer(clock=FakeClock([0, 2]), rss=lambda: 0.0)

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("m.boom", "m", boom)()
    assert tracer.stats["m.boom"]["calls"] == 1 and not tracer._stack


@pytest.mark.parametrize("n, d, S", [(7, 3, 5), (64, 8, 100)])
def test_work_formulas_match_array_shapes(n, d, S):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((n, d))
    basis = rff.build_basis(S, "grid", 0)
    phi = _kernels.featurize(X, basis.z, basis.c, np.ones(d))
    # every entry but the bias column is one cosine
    assert spans.featurize_cos_evals(X, basis.z) == phi[:, 1:].size == n * d * S
    # the Gram matvec reads Phi twice: Phi p, then Phi^T t
    assert spans.gram_apply_bytes(phi) == 2 * phi.nbytes == 2 * n * (1 + d * S) * 8


def test_install_counts_through_from_imports():
    import gpnam.model

    saved = {m: dict(vars(sys.modules[m])) for m in list(sys.modules)
             if m == "gpnam" or m.startswith("gpnam.")}
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        ds = data.standardize(data.synth_additive(50, 2, 0.1, seed=0))
        basis = rff.build_basis(10, "grid", 0, with_pairs=True)
        # gpnam.model bound stack_features by "from .solvers import"
        gpnam.model.stack_features(basis, np.ones(2), ds.X, pairs=[(0, 1)])
    finally:
        for name, namespace in saved.items():
            vars(sys.modules[name]).update(namespace)
    assert tracer.stats["solvers.stack_features"]["calls"] == 1
    assert tracer.stats["rff.pair_feature_map"]["calls"] == 50
    assert tracer.counts["kernels.featurize.cos_evals"] == 50 * 2 * 10
    assert solvers.stack_features.__name__ == "stack_features"
    assert not hasattr(solvers.stack_features, "__wrapped__")


def _read_all(work: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(work.iterdir())}


def test_generator_is_byte_identical_per_seed(tmp_path):
    for name in workloads.WORKLOADS:
        a, b, c = (tmp_path / name / k for k in "abc")
        for p in (a, b, c):
            p.mkdir(parents=True)
        workloads.build(name, a, 5)
        workloads.build(name, b, 5)
        workloads.build(name, c, 6)
        assert _read_all(a) == _read_all(b)
        assert _read_all(a) != _read_all(c)


def test_bulk_damage_matches_gpnam_drop_rules(tmp_path):
    path = tmp_path / "bulk.csv"
    X, y, kept = workloads.write_bulk_csv(path, seed=3, n=3000)
    names = [f"x{i + 1}" for i in range(workloads.REG_FEATURES)]
    enc = [{"kind": "numeric"}] * len(names)
    X_read, _, row_ids, report = data.load_features(path, names, enc)
    assert 0 < report["rows_dropped"] == 3000 - kept.size
    assert np.array_equal(row_ids, kept)
    assert np.array_equal(X_read, X[kept])


def test_tail_percentile_needs_ten_beyond():
    assert run.tail_percentile(list(range(19))) is None
    assert run.tail_percentile(list(range(20)))[0] == 50.0
    assert run.tail_percentile(list(range(100))) == (90.0, 89)
    assert run.tail_percentile(list(range(1000)))[0] == 99.0


def test_benchmark_json_names_match_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_cycle_values_sum_commands_and_derive_ratios():
    def cmd(name, stats, counts):
        return run.CmdRun(name, 0, 1.0, 1.0, summary={"stats": stats, "counts": counts,
                                                      "layer_s": {"solvers": 2.0}})

    ridge = {"solvers.solve_ridge_cg": {"calls": 6, "s": 3.0, "self_s": 0.5,
                                        "hwm_delta_mb": 0.0}}
    values = run._cycle_values([
        cmd("train", ridge, {"solvers.cg.iterations": 500}),
        cmd("evaluate", {}, {"data.rows_dropped": 2}),
    ])
    assert values["solvers.ridge_fits"] == 6
    assert values["solvers.ridge_fits_kept_ratio"] == 1 / 6
    assert values["solvers.solve_ridge_cg.s"] == 3.0
    assert values["solvers.cg.iterations"] == 500 and values["data.rows_dropped"] == 2
    assert values["solvers.s"] == 4.0
    assert "solvers.converged_share" not in values and "kernels.featurize.calls" not in values
