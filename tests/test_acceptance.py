"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 6 needs the public California Housing data, which is not bundled.
It is looked up in this order:
  1. $GPNAM_CA_HOUSING - a CSV with a header row; the target column is
     "MedHouseVal" if present, else the last column;
  2. scikit-learn's local cache (fetch_california_housing, no download);
  3. tests/data/cal_housing.csv (same convention as 1).
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from gpnam import data, metrics, model, rff, solvers

BANDWIDTH_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
TESTS_DIR = Path(__file__).resolve().parent

SINGLE_CORE_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "NUMBA_NUM_THREADS": "1",
}


def report(num, ok, desc):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


@pytest.fixture(scope="module", autouse=True)
def warm_kernels(tmp_path_factory):
    """Run one small fit in-process and through the CLI before any timed
    section, so one-off import and first-call costs stay out of the timings."""
    basis = rff.build_basis(4, "grid", 0)
    solvers.stack_features(basis, [1.0], np.zeros((2, 1)))
    tmp = tmp_path_factory.mktemp("warm")
    csv = tmp / "w.csv"
    _run_cli("synth", "--out", str(csv), "--n", "40", "--d", "1")
    _run_cli("train", "--data", str(csv), "--target", "y", "--task", "reg",
             "--model", str(tmp / "w.json"), "--S", "4")


def _run_cli(*argv, env_overrides=None):
    env = dict(os.environ)
    if env_overrides:
        env.update(env_overrides)
    return subprocess.run([sys.executable, "-m", "gpnam.cli", *argv],
                          capture_output=True, text=True, env=env)


def _fit_regression(ds_std, train, factor, S=100, seed=0, cg_tol=1e-8):
    basis = rff.build_basis(S, "grid", seed)
    widths = data.kernel_widths(ds_std, factor)
    feats = solvers.stack_features(basis, widths, train.X)
    cfg = solvers.FitConfig(cg_tol=cg_tol)
    w, rep = solvers.solve_ridge_cg(feats, train.y, cfg)
    return basis, widths, feats, w, rep


def _auto_bandwidth_fit(ds_std, train, val, S=100, seed=0):
    best = None
    for factor in BANDWIDTH_GRID:
        basis, widths, feats, w, _ = _fit_regression(ds_std, train, factor, S, seed)
        val_feats = solvers.stack_features(basis, widths, val.X)
        val_rmse = metrics.rmse(val_feats.phi @ w, val.y)
        if best is None or val_rmse < best[0]:
            best = (val_rmse, factor, basis, widths, feats, w)
    return best[1:]


def test_criterion_1_kernel_approximation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    pairs = rng.uniform(-3.0, 3.0, (200, 2))

    def errors(S):
        basis = rff.build_basis(S, "grid", 0)
        return np.array([abs(rff.approx_kernel(basis, x, xp, 1.0)
                             - rff.rbf_kernel(x, xp, 1.0)) for x, xp in pairs])

    err100 = errors(100)
    med50 = float(np.median(errors(50)))
    med2000 = float(np.median(errors(2000)))
    elapsed = time.perf_counter() - t0
    ok = (err100.max() <= 0.15 and np.median(err100) <= 0.05
          and med2000 < med50 and elapsed < 5.0)
    report(1, ok, f"grid S=100 kernel error max {err100.max():.4f} <= 0.15, "
                  f"median {np.median(err100):.4f} <= 0.05; median S=2000 "
                  f"{med2000:.5f} < S=50 {med50:.5f}; {elapsed:.1f}s < 5s")


def test_criterion_2_cg_matches_dense_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(20, 201))
        D = int(rng.integers(5, 301))
        phi = np.hstack([np.ones((n, 1)), rng.normal(size=(n, D - 1)) * 0.15])
        y = rng.normal(size=n)
        feats = solvers.StackedFeatures(phi=phi, S=1, d=D - 1)
        cfg = solvers.FitConfig(lam=1.0, cg_tol=1e-12, cg_max_iter=4 * D)
        w, _ = solvers.solve_ridge_cg(feats, y, cfg)
        reg = np.eye(D)
        reg[0, 0] = 0.0
        want = np.linalg.solve(reg + phi.T @ phi, phi.T @ y)
        rel = np.max(np.abs(w - want)) / np.max(np.abs(want))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    report(2, ok, f"25 ridge problems, worst relative inf-norm gap {worst:.2e} "
                  f"<= 1e-6; {elapsed:.1f}s < 10s")


def test_criterion_3_convexity_and_determinism(tmp_path):
    # (a) two logistic fits from different initializations agree in loss
    rng = np.random.default_rng(3)
    X = rng.uniform(-2, 2, (500, 2))
    logits = np.sin(3 * X[:, 0]) + X[:, 1]
    y = (rng.uniform(size=500) < solvers.sigmoid(logits)).astype(float)
    ds = data.Dataset(X=X, y=y, feature_names=["x1", "x2"],
                      task=data.TASK_CLASSIFICATION,
                      encodings=[{"kind": "numeric"}] * 2)
    ds = data.standardize(ds)
    basis = rff.build_basis(8, "grid", 0)
    widths = data.kernel_widths(ds, 1.0)
    feats = solvers.stack_features(basis, widths, ds.X)
    cfg = solvers.FitConfig(lam=1.0, sgd_lr=2.0, sgd_lr_decay=1.0,
                            sgd_batch=feats.n, sgd_epochs=6000, sgd_tol=0.0)
    _, rep_a = solvers.fit_logistic_sgd(feats, ds.y, cfg)
    w_init = 0.5 * np.random.default_rng(99).standard_normal(feats.dim)
    _, rep_b = solvers.fit_logistic_sgd(feats, ds.y, cfg, w_init=w_init)
    loss_gap = abs(rep_a.final_residual_or_loss - rep_b.final_residual_or_loss)

    # (b) two grid-mode CLI regression trainings are byte-identical
    csv = tmp_path / "s.csv"
    r = _run_cli("synth", "--out", str(csv), "--n", "2000", "--d", "3",
                 "--noise-sd", "0.1", "--seed", "5")
    assert r.returncode == 0, r.stderr
    files = []
    for name in ("a.json", "b.json"):
        mpath = tmp_path / name
        r = _run_cli("train", "--data", str(csv), "--target", "y", "--task", "reg",
                     "--model", str(mpath), "--S", "64", "--mode", "grid",
                     "--seed", "1")
        assert r.returncode == 0, r.stderr
        files.append(mpath.read_bytes())
    identical = files[0] == files[1]

    ok = loss_gap <= 1e-4 and identical
    report(3, ok, f"two-init loss gap {loss_gap:.2e} <= 1e-4; grid-mode rerun "
                  f"model files byte-identical: {identical}")


def test_criterion_4_parameter_count():
    def count(d, S=100):
        basis = rff.build_basis(S, "grid", 0)
        m = model.GPNAMModel(basis=basis, feature_names=[f"f{i}" for i in range(d)],
                             task="regression", w0=0.0, W=np.zeros((d, S)),
                             b=np.ones(d),
                             standardization=(np.zeros(d), np.ones(d)),
                             centering_offsets=np.zeros(d))
        return model.param_count(m)

    fico, lcd = count(39), count(5)
    ok = fico == 3901 and lcd == 501
    report(4, ok, f"param_count: d=39 -> {fico} (want 3901), d=5 -> {lcd} (want 501)")


def test_criterion_5_synthetic_shape_recovery():
    t0 = time.perf_counter()
    noise_sd = 0.3
    ds = data.synth_additive(20_000, 4, noise_sd, seed=11)
    ds_std = data.standardize(ds)
    train, val, test = data.split(ds_std, (0.8, 0.1, 0.1), seed=0)
    factor, basis, widths, feats, w = _auto_bandwidth_fit(ds_std, train, val)
    test_feats = solvers.stack_features(basis, widths, test.X)
    test_rmse = metrics.rmse(test_feats.phi @ w, test.y)

    W = w[1:].reshape(4, 100)
    offsets = np.array([float(np.mean(feats.phi[:, feats.feature_block(i)] @ W[i]))
                        for i in range(4)])
    mdl = model.GPNAMModel(basis=basis, feature_names=ds.feature_names,
                           task=ds.task, w0=float(w[0]), W=W, b=widths,
                           standardization=ds_std.standardization,
                           centering_offsets=offsets)
    grid = np.linspace(-2.0, 2.0, 201)
    corrs = []
    for i, name in enumerate(ds.shape_names):
        table = model.shape_function(mdl, i, grid)
        truth = data.SHAPE_FUNCTIONS[name](grid)
        corrs.append(float(np.corrcoef(table.values, truth)[0, 1]))
    elapsed = time.perf_counter() - t0
    ok = (test_rmse <= 1.2 * noise_sd and min(corrs) >= 0.95 and elapsed < 60.0)
    report(5, ok, f"test RMSE {test_rmse:.4f} <= 0.36; shape correlations "
                  f"{[f'{c:.3f}' for c in corrs]} all >= 0.95; {elapsed:.1f}s < 60s")


def _california_housing():
    """(X, y, names) from the documented locations, or None."""
    path = os.environ.get("GPNAM_CA_HOUSING") or None
    if path is None:
        local = TESTS_DIR / "data" / "cal_housing.csv"
        path = str(local) if local.exists() else None
    if path is not None:
        ds = data.load_csv(path, _ca_target_column(path), data.TASK_REGRESSION)
        return ds.X, ds.y, ds.feature_names
    try:
        from sklearn.datasets import fetch_california_housing
        bunch = fetch_california_housing(download_if_missing=False)
        return (np.asarray(bunch.data, dtype=np.float64),
                np.asarray(bunch.target, dtype=np.float64),
                list(bunch.feature_names))
    except Exception:
        return None


def _ca_target_column(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    return "MedHouseVal" if "MedHouseVal" in header else header[-1]


def test_criterion_6_california_housing():
    loaded = _california_housing()
    if loaded is None:
        report(6, False,
               "California Housing data not found: set GPNAM_CA_HOUSING to a "
               "CSV of the public dataset (or pre-populate scikit-learn's "
               "cache); this environment has no network access to fetch it")
    X, y, names = loaded
    t0 = time.perf_counter()
    y_std = (y - y.mean()) / y.std()  # benchmark RMSE convention: standardized targets
    ds = data.Dataset(X=X, y=y_std, feature_names=list(names),
                      task=data.TASK_REGRESSION,
                      encodings=[{"kind": "numeric"}] * X.shape[1])
    ds_std = data.standardize(ds)
    train, val, test = data.split(ds_std, (0.7, 0.1, 0.2), seed=0)
    factor, basis, widths, feats, w = _auto_bandwidth_fit(ds_std, train, val)
    test_feats = solvers.stack_features(basis, widths, test.X)
    test_rmse = metrics.rmse(test_feats.phi @ w, test.y)
    elapsed = time.perf_counter() - t0
    linear_baseline = 0.7354  # reference linear-regression RMSE on this benchmark
    ok = (test_rmse <= 0.60 and test_rmse <= linear_baseline - 0.10
          and elapsed < 120.0)
    report(6, ok, f"CA Housing test RMSE {test_rmse:.4f} <= 0.60 and beats "
                  f"linear {linear_baseline} by >= 0.10; bandwidth {factor}; "
                  f"{elapsed:.1f}s < 120s")


def test_criterion_7_nonlinearity_capture():
    ds = data.synth_additive(8000, 2, 0.3, seed=21, shapes=("sin3", "square"))
    ds_std = data.standardize(ds)
    train, val, test = data.split(ds_std, (0.8, 0.1, 0.1), seed=0)
    factor, basis, widths, feats, w = _auto_bandwidth_fit(ds_std, train, val)
    test_feats = solvers.stack_features(basis, widths, test.X)
    gpnam_rmse = metrics.rmse(test_feats.phi @ w, test.y)

    # least-squares linear baseline with intercept on the same inputs
    A_train = np.hstack([np.ones((train.n, 1)), train.X])
    coef, *_ = np.linalg.lstsq(A_train, train.y, rcond=None)
    A_test = np.hstack([np.ones((test.n, 1)), test.X])
    linear_rmse = metrics.rmse(A_test @ coef, test.y)

    ok = gpnam_rmse <= 0.5 * linear_rmse
    report(7, ok, f"sin/quadratic generator: GP-NAM RMSE {gpnam_rmse:.4f} <= "
                  f"0.5 x linear RMSE {linear_rmse:.4f}")


def test_criterion_8_logistic_gradient_check():
    rng = np.random.default_rng(31)
    basis = rff.build_basis(12, "grid", 2)
    X = rng.uniform(-2, 2, (60, 3))
    feats = solvers.stack_features(basis, np.ones(3), X)
    y_pm = np.where(rng.uniform(size=60) < 0.5, -1.0, 1.0)
    eps = 1e-6
    worst = 0.0
    for _ in range(5):
        w = rng.normal(size=feats.dim)
        _, grad = solvers.logistic_objective(w, feats.phi, y_pm, 1.0)
        num = np.empty_like(w)
        for k in range(w.size):
            wp, wm = w.copy(), w.copy()
            wp[k] += eps
            wm[k] -= eps
            lp, _ = solvers.logistic_objective(wp, feats.phi, y_pm, 1.0)
            lm, _ = solvers.logistic_objective(wm, feats.phi, y_pm, 1.0)
            num[k] = (lp - lm) / (2 * eps)
        worst = max(worst, float(np.linalg.norm(grad - num) / np.linalg.norm(num)))
    ok = worst <= 1e-5
    report(8, ok, f"analytic vs central-difference gradient, worst relative "
                  f"error {worst:.2e} <= 1e-5")


def test_criterion_9_lcd_scale_runtime(tmp_path):
    rng = np.random.default_rng(41)
    X = rng.uniform(-2, 2, (10_000, 5))
    logits = (np.sin(3 * X[:, 0]) + X[:, 1] ** 2 - 1.5 + np.tanh(2 * X[:, 2])
              + 0.5 * X[:, 3] - 0.5 * X[:, 4])
    y = (rng.uniform(size=10_000) < solvers.sigmoid(logits)).astype(int)
    csv = tmp_path / "lcd_scale.csv"
    lines = ["f1,f2,f3,f4,f5,label"]
    lines += [",".join(repr(float(v)) for v in X[i]) + f",{y[i]}" for i in range(10_000)]
    csv.write_text("\n".join(lines) + "\n")

    t0 = time.perf_counter()
    r = _run_cli("train", "--data", str(csv), "--target", "label", "--task", "clf",
                 "--model", str(tmp_path / "lcd.json"), "--S", "100",
                 env_overrides=SINGLE_CORE_ENV)
    elapsed = time.perf_counter() - t0
    completed = r.returncode in (0, 3) and (tmp_path / "lcd.json").exists()
    doc = json.loads(r.stdout) if completed else {}
    ok = completed and elapsed < 10.0
    auc_val = next((m["value"] for m in doc.get("validation", [])
                    if m["metric"] == "auc"), float("nan"))
    report(9, ok, f"n=10000, d=5, S=100 classification trained end to end on "
                  f"one core in {elapsed:.1f}s < 10s (val AUC {auc_val:.3f})")
