"""Model behavior: prediction, shape functions, parameter count, persistence."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpnam import _kernels, data, model, rff, solvers
from gpnam.errors import (MalformedModelError, ModelInvariantError,
                          SchemaVersionError)

SQRT2 = math.sqrt(2.0)


def identity_standardization(d):
    return np.zeros(d), np.ones(d)


def make_model(z, c, W, b=None, w0=0.0, task="regression", seed=0,
               standardization=None, offsets=None, interactions=(),
               pair_z=None, mode="monte_carlo"):
    W = np.asarray(W, dtype=np.float64)
    d, S = W.shape
    basis = rff.FeatureBasis(S=S, z=np.asarray(z, float), c=np.asarray(c, float),
                             mode=mode, seed=seed,
                             pair_z=None if pair_z is None else np.asarray(pair_z, float))
    if standardization is None:
        standardization = identity_standardization(d)
    return model.GPNAMModel(
        basis=basis, feature_names=[f"x{i + 1}" for i in range(d)], task=task,
        w0=w0, W=W, b=np.ones(d) if b is None else np.asarray(b, float),
        standardization=standardization,
        centering_offsets=np.zeros(d) if offsets is None else np.asarray(offsets, float),
        interactions=list(interactions))


def fit_model(ds, S=64, seed=0, factor=1.0, mode="grid"):
    """Small training pipeline used by recovery-style tests."""
    ds_std = data.standardize(ds)
    basis = rff.build_basis(S, mode, seed)
    widths = data.kernel_widths(ds_std, factor)
    feats = solvers.stack_features(basis, widths, ds_std.X)
    w, _ = solvers.solve_ridge_cg(feats, ds_std.y, solvers.FitConfig())
    W = w[1:].reshape(ds.d, S)
    offsets = np.array([float(np.mean(feats.phi[:, feats.feature_block(i)] @ W[i]))
                        for i in range(ds.d)])
    return model.GPNAMModel(
        basis=basis, feature_names=ds.feature_names, task=ds.task, w0=float(w[0]),
        W=W, b=widths, standardization=ds_std.standardization,
        centering_offsets=offsets,
        feature_ranges=model.training_ranges(ds.X))


def seeded_random_model(seed=7, d=3, S=11):
    rng = np.random.default_rng(seed)
    return make_model(z=rng.standard_normal(S), c=rng.uniform(0, 2 * math.pi, S),
                      W=rng.standard_normal((d, S)), b=rng.uniform(0.5, 2.0, d),
                      w0=rng.standard_normal(),
                      standardization=(rng.normal(size=d), rng.uniform(0.5, 2.0, d)),
                      offsets=rng.standard_normal(d))


def loop_predict_oracle(m, x):
    """Scalar re-computation of the stacked linear form, straight from the
    cosine definition."""
    g = m.w0
    means, scales = m.standardization
    for i in range(m.d):
        xi = (x[i] - means[i]) / scales[i]
        for s in range(m.S):
            g += (math.sqrt(2.0 / m.S)
                  * math.cos(m.basis.z[s] * xi / m.b[i] + m.basis.c[s]) * m.W[i, s])
    return g


class TestPredictRaw:
    def test_zero_weights_give_bias(self):
        m = make_model(z=[0.0, 1.0], c=[0.0, 0.5], W=np.zeros((2, 2)), w0=0.25)
        assert model.predict_raw(m, [3.0, -1.0]) == 0.25

    def test_zero_frequency_constant(self):
        m = make_model(z=[0.0], c=[0.0], W=[[2.0]], w0=0.0)
        assert model.predict_raw(m, [123.0]) == pytest.approx(2 * SQRT2, abs=1e-12)

    def test_matches_loop_oracle(self):
        m = seeded_random_model()
        rng = np.random.default_rng(42)
        for _ in range(10):
            x = rng.normal(size=3)
            assert model.predict_raw(m, x) == pytest.approx(loop_predict_oracle(m, x),
                                                            abs=1e-12)

    def test_rejects_bad_input(self):
        m = seeded_random_model()
        with pytest.raises(ValueError):
            model.predict_raw(m, [1.0, 2.0])
        with pytest.raises(ValueError):
            model.predict_raw(m, [1.0, math.nan, 2.0])


class TestPredict:
    def test_sigmoid_at_zero(self):
        m = make_model(z=[0.3], c=[0.1], W=np.zeros((2, 1)), w0=0.0,
                       task="binary_classification")
        got = model.predict(m, [[5.0, -2.0]])
        assert got[0] == 0.5

    def test_identical_rows(self):
        m = seeded_random_model()
        X = np.tile([0.3, -0.4, 1.1], (3, 1))
        got = model.predict(m, X)
        assert got[0] == got[1] == got[2]

    def test_batch_matches_predict_raw(self):
        m = seeded_random_model()
        rng = np.random.default_rng(3)
        X = rng.normal(size=(8, 3))
        got = model.predict(m, X)
        want = np.array([model.predict_raw(m, x) for x in X])
        assert np.max(np.abs(got - want)) < 1e-12

    def test_classification_probabilities_in_unit_interval(self):
        m = seeded_random_model()
        m = make_model(z=m.basis.z, c=m.basis.c, W=m.W, b=m.b, w0=m.w0,
                       task="binary_classification",
                       standardization=m.standardization)
        rng = np.random.default_rng(4)
        probs = model.predict(m, rng.normal(size=(20, 3)))
        assert np.all((probs > 0.0) & (probs < 1.0))

    def test_sigmoid_monotone_in_score(self):
        m = make_model(z=[0.0], c=[0.0], W=[[1.0]], w0=0.0,
                       task="binary_classification")
        reg = make_model(z=[0.0], c=[0.0], W=[[1.0]], w0=0.0)
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 1))
        g = model.predict(reg, X)
        p = model.predict(m, X)
        order = np.argsort(g)
        assert np.all(np.diff(p[order]) >= 0.0)


def random_pair_model(task, with_pair, d=3, S=16, seed=11, mode="monte_carlo"):
    """Model over a real basis with random weights and, optionally, one
    interaction pair."""
    rng = np.random.default_rng(seed)
    basis = rff.build_basis(S, mode, seed, with_pairs=with_pair)
    interactions = [(0, d - 1, rng.standard_normal(S))] if with_pair else []
    return model.GPNAMModel(
        basis=basis, feature_names=[f"x{i + 1}" for i in range(d)], task=task,
        w0=rng.standard_normal(), W=rng.standard_normal((d, S)),
        b=rng.uniform(0.5, 2.0, d),
        standardization=(rng.normal(size=d), rng.uniform(0.5, 2.0, d)),
        centering_offsets=np.zeros(d), interactions=interactions)


class TestChunkedPredict:
    CHUNK = model.PREDICT_CHUNK
    SIZES = (1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3)

    @pytest.mark.parametrize("task", [model.TASK_REGRESSION, model.TASK_CLASSIFICATION])
    @pytest.mark.parametrize("with_pair", [False, True])
    def test_matches_predict_raw_at_chunk_boundaries(self, task, with_pair):
        m = random_pair_model(task, with_pair)
        X = np.random.default_rng(12).normal(size=(max(self.SIZES), m.d))
        g = np.array([model.predict_raw(m, x) for x in X])
        want = solvers.sigmoid(g) if task == model.TASK_CLASSIFICATION else g
        for n in self.SIZES:
            got = model.predict(m, X[:n])
            assert got.shape == (n,)
            assert np.all(np.abs(got - want[:n]) <= 1e-12 * np.maximum(np.abs(want[:n]), 1.0))

    @pytest.mark.parametrize("task", [model.TASK_REGRESSION, model.TASK_CLASSIFICATION])
    @pytest.mark.parametrize("mode", rff.MODES)
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(start=st.integers(0, 2 * CHUNK + 2), length=st.integers(1, CHUNK + 3))
    def test_row_does_not_depend_on_the_other_rows(self, task, mode, start, length):
        m = random_pair_model(task, True, d=8, S=100, mode=mode)
        X = np.random.default_rng(15).normal(size=(2 * self.CHUNK + 3, m.d))
        full = model.predict(m, X)
        for a, b in ((start, start + length), (start, start + 1),
                     (self.CHUNK - 2, self.CHUNK + 2)):
            assert np.array_equal(model.predict(m, X[a:b]), full[a:b])

    def test_memory_does_not_grow_with_rows(self):
        m = random_pair_model(model.TASK_REGRESSION, True, d=8, S=100)
        X = np.random.default_rng(13).normal(size=(50_000, 8))
        tracemalloc.start()
        try:
            model.predict(m, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the full 50,000 x 901 design matrix alone would be 360 MB
        assert peak < 64 * 2**20


def within_1e12(got, want):
    return np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(want), 1.0))


class TestFoldedCosines:
    """predict and shape_function fold the cosines whose frequencies agree up
    to sign; predict_raw and featurize evaluate all S and are the oracles."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(S=st.integers(1, 130), d=st.integers(1, 5), mode=st.sampled_from(rff.MODES),
           with_pair=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_unfolded_oracles(self, S, d, mode, with_pair, seed):
        m = random_pair_model(model.TASK_REGRESSION, with_pair and d > 1, d=d, S=S,
                              seed=seed, mode=mode)
        X = np.random.default_rng(seed).normal(size=(20, d))
        want = np.array([model.predict_raw(m, x) for x in X])
        assert within_1e12(model.predict(m, X), want)
        means, scales = m.standardization
        for i in range(d):
            gs = (X[:, i] - means[i]) / scales[i]
            phi = _kernels.featurize(gs[:, None], m.basis.z, m.basis.c, m.b[i:i + 1])
            got = model.shape_function(m, i, X[:, i], centered=False).values
            assert within_1e12(got, phi[:, 1:] @ m.W[i])

    @pytest.mark.parametrize("S", [1, 2, 3, 7, 100, 101])
    def test_grid_folds_mirrored_pairs(self, S):
        for mode, terms in (("grid", S // 2 + S % 2), ("monte_carlo", S)):
            basis = rff.build_basis(S, mode, 3, with_pairs=True)
            weights = np.ones((2, S))
            for freqs in (basis.z, basis.pair_z):
                F, phase, amp = rff.fold_mirrored(freqs, basis.c, weights)
                assert F.shape[0] == terms
                assert phase.shape == amp.shape == (2, terms)

    @pytest.mark.parametrize("mode", rff.MODES)
    def test_reruns_bit_identical(self, mode):
        m = random_pair_model(model.TASK_REGRESSION, True, d=4, S=20, mode=mode)
        X = np.random.default_rng(14).normal(size=(model.PREDICT_CHUNK + 5, 4))
        assert model.predict(m, X).tobytes() == model.predict(m, X).tobytes()


class TestAdditivity:
    def test_single_coordinate_change(self):
        m = seeded_random_model()
        rng = np.random.default_rng(6)
        for i in range(3):
            x = rng.normal(size=3)
            x_new = x.copy()
            x_new[i] = rng.normal()
            fi_old = model.shape_function(m, i, np.array([x[i]]), centered=False)
            fi_new = model.shape_function(m, i, np.array([x_new[i]]), centered=False)
            delta_g = model.predict_raw(m, x_new) - model.predict_raw(m, x)
            delta_f = fi_new.values[0] - fi_old.values[0]
            assert abs(delta_g - delta_f) <= 1e-10

    def test_centering_invariance(self):
        m = seeded_random_model()
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.normal(size=3)
            raw = model.predict_raw(m, x)
            parts = [model.shape_function(m, i, np.array([x[i]]), centered=True)
                     for i in range(3)]
            recentered = (m.w0 + sum(t.offset for t in parts)
                          + sum(t.values[0] for t in parts))
            assert abs(raw - recentered) <= 1e-10

    def test_stacked_equals_shape_sum(self):
        m = seeded_random_model()
        rng = np.random.default_rng(8)
        x = rng.normal(size=3)
        total = m.w0 + sum(
            model.shape_function(m, i, np.array([x[i]]), centered=False).values[0]
            for i in range(3))
        assert abs(model.predict_raw(m, x) - total) <= 1e-10


class TestShapeFunction:
    def test_zero_weights(self):
        m = make_model(z=[0.1, 0.2], c=[0.0, 1.0], W=np.zeros((1, 2)))
        table = model.shape_function(m, 0, np.linspace(-1, 1, 5))
        assert np.all(table.values == 0.0)
        assert table.offset == 0.0

    def test_zero_frequency_constant(self):
        m = make_model(z=[0.0], c=[0.0], W=[[1.5]])
        table = model.shape_function(m, 0, np.linspace(-3, 3, 7))
        assert np.allclose(table.values, 1.5 * SQRT2, atol=1e-12)

    def test_centered_values_average_to_zero_on_training_data(self):
        ds = data.synth_additive(3000, 2, 0.05, seed=1)
        m = fit_model(ds, S=32, factor=0.5)
        for i in range(2):
            table = model.shape_function(m, i, ds.X[:, i], centered=True)
            assert abs(table.values.mean()) <= 1e-8

    def test_sine_recovery(self):
        ds = data.synth_additive(4000, 1, 0.1, seed=2, shapes=("sin3",))
        m = fit_model(ds, S=100, factor=0.25)
        grid = np.linspace(-2.0, 2.0, 101)
        table = model.shape_function(m, 0, grid)
        corr = np.corrcoef(table.values, np.sin(3 * grid))[0, 1]
        assert corr >= 0.95

    def test_index_out_of_range(self):
        m = seeded_random_model()
        with pytest.raises(ValueError):
            model.shape_function(m, 3, np.array([0.0]))
        with pytest.raises(ValueError):
            model.shape_function(m, -1, np.array([0.0]))


class TestParamCount:
    def test_fico_scale(self):
        m = make_model(z=np.zeros(100), c=np.zeros(100), W=np.zeros((39, 100)))
        assert model.param_count(m) == 3901

    def test_lcd_scale(self):
        m = make_model(z=np.zeros(100), c=np.zeros(100), W=np.zeros((5, 100)))
        assert model.param_count(m) == 501

    def test_bias_only(self):
        m = make_model(z=np.zeros(100), c=np.zeros(100), W=np.zeros((0, 100)))
        assert model.param_count(m) == 1

    def test_interactions_add_s_each(self):
        rng = np.random.default_rng(1)
        m = make_model(z=rng.standard_normal(10), c=np.zeros(10),
                       W=np.zeros((3, 10)),
                       interactions=[(0, 1, np.zeros(10)), (1, 2, np.zeros(10))],
                       pair_z=rng.standard_normal((10, 2)))
        assert model.param_count(m) == 3 * 10 + 1 + 2 * 10


class TestPersistence:
    def trained(self, tmp_path):
        ds = data.synth_additive(400, 2, 0.1, seed=3)
        m = fit_model(ds, S=16)
        path = tmp_path / "m.json"
        model.save(m, path)
        return m, path

    def test_round_trip_bit_exact(self, tmp_path):
        m, path = self.trained(tmp_path)
        back = model.load(path)
        assert np.array_equal(back.basis.z, m.basis.z)
        assert np.array_equal(back.basis.c, m.basis.c)
        assert np.array_equal(back.W, m.W)
        assert np.array_equal(back.b, m.b)
        assert back.w0 == m.w0
        assert np.array_equal(back.centering_offsets, m.centering_offsets)
        rng = np.random.default_rng(11)
        X = rng.uniform(-2, 2, (20, 2))
        assert np.array_equal(model.predict(back, X), model.predict(m, X))

    def test_round_trip_with_interactions(self, tmp_path):
        rng = np.random.default_rng(4)
        basis = rff.build_basis(8, "grid", 2, with_pairs=True)
        m = model.GPNAMModel(
            basis=basis, feature_names=["a", "b"], task="regression", w0=0.5,
            W=rng.standard_normal((2, 8)), b=np.array([1.0, 2.0]),
            standardization=identity_standardization(2),
            centering_offsets=np.zeros(2),
            interactions=[(0, 1, rng.standard_normal(8))])
        path = tmp_path / "mi.json"
        model.save(m, path)
        back = model.load(path)
        assert np.array_equal(back.basis.pair_z, m.basis.pair_z)
        assert np.array_equal(back.interactions[0][2], m.interactions[0][2])
        X = rng.uniform(-1, 1, (5, 2))
        assert np.array_equal(model.predict(back, X), model.predict(m, X))

    def test_truncated_file(self, tmp_path):
        m, path = self.trained(tmp_path)
        text = path.read_text()
        path.write_text(text[:len(text) // 2])
        with pytest.raises(MalformedModelError):
            model.load(path)

    def test_missing_field(self, tmp_path):
        m, path = self.trained(tmp_path)
        doc = json.loads(path.read_text())
        del doc["W"]
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedModelError):
            model.load(path)

    def test_bad_schema_version(self, tmp_path):
        m, path = self.trained(tmp_path)
        doc = json.loads(path.read_text())
        doc["schema_version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaVersionError):
            model.load(path)

    @pytest.mark.parametrize("field, value", [
        ("feature_ranges", {"mins": [0.0, 0.0]}),
        ("feature_ranges", {"mins": ["a", 0.0], "maxs": [1.0, 1.0]}),
        ("seed", "zero"),
        ("bandwidth_scale", [1.0]),
        ("w0", "0.5"),
        ("w0", True),
        pytest.param("w0", 10**400, id="w0-int-beyond-float"),
        ("b", ["1.5", "1.5"]),
        ("W", [[True] + [0.0] * 15, [0.0] * 16]),
        ("bandwidth_scale", True),
        ("feature_names", "ab"),
        ("feature_names", [1, 2]),
    ])
    def test_malformed_optional_field(self, tmp_path, field, value):
        m, path = self.trained(tmp_path)
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedModelError):
            model.load(path)

    @pytest.mark.parametrize("field, value", [
        ("seed", 0.9), ("seed", True), ("S", 16.7), ("d", 2.0), ("i", 0.5),
        ("schema_version", True), ("schema_version", 1.0)])
    def test_non_integer_field(self, tmp_path, field, value):
        m, path = self.trained(tmp_path)
        doc = json.loads(path.read_text())
        doc["interactions"] = [{"i": 0, "j": 1, "w": [0.0] * 16}]
        path.write_text(json.dumps(doc))
        assert model.load(path).interactions[0][:2] == (0, 1)
        if field == "i":
            doc["interactions"][0]["i"] = value
        else:
            doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedModelError):
            model.load(path)

    def test_invariant_violation(self, tmp_path):
        m, path = self.trained(tmp_path)
        doc = json.loads(path.read_text())
        doc["b"] = [-1.0] * len(doc["b"])
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelInvariantError):
            model.load(path)


class TestInvariants:
    """Every model invariant is checked when a GPNAMModel is built, so a
    model file that breaks one fails in ``load`` and never reaches predict."""

    def build(self, **overrides):
        kwargs = dict(basis=rff.build_basis(4, "grid", 0), feature_names=["a", "b"],
                      task="regression", w0=0.0, W=np.zeros((2, 4)), b=np.ones(2),
                      standardization=(np.zeros(2), np.ones(2)),
                      centering_offsets=np.zeros(2),
                      feature_ranges=(np.array([-1.0, 0.0]), np.array([1.0, 0.0])),
                      encodings=[{"kind": "numeric"},
                                 {"kind": "ordinal", "categories": ["lo", "hi"]}])
        kwargs.update(overrides)
        return model.GPNAMModel(**kwargs)

    def test_valid_model_builds(self):
        m = self.build()
        assert m.feature_ranges[0].dtype == np.float64

    @pytest.mark.parametrize("overrides", [
        {"W": np.zeros((2, 3))},
        {"b": np.array([1.0, 0.0])},
        {"b": np.ones(3)},
        {"centering_offsets": np.array([0.0, np.nan])},
        {"standardization": (np.zeros(1), np.ones(2))},
        {"standardization": (np.zeros(2), np.array([1.0, 0.0]))},
        {"standardization": (np.zeros(2), np.array([1.0, np.inf]))},
        {"feature_ranges": (np.array([-1.0]), np.array([1.0]))},
        {"feature_ranges": (np.array([-1.0, 0.0]), np.array([1.0, np.inf]))},
        {"feature_ranges": (np.array([-1.0, 2.0]), np.array([1.0, 1.0]))},
        {"encodings": [{"kind": "numeric"}]},
        {"encodings": [{"kind": "numeric"}, {}]},
        {"encodings": [{"kind": "numeric"}, {"kind": "binned"}]},
        {"encodings": [{"kind": "numeric"}, {"kind": "ordinal"}]},
        {"encodings": [{"kind": "numeric"}, {"kind": "ordinal", "categories": [1, 2]}]},
        {"encodings": {"kind": "numeric"}},
        {"task": "multiclass"},
        {"interactions": [(0, 1, np.zeros(4))]},
    ])
    def test_violation_raises(self, overrides):
        with pytest.raises(ModelInvariantError):
            self.build(**overrides)


class TestShapeCsv:
    def test_format(self, tmp_path):
        t = model.ShapeTable(feature_index=0, feature_name="age",
                             grid=np.array([0.5, 1.0]),
                             values=np.array([0.123456789123, -2.0]),
                             offset=0.0)
        out = tmp_path / "shapes.csv"
        model.write_shape_csv([t], out)
        content = out.read_bytes().decode("utf-8")
        assert content == "feature,x,f\nage,0.5,0.123456789\nage,1,-2\n"
        assert b"\r" not in out.read_bytes()
