"""Model behavior: prediction, shape functions, parameter count, persistence."""

import csv
import itertools
import json
import math
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpnam import _kernels, data, model, rff, solvers
from gpnam.errors import (MalformedModelError, ModelInvariantError,
                          SchemaVersionError)

SQRT2 = math.sqrt(2.0)
DATA = Path(__file__).resolve().parent / "data"


def identity_standardization(d):
    return np.zeros(d), np.ones(d)


def make_model(z, c, W, b=None, w0=0.0, task="regression", seed=0,
               standardization=None, offsets=None, interactions=(),
               pair_z=None, mode="monte_carlo"):
    W = np.asarray(W, dtype=np.float64)
    d, S = W.shape
    basis = rff.FeatureBasis(S=S, z=np.asarray(z, float), c=np.asarray(c, float),
                             mode=mode, seed=seed,
                             pair_z=np.zeros((S, 2)) if pair_z is None
                             else np.asarray(pair_z, float))
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
    basis = rff.build_basis(S, mode, seed)
    interactions = [(0, d - 1, rng.standard_normal(S))] if with_pair else []
    return model.GPNAMModel(
        basis=basis, feature_names=[f"x{i + 1}" for i in range(d)], task=task,
        w0=rng.standard_normal(), W=rng.standard_normal((d, S)),
        b=rng.uniform(0.5, 2.0, d),
        standardization=(rng.normal(size=d), rng.uniform(0.5, 2.0, d)),
        centering_offsets=np.zeros(d), interactions=interactions)


class TestUnusableInputs:
    """A cell that is not finite, or so large that a cosine angle overflows,
    is a ValueError from predict, predict_raw and shape_function, with no
    numpy warning on the way."""

    @pytest.mark.parametrize("with_pair", [False, True])
    @pytest.mark.parametrize("column", [0, 1, 2])
    @pytest.mark.parametrize("cell", [-1.7e308, math.nan, math.inf])
    def test_predict_and_predict_raw_raise(self, with_pair, column, cell):
        m = random_pair_model("regression", with_pair)
        m = replace(m, b=m.b / 4)  # widths below 1/2: -1.7e308 overflows every angle
        X = np.random.default_rng(1).normal(size=(50, 3))
        X[17, column] = cell
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not model.usable_rows(m, X)[17]
            with pytest.raises(ValueError, match="not finite or overflows"):
                model.predict(m, X)
            with pytest.raises(ValueError, match="not finite or overflows"):
                model.predict_raw(m, X[17])
            assert model.predict(m, np.delete(X, 17, axis=0)).shape == (49,)

    @settings(max_examples=60)
    @given(mode=st.sampled_from(rff.MODES), with_pair=st.booleans(), S=st.integers(1, 9),
           seed=st.integers(0, 20), narrow=st.booleans(),
           cells=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2), st.sampled_from(
               [math.nan, math.inf, -math.inf, 1.7e308, -1.7e308, 4e307])), max_size=8))
    def test_usable_rows_match_the_folded_terms(self, mode, with_pair, S, seed, narrow,
                                                cells):
        """usable_rows reads the unfolded term list; its flags are those of
        rff.angle_bound over each folded term of predict's evaluator."""
        m = random_pair_model("regression", with_pair, S=S, seed=seed, mode=mode)
        if narrow:
            m = replace(m, b=m.b / 4)
        X = np.random.default_rng(seed).normal(size=(12, 3))
        for row, column, cell in cells:
            X[row, column] = cell
        xs = np.abs(model._standardize_rows(m, X))
        want = np.ones(12, bool)
        for cols, width, F, *_ in model._folded_terms(m):
            want &= np.isfinite(rff.angle_bound(F, xs[:, list(cols)], width))
        assert np.array_equal(model.usable_rows(m, X), want)

    @pytest.mark.parametrize("point", [math.nan, -math.inf, 1.7e308])
    def test_shape_function_raises(self, point):
        m = random_pair_model("regression", False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite or overflows"):
                model.shape_function(m, 1, np.array([0.0, point, 1.0]))


class TestOneTermList:
    """featurize, stack_features' angle check and predict's folded terms all
    read _kernels.terms: each feature, then each pair at sqrt(b_p * b_q)."""

    @settings(max_examples=40)
    @given(d=st.integers(1, 4), S=st.integers(1, 9), mode=st.sampled_from(rff.MODES),
           draw=st.data())
    def test_blocks_and_folded_terms_follow_the_list(self, d, S, mode, draw):
        widths = np.array(draw.draw(st.lists(st.floats(0.1, 10.0), min_size=d, max_size=d)))
        pairs = draw.draw(st.lists(st.sampled_from(
            [(p, q) for p in range(d) for q in range(d) if p != q]), max_size=3)) if d > 1 else []
        basis = rff.build_basis(S, mode, d)
        rng = np.random.default_rng(S)
        X = rng.normal(size=(7, d))
        terms = _kernels.terms(basis.z, basis.pair_z, widths, pairs)
        assert [cols for cols, _, _ in terms] == [(j,) for j in range(d)] + pairs
        table, index = _kernels.featurize(X, basis.z, basis.c, widths, pairs, basis.pair_z)
        phi = solvers.StackedFeatures(table, S, d, index).phi
        assert phi.shape == (7, 1 + S * len(terms))
        for k, (cols, width, F) in enumerate(terms):
            block = _kernels.cosines([X[:, j] for j in cols], width, F, basis.c,
                                     np.empty((S, 7)))
            assert np.array_equal(phi[:, 1 + k * S:1 + (k + 1) * S],
                                  block.T * math.sqrt(2.0 / S))
        m = model.GPNAMModel(
            basis=basis, feature_names=[f"x{j}" for j in range(d)], task="regression",
            w0=0.0, W=rng.standard_normal((d, S)), b=widths,
            standardization=identity_standardization(d), centering_offsets=np.zeros(d),
            interactions=[(p, q, rng.standard_normal(S)) for p, q in pairs])
        assert [(cols, width) for cols, width, *_ in model._folded_terms(m)] == \
            [(cols, width) for cols, width, _ in terms]


# a small pool of inputs, so columns repeat values; -0.0 and 0.0 compare equal
POOL = np.array([-0.0, 0.0, 0.5, -1.25, 2.0, 1e-3, -3.5])


def pooled_or_normal_rows(rng, n, d, pooled):
    """n x d inputs: standard normal, or drawn from POOL."""
    return rng.choice(POOL, size=(n, d)) if pooled else rng.normal(size=(n, d))


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
    @settings(max_examples=15)
    @given(start=st.integers(0, 2 * CHUNK + 2), length=st.integers(1, CHUNK + 3),
           pooled=st.booleans())
    def test_row_does_not_depend_on_the_other_rows(self, task, mode, start, length, pooled):
        m = random_pair_model(task, True, d=8, S=100, mode=mode)
        X = pooled_or_normal_rows(np.random.default_rng(15), 2 * self.CHUNK + 3, m.d, pooled)
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

    @settings(max_examples=60)
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
            table, (index,) = _kernels.featurize(gs[:, None], m.basis.z, m.basis.c,
                                                 m.b[i:i + 1])
            phi = table[index]
            got = model.shape_function(m, i, X[:, i], centered=False).values
            assert within_1e12(got, phi[:, 1:] @ m.W[i])

    @pytest.mark.parametrize("S", [1, 2, 3, 7, 100, 101])
    def test_grid_folds_mirrored_pairs(self, S):
        for mode, terms in (("grid", S // 2 + S % 2), ("monte_carlo", S)):
            basis = rff.build_basis(S, mode, 3)
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


class TestOneEvaluator:
    """shape_function sums its folded cosines with predict's evaluator, in
    predict's fixed order, so a shape value is a function of its point alone."""

    CHUNK = model.PREDICT_CHUNK

    @settings(max_examples=40)
    @given(S=st.integers(1, 130), mode=st.sampled_from(rff.MODES),
           seed=st.integers(0, 2**32 - 1))
    def test_one_feature_prediction_is_bias_plus_shape(self, S, mode, seed):
        m = random_pair_model(model.TASK_REGRESSION, False, d=1, S=S, seed=seed, mode=mode)
        X = np.random.default_rng(seed).normal(size=(200, 1))
        shape = model.shape_function(m, 0, X[:, 0], centered=False)
        assert np.array_equal(model.predict(m, X), m.w0 + shape.values)

    @settings(max_examples=40)
    @given(S=st.integers(1, 130), d=st.integers(2, 6), mode=st.sampled_from(rff.MODES),
           task=st.sampled_from([model.TASK_REGRESSION, model.TASK_CLASSIFICATION]),
           pooled=st.booleans(), zero_means=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_prediction_is_bias_plus_shapes(self, S, d, mode, task, pooled, zero_means, seed):
        """g(x) is w0 plus the uncentered shape values, added from zero in
        feature order, bit for bit."""
        m = random_pair_model(task, False, d=d, S=S, seed=seed, mode=mode)
        if zero_means:  # so that -0.0 and 0.0 stay signed after standardizing
            m = replace(m, standardization=(np.zeros(d), m.standardization[1]))
        X = pooled_or_normal_rows(np.random.default_rng(seed), 300, d, pooled)
        g = np.zeros(X.shape[0])
        for i in range(d):
            g += model.shape_function(m, i, X[:, i], centered=False).values
        g += m.w0
        want = solvers.sigmoid(g) if task == model.TASK_CLASSIFICATION else g
        assert np.array_equal(model.predict(m, X), want)

    @pytest.mark.parametrize("mode", rff.MODES)
    @settings(max_examples=15)
    @given(start=st.integers(0, CHUNK + 2), length=st.integers(1, CHUNK + 3))
    def test_shape_value_does_not_depend_on_the_other_grid_points(self, mode, start, length):
        m = random_pair_model(model.TASK_REGRESSION, False, d=3, S=100, mode=mode)
        grid = np.random.default_rng(16).normal(size=2 * self.CHUNK + 3)
        for i in range(m.d):
            full = model.shape_function(m, i, grid).values
            for a, b in ((start, start + length), (start, start + 1),
                         (self.CHUNK - 2, self.CHUNK + 2)):
                assert np.array_equal(model.shape_function(m, i, grid[a:b]).values, full[a:b])


class TestDistinctValues:
    """A feature's term is evaluated once per distinct value of its column;
    a pair's term on every row."""

    @pytest.mark.parametrize("mode", rff.MODES)
    def test_cosines_follow_the_distinct_values(self, mode, monkeypatch):
        S = 100
        m = random_pair_model(model.TASK_REGRESSION, True, d=3, S=S, mode=mode)
        rng = np.random.default_rng(20)
        n = 10_000
        X = np.column_stack([rng.integers(0, 7, n), rng.choice(POOL, n), rng.normal(size=n)])
        filled = []  # cosines filled by each call, in call order
        cosines = _kernels.cosines

        def counting(columns, width, F, phase, out):
            filled.append(out.size)
            return cosines(columns, width, F, phase, out)

        monkeypatch.setattr(_kernels, "cosines", counting)
        model.predict(m, X)
        terms = S // 2 + S % 2 if mode == rff.MODE_GRID else S
        # 7 levels, then POOL's 6 distinct values (-0.0 and 0.0 are one),
        # each one chunk; then the normal column and the pair (0, 2) on every
        # row, in chunks
        assert filled[:2] == [7 * terms, 6 * terms]
        assert sum(filled[2:]) == 2 * n * terms


def call_within(seconds, fn, *args):
    """fn(*args) on a daemon thread: its value, or its exception raised here;
    fails if it has not returned within ``seconds``."""
    outcome = []

    def call():
        try:
            outcome.append((True, fn(*args)))
        except BaseException as exc:
            outcome.append((False, exc))

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=seconds)
    assert not caller.is_alive(), f"no return within {seconds} s"
    returned, value = outcome[0]
    if not returned:
        raise value
    return value


class TestThreadedSum:
    """_sum_terms splits a term of more than PREDICT_CHUNK values over
    _kernels.WORKERS threads; the sums stay bit-identical to one thread's."""

    CHUNK = model.PREDICT_CHUNK

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @settings(max_examples=10)
    @given(start=st.integers(0, 2 * CHUNK + 2), length=st.integers(1, 2 * CHUNK + 3),
           pooled=st.booleans())
    def test_row_does_not_depend_on_the_worker_count(self, workers, start, length, pooled):
        m = random_pair_model(model.TASK_REGRESSION, True, d=4, S=20, mode="grid")
        X = pooled_or_normal_rows(np.random.default_rng(15), 2 * self.CHUNK + 3, m.d, pooled)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "WORKERS", 1)
            serial = model.predict(m, X)
            mp.setattr(_kernels, "WORKERS", workers)
            assert np.array_equal(model.predict(m, X), serial)
            assert np.array_equal(model.predict(m, X[start:start + length]),
                                  serial[start:start + length])

    def test_a_workers_error_reaches_the_caller(self, monkeypatch):
        m = random_pair_model(model.TASK_REGRESSION, True, d=3, S=20)
        X = np.random.default_rng(17).normal(size=(3 * self.CHUNK, m.d))
        boom = RuntimeError("boom")
        calls = itertools.count()
        cosines = _kernels.cosines

        def failing(*args):
            if next(calls) == 10:  # the cosines of a later chunk, in either thread
                raise boom
            return cosines(*args)

        monkeypatch.setattr(_kernels, "cosines", failing)
        monkeypatch.setattr(_kernels, "WORKERS", 2)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            call_within(60, model.predict, m, X)
        assert info.value is boom
        assert threading.active_count() == before

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        m = random_pair_model(model.TASK_REGRESSION, True, d=3, S=20)
        X = np.random.default_rng(19).normal(size=(3 * self.CHUNK + 7, m.d))
        monkeypatch.setattr(_kernels, "WORKERS", 1)
        serial = model.predict(m, X)
        monkeypatch.setattr(_kernels, "WORKERS", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = call_within(60, model.predict, m, X)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(threaded, serial)

    def test_small_inputs_start_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        m = random_pair_model(model.TASK_CLASSIFICATION, True, d=3, S=20)
        X = np.random.default_rng(18).normal(size=(self.CHUNK + 1, m.d))
        monkeypatch.setattr(_kernels, "WORKERS", 2)
        monkeypatch.setattr(threading, "Thread", no_thread)
        for n in (1, 1000, self.CHUNK):
            assert model.predict(m, X[:n]).shape == (n,)
        for i in range(m.d):
            assert model.shape_function(m, i, np.linspace(-2, 2, 256)).values.shape == (256,)
        with pytest.raises(AssertionError, match="a thread was started"):
            model.predict(m, X)


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
        basis = rff.build_basis(8, "grid", 2)
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

    def test_round_trip_keeps_target_classes(self, tmp_path):
        m, path = self.trained(tmp_path)
        assert "target_classes" not in json.loads(path.read_text())
        clf = replace(m, task="binary_classification", target_classes=["no", "yes"])
        model.save(clf, path)
        assert json.loads(path.read_text())["target_classes"] == ["no", "yes"]
        assert model.load(path).target_classes == ["no", "yes"]

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

    @pytest.mark.parametrize("field, value", [
        ("W", [[math.nan] + [0.0] * 15, [0.0] * 16]),
        ("w0", math.inf),
        ("bandwidth_scale", math.nan),
        ("interactions", [{"i": 0, "j": 1, "w": [0.0] * 15 + [-math.inf]}]),
    ])
    def test_non_finite_weights_rejected(self, tmp_path, field, value):
        # json reads the literals NaN, Infinity and -Infinity
        m, path = self.trained(tmp_path)
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        assert "NaN" in path.read_text() or "Infinity" in path.read_text()
        with pytest.raises(ModelInvariantError, match="must be finite"):
            model.load(path)

    @pytest.mark.parametrize("field, value", [
        ("S", 20_000_000),
        ("interactions", [{"i": 0, "j": 1, "w": [0.0] * 15}]),
    ])
    def test_weight_shapes_checked_before_the_basis_is_built(self, tmp_path, monkeypatch,
                                                             field, value):
        m, path = self.trained(tmp_path)
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))

        def refuse(*args, **kwargs):
            raise AssertionError("build_basis was called")

        monkeypatch.setattr(model, "build_basis", refuse)
        with pytest.raises(ModelInvariantError, match="W must be 2 x"):
            model.load(path)


class TestSchemaV1File:
    """A schema-1 model file and the predictions made by the code that wrote
    it, before the grid quantiles came from ``statistics.NormalDist``: the
    rows of ``synth --n 200 --d 3 --seed 4``, the model of ``train --target y
    --task reg --S 16 --mode grid --interactions 0:2 --seed 1`` on them. Files
    already written must keep predicting what they predicted."""

    def test_predictions_unchanged(self):
        m = model.load(DATA / "v1_grid_pair_model.json")
        table = np.loadtxt(DATA / "v1_grid_pair_predictions.csv", delimiter=",", skiprows=1)
        X, want = table[:, :3], table[:, 3]
        got = model.predict(m, X)
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(np.abs(want), 1.0))

    def test_monte_carlo_predictions_unchanged(self):
        """The same rows and ``train`` with ``--mode mc``, written when only a
        basis built for pairs drew ``pair_z``: every basis now draws it after
        z and c, so the rebuilt basis and each prediction are as they were."""
        m = model.load(DATA / "v1_mc_pair_model.json")
        table = np.loadtxt(DATA / "v1_mc_pair_predictions.csv", delimiter=",", skiprows=1)
        assert m.basis.mode == "monte_carlo" and [p[:2] for p in m.interactions] == [(0, 2)]
        assert np.all(model.predict(m, table[:, :3]) == table[:, 3])


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
        {"interactions": [(0, 1, np.zeros(3))]},
        {"feature_names": ["a", "a"]},
        {"target_classes": ["no", "yes"]},
        {"task": "binary_classification", "target_classes": ["no", "no"]},
        {"task": "binary_classification", "target_classes": ["no"]},
        {"task": "binary_classification", "target_classes": ["no", 1]},
        {"task": "binary_classification", "target_classes": [["no"], ["yes"]]},
        {"task": "binary_classification", "target_classes": "ny"},
        {"interactions": [(0, 2, np.zeros(4))]},
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

    @settings(max_examples=200)
    @given(text=st.text(alphabet=st.sampled_from('ab ,"\r\n\t;\'\u00e9'), max_size=8))
    def test_field_parses_back(self, text):
        field = model.csv_field(text)
        assert next(csv.reader([field + ",1"])) == [text, "1"]
        assert (field == text) == (not any(ch in text for ch in ',"\r\n'))
