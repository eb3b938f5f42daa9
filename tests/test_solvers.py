"""Stacked features, conjugate gradients, ridge and logistic fits."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpnam import _kernels, rff, solvers
from gpnam.data import TASK_CLASSIFICATION, TASK_REGRESSION, TASKS
from gpnam.errors import NumericBreakdownError

SQRT2 = math.sqrt(2.0)


def make_features(phi, S=1, d=None):
    phi = np.asarray(phi, dtype=np.float64)
    return solvers.StackedFeatures(phi=phi, S=S, d=d if d is not None else 0)


def dense_ridge_solve(phi, y, lam):
    """Oracle: explicit normal-equations matrix + direct factorization."""
    D = phi.shape[1]
    reg = np.eye(D) * lam
    reg[0, 0] = 0.0
    return np.linalg.solve(reg + phi.T @ phi, phi.T @ y)


class TestStackFeatures:
    def test_degenerate_row(self):
        basis = rff.FeatureBasis(S=1, z=np.array([0.0]), c=np.array([0.0]),
                                 mode="monte_carlo", seed=0, pair_z=np.zeros((1, 2)))
        feats = solvers.stack_features(basis, [1.0], [[0.33]])
        assert feats.phi[0].tolist() == pytest.approx([1.0, SQRT2], abs=1e-12)

    def test_dimension(self):
        basis = rff.build_basis(100, "grid", 0)
        feats = solvers.stack_features(basis, [1.0, 1.0], np.zeros((5, 2)))
        assert feats.phi.shape == (5, 201)

    def test_matches_feature_map_concatenation(self):
        basis = rff.build_basis(7, "monte_carlo", 3)
        rng = np.random.default_rng(1)
        X = rng.normal(size=(6, 3))
        widths = np.array([0.5, 1.0, 2.0])
        feats = solvers.stack_features(basis, widths, X)
        for r in range(6):
            want = np.concatenate(
                [[1.0]] + [rff.feature_map(basis, X[r, j], widths[j]) for j in range(3)])
            assert np.array_equal(feats.phi[r], want)

    def test_invariants(self):
        basis = rff.build_basis(16, "grid", 5)
        rng = np.random.default_rng(2)
        feats = solvers.stack_features(basis, [1.0, 0.7], rng.normal(size=(40, 2)))
        assert np.all(feats.phi[:, 0] == 1.0)
        bound = math.sqrt(2.0 / 16)
        assert np.all(np.abs(feats.phi[:, 1:]) <= bound + 1e-15)

    def test_interaction_blocks(self):
        basis = rff.build_basis(8, "monte_carlo", 4)
        rng = np.random.default_rng(3)
        X = rng.normal(size=(5, 3))
        widths = np.array([1.0, 2.0, 0.5])
        feats = solvers.stack_features(basis, widths, X, pairs=[(0, 2)])
        assert feats.phi.shape == (5, 1 + 3 * 8 + 8)
        b_pair = math.sqrt(widths[0] * widths[2])
        for r in range(5):
            want = rff.pair_feature_map(basis, X[r, 0], X[r, 2], b_pair)
            assert np.array_equal(feats.phi[r, feats.blocks()[1 + feats.d]], want)

    def test_rejects_bad_inputs(self):
        basis = rff.build_basis(4, "grid", 0)
        with pytest.raises(ValueError):
            solvers.stack_features(basis, [0.0], [[1.0]])
        with pytest.raises(ValueError):
            solvers.stack_features(basis, [1.0], [[math.nan]])
        with pytest.raises(ValueError):
            solvers.stack_features(basis, [1.0, 1.0], [[1.0]])
        with pytest.raises(ValueError, match="at least one column"):
            solvers.stack_features(basis, [], np.zeros((3, 0)))

    @pytest.mark.parametrize("width", [math.nan, math.inf])
    def test_rejects_non_finite_width(self, width):
        basis = rff.build_basis(4, "grid", 0)
        with pytest.raises(ValueError, match="positive and finite"):
            solvers.stack_features(basis, [1.0, width], np.zeros((5, 2)))


    @pytest.mark.parametrize("pairs", [None, [(0, 1)]])
    def test_rejects_overflowing_angles(self, pairs):
        basis = rff.build_basis(4, "grid", 0)
        X = np.full((3, 2), 2.0)
        # z * (x / b) overflows at the first width, and at the pair's
        # sqrt(1e-200 * 1e-200), which underflows to 0
        widths = [1e-320, 1.0] if pairs is None else [1e-200, 1e-200]
        where = "feature 0" if pairs is None else "pair (0, 1)"
        with pytest.raises(ValueError, match=f"kernel width .* of {re.escape(where)} "
                                             "is too narrow"):
            solvers.stack_features(basis, widths, X, pairs=pairs)


class TestThreadedFeaturize:
    """featurize fills every term's table, pairs included, through
    _kernels.in_row_chunks; the table is bit-identical to one chunk filled in
    the calling thread, and each pair block of Phi to rff.pair_feature_map."""

    @settings(max_examples=30)
    @given(n=st.integers(1, 700), d=st.integers(1, 4), S=st.integers(1, 40),
           workers=st.integers(1, 4), floats=st.integers(1, 5000),
           seed=st.integers(0, 2**16), data=st.data())
    def test_bit_identical_at_any_thread_count(self, n, d, S, workers, floats, seed, data):
        rng = np.random.default_rng(seed)
        basis = rff.build_basis(S, "grid", seed)
        X = rng.normal(size=(n, d))
        widths = rng.uniform(0.5, 2.0, d)
        pairs = data.draw(st.lists(st.permutations(range(d)).map(lambda p: tuple(p[:2])),
                                   max_size=3 if d > 1 else 0))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "WORKERS", 1)
            mp.setattr(_kernels, "CHUNK_FLOATS", 2**62)
            serial = _kernels.featurize(X, basis.z, basis.c, widths, pairs, basis.pair_z)
            mp.setattr(_kernels, "WORKERS", workers)
            mp.setattr(_kernels, "CHUNK_FLOATS", floats)
            threaded = _kernels.featurize(X, basis.z, basis.c, widths, pairs, basis.pair_z)
        table, index = threaded
        distinct = sum(np.unique(X[:, j]).size for j in range(d))
        assert table.shape == (distinct + n * len(pairs), 1 + S)
        assert table.tobytes() == serial[0].tobytes()
        assert all(np.array_equal(a, b) for a, b in zip(index, serial[1], strict=True))
        phi = solvers.StackedFeatures(table, S, d, index).phi
        assert phi.shape == (n, 1 + S * (d + len(pairs)))
        for k, (i, j) in enumerate(pairs):
            block = phi[:, 1 + (d + k) * S:1 + (d + k + 1) * S]
            want = rff.pair_feature_map(basis, X[:, i], X[:, j], math.sqrt(widths[i] * widths[j]))
            assert block.tobytes() == np.ascontiguousarray(want).tobytes()


class TestInRowChunks:
    @settings(max_examples=40)
    @given(n=st.integers(0, 3000), per_row=st.integers(1, 200), floats=st.integers(1, 2000))
    def test_slices_do_not_depend_on_the_workers(self, n, per_row, floats):
        """The slices handed to ``work`` hold max(1, CHUNK_FLOATS // per_row)
        rows, the last one fewer: at every WORKERS they are the same set,
        and they tile range(n)."""
        chunk = max(1, floats // per_row)
        want = [slice(start, min(start + chunk, n)) for start in range(0, n, chunk)]
        for workers in (1, 2, 3, 8):
            seen = []

            def work(chunks, rows):
                for part in chunks:
                    assert part.stop - part.start <= rows
                    seen.append(part)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_kernels, "CHUNK_FLOATS", floats)
                mp.setattr(_kernels, "WORKERS", workers)
                _kernels.in_row_chunks(n, per_row, work)
            assert sorted(seen, key=lambda part: part.start) == want


class TestHalveWidth:
    """halve_width against stack_features at half the width. Both round the
    angle z * x / b + c once, so they differ by about an ulp of the angle
    (|angle| <= 2 * 3.5 * 2 / (1 / 16) = 224 here, ulp 2.8e-14) plus k
    rounding steps of the recurrence, each doubled by the halvings after it."""

    @settings(max_examples=60)
    @given(S=st.integers(2, 64), d=st.integers(1, 3), with_pairs=st.booleans(),
           k=st.integers(1, 4), seed=st.integers(0, 2**16))
    def test_matches_direct_cosines(self, S, d, with_pairs, k, seed):
        rng = np.random.default_rng(seed)
        pairs = [(0, d - 1)] if with_pairs and d > 1 else None
        basis = rff.build_basis(S, "grid", seed)
        X = rng.uniform(-2.0, 2.0, (int(rng.integers(1, 600)), d))
        widths = rng.uniform(1.0, 4.0, d)
        runs = []
        for _ in range(2):
            feats = solvers.stack_features(basis, widths, X, pairs=pairs)
            for _ in range(k):
                assert feats.halve_width(basis.c) is feats
            runs.append(feats.phi)
        assert runs[0].tobytes() == runs[1].tobytes()
        want = solvers.stack_features(basis, widths / 2 ** k, X, pairs=pairs).phi
        assert np.max(np.abs(runs[0] - want)) <= 1e-13
        assert np.all(runs[0][:, 0] == 1.0)

    def test_rejects_what_it_cannot_halve(self):
        basis = rff.build_basis(4, "grid", 0)
        table = solvers.stack_features(basis, [1.0, 1.0], np.zeros((3, 2))).table
        with pytest.raises(ValueError, match="S >= 2"):
            _kernels.halve_width(table[:, 1:2], basis.c[:1])
        with pytest.raises(ValueError, match="S = 4 columns, got 5"):
            _kernels.halve_width(table, basis.c)

    @settings(max_examples=60)
    @given(S=st.integers(4, 64), n=st.integers(1, 200), floats=st.integers(1, 4000),
           seed=st.integers(0, 2**16))
    def test_rows_halve_alike_in_any_chunks(self, S, n, floats, seed):
        """For S >= 4 a row's halved bits do not depend on how the rows are
        chunked: the whole block, chunks of CHUNK_FLOATS = ``floats`` floats
        (down to one row) and each row alone agree bit for bit."""
        rng = np.random.default_rng(seed)
        basis = rff.build_basis(S, "grid", seed)
        block = solvers.stack_features(basis, [1.0], rng.uniform(-3.0, 3.0, (n, 1))).table[:, 1:]
        whole = _kernels.halve_width(block.copy(), basis.c)
        chunked = block.copy()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "CHUNK_FLOATS", floats)
            _kernels.halve_width(chunked, basis.c)
        for r in range(block.shape[0]):
            _kernels.halve_width(block[r:r + 1], basis.c)
        assert whole.tobytes() == chunked.tobytes() == np.ascontiguousarray(block).tobytes()


class TestTables:
    """StackedFeatures holds Phi as featurize's cosine tables; its
    materialized ``phi`` is bit for bit the design matrix filled row by row,
    and its products are Phi's."""

    @settings(max_examples=60)
    @given(n=st.integers(7, 120), S=st.integers(2, 24), mode=st.sampled_from(rff.MODES),
           with_pair=st.booleans(), halvings=st.integers(0, 4), seed=st.integers(0, 2**16))
    def test_phi_is_the_row_by_row_fill(self, n, S, mode, with_pair, halvings, seed):
        rng = np.random.default_rng(seed)
        # columns of 1, 2, 7 and n distinct values
        X = np.column_stack([rng.permutation(np.resize(rng.uniform(-2.0, 2.0, k), n))
                             for k in (1, 2, 7, n)])
        widths = rng.uniform(1.0, 4.0, 4)
        pairs = [(0, 3), (1, 2)] if with_pair else []
        basis = rff.build_basis(S, mode, seed)
        halvings = halvings if mode == rff.MODE_GRID else 0
        feats = solvers.stack_features(basis, widths, X, pairs=pairs)
        assert feats.table.shape == (1 + 2 + 7 + n + n * len(pairs), 1 + S)
        want = np.empty((n, feats.dim))
        for r in range(n):
            want[r] = np.concatenate(
                [[1.0]] + [rff.feature_map(basis, X[r, j], widths[j]) for j in range(4)]
                + [rff.pair_feature_map(basis, X[r, p], X[r, q], math.sqrt(widths[p] * widths[q]))
                   for p, q in pairs])
            for _ in range(halvings):
                _kernels.halve_width(want[r, 1:].reshape(-1, S), basis.c)
        for _ in range(halvings):
            feats.halve_width(basis.c)
        assert feats.phi.tobytes() == want.tobytes()

    @settings(max_examples=30)
    @given(n=st.integers(1, 60), S=st.integers(1, 12), d=st.integers(1, 3),
           with_pair=st.booleans(), seed=st.integers(0, 2**16))
    def test_products_are_phis(self, n, S, d, with_pair, seed):
        rng = np.random.default_rng(seed)
        X = rng.choice(rng.normal(size=4), size=(n, d))
        pairs = [(0, d - 1)] if with_pair and d > 1 else None
        feats = solvers.stack_features(rff.build_basis(S, "monte_carlo", seed),
                                       rng.uniform(0.5, 2.0, d), X, pairs=pairs)
        phi = feats.phi
        w, r = rng.normal(size=feats.dim), rng.normal(size=n)
        assert np.allclose(feats.matvec(w), phi @ w, rtol=0, atol=1e-13)
        assert np.allclose(feats.rmatvec(r), phi.T @ r, rtol=0, atol=1e-13)
        for b, cols in enumerate(feats.blocks()):
            assert np.allclose(feats.block_values(b, w[cols]), phi[:, cols] @ w[cols],
                               rtol=0, atol=1e-13)

    @pytest.mark.parametrize("mode", rff.MODES)
    def test_eigenbases_diagonalize_each_blocks_gram(self, mode):
        """Each block's Gram weighs a table row by its count of data rows, so
        the kept eigenvectors make Phi's block columns orthogonal."""
        rng = np.random.default_rng(9)
        X = np.column_stack([rng.choice([0.1, 0.7, -1.2], 500, p=[0.8, 0.15, 0.05]),
                             rng.choice(rng.normal(size=40), 500)])
        feats = solvers.stack_features(rff.build_basis(16, mode, 2), [1.0, 0.5], X,
                                       pairs=[(0, 1)])
        phi = feats.phi
        for cols, U in solvers._eigenbases(feats):
            P = phi[:, cols] @ U
            gram = P.T @ P
            off = gram - np.diag(np.diag(gram))
            assert np.max(np.abs(off)) <= 1e-12 * np.max(gram)

    def test_dense_phi_is_its_own_table(self):
        phi = np.arange(12.0).reshape(3, 4)
        feats = solvers.StackedFeatures(phi=phi, S=1, d=3)
        assert feats.phi is phi and (feats.n, feats.dim) == (3, 4)
        assert feats.blocks() == [slice(0, 1), slice(1, 2), slice(2, 3), slice(3, 4)]
        w = np.array([1.0, -2.0, 0.5, 3.0])
        assert np.array_equal(feats.matvec(w), phi @ w)
        with pytest.raises(ValueError, match="whole S-column blocks"):
            solvers.StackedFeatures(phi=phi, S=2, d=1)
        with pytest.raises(ValueError, match="rows its index reaches"):
            solvers.StackedFeatures(phi, 1, 3, [np.array([0, 1, 1])])


class TestConjugateGradients:
    def test_identity_single_iteration(self):
        v = np.array([3.0, -1.0, 2.5])
        w, iters, rel = solvers.conjugate_gradients(lambda p: p, v)
        assert iters == 1
        assert np.allclose(w, v, atol=1e-12)

    def test_diagonal_system(self):
        A = np.diag([1.0, 2.0, 4.0])
        v = np.ones(3)
        w, iters, rel = solvers.conjugate_gradients(lambda p: A @ p, v, tol=1e-10)
        assert np.allclose(w, [1.0, 0.5, 0.25], atol=1e-9)

    def test_random_spd_matches_dense(self):
        rng = np.random.default_rng(11)
        B = rng.normal(size=(50, 50))
        A = B @ B.T / 50 + np.eye(50)
        v = rng.normal(size=50)
        w, iters, rel = solvers.conjugate_gradients(lambda p: A @ p, v, tol=1e-10)
        want = np.linalg.solve(A, v)
        assert np.max(np.abs(w - want)) / np.max(np.abs(want)) < 1e-8
        assert iters <= 50

    def test_zero_rhs(self):
        w, iters, rel = solvers.conjugate_gradients(lambda p: p, np.zeros(4))
        assert np.all(w == 0.0) and iters == 0 and rel == 0.0

    def test_breakdown_detected(self):
        v = np.ones(3)
        with pytest.raises(NumericBreakdownError):
            solvers.conjugate_gradients(lambda p: np.full(3, math.nan), v)


class TestSolveRidgeCg:
    def test_zero_targets(self):
        feats = make_features(np.array([[1.0, 0.2], [1.0, -0.1]]))
        w, report = solvers.solve_ridge_cg(feats, np.zeros(2))
        assert np.all(w == 0.0)
        assert report.iterations == 0 and report.converged

    def test_unit_vector_analytic(self):
        feats = make_features(np.array([[1.0, 0.0, 0.0]]))
        cfg = solvers.FitConfig(lam=1.0)
        w, report = solvers.solve_ridge_cg(feats, np.array([1.0]), cfg)
        # the bias is not penalized, so it fits y exactly
        assert w == pytest.approx([1.0, 0.0, 0.0], abs=1e-10)
        assert report.converged

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(21)
        for trial in range(5):
            n, D = 30, 21
            phi = np.hstack([np.ones((n, 1)), rng.normal(size=(n, D - 1)) * 0.2])
            y = rng.normal(size=n)
            feats = make_features(phi)
            cfg = solvers.FitConfig(lam=1.0, cg_tol=1e-12)
            w, report = solvers.solve_ridge_cg(feats, y, cfg)
            want = dense_ridge_solve(phi, y, 1.0)
            rel = np.max(np.abs(w - want)) / np.max(np.abs(want))
            assert rel < 1e-8
            assert report.converged

    def test_normal_equation_residual_bound(self):
        rng = np.random.default_rng(5)
        phi = np.hstack([np.ones((40, 1)), rng.normal(size=(40, 12)) * 0.3])
        y = rng.normal(size=40)
        feats = make_features(phi)
        cfg = solvers.FitConfig(lam=1.0, cg_tol=1e-8)
        w, report = solvers.solve_ridge_cg(feats, y, cfg)
        v = phi.T @ y
        reg = np.eye(13)
        reg[0, 0] = 0.0
        resid = (reg + phi.T @ phi) @ w - v
        assert np.linalg.norm(resid) <= 10 * cfg.cg_tol * np.linalg.norm(v)
        assert report.final_residual_or_loss <= 1.0  # never worse than the w=0 start

    def test_matrix_free_equivalence(self):
        rng = np.random.default_rng(6)
        phi = rng.normal(size=(20, 9))
        lam = 1.7
        mask = np.ones(9)
        mask[0] = 0.0
        explicit = lam * np.diag(mask) + phi.T @ phi
        for _ in range(5):
            p = rng.normal(size=9)
            got = _kernels.gram_apply(phi, p) + lam * mask * p
            assert np.max(np.abs(got - explicit @ p)) < 1e-10

    @settings(max_examples=40)
    @given(S=st.integers(1, 40), mode=st.sampled_from(rff.MODES),
           seed=st.integers(0, 2**16), lam=st.floats(0.1, 10.0))
    def test_rff_design_matches_direct_solve(self, S, mode, seed, lam):
        rng = np.random.default_rng(seed)
        n, d = 60, 3
        X = rng.normal(size=(n, d))
        y = np.sin(X).sum(axis=1) + 0.1 * rng.normal(size=n)
        basis = rff.build_basis(S, mode, seed)
        feats = solvers.stack_features(basis, rng.uniform(0.3, 2.0, d), X)
        cfg = solvers.FitConfig(lam=lam)
        w, report = solvers.solve_ridge_cg(feats, y, cfg)
        phi = feats.phi
        reg = lam * np.eye(phi.shape[1])
        reg[0, 0] = 0.0
        A, v = reg + phi.T @ phi, phi.T @ y
        want = np.linalg.solve(A, v)
        assert report.converged
        assert np.linalg.norm(w - want) <= 1e-10 * max(1.0, np.linalg.norm(want))
        assert np.linalg.norm(A @ w - v) <= 1e-12 * np.linalg.norm(v)
        assert report.final_residual_or_loss <= 1e-12

    def test_rejects_non_finite_targets(self):
        feats = make_features(np.ones((2, 2)))
        with pytest.raises(ValueError):
            solvers.solve_ridge_cg(feats, np.array([1.0, math.inf]))


def newton_logistic_oracle(phi, y_pm, lam, iters=50):
    """Independent full-batch Newton solver for the regularized logistic loss."""
    n, D = phi.shape
    w = np.zeros(D)
    reg = lam / n * np.eye(D)
    reg[0, 0] = 0.0
    for _ in range(iters):
        t = phi @ w
        p = 1.0 / (1.0 + np.exp(-t))
        grad = phi.T @ (p - (y_pm + 1) / 2) / n + reg @ w
        H = phi.T @ (phi * (p * (1 - p))[:, None]) / n + reg
        w = w - np.linalg.solve(H, grad)
    loss = np.mean(np.log1p(np.exp(-y_pm * (phi @ w))))
    loss += 0.5 * lam / n * float(w[1:] @ w[1:])
    return w, loss


class TestLogisticSgd:
    def test_symmetric_problem_gives_half(self):
        phi = np.tile([1.0, 0.3, -0.2], (40, 1))
        y = np.array([0.0, 1.0] * 20)
        feats = make_features(phi)
        cfg = solvers.FitConfig(sgd_lr=0.5, sgd_epochs=200, sgd_batch=40,
                                sgd_lr_decay=1.0, sgd_tol=0.0)
        w, report = solvers.fit_logistic_sgd(feats, y, cfg)
        probs = solvers.sigmoid(phi @ w)
        assert np.all(np.abs(probs - 0.5) <= 0.01)

    def test_separable_toy_matches_newton(self):
        phi = np.array([[1.0, 1.0]] * 30 + [[1.0, -1.0]] * 30)
        y = np.array([1.0] * 30 + [0.0] * 30)
        feats = make_features(phi)
        cfg = solvers.FitConfig(lam=1.0, sgd_lr=1.0, sgd_epochs=3000, sgd_batch=60,
                                sgd_lr_decay=1.0, sgd_tol=0.0)
        w, report = solvers.fit_logistic_sgd(feats, y, cfg)
        preds = (solvers.sigmoid(phi @ w) >= 0.5).astype(float)
        assert np.all(preds == y)
        _, best_loss = newton_logistic_oracle(phi, 2 * y - 1, lam=1.0)
        assert report.final_residual_or_loss <= best_loss + 1e-3

    def test_convexity_two_inits_agree(self):
        rng = np.random.default_rng(13)
        phi = np.hstack([np.ones((200, 1)), rng.normal(size=(200, 6)) * 0.4])
        logits = phi @ np.array([0.2, 1.0, -1.0, 0.5, 0.0, 0.3, -0.7])
        y = (rng.uniform(size=200) < solvers.sigmoid(logits)).astype(float)
        feats = make_features(phi)
        cfg = solvers.FitConfig(lam=1.0, sgd_lr=2.0, sgd_epochs=5000, sgd_batch=200,
                                sgd_lr_decay=1.0, sgd_tol=0.0)
        _, rep_a = solvers.fit_logistic_sgd(feats, y, cfg)
        w_init = 0.3 * np.random.default_rng(99).standard_normal(7)
        _, rep_b = solvers.fit_logistic_sgd(feats, y, cfg, w_init=w_init)
        assert abs(rep_a.final_residual_or_loss - rep_b.final_residual_or_loss) <= 1e-4

    def test_single_class_flagged_degenerate(self):
        feats = make_features(np.ones((10, 2)))
        with pytest.warns(UserWarning):
            w, report = solvers.fit_logistic_sgd(feats, np.ones(10),
                                                 solvers.FitConfig(sgd_epochs=2))
        assert report.degenerate

    def test_rejects_bad_labels(self):
        feats = make_features(np.ones((3, 2)))
        with pytest.raises(ValueError):
            solvers.fit_logistic_sgd(feats, np.array([0.0, 1.0, 2.0]))

    def test_full_batch_loss_non_increasing(self):
        rng = np.random.default_rng(17)
        phi = np.hstack([np.ones((80, 1)), rng.normal(size=(80, 4)) * 0.5])
        y = (rng.uniform(size=80) < 0.5).astype(float)
        feats = make_features(phi)
        cfg = solvers.FitConfig(sgd_lr=0.2, sgd_epochs=50, sgd_batch=80,
                                sgd_lr_decay=1.0, sgd_tol=0.0)
        _, report = solvers.fit_logistic_sgd(feats, y, cfg)
        trace = np.array(report.loss_trace)
        assert np.all(np.diff(trace) <= 1e-12)

    def test_seeded_runs_identical(self):
        rng = np.random.default_rng(23)
        phi = np.hstack([np.ones((60, 1)), rng.normal(size=(60, 3))])
        y = (rng.uniform(size=60) < 0.5).astype(float)
        feats = make_features(phi)
        cfg = solvers.FitConfig(sgd_epochs=20, seed=5)
        w1, _ = solvers.fit_logistic_sgd(feats, y, cfg)
        w2, _ = solvers.fit_logistic_sgd(feats, y, cfg)
        assert np.array_equal(w1, w2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverged_loss_is_numeric_breakdown(self):
        """A diverging fit raises its one error and prints no numpy warning."""
        rng = np.random.default_rng(37)
        phi = np.hstack([np.ones((50, 1)), rng.normal(size=(50, 3))])
        y = (rng.uniform(size=50) < 0.5).astype(float)
        feats = make_features(phi)
        cfg = solvers.FitConfig(sgd_lr=1e308, sgd_epochs=5)
        with pytest.raises(NumericBreakdownError, match="diverged"):
            solvers.fit_logistic_sgd(feats, y, cfg)


class TestLogisticNewton:
    @staticmethod
    def problem(seed, n=300, D=9):
        rng = np.random.default_rng(seed)
        phi = np.hstack([np.ones((n, 1)), rng.normal(size=(n, D - 1)) * 0.5])
        y = (rng.uniform(size=n) < solvers.sigmoid(phi @ rng.normal(size=D))).astype(float)
        return make_features(phi), y

    def test_matches_newton_oracle(self):
        feats, y = self.problem(41)
        w, report = solvers.fit_logistic_newton(feats, y, solvers.FitConfig(lam=1.0))
        want, want_loss = newton_logistic_oracle(feats.phi, 2 * y - 1, lam=1.0)
        assert report.method == "newton" and report.converged
        assert np.max(np.abs(w - want)) <= 1e-9 * np.max(np.abs(want))
        assert abs(report.final_residual_or_loss - want_loss) <= 1e-12

    def test_loss_trace_non_increasing_to_gradient_tolerance(self):
        feats, y = self.problem(43, n=500, D=21)
        w, report = solvers.fit_logistic_newton(feats, y)
        # full steps below a decrement of 1e-12 may move the loss by rounding
        assert np.all(np.diff(report.loss_trace) <= 1e-15)
        assert report.loss_trace[-1] < report.loss_trace[1] < report.loss_trace[0]
        assert len(report.loss_trace) == report.iterations + 1
        _, grad = solvers.logistic_objective(w, feats.phi, 2 * y - 1, 1.0)
        assert report.gradient_norm == np.linalg.norm(grad) <= solvers.NEWTON_TOL
        doc = report.to_dict()
        assert (doc["gradient_norm"], doc["loss_first"], doc["loss_last"]) == (
            report.gradient_norm, report.loss_trace[0], report.final_residual_or_loss)
        assert report.loss_trace[0] == pytest.approx(math.log(2.0), rel=1e-15)  # w = 0

    def test_iteration_cap_is_not_converged(self, monkeypatch):
        feats, y = self.problem(47)
        monkeypatch.setattr(solvers, "NEWTON_MAX_ITER", 1)
        _, report = solvers.fit_logistic_newton(feats, y)
        assert report.iterations == 1 and not report.converged
        assert report.gradient_norm > solvers.NEWTON_TOL

    def test_hessian_sums_row_chunks(self):
        """The chunked Hessian equals the product over all rows at once."""
        feats, _ = self.problem(53, n=3 * solvers.REDUCED_CHUNK + 7)
        w = np.random.default_rng(1).normal(size=feats.dim)
        mask = np.ones(feats.dim)
        mask[0] = 0.0
        p = solvers.sigmoid(feats.phi @ w)
        want = feats.phi.T @ (feats.phi * (p * (1 - p))[:, None]) / feats.n
        want += np.diag(2.0 / feats.n * mask)
        got = solvers._logistic_hessian(feats.phi, w, 2.0, mask)
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_rejects_bad_labels(self):
        feats = make_features(np.ones((3, 2)))
        with pytest.raises(ValueError):
            solvers.fit_logistic_newton(feats, np.array([0.0, 1.0, 2.0]))

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**16), n=st.integers(20, 120), D=st.integers(2, 12),
           lam=st.floats(0.05, 20.0))
    def test_converges_below_sgd_and_reruns_bit_identically(self, seed, n, D, lam):
        rng = np.random.default_rng(seed)
        phi = np.hstack([np.ones((n, 1)), rng.normal(size=(n, D - 1))])
        y = (rng.uniform(size=n) < 0.5).astype(float)
        y[:2] = (0.0, 1.0)
        feats = make_features(phi)
        cfg = solvers.FitConfig(lam=lam, sgd_lr=0.5, sgd_batch=n, sgd_epochs=2000,
                                sgd_lr_decay=1.0, sgd_tol=0.0)
        w, report = solvers.fit_logistic_newton(feats, y, cfg)
        assert report.converged and report.gradient_norm <= solvers.NEWTON_TOL
        assert np.all(np.diff(report.loss_trace) <= 1e-15)
        _, sgd = solvers.fit_logistic_sgd(feats, y, cfg)
        assert report.final_residual_or_loss <= sgd.final_residual_or_loss + 1e-15
        w_again, _ = solvers.fit_logistic_newton(feats, y, cfg)
        assert np.array_equal(w, w_again)


class TestFitReduced:
    """fit_reduced against the exact solvers, which stay as its oracles."""

    @settings(max_examples=80)
    @given(n=st.integers(20, 300), S=st.integers(2, 40), d=st.integers(1, 4),
           mode=st.sampled_from(rff.MODES), with_pair=st.booleans(),
           lam=st.floats(1e-3, 100.0), task=st.sampled_from(TASKS),
           seed=st.integers(0, 2**16))
    def test_matches_exact_solvers(self, n, S, d, mode, with_pair, lam, task, seed):
        rng = np.random.default_rng(seed)
        pairs = [(0, d - 1)] if with_pair and d > 1 else None
        basis = rff.build_basis(S, mode, seed)
        X = rng.normal(size=(n, d))
        feats = solvers.stack_features(basis, rng.uniform(0.5, 2.0, d), X, pairs=pairs)
        self.check_against_exact(feats, X, task, lam, rng)

    @settings(max_examples=40)
    @given(n=st.integers(20, 300), S=st.integers(2, 40), mode=st.sampled_from(rff.MODES),
           with_pair=st.booleans(), lam=st.floats(1e-3, 100.0), task=st.sampled_from(TASKS),
           seed=st.integers(0, 2**16))
    def test_matches_exact_solvers_on_tied_columns(self, n, S, mode, with_pair, lam, task,
                                                  seed):
        """A constant, a 2-valued and a 7-valued column: each block's table
        holds a few rows that most data rows share."""
        rng = np.random.default_rng(seed)
        X = np.column_stack([rng.permutation(np.resize(rng.normal(size=k), n))
                             for k in (1, 2, 7)])
        basis = rff.build_basis(S, mode, seed)
        feats = solvers.stack_features(basis, rng.uniform(0.5, 2.0, 3), X,
                                       pairs=[(1, 2)] if with_pair else None)
        assert feats.table.shape[0] == 10 + n * with_pair
        self.check_against_exact(feats, X, task, lam, rng)

    @staticmethod
    def check_against_exact(feats, X, task, lam, rng):
        """fit_reduced's weights and report against solve_ridge_cg or
        fit_logistic_newton on the materialized Phi."""
        n = X.shape[0]
        phi, cfg = feats.phi, solvers.FitConfig(lam=lam)
        mask = np.ones(feats.dim)
        mask[0] = 0.0
        if task == TASK_REGRESSION:
            y = np.sin(X).sum(axis=1) + 0.1 * rng.normal(size=n)
            exact, _ = solvers.solve_ridge_cg(feats, y, cfg)
        else:
            y = (rng.uniform(size=n) < solvers.sigmoid(np.sin(2 * X).sum(axis=1))).astype(float)
            y[:2] = (0.0, 1.0)
            with pytest.MonkeyPatch.context() as mp:
                # train's stop, ||grad|| <= 1e-10, can leave the oracle's fitted
                # values 2e-9 off where the Hessian is small, so it goes on
                mp.setattr(solvers, "NEWTON_TOL", 1e-14)
                exact, _ = solvers.fit_logistic_newton(feats, y, cfg)
        w, report = solvers.fit_reduced(feats, y, task, cfg)
        assert report.converged
        assert 1 < report.reduced_rank <= feats.dim
        scale = max(1.0, np.max(np.abs(phi @ exact)))
        assert np.max(np.abs(phi @ (w - exact))) <= 1e-9 * scale
        # the report judges w on the full D-space problem
        if task == TASK_REGRESSION:
            v = phi.T @ y
            residual = np.linalg.norm(phi.T @ (phi @ w) + lam * mask * w - v)
            assert report.final_residual_or_loss == pytest.approx(
                residual / np.linalg.norm(v), rel=1e-12)
        else:
            p = solvers.sigmoid(phi @ w)
            grad = phi.T @ (p - y) / n + lam / n * mask * w
            assert report.gradient_norm == pytest.approx(np.linalg.norm(grad), abs=1e-14)
            loss = np.mean(np.logaddexp(0.0, -(2 * y - 1) * (phi @ w)))
            loss += 0.5 * lam / n * float(w[1:] @ w[1:])
            assert report.final_residual_or_loss == pytest.approx(loss, rel=1e-12)

    @pytest.mark.parametrize("mode", rff.MODES)
    @pytest.mark.parametrize("S", [8, 40, 100])
    def test_block_of_k_distinct_values_keeps_rank_k_and_rounding(self, mode, S):
        """A column with k distinct values gives a block B of rank <= k. Its
        summed Gram's rounding can put eigenvalues of a few 1e-15 * max into
        the null space (4.3e-15 measured), over RANK_CUTOFF, so a kept
        direction past the k-th is allowed, but ||B u||^2 must be rounding."""
        rng = np.random.default_rng(S)
        basis = rff.build_basis(S, mode, 1)
        for k in (1, 2, 3, 5):
            column = rng.choice(rng.normal(size=k), size=500)
            X = np.column_stack([column, rng.normal(size=500)])
            feats = solvers.stack_features(basis, [1.0, 1.0], X, pairs=[(0, 1)])
            bases = solvers._eigenbases(feats)
            assert [cols for cols, _ in bases] == feats.blocks()
            assert bases[0][1].shape == (1, 1)  # the bias column
            U = bases[1][1]
            energy = np.sort(np.sum((feats.phi[:, bases[1][0]] @ U) ** 2, axis=0))[::-1]
            assert energy.size >= 1
            assert np.all(energy[k:] <= 1e-14 * energy[0])

    def test_report_gives_rank_and_cutoff(self):
        basis = rff.build_basis(16, "grid", 0)
        X = np.column_stack([np.full(50, 0.3), np.linspace(-1.0, 1.0, 50)])
        feats = solvers.stack_features(basis, [1.0, 1.0], X)
        _, report = solvers.fit_reduced(feats, np.linspace(0.0, 1.0, 50), TASK_REGRESSION)
        doc = report.to_dict()
        assert doc["reduced_rank"] == report.reduced_rank == sum(
            U.shape[1] for _, U in solvers._eigenbases(feats))
        assert doc["rank_cutoff"] == solvers.RANK_CUTOFF == 1e-15

    def test_rejects_unknown_task_and_bad_targets(self):
        feats = make_features(np.ones((2, 2)))
        with pytest.raises(ValueError, match="unknown task"):
            solvers.fit_reduced(feats, np.ones(2), "ranking")
        with pytest.raises(ValueError):
            solvers.fit_reduced(feats, np.array([1.0, math.inf]), TASK_REGRESSION)
        with pytest.raises(ValueError):
            solvers.fit_reduced(feats, np.array([0.0, 2.0]), TASK_CLASSIFICATION)


class TestGradientCheck:
    def test_analytic_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        phi = np.hstack([np.ones((50, 1)), rng.normal(size=(50, 5)) * 0.6])
        y_pm = np.where(rng.uniform(size=50) < 0.5, -1.0, 1.0)
        lam = 1.0
        eps = 1e-6
        for _ in range(5):
            w = rng.normal(size=6)
            _, grad = solvers.logistic_objective(w, phi, y_pm, lam)
            num = np.empty_like(w)
            for k in range(w.size):
                wp, wm = w.copy(), w.copy()
                wp[k] += eps
                wm[k] -= eps
                lp, _ = solvers.logistic_objective(wp, phi, y_pm, lam)
                lm, _ = solvers.logistic_objective(wm, phi, y_pm, lam)
                num[k] = (lp - lm) / (2 * eps)
            rel = np.linalg.norm(grad - num) / np.linalg.norm(num)
            assert rel <= 1e-5


class TestInteractionCapture:
    def test_pair_term_fits_multiplicative_structure(self):
        from gpnam import data, metrics

        rng = np.random.default_rng(5)
        X = rng.uniform(-2, 2, (3000, 2))
        y = X[:, 0] * X[:, 1] + rng.normal(0, 0.1, 3000)
        ds = data.Dataset(X=X, y=y, feature_names=["x1", "x2"], task="regression",
                          encodings=[{"kind": "numeric"}] * 2)
        ds = data.standardize(ds)
        train, _, test = data.split(ds, (0.8, 0.1, 0.1), seed=0)
        basis = rff.build_basis(64, "monte_carlo", 0)
        widths = data.kernel_widths(ds, 1.0)
        rmses = {}
        for label, pairs in (("additive", []), ("pairwise", [(0, 1)])):
            f_train = solvers.stack_features(basis, widths, train.X, pairs=pairs)
            w, _ = solvers.solve_ridge_cg(f_train, train.y, solvers.FitConfig())
            f_test = solvers.stack_features(basis, widths, test.X, pairs=pairs)
            rmses[label] = metrics.rmse(f_test.phi @ w, test.y)
        # x1*x2 has no additive representation; the 2-D map reaches the noise floor
        assert rmses["additive"] >= 1.0
        assert rmses["pairwise"] <= 0.25


class TestGridSeed:
    """A grid basis's seed only permutes the phases of mirrored frequency
    pairs, and each pair spans {cos(z x), sin(z x)} whatever its phases, so
    the ridge optimum's 1-D terms do not depend on the seed."""

    rng = np.random.default_rng(12)
    X = rng.uniform(-2.0, 2.0, (300, 2))
    y = np.sin(3.0 * X[:, 0]) + X[:, 1] ** 2 + rng.normal(0.0, 0.1, 300)
    X_new = rng.uniform(-2.5, 2.5, (50, 2))
    widths = np.array([0.7, 1.3])

    def predictions(self, mode, seed, S):
        basis = rff.build_basis(S, mode, seed)
        phi = solvers.stack_features(basis, self.widths, self.X).phi
        w = dense_ridge_solve(phi, self.y, 0.1)
        return solvers.stack_features(basis, self.widths, self.X_new).phi @ w

    @pytest.mark.parametrize("S", [15, 16])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_grid_predictions_do_not_depend_on_seed(self, seed, S):
        base = self.predictions("grid", 0, S)
        assert np.max(np.abs(self.predictions("grid", seed, S) - base)) <= 1e-10
        # a Monte-Carlo seed draws other frequencies, so it moves the fit
        assert np.max(np.abs(self.predictions("monte_carlo", seed, S)
                             - self.predictions("monte_carlo", 0, S))) > 1e-3
