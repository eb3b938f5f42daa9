"""Basis construction, feature maps, and kernel approximation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpnam import rff, solvers

SQRT2 = math.sqrt(2.0)


def bisect_normal_quantile(p, iters=200):
    """Independent quantile oracle: bisection on the erf-based CDF."""
    lo, hi = -12.0, 12.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if 0.5 * (1.0 + math.erf(mid / SQRT2)) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestInverseNormalCdf:
    def test_median_is_zero(self):
        assert rff.inv_std_normal_cdf(0.5) == 0.0

    def test_matches_bisection_oracle(self):
        probs = np.concatenate([(np.arange(1, 101) - 0.5) / 100,
                                [1e-6, 1e-4, 0.0001, 0.9999, 1 - 1e-6]])
        got = np.atleast_1d(rff.inv_std_normal_cdf(probs))
        want = np.array([bisect_normal_quantile(p) for p in probs])
        assert np.max(np.abs(got - want)) < 1e-9

    def test_rejects_out_of_range(self):
        for bad in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(ValueError):
                rff.inv_std_normal_cdf(bad)


class TestBuildBasis:
    def test_single_cell_grid(self):
        basis = rff.build_basis(1, "grid", 12345)
        assert basis.z.tolist() == [0.0]
        assert basis.c.tolist() == [math.pi]

    def test_grid_quantiles_match_oracle(self):
        basis = rff.build_basis(4, "grid", 7)
        want = [bisect_normal_quantile((s - 0.5) / 4) for s in (1, 2, 3, 4)]
        assert np.allclose(np.sort(basis.z), want, atol=5e-9, rtol=0)
        assert np.allclose(np.sort(basis.z),
                           [-1.1503, -0.3186, 0.3186, 1.1503], atol=1e-4)

    def test_monte_carlo_moments(self):
        basis = rff.build_basis(1000, "monte_carlo", 42)
        assert abs(basis.z.mean()) < 0.1
        assert abs(basis.z.var() - 1.0) < 0.15

    def test_phase_range(self):
        for mode in rff.MODES:
            for S in (1, 2, 3, 8, 101):
                basis = rff.build_basis(S, mode, 3)
                assert basis.z.shape == basis.c.shape == (S,)
                assert np.all(basis.c >= 0.0) and np.all(basis.c < 2 * math.pi)

    def test_grid_sorted_z_is_quantile_grid(self):
        for S in (3, 10, 101, 256):
            basis = rff.build_basis(S, "grid", 9)
            want = np.array([bisect_normal_quantile((s - 0.5) / S)
                             for s in range(1, S + 1)])
            assert np.max(np.abs(np.sort(basis.z) - want)) < 5e-9

    def test_bit_reproducible(self):
        for mode in rff.MODES:
            a = rff.build_basis(64, mode, 987)
            b = rff.build_basis(64, mode, 987)
            assert np.array_equal(a.z, b.z)
            assert np.array_equal(a.c, b.c)
            assert np.array_equal(a.pair_z, b.pair_z)

    @settings(max_examples=80)
    @given(S=st.integers(1, 64), mode=st.sampled_from(rff.MODES),
           seed=st.integers(0, 2**63 - 1))
    def test_draw_order(self, S, mode, seed):
        """One default_rng(seed) draws, in order, Monte-Carlo z, c, pair_z or
        the grid's phase permutation, then its S//2 positive pair rows; model
        files written before every basis held pair_z rebuild the same z, c."""
        basis = rff.build_basis(S, mode, seed)
        rng = np.random.default_rng(seed)
        if mode == rff.MODE_MONTE_CARLO:
            assert np.array_equal(basis.z, rng.standard_normal(S))
            assert np.array_equal(basis.c, rng.uniform(0.0, 2 * math.pi, S))
            want = rng.standard_normal((S, 2))
        else:
            m = S // 2
            gamma = 2 * math.pi * (np.arange(1, m + 1) - 0.5) / m
            assert np.array_equal(basis.c[S - m:], gamma[rng.permutation(m)])
            positive = rng.standard_normal((m, 2))
            want = np.concatenate([-positive[::-1], np.zeros((S % 2, 2)), positive])
        assert np.array_equal(basis.pair_z, want)
        assert not basis.pair_z.flags.writeable

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            rff.build_basis(0, "grid", 0)
        with pytest.raises(ValueError):
            rff.build_basis(-3, "monte_carlo", 0)
        with pytest.raises(ValueError):
            rff.build_basis(10, "quasi", 0)

    def test_arrays_frozen(self):
        basis = rff.build_basis(8, "grid", 0)
        with pytest.raises(ValueError):
            basis.z[0] = 3.0


@pytest.mark.parametrize("b", [math.nan, math.inf, 0.0, -1.0])
def test_kernel_width_must_be_positive_and_finite(b):
    basis = rff.build_basis(8, "grid", 0)
    for call in (lambda: rff.rbf_kernel(0.0, 1.0, b),
                 lambda: rff.feature_map(basis, 0.5, b),
                 lambda: rff.pair_feature_map(basis, 0.5, -0.5, b)):
        with pytest.raises(ValueError, match="positive and finite"):
            call()


class TestRbfKernel:
    def test_zero_distance(self):
        assert rff.rbf_kernel(1.5, 1.5, 0.7) == 1.0

    def test_analytic_values(self):
        assert rff.rbf_kernel(0.0, math.sqrt(2.0), 1.0) == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert rff.rbf_kernel(0.0, 1.0, 2.0) == pytest.approx(math.exp(-0.125), abs=1e-12)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            rff.rbf_kernel(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            rff.rbf_kernel(0.0, 1.0, -2.0)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            rff.rbf_kernel([0.0, 1.0], [1.0], 1.0)


def make_basis(z, c, pair_z=None):
    z = np.asarray(z, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    return rff.FeatureBasis(S=z.size, z=z, c=c, mode="monte_carlo", seed=0,
                            pair_z=np.zeros((z.size, 2)) if pair_z is None
                            else np.asarray(pair_z, float))


class TestFeatureMap:
    def test_zero_frequency(self):
        basis = make_basis([0.0], [0.0])
        got = rff.feature_map(basis, 3.7, 1.0)
        assert got == pytest.approx([SQRT2], abs=1e-12)

    def test_phase_flip(self):
        basis = make_basis([0.0, 0.0], [0.0, math.pi])
        got = rff.feature_map(basis, 0.0, 1.0)
        assert got == pytest.approx([1.0, -1.0], abs=1e-12)

    def test_bounded_components(self):
        basis = rff.build_basis(100, "monte_carlo", 17)
        bound = math.sqrt(2.0 / 100)
        rng = np.random.default_rng(0)
        for _ in range(25):
            x = rng.uniform(-50, 50)
            b = rng.uniform(0.1, 5.0)
            fm = rff.feature_map(basis, x, b)
            assert np.all(np.abs(fm) <= bound + 1e-15)
            assert fm @ fm <= 2.0 + 1e-12

    def test_rejects_bad_inputs(self):
        basis = make_basis([0.0], [0.0])
        with pytest.raises(ValueError):
            rff.feature_map(basis, 1.0, 0.0)
        with pytest.raises(ValueError):
            rff.feature_map(basis, math.nan, 1.0)
        with pytest.raises(ValueError):
            rff.feature_map(basis, math.inf, 1.0)


class TestApproxKernel:
    def test_grid_self_consistency_exact(self):
        basis = rff.build_basis(64, "grid", 0)
        assert rff.approx_kernel(basis, 0.9, 0.9, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_grid_self_consistency_property(self):
        rng = np.random.default_rng(4)
        for S in (3, 4, 5, 64, 100, 101):
            basis = rff.build_basis(S, "grid", 1)
            for x in rng.uniform(-40, 40, 5):
                assert abs(rff.approx_kernel(basis, x, x, 1.0) - 1.0) <= 1e-10

    def test_monte_carlo_approximates_kernel(self):
        basis = rff.build_basis(10_000, "monte_carlo", 42)
        got = rff.approx_kernel(basis, 0.0, 1.0, 1.0)
        assert abs(got - math.exp(-0.5)) <= 0.05

    def test_huge_bandwidth_degenerates(self):
        for mode in rff.MODES:
            basis = rff.build_basis(128, mode, 11)
            far = rff.approx_kernel(basis, -2.0, 5.0, 1e9)
            same = rff.approx_kernel(basis, -2.0, -2.0, 1e9)
            assert abs(far - same) <= 1e-9

    def test_symmetry_exact(self):
        basis = rff.build_basis(50, "monte_carlo", 2)
        rng = np.random.default_rng(8)
        for _ in range(20):
            x, xp = rng.uniform(-3, 3, 2)
            assert rff.approx_kernel(basis, x, xp, 1.0) == rff.approx_kernel(basis, xp, x, 1.0)

    def test_monte_carlo_error_decays(self):
        rng = np.random.default_rng(123)
        pairs = rng.uniform(-3, 3, (50, 2))
        medians = {}
        for S in (250, 4000):
            basis = rff.build_basis(S, "monte_carlo", 0)
            errs = [abs(rff.approx_kernel(basis, x, xp, 1.0) - rff.rbf_kernel(x, xp, 1.0))
                    for x, xp in pairs]
            medians[S] = np.median(errs)
        assert medians[4000] < medians[250]


class TestPairFeatureMap:
    def test_zero_frequencies_give_constant(self):
        basis = make_basis([0.0] * 4, [0.0] * 4, pair_z=np.zeros((4, 2)))
        got = rff.pair_feature_map(basis, 1.3, -2.2, 0.7)
        assert got == pytest.approx([math.sqrt(2 / 4)] * 4, abs=1e-12)

    def test_approximates_2d_kernel(self):
        basis = rff.build_basis(10_000, "monte_carlo", 42)
        fa = rff.pair_feature_map(basis, 0.0, 0.0, 1.0)
        fb = rff.pair_feature_map(basis, 1.0, 1.0, 1.0)
        want = rff.rbf_kernel([0.0, 0.0], [1.0, 1.0], 1.0)
        assert abs(float(fa @ fb) - want) <= 0.05
        assert want == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_grid_phases_self_consistent(self):
        basis = rff.build_basis(64, "grid", 3)
        for (xi, xj) in ((0.3, -1.2), (2.0, 2.0), (-0.7, 0.1)):
            fm = rff.pair_feature_map(basis, xi, xj, 1.0)
            assert float(fm @ fm) == pytest.approx(1.0, abs=1e-12)

    def test_array_inputs_give_one_row_per_point(self):
        basis = rff.build_basis(8, "grid", 1)
        block = rff.pair_feature_map(basis, np.array([0.3, -1.0, 2.0]),
                                     np.array([1.5, 0.0, -0.4]), 0.9)
        assert block.shape == (3, 8)
        assert rff.pair_feature_map(basis, 0.3, 1.5, 0.9).shape == (8,)
        with pytest.raises(ValueError):
            rff.pair_feature_map(basis, np.zeros(3), np.zeros(4), 0.9)

    @settings(max_examples=40)
    @given(S=st.integers(1, 40), mode=st.sampled_from(rff.MODES),
           seed=st.integers(0, 2**16), n=st.integers(1, 50),
           widths=st.lists(st.floats(0.1, 5.0), min_size=3, max_size=3),
           bad_row=st.integers(0, 49),
           bad_value=st.sampled_from([math.nan, math.inf, -math.inf]),
           bad_in_j=st.booleans())
    def test_stacked_block_bit_equals_scalar_loop(self, S, mode, seed, n, widths,
                                                   bad_row, bad_value, bad_in_j):
        rng = np.random.default_rng(seed)
        X = rng.normal(scale=3.0, size=(n, 3))
        basis = rff.build_basis(S, mode, seed)
        pairs = [(0, 1), (2, 0)]
        feats = solvers.stack_features(basis, widths, X, pairs=pairs)
        for k, (i, j) in enumerate(pairs):
            b_ij = math.sqrt(widths[i] * widths[j])
            loop = np.array([rff.pair_feature_map(basis, X[r, i], X[r, j], b_ij)
                             for r in range(n)])
            assert np.array_equal(feats.phi[:, feats.blocks()[1 + feats.d + k]], loop)

        x_i, x_j = X[:, 0].copy(), X[:, 1].copy()
        (x_j if bad_in_j else x_i)[bad_row % n] = bad_value
        with pytest.raises(ValueError):
            rff.pair_feature_map(basis, x_i, x_j, 1.0)

