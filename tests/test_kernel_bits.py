"""The metric and proxy kernels give the same bits as the np.unique /
np.add.at / full-matrix / masked-sigmoid versions kept in ``oracles``, and
the weighted-MSE kernel the same bits as the three loss paths it replaced."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mixedae import experiments, metrics
from mixedae.errors import MixedAEError
from mixedae.losses import LossWeights, _weighted_mse, balanced_mse_loss, blended_loss, mse_loss
from mixedae.models import parse_loss, vae_loss
from oracles import (
    frozen_balanced_mse_loss,
    frozen_blended_loss,
    frozen_mse_loss,
    frozen_vae_loss,
    full_matrix_silhouette,
    masked_confusion_counts,
    masked_logistic_fit,
    masked_sigmoid,
    single_gemm_silhouette,
    unique_cramers_v,
    unique_eta_squared,
    unique_rank_auc,
    unique_spearman,
)

SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan]
# few distinct values so that ties are common, plus arbitrary floats
float_elems = st.sampled_from(SPECIAL) | st.floats(allow_nan=True, allow_infinity=True)
int_elems = st.integers(-3, 3) | st.integers(-(2**62), 2**62)
sizes = st.integers(1, 50)


def float_vectors(n=sizes, elements=float_elems):
    return hnp.arrays(np.float64, n, elements=elements)


def identical(a, b) -> bool:
    """Equal values, NaN at the same places, the same sign on every zero."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    if not np.array_equal(a, b, equal_nan=a.dtype.kind == "f"):
        return False
    return a.dtype.kind != "f" or np.array_equal(np.signbit(a[a == 0]), np.signbit(b[b == 0]))


def assert_same(kernel, reference, *args):
    """The kernel equals the reference bit for bit, or raises the same error."""
    with np.errstate(all="ignore"):
        try:
            expected = reference(*args)
        except MixedAEError as e:
            with pytest.raises(type(e)):
                kernel(*args)
            return
        got = kernel(*args)
    assert type(got) is type(expected)
    assert identical(got, expected), (got, expected)


def assert_levels_match(v):
    inverse, counts = metrics._levels(v)
    _, ref_inverse, ref_counts = np.unique(v, return_inverse=True, return_counts=True)
    assert identical(inverse, ref_inverse)
    assert identical(counts, ref_counts)


class TestLevels:
    @settings(max_examples=400, deadline=None)
    @given(v=float_vectors())
    def test_floats_match_unique(self, v):
        assert_levels_match(v)

    @settings(max_examples=200, deadline=None)
    @given(v=hnp.arrays(np.int64, sizes, elements=int_elems))
    def test_ints_match_unique(self, v):
        assert_levels_match(v)

    @settings(max_examples=50, deadline=None)
    @given(v=hnp.arrays(hnp.integer_dtypes() | hnp.floating_dtypes() | hnp.boolean_dtypes(), sizes))
    def test_other_dtypes_match_unique(self, v):
        assert_levels_match(v)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), alphabet=st.integers(1, 900))
    def test_n_800(self, seed, alphabet):
        rng = np.random.default_rng(seed)
        v = rng.integers(0, alphabet, 800).astype(np.float64)
        v[rng.random(800) < 0.05] = np.nan
        v[v == 0.0] = rng.choice([0.0, -0.0], int(np.sum(v == 0.0)))
        assert_levels_match(v)
        assert_levels_match(rng.integers(0, alphabet, 800))

    @pytest.mark.parametrize(
        "v",
        [[np.nan], [np.nan, np.nan], [-0.0, 0.0, -0.0], [np.inf, np.nan, -np.inf, np.nan, np.inf], [7, 7, 7]],
    )
    def test_edge_cases(self, v):
        assert_levels_match(np.asarray(v))


class TestStatistics:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=sizes)
    def test_spearman(self, data, n):
        x = data.draw(float_vectors(n))
        y = data.draw(float_vectors(n))
        assert_same(metrics.spearman, unique_spearman, x, y)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 50))
    def test_spearman_on_small_alphabets(self, data, n):
        x = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, 2)))
        y = data.draw(hnp.arrays(np.float64, n, elements=st.sampled_from([0.0, -0.0, 0.5, 1.0])))
        assert_same(metrics.spearman, unique_spearman, x, y)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=sizes)
    def test_rank_auc(self, data, n):
        y = data.draw(hnp.arrays(np.bool_, n))
        scores = data.draw(float_vectors(n))
        assert_same(metrics.rank_auc, unique_rank_auc, y, scores)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=sizes)
    def test_eta_squared(self, data, n):
        x = data.draw(float_vectors(n, st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 0.5])))
        g = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, 4)))
        assert_same(metrics.eta_squared, unique_eta_squared, x, g)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=sizes)
    def test_eta_squared_special_values(self, data, n):
        x = data.draw(float_vectors(n))
        g = data.draw(float_vectors(n, st.sampled_from(SPECIAL)))
        assert_same(metrics.eta_squared, unique_eta_squared, x, g)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=sizes)
    def test_cramers_v(self, data, n):
        a = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, 4)))
        b = data.draw(hnp.arrays(np.int64, n, elements=st.integers(-2, 2)))
        assert_same(metrics.cramers_v, unique_cramers_v, a, b)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=sizes)
    def test_cramers_v_on_labels_and_floats(self, data, n):
        a = data.draw(hnp.arrays(np.dtype("<U2"), n, elements=st.sampled_from(["a", "b", "cc", ""])))
        b = data.draw(float_vectors(n, st.sampled_from(SPECIAL)))
        assert_same(metrics.cramers_v, unique_cramers_v, a, b)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), shape=hnp.array_shapes(min_dims=2, max_dims=3, max_side=5))
    def test_multidimensional_inputs(self, data, shape):
        # np.unique flattens, and so does the level helper
        x = data.draw(hnp.arrays(np.float64, shape, elements=st.sampled_from([0.0, 1.0, 2.5, np.nan])))
        g = data.draw(hnp.arrays(np.int64, shape, elements=st.integers(0, 2)))
        assert_same(metrics.spearman, unique_spearman, x, g)
        assert_same(metrics.cramers_v, unique_cramers_v, g, x)
        assert_same(metrics.eta_squared, unique_eta_squared, x, g)
        assert_same(metrics.rank_auc, unique_rank_auc, g > 0, x)

    @pytest.mark.parametrize("n", [1000, 20000])
    def test_spearman_large_n_heavy_ties(self, n):
        rng = np.random.default_rng(n)
        x = rng.integers(0, 4, n).astype(np.float64)
        y = np.round(rng.normal(size=n) + x, 1)  # about 100 distinct values
        assert_same(metrics.spearman, unique_spearman, x, y)
        assert_same(metrics.spearman, unique_spearman, x, rng.integers(0, 2, n))

    @pytest.mark.parametrize("n", [metrics._SMALL_N - 1, metrics._SMALL_N, metrics._SMALL_N + 1])
    def test_both_sides_of_the_small_input_cutoff(self, n):
        rng = np.random.default_rng(n)
        special = np.array(SPECIAL)[rng.integers(0, len(SPECIAL), n)]  # NaN, ±0.0, ±inf, ties
        normal = rng.normal(size=n)
        labels = np.array(["a", "b", "cc", ""])[rng.integers(0, 4, n)]
        groups = rng.integers(0, 3, n)
        assert metrics._small(special, labels) == (n < metrics._SMALL_N)
        for x, y in [(special, normal), (groups, special), (normal, normal[::-1])]:
            assert_same(metrics.spearman, unique_spearman, x, y)
        for a, b in [(labels, special), (labels, groups), (special, groups)]:
            assert_same(metrics.cramers_v, unique_cramers_v, a, b)
        for x, g in [(normal, labels), (normal, special), (special, groups)]:
            assert_same(metrics.eta_squared, unique_eta_squared, x, g)

    def test_unorderable_labels_take_the_numpy_path(self):
        # Python cannot order complex values, and .tolist() makes NaT None
        a = np.array([1j, 2j, 1j, 0j])
        b = np.array(["2020-01-01", "NaT", "2020-01-01", "NaT"], dtype="M8[D]")
        assert_same(metrics.cramers_v, unique_cramers_v, a, b)
        assert_same(metrics.eta_squared, unique_eta_squared, np.arange(4.0), b)

    @pytest.mark.parametrize("seed", range(5))
    def test_eta_squared_sums_in_memory_order(self, seed):
        # numpy reduces a Fortran-ordered x column by column and a reversed
        # view in index order; the plain-Python path must not reorder either
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(4, 6)) * 10.0 ** rng.integers(-8, 8, (4, 6))
        g = rng.integers(0, 3, (4, 6))
        assert_same(metrics.eta_squared, unique_eta_squared, np.asfortranarray(x), g)
        assert_same(metrics.eta_squared, unique_eta_squared, x.ravel()[::-1], g.ravel())

    def test_length_mismatch_raises_alike(self):
        for kernel, reference in [
            (metrics.spearman, unique_spearman),
            (metrics.cramers_v, unique_cramers_v),
            (metrics.eta_squared, unique_eta_squared),
            (metrics.rank_auc, unique_rank_auc),
        ]:
            assert_same(kernel, reference, np.zeros(3), np.zeros(4))
            assert_same(kernel, reference, np.zeros(0), np.zeros(0))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(0, 50))
    def test_confusion_counts(self, data, n):
        t = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, 2)))
        p = data.draw(hnp.arrays(np.float64, n, elements=st.sampled_from([0.0, -0.0, 1.0, 0.5])))
        c = metrics.confusion_counts(t, p)
        ref = masked_confusion_counts(t, p)
        assert (c.tp, c.tn, c.fp, c.fn) == ref
        assert all(type(v) is int for v in c)


class TestSilhouette:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 40), d=st.integers(1, 12))
    def test_matches_full_matrix(self, data, n, d):
        grid = st.sampled_from([0.0, -0.0, 1.0, -1.5, 3.0]) | st.floats(-1e3, 1e3)
        points = data.draw(hnp.arrays(np.float64, (n, d), elements=grid))
        labels = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, 3)))
        assert_same(metrics.silhouette, full_matrix_silhouette, points, labels)

    @pytest.mark.parametrize("n, d", [(700, 10), (1025, 4), (300, 50)])
    def test_matches_full_matrix_over_several_chunks(self, n, d):
        assert 2**22 // (n * d) < n  # the distance matrix is built in more than one chunk
        rng = np.random.default_rng(n * d)
        points = rng.normal(size=(n, d)) + rng.integers(0, 3, (n, 1)) * 4.0
        labels = rng.integers(0, 4, n)
        labels[:3] = 9  # a small cluster
        assert_same(metrics.silhouette, full_matrix_silhouette, points, labels)


    @pytest.mark.parametrize("d", [7, 8, 9, 16, 17, 128, 129, 294])
    def test_matches_full_matrix_across_the_sum_orders(self, d):
        # below 8, 8 to 128 and above 128 dimensions numpy sums differently;
        # 100 rows take four strips of the distance matrix
        rng = np.random.default_rng(d)
        points = rng.normal(size=(100, d)) * rng.lognormal(size=d) + rng.integers(0, 3, (100, 1))
        labels = rng.integers(0, 3, 100)
        assert_same(metrics.silhouette, full_matrix_silhouette, points, labels)

    @pytest.mark.parametrize(
        "n, d", [(700, 10), (1025, 4), (300, 50), *((100, d) for d in (7, 17, 129, 294)), (1200, 33)]
    )
    def test_single_gemm_sums_agree(self, n, d):
        # the strips add each point's cluster sums in another order than one
        # n x n x k product; on these shapes that moves the score by < 1e-14
        rng = np.random.default_rng(n * d)
        points = rng.normal(size=(n, d)) * rng.lognormal(size=d) + rng.integers(0, 3, (n, 1)) * 4.0
        labels = rng.integers(0, 4, n)
        strips, gemm = full_matrix_silhouette(points, labels), single_gemm_silhouette(points, labels)
        assert strips != 0.0 and abs(strips - gemm) <= 1e-14 * abs(gemm)

    @staticmethod
    def traced_peak(n, d):
        rng = np.random.default_rng(0)
        points, labels = rng.normal(size=(n, d)), rng.integers(0, 4, n)
        tracemalloc.start()
        try:
            metrics.silhouette(points, labels)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_below_two_distance_matrices(self):
        # no distance matrix is held (it would be 11.5 MB), nor a rows x n x d
        # block (up to 32 MB)
        assert self.traced_peak(1200, 33) < 3e6

    def test_strip_buffers_stay_small(self):
        # each 32 x n strip's running sums are built one at a time: at most a
        # few strips are held at once (2.34 MB with numpy 2.4)
        assert self.traced_peak(1200, 33) < 2.5e6

    def test_peak_memory_does_not_grow_with_n_squared(self):
        # the distance matrix alone would take 128 MB
        assert self.traced_peak(4000, 2) < 8e6


class TestPairwiseSum:
    @pytest.mark.parametrize("width", [*range(1, 301), 513])
    def test_matches_numpy_sum(self, width):
        rng = np.random.default_rng(width)
        a = rng.normal(size=(6, width)) * rng.lognormal(0.0, 4.0, size=(6, width))
        a[5] = rng.choice([-1.0, 1.0], width) * 1e308  # overflows in some orders only
        with np.errstate(over="ignore", invalid="ignore"):
            got = metrics._pairwise_sum(lambda k: a[:, k].copy(), 0, width)
            assert identical(got, np.sum(a, axis=-1))


class TestLogistic:
    @settings(max_examples=300, deadline=None)
    @given(z=hnp.arrays(np.float64, st.integers(0, 50), elements=float_elems | st.floats(-800, 800)))
    def test_sigmoid(self, z):
        with np.errstate(all="ignore"):
            assert identical(experiments._sigmoid(z), masked_sigmoid(z))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        d=st.integers(0, 6),
        scale=st.sampled_from([0.1, 1.0, 30.0]),
        steps=st.integers(1, 40),
    )
    def test_logistic_fit(self, seed, n, d, scale, steps):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d)) * scale
        y = rng.integers(0, 2, n).astype(np.float64)
        model = experiments.logistic_fit(X, y, steps=steps)
        coef, intercept = masked_logistic_fit(X, y, steps)
        assert identical(model.coef, coef)
        assert identical(model.intercept, intercept) and type(model.intercept) is float


class TestRidge:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        d=st.integers(0, 8),
        lam=st.sampled_from([1e-4, 1.0, 30.0]),
        constant=st.booleans(),
    )
    def test_diagonal_in_place_matches_the_identity_sum(self, seed, n, d, lam, constant):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d)) * rng.lognormal(0.0, 2.0, d)
        if constant and d:
            X[:, 0] = 3.0  # centres to a zero column
        y = rng.normal(size=n)
        x_mean = X.mean(axis=0)
        Xc = X - x_mean
        coef = np.linalg.solve(Xc.T @ Xc + lam * np.eye(d), Xc.T @ (y - y.mean()))
        model = experiments._ridge_in_place(X.copy(), y, lam)
        assert identical(model.coef, coef)
        assert identical(model.intercept, float(y.mean() - x_mean @ coef))


@st.composite
def loss_batches(draw, max_side=300):
    """(pred, target, weights): 0/1 categorical and [0, 1] numeric targets,
    predictions with exact-equal and signed-zero entries, unit or drawn weights."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b, p = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    is_cat = rng.random(p) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    target = np.where(is_cat, (rng.random((b, p)) < 0.2).astype(float), rng.random((b, p)))
    pred = rng.normal(0.5, 0.5, (b, p))
    equal = rng.random((b, p)) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    pred[equal] = target[equal]
    zeros = rng.random((b, p)) < draw(st.sampled_from([0.0, 0.2]))
    pred[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    target[zeros & (rng.random((b, p)) < 0.5)] = -0.0
    if draw(st.booleans()):
        weights = LossWeights.unit(p, is_cat)
    else:
        weights = LossWeights(rng.uniform(0.1, 30.0, p), rng.uniform(0.1, 30.0, p), is_cat)
    return pred, target, weights


def assert_loss_same(got, expected):
    assert type(got[0]) is float and identical(got[0], expected[0])
    assert identical(got[1], expected[1])


class TestWeightedMse:
    @settings(max_examples=150, deadline=None)
    @given(batch=loss_batches(), alpha=st.sampled_from([0.0, 0.3, 1.0]))
    def test_wrappers_match_frozen_losses(self, batch, alpha):
        pred, target, weights = batch
        before = pred.copy(), target.copy()
        assert_loss_same(mse_loss(pred, target), frozen_mse_loss(pred, target))
        assert_loss_same(
            balanced_mse_loss(pred, target, weights), frozen_balanced_mse_loss(pred, target, weights)
        )
        assert_loss_same(
            blended_loss(alpha, pred, target, weights),
            frozen_blended_loss(alpha, pred, target, weights),
        )
        assert identical(pred, before[0]) and identical(target, before[1])

    @settings(max_examples=100, deadline=None)
    @given(
        batch=loss_batches(),
        batch_size=st.integers(1, 300),
        alpha=st.sampled_from([None, 0.0, 0.3, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_weight_table_rows_in_place_match_frozen(self, batch, batch_size, alpha, seed):
        """A fit selects the weights of its whole training matrix once and
        each batch, the short last one included, gathers its rows."""
        pred, target, weights = batch
        table = weights.select(target)
        order = np.random.default_rng(seed).permutation(len(target))
        for start in range(0, len(target), batch_size):
            idx = order[start : start + batch_size]
            buf = pred[idx]
            value, grad = _weighted_mse(buf, target[idx], table[idx], alpha, out=buf)
            assert grad is buf
            if alpha is None:
                expected = frozen_balanced_mse_loss(pred[idx], target[idx], weights)
            else:
                expected = frozen_blended_loss(alpha, pred[idx], target[idx], weights)
            assert_loss_same((value, grad), expected)

    @settings(max_examples=60, deadline=None)
    @given(
        batch=loss_batches(max_side=40),
        loss=st.sampled_from(["standard", "balanced", "blended:0.3"]),
        rows=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_vae_loss_into_head_buffers_matches_frozen(self, batch, loss, rows, seed):
        """With LossWeights or a weight table's rows, into fresh arrays or
        over the prediction buffers as the training loop does."""
        x_pred, x_true, weights = batch
        rng = np.random.default_rng(seed)
        b = len(x_true)
        y_pred, y_true = rng.random((2, b, 1))
        mu, logvar = rng.normal(size=(2, b, 3))
        spec = parse_loss(loss)
        expected = frozen_vae_loss(x_pred, x_true, y_pred, y_true, mu, logvar, weights, spec)
        w = weights.select(x_true) if rows else weights
        gx_buf, gy_buf = x_pred.copy(), y_pred.copy()
        x_pred = x_pred.copy()  # the public call must leave its inputs alone
        for got in (
            vae_loss(x_pred, x_true, y_pred, y_true, mu, logvar, w, spec),
            vae_loss(gx_buf, x_true, gy_buf, y_true, mu, logvar, w, spec, out=(gx_buf, gy_buf)),
        ):
            assert type(got[0]) is float and identical(got[0], expected[0])
            assert all(identical(g, ref) for g, ref in zip(got[1], expected[1]))
        assert identical(gx_buf, expected[1][0]) and identical(x_pred, batch[0])
