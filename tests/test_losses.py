"""Loss function tests: formulas, reduction, bounds, and identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedae import errors
from mixedae.losses import (
    LossWeights,
    balanced_mse_loss,
    blended_loss,
    compute_balance_weights,
    cross_entropy_loss,
    mse_loss,
)
from mixedae.rng import make_rng
from mixedae.tabular import Column, Dataset, EncoderState, Schema, fit_encoder


def categorical_encoder(counts, extra_numeric=False):
    """EncoderState for one categorical variable with the given counts."""
    n = int(sum(counts))
    cats = tuple(f"c{k}" for k in range(len(counts)))
    cols = [Column("q", cats)]
    if extra_numeric:
        cols.insert(0, Column("x"))
    schema = Schema(tuple(cols))
    ranges = {"x": (0.0, 1.0)} if extra_numeric else {}
    return EncoderState(schema, n, ranges, {"q": np.asarray(counts)})


def one_hot_targets(counts, rng=None):
    """n x p_q one-hot matrix realizing the given counts, shuffled."""
    codes = np.repeat(np.arange(len(counts)), counts)
    if rng is not None:
        codes = rng.permutation(codes)
    out = np.zeros((len(codes), len(counts)))
    out[np.arange(len(codes)), codes] = 1.0
    return out


class TestComputeBalanceWeights:
    def test_formula(self):
        enc = categorical_encoder([10, 90])
        w = compute_balance_weights(enc)
        assert w.w_one[0] == pytest.approx(100 / (2 * 2 * 10))
        assert w.w_zero[0] == pytest.approx(100 / (2 * 2 * 90))

    def test_balanced_binary_gives_half(self):
        enc = categorical_encoder([50, 50])
        w = compute_balance_weights(enc)
        assert np.allclose(w.w_one, 0.5)
        assert np.allclose(w.w_zero, 0.5)

    def test_numeric_features_unit(self):
        enc = categorical_encoder([30, 70], extra_numeric=True)
        w = compute_balance_weights(enc)
        assert w.w_one[0] == 1.0 and w.w_zero[0] == 1.0
        assert not w.is_categorical[0]

    def test_degenerate_category(self):
        enc = categorical_encoder([100, 0])
        with pytest.raises(errors.DegenerateCategory):
            compute_balance_weights(enc)

    def test_mass_normalization(self):
        # sum over categories of w1*n_kq + w0*(n - n_kq) equals n exactly
        rng = make_rng(3)
        for _ in range(50):
            p_q = int(rng.integers(2, 7))
            counts = rng.integers(1, 30, size=p_q)
            enc = categorical_encoder(counts)
            w = compute_balance_weights(enc)
            n = enc.n
            mass = sum(
                w.w_one[j] * counts[j] + w.w_zero[j] * (n - counts[j])
                for j in range(p_q)
            )
            assert mass == pytest.approx(n, rel=1e-12)


class TestMseLoss:
    def test_zero_at_perfect(self):
        x = make_rng(0).random((4, 5))
        value, grad = mse_loss(x, x)
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_arithmetic(self):
        value, _ = mse_loss(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]))
        assert value == 0.5

    def test_shape_error(self):
        with pytest.raises(errors.ShapeError):
            mse_loss(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_binary_mse_is_one_minus_accuracy(self):
        rng = make_rng(1)
        for _ in range(100):
            n = int(rng.integers(1, 64))
            t = (rng.random(n) < 0.5).astype(float)
            p = (rng.random(n) < 0.5).astype(float)
            column_mse = float(np.mean((t - p) ** 2))
            accuracy = float(np.mean(t == p))
            assert abs(column_mse - (1.0 - accuracy)) <= 1e-12


class TestBalancedMseLoss:
    def test_unit_weights_reduce_to_mse_bitwise(self):
        rng = make_rng(2)
        pred = rng.random((6, 7))
        target = (rng.random((6, 7)) < 0.4).astype(float)
        w = LossWeights.unit(7, np.ones(7, dtype=bool))
        v1, g1 = mse_loss(pred, target)
        v2, g2 = balanced_mse_loss(pred, target, w)
        assert v1 == v2
        assert np.array_equal(g1, g2)

    def test_zero_at_perfect(self):
        enc = categorical_encoder([3, 5])
        w = compute_balance_weights(enc)
        t = one_hot_targets([3, 5])
        value, grad = balanced_mse_loss(t, t, w)
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_all_zero_predictions_block_sse(self):
        # one categorical variable, p_q = 2, counts (1, 3): predicting zero
        # everywhere leaves exactly the n/(2 p_q) mass of each target=1 sum,
        # so the weighted block SSE is n/2. Predicting everything wrong
        # (the complement) doubles it to the bound n.
        counts = [1, 3]
        n = 4
        enc = categorical_encoder(counts)
        w = compute_balance_weights(enc)
        t = one_hot_targets(counts)
        weights = np.where(t == 1.0, w.w_one, w.w_zero)
        sse_zero = float(np.sum(weights * (t - 0.0) ** 2))
        assert sse_zero == pytest.approx(n / 2)
        sse_flip = float(np.sum(weights * (t - (1.0 - t)) ** 2))
        assert sse_flip == pytest.approx(n)

    def test_non_binary_target(self):
        enc = categorical_encoder([2, 2])
        w = compute_balance_weights(enc)
        with pytest.raises(errors.NonBinaryTarget):
            balanced_mse_loss(np.zeros((1, 2)), np.array([[0.5, 0.5]]), w)

    def test_per_modality_bounds(self):
        # weighted target=1 and target=0 sums stay below n/2; variable total
        # stays below n, for predictions in [0, 1]
        rng = make_rng(4)
        for _ in range(100):
            p_q = int(rng.integers(2, 6))
            counts = rng.integers(1, 40, size=p_q)
            n = int(counts.sum())
            enc = categorical_encoder(counts)
            w = compute_balance_weights(enc)
            t = one_hot_targets(counts, rng)
            pred = rng.random(t.shape)
            e2 = (t - pred) ** 2
            total = 0.0
            for j in range(p_q):
                ones = float(w.w_one[j] * e2[t[:, j] == 1.0, j].sum())
                zeros = float(w.w_zero[j] * e2[t[:, j] == 0.0, j].sum())
                assert ones <= n / 2 + 1e-9
                assert zeros <= n / 2 + 1e-9
                total += ones + zeros
            assert total <= n + 1e-9

    def test_hard_prediction_terms_match_sensitivity_specificity(self):
        # per modality, the normalized target=1 sum is the miss rate on
        # actual positives (1 - sensitivity) and the target=0 sum is the
        # false-alarm rate (1 - specificity); their mean is 1 - BalAcc
        rng = make_rng(5)
        counts = [6, 14]
        n = 20
        t = one_hot_targets(counts, rng)
        pred = one_hot_targets([10, 10], rng)
        for j in range(2):
            tj, pj = t[:, j], pred[:, j]
            e2 = (tj - pj) ** 2
            n_k = int(tj.sum())
            term_one = e2[tj == 1.0].sum() / n_k
            term_zero = e2[tj == 0.0].sum() / (n - n_k)
            sens = np.sum((tj == 1) & (pj == 1)) / n_k
            spec = np.sum((tj == 0) & (pj == 0)) / (n - n_k)
            assert term_one == pytest.approx(1.0 - sens)
            assert term_zero == pytest.approx(1.0 - spec)
            balacc = 0.5 * (sens + spec)
            assert 0.5 * (term_one + term_zero) == pytest.approx(1.0 - balacc)

    def test_double_error_per_variable(self):
        # one-hot valid prediction and target rows disagree in exactly 0 or 2
        # encoded entries of a variable
        rng = make_rng(6)
        t = one_hot_targets([5, 7, 8], rng)
        p = one_hot_targets([8, 7, 5], rng)
        row_sse = ((t - p) ** 2).sum(axis=1)
        assert set(np.unique(row_sse)) <= {0.0, 2.0}

    def test_numeric_categorical_balance(self):
        # scaled numeric SSE and weighted categorical SSE share the bound n
        rng = make_rng(7)
        counts = [2, 8, 10]
        n = 20
        enc = categorical_encoder(counts)
        w = compute_balance_weights(enc)
        numeric_t = rng.random(n)
        numeric_p = rng.random(n)
        assert np.sum((numeric_t - numeric_p) ** 2) <= n
        t = one_hot_targets(counts, rng)
        pred = rng.random(t.shape)
        weights = np.where(t == 1.0, w.w_one, w.w_zero)
        assert np.sum(weights * (t - pred) ** 2) <= n + 1e-9


class TestBlendedLoss:
    def setup_method(self):
        rng = make_rng(8)
        self.enc = categorical_encoder([4, 6])
        self.w = compute_balance_weights(self.enc)
        self.t = one_hot_targets([4, 6], rng)
        self.p = rng.random(self.t.shape)

    def test_alpha_one_is_mse(self):
        v, g = blended_loss(1.0, self.p, self.t, self.w)
        v2, g2 = mse_loss(self.p, self.t)
        assert v == v2 and np.array_equal(g, g2)

    def test_alpha_zero_is_balanced(self):
        v, g = blended_loss(0.0, self.p, self.t, self.w)
        v2, g2 = balanced_mse_loss(self.p, self.t, self.w)
        assert v == v2 and np.array_equal(g, g2)

    def test_alpha_half_is_mean(self):
        v, _ = blended_loss(0.5, self.p, self.t, self.w)
        v1, _ = mse_loss(self.p, self.t)
        v2, _ = balanced_mse_loss(self.p, self.t, self.w)
        assert v == pytest.approx((v1 + v2) / 2, rel=1e-15)

    def test_alpha_out_of_range(self):
        with pytest.raises(errors.AlphaOutOfRange):
            blended_loss(1.5, self.p, self.t, self.w)


class TestMissingWeights:
    """A weighted loss called without its LossWeights raises a ConfigError
    that names them, not an AttributeError on None."""

    x = np.eye(3)

    def test_balanced(self):
        with pytest.raises(errors.ConfigError, match="LossWeights"):
            balanced_mse_loss(self.x, self.x, None)

    def test_blended(self):
        with pytest.raises(errors.ConfigError, match="LossWeights"):
            blended_loss(0.3, self.x, self.x, None)


class TestCrossEntropyLoss:
    def test_uniform_logits(self):
        # equal logits over 4 categories: CE = ln 4 per row and variable
        t = np.zeros((3, 4))
        t[:, 2] = 1.0
        value, _ = cross_entropy_loss(np.zeros((3, 4)), t, [np.arange(4)])
        assert value == pytest.approx(np.log(4.0), rel=1e-12)

    def test_confident_logit_drives_ce_to_zero(self):
        t = np.array([[1.0, 0.0]])
        logits = np.array([[20.0, 0.0]])
        value, _ = cross_entropy_loss(logits, t, [np.arange(2)])
        assert value < 1e-8

    def test_numeric_block_is_squared_error(self):
        pred = np.array([[0.5, 2.0]])
        target = np.array([[0.0, 1.0]])
        value, grad = cross_entropy_loss(pred, target, [])
        assert value == pytest.approx((0.25 + 1.0) / 2)
        assert np.allclose(grad, 2 * (pred - target) / 2)

    def test_gradient_matches_finite_differences(self):
        rng = make_rng(9)
        groups = [np.array([0, 1, 2]), np.array([5, 6])]
        for _ in range(5):
            pred = rng.random((3, 7)) * 2 - 1
            target = np.zeros((3, 7))
            target[:, 3] = rng.random(3)
            target[:, 4] = rng.random(3)
            for g in groups:
                target[np.arange(3), g[rng.integers(0, len(g), size=3)]] = 1.0
            _, grad = cross_entropy_loss(pred, target, groups)
            h = 1e-6
            fd = np.zeros_like(pred)
            for i in range(pred.shape[0]):
                for j in range(pred.shape[1]):
                    pp = pred.copy()
                    pp[i, j] += h
                    vp = cross_entropy_loss(pp, target, groups)[0]
                    pp[i, j] -= 2 * h
                    vm = cross_entropy_loss(pp, target, groups)[0]
                    fd[i, j] = (vp - vm) / (2 * h)
            err = np.abs(fd - grad) / np.maximum(1e-4, np.abs(fd) + np.abs(grad))
            assert err.max() < 1e-4


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), b=st.integers(1, 6), p=st.integers(1, 6))
def test_losses_nonnegative_and_zero_at_target(seed, b, p):
    rng = np.random.default_rng(seed)
    pred = rng.random((b, p))
    target = (rng.random((b, p)) < 0.5).astype(float)
    w = LossWeights.unit(p)
    for value, grad in (
        mse_loss(pred, target),
        balanced_mse_loss(pred, target, w),
        blended_loss(0.3, pred, target, w),
    ):
        assert value >= 0.0
    v0, g0 = balanced_mse_loss(target, target, w)
    assert v0 == 0.0 and np.all(g0 == 0.0)


def test_weights_from_fitted_encoder():
    # end-to-end: counts from a real dataset drive the weights
    schema = Schema((Column("x"), Column("q", ("a", "b", "c"))))
    d = Dataset(schema, {"x": np.linspace(0, 1, 12), "q": [0] * 6 + [1] * 4 + [2] * 2})
    w = compute_balance_weights(fit_encoder(d))
    n, p_q = 12, 3
    assert w.w_one[1] == pytest.approx(n / (2 * p_q * 6))
    assert w.w_one[3] == pytest.approx(n / (2 * p_q * 2))
    assert w.w_zero[2] == pytest.approx(n / (2 * p_q * 8))


class TestSelect:
    @staticmethod
    def wide_targets(n=1800, numerics=6, p_q=24, blocks=12, seed=0):
        """An n x (numerics + blocks * p_q) encoded matrix, the width of the
        wide benchmark table (294), and its unit weights."""
        rng = make_rng(seed)
        one_hot = np.zeros((n, blocks * p_q))
        codes = rng.integers(0, p_q, size=(n, blocks)) + p_q * np.arange(blocks)
        one_hot[np.arange(n)[:, None], codes] = 1.0
        target = np.hstack([rng.random((n, numerics)), one_hot])
        return target, LossWeights.unit(target.shape[1], np.arange(target.shape[1]) >= numerics)

    def test_peak_memory_holds_no_float_copy(self):
        import tracemalloc

        target, w = self.wide_targets()
        tracemalloc.start()
        try:
            table = w.select(target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the table itself (4.2 MB) and boolean masks; a float copy of the
        # categorical columns would add 4.1 MB
        assert peak < 1.35 * table.nbytes

    @pytest.mark.parametrize("bad", [0.5, np.nan, -1.0, 2.0])
    def test_non_binary_categorical_entry_raises(self, bad):
        target, w = self.wide_targets(n=40)
        target[17, 100] = bad
        with pytest.raises(errors.NonBinaryTarget):
            w.select(target)

    def test_numeric_entries_need_not_be_binary(self):
        target, w = self.wide_targets(n=40)
        target[:, :6] = np.linspace(-3.0, 7.5, 40 * 6).reshape(40, 6)
        assert np.array_equal(w.select(target), np.where(target == 1.0, w.w_one, w.w_zero))
