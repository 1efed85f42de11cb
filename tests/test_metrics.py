"""Metric tests against hand values, brute-force oracles, and scipy."""

import numpy as np
import pytest
import scipy.stats

from mixedae import errors
from mixedae.metrics import (
    balanced_accuracy,
    classification_scores,
    cramers_v,
    eta_squared,
    mc_distance,
    mixed_correlation,
    msem,
    prediction_error,
    rank_auc,
    silhouette,
    spearman,
)
from mixedae.rng import make_rng
from mixedae.tabular import Column, Dataset, Schema, fit_encoder, generate_synthetic


from oracles import brute_silhouette

class TestBalancedAccuracy:
    def test_perfect(self):
        t = np.array([0, 1, 1, 0])
        assert balanced_accuracy(t, t) == 1.0

    def test_all_zero_predictions(self):
        t = np.array([0, 1, 1, 0, 0])
        assert balanced_accuracy(t, np.zeros(5)) == 0.5

    def test_hand_value(self):
        # TP=1, FN=1, TN=8, FP=0
        t = np.array([1, 1] + [0] * 8)
        p = np.array([1, 0] + [0] * 8)
        assert balanced_accuracy(t, p) == 0.75

    def test_single_class_truth(self):
        with pytest.raises(errors.SingleClassTruth):
            balanced_accuracy(np.ones(4), np.ones(4))


class TestPredictionError:
    def test_perfect(self):
        assert prediction_error(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == (0, 0, 0)

    def test_unit_errors(self):
        assert prediction_error(np.zeros(2), np.ones(2)) == (1, 1, 1)

    def test_mixed(self):
        err = prediction_error(np.array([0.0, 2.0]), np.array([0.0, 0.0]))
        assert err.mse == 2 and err.mae == 1 and err.rmse == pytest.approx(np.sqrt(2))


class TestClassificationScores:
    def test_perfect(self):
        t = np.array([0, 1, 1, 0])
        s = classification_scores(t, t)
        assert (s.f1, s.balanced_accuracy, s.accuracy) == (1, 1, 1)

    def test_hand_value(self):
        # TP=2, FP=1, FN=1, TN=6
        t = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
        p = np.array([1, 1, 0, 1, 0, 0, 0, 0, 0, 0])
        s = classification_scores(t, p)
        assert s.f1 == pytest.approx(2 * 2 / (4 + 1 + 1))

    def test_undefined_f1_flagged(self):
        t = np.array([1, 0, 0, 1])
        s = classification_scores(t, np.zeros(4))
        assert s.f1 == 0.0 and not s.f1_defined


class TestSpearman:
    def test_identity(self):
        x = np.array([3.0, 1.0, 4.0, 1.5])
        assert spearman(x, x) == pytest.approx(1.0)

    def test_reversed(self):
        x = np.array([1.0, 2.0, 5.0, 9.0])
        assert spearman(x, -x) == pytest.approx(-1.0)

    def test_hand_value(self):
        assert spearman(np.array([1, 2, 3, 4.0]), np.array([1, 3, 2, 4.0])) == pytest.approx(0.8)

    def test_monotone_invariance(self):
        rng = make_rng(0)
        x, y = rng.random(30), rng.random(30)
        base = spearman(x, y)
        assert spearman(np.exp(3 * x), y) == pytest.approx(base, abs=1e-12)
        assert spearman(x, y**3) == pytest.approx(base, abs=1e-12)

    def test_zero_variance(self):
        with pytest.raises(errors.ZeroVariance):
            spearman(np.ones(5), np.arange(5.0))

    def test_against_scipy(self):
        rng = make_rng(1)
        for _ in range(50):
            x = rng.integers(0, 5, size=12).astype(float)
            y = rng.integers(0, 5, size=12).astype(float)
            if np.unique(x).size < 2 or np.unique(y).size < 2:
                continue
            ref = scipy.stats.spearmanr(x, y).statistic
            assert spearman(x, y) == pytest.approx(ref, abs=1e-12)


class TestCramersV:
    def test_perfect_association(self):
        a = np.array([0, 1, 0, 1, 2, 2])
        assert cramers_v(a, a) == pytest.approx(1.0)

    def test_exact_independence(self):
        a = np.repeat([0, 0, 1, 1], 25)
        b = np.tile(np.repeat([0, 1], 25), 2)
        assert cramers_v(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_tables_ordering(self):
        a1 = np.repeat([0, 1], 10)
        b1 = np.repeat([0, 1], 10)
        a2 = np.repeat([0, 1], 10)
        b2 = np.concatenate([np.zeros(9), [1], [0], np.ones(9)]).astype(int)
        v1, v2 = cramers_v(a1, b1), cramers_v(a2, b2)
        assert v1 == pytest.approx(1.0)
        assert v1 > v2

    def test_relabel_invariance(self):
        rng = make_rng(2)
        a = rng.integers(0, 3, size=40)
        b = rng.integers(0, 2, size=40)
        relabeled = np.array([10, 5, 7])[a]
        assert cramers_v(relabeled, b) == pytest.approx(cramers_v(a, b), abs=1e-14)

    def test_degenerate_table(self):
        with pytest.raises(errors.DegenerateTable):
            cramers_v(np.zeros(5, dtype=int), np.array([0, 1, 0, 1, 0]))

    def test_against_scipy(self):
        rng = make_rng(3)
        for _ in range(30):
            a = rng.integers(0, 3, size=25)
            b = rng.integers(0, 3, size=25)
            if np.unique(a).size < 2 or np.unique(b).size < 2:
                continue
            table = np.zeros((np.unique(a).size, np.unique(b).size))
            _, ai = np.unique(a, return_inverse=True)
            _, bi = np.unique(b, return_inverse=True)
            np.add.at(table, (ai, bi), 1)
            chi2 = scipy.stats.chi2_contingency(table, correction=False).statistic
            ref = np.sqrt(chi2 / (25 * (min(table.shape) - 1)))
            assert cramers_v(a, b) == pytest.approx(ref, abs=1e-12)


class TestEtaSquared:
    def test_pure_group_effect(self):
        x = np.array([1.0, 1.0, 5.0, 5.0])
        g = np.array([0, 0, 1, 1])
        assert eta_squared(x, g) == pytest.approx(1.0)

    def test_no_group_effect(self):
        x = np.array([1.0, 3.0, 1.0, 3.0])
        g = np.array([0, 0, 1, 1])
        assert eta_squared(x, g) == pytest.approx(0.0)

    def test_hand_anova(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        g = np.array([0, 0, 1, 1])
        assert eta_squared(x, g) == pytest.approx(0.8)

    def test_relabel_invariance(self):
        rng = make_rng(4)
        x = rng.random(30)
        g = rng.integers(0, 3, size=30)
        assert eta_squared(x, np.array(["a", "b", "c"])[g]) == pytest.approx(
            eta_squared(x, g), abs=1e-14
        )

    def test_errors(self):
        with pytest.raises(errors.EmptyGroup):
            eta_squared(np.arange(4.0), np.zeros(4, dtype=int))
        # constant columns whose mean does not round back to the value, on
        # the plain-Python path (under 24 values) and on the numpy path
        for x, g in [
            (np.ones(4), [0, 0, 1, 1]),
            (np.full(3, 0.1), [0, 1, 1]),
            (np.full(7, 0.7), [0] * 6 + [1]),
            (np.full(30, 0.7), [0, 1, 2] * 10),
        ]:
            with pytest.raises(errors.ZeroVariance):
                eta_squared(x, np.array(g))


class TestMixedCorrelation:
    def sample(self, n=200, seed=5):
        return generate_synthetic("balanced", n, seed=seed)

    def test_diagonal_and_symmetry(self):
        m = mixed_correlation(self.sample())
        assert np.allclose(np.diag(m.values), 1.0)
        assert np.array_equal(m.values, m.values.T)

    def test_matches_per_pair_operations(self):
        d = self.sample()
        m = mixed_correlation(d)
        names = d.schema.names
        i, j = names.index("X1"), names.index("X2")
        assert m.values[i, j] == spearman(d.column("X1"), d.column("X2"))
        i, j = names.index("Q1"), names.index("Q3")
        assert m.values[i, j] == cramers_v(d.column("Q1"), d.column("Q3"))
        i, j = names.index("X1"), names.index("Q1")
        assert m.values[i, j] == eta_squared(d.column("X1"), d.column("Q1"))

    def test_constant_column_has_zero_association(self):
        d = self.sample()
        names = d.schema.names
        cols = dict(d.columns)
        cols["Q1"] = np.zeros_like(cols["Q1"])  # one observed level
        cols["X1"] = np.full_like(cols["X1"], 0.1)  # one value; its mean is not exactly 0.1
        m = mixed_correlation(Dataset(d.schema, cols))
        full = mixed_correlation(d)
        const = [names.index("Q1"), names.index("X1")]
        for i in const:
            assert m.values[i, i] == 1.0
            assert np.all(np.delete(m.values[i], i) == 0.0)
            assert np.all(np.delete(m.values[:, i], i) == 0.0)
        rest = np.ix_(*[[k for k in range(len(names)) if k not in const]] * 2)
        assert np.array_equal(m.values[rest], full.values[rest])

    def test_pairwise_statistics_still_raise_on_a_constant_column(self):
        d = self.sample()
        q = np.zeros_like(d.column("Q1"))
        with pytest.raises(errors.EmptyGroup):
            eta_squared(d.column("X2"), q)
        with pytest.raises(errors.DegenerateTable):
            cramers_v(q, d.column("Q2"))
        with pytest.raises(errors.ZeroVariance):
            spearman(np.full(d.n, 0.1), d.column("X2"))

    def test_entry_ranges(self):
        d = self.sample()
        m = mixed_correlation(d)
        numeric = [not c.is_categorical for c in d.schema.columns]
        for i in range(m.p):
            for j in range(m.p):
                if numeric[i] and numeric[j]:  # Spearman
                    assert -1.0 <= m.values[i, j] <= 1.0
                else:
                    assert 0.0 <= m.values[i, j] <= 1.0


class TestMcDistance:
    def test_zero_on_identity(self):
        d = generate_synthetic("imbalanced", 150, seed=6)
        assert mc_distance(d, d) == 0.0

    def test_single_pair_difference(self):
        schema = Schema((Column("a"), Column("b")))
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        d1 = Dataset(schema, {"a": x, "b": np.array([2.0, 1.0, 3.0, 5.0, 4.0])})
        d2 = Dataset(schema, {"a": x, "b": np.array([3.0, 2.0, 4.0, 1.0, 5.0])})
        assert spearman(d1.column("a"), d1.column("b")) == pytest.approx(0.8)
        assert spearman(d2.column("a"), d2.column("b")) == pytest.approx(0.3)
        assert mc_distance(d1, d2) == pytest.approx(0.5)

    def test_schema_mismatch(self):
        d1 = generate_synthetic("imbalanced", 50, seed=0)
        d2 = Dataset(Schema((Column("a"),)), {"a": np.arange(50.0)})
        with pytest.raises(errors.SchemaMismatch):
            mc_distance(d1, d2)

    def test_permutation_of_uncorrelated_column(self):
        rng = make_rng(7)
        schema = Schema((Column("a"), Column("b")))
        a = rng.random(4000)
        b = rng.random(4000)
        d1 = Dataset(schema, {"a": a, "b": b})
        d2 = Dataset(schema, {"a": a, "b": rng.permutation(b)})
        assert mc_distance(d1, d2) < 0.1  # one pair, both near zero


class TestMsem:
    def test_zero_on_identity(self):
        d = generate_synthetic("imbalanced", 200, seed=8)
        features = Dataset(d.schema, dict(d.columns))
        assert msem(features, features) == 0.0

    def test_all_numeric_reduces_to_scaled_mse(self):
        schema = Schema((Column("a"), Column("b")))
        d1 = Dataset(schema, {"a": np.array([0.0, 10.0]), "b": np.array([0.0, 2.0])})
        d2 = Dataset(schema, {"a": np.array([5.0, 10.0]), "b": np.array([0.0, 1.0])})
        # scaled errors: a -> (0.5, 0); b -> (0, 0.5)
        expected = 0.5 * (np.mean([0.25, 0.0]) + np.mean([0.0, 0.25]))
        assert msem(d1, d2) == pytest.approx(expected)

    def test_constant_majority_variable_scores_half(self):
        schema = Schema((Column("q", ("x", "y")),))
        d1 = Dataset(schema, {"q": np.array([0, 0, 0, 1])})
        d2 = Dataset(schema, {"q": np.zeros(4, dtype=int)})
        assert msem(d1, d2) == pytest.approx(0.5)

    def test_schema_mismatch(self):
        d1 = generate_synthetic("imbalanced", 40, seed=1)
        d2 = generate_synthetic("imbalanced", 60, seed=1)
        with pytest.raises(errors.SchemaMismatch):
            msem(d1, d2)

    def test_category_order_permutation_invariance(self):
        rng = make_rng(9)
        codes_t = rng.integers(0, 3, size=60)
        codes_p = rng.integers(0, 3, size=60)
        s1 = Schema((Column("q", ("a", "b", "c")),))
        s2 = Schema((Column("q", ("c", "a", "b")),))
        remap = np.array([1, 2, 0])  # position of each s1 category in s2
        d1t = Dataset(s1, {"q": codes_t})
        d1p = Dataset(s1, {"q": codes_p})
        d2t = Dataset(s2, {"q": remap[codes_t]})
        d2p = Dataset(s2, {"q": remap[codes_p]})
        assert msem(d1t, d1p) == pytest.approx(msem(d2t, d2p), abs=1e-14)

    def test_scaling_uses_encoder_ranges(self):
        d = generate_synthetic("imbalanced", 2000, seed=3)
        features = Dataset(d.schema, dict(d.columns))
        enc = fit_encoder(features)
        assert msem(features, features, enc) == 0.0


class TestSilhouette:
    def test_two_far_blobs(self):
        rng = make_rng(10)
        blob1 = rng.random((10, 3)) * 0.1
        blob2 = rng.random((10, 3)) * 0.1 + 100.0
        points = np.vstack([blob1, blob2])
        labels = np.array([0] * 10 + [1] * 10)
        score = silhouette(points, labels)
        assert score > 0.9
        assert score == pytest.approx(brute_silhouette(points, labels), abs=1e-10)

    def test_identical_points_score_zero(self):
        points = np.ones((6, 2))
        labels = np.array([0, 0, 0, 1, 1, 1])
        assert silhouette(points, labels) == 0.0

    def test_random_labels_near_zero(self):
        rng = make_rng(11)
        points = rng.random((200, 4))
        labels = rng.integers(0, 3, size=200)
        assert abs(silhouette(points, labels)) < 0.2

    def test_single_cluster_error(self):
        with pytest.raises(errors.SingleCluster):
            silhouette(np.random.default_rng(0).random((5, 2)), np.zeros(5, dtype=int))

    def test_singletons_score_zero(self):
        points = np.array([[0.0, 0], [1, 0], [2, 0], [50, 0]])
        labels = np.array([0, 0, 0, 1])
        assert silhouette(points, labels) == pytest.approx(
            brute_silhouette(points, labels), abs=1e-12
        )

    def test_against_brute_force_random(self):
        rng = make_rng(12)
        for _ in range(20):
            n = int(rng.integers(4, 12))
            points = rng.random((n, 2))
            labels = rng.integers(0, 3, size=n)
            if np.unique(labels).size < 2:
                continue
            assert silhouette(points, labels) == pytest.approx(
                brute_silhouette(points, labels), abs=1e-10
            )


class TestRankAuc:
    def test_perfect_ranking(self):
        t = np.array([0, 0, 1, 1])
        assert rank_auc(t, np.array([0.1, 0.2, 0.8, 0.9])) == 1.0

    def test_reversed_ranking(self):
        t = np.array([0, 0, 1, 1])
        assert rank_auc(t, np.array([0.9, 0.8, 0.2, 0.1])) == 0.0

    def test_constant_scores(self):
        t = np.array([0, 1, 0, 1])
        assert rank_auc(t, np.ones(4)) == 0.5

    def test_against_brute_force(self):
        rng = make_rng(13)
        for _ in range(20):
            t = rng.integers(0, 2, size=15)
            if t.sum() in (0, 15):
                continue
            s = rng.random(15)
            pairs = [
                0.5 if si == sj else float(si > sj)
                for si, ti in zip(s, t) if ti == 1
                for sj, tj in zip(s, t) if tj == 0
            ]
            assert rank_auc(t, s) == pytest.approx(np.mean(pairs), abs=1e-12)
