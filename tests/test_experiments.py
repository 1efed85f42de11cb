"""Proxy predictor, k-means, and experiment-harness tests."""

import tracemalloc

import numpy as np
import pytest

from mixedae import errors, experiments, tabular
from mixedae.experiments import (
    BASELINE,
    DataSource,
    ExperimentConfig,
    LogisticModel,
    kmeans,
    load_report_csv,
    logistic_fit,
    ridge_fit,
    run_experiment,
    vae_experiment,
)
from mixedae.models import VAEConfig
from mixedae.rng import derive_seed, make_rng


class TestRidge:
    def test_exact_linear_fit(self):
        rng = make_rng(0)
        X = rng.random((20, 3))
        w = np.array([2.0, -1.0, 0.5])
        y = X @ w + 4.0
        model = ridge_fit(X, y, lam=0.0)
        assert np.max(np.abs(model.predict(X) - y)) < 1e-8

    def test_shrinkage_limit(self):
        rng = make_rng(1)
        X = rng.random((30, 2))
        y = rng.random(30)
        model = ridge_fit(X, y, lam=1e12)
        assert np.max(np.abs(model.coef)) < 1e-9
        assert model.intercept == pytest.approx(y.mean(), rel=1e-9)

    def test_matches_normal_equations(self):
        rng = make_rng(2)
        for trial in range(10):
            X = rng.random((5, 3))
            y = rng.random(5)
            lam = 0.1
            model = ridge_fit(X, y, lam)
            Xc = X - X.mean(axis=0)
            yc = y - y.mean()
            ref = np.linalg.pinv(Xc.T @ Xc + lam * np.eye(3)) @ Xc.T @ yc
            assert np.allclose(model.coef, ref, atol=1e-10)


class TestLogistic:
    def test_separable_data(self):
        X = np.array([[-2.0], [-1.5], [-1.0], [1.0], [1.5], [2.0]])
        y = np.array([0.0, 0, 0, 1, 1, 1])
        model = logistic_fit(X, y)
        assert np.array_equal(model.predict(X), y.astype(int))

    def test_zero_features_give_base_rate(self):
        y = np.array([1.0, 0, 0, 0, 1, 0, 0, 0, 0, 0])
        model = logistic_fit(np.zeros((10, 0)), y)
        p = model.predict_proba(np.zeros((1, 0)))[0]
        assert p == pytest.approx(0.2, abs=1e-3)

    def test_gradient_formula_matches_finite_differences(self):
        # the loss being descended: mean log-loss + (lam/2)|coef|^2
        rng = make_rng(3)
        X = rng.random((12, 3))
        y = (rng.random(12) < 0.5).astype(float)
        lam = 1e-2
        coef = rng.random(3)
        intercept = 0.3

        def loss(c, b):
            z = X @ c + b
            ll = np.logaddexp(0.0, z) - y * z
            return float(ll.mean() + 0.5 * lam * np.sum(c * c))

        p = 1.0 / (1.0 + np.exp(-(X @ coef + intercept)))
        err = p - y
        g_coef = X.T @ err / 12 + lam * coef
        g_b = float(err.mean())
        h = 1e-6
        for j in range(3):
            d = np.zeros(3)
            d[j] = h
            fd = (loss(coef + d, intercept) - loss(coef - d, intercept)) / (2 * h)
            assert fd == pytest.approx(g_coef[j], abs=1e-6)
        fd_b = (loss(coef, intercept + h) - loss(coef, intercept - h)) / (2 * h)
        assert fd_b == pytest.approx(g_b, abs=1e-6)


class TestKMeans:
    def test_k_equals_points(self):
        rng = make_rng(4)
        points = rng.random((6, 2)) * 10
        result = kmeans(points, k=6, seed=0)
        assert np.unique(result.labels).size == 6
        assert result.inertia == pytest.approx(0.0, abs=1e-9)

    def test_two_far_blobs(self):
        rng = make_rng(5)
        points = np.vstack([rng.random((15, 2)), rng.random((15, 2)) + 50.0])
        result = kmeans(points, k=2, seed=1)
        first, second = result.labels[:15], result.labels[15:]
        assert np.unique(first).size == 1
        assert np.unique(second).size == 1
        assert first[0] != second[0]

    def test_inertia_monotone(self):
        rng = make_rng(6)
        points = rng.random((100, 3))
        result = kmeans(points, k=4, seed=2)
        assert np.all(np.diff(result.inertia_history) <= 1e-9)

    def test_deterministic(self):
        rng = make_rng(7)
        points = rng.random((40, 2))
        a = kmeans(points, 3, seed=9)
        b = kmeans(points, 3, seed=9)
        assert np.array_equal(a.labels, b.labels)

    def test_bad_k(self):
        with pytest.raises(errors.ConfigError):
            kmeans(np.zeros((3, 1)), k=5, seed=0)


def tiny_config(**kw):
    # n large enough that every category shows up in both splits
    defaults = dict(
        source=DataSource(kind="synthetic", context="imbalanced", n=1200),
        task="regression",
        runs=1,
        epochs=(30,),
        losses=("standard", "balanced"),
        seed=3,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def tiny_report():
    return run_experiment(tiny_config())


class TestRunExperiment:
    def test_completeness(self, tiny_report):
        per_loss = {"msem", "mc", "y_mse_recon", "y_mae_recon", "y_rmse_recon",
                    "y_mse_latent", "y_mae_latent", "y_rmse_latent"}
        for loss in ("standard", "balanced"):
            got = {r.metric for r in tiny_report.rows if r.loss == loss}
            assert got == per_loss
            for metric in per_loss:
                assert len(tiny_report.values(metric, loss, 30)) == 1

    def test_baseline_rows_present(self, tiny_report):
        base = {r.metric for r in tiny_report.rows if r.loss == BASELINE}
        assert base == {"y_mse_recon", "y_mae_recon", "y_rmse_recon"}

    def test_aggregates_match_rows(self, tiny_report):
        agg = tiny_report.aggregates()
        for (epochs, loss, metric), (mean, std) in agg.items():
            vals = tiny_report.values(metric, loss, epochs)
            assert mean == float(np.mean(vals))
            assert std == float(np.std(vals))

    def test_curves_recorded(self, tiny_report):
        assert set(tiny_report.curves) == {(0, 30, "standard"), (0, 30, "balanced")}
        assert tiny_report.curves[(0, 30, "standard")].errors.shape[0] == 10

    def test_reseeding_changes_metrics(self):
        rep = run_experiment(tiny_config(runs=2, losses=("standard",)))
        values = rep.values("msem", "standard", 30)
        assert len(values) == 2 and values[0] != values[1]

    def test_jobs_parallel_matches_serial(self):
        cfg = tiny_config(runs=2, losses=("standard",))
        serial = run_experiment(cfg, jobs=1)
        parallel = run_experiment(cfg, jobs=2)
        assert serial.rows == parallel.rows

    def test_repeated_budget_rejected(self):
        # a repeated budget would write its rows twice, and the mean and std would count them twice
        for epochs in ((30, 30), (10, 30, 10)):
            with pytest.raises(errors.ConfigError, match="none twice"):
                tiny_config(epochs=epochs)

    def test_empty_or_non_positive_epochs_rejected(self):
        for epochs in ((), (0,), (100, -5)):
            with pytest.raises(errors.ConfigError):
                tiny_config(epochs=epochs)

    @pytest.mark.parametrize(
        "jobs, runs, cpus, workers",
        [(8, 3, 16, 3), (8, 5, 2, 2), (2, 5, 4, 2), (4, 1, 4, None), (3, 4, None, None)],
    )
    def test_jobs_clamped_to_runs_and_cpus(self, monkeypatch, jobs, runs, cpus, workers):
        seen = []

        class RecordingPool:
            """Stands in for the process pool: records its size, runs in-process."""

            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
        got = experiments._map_runs(lambda data, cfg, r: r, None, tiny_config(runs=runs), jobs)
        assert got == list(range(runs))
        assert seen == ([] if workers is None else [workers])

    def test_failed_run_reports_seed(self):
        # n=60 leaves rare categories empty on some split: the error names the run
        cfg = tiny_config(source=DataSource(kind="synthetic", context="imbalanced", n=60))
        with pytest.raises(errors.DataError, match=r"run 0"):
            run_experiment(cfg)

    def test_unsupervised_silhouette(self):
        cfg = tiny_config(task="unsupervised", clusters=3)
        rep = run_experiment(cfg)
        assert len(rep.values("silhouette", "balanced", 30)) == 1
        assert len(rep.values("silhouette", BASELINE, 0)) == 1


class TestTasks:
    def test_binary_metrics(self, tmp_path):
        # binarize the synthetic target through the csv path
        import mixedae.tabular as tabular

        data = tabular.generate_synthetic("imbalanced", 1200, seed=5)
        y = (data.y > np.median(data.y)).astype(float)
        binarized = tabular.Dataset(data.schema, dict(data.columns), y=y)
        path = tmp_path / "bin.csv"
        tabular.write_csv(binarized, path)
        cfg = tiny_config(
            source=DataSource(kind="csv", path=str(path), target="y"),
            task="binary",
            losses=("standard",),
        )
        rep = run_experiment(cfg)
        for metric in ("f1_recon", "balacc_recon", "acc_recon", "auc_recon",
                       "f1_latent", "auc_latent"):
            assert len(rep.values(metric, "standard", 30)) == 1
        assert 0.0 <= rep.values("auc_recon", "standard", 30)[0] <= 1.0

    def test_multiclass_metrics(self, tmp_path):
        import mixedae.tabular as tabular

        data = tabular.generate_synthetic("imbalanced", 1200, seed=6)
        y = np.digitize(data.y, np.quantile(data.y, [0.33, 0.66])).astype(float)
        path = tmp_path / "mc.csv"
        tabular.write_csv(tabular.Dataset(data.schema, dict(data.columns), y=y), path)
        # enough epochs that every variable decodes to >= 2 levels and the
        # correlation metrics stay defined
        cfg = tiny_config(
            source=DataSource(kind="csv", path=str(path), target="y"),
            task="multiclass",
            losses=("standard",),
            epochs=(120,),
        )
        rep = run_experiment(cfg)
        acc = rep.values("acc_recon", "standard", 120)
        assert len(acc) == 1 and 0.0 <= acc[0] <= 1.0


class TestMulticlassClasses:
    def test_one_fit_per_integer_class(self, monkeypatch):
        data = tabular.generate_synthetic("imbalanced", 2000, derive_seed(0, 0))
        fitted = []

        def fake_fit(X, y):
            fitted.append(y)
            return LogisticModel(np.zeros(X.shape[1]), 0.0)

        monkeypatch.setattr(experiments, "logistic_fit", fake_fit)
        X = np.zeros((data.n, 1))
        experiments._downstream_metrics("multiclass", lambda: X, data.y, lambda: X, data.y, "recon")
        assert len(fitted) == 22

    def test_accuracy_unchanged_from_one_fit_per_distinct_value(self):
        # the former class list held one entry per distinct target value;
        # repeated classes got identical fits and argmax took the first
        rng = make_rng(3)
        X_train, X_test = rng.random((60, 4)), rng.random((40, 4))
        levels = np.array([0.0, 0.4, 1.0, 1.7, 2.2, 2.9])
        y_train, y_test = levels[rng.integers(0, 6, 60)], levels[rng.integers(0, 6, 40)]
        got = experiments._downstream_metrics("multiclass", lambda: X_train, y_train, lambda: X_test, y_test, "r")
        old_classes = np.unique(np.concatenate([y_train, y_test])).astype(int)
        assert len(old_classes) == 6
        scores = np.column_stack([
            logistic_fit(X_train, (y_train.astype(int) == c).astype(float)).predict_proba(X_test)
            for c in old_classes
        ])
        pred = old_classes[scores.argmax(axis=1)]
        assert got == {"acc_r": float(np.mean(pred == y_test.astype(int)))}


class TestProxyMemory:
    @pytest.mark.parametrize(
        "task, fit, fits", [("regression", "_ridge_in_place", 1), ("binary", "logistic_fit", 1), ("multiclass", "logistic_fit", 3)]
    )
    def test_test_features_made_after_every_fit_returned(self, monkeypatch, task, fit, fits):
        # so a fit's copies (ridge's centred matrix) are freed before the test side exists
        real = getattr(experiments, fit)
        calls = {"started": 0, "returned": 0}

        def tracked(*args, **kwargs):
            calls["started"] += 1
            model = real(*args, **kwargs)
            calls["returned"] += 1
            return model

        monkeypatch.setattr(experiments, fit, tracked)
        rng = make_rng(8)
        X_train, X_test = rng.random((60, 4)), rng.random((40, 4))
        y = rng.random(100) if task == "regression" else rng.integers(0, max(fits, 2), 100).astype(float)
        made = []

        def features():
            made.append(dict(calls))
            return X_test

        experiments._downstream_metrics(task, lambda: X_train, y[:60], features, y[60:], "r")
        assert made == [{"started": fits, "returned": fits}]

    def test_ridge_proxy_centres_its_own_matrix_in_place(self):
        rng = make_rng(9)
        y = rng.random(3000)
        tracemalloc.start()
        try:
            experiments._downstream_metrics("regression", lambda: rng.random((1800, 294)), y[:1800],
                                            lambda: rng.random((1200, 294)), y[1800:], "r")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the matrix, its 294 x 294 Gram matrix and solve's copy of it (1.33 x);
        # a centred copy beside the matrix would make it 2 x and more
        assert peak < 1.5 * 1800 * 294 * 8

    def test_ridge_fit_leaves_its_argument_as_it_is(self):
        rng = make_rng(10)
        X, y = rng.random((50, 6)), rng.random(50)
        before = X.tobytes()
        model = ridge_fit(X, y, 1e-4)
        assert X.flags.writeable and X.tobytes() == before
        same = experiments._ridge_in_place(X.copy(), y, 1e-4)  # the proxies' kernel, on a copy
        assert model.coef.tobytes() == same.coef.tobytes() and model.intercept == same.intercept


class TestVaeExperiment:
    def test_completeness(self):
        cfg = tiny_config(vae=VAEConfig(epochs=40))
        rep = vae_experiment(cfg)
        for loss in ("standard", "balanced"):
            got = {r.metric for r in rep.rows if r.loss == loss}
            assert got == {"msem", "y_mse_gen", "y_mae_gen", "y_rmse_gen"}
        assert {r.metric for r in rep.rows if r.loss == BASELINE} == {
            "y_mse_gen", "y_mae_gen", "y_rmse_gen"
        }


class TestReportIO:
    def test_csv_round_trip(self, tiny_report, tmp_path):
        path = tmp_path / "report.csv"
        tiny_report.write_csv(path)
        back = load_report_csv(path)
        assert back.context == tiny_report.context
        assert sorted(back.rows, key=str) == sorted(tiny_report.rows, key=str)

    def test_summary_structure(self, tiny_report, tmp_path):
        import json

        path = tmp_path / "summary.json"
        tiny_report.write_summary(path)
        tree = json.loads(path.read_text())
        assert tree["context"] == "imbalanced"
        cell = tree["metrics"]["30"]["balanced"]["msem"]
        assert set(cell) == {"mean", "std"}

    def test_curve_files(self, tiny_report, tmp_path):
        tiny_report.write_curves(tmp_path / "curves")
        files = sorted(p.name for p in (tmp_path / "curves").glob("*.csv"))
        assert files == ["run_0_balanced.csv", "run_0_standard.csv"]
        lines = (tmp_path / "curves" / "run_0_standard.csv").read_text().splitlines()
        assert lines[0] == "epochs,checkpoint,feature,error"
        assert len(lines) == 1 + 10 * 33

    def test_curve_files_are_written_whole(self, tiny_report, tmp_path):
        tiny_report.write_curves(tmp_path / "curves")
        first = {p.name: p.read_bytes() for p in (tmp_path / "curves").iterdir()}
        tiny_report.write_curves(tmp_path / "curves")
        assert {p.name: p.read_bytes() for p in (tmp_path / "curves").iterdir()} == first
