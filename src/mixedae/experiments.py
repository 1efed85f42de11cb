"""Experiment orchestration: proxy predictors, clustering, k-fold runs.

The downstream evaluation uses deterministic built-in proxies instead of
an autoML ensemble: closed-form ridge regression for continuous targets
and fixed-step logistic regression for classification. The claims under
test are orderings between loss arms, which survive the predictor swap.

Each run draws its own train/test split; within a run every loss arm
shares the same split, the same model seed, and the same held-out target
vector. All sub-seeds derive from the master seed via
:func:`mixedae.rng.derive_seed`, so any single run can be reproduced in
isolation.
"""

from __future__ import annotations

import csv
import json
import os
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from . import metrics, models, tabular
from .errors import ConfigError, DataError, FractionOutOfRange, InvalidContext, MixedAEError
from .models import AutoencoderConfig, LearningCurves, VAEConfig, parse_loss
from .rng import derive_seed, make_rng
from .tabular import Dataset, EncoderState, encode_values, fit_encoder, split

TASKS = ("regression", "binary", "multiclass", "unsupervised")

RIDGE_LAMBDA = 1e-4
LOGISTIC_STEPS = 2000
LOGISTIC_LR = 1.0
LOGISTIC_LAMBDA = 1e-4
KMEANS_MAX_ITER = 100

BASELINE = "baseline"


# ----------------------------------------------------------------------
# Proxy predictors
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RidgeModel:
    coef: np.ndarray
    intercept: float

    def predict(self, X: np.ndarray) -> np.ndarray:
        return X @ self.coef + self.intercept


def ridge_fit(X: np.ndarray, y: np.ndarray, lam: float) -> RidgeModel:
    """Closed-form ridge with an unregularized intercept; ``X`` is left as it is."""
    return _ridge_in_place(np.array(X, dtype=np.float64), y, lam)


def _ridge_in_place(X: np.ndarray, y: np.ndarray, lam: float) -> RidgeModel:
    """:func:`ridge_fit` on a float64 matrix, which it centres in place."""
    y = np.asarray(y, dtype=np.float64)
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    X -= x_mean
    yc = y - y_mean
    if lam > 0.0:
        gram = X.T @ X
        gram.flat[:: X.shape[1] + 1] += lam  # the diagonal, in place
        coef = np.linalg.solve(gram, X.T @ yc)
    else:
        coef = np.linalg.lstsq(X, yc, rcond=None)[0]
    return RidgeModel(coef, float(y_mean - x_mean @ coef))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below: exp never overflows
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


@dataclass(frozen=True)
class LogisticModel:
    coef: np.ndarray
    intercept: float

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(X @ self.coef + self.intercept)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(np.int64)


def logistic_fit(X: np.ndarray, y: np.ndarray, steps: int = LOGISTIC_STEPS) -> LogisticModel:
    """Full-batch gradient descent on L2-regularized log-loss.

    The intercept is unregularized. Works with zero feature columns, in
    which case the fitted probability converges to the base rate.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = X.shape
    coef = np.zeros(d)
    intercept = 0.0
    for _ in range(steps):
        p = _sigmoid(X @ coef + intercept)
        err = p - y
        coef -= LOGISTIC_LR * (X.T @ err / n + LOGISTIC_LAMBDA * coef)
        intercept -= LOGISTIC_LR * float(err.mean())
    return LogisticModel(coef, intercept)


# ----------------------------------------------------------------------
# K-means
# ----------------------------------------------------------------------

@dataclass
class KMeansResult:
    labels: np.ndarray
    centers: np.ndarray
    inertia: float
    inertia_history: list[float]


def _pairwise_sq(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    d2 = (
        np.sum(points * points, axis=1)[:, None]
        + np.sum(centers * centers, axis=1)[None, :]
        - 2.0 * points @ centers.T
    )
    return np.maximum(d2, 0.0)


def kmeans(points: np.ndarray, k: int, seed: int) -> KMeansResult:
    """Lloyd iterations from a k-means++ start; empty clusters reseed to
    the farthest point. Inertia is non-increasing across iterations."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if k < 1 or k > n:
        raise ConfigError(f"k must be in [1, {n}], got {k}")
    rng = make_rng(seed)

    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    closest = _pairwise_sq(points, centers[:1])[:, 0]
    for j in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            centers[j] = points[rng.integers(n)]
        else:
            r = rng.random() * total
            centers[j] = points[np.searchsorted(np.cumsum(closest), r)]
        closest = np.minimum(closest, _pairwise_sq(points, centers[j : j + 1])[:, 0])

    labels = np.zeros(n, dtype=np.int64)
    history: list[float] = []
    for _ in range(KMEANS_MAX_ITER):
        d2 = _pairwise_sq(points, centers)
        new_labels = d2.argmin(axis=1)
        for j in range(k):
            members = new_labels == j
            if members.any():
                centers[j] = points[members].mean(axis=0)
            else:
                far = d2[np.arange(n), new_labels].argmax()
                centers[j] = points[far]
                new_labels[far] = j
        history.append(float(d2[np.arange(n), new_labels].sum()))
        if (new_labels == labels).all() and len(history) > 1:
            break
        labels = new_labels
    inertia = float(_pairwise_sq(points, centers)[np.arange(n), labels].sum())
    return KMeansResult(labels, centers, inertia, history)


# ----------------------------------------------------------------------
# Experiment configuration and report
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DataSource:
    """Synthetic context or CSV-backed dataset."""

    kind: str = "synthetic"  # synthetic | csv
    context: str = "imbalanced"
    n: int = 2000
    coeffs: tuple[float, ...] = tabular.SYNTHETIC_COEFFS
    path: str | None = None
    schema_path: str | None = None
    target: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("synthetic", "csv"):
            raise ConfigError(f"data source must be synthetic or csv, got {self.kind!r}")
        if self.kind == "csv" and not self.path:
            raise ConfigError("a csv data source needs a path ([data] csv_path)")
        if self.context not in tabular.CONTEXTS:
            raise InvalidContext(f"context must be one of {tabular.CONTEXTS}, got {self.context!r}")
        if self.n < 1 or len(self.coeffs) != 9:
            raise ConfigError(f"need n >= 1 and 9 coeffs, got n = {self.n} and {len(self.coeffs)} coeffs")

    @property
    def label(self) -> str:
        return self.context if self.kind == "synthetic" else Path(self.path or "csv").stem

    @cached_property
    def sidecar(self) -> tuple[tabular.Schema, str | None] | None:
        """The schema sidecar's (schema, target), or None; read on first use only."""
        return tabular.load_schema_sidecar(self.schema_path) if self.schema_path else None


@dataclass(frozen=True)
class ExperimentConfig:
    source: DataSource = field(default_factory=DataSource)
    task: str = "regression"
    runs: int = 5
    test_fraction: float = 0.4
    epochs: tuple[int, ...] = (AutoencoderConfig.epochs,)
    losses: tuple[str, ...] = ("standard", "balanced")
    seed: int = 0
    clusters: int = 4
    ae: AutoencoderConfig = field(default_factory=AutoencoderConfig)  # its epochs are unused
    vae: VAEConfig = field(default_factory=VAEConfig)

    def __post_init__(self) -> None:
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if not self.epochs or min(self.epochs) < 1 or len(set(self.epochs)) < len(self.epochs):
            raise ConfigError(f"epochs must list at least one budget, each >= 1, none twice, got {self.epochs}")
        if self.task in ("binary", "multiclass") and self.source.kind == "synthetic":
            raise ConfigError(f"task {self.task} needs class targets; synthetic ones are continuous")
        specs = {parse_loss(loss) for loss in self.losses}  # validates; blended:0.3 is blended:0.30
        if not self.losses or len(specs) < len(self.losses):
            raise ConfigError(f"losses must list at least one loss, none twice, got {self.losses}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.test_fraction < 1.0:  # false for nan too
            raise FractionOutOfRange(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if self.clusters < 1:
            raise ConfigError(f"clusters must be >= 1, got {self.clusters}")


@dataclass(frozen=True)
class ReportRow:
    run: int
    epochs: int
    loss: str
    metric: str
    value: float


@dataclass
class ExperimentReport:
    context: str
    rows: list[ReportRow]
    curves: dict[tuple[int, int, str], LearningCurves] = field(default_factory=dict)

    def values(self, metric: str, loss: str, epochs: int | None = None) -> np.ndarray:
        out = [
            r.value
            for r in self.rows
            if r.metric == metric
            and r.loss == loss
            and (epochs is None or r.epochs == epochs)
        ]
        return np.asarray(out)

    def aggregates(self) -> dict[tuple[int, str, str], tuple[float, float]]:
        """(epochs, loss, metric) -> (mean, std over runs)."""
        cells: dict[tuple[int, str, str], list[float]] = {}
        for r in self.rows:
            cells.setdefault((r.epochs, r.loss, r.metric), []).append(r.value)
        return {
            key: (float(np.mean(v)), float(np.std(v))) for key, v in sorted(cells.items())
        }

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["run", "context", "epochs", "loss", "metric", "value"])
            for r in sorted(self.rows, key=lambda r: (r.run, r.epochs, r.loss, r.metric)):
                writer.writerow([r.run, self.context, r.epochs, r.loss, r.metric, repr(r.value)])

    def write_summary(self, path: str | Path) -> None:
        tree: dict = {}
        for (epochs, loss, metric), (mean, std) in self.aggregates().items():
            tree.setdefault(str(epochs), {}).setdefault(loss, {})[metric] = {
                "mean": mean,
                "std": std,
            }
        Path(path).write_text(json.dumps({"context": self.context, "metrics": tree}, indent=2, sort_keys=True))

    def write_curves(self, directory: str | Path) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        files: dict[tuple[int, str], list[LearningCurves]] = {}
        for (run, epochs, loss) in sorted(self.curves):
            files.setdefault((run, loss), []).append(self.curves[(run, epochs, loss)])
        for (run, loss), budgets in files.items():
            models.curves_to_csv(budgets, directory / f"run_{run}_{loss.replace(':', '_')}.csv")


def load_report_csv(path: str | Path) -> ExperimentReport:
    """Read ``report.csv``; an unreadable or malformed file raises :class:`DataError`."""
    rows, keys = [], set()
    context = ""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for rec in csv.DictReader(fh):
                if None in rec or None in rec.values():  # cells past the header, or short of it
                    raise ValueError(f"data row {len(rows) + 1} has too {'many' if None in rec else 'few'} cells")
                context = rec["context"]
                row = ReportRow(int(rec["run"]), int(rec["epochs"]), rec["loss"], rec["metric"], float(rec["value"]))
                if (key := (row.run, row.epochs, row.loss, row.metric)) in keys:  # it would count twice
                    raise ValueError(f"data row {len(rows) + 1} repeats run, epochs, loss and metric {key}")
                keys.add(key)
                rows.append(row)
        if not rows:  # a 0-byte file, or a header alone
            raise ValueError("it has no data rows")
    except KeyError as e:
        raise DataError(f"cannot read report {path}: its header has no {e.args[0]!r} column") from e
    except (OSError, ValueError, csv.Error) as e:  # non-UTF-8 is a ValueError
        raise DataError(f"cannot read report {path}: {e!r}") from e
    return ExperimentReport(context, rows)


# ----------------------------------------------------------------------
# Downstream scoring
# ----------------------------------------------------------------------

def load_source(source: DataSource, seed: int) -> Dataset:
    if source.kind == "synthetic":
        return tabular.generate_synthetic(source.context, source.n, seed, source.coeffs)
    schema, sidecar_target = source.sidecar or (None, None)
    return tabular.read_csv(source.path, schema, target=source.target or sidecar_target)


def _downstream_metrics(
    task: str,
    train_features: Callable[[], np.ndarray],
    y_train: np.ndarray | None,
    test_features: Callable[[], np.ndarray],
    y_test: np.ndarray | None,
    suffix: str,
) -> dict[str, float]:
    """Fit the task proxy on (``train_features()``, y_train), then score it on ``test_features()``.
    Each call makes a new matrix, which ridge centres in place; the train one is gone first."""
    out: dict[str, float] = {}
    if task == "regression":
        model = _ridge_in_place(train_features(), y_train, RIDGE_LAMBDA)
        err = metrics.prediction_error(y_test, model.predict(test_features()))
        out[f"y_mse_{suffix}"] = err.mse
        out[f"y_mae_{suffix}"] = err.mae
        out[f"y_rmse_{suffix}"] = err.rmse
    elif task == "binary":
        model = logistic_fit(train_features(), (y_train > 0.5).astype(float))
        scores = model.predict_proba(test_features())
        truth = y_test > 0.5
        cls = metrics.classification_scores(truth, scores >= 0.5)
        out[f"f1_{suffix}"] = cls.f1
        out[f"balacc_{suffix}"] = cls.balanced_accuracy
        out[f"acc_{suffix}"] = cls.accuracy
        out[f"auc_{suffix}"] = metrics.rank_auc(truth, scores)
    elif task == "multiclass":
        classes = np.unique(np.concatenate([y_train, y_test]).astype(int))
        X_train = train_features()
        fits = [logistic_fit(X_train, (y_train.astype(int) == c).astype(float)) for c in classes]
        del X_train
        X_test = test_features()
        scores = np.column_stack([fit.predict_proba(X_test) for fit in fits])
        pred = classes[scores.argmax(axis=1)]
        out[f"acc_{suffix}"] = float(np.mean(pred == y_test.astype(int)))
    return out


def _silhouette(points: np.ndarray, cfg: ExperimentConfig, run: int) -> float:
    return metrics.silhouette(points, kmeans(points, cfg.clusters, derive_seed(cfg.seed, run, 3)).labels)


def _train_autoencoders(train: Dataset, enc: EncoderState, cfg: ExperimentConfig, run: int) -> list:
    """Each loss arm trained once to the largest budget, as one
    (budget, loss, snapshot) triple per budget."""
    ae_cfg = replace(cfg.ae, epochs=max(cfg.epochs), seed=derive_seed(cfg.seed, run, 1))
    snapshots = models.train_autoencoder_arms(train, enc, ae_cfg, cfg.losses, cfg.epochs)
    return [(epochs, loss, arm[epochs]) for epochs in cfg.epochs for loss, arm in zip(cfg.losses, snapshots)]


def _score_autoencoder(
    model: models.TrainedAutoencoder, train: Dataset, test: Dataset, test_X: Callable[[], np.ndarray],
    cfg: ExperimentConfig, run: int,
) -> dict[str, float]:
    """Reconstruction metrics, the proxies on reconstructed and latent
    inputs, and for the unsupervised task the latent clustering."""
    enc = model.state
    recon_test = models.reconstruct(model, test)
    cell = {"msem": metrics.msem(test, recon_test, enc), "mc": metrics.mc_distance(test, recon_test)}
    if cfg.task == "unsupervised":
        cell["silhouette"] = _silhouette(models.latent(model, train), cfg, run)
    else:
        recon_train = lambda: encode_values(models.reconstruct(model, train), enc)
        cell.update(_downstream_metrics(cfg.task, recon_train, train.y, test_X, test.y, "recon"))
        z_train, z_test = partial(models.latent, model, train), partial(models.latent, model, test)
        cell.update(_downstream_metrics(cfg.task, z_train, train.y, z_test, test.y, "latent"))
    return cell


def _train_vaes(train: Dataset, enc: EncoderState, cfg: ExperimentConfig, run: int) -> list:
    """Each loss arm trained to ``cfg.vae.epochs``, as (epochs, loss, model) triples."""
    vae_cfg = replace(cfg.vae, seed=derive_seed(cfg.seed, run, 1))
    trained = models.train_vae_arms(train, enc, vae_cfg, cfg.losses)
    return [(vae_cfg.epochs, loss, model) for loss, model in zip(cfg.losses, trained)]


def _score_vae(
    model: models.TrainedVAE, train: Dataset, test: Dataset, test_X: Callable[[], np.ndarray],
    cfg: ExperimentConfig, run: int,
) -> dict[str, float]:
    """Reconstruction error, and the proxies fitted on a generated sample
    the size of the train split."""
    enc = model.state
    cell = {"msem": metrics.msem(test, models.vae_reconstruct(model, test), enc)}
    if cfg.task != "unsupervised":
        generated = models.vae_generate(model, train.n, derive_seed(cfg.seed, run, 2))
        gen_y = generated.y
        if cfg.task == "binary":
            gen_y = (gen_y > 0.5).astype(float)
        elif cfg.task == "multiclass":
            gen_y = np.clip(np.round(gen_y), 0, int(train.y.max()))
        gen_X = partial(encode_values, generated, enc)
        cell.update(_downstream_metrics(cfg.task, gen_X, gen_y, test_X, test.y, "gen"))
    return cell


# Per model kind: train a run's loss arms, score one arm, and the suffix of
# the proxy metrics that compare its reconstructed or generated data.
_KINDS = {
    "autoencoder": (_train_autoencoders, _score_autoencoder, "recon"),
    "vae": (_train_vaes, _score_vae, "gen"),
}


def check_experiment(kind: str, cfg: ExperimentConfig, data: Dataset | None = None) -> None:
    """Make each refusal that rests on the model kind or the data's shape (an
    empty split, ``clusters`` above the AE's train split, a VAE's ``ce``, a
    missing target, ``dim_z`` against the AE widths), so none comes after an
    arm trains. Without ``data``, use what ``cfg.source`` tells before it
    loads: a synthetic source's schema and n, a CSV's sidecar schema."""
    for loss in cfg.losses if kind == "vae" else ():  # VAEConfig refuses ce
        replace(cfg.vae, loss=loss)
    n, schema, has_target = None, None, True  # a CSV's rows and target are known once it loads
    if data is not None:
        n, schema, has_target = data.n, data.schema, data.y is not None
    elif cfg.source.kind == "synthetic":
        n, schema = cfg.source.n, tabular.synthetic_schema()
    elif cfg.source.schema_path and kind == "autoencoder":  # only the AE widths read a CSV's sidecar
        schema = cfg.source.sidecar[0]
    if n is not None:
        train_n = tabular.split_sizes(n, cfg.test_fraction)[0]
        if kind == "autoencoder" and cfg.task == "unsupervised" and cfg.clusters > train_n:
            raise ConfigError(f"clusters = {cfg.clusters} exceeds the {train_n} rows of the train split")
    if not has_target and (kind == "vae" or cfg.task != "unsupervised"):  # the VAE has a target head
        raise DataError(f"the {kind} experiment with task {cfg.task!r} needs a target column")
    if kind == "autoencoder" and schema is not None:
        models.autoencoder_widths(schema.spans[-1].stop, cfg.ae.dim_z)


def _run_once(kind: str, data: Dataset, cfg: ExperimentConfig, run: int) -> tuple[list[ReportRow], dict]:
    train_arms, score, suffix = _KINDS[kind]
    split_seed = derive_seed(cfg.seed, run, 0)
    try:
        train, test = split(data, cfg.test_fraction, split_seed)
        enc = fit_encoder(train)
        # Training first lets the proxies reuse the memory its steps freed.
        arms = train_arms(train, enc, cfg, run)

        # each proxy makes its own matrices, in turn (see _downstream_metrics)
        train_X, test_X = partial(encode_values, train, enc), partial(encode_values, test, enc)
        baseline = _downstream_metrics(cfg.task, train_X, train.y, test_X, test.y, suffix)
        if cfg.task == "unsupervised" and kind == "autoencoder":
            baseline["silhouette"] = _silhouette(train_X(), cfg, run)
        rows = [ReportRow(run, 0, BASELINE, k, v) for k, v in baseline.items()]
        curves: dict[tuple[int, int, str], LearningCurves] = {}
        for epochs, loss_text, model in arms:
            if kind == "autoencoder":
                curves[(run, epochs, loss_text)] = model.curves
            cell = score(model, train, test, test_X, cfg, run)
            rows.extend(ReportRow(run, epochs, loss_text, k, v) for k, v in cell.items())
        return rows, curves
    except MixedAEError as e:
        raise type(e)(f"run {run} (split seed {split_seed}): {e}") from e


def ProcessPoolExecutor(max_workers: int):
    """concurrent.futures' process pool, imported on the first call, so that
    only a run that forks loads multiprocessing."""
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(max_workers=max_workers)


def _map_runs(run_once, data: Dataset, cfg: ExperimentConfig, jobs: int) -> list:
    """``run_once(data, cfg, run)`` for every run, in run order, on at most
    ``min(jobs, runs, cpu count)`` worker processes (none when that is 1)."""
    n = cfg.runs
    jobs = min(jobs, n, os.cpu_count() or 1)
    if jobs <= 1:
        return [run_once(data, cfg, r) for r in range(n)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(run_once, [data] * n, [cfg] * n, range(n)))


def _experiment(kind: str, cfg: ExperimentConfig, jobs: int) -> ExperimentReport:
    data = load_source(cfg.source, derive_seed(cfg.seed, 0))
    check_experiment(kind, cfg, data)
    rows: list[ReportRow] = []
    curves: dict[tuple[int, int, str], LearningCurves] = {}
    for got_rows, got_curves in _map_runs(partial(_run_once, kind), data, cfg, jobs):
        rows.extend(got_rows)
        curves.update(got_curves)
    rows.sort(key=lambda r: (r.run, r.epochs, r.loss, r.metric))
    return ExperimentReport(cfg.source.label, rows, curves)


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentReport:
    """Split / encode / train each loss arm / score, repeated ``runs`` times.

    One failed run aborts the whole experiment with the failing run and
    seed in the message. Each loss arm trains once, to the largest
    budget, and is scored at every budget from its snapshot. With
    ``jobs > 1`` the runs execute in separate processes.
    """
    return _experiment("autoencoder", cfg, jobs)


def vae_experiment(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentReport:
    """:func:`run_experiment` with a VAE per loss arm, trained for
    ``cfg.vae.epochs``: each arm generates a synthetic train-sized sample,
    fits the proxies on it, and is scored against the real held-out split."""
    return _experiment("vae", cfg, jobs)
