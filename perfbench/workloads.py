"""The three benchmark workloads.

Each workload makes its inputs from the seed when it is constructed (the
set-up), runs a tiny untimed instance in `warmup`, and then repeats
`round`, which returns how many operations it attempted and how many
failed; `outputs` then gives what the round produced. Every round of a
run makes the same operations on the same inputs, so its outputs must
equal those of the first round exactly; `check` verifies the first
round's outputs against computations made apart from the program (see
``reference.py``) or properties the method must have.

The program is called through module attributes (``metrics.msem``, not a
name bound at import) so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import sys
import traceback
from pathlib import Path

import numpy as np

from mixedae import cli, experiments, metrics, tabular

import reference as ref

RIDGE_LAMBDA = 1e-4
TEST_FRACTION = 0.4
RUNS = 1  # experiment runs per CLI call


def _rows_of(report_bytes: bytes) -> dict[tuple[int, int, str, str], float]:
    rows = {}
    for rec in csv.DictReader(io.StringIO(report_bytes.decode("utf-8"))):
        key = (int(rec["run"]), int(rec["epochs"]), rec["loss"], rec["metric"])
        rows[key] = float(rec["value"])
    return rows


def _read_tree(directory: Path) -> dict[str, bytes]:
    return {
        str(f.relative_to(directory)): f.read_bytes()
        for f in sorted(directory.rglob("*"))
        if f.is_file()
    }


def _report_problems(rows: dict, expected: set) -> list[str]:
    problems = []
    missing = sorted(expected - rows.keys())
    extra = sorted(rows.keys() - expected)
    if missing:
        problems.append(f"report rows missing: {missing[:5]} ({len(missing)} in all)")
    if extra:
        problems.append(f"unexpected report rows: {extra[:5]} ({len(extra)} in all)")
    bad = [k for k, v in rows.items() if not math.isfinite(v)]
    if bad:
        problems.append(f"non-finite report values: {bad[:5]}")
    return problems


def _close(got: float, want: float, rtol: float, what: str) -> list[str]:
    if abs(got - want) <= rtol * max(abs(want), 1e-300):
        return []
    return [f"{what}: program {got!r}, reference {want!r}"]


def _all_present(codes: dict, spec, *index_sets) -> bool:
    """Every category of every categorical column occurs in each row subset."""
    for idx in index_sets:
        for name, cats in spec:
            if cats and np.unique(codes[name][idx]).size < cats:
                return False
    return True


class CliWorkload:
    """One `mixedae experiment` call per round, on a config written in set-up."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.config = workdir / "experiment.ini"
        self.out = workdir / "out"

    def _experiment(self, config: Path, out: Path) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["experiment", "--config", str(config), "--out", str(out), "--jobs", "1"])

    def warmup(self) -> None:
        if self._experiment(self.warmup_config, self.workdir / "warmup") != 0:
            raise RuntimeError("warm-up experiment failed")

    def round(self) -> tuple[int, int]:
        try:
            code = self._experiment(self.config, self.out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            code = -1
        return 1, int(code != 0)

    def outputs(self) -> dict[str, bytes]:
        return _read_tree(self.out)

    def _baseline_problems(self, rows, spec, suffix: str) -> list[str]:
        """The baseline proxy is ridge on the encoded split; refit it here."""
        problems = []
        codes, y = self.codes, self.y
        for run in range(RUNS):
            train, test = ref.split_indices(len(y), TEST_FRACTION, ref.sub_seed(self.exp_seed, run, 0))
            ranges = {
                name: (float(codes[name][train].min()), float(codes[name][train].max()))
                for name, cats in spec if not cats
            }
            X_train = ref.one_hot({k: v[train] for k, v in codes.items()}, spec, ranges)
            X_test = ref.one_hot({k: v[test] for k, v in codes.items()}, spec, ranges)
            coef, intercept = ref.ridge(X_train, y[train], RIDGE_LAMBDA)
            err = y[test] - (X_test @ coef + intercept)
            problems += _close(
                rows.get((run, 0, "baseline", f"y_mse_{suffix}"), math.nan),
                float(np.mean(err * err)),
                1e-7,
                f"run {run} baseline y_mse_{suffix}",
            )
        return problems


# ----------------------------------------------------------------------
# ae-budgets
# ----------------------------------------------------------------------

AE_ROWS = 2000
AE_EPOCHS = (100, 300)
LOSSES = ("standard", "balanced")
SYNTHETIC_SPEC = [("X1", None), ("X2", None), ("X3", None),
                  ("Q1", 2), ("Q2", 6), ("Q3", 4), ("Q4", 8), ("Q5", 10)]


def _experiment_ini(data: str, experiment: str, extra: str = "") -> str:
    return f"[data]\n{data}\n[experiment]\n{experiment}\n{extra}[output]\njobs = 1\n"


class AEBudgets(CliWorkload):
    """The paper's comparison: standard vs balanced MSE at two budgets."""

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(workdir)
        # Each run's split must hold every category on both sides: the
        # encoder needs them in training and msem scores each on the test
        # side. The experiment seed is the first candidate whose splits do.
        for attempt in range(1000):
            self.exp_seed = seed if attempt == 0 else ref.sub_seed(seed, attempt)
            data = tabular.generate_synthetic(
                "imbalanced", AE_ROWS, ref.sub_seed(self.exp_seed, 0)
            )
            self.codes = dict(data.columns)
            if _all_present(self.codes, SYNTHETIC_SPEC, *(
                rows for r in range(RUNS)
                for rows in ref.split_indices(AE_ROWS, TEST_FRACTION, ref.sub_seed(self.exp_seed, r, 0))
            )):
                break
        self.y = np.asarray(data.y)
        synthetic = f"source = synthetic\ncontext = imbalanced\nn = {AE_ROWS}"
        self.config.write_text(_experiment_ini(
            synthetic,
            f"model = autoencoder\ntask = regression\nruns = {RUNS}\n"
            f"epochs = {','.join(map(str, AE_EPOCHS))}\nlosses = {','.join(LOSSES)}\n"
            f"seed = {self.exp_seed}",
        ))
        self.warmup_config = workdir / "warmup.ini"
        self.warmup_config.write_text(_experiment_ini(
            synthetic,
            "model = autoencoder\ntask = regression\nruns = 1\nepochs = 1\nseed = 0",
        ))

    def check(self, outputs: dict[str, bytes]) -> list[str]:
        rows = _rows_of(outputs["report.csv"])
        proxy = [f"y_{m}_{s}" for s in ("recon", "latent") for m in ("mse", "mae", "rmse")]
        expected = set()
        for run in range(RUNS):
            expected |= {(run, 0, "baseline", f"y_{m}_recon") for m in ("mse", "mae", "rmse")}
            for e in AE_EPOCHS:
                for loss in LOSSES:
                    expected |= {(run, e, loss, m) for m in ["msem", "mc", *proxy]}
        problems = _report_problems(rows, expected)
        problems += self._baseline_problems(rows, SYNTHETIC_SPEC, "recon")
        problems += self._curve_problems(outputs)
        return problems

    def _curve_problems(self, outputs: dict[str, bytes]) -> list[str]:
        """Two properties of the per-feature training errors in the curve files.

        The standard arm's mean error is its training loss, so it falls
        from the first checkpoint to the last. The balanced arm minimizes
        a weighted loss instead: its unweighted error may rise while it
        lifts rare-category columns (seed 109: 0.150 at epoch 10, 0.159 at
        epoch 100), so it is not checked so. In both arms the shorter
        budget's training is a prefix of the longer one's (same seeds, same
        shuffles), so the checkpoints the budgets share hold equal errors.
        """
        problems = []
        for run in range(RUNS):
            for loss in LOSSES:
                name = f"curves/run_{run}_{loss}.csv"
                if name not in outputs:
                    problems.append(f"{name} missing")
                    continue
                by_budget: dict[int, dict[int, list[float]]] = {}
                for rec in csv.DictReader(io.StringIO(outputs[name].decode("utf-8"))):
                    by_budget.setdefault(int(rec["epochs"]), {}).setdefault(
                        int(rec["checkpoint"]), []).append(float(rec["error"]))
                if sorted(by_budget) != sorted(AE_EPOCHS):
                    problems.append(f"{name}: budgets {sorted(by_budget)}")
                    continue
                for budget, points in by_budget.items():
                    first, last = points[min(points)], points[max(points)]
                    if loss == "standard" and not np.mean(last) < np.mean(first):
                        problems.append(
                            f"{name} at {budget} epochs: training error "
                            f"{np.mean(first)!r} -> {np.mean(last)!r} did not fall"
                        )
                short, long = (by_budget[e] for e in AE_EPOCHS)
                if not short.keys() & long.keys():
                    problems.append(f"{name}: the budgets share no checkpoint")
                for epoch in sorted(short.keys() & long.keys()):
                    if short[epoch] != long[epoch]:
                        problems.append(f"{name}: errors at epoch {epoch} differ between budgets")
        return problems


# ----------------------------------------------------------------------
# vae-wide-csv
# ----------------------------------------------------------------------

WIDE_ROWS = 3000
WIDE_NUMERICS = ("N1", "N2", "N3", "N4", "N5", "N6")
WIDE_CARDINALITIES = (3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 30, 40, 50, 60)
WIDE_MIN_COUNT = 25  # rows per category in the whole table
WIDE_ZIPF = 1.2
VAE_EPOCHS = 60
WIDE_SPEC = [(n, None) for n in WIDE_NUMERICS] + [
    (f"C{i + 1:02d}", k) for i, k in enumerate(WIDE_CARDINALITIES)
]


def wide_table(seed: int) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Columns and target of the wide mixed table.

    Category k of a variable with K categories has a Zipf(1.2) share of
    the rows, but at least WIDE_MIN_COUNT rows, so the tail categories
    are rare (under 1%) yet present. Counts are fixed; the seed places
    them. The target loads N1, N2, N4 and the rarest category of the
    first six categorical variables.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    n = WIDE_ROWS
    cols: dict[str, np.ndarray] = {
        "N1": rng.standard_normal(n),
        "N2": 10.0 + 2.0 * rng.standard_normal(n),
        "N3": np.exp(0.5 * rng.standard_normal(n)),
        "N4": 100.0 * rng.random(n),
    }
    cols["N5"] = 0.6 * cols["N1"] + 0.8 * rng.standard_normal(n)
    cols["N6"] = rng.exponential(1.0, n)
    for name, k in WIDE_SPEC[len(WIDE_NUMERICS):]:
        share = (np.arange(k) + 1.0) ** -WIDE_ZIPF
        counts = np.maximum(WIDE_MIN_COUNT, np.floor(n * share / share.sum())).astype(int)
        counts[0] += n - counts.sum()
        if counts[0] < WIDE_MIN_COUNT:
            raise ValueError(f"{name}: {k} categories do not fit {n} rows")
        cols[name] = rng.permutation(np.repeat(np.arange(k), counts))
    y = cols["N1"] + 0.5 * cols["N2"] + 0.02 * cols["N4"] + 0.5 * rng.standard_normal(n)
    for name, k in WIDE_SPEC[len(WIDE_NUMERICS):][:6]:
        y += cols[name] == k - 1
    return cols, y


def write_wide_csv(cols: dict, y: np.ndarray, csv_path: Path, schema_path: Path) -> None:
    names = [name for name, _ in WIDE_SPEC]
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names + ["y"])
        cells = [
            [f"{name}_{c:02d}" for c in cols[name]] if cats else [repr(float(v)) for v in cols[name]]
            for name, cats in WIDE_SPEC
        ]
        cells.append([repr(float(v)) for v in y])
        writer.writerows(zip(*cells))
    with open(schema_path, "w", encoding="utf-8") as fh:
        for name, cats in WIDE_SPEC:
            if cats:
                fh.write(f"{name},categorical,{'|'.join(f'{name}_{c:02d}' for c in range(cats))}\n")
            else:
                fh.write(f"{name},numeric\n")
        fh.write("y,target\n")


class VAEWideCSV(CliWorkload):
    """The VAE experiment on a wide CSV table written in set-up."""

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(workdir)
        self.exp_seed = seed
        splits = [
            ref.split_indices(WIDE_ROWS, TEST_FRACTION, ref.sub_seed(seed, r, 0))
            for r in range(RUNS)
        ]
        for attempt in range(1000):
            self.codes, self.y = wide_table(ref.sub_seed(seed, 7, attempt))
            if _all_present(self.codes, WIDE_SPEC, *(i for pair in splits for i in pair)):
                break
        csv_path, schema_path = workdir / "wide.csv", workdir / "wide.schema"
        write_wide_csv(self.codes, self.y, csv_path, schema_path)
        self.config.write_text(_experiment_ini(
            f"source = csv\ncsv_path = {csv_path}\nschema_path = {schema_path}",
            f"model = vae\ntask = regression\nruns = {RUNS}\n"
            f"losses = {','.join(LOSSES)}\nseed = {seed}",
            f"[vae]\nepochs = {VAE_EPOCHS}\n",
        ))
        self.warmup_config = workdir / "warmup.ini"
        self.warmup_config.write_text(_experiment_ini(
            f"source = synthetic\ncontext = imbalanced\nn = {AE_ROWS}",
            "model = vae\ntask = regression\nruns = 1\nseed = 0",
            "[vae]\nepochs = 1\n",
        ))

    def check(self, outputs: dict[str, bytes]) -> list[str]:
        rows = _rows_of(outputs["report.csv"])
        expected = set()
        for run in range(RUNS):
            expected |= {(run, 0, "baseline", f"y_{m}_gen") for m in ("mse", "mae", "rmse")}
            for loss in LOSSES:
                expected |= {(run, VAE_EPOCHS, loss, m)
                             for m in ("msem", "y_mse_gen", "y_mae_gen", "y_rmse_gen")}
        problems = _report_problems(rows, expected)
        problems += self._baseline_problems(rows, WIDE_SPEC, "gen")
        return problems


# ----------------------------------------------------------------------
# scoring
# ----------------------------------------------------------------------

SCORING_ROWS = 2000
CORRUPTION = (0.1, 0.3, 0.6)  # numeric noise in std units, categorical flip rate
CLUSTERS = 4
PROJECTION_WIDTH = 10
SWEEP = {"spearman": 3000, "cramers_v": 1500, "eta_squared": 2000, "balanced_accuracy": 2000}


def _sweep_inputs(rng: np.random.Generator) -> dict[str, list[tuple]]:
    """Small-n inputs of the shapes the exhaustive metric oracles use.

    spearman: alphabet-3 values at n <= 5, alphabet-2 at n = 6..8, and
    permutation pairs at n <= 5; Cramer's V: up to 3 x 3 levels, n <= 8;
    eta squared: levels {0, 0.5, 1} with 3 groups at n <= 5 and two of
    each at n = 6, 7; balanced accuracy: binary pairs, n <= 8. Inputs on
    which a statistic is undefined (constant ranks, one level, zero
    variance, one-class truth) are drawn again.
    """
    def draw(count, make, ok):
        out = []
        while len(out) < count:
            case = make()
            if ok(*case):
                out.append(case)
        return out

    def spearman_case():
        family = rng.integers(3)
        if family == 0:
            n = rng.integers(2, 6)
            return rng.integers(0, 3, n).astype(float), rng.integers(0, 3, n).astype(float)
        if family == 1:
            n = rng.integers(6, 9)
            return rng.integers(0, 2, n).astype(float), rng.integers(0, 2, n).astype(float)
        n = rng.integers(2, 6)
        return rng.permutation(n).astype(float), rng.permutation(n).astype(float)

    def cramers_case():
        n, r, c = rng.integers(2, 9), rng.integers(2, 4), rng.integers(2, 4)
        return rng.integers(0, r, n), rng.integers(0, c, n)

    def eta_case():
        if rng.integers(2) == 0:
            n = rng.integers(2, 6)
            return np.array([0.0, 0.5, 1.0])[rng.integers(0, 3, n)], rng.integers(0, 3, n)
        n = rng.integers(6, 8)
        return rng.integers(0, 2, n).astype(float), rng.integers(0, 2, n)

    def balacc_case():
        n = rng.integers(2, 9)
        return rng.integers(0, 2, n).astype(float), rng.integers(0, 2, n).astype(float)

    def varied(*vs):
        return all(np.unique(v).size > 1 for v in vs)

    return {
        "spearman": draw(SWEEP["spearman"], spearman_case, varied),
        "cramers_v": draw(SWEEP["cramers_v"], cramers_case, varied),
        "eta_squared": draw(SWEEP["eta_squared"], eta_case, varied),
        "balanced_accuracy": draw(SWEEP["balanced_accuracy"], balacc_case, lambda t, p: varied(t)),
    }


class Scoring:
    """Metric and proxy kernels on fixed inputs, no training."""

    def __init__(self, seed: int, workdir: Path) -> None:
        for attempt in range(1000):
            data = tabular.generate_synthetic("imbalanced", SCORING_ROWS, ref.sub_seed(seed, 1, attempt))
            train_idx, test_idx = ref.split_indices(
                SCORING_ROWS, TEST_FRACTION, ref.sub_seed(seed, 2, attempt)
            )
            y = np.asarray(data.y)
            label = y > np.median(y[train_idx])
            if _all_present(dict(data.columns), SYNTHETIC_SPEC, train_idx, test_idx) and \
                    np.unique(label[test_idx]).size == 2:
                break
        rng = np.random.Generator(np.random.PCG64(ref.sub_seed(seed, 3)))
        self.train, self.test = data.take(train_idx), data.take(test_idx)
        self.enc = tabular.fit_encoder(self.train)
        self.copies = [self._corrupt(self.test, level, rng) for level in CORRUPTION]
        self.X_train = tabular.encode(self.train, self.enc).values
        self.X_test = tabular.encode(self.test, self.enc).values
        proj = rng.standard_normal((self.X_train.shape[1], PROJECTION_WIDTH))
        self.Z_train = np.tanh((self.X_train - self.X_train.mean(axis=0)) @ proj)
        self.y_train = np.asarray(self.train.y)
        self.label_train = label[train_idx].astype(float)
        self.label_test = label[test_idx]
        self.noisy = tabular.EncodedMatrix(
            self.X_test + 0.3 * rng.standard_normal(self.X_test.shape), self.enc
        )
        self.kmeans_seed = ref.sub_seed(seed, 4)
        self.sweep = _sweep_inputs(rng)

    @staticmethod
    def _corrupt(data, level: float, rng: np.random.Generator):
        cols = {}
        for name, cats in SYNTHETIC_SPEC:
            v = np.asarray(data.column(name))
            if cats:
                flip = rng.random(v.size) < level
                cols[name] = np.where(flip, rng.integers(0, cats, v.size), v)
            else:
                cols[name] = v + level * v.std() * rng.standard_normal(v.size)
        return tabular.Dataset(data.schema, cols, y=data.y, target_name=data.target_name)

    def warmup(self) -> None:
        small = slice(0, 100)
        metrics.msem(self.test, self.copies[0], self.enc)
        metrics.mc_distance(self.test, self.copies[0])
        km = experiments.kmeans(self.X_train[small], CLUSTERS, self.kmeans_seed)
        metrics.silhouette(self.X_train[small], km.labels)
        model = experiments.logistic_fit(self.X_train[small], self.label_train[small], steps=5)
        metrics.rank_auc(self.label_test, model.predict_proba(self.X_test))
        experiments.ridge_fit(self.X_train[small], self.y_train[small], RIDGE_LAMBDA)
        tabular.decode(tabular.encode(self.test, self.enc), self.enc)
        for name, cases in self.sweep.items():
            for case in cases[:10]:
                getattr(metrics, name)(*case)

    def round(self):
        out: dict = {}
        attempted = failed = 0

        def op(key, fn, *args):
            nonlocal attempted, failed
            attempted += 1
            try:
                out[key] = fn(*args)
            except Exception:
                if not failed:
                    traceback.print_exc(file=sys.stderr)
                failed += 1
                out[key] = None
            return out[key]

        for i, copy in enumerate(self.copies):
            op(f"msem{i}", metrics.msem, self.test, copy, self.enc)
            op(f"mc{i}", metrics.mc_distance, self.test, copy)
        for name, points in (("encoded", self.X_train), ("projected", self.Z_train)):
            km = op(f"kmeans_{name}", experiments.kmeans, points, CLUSTERS, self.kmeans_seed)
            op(f"silhouette_{name}", lambda: metrics.silhouette(points, km.labels))
        model = op("logistic", experiments.logistic_fit, self.X_train, self.label_train)
        scores = op("auc_scores", lambda: model.predict_proba(self.X_test))
        op("auc", metrics.rank_auc, self.label_test, scores)
        op("ridge", experiments.ridge_fit, self.X_train, self.y_train, RIDGE_LAMBDA)
        op("encode", tabular.encode, self.test, self.enc)
        op("decode", tabular.decode, self.noisy, self.enc)
        for name, cases in self.sweep.items():
            fn = getattr(metrics, name)
            out[name] = [op(name, fn, *case) for case in cases]
        self._out = out
        return attempted, failed

    def outputs(self) -> dict:
        return _plain(self._out)

    def check(self, out: dict) -> list[str]:
        problems = []
        train_cols = dict(self.train.columns)
        ranges = {name: (float(train_cols[name].min()), float(train_cols[name].max()))
                  for name, cats in SYNTHETIC_SPEC if not cats}
        test_cols = dict(self.test.columns)
        for i, copy in enumerate(self.copies):
            copy_cols = dict(copy.columns)
            problems += _close(out[f"msem{i}"],
                              ref.msem(test_cols, copy_cols, SYNTHETIC_SPEC, ranges),
                              1e-10, f"msem of corrupted copy {i}")
            problems += _close(out[f"mc{i}"],
                              ref.mixed_correlation_distance(test_cols, copy_cols, SYNTHETIC_SPEC),
                              1e-9, f"mc_distance of corrupted copy {i}")
        for name, points in (("encoded", self.X_train), ("projected", self.Z_train)):
            labels, _, _, history = out[f"kmeans_{name}"]
            steps = np.diff(history)
            if np.any(steps > 1e-12 * history[0]):
                problems.append(f"kmeans ({name}) inertia rose: {history}")
            problems += _close(out[f"silhouette_{name}"], ref.silhouette(points, labels),
                              1e-10, f"silhouette ({name})")
        coef, intercept = out["logistic"]
        p = 1.0 / (1.0 + np.exp(-(self.X_train @ coef + intercept)))
        base = np.full_like(p, self.label_train.mean())
        fitted, base_rate = ref.log_loss(self.label_train, p), ref.log_loss(self.label_train, base)
        if not fitted < base_rate:
            problems.append(f"logistic log-loss {fitted!r} not below base rate {base_rate!r}")
        problems += _close(out["auc"], ref.rank_auc(self.label_test, out["auc_scores"]),
                          1e-12, "rank_auc")
        coef, intercept = out["ridge"]
        want_coef, want_intercept = ref.ridge(self.X_train, self.y_train, RIDGE_LAMBDA)
        got, want = self.X_test @ coef + intercept, self.X_test @ want_coef + want_intercept
        if not np.allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max()):
            problems.append(f"ridge_fit predictions differ from lstsq by {np.abs(got - want).max()!r}")
        want = ref.one_hot(test_cols, SYNTHETIC_SPEC, ranges)
        if not np.allclose(out["encode"], want, rtol=0, atol=1e-12):
            problems.append("encode differs from the reference one-hot encoding")
        want = ref.decode(self.noisy.values, SYNTHETIC_SPEC, ranges)
        for name, cats in SYNTHETIC_SPEC:
            a, b = out["decode"][name], want[name]
            if not (np.array_equal(a, b) if cats else np.allclose(a, b, rtol=0, atol=1e-12)):
                problems.append(f"decode differs from the reference in column {name}")
        for name, cases in self.sweep.items():
            oracle = getattr(ref, name)
            for case, got in zip(cases, out[name]):
                want = oracle(*case)
                if not abs(got - want) <= 1e-10:
                    problems.append(f"{name}{tuple(c.tolist() for c in case)}: {got!r} vs {want!r}")
                    break
        return problems


def _plain(out: dict) -> dict:
    """Results as floats and arrays, so rounds compare with `same`."""
    plain = {}
    for key, value in out.items():
        if value is None:
            plain[key] = None
        elif key.startswith("kmeans"):
            plain[key] = (value.labels, value.centers, value.inertia, np.asarray(value.inertia_history))
        elif key in ("logistic", "ridge"):
            plain[key] = (value.coef, value.intercept)
        elif key == "encode":
            plain[key] = value.values
        elif key == "decode":
            plain[key] = dict(value.columns)
        elif isinstance(value, list):
            plain[key] = np.asarray(value, dtype=float)
        else:
            plain[key] = value
    return plain


def same(a, b) -> bool:
    """Exact equality of nested outputs (bytes, floats, arrays, containers)."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.shape == b.shape and np.array_equal(a, b)
    return a == b


WORKLOADS = {"ae-budgets": AEBudgets, "vae-wide-csv": VAEWideCSV, "scoring": Scoring}
