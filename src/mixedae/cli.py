"""Command-line interface.

Subcommands: ``generate``, ``train``, ``experiment``, ``report`` and
``config dump``. Configuration files are INI-style (sections of
``key = value``) or the equivalent nested JSON; unknown sections or keys
are rejected. Exit codes: 0 success, 2 config error, 3 data error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import json
import sys
from pathlib import Path

from . import experiments, models, tabular
from .errors import ConfigError, DataError, MixedAEError, NumericalError
from .experiments import DataSource, ExperimentConfig
from .models import MODEL_CONFIGS, AutoencoderConfig


def _defaults(cls, *keys: str) -> dict[str, str]:
    """A config section of ``cls``'s fields ``keys``, each at its default;
    a float as ``:g``, a tuple as a comma list."""
    default = cls()
    values = {key: getattr(default, key) for key in keys}
    items = {k: v if isinstance(v, tuple) else (v,) for k, v in values.items()}
    return {k: ",".join(f"{x:g}" if isinstance(x, float) else str(x) for x in v) for k, v in items.items()}


DEFAULTS: dict[str, dict[str, str]] = {
    "data": {
        "source": DataSource.kind,
        **_defaults(DataSource, "context", "n", "coeffs"),
        "csv_path": "",
        "schema_path": "",
        "target": "",
    },
    "experiment": {
        "model": "autoencoder",
        **_defaults(
            ExperimentConfig, "task", "runs", "test_fraction", "epochs", "losses", "seed", "clusters"
        ),
    },
    "autoencoder": _defaults(MODEL_CONFIGS["autoencoder"], "dim_z", "batch_size", "learning_rate"),
    "vae": _defaults(MODEL_CONFIGS["vae"], "dim_hidden", "dim_z", "batch_size", "learning_rate", "epochs"),
    # [train] epochs and seed are the VAE's defaults too
    "train": {"loss": AutoencoderConfig().loss.label, **_defaults(AutoencoderConfig, "epochs", "seed")},
    "output": {
        "dir": "out",
        "jobs": "1",
    },
}


def load_config(path: str | None) -> dict[str, dict[str, str]]:
    """Defaults overlaid with an INI or JSON file; unknown keys rejected."""
    cfg = {section: dict(values) for section, values in DEFAULTS.items()}
    if path is None:
        return cfg
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text: {e}") from e
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e.strerror or e}") from e
    if text.lstrip().startswith("{") or str(path).endswith(".json"):
        try:
            loaded = json.loads(text)
        except (ValueError, RecursionError) as e:
            raise ConfigError(f"{path}: invalid JSON: {e}") from e
        if not isinstance(loaded, dict) or not all(isinstance(v, dict) for v in loaded.values()):
            raise ConfigError(f"{path}: JSON config must be an object of section objects")
        items = {s: {k: str(v) for k, v in kv.items()} for s, kv in loaded.items()}
    else:
        parser = configparser.ConfigParser()
        try:
            parser.read_string(text, source=str(path))
            items = {s: dict(parser.items(s)) for s in parser.sections()}
        except configparser.Error as e:
            raise ConfigError(f"{path}: {e}") from e
    for section, values in items.items():
        if section not in cfg:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, value in values.items():
            if key not in cfg[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            cfg[section][key] = value
    return cfg


def dump_config(cfg: dict[str, dict[str, str]]) -> str:
    lines = []
    for section, values in cfg.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in values.items())
        lines.append("")
    return "\n".join(lines)


_NOUNS = {int: "an integer", float: "a number"}


def _parse(cfg, section: str, key: str, like):
    """``[section] key`` as the type of ``like``; for a tuple, as a comma
    list of its first item's type."""
    text = cfg[section][key]
    kind = type(like[0]) if isinstance(like, tuple) else type(like)
    try:
        if isinstance(like, tuple):
            return tuple(kind(t.strip()) for t in text.split(",") if t.strip())
        return kind(text)
    except ValueError:
        noun = f"a comma list of {kind.__name__} values" if isinstance(like, tuple) else _NOUNS[kind]
        raise ConfigError(f"[{section}] {key} must be {noun}") from None


def _dataclass(cfg, section: str, cls, **fields):
    """``cls(**fields)`` plus every other key of ``section`` that names a
    field of ``cls``, parsed as the type of that field's default."""
    default = cls()
    for f in dataclasses.fields(cls):
        if f.name in cfg[section] and f.name not in fields:
            fields[f.name] = _parse(cfg, section, f.name, getattr(default, f.name))
    return cls(**fields)


def _model(cfg) -> str:
    model = cfg["experiment"]["model"]
    if model not in MODEL_CONFIGS:
        raise ConfigError(f"[experiment] model must be one of {tuple(MODEL_CONFIGS)}, got {model!r}")
    return model


def _source_from_config(cfg) -> DataSource:
    data = cfg["data"]
    return _dataclass(
        cfg,
        "data",
        DataSource,
        kind=data["source"],
        path=data["csv_path"] or None,
        schema_path=data["schema_path"] or None,
        target=data["target"] or None,
    )


def _out_dir(args, cfg) -> Path:
    """``--out`` or ``[output] dir``; refused before any data loads if it or a parent is a file."""
    out = Path(args.out or cfg["output"]["dir"])
    base = next(p for p in (out, *out.parents) if p.exists())
    if not base.is_dir():
        raise (ConfigError if base == out else DataError)(f"{base} exists and is not a directory")
    return out


def _override(cfg, section: str, **flags) -> None:
    """Set the keys of ``section`` whose command-line flag was given."""
    for key, value in flags.items():
        if value is not None:
            cfg[section][key] = str(value)


def _experiment_from_config(cfg) -> ExperimentConfig:
    return _dataclass(
        cfg,
        "experiment",
        ExperimentConfig,
        source=_source_from_config(cfg),
        ae=_dataclass(cfg, "autoencoder", MODEL_CONFIGS["autoencoder"]),
        vae=_dataclass(cfg, "vae", MODEL_CONFIGS["vae"]),
    )


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_generate(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    data = experiments.load_source(DataSource(context=args.context, n=args.n), args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    tabular.write_csv(data, out)
    tabular.save_schema_sidecar(data.schema, out.with_suffix(".schema"), target=data.target_name)
    print(f"wrote {data.n} rows to {out} (+ {out.with_suffix('.schema').name})")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    _override(cfg, "train", seed=args.seed, epochs=args.epochs, loss=args.loss)
    kind = _model(cfg)

    fields = {key: _parse(cfg, "train", key, 0) for key in ("epochs", "seed")}
    # a dumped config carries the default, so only another value or the flag overrides [vae] epochs
    if kind == "vae" and args.epochs is None and fields["epochs"] == AutoencoderConfig.epochs:
        del fields["epochs"]
    # the config checks its values before the data loads
    model_cfg = _dataclass(cfg, kind, MODEL_CONFIGS[kind], loss=cfg["train"]["loss"], **fields)
    out_dir = _out_dir(args, cfg)
    data = experiments.load_source(_source_from_config(cfg), model_cfg.seed)
    train = models.train_vae if kind == "vae" else models.train_autoencoder
    model = train(data, tabular.fit_encoder(data), model_cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    if kind == "autoencoder":
        models.curves_to_csv([model.curves], out_dir / "curves.csv")
    models.save_model(model, out_dir / "model.ckpt")
    name, written = ("VAE", "checkpoint") if kind == "vae" else ("autoencoder", "checkpoint and curves")
    print(f"trained {name} ({model.config.loss.label}); {written} in {out_dir}")
    return 0


def cmd_experiment(args) -> int:
    cfg = load_config(args.config)
    kind = _model(cfg)
    vae = kind == "vae"
    _override(cfg, "experiment", seed=args.seed, epochs=args.epochs, losses=args.loss)
    # a dumped config carries the default, so only another value or the flag (at any value) is refused
    epochs = ExperimentConfig.epochs
    if vae and (args.epochs is not None or _parse(cfg, "experiment", "epochs", epochs) != epochs):
        raise ConfigError("[experiment] epochs and --epochs are AE budgets; the VAE trains for [vae] epochs")
    exp_cfg = _experiment_from_config(cfg)
    jobs = args.jobs if args.jobs is not None else _parse(cfg, "output", "jobs", 0)
    if jobs < 1:
        raise ConfigError(f"[output] jobs and --jobs must be >= 1, got {jobs}")
    experiments.check_experiment(kind, exp_cfg)  # what can be refused before the data loads
    out_dir = _out_dir(args, cfg)
    if args.dry_run:
        budgets = [exp_cfg.vae.epochs] if vae else list(exp_cfg.epochs)
        print(f"config ok: {exp_cfg.runs} runs x epochs {budgets} x "
              f"losses {list(exp_cfg.losses)} on {exp_cfg.source.label} ({exp_cfg.task})")
        return 0

    run = experiments.vae_experiment if vae else experiments.run_experiment
    report = run(exp_cfg, jobs=jobs)
    out_dir.mkdir(parents=True, exist_ok=True)
    for f in (out_dir / "curves").glob("run_*.csv"):
        f.unlink()
    if report.curves:  # the VAE records none
        report.write_curves(out_dir / "curves")
    report.write_csv(out_dir / "report.csv")
    report.write_summary(out_dir / "summary.json")
    print(f"report written to {out_dir / 'report.csv'}")
    return 0


def cmd_report(args) -> int:
    path = Path(args.report)
    if not path.exists():
        raise DataError(f"report file not found: {path}")
    report = experiments.load_report_csv(path)
    agg = report.aggregates()
    print(f"context: {report.context}")
    print(f"{'epochs':>7}  {'loss':<14} {'metric':<16} {'mean':>12} {'std':>12}")
    for (epochs, loss, metric), (mean, std) in agg.items():
        print(f"{epochs:>7}  {loss:<14} {metric:<16} {mean:>12.6g} {std:>12.6g}")
    if args.plot_data:
        cells = sorted(agg.items(), key=lambda kv: (kv[0][2], kv[0][0], kv[0][1]))
        with open(args.plot_data, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "epochs", "loss", "mean", "std"])
            for (epochs, loss, metric), (mean, std) in cells:
                writer.writerow([metric, epochs, loss, repr(mean), repr(std)])
        print(f"plot data written to {args.plot_data}")
    return 0


def cmd_config(args) -> int:
    print(dump_config(load_config(args.config)), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixedae",
        description="Balanced-loss autoencoders for mixed tabular data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic CSV and schema sidecar")
    p.add_argument("--context", default=DataSource.context, choices=tabular.CONTEXTS)
    p.add_argument("--n", type=int, default=DataSource.n)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train one model from a config file")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", help="override [train] epochs")
    p.add_argument("--loss", help="standard | balanced | blended:alpha | ce")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("experiment", help="run the k-fold comparison")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", help="comma list, overrides [experiment] epochs")
    p.add_argument("--loss", help="comma list, overrides [experiment] losses")
    p.add_argument("--out", help="output directory")
    p.add_argument("--jobs", type=int, help="concurrent runs")
    p.add_argument("--dry-run", action="store_true", help="validate config without training")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("report", help="print a report.csv as a table")
    p.add_argument("report")
    p.add_argument("--plot-data", help="write per-metric mean/std CSV sorted by epochs")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("config", help="configuration helpers")
    p.add_argument("action", choices=["dump"])
    p.add_argument("--config")
    p.set_defaults(func=cmd_config)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 4
    except (MixedAEError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
