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
import json
import sys
from pathlib import Path

from . import experiments, models, nn, tabular
from .errors import ConfigError, DataError, MixedAEError, NumericalError
from .experiments import DataSource, ExperimentConfig
from .models import AutoencoderConfig, VAEConfig, parse_loss

DEFAULTS: dict[str, dict[str, str]] = {
    "data": {
        "source": "synthetic",
        "context": "imbalanced",
        "n": "2000",
        "coeffs": "1,1,1,1,1,1,1,1,1",
        "csv_path": "",
        "schema_path": "",
        "target": "",
    },
    "experiment": {
        "model": "autoencoder",
        "task": "regression",
        "runs": "5",
        "test_fraction": "0.4",
        "epochs": "1000",
        "losses": "standard,balanced",
        "seed": "0",
        "clusters": "4",
    },
    "autoencoder": {
        "dim_z": "10",
        "batch_size": "128",
        "learning_rate": "0.0001",
    },
    "vae": {
        "dim_hidden": "20",
        "dim_z": "10",
        "batch_size": "256",
        "learning_rate": "0.001",
        "epochs": "1000",
    },
    "train": {
        "loss": "standard",
        "epochs": "1000",
        "seed": "0",
    },
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


def _int(cfg, section, key) -> int:
    try:
        return int(cfg[section][key])
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be an integer") from None


def _float(cfg, section, key) -> float:
    try:
        return float(cfg[section][key])
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be a number") from None


def _vae_config(cfg, **fields) -> VAEConfig:
    """A VAEConfig from the [vae] section's network and optimizer keys, plus ``fields``."""
    keys = {"dim_hidden": _int, "dim_z": _int, "batch_size": _int, "learning_rate": _float}
    return VAEConfig(**{key: parse(cfg, "vae", key) for key, parse in keys.items()}, **fields)


def _number_list(text: str, what: str, kind=int) -> tuple:
    try:
        return tuple(kind(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise ConfigError(f"{what} must be a comma list of {kind.__name__} values") from None


def _source_from_config(cfg) -> DataSource:
    data = cfg["data"]
    if data["source"] == "synthetic":
        coeffs = _number_list(data["coeffs"], "[data] coeffs", float)
        return DataSource(
            kind="synthetic", context=data["context"], n=_int(cfg, "data", "n"), coeffs=coeffs
        )
    if data["source"] == "csv":
        if not data["csv_path"]:
            raise ConfigError("[data] csv_path is required when source = csv")
        return DataSource(
            kind="csv",
            path=data["csv_path"],
            schema_path=data["schema_path"] or None,
            target=data["target"] or None,
        )
    raise ConfigError(f"[data] source must be synthetic or csv, got {data['source']!r}")


def _experiment_from_config(cfg) -> ExperimentConfig:
    exp = cfg["experiment"]
    return ExperimentConfig(
        source=_source_from_config(cfg),
        task=exp["task"],
        runs=_int(cfg, "experiment", "runs"),
        test_fraction=_float(cfg, "experiment", "test_fraction"),
        epochs=_number_list(exp["epochs"], "[experiment] epochs"),
        losses=tuple(t.strip() for t in exp["losses"].split(",") if t.strip()),
        dim_z=_int(cfg, "autoencoder", "dim_z"),
        batch_size=_int(cfg, "autoencoder", "batch_size"),
        learning_rate=_float(cfg, "autoencoder", "learning_rate"),
        seed=_int(cfg, "experiment", "seed"),
        clusters=_int(cfg, "experiment", "clusters"),
        vae=_vae_config(cfg, epochs=_int(cfg, "vae", "epochs")),
    )


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_generate(args) -> int:
    data = tabular.generate_synthetic(args.context, args.n, args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    tabular.write_csv(data, out)
    tabular.save_schema_sidecar(data.schema, out.with_suffix(".schema"), target=data.target_name)
    print(f"wrote {data.n} rows to {out} (+ {out.with_suffix('.schema').name})")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["train"]["seed"] = str(args.seed)
    if args.epochs is not None:
        cfg["train"]["epochs"] = args.epochs
    if args.loss is not None:
        cfg["train"]["loss"] = args.loss
    out_dir = Path(args.out or cfg["output"]["dir"])

    source = _source_from_config(cfg)
    data = experiments.load_source(source, _int(cfg, "train", "seed"))
    enc = tabular.fit_encoder(data)
    matrix = tabular.encode(data, enc)
    loss = parse_loss(cfg["train"]["loss"])

    out_dir.mkdir(parents=True, exist_ok=True)
    if cfg["experiment"]["model"] == "vae":
        if data.y is None:
            raise DataError("training a VAE needs a target column")
        vae_cfg = _vae_config(
            cfg, epochs=_int(cfg, "train", "epochs"), loss=loss, seed=_int(cfg, "train", "seed")
        )
        model = models.train_vae(matrix, data.y, vae_cfg)
        nets = model.nets.all()
        header = {"kind": "vae", "loss": loss.label, "seed": vae_cfg.seed}
        nn.write_networks(out_dir / "model.ckpt", nets, header)
        print(f"trained VAE ({loss.label}); checkpoint in {out_dir}")
    else:
        ae_cfg = AutoencoderConfig(
            dim_z=_int(cfg, "autoencoder", "dim_z"),
            epochs=_int(cfg, "train", "epochs"),
            batch_size=_int(cfg, "autoencoder", "batch_size"),
            learning_rate=_float(cfg, "autoencoder", "learning_rate"),
            loss=loss,
            seed=_int(cfg, "train", "seed"),
        )
        model = models.train_autoencoder(matrix, ae_cfg)
        models.save_autoencoder(model, out_dir / "model.ckpt")
        curves_path = out_dir / "curves.csv"
        curves_path.unlink(missing_ok=True)
        models.curves_to_csv(model.curves, curves_path)
        print(f"trained autoencoder ({loss.label}); checkpoint and curves in {out_dir}")
    return 0


def cmd_experiment(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["experiment"]["seed"] = str(args.seed)
    if args.epochs is not None:
        cfg["experiment"]["epochs"] = args.epochs
    if args.loss is not None:
        cfg["experiment"]["losses"] = args.loss
    exp_cfg = _experiment_from_config(cfg)
    jobs = args.jobs if args.jobs is not None else _int(cfg, "output", "jobs")
    if args.dry_run:
        print(f"config ok: {exp_cfg.runs} runs x epochs {list(exp_cfg.epochs)} x "
              f"losses {list(exp_cfg.losses)} on {exp_cfg.source.label} ({exp_cfg.task})")
        return 0

    out_dir = Path(args.out or cfg["output"]["dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    if cfg["experiment"]["model"] == "vae":
        report = experiments.vae_experiment(exp_cfg, jobs=jobs)
    else:
        report = experiments.run_experiment(exp_cfg, jobs=jobs)
        for f in (out_dir / "curves").glob("run_*.csv"):
            f.unlink()
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
    if args.action != "dump":
        raise ConfigError(f"unknown config action {args.action!r}")
    print(dump_config(load_config(args.config)), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixedae",
        description="Balanced-loss autoencoders for mixed tabular data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic CSV and schema sidecar")
    p.add_argument("--context", default="imbalanced", choices=tabular.CONTEXTS)
    p.add_argument("--n", type=int, default=2000)
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
    except (MixedAEError, FileNotFoundError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
