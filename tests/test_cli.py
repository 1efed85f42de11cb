"""End-to-end command-line tests."""

import contextlib
import io
import json
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedae import experiments, models, tabular
from mixedae.cli import DEFAULTS, build_parser, dump_config, load_config, main
from mixedae.experiments import DataSource, load_report_csv
from mixedae.models import AutoencoderConfig, TrainedVAE, load_model
from mixedae.errors import ConfigError, MixedAEError


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def tiny_experiment_config(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[data]\n"
        "n = 1200\n"
        "[experiment]\n"
        "runs = 1\n"
        "epochs = 20\n"
        "losses = standard\n"
        "seed = 3\n"
        "[output]\n"
        f"dir = {tmp_path / 'out'}\n"
    )
    return cfg


@pytest.fixture()
def no_training(monkeypatch):
    """Fail the test if an autoencoder arm starts training."""
    def fail(*args, **kwargs):
        raise AssertionError("an arm trained")

    monkeypatch.setattr(models, "train_autoencoder_arms", fail)


class TestConfig:
    def test_dump_contains_all_defaults(self, capsys):
        assert run_cli("config", "dump") == 0
        out = capsys.readouterr().out
        for section, values in DEFAULTS.items():
            assert f"[{section}]" in out
            for key in values:
                assert key in out

    def test_dump_round_trips(self, tmp_path, capsys):
        run_cli("config", "dump")
        text = capsys.readouterr().out
        path = tmp_path / "dumped.ini"
        path.write_text(text)
        assert load_config(str(path)) == load_config(None)

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[experiment]\nbogus = 1\n")
        assert run_cli("experiment", "--config", str(cfg), "--dry-run") == 2

    def test_unknown_section_rejected(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[nope]\nx = 1\n")
        assert run_cli("experiment", "--config", str(cfg), "--dry-run") == 2

    def test_json_config_equivalent(self, tmp_path):
        ini = tmp_path / "a.ini"
        ini.write_text("[experiment]\nruns = 7\n")
        js = tmp_path / "a.json"
        js.write_text(json.dumps({"experiment": {"runs": 7}}))
        assert load_config(str(ini)) == load_config(str(js))

    def test_defaults_have_one_source(self):
        args = build_parser().parse_args(["generate", "--out", "data.csv"])
        assert (args.context, args.n) == (DataSource().context, DataSource().n)
        assert DEFAULTS["data"]["source"] == DataSource().kind
        assert DEFAULTS["train"]["loss"] == AutoencoderConfig().loss.label

    def test_dump_config_format(self):
        text = dump_config(load_config(None))
        assert "[data]" in text and "source = synthetic" in text

    @pytest.mark.parametrize(
        "name, content",
        [
            ("list.json", b"[1, 2]"),
            ("section.json", b'{"data": 3}'),
            ("percent.ini", b"[data]\ncontext = 50%\n"),
            ("latin1.ini", b"[data]\ncontext = caf\xe9\n"),
        ],
    )
    def test_malformed_file_exits_2(self, tmp_path, capsys, name, content):
        cfg = tmp_path / name
        cfg.write_bytes(content)
        with pytest.raises(ConfigError):
            load_config(str(cfg))
        assert run_cli("experiment", "--config", str(cfg), "--dry-run") == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["directory", "missing"])
    def test_unreadable_config_path_exits_2(self, tmp_path, capsys, where):
        path = tmp_path if where == "directory" else tmp_path / "absent.ini"
        with pytest.raises(ConfigError):
            load_config(str(path))
        assert run_cli("experiment", "--config", str(path), "--dry-run") == 2
        assert "config error" in capsys.readouterr().err


SECTIONS = sorted(DEFAULTS) + ["DEFAULT", "nope", ""]
KEYS = sorted({k for values in DEFAULTS.values() for k in values}) + ["bogus"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(SECTIONS + KEYS) | st.text(max_size=4), inner, max_size=3),
    max_leaves=10,
)
ini_lines = st.one_of(
    st.sampled_from(SECTIONS).map(lambda s: f"[{s}]"),
    st.tuples(st.sampled_from(KEYS) | st.text(max_size=4), st.text(max_size=8)).map(" = ".join),
    st.text(max_size=12),
)
config_files = st.one_of(
    st.text(),
    st.binary(),
    json_values.map(json.dumps),
    st.lists(ini_lines, max_size=6).map("\n".join),
)


@settings(max_examples=400, deadline=None)
@given(content=config_files, suffix=st.sampled_from([".ini", ".json", ".cfg"]))
def test_load_config_loads_or_raises_typed_error(tmp_path_factory, content, suffix):
    path = tmp_path_factory.getbasetemp() / f"fuzz{suffix}"
    path.write_bytes(content.encode("utf-8", "surrogatepass") if isinstance(content, str) else content)
    try:
        cfg = load_config(str(path))
    except MixedAEError:
        return
    assert cfg.keys() == DEFAULTS.keys()
    assert all(isinstance(v, str) for values in cfg.values() for v in values.values())


class TestGenerate:
    def test_row_count_and_schema(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        assert run_cli("generate", "--n", "50", "--seed", "1", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 51  # header + n rows
        sidecar = (tmp_path / "data.schema").read_text().splitlines()
        assert len(sidecar) == 9  # 8 feature columns + target line
        assert sidecar[-1] == "y,target"

    def test_idempotent_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli("generate", "--n", "40", "--seed", "9", "--out", str(a))
        run_cli("generate", "--n", "40", "--seed", "9", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.schema").read_bytes() == (tmp_path / "b.schema").read_bytes()

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_bad_row_count_exits_2(self, tmp_path, capsys, n):
        assert run_cli("generate", "--n", n, "--out", str(tmp_path / "data.csv")) == 2
        assert "config error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_input_not_mutated(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[experiment]\nruns = 1\n")
        before = cfg.read_bytes()
        run_cli("experiment", "--config", str(cfg), "--dry-run")
        assert cfg.read_bytes() == before


class TestTrain:
    def test_autoencoder_train(self, tmp_path, capsys):
        cfg = tmp_path / "train.ini"
        out = tmp_path / "model"
        cfg.write_text(
            f"[data]\nn = 1200\n[train]\nepochs = 20\nseed = 2\n[output]\ndir = {out}\n"
        )
        assert run_cli("train", "--config", str(cfg)) == 0
        assert (out / "model.ckpt").exists()
        curves = (out / "curves.csv").read_text().splitlines()
        assert curves[0] == "epochs,checkpoint,feature,error"
        # exactly 10 checkpoints per encoded feature
        assert len(curves) == 1 + 10 * 33

    def test_empty_category_exit_code(self, tmp_path, capsys):
        # sidecar declares a category that the data never contains
        data = tmp_path / "d.csv"
        data.write_text("a,q\n" + "\n".join(f"{i}.0,u" if i % 2 else f"{i}.0,v" for i in range(10)) + "\n")
        sidecar = tmp_path / "d.schema"
        sidecar.write_text("a,numeric\nq,categorical,u|v|never\n")
        cfg = tmp_path / "train.ini"
        cfg.write_text(
            "[data]\nsource = csv\n"
            f"csv_path = {data}\nschema_path = {sidecar}\n"
            "[train]\nepochs = 5\n"
            f"[output]\ndir = {tmp_path / 'out'}\n"
        )
        assert run_cli("train", "--config", str(cfg)) == 3
        assert "data error" in capsys.readouterr().err

    def test_non_finite_csv_cell_exit_code(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        rows = [f"{i}.0,{'uv'[i % 2]}" for i in range(9)] + ["inf,u"]
        data.write_text("a,q\n" + "\n".join(rows) + "\n")
        cfg = tmp_path / "train.ini"
        cfg.write_text(
            f"[data]\nsource = csv\ncsv_path = {data}\n"
            f"[train]\nepochs = 5\n[output]\ndir = {tmp_path / 'out'}\n"
        )
        assert run_cli("train", "--config", str(cfg)) == 3
        assert "row 11" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["non-utf8", "directory"])
    def test_unreadable_csv_exit_code(self, tmp_path, capsys, where):
        data = tmp_path / "d.csv"
        if where == "directory":
            data.mkdir()
        else:
            rows = b"".join(b"%d.0,%s\n" % (i, b"u\xff" if i % 2 else b"v") for i in range(10))
            data.write_bytes(b"a,q\n" + rows)
        cfg = tmp_path / "train.ini"
        cfg.write_text(
            f"[data]\nsource = csv\ncsv_path = {data}\n"
            f"[train]\nepochs = 5\n[output]\ndir = {tmp_path / 'out'}\n"
        )
        assert run_cli("train", "--config", str(cfg)) == 3
        assert "cannot read CSV" in capsys.readouterr().err

    def test_vae_train(self, tmp_path):
        cfg = tmp_path / "train.ini"
        out = tmp_path / "vae"
        cfg.write_text(
            "[data]\nn = 1200\n[experiment]\nmodel = vae\n"
            f"[train]\nepochs = 10\n[output]\ndir = {out}\n"
        )
        assert run_cli("train", "--config", str(cfg)) == 0
        model = load_model(out / "model.ckpt")
        assert isinstance(model, TrainedVAE)
        assert model.config.epochs == 10 and model.config.dim_hidden == 20

    @pytest.mark.parametrize(
        "train_section, flags, epochs",
        [("", (), 2), ("", ("--epochs", "3"), 3), ("epochs = 4\n", (), 4)],
        ids=["vae-section", "flag", "train-section"],
    )
    def test_vae_train_budget(self, tmp_path, train_section, flags, epochs):
        cfg = tmp_path / "train.ini"
        out = tmp_path / "vae"
        cfg.write_text(
            "[data]\nn = 300\n[experiment]\nmodel = vae\n[vae]\nepochs = 2\n"
            f"[train]\n{train_section}[output]\ndir = {out}\n"
        )
        assert run_cli("train", "--config", str(cfg), *flags) == 0
        assert load_model(out / "model.ckpt").config.epochs == epochs

    @pytest.mark.parametrize("text, epochs", [("1000", 3), ("1000,", None), ("01000", 3), ("5", 5)])
    def test_vae_train_epochs_compare_as_values(self, tmp_path, capsys, text, epochs):
        # [train] epochs at its default, however written, leaves the budget to [vae] epochs
        cfg = tmp_path / "train.ini"
        cfg.write_text(
            "[data]\nn = 300\n[experiment]\nmodel = vae\n[vae]\nepochs = 3\n"
            f"[train]\nepochs = {text}\n[output]\ndir = {tmp_path / 'vae'}\n"
        )
        with mock.patch.object(models, "train_vae", wraps=models.train_vae) as train_vae:
            code = run_cli("train", "--config", str(cfg))
        if epochs is None:  # not an integer
            assert code == 2 and "[train] epochs must be an integer" in capsys.readouterr().err
        else:
            assert code == 0
        assert [call.args[2].epochs for call in train_vae.call_args_list] == ([epochs] if epochs else [])

    def test_unknown_model_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "train.ini"
        cfg.write_text(f"[experiment]\nmodel = vea\n[output]\ndir = {tmp_path / 'out'}\n")
        assert run_cli("train", "--config", str(cfg)) == 2
        assert "model" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestExperiment:
    def test_dry_run(self, tiny_experiment_config, capsys):
        assert run_cli("experiment", "--config", str(tiny_experiment_config), "--dry-run") == 0
        assert "config ok" in capsys.readouterr().out

    def test_end_to_end_outputs(self, tiny_experiment_config, tmp_path, capsys):
        assert run_cli("experiment", "--config", str(tiny_experiment_config)) == 0
        out = tmp_path / "out"
        report = (out / "report.csv").read_text().splitlines()
        assert report[0] == "run,context,epochs,loss,metric,value"
        summary = json.loads((out / "summary.json").read_text())
        assert "metrics" in summary
        curves = list((out / "curves").glob("run_*.csv"))
        assert len(curves) == 1

    def test_idempotent_outputs(self, tiny_experiment_config, tmp_path):
        run_cli("experiment", "--config", str(tiny_experiment_config))
        first = (tmp_path / "out" / "report.csv").read_bytes()
        first_curves = (tmp_path / "out" / "curves" / "run_0_standard.csv").read_bytes()
        run_cli("experiment", "--config", str(tiny_experiment_config))
        assert (tmp_path / "out" / "report.csv").read_bytes() == first
        assert (tmp_path / "out" / "curves" / "run_0_standard.csv").read_bytes() == first_curves

    def test_loss_and_epochs_overrides(self, tiny_experiment_config, tmp_path):
        assert (
            run_cli(
                "experiment", "--config", str(tiny_experiment_config),
                "--epochs", "10", "--loss", "balanced", "--out", str(tmp_path / "o2"),
            )
            == 0
        )
        report = (tmp_path / "o2" / "report.csv").read_text()
        assert "balanced" in report and ",10," in report

    @pytest.mark.parametrize(
        "text",
        [
            "[experiment]\nepochs =\n",
            "[experiment]\nepochs = 0\n",
            "[experiment]\nepochs = -5\n",
            "[experiment]\ntask = binary\n",
            "[experiment]\ntask = multiclass\n",
            "[data]\ncoeffs = 1,a\n",
            "[experiment]\nmodel = vea\n",
            "[experiment]\nseed = -1\n",
            "[experiment]\nlosses = standard,standard\n",
            "[experiment]\nlosses = balanced,standard,balanced\n",
            "[experiment]\nlosses = blended:0.3,blended:0.30\n",
            "[experiment]\nepochs = 5,5\n",
            "[experiment]\nepochs = 5,2,05\n",
            "[autoencoder]\nlearning_rate = -1\n",
            "[autoencoder]\nlearning_rate = 0\n",
            "[autoencoder]\nlearning_rate = nan\n",
            "[autoencoder]\nlearning_rate = inf\n",
            "[autoencoder]\ndim_z = 0\n",
            "[experiment]\nmodel = vae\n[vae]\nlearning_rate = nan\n",
            "[experiment]\nmodel = vae\n[vae]\ndim_z = 0\n",
            "[data]\ncontext = nope\n",
            "[data]\nn = -5\n",
            "[data]\ncoeffs = 1,1\n",
            "[experiment]\nmodel = vae\n[vae]\ndim_hidden = 0\n",
            "[experiment]\ntest_fraction = 0\n",
            "[experiment]\ntest_fraction = nan\n",
            "[experiment]\ntask = unsupervised\nclusters = 0\n",
            "[experiment]\nlosses =\n",
            "[output]\njobs = -3\n",
        ],
    )
    def test_impossible_values_exit_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        assert run_cli("experiment", "--config", str(cfg), "--dry-run") == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--seed", "-2", "--out", "data.csv"],
            ["train", "--seed", "-1", "--epochs", "1"],
            ["train", "--config", "bad.ini", "--epochs", "1"],
            ["experiment", "--seed", "-1", "--dry-run"],
            ["experiment", "--seed", "-1", "--epochs", "1"],
            ["experiment", "--jobs", "0", "--dry-run"],
            ["experiment", "--jobs", "-7", "--epochs", "1"],
            ["experiment", "--epochs", "2,2", "--dry-run"],
            ["experiment", "--epochs", "3,1,3"],
        ],
    )
    def test_negative_seeds_exit_2_before_any_work(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.ini").write_text("[train]\nseed = -1\n")
        assert run_cli(*argv) == 2
        assert "config error" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.ini"]  # nothing written

    def test_collapsed_reconstruction_is_scored(self, tmp_path):
        # On this seed, at 6 epochs, the balanced arm's test reconstruction
        # holds a single category of Q1: mc gives that column association 0.
        cfg = tmp_path / "collapse.ini"
        cfg.write_text(
            "[data]\nn = 2000\n"
            "[experiment]\nruns = 1\nepochs = 6\nlosses = standard,balanced\nseed = 1025\n"
            f"[output]\ndir = {tmp_path / 'out'}\n"
        )
        assert run_cli("experiment", "--config", str(cfg)) == 0
        rows = [line.split(",") for line in (tmp_path / "out" / "report.csv").read_text().splitlines()]
        mc = [float(r[5]) for r in rows if r[4] == "mc"]
        assert len(mc) == 2 and np.all(np.isfinite(mc))

    def test_vae_dry_run_reports_the_vae_budget(self, tmp_path, capsys):
        cfg = tmp_path / "vae.ini"
        cfg.write_text("[experiment]\nmodel = vae\n[vae]\nepochs = 3\n")
        assert run_cli("experiment", "--config", str(cfg), "--dry-run") == 0
        assert "epochs [3]" in capsys.readouterr().out

    def test_vae_rejects_the_epochs_flag(self, tmp_path, capsys):
        cfg = tmp_path / "vae.ini"
        cfg.write_text(f"[experiment]\nmodel = vae\n[vae]\nepochs = 3\n[output]\ndir = {tmp_path / 'out'}\n")
        in_file = tmp_path / "vae_epochs.ini"
        in_file.write_text(cfg.read_text().replace("model = vae\n", "model = vae\nepochs = 5\n"))
        # the flag is refused at every value, the default included; so is the key in the file
        for argv in (["--epochs", "1"], ["--epochs", "1000"], ["--epochs", "0"]):
            for extra in (["--dry-run"], []):
                assert run_cli("experiment", "--config", str(cfg), *argv, *extra) == 2
                assert "[vae] epochs" in capsys.readouterr().err
        for extra in (["--dry-run"], []):
            assert run_cli("experiment", "--config", str(in_file), *extra) == 2
            assert "[vae] epochs" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, default", [("1000", True), ("1000,", True), ("01000", True), ("5", False)])
    def test_vae_epochs_rule_compares_values(self, tmp_path, capsys, text, default):
        # [experiment] epochs at its default, however written, is not a budget the VAE refuses
        cfg = tmp_path / "vae.ini"
        cfg.write_text(f"[experiment]\nmodel = vae\nepochs = {text}\n[vae]\nepochs = 3\n")
        assert run_cli("experiment", "--config", str(cfg), "--dry-run") == (0 if default else 2)
        assert ("[vae] epochs" in capsys.readouterr().err) is not default

    def test_vae_non_finite_loss_exits_4(self, tmp_path, capsys):
        cfg = tmp_path / "vae.ini"
        cfg.write_text(
            "[data]\nn = 600\n[experiment]\nmodel = vae\nruns = 1\nlosses = standard\n"
            f"[vae]\nepochs = 3\nlearning_rate = 100\n[output]\ndir = {tmp_path / 'out'}\n"
        )
        with np.errstate(all="ignore"):
            assert run_cli("experiment", "--config", str(cfg)) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ")
        assert "standard VAE loss non-finite at epoch 1" in err
        assert not (tmp_path / "out").exists()

    def test_diverging_vae_exits_4_without_numpy_warnings(self, tmp_path, capsys):
        cfg = tmp_path / "vae.ini"
        cfg.write_text(
            "[data]\nn = 600\n[experiment]\nmodel = vae\nruns = 1\nlosses = standard\n"
            f"[vae]\nepochs = 3\nlearning_rate = 100\n[output]\ndir = {tmp_path / 'out'}\n"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("experiment", "--config", str(cfg)) == 4
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert capsys.readouterr().err.startswith("numerical failure: ")

    @pytest.mark.parametrize("where", ["kindless-line", "directory", "non-utf8"])
    def test_unreadable_schema_sidecar_exits_3(self, tmp_path, capsys, where):
        data = tmp_path / "d.csv"
        data.write_text("a,q\n" + "".join(f"{i}.0,{'uv'[i % 2]}\n" for i in range(10)))
        sidecar = tmp_path / "d.schema"
        if where == "directory":
            sidecar.mkdir()
        elif where == "non-utf8":
            sidecar.write_bytes(b"a,numeric\nq,categorical,u|\xff\n")
        else:
            sidecar.write_text("a,numeric\nbroken\n")
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            f"[data]\nsource = csv\ncsv_path = {data}\nschema_path = {sidecar}\n"
            f"[experiment]\ntask = unsupervised\nruns = 1\nepochs = 2\n[output]\ndir = {tmp_path / 'out'}\n"
        )
        assert run_cli("experiment", "--config", str(cfg)) == 3
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "experiment"])
    def test_target_only_csv_exits_3_and_writes_nothing(self, tmp_path, capsys, command):
        data = tmp_path / "d.csv"
        data.write_text("y\n" + "".join(f"{i}.0\n" for i in range(10)))
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            f"[data]\nsource = csv\ncsv_path = {data}\ntarget = y\n[output]\ndir = {tmp_path / 'out'}\n"
        )
        assert run_cli(command, "--config", str(cfg)) == 3
        assert "schema has no columns" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_clusters_above_the_train_split_exit_2_before_training(self, tmp_path, capsys, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("an arm trained")

        monkeypatch.setattr(models, "train_autoencoder_arms", no_training)
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[data]\nn = 1200\n[experiment]\ntask = unsupervised\nclusters = 5000\nruns = 1\n"
            f"[output]\ndir = {tmp_path / 'out'}\n"
        )
        assert run_cli("experiment", "--config", str(cfg)) == 2
        assert "clusters = 5000" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "[data]\nn = 1200\n[experiment]\ntask = unsupervised\nclusters = 5000\n",
                "clusters = 5000 exceeds the 720 rows of the train split",
            ),
            ("[data]\nn = 5\n[experiment]\ntest_fraction = 0.05\n", "leaves an empty split for n=5"),
        ],
    )
    def test_synthetic_split_bounds_exit_2_under_dry_run(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(text)
        assert run_cli("experiment", "--config", str(cfg), "--dry-run") == 2
        assert message in capsys.readouterr().err

    def test_csv_clusters_checked_once_the_csv_loads(self, tmp_path, capsys):
        # a CSV's row count is unknown until it loads, so --dry-run passes;
        # dim_z = 1 sits below the widths of its 3 encoded columns
        data = tmp_path / "d.csv"
        data.write_text("a,q\n" + "".join(f"{i}.0,{'uv'[i % 2]}\n" for i in range(10)))
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            f"[data]\nsource = csv\ncsv_path = {data}\n[autoencoder]\ndim_z = 1\n"
            f"[experiment]\ntask = unsupervised\nclusters = 7\nruns = 1\n[output]\ndir = {tmp_path / 'out'}\n"
        )
        assert run_cli("experiment", "--config", str(cfg), "--dry-run") == 0
        assert run_cli("experiment", "--config", str(cfg)) == 2
        assert "clusters = 7 exceeds the 6 rows of the train split" in capsys.readouterr().err

    def test_missing_target_refused_once_the_csv_loads(self, tmp_path, capsys):
        # only the loaded CSV shows it has no target, so --dry-run passes and
        # the check made once the data has loaded refuses it before any arm trains
        data = tmp_path / "d.csv"
        data.write_text("a,q\n" + "".join(f"{i}.0,{'uv'[i % 2]}\n" for i in range(40)))
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            f"[data]\nsource = csv\ncsv_path = {data}\n[autoencoder]\ndim_z = 1\n"
            f"[experiment]\ntask = regression\nruns = 1\nepochs = 2\n[output]\ndir = {tmp_path / 'out'}\n"
        )
        assert run_cli("experiment", "--config", str(cfg), "--dry-run") == 0
        capsys.readouterr()
        assert run_cli("experiment", "--config", str(cfg)) == 3
        err = capsys.readouterr().err
        assert "needs a target column" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_experiment_reads_the_sidecar_once(self, tmp_path, monkeypatch):
        assert run_cli("generate", "--out", str(tmp_path / "g.csv")) == 0
        reads = []
        real = tabular.load_schema_sidecar

        def counting(path):
            reads.append(path)
            return real(path)

        monkeypatch.setattr(tabular, "load_schema_sidecar", counting)
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            f"[data]\nsource = csv\ncsv_path = {tmp_path / 'g.csv'}\nschema_path = {tmp_path / 'g.schema'}\n"
            f"[experiment]\nruns = 1\nepochs = 2\nlosses = standard\n[output]\ndir = {tmp_path / 'out'}\n"
        )
        assert run_cli("experiment", "--config", str(cfg)) == 0
        assert reads == [str(tmp_path / "g.schema")]

    def test_refused_csv_config_starts_no_worker(self, tmp_path, capsys, monkeypatch):
        started = []

        def no_pool(max_workers):
            started.append(max_workers)
            raise AssertionError(f"a pool of {max_workers} workers started")

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)  # two runs on two workers
        data = tmp_path / "d.csv"
        data.write_text("a,q\n" + "".join(f"{i}.0,{'uv'[i % 2]}\n" for i in range(10)))
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            f"[data]\nsource = csv\ncsv_path = {data}\n[autoencoder]\ndim_z = 1\n"
            f"[experiment]\ntask = unsupervised\nclusters = 7\nruns = 2\n[output]\ndir = {tmp_path / 'out'}\n"
        )
        assert run_cli("experiment", "--config", str(cfg), "--jobs", "2") == 2
        assert "clusters = 7 exceeds the 6 rows of the train split" in capsys.readouterr().err
        assert started == [] and not (tmp_path / "out").exists()

    def test_clusters_do_not_bind_the_vae(self, tmp_path):
        # the VAE scores no silhouette, so no clustering bounds its config
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[data]\nn = 2000\n[experiment]\nmodel = vae\ntask = unsupervised\nclusters = 5000\nruns = 1\n"
            f"[vae]\nepochs = 1\n[output]\ndir = {tmp_path / 'out'}\n"
        )
        assert run_cli("experiment", "--config", str(cfg), "--dry-run") == 0
        assert run_cli("experiment", "--config", str(cfg)) == 0
        assert (tmp_path / "out" / "report.csv").exists()

    def test_msem_names_the_category_missing_from_the_test_split(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[data]\nn = 300\n[experiment]\nruns = 1\nepochs = 3\nlosses = standard\nseed = 1\n"
            f"[output]\ndir = {tmp_path / 'out'}\n"
        )
        assert run_cli("experiment", "--config", str(cfg)) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert "category 'Q5.01' of 'Q5'" in err and "single class" in err

    def test_dim_z_above_the_widths_exits_2_under_dry_run(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[data]\nn = 600\n[autoencoder]\ndim_z = 24\n")
        assert run_cli("experiment", "--config", str(cfg), "--dry-run") == 2
        assert "widths [33, 30, 27, 24] must all exceed dim_z=24" in capsys.readouterr().err

    def test_dim_z_above_a_sidecar_width_exits_2_under_dry_run(self, tmp_path, capsys, monkeypatch):
        assert run_cli("generate", "--n", "300", "--out", str(tmp_path / "g.csv")) == 0
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            f"[data]\nsource = csv\ncsv_path = {tmp_path / 'g.csv'}\nschema_path = {tmp_path / 'g.schema'}\n"
            "[autoencoder]\ndim_z = 40\n"
        )
        capsys.readouterr()
        monkeypatch.setattr(tabular, "read_csv", lambda *a, **k: pytest.fail("the CSV was read"))
        assert run_cli("experiment", "--config", str(cfg), "--dry-run") == 2
        assert "widths [33, 30, 27, 24] must all exceed dim_z=40" in capsys.readouterr().err

    def test_vae_ce_loss_exits_2_under_dry_run(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[experiment]\nmodel = vae\nlosses = standard,ce\n")
        assert run_cli("experiment", "--config", str(cfg), "--dry-run") == 2
        assert "the VAE supports standard/balanced/blended losses only" in capsys.readouterr().err

    def test_dim_z_does_not_bind_the_vae(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[data]\nn = 600\n[experiment]\nmodel = vae\n[autoencoder]\ndim_z = 24\n")
        assert run_cli("experiment", "--config", str(cfg), "--dry-run") == 0

    @pytest.mark.parametrize("source", ["synthetic", "csv"])
    @pytest.mark.usefixtures("no_training")
    def test_dim_z_checked_before_any_arm_trains(self, tmp_path, capsys, source):
        data = tmp_path / "d.csv"
        data.write_text("a,q,y\n" + "".join(f"{i}.0,{'uv'[i % 2]},{i % 3}.5\n" for i in range(20)))
        # the CSV's features encode to 3 columns, below the default dim_z = 10
        section, message = {
            "synthetic": ("[data]\nn = 600\n[autoencoder]\ndim_z = 24\n", "widths [33, 30, 27, 24]"),
            "csv": (f"[data]\nsource = csv\ncsv_path = {data}\ntarget = y\n", "widths [3, 3, 3, 3]"),
        }[source]
        cfg = tmp_path / "exp.ini"
        cfg.write_text(f"{section}[experiment]\nruns = 1\nepochs = 2\n[output]\ndir = {tmp_path / 'out'}\n")
        assert run_cli("experiment", "--config", str(cfg)) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_loss_flag(self, tiny_experiment_config):
        assert (
            run_cli("experiment", "--config", str(tiny_experiment_config), "--loss", "huh")
            == 2
        )


class TestUnusableOutputPath:
    @pytest.mark.parametrize("where", ["flag", "config"])
    @pytest.mark.usefixtures("no_training")
    def test_experiment_refuses_a_file_before_training(self, tmp_path, capsys, where):
        out = tmp_path / "taken"
        out.write_text("kept")
        cfg = tmp_path / "exp.ini"
        cfg.write_text(f"[data]\nn = 600\n[experiment]\nruns = 1\nepochs = 2\n[output]\ndir = {out}\n")
        flags = ["--out", str(out)] if where == "flag" else []
        assert run_cli("experiment", "--config", str(cfg), *flags) == 2
        assert "is not a directory" in capsys.readouterr().err
        assert out.read_text() == "kept"

    def test_train_refuses_a_file_before_the_data_loads(self, tmp_path, capsys, monkeypatch):
        def no_data(*args, **kwargs):
            raise AssertionError("the data loaded")

        monkeypatch.setattr(experiments, "load_source", no_data)
        out = tmp_path / "taken"
        out.write_text("kept")
        assert run_cli("train", "--out", str(out)) == 2
        assert "is not a directory" in capsys.readouterr().err
        assert out.read_text() == "kept"

    def test_train_below_a_file_is_a_data_error(self, tmp_path, capsys):
        (tmp_path / "file").write_text("kept")
        cfg = tmp_path / "train.ini"
        cfg.write_text("[data]\nn = 1200\n[train]\nepochs = 2\n")
        assert run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "file" / "sub")) == 3
        assert capsys.readouterr().err.startswith("data error: ")

    @pytest.mark.parametrize("command", ["train", "experiment"])
    def test_below_a_file_exits_3_before_any_work(self, tmp_path, capsys, monkeypatch, command):
        def fail(*args, **kwargs):
            raise AssertionError("the data loaded or a model trained")

        for module, name in [(experiments, "load_source"), (models, "train_autoencoder_arms"),
                             (models, "train_autoencoder"), (models, "train_vae_arms"), (models, "train_vae")]:
            monkeypatch.setattr(module, name, fail)
        (tmp_path / "file").write_text("kept")
        out = tmp_path / "file" / "sub" / "deeper"
        assert run_cli(command, "--out", str(out)) == 3
        assert capsys.readouterr().err == f"data error: {tmp_path / 'file'} exists and is not a directory\n"
        assert (tmp_path / "file").read_text() == "kept"

    def test_generate_to_a_directory_is_a_data_error(self, tmp_path, capsys):
        assert run_cli("generate", "--n", "20", "--out", str(tmp_path)) == 3
        assert capsys.readouterr().err.startswith("data error: ")

    def test_plot_data_to_a_directory_is_a_data_error(self, tmp_path, capsys):
        report = tmp_path / "report.csv"
        report.write_text(f"{HEADER}\n0,x,10,standard,msem,0.5\n")
        assert run_cli("report", str(report), "--plot-data", str(tmp_path)) == 3
        assert capsys.readouterr().err.startswith("data error: ")


class TestReport:
    def test_table_and_plot_data(self, tiny_experiment_config, tmp_path, capsys):
        run_cli("experiment", "--config", str(tiny_experiment_config))
        capsys.readouterr()
        plot = tmp_path / "plot.csv"
        assert run_cli(
            "report", str(tmp_path / "out" / "report.csv"), "--plot-data", str(plot)
        ) == 0
        out = capsys.readouterr().out
        assert "msem" in out and "baseline" in out
        lines = plot.read_text().splitlines()
        assert lines[0] == "metric,epochs,loss,mean,std"
        # sorted by metric then epochs
        rows = [line.split(",") for line in lines[1:]]
        keys = [(r[0], int(r[1])) for r in rows]
        assert keys == sorted(keys)

    def test_missing_file(self, capsys):
        assert run_cli("report", "/nonexistent/report.csv") == 3
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, error",
        [
            (b"run,context,epochs,metric,value\n0,x,10,msem,0.5\n", "its header has no 'loss' column"),
            (b"run,epochs,loss,metric,value\n0,10,standard,msem,0.5\n", "its header has no 'context' column"),
            (b"run,context,epochs,loss,metric,value\n0,x,abc,standard,msem,0.5\n", "ValueError"),
            (b"run,context,epochs,loss,metric,value\n0,x,10,standard,msem,0.5\xff\n", "UnicodeDecodeError"),
            (b"run,context,epochs,loss,metric,value\n0,x,10,standard,msem\n", "too few cells"),
            (b"run,context,epochs,loss,metric,value\n0,x,10,standard,msem,0.5,EXTRA\n", "too many cells"),
            (b"run,context,epochs,loss,metric,value\n0,x,10,standard,msem,0.5\n1,x,10,standard,msem,0.5\n"
             b"0,x,10,standard,msem,0.7\n", "data row 3 repeats run, epochs, loss and metric (0, 10, 'standard', 'msem')"),
            (b"", "it has no data rows"),
            (b"run,context,epochs,loss,metric,value\n", "it has no data rows"),
        ],
        ids=["missing-column", "missing-context", "bad-epochs", "non-utf8", "short-row", "long-row", "repeated-row",
             "empty", "header-only"],
    )
    def test_malformed_file_is_a_data_error(self, tmp_path, capsys, content, error):
        path = tmp_path / "report.csv"
        path.write_bytes(content)
        assert run_cli("report", str(path)) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and error in err

    def test_directory_is_a_data_error(self, tmp_path, capsys):
        assert run_cli("report", str(tmp_path)) == 3
        assert "IsADirectoryError" in capsys.readouterr().err


HEADER = "run,context,epochs,loss,metric,value"
report_cells = st.sampled_from(["0", "10", "-1", "1e3", "nan", "x", "", '"a,b"', "msem", "0.25"])
report_files = st.one_of(
    st.binary(),
    st.text(),
    st.tuples(
        st.sampled_from([HEADER, HEADER.replace("loss", "los"), "value,run,epochs,context,loss,metric"]),
        st.lists(st.lists(report_cells, max_size=8).map(",".join), max_size=5),
    ).map(lambda t: "\n".join([t[0], *t[1]])),
)


@settings(max_examples=300, deadline=None)
@given(content=report_files)
def test_report_loads_or_raises_typed_error(tmp_path_factory, content):
    path = tmp_path_factory.getbasetemp() / "fuzz-report.csv"
    path.write_bytes(content.encode("utf-8", "surrogatepass") if isinstance(content, str) else content)
    try:
        report = load_report_csv(path)
    except MixedAEError:
        report = None
    else:
        assert all(isinstance(v, str) for r in report.rows for v in (r.loss, r.metric))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert run_cli("report", str(path)) == (3 if report is None else 0)


experiment_configs = st.fixed_dictionaries({
    "source": st.sampled_from(["synthetic", "csv", "csv+sidecar"]),
    "target": st.booleans(),  # a CSV without a sidecar names its target in [data], or leaves it a feature
    "model": st.sampled_from(["autoencoder", "vae"]),
    "task": st.sampled_from(["regression", "unsupervised"]),
    "n": st.integers(1, 1200),
    "test_fraction": st.floats(0.01, 0.99),
    "dim_z": st.integers(1, 30),
    "clusters": st.integers(1, 12) | st.integers(1, 1000),
    "losses": st.lists(st.sampled_from(["standard", "balanced", "blended:0.3", "ce"]),
                       min_size=1, max_size=3, unique=True),
    "epochs": st.lists(st.integers(1, 2), min_size=1, max_size=2),
    "seed": st.integers(0, 3),
})


@settings(max_examples=25, deadline=None)
@given(c=experiment_configs)
def test_experiment_config_never_fails_late_as_a_config_error(tmp_path_factory, c):
    """Every experiment config, on synthetic data or on a CSV written by
    tabular.write_csv with or without a sidecar, ends in a documented exit
    code. A config refused (exit 2) under --dry-run is refused by the run
    too, and none is refused after an arm has trained. A synthetic config
    that passes --dry-run is never refused later; a CSV's row count and
    target are known only once it loads."""
    base = tmp_path_factory.mktemp("prop")
    model_section = "vae" if c["model"] == "vae" else "autoencoder"
    epochs = ",".join(map(str, c["epochs"]))
    data = f"[data]\nn = {c['n']}\n"
    if c["source"] != "synthetic":
        table = tabular.generate_synthetic("imbalanced", c["n"], c["seed"])
        tabular.write_csv(table, base / "d.csv")
        data = f"[data]\nsource = csv\ncsv_path = {base / 'd.csv'}\n"
        if c["source"] == "csv+sidecar":
            tabular.save_schema_sidecar(table.schema, base / "d.schema", target=table.target_name)
            data += f"schema_path = {base / 'd.schema'}\n"
        elif c["target"]:
            data += f"target = {table.target_name}\n"
    cfg = base / "exp.ini"
    cfg.write_text(
        data
        + f"[experiment]\nmodel = {c['model']}\ntask = {c['task']}\nruns = 1\nseed = {c['seed']}\n"
        f"test_fraction = {c['test_fraction']!r}\nclusters = {c['clusters']}\nlosses = {','.join(c['losses'])}\n"
        + (f"epochs = {epochs}\n" if c["model"] == "autoencoder" else "")
        + f"[{model_section}]\ndim_z = {c['dim_z']}\n"
        + (f"epochs = {c['epochs'][-1]}\n" if c["model"] == "vae" else "")
        + f"[output]\ndir = {base / 'out'}\n"
    )
    codes = []
    trainers = [mock.patch.object(models, name, wraps=getattr(models, name))
                for name in ("train_autoencoder_arms", "train_vae_arms")]
    for flags in (["--dry-run"], []):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), warnings.catch_warnings(), \
                trainers[0] as ae_arms, trainers[1] as vae_arms:
            warnings.simplefilter("error")
            codes.append(run_cli("experiment", "--config", str(cfg), *flags))
        assert codes[-1] in (0, 2, 3, 4), err.getvalue()
    assert codes[0] != 2 or codes[1] == 2, err.getvalue()
    assert c["source"] != "synthetic" or codes[0] != 0 or codes[1] != 2, err.getvalue()
    assert codes[1] != 2 or ae_arms.call_count + vae_arms.call_count == 0, err.getvalue()
