"""Autoencoder and VAE construction, training, and sampling tests."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixedae.models as models
from mixedae import errors, metrics, nn, tabular
from mixedae.losses import LossWeights, compute_balance_weights
from mixedae.models import (
    AutoencoderConfig,
    VAEConfig,
    build_autoencoder,
    build_vae,
    checkpoint_epochs,
    latent,
    load_model,
    parse_loss,
    reconstruct,
    reparameterize,
    save_model,
    train_autoencoder,
    train_vae,
    vae_generate,
    vae_loss,
    vae_reconstruct,
)
from mixedae.rng import make_rng
from oracles import chained_autoencoder_budgets, same_dataset, separate_vae, whole_vae_generate
from mixedae.tabular import (
    Dataset,
    encode,
    fit_encoder,
    generate_synthetic,
    split,
)


@pytest.fixture(scope="module")
def synthetic_split():
    data = generate_synthetic("imbalanced", 600, seed=21)
    train, test = split(data, 0.4, seed=2)
    enc = fit_encoder(train)
    return train, test, enc


def nets_equal(a, b):
    return all(
        np.array_equal(la.W, lb.W) and np.array_equal(la.b, lb.b)
        for la, lb in zip(a.layers, b.layers)
    )


def wide_data(n=4000):
    """n rows of 300 encoded columns: 2 numerics and 12 categoricals of 20 to 30 categories."""
    rng = np.random.default_rng(4)
    cards = [20, 21, 22, 23, 24, 25, 25, 26, 27, 28, 29, 28]
    schema = tabular.Schema(
        (tabular.Column("a"), tabular.Column("b"))
        + tuple(tabular.Column(f"c{i}", tuple(map(str, range(k)))) for i, k in enumerate(cards))
    )
    columns = {"a": rng.normal(size=n), "b": rng.random(n)}
    columns.update({f"c{i}": np.arange(n) % k for i, k in enumerate(cards)})
    return Dataset(schema, columns, y=rng.normal(size=n))


class TestParseLoss:
    def test_kinds(self):
        assert parse_loss("standard").kind == "standard"
        assert parse_loss("blended:0.25").alpha == 0.25
        assert parse_loss("blended:0.25").label == "blended:0.25"

    def test_bad_values(self):
        with pytest.raises(errors.ConfigError):
            parse_loss("nope")
        with pytest.raises(errors.ConfigError):
            parse_loss("blended:1.5")
        with pytest.raises(errors.ConfigError):
            parse_loss("blended:x")
        with pytest.raises(errors.ConfigError):  # only blended mixes in an alpha
            models.LossSpec("balanced", 0.3)


class TestBuildAutoencoder:
    def test_widths(self):
        phi, psi = build_autoencoder(34, 10, seed=0)
        enc_dims = [l.W.shape[1] for l in phi.layers] + [phi.out_width]
        assert enc_dims == [34, 31, 28, 25, 10]
        dec_dims = [l.W.shape[1] for l in psi.layers] + [psi.out_width]
        assert dec_dims == [10, 25, 28, 31, 34]
        assert all(l.activation == "tanh" for l in phi.layers + psi.layers)

    def test_degenerate_width(self):
        with pytest.raises(errors.DegenerateWidth):
            build_autoencoder(9, 10, seed=0)

    def test_deterministic(self):
        a1, d1 = build_autoencoder(33, 10, seed=5)
        a2, d2 = build_autoencoder(33, 10, seed=5)
        assert nets_equal(a1, a2) and nets_equal(d1, d2)


class TestCheckpointEpochs:
    def test_even_division(self):
        assert checkpoint_epochs(1000) == [100 * k for k in range(1, 11)]

    def test_always_ten_points(self):
        for epochs in (1, 7, 10, 13, 999, 1000):
            cps = checkpoint_epochs(epochs)
            assert len(cps) == 10
            assert cps[-1] == epochs


class TestTrainAutoencoder:
    def test_deterministic(self, synthetic_split):
        train, _, enc = synthetic_split
        cfg = AutoencoderConfig(epochs=20, seed=3)
        m1 = train_autoencoder(train, enc, cfg)
        m2 = train_autoencoder(train, enc, AutoencoderConfig(epochs=20, seed=3))
        assert nets_equal(m1.encoder_net, m2.encoder_net)
        assert nets_equal(m1.decoder_net, m2.decoder_net)
        assert np.array_equal(m1.curves.errors, m2.curves.errors)

    def test_unit_weight_balanced_equals_standard(self, synthetic_split):
        train, _, enc = synthetic_split
        unit = LossWeights.unit(enc.width)
        ms = train_autoencoder(train, enc, AutoencoderConfig(epochs=15, seed=4, loss="standard"))
        mb = train_autoencoder(
            train, enc, AutoencoderConfig(epochs=15, seed=4, loss="balanced"), weights=unit
        )
        assert nets_equal(ms.encoder_net, mb.encoder_net)
        assert nets_equal(ms.decoder_net, mb.decoder_net)
        assert np.array_equal(ms.curves.errors, mb.curves.errors)

    def test_constant_rows_learned(self, synthetic_split):
        # a batch of identical rows is trivially learnable to high precision
        train, _, enc = synthetic_split
        model = train_autoencoder(train.take(np.full(64, 3)), enc, AutoencoderConfig(epochs=1000, seed=5))
        assert model.curves.errors[-1].mean() < 1e-3

    def test_curve_shape_and_finiteness(self, synthetic_split):
        train, _, enc = synthetic_split
        model = train_autoencoder(train, enc, AutoencoderConfig(epochs=30, seed=6))
        assert model.curves.errors.shape == (10, enc.width)
        assert np.all(np.isfinite(model.curves.errors))
        assert model.curves.feature_names == enc.feature_names()

    def test_balanced_uses_encoder_weights(self, synthetic_split):
        train, _, enc = synthetic_split
        cfg = AutoencoderConfig(epochs=5, seed=7, loss="balanced")
        default = train_autoencoder(train, enc, cfg)
        given = train_autoencoder(train, enc, cfg, weights=compute_balance_weights(enc))
        assert nets_equal(default.encoder_net, given.encoder_net)
        assert nets_equal(default.decoder_net, given.decoder_net)
        assert np.array_equal(default.curves.errors, given.curves.errors)

    def test_weights_of_another_width_rejected(self, synthetic_split):
        train, _, enc = synthetic_split
        cfg = AutoencoderConfig(epochs=1, loss="balanced")
        with pytest.raises(errors.ShapeError):
            train_autoencoder(train, enc, cfg, weights=LossWeights.unit(enc.width - 1))


class TestTrainAutoencoderBudgets:
    @pytest.mark.parametrize("loss", ["standard", "balanced", "ce"])
    def test_snapshots_equal_separate_training(self, synthetic_split, loss):
        train, _, enc = synthetic_split
        snaps = models.train_autoencoder_arms(train, enc, AutoencoderConfig(loss=loss, seed=6), (loss,), (3, 7))[0]
        assert list(snaps) == [3, 7]
        for budget, snap in snaps.items():
            alone = train_autoencoder(train, enc, AutoencoderConfig(epochs=budget, loss=loss, seed=6))
            assert snap.config == alone.config
            assert nets_equal(snap.encoder_net, alone.encoder_net)
            assert nets_equal(snap.decoder_net, alone.decoder_net)
            assert np.array_equal(snap.curves.checkpoints, alone.curves.checkpoints)
            assert np.array_equal(snap.curves.errors, alone.curves.errors)

    def test_bad_budgets(self, synthetic_split):
        train, _, enc = synthetic_split
        for budgets in ((), (5, 0)):
            with pytest.raises(errors.ConfigError):
                models.train_autoencoder_arms(train, enc, AutoencoderConfig(), ("standard",), budgets)


class TestLockstepArms:
    def test_autoencoder_arms_equal_chained_per_arm_training(self, synthetic_split):
        train, _, enc = synthetic_split
        X = encode(train, enc)
        losses = ("standard", "balanced", "blended:0.3", "ce")
        arms = models.train_autoencoder_arms(train, enc, AutoencoderConfig(seed=6), losses, (3, 7))
        assert len(arms) == len(losses)
        for loss, snaps in zip(losses, arms):
            ref = chained_autoencoder_budgets(X, AutoencoderConfig(loss=loss, seed=6), (3, 7))
            assert list(snaps) == [3, 7]
            for budget, snap in snaps.items():
                phi, psi, curve = ref[budget]
                assert snap.config == AutoencoderConfig(epochs=budget, loss=loss, seed=6)
                assert np.array_equal(snap.encoder_net.params, phi.params)
                assert np.array_equal(snap.decoder_net.params, psi.params)
                assert np.array_equal(snap.curves.errors, curve)

    def test_vae_arms_equal_separate_training(self, synthetic_split):
        train, _, enc = synthetic_split
        X = encode(train, enc)
        losses = ("standard", "balanced", "blended:0.3")
        arms = models.train_vae_arms(train, enc, VAEConfig(epochs=4, seed=9), losses)
        assert len(arms) == len(losses)
        for loss, got in zip(losses, arms):
            cfg = VAEConfig(epochs=4, seed=9, loss=loss)
            nets = separate_vae(X, train.y, cfg)
            assert got.config == cfg
            for a, b in zip(got.nets.all(), nets.all()):
                assert a.params.ndim == 1 and np.array_equal(a.params, b.params)

    def test_fits_select_weights_unchecked_per_batch(self, synthetic_split, monkeypatch):
        # rows made from codes are 0/1 in every one-hot column, so no fit checks them
        train, _, enc = synthetic_split
        selected = []
        real = LossWeights.select

        def recording(self, target, checked=False):
            selected.append((target.shape[0], checked))
            return real(self, target, checked)

        monkeypatch.setattr(LossWeights, "select", recording)
        cfg = AutoencoderConfig(batch_size=64, seed=1)
        models.train_autoencoder_arms(train, enc, cfg, ("standard", "balanced", "blended:0.3"), (2, 3))
        models.train_vae_arms(train, enc, VAEConfig(epochs=2, batch_size=100, seed=1), ("balanced", "standard"))
        ae, vae = ([min(size, train.n - start) for start in range(0, train.n, size)] for size in (64, 100))
        assert selected == [(rows, True) for rows in ae * 3 + vae * 2]  # short last batches included
        selected.clear()
        models.train_autoencoder_arms(train, enc, cfg, ("standard", "ce"), (2,))
        assert selected == []

    def test_wide_vae_fit_holds_no_training_matrix(self):
        import tracemalloc

        data = wide_data()
        enc = fit_encoder(data)
        matrix_bytes = data.n * enc.width * 8
        assert enc.width == 300
        tracemalloc.start()
        try:
            models.train_vae_arms(data, enc, VAEConfig(epochs=1, seed=3), ("standard", "balanced"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # each step builds its own 256 rows and their weights from the codes (0.56 x
        # here); an encoded training matrix held for the fit adds 1 x
        assert peak < matrix_bytes

    def test_checkpoint_scores_hold_one_activation_at_a_time(self):
        import tracemalloc

        data = generate_synthetic("imbalanced", 12000, seed=4)
        enc = fit_encoder(data)
        X = encode(data, enc)
        for losses in (("standard", "balanced"), ("standard", "balanced", "ce")):
            tracemalloc.start()
            try:
                models.train_autoencoder_arms(data, enc, AutoencoderConfig(seed=3), losses, (1,))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # the fit encodes the split only to score the checkpoint (1 x, plus 0.24 x
            # of codes held for the fit), and scoring an arm runs its whole network and
            # holds only its output, scored and squared in place (4.5 x here with 2 arms,
            # 4.8 x with 3; chaining the encoder into the decoder read 4.8 x and 4.9 x,
            # since the caller kept the n x dim_z latents alive). Before
            # the fit made its own matrix, a whole trace of each half, which held every
            # activation as well, read 5.1 x without the matrix, and a copy for the
            # scores and one for their error took 3 arms to 4.6 x
            assert peak < 5 * X.values.nbytes, losses

    def test_no_arms_rejected(self, synthetic_split):
        train, _, enc = synthetic_split
        with pytest.raises(errors.ConfigError):
            models.train_autoencoder_arms(train, enc, AutoencoderConfig(), (), (3,))
        with pytest.raises(errors.ConfigError):
            models.train_vae_arms(train, enc, VAEConfig(), ())


class TestTrainingLoop:
    @pytest.mark.parametrize("batch_size", [64, 100])
    def test_batches_equal_rows_of_the_encoded_matrix(self, synthetic_split, batch_size):
        # each step's rows and weights, the short last batch included, are those
        # rows of the whole encoded matrix and of its weight table, bit for bit
        train, _, enc = synthetic_split
        X = encode(train, enc).values
        weights = compute_balance_weights(enc)
        table = weights.select(X)
        cfg = AutoencoderConfig(batch_size=batch_size, seed=2)
        sizes = []
        for batches in models._epochs(tabular.row_source(train, enc), train.n, cfg, weights, 2):
            for idx, xb, wb in batches:
                assert xb.tobytes() == X[idx].tobytes() and wb.tobytes() == table[idx].tobytes()
                sizes.append(len(idx))
        assert sum(sizes) == 2 * train.n and sizes[-1] == train.n % batch_size > 0

    def test_one_adam_step_per_batch_on_one_buffer(self, synthetic_split, monkeypatch):
        train, _, enc = synthetic_split
        n = train.n
        calls = []

        def counting_adam_step(state, params, grad, lr):
            calls.append((state, params))
            nn.adam_step(state, params, grad, lr)

        monkeypatch.setattr(models, "adam_step", counting_adam_step)
        models.train_autoencoder_arms(train, enc, AutoencoderConfig(batch_size=64, seed=1), ("standard", "balanced"), (2, 3))
        assert len(calls) == 3 * -(-n // 64)
        assert len({id(state) for state, _ in calls}) == 1
        calls.clear()
        cfg = VAEConfig(epochs=2, batch_size=100, dim_hidden=8, seed=1)
        models.train_vae_arms(train, enc, cfg, ("standard", "balanced"))
        assert len(calls) == 2 * -(-n // 100)  # not six per batch, one per network
        assert len({id(state) for state, _ in calls}) == 1
        six = build_vae(enc.width, cfg.dim_hidden, cfg.dim_z, seed=0).all()
        assert calls[0][1].shape == (2, sum(net.params.size for net in six))

    def test_vae_non_finite_loss_names_arm_and_epoch(self, synthetic_split):
        train, _, enc = synthetic_split
        # one batch per epoch: the first step's loss is finite, the second's is not
        cfg = VAEConfig(epochs=5, batch_size=512, learning_rate=100.0, seed=1)
        with np.errstate(all="ignore"), pytest.raises(errors.NonFinite) as e:
            models.train_vae_arms(train, enc, cfg, ("blended:0.3", "standard"))
        assert str(e.value) == "blended:0.3 VAE loss non-finite at epoch 2"

    def test_autoencoder_non_finite_loss_names_arm_and_epoch(self, synthetic_split, monkeypatch):
        # the final tanh keeps the real loss finite, so the weighted arm's
        # loss is made NaN from its second epoch on
        train, _, enc = synthetic_split
        per_epoch = -(-train.n // 128)
        weighted_calls = []
        real = models._weighted_mse

        def nan_from_epoch_2(pred, target, w=None, alpha=None, out=None):
            value, grad = real(pred, target, w, alpha, out=out)
            if w is not None:
                weighted_calls.append(1)
                if len(weighted_calls) > per_epoch:
                    value = np.nan
            return value, grad

        monkeypatch.setattr(models, "_weighted_mse", nan_from_epoch_2)
        with pytest.raises(errors.NonFinite) as e:
            models.train_autoencoder_arms(train, enc, AutoencoderConfig(seed=1), ("standard", "balanced"), (4,))
        assert str(e.value) == "balanced loss became non-finite at epoch 2"


@pytest.fixture(scope="module")
def model(synthetic_split):
    train, _, enc = synthetic_split
    return train_autoencoder(train, enc, AutoencoderConfig(epochs=300, seed=8))


class TestReconstructAndLatent:
    def test_schema_preserved(self, model, synthetic_split):
        train, test, _ = synthetic_split
        rec = reconstruct(model, test)
        assert rec.schema == test.schema
        assert rec.n == test.n
        assert np.array_equal(rec.y, test.y)  # target carried through

    def test_one_hot_valid_after_decode(self, model, synthetic_split):
        _, test, enc = synthetic_split
        rec = reconstruct(model, test)
        m = encode(rec, enc)
        for g in enc.categorical_groups():
            assert np.array_equal(m.values[:, g].sum(axis=1), np.ones(test.n))

    def test_beats_majority_baseline(self, model, synthetic_split):
        train, _, enc = synthetic_split
        rec = reconstruct(model, train)
        majority = Dataset(
            train.schema,
            {
                c.name: (
                    np.full(train.n, int(np.argmax(enc.category_counts[c.name])))
                    if c.is_categorical
                    else np.full(train.n, train.column(c.name).mean())
                )
                for c in train.schema.columns
            },
        )
        assert metrics.msem(train, rec, enc) < metrics.msem(train, majority, enc)

    def test_latent_shape_and_range(self, model, synthetic_split):
        _, test, _ = synthetic_split
        z = latent(model, test)
        assert z.shape == (test.n, model.config.dim_z)
        assert np.all(np.abs(z) < 1.0)
        assert np.array_equal(z, latent(model, test))


def save_autoencoder_before_save_model(model, path):
    """The autoencoder checkpoint writer that ``save_model`` replaced, verbatim."""
    header = {
        "kind": "autoencoder",
        "schema_hash": tabular.schema_hash(model.state.schema),
        "config": {
            "dim_z": model.config.dim_z,
            "epochs": model.config.epochs,
            "batch_size": model.config.batch_size,
            "learning_rate": model.config.learning_rate,
            "loss": model.config.loss.label,
            "seed": model.config.seed,
        },
        "seed": model.config.seed,
        "encoder_state": tabular.encoder_to_dict(model.state),
    }
    nn.write_networks(path, [model.encoder_net, model.decoder_net], header)


class TestSaveLoad:
    @pytest.fixture(scope="class")
    def autoencoder(self, synthetic_split):
        train, _, enc = synthetic_split
        return train_autoencoder(train, enc, AutoencoderConfig(epochs=10, seed=9, loss="balanced"))

    @pytest.fixture(scope="class")
    def vae(self, synthetic_split):
        train, _, enc = synthetic_split
        return train_vae(train, enc, VAEConfig(epochs=6, seed=10, loss="balanced"))

    def test_round_trip(self, autoencoder, synthetic_split, tmp_path):
        _, test, enc = synthetic_split
        path = tmp_path / "model.ckpt"
        save_model(autoencoder, path)
        back = load_model(path)
        assert isinstance(back, models.TrainedAutoencoder)
        assert nets_equal(autoencoder.encoder_net, back.encoder_net)
        assert nets_equal(autoencoder.decoder_net, back.decoder_net)
        assert back.config == autoencoder.config
        assert back.state.numeric_range == enc.numeric_range
        assert same_dataset(reconstruct(back, test), reconstruct(autoencoder, test))
        assert np.array_equal(latent(back, test), latent(autoencoder, test))

    def test_vae_round_trip(self, vae, synthetic_split, tmp_path):
        _, test, _ = synthetic_split
        path = tmp_path / "vae.ckpt"
        save_model(vae, path)
        back = load_model(path)
        assert isinstance(back, models.TrainedVAE)
        assert all(nets_equal(a, b) for a, b in zip(vae.nets.all(), back.nets.all()))
        assert back.config == vae.config
        assert back.y_range == vae.y_range
        assert same_dataset(vae_reconstruct(back, test), vae_reconstruct(vae, test))
        assert same_dataset(vae_generate(back, 300, seed=4), vae_generate(vae, 300, seed=4))

    def test_checkpoint_of_the_former_writer_loads(self, autoencoder, synthetic_split, tmp_path):
        _, test, _ = synthetic_split
        old, new = tmp_path / "old.ckpt", tmp_path / "new.ckpt"
        save_autoencoder_before_save_model(autoencoder, old)
        save_model(autoencoder, new)
        assert new.read_bytes() == old.read_bytes()
        assert same_dataset(reconstruct(load_model(old), test), reconstruct(autoencoder, test))

    @pytest.mark.parametrize(
        "change",
        [
            {"kind": None},
            {"kind": "vea"},
            {"kind": ["vae"]},
            {"kind": "vae"},
            {"config": None},
            {"config": [1, 2]},
            {"config": {"dim_z": 10, "bogus": 1}},
            {"encoder_state": None},
            {"encoder_state": {"schema": []}},
        ],
        ids=str,
    )
    def test_malformed_header_is_a_typed_error(self, autoencoder, tmp_path, change):
        path = tmp_path / "model.ckpt"
        save_model(autoencoder, path)
        nets, header = nn.read_networks(path)
        header.update(change)
        header = {k: v for k, v in header.items() if v is not None}
        nn.write_networks(path, nets, header)
        with pytest.raises(errors.DataError, match="malformed checkpoint header"):
            load_model(path)

    @pytest.mark.parametrize("kind", ["autoencoder", "vae"])
    def test_header_schema_must_match_its_hash(self, autoencoder, vae, tmp_path, kind):
        path = tmp_path / "model.ckpt"
        save_model(autoencoder if kind == "autoencoder" else vae, path)
        nets, header = nn.read_networks(path)
        column = next(c for c in header["encoder_state"]["schema"] if c["categories"])
        column["categories"][0] += "_renamed"  # still a valid encoder state, with another schema
        nn.write_networks(path, nets, header)
        with pytest.raises(errors.DataError, match="malformed checkpoint header.*schema_hash"):
            load_model(path)

    @pytest.mark.parametrize("drop", ["y_range", "encoder_state", "config"])
    def test_vae_header_without_a_key_is_a_typed_error(self, vae, tmp_path, drop):
        path = tmp_path / "vae.ckpt"
        save_model(vae, path)
        nets, header = nn.read_networks(path)
        del header[drop]
        nn.write_networks(path, nets, header)
        with pytest.raises(errors.DataError, match="malformed checkpoint header"):
            load_model(path)

    def test_bare_vae_header_of_the_former_train_command(self, vae, tmp_path):
        path = tmp_path / "vae.ckpt"
        nn.write_networks(path, vae.nets.all(), {"kind": "vae", "loss": "balanced", "seed": 0})
        with pytest.raises(errors.MixedAEError):
            load_model(path)


class TestBuildVae:
    def test_wiring(self):
        nets = build_vae(33, 20, 10, seed=0)
        assert nets.hl1.in_width == 33 and nets.hl1.out_width == 20
        assert nets.hl21.out_width == 10 and nets.hl22.out_width == 10
        assert nets.hl3.in_width == 10 and nets.hl3.out_width == 20
        assert nets.hl41.out_width == 33
        assert nets.hl42.out_width == 1
        assert nets.hl1.layers[0].activation == "tanh"
        assert nets.hl21.layers[0].activation == "identity"

    def test_deterministic(self):
        a = build_vae(33, 20, 10, seed=3)
        b = build_vae(33, 20, 10, seed=3)
        assert all(nets_equal(x, y) for x, y in zip(a.all(), b.all()))


class TestReparameterize:
    def test_standard_normal_passthrough(self):
        eps = make_rng(0).random((4, 3))
        out = reparameterize(np.zeros((4, 3)), np.zeros((4, 3)), eps)
        assert np.array_equal(out, eps)

    def test_collapsed_variance(self):
        mu = np.array([1.5, -2.0])
        out = reparameterize(mu, np.full(2, -50.0), np.array([3.0, -3.0]))
        assert np.allclose(out, mu, atol=1e-10)

    def test_shift_linearity(self):
        rng = make_rng(1)
        mu = rng.random(5)
        logvar = rng.random(5)
        noise = rng.random(5)
        base = reparameterize(mu, logvar, noise)
        shifted = reparameterize(mu + 2.5, logvar, noise)
        assert np.allclose(shifted, base + 2.5, atol=1e-12)

    def test_gradient_wrt_mu_is_identity(self):
        # finite differences: d out_i / d mu_j = delta_ij for fixed noise
        mu = np.array([0.3, -0.7])
        logvar = np.array([0.2, 0.4])
        noise = np.array([1.1, -0.6])
        h = 1e-6
        for j in range(2):
            dmu = np.zeros(2)
            dmu[j] = h
            fd = (reparameterize(mu + dmu, logvar, noise) - reparameterize(mu - dmu, logvar, noise)) / (2 * h)
            expected = np.zeros(2)
            expected[j] = 1.0
            assert np.allclose(fd, expected, atol=1e-8)

    def test_shape_error(self):
        with pytest.raises(errors.ShapeError):
            reparameterize(np.zeros(3), np.zeros(2), np.zeros(3))


class TestVaeLoss:
    def test_kl_zero_at_standard_normal(self):
        x = make_rng(2).random((3, 4))
        y = make_rng(3).random((3, 1))
        value, _ = vae_loss(
            x, x, y, y, np.zeros((3, 2)), np.zeros((3, 2)), None, parse_loss("standard")
        )
        assert value == 0.0

    def test_kl_spot_value(self):
        x = np.zeros((1, 2))
        y = np.zeros((1, 1))
        value, _ = vae_loss(
            x, x, y, y, np.ones((1, 1)), np.zeros((1, 1)), None, parse_loss("standard")
        )
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_weighted_loss_without_weights_is_a_config_error(self):
        x, y, z = np.eye(3), np.zeros((3, 1)), np.zeros((3, 2))
        with pytest.raises(errors.ConfigError, match="LossWeights"):
            vae_loss(x, x, y, y, z, z, None, parse_loss("balanced"))

    def test_gradients_match_finite_differences(self):
        rng = make_rng(4)
        x_pred = rng.random((2, 3))
        x_true = (rng.random((2, 3)) < 0.5).astype(float)
        y_pred = rng.random((2, 1))
        y_true = rng.random((2, 1))
        mu = rng.random((2, 2))
        logvar = rng.random((2, 2)) - 0.5
        spec = parse_loss("standard")

        def value(xp, yp, m, lv):
            return vae_loss(xp, x_true, yp, y_true, m, lv, None, spec)[0]

        _, (gx, gy, gmu, glv) = vae_loss(x_pred, x_true, y_pred, y_true, mu, logvar, None, spec)
        h = 1e-6
        for arr, grad in ((x_pred, gx), (y_pred, gy), (mu, gmu), (logvar, glv)):
            fd = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                old = arr[ix]
                arr[ix] = old + h
                vp = value(x_pred, y_pred, mu, logvar)
                arr[ix] = old - h
                vm = value(x_pred, y_pred, mu, logvar)
                arr[ix] = old
                fd[ix] = (vp - vm) / (2 * h)
            assert np.allclose(fd, grad, atol=1e-6)


@pytest.fixture(scope="module")
def trained(synthetic_split):
    train, _, enc = synthetic_split
    return train_vae(train, enc, VAEConfig(epochs=120, seed=11))


class TestTrainVae:
    def test_deterministic(self, synthetic_split):
        train, _, enc = synthetic_split
        a = train_vae(train, enc, VAEConfig(epochs=15, seed=12))
        b = train_vae(train, enc, VAEConfig(epochs=15, seed=12))
        assert all(nets_equal(x, y) for x, y in zip(a.nets.all(), b.nets.all()))

    def test_reconstruct_schema(self, trained, synthetic_split):
        _, test, _ = synthetic_split
        rec = vae_reconstruct(trained, test)
        assert rec.schema == test.schema and rec.n == test.n

    def test_generate_shape_and_validity(self, trained):
        gen = vae_generate(trained, 500, seed=13)
        assert gen.n == 500
        assert gen.schema == trained.state.schema
        assert gen.y is not None and np.all(np.isfinite(gen.y))
        for c in gen.schema.columns:
            if c.is_categorical:
                codes = gen.column(c.name)
                assert codes.min() >= 0 and codes.max() < len(c.categories)

    def test_generate_deterministic(self, trained):
        assert same_dataset(vae_generate(trained, 50, seed=5), vae_generate(trained, 50, seed=5))

    def test_ce_rejected(self):
        with pytest.raises(errors.ConfigError):
            VAEConfig(loss="ce")

    def test_missing_target_is_a_data_error(self, synthetic_split):
        train, _, enc = synthetic_split
        features = Dataset(train.schema, dict(train.columns))
        with pytest.raises(errors.DataError, match="training a VAE needs a target column"):
            train_vae(features, enc, VAEConfig(epochs=1))


def generate_like_whole_matrix(model, count, seed, monkeypatch):
    """Whether ``vae_generate`` equals the whole-matrix pass bit for bit and leaves its
    generator where that pass leaves it."""
    made = []
    monkeypatch.setattr(models, "make_rng", lambda s: made.append(make_rng(s)) or made[-1])
    got = vae_generate(model, count, seed)
    want, want_rng = whole_vae_generate(model, count, seed)
    return same_dataset(got, want) and made[0].bit_generator.state == want_rng.bit_generator.state


class TestGenerateInRowBlocks:
    @pytest.mark.parametrize("batch_size", [256, 7])
    def test_equals_the_whole_matrix_pass(self, trained, batch_size, monkeypatch):
        model = dataclasses.replace(trained, config=dataclasses.replace(trained.config, batch_size=batch_size))
        b = batch_size
        for n in (1, b - 1, b, b + 1, 2 * b + 3):
            assert generate_like_whole_matrix(model, n, 13, monkeypatch), n

    def test_wide_model_equals_the_whole_matrix_pass(self, monkeypatch):
        data = wide_data(600)
        enc = fit_encoder(data)
        model = train_vae(data, enc, VAEConfig(epochs=2, seed=6))
        for n in (1, 255, 256, 257, 515):
            assert generate_like_whole_matrix(model, n, 17, monkeypatch), n

    @settings(max_examples=40, deadline=None)
    @given(count=st.integers(1, 700), batch_size=st.integers(1, 300), seed=st.integers(0, 2**32))
    def test_any_block_size_equals_the_whole_matrix_pass(self, trained, count, batch_size, seed):
        model = dataclasses.replace(trained, config=dataclasses.replace(trained.config, batch_size=batch_size))
        with pytest.MonkeyPatch.context() as mp:
            assert generate_like_whole_matrix(model, count, seed, mp)

    def test_holds_one_score_matrix(self):
        import tracemalloc

        data = wide_data()
        enc = fit_encoder(data)
        model = models.TrainedVAE(build_vae(enc.width, 20, 10, 3), enc, VAEConfig(), (0.0, 1.0))
        tracemalloc.start()
        try:
            vae_generate(model, data.n, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the networks run over all 4000 rows at once (a row's BLAS bits can depend on
        # the matrix it sits in), so the 4000 x 300 score matrix is whole: 1.17 x with
        # the uniforms and the output columns beside it. Sampled whole, with each
        # variable's copy, its clipped copy and the previous variable's, it read 1.44 x
        assert peak < 1.25 * data.n * enc.width * 8


def test_generated_majority_frequencies_track_training():
    # default (standard-loss) VAE at the reference budget: generated
    # frequencies of majority categories stay within 0.15 of training
    data = generate_synthetic("imbalanced", 2000, seed=0)
    train, _ = split(data, 0.4, seed=1)
    enc = fit_encoder(train)
    model = train_vae(train, enc, VAEConfig(epochs=1000, seed=14))
    gen = vae_generate(model, 4000, seed=15)
    for name in data.schema.categorical_names():
        freqs = enc.category_counts[name] / enc.n
        got = np.bincount(gen.column(name), minlength=freqs.size) / 4000
        for f_train, f_gen in zip(freqs, got):
            if f_train > 0.3:
                assert abs(f_train - f_gen) <= 0.15
