"""Autoencoder and VAE construction, training, and sampling.

The autoencoder narrows from the encoded width ``p`` in steps of
``q = p // 10`` down to the latent width, mirrored back up, with Tanh
after every layer including the last. Since Tanh cannot reach the
extreme one-hot targets 0 and 1 exactly, reconstructions are read
through a fixed affine output adapter: a network output ``o`` means the
reconstruction ``(o - 0.05) / 0.9``, so perfect reconstruction of [0, 1]
targets is attainable at outputs 0.05 and 0.95. The losses therefore
always see raw encoded targets. The cross-entropy path skips the
adapter and treats raw outputs as logits (softmax scores play the role
of the reconstruction).

The VAE mirrors the same idea with a single Tanh hidden layer on each
side, linear mu/logvar/output heads, a width-1 target head, and the
analytic Gaussian KL term with weight 1.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn, tabular
from .errors import ConfigError, ConstantNumeric, DataError, DegenerateWidth, NonFinite, ShapeError
from .losses import LossWeights, _select, _weighted_mse, compute_balance_weights, cross_entropy_loss
from .nn import Network, adam_step, backward, forward, forward_output
from .rng import derive_seed, gaussian, make_rng
from .tabular import Dataset, EncodedMatrix, EncoderState, decode, encode_values

# Reachable band for [0, 1] targets under a final Tanh.
OUT_LOW = 0.05
OUT_HIGH = 0.95
_SPAN = OUT_HIGH - OUT_LOW

LOSS_KINDS = ("standard", "balanced", "blended", "ce")


@dataclass(frozen=True)
class LossSpec:
    kind: str
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in LOSS_KINDS:
            raise ConfigError(f"unknown loss {self.kind!r}; expected one of {LOSS_KINDS}")
        if self.kind == "blended":
            if self.alpha is None or not 0.0 <= self.alpha <= 1.0:
                raise ConfigError(f"blended loss needs alpha in [0, 1], got {self.alpha}")
        elif self.alpha is not None:
            raise ConfigError(f"only the blended loss takes an alpha, not {self.kind!r}")

    @property
    def needs_weights(self) -> bool:
        return self.kind in ("balanced", "blended")

    @property
    def label(self) -> str:
        return f"blended:{self.alpha:g}" if self.kind == "blended" else self.kind


def parse_loss(text: str) -> LossSpec:
    """Parse ``standard | balanced | blended:alpha | ce``."""
    if text.startswith("blended:"):
        try:
            return LossSpec("blended", float(text.split(":", 1)[1]))
        except ValueError:
            raise ConfigError(f"bad blended alpha in {text!r}") from None
    return LossSpec(text)


@dataclass
class AutoencoderConfig:
    dim_z: int = 10
    epochs: int = 1000
    batch_size: int = 128
    learning_rate: float = 1e-4
    loss: LossSpec = dataclasses.field(default_factory=lambda: LossSpec("standard"))
    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.loss, str):
            self.loss = parse_loss(self.loss)
        if min(self.epochs, self.batch_size, self.dim_z) < 1:
            raise ConfigError("epochs, batch_size and dim_z must be >= 1")
        if not 0.0 < self.learning_rate < np.inf:  # false for nan too
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class LearningCurves:
    """Per-encoded-feature training MSE at the 10 epoch checkpoints."""

    checkpoints: np.ndarray          # epoch numbers, length 10
    feature_names: tuple[str, ...]
    errors: np.ndarray               # 10 x P


@dataclass
class TrainedAutoencoder:
    encoder_net: Network   # phi
    decoder_net: Network   # psi
    state: EncoderState
    config: AutoencoderConfig
    curves: LearningCurves | None


def checkpoint_epochs(epochs: int) -> list[int]:
    """The 10 logging epochs: ceil(k * epochs / 10) for k = 1..10."""
    return [max(1, -(-k * epochs // 10)) for k in range(1, 11)]


def autoencoder_widths(p: int, dim_z: int) -> list[int]:
    """Encoder widths p, p-q, p-2q, p-3q (q = p // 10); DegenerateWidth unless all exceed dim_z."""
    q = p // 10
    widths = [p, p - q, p - 2 * q, p - 3 * q]
    if any(w <= dim_z or w <= 0 for w in widths):
        raise DegenerateWidth(f"widths {widths} must all exceed dim_z={dim_z}")
    return widths


def build_autoencoder(p: int, dim_z: int, seed: int) -> tuple[Network, Network]:
    """Mirror-symmetric Tanh stacks p -> p-q -> p-2q -> p-3q -> dim_z and back."""
    enc_dims = autoencoder_widths(p, dim_z) + [dim_z]
    dec_dims = enc_dims[::-1]
    acts = [nn.TANH] * 4
    phi = nn.init_network(enc_dims, acts, derive_seed(seed, 0))
    psi = nn.init_network(dec_dims, acts, derive_seed(seed, 1))
    return phi, psi


def _arms(cfg, losses, enc: EncoderState, weights: LossWeights | None = None) -> tuple:
    """Per loss, ``cfg`` with that loss; and, if some loss needs weights, ``weights``
    (by default the encoder's balance weights), or None."""
    if not losses:
        raise ConfigError("need at least one loss")
    arms = [dataclasses.replace(cfg, loss=loss) for loss in losses]
    if not any(a.loss.needs_weights for a in arms):
        return arms, None
    if weights is not None and weights.width != enc.width:
        raise ShapeError(f"weights cover {weights.width} features, the encoder {enc.width}")
    return arms, compute_balance_weights(enc) if weights is None else weights


def _epochs(rows, n: int, cfg, weights: LossWeights | None, epochs: int):
    """Per epoch, an iterator over its batches as (row indices, rows, their per-entry
    weights or None), each made by ``rows`` (a :func:`tabular.row_source`) when the
    step asks for it. Rows are reshuffled every epoch from the run seed and the final
    short batch is kept, so training is bit-reproducible given (data, config, seed)
    and a shorter training is a prefix of a longer one's."""
    size = cfg.batch_size
    shuffle = make_rng(derive_seed(cfg.seed, 1))
    for _ in range(epochs):  # rows made from codes are 0/1 in every one-hot column
        order = shuffle.permutation(n)
        yield ((idx, xb := rows(idx), None if weights is None else weights.select(xb, checked=True))
               for idx in (order[start : start + size] for start in range(0, n, size)))


def _scores_from_output(output: np.ndarray, spec: LossSpec, groups) -> np.ndarray:
    """Map raw network outputs to reconstruction scores in the data space.
    The scores overwrite ``output``, which is returned."""
    if spec.kind != "ce":
        np.subtract(output, OUT_LOW, out=output)
        return np.divide(output, _SPAN, out=output)
    for g in groups:
        logits = output[:, g]
        m = logits.max(axis=1, keepdims=True)
        e = np.exp(logits - m)
        output[:, g] = e / e.sum(axis=1, keepdims=True)
    return output


def train_autoencoder(
    train: Dataset,
    enc: EncoderState,
    cfg: AutoencoderConfig,
    weights: LossWeights | None = None,
) -> TrainedAutoencoder:
    """:func:`train_autoencoder_arms` with the one arm ``cfg.loss`` and budget ``cfg.epochs``."""
    return train_autoencoder_arms(train, enc, cfg, (cfg.loss,), (cfg.epochs,), weights)[0][cfg.epochs]


def train_autoencoder_arms(
    train: Dataset,
    enc: EncoderState,
    cfg: AutoencoderConfig,
    losses: tuple[LossSpec | str, ...],
    budgets: tuple[int, ...],
    weights: LossWeights | None = None,
) -> list[dict[int, TrainedAutoencoder]]:
    """Mini-batch Adam with inputs as targets, one arm per loss, run to
    ``max(budgets)`` with a snapshot of every arm at every budget.

    Batches come from :func:`_epochs`, so each snapshot equals a separate
    training at its budget bit for bit. The arms share init and shuffles,
    so they train in lockstep as one stacked network (phi's layers, then
    psi's) with one Adam state, each bit for bit as alone.
    Per-feature training MSE is recorded at each budget's 10 checkpoint
    epochs, the only time the whole split is encoded; each snapshot's config
    carries its loss and budget. A non-finite loss aborts with :class:`NonFinite`.
    """
    if not budgets or min(budgets) < 1:
        raise ConfigError(f"epochs budgets must be >= 1, got {budgets}")
    rows = tabular.row_source(train, enc)
    arms, weights = _arms(cfg, losses, enc, weights)
    groups = enc.categorical_groups()

    phi, psi = build_autoencoder(enc.width, cfg.dim_z, derive_seed(cfg.seed, 0))
    net = Network.stack([Network(phi.layers + psi.layers)] * len(arms))
    opt = nn.AdamState.like(net.params)

    def halves(i: int) -> tuple[Network, Network]:
        layers = net.arm(i).layers
        return Network(layers[: len(phi.layers)]), Network(layers[len(phi.layers) :])

    checkpoints = {b: checkpoint_epochs(b) for b in budgets}
    logged = set().union(*checkpoints.values())
    errors: list[dict[int, np.ndarray]] = [{} for _ in arms]
    snapshots: list[dict[int, TrainedAutoencoder]] = [{} for _ in arms]

    for epoch, batches in enumerate(_epochs(rows, train.n, cfg, weights, max(budgets)), 1):
        with np.errstate(over="ignore", invalid="ignore"):  # a diverging step raises NonFinite
            for _, xb, wb in batches:
                trace = forward(net, xb)
                out = trace.output
                d_out = np.empty_like(out)
                for i, arm in enumerate(arms):
                    if arm.loss.kind == "ce":
                        value, d_out[i] = cross_entropy_loss(out[i], xb, groups)
                    else:  # the adapter's scores, then their gradient, in arm i's slice
                        pred = np.subtract(out[i], OUT_LOW, out=d_out[i])
                        pred /= _SPAN
                        w = wb if arm.loss.needs_weights else None
                        value, _ = _weighted_mse(pred, xb, w, arm.loss.alpha, out=pred)
                        pred /= _SPAN
                    if not np.isfinite(value):
                        raise NonFinite(f"{arm.loss.label} loss became non-finite at epoch {epoch}")
                grad = np.empty_like(net.params)  # made after the losses: made before forward, it trained slower
                backward(net, trace, d_out, grad, need_input=False)
                adam_step(opt, net.params, grad, cfg.learning_rate)
        if epoch in logged:
            X = rows()
            for i, arm in enumerate(arms):
                scores = _scores_from_output(forward_output(net.arm(i), X), arm.loss, groups)
                errors[i][epoch] = np.mean(np.square(np.subtract(scores, X, out=scores), out=scores), axis=0)
            del X, scores
        if epoch in checkpoints:
            for i, arm in enumerate(arms):
                curves = LearningCurves(
                    checkpoints=np.asarray(checkpoints[epoch]),
                    feature_names=enc.feature_names(),
                    errors=np.vstack([errors[i][e] for e in checkpoints[epoch]]),
                )
                snapshots[i][epoch] = TrainedAutoencoder(
                    *halves(i), enc, dataclasses.replace(arm, epochs=epoch), curves
                )
    return snapshots


def _decode_like(scores: np.ndarray, state: EncoderState, data: Dataset) -> Dataset:
    """Hard-decode ``scores``; ``data``'s target column, if any, is carried
    through unchanged (the models never reconstruct it)."""
    decoded = decode(EncodedMatrix(scores, state), state)
    if data.y is None:
        return decoded
    return dataclasses.replace(decoded, y=data.y, target_name=data.target_name)


def reconstruct(model: TrainedAutoencoder, data: Dataset) -> Dataset:
    """Encode, push through the autoencoder, hard-decode; the target is carried."""
    z = forward_output(model.encoder_net, encode_values(data, model.state))
    out = forward_output(model.decoder_net, z)
    scores = _scores_from_output(out, model.config.loss, model.state.categorical_groups())
    return _decode_like(scores, model.state, data)


def latent(model: TrainedAutoencoder, data: Dataset) -> np.ndarray:
    """n x dim_z bottleneck representation; entries in (-1, 1)."""
    return forward_output(model.encoder_net, encode_values(data, model.state))


# ----------------------------------------------------------------------
# Variational autoencoder
# ----------------------------------------------------------------------

@dataclass
class VAEConfig(AutoencoderConfig):
    """The autoencoder's settings, with the VAE's own defaults, plus the
    width of its one hidden layer on each side."""

    batch_size: int = 256
    learning_rate: float = 1e-3
    dim_hidden: int = 20

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.dim_hidden < 1:
            raise ConfigError(f"dim_hidden must be >= 1, got {self.dim_hidden}")
        if self.loss.kind == "ce":
            raise ConfigError("the VAE supports standard/balanced/blended losses only")


# model kind -> its config class; the CLI fills it from the config section of the same name
MODEL_CONFIGS = {"autoencoder": AutoencoderConfig, "vae": VAEConfig}


@dataclass
class VAENets:
    """Appendix-style wiring: shared Tanh trunk, linear heads."""

    hl1: Network    # p -> hidden, tanh
    hl21: Network   # hidden -> z, linear (mu head)
    hl22: Network   # hidden -> z, linear (logvar head)
    hl3: Network    # z -> hidden, tanh
    hl41: Network   # hidden -> p, linear (feature head)
    hl42: Network   # hidden -> 1, linear (target head)

    def all(self) -> list[Network]:
        return [self.hl1, self.hl21, self.hl22, self.hl3, self.hl41, self.hl42]


@dataclass
class TrainedVAE:
    nets: VAENets
    state: EncoderState
    config: VAEConfig
    y_range: tuple[float, float]


def build_vae(p: int, dim_hidden: int, dim_z: int, seed: int) -> VAENets:
    def net(dims, act, idx):
        return nn.init_network(dims, [act], derive_seed(seed, idx))

    return VAENets(
        hl1=net([p, dim_hidden], nn.TANH, 0),
        hl21=net([dim_hidden, dim_z], nn.IDENTITY, 1),
        hl22=net([dim_hidden, dim_z], nn.IDENTITY, 2),
        hl3=net([dim_z, dim_hidden], nn.TANH, 3),
        hl41=net([dim_hidden, p], nn.IDENTITY, 4),
        hl42=net([dim_hidden, 1], nn.IDENTITY, 5),
    )


def reparameterize(mu: np.ndarray, logvar: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """mu + exp(0.5 * logvar) * noise."""
    mu = np.asarray(mu, dtype=np.float64)
    logvar = np.asarray(logvar, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if mu.shape != logvar.shape or mu.shape != noise.shape:
        raise ShapeError("mu, logvar and noise must share a shape")
    return mu + np.exp(0.5 * logvar) * noise


def vae_loss(
    x_pred: np.ndarray,
    x_true: np.ndarray,
    y_pred: np.ndarray,
    y_true: np.ndarray,
    mu: np.ndarray,
    logvar: np.ndarray,
    weights: LossWeights | np.ndarray | None,
    loss: LossSpec,
    *,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[float, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Reconstruction loss + plain target MSE + analytic KL (weight 1).

    Returns the scalar value and gradients w.r.t. (x_pred, y_pred, mu,
    logvar). All three terms are per-row quantities averaged over the
    batch: the feature block and the width-1 target head contribute
    their (chosen resp. squared) error summed over output entries, and
    the KL term is the usual closed form. Keeping the reconstruction at
    per-row scale stops the KL term from dwarfing it (per-entry means
    collapse the posterior and the latent carries nothing).

    ``weights`` is a :class:`LossWeights` or the batch's per-entry weights
    (:meth:`LossWeights.select`). ``out`` receives the x_pred and
    y_pred gradients; its two buffers may be x_pred and y_pred themselves.
    """
    if mu.shape != logvar.shape or x_pred.shape != x_true.shape or y_pred.shape != y_true.shape:
        raise ShapeError("mu and logvar, and each prediction and its target, must share a shape")
    weights = _select(weights, x_true) if loss.needs_weights else None
    out_x, out_y = out or (None, None)
    width = x_pred.shape[1]
    vx, gx = _weighted_mse(x_pred, x_true, weights, loss.alpha, out=out_x)
    gx *= width
    vy, gy = _weighted_mse(y_pred, y_true, out=out_y)
    B = mu.shape[0]
    ev = np.exp(logvar)
    kl = float(-0.5 * np.sum(1.0 + logvar - mu * mu - ev) / B)
    g_mu = mu / B
    g_logvar = 0.5 * (ev - 1.0) / B
    return vx * width + vy + kl, (gx, gy, g_mu, g_logvar)


def train_vae(train: Dataset, enc: EncoderState, cfg: VAEConfig) -> TrainedVAE:
    """:func:`train_vae_arms` with the one arm ``cfg.loss``."""
    return train_vae_arms(train, enc, cfg, (cfg.loss,))[0]


def train_vae_arms(
    train: Dataset, enc: EncoderState, cfg: VAEConfig, losses: tuple[LossSpec | str, ...]
) -> list[TrainedVAE]:
    """Mini-batch Adam over the VAE objective with seeded noise, one arm per loss.

    The target ``train.y`` is min-max scaled to [0, 1] from the training split so the
    target head's MSE is on the same footing as the feature block; the
    inverse map is applied when generating. Batches come from :func:`_epochs`.
    The arms share init, shuffles and noise, so they train in lockstep on
    stacked networks, each bit for bit as alone, and the six networks share
    one buffer and one Adam state.
    """
    if train.y is None:
        raise DataError("training a VAE needs a target column")
    y_lo, y_hi = float(train.y.min()), float(train.y.max())
    if y_hi <= y_lo:
        raise ConstantNumeric("target column is constant")
    ys = ((train.y - y_lo) / (y_hi - y_lo))[:, None]

    rows = tabular.row_source(train, enc)
    arms, weights = _arms(cfg, losses, enc)
    base = build_vae(enc.width, cfg.dim_hidden, cfg.dim_z, derive_seed(cfg.seed, 0))
    nets = VAENets(*(Network.stack([net] * len(arms)) for net in base.all()))
    params, spans = Network.share(nets.all())
    opt = nn.AdamState.like(params)
    noise_rng = make_rng(derive_seed(cfg.seed, 2))

    for epoch, batches in enumerate(_epochs(rows, train.n, cfg, weights, cfg.epochs), 1):
        with np.errstate(over="ignore", invalid="ignore"):  # a diverging step raises NonFinite
            for idx, xb, wb in batches:
                yb = ys[idx]
                t1 = forward(nets.hl1, xb)
                t_mu = forward(nets.hl21, t1.output)
                t_lv = forward(nets.hl22, t1.output)
                mu, logvar = t_mu.output, t_lv.output
                eps = gaussian(noise_rng, mu.shape[1:])
                z = reparameterize(mu, logvar, np.broadcast_to(eps, mu.shape))
                t3 = forward(nets.hl3, z)
                t_x = forward(nets.hl41, t3.output)
                t_y = forward(nets.hl42, t3.output)

                # The heads are linear, so backward never reads their outputs:
                # each arm's loss writes its head gradients over its own slice.
                gx, gy = t_x.output, t_y.output
                g_mu_kl, g_lv_kl = np.empty_like(mu), np.empty_like(logvar)
                for i, arm in enumerate(arms):
                    value, (_, _, g_mu_kl[i], g_lv_kl[i]) = vae_loss(
                        gx[i], xb, gy[i], yb, mu[i], logvar[i], wb, arm.loss, out=(gx[i], gy[i])
                    )
                    if not np.isfinite(value):
                        raise NonFinite(f"{arm.loss.label} VAE loss non-finite at epoch {epoch}")

                # made after the losses: the AE trained slower with its gradient made before forward
                grad = np.empty_like(params)
                d1, d21, d22, d3, d41, d42 = (grad[..., span] for span in spans)
                g41 = backward(nets.hl41, t_x, gx, d41)
                g42 = backward(nets.hl42, t_y, gy, d42)
                del t_x, gx  # frees the (M, B, p) head buffer before the next step
                dz = backward(nets.hl3, t3, g41 + g42, d3)
                d_mu = dz + g_mu_kl
                d_lv = dz * eps * 0.5 * np.exp(0.5 * logvar) + g_lv_kl
                g21 = backward(nets.hl21, t_mu, d_mu, d21)
                g22 = backward(nets.hl22, t_lv, d_lv, d22)
                backward(nets.hl1, t1, g21 + g22, d1, need_input=False)
                adam_step(opt, params, grad, cfg.learning_rate)

    return [
        TrainedVAE(VAENets(*(net.arm(i) for net in nets.all())), enc, arm, (y_lo, y_hi))
        for i, arm in enumerate(arms)
    ]


def vae_reconstruct(model: TrainedVAE, data: Dataset) -> Dataset:
    """Deterministic reconstruction through the mean latent (z = mu),
    hard-decoded; the target is carried."""
    h1 = forward_output(model.nets.hl1, encode_values(data, model.state))
    mu = forward_output(model.nets.hl21, h1)
    h3 = forward_output(model.nets.hl3, mu)
    return _decode_like(forward_output(model.nets.hl41, h3), model.state, data)


def vae_generate(model: TrainedVAE, count: int, seed: int) -> Dataset:
    """Sample z ~ N(0, I), decode, and build a hard dataset with target.

    Categorical cells are drawn from the per-variable distribution given
    by the clipped, normalized decoder scores rather than by argmax:
    winner-take-all decoding collapses each variable to the dominant
    category of its latent region and badly distorts generated category
    frequencies. Numerics and the target are unscaled through the
    training ranges.

    The networks see all ``count`` rows at once, since BLAS can give a
    row other last bits in a matrix of another height; the score matrix
    is then decoded and sampled ``config.batch_size`` rows at a time,
    every uniform drawn beforehand in the whole-matrix order (z, then
    one per row for each categorical variable in turn).
    """
    if count < 1:
        raise ConfigError("count must be >= 1")
    rng = make_rng(seed)
    h3 = forward_output(model.nets.hl3, gaussian(rng, (count, model.config.dim_z)))
    enc = model.state
    groups = enc.categorical_groups()
    draws = [rng.random(count) for _ in groups]
    y_lo, y_hi = model.y_range
    y = y_lo + forward_output(model.nets.hl42, h3)[:, 0] * (y_hi - y_lo)
    # made before the score matrix, so that its space is left whole when it is freed
    cols = {c.name: np.empty(count, np.int64 if c.is_categorical else np.float64) for c in enc.schema.columns}
    x_scores = forward_output(model.nets.hl41, h3)
    del h3  # not held while the blocks are read
    for start in range(0, count, model.config.batch_size):
        rows = slice(start, start + model.config.batch_size)
        for name, v in decode(EncodedMatrix(x_scores[rows], enc), enc).columns.items():
            cols[name][rows] = v
        for name, g, u in zip(enc.schema.categorical_names(), groups, draws):
            s = np.clip(x_scores[rows, g], 1e-9, None)
            s /= s.sum(axis=1, keepdims=True)
            cols[name][rows] = np.minimum((np.cumsum(s, axis=1, out=s) < u[rows, None]).sum(axis=1), len(g) - 1)
    return Dataset(enc.schema, cols, y=y)


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------

def save_model(model: TrainedAutoencoder | TrainedVAE, path: str | Path) -> None:
    """Write the model's networks (:func:`nn.write_networks`) under a header
    with its kind, config, seed and encoder state, and a VAE's target range."""
    vae = isinstance(model, TrainedVAE)
    cfg = model.config
    header = {
        "kind": "vae" if vae else "autoencoder",
        "schema_hash": tabular.schema_hash(model.state.schema),
        "config": {**dataclasses.asdict(cfg), "loss": cfg.loss.label},
        "seed": cfg.seed,
        "encoder_state": tabular.encoder_to_dict(model.state),
    }
    if vae:
        header["y_range"] = list(model.y_range)
    nn.write_networks(path, model.nets.all() if vae else [model.encoder_net, model.decoder_net], header)


def load_model(path: str | Path) -> TrainedAutoencoder | TrainedVAE:
    """Inverse of :func:`save_model`. The loaded autoencoder has no learning
    curves; a malformed header raises :class:`DataError`."""
    nets, header = nn.read_networks(path)
    try:
        kind = header["kind"]
        if {"autoencoder": 2, "vae": 6}.get(kind) != len(nets):
            raise ValueError(f"kind {kind!r} with {len(nets)} networks")
        state = tabular.encoder_from_dict(header["encoder_state"])
        if header["schema_hash"] != tabular.schema_hash(state.schema):
            raise ValueError("schema_hash does not match the encoder state's schema")
        cfg = MODEL_CONFIGS[kind](**header["config"])
        if kind == "autoencoder":
            return TrainedAutoencoder(nets[0], nets[1], state, cfg, curves=None)
        y_lo, y_hi = header["y_range"]
        return TrainedVAE(VAENets(*nets), state, cfg, (float(y_lo), float(y_hi)))
    except (KeyError, TypeError, ValueError, AttributeError, DataError) as e:
        raise DataError(f"{path}: malformed checkpoint header: {e!r}") from None


def curves_to_csv(budgets: list[LearningCurves], path: str | Path) -> None:
    """Write a header and one (epochs, checkpoint, feature, error) block per
    budget's curves; a block's epochs is its last checkpoint, the budget."""
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epochs", "checkpoint", "feature", "error"])
        for curves in budgets:
            for row, ck in zip(curves.errors, curves.checkpoints):
                for name, err in zip(curves.feature_names, row):
                    writer.writerow([int(curves.checkpoints[-1]), int(ck), name, repr(float(err))])
