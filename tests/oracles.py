"""Brute-force reference implementations, written from the definitions.

These stay deliberately naive (plain loops over the data) so they are
independent of the vectorized code paths they check.
"""

from dataclasses import dataclass

import numpy as np


def brute_balanced_accuracy(t, p):
    tp = sum(1 for a, b in zip(t, p) if a == 1 and b == 1)
    tn = sum(1 for a, b in zip(t, p) if a == 0 and b == 0)
    fp = sum(1 for a, b in zip(t, p) if a == 0 and b == 1)
    fn = sum(1 for a, b in zip(t, p) if a == 1 and b == 0)
    return 0.5 * (tp / (tp + fn) + tn / (tn + fp))


def brute_ranks(x):
    out = []
    for v in x:
        smaller = sum(1 for u in x if u < v)
        equal = sum(1 for u in x if u == v)
        out.append(smaller + (equal + 1) / 2.0)
    return out


def brute_spearman(x, y):
    rx, ry = brute_ranks(x), brute_ranks(y)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    dx = sum((a - mx) ** 2 for a in rx)
    dy = sum((b - my) ** 2 for b in ry)
    if dx == 0 or dy == 0:
        return None
    return num / (dx * dy) ** 0.5


def brute_cramers_v(a, b):
    levels_a = sorted(set(a))
    levels_b = sorted(set(b))
    if len(levels_a) < 2 or len(levels_b) < 2:
        return None
    n = len(a)
    chi2 = 0.0
    for la in levels_a:
        for lb in levels_b:
            obs = sum(1 for x, y in zip(a, b) if x == la and y == lb)
            exp = sum(1 for x in a if x == la) * sum(1 for y in b if y == lb) / n
            chi2 += (obs - exp) ** 2 / exp
    return (chi2 / (n * min(len(levels_a) - 1, len(levels_b) - 1))) ** 0.5


def brute_eta_squared(x, g):
    grand = sum(x) / len(x)
    sst = sum((v - grand) ** 2 for v in x)
    if sst == 0 or len(set(g)) < 2:
        return None
    ssb = 0.0
    for level in set(g):
        member = [v for v, lab in zip(x, g) if lab == level]
        ssb += len(member) * (sum(member) / len(member) - grand) ** 2
    return ssb / sst


def brute_silhouette(points, labels):
    n = len(points)
    if len(set(labels)) < 2:
        return None
    dist = [
        [float(np.linalg.norm(np.asarray(points[i]) - np.asarray(points[j]))) for j in range(n)]
        for i in range(n)
    ]
    scores = []
    for i in range(n):
        own = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not own:
            scores.append(0.0)
            continue
        a = sum(dist[i][j] for j in own) / len(own)
        b = min(
            sum(dist[i][j] for j in range(n) if labels[j] == other)
            / sum(1 for j in range(n) if labels[j] == other)
            for other in set(labels)
            if other != labels[i]
        )
        scores.append(0.0 if max(a, b) == 0 else (b - a) / max(a, b))
    return sum(scores) / n


def reference_forward_backward(layers, x, d_out):
    """Forward and backward pass of (W, b, activation) layers written with
    fresh temporaries per operation: (outputs, [(dW, db)], input gradient)."""
    acts = [x]
    for W, b, act in layers:
        z = acts[-1] @ W.T + b
        acts.append(np.tanh(z) if act == "tanh" else z)
    grads, delta = [], d_out
    for k in range(len(layers) - 1, -1, -1):
        W, _, act = layers[k]
        if act == "tanh":
            delta = delta * (1.0 - acts[k + 1] * acts[k + 1])
        grads.insert(0, (delta.T @ acts[k], delta.sum(axis=0)))
        delta = delta @ W
    return acts[1:], grads, delta


def gradients(net, trace, d_out, need_input=True):
    """``nn.backward`` into a fresh buffer: (flat parameter gradient, input gradient)."""
    from mixedae import nn

    flat = np.empty_like(net.params)
    return flat, nn.backward(net, trace, d_out, flat, need_input)


class LayerwiseAdam:
    """Adam with bias correction, applied array by array to each layer's
    W and b in place: the per-layer loop the flat update must match."""

    def __init__(self, arrays, beta1=0.9, beta2=0.999, eps=1e-8):
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step = 0

    def update(self, arrays, grads, lr):
        self.step += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1**self.step
        c2 = 1.0 - b2**self.step
        for p, m, v, g in zip(arrays, self.m, self.v, grads):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            p -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


# ----------------------------------------------------------------------
# The three MSE-type losses and the VAE objective as they were written
# before the shared weighted-MSE kernel (each loss re-checks its batch's
# 0/1 targets and selects its weights per call). The kernel, its public
# wrappers and the training loops must match these bit for bit.
# ----------------------------------------------------------------------

def frozen_mse_loss(pred, target):
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    diff = target - pred
    scale = 1.0 / diff.size
    value = float(np.sum(diff * diff) * scale)
    grad = (2.0 * scale) * (pred - target)
    return value, grad


def frozen_balanced_mse_loss(pred, target, weights):
    from mixedae.errors import NonBinaryTarget

    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    cat = target[:, weights.is_categorical]
    if not np.all((cat == 0.0) | (cat == 1.0)):
        raise NonBinaryTarget("categorical target entries must be exactly 0 or 1")
    w = np.where(target == 1.0, weights.w_one, weights.w_zero)
    diff = target - pred
    scale = 1.0 / diff.size
    value = float(np.sum(w * diff * diff) * scale)
    grad = (2.0 * scale) * w * (pred - target)
    return value, grad


def frozen_blended_loss(alpha, pred, target, weights):
    v1, g1 = frozen_mse_loss(pred, target)
    v2, g2 = frozen_balanced_mse_loss(pred, target, weights)
    return alpha * v1 + (1.0 - alpha) * v2, alpha * g1 + (1.0 - alpha) * g2


def frozen_loss_fn(spec, weights, groups):
    """The per-arm loss dispatch of the training loops, on the frozen losses."""
    from mixedae.losses import cross_entropy_loss

    if spec.kind == "standard":
        return frozen_mse_loss
    if spec.kind == "balanced":
        return lambda p, t: frozen_balanced_mse_loss(p, t, weights)
    if spec.kind == "blended":
        return lambda p, t: frozen_blended_loss(spec.alpha, p, t, weights)
    return lambda p, t: cross_entropy_loss(p, t, groups)


def frozen_vae_loss(x_pred, x_true, y_pred, y_true, mu, logvar, weights, loss):
    width = x_pred.shape[1]
    vx, gx = frozen_loss_fn(loss, weights, None)(x_pred, x_true)
    vx, gx = vx * width, gx * width
    vy, gy = frozen_mse_loss(y_pred, y_true)
    B = mu.shape[0]
    ev = np.exp(logvar)
    kl = float(-0.5 * np.sum(1.0 + logvar - mu * mu - ev) / B)
    g_mu = mu / B
    g_logvar = 0.5 * (ev - 1.0) / B
    return vx + vy + kl, (gx, gy, g_mu, g_logvar)


# ----------------------------------------------------------------------
# Per-arm training loops: one network pair (AE) or one set of six
# networks (VAE) per loss, trained on its own. The lockstep training of
# stacked arms must match these bit for bit.
# ----------------------------------------------------------------------

def chained_autoencoder_budgets(train, cfg, budgets, weights=None):
    """Train phi and psi as two chained networks, one loss, snapshots at budgets.

    Returns {budget: (phi, psi, curve errors)}.
    """
    from mixedae import models, nn
    from mixedae.losses import compute_balance_weights
    from mixedae.rng import derive_seed, make_rng

    X, enc = train.values, train.encoder
    if cfg.loss.needs_weights and weights is None:
        weights = compute_balance_weights(enc)
    groups = enc.categorical_groups()
    loss_fn = frozen_loss_fn(cfg.loss, weights, groups)
    use_adapter = cfg.loss.kind != "ce"
    span = models.OUT_HIGH - models.OUT_LOW

    phi, psi = models.build_autoencoder(train.width, cfg.dim_z, derive_seed(cfg.seed, 0))
    opt_phi, opt_psi = nn.AdamState.like(phi.params), nn.AdamState.like(psi.params)
    shuffle = make_rng(derive_seed(cfg.seed, 1))
    checkpoints = {b: models.checkpoint_epochs(b) for b in budgets}
    logged = set().union(*checkpoints.values())
    errors, out = {}, {}
    n = X.shape[0]
    for epoch in range(1, max(budgets) + 1):
        order = shuffle.permutation(n)
        for start in range(0, n, cfg.batch_size):
            xb = X[order[start : start + cfg.batch_size]]
            t_phi = nn.forward(phi, xb)
            t_psi = nn.forward(psi, t_phi.output)
            o = t_psi.output
            pred = (o - models.OUT_LOW) / span if use_adapter else o
            _, d_pred = loss_fn(pred, xb)
            d_out = d_pred / span if use_adapter else d_pred
            g_psi, d_phi = gradients(psi, t_psi, d_out)
            g_phi, _ = gradients(phi, t_phi, d_phi)
            nn.adam_step(opt_phi, phi.params, g_phi, cfg.learning_rate)
            nn.adam_step(opt_psi, psi.params, g_psi, cfg.learning_rate)
        if epoch in logged:
            o = nn.forward(psi, nn.forward(phi, X).output).output
            scores = models._scores_from_output(o, cfg.loss, groups)
            errors[epoch] = np.mean((scores - X) ** 2, axis=0)
        if epoch in checkpoints:
            curve = np.vstack([errors[e] for e in checkpoints[epoch]])
            out[epoch] = (nn.Network(phi.layers), nn.Network(psi.layers), curve)
    return out


def separate_vae(train, y, cfg):
    """Train one VAE on one loss; returns its nets."""
    from mixedae import models, nn
    from mixedae.losses import compute_balance_weights
    from mixedae.rng import derive_seed, gaussian, make_rng

    X, enc = train.values, train.encoder
    y = np.asarray(y, dtype=np.float64)
    y_lo, y_hi = float(y.min()), float(y.max())
    ys = ((y - y_lo) / (y_hi - y_lo))[:, None]
    weights = compute_balance_weights(enc) if cfg.loss.needs_weights else None
    nets = models.build_vae(train.width, cfg.dim_hidden, cfg.dim_z, derive_seed(cfg.seed, 0))
    opts = [nn.AdamState.like(net.params) for net in nets.all()]
    shuffle = make_rng(derive_seed(cfg.seed, 1))
    noise_rng = make_rng(derive_seed(cfg.seed, 2))
    n = X.shape[0]
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb, yb = X[idx], ys[idx]
            t1 = nn.forward(nets.hl1, xb)
            t_mu = nn.forward(nets.hl21, t1.output)
            t_lv = nn.forward(nets.hl22, t1.output)
            mu, logvar = t_mu.output, t_lv.output
            eps = gaussian(noise_rng, mu.shape)
            z = models.reparameterize(mu, logvar, eps)
            t3 = nn.forward(nets.hl3, z)
            t_x = nn.forward(nets.hl41, t3.output)
            t_y = nn.forward(nets.hl42, t3.output)
            _, (gx, gy, g_mu_kl, g_lv_kl) = frozen_vae_loss(
                t_x.output, xb, t_y.output, yb, mu, logvar, weights, cfg.loss
            )
            g41, d41 = gradients(nets.hl41, t_x, gx)
            g42, d42 = gradients(nets.hl42, t_y, gy)
            g3, dz = gradients(nets.hl3, t3, d41 + d42)
            d_mu = dz + g_mu_kl
            d_lv = dz * eps * 0.5 * np.exp(0.5 * logvar) + g_lv_kl
            g21, d21 = gradients(nets.hl21, t_mu, d_mu)
            g22, d22 = gradients(nets.hl22, t_lv, d_lv)
            g1, _ = gradients(nets.hl1, t1, d21 + d22)
            for net, opt, g in zip(nets.all(), opts, [g1, g21, g22, g3, g41, g42]):
                nn.adam_step(opt, net.params, g, cfg.learning_rate)
    return nets


# ----------------------------------------------------------------------
# vae_generate as it was before it decoded and sampled its score matrix in
# row blocks: the whole matrix at once. The package's must match it bit for
# bit, the generator's final state included.
# ----------------------------------------------------------------------

def whole_vae_generate(model, count, seed):
    """The generated dataset, and the generator as the draws left it."""
    from mixedae.nn import forward_output
    from mixedae.rng import gaussian, make_rng
    from mixedae.tabular import Dataset, EncodedMatrix, decode

    rng = make_rng(seed)
    z = gaussian(rng, (count, model.config.dim_z))
    h3 = forward_output(model.nets.hl3, z)
    x_scores = forward_output(model.nets.hl41, h3)
    y_scaled = forward_output(model.nets.hl42, h3)[:, 0]
    enc = model.state
    cols = dict(decode(EncodedMatrix(x_scores, enc), enc).columns)
    for name, g in zip(enc.schema.categorical_names(), enc.categorical_groups()):
        s = np.clip(x_scores[:, g], 1e-9, None)
        s /= s.sum(axis=1, keepdims=True)
        u = rng.random(count)
        cols[name] = np.minimum((np.cumsum(s, axis=1, out=s) < u[:, None]).sum(axis=1), len(g) - 1)
    y_lo, y_hi = model.y_range
    return Dataset(enc.schema, cols, y=y_lo + y_scaled * (y_hi - y_lo)), rng


# ----------------------------------------------------------------------
# The metric and proxy kernels as they were written before the shared
# level helper (np.unique, np.add.at, the full distance matrix and the
# masked sigmoid). The kernels in mixedae must match these bit for bit.
# ----------------------------------------------------------------------

def unique_average_ranks(x):
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    cum = np.cumsum(counts)
    avg = (cum - counts + 1 + cum) / 2.0
    return avg[inverse]


def unique_spearman(x, y):
    from mixedae.errors import LengthMismatch, ZeroVariance

    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.size < 2:
        raise LengthMismatch("need two equal-length vectors of size >= 2")
    rx = unique_average_ranks(x)
    ry = unique_average_ranks(y)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    sx = np.sum(dx * dx)
    sy = np.sum(dy * dy)
    if sx == 0.0 or sy == 0.0:
        raise ZeroVariance("rank vector is constant")
    return float(np.sum(dx * dy) / np.sqrt(sx * sy))


def unique_cramers_v(a, b):
    from mixedae.errors import DegenerateTable, LengthMismatch

    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.size < 1:
        raise LengthMismatch("need two equal-length vectors")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    r = ai.max() + 1
    c = bi.max() + 1
    if r < 2 or c < 2:
        raise DegenerateTable("both variables need >= 2 observed categories")
    n = a.size
    table = np.zeros((r, c))
    np.add.at(table, (ai, bi), 1.0)
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / n
    chi2 = float(np.sum((table - expected) ** 2 / expected))
    return float(np.sqrt(chi2 / (n * min(r - 1, c - 1))))


def unique_eta_squared(x, g):
    from mixedae.errors import EmptyGroup, LengthMismatch, ZeroVariance

    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(g)
    if x.shape != g.shape or x.size < 2:
        raise LengthMismatch("need two equal-length vectors of size >= 2")
    _, gi, counts = np.unique(g, return_inverse=True, return_counts=True)
    if counts.size < 2:
        raise EmptyGroup("need at least 2 non-empty groups")
    if np.all(x == x.flat[0]):  # one distinct value
        raise ZeroVariance("x has zero total variance")
    total = x - x.mean()
    sst = float(np.sum(total * total))
    if sst == 0.0:
        raise ZeroVariance("x has zero total variance")
    sums = np.zeros(counts.size)
    np.add.at(sums, gi, x)
    means = sums / counts
    ssb = float(np.sum(counts * (means - x.mean()) ** 2))
    return ssb / sst


def masked_confusion_counts(y_true, y_pred):
    from mixedae.errors import LengthMismatch

    y_true = np.asarray(y_true).astype(bool)
    y_pred = np.asarray(y_pred).astype(bool)
    if y_true.shape != y_pred.shape:
        raise LengthMismatch("y_true and y_pred must have equal length")
    return (
        int(np.sum(y_true & y_pred)),
        int(np.sum(~y_true & ~y_pred)),
        int(np.sum(~y_true & y_pred)),
        int(np.sum(y_true & ~y_pred)),
    )


def _full_distances(points, labels):
    """Checks, levels and the whole n x n distance matrix, built in blocks
    of rows x n x d with np.sum."""
    from mixedae.errors import LengthMismatch, SingleCluster

    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    if points.ndim != 2 or points.shape[0] != labels.shape[0]:
        raise LengthMismatch("points must be n x d with one label per row")
    n = points.shape[0]
    if n < 3:
        raise LengthMismatch("need at least 3 points")
    _, li, counts = np.unique(labels, return_inverse=True, return_counts=True)
    if counts.size < 2:
        raise SingleCluster("need at least 2 clusters")
    dist = np.empty((n, n))
    step = max(1, 2**22 // max(1, n * points.shape[1]))
    for start in range(0, n, step):
        block = points[start : start + step, None, :] - points[None, :, :]
        dist[start : start + step] = np.sqrt(np.sum(block * block, axis=2))
    onehot = np.zeros((n, counts.size))
    onehot[np.arange(n), li] = 1.0
    return dist, onehot, li, counts


def _silhouette_from_sums(sums, li, counts):
    n = li.size
    own_count = counts[li]
    with np.errstate(invalid="ignore", divide="ignore"):
        a = sums[np.arange(n), li] / np.maximum(own_count - 1, 1)
    mean_other = sums / counts[None, :]
    mean_other[np.arange(n), li] = np.inf
    b = mean_other.min(axis=1)
    denom = np.maximum(a, b)
    s = np.where(denom > 0.0, (b - a) / np.where(denom > 0.0, denom, 1.0), 0.0)
    s = np.where(own_count == 1, 0.0, s)
    return float(np.mean(s))


def full_matrix_silhouette(points, labels):
    """Cluster sums from the whole matrix, added in the 32-row strips of
    metrics.silhouette: each strip's rows on and above the diagonal, then
    the mirrored columns of the rows below it."""
    dist, onehot, li, counts = _full_distances(points, labels)
    n = li.size
    sums = np.zeros(onehot.shape)
    for s in range(0, n, 32):
        e = min(s + 32, n)
        sums[s:e] += dist[s:e, s:] @ onehot[s:]
        sums[e:] += dist[s:e, e:].T @ onehot[s:e]
    return _silhouette_from_sums(sums, li, counts)


def single_gemm_silhouette(points, labels):
    """Cluster sums as one n x n x k product, as before the strips; equal to
    full_matrix_silhouette up to the order of the additions."""
    dist, onehot, li, counts = _full_distances(points, labels)
    return _silhouette_from_sums(dist @ onehot, li, counts)


def unique_rank_auc(y_true, scores):
    from mixedae.errors import LengthMismatch, SingleClassTruth

    y_true = np.asarray(y_true).astype(bool)
    scores = np.asarray(scores, dtype=np.float64)
    if y_true.shape != scores.shape:
        raise LengthMismatch("y_true and scores must have equal length")
    n_pos = int(y_true.sum())
    n_neg = y_true.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassTruth("AUC needs both classes in y_true")
    ranks = unique_average_ranks(scores)
    return float((ranks[y_true].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def masked_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    e = np.exp(z[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def masked_logistic_fit(X, y, steps, lr=1.0, lam=1e-4):
    """Full-batch gradient descent on the log-loss; (coef, intercept)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = X.shape
    coef = np.zeros(d)
    intercept = 0.0
    for _ in range(steps):
        p = masked_sigmoid(X @ coef + intercept)
        err = p - y
        coef -= lr * (X.T @ err / n + lam * coef)
        intercept -= lr * float(err.mean())
    return coef, intercept


def same_dataset(a, b, numeric_tol=0.0):
    """Equal schemas, target names and categorical codes; numerics and
    targets equal, or within ``numeric_tol`` (relative and absolute)."""
    def close(u, v):
        return np.allclose(u, v, rtol=numeric_tol, atol=numeric_tol) if numeric_tol else np.array_equal(u, v)

    if a.schema != b.schema or a.target_name != b.target_name or (a.y is None) != (b.y is None):
        return False
    return all(
        (np.array_equal if c.is_categorical else close)(a.column(c.name), b.column(c.name))
        for c in a.schema.columns
    ) and (a.y is None or close(a.y, b.y))


# ----------------------------------------------------------------------
# The one-hot layout, one encoded feature at a time
# ----------------------------------------------------------------------
# The encoder's layout code before ``Schema.spans``: a FeatureRef per
# encoded column, running column offsets, and a scalar weight loop.

@dataclass(frozen=True)
class FeatureRef:
    """One encoded column: a numeric variable, or one category of a variable."""

    column: str
    category: int | None  # None for numeric features
    name: str


def feature_refs(schema):
    refs = []
    for c in schema.columns:
        if c.is_categorical:
            refs.extend(FeatureRef(c.name, k, f"{c.name}={cat}") for k, cat in enumerate(c.categories))
        else:
            refs.append(FeatureRef(c.name, None, c.name))
    return tuple(refs)


def feature_names_per_feature(enc):
    return tuple(f.name for f in feature_refs(enc.schema))


def feature_frequencies_per_feature(enc):
    features = feature_refs(enc.schema)
    out = np.full(len(features), np.nan)
    for j, f in enumerate(features):
        if f.category is not None:
            out[j] = enc.category_counts[f.column][f.category] / enc.n
    return out


def categorical_groups_per_feature(enc):
    groups = {}
    for j, f in enumerate(feature_refs(enc.schema)):
        if f.category is not None:
            groups.setdefault(f.column, []).append(j)
    return [np.asarray(groups[name]) for name in enc.schema.categorical_names()]


def offset_encode(data, enc):
    """The n x P encoded matrix, filled at a running column offset."""
    out = np.zeros((data.n, len(feature_refs(enc.schema))))
    j = 0
    for c in data.schema.columns:
        v = data.column(c.name)
        if c.is_categorical:
            p_q = len(c.categories)
            out[np.arange(data.n), j + v] = 1.0
            j += p_q
        else:
            lo, hi = enc.numeric_range[c.name]
            out[:, j] = np.clip((v - lo) / (hi - lo), 0.0, 1.0)
            j += 1
    return out


def offset_decode(values, enc):
    """Decoded columns of an n x P matrix, read at a running column offset."""
    cols = {}
    j = 0
    for c in enc.schema.columns:
        if c.is_categorical:
            p_q = len(c.categories)
            cols[c.name] = np.argmax(values[:, j : j + p_q], axis=1)
            j += p_q
        else:
            lo, hi = enc.numeric_range[c.name]
            cols[c.name] = lo + values[:, j] * (hi - lo)
            j += 1
    return cols


def scalar_balance_weights(enc):
    """(w_one, w_zero, is_categorical), one encoded feature at a time."""
    from mixedae.errors import DegenerateCategory

    n = enc.n
    features = feature_refs(enc.schema)
    w1 = np.ones(len(features))
    w0 = np.ones(len(features))
    is_cat = np.zeros(len(features), dtype=bool)
    for j, f in enumerate(features):
        if f.category is None:
            continue
        counts = enc.category_counts[f.column]
        n_kq = int(counts[f.category])
        p_q = len(counts)
        if n_kq < 1 or n_kq > n - 1:
            raise DegenerateCategory(
                f"category {f.name!r} has count {n_kq} of {n}; balance weight singular"
            )
        w1[j] = n / (2.0 * p_q * n_kq)
        w0[j] = n / (2.0 * p_q * (n - n_kq))
        is_cat[j] = True
    return w1, w0, is_cat


# ----------------------------------------------------------------------
# The CSV reader that holds the whole file as strings
# ----------------------------------------------------------------------
# ``tabular.read_csv`` before it streamed: every row kept as a list of
# cells, a copy of the table by column, then inference and conversion one
# column at a time.

def list_read_csv(path, schema=None, *, target=None):
    import csv
    import math

    from mixedae.errors import DataError, MissingValue, SchemaMismatch, ShapeError, UnknownCategory
    from mixedae.tabular import Column, Dataset, Schema

    def parse_float(cell):
        try:
            return float(cell)
        except ValueError:
            return None

    def coerce_number(cell, name, row):
        v = parse_float(cell)
        if v is None or not math.isfinite(v):
            raise DataError(f"column {name!r}, row {row}: cell {cell!r} is not a finite number")
        return v

    try:
        with open(path, newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as e:
        raise DataError(f"cannot read CSV {path}: {e}") from e
    if not table:
        raise DataError(f"{path}: empty file")
    header, *rows = table
    width = len(header)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ShapeError(f"{path}: row {i + 2} has {len(row)} cells, expected {width}")
        for name, cell in zip(header, row):
            if cell == "":
                raise MissingValue(f"{path}: empty cell in column {name!r}, row {i + 2}")

    raw = {name: [row[k] for row in rows] for k, name in enumerate(header)}
    y = None
    if target is not None:
        if target not in raw:
            raise DataError(f"{path}: target column {target!r} not found")
        y_cells = raw.pop(target)
        y = np.array([coerce_number(c, target, i + 2) for i, c in enumerate(y_cells)])
        header = [h for h in header if h != target]

    if schema is None:
        cols = []
        for name in header:
            numeric = all(parse_float(c) is not None for c in raw[name])
            cols.append(Column(name, None if numeric else tuple(dict.fromkeys(raw[name]))))
        schema = Schema(tuple(cols))
    elif list(schema.names) != header:
        raise SchemaMismatch(f"{path}: header {header} does not match schema {list(schema.names)}")

    out = {}
    for c in schema.columns:
        cells = raw[c.name]
        if c.is_categorical:
            index = {cat: k for k, cat in enumerate(c.categories)}
            codes = np.empty(len(cells), dtype=np.int64)
            for i, cell in enumerate(cells):
                if cell not in index:
                    raise UnknownCategory(f"{path}: value {cell!r} not a category of {c.name!r}")
                codes[i] = index[cell]
            out[c.name] = codes
        else:
            out[c.name] = np.array([coerce_number(cell, c.name, i + 2) for i, cell in enumerate(cells)])
    return Dataset(schema, out, y=y, target_name=target or "y")
