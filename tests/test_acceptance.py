"""Acceptance suite.

Runs every acceptance criterion at its stated tolerance and prints one
PASS/FAIL line per criterion (run with ``pytest -s`` to see the lines as
they complete). The desk-scale replication criteria (6, 7, 8, 10) share
one 5-run experiment at 1000 and 3000 epochs; criterion 9 shares a 5-run
VAE comparison. Expect several minutes of training for those.
"""

import itertools
import time

import numpy as np
import pytest

from mixedae import metrics, nn
from mixedae.experiments import DataSource, ExperimentConfig, run_experiment
from mixedae.losses import (
    LossWeights,
    balanced_mse_loss,
    blended_loss,
    compute_balance_weights,
    cross_entropy_loss,
    mse_loss,
)
from mixedae.models import (
    AutoencoderConfig,
    VAEConfig,
    parse_loss,
    reparameterize,
    train_autoencoder,
    train_vae_arms,
    vae_loss,
    vae_reconstruct,
)
from mixedae.rng import derive_seed, make_rng
from mixedae.tabular import (
    Column,
    Dataset,
    EncoderState,
    Schema,
    fit_encoder,
    generate_synthetic,
    split,
)
from oracles import (
    brute_balanced_accuracy,
    brute_cramers_v,
    brute_eta_squared,
    brute_silhouette,
    brute_spearman,
)

MASTER_SEED = 0  # the five replication runs are 0..4 under this master seed


def report(number, ok, detail):
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


# ----------------------------------------------------------------------
# Shared heavy fixtures
# ----------------------------------------------------------------------

@pytest.fixture(scope="session")
def replication():
    """5 seeded runs, standard vs balanced, 1000 and 3000 epochs."""
    cfg = ExperimentConfig(
        source=DataSource(kind="synthetic", context="imbalanced", n=2000),
        task="regression",
        runs=5,
        epochs=(1000, 3000),
        losses=("standard", "balanced"),
        seed=MASTER_SEED,
    )
    t0 = time.time()
    rep = run_experiment(cfg, jobs=2)
    return rep, time.time() - t0


@pytest.fixture(scope="session")
def vae_runs():
    """5 seeded VAE pairs on the imbalanced context at the C.2 defaults."""
    data = generate_synthetic("imbalanced", 2000, seed=derive_seed(MASTER_SEED, 0))
    out = {"standard": [], "balanced": []}
    for run in range(5):
        train, test = split(data, 0.4, derive_seed(MASTER_SEED, run, 0))
        enc = fit_encoder(train)
        # both losses in lockstep: each arm has the bits of its own training
        cfg = VAEConfig(epochs=1000, seed=derive_seed(MASTER_SEED, run, 1))
        for loss, model in zip(out, train_vae_arms(train, enc, cfg, tuple(out))):
            out[loss].append(metrics.msem(test, vae_reconstruct(model, test), enc))
    return {k: np.asarray(v) for k, v in out.items()}


# ----------------------------------------------------------------------
# Criterion 1: gradient correctness for all four losses
# ----------------------------------------------------------------------

def test_criterion_01_gradient_correctness():
    rng = make_rng(101)
    t0 = time.time()
    worst = 0.0
    for trial in range(50):
        n_layers = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, 21)) for _ in range(n_layers + 1)]
        acts = [nn.TANH] * n_layers
        net = nn.init_network(dims, acts, seed=trial)
        B = int(rng.integers(2, 7))
        x = rng.random((B, dims[0]))
        d_out = dims[-1]

        target = (rng.random((B, d_out)) < 0.5).astype(float)
        w = LossWeights(
            0.1 + 5.0 * rng.random(d_out),
            0.1 + 5.0 * rng.random(d_out),
            np.ones(d_out, dtype=bool),
        )
        if d_out >= 2:
            g_size = int(rng.integers(2, min(4, d_out) + 1))
            groups = [np.arange(g_size)]
            ce_target = rng.random((B, d_out))
            ce_target[:, :g_size] = 0.0
            ce_target[np.arange(B), rng.integers(0, g_size, size=B)] = 1.0
        else:
            groups = []
            ce_target = rng.random((B, d_out))

        cases = [
            ("mse", lambda p: mse_loss(p, target)),
            ("balanced", lambda p: balanced_mse_loss(p, target, w)),
            ("blended", lambda p: blended_loss(0.3, p, target, w)),
            ("ce", lambda p: cross_entropy_loss(p, ce_target, groups)),
        ]
        for _, loss_fn in cases:
            trace = nn.forward(net, x)
            value, d_pred = loss_fn(trace.output)
            grads = nn.backward(net, trace, d_pred)
            h = 1e-5
            for li, layer in enumerate(net.layers):
                for arr, g in ((layer.W, grads.layers[li][0]), (layer.b, grads.layers[li][1])):
                    flat = arr.reshape(-1)
                    gflat = g.reshape(-1)
                    for ix in range(flat.size):
                        old = flat[ix]
                        flat[ix] = old + h
                        vp = loss_fn(nn.forward(net, x).output)[0]
                        flat[ix] = old - h
                        vm = loss_fn(nn.forward(net, x).output)[0]
                        flat[ix] = old
                        fd = (vp - vm) / (2 * h)
                        an = gflat[ix]
                        err = abs(fd - an) / max(1e-6, abs(fd), abs(an))
                        worst = max(worst, err)
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    assert report(1, ok, f"max relative gradient error {worst:.2e}, {elapsed:.1f}s"), (
        f"worst {worst}, elapsed {elapsed}"
    )


# ----------------------------------------------------------------------
# Criterion 2: MSE = 1 - accuracy on hard binary columns
# ----------------------------------------------------------------------

def test_criterion_02_mse_accuracy_identity():
    rng = make_rng(102)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        t = (rng.random(n) < rng.random()).astype(float)
        p = (rng.random(n) < rng.random()).astype(float)
        column_mse = float(np.mean((t - p) ** 2))
        accuracy = float(np.mean(t == p))
        worst = max(worst, abs(column_mse - (1.0 - accuracy)))
    ok = worst <= 1e-12
    assert report(2, ok, f"max |MSE - (1 - accuracy)| = {worst:.2e}"), worst


# ----------------------------------------------------------------------
# Criterion 3: balanced-SSE bounds
# ----------------------------------------------------------------------

def test_criterion_03_balanced_sse_bounds():
    rng = make_rng(103)
    worst_term, worst_total = 0.0, 0.0
    for trial in range(1000):
        p_q = int(rng.integers(2, 7))
        counts = rng.integers(1, 50, size=p_q)
        n = int(counts.sum())
        schema = Schema((Column("q", tuple(f"c{k}" for k in range(p_q))),))
        enc = EncoderState(schema, n, {}, {"q": counts})
        w = compute_balance_weights(enc)
        codes = rng.permutation(np.repeat(np.arange(p_q), counts))
        t = np.zeros((n, p_q))
        t[np.arange(n), codes] = 1.0
        pred = rng.random((n, p_q))
        e2 = (t - pred) ** 2
        total = 0.0
        for j in range(p_q):
            ones = float(w.w_one[j] * e2[t[:, j] == 1.0, j].sum())
            zeros = float(w.w_zero[j] * e2[t[:, j] == 0.0, j].sum())
            worst_term = max(worst_term, ones - n / 2, zeros - n / 2)
            total += ones + zeros
        worst_total = max(worst_total, total - n)
    ok = worst_term <= 1e-9 and worst_total <= 1e-9
    assert report(
        3, ok, f"term excess {worst_term:.2e}, variable-total excess {worst_total:.2e}"
    ), (worst_term, worst_total)


# ----------------------------------------------------------------------
# Criterion 4: unit-weight balanced training == standard training, bitwise
# ----------------------------------------------------------------------

def test_criterion_04_reduction_property():
    data = generate_synthetic("imbalanced", 200, seed=1)
    train = Dataset(data.schema, dict(data.columns))
    enc = fit_encoder(train)
    unit = LossWeights.unit(enc.width)
    ms = train_autoencoder(train, enc, AutoencoderConfig(epochs=50, seed=14, loss="standard"))
    mb = train_autoencoder(
        train, enc, AutoencoderConfig(epochs=50, seed=14, loss="balanced"), weights=unit
    )
    identical = all(
        np.array_equal(a.W, b.W) and np.array_equal(a.b, b.b)
        for na, nb in ((ms.encoder_net, mb.encoder_net), (ms.decoder_net, mb.decoder_net))
        for a, b in zip(na.layers, nb.layers)
    ) and np.array_equal(ms.curves.errors, mb.curves.errors)
    assert report(4, identical, "trajectories bit-identical over 50 epochs"), "diverged"


# ----------------------------------------------------------------------
# Criterion 5: exhaustive small-instance metric oracles
# ----------------------------------------------------------------------

def all_vectors(alphabet, n):
    return itertools.product(range(alphabet), repeat=n)


def test_criterion_05_metric_oracles():
    """Exhaustive coverage of each statistic's distinguishable inputs:

    - balanced accuracy: every binary truth/prediction pair, n <= 8;
    - spearman / eta squared: every alphabet-3 value pattern to n = 5 and
      every alphabet-2 pattern to n = 8 (rank/group statistics depend on
      the inputs only through these patterns), spearman additionally on
      every tie-free permutation pair to n = 5;
    - Cramer's V: every contingency table up to 3x3 with n <= 8 (the
      statistic is table-determined);
    - silhouette: every labeling into <= 3 clusters of fixed random point
      sets, n <= 8.
    """
    t0 = time.time()
    checks = 0

    def close(a, b):
        return abs(a - b) <= 1e-10

    # balanced accuracy
    for n in range(1, 9):
        vectors = [np.array(v, dtype=float) for v in all_vectors(2, n)]
        for t in vectors:
            if t.min() == t.max():
                continue
            for p in vectors:
                assert close(
                    metrics.balanced_accuracy(t, p), brute_balanced_accuracy(t, p)
                )
                checks += 1

    # spearman
    def spearman_cases():
        for n in range(2, 6):
            for x in all_vectors(3, n):
                for y in all_vectors(3, n):
                    yield np.array(x, float), np.array(y, float)
        for n in range(6, 9):
            for x in all_vectors(2, n):
                for y in all_vectors(2, n):
                    yield np.array(x, float), np.array(y, float)
        for n in range(2, 6):
            for x in itertools.permutations(range(n)):
                for y in itertools.permutations(range(n)):
                    yield np.array(x, float), np.array(y, float)

    for x, y in spearman_cases():
        expected = brute_spearman(x, y)
        if expected is None:
            continue
        assert close(metrics.spearman(x, y), expected)
        checks += 1

    # Cramer's V over all tables up to 3x3, n <= 8
    for r in (2, 3):
        for c in (2, 3):
            cells = r * c
            for n in range(2, 9):
                for combo in itertools.combinations(range(n + cells - 1), cells - 1):
                    counts = np.diff((-1,) + combo + (n + cells - 1,)) - 1
                    table = counts.reshape(r, c)
                    if (table.sum(axis=1) == 0).any() or (table.sum(axis=0) == 0).any():
                        continue
                    a = np.repeat(np.arange(r), table.sum(axis=1))
                    b = np.concatenate([
                        np.repeat(np.arange(c), table[i]) for i in range(r)
                    ])
                    expected = brute_cramers_v(list(a), list(b))
                    assert close(metrics.cramers_v(a, b), expected)
                    checks += 1

    # eta squared
    levels = np.array([0.0, 0.5, 1.0])
    for n in range(2, 6):
        for xv in all_vectors(3, n):
            x = levels[list(xv)]
            for gv in all_vectors(3, n):
                expected = brute_eta_squared(list(x), list(gv))
                if expected is None:
                    continue
                assert close(metrics.eta_squared(x, np.array(gv)), expected)
                checks += 1
    for n in range(6, 8):
        for xv in all_vectors(2, n):
            x = np.array(xv, float)
            for gv in all_vectors(2, n):
                expected = brute_eta_squared(list(x), list(gv))
                if expected is None:
                    continue
                assert close(metrics.eta_squared(x, np.array(gv)), expected)
                checks += 1

    # silhouette: all labelings of fixed point sets
    rng = make_rng(105)
    for n in range(4, 9):
        points = rng.random((n, 2))
        for labels in all_vectors(3, n):
            labels = np.array(labels)
            expected = brute_silhouette(points, labels)
            if expected is None:
                continue
            assert close(metrics.silhouette(points, labels), expected)
            checks += 1

    elapsed = time.time() - t0
    ok = elapsed < 60.0
    assert report(5, ok, f"{checks} exhaustive checks agreed at 1e-10, {elapsed:.1f}s"), elapsed


# ----------------------------------------------------------------------
# Criteria 6-8, 10: desk-scale replication
# ----------------------------------------------------------------------

def medians(rep, metric, epochs):
    s = np.median(rep.values(metric, "standard", epochs))
    b = np.median(rep.values(metric, "balanced", epochs))
    return s, b


def test_criterion_06_balanced_beats_standard_at_1000(replication):
    rep, elapsed = replication
    s_msem, b_msem = medians(rep, "msem", 1000)
    s_rec, b_rec = medians(rep, "y_mse_recon", 1000)
    s_lat, b_lat = medians(rep, "y_mse_latent", 1000)
    ok = b_msem < s_msem and b_rec < s_rec and b_lat < s_lat and elapsed < 1200.0
    assert report(
        6,
        ok,
        f"median MSEM {b_msem:.4f} < {s_msem:.4f}, "
        f"y-MSE(recon) {b_rec:.3f} < {s_rec:.3f}, "
        f"y-MSE(latent) {b_lat:.3f} < {s_lat:.3f}, wall {elapsed:.0f}s",
    ), (s_msem, b_msem, s_rec, b_rec, s_lat, b_lat, elapsed)


def test_criterion_07_gap_shrinks_at_3000(replication):
    rep, _ = replication
    s1, b1 = medians(rep, "msem", 1000)
    s3, b3 = medians(rep, "msem", 3000)
    ok = abs(s3 - b3) < abs(s1 - b1)
    assert report(
        7, ok, f"|median MSEM gap| {abs(s3 - b3):.4f} @3000 < {abs(s1 - b1):.4f} @1000"
    ), (s1, b1, s3, b3)


def test_criterion_08_spurious_correlation_direction(replication):
    rep, _ = replication
    s_mc, b_mc = medians(rep, "mc", 1000)
    ok = b_mc < s_mc
    assert report(8, ok, f"median MC balanced {b_mc:.3f} vs standard {s_mc:.3f} @1000"), (
        f"balanced {b_mc} not below standard {s_mc}"
    )


def test_supplementary_balanced_wins_most_runs(replication):
    # run-level (not just median) version of the 1000-epoch comparison
    rep, _ = replication
    s = rep.values("msem", "standard", 1000)
    b = rep.values("msem", "balanced", 1000)
    assert (b < s).sum() >= 4


def test_criterion_10_minority_columns_lag_under_standard(replication):
    rep, _ = replication
    data = generate_synthetic("imbalanced", 2000, seed=derive_seed(MASTER_SEED, 0))
    hits = 0
    for run in range(5):
        train, _ = split(data, 0.4, derive_seed(MASTER_SEED, run, 0))
        enc = fit_encoder(train)
        freqs = enc.feature_frequencies()
        minority = np.where(np.nan_to_num(freqs, nan=1.0) < 0.1)[0]
        majority = np.where(np.nan_to_num(freqs, nan=0.0) > 0.3)[0]
        final = rep.curves[(run, 1000, "standard")].errors[-1]
        if final[minority].mean() > final[majority].mean():
            hits += 1
    ok = hits >= 4
    assert report(10, ok, f"minority error above majority in {hits}/5 runs"), hits


# ----------------------------------------------------------------------
# Criterion 9: VAE suite
# ----------------------------------------------------------------------

def test_criterion_09_vae_suite(vae_runs):
    eps = make_rng(109).random((3, 4))
    exact = np.array_equal(reparameterize(np.zeros((3, 4)), np.zeros((3, 4)), eps), eps)
    mu = np.array([0.7, -1.2])
    collapsed = np.allclose(
        reparameterize(mu, np.full(2, -50.0), np.array([5.0, -5.0])), mu, atol=1e-10
    )
    shift = np.allclose(
        reparameterize(mu + 3.0, np.array([0.3, 0.1]), np.array([1.0, 2.0])),
        reparameterize(mu, np.array([0.3, 0.1]), np.array([1.0, 2.0])) + 3.0,
        atol=1e-12,
    )

    x = np.zeros((1, 2))
    y = np.zeros((1, 1))
    kl0 = vae_loss(x, x, y, y, np.zeros((1, 2)), np.zeros((1, 2)), None, parse_loss("standard"))[0]
    kl_half = vae_loss(
        x, x, y, y, np.ones((1, 1)), np.zeros((1, 1)), None, parse_loss("standard")
    )[0]
    kl_ok = abs(kl0) <= 1e-12 and abs(kl_half - 0.5) <= 1e-12

    b = np.median(vae_runs["balanced"])
    s = np.median(vae_runs["standard"])
    ordering = b < s and (vae_runs["balanced"] < vae_runs["standard"]).sum() >= 4

    ok = exact and collapsed and shift and kl_ok and ordering
    assert report(
        9,
        ok,
        f"reparameterize exact, KL spot values exact, "
        f"median VAE MSEM balanced {b:.4f} < standard {s:.4f}",
    ), (exact, collapsed, shift, kl_ok, b, s)
