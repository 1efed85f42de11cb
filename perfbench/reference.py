"""Reference computations the benchmark checks the program against.

Everything here is written from the definitions, apart from mixedae:
plain loops, numpy and scipy.stats. None of it stores a copy of the
program's output.
"""

from __future__ import annotations

import numpy as np


def sub_seed(seed: int, *path: int) -> int:
    """The documented sub-seed rule: SeedSequence([seed, *path])."""
    return int(np.random.SeedSequence([int(seed), *map(int, path)]).generate_state(1)[0])


def split_indices(n: int, test_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Train and test row indices of a seeded uniform split."""
    perm = np.random.Generator(np.random.PCG64(seed)).permutation(n)
    test_n = int(round(n * test_fraction))
    return np.sort(perm[test_n:]), np.sort(perm[:test_n])


def one_hot(columns: dict, spec, ranges: dict) -> np.ndarray:
    """Min-max scaled numerics (clipped to [0, 1]) and one-hot categoricals.

    ``spec`` is a list of (name, number of categories or None).
    """
    blocks = []
    for name, cats in spec:
        v = np.asarray(columns[name])
        if cats:
            blocks.append((v[:, None] == np.arange(cats)).astype(np.float64))
        else:
            lo, hi = ranges[name]
            blocks.append(np.clip((v - lo) / (hi - lo), 0.0, 1.0)[:, None])
    return np.hstack(blocks)


def decode(values: np.ndarray, spec, ranges: dict) -> dict:
    """Per-variable argmax (lowest index on ties) and inverse min-max."""
    out, j = {}, 0
    for name, cats in spec:
        if cats:
            out[name] = np.argmax(values[:, j : j + cats], axis=1)
            j += cats
        else:
            lo, hi = ranges[name]
            out[name] = lo + values[:, j] * (hi - lo)
            j += 1
    return out


def ridge(X: np.ndarray, y: np.ndarray, lam: float) -> tuple[np.ndarray, float]:
    """Ridge with an unpenalized intercept, by lstsq on the augmented system."""
    x_mean, y_mean = X.mean(axis=0), y.mean()
    A = np.vstack([X - x_mean, np.sqrt(lam) * np.eye(X.shape[1])])
    b = np.concatenate([y - y_mean, np.zeros(X.shape[1])])
    coef = np.linalg.lstsq(A, b, rcond=None)[0]
    return coef, float(y_mean - x_mean @ coef)


def balanced_accuracy(truth, pred) -> float:
    tp = tn = fp = fn = 0
    for t, p in zip(truth, pred):
        if t and p:
            tp += 1
        elif t:
            fn += 1
        elif p:
            fp += 1
        else:
            tn += 1
    return 0.5 * (tp / (tp + fn) + tn / (tn + fp))


def eta_squared(x, g) -> float:
    x = [float(v) for v in x]
    grand = sum(x) / len(x)
    sst = sum((v - grand) ** 2 for v in x)
    ssb = 0.0
    for level in set(g.tolist() if hasattr(g, "tolist") else g):
        member = [v for v, lab in zip(x, g) if lab == level]
        ssb += len(member) * (sum(member) / len(member) - grand) ** 2
    return ssb / sst


def spearman(x, y) -> float:
    from scipy.stats import spearmanr

    return float(spearmanr(x, y).statistic)


def cramers_v(a, b) -> float:
    from scipy.stats import chi2_contingency

    la, ai = np.unique(a, return_inverse=True)
    lb, bi = np.unique(b, return_inverse=True)
    table = np.zeros((la.size, lb.size))
    for i, j in zip(ai, bi):
        table[i, j] += 1
    chi2 = chi2_contingency(table, correction=False)[0]
    return float(np.sqrt(chi2 / (len(a) * min(la.size - 1, lb.size - 1))))


def rank_auc(truth: np.ndarray, scores: np.ndarray) -> float:
    from scipy.stats import mannwhitneyu

    pos, neg = scores[truth], scores[~truth]
    return float(mannwhitneyu(pos, neg).statistic / (pos.size * neg.size))


def mixed_correlation_distance(cols1: dict, cols2: dict, spec) -> float:
    """Sum over column pairs of |association in table 1 - in table 2|,
    by pair type: Spearman, Cramer's V, or eta squared."""

    def assoc(cols, a, b):
        (na, ca), (nb, cb) = a, b
        if not ca and not cb:
            return spearman(cols[na], cols[nb])
        if ca and cb:
            return cramers_v(cols[na], cols[nb])
        num, cat = (na, nb) if not ca else (nb, na)
        return eta_squared(cols[num], cols[cat])

    total = 0.0
    for i in range(len(spec)):
        for j in range(i + 1, len(spec)):
            total += abs(assoc(cols1, spec[i], spec[j]) - assoc(cols2, spec[i], spec[j]))
    return total


def msem(orig: dict, recon: dict, spec, ranges: dict) -> float:
    """Mean over variables of scaled numeric MSE or 1 - mean per-category
    balanced accuracy."""
    total = 0.0
    for name, cats in spec:
        x, r = np.asarray(orig[name]), np.asarray(recon[name])
        if cats:
            accs = [balanced_accuracy(x == k, r == k) for k in range(cats)]
            total += 1.0 - sum(accs) / cats
        else:
            lo, hi = ranges[name]
            total += sum(((a - b) / (hi - lo)) ** 2 for a, b in zip(x, r)) / len(x)
    return total / len(spec)


def silhouette(points: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette, one point at a time; singletons score 0."""
    n = len(points)
    levels = sorted(set(labels.tolist()))
    members = {c: labels == c for c in levels}
    scores = []
    for i in range(n):
        d = np.sqrt(np.sum((points - points[i]) ** 2, axis=1))
        own = members[labels[i]]
        if own.sum() == 1:
            scores.append(0.0)
            continue
        a = d[own].sum() / (own.sum() - 1)
        b = min(d[members[c]].mean() for c in levels if c != labels[i])
        scores.append(0.0 if max(a, b) == 0 else (b - a) / max(a, b))
    return sum(scores) / n


def log_loss(y: np.ndarray, p: np.ndarray) -> float:
    p = np.clip(p, 1e-300, 1.0 - 1e-16)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log1p(-p)))
