"""Brute-force reference implementations, written from the definitions.

These stay deliberately naive (plain loops over the data) so they are
independent of the vectorized code paths they check.
"""

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
