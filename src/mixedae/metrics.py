"""Evaluation statistics for mixed data.

The reconstruction quality metric ``msem`` mixes scaled numeric MSE with
one minus balanced accuracy per categorical variable; ``mc_distance``
compares mixed correlation matrices (Spearman rho, Cramer's V, eta
squared by pair type). Degenerate inputs raise rather than returning
silent zeros, with two exceptions: silhouette's 0/0 -> 0 convention and
``mixed_correlation``'s 0 for a constant column. Ranks, contingency
tables, groups and cluster labels all come from one helper, ``_levels``
(below ``_SMALL_N`` values, from its plain-Python mirror: the same bits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateTable,
    EmptyGroup,
    LengthMismatch,
    SchemaMismatch,
    SingleClassTruth,
    SingleCluster,
    ZeroVariance,
)
from .tabular import Dataset, EncoderState


class ConfusionCounts(NamedTuple):
    tp: int
    tn: int
    fp: int
    fn: int


def confusion_counts(y_true: np.ndarray, y_pred: np.ndarray) -> ConfusionCounts:
    y_true = np.asarray(y_true).astype(bool)
    y_pred = np.asarray(y_pred).astype(bool)
    if y_true.shape != y_pred.shape:
        raise LengthMismatch("y_true and y_pred must have equal length")
    tp, t, p = (int(np.count_nonzero(v)) for v in (y_true & y_pred, y_true, y_pred))
    return ConfusionCounts(tp=tp, tn=y_true.size - t - p + tp, fp=p - tp, fn=t - tp)


def balanced_accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """(sensitivity + specificity) / 2; truth must contain both classes."""
    c = confusion_counts(y_true, y_pred)
    if c.tp + c.fn == 0 or c.tn + c.fp == 0:
        raise SingleClassTruth("y_true contains a single class")
    return 0.5 * (c.tp / (c.tp + c.fn) + c.tn / (c.tn + c.fp))


class PredictionError(NamedTuple):
    mse: float
    mae: float
    rmse: float


def prediction_error(y_true: np.ndarray, y_pred: np.ndarray) -> PredictionError:
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape or y_true.size < 1:
        raise LengthMismatch("need equal-length vectors with at least one entry")
    d = y_true - y_pred
    mse = float(np.mean(d * d))
    return PredictionError(mse=mse, mae=float(np.mean(np.abs(d))), rmse=float(np.sqrt(mse)))


class ClassificationScores(NamedTuple):
    f1: float
    balanced_accuracy: float
    accuracy: float
    f1_defined: bool


def classification_scores(y_true: np.ndarray, y_pred: np.ndarray) -> ClassificationScores:
    """F1, balanced accuracy and accuracy.

    F1 is reported as 0 with ``f1_defined=False`` when no positives are
    predicted or none are present.
    """
    c = confusion_counts(y_true, y_pred)
    n = c.tp + c.tn + c.fp + c.fn
    denom = 2 * c.tp + c.fp + c.fn
    f1_defined = (c.tp + c.fp) > 0 and (c.tp + c.fn) > 0
    return ClassificationScores(
        f1=2 * c.tp / denom if denom > 0 else 0.0,
        balanced_accuracy=balanced_accuracy(y_true, y_pred),
        accuracy=(c.tp + c.tn) / n,
        f1_defined=f1_defined,
    )


# ----------------------------------------------------------------------
# Pairwise association statistics
# ----------------------------------------------------------------------

# Below this many values the three pairwise statistics run in plain Python on
# .tolist() values: at small n numpy's fixed cost per call, not arithmetic,
# sets their time. Both paths give the same bits (README, "Reproducibility").
_SMALL_N = 24


def _small(a: np.ndarray, b: np.ndarray) -> bool:
    """Same-shape inputs of fewer than _SMALL_N values, of dtypes whose .tolist()
    values sort and hash as numpy's do, laid out so that numpy sums them in C order."""
    return a.size < _SMALL_N and a.dtype.kind in "biufSU" and b.dtype.kind in "biufSU" and (
        a.ndim == 1 or a.flags.c_contiguous and b.flags.c_contiguous
    )


def _levels(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's unique inverse and counts of the flattened array, without its overhead."""
    # NaN != NaN keeps every NaN, but all map to the first one: the others
    # get no rows and fall off the end of the bincount, as unique does.
    v = np.ravel(v)
    s = np.sort(v)
    keep = np.empty(s.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    inverse = np.searchsorted(s[keep], v)
    return inverse, np.bincount(inverse)


def _scalar_levels(v: np.ndarray) -> tuple[list[int], list[int]]:
    """``_levels`` as lists: non-NaN values sort as np.sort does, ±inf in place,
    -0.0 and 0.0 (equal, one hash) are one level, and all NaNs one last level."""
    values = v.ravel().tolist()
    distinct = sorted({x for x in values if x == x})
    nan = len(distinct)
    index = dict(zip(distinct, range(nan)))
    inverse = [index.get(x, nan) for x in values]  # a NaN is never found
    counts = [0] * (max(inverse) + 1)
    for i in inverse:
        counts[i] += 1
    return inverse, counts


def _scalar_sum(values: list[float]) -> float:
    """np.add.reduce of a 1-D float64 array: the pairwise sum added to 0.0,
    which turns a -0.0 sum into 0.0."""
    return 0.0 + _pairwise_sum(values.__getitem__, 0, len(values))


def _average_ranks(inverse: np.ndarray, counts: np.ndarray) -> np.ndarray:
    # Average rank of ties: mean of the 1-based positions of each value block.
    cum = np.cumsum(counts)
    avg = (cum - counts + 1 + cum) / 2.0
    return avg[inverse]


def _doubled_rank_deviations(inverse: list[int], counts: list[int]) -> list[int]:
    """2 (average rank - mean rank) per value, an integer where numpy's
    deviation is an exact half: (cum - c + 1 + cum) - (n + 1) per level."""
    n = len(inverse)
    doubled = [2 * cum - c - n for cum, c in zip(accumulate(counts), counts)]
    return [doubled[i] for i in inverse]


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation of average ranks; ties allowed."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.size < 2:
        raise LengthMismatch("need two equal-length vectors of size >= 2")
    small = _small(x, y)
    levels = _scalar_levels if small else _levels
    lx, ly = levels(x), levels(y)
    if len(lx[1]) < 2 or len(ly[1]) < 2:  # one level: every rank is the mean
        raise ZeroVariance("rank vector is constant")
    if small:
        # numpy's three sums below add exact quarters, so they are exact in
        # any order: the integer sums of the doubled deviations over 4
        dx, dy = _doubled_rank_deviations(*lx), _doubled_rank_deviations(*ly)
        sx, sy = sum([d * d for d in dx]) / 4, sum([d * d for d in dy]) / 4
        return sum([p * q for p, q in zip(dx, dy)]) / 4 / math.sqrt(sx * sy)
    # n average ranks sum exactly to n(n + 1)/2; add.reduce keeps np.sum's bits
    mean = (x.size + 1) / 2.0
    dx = _average_ranks(*lx) - mean
    dy = _average_ranks(*ly) - mean
    sx, sy = np.add.reduce(dx * dx), np.add.reduce(dy * dy)
    return float(np.add.reduce(dx * dy) / np.sqrt(sx * sy))


def cramers_v(a: np.ndarray, b: np.ndarray) -> float:
    """Cramer's V on the contingency table, without bias correction."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.size < 1:
        raise LengthMismatch("need two equal-length vectors")
    small = _small(a, b)
    levels = _scalar_levels if small else _levels
    (ai, ra), (bi, cb) = levels(a), levels(b)
    r, c, n = len(ra), len(cb), a.size
    if r < 2 or c < 2:
        raise DegenerateTable("both variables need >= 2 observed categories")
    if small:
        table = [0] * (r * c)
        for i, j in zip(ai, bi):
            table[i * c + j] += 1
        expected = [p * q / n for p in ra for q in cb]  # row-major, as numpy sums the table
        chi2 = _scalar_sum([(t - e) * (t - e) / e for t, e in zip(table, expected)])
    else:
        table = np.bincount(ai * c + bi, minlength=r * c).reshape(r, c)
        expected = ra[:, None] * cb / n
        chi2 = float(np.add.reduce((table - expected) ** 2 / expected, axis=None))
    return math.sqrt(chi2 / (n * min(r - 1, c - 1)))


def eta_squared(x: np.ndarray, g: np.ndarray) -> float:
    """Between-group over total sum of squares (categorical explains numeric)."""
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(g)
    if x.shape != g.shape or x.size < 2:
        raise LengthMismatch("need two equal-length vectors of size >= 2")
    small = _small(x, g)
    gi, counts = (_scalar_levels if small else _levels)(g)
    if len(counts) < 2:
        raise EmptyGroup("need at least 2 non-empty groups")
    if x.min() == x.max():  # the mean of one value need not round back to it: SST > 0
        raise ZeroVariance("x has zero total variance")
    if small:
        values = x.ravel().tolist()
        mean = _scalar_sum(values) / x.size
        sst = _scalar_sum([(v - mean) * (v - mean) for v in values])
        sums = [0.0] * len(counts)  # bincount's weighted sums, in order from 0.0
        for i, v in zip(gi, values):
            sums[i] += v
        between = [s / k - mean for s, k in zip(sums, counts)]
        ssb = _scalar_sum([k * (d * d) for k, d in zip(counts, between)])
    else:
        mean = np.add.reduce(x, axis=None) / x.size  # the bits of x.mean()
        total = x - mean
        sst = float(np.add.reduce(total * total, axis=None))
        between = np.bincount(gi, weights=x.ravel()) / counts - mean
        ssb = float(np.add.reduce(counts * (between * between)))
    if sst == 0.0:
        raise ZeroVariance("x has zero total variance")
    return ssb / sst


# ----------------------------------------------------------------------
# Mixed correlation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MixedCorrelationMatrix:
    """p x p symmetric matrix with the entry statistic chosen per pair type."""

    schema_names: tuple[str, ...]
    values: np.ndarray

    @property
    def p(self) -> int:
        return len(self.schema_names)


def mixed_correlation(data: Dataset) -> MixedCorrelationMatrix:
    """Spearman for numeric pairs, Cramer's V for categorical pairs,
    eta squared for mixed pairs; diagonal fixed at 1. A constant column
    (one distinct value), on which all three are undefined, has 0 with
    every other column, so a collapsed reconstruction still gets a score."""
    cols = data.schema.columns
    p = len(cols)
    values = np.eye(p)
    # indexed by the number of categorical columns in the pair
    stats = (spearman, eta_squared, cramers_v)
    xs = [data.column(c.name) for c in cols]
    varies = [_levels(x)[1].size > 1 for x in xs]
    for i in range(p):
        for j in range(i + 1, p):
            ci, cj = cols[i], cols[j]
            stat = stats[ci.is_categorical + cj.is_categorical]
            xi, xj = xs[i], xs[j]
            if ci.is_categorical and not cj.is_categorical:
                xi, xj = xj, xi  # eta squared takes (numeric, categorical)
            values[i, j] = values[j, i] = stat(xi, xj) if varies[i] and varies[j] else 0.0
    return MixedCorrelationMatrix(data.schema.names, values)


def mc_distance(d1: Dataset, d2: Dataset) -> float:
    """Sum of absolute entry differences over unordered off-diagonal pairs."""
    if d1.schema != d2.schema:
        raise SchemaMismatch("datasets must share a schema")
    m1 = mixed_correlation(d1)
    m2 = mixed_correlation(d2)
    diff = np.abs(m1.values - m2.values)
    return float(np.sum(np.triu(diff, k=1)))


# ----------------------------------------------------------------------
# MSEM
# ----------------------------------------------------------------------

def msem(
    original: Dataset, reconstructed: Dataset, enc: EncoderState | None = None
) -> float:
    """Mean of scaled numeric MSE and (1 - balanced accuracy) per variable.

    Numeric columns are compared after min-max scaling — by the ranges in
    ``enc`` when given (the autoencoder's working space), otherwise by
    ranges fitted on ``original``. Each categorical variable scores the
    mean balanced accuracy of its per-category one-hot indicators.
    """
    if original.schema != reconstructed.schema:
        raise SchemaMismatch("datasets must share a schema")
    if original.n != reconstructed.n:
        raise SchemaMismatch("datasets must have the same number of rows")
    total = 0.0
    for c in original.schema.columns:
        x = original.column(c.name)
        r = reconstructed.column(c.name)
        if c.is_categorical:
            accs = []
            for k, cat in enumerate(c.categories):
                try:
                    accs.append(balanced_accuracy(x == k, r == k))
                except SingleClassTruth as e:
                    raise SingleClassTruth(f"category {cat!r} of {c.name!r} is in no or every row: {e}") from e
            total += 1.0 - float(np.mean(accs))
        else:
            if enc is not None:
                lo, hi = enc.numeric_range[c.name]
            else:
                lo, hi = float(x.min()), float(x.max())
                if hi <= lo:
                    raise ZeroVariance(f"numeric column {c.name!r} is constant")
            d = (x - r) / (hi - lo)
            total += float(np.mean(d * d))
    return total / original.schema.p


# ----------------------------------------------------------------------
# Clustering quality and ranking
# ----------------------------------------------------------------------

_STRIP = 32  # rows of the distance matrix per strip


def _pairwise_sum(term, lo: int, hi: int):
    """term(lo) + ... + term(hi - 1) in numpy's pairwise add-reduce order, so bit
    for bit np.sum over a stacked last axis (save that np.sum makes -0.0 0.0).
    The terms must be floats or fresh arrays: arrays are added to in place."""
    n = hi - lo
    if n > 128:  # two halves, the first a multiple of 8 long
        mid = lo + n // 2 - n // 2 % 8
        return _pairwise_sum(term, lo, mid) + _pairwise_sum(term, mid, hi)
    if n < 8:
        res, end = (term(lo) if n else 0.0), min(lo + 1, hi)
    else:  # eight running sums of every eighth term, added as a tree
        end = hi - n % 8

        def r(j: int):  # built one at a time: at most four are held at once
            s = term(lo + j)
            for k in range(lo + j + 8, end, 8):
                s += term(k)
            return s

        res = ((r(0) + r(1)) + (r(2) + r(3))) + ((r(4) + r(5)) + (r(6) + r(7)))
    for k in range(end, hi):  # the rest, left to right
        res += term(k)
    return res


def silhouette(points: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette with Euclidean distances; singleton points score 0."""
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    if points.ndim != 2 or points.shape[0] != labels.shape[0]:
        raise LengthMismatch("points must be n x d with one label per row")
    n = points.shape[0]
    if n < 3:
        raise LengthMismatch("need at least 3 points")
    li, counts = _levels(labels)
    k = counts.size
    if k < 2:
        raise SingleCluster("need at least 2 clusters")

    # direct differences (|x|^2 + |y|^2 - 2xy loses ~1e-10 relative precision
    # for separated clusters), one dimension at a time in np.sum's order, in
    # strips of rows on and above the diagonal. No n x n matrix is kept: each
    # strip adds its rows' cluster sums and, mirrored ((a-b)^2 == (b-a)^2),
    # those of the rows below it. Squares and roots are taken in place.
    coords = points.T.copy()
    onehot = np.zeros((n, k))
    onehot[np.arange(n), li] = 1.0
    sums = np.zeros((n, k))  # total distance from each point to each cluster
    for start in range(0, n, _STRIP):
        stop = min(start + _STRIP, n)
        rows, cols = coords[:, start:stop, None], coords[:, None, start:]

        def square(k: int) -> np.ndarray:
            d = rows[k] - cols[k]
            return np.square(d, out=d)

        upper = _pairwise_sum(square, 0, len(coords))  # the float 0.0 when d = 0
        upper = np.broadcast_to(np.sqrt(upper, out=np.asarray(upper)), (stop - start, n - start))
        sums[start:stop] += upper @ onehot[start:]
        sums[stop:] += upper[:, stop - start :].T @ onehot[start:stop]

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


def rank_auc(y_true: np.ndarray, scores: np.ndarray) -> float:
    """Binary AUC via the Mann-Whitney rank statistic (average ranks for ties)."""
    y_true = np.asarray(y_true).astype(bool)
    scores = np.asarray(scores, dtype=np.float64)
    if y_true.shape != scores.shape:
        raise LengthMismatch("y_true and scores must have equal length")
    n_pos = int(y_true.sum())
    n_neg = y_true.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassTruth("AUC needs both classes in y_true")
    ranks = _average_ranks(*_levels(scores))
    return float((ranks[y_true.ravel()].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
