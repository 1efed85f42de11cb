"""Reconstruction losses for one-hot encoded mixed data.

The standard MSE over an encoded batch treats every encoded column
equally, so rare categories contribute almost nothing to the loss and
get reconstructed last. The balanced variant weighs each one-hot
column's squared errors by how often the ground truth is 1 vs 0:

    weight when target = 1:   n / (2 * p_q * n_kq)
    weight when target = 0:   n / (2 * p_q * (n - n_kq))

where ``n_kq`` is the category's training count and ``p_q`` the number
of categories of its variable. This equalizes three influences at once:
between categories of one variable, between categorical variables of
different cardinality, and between the categorical block and min-max
scaled numeric columns (whose weights stay 1). Numeric feature errors
are untouched in both losses.

All losses return ``(value, gradient_wrt_predictions)`` and share the
same 1/(B*P) normalizer over the encoded batch, so their magnitudes are
directly comparable in learning-curve overlays. Weights are computed
once from the training-split :class:`~mixedae.tabular.EncoderState` and
frozen for the run; the weight selector is the ground-truth entry, never
the prediction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    AlphaOutOfRange,
    ConfigError,
    DegenerateCategory,
    NonBinaryTarget,
    ShapeError,
)
from .tabular import EncoderState


@dataclass(frozen=True)
class LossWeights:
    """Per encoded feature: weight applied when the target is 1 resp. 0."""

    w_one: np.ndarray
    w_zero: np.ndarray
    is_categorical: np.ndarray  # bool per encoded feature

    def __post_init__(self) -> None:
        for name in ("w_one", "w_zero", "is_categorical"):
            a = np.ascontiguousarray(getattr(self, name))
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        if not (self.w_one.shape == self.w_zero.shape == self.is_categorical.shape):
            raise ShapeError("weight arrays must share one shape")

    @property
    def width(self) -> int:
        return self.w_one.shape[0]

    @classmethod
    def unit(cls, width: int, is_categorical: np.ndarray | None = None) -> "LossWeights":
        """All-ones weights; the balanced loss then equals the standard MSE."""
        if is_categorical is None:
            is_categorical = np.zeros(width, dtype=bool)
        return cls(np.ones(width), np.ones(width), np.asarray(is_categorical, dtype=bool))

    def select(self, target: np.ndarray, checked: bool = False) -> np.ndarray:
        """Per-entry weights of a target matrix: ``w_one`` where it is 1, else
        ``w_zero``. Categorical targets must be hard 0/1 (:class:`NonBinaryTarget`),
        unless ``checked`` says they are (a training batch made from codes is)."""
        if not checked:
            if target.shape[1] != self.width:
                raise ShapeError(f"weights cover {self.width} features, batch has {target.shape[1]}")
            off = (target != 0.0) & (target != 1.0)  # a boolean mask: no float copy of any column
            if (off.any(axis=0) & self.is_categorical).any():
                raise NonBinaryTarget("categorical target entries must be exactly 0 or 1")
        return np.where(target == 1.0, self.w_one, self.w_zero)


def compute_balance_weights(enc: EncoderState) -> LossWeights:
    """Balance weights from training counts; numeric features get (1, 1).

    Raises :class:`DegenerateCategory` when some ``n_kq`` is 0 or n: the
    weight would be singular, and silently clamping it would mask a
    pathological split.
    """
    n = enc.n
    w1 = np.ones(enc.width)
    w0 = np.ones(enc.width)
    is_cat = np.zeros(enc.width, dtype=bool)
    for c, span in zip(enc.schema.columns, enc.schema.spans):
        if c.is_categorical:
            counts = enc.category_counts[c.name]
            p_q = len(counts)
            singular = np.flatnonzero((counts < 1) | (counts > n - 1))
            if singular.size:
                k = singular[0]
                raise DegenerateCategory(
                    f"category {enc.feature_names()[span][k]!r} has count {counts[k]} of {n}; "
                    "balance weight singular"
                )
            w1[span] = n / (2.0 * p_q * counts)
            w0[span] = n / (2.0 * p_q * (n - counts))
            is_cat[span] = True
    return LossWeights(w1, w0, is_cat)


def _select(weights: LossWeights | np.ndarray | None, target: np.ndarray) -> np.ndarray:
    """Per-entry weights of ``target``; rows of a selected table pass through."""
    if weights is None:
        raise ConfigError("a weighted loss needs its LossWeights, got None")
    return weights if isinstance(weights, np.ndarray) else weights.select(target)


def _check_shapes(pred: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.ndim != 2:
        raise ShapeError(f"pred {pred.shape} and target {target.shape} must be equal 2-d shapes")
    return pred, target


def _weighted_mse(pred, target, w=None, alpha=None, out=None) -> tuple[float, np.ndarray]:
    """The one weighted-MSE kernel behind the MSE-type losses; shapes unchecked.

    With ``g = pred - target`` and s = 1/g.size: value = sum((w*g)*g) * s,
    gradient = ((2*s)*w)*g, where ``w`` holds one weight per entry
    (:meth:`LossWeights.select`) or is None for unit weights; with ``alpha``,
    alpha * unit + (1 - alpha) * weighted. ``g``, then the gradient, go into
    ``out`` (which may be ``pred`` itself) or else a fresh array.
    """
    g = np.subtract(pred, target, out=out)
    scale = 1.0 / g.size
    if w is None:
        return float(np.sum(np.square(g)) * scale), np.multiply(2.0 * scale, g, out=g)
    wg = np.multiply(w, g)  # one scratch array for (w*g)*g, then for (2*s)*w
    value = float(np.sum(np.multiply(wg, g, out=wg)) * scale)
    if alpha is None:
        return value, np.multiply(np.multiply(2.0 * scale, w, out=wg), g, out=g)
    unit = float(np.sum(np.square(g)) * scale)
    grad = np.add(alpha * ((2.0 * scale) * g), (1.0 - alpha) * (((2.0 * scale) * w) * g), out=g)
    return alpha * unit + (1.0 - alpha) * value, grad


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over the whole encoded batch.

    value = (1/(B*P)) * sum (t - p)^2, gradient = (2/(B*P)) * (p - t).
    """
    return _weighted_mse(*_check_shapes(pred, target))


def balanced_mse_loss(
    pred: np.ndarray, target: np.ndarray, weights: LossWeights
) -> tuple[float, np.ndarray]:
    """Weighted MSE with the target entry selecting the weight.

    Reduces exactly (bitwise) to :func:`mse_loss` when all weights are 1.
    Categorical targets must be hard 0/1; anything else would make the
    weight selector ambiguous.
    """
    pred, target = _check_shapes(pred, target)
    return _weighted_mse(pred, target, _select(weights, target))


def blended_loss(
    alpha: float, pred: np.ndarray, target: np.ndarray, weights: LossWeights
) -> tuple[float, np.ndarray]:
    """Convex combination: alpha * MSE + (1 - alpha) * balanced MSE."""
    if not 0.0 <= alpha <= 1.0:
        raise AlphaOutOfRange(f"alpha must be in [0, 1], got {alpha}")
    pred, target = _check_shapes(pred, target)
    return _weighted_mse(pred, target, _select(weights, target), alpha)


def cross_entropy_loss(
    pred: np.ndarray, target: np.ndarray, groups: Sequence[np.ndarray]
) -> tuple[float, np.ndarray]:
    """Per-variable softmax cross-entropy benchmark.

    ``groups`` lists the encoded-column indices of each categorical
    variable; those columns of ``pred`` are treated as logits and scored
    by the negative log-likelihood of the true category. Remaining
    columns are numeric and contribute squared error. The value is the
    mean over rows and variables. Benchmark-only path: it is excluded
    from the balanced-vs-standard comparisons.
    """
    pred, target = _check_shapes(pred, target)
    B, P = pred.shape
    in_group = np.zeros(P, dtype=bool)
    for g in groups:
        in_group[np.asarray(g)] = True
    numeric = np.flatnonzero(~in_group)
    n_vars = len(groups) + numeric.size
    scale = 1.0 / (B * n_vars)

    grad = np.zeros_like(pred)
    diff = pred[:, numeric] - target[:, numeric]
    value = float(np.sum(diff * diff))
    grad[:, numeric] = 2.0 * diff

    for g in groups:
        g = np.asarray(g)
        logits = pred[:, g]
        t = target[:, g]
        m = logits.max(axis=1, keepdims=True)
        lse = m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
        value += float(np.sum(lse[:, 0] - (logits * t).sum(axis=1)))
        grad[:, g] = np.exp(logits - lse) - t
    return value * scale, grad * scale
