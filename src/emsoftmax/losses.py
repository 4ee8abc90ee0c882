"""Softmax loss family with a soft distance margin and diversity coupling.

Four losses share the machinery here:

* plain softmax cross-entropy,
* margin softmax: the true-class logit is lowered by a non-negative
  margin ``m`` during training, which forces ``w_y.x - m > w_k.x`` and
  reduces to plain softmax at ``m = 0``,
* ensemble softmax: several weak linear classifiers ("heads") trained
  jointly, with an HSIC-based penalty that drives their normalized
  class-weight Gram matrices toward mutual independence,
* the combination of both, configured through :class:`LossConfig`.

The diversity penalty for head v is ``tr(Wv Kv Wv^T)`` with
``Kv = sum_{u != v} H Wu^T Wu H`` built from column-normalized heads and
the centering matrix ``H = I - (1/K) 11^T``. That equals the summed
empirical HSIC between head Grams, up to the ``(K-1)^-2`` scaling that
the training penalty drops. Each pass normalizes every head and forms
its centered Gram ``Gu = H Wu^T Wu H`` once; every ``Kv`` is summed from
those Grams.

One private core computes the loss over a stacked ``(..., V, d, K)``
bank, with an optional leading batch axis of whole banks. The public
entry points validate their inputs once and call it:
:func:`em_softmax_forward` on one bank, :func:`em_softmax_totals` on a
``(B, V, d, K)`` stack of banks (the gradient checker's finite
differences), and :func:`diversity_penalty` through the same kernel
builder. The forward records its checked inputs, config, probabilities,
normalized heads and kernels in its output, and
:func:`em_softmax_backward` takes that output alone and works from the
record over the whole stack, so one training step builds the kernels
once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .tensor import as_matrix

__all__ = [
    "PROB_FLOOR",
    "LossConfig",
    "LossOutput",
    "softmax_probs",
    "centering_matrix",
    "normalize_classifier",
    "diversity_penalty",
    "em_softmax_forward",
    "em_softmax_totals",
    "em_softmax_backward",
]

# Probabilities are clamped here before the log so a large margin cannot
# produce -log(0) early in training.
PROB_FLOOR = 1e-30


@dataclass(frozen=True)
class LossConfig:
    """Hyperparameters of the combined loss.

    margin: soft distance margin m >= 0 subtracted from the true-class
        logit (training only).
    diversity_weight: trade-off lambda >= 0 on the diversity penalty.
    num_heads: number of weak classifiers V >= 1.
    exact_diversity_grad: when True, the backward pass differentiates the
        diversity term exactly (cross-head terms plus the full
        normalization Jacobian). Default False reproduces the detached
        per-head update rule ``2 * lambda * Wv_hat Kv`` rescaled by the
        frozen column norms; only the exact mode matches finite
        differences of the total loss.

    margin == 0, diversity_weight == 0, num_heads == 1 is exactly the
    baseline softmax loss.
    """

    margin: float = 0.0
    diversity_weight: float = 0.0
    num_heads: int = 1
    exact_diversity_grad: bool = False

    def __post_init__(self):
        for name in ("margin", "diversity_weight"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if self.num_heads < 1:
            raise ValueError("num_heads must be at least 1")


@dataclass
class LossOutput:
    """Forward result: total = classification + lambda * diversity.

    ``probs_per_head`` holds the margin-adjusted softmax rows of every
    head, shape ``(V, n, K)``. ``_record`` is the forward's private
    record: its checked features, its own copy of the bank, the labels,
    the probabilities, the diversity pair ``(Wv_hat, Kv)`` and the
    config. :func:`em_softmax_forward` fills it in and
    :func:`em_softmax_backward` reads it; an output built by hand leaves
    it None and has no backward.
    """

    total_loss: float
    classification_term: float
    diversity_term: float
    probs_per_head: np.ndarray
    _record: tuple | None = field(default=None, repr=False, compare=False)


def softmax_probs(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction for overflow safety.

    Accepts a single score vector or an n x K batch; the result has the
    same shape and each probability row sums to 1.
    """
    z = np.asarray(z, dtype=np.float64)
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def _check_labels(labels, n: int, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(f"expected {n} labels, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"labels must lie in [0, {num_classes})")
    return labels.astype(np.int64)


def _margin_softmax(scores: np.ndarray, labels: np.ndarray, m: float):
    """Margin-adjusted softmax rows and per-row losses of (..., n, K) scores.

    ``scores`` is overwritten with the adjusted scores; ``labels`` must
    already be checked.
    """
    rows = np.arange(scores.shape[-2])
    scores[..., rows, labels] -= m
    probs = softmax_probs(scores)
    picked = np.maximum(probs[..., rows, labels], PROB_FLOOR)
    return -np.log(picked), probs


def centering_matrix(n: int) -> np.ndarray:
    """H = I - (1/n) 11^T; symmetric, idempotent, annihilates constants."""
    if n < 1:
        raise ValueError("centering matrix needs n >= 1")
    return np.eye(n) - np.full((n, n), 1.0 / n)


def normalize_classifier(w: np.ndarray) -> np.ndarray:
    """Scale every column (per-class weight vector) to unit L2 norm.

    Accepts one d x K classifier or a stack ``(..., d, K)`` of them.
    Zero columns cannot be normalized; they are left as zero and flagged
    with a RuntimeWarning. The result is used only inside the diversity
    computation, never to overwrite the live classifier.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim < 2 or w.shape[-2] < 1 or w.shape[-1] < 1:
        raise ValueError(f"w must have shape (..., d, K) with d, K >= 1, got {w.shape}")
    norms = np.sqrt(np.sum(w * w, axis=-2, keepdims=True))
    degenerate = norms == 0.0
    if degenerate.any():
        warnings.warn(
            f"normalize_classifier: {int(degenerate.sum())} zero column(s) "
            "left unnormalized",
            RuntimeWarning,
            stacklevel=2,
        )
    safe = np.where(degenerate, 1.0, norms)
    return w / safe


def _check_bank(bank) -> np.ndarray:
    """The bank's heads stacked into one new (V, d, K) float64 array.

    Heads of different shapes fail in numpy with an "inhomogeneous shape"
    ValueError.
    """
    w = np.array(bank, dtype=np.float64)
    if w.ndim != 3 or 0 in w.shape:
        raise ValueError(f"bank must have shape (V, d, K) with V, d, K >= 1, got {w.shape}")
    return w


def _check_heads(num_heads: int, cfg: LossConfig) -> None:
    if num_heads != cfg.num_heads:
        raise ValueError(f"bank has {num_heads} heads, config says {cfg.num_heads}")


def _check_batch(x_batch, labels, d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    x_batch = as_matrix(x_batch, "x_batch")
    if x_batch.shape[1] != d:
        raise ValueError(
            f"classifier expects features of dim {d}, got {x_batch.shape[1]}"
        )
    return x_batch, _check_labels(labels, x_batch.shape[0], k)


def _diversity_kernels(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized heads and every Kv of a checked ``(..., V, d, K)`` bank.

    Returns ``Wv_hat`` stacked like ``w`` and the Kv (K x K, PSD) stacked
    as ``(..., V, K, K)``. Each head is normalized and its centered Gram
    ``Gu = H Wu_hat^T Wu_hat H`` formed once. Every Kv starts from a zero
    matrix and gains each other head's Gram in ascending u (one pass over
    u adds Gu to all Kv with v != u); subtracting Gv from the sum of all
    Grams would change the last bits of the penalty and both gradients.
    """
    k = w.shape[-1]
    if k < 2:
        raise ValueError("diversity needs at least 2 classes (H degenerates at K=1)")
    h = centering_matrix(k)
    w_hats = normalize_classifier(w)
    grams = h @ (np.swapaxes(w_hats, -1, -2) @ w_hats) @ h
    kernels = np.zeros_like(grams)
    for u in range(w.shape[-3]):
        gram = grams[..., u, None, :, :]
        kernels[..., :u, :, :] += gram
        kernels[..., u + 1 :, :, :] += gram
    return w_hats, kernels


def _head_penalties(w_hats: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """tr(Wv_hat Kv Wv_hat^T) of every head, from its kernels: (..., V)."""
    terms = (w_hats @ kernels) * w_hats
    return np.sum(terms.reshape(*terms.shape[:-2], -1), axis=-1)


def diversity_penalty(bank, v: int) -> float:
    """tr(Wv_hat Kv Wv_hat^T) >= 0; zero when the bank has a single head.

    Equals ``sum_{u != v} ||Wv_hat H Wu_hat^T||_F^2``, i.e. the summed
    pairwise HSIC of head v against the rest without the (K-1)^-2 scale.
    """
    w = _check_bank(bank)
    if len(w) == 1:
        return 0.0
    if not 0 <= v < len(w):
        raise ValueError(f"head index {v} out of range for bank of {len(w)}")
    return float(_head_penalties(*_diversity_kernels(w))[v])


def _diversity_grads(w, w_hats, kernels, exact: bool) -> np.ndarray:
    """Diversity gradient of every head of ``w`` from its kernels: (V, d, K).

    Default (detached) mode follows the per-head update rule: only head
    v's own penalty contributes, Kv is frozen, and the normalization is
    backpropagated as the frozen per-column scale 1/||w_k||, giving
    2 Wv_hat Kv rescaled. Exact mode differentiates the full summed term
    (every pairwise penalty sees head v twice, hence 4 Wv_hat Kv) through
    the true normalization Jacobian (I - w_hat w_hat^T)/||w||.
    """
    norms = np.sqrt(np.sum(w * w, axis=-2, keepdims=True))
    if exact:
        g_hat = 4.0 * (w_hats @ kernels)
        g_hat -= w_hats * np.sum(w_hats * g_hat, axis=-2, keepdims=True)
    else:
        g_hat = 2.0 * (w_hats @ kernels)
    zero = norms == 0.0
    return np.where(zero, 0.0, g_hat / np.where(zero, 1.0, norms))


def _loss_core(x_batch: np.ndarray, w: np.ndarray, labels: np.ndarray, cfg: LossConfig):
    """Loss terms of checked inputs over a ``(..., V, d, K)`` bank stack.

    Returns (classification, diversity, total), each shaped like the
    leading batch axes of ``w``, the margin-adjusted probabilities
    ``(..., V, n, K)`` and the diversity pair ``(Wv_hat, Kv)`` (None for a
    single head). Heads are summed in ascending order from zero, each
    head's batch mean taken on its own, so one bank gives the same bits
    as the head-by-head formulation.
    """
    losses, probs = _margin_softmax(np.matmul(x_batch, w), labels, cfg.margin)
    num_heads = w.shape[-3]
    # the fancy-indexed losses are not C-contiguous, and a mean over that
    # layout sums in another order; a contiguous copy gives each head's bits
    head_means = np.mean(np.ascontiguousarray(losses), axis=-1)
    classification = 0.0
    for v in range(num_heads):
        classification = classification + head_means[..., v]
    diversity = 0.0
    pair = None
    if num_heads >= 2:
        pair = _diversity_kernels(w)
        penalties = _head_penalties(*pair)
        for v in range(num_heads):
            diversity = diversity + penalties[..., v]
    total = classification + cfg.diversity_weight * diversity
    return classification, diversity, total, probs, pair


def em_softmax_forward(x_batch: np.ndarray, bank, labels, cfg: LossConfig) -> LossOutput:
    """Forward pass of the combined loss over a feature batch.

    classification = sum over heads of the batch-mean margin softmax
    loss; diversity = sum over heads of their penalty (weight-only, so it
    is batch independent); total = classification + lambda * diversity.
    """
    w = _check_bank(bank)
    _check_heads(len(w), cfg)
    x_batch, labels = _check_batch(x_batch, labels, w.shape[1], w.shape[2])
    classification, diversity, total, probs, pair = _loss_core(x_batch, w, labels, cfg)
    return LossOutput(float(total), float(classification), float(diversity), probs,
                      (x_batch, w, labels, probs, pair, cfg))


def em_softmax_totals(x_batch: np.ndarray, banks, labels, cfg: LossConfig) -> np.ndarray:
    """Total loss of every bank in a ``(B, V, d, K)`` stack, shape (B,).

    Entry b equals ``em_softmax_forward(x_batch, banks[b], labels,
    cfg).total_loss`` up to rounding in the last bits; the whole stack
    is validated once and scored in one pass.
    """
    banks = np.asarray(banks, dtype=np.float64)
    if banks.ndim != 4 or 0 in banks.shape:
        raise ValueError(f"banks must be a non-empty (B, V, d, K) stack, got {banks.shape}")
    _check_heads(banks.shape[1], cfg)
    x_batch, labels = _check_batch(x_batch, labels, banks.shape[2], banks.shape[3])
    return _loss_core(x_batch, banks, labels, cfg)[2]


def em_softmax_backward(fwd: LossOutput) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradients of the total loss that ``fwd`` computed.

    Returns the ``(V, d, K)`` head gradients ``x^T (probs - onehot)/n +
    lambda * d(diversity)/dWv`` and the feature gradient ``sum_v (probs_v
    - onehot) Wv^T / n``. Everything comes from the record that
    :func:`em_softmax_forward` kept in ``fwd``: the inputs, the
    probabilities, the diversity kernels, and the config, which supplies
    lambda and the diversity gradient mode.
    """
    record = getattr(fwd, "_record", None)
    if record is None:
        raise ValueError("forward output was not produced by em_softmax_forward")
    x, w, y, probs, pair, cfg = record
    n = x.shape[0]

    delta = probs.copy()
    delta[:, np.arange(n), y] -= 1.0
    delta /= n
    grads_bank = np.matmul(x.T, delta)
    if pair is not None and cfg.diversity_weight != 0.0:
        grads_bank += cfg.diversity_weight * _diversity_grads(
            w, *pair, cfg.exact_diversity_grad
        )
    per_head_x = np.matmul(delta, np.swapaxes(w, -1, -2))
    grads_x = np.zeros(x.shape)
    for v in range(w.shape[0]):
        grads_x += per_head_x[v]
    return grads_bank, grads_x
