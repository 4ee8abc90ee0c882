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
empirical HSIC between head Grams, up to the ``(K-1)^-2`` scaling which
is kept in :func:`hsic_empirical` but dropped from the training penalty.
Each pass normalizes every head and forms its centered Gram
``Gu = H Wu^T Wu H`` once; every ``Kv`` is summed from those Grams.

One private core computes the loss over a stacked ``(..., V, d, K)``
bank, with an optional leading batch axis of whole banks. The public
entry points validate their inputs once and call it:
:func:`em_softmax_forward` on one bank, :func:`em_softmax_totals` on a
``(B, V, d, K)`` stack of banks (the gradient checker's finite
differences), and :func:`diversity_penalty`/:func:`diversity_gradients`
through the same kernel builder.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .tensor import as_matrix

__all__ = [
    "PROB_FLOOR",
    "LossConfig",
    "LossOutput",
    "linear_scores",
    "softmax_probs",
    "m_softmax_loss",
    "centering_matrix",
    "hsic_empirical",
    "normalize_classifier",
    "diversity_penalty",
    "diversity_gradients",
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
        if self.margin < 0:
            raise ValueError("margin must be non-negative")
        if self.diversity_weight < 0:
            raise ValueError("diversity_weight must be non-negative")
        if self.num_heads < 1:
            raise ValueError("num_heads must be at least 1")


@dataclass
class LossOutput:
    """Forward result: total = classification + lambda * diversity.

    ``probs_per_head`` holds the margin-adjusted softmax rows of every
    head, which is exactly what the backward pass consumes.
    """

    total_loss: float
    classification_term: float
    diversity_term: float
    probs_per_head: list[np.ndarray]


def linear_scores(w: np.ndarray, x_batch: np.ndarray) -> np.ndarray:
    """Per-class scores z[i, k] = x_i . w_k for a bias-free classifier."""
    w = as_matrix(w, "w")
    x_batch = as_matrix(x_batch, "x_batch")
    if w.shape[0] != x_batch.shape[1]:
        raise ValueError(
            f"classifier expects features of dim {w.shape[0]}, got {x_batch.shape[1]}"
        )
    return x_batch @ w


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


def m_softmax_loss(z_batch: np.ndarray, labels, m: float) -> tuple[float, np.ndarray]:
    """Margin softmax loss of a batch of raw scores.

    Returns the batch-mean loss and the margin-adjusted probability
    matrix used by the backward pass. ``m = 0`` reproduces plain softmax
    cross-entropy bit for bit.
    """
    if m < 0:
        raise ValueError("margin must be non-negative")
    z_batch = as_matrix(z_batch, "z_batch")
    n, k = z_batch.shape
    labels = _check_labels(labels, n, k)
    losses, probs = _margin_softmax(z_batch.copy(), labels, m)
    return float(np.mean(losses)), probs


def centering_matrix(n: int) -> np.ndarray:
    """H = I - (1/n) 11^T; symmetric, idempotent, annihilates constants."""
    if n < 1:
        raise ValueError("centering matrix needs n >= 1")
    return np.eye(n) - np.full((n, n), 1.0 / n)


def hsic_empirical(k1: np.ndarray, k2: np.ndarray) -> float:
    """Empirical HSIC (n-1)^-2 tr(K1 H K2 H) of two n x n Gram matrices."""
    k1 = as_matrix(k1, "k1")
    k2 = as_matrix(k2, "k2")
    if k1.shape[0] != k1.shape[1] or k2.shape[0] != k2.shape[1]:
        raise ValueError("hsic_empirical needs square Gram matrices")
    if k1.shape != k2.shape:
        raise ValueError(f"Gram shapes differ: {k1.shape} vs {k2.shape}")
    n = k1.shape[0]
    if n < 2:
        raise ValueError("hsic_empirical needs n >= 2")
    h = centering_matrix(n)
    return float(np.trace(k1 @ h @ k2 @ h)) / (n - 1) ** 2


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
    """The bank's heads stacked into one (V, d, K) float64 array."""
    if len(bank) < 1:
        raise ValueError("classifier bank is empty")
    shape = as_matrix(bank[0], "bank[0]").shape
    for i, w in enumerate(bank):
        if np.shape(w) != shape:
            raise ValueError(f"bank[{i}] has shape {np.shape(w)}, expected {shape}")
    return np.array(bank, dtype=np.float64)


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
    ``Gu = H Wu_hat^T Wu_hat H`` formed once. Kv adds the other heads'
    Grams to a zero matrix in ascending u; subtracting Gv from the sum of
    all Grams would change the last bits of the penalty and both
    gradients.
    """
    k = w.shape[-1]
    if k < 2:
        raise ValueError("diversity needs at least 2 classes (H degenerates at K=1)")
    h = centering_matrix(k)
    w_hats = normalize_classifier(w)
    grams = h @ (np.swapaxes(w_hats, -1, -2) @ w_hats) @ h
    kernels = np.zeros_like(grams)
    num_heads = w.shape[-3]
    for v in range(num_heads):
        for u in range(num_heads):
            if u != v:
                kernels[..., v, :, :] += grams[..., u, :, :]
    return w_hats, kernels


def _head_penalties(w: np.ndarray) -> np.ndarray:
    """tr(Wv_hat Kv Wv_hat^T) of every head of a checked bank: (..., V)."""
    w_hats, kernels = _diversity_kernels(w)
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
    return float(_head_penalties(w)[v])


def _diversity_gradients(w: np.ndarray, exact: bool) -> list[np.ndarray]:
    w_hats, kernels = _diversity_kernels(w)
    grads = []
    for w_v, w_hat, kv in zip(w, w_hats, kernels):
        norms = np.sqrt(np.sum(w_v * w_v, axis=0))
        if exact:
            g_hat = 4.0 * (w_hat @ kv)
            g_hat -= w_hat * np.sum(w_hat * g_hat, axis=0, keepdims=True)
        else:
            g_hat = 2.0 * (w_hat @ kv)
        grad = g_hat / np.where(norms == 0.0, 1.0, norms)
        grad[:, norms == 0.0] = 0.0
        grads.append(grad)
    return grads


def diversity_gradients(bank, exact: bool) -> list[np.ndarray]:
    """Gradient of the diversity term with respect to every raw head.

    Default (detached) mode follows the per-head update rule: only head
    v's own penalty contributes, Kv is frozen, and the normalization is
    backpropagated as the frozen per-column scale 1/||w_k||, giving
    2 Wv_hat Kv rescaled. Exact mode differentiates the full summed term
    (every pairwise penalty sees head v twice, hence 4 Wv_hat Kv) through
    the true normalization Jacobian (I - w_hat w_hat^T)/||w||. Needs a
    bank of at least two heads.
    """
    w = _check_bank(bank)
    if len(w) < 2:
        raise ValueError("diversity gradients need at least 2 heads")
    return _diversity_gradients(w, exact)


def _loss_core(x_batch: np.ndarray, w: np.ndarray, labels: np.ndarray, cfg: LossConfig):
    """Loss terms of checked inputs over a ``(..., V, d, K)`` bank stack.

    Returns (classification, diversity, total), each shaped like the
    leading batch axes of ``w``, and the margin-adjusted probabilities
    ``(..., V, n, K)``. Heads are summed in ascending order from zero,
    each head's batch mean taken on its own, so one bank gives the same
    bits as the head-by-head formulation.
    """
    losses, probs = _margin_softmax(np.matmul(x_batch, w), labels, cfg.margin)
    num_heads = w.shape[-3]
    classification = 0.0
    for v in range(num_heads):
        classification = classification + np.mean(losses[..., v, :], axis=-1)
    diversity = 0.0
    if num_heads >= 2:
        penalties = _head_penalties(w)
        for v in range(num_heads):
            diversity = diversity + penalties[..., v]
    total = classification + cfg.diversity_weight * diversity
    return classification, diversity, total, probs


def em_softmax_forward(x_batch: np.ndarray, bank, labels, cfg: LossConfig) -> LossOutput:
    """Forward pass of the combined loss over a feature batch.

    classification = sum over heads of the batch-mean margin softmax
    loss; diversity = sum over heads of their penalty (weight-only, so it
    is batch independent); total = classification + lambda * diversity.
    """
    w = _check_bank(bank)
    _check_heads(len(w), cfg)
    x_batch, labels = _check_batch(x_batch, labels, w.shape[1], w.shape[2])
    classification, diversity, total, probs = _loss_core(x_batch, w, labels, cfg)
    return LossOutput(float(total), float(classification), float(diversity), list(probs))


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


def em_softmax_backward(
    x_batch: np.ndarray, bank, labels, cfg: LossConfig, fwd: LossOutput
) -> tuple[list[np.ndarray], np.ndarray]:
    """Analytic gradients of the total loss from a matching forward pass.

    Returns per-head gradients ``x^T (probs - onehot)/n + lambda *
    d(diversity)/dWv`` and the feature gradient ``sum_v (probs_v -
    onehot) Wv^T / n``.
    """
    heads = _check_bank(bank)
    _check_heads(len(heads), cfg)
    _, d, k = heads.shape
    x_batch, labels = _check_batch(x_batch, labels, d, k)
    n = x_batch.shape[0]
    if len(fwd.probs_per_head) != len(heads):
        raise ValueError("forward output does not match the bank")

    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0

    grads_div = None
    if len(heads) >= 2 and cfg.diversity_weight != 0.0:
        grads_div = _diversity_gradients(heads, cfg.exact_diversity_grad)
    grads_bank = []
    grads_x = np.zeros((n, d))
    for v, w in enumerate(heads):
        probs = fwd.probs_per_head[v]
        if probs.shape != (n, k):
            raise ValueError(f"stale forward output for head {v}: {probs.shape}")
        delta = (probs - onehot) / n
        grad_w = x_batch.T @ delta
        if grads_div is not None:
            grad_w = grad_w + cfg.diversity_weight * grads_div[v]
        grads_bank.append(grad_w)
        grads_x += delta @ w.T
    return grads_bank, grads_x
