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
    adjusted = z_batch.copy()
    adjusted[np.arange(n), labels] -= m
    probs = softmax_probs(adjusted)
    picked = np.maximum(probs[np.arange(n), labels], PROB_FLOOR)
    loss = float(np.mean(-np.log(picked)))
    return loss, probs


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

    Zero columns cannot be normalized; they are left as zero and flagged
    with a RuntimeWarning. The result is used only inside the diversity
    computation, never to overwrite the live classifier.
    """
    w = as_matrix(w, "w")
    norms = np.sqrt(np.sum(w * w, axis=0))
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


def _check_bank(bank) -> list[np.ndarray]:
    if len(bank) < 1:
        raise ValueError("classifier bank is empty")
    heads = [as_matrix(w, f"bank[{i}]") for i, w in enumerate(bank)]
    shape = heads[0].shape
    for i, w in enumerate(heads):
        if w.shape != shape:
            raise ValueError(f"bank[{i}] has shape {w.shape}, expected {shape}")
    return heads


def _diversity_kernels(heads: list[np.ndarray]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Normalized heads and every Kv (K x K, PSD) of a checked bank.

    Each head is normalized and its centered Gram ``Gu = H Wu_hat^T
    Wu_hat H`` formed once. Kv adds the other heads' Grams to a zero
    matrix in ascending u; subtracting Gv from the sum of all Grams
    would change the last bits of the penalty and both gradients.
    """
    k = heads[0].shape[1]
    if k < 2:
        raise ValueError("diversity needs at least 2 classes (H degenerates at K=1)")
    h = centering_matrix(k)
    w_hats = [normalize_classifier(w) for w in heads]
    grams = [h @ (w_hat.T @ w_hat) @ h for w_hat in w_hats]
    kernels = []
    for v in range(len(heads)):
        acc = np.zeros((k, k))
        for u, gram in enumerate(grams):
            if u != v:
                acc += gram
        kernels.append(acc)
    return w_hats, kernels


def diversity_penalty(bank, v: int) -> float:
    """tr(Wv_hat Kv Wv_hat^T) >= 0; zero when the bank has a single head.

    Equals ``sum_{u != v} ||Wv_hat H Wu_hat^T||_F^2``, i.e. the summed
    pairwise HSIC of head v against the rest without the (K-1)^-2 scale.
    """
    heads = _check_bank(bank)
    if len(heads) == 1:
        return 0.0
    if not 0 <= v < len(heads):
        raise ValueError(f"head index {v} out of range for bank of {len(heads)}")
    w_hats, kernels = _diversity_kernels(heads)
    return float(np.sum((w_hats[v] @ kernels[v]) * w_hats[v]))


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
    heads = _check_bank(bank)
    if len(heads) < 2:
        raise ValueError("diversity gradients need at least 2 heads")
    w_hats, kernels = _diversity_kernels(heads)
    grads = []
    for w, w_hat, kv in zip(heads, w_hats, kernels):
        norms = np.sqrt(np.sum(w * w, axis=0))
        if exact:
            g_hat = 4.0 * (w_hat @ kv)
            g_hat -= w_hat * np.sum(w_hat * g_hat, axis=0, keepdims=True)
        else:
            g_hat = 2.0 * (w_hat @ kv)
        grad = g_hat / np.where(norms == 0.0, 1.0, norms)
        grad[:, norms == 0.0] = 0.0
        grads.append(grad)
    return grads


def em_softmax_forward(x_batch: np.ndarray, bank, labels, cfg: LossConfig) -> LossOutput:
    """Forward pass of the combined loss over a feature batch.

    classification = sum over heads of the batch-mean margin softmax
    loss; diversity = sum over heads of their penalty (weight-only, so it
    is batch independent); total = classification + lambda * diversity.
    """
    heads = _check_bank(bank)
    if len(heads) != cfg.num_heads:
        raise ValueError(f"bank has {len(heads)} heads, config says {cfg.num_heads}")
    x_batch = as_matrix(x_batch, "x_batch")

    classification = 0.0
    probs_per_head = []
    for w in heads:
        z = linear_scores(w, x_batch)
        loss_v, probs_v = m_softmax_loss(z, labels, cfg.margin)
        classification += loss_v
        probs_per_head.append(probs_v)

    diversity = 0.0
    if len(heads) >= 2:
        w_hats, kernels = _diversity_kernels(heads)
        diversity = sum(
            float(np.sum((w_hat @ kv) * w_hat)) for w_hat, kv in zip(w_hats, kernels)
        )

    total = classification + cfg.diversity_weight * diversity
    return LossOutput(total, classification, diversity, probs_per_head)


def em_softmax_backward(
    x_batch: np.ndarray, bank, labels, cfg: LossConfig, fwd: LossOutput
) -> tuple[list[np.ndarray], np.ndarray]:
    """Analytic gradients of the total loss from a matching forward pass.

    Returns per-head gradients ``x^T (probs - onehot)/n + lambda *
    d(diversity)/dWv`` and the feature gradient ``sum_v (probs_v -
    onehot) Wv^T / n``.
    """
    heads = _check_bank(bank)
    if len(heads) != cfg.num_heads:
        raise ValueError(f"bank has {len(heads)} heads, config says {cfg.num_heads}")
    x_batch = as_matrix(x_batch, "x_batch")
    n, d = x_batch.shape
    k = heads[0].shape[1]
    labels = _check_labels(labels, n, k)
    if len(fwd.probs_per_head) != len(heads):
        raise ValueError("forward output does not match the bank")

    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0

    grads_div = None
    if len(heads) >= 2 and cfg.diversity_weight != 0.0:
        grads_div = diversity_gradients(heads, cfg.exact_diversity_grad)
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
