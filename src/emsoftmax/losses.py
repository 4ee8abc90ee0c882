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

One private core computes the loss over the heads stacked as one
``(V, d, K)`` bank. Inputs are validated once, where they enter:
:func:`em_softmax_forward` checks one bank with its features and labels,
and :func:`diversity_terms` checks a bank and returns every head's
penalty from one build of the kernels (:func:`diversity_penalty` is its
entry ``v``). The forward can also score ``(V, M, d, K)`` variants, each
the bank with one head replaced (the gradient checker's perturbed
banks). The bank's heads and the variants then form one head table: the
per-head work (scores, margin softmax, batch means, column norms and
centered Grams) runs once per row, and each bank reads its heads' rows
through cached index tables for the per-bank work (the in-order head
sums, its kernels, products and penalties). At lambda = 0 a table of
finite heads forms only the bank's own penalties, since 0 times a finite
penalty leaves every variant's total as it is. The forward records its
checked features, the bank, the label index, the diversity triple
(normalized heads, their column norms and the products ``Wv_hat Kv``)
and the config in its output, beside the probabilities it returns, and
with variants, every variant's total. :func:`em_softmax_backward` takes
that output alone and works from the record over all heads at once, so
one training step builds the kernels once.

At the shapes this toolkit trains (K = 10 classes, a few heads), numpy's
per-call and per-row reduction overheads cost more than the arithmetic,
so the core avoids them without changing a bit of the result: short
softmax rows are reduced column by column in numpy's own order
(:func:`softmax_probs`), the margin and the label pick go through one
1-D index into the raveled scores, every Kv comes from one gathered
reduction, reductions call ``np.add.reduce`` without numpy's Python
wrappers, and one bank's head terms are summed as Python floats. No
quantity is computed or kept twice: the forward's record keeps the heads'
column norms and the products ``Wv_hat Kv`` its penalties were formed
from, and the backward reads them there. ``tests/test_loss_bits.py``
holds the plain numpy formulation and compares every output with it bit
for bit.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .tensor import as_integers, as_matrix, check_integer, sum_in_order

__all__ = [
    "PROB_FLOOR",
    "LossConfig",
    "LossOutput",
    "softmax_probs",
    "normalize_classifier",
    "diversity_terms",
    "diversity_penalty",
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
        for name in ("margin", "diversity_weight"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if check_integer(self.num_heads, "num_heads") < 1:
            raise ValueError("num_heads must be at least 1")


@dataclass(eq=False)
class LossOutput:
    """Forward result: total = classification + lambda * diversity.

    ``probs_per_head`` holds the margin-adjusted softmax rows of every
    head, shape ``(V, n, K)``. These fields describe the bank; with
    variants, ``totals[v, m]`` holds the total of variant (v, m), the
    bank with head v replaced, shape ``(V, M)``; it is None without
    variants. Outputs compare by identity: ``a == b``
    only when ``a`` is ``b``. ``_record`` is the forward's private
    record: its checked features, its own copy of the bank, the index of
    every row's label in the raveled ``(V * n * K,)`` probabilities, the
    diversity triple (``Wv_hat``, the ``(V, 1, K)`` column norms of the
    bank, the products ``Wv_hat Kv``; None for a single head) and the
    config; the probabilities themselves are ``probs_per_head``.
    :func:`em_softmax_forward` fills it in and :func:`em_softmax_backward`
    reads it. An output built by hand leaves it None and has no backward.
    """

    total_loss: float
    classification_term: float
    diversity_term: float
    probs_per_head: np.ndarray
    totals: np.ndarray | None = None
    _record: tuple | None = field(default=None, repr=False)


# numpy sums up to this many contiguous values with eight accumulators and
# splits longer runs in halves
_PAIRWISE_BLOCK = 128


def softmax_probs(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction for overflow safety.

    Accepts a single score vector or an n x K batch (or any stack of
    them); the result has the same shape and each probability row sums
    to 1.

    A numpy reduction along a short last axis costs far more than its
    arithmetic, so for 2-D and higher input with 1 <= K <= 128 the row
    max and the row sum are taken column by column over the views
    ``z[..., j]``, in exactly the order numpy reduces a row: the max by
    K-1 elementwise ``np.maximum`` calls, and the sum in numpy's
    pairwise order (K < 8: the columns in ascending order; otherwise
    eight running accumulators, combined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the leftover columns in
    order). The result is bit for bit what ``np.max`` and ``np.sum`` give.
    1-D and empty input keep numpy's reductions, which cost nothing
    there, and so does K > 128, where numpy's pairwise sum splits the row
    recursively. So does input that is not C-contiguous: numpy may then
    iterate over rows innermost and add the columns in plain order.
    """
    z = np.asarray(z, dtype=np.float64)
    if (z.ndim < 2 or z.size == 0 or z.shape[-1] > _PAIRWISE_BLOCK
            or not z.flags.c_contiguous):
        shifted = z - np.max(z, axis=-1, keepdims=True)
        e = np.exp(shifted)
        return e / np.sum(e, axis=-1, keepdims=True)
    k = z.shape[-1]
    row_max = np.maximum(z[..., 0], z[..., 1]) if k > 1 else z[..., 0].copy()
    for j in range(2, k):
        np.maximum(row_max, z[..., j], out=row_max)
    e = z - row_max[..., None]
    np.exp(e, out=e)
    e /= _row_sum(e, k)[..., None]
    return e


def _row_sum(e: np.ndarray, k: int) -> np.ndarray:
    """Sum over the last axis (1 <= K <= 128) in numpy's pairwise order."""
    if k < 8:
        total = e[..., 0] + e[..., 1] if k > 1 else e[..., 0].copy()
        for j in range(2, k):
            total += e[..., j]
        return total
    acc = [e[..., j] for j in range(8)]
    body = k - k % 8
    for i in range(8, body, 8):
        acc = [acc[j] + e[..., i + j] for j in range(8)]
    total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for j in range(body, k):
        total += e[..., j]
    return total


def _margin_softmax(scores: np.ndarray, labels: np.ndarray, m: float):
    """Margin-adjusted softmax rows and per-row losses of (..., n, K) scores.

    Returns the per-row losses (a fresh C-contiguous ``(..., n)`` array,
    so a mean over rows sums them in numpy's pairwise order), the
    probabilities and the 1-D index of every row's label in the raveled
    scores: each leading row's offset plus ``row * K + label``. The
    margin, the label pick and the backward's one-hot subtraction all go
    through that index. C-contiguous ``scores`` are overwritten with the
    adjusted scores; ``labels`` must already be checked.
    """
    n, k = scores.shape[-2:]
    index = (np.arange(0, scores.size, n * k)[:, None]
             + (np.arange(0, n * k, k) + labels)).ravel()
    adjusted = scores.reshape(-1)
    if m != 0.0:  # x - 0.0 is x, bit for bit
        adjusted[index] -= m
    probs = softmax_probs(adjusted.reshape(scores.shape))
    picked = probs.reshape(-1)[index].reshape(scores.shape[:-1])
    np.maximum(picked, PROB_FLOOR, out=picked)
    np.log(picked, out=picked)
    return np.negative(picked, out=picked), probs, index


def normalize_classifier(w: np.ndarray) -> np.ndarray:
    """Scale every column (per-class weight vector) to unit L2 norm.

    Accepts one d x K classifier or a stack ``(..., d, K)`` of them.
    Zero columns cannot be normalized; they are left as zero and flagged
    with a RuntimeWarning. The diversity computation normalizes its heads
    the same way, and never overwrites the live classifier.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim < 2 or w.shape[-2] < 1 or w.shape[-1] < 1:
        raise ValueError(f"w must have shape (..., d, K) with d, K >= 1, got {w.shape}")
    return _unit_columns(w)[0]


def _unit_columns(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A checked ``(..., d, K)`` stack scaled to unit columns, and its
    ``(..., 1, K)`` column norms; zero columns stay zero, with a warning
    that points at the caller's caller."""
    norms = np.sqrt(np.add.reduce(w * w, axis=-2, keepdims=True))
    if norms.all():
        return w / norms, norms
    degenerate = norms == 0.0
    warnings.warn(
        f"normalize_classifier: {int(degenerate.sum())} zero column(s) "
        "left unnormalized",
        RuntimeWarning,
        stacklevel=3,
    )
    return w / np.where(degenerate, 1.0, norms), norms


def _check_bank(bank) -> np.ndarray:
    """The bank's heads stacked into one new (V, d, K) float64 array.

    Heads of different shapes fail in numpy with an "inhomogeneous shape"
    ValueError.
    """
    w = np.array(bank, dtype=np.float64)
    if w.ndim != 3 or 0 in w.shape:
        raise ValueError(f"bank must have shape (V, d, K) with every size >= 1, got {w.shape}")
    return w


def _head_table(w: np.ndarray, variants) -> np.ndarray:
    """The head table of a checked bank and its ``(V, M, d, K)`` variants:
    the bank's V heads, then variant (v, m) in row ``V + v * M + m``; a new
    ``(V + V * M, d, K)`` float64 array."""
    num_heads, d, k = w.shape
    variants = np.asarray(variants, dtype=np.float64)
    shape = variants.shape
    if len(shape) != 4 or shape[0] != num_heads or shape[1] < 1 or shape[2:] != (d, k):
        raise ValueError(
            f"variants must have shape (V, M, d, K) = ({num_heads}, M, {d}, {k}) with M >= 1, "
            f"got {shape}"
        )
    return np.concatenate((w, variants.reshape(-1, d, k)))


def _check_inputs(x_batch, labels, w: np.ndarray, cfg: LossConfig):
    """The features as a float64 matrix and the labels as int64, checked
    against a checked bank ``w`` and the config's head count. Labels of
    a non-integer dtype are rejected, not truncated."""
    num_heads, d, k = w.shape
    if num_heads != cfg.num_heads:
        raise ValueError(f"bank has {num_heads} heads, config says {cfg.num_heads}")
    x_batch = as_matrix(x_batch, "x_batch")
    if x_batch.shape[1] != d:
        raise ValueError(f"classifier expects features of dim {d}, got {x_batch.shape[1]}")
    labels = np.asarray(labels)
    if labels.shape != (x_batch.shape[0],):
        raise ValueError(f"expected {x_batch.shape[0]} labels, got shape {labels.shape}")
    labels = as_integers(labels, "labels")
    if np.minimum.reduce(labels) < 0 or np.maximum.reduce(labels) >= k:
        raise ValueError(f"labels must lie in [0, {k})")
    return x_batch, labels.astype(np.int64)


@functools.lru_cache(maxsize=None)
def _frozen_centering(k: int) -> np.ndarray:
    """H = I - (1/K) 11^T (symmetric, idempotent), built once per K, read-only."""
    h = np.eye(k) - np.full((k, k), 1.0 / k)
    h.flags.writeable = False
    return h


@functools.lru_cache(maxsize=None)
def _other_heads(num_heads: int) -> np.ndarray:
    """Column v lists every head but v in ascending order: (V-1, V)."""
    others = np.array(
        [[u for u in range(num_heads) if u != v] for v in range(num_heads)], dtype=np.intp
    ).T.copy()
    others.flags.writeable = False
    return others


@functools.lru_cache(maxsize=128)
def _variant_banks(num_heads: int, per_head: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the banks of a head table (see :func:`_head_table`) find
    their heads, read-only.

    Bank 0 is the bank itself; bank ``1 + v * M + m`` is variant (v, m),
    the bank with head v replaced by table row ``V + v * M + m``. Returns
    the table rows of every bank's heads, ``(1 + V * M, V)``, and, for
    every bank and head v, the rows of its heads but v in ascending
    order along the leading axis, ``(V-1, 1 + V * M, V)``, as
    :func:`_other_heads` lists them.
    """
    rows = np.arange(num_heads * per_head)
    heads = np.tile(np.arange(num_heads), (1 + len(rows), 1))
    heads[1 + rows, rows // per_head] = num_heads + rows
    others = np.ascontiguousarray(heads[:, _other_heads(num_heads)].transpose(1, 0, 2))
    heads.flags.writeable = others.flags.writeable = False
    return heads, others


def _diversity_kernels(w: np.ndarray, others: np.ndarray | None = None):
    """Normalized heads, their column norms and every Kv of a checked
    ``(..., V, d, K)`` bank, or of a head table.

    Returns ``Wv_hat`` stacked like ``w``, the ``(..., V, 1, K)`` column
    norms and the Kv (K x K, PSD) stacked as ``(..., V, K, K)``. Each
    head is normalized and its centered Gram ``Gu = H Wu_hat^T Wu_hat H``
    formed once. Every Kv starts from a zero matrix and gains each other
    head's Gram in ascending u; subtracting Gv from the sum of all Grams
    instead would change the last bits of the penalty and both gradients.
    Of a head table, ``others`` lists the rows each bank's Kv sums (see
    :func:`_variant_banks`), and the kernels are ``(B, V, K, K)``.

    The other heads' Grams of every v are gathered into one
    ``(..., V-1, V, K, K)`` array (of a table, ``(V-1, B, V, K, K)``) and
    reduced over the V-1 axis from zero in one call, in place of a loop
    of 2V slice-adds. Each step of that reduction adds whole K x K slices
    (never fewer than 4 values), so numpy adds them in ascending u, bit
    for bit like the loop; with that axis in front of the kernels' own,
    a step is one elementwise add over all of them. The gathered array
    holds V-1 times the values of the kernels.
    """
    k = w.shape[-1]
    if k < 2:
        raise ValueError("diversity needs at least 2 classes (H degenerates at K=1)")
    h = _frozen_centering(k)
    w_hats, norms = _unit_columns(w)
    grams = h @ (np.swapaxes(w_hats, -1, -2) @ w_hats) @ h
    if others is None:
        others = _other_heads(w.shape[-3])
    gathered = grams[..., others, :, :]
    return w_hats, norms, np.add.reduce(gathered, axis=-2 - others.ndim, initial=0.0)


def _head_penalties(w: np.ndarray, banks: tuple | None = None):
    """tr(Wv_hat Kv Wv_hat^T) of every head of a checked bank, (..., V),
    and the triple its gradient reads: ``Wv_hat``, the column norms and
    the products ``Wv_hat Kv``.

    Of a head table, ``banks`` is its :func:`_variant_banks` pair; the
    penalties are ``(B, V)``, and the triple holds every bank's gathered
    ``Wv_hat`` and products beside the table's own column norms."""
    if banks is None:
        w_hats, norms, kernels = _diversity_kernels(w)
    else:
        heads, others = banks
        w_hats, norms, kernels = _diversity_kernels(w, others)
        w_hats = w_hats[heads]
    products = w_hats @ kernels
    terms = products * w_hats
    penalties = np.add.reduce(terms.reshape(*terms.shape[:-2], -1), axis=-1)
    return penalties, (w_hats, norms, products)


def diversity_terms(bank) -> np.ndarray:
    """tr(Wv_hat Kv Wv_hat^T) >= 0 of every head, shape (V,); zeros for a
    single head.

    Head v's term equals ``sum_{u != v} ||Wv_hat H Wu_hat^T||_F^2``, i.e.
    the summed pairwise HSIC of head v against the rest without the
    (K-1)^-2 scale. The kernels are built once for all heads; each term
    has the bits the forward's penalty of that head has.
    """
    w = _check_bank(bank)
    if len(w) == 1:
        return np.zeros(1)
    return _head_penalties(w)[0]


def diversity_penalty(bank, v: int) -> float:
    """Head v's entry of :func:`diversity_terms`."""
    terms = diversity_terms(bank)
    if not 0 <= v < len(terms):
        raise ValueError(f"head index {v} out of range for bank of {len(terms)}")
    return float(terms[v])


def _diversity_grads(w_hats, norms, products, exact: bool) -> np.ndarray:
    """Diversity gradient of every head from the forward's ``Wv_hat``,
    column norms and products ``Wv_hat Kv``: (V, d, K).

    Default (detached) mode follows the per-head update rule: only head
    v's own penalty contributes, Kv is frozen, and the normalization is
    backpropagated as the frozen per-column scale 1/||w_k||, giving
    2 Wv_hat Kv rescaled. Exact mode differentiates the full summed term
    (every pairwise penalty sees head v twice, hence 4 Wv_hat Kv) through
    the true normalization Jacobian (I - w_hat w_hat^T)/||w||.
    """
    if exact:
        g_hat = 4.0 * products
        g_hat -= w_hats * np.add.reduce(w_hats * g_hat, axis=-2, keepdims=True)
    else:
        g_hat = 2.0 * products
    if norms.all():
        g_hat /= norms
        return g_hat
    zero = norms == 0.0
    return np.where(zero, 0.0, g_hat / np.where(zero, 1.0, norms))


def _sum_heads(values: np.ndarray):
    """Sum over the last (head) axis, in ascending order from zero.

    One bank's ``(V,)`` values are added one by one as Python floats
    (:func:`~emsoftmax.tensor.sum_in_order`), which are the same IEEE adds
    in the same order. The ``(B, V)`` values of several banks are summed
    head by head: ``np.add.reduce`` over the head axis may sum pairwise
    when that axis becomes the innermost one.
    """
    if values.ndim == 1:
        return sum_in_order(values.tolist())
    total = 0.0
    for v in range(values.shape[-1]):
        total = total + values[..., v]
    return total


def _loss_core(x_batch: np.ndarray, w: np.ndarray, labels: np.ndarray, cfg: LossConfig,
               banks: tuple | None = None):
    """Loss terms of checked inputs over one bank or a head table.

    ``w`` is one ``(V, d, K)`` bank, or, with ``banks`` (its
    :func:`_variant_banks` pair), a head table. Every row of ``w`` is
    scored, normalized and Grammed once; the banks of a table then read
    their heads' batch means, normalized heads and Grams through
    ``banks``. Returns (classification, diversity, total), floats of one
    bank or ``(B,)`` arrays of a table's banks (at lambda = 0, a finite
    table's diversity and triple are only the bank's own), the margin-adjusted
    probabilities of every row ``(R, n, K)``, the label index of
    :func:`_margin_softmax` and the diversity triple of
    :func:`_head_penalties` (None for a single head). Heads are summed in
    ascending order from zero, each head's batch mean taken on its own
    (the sum over rows divided by n, which is what ``np.mean`` computes),
    so every bank gets the bits of the head-by-head formulation.
    """
    losses, probs, index = _margin_softmax(np.matmul(x_batch, w), labels, cfg.margin)
    head_means = np.add.reduce(losses, axis=-1) / x_batch.shape[0]
    if banks is not None:
        head_means = head_means[banks[0]]
    classification = _sum_heads(head_means)
    diversity = 0.0
    triple = None
    if head_means.shape[-1] >= 2:
        if banks is not None and cfg.diversity_weight == 0.0 and np.isfinite(w).all():
            # finite heads have finite penalties, and 0 * a finite penalty
            # adds nothing to a total: only the bank's own are formed
            heads, others = banks
            w, banks = w[: heads.shape[-1]], (heads[:1], others[:, :1])
        penalties, triple = _head_penalties(w, banks)
        diversity = _sum_heads(penalties)
    total = classification + cfg.diversity_weight * diversity
    return classification, diversity, total, probs, index, triple


def em_softmax_forward(x_batch: np.ndarray, bank, labels, cfg: LossConfig,
                       variants=None) -> LossOutput:
    """Forward pass of the combined loss over a feature batch.

    classification = sum over heads of the batch-mean margin softmax
    loss; diversity = sum over heads of their penalty (weight-only, so it
    is batch independent); total = classification + lambda * diversity.

    ``bank`` is the ``(V, d, K)`` bank the output describes.
    ``variants``, shape ``(V, M, d, K)``, asks for the totals of the banks
    that differ from it in one head (the gradient checker's perturbed
    banks): variant (v, m) is the bank with head v replaced by
    ``variants[v, m]``, and ``totals[v, m]`` is its total, with the bits
    it gets scored alone. The bank's heads and the variants form one head
    table, checked once against the batch; each of its rows is scored,
    normalized and Grammed once, and only the sums over each bank's
    heads, its kernels and its penalties are formed per bank. At lambda
    = 0 and with every head finite, only the bank's own penalties are
    formed: they cannot change a total.
    """
    w = _check_bank(bank)
    x_batch, labels = _check_inputs(x_batch, labels, w, cfg)
    if variants is None:
        classification, diversity, total, probs, index, triple = _loss_core(
            x_batch, w, labels, cfg)
        return LossOutput(float(total), float(classification), float(diversity), probs,
                          _record=(x_batch, w, index, triple, cfg))
    table = _head_table(w, variants)
    num_heads, per_head = len(w), len(table) // len(w) - 1
    classification, diversity, total, probs, index, triple = _loss_core(
        x_batch, table, labels, cfg, _variant_banks(num_heads, per_head))
    # the bank's share of the table, copied so the output holds no table-sized array
    probs = probs[:num_heads].copy()
    if triple is not None:
        diversity = diversity[0]
        w_hats, norms, products = triple
        triple = (w_hats[0].copy(), norms[:num_heads].copy(), products[0].copy())
    return LossOutput(float(total[0]), float(classification[0]), float(diversity), probs,
                      total[1:].reshape(num_heads, per_head),
                      (x_batch, w, index[: probs.size // w.shape[-1]].copy(), triple, cfg))


def em_softmax_backward(fwd: LossOutput) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradients of the total loss that ``fwd`` computed.

    Returns the ``(V, d, K)`` head gradients ``x^T (probs - onehot)/n +
    lambda * d(diversity)/dWv`` and the feature gradient ``sum_v (probs_v
    - onehot) Wv^T / n``. Everything comes from ``fwd``: its
    probabilities and the record that :func:`em_softmax_forward` kept
    there, which holds the inputs, the label index, the normalized heads
    with their column norms and products ``Wv_hat Kv``, and the config,
    which supplies lambda and the diversity gradient mode.

    The feature gradient adds the heads' ``(n, d)`` terms to zeros in
    ascending v. One ``np.add.reduce`` over the head axis does that
    when each term holds at least two values; a single value per head
    would be summed pairwise (from V = 8), so that case keeps the loop.
    """
    record = getattr(fwd, "_record", None)
    if record is None:
        raise ValueError("forward output was not produced by em_softmax_forward")
    x, w, index, triple, cfg = record

    delta = fwd.probs_per_head.copy()
    delta.reshape(-1)[index] -= 1.0
    delta /= x.shape[0]
    grads_bank = np.matmul(x.T, delta)
    if triple is not None and cfg.diversity_weight != 0.0:
        grads_bank += cfg.diversity_weight * _diversity_grads(
            *triple, cfg.exact_diversity_grad
        )
    per_head_x = np.matmul(delta, np.swapaxes(w, -1, -2))
    if x.size > 1:
        return grads_bank, np.add.reduce(per_head_x, axis=0, initial=0.0)
    grads_x = np.zeros(x.shape)
    for head_x in per_head_x:
        grads_x += head_x
    return grads_bank, grads_x
