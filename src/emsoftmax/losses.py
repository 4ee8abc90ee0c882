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
centered Grams) runs once per row, and each bank gathers its heads'
rows through one cached ``(B, V)`` index table for the per-bank work
(the in-order head sums, its kernels, products and penalties), which
then runs as it does for one bank. The kernels read the table's Grams
in one gather, through every bank's other heads' rows, as one bank's
read its own Grams. At lambda = 0 a table of
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
so the core avoids them without changing a bit of the result: the
softmax, which runs only inside the margin loss (:func:`_softmax`),
works short rows class-major, over one contiguous row per class, and
sums them in numpy's own order, the margin and
the label pick go through one 1-D index into the raveled scores, built
from row offsets cached per shape, every Kv comes from one gathered
reduction, reductions call ``np.add.reduce`` without numpy's Python
wrappers, and one bank's head terms are summed as Python floats. No
quantity is computed or kept twice: each row's loss is taken from the
row max and sum its softmax formed (exact, with no probability floor),
and the forward's record keeps the heads'
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

from .tensor import as_indices, as_matrix, check_count, sum_in_order

__all__ = [
    "LossConfig",
    "LossOutput",
    "normalize_classifier",
    "diversity_terms",
    "diversity_penalty",
    "em_softmax_forward",
    "em_softmax_backward",
]

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
        check_count(self.num_heads, "num_heads")


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


def _softmax(z: np.ndarray):
    """Row-wise softmax of C-contiguous float64 ``(..., n, K)`` scores, with
    the row max and the row sum of the shifted exponentials it was formed
    from, each of shape ``z.shape[:-1]``; the probabilities and the row
    sum are fresh C-contiguous arrays, and ``z`` is left as it is.

    A numpy reduction along a short last axis costs far more than its
    arithmetic, so for K <= 128 the rows are worked class-major: one
    transposing copy puts class j of every row in row j of a ``(K, R)``
    array, and every later call runs over whole contiguous rows of it.
    The row max is one ``np.maximum.reduce`` over its first axis (a max
    is exact in any order); the shift, the exponential and the division
    run in place; and the row sum adds its K rows in exactly the order
    numpy sums a score row (K < 8: the classes in ascending order;
    otherwise eight running accumulators, combined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the leftover classes in
    order). One copy puts the probabilities back in the input's layout.
    The result is bit for bit what ``np.max`` and ``np.sum`` along the
    last axis give. K > 128 keeps numpy's reductions: its pairwise sum
    splits such a row recursively.
    """
    k = z.shape[-1]
    if k > _PAIRWISE_BLOCK:
        row_max = np.max(z, axis=-1, keepdims=True)
        e = np.exp(z - row_max)
        row_sum = np.sum(e, axis=-1, keepdims=True)
        return e / row_sum, row_max[..., 0], row_sum[..., 0]
    # class-major: e[j] holds class j of every row
    e = z.reshape(-1, k).T.copy()
    row_max = np.maximum.reduce(e, axis=0)
    e -= row_max
    np.exp(e, out=e)
    row_sum = _row_sum(e, k)
    e /= row_sum
    probs = np.empty(z.shape)
    probs.reshape(-1, k)[...] = e.T
    return probs, row_max.reshape(z.shape[:-1]), row_sum.reshape(z.shape[:-1])


def _row_sum(e: np.ndarray, k: int) -> np.ndarray:
    """Sum of the K (1 <= K <= 128) rows of a class-major ``(K, R)``
    array, in the pairwise order numpy sums each score row."""
    if k < 8:
        total = e[0] + e[1] if k > 1 else e[0].copy()
        for j in range(2, k):
            total += e[j]
        return total
    acc = [e[j] for j in range(8)]
    body = k - k % 8
    for i in range(8, body, 8):
        acc = [acc[j] + e[i + j] for j in range(8)]
    total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for j in range(body, k):
        total += e[j]
    return total


@functools.lru_cache(maxsize=128)
def _row_offsets(leading: int, n: int, k: int) -> np.ndarray:
    """Offset of every row's first score in the raveled ``(leading, n, K)``
    scores, ``(leading, n)``, read-only: each leading row's offset plus
    ``row * K``."""
    offsets = np.arange(0, leading * n * k, n * k)[:, None] + np.arange(0, n * k, k)
    offsets.flags.writeable = False
    return offsets


def _margin_softmax(scores: np.ndarray, labels: np.ndarray, m: float):
    """Margin-adjusted softmax rows and per-row losses of (..., n, K) scores.

    Returns the per-row losses (a fresh C-contiguous ``(..., n)`` array,
    so a mean over rows sums them in numpy's pairwise order), the
    probabilities and the 1-D index of every row's label in the raveled
    scores: each leading row's offset plus ``row * K + label``. The
    margin, the label pick and the backward's one-hot subtraction all go
    through that index, built from the cached offsets of
    :func:`_row_offsets`. C-contiguous ``scores`` are overwritten with
    the adjusted scores; ``labels`` must already be checked.

    A row's loss ``-log p_y`` is taken as ``log(row sum) - (z_y - row
    max)`` from the max and the sum the softmax forms, with ``z_y`` the
    adjusted label score. It is exact however small ``p_y`` is, so the
    loss and its gradient ``p - onehot`` agree at any margin.
    """
    n, k = scores.shape[-2:]
    index = (_row_offsets(scores.size // (n * k), n, k) + labels).ravel()
    adjusted = scores.reshape(-1)
    if m != 0.0:  # x - 0.0 is x, bit for bit
        adjusted[index] -= m
    probs, row_max, row_sum = _softmax(adjusted.reshape(scores.shape))
    shifted = adjusted[index].reshape(row_max.shape)
    shifted -= row_max
    losses = np.log(row_sum, out=row_sum)
    losses -= shifted
    return losses, probs, index


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
    """The features as a float64 matrix and the labels as int64 indices
    into its classes, checked against a checked bank ``w`` and the
    config's head count."""
    num_heads, d, k = w.shape
    if num_heads != cfg.num_heads:
        raise ValueError(f"bank has {num_heads} heads, config says {cfg.num_heads}")
    x_batch = as_matrix(x_batch, "x_batch")
    if x_batch.shape[1] != d:
        raise ValueError(f"classifier expects features of dim {d}, got {x_batch.shape[1]}")
    labels = as_indices(labels, k, "labels")
    if labels.shape[0] != x_batch.shape[0]:
        raise ValueError(f"expected {x_batch.shape[0]} labels, got {labels.shape[0]}")
    return x_batch, labels


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
def _variant_banks(num_heads: int, per_head: int) -> np.ndarray:
    """The table rows of every bank's heads in a head table (see
    :func:`_head_table`), ``(1 + V * M, V)``, read-only.

    Bank 0 is the bank itself; bank ``1 + v * M + m`` is variant (v, m),
    the bank with head v replaced by table row ``V + v * M + m``.
    """
    rows = np.arange(num_heads * per_head)
    heads = np.tile(np.arange(num_heads), (1 + len(rows), 1))
    heads[1 + rows, rows // per_head] = num_heads + rows
    heads.flags.writeable = False
    return heads


def _diversity_kernels(w: np.ndarray, heads: np.ndarray | None = None):
    """Normalized heads, their column norms and every Kv of a checked
    ``(V, d, K)`` bank, or of the banks of a head table.

    Returns ``Wv_hat`` (V, d, K), the ``(V, 1, K)`` column norms and the
    Kv (K x K, PSD) stacked as ``(V, K, K)``. Each head is normalized and
    its centered Gram ``Gu = H Wu_hat^T Wu_hat H`` formed once. Every Kv
    starts from a zero matrix and gains each other head's Gram in
    ascending u; subtracting Gv from the sum of all Grams instead would
    change the last bits of the penalty and both gradients. Of a head
    table, ``heads`` lists the rows of every bank's heads (see
    :func:`_variant_banks`): every row is normalized and Grammed once,
    the norms stay the table's own, each bank's ``Wv_hat`` is gathered
    through ``heads`` into ``(B, V, d, K)``, and the kernels are
    ``(B, V, K, K)``.

    The Grams are gathered once, through the other heads' rows: column v
    of :func:`_other_heads` for one bank, and its rows of each bank,
    ``heads[:, others]`` (B, V-1, V), for a table. The gathered
    ``([B,] V-1, V, K, K)`` array is reduced over the V-1 axis from zero
    in one call, in place of a loop of 2V slice-adds. Each step of that
    reduction adds whole K x K slices (never fewer than 4 values), so
    numpy adds them in ascending u, bit for bit like the loop; with that
    axis in front of the kernels' own, a step is one elementwise add over
    all of them. The gathered array holds V-1 times the values of the
    kernels.
    """
    k = w.shape[-1]
    if k < 2:
        raise ValueError("diversity needs at least 2 classes (H degenerates at K=1)")
    h = _frozen_centering(k)
    w_hats, norms = _unit_columns(w)
    grams = h @ (np.swapaxes(w_hats, -1, -2) @ w_hats) @ h
    others = _other_heads(len(w) if heads is None else heads.shape[-1])
    if heads is not None:
        others, w_hats = heads[:, others], w_hats[heads]
    return w_hats, norms, np.add.reduce(grams[others], axis=-4, initial=0.0)


def _head_penalties(w: np.ndarray, heads: np.ndarray | None = None):
    """tr(Wv_hat Kv Wv_hat^T) of every head of a checked bank, (V,),
    and the triple its gradient reads: ``Wv_hat``, the column norms and
    the products ``Wv_hat Kv``.

    Of a head table, ``heads`` lists the rows of every bank's heads (see
    :func:`_variant_banks`); the penalties are ``(B, V)``, and the triple
    holds every bank's gathered ``Wv_hat`` and products beside the
    table's own column norms. Each bank's kernels are reduced straight
    from the table's Grams (:func:`_diversity_kernels`)."""
    w_hats, norms, kernels = _diversity_kernels(w, heads)
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
               heads: np.ndarray | None = None):
    """Loss terms of checked inputs over one bank or a head table.

    ``w`` is one ``(V, d, K)`` bank, or, with ``heads`` (the rows of
    every bank's heads, see :func:`_variant_banks`), a head table. Every
    row of ``w`` is scored, normalized and Grammed once; the banks of a
    table then read their heads' batch means, normalized heads and Grams
    through ``heads``. Returns (classification, diversity, total), floats
    of one bank or ``(B,)`` arrays of a table's banks (at lambda = 0, a
    finite table's diversity and triple are only the bank's own), the
    margin-adjusted probabilities of every row ``(R, n, K)``, the label
    index of :func:`_margin_softmax` and the diversity triple of
    :func:`_head_penalties` (None for a single head). Heads are summed in
    ascending order from zero, each head's batch mean taken on its own
    (the sum over rows divided by n, which is what ``np.mean`` computes),
    so every bank gets the bits of the head-by-head formulation.
    """
    losses, probs, index = _margin_softmax(np.matmul(x_batch, w), labels, cfg.margin)
    head_means = np.add.reduce(losses, axis=-1) / x_batch.shape[0]
    if heads is not None:
        head_means = head_means[heads]
    classification = _sum_heads(head_means)
    diversity = 0.0
    triple = None
    if head_means.shape[-1] >= 2:
        if heads is not None and cfg.diversity_weight == 0.0 and np.isfinite(w).all():
            # finite heads have finite penalties, and 0 * a finite penalty
            # adds nothing to a total: only the bank's own are formed
            w, heads = w[: heads.shape[-1]], heads[:1]
        penalties, triple = _head_penalties(w, heads)
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
