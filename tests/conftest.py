"""Shared reference implementations the tests compare against.

These are deliberately written with different formulations than the
package (log-sum-exp instead of max-shifted exponentials, the expanded
HSIC trace instead of explicit centering) so agreement actually means
something. The exceptions are the references that pin the package's
operation order bit for bit: ``ref_diversity_kernel``,
``ref_em_softmax_backward``, ``ref_mlp_forward``, ``ref_mlp_backward``,
``ref_sgd_step`` and
the earlier loss core (``ref_softmax_probs``, ``ref_margin_softmax``,
``ref_kernel_loop``, ``ref_loss_forward``, ``ref_loss_totals`` and
``ref_loss_backward``), the earlier finite differences of a bank
(``ref_bank_differences``), the earlier whole-array draws (``ref_raw``,
``ref_uniform``, ``ref_normal``, ``ref_gaussian_init`` and
``ref_synth_blobs``), and the earlier eager IDX features
(``ref_idx_features`` and ``ref_mean_subtract``).
"""

import gzip
import struct
import warnings
from pathlib import Path

import numpy as np
from scipy.special import logsumexp

from emsoftmax.data import Dataset
from emsoftmax.losses import LossOutput
from emsoftmax.tensor import _GAMMA, _MIX1, _MIX2, Rng


def ref_softmax_loss(x, w, labels):
    """Plain softmax cross-entropy via log-sum-exp: (loss, grad_w, grad_x)."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = x.shape[0]
    z = x @ w
    lse = logsumexp(z, axis=1)
    loss = float(np.mean(lse - z[np.arange(n), labels]))
    probs = np.exp(z - lse[:, None])
    delta = probs.copy()
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    return loss, x.T @ delta, delta @ w.T


def ref_hsic(k1, k2):
    """Empirical HSIC via the expanded trace (no centering matrix).

    tr(K1 H K2 H) = tr(K1 K2) - (2/n) 1'K1K2 1 + (1'K1 1)(1'K2 1)/n^2
    for symmetric K1, K2.
    """
    k1 = np.asarray(k1, dtype=np.float64)
    k2 = np.asarray(k2, dtype=np.float64)
    n = k1.shape[0]
    ones = np.ones(n)
    prod = k1 @ k2
    tr = np.trace(prod) - 2.0 / n * (ones @ prod @ ones) + (
        (ones @ k1 @ ones) * (ones @ k2 @ ones)
    ) / n**2
    return tr / (n - 1) ** 2


def hsic_empirical(k1, k2):
    """Empirical HSIC (n-1)^-2 tr(K1 H K2 H) of two n x n Gram matrices.

    The textbook estimator with an explicit centering matrix (Gretton et
    al. 2005), against which the package's diversity penalty is checked.
    """
    k1 = np.asarray(k1, dtype=np.float64)
    k2 = np.asarray(k2, dtype=np.float64)
    if k1.ndim != 2 or k1.shape[0] != k1.shape[1] or k2.ndim != 2 or k2.shape[0] != k2.shape[1]:
        raise ValueError("hsic_empirical needs square Gram matrices")
    if k1.shape != k2.shape:
        raise ValueError(f"Gram shapes differ: {k1.shape} vs {k2.shape}")
    n = k1.shape[0]
    if n < 2:
        raise ValueError("hsic_empirical needs n >= 2")
    h = np.eye(n) - np.full((n, n), 1.0 / n)
    return float(np.trace(k1 @ h @ k2 @ h)) / (n - 1) ** 2


def _unit_columns(w):
    """Column norms of one head and the head scaled to unit columns
    (zero columns stay zero, as in the package)."""
    w = np.asarray(w, dtype=np.float64)
    norms = np.sqrt(np.sum(w * w, axis=0))
    return norms, w / np.where(norms == 0.0, 1.0, norms)


def ref_diversity_kernel(bank, v):
    """Kv = sum over heads u != v of H Wu_hat^T Wu_hat H, one head at a time.

    Each head is normalized on the spot and the Grams are added to a zero
    matrix in ascending u, the order the package uses, so tests may
    compare against it with ``==``.
    """
    k = np.asarray(bank[0]).shape[1]
    h = np.eye(k) - np.full((k, k), 1.0 / k)
    kv = np.zeros((k, k))
    for u, w in enumerate(bank):
        if u == v:
            continue
        w_hat = _unit_columns(w)[1]
        kv += h @ (w_hat.T @ w_hat) @ h
    return kv


def ref_em_softmax_backward(x_batch, bank, labels, cfg, fwd):
    """The loss backward one head at a time, from ``fwd.probs_per_head``.

    ``fwd`` is ``em_softmax_forward(x_batch, bank, labels, cfg)``, and the
    results are those of ``em_softmax_backward(fwd)``: head gradients
    stacked ``(V, d, K)`` and the feature gradient summed over heads in
    ascending order. Written as the per-head loop (2-D products, Kv from
    :func:`ref_diversity_kernel`), so the stacked backward may be compared
    against it with ``==``.
    """
    x = np.asarray(x_batch, dtype=np.float64)
    heads = [np.asarray(w, dtype=np.float64) for w in bank]
    labels = np.asarray(labels, dtype=np.int64)
    n, d = x.shape
    onehot = np.zeros((n, heads[0].shape[1]))
    onehot[np.arange(n), labels] = 1.0
    diverse = len(heads) >= 2 and cfg.diversity_weight != 0.0
    grads = []
    grads_x = np.zeros((n, d))
    for v, w in enumerate(heads):
        delta = (fwd.probs_per_head[v] - onehot) / n
        grad_w = x.T @ delta
        if diverse:
            norms, w_hat = _unit_columns(w)
            kv = ref_diversity_kernel(heads, v)
            if cfg.exact_diversity_grad:
                g_hat = 4.0 * (w_hat @ kv)
                g_hat -= w_hat * np.sum(w_hat * g_hat, axis=0, keepdims=True)
            else:
                g_hat = 2.0 * (w_hat @ kv)
            grad = g_hat / np.where(norms == 0.0, 1.0, norms)
            grad[:, norms == 0.0] = 0.0
            grad_w = grad_w + cfg.diversity_weight * grad
        grads.append(grad_w)
        grads_x += delta @ w.T
    return np.stack(grads), grads_x


def ref_mlp_forward(net, x_batch):
    """The MLP forward with out-of-place temporaries: ``max(a @ w + b, 0)``
    on every hidden layer, ``a @ w + b`` on the last. Returns the features
    and each layer's input, which the package's in-place forward must
    equal with ``==``."""
    a = np.asarray(x_batch, dtype=np.float64)
    inputs = []
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        inputs.append(a)
        a = a @ w + b
        if i < len(net.weights) - 1:
            a = np.maximum(a, 0.0)
    return a, inputs


def ref_mlp_backward(net, cache, grad_features):
    """The MLP backward written as the full chain rule, input gradient
    included: ([(grad_w, grad_b), ...], grad_x). The mask is applied to
    the gradient leaving each hidden layer, so the package's parameter
    gradients may be compared against it with ``==``.
    """
    grad = np.asarray(grad_features, dtype=np.float64)
    param_grads = [None] * len(net.weights)
    last = len(net.weights) - 1
    for i in range(last, -1, -1):
        a_in = cache[i]
        if i < last:
            grad = grad * (cache[i + 1] > 0.0)
        grad_w = a_in.T @ grad
        grad_b = np.sum(grad, axis=0, keepdims=True)
        param_grads[i] = (grad_w, grad_b)
        grad = grad @ net.weights[i].T
    return param_grads, grad


def ref_sgd_step(params, grads, velocities, decay_flags, lr, cfg):
    """Momentum SGD with out-of-place temporaries, block by block:

        step = g + wd * p    (g when the block is not decayed)
        v   -= lr * step     after v *= momentum
        p   += v

    The package computes ``lr * (g + wd * p)`` in place; IEEE + and * are
    commutative, so its results must equal these with ``==``.
    """
    for p, g, vel, decayed in zip(params, grads, velocities, decay_flags):
        step = g + cfg.weight_decay * p if decayed else g
        vel *= cfg.momentum
        vel -= lr * step
        p += vel


def central_diff(f, x, step=1e-6):
    """Entrywise central finite differences of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + step
        up = f(x)
        flat[j] = orig - step
        down = f(x)
        flat[j] = orig
        gflat[j] = (up - down) / (2 * step)
    return grad


# ---------------------------------------------------------------------------
# The loss core as it stood before its reductions were rewritten: numpy's
# own short-axis max and sum, fancy-indexed margins and label picks, a
# slice loop for the kernels and per-head accumulation. The package must
# reproduce every bit of it.
# ---------------------------------------------------------------------------


def ref_softmax_probs(z):
    """Row-wise softmax through numpy's reductions along the last axis."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def ref_margin_softmax(scores, labels, m):
    """Per-row losses ``log(row sum) - (z_y - row max)`` and probabilities
    of ``(..., n, K)`` scores; the scores are overwritten with the
    margin-adjusted ones."""
    rows = np.arange(scores.shape[-2])
    scores[..., rows, labels] -= m
    row_max = np.max(scores, axis=-1, keepdims=True)
    e = np.exp(scores - row_max)
    row_sum = np.sum(e, axis=-1, keepdims=True)
    losses = np.log(row_sum[..., 0]) - (scores[..., rows, labels] - row_max[..., 0])
    return losses, e / row_sum


def _ref_normalize(w):
    norms = np.sqrt(np.sum(w * w, axis=-2, keepdims=True))
    degenerate = norms == 0.0
    if degenerate.any():
        warnings.warn("zero column(s) left unnormalized", RuntimeWarning, stacklevel=2)
    return w / np.where(degenerate, 1.0, norms)


def ref_kernel_loop(w):
    """Normalized heads and every Kv of a ``(..., V, d, K)`` stack: each
    Kv starts from zero and gains the other heads' Grams in ascending u,
    one slice-add per side of v."""
    k = w.shape[-1]
    h = np.eye(k) - np.full((k, k), 1.0 / k)
    w_hats = _ref_normalize(w)
    grams = h @ (np.swapaxes(w_hats, -1, -2) @ w_hats) @ h
    kernels = np.zeros_like(grams)
    for u in range(w.shape[-3]):
        gram = grams[..., u, None, :, :]
        kernels[..., :u, :, :] += gram
        kernels[..., u + 1 :, :, :] += gram
    return w_hats, kernels


def _ref_core(x, w, labels, cfg):
    losses, probs = ref_margin_softmax(np.matmul(x, w), labels, cfg.margin)
    num_heads = w.shape[-3]
    head_means = np.mean(np.ascontiguousarray(losses), axis=-1)
    classification = 0.0
    for v in range(num_heads):
        classification = classification + head_means[..., v]
    diversity = 0.0
    pair = None
    if num_heads >= 2:
        pair = ref_kernel_loop(w)
        w_hats, kernels = pair
        terms = (w_hats @ kernels) * w_hats
        penalties = np.sum(terms.reshape(*terms.shape[:-2], -1), axis=-1)
        for v in range(num_heads):
            diversity = diversity + penalties[..., v]
    total = classification + cfg.diversity_weight * diversity
    return classification, diversity, total, probs, pair


def ref_loss_forward(x_batch, bank, labels, cfg):
    """The combined forward of one bank, with the record its backward
    (:func:`ref_loss_backward`) reads, in the package's ``LossOutput``."""
    x = np.asarray(x_batch, dtype=np.float64)
    w = np.array(bank, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    classification, diversity, total, probs, pair = _ref_core(x, w, labels, cfg)
    return LossOutput(float(total), float(classification), float(diversity), probs,
                      _record=(x, w, labels, probs, pair, cfg))


def ref_loss_totals(x_batch, banks, labels, cfg):
    """Totals of a ``(B, V, d, K)`` stack of banks, shape (B,)."""
    x = np.asarray(x_batch, dtype=np.float64)
    banks = np.asarray(banks, dtype=np.float64)
    return _ref_core(x, banks, np.asarray(labels, dtype=np.int64), cfg)[2]


def ref_bank_differences(feats, bank_heads, y, loss_cfg, chunk_values, step=1e-6):
    """Central differences of every bank entry as the gradient checker
    formed them before: chunks of banks ``chunk_values // per_bank`` long
    (odd lengths included), each built by one fancy-indexed write of an
    ``np.where`` of the raised and lowered entries, scored through
    :func:`ref_loss_totals`."""
    flat = bank_heads.ravel()
    num_heads, d, k = bank_heads.shape
    per_bank = num_heads * k * max(d, feats.shape[0], (num_heads - 1) * k)
    chunk = max(1, chunk_values // per_bank)
    totals = np.empty(2 * flat.size)
    for start in range(0, totals.size, chunk):
        banks = np.arange(start, min(start + chunk, totals.size))
        entries = banks // 2
        stack = np.repeat(flat[None, :], banks.size, axis=0)
        stack[np.arange(banks.size), entries] = np.where(
            banks % 2 == 0, flat[entries] + step, flat[entries] - step
        )
        totals[banks] = ref_loss_totals(
            feats, stack.reshape(banks.size, num_heads, d, k), y, loss_cfg
        )
    return ((totals[0::2] - totals[1::2]) / (2 * step)).reshape(bank_heads.shape)


def variant_banks(bank, variants):
    """Every bank that ``variants`` describes, built whole: ``(V * M, V,
    d, K)``, row ``v * M + m`` the bank with head v replaced by
    ``variants[v, m]``."""
    bank = np.asarray(bank, dtype=np.float64)
    num_heads, per_head = np.shape(variants)[:2]
    banks = np.repeat(bank[None], num_heads * per_head, axis=0)
    for v in range(num_heads):
        for m in range(per_head):
            banks[v * per_head + m, v] = variants[v][m]
    return banks


def nan_variant_totals(module):
    """A stand-in for ``module.em_softmax_forward`` that scores like it
    but gives every variant a NaN total, as a broken loss would give the
    gradient checker's perturbed banks."""
    forward = module.em_softmax_forward

    def stand_in(x_batch, bank, labels, cfg, variants=None):
        fwd = forward(x_batch, bank, labels, cfg, variants)
        if fwd.totals is not None:
            fwd.totals = np.full(fwd.totals.shape, np.nan)
        return fwd

    return stand_in


def ref_loss_backward(fwd):
    """Head and feature gradients of a :func:`ref_loss_forward` result."""
    x, w, y, probs, pair, cfg = fwd._record
    n = x.shape[0]
    delta = probs.copy()
    delta[:, np.arange(n), y] -= 1.0
    delta /= n
    grads_bank = np.matmul(x.T, delta)
    if pair is not None and cfg.diversity_weight != 0.0:
        w_hats, kernels = pair
        norms = np.sqrt(np.sum(w * w, axis=-2, keepdims=True))
        if cfg.exact_diversity_grad:
            g_hat = 4.0 * (w_hats @ kernels)
            g_hat -= w_hats * np.sum(w_hats * g_hat, axis=-2, keepdims=True)
        else:
            g_hat = 2.0 * (w_hats @ kernels)
        zero = norms == 0.0
        grads_bank += cfg.diversity_weight * np.where(
            zero, 0.0, g_hat / np.where(zero, 1.0, norms)
        )
    per_head_x = np.matmul(delta, np.swapaxes(w, -1, -2))
    grads_x = np.zeros(x.shape)
    for v in range(w.shape[0]):
        grads_x += per_head_x[v]
    return grads_bank, grads_x


# ---------------------------------------------------------------------------
# The earlier whole-array draws: every word of a draw mixed at once, the
# Box-Muller transform on full-size arrays, the halves concatenated. The
# package's chunked, in-place draws must reproduce every bit and leave the
# stream's counter where these leave it. Each takes an ``Rng`` and
# advances its counter as the package's method does.
# ---------------------------------------------------------------------------


def _ref_mix(z):
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def ref_raw(rng, n):
    """The next ``n`` raw words of ``rng``."""
    ks = np.arange(rng._counter + 1, rng._counter + n + 1, dtype=np.uint64)
    rng._counter += n
    with np.errstate(over="ignore"):
        return _ref_mix(np.uint64(rng.seed) + ks * _GAMMA)


def _ref_shape(size):
    return (size,) if isinstance(size, int) else tuple(size)


def ref_uniform(rng, size):
    shape = _ref_shape(size)
    n = int(np.prod(shape)) if shape else 1
    out = (ref_raw(rng, n) >> np.uint64(11)).astype(np.float64) * float(2.0**-53)
    return out.reshape(shape)


def ref_normal(rng, size):
    shape = _ref_shape(size)
    n = int(np.prod(shape)) if shape else 1
    pairs = (n + 1) // 2
    raw = ref_raw(rng, 2 * pairs)
    u1 = ((raw[:pairs] >> np.uint64(11)).astype(np.float64) + 1.0) * float(2.0**-53)
    u2 = (raw[pairs:] >> np.uint64(11)).astype(np.float64) * float(2.0**-53)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * np.pi) * u2
    out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
    return out.reshape(shape)


def ref_gaussian_init(rows, cols, scale, rng):
    return ref_normal(rng, (rows, cols)) * scale


def ref_synth_blobs(spec):
    """The blob set of a ``SyntheticSpec``: repeated centres plus scaled noise."""
    rng = Rng(spec.seed)
    centers = ref_normal(rng.spawn(1), (spec.num_classes, spec.dim))
    noise_rng = rng.spawn(2)
    n = spec.num_classes * spec.samples_per_class
    features = np.repeat(centers, spec.samples_per_class, axis=0)
    features = features + spec.noise_std * ref_normal(noise_rng, (n, spec.dim))
    labels = np.repeat(np.arange(spec.num_classes), spec.samples_per_class)
    return Dataset(features, labels, spec.num_classes)


# ---------------------------------------------------------------------------
# The earlier eager IDX path: the kept rows of a split converted to one
# float64 array, divided by 255, and centred in place by the training
# mean. The package keeps the pixels and decodes the rows it fetches;
# every decoded row and the mean must keep these bits.
# ---------------------------------------------------------------------------


def ref_idx_features(image_path, limit=None):
    """The first ``limit`` images of an IDX file (raw or gzipped) as
    float64 rows ``pixel / 255``."""
    blob = Path(image_path).read_bytes()
    if blob[:2] == b"\x1f\x8b":
        blob = gzip.decompress(blob)
    _, n, rows, cols = struct.unpack(">IIII", blob[:16])
    images = np.frombuffer(blob, dtype=np.uint8, offset=16).reshape(n, rows * cols)
    features = images[:limit].astype(np.float64)
    features /= 255.0
    return features


def ref_mean_subtract(train, *others):
    """Subtract ``np.mean(train, axis=0)`` from every split in place;
    return the mean."""
    mean = np.mean(train, axis=0)
    for features in (train, *others):
        features -= mean
    return mean
