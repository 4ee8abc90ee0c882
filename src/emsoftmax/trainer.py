"""Plain SGD trainer for the feature network plus classifier bank.

The update rule is the classic momentum form with decoupled-from-nothing
L2 regularization folded into the gradient:

    v <- momentum * v - lr * (grad + weight_decay * param)
    param <- param + v

Biases are exempt from weight decay. The learning rate starts at
``base_lr`` and is multiplied by ``lr_drop_factor`` at each iteration
listed in ``lr_drop_iters``. The whole gradient is checked for
non-finite values before anything is updated, so a diverged step
leaves the whole model at its last consistent state.

:func:`train` moves every block into one float64 buffer, the decayed
blocks first and then the biases (:func:`_flat_buffer`); the model's
arrays become views of it, each step's gradients are written into views
of a gradient buffer of the same layout, and :func:`sgd_step` makes one
update over the whole buffer instead of one per array. The update is
elementwise, so the bits are those of stepping each block on its own.

:func:`train` is the boundary of the loop: it checks its bank, feature
width and labels against the loss config once, before the first step,
and each step's forward then runs with ``check_inputs=False``.

:func:`train` and :func:`grad_check` share one step, ``_gradients``,
whose gradients follow ``_parameters``, the one list of SGD blocks
(``w0, b0, w1, b1, ...``, then the bank); only those two helpers ask
whether there is a network. Divergence raises :class:`DivergenceError`,
which :func:`train` catches in one place.

:func:`grad_check` compares every analytic gradient block against
central finite differences of the scalar loss and is the backbone of the
correctness tests; it always runs the exact diversity backward since the
detached training rule is deliberately not the derivative of the
penalty. Every perturbed bank differs from the live bank in one head, so
bank blocks are differenced as perturbed heads: chunks of each head's
raised and lowered copies, scored as :func:`em_softmax_forward`
variants of the live bank, which scores each distinct head once. The
step's own forward scores the first chunk, so one pass gives both the
record the backward reads and the first perturbed totals, and a bank
small enough for one chunk costs one forward and one backward. Network blocks
change the features, so they are still differenced entry by entry.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, minibatch_stream
from .losses import LossConfig, _check_bank, _check_fit, em_softmax_backward, em_softmax_forward
from .model import MlpFeatureExtractor, WeakClassifierBank
from .tensor import Rng, check_count, check_integer, check_real

__all__ = [
    "SgdConfig",
    "DivergenceError",
    "learning_rate",
    "sgd_step",
    "TrainReport",
    "train",
    "count_hits",
    "evaluate",
    "grad_check",
]

_LOSS_CEILING = 1e6

# grad_check scores perturbed banks in chunks whose largest temporary holds
# at most this many float64 values: the head table's scores (n * K values a
# row), or, for each bank a chunk scores, its gathered normalized heads
# (V * d * K) or the V-1 other heads' Grams gathered for each of its V
# kernels (V * (V-1) * K^2). A chunk holds the same whole pairs (one raised
# and one lowered copy) of every head, at least one pair, behind the live
# bank, which counts as V rows.
_FD_CHUNK_VALUES = 1_000_000
_FD_STEP = 1e-6  # grad_check's central-difference step
_EVAL_CHUNK = 4096  # rows count_hits scores per chunk


@dataclass(frozen=True)
class SgdConfig:
    base_lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0005
    lr_drop_iters: tuple[int, ...] = (8000, 14000)
    lr_drop_factor: float = 0.1
    max_iters: int = 20000
    batch_size: int = 256

    def __post_init__(self):
        check_real(self.base_lr, "base_lr", positive=True)
        check_real(self.momentum, "momentum")
        check_real(self.weight_decay, "weight_decay")
        check_real(self.lr_drop_factor, "lr_drop_factor", positive=True)
        if self.momentum >= 1:
            raise ValueError("momentum must lie in [0, 1)")
        drops = tuple(
            int(check_integer(i, "every lr_drop_iters entry")) for i in self.lr_drop_iters
        )
        if list(drops) != sorted(set(drops)):
            raise ValueError("lr_drop_iters must be strictly increasing")
        if any(i < 0 for i in drops):
            raise ValueError("lr_drop_iters must be non-negative")
        object.__setattr__(self, "lr_drop_iters", drops)
        for name in ("max_iters", "batch_size"):
            check_count(getattr(self, name), name)


class DivergenceError(Exception):
    """Training hit non-finite numbers or a runaway loss."""


def learning_rate(cfg: SgdConfig, iteration: int) -> float:
    """lr at a 0-based iteration: base_lr * factor^(#drops <= iteration)."""
    if iteration < 0:
        raise ValueError("iteration must be non-negative")
    drops = bisect_right(cfg.lr_drop_iters, iteration)
    return cfg.base_lr * cfg.lr_drop_factor**drops


def sgd_step(params: np.ndarray, grads: np.ndarray, velocity: np.ndarray, decayed: int,
             lr: float, cfg: SgdConfig) -> None:
    """One in-place momentum update of a flat parameter buffer.

    ``params``, ``grads`` and ``velocity`` are arrays of one shape, such
    as the buffers of :func:`_flat_buffer`; the first ``decayed`` entries
    (weights and the bank) take weight decay, the rest (biases) do not.
    The whole gradient is checked before anything moves: a non-finite
    entry raises DivergenceError and leaves every parameter and velocity
    as it was. One step array then takes ``lr * (g + wd * p)`` on the
    decayed entries and ``lr * g`` on the rest, and the velocity and the
    parameters are updated once over the whole buffer.
    """
    if params.shape != grads.shape or params.shape != velocity.shape:
        raise ValueError(f"shape mismatch: {params.shape} vs {grads.shape} vs {velocity.shape}")
    if not 0 <= decayed <= params.size:
        raise ValueError(f"decayed must lie in [0, {params.size}], got {decayed}")
    if not np.logical_and.reduce(np.isfinite(grads), axis=None):
        raise DivergenceError("non-finite gradient")
    step = np.empty(params.shape)
    flat, p, g = step.reshape(-1), params.reshape(-1), grads.reshape(-1)
    head = flat[:decayed]
    np.multiply(p[:decayed], cfg.weight_decay, out=head)
    head += g[:decayed]
    head *= lr
    np.multiply(g[decayed:], lr, out=flat[decayed:])
    velocity *= cfg.momentum
    velocity -= step
    params += velocity


@dataclass
class TrainReport:
    """Everything a run produced, in memory.

    rows are the periodic log records (iteration, lr, total loss,
    classification term, diversity term, train-batch accuracy, eval
    accuracy, elapsed seconds); eval accuracy is NaN on rows where no
    evaluation ran. A row's loss terms and train-batch accuracy describe
    the model before that row's update, its eval accuracy the model
    after it.
    """

    rows: list[tuple] = field(default_factory=list)
    final_eval_accuracy: float = float("nan")
    diverged: bool = False
    wall_seconds: float = 0.0

    CSV_HEADER = "iter,lr,total_loss,cls_term,div_term,train_acc,eval_acc,seconds"

    def to_csv(self, include_timing: bool = False) -> str:
        """Render the log rows as CSV.

        Timing defaults to a zero column so reruns of a deterministic
        configuration produce byte-identical files; pass
        ``include_timing=True`` to record real wall-clock numbers.
        """
        lines = [self.CSV_HEADER]
        for it, lr, total, cls, div, tacc, eacc, secs in self.rows:
            eval_field = "" if np.isnan(eacc) else f"{eacc:.6f}"
            secs_field = f"{secs:.3f}" if include_timing else "0.000"
            lines.append(
                f"{it},{lr:.10g},{total:.10g},{cls:.10g},{div:.10g},"
                f"{tacc:.6f},{eval_field},{secs_field}"
            )
        return "\n".join(lines) + "\n"


def _parameters(net: MlpFeatureExtractor | None, bank: WeakClassifierBank):
    """Every SGD block as (name, array, decayed): w0, b0, w1, b1, ..., bank.

    Without a network the bank is the only block. Biases take no weight
    decay.
    """
    blocks = []
    if net is not None:
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            blocks += [(f"w{i}", w, True), (f"b{i}", b, False)]
    return blocks + [("bank", bank.heads, True)]


def _flat_buffer(net: MlpFeatureExtractor | None, bank: WeakClassifierBank):
    """Move every SGD block of the model into one float64 buffer.

    The decayed blocks come first, in :func:`_parameters` order (``w0,
    w1, ..., bank``), then the biases (``b0, b1, ...``). Every
    ``net.weights[i]``, ``net.biases[i]`` and ``bank.heads`` is rebound
    to a C-contiguous view of the buffer holding its values, in its
    shape. A gradient buffer of the same layout is made beside it.

    Returns the parameter buffer, the gradient buffer, the number of
    leading entries that take weight decay (the arguments of
    :func:`sgd_step`, with a velocity) and the gradient buffer's views
    aligned with :func:`_parameters`.
    """
    blocks = _parameters(net, bank)
    order = [i for i, (_, _, decayed) in enumerate(blocks) if decayed]
    split = sum(blocks[i][1].size for i in order)
    order += [i for i, (_, _, decayed) in enumerate(blocks) if not decayed]
    params = np.empty(sum(block.size for _, block, _ in blocks))
    grads = np.empty_like(params)
    param_views, grad_views = [None] * len(blocks), [None] * len(blocks)
    start = 0
    for i in order:
        block = blocks[i][1]
        stop = start + block.size
        param_views[i] = params[start:stop].reshape(block.shape)
        param_views[i][...] = block
        grad_views[i] = grads[start:stop].reshape(block.shape)
        start = stop
    if net is not None:
        net.weights[:] = param_views[0:-1:2]
        net.biases[:] = param_views[1:-1:2]
    bank.heads = param_views[-1]
    return params, grads, split, grad_views


def _gradients(net: MlpFeatureExtractor | None, heads: np.ndarray, x, y, cfg: LossConfig,
               variants=None, out=None, check_inputs=True):
    """One step's loss forward, features and gradients.

    ``heads`` is the bank's ``(V, d, K)`` array; ``variants``, when
    given, are scored in the same forward (see :func:`em_softmax_forward`)
    and leave the gradients alone; ``check_inputs=False``, which
    :func:`train` passes for the inputs it checked once, is passed on to
    the forward. Returns ``(fwd, feats, grads)``,
    ``grads`` aligned with :func:`_parameters`: fresh arrays, or, with
    ``out`` (arrays aligned the same way, such as the views of
    :func:`_flat_buffer`), the arrays of ``out`` with the gradients
    written into them. Without a network the features are ``x`` itself.
    """
    feats, cache = (x, None) if net is None else net.forward(x)
    if check_inputs:
        fwd = em_softmax_forward(feats, heads, y, cfg, variants=variants)
    else:  # train's steps, on inputs it checked once
        fwd = em_softmax_forward(feats, heads, y, cfg, variants=variants, check_inputs=False)
    grads_bank, grads_feats = em_softmax_backward(fwd)
    pairs = None if out is None else list(zip(out[0:-1:2], out[1:-1:2]))
    grads = [] if net is None else [g for layer in net.backward(cache, grads_feats, pairs)
                                    for g in layer]
    if out is not None:
        out[-1][...] = grads_bank
        grads_bank = out[-1]
    return fwd, feats, grads + [grads_bank]


def count_hits(
    net: MlpFeatureExtractor | None,
    bank: WeakClassifierBank,
    dataset: Dataset,
    top5: bool = False,
) -> tuple[int, int | None]:
    """Top-1 hits of the averaged classifier, streamed in chunks.

    The second element counts labels among the five highest scores
    (ties to the lower class index) when ``top5`` is set, else None.
    A dataset with more classes than the bank scores is a ValueError:
    its extra labels could never be hit.
    """
    if dataset.num_classes > bank.num_classes:
        raise ValueError(
            f"dataset has {dataset.num_classes} classes, the bank scores {bank.num_classes}"
        )
    w_avg = bank.assemble()
    top1_hits = 0
    top5_hits = 0 if top5 else None
    # tolerate a diverged model's huge weights: its accuracy is still a
    # well-defined (terrible) number
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(dataset), _EVAL_CHUNK):
            rows = dataset.rows(slice(start, start + _EVAL_CHUNK))
            feats = rows if net is None else net.forward(rows)[0]
            y = dataset.labels[start : start + _EVAL_CHUNK]
            scores = feats @ w_avg
            top1_hits += int(np.sum(np.argmax(scores, axis=1) == y))
            if top5:
                top = np.argsort(-scores, axis=1, kind="stable")[:, :5]
                top5_hits += int(np.sum(top == y[:, None]))
    return top1_hits, top5_hits


def evaluate(
    net: MlpFeatureExtractor | None,
    bank: WeakClassifierBank,
    dataset: Dataset,
) -> float:
    """Top-1 accuracy of the averaged classifier, streamed in chunks."""
    return count_hits(net, bank, dataset)[0] / len(dataset)


def train(
    net: MlpFeatureExtractor | None,
    bank: WeakClassifierBank,
    dataset: Dataset,
    loss_cfg: LossConfig,
    sgd_cfg: SgdConfig,
    seed: int,
    eval_dataset: Dataset | None = None,
    log_every: int = 100,
    eval_every: int = 1000,
) -> TrainReport:
    """Run the SGD loop, updating ``net`` and ``bank``.

    Before the first step, every weight, bias and the bank's heads are
    moved into one buffer (see :func:`_flat_buffer`): ``net.weights[i]``,
    ``net.biases[i]`` and ``bank.heads`` become C-contiguous float64
    views of it, with the shapes and values they had, and the loop
    updates them in place. Arrays taken from the model before the call
    are no longer its parameters. ``net`` may be None to train the bank
    directly on raw features. The
    batch order is fully determined by ``seed``.

    The loss's own checks run once, before the first step and before the
    model is moved: the bank against ``loss_cfg``'s head count, the
    feature width (the network's output, or the dataset's dim without a
    network) against the bank's, and every label of ``dataset`` against
    the bank's classes. Parts that do not fit raise ValueError from them,
    or, for the network's input dim, from the network's check in the
    first step, before any update. Each step's loss forward then runs
    with ``check_inputs=False``. A ``log_every`` or ``eval_every`` below
    1, or an ``eval_every`` that is not a multiple of ``log_every``
    (evaluations run on log rows only), raises before the first step too.

    On divergence (loss above 1e6 or non-finite values) the loop halts,
    keeps the state from before the failing update, and flags the report
    instead of raising. ``final_eval_accuracy`` is the accuracy on
    ``eval_dataset`` of the model the run leaves: the last log row's
    ``eval_acc`` when the run completes, or an evaluation of the kept
    state after a divergence. It stays NaN without an eval set.
    """
    check_count(log_every, "log_every")
    check_count(eval_every, "eval_every")
    if eval_every % log_every:
        raise ValueError(
            f"eval_every ({eval_every}) must be a multiple of log_every ({log_every})"
        )
    width = dataset.dim if net is None else net.feature_dim
    labels = _check_fit(_check_bank(bank.heads), width, dataset.labels, loss_cfg)
    report = TrainReport()
    batch_rng = Rng(seed).spawn(7)
    batches = minibatch_stream(len(dataset), min(sgd_cfg.batch_size, len(dataset)), batch_rng)

    params, grads, decayed, grad_views = _flat_buffer(net, bank)
    velocity = np.zeros_like(params)

    t0 = time.perf_counter()
    # Divergence shows up as overflow/NaN in the forward pass before the
    # guards can trip; the guards are the reporters, so keep numpy quiet
    # inside the loop.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            for it in range(sgd_cfg.max_iters):
                idx = next(batches)
                x = dataset.rows(idx)
                y = labels[idx]

                fwd, feats, _ = _gradients(net, bank.heads, x, y, loss_cfg, out=grad_views,
                                           check_inputs=False)
                if not math.isfinite(fwd.total_loss) or fwd.total_loss > _LOSS_CEILING:
                    raise DivergenceError(f"loss {fwd.total_loss:g}, ceiling {_LOSS_CEILING:g}")
                last = it == sgd_cfg.max_iters - 1
                logged = (it + 1) % log_every == 0 or last
                if logged:
                    # the assembled model that produced this step's loss, before its update
                    batch = Dataset(feats, y, bank.num_classes)
                    train_acc = count_hits(None, bank, batch)[0] / len(y)
                lr = learning_rate(sgd_cfg, it)
                sgd_step(params, grads, velocity, decayed, lr, sgd_cfg)

                if logged:
                    eval_acc = float("nan")
                    if eval_dataset is not None and ((it + 1) % eval_every == 0 or last):
                        eval_acc = evaluate(net, bank, eval_dataset)
                    report.rows.append((
                        it + 1, lr, fwd.total_loss, fwd.classification_term,
                        fwd.diversity_term, train_acc, eval_acc, time.perf_counter() - t0,
                    ))
        except DivergenceError:
            report.diverged = True

    report.wall_seconds = time.perf_counter() - t0
    if eval_dataset is not None:
        # a completed run's last row has scored the final model already
        report.final_eval_accuracy = (
            evaluate(net, bank, eval_dataset) if report.diverged else report.rows[-1][6]
        )
    return report


def _entrywise_differences(net, bank_heads, x, y, loss_cfg, param) -> np.ndarray:
    """Central differences of the loss for each entry of one network block."""

    def loss() -> float:
        return em_softmax_forward(net.forward(x)[0], bank_heads, y, loss_cfg).total_loss

    numeric = np.empty(param.size)
    flat = param.ravel()
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + _FD_STEP
        up = loss()
        flat[j] = orig - _FD_STEP
        down = loss()
        flat[j] = orig
        numeric[j] = (up - down) / (2 * _FD_STEP)
    return numeric.reshape(param.shape)


def _perturbed_heads(bank_heads: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Every head's perturbed copies for its entries ``start`` to
    ``stop - 1``, as :func:`em_softmax_forward`'s ``(V, M, d, K)``
    variants, M = 2 * (stop - start).

    Variant (v, 2i) is head v with entry start + i set to ``orig +
    _FD_STEP``, and variant (v, 2i + 1) the same with ``orig - _FD_STEP``.
    One ``np.repeat`` makes the copies; then, with E = d * K, each
    head's raveled copies take ``+= _FD_STEP`` at ``start + i * (2E + 1)``
    and ``-= _FD_STEP`` at ``E + start + i * (2E + 1)``, for every head in
    two strided writes.
    """
    num_heads, d, k = bank_heads.shape
    size = d * k
    variants = np.repeat(bank_heads[:, None], 2 * (stop - start), axis=1)
    values = variants.reshape(num_heads, -1)
    values[:, start :: 2 * size + 1] += _FD_STEP
    values[:, size + start :: 2 * size + 1] -= _FD_STEP
    return variants


def _differenced_step(net, bank_heads, x, labels, cfg):
    """The step's gradients, as :func:`_gradients` gives them, and the
    central differences of the loss for every bank entry, (V, d, K).

    Every head's entries are differenced in chunks of whole pairs, the
    same entries of every head in one chunk, each scored as
    :func:`em_softmax_forward` variants of the live bank. The step's own
    forward scores the first chunk, so it gives both the record the
    backward reads and the first totals; later chunks are scored on the
    step's features by the same forward.
    """
    num_heads, d, k = bank_heads.shape
    size = d * k
    rows = x.shape[0] if x.ndim else 1
    per_bank = k * max(num_heads * (num_heads - 1) * k, num_heads * d, rows)
    pairs = max(1, (_FD_CHUNK_VALUES // (num_heads * per_bank) - 1) // 2)
    totals = np.empty((num_heads, 2 * size))
    stop = min(pairs, size)
    fwd, feats, grads = _gradients(
        net, bank_heads, x, labels, cfg, variants=_perturbed_heads(bank_heads, 0, stop)
    )
    totals[:, : 2 * stop] = fwd.totals
    for start in range(stop, size, pairs):
        stop = min(start + pairs, size)
        variants = _perturbed_heads(bank_heads, start, stop)
        totals[:, 2 * start : 2 * stop] = em_softmax_forward(
            feats, bank_heads, labels, cfg, variants=variants
        ).totals
    numeric = (totals[:, 0::2] - totals[:, 1::2]) / (2 * _FD_STEP)
    return grads, numeric.reshape(bank_heads.shape)


def _relative_errors(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    """Entrywise ``|analytic - numeric| / max(|analytic|, |numeric|, 1e-3)``."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
    return np.abs(analytic - numeric) / denom


def grad_check(
    net: MlpFeatureExtractor | None,
    bank: WeakClassifierBank,
    x_batch: np.ndarray,
    labels,
    loss_cfg: LossConfig,
    corrupt_block: str | None = None,
) -> dict:
    """Measure analytic gradients against central finite differences.

    The analytic gradients are those of :func:`_gradients`, the step
    :func:`train` takes, over the blocks of :func:`_parameters`, the list
    SGD updates: the network's ``w0, b0, w1, b1, ...`` and the bank, split
    into ``head0 ... head{V-1}``. So the errors measure exactly what
    training applies (in the exact diversity mode, see below).

    Every block is perturbed entry by entry; the relative error of a block is
    ``max |analytic - numeric| / max(|analytic|, |numeric|, 1e-3)``.
    The denominator floor makes the comparison absolute (at 1e-8) for
    near-zero entries: central differences of a float64 loss carry
    ~1e-9 of rounding noise at step 1e-6, so ratios against smaller
    magnitudes would measure the oracle, not the gradient. The exact
    diversity backward is always used here because the detached
    training rule is not the derivative of the loss.

    The step's forward pass scores the live bank with its perturbed
    heads as variants, so the inputs are checked once for a bank that
    fits one chunk; the errors of the whole bank are formed in one pass,
    then maximized head by head. Network blocks are differenced
    entry by entry, one forward pass per perturbation. ``labels`` reach
    the forward unconverted, so non-integer labels are rejected there.

    ``corrupt_block`` deliberately perturbs one analytic block (e.g.
    ``"head0"`` or ``"w1"``) before comparison — the self-test that the
    checker can actually fail.

    Returns a dict with the per-block errors (``block_errors``) and their
    max (``max_error``, NaN when any block's error is NaN). It judges
    nothing: callers compare the errors with their own tolerance, as
    ``cli.run_gradcheck_grid`` does.
    """
    check_cfg = replace(loss_cfg, exact_diversity_grad=True)
    x = np.asarray(x_batch, dtype=np.float64)

    # the bank, the last block, is compared head by head
    *net_blocks, _ = _parameters(net, bank)
    head_names = [f"head{v}" for v in range(bank.num_heads)]
    if corrupt_block is not None:
        names = [name for name, _, _ in net_blocks] + head_names
        if corrupt_block not in names:
            raise ValueError(f"unknown block {corrupt_block!r}, have {names}")

    grads, bank_numeric = _differenced_step(net, bank.heads, x, labels, check_cfg)

    errors: dict[str, float] = {}
    # relative errors are >= 0, so starting from 0.0 changes no maximum;
    # np.maximum, unlike max(), cannot skip a NaN block error
    worst = 0.0
    for (name, param, _), analytic in zip(net_blocks, grads):
        if name == corrupt_block:
            analytic = analytic + 1e-2
        numeric = _entrywise_differences(net, bank.heads, x, labels, check_cfg, param)
        error = np.maximum.reduce(_relative_errors(analytic, numeric), axis=None)
        errors[name] = float(error)
        worst = np.maximum(worst, error)
    analytic = grads[-1]
    if corrupt_block in head_names:
        analytic = analytic.copy()
        analytic[head_names.index(corrupt_block)] += 1e-2
    per_head = _relative_errors(analytic, bank_numeric).reshape(len(head_names), -1)
    # max is exact, so each head's error has the bits of its block's own max
    head_errors = np.maximum.reduce(per_head, axis=1)
    errors.update(zip(head_names, head_errors.tolist()))
    worst = np.maximum.reduce(head_errors, initial=worst)
    return {"block_errors": errors, "max_error": float(worst)}
