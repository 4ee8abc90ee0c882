"""Plain SGD trainer for the feature network plus classifier bank.

The update rule is the classic momentum form with decoupled-from-nothing
L2 regularization folded into the gradient:

    v <- momentum * v - lr * (grad + weight_decay * param)
    param <- param + v

Biases are exempt from weight decay. The learning rate starts at
``base_lr`` and is multiplied by ``lr_drop_factor`` at each iteration
listed in ``lr_drop_iters``. Every gradient block is checked for
non-finite values before any block is updated, so a diverged step
leaves the whole model at its last consistent state.

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
from .losses import LossConfig, em_softmax_backward, em_softmax_forward
from .model import MlpFeatureExtractor, WeakClassifierBank
from .tensor import Rng, check_integer

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
        for name in ("base_lr", "weight_decay", "lr_drop_factor"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.base_lr <= 0:
            raise ValueError("base_lr must be positive")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        drops = tuple(
            int(check_integer(i, "every lr_drop_iters entry")) for i in self.lr_drop_iters
        )
        if list(drops) != sorted(set(drops)):
            raise ValueError("lr_drop_iters must be strictly increasing")
        if any(i < 0 for i in drops):
            raise ValueError("lr_drop_iters must be non-negative")
        object.__setattr__(self, "lr_drop_iters", drops)
        if self.lr_drop_factor <= 0:
            raise ValueError("lr_drop_factor must be positive")
        for name in ("max_iters", "batch_size"):
            if check_integer(getattr(self, name), name) < 1:
                raise ValueError(f"{name} must be at least 1")


class DivergenceError(Exception):
    """Training hit non-finite numbers or a runaway loss."""


def learning_rate(cfg: SgdConfig, iteration: int) -> float:
    """lr at a 0-based iteration: base_lr * factor^(#drops <= iteration)."""
    if iteration < 0:
        raise ValueError("iteration must be non-negative")
    drops = bisect_right(cfg.lr_drop_iters, iteration)
    return cfg.base_lr * cfg.lr_drop_factor**drops


def sgd_step(params, grads, velocities, decay_flags, lr: float, cfg: SgdConfig) -> None:
    """One in-place momentum update over parallel parameter lists.

    decay_flags marks which entries receive weight decay (weights yes,
    biases no). Every block's shapes and gradient are checked before any
    block moves: a non-finite gradient anywhere raises DivergenceError
    and leaves every parameter and velocity as it was. Each block then
    takes one temporary, ``lr * (g + wd * p)`` computed in place.
    """
    if not (len(params) == len(grads) == len(velocities) == len(decay_flags)):
        raise ValueError("parameter, gradient, velocity, flag lists must align")
    for p, g, vel in zip(params, grads, velocities):
        if p.shape != g.shape or p.shape != vel.shape:
            raise ValueError(f"shape mismatch: {p.shape} vs {g.shape} vs {vel.shape}")
        if not np.isfinite(g).all():
            raise DivergenceError("non-finite gradient")
    for p, g, vel, decayed in zip(params, grads, velocities, decay_flags):
        if decayed:
            step = np.multiply(p, cfg.weight_decay)
            step += g
            step *= lr
        else:
            step = np.multiply(g, lr)
        vel *= cfg.momentum
        vel -= step
        p += vel


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


def _gradients(net: MlpFeatureExtractor | None, heads: np.ndarray, x, y, cfg: LossConfig,
               variants=None):
    """One step's loss forward, features and gradients.

    ``heads`` is the bank's ``(V, d, K)`` array; ``variants``, when
    given, are scored in the same forward (see :func:`em_softmax_forward`)
    and leave the gradients alone. Returns ``(fwd, feats, grads)``,
    ``grads`` aligned with :func:`_parameters`. Without a network the
    features are ``x`` itself.
    """
    feats, cache = (x, None) if net is None else net.forward(x)
    if variants is None:
        fwd = em_softmax_forward(feats, heads, y, cfg)
    else:
        fwd = em_softmax_forward(feats, heads, y, cfg, variants=variants)
    grads_bank, grads_feats = em_softmax_backward(fwd)
    grads = [] if net is None else [g for layer in net.backward(cache, grads_feats) for g in layer]
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
    """Run the SGD loop, mutating ``net`` and ``bank`` in place.

    ``net`` may be None to train the bank directly on raw features. The
    batch order is fully determined by ``seed``. Parts that do not fit
    together (dims, head count) raise ValueError from the network's or
    the loss's own checks in the first step, before any update; a
    ``log_every`` or ``eval_every`` below 1, or an ``eval_every`` that is
    not a multiple of ``log_every`` (evaluations run on log rows only),
    raises before that step.

    On divergence (loss above 1e6 or non-finite values) the loop halts,
    keeps the state from before the failing update, and flags the report
    instead of raising. ``final_eval_accuracy`` is the accuracy on
    ``eval_dataset`` of the model the run leaves: the last log row's
    ``eval_acc`` when the run completes, or an evaluation of the kept
    state after a divergence. It stays NaN without an eval set.
    """
    for name, every in (("log_every", log_every), ("eval_every", eval_every)):
        if every < 1:
            raise ValueError(f"{name} must be at least 1, got {every}")
    if eval_every % log_every:
        raise ValueError(
            f"eval_every ({eval_every}) must be a multiple of log_every ({log_every})"
        )
    report = TrainReport()
    batch_rng = Rng(seed).spawn(7)
    batches = minibatch_stream(len(dataset), min(sgd_cfg.batch_size, len(dataset)), batch_rng)

    _, params, decay_flags = zip(*_parameters(net, bank))
    velocities = [np.zeros_like(p) for p in params]

    t0 = time.perf_counter()
    # Divergence shows up as overflow/NaN in the forward pass before the
    # guards can trip; the guards are the reporters, so keep numpy quiet
    # inside the loop.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            for it in range(sgd_cfg.max_iters):
                idx = next(batches)
                x = dataset.rows(idx)
                y = dataset.labels[idx]

                fwd, feats, grads = _gradients(net, bank.heads, x, y, loss_cfg)
                if not np.isfinite(fwd.total_loss) or fwd.total_loss > _LOSS_CEILING:
                    raise DivergenceError(f"loss {fwd.total_loss:g}, ceiling {_LOSS_CEILING:g}")
                last = it == sgd_cfg.max_iters - 1
                logged = (it + 1) % log_every == 0 or last
                if logged:
                    # the assembled model that produced this step's loss, before its update
                    batch = Dataset(feats, y, bank.num_classes)
                    train_acc = count_hits(None, bank, batch)[0] / len(y)
                lr = learning_rate(sgd_cfg, it)
                sgd_step(params, grads, velocities, decay_flags, lr, sgd_cfg)

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
