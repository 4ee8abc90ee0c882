"""Command-line front end: train, eval, gradcheck, and sweep.

Runs are described by a flat ``key = value`` config file (``#`` starts a
comment). Unknown keys are rejected, and every training run writes the
fully resolved config back next to its artifacts, so a run directory is
always self-describing and re-runnable. Config values are checked when a
:class:`RunConfig` is built, before any data is read or any training
starts. All commands are deterministic given the config: re-running
produces byte-identical CSVs (wall-clock timing is therefore left out of
the CSV unless explicitly enabled).

An IDX split is held as its uint8 pixels and a synthetic one as float64
rows; mean subtraction only records the mean on each split, and rows
are decoded and centred as batches and evaluation chunks fetch them.
:func:`load_datasets` reads and centres the splits for every command;
``eval`` reads through it only the split it scores (plus the training
split when it must recompute a mean that was not stored).

Exit codes: 0 success, 1 usage or config error, 2 numerical failure
(training divergence or a failed gradient check), 141 (128 + SIGPIPE),
silently, when the reader of stdout has gone (as ``| head`` does).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .data import (
    Dataset,
    IdxFormatError,
    SyntheticSpec,
    load_idx_pair,
    load_mean,
    mean_subtract,
    save_mean,
    subtract_mean,
    synth_blobs,
    write_atomic,
)
# evaluate and diversity_penalty stay importable from here: the benchmark in
# perfbench/ rebinds cli.evaluate and cli.diversity_penalty
from .losses import LossConfig, diversity_penalty, diversity_terms  # noqa: F401
from .model import (
    CheckpointError,
    MlpFeatureExtractor,
    WeakClassifierBank,
    load_checkpoint,
    save_checkpoint,
)
from .tensor import Rng, check_count, check_integer, sum_in_order
from .trainer import SgdConfig, count_hits, evaluate, grad_check, train  # noqa: F401

__all__ = ["ConfigError", "RunConfig", "parse_config_text", "config_to_text", "main"]


class ConfigError(Exception):
    """A config file or flag combination cannot be turned into a run."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs, expressible as a flat text file.

    Valid by construction: building one, directly, by :func:`parse_config_text`
    or by ``dataclasses.replace``, raises :class:`ConfigError` for any value
    that describes no dataset, model or run.
    """

    dataset: str = "synthetic"
    mnist_dir: str = ""
    mean_subtract: bool = False
    limit_train: int = 0
    synth_classes: int = 10
    synth_samples: int = 100
    synth_eval_samples: int = 50
    synth_dim: int = 16
    synth_noise: float = 1.0
    hidden_dims: tuple[int, ...] = (64,)
    feature_dim: int = 32
    margin: float = 0.0
    diversity_weight: float = 0.0
    heads: int = 1
    base_lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0005
    lr_drop_iters: tuple[int, ...] = (8000, 14000)
    lr_drop_factor: float = 0.1
    max_iters: int = 20000
    batch_size: int = 256
    seed: int = 0
    log_every: int = 100
    eval_every: int = 1000
    timing_in_csv: bool = False
    out_dir: str = "out"

    def __post_init__(self):
        try:
            for f in fields(self):
                value = getattr(self, f.name)
                if type(f.default) is int:
                    check_integer(value, f.name)
                elif type(f.default) is tuple:
                    for item in value:
                        check_integer(item, f"every {f.name} entry")
            for key in ("synth_classes", "synth_samples", "synth_eval_samples", "synth_dim",
                        "log_every", "eval_every", "feature_dim"):
                check_count(getattr(self, key), key)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.dataset not in ("synthetic", "mnist"):
            raise ConfigError(f"dataset must be 'synthetic' or 'mnist', got {self.dataset!r}")
        if self.dataset == "mnist" and not self.mnist_dir:
            raise ConfigError("dataset = mnist requires mnist_dir")
        if self.limit_train < 0:
            raise ConfigError("limit_train must be non-negative")
        # the synthetic train split is ordered class by class, so a row
        # limit would keep only the first classes
        if self.limit_train and self.dataset == "synthetic":
            raise ConfigError(
                "limit_train applies to IDX data only; set synth_samples to size "
                "the synthetic train split"
            )
        # evaluations run on log rows only
        if self.eval_every % self.log_every:
            raise ConfigError(
                f"eval_every ({self.eval_every}) must be a multiple of log_every "
                f"({self.log_every})"
            )
        if not (math.isfinite(self.synth_noise) and self.synth_noise > 0):
            raise ConfigError(f"synth_noise must be finite and positive, got {self.synth_noise}")
        if any(width < 1 for width in self.hidden_dims):
            raise ConfigError(f"hidden_dims must all be at least 1, got {_fmt(self.hidden_dims)}")
        num_classes = _MNIST_CLASSES if self.dataset == "mnist" else self.synth_classes
        if self.heads >= 2 and num_classes == 1:
            raise ConfigError(
                f"heads = {self.heads} needs at least 2 classes for the diversity term, "
                f"the data has {num_classes}"
            )
        try:
            _component_configs(self)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def _parse_bool(tok: str) -> bool:
    low = tok.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {tok!r}")


def _parse_int_tuple(tok: str) -> tuple[int, ...]:
    parts = [p.strip() for p in tok.split(",")]
    return tuple(int(p) for p in parts if p)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# config key -> (dataclass field, parser), one per RunConfig field. A key
# is its field's name, except that diversity_weight is written "lambda"
# (a Python keyword); the parser follows the type of the field's default.
_PARSERS = {bool: _parse_bool, int: int, float: float, str: str, tuple: _parse_int_tuple}
_FIELD_TO_KEY = {
    f.name: "lambda" if f.name == "diversity_weight" else f.name for f in fields(RunConfig)
}
_KEY_TO_FIELD = {
    _FIELD_TO_KEY[f.name]: (f.name, _PARSERS[type(f.default)]) for f in fields(RunConfig)
}


def parse_config_text(text: str) -> RunConfig:
    """Parse ``key = value`` lines into a RunConfig; unknown keys fail."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, tok = line.partition("=")
        key, tok = key.strip(), tok.strip()
        if key not in _KEY_TO_FIELD:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        field_name, parse = _KEY_TO_FIELD[key]
        if field_name in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[field_name] = parse(tok)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return RunConfig(**values)


def config_to_text(cfg: RunConfig) -> str:
    """Canonical serialization; parses back to an identical RunConfig."""
    lines = []
    for f in fields(RunConfig):
        lines.append(f"{_FIELD_TO_KEY[f.name]} = {_fmt(getattr(cfg, f.name))}")
    return "\n".join(lines) + "\n"


def _load_config(path: str | Path | None) -> RunConfig:
    """The config file at ``path`` as UTF-8 text, or the defaults for None.

    Every config file, ``resolved.cfg`` included, is read here. An existing
    file that cannot be read or parsed raises a ConfigError that begins
    with its path."""
    if path is None:
        return RunConfig()
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        return parse_config_text(p.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror}") from exc
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


_MNIST_CLASSES = 10
_SPLITS = ("train", "eval")
_MNIST_STEMS = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "eval_images": "t10k-images-idx3-ubyte",
    "eval_labels": "t10k-labels-idx1-ubyte",
}


def _find_idx(directory: str, stem: str) -> Path:
    for name in (stem, stem + ".gz"):
        candidate = Path(directory) / name
        if candidate.exists():
            return candidate
    raise ConfigError(f"missing {stem}[.gz] in {directory}")


# The RunConfig fields that decide which data a run reads: those that
# _load_splits and the mean step read for every source, then each
# source's own. eval names those in which --config differs from the
# training run's; tests check that changing any of them changes the loaded
# splits and that changing any other field does not.
_DATA_KEYS = ("dataset", "mean_subtract")
_SOURCE_KEYS = {
    "synthetic": (
        "synth_classes", "synth_samples", "synth_eval_samples", "synth_dim", "synth_noise",
        "seed",
    ),
    "mnist": ("mnist_dir", "limit_train"),
}


def _load_splits(cfg: RunConfig, names) -> dict[str, Dataset]:
    """The named splits ("train", "eval") of the configured source, raw.

    Each split is a fresh Dataset that the caller owns: float64 rows for
    synthetic data, the file's uint8 pixels for IDX data, where
    ``limit_train`` keeps the first rows of the train split. It reads
    ``dataset`` and the source's ``_SOURCE_KEYS`` of the config, which its
    construction has checked.
    """
    names = [name for name in _SPLITS if name in names]
    if cfg.dataset == "synthetic":
        per_class = cfg.synth_samples + cfg.synth_eval_samples
        spec = SyntheticSpec(
            num_classes=cfg.synth_classes,
            samples_per_class=per_class,
            dim=cfg.synth_dim,
            noise_std=cfg.synth_noise,
            seed=cfg.seed,
        )
        full = synth_blobs(spec)
        bounds = {"train": (0, cfg.synth_samples), "eval": (cfg.synth_samples, per_class)}
        bases = np.arange(cfg.synth_classes)[:, None] * per_class
        splits = {name: full.take((bases + np.arange(*bounds[name])).ravel()) for name in names}
    else:
        # limit_train = 0 keeps every row
        limits = {"train": cfg.limit_train or None}
        splits = {
            name: load_idx_pair(
                _find_idx(cfg.mnist_dir, _MNIST_STEMS[f"{name}_images"]),
                _find_idx(cfg.mnist_dir, _MNIST_STEMS[f"{name}_labels"]),
                num_classes=_MNIST_CLASSES,
                limit=limits.get(name),
            )
            for name in names
        }
    return splits


def load_datasets(cfg: RunConfig, names=_SPLITS, mean=None):
    """The named splits, then their mean: ``load_datasets(cfg)`` is
    (train, eval, mean), and the mean is None without ``mean_subtract``.

    With it, rows subtract a given (stored) mean as they are fetched, or
    else the training mean, read from the train split even when it is
    not named; no split is copied. Splits read together must agree in dim.
    """
    fit = cfg.mean_subtract and mean is None
    splits = _load_splits(cfg, (*names, "train") if fit else names)
    if splits.keys() == {"train", "eval"} and splits["train"].dim != splits["eval"].dim:
        raise IdxFormatError(
            f"{cfg.mnist_dir}: train images have dim {splits['train'].dim} but eval images "
            f"have dim {splits['eval'].dim}"
        )
    named = [splits[name] for name in names]
    if not cfg.mean_subtract:
        mean = None
    elif fit:
        mean = mean_subtract(splits["train"], *(splits[n] for n in names if n != "train"))[-1]
    else:
        try:
            subtract_mean(mean, *named)
        except ValueError as exc:
            raise ConfigError(f"cannot subtract the training mean: {exc}") from exc
    return (*named, mean)


def build_model(cfg: RunConfig, input_dim: int, num_classes: int):
    root = Rng(cfg.seed)
    dims = [input_dim, *cfg.hidden_dims, cfg.feature_dim]
    net = MlpFeatureExtractor(dims, root.spawn(11))
    bank = WeakClassifierBank(cfg.feature_dim, num_classes, cfg.heads, root.spawn(13))
    return net, bank


def _component_configs(cfg: RunConfig) -> tuple[LossConfig, SgdConfig]:
    """The loss and SGD settings of a run; SgdConfig's fields are RunConfig's."""
    loss_cfg = LossConfig(
        margin=cfg.margin, diversity_weight=cfg.diversity_weight, num_heads=cfg.heads
    )
    sgd_cfg = SgdConfig(**{f.name: getattr(cfg, f.name) for f in fields(SgdConfig)})
    return loss_cfg, sgd_cfg


def run_training(cfg: RunConfig, quiet: bool = False) -> dict:
    """Full training run plus artifact writing; shared by train and sweep."""
    loss_cfg, sgd_cfg = _component_configs(cfg)
    train_ds, eval_ds, mean = load_datasets(cfg)
    net, bank = build_model(cfg, train_ds.dim, train_ds.num_classes)

    report = train(net, bank, train_ds, loss_cfg, sgd_cfg, seed=cfg.seed, eval_dataset=eval_ds,
                   log_every=cfg.log_every, eval_every=cfg.eval_every)

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_atomic(out / "report.csv", report.to_csv(include_timing=cfg.timing_in_csv).encode())
    write_atomic(out / "resolved.cfg", config_to_text(cfg).encode())
    save_checkpoint(out / "model.ckpt", net, bank)
    if mean is not None:
        save_mean(out / "mean.bin", mean)

    accuracy = report.final_eval_accuracy
    # a diverged bank may overflow here; like train's loop, report it
    # through the result, not numpy's warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        final_div = sum_in_order(diversity_terms(bank.heads).tolist())

    if not quiet:
        if report.diverged:
            print("training diverged; partial report kept", file=sys.stderr)
        print(f"final eval accuracy: {accuracy:.6f}")
    return {
        "report": report,
        "net": net,
        "bank": bank,
        "accuracy": accuracy,
        "diversity": final_div,
        "diverged": report.diverged,
    }


def _run_config(args) -> RunConfig:
    """The ``--config`` file with ``--seed`` and ``--out`` applied."""
    overrides = {"seed": args.seed, "out_dir": args.out}
    return replace(
        _load_config(args.config), **{k: v for k, v in overrides.items() if v is not None}
    )


def cmd_train(args) -> int:
    result = run_training(_run_config(args))
    return 2 if result["diverged"] else 0


def _warn_data_changes(cfg: RunConfig, resolved: Path) -> None:
    """Name on stderr the data keys in which ``cfg`` differs from the
    training run's ``resolved.cfg``; scoring other data stays legal."""
    if not resolved.exists():
        return
    try:
        trained = _load_config(resolved)
    except ConfigError as exc:
        # the error begins with the path
        print(f"emsoftmax: warning: cannot compare --config with {exc}", file=sys.stderr)
        return
    keys = list(_DATA_KEYS)
    for source in dict.fromkeys((trained.dataset, cfg.dataset)):
        keys += _SOURCE_KEYS.get(source, ())
    changes = [
        f"{key} {_fmt(getattr(trained, key))} -> {_fmt(getattr(cfg, key))}"
        for key in keys
        if getattr(trained, key) != getattr(cfg, key)
    ]
    if changes:
        print(f"emsoftmax: warning: --config reads other data than {resolved}: "
              + ", ".join(changes), file=sys.stderr)


def cmd_eval(args) -> int:
    try:
        net, bank = load_checkpoint(args.checkpoint)
    except (OSError, CheckpointError) as exc:
        raise ConfigError(f"cannot load checkpoint {args.checkpoint}: {exc}") from exc
    artifact_dir = Path(args.checkpoint).parent
    resolved = artifact_dir / "resolved.cfg"
    if args.config is None and not resolved.exists():
        raise ConfigError(
            f"no resolved.cfg next to {args.checkpoint}; pass --config to name the dataset"
        )
    cfg = _load_config(resolved if args.config is None else args.config)
    if args.config is not None:
        _warn_data_changes(cfg, resolved)

    mean_path = artifact_dir / "mean.bin"
    stored_mean = load_mean(mean_path) if cfg.mean_subtract and mean_path.exists() else None
    ds, _ = load_datasets(cfg, (args.split,), stored_mean)
    if ds.num_classes != bank.num_classes:
        raise ConfigError(
            f"checkpoint scores {bank.num_classes} classes, dataset has {ds.num_classes}"
        )
    if ds.dim != net.input_dim:
        raise ConfigError(
            f"checkpoint expects input dim {net.input_dim}, dataset has {ds.dim}"
        )

    # top-5 over five classes or fewer always hits
    top1_hits, top5_hits = count_hits(net, bank, ds, top5=bank.num_classes > 5)
    print(f"top1 accuracy: {top1_hits / len(ds):.6f}")
    if top5_hits is not None:
        print(f"top5 accuracy: {top5_hits / len(ds):.6f}")
    return 0


def _rand_int(rng: Rng, lo: int, hi: int) -> int:
    """Uniform integer in [lo, hi] from one uniform draw."""
    u = rng.uniform()
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


# head counts of the gradcheck grid; the grid is bank-only, so its blocks
# are the heads, and only those of the smallest bank are in every cell
_GRID_HEADS = (1, 2, 3)
_GRID_BLOCKS = tuple(f"head{v}" for v in range(min(_GRID_HEADS)))


def _check_grid_args(instances, tolerance, prefix: str = "") -> None:
    """A ValueError unless ``instances`` is a count and ``tolerance`` is
    finite and positive, naming each as ``prefix`` plus its name."""
    check_count(instances, f"{prefix}instances")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"{prefix}tolerance must be finite and positive, got {tolerance}")


def run_gradcheck_grid(
    seed: int,
    instances: int,
    tolerance: float = 1e-5,
    corrupt_block: str | None = None,
    printer=print,
) -> tuple[bool, float]:
    """Finite-difference certification over the standard config grid.

    Grid: margin in {0, 1}, lambda in {0, 0.1}, heads in {1, 2, 3}, with
    ``instances`` random small problems per cell (d <= 5, K <= 4,
    n <= 3). This is the one place that judges :func:`grad_check`'s
    errors: a cell passes when its worst error is at most ``tolerance``,
    and a NaN error fails its cell and the grid. Returns (passed, worst
    relative error), the worst being NaN when any error is. Fewer than
    one instance, or a tolerance that is not finite and positive, would
    pass without judging anything: either is a ValueError.
    """
    _check_grid_args(instances, tolerance)
    root = Rng(seed)
    worst = 0.0
    cell = 0
    for m in (0.0, 1.0):
        for lam in (0.0, 0.1):
            for v in _GRID_HEADS:
                cell += 1
                cell_worst = 0.0
                for j in range(instances):
                    r = root.spawn(cell * 100003 + j)
                    d = _rand_int(r, 2, 5)
                    k = _rand_int(r, 2, 4)
                    n = _rand_int(r, 1, 3)
                    bank = WeakClassifierBank(d, k, v, r.spawn(1))
                    x = r.spawn(2).normal((n, d))
                    labels = np.array(
                        [_rand_int(r, 0, k - 1) for _ in range(n)], dtype=np.int64
                    )
                    cfg = LossConfig(margin=m, diversity_weight=lam, num_heads=v)
                    res = grad_check(None, bank, x, labels, cfg, corrupt_block=corrupt_block)
                    # np.maximum, unlike max(), carries a NaN error through
                    cell_worst = float(np.maximum(cell_worst, res["max_error"]))
                worst = float(np.maximum(worst, cell_worst))
                printer(
                    f"m={m:g} lambda={lam:g} V={v}: max rel err {cell_worst:.3e} "
                    f"[{'ok' if cell_worst <= tolerance else 'FAIL'}]"
                )
    passed = worst <= tolerance
    printer(f"overall max rel err {worst:.3e} [{'ok' if passed else 'FAIL'}]")
    return passed, worst


def cmd_gradcheck(args) -> int:
    try:
        _check_grid_args(args.instances, args.tolerance, "--")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.corrupt is not None and args.corrupt not in _GRID_BLOCKS:
        raise ConfigError(
            f"--corrupt must name a block every grid cell has ({', '.join(_GRID_BLOCKS)}), "
            f"got {args.corrupt!r}"
        )
    ok, _ = run_gradcheck_grid(
        args.seed, args.instances, tolerance=args.tolerance, corrupt_block=args.corrupt
    )
    return 0 if ok else 2


# sweep axis -> config key
_SWEEP_KEYS = {"lambda": "lambda", "v": "heads", "m": "margin"}


def _sweep_list(text: str, parse, what: str) -> tuple[list[str], list]:
    """The comma-separated tokens of ``text`` and their values; none, a bad
    one or a repeat is a ConfigError naming ``what``."""
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise ConfigError(f"sweep needs at least one {what}")
    try:
        values = [parse(t) for t in tokens]
    except ValueError as exc:
        raise ConfigError(f"bad sweep {what}: {exc}") from exc
    # a repeated cell would train twice, into one directory or two
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(
                f"sweep {what} {tokens[i]!r} repeats {tokens[values.index(value)]!r}"
            )
    return tokens, values


def cmd_sweep(args) -> int:
    cfg = _run_config(args)
    field_name, parse = _KEY_TO_FIELD[_SWEEP_KEYS[args.sweep_param]]
    tokens, parsed = _sweep_list(args.sweep_values, parse, "value")
    defaults = ",".join(str(cfg.seed + i) for i in range(3))
    _, seeds = _sweep_list(args.sweep_seeds or defaults, int, "seed")

    # building every cell's config checks it before the first cell trains
    out = Path(cfg.out_dir)
    cells = [
        (token, [
            replace(cfg, seed=s, out_dir=str(out / f"{args.sweep_param}_{token}" / f"seed_{s}"),
                    **{field_name: value})
            for s in seeds
        ])
        for token, value in zip(tokens, parsed)
    ]
    out.mkdir(parents=True, exist_ok=True)
    lines = ["value,seed,accuracy,div_term"]
    any_diverged = False
    for token, cell_cfgs in cells:
        accs, divs = [], []
        for cell_cfg in cell_cfgs:
            result = run_training(cell_cfg, quiet=True)
            any_diverged = any_diverged or result["diverged"]
            accs.append(result["accuracy"])
            divs.append(result["diversity"])
            lines.append(
                f"{token},{cell_cfg.seed},{result['accuracy']:.6f},{result['diversity']:.10g}"
            )
        mean_acc = sum_in_order(accs) / len(accs)
        mean_div = sum_in_order(divs) / len(divs)
        lines.append(f"{token},mean,{mean_acc:.6f},{mean_div:.10g}")
        print(f"{args.sweep_param}={token}: mean accuracy {mean_acc:.6f}")
    write_atomic(out / "sweep.csv", ("\n".join(lines) + "\n").encode())
    if any_diverged:
        print("at least one sweep cell diverged", file=sys.stderr)
        return 2
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors, per our convention,
    and lets a failed write of --help raise, as every other write does."""

    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="emsoftmax", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write artifacts")
    p_train.add_argument("--config", help="key=value config file")
    p_train.add_argument("--out", help="output directory (overrides config)")
    p_train.add_argument("--seed", type=int, help="seed (overrides config)")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument(
        "--config",
        help="config describing the dataset (default: resolved.cfg next to the checkpoint)",
    )
    p_eval.add_argument("--split", choices=("train", "eval"), default="eval")
    p_eval.set_defaults(func=cmd_eval)

    p_gc = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.add_argument("--instances", type=int, default=10, help="instances per grid cell")
    p_gc.add_argument("--tolerance", type=float, default=1e-5)
    p_gc.add_argument("--corrupt", help="corrupt one gradient block (harness self-test)")
    p_gc.set_defaults(func=cmd_gradcheck)

    p_sweep = sub.add_parser("sweep", help="one-axis hyperparameter sweep")
    p_sweep.add_argument("--config", help="base config for every cell")
    p_sweep.add_argument("--out", help="output directory (overrides config)")
    p_sweep.add_argument("--seed", type=int, help="base seed (overrides config)")
    p_sweep.add_argument(
        "--sweep-param", required=True, choices=sorted(_SWEEP_KEYS),
        help="the single axis to sweep",
    )
    p_sweep.add_argument("--sweep-values", required=True, help="comma-separated values")
    p_sweep.add_argument("--sweep-seeds", help="comma-separated seeds (default: 3)")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            # --help and usage errors exit inside parse_args
            args = parser.parse_args(argv)
            return args.func(args)
        finally:
            # a reader that has gone shows up here, not at interpreter exit
            sys.stdout.flush()
    except BrokenPipeError:
        # send what is left to the null device, or the flush at exit reports it
        with contextlib.suppress(AttributeError, OSError, ValueError), \
                open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        return 141
    except (ConfigError, IdxFormatError, CheckpointError, OSError) as exc:
        print(f"emsoftmax: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
