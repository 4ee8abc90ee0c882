import gzip
import io
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import warnings
import zlib
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import nan_variant_totals
from emsoftmax import cli, trainer
from emsoftmax.cli import (
    _DATA_KEYS,
    _SOURCE_KEYS,
    ConfigError,
    RunConfig,
    config_to_text,
    load_datasets,
    main,
    parse_config_text,
    run_training,
)
from emsoftmax.data import IdxFormatError, save_mean
from emsoftmax.model import (
    MlpFeatureExtractor,
    WeakClassifierBank,
    load_checkpoint,
    save_checkpoint,
)
from emsoftmax.tensor import Rng

QUICK = """
dataset = synthetic
synth_classes = 4
synth_samples = 30
synth_eval_samples = 15
synth_dim = 8
synth_noise = 1.0
hidden_dims = 12
feature_dim = 8
heads = 2
lambda = 0.1
margin = 0.5
base_lr = 0.05
max_iters = 120
batch_size = 30
lr_drop_iters = 80
seed = 4
log_every = 40
eval_every = 80
"""


def write_quick(tmp_path, name="run.cfg", **overrides):
    base = {
        "dataset": "synthetic", "synth_classes": 4, "synth_samples": 30,
        "synth_eval_samples": 15, "synth_dim": 8, "synth_noise": 1.0,
        "hidden_dims": 12, "feature_dim": 8, "heads": 2, "lambda": 0.1,
        "margin": 0.5, "base_lr": 0.05, "max_iters": 120, "batch_size": 30,
        "lr_drop_iters": 80, "seed": 4, "log_every": 40, "eval_every": 80,
    }
    base.update(overrides)
    path = tmp_path / name
    path.write_text("\n".join(f"{k} = {v}" for k, v in base.items()) + "\n")
    return path


def write_idx_split(directory, split, rows, side, seed):
    """Random uint8 ``side`` x ``side`` images and labels in 0..9 as IDX files."""
    g = np.random.default_rng(seed)
    labels = np.arange(rows) % 10
    images = g.integers(0, 256, size=(rows, side, side), dtype=np.uint8)
    images[:, : side // 2, : side // 2] = (labels * 25).astype(np.uint8)[:, None, None]
    (directory / f"{split}-images-idx3-ubyte").write_bytes(
        struct.pack(">IIII", 0x803, rows, side, side) + images.tobytes()
    )
    (directory / f"{split}-labels-idx1-ubyte").write_bytes(
        struct.pack(">II", 0x801, rows) + labels.astype(np.uint8).tobytes()
    )


def idx_config(directory, **overrides):
    return replace(
        parse_config_text(QUICK),
        dataset="mnist", mnist_dir=str(directory), **overrides,
    )


class TestConfigFormat:
    def test_round_trip_identity(self):
        cfg = parse_config_text(QUICK)
        assert parse_config_text(config_to_text(cfg)) == cfg

    def test_defaults_round_trip(self):
        assert parse_config_text(config_to_text(RunConfig())) == RunConfig()

    def test_lambda_key_maps_to_diversity_weight(self):
        cfg = parse_config_text("lambda = 0.25")
        assert cfg.diversity_weight == 0.25
        assert "lambda = 0.25" in config_to_text(cfg)

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config_text("# comment\n\nseed = 9  # trailing\n")
        assert cfg.seed == 9

    def test_unknown_key_rejected_with_line_number(self):
        with pytest.raises(ConfigError, match="line 2.*unknown key"):
            parse_config_text("seed = 1\nbogus = 2")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("max_iters = soon")
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("mean_subtract = maybe")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just some words")

    def test_empty_tuple_values(self):
        cfg = parse_config_text("hidden_dims =\nlr_drop_iters =")
        assert cfg.hidden_dims == ()
        assert cfg.lr_drop_iters == ()
        assert parse_config_text(config_to_text(cfg)) == cfg


class TestDatasetResolution:
    def test_synthetic_split_sizes(self):
        cfg = parse_config_text(QUICK)
        train, evald, mean = load_datasets(cfg)
        assert len(train) == 4 * 30 and len(evald) == 4 * 15
        assert train.dim == 8 and mean is None

    def test_train_and_eval_are_disjoint(self):
        cfg = parse_config_text(QUICK)
        train, evald, _ = load_datasets(cfg)
        joined = np.vstack([train.features, evald.features])
        assert len(np.unique(joined, axis=0)) == len(joined)

    def test_limit_train(self, tmp_path):
        write_idx_split(tmp_path, "train", 60, 6, seed=1)
        write_idx_split(tmp_path, "t10k", 20, 6, seed=2)
        train, evald, _ = load_datasets(idx_config(tmp_path, limit_train=17))
        assert len(train) == 17 and len(evald) == 20

    def test_mean_subtract(self):
        cfg = parse_config_text(QUICK + "mean_subtract = true\n")
        train, _, mean = load_datasets(cfg)
        assert mean is not None
        np.testing.assert_allclose(train.rows(slice(None)).mean(axis=0), np.zeros(8), atol=1e-12)

    def test_mnist_requires_directory(self):
        with pytest.raises(ConfigError, match="mnist_dir"):
            load_datasets(parse_config_text("dataset = mnist"))

    def test_missing_mnist_files_named(self, tmp_path):
        cfg = parse_config_text(f"dataset = mnist\nmnist_dir = {tmp_path}")
        with pytest.raises(ConfigError, match="train-images"):
            load_datasets(cfg)

    def test_unknown_dataset_kind(self):
        with pytest.raises(ConfigError, match="dataset"):
            load_datasets(parse_config_text("dataset = cifar"))

    @pytest.mark.parametrize("limit, source", [(0, "synthetic"), (0, "idx"), (23, "idx")])
    def test_mean_subtract_equals_copying_reference(self, tmp_path, source, limit):
        write_idx_split(tmp_path, "train", 60, 6, seed=1)
        write_idx_split(tmp_path, "t10k", 20, 6, seed=2)
        cfg = parse_config_text(QUICK) if source == "synthetic" else idx_config(tmp_path)
        cfg = replace(cfg, limit_train=limit)
        raw_train, raw_eval, no_mean = load_datasets(cfg)
        train, evald, mean = load_datasets(replace(cfg, mean_subtract=True))
        assert no_mean is None
        # the out-of-place reference: raw - mean on separate copies
        raw_train_rows, raw_eval_rows = raw_train.rows(slice(None)), raw_eval.rows(slice(None))
        ref_mean = np.mean(raw_train_rows, axis=0)
        assert np.array_equal(mean, ref_mean)
        assert np.array_equal(train.rows(slice(None)), raw_train_rows - ref_mean)
        assert np.array_equal(evald.rows(slice(None)), raw_eval_rows - ref_mean)
        assert np.array_equal(train.labels, raw_train.labels)
        assert len(train) == (limit or len(raw_train))

    @pytest.mark.parametrize("limit", [0, 23])
    @pytest.mark.parametrize("split", ["train", "eval"])
    def test_one_split_loads_as_in_the_pair(self, tmp_path, split, limit):
        write_idx_split(tmp_path, "train", 60, 6, seed=1)
        write_idx_split(tmp_path, "t10k", 20, 6, seed=2)
        cfg = idx_config(tmp_path, mean_subtract=True, limit_train=limit)
        train, evald, stored = load_datasets(cfg)
        pair = {"train": train, "eval": evald}[split]
        # with the stored mean, and with the mean fitted on the train split
        for ds, mean in (load_datasets(cfg, (split,), stored), load_datasets(cfg, (split,))):
            assert (mean.view(np.uint64) == stored.view(np.uint64)).all()
            got, want = ds.rows(slice(None)), pair.rows(slice(None))
            assert got.shape == want.shape
            assert (got.view(np.uint64) == want.view(np.uint64)).all()
            assert (ds.labels == pair.labels).all()

    def test_mean_subtract_holds_one_copy_of_each_split(self, tmp_path):
        write_idx_split(tmp_path, "train", 500, 28, seed=1)
        write_idx_split(tmp_path, "t10k", 100, 28, seed=2)
        cfg = idx_config(tmp_path, mean_subtract=True)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            splits = load_datasets(cfg)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert splits[2] is not None
        # the pixels of each split plus one file's bytes or one decoded
        # chunk at a time; a raw and a centred copy of both splits side
        # by side read 2.0
        assert peak / held <= 1.25

    def test_limit_train_converts_only_the_kept_rows(self, tmp_path):
        write_idx_split(tmp_path, "train", 2000, 28, seed=1)
        write_idx_split(tmp_path, "t10k", 10, 28, seed=2)
        cfg = idx_config(tmp_path, limit_train=100)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            train, _, _ = load_datasets(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(train) == 100
        # the whole split as float64 would be 2000 * 784 * 8 bytes
        assert peak < 2000 * 784 * 8

    @pytest.mark.parametrize("source", ["synthetic", "mnist"])
    def test_data_keys_are_the_fields_that_change_the_splits(self, tmp_path, source):
        """Every field eval's warning names changes the loaded data; no other does.

        Each field moves to another valid value; synthetic data takes no
        ``limit_train`` at all.
        """
        for name, seed in (("a", 1), ("b", 2)):
            (tmp_path / name).mkdir()
            write_idx_split(tmp_path / name, "train", 30, 6, seed=seed)
            write_idx_split(tmp_path / name, "t10k", 10, 6, seed=seed + 10)
        cfg = replace(idx_config(tmp_path / "a"), dataset=source)
        other_source = {"synthetic": "mnist", "mnist": "synthetic"}

        def changed(value, name):
            if name == "dataset":
                return other_source[value]
            if name == "mnist_dir":
                return str(tmp_path / "b")
            if name in ("log_every", "eval_every"):
                # eval_every stays a multiple of log_every
                return value * 2
            if isinstance(value, bool):
                return not value
            if isinstance(value, str):
                return value + "x"
            if isinstance(value, float):
                return value / 2
            if isinstance(value, tuple):
                return value + (max(value, default=0) + 1,)
            return value + 1

        def arrays(c):
            train, evald, _ = load_datasets(c)
            return train.rows(slice(None)), train.labels, evald.rows(slice(None)), evald.labels

        base = arrays(cfg)
        moved = set()
        for f in fields(RunConfig):
            if source == "synthetic" and f.name == "limit_train":
                continue
            value = getattr(cfg, f.name)
            got = arrays(replace(cfg, **{f.name: changed(value, f.name)}))
            if not all(np.array_equal(x, y) for x, y in zip(got, base)):
                moved.add(f.name)
        assert moved == {*_DATA_KEYS, *_SOURCE_KEYS[source]}

    @pytest.mark.parametrize("mean_subtract", [False, True])
    def test_split_size_mismatch_names_both_dims(self, tmp_path, mean_subtract):
        write_idx_split(tmp_path, "train", 30, 20, seed=1)
        write_idx_split(tmp_path, "t10k", 10, 28, seed=2)
        with pytest.raises(IdxFormatError, match="dim 400.*dim 784"):
            load_datasets(idx_config(tmp_path, mean_subtract=mean_subtract))


class TestTrainCommand:
    def test_writes_artifacts_and_prints_accuracy(self, tmp_path, capsys):
        cfg_path = write_quick(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "final eval accuracy:" in printed
        for name in ("report.csv", "model.ckpt", "resolved.cfg"):
            assert (out / name).exists()
        report = (out / "report.csv").read_text()
        assert report.startswith("iter,lr,total_loss,cls_term,div_term,train_acc,eval_acc,seconds")
        # diversity term is live for a two-head run
        assert float(report.strip().split("\n")[1].split(",")[4]) > 0.0

    def test_resolved_config_round_trips(self, tmp_path):
        cfg_path = write_quick(tmp_path)
        out = tmp_path / "run"
        main(["train", "--config", str(cfg_path), "--out", str(out), "--seed", "11"])
        resolved = parse_config_text((out / "resolved.cfg").read_text())
        assert resolved.seed == 11
        assert resolved.out_dir == str(out)
        assert parse_config_text(config_to_text(resolved)) == resolved

    def test_missing_config_exits_one(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "none.cfg")]) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_config_value_exits_one(self, tmp_path, capsys):
        cfg_path = write_quick(tmp_path, momentum="1.5")
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize("key, value", [("lambda", "nan"), ("margin", "inf"),
                                            ("base_lr", "inf"), ("weight_decay", "nan"),
                                            ("lr_drop_factor", "inf")])
    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_non_finite_hyperparameter_exits_one(self, tmp_path, capsys, key, value, command):
        cfg_path = write_quick(tmp_path, **{key: value})
        argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "x")]
        if command == "sweep":
            argv += ["--sweep-param", "v", "--sweep-values", "2", "--sweep-seeds", "4"]
        assert main(argv) == 1
        field = "diversity_weight" if key == "lambda" else key
        assert f"{field} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["log_every", "eval_every"])
    def test_zero_logging_interval_exits_one(self, tmp_path, capsys, key):
        cfg_path = write_quick(tmp_path, **{key: "0"})
        out = tmp_path / "x"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert f"{key} must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_idx_label_out_of_range_exits_one_naming_the_file(self, tmp_path, capsys):
        write_idx_split(tmp_path, "train", 20, 6, seed=1)
        write_idx_split(tmp_path, "t10k", 10, 6, seed=2)
        labels = tmp_path / "train-labels-idx1-ubyte"
        blob = bytearray(labels.read_bytes())
        blob[8 + 5] = 12
        labels.write_bytes(bytes(blob))
        cfg_path = write_quick(tmp_path, dataset="mnist", mnist_dir=str(tmp_path))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"emsoftmax: error: {labels}: label 12 out of range for 10 classes" in err
        assert not out.exists()

    def test_divergent_run_exits_two_and_keeps_partial_report(self, tmp_path, capsys):
        cfg_path = write_quick(tmp_path, base_lr="10000.0", log_every="1")
        out = tmp_path / "boom"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "diverged" in capsys.readouterr().err
        assert (out / "report.csv").exists()

    def test_overflowing_run_exits_two_without_numpy_warnings(self, tmp_path, capsys):
        # the bank overflows in the first update; the final diversity of
        # that bank must not reach numpy's warnings, as train's loop does not
        cfg_path = write_quick(tmp_path, synth_classes=3, synth_samples=10, synth_dim=4,
                               hidden_dims=5, feature_dim=3, heads=2, base_lr="1e300")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert code == 2
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        err = capsys.readouterr().err
        assert err == "training diverged; partial report kept\n"


INVALID_VALUES = [
    ({"feature_dim": "0"}, "feature_dim must be at least 1"),
    ({"hidden_dims": "0"}, "hidden_dims must all be at least 1"),
    ({"hidden_dims": "12,0"}, "hidden_dims must all be at least 1"),
    ({"synth_noise": "0"}, "synth_noise must be finite and positive"),
    ({"synth_noise": "nan"}, "synth_noise must be finite and positive"),
    ({"synth_samples": "0"}, "synth_samples must be at least 1"),
    ({"synth_eval_samples": "0"}, "synth_eval_samples must be at least 1"),
    ({"synth_classes": "0"}, "synth_classes must be at least 1"),
    ({"synth_dim": "0"}, "synth_dim must be at least 1"),
    ({"synth_classes": "1", "heads": "2"}, "heads = 2 needs at least 2 classes"),
    ({"dataset": "cifar"}, "dataset must be 'synthetic' or 'mnist', got 'cifar'"),
    ({"limit_train": "-1"}, "limit_train must be non-negative"),
    ({"limit_train": "20"}, "limit_train applies to IDX data only; set synth_samples"),
    ({"heads": "0"}, "num_heads must be at least 1"),
    ({"momentum": "1.5"}, "momentum must lie in [0, 1)"),
    ({"lr_drop_iters": "80,40"}, "lr_drop_iters must be strictly increasing"),
    ({"log_every": "3", "eval_every": "5"}, "eval_every (5) must be a multiple of log_every (3)"),
]
# values that describe eval's dataset; the others describe the model, which
# eval takes from the checkpoint, but a config must be valid as a whole
DATA_KEYS = {
    "synth_noise", "synth_samples", "synth_eval_samples", "synth_classes", "synth_dim",
    "dataset", "limit_train",
}


def untrained_checkpoint(tmp_path):
    """model.ckpt of an untrained model that scores QUICK's data, in tmp_path/run."""
    out = tmp_path / "run"
    out.mkdir()
    net = MlpFeatureExtractor([8, 12, 8], Rng(1))
    save_checkpoint(out / "model.ckpt", net, WeakClassifierBank(8, 4, 2, Rng(2)))
    return out / "model.ckpt"


def eval_with_config(tmp_path, **overrides):
    ckpt = untrained_checkpoint(tmp_path)
    cfg_path = write_quick(tmp_path, **overrides)
    return main(["eval", "--checkpoint", str(ckpt), "--config", str(cfg_path)])


class TestConfigValidation:
    @pytest.mark.parametrize("overrides, message", INVALID_VALUES)
    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_invalid_value_exits_one_before_training(
        self, tmp_path, capsys, overrides, message, command
    ):
        cfg_path = write_quick(tmp_path, **overrides)
        out = tmp_path / "x"
        argv = [command, "--config", str(cfg_path), "--out", str(out)]
        if command == "sweep":
            argv += ["--sweep-param", "lambda", "--sweep-values", "0.1", "--sweep-seeds", "4"]
        assert main(argv) == 1
        assert f"emsoftmax: error: {cfg_path}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, message", [c for c in INVALID_VALUES if DATA_KEYS.issuperset(c[0])]
    )
    def test_invalid_data_value_exits_one_in_eval(self, tmp_path, capsys, overrides, message):
        assert eval_with_config(tmp_path, **overrides) == 1
        assert f"emsoftmax: error: {tmp_path / 'run.cfg'}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, message", [c for c in INVALID_VALUES if not DATA_KEYS.issuperset(c[0])]
    )
    def test_invalid_model_value_exits_one_in_eval(self, tmp_path, capsys, overrides, message):
        assert eval_with_config(tmp_path, **overrides) == 1
        assert f"emsoftmax: error: {tmp_path / 'run.cfg'}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("name, value", [
        ("synth_classes", 2.5), ("feature_dim", 8.0), ("heads", 2.5), ("max_iters", True),
        ("seed", 1.5), ("hidden_dims", (4, 2.5)), ("lr_drop_iters", (1.5,)),
    ])
    def test_non_integer_fields_rejected(self, name, value):
        # built directly, not parsed: a float would be truncated or fail later
        valid = parse_config_text(QUICK)
        message = (f"every {name} entry" if isinstance(value, tuple) else name) + (
            " must be an integer, got ")
        with pytest.raises(ConfigError, match=f"^{message}"):
            replace(valid, **{name: value})

    @pytest.mark.parametrize("overrides, message", INVALID_VALUES)
    def test_no_invalid_config_can_be_built(self, tmp_path, overrides, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config_text(write_quick(tmp_path, **overrides).read_text())
        valid = parse_config_text(QUICK)
        values = {}
        for key, tok in overrides.items():
            name, parse = cli._KEY_TO_FIELD[key]
            values[name] = parse(tok)
        with pytest.raises(ConfigError, match=re.escape(message)):
            replace(valid, **values)

    def test_sweep_checks_every_cell_before_the_first(self, tmp_path, capsys):
        cfg_path = write_quick(tmp_path, synth_classes="1", heads="1")
        out = tmp_path / "s"
        argv = ["sweep", "--config", str(cfg_path), "--out", str(out),
                "--sweep-param", "v", "--sweep-values", "1,2", "--sweep-seeds", "4"]
        assert main(argv) == 1
        assert "heads = 2 needs at least 2 classes" in capsys.readouterr().err
        assert not out.exists()

    def test_split_size_mismatch_exits_one_before_training(self, tmp_path, capsys):
        write_idx_split(tmp_path, "train", 30, 20, seed=1)
        write_idx_split(tmp_path, "t10k", 10, 28, seed=2)
        cfg_path = write_quick(tmp_path, dataset="mnist", mnist_dir=tmp_path)
        out = tmp_path / "x"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "emsoftmax: error:" in err and "dim 400" in err and "dim 784" in err
        assert not out.exists()


class TestEvalCommand:
    def test_matches_training_eval(self, tmp_path, capsys):
        cfg_path = write_quick(tmp_path)
        out = tmp_path / "run"
        main(["train", "--config", str(cfg_path), "--out", str(out)])
        train_acc = capsys.readouterr().out.strip().split()[-1]
        code = main(
            ["eval", "--checkpoint", str(out / "model.ckpt"), "--config", str(cfg_path)]
        )
        printed = capsys.readouterr().out
        assert code == 0
        assert f"top1 accuracy: {train_acc}" in printed

    def test_top5_reported_and_at_least_top1(self, tmp_path, capsys):
        cfg_path = write_quick(tmp_path, synth_classes="6")
        out = tmp_path / "run"
        main(["train", "--config", str(cfg_path), "--out", str(out)])
        capsys.readouterr()
        main(["eval", "--checkpoint", str(out / "model.ckpt"), "--config", str(cfg_path)])
        lines = capsys.readouterr().out.strip().split("\n")
        top1 = float(lines[0].split(":")[1])
        top5 = float(lines[1].split(":")[1])
        assert top5 >= top1

    @pytest.mark.parametrize("classes", ["10", "3"])
    def test_class_count_mismatch_exits_one(self, tmp_path, capsys, classes):
        cfg_path = write_quick(tmp_path, synth_classes="5")
        out = tmp_path / "run"
        main(["train", "--config", str(cfg_path), "--out", str(out)])
        capsys.readouterr()
        other = write_quick(tmp_path, name="other.cfg", synth_classes=classes)
        code = main(["eval", "--checkpoint", str(out / "model.ckpt"), "--config", str(other)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert (f"emsoftmax: error: checkpoint scores 5 classes, dataset has {classes}"
                in captured.err)

    def test_top5_only_above_five_classes(self, tmp_path, capsys):
        cfg_path = write_quick(tmp_path, synth_classes="5")
        out = tmp_path / "run"
        main(["train", "--config", str(cfg_path), "--out", str(out)])
        train_acc = capsys.readouterr().out.strip().split()[-1]
        assert main(["eval", "--checkpoint", str(out / "model.ckpt")]) == 0
        assert capsys.readouterr().out == f"top1 accuracy: {train_acc}\n"

    def test_data_key_changes_warn(self, tmp_path, capsys):
        cfg_path = write_quick(tmp_path)
        out = tmp_path / "run"
        main(["train", "--config", str(cfg_path), "--out", str(out)])
        capsys.readouterr()
        ckpt = str(out / "model.ckpt")
        # the training config names the same data: no warning
        assert main(["eval", "--checkpoint", ckpt, "--config", str(cfg_path)]) == 0
        assert capsys.readouterr().err == ""
        other = write_quick(tmp_path, name="other.cfg", synth_noise=2.0, seed=5, base_lr=0.5)
        assert main(["eval", "--checkpoint", ckpt, "--config", str(other)]) == 0
        err = capsys.readouterr().err
        assert "emsoftmax: warning: --config reads other data than" in err
        assert "synth_noise 1.0 -> 2.0" in err and "seed 4 -> 5" in err
        assert "base_lr" not in err

    def test_dim_mismatch_exits_one(self, tmp_path, capsys):
        cfg_path = write_quick(tmp_path)
        out = tmp_path / "run"
        main(["train", "--config", str(cfg_path), "--out", str(out)])
        capsys.readouterr()
        other = write_quick(tmp_path, name="other.cfg", synth_dim=9)
        assert main(["eval", "--checkpoint", str(out / "model.ckpt"), "--config", str(other)]) == 1
        assert "dim" in capsys.readouterr().err

    def test_without_config_uses_resolved_cfg(self, tmp_path, capsys):
        cfg_path = write_quick(tmp_path)
        out = tmp_path / "run"
        main(["train", "--config", str(cfg_path), "--out", str(out)])
        train_acc = capsys.readouterr().out.strip().split()[-1]
        assert main(["eval", "--checkpoint", str(out / "model.ckpt")]) == 0
        assert f"top1 accuracy: {train_acc}" in capsys.readouterr().out

    def test_without_any_config_exits_one(self, tmp_path, capsys):
        cfg_path = write_quick(tmp_path)
        out = tmp_path / "run"
        main(["train", "--config", str(cfg_path), "--out", str(out)])
        capsys.readouterr()
        (out / "resolved.cfg").unlink()
        assert main(["eval", "--checkpoint", str(out / "model.ckpt")]) == 1
        assert "--config" in capsys.readouterr().err

    def test_inconsistent_checkpoint_exits_one(self, tmp_path, capsys):
        cfg_path = write_quick(tmp_path)
        out = tmp_path / "run"
        net = MlpFeatureExtractor([8, 12, 8], Rng(1))
        net.weights[0] = np.zeros((8, 11))
        out.mkdir()
        save_checkpoint(out / "model.ckpt", net, WeakClassifierBank(8, 4, 2, Rng(2)))
        code = main(["eval", "--checkpoint", str(out / "model.ckpt"), "--config", str(cfg_path)])
        assert code == 1
        assert "w0" in capsys.readouterr().err

    def test_non_finite_checkpoint_exits_one_naming_the_array(self, tmp_path, capsys):
        cfg_path = write_quick(tmp_path, synth_classes="3")
        out = tmp_path / "run"
        main(["train", "--config", str(cfg_path), "--out", str(out)])
        capsys.readouterr()
        net, bank = load_checkpoint(out / "model.ckpt")
        bank.heads[0, 0, 0] = np.nan
        save_checkpoint(out / "model.ckpt", net, bank)
        assert main(["eval", "--checkpoint", str(out / "model.ckpt")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("emsoftmax: error: cannot load checkpoint")
        assert err[0].endswith("head 0 has non-finite values")

    def test_stored_mean_reapplied(self, tmp_path, capsys):
        cfg_path = write_quick(tmp_path, mean_subtract="true")
        out = tmp_path / "run"
        main(["train", "--config", str(cfg_path), "--out", str(out)])
        train_acc = capsys.readouterr().out.strip().split()[-1]
        assert (out / "mean.bin").exists()
        assert main(["eval", "--checkpoint", str(out / "model.ckpt")]) == 0
        assert f"top1 accuracy: {train_acc}" in capsys.readouterr().out

    def test_stored_mean_dim_mismatch_exits_one(self, tmp_path, capsys):
        cfg_path = write_quick(tmp_path, mean_subtract="true")
        out = tmp_path / "run"
        main(["train", "--config", str(cfg_path), "--out", str(out)])
        capsys.readouterr()
        save_mean(out / "mean.bin", np.zeros(7))
        assert main(["eval", "--checkpoint", str(out / "model.ckpt")]) == 1
        assert "mean" in capsys.readouterr().err

    def test_non_finite_stored_mean_exits_one_naming_it(self, tmp_path, capsys):
        cfg_path = write_quick(tmp_path, mean_subtract="true")
        out = tmp_path / "run"
        main(["train", "--config", str(cfg_path), "--out", str(out)])
        capsys.readouterr()
        save_mean(out / "mean.bin", np.full(8, np.nan))
        assert main(["eval", "--checkpoint", str(out / "model.ckpt")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("emsoftmax: error:")
        assert "mean.bin: mean has non-finite values" in err[0]

    def test_recomputed_mean_scores_as_the_stored_one(self, tmp_path, capsys):
        data_dir = tmp_path / "idx"
        data_dir.mkdir()
        write_idx_split(data_dir, "train", 120, 8, seed=1)
        write_idx_split(data_dir, "t10k", 40, 8, seed=2)
        cfg_path = write_quick(tmp_path, dataset="mnist", mnist_dir=data_dir, mean_subtract="true")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        train_acc = capsys.readouterr().out.strip().split()[-1]
        (out / "mean.bin").unlink()
        assert main(["eval", "--checkpoint", str(out / "model.ckpt")]) == 0
        assert f"top1 accuracy: {train_acc}" in capsys.readouterr().out

    def test_stored_mean_needs_no_training_files(self, tmp_path, capsys):
        data_dir = tmp_path / "idx"
        data_dir.mkdir()
        write_idx_split(data_dir, "train", 120, 8, seed=1)
        write_idx_split(data_dir, "t10k", 40, 8, seed=2)
        cfg_path = write_quick(tmp_path, dataset="mnist", mnist_dir=data_dir, mean_subtract="true")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        train_acc = capsys.readouterr().out.strip().split()[-1]
        for name in ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"):
            (data_dir / name).unlink()
        assert main(["eval", "--checkpoint", str(out / "model.ckpt")]) == 0
        assert f"top1 accuracy: {train_acc}" in capsys.readouterr().out
        # without the stored mean, eval recomputes it from the training split
        (out / "mean.bin").unlink()
        assert main(["eval", "--checkpoint", str(out / "model.ckpt")]) == 1
        assert "train-images" in capsys.readouterr().err

    def test_recomputed_mean_checks_the_dims_of_both_splits(self, tmp_path, capsys):
        data_dir = tmp_path / "idx"
        data_dir.mkdir()
        write_idx_split(data_dir, "train", 120, 8, seed=1)
        write_idx_split(data_dir, "t10k", 40, 8, seed=2)
        cfg_path = write_quick(tmp_path, dataset="mnist", mnist_dir=data_dir, mean_subtract="true")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()
        write_idx_split(data_dir, "t10k", 40, 9, seed=2)
        (out / "mean.bin").unlink()
        assert main(["eval", "--checkpoint", str(out / "model.ckpt")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        assert "train images have dim 64 but eval images have dim 81" in err[0]

    def test_missing_checkpoint_exits_one(self, tmp_path, capsys):
        cfg_path = write_quick(tmp_path)
        assert main(["eval", "--checkpoint", str(tmp_path / "no.ckpt"), "--config", str(cfg_path)]) == 1


class FailingStdout(io.StringIO):
    """A stdout whose ``fail_on`` method ("write" or "flush") raises ``error``."""

    def __init__(self, fail_on, error):
        super().__init__()
        self.fail_on, self.error = fail_on, error

    def write(self, text):
        if self.fail_on == "write":
            raise self.error
        return super().write(text)

    def flush(self):
        if self.fail_on == "flush":
            raise self.error
        super().flush()


class TestClosedStdout:
    def eval_into(self, tmp_path, capsys, monkeypatch, stdout):
        cfg_path = write_quick(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(sys, "stdout", stdout)
        return main(["eval", "--checkpoint", str(out / "model.ckpt")])

    @pytest.mark.parametrize("fail_on", ["write", "flush"])
    def test_exits_141_writing_nothing(self, tmp_path, capsys, monkeypatch, fail_on):
        stdout = FailingStdout(fail_on, BrokenPipeError(32, "Broken pipe"))
        assert self.eval_into(tmp_path, capsys, monkeypatch, stdout) == 141
        assert capsys.readouterr().err == ""

    def test_other_os_errors_exit_one_with_one_line(self, tmp_path, capsys, monkeypatch):
        stdout = FailingStdout("write", OSError(5, "Input/output error"))
        assert self.eval_into(tmp_path, capsys, monkeypatch, stdout) == 1
        assert capsys.readouterr().err == "emsoftmax: error: [Errno 5] Input/output error\n"

    # unbuffered, the first write fails; buffered, the output waits in
    # stdout's buffer and the pipe fails at a flush. argparse prints --help
    # and exits inside parse_args, before the command runs.
    @pytest.mark.parametrize("unbuffered", ["1", None])
    def test_pipe_without_reader_exits_141_silently(self, unbuffered):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        for argv in (["gradcheck", "--instances", "1"], ["sweep", "--help"]):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "emsoftmax.cli", *argv],
                    stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
                )
            finally:
                os.close(write_end)
            assert (argv, proc.returncode, proc.stderr) == (argv, 141, b"")


def train_on_damaged_images(tmp_path, name, blob, count=20):
    """A train command on IDX files whose training images are ``blob``,
    beside ``count`` training labels."""
    write_idx_split(tmp_path, "train", count, 6, seed=1)
    write_idx_split(tmp_path, "t10k", 10, 6, seed=2)
    (tmp_path / "train-images-idx3-ubyte").unlink()
    (tmp_path / name).write_bytes(blob)
    cfg_path = write_quick(tmp_path, dataset="mnist", mnist_dir=str(tmp_path))
    return ["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")], tmp_path / name


def gzipped_images(damage):
    blob = gzip.compress(struct.pack(">IIII", 0x803, 20, 6, 6) + bytes(20 * 36))
    if damage == "truncated":
        return blob[: len(blob) // 2]
    # flip the CRC-32 in the trailer
    return blob[:-8] + bytes(b ^ 0xFF for b in blob[-8:-4]) + blob[-4:]


def eval_with_damaged_checkpoint(tmp_path, damage):
    """An eval command on a CRC-valid checkpoint whose bytes before the CRC
    are ``damage`` applied to an intact checkpoint's."""
    ckpt = untrained_checkpoint(tmp_path)
    body = damage(ckpt.read_bytes()[:-4])
    ckpt.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    return ["eval", "--checkpoint", str(ckpt), "--config", str(write_quick(tmp_path))], ckpt


def eval_without_config(tmp_path, resolved_text):
    """An eval command without --config next to the given resolved.cfg bytes."""
    ckpt = untrained_checkpoint(tmp_path)
    resolved = ckpt.with_name("resolved.cfg")
    resolved.write_bytes(resolved_text)
    return ["eval", "--checkpoint", str(ckpt)], resolved


def train_with_config_bytes(tmp_path, blob):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_bytes(blob)
    return ["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")], cfg_path


UNREADABLE_INPUTS = {
    "zero image count": lambda tmp: train_on_damaged_images(
        tmp, "train-images-idx3-ubyte", struct.pack(">IIII", 0x803, 0, 28, 28), count=0),
    "zero image width": lambda tmp: train_on_damaged_images(
        tmp, "train-images-idx3-ubyte", struct.pack(">IIII", 0x803, 5, 0, 28), count=5),
    "truncated gzip": lambda tmp: train_on_damaged_images(
        tmp, "train-images-idx3-ubyte.gz", gzipped_images("truncated")),
    "corrupt gzip": lambda tmp: train_on_damaged_images(
        tmp, "train-images-idx3-ubyte.gz", gzipped_images("bad crc")),
    "non-UTF-8 --config": lambda tmp: train_with_config_bytes(tmp, b"seed = 3\n\xff\n"),
    "non-UTF-8 resolved.cfg": lambda tmp: eval_without_config(tmp, b"\xff\n"),
    "unknown key in resolved.cfg": lambda tmp: eval_without_config(tmp, b"bogus = 1\n"),
    "unknown key in --config": lambda tmp: train_with_config_bytes(tmp, b"bogus = 1\n"),
    "3 bytes after the bank": lambda tmp: eval_with_damaged_checkpoint(
        tmp, lambda body: body + b"\x00\x01\x02"),
    "array after the bank": lambda tmp: eval_with_damaged_checkpoint(
        tmp, lambda body: body + struct.pack("<II", 1, 1) + bytes(8)),
    # a 2^20 x 2^20 layer would need 8 TiB: the arrays are read before the net is built
    "huge layer dims, no payload": lambda tmp: eval_with_damaged_checkpoint(
        tmp, lambda _: b"EMSM" + struct.pack("<IIII", 1, 2, 2**20, 2**20)),
}


class TestUnreadableInput:
    """Damaged input files end in one error line naming the file, and exit 1.

    ``main`` is called in-process: an escaping exception would also exit 1
    from a shell, so only its return value tells a traceback from a clean
    error.
    """

    @pytest.mark.parametrize("case", UNREADABLE_INPUTS)
    def test_returns_one_naming_the_file(self, tmp_path, capsys, case):
        argv, culprit = UNREADABLE_INPUTS[case](tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("emsoftmax: error:") and line.count(str(culprit)) == 1
        assert not (tmp_path / "run" / "report.csv").exists()

    def test_config_error_names_its_file_then_the_line(self, tmp_path, capsys):
        argv, resolved = eval_without_config(tmp_path, b"seed = 1\nbogus = 1\n")
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"emsoftmax: error: {resolved}: line 2: unknown key 'bogus'\n")

    def test_unreadable_resolved_cfg_only_warns_beside_config(self, tmp_path, capsys):
        argv, resolved = eval_without_config(tmp_path, b"\xff\n")
        assert main([*argv, "--config", str(write_quick(tmp_path))]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("top1 accuracy: ")
        (line,) = captured.err.splitlines()
        assert line.startswith(f"emsoftmax: warning: cannot compare --config with {resolved}: ")
        assert line.count(str(resolved)) == 1

    @pytest.mark.parametrize("damage, reason", [
        ("unknown key", "line 1: unknown key 'bogus'"),
        ("directory", "cannot read: Is a directory"),
    ])
    def test_invalid_resolved_cfg_warns_naming_it_once(self, tmp_path, capsys, damage, reason):
        argv, resolved = eval_without_config(tmp_path, b"bogus = 1\n")
        if damage == "directory":
            resolved.unlink()
            resolved.mkdir()
        assert main([*argv, "--config", str(write_quick(tmp_path))]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("top1 accuracy: ")
        assert captured.err == (
            f"emsoftmax: warning: cannot compare --config with {resolved}: {reason}\n")


class TestGradcheckCommand:
    def test_passes_and_prints_grid(self, capsys):
        assert main(["gradcheck", "--instances", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("[ok]") == 13  # 12 grid cells + overall line
        assert "FAIL" not in out

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_non_positive_instances_exit_one(self, capsys, count):
        assert main(["gradcheck", "--instances", count]) == 1
        captured = capsys.readouterr()
        assert "--instances must be at least 1" in captured.err
        assert "[ok]" not in captured.out

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1"])
    def test_unusable_tolerance_exits_one(self, capsys, tolerance):
        # inf would pass a corrupted gradient, nan would fail a correct one
        assert main(["gradcheck", "--instances", "1", "--tolerance", tolerance]) == 1
        captured = capsys.readouterr()
        assert "emsoftmax: error: --tolerance must be finite and positive" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("instances", [0, -2, 1.5])
    def test_grid_rejects_instances_below_one(self, instances):
        # zero instances would print twelve [ok] cells without a check
        lines = []
        with pytest.raises(ValueError, match="^instances must be"):
            cli.run_gradcheck_grid(0, instances, printer=lines.append)
        assert lines == []

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), 0.0, -1.0])
    def test_grid_rejects_unusable_tolerance(self, tolerance):
        # inf would pass a corrupted gradient
        lines = []
        with pytest.raises(ValueError, match="^tolerance must be finite and positive"):
            cli.run_gradcheck_grid(0, 1, tolerance=tolerance, corrupt_block="head0",
                                   printer=lines.append)
        assert lines == []

    def test_nan_errors_fail_every_cell_and_the_grid(self, capsys, monkeypatch):
        monkeypatch.setattr(trainer, "em_softmax_forward", nan_variant_totals(trainer))
        lines = []
        ok, worst = cli.run_gradcheck_grid(0, 1, printer=lines.append)
        assert ok is False and math.isnan(worst)
        assert len(lines) == 13 and all(line.endswith("[FAIL]") for line in lines), lines
        assert main(["gradcheck", "--instances", "1"]) == 2

    def test_corrupted_gradient_detected(self, capsys):
        assert main(["gradcheck", "--instances", "1", "--corrupt", "head0"]) == 2
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("block", ["head1", "bogus"])
    def test_corrupt_block_missing_from_a_cell_exits_one(self, capsys, block):
        # the V = 1 cells have only head0
        assert main(["gradcheck", "--instances", "1", "--corrupt", block]) == 1
        captured = capsys.readouterr()
        assert "error: --corrupt must name a block every grid cell has (head0)" in captured.err
        assert captured.out == ""


class TestSweepCommand:
    def run_sweep(self, tmp_path, param, values, seeds="4,5"):
        cfg_path = write_quick(tmp_path, max_iters="80")
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep", "--config", str(cfg_path), "--out", str(out),
                "--sweep-param", param, "--sweep-values", values,
                "--sweep-seeds", seeds,
            ]
        )
        return code, out

    def test_csv_layout(self, tmp_path, capsys):
        code, out = self.run_sweep(tmp_path, "lambda", "0,0.1")
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "value,seed,accuracy,div_term"
        # 2 values x (2 seeds + 1 mean row)
        assert len(lines) == 1 + 2 * 3
        assert lines[3].startswith("0,mean,")
        assert (out / "lambda_0.1" / "seed_5" / "model.ckpt").exists()

    def test_single_head_row_matches_direct_run(self, tmp_path, capsys):
        code, out = self.run_sweep(tmp_path, "v", "1", seeds="4")
        assert code == 0
        row = (out / "sweep.csv").read_text().strip().split("\n")[1]
        sweep_acc = row.split(",")[2]

        cfg_path = write_quick(tmp_path, max_iters="80", heads="1", seed="4")
        direct_out = tmp_path / "direct"
        capsys.readouterr()
        main(["train", "--config", str(cfg_path), "--out", str(direct_out)])
        direct_acc = capsys.readouterr().out.strip().split()[-1]
        assert sweep_acc == direct_acc

    def test_zero_margin_row_matches_plain_softmax_run(self, tmp_path, capsys):
        cfg_path = write_quick(tmp_path, max_iters="80", heads="1", **{"lambda": "0.0"})
        out = tmp_path / "msweep"
        assert main(
            [
                "sweep", "--config", str(cfg_path), "--out", str(out),
                "--sweep-param", "m", "--sweep-values", "0", "--sweep-seeds", "4",
            ]
        ) == 0
        row = (out / "sweep.csv").read_text().strip().split("\n")[1]
        sweep_acc = row.split(",")[2]

        plain = write_quick(tmp_path, max_iters="80", heads="1", margin="0.0",
                            seed="4", **{"lambda": "0.0"})
        capsys.readouterr()
        main(["train", "--config", str(plain), "--out", str(tmp_path / "plain")])
        assert sweep_acc == capsys.readouterr().out.strip().split()[-1]

    def test_mean_rows_add_in_plain_order(self, tmp_path, monkeypatch, capsys):
        # a compensated sum (the builtin sum from Python 3.12) gives 1.0
        values = iter([1e16, 1.0, -1e16])

        def fake_run(cfg, quiet=False):
            value = next(values)
            return {"accuracy": value, "diversity": value, "diverged": False}

        monkeypatch.setattr(cli, "run_training", fake_run)
        code, out = self.run_sweep(tmp_path, "lambda", "0", seeds="1,2,3")
        assert code == 0
        assert (out / "sweep.csv").read_text().strip().split("\n")[-1] == "0,mean,0.000000,0"

    def test_final_diversity_adds_heads_in_plain_order(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "diversity_terms", lambda bank: np.array([1e16, 1.0, -1e16]))
        cfg = parse_config_text(write_quick(tmp_path, heads=3, max_iters=2).read_text())
        result = run_training(replace(cfg, out_dir=str(tmp_path / "run")), quiet=True)
        assert result["diversity"] == 0.0

    def test_diverging_cells_exit_two_and_keep_every_row(self, tmp_path, capsys):
        cfg_path = write_quick(tmp_path, base_lr="10000.0", log_every="1")
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--config", str(cfg_path), "--out", str(out),
            "--sweep-param", "lambda", "--sweep-values", "0,0.1", "--sweep-seeds", "4,5",
        ]) == 2
        assert "at least one sweep cell diverged" in capsys.readouterr().err
        rows = [line.split(",")[:2] for line in (out / "sweep.csv").read_text().splitlines()]
        assert rows == [["value", "seed"], ["0", "4"], ["0", "5"], ["0", "mean"],
                        ["0.1", "4"], ["0.1", "5"], ["0.1", "mean"]]

    def test_bad_sweep_values_exit_one(self, tmp_path, capsys):
        code, _ = self.run_sweep(tmp_path, "lambda", "0,huh")
        assert code == 1

    @pytest.mark.parametrize("seeds, message", [(",", "sweep needs at least one seed"),
                                                ("4,x", "bad sweep seed")])
    def test_bad_sweep_seeds_exit_one(self, tmp_path, capsys, seeds, message):
        code, out = self.run_sweep(tmp_path, "lambda", "0", seeds=seeds)
        assert code == 1
        assert f"emsoftmax: error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("param, values, seeds, message", [
        ("v", "1,1", "4", "sweep value '1' repeats '1'"),
        ("m", "0.5,0.50", "4", "sweep value '0.50' repeats '0.5'"),
        ("lambda", "0", "4,5,4", "sweep seed '4' repeats '4'"),
    ])
    def test_repeated_cells_exit_one_before_training(self, tmp_path, capsys, monkeypatch,
                                                     param, values, seeds, message):
        def fail(cfg, quiet=False):
            raise AssertionError("a sweep cell trained")

        monkeypatch.setattr(cli, "run_training", fail)
        code, out = self.run_sweep(tmp_path, param, values, seeds=seeds)
        assert code == 1
        assert f"emsoftmax: error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_sweep_param_exits_one(self, tmp_path):
        cfg_path = write_quick(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "sweep", "--config", str(cfg_path), "--out", str(tmp_path / "s"),
                    "--sweep-param", "momentum", "--sweep-values", "0.9",
                ]
            )
        assert exc.value.code == 1
