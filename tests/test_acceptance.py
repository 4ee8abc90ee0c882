"""End-to-end behavioral guarantees of the toolkit, one test per claim.

The data-hungry checks run on deterministic synthetic surrogates so the
suite is self-contained; the MNIST variants activate when the IDX files
are available (point MNIST_DIR at a directory holding the four standard
files, gzipped or raw).
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import hsic_empirical, ref_margin_softmax, ref_softmax_loss
from emsoftmax.cli import main, run_gradcheck_grid
from emsoftmax.data import SyntheticSpec, load_idx_pair, synth_blobs
from emsoftmax.losses import (
    LossConfig,
    diversity_penalty,
    em_softmax_backward,
    em_softmax_forward,
    normalize_classifier,
)
from emsoftmax.model import MlpFeatureExtractor, WeakClassifierBank
from emsoftmax import trainer
from emsoftmax.tensor import Rng
from emsoftmax.trainer import SgdConfig, count_hits, train

MNIST_DIR = os.environ.get("MNIST_DIR", "")

# ---------------------------------------------------------------------------
# surrogate problems (frozen; every run is bit-deterministic)
# ---------------------------------------------------------------------------

# heavily overlapping blobs: hard enough that margin and ensemble
# effects are visible above the ~65% accuracy floor
HARD = dict(classes=10, dim=20, noise=1.8, train_per=150, eval_per=200)
# well-separated blobs: the high-accuracy smoke analog
EASY = dict(classes=10, dim=20, noise=0.8, train_per=150, eval_per=200)

TUNED_MARGIN = 0.5  # best of {0.1, 0.5, 1, 5, 10} on the hard surrogate
SEEDS = (1, 2, 3)


def split_blobs(classes, train_per, eval_per, dim, noise, seed):
    per = train_per + eval_per
    full = synth_blobs(SyntheticSpec(classes, per, dim, noise, seed))
    train_idx, eval_idx = [], []
    for c in range(classes):
        base = c * per
        train_idx.extend(range(base, base + train_per))
        eval_idx.extend(range(base + train_per, base + per))
    return full.take(train_idx), full.take(eval_idx)


def train_cell(surrogate, margin, diversity_weight, heads, seed, max_iters=800):
    train_ds, eval_ds = split_blobs(
        surrogate["classes"], surrogate["train_per"], surrogate["eval_per"],
        surrogate["dim"], surrogate["noise"], seed,
    )
    root = Rng(seed)
    net = MlpFeatureExtractor([surrogate["dim"], 32, 24], root.spawn(11))
    bank = WeakClassifierBank(24, surrogate["classes"], heads, root.spawn(13))
    report = train(
        net, bank, train_ds,
        LossConfig(margin, diversity_weight, heads),
        SgdConfig(max_iters=max_iters, batch_size=128, lr_drop_iters=(500, 700)),
        seed=seed, eval_dataset=eval_ds, log_every=10**9, eval_every=10**9,
    )
    assert not report.diverged
    return report.final_eval_accuracy


@pytest.fixture(scope="module")
def family_accuracies():
    """Mean eval accuracy per loss-family configuration on the hard blobs."""
    cells = {
        "plain": (0.0, 0.0, 1),
        "margin": (TUNED_MARGIN, 0.0, 1),
        "ensemble": (0.0, 0.1, 2),
        "margin_ensemble": (TUNED_MARGIN, 0.1, 2),
        "lam0": (TUNED_MARGIN, 0.0, 2),
        "lam001": (TUNED_MARGIN, 0.01, 2),
        "lam1": (TUNED_MARGIN, 1.0, 2),
        "six_heads": (TUNED_MARGIN, 0.1, 6),
    }
    accuracies = {
        name: float(np.mean([train_cell(HARD, m, lam, v, s) for s in SEEDS]))
        for name, (m, lam, v) in cells.items()
    }
    # one head (m = 0.5, lambda = 0.1) trains bit for bit as "margin", at
    # lambda = 0: a single head has no diversity term
    # (test_trainer.py::TestTrain::test_single_head_ignores_the_diversity_weight)
    accuracies["one_head"] = accuracies["margin"]
    return accuracies


@pytest.fixture(scope="module")
def mnist():
    if not MNIST_DIR:
        pytest.skip("MNIST IDX files unavailable here; set MNIST_DIR to enable")
    base = Path(MNIST_DIR)

    def find(stem):
        for name in (stem, stem + ".gz"):
            if (base / name).exists():
                return base / name
        pytest.skip(f"missing {stem}[.gz] under MNIST_DIR")

    train_ds = load_idx_pair(
        find("train-images-idx3-ubyte"), find("train-labels-idx1-ubyte"), 10
    )
    test_ds = load_idx_pair(
        find("t10k-images-idx3-ubyte"), find("t10k-labels-idx1-ubyte"), 10
    )
    return train_ds, test_ds


# ---------------------------------------------------------------------------
# gradient certification
# ---------------------------------------------------------------------------


def test_gradient_certification_grid():
    # every parameter block across margins {0, 1}, diversity weights
    # {0, 0.1}, head counts {1, 2, 3}: 100 random small problems per
    # cell, max relative error against central differences <= 1e-5
    t0 = time.perf_counter()
    ok, worst = run_gradcheck_grid(
        seed=0, instances=100, tolerance=1e-5, printer=lambda *_: None
    )
    elapsed = time.perf_counter() - t0
    print(f"max relative error {worst:.3e} (tolerance 1e-5) in {elapsed:.1f}s")
    assert ok and worst <= 1e-5
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# reduction identities
# ---------------------------------------------------------------------------


def test_single_head_marginless_loss_matches_plain_softmax_reference():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(2, 9))
        k = int(rng.integers(2, 7))
        x = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0)
        w = rng.normal(size=(d, k))
        y = rng.integers(0, k, size=n)
        cfg = LossConfig(0.0, 0.0, 1)
        fwd = em_softmax_forward(x, [w], y, cfg)
        grads, gx = em_softmax_backward(fwd)
        ref_loss, ref_gw, ref_gx = ref_softmax_loss(x, w, y)
        worst = max(
            worst,
            abs(fwd.total_loss - ref_loss),
            float(np.max(np.abs(grads[0] - ref_gw))),
            float(np.max(np.abs(gx - ref_gx))),
        )
    print(f"max deviation from reference {worst:.3e} (tolerance 1e-12)")
    assert worst <= 1e-12


def test_marginless_path_is_bitwise_identical_to_ensemble_softmax():
    # with margin 0 the combined loss must equal the plain ensemble
    # composition (per-head softmax cross-entropy plus weighted
    # diversity) with no floating-point daylight at all
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        d = int(rng.integers(2, 7))
        k = int(rng.integers(2, 6))
        v = int(rng.integers(2, 4))
        lam = float(rng.uniform(0.01, 2.0))
        x = rng.normal(size=(n, d))
        bank = [rng.normal(size=(d, k)) for _ in range(v)]
        y = rng.integers(0, k, size=n)

        cls = 0.0
        for w in bank:
            cls += float(np.mean(ref_margin_softmax(x @ w, y, 0.0)[0]))
        div = sum(diversity_penalty(bank, u) for u in range(v))
        expected = cls + lam * div

        out = em_softmax_forward(x, bank, y, LossConfig(0.0, lam, v))
        assert out.total_loss == expected
        assert out.classification_term == cls
        assert out.diversity_term == div


# ---------------------------------------------------------------------------
# diversity penalty algebra
# ---------------------------------------------------------------------------


def test_diversity_penalty_equals_scaled_pairwise_hsic():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(300):
        d = int(rng.integers(2, 9))
        k = int(rng.integers(2, 7))
        bank = [rng.normal(size=(d, k)) * rng.uniform(0.1, 5.0) for _ in range(2)]

        grams = [(lambda w: w.T @ w)(normalize_classifier(h)) for h in bank]
        expected = (k - 1) ** 2 * hsic_empirical(grams[0], grams[1])
        got = diversity_penalty(bank, 0)
        worst = max(worst, abs(got - expected))
        assert abs(got - expected) <= 1e-10

        assert got >= 0.0
        scaled = [bank[0] * float(rng.uniform(0.01, 100.0)), bank[1]]
        assert diversity_penalty(scaled, 0) == pytest.approx(got, rel=1e-10)
    print(f"max trace-identity deviation {worst:.3e} (tolerance 1e-10)")


# ---------------------------------------------------------------------------
# training accuracy floors
# ---------------------------------------------------------------------------


def test_baseline_reaches_high_accuracy_on_separable_surrogate():
    acc = train_cell(EASY, 0.0, 0.0, 1, seed=1, max_iters=600)
    print(f"baseline surrogate accuracy {acc:.4f} (floor 0.97)")
    assert acc >= 0.97


def test_baseline_reaches_target_accuracy_on_mnist(mnist):
    train_ds, test_ds = mnist
    root = Rng(0)
    net = MlpFeatureExtractor([784, 256, 128], root.spawn(11))
    bank = WeakClassifierBank(128, 10, 1, root.spawn(13))
    report = train(
        net, bank, train_ds, LossConfig(0.0, 0.0, 1), SgdConfig(),
        seed=0, eval_dataset=test_ds, log_every=1000, eval_every=5000,
    )
    print(f"mnist baseline accuracy {report.final_eval_accuracy:.4f} (floor 0.97)")
    assert not report.diverged
    assert report.final_eval_accuracy >= 0.97


# ---------------------------------------------------------------------------
# loss-family ordering and sensitivity
# ---------------------------------------------------------------------------

SLACK = 0.001  # one tenth of a percentage point


def test_margin_and_ensemble_never_hurt_and_combine_best(family_accuracies):
    acc = family_accuracies
    print(
        "plain={plain:.4f} margin={margin:.4f} ensemble={ensemble:.4f} "
        "combined={margin_ensemble:.4f}".format(**acc)
    )
    assert acc["margin_ensemble"] >= acc["margin"] - SLACK
    assert acc["margin"] >= acc["plain"] - SLACK
    assert acc["margin_ensemble"] >= acc["ensemble"] - SLACK
    assert acc["ensemble"] >= acc["plain"] - SLACK


def test_accuracy_is_insensitive_to_diversity_weight_order_of_magnitude(family_accuracies):
    acc = family_accuracies
    print(
        "lam=0:{lam0:.4f} lam=0.01:{lam001:.4f} lam=0.1:{margin_ensemble:.4f} "
        "lam=1:{lam1:.4f}".format(**acc)
    )
    for key in ("lam001", "margin_ensemble", "lam1"):
        assert acc[key] >= acc["lam0"] - SLACK


def test_second_head_helps_then_returns_diminish(family_accuracies):
    acc = family_accuracies
    gain_1_to_2 = acc["margin_ensemble"] - acc["one_head"]
    gain_2_to_6 = acc["six_heads"] - acc["margin_ensemble"]
    print(
        f"one_head={acc['one_head']:.4f} two_heads={acc['margin_ensemble']:.4f} "
        f"six_heads={acc['six_heads']:.4f}"
    )
    assert acc["margin_ensemble"] >= acc["one_head"] - 0.0005
    assert gain_2_to_6 < gain_1_to_2


# ---------------------------------------------------------------------------
# ensemble assembly
# ---------------------------------------------------------------------------


def assert_single_head_assembly_is_exact(ds, monkeypatch):
    bank = WeakClassifierBank(ds.dim, ds.num_classes, 1, Rng(3))
    x = ds.rows(slice(None))
    direct = np.argmax(x @ bank.heads[0], axis=1)
    assembled = np.argmax(x @ bank.assemble(), axis=1)
    assert np.array_equal(assembled, direct)
    monkeypatch.setattr(trainer, "_EVAL_CHUNK", 97)
    assert count_hits(None, bank, ds)[0] == int(np.sum(direct == ds.labels))


def test_single_head_ensemble_prediction_equals_direct_argmax(monkeypatch):
    _, eval_ds = split_blobs(seed=5, **HARD)
    assert_single_head_assembly_is_exact(eval_ds, monkeypatch)


def test_single_head_ensemble_prediction_equals_direct_argmax_on_mnist(mnist, monkeypatch):
    assert_single_head_assembly_is_exact(mnist[1], monkeypatch)


# ---------------------------------------------------------------------------
# reproducibility of command outputs
# ---------------------------------------------------------------------------

RERUN_CFG = """
dataset = synthetic
synth_classes = 5
synth_samples = 40
synth_eval_samples = 20
synth_dim = 10
hidden_dims = 16
feature_dim = 12
heads = 2
lambda = 0.1
margin = 0.5
base_lr = 0.05
max_iters = 150
batch_size = 40
lr_drop_iters = 100
seed = 6
log_every = 50
eval_every = 50
"""


def test_training_report_is_byte_identical_across_reruns(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RERUN_CFG)
    for name in ("a", "b"):
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
    a = (tmp_path / "a" / "report.csv").read_bytes()
    b = (tmp_path / "b" / "report.csv").read_bytes()
    assert a == b
    ca = (tmp_path / "a" / "model.ckpt").read_bytes()
    cb = (tmp_path / "b" / "model.ckpt").read_bytes()
    assert ca == cb


def test_sweep_table_is_byte_identical_across_reruns(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RERUN_CFG.replace("max_iters = 150", "max_iters = 80"))
    for name in ("a", "b"):
        assert main(
            [
                "sweep", "--config", str(cfg), "--out", str(tmp_path / name),
                "--sweep-param", "lambda", "--sweep-values", "0,0.1",
                "--sweep-seeds", "6,7",
            ]
        ) == 0
    a = (tmp_path / "a" / "sweep.csv").read_bytes()
    b = (tmp_path / "b" / "sweep.csv").read_bytes()
    assert a == b
