import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    nan_variant_totals,
    ref_bank_differences,
    ref_em_softmax_backward,
    ref_loss_totals,
    ref_mlp_backward,
    ref_sgd_step,
)
from emsoftmax.cli import RunConfig, run_training
from emsoftmax.data import Dataset, SyntheticSpec, minibatch_stream, synth_blobs
from emsoftmax.losses import LossConfig, em_softmax_backward, em_softmax_forward
from emsoftmax import cli, trainer
from emsoftmax.model import (
    MlpFeatureExtractor,
    WeakClassifierBank,
    load_checkpoint,
    save_checkpoint,
)
from emsoftmax.tensor import Rng
from emsoftmax.trainer import (
    DivergenceError,
    SgdConfig,
    TrainReport,
    count_hits,
    evaluate,
    grad_check,
    learning_rate,
    sgd_step,
    train,
)


def blob_dataset(seed=3, classes=4, per=60, dim=8, noise=1.0):
    return synth_blobs(SyntheticSpec(classes, per, dim, noise, seed))


def fresh_model(dataset, heads=1, hidden=(16,), feat=12, seed=5):
    root = Rng(seed)
    net = MlpFeatureExtractor([dataset.dim, *hidden, feat], root.spawn(11))
    bank = WeakClassifierBank(feat, dataset.num_classes, heads, root.spawn(13))
    return net, bank


class TestSgdConfig:
    def test_defaults_are_the_standard_protocol(self):
        cfg = SgdConfig()
        assert cfg.base_lr == 0.1
        assert cfg.momentum == 0.9
        assert cfg.weight_decay == 0.0005
        assert cfg.lr_drop_iters == (8000, 14000)
        assert cfg.max_iters == 20000

    def test_validation(self):
        with pytest.raises(ValueError):
            SgdConfig(base_lr=0.0)
        with pytest.raises(ValueError):
            SgdConfig(momentum=1.0)
        with pytest.raises(ValueError):
            SgdConfig(weight_decay=-1e-4)
        with pytest.raises(ValueError):
            SgdConfig(lr_drop_iters=(100, 100))
        with pytest.raises(ValueError):
            SgdConfig(lr_drop_iters=(200, 100))
        with pytest.raises(ValueError):
            SgdConfig(batch_size=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["base_lr", "weight_decay", "lr_drop_factor"])
    def test_non_finite_values_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SgdConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [("max_iters", 2.5), ("batch_size", 2.5),
                                             ("max_iters", 3.0), ("batch_size", True)])
    def test_non_integer_counts_rejected(self, name, value):
        # 2.5 steps made train die with a raw TypeError
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
            SgdConfig(**{name: value})

    @pytest.mark.parametrize("drops", [(1.5,), (100, 200.0), (True,)])
    def test_non_integer_drop_iterations_rejected(self, drops):
        # (1.5,) was truncated to (1,)
        with pytest.raises(ValueError, match=r"^every lr_drop_iters entry must be an integer"):
            SgdConfig(lr_drop_iters=drops)

    def test_numpy_integers_accepted(self):
        cfg = SgdConfig(lr_drop_iters=(np.int64(3), np.int32(7)), max_iters=np.int64(9),
                        batch_size=np.uint8(4))
        assert cfg.lr_drop_iters == (3, 7) and all(type(i) is int for i in cfg.lr_drop_iters)
        assert (cfg.max_iters, cfg.batch_size) == (9, 4)


class TestLearningRate:
    def test_step_schedule(self):
        cfg = SgdConfig()
        assert learning_rate(cfg, 0) == 0.1
        assert learning_rate(cfg, 7999) == 0.1
        assert learning_rate(cfg, 8000) == pytest.approx(0.01)
        assert learning_rate(cfg, 13999) == pytest.approx(0.01)
        assert learning_rate(cfg, 14000) == pytest.approx(0.001)
        assert learning_rate(cfg, 19999) == pytest.approx(0.001)

    def test_custom_factor(self):
        cfg = SgdConfig(base_lr=1.0, lr_drop_iters=(10,), lr_drop_factor=0.5)
        assert learning_rate(cfg, 9) == 1.0
        assert learning_rate(cfg, 10) == 0.5

    def test_negative_iteration(self):
        with pytest.raises(ValueError):
            learning_rate(SgdConfig(), -1)


class TestSgdStep:
    def test_two_steps_match_hand_computation(self):
        cfg = SgdConfig(base_lr=0.1, momentum=0.9, weight_decay=0.01)
        p = np.array([[1.0, 2.0]])
        vel = np.zeros_like(p)
        g = np.array([[0.5, -1.0]])

        ref_p, ref_v = p.copy(), np.zeros_like(p)
        for _ in range(2):
            ref_v = 0.9 * ref_v - 0.1 * (g + 0.01 * ref_p)
            ref_p = ref_p + ref_v

        for _ in range(2):
            sgd_step([p], [g], [vel], [True], 0.1, cfg)
        np.testing.assert_allclose(p, ref_p, atol=1e-15)
        np.testing.assert_allclose(vel, ref_v, atol=1e-15)

    def test_weight_decay_skipped_for_unflagged_params(self):
        cfg = SgdConfig(weight_decay=0.5, momentum=0.0)
        p = np.array([[2.0]])
        sgd_step([p], [np.array([[0.0]])], [np.zeros((1, 1))], [False], 0.1, cfg)
        assert p[0, 0] == 2.0  # zero grad, no decay => unchanged

    def test_non_finite_gradient_raises(self):
        cfg = SgdConfig()
        with pytest.raises(DivergenceError):
            sgd_step(
                [np.zeros((1, 1))],
                [np.array([[np.nan]])],
                [np.zeros((1, 1))],
                [True],
                0.1,
                cfg,
            )

    def test_bank_block_equals_per_head_blocks_bitwise(self):
        # the bank is updated as one (V, d, K) block; the update is
        # elementwise, so it must equal V separate (d, K) blocks exactly
        cfg = SgdConfig(momentum=0.9, weight_decay=0.01)
        rng = np.random.default_rng(4)
        bank = rng.normal(size=(6, 5, 3))
        heads = [w.copy() for w in bank]
        vel = np.zeros_like(bank)
        head_vels = [np.zeros_like(w) for w in heads]
        for lr in (0.1, 0.1, 0.01):
            grads = rng.normal(size=bank.shape)
            sgd_step([bank], [grads], [vel], [True], lr, cfg)
            sgd_step(heads, list(grads), head_vels, [True] * 6, lr, cfg)
        assert (bank == np.stack(heads)).all()
        assert (vel == np.stack(head_vels)).all()

    def test_shape_mismatch(self):
        cfg = SgdConfig()
        with pytest.raises(ValueError):
            sgd_step([np.zeros((2, 2))], [np.zeros((2, 1))], [np.zeros((2, 2))], [True], 0.1, cfg)

    def test_non_finite_later_block_leaves_every_block_unchanged(self):
        # the check covers every block before the first update, so a
        # diverged step cannot leave the earlier blocks half-stepped
        cfg = SgdConfig(momentum=0.9, weight_decay=0.01)
        rng = np.random.default_rng(6)
        params = [rng.normal(size=(4, 3)), rng.normal(size=(1, 3)), rng.normal(size=(2, 3, 5))]
        velocities = [rng.normal(size=p.shape) for p in params]
        grads = [rng.normal(size=p.shape) for p in params]
        grads[-1][1, 2, 0] = np.nan
        before = [a.copy() for a in params + velocities]
        with pytest.raises(DivergenceError):
            sgd_step(params, grads, velocities, [True, False, True], 0.1, cfg)
        for a, b in zip(before, params + velocities):
            assert a.tobytes() == b.tobytes()

    def test_matches_reference_bitwise(self):
        # several steps over decayed and undecayed blocks across two lr drops
        cfg = SgdConfig(base_lr=0.1, momentum=0.9, weight_decay=0.0005, lr_drop_iters=(3, 5))
        rng = np.random.default_rng(8)
        shapes = [(13, 7), (7, 5), (1, 7), (1, 5), (3, 5, 4)]
        flags = [True, True, False, False, True]
        params = [rng.normal(size=s) for s in shapes]
        ref_params = [p.copy() for p in params]
        vels = [np.zeros(s) for s in shapes]
        ref_vels = [np.zeros(s) for s in shapes]
        for it in range(8):
            lr = learning_rate(cfg, it)
            grads = [rng.normal(scale=10.0 ** rng.integers(-6, 3), size=s) for s in shapes]
            sgd_step(params, grads, vels, flags, lr, cfg)
            ref_sgd_step(ref_params, grads, ref_vels, flags, lr, cfg)
            for a, b in zip(params + vels, ref_params + ref_vels):
                assert (a == b).all()


class TestTrain:
    def test_loss_decreases_and_eval_reported(self):
        ds = blob_dataset()
        net, bank = fresh_model(ds)
        rep = train(
            net, bank, ds, LossConfig(0.0, 0.0, 1),
            SgdConfig(max_iters=300, batch_size=32, lr_drop_iters=(200,)),
            seed=1, eval_dataset=ds, log_every=1, eval_every=100,
        )
        assert not rep.diverged
        late = np.mean([r[2] for r in rep.rows[-10:]])
        assert rep.rows[0][2] > 2 * late
        assert rep.final_eval_accuracy > 0.8
        assert rep.wall_seconds > 0

    def test_fully_deterministic(self):
        ds = blob_dataset()
        outs = []
        for _ in range(2):
            net, bank = fresh_model(ds, heads=2)
            rep = train(
                net, bank, ds, LossConfig(0.5, 0.1, 2),
                SgdConfig(max_iters=120, batch_size=32, lr_drop_iters=(80,)),
                seed=9, eval_dataset=ds, log_every=40, eval_every=40,
            )
            outs.append((rep.rows, [w.copy() for w in bank.heads]))
        assert outs[0][0] == outs[1][0] or all(
            a[:7] == b[:7] for a, b in zip(outs[0][0], outs[1][0])
        )  # rows identical except wall-clock column
        for wa, wb in zip(outs[0][1], outs[1][1]):
            np.testing.assert_array_equal(wa, wb)

    def test_single_head_ignores_the_diversity_weight(self):
        # one head has no diversity term, so lambda changes no bit of a run
        ds = blob_dataset()
        runs = []
        for lam in (0.0, 0.1):
            net, bank = fresh_model(ds)
            rep = train(
                net, bank, ds, LossConfig(0.5, lam, 1),
                SgdConfig(max_iters=120, batch_size=32, lr_drop_iters=(80,)),
                seed=9, eval_dataset=ds, log_every=20, eval_every=40,
            )
            # every row but its wall-clock column; NaN where no eval ran
            rows = np.array([row[:7] for row in rep.rows])
            runs.append([rows, *net.weights, *net.biases, bank.heads])
        assert len(runs[0][0]) == 6
        for a, b in zip(*runs):
            assert a.shape == b.shape and (a.view(np.uint64) == b.view(np.uint64)).all()

    def test_divergence_flagged_not_raised(self):
        ds = blob_dataset()
        net, bank = fresh_model(ds)
        rep = train(
            net, bank, ds, LossConfig(0.0, 0.0, 1),
            SgdConfig(base_lr=1e4, max_iters=200, batch_size=32),
            seed=2,
        )
        assert rep.diverged

    def test_loss_above_the_ceiling_diverges(self):
        # every row's loss is about the margin, above the 1e6 ceiling; a
        # 1e-30 probability floor once capped it at 69.08
        ds = blob_dataset()
        net, bank = fresh_model(ds)
        heads = bank.heads.copy()
        rep = train(net, bank, ds, LossConfig(2e6, 0.0, 1), SgdConfig(max_iters=5, batch_size=32),
                    seed=2)
        assert rep.diverged and rep.rows == []
        np.testing.assert_array_equal(bank.heads, heads)

    def test_eval_every_off_the_log_rows_raises_before_the_first_step(self, monkeypatch):
        # evaluations run on log rows: every 5 with a row every 3 would
        # evaluate at 15 and 20 only
        ds = blob_dataset()
        net, bank = fresh_model(ds)

        def step(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(trainer, "_gradients", step)
        with pytest.raises(ValueError,
                           match=r"^eval_every \(5\) must be a multiple of log_every \(3\)$"):
            train(net, bank, ds, LossConfig(0.0, 0.0, 1), SgdConfig(max_iters=20, batch_size=32),
                  seed=1, eval_dataset=ds, log_every=3, eval_every=5)

    @pytest.mark.parametrize("name", ["log_every", "eval_every"])
    def test_interval_below_one_raises_before_the_first_step(self, monkeypatch, name):
        ds = blob_dataset()
        net, bank = fresh_model(ds)

        def step(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(trainer, "_gradients", step)
        with pytest.raises(ValueError, match=f"^{name} must be at least 1, got 0$"):
            train(net, bank, ds, LossConfig(0.0, 0.0, 1), SgdConfig(max_iters=5, batch_size=32),
                  seed=1, eval_dataset=ds, **{name: 0})

    @pytest.mark.parametrize("value", [1.5, True])
    @pytest.mark.parametrize("name", ["log_every", "eval_every"])
    def test_non_integer_interval_raises_before_the_first_step(self, monkeypatch, name, value):
        # log_every = 1.5 with eval_every = 3 logged at iterations 3 and 6
        ds = blob_dataset()
        net, bank = fresh_model(ds)

        def step(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(trainer, "_gradients", step)
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
            train(net, bank, ds, LossConfig(0.0, 0.0, 1), SgdConfig(max_iters=5, batch_size=32),
                  seed=1, eval_dataset=ds, **{name: value})

    def test_train_acc_scores_the_model_that_produced_the_loss(self, monkeypatch):
        ds = blob_dataset()
        net, bank = fresh_model(ds, heads=2)
        snapshots = []
        gradients = trainer._gradients

        def recording(net, heads, x, y, cfg, **kwargs):
            fwd, feats, grads = gradients(net, heads, x, y, cfg, **kwargs)
            snapshots.append((feats, heads.copy(), y))
            return fwd, feats, grads

        monkeypatch.setattr(trainer, "_gradients", recording)
        rep = train(
            net, bank, ds, LossConfig(0.5, 0.1, 2),
            SgdConfig(max_iters=30, batch_size=32), seed=4, log_every=1,
        )
        assert len(rep.rows) == len(snapshots) == 30
        for row, (feats, heads, y) in zip(rep.rows, snapshots):
            # the assembled classifier, which eval scores
            scores = feats @ heads.mean(axis=0)
            assert row[5] == float(np.mean(np.argmax(scores, axis=1) == y))

    def test_mismatched_heads_rejected(self):
        ds = blob_dataset()
        net, bank = fresh_model(ds, heads=2)
        with pytest.raises(ValueError, match="heads"):
            train(net, bank, ds, LossConfig(0, 0, 1), SgdConfig(max_iters=1), seed=0)

    def test_mismatched_dims_rejected(self):
        ds = blob_dataset(dim=8)
        net = MlpFeatureExtractor([9, 4], Rng(0))
        bank = WeakClassifierBank(4, ds.num_classes, 1, Rng(1))
        with pytest.raises(ValueError):
            train(net, bank, ds, LossConfig(0, 0, 1), SgdConfig(max_iters=1), seed=0)

    def test_network_bank_mismatch_rejected_before_any_update(self):
        ds = blob_dataset(dim=8)
        net = MlpFeatureExtractor([8, 5], Rng(0))
        bank = WeakClassifierBank(4, ds.num_classes, 1, Rng(1))
        before = [p.copy() for _, p, _ in trainer._parameters(net, bank)]
        with pytest.raises(ValueError):
            train(net, bank, ds, LossConfig(0, 0, 1), SgdConfig(max_iters=1), seed=0)
        after = [p for _, p, _ in trainer._parameters(net, bank)]
        assert [a.tobytes() for a in before] == [a.tobytes() for a in after]

    def test_bank_only_training_without_network(self):
        ds = blob_dataset(noise=0.6)
        bank = WeakClassifierBank(ds.dim, ds.num_classes, 1, Rng(4))
        rep = train(
            None, bank, ds, LossConfig(0.0, 0.0, 1),
            SgdConfig(max_iters=200, batch_size=32, lr_drop_iters=(150,)),
            seed=3, eval_dataset=ds,
        )
        assert rep.final_eval_accuracy > 0.9

    def test_checkpoint_matches_per_head_reference_backward(self, tmp_path, monkeypatch):
        # the README configuration with six heads, 200 steps: the stacked
        # backward and the per-head reference must give the same bytes
        cfg = RunConfig(
            synth_classes=10, synth_samples=150, synth_eval_samples=200, synth_dim=20,
            synth_noise=1.8, hidden_dims=(32,), feature_dim=24, margin=0.5,
            diversity_weight=0.1, heads=6, lr_drop_iters=(500, 700), max_iters=200,
            batch_size=128, seed=1,
        )
        blobs = []
        for name in ("stacked", "reference"):
            if name == "reference":
                # the reference backward takes the inputs of the step's forward
                inputs = []
                forward = trainer.em_softmax_forward

                def recording_forward(x_batch, bank, labels, cfg, variants=None):
                    assert variants is None
                    inputs[:] = [x_batch, bank, labels, cfg]
                    return forward(x_batch, bank, labels, cfg)

                monkeypatch.setattr(trainer, "em_softmax_forward", recording_forward)
                monkeypatch.setattr(
                    trainer, "em_softmax_backward",
                    lambda fwd: ref_em_softmax_backward(*inputs, fwd),
                )
            run_training(replace(cfg, out_dir=str(tmp_path / name)), quiet=True)
            blobs.append((tmp_path / name / "model.ckpt").read_bytes())
        assert blobs[0] == blobs[1]


class TestSharedStep:
    @pytest.mark.parametrize("with_net", [True, False])
    def test_one_gradient_per_parameter_block(self, with_net):
        ds = blob_dataset(per=4, dim=5)
        net, bank = fresh_model(ds, heads=3, hidden=(4,), feat=3)
        if not with_net:
            net, bank = None, WeakClassifierBank(ds.dim, ds.num_classes, 3, Rng(2))
        blocks = trainer._parameters(net, bank)
        _, _, grads = trainer._gradients(
            net, bank.heads, ds.features[:6], ds.labels[:6], LossConfig(0.5, 0.1, 3)
        )
        expected = [("w0", True), ("b0", False), ("w1", True), ("b1", False)] if with_net else []
        assert [(name, decayed) for name, _, decayed in blocks] == expected + [("bank", True)]
        assert blocks[-1][1] is bank.heads
        assert [g.shape for g in grads] == [p.shape for _, p, _ in blocks]


def model_arrays(net, bank):
    """Every array of the model: the network's weights and biases, then the bank."""
    return ([] if net is None else [*net.weights, *net.biases]) + [bank.heads]


def ref_train(net, bank, dataset, loss_cfg, sgd_cfg, seed):
    """The SGD loop block by block: each of the model's arrays updated on
    its own by ``ref_sgd_step``, the network's gradients taken by
    ``ref_mlp_backward``, the batches drawn as ``train`` draws them."""
    batches = minibatch_stream(len(dataset), min(sgd_cfg.batch_size, len(dataset)),
                               Rng(seed).spawn(7))
    _, params, flags = zip(*trainer._parameters(net, bank))
    velocities = [np.zeros_like(p) for p in params]
    for it in range(sgd_cfg.max_iters):
        idx = next(batches)
        x, y = dataset.rows(idx), dataset.labels[idx]
        feats, cache = (x, None) if net is None else net.forward(x)
        grads_bank, grads_feats = em_softmax_backward(
            em_softmax_forward(feats, bank.heads, y, loss_cfg))
        grads = [] if net is None else [
            g for layer in ref_mlp_backward(net, cache, grads_feats)[0] for g in layer]
        ref_sgd_step(params, grads + [grads_bank], velocities, flags,
                     learning_rate(sgd_cfg, it), sgd_cfg)


class TestFlatParameters:
    """``train`` moves the model into one buffer and steps it in two groups;
    every bit must be that of updating each array on its own."""

    @pytest.mark.parametrize("with_net", [True, False], ids=["v6-net", "bank-only"])
    def test_train_matches_the_per_block_reference(self, with_net):
        ds = blob_dataset(per=40)
        loss_cfg = LossConfig(0.5, 0.1, 6)
        sgd_cfg = SgdConfig(max_iters=25, batch_size=32, lr_drop_iters=(10,))
        models = []
        for _ in range(2):
            net, bank = fresh_model(ds, heads=6)
            if not with_net:
                net, bank = None, WeakClassifierBank(ds.dim, ds.num_classes, 6, Rng(2))
            models.append((net, bank))
        (net, bank), (ref_net, ref_bank) = models
        # a second call on the same model packs its views into a new buffer
        for seed in (1, 2):
            rep = train(net, bank, ds, loss_cfg, sgd_cfg, seed=seed)
            ref_train(ref_net, ref_bank, ds, loss_cfg, sgd_cfg, seed)
            assert not rep.diverged
            got, want = model_arrays(net, bank), model_arrays(ref_net, ref_bank)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.shape == b.shape and (a == b).all()

    def test_model_arrays_stay_contiguous_and_round_trip(self, tmp_path):
        ds = blob_dataset()
        net, bank = fresh_model(ds, heads=6, hidden=(16, 9))
        shapes = [a.shape for a in model_arrays(net, bank)]
        train(net, bank, ds, LossConfig(0.5, 0.1, 6), SgdConfig(max_iters=5, batch_size=32),
              seed=1)
        arrays = model_arrays(net, bank)
        assert [a.shape for a in arrays] == shapes
        for a in arrays:
            assert a.dtype == np.float64 and a.flags.c_contiguous
        # every array is a view of one buffer
        assert len({id(a.base) for a in arrays}) == 1 and arrays[0].base is not None
        save_checkpoint(tmp_path / "model.ckpt", net, bank)
        loaded = model_arrays(*load_checkpoint(tmp_path / "model.ckpt"))
        for a, b in zip(arrays, loaded):
            assert a.shape == b.shape and (a == b).all()

    def test_buffer_holds_decayed_blocks_then_biases(self):
        ds = blob_dataset()
        net, bank = fresh_model(ds, heads=2, hidden=(5, 4), feat=3)
        before = [p.copy() for _, p, _ in trainer._parameters(net, bank)]
        groups, grad_views = trainer._flat_buffer(net, bank)
        blocks = trainer._parameters(net, bank)
        for (_, p, _), b, g in zip(blocks, before, grad_views):
            assert (p == b).all() and g.shape == p.shape
        (decayed, _, flag), (biases, _, no_flag) = groups
        assert flag and not no_flag
        order = ["w0", "w1", "w2", "bank", "b0", "b1", "b2"]
        by_name = {name: p for name, p, _ in blocks}
        assert np.array_equal(np.concatenate([decayed, biases]),
                              np.concatenate([by_name[name].ravel() for name in order]))
        assert np.shares_memory(decayed, bank.heads) and np.shares_memory(biases, net.biases[0])

    def test_non_finite_bias_gradient_leaves_both_groups_unchanged(self):
        ds = blob_dataset()
        net, bank = fresh_model(ds, heads=3)
        groups, grad_views = trainer._flat_buffer(net, bank)
        params, grads, flags = zip(*groups)
        rng = np.random.default_rng(7)
        velocities = [rng.normal(size=p.shape) for p in params]
        for g in grads:
            g[...] = rng.normal(size=g.shape)
        grad_views[1][0, 2] = np.nan  # b0
        before = [a.copy() for a in params + tuple(velocities)]
        with pytest.raises(DivergenceError):
            sgd_step(params, grads, velocities, flags, 0.1, SgdConfig())
        for a, b in zip(before, params + tuple(velocities)):
            assert a.tobytes() == b.tobytes()

    def test_non_finite_bias_gradient_in_train_keeps_the_last_step(self, monkeypatch):
        ds = blob_dataset()
        loss_cfg, sgd_cfg = LossConfig(0.5, 0.1, 2), SgdConfig(max_iters=4, batch_size=32)
        net, bank = fresh_model(ds, heads=2)
        ref_net, ref_bank = fresh_model(ds, heads=2)
        gradients = trainer._gradients
        steps = []

        def poisoned(*args, **kwargs):
            fwd, feats, grads = gradients(*args, **kwargs)
            steps.append(None)
            if len(steps) == 4:
                grads[1][0, 0] = np.inf  # b0
            return fwd, feats, grads

        monkeypatch.setattr(trainer, "_gradients", poisoned)
        assert train(net, bank, ds, loss_cfg, sgd_cfg, seed=3).diverged
        monkeypatch.undo()
        train(ref_net, ref_bank, ds, loss_cfg, replace(sgd_cfg, max_iters=3), seed=3)
        for a, b in zip(model_arrays(net, bank), model_arrays(ref_net, ref_bank)):
            assert a.tobytes() == b.tobytes()


class TestBankOnlyStep:
    """Without a network the step's bank gradient has the bits of
    :func:`em_softmax_backward` on the bank scored alone, with or without
    variants in its forward."""

    @pytest.mark.parametrize("v", [1, 2, 3, 6])
    @pytest.mark.parametrize("exact", [False, True])
    def test_bank_gradient_has_the_backwards_bits(self, v, exact):
        rng = np.random.default_rng(50 + v)
        x, y = rng.normal(size=(5, 4)), rng.integers(0, 3, size=5)
        heads, variants = rng.normal(size=(v, 4, 3)), rng.normal(size=(v, 2, 4, 3))
        cfg = LossConfig(0.5, 0.1, v, exact)
        want = em_softmax_backward(em_softmax_forward(x, heads, y, cfg))[0]
        for extra in (None, variants):
            fwd, feats, grads = trainer._gradients(None, heads, x, y, cfg, variants=extra)
            assert feats is x and len(grads) == 1
            assert np.array_equal(grads[0].view(np.uint64), want.view(np.uint64))


class TestFinalEvaluation:
    def test_completed_run_evaluates_once_per_eval_row(self, tmp_path, monkeypatch):
        calls = []
        original = trainer.evaluate

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(trainer, "evaluate", counted)
        monkeypatch.setattr(cli, "evaluate", counted)
        cfg = RunConfig(
            synth_classes=4, synth_samples=30, synth_eval_samples=15, synth_dim=8,
            hidden_dims=(12,), feature_dim=8, heads=2, diversity_weight=0.1, margin=0.5,
            base_lr=0.05, max_iters=120, batch_size=30, lr_drop_iters=(80,), seed=4,
            log_every=10, eval_every=50, out_dir=str(tmp_path),
        )
        result = run_training(cfg, quiet=True)
        rows = result["report"].rows
        # eval rows at iterations 50, 100 and the last, 120
        assert [r[0] for r in rows if not np.isnan(r[6])] == [50, 100, 120]
        assert len(calls) == 3
        assert result["accuracy"] == rows[-1][6]

    def test_diverged_run_reports_the_kept_model(self):
        ds = blob_dataset()
        net, bank = fresh_model(ds)
        rep = train(
            net, bank, ds, LossConfig(0.0, 0.0, 1),
            SgdConfig(base_lr=1e4, max_iters=200, batch_size=32),
            seed=2, eval_dataset=ds,
        )
        assert rep.diverged
        assert np.isfinite(rep.final_eval_accuracy)
        assert rep.final_eval_accuracy == evaluate(net, bank, ds)

    @pytest.mark.parametrize("trip", ["loss_ceiling", "non_finite_gradient"])
    def test_divergence_keeps_the_state_from_before_the_step(self, monkeypatch, trip):
        if trip == "loss_ceiling":
            monkeypatch.setattr(trainer, "_LOSS_CEILING", 0.0)
        else:
            backward = trainer.em_softmax_backward

            def nan_feature_gradient(fwd):
                grads_bank, grads_feats = backward(fwd)
                return grads_bank, grads_feats * np.nan

            monkeypatch.setattr(trainer, "em_softmax_backward", nan_feature_gradient)
        ds = blob_dataset()
        net, bank = fresh_model(ds, heads=2)
        before = [p.copy() for _, p, _ in trainer._parameters(net, bank)]
        rep = train(
            net, bank, ds, LossConfig(0.5, 0.1, 2), SgdConfig(max_iters=5, batch_size=32),
            seed=1, eval_dataset=ds,
        )
        assert rep.diverged and rep.rows == []
        after = [p for _, p, _ in trainer._parameters(net, bank)]
        assert [a.tobytes() for a in before] == [a.tobytes() for a in after]
        assert rep.final_eval_accuracy == evaluate(net, bank, ds)


class TestTrainReportCsv:
    def test_header_and_zero_timing_column(self):
        rep = TrainReport(rows=[(100, 0.1, 1.5, 1.2, 3.0, 0.75, float("nan"), 2.34)])
        text = rep.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "iter,lr,total_loss,cls_term,div_term,train_acc,eval_acc,seconds"
        assert lines[1].endswith(",0.000")
        assert lines[1].split(",")[6] == ""  # NaN eval -> empty field

    def test_timing_opt_in(self):
        rep = TrainReport(rows=[(100, 0.1, 1.5, 1.2, 3.0, 0.75, 0.5, 2.34)])
        assert rep.to_csv(include_timing=True).strip().split("\n")[1].endswith(",2.340")

    def test_deterministic_rendering(self):
        rows = [(i, 0.1, 1.0 / (i + 1), 0.9, 0.1, 0.5, float("nan"), i * 0.1) for i in range(5)]
        a = TrainReport(rows=list(rows)).to_csv()
        b = TrainReport(rows=list(rows)).to_csv()
        assert a == b


class TestEvaluate:
    def test_known_accuracy(self):
        feats = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        ds = Dataset(feats, np.array([0, 1, 1]), 2)
        bank = WeakClassifierBank(2, 2, 1, Rng(0))
        bank.heads = np.eye(2)[None]
        assert evaluate(None, bank, ds) == pytest.approx(2.0 / 3.0)

    def test_chunking_matches_single_shot(self, monkeypatch):
        ds = blob_dataset(per=100)
        bank = WeakClassifierBank(ds.dim, ds.num_classes, 2, Rng(7))
        monkeypatch.setattr(trainer, "_EVAL_CHUNK", 7)
        chunked = evaluate(None, bank, ds)
        monkeypatch.setattr(trainer, "_EVAL_CHUNK", 10**6)
        assert chunked == evaluate(None, bank, ds)

    def test_hit_counts(self, monkeypatch):
        # scores [[1, 2, 0]]: label 1 is top-1, label 0 second, label 2 third
        ds = Dataset(np.array([[1.0, 2.0, 0.0]] * 3), np.array([1, 0, 2]), 3)
        bank = WeakClassifierBank(3, 3, 1, Rng(0))
        bank.heads = np.eye(3)[None]
        assert count_hits(None, bank, ds) == (1, None)
        monkeypatch.setattr(trainer, "_EVAL_CHUNK", 2)
        assert count_hits(None, bank, ds, top5=True) == (1, 3)

    def test_more_classes_than_the_bank_scores_raise(self):
        # label 2 could never be the argmax of two scores
        ds = Dataset(np.eye(3), np.array([0, 1, 2]), 3)
        bank = WeakClassifierBank(3, 2, 1, Rng(0))
        bank.heads = np.eye(3)[None, :, :2]
        for score in (count_hits, evaluate):
            with pytest.raises(ValueError, match="dataset has 3 classes, the bank scores 2"):
                score(None, bank, ds)
        # fewer classes than the bank scores are fine: scores [1, 0], [0, 1], [0, 0]
        assert count_hits(None, bank, Dataset(np.eye(3), np.array([0, 0, 0]), 1)) == (2, None)


class TestGradCheck:
    def test_passes_on_random_models(self):
        ds = blob_dataset(per=4, dim=5)
        net, bank = fresh_model(ds, heads=2, hidden=(4,), feat=3)
        res = grad_check(
            net, bank, ds.features[:3], ds.labels[:3],
            LossConfig(0.5, 0.1, 2),
        )
        assert res["max_error"] <= 1e-5, res
        assert set(res["block_errors"]) == {"w0", "b0", "w1", "b1", "head0", "head1"}

    @pytest.mark.parametrize("margin", [80.0, 200.0])
    def test_large_margin_loss_agrees_with_its_gradient(self, margin):
        # a loss taken through a 1e-30 probability floor stuck at 69.08
        # from m = 70 on, while its gradient p - onehot did not
        ds = blob_dataset(classes=3, per=2, dim=4)
        bank = WeakClassifierBank(4, 3, 1, Rng(4))
        res = grad_check(None, bank, ds.features[[0, 3]], ds.labels[[0, 3]],
                         LossConfig(margin, 0.0, 1))
        assert res["max_error"] <= 1e-5, res

    def test_corrupted_network_block_detected(self):
        ds = blob_dataset(per=4, dim=5)
        net, bank = fresh_model(ds, heads=2, hidden=(4,), feat=3)
        res = grad_check(
            net, bank, ds.features[:3], ds.labels[:3],
            LossConfig(0.5, 0.1, 2), corrupt_block="w1",
        )
        errors = res["block_errors"]
        assert errors["w1"] > 1e-3
        assert all(error <= 1e-5 for name, error in errors.items() if name != "w1"), errors

    def test_corrupted_block_detected(self):
        ds = blob_dataset(per=3, dim=4)
        bank = WeakClassifierBank(ds.dim, ds.num_classes, 2, Rng(2))
        res = grad_check(
            None, bank, ds.features[:2], ds.labels[:2],
            LossConfig(0.0, 0.1, 2), corrupt_block="head1",
        )
        assert not res["max_error"] <= 1e-5
        assert res["block_errors"]["head1"] > 1e-3

    @pytest.mark.parametrize("corrupt", [None, "head1"])
    def test_bank_errors_equal_the_per_block_formula(self, corrupt):
        # the bank's errors are formed in one pass; each head's must keep
        # the bits of the formula applied to that head's block alone
        ds = blob_dataset(per=3, dim=4)
        bank = WeakClassifierBank(ds.dim, ds.num_classes, 3, Rng(4))
        x, y = ds.features[:3], ds.labels[:3]
        cfg = LossConfig(0.5, 0.1, 3)
        res = grad_check(None, bank, x, y, cfg, corrupt_block=corrupt)
        check_cfg = replace(cfg, exact_diversity_grad=True)
        grads, numeric = trainer._differenced_step(None, bank.heads, x, y, check_cfg)
        analytic = grads[-1]
        expected = {}
        for v in range(3):
            a = analytic[v] + 1e-2 if f"head{v}" == corrupt else analytic[v]
            denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric[v])), 1e-3)
            expected[f"head{v}"] = float(np.max(np.abs(a - numeric[v]) / denom))
        assert res["block_errors"] == expected
        assert (res["max_error"] <= 1e-5) == (corrupt is None)

    @staticmethod
    def wide_bank_check(monkeypatch, **kwargs):
        # 2 heads of 50 x 10: 1000 perturbed copies of each head, whose
        # banks gather 1000 values each, so at about 1e6 values per chunk
        # the variants need at least two forwards
        calls = []
        forward = trainer.em_softmax_forward

        def counted(x, heads, labels, cfg, variants=None):
            if variants is not None:
                calls.append(variants.shape[:2])
            return forward(x, heads, labels, cfg, variants)

        monkeypatch.setattr(trainer, "em_softmax_forward", counted)
        rng = Rng(21)
        bank = WeakClassifierBank(50, 10, 2, rng.spawn(1))
        x = rng.spawn(2).normal((3, 50))
        res = grad_check(None, bank, x, [0, 4, 9], LossConfig(1.0, 0.1, 2), **kwargs)
        assert len(calls) >= 2 and all(heads == 2 for heads, _ in calls)
        assert sum(per_head for _, per_head in calls) == 2 * 50 * 10
        return res

    def test_bank_spanning_several_chunks_passes(self, monkeypatch):
        res = self.wide_bank_check(monkeypatch)
        assert res["max_error"] <= 1e-5, res

    def test_corruption_detected_across_chunks(self, monkeypatch):
        res = self.wide_bank_check(monkeypatch, corrupt_block="head1")
        assert not res["max_error"] <= 1e-5
        assert res["block_errors"]["head1"] > 1e-3
        assert res["block_errors"]["head0"] <= 1e-5

    def test_zero_column_bank_warns(self):
        ds = blob_dataset(per=3, dim=4)
        bank = WeakClassifierBank(ds.dim, ds.num_classes, 2, Rng(3))
        bank.heads[0][:, 1] = 0.0
        with pytest.warns(RuntimeWarning, match="zero column"):
            grad_check(None, bank, ds.features[:2], ds.labels[:2], LossConfig(0.0, 0.1, 2))

    def test_nan_differences_fail(self, monkeypatch):
        # the network blocks come first and are finite; a NaN in a later
        # block must still fail the check
        monkeypatch.setattr(trainer, "em_softmax_forward", nan_variant_totals(trainer))
        ds = blob_dataset(per=4, dim=5)
        net, bank = fresh_model(ds, heads=2, hidden=(4,), feat=3)
        res = grad_check(net, bank, ds.features[:3], ds.labels[:3], LossConfig(0.5, 0.1, 2))
        assert np.isnan(res["block_errors"]["head0"])
        assert not res["max_error"] <= 1e-5

    @pytest.mark.parametrize("labels", [[0.9, 1.9], np.array([1, 0], dtype=bool)],
                             ids=["fractions", "bool"])
    def test_non_integer_labels_rejected(self, labels):
        # cast to int64, [0.9, 1.9] would be checked as the labels [0, 1]
        ds = blob_dataset(per=3, dim=4)
        bank = WeakClassifierBank(ds.dim, ds.num_classes, 2, Rng(2))
        with pytest.raises(ValueError, match="labels must be integers"):
            grad_check(None, bank, ds.features[:2], labels, LossConfig(0.0, 0.1, 2))

    def test_unknown_corrupt_block_rejected(self, monkeypatch):
        # the name is checked before the step, so a misspelt block runs no forward
        calls = []
        forward = trainer.em_softmax_forward

        def counted(*args):
            calls.append(1)
            return forward(*args)

        monkeypatch.setattr(trainer, "em_softmax_forward", counted)
        ds = blob_dataset(per=3, dim=4)
        bank = WeakClassifierBank(ds.dim, ds.num_classes, 1, Rng(2))
        with pytest.raises(ValueError, match="unknown block"):
            grad_check(
                None, bank, ds.features[:2], ds.labels[:2],
                LossConfig(0, 0, 1), corrupt_block="nope",
            )
        assert calls == []


class TestBankDifferences:
    """Every head's perturbed copies, built by one ``np.repeat`` and two
    strided writes per chunk and scored as variants of the live bank in
    the step's own forward, keep every bit of the earlier fancy-indexed
    stack."""

    @staticmethod
    def per_bank(v, d, k, n):
        # the values per variant bank that the chunk size counts
        return k * max(v * (v - 1) * k, v * d, n)

    @pytest.mark.parametrize("v", [1, 2, 3])
    @pytest.mark.parametrize("banks_per_chunk", [2, 3, 4, None],
                             ids=["2 banks", "3 banks", "4 banks", "whole stack"])
    def test_bits_match_the_earlier_stack(self, monkeypatch, v, banks_per_chunk):
        # a budget of 3 perturbed banks per head rounds down to one pair
        rng = Rng(30 + v)
        d, k, n = 4, 3, 2
        bank = WeakClassifierBank(d, k, v, rng.spawn(1))
        x = rng.spawn(2).normal((n, d))
        y = np.array([2, 0])
        cfg = LossConfig(0.5, 0.1, v, exact_diversity_grad=True)
        per_bank = self.per_bank(v, d, k, n)
        # the live bank counts as v rows
        budget = 10**6 if banks_per_chunk is None else v * (banks_per_chunk + 1) * per_bank
        monkeypatch.setattr(trainer, "_FD_CHUNK_VALUES", budget)
        calls = []
        forward = trainer.em_softmax_forward

        def counted(x, heads, labels, cfg, variants=None):
            calls.append(None if variants is None else variants.shape[:2])
            return forward(x, heads, labels, cfg, variants)

        monkeypatch.setattr(trainer, "em_softmax_forward", counted)
        grads, got = trainer._differenced_step(None, bank.heads, x, y, cfg)
        want = ref_bank_differences(x, bank.heads, y, cfg, budget)
        assert got.shape == want.shape == bank.heads.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        # every call scores variants of every head, in whole pairs
        assert None not in calls and all(heads == v for heads, _ in calls)
        per_head = [m for _, m in calls]
        assert sum(per_head) == 2 * d * k and all(m % 2 == 0 for m in per_head)
        if banks_per_chunk is None:
            assert per_head == [2 * d * k]
        else:
            assert per_head[0] == 2 * (banks_per_chunk // 2)
        # the live bank's gradients are those of the single-bank step
        want_grads = trainer._gradients(None, bank.heads, x, y, cfg)[2]
        assert np.array_equal(grads[-1].view(np.uint64), want_grads[-1].view(np.uint64))

    @pytest.mark.parametrize("v", [1, 2, 3, 6])
    @pytest.mark.parametrize("zero_column", [False, True], ids=["", "zero column"])
    def test_variant_totals_match_the_banks_built_whole(self, v, zero_column):
        # chunks of 5, 2 and 5 pairs: boundaries inside every head's entries
        rng = Rng(40 + v)
        d, k, n = 3, 4, 2
        bank = WeakClassifierBank(d, k, v, rng.spawn(1)).heads
        if zero_column:
            bank[v - 1][:, 2] = 0.0
        x = rng.spawn(2).normal((n, d))
        y = np.array([3, 1])
        cfg = LossConfig(0.5, 0.1, v, exact_diversity_grad=True)
        for start, stop in ((0, 5), (5, 7), (7, d * k)):
            variants = trainer._perturbed_heads(bank, start, stop)
            assert variants.shape == (v, 2 * (stop - start), d, k)
            whole = []
            for head in range(v):
                for j in range(start, stop):
                    for raised in (True, False):
                        banked = bank.copy()
                        flat = banked[head].reshape(-1)
                        orig = flat[j]
                        flat[j] = orig + trainer._FD_STEP if raised else orig - trainer._FD_STEP
                        whole.append(banked)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                got = em_softmax_forward(x, bank, y, cfg, variants).totals
                want = ref_loss_totals(x, np.array(whole), y, cfg)
            assert np.array_equal(got.ravel().view(np.uint64), want.view(np.uint64))

    def test_surrogate_sized_bank_stays_within_the_chunk_budget(self, monkeypatch):
        # the surrogate's bank, V=6 of 24 x 10: every forward's largest
        # temporary, read off its shapes, holds at most _FD_CHUNK_VALUES
        v, d, k, n = 6, 24, 10, 3
        rng = Rng(60)
        bank = WeakClassifierBank(d, k, v, rng.spawn(1))
        x = rng.spawn(2).normal((n, d))
        y = np.array([0, 4, 9])
        cfg = LossConfig(0.5, 0.1, v, exact_diversity_grad=True)
        shapes = []
        forward = trainer.em_softmax_forward

        def counted(x, heads, labels, cfg, variants=None):
            shapes.append(variants.shape)
            return forward(x, heads, labels, cfg, variants)

        monkeypatch.setattr(trainer, "em_softmax_forward", counted)
        tracemalloc.start()
        try:
            trainer._differenced_step(None, bank.heads, x, y, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(shapes) >= 2 and sum(m for _, m, _, _ in shapes) == 2 * d * k
        for heads, m, dims, classes in shapes:
            banks, rows = 1 + heads * m, heads + heads * m
            gathered_grams = banks * heads * (heads - 1) * classes**2
            gathered_heads = banks * heads * dims * classes
            scores = rows * n * classes
            assert max(gathered_grams, gathered_heads, scores) <= trainer._FD_CHUNK_VALUES
        # all that a forward holds at once: every bank's gathered heads
        # beside the other heads' Grams gathered for its kernels and the
        # kernels (about 1.87 budgets' worth of float64 on numpy 2.4)
        assert peak <= 3 * 8 * trainer._FD_CHUNK_VALUES
