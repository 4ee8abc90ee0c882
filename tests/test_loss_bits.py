"""Bit-for-bit guards: the loss core against the earlier formulation.

The package takes short-axis maxima and sums class-major, gathers
the diversity kernels in one reduction and sums one bank's heads as
Python floats. Each of those must give exactly the bits of numpy's own
reductions, fancy indexing and slice loops, kept in ``conftest`` as
``ref_softmax_probs``, ``ref_margin_softmax``, ``ref_kernel_loop`` and
the whole ``ref_loss_forward`` / ``ref_loss_backward`` /
``ref_loss_totals``. Variants of a bank scored in one forward must give
the bank the bits of its own forward and every variant bank the
reference total.
Arrays are compared as uint64 views with ``==``, so even NaN payloads
and signed zeros must agree.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    ref_em_softmax_backward,
    ref_kernel_loop,
    ref_loss_backward,
    ref_loss_forward,
    ref_loss_totals,
    ref_margin_softmax,
    ref_softmax_probs,
    variant_banks,
)
from emsoftmax import cli, trainer
from emsoftmax.losses import (
    LossConfig,
    _diversity_kernels,
    _margin_softmax,
    _softmax,
    _sum_heads,
    _variant_banks,
    diversity_penalty,
    diversity_terms,
    em_softmax_backward,
    em_softmax_forward,
)
from emsoftmax.tensor import Rng, _GAMMA, _MIX1, _MIX2, sum_in_order

K_VALUES = (1, 2, 3, 4, 7, 8, 9, 10, 16, 17, 100, 128, 129)
# every value of n and of d in {1, 3, 24} appears
ROWS_AND_DIMS = ((1, 1), (3, 24), (24, 3))


def assert_bits(actual, expected):
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))


def scores_with_specials(g, shape):
    z = g.normal(scale=3.0, size=shape)
    flat = z.reshape(-1, shape[-1])
    flat[0, 0] = np.inf
    if flat.shape[0] > 1:
        flat[1, -1] = -np.inf
    if flat.shape[0] > 2:
        flat[2, :] = -np.inf
    if flat.shape[0] > 3:
        flat[3, 0] = np.nan
    return z


class TestSoftmax:
    @pytest.mark.parametrize("lead", [(), (5,), (6, 128), (120, 3, 3)])
    def test_matches_numpy_reductions(self, lead):
        g = np.random.default_rng(len(lead))
        ks = range(1, 301) if len(lead) < 2 else K_VALUES
        with np.errstate(invalid="ignore"):
            for k in ks:
                z = g.normal(scale=4.0, size=(*lead, k))
                assert_bits(_softmax(z)[0], ref_softmax_probs(z))
                if lead:
                    z = scores_with_specials(g, (*lead, k))
                    assert_bits(_softmax(z)[0], ref_softmax_probs(z))

    @pytest.mark.parametrize("k", K_VALUES)
    def test_non_contiguous_input_matches_numpy_reductions(self, k):
        # the softmax takes C-contiguous scores only: its one caller, the
        # margin softmax, gives it the C-order copy of strided scores
        g = np.random.default_rng(50 + k)
        labels = g.integers(0, k, size=40)
        for z in (g.normal(scale=4.0, size=(k, 40)).T,
                  np.asfortranarray(g.normal(scale=4.0, size=(3, 40, k))),
                  g.normal(scale=4.0, size=(40, 2 * k))[:, ::2]):
            assert not z.flags.c_contiguous or k == 1
            ref_losses, ref_probs = ref_margin_softmax(np.array(z, order="C"), labels, 0.0)
            losses, probs, _ = _margin_softmax(z, labels, 0.0)
            assert_bits(losses, ref_losses)
            assert_bits(probs, ref_probs)

    def test_input_left_unchanged(self):
        z = np.random.default_rng(0).normal(size=(4, 10))
        before = z.copy()
        _softmax(z)
        assert_bits(z, before)

    @pytest.mark.parametrize("shape", [(0, 5), (3, 0, 4)])
    def test_empty_input(self, shape):
        assert _softmax(np.zeros(shape))[0].shape == shape


class TestMarginSoftmax:
    @pytest.mark.parametrize("m", [0.0, 0.5])
    @pytest.mark.parametrize("k", K_VALUES)
    def test_matches_fancy_indexing(self, k, m):
        g = np.random.default_rng(k)
        for lead in ((1,), (6,), (2, 9)):
            scores = g.normal(scale=3.0, size=(*lead, 24, k))
            labels = g.integers(0, k, size=24)
            adjusted, ref_adjusted = scores.copy(), scores.copy()
            losses, probs, index = _margin_softmax(adjusted, labels, m)
            ref_losses, ref_probs = ref_margin_softmax(ref_adjusted, labels, m)
            assert_bits(losses, ref_losses)
            assert_bits(probs, ref_probs)
            assert_bits(adjusted, ref_adjusted)
            assert_bits(probs.reshape(-1)[index].reshape(*lead, 24),
                        ref_probs[..., np.arange(24), labels])


@pytest.mark.parametrize("v", range(1, 13))
def test_kernels_match_slice_loop(v):
    g = np.random.default_rng(v)
    for k in (2, 3, 4, 10, 129):
        w = g.normal(size=(v, 3, k))
        w_hats, _, kernels = _diversity_kernels(w)
        want_hats, want_kernels = ref_kernel_loop(w)
        assert_bits(w_hats, want_hats)
        assert_bits(kernels, want_kernels)
    if v not in (1, 2, 3, 6):
        return
    # a head table: every bank's heads and kernels, gathered through its
    # rows, against the bank built whole; the last variant has a zero column
    g = np.random.default_rng(100 + v)
    for per_head in (1, 3):
        for k in (2, 10, 129):
            bank, variants = g.normal(size=(v, 3, k)), g.normal(size=(v, per_head, 3, k))
            variants[-1, -1, :, k // 2] = 0.0
            table = np.concatenate((bank, variants.reshape(-1, 3, k)))
            whole = np.concatenate((bank[None], variant_banks(bank, variants)))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                w_hats, norms, kernels = _diversity_kernels(table, _variant_banks(v, per_head))
                want_hats, want_kernels = ref_kernel_loop(whole)
            assert norms.shape == (len(table), 1, k)
            assert_bits(w_hats, want_hats)
            assert_bits(kernels, want_kernels)


def test_one_bank_heads_summed_in_plain_order():
    # a compensated sum (the builtin sum from Python 3.12) would give 1.0
    assert _sum_heads(np.array([1e16, 1.0, -1e16])) == 0.0
    assert _sum_heads(np.array([[1e16, 1.0, -1e16]])).tolist() == [0.0]


# (margin, lambda, exact diversity gradient): each margin meets both
# lambdas and both gradient modes
LOSS_SETTINGS = ((0.0, 0.0, False), (0.0, 0.1, True), (0.5, 0.1, False), (0.5, 0.0, True))


@pytest.mark.parametrize("v", range(1, 13))
def test_forward_backward_and_totals_match_reference(v):
    g = np.random.default_rng(100 + v)
    for k in K_VALUES:
        if v >= 2 and k == 1:
            continue  # no diversity at K = 1
        # the widest K take one (n, d) pair per V; every pair still meets them
        for n, d in ROWS_AND_DIMS if k < 100 else ROWS_AND_DIMS[v % 3 :][:1]:
            x = g.normal(size=(n, d))
            bank = g.normal(size=(v, d, k))
            labels = g.integers(0, k, size=n)
            for m, lam, exact in LOSS_SETTINGS:
                cfg = LossConfig(m, lam, v, exact)
                fwd = em_softmax_forward(x, bank, labels, cfg)
                ref = ref_loss_forward(x, bank, labels, cfg)
                assert_bits(
                    [fwd.total_loss, fwd.classification_term, fwd.diversity_term],
                    [ref.total_loss, ref.classification_term, ref.diversity_term],
                )
                assert_bits(fwd.probs_per_head, ref.probs_per_head)
                for got, want in zip(em_softmax_backward(fwd), ref_loss_backward(ref)):
                    assert_bits(got, want)
            # one variant per head already makes V banks to score; the widest
            # K take one margin per V, so each margin still meets every K
            # and every (n, d) pair across the V range
            for m in (0.5, 0.0) if k < 100 else ((0.5, 0.0)[v % 2],):
                variants = g.normal(size=(v, 1, d, k))
                cfg = LossConfig(m, 0.1, v)
                assert_bits(em_softmax_forward(x, bank, labels, cfg, variants).totals,
                            ref_loss_totals(x, variant_banks(bank, variants), labels,
                                            cfg).reshape(v, 1))


class TestStackedForward:
    """A bank and a ``(V, M, d, K)`` stack of variant heads in one forward,
    as the gradient checker scores the live bank with its perturbed heads.
    The bank is bank 0 of the forward's head table."""

    @pytest.mark.parametrize("v", [1, 2, 3, 6])
    @pytest.mark.parametrize("k", [2, 10])
    @pytest.mark.parametrize("n", [1, 3, 128])
    def test_bank_zero_and_totals_keep_their_bits(self, v, k, n):
        g = np.random.default_rng(1000 * v + 10 * k + n)
        d = 4
        x = g.normal(size=(n, d))
        labels = g.integers(0, k, size=n)
        for m, lam in ((0.0, 0.0), (0.0, 0.1), (0.5, 0.0), (0.5, 0.1)):
            for exact in (False, True):
                cfg = LossConfig(m, lam, v, exact)
                bank, variants = g.normal(size=(v, d, k)), g.normal(size=(v, 4, d, k))
                scored = em_softmax_forward(x, bank, labels, cfg, variants)
                alone = em_softmax_forward(x, bank, labels, cfg)
                assert_bits(
                    [scored.total_loss, scored.classification_term, scored.diversity_term],
                    [alone.total_loss, alone.classification_term, alone.diversity_term],
                )
                assert_bits(scored.probs_per_head, alone.probs_per_head)
                for got, want in zip(em_softmax_backward(scored), em_softmax_backward(alone)):
                    assert_bits(got, want)
                assert scored.totals.shape == (v, 4) and alone.totals is None
                for b, whole in enumerate(variant_banks(bank, variants)):
                    assert_bits(scored.totals[b // 4, b % 4],
                                ref_loss_totals(x, whole[None], labels, cfg)[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_non_finite_variants_keep_their_bits(self, lam, bad):
        # at lambda = 0 a finite table forms only the bank's own penalties;
        # a non-finite head has a NaN penalty, which 0 * NaN keeps in its
        # total, so such a table is scored whole
        g = np.random.default_rng(77)
        x, labels = np.abs(g.normal(size=(3, 4))), np.array([0, 2, 1])
        bank, variants = g.normal(size=(3, 4, 3)), g.normal(size=(3, 2, 4, 3))
        variants[1, 0, :, 2] = bad
        cfg = LossConfig(0.5, lam, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            scored = em_softmax_forward(x, bank, labels, cfg, variants)
            want = ref_loss_totals(x, variant_banks(bank, variants), labels, cfg)
            alone = em_softmax_forward(x, bank, labels, cfg)
        assert_bits(scored.totals.ravel(), want)
        assert_bits([scored.total_loss, scored.diversity_term],
                    [alone.total_loss, alone.diversity_term])

    def test_output_holds_no_view_of_the_stack(self):
        # the record keeps copies of the bank's share, so the table-sized
        # arrays die with the call and the caller may reuse its variants
        g = np.random.default_rng(9)
        x, labels, cfg = g.normal(size=(3, 4)), np.array([0, 2, 1]), LossConfig(0.5, 0.1, 2, True)
        bank, variants = g.normal(size=(2, 4, 3)), g.normal(size=(2, 6, 4, 3))
        scored = em_softmax_forward(x, bank, labels, cfg, variants)
        want = em_softmax_backward(em_softmax_forward(x, bank.copy(), labels, cfg))
        bank[:] = variants[:] = np.nan
        assert scored.probs_per_head.base is None
        for part in scored._record[3]:
            assert part.base is None
        for got, expected in zip(em_softmax_backward(scored), want):
            assert_bits(got, expected)

    @pytest.mark.parametrize("variants", [False, True], ids=["bank", "head table"])
    def test_probabilities_are_contiguous_and_own_their_data(self, variants):
        # the backward subtracts the one-hot through a flat index into
        # a copy of them; at the surrogate shape: V = 6, d = 24, K = 10, n = 128
        g = np.random.default_rng(11)
        x, labels = g.normal(size=(128, 24)), g.integers(0, 10, size=128)
        bank = g.normal(size=(6, 24, 10))
        extra = g.normal(size=(6, 2, 24, 10)) if variants else None
        probs = em_softmax_forward(x, bank, labels, LossConfig(0.5, 0.1, 6), extra).probs_per_head
        assert probs.shape == (6, 128, 10)
        assert probs.flags.c_contiguous and probs.flags.owndata and probs.base is None

    @pytest.mark.parametrize("shape", [(5, 2, 4, 3), (4, 3), (3,), (0, 4, 3), (2, 0, 3),
                                       (2, 4, 0)],
                             ids=["stack of banks", "2-D", "1-D", "no heads", "no dims",
                                  "no classes"])
    def test_malformed_bank_rejected(self, shape):
        with pytest.raises(ValueError, match=r"^bank must have shape \(V, d, K\) with every "
                                             r"size >= 1, got "):
            em_softmax_forward(np.ones((3, 4)), np.ones(shape), [0, 2, 1], LossConfig(0, 0, 2),
                               np.ones((2, 1, 4, 3)))

    @pytest.mark.parametrize("shape", [(2, 0, 4, 3), (0, 1, 4, 3), (2, 1, 0, 3), (2, 1, 4, 0),
                                       (1, 2, 1, 4, 3), (4, 3), (3,), (3, 1, 4, 3),
                                       (1, 1, 4, 3), (2, 1, 5, 3), (2, 1, 4, 2), (2, 4, 3)],
                             ids=["no banks", "no heads", "no dims", "no classes", "5-D", "2-D",
                                  "1-D", "extra head", "missing head", "other dims",
                                  "other classes", "3-D"])
    def test_malformed_stack_rejected(self, shape):
        with pytest.raises(ValueError, match=r"^variants must have shape \(V, M, d, K\) = "
                                             r"\(2, M, 4, 3\) with M >= 1, got "):
            em_softmax_forward(np.ones((3, 4)), np.ones((2, 4, 3)), [0, 2, 1],
                               LossConfig(0, 0, 2), np.ones(shape))


def ref_head_penalties(bank):
    """tr(Wv_hat Kv Wv_hat^T) of every head from :func:`ref_kernel_loop`."""
    if len(bank) == 1:
        return np.zeros(1)
    w_hats, kernels = ref_kernel_loop(bank)
    terms = (w_hats @ kernels) * w_hats
    return np.sum(terms.reshape(len(bank), -1), axis=-1)


class TestDiversityTerms:
    """Every head's penalty from one call, with the bits of the per-head
    entry point, of the reference and of the forward's diversity term."""

    @staticmethod
    def check(bank):
        v, d, k = bank.shape
        terms = diversity_terms(bank)
        assert_bits(terms, [diversity_penalty(bank, u) for u in range(v)])
        assert_bits(terms, ref_head_penalties(bank))
        fwd = em_softmax_forward(np.ones((1, d)), bank, [0], LossConfig(0.0, 0.1, v))
        assert_bits(sum_in_order(terms.tolist()), fwd.diversity_term)

    @pytest.mark.parametrize("v", [1, 2, 3, 6])
    def test_terms_keep_the_per_head_bits(self, v):
        g = np.random.default_rng(300 + v)
        for k in (2, 3, 10):
            for d in (1, 4, 24):
                self.check(g.normal(size=(v, d, k)))

    @pytest.mark.parametrize("v", [2, 3, 6])
    def test_zero_column_bank(self, v):
        bank = np.random.default_rng(400 + v).normal(size=(v, 4, 5))
        bank[v - 1, :, 2] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            self.check(bank)
        with pytest.warns(RuntimeWarning, match="zero column"):
            diversity_terms(bank)


@pytest.mark.parametrize("v", [8, 12])
def test_single_value_feature_gradient_adds_heads_in_order(v):
    # with n = d = 1 each head adds one value to the feature gradient, which
    # numpy's reduce over V would sum pairwise from V = 8
    g = np.random.default_rng(200 + v)
    for k in (2, 3, 10):
        for m, lam, exact in LOSS_SETTINGS:
            cfg = LossConfig(m, lam, v, exact)
            for _ in range(25):
                x = g.normal(scale=3.0, size=(1, 1))
                bank = g.normal(size=(v, 1, k))
                labels = g.integers(0, k, size=1)
                fwd = em_softmax_forward(x, bank, labels, cfg)
                want = ref_em_softmax_backward(x, bank, labels, cfg, fwd)
                for got, expected in zip(em_softmax_backward(fwd), want):
                    assert_bits(got, expected)


def test_zero_columns_warn_and_match_reference():
    g = np.random.default_rng(7)
    x = g.normal(size=(5, 4))
    bank = g.normal(size=(3, 4, 6))
    bank[1, :, 2] = 0.0
    bank[2, :, 0] = 0.0
    labels = g.integers(0, 6, size=5)
    for exact in (False, True):
        cfg = LossConfig(0.5, 0.1, 3, exact)
        with pytest.warns(RuntimeWarning, match="zero column"):
            fwd = em_softmax_forward(x, bank, labels, cfg)
        with pytest.warns(RuntimeWarning):
            ref = ref_loss_forward(x, bank, labels, cfg)
        assert_bits(fwd.total_loss, ref.total_loss)
        for got, want in zip(em_softmax_backward(fwd), ref_loss_backward(ref)):
            assert_bits(got, want)
        variants = g.normal(size=(3, 2, 4, 6))
        variants[0, 1, :, 4] = 0.0
        with pytest.warns(RuntimeWarning, match="zero column"):
            totals = em_softmax_forward(x, bank, labels, cfg, variants).totals
        with pytest.warns(RuntimeWarning):
            assert_bits(totals, ref_loss_totals(x, variant_banks(bank, variants), labels,
                                                cfg).reshape(3, 2))


def test_no_warning_without_zero_columns():
    g = np.random.default_rng(3)
    cfg = LossConfig(0.5, 0.1, 4, True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fwd = em_softmax_forward(g.normal(size=(3, 5)), g.normal(size=(4, 5, 7)), [0, 6, 2], cfg)
        em_softmax_backward(fwd)


def test_non_finite_scores_match_reference():
    g = np.random.default_rng(8)
    x = g.normal(size=(4, 3))
    x[0, 1] = np.inf
    x[2, 0] = -np.inf
    bank = g.normal(size=(2, 3, 10))
    labels = g.integers(0, 10, size=4)
    cfg = LossConfig(0.5, 0.1, 2, True)
    with np.errstate(invalid="ignore"):
        fwd = em_softmax_forward(x, bank, labels, cfg)
        ref = ref_loss_forward(x, bank, labels, cfg)
        assert_bits(fwd.probs_per_head, ref.probs_per_head)
        assert_bits(fwd.total_loss, ref.total_loss)
        for got, want in zip(em_softmax_backward(fwd), ref_loss_backward(ref)):
            assert_bits(got, want)


def test_readme_training_run_matches_reference_loss(tmp_path, monkeypatch):
    """Train the README config (6 heads, 800 steps) with the package loss,
    then with the reference forward and backward: same rows, same weights."""
    cfg = cli.RunConfig(
        synth_classes=10, synth_samples=150, synth_eval_samples=200, synth_dim=20,
        synth_noise=1.8, hidden_dims=(32,), feature_dim=24, margin=0.5,
        diversity_weight=0.1, heads=6, base_lr=0.1, lr_drop_iters=(500, 700),
        max_iters=800, batch_size=128, seed=1,
    )

    def run(name):
        result = cli.run_training(replace(cfg, out_dir=str(tmp_path / name)), quiet=True)
        rows = np.array([row[:-1] for row in result["report"].rows], dtype=np.float64)
        params = [*result["net"].weights, *result["net"].biases, result["bank"].heads]
        return rows, params

    rows, params = run("package")

    def reference_forward(x_batch, bank, labels, cfg, variants=None, *, check_inputs=True):
        # train checked its parts once, so each step's forward trusts them
        assert variants is None and check_inputs is False
        return ref_loss_forward(x_batch, bank, labels, cfg)

    monkeypatch.setattr(trainer, "em_softmax_forward", reference_forward)
    monkeypatch.setattr(trainer, "em_softmax_backward", ref_loss_backward)
    ref_rows, ref_params = run("reference")
    assert len(rows) == 8
    assert_bits(rows, ref_rows)
    for got, want in zip(params, ref_params):
        assert_bits(got, want)


M64 = 0xFFFF_FFFF_FFFF_FFFF


def np_mix(z):
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def np_spawn_seed(seed, tag):
    """A child's seed by the numpy-uint64 formula."""
    with np.errstate(over="ignore"):
        return int(np_mix(np.uint64(seed) ^ np_mix(np.uint64(tag & M64) + _GAMMA)))


def np_uniform(seed, counter):
    """Draw number ``counter`` (1-based) by the numpy-uint64 formula."""
    with np.errstate(over="ignore"):
        raw = np_mix(np.uint64(seed) + np.uint64(counter) * _GAMMA)
    return float(raw >> np.uint64(11)) * 2.0**-53


EDGE_TAGS = (0, 1, 13, 100003, 2**63, 2**64 - 1, -1)


class TestRngParity:
    @pytest.mark.parametrize("seed", [0, 5, 2**63 + 11, M64])
    def test_spawn(self, seed):
        for tag in EDGE_TAGS:
            assert Rng(seed).spawn(tag).seed == np_spawn_seed(seed, tag)

    @pytest.mark.parametrize("tag", EDGE_TAGS)
    def test_scalar_uniform_over_a_thousand_draws(self, tag):
        rng = Rng(0).spawn(tag)
        draws = [rng.uniform() for _ in range(1000)]
        assert draws == [np_uniform(rng.seed, c) for c in range(1, 1001)]

    def test_scalar_uniform_past_two_to_the_forty(self):
        rng = Rng(123)
        rng._counter = 2**40 + 5
        draws = [rng.uniform() for _ in range(20)]
        assert draws == [np_uniform(123, 2**40 + 5 + c) for c in range(1, 21)]

    def test_rand_int_uses_one_scalar_draw(self):
        rng, twin = Rng(9), Rng(9)
        for lo, hi in ((0, 0), (2, 5), (0, 9), (1, 3)):
            u = twin.uniform()
            assert cli._rand_int(rng, lo, hi) == lo + min(int(u * (hi - lo + 1)), hi - lo)
        assert rng.counter == twin.counter

