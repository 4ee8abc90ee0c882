import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    central_diff,
    hsic_empirical,
    ref_diversity_kernel,
    ref_em_softmax_backward,
    ref_hsic,
    ref_margin_softmax,
    ref_softmax_loss,
    variant_banks,
)
from emsoftmax import losses
from emsoftmax.losses import (
    LossConfig,
    _frozen_centering,
    _softmax,
    diversity_penalty,
    diversity_terms,
    em_softmax_backward,
    em_softmax_forward,
    LossOutput,
    normalize_classifier,
)

LN2 = 0.6931471805599453


def random_bank(rng, d, k, v):
    return [rng.normal(size=(d, k)) for _ in range(v)]


def margin_softmax(z, labels, m):
    """Batch-mean margin softmax loss of raw scores and its probabilities:
    the combined loss with one identity head and no diversity."""
    z = np.asarray(z, dtype=np.float64)
    out = em_softmax_forward(z, np.eye(z.shape[1])[None], labels, LossConfig(m, 0.0, 1))
    return out.total_loss, out.probs_per_head[0]


class TestSoftmaxProbs:
    def test_known_values(self):
        p = _softmax(np.array([1.0, 2.0, 3.0]))[0]
        np.testing.assert_allclose(
            p,
            [0.090030573170380458, 0.24472847105479765, 0.66524095577482189],
            rtol=0,
            atol=1e-15,
        )

    def test_rows_sum_to_one(self):
        z = np.random.default_rng(0).normal(size=(40, 7)) * 5
        p = _softmax(z)[0]
        np.testing.assert_allclose(p.sum(axis=1), np.ones(40), atol=1e-14)
        assert (p > 0).all()

    def test_huge_logits_do_not_overflow(self):
        p = _softmax(np.array([[1000.0, 999.0, -1000.0]]))[0]
        assert np.isfinite(p).all()
        assert p[0, 0] > p[0, 1] > p[0, 2]

    @given(st.floats(-50, 50))
    @settings(deadline=None, max_examples=30)
    def test_shift_invariance(self, shift):
        z = np.array([[0.3, -1.2, 2.0, 0.0]])
        np.testing.assert_allclose(_softmax(z + shift)[0], _softmax(z)[0], atol=1e-14)


class TestCrossEntropyAndMargin:
    def test_two_equal_scores_give_log_two(self):
        loss, _ = margin_softmax(np.array([[0.0, 0.0]]), [0], 0.0)
        assert loss == pytest.approx(LN2, abs=1e-15)

    def test_cross_entropy_is_exact_for_tiny_probabilities(self):
        # -log p_y comes from the row max and sum, not from p_y, which
        # underflows to 0 here
        loss, probs = margin_softmax(np.array([[0.0, 1000.0]]), [0], 0.0)
        assert probs[0, 0] == 0.0
        assert loss == 1000.0

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            margin_softmax(np.zeros((1, 3)), [3], 0.0)
        with pytest.raises(ValueError):
            margin_softmax(np.zeros((1, 3)), [-1], 0.0)

    def test_margin_adjusts_only_true_class(self):
        z = np.array([[1.0, 2.0, 3.0]])
        _, probs = margin_softmax(z, [1], 0.7)
        np.testing.assert_array_equal(probs, _softmax(np.array([[1.0, 1.3, 3.0]]))[0])
        np.testing.assert_array_equal(z, [[1.0, 2.0, 3.0]])

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError):
            margin_softmax(np.zeros((1, 2)), [0], -0.1)
        with pytest.raises(ValueError):
            margin_softmax(np.zeros((1, 2)), [0], -1.0)
        with pytest.raises(ValueError):
            LossConfig(margin=-0.5)

    @pytest.mark.parametrize("value", [2.5, 2.0, True])
    def test_non_integer_head_count_rejected(self, value):
        # 2.5 heads failed later with "bank has 2 heads, config says 2.5"
        with pytest.raises(ValueError, match=rf"^num_heads must be an integer, got {value!r}$"):
            LossConfig(num_heads=value)

    # the string 'no' picked the exact gradient by its truth value
    @pytest.mark.parametrize("value", ["no", 1, None, np.bool_(True)],
                             ids=["string", "int", "None", "numpy bool"])
    def test_non_bool_gradient_mode_rejected(self, value):
        message = f"exact_diversity_grad must be a bool, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LossConfig(exact_diversity_grad=value)

    # a bool was taken as 0 or 1, a string or None raised a TypeError
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True, "1", None])
    @pytest.mark.parametrize("name", ["margin", "diversity_weight"])
    def test_non_finite_hyperparameters_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            LossConfig(**{name: value})
        if name == "margin":
            with pytest.raises(ValueError, match="margin must be finite"):
                margin_softmax(np.zeros((1, 2)), [0], value)

    def test_zero_margin_is_plain_softmax_bitwise(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(6, 4)) * 3
        y = rng.integers(0, 4, size=6)
        loss, probs = margin_softmax(z, y, 0.0)
        assert loss == float(np.mean(ref_margin_softmax(z.copy(), y, 0.0)[0]))
        np.testing.assert_array_equal(probs, _softmax(z)[0])

    def test_loss_increases_with_margin(self):
        z = np.random.default_rng(2).normal(size=(5, 3))
        y = [0, 1, 2, 0, 1]
        losses = [margin_softmax(z, y, m)[0] for m in (0.0, 0.5, 1.0, 5.0)]
        assert losses == sorted(losses)
        assert losses[0] < losses[-1]

    def test_giant_margin_stays_finite(self):
        loss, probs = margin_softmax(np.zeros((2, 3)), [0, 1], 1e6)
        assert np.isfinite(loss)
        assert np.isfinite(probs).all()

    @given(st.floats(0.0, 10.0), st.floats(0.0, 10.0))
    @settings(deadline=None, max_examples=30)
    def test_margin_monotonicity_property(self, m1, m2):
        z = np.array([[0.5, -0.2, 1.1], [2.0, 0.0, -1.0]])
        lo, hi = sorted((m1, m2))
        assert margin_softmax(z, [0, 2], lo)[0] <= margin_softmax(z, [0, 2], hi)[0] + 1e-12


class TestCenteringMatrix:
    def test_formula(self):
        h = _frozen_centering(4)
        np.testing.assert_allclose(h, np.eye(4) - 0.25, atol=0)

    def test_symmetric_idempotent_annihilates_constants(self):
        h = _frozen_centering(6)
        np.testing.assert_allclose(h, h.T, atol=0)
        np.testing.assert_allclose(h @ h, h, atol=1e-15)
        np.testing.assert_allclose(h @ np.ones(6), np.zeros(6), atol=1e-15)


class TestHsic:
    def test_matches_expanded_trace_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = rng.integers(2, 9)
            a = rng.normal(size=(n, n + 2))
            b = rng.normal(size=(n, n + 1))
            k1, k2 = a @ a.T, b @ b.T
            assert hsic_empirical(k1, k2) == pytest.approx(ref_hsic(k1, k2), abs=1e-10)

    def test_nonnegative_on_gram_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = rng.integers(2, 7)
            k1 = (lambda m: m @ m.T)(rng.normal(size=(n, 3)))
            k2 = (lambda m: m @ m.T)(rng.normal(size=(n, 3)))
            assert hsic_empirical(k1, k2) >= -1e-12

    def test_scaling_prefactor(self):
        # identical rank-one Grams: tr(KHKH) with known value
        k = np.outer([1.0, 2.0], [1.0, 2.0])
        h = np.eye(2) - 0.5
        expected = np.trace(k @ h @ k @ h) / 1.0
        assert hsic_empirical(k, k) == pytest.approx(expected, abs=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            hsic_empirical(np.zeros((2, 3)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            hsic_empirical(np.zeros((2, 2)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            hsic_empirical(np.ones((1, 1)), np.ones((1, 1)))


class TestNormalizeClassifier:
    def test_unit_columns(self):
        w = np.random.default_rng(3).normal(size=(5, 4)) * 7
        w_hat = normalize_classifier(w)
        np.testing.assert_allclose(np.linalg.norm(w_hat, axis=0), np.ones(4), atol=1e-14)

    def test_does_not_mutate_input(self):
        w = np.full((2, 2), 3.0)
        normalize_classifier(w)
        np.testing.assert_array_equal(w, np.full((2, 2), 3.0))

    def test_zero_column_warns_and_stays_zero(self):
        w = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.warns(RuntimeWarning):
            w_hat = normalize_classifier(w)
        np.testing.assert_array_equal(w_hat[:, 1], [0.0, 0.0])
        np.testing.assert_array_equal(w_hat[:, 0], [1.0, 0.0])

    def test_stack_matches_each_matrix_bitwise(self):
        w = np.random.default_rng(8).normal(size=(3, 2, 6, 4))
        w_hat = normalize_classifier(w)
        for idx in np.ndindex(3, 2):
            assert (w_hat[idx] == normalize_classifier(w[idx])).all()

    def test_rejects_vectors(self):
        with pytest.raises(ValueError, match="shape"):
            normalize_classifier(np.ones(3))


class TestDiversity:
    def test_kernel_is_symmetric_psd(self):
        rng = np.random.default_rng(4)
        bank = random_bank(rng, 6, 4, 3)
        kv = ref_diversity_kernel(bank, 1)
        np.testing.assert_allclose(kv, kv.T, atol=1e-14)
        assert np.linalg.eigvalsh(kv).min() > -1e-12

    def test_identity_heads_penalty(self):
        # two identical orthonormal heads: per-head penalty equals
        # tr(H I H) = K - 1, here 1.0 for K = 2
        bank = [np.eye(2), np.eye(2)]
        assert diversity_penalty(bank, 0) == pytest.approx(1.0, abs=1e-14)
        assert diversity_penalty(bank, 1) == pytest.approx(1.0, abs=1e-14)

    def test_single_head_penalty_is_zero(self):
        assert diversity_penalty([np.eye(3)], 0) == 0.0

    def test_penalty_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            bank = random_bank(rng, rng.integers(2, 7), rng.integers(2, 6), rng.integers(2, 5))
            for v in range(len(bank)):
                assert diversity_penalty(bank, v) >= 0.0

    def test_penalty_invariant_to_positive_rescaling(self):
        rng = np.random.default_rng(6)
        bank = random_bank(rng, 5, 4, 2)
        base = diversity_penalty(bank, 0)
        scaled = [bank[0] * 3.7, bank[1] * 0.02]
        assert diversity_penalty(scaled, 0) == pytest.approx(base, rel=1e-12)

    def test_matches_pairwise_hsic(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = int(rng.integers(2, 7))
            bank = random_bank(rng, int(rng.integers(2, 9)), k, 2)
            g0 = (lambda w: w.T @ w)(normalize_classifier(bank[0]))
            g1 = (lambda w: w.T @ w)(normalize_classifier(bank[1]))
            expected = (k - 1) ** 2 * hsic_empirical(g0, g1)
            assert diversity_penalty(bank, 0) == pytest.approx(expected, abs=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError, match="2 classes"):
            diversity_penalty([np.ones((2, 1)), np.ones((2, 1))], 0)
        with pytest.raises(ValueError, match="shape"):
            diversity_penalty([np.eye(2), np.eye(3)], 0)
        for v in (2, -1):
            with pytest.raises(ValueError, match="out of range"):
                diversity_penalty([np.eye(2), np.eye(2)], v)

    @pytest.mark.parametrize("v", [7, -1])
    def test_head_index_checked_on_a_single_head_bank(self, v):
        with pytest.raises(ValueError, match=f"head index {v} out of range for bank of 1"):
            diversity_penalty([np.eye(3)], v)

    def test_terms_build_the_kernels_once(self, monkeypatch):
        calls = []
        build = losses._diversity_kernels

        def counted(w, heads=None):
            calls.append(w.shape)
            return build(w, heads)

        monkeypatch.setattr(losses, "_diversity_kernels", counted)
        terms = diversity_terms(random_bank(np.random.default_rng(8), 4, 3, 6))
        assert terms.shape == (6,)
        assert calls == [(6, 4, 3)]


class TestForward:
    def test_hand_case(self):
        # one sample at [1, 0], two identity heads, margin 1, lambda 0.1:
        # per-head cls = ln 2 (scores tie after the margin), so cls =
        # 2 ln 2; each head's penalty is 1, so div = 2.
        x = np.array([[1.0, 0.0]])
        bank = [np.eye(2), np.eye(2)]
        out = em_softmax_forward(x, bank, [0], LossConfig(1.0, 0.1, 2))
        assert out.classification_term == pytest.approx(2 * LN2, abs=1e-15)
        assert out.diversity_term == pytest.approx(2.0, abs=1e-14)
        assert out.total_loss == pytest.approx(1.5862943611198906, abs=1e-14)

    def test_single_head_no_diversity(self):
        x = np.random.default_rng(0).normal(size=(4, 3))
        out = em_softmax_forward(x, [np.eye(3)], [0, 1, 2, 0], LossConfig(0.5, 0.9, 1))
        assert out.diversity_term == 0.0
        assert out.total_loss == out.classification_term

    def test_zero_weight_total_equals_classification_exactly(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 4))
        bank = random_bank(rng, 4, 3, 2)
        out = em_softmax_forward(x, bank, [0, 1, 2, 0, 1], LossConfig(0.0, 0.0, 2))
        assert out.total_loss == out.classification_term
        assert out.diversity_term > 0.0  # still reported

    def test_outputs_compare_by_identity(self):
        # field by field, == would compare the probabilities elementwise and
        # raise on the truth value of an array
        x, bank, cfg = np.eye(3)[:2], np.arange(12.0).reshape(2, 3, 2), LossConfig(0.5, 0.1, 2)
        a = em_softmax_forward(x, bank, [1, 0], cfg)
        b = em_softmax_forward(x, bank, [1, 0], cfg)
        assert a == a and not a != a
        assert a != b and not a == b

    def test_bank_config_mismatch(self):
        with pytest.raises(ValueError):
            em_softmax_forward(np.eye(2), [np.eye(2)], [0, 1], LossConfig(0, 0, 2))

    def test_probs_per_head_are_margin_adjusted(self):
        x = np.array([[1.0, 0.0]])
        out = em_softmax_forward(x, [np.eye(2)], [0], LossConfig(1.0, 0.0, 1))
        np.testing.assert_allclose(out.probs_per_head[0], [[0.5, 0.5]], atol=1e-15)

    def test_features_and_labels_must_fit_the_bank(self):
        x, cfg = np.zeros((2, 3)), LossConfig(0, 0, 2)
        with pytest.raises(ValueError, match="features of dim 5"):
            em_softmax_forward(x, np.ones((2, 5, 2)), [0, 1], cfg)
        with pytest.raises(ValueError, match="expected 2 labels"):
            em_softmax_forward(x, np.ones((2, 3, 2)), [0, 1, 1], cfg)
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\)"):
            em_softmax_forward(x, np.ones((2, 3, 2)), [0, 2], cfg)

    @pytest.mark.parametrize("labels", [[0.9, 1.9], [0.0, 1.0], [True, False],
                                        np.array([0, 1], dtype=object)],
                             ids=["fractions", "whole floats", "bool", "object"])
    def test_non_integer_labels_rejected(self, labels):
        # truncating [0.9, 1.9] to [0, 1] would score the wrong classes
        dtype = np.asarray(labels).dtype
        with pytest.raises(ValueError, match=f"labels must be integers, got dtype {dtype}"):
            em_softmax_forward(np.ones((2, 3)), np.ones((1, 3, 2)), labels, LossConfig())

    @pytest.mark.parametrize("v", [1, 2, 6])
    @pytest.mark.parametrize("exact", [False, True])
    def test_unchecked_forward_matches_the_checked_one(self, v, exact):
        # inputs train has checked: the unchecked forward gives the bits of
        # the checked one, and a backward of the same bits
        rng = np.random.default_rng(30 + v)
        x, bank = rng.normal(size=(7, 4)), rng.normal(size=(v, 4, 5))
        y, cfg = rng.integers(0, 5, size=7), LossConfig(0.5, 0.1, v, exact)
        checked = em_softmax_forward(x, bank, y, cfg)
        unchecked = em_softmax_forward(x, bank, y, cfg, check_inputs=False)
        assert (checked.probs_per_head == unchecked.probs_per_head).all()
        for name in ("total_loss", "classification_term", "diversity_term"):
            assert getattr(checked, name) == getattr(unchecked, name)
        for a, b in zip(em_softmax_backward(checked), em_softmax_backward(unchecked)):
            assert a.shape == b.shape and (a == b).all()

    def test_unchecked_forward_records_the_bank_itself(self):
        x, bank, cfg = np.eye(3)[:2], np.arange(12.0).reshape(2, 3, 2), LossConfig(0.5, 0.1, 2)
        assert em_softmax_forward(x, bank, [1, 0], cfg, check_inputs=False)._record[1] is bank
        assert em_softmax_forward(x, bank, [1, 0], cfg)._record[1] is not bank

    def test_unsigned_labels_score_like_int64(self):
        x, bank = np.eye(3)[:2], np.arange(9.0).reshape(1, 3, 3)
        want = em_softmax_forward(x, bank, np.array([2, 0]), LossConfig(0.5)).total_loss
        got = em_softmax_forward(x, bank, np.array([2, 0], dtype=np.uint8), LossConfig(0.5))
        assert got.total_loss == want


class TestTotals:
    """Variants of one bank through the forward: one pass, every variant
    bank's total in ``totals``."""

    @pytest.mark.parametrize("v", [1, 2, 3, 6])
    @pytest.mark.parametrize("margin", [0.0, 1.0])
    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_matches_per_bank_forward(self, v, margin, lam):
        rng = np.random.default_rng(100 + v)
        cfg = LossConfig(margin, lam, v)
        for n in range(1, 6):
            d, k = int(rng.integers(2, 7)), int(rng.integers(2, 6))
            bank = rng.normal(size=(v, d, k)) * rng.uniform(0.1, 3.0, size=(v, 1, 1))
            variants = rng.normal(size=(v, 3, d, k)) * rng.uniform(0.1, 3.0, size=(v, 3, 1, 1))
            x = rng.normal(size=(n, d))
            y = rng.integers(0, k, size=n)
            totals = em_softmax_forward(x, bank, y, cfg, variants).totals
            assert totals.shape == (v, 3)
            expected = [em_softmax_forward(x, list(b), y, cfg).total_loss
                        for b in variant_banks(bank, variants)]
            np.testing.assert_allclose(totals.ravel(), expected, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("v", [1, 2, 6])
    def test_bitwise_equal_to_per_bank_forward(self, v):
        # batches long enough that a strided head mean sums in another order
        rng = np.random.default_rng(200 + v)
        cfg = LossConfig(0.5, 0.1, v)
        for n in (9, 64, 129):
            bank = rng.normal(size=(v, 6, 4))
            variants = rng.normal(size=(v, 2, 6, 4))
            x = rng.normal(size=(n, 6))
            y = rng.integers(0, 4, size=n)
            totals = em_softmax_forward(x, bank, y, cfg, variants).totals
            expected = [em_softmax_forward(x, list(b), y, cfg).total_loss
                        for b in variant_banks(bank, variants)]
            assert totals.ravel().tolist() == expected

    def test_scores_on_the_forwards_batch(self):
        # the variants are scored on the features, labels and config the
        # forward checked; the output's own fields are the bank's
        rng = np.random.default_rng(5)
        x, y, cfg = rng.normal(size=(4, 3)), np.array([1, 0, 2, 2]), LossConfig(1.0, 0.1, 2)
        bank, variants = rng.normal(size=(2, 3, 3)), rng.normal(size=(2, 1, 3, 3))
        fwd = em_softmax_forward(x, bank, y, cfg, variants)
        alone = em_softmax_forward(x, bank, y, cfg)
        assert fwd.totals.ravel().tolist() == [
            em_softmax_forward(x, b, y, cfg).total_loss for b in variant_banks(bank, variants)]
        assert (fwd.total_loss, fwd.classification_term, fwd.diversity_term) == (
            alone.total_loss, alone.classification_term, alone.diversity_term)
        assert np.array_equal(fwd.probs_per_head, alone.probs_per_head)
        assert alone.totals is None

    def test_validation(self):
        # the bank is checked against the batch and config once, the
        # variants against the bank; malformed shapes are in test_loss_bits
        x, y, cfg = np.zeros((2, 3)), [0, 1], LossConfig(0, 0, 2)
        with pytest.raises(ValueError, match="bank has 1 heads, config says 2"):
            em_softmax_forward(x, np.ones((1, 3, 2)), y, cfg, np.ones((1, 4, 3, 2)))
        with pytest.raises(ValueError, match="features of dim 5"):
            em_softmax_forward(x, np.ones((2, 5, 2)), y, cfg, np.ones((2, 4, 5, 2)))
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\)"):
            em_softmax_forward(x, np.ones((2, 3, 2)), [0, 2], cfg, np.ones((2, 4, 3, 2)))
        with pytest.raises(ValueError, match=r"variants must have shape \(V, M, d, K\) = "
                                             r"\(2, M, 3, 2\) with M >= 1, got \(1, 4, 3, 2\)"):
            em_softmax_forward(x, np.ones((2, 3, 2)), y, cfg, np.ones((1, 4, 3, 2)))
        # one bank per diversity penalty: a stack of banks is not a bank
        with pytest.raises(ValueError, match=r"bank must have shape \(V, d, K\) with"):
            diversity_penalty(np.ones((4, 2, 3, 2)), 0)


class TestBackward:
    def test_classification_grads_match_reference(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            n, d, k = rng.integers(1, 6), rng.integers(2, 6), rng.integers(2, 5)
            x = rng.normal(size=(n, d))
            w = rng.normal(size=(d, k))
            y = rng.integers(0, k, size=n)
            cfg = LossConfig(0.0, 0.0, 1)
            fwd = em_softmax_forward(x, [w], y, cfg)
            grads, gx = em_softmax_backward(fwd)
            ref_loss, ref_gw, ref_gx = ref_softmax_loss(x, w, y)
            assert fwd.total_loss == pytest.approx(ref_loss, abs=1e-12)
            np.testing.assert_allclose(grads[0], ref_gw, atol=1e-12)
            np.testing.assert_allclose(gx, ref_gx, atol=1e-12)

    def test_head_gradients_match_finite_differences_exact_mode(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n, d, k, v = rng.integers(1, 4), rng.integers(2, 5), rng.integers(2, 5), rng.integers(2, 4)
            x = rng.normal(size=(n, d))
            bank = random_bank(rng, d, k, v)
            y = rng.integers(0, k, size=n)
            cfg = LossConfig(0.7, 0.3, v, exact_diversity_grad=True)
            fwd = em_softmax_forward(x, bank, y, cfg)
            grads, _ = em_softmax_backward(fwd)
            for i in range(v):
                def f(w, i=i):
                    trial = list(bank)
                    trial[i] = w
                    return em_softmax_forward(x, trial, y, cfg).total_loss

                num = central_diff(f, bank[i].copy())
                np.testing.assert_allclose(grads[i], num, atol=1e-6)

    def test_feature_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(3, 4))
        bank = random_bank(rng, 4, 3, 2)
        y = np.array([0, 2, 1])
        cfg = LossConfig(0.5, 0.2, 2, exact_diversity_grad=True)
        fwd = em_softmax_forward(x, bank, y, cfg)
        _, gx = em_softmax_backward(fwd)

        def f(xx):
            return em_softmax_forward(xx, bank, y, cfg).total_loss

        np.testing.assert_allclose(gx, central_diff(f, x.copy()), atol=1e-6)

    def test_default_mode_follows_detached_update_rule(self):
        # the training-mode diversity gradient treats Kv and the column
        # norms as constants: 2*lambda*Wv_hat Kv, rescaled per column
        rng = np.random.default_rng(13)
        x = rng.normal(size=(2, 5))
        bank = random_bank(rng, 5, 4, 2)
        y = np.array([1, 3])
        lam = 0.25
        cfg = LossConfig(0.0, lam, 2)
        fwd = em_softmax_forward(x, bank, y, cfg)
        grads, _ = em_softmax_backward(fwd)

        cls_only = em_softmax_backward(em_softmax_forward(x, bank, y, LossConfig(0.0, 0.0, 2)))[0]
        for v in range(2):
            norms = np.linalg.norm(bank[v], axis=0)
            w_hat = bank[v] / norms
            expected = cls_only[v] + lam * (2.0 * w_hat @ ref_diversity_kernel(bank, v)) / norms
            np.testing.assert_allclose(grads[v], expected, atol=1e-13)

    def test_six_heads_bitwise_equal_to_reference_kernel(self):
        # pins the exact summation order of Kv: forward, detached and
        # exact backward must not move a single bit against the loop
        rng = np.random.default_rng(16)
        x = rng.normal(size=(8, 24))
        bank = [w * s for w, s in zip(random_bank(rng, 24, 10, 6), (0.1, 1, 2, 5, 0.5, 3))]
        y = rng.integers(0, 10, size=8)
        lam = 0.3
        norms = [np.sqrt(np.sum(w * w, axis=0)) for w in bank]
        w_hats = [w / nrm for w, nrm in zip(bank, norms)]
        kernels = [ref_diversity_kernel(bank, v) for v in range(6)]

        cfg = LossConfig(0.5, lam, 6)
        fwd = em_softmax_forward(x, bank, y, cfg)
        div = sum(float(np.sum((wh @ kv) * wh)) for wh, kv in zip(w_hats, kernels))
        assert fwd.diversity_term == div
        assert fwd.total_loss == fwd.classification_term + lam * div

        cls_only = em_softmax_backward(em_softmax_forward(x, bank, y, LossConfig(0.5, 0.0, 6)))[0]
        detached, _ = em_softmax_backward(fwd)
        exact_cfg = LossConfig(0.5, lam, 6, exact_diversity_grad=True)
        exact, _ = em_softmax_backward(em_softmax_forward(x, bank, y, exact_cfg))
        for v in range(6):
            g_hat = 2.0 * (w_hats[v] @ kernels[v])
            assert (detached[v] == cls_only[v] + lam * (g_hat / norms[v])).all()
            g_hat = 4.0 * (w_hats[v] @ kernels[v])
            g_hat -= w_hats[v] * np.sum(w_hats[v] * g_hat, axis=0, keepdims=True)
            assert (exact[v] == cls_only[v] + lam * (g_hat / norms[v])).all()

    def test_default_and_exact_modes_differ_when_diversity_active(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(2, 4))
        bank = random_bank(rng, 4, 3, 2)
        y = np.array([0, 1])
        g_default, _ = em_softmax_backward(em_softmax_forward(x, bank, y, LossConfig(0.0, 0.5, 2)))
        g_exact, _ = em_softmax_backward(
            em_softmax_forward(x, bank, y, LossConfig(0.0, 0.5, 2, exact_diversity_grad=True))
        )
        assert not np.allclose(g_default[0], g_exact[0])

    def test_zero_weight_skips_diversity_entirely(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(3, 4))
        bank = random_bank(rng, 4, 3, 2)
        y = np.array([0, 1, 2])
        cfg = LossConfig(0.0, 0.0, 2)
        fwd = em_softmax_forward(x, bank, y, cfg)
        grads, _ = em_softmax_backward(fwd)
        n = x.shape[0]
        for v in range(2):
            onehot = np.zeros((n, 3))
            onehot[np.arange(n), y] = 1.0
            expected = x.T @ ((fwd.probs_per_head[v] - onehot) / n)
            np.testing.assert_array_equal(grads[v], expected)

    @pytest.mark.parametrize("exact", [False, True])
    def test_matches_per_head_reference_bitwise(self, exact):
        # random banks with V 1-6, n 1-8 and some zero columns: the stacked
        # backward must reproduce the head-by-head loop bit for bit
        rng = np.random.default_rng(30 + exact)
        for trial in range(60):
            v, n = int(rng.integers(1, 7)), int(rng.integers(1, 9))
            d, k = int(rng.integers(2, 7)), int(rng.integers(2, 6))
            bank = rng.normal(size=(v, d, k)) * rng.uniform(0.1, 3.0, size=(v, 1, 1))
            if trial % 3 == 0:
                bank[rng.integers(v), :, rng.integers(k)] = 0.0
            x = rng.normal(size=(n, d))
            y = rng.integers(0, k, size=n)
            cfg = LossConfig(float(rng.choice([0.0, 0.7])), float(rng.choice([0.0, 0.3])), v,
                             exact_diversity_grad=exact)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                fwd = em_softmax_forward(x, bank, y, cfg)
            grads, gx = em_softmax_backward(fwd)
            ref_grads, ref_gx = ref_em_softmax_backward(x, list(bank), y, cfg, fwd)
            assert grads.shape == (v, d, k)
            assert (grads == ref_grads).all()
            assert (gx == ref_gx).all()

    @pytest.mark.parametrize("case", ["not_a_forward", "not_a_loss_output"])
    def test_mismatched_forward_rejected(self, case):
        rng = np.random.default_rng(17)
        x, y = rng.normal(size=(3, 4)), np.array([0, 2, 1])
        fwd = em_softmax_forward(x, rng.normal(size=(2, 4, 3)), y, LossConfig(0.5, 0.1, 2))
        if case == "not_a_forward":
            fwd = LossOutput(fwd.total_loss, fwd.classification_term,
                             fwd.diversity_term, fwd.probs_per_head)
        else:
            fwd = (fwd.total_loss, fwd.probs_per_head)
        with pytest.raises(ValueError):
            em_softmax_backward(fwd)
