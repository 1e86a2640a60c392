import copy
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from carnn import training as training_module
from carnn.data import SplitSet, UserSequence, split_sequences
from carnn.errors import ConfigError, NumericalError
from carnn.evaluate import generate_synthetic
from carnn.model import ModelConfig, ModelParams, init_params, load_params, save_params
from carnn.seeding import named_rng
from carnn.training import (EpochStats, GradientBuffer, TrainConfig, _pair_gradients,
                            _recurrence_grads, backprop_sequence, gradient_check, make_examples,
                            sequence_loss, sgd_step, train, write_loss_trace)
from references import (bpr_pair_loss, forward_states, reference_recurrence_grads,
                        reference_score, sample_negative)


def tiny_fixture(seed=0, init_scale=0.1, d=3, n_items=5, n_ctx=2, n_bins=3, length=6):
    config = ModelConfig(d=d, n_items=n_items, n_input_contexts=n_ctx,
                         n_transition_bins=n_bins, seed=seed, init_scale=init_scale)
    params = init_params(config)
    rng = named_rng(seed, "synthetic")
    seq = UserSequence(
        "probe",
        rng.integers(0, n_items, size=length).astype(np.int64),
        np.arange(length, dtype=np.int64) * 86400,
        rng.integers(0, n_ctx, size=length).astype(np.int64),
        rng.integers(0, n_bins, size=length).astype(np.int64),
    )
    return params, seq


class TestConfig:
    def test_zero_learning_rate_allowed_for_diagnostics(self):
        assert TrainConfig(learning_rate=0.0).learning_rate == 0.0

    def test_negative_values_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ConfigError):
            TrainConfig(l2=-0.1)
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(negatives_per_positive=0)
        with pytest.raises(ConfigError):
            TrainConfig(bptt_window=-1)

    @pytest.mark.parametrize("field", ["learning_rate", "l2"])
    @pytest.mark.parametrize("value,message", [
        (np.nan, "is not a finite number"), (np.inf, "is not a finite number"),
        (-np.inf, "is not a finite number"), (10**400, "is not a number"),
        (None, "is not a number"), ("x", "is not a number"),
    ])
    def test_rate_not_a_finite_number_rejected(self, field, value, message):
        with pytest.raises(ConfigError, match=f"{field} .*{message}"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field", ["epochs", "negatives_per_positive", "bptt_window",
                                       "seed"])
    @pytest.mark.parametrize("value", [1.5, 2.5, np.nan, np.inf, "x"])
    def test_count_not_a_whole_number_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} .* is not a whole number"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, 2.5])
    def test_shuffle_not_a_boolean_rejected(self, value):
        with pytest.raises(ConfigError, match="shuffle .* is not a boolean"):
            TrainConfig(shuffle=value)

    def test_numpy_boolean_shuffle_is_coerced(self):
        assert TrainConfig(shuffle=np.bool_(False)).shuffle is False

    def test_numbers_are_coerced(self):
        cfg = TrainConfig(learning_rate=0, l2="0.5", epochs=3.0, bptt_window="2")
        assert (cfg.learning_rate, cfg.l2, cfg.epochs, cfg.bptt_window) == (0.0, 0.5, 3, 2)
        assert type(cfg.learning_rate) is float and type(cfg.epochs) is int
        assert TrainConfig(bptt_window=None).bptt_window is None


class TestPairLoss:
    def test_zero_margin_is_ln2(self):
        assert bpr_pair_loss(1.3, 1.3) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_large_positive_margin_vanishes(self):
        assert bpr_pair_loss(40.0, 0.0) < 1e-17

    def test_unit_margin(self):
        assert bpr_pair_loss(1.0, 0.0) == pytest.approx(0.3132617, abs=1e-7)

    def test_large_negative_margin_is_linear(self):
        assert bpr_pair_loss(0.0, 100.0) == pytest.approx(100.0, abs=1e-12)
        assert math.isfinite(bpr_pair_loss(0.0, 1e6))

    @given(st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50))
    def test_invariant_under_common_shift(self, a, b, c):
        assert bpr_pair_loss(a + c, b + c) == pytest.approx(bpr_pair_loss(a, b), rel=1e-9, abs=1e-12)

    @given(st.floats(-700, 700))
    def test_positive_and_finite(self, x):
        loss = bpr_pair_loss(x, 0.0)
        assert loss > 0.0 and math.isfinite(loss)


class TestSampleNegative:
    def test_two_items_force_the_other(self):
        rng = named_rng(0, "negatives")
        assert all(sample_negative(rng, 0, 2) == 1 for _ in range(20))

    def test_never_returns_positive(self):
        rng = named_rng(1, "negatives")
        for _ in range(2000):
            assert sample_negative(rng, 7, 11) != 7

    def test_uniform_over_non_positives(self):
        rng = named_rng(2, "negatives")
        counts = np.zeros(11, dtype=np.int64)
        for _ in range(10**5):
            counts[sample_negative(rng, 3, 11)] += 1
        assert counts[3] == 0
        expected = 10**5 / 10
        assert np.all(np.abs(counts[counts > 0] - expected) < 0.05 * expected)

    def test_degenerate_vocabulary_rejected(self):
        with pytest.raises(ConfigError):
            sample_negative(named_rng(0, "negatives"), 0, 1)


class TestBackprop:
    def test_scalar_closed_form(self):
        # d=1, the example scores from a nonzero state; every gradient is
        # checked against the chain rule worked out with plain floats
        R = np.array([[0.3], [0.5], [-0.4]])
        M = np.array([[[0.7]]])
        W = np.array([[[0.6]], [[-0.2]]])
        config = ModelConfig(d=1, n_items=3, n_input_contexts=1, n_transition_bins=2)
        p = ModelParams(config, R.copy(), M.copy(), W.copy())
        seq = UserSequence("u", np.array([0, 1]), np.array([0, 1000]),
                           np.array([0, 0]), np.array([1, 0]))
        # position 0 scores from the zero state, so its pair adds nothing to
        # any gradient; position 1 ranks item 1 over item 2
        buf = backprop_sequence(seq, np.array([[1], [2]]), p, TrainConfig())

        sig = lambda x: 1.0 / (1.0 + math.exp(-x))
        h1 = sig(0.3 * 0.7)
        q = h1 * 0.6
        p_pos, p_neg = 0.5 * 0.7, -0.4 * 0.7
        g = -sig(-(q * p_pos - q * p_neg))
        dh1 = g * (p_pos - p_neg) * 0.6
        dz1 = dh1 * h1 * (1.0 - h1)

        assert buf.dR[1, 0] == pytest.approx(g * q * 0.7, abs=1e-15)
        assert buf.dR[2, 0] == pytest.approx(-g * q * 0.7, abs=1e-15)
        assert buf.dR[0, 0] == pytest.approx(dz1 * 0.7, abs=1e-15)
        assert buf.dM_bank[0, 0, 0] == pytest.approx(g * (0.5 + 0.4) * q + 0.3 * dz1, abs=1e-15)
        assert buf.dW_bank[0, 0, 0] == pytest.approx(g * h1 * (p_pos - p_neg), abs=1e-15)
        assert buf.dW_bank[1, 0, 0] == 0.0  # selected with a zero previous state

    def test_nonzero_gradients_without_updates(self):
        # lr=0 training leaves parameters untouched while gradients exist
        params, seq = tiny_fixture(4)
        before = copy.deepcopy(params)
        negatives = make_examples(seq.items, 5, named_rng(4, "negatives"))
        buf = backprop_sequence(seq, negatives, params, TrainConfig(learning_rate=0.0))
        assert np.abs(buf.dR).sum() > 0
        sgd_step(params, buf, TrainConfig(learning_rate=0.0, l2=0.0))
        assert np.array_equal(params.R, before.R)
        assert np.array_equal(params.M_bank, before.M_bank)

    def test_finite_difference_oracle(self):
        params, seq = tiny_fixture(0)
        report = gradient_check(params, seq, TrainConfig(seed=0), epsilon=1e-5)
        assert report.max_rel_error < 1e-4

    def test_finite_difference_with_multiple_negatives(self):
        params, seq = tiny_fixture(5)
        report = gradient_check(params, seq, TrainConfig(seed=5, negatives_per_positive=3))
        assert report.max_rel_error < 1e-4

    def test_epsilon_shrinks_truncation_error(self):
        # in the truncation-dominated regime the error drops ~4x per halving
        params, seq = tiny_fixture(0)
        cfg = TrainConfig(seed=0)
        errors = [gradient_check(params, seq, cfg, epsilon=e).max_rel_error
                  for e in (2e-3, 1e-3, 5e-4)]
        assert errors[1] <= errors[0]
        assert errors[2] <= errors[1]
        assert errors[2] < 0.5 * errors[0]

    def test_truncated_window_covering_sequence_equals_full(self):
        params, seq = tiny_fixture(3)
        negatives = make_examples(seq.items, 5, named_rng(3, "negatives"))
        full = backprop_sequence(seq, negatives, params, TrainConfig(bptt_window=None))
        wide = backprop_sequence(seq, negatives, params, TrainConfig(bptt_window=len(seq)))
        assert np.allclose(full.dR, wide.dR, atol=1e-15)
        assert np.allclose(full.dM_bank, wide.dM_bank, atol=1e-15)
        assert np.allclose(full.dW_bank, wide.dW_bank, atol=1e-15)

    def test_short_window_truncates(self):
        params, seq = tiny_fixture(3)
        negatives = make_examples(seq.items, 5, named_rng(3, "negatives"))
        full = backprop_sequence(seq, negatives, params, TrainConfig(bptt_window=None))
        short = backprop_sequence(seq, negatives, params, TrainConfig(bptt_window=1))
        assert not np.allclose(full.dR, short.dR)

    def test_zero_window_touches_only_scoring_parameters(self):
        params, seq = tiny_fixture(3)
        negatives = make_examples(seq.items, 5, named_rng(3, "negatives"))
        buf = backprop_sequence(seq, negatives, params, TrainConfig(bptt_window=0))
        # without unrolling, only the positives and their negatives carry gradient
        expected = np.zeros(5, dtype=bool)
        expected[seq.items] = expected[negatives] = True
        assert np.array_equal(buf.touched_items, expected)

    def test_example_requires_distinct_items(self):
        params, seq = tiny_fixture(0)
        negatives = make_examples(seq.items, 5, named_rng(0, "negatives"))
        negatives[2, 0] = seq.items[2]
        with pytest.raises(ConfigError, match="position 2 equals its positive"):
            backprop_sequence(seq, negatives, params, TrainConfig())

    @pytest.mark.parametrize("rows", [5, 7])
    def test_negatives_need_one_row_per_position(self, rows):
        params, seq = tiny_fixture(0)
        with pytest.raises(ConfigError, match="one row for each of the 6 positions"):
            backprop_sequence(seq, np.ones((rows, 1), dtype=np.int64), params, TrainConfig())

    def test_negatives_must_be_integer_ids(self):
        params, seq = tiny_fixture(0)
        with pytest.raises(ConfigError, match="integer ids"):
            sequence_loss(seq, np.ones((6, 1)), params)

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_out_of_range_negatives_rejected(self, bad):
        # -1 would otherwise train R's last row; n_items would index past R
        params, seq = tiny_fixture(0)
        negatives = make_examples(seq.items, 5, named_rng(0, "negatives"))
        negatives[4, 0] = bad
        before = copy.deepcopy(params)
        with pytest.raises(ConfigError, match=f"negative item {bad} out of range"):
            backprop_sequence(seq, negatives, params, TrainConfig())
        with pytest.raises(ConfigError, match=f"negative item {bad} out of range"):
            gradient_check(params, seq, TrainConfig(), negatives=negatives)
        assert np.array_equal(params.R, before.R)

    @pytest.mark.parametrize("k", [1, 3])
    def test_make_examples_is_the_sample_negative_stream(self, k):
        # the draws behind byte-identical model files: position by position,
        # then negative by negative, one sample_negative call each
        params, seq = tiny_fixture(1, length=9)
        negatives = make_examples(seq.items, 5, named_rng(1, "negatives"), k)
        rng = named_rng(1, "negatives")
        expected = [[sample_negative(rng, int(pos), 5) for _ in range(k)] for pos in seq.items]
        assert negatives.dtype == np.int64 and negatives.shape == (9, k)
        assert negatives.tolist() == expected

    def test_make_examples_of_an_empty_sequence(self):
        params, seq = tiny_fixture(0, length=0)
        negatives = make_examples(seq.items, 5, named_rng(0, "negatives"), 2)
        assert negatives.shape == (0, 2) and negatives.dtype == np.int64
        assert sequence_loss(seq, negatives, params) == 0.0
        # an empty sequence needs no annotations, as in forward_states
        bare = UserSequence("u", seq.items, seq.timestamps)
        assert sequence_loss(bare, negatives, params) == 0.0
        assert not backprop_sequence(bare, negatives, params, TrainConfig()).touched_items.any()


def reference_pair_gradients(seq, negatives, p, cfg):
    """The summed pair loss and its gradients, position by position and pair
    by pair, with each backward step accumulated into the banks as it is
    taken: the loop that training's stacked scoring path replaced, kept as
    its oracle. Returns (loss, GradientBuffer)."""
    buf = GradientBuffer(p)
    R, M, W = p.R, p.M_bank, p.W_bank
    H = forward_states(seq, p)
    act = H * (1.0 - H)
    L = len(seq)
    items = seq.items.tolist()
    m_slots = seq.input_ctxs.tolist() if p.config.use_input_contexts else [0] * L
    w_slots = seq.trans_bins.tolist() if p.config.use_transition_contexts else [0] * L

    def step_back(j, dh_next):
        dz = dh_next * act[j + 1]
        v, ms, ws = items[j], m_slots[j], w_slots[j]
        buf.dR[v] += dz @ M[ms].T
        buf.dM_bank[ms] += np.outer(R[v], dz)
        buf.dW_bank[ws] += np.outer(H[j], dz)
        buf.touched_items[v] = buf.touched_m[ms] = buf.touched_w[ws] = True
        return dz @ W[ws].T

    dh = np.zeros_like(H)
    total = 0.0
    for j, negs in enumerate(negatives.tolist()):
        pos, ms, ws = items[j], m_slots[j], w_slots[j]
        h, q, r_pos = H[j], H[j] @ W[ws], R[pos]
        p_pos = r_pos @ M[ms]
        y_pos = float(q @ p_pos)
        for neg in negs:
            p_neg = R[neg] @ M[ms]
            y_neg = float(q @ p_neg)
            total += bpr_pair_loss(y_pos, y_neg)
            x = y_pos - y_neg
            g = -math.exp(-x) / (1.0 + math.exp(-x)) if x >= 0.0 else -1.0 / (1.0 + math.exp(x))
            if g == 0.0:
                continue
            u = g * (q @ M[ms].T)
            buf.dR[pos] += u
            buf.dR[neg] -= u
            buf.touched_items[[pos, neg]] = True
            diff = p_pos - p_neg
            buf.dW_bank[ws] += np.outer(h, g * diff)
            buf.touched_w[ws] = True
            buf.dM_bank[ms] += np.outer(g * (r_pos - R[neg]), q)
            buf.touched_m[ms] = True
            dh[j] += g * (diff @ W[ws].T)
    if cfg.bptt_window is None:
        for j in range(L - 1, -1, -1):
            if dh[j + 1].any():
                dh[j] += step_back(j, dh[j + 1])
    elif cfg.bptt_window > 0:
        for j in range(L):
            cur = dh[j]
            if cur.any():
                for s in range(j - 1, max(j - 1 - cfg.bptt_window, -1), -1):
                    cur = step_back(s, cur)
    return total, buf


# Stacked products and per-sequence reductions sum in another order than the
# reference loop. Each bank must agree within this many ulp of its largest
# reference entry, and the loss within as many ulp of its value. The cases
# below measured at most 6, and the same grid over three seeds at most 10.
GRADIENT_ULPS = 16


def assert_matches_reference(seq, negatives, p, cfg):
    loss, ref = reference_pair_gradients(seq, negatives, p, cfg)
    buf = GradientBuffer(p)
    got = _pair_gradients(seq.items, seq.input_ctxs, seq.trans_bins, negatives, p, cfg, buf)
    eps = np.finfo(np.float64).eps
    assert abs(got - loss) <= GRADIENT_ULPS * eps * loss
    for name in ("dR", "dM_bank", "dW_bank"):
        want = getattr(ref, name)
        assert np.all(np.abs(getattr(buf, name) - want)
                      <= GRADIENT_ULPS * eps * np.abs(want).max()), name
    assert np.array_equal(buf.touched_items, ref.touched_items)
    assert np.array_equal(buf.touched_m, ref.touched_m)
    assert np.array_equal(buf.touched_w, ref.touched_w)
    return ref


class TestAgainstReferenceLoop:
    @pytest.mark.parametrize("window", [None, 0, 1, 3])
    @pytest.mark.parametrize("k", [1, 3])
    # 0.5 keeps the states inside the logistic's slope; at 3.0 most of them
    # saturate, so H * (1 - H) is tiny and many pair derivatives are near 0
    @pytest.mark.parametrize("init_scale", [0.5, 3.0])
    @pytest.mark.parametrize("use_in,use_tr", [(True, True), (True, False), (False, True),
                                               (False, False)])
    def test_gradients_loss_and_touched_masks(self, use_in, use_tr, init_scale, k, window):
        for length in (0, 1, 2, 9, 40):
            config = ModelConfig(d=4, n_items=7, n_input_contexts=3, n_transition_bins=4,
                                 use_input_contexts=use_in, use_transition_contexts=use_tr,
                                 seed=length, init_scale=init_scale)
            p = init_params(config)
            rng = named_rng(length, "synthetic")
            seq = UserSequence("u", rng.integers(0, 7, size=length),
                               np.arange(length, dtype=np.int64) * 86400,
                               rng.integers(0, 3, size=length), rng.integers(0, 4, size=length))
            negatives = make_examples(seq.items, 7, named_rng(length, "negatives"), k)
            assert_matches_reference(seq, negatives, p, TrainConfig(bptt_window=window))

    @pytest.mark.parametrize("use_in,use_tr", [(True, True), (True, False), (False, True),
                                               (False, False)])
    def test_scores_from_the_states_of_forward_states(self, monkeypatch, use_in, use_tr):
        # training steps from the gathers its scoring path shares; a switched-off
        # bank is gathered per position there and broadcast in forward_states
        seen = []
        real = training_module.unroll
        monkeypatch.setattr(training_module, "unroll", lambda U, W: seen.append(real(U, W))
                            or seen[-1])
        config = ModelConfig(d=4, n_items=7, n_input_contexts=3, n_transition_bins=4,
                             use_input_contexts=use_in, use_transition_contexts=use_tr,
                             init_scale=2.0)
        p = init_params(config)
        rng = named_rng(5, "synthetic")
        seq = UserSequence("u", rng.integers(0, 7, size=30), np.arange(30) * 86400,
                           rng.integers(0, 3, size=30), rng.integers(0, 4, size=30))
        _pair_gradients(seq.items, seq.input_ctxs, seq.trans_bins,
                        make_examples(seq.items, 7, rng, 2), p, TrainConfig(), GradientBuffer(p))
        assert len(seen) == 1
        assert np.array_equal(seen[0].view(np.uint64), forward_states(seq, p).view(np.uint64))

    def test_underflowed_pairs_touch_nothing(self):
        # d=1, |R| = 500: every state after the zero state saturates to exactly
        # 1.0, so each pair after the first has a margin of 1000, past where
        # e^-x underflows, and a derivative of exactly 0
        config = ModelConfig(d=1, n_items=4, n_input_contexts=1, n_transition_bins=1)
        p = ModelParams(config, np.array([[500.0], [500.0], [-500.0], [-500.0]]),
                        np.ones((1, 1, 1)), np.ones((1, 1, 1)))
        seq = UserSequence("u", np.array([0, 1, 0, 1]), np.arange(4) * 60,
                           np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64))
        negatives = np.array([[2], [3], [3], [3]])
        ref = assert_matches_reference(seq, negatives, p, TrainConfig())
        # only position 0, scored from the zero state, has a live pair
        assert np.flatnonzero(ref.touched_items).tolist() == [0, 2]
        assert not ref.dR[3].any()


class TestRecurrenceGrads:
    @pytest.mark.parametrize("window", [None, 0, 1, 3, 100])
    @pytest.mark.parametrize("d", [1, 4, 10])
    def test_bits_of_the_textbook_loop(self, window, d):
        rng = np.random.default_rng(d)
        for length in (0, 1, 2, 3, 9, 40):
            states = 1.0 / (1.0 + np.exp(-rng.normal(0.0, 3.0, size=(length + 1, d))))
            act = states * (1.0 - states)
            Ws = rng.normal(0.0, 1.0, size=(length, d, d))
            dh = rng.normal(0.0, 1.0, size=(length, d))
            dh[rng.random(length) < 0.3] = 0.0  # positions with no live pair
            got_e, got_stepped = _recurrence_grads(dh, act, Ws, window)
            want_e, want_stepped = reference_recurrence_grads(dh, act, Ws, window)
            assert np.array_equal(got_e.view(np.uint64), want_e.view(np.uint64))
            assert np.array_equal(got_stepped, want_stepped)


class TestSgdStep:
    def scalar_params(self, value):
        config = ModelConfig(d=1, n_items=1, n_input_contexts=1, n_transition_bins=1)
        return ModelParams(config, np.array([[value]]), np.zeros((1, 1, 1)), np.zeros((1, 1, 1)))

    def test_zero_gradient_zero_l2_is_noop(self):
        p = self.scalar_params(1.0)
        buf = GradientBuffer(p)
        sgd_step(p, buf, TrainConfig(learning_rate=0.1, l2=0.0))
        assert p.R[0, 0] == 1.0

    def test_fresh_buffer_changes_nothing(self):
        # nothing touched: no bank is decayed, whatever the rates
        params, _ = tiny_fixture(0)
        before = copy.deepcopy(params)
        sgd_step(params, GradientBuffer(params), TrainConfig(learning_rate=0.5, l2=0.5))
        assert np.array_equal(params.R, before.R)
        assert np.array_equal(params.M_bank, before.M_bank)
        assert np.array_equal(params.W_bank, before.W_bank)

    def test_clear_zeroes_touched_groups_and_masks(self):
        params, seq = tiny_fixture(2)
        negatives = make_examples(seq.items, 5, named_rng(2, "negatives"))
        buf = backprop_sequence(seq, negatives, params, TrainConfig())
        assert buf.touched_items.any() and buf.touched_m.any() and buf.touched_w.any()
        buf.clear()
        for name in ("dR", "dM_bank", "dW_bank", "touched_items", "touched_m", "touched_w"):
            assert not getattr(buf, name).any(), name

    @pytest.mark.parametrize("window", [None, 0, 2])
    @pytest.mark.parametrize("k", [1, 3])
    # at 30.0 many pair derivatives underflow to 0 while the recurrence still steps
    @pytest.mark.parametrize("init_scale", [0.5, 30.0])
    @pytest.mark.parametrize("use_in,use_tr", [(True, True), (True, False), (False, True),
                                               (False, False)])
    def test_clear_after_real_steps_leaves_every_bank_zero(self, use_in, use_tr, init_scale,
                                                           k, window):
        # clear zeroes the touched rows only, so every row a step wrote must be touched
        config = ModelConfig(d=4, n_items=7, n_input_contexts=3, n_transition_bins=4,
                             use_input_contexts=use_in, use_transition_contexts=use_tr,
                             seed=k, init_scale=init_scale)
        p = init_params(config)
        cfg = TrainConfig(learning_rate=0.1, bptt_window=window)
        buf = GradientBuffer(p)
        for length in (1, 2, 9, 40):
            rng = named_rng(length, "synthetic")
            items = rng.integers(0, 7, size=length)
            negatives = make_examples(items, 7, named_rng(length, "negatives"), k)
            _pair_gradients(items, rng.integers(0, 3, size=length),
                            rng.integers(0, 4, size=length), negatives, p, cfg, buf)
            sgd_step(p, buf, cfg)
            buf.clear()
            for name in ("dR", "dM_bank", "dW_bank", "touched_items", "touched_m",
                         "touched_w"):
                assert not getattr(buf, name).any(), (length, name)

    def test_plain_arithmetic(self):
        p = self.scalar_params(1.0)
        buf = GradientBuffer(p)
        buf.dR[0, 0] = 2.0
        buf.touched_items[0] = True
        sgd_step(p, buf, TrainConfig(learning_rate=0.1, l2=0.0))
        assert p.R[0, 0] == pytest.approx(0.8, abs=1e-15)

    def test_touched_zero_gradient_still_decays(self):
        p = self.scalar_params(1.0)
        buf = GradientBuffer(p)
        buf.touched_items[0] = True  # touched, gradient value zero
        sgd_step(p, buf, TrainConfig(learning_rate=0.1, l2=0.01))
        assert p.R[0, 0] == pytest.approx(0.999, abs=1e-15)

    def test_untouched_parameter_receives_no_decay(self):
        config = ModelConfig(d=1, n_items=2, n_input_contexts=1, n_transition_bins=1)
        p = ModelParams(config, np.array([[1.0], [1.0]]), np.zeros((1, 1, 1)),
                        np.zeros((1, 1, 1)))
        buf = GradientBuffer(p)
        buf.dR[0, 0] = 1.0
        buf.touched_items[0] = True
        sgd_step(p, buf, TrainConfig(learning_rate=0.1, l2=0.5))
        assert p.R[0, 0] != 1.0
        assert p.R[1, 0] == 1.0  # untouched row: no lazy decay applied

    def test_non_finite_gradient_names_the_bank(self):
        p = self.scalar_params(1.0)
        buf = GradientBuffer(p)
        buf.dM_bank[0, 0, 0] = float("nan")
        buf.touched_m[0] = True
        with pytest.raises(NumericalError, match=r"M_bank\[0\]"):
            sgd_step(p, buf, TrainConfig())

    def test_finite_gradient_whose_sum_overflows_updates_quietly(self):
        config = ModelConfig(d=2, n_items=1, n_input_contexts=1, n_transition_bins=1)
        p = ModelParams(config, np.array([[1.0, -2.0]]), np.zeros((1, 2, 2)),
                        np.zeros((1, 2, 2)))
        buf = GradientBuffer(p)
        buf.dR[0] = [1e308, 1e308]
        buf.touched_items[0] = True
        with pytest.warns(RuntimeWarning, match="overflow encountered in reduce"):
            assert not math.isfinite(buf.dR[0].sum())  # so a sum is no finiteness screen
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sgd_step(p, buf, TrainConfig(learning_rate=0.01, l2=0.5))
        assert p.R[0].tolist() == [1.0 - 0.01 * (1e308 + 0.5 * 1.0),
                                   -2.0 - 0.01 * (1e308 + 0.5 * -2.0)]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("bank", ["R", "M_bank", "W_bank"])
    def test_non_finite_gradient_leaves_its_bank_and_later_ones_untouched(self, bank, bad):
        params, _ = tiny_fixture(0, n_ctx=3)  # three rows in every bank
        buf = GradientBuffer(params)
        for name in ("touched_items", "touched_m", "touched_w"):
            getattr(buf, name)[:] = True
        for name in ("dR", "dM_bank", "dW_bank"):
            getattr(buf, name)[...] = 0.25
        grad = {"R": buf.dR, "M_bank": buf.dM_bank, "W_bank": buf.dW_bank}[bank]
        grad[1].flat[-1] = bad  # the first bad row is 1; row 2 is bad too
        grad[2].flat[0] = float("nan")
        before = copy.deepcopy(params)
        with pytest.raises(NumericalError, match=rf"non-finite gradient in {bank}\[1\]"):
            sgd_step(params, buf, TrainConfig(learning_rate=0.1, l2=0.01))
        order = ["R", "M_bank", "W_bank"]
        for name in order:
            changed = not np.array_equal(getattr(params, name), getattr(before, name))
            assert changed == (order.index(name) < order.index(bank)), name

    @pytest.mark.parametrize("bank", ["R", "M_bank", "W_bank"])
    def test_overflowing_step_leaves_its_bank_and_later_ones_untouched(self, bank):
        params, _ = tiny_fixture(0, n_ctx=3)  # three rows in every bank
        buf = GradientBuffer(params)
        for name in ("touched_items", "touched_m", "touched_w"):
            getattr(buf, name)[:] = True
        for name in ("dR", "dM_bank", "dW_bank"):
            getattr(buf, name)[...] = 0.25
        grad = {"R": buf.dR, "M_bank": buf.dM_bank, "W_bank": buf.dW_bank}[bank]
        grad[1].flat[-1] = 1e300  # finite, but 1e10 times it is not; row 2 too
        grad[2].flat[0] = -1e300
        before = copy.deepcopy(params)
        with pytest.raises(NumericalError, match=rf"step overflowed {bank}\[1\]"):
            sgd_step(params, buf, TrainConfig(learning_rate=1e10, l2=0.01))
        order = ["R", "M_bank", "W_bank"]
        for name in order:
            assert np.isfinite(getattr(params, name)).all(), name
            changed = not np.array_equal(getattr(params, name), getattr(before, name))
            assert changed == (order.index(name) < order.index(bank)), name

    def test_non_finite_gradient_is_named_before_an_overflow(self):
        params, _ = tiny_fixture(0)
        buf = GradientBuffer(params)
        buf.touched_items[[1, 3]] = True
        buf.dR[1, 0] = 1e300
        buf.dR[3, 2] = float("nan")
        with pytest.raises(NumericalError, match=r"non-finite gradient in R\[3\]"):
            sgd_step(params, buf, TrainConfig(learning_rate=1e10, l2=0.0))

    def test_non_finite_gradient_names_its_row(self):
        # the row is named in the bank, not by its place among the touched rows
        params, _ = tiny_fixture(0)
        buf = GradientBuffer(params)
        buf.touched_items[[1, 3]] = True
        buf.dR[3, 2] = float("inf")
        with pytest.raises(NumericalError, match=r"non-finite gradient in R\[3\]"):
            sgd_step(params, buf, TrainConfig())


def planted_split(seed=9, n_users=20, n_items=20, seq_len=30, n_ctx=4):
    seqs, scheme = generate_synthetic(n_users, n_items, seq_len, n_ctx,
                                      signal="input_ctx", seed=seed)
    return split_sequences(seqs, 0.8), scheme


class TestTrain:
    def make_model(self, scheme, n_items, seed=1, d=4, **variant):
        config = ModelConfig(d=d, n_items=n_items,
                             n_input_contexts=scheme.n_input_contexts,
                             n_transition_bins=scheme.n_transition_bins, seed=seed, **variant)
        return init_params(config)

    def test_single_epoch_single_pass(self):
        split, scheme = planted_split()
        p = self.make_model(scheme, split.sequences.n_items)
        _, trace = train(split, p, TrainConfig(epochs=1, seed=1))
        assert len(trace) == 1
        assert trace[0].epoch == 1

    def test_fixed_seed_reproduces_loss_trace(self):
        split, scheme = planted_split()
        cfg = TrainConfig(epochs=3, seed=7)
        _, trace_a = train(split, self.make_model(scheme, split.sequences.n_items), cfg)
        _, trace_b = train(split, self.make_model(scheme, split.sequences.n_items), cfg)
        assert [t.mean_pair_loss for t in trace_a] == [t.mean_pair_loss for t in trace_b]

    def test_zero_rates_leave_parameters_unchanged(self):
        split, scheme = planted_split()
        p = self.make_model(scheme, split.sequences.n_items)
        before = copy.deepcopy(p)
        train(split, p, TrainConfig(learning_rate=0.0, l2=0.0, epochs=2, seed=1))
        assert np.array_equal(p.R, before.R)
        assert np.array_equal(p.M_bank, before.M_bank)
        assert np.array_equal(p.W_bank, before.W_bank)

    def test_loaded_model_trains_like_the_saved_one(self, tmp_path):
        split, scheme = planted_split()
        p = self.make_model(scheme, split.sequences.n_items)
        path = str(tmp_path / "m.carn")
        save_params(p, path)
        cfg = TrainConfig(epochs=1, seed=1)
        loaded, _ = train(split, load_params(path), cfg)
        expected, _ = train(split, p, cfg)
        assert not np.array_equal(loaded.R, load_params(path).R)
        assert np.array_equal(loaded.R, expected.R)
        assert np.array_equal(loaded.M_bank, expected.M_bank)
        assert np.array_equal(loaded.W_bank, expected.W_bank)

    def test_loss_descends_on_planted_structure(self):
        split, scheme = planted_split(seed=11, n_users=50)
        p = self.make_model(scheme, split.sequences.n_items, d=6)
        _, trace = train(split, p, TrainConfig(learning_rate=0.05, epochs=10, seed=2))
        assert trace[9].mean_pair_loss < trace[0].mean_pair_loss

    def test_numerical_abort_carries_coordinates(self):
        split, scheme = planted_split()
        p = self.make_model(scheme, split.sequences.n_items)
        p.R[0, 0] = float("nan")
        with pytest.raises(NumericalError, match="epoch 1, user"):
            train(split, p, TrainConfig(epochs=1, seed=1))

    def test_requires_annotated_sequences(self):
        split, scheme = planted_split()
        split = SplitSet(replace(split.sequences, input_ctxs=None, trans_bins=None), split.n_train)
        p = self.make_model(scheme, split.sequences.n_items)
        with pytest.raises(ConfigError):
            train(split, p, TrainConfig(epochs=1))

    def test_out_of_range_items_are_config_errors(self):
        # the forward pass gathers rows with take, which wraps -1 to the last
        # row of R or of a bank; n would index past it
        _, scheme = planted_split()
        fields = (("items", "item index", 20),
                  ("input_ctxs", "input context", scheme.n_input_contexts),
                  ("trans_bins", "transition bin", scheme.n_transition_bins))
        for field, name, n in fields:
            for bad in (-1, n):
                split, _ = planted_split()
                getattr(split.sequences.sequences[3], field)[5] = bad
                with pytest.raises(ConfigError, match=f"{name} {bad} out of range"):
                    train(split, self.make_model(scheme, 20), TrainConfig(epochs=1))
        # a switched-off bank has one matrix and ignores the ids it would select by
        for field, switch, n in (("input_ctxs", "use_input_contexts", scheme.n_input_contexts),
                                 ("trans_bins", "use_transition_contexts",
                                  scheme.n_transition_bins)):
            expected, _ = train(planted_split()[0], self.make_model(scheme, 20, **{switch: False}),
                                TrainConfig(epochs=1))
            for bad in (-1, n):
                split, _ = planted_split()
                getattr(split.sequences.sequences[3], field)[5] = bad
                got, _ = train(split, self.make_model(scheme, 20, **{switch: False}),
                               TrainConfig(epochs=1))
                for bank in ("R", "M_bank", "W_bank"):
                    assert np.array_equal(getattr(got, bank), getattr(expected, bank))

    def test_steps_slices_of_the_columns_and_builds_no_views(self):
        split, scheme = planted_split()
        train(split, self.make_model(scheme, 20), TrainConfig(epochs=1))
        assert "sequences" not in split.sequences.__dict__

    def test_checks_the_training_events_once_and_only_them(self, monkeypatch):
        _, scheme = planted_split()
        expected, _ = train(planted_split()[0], self.make_model(scheme, 20), TrainConfig(epochs=1))
        split, _ = planted_split()
        items, first_held = split.sequences.items, split.sequences.offsets[3] + split.n_train[3]
        items[first_held] = -1  # a held-out event, which training never reads
        sizes = []
        real = ModelParams.check_ids
        monkeypatch.setattr(ModelParams, "check_ids",
                            lambda p, ids, *rest: sizes.append(len(ids)) or real(p, ids, *rest))
        got, _ = train(split, self.make_model(scheme, 20), TrainConfig(epochs=1))
        assert sizes == [int(split.n_train.sum())]
        for bank in ("R", "M_bank", "W_bank"):
            assert np.array_equal(getattr(got, bank), getattr(expected, bank))
        items[first_held - 1] = 20  # user 3's last training event
        with pytest.raises(ConfigError, match=r"item index 20 out of range \[0, 20\)"):
            train(split, self.make_model(scheme, 20), TrainConfig(epochs=1))

    def test_n_train_past_a_users_length_is_a_config_error(self):
        # the slice would run into user 3's events
        split, scheme = planted_split()
        n_train = split.n_train.copy()
        n_train[2] = 31
        with pytest.raises(ConfigError, match=r"user 'u2' has n_train=31 outside \[0, 30\]"):
            train(SplitSet(split.sequences, n_train), self.make_model(scheme, 20),
                  TrainConfig(epochs=1))

    def test_loss_trace_csv_round_trip(self, tmp_path):
        trace = [EpochStats(1, 0.6931, 0.5), EpochStats(2, 0.5120, 0.4)]
        path = str(tmp_path / "loss.csv")
        write_loss_trace(trace, path)
        lines = Path(path).read_text().strip().splitlines()
        assert lines[0] == "epoch,mean_pair_loss,wall_seconds"
        assert lines[1].startswith("1,0.6931,")
        assert len(lines) == 3


class TestObjectiveHelpers:
    def test_sequence_loss_matches_pair_loss_sum(self):
        params, seq = tiny_fixture(2)
        negatives = make_examples(seq.items, 5, named_rng(2, "negatives"), 2)
        states = forward_states(seq, params)
        expected = 0.0
        for j, negs in enumerate(negatives):
            ctx, bin_ = seq.input_ctxs[j], seq.trans_bins[j]
            y_pos = reference_score(states[j], seq.items[j], ctx, bin_, params)
            for neg in negs:
                expected += bpr_pair_loss(y_pos, reference_score(states[j], neg, ctx, bin_,
                                                                 params))
        assert sequence_loss(seq, negatives, params) == pytest.approx(expected, rel=1e-12)
