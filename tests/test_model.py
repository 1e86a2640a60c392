import struct
import tracemalloc
import zlib
from dataclasses import replace
from itertools import repeat
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from carnn import model, store
from carnn.context import ContextScheme
from carnn.data import UserSequence
from carnn.errors import CompatibilityError, ConfigError, FormatError, NumericalError
from carnn.linalg import sigmoid_vec
from carnn.model import (ModelConfig, ModelParams, check_compatibility,
                         hidden_step, init_params, load_params, save_params, score_all,
                         states_at, step_inputs, top_n, unroll)
from conftest import reseal, version_1_model
from references import (forward_states, reference_score, reference_scores, reference_step,
                        reference_top_n, sequence_set)


def manual_params(R, M_bank, W_bank, use_input=True, use_trans=True):
    R = np.asarray(R, dtype=np.float64)
    M = np.asarray(M_bank, dtype=np.float64)
    W = np.asarray(W_bank, dtype=np.float64)
    config = ModelConfig(d=R.shape[1], n_items=R.shape[0],
                         n_input_contexts=M.shape[0], n_transition_bins=W.shape[0],
                         use_input_contexts=use_input, use_transition_contexts=use_trans)
    return ModelParams(config, R, M, W)


def random_annotated_sequence(rng, length, n_items, n_ctx, n_bins):
    return UserSequence(
        "u",
        rng.integers(0, n_items, size=length).astype(np.int64),
        np.arange(length, dtype=np.int64) * 1000,
        rng.integers(0, n_ctx, size=length).astype(np.int64),
        rng.integers(0, n_bins, size=length).astype(np.int64),
    )


def as_set(seqs):
    """The sequences as one SequenceSet, user k named "u{k}"."""
    return sequence_set([replace(seq, user=f"u{k}") for k, seq in enumerate(seqs)], {})


def all_states(seq, p):
    """The states of one sequence at every position, from ``states_at``."""
    return states_at(as_set([seq]), [np.arange(len(seq) + 1)], p)


class TestConfig:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(ConfigError):
            ModelConfig(d=0, n_items=5, n_input_contexts=1, n_transition_bins=1)
        with pytest.raises(ConfigError):
            ModelConfig(d=2, n_items=0, n_input_contexts=1, n_transition_bins=1)
        with pytest.raises(ConfigError):
            ModelConfig(d=2, n_items=5, n_input_contexts=0, n_transition_bins=1)

    @pytest.mark.parametrize("field", ["d", "n_items", "n_input_contexts",
                                       "n_transition_bins", "seed"])
    @pytest.mark.parametrize("value", [2.5, np.nan, np.inf, None, "x"])
    def test_int_field_not_a_whole_number_rejected(self, field, value):
        kw = dict(d=2, n_items=5, n_input_contexts=1, n_transition_bins=1)
        with pytest.raises(ConfigError, match=f"{field} .* is not a whole number"):
            ModelConfig(**{**kw, field: value})

    @pytest.mark.parametrize("value,message", [
        (np.nan, "is not a finite number"), (np.inf, "is not a finite number"),
        (-np.inf, "is not a finite number"), (10**400, "is not a number"),
        (None, "is not a number"), ("x", "is not a number"), (-0.1, "must be >= 0"),
        (1e308, "twice it overflows"), (np.finfo(float).max, "twice it overflows"),
    ])
    def test_init_scale_not_a_finite_non_negative_number_rejected(self, value, message):
        with pytest.raises(ConfigError, match=f"init_scale .*{message}"):
            ModelConfig(d=2, n_items=5, n_input_contexts=1, n_transition_bins=1,
                        init_scale=value)

    def test_largest_init_scale_initialises(self):
        scale = np.finfo(float).max / 2
        p = init_params(ModelConfig(d=2, n_items=5, n_input_contexts=1, n_transition_bins=1,
                                    init_scale=scale))
        assert np.all(np.abs(p.R) <= scale)

    @pytest.mark.parametrize("field", ["use_input_contexts", "use_transition_contexts"])
    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, 2.5])
    def test_switch_not_a_boolean_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} .* is not a boolean"):
            ModelConfig(d=2, n_items=5, n_input_contexts=3, n_transition_bins=4,
                        **{field: value})

    def test_numpy_booleans_are_coerced(self):
        config = ModelConfig(d=2, n_items=5, n_input_contexts=3, n_transition_bins=4,
                             use_input_contexts=np.bool_(False),
                             use_transition_contexts=np.bool_(True))
        assert config.use_input_contexts is False and config.use_transition_contexts is True
        assert (config.m_slots, config.w_slots) == (1, 4)

    def test_numbers_are_coerced(self):
        config = ModelConfig(d=4.0, n_items="5", n_input_contexts=np.int64(2),
                             n_transition_bins=1, init_scale=1)
        assert (config.d, config.n_items, config.n_input_contexts) == (4, 5, 2)
        assert type(config.d) is type(config.n_input_contexts) is int
        assert type(config.init_scale) is float

    def test_singleton_banks_when_switched_off(self):
        config = ModelConfig(d=2, n_items=3, n_input_contexts=42, n_transition_bins=32,
                             use_input_contexts=False, use_transition_contexts=False)
        assert config.m_slots == 1
        assert config.w_slots == 1


class TestInit:
    def test_same_seed_is_bit_identical(self):
        config = ModelConfig(d=4, n_items=7, n_input_contexts=3, n_transition_bins=5, seed=9)
        a, b = init_params(config), init_params(config)
        assert np.array_equal(a.R, b.R)
        assert np.array_equal(a.M_bank, b.M_bank)
        assert np.array_equal(a.W_bank, b.W_bank)

    def test_different_seed_differs(self):
        c1 = ModelConfig(d=4, n_items=7, n_input_contexts=3, n_transition_bins=5, seed=1)
        c2 = ModelConfig(d=4, n_items=7, n_input_contexts=3, n_transition_bins=5, seed=2)
        assert not np.array_equal(init_params(c1).R, init_params(c2).R)

    def test_zero_scale_gives_zero_parameters(self):
        config = ModelConfig(d=3, n_items=4, n_input_contexts=2, n_transition_bins=2,
                             init_scale=0.0)
        p = init_params(config)
        assert not p.R.any() and not p.M_bank.any() and not p.W_bank.any()

    def test_parameter_count_for_declared_shapes(self):
        config = ModelConfig(d=10, n_items=100, n_input_contexts=42, n_transition_bins=32)
        p = init_params(config)
        assert p.R.shape == (100, 10)
        assert p.M_bank.shape == (42, 10, 10) and p.W_bank.shape == (32, 10, 10)
        assert p.R.size + p.M_bank.size + p.W_bank.size == 100 * 10 + 42 * 100 + 32 * 100 == 8400

    def test_banks_past_physical_memory_are_config_errors(self):
        # d=10**12 asks for about 3.2e25 bytes: refused before anything is drawn
        config = ModelConfig(d=10**12, n_items=3, n_input_contexts=2, n_transition_bins=2)
        with mock.patch.object(model, "named_rng", side_effect=AssertionError("drew")):
            with pytest.raises(ConfigError, match=r"d=1000000000000, 3 items, 2 input and 2 "
                                                  r"transition matrices take \d+ bytes, more "
                                                  r"than the \d+ bytes of physical memory"):
                init_params(config)

    def test_bounded_by_init_scale(self):
        config = ModelConfig(d=5, n_items=10, n_input_contexts=3, n_transition_bins=3,
                             init_scale=0.1)
        p = init_params(config)
        for bank in (p.R, p.M_bank, p.W_bank):
            assert np.all(np.abs(bank) <= 0.1)


def one_step_inputs(item, ctx, bin_, p):
    """``step_inputs`` of a single step."""
    return step_inputs(np.array([item]), np.array([ctx]), np.array([bin_]), p)


class TestHiddenStep:
    def test_zero_inputs_give_half(self):
        p = manual_params(np.zeros((2, 3)), np.zeros((1, 3, 3)), np.zeros((1, 3, 3)))
        u, w = one_step_inputs(0, 0, 0, p)
        assert np.allclose(hidden_step(np.zeros(3), u[0], w[0]), 0.5)

    def test_scalar_hand_evaluation(self):
        p = manual_params([[1.0]], [[[2.0]]], [[[-1.0]]])
        u, w = one_step_inputs(0, 0, 0, p)
        assert u.tolist() == [[2.0]] and w.tolist() == [[[-1.0]]]
        h = hidden_step(np.array([0.5]), u[0], w[0])
        assert h[0] == pytest.approx(0.8175744761936437, abs=1e-12)

    @pytest.mark.parametrize("d", [1, 3, 10, 17])
    def test_scratch_gives_the_bits_of_a_step_row_by_row(self, d):
        rng = np.random.default_rng(d)
        for shape in ((d,), (5, d)):
            h, u = rng.uniform(0.0, 1.0, shape), rng.normal(0.0, 3.0, shape)
            # a transition matrix per row, and one shared by every row
            for w in (rng.normal(0.0, 1.0, (*shape[:-1], d, d)), rng.normal(0.0, 1.0, (d, d))):
                rows = zip(h.reshape(-1, d), u.reshape(-1, d),
                           w.reshape(-1, d, d) if w.ndim == len(shape) + 1 else repeat(w))
                want = np.array([sigmoid_vec(ur + hr @ wr) for hr, ur, wr in rows])
                want = want.reshape(shape).view(np.uint64)
                scratch = np.full((3, *shape), 7.0)
                assert np.array_equal(hidden_step(h, u, w).view(np.uint64), want)
                assert np.array_equal(hidden_step(h, u, w, scratch=scratch).view(np.uint64), want)
                out = np.full(shape, 7.0)
                assert hidden_step(h, u, w, out=out, scratch=scratch) is out
                assert np.array_equal(out.view(np.uint64), want)
                # the new state may overwrite the previous one
                inplace = h.copy()
                hidden_step(inplace, u, w, out=inplace, scratch=scratch)
                assert np.array_equal(inplace.view(np.uint64), want)

    @pytest.mark.parametrize("shared", [False, True])
    def test_unroll_is_a_loop_of_hidden_steps(self, shared):
        rng = np.random.default_rng(11)
        n, d = 9, 4
        U = rng.normal(0.0, 2.0, (n, d))
        W = rng.normal(0.0, 1.0, (d, d) if shared else (n, d, d))
        H = unroll(U, W)
        assert H.shape == (n + 1, d) and not H[0].any()
        h = np.zeros(d)
        for k in range(n):
            h = hidden_step(h, U[k], W if shared else W[k])
            assert np.array_equal(H[k + 1].view(np.uint64), h.view(np.uint64))

    def test_state_stays_in_open_unit_interval(self):
        rng = np.random.default_rng(3)
        config = ModelConfig(d=6, n_items=9, n_input_contexts=4, n_transition_bins=5, seed=3)
        H = all_states(random_annotated_sequence(rng, 50, 9, 4, 5), init_params(config))
        assert np.all(H[1:] > 0.0) and np.all(H[1:] < 1.0)

    def test_switched_off_contexts_reduce_to_constant_matrices(self):
        # context-blind run must match a directly coded constant-matrix recurrence
        rng = np.random.default_rng(11)
        d, n_items = 4, 8
        R = rng.uniform(-0.5, 0.5, size=(n_items, d))
        M = rng.uniform(-0.5, 0.5, size=(1, d, d))
        W = rng.uniform(-0.5, 0.5, size=(1, d, d))
        p = manual_params(R, M, W, use_input=False, use_trans=False)
        for _ in range(10):
            seq = random_annotated_sequence(rng, 12, n_items, 1, 1)
            # arbitrary ctx/bin labels must be ignored
            seq.input_ctxs[:] = rng.integers(0, 40, size=12)
            seq.trans_bins[:] = rng.integers(0, 30, size=12)
            states = all_states(seq, p)
            h = np.zeros(d)
            for k in range(12):
                h = sigmoid_vec(R[seq.items[k]] @ M[0] + h @ W[0])
                assert np.array_equal(states[k + 1], h)


BLOCK_VARIANTS = [
    dict(),
    dict(use_input_contexts=False),
    dict(use_transition_contexts=False),
    dict(use_input_contexts=False, use_transition_contexts=False),
]


def block_fixture(seed, d, B=13, **variant):
    rng = np.random.default_rng(seed)
    config = ModelConfig(d=d, n_items=9, n_input_contexts=4, n_transition_bins=5,
                         seed=seed, **variant)
    ids = (rng.integers(0, 9, size=B), rng.integers(0, 4, size=B), rng.integers(0, 5, size=B))
    return init_params(config), rng.uniform(-1.0, 1.0, size=(B, d)), ids


class TestBlockCalls:
    @pytest.mark.parametrize("variant", BLOCK_VARIANTS)
    def test_block_step_has_the_bits_of_scalar_steps(self, variant):
        for d in (1, 4, 10, 17):
            p, H, ids = block_fixture(d, d, **variant)
            for _ in range(4):  # chained, as evaluation uses it
                block = hidden_step(H, *step_inputs(*ids, p))
                rows = np.array([reference_step(H[i], *(a[i] for a in ids), p)
                                 for i in range(len(H))])
                assert block.shape == H.shape
                assert np.array_equal(block.view(np.uint64), rows.view(np.uint64))
                H, ids = block, tuple(np.roll(a, 1) for a in ids)

    @pytest.mark.parametrize("variant", BLOCK_VARIANTS)
    def test_block_scores_match_scalar_scores(self, variant):
        p, H, (_, ctxs, bins) = block_fixture(3, 10, **variant)
        block = score_all(H, ctxs, bins, p)
        rows = np.array([score_all(H[i][None], ctxs[i], bins[i], p)[0] for i in range(len(H))])
        assert block.shape == (len(H), p.config.n_items)
        # one GEMM against one GEMV per row: the d-term sums may be ordered
        # differently, so allow a few ulps of the largest term
        tol = 4 * p.config.d * np.finfo(np.float64).eps * np.abs(rows).max()
        assert np.abs(block - rows).max() <= tol

    def test_check_ids_names_the_first_bad_id(self):
        p, _, (items, ctxs, bins) = block_fixture(0, 3)
        p.check_ids(items, ctxs, bins)
        for k, name, bad in ((0, "item index", 9), (1, "input context", -1),
                             (2, "transition bin", 5)):
            ids = [items.copy(), ctxs.copy(), bins.copy()]
            ids[k][2] = bad
            with pytest.raises(ConfigError, match=f"{name} {bad} out of range"):
                p.check_ids(*ids)

    def test_check_ids_ignores_contexts_of_a_switched_off_bank(self):
        p, _, (items, ctxs, bins) = block_fixture(0, 3, use_input_contexts=False,
                                                  use_transition_contexts=False)
        p.check_ids(items, ctxs + 40, bins - 40)


class TestForward:
    @pytest.mark.parametrize("variant", BLOCK_VARIANTS)
    def test_states_are_the_one_state_chain(self, variant):
        rng = np.random.default_rng(4)
        config = ModelConfig(d=4, n_items=7, n_input_contexts=3, n_transition_bins=5,
                             seed=4, **variant)
        p = init_params(config)
        for length in (0, 1, 9):
            seq = random_annotated_sequence(rng, length, 7, 3, 5)
            H = all_states(seq, p)
            assert H.shape == (length + 1, 4)
            h = np.zeros(4)
            assert np.array_equal(H[0].view(np.uint64), h.view(np.uint64))
            for k in range(length):
                h = reference_step(h, seq.items[k], seq.input_ctxs[k], seq.trans_bins[k], p)
                assert np.array_equal(H[k + 1].view(np.uint64), h.view(np.uint64))
            # the one-user unroll that training steps gives every row too
            assert np.array_equal(forward_states(seq, p).view(np.uint64), H.view(np.uint64))

    def test_empty_sequence(self):
        p = manual_params(np.zeros((2, 2)), np.zeros((1, 2, 2)), np.zeros((1, 2, 2)))
        seq = UserSequence("u", np.array([], dtype=np.int64), np.array([], dtype=np.int64),
                           np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert np.array_equal(all_states(seq, p), np.zeros((1, 2)))
        # one user's check, which training makes, needs no annotation on no events
        unannotated = UserSequence("u", seq.items, seq.timestamps)
        assert np.array_equal(forward_states(unannotated, p), np.zeros((1, 2)))

    def test_unannotated_sequence_rejected(self):
        p = manual_params(np.zeros((2, 2)), np.zeros((1, 2, 2)), np.zeros((1, 2, 2)))
        seq = UserSequence("u", np.array([0, 1]), np.array([0, 5]))
        with pytest.raises(ConfigError, match="annotated"):
            forward_states(seq, p)
        # a set is annotated as a whole, so an unannotated one is refused even with no events
        for seqs in ([seq], [UserSequence("u", seq.items[:0], seq.timestamps[:0])]):
            with pytest.raises(ConfigError, match="annotated"):
                states_at(as_set(seqs), [[0]], p)

    def test_index_out_of_range(self):
        p = manual_params(np.zeros((2, 2)), np.zeros((3, 2, 2)), np.zeros((2, 2, 2)))
        for k, bad in ((0, 5), (1, 3), (2, 2), (0, -1), (1, -1), (2, -1)):
            ids = [np.zeros(3, dtype=np.int64) for _ in range(3)]
            ids[k][1] = bad
            seq = UserSequence("u", ids[0], np.arange(3, dtype=np.int64), ids[1], ids[2])
            with pytest.raises(ConfigError, match=f" {bad} out of range"):
                all_states(seq, p)

    def test_single_step_matches_hidden_step(self):
        rng = np.random.default_rng(5)
        config = ModelConfig(d=3, n_items=5, n_input_contexts=2, n_transition_bins=3, seed=5)
        p = init_params(config)
        seq = random_annotated_sequence(rng, 1, 5, 2, 3)
        states = all_states(seq, p)
        expected = reference_step(np.zeros(3), seq.items[0], seq.input_ctxs[0],
                                  seq.trans_bins[0], p)
        assert len(states) == 2
        assert np.array_equal(states[1], expected)

    def test_causality_and_sensitivity(self):
        rng = np.random.default_rng(6)
        config = ModelConfig(d=3, n_items=6, n_input_contexts=2, n_transition_bins=3, seed=6)
        p = init_params(config)
        seq = random_annotated_sequence(rng, 3, 6, 2, 3)
        base = all_states(seq, p)

        changed_late = UserSequence(seq.user, seq.items.copy(), seq.timestamps,
                                    seq.input_ctxs, seq.trans_bins)
        changed_late.items[2] = (changed_late.items[2] + 1) % 6
        after = all_states(changed_late, p)
        assert np.array_equal(base[:3], after[:3])

        changed_early = UserSequence(seq.user, seq.items.copy(), seq.timestamps,
                                     seq.input_ctxs, seq.trans_bins)
        changed_early.items[0] = (changed_early.items[0] + 1) % 6
        assert not np.array_equal(all_states(changed_early, p)[3], base[3])


@st.composite
def replay_cases(draw):
    """Lengths of ragged users, empty ones among them and at times one long
    outlier, with each user's wanted positions in any order, repeats allowed."""
    lengths = draw(st.lists(st.integers(0, 6), max_size=7))
    if draw(st.booleans()):
        lengths.insert(draw(st.integers(0, len(lengths))), draw(st.integers(20, 60)))
    return lengths, [draw(st.lists(st.integers(0, n), max_size=5)) for n in lengths]


class TestStatesAt:
    @pytest.mark.parametrize("variant", BLOCK_VARIANTS)
    def test_bits_of_forward_states_on_ragged_users(self, variant):
        rng = np.random.default_rng(8)
        config = ModelConfig(d=5, n_items=11, n_input_contexts=3, n_transition_bins=4,
                             seed=8, init_scale=0.5, **variant)
        p = init_params(config)
        seqs = [random_annotated_sequence(rng, n, 11, 3, 4) for n in (9, 0, 300, 1, 2, 9)]
        n_train = [int(rng.integers(0, len(seq) + 1)) for seq in seqs]
        # positions 0, n_train and len, in either order
        positions = [[0, n, len(seq)] if u % 2 else [len(seq), n, 0]
                     for u, (seq, n) in enumerate(zip(seqs, n_train))]
        got = states_at(as_set(seqs), positions, p)
        expected = np.concatenate([forward_states(seq, p)[q] for seq, q in zip(seqs, positions)])
        assert got.shape == (3 * len(seqs), 5)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    @settings(max_examples=150, deadline=None)
    @given(replay_cases(), st.sampled_from(range(len(BLOCK_VARIANTS))),
           st.sampled_from([1, 3, 16, None]), st.integers(0, 2**16))
    @example(([3, 0, 25, 1, 0], [[3, 0, 3], [0, 0], [25, 0, 7, 25, 1], [], [0]]), 0, 1, 0)
    def test_bits_of_forward_states_under_any_window(self, case, variant, window_rows, seed):
        """Any users and positions, under the default window and windows cut
        down to 1, 3 and 16 rows, so window edges fall inside and between
        the steps' blocks; and the same bits from a set of only the users
        that want states."""
        lengths, positions = case
        d = 3
        rng = np.random.default_rng(seed)
        p = init_params(ModelConfig(d=d, n_items=7, n_input_contexts=3, n_transition_bins=4,
                                    seed=seed, init_scale=0.5, **BLOCK_VARIANTS[variant]))
        seqs = [random_annotated_sequence(rng, n, 7, 3, 4) for n in lengths]
        budget = model.STATE_WINDOW_BYTES if window_rows is None else 8 * d * window_rows
        wanting = [u for u, q in enumerate(positions) if q]
        with mock.patch.object(model, "STATE_WINDOW_BYTES", budget):
            got = states_at(as_set(seqs), positions, p)
            only = states_at(as_set([seqs[u] for u in wanting]),
                             [positions[u] for u in wanting], p)
        expected = np.concatenate([np.zeros((0, d))] + [forward_states(seq, p)[q]
                                                        for seq, q in zip(seqs, positions)])
        assert got.shape == expected.shape
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        assert np.array_equal(only.view(np.uint64), got.view(np.uint64))

    def test_window_bounds_the_state_buffer(self):
        # twenty 500-event users at d=32: unwindowed, their states take 2.6 MB
        rng = np.random.default_rng(12)
        p = init_params(ModelConfig(d=32, n_items=6, n_input_contexts=2, n_transition_bins=3))
        seqs = [random_annotated_sequence(rng, 500, 6, 2, 3) for _ in range(20)]
        positions = [[500, 1, 250]] * 20
        expected = np.concatenate([forward_states(seq, p)[q] for seq, q in zip(seqs, positions)])
        columns = as_set(seqs)
        with mock.patch.object(model, "STATE_WINDOW_BYTES", 1 << 16):
            tracemalloc.start()
            try:
                got = states_at(columns, positions, p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        assert peak < 2**20

    def test_users_without_positions_add_no_rows(self):
        rng = np.random.default_rng(9)
        p = init_params(ModelConfig(d=3, n_items=6, n_input_contexts=2, n_transition_bins=3))
        seqs = [random_annotated_sequence(rng, n, 6, 2, 3) for n in (4, 7, 2)]
        got = states_at(as_set(seqs), [[], [7, 3], []], p)
        assert np.array_equal(got, forward_states(seqs[1], p)[[7, 3]])
        assert states_at(as_set(seqs), [[], [], []], p).shape == (0, 3)
        assert states_at(as_set([]), [], p).shape == (0, 3)

    def test_empty_user_has_the_zero_state(self):
        p = init_params(ModelConfig(d=3, n_items=6, n_input_contexts=2, n_transition_bins=3))
        empty = random_annotated_sequence(np.random.default_rng(0), 0, 6, 2, 3)
        assert np.array_equal(states_at(as_set([empty, empty]), [[0], [0, 0]], p),
                              np.zeros((3, 3)))

    @pytest.mark.parametrize("position", [-1, 5])
    def test_position_outside_the_sequence_rejected(self, position):
        rng = np.random.default_rng(10)
        p = init_params(ModelConfig(d=3, n_items=6, n_input_contexts=2, n_transition_bins=3))
        seqs = [random_annotated_sequence(rng, n, 6, 2, 3) for n in (6, 4)]
        with pytest.raises(ConfigError, match=f"position {position} outside \\[0, 4\\]"):
            states_at(as_set(seqs), [[6], [position]], p)

    def test_bad_ids_and_unannotated_sequences_rejected(self):
        rng = np.random.default_rng(11)
        p = init_params(ModelConfig(d=3, n_items=6, n_input_contexts=2, n_transition_bins=3))
        seq = random_annotated_sequence(rng, 4, 6, 2, 3)
        seq.trans_bins[2] = 3
        with pytest.raises(ConfigError, match="transition bin 3 out of range"):
            states_at(as_set([seq]), [[1]], p)
        with pytest.raises(ConfigError, match="annotated"):
            states_at(as_set([UserSequence("u", np.array([0, 1]), np.array([0, 5]))]), [[1]], p)


class TestScore:
    def test_zero_state_scores_zero(self):
        config = ModelConfig(d=3, n_items=4, n_input_contexts=2, n_transition_bins=2, seed=1)
        p = init_params(config)
        assert not score_all(np.zeros((1, config.d)), 1, 1, p).any()

    def test_scalar_hand_expansion(self):
        p = manual_params([[3.0]], [[[1.0]]], [[[2.0]]])
        assert score_all(np.array([[1.0]]), 0, 0, p).tolist() == [[6.0]]

    def test_identical_embeddings_identical_scores(self):
        R = np.array([[0.2, -0.1], [0.2, -0.1], [0.5, 0.5]])
        p = manual_params(R, np.random.default_rng(0).normal(size=(2, 2, 2)),
                          np.random.default_rng(1).normal(size=(2, 2, 2)))
        scores = score_all(np.array([[0.3, 0.7]]), 1, 1, p)[0]
        assert scores[0] == scores[1]

    def test_score_all_matches_per_item_scores(self):
        rng = np.random.default_rng(7)
        config = ModelConfig(d=5, n_items=11, n_input_contexts=3, n_transition_bins=4, seed=7)
        p = init_params(config)
        h = rng.uniform(0, 1, size=5)
        vec = score_all(h[None], 2, 3, p)[0]
        per_item = np.array([reference_score(h, v, 2, 3, p) for v in range(11)])
        assert np.allclose(vec, per_item, atol=1e-9)
        assert int(np.argmax(vec)) == int(np.argmax(per_item))

    @pytest.mark.parametrize("variant", BLOCK_VARIANTS)
    def test_one_row_block_has_the_bits_of_the_one_state_form(self, variant):
        rng = np.random.default_rng(29)
        for d in (1, 3, 10, 17):
            for n_items in (40, 3706):
                config = ModelConfig(d=d, n_items=n_items, n_input_contexts=7,
                                     n_transition_bins=5, seed=d, init_scale=1.0, **variant)
                p = init_params(config)
                for _ in range(5):
                    h = rng.uniform(0.0, 1.0, size=d)
                    c, b = int(rng.integers(0, 7)), int(rng.integers(0, 5))
                    got = score_all(h[None], c, b, p)
                    assert got.shape == (1, n_items)
                    expected = reference_scores(h, c, b, p)
                    assert np.array_equal(got[0].view(np.uint64), expected.view(np.uint64))

    def test_scalar_ids_score_every_row_under_one_context(self):
        p, H, (_, ctxs, bins) = block_fixture(5, 4)
        ctxs[:], bins[:] = 2, 3
        assert np.array_equal(score_all(H, 2, 3, p), score_all(H, ctxs, bins, p))


# few distinct values, so exact ties are common; NaN, both zeros and both infinities
TIE_VALUES = [-1.5, -0.0, 0.0, 0.25, 1.0, 3.0, np.nan, np.inf, -np.inf]


class TestTopN:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(TIE_VALUES), st.floats()), min_size=1, max_size=60),
           st.integers(1, 70))
    @example([1.0] * 40, 20)                        # a tie across the cut, past small-sort sizes
    @example([2.0, np.nan, np.nan, 1.0, np.nan], 3)  # a NaN n-th score: every entry a candidate
    @example([np.nan, 0.0, -0.0, np.nan], 2)
    def test_is_the_stable_argsort_prefix(self, values, n):
        scores = np.array(values, dtype=np.float64)
        got = top_n(scores, n)
        expected = reference_top_n(scores, n)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(TIE_VALUES), st.integers(-3, 3).map(float)),
                    min_size=100, max_size=300),
           st.integers(1, 320))
    def test_is_the_stable_argsort_prefix_of_long_score_rows(self, values, n):
        # long rows with many ties across the cut, NaN n-th scores and n past the length
        scores = np.array(values, dtype=np.float64)
        assert np.array_equal(top_n(scores, n), reference_top_n(scores, n))

    def test_ties_keep_the_lower_index_first(self):
        scores = np.array([0.0, 2.0, 1.0, 2.0, 1.0, 1.0, 2.0, 1.0])
        assert top_n(scores, 5).tolist() == [1, 3, 6, 2, 4]

    def test_nan_ranks_last(self):
        scores = np.array([np.nan, -np.inf, np.nan, 0.5])
        assert top_n(scores, 4).tolist() == [3, 1, 0, 2]

    def test_n_past_the_length_gives_every_index(self):
        assert top_n(np.array([0.1, 0.3, 0.2]), 10).tolist() == [1, 2, 0]


class TestPersistence:
    def make_params(self, **kwargs):
        config = ModelConfig(d=3, n_items=6, n_input_contexts=4, n_transition_bins=5,
                             seed=13, **kwargs)
        return init_params(config)

    def test_round_trip(self, tmp_path):
        p = self.make_params()
        path = str(tmp_path / "m.carn")
        save_params(p, path)
        q = load_params(path)
        assert np.array_equal(p.R, q.R)
        assert np.array_equal(p.M_bank, q.M_bank)
        assert np.array_equal(p.W_bank, q.W_bank)
        assert q.config.d == 3 and q.config.n_items == 6
        assert q.config.use_input_contexts and q.config.use_transition_contexts

    def test_context_blind_model_declares_singleton_banks(self, tmp_path):
        p = self.make_params(use_input_contexts=False, use_transition_contexts=False)
        path = str(tmp_path / "m.carn")
        save_params(p, path)
        q = load_params(path)
        assert q.config.n_input_contexts == 1
        assert q.config.n_transition_bins == 1
        assert not q.config.use_input_contexts and not q.config.use_transition_contexts

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.carn"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError, match="magic"):
            load_params(str(path))

    def test_truncated_file_rejected(self, tmp_path):
        p = self.make_params()
        path = str(tmp_path / "m.carn")
        save_params(p, path)
        blob = Path(path).read_bytes()
        Path(path).write_bytes(blob[:-8])
        with pytest.raises(FormatError, match="truncated model file"):
            load_params(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.carn"
        save_params(self.make_params(), str(path))
        with open(path, "ab") as fh:
            fh.write(b"extra")
        with pytest.raises(FormatError, match="5 trailing bytes in model file"):
            load_params(str(path))

    def test_file_is_a_sealed_frame_around_the_f64_banks(self, tmp_path):
        p = self.make_params(use_transition_contexts=False)
        path = tmp_path / "m.carn"
        save_params(p, str(path))
        blob = path.read_bytes()
        assert blob[:8] == b"CARN" + struct.pack("<I", 2)
        assert struct.unpack_from("<IIIIBB", blob, 8) == (3, 6, 4, 1, 1, 0)
        assert blob[26:-4] == b"".join(a.astype("<f8").tobytes()
                                       for a in (p.R, p.M_bank, p.W_bank))
        assert struct.unpack("<I", blob[-4:])[0] == zlib.crc32(blob[:-4])

    def test_every_single_bit_flip_rejected(self, tmp_path):
        p = init_params(ModelConfig(d=2, n_items=3, n_input_contexts=2, n_transition_bins=2))
        path = tmp_path / "m.carn"
        save_params(p, str(path))
        blob = path.read_bytes()
        assert len(blob) == 206
        accepted = []
        for bit in range(8 * len(blob)):
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(flipped))
            try:
                load_params(str(path))
            except FormatError:
                continue
            accepted.append(bit)
        assert accepted == []

    def test_version_1_model_is_compatibility_error(self, tmp_path):
        path = tmp_path / "m.carn"
        path.write_bytes(version_1_model(self.make_params()))
        with pytest.raises(CompatibilityError,
                           match="model file format 1 is no longer read; re-run `carnn train`"):
            load_params(str(path))

    @pytest.mark.parametrize("version", [0, 3])
    def test_unknown_version_is_format_error(self, tmp_path, version):
        path = tmp_path / "m.carn"
        save_params(self.make_params(), str(path))
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 4, version)
        path.write_bytes(bytes(blob))
        reseal(str(path))
        with pytest.raises(FormatError, match=f"unsupported model file version {version}"):
            load_params(str(path))

    @pytest.mark.parametrize("sizes,message", [
        ((0, 3, 2, 2), "d must be >= 1, got 0"),
        ((2, 0, 2, 2), "n_items must be >= 1, got 0"),
        ((2, 3, 0, 2), "context cardinalities must be >= 1"),
        ((2, 3, 2, 0), "context cardinalities must be >= 1"),
    ])
    def test_header_model_config_refuses_is_format_error(self, tmp_path, sizes, message):
        d, n_items, n_m, n_w = sizes
        path = str(tmp_path / "m.carn")
        banks = np.zeros(n_items * d + (n_m + n_w) * d * d, dtype="<f8")
        store.write_sealed(path, model.MAGIC, model.FORMAT_VERSION,
                           [struct.pack("<IIIIBB", *sizes, 1, 1), banks], "model file")
        with pytest.raises(FormatError) as info:
            load_params(path)
        assert str(info.value) == f"{path}: invalid model header: {message}"

    def test_huge_header_is_truncated_without_allocating(self, tmp_path):
        # 2**32 - 1 items of 2**32 - 1 dimensions: a bank size past int64
        path = str(tmp_path / "m.carn")
        store.write_sealed(path, model.MAGIC, model.FORMAT_VERSION,
                           [struct.pack("<IIIIBB", 2**32 - 1, 2**32 - 1, 1, 1, 1, 1)],
                           "model file")
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="truncated model file"):
                load_params(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("bank,index,value", [("R", 4, float("nan")),
                                                   ("M_bank", 2, float("inf")),
                                                   ("W_bank", 0, -float("inf"))])
    def test_non_finite_tensor_rejected(self, tmp_path, bank, index, value):
        p = self.make_params()
        getattr(p, bank)[index].reshape(-1)[-1] = value
        path = str(tmp_path / "m.carn")
        save_params(p, path)
        with pytest.raises(NumericalError, match=rf"non-finite value in {bank}\[{index}\]"):
            load_params(path)

    @staticmethod
    def sequence_set(n_items, scheme=None):
        return sequence_set([], {f"i{v}": v for v in range(n_items)}, scheme)

    def test_vocab_compatibility_names_both_sizes(self):
        p = self.make_params()
        check_compatibility(p, self.sequence_set(6))
        with pytest.raises(CompatibilityError, match="6 items.*9"):
            check_compatibility(p, self.sequence_set(9))

    def test_compatibility_checks_each_switched_on_bank(self):
        # 7 input contexts (day of week) and max_interval_days + 2 = 5 gap bins
        scheme = ContextScheme(factors=("day_of_week",), max_interval_days=3)
        for kwargs, match in ((dict(n_input_contexts=168), "168 input contexts.*7"),
                              (dict(n_transition_bins=32), "32 transition bins.*5")):
            config = dict(d=2, n_items=6, n_input_contexts=7, n_transition_bins=5) | kwargs
            p = init_params(ModelConfig(**config))
            with pytest.raises(CompatibilityError, match=match):
                check_compatibility(p, self.sequence_set(6, scheme))
        check_compatibility(init_params(ModelConfig(d=2, n_items=6, n_input_contexts=7,
                                                    n_transition_bins=5)),
                            self.sequence_set(6, scheme))
