from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from carnn.data import UserSequence
from carnn.errors import CompatibilityError, ConfigError, FormatError, NumericalError
from carnn.linalg import sigmoid_vec
from carnn.model import (ModelConfig, ModelParams, check_vocab_compatibility,
                         forward_states, hidden_step, init_params, load_params,
                         save_params, score, score_all, states_at, top_n)


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


class TestConfig:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(ConfigError):
            ModelConfig(d=0, n_items=5, n_input_contexts=1, n_transition_bins=1)
        with pytest.raises(ConfigError):
            ModelConfig(d=2, n_items=0, n_input_contexts=1, n_transition_bins=1)
        with pytest.raises(ConfigError):
            ModelConfig(d=2, n_items=5, n_input_contexts=0, n_transition_bins=1)

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

    def test_bounded_by_init_scale(self):
        config = ModelConfig(d=5, n_items=10, n_input_contexts=3, n_transition_bins=3,
                             init_scale=0.1)
        p = init_params(config)
        for bank in (p.R, p.M_bank, p.W_bank):
            assert np.all(np.abs(bank) <= 0.1)


class TestHiddenStep:
    def test_zero_inputs_give_half(self):
        p = manual_params(np.zeros((2, 3)), np.zeros((1, 3, 3)), np.zeros((1, 3, 3)))
        h = hidden_step(np.zeros(3), 0, 0, 0, p)
        assert np.allclose(h, 0.5)

    def test_scalar_hand_evaluation(self):
        p = manual_params([[1.0]], [[[2.0]]], [[[-1.0]]])
        h = hidden_step(np.array([0.5]), 0, 0, 0, p)
        assert h[0] == pytest.approx(0.8175744761936437, abs=1e-12)

    def test_state_stays_in_open_unit_interval(self):
        rng = np.random.default_rng(3)
        config = ModelConfig(d=6, n_items=9, n_input_contexts=4, n_transition_bins=5, seed=3)
        p = init_params(config)
        h = np.zeros(config.d)
        for _ in range(50):
            h = hidden_step(h, int(rng.integers(9)), int(rng.integers(4)), int(rng.integers(5)), p)
            assert np.all(h > 0.0) and np.all(h < 1.0)

    def test_index_out_of_range(self):
        p = manual_params(np.zeros((2, 2)), np.zeros((3, 2, 2)), np.zeros((2, 2, 2)))
        h = np.zeros(2)
        with pytest.raises(ConfigError):
            hidden_step(h, 5, 0, 0, p)
        with pytest.raises(ConfigError):
            hidden_step(h, 0, 3, 0, p)
        with pytest.raises(ConfigError):
            hidden_step(h, 0, 0, 2, p)

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
            states = forward_states(seq, p)
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
                block = hidden_step(H, *ids, p)
                rows = np.array([hidden_step(H[i], *(a[i] for a in ids), p)
                                 for i in range(len(H))])
                assert block.shape == H.shape
                assert np.array_equal(block.view(np.uint64), rows.view(np.uint64))
                H, ids = block, tuple(np.roll(a, 1) for a in ids)

    @pytest.mark.parametrize("variant", BLOCK_VARIANTS)
    def test_block_scores_match_scalar_scores(self, variant):
        p, H, (_, ctxs, bins) = block_fixture(3, 10, **variant)
        block = score_all(H, ctxs, bins, p)
        rows = np.array([score_all(H[i], ctxs[i], bins[i], p) for i in range(len(H))])
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
            H = forward_states(seq, p)
            assert H.shape == (length + 1, 4)
            h = np.zeros(4)
            assert np.array_equal(H[0].view(np.uint64), h.view(np.uint64))
            for k in range(length):
                h = hidden_step(h, seq.items[k], seq.input_ctxs[k], seq.trans_bins[k], p)
                assert np.array_equal(H[k + 1].view(np.uint64), h.view(np.uint64))
            # the lockstep replay gives every row, the zero state included
            assert np.array_equal(states_at([seq], [np.arange(length + 1)], p).view(np.uint64),
                                  H.view(np.uint64))

    def test_empty_sequence(self):
        p = manual_params(np.zeros((2, 2)), np.zeros((1, 2, 2)), np.zeros((1, 2, 2)))
        seq = UserSequence("u", np.array([], dtype=np.int64), np.array([], dtype=np.int64),
                           np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert np.array_equal(forward_states(seq, p), np.zeros((1, 2)))
        unannotated = UserSequence("u", seq.items, seq.timestamps)
        assert np.array_equal(forward_states(unannotated, p), np.zeros((1, 2)))

    def test_unannotated_sequence_rejected(self):
        p = manual_params(np.zeros((2, 2)), np.zeros((1, 2, 2)), np.zeros((1, 2, 2)))
        seq = UserSequence("u", np.array([0, 1]), np.array([0, 5]))
        with pytest.raises(ConfigError, match="annotated"):
            forward_states(seq, p)

    def test_single_step_matches_hidden_step(self):
        rng = np.random.default_rng(5)
        config = ModelConfig(d=3, n_items=5, n_input_contexts=2, n_transition_bins=3, seed=5)
        p = init_params(config)
        seq = random_annotated_sequence(rng, 1, 5, 2, 3)
        states = forward_states(seq, p)
        expected = hidden_step(np.zeros(3), seq.items[0], seq.input_ctxs[0],
                               seq.trans_bins[0], p)
        assert len(states) == 2
        assert np.array_equal(states[1], expected)

    def test_causality_and_sensitivity(self):
        rng = np.random.default_rng(6)
        config = ModelConfig(d=3, n_items=6, n_input_contexts=2, n_transition_bins=3, seed=6)
        p = init_params(config)
        seq = random_annotated_sequence(rng, 3, 6, 2, 3)
        base = forward_states(seq, p)

        changed_late = UserSequence(seq.user, seq.items.copy(), seq.timestamps,
                                    seq.input_ctxs, seq.trans_bins)
        changed_late.items[2] = (changed_late.items[2] + 1) % 6
        after = forward_states(changed_late, p)
        assert np.array_equal(base[:3], after[:3])

        changed_early = UserSequence(seq.user, seq.items.copy(), seq.timestamps,
                                     seq.input_ctxs, seq.trans_bins)
        changed_early.items[0] = (changed_early.items[0] + 1) % 6
        assert not np.array_equal(forward_states(changed_early, p)[3], base[3])


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
        got = states_at(seqs, positions, p)
        expected = np.concatenate([forward_states(seq, p)[q] for seq, q in zip(seqs, positions)])
        assert got.shape == (3 * len(seqs), 5)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_users_without_positions_add_no_rows(self):
        rng = np.random.default_rng(9)
        p = init_params(ModelConfig(d=3, n_items=6, n_input_contexts=2, n_transition_bins=3))
        seqs = [random_annotated_sequence(rng, n, 6, 2, 3) for n in (4, 7, 2)]
        got = states_at(seqs, [[], [7, 3], []], p)
        assert np.array_equal(got, forward_states(seqs[1], p)[[7, 3]])
        assert states_at(seqs, [[], [], []], p).shape == (0, 3)
        assert states_at([], [], p).shape == (0, 3)

    def test_empty_user_has_the_zero_state(self):
        p = init_params(ModelConfig(d=3, n_items=6, n_input_contexts=2, n_transition_bins=3))
        empty = random_annotated_sequence(np.random.default_rng(0), 0, 6, 2, 3)
        assert np.array_equal(states_at([empty, empty], [[0], [0, 0]], p), np.zeros((3, 3)))

    @pytest.mark.parametrize("position", [-1, 5])
    def test_position_outside_the_sequence_rejected(self, position):
        rng = np.random.default_rng(10)
        p = init_params(ModelConfig(d=3, n_items=6, n_input_contexts=2, n_transition_bins=3))
        seqs = [random_annotated_sequence(rng, n, 6, 2, 3) for n in (6, 4)]
        with pytest.raises(ConfigError, match=f"position {position} outside \\[0, 4\\]"):
            states_at(seqs, [[6], [position]], p)

    def test_bad_ids_and_unannotated_sequences_rejected(self):
        rng = np.random.default_rng(11)
        p = init_params(ModelConfig(d=3, n_items=6, n_input_contexts=2, n_transition_bins=3))
        seq = random_annotated_sequence(rng, 4, 6, 2, 3)
        seq.trans_bins[2] = 3
        with pytest.raises(ConfigError, match="transition bin 3 out of range"):
            states_at([seq], [[1]], p)
        with pytest.raises(ConfigError, match="annotated"):
            states_at([UserSequence("u", np.array([0, 1]), np.array([0, 5]))], [[1]], p)


class TestScore:
    def test_zero_state_scores_zero(self):
        config = ModelConfig(d=3, n_items=4, n_input_contexts=2, n_transition_bins=2, seed=1)
        p = init_params(config)
        h = np.zeros(config.d)
        assert score(h, 2, 1, 1, p) == 0.0
        assert not score_all(h, 1, 1, p).any()

    def test_scalar_hand_expansion(self):
        p = manual_params([[3.0]], [[[1.0]]], [[[2.0]]])
        assert score(np.array([1.0]), 0, 0, 0, p) == pytest.approx(6.0)

    def test_identical_embeddings_identical_scores(self):
        R = np.array([[0.2, -0.1], [0.2, -0.1], [0.5, 0.5]])
        p = manual_params(R, np.random.default_rng(0).normal(size=(2, 2, 2)),
                          np.random.default_rng(1).normal(size=(2, 2, 2)))
        h = np.array([0.3, 0.7])
        assert score(h, 0, 1, 1, p) == score(h, 1, 1, 1, p)

    def test_score_all_matches_per_item_scores(self):
        rng = np.random.default_rng(7)
        config = ModelConfig(d=5, n_items=11, n_input_contexts=3, n_transition_bins=4, seed=7)
        p = init_params(config)
        h = rng.uniform(0, 1, size=5)
        vec = score_all(h, 2, 3, p)
        per_item = np.array([score(h, v, 2, 3, p) for v in range(11)])
        assert np.allclose(vec, per_item, atol=1e-9)
        assert int(np.argmax(vec)) == int(np.argmax(per_item))


def reference_top_n(scores, n):
    """The full stable sort that ``top_n`` replaces."""
    return np.argsort(-scores, kind="stable")[:n]


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
        with pytest.raises(FormatError, match="length"):
            load_params(path)

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

    def test_vocab_compatibility_names_both_sizes(self):
        p = self.make_params()
        with pytest.raises(CompatibilityError, match="6.*9"):
            check_vocab_compatibility(p, 9)
