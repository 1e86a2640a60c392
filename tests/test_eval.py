import json
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from carnn.context import ContextScheme, annotate_sequences
from carnn.data import SplitSet, UserSequence, full_train_split, split_sequences
from carnn import store
from carnn.errors import CompatibilityError, ConfigError, DataError, InputOutputError
from carnn.evaluate import (DEFAULT_KS, SIGNALS, MetricsReport, RankRecord, aggregate_ranks,
                            evaluate, format_report_table, generate_synthetic,
                            pop_baseline, rank_target, report_to_json, shared_ranks,
                            synthetic_partition,
                            train_item_counts, write_interactions_csv)
from carnn.model import ModelConfig, init_params, score_all
from references import (reference_step, reference_synthetic, reference_train_item_counts,
                        sequence_set)


class TestRankTarget:
    def test_unique_max_ranks_first(self):
        assert rank_target(np.array([0.1, 5.0, 0.3]), 1) == 1

    def test_all_equal_breaks_toward_low_index(self):
        scores = np.zeros(4)
        assert rank_target(scores, 0) == 1
        assert rank_target(scores, 3) == 4

    def test_hand_sorted_case(self):
        assert rank_target(np.array([0.1, 0.9, 0.5]), 2) == 2

    def test_out_of_range_target(self):
        with pytest.raises(ConfigError):
            rank_target(np.zeros(3), 3)

    @given(st.integers(0, 2**31 - 1), st.integers(2, 30))
    def test_matches_sort_based_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, 5, size=n).astype(float)  # force ties
        target = int(rng.integers(n))
        # oracle: stable sort by (-score, index), find the target's position
        order = sorted(range(n), key=lambda i: (-scores[i], i))
        assert rank_target(scores, target) == order.index(target) + 1

    @given(st.integers(0, 2**31 - 1))
    def test_invariant_under_monotone_transforms(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=12)
        target = int(rng.integers(12))
        base = rank_target(scores, target)
        assert rank_target(3.0 * scores + 7.0, target) == base
        assert rank_target(np.exp(scores), target) == base


class TestAggregation:
    def test_hand_aggregated_example(self):
        records = [RankRecord("u", i, r) for i, r in enumerate([1, 2, 4])]
        rep = aggregate_ranks(records, ks=(1, 5, 10))
        assert rep.recall_at[1] == pytest.approx(1 / 3)
        assert rep.map_score == pytest.approx((1 + 0.5 + 0.25) / 3, abs=1e-12)
        assert rep.n_positions == 3

    def test_perfect_ranker_scores_one_everywhere(self):
        records = [RankRecord("u", i, 1) for i in range(5)]
        rep = aggregate_ranks(records)
        assert all(v == 1.0 for v in rep.recall_at.values())
        assert rep.f1_at[1] == 1.0
        assert rep.map_score == 1.0 and rep.ndcg == 1.0

    def test_f1_identity_exact(self):
        rng = np.random.default_rng(0)
        records = [RankRecord("u", i, int(r)) for i, r in enumerate(rng.integers(1, 40, 50))]
        rep = aggregate_ranks(records, ks=(1, 2, 5, 10))
        for k in rep.recall_at:
            assert abs(rep.f1_at[k] - 2 * rep.recall_at[k] / (k + 1)) < 1e-12
        assert rep.f1_at[1] == rep.recall_at[1]

    def test_recall_non_decreasing_in_k(self):
        rng = np.random.default_rng(1)
        records = [RankRecord("u", i, int(r)) for i, r in enumerate(rng.integers(1, 30, 80))]
        rep = aggregate_ranks(records, ks=(1, 5, 10, 20))
        values = [rep.recall_at[k] for k in (1, 5, 10, 20)]
        assert values == sorted(values)

    @given(st.lists(st.integers(1, 100), min_size=1, max_size=50))
    def test_metric_ordering_chain(self, ranks):
        records = [RankRecord("u", i, r) for i, r in enumerate(ranks)]
        rep = aggregate_ranks(records)
        assert rep.ndcg >= rep.map_score >= rep.recall_at[1] - 1e-12

    def test_empty_records_rejected(self):
        with pytest.raises(DataError):
            aggregate_ranks([])


def small_model_split(signal="input_ctx", seed=5, n_users=12, n_items=16, seq_len=20,
                      n_ctx=4, d=4):
    seqs, scheme = generate_synthetic(n_users, n_items, seq_len, n_ctx,
                                      signal=signal, seed=seed)
    split = split_sequences(seqs, 0.8)
    config = ModelConfig(d=d, n_items=n_items, n_input_contexts=scheme.n_input_contexts,
                         n_transition_bins=scheme.n_transition_bins, seed=seed)
    return split, scheme, init_params(config)


def walker_records(split, p) -> list[RankRecord]:
    """Replay the held-out walk one query at a time: score, rank, then
    teacher-force the state with the textbook one-state step."""
    records = []
    for si, seq in enumerate(split.sequences.sequences):
        n_tr = int(split.n_train[si])
        h = np.zeros(p.config.d)
        for j in range(n_tr):
            h = reference_step(h, seq.items[j], seq.input_ctxs[j], seq.trans_bins[j], p)
        for j in range(n_tr, len(seq)):
            scores = score_all(h[None], int(seq.input_ctxs[j]), int(seq.trans_bins[j]), p)[0]
            records.append(RankRecord(seq.user, j, rank_target(scores, int(seq.items[j]))))
            h = reference_step(h, seq.items[j], seq.input_ctxs[j], seq.trans_bins[j], p)
    return records


# (length, n_train): one-event users with and without a held-out position, a
# two-event user held out from its first event, users with nothing held out,
# and one user far longer than the rest
RAGGED = [(1, 0), (2, 1), (300, 240), (5, 5), (2, 0), (40, 32), (1, 1), (7, 3), (12, 10)]


def ragged_split(seed, shapes=RAGGED, n_items=12, n_ctx=5, n_bins=4, **variant):
    rng = np.random.default_rng(seed)
    sequences = [UserSequence(f"u{u}", rng.integers(0, n_items, size=n),
                              np.arange(n, dtype=np.int64) * 3600,
                              rng.integers(0, n_ctx, size=n), rng.integers(0, n_bins, size=n))
                 for u, (n, _) in enumerate(shapes)]
    seqs = sequence_set(sequences, {f"i{v}": v for v in range(n_items)})
    config = ModelConfig(d=4, n_items=n_items, n_input_contexts=n_ctx,
                         n_transition_bins=n_bins, seed=seed, **variant)
    return SplitSet(seqs, np.array([t for _, t in shapes], dtype=np.int64)), init_params(config)


def ranks_of_evaluate(split, p, monkeypatch) -> list[int]:
    """Every rank evaluate computes, in the order it calls rank_target."""
    module = sys.modules["carnn.evaluate"]
    ranks = []

    def recording(scores, target):
        ranks.append(rank_target(scores, target))
        return ranks[-1]

    monkeypatch.setattr(module, "rank_target", recording)
    evaluate(split, p)
    monkeypatch.undo()
    return ranks


class TestEvaluate:
    def test_deterministic_given_frozen_model(self):
        split, _, p = small_model_split()
        a = evaluate(split, p)
        b = evaluate(split, p)
        assert a == b

    def test_matches_independent_walker(self):
        split, _, p = small_model_split()
        rep = evaluate(split, p)
        expected = aggregate_ranks(walker_records(split, p), DEFAULT_KS)
        assert rep.recall_at == expected.recall_at
        assert rep.map_score == pytest.approx(expected.map_score, abs=1e-15)
        assert rep.n_positions == expected.n_positions

    @pytest.mark.parametrize("variant", [
        dict(),
        dict(use_input_contexts=False),
        dict(use_transition_contexts=False),
        dict(use_input_contexts=False, use_transition_contexts=False),
    ])
    def test_lockstep_equals_walker_rank_by_rank(self, variant, monkeypatch):
        for seed in range(3):
            split, p = ragged_split(seed, **variant)
            expected = walker_records(split, p)
            ranks = ranks_of_evaluate(split, p, monkeypatch)
            assert ranks == [r.rank for r in expected]
            assert evaluate(split, p) == aggregate_ranks(expected)

    def test_out_of_range_ids_are_config_errors(self):
        for where in (0, 250):  # a training step and a held-out step of one user
            for arr, bad in (("input_ctxs", 5), ("input_ctxs", -1), ("trans_bins", 4),
                             ("items", 12)):
                split, p = ragged_split(0)
                getattr(split.sequences.sequences[2], arr)[where] = bad
                with pytest.raises(ConfigError, match="out of range"):
                    evaluate(split, p)

    def test_switched_off_bank_ignores_its_ids(self, monkeypatch):
        split, p = ragged_split(0, use_input_contexts=False, use_transition_contexts=False)
        expected = [r.rank for r in walker_records(split, p)]
        for seq in split.sequences.sequences:
            seq.input_ctxs[:] = 99
            seq.trans_bins[:] = -7
        assert ranks_of_evaluate(split, p, monkeypatch) == expected

    def test_peak_allocation_grows_with_events_not_users_times_longest(self):
        # 2,000 two-event users and one 5,000-event user: a padded
        # (users x longest sequence) float64 array alone would take 80 MB
        shapes = [(5000, 4000)] + [(2, 1)] * 2000
        split, p = ragged_split(0, shapes=shapes, n_items=50)
        tracemalloc.start()
        try:
            evaluate(split, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_no_test_positions_is_data_error(self):
        split, _, p = small_model_split()
        with pytest.raises(DataError):
            evaluate(full_train_split(split.sequences), p)

    def test_n_train_past_the_sequence_is_the_config_error_of_pop_baseline(self):
        # 6 - 9 and 6 - 3 sum to 0, so a held-out count by subtraction would
        # find no test positions instead of the bad n_train
        split, _, p = small_model_split(n_users=2, seq_len=6)
        split = SplitSet(split.sequences, np.array([9, 3]))
        message = r"user 'u0' has n_train=9 outside \[0, 6\]"
        with pytest.raises(ConfigError, match=message):
            pop_baseline(split)
        with pytest.raises(ConfigError, match=message):
            evaluate(split, p)

    def test_unannotated_split_is_config_error(self):
        split, _, p = small_model_split()
        seqs = replace(split.sequences, input_ctxs=None, trans_bins=None)
        with pytest.raises(ConfigError, match="not annotated"):
            evaluate(SplitSet(seqs, split.n_train), p)

    def test_scheme_is_no_longer_an_argument(self):
        # ks is keyword-only, so a stray third argument cannot bind to it
        split, scheme, p = small_model_split()
        with pytest.raises(TypeError):
            evaluate(split, p, scheme)

    def test_scheme_model_mismatch_rejected(self):
        split, scheme, _ = small_model_split()
        wrong = init_params(ModelConfig(d=4, n_items=split.sequences.n_items,
                                        n_input_contexts=7, n_transition_bins=scheme.n_transition_bins))
        with pytest.raises(CompatibilityError, match="7 input contexts.*24"):
            evaluate(split, wrong)

    def test_item_count_mismatch_rejected(self):
        split, scheme, _ = small_model_split(n_items=12)
        wrong = init_params(ModelConfig(d=4, n_items=40, n_input_contexts=scheme.n_input_contexts,
                                        n_transition_bins=scheme.n_transition_bins))
        with pytest.raises(CompatibilityError, match="40 items.*12"):
            evaluate(split, wrong)

    def test_plain_model_evaluates_under_any_scheme(self):
        # a plain RNN as a model file stores it: one matrix in each bank
        split, _, _ = small_model_split()
        p = init_params(ModelConfig(d=4, n_items=split.sequences.n_items, n_input_contexts=1,
                                    n_transition_bins=1, use_input_contexts=False,
                                    use_transition_contexts=False, seed=3))
        report = evaluate(split, p)
        for factors in (("day_of_week",), ("day_of_week", "hour_of_day")):
            seqs = annotate_sequences(split.sequences, ContextScheme(factors=factors))
            assert evaluate(SplitSet(seqs, split.n_train), p) == report


class TestPopBaseline:
    def test_dominant_item_always_ranks_first(self):
        seqs, scheme = generate_synthetic(6, 8, 20, 2, signal="none", seed=3)
        for seq in seqs.sequences:
            seq.items[:-1] = 2  # one item owns nearly all training mass
        split = split_sequences(seqs, 0.8)
        counts = train_item_counts(split)
        assert int(np.argmax(counts)) == 2
        assert rank_target(counts, 2) == 1

    def test_uniform_frequencies_follow_index_tie_break(self):
        counts = np.full(5, 3.0)
        assert [rank_target(counts, v) for v in range(5)] == [1, 2, 3, 4, 5]

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=40), st.data())
    def test_shared_ranks_are_per_query_rank_target(self, counts, data):
        # few distinct counts, so most items tie with others
        counts = np.array(counts, dtype=np.float64)
        targets = np.array(data.draw(st.lists(st.integers(0, len(counts) - 1), max_size=60)),
                           dtype=np.int64)
        got = shared_ranks(counts, targets)
        assert got.dtype == np.int64
        assert got.tolist() == [rank_target(counts, v) for v in targets.tolist()]

    def test_equals_aggregate_ranks_of_its_per_query_records(self):
        split, _ = ragged_split(1)
        counts = train_item_counts(split)
        # one bincount over the training events, with the bits of per-user sums
        assert counts.dtype == np.float64
        assert np.array_equal(counts, reference_train_item_counts(split))
        records = [RankRecord(seq.user, j, rank_target(counts, int(seq.items[j])))
                   for seq, n_tr in zip(split.sequences.sequences, split.n_train)
                   for j in range(n_tr, len(seq))]
        assert pop_baseline(split) == aggregate_ranks(records)

    def test_report_satisfies_f1_identity(self):
        split, _, _ = small_model_split(signal="none")
        rep = pop_baseline(split)
        for k in rep.recall_at:
            assert abs(rep.f1_at[k] - 2 * rep.recall_at[k] / (k + 1)) < 1e-12


class TestReportSerialization:
    def test_json_round_trip(self):
        split, _, p = small_model_split()
        rep = evaluate(split, p)
        raw = json.loads(report_to_json(rep))
        assert list(raw.items()) == (
            [(f"recall@{k}", rep.recall_at[k]) for k in DEFAULT_KS]
            + [(f"f1@{k}", rep.f1_at[k]) for k in DEFAULT_KS]
            + [("map", rep.map_score), ("ndcg", rep.ndcg), ("n_positions", rep.n_positions)])

    def test_table_has_expected_columns(self):
        rep = MetricsReport({1: 0.1, 5: 0.2, 10: 0.3}, {1: 0.1, 5: 0.0667, 10: 0.0545},
                            0.15, 0.25, 100)
        table = format_report_table(rep, "demo")
        head = table.splitlines()[0]
        for col in ("Recall@1", "Recall@5", "Recall@10", "F1@1", "F1@5", "F1@10",
                    "MAP", "NDCG"):
            assert col in head


def assert_same_synthetic(got, want):
    """Equal generator outputs: every array with its dtype, both
    vocabularies and the scheme."""
    (seqs, scheme), (ref, ref_scheme) = got, want
    assert scheme == ref_scheme == seqs.scheme == ref.scheme
    assert seqs.item_vocab == ref.item_vocab and seqs.user_vocab == ref.user_vocab
    assert np.array_equal(seqs.offsets, ref.offsets)
    assert [s.user for s in seqs.sequences] == [s.user for s in ref.sequences]
    for a, b in zip(seqs.sequences, ref.sequences):
        for name in ("items", "timestamps", "input_ctxs", "trans_bins"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name


class TestSyntheticGenerator:
    def test_annotation_recovers_planted_input_contexts(self):
        seqs, scheme = generate_synthetic(8, 12, 15, 4, signal="input_ctx", seed=21)
        redone = annotate_sequences(seqs, scheme)
        for a, b in zip(seqs.sequences, redone.sequences):
            assert np.array_equal(a.input_ctxs, b.input_ctxs)
            assert np.array_equal(a.trans_bins, b.trans_bins)

    def test_annotation_recovers_planted_transition_bins(self):
        seqs, scheme = generate_synthetic(8, 12, 15, 5, signal="transition_bin", seed=22)
        redone = annotate_sequences(seqs, scheme)
        for a, b in zip(seqs.sequences, redone.sequences):
            assert np.array_equal(a.input_ctxs, b.input_ctxs)
            assert np.array_equal(a.trans_bins, b.trans_bins)

    @pytest.mark.parametrize("signal,n_ctx", [(s, c) for s in SIGNALS for c in (1, 2, 6, 24, 31)
                                              if not (s == "input_ctx" and c > 24)])
    def test_equals_the_hand_annotated_reference(self, signal, n_ctx):
        for strength in (0.0, 0.5, 0.9, 1.0):
            for seed in range(4):
                kwargs = dict(signal=signal, seed=seed, signal_strength=strength)
                assert_same_synthetic(generate_synthetic(3, 64, 15, n_ctx, **kwargs),
                                      reference_synthetic(3, 64, 15, n_ctx, **kwargs))

    @pytest.mark.parametrize("n_users", [30, 100])
    def test_benchmark_corpus_equals_the_reference(self, n_users):
        # the train-planted workload's corpus, quick (30 users) and full
        for seed in (1, 2, 3):
            assert_same_synthetic(generate_synthetic(n_users, 60, 40, 6, "input_ctx", seed),
                                  reference_synthetic(n_users, 60, 40, 6, "input_ctx", seed))

    def test_infeasible_partition_rejected(self):
        with pytest.raises(ConfigError):
            generate_synthetic(5, 7, 10, 4, signal="input_ctx", seed=0)

    def test_unknown_signal_rejected(self):
        with pytest.raises(ConfigError):
            generate_synthetic(5, 16, 10, 4, signal="mystery", seed=0)

    def test_partition_oracle_reaches_planted_recall(self):
        # scoring 1 for the planted partition of the test context must recover
        # the signal strength at k = partition size
        seqs, scheme = generate_synthetic(50, 40, 60, 4, signal="input_ctx", seed=123)
        split = split_sequences(seqs, 0.8)
        part = synthetic_partition(40, 4)
        records = []
        for si, seq in enumerate(split.sequences.sequences):
            n_tr = int(split.n_train[si])
            for j in range(n_tr, len(seq)):
                scores = (part == int(seq.input_ctxs[j])).astype(float)
                records.append(RankRecord(seq.user, j, rank_target(scores, int(seq.items[j]))))
        rep = aggregate_ranks(records, ks=(1, 5, 10))
        assert rep.recall_at[10] >= 0.9

    def test_timestamps_strictly_ordered_per_user(self):
        for signal in ("input_ctx", "transition_bin", "none"):
            seqs, _ = generate_synthetic(5, 12, 25, 3, signal=signal, seed=4)
            for seq in seqs.sequences:
                assert np.all(np.diff(seq.timestamps) > 0)


class TestInteractionsCsv:
    def test_rows_in_step_order(self, tmp_path):
        seqs, _ = generate_synthetic(3, 5, 4, 2, signal="none", seed=2)
        path = tmp_path / "events.csv"
        write_interactions_csv(seqs, str(path))
        item_ids = seqs.item_ids()
        expected = "".join(f"{s.user},{item_ids[int(v)]},{int(t)}\n"
                           for s in seqs.sequences for v, t in zip(s.items, s.timestamps))
        assert path.read_bytes() == expected.encode("utf-8")

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        seqs, _ = generate_synthetic(3, 5, 4, 2, signal="none", seed=2)
        path = tmp_path / "events.csv"
        path.write_bytes(b"old\n")

        def no_replace(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(store.os, "replace", no_replace)
        with pytest.raises(InputOutputError, match="cannot write interactions file"):
            write_interactions_csv(seqs, str(path))
        assert path.read_bytes() == b"old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["events.csv"]

    def test_missing_directory_is_io_error(self, tmp_path):
        seqs, _ = generate_synthetic(3, 5, 4, 2, signal="none", seed=2)
        with pytest.raises(InputOutputError):
            write_interactions_csv(seqs, str(tmp_path / "absent" / "events.csv"))
