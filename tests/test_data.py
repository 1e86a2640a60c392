import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from carnn.data import (TIMESTAMP_LIMIT, InteractionLog, Interaction, build_sequences,
                        full_train_split, parse_interactions, split_sequences, train_length)
from carnn.errors import ConfigError, DataError, FormatError, InputOutputError


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParse:
    def test_movielens_line(self, tmp_path):
        path = write(tmp_path, "r.dat", "1::1193::5::978300760\n")
        log = parse_interactions(path, "movielens_dat")
        assert log.interactions == [Interaction("1", "1193", 978300760)]
        assert log.rejects == 0

    def test_csv_line(self, tmp_path):
        path = write(tmp_path, "r.csv", "u1,i2,100\n")
        log = parse_interactions(path, "csv")
        assert log.interactions == [Interaction("u1", "i2", 100)]

    def test_tsv_line(self, tmp_path):
        path = write(tmp_path, "r.tsv", "u1\ti2\t100\n")
        log = parse_interactions(path, "tsv")
        assert log.interactions == [Interaction("u1", "i2", 100)]

    def test_header_row_tolerated(self, tmp_path):
        path = write(tmp_path, "r.csv", "user,item,timestamp\nu1,i2,100\n")
        log = parse_interactions(path, "csv")
        assert len(log) == 1
        assert log.rejects == 0

    def test_malformed_lines_counted(self, tmp_path):
        rows = [f"u{i},i{i},{100 + i}" for i in range(9)]
        rows.insert(4, "garbage line with no commas")
        path = write(tmp_path, "r.csv", "\n".join(rows) + "\n")
        log = parse_interactions(path, "csv")
        assert len(log) == 9
        assert log.rejects == 1

    def test_negative_timestamp_rejected(self, tmp_path):
        path = write(tmp_path, "r.csv", "u1,i1,100\nu1,i2,-5\n")
        log = parse_interactions(path, "csv")
        assert len(log) == 1
        assert log.rejects == 1

    def test_timestamp_past_year_9999_rejected(self, tmp_path):
        rows = [f"u1,i{i},{100 + i}" for i in range(4)]
        rows += [f"u1,late,{TIMESTAMP_LIMIT - 1}", f"u1,x,{TIMESTAMP_LIMIT}",
                 "u1,y,1000000000000", "u1,z,100000000000000000000"]
        log = parse_interactions(write(tmp_path, "r.csv", "\n".join(rows) + "\n"), "csv")
        assert [it.item for it in log.interactions] == ["i0", "i1", "i2", "i3", "late"]
        assert log.rejects == 3

    def test_majority_rejects_is_format_error(self, tmp_path):
        path = write(tmp_path, "r.csv", "a::b::1::2\nc::d::1::2\nu,i,3\n")
        with pytest.raises(FormatError):
            parse_interactions(path, "csv")

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(InputOutputError):
            parse_interactions(str(tmp_path / "nope.csv"), "csv")

    def test_unknown_format_rejected(self, tmp_path):
        path = write(tmp_path, "r.csv", "u,i,1\n")
        with pytest.raises(ConfigError):
            parse_interactions(path, "json")


def log_of(rows):
    return InteractionLog([Interaction(u, i, t) for u, i, t in rows])


class TestBuildSequences:
    def test_user_below_threshold_removed(self):
        # one user with 9 records of otherwise popular items: gone at min_user=10
        rows = [("thin", f"i{k % 3}", k) for k in range(9)]
        rows += [("fat", f"i{k % 3}", k) for k in range(12)]
        seqs = build_sequences(log_of(rows), min_user=10, min_item=3)
        assert set(seqs.user_vocab) == {"fat"}

    def test_rare_item_removed_before_user_counting(self):
        # u has 10 records but 2 hit a rare item; after item filtering only 8 remain
        rows = [("u", "rare", 0), ("u", "rare", 1)]
        rows += [("u", f"common{k % 2}", 2 + k) for k in range(8)]
        rows += [("v", f"common{k % 2}", 100 + k) for k in range(10)]
        seqs = build_sequences(log_of(rows), min_user=10, min_item=3)
        assert set(seqs.user_vocab) == {"v"}
        assert "rare" not in seqs.item_vocab

    def test_all_above_threshold_retained(self):
        rows = [(f"u{u}", f"i{k}", k) for u in range(3) for k in range(12)]
        seqs = build_sequences(log_of(rows), min_user=10, min_item=3)
        assert seqs.n_users == 3
        assert all(len(s) == 12 for s in seqs.sequences)

    def test_empty_after_filtering_is_data_error(self):
        rows = [("u", "i", 0)]
        with pytest.raises(DataError):
            build_sequences(log_of(rows), min_user=10, min_item=3)

    def test_empty_log_is_data_error(self):
        with pytest.raises(DataError):
            build_sequences(InteractionLog([]))

    def test_sort_is_stable_under_timestamp_ties(self):
        rows = [("u", "a", 5), ("u", "b", 5), ("u", "c", 5), ("u", "d", 1)] * 3
        seqs = build_sequences(log_of(rows), min_user=2, min_item=1)
        seq = seqs.sequences[0]
        ids = seqs.item_ids()
        ordered = [ids[i] for i in seq.items]
        assert ordered == ["d", "d", "d"] + ["a", "b", "c"] * 3

    def test_timestamps_non_decreasing(self):
        rng = np.random.default_rng(0)
        rows = [("u", f"i{rng.integers(4)}", int(rng.integers(1000))) for _ in range(40)]
        seqs = build_sequences(log_of(rows), min_user=2, min_item=1)
        ts = seqs.sequences[0].timestamps
        assert np.all(np.diff(ts) >= 0)

    def test_duplicate_records_kept_as_distinct_events(self):
        rows = [("u", "i", 5)] * 12
        seqs = build_sequences(log_of(rows), min_user=10, min_item=3)
        assert len(seqs.sequences[0]) == 12

    def test_surviving_users_meet_threshold(self):
        rng = np.random.default_rng(1)
        rows = [(f"u{rng.integers(8)}", f"i{rng.integers(6)}", int(rng.integers(500)))
                for _ in range(120)]
        seqs = build_sequences(log_of(rows), min_user=10, min_item=3)
        for seq in seqs.sequences:
            assert len(seq) >= 10


class TestSplit:
    def test_80_20_on_length_10(self):
        assert train_length(10, 0.8) == 8

    def test_ceiling_on_length_5(self):
        assert train_length(5, 0.8) == 4

    def test_tiny_sequence_has_no_test(self):
        assert train_length(2, 0.8) == 2

    def test_ratio_out_of_range_rejected(self):
        seqs = build_sequences(log_of([("u", "i", k) for k in range(10)]), 2, 1)
        for ratio in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ConfigError):
                split_sequences(seqs, ratio)

    def test_split_counts(self):
        rows = [("u", f"i{k}", k) for k in range(10)]
        seqs = build_sequences(log_of(rows), min_user=2, min_item=1)
        split = split_sequences(seqs, 0.8)
        assert split.n_train.tolist() == [8]
        assert split.n_test_positions == 2

    def test_full_train_split_has_no_test(self):
        rows = [("u", f"i{k}", k) for k in range(10)]
        seqs = build_sequences(log_of(rows), min_user=2, min_item=1)
        assert full_train_split(seqs).n_test_positions == 0

    @given(st.integers(min_value=1, max_value=500),
           st.floats(min_value=0.01, max_value=0.99, allow_nan=False))
    @example(500, 0.010000000000000002)  # the product lands one ulp above 5
    @example(10, 0.7)
    def test_train_length_bounds(self, length, ratio):
        n = train_length(length, ratio)
        assert 1 <= n <= length
        # a ceiling can overshoot the exact product by less than one step;
        # train_length lets the product run up to 1e-12 above it
        assert n - ratio * length >= -1e-12
        assert n - ratio * length < 1 + 1e-9

    def test_train_length_of_near_whole_products(self):
        assert train_length(500, 0.010000000000000002) == 5  # product 5.000000000000001
        assert train_length(10, 0.7) == 7

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_round_trip_concatenation(self, seed):
        rng = np.random.default_rng(seed)
        rows = [(f"u{rng.integers(3)}", f"i{rng.integers(5)}", int(rng.integers(100)))
                for _ in range(60)]
        seqs = build_sequences(log_of(rows), min_user=2, min_item=1)
        split = split_sequences(seqs, 0.8)
        for i, seq in enumerate(split.sequences.sequences):
            n = int(split.n_train[i])
            rebuilt = np.concatenate([seq.items[:n], seq.items[n:]])
            assert np.array_equal(rebuilt, seq.items)
            assert n >= 1
