import os
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from carnn.data import (TIMESTAMP_LIMIT, InteractionLog, Interaction, SequenceSet, UserSequence,
                        build_sequences, full_train_split, parse_interactions, split_sequences,
                        train_length)
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


    def test_non_utf8_file_is_format_error(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_bytes(b"u1,i1,100\nu\xff2,i2,200\n")
        with pytest.raises(FormatError, match="UTF-8"):
            parse_interactions(str(path), "csv")

    def test_log_keeps_columns_and_derives_interactions(self, tmp_path):
        path = write(tmp_path, "r.csv", "u1,i1,100\nbad\nu2, i2 ,7\n")
        log = parse_interactions(path, "csv")
        assert (log.users, log.items) == (["u1", "u2"], ["i1", "i2"])
        assert log.timestamps.dtype == np.int64 and log.timestamps.tolist() == [100, 7]
        assert log.interactions == [Interaction("u1", "i1", 100), Interaction("u2", "i2", 7)]
        assert (len(log), log.rejects, log.format) == (2, 1, "csv")


def log_of(rows):
    return InteractionLog([Interaction(u, i, t) for u, i, t in rows])


# --- the per-line parser and the Counter-based sequence builder that the
# columnar data path replaced, kept as references ---------------------------

def _parse_line_reference(line, fmt):
    if fmt == "movielens_dat":
        parts = line.split("::")
        if len(parts) != 4:
            return None
        user, item, _rating, ts = parts
    else:
        parts = line.split("\t" if fmt == "tsv" else ",")
        if len(parts) != 3:
            return None
        user, item, ts = parts
    user = user.strip()
    item = item.strip()
    try:
        timestamp = int(ts.strip())
    except ValueError:
        return None
    if not user or not item or not 0 <= timestamp < TIMESTAMP_LIMIT:
        return None
    return Interaction(user, item, timestamp)


def _looks_like_header_reference(line, fmt):
    parts = line.split("\t" if fmt == "tsv" else ",")
    if len(parts) != 3:
        return False
    try:
        int(parts[2].strip())
    except ValueError:
        return True
    return False


def parse_reference(path, fmt):
    """(interactions, rejects), or FormatError when more than half reject."""
    interactions = []
    rejects = 0
    first_data_line = True
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            text = line.rstrip("\n").rstrip("\r")
            if not text.strip():
                continue
            record = _parse_line_reference(text, fmt)
            if record is None:
                if (first_data_line and fmt in ("tsv", "csv")
                        and _looks_like_header_reference(text, fmt)):
                    first_data_line = False
                    continue
                rejects += 1
            else:
                interactions.append(record)
            first_data_line = False
    total = len(interactions) + rejects
    if total > 0 and rejects * 2 > total:
        raise FormatError(f"{rejects} of {total}")
    return interactions, rejects


def build_reference(interactions, min_user, min_item):
    if not interactions:
        raise DataError("interaction log is empty")
    min_user = max(int(min_user), 2)
    item_counts = Counter(it.item for it in interactions)
    kept = [it for it in interactions if item_counts[it.item] >= min_item]
    user_counts = Counter(it.user for it in kept)
    kept = [it for it in kept if user_counts[it.user] >= min_user]
    if not kept:
        raise DataError("no interactions survive filtering")
    user_vocab, item_vocab, per_user = {}, {}, {}
    for it in kept:
        if it.user not in user_vocab:
            user_vocab[it.user] = len(user_vocab)
            per_user[it.user] = []
        if it.item not in item_vocab:
            item_vocab[it.item] = len(item_vocab)
        per_user[it.user].append(it)
    sequences = []
    for user in user_vocab:
        events = sorted(per_user[user], key=lambda it: it.timestamp)
        sequences.append(UserSequence(user, np.array([item_vocab[it.item] for it in events],
                                                     dtype=np.int64),
                                      np.array([it.timestamp for it in events], dtype=np.int64)))
    return SequenceSet(sequences, item_vocab, user_vocab)


def outcome(fn, *args):
    """fn's result, or the class of the carnn error it raised."""
    try:
        return fn(*args)
    except (DataError, FormatError) as exc:
        return type(exc)


SEPARATORS = {"csv": ",", "tsv": "\t", "movielens_dat": "::"}
# valid values outnumber the rest, so that most logs pass the half-rejected cut-off
TIMESTAMP_FIELDS = st.sampled_from(
    ["0", "1", "2", "3", "4"] * 6  # small, so that users repeat timestamps
    + [" 7 ", "+5", "1_000", str(TIMESTAMP_LIMIT - 1), str(TIMESTAMP_LIMIT), "-5", "12.5", "abc",
       "", "100000000000000000000"])
IDS = st.sampled_from(["a", "b", " c ", "d", "e", "f", "g"] * 3 + ["", " "])


@st.composite
def log_files(draw):
    """(format, text) of a log with malformed, blank and header lines."""
    fmt = draw(st.sampled_from(sorted(SEPARATORS)))
    sep = SEPARATORS[fmt]
    record = st.builds(lambda u, i, t: [u, i, "4", t] if fmt == "movielens_dat" else [u, i, t],
                       IDS, IDS, TIMESTAMP_FIELDS).map(sep.join)
    junk = st.sampled_from(["", "   ", "\t", "garbage", sep.join("xy"), sep.join("wxyzv"),
                            "user,item,timestamp"])
    lines = draw(st.permutations(draw(st.lists(record, max_size=40))
                                 + draw(st.lists(junk, max_size=8))))
    if fmt != "movielens_dat" and draw(st.booleans()):
        lines.insert(draw(st.integers(0, min(2, len(lines)))),
                     sep.join(["user", "item", draw(st.sampled_from(["timestamp", " ts", "1"]))]))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    tail = draw(st.sampled_from(["", "\n"]))
    return fmt, "".join(text + end for text, end in zip(lines, ends)) + tail


class TestColumnarPathMatchesReference:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(log_files(), st.integers(0, 4), st.integers(0, 3))
    def test_parse_and_build(self, log_file, min_user, min_item):
        fmt, text = log_file
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "log")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            expected = outcome(parse_reference, path, fmt)
            log = outcome(parse_interactions, path, fmt)
        if expected is FormatError or log is FormatError:
            assert log is expected
            return
        interactions, rejects = expected
        assert log.interactions == interactions and log.rejects == rejects
        assert log.timestamps.dtype == np.int64
        want = outcome(build_reference, interactions, min_user, min_item)
        got = outcome(build_sequences, log, min_user, min_item)
        if want is DataError or got is DataError:
            assert got is want
            return
        assert list(got.user_vocab.items()) == list(want.user_vocab.items())
        assert list(got.item_vocab.items()) == list(want.item_vocab.items())
        assert len(got.sequences) == len(want.sequences)
        for g, w in zip(got.sequences, want.sequences):
            assert g.user == w.user
            assert g.items.dtype == g.timestamps.dtype == np.int64
            assert g.items.tolist() == w.items.tolist()
            assert g.timestamps.tolist() == w.timestamps.tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("uvwx"), st.sampled_from("abcdef"),
                              st.integers(0, 3)), max_size=40),
           st.integers(0, 6), st.integers(0, 6))
    def test_build_on_equal_timestamps_and_thresholds(self, rows, min_user, min_item):
        log = log_of(rows)
        want = outcome(build_reference, log.interactions, min_user, min_item)
        got = outcome(build_sequences, log, min_user, min_item)
        if want is DataError or got is DataError:
            assert got is want
            return
        assert got.user_ids() == want.user_ids() and got.item_ids() == want.item_ids()
        for g, w in zip(got.sequences, want.sequences):
            assert g.items.tolist() == w.items.tolist()
            assert g.timestamps.tolist() == w.timestamps.tolist()

    def test_counts_exactly_at_the_thresholds_survive(self):
        # "i" occurs exactly min_item times and "u" keeps exactly min_user events
        rows = [("u", "i", 3), ("u", "i", 3), ("u", "j", 1), ("v", "j", 2), ("v", "j", 2),
                ("u", "rare", 0)]
        seqs = build_sequences(log_of(rows), min_user=3, min_item=2)
        assert seqs.user_ids() == ["u"] and seqs.item_ids() == ["i", "j"]
        assert seqs.sequences[0].items.tolist() == [1, 0, 0]


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

    @pytest.mark.parametrize("param", ["min_user", "min_item"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 2.5, None, "x"])
    def test_threshold_not_a_whole_number_is_config_error(self, param, value):
        rows = [(f"u{u}", f"i{k}", k) for u in range(3) for k in range(12)]
        with pytest.raises(ConfigError, match=f"{param} .* is not a whole number"):
            build_sequences(log_of(rows), **{param: value})

    def test_whole_number_thresholds_of_any_type_accepted(self):
        rows = [(f"u{u}", f"i{k % 4}", k) for u in range(3) for k in range(12)]
        expected = build_sequences(log_of(rows), min_user=12, min_item=9)
        for same in (12.0, np.int64(12), "12"):
            got = build_sequences(log_of(rows), min_user=same, min_item=np.float64(9))
            assert got.user_vocab == expected.user_vocab

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
        for ratio in (0.0, 1.0, -0.5, 2.0, None, "x", "", float("nan"), float("inf"), 1e308):
            with pytest.raises(ConfigError):
                split_sequences(seqs, ratio)
        assert split_sequences(seqs, "0.5").n_train.tolist() == [5]

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
