import dataclasses
import os
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from carnn.context import ContextScheme, annotate_sequences
from carnn.data import (TIMESTAMP_LIMIT, InteractionLog, Interaction, SplitSet, UserEvents,
                        _group_order, build_sequences, full_train_split, parse_interactions,
                        split_sequences, train_length)
from carnn.errors import ConfigError, DataError, FormatError, InputOutputError
from references import reference_grouping, user_events


def interactions_of(log):
    """The log's events as Interaction rows, read off its code and id columns."""
    return [Interaction(log.user_ids[u], log.item_ids[i], t) for u, i, t
            in zip(log.user_codes.tolist(), log.item_codes.tolist(), log.timestamps.tolist())]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParse:
    def test_movielens_line(self, tmp_path):
        path = write(tmp_path, "r.dat", "1::1193::5::978300760\n")
        log = parse_interactions(path, "movielens_dat")
        assert interactions_of(log) == [Interaction("1", "1193", 978300760)]
        assert log.rejects == 0

    def test_csv_line(self, tmp_path):
        path = write(tmp_path, "r.csv", "u1,i2,100\n")
        log = parse_interactions(path, "csv")
        assert interactions_of(log) == [Interaction("u1", "i2", 100)]

    def test_tsv_line(self, tmp_path):
        path = write(tmp_path, "r.tsv", "u1\ti2\t100\n")
        log = parse_interactions(path, "tsv")
        assert interactions_of(log) == [Interaction("u1", "i2", 100)]

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
        assert [log.item_ids[i] for i in log.item_codes] == ["i0", "i1", "i2", "i3", "late"]
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

    def test_byte_order_mark_is_not_part_of_the_first_id(self, tmp_path):
        path = tmp_path / "r.dat"
        path.write_bytes("\ufeff1::10::5::100\n1::11::5::200\n2::10::5::300\n".encode())
        log = parse_interactions(str(path), "movielens_dat")
        assert log.user_ids == ["1", "2"] and log.user_codes.tolist() == [0, 0, 1]

    @pytest.mark.parametrize("fmt, sep", [("csv", ","), ("tsv", "\t")])
    def test_header_after_a_byte_order_mark_is_skipped(self, tmp_path, fmt, sep):
        path = tmp_path / "r.txt"
        path.write_bytes(("\ufeff" + sep.join(["user", "item", "timestamp"]) + "\n"
                          + sep.join(["u1", "i1", "100"]) + "\n").encode())
        log = parse_interactions(str(path), fmt)
        assert interactions_of(log) == [Interaction("u1", "i1", 100)] and log.rejects == 0

    def test_timestamp_past_the_int_digit_limit_rejected(self, tmp_path):
        # int() refuses more than 4,300 digits, so such a field holds no integer
        rows = [f"u1,i{i},{100 + i}" for i in range(3)] + ["u1,x," + "1" * 5000]
        log = parse_interactions(write(tmp_path, "r.csv", "\n".join(rows) + "\n"), "csv")
        assert len(log) == 3 and log.rejects == 1

    @pytest.mark.parametrize("fmt, sep", [("csv", ","), ("tsv", "\t")])
    @pytest.mark.parametrize("timestamp", ["1" * 5000, "-" + "1" * 5000, "+" + "9" * 4301,
                                           "1_" * 4400 + "1", "\u0663" * 4301])
    def test_first_line_past_the_int_digit_limit_is_a_reject_not_a_header(self, tmp_path, fmt,
                                                                          sep, timestamp):
        rows = [["u1", "i0", timestamp], ["u1", "i1", "5"], ["u2", "i1", "7"]]
        log = parse_interactions(write(tmp_path, "r.txt", "".join(sep.join(r) + "\n"
                                                                  for r in rows)), fmt)
        assert (len(log), log.rejects) == (2, 1)

    @pytest.mark.parametrize("fmt, sep", [("csv", ","), ("tsv", "\t")])
    @pytest.mark.parametrize("timestamp", ["12x", "1_2_", "1__2", "+-5", "\u0663" + "x" * 5000,
                                           "1" * 5000 + "x"])
    def test_first_line_without_an_integer_is_a_header(self, tmp_path, fmt, sep, timestamp):
        rows = [["u1", "i0", timestamp], ["u1", "i1", "5"], ["u2", "i1", "7"]]
        log = parse_interactions(write(tmp_path, "r.txt", "".join(sep.join(r) + "\n"
                                                                  for r in rows)), fmt)
        assert (len(log), log.rejects) == (2, 0)

    def test_log_keeps_columns_and_derives_interactions(self, tmp_path):
        path = write(tmp_path, "r.csv", "u1,i1,100\nbad\nu2, i2 ,7\n")
        log = parse_interactions(path, "csv")
        assert (log.user_ids, log.item_ids) == (["u1", "u2"], ["i1", "i2"])
        assert log.user_codes.tolist() == log.item_codes.tolist() == [0, 1]
        assert not hasattr(log, "users")  # the columns are the log; no derived views
        assert log.timestamps.dtype == np.int64 and log.timestamps.tolist() == [100, 7]
        assert interactions_of(log) == [Interaction("u1", "i1", 100), Interaction("u2", "i2", 7)]
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
    except ValueError as exc:
        # int() also refuses an integer of over 4,300 digits, which is no header
        return "Exceeds the limit" not in str(exc)
    return False


def parse_reference(path, fmt):
    """(interactions, rejects), or FormatError when more than half reject."""
    interactions = []
    rejects = 0
    first_data_line = True
    with open(path, "r", encoding="utf-8-sig") as fh:
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
        sequences.append((user, np.array([item_vocab[it.item] for it in events], dtype=np.int64),
                          np.array([it.timestamp for it in events], dtype=np.int64)))
    return user_events(sequences, item_vocab)


def user_slices(events):
    """Each user's ``(user, items, timestamps)`` in ``events``, as views of its columns."""
    cuts = events.offsets.tolist()
    return [(user, events.items[a:b], events.timestamps[a:b])
            for user, a, b in zip(events.user_ids(), cuts, cuts[1:])]


def outcome(fn, *args):
    """fn's result, or the class of the carnn error it raised."""
    try:
        return fn(*args)
    except (DataError, FormatError) as exc:
        return type(exc)


SEPARATORS = {"csv": ",", "tsv": "\t", "movielens_dat": "::"}
# valid values outnumber the rest, so that most logs pass the half-rejected cut-off
TIMESTAMP_FIELDS = st.sampled_from(
    ["0", "1", "2", "3", "4"] * 8  # small, so that users repeat timestamps
    + [" 7 ", "+5", "1_000", str(TIMESTAMP_LIMIT - 1), str(TIMESTAMP_LIMIT), "-5", "12.5", "abc",
       "", "100000000000000000000",
       "\u0663",  # ARABIC-INDIC DIGIT THREE: int() reads it, the digit columns do not
       "012345678901", "999999999999", "0000000000007", "1000000000000",  # 12 and 13 digits
       "1" * 4301, "-" + "1_" * 4400 + "1",  # past int()'s digit limit
       "1\x00", "\x7f"])
IDS = st.sampled_from(
    ["a", "b", " c ", "d", "e", "f", "g"] * 5 + ["", " ", "\u3000d\x85", "c\x1c"]
    + ["abcdefg", "abcdefgh", "an-id-of-more-than-three-words", "é", "é" * 4, "\U0001F600"]
    + ["x:::y", "::::", "p:q", "\x00", "n\x7f"])  # colon runs, NUL and DEL


@st.composite
def log_files(draw):
    """(format, text) of a log with malformed, blank and header lines."""
    fmt = draw(st.sampled_from(sorted(SEPARATORS)))
    sep = SEPARATORS[fmt]
    record = st.builds(lambda u, i, t: [u, i, "4", t] if fmt == "movielens_dat" else [u, i, t],
                       IDS, IDS, TIMESTAMP_FIELDS).map(sep.join)
    junk = st.sampled_from(["", "   ", "\t", "\t\t", "\x85", "\u3000", "\x1c", "\x00", "garbage",
                            sep.join("xy"), sep.join("wxyzv"), "user,item,timestamp"])
    lines = draw(st.permutations(draw(st.lists(record, max_size=40))
                                 + draw(st.lists(junk, max_size=8))))
    if fmt != "movielens_dat" and draw(st.booleans()):
        lines.insert(draw(st.integers(0, min(2, len(lines)))),
                     sep.join(["user", "item", draw(st.sampled_from(["timestamp", " ts", "1"]))]))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    if lines and draw(st.booleans()):
        ends[-1] = ""  # a last line without a newline
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
        assert interactions_of(log) == interactions and log.rejects == rejects
        assert log.timestamps.dtype == np.int64
        assert log.user_ids == list(dict.fromkeys(it.user for it in interactions))
        assert log.item_ids == list(dict.fromkeys(it.item for it in interactions))
        want = outcome(build_reference, interactions, min_user, min_item)
        got = outcome(build_sequences, log, min_user, min_item)
        if want is DataError or got is DataError:
            assert got is want
            return
        assert list(got.user_vocab.items()) == list(want.user_vocab.items())
        assert list(got.item_vocab.items()) == list(want.item_vocab.items())
        assert got.items.dtype == got.timestamps.dtype == np.int64
        for (gu, gi, gt), (wu, wi, wt) in zip(user_slices(got), user_slices(want), strict=True):
            assert gu == wu and gi.tolist() == wi.tolist() and gt.tolist() == wt.tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("uvwx"), st.sampled_from("abcdef"),
                              st.integers(0, 3)), max_size=40),
           st.integers(0, 6), st.integers(0, 6))
    def test_build_on_equal_timestamps_and_thresholds(self, rows, min_user, min_item):
        log = log_of(rows)
        want = outcome(build_reference, interactions_of(log), min_user, min_item)
        got = outcome(build_sequences, log, min_user, min_item)
        if want is DataError or got is DataError:
            assert got is want
            return
        assert got.user_ids() == want.user_ids() and got.item_ids() == want.item_ids()
        for (_, gi, gt), (_, wi, wt) in zip(user_slices(got), user_slices(want)):
            assert gi.tolist() == wi.tolist() and gt.tolist() == wt.tolist()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("uvwx"), st.sampled_from("abcdef"),
                              st.integers(0, 3)), min_size=1, max_size=40))
    def test_constructed_and_parsed_logs_build_equal_sequences(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "log.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("".join(f"{u},{i},{t}\n" for u, i, t in rows))
            parsed = parse_interactions(path, "csv")
        want = outcome(build_sequences, log_of(rows), 2, 1)
        got = outcome(build_sequences, parsed, 2, 1)
        if want is DataError or got is DataError:
            assert got is want
            return
        assert list(got.user_vocab.items()) == list(want.user_vocab.items())
        assert list(got.item_vocab.items()) == list(want.item_vocab.items())
        for (gu, gi, gt), (wu, wi, wt) in zip(user_slices(got), user_slices(want), strict=True):
            assert gu == wu and gi.tolist() == wi.tolist() and gt.tolist() == wt.tolist()

    def test_counts_exactly_at_the_thresholds_survive(self):
        # "i" occurs exactly min_item times and "u" keeps exactly min_user events
        rows = [("u", "i", 3), ("u", "i", 3), ("u", "j", 1), ("v", "j", 2), ("v", "j", 2),
                ("u", "rare", 0)]
        seqs = build_sequences(log_of(rows), min_user=3, min_item=2)
        assert seqs.user_ids() == ["u"] and seqs.item_ids() == ["i", "j"]
        assert seqs.items.tolist() == [1, 0, 0]


class TestBuildSequences:
    def test_user_below_threshold_removed(self):
        # one user with 9 records of otherwise popular items: gone at min_user=10
        rows = [("thin", f"i{k % 3}", k) for k in range(9)]
        rows += [("fat", f"i{k % 3}", k) for k in range(12)]
        seqs = build_sequences(log_of(rows), min_user=10, min_item=3)
        assert set(seqs.user_vocab) == {"fat"}

    def test_fields_cannot_be_rebound_and_a_replaced_set_has_its_own_views(self):
        rows = [(f"u{k % 2}", f"i{k % 3}", k) for k in range(8)]
        events = build_sequences(log_of(rows), min_user=2, min_item=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            events.items = events.items + 1
        seqs = annotate_sequences(events, ContextScheme())
        assert seqs[0].user == "u0"  # the views are built
        with pytest.raises(dataclasses.FrozenInstanceError):
            seqs.user_vocab = {"x0": 0, "x1": 1}
        with pytest.raises(dataclasses.FrozenInstanceError):
            seqs.items = seqs.items + 1
        renamed = dataclasses.replace(seqs, user_vocab={"x0": 0, "x1": 1})
        assert renamed[0].user == "x0" and seqs[0].user == "u0"
        assert np.shares_memory(renamed[0].items, seqs.items)

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
        assert seqs.lengths.tolist() == [12, 12, 12]

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
        ids = seqs.item_ids()
        ordered = [ids[i] for i in seqs.items]
        assert ordered == ["d", "d", "d"] + ["a", "b", "c"] * 3

    def test_timestamps_non_decreasing(self):
        rng = np.random.default_rng(0)
        rows = [("u", f"i{rng.integers(4)}", int(rng.integers(1000))) for _ in range(40)]
        seqs = build_sequences(log_of(rows), min_user=2, min_item=1)
        ts = seqs.timestamps
        assert np.all(np.diff(ts) >= 0)

    def test_duplicate_records_kept_as_distinct_events(self):
        rows = [("u", "i", 5)] * 12
        seqs = build_sequences(log_of(rows), min_user=10, min_item=3)
        assert seqs.lengths.tolist() == [12]

    def test_surviving_users_meet_threshold(self):
        rng = np.random.default_rng(1)
        rows = [(f"u{rng.integers(8)}", f"i{rng.integers(6)}", int(rng.integers(500)))
                for _ in range(120)]
        seqs = build_sequences(log_of(rows), min_user=10, min_item=3)
        assert (seqs.lengths >= 10).all()


# timestamps that meet at the ends of the accepted range, or repeat
GROUPING_TIMESTAMPS = st.one_of(st.sampled_from([0, 1, 2, TIMESTAMP_LIMIT - 1]),
                                st.integers(0, TIMESTAMP_LIMIT - 1))


class TestGrouping:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([1, 3, 60]).flatmap(lambda n_users: st.lists(
        st.tuples(st.integers(0, n_users - 1), st.sampled_from("abcdefgh"), GROUPING_TIMESTAMPS),
        min_size=2, max_size=200)))
    def test_matches_the_lexsort_reference(self, rows):
        counts = Counter(u for u, _, _ in rows)
        rows = [(f"u{u}", i, t) for u, i, t in rows if counts[u] >= 2]  # none filtered below
        assume(rows)
        log = log_of(rows)
        seqs = annotate_sequences(build_sequences(log, min_user=2, min_item=1), ContextScheme())
        items, stamps = reference_grouping(log.user_codes, log.item_codes, log.timestamps)
        assert list(seqs.user_vocab) == log.user_ids
        assert len(seqs.sequences) == len(items)
        for u, (seq, want_items, want_ts) in enumerate(zip(seqs.sequences, items, stamps)):
            # each user's arrays are views of the set's columns
            assert seqs[u] is seq and np.shares_memory(seq.items, seqs.items)
            assert np.shares_memory(seq.timestamps, seqs.timestamps)
            assert seq.items.dtype == seq.timestamps.dtype == np.int64
            assert seq.items.tolist() == want_items.tolist()
            assert seq.timestamps.tolist() == want_ts.tolist()

    def test_largest_key_that_fits_int64_sorts(self):
        n = 2**63 // TIMESTAMP_LIMIT  # the span is TIMESTAMP_LIMIT
        users = np.array([n - 1, n - 1, 0, 0], dtype=np.int64)
        ts = np.array([TIMESTAMP_LIMIT - 1, 0, TIMESTAMP_LIMIT - 1, 0], dtype=np.int64)
        assert _group_order(users, ts, n).tolist() == [3, 2, 1, 0]

    def test_key_past_int64_is_data_error(self):
        ts = np.array([0, TIMESTAMP_LIMIT - 1], dtype=np.int64)
        with pytest.raises(DataError, match="overflow the int64 sort key"):
            _group_order(np.zeros(2, dtype=np.int64), ts, 2**63 // TIMESTAMP_LIMIT + 1)
        # a narrower span leaves room for as many more users
        assert _group_order(np.zeros(2, dtype=np.int64), ts // 2,
                            2**63 // TIMESTAMP_LIMIT + 1).tolist() == [0, 1]


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

    def test_heldout_positions_and_mask_on_ragged_users(self):
        # n_train 0 of 3 events (all held out), 1 of 1 and 2 of 2 (none held
        # out), 0 of an empty user's none, and 2 of 4
        seqs = UserEvents(np.arange(10), np.arange(10), np.array([0, 3, 4, 4, 8, 10]),
                          {f"i{k}": k for k in range(10)}, {f"u{u}": u for u in range(5)})
        split = SplitSet(seqs, np.array([0, 1, 0, 2, 2]))
        pos, held = split.heldout()
        assert pos.tolist() == [0, 1, 2, 0, 0, 1, 2, 3, 0, 1]
        assert held.tolist() == [True] * 3 + [False] + [False, False, True, True] + [False] * 2
        assert int(held.sum()) == split.n_test_positions

    @pytest.mark.parametrize("n_train, message",
                             [([-1, 2], r"user 'u0' has n_train=-1 outside \[0, 2\]"),
                              ([2, 4], r"user 'u1' has n_train=4 outside \[0, 3\]")])
    def test_heldout_refuses_n_train_outside_the_sequence(self, n_train, message):
        # training steps [offsets[u], offsets[u] + n_train[u]), which past the
        # user's length would read the next user's events
        seqs = UserEvents(np.arange(5), np.arange(5), np.array([0, 2, 5]),
                          {f"i{k}": k for k in range(5)}, {"u0": 0, "u1": 1})
        with pytest.raises(ConfigError, match=message):
            SplitSet(seqs, np.array(n_train)).heldout()

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
        for i, (_, items, _) in enumerate(user_slices(split.sequences)):
            n = int(split.n_train[i])
            rebuilt = np.concatenate([items[:n], items[n:]])
            assert np.array_equal(rebuilt, items)
            assert n >= 1
