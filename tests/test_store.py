import datetime as dt
import os
import struct
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carnn import store
from carnn.context import FACTOR_CARDINALITIES, ContextScheme, annotate_sequences, input_context
from carnn.data import MAX_TZ_OFFSET_SECONDS, TIMESTAMP_LIMIT, SplitSet, split_sequences
from carnn.errors import CompatibilityError, ConfigError, FormatError, InputOutputError
from carnn.evaluate import _SYNTH_EPOCH, generate_synthetic
from conftest import (corrupt_first_user_id, patch_cache, reseal, user_lengths_offset,
                      version_1_cache, version_2_cache)
from references import user_events


def make_split(holidays=frozenset()):
    seqs, scheme = generate_synthetic(6, 10, 12, 3, signal="input_ctx", seed=14)
    if holidays:
        scheme = ContextScheme(factors=scheme.factors, holiday_dates=holidays,
                               max_interval_days=scheme.max_interval_days)
        seqs = annotate_sequences(seqs, scheme)
    return split_sequences(seqs, 0.8)


class TestCache:
    def test_round_trip_preserves_everything(self, tmp_path):
        split = make_split()
        path = str(tmp_path / "cache.bin")
        store.write_cache(path, split)
        again = store.read_cache(path)
        assert again.sequences.user_vocab == split.sequences.user_vocab
        assert again.sequences.item_vocab == split.sequences.item_vocab
        assert again.sequences.scheme == split.sequences.scheme
        assert np.array_equal(again.n_train, split.n_train)
        for name in ("items", "timestamps", "input_ctxs", "trans_bins", "offsets"):
            assert np.array_equal(getattr(again.sequences, name), getattr(split.sequences, name))
        for a, b in zip(again.sequences.sequences, split.sequences.sequences):
            assert a.user == b.user
            assert np.array_equal(a.items, b.items)
            assert np.array_equal(a.timestamps, b.timestamps)
            assert np.array_equal(a.input_ctxs, b.input_ctxs)
            assert np.array_equal(a.trans_bins, b.trans_bins)

    def test_holiday_dates_survive(self, tmp_path):
        holidays = frozenset({dt.date(2000, 1, 3), dt.date(2000, 12, 25)})
        split = make_split(holidays)
        path = str(tmp_path / "cache.bin")
        store.write_cache(path, split)
        assert store.read_cache(path).sequences.scheme.holiday_dates == holidays

    @pytest.mark.parametrize("n_train, message", [
        ([6, 2, 2], r"user 'u0' has n_train=6 outside \[0, 5\]"),
        ([3, -1, 2], r"user 'u1' has n_train=-1 outside \[0, 5\]")])
    def test_n_train_outside_a_sequence_is_refused_before_writing(self, tmp_path, n_train,
                                                                  message):
        # stored as <u4, -1 would be 4294967295, and either cache would read back damaged
        seqs = annotate_sequences(user_events(
            [(f"u{u}", np.zeros(5, np.int64), 3600 * np.arange(5)) for u in range(3)],
            {"i0": 0}), ContextScheme())
        with pytest.raises(ConfigError, match=message):
            store.write_cache(str(tmp_path / "c.bin"), SplitSet(seqs, n_train))
        assert not any(tmp_path.iterdir())

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(FormatError, match="magic"):
            store.read_cache(str(path))

    def test_truncation_rejected(self, tmp_path):
        split = make_split()
        path = str(tmp_path / "cache.bin")
        store.write_cache(path, split)
        blob = Path(path).read_bytes()
        Path(path).write_bytes(blob[:-10])
        with pytest.raises(FormatError, match="truncated"):
            store.read_cache(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        split = make_split()
        path = str(tmp_path / "cache.bin")
        store.write_cache(path, split)
        with open(path, "ab") as fh:
            fh.write(b"extra")
        with pytest.raises(FormatError, match="trailing"):
            store.read_cache(path)


    @pytest.mark.parametrize("field,value,message", [
        ("n_train", 99, "n_train=99 beyond its 12 events"),
        ("items", 10, r"item id 10 out of range \[0, 10\)"),
        ("trans_bins", 32, r"gap bin id 32 out of range \[0, 32\)"),
        ("trans_bins", 0, "user 'u0' event 0 has gap bin 0, not the start bin 31"),
        ("timestamps", 2**37 // 86400 * 86400,
         r"user 'u0' event 1 has timestamp .*, before the previous 137438899200$"),
    ])
    def test_corrupt_fields_rejected(self, tmp_path, field, value, message):
        path = str(tmp_path / "cache.bin")
        store.write_cache(path, make_split())
        patch_cache(path, field, value)
        with pytest.raises(FormatError, match=message):
            store.read_cache(path)

    @pytest.mark.parametrize("move", [lambda t: -1, lambda t: TIMESTAMP_LIMIT,
                                      lambda t: t - 200_000 * 7 * 86400],
                             ids=["below-0", "at-the-limit", "200000-weeks-earlier"])
    def test_timestamp_outside_the_parsed_range_rejected(self, tmp_path, move):
        path = str(tmp_path / "cache.bin")
        store.write_cache(path, make_split())
        value = move(int(store.read_cache(path).sequences.timestamps[0]))
        patch_cache(path, "timestamps", value)
        with pytest.raises(FormatError, match=rf"user 'u0' event 0 has timestamp {value}, "
                                              rf"outside \[0, {TIMESTAMP_LIMIT}\)$"):
            store.read_cache(path)

    def test_first_and_last_parsed_timestamps_round_trip(self, tmp_path):
        ts = np.array([0, TIMESTAMP_LIMIT - 1], dtype=np.int64)
        seqs = user_events([("u0", np.zeros(2, np.int64), ts)], {"i0": 0})
        split = SplitSet(annotate_sequences(seqs, make_split().sequences.scheme),
                         np.ones(1, np.int64))
        path = str(tmp_path / "cache.bin")
        store.write_cache(path, split)
        assert store.read_cache(path).sequences.timestamps.tolist() == ts.tolist()

    def test_non_utf8_identifier_rejected(self, tmp_path):
        path = str(tmp_path / "cache.bin")
        store.write_cache(path, make_split())
        corrupt_first_user_id(path)
        with pytest.raises(FormatError, match="is not UTF-8"):
            store.read_cache(path)

    @pytest.mark.parametrize("offset,fmt,value,message", [
        (8, "<q", 10**6, "timezone offset"),
        (16, "<I", 0, "max_interval_days"),
        (29, "<i", 0, "ordinal"),  # the one holiday, after one factor byte
    ])
    def test_invalid_scheme_header_rejected(self, tmp_path, offset, fmt, value, message):
        path = tmp_path / "cache.bin"
        store.write_cache(str(path), make_split(frozenset({dt.date(2000, 1, 3)})))
        blob = bytearray(path.read_bytes())
        struct.pack_into(fmt, blob, offset, value)
        path.write_bytes(bytes(blob))
        reseal(str(path))
        with pytest.raises(FormatError, match=f"invalid context scheme.*{message}"):
            store.read_cache(str(path))

    def test_start_bin_after_the_first_event_rejected(self, tmp_path):
        split = make_split()
        split.sequences.sequences[2].trans_bins[3] = 31
        path = str(tmp_path / "cache.bin")
        store.write_cache(path, split)
        with pytest.raises(FormatError, match="user 'u2' event 3 has the start bin 31 "
                                              "after its first event"):
            store.read_cache(path)

    def test_largest_stored_ids_accepted(self, tmp_path):
        path = str(tmp_path / "cache.bin")
        split = make_split()
        seqs = split.sequences
        # input context 23, the largest, is the hour of a first event at 23:00
        seqs.timestamps[0] = _SYNTH_EPOCH + 23 * 3600
        store.write_cache(path, SplitSet(annotate_sequences(seqs, seqs.scheme), split.n_train))
        for field, value in (("n_train", 12), ("items", 9), ("trans_bins", 31)):
            patch_cache(path, field, value)
        split = store.read_cache(path)
        first = split.sequences.sequences[0]
        assert split.n_train[0] == 12
        assert (first.items[0], first.input_ctxs[0], first.trans_bins[0]) == (9, 23, 31)

    def test_input_context_follows_a_moved_timestamp(self, tmp_path):
        path = str(tmp_path / "cache.bin")
        store.write_cache(path, make_split())
        t0, t1 = store.read_cache(path).sequences[0].timestamps[:2].tolist()
        assert t0 + 3600 <= t1  # still in order once moved
        patch_cache(path, "timestamps", t0 + 3600)
        seqs = store.read_cache(path).sequences
        assert seqs.timestamps[0] == t0 + 3600
        # the hour_of_day scheme's context is the hour, one past the old one
        assert seqs.input_ctxs[0] == input_context(t0 + 3600, seqs.scheme) == (t0 // 3600 + 1) % 24

    def test_largest_max_interval_days_round_trips(self, tmp_path):
        split = make_split()
        scheme = ContextScheme(factors=split.sequences.scheme.factors,
                               max_interval_days=2**32 - 2)
        split = SplitSet(annotate_sequences(split.sequences, scheme), split.n_train)
        path = str(tmp_path / "cache.bin")
        store.write_cache(path, split)
        again = store.read_cache(path)
        assert again.sequences.scheme == scheme
        assert again.sequences.sequences[0].trans_bins[0] == 2**32 - 1


    def test_read_arrays_are_writeable_int64_and_apart(self, tmp_path):
        path = str(tmp_path / "cache.bin")
        store.write_cache(path, make_split())
        split = store.read_cache(path)
        first, second = split.sequences.sequences[:2]
        for seq in (first, second):
            for arr in (seq.items, seq.timestamps, seq.input_ctxs, seq.trans_bins):
                assert arr.dtype == np.int64 and arr.flags.writeable
        assert split.n_train.dtype == np.int64 and split.n_train.flags.writeable
        before = second.items.copy()
        first.items[-1] = 7  # the users' arrays share a column, not elements
        assert np.array_equal(second.items, before)
        # each user's arrays are views of the set's columns, built once
        seqs = split.sequences
        assert seqs[1] is seqs.sequences[1] is second
        for name in ("items", "timestamps", "input_ctxs", "trans_bins"):
            assert np.shares_memory(getattr(second, name), getattr(seqs, name))
        assert seqs.items[seqs.offsets[1] - 1] == 7

    @pytest.mark.parametrize("lengths", [[], [0, 0], [0, 3, 0, 2, 0]])
    def test_split_with_empty_users_round_trips(self, tmp_path, lengths):
        scheme = make_split().sequences.scheme
        users = [f"u{k}" for k in range(len(lengths))]
        seqs = user_events([(u, np.zeros(n, np.int64), 3600 * np.arange(n))
                            for u, n in zip(users, lengths)], {"i0": 0})
        split = SplitSet(annotate_sequences(seqs, scheme), np.zeros(len(users), np.int64))
        path = str(tmp_path / "cache.bin")
        store.write_cache(path, split)
        again = store.read_cache(path)
        assert again.sequences.user_ids() == users
        assert again.sequences.item_ids() == ["i0"]
        assert [len(s) for s in again.sequences.sequences] == lengths
        assert again.n_train.tolist() == [0] * len(users)
        for name in ("items", "timestamps", "input_ctxs", "trans_bins", "offsets"):
            got, want = getattr(again.sequences, name), getattr(split.sequences, name)
            assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want), name

    def test_multibyte_ids_round_trip(self, tmp_path):
        split = make_split()
        seqs = split.sequences
        names = ["\u00e9", "", "\u4e2d\u6587", "\U0001f600x", "a\u00e9b", "z"]
        split = SplitSet(replace(seqs, user_vocab={name: i for i, name in enumerate(names)}),
                         split.n_train)
        path = str(tmp_path / "cache.bin")
        store.write_cache(path, split)
        again = store.read_cache(path).sequences
        assert again.user_ids() == names
        assert [s.user for s in again.sequences] == names

    def test_identifier_byte_limit(self, tmp_path):
        split = make_split()
        items = split.sequences.item_ids()
        path = tmp_path / "cache.bin"
        for size in (0xFFFF, 0x10000):
            items[1] = "\u00e9" * (size // 2) + "x" * (size % 2)  # size UTF-8 bytes
            split = SplitSet(replace(split.sequences,
                                     item_vocab={item: i for i, item in enumerate(items)}),
                             split.n_train)
            if size == 0xFFFF:
                store.write_cache(str(path), split)
                assert store.read_cache(str(path)).sequences.item_ids() == items
            else:
                with pytest.raises(FormatError,
                                   match=r"identifier too long to cache \(65536 bytes\)"):
                    store.write_cache(str(path), split)

    def test_id_cut_inside_a_character_rejected(self, tmp_path):
        split = make_split()
        seqs = split.sequences
        names = ["\u00e9", "x"] + seqs.user_ids()[2:]  # the blob starts c3 a9 78
        split = SplitSet(replace(seqs, user_vocab={name: i for i, name in enumerate(names)}),
                         split.n_train)
        path = tmp_path / "cache.bin"
        store.write_cache(str(path), split)
        at = user_lengths_offset(str(path))
        blob = bytearray(path.read_bytes())
        struct.pack_into("<HH", blob, at, 1, 2)  # c3 and a9 78: the blob is still UTF-8
        path.write_bytes(bytes(blob))
        reseal(str(path))
        with pytest.raises(FormatError, match=f"identifier at byte {at + 12} is not UTF-8"):
            store.read_cache(str(path))

    def test_checksum_mismatch_rejected(self, tmp_path):
        path = tmp_path / "cache.bin"
        store.write_cache(str(path), make_split())
        blob = bytearray(path.read_bytes())
        blob[-30] ^= 0x01  # an event byte, with the trailer left as it was
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="checksum 0x[0-9a-f]{8} does not match "
                                              "the stored 0x[0-9a-f]{8}"):
            store.read_cache(str(path))

    def test_every_single_bit_flip_rejected(self, tmp_path):
        seqs, _ = generate_synthetic(2, 4, 4, 2, signal="input_ctx", seed=5)
        path = tmp_path / "cache.bin"
        store.write_cache(str(path), split_sequences(seqs, 0.5))
        blob = path.read_bytes()
        assert 150 < len(blob) < 400
        accepted = []
        for bit in range(8 * len(blob)):
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(flipped))
            try:
                store.read_cache(str(path))
            except FormatError:
                continue
            accepted.append(bit)
        assert accepted == []

    @pytest.mark.parametrize("version, old_cache", [(1, version_1_cache), (2, version_2_cache)])
    def test_version_1_cache_is_compatibility_error(self, tmp_path, version, old_cache):
        path = tmp_path / "cache.bin"
        path.write_bytes(old_cache(make_split()))
        with pytest.raises(CompatibilityError,
                           match=f"cache format {version} .*re-run `carnn prepare`"):
            store.read_cache(str(path))

    def test_frombuffer_calls_do_not_grow_with_users(self, tmp_path, monkeypatch):
        frombuffer, calls = np.frombuffer, []

        def counted(*args, **kwargs):
            calls.append(None)
            return frombuffer(*args, **kwargs)

        monkeypatch.setattr(store.np, "frombuffer", counted)
        counts = []
        for n_users in (3, 30):
            seqs, _ = generate_synthetic(n_users, 10, 12, 3, signal="input_ctx", seed=14)
            path = str(tmp_path / f"cache{n_users}.bin")
            store.write_cache(path, split_sequences(seqs, 0.8))
            calls.clear()
            store.read_cache(path)
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 12


@st.composite
def annotated_splits(draw):
    """Small annotated splits under drawn schemes; ids are arbitrary text."""
    scheme = ContextScheme(
        tuple(draw(st.lists(st.sampled_from(list(FACTOR_CARDINALITIES)), min_size=1,
                            unique=True))),
        draw(st.frozensets(st.dates(dt.date(1970, 1, 1), dt.date(2100, 1, 1)), max_size=3)),
        draw(st.integers(1, 40)),
        draw(st.integers(-MAX_TZ_OFFSET_SECONDS, MAX_TZ_OFFSET_SECONDS)))
    users = draw(st.lists(st.text(max_size=4), max_size=4, unique=True))
    items = draw(st.lists(st.text(max_size=4), min_size=1, max_size=5, unique=True))
    sequences, n_train = [], []
    for user in users:
        gaps = draw(st.lists(st.integers(0, 45 * 86400), max_size=6))
        timestamps = draw(st.integers(0, 4 * 10**9)) + np.cumsum(gaps, dtype=np.int64)
        ids = draw(st.lists(st.integers(0, len(items) - 1), min_size=len(gaps),
                            max_size=len(gaps)))
        sequences.append((user, np.array(ids, dtype=np.int64), timestamps))
        n_train.append(draw(st.integers(0, len(gaps))))
    seqs = user_events(sequences, {it: i for i, it in enumerate(items)})
    return SplitSet(annotate_sequences(seqs, scheme), np.array(n_train, dtype=np.int64))


@settings(max_examples=60, deadline=None)
@given(annotated_splits())
def test_write_read_write_is_byte_identical(split):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.bin"), os.path.join(tmp, "b.bin")
        store.write_cache(first, split)
        again = store.read_cache(first)
        store.write_cache(second, again)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()
    for name in ("items", "timestamps", "input_ctxs", "trans_bins", "offsets"):
        assert np.array_equal(getattr(again.sequences, name), getattr(split.sequences, name))


class _FailingFile:
    """Writes half of what it is given, then fails as a full disk would."""

    def __init__(self, path, mode):
        self.fh = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")


class TestAtomicWrite:
    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / "cache.bin")
        store.write_cache(path, make_split())
        old = Path(path).read_bytes()
        monkeypatch.setattr(store, "open", _FailingFile, raising=False)
        with pytest.raises(InputOutputError, match="cannot write cache .*No space left"):
            store.write_cache(path, make_split())
        assert Path(path).read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.bin"]

    def test_failed_replace_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / "out.txt")
        store.write_atomic(path, "old\n", "text")

        def no_replace(src, dst):
            raise OSError(13, "Permission denied")

        monkeypatch.setattr(store.os, "replace", no_replace)
        with pytest.raises(InputOutputError, match="cannot write text"):
            store.write_atomic(path, "new\n", "text")
        assert Path(path).read_bytes() == b"old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]

    def test_missing_directory_is_io_error(self, tmp_path):
        with pytest.raises(InputOutputError, match="cannot write model file"):
            store.write_atomic(str(tmp_path / "absent" / "m.carn"), b"x", "model file")

    def test_text_is_written_as_utf8(self, tmp_path):
        path = str(tmp_path / "t.txt")
        store.write_atomic(path, "epoch\u00e9\n", "text")
        assert Path(path).read_bytes() == "epoch\u00e9\n".encode("utf-8")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.txt"]
