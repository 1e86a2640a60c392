import datetime as dt
import os
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carnn import store
from carnn.context import FACTOR_CARDINALITIES, ContextScheme, annotate_sequences
from carnn.data import MAX_TZ_OFFSET_SECONDS, SequenceSet, SplitSet, UserSequence, split_sequences
from carnn.errors import FormatError, InputOutputError
from carnn.evaluate import generate_synthetic
from conftest import corrupt_first_user_id, patch_cache


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

    def test_unannotated_split_rejected(self, tmp_path):
        split = make_split()
        split.sequences.scheme = None
        with pytest.raises(FormatError):
            store.write_cache(str(tmp_path / "c.bin"), split)

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
        ("input_ctxs", 500, r"input context id 500 out of range \[0, 24\)"),
        ("input_ctxs", 24, r"input context id 24 out of range \[0, 24\)"),
        ("trans_bins", 32, r"gap bin id 32 out of range \[0, 32\)"),
        ("trans_bins", 0, "user 'u0' event 0 has gap bin 0, not the start bin 31"),
        ("timestamps", 2**40, f"user 'u0' event 1 has timestamp .*, before the previous {2**40}"),
    ])
    def test_corrupt_fields_rejected(self, tmp_path, field, value, message):
        path = str(tmp_path / "cache.bin")
        store.write_cache(path, make_split())
        patch_cache(path, field, value)
        with pytest.raises(FormatError, match=message):
            store.read_cache(path)

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
        store.write_cache(path, make_split())
        for field, value in (("n_train", 12), ("items", 9), ("input_ctxs", 23),
                             ("trans_bins", 31)):
            patch_cache(path, field, value)
        split = store.read_cache(path)
        first = split.sequences.sequences[0]
        assert split.n_train[0] == 12
        assert (first.items[0], first.input_ctxs[0], first.trans_bins[0]) == (9, 23, 31)

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
        sequences.append(UserSequence(user, np.array(ids, dtype=np.int64), timestamps))
        n_train.append(draw(st.integers(0, len(gaps))))
    seqs = SequenceSet(sequences, {it: i for i, it in enumerate(items)},
                       {u: i for i, u in enumerate(users)})
    return SplitSet(annotate_sequences(seqs, scheme), np.array(n_train, dtype=np.int64))


@settings(max_examples=60, deadline=None)
@given(annotated_splits())
def test_write_read_write_is_byte_identical(split):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.bin"), os.path.join(tmp, "b.bin")
        store.write_cache(first, split)
        store.write_cache(second, store.read_cache(first))
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()


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
