import datetime as dt

import numpy as np
import pytest

from carnn import store
from carnn.context import ContextScheme, annotate_sequences
from carnn.data import split_sequences
from carnn.errors import FormatError, InputOutputError
from carnn.evaluate import generate_synthetic


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
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-10])
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
        old = open(path, "rb").read()
        monkeypatch.setattr(store, "open", _FailingFile, raising=False)
        with pytest.raises(InputOutputError, match="cannot write cache .*No space left"):
            store.write_cache(path, make_split())
        assert open(path, "rb").read() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.bin"]

    def test_failed_replace_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / "out.txt")
        store.write_atomic(path, "old\n", "text")

        def no_replace(src, dst):
            raise OSError(13, "Permission denied")

        monkeypatch.setattr(store.os, "replace", no_replace)
        with pytest.raises(InputOutputError, match="cannot write text"):
            store.write_atomic(path, "new\n", "text")
        assert open(path, "rb").read() == b"old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]

    def test_missing_directory_is_io_error(self, tmp_path):
        with pytest.raises(InputOutputError, match="cannot write model file"):
            store.write_atomic(str(tmp_path / "absent" / "m.carn"), b"x", "model file")

    def test_text_is_written_as_utf8(self, tmp_path):
        path = str(tmp_path / "t.txt")
        store.write_atomic(path, "epoch\u00e9\n", "text")
        assert open(path, "rb").read() == "epoch\u00e9\n".encode("utf-8")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.txt"]
