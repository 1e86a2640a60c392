"""Deterministic binary cache for prepared datasets.

Holds the vocabularies, the annotated sequences, the context scheme, and
the train/test boundary. A custom little-endian layout (rather than pickle
or npz) keeps reruns byte-identical, which the reproducibility contract
requires.
"""

from __future__ import annotations

import datetime as _dt
import os
import struct

import numpy as np

from .context import FACTOR_CARDINALITIES, ContextScheme
from .data import SequenceSet, SplitSet, UserSequence
from .errors import FormatError, InputOutputError

MAGIC = b"CASQ"
VERSION = 1

_FACTOR_ORDER = list(FACTOR_CARDINALITIES)


def write_atomic(path: str, data: bytes | str, what: str) -> None:
    """Write ``data`` (text as UTF-8) to a file beside ``path``, then ``os.replace``
    it over ``path``, which never holds a part of it; OSError is InputOutputError."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except OSError as exc:
        raise InputOutputError(f"cannot write {what} {path}: {exc}") from exc
    finally:
        if os.path.lexists(tmp):  # only when something failed
            os.unlink(tmp)


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise FormatError(f"identifier too long to cache ({len(raw)} bytes)")
    return struct.pack("<H", len(raw)) + raw


class _Reader:
    def __init__(self, blob: bytes, path: str):
        self.blob = blob
        self.off = 0
        self.path = path

    def take(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.off + size > len(self.blob):
            raise FormatError(f"{self.path}: truncated cache file")
        values = struct.unpack_from(fmt, self.blob, self.off)
        self.off += size
        return values

    def take_str(self) -> str:
        (n,) = self.take("<H")
        if self.off + n > len(self.blob):
            raise FormatError(f"{self.path}: truncated cache file")
        s = self.blob[self.off:self.off + n].decode("utf-8")
        self.off += n
        return s

    def take_array(self, dtype: str, count: int) -> np.ndarray:
        size = np.dtype(dtype).itemsize * count
        if self.off + size > len(self.blob):
            raise FormatError(f"{self.path}: truncated cache file")
        arr = np.frombuffer(self.blob, dtype=dtype, count=count, offset=self.off)
        self.off += size
        return np.ascontiguousarray(arr, dtype=np.int64)


def write_cache(path: str, split: SplitSet) -> None:
    seqs = split.sequences
    scheme = seqs.scheme
    if scheme is None:
        raise FormatError("only annotated splits can be cached")
    parts = [MAGIC, struct.pack("<I", VERSION)]
    parts.append(struct.pack("<qII", scheme.timezone_offset_seconds,
                             scheme.max_interval_days, len(scheme.factors)))
    for f in scheme.factors:
        parts.append(struct.pack("<B", _FACTOR_ORDER.index(f)))
    holidays = sorted(scheme.holiday_dates)
    parts.append(struct.pack("<I", len(holidays)))
    for day in holidays:
        parts.append(struct.pack("<i", day.toordinal()))

    parts.append(struct.pack("<II", seqs.n_users, seqs.n_items))
    for user in seqs.user_ids():
        parts.append(_pack_str(user))
    for item in seqs.item_ids():
        parts.append(_pack_str(item))

    for i, seq in enumerate(seqs.sequences):
        parts.append(struct.pack("<II", len(seq), int(split.n_train[i])))
        parts.append(seq.items.astype("<u4").tobytes())
        parts.append(seq.timestamps.astype("<i8").tobytes())
        parts.append(seq.input_ctxs.astype("<u4").tobytes())
        parts.append(seq.trans_bins.astype("<u4").tobytes())
    write_atomic(path, b"".join(parts), "cache")


def read_cache(path: str) -> SplitSet:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise InputOutputError(f"cannot read cache {path}: {exc}") from exc
    r = _Reader(blob, path)
    (magic,) = r.take("<4s")
    if magic != MAGIC:
        raise FormatError(f"{path}: bad cache magic {magic!r}")
    (version,) = r.take("<I")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported cache version {version}")
    tz, max_days, n_factors = r.take("<qII")
    factors = []
    for _ in range(n_factors):
        (fi,) = r.take("<B")
        if fi >= len(_FACTOR_ORDER):
            raise FormatError(f"{path}: unknown factor index {fi}")
        factors.append(_FACTOR_ORDER[fi])
    (n_holidays,) = r.take("<I")
    holidays = set()
    for _ in range(n_holidays):
        (ordinal,) = r.take("<i")
        holidays.add(_dt.date.fromordinal(ordinal))
    scheme = ContextScheme(tuple(factors), frozenset(holidays), max_days, tz)

    n_users, n_items = r.take("<II")
    user_ids = [r.take_str() for _ in range(n_users)]
    item_ids = [r.take_str() for _ in range(n_items)]
    user_vocab = {u: i for i, u in enumerate(user_ids)}
    item_vocab = {it: i for i, it in enumerate(item_ids)}

    sequences = []
    n_train = np.zeros(n_users, dtype=np.int64)
    for i in range(n_users):
        length, nt = r.take("<II")
        items = r.take_array("<u4", length)
        ts = r.take_array("<i8", length)
        ctx = r.take_array("<u4", length)
        bins = r.take_array("<u4", length)
        sequences.append(UserSequence(user_ids[i], items, ts, ctx, bins))
        n_train[i] = nt
    if r.off != len(blob):
        raise FormatError(f"{path}: {len(blob) - r.off} trailing bytes in cache")
    seqs = SequenceSet(sequences, item_vocab, user_vocab, scheme=scheme)
    return SplitSet(seqs, n_train)
