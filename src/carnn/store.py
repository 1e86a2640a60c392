"""The checksummed binary frame that the cache and the model file share,
and the deterministic cache for prepared datasets.

A frame (``write_sealed``) is a 4-byte magic, a ``<u4`` version, the parts,
and a CRC-32 of every byte before it; ``SealedReader`` reads one back.

The cache holds the vocabularies, the annotated sequences, the context
scheme, and the train/test boundary. A custom little-endian layout (rather
than pickle or npz) keeps reruns byte-identical, which the reproducibility
contract requires.

Format 4 is columnar. Inside the frame come the context scheme,
``n_users`` and ``n_items``; each vocabulary as a ``<u2`` column of
UTF-8 byte lengths and one blob; a ``<u4`` length column and a ``<u4``
``n_train`` column, one entry per user; and the item (``<u4``), timestamp
(``<i8``) and gap-bin (``<u4``) columns over every user's events in user
order.

The event columns are a ``SequenceSet``'s and the lengths its offsets'
differences. ``read_cache`` checks ids, timestamp range and order, and start
bins, then derives the input contexts with one ``input_context`` call.
"""

from __future__ import annotations

import datetime as _dt
import os
import struct
import zlib

import numpy as np

from .context import FACTOR_CARDINALITIES, ContextScheme, input_context
from .data import TIMESTAMP_LIMIT, SequenceSet, SplitSet
from .errors import CompatibilityError, ConfigError, FormatError, InputOutputError

MAGIC = b"CASQ"
# 4, not 3: 3 is one bit away from 2 and from 1, so a flipped version bit
# would read as an older format (CompatibilityError) rather than damage
VERSION = 4

_FACTOR_ORDER = list(FACTOR_CARDINALITIES)
_EVENT_COLUMNS = (("items", "<u4"), ("timestamps", "<i8"), ("trans_bins", "<u4"))


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


def _vocab_parts(ids: list[str]) -> list:
    """A vocabulary as a ``<u2`` column of UTF-8 byte lengths and one blob."""
    raw = [s.encode("utf-8") for s in ids]
    lengths = np.fromiter(map(len, raw), np.int64, len(raw))
    if (long := lengths > 0xFFFF).any():
        raise FormatError(f"identifier too long to cache ({lengths[long.argmax()]} bytes)")
    return [lengths.astype("<u2"), b"".join(raw)]


def write_cache(path: str, split: SplitSet) -> None:
    seqs = split.sequences
    scheme = seqs.scheme
    if scheme is None:
        raise FormatError("only annotated splits can be cached")
    holidays = sorted(day.toordinal() for day in scheme.holiday_dates)
    parts = [struct.pack("<qII", scheme.timezone_offset_seconds, scheme.max_interval_days,
                         len(scheme.factors)),
             bytes(_FACTOR_ORDER.index(f) for f in scheme.factors),
             struct.pack(f"<I{len(holidays)}i", len(holidays), *holidays),
             struct.pack("<II", seqs.n_users, seqs.n_items),
             *_vocab_parts(seqs.user_ids()), *_vocab_parts(seqs.item_ids()),
             seqs.lengths.astype("<u4"), np.asarray(split.n_train).astype("<u4"),
             *(getattr(seqs, field).astype(dtype) for field, dtype in _EVENT_COLUMNS)]
    write_sealed(path, MAGIC, VERSION, parts, "cache")


def write_sealed(path: str, magic: bytes, version: int, parts: list, what: str) -> None:
    """Write a frame through ``write_atomic``: ``magic``, ``version`` as
    ``<u4``, the bytes of each part, and a CRC-32 of all of them."""
    parts = [magic, struct.pack("<I", version), *parts]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    write_atomic(path, b"".join([*parts, struct.pack("<I", crc)]), what)


class SealedReader:
    """A cursor over a frame that ``write_sealed`` wrote, past its magic and
    version; every step checks that its bytes are there. A file that cannot
    be read is InputOutputError, a wrong magic FormatError. An older
    version is CompatibilityError, naming the command that rebuilds the
    file (``rerun``); any other wrong version is FormatError."""

    def __init__(self, path: str, magic: bytes, version: int, what: str, rerun: str):
        try:
            with open(path, "rb") as fh:
                self.blob = fh.read()
        except OSError as exc:
            raise InputOutputError(f"cannot read {what} {path}: {exc}") from exc
        self.off, self.path, self.what = 0, path, what
        (found,) = self.take("<4s")
        if found != magic:
            raise FormatError(f"{path}: bad {what} magic {found!r}")
        (found,) = self.take("<I")
        if 0 < found < version:
            raise CompatibilityError(f"{path}: {what} format {found} is no longer read; "
                                     f"re-run `carnn {rerun}` to rebuild it")
        if found != version:
            raise FormatError(f"{path}: unsupported {what} version {found}")

    def skip(self, size: int) -> int:
        """Step over ``size`` bytes and return where they start."""
        start = self.off
        if start + size > len(self.blob):
            raise FormatError(f"{self.path}: truncated {self.what}")
        self.off += size
        return start

    def take(self, fmt: str):
        return struct.unpack_from(fmt, self.blob, self.skip(struct.calcsize(fmt)))

    def take_column(self, dtype: str, count: int) -> np.ndarray:
        """A read-only view of the ``count`` values at the cursor."""
        dt = np.dtype(dtype)
        return np.frombuffer(self.blob, dt, count, self.skip(dt.itemsize * count))

    def close(self) -> None:
        """Read the CRC-32 trailer: FormatError if bytes follow it, or if it
        is not the checksum of every byte before it."""
        end = self.off
        (crc,) = self.take("<I")
        if self.off != len(self.blob):
            raise FormatError(f"{self.path}: {len(self.blob) - self.off} trailing bytes "
                              f"in {self.what}")
        if (actual := zlib.crc32(memoryview(self.blob)[:end])) != crc:
            raise FormatError(f"{self.path}: {self.what} checksum {actual:#010x} does not "
                              f"match the stored {crc:#010x}")


def _decode_ids(path: str, blob: bytes, at: int, lengths: np.ndarray) -> list[str]:
    """The ids whose UTF-8 byte ``lengths`` are given, stored back to back
    from byte ``at``: the blob is decoded once and cut where each id's first
    character begins."""
    ends = np.cumsum(lengths, dtype=np.int64)
    cuts = ends - lengths
    raw = blob[at:at + (int(ends[-1]) if ends.size else 0)]
    lead = (np.frombuffer(raw, np.uint8) & 0xC0) != 0x80  # not a continuation byte
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        text = None
    if text is None or not lead[cuts[lengths > 0]].all():
        for a, b in zip(cuts.tolist(), ends.tolist()):  # find the first bad id
            try:
                raw[a:b].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path}: identifier at byte {at + a} "
                                  f"is not UTF-8: {exc}") from exc
    chars = np.concatenate(([0], np.cumsum(lead, dtype=np.int64)))
    return [text[a:b] for a, b in zip(chars[cuts].tolist(), chars[ends].tolist())]


def read_cache(path: str) -> SplitSet:
    r = SealedReader(path, MAGIC, VERSION, "cache", "prepare")
    # every size the header gives must fit the file exactly, before the checksum
    tz, max_days, n_factors = r.take("<qII")
    factors = r.take_column("u1", n_factors)
    ordinals = r.take_column("<i4", r.take("<I")[0])
    n_users, n_items = r.take("<II")
    vocabs = []
    for count in (n_users, n_items):
        lengths = r.take_column("<u2", count)
        vocabs.append((r.skip(int(lengths.sum(dtype=np.int64))), lengths))
    lengths = r.take_column("<u4", n_users)
    n_train = r.take_column("<u4", n_users)
    n_events = int(lengths.sum(dtype=np.int64))
    columns = [r.take_column(dtype, n_events) for _, dtype in _EVENT_COLUMNS]
    r.close()

    if factors.size and (fi := int(factors.max())) >= len(_FACTOR_ORDER):
        raise FormatError(f"{path}: unknown factor index {fi}")
    try:
        holidays = frozenset(map(_dt.date.fromordinal, ordinals.tolist()))
        scheme = ContextScheme(tuple(_FACTOR_ORDER[f] for f in factors.tolist()),
                               holidays, max_days, tz)
    except (ValueError, ConfigError) as exc:
        raise FormatError(f"{path}: invalid context scheme in cache: {exc}") from exc
    user_ids, item_ids = (_decode_ids(path, r.blob, at, n) for at, n in vocabs)
    if (over := n_train > lengths).any():
        u = int(over.argmax())
        raise FormatError(f"{path}: user {user_ids[u]!r} has n_train={n_train[u]} "
                          f"beyond its {lengths[u]} events")
    offsets = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
    _check_events(path, user_ids, offsets[:-1], lengths, columns, n_items, scheme)
    # one writeable int64 block stacked from u4/i8 columns: four separate
    # copies, or an int64 context array alive during the stack, left heaps
    # that glibc trimmed and refaulted (slower later evaluate calls; 4,400
    # page faults a repeated read at ML-1M shape)
    items, ts, bins = columns
    ctxs = input_context(ts, scheme).astype("<u4")
    items, ts, ctxs, bins = np.stack([items, ts, ctxs, bins], dtype=np.int64)
    seqs = SequenceSet(items, ts, offsets, dict(zip(item_ids, range(n_items))),
                       dict(zip(user_ids, range(n_users))), ctxs, bins, scheme)
    return SplitSet(seqs, n_train.astype(np.int64))


def _check_events(path: str, user_ids: list[str], starts: np.ndarray, lengths: np.ndarray,
                  events: list[np.ndarray], n_items: int, scheme: ContextScheme) -> None:
    """FormatError unless every stored id is in range, every timestamp is in
    [0, TIMESTAMP_LIMIT), each user's timestamps never decrease, and a user's
    first event, and only it, holds the start bin; checked over the item,
    timestamp and gap-bin columns at once."""
    items, ts, bins = events
    for name, ids, n in (("item", items, n_items), ("gap bin", bins, scheme.n_transition_bins)):
        # stored unsigned, so only the upper bound can fail
        if ids.size and (top := int(ids.max())) >= n:
            raise FormatError(f"{path}: {name} id {top} out of range [0, {n})")
    first = np.zeros(len(ts), dtype=bool)
    first[starts[lengths > 0]] = True
    back = np.zeros_like(first)
    np.less(ts[1:], ts[:-1], out=back[1:])  # compared, as a difference can wrap
    back &= ~first
    outside = (ts < 0) | (ts >= TIMESTAMP_LIMIT)
    if (bad := outside | back | ((bins == scheme.start_bin) != first)).any():
        k = int(np.argmax(bad))
        u = int(np.searchsorted(starts, k, side="right")) - 1
        if outside[k]:
            what = f"timestamp {ts[k]}, outside [0, {TIMESTAMP_LIMIT})"
        elif back[k]:
            what = f"timestamp {ts[k]}, before the previous {ts[k - 1]}"
        elif first[k]:
            what = f"gap bin {bins[k]}, not the start bin {scheme.start_bin}"
        else:
            what = f"the start bin {bins[k]} after its first event"
        raise FormatError(f"{path}: user {user_ids[u]!r} event {k - starts[u]} has {what}")
