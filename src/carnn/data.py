"""Interaction logs, sparsity filtering, per-user sequences, and the
chronological train/test split.

Items occurring fewer than ``min_item`` times are dropped first, then users
left with fewer than ``min_user`` events, in a single pass (no fixpoint
iteration). Each surviving user's events are sorted by timestamp with file
order breaking ties, which makes every downstream artifact reproducible: one
stable argsort of a single int64 (user, timestamp) key orders all events.

A ``SequenceSet`` holds the sorted events as flat int64 columns and per-user
``offsets``: the layout of the cache, of training and of ``model.states_at``,
so no stage between the cache and the model builds per-user arrays.

A log is held as columns: int64 user and item codes, which number the ids
by first appearance, beside the id strings in code order and int64
timestamps. A log file is parsed in whole-array passes over its UTF-8 bytes:
line ends, separators, digit columns and 8-byte id keys. No Python code runs
per line; only each distinct id is decoded to a string, and every later stage
works on whole integer columns, with no per-event object.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import ConfigError, DataError, FormatError, InputOutputError

if TYPE_CHECKING:  # pragma: no cover
    from .context import ContextScheme

FORMATS = ("tsv", "csv", "movielens_dat")

# Civil time ends with year 9999. Timestamps stay below its end less the
# largest timezone offset a context scheme allows (UTC+14 is the largest in
# use), so every scheme can convert every accepted timestamp.
MAX_TZ_OFFSET_SECONDS = 14 * 3600
TIMESTAMP_LIMIT = 253_402_300_800 - MAX_TZ_OFFSET_SECONDS  # 10000-01-01T00:00Z


@dataclass(frozen=True)
class Interaction:
    """One (user, item, timestamp) event; timestamps are Unix seconds UTC."""

    user: str
    item: str
    timestamp: int


class InteractionLog:
    """A log as columns in file order. ``user_codes`` and ``item_codes``
    (int64) number the ids by first appearance; ``user_ids`` and
    ``item_ids`` hold the id strings in code order, and ``timestamps`` the
    int64 Unix seconds UTC."""

    def __init__(self, interactions: Iterable[Interaction] = (), path: str = "",
                 format: str = "", rejects: int = 0):
        rows = list(interactions)
        self.user_codes, self.user_ids = _factorise([it.user for it in rows])
        self.item_codes, self.item_ids = _factorise([it.item for it in rows])
        self.timestamps = np.array([it.timestamp for it in rows], dtype=np.int64)
        self.path, self.format, self.rejects = path, format, rejects

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass
class UserSequence:
    """Time-ordered events of one user, with optional context annotations."""

    user: str
    items: np.ndarray          # int64 item indices
    timestamps: np.ndarray     # int64 Unix seconds
    input_ctxs: np.ndarray | None = None
    trans_bins: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.items)

    @property
    def annotated(self) -> bool:
        return self.input_ctxs is not None and self.trans_bins is not None


@dataclass(frozen=True)
class SequenceSet:
    """Every user's events as flat int64 columns, plus the dense user/item
    vocabularies. User u's events are ``[offsets[u], offsets[u + 1])`` of
    each column, in time order; ``input_ctxs`` and ``trans_bins`` are None
    until annotated. ``seqs[u]`` is user u as a ``UserSequence`` of slice
    views, so a write to it reaches the columns; ``sequences`` lists every
    user's, built once per set. The fields cannot be rebound, so the views
    never go stale; ``dataclasses.replace`` makes a set with other fields."""

    items: np.ndarray
    timestamps: np.ndarray
    offsets: np.ndarray
    item_vocab: dict[str, int]
    user_vocab: dict[str, int]
    input_ctxs: np.ndarray | None = None
    trans_bins: np.ndarray | None = None
    scheme: "ContextScheme | None" = None

    @property
    def n_items(self) -> int:
        return len(self.item_vocab)

    @property
    def n_users(self) -> int:
        return len(self.user_vocab)

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def annotated(self) -> bool:
        return self.input_ctxs is not None and self.trans_bins is not None

    @cached_property
    def sequences(self) -> list[UserSequence]:
        cuts = self.offsets.tolist()
        columns = (self.items, self.timestamps, self.input_ctxs, self.trans_bins)
        return [UserSequence(user, *(c if c is None else c[a:b] for c in columns))
                for user, a, b in zip(self.user_ids(), cuts, cuts[1:])]

    def __getitem__(self, u: int) -> UserSequence:
        return self.sequences[u]

    def item_ids(self) -> list[str]:
        ids = [""] * len(self.item_vocab)
        for item, idx in self.item_vocab.items():
            ids[idx] = item
        return ids

    def user_ids(self) -> list[str]:
        ids = [""] * len(self.user_vocab)
        for user, idx in self.user_vocab.items():
            ids[idx] = user
        return ids


@dataclass
class SplitSet:
    """A SequenceSet with a per-sequence boundary: the first ``n_train[u]``
    events of user u train and the rest are held out, by the one rule that
    ``heldout`` states."""

    sequences: "SequenceSet"
    n_train: np.ndarray  # int64, one entry per sequence

    @property
    def n_test_positions(self) -> int:
        return int(np.count_nonzero(self.heldout()[1]))

    def heldout(self) -> tuple[np.ndarray, np.ndarray]:
        """Each event's position in its user's sequence, and the mask over the
        columns of the held-out events: each user's past its first ``n_train``,
        so user u trains on ``[offsets[u], offsets[u] + n_train[u])``.
        ConfigError unless every ``n_train[u]`` is in [0, user u's length]."""
        lengths = self.sequences.lengths
        if (bad := (self.n_train < 0) | (self.n_train > lengths)).any():
            u = int(np.argmax(bad))
            raise ConfigError(f"user {self.sequences.user_ids()[u]!r} has "
                              f"n_train={self.n_train[u]} outside [0, {lengths[u]}]")
        pos = np.arange(lengths.sum()) - np.repeat(self.sequences.offsets[:-1], lengths)
        return pos, pos >= np.repeat(self.n_train, lengths)


_INTEGER = re.compile(r"[+-]?\d+(?:_\d+)*")  # what int() reads in base 10, once stripped


def _timestamp(field: str) -> int:
    """The integer in a timestamp field if it is in [0, TIMESTAMP_LIMIT); else
    -1, or TIMESTAMP_LIMIT if the field holds no integer at all. An integer
    that ``int()`` refuses only for its length (past 4,300 digits) is out of
    range, -1."""
    text = field.strip()
    try:
        t = int(text)
    except ValueError:
        return -1 if _INTEGER.fullmatch(text) else TIMESTAMP_LIMIT
    return t if 0 <= t < TIMESTAMP_LIMIT else -1


def parse_interactions(path: str, fmt: str) -> InteractionLog:
    """Parse a log file into an InteractionLog.

    The file is read once as UTF-8 text (universal newlines; a leading BOM is
    dropped) and encoded to one byte array. Line ends, separators and fields
    are then found in whole-array passes; only rare lines reach Python code.
    Blank lines, those that ``str.strip`` empties, are skipped. A line that
    ``str.split`` on the format's separator cuts into the wrong number of
    fields is a reject, as is a record whose timestamp is not in
    [0, TIMESTAMP_LIMIT) or whose user or item id is empty once stripped; if
    more than half of the non-blank lines reject, the file is considered to
    be in the wrong format, as it is if it is not UTF-8.
    A first non-blank tsv/csv line whose timestamp field holds no integer is
    a header, and is skipped.

    Timestamp fields of 1-12 ASCII digits are read in a digit-column loop;
    any other goes through ``_timestamp``. Each id column is grouped by its
    raw bytes (``_id_codes``), and the kept records' ids are numbered by
    first appearance (``_renumber``).
    """
    if fmt not in FORMATS:
        raise ConfigError(f"unknown input format {fmt!r}; expected one of {FORMATS}")
    sep, n_fields = {"movielens_dat": (b"::", 4), "tsv": (b"\t", 3), "csv": (b",", 3)}[fmt]
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            # 8 bytes of padding, so that a word read from any byte of the text stays inside
            data = fh.read().encode() + bytes(8)
    except OSError as exc:
        raise InputOutputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc
    buf = np.frombuffer(data, dtype=np.uint8)
    text = buf[:-8]

    ends = np.flatnonzero(text == 10)  # newlines are "\n" alone after text-mode reading
    if len(text) and text[-1] != 10:
        ends = np.append(ends, len(text))  # a last line without a newline
    starts = np.concatenate(([0], ends[:-1] + 1))[:len(ends)]
    at = _separators(text, sep)
    seps_before_end = np.searchsorted(at, ends)
    first_sep = np.concatenate(([0], seps_before_end[:-1]))[:len(ends)]
    fits = seps_before_end - first_sep == n_fields - 1

    # A line is blank when str.strip empties it. An empty line is; one that starts
    # with a byte in "!".."~", or holds a "," or "::", is not; only the rest, rare,
    # are decoded and stripped.
    blank = starts == ends
    head = text[starts[~blank]]
    unsure = np.flatnonzero(~blank)[(head < 33) | (head > 126)]
    if sep != b"\t":
        unsure = unsure[~fits[unsure]]
    for k in unsure.tolist():
        blank[k] = not data[starts[k]:ends[k]].decode().strip()
    rows = np.flatnonzero(fits & ~blank)
    bad_lines = int(np.count_nonzero(~blank)) - len(rows)

    def field(k):  # first byte and end of field k on each record line
        seps = first_sep[rows] + k
        return (starts[rows] if k == 0 else at[seps - 1] + len(sep),
                ends[rows] if k == n_fields - 1 else at[seps])

    a, b = field(n_fields - 1)  # the timestamps
    if (fmt != "movielens_dat" and len(rows) and blank[:rows[0]].all()
            and _timestamp(data[a[0]:b[0]].decode()) == TIMESTAMP_LIMIT):
        rows, a, b = rows[1:], a[1:], b[1:]  # a header
    ts = _digit_fields(buf, a, b)
    for k in np.flatnonzero(ts < 0).tolist():
        ts[k] = _timestamp(data[a[k]:b[k]].decode())
    keep = (ts >= 0) & (ts < TIMESTAMP_LIMIT)
    columns = [_id_codes(buf, *field(k)) for k in (0, 1)]  # users, items
    for codes, ids in columns:
        if "" in ids:  # an id that is empty once stripped
            keep &= codes != ids.index("")

    log = InteractionLog(path=str(path), format=fmt,
                         rejects=bad_lines + len(rows) - int(np.count_nonzero(keep)))
    (user_codes, user_ids), (item_codes, item_ids) = columns
    log.user_codes, old = _renumber(user_codes[keep], len(user_ids))
    log.user_ids = [user_ids[k] for k in old.tolist()]
    log.item_codes, old = _renumber(item_codes[keep], len(item_ids))
    log.item_ids = [item_ids[k] for k in old.tolist()]
    log.timestamps = ts[keep]
    total = len(log) + log.rejects
    if total > 0 and log.rejects * 2 > total:
        raise FormatError(
            f"{path}: {log.rejects} of {total} records malformed; is the format really {fmt!r}?"
        )
    return log


def _separators(text: np.ndarray, sep: bytes) -> np.ndarray:
    """Where each ``sep`` in ``text`` starts, as ``str.split`` finds them.
    A two-byte ``sep`` is one byte twice, as "::" is; it is found left to
    right, so that a run of colons holds a "::" at every other byte."""
    if len(sep) == 1:
        return np.flatnonzero(text == sep[0])
    pair = text[:-1] == sep[0]
    pair &= text[1:] == sep[1]  # in place: one byte mask is alive at a time
    at = np.flatnonzero(pair)
    run_head = np.diff(at, prepend=-2) != 1
    if run_head.all():
        return at
    idx = np.arange(len(at))
    return at[(idx - np.maximum.accumulate(np.where(run_head, idx, 0))) % 2 == 0]


def _digit_fields(buf: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The value of each field ``buf[a[k]:b[k]]`` that is 1 to 12 ASCII
    digits, else -1. Twelve digits hold every accepted timestamp; the
    digits are read as whole columns, right-aligned, most significant
    first."""
    length = b - a
    ok = (length >= 1) & (length <= 12)
    value = np.zeros(len(a), dtype=np.int64)
    for j in range(int(length[ok].max(initial=0)), 0, -1):
        digit = buf.take(b - j, mode="clip") - np.uint8(48)
        inside = length >= j
        ok &= (digit < 10) | ~inside
        value = value * 10 + np.where(inside, digit, 0)
    return np.where(ok, value, -1)


# The first k bytes of a little-endian word, and a 0xFF byte just after them.
# 0xFF never occurs in UTF-8, so an id's key ends where the id does.
_KEEP = np.array([(1 << 8 * k) - 1 for k in range(8)], dtype=np.uint64)
_END = np.array([0xFF << 8 * k for k in range(8)], dtype=np.uint64)


def _id_codes(buf: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Codes of the ids in the fields ``buf[a[k]:b[k]]``, and the distinct
    ids they index, each stripped of surrounding whitespace.

    Each field's key is its bytes and a 0xFF end byte in 8-byte words, so
    equal keys are equal fields. Fields are grouped by word count, so a long
    id costs only its own words; each group's keys are sorted, and only the
    first field of each distinct key is decoded and stripped. Ids that differ
    only in surrounding whitespace then share a code through ``_factorise``.
    """
    length = b - a
    n_words = length // 8 + 1
    # the 8 bytes from each offset of buf as one little-endian word (an unaligned view)
    words = np.ndarray(len(buf) - 7, dtype="<u8", buffer=buf, strides=(1,))
    group = np.empty(len(a), dtype=np.int64)
    firsts = [np.empty(0, dtype=np.int64)]
    n_groups = 0
    for w in np.flatnonzero(np.bincount(n_words)).tolist():
        rows = np.flatnonzero(n_words == w)
        key = words[a[rows, None] + 8 * np.arange(w)]
        tail = length[rows] - 8 * (w - 1)  # bytes of the id in the last word, 0-7
        key[:, -1] = key[:, -1] & _KEEP[tail] | _END[tail]
        order = np.argsort(key[:, 0]) if w == 1 else np.lexsort(key.T)
        key = key[order]
        new = np.ones(len(rows), dtype=bool)
        new[1:] = (key[1:] != key[:-1]).any(axis=1)
        group[rows[order]] = n_groups + np.cumsum(new) - 1
        firsts.append(rows[order[new]])
        n_groups += int(np.count_nonzero(new))
    first = np.concatenate(firsts)
    # the distinct fields, each with the byte after it made "\n" (no field holds
    # one), decoded in one call
    size = b[first] - a[first] + 1
    cut = np.cumsum(size)
    joined = buf[np.repeat(a[first] - cut + size, size) + np.arange(int(size.sum()))]
    joined[cut - 1] = 10
    codes, ids = _factorise(list(map(str.strip, joined.tobytes().decode().split("\n")[:-1])))
    return codes[group], ids


def _factorise(ids: list[str]) -> tuple[np.ndarray, list[str]]:
    """Codes numbering ``ids`` by first appearance, and the distinct ids in code order."""
    vocab = {x: k for k, x in enumerate(dict.fromkeys(ids))}
    return np.fromiter(map(vocab.__getitem__, ids), dtype=np.int64, count=len(ids)), list(vocab)


def _renumber(codes: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``codes`` (each in [0, n)) renumbered 0, 1, ... by first appearance,
    and the old code of each new one."""
    first = np.full(n, len(codes), dtype=np.int64)
    np.minimum.at(first, codes, np.arange(len(codes)))
    seen = np.flatnonzero(first < len(codes))
    old = seen[np.argsort(first[seen])]
    new = np.empty(n, dtype=np.int64)
    new[old] = np.arange(len(old))
    return new[codes], old


def build_sequences(log: InteractionLog, min_user: int = 10, min_item: int = 3) -> SequenceSet:
    """Filter sparse items then sparse users, group per user, sort by time.

    The user threshold is floored at 2 because a sequence needs at least two
    steps to carry any transition. Vocabularies index users/items by first
    appearance among the surviving interactions, in file order. The log's
    codes are counted with ``np.bincount``, the survivors' renumbered, and
    all events sorted with one stable argsort of an int64 (user, timestamp)
    key (``_group_order``; DataError if it could overflow), so file order
    breaks ties. The sorted columns are the set's, cut per user at the
    ``np.bincount`` offsets, and no id string is hashed.
    """
    from .base import as_whole  # base imports this module

    if len(log) == 0:
        raise DataError("interaction log is empty")
    min_user = max(as_whole(min_user, "min_user"), 2)
    min_item = as_whole(min_item, "min_item")

    item_codes, user_codes = log.item_codes, log.user_codes
    keep = np.bincount(item_codes)[item_codes] >= min_item
    keep &= np.bincount(user_codes, weights=keep)[user_codes] >= min_user
    if not keep.any():
        raise DataError(
            f"no interactions survive filtering (min_user={min_user}, min_item={min_item})"
        )

    items, item_old = _renumber(item_codes[keep], len(log.item_ids))
    users, user_old = _renumber(user_codes[keep], len(log.user_ids))
    item_vocab = {log.item_ids[k]: j for j, k in enumerate(item_old.tolist())}
    user_vocab = {log.user_ids[k]: j for j, k in enumerate(user_old.tolist())}
    ts = log.timestamps[keep]
    order = _group_order(users, ts, len(user_old))
    offsets = np.concatenate(([0], np.cumsum(np.bincount(users))))
    return SequenceSet(items[order], ts[order], offsets, item_vocab, user_vocab)


def _group_order(users: np.ndarray, ts: np.ndarray, n_users: int) -> np.ndarray:
    """The order that groups events by user code (each in [0, n_users)) and
    sorts each user's by timestamp, ties in array order: one stable argsort
    of the int64 key ``users * span + (ts - ts.min())``. Its largest value is
    ``n_users * span - 1``, so DataError if ``n_users * span`` exceeds 2**63:
    about 3.6e7 users across the whole of [0, TIMESTAMP_LIMIT)."""
    t0 = int(ts.min())
    span = int(ts.max()) - t0 + 1
    if n_users * span > 2**63:
        raise DataError(f"{n_users} users over a {span} s timestamp span overflow the "
                        f"int64 sort key: users x span must be at most 2**63")
    return np.argsort(users * span + (ts - t0), kind="stable")


def train_length(length: int, ratio: float) -> int:
    """Ceiling of ratio*length, robust to the product landing one ulp high."""
    return int(math.ceil(ratio * length - 1e-12))


def split_sequences(seqs: SequenceSet, ratio: float = 0.8) -> SplitSet:
    """Chronological split: first ceil(ratio*L) steps of each sequence train.

    ``ratio`` goes through ``base.as_real``, so a string of a number is
    accepted; ConfigError unless it is a number in (0, 1)."""
    from .base import as_real  # base imports this module

    ratio = as_real(ratio, "split ratio", 0.0)
    if not (0.0 < ratio < 1.0):
        raise ConfigError(f"split ratio must be in (0, 1), got {ratio}")
    n_train = np.array([train_length(n, ratio) for n in seqs.lengths.tolist()], dtype=np.int64)
    return SplitSet(seqs, n_train)


def full_train_split(seqs: SequenceSet) -> SplitSet:
    """A split whose train view is the whole of every sequence (no test)."""
    return SplitSet(seqs, seqs.lengths)
