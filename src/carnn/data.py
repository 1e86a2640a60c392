"""Interaction logs, sparsity filtering, per-user sequences, and the
chronological train/test split.

Items occurring fewer than ``min_item`` times are dropped first, then users
left with fewer than ``min_user`` events, in a single pass (no fixpoint
iteration). Each surviving user's events are sorted by timestamp with file
order breaking ties, which makes every downstream artifact reproducible.

A log is held as columns: int64 user and item codes, which number the ids
by first appearance, beside the id strings in code order and int64
timestamps. Each id is hashed once, when the log is made; every later stage
works on whole integer columns, and no per-event object is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
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
    int64 Unix seconds UTC. ``users``, ``items`` and ``interactions`` are
    read-only views derived from them."""

    def __init__(self, interactions: Iterable[Interaction] = (), path: str = "",
                 format: str = "", rejects: int = 0):
        rows = list(interactions)
        self.user_codes, self.user_ids = _factorise([it.user for it in rows])
        self.item_codes, self.item_ids = _factorise([it.item for it in rows])
        self.timestamps = np.array([it.timestamp for it in rows], dtype=np.int64)
        self.path, self.format, self.rejects = path, format, rejects

    @property
    def users(self) -> list[str]:
        return list(map(self.user_ids.__getitem__, self.user_codes.tolist()))

    @property
    def items(self) -> list[str]:
        return list(map(self.item_ids.__getitem__, self.item_codes.tolist()))

    @property
    def interactions(self) -> list[Interaction]:
        return list(map(Interaction, self.users, self.items, self.timestamps.tolist()))

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

    def with_annotations(self, input_ctxs, trans_bins) -> "UserSequence":
        ctx = np.asarray(input_ctxs, dtype=np.int64)
        bins = np.asarray(trans_bins, dtype=np.int64)
        if len(ctx) != len(self.items) or len(bins) != len(self.items):
            raise ConfigError("annotation arrays must match the sequence length")
        return UserSequence(self.user, self.items, self.timestamps, ctx, bins)


@dataclass
class SequenceSet:
    """All user sequences plus the dense user/item vocabularies."""

    sequences: list[UserSequence]
    item_vocab: dict[str, int]
    user_vocab: dict[str, int]
    scheme: "ContextScheme | None" = None

    @property
    def n_items(self) -> int:
        return len(self.item_vocab)

    @property
    def n_users(self) -> int:
        return len(self.user_vocab)

    @property
    def annotated(self) -> bool:
        return all(s.annotated for s in self.sequences)

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
    """A SequenceSet with a per-sequence boundary: the first ``n_train[i]``
    steps train, the remainder test. Concatenating both views reproduces the
    full sequence."""

    sequences: "SequenceSet"
    n_train: np.ndarray  # int64, one entry per sequence

    @property
    def n_test_positions(self) -> int:
        lengths = np.array([len(s) for s in self.sequences.sequences], dtype=np.int64)
        return int(np.sum(lengths - self.n_train))


def _timestamp(field: str) -> int:
    """The integer in a timestamp field if it is in [0, TIMESTAMP_LIMIT); else
    -1, or TIMESTAMP_LIMIT if the field holds no integer at all."""
    try:
        t = int(field.strip())
    except ValueError:
        return TIMESTAMP_LIMIT
    return t if 0 <= t < TIMESTAMP_LIMIT else -1


def parse_interactions(path: str, fmt: str) -> InteractionLog:
    """Parse a log file into an InteractionLog.

    Lines stream into three columns (user, item, raw timestamp field); the
    timestamps and the keep mask are then made in whole-column passes.
    Malformed lines, and lines whose timestamp is negative or not below
    TIMESTAMP_LIMIT, are counted as rejects and skipped; if more than half of
    the non-blank lines reject, the file is considered to be in the wrong
    format, as it is if it is not UTF-8. A leading tsv/csv header line, one
    whose timestamp field is no integer, is skipped.
    """
    if fmt not in FORMATS:
        raise ConfigError(f"unknown input format {fmt!r}; expected one of {FORMATS}")
    sep, n_fields = {"movielens_dat": ("::", 4), "tsv": ("\t", 3), "csv": (",", 3)}[fmt]
    users, items, fields = [], [], []  # ids, and raw timestamp fields
    rejects = 0
    first = True
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:  # ends in "\n" at most: the newline is stripped with each field
                if not line.strip():
                    continue
                parts = line.split(sep)
                if len(parts) != n_fields:
                    rejects += 1
                # a first csv/tsv line whose timestamp field holds no integer is a header
                elif not first or fmt == "movielens_dat" or _timestamp(parts[2]) != TIMESTAMP_LIMIT:
                    users.append(parts[0].strip())
                    items.append(parts[1].strip())
                    fields.append(parts[-1])
                first = False
    except OSError as exc:
        raise InputOutputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc
    n = len(fields)
    ts = np.fromiter(map(_timestamp, fields), dtype=np.int64, count=n)
    keep = ((ts >= 0) & (ts < TIMESTAMP_LIMIT)
            & (np.fromiter(map(len, users), dtype=np.int64, count=n) > 0)
            & (np.fromiter(map(len, items), dtype=np.int64, count=n) > 0))
    log = InteractionLog(path=str(path), format=fmt, rejects=rejects + n - int(keep.sum()))
    log.user_codes, log.user_ids = _factorise(list(compress(users, keep)))
    log.item_codes, log.item_ids = _factorise(list(compress(items, keep)))
    log.timestamps = ts[keep]
    total = len(log) + log.rejects
    if total > 0 and log.rejects * 2 > total:
        raise FormatError(
            f"{path}: {log.rejects} of {total} records malformed; is the format really {fmt!r}?"
        )
    return log


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
    all events sorted with one stable ``np.lexsort`` on (user, timestamp),
    so file order breaks ties; no id string is hashed.
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
    order = np.lexsort((ts, users))
    bounds = np.cumsum(np.bincount(users))[:-1]
    sequences = [UserSequence(user, seq_items, seq_ts) for user, seq_items, seq_ts in
                 zip(user_vocab, np.split(items[order], bounds), np.split(ts[order], bounds))]
    return SequenceSet(sequences, item_vocab, user_vocab)


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
    n_train = np.array([train_length(len(s), ratio) for s in seqs.sequences], dtype=np.int64)
    return SplitSet(seqs, n_train)


def full_train_split(seqs: SequenceSet) -> SplitSet:
    """A split whose train view is the whole of every sequence (no test)."""
    n_train = np.array([len(s) for s in seqs.sequences], dtype=np.int64)
    return SplitSet(seqs, n_train)
