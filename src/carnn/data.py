"""Interaction logs, sparsity filtering, per-user sequences, and the
chronological train/test split.

Items occurring fewer than ``min_item`` times are dropped first, then users
left with fewer than ``min_user`` events, in a single pass (no fixpoint
iteration). Each surviving user's events are sorted by timestamp with file
order breaking ties, which makes every downstream artifact reproducible.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

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


@dataclass
class InteractionLog:
    interactions: list[Interaction]
    path: str = ""
    format: str = ""
    rejects: int = 0

    def __len__(self) -> int:
        return len(self.interactions)


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


def _parse_line(line: str, fmt: str) -> Interaction | None:
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


def _looks_like_header(line: str, fmt: str) -> bool:
    """A header has the right column count but a non-numeric timestamp field."""
    parts = line.split("\t" if fmt == "tsv" else ",")
    if len(parts) != 3:
        return False
    try:
        int(parts[2].strip())
    except ValueError:
        return True
    return False


def parse_interactions(path: str, fmt: str) -> InteractionLog:
    """Parse a log file into interactions.

    Malformed lines, and lines whose timestamp is negative or not below
    TIMESTAMP_LIMIT, are counted as rejects and skipped; if more than half of
    the non-blank lines reject, the file is considered to be in the wrong
    format. A leading header line in tsv/csv is tolerated.
    """
    if fmt not in FORMATS:
        raise ConfigError(f"unknown input format {fmt!r}; expected one of {FORMATS}")
    interactions: list[Interaction] = []
    rejects = 0
    first_data_line = True
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                text = line.rstrip("\n").rstrip("\r")
                if not text.strip():
                    continue
                record = _parse_line(text, fmt)
                if record is None:
                    if first_data_line and fmt in ("tsv", "csv") and _looks_like_header(text, fmt):
                        first_data_line = False
                        continue
                    rejects += 1
                else:
                    interactions.append(record)
                first_data_line = False
    except OSError as exc:
        raise InputOutputError(f"cannot read {path}: {exc}") from exc
    total = len(interactions) + rejects
    if total > 0 and rejects * 2 > total:
        raise FormatError(
            f"{path}: {rejects} of {total} records malformed; is the format really {fmt!r}?"
        )
    return InteractionLog(interactions, path=str(path), format=fmt, rejects=rejects)


def build_sequences(log: InteractionLog, min_user: int = 10, min_item: int = 3) -> SequenceSet:
    """Filter sparse items then sparse users, group per user, sort by time.

    The user threshold is floored at 2 because a sequence needs at least two
    steps to carry any transition. Vocabularies index users/items by first
    appearance among the surviving interactions, in file order.
    """
    if len(log) == 0:
        raise DataError("interaction log is empty")
    min_user = max(int(min_user), 2)
    min_item = int(min_item)

    item_counts = Counter(it.item for it in log.interactions)
    kept = [it for it in log.interactions if item_counts[it.item] >= min_item]
    user_counts = Counter(it.user for it in kept)
    kept = [it for it in kept if user_counts[it.user] >= min_user]
    if not kept:
        raise DataError(
            f"no interactions survive filtering (min_user={min_user}, min_item={min_item})"
        )

    user_vocab: dict[str, int] = {}
    item_vocab: dict[str, int] = {}
    per_user: dict[str, list[Interaction]] = {}
    for it in kept:
        if it.user not in user_vocab:
            user_vocab[it.user] = len(user_vocab)
            per_user[it.user] = []
        if it.item not in item_vocab:
            item_vocab[it.item] = len(item_vocab)
        per_user[it.user].append(it)

    sequences = []
    for user in user_vocab:
        events = per_user[user]
        events.sort(key=lambda it: it.timestamp)  # stable: ties keep file order
        items = np.fromiter((item_vocab[it.item] for it in events), dtype=np.int64, count=len(events))
        ts = np.fromiter((it.timestamp for it in events), dtype=np.int64, count=len(events))
        sequences.append(UserSequence(user, items, ts))
    return SequenceSet(sequences, item_vocab, user_vocab)


def train_length(length: int, ratio: float) -> int:
    """Ceiling of ratio*length, robust to the product landing one ulp high."""
    return int(math.ceil(ratio * length - 1e-12))


def split_sequences(seqs: SequenceSet, ratio: float = 0.8) -> SplitSet:
    """Chronological split: first ceil(ratio*L) steps of each sequence train."""
    if not (0.0 < ratio < 1.0):
        raise ConfigError(f"split ratio must be in (0, 1), got {ratio}")
    n_train = np.array([train_length(len(s), ratio) for s in seqs.sequences], dtype=np.int64)
    return SplitSet(seqs, n_train)


def full_train_split(seqs: SequenceSet) -> SplitSet:
    """A split whose train view is the whole of every sequence (no test)."""
    n_train = np.array([len(s) for s in seqs.sequences], dtype=np.int64)
    return SplitSet(seqs, n_train)
