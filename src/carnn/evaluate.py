"""Ranking evaluation over held-out positions, the popularity baseline, and
a synthetic generator with a plantable context signal.

Each test position is one query with a single relevant item (the true next
item), which fixes the metric algebra: precision@k is hits/k, so
F1@k = 2*Recall@k/(k+1); MAP reduces to the mean reciprocal rank and NDCG
to the mean of 1/log2(rank+1). The candidate set is always the full item
vocabulary. During testing the hidden state advances on the ground-truth
item (teacher forcing). The popularity baseline scores every query alike,
so one stable sort of the counts ranks them all.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .context import SECONDS_PER_DAY, ContextScheme, annotate_sequences
from .data import SequenceSet, SplitSet, UserEvents
from .errors import ConfigError, DataError
from .model import ModelParams, check_compatibility, score_all, states_at
from .seeding import named_rng
from .store import write_atomic

DEFAULT_KS = (1, 5, 10)


@dataclass(frozen=True)
class RankRecord:
    user: str
    position: int
    rank: int  # 1-based rank of the true item among all items


@dataclass
class MetricsReport:
    recall_at: dict[int, float]
    f1_at: dict[int, float]
    map_score: float
    ndcg: float
    n_positions: int


def rank_target(scores: np.ndarray, target: int) -> int:
    """1-based rank of ``target``; equal scores break toward the lower index."""
    scores = np.asarray(scores)
    if not (0 <= target < scores.shape[0]):
        raise ConfigError(f"target index {target} out of range [0, {scores.shape[0]})")
    s = scores[target]
    better = int(np.count_nonzero(scores > s))
    equal_before = int(np.count_nonzero(scores[:target] == s))
    return 1 + better + equal_before


def aggregate_ranks(records: list[RankRecord], ks=DEFAULT_KS) -> MetricsReport:
    """Fold rank records into the report; the reduction is order-independent."""
    return _report(np.array([r.rank for r in records], dtype=np.int64), ks)


def _report(ranks: np.ndarray, ks) -> MetricsReport:
    """The report of an int64 array of 1-based ranks, one per query."""
    if not len(ranks):
        raise DataError("no test positions to evaluate")
    n = len(ranks)
    recall = {k: float(np.count_nonzero(ranks <= k) / n) for k in ks}
    f1 = {k: 2.0 * recall[k] / (k + 1) for k in ks}
    map_score = float(np.mean(1.0 / ranks))
    ndcg = float(np.mean(1.0 / np.log2(ranks + 1.0)))
    return MetricsReport(recall, f1, map_score, ndcg, n)


# Upper bound on the bytes of one block of scores; at 3,706 items a block
# holds 35 queries.
SCORE_BLOCK_BYTES = 1 << 20


def _model_ranks(split: SplitSet, p: ModelParams) -> np.ndarray:
    """Rank of the true item at every held-out position, in report order:
    user by user, each user's positions in time order.

    ``states_at`` replays every user with a held-out position in lockstep to
    the state before each of them; the queries are then scored in blocks of
    at most SCORE_BLOCK_BYTES, each into the same buffer.
    """
    seqs = split.sequences
    pos, held = split.heldout()
    cuts = np.cumsum(seqs.lengths - split.n_train)[:-1]
    states = states_at(seqs, np.split(pos[held], cuts), p)
    items, ctxs, bins = seqs.items[held], seqs.input_ctxs[held], seqs.trans_bins[held]

    block = max(1, SCORE_BLOCK_BYTES // (8 * p.config.n_items))
    buf = np.empty((min(block, len(states)), p.config.n_items))
    ranks = np.empty(len(states), dtype=np.int64)
    for lo in range(0, len(states), block):
        at = slice(lo, lo + block)
        H = states[at]
        scores = score_all(H, ctxs[at], bins[at], p, out=buf[:len(H)])
        ranks[at] = [rank_target(row, v) for row, v in zip(scores, items[at].tolist())]
    return ranks


def evaluate(split: SplitSet, p: ModelParams, *, ks=DEFAULT_KS) -> MetricsReport:
    """Rank the true item at every held-out position under the test step's
    own contexts, advancing the hidden state on ground truth.

    The contexts are the split's own annotation. Raises CompatibilityError
    unless the model fits the sequences, by ``model.check_compatibility``."""
    check_compatibility(p, split.sequences)
    return _report(_model_ranks(split, p), ks)


def train_item_counts(split: SplitSet) -> np.ndarray:
    """How often each item occurs among the training events, as float64."""
    seqs = split.sequences
    return np.bincount(seqs.items[~split.heldout()[1]], minlength=seqs.n_items).astype(np.float64)


def pop_baseline(split: SplitSet, ks=DEFAULT_KS) -> MetricsReport:
    """Rank every item by its training-set frequency, constant across queries."""
    targets = split.sequences.items[split.heldout()[1]]
    return _report(shared_ranks(train_item_counts(split), targets), ks)


def shared_ranks(scores: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """1-based rank of each of ``targets`` under one vector of finite scores
    that every query shares: ``rank_target(scores, v)`` for each v, read off
    the inverse of one stable argsort, which puts equal scores in index
    order as ``rank_target``'s tie rule does."""
    rank = np.empty(len(scores), dtype=np.int64)
    rank[np.argsort(-scores, kind="stable")] = np.arange(1, len(scores) + 1)
    return rank[targets]


# --- report serialization ----------------------------------------------------

def metric_keys(ks) -> list[str]:
    """Names of a report's metrics over the cutoffs ``ks``, in the order of
    ``metric_pairs``: the columns of ``carnn sweep``."""
    return [f"recall@{k}" for k in ks] + [f"f1@{k}" for k in ks] + ["map", "ndcg"]


def metric_pairs(report: MetricsReport) -> list[tuple[str, float]]:
    """The report's metrics as ordered (key, value) pairs."""
    ks = sorted(report.recall_at)
    values = [report.recall_at[k] for k in ks] + [report.f1_at[k] for k in ks]
    return list(zip(metric_keys(ks), values + [report.map_score, report.ndcg]))


def report_to_json(report: MetricsReport) -> str:
    """Flat key/value JSON text; key order is fixed so reruns are byte-identical."""
    pairs = metric_pairs(report) + [("n_positions", report.n_positions)]
    return "{\n" + ",\n".join(f'  "{k}": {json.dumps(v)}' for k, v in pairs) + "\n}\n"


def format_report_table(report: MetricsReport, label: str = "model") -> str:
    """Aligned console table, one row, columns in the order of ``metric_pairs``."""
    pairs = metric_pairs(report)
    headers = ["method"] + [k.capitalize() if "@" in k else k.upper() for k, _ in pairs]
    values = [label] + [f"{v:.4f}" for _, v in pairs]
    widths = [max(len(h), len(v)) for h, v in zip(headers, values)]
    head = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
    row = "  ".join(v.rjust(w) for v, w in zip(values, widths))
    return head + "\n" + row


# --- synthetic fixtures ------------------------------------------------------

SIGNALS = ("input_ctx", "transition_bin", "none")

# Anchor all synthetic timestamps at a Monday midnight so planted hours map
# straight onto civil hours.
_SYNTH_EPOCH = 946857600  # 2000-01-03 00:00:00 UTC, a Monday


def synthetic_partition(n_items: int, n_contexts: int) -> np.ndarray:
    """Item index -> planted context value (round-robin partition)."""
    return np.arange(n_items, dtype=np.int64) % n_contexts


def generate_synthetic(n_users: int, n_items: int, seq_len: int, n_contexts: int,
                       signal: str = "input_ctx", seed: int = 0,
                       signal_strength: float = 0.9) -> tuple[SequenceSet, ContextScheme]:
    """Sequences whose items follow a planted context with the given probability.

    signal="input_ctx" keys items to the event's hour of day (one of
    ``n_contexts`` planted hours, timestamp-encoded so annotation recovers
    them exactly); "transition_bin" keys items to the whole-day gap since
    the previous event; "none" draws items uniformly. The drawn
    ``UserEvents`` are annotated by ``annotate_sequences`` under the
    returned hour-of-day scheme, which recovers the planted ids.
    """
    if signal not in SIGNALS:
        raise ConfigError(f"signal must be one of {SIGNALS}")
    if n_items < 2 * n_contexts:
        raise ConfigError(
            f"need n_items >= 2*n_contexts to partition items ({n_items} < {2 * n_contexts})"
        )
    if signal == "input_ctx" and n_contexts > 24:
        raise ConfigError("input_ctx signal supports at most 24 planted contexts (hours)")
    if signal == "transition_bin" and n_contexts > 31:
        raise ConfigError("transition_bin signal supports at most 31 planted bins")
    if not (0.0 <= signal_strength <= 1.0):
        raise ConfigError("signal_strength must be in [0, 1]")
    if n_users < 1 or seq_len < 2:
        raise ConfigError("need at least one user and sequences of length >= 2")

    scheme = ContextScheme(factors=("hour_of_day",))
    rng = named_rng(seed, "synthetic")
    part = synthetic_partition(n_items, n_contexts)
    members = [np.flatnonzero(part == c) for c in range(n_contexts)]

    def draw_item(ctx_value: int) -> int:
        if ctx_value is not None and rng.random() < signal_strength:
            pool = members[ctx_value]
            return int(pool[rng.integers(len(pool))])
        return int(rng.integers(n_items))

    items, stamps = [], []
    for u in range(n_users):
        if signal == "input_ctx":
            hours = rng.integers(0, n_contexts, size=seq_len)
            # one event every other day at the planted hour
            ts = _SYNTH_EPOCH + np.arange(seq_len) * (2 * SECONDS_PER_DAY) + hours * 3600
            items += [draw_item(int(h)) for h in hours]
        elif signal == "transition_bin":
            gap_bins = [0]
            items.append(draw_item(None))
            for _ in range(1, seq_len):
                gap_bins.append(int(rng.integers(0, n_contexts)))
                items.append(draw_item(gap_bins[-1]))
            # one hour past the day boundary keeps each gap's floor exact
            ts = _SYNTH_EPOCH + np.cumsum(gap_bins) * SECONDS_PER_DAY + np.arange(seq_len) * 3600
        else:  # none
            ts = _SYNTH_EPOCH + np.arange(seq_len) * SECONDS_PER_DAY
            items += [draw_item(None) for _ in range(seq_len)]
        stamps.append(ts)

    events = UserEvents(np.array(items, dtype=np.int64), np.concatenate(stamps),
                        np.arange(n_users + 1) * seq_len, {f"i{v}": v for v in range(n_items)},
                        {f"u{u}": u for u in range(n_users)})
    return annotate_sequences(events, scheme), scheme


def write_interactions_csv(seqs: UserEvents, path: str) -> None:
    """Dump a sequence set as user,item,timestamp rows (file order = per-user
    step order), so synthetic fixtures can drive the file-based pipeline."""
    user_ids, item_ids = seqs.user_ids(), seqs.item_ids()
    users = np.repeat(np.arange(seqs.n_users), seqs.lengths)
    rows = [f"{user_ids[u]},{item_ids[item]},{t}\n" for u, item, t
            in zip(users.tolist(), seqs.items.tolist(), seqs.timestamps.tolist())]
    write_atomic(path, "".join(rows), "interactions file")
