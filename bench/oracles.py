"""Reference computations the benchmark checks carnn against.

Everything here is written from the method's definition with plain integer
arithmetic and raw numpy arrays. It imports nothing from carnn, so a fault
in the program cannot hide by being copied into its check.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

SECONDS_PER_DAY = 86400
MAX_GAP_DAYS = 30
START_BIN = MAX_GAP_DAYS + 1

# Two scores closer than this (relative to the largest |score|, floored at 1)
# may order differently under another, equally valid, association of the
# same float64 products. Such queries are excluded from exact rank checks
# and counted.
NEAR_TIE_GAP = 1e-9


class CheckFailed(AssertionError):
    """An output of carnn disagrees with the benchmark's reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- calendar contexts ------------------------------------------------------

def context_id(t: int, factors: tuple[str, ...]) -> int:
    """Mixed-radix calendar id: 1970-01-01 was a Thursday (Monday = 0)."""
    cid = 0
    for name in factors:
        if name == "day_of_week":
            cid = cid * 7 + (t // SECONDS_PER_DAY + 3) % 7
        elif name == "hour_of_day":
            cid = cid * 24 + t % SECONDS_PER_DAY // 3600
        else:
            raise ValueError(f"no reference for factor {name!r}")
    return cid


def gap_bins(timestamps) -> list[int]:
    """Whole-day gap to the previous event, capped at 30; 31 marks a start."""
    ts = [int(t) for t in timestamps]
    return [START_BIN] + [min((b - a) // SECONDS_PER_DAY, MAX_GAP_DAYS)
                          for a, b in zip(ts, ts[1:])]


def train_length(length: int) -> int:
    """ceil(0.8 * length) in integers."""
    return (4 * length + 4) // 5


# --- filtering and sequences ------------------------------------------------

def expected_sequences(events, min_user: int, min_item: int):
    """Ground truth of sequence building for (user, item, timestamp) events
    in file order: drop rare items, then short users, group per user in order
    of first appearance, and sort each user's events stably by time.

    Returns (user_order, item_order, {user: [(item, t), ...]}).
    """
    item_counts = Counter(item for _, item, _ in events)
    kept = [e for e in events if item_counts[e[1]] >= min_item]
    user_counts = Counter(user for user, _, _ in kept)
    kept = [e for e in kept if user_counts[e[0]] >= max(min_user, 2)]
    users: dict[str, list] = {}
    items: dict[str, None] = {}
    for user, item, t in kept:
        users.setdefault(user, []).append((item, t))
        items.setdefault(item, None)
    for evs in users.values():
        evs.sort(key=lambda e: e[1])
    return list(users), list(items), users


# --- model forward pass and scores -------------------------------------------

def logistic(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def step(R, M_bank, W_bank, h, item: int, ctx: int, bin_: int) -> np.ndarray:
    """h_k = logistic(R[v_k] M[c_k] + h_{k-1} W[b_k])."""
    return logistic(R[item] @ M_bank[ctx] + h @ W_bank[bin_])


def final_state(R, M_bank, W_bank, items, ctxs, bins) -> np.ndarray:
    """State after a whole history, from h_0 = 0."""
    h = np.zeros(R.shape[1])
    for v, c, b in zip(items, ctxs, bins):
        h = step(R, M_bank, W_bank, h, v, c, b)
    return h


class Scorer:
    """Full-vocabulary scores y_i = (r_i M[c]) . (h W[b]).

    The item projections R M[c] are formed first, the reverse of the
    program's association, and kept per input context.
    """

    def __init__(self, R, M_bank, W_bank):
        self.R, self.M_bank, self.W_bank = R, M_bank, W_bank
        self._proj: dict[int, np.ndarray] = {}

    def scores(self, h, ctx: int, bin_: int) -> np.ndarray:
        proj = self._proj.get(ctx)
        if proj is None:
            proj = self._proj[ctx] = self.R @ self.M_bank[ctx]
        y = proj @ (h @ self.W_bank[bin_])
        require(bool(np.all(np.isfinite(y))), "model produced non-finite scores")
        return y


# --- ranks and metrics ---------------------------------------------------------

def rank(scores: np.ndarray, target: int) -> int:
    """1-based rank; an equal score ranks ahead only at a lower index."""
    s = scores[target]
    return 1 + int(np.count_nonzero(scores > s)) + int(np.count_nonzero(scores[:target] == s))


def rank_bounds(scores: np.ndarray, target: int) -> tuple[int, int]:
    """(lowest, highest) rank the target can take when scores within the
    near-tie gap of it may fall either way; equal bounds mean no near tie."""
    s = scores[target]
    gap = NEAR_TIE_GAP * max(1.0, float(np.max(np.abs(scores))))
    above = int(np.count_nonzero(scores > s + gap))
    near = int(np.count_nonzero(np.abs(scores - s) <= gap)) - 1
    return 1 + above, 1 + above + near


def metrics(ranks, ks=(1, 5, 10)) -> dict[str, float]:
    """Single-relevant-item metrics: recall@k, F1@k = 2 recall/(k+1),
    MAP = mean reciprocal rank, NDCG = mean 1/log2(rank+1)."""
    n = len(ranks)
    out = {}
    for k in ks:
        out[f"recall@{k}"] = sum(1 for r in ranks if r <= k) / n
        out[f"f1@{k}"] = 2.0 * out[f"recall@{k}"] / (k + 1)
    out["map"] = math.fsum(1.0 / r for r in ranks) / n
    out["ndcg"] = math.fsum(1.0 / math.log2(r + 1.0) for r in ranks) / n
    return out


def top_n(scores: np.ndarray, n: int) -> list[int]:
    """Indices of the n best scores, ties toward the lower index."""
    order = np.lexsort((np.arange(len(scores)), -scores))
    return [int(i) for i in order[:n]]


def top_n_is_clear(scores: np.ndarray, n: int) -> bool:
    """True when the first n+1 scores of the ranking are pairwise farther
    apart than the near-tie gap, so any correct top-n list is unique."""
    best = np.sort(scores)[::-1][: n + 1]
    gap = NEAR_TIE_GAP * max(1.0, float(np.max(np.abs(scores))))
    return bool(np.all(np.diff(best) < -gap))
