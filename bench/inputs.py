"""Seeded input generators. The same seed always gives the same inputs.

Every stream is derived from the run's --seed and a stream name, so each
workload's inputs can be regenerated in isolation.
"""

from __future__ import annotations

import zlib

import numpy as np

SECONDS_PER_DAY = 86400
ML1M_EPOCH = 956703932  # first timestamp of the MovieLens-1M ratings file

# Lines a movielens_dat parser must reject: a known count, whatever the seed.
MALFORMED_LINES = (
    "12::34::5",                # three fields
    "1::2::3::4::5",            # five fields
    "just garbage",             # one field
    "::5::3::978300760",        # empty user
    "7::8::3::-5",              # negative timestamp
    "7::8::3::12.5",            # non-integer timestamp
    "abc::12::4::notatime",     # non-numeric timestamp
)


def rng_for(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFF, zlib.crc32(stream.encode())])


def zipf_probs(n: int, exponent: float) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    return w / w.sum()


def heavy_tailed_lengths(rng, n_users: int, total: int, floor: int, sigma: float) -> np.ndarray:
    """Per-user lengths: floor plus a lognormal excess, rescaled so that the
    lengths sum to exactly ``total`` on every seed (op sizes stay fixed)."""
    excess = rng.lognormal(0.0, sigma, n_users)
    excess *= (total - n_users * floor) / excess.sum()
    whole = np.floor(excess).astype(np.int64)
    short = total - n_users * floor - int(whole.sum())
    whole[np.argsort(-(excess - whole), kind="stable")[:short]] += 1
    return floor + whole


def event_times(rng, length: int) -> np.ndarray:
    """Increasing timestamps from a gap mixture: 5% equal to the previous
    event, 50% within a session (mean 90 s), 35% days apart (mean 2 days),
    10% 25-120 days apart, past the 30-day cap of the gap bins."""
    start = ML1M_EPOCH + int(rng.integers(0, 2 * 365 * SECONDS_PER_DAY))
    n = length - 1
    kind = rng.random(n)
    gaps = np.where(kind < 0.05, 0.0,
           np.where(kind < 0.55, rng.exponential(90.0, n),
           np.where(kind < 0.90, rng.exponential(2.0 * SECONDS_PER_DAY, n),
                    rng.uniform(25 * SECONDS_PER_DAY, 120 * SECONDS_PER_DAY, n))))
    return start + np.concatenate([[0], np.cumsum(gaps.astype(np.int64))])


def ml1m_shape_events(seed: int, stream: str, n_users: int, total: int, n_items: int,
                      item_zipf: float = 1.0, floor: int = 20, sigma: float = 1.0):
    """(user, item, timestamp) events in file order, ML-1M style: users in id
    order, each user's events in random (not time) order, items drawn from a
    Zipf popularity over a seeded permutation of the item ids."""
    rng = rng_for(seed, stream)
    lengths = heavy_tailed_lengths(rng, n_users, total, floor, sigma)
    by_popularity = rng.permutation(n_items) + 1
    probs = zipf_probs(n_items, item_zipf)
    events = []
    for user, length in enumerate(lengths, start=1):
        ts = event_times(rng, int(length))
        items = by_popularity[rng.choice(n_items, size=int(length), p=probs)]
        for k in rng.permutation(int(length)):
            events.append((str(user), str(int(items[k])), int(ts[k])))
    return events


def movielens_lines(seed: int, events) -> list[str]:
    """user::item::rating::timestamp lines with MALFORMED_LINES at seeded places."""
    rng = rng_for(seed, "ratings")
    lines = [f"{u}::{i}::{int(r)}::{t}"
             for (u, i, t), r in zip(events, rng.integers(1, 6, size=len(events)))]
    for bad, at in zip(MALFORMED_LINES, rng.integers(0, len(lines), size=len(MALFORMED_LINES))):
        lines.insert(int(at), bad)
    return lines


def zipf_user_events(seed: int, n_users: int, n_items: int, len_lo: int, len_hi: int,
                     item_zipf: float = 1.0):
    """Per-user time-ordered (item, timestamp) lists with uniform lengths in
    [len_lo, len_hi] and Zipf-popular items."""
    rng = rng_for(seed, "recommend-corpus")
    by_popularity = rng.permutation(n_items)
    probs = zipf_probs(n_items, item_zipf)
    out = {}
    for user in range(n_users):
        length = int(rng.integers(len_lo, len_hi + 1))
        ts = event_times(rng, length)
        items = by_popularity[rng.choice(n_items, size=length, p=probs)]
        out[f"u{user}"] = [(f"i{int(v)}", int(t)) for v, t in zip(items, ts)]
    return out


def zipf_query_stream(seed: int, last_time: dict[str, int], n_queries: int,
                      user_zipf: float = 1.1):
    """(user, t) queries: users Zipf-popular over a seeded order, each t 0-40
    days after that user's last fitted event."""
    rng = rng_for(seed, "recommend-queries")
    users = sorted(last_time)
    order = rng.permutation(len(users))
    picks = rng.choice(len(users), size=n_queries, p=zipf_probs(len(users), user_zipf))
    offsets = rng.integers(0, 40 * SECONDS_PER_DAY, size=n_queries)
    return [(users[order[k]], last_time[users[order[k]]] + int(dt))
            for k, dt in zip(picks, offsets)]
