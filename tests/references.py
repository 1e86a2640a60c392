"""Textbook forms of the model's computations, one item, one state or one
pair at a time, that the tests compare the vectorised code against."""

import math

import numpy as np

from carnn.context import SECONDS_PER_DAY, ContextScheme
from carnn.data import SequenceSet, UserEvents, UserSequence
from carnn.errors import ConfigError
from carnn.evaluate import _SYNTH_EPOCH, synthetic_partition
from carnn.linalg import sigmoid_vec
from carnn.model import step_inputs, unroll
from carnn.seeding import named_rng


def _slots(ctx, bin_, p):
    cfg = p.config
    return (int(ctx) if cfg.use_input_contexts else 0,
            int(bin_) if cfg.use_transition_contexts else 0)


def reference_step(h, item, ctx, bin_, p):
    """One recurrence step of one state: f(r_item @ M[ctx] + h @ W[bin])."""
    m, w = _slots(ctx, bin_, p)
    return sigmoid_vec(p.R[int(item)] @ p.M_bank[m] + h @ p.W_bank[w])


def reference_score(h, item, ctx, bin_, p):
    """Bilinear score of one item under the contexts of the predicted step."""
    m, w = _slots(ctx, bin_, p)
    return float((h @ p.W_bank[w]) @ (p.R[int(item)] @ p.M_bank[m]))


def reference_scores(h, ctx, bin_, p):
    """Scores of every item for one state (d,): R @ ((h @ W[bin]) @ M[ctx].T),
    the one-state form that ``score_all`` once had as its own branch."""
    m, w = _slots(ctx, bin_, p)
    return p.R @ ((h @ p.W_bank[w]) @ p.M_bank[m].T)


def forward_states(seq, p):
    """States of one annotated sequence, stepped one state at a time by
    ``unroll``: an (len(seq)+1, d) array whose row 0 is the zero state and
    row k the state after k events. ``states_at`` of the user at
    ``np.arange(len(seq) + 1)`` gives the same bits."""
    p.check_ids(seq.items, seq.input_ctxs, seq.trans_bins)
    return unroll(*step_inputs(seq.items, seq.input_ctxs, seq.trans_bins, p))


def _joined(parts):
    return np.concatenate([np.zeros(0, np.int64), *parts]).astype(np.int64)


def user_events(sequences, item_vocab):
    """A UserEvents of per-user ``(user, items, timestamps)`` triples: users
    numbered in list order, each column the concatenation of theirs."""
    lengths = [len(items) for _, items, _ in sequences]
    return UserEvents(_joined(items for _, items, _ in sequences),
                      _joined(ts for _, _, ts in sequences),
                      np.concatenate(([0], np.cumsum(lengths, dtype=np.int64))), item_vocab,
                      {user: u for u, (user, _, _) in enumerate(sequences)})


def sequence_set(sequences, item_vocab, scheme=ContextScheme()):
    """A SequenceSet of annotated ``UserSequence`` objects, the per-user form
    the set once held, with their contexts as given rather than read off
    their timestamps under ``scheme``."""
    events = user_events([(seq.user, seq.items, seq.timestamps) for seq in sequences],
                         item_vocab)
    return SequenceSet(events.items, events.timestamps, events.offsets, item_vocab,
                       events.user_vocab, _joined(seq.input_ctxs for seq in sequences),
                       _joined(seq.trans_bins for seq in sequences), scheme)


def reference_train_item_counts(split):
    """Training-event counts per item, one ``np.add.at`` per user, as
    ``evaluate.train_item_counts`` once summed them."""
    counts = np.zeros(split.sequences.n_items, dtype=np.float64)
    for seq, n_tr in zip(split.sequences.sequences, split.n_train.tolist()):
        np.add.at(counts, seq.items[:n_tr], 1.0)
    return counts


def bpr_pair_loss(y_pos, y_neg):
    """ln(1 + e^-(y_pos - y_neg)), safe against overflow for large margins."""
    x = y_pos - y_neg
    if x >= 0.0:
        return math.log1p(math.exp(-x))
    return -x + math.log1p(math.exp(x))


def sample_negative(rng, positive, n_items):
    """Uniform draw over all items except the positive one."""
    if n_items < 2:
        raise ConfigError("need at least 2 items to sample a negative")
    j = int(rng.integers(0, n_items - 1))
    return j + 1 if j >= positive else j


def reference_recurrence_grads(dh, act, Ws, window):
    """The reverse sweep of ``training._recurrence_grads`` as the textbook
    loop, indexing a row of the error buffer at each step:
    E[j] += E[j + 1] @ K[j + 1], or, with a window, each scored position's
    error carried back at most ``window`` steps."""
    K = act[1:, :, None] * np.swapaxes(Ws, 1, 2)
    E = np.zeros_like(dh)
    if window is None:
        E[:-1] = dh[1:]
        for j in range(len(dh) - 3, -1, -1):
            E[j] += E[j + 1] @ K[j + 1]
        stepped = E.any(axis=1)
    else:
        stepped = np.zeros(len(dh), dtype=bool)
        for j in range(len(dh)):
            if not dh[j].any():
                continue
            cur = dh[j]
            for s in range(j - 1, max(j - window, 0) - 1, -1):
                E[s] += cur
                stepped[s] = True
                cur = cur @ K[s]
    return E * act[1:], stepped


def reference_grouping(users, items, timestamps):
    """Each user's items and timestamps in time order, file order breaking
    ties, as ``build_sequences`` once cut them: one ``np.lexsort`` on
    (user, timestamp) and an ``np.split`` of each sorted column at the
    per-user counts. ``users`` are codes 0, 1, ... with none missing."""
    order = np.lexsort((timestamps, users))
    bounds = np.cumsum(np.bincount(users))[:-1]
    return np.split(items[order], bounds), np.split(timestamps[order], bounds)


def reference_top_n(scores, n):
    """The full stable sort that ``top_n`` replaces."""
    return np.argsort(-scores, kind="stable")[:n]


def reference_synthetic(n_users, n_items, seq_len, n_contexts, signal="input_ctx", seed=0,
                        signal_strength=0.9):
    """``generate_synthetic`` one event at a time, with each event's hour id
    and gap bin filled in by hand beside its timestamp rather than read off
    the timestamps by ``annotate_sequences``."""
    scheme = ContextScheme(factors=("hour_of_day",))
    rng = named_rng(seed, "synthetic")
    part = synthetic_partition(n_items, n_contexts)
    members = [np.flatnonzero(part == c) for c in range(n_contexts)]

    def draw_item(ctx_value: int) -> int:
        if ctx_value is not None and rng.random() < signal_strength:
            pool = members[ctx_value]
            return int(pool[rng.integers(len(pool))])
        return int(rng.integers(n_items))

    sequences = []
    for u in range(n_users):
        items = np.empty(seq_len, dtype=np.int64)
        ts = np.empty(seq_len, dtype=np.int64)
        ctx_ids = np.empty(seq_len, dtype=np.int64)
        bins = np.empty(seq_len, dtype=np.int64)
        if signal == "input_ctx":
            hours = rng.integers(0, n_contexts, size=seq_len)
            for j in range(seq_len):
                # one event every other day at the planted hour
                ts[j] = _SYNTH_EPOCH + j * 2 * SECONDS_PER_DAY + int(hours[j]) * 3600
                items[j] = draw_item(int(hours[j]))
                ctx_ids[j] = int(hours[j])
                bins[j] = scheme.start_bin if j == 0 else (int(ts[j]) - int(ts[j - 1])) // SECONDS_PER_DAY
        elif signal == "transition_bin":
            ts[0] = _SYNTH_EPOCH
            items[0] = draw_item(None)
            ctx_ids[0] = 0
            bins[0] = scheme.start_bin
            for j in range(1, seq_len):
                gap_bin = int(rng.integers(0, n_contexts))
                # one hour past the day boundary keeps the floor exact
                ts[j] = int(ts[j - 1]) + gap_bin * SECONDS_PER_DAY + 3600
                items[j] = draw_item(gap_bin)
                ctx_ids[j] = (int(ts[j]) % SECONDS_PER_DAY) // 3600
                bins[j] = gap_bin
        else:  # none
            for j in range(seq_len):
                ts[j] = _SYNTH_EPOCH + j * SECONDS_PER_DAY
                items[j] = draw_item(None)
                ctx_ids[j] = 0
                bins[j] = scheme.start_bin if j == 0 else 1
        sequences.append(UserSequence(f"u{u}", items, ts, ctx_ids, bins))

    item_vocab = {f"i{v}": v for v in range(n_items)}
    return sequence_set(sequences, item_vocab, scheme), scheme
