"""Textbook forms of the model's computations, one item, one state or one
pair at a time, that the tests compare the vectorised code against."""

import math

import numpy as np

from carnn.errors import ConfigError
from carnn.linalg import sigmoid_vec


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


def reference_top_n(scores, n):
    """The full stable sort that ``top_n`` replaces."""
    return np.argsort(-scores, kind="stable")[:n]
