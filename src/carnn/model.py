"""Model parameters and forward computation.

The hidden state evolves as h_k = f(r_k @ M[ctx_k] + h_{k-1} @ W[bin_k])
where M is a bank of input matrices selected by the step's input-context id
and W a bank of transition matrices selected by the step's gap bin; f is the
elementwise logistic ``sigmoid_vec``, the only activation, so training reads
its derivative h * (1 - h) off the states. Scoring an item under the
contexts of the predicted step is the bilinear form
h @ W[bin] @ (r_item @ M[ctx])^T, with the same two banks.

With a context switch off the corresponding bank collapses to a single
shared matrix, which reproduces a conventional recurrent model.

``hidden_step`` is the only code that computes a recurrence step, from
the input projections r @ M[ctx] and transition matrices that
``step_inputs`` gathers for a run of steps; it writes the new state in
place when given ``out``, and works in a scratch buffer when given one.
``unroll`` steps one user a state at a time through one scratch buffer for
training, which passes the gathers its scoring path shares, and for
``carnn predict``; evaluation and the estimator's state table take theirs
from ``states_at``, which steps every user of a ``SequenceSet`` in lockstep
as (B, d) blocks, read from the set's columns. A block row goes through the
same vector-matrix BLAS call (``np.vecmat``, which has the bits of a
stacked ``np.matmul``) as one state, so both have the same bits.
``score_all`` scores a (B, d) block of states under one context and bin, or
one per row; a single query is the block ``h[None]``.

``step_inputs`` and ``score_all`` index the banks unchecked. Two checks keep
every id in range: ``check_compatibility`` at the dataset boundary (item
count and switched-on bank sizes against the context scheme) and
``ModelParams.check_ids`` on the events that are replayed.

``states_at`` works in time-major order: it gathers the events of every
step into one contiguous run once, and keeps the states in a window of at
most STATE_WINDOW_BYTES in which each step reads the previous step's rows
and writes its own right after them.

``save_params`` and ``load_params`` keep the parameters in model file
format 2, a header and the f64 banks inside the checksummed frame of
``store``; a header that ``ModelConfig`` refuses is a ``FormatError``.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from .base import as_flag, as_real, as_whole
from .errors import CompatibilityError, ConfigError, FormatError, NumericalError
from .linalg import sigmoid_vec
from .seeding import named_rng
from .store import SealedReader, write_sealed

MAGIC = b"CARN"
FORMAT_VERSION = 2


@dataclass(frozen=True)
class ModelConfig:
    d: int
    n_items: int
    n_input_contexts: int
    n_transition_bins: int
    use_input_contexts: bool = True
    use_transition_contexts: bool = True
    seed: int = 0
    init_scale: float = 0.1

    def __post_init__(self):
        for name in ("d", "n_items", "n_input_contexts", "n_transition_bins", "seed"):
            object.__setattr__(self, name, as_whole(getattr(self, name), name))
        object.__setattr__(self, "init_scale", as_real(self.init_scale, "init_scale", 0.0))
        for name in ("use_input_contexts", "use_transition_contexts"):
            object.__setattr__(self, name, as_flag(getattr(self, name), name))
        if self.d < 1:
            raise ConfigError(f"d must be >= 1, got {self.d}")
        if self.n_items < 1:
            raise ConfigError(f"n_items must be >= 1, got {self.n_items}")
        if self.n_input_contexts < 1 or self.n_transition_bins < 1:
            raise ConfigError("context cardinalities must be >= 1")
        if not np.isfinite(2 * self.init_scale):  # init_params draws from a range that wide
            raise ConfigError(f"init_scale {self.init_scale!r} is too large: twice it overflows")

    @property
    def m_slots(self) -> int:
        return self.n_input_contexts if self.use_input_contexts else 1

    @property
    def w_slots(self) -> int:
        return self.n_transition_bins if self.use_transition_contexts else 1


@dataclass
class ModelParams:
    """Item embeddings plus the two context-selected matrix banks."""

    config: ModelConfig
    R: np.ndarray        # (n_items, d)
    M_bank: np.ndarray   # (m_slots, d, d)
    W_bank: np.ndarray   # (w_slots, d, d)

    def check_ids(self, items: np.ndarray, ctxs: np.ndarray, bins: np.ndarray) -> None:
        """Raise ConfigError unless every item, input-context and gap-bin id
        of a run of events is in range; a switched-off bank ignores its ids.
        ``step_inputs`` indexes unchecked, and ``take`` wraps a negative id,
        so this check is what stops one. Query contexts that ``score_all``
        takes come from a scheme that ``check_compatibility`` has matched
        to the banks."""
        cfg = self.config
        for name, ids, n, used in (
            ("item index", items, cfg.n_items, True),
            ("input context", ctxs, cfg.n_input_contexts, cfg.use_input_contexts),
            ("transition bin", bins, cfg.n_transition_bins, cfg.use_transition_contexts),
        ):
            if not used:
                continue
            bad = (ids < 0) | (ids >= n)
            if bad.any():
                raise ConfigError(f"{name} {ids[np.argmax(bad)]} out of range [0, {n})")


def physical_memory() -> int:
    """The machine's physical memory, in bytes."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def init_params(config: ModelConfig) -> ModelParams:
    """Draw every parameter i.i.d. uniform on [-init_scale, +init_scale].

    Draw order is fixed (R, M bank, W bank) so a seed pins the exact
    parameter values. ConfigError, before anything is drawn, if the banks
    take more bytes than the machine's physical memory holds.
    """
    d = config.d
    n_bytes = 8 * (config.n_items * d + (config.m_slots + config.w_slots) * d * d)
    if n_bytes > (memory := physical_memory()):
        raise ConfigError(f"the banks of d={d}, {config.n_items} items, {config.m_slots} input "
                          f"and {config.w_slots} transition matrices take {n_bytes} bytes, "
                          f"more than the {memory} bytes of physical memory")
    rng = named_rng(config.seed, "init")
    s = config.init_scale

    def draw(shape):
        return rng.uniform(-s, s, size=shape)

    R = draw((config.n_items, d))
    M_bank = draw((config.m_slots, d, d))
    W_bank = draw((config.w_slots, d, d))
    return ModelParams(config, R, M_bank, W_bank)


def step_inputs(items: np.ndarray, ctxs: np.ndarray, bins: np.ndarray,
                p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Input projections r @ M[ctx] of a run of steps, from ``project``, and
    their transition matrices: a (B, d, d) array, or one (d, d) matrix if
    transition contexts are off. A bank whose switch is off is its single
    matrix, broadcast over the steps; ``take`` gathers the same rows as
    fancy indexing with half its fixed cost. The ids must be ones
    ``ModelParams.check_ids`` has accepted."""
    cfg = p.config
    m = p.M_bank.take(ctxs, axis=0) if cfg.use_input_contexts else p.M_bank[0]
    w = p.W_bank.take(bins, axis=0) if cfg.use_transition_contexts else p.W_bank[0]
    return project(p.R.take(items, axis=0)[:, None, :], m), w


def project(r: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Input projections of (B, 1, d) item rows through their (B, d, d) input
    matrices, or one shared (d, d) matrix, from one stacked ``np.matmul``: a
    (B, d) array whose row b is r[b, 0] @ m[b]."""
    return np.matmul(r, m)[:, 0, :]


def hidden_step(h_prev: np.ndarray, u: np.ndarray, w: np.ndarray,
                out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
    """One recurrence step, f(u + h_prev @ w), of one state (d,) or a (B, d)
    block, from the input projections and transition matrices that
    ``step_inputs`` gives; the state is written to ``out`` if given. The
    float64 ``scratch`` of shape (3, *h_prev.shape), if given, holds the
    pre-activation in row 0 and ``sigmoid_vec``'s work in the other two."""
    if scratch is None:
        scratch = np.empty((3, *h_prev.shape))
    z = np.vecmat(h_prev, w, out=scratch[0])
    z += u
    return sigmoid_vec(z, out=out, scratch=scratch[1:])


def unroll(U: np.ndarray, W: np.ndarray) -> np.ndarray:
    """States of n steps from the zero state, given their (n, d) input
    projections and transition matrices, (n, d, d) or one shared (d, d):
    an (n+1, d) array whose row k + 1 ``hidden_step`` writes in place from
    row k, every step through one scratch buffer."""
    n, d = U.shape
    H = np.zeros((n + 1, d), dtype=np.float64)
    scratch = np.empty((3, d))
    for h, u, w, out in zip(H, U, W if W.ndim == 3 else repeat(W, n), H[1:]):
        hidden_step(h, u, w, out=out, scratch=scratch)
    return H


# Upper bound on the bytes of the state window of ``states_at``, unless two
# states per user take more; at d=10 a window holds 26,214 states.
STATE_WINDOW_BYTES = 1 << 21


def states_at(seqs, positions, p: ModelParams) -> np.ndarray:
    """States of a ``SequenceSet`` at the wanted positions, in lockstep.

    ``positions`` has one entry per user: ``positions[u]`` lists the
    positions of user u whose states are wanted, and may be empty. Position
    j is the state after j events, so 0 is the zero state and
    ``seqs.lengths[u]`` the state after the last event. Returns one row per
    wanted position: user by user, each user's positions in the given order.

    Every user advances at once, in time-major order. Rows are sorted by the
    last position they need, longest first, so the rows still stepping at
    step k are a prefix of length ``active[k]``. The events are gathered
    once from the set's columns into step order, so step k's items, contexts
    and bins are the contiguous slice ``[off[k], off[k] + active[k])``. The
    states are laid out the same way: block 0 holds every row's zero state
    and block k + 1 the states after step k. Each step projects its slice
    with ``step_inputs``, then one block ``hidden_step`` reads a prefix of
    the previous block and writes its own block after it.

    The state buffer is a window of at most STATE_WINDOW_BYTES, or two
    states per row if that is more. When the next block does not fit,
    the wanted states inside the window are gathered out in one indexing,
    the last step's rows are carried to its head, and stepping goes on. So
    memory is O(users·d + wanted·d + window) besides the event index.
    """
    lengths = seqs.lengths
    user = np.repeat(np.arange(len(lengths)), list(map(len, positions)))
    want = np.concatenate([np.zeros(0, dtype=np.int64), *positions]).astype(np.int64)
    bad = (want < 0) | (want > lengths[user])
    if bad.any():
        u = user[np.argmax(bad)]
        raise ConfigError(f"position {want[np.argmax(bad)]} outside [0, {lengths[u]}] "
                          f"for user {seqs.user_ids()[u]!r}")
    p.check_ids(seqs.items, seqs.input_ctxs, seqs.trans_bins)

    n_rows = len(lengths)
    need = np.zeros(n_rows, dtype=np.int64)  # the last position each user wants
    np.maximum.at(need, user, want)
    order = np.argsort(-need, kind="stable")
    row_of = np.empty_like(order)
    row_of[order] = np.arange(n_rows)
    active = n_rows - np.cumsum(np.bincount(need))[:-1]  # rows needing more than k steps
    off = np.concatenate(([0], np.cumsum(active)))
    step = np.repeat(np.arange(len(active)), active)
    ev = seqs.offsets[:-1][order][np.arange(off[-1]) - off[step]] + step
    items, ctxs, bins = seqs.items[ev], seqs.input_ctxs[ev], seqs.trans_bins[ev]

    base = np.concatenate(([0], n_rows + off))  # block j starts at state base[j]
    g = base[want] + row_of[user]  # each wanted state's index in the layout
    by = np.argsort(g, kind="stable")
    g = g[by]
    d = p.config.d
    cap = min(int(base[-1]), max(STATE_WINDOW_BYTES // (8 * d), 2 * n_rows))
    S = np.empty((cap, d), dtype=np.float64)
    S[:n_rows] = 0.0
    out = np.empty((len(want), d), dtype=np.float64)
    w0 = done = 0  # the layout index of S[0]; wanted states gathered so far

    def gather(end):
        nonlocal done
        stop = int(np.searchsorted(g, end))
        out[by[done:stop]] = S[g[done:stop] - w0]
        done = stop

    base, off = base.tolist(), off.tolist()
    for k, B in enumerate(active.tolist()):
        src, dst, o = base[k] - w0, base[k + 1] - w0, off[k]
        if dst + B > cap:
            gather(base[k + 1])
            S[:B] = S[src:src + B]
            src, dst, w0 = 0, B, base[k + 1] - B
        u, w = step_inputs(items[o:o + B], ctxs[o:o + B], bins[o:o + B], p)
        hidden_step(S[src:src + B], u, w, out=S[dst:dst + B])
    gather(base[-1])
    return out


def score_all(H: np.ndarray, ctx: int | np.ndarray, bin_: int | np.ndarray,
              p: ModelParams, out: np.ndarray | None = None) -> np.ndarray:
    """(B, n_items) scores of a (B, d) block of states, row b being
    H[b] @ W[bin] @ (R @ M[ctx]).T: one projected vector per row, then one
    Q @ R.T product, written to ``out`` if given. ``ctx`` and ``bin_`` are
    each one id for every row or a length-B array; a switched-off bank
    ignores them. They index the banks unchecked (see
    ``check_compatibility``). One query is
    ``score_all(h[None], ctx, bin_, p)[0]``; ``top_n`` turns its scores
    into a ranked list.
    """
    cfg = p.config
    m = p.M_bank[ctx if cfg.use_input_contexts else 0]
    w = p.W_bank[bin_ if cfg.use_transition_contexts else 0]
    return np.matmul((H[:, None] @ w @ m.swapaxes(-1, -2))[:, 0], p.R.T, out=out)


def top_n(scores: np.ndarray, n: int) -> np.ndarray:
    """Indices of the ``n`` (at least 1) highest ``scores``, best first:
    exactly ``np.argsort(-scores, kind="stable")[:n]``, so equal scores keep
    the lower index first and NaN ranks last.

    An in-place partition of the negated scores finds the n-th best score;
    only the entries not worse than it are sorted. Ties at that score stay
    candidates in index order, and a NaN n-th score makes every entry one.
    """
    neg = -scores
    n = min(n, len(neg))
    neg.partition(n - 1)
    kth = neg[n - 1]
    cand = np.arange(len(neg)) if math.isnan(kth) else (scores >= -kth).nonzero()[0]
    return cand[np.argsort(-scores[cand], kind="stable")][:n]


# --- model file format -------------------------------------------------------
#
# A ``store.write_sealed`` frame: magic "CARN", version 2, then little-endian
# u32 d, u32 n_items, u32 n_input_contexts, u32 n_transition_bins,
# u8 use_input_contexts, u8 use_transition_contexts, then R, M bank, W bank
# as f64 in that order, and the frame's CRC-32. The stored context counts
# are the bank sizes, so a model trained with a switch off declares a single
# shared matrix.


def save_params(p: ModelParams, path: str) -> None:
    cfg = p.config
    header = struct.pack("<IIIIBB", cfg.d, cfg.n_items, p.M_bank.shape[0],
                         p.W_bank.shape[0], cfg.use_input_contexts, cfg.use_transition_contexts)
    write_sealed(path, MAGIC, FORMAT_VERSION,
                 [header, *(a.astype("<f8") for a in (p.R, p.M_bank, p.W_bank))], "model file")


def load_params(path: str, seed: int = 0) -> ModelParams:
    r = SealedReader(path, MAGIC, FORMAT_VERSION, "model file", "train")
    d, n_items, n_m, n_w, use_in, use_tr = r.take("<IIIIBB")
    # sizes are Python ints, so a huge header is "truncated", never an overflow;
    # astype copies, as the reader's views are read-only
    R, M_bank, W_bank = (r.take_column("<f8", math.prod(s)).reshape(s).astype(np.float64)
                         for s in ((n_items, d), (n_m, d, d), (n_w, d, d)))
    r.close()
    if (not use_in and n_m != 1) or (not use_tr and n_w != 1):
        raise FormatError(f"{path}: bank sizes inconsistent with context switches")
    try:
        config = ModelConfig(d, n_items, n_m, n_w, bool(use_in), bool(use_tr))
    except ConfigError as exc:
        raise FormatError(f"{path}: invalid model header: {exc}") from exc
    for name, bank in (("R", R), ("M_bank", M_bank), ("W_bank", W_bank)):
        if (bad := first_non_finite(bank)) is not None:
            raise NumericalError(f"{path}: non-finite value in {name}[{bad}]")
    return ModelParams(replace(config, seed=seed), R, M_bank, W_bank)


def first_non_finite(block: np.ndarray) -> int | None:
    """Index of the first row of ``block`` that holds a NaN or an infinity."""
    finite = np.isfinite(block).reshape(len(block), -1).all(axis=1)
    return None if finite.all() else int(np.argmin(finite))


def check_compatibility(p: ModelParams, seqs) -> None:
    """Raise CompatibilityError unless the model fits the sequence set: the
    same item count and, for each switched-on bank, as many matrices as
    ``seqs.scheme`` has input contexts or gap bins. This is what keeps the
    query contexts that ``score_all`` indexes in range."""
    cfg, scheme = p.config, seqs.scheme
    sizes = [("items", cfg.n_items, seqs.n_items)]
    if cfg.use_input_contexts:
        sizes.append(("input contexts", cfg.n_input_contexts, scheme.n_input_contexts))
    if cfg.use_transition_contexts:
        sizes.append(("transition bins", cfg.n_transition_bins, scheme.n_transition_bins))
    for name, model_n, data_n in sizes:
        if model_n != data_n:
            raise CompatibilityError(
                f"model expects {model_n} {name} but the dataset has {data_n}")
