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
place when given ``out``. ``unroll`` steps one user a state at a time,
for ``forward_states`` and for training, which passes the gathers its
scoring path shares; evaluation, ``carnn predict`` and the estimator's
state table take theirs from ``states_at``, which steps all users in
lockstep as (B, d) blocks. A block row goes through the same vector-matrix
BLAS call (a stacked ``np.matmul``) as one state, so both have the same
bits. ``score_all`` takes one state (d,) or a block with one context and
bin per row.

``states_at`` works in time-major order: it gathers the events of every
step into one contiguous run once, and keeps the states in a window of at
most STATE_WINDOW_BYTES in which each step reads the previous step's rows
and writes its own right after them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .base import as_flag, as_real, as_whole
from .errors import (CompatibilityError, ConfigError, FormatError, InputOutputError,
                     NumericalError)
from .linalg import sigmoid_vec
from .seeding import named_rng
from .store import write_atomic

MAGIC = b"CARN"
FORMAT_VERSION = 1


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

    def input_slot(self, ctx: int) -> int:
        if not self.config.use_input_contexts:
            return 0
        if not (0 <= ctx < self.config.n_input_contexts):
            raise ConfigError(
                f"input context {ctx} out of range [0, {self.config.n_input_contexts})"
            )
        return int(ctx)

    def trans_slot(self, bin_: int) -> int:
        if not self.config.use_transition_contexts:
            return 0
        if not (0 <= bin_ < self.config.n_transition_bins):
            raise ConfigError(
                f"transition bin {bin_} out of range [0, {self.config.n_transition_bins})"
            )
        return int(bin_)

    def check_ids(self, items: np.ndarray, ctxs: np.ndarray, bins: np.ndarray) -> None:
        """Raise ConfigError unless every id is in range. ``step_inputs``
        and block ``score_all`` calls index the banks unchecked, and ``take``
        wraps a negative id, so this check is what stops one."""
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


def init_params(config: ModelConfig) -> ModelParams:
    """Draw every parameter i.i.d. uniform on [-init_scale, +init_scale].

    Draw order is fixed (R, M bank, W bank) so a seed pins the exact
    parameter values.
    """
    rng = named_rng(config.seed, "init")
    s = config.init_scale
    d = config.d

    def draw(shape):
        return rng.uniform(-s, s, size=shape)

    R = draw((config.n_items, d))
    M_bank = draw((config.m_slots, d, d))
    W_bank = draw((config.w_slots, d, d))
    return ModelParams(config, R, M_bank, W_bank)


def _block_banks(m_bank: np.ndarray, w_bank: np.ndarray, ctx: np.ndarray, bin_: np.ndarray,
                 config: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-row input and transition matrices of a block; a bank whose switch
    is off is its single matrix, broadcast over the rows. ``take`` gathers
    the same rows as fancy indexing with half its fixed cost."""
    m = m_bank.take(ctx, axis=0) if config.use_input_contexts else m_bank[0]
    w = w_bank.take(bin_, axis=0) if config.use_transition_contexts else w_bank[0]
    return m, w


def step_inputs(items: np.ndarray, ctxs: np.ndarray, bins: np.ndarray,
                p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Input projections r @ M[ctx] of a run of steps, from ``project``, and
    their transition matrices from ``_block_banks``: a (B, d, d) array, or
    one (d, d) matrix if transition contexts are off. The ids must be ones
    ``ModelParams.check_ids`` has accepted."""
    m, w = _block_banks(p.M_bank, p.W_bank, ctxs, bins, p.config)
    return project(p.R.take(items, axis=0)[:, None, :], m), w


def project(r: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Input projections of (B, 1, d) item rows through their (B, d, d) input
    matrices, or one shared (d, d) matrix, from one stacked ``np.matmul``: a
    (B, d) array whose row b is r[b, 0] @ m[b]."""
    return np.matmul(r, m)[:, 0, :]


def hidden_step(h_prev: np.ndarray, u: np.ndarray, w: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """One recurrence step, f(u + h_prev @ w), of one state (d,) or a (B, d)
    block, from the input projections and transition matrices that
    ``step_inputs`` gives; the state is written to ``out`` if given."""
    z = np.matmul(h_prev[..., None, :], w)[..., 0, :]
    z += u
    return sigmoid_vec(z, out=out)


def forward_states(seq, p: ModelParams) -> np.ndarray:
    """States of an annotated sequence: the ids are checked and the whole
    sequence projected once, then ``unroll`` steps through it.

    Returns an (len(seq)+1, d) array: row 0 is the zero state h_0 and row k
    the state after k events.
    """
    check_sequence(seq, p)
    if not len(seq):
        return np.zeros((1, p.config.d), dtype=np.float64)
    return unroll(*step_inputs(seq.items, seq.input_ctxs, seq.trans_bins, p))


def check_sequence(seq, p: ModelParams) -> None:
    """ConfigError unless ``seq`` is empty, or annotated with ids that
    ``ModelParams.check_ids`` accepts."""
    if len(seq):
        if not seq.annotated:
            raise ConfigError("sequence must be annotated with contexts before the forward pass")
        p.check_ids(seq.items, seq.input_ctxs, seq.trans_bins)


def unroll(U: np.ndarray, W: np.ndarray) -> np.ndarray:
    """States of n steps from the zero state, given their (n, d) input
    projections and transition matrices, (n, d, d) or one shared (d, d):
    an (n+1, d) array whose row k + 1 ``hidden_step`` writes in place from
    row k."""
    n, d = U.shape
    H = np.zeros((n + 1, d), dtype=np.float64)
    for h, u, w, out in zip(H, U, W if W.ndim == 3 else repeat(W, n), H[1:]):
        hidden_step(h, u, w, out=out)
    return H


# Upper bound on the bytes of the state window of ``states_at``, unless two
# states per user take more; at d=10 a window holds 26,214 states.
STATE_WINDOW_BYTES = 1 << 21


def states_at(seqs, positions, p: ModelParams) -> np.ndarray:
    """States of annotated sequences at the wanted positions, in lockstep.

    ``positions[u]`` lists the positions of ``seqs[u]`` whose states are
    wanted; position j is the state after j events, so 0 is the zero state
    and ``len(seqs[u])`` the state after the last event. Returns one row per
    wanted position: user by user, each user's positions in the given order.

    Every user advances at once, in time-major order. Rows are sorted by the
    last position they need, longest first, so the rows still stepping at
    step k are a prefix of length ``active[k]``. The events are gathered
    once into step order, so step k's items, contexts and bins are the
    contiguous slice ``[off[k], off[k] + active[k])``. The states are laid
    out the same way: block 0 holds every row's zero state and block k + 1
    the states after step k. Each step projects its slice with
    ``step_inputs``, then one block ``hidden_step`` reads a prefix of the
    previous block and writes its own block after it.

    The state buffer is a window of at most STATE_WINDOW_BYTES, or two
    states per row if that is more. When the next block does not fit,
    the wanted states inside the window are gathered out in one indexing,
    the last step's rows are carried to its head, and stepping goes on. So
    memory is O(users·d + wanted·d + window) besides the event index.
    """
    if any(len(seq) and not seq.annotated for seq in seqs):
        raise ConfigError("sequence must be annotated with contexts before the forward pass")
    lengths = np.array([len(seq) for seq in seqs], dtype=np.int64)
    user = np.repeat(np.arange(len(seqs)), [len(q) for q in positions])
    want = np.concatenate([np.zeros(0, dtype=np.int64), *positions]).astype(np.int64)
    bad = (want < 0) | (want > lengths[user])
    if bad.any():
        u = user[np.argmax(bad)]
        raise ConfigError(f"position {want[np.argmax(bad)]} outside [0, {lengths[u]}] "
                          f"for user {seqs[u].user!r}")
    items, ctxs, bins = (np.concatenate([np.zeros(0, dtype=np.int64)]
                                        + [getattr(seq, name) for seq in seqs if len(seq)])
                         for name in ("items", "input_ctxs", "trans_bins"))
    p.check_ids(items, ctxs, bins)

    n_rows = len(seqs)
    need = np.zeros(n_rows, dtype=np.int64)  # the last position each user wants
    np.maximum.at(need, user, want)
    order = np.argsort(-need, kind="stable")
    row_of = np.empty_like(order)
    row_of[order] = np.arange(n_rows)
    active = n_rows - np.cumsum(np.bincount(need))[:-1]  # rows needing more than k steps
    off = np.concatenate(([0], np.cumsum(active)))
    step = np.repeat(np.arange(len(active)), active)
    ev = (np.cumsum(lengths) - lengths)[order][np.arange(off[-1]) - off[step]] + step
    items, ctxs, bins = items[ev], ctxs[ev], bins[ev]

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


def score_all(h: np.ndarray, next_ctx: int | np.ndarray, next_bin: int | np.ndarray,
              p: ModelParams) -> np.ndarray:
    """Scores for every item: one projected vector, then a single R @ q product.

    A (B, d) block of states, with checked length-B context and bin arrays,
    gives (B, n_items) scores from one Q @ R.T product. ``top_n`` turns one
    state's scores into a ranked list.
    """
    if np.ndim(h) == 2:
        m, w = _block_banks(p.M_bank, p.W_bank, next_ctx, next_bin, p.config)
        q = np.matmul(np.matmul(h[:, None, :], w), np.swapaxes(m, -1, -2))
        return q[:, 0, :] @ p.R.T
    m = p.M_bank[p.input_slot(next_ctx)]
    w = p.W_bank[p.trans_slot(next_bin)]
    q = (h @ w) @ m.T
    return p.R @ q


def top_n(scores: np.ndarray, n: int) -> np.ndarray:
    """Indices of the ``n`` (at least 1) highest ``scores``, best first:
    exactly ``np.argsort(-scores, kind="stable")[:n]``, so equal scores keep
    the lower index first and NaN ranks last.

    A partition finds the n-th best score; only the entries not worse than it
    are sorted. Ties at that score stay candidates in index order, and a NaN
    n-th score makes every entry one.
    """
    neg = -scores
    n = min(n, len(neg))
    kth = np.partition(neg, n - 1)[n - 1]
    cand = np.flatnonzero(~(neg > kth))
    return cand[np.argsort(neg[cand], kind="stable")][:n]


# --- model file format -------------------------------------------------------
#
# magic "CARN", then little-endian: u32 version, u32 d, u32 n_items,
# u32 n_input_contexts, u32 n_transition_bins, u8 use_input_contexts,
# u8 use_transition_contexts, then R, M bank, W bank as f64 in that order.
# The stored context counts are the bank sizes, so a model trained with a
# switch off declares a single shared matrix.

_HEADER = struct.Struct("<4sIIIIIBB")


def save_params(p: ModelParams, path: str) -> None:
    cfg = p.config
    header = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        cfg.d,
        cfg.n_items,
        p.M_bank.shape[0],
        p.W_bank.shape[0],
        1 if cfg.use_input_contexts else 0,
        1 if cfg.use_transition_contexts else 0,
    )
    write_atomic(path, b"".join([header, p.R.astype("<f8").tobytes(),
                                 p.M_bank.astype("<f8").tobytes(),
                                 p.W_bank.astype("<f8").tobytes()]), "model file")


def load_params(path: str, seed: int = 0) -> ModelParams:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise InputOutputError(f"cannot read model file {path}: {exc}") from exc
    if len(blob) < _HEADER.size:
        raise FormatError(f"{path}: truncated model file")
    magic, version, d, n_items, n_m, n_w, flag_in, flag_tr = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic bytes {magic!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported model format version {version}")
    expected = _HEADER.size + 8 * (n_items * d + n_m * d * d + n_w * d * d)
    if len(blob) != expected:
        raise FormatError(
            f"{path}: wrong length {len(blob)} bytes, header implies {expected}"
        )
    use_in = bool(flag_in)
    use_tr = bool(flag_tr)
    if (not use_in and n_m != 1) or (not use_tr and n_w != 1):
        raise FormatError(f"{path}: bank sizes inconsistent with context switches")
    config = ModelConfig(
        d=d,
        n_items=n_items,
        n_input_contexts=n_m,
        n_transition_bins=n_w,
        use_input_contexts=use_in,
        use_transition_contexts=use_tr,
        seed=seed,
    )
    offset = _HEADER.size
    def take(shape):
        nonlocal offset
        n = int(np.prod(shape))
        arr = np.frombuffer(blob, dtype="<f8", count=n, offset=offset).reshape(shape)
        offset += 8 * n
        return arr.astype(np.float64)  # a copy: frombuffer's view is read-only

    R = take((n_items, d))
    M_bank = take((n_m, d, d))
    W_bank = take((n_w, d, d))
    for name, bank in (("R", R), ("M_bank", M_bank), ("W_bank", W_bank)):
        if (bad := first_non_finite(bank)) is not None:
            raise NumericalError(f"{path}: non-finite value in {name}[{bad}]")
    return ModelParams(config, R, M_bank, W_bank)


def first_non_finite(block: np.ndarray) -> int | None:
    """Index of the first row of ``block`` that holds a NaN or an infinity."""
    finite = np.isfinite(block).reshape(len(block), -1).all(axis=1)
    return None if finite.all() else int(np.argmin(finite))


def check_vocab_compatibility(p: ModelParams, n_items: int) -> None:
    if p.config.n_items != n_items:
        raise CompatibilityError(
            f"model expects {p.config.n_items} items but the dataset has {n_items}"
        )
