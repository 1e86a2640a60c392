"""Pairwise ranking training.

The objective for one (positive, sampled negative) pair is
ln(1 + e^-(y_pos - y_neg)); gradients flow through the bilinear scoring
path and back through the unrolled recurrence, so every selected input
matrix, transition matrix, and touched embedding row receives its exact
contribution. Updates are per user sequence: one forward pass, one
gradient accumulation over all predictable positions, one SGD step with
L2 decay applied lazily to touched parameters only.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .data import SplitSet, UserSequence
from .errors import ConfigError, NumericalError
from .model import ModelParams, activation_grad, first_non_finite, forward_states
from .seeding import named_rng
from .store import write_atomic


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    l2: float = 0.01
    epochs: int = 10
    negatives_per_positive: int = 1
    bptt_window: int | None = None  # None = unlimited
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be >= 0")
        if self.l2 < 0:
            raise ConfigError("l2 must be >= 0")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.negatives_per_positive < 1:
            raise ConfigError("negatives_per_positive must be >= 1")
        if self.bptt_window is not None and self.bptt_window < 0:
            raise ConfigError("bptt_window must be None or >= 0")


@dataclass
class EpochStats:
    epoch: int
    mean_pair_loss: float
    wall_seconds: float


def bpr_pair_loss(y_pos: float, y_neg: float) -> float:
    """ln(1 + e^-(y_pos - y_neg)), safe against overflow for large margins."""
    x = y_pos - y_neg
    if x >= 0.0:
        return math.log1p(math.exp(-x))
    return -x + math.log1p(math.exp(x))


def sample_negative(rng: np.random.Generator, positive: int, n_items: int) -> int:
    """Uniform draw over all items except the positive one."""
    if n_items < 2:
        raise ConfigError("need at least 2 items to sample a negative")
    j = int(rng.integers(0, n_items - 1))
    return j + 1 if j >= positive else j


class GradientBuffer:
    """Dense gradient mirrors of the parameter banks plus touched-group sets.

    "Touched" is tracked per embedding row and per bank slot; the SGD step
    decays exactly those groups, so an update never regularizes parameters
    the gradients did not reach.
    """

    def __init__(self, p: ModelParams):
        self.dR = np.zeros_like(p.R)
        self.dM_bank = np.zeros_like(p.M_bank)
        self.dW_bank = np.zeros_like(p.W_bank)
        self.touched_items: set[int] = set()
        self.touched_m: set[int] = set()
        self.touched_w: set[int] = set()

    def clear(self) -> None:
        for grad, touched in ((self.dR, self.touched_items), (self.dM_bank, self.touched_m),
                              (self.dW_bank, self.touched_w)):
            if touched:
                grad[sorted(touched)] = 0.0
                touched.clear()


def _forward(seq: UserSequence, p: ModelParams):
    """``forward_states`` of a training view, plus the item, M slot and W slot
    of every step, which the backward pass indexes."""
    H = forward_states(seq, p)
    zeros = [0] * len(seq)
    m_slots = seq.input_ctxs.tolist() if p.config.use_input_contexts else zeros
    w_slots = seq.trans_bins.tolist() if p.config.use_transition_contexts else zeros
    return H, seq.items.tolist(), m_slots, w_slots


def _pair_gradients(fwd, negatives: np.ndarray, p: ModelParams, cfg: TrainConfig,
                    buf: GradientBuffer) -> float:
    """Accumulate gradients of the summed pair losses into ``buf``.

    ``fwd`` is what ``_forward`` returns and ``negatives`` what
    ``make_examples`` returns: row j holds the negatives scored against the
    item at position j. Returns the summed loss.
    """
    R, M, W = p.R, p.M_bank, p.W_bank
    Hfull, items, m_slots, w_slots = fwd
    negatives = _check_negatives(negatives, items, p.config.n_items)
    dh = np.zeros_like(Hfull)
    total_loss = 0.0

    for j, negs in enumerate(negatives.tolist()):
        pos, ms, ws = items[j], m_slots[j], w_slots[j]
        Msc, Wsc, h, r_pos = M[ms], W[ws], Hfull[j], R[pos]
        q = h @ Wsc
        p_pos = r_pos @ Msc
        y_pos = float(q @ p_pos)
        for neg in negs:
            r_neg = R[neg]
            p_neg = r_neg @ Msc
            y_neg = float(q @ p_neg)
            total_loss += bpr_pair_loss(y_pos, y_neg)

            x = y_pos - y_neg
            # d loss / d y_pos = -sigmoid(-x); keep exp() arguments non-positive
            if x >= 0.0:
                e = math.exp(-x)
                g = -e / (1.0 + e)
            else:
                g = -1.0 / (1.0 + math.exp(x))
            if g == 0.0:
                continue

            u = g * (q @ Msc.T)
            buf.dR[pos] += u
            buf.dR[neg] -= u
            buf.touched_items.add(pos)
            buf.touched_items.add(neg)

            diff = p_pos - p_neg
            buf.dW_bank[ws] += np.outer(h, g * diff)
            buf.touched_w.add(ws)
            buf.dM_bank[ms] += np.outer(g * (r_pos - r_neg), q)
            buf.touched_m.add(ms)
            dh[j] += g * (diff @ Wsc.T)

    if cfg.bptt_window == 0:
        return total_loss  # scoring-path gradients only
    act = activation_grad(Hfull, p.config)
    if cfg.bptt_window is None:
        # single reverse sweep: each dh[j] already carries all downstream error
        for j in range(len(items) - 1, -1, -1):
            if dh[j + 1].any():
                dh[j] += _recurrence_grads(fwd, act, j, dh[j + 1], p, buf)
    else:
        # truncated: unroll each position's error at most bptt_window steps
        for j in range(len(items)):
            cur = dh[j]
            if cur.any():
                for s in range(j - 1, max(j - 1 - cfg.bptt_window, -1), -1):
                    cur = _recurrence_grads(fwd, act, s, cur, p, buf)
    return total_loss


def _check_negatives(negatives, items: list[int], n_items: int) -> np.ndarray:
    """``negatives`` as an array; ConfigError unless it has one row of item ids
    per position, each in [0, n_items) and not that position's positive."""
    negatives = np.asarray(negatives)
    if negatives.ndim != 2 or len(negatives) != len(items) or negatives.dtype.kind not in "iu":
        raise ConfigError(f"negatives must be integer ids with one row for each of the "
                          f"{len(items)} positions, got {negatives.dtype} {negatives.shape}")
    bad = (negatives < 0) | (negatives >= n_items)
    if bad.any():
        raise ConfigError(f"negative item {negatives[bad][0]} out of range [0, {n_items})")
    same = (negatives == np.asarray(items, dtype=np.int64)[:, None]).any(axis=1)
    if same.any():
        j = int(np.argmax(same))
        raise ConfigError(f"negative item {items[j]} at position {j} equals its positive")
    return negatives


def _recurrence_grads(fwd, act: np.ndarray, j: int, dh_next: np.ndarray, p: ModelParams,
                      buf: GradientBuffer) -> np.ndarray:
    """One backward step through step j: accumulate the gradients of the
    error ``dh_next`` on state j+1 into ``buf`` and return the error it
    sends to state j. ``act`` is ``activation_grad`` of every state."""
    Hfull, items, m_slots, w_slots = fwd
    dz = dh_next * act[j + 1]
    v, ms, ws = items[j], m_slots[j], w_slots[j]
    buf.dR[v] += dz @ p.M_bank[ms].T
    buf.dM_bank[ms] += np.outer(p.R[v], dz)
    buf.dW_bank[ws] += np.outer(Hfull[j], dz)
    buf.touched_items.add(v)
    buf.touched_m.add(ms)
    buf.touched_w.add(ws)
    return dz @ p.W_bank[ws].T


def backprop_sequence(seq: UserSequence, negatives: np.ndarray, p: ModelParams,
                      cfg: TrainConfig) -> GradientBuffer:
    """Exact gradient of the summed pair losses (regularizer excluded)."""
    buf = GradientBuffer(p)
    _pair_gradients(_forward(seq, p), negatives, p, cfg, buf)
    return buf


def sequence_loss(seq: UserSequence, negatives: np.ndarray, p: ModelParams) -> float:
    """Summed pair loss of the given negatives under the current parameters,
    scored by ``_pair_gradients`` itself; its scoring-path gradients go to a
    scratch buffer and nothing is back-propagated."""
    return _pair_gradients(_forward(seq, p), negatives, p, TrainConfig(bptt_window=0),
                           GradientBuffer(p))


def make_examples(seq: UserSequence, n_items: int, rng: np.random.Generator,
                  negatives_per_positive: int = 1) -> np.ndarray:
    """Fresh uniform negatives for every predictable position: an int64
    (len(seq), negatives_per_positive) array, drawn position by position."""
    rows = [[sample_negative(rng, pos, n_items) for _ in range(negatives_per_positive)]
            for pos in seq.items.tolist()]
    return np.array(rows, dtype=np.int64).reshape(len(seq), negatives_per_positive)


def sgd_step(p: ModelParams, g: GradientBuffer, cfg: TrainConfig) -> ModelParams:
    """theta <- theta - lr * (grad + l2 * theta) over touched groups only."""
    lr = cfg.learning_rate
    l2 = cfg.l2

    def apply(theta, grad, touched, name):
        if not touched:
            return
        idx = sorted(touched)
        block = grad[idx]
        if (bad := first_non_finite(block)) is not None:
            raise NumericalError(f"non-finite gradient in {name}[{idx[bad]}]")
        theta[idx] -= lr * (block + l2 * theta[idx])

    apply(p.R, g.dR, g.touched_items, "R")
    apply(p.M_bank, g.dM_bank, g.touched_m, "M_bank")
    apply(p.W_bank, g.dW_bank, g.touched_w, "W_bank")
    return p


def _train_view(seq: UserSequence, n: int) -> UserSequence:
    return UserSequence(seq.user, seq.items[:n], seq.timestamps[:n],
                        seq.input_ctxs[:n], seq.trans_bins[:n])


def train(split: SplitSet, p: ModelParams, cfg: TrainConfig) -> tuple[ModelParams, list[EpochStats]]:
    """SGD over users: per epoch, one pass in (optionally shuffled) order;
    per user, forward the train prefix, accumulate pair gradients over every
    predictable position, take one update step. Returns the trained
    parameters and the per-epoch mean pair loss trace."""
    seqs = split.sequences.sequences
    if not all(s.annotated for s in seqs):
        raise ConfigError("training requires annotated sequences; run annotation first")
    n_items = p.config.n_items
    shuffle_rng = named_rng(cfg.seed, "shuffle")
    neg_rng = named_rng(cfg.seed, "negatives")
    buf = GradientBuffer(p)
    trace: list[EpochStats] = []

    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(len(seqs)) if cfg.shuffle else np.arange(len(seqs))
        loss_sum = 0.0
        loss_count = 0
        for si in order:
            n_tr = int(split.n_train[si])
            if n_tr < 1:
                continue
            view = _train_view(seqs[si], n_tr)
            negatives = make_examples(view, n_items, neg_rng, cfg.negatives_per_positive)
            loss_sum += _pair_gradients(_forward(view, p), negatives, p, cfg, buf)
            loss_count += negatives.size
            try:
                sgd_step(p, buf, cfg)
            except NumericalError as exc:
                raise NumericalError(f"epoch {epoch}, user {view.user!r}: {exc}") from exc
            buf.clear()
        mean_loss = loss_sum / loss_count if loss_count else float("nan")
        trace.append(EpochStats(epoch, mean_loss, time.perf_counter() - t0))
    return p, trace


def write_loss_trace(trace: list[EpochStats], path: str) -> None:
    rows = [f"{row.epoch},{row.mean_pair_loss!r},{row.wall_seconds:.3f}\n" for row in trace]
    write_atomic(path, "epoch,mean_pair_loss,wall_seconds\n" + "".join(rows), "loss trace")


@dataclass
class GradCheckReport:
    max_rel_error: float
    mean_rel_error: float
    worst_bank: str
    worst_index: tuple
    epsilon: float
    n_coordinates: int

    def passed(self, tolerance: float = 1e-4) -> bool:
        return self.max_rel_error < tolerance


def gradient_check(p: ModelParams, seq: UserSequence, cfg: TrainConfig,
                   epsilon: float = 1e-5, negatives=None, perturb=None) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    Negatives are drawn once and reused for every evaluation.
    Relative error per coordinate is |a-b| / max(|a|, |b|, 1e-8). Meant for
    tiny models (every coordinate costs two objective evaluations), and for
    the unlimited-window configuration, whose gradients are exact.
    """
    if negatives is None:
        negatives = make_examples(seq, p.config.n_items, named_rng(cfg.seed, "negatives"),
                                  cfg.negatives_per_positive)
    buf = backprop_sequence(seq, negatives, p, cfg)
    if perturb is not None:
        perturb(buf)

    banks = [("R", p.R, buf.dR), ("M_bank", p.M_bank, buf.dM_bank),
             ("W_bank", p.W_bank, buf.dW_bank)]

    max_rel = 0.0
    rel_sum = 0.0
    n = 0
    worst_bank = ""
    worst_index: tuple = ()
    for name, theta, grad in banks:
        flat_theta = theta.reshape(-1)
        flat_grad = grad.reshape(-1)
        for i in range(flat_theta.shape[0]):
            orig = flat_theta[i]
            flat_theta[i] = orig + epsilon
            j_plus = sequence_loss(seq, negatives, p)
            flat_theta[i] = orig - epsilon
            j_minus = sequence_loss(seq, negatives, p)
            flat_theta[i] = orig
            fd = (j_plus - j_minus) / (2.0 * epsilon)
            an = flat_grad[i]
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
            rel_sum += rel
            n += 1
            if rel > max_rel:
                max_rel = rel
                worst_bank = name
                worst_index = tuple(int(x) for x in np.unravel_index(i, theta.shape))
    return GradCheckReport(max_rel, rel_sum / n if n else 0.0, worst_bank,
                           worst_index, epsilon, n)
