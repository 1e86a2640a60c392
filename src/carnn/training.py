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
from .model import ModelParams, activation_grad, forward_states
from .seeding import named_rng


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


@dataclass(frozen=True)
class TrainingExample:
    """One ranking pair: predict step ``position`` (0-based) of a sequence."""

    position: int
    pos_item: int
    neg_item: int
    input_ctx: int
    trans_bin: int

    def __post_init__(self):
        if self.pos_item == self.neg_item:
            raise ConfigError("negative item must differ from the positive")


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
    L = len(seq)
    cfg = p.config
    m_slots = seq.input_ctxs.tolist() if cfg.use_input_contexts else [0] * L
    w_slots = seq.trans_bins.tolist() if cfg.use_transition_contexts else [0] * L
    return H, seq.items.tolist(), m_slots, w_slots


def _pair_gradients(fwd, examples, p: ModelParams, cfg: TrainConfig,
                    buf: GradientBuffer) -> float:
    """Accumulate gradients of the summed pair losses into ``buf``.

    ``fwd`` is what ``_forward`` returns. Returns the summed loss.
    """
    R, M, W = p.R, p.M_bank, p.W_bank
    Hfull, _, _, w_slots = fwd
    L = len(Hfull) - 1
    dh = np.zeros_like(Hfull)
    total_loss = 0.0

    for ex in examples:
        j = ex.position
        if not (0 <= j < L):
            raise ConfigError(f"example position {j} outside the sequence (length {L})")
        ms = p.input_slot(ex.input_ctx)
        ws = p.trans_slot(ex.trans_bin)
        Msc = M[ms]
        Wsc = W[ws]
        h = Hfull[j]
        r_pos = R[ex.pos_item]
        r_neg = R[ex.neg_item]
        q = h @ Wsc
        p_pos = r_pos @ Msc
        p_neg = r_neg @ Msc
        y_pos = float(q @ p_pos)
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
        buf.dR[ex.pos_item] += u
        buf.dR[ex.neg_item] -= u
        buf.touched_items.add(int(ex.pos_item))
        buf.touched_items.add(int(ex.neg_item))

        diff = p_pos - p_neg
        buf.dW_bank[ws] += np.outer(h, g * diff)
        buf.touched_w.add(ws)
        buf.dM_bank[ms] += np.outer(g * (r_pos - r_neg), q)
        buf.touched_m.add(ms)
        dh[j] += g * (diff @ Wsc.T)

    if cfg.bptt_window is None:
        # single reverse sweep: each dh[j] already carries all downstream error
        act = activation_grad(Hfull, p.config)
        for j in range(L - 1, -1, -1):
            if not dh[j + 1].any():
                continue
            dz = dh[j + 1] * act[j + 1]
            _recurrence_grads(fwd, j, dz, p, buf)
            dh[j] += dz @ W[w_slots[j]].T
    elif cfg.bptt_window > 0:
        # truncated: unroll each position's error at most bptt_window steps
        act = activation_grad(Hfull, p.config)
        for j in range(L):
            cur = dh[j]
            if not cur.any():
                continue
            steps = 0
            for s in range(j - 1, -1, -1):
                if steps >= cfg.bptt_window:
                    break
                dz = cur * act[s + 1]
                _recurrence_grads(fwd, s, dz, p, buf)
                cur = dz @ W[w_slots[s]].T
                steps += 1
    # bptt_window == 0: scoring-path gradients only
    return total_loss


def _recurrence_grads(fwd, j: int, dz: np.ndarray, p: ModelParams,
                      buf: GradientBuffer) -> None:
    Hfull, items, m_slots, w_slots = fwd
    v = items[j]
    ms = m_slots[j]
    ws = w_slots[j]
    buf.dR[v] += dz @ p.M_bank[ms].T
    buf.dM_bank[ms] += np.outer(p.R[v], dz)
    buf.dW_bank[ws] += np.outer(Hfull[j], dz)
    buf.touched_items.add(v)
    buf.touched_m.add(ms)
    buf.touched_w.add(ws)


def backprop_sequence(seq: UserSequence, examples, p: ModelParams,
                      cfg: TrainConfig) -> GradientBuffer:
    """Exact gradient of the summed pair losses (regularizer excluded)."""
    buf = GradientBuffer(p)
    _pair_gradients(_forward(seq, p), examples, p, cfg, buf)
    return buf


def sequence_loss(seq: UserSequence, examples, p: ModelParams) -> float:
    """Summed pair loss of the given examples under the current parameters,
    scored by ``_pair_gradients`` itself; its scoring-path gradients go to a
    scratch buffer and nothing is back-propagated."""
    return _pair_gradients(_forward(seq, p), examples, p, TrainConfig(bptt_window=0),
                           GradientBuffer(p))


def make_examples(seq: UserSequence, n_items: int, rng: np.random.Generator,
                  negatives_per_positive: int = 1) -> list[TrainingExample]:
    """One example per predictable position (times the negative multiplicity),
    with fresh uniform negatives."""
    examples = []
    for j in range(len(seq)):
        for _ in range(negatives_per_positive):
            neg = sample_negative(rng, int(seq.items[j]), n_items)
            examples.append(TrainingExample(
                position=j,
                pos_item=int(seq.items[j]),
                neg_item=neg,
                input_ctx=int(seq.input_ctxs[j]),
                trans_bin=int(seq.trans_bins[j]),
            ))
    return examples


def sgd_step(p: ModelParams, g: GradientBuffer, cfg: TrainConfig) -> ModelParams:
    """theta <- theta - lr * (grad + l2 * theta) over touched groups only."""
    lr = cfg.learning_rate
    l2 = cfg.l2

    def apply(theta, grad, touched, name):
        if not touched:
            return
        idx = sorted(touched)
        block = grad[idx]
        finite = np.isfinite(block).reshape(len(idx), -1).all(axis=1)
        if not finite.all():
            bad = idx[int(np.argmin(finite))]
            raise NumericalError(f"non-finite gradient in {name}[{bad}]")
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
            examples = make_examples(view, n_items, neg_rng, cfg.negatives_per_positive)
            loss_sum += _pair_gradients(_forward(view, p), examples, p, cfg, buf)
            loss_count += len(examples)
            try:
                sgd_step(p, buf, cfg)
            except NumericalError as exc:
                raise NumericalError(f"epoch {epoch}, user {view.user!r}: {exc}") from exc
            buf.clear()
        mean_loss = loss_sum / loss_count if loss_count else float("nan")
        trace.append(EpochStats(epoch, mean_loss, time.perf_counter() - t0))
    return p, trace


def write_loss_trace(trace: list[EpochStats], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,mean_pair_loss,wall_seconds\n")
        for row in trace:
            fh.write(f"{row.epoch},{row.mean_pair_loss!r},{row.wall_seconds:.3f}\n")


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
                   epsilon: float = 1e-5, examples=None, perturb=None) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    Negatives are frozen into one example list reused for every evaluation.
    Relative error per coordinate is |a-b| / max(|a|, |b|, 1e-8). Meant for
    tiny models (every coordinate costs two objective evaluations), and for
    the unlimited-window configuration, whose gradients are exact.
    """
    if examples is None:
        rng = named_rng(cfg.seed, "negatives")
        examples = make_examples(seq, p.config.n_items, rng, cfg.negatives_per_positive)
    buf = backprop_sequence(seq, examples, p, cfg)
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
            j_plus = sequence_loss(seq, examples, p)
            flat_theta[i] = orig - epsilon
            j_minus = sequence_loss(seq, examples, p)
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
