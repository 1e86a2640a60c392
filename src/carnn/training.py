"""Pairwise ranking training.

The objective for one (positive, sampled negative) pair is
ln(1 + e^-(y_pos - y_neg)); gradients flow through the bilinear scoring
path and back through the unrolled recurrence, so every selected input
matrix, transition matrix, and touched embedding row receives its exact
contribution. Updates are per user, on a slice of the split's columns:
one forward pass, one gradient accumulation over all predictable positions,
one SGD step with L2 decay applied lazily to touched parameters only.

The forward pass and the scoring path share one gather of the sequence's
rows of R and of both banks; the forward pass steps its states through one
scratch buffer that ``unroll`` reuses, and the backward sweep and the SGD
step update their buffers in place. Each keeps the bits of its textbook
form. ``train`` refuses, before anything is drawn, a user whose largest
gathered block would not fit in physical memory.
"""

from __future__ import annotations

import math
import time
from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .base import as_flag, as_real, as_whole, pick
from .data import SplitSet, UserSequence
from .errors import ConfigError, NumericalError
from .linalg import MINUS_ONE, ONE, ZERO
from .model import ModelConfig, ModelParams, first_non_finite, physical_memory, project, unroll
from .seeding import named_rng
from .store import write_atomic

if TYPE_CHECKING:  # pragma: no cover
    from .context import ContextScheme


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
        for name in ("learning_rate", "l2"):
            object.__setattr__(self, name, as_real(getattr(self, name), name, 0.0))
        for name in ("epochs", "negatives_per_positive", "seed"):
            object.__setattr__(self, name, as_whole(getattr(self, name), name))
        if self.bptt_window is not None:
            object.__setattr__(self, "bptt_window", as_whole(self.bptt_window, "bptt_window"))
        object.__setattr__(self, "shuffle", as_flag(self.shuffle, "shuffle"))
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.negatives_per_positive < 1:
            raise ConfigError("negatives_per_positive must be >= 1")
        if self.bptt_window is not None and self.bptt_window < 0:
            raise ConfigError("bptt_window must be None or >= 0")


def configs(settings: Mapping, scheme: ContextScheme,
            n_items: int) -> tuple[ModelConfig, TrainConfig]:
    """The model and training configs of ``n_items`` items under ``scheme``,
    with every other value taken from ``settings`` by field name; keys that
    name no field of either are ignored."""
    sizes = dict(n_items=n_items, n_input_contexts=scheme.n_input_contexts,
                 n_transition_bins=scheme.n_transition_bins)
    return (ModelConfig(**pick(ModelConfig, {**settings, **sizes})),
            TrainConfig(**pick(TrainConfig, settings)))


@dataclass
class EpochStats:
    epoch: int
    mean_pair_loss: float
    wall_seconds: float


class GradientBuffer:
    """Dense gradient mirrors of the parameter banks plus touched masks.

    "Touched" is one boolean per embedding row and per bank slot; the SGD
    step decays exactly those groups, so an update never regularizes
    parameters the gradients did not reach.
    """

    def __init__(self, p: ModelParams):
        self.dR = np.zeros_like(p.R)
        self.dM_bank = np.zeros_like(p.M_bank)
        self.dW_bank = np.zeros_like(p.W_bank)
        self.touched_items = np.zeros(len(p.R), dtype=bool)
        self.touched_m = np.zeros(len(p.M_bank), dtype=bool)
        self.touched_w = np.zeros(len(p.W_bank), dtype=bool)

    def clear(self) -> None:
        for grad, touched in ((self.dR, self.touched_items), (self.dM_bank, self.touched_m),
                              (self.dW_bank, self.touched_w)):
            grad[touched.nonzero()[0]] = 0.0
            touched[:] = False


def _pair_gradients(items: np.ndarray, ctxs: np.ndarray, bins: np.ndarray,
                    negatives: np.ndarray, p: ModelParams, cfg: TrainConfig,
                    buf: GradientBuffer) -> float:
    """Accumulate gradients of the summed pair losses of one user's run of
    events into ``buf``: their item, input-context and gap-bin ids.

    ``negatives`` is what ``make_examples`` returns: row j holds the
    negatives scored against the item at position j. Every position is
    scored at once; the gradients of the scoring path and of the recurrence
    are reduced into the banks once, from per-position buffers. A pair whose
    derivative underflows to 0 touches nothing. Returns the summed loss.

    Nothing is checked here: ``train`` checks every training event once,
    before the first epoch, and draws valid negatives; ``backprop_sequence``
    and ``sequence_loss`` check what they are given.
    """
    if not len(items):  # an empty sequence may carry no annotations
        return 0.0
    zeros = np.zeros(len(items), dtype=np.int64)
    m_slots = ctxs if p.config.use_input_contexts else zeros
    w_slots = bins if p.config.use_transition_contexts else zeros
    # column 0 is each position's positive, the others its negatives
    rows = np.concatenate([items[:, None], negatives], axis=1)
    Rr = p.R.take(rows, axis=0)                             # (L, 1+k, d)
    Ms, Ws = p.M_bank.take(m_slots, axis=0), p.W_bank.take(w_slots, axis=0)
    # the forward pass, stepped by unroll from the same gathers
    Hfull = unroll(project(Rr[:, :1], Ms), Ws)
    H = Hfull[:-1]
    Q = np.matmul(H[:, None, :], Ws)                        # (L, 1, d)
    P = np.matmul(Rr, Ms)                                   # (L, 1+k, d)
    y = np.matmul(P, Q.transpose(0, 2, 1))[:, :, 0]
    x = y[:, :1] - y[:, 1:]
    # ln(1 + e^-x) and its derivative -sigmoid(-x), with e = exp(-|x|) <= 1:
    # the numerator is e for x >= 0 and 1 below, max(e, x < 0)
    e = np.exp(np.copysign(x, MINUS_ONE))
    total_loss = float((np.maximum(-x, ZERO) + np.log1p(e)).sum())
    num = np.maximum(e, x < ZERO)
    e += ONE
    g = -num / e
    live = g != ZERO
    # d loss / d score of each row: the positive's sums its pairs' g, a negative's is -g
    coef = np.concatenate([g.sum(axis=1, keepdims=True), -g], axis=1)
    D = np.matmul(coef[:, None, :], P)[:, 0]                # d loss / d q
    dh = np.matmul(D[:, None, :], Ws.transpose(0, 2, 1))[:, 0]

    dZ, stepped = _recurrence_grads(dh, Hfull * (ONE - Hfull), Ws, cfg.bptt_window)

    # position j's scoring and step j share R[item j], M[m_j], W[w_j] and h_j, so
    # d loss / d (r @ M) of each row is its score's derivative times q, plus
    # step j's error for the item it reads; d loss / d (h @ W) is D plus that error
    B = coef[:, :, None] * Q
    B[:, 0] += dZ
    _scatter_add(buf.dR, rows, np.matmul(B, Ms.transpose(0, 2, 1)))
    _scatter_add(buf.dM_bank, m_slots, np.matmul(Rr.transpose(0, 2, 1), B))
    _scatter_add(buf.dW_bank, w_slots, H[:, :, None] * (D + dZ)[:, None, :])

    active = live.any(axis=1) | stepped
    buf.touched_items[items[active]] = True
    buf.touched_items[negatives[live]] = True
    buf.touched_m[m_slots[active]] = True
    buf.touched_w[w_slots[active]] = True
    return total_loss


def _scatter_add(bank: np.ndarray, index: np.ndarray, values: np.ndarray) -> None:
    """``bank[index] += values`` with repeated indices summed in order, as one
    unbuffered add over the flat bank."""
    width = bank[0].size
    flat = (index.reshape(-1, 1) * width + np.arange(width)).ravel()
    np.add.at(bank.reshape(-1), flat, values.ravel())


def _check_inputs(seq: UserSequence, negatives, p: ModelParams) -> tuple[np.ndarray, ...]:
    """The item, input-context and gap-bin ids of ``seq`` and ``negatives``
    as an array; ConfigError unless ``seq`` is empty or annotated with ids
    that ``ModelParams.check_ids`` accepts, and ``negatives`` has one row of
    item ids per position, each in [0, n_items) and not that position's
    positive."""
    items, ctxs, bins, n_items = seq.items, seq.input_ctxs, seq.trans_bins, p.config.n_items
    if len(items):
        if not seq.annotated:
            raise ConfigError("sequence must be annotated with contexts before the forward pass")
        p.check_ids(items, ctxs, bins)
    negatives = np.asarray(negatives)
    if negatives.ndim != 2 or len(negatives) != len(items) or negatives.dtype.kind not in "iu":
        raise ConfigError(f"negatives must be integer ids with one row for each of the "
                          f"{len(items)} positions, got {negatives.dtype} {negatives.shape}")
    bad = (negatives < 0) | (negatives >= n_items)
    if bad.any():
        raise ConfigError(f"negative item {negatives[bad][0]} out of range [0, {n_items})")
    same = (negatives == items[:, None]).any(axis=1)
    if same.any():
        j = int(np.argmax(same))
        raise ConfigError(f"negative item {items[j]} at position {j} equals its positive")
    return items, ctxs, bins, negatives


def _recurrence_grads(dh: np.ndarray, act: np.ndarray, Ws: np.ndarray,
                      window: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Back-propagate the scoring errors ``dh`` on states 0..L-1 through the
    recurrence, where step j maps state j to state j+1, ``act`` is the
    logistic's derivative h * (1 - h) at every state and ``Ws`` the
    transition matrix of every step. ``window`` None is one exact reverse
    sweep; otherwise each position's error is unrolled at most ``window``
    steps, so 0 runs none.

    Returns the (L, d) error on each step's pre-activation and which steps
    the sweep went through: those touch their parameters."""
    # step j sends the error e on state j+1 back to state j as e @ K[j]
    K = act[1:, :, None] * Ws.transpose(0, 2, 1)
    E = np.zeros_like(dh)  # error on the state each step produces
    # row views, so each step adds into its row with no indexing or copy-back
    rows, Ks = list(E), list(K)
    if window is None:
        # state L is never scored, so step L-1 never runs
        E[:-1] = dh[1:]
        back = np.empty(dh.shape[1:])
        for j in range(len(dh) - 3, -1, -1):
            rows[j] += rows[j + 1].dot(Ks[j + 1], out=back)
        stepped = E.any(axis=1)
    else:
        stepped = np.zeros(len(dh), dtype=bool)
        for j in dh.any(axis=1).nonzero()[0].tolist():
            cur, lo = dh[j], max(j - window, 0)
            stepped[lo:j] = True
            for s in range(j - 1, lo - 1, -1):
                rows[s] += cur
                cur = cur.dot(Ks[s])
    return E * act[1:], stepped


def backprop_sequence(seq: UserSequence, negatives: np.ndarray, p: ModelParams,
                      cfg: TrainConfig) -> GradientBuffer:
    """Exact gradient of the summed pair losses (regularizer excluded)."""
    buf = GradientBuffer(p)
    _pair_gradients(*_check_inputs(seq, negatives, p), p, cfg, buf)
    return buf


def sequence_loss(seq: UserSequence, negatives: np.ndarray, p: ModelParams) -> float:
    """Summed pair loss of the given negatives under the current parameters,
    scored by ``_pair_gradients`` itself; its scoring-path gradients go to a
    scratch buffer and nothing is back-propagated."""
    return _pair_gradients(*_check_inputs(seq, negatives, p), p, TrainConfig(bptt_window=0),
                           GradientBuffer(p))


def make_examples(items: np.ndarray, n_items: int, rng: np.random.Generator,
                  negatives_per_positive: int = 1) -> np.ndarray:
    """Fresh uniform negatives for every position of the positives ``items``:
    an int64 (len(items), negatives_per_positive) array from one draw. Each
    is uniform over the items other than its position's positive: a draw
    from [0, n_items - 1) that skips the positive."""
    if n_items < 2:
        raise ConfigError("need at least 2 items to sample a negative")
    draws = rng.integers(0, n_items - 1, size=(len(items), negatives_per_positive))
    return draws + (draws >= items[:, None])


def sgd_step(p: ModelParams, g: GradientBuffer, cfg: TrainConfig) -> ModelParams:
    """theta <- theta - lr * (grad + l2 * theta) over touched groups only.

    Each bank's touched rows are gathered once, updated in the gathered
    copy, checked and written back. A non-finite gradient, or a step that
    overflows a finite one, raises NumericalError naming its first row, and
    leaves that bank and the ones after it untouched."""
    lr = cfg.learning_rate
    l2 = cfg.l2

    def apply(theta, grad, touched, name):
        idx = touched.nonzero()[0]
        block = grad.take(idx, axis=0)
        rows = theta.take(idx, axis=0)
        step = rows * l2
        step += block
        step *= lr
        rows -= step
        # a non-finite gradient leaves its row non-finite too, so one pass
        # screens both; isfinite cannot overflow, as a sum of entries can
        if not np.isfinite(rows).all():
            if (bad := first_non_finite(block)) is not None:
                raise NumericalError(f"non-finite gradient in {name}[{idx[bad]}]")
            bad = first_non_finite(rows)
            raise NumericalError(f"step overflowed {name}[{idx[bad]}] "
                                 f"(learning_rate={lr}, l2={l2})")
        theta[idx] = rows

    # the isfinite screen reports an overflow as NumericalError, so numpy's
    # own RuntimeWarning for it would only repeat the error on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        apply(p.R, g.dR, g.touched_items, "R")
        apply(p.M_bank, g.dM_bank, g.touched_m, "M_bank")
        apply(p.W_bank, g.dW_bank, g.touched_w, "W_bank")
    return p


def train(split: SplitSet, p: ModelParams, cfg: TrainConfig) -> tuple[ModelParams, list[EpochStats]]:
    """SGD over users: per epoch, one pass in (optionally shuffled) order;
    per user, forward the train prefix, accumulate pair gradients over every
    predictable position, take one update step. Returns the trained
    parameters and the per-epoch mean pair loss trace. Every training event's
    ids are checked once, through the mask of ``SplitSet.heldout``. A user's
    largest float64 block, its (n_train, 1 + negatives_per_positive, d)
    scored rows or one of its (n_train, d, d) gathers of a bank, larger than
    physical memory is a ConfigError before anything is drawn."""
    seqs = split.sequences
    if not seqs.annotated:
        raise ConfigError("training requires annotated sequences; run annotation first")
    trained = ~split.heldout()[1]
    p.check_ids(seqs.items[trained], seqs.input_ctxs[trained], seqs.trans_bins[trained])
    starts, n_train = seqs.offsets[:-1].tolist(), split.n_train.tolist()
    longest, k, d = max(n_train, default=0), cfg.negatives_per_positive, p.config.d
    if (n_bytes := 8 * longest * d * max(1 + k, d)) > (memory := physical_memory()):
        raise ConfigError(f"negatives_per_positive={k} takes {n_bytes} bytes for a user's "
                          f"{longest} training events at d={d} (the larger of its scored "
                          f"rows and its d x d gathers), more than the {memory} bytes of "
                          f"physical memory")
    n_items = p.config.n_items
    shuffle_rng = named_rng(cfg.seed, "shuffle")
    neg_rng = named_rng(cfg.seed, "negatives")
    buf = GradientBuffer(p)
    trace: list[EpochStats] = []

    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(len(starts)).tolist() if cfg.shuffle else range(len(starts))
        loss_sum = 0.0
        loss_count = 0
        # huge parameters overflow the forward pass; the loss check and the
        # isfinite screen in sgd_step report that as NumericalError, so
        # numpy's own RuntimeWarning would only repeat it on stderr
        with np.errstate(over="ignore", invalid="ignore"):
            for u in order:
                if n_train[u] < 1:  # nothing to train on
                    continue
                at = slice(starts[u], starts[u] + n_train[u])
                items = seqs.items[at]
                negatives = make_examples(items, n_items, neg_rng, cfg.negatives_per_positive)
                loss = _pair_gradients(items, seqs.input_ctxs[at], seqs.trans_bins[at],
                                       negatives, p, cfg, buf)
                loss_sum += loss
                loss_count += negatives.size
                try:
                    if not math.isfinite(loss):
                        raise NumericalError(f"non-finite pair loss {loss}")
                    sgd_step(p, buf, cfg)
                except NumericalError as exc:
                    user = seqs.user_ids()[u]
                    raise NumericalError(f"epoch {epoch}, user {user!r}: {exc}") from exc
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
                   epsilon: float = 1e-5, negatives=None) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    Negatives are drawn once and reused for every evaluation.
    Relative error per coordinate is |a-b| / max(|a|, |b|, 1e-8). Meant for
    tiny models (every coordinate costs two objective evaluations), and for
    the unlimited-window configuration, whose gradients are exact.
    """
    if negatives is None:
        negatives = make_examples(seq.items, p.config.n_items, named_rng(cfg.seed, "negatives"),
                                  cfg.negatives_per_positive)
    buf = backprop_sequence(seq, negatives, p, cfg)

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
