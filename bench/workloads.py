"""The four workloads. Each one makes its inputs from the seed, then offers
set-up (timed as setup_s), one operation (timed), a cheap check of each
operation's output, and a final check against the references in
oracles.py. Checks run outside the timed regions.

carnn is reached through its module attributes at call time (store.read_cache,
not a name bound at import), so the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import os
import subprocess
import sys

import numpy as np
from click.testing import CliRunner

from carnn import cli, context, data, estimator, model, store, training

from inputs import (MALFORMED_LINES, ml1m_shape_events, movielens_lines,
                    zipf_query_stream, zipf_user_events)
import oracles
from oracles import require

# the package re-exports a function named evaluate, which hides the module
evaluate = importlib.import_module("carnn.evaluate")

CALENDAR = ("day_of_week", "hour_of_day")   # the CLI's and estimator's default
METRIC_TOLERANCE = 1e-12
# train-planted: held-out recall@10 of the trained model must reach this
# multiple of the training-popularity ranking's recall@10.
PLANTED_MULTIPLE = 2.0


class OpFailed(Exception):
    """An operation that ended in an error the program reported."""


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _check_report(report, bounds, label: str) -> int:
    """Compare a MetricsReport with the metrics of the reference ranks.

    ``bounds`` holds one (lowest, highest) rank per query. Queries with a
    near tie may take any rank in their range; the report must then lie
    between the metrics of all-lowest and all-highest ranks. Returns the
    number of queries with a near tie.
    """
    low = oracles.metrics([lo for lo, _ in bounds])
    high = oracles.metrics([hi for _, hi in bounds])
    got = {f"recall@{k}": v for k, v in report.recall_at.items()}
    got.update({f"f1@{k}": v for k, v in report.f1_at.items()})
    got["map"], got["ndcg"] = report.map_score, report.ndcg
    require(report.n_positions == len(bounds),
            f"{label}: {report.n_positions} positions, expected {len(bounds)}")
    require(set(got) == set(low), f"{label}: report keys {sorted(got)}")
    for key, value in got.items():
        lo, hi = sorted((low[key], high[key]))
        require(lo - METRIC_TOLERANCE <= value <= hi + METRIC_TOLERANCE,
                f"{label}: {key}={value!r}, reference {low[key]!r}..{high[key]!r}")
    return sum(1 for lo, hi in bounds if lo != hi)


def _heldout_bounds(R, M_bank, W_bank, sequences, factors):
    """Reference rank bounds at every held-out position, advancing the state
    on the true item. ``sequences`` holds (item indices, timestamps, n_train)."""
    scorer = oracles.Scorer(R, M_bank, W_bank)
    bounds = []
    for items, ts, n_train in sequences:
        ctxs = [oracles.context_id(t, factors) for t in ts]
        bins = oracles.gap_bins(ts)
        h = oracles.final_state(R, M_bank, W_bank, items[:n_train], ctxs[:n_train],
                                bins[:n_train])
        for j in range(n_train, len(items)):
            bounds.append(oracles.rank_bounds(scorer.scores(h, ctxs[j], bins[j]), items[j]))
            h = oracles.step(R, M_bank, W_bank, h, items[j], ctxs[j], bins[j])
    return bounds


def _popularity_ranks(sequences, n_items: int) -> list[int]:
    counts = np.zeros(n_items)
    for items, _, n_train in sequences:
        for v in items[:n_train]:
            counts[v] += 1.0
    return [oracles.rank(counts, v) for items, _, n_train in sequences
            for v in items[n_train:]]


class PrepareML1MShape:
    """`carnn prepare` in-process on a MovieLens-1M-shaped ratings log."""

    name = "prepare-ml1m-shape"
    ops_per_round = 6
    MIN_USER, MIN_ITEM = 10, 3   # the CLI defaults

    def __init__(self, seed: int, quick: bool, workdir: str):
        n_users, total, n_items = (30, 1500, 300) if quick else (120, 12000, 3706)
        self.events = ml1m_shape_events(seed, "ml1m-shape", n_users, total, n_items)
        lines = movielens_lines(seed, self.events)
        self.log = os.path.join(workdir, "ratings.dat")
        with open(self.log, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        self.out = os.path.join(workdir, "prepared")
        self.args = ["prepare", "--dataset", self.log, "--format", "movielens_dat",
                     "--out", self.out, "--seed", str(seed)]
        self.units = len(lines)    # input records, malformed ones included
        self.runner = CliRunner()
        self.cache_digest = None

    def setup(self):
        # the command's start-up: a fresh interpreter importing the CLI
        subprocess.run([sys.executable, "-c",
                        "import sys; sys.path.insert(0, 'src'); import carnn.cli"],
                       check=True)

    def op(self, state, i: int):
        result = self.runner.invoke(cli.cli, self.args)
        if result.exit_code != 0:
            raise OpFailed(f"prepare exited {result.exit_code}: {result.output[-500:]}")
        return result

    def check_op(self, state, i: int, result) -> None:
        with open(os.path.join(self.out, "cache.bin"), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if self.cache_digest is None:
            self.cache_digest = digest
        require(digest == self.cache_digest, "rewriting the cache changed its bytes")

    def finish(self, state) -> float:
        stats = {}
        with open(os.path.join(self.out, "prepare_stats.txt"), encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.strip().partition("=")
                stats[key] = value
        require(stats.get("records_rejected") == str(len(MALFORMED_LINES)),
                f"records_rejected={stats.get('records_rejected')}, "
                f"the log has {len(MALFORMED_LINES)} malformed lines")
        require(stats.get("records_parsed") == str(len(self.events)),
                f"records_parsed={stats.get('records_parsed')}, expected {len(self.events)}")

        users, items, per_user = oracles.expected_sequences(self.events, self.MIN_USER,
                                                            self.MIN_ITEM)
        split = store.read_cache(os.path.join(self.out, "cache.bin"))
        seqs = split.sequences
        require(seqs.user_ids() == users, "user vocabulary differs from first appearance")
        require(seqs.item_ids() == items, "item vocabulary differs from first appearance")
        index = {item: k for k, item in enumerate(items)}
        sequences = []
        for k, seq in enumerate(seqs.sequences):
            expected = per_user[users[k]]
            ts = [t for _, t in expected]
            codes = [index[item] for item, _ in expected]
            require(seq.items.tolist() == codes, f"user {seq.user}: items or their order")
            require(seq.timestamps.tolist() == ts, f"user {seq.user}: timestamps")
            require(seq.input_ctxs.tolist() == [oracles.context_id(t, CALENDAR) for t in ts],
                    f"user {seq.user}: calendar contexts")
            require(seq.trans_bins.tolist() == oracles.gap_bins(ts), f"user {seq.user}: gap bins")
            n_train = oracles.train_length(len(ts))
            require(int(split.n_train[k]) == n_train,
                    f"user {seq.user}: n_train={int(split.n_train[k])}, expected {n_train}")
            sequences.append((codes, ts, n_train))

        ranks = _popularity_ranks(sequences, len(items))
        report = evaluate.pop_baseline(split)
        _check_report(report, [(r, r) for r in ranks], "pop baseline")
        return report.recall_at[10]


class TrainPlanted:
    """`train` of the carnn variant from fresh parameters on a corpus with a
    planted hour-of-day signal."""

    name = "train-planted"
    ops_per_round = 1
    EPOCHS = 2

    def __init__(self, seed: int, quick: bool, workdir: str):
        n_users, n_items, seq_len, n_ctx = (30, 60, 40, 6) if quick else (100, 60, 40, 6)
        seqs, scheme = evaluate.generate_synthetic(n_users, n_items, seq_len, n_ctx,
                                                   signal="input_ctx", seed=seed)
        split = data.split_sequences(seqs, 0.8)
        self.cache = os.path.join(workdir, "planted.casq")
        store.write_cache(self.cache, split)
        self.config = model.ModelConfig(d=10, n_items=n_items,
                                        n_input_contexts=scheme.n_input_contexts,
                                        n_transition_bins=scheme.n_transition_bins, seed=seed)
        # lr=0.05 recovers the signal in two epochs; lr=0.2 diverges
        self.train_config = training.TrainConfig(learning_rate=0.05, l2=0.01,
                                                 epochs=self.EPOCHS, seed=seed)
        self.sequences = [(s.items.tolist(), s.timestamps.tolist(), oracles.train_length(len(s)))
                          for s in seqs.sequences]
        self.units = sum(n for _, _, n in self.sequences) * self.EPOCHS
        self.n_items = n_items
        self.params_digest = None

    def setup(self):
        return store.read_cache(self.cache)

    def op(self, split, i: int):
        return training.train(split, model.init_params(self.config), self.train_config)

    def check_op(self, split, i: int, result) -> None:
        params, trace = result
        arrays = (params.R, params.M_bank, params.W_bank)
        require(all(np.all(np.isfinite(a)) for a in arrays), "non-finite parameters")
        losses = [row.mean_pair_loss for row in trace]
        require(len(losses) == self.EPOCHS and all(math.isfinite(x) for x in losses),
                f"loss trace {losses}")
        require(losses[-1] < math.log(2.0), f"final epoch loss {losses[-1]} is not below ln 2")
        digest = _digest(*arrays)
        if self.params_digest is None:
            self.params_digest, self.params = digest, params
        require(digest == self.params_digest, "training the same inputs gave other parameters")

    def finish(self, split) -> float:
        p = self.params
        bounds = _heldout_bounds(p.R, p.M_bank, p.W_bank, self.sequences, ("hour_of_day",))
        self.near_ties = sum(1 for lo, hi in bounds if lo != hi)
        # a near tie counts at its worst rank, so the gate cannot pass on one
        recall = oracles.metrics([hi for _, hi in bounds])["recall@10"]
        popular = oracles.metrics(_popularity_ranks(self.sequences, self.n_items))["recall@10"]
        require(recall >= PLANTED_MULTIPLE * popular,
                f"planted recall@10 {recall:.4f} is below {PLANTED_MULTIPLE} x "
                f"popularity {popular:.4f}")
        return recall


class EvalFullVocab:
    """`evaluate` over every held-out position of a MovieLens-1M-shaped
    corpus, ranking the full item vocabulary."""

    name = "eval-fullvocab"
    ops_per_round = 1

    def __init__(self, seed: int, quick: bool, workdir: str):
        n_users, total, n_items = (20, 600, 300) if quick else (150, 12000, 3706)
        events = ml1m_shape_events(seed, "eval-corpus", n_users, total, n_items)
        log = data.InteractionLog([data.Interaction(u, i, t) for u, i, t in events])
        seqs = context.annotate_sequences(data.build_sequences(log, 10, 3),
                                          context.ContextScheme(factors=CALENDAR))
        split = data.split_sequences(seqs, 0.8)
        self.cache = os.path.join(workdir, "eval.casq")
        self.model_file = os.path.join(workdir, "eval.carn")
        store.write_cache(self.cache, split)
        config = model.ModelConfig(d=10, n_items=seqs.n_items,
                                   n_input_contexts=seqs.scheme.n_input_contexts,
                                   n_transition_bins=seqs.scheme.n_transition_bins, seed=seed)
        # a short fixed training that learns at least item popularity
        self.params, _ = training.train(split, model.init_params(config),
                                        training.TrainConfig(learning_rate=0.1, epochs=3,
                                                             seed=seed))
        model.save_params(self.params, self.model_file)
        users, items, per_user = oracles.expected_sequences(events, 10, 3)
        index = {item: k for k, item in enumerate(items)}
        self.sequences = [([index[i] for i, _ in per_user[u]], [t for _, t in per_user[u]],
                           oracles.train_length(len(per_user[u]))) for u in users]
        self.units = sum(len(s[0]) - s[2] for s in self.sequences)
        self.seed = seed
        self.first = None

    def setup(self):
        return store.read_cache(self.cache), model.load_params(self.model_file, seed=self.seed)

    def op(self, state, i: int):
        split, params = state
        return evaluate.evaluate(split, params)

    def check_op(self, state, i: int, report) -> None:
        if self.first is None:
            self.first = report
        require(report == self.first, "evaluating the same model twice gave other metrics")

    def finish(self, state) -> float:
        split, params = state
        p = self.params
        require(_digest(params.R, params.M_bank, params.W_bank)
                == _digest(p.R, p.M_bank, p.W_bank), "the loaded model differs from the one saved")
        bounds = _heldout_bounds(p.R, p.M_bank, p.W_bank, self.sequences, CALENDAR)
        self.near_ties = _check_report(self.first, bounds, "evaluate")

        # every rank, as the program's own ranking function returns it
        ranks = []
        original = getattr(evaluate, "rank_target", None)

        def recording(scores, target):
            ranks.append(original(scores, target))
            return ranks[-1]

        if original is not None:
            evaluate.rank_target = recording
            try:
                evaluate.evaluate(split, params)
            finally:
                evaluate.rank_target = original
        if not ranks:
            print("per-rank check skipped: evaluate does not call rank_target; "
                  "the report is still checked", file=sys.stderr)
        require(len(ranks) in (0, len(bounds)),
                f"{len(ranks)} ranks for {len(bounds)} positions")
        for k, (r, (lo, hi)) in enumerate(zip(ranks, bounds)):
            require(lo <= r <= hi, f"held-out query {k}: rank {r}, reference {lo}..{hi}")
        return self.first.recall_at[10]


class RecommendZipf:
    """`CARNNRecommender.recommend(user, t, n=10)` over a fixed stream of
    queries from Zipf-popular users; the estimator is fitted in set-up."""

    name = "recommend-zipf"
    HELD_OUT = 10       # last events of each user, kept out of the fit
    CHECK_EVERY = 25    # queries between two reference top-10 checks

    def __init__(self, seed: int, quick: bool, workdir: str):
        n_users, n_items, lo, hi, n_queries = ((20, 100, 15, 25, 1000) if quick
                                               else (300, 1000, 20, 40, 5000))
        per_user = zipf_user_events(seed, n_users, n_items, lo, hi)
        self.history = {u: evs[:-self.HELD_OUT] for u, evs in per_user.items()}
        self.fit_rows = [(u, i, t) for u, evs in self.history.items() for i, t in evs]
        self.held_out = [(u, i, t) for u, evs in per_user.items()
                         for i, t in evs[-self.HELD_OUT:]]
        self.queries = zipf_query_stream(seed, {u: evs[-1][1] for u, evs in
                                                self.history.items()}, n_queries)
        self.ops_per_round = n_queries
        self.units = 1
        self.estimator_params = dict(d=10, learning_rate=0.1, epochs=3, min_user=2,
                                     min_item=1, seed=seed)
        self.params_digest = None
        self.states: dict[str, np.ndarray] = {}

    def setup(self):
        return estimator.CARNNRecommender(**self.estimator_params).fit(self.fit_rows)

    def op(self, est, i: int):
        user, t = self.queries[i]
        return est.recommend(user, t, n=10)

    def _reference_check(self, est, user: str, t: int, got) -> None:
        p = est.params_
        if self.params_digest is None:
            self.params_digest = _digest(p.R, p.M_bank, p.W_bank)
            self.scorer = oracles.Scorer(p.R, p.M_bank, p.W_bank)
            self.item_ids = list(est.item_ids_)
            self.index = {item: k for k, item in enumerate(self.item_ids)}
            self.near_ties = 0
        h = self.states.get(user)
        history = self.history[user]
        if h is None:
            ts = [t0 for _, t0 in history]
            h = self.states[user] = oracles.final_state(
                p.R, p.M_bank, p.W_bank, [self.index[i] for i, _ in history],
                [oracles.context_id(t0, CALENDAR) for t0 in ts], oracles.gap_bins(ts))
        gap = min((t - history[-1][1]) // oracles.SECONDS_PER_DAY, oracles.MAX_GAP_DAYS)
        scores = self.scorer.scores(h, oracles.context_id(t, CALENDAR), gap)
        if not oracles.top_n_is_clear(scores, 10):
            self.near_ties += 1
            return
        expected = [self.item_ids[k] for k in oracles.top_n(scores, 10)]
        require([item for item, _ in got] == expected,
                f"recommend({user}, {t}): {[item for item, _ in got]}, reference {expected}")
        scale = max(1.0, float(np.max(np.abs(scores))))
        for item, value in got:
            require(abs(value - scores[self.index[item]]) <= oracles.NEAR_TIE_GAP * scale,
                    f"recommend({user}, {t}): score of {item} is {value}")

    def check_op(self, est, i: int, got) -> None:
        if i == 0:
            p = est.params_
            require(self.params_digest in (None, _digest(p.R, p.M_bank, p.W_bank)),
                    "fitting the same rows gave other parameters")
        if i % self.CHECK_EVERY == 0:
            self._reference_check(est, *self.queries[i], got)

    def finish(self, est) -> float:
        hits = 0
        for user, item, t in self.held_out:
            got = est.recommend(user, t, n=10)
            self._reference_check(est, user, t, got)
            hits += any(i == item for i, _ in got)
        return hits / len(self.held_out)


WORKLOADS = {w.name: w for w in (PrepareML1MShape, TrainPlanted, EvalFullVocab, RecommendZipf)}
