"""Scikit-learn-style front end.

``CARNNRecommender`` wraps the functional pipeline (sequence building,
context annotation, pairwise-ranking training, context-aware scoring)
behind fit/predict so it composes with the wider estimator ecosystem:
constructor arguments are stored verbatim, fitted state lives on
trailing-underscore attributes, and get_params/set_params follow the
sklearn contract.
"""

from __future__ import annotations

import numpy as np

from .base import (ParamsMixin, as_interactions, as_query_rows, as_timestamp, as_whole,
                   check_is_fitted, pick)
from .context import ContextScheme, annotate_sequences, input_context, transition_bin
from .data import InteractionLog, build_sequences, full_train_split
from .errors import ConfigError, DataError
from .model import init_params, score_all, states_at, top_n
from .training import configs, train


def query_context(timestamp, last_t: int | None, scheme: ContextScheme) -> tuple[int, int]:
    """Input context and gap bin of a query at ``timestamp`` after a last
    event at ``last_t``, or the start bin if ``last_t`` is None; shared by
    the estimator and ``carnn predict``.

    Raises ConfigError unless ``base.as_timestamp`` accepts the timestamp,
    as parsed logs and ``fit`` do, and DataError if it precedes ``last_t``.
    """
    timestamp = as_timestamp(timestamp)
    return input_context(timestamp, scheme), transition_bin(timestamp, last_t, scheme)


class CARNNRecommender(ParamsMixin):
    """Next-item recommender with context-selected input/transition matrices.

    Parameters mirror the underlying model and training configurations and
    the context scheme, under their field names (``context_factors`` is the
    scheme's ``factors``); ``fit`` builds each from ``get_params()``.
    ``X`` for :meth:`fit` is an (n, 3) array-like of (user, item, timestamp)
    rows; all given events are used for fitting (hold-out protocols live in
    the evaluation utilities, not here).
    """

    def __init__(self, d=10, learning_rate=0.01, l2=0.01, epochs=10,
                 negatives_per_positive=1, bptt_window=None,
                 use_input_contexts=True, use_transition_contexts=True,
                 context_factors=("day_of_week", "hour_of_day"),
                 holiday_dates=(), max_interval_days=30,
                 timezone_offset_seconds=0, min_user=2, min_item=1,
                 init_scale=0.1, shuffle=True, seed=0):
        self.d = d
        self.learning_rate = learning_rate
        self.l2 = l2
        self.epochs = epochs
        self.negatives_per_positive = negatives_per_positive
        self.bptt_window = bptt_window
        self.use_input_contexts = use_input_contexts
        self.use_transition_contexts = use_transition_contexts
        self.context_factors = context_factors
        self.holiday_dates = holiday_dates
        self.max_interval_days = max_interval_days
        self.timezone_offset_seconds = timezone_offset_seconds
        self.min_user = min_user
        self.min_item = min_item
        self.init_scale = init_scale
        self.shuffle = shuffle
        self.seed = seed

    # -- fitting ---------------------------------------------------------

    def fit(self, X, y=None):
        interactions = as_interactions(X)
        settings = self.get_params()
        scheme = ContextScheme(**pick(ContextScheme, settings), factors=self.context_factors)
        seqs = build_sequences(InteractionLog(interactions), self.min_user, self.min_item)
        seqs = annotate_sequences(seqs, scheme)
        config, tcfg = configs(settings, scheme, seqs.n_items)
        params, trace = train(full_train_split(seqs), init_params(config), tcfg)
        self.scheme_ = scheme
        self.sequences_ = seqs
        self.params_ = params
        self.item_ids_ = seqs.item_ids()
        self.n_items_ = seqs.n_items
        self.loss_trace_ = trace
        self._state_table: np.ndarray | None = None  # built by the first query
        return self

    # -- inference ---------------------------------------------------------

    def _user_state(self, user: str) -> tuple[np.ndarray, int]:
        """Hidden state after the user's fitted history, plus their last timestamp.

        The first call after ``fit`` replays every fitted user in lockstep
        into a (users, d) state table; later calls index it.
        """
        idx = self.sequences_.user_vocab.get(user)
        if idx is None:
            raise DataError(f"unknown user {user!r}")
        seqs = self.sequences_
        if self._state_table is None:
            self._state_table = states_at(seqs, seqs.lengths[:, None], self.params_)
        return self._state_table[idx], seqs.timestamps.item(seqs.offsets.item(idx + 1) - 1)

    def _scores_for(self, user: str, timestamp) -> np.ndarray:
        h, last_t = self._user_state(user)
        return score_all(h[None], *query_context(timestamp, last_t, self.scheme_),
                         self.params_)[0]

    def predict_scores(self, X) -> np.ndarray:
        """Score every item for each (user, timestamp) query row."""
        check_is_fitted(self, "params_")
        rows = as_query_rows(X)
        out = np.empty((len(rows), self.n_items_), dtype=np.float64)
        for i, (user, ts) in enumerate(rows):
            out[i] = self._scores_for(user, ts)
        return out

    def predict(self, X) -> np.ndarray:
        """Most likely next item id for each (user, timestamp) query row: the
        item ``recommend(user, timestamp, n=1)`` lists, by ``model.top_n``'s rule."""
        best = [top_n(row, 1)[0] for row in self.predict_scores(X)]
        return np.array([self.item_ids_[i] for i in best], dtype=object)

    def recommend(self, user, timestamp, n: int = 10) -> list[tuple[str, float]]:
        """Top-n (item id, score) pairs for one user at one timestamp, best
        first, from ``model.top_n``: equal scores list the lower item index
        first, and ``n`` past the vocabulary gives every item.

        Raises ConfigError unless ``n`` is a whole number of at least 1.
        """
        check_is_fitted(self, "params_")
        n = as_whole(n, "n")
        if n < 1:
            raise ConfigError(f"n must be at least 1, got {n}")
        scores = self._scores_for(str(user), timestamp)
        top = top_n(scores, n)
        return list(zip([self.item_ids_[i] for i in top.tolist()], scores[top].tolist()))
