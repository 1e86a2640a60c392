import numpy as np
import pytest

from carnn import estimator as estimator_module
from carnn.context import SECONDS_PER_DAY
from carnn.errors import ConfigError, DataError
from carnn.estimator import CARNNRecommender, query_context
from carnn.evaluate import generate_synthetic
from carnn.model import forward_states, score_all


def interaction_rows(n_users=8, n_items=16, seq_len=15, seed=2):
    """Flatten a synthetic sequence set into (user, item, timestamp) rows."""
    seqs, _ = generate_synthetic(n_users, n_items, seq_len, 4, signal="input_ctx", seed=seed)
    ids = seqs.item_ids()
    rows = []
    for seq in seqs.sequences:
        for j in range(len(seq)):
            rows.append((seq.user, ids[int(seq.items[j])], int(seq.timestamps[j])))
    return rows


class TestParamsContract:
    def test_get_params_reflects_constructor(self):
        est = CARNNRecommender(d=6, learning_rate=0.2, epochs=3)
        params = est.get_params()
        assert params["d"] == 6
        assert params["learning_rate"] == 0.2
        assert params["epochs"] == 3
        assert "use_input_contexts" in params

    def test_set_params_round_trip(self):
        est = CARNNRecommender()
        est.set_params(d=4, seed=11)
        assert est.d == 4 and est.seed == 11

    def test_set_params_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="invalid parameter"):
            CARNNRecommender().set_params(banana=1)

    def test_clone_compatible_with_sklearn(self):
        sklearn_base = pytest.importorskip("sklearn.base")
        est = CARNNRecommender(d=5, epochs=2, seed=3)
        cloned = sklearn_base.clone(est)
        assert cloned.get_params() == est.get_params()
        assert cloned is not est

    def test_repr_shows_parameters(self):
        assert "d=7" in repr(CARNNRecommender(d=7))


class TestFitPredict:
    def fitted(self, **kwargs):
        defaults = dict(d=4, epochs=2, context_factors=("hour_of_day",), seed=0)
        defaults.update(kwargs)
        est = CARNNRecommender(**defaults)
        return est.fit(interaction_rows())

    def test_fit_returns_self_and_sets_state(self):
        est = CARNNRecommender(d=4, epochs=1, context_factors=("hour_of_day",))
        assert est.fit(interaction_rows()) is est
        assert est.n_items_ == 16
        assert est.params_.config.d == 4
        assert len(est.loss_trace_) == 1

    def test_predict_returns_known_item_ids(self):
        est = self.fitted()
        t = 946857600 + 400 * SECONDS_PER_DAY
        out = est.predict([["u0", t], ["u1", t]])
        assert out.shape == (2,)
        assert all(item in est.sequences_.item_vocab for item in out)

    def test_predict_scores_shape(self):
        est = self.fitted()
        t = 946857600 + 400 * SECONDS_PER_DAY
        scores = est.predict_scores([["u0", t]])
        assert scores.shape == (1, est.n_items_)

    def test_recommend_sorted_descending(self):
        est = self.fitted()
        t = 946857600 + 400 * SECONDS_PER_DAY
        recs = est.recommend("u0", t, n=5)
        assert len(recs) == 5
        values = [s for _, s in recs]
        assert values == sorted(values, reverse=True)

    def test_recommendation_matches_predict(self):
        est = self.fitted()
        t = 946857600 + 400 * SECONDS_PER_DAY
        assert est.recommend("u0", t, n=1)[0][0] == est.predict([["u0", t]])[0]

    def test_predict_is_recommend_n1_when_a_score_is_nan(self):
        est = self.fitted(epochs=1)
        history = set(est.sequences_.sequences[est.sequences_.user_vocab["u0"]].items.tolist())
        j = min(set(range(est.n_items_)) - history)
        est.params_.R[j] = np.nan  # u0's state stays finite; its score for j is NaN
        t = 946857600 + 400 * SECONDS_PER_DAY
        users = list(est.sequences_.user_vocab)
        assert np.isnan(est.predict_scores([["u0", t]])[0, j])
        predicted = est.predict([[u, t] for u in users])
        assert predicted[users.index("u0")] != est.item_ids_[j]
        assert predicted.tolist() == [est.recommend(u, t, n=1)[0][0] for u in users]

    def test_recommend_is_the_stable_argsort_for_every_user(self):
        est = self.fitted()
        # items 8..15 copy the embeddings of 0..7, so every score has an exact tie
        est.params_.R[8:] = est.params_.R[:8]
        for u in est.sequences_.user_vocab:
            for days in (0, 3, 400):
                t = est._user_state(u)[1] + days * SECONDS_PER_DAY + 3600
                scores = est.predict_scores([[u, t]])[0]
                assert len(set(scores.tolist())) <= 8
                order = np.argsort(-scores, kind="stable")
                for n in (1, 5, est.n_items_, est.n_items_ + 4):
                    assert est.recommend(u, t, n=n) == [(est.item_ids_[i], float(scores[i]))
                                                        for i in order[:n]]

    @pytest.mark.parametrize("n, message", [(0, "n must be at least 1, got 0"),
                                            (-2, "n must be at least 1, got -2"),
                                            (2.5, "n 2.5 is not a whole number"),
                                            ("x", "n 'x' is not a whole number"),
                                            (None, "n None is not a whole number")])
    def test_n_below_1_or_not_whole_rejected(self, n, message):
        est = self.fitted()
        t = 946857600 + 400 * SECONDS_PER_DAY
        with pytest.raises(ConfigError, match=message):
            est.recommend("u0", t, n=n)

    def test_whole_number_n_of_any_type_accepted(self):
        est = self.fitted()
        t = 946857600 + 400 * SECONDS_PER_DAY
        expected = est.recommend("u0", t, n=3)
        for same in (3.0, np.int64(3), "3"):
            assert est.recommend("u0", t, n=same) == expected

    def test_unknown_user_rejected(self):
        est = self.fitted()
        with pytest.raises(DataError, match="ghost"):
            est.recommend("ghost", 10**9)

    def test_unfitted_use_rejected(self):
        with pytest.raises(ConfigError, match="not fitted"):
            CARNNRecommender().predict([["u0", 1]])

    @pytest.mark.parametrize("timestamp", [10**12, 10**20, -10**12])
    def test_query_timestamp_out_of_range_rejected(self, timestamp):
        est = self.fitted()
        with pytest.raises(ConfigError, match=f"timestamp {timestamp} is outside"):
            est.recommend("u0", timestamp)
        with pytest.raises(ConfigError, match=f"timestamp {timestamp} is outside"):
            est.predict_scores([["u0", timestamp]])

    @pytest.mark.parametrize("timestamp", ["abc", float("nan"), float("inf"), -float("inf"),
                                           1e9 + 0.7, np.float64(1e9 + 0.5), None])
    def test_query_timestamp_not_a_whole_number_rejected(self, timestamp):
        est = self.fitted()
        with pytest.raises(ConfigError, match="is not a whole number"):
            est.recommend("u0", timestamp)
        with pytest.raises(ConfigError, match="is not a whole number"):
            est.predict_scores([["u0", timestamp]])

    @pytest.mark.parametrize("timestamp", ["abc", float("nan"), float("inf"), 1e9 + 0.7])
    def test_fit_timestamp_not_a_whole_number_rejected(self, timestamp):
        rows = interaction_rows() + [("u0", "i1", timestamp)]
        with pytest.raises(ConfigError, match="is not a whole number"):
            CARNNRecommender(d=4, epochs=1).fit(rows)

    @pytest.mark.parametrize("param", [dict(max_interval_days=2.5),
                                       dict(timezone_offset_seconds=1800.5)])
    def test_scheme_value_not_a_whole_number_rejected(self, param):
        with pytest.raises(ConfigError, match="is not a whole number"):
            CARNNRecommender(d=4, epochs=1, **param).fit(interaction_rows())

    @pytest.mark.parametrize("param,message", [
        (dict(epochs=2.5), "epochs 2.5 is not a whole number"),
        (dict(d=2.5), "d 2.5 is not a whole number"),
        (dict(init_scale=float("nan")), "init_scale nan is not a finite number"),
        (dict(learning_rate=float("inf")), "learning_rate inf is not a finite number"),
    ])
    def test_model_or_training_value_out_of_contract_rejected(self, param, message):
        with pytest.raises(ConfigError, match=message):
            CARNNRecommender(**{"d": 4, "epochs": 1, **param}).fit(interaction_rows())

    def test_whole_number_timestamps_of_any_type_accepted(self):
        est = self.fitted()
        t = 946857600 + 400 * SECONDS_PER_DAY
        expected = est.predict_scores([["u0", t]])
        for same in (float(t), np.int64(t), np.float64(t), np.int32(t), str(t)):
            assert est.recommend("u0", same, n=3) == est.recommend("u0", t, n=3)
            assert np.array_equal(est.predict_scores([["u0", same]]), expected)
        as_floats = [(u, i, float(ts)) for u, i, ts in interaction_rows()]
        refit = self.fitted().fit(as_floats)
        assert np.array_equal(refit.params_.R, est.params_.R)

    def test_interaction_objects_are_range_checked(self):
        from carnn.data import Interaction
        rows = [Interaction(*row) for row in interaction_rows()]
        rows.append(Interaction("u0", "i1", 10**12))
        with pytest.raises(ConfigError, match="timestamp 1000000000000 is outside"):
            CARNNRecommender(d=4, epochs=1).fit(rows)

    def test_query_timestamp_before_history_rejected(self):
        est = self.fitted()
        with pytest.raises(DataError, match="out of order"):
            est.recommend("u0", 0)

    @pytest.mark.parametrize("timestamp", [10**12, 10**20])
    def test_timestamp_past_year_9999_rejected(self, timestamp):
        rows = interaction_rows() + [("u0", "i1", timestamp)]
        with pytest.raises(ConfigError, match=f"timestamp {timestamp}"):
            CARNNRecommender(d=4, epochs=1).fit(rows)

    def test_bad_input_shape_rejected(self):
        with pytest.raises(ConfigError):
            CARNNRecommender().fit(np.zeros((4, 2)))

    def test_same_seed_fits_identically(self):
        a = self.fitted(seed=5)
        b = self.fitted(seed=5)
        assert np.array_equal(a.params_.R, b.params_.R)
        assert np.array_equal(a.params_.M_bank, b.params_.M_bank)

    def test_ablation_switches_collapse_banks(self):
        est = self.fitted(use_input_contexts=False, use_transition_contexts=False)
        assert est.params_.M_bank.shape[0] == 1
        assert est.params_.W_bank.shape[0] == 1


class TestStateTable:
    """The estimator serves each user's state from one lockstep replay."""

    T = 946857600 + 400 * SECONDS_PER_DAY

    @pytest.fixture
    def replays(self, monkeypatch):
        calls = []
        real = estimator_module.states_at

        def counted(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(estimator_module, "states_at", counted)
        return calls

    @staticmethod
    def one_by_one(est, user):
        """State and scores as one user's own one-state replay gives them."""
        seq = est.sequences_.sequences[est.sequences_.user_vocab[user]]
        h = forward_states(seq, est.params_)[-1]
        ctx, bin_ = query_context(TestStateTable.T, int(seq.timestamps[-1]), est.scheme_)
        return h, int(seq.timestamps[-1]), score_all(h, ctx, bin_, est.params_)

    @pytest.mark.parametrize("variant", [dict(), dict(use_input_contexts=False),
                                         dict(use_transition_contexts=False),
                                         dict(use_input_contexts=False,
                                              use_transition_contexts=False)])
    def test_states_and_outputs_are_the_per_user_replay(self, variant):
        est = CARNNRecommender(d=4, epochs=2, context_factors=("hour_of_day",), **variant)
        est.fit(interaction_rows())
        users = list(est.sequences_.user_vocab)
        scores = est.predict_scores([[u, self.T] for u in users])
        for u, row in zip(users, scores):
            h, last_t, expected = self.one_by_one(est, u)
            state, got_t = est._user_state(u)
            assert np.array_equal(state.view(np.uint64), h.view(np.uint64))
            assert got_t == last_t
            assert np.array_equal(row.view(np.uint64), expected.view(np.uint64))
            top = np.argsort(-expected, kind="stable")[:5]
            assert est.recommend(u, self.T, n=5) == [(est.item_ids_[i], float(expected[i]))
                                                    for i in top]

    def test_fit_builds_nothing_and_the_first_query_builds_once(self, replays):
        est = CARNNRecommender(d=4, epochs=1, context_factors=("hour_of_day",))
        est.fit(interaction_rows())
        assert replays == []
        est.recommend("u0", self.T)
        est.predict_scores([["u1", self.T], ["u0", self.T]])
        assert len(replays) == 1
        seqs, positions, _ = replays[0]
        assert positions == [[len(seq)] for seq in seqs]

    def test_refit_serves_the_new_fit(self, replays):
        est = CARNNRecommender(d=4, epochs=1, context_factors=("hour_of_day",))
        est.fit(interaction_rows(seed=2))
        first = est.predict_scores([["u0", self.T]])
        est.fit(interaction_rows(n_users=5, seed=3))
        assert np.array_equal(est.predict_scores([["u0", self.T]])[0],
                              self.one_by_one(est, "u0")[2])
        assert not np.array_equal(est.predict_scores([["u0", self.T]]), first)
        assert len(replays) == 2
        with pytest.raises(DataError, match="u5"):
            est.recommend("u5", self.T)

    def test_unknown_user_rejected_before_and_after_the_table(self, replays):
        est = CARNNRecommender(d=4, epochs=1, context_factors=("hour_of_day",))
        est.fit(interaction_rows())
        with pytest.raises(DataError, match="unknown user 'ghost'"):
            est.recommend("ghost", self.T)
        assert replays == []
        est.recommend("u0", self.T)
        with pytest.raises(DataError, match="unknown user 'ghost'"):
            est.predict_scores([["ghost", self.T]])
        assert len(replays) == 1
