import numpy as np
import pytest

from carnn.context import SECONDS_PER_DAY
from carnn.errors import ConfigError, DataError
from carnn.estimator import CARNNRecommender
from carnn.evaluate import generate_synthetic


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
