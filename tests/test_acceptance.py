"""Acceptance gate: one test per exit criterion, each at its stated tolerance.

The two Movielens-1M criteria require the real dataset on disk (see
conftest.ml1m_path); everything they exercise also runs here on synthetic
corpora, but the dataset-bound assertions skip rather than guess when the
file is absent.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from carnn.cli import cli
from carnn.context import ContextScheme, annotate_sequences, transition_bin
from carnn.data import build_sequences, parse_interactions, split_sequences
from carnn.evaluate import (evaluate, generate_synthetic, pop_baseline,
                            write_interactions_csv)
from carnn.linalg import sigmoid_vec
from carnn.model import ModelConfig, ModelParams, init_params, score_all, states_at
from carnn.seeding import named_rng
from carnn.training import TrainConfig, gradient_check, train
from conftest import ml1m_path, ml1m_required
from references import sequence_set

runner = CliRunner()
MONDAY = 946857600


def _train_variant(split, scheme, use_input, use_trans, d, epochs, seed,
                   lr=0.01, l2=0.01):
    config = ModelConfig(d=d, n_items=split.sequences.n_items,
                         n_input_contexts=scheme.n_input_contexts,
                         n_transition_bins=scheme.n_transition_bins,
                         use_input_contexts=use_input,
                         use_transition_contexts=use_trans, seed=seed)
    params = init_params(config)
    params, trace = train(split, params, TrainConfig(learning_rate=lr, l2=l2,
                                                     epochs=epochs, seed=seed))
    return params, trace


def test_gradient_exactness_on_tiny_model():
    # d=3, 5 items, 2 input contexts, 3 transition bins, one length-6
    # sequence, frozen negatives, central differences at 1e-5
    from carnn.data import UserSequence

    config = ModelConfig(d=3, n_items=5, n_input_contexts=2, n_transition_bins=3, seed=0)
    params = init_params(config)
    rng = named_rng(0, "synthetic")
    seq = UserSequence(
        "probe",
        rng.integers(0, 5, size=6).astype(np.int64),
        np.arange(6, dtype=np.int64) * 86400,
        rng.integers(0, 2, size=6).astype(np.int64),
        rng.integers(0, 3, size=6).astype(np.int64),
    )
    started = time.perf_counter()
    report = gradient_check(params, seq, TrainConfig(seed=0), epsilon=1e-5)
    elapsed = time.perf_counter() - started
    assert report.max_rel_error < 1e-4, (
        f"max relative error {report.max_rel_error:.3e} at "
        f"{report.worst_bank}{report.worst_index}"
    )
    assert elapsed < 5.0


def test_f1_identity_reproduces_published_numbers():
    # the printed table pairs follow from the single-relevant-item identity
    assert round(2 * 0.3376 / (5 + 1), 4) == 0.1125
    assert round(2 * 0.4914 / (10 + 1), 4) == 0.0893

    # and every report this package produces satisfies it to 1e-12
    seqs, scheme = generate_synthetic(20, 24, 30, 4, signal="input_ctx", seed=3)
    split = split_sequences(seqs, 0.8)
    params, _ = _train_variant(split, scheme, True, True, d=4, epochs=2, seed=3)
    for report in (evaluate(split, params), pop_baseline(split)):
        for k in report.recall_at:
            assert abs(report.f1_at[k] - 2 * report.recall_at[k] / (k + 1)) < 1e-12
        assert report.f1_at[1] == report.recall_at[1]


def test_plain_variant_reduces_to_constant_matrix_recurrence():
    # with both context switches off, states and scores must be bit-identical
    # to a directly coded constant-matrix recurrence on 100 random sequences
    rng = np.random.default_rng(42)
    d, n_items = 5, 12
    R = rng.uniform(-0.3, 0.3, size=(n_items, d))
    M = rng.uniform(-0.3, 0.3, size=(d, d))
    W = rng.uniform(-0.3, 0.3, size=(d, d))
    config = ModelConfig(d=d, n_items=n_items, n_input_contexts=1, n_transition_bins=1,
                         use_input_contexts=False, use_transition_contexts=False)
    params = ModelParams(config, R.copy(), M[None].copy(), W[None].copy())

    from carnn.data import UserSequence

    for trial in range(100):
        length = int(rng.integers(1, 15))
        seq = UserSequence(
            f"u{trial}",
            rng.integers(0, n_items, size=length).astype(np.int64),
            np.arange(length, dtype=np.int64),
            np.zeros(length, dtype=np.int64),
            np.zeros(length, dtype=np.int64),
        )
        states = states_at(sequence_set([seq], {}), [np.arange(length + 1)], params)
        h_ref = np.zeros(d)
        for k in range(length):
            h_ref = sigmoid_vec(R[seq.items[k]] @ M + h_ref @ W)
            assert np.array_equal(states[k + 1], h_ref), f"state mismatch at step {k}"
        scores_ref = R @ ((h_ref @ W) @ M.T)
        assert np.array_equal(score_all(states[-1][None], 0, 0, params)[0], scores_ref), \
            "score mismatch"


def _planted_ratio(signal, use_input, use_trans):
    seqs, scheme = generate_synthetic(50, 40, 60, 4, signal=signal, seed=123,
                                      signal_strength=0.9)
    split = split_sequences(seqs, 0.8)
    started = time.perf_counter()
    context_params, _ = _train_variant(split, scheme, use_input, use_trans,
                                       d=8, epochs=30, seed=0)
    plain_params, _ = _train_variant(split, scheme, False, False,
                                     d=8, epochs=30, seed=0)
    elapsed = time.perf_counter() - started
    context_rep = evaluate(split, context_params)
    plain_rep = evaluate(split, plain_params)
    return context_rep.recall_at[1], plain_rep.recall_at[1], elapsed


def test_planted_input_context_signal_doubles_recall():
    ctx_r1, plain_r1, elapsed = _planted_ratio("input_ctx", True, False)
    assert ctx_r1 >= 2.0 * plain_r1, f"input-variant {ctx_r1} vs plain {plain_r1}"
    assert elapsed < 120.0


def test_planted_transition_signal_doubles_recall():
    ctx_r1, plain_r1, elapsed = _planted_ratio("transition_bin", False, True)
    assert ctx_r1 >= 2.0 * plain_r1, f"transition-variant {ctx_r1} vs plain {plain_r1}"
    assert elapsed < 120.0


def test_planted_no_signal_control_stays_at_chance():
    seqs, scheme = generate_synthetic(50, 40, 60, 4, signal="none", seed=123)
    split = split_sequences(seqs, 0.8)
    params, _ = _train_variant(split, scheme, True, True, d=8, epochs=30, seed=0)
    report = evaluate(split, params)
    pop = pop_baseline(split)
    chance = max(pop.recall_at[1], 1.0 / split.sequences.n_items)
    assert report.recall_at[1] <= 3.0 * chance, (
        f"recall@1 {report.recall_at[1]} vs popularity-adjusted chance {chance}"
    )


def test_context_binning_properties():
    # interval binning is monotone, saturates at 30 days, and the two
    # declared factor sets have vocabularies 42 and 168
    scheme = ContextScheme(factors=("day_of_week", "hour_of_day"))
    gaps_days = [0, 0.4, 1, 2.5, 7, 29, 30, 45, 400]
    bins = [transition_bin(MONDAY + int(g * 86400), MONDAY, scheme) for g in gaps_days]
    assert bins == sorted(bins)
    assert transition_bin(MONDAY + 45 * 86400, MONDAY, scheme) == 30
    assert bins[-1] == 30
    assert ContextScheme(factors=("day_of_week", "ten_day_period", "is_holiday")).n_input_contexts == 42
    assert ContextScheme(factors=("day_of_week", "hour_of_day")).n_input_contexts == 168


def test_repeated_commands_are_byte_identical(tmp_path):
    seqs, _ = generate_synthetic(15, 20, 25, 4, signal="input_ctx", seed=9)
    csv_path = str(tmp_path / "events.csv")
    write_interactions_csv(seqs, csv_path)
    cfg_path = str(tmp_path / "run.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(f"dataset={csv_path}\nformat=csv\nfactors=hour_of_day\n"
                 f"min_user=2\nmin_item=1\nd=4\nepochs=3\nseed=5\n")

    outputs = {}
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        cache = os.path.join(out, "cache.bin")
        for args in (
            ["prepare", "--config", cfg_path, "--out", out],
            ["train", "--config", cfg_path, "--out", out, "--cache", cache],
            ["eval", "--config", cfg_path, "--out", out, "--cache", cache,
             "--model", os.path.join(out, "model.carn")],
        ):
            result = runner.invoke(cli, args)
            assert result.exit_code == 0, result.output
        outputs[tag] = {
            name: Path(os.path.join(out, name)).read_bytes()
            for name in ("cache.bin", "model.carn", "metrics.json")
        }
    assert outputs["a"] == outputs["b"]


# --- Movielens-1M criteria (dataset-gated) -----------------------------------

@pytest.fixture(scope="module")
def ml1m_runs():
    path = ml1m_path()
    if path is None:  # pragma: no cover - the guard on the tests below skips first
        pytest.skip("Movielens-1M not available")
    log = parse_interactions(path, "movielens_dat")
    assert len(log) == 1_000_209
    assert len(log.user_ids) == 6040
    seqs = build_sequences(log, min_user=10, min_item=3)
    scheme = ContextScheme(factors=("day_of_week", "hour_of_day"))
    seqs = annotate_sequences(seqs, scheme)
    split = split_sequences(seqs, 0.8)

    started = time.perf_counter()
    carnn_params, carnn_trace = _train_variant(split, scheme, True, True,
                                               d=10, epochs=10, seed=0)
    rnn_params, _ = _train_variant(split, scheme, False, False,
                                   d=10, epochs=10, seed=0)
    elapsed = time.perf_counter() - started
    return {
        "split": split,
        "scheme": scheme,
        "carnn_trace": carnn_trace,
        "carnn": evaluate(split, carnn_params),
        "rnn": evaluate(split, rnn_params),
        "pop": pop_baseline(split),
        "train_seconds": elapsed,
    }


@ml1m_required
def test_ml1m_loss_descent(ml1m_runs):
    trace = ml1m_runs["carnn_trace"]
    assert all(math.isfinite(t.mean_pair_loss) for t in trace)
    assert trace[9].mean_pair_loss < trace[0].mean_pair_loss


@ml1m_required
def test_ml1m_directional_reproduction(ml1m_runs):
    carnn_rep = ml1m_runs["carnn"]
    rnn_rep = ml1m_runs["rnn"]
    pop_rep = ml1m_runs["pop"]
    assert carnn_rep.map_score > rnn_rep.map_score
    assert carnn_rep.ndcg > rnn_rep.ndcg
    assert carnn_rep.map_score >= 2.0 * pop_rep.map_score
    assert rnn_rep.map_score >= 2.0 * pop_rep.map_score
    assert ml1m_runs["train_seconds"] < 2 * 3600
