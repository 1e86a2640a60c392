"""Tests of the benchmark itself, on tiny inputs (--quick). They check the
output schema, the tracer's counts and that every correctness check fails
on a corrupted model or rank list. They assert on no timing.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import datetime as dt
import importlib
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import oracles  # noqa: E402
import workloads  # noqa: E402
from oracles import CheckFailed  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_quick_run_prints_the_contract_schema(name, trace):
    proc = run_bench("--workload", name, "--seed", "7", "--seconds", "0.5",
                     "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        # the layers each workload is meant to lean on are seen working
        busy = {
            "prepare-ml1m-shape": ["data.parse_interactions.events", "store.write_cache.bytes",
                                   "context.input_context.calls"],
            "train-planted": ["training._recurrence_grads.calls", "training.sgd_step.calls",
                              "linalg.sigmoid_vec.calls", "store.read_cache.bytes"],
            "eval-fullvocab": ["model.hidden_step.calls", "model.score_all.bytes",
                               "evaluate.rank_target.calls", "store.read_cache.bytes"],
            "recommend-zipf": ["estimator._user_state.hits", "estimator._user_state.misses",
                               "training.sgd_step.calls"],
        }[name]
        assert all(result["metrics"][m]["value"] > 0 for m in busy)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_calendar_reference_agrees_with_the_standard_library():
    rng = np.random.default_rng(0)
    for t in rng.integers(0, 2_000_000_000, size=200).tolist():
        civil = dt.datetime.fromtimestamp(t, tz=dt.timezone.utc)
        assert oracles.context_id(t, ("day_of_week", "hour_of_day")) == \
            civil.weekday() * 24 + civil.hour
    assert oracles.gap_bins([0, 86399, 86400 * 40]) == [31, 0, 30]


def test_p99_is_the_median_of_block_p99s():
    run = importlib.import_module("run")

    class OneOpRounds:
        ops_per_round, units = 1, 1

    times = [1.0] * 5 + [2.0] * 5 + [50.0] * 5 + [99.0]   # the last block is not whole
    result = {"op_s": times, "setup_s": [1.0], "op_scaled": times, "setup_scaled": [1.0],
              "recall": 0.5, "peak_rss_mb": 40.0}
    metrics = run.end_to_end(OneOpRounds, result)
    assert metrics["latency_p99_ms"]["value"] == 2000.0   # one slow block does not set it
    assert [len(b) for b in run._tail_blocks(OneOpRounds, times)] == [5, 5, 5]
    OneOpRounds.ops_per_round = 6
    assert [len(b) for b in run._tail_blocks(OneOpRounds, times)] == [6, 6]
    assert run._tail_blocks(OneOpRounds, times[:4]) == [times[:4]]


# --- negative controls: a corrupted output must fail its check --------------

def _run_quick(cls, tmp_path, ops=1):
    wl = cls(3, True, str(tmp_path))
    state = wl.setup()
    for i in range(ops):
        wl.check_op(state, i, wl.op(state, i))
    return wl, state


def test_prepare_check_rejects_a_wrong_split(tmp_path, monkeypatch):
    data = importlib.import_module("carnn.data")
    monkeypatch.setattr(data, "train_length", lambda length, ratio: length - 1)
    wl, state = _run_quick(workloads.PrepareML1MShape, tmp_path)
    with pytest.raises(CheckFailed, match="n_train"):
        wl.finish(state)


def test_prepare_check_rejects_wrong_gap_bins(tmp_path, monkeypatch):
    context = importlib.import_module("carnn.context")
    real = context.transition_bin
    monkeypatch.setattr(context, "transition_bin",
                        lambda t, prev, scheme: min(real(t, prev, scheme) + 1, 30))
    wl, state = _run_quick(workloads.PrepareML1MShape, tmp_path)
    with pytest.raises(CheckFailed, match="gap bins"):
        wl.finish(state)


def test_train_check_rejects_an_untrained_model(tmp_path):
    model = importlib.import_module("carnn.model")
    wl, state = _run_quick(workloads.TrainPlanted, tmp_path)
    wl.params = model.init_params(wl.config)
    with pytest.raises(CheckFailed, match="planted recall"):
        wl.finish(state)


def test_train_check_rejects_a_loss_that_did_not_fall(tmp_path):
    wl = workloads.TrainPlanted(3, True, str(tmp_path))
    split = wl.setup()
    params, trace = wl.op(split, 0)
    trace[-1].mean_pair_loss = math.log(2.0)
    with pytest.raises(CheckFailed, match="ln 2"):
        wl.check_op(split, 0, (params, trace))


def test_eval_check_rejects_a_nan_model(tmp_path):
    wl = workloads.EvalFullVocab(3, True, str(tmp_path))
    wl.params.R[:] = np.nan
    state = wl.setup()
    state[1].R = np.full_like(state[1].R, np.nan)   # loaded arrays are read-only
    report = wl.op(state, 0)
    assert report.recall_at[1] == 1.0   # the program's NaN fault: perfect metrics
    wl.check_op(state, 0, report)
    with pytest.raises(CheckFailed, match="non-finite"):
        wl.finish(state)


def test_eval_check_rejects_a_corrupted_rank_list(tmp_path, monkeypatch):
    evaluate = importlib.import_module("carnn.evaluate")
    wl, state = _run_quick(workloads.EvalFullVocab, tmp_path)
    real = evaluate.rank_target
    calls = []

    def off_by_one_once(scores, target):
        calls.append(target)
        return real(scores, target) + (len(calls) == 5)

    monkeypatch.setattr(evaluate, "rank_target", off_by_one_once)
    with pytest.raises(CheckFailed, match="held-out query 4"):
        wl.finish(state)


def test_eval_check_rejects_metrics_of_other_ranks(tmp_path):
    evaluate = importlib.import_module("carnn.evaluate")
    wl, state = _run_quick(workloads.EvalFullVocab, tmp_path)
    records = [evaluate.RankRecord("u", k, r) for k, (r, _) in enumerate(
        workloads._heldout_bounds(wl.params.R, wl.params.M_bank, wl.params.W_bank,
                                  wl.sequences, workloads.CALENDAR))]
    records[0] = evaluate.RankRecord("u", 0, records[0].rank + 1)
    wl.first = evaluate.aggregate_ranks(records)
    with pytest.raises(CheckFailed, match="evaluate: "):
        wl.finish(state)


def test_recommend_check_rejects_a_wrong_context(tmp_path, monkeypatch):
    estimator = importlib.import_module("carnn.estimator")
    real = estimator.input_context
    monkeypatch.setattr(estimator, "input_context",
                        lambda t, scheme: (real(t, scheme) + 12) % 168)
    wl = workloads.RecommendZipf(3, True, str(tmp_path))
    est = wl.setup()
    with pytest.raises(CheckFailed, match="recommend"):
        for i in range(wl.ops_per_round):
            wl.check_op(est, i, wl.op(est, i))
