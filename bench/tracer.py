"""Per-layer tracing from outside the program.

Each traced entry point is replaced, at the module attribute where its
callers look it up, by a wrapper that times the call and charges the time
to the innermost open span. A span's self time is its duration minus the
time of the spans it encloses. Spans are folded into per-name totals as
they close: a run makes millions of calls, and keeping every span would
cost more memory than the workload itself.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

# (metric prefix, dotted path under carnn). A class is traced through its
# __init__, a click command through its callback.
TARGETS = (
    ("data.parse_interactions", "data.parse_interactions"),
    ("data.build_sequences", "data.build_sequences"),
    ("data.split_sequences", "data.split_sequences"),
    ("context.annotate_sequences", "context.annotate_sequences"),
    ("context.input_context", "context.input_context"),
    ("store.write_cache", "store.write_cache"),
    ("store.read_cache", "store.read_cache"),
    ("cli.prepare", "cli.prepare"),
    ("model.init_params", "model.init_params"),
    ("model.load_params", "model.load_params"),
    ("model.hidden_step", "model.hidden_step"),
    ("model.score_all", "model.score_all"),
    ("linalg.sigmoid_vec", "linalg.sigmoid_vec"),
    ("training.train", "training.train"),
    ("training.make_examples", "training.make_examples"),
    ("training._ForwardCache", "training._ForwardCache"),
    ("training._pair_gradients", "training._pair_gradients"),
    ("training._recurrence_grads", "training._recurrence_grads"),
    ("training.sgd_step", "training.sgd_step"),
    ("evaluate.evaluate", "evaluate.evaluate"),
    ("evaluate.rank_target", "evaluate.rank_target"),
    ("evaluate.aggregate_ranks", "evaluate.aggregate_ranks"),
    ("estimator.fit", "estimator.CARNNRecommender.fit"),
    ("estimator.recommend", "estimator.CARNNRecommender.recommend"),
    ("estimator._user_state", "estimator.CARNNRecommender._user_state"),
)

# Reported per round (one set-up plus the workload's fixed operations).
PER_LAYER = (
    ("data.parse_interactions.self_s", "s", "lower"),
    ("data.parse_interactions.events", "count", "higher"),
    ("data.build_sequences.self_s", "s", "lower"),
    ("data.split_sequences.self_s", "s", "lower"),
    ("context.annotate_sequences.self_s", "s", "lower"),
    ("context.input_context.calls", "count", "lower"),
    ("store.write_cache.self_s", "s", "lower"),
    ("store.write_cache.bytes", "bytes", "lower"),
    ("cli.prepare.self_s", "s", "lower"),
    ("store.read_cache.self_s", "s", "lower"),
    ("store.read_cache.bytes", "bytes", "lower"),
    ("model.load_params.self_s", "s", "lower"),
    ("model.init_params.self_s", "s", "lower"),
    ("training.train.self_s", "s", "lower"),
    ("training.make_examples.self_s", "s", "lower"),
    ("training._ForwardCache.self_s", "s", "lower"),
    ("training._pair_gradients.self_s", "s", "lower"),
    ("training._recurrence_grads.calls", "count", "lower"),
    ("training._recurrence_grads.self_s", "s", "lower"),
    ("training.sgd_step.calls", "count", "lower"),
    ("training.sgd_step.self_s", "s", "lower"),
    ("linalg.sigmoid_vec.calls", "count", "lower"),
    ("linalg.sigmoid_vec.self_s", "s", "lower"),
    ("model.hidden_step.calls", "count", "lower"),
    ("model.hidden_step.self_s", "s", "lower"),
    ("model.score_all.calls", "count", "lower"),
    ("model.score_all.self_s", "s", "lower"),
    ("model.score_all.bytes", "bytes_computed", "lower"),
    ("evaluate.evaluate.self_s", "s", "lower"),
    ("evaluate.rank_target.calls", "count", "lower"),
    ("evaluate.rank_target.self_s", "s", "lower"),
    ("evaluate.aggregate_ranks.self_s", "s", "lower"),
    ("estimator.fit.self_s", "s", "lower"),
    ("estimator.recommend.self_s", "s", "lower"),
    ("estimator._user_state.hits", "count", "higher"),
    ("estimator._user_state.misses", "count", "lower"),
    ("estimator._user_state.hit_ratio", "fraction", "higher"),
    ("untraced.self_s", "s", "lower"),
)


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _events(args, kwargs, result):
    return {"events": len(result)}


def _score_bytes(args, kwargs, result):
    # computed, not measured: one float64 read per embedding entry
    return {"bytes": 8 * len(result) * len(args[0])}


COUNTERS = {
    "data.parse_interactions": _events,
    "store.write_cache": _file_bytes,
    "store.read_cache": _file_bytes,
    "model.score_all": _score_bytes,
}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.root_s = 0.0     # time inside outermost spans
        self.sampled_s = 0.0  # calibration loop time inside spans
        self.enabled = True
        self.absent: list[str] = []
        self._open: list[list[float]] = []   # child time of each open span
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self
        counter = COUNTERS.get(name)
        replays = name == "estimator._user_state"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            steps_before = tracer.calls["model.hidden_step"]
            frame = [0.0]
            tracer._open.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._open.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += elapsed - frame[0]
                if tracer._open:
                    tracer._open[-1][0] += elapsed
                else:
                    tracer.root_s += elapsed
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    tracer.counts[f"{name}.{key}"] += value
            if replays:
                # a miss replays the user's history through hidden_step
                miss = tracer.calls["model.hidden_step"] > steps_before
                tracer.counts[f"{name}.misses" if miss else f"{name}.hits"] += 1
            return result
        return traced

    def exclude(self, seconds: float) -> None:
        """Keep time that is not carnn's (the calibration loop, run from a
        timer) out of the self time of the span it interrupted."""
        if self._open:
            self._open[-1][0] += seconds
            self.sampled_s += seconds

    def covered_s(self) -> float:
        """Time of carnn's own work inside outermost spans so far."""
        return self.root_s - self.sampled_s

    def install(self) -> None:
        for name, path in TARGETS:
            module_name, *attrs = path.split(".")
            owner = importlib.import_module(f"carnn.{module_name}")
            for attr in attrs[:-1]:
                owner = getattr(owner, attr, None)
            original = getattr(owner, attrs[-1], None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            if isinstance(original, type):
                self._patch(original, "__init__", self._wrap(name, original.__init__))
            elif hasattr(original, "callback"):
                self._patch(original, "callback", self._wrap(name, original.callback))
            elif len(attrs) > 1:
                self._patch(owner, attrs[-1], self._wrap(name, original))
            else:
                wrapped = self._wrap(name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "carnn" or mod_name.startswith("carnn."):
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def per_round(self, rounds: int, untraced_s: float) -> dict[str, dict]:
        """Every PER_LAYER metric, per round run; hit_ratio is a plain ratio."""
        values = {}
        for metric, unit, _ in PER_LAYER:
            name, stat = metric.rsplit(".", 1)
            if metric == "untraced.self_s":
                value = untraced_s / rounds
            elif stat == "self_s":
                value = self.self_s.get(name, 0.0) / rounds
            elif stat == "calls":
                value = self.calls.get(name, 0) / rounds
            elif stat == "hit_ratio":
                queries = self.calls.get(name, 0)
                value = self.counts.get(f"{name}.hits", 0) / queries if queries else 0.0
            else:
                value = self.counts.get(metric, 0) / rounds
            values[metric] = {"value": value, "unit": unit}
        return values
