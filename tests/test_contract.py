"""Every hostile config value ends inside the exit-code contract.

A command (prepare, train, eval, predict, sweep) runs in-process with one
config key set to a hostile value: NaN, +-inf, a negative number, 0, 1e308,
2.5 where a whole number is wanted, empty text or bytes that are not UTF-8.
It must never exit 1, must exit 2 for a value its key refuses, and may exit
0 only for a value its key accepts. The estimator's constructor gets the
same values and must end in a fit or a ``CarnnError``, a ``ConfigError``
exactly when its parameter refuses the value.

The rules below restate the documented limits of each key, independently of
the parsers and config classes they check.
"""

import math
import os

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from carnn.cli import RunConfig, cli, config_text
from carnn.errors import CarnnError, ConfigError
from carnn.estimator import CARNNRecommender
from carnn.evaluate import generate_synthetic, write_interactions_csv

runner = CliRunner()

OK, LOAD, USE = "ok", "refused by every command", "refused by the commands that read it"
CONTRACT = {0, 2, 3, 4, 5, 6, 7}
NOT_UTF8 = b"\xff\xfe"
TEXTS = ["nan", "inf", "-inf", "-1", "0", "1e308", "2.5", "", NOT_UTF8]
VALUES = [math.nan, math.inf, -math.inf, -1, 0, 1e308, 2.5, "", NOT_UTF8]
TRAINING = {"train", "sweep"}
EVERY = {"prepare", "train", "eval", "predict", "sweep"}


def whole(lo=-math.inf, hi=math.inf):
    def rule(text):
        try:
            value = int(text)
        except ValueError:
            return LOAD
        return OK if lo <= value <= hi else USE
    return rule


def real(accept):
    def rule(text):
        try:
            value = float(text)
        except ValueError:
            return LOAD
        return OK if accept(value) else USE
    return rule


def choice(*allowed):
    return lambda text: OK if text in allowed else LOAD


def path(text):
    return OK


def window(text):
    return OK if text.lower() in ("none", "unlimited") else whole(0)(text)


def factors(text):
    names = [x.strip() for x in text.split(",") if x.strip()]
    known = {"day_of_week", "hour_of_day", "ten_day_period", "is_holiday"}
    return OK if names and set(names) <= known and len(set(names)) == len(names) else USE


def ks(text):
    try:
        cutoffs = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        return LOAD
    return OK if cutoffs and cutoffs[0] >= 1 and cutoffs == sorted(set(cutoffs)) else LOAD


def rate(value):
    return math.isfinite(value) and value >= 0


# config key -> (rule for its text, commands that read it)
RULES = {
    "dataset": (path, {"prepare"}),
    "format": (choice("tsv", "csv", "movielens_dat"), EVERY),
    "factors": (factors, {"prepare"}),
    "holidays": (path, {"prepare"}),
    "max_interval_days": (whole(1, 2**32 - 2), {"prepare"}),
    "tz_offset": (whole(-14 * 3600, 14 * 3600), {"prepare"}),
    "min_user": (whole(), {"prepare"}),
    "min_item": (whole(), {"prepare"}),
    "split_ratio": (real(lambda v: 0 < v < 1), {"prepare"}),
    "d": (whole(1), {"train"}),  # a sweep takes d from --d-values
    "variant": (choice("carnn", "input", "transition", "rnn", "pop"), EVERY),
    "epochs": (whole(1), TRAINING),
    "lr": (real(rate), TRAINING),
    "lambda": (real(rate), TRAINING),
    "negatives": (whole(1), TRAINING),
    "bptt_window": (window, TRAINING),
    "init_scale": (real(lambda v: rate(v) and math.isfinite(2 * v)), TRAINING),
    "shuffle": (choice("true", "false", "1", "0", "yes", "no"), EVERY),
    "seed": (whole(), EVERY),
    "ks": (ks, EVERY),
    "out": (path, EVERY),
    "cache": (path, EVERY - {"prepare"}),
    "model": (path, {"eval", "predict"}),
}
PATHS = {key for key, (rule, _) in RULES.items() if rule is path}


def test_rules_cover_every_config_key():
    keys = [line.partition("=")[0] for line in config_text(RunConfig()).splitlines()[1:]]
    assert sorted(keys) == sorted(RULES)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A small log, its prepared cache and a model trained on it."""
    root = tmp_path_factory.mktemp("contract")
    seqs, _ = generate_synthetic(8, 12, 10, 3, signal="input_ctx", seed=5)
    csv_path = str(root / "events.csv")
    write_interactions_csv(seqs, csv_path)
    common = ["factors=hour_of_day", "min_user=2", "min_item=1", "d=3", "epochs=1"]
    cfg, out = root / "base.cfg", str(root / "o")
    cfg.write_text("\n".join(common) + "\n")
    cache, model = os.path.join(out, "cache.bin"), os.path.join(out, "model.carn")
    for args in (["prepare", "--dataset", csv_path], ["train"]):
        result = runner.invoke(cli, args + ["--config", str(cfg), "--out", out])
        assert result.exit_code == 0, result.output
    inputs = {"dataset": csv_path, "cache": cache, "model": model, "out": "o"}
    reads = {"prepare": ("dataset", "out"), "train": ("cache", "out"), "sweep": ("cache", "out"),
             "eval": ("cache", "model", "out"), "predict": ("cache", "model", "out")}
    extra = {"predict": ["--user", seqs.user_ids()[0], "--timestamp", "2000000000"],
             "sweep": ["--d-values", "2", "--variants", "rnn"]}
    return root, common, inputs, reads, extra


# enough examples to draw all 1,035 combinations; a huge rate overflows before it fails
@settings(max_examples=1100, deadline=None)
@given(command=st.sampled_from(sorted(EVERY)), key=st.sampled_from(sorted(RULES)),
       raw=st.sampled_from(TEXTS))
def test_hostile_config_value_exits_inside_the_contract(corpus, command, key, raw):
    root, common, inputs, reads, extra = corpus
    lines = common + [f"{name}={inputs[name]}" for name in reads[command]]
    text = raw if isinstance(raw, bytes) else raw.encode()
    rule, readers = RULES[key]
    verdict = LOAD if raw == NOT_UTF8 else rule(raw)
    refused = verdict == LOAD or (verdict == USE and command in readers)
    with runner.isolated_filesystem(temp_dir=root):
        with open("run.cfg", "wb") as fh:
            fh.write("\n".join(lines).encode() + b"\n" + key.encode() + b"=" + text + b"\n")
        result = runner.invoke(cli, [command, "--config", "run.cfg"] + extra.get(command, []))
    outcome = f"{command} with {key}={raw!r} exited {result.exit_code}: {result.output}"
    assert result.exit_code in CONTRACT, outcome
    if refused:
        assert result.exit_code == ConfigError.exit_code, outcome
    elif key not in PATHS:
        assert result.exit_code != ConfigError.exit_code, outcome


def whole_value(value):
    return isinstance(value, (int, float)) and math.isfinite(value) and value == int(value)


def real_value(value):
    return isinstance(value, (int, float)) and math.isfinite(value)


MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def banks_fit(d):
    """Whether the banks of a d-dimensional model of ``ROWS`` (6 items, 7 x 24
    input contexts, 32 gap bins) fit in physical memory."""
    return 8 * (6 * int(d) + (7 * 24 + 32) * int(d) ** 2) <= MEMORY


def block_fits(k):
    """Whether one user's pair gradients at k negatives per positive fit in
    physical memory, as ``train`` counts them: ``ROWS`` trains every user on
    all 5 events, at d = 2."""
    d = 2
    return 8 * 5 * (4 * d * d + (5 * d + 8) * (1 + int(k)) + 8 * d + 64) + 2**18 <= MEMORY


# estimator parameter -> whether it accepts a hostile value
ACCEPTS = {
    "d": lambda v: whole_value(v) and v >= 1 and banks_fit(v),
    "learning_rate": lambda v: real_value(v) and v >= 0,
    "l2": lambda v: real_value(v) and v >= 0,
    "epochs": lambda v: whole_value(v) and v >= 1,
    "negatives_per_positive": lambda v: whole_value(v) and v >= 1 and block_fits(v),
    "bptt_window": lambda v: whole_value(v) and v >= 0,
    "use_input_contexts": lambda v: False,
    "use_transition_contexts": lambda v: False,
    "context_factors": lambda v: False,
    "holiday_dates": lambda v: v == "",  # an empty collection of dates
    "max_interval_days": lambda v: whole_value(v) and 1 <= v <= 2**32 - 2,
    "timezone_offset_seconds": lambda v: whole_value(v) and abs(v) <= 14 * 3600,
    "min_user": whole_value,
    "min_item": whole_value,
    "init_scale": lambda v: real_value(v) and v >= 0 and math.isfinite(2 * v),
    "shuffle": lambda v: False,
    "seed": whole_value,
}
# a whole number of epochs this large would loop that long; a d whose banks,
# or a negatives_per_positive whose pair gradients, pass physical memory is
# refused before anything is drawn
SIZES = {"epochs"}
ROWS = [(f"u{u}", f"i{(u + k) % 6}", 946857600 + 3600 * (5 * u + k))
        for u in range(4) for k in range(5)]


def test_estimator_rules_cover_every_parameter():
    assert set(ACCEPTS) == set(CARNNRecommender().get_params())


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(ACCEPTS)).flatmap(lambda name: st.tuples(
    st.just(name), st.sampled_from([v for v in VALUES if not (name in SIZES and v == 1e308)]))))
def test_hostile_estimator_value_fits_or_raises_inside_the_contract(drawn):
    name, value = drawn
    est = CARNNRecommender(**{"d": 2, "epochs": 1, name: value})
    try:
        est.fit(ROWS)
    except CarnnError as exc:
        assert isinstance(exc, ConfigError) != ACCEPTS[name](value), f"{name}={value!r}: {exc!r}"
    else:
        assert ACCEPTS[name](value), f"{name}={value!r} fitted"
