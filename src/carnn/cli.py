"""Command-line front end: prepare | train | eval | predict | gradcheck | sweep.

Configuration comes from a plain-text key=value file (--config) with
command-line flags overriding individual keys; every command echoes the
effective configuration into the output directory so a run can be
reproduced by re-feeding that file. All randomness derives from one root
seed, so repeated runs produce byte-identical model files and reports.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import sys
from dataclasses import dataclass

import click
import numpy as np

from . import store
from .base import as_whole, pick
from .context import ContextScheme, annotate_sequences, parse_holiday_file
from .data import FORMATS, build_sequences, parse_interactions, split_sequences
from .errors import CarnnError, ConfigError, DataError, InputOutputError, NumericalError
from .estimator import query_context
from .evaluate import (evaluate, format_report_table, metric_keys, metric_pairs, pop_baseline,
                       report_to_json)
from .model import (ModelConfig, ModelParams, check_compatibility, init_params,
                    load_params, save_params, score_all, step_inputs, top_n, unroll)
from .seeding import named_rng
from .training import TrainConfig, configs, gradient_check, train, write_loss_trace

VARIANTS = {
    "carnn": (True, True),
    "input": (True, False),
    "transition": (False, True),
    "rnn": (False, False),
}
ALL_VARIANTS = tuple(VARIANTS) + ("pop",)


@dataclass
class RunConfig:
    """Aggregated settings for one experiment run. Fields that configure a
    ``ContextScheme``, ``ModelConfig`` or ``TrainConfig`` carry the field
    name they have there; key=value file keys and flags match the field
    names, except those that ``_KEYS`` spells otherwise. Each field's
    annotation selects its parser and formatter in ``_KINDS``."""

    dataset: str | None = None
    format: str = "csv"
    factors: tuple[str, ...] = ("day_of_week", "hour_of_day")
    holidays: str | None = None
    max_interval_days: int = 30
    timezone_offset_seconds: int = 0
    min_user: int = 10
    min_item: int = 3
    split_ratio: float = 0.8
    d: int = 10
    variant: str = "carnn"
    epochs: int = 10
    learning_rate: float = 0.01
    l2: float = 0.01
    negatives_per_positive: int = 1
    bptt_window: int | None = None
    init_scale: float = 0.1
    shuffle: bool = True
    seed: int = 0
    ks: tuple[int, ...] = (1, 5, 10)
    out: str = "out"
    cache: str | None = None
    model: str | None = None

    def cache_path(self) -> str:
        return self.cache or os.path.join(self.out, "cache.bin")

    def model_path(self) -> str:
        return self.model or os.path.join(self.out, "model.carn")


def _parse_flag(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not true/false: {raw!r}")


def _parse_list(parse):
    return lambda raw: tuple(parse(x.strip()) for x in raw.split(",") if x.strip())


def _join(values) -> str:
    return ",".join(str(v) for v in values)


# annotation -> (parse the text of a key=value line, format a value other than None)
_KINDS = {
    "str": (str, str),
    "str | None": (lambda raw: None if raw.lower() == "none" or raw == "" else raw, str),
    "int": (int, str),
    "int | None": (lambda raw: None if raw.lower() in ("none", "unlimited") else int(raw), str),
    "float": (float, repr),
    "bool": (_parse_flag, lambda v: "true" if v else "false"),
    "tuple[str, ...]": (_parse_list(str), _join),
    "tuple[int, ...]": (_parse_list(int), _join),
}
# file keys and flags that are not spelled like their RunConfig field
_KEYS = {"timezone_offset_seconds": "tz_offset", "learning_rate": "lr", "l2": "lambda",
         "negatives_per_positive": "negatives"}
_FIELDS = {_KEYS.get(f.name, f.name): f for f in dataclasses.fields(RunConfig)}


def load_run_config(config_path: str | None = None, **overrides) -> RunConfig:
    cfg = RunConfig()
    if config_path is not None:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise InputOutputError(f"cannot read config {config_path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config {config_path} is not UTF-8 text: {exc}") from exc
        for lineno, line in enumerate(lines, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ConfigError(f"{config_path}:{lineno}: expected key=value, got {text!r}")
            key, _, raw = text.partition("=")
            key = key.strip()
            if key not in _FIELDS:
                raise ConfigError(f"{config_path}:{lineno}: unknown config key {key!r}")
            field = _FIELDS[key]
            try:
                setattr(cfg, field.name, _KINDS[field.type][0](raw.strip()))
            except ValueError as exc:
                raise ConfigError(f"{config_path}:{lineno}: bad value for {key}: {raw!r}") from exc
    # replace() refuses a name that is not a field, as a stale spelling would be
    cfg = dataclasses.replace(cfg, **{f: v for f, v in overrides.items() if v is not None})
    _validate_run_config(cfg)
    return cfg


def _validate_run_config(cfg: RunConfig) -> None:
    if cfg.format not in FORMATS:
        raise ConfigError(f"unknown format {cfg.format!r}; expected one of {FORMATS}")
    if cfg.variant not in ALL_VARIANTS:
        raise ConfigError(f"unknown variant {cfg.variant!r}; expected one of {ALL_VARIANTS}")
    ks = tuple(as_whole(k, "ks entry") for k in cfg.ks)
    if not ks or list(ks) != sorted(set(ks)):
        raise ConfigError(f"ks must be a non-empty increasing list, got {cfg.ks}")
    if ks[0] < 1:
        raise ConfigError(f"ks entries must be >= 1, got {cfg.ks}")
    cfg.ks = ks


def config_text(cfg: RunConfig) -> str:
    lines = ["# effective configuration; re-feed with --config to reproduce the run"]
    for key, f in _FIELDS.items():
        value = getattr(cfg, f.name)
        lines.append(f"{key}={'none' if value is None else _KINDS[f.type][1](value)}")
    return "\n".join(lines) + "\n"


def _echo_config(cfg: RunConfig, command: str) -> None:
    os.makedirs(cfg.out, exist_ok=True)
    store.write_atomic(os.path.join(cfg.out, f"{command}.effective.cfg"), config_text(cfg),
                       "configuration echo")


def _configs(cfg: RunConfig, scheme: ContextScheme, n_items: int,
             **cell) -> tuple[ModelConfig, TrainConfig]:
    """``training.configs`` of ``cfg`` with the switches of its variant; a
    sweep ``cell`` overrides ``variant`` and ``d``."""
    settings = {**vars(cfg), **cell}
    if settings["variant"] not in VARIANTS:
        raise ConfigError("the pop baseline has no trainable model")
    use_in, use_tr = VARIANTS[settings["variant"]]
    return configs({**settings, "use_input_contexts": use_in, "use_transition_contexts": use_tr},
                   scheme, n_items)


def variant_of(p: ModelParams) -> str:
    flags = (p.config.use_input_contexts, p.config.use_transition_contexts)
    return next(name for name, pair in VARIANTS.items() if pair == flags)


def handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except CarnnError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(exc.exit_code)
        except OSError as exc:
            click.echo(f"I/O error: {exc}", err=True)
            sys.exit(InputOutputError.exit_code)
    return wrapper


def _common_options(fn):
    fn = click.option("--out", default=None, help="Output directory.")(fn)
    fn = click.option("--seed", type=int, default=None, help="Root random seed.")(fn)
    fn = click.option("--config", "config_path", default=None,
                      help="key=value configuration file.")(fn)
    return fn


@click.group()
def cli():
    """Context-aware sequential recommender experiments."""


@cli.command()
@_common_options
@click.option("--dataset", default=None, help="Interaction log to parse.")
@click.option("--format", "fmt", type=click.Choice(FORMATS), default=None)
@handle_errors
def prepare(config_path, seed, out, dataset, fmt):
    """Parse, filter, annotate, and split a dataset into a binary cache."""
    cfg = load_run_config(config_path, seed=seed, out=out, dataset=dataset, format=fmt)
    if cfg.dataset is None:
        raise ConfigError("prepare needs a dataset (config key 'dataset' or --dataset)")
    # the scheme and holiday file are checked before any output or parse
    holiday_dates = parse_holiday_file(cfg.holidays) if cfg.holidays else ()
    scheme = ContextScheme(**pick(ContextScheme, vars(cfg)), holiday_dates=holiday_dates)
    os.makedirs(cfg.out, exist_ok=True)
    log = parse_interactions(cfg.dataset, cfg.format)
    users_before, items_before = len(log.user_ids), len(log.item_ids)
    seqs = annotate_sequences(build_sequences(log, cfg.min_user, cfg.min_item), scheme)
    split = split_sequences(seqs, cfg.split_ratio)
    store.write_cache(cfg.cache_path(), split)

    kept = len(seqs.items)
    stats = "\n".join([
        f"dataset={cfg.dataset}",
        f"format={cfg.format}",
        f"records_parsed={len(log)}",
        f"records_rejected={log.rejects}",
        f"users_before_filtering={users_before}",
        f"items_before_filtering={items_before}",
        f"interactions_before_filtering={len(log)}",
        f"users_after_filtering={seqs.n_users}",
        f"items_after_filtering={seqs.n_items}",
        f"interactions_after_filtering={kept}",
        f"input_context_values={seqs.scheme.n_input_contexts}",
        f"transition_bins={seqs.scheme.n_transition_bins}",
        f"test_positions={split.n_test_positions}",
    ]) + "\n"
    store.write_atomic(os.path.join(cfg.out, "prepare_stats.txt"), stats, "statistics")
    _echo_config(cfg, "prepare")
    click.echo(stats.rstrip())
    click.echo(f"cache written to {cfg.cache_path()}")


@cli.command("train")
@_common_options
@click.option("--variant", type=click.Choice(list(VARIANTS)), default=None)
@click.option("--d", type=int, default=None)
@click.option("--epochs", type=int, default=None)
@click.option("--lr", "learning_rate", type=float, default=None)
@click.option("--lambda", "l2", type=float, default=None)
@click.option("--cache", default=None, help="Prepared cache path.")
@click.option("--model", default=None, help="Where to write the model file.")
@handle_errors
def train_cmd(config_path, seed, out, variant, d, epochs, learning_rate, l2, cache, model):
    """Train the configured variant on a prepared cache."""
    cfg = load_run_config(config_path, seed=seed, out=out, variant=variant, d=d, epochs=epochs,
                          learning_rate=learning_rate, l2=l2, cache=cache, model=model)
    cfg.cache = cfg.cache_path()  # pin the input so the echoed config is portable
    split = store.read_cache(cfg.cache_path())
    config, tcfg = _configs(cfg, split.sequences.scheme, split.sequences.n_items)
    params, trace = train(split, init_params(config), tcfg)
    os.makedirs(cfg.out, exist_ok=True)
    save_params(params, cfg.model_path())
    write_loss_trace(trace, os.path.join(cfg.out, "loss.csv"))
    _echo_config(cfg, "train")
    first, last = trace[0], trace[-1]
    click.echo(
        f"trained variant={cfg.variant} d={cfg.d} epochs={cfg.epochs}: "
        f"mean pair loss {first.mean_pair_loss:.6f} (epoch 1) -> "
        f"{last.mean_pair_loss:.6f} (epoch {last.epoch})"
    )
    click.echo(f"model written to {cfg.model_path()}")


@cli.command("eval")
@_common_options
@click.option("--variant", type=click.Choice(ALL_VARIANTS), default=None)
@click.option("--cache", default=None)
@click.option("--model", default=None, help="Model file (ignored for --variant pop).")
@handle_errors
def eval_cmd(config_path, seed, out, variant, cache, model):
    """Rank every held-out position and report Recall@k, F1@k, MAP, NDCG."""
    cfg = load_run_config(config_path, seed=seed, out=out, variant=variant,
                          cache=cache, model=model)
    cfg.cache = cfg.cache_path()  # pin inputs so the echoed config is portable
    if cfg.variant != "pop":
        cfg.model = cfg.model_path()
    split = store.read_cache(cfg.cache_path())
    if cfg.variant == "pop":
        label = "pop"
        report = pop_baseline(split, cfg.ks)
    else:
        params = load_params(cfg.model_path(), seed=cfg.seed)
        label = variant_of(params)
        report = evaluate(split, params, ks=cfg.ks)
    os.makedirs(cfg.out, exist_ok=True)
    store.write_atomic(os.path.join(cfg.out, "metrics.json"), report_to_json(report), "report")
    _echo_config(cfg, "eval")
    click.echo(format_report_table(report, label))
    click.echo(f"report written to {os.path.join(cfg.out, 'metrics.json')}")


@cli.command("predict")
@_common_options
@click.option("--user", required=True, help="User id as it appears in the dataset.")
@click.option("--timestamp", type=int, required=True,
              help="Prediction time (Unix seconds, >= the user's last training event "
                   "and before 10000-01-01 UTC less 14 h).")
@click.option("--k", type=click.IntRange(min=1), default=10, show_default=True,
              help="Number of items to print (at least 1; past the vocabulary, all).")
@click.option("--cache", default=None)
@click.option("--model", default=None)
@handle_errors
def predict_cmd(config_path, seed, out, user, timestamp, k, cache, model):
    """Score all items for one user at one timestamp and print the top k."""
    cfg = load_run_config(config_path, seed=seed, out=out, cache=cache, model=model)
    split = store.read_cache(cfg.cache_path())
    params = load_params(cfg.model_path(), seed=cfg.seed)
    seqs = split.sequences
    check_compatibility(params, seqs)
    uidx = seqs.user_vocab.get(user)
    if uidx is None:
        raise DataError(f"unknown user {user!r}")
    n_tr, start = int(split.n_train[uidx]), seqs.offsets.item(uidx)
    at = slice(start, start + n_tr)
    events = seqs.items[at], seqs.input_ctxs[at], seqs.trans_bins[at]
    params.check_ids(*events)
    # with no training history the query is the user's first step: start bin, zero state
    last_t = seqs.timestamps.item(start + n_tr - 1) if n_tr else None
    ctx, bin_ = query_context(timestamp, last_t, seqs.scheme)
    h = unroll(*step_inputs(*events, params))[-1]
    scores = score_all(h[None], ctx, bin_, params)[0]
    item_ids = seqs.item_ids()
    click.echo(f"user={user} timestamp={timestamp} input_context={ctx} transition_bin={bin_}")
    for rank, idx in enumerate(top_n(scores, k).tolist(), start=1):
        click.echo(f"{rank}\t{item_ids[idx]}\t{scores[idx]:.6f}")


def _gradcheck_fixture(seed: int):
    """Tiny model, sequence and training config for gradient verification:
    d=3, 5 items, 2 input contexts, 3 transition bins, one length-6
    sequence, an unlimited BPTT window."""
    from .data import UserSequence

    config = ModelConfig(d=3, n_items=5, n_input_contexts=2, n_transition_bins=3,
                         seed=seed)
    params = init_params(config)
    rng = named_rng(seed, "synthetic")
    length = 6
    items = rng.integers(0, config.n_items, size=length).astype(np.int64)
    ts = (np.arange(length, dtype=np.int64) * 86400)
    ctx = rng.integers(0, config.n_input_contexts, size=length).astype(np.int64)
    bins = rng.integers(0, config.n_transition_bins, size=length).astype(np.int64)
    bins[0] = config.n_transition_bins - 1  # reserved start slot
    seq = UserSequence("probe", items, ts, ctx, bins)
    return params, seq, TrainConfig(seed=seed)


@cli.command("gradcheck")
@click.option("--epsilon", type=float, default=1e-5, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--tolerance", type=float, default=1e-4, show_default=True)
@handle_errors
def gradcheck_cmd(epsilon, seed, tolerance):
    """Verify analytic gradients against central finite differences."""
    report = gradient_check(*_gradcheck_fixture(seed), epsilon=epsilon)
    click.echo(f"checked {report.n_coordinates} coordinates at epsilon={report.epsilon:g}")
    click.echo(
        f"max relative error {report.max_rel_error:.3e} "
        f"at {report.worst_bank}{list(report.worst_index)}"
    )
    click.echo(f"mean relative error {report.mean_rel_error:.3e}")
    if not report.passed(tolerance):
        raise NumericalError(
            f"gradient mismatch: max relative error {report.max_rel_error:.3e} "
            f"at {report.worst_bank}{list(report.worst_index)} exceeds {tolerance:g}"
        )
    click.echo("gradient check passed")


@cli.command("sweep")
@_common_options
@click.option("--d-values", "d_values", default="10",
              help="Comma-separated dimensionalities.", show_default=True)
@click.option("--variants", "variants_opt", default="rnn,input,transition,carnn",
              show_default=True)
@click.option("--cache", default=None)
@handle_errors
def sweep_cmd(config_path, seed, out, d_values, variants_opt, cache):
    """Train and evaluate every variant at every dimensionality; emit a CSV."""
    cfg = load_run_config(config_path, seed=seed, out=out, cache=cache)
    try:
        ds = [int(x) for x in d_values.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --d-values {d_values!r}") from exc
    variants = [v.strip() for v in variants_opt.split(",") if v.strip()]
    unknown = [v for v in variants if v not in VARIANTS]
    if not ds or unknown:
        raise ConfigError(f"bad sweep grid: d_values={ds}, unknown variants={unknown}")
    cfg.cache = cfg.cache_path()
    split = store.read_cache(cfg.cache_path())
    scheme = split.sequences.scheme
    os.makedirs(cfg.out, exist_ok=True)

    metrics = metric_keys(cfg.ks)
    rows = [",".join(["variant", "d", "status"] + metrics)]
    for variant in variants:
        for d in ds:
            try:
                config, tcfg = _configs(cfg, scheme, split.sequences.n_items, variant=variant, d=d)
                params, _ = train(split, init_params(config), tcfg)
                report = evaluate(split, params, ks=cfg.ks)
                cells = [variant, str(d), "ok"] + [repr(v) for _, v in metric_pairs(report)]
            except NumericalError as exc:  # a bad setting fails every cell: it stops the sweep
                cells = [variant, str(d), f"error:{type(exc).__name__}"] + [""] * len(metrics)
                click.echo(f"sweep cell variant={variant} d={d} failed: {exc}", err=True)
            rows.append(",".join(cells))
            click.echo(f"swept variant={variant} d={d}")
    sweep_path = os.path.join(cfg.out, "sweep.csv")
    store.write_atomic(sweep_path, "\n".join(rows) + "\n", "sweep table")
    _echo_config(cfg, "sweep")
    click.echo(f"sweep written to {sweep_path}")


def main():
    cli()


if __name__ == "__main__":
    main()
