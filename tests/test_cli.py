import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from carnn import store, training
from carnn.cli import cli, config_text, load_run_config
from carnn.errors import (CompatibilityError, ConfigError, DataError, FormatError,
                          InputOutputError, NumericalError)
from carnn.evaluate import generate_synthetic, write_interactions_csv
from carnn.model import load_params, save_params
from conftest import (corrupt_first_user_id, patch_cache, version_1_cache, version_1_model,
                      version_2_cache)
from references import forward_states, reference_step


runner = CliRunner()
# the cache of TestPrepare.test_cache_is_byte_identical_across_formats in
# format 4; it reads back as the line-by-line parser's format-2 cache did
FORMATS_CACHE_SHA256 = "78c8492d13921cc92e4c965e1da96cd1b4ca613a58a5434c73de36da058f9550"
# the cache of the workdir fixture's corpus; it holds no floats, so the digest
# does not depend on the BLAS build
WORKDIR_CACHE_SHA256 = "2b86735fd72e2434ed755803f1fe89e79e870329c599c5689f0ddd9bfab9a572"


def invoke(*args):
    return runner.invoke(cli, list(args))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Synthetic planted-signal dataset prepared and trained once per module."""
    root = tmp_path_factory.mktemp("cli")
    seqs, _ = generate_synthetic(30, 40, 40, 4, signal="input_ctx", seed=77)
    csv_path = str(root / "events.csv")
    write_interactions_csv(seqs, csv_path)
    cfg_path = str(root / "run.cfg")
    out = str(root / "out")
    with open(cfg_path, "w") as fh:
        fh.write("\n".join([
            f"dataset={csv_path}",
            "format=csv",
            "factors=hour_of_day",
            "min_user=2",
            "min_item=1",
            "split_ratio=0.8",
            "d=6",
            "epochs=10",
            "lr=0.05",
            "lambda=0.01",
            "seed=0",
            f"out={out}",
        ]) + "\n")
    result = invoke("prepare", "--config", cfg_path)
    assert result.exit_code == 0, result.output
    cache = os.path.join(out, "cache.bin")

    models = {}
    for variant in ("carnn", "rnn"):
        vout = str(root / f"out-{variant}")
        result = invoke("train", "--config", cfg_path, "--variant", variant,
                        "--out", vout, "--cache", cache)
        assert result.exit_code == 0, result.output
        models[variant] = os.path.join(vout, "model.carn")
    return {"root": root, "csv": csv_path, "cfg": cfg_path, "out": out,
            "cache": cache, "models": models}


@pytest.fixture(scope="module")
def by_factors(workdir):
    """The CLI corpus prepared under 7 input contexts (day of week) and 168
    (day of week by hour of day), each with a one-epoch model of every
    variant: factors -> (config, cache, {variant: model})."""
    out = {}
    for factors in ("day_of_week", "day_of_week,hour_of_day"):
        root = workdir["root"] / factors.replace(",", "-")
        root.mkdir()
        cfg = str(root / "run.cfg")
        with open(workdir["cfg"]) as src, open(cfg, "w") as dst:
            for line in src:
                key = line.split("=", 1)[0]
                dst.write({"factors": f"factors={factors}\n", "epochs": "epochs=1\n",
                           "out": f"out={root}\n"}.get(key, line))
        assert invoke("prepare", "--config", cfg).exit_code == 0
        cache = str(root / "cache.bin")
        models = {}
        for variant in ("carnn", "rnn"):
            result = invoke("train", "--config", cfg, "--variant", variant,
                            "--out", str(root / variant), "--cache", cache)
            assert result.exit_code == 0, result.output
            models[variant] = str(root / variant / "model.carn")
        out[factors] = (cfg, cache, models)
    return out


class TestRunConfig:
    def test_file_parsing_and_overrides(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("# comment\nd=7\nlambda=0.5\nbptt_window=none\nks=1,5\nshuffle=false\n")
        cfg = load_run_config(str(path), seed=9)
        assert cfg.d == 7 and cfg.l2 == 0.5 and cfg.bptt_window is None
        assert cfg.ks == (1, 5) and cfg.shuffle is False and cfg.seed == 9

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("mystery=1\n")
        with pytest.raises(ConfigError):
            load_run_config(str(path))

    def test_text_round_trip(self, tmp_path):
        cfg = load_run_config(None, d=13, variant="input", ks=(1, 5))
        path = tmp_path / "echo.cfg"
        path.write_text(config_text(cfg))
        again = load_run_config(str(path))
        assert again == cfg

    @pytest.mark.parametrize("ks", [(5, 1), (1, 1, 5)])
    def test_unsorted_or_repeated_ks_rejected(self, ks):
        # a repeated cutoff would give sweep.csv a column that metrics.json lacks
        with pytest.raises(ConfigError, match="increasing"):
            load_run_config(None, ks=ks)

    @pytest.mark.parametrize("ks,message", [((0, 5), "must be >= 1"), ((-1, 5), "must be >= 1"),
                                            ((2.5, 5), "is not a whole number")])
    def test_ks_entry_not_a_whole_number_of_at_least_1_rejected(self, ks, message):
        with pytest.raises(ConfigError, match=message):
            load_run_config(None, ks=ks)


class TestPrepare:
    def test_stats_reported(self, workdir):
        stats = Path(os.path.join(workdir["out"], "prepare_stats.txt")).read_text()
        assert "records_parsed=1200" in stats
        assert "users_after_filtering=30" in stats
        assert "items_after_filtering=40" in stats
        assert "input_context_values=24" in stats
        assert "test_positions=240" in stats

    def test_cache_is_byte_identical_across_runs(self, workdir, tmp_path):
        out2 = str(tmp_path / "again")
        result = invoke("prepare", "--config", workdir["cfg"], "--out", out2)
        assert result.exit_code == 0, result.output
        a = Path(workdir["cache"]).read_bytes()
        b = Path(os.path.join(out2, "cache.bin")).read_bytes()
        assert a == b

    def test_cache_round_trips_through_reader(self, workdir):
        split = store.read_cache(workdir["cache"])
        assert split.sequences.n_users == 30
        assert split.sequences.n_items == 40
        assert split.sequences.annotated

    def test_cache_matches_its_pinned_digest(self, workdir):
        assert hashlib.sha256(Path(workdir["cache"]).read_bytes()).hexdigest() == WORKDIR_CACHE_SHA256

    def test_missing_dataset_is_config_error(self, tmp_path):
        result = invoke("prepare", "--out", str(tmp_path / "o"))
        assert result.exit_code == ConfigError.exit_code

    def test_unreadable_dataset_is_io_error(self, tmp_path):
        result = invoke("prepare", "--dataset", str(tmp_path / "missing.csv"),
                        "--out", str(tmp_path / "o"))
        assert result.exit_code == InputOutputError.exit_code

    def test_empty_dataset_is_data_error(self, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text("")
        result = invoke("prepare", "--dataset", str(src), "--out", str(tmp_path / "o"))
        assert result.exit_code == DataError.exit_code

    @pytest.mark.parametrize("timestamp", ["1000000000000", "100000000000000000000"])
    def test_timestamp_past_year_9999_is_a_counted_reject(self, tmp_path, timestamp):
        src = tmp_path / "big.dat"
        src.write_text("1::10::5::978300760\n1::11::5::978300800\n2::10::5::978300900\n"
                       f"2::11::5::978301000\n1::10::5::{timestamp}\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("min_user=2\nmin_item=1\n")
        result = invoke("prepare", "--config", str(cfg), "--dataset", str(src),
                        "--format", "movielens_dat", "--out", str(tmp_path / "o"))
        assert result.exit_code == 0, result.output
        assert "records_parsed=4" in result.output
        assert "records_rejected=1" in result.output

    def test_ids_only_on_rejected_lines_are_not_counted(self, tmp_path):
        # user "ghost" and item "99" appear only on lines that reject: a bad
        # timestamp, a missing field, and an empty item id
        src = tmp_path / "r.dat"
        src.write_text("1::10::5::978300760\n1::11::5::978300800\n2::10::5::978300900\n"
                       "2::11::5::978301000\nghost::99::5::-1\nghost::99::5\nghost::::5::978301100\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("min_user=2\nmin_item=1\n")
        out = tmp_path / "o"
        result = invoke("prepare", "--config", str(cfg), "--dataset", str(src),
                        "--format", "movielens_dat", "--out", str(out))
        assert result.exit_code == 0, result.output
        stats = (out / "prepare_stats.txt").read_text().splitlines()
        assert {"records_parsed=4", "records_rejected=3", "users_before_filtering=2",
                "items_before_filtering=2"} <= set(stats)

    def test_cache_is_byte_identical_across_formats(self, tmp_path):
        # one literal log, so that no random generator can drift it, written as
        # "::" with malformed lines, as tsv with a header, and as csv with CRLF
        events = [("1", "10", 978300760), ("1", "11", 978300790), ("2", "10", 978302000),
                  ("1", "éclair", 978307200), ("3", "a-long-item-id", 978310000),
                  ("2", "11", 978393600), ("3", "10", 978400000), ("2", "éclair", 978480000),
                  ("1", "a-long-item-id", 978566400), ("3", "11", 978570000),
                  ("2", "a-long-item-id", 978652800), ("3", "éclair", 978739200),
                  ("1", "10", 979000000), ("2", "10", 979086400), ("3", "10", 979172800)]
        dat = [f"{u}::{i}::4::{t}" for u, i, t in events]
        dat[3:3] = ["just garbage"]
        dat[9:9] = ["1::10::4"]
        texts = {"movielens_dat": "\n".join(dat) + "\n",
                 "tsv": "user\titem\ttimestamp\n" + "".join(f"{u}\t{i}\t{t}\n" for u, i, t in events),
                 "csv": "".join(f"{u},{i},{t}\r\n" for u, i, t in events)}
        cfg = tmp_path / "c.cfg"
        cfg.write_text("min_user=2\nmin_item=1\n")
        caches = {}
        for fmt, text in texts.items():
            src = tmp_path / f"log.{fmt}"
            src.write_bytes(text.encode())
            result = invoke("prepare", "--config", str(cfg), "--dataset", str(src),
                            "--format", fmt, "--out", str(tmp_path / fmt))
            assert result.exit_code == 0, result.output
            assert f"records_rejected={2 if fmt == 'movielens_dat' else 0}" in result.output
            caches[fmt] = (tmp_path / fmt / "cache.bin").read_bytes()
        assert caches["tsv"] == caches["movielens_dat"] == caches["csv"]
        assert hashlib.sha256(caches["csv"]).hexdigest() == FORMATS_CACHE_SHA256

    @pytest.mark.parametrize("days", [2**32 - 1, 2**32])
    def test_start_bin_past_u32_is_config_error(self, workdir, tmp_path, days):
        # 2**32 broke the cache writer; 2**32 - 1 wrote a start bin that wrapped to 0
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"min_user=2\nmin_item=1\nmax_interval_days={days}\n")
        result = invoke("prepare", "--config", str(cfg), "--dataset", workdir["csv"],
                        "--out", str(tmp_path / "o"))
        assert result.exit_code == ConfigError.exit_code, result.output
        assert "max_interval_days must be in" in result.output
        assert not os.path.exists(tmp_path / "o" / "cache.bin")

    def test_wrong_format_is_format_error(self, tmp_path):
        src = tmp_path / "events.csv"
        src.write_text("1::2::3::4\n5::6::7::8\na::b::c::d\n")
        result = invoke("prepare", "--dataset", str(src), "--format", "csv",
                        "--out", str(tmp_path / "o"))
        assert result.exit_code == FormatError.exit_code

    @pytest.mark.parametrize("bad, error", [("events.csv", FormatError), ("run.cfg", ConfigError),
                                            ("holidays.txt", ConfigError)])
    def test_non_utf8_file_exits_through_the_contract(self, tmp_path, bad, error):
        files = {"events.csv": b"u1,i1,100\nu1,i2,200\nu2,i1,300\nu2,i2,400\n",
                 "run.cfg": b"min_user=2\nmin_item=1\nholidays=%s\n" % bytes(tmp_path / "holidays.txt"),
                 "holidays.txt": b"2000-01-01\n"}
        files[bad] += b"u\xff2,i2,200\n"
        for name, content in files.items():
            (tmp_path / name).write_bytes(content)
        result = invoke("prepare", "--config", str(tmp_path / "run.cfg"),
                        "--dataset", str(tmp_path / "events.csv"), "--out", str(tmp_path / "o"))
        assert result.exit_code == error.exit_code, result.output
        assert "UTF-8" in result.output or "utf-8" in result.output

    @pytest.mark.parametrize("key, error, message", [
        ("max_interval_days=0", ConfigError, "max_interval_days must be in"),
        ("holidays={holidays}", InputOutputError, "cannot read holiday file {holidays}")],
        ids=["max_interval_days", "holiday_file"])
    def test_scheme_is_checked_before_the_dataset(self, tmp_path, key, error, message):
        # a bad scheme or holiday file fails before any output or parse, so a
        # missing dataset is not what is reported
        holidays = tmp_path / "no" / "holidays.txt"
        (tmp_path / "run.cfg").write_text(key.format(holidays=holidays) + "\n")
        result = invoke("prepare", "--config", str(tmp_path / "run.cfg"),
                        "--dataset", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o"))
        assert result.exit_code == error.exit_code, result.output
        assert message.format(holidays=holidays) in result.output
        assert not os.path.exists(tmp_path / "o")

    def test_missing_holiday_file_is_an_io_error(self, tmp_path):
        (tmp_path / "events.csv").write_bytes(b"u1,i1,100\nu1,i2,200\nu2,i1,300\nu2,i2,400\n")
        (tmp_path / "run.cfg").write_text(f"min_user=2\nmin_item=1\n"
                                          f"holidays={tmp_path / 'no' / 'such' / 'file'}\n")
        result = invoke("prepare", "--config", str(tmp_path / "run.cfg"),
                        "--dataset", str(tmp_path / "events.csv"), "--out", str(tmp_path / "o"))
        assert result.exit_code == InputOutputError.exit_code, result.output
        assert "cannot read holiday file" in result.output


class TestTrain:
    def test_model_and_loss_trace_written(self, workdir):
        model = workdir["models"]["carnn"]
        assert os.path.exists(model)
        loss = Path(os.path.join(os.path.dirname(model), "loss.csv")).read_text().splitlines()
        assert loss[0] == "epoch,mean_pair_loss,wall_seconds"
        assert len(loss) == 11

    def test_banks_past_physical_memory_exit_2(self, workdir, tmp_path):
        result = invoke("train", "--config", workdir["cfg"], "--out", str(tmp_path),
                        "--cache", workdir["cache"], "--d", "1000000000000")
        assert result.exit_code == ConfigError.exit_code, result.output
        assert "bytes of physical memory" in result.output
        assert not os.path.exists(tmp_path / "model.carn")

    def test_context_blind_variant_declares_singleton_banks(self, workdir):
        params = load_params(workdir["models"]["rnn"])
        assert params.config.n_input_contexts == 1
        assert params.config.n_transition_bins == 1

    def test_same_seed_is_byte_identical(self, workdir, tmp_path):
        out2 = str(tmp_path / "again")
        result = invoke("train", "--config", workdir["cfg"], "--variant", "carnn",
                        "--out", out2, "--cache", workdir["cache"])
        assert result.exit_code == 0, result.output
        a = Path(workdir["models"]["carnn"]).read_bytes()
        b = Path(os.path.join(out2, "model.carn")).read_bytes()
        assert a == b

    def test_effective_config_reproduces_run(self, workdir, tmp_path):
        echoed = os.path.join(os.path.dirname(workdir["models"]["carnn"]),
                              "train.effective.cfg")
        out2 = str(tmp_path / "refed")
        result = invoke("train", "--config", echoed, "--out", out2)
        assert result.exit_code == 0, result.output
        a = Path(workdir["models"]["carnn"]).read_bytes()
        b = Path(os.path.join(out2, "model.carn")).read_bytes()
        assert a == b

    def test_echoed_config_pins_derived_cache_path(self, workdir, tmp_path):
        # train with the cache path left implicit, then refeed the echo into
        # a fresh output directory: the pinned input must still resolve
        result = invoke("train", "--config", workdir["cfg"], "--variant", "carnn")
        assert result.exit_code == 0, result.output
        echoed = os.path.join(workdir["out"], "train.effective.cfg")
        assert f"cache={workdir['cache']}" in Path(echoed).read_text()
        out2 = str(tmp_path / "elsewhere")
        result = invoke("train", "--config", echoed, "--out", out2)
        assert result.exit_code == 0, result.output
        a = Path(os.path.join(workdir["out"], "model.carn")).read_bytes()
        b = Path(os.path.join(out2, "model.carn")).read_bytes()
        assert a == b

    def test_missing_cache_is_io_error(self, workdir, tmp_path):
        result = invoke("train", "--config", workdir["cfg"],
                        "--cache", str(tmp_path / "none.bin"), "--out", str(tmp_path / "o"))
        assert result.exit_code == InputOutputError.exit_code

    @pytest.mark.parametrize("option,value", [("--lr", "nan"), ("--lr", "inf"),
                                              ("--lambda", "inf"), ("--lr", "-0.5")])
    def test_non_finite_or_negative_rate_is_config_error(self, workdir, tmp_path, option,
                                                         value):
        result = invoke("train", "--config", workdir["cfg"], "--cache", workdir["cache"],
                        "--out", str(tmp_path / "o"), option, value)
        assert result.exit_code == ConfigError.exit_code, result.output
        assert not os.path.exists(tmp_path / "o" / "model.carn")

    def test_negatives_past_physical_memory_is_config_error(self, workdir, tmp_path,
                                                            monkeypatch):
        def unreached(*args):
            raise AssertionError("negatives drawn")

        monkeypatch.setattr(training, "make_examples", unreached)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(Path(workdir["cfg"]).read_text() + "negatives=1000000000000000\n")
        result = invoke("train", "--config", str(cfg), "--cache", workdir["cache"],
                        "--out", str(tmp_path / "o"))
        assert result.exit_code == ConfigError.exit_code, result.output
        assert "negatives_per_positive=1000000000000000 takes" in result.output
        assert not os.path.exists(tmp_path / "o" / "model.carn")

    def test_bank_gathers_past_physical_memory_is_config_error(self, workdir, tmp_path,
                                                               monkeypatch):
        # at d=40 a user's (n_train, d, d) gathers take 20 times the bytes of
        # its (n_train, 2, d) scored rows; the memory sits between the two
        def unreached(*args):
            raise AssertionError("negatives drawn")

        monkeypatch.setattr(training, "make_examples", unreached)
        monkeypatch.setattr(training, "physical_memory", lambda: 100_000)
        result = invoke("train", "--config", workdir["cfg"], "--cache", workdir["cache"],
                        "--out", str(tmp_path / "o"), "--d", "40")
        assert result.exit_code == ConfigError.exit_code, result.output
        assert "training events at d=40" in result.output
        assert not os.path.exists(tmp_path / "o" / "model.carn")

    def test_overflowing_step_exits_numerical(self, workdir, tmp_path):
        out = tmp_path / "o"
        result = invoke("train", "--config", workdir["cfg"], "--cache", workdir["cache"],
                        "--out", str(out), "--lr", "1e305", "--lambda", "1e308")
        assert result.exit_code == NumericalError.exit_code, result.output
        assert "step overflowed" in result.output
        assert not os.path.exists(out / "model.carn")

    @pytest.mark.parametrize("field,value,message", [
        ("n_train", 99, "n_train=99"),
        ("timestamps", 2**37 // 86400 * 86400, "before the previous 137438899200"),
        ("trans_bins", 0, "event 0 has gap bin 0, not the start bin"),
    ])
    def test_corrupt_cache_is_format_error(self, workdir, tmp_path, field, value, message):
        cache = str(tmp_path / "cache.bin")
        with open(workdir["cache"], "rb") as src, open(cache, "wb") as dst:
            dst.write(src.read())
        patch_cache(cache, field, value)
        result = invoke("train", "--config", workdir["cfg"], "--cache", cache,
                        "--out", str(tmp_path / "o"))
        assert result.exit_code == FormatError.exit_code, result.output
        assert message in result.output
        assert not os.path.exists(tmp_path / "o" / "model.carn")


class TestEval:
    def eval_variant(self, workdir, tmp_path, variant, model=None):
        out = str(tmp_path / f"eval-{variant}")
        args = ["eval", "--config", workdir["cfg"], "--variant", variant,
                "--out", out, "--cache", workdir["cache"]]
        if model:
            args += ["--model", model]
        result = invoke(*args)
        assert result.exit_code == 0, result.output
        return result, json.loads(Path(os.path.join(out, "metrics.json")).read_text()), out

    def test_console_table_columns(self, workdir, tmp_path):
        result, _, _ = self.eval_variant(workdir, tmp_path, "carnn",
                                         workdir["models"]["carnn"])
        assert "Recall@1" in result.output and "NDCG" in result.output

    def test_report_reload_equals_in_memory(self, workdir, tmp_path):
        _, raw, out = self.eval_variant(workdir, tmp_path, "carnn",
                                        workdir["models"]["carnn"])
        from carnn.evaluate import evaluate
        split = store.read_cache(workdir["cache"])
        rep = evaluate(split, load_params(workdir["models"]["carnn"]))
        assert raw == {**{f"recall@{k}": v for k, v in rep.recall_at.items()},
                       **{f"f1@{k}": v for k, v in rep.f1_at.items()},
                       "map": rep.map_score, "ndcg": rep.ndcg, "n_positions": rep.n_positions}

    @pytest.mark.parametrize("ks", ["0,5", "-1,5"])
    def test_ks_below_1_in_the_config_file_is_config_error(self, workdir, tmp_path, ks):
        cfg = tmp_path / "ks.cfg"
        cfg.write_text(Path(workdir["cfg"]).read_text() + f"ks={ks}\n")
        out = tmp_path / "eval"
        result = invoke("eval", "--config", str(cfg), "--variant", "carnn", "--out", str(out),
                        "--cache", workdir["cache"], "--model", workdir["models"]["carnn"])
        assert result.exit_code == ConfigError.exit_code, result.output
        assert "must be >= 1" in result.output
        assert not (out / "metrics.json").exists()

    def test_pop_baseline_needs_no_model(self, workdir, tmp_path):
        _, raw, _ = self.eval_variant(workdir, tmp_path, "pop")
        assert 0.0 <= raw["recall@1"] <= 1.0

    def test_context_model_beats_plain_on_planted_signal(self, workdir, tmp_path):
        _, carnn_raw, _ = self.eval_variant(workdir, tmp_path, "carnn",
                                            workdir["models"]["carnn"])
        _, rnn_raw, _ = self.eval_variant(workdir, tmp_path, "rnn",
                                          workdir["models"]["rnn"])
        assert carnn_raw["recall@1"] > rnn_raw["recall@1"]

    def test_f1_identity_on_emitted_report(self, workdir, tmp_path):
        _, raw, _ = self.eval_variant(workdir, tmp_path, "carnn",
                                      workdir["models"]["carnn"])
        for k in (1, 5, 10):
            assert abs(raw[f"f1@{k}"] - 2 * raw[f"recall@{k}"] / (k + 1)) < 1e-12

    def test_vocabulary_mismatch_names_both_sizes(self, workdir, tmp_path):
        # model trained against a smaller vocabulary
        seqs, _ = generate_synthetic(10, 12, 20, 4, signal="input_ctx", seed=5)
        csv_path = str(tmp_path / "small.csv")
        write_interactions_csv(seqs, csv_path)
        out = str(tmp_path / "small-out")
        assert invoke("prepare", "--config", workdir["cfg"], "--dataset", csv_path,
                      "--out", out).exit_code == 0
        assert invoke("train", "--config", workdir["cfg"], "--out", out,
                      "--cache", os.path.join(out, "cache.bin")).exit_code == 0
        result = invoke("eval", "--config", workdir["cfg"], "--cache", workdir["cache"],
                        "--model", os.path.join(out, "model.carn"),
                        "--out", str(tmp_path / "x"))
        assert result.exit_code == CompatibilityError.exit_code
        assert "12" in result.output and "40" in result.output

    def test_nan_model_exits_numerical(self, workdir, tmp_path):
        params = load_params(workdir["models"]["carnn"])
        params.R[:] = np.nan
        path = str(tmp_path / "nan.carn")
        save_params(params, path)
        out = str(tmp_path / "eval-nan")
        result = invoke("eval", "--config", workdir["cfg"], "--variant", "carnn",
                        "--out", out, "--cache", workdir["cache"], "--model", path)
        assert result.exit_code == NumericalError.exit_code
        assert "non-finite value in R[0]" in result.output
        assert not os.path.exists(os.path.join(out, "metrics.json"))

    @pytest.mark.parametrize("old_cache", [version_1_cache, version_2_cache])
    def test_version_1_cache_exits_compatibility(self, workdir, tmp_path, old_cache):
        cache = tmp_path / "cache.bin"
        cache.write_bytes(old_cache(store.read_cache(workdir["cache"])))
        out = tmp_path / "o"
        result = invoke("eval", "--config", workdir["cfg"], "--variant", "carnn",
                        "--out", str(out), "--cache", str(cache),
                        "--model", workdir["models"]["carnn"])
        assert result.exit_code == CompatibilityError.exit_code, result.output
        assert "re-run `carnn prepare`" in result.output
        assert not os.path.exists(out / "metrics.json")

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_version_1_model_exits_compatibility(self, workdir, tmp_path, command):
        model = tmp_path / "model.carn"
        model.write_bytes(version_1_model(load_params(workdir["models"]["carnn"])))
        extra = (["--variant", "carnn", "--out", str(tmp_path / "o")] if command == "eval"
                 else ["--user", "u0", "--timestamp", "2000000000"])
        result = invoke(command, "--config", workdir["cfg"], "--cache", workdir["cache"],
                        "--model", str(model), *extra)
        assert result.exit_code == CompatibilityError.exit_code, result.output
        assert "model file format 1 is no longer read; re-run `carnn train`" in result.output
        assert not os.path.exists(tmp_path / "o" / "metrics.json")

    def test_non_utf8_user_id_in_cache_exits_format(self, workdir, tmp_path):
        cache = str(tmp_path / "cache.bin")
        with open(workdir["cache"], "rb") as src, open(cache, "wb") as dst:
            dst.write(src.read())
        corrupt_first_user_id(cache)
        result = invoke("eval", "--config", workdir["cfg"], "--variant", "carnn",
                        "--out", str(tmp_path / "o"), "--cache", cache,
                        "--model", workdir["models"]["carnn"])
        assert result.exit_code == FormatError.exit_code, result.output
        assert "is not UTF-8" in result.output

    def test_byte_identical_reports(self, workdir, tmp_path):
        _, _, out_a = self.eval_variant(workdir, tmp_path, "carnn", workdir["models"]["carnn"])
        out_b = str(tmp_path / "eval-b")
        result = invoke("eval", "--config", workdir["cfg"], "--variant", "carnn",
                        "--out", out_b, "--cache", workdir["cache"],
                        "--model", workdir["models"]["carnn"])
        assert result.exit_code == 0
        a = Path(os.path.join(out_a, "metrics.json")).read_bytes()
        b = Path(os.path.join(out_b, "metrics.json")).read_bytes()
        assert a == b


class TestCompatibility:
    """A model must fit the cache it is used with: the same item count and,
    for each switched-on bank, the cache's number of contexts."""

    @staticmethod
    def run(command, by_factors, data, trained, variant, tmp_path):
        cfg, cache, _ = by_factors[data]
        model = by_factors[trained][2][variant]
        if command == "eval":
            return invoke("eval", "--config", cfg, "--variant", variant, "--cache", cache,
                          "--model", model, "--out", str(tmp_path / "o"))
        seq = store.read_cache(cache).sequences.sequences[0]
        return invoke("predict", "--config", cfg, "--cache", cache, "--model", model,
                      "--user", seq.user, "--timestamp", str(int(seq.timestamps[-1]) + 3600))

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize("data,trained", [("day_of_week", "day_of_week,hour_of_day"),
                                              ("day_of_week,hour_of_day", "day_of_week")])
    def test_input_context_count_mismatch_exits_compatibility(self, by_factors, tmp_path,
                                                              command, data, trained):
        result = self.run(command, by_factors, data, trained, "carnn", tmp_path)
        assert result.exit_code == CompatibilityError.exit_code, result.output
        sizes = {"day_of_week": 7, "day_of_week,hour_of_day": 168}
        assert (f"model expects {sizes[trained]} input contexts but the dataset has "
                f"{sizes[data]}") in result.output
        assert not os.path.exists(tmp_path / "o" / "metrics.json")

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize("data,trained", [("day_of_week", "day_of_week,hour_of_day"),
                                              ("day_of_week,hour_of_day", "day_of_week")])
    def test_plain_model_runs_under_any_scheme(self, by_factors, tmp_path, command,
                                               data, trained):
        result = self.run(command, by_factors, data, trained, "rnn", tmp_path)
        assert result.exit_code == 0, result.output


class TestPredict:
    def test_top_k_lines(self, workdir, tmp_path):
        split = store.read_cache(workdir["cache"])
        seq = split.sequences.sequences[0]
        n_tr = int(split.n_train[0])
        t = int(seq.timestamps[n_tr - 1]) + 3600
        result = invoke("predict", "--config", workdir["cfg"], "--cache", workdir["cache"],
                        "--model", workdir["models"]["carnn"],
                        "--user", seq.user, "--timestamp", str(t), "--k", "5")
        assert result.exit_code == 0, result.output
        lines = result.output.strip().splitlines()
        assert len(lines) == 6  # header plus 5 ranked items
        assert lines[1].startswith("1\t")

    def test_k1_is_argmax_of_full_scoring(self, workdir):
        from carnn.context import input_context, transition_bin
        from carnn.model import score_all

        split = store.read_cache(workdir["cache"])
        params = load_params(workdir["models"]["carnn"])
        seq = split.sequences.sequences[0]
        n_tr = int(split.n_train[0])
        t = int(seq.timestamps[n_tr - 1]) + 7200
        result = invoke("predict", "--config", workdir["cfg"], "--cache", workdir["cache"],
                        "--model", workdir["models"]["carnn"],
                        "--user", seq.user, "--timestamp", str(t), "--k", "1")
        assert result.exit_code == 0
        top_item = result.output.strip().splitlines()[1].split("\t")[1]

        h = np.zeros(params.config.d)
        for j in range(n_tr):
            h = reference_step(h, seq.items[j], seq.input_ctxs[j], seq.trans_bins[j], params)
        scheme = split.sequences.scheme
        scores = score_all(h[None], input_context(t, scheme),
                           transition_bin(t, int(seq.timestamps[n_tr - 1]), scheme), params)[0]
        assert top_item == split.sequences.item_ids()[int(np.argmax(scores))]

    @staticmethod
    def predicted(workdir, cache, model, user, t, k):
        result = invoke("predict", "--config", workdir["cfg"], "--cache", cache,
                        "--model", model, "--user", user, "--timestamp", str(t), "--k", str(k))
        assert result.exit_code == 0, result.output
        return result.output.splitlines()

    @staticmethod
    def expected_lines(split, scores, k):
        item_ids = split.sequences.item_ids()
        top = np.argsort(-scores, kind="stable")[:k]
        return [f"{rank}\t{item_ids[i]}\t{scores[i]:.6f}" for rank, i in enumerate(top, 1)]

    @pytest.mark.parametrize("variant", ["carnn", "rnn"])
    def test_every_score_is_the_one_state_replay(self, workdir, variant):
        from carnn.context import input_context, transition_bin
        from carnn.model import score_all

        split = store.read_cache(workdir["cache"])
        params = load_params(workdir["models"][variant])
        scheme = split.sequences.scheme
        n_items = split.sequences.n_items
        for seq, n_tr in zip(split.sequences.sequences, split.n_train.tolist()):
            t = int(seq.timestamps[n_tr - 1]) + 3 * 86400 + 5000
            h = forward_states(seq, params)[n_tr]
            scores = score_all(h[None], input_context(t, scheme),
                               transition_bin(t, int(seq.timestamps[n_tr - 1]), scheme),
                               params)[0]
            for k in (1, 10, n_items):
                lines = self.predicted(workdir, workdir["cache"], workdir["models"][variant],
                                       seq.user, t, k)
                assert lines[1:] == self.expected_lines(split, scores, k)

    def test_checks_only_the_users_training_events(self, workdir, monkeypatch):
        from carnn.model import ModelParams

        split = store.read_cache(workdir["cache"])
        sizes = []
        real = ModelParams.check_ids
        monkeypatch.setattr(ModelParams, "check_ids",
                            lambda p, ids, *rest: sizes.append(len(ids)) or real(p, ids, *rest))
        for u in (0, 5):
            self.predicted(workdir, workdir["cache"], workdir["models"]["carnn"],
                           split.sequences.user_ids()[u], 2_000_000_000, 3)
        assert sizes == [int(split.n_train[0]), int(split.n_train[5])]

    @pytest.mark.parametrize("k", ["0", "-38", "2.5", "ten"])
    def test_k_not_a_whole_number_of_at_least_1_is_config_error(self, workdir, k):
        seq = store.read_cache(workdir["cache"]).sequences.sequences[0]
        result = invoke("predict", "--config", workdir["cfg"], "--cache", workdir["cache"],
                        "--model", workdir["models"]["carnn"], "--user", seq.user,
                        "--timestamp", str(int(seq.timestamps[-1]) + 3600), "--k", k)
        assert result.exit_code == ConfigError.exit_code, result.output
        assert "Invalid value for '--k'" in result.output

    def test_no_training_history_starts_from_the_zero_state(self, workdir, tmp_path):
        from carnn.context import input_context
        from carnn.model import score_all

        cache = str(tmp_path / "cache.bin")
        with open(workdir["cache"], "rb") as src, open(cache, "wb") as dst:
            dst.write(src.read())
        patch_cache(cache, "n_train", 0)
        split = store.read_cache(cache)
        seq = split.sequences.sequences[0]
        scheme = split.sequences.scheme
        params = load_params(workdir["models"]["carnn"])
        # before the first held-out event, and after the last one
        for t in (int(seq.timestamps[0]) - 3600, int(seq.timestamps[-1]) + 86400):
            lines = self.predicted(workdir, cache, workdir["models"]["carnn"], seq.user, t, 5)
            ctx = input_context(t, scheme)
            assert lines[0] == (f"user={seq.user} timestamp={t} input_context={ctx} "
                                f"transition_bin={scheme.start_bin}")
            scores = score_all(np.zeros((1, params.config.d)), ctx, scheme.start_bin, params)[0]
            assert lines[1:] == self.expected_lines(split, scores, 5)

    def test_identical_context_cells_identical_rankings(self, workdir):
        split = store.read_cache(workdir["cache"])
        seq = split.sequences.sequences[0]
        n_tr = int(split.n_train[0])
        base = int(seq.timestamps[n_tr - 1])
        args = ["predict", "--config", workdir["cfg"], "--cache", workdir["cache"],
                "--model", workdir["models"]["carnn"], "--user", seq.user, "--k", "3"]
        # same hour of day, same whole-day gap: identical cells
        a = invoke(*args, "--timestamp", str(base + 600))
        b = invoke(*args, "--timestamp", str(base + 1200))
        assert a.output.splitlines()[1:] == b.output.splitlines()[1:]

    def test_long_horizon_uses_top_interval_bin(self, workdir):
        split = store.read_cache(workdir["cache"])
        seq = split.sequences.sequences[0]
        n_tr = int(split.n_train[0])
        t = int(seq.timestamps[n_tr - 1]) + 40 * 86400
        result = invoke("predict", "--config", workdir["cfg"], "--cache", workdir["cache"],
                        "--model", workdir["models"]["carnn"],
                        "--user", seq.user, "--timestamp", str(t), "--k", "1")
        assert result.exit_code == 0
        assert "transition_bin=30" in result.output

    def test_unknown_user_is_data_error(self, workdir):
        result = invoke("predict", "--config", workdir["cfg"], "--cache", workdir["cache"],
                        "--model", workdir["models"]["carnn"],
                        "--user", "ghost", "--timestamp", "99999999999")
        assert result.exit_code == DataError.exit_code

    @pytest.mark.parametrize("timestamp", [10**12, 10**20, -10**12])
    def test_timestamp_out_of_range_is_config_error(self, workdir, timestamp):
        split = store.read_cache(workdir["cache"])
        result = invoke("predict", "--config", workdir["cfg"], "--cache", workdir["cache"],
                        "--model", workdir["models"]["carnn"],
                        "--user", split.sequences.sequences[0].user,
                        "--timestamp", str(timestamp))
        assert result.exit_code == ConfigError.exit_code, result.output
        assert f"timestamp {timestamp} is outside" in result.output

    def test_timestamp_before_history_rejected(self, workdir):
        split = store.read_cache(workdir["cache"])
        seq = split.sequences.sequences[0]
        result = invoke("predict", "--config", workdir["cfg"], "--cache", workdir["cache"],
                        "--model", workdir["models"]["carnn"],
                        "--user", seq.user, "--timestamp", "1")
        assert result.exit_code == DataError.exit_code


class TestGradcheck:
    def test_default_tiny_model_passes(self):
        result = invoke("gradcheck")
        assert result.exit_code == 0, result.output
        assert "gradient check passed" in result.output

    def test_epsilon_flag_honored_in_report(self):
        result = invoke("gradcheck", "--epsilon", "1e-4")
        assert result.exit_code == 0
        assert "epsilon=0.0001" in result.output

    def test_corrupted_gradient_fails_naming_the_bank(self, monkeypatch):
        backprop = training.backprop_sequence

        def corrupted(*args):
            buf = backprop(*args)
            buf.dM_bank.reshape(-1)[0] += 1.0
            return buf

        monkeypatch.setattr(training, "backprop_sequence", corrupted)
        result = invoke("gradcheck")
        assert result.exit_code == NumericalError.exit_code
        assert "M_bank" in result.output


class TestSweep:
    def test_grid_rows_and_planted_dominance(self, workdir, tmp_path):
        out = str(tmp_path / "sweep")
        result = invoke("sweep", "--config", workdir["cfg"], "--cache", workdir["cache"],
                        "--out", out, "--d-values", "4,6", "--variants", "rnn,carnn")
        assert result.exit_code == 0, result.output
        lines = Path(os.path.join(out, "sweep.csv")).read_text().strip().splitlines()
        assert len(lines) == 1 + 4  # header + |variants| x |d_values|
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert all(r["status"] == "ok" for r in rows)
        by_key = {(r["variant"], r["d"]): float(r["recall@1"]) for r in rows}
        for d in ("4", "6"):
            assert by_key[("carnn", d)] >= by_key[("rnn", d)]

    def test_cell_failures_recorded_and_sweep_continues(self, workdir, tmp_path, monkeypatch):
        import carnn.cli as cli_mod

        def boom(split, params, cfg):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(cli_mod, "train", boom)
        out = str(tmp_path / "sweep-fail")
        result = invoke("sweep", "--config", workdir["cfg"], "--cache", workdir["cache"],
                        "--out", out, "--d-values", "4", "--variants", "rnn,carnn")
        assert result.exit_code == 0, result.output
        lines = Path(os.path.join(out, "sweep.csv")).read_text().strip().splitlines()
        assert len(lines) == 3
        assert all("error:NumericalError" in line for line in lines[1:])
        assert all(line.count(",") == lines[0].count(",") for line in lines[1:])

    def test_bad_grid_rejected(self, workdir, tmp_path):
        result = invoke("sweep", "--config", workdir["cfg"], "--cache", workdir["cache"],
                        "--out", str(tmp_path / "s"), "--d-values", "4",
                        "--variants", "pop")
        assert result.exit_code == ConfigError.exit_code
