"""End-to-end CLI pipelines on tiny synthetic corpora."""

import contextlib
import io
import json
import math
import os
import shlex
import signal
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tagkit
import tagkit.model
from tagkit.cli import (
    ABLATION_TOGGLES,
    DEFAULT_CONFIG,
    SECTIONS,
    ConfigError,
    _COMMANDS,
    _CONFIG_ERRORS,
    _merge_defaults,
    apply_toggle,
    build_corpus,
    build_parser,
    config_hash,
    corpus_specs,
    main,
    run_ablation,
    run_aggregate,
    run_enhance,
    run_train,
    validate_config,
)
from tagkit.corpus import SynthSpec, read_corpus, write_labels
from tagkit.aggregate import SweepPoint, sweep_start_epoch
from tagkit.rundir import load_checkpoint as _teacher_checkpoint
from tagkit.rundir import finish, load_epochs, load_model, read_json, write_json, write_table
from tagkit.metrics import evaluate
from tagkit.model import DivergenceError, Model, ParameterVector
from tagkit.sampler import SamplerError
from tagkit.ontology import write_ontology, Ontology


def tiny_config(out_dir, seed=0, epochs=3):
    return _merge_defaults({
        "seed": seed,
        "output_dir": str(out_dir),
        "corpus": {"synth": {
            "num_classes": 4, "num_samples": 48, "imbalance_ratio": 6,
            "seed": 41, "feature_shape": [16, 8], "planted_signal_strength": 2.0,
        }},
        "eval_corpus": {"synth": {
            "num_classes": 4, "num_samples": 32, "imbalance_ratio": 1,
            "seed": 42, "feature_shape": [16, 8], "planted_signal_strength": 2.0,
        }},
        "model": {"variant": "attention", "num_heads": 2, "embed_dim": 8,
                  "hidden_dim": 6, "time_strides": [2, 2]},
        "augment": {"freq_mask_max": 2, "time_mask_max": 4, "mixup_rate": 0.3},
        "train": {"epochs": epochs, "batch_size": 16, "base_lr": 5e-3,
                  "warmup_iters": 10, "decay_start_epoch": 2, "decay_period": 1},
    }, "tiny_config")


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="bogus"):
            _merge_defaults({"bogus": 1, "corpus": {"synth": {"num_classes": 2,
                                                               "num_samples": 4}}}, "<dict>")
        # Repaired labels come from `tagkit enhance`'s label file, through corpus.labels.
        for enhance in ({"teacher_run": str(tmp_path), "ontology": str(tmp_path)}, None):
            code, err = _config_exit({**tiny_config(tmp_path / "run"), "enhance": enhance},
                                     tmp_path)
            assert code == 2 and err.count("\n") == 1
            assert err.startswith(f"config error: {tmp_path / 'c.json'}: unknown config key "
                                  "'enhance'")
            assert not (tmp_path / "run").exists()

    def test_missing_corpus_rejected(self):
        with pytest.raises(ConfigError, match="corpus"):
            validate_config(_merge_defaults({"seed": 1}, "<dict>"))

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            validate_config(_merge_defaults({"corpus": {"path": str(tmp_path / "nope")}},
                                            "<dict>"))

    def test_hash_stable_under_key_order(self):
        a = {"seed": 1, "corpus": {"synth": {"num_classes": 2, "num_samples": 4}}}
        b = {"corpus": {"synth": {"num_samples": 4, "num_classes": 2}}, "seed": 1}
        assert config_hash(_merge_defaults(a, "a")) == config_hash(_merge_defaults(b, "b"))

    def test_read_json_reports_json_position(self, tmp_path):
        bad = tmp_path / "c.json"
        bad.write_text('{"seed": }')
        with pytest.raises(ConfigError, match=f"{bad}: invalid JSON at line 1"):
            read_json(bad)

    def test_default_config_hash_is_pinned(self):
        config = _merge_defaults({"seed": 1, "corpus": {"synth": {"num_classes": 2,
                                                                   "num_samples": 4}}}, "<dict>")
        validate_config(config)
        assert config_hash(config) == (
            "653730d127397191d2dc376da5a5e68f4b4e6b0a7fc0d2f9d4ede580826fa1ab")

    def test_top_level_must_be_an_object(self):
        with pytest.raises(ConfigError, match="JSON object"):
            _merge_defaults([1, 2], "<dict>")

    def test_section_must_be_an_object(self):
        with pytest.raises(ConfigError, match="train must be a JSON object"):
            _merge_defaults({"train": None, "corpus": {"synth": {"num_classes": 2,
                                                                  "num_samples": 4}}}, "<dict>")


def _wrongly_typed(value, default) -> bool:
    """Oracle: the section value does not have its default's JSON type."""
    def is_int(v):
        return isinstance(v, int) and not isinstance(v, bool)

    if isinstance(default, bool):
        return not isinstance(value, bool)
    if isinstance(default, int):
        return not is_int(value)
    if isinstance(default, float):
        return not (is_int(value) or isinstance(value, float))
    if isinstance(default, str):
        return not isinstance(value, str)
    return not (isinstance(value, list) and len(value) == 2 and all(map(is_int, value)))


SECTION_KEYS = [(name, key) for name in SECTIONS for key in DEFAULT_CONFIG[name]]
JSON_VALUES = st.one_of(
    st.sampled_from(["2", "false", "x", 2.0, 0.5, True, False, None, [8, 4], [8], [2.0, 2], {}]),
    st.integers(-3, 300), st.floats(-10, 10), st.text(max_size=4),
    st.lists(st.integers(0, 9), max_size=3), st.dictionaries(st.text(max_size=2), st.integers(),
                                                             max_size=2),
)


def _config_exit(config: dict, work, command=("train",)) -> tuple[int, str]:
    """Run ``command`` on ``config``, written to work/c.json, with --out work/run."""
    config_file = work / "c.json"
    config_file.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*command, "--config", str(config_file), "--out", str(work / "run")])
    return code, err.getvalue()


@given(st.sampled_from(SECTION_KEYS), st.data())
@settings(max_examples=50, deadline=None, derandomize=True)
def test_wrongly_typed_section_value_is_rejected_before_writing(tmp_path_factory, where, data):
    name, key = where
    default = DEFAULT_CONFIG[name][key]
    value = data.draw(JSON_VALUES.filter(lambda v: _wrongly_typed(v, default)))
    work = tmp_path_factory.mktemp("bad")
    config = tiny_config(work / "run")
    config[name] = {**config[name], key: value}
    code, err = _config_exit(config, work)
    assert code == 2
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert f"{name}.{key}" in err and "Traceback" not in err
    assert not (work / "run" / "config.json").exists()


@pytest.mark.parametrize("section,patch", [
    ("train", {"epochs": "2"}), ("train", {"epochs": 2.0}), ("train", {"epochs": 0}),
    ("augment", {"balanced": "false"}), ("augment", {"mixup_rate": 2}),
    ("augment", {"mixup_rate": True}), ("model", {"num_heads": True}),
    ("augment", {"mask_value": "a"}), ("model", {"num_heads": 0}),
    ("model", {"variant": "conv"}), ("model", {"time_strides": [3, 2]}),
    ("model", {"embed_dim": 0}), ("train", {"decay_period": 0}),
    ("corpus", {"synth": {"num_classes": "x", "num_samples": 8}}),
    ("corpus", {"synth": {"num_classes": 2, "num_samples": 8, "bogus": 1}}),
    ("eval_corpus", {"synth": {"num_classes": 4, "num_samples": 2}}),
    ("train", {"base_lr": -0.001}), ("train", {"base_lr": 0}),
    ("train", {"decay_factor": -0.5}), ("train", {"decay_factor": 0}),
    ("train", {"decay_factor": 1.5}), ("train", {"warmup_iters": -5}),
    ("corpus", {"synth": {"num_classes": 4, "num_samples": 48, "seed": "x"}}),
    ("corpus", {"synth": {"num_classes": 4, "num_samples": 32.5}}),
    ("corpus", {"synth": {"num_classes": 4, "num_samples": 48, "seed": -1}}),
    ("eval_corpus", {"synth": {"num_classes": 4, "num_samples": 32, "feature_shape": [16.0, 8]}}),
    ("eval_corpus", {"synth": {"num_classes": 4, "num_samples": 32, "pattern_seed": True}}),
    ("eval_corpus", {"synth": [4, 32]}),
    # json.dumps writes float("nan") and float("inf") as NaN and Infinity, which json.loads reads
    ("corpus", {"synth": {"num_classes": 4, "num_samples": 48, "imbalance_ratio": float("nan")}}),
    ("corpus", {"synth": {"num_classes": 4, "num_samples": 48, "imbalance_ratio": float("inf")}}),
    ("eval_corpus", {"synth": {"num_classes": 4, "num_samples": 32,
                               "planted_signal_strength": float("inf")}}),
    ("augment", {"mixup_alpha": float("nan")}), ("augment", {"mixup_alpha": float("inf")}),
    ("augment", {"mask_value": float("nan")}), ("augment", {"mask_value": float("-inf")}),
    ("train", {"base_lr": float("inf")}), ("train", {"base_lr": float("nan")}),
    ("train", {"report_last_k": 0}), ("train", {"report_last_k": -1}),
])
def test_bad_config_exits_2_and_writes_nothing(tmp_path, section, patch):
    config = tiny_config(tmp_path / "run")
    config[section] = {**config[section], **patch}
    code, err = _config_exit(config, tmp_path)
    assert code == 2 and err.startswith("config error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("patch", [{"seed": True}, {"model": {"num_heads": 0}}, {"bogus": 1},
                                   {"train": {"epochs": "2"}}])
def test_ablate_refuses_a_bad_config_as_train_does(tmp_path, patch):
    config = tiny_config(tmp_path / "base")
    for key, value in patch.items():
        config[key] = {**config[key], **value} if isinstance(value, dict) else value
    code, err = _config_exit(config, tmp_path, ("ablate", "--toggles", "mixup", "--seeds", "1"))
    assert code == 2 and err.startswith("config error: ") and err.count("\n") == 1
    assert str(tmp_path / "c.json") in err
    assert [path.name for path in tmp_path.iterdir()] == ["c.json"]


@pytest.mark.parametrize("patch", [{"bogus": 1}, {"augment": {"time_mask_max": 17}},
                                   {"train": {"epochs": 0}}, {"model": {"num_heads": 0}}])
def test_coverage_refuses_a_bad_config_as_train_does(tmp_path, patch):
    config = tiny_config(tmp_path / "base")
    for key, value in patch.items():
        config[key] = {**config[key], **value} if isinstance(value, dict) else value
    code, err = _config_exit(config, tmp_path, ("coverage",))
    assert code == 2 and err.startswith("config error: ") and err.count("\n") == 1
    assert [path.name for path in tmp_path.iterdir()] == ["c.json"]  # no --out, no .partial


@pytest.mark.parametrize("ratio", ["nan", "inf"])
def test_synth_with_a_non_finite_ratio_exits_2_and_writes_nothing(tmp_path, capsys, ratio):
    out = tmp_path / "c"
    assert main(["synth", "--classes", "3", "--samples", "12", "--time-frames", "16",
                 "--freq-bins", "8", "--ratio", ratio, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and "imbalance_ratio" in err
    assert list(tmp_path.iterdir()) == []


FLOAT_KEYS = ([(name, f.name) for name, section in SECTIONS.items() for f in section
               if f.type == "float"]
              + [("corpus.synth", f.name) for f in fields(SynthSpec) if f.type == "float"])


def _override(config: dict, name: str, key: str, value) -> dict:
    """``config`` with ``name.key`` set to ``value``; ``name`` is a section or corpus.synth."""
    (config["corpus"]["synth"] if name == "corpus.synth" else config[name])[key] = value
    return config


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("name,key", FLOAT_KEYS)
def test_a_float_key_refuses_an_integer_too_large_for_a_float(tmp_path, name, key, sign):
    assert len(FLOAT_KEYS) == 8
    config = _override(tiny_config(tmp_path / "run"), name, key, sign * 10**400)
    code, err = _config_exit(config, tmp_path)
    assert code == 2 and err.count("\n") == 1
    assert err.startswith(f"config error: {tmp_path / 'c.json'}: {name}.{key} must be a number")
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


@pytest.mark.parametrize("command", ["train", "coverage"])
@pytest.mark.parametrize("patch,message", [
    ({"freq_mask_max": 9}, "freq_mask_max must be in [0, 8]"),
    ({"time_mask_max": 17}, "time_mask_max must be in [0, 16]"),
    ({"mixup_rate": 1.5}, "mixup_rate must be in [0, 1]"),
    ({"mixup_alpha": 0}, "mixup_alpha must be finite and > 0"),
    ({"mask_value": float("nan")}, "mask_value must be finite"),
])
def test_an_augment_range_error_names_its_config(tmp_path, command, patch, message):
    config = tiny_config(tmp_path / "run")
    config["augment"] = {**config["augment"], **patch}
    code, err = _config_exit(config, tmp_path, (command,))
    assert (code, err) == (2, f"config error: {tmp_path / 'c.json'}: augment: {message}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


CONFIG_KEYS = SECTION_KEYS + [("corpus.synth", f.name) for f in fields(SynthSpec)]
CONFIG_VALUES = st.one_of(
    st.sampled_from([10**400, -10**400, 2**63, 1e308, -1e308, math.nan, math.inf, -math.inf]),
    st.sampled_from([True, False, None, -1, 0, "", "2", [], [16, 8], [2.0, 2]]),
    st.integers(), st.floats(), st.text(max_size=4), st.lists(st.integers(-3, 300), max_size=3),
)


@given(st.sampled_from(CONFIG_KEYS), CONFIG_VALUES)
@settings(max_examples=500, deadline=None, derandomize=True)
def test_a_config_value_is_refused_or_read_as_finite_floats(where, value):
    """Only config errors escape validation, and an accepted config's floats are finite."""
    config = _override(tiny_config("run"), *where, value)
    try:
        specs, _, augment, train_config = validate_config(_merge_defaults(config, "c"), "c")
    except _CONFIG_ERRORS:
        return
    for obj in (specs[0]["synth"], specs[1]["synth"], augment, train_config.schedule):
        for f in fields(obj):
            if f.type == "float":
                assert math.isfinite(float(getattr(obj, f.name))), (f.name, value)


def test_output_dir_must_be_a_string(tmp_path):
    config = {**tiny_config(tmp_path / "run"), "output_dir": 3}
    code, err = _config_exit(config, tmp_path)
    assert code == 2 and err.startswith("config error: ") and err.count("\n") == 1
    assert "output_dir must be a string" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key", ["corpus.path", "eval_corpus.path", "corpus.labels",
                                 "eval_corpus.labels", "init_path"])
def test_path_valued_key_must_be_a_string(tmp_path, key):
    config = tiny_config(tmp_path / "run")
    section, _, name = key.rpartition(".")
    (config[section] if section else config)[name] = 5
    code, err = _config_exit(config, tmp_path)
    assert code == 2 and err.startswith("config error: ") and err.count("\n") == 1
    assert f"{key} must be a string" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key", ["corpus.path", "eval_corpus.path", "corpus.labels",
                                 "eval_corpus.labels", "init_path"])
def test_path_valued_key_must_not_be_empty(tmp_path, key):
    # Path("") is the working directory: an empty init_path used to train from scratch.
    config = tiny_config(tmp_path / "run")
    section, _, name = key.rpartition(".")
    (config[section] if section else config)[name] = ""
    code, err = _config_exit(config, tmp_path)
    assert (code, err) == (2, f"config error: {tmp_path / 'c.json'}: {key} must not be empty\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("section,key", [("corpus", "lables"), ("eval_corpus", "pth")])
def test_misspelt_key_in_a_corpus_or_enhance_spec_is_rejected(tmp_path, section, key):
    config = tiny_config(tmp_path / "run")
    config[section][key] = "p10"
    code, err = _config_exit(config, tmp_path)
    assert code == 2 and err.startswith("config error: ") and err.count("\n") == 1
    assert f"unknown config key {section}.{key}" in err
    assert not (tmp_path / "run").exists()


def test_labels_override_must_not_repeat_a_sample_id(tmp_path):
    config = tiny_config(tmp_path / "run")
    (tmp_path / "ov.txt").write_text("s00\tclass000\ns00\tclass002\n")
    config["corpus"]["labels"] = str(tmp_path / "ov.txt")
    code, err = _config_exit(config, tmp_path)
    assert code == 2 and err.startswith("config error: ") and err.count("\n") == 1
    assert "'s00' is repeated" in err
    assert not (tmp_path / "run").exists()


def test_labels_override_must_name_only_corpus_samples(tmp_path):
    config = tiny_config(tmp_path / "run")
    (tmp_path / "ov.txt").write_text("s00\tclass000\nghost\tclass002\n")
    config["corpus"]["labels"] = str(tmp_path / "ov.txt")
    code, err = _config_exit(config, tmp_path)
    assert (code, err) == (
        2, f"config error: labels override {tmp_path / 'ov.txt'}: unknown sample id 'ghost'\n")
    assert not (tmp_path / "run").exists()


def test_library_run_train_validates_before_writing(tmp_path):
    config = tiny_config(tmp_path / "run")
    config["augment"]["time_mask_max"] = 17
    with pytest.raises(SamplerError, match="time_mask_max"):
        run_train(config)
    assert not (tmp_path / "run").exists()


class TestRunTrain:
    def test_run_directory_contents(self, tmp_path):
        config = tiny_config(tmp_path / "run", epochs=5)
        run_dir = run_train(config)
        assert sorted(p.name for p in (run_dir / "checkpoints").iterdir()) == [
            f"epoch_{e:03d}.ckpt" for e in range(1, 6)
        ]
        assert len(list((run_dir / "eval").glob("epoch_*.json"))) == 5
        assert (run_dir / "weight_avg.ckpt").is_file()
        assert (run_dir / "eval" / "checkpoint_ensemble.json").is_file()
        assert (run_dir / "train_log.csv").is_file()
        summary = json.loads((run_dir / "summary.json").read_text())
        for key in ("headline_map", "weight_avg_map", "ensemble_map", "config_hash"):
            assert key in summary
        assert not (run_dir / "lock").exists()

    def test_each_checkpoint_is_scored_once(self, tmp_path, monkeypatch):
        calls = []
        real = Model.predict
        monkeypatch.setattr(Model, "predict",
                            lambda self, *a, **k: calls.append(1) or real(self, *a, **k))
        run_train(tiny_config(tmp_path / "run", epochs=3))
        assert len(calls) == 4  # the eval split after each epoch, then the weight average

    def test_checkpoint_ensemble_matches_saved_checkpoints(self, tmp_path):
        config = tiny_config(tmp_path / "run", epochs=3)
        run_dir = run_train(config)
        model_config = validate_config(config)[1]
        eval_corpus = build_corpus(corpus_specs(config)[1])
        members = [Model.from_vector(model_config, ParameterVector.load(p)).predict(
                       eval_corpus.features)
                   for p in sorted((run_dir / "checkpoints").glob("epoch_*.ckpt"))]
        report = evaluate(np.mean(np.stack(members), axis=0), eval_corpus.label_matrix())
        write_json(tmp_path / "want.json", report.to_dict())
        assert ((run_dir / "eval" / "checkpoint_ensemble.json").read_bytes()
                == (tmp_path / "want.json").read_bytes())

    def test_same_seed_same_headline(self, tmp_path):
        a = run_train(tiny_config(tmp_path / "a", seed=3))
        b = run_train(tiny_config(tmp_path / "b", seed=3))
        sa = json.loads((a / "summary.json").read_text())
        sb = json.loads((b / "summary.json").read_text())
        assert sa["headline_map"] == sb["headline_map"]
        assert sa["per_epoch_map"] == sb["per_epoch_map"]

    def test_headline_is_mean_of_the_last_k_epochs(self, tmp_path):
        config = tiny_config(tmp_path / "run", epochs=4)
        config["train"]["report_last_k"] = 2
        summary = json.loads((run_train(config) / "summary.json").read_text())
        assert len(summary["per_epoch_map"]) == 4
        assert summary["headline_map"] == float(np.mean(summary["per_epoch_map"][-2:]))

    def test_train_refuses_an_existing_directory(self, tmp_path):
        # A lock file left by a killed run, a finished run, and an empty directory.
        (tmp_path / "locked").mkdir()
        (tmp_path / "locked" / "lock").write_text("999\n")
        run_train(tiny_config(tmp_path / "finished", epochs=1))
        (tmp_path / "empty").mkdir()
        for name in ("locked", "finished", "empty"):
            run_dir = tmp_path / name
            before = {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
            with pytest.raises(ConfigError, match="already exists"):
                run_train(tiny_config(run_dir))
            assert {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()} == before

    def test_eval_command_reproduces_logged_map(self, tmp_path, capsys):
        config = tiny_config(tmp_path / "run")
        run_dir = run_train(config)
        last = json.loads((run_dir / "eval" / "epoch_003.json").read_text())
        code = main(["eval", "--run", str(run_dir), "--checkpoint", "epoch_003",
                     "--out", str(tmp_path / "r.json")])
        assert code == 0
        again = json.loads((tmp_path / "r.json").read_text())
        assert again["map"] == last["map"]


class TestCliCommands:
    def test_synth_then_coverage(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        assert main(["synth", "--classes", "5", "--samples", "60", "--ratio", "10",
                     "--time-frames", "16", "--freq-bins", "8",
                     "--out", str(corpus_dir)]) == 0
        corpus = read_corpus(corpus_dir)
        assert len(corpus) == 60
        config_file = tmp_path / "c.json"
        config_file.write_text(json.dumps({
            "corpus": {"path": str(corpus_dir)}, "model": {"variant": "linear"},
            "augment": {"freq_mask_max": 2, "time_mask_max": 4}, "train": {"epochs": 3}}))
        out_csv = tmp_path / "coverage.csv"
        assert main(["coverage", "--config", str(config_file), "--out", str(out_csv)]) == 0
        rows = out_csv.read_text().splitlines()
        assert rows[0] == "epoch,unseen_fraction"
        assert len(rows) == 4

    def test_coverage_replays_the_draws_a_run_consumed(self, tmp_path, capsys, monkeypatch):
        config = tiny_config(tmp_path / "run", epochs=3)
        corpus = build_corpus(corpus_specs(config)[0])
        labels = corpus.label_matrix()
        labels[:, 0] = 1  # a repaired label set, which reweights the balanced draws
        write_labels(tmp_path / "repaired.txt", corpus.ids, labels, corpus.class_names)
        config["corpus"]["labels"] = str(tmp_path / "repaired.txt")
        (tmp_path / "c.json").write_text(json.dumps(config))
        plans, real = [], tagkit.model.plan_epoch
        monkeypatch.setattr(tagkit.model, "plan_epoch",
                            lambda *a, **k: plans.append(real(*a, **k)) or plans[-1])
        assert main(["train", "--config", str(tmp_path / "c.json")]) == 0
        monkeypatch.undo()
        assert main(["coverage", "--config", str(tmp_path / "run" / "config.json"),
                     "--out", str(tmp_path / "cov.csv")]) == 0
        seen, unseen = np.zeros(len(corpus), dtype=bool), []
        for plan in plans:  # a clip is seen once drawn as a primary or a mixed partner
            seen[plan.primary] = True
            seen[plan.partner[plan.is_mixup]] = True
            unseen.append(1.0 - seen.mean())
        rows = [row.split(",") for row in (tmp_path / "cov.csv").read_text().splitlines()]
        assert len(plans) == 3 and rows[0] == ["epoch", "unseen_fraction"]
        assert [(int(e), float(u)) for e, u in rows[1:]] == list(enumerate(unseen, start=1))

    def test_train_command_exit_codes(self, tmp_path):
        config_file = tmp_path / "c.json"
        config_file.write_text(json.dumps({
            "corpus": {"synth": {"num_classes": 4, "num_samples": 32, "seed": 1,
                                 "feature_shape": [8, 4]}},
            "model": {"variant": "linear"},
            "augment": {"freq_mask_max": 2, "time_mask_max": 2},
            "train": {"epochs": 1, "batch_size": 8, "warmup_iters": 5},
            "output_dir": str(tmp_path / "run"),
        }))
        assert main(["train", "--config", str(config_file)]) == 0
        assert main(["train", "--config", str(tmp_path / "missing.json")]) == 2

    def test_numerical_failure_exit_code(self, tmp_path, capsys, recwarn):
        # The exit-3 message is the whole of stderr: no numpy overflow warning before it.
        for variant in ("linear", "attention"):
            config_file = tmp_path / f"{variant}.json"
            config_file.write_text(json.dumps({
                "corpus": {"synth": {"num_classes": 4, "num_samples": 32, "seed": 1,
                                     "feature_shape": [8, 4]}},
                "model": {"variant": variant, "num_heads": 2, "embed_dim": 4,
                          "hidden_dim": 4, "time_strides": [2, 2]},
                "augment": {"freq_mask_max": 2, "time_mask_max": 2},
                "train": {"epochs": 1, "batch_size": 8, "base_lr": 1e308,
                          "warmup_iters": 0},
                "output_dir": str(tmp_path / variant),
            }))
            assert main(["train", "--config", str(config_file)]) == 3
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and err.startswith("numerical failure: ")
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestAblation:
    def test_no_toggles_single_row(self, tmp_path):
        config = tiny_config(tmp_path / "base", epochs=2)
        assert main_ablate(config, "", 1, tmp_path / "abl") == 1

    def test_row_count_matches_toggles(self, tmp_path):
        config = tiny_config(tmp_path / "base", epochs=2)
        n = main_ablate(config, "mixup,masking,balanced", 1, tmp_path / "abl")
        assert n == 4

    def test_full_row_recomputable_from_run_logs(self, tmp_path):
        config = tiny_config(tmp_path / "base", epochs=2)
        rows = run_ablation(config, ["mixup"], 2, tmp_path / "abl")
        full = next(r for r in rows if r["variant"] == "full")
        headlines = []
        for seed_dir in sorted((tmp_path / "abl" / "full").iterdir()):
            summary = json.loads((seed_dir / "summary.json").read_text())
            headlines.append(summary["ensemble_map"])
        assert full["map_mean"] == pytest.approx(np.mean(headlines))
        assert full["map_sd"] == pytest.approx(np.std(headlines))

    def test_repeated_toggle_runs_once(self, tmp_path):
        config_file = tmp_path / "c.json"
        config_file.write_text(json.dumps(tiny_config(tmp_path / "base", epochs=1)))
        assert main(["ablate", "--config", str(config_file), "--toggles", "mixup,mixup",
                     "--seeds", "1", "--out", str(tmp_path / "abl")]) == 0
        rows = (tmp_path / "abl" / "ablation.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["full", "no-mixup"]

    def test_identical_runs_train_once(self, tmp_path, monkeypatch):
        import tagkit.cli as cli

        calls = {"train": 0, "corpus_specs": 0}
        for name in calls:
            def wrapped(*a, _name=name, _real=getattr(cli, name), **k):
                calls[_name] += 1
                return _real(*a, **k)
            monkeypatch.setattr(cli, name, wrapped)
        out = tmp_path / "abl"
        rows = run_ablation(tiny_config(tmp_path / "base", epochs=1), list(ABLATION_TOGGLES), 1,
                            out)
        # Without init_path or corpus.labels, two of the six variants train full's run.
        assert calls == {"train": 4, "corpus_specs": 5}  # one validation per run, one per ablate
        assert sorted(p.name for p in out.iterdir()) == [
            "ablation.csv", "full", "no-balanced", "no-masking", "no-mixup"]
        assert len(rows) == 6
        full = json.loads((out / "full" / "seed_0" / "summary.json").read_text())
        reused = [row for row in rows if row["variant"] in ("no-pretrain-init", "no-labelfix")]
        assert len(reused) == 2
        assert all(row["map_mean"] == full["ensemble_map"] for row in reused)

    @pytest.mark.parametrize("toggle", ["ensemble", "weight-avg"])
    def test_reporting_toggles_are_refused(self, tmp_path, capsys, toggle):
        # Every row already carries the last-k, weight-average and ensemble means.
        config_file = tmp_path / "c.json"
        config_file.write_text(json.dumps(tiny_config(tmp_path / "base", epochs=1)))
        assert main(["ablate", "--config", str(config_file), "--toggles", toggle,
                     "--seeds", "1", "--out", str(tmp_path / "abl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: toggle {toggle!r} not in (") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_toggle_transforms(self, tmp_path):
        config = tiny_config(tmp_path / "x")
        assert apply_toggle(config, "mixup")["augment"]["mixup_rate"] == 0.0
        assert apply_toggle(config, "masking")["augment"]["freq_mask_max"] == 0
        assert apply_toggle(config, "balanced")["augment"]["balanced"] is False
        with pytest.raises(ConfigError):
            apply_toggle(config, "nonsense")


def main_ablate(config, toggles, seeds, out):
    rows = run_ablation(config, [t for t in toggles.split(",") if t], seeds, out)
    assert (out / "ablation.csv").is_file()
    return len(rows)


class TestEnhancePipeline:
    @pytest.fixture()
    def teacher_setup(self, tmp_path):
        config = tiny_config(tmp_path / "teacher", epochs=3)
        run_dir = run_train(config)
        names = [f"class{k:03d}" for k in range(4)]
        onto_path = tmp_path / "onto.txt"
        write_ontology(Ontology.from_edges(4, [(0, 1), (0, 2), (1, 3)]), onto_path, names)
        return run_dir, onto_path, tmp_path

    def test_policy_chain_labels_added_nondecreasing(self, teacher_setup):
        run_dir, onto_path, tmp_path = teacher_setup
        results = run_enhance(run_dir, onto_path, ["p25", "p10", "p5"], "both",
                              tmp_path / "enh")
        added = [results[p]["train_labels_added"] for p in ("p25", "p10", "p5")]
        assert added[0] <= added[1] <= added[2]

    def test_both_mode_is_union_of_types(self, teacher_setup):
        run_dir, onto_path, tmp_path = teacher_setup
        out = {}
        for mode in ("type1", "type2", "both"):
            run_enhance(run_dir, onto_path, ["mean"], mode, tmp_path / f"enh_{mode}")
            label_file = tmp_path / f"enh_{mode}" / f"train_labels_mean_{mode}.txt"
            out[mode] = label_file.read_text()
        union = {}
        for mode in ("type1", "type2"):
            for line in out[mode].splitlines():
                sid, _, tags = line.partition("\t")
                union.setdefault(sid, set()).update(t for t in tags.split(",") if t)
        for line in out["both"].splitlines():
            sid, _, tags = line.partition("\t")
            assert set(t for t in tags.split(",") if t) == union[sid]

    def test_enhanced_labels_are_drop_in_for_training(self, teacher_setup, tmp_path):
        run_dir, onto_path, _ = teacher_setup
        enh_dir = tmp_path / "enh2"
        run_enhance(run_dir, onto_path, ["mean"], "both", enh_dir)
        config = tiny_config(tmp_path / "student", epochs=1)
        config["corpus"]["labels"] = str(enh_dir / "train_labels_mean_both.txt")
        student_dir = run_train(config)
        assert (student_dir / "summary.json").is_file()

    def test_strict_refuses_a_candidate_class_without_a_threshold(self, tmp_path, capsys,
                                                                  caplog):
        # The teacher trains on labels where class003 has no positive, so no policy
        # defines its threshold, and the ontology makes it a repair candidate.
        config = tiny_config(tmp_path / "teacher", epochs=1)
        corpus = build_corpus(corpus_specs(config)[0])
        labels = corpus.label_matrix()
        labels[labels[:, 3] == 1, 0] = 1  # no sample is left without a label
        labels[:, 3] = 0
        write_labels(tmp_path / "labels.txt", corpus.ids, labels, corpus.class_names)
        config["corpus"]["labels"] = str(tmp_path / "labels.txt")
        run_dir = run_train(config)
        (tmp_path / "onto.txt").write_text("class001 class003\n")
        argv = ["enhance", "--teacher-run", str(run_dir), "--ontology", str(tmp_path / "onto.txt")]
        capsys.readouterr()
        assert main([*argv, "--strict", "--out", str(tmp_path / "strict")]) == 2
        assert capsys.readouterr().err == (
            "config error: candidate classes [3] have undefined thresholds\n")
        assert not (tmp_path / "strict").exists()
        assert main([*argv, "--out", str(tmp_path / "lenient")]) == 0
        assert "skipping candidate classes with undefined thresholds: [3]" in caplog.text
        assert (tmp_path / "lenient" / "train_labels_mean_both.txt").is_file()

    def test_eval_split_is_scored_once(self, teacher_setup, monkeypatch):
        run_dir, onto_path, tmp_path = teacher_setup
        calls = []
        real = Model.predict
        monkeypatch.setattr(Model, "predict",
                            lambda self, *a, **k: calls.append(1) or real(self, *a, **k))
        run_enhance(run_dir, onto_path, ["mean", "p25", "p10", "p5"], "both", tmp_path / "e4")
        assert len(calls) == 2  # the train split and the eval split, not once per policy

    def test_missing_teacher_checkpoint(self, tmp_path):
        (tmp_path / "empty_run").mkdir()
        (tmp_path / "empty_run" / "config.json").write_text(json.dumps(
            tiny_config(tmp_path / "empty_run")))
        (tmp_path / "empty_run" / "checkpoints").mkdir()
        (tmp_path / "empty_run" / "summary.json").write_text("{}\n")
        onto = tmp_path / "o.txt"
        onto.write_text("class000 class001\n")
        with pytest.raises(ConfigError, match="checkpoint"):
            run_enhance(tmp_path / "empty_run", onto, ["mean"], "both", tmp_path / "e")

    def test_teacher_fallback_is_the_highest_epoch_not_the_last_name(self, tmp_path):
        # From 1,000 epochs on, "epoch_999.ckpt" sorts after "epoch_1000.ckpt".
        ckpt_dir = tmp_path / "run" / "checkpoints"
        ckpt_dir.mkdir(parents=True)
        early = ParameterVector(values=np.zeros(2), manifest=(("b", (2,)),))
        early.save(ckpt_dir / "epoch_001.ckpt")
        for epoch in range(2, 1000):
            (ckpt_dir / f"epoch_{epoch:03d}.ckpt").write_bytes(
                (ckpt_dir / "epoch_001.ckpt").read_bytes())
        ParameterVector(values=np.ones(2), manifest=(("b", (2,)),)).save(
            ckpt_dir / "epoch_1000.ckpt")
        assert _teacher_checkpoint(tmp_path / "run").values.tolist() == [1.0, 1.0]


class TestAggregateCommand:
    def test_committee_of_one_matches_member(self, tmp_path):
        config = tiny_config(tmp_path / "solo", epochs=2)
        run_dir = run_train(config)
        manifest = tmp_path / "committee.txt"
        manifest.write_text(f"{run_dir}\n")
        comparison = run_aggregate(manifest, tmp_path / "agg")
        assert comparison["num_members"] == 1
        assert comparison["ensemble_map"] == pytest.approx(comparison["best_map"])
        # the sweep's header, and each point read back to its exact floats
        evalc = build_corpus(corpus_specs(config)[1])
        points = sweep_start_epoch(load_epochs(run_dir),
                                   load_model(run_dir, evalc.class_names).config,
                                   evalc.features, evalc.label_matrix())
        rows = (tmp_path / "agg" / "start_epoch_sweep.csv").read_text().splitlines()
        assert rows[0] == "start_epoch,weight_avg_map,prediction_avg_map"
        assert [SweepPoint(int(e), float(wa), float(pa)) for e, wa, pa in
                (row.split(",") for row in rows[1:])] == points

    def test_multi_seed_committee_structure(self, tmp_path):
        dirs = [run_train(tiny_config(tmp_path / f"m{s}", seed=s, epochs=2))
                for s in range(3)]
        manifest = tmp_path / "committee.txt"
        manifest.write_text("\n".join(str(d) for d in dirs) + "\n")
        comparison = run_aggregate(manifest, tmp_path / "agg")
        assert comparison["num_members"] == 3
        assert comparison["best_map"] >= comparison["avg_map"]
        rows = (tmp_path / "agg" / "comparison.csv").read_text().splitlines()
        assert rows[0] == "num_members,avg_map,best_map,ensemble_map"


class TestRunReload:
    @pytest.fixture()
    def counted(self, monkeypatch):
        import tagkit.cli as cli

        calls = {"read_corpus": 0, "generate_synthetic": 0}
        for name in calls:
            def wrapped(*a, _name=name, _real=getattr(cli, name), **k):
                calls[_name] += 1
                return _real(*a, **k)
            monkeypatch.setattr(cli, name, wrapped)
        return calls

    def test_train_resolves_the_corpus_specs_once_per_validation(self, tmp_path, monkeypatch):
        import tagkit.cli as cli

        assert main(["synth", "--classes", "4", "--samples", "48", "--time-frames", "16",
                     "--freq-bins", "8", "--out", str(tmp_path / "train")]) == 0
        config_file = tmp_path / "c.json"
        config_file.write_text(json.dumps({**tiny_config(tmp_path / "run", epochs=1),
                                           "corpus": {"path": str(tmp_path / "train")}}))
        calls = {"corpus_specs": 0, "read_manifest": 0}
        for name in calls:
            def wrapped(*a, _name=name, _real=getattr(cli, name), **k):
                calls[_name] += 1
                return _real(*a, **k)
            monkeypatch.setattr(cli, name, wrapped)
        assert main(["train", "--config", str(config_file)]) == 0
        assert calls == {"corpus_specs": 1, "read_manifest": 1}  # one validation per train

    def test_eval_builds_only_the_eval_corpus(self, tmp_path, counted):
        run_dir = run_train(tiny_config(tmp_path / "run", epochs=1))
        counted.update(read_corpus=0, generate_synthetic=0)
        assert main(["eval", "--run", str(run_dir)]) == 0
        assert counted == {"read_corpus": 0, "generate_synthetic": 1}

    def test_aggregate_builds_the_eval_corpus_once(self, tmp_path, counted):
        dirs = [run_train(tiny_config(tmp_path / f"m{s}", seed=s, epochs=1)) for s in range(2)]
        manifest = tmp_path / "committee.txt"
        manifest.write_text("\n".join(str(d) for d in dirs) + "\n")
        counted.update(read_corpus=0, generate_synthetic=0)
        run_aggregate(manifest, tmp_path / "agg")
        assert counted == {"read_corpus": 0, "generate_synthetic": 1}

        corpus_dir = tmp_path / "evalc"
        assert main(["synth", "--classes", "4", "--samples", "32", "--time-frames", "16",
                     "--freq-bins", "8", "--out", str(corpus_dir)]) == 0
        counted.update(read_corpus=0, generate_synthetic=0)
        run_aggregate(manifest, tmp_path / "agg2", eval_corpus_path=corpus_dir)
        assert counted == {"read_corpus": 1, "generate_synthetic": 0}

    def test_a_run_reads_back_after_its_training_corpus_moves(self, tmp_path, capsys):
        for split, n in (("train", 48), ("evalc", 32)):
            assert main(["synth", "--classes", "4", "--samples", str(n), "--seed", "3",
                         "--time-frames", "16", "--freq-bins", "8",
                         "--out", str(tmp_path / split)]) == 0
        config = {**tiny_config(tmp_path / "run", epochs=2),
                  "corpus": {"path": str(tmp_path / "train")},
                  "eval_corpus": {"path": str(tmp_path / "evalc")}}
        run_dir = run_train(config)
        onto = tmp_path / "onto.txt"
        write_ontology(Ontology.from_edges(4, [(0, 1)]), onto, [f"class{k:03d}" for k in range(4)])
        (tmp_path / "m.txt").write_text(f"{run_dir}\n")
        evaluate_argv = ["eval", "--run", str(run_dir), "--corpus", str(tmp_path / "evalc")]
        readers = {"eval": ["eval", "--run", str(run_dir)],
                   "agg": ["aggregate", "--manifest", str(tmp_path / "m.txt")]}
        assert main([*evaluate_argv, "--out", str(tmp_path / "before.json")]) == 0
        assert main([*readers["eval"], "--out", str(tmp_path / "eval_before.json")]) == 0
        assert main([*readers["agg"], "--out", str(tmp_path / "agg_before")]) == 0
        (tmp_path / "train").rename(tmp_path / "moved")
        assert main([*evaluate_argv, "--out", str(tmp_path / "after.json")]) == 0
        assert (tmp_path / "after.json").read_bytes() == (tmp_path / "before.json").read_bytes()
        # Without --corpus, eval and aggregate rebuild only the eval corpus.
        assert main([*readers["eval"], "--out", str(tmp_path / "eval_after.json")]) == 0
        assert main([*readers["agg"], "--out", str(tmp_path / "agg_after")]) == 0
        assert ((tmp_path / "eval_after.json").read_bytes()
                == (tmp_path / "eval_before.json").read_bytes())
        before = sorted((tmp_path / "agg_before").iterdir())
        assert [p.name for p in before] == sorted(p.name for p in (tmp_path / "agg_after").iterdir())
        for path in before:
            assert (tmp_path / "agg_after" / path.name).read_bytes() == path.read_bytes()
        # enhance scores the training corpus, so it still needs it.
        capsys.readouterr()
        assert main(["enhance", "--teacher-run", str(run_dir), "--ontology", str(onto),
                     "--out", str(tmp_path / "enh")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not (tmp_path / "enh").exists()
        assert main(["aggregate", "--manifest", str(tmp_path / "m.txt"), "--corpus",
                     str(tmp_path / "evalc"), "--out", str(tmp_path / "agg")]) == 0
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["class_names"] == [f"class{k:03d}" for k in range(4)]
        assert summary["model"] == {"num_classes": 4, "time_frames": 16, "freq_bins": 8,
                                    **config["model"]}

    def test_readers_do_not_validate_the_run_config_again(self, tmp_path, monkeypatch):
        import tagkit.cli as cli

        run_dir = run_train(tiny_config(tmp_path / "run", epochs=2))
        onto = tmp_path / "onto.txt"
        write_ontology(Ontology.from_edges(4, [(0, 1)]), onto, [f"class{k:03d}" for k in range(4)])
        (tmp_path / "m.txt").write_text(f"{run_dir}\n")

        def refuse(*args, **kwargs):
            raise AssertionError("a finished run's config was validated again")

        monkeypatch.setattr(cli, "validate_config", refuse)
        assert main(["eval", "--run", str(run_dir)]) == 0
        assert main(["aggregate", "--manifest", str(tmp_path / "m.txt"),
                     "--out", str(tmp_path / "agg")]) == 0
        assert main(["enhance", "--teacher-run", str(run_dir), "--ontology", str(onto),
                     "--out", str(tmp_path / "enh")]) == 0

    def test_enhance_checks_its_policies_before_reading_the_teacher(self, tmp_path, counted,
                                                                    monkeypatch, capsys):
        import tagkit.cli as cli

        run_dir = run_train(tiny_config(tmp_path / "run", epochs=1))
        onto = tmp_path / "onto.txt"
        write_ontology(Ontology.from_edges(4, [(0, 1)]), onto, [f"class{k:03d}" for k in range(4)])
        predicts, thresholds = [], []
        real_predict, real_thresholds = Model.predict, cli.make_thresholds
        monkeypatch.setattr(Model, "predict", lambda self, *a, **k:
                            predicts.append(1) or real_predict(self, *a, **k))
        monkeypatch.setattr(cli, "make_thresholds", lambda *a, **k:
                            thresholds.append(1) or real_thresholds(*a, **k))
        argv = ["enhance", "--teacher-run", str(run_dir), "--ontology", str(onto),
                "--out", str(tmp_path / "enh")]
        counted.update(read_corpus=0, generate_synthetic=0)
        capsys.readouterr()
        assert main([*argv, "--policies", "mean,bogus"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1 and "bogus" in err
        assert counted == {"read_corpus": 0, "generate_synthetic": 0} and predicts == []
        assert not (tmp_path / "enh").exists()
        assert main([*argv, "--policies", "mean,mean"]) == 0
        assert len(thresholds) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("mean: +")
        assert json.loads((tmp_path / "enh" / "enhance_summary.json").read_text()).keys() == {"mean"}


class TestBadInputExitCodes:
    def assert_config_error(self, argv, capsys) -> str:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        return err

    def test_truncated_checkpoint_payload(self, tmp_path, capsys):
        run_dir = run_train(tiny_config(tmp_path / "run", epochs=1))
        ckpt = run_dir / "checkpoints" / "epoch_001.ckpt"
        ckpt.write_bytes(ckpt.read_bytes()[:-3])
        self.assert_config_error(["eval", "--run", str(run_dir), "--checkpoint", "epoch_001"],
                                 capsys)

    def test_non_numeric_manifest_sample_count(self, tmp_path, capsys):
        corpus_dir = tmp_path / "c"
        assert main(["synth", "--classes", "3", "--samples", "12", "--time-frames", "8",
                     "--freq-bins", "4", "--out", str(corpus_dir)]) == 0
        manifest = corpus_dir / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("num_samples 12", "num_samples abc"))
        capsys.readouterr()
        # eval reads --corpus before the run, so no run is needed to reach the manifest.
        err = self.assert_config_error(["eval", "--run", str(tmp_path / "run"),
                                        "--corpus", str(corpus_dir)], capsys)
        assert "bad sample count" in err

    def test_eval_warns_once_on_an_edited_config_snapshot(self, tmp_path, capsys):
        run_dir = run_train(tiny_config(tmp_path / "run", epochs=1))
        config = json.loads((run_dir / "config.json").read_text())
        (run_dir / "config.json").write_text(json.dumps({**config, "output_dir": "moved"}))
        capsys.readouterr()
        assert main(["eval", "--run", str(run_dir)]) == 0
        assert capsys.readouterr().err == (f"warning: config snapshot in {run_dir} was mutated "
                                           "after the run; reproduction is not guaranteed\n")

    def test_eval_of_a_run_without_an_eval_corpus_needs_corpus(self, tmp_path, capsys):
        run_dir = run_train({**tiny_config(tmp_path / "run", epochs=1), "eval_corpus": None})
        capsys.readouterr()
        assert main(["eval", "--run", str(run_dir), "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == ("config error: no eval corpus: pass --corpus or "
                                           "configure one in the (first) run\n")
        assert [p.name for p in tmp_path.iterdir()] == ["run"]

    def test_a_corpus_without_time_and_freq_axes_is_refused(self, tmp_path, capsys):
        corpus_dir = tmp_path / "c"
        assert main(["synth", "--classes", "4", "--samples", "12", "--time-frames", "16",
                     "--freq-bins", "8", "--out", str(corpus_dir)]) == 0
        manifest = corpus_dir / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("feature_shape 16 8",
                                                         "feature_shape 128"))
        config_file = tmp_path / "c.json"
        config_file.write_text(json.dumps({**tiny_config(tmp_path / "run", epochs=1),
                                           "corpus": {"path": str(corpus_dir)}}))
        capsys.readouterr()
        assert main(["train", "--config", str(config_file)]) == 2
        assert capsys.readouterr().err == (f"config error: {config_file}: the model needs (time, "
                                           "freq) features, corpus shape is (128,)\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c", "c.json"]

    def test_a_committee_manifest_of_comments_lists_no_runs(self, tmp_path, capsys):
        manifest = tmp_path / "m.txt"
        manifest.write_text("# teacher runs\n\n   \n# none yet\n")
        assert main(["aggregate", "--manifest", str(manifest), "--out", str(tmp_path / "agg")]) == 2
        assert capsys.readouterr().err == (
            f"config error: committee manifest {manifest} lists no runs\n")
        assert [p.name for p in tmp_path.iterdir()] == ["m.txt"]

    def test_corrupt_run_config(self, tmp_path, capsys):
        run_dir = run_train(tiny_config(tmp_path / "run", epochs=1))
        (run_dir / "config.json").write_text('{"seed": ')
        self.assert_config_error(["eval", "--run", str(run_dir)], capsys)

    @pytest.mark.parametrize("edit", ["eval_corpus 5", "eval_corpus {}", "seed '3'",
                                      "unknown eval synth key", "a JSON list"])
    def test_hand_edited_run_config(self, tmp_path, capsys, edit):
        run_dir = run_train(tiny_config(tmp_path / "run", epochs=1))
        config = json.loads((run_dir / "config.json").read_text())
        synth = {**config["eval_corpus"]["synth"], "bogus": 1}
        edited = {"eval_corpus 5": {**config, "eval_corpus": 5},
                  "eval_corpus {}": {**config, "eval_corpus": {}},
                  "seed '3'": {**config, "seed": "3"},
                  "unknown eval synth key": {**config, "eval_corpus": {"synth": synth}},
                  "a JSON list": [config]}[edit]
        (run_dir / "config.json").write_text(json.dumps(edited))
        self.assert_config_error(["eval", "--run", str(run_dir)], capsys)

    def test_corrupt_run_summary(self, tmp_path, capsys):
        run_dir = run_train(tiny_config(tmp_path / "run", epochs=1))
        summary = json.loads((run_dir / "summary.json").read_text())
        del summary["model"]  # as written before the model config was recorded
        for bad in ('{"config_hash": ', "[1, 2]", json.dumps(summary)):
            (run_dir / "summary.json").write_text(bad)
            for argv in (["eval", "--run", str(run_dir)],
                         ["aggregate", "--manifest", str(tmp_path / "m.txt"),
                          "--out", str(tmp_path / "agg")]):
                (tmp_path / "m.txt").write_text(f"{run_dir}\n")
                self.assert_config_error(argv, capsys)

    @pytest.mark.parametrize("patch,drop", [
        ({"num_heads": 2.0}, None), ({"time_strides": [2]}, None), ({"variant": 3}, None),
        ({}, "hidden_dim"), ({}, "num_classes"), ({"dropout": 0.1}, None),
        ({"num_heads": 0}, None),  # right JSON types, refused by ModelConfig's own check
    ])
    def test_recorded_model_config_is_checked(self, tmp_path, capsys, patch, drop):
        run_dir = run_train(tiny_config(tmp_path / "run", epochs=1))
        summary = json.loads((run_dir / "summary.json").read_text())
        summary["model"] = {k: v for k, v in {**summary["model"], **patch}.items() if k != drop}
        (run_dir / "summary.json").write_text(json.dumps(summary))
        err = self.assert_config_error(["eval", "--run", str(run_dir)], capsys)
        assert str(run_dir) in err and "summary.json" in err

    def test_class_count_mismatch(self, tmp_path, capsys):
        four = run_train(tiny_config(tmp_path / "four", epochs=1))
        config = tiny_config(tmp_path / "three", epochs=1)
        for split in ("corpus", "eval_corpus"):
            config[split]["synth"]["num_classes"] = 3
        three = run_train(config)
        (tmp_path / "m.txt").write_text(f"{three}\n{four}\n")
        corpus_dir = tmp_path / "c3"
        assert main(["synth", "--classes", "3", "--samples", "12", "--time-frames", "16",
                     "--freq-bins", "8", "--out", str(corpus_dir)]) == 0
        # Four classes as the run has, under other names.
        renamed = tmp_path / "renamed"
        assert main(["synth", "--classes", "4", "--samples", "12", "--time-frames", "16",
                     "--freq-bins", "8", "--out", str(renamed)]) == 0
        for name in ("manifest.txt", "labels.txt"):
            (renamed / name).write_text((renamed / name).read_text().replace("class0", "other0"))
        (tmp_path / "m4.txt").write_text(f"{four}\n")
        capsys.readouterr()
        for argv in (["aggregate", "--manifest", str(tmp_path / "m.txt"),
                      "--out", str(tmp_path / "agg")],
                     ["eval", "--run", str(four), "--corpus", str(corpus_dir)],
                     ["aggregate", "--manifest", str(tmp_path / "m.txt"), "--corpus",
                      str(corpus_dir), "--out", str(tmp_path / "agg")],
                     ["eval", "--run", str(four), "--corpus", str(renamed)],
                     ["aggregate", "--manifest", str(tmp_path / "m4.txt"), "--corpus",
                      str(renamed), "--out", str(tmp_path / "agg")]):
            self.assert_config_error(argv, capsys)
        assert not (tmp_path / "agg").exists()

    @pytest.mark.parametrize("mismatch", ["five classes", "longer clips", "swapped classes"])
    def test_eval_corpus_that_does_not_fit_the_training_corpus(self, tmp_path, capsys,
                                                               mismatch):
        config = tiny_config(tmp_path / "run", epochs=1)
        if mismatch == "swapped classes":  # the same four names, two of them in swapped columns
            eval_dir = tmp_path / "eval"
            assert main(["synth", "--classes", "4", "--samples", "32", "--time-frames", "16",
                         "--freq-bins", "8", "--out", str(eval_dir)]) == 0
            manifest = eval_dir / "manifest.txt"
            manifest.write_text(manifest.read_text().replace("class001", "swap").replace(
                "class002", "class001").replace("swap", "class002"))
            config["eval_corpus"] = {"path": str(eval_dir)}
        else:
            edit = {"five classes": {"num_classes": 5}, "longer clips": {"feature_shape": [32, 8]}}
            config["eval_corpus"]["synth"].update(edit[mismatch])
        config_file = tmp_path / "c.json"
        config_file.write_text(json.dumps(config))
        capsys.readouterr()
        err = self.assert_config_error(["train", "--config", str(config_file),
                                        "--out", str(tmp_path / "run")], capsys)
        assert "eval corpus" in err and not (tmp_path / "run").exists()
        # enhance checks a teacher's two corpora the same way.
        teacher = run_train(tiny_config(tmp_path / "teacher", epochs=1))
        summary = json.loads((teacher / "summary.json").read_text())
        (teacher / "config.json").write_text(json.dumps(config))
        (teacher / "summary.json").write_text(json.dumps({**summary,
                                                          "config_hash": config_hash(config)}))
        onto = tmp_path / "onto.txt"
        write_ontology(Ontology.from_edges(4, [(0, 1)]), onto, [f"class{k:03d}" for k in range(4)])
        err = self.assert_config_error(["enhance", "--teacher-run", str(teacher), "--ontology",
                                        str(onto), "--out", str(tmp_path / "enh")], capsys)
        assert "eval corpus" in err and not (tmp_path / "enh").exists()

    def test_ablate_without_eval_corpus_fails_before_training(self, tmp_path, capsys):
        config = {**tiny_config(tmp_path / "run", epochs=1), "eval_corpus": None}
        config_file = tmp_path / "c.json"
        config_file.write_text(json.dumps(config))
        self.assert_config_error(["ablate", "--config", str(config_file), "--seeds", "1",
                                  "--out", str(tmp_path / "abl")], capsys)
        assert not (tmp_path / "abl").exists()

    def test_ablate_needs_a_seed(self, tmp_path, capsys):
        config_file = tmp_path / "c.json"
        config_file.write_text(json.dumps(tiny_config(tmp_path / "run", epochs=1)))
        for bad in ("0", "-1"):
            self.assert_config_error(["ablate", "--config", str(config_file), "--seeds", bad,
                                      "--out", str(tmp_path / "abl")], capsys)
        assert not (tmp_path / "abl").exists() and not (tmp_path / "run").exists()

    def test_coverage_mixup_rate_out_of_range(self, tmp_path, capsys):
        config, config_file = tiny_config(tmp_path / "run", epochs=1), tmp_path / "c.json"
        for bad in ({"augment": {**config["augment"], "mixup_rate": 2}},
                    {"augment": {**config["augment"], "mixup_rate": -1}}, {"seed": -1}):
            config_file.write_text(json.dumps({**config, **bad}))
            self.assert_config_error(["coverage", "--config", str(config_file),
                                      "--out", str(tmp_path / "cov.csv")], capsys)
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_failed_aggregate_leaves_no_output_directory(self, tmp_path, capsys):
        self.assert_config_error(["aggregate", "--manifest", str(tmp_path / "nonexist.txt"),
                                  "--out", str(tmp_path / "aggX")], capsys)
        run_dir = run_train(tiny_config(tmp_path / "run", epochs=1))
        (tmp_path / "m.txt").write_text(f"{run_dir}\n")
        for ckpt in (run_dir / "checkpoints").glob("*.ckpt"):
            ckpt.write_bytes(ckpt.read_bytes()[:-3])
        (run_dir / "weight_avg.ckpt").unlink(missing_ok=True)
        self.assert_config_error(["aggregate", "--manifest", str(tmp_path / "m.txt"),
                                  "--out", str(tmp_path / "aggX")], capsys)
        assert not (tmp_path / "aggX").exists()

    def test_gap_in_the_checkpoint_sequence(self, tmp_path, capsys):
        run_dir = run_train(tiny_config(tmp_path / "run", epochs=4))
        (run_dir / "checkpoints" / "epoch_002.ckpt").unlink()
        (tmp_path / "m.txt").write_text(f"{run_dir}\n")
        self.assert_config_error(["aggregate", "--manifest", str(tmp_path / "m.txt"),
                                  "--out", str(tmp_path / "aggX")], capsys)
        assert not (tmp_path / "aggX").exists()

    def test_failed_enhance_leaves_no_output_directory(self, tmp_path, capsys):
        run_dir = run_train(tiny_config(tmp_path / "run", epochs=1))
        for onto in (tmp_path / "missing.txt", tmp_path / "bad.txt"):
            (tmp_path / "bad.txt").write_text("class000 no_such_class\n")
            self.assert_config_error(["enhance", "--teacher-run", str(run_dir), "--ontology",
                                      str(onto), "--out", str(tmp_path / "enhX")], capsys)
        self.assert_config_error(["enhance", "--teacher-run", str(tmp_path / "nonexist"),
                                  "--ontology", str(tmp_path / "bad.txt"),
                                  "--out", str(tmp_path / "enhX")], capsys)
        good = tmp_path / "good.txt"
        write_ontology(Ontology.from_edges(4, [(0, 1)]), good, [f"class{k:03d}" for k in range(4)])
        for policies in ("", ","):
            self.assert_config_error(["enhance", "--teacher-run", str(run_dir), "--ontology",
                                      str(good), "--policies", policies,
                                      "--out", str(tmp_path / "enhX")], capsys)
        assert not (tmp_path / "enhX").exists()

    @pytest.mark.parametrize("defect", ["blank line", "non-integer dimension",
                                        "negative dimension", "non-ASCII name",
                                        "repeated name", "unknown version",
                                        "truncated payload", "size overflowing int64"])
    def test_malformed_init_checkpoint_header(self, tmp_path, capsys, defect):
        config = tiny_config(tmp_path / "run", epochs=1)
        donor = Model.init(validate_config(config)[1], np.random.default_rng(0))
        donor.params_vector().save(tmp_path / "init.ckpt")
        header, payload = (tmp_path / "init.ckpt").read_bytes().split(b"\nEND\n", 1)
        version, first, second, *rest = header.split(b"\n")
        assert (first, second) == (b"tensor enc1_w 16 6", b"tensor enc1_b 6")
        header = b"\n".join({
            "blank line": [version, b"", first, second],
            "non-integer dimension": [version, b"tensor enc1_w 16 six", second],
            "negative dimension": [version, b"tensor enc1_w -16 -6", second],
            "non-ASCII name": [version, "tensor enc1_w\u00e9 16 6".encode(), second],
            "repeated name": [version, first, b"tensor enc1_w 6"],
            "unknown version": [b"TAGKIT-CKPT 12", first, second],
            "truncated payload": [version, first, second],
            # 2**32 * 2**32 wraps to 0 in int64, and "pad" fills the 96 values it claims.
            "size overflowing int64": [version, b"tensor enc1_w 4294967296 4294967296",
                                       b"tensor pad 96", second],
        }[defect] + rest)
        if defect == "truncated payload":
            payload = payload[:-3]
        (tmp_path / "init.ckpt").write_bytes(header + b"\nEND\n" + payload)
        config_file = tmp_path / "c.json"
        config_file.write_text(json.dumps({**config, "init_path": str(tmp_path / "init.ckpt")}))
        self.assert_config_error(["train", "--config", str(config_file)], capsys)
        assert not (tmp_path / "run").exists()

    def test_feature_shape_too_big_to_allocate(self, tmp_path, capsys):
        corpus_dir = tmp_path / "c"
        assert main(["synth", "--classes", "4", "--samples", "24", "--time-frames", "16",
                     "--freq-bins", "8", "--out", str(corpus_dir)]) == 0
        config = {**tiny_config(tmp_path / "run", epochs=1),
                  "corpus": {"path": str(corpus_dir)}, "eval_corpus": {"path": str(corpus_dir)}}
        run_dir = run_train(config)
        onto = tmp_path / "onto.txt"
        write_ontology(Ontology.from_edges(4, [(0, 1)]), onto,
                       [f"class{k:03d}" for k in range(4)])
        (tmp_path / "m.txt").write_text(f"{run_dir}\n")
        config_file = tmp_path / "c.json"
        config_file.write_text(json.dumps({**config, "output_dir": str(tmp_path / "run2")}))
        # With an init checkpoint, the model must not be sized by the manifest first.
        init_file = tmp_path / "c_init.json"
        init_file.write_text(json.dumps({**config, "output_dir": str(tmp_path / "run2"),
                                         "init_path": str(run_dir / "weight_avg.ckpt")}))
        manifest = corpus_dir / "manifest.txt"
        # The model of this shape is too big for numpy to allocate as well, so even
        # code that sized a model first would fail at once instead of filling memory.
        manifest.write_text(manifest.read_text().replace(
            "feature_shape 16 8", "feature_shape 4 4611686018427387904"))
        capsys.readouterr()
        for argv in (["train", "--config", str(config_file)],
                     ["train", "--config", str(init_file)],
                     ["eval", "--run", str(run_dir), "--corpus", str(corpus_dir)],
                     ["enhance", "--teacher-run", str(run_dir), "--ontology", str(onto),
                      "--out", str(tmp_path / "enh")],
                     ["aggregate", "--manifest", str(tmp_path / "m.txt"),
                      "--corpus", str(corpus_dir), "--out", str(tmp_path / "agg")]):
            self.assert_config_error(argv, capsys)
        for out in ("run2", "enh", "agg"):
            assert not (tmp_path / out).exists()

    @pytest.mark.parametrize("key", ["hidden_dim", "num_heads", "embed_dim"])
    def test_model_too_big_to_allocate(self, tmp_path, capsys, key):
        # numpy refuses 2**62-wide tensors before it allocates anything.
        config = tiny_config(tmp_path / "run", epochs=1)
        config["model"][key] = 2**62
        config_file = tmp_path / "c.json"
        config_file.write_text(json.dumps(config))
        err = self.assert_config_error(["train", "--config", str(config_file)], capsys)
        assert "do not fit in memory" in err
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_coverage_epochs_too_many_to_allocate(self, tmp_path, capsys):
        config = tiny_config(tmp_path / "run")
        config["train"]["epochs"] = 2**62
        config_file = tmp_path / "c.json"
        config_file.write_text(json.dumps(config))
        err = self.assert_config_error(["coverage", "--config", str(config_file),
                                        "--out", str(tmp_path / "cov.csv")], capsys)
        assert "do not fit in memory" in err
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_nul_byte_in_a_path_read_from_a_file(self, tmp_path, capsys):
        config_file = tmp_path / "c.json"
        config_file.write_text(json.dumps({**tiny_config(tmp_path / "run", epochs=1),
                                           "output_dir": f"{tmp_path / 'rn'}\0x"}))
        err = self.assert_config_error(["train", "--config", str(config_file)], capsys)
        assert "output_dir" in err
        (tmp_path / "m.txt").write_text(f"{tmp_path / 'rn'}\0x\n")
        err = self.assert_config_error(["aggregate", "--manifest", str(tmp_path / "m.txt"),
                                        "--out", str(tmp_path / "agg")], capsys)
        assert "NUL byte" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "m.txt"]

    def test_synthetic_corpus_too_big_to_allocate(self, tmp_path, capsys):
        # numpy refuses these shapes before it allocates anything; a huge class or
        # sample count would fill memory before the feature array is reached.
        huge = str(2**62)
        for dim in ("--freq-bins", "--time-frames"):
            self.assert_config_error(["synth", "--classes", "3", "--samples", "12", dim, huge,
                                      "--out", str(tmp_path / "x")], capsys)
        config_file = tmp_path / "c.json"
        config_file.write_text(json.dumps({
            "output_dir": str(tmp_path / "run"), "augment": {"time_mask_max": 8},
            "corpus": {"synth": {"num_classes": 3, "num_samples": 12,
                                 "feature_shape": [32, 2**62]}}}))
        self.assert_config_error(["train", "--config", str(config_file)], capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    def test_eval_checkpoint_must_be_one_the_run_holds(self, tmp_path, capsys):
        run_dir = run_train(tiny_config(tmp_path / "run", epochs=2))
        other = run_train(tiny_config(tmp_path / "other", seed=1, epochs=2))
        for name in ("weight_avg", "weight_avg.ckpt", "epoch_001", "epoch_002.ckpt"):
            assert main(["eval", "--run", str(run_dir), "--checkpoint", name]) == 0
        capsys.readouterr()
        for name in ("../other/weight_avg", str(other / "checkpoints" / "epoch_002"),
                     str(other / "weight_avg.ckpt"), "checkpoints/epoch_001", "epoch_003"):
            assert main(["eval", "--run", str(run_dir), "--checkpoint", name]) == 2
            err = capsys.readouterr().err
            assert err == (f"config error: {run_dir} holds no checkpoint {name!r}; "
                           "it holds epoch_001, epoch_002, weight_avg\n")

    def test_seed_must_be_a_non_negative_integer(self, tmp_path, capsys):
        config_file = tmp_path / "c.json"
        for bad in (-1, "3", 1.0, True, None):
            config_file.write_text(json.dumps({**tiny_config(tmp_path / "run"), "seed": bad}))
            self.assert_config_error(["train", "--config", str(config_file)], capsys)
        assert not (tmp_path / "run").exists()

    def test_weight_avg_start_must_be_a_positive_integer(self, tmp_path, capsys):
        config = tiny_config(tmp_path / "run", epochs=1)
        config_file = tmp_path / "c.json"
        for bad in (0, -1, 1.5, True, "2"):
            config_file.write_text(json.dumps({**config, "weight_avg_start": bad}))
            self.assert_config_error(["train", "--config", str(config_file)], capsys)
        config_file.write_text(json.dumps({**config, "weight_avg_start": 1}))
        assert main(["train", "--config", str(config_file)]) == 0
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["weight_avg_start"] == 1


@pytest.mark.parametrize("case", ["train --config DIR", "enhance --ontology DIR",
                                  "aggregate --manifest DIR", "0xff in manifest.txt",
                                  "0xff in --config", "train --config LOOP",
                                  "synth --out LONG"])
def test_unreadable_input_is_a_config_error(tmp_path, capsys, case):
    folder = tmp_path / "folder"
    folder.mkdir()
    if case == "train --config LOOP":  # ELOOP: a symlink to itself
        (tmp_path / "loop.json").symlink_to(tmp_path / "loop.json")
        argv = ["train", "--config", str(tmp_path / "loop.json")]
    elif case == "synth --out LONG":  # ENAMETOOLONG: a 300-character file name
        argv = ["synth", "--classes", "3", "--samples", "12", "--out", str(tmp_path / ("x" * 300))]
    elif case == "enhance --ontology DIR":
        run_dir = run_train(tiny_config(tmp_path / "run", epochs=1))
        argv = ["enhance", "--teacher-run", str(run_dir), "--ontology", str(folder),
                "--out", str(tmp_path / "enh")]
    elif case == "0xff in manifest.txt":
        assert main(["synth", "--classes", "3", "--samples", "12", "--time-frames", "8",
                     "--freq-bins", "4", "--out", str(tmp_path / "c")]) == 0
        manifest = tmp_path / "c" / "manifest.txt"
        manifest.write_bytes(manifest.read_bytes() + b"class \xff\n")
        argv = ["eval", "--run", str(tmp_path / "run"), "--corpus", str(tmp_path / "c")]
    elif case == "0xff in --config":
        (tmp_path / "c.json").write_bytes(b'{"seed": 1\xff}')
        argv = ["train", "--config", str(tmp_path / "c.json")]
    else:
        command, option, _ = case.split()
        argv = [command, option, str(folder), "--out", str(tmp_path / "out")]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_readme_command_lines_parse(capsys):
    # A README example that names a removed or renamed option fails here, not for a reader.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    code = readme.read_text().replace("\\\n", " ").split("```")[1::2]  # continuations joined
    lines = [shlex.split(line) for block in code for line in block.splitlines()
             if line.startswith("tagkit ")]
    stale = []
    for argv in lines:
        try:
            build_parser().parse_args(argv[1:])
        except SystemExit:
            stale.append(shlex.join(argv))
    assert stale == []
    assert {argv[1] for argv in lines} == set(_COMMANDS)  # every command has an example


def test_train_out_is_the_output_dir_its_config_json_records(tmp_path, capsys):
    config_file = tmp_path / "c.json"
    config_file.write_text(json.dumps(tiny_config(tmp_path / "run", epochs=1)))
    elsewhere = tmp_path / "elsewhere"
    assert main(["train", "--config", str(config_file), "--out", str(elsewhere)]) == 0
    assert not (tmp_path / "run").exists()
    assert json.loads((elsewhere / "config.json").read_text())["output_dir"] == str(elsewhere)
    capsys.readouterr()
    assert main(["eval", "--run", str(elsewhere)]) == 0
    assert capsys.readouterr().err == ""  # no mutated-config warning


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_a_perfect_ranking_writes_strict_json_with_a_null_d_prime(tmp_path):
    labels = np.array([[1, 0], [0, 1], [1, 1], [0, 0]])
    report = evaluate(labels * 0.5 + 0.25, labels)
    assert report.mean_auc == 1.0 and report.dprime == np.inf
    write_json(tmp_path / "r.json", report.to_dict())
    back = json.loads((tmp_path / "r.json").read_text(), parse_constant=_refuse_constant)
    assert back["d_prime"] is None and back["map"] == 1.0
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            write_json(tmp_path / "bad.json", {"d_prime": value})


class TestRunDirectoryContract:
    def test_training_over_a_run_is_refused_and_changes_nothing(self, tmp_path, capsys):
        # Training 1 epoch into a 3-epoch run used to leave epochs 2 and 3 behind,
        # where aggregate swept them as if one run had made them.
        config_file = tmp_path / "c.json"
        config_file.write_text(json.dumps(tiny_config(tmp_path / "runx", epochs=3)))
        assert main(["train", "--config", str(config_file)]) == 0
        before = {p: p.read_bytes() for p in (tmp_path / "runx").rglob("*") if p.is_file()}
        config_file.write_text(json.dumps(tiny_config(tmp_path / "runx", epochs=1)))
        capsys.readouterr()
        assert main(["train", "--config", str(config_file)]) == 2
        err = capsys.readouterr().err
        assert err == (f"config error: {tmp_path / 'runx'} already exists; "
                       "train makes a new run directory\n")
        assert {p: p.read_bytes() for p in (tmp_path / "runx").rglob("*") if p.is_file()} == before

    def test_a_run_without_its_summary_is_refused(self, tmp_path, capsys):
        run_dir = run_train(tiny_config(tmp_path / "run", epochs=1))
        (run_dir / "summary.json").unlink()
        onto = tmp_path / "onto.txt"
        write_ontology(Ontology.from_edges(4, [(0, 1)]), onto,
                       [f"class{k:03d}" for k in range(4)])
        (tmp_path / "m.txt").write_text(f"{run_dir}\n")
        capsys.readouterr()
        for argv in (["eval", "--run", str(run_dir)],
                     ["enhance", "--teacher-run", str(run_dir), "--ontology", str(onto),
                      "--out", str(tmp_path / "enh")],
                     ["aggregate", "--manifest", str(tmp_path / "m.txt"),
                      "--out", str(tmp_path / "agg")]):
            assert main(argv) == 2
            assert capsys.readouterr().err == (
                f"config error: not a finished run (no summary.json): {run_dir}\n")
        for out in ("enh", "agg"):
            assert not (tmp_path / out).exists()


def test_class_csv_counts_are_training_class_counts(tmp_path):
    config = tiny_config(tmp_path / "run", epochs=2)
    run_dir = run_train(config)
    counts = build_corpus(corpus_specs(config)[0]).labels.sum(axis=0).tolist()
    assert min(counts) > 0
    for epoch in (1, 2):
        rows = (run_dir / "eval" / f"epoch_{epoch:03d}.csv").read_text().splitlines()
        assert rows[0] == "class,ap,auc,count"
        assert [int(r.split(",")[3]) for r in rows[1:]] == counts


def test_the_shared_labels_are_never_written(tmp_path, monkeypatch):
    # Every reader takes corpus.labels in place, so a write would change its caller's corpus.
    import tagkit.cli as cli

    config, built, real = tiny_config(tmp_path / "run", epochs=2), {}, cli.build_corpus

    def shared(spec):  # each command gets the one corpus object a spec names
        if spec is None:
            return None
        if spec["synth"] not in built:
            built[spec["synth"]] = real(spec)
        return built[spec["synth"]]

    monkeypatch.setattr(cli, "build_corpus", shared)
    specs, model_config, augment_config, train_config = validate_config(config)
    corpora = [shared(spec) for spec in specs]
    before = [c.labels.tobytes() for c in corpora]
    tagkit.model.train(corpora[0], model_config, augment_config, train_config,
                       eval_corpus=corpora[1])
    run_dir = run_train(config)
    write_ontology(Ontology.from_edges(4, [(0, 1), (0, 2), (1, 3)]), tmp_path / "onto.txt",
                   corpora[0].class_names)
    (tmp_path / "committee.txt").write_text(f"{run_dir}\n")
    for argv in (["eval", "--run", str(run_dir)],
                 ["enhance", "--teacher-run", str(run_dir), "--ontology",
                  str(tmp_path / "onto.txt"), "--policies", "mean,p5", "--out",
                  str(tmp_path / "enh")],
                 ["aggregate", "--manifest", str(tmp_path / "committee.txt"), "--out",
                  str(tmp_path / "agg")]):
        assert main(argv) == 0
    assert len(built) == 2
    assert [c.labels.tobytes() for c in corpora] == before


def test_a_class_with_no_eval_positive_gets_empty_ap_and_auc_cells(tmp_path):
    config = tiny_config(tmp_path / "run", epochs=1)
    evalc = build_corpus(corpus_specs(config)[1])
    labels = evalc.label_matrix()
    labels[:, 3] = 0
    labels[~labels.any(axis=1), 0] = 1  # every clip keeps a label
    write_labels(tmp_path / "eval_labels.txt", evalc.ids, labels, evalc.class_names)
    config["eval_corpus"]["labels"] = str(tmp_path / "eval_labels.txt")
    run_dir = run_train(config)
    rows = [row.split(",") for row in
            (run_dir / "eval" / "epoch_001.csv").read_text().splitlines()[1:]]
    assert [row[:3] for row in rows if "" in row] == [["class003", "", ""]]
    report = json.loads((run_dir / "eval" / "epoch_001.json").read_text())
    assert [report[key][3] for key in ("per_class_ap", "per_class_auc")] == [None, None]
    assert report["num_skipped_ap"] == report["num_skipped_auc"] == 1


def test_write_table_writes_a_float_as_its_plain_repr_and_a_nan_empty(tmp_path):
    write_table(tmp_path / "t.csv", ["f64", "nan", "int", "str", "float"],
                [[np.float64(1 / 3), np.float64("nan"), 3, "a b", 0.5],
                 [np.float64(-0.0), float("nan"), np.int64(-7), "", 1e-300]])
    assert (tmp_path / "t.csv").read_bytes() == (b"f64,nan,int,str,float\r\n"
                                                 b"0.3333333333333333,,3,a b,0.5\r\n"
                                                 b"-0.0,,-7,,1e-300\r\n")


def test_finish_refuses_a_log_key_or_a_class_count_it_cannot_write(tmp_path):
    report = SimpleNamespace(to_dict=dict, per_class_ap=[0.5, 0.25], per_class_auc=[0.5, 0.75])
    for i, (log_rows, counts) in enumerate([([{"epoch": 1, "bogus": 2}], [3, 4]), ([], [3])]):
        (tmp_path / f"r{i}").mkdir()
        result = SimpleNamespace(checkpoints=[], log_rows=log_rows, eval_reports=[report])
        with pytest.raises(ValueError):
            finish(tmp_path / f"r{i}", result, ["a", "b"], counts, {})


def test_a_null_pattern_seed_gives_the_eval_split_the_training_patterns(tmp_path):
    # null means the training split's own seed, as when pattern_seed is left out.
    config = tiny_config(tmp_path / "run")
    omitted = build_corpus(corpus_specs(config)[1])
    config["corpus"]["synth"]["pattern_seed"] = None
    assert build_corpus(corpus_specs(config)[1]).features.tobytes() == omitted.features.tobytes()


# Runs ``tagkit ablate`` with the argv it is given; the process kills itself with SIGKILL
# as its second training starts.
KILL_SECOND_TRAINING = """
import os, signal, sys
import tagkit.cli as cli

calls, real = [], cli.run_train

def run_train(*args, **kwargs):
    calls.append(1)
    if len(calls) == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return real(*args, **kwargs)

cli.run_train = run_train
sys.exit(cli.main(sys.argv[1:]))
"""


def _tree(root):
    """root and every path under it, with its bytes for a file; root may be a symlink."""
    return root.is_symlink(), {p: p.read_bytes() if p.is_file() else None
                               for p in [root, *root.rglob("*")]}


class TestPublishedOutputs:
    """A command's --out is a new path, published whole or not at all."""

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("published")
        for name, seed in (("run", 0), ("other", 1)):
            run_train(tiny_config(tmp_path / name, seed=seed, epochs=2))
        write_ontology(Ontology.from_edges(4, [(0, 1), (0, 2), (1, 3)]), tmp_path / "onto.txt",
                       [f"class{k:03d}" for k in range(4)])
        (tmp_path / "solo.txt").write_text(f"{tmp_path / 'run'}\n")
        (tmp_path / "pair.txt").write_text(f"{tmp_path / 'run'}\n{tmp_path / 'other'}\n")
        (tmp_path / "c.json").write_text(json.dumps(tiny_config(tmp_path / "unused", epochs=1)))
        assert main(TestPublishedOutputs.argv("synth", tmp_path, tmp_path / "corpus")) == 0
        return tmp_path

    @staticmethod
    def argv(command, work, out):
        return {
            "synth": ["synth", "--classes", "4", "--samples", "12", "--time-frames", "16",
                      "--freq-bins", "8"],
            "eval": ["eval", "--run", str(work / "run")],
            "enhance": ["enhance", "--teacher-run", str(work / "run"),
                        "--ontology", str(work / "onto.txt")],
            "aggregate": ["aggregate", "--manifest", str(work / "solo.txt")],
            "coverage": ["coverage", "--config", str(work / "c.json")],
            "ablate": ["ablate", "--config", str(work / "c.json"), "--seeds", "1"],
        }[command] + ["--out", str(out)]

    def refused(self, argv, out, capsys):
        """argv exits 2 with one config error line and leaves out as it was."""
        before = _tree(out)
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert _tree(out) == before
        assert not out.with_name(f".{out.name}.partial").exists()
        return err

    def test_aggregate_over_a_one_run_committee_is_refused(self, work, capsys):
        # The two-run call used to leave the one-run sweep beside its own reports.
        out = work / "agg_stale"
        assert main(self.argv("aggregate", work, out)) == 0
        assert (out / "start_epoch_sweep.csv").is_file()
        self.refused(["aggregate", "--manifest", str(work / "pair.txt"), "--out", str(out)],
                     out, capsys)

    def test_enhance_over_other_policies_is_refused(self, work, capsys):
        # The mean-only call used to leave the p25 files beside a summary without p25.
        out = work / "enh_stale"
        assert main([*self.argv("enhance", work, out), "--policies", "mean,p25"]) == 0
        self.refused([*self.argv("enhance", work, out), "--policies", "mean"], out, capsys)

    def test_synth_over_a_larger_corpus_is_refused(self, work, capsys):
        # The 6-clip call used to leave the other 6 payloads behind.
        out = work / "synth_stale"
        assert main(self.argv("synth", work, out)) == 0
        argv = self.argv("synth", work, out)
        argv[argv.index("--samples") + 1] = "6"
        self.refused(argv, out, capsys)
        assert len(list((out / "features").iterdir())) == 12

    @pytest.mark.parametrize("kind", ["file", "empty directory", "symlink"])
    @pytest.mark.parametrize("command", ["synth", "eval", "enhance", "aggregate", "coverage",
                                         "ablate"])
    def test_an_existing_out_is_refused_before_scoring(self, work, command, kind, capsys,
                                                       monkeypatch):
        out = work / f"{command}_{kind.replace(' ', '_')}"
        if kind == "file":
            out.write_text("keep\n")
        elif kind == "empty directory":
            out.mkdir()
        else:
            out.symlink_to(work / "nowhere")
        predicts = []
        monkeypatch.setattr(Model, "predict", lambda *a, **k: predicts.append(1))
        err = self.refused(self.argv(command, work, out), out, capsys)
        assert predicts == []
        assert err == f"config error: {out} already exists; --out must name a new path\n"

    def test_a_refused_command_removes_the_parents_it_made(self, work, capsys):
        # They used to stay behind, empty, after the command exited 2.
        (work / "bogus.json").write_text('{"bogus": 1}')
        capsys.readouterr()
        argv = ["coverage", "--config", str(work / "bogus.json"),
                "--out", str(work / "deep" / "er" / "cov.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"config error: {work / 'bogus.json'}: unknown config key 'bogus'\n")
        assert not (work / "deep").exists()

    def test_a_parent_filled_while_the_command_runs_is_kept(self, work, monkeypatch):
        import tagkit.cli as cli

        def fill_then_fail(*args):
            (work / "filled" / "note.txt").write_text("not the command's\n")
            raise SamplerError("planted")

        monkeypatch.setattr(cli, "simulate_coverage", fill_then_fail)
        out = work / "filled" / "er" / "cov.csv"
        assert main(self.argv("coverage", work, out)) == 2
        assert [p.name for p in (work / "filled").iterdir()] == ["note.txt"]

    def test_a_command_that_succeeds_keeps_the_parents_it_made(self, work):
        out = work / "made" / "er" / "cov.csv"
        assert main(self.argv("coverage", work, out)) == 0
        assert out.is_file() and [p.name for p in out.parent.iterdir()] == ["cov.csv"]

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_a_writer_that_fails_midway_leaves_nothing(self, work, error, monkeypatch):
        import tagkit.cli as cli

        calls, real = [], cli.write_labels

        def fail_second(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise error("killed")
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "write_labels", fail_second)
        out = work / f"enh_{error.__name__}"
        with pytest.raises(error):
            main(self.argv("enhance", work, out))
        assert len(calls) == 2
        assert not out.exists() and not (work / f".{out.name}.partial").exists()

    def test_an_out_made_while_the_command_runs_is_kept(self, work, capsys, monkeypatch):
        # A rename onto an empty directory would replace it without a word.
        import tagkit.cli as cli

        out, real = work / "enh_raced", cli.write_labels
        monkeypatch.setattr(cli, "write_labels",
                            lambda *a, **k: out.mkdir(exist_ok=True) or real(*a, **k))
        capsys.readouterr()
        assert main(self.argv("enhance", work, out)) == 2
        assert capsys.readouterr().err == (
            f"config error: {out} was made while this command ran; its output is dropped\n")
        assert list(out.iterdir()) == [] and not (work / f".{out.name}.partial").exists()

    @pytest.mark.parametrize("command", ["synth", "aggregate", "coverage", "eval", "ablate"])
    def test_a_partial_sibling_left_by_a_killed_command_is_cleared(self, work, command):
        out = work / f"{command}_again"
        partial = work / f".{out.name}.partial"
        partial.mkdir()
        (partial / "stale.txt").write_text("from a killed command\n")
        assert main(self.argv(command, work, out)) == 0
        assert not partial.exists()
        assert not (out / "stale.txt").exists()

    def test_an_ablate_that_diverges_leaves_nothing(self, work, capsys, monkeypatch):
        import tagkit.cli as cli

        calls, real = [], cli.train

        def diverge_second(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise DivergenceError("planted")
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "train", diverge_second)
        out = work / "abl_diverged"
        capsys.readouterr()
        assert main([*self.argv("ablate", work, out), "--toggles", "mixup"]) == 3
        assert capsys.readouterr().err == "numerical failure: planted\n"
        assert len(calls) == 2
        assert not out.exists() and not (work / f".{out.name}.partial").exists()

    def test_a_killed_ablate_leaves_only_its_sibling_and_reruns(self, work, capsys):
        toggles = ["--toggles", "mixup"]
        assert main([*self.argv("ablate", work, work / "abl_whole"), *toggles]) == 0
        out = work / "abl_killed"
        argv = [*self.argv("ablate", work, out), *toggles]
        env = dict(os.environ, PYTHONPATH=str(Path(tagkit.__file__).resolve().parents[1]))
        child = subprocess.run([sys.executable, "-c", KILL_SECOND_TRAINING, *argv],
                               env=env, capture_output=True, timeout=300)
        assert child.returncode == -signal.SIGKILL, child.stderr
        partial = work / f".{out.name}.partial"
        assert not out.exists() and (partial / "full" / "seed_0" / "summary.json").is_file()
        assert main(argv) == 0
        assert not partial.exists()
        assert ((out / "ablation.csv").read_bytes()
                == (work / "abl_whole" / "ablation.csv").read_bytes())
        for variant in ("full", "no-mixup"):  # each run names the path it was published at
            config = json.loads((out / variant / "seed_0" / "config.json").read_text())
            assert config["output_dir"] == str(out / variant / "seed_0")
        run_dir = out / "full" / "seed_0"
        assert main(["eval", "--run", str(run_dir), "--checkpoint", "epoch_001",
                     "--out", str(work / "abl_killed_eval.json")]) == 0
        logged = json.loads((run_dir / "eval" / "epoch_001.json").read_text())
        assert json.loads((work / "abl_killed_eval.json").read_text())["map"] == logged["map"]

    def test_a_committee_may_not_list_a_run_twice(self, work, capsys):
        # Counted twice, the run used to weigh double in the ensemble.
        again = work / "other" / ".." / "run"
        (work / "twice.txt").write_text(f"{work / 'run'}\n{work / 'other'}\n{again}\n")
        argv = ["aggregate", "--manifest", str(work / "twice.txt"), "--out", str(work / "agg2")]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"config error: committee manifest {work / 'twice.txt'} lists {again} twice\n")
        assert not (work / "agg2").exists()
