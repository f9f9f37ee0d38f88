"""End-to-end CLI pipelines on tiny synthetic corpora."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagkit.cli import (
    DEFAULT_CONFIG,
    SECTIONS,
    ConfigError,
    apply_toggle,
    build_eval_corpus,
    build_model_config,
    config_hash,
    load_config,
    main,
    merge_config,
    run_aggregate,
    run_enhance,
    run_train,
)
from tagkit.corpus import read_corpus
from tagkit.metrics import evaluate
from tagkit.model import Model, ParameterVector
from tagkit.sampler import SamplerError
from tagkit.ontology import write_ontology, Ontology


def tiny_config(out_dir, seed=0, epochs=3):
    return merge_config({
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
    })


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            merge_config({"bogus": 1, "corpus": {"synth": {"num_classes": 2,
                                                            "num_samples": 4}}})

    def test_missing_corpus_rejected(self):
        with pytest.raises(ConfigError, match="corpus"):
            merge_config({"seed": 1})

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            merge_config({"corpus": {"path": str(tmp_path / "nope")}})

    def test_hash_stable_under_key_order(self):
        a = {"seed": 1, "corpus": {"synth": {"num_classes": 2, "num_samples": 4}}}
        b = {"corpus": {"synth": {"num_samples": 4, "num_classes": 2}}, "seed": 1}
        assert config_hash(merge_config(a)) == config_hash(merge_config(b))

    def test_load_config_reports_json_position(self, tmp_path):
        bad = tmp_path / "c.json"
        bad.write_text('{"seed": }')
        with pytest.raises(ConfigError, match="line"):
            load_config(bad)

    def test_default_config_hash_is_pinned(self):
        config = merge_config({"seed": 1, "corpus": {"synth": {"num_classes": 2,
                                                                "num_samples": 4}}})
        assert config_hash(config) == (
            "46d4b53bf87cae52b9be43eff7b21dcccb541df17a23f1c64a658c13314c4aad")

    def test_top_level_must_be_an_object(self):
        with pytest.raises(ConfigError, match="JSON object"):
            merge_config([1, 2])

    def test_section_must_be_an_object(self):
        with pytest.raises(ConfigError, match="train must be a JSON object"):
            merge_config({"train": None, "corpus": {"synth": {"num_classes": 2,
                                                               "num_samples": 4}}})


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


def _train_exit(config: dict, work) -> tuple[int, str]:
    config_file = work / "c.json"
    config_file.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["train", "--config", str(config_file), "--out", str(work / "run")])
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
    code, err = _train_exit(config, work)
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
])
def test_bad_config_exits_2_and_writes_nothing(tmp_path, section, patch):
    config = tiny_config(tmp_path / "run")
    config[section] = {**config[section], **patch}
    code, err = _train_exit(config, tmp_path)
    assert code == 2 and err.startswith("config error: ") and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_output_dir_must_be_a_string(tmp_path):
    config = {**tiny_config(tmp_path / "run"), "output_dir": 3}
    code, err = _train_exit(config, tmp_path)
    assert code == 2 and err.startswith("config error: ") and err.count("\n") == 1
    assert "output_dir must be a string" in err
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
        model_config = build_model_config(config)
        eval_corpus = build_eval_corpus(config)
        members = [Model.from_vector(model_config, ParameterVector.load(p)).predict(
                       eval_corpus.features)
                   for p in sorted((run_dir / "checkpoints").glob("epoch_*.ckpt"))]
        report = evaluate(np.mean(np.stack(members), axis=0), eval_corpus.label_matrix())
        report.write_json(tmp_path / "want.json")
        assert ((run_dir / "eval" / "checkpoint_ensemble.json").read_bytes()
                == (tmp_path / "want.json").read_bytes())

    def test_same_seed_same_headline(self, tmp_path):
        a = run_train(tiny_config(tmp_path / "a", seed=3))
        b = run_train(tiny_config(tmp_path / "b", seed=3))
        sa = json.loads((a / "summary.json").read_text())
        sb = json.loads((b / "summary.json").read_text())
        assert sa["headline_map"] == sb["headline_map"]
        assert sa["per_epoch_map"] == sb["per_epoch_map"]

    def test_lock_prevents_concurrent_ownership(self, tmp_path):
        config = tiny_config(tmp_path / "run")
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / "lock").write_text("999\n")
        with pytest.raises(ConfigError, match="lock"):
            run_train(config)

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
        out_csv = tmp_path / "coverage.csv"
        assert main(["coverage", "--corpus", str(corpus_dir), "--epochs", "3",
                     "--out", str(out_csv)]) == 0
        rows = out_csv.read_text().splitlines()
        assert rows[0] == "epoch,unseen_fraction"
        assert len(rows) == 4

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

    def test_numerical_failure_exit_code(self, tmp_path):
        config_file = tmp_path / "c.json"
        config_file.write_text(json.dumps({
            "corpus": {"synth": {"num_classes": 4, "num_samples": 32, "seed": 1,
                                 "feature_shape": [8, 4]}},
            "model": {"variant": "linear"},
            "augment": {"freq_mask_max": 2, "time_mask_max": 2},
            "train": {"epochs": 1, "batch_size": 8, "base_lr": 1e308,
                      "warmup_iters": 0},
            "output_dir": str(tmp_path / "run"),
        }))
        assert main(["train", "--config", str(config_file)]) == 3


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
        from tagkit.cli import run_ablation

        rows = run_ablation(config, ["mixup"], 2, tmp_path / "abl")
        full = next(r for r in rows if r["variant"] == "full")
        headlines = []
        for seed_dir in sorted((tmp_path / "abl" / "full").iterdir()):
            summary = json.loads((seed_dir / "summary.json").read_text())
            headlines.append(summary["ensemble_map"])
        assert full["map_mean"] == pytest.approx(np.mean(headlines))
        assert full["map_sd"] == pytest.approx(np.std(headlines))

    def test_toggle_transforms(self, tmp_path):
        config = tiny_config(tmp_path / "x")
        assert apply_toggle(config, "mixup")["augment"]["mixup_rate"] == 0.0
        assert apply_toggle(config, "masking")["augment"]["freq_mask_max"] == 0
        assert apply_toggle(config, "balanced")["augment"]["balanced"] is False
        with pytest.raises(ConfigError):
            apply_toggle(config, "nonsense")


def main_ablate(config, toggles, seeds, out):
    from tagkit.cli import run_ablation

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

    def test_enhance_config_requires_ontology(self, tmp_path):
        raw = {
            "corpus": {"synth": {"num_classes": 4, "num_samples": 16,
                                 "feature_shape": [8, 4]}},
            "enhance": {"teacher_run": str(tmp_path)},
        }
        with pytest.raises(ConfigError, match="ontology"):
            merge_config(raw)

    def test_enhance_config_retrains_on_repaired_labels(self, teacher_setup, tmp_path):
        run_dir, onto_path, _ = teacher_setup
        config = tiny_config(tmp_path / "student2", epochs=1)
        config["enhance"] = {"teacher_run": str(run_dir), "ontology": str(onto_path),
                             "policy": "p10", "mode": "both"}
        student = run_train(config)
        assert (student / "enhance_audit.csv").is_file()
        assert (student / "summary.json").is_file()

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
        onto = tmp_path / "o.txt"
        onto.write_text("class000 class001\n")
        with pytest.raises(ConfigError, match="checkpoint"):
            run_enhance(tmp_path / "empty_run", onto, ["mean"], "both", tmp_path / "e")


class TestAggregateCommand:
    def test_committee_of_one_matches_member(self, tmp_path):
        run_dir = run_train(tiny_config(tmp_path / "solo", epochs=2))
        manifest = tmp_path / "committee.txt"
        manifest.write_text(f"{run_dir}\n")
        comparison = run_aggregate(manifest, tmp_path / "agg")
        assert comparison["num_members"] == 1
        assert comparison["ensemble_map"] == pytest.approx(comparison["best_map"])
        assert (tmp_path / "agg" / "start_epoch_sweep.csv").is_file()

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


class TestBadInputExitCodes:
    def assert_config_error(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "Traceback" not in err

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
        self.assert_config_error(["coverage", "--corpus", str(corpus_dir),
                                  "--out", str(tmp_path / "cov.csv")], capsys)

    def test_corrupt_run_config(self, tmp_path, capsys):
        run_dir = run_train(tiny_config(tmp_path / "run", epochs=1))
        (run_dir / "config.json").write_text('{"seed": ')
        self.assert_config_error(["eval", "--run", str(run_dir)], capsys)

    def test_corrupt_run_summary(self, tmp_path, capsys):
        run_dir = run_train(tiny_config(tmp_path / "run", epochs=1))
        for bad in ('{"config_hash": ', "[1, 2]"):
            (run_dir / "summary.json").write_text(bad)
            for argv in (["eval", "--run", str(run_dir)],
                         ["aggregate", "--manifest", str(tmp_path / "m.txt"),
                          "--out", str(tmp_path / "agg")]):
                (tmp_path / "m.txt").write_text(f"{run_dir}\n")
                self.assert_config_error(argv, capsys)

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
        capsys.readouterr()
        for argv in (["aggregate", "--manifest", str(tmp_path / "m.txt"),
                      "--out", str(tmp_path / "agg")],
                     ["eval", "--run", str(four), "--corpus", str(corpus_dir)],
                     ["aggregate", "--manifest", str(tmp_path / "m.txt"), "--corpus",
                      str(corpus_dir), "--out", str(tmp_path / "agg")]):
            self.assert_config_error(argv, capsys)

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
        corpus_dir = tmp_path / "c"
        assert main(["synth", "--classes", "3", "--samples", "12", "--time-frames", "8",
                     "--freq-bins", "4", "--out", str(corpus_dir)]) == 0
        capsys.readouterr()
        for bad in ("2", "-1"):
            self.assert_config_error(["coverage", "--corpus", str(corpus_dir), "--mixup-rate",
                                      bad, "--out", str(tmp_path / "cov.csv")], capsys)
        assert not (tmp_path / "cov.csv").exists()

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

    def test_failed_enhance_leaves_no_output_directory(self, tmp_path, capsys):
        run_dir = run_train(tiny_config(tmp_path / "run", epochs=1))
        for onto in (tmp_path / "missing.txt", tmp_path / "bad.txt"):
            (tmp_path / "bad.txt").write_text("class000 no_such_class\n")
            self.assert_config_error(["enhance", "--teacher-run", str(run_dir), "--ontology",
                                      str(onto), "--out", str(tmp_path / "enhX")], capsys)
        self.assert_config_error(["enhance", "--teacher-run", str(tmp_path / "nonexist"),
                                  "--ontology", str(tmp_path / "bad.txt"),
                                  "--out", str(tmp_path / "enhX")], capsys)
        assert not (tmp_path / "enhX").exists()

    @pytest.mark.parametrize("defect", ["blank line", "non-integer dimension",
                                        "negative dimension", "non-ASCII name",
                                        "repeated name", "unknown version",
                                        "truncated payload"])
    def test_malformed_init_checkpoint_header(self, tmp_path, capsys, defect):
        config = tiny_config(tmp_path / "run", epochs=1)
        donor = Model.init(build_model_config(config), np.random.default_rng(0))
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
        }[defect] + rest)
        if defect == "truncated payload":
            payload = payload[:-3]
        (tmp_path / "init.ckpt").write_bytes(header + b"\nEND\n" + payload)
        config_file = tmp_path / "c.json"
        config_file.write_text(json.dumps({**config, "init_path": str(tmp_path / "init.ckpt")}))
        self.assert_config_error(["train", "--config", str(config_file)], capsys)
        assert not (tmp_path / "run" / "config.json").exists()

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


def test_class_csv_counts_are_training_class_counts(tmp_path):
    from tagkit.cli import build_corpora

    config = tiny_config(tmp_path / "run", epochs=2)
    run_dir = run_train(config)
    counts = build_corpora(config)[0].labels.sum(axis=0).tolist()
    assert min(counts) > 0
    for epoch in (1, 2):
        rows = (run_dir / "eval" / f"epoch_{epoch:03d}.csv").read_text().splitlines()
        assert rows[0] == "class,ap,auc,count"
        assert [int(r.split(",")[3]) for r in rows[1:]] == counts
