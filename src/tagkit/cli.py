"""Experiment runner: config-driven train/eval/enhance/aggregate/ablate pipelines.

A run directory is self-describing: the config snapshot (plus its hash),
per-epoch checkpoints, the train log, per-epoch eval reports, the
weight-averaged checkpoint, and the checkpoint-ensemble report all live
inside it, so evaluation can be reproduced from the artifacts alone.

Exit codes: 0 success, 2 config/input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import json
import os
import sys
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np

from . import aggregate as agg
from .corpus import (CorpusError, MultiLabelCorpus, SynthSpec, generate_synthetic, read_corpus,
                     read_labels, read_manifest, write_corpus, write_labels)
from .labelfix import (
    MODES,
    POLICIES,
    LabelFixError,
    enhance,
    enhance_eval_set,
    make_thresholds,
)
from .metrics import EvalReport, MetricError, evaluate
from .model import (
    DivergenceError,
    LRSchedule,
    Model,
    ModelConfig,
    ModelError,
    ParameterVector,
    TrainConfig,
    load_external_init,
    train,
)
from .ontology import OntologyError, read_ontology
from .rng import stream
from .sampler import AugmentConfig, SamplerError, make_weights, simulate_coverage

ABLATION_TOGGLES = (
    "pretrain-init",
    "balanced",
    "masking",
    "mixup",
    "labelfix",
    "ensemble",
    "weight-avg",
)


class ConfigError(Exception):
    pass


# -- config ----------------------------------------------------------------


# The dataclass fields each section owns: their defaults are the section's
# defaults, and each value must have its default's JSON type.
SECTIONS = {
    "model": [f for f in fields(ModelConfig)
              if f.name in ("variant", "num_heads", "embed_dim", "hidden_dim", "time_strides")],
    "augment": list(fields(AugmentConfig)),
    "train": [f for f in fields(TrainConfig)
              if f.name in ("epochs", "batch_size", "report_last_k")] + list(fields(LRSchedule)),
}
_JSON_TYPES = {bool: "true or false", int: "an integer", float: "a number", str: "a string",
               list: "a list of two integers"}
# Each synth key's JSON type, by example: its default, or an integer for the two
# required counts and for pattern_seed, which may also be null.
_SYNTH_TYPES = {f.name: 0 if f.default is MISSING or f.default is None
                else list(f.default) if isinstance(f.default, tuple) else f.default
                for f in fields(SynthSpec)}

DEFAULT_CONFIG = {
    "seed": 0,
    "output_dir": "run",
    "corpus": None,  # {"path": ..., "labels": optional override} or {"synth": {...}}
    "eval_corpus": None,
    **{name: {f.name: list(f.default) if isinstance(f.default, tuple) else f.default
              for f in section} for name, section in SECTIONS.items()},
    "init_path": None,
    "weight_avg_start": None,  # null = first epoch with lr <= base/4
    # optional pre-training label repair: needs a finished teacher run + ontology
    "enhance": None,  # {"teacher_run": dir, "ontology": file, "policy": ..., "mode": ...}
}


def load_config(path: str | Path) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON at line {err.lineno}: {err.msg}")
    return merge_config(raw, source=str(path))


def merge_config(raw: dict, source: str = "<dict>") -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: a config must be a JSON object")
    config = copy.deepcopy(DEFAULT_CONFIG)
    for key, value in raw.items():
        if key not in config:
            raise ConfigError(f"{source}: unknown config key {key!r}")
        if key in SECTIONS:
            if not isinstance(value, dict):
                raise ConfigError(f"{source}: {key} must be a JSON object")
            for sub, subval in value.items():
                if sub not in config[key]:
                    raise ConfigError(f"{source}: unknown config key {key}.{sub}")
                config[key][sub] = subval
        else:
            config[key] = value
    validate_config(config, source)
    return config


def _has_json_type(value, default) -> bool:
    if isinstance(default, list):
        return type(value) is list and len(value) == 2 and all(type(v) is int for v in value)
    return type(value) in ((int, float) if type(default) is float else (type(default),))


def validate_config(config: dict, source: str = "<dict>") -> None:
    """Structural checks first, then the dataclasses' own checks on the corpus header shape."""
    if config["corpus"] is None:
        raise ConfigError(f"{source}: corpus is required")
    for field in ("corpus", "eval_corpus"):
        spec = config[field]
        if spec is None:
            continue
        if not isinstance(spec, dict) or not ({"path", "synth"} & set(spec)):
            raise ConfigError(f"{source}: {field} needs a 'path' or a 'synth' section")
        if "path" in spec and not Path(spec["path"]).exists():
            raise ConfigError(f"{source}: {field}.path does not exist: {spec['path']}")
        if "labels" in spec and not Path(spec["labels"]).exists():
            raise ConfigError(f"{source}: {field}.labels does not exist: {spec['labels']}")
    if config["init_path"] is not None and not Path(config["init_path"]).exists():
        raise ConfigError(f"{source}: init_path does not exist: {config['init_path']}")
    if type(config["seed"]) is not int or config["seed"] < 0:
        raise ConfigError(f"{source}: seed must be an integer >= 0")
    if type(config["output_dir"]) is not str:
        raise ConfigError(f"{source}: output_dir must be a string")
    start = config["weight_avg_start"]
    if start is not None and (type(start) is not int or start < 1):
        raise ConfigError(f"{source}: weight_avg_start must be null or an integer >= 1")
    enh = config["enhance"]
    if enh is not None:
        if not isinstance(enh, dict) or "ontology" not in enh:
            raise ConfigError(f"{source}: enhance requires an ontology path")
        if not Path(enh["ontology"]).exists():
            raise ConfigError(f"{source}: enhance.ontology does not exist: {enh['ontology']}")
        if "teacher_run" not in enh:
            raise ConfigError(f"{source}: enhance requires a teacher_run directory")
        if not (Path(enh["teacher_run"]) / "config.json").is_file():
            raise ConfigError(
                f"{source}: enhance.teacher_run is not a run directory: {enh['teacher_run']}"
            )
        if enh.get("policy", "mean") not in POLICIES:
            raise ConfigError(f"{source}: enhance.policy must be one of {POLICIES}")
        if enh.get("mode", "both") not in MODES:
            raise ConfigError(f"{source}: enhance.mode must be one of {MODES}")
    for name in SECTIONS:
        for key, default in DEFAULT_CONFIG[name].items():
            if not _has_json_type(config[name][key], default):
                raise ConfigError(f"{source}: {name}.{key} must be {_JSON_TYPES[type(default)]}")
    if config["eval_corpus"] is not None and "synth" in config["eval_corpus"]:
        _synth_spec(config["eval_corpus"]["synth"])  # build_model_config checks the train spec
    model_config = build_model_config(config)
    build_augment_config(config).validate((model_config.time_frames, model_config.freq_bins))
    build_train_config(config)


def config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _load_labels_override(corpus: MultiLabelCorpus, labels_path: str) -> MultiLabelCorpus:
    """Swap in a drop-in replacement label file (e.g. an enhanced set)."""
    row_of = {sid: i for i, sid in enumerate(corpus.ids)}
    labels = corpus.label_matrix()
    for sid, bits in zip(*read_labels(labels_path, corpus.class_names)):
        if sid not in row_of:
            raise ConfigError(f"labels override: unknown sample id {sid!r}")
        labels[row_of[sid]] = bits
    return corpus.with_labels(labels)


def _synth_spec(synth: dict, **defaults) -> SynthSpec:
    try:
        spec = SynthSpec(**{**defaults, **synth})
    except TypeError as err:
        raise ConfigError(f"bad synth spec: {err}")
    for key, value in synth.items():
        example = _SYNTH_TYPES[key]
        if not (_has_json_type(value, example) or key == "pattern_seed" and value is None):
            raise ConfigError(f"bad synth spec: {key} must be {_JSON_TYPES[type(example)]}")
    spec = replace(spec, feature_shape=tuple(spec.feature_shape))
    spec.validate()
    return spec


def _build_one_corpus(
    spec: dict | None, master_seed: int, stream_name: str, pattern_seed: int | None = None
) -> MultiLabelCorpus | None:
    if spec is None:
        return None
    if "path" in spec:
        corpus = read_corpus(spec["path"])
    else:
        defaults = {"seed": int(stream(master_seed, stream_name).integers(2**31))}
        if pattern_seed is not None:
            defaults["pattern_seed"] = pattern_seed
        corpus = generate_synthetic(_synth_spec(spec["synth"], **defaults))
    if "labels" in spec:
        corpus = _load_labels_override(corpus, spec["labels"])
    return corpus


def build_corpora(config: dict) -> tuple[MultiLabelCorpus, MultiLabelCorpus | None]:
    """Train and eval corpora."""
    corpus = _build_one_corpus(config["corpus"], config["seed"], "synth")
    return corpus, build_eval_corpus(config)


def build_eval_corpus(config: dict) -> MultiLabelCorpus | None:
    """The eval corpus alone; a synthetic eval split inherits the train patterns."""
    seed = config["seed"]
    pattern_seed = None
    if "synth" in config["corpus"]:
        synth = config["corpus"]["synth"]
        pattern_seed = synth.get("pattern_seed", synth.get("seed"))
        if pattern_seed is None:
            pattern_seed = int(stream(seed, "synth").integers(2**31))
    return _build_one_corpus(config["eval_corpus"], seed, "synth_eval", pattern_seed)


def build_model_config(config: dict) -> ModelConfig:
    """Model shape from the training corpus's header (manifest or synth spec), not its data."""
    spec = config["corpus"]
    if "path" in spec:
        shape, names, _ = read_manifest(spec["path"])
        num_classes = len(names)
    else:
        synth = _synth_spec(spec["synth"])
        shape, num_classes = synth.feature_shape, synth.num_classes
    if len(shape) != 2:
        raise ConfigError(f"the model needs (time, freq) features, corpus shape is {shape}")
    m = config["model"]
    return ModelConfig(num_classes=num_classes, time_frames=shape[0], freq_bins=shape[1],
                       **{**m, "time_strides": tuple(m["time_strides"])})


def build_augment_config(config: dict) -> AugmentConfig:
    return AugmentConfig(**config["augment"])


def build_train_config(config: dict) -> TrainConfig:
    t = config["train"]
    schedule = LRSchedule(**{f.name: t[f.name] for f in fields(LRSchedule)})
    return TrainConfig(epochs=t["epochs"], batch_size=t["batch_size"],
                       report_last_k=t["report_last_k"], schedule=schedule, seed=config["seed"])


# -- run directory workflow --------------------------------------------------


class RunLock:
    """One process owns a run directory at a time."""

    def __init__(self, run_dir: Path):
        self.path = run_dir / "lock"

    def __enter__(self):
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise ConfigError(f"run directory is locked (stale lock? remove {self.path})")
        os.write(fd, f"{os.getpid()}\n".encode())
        os.close(fd)
        return self

    def __exit__(self, *exc):
        self.path.unlink(missing_ok=True)
        return False


def run_train(config: dict, run_dir: str | Path | None = None) -> Path:
    """Execute one training run; config.json is written once the config, init and corpora load."""
    validate_config(config)
    run_dir = Path(run_dir if run_dir is not None else config["output_dir"])
    run_dir.mkdir(parents=True, exist_ok=True)
    with RunLock(run_dir):
        model_config = build_model_config(config)
        init_model = None
        if config["init_path"]:
            init_model, loaded, reinit = load_external_init(
                model_config, config["init_path"], stream(config["seed"], "init")
            )
        corpus, eval_corpus = build_corpora(config)
        if config["enhance"] is not None:
            corpus = _apply_enhancement(config["enhance"], corpus, run_dir)
        snapshot = json.dumps(config, indent=2, sort_keys=True)
        (run_dir / "config.json").write_text(snapshot + "\n")
        if init_model is not None:
            (run_dir / "init_report.json").write_text(
                json.dumps({"loaded": loaded, "reinitialized": reinit}, indent=2) + "\n"
            )
        augment_config = build_augment_config(config)
        train_config = build_train_config(config)

        result = train(
            corpus, model_config, augment_config, train_config,
            eval_corpus=eval_corpus, init_model=init_model,
        )

        ckpt_dir = run_dir / "checkpoints"
        ckpt_dir.mkdir(exist_ok=True)
        for epoch, ck in enumerate(result.checkpoints, start=1):
            ck.save(ckpt_dir / f"epoch_{epoch:03d}.ckpt")

        with open(run_dir / "train_log.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["epoch", "iteration", "lr", "loss", "eval_map"])
            writer.writeheader()
            for row in result.log_rows:
                writer.writerow({**{"eval_map": ""}, **row})

        eval_dir = run_dir / "eval"
        eval_dir.mkdir(exist_ok=True)
        class_counts = corpus.labels.sum(axis=0)
        for epoch, report in enumerate(result.eval_reports, start=1):
            report.write_json(eval_dir / f"epoch_{epoch:03d}.json")
            report.write_class_csv(eval_dir / f"epoch_{epoch:03d}.csv",
                                   corpus.class_names, class_counts)

        summary = {
            "config_hash": config_hash(config),
            "epochs": train_config.epochs,
            "num_params": result.final_model.num_params(),
            "per_epoch_map": [r.map for r in result.eval_reports],
        }
        if eval_corpus is not None:
            eval_feats = eval_corpus.features
            eval_labels = eval_corpus.label_matrix()

            start = config["weight_avg_start"]
            if start is None:
                start = train_config.schedule.averaging_start_epoch(train_config.epochs)
            start = min(start, train_config.epochs)
            wa_vec = agg.average_weights(result.checkpoints, start)
            wa_vec.save(run_dir / "weight_avg.ckpt")
            wa_report = evaluate(
                Model.from_vector(model_config, wa_vec).predict(eval_feats), eval_labels
            )
            wa_report.write_json(eval_dir / "weight_avg.json")

            committee = agg.Committee(result.eval_predictions)
            ens_report = evaluate(agg.ensemble_mean(committee), eval_labels)
            ens_report.write_json(eval_dir / "checkpoint_ensemble.json")

            summary.update(
                headline_map=result.headline_map(train_config.report_last_k),
                weight_avg_start=start,
                weight_avg_map=wa_report.map,
                ensemble_map=ens_report.map,
            )
        (run_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return run_dir


def _apply_enhancement(enh: dict, corpus: MultiLabelCorpus, run_dir: Path) -> MultiLabelCorpus:
    """Repair the training labels with a teacher run before training starts."""
    teacher_run = Path(enh["teacher_run"])
    _, teacher_config = _load_run(teacher_run)
    teacher = Model.from_vector(teacher_config, _teacher_checkpoint(teacher_run))
    onto = read_ontology(enh["ontology"], corpus.class_names)
    labels = corpus.label_matrix()
    scores = teacher.predict(corpus.features)
    thresholds = make_thresholds(scores, labels, enh.get("policy", "mean"))
    enhanced, audit = enhance(labels, scores, onto, thresholds,
                              mode=enh.get("mode", "both"), strict=False)
    audit.write_csv(run_dir / "enhance_audit.csv", corpus.class_names)
    return corpus.with_labels(enhanced)


def _headline_for_variant(summary: dict, removed: set[str]) -> float:
    """Ensemble mAP unless ensembling is ablated, then weight-avg, then last-k mean."""
    if "ensemble" not in removed:
        return summary["ensemble_map"]
    if "weight-avg" not in removed:
        return summary["weight_avg_map"]
    return summary["headline_map"]


def apply_toggle(config: dict, toggle: str) -> dict:
    out = copy.deepcopy(config)
    if toggle == "balanced":
        out["augment"]["balanced"] = False
    elif toggle == "masking":
        out["augment"]["freq_mask_max"] = 0
        out["augment"]["time_mask_max"] = 0
    elif toggle == "mixup":
        out["augment"]["mixup_rate"] = 0.0
    elif toggle == "pretrain-init":
        out["init_path"] = None
    elif toggle == "labelfix":
        out["enhance"] = None
        out["corpus"].pop("labels", None)
    elif toggle in ("ensemble", "weight-avg"):
        pass  # reporting-side toggles; headline selection handles them
    else:
        raise ConfigError(f"unknown ablation toggle {toggle!r}")
    return out


def run_ablation(
    config: dict, toggles: list[str], num_seeds: int, out_dir: str | Path
) -> list[dict]:
    """Train the full recipe plus one variant per removed technique; tabulate mAP."""
    for toggle in toggles:
        if toggle not in ABLATION_TOGGLES:
            raise ConfigError(f"toggle {toggle!r} not in {ABLATION_TOGGLES}")
    if config["eval_corpus"] is None:
        raise ConfigError("ablate needs an eval_corpus: the variants are compared on its mAP")
    if num_seeds < 1:
        raise ConfigError(f"ablate needs at least one seed, got {num_seeds}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    variants = [("full", set())] + [(f"no-{t}", {t}) for t in toggles]
    rows = []
    for name, removed in variants:
        variant_config = copy.deepcopy(config)
        for t in removed:
            variant_config = apply_toggle(variant_config, t)
        headlines, last5, wa, ens = [], [], [], []
        for s in range(num_seeds):
            run_config = copy.deepcopy(variant_config)
            run_config["seed"] = config["seed"] + s
            run_path = out_dir / name / f"seed_{run_config['seed']}"
            run_config["output_dir"] = str(run_path)
            run_train(run_config)
            summary = json.loads((run_path / "summary.json").read_text())
            headlines.append(_headline_for_variant(summary, removed))
            last5.append(summary.get("headline_map"))
            wa.append(summary.get("weight_avg_map"))
            ens.append(summary.get("ensemble_map"))
        rows.append(
            {
                "variant": name,
                "map_mean": float(np.mean(headlines)),
                "map_sd": float(np.std(headlines)),
                "last_k_map_mean": float(np.mean(last5)),
                "weight_avg_map_mean": float(np.mean(wa)),
                "ensemble_map_mean": float(np.mean(ens)),
            }
        )
    with open(out_dir / "ablation.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    return rows


def _load_run(run_dir: Path) -> tuple[dict, ModelConfig]:
    config_file = run_dir / "config.json"
    if not config_file.is_file():
        raise ConfigError(f"not a run directory (no config.json): {run_dir}")
    config = load_config(config_file)
    summary_file = run_dir / "summary.json"
    if summary_file.is_file():
        try:
            recorded = json.loads(summary_file.read_text()).get("config_hash")
        except (json.JSONDecodeError, AttributeError):  # not JSON, or not a JSON object
            raise ConfigError(f"corrupt run summary: {summary_file}")
        if recorded and recorded != config_hash(config):
            print(
                f"warning: config snapshot in {run_dir} was mutated after the run; "
                "reproduction is not guaranteed",
                file=sys.stderr,
            )
    return config, build_model_config(config)


def _check_class_count(model_config: ModelConfig, corpus: MultiLabelCorpus, run_dir: Path) -> None:
    if corpus.num_classes != model_config.num_classes:
        raise ConfigError(f"the eval corpus has {corpus.num_classes} classes, "
                          f"the run {run_dir} scores {model_config.num_classes}")


def _teacher_checkpoint(run_dir: Path) -> ParameterVector:
    wa = run_dir / "weight_avg.ckpt"
    if wa.is_file():
        return ParameterVector.load(wa)
    ckpts = sorted((run_dir / "checkpoints").glob("epoch_*.ckpt"))
    if not ckpts:
        raise ConfigError(f"no checkpoints in {run_dir}")
    return ParameterVector.load(ckpts[-1])


def run_enhance(
    teacher_run: str | Path,
    ontology_path: str | Path,
    policies: list[str],
    mode: str,
    out_dir: str | Path,
    strict: bool = False,
) -> dict:
    """Score the teacher run's corpora, build thresholds, write enhanced label sets."""
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}")
    for policy in policies:
        if policy not in POLICIES:
            raise ConfigError(f"policy must be one of {POLICIES}")
    teacher_run = Path(teacher_run)
    out_dir = Path(out_dir)

    config, model_config = _load_run(teacher_run)
    corpus, eval_corpus = build_corpora(config)
    teacher = Model.from_vector(model_config, _teacher_checkpoint(teacher_run))
    onto = read_ontology(ontology_path, corpus.class_names)

    train_labels = corpus.label_matrix()
    train_scores = teacher.predict(corpus.features)
    if eval_corpus is not None:
        eval_labels = eval_corpus.label_matrix()
        eval_scores = teacher.predict(eval_corpus.features)
    outcomes = []
    for policy in policies:
        thresholds = make_thresholds(train_scores, train_labels, policy)
        train_outcome = enhance(train_labels, train_scores, onto, thresholds,
                                mode=mode, strict=strict)
        eval_outcome = None
        if eval_corpus is not None:
            eval_outcome = enhance_eval_set(eval_labels, eval_scores, onto, thresholds,
                                            mode=mode, strict=strict)
        outcomes.append((policy, train_outcome, eval_outcome))

    out_dir.mkdir(parents=True, exist_ok=True)
    results = {}
    for policy, (enhanced, audit), eval_outcome in outcomes:
        write_labels(out_dir / f"train_labels_{policy}_{mode}.txt",
                     corpus.ids, enhanced, corpus.class_names)
        audit.write_csv(out_dir / f"audit_train_{policy}_{mode}.csv", corpus.class_names)
        entry = {
            "train_labels_added": audit.labels_added,
            "train_added_pct": audit.added_pct,
            "train_impacted_classes": len(audit.impacted_classes),
        }
        if eval_outcome is not None:
            enhanced_eval, eval_audit = eval_outcome
            write_labels(out_dir / f"eval_labels_{policy}_{mode}.txt",
                         eval_corpus.ids, enhanced_eval, eval_corpus.class_names)
            eval_audit.write_csv(out_dir / f"audit_eval_{policy}_{mode}.csv",
                                 eval_corpus.class_names)
            entry["eval_labels_added"] = eval_audit.labels_added
        results[policy] = entry
    (out_dir / "enhance_summary.json").write_text(json.dumps(results, indent=2) + "\n")
    return results


def run_aggregate(
    manifest_path: str | Path,
    out_dir: str | Path,
    eval_corpus_path: str | Path | None = None,
) -> dict:
    """Ensemble the committee in a manifest of run directories; emit reports and curves."""
    manifest_path = Path(manifest_path)
    out_dir = Path(out_dir)
    run_dirs = [
        Path(line.strip())
        for line in manifest_path.read_text().splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    if not run_dirs:
        raise ConfigError(f"committee manifest {manifest_path} lists no runs")

    loaded = [_load_run(run_dir) for run_dir in run_dirs]
    if eval_corpus_path is not None:
        eval_corpus = read_corpus(eval_corpus_path)
    else:
        eval_corpus = build_eval_corpus(loaded[0][0])
    if eval_corpus is None:
        raise ConfigError("no eval corpus: pass one or configure it in the first run")
    for run_dir, (_, model_config) in zip(run_dirs, loaded):
        _check_class_count(model_config, eval_corpus, run_dir)
    eval_feats = eval_corpus.features
    eval_labels = eval_corpus.label_matrix()

    members = [Model.from_vector(model_config, _teacher_checkpoint(run_dir)).predict(eval_feats)
               for run_dir, (_, model_config) in zip(run_dirs, loaded)]
    committee = agg.Committee(members)

    member_reports = [evaluate(m, eval_labels) for m in members]
    member_maps = [r.map for r in member_reports]
    ens_report = evaluate(agg.ensemble_mean(committee), eval_labels)
    # Start-epoch sweep over a single run's own checkpoint sequence.
    points = None
    if len(run_dirs) == 1:
        ckpts = [
            ParameterVector.load(p)
            for p in sorted((run_dirs[0] / "checkpoints").glob("epoch_*.ckpt"))
        ]
        points = agg.sweep_start_epoch(ckpts, loaded[0][1], eval_feats, eval_labels)

    out_dir.mkdir(parents=True, exist_ok=True)
    for i, report in enumerate(member_reports):
        report.write_json(out_dir / f"member_{i:03d}.json")
    ens_report.write_json(out_dir / "ensemble_report.json")
    with open(out_dir / "members.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["member", "map"])
        for run_dir, m in zip(run_dirs, member_maps):
            w.writerow([str(run_dir), repr(m)])
    comparison = {
        "num_members": len(members),
        "avg_map": float(np.mean(member_maps)),
        "best_map": float(np.max(member_maps)),
        "ensemble_map": ens_report.map,
    }
    with open(out_dir / "comparison.csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(comparison.keys()))
        w.writeheader()
        w.writerow(comparison)
    if points is not None:
        agg.write_sweep_csv(points, out_dir / "start_epoch_sweep.csv")
    return comparison


# -- argparse front end ------------------------------------------------------


def _add_synth_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--ratio", type=float, default=SynthSpec.imbalance_ratio)
    p.add_argument("--cooccurrence", type=float, default=SynthSpec.cooccurrence)
    p.add_argument("--seed", type=int, default=SynthSpec.seed)
    p.add_argument("--time-frames", type=int, default=SynthSpec.feature_shape[0])
    p.add_argument("--freq-bins", type=int, default=SynthSpec.feature_shape[1])
    p.add_argument("--signal-strength", type=float, default=SynthSpec.planted_signal_strength)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tagkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus directory")
    _add_synth_args(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="run one training experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="override the config's output_dir")

    p = sub.add_parser("eval", help="re-evaluate a checkpoint of a finished run")
    p.add_argument("--run", required=True)
    p.add_argument("--checkpoint", default=None,
                   help="checkpoint name, e.g. epoch_005 or weight_avg (default: best available)")
    p.add_argument("--corpus", default=None, help="override the run's eval corpus")
    p.add_argument("--out", default=None, help="write the report JSON here")

    p = sub.add_parser("enhance", help="build enhanced label sets from a teacher run")
    p.add_argument("--teacher-run", required=True)
    p.add_argument("--ontology", required=True)
    p.add_argument("--policies", default="mean", help="comma list from mean,p25,p10,p5")
    p.add_argument("--mode", default="both", choices=MODES)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out", required=True)

    p = sub.add_parser("aggregate", help="ensemble a committee of runs")
    p.add_argument("--manifest", required=True)
    p.add_argument("--corpus", default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("ablate", help="full recipe vs technique-removed variants")
    p.add_argument("--config", required=True)
    p.add_argument("--toggles", default="", help=f"comma list from {','.join(ABLATION_TOGGLES)}")
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--out", required=True)

    p = sub.add_parser("coverage", help="simulate sampler coverage on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mixup-rate", type=float, default=AugmentConfig.mixup_rate)
    p.add_argument("--plain", action="store_true", help="traversal instead of balanced draws")
    p.add_argument("--out", required=True)
    return parser


def _cmd_synth(args) -> int:
    spec = SynthSpec(
        num_classes=args.classes,
        num_samples=args.samples,
        imbalance_ratio=args.ratio,
        cooccurrence=args.cooccurrence,
        seed=args.seed,
        feature_shape=(args.time_frames, args.freq_bins),
        planted_signal_strength=args.signal_strength,
    )
    corpus = generate_synthetic(spec)
    write_corpus(corpus, args.out)
    print(f"wrote {len(corpus)} samples, {corpus.num_classes} classes to {args.out}")
    return 0


def _cmd_train(args) -> int:
    config = load_config(args.config)
    run_dir = run_train(config, run_dir=args.out)
    summary = json.loads((run_dir / "summary.json").read_text())
    headline = summary.get("headline_map")
    print(f"run complete: {run_dir}" + (f"  headline mAP {headline:.4f}" if headline else ""))
    return 0


def _cmd_eval(args) -> int:
    run_dir = Path(args.run)
    config, model_config = _load_run(run_dir)
    if args.corpus is not None:
        eval_corpus = read_corpus(args.corpus)
    else:
        eval_corpus = build_eval_corpus(config)
    if eval_corpus is None:
        raise ConfigError("run has no eval corpus; pass --corpus")
    _check_class_count(model_config, eval_corpus, run_dir)
    if args.checkpoint:
        path = run_dir / (f"{args.checkpoint}.ckpt" if not args.checkpoint.endswith(".ckpt")
                          else args.checkpoint)
        if not path.is_file():
            path = run_dir / "checkpoints" / path.name
        if not path.is_file():
            raise ConfigError(f"checkpoint not found: {args.checkpoint}")
        vec = ParameterVector.load(path)
    else:
        vec = _teacher_checkpoint(run_dir)
    model = Model.from_vector(model_config, vec)
    report = evaluate(model.predict(eval_corpus.features), eval_corpus.label_matrix())
    if args.out:
        report.write_json(args.out)
    print(f"mAP {report.map:.4f}  mean AUC {report.mean_auc:.4f}  d' {report.dprime:.3f}")
    return 0


def _cmd_enhance(args) -> int:
    results = run_enhance(
        args.teacher_run,
        args.ontology,
        [p.strip() for p in args.policies.split(",") if p.strip()],
        args.mode,
        args.out,
        strict=args.strict,
    )
    for policy, entry in results.items():
        print(f"{policy}: +{entry['train_labels_added']} labels "
              f"({entry['train_added_pct']:.1f}%)")
    return 0


def _cmd_aggregate(args) -> int:
    comparison = run_aggregate(args.manifest, args.out, eval_corpus_path=args.corpus)
    print(
        f"{comparison['num_members']} members: avg mAP {comparison['avg_map']:.4f}, "
        f"best {comparison['best_map']:.4f}, ensemble {comparison['ensemble_map']:.4f}"
    )
    return 0


def _cmd_ablate(args) -> int:
    config = load_config(args.config)
    toggles = [t.strip() for t in args.toggles.split(",") if t.strip()]
    rows = run_ablation(config, toggles, args.seeds, args.out)
    for row in rows:
        print(f"{row['variant']:>16}: mAP {row['map_mean']:.4f} +/- {row['map_sd']:.4f}")
    return 0


def _cmd_coverage(args) -> int:
    corpus = read_corpus(args.corpus)
    labels = corpus.label_matrix()
    weights = make_weights(labels)
    t_frames, f_bins = corpus.feature_shape
    config = AugmentConfig(
        freq_mask_max=min(AugmentConfig.freq_mask_max, f_bins),
        time_mask_max=min(AugmentConfig.time_mask_max, t_frames),
        mixup_rate=args.mixup_rate,
        balanced=not args.plain,
    )
    config.validate(corpus.feature_shape)
    trace = simulate_coverage(weights, labels, config, args.epochs, args.seed)
    trace.write_csv(args.out)
    print(f"unseen after {args.epochs} epochs: {trace.unseen_fraction[-1]:.4f}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "enhance": _cmd_enhance,
    "aggregate": _cmd_aggregate,
    "ablate": _cmd_ablate,
    "coverage": _cmd_coverage,
}

_CONFIG_ERRORS = (ConfigError, CorpusError, OntologyError, SamplerError,
                  LabelFixError, ModelError, agg.AggregateError, FileNotFoundError)
_NUMERICAL_ERRORS = (DivergenceError, MetricError)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _NUMERICAL_ERRORS as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except _CONFIG_ERRORS as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
