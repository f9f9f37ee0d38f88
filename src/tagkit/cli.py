"""Experiment runner: config-driven train/eval/enhance/aggregate/ablate pipelines.

A run directory (``rundir`` owns its layout) is self-describing: its config
snapshot, per-epoch models and reports, weight average and ensemble report
reproduce its evaluation from the artifacts alone; ``rundir.load_model`` reads a
model back from the model config and class table its summary.json records.

Exit codes: 0 success, 2 config/input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import json
import sys
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np

from . import aggregate as agg
from . import rundir
from .corpus import (CorpusError, MultiLabelCorpus, SynthSpec, _check_ids, generate_synthetic,
                     read_corpus, read_labels, read_manifest, write_corpus, write_labels)
from .labelfix import MODES, POLICIES, LabelFixError, enhance, enhance_eval_set, make_thresholds
from .metrics import MetricError, evaluate
from .model import (DivergenceError, LRSchedule, Model, ModelConfig, ModelError, TrainConfig,
                    load_external_init, train)
from .ontology import OntologyError, read_ontology
from .rng import stream
from .rundir import ConfigError, from_json
from .sampler import AugmentConfig, SamplerError, make_weights, simulate_coverage

ABLATION_TOGGLES = ("pretrain-init", "balanced", "masking", "mixup", "labelfix")


# -- config ----------------------------------------------------------------


# The dataclass fields each section owns: their defaults are the section's defaults.
SECTIONS = {
    "model": [f for f in fields(ModelConfig)
              if f.name in ("variant", "num_heads", "embed_dim", "hidden_dim", "time_strides")],
    "augment": list(fields(AugmentConfig)),
    "train": [f for f in fields(TrainConfig)
              if f.name in ("epochs", "batch_size", "report_last_k")] + list(fields(LRSchedule)),
}

DEFAULT_CONFIG = {
    "seed": 0,
    "output_dir": "run",
    "corpus": None,  # {"path": ..., "labels": optional override} or {"synth": {...}}
    "eval_corpus": None,
    **{name: {f.name: list(f.default) if isinstance(f.default, tuple) else f.default
              for f in section} for name, section in SECTIONS.items()},
    "init_path": None,
    "weight_avg_start": None,  # null = first epoch with lr <= base/4
}


def _merge_defaults(raw: dict, source: str) -> dict:
    """``raw`` over DEFAULT_CONFIG, unknown top-level keys refused; not yet validated."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: a config must be a JSON object")
    config = copy.deepcopy(DEFAULT_CONFIG)
    for key, value in raw.items():
        if key not in config:
            raise ConfigError(f"{source}: unknown config key {key!r}")
        if key in SECTIONS:  # validate_config refuses a key the section does not own
            if not isinstance(value, dict):
                raise ConfigError(f"{source}: {key} must be a JSON object")
            config[key].update(value)
        else:
            config[key] = value
    return config


def _check_path(value, key: str, source: str) -> None:
    """A path-valued key must hold a non-empty string naming an existing path."""
    if type(value) is not str:
        raise ConfigError(f"{source}: {key} must be a string")
    if not value:  # Path("") is the working directory, which exists
        raise ConfigError(f"{source}: {key} must not be empty")
    if not Path(value).exists():
        raise ConfigError(f"{source}: {key} does not exist: {value}")


def validate_config(config: dict, source: str = "<dict>") -> tuple:
    """Structural checks, then the dataclasses' own on the corpus header shape. Returns the
    corpus specs (as ``corpus_specs``), the ModelConfig, AugmentConfig and TrainConfig."""
    specs = corpus_specs(config, source)
    for field, spec in zip(("corpus", "eval_corpus"), specs):
        for key in ("path", "labels"):
            if spec is not None and key in spec:
                _check_path(spec[key], f"{field}.{key}", source)
    if config["init_path"] is not None:
        _check_path(config["init_path"], "init_path", source)
    if type(config["output_dir"]) is not str or "\0" in config["output_dir"]:
        raise ConfigError(f"{source}: output_dir must be a string without a NUL byte")
    start = config["weight_avg_start"]
    if start is not None and (type(start) is not int or start < 1):
        raise ConfigError(f"{source}: weight_avg_start must be null or an integer >= 1")
    # The model's shape comes from the training corpus's header (manifest or synth spec).
    if "path" in specs[0]:
        shape, names, _ = read_manifest(specs[0]["path"])
        num_classes = len(names)
    else:
        shape, num_classes = specs[0]["synth"].feature_shape, specs[0]["synth"].num_classes
    if len(shape) != 2:
        raise ConfigError(f"{source}: the model needs (time, freq) features, corpus shape is"
                          f" {shape}")
    model_config = from_json(ModelConfig, config["model"], "model", source,
                             num_classes=num_classes, time_frames=shape[0], freq_bins=shape[1])
    augment_config = from_json(AugmentConfig, config["augment"], "augment", source)
    try:
        augment_config.validate(shape)
    except SamplerError as err:
        raise SamplerError(f"{source}: augment: {err}") from None
    t, owned = config["train"], {f.name for f in fields(LRSchedule)}
    schedule = from_json(LRSchedule, {k: v for k, v in t.items() if k in owned}, "train", source)
    train_config = from_json(TrainConfig, {k: v for k, v in t.items() if k not in owned}, "train",
                             source, schedule=schedule, seed=config["seed"])
    return specs, model_config, augment_config, train_config


def config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _load_labels_override(corpus: MultiLabelCorpus, labels_path: str) -> MultiLabelCorpus:
    """Swap in a drop-in replacement label file (e.g. an enhanced set)."""
    row_of = {sid: i for i, sid in enumerate(corpus.ids)}
    labels = corpus.label_matrix()
    ids, rows = read_labels(labels_path, corpus.class_names)
    _check_ids(ids)
    for sid, bits in zip(ids, rows):
        if sid not in row_of:
            raise ConfigError(f"labels override {labels_path}: unknown sample id {sid!r}")
        labels[row_of[sid]] = bits
    return corpus.with_labels(labels)


def corpus_specs(config: dict, source: str = "<dict>") -> tuple[dict, dict | None]:
    """A config's train and eval corpus specs, checked and resolved without opening a path.

    "path" and "labels" stay strings; a "synth" section becomes a SynthSpec, read only when
    no path is given, whose seed defaults to one drawn from the run seed. A synthetic eval
    split takes the training split's class patterns unless it sets its own pattern_seed.
    """
    seed, specs, pattern = config.get("seed"), [], None
    if type(seed) is not int or seed < 0:
        raise ConfigError(f"{source}: seed must be an integer >= 0")
    if config.get("corpus") is None:
        raise ConfigError(f"{source}: corpus is required")
    for field, stream_name in (("corpus", "synth"), ("eval_corpus", "synth_eval")):
        spec = config.get(field)
        if spec is not None:
            if not isinstance(spec, dict) or not ({"path", "synth"} & set(spec)):
                raise ConfigError(f"{source}: {field} needs a 'path' or a 'synth' section")
            for key in spec:
                if key not in ("path", "synth", "labels"):
                    raise ConfigError(f"{source}: unknown config key {field}.{key}")
            for key in ("path", "labels"):
                if key in spec and type(spec[key]) is not str:
                    raise ConfigError(f"{source}: {field}.{key} must be a string")
            if "synth" in spec:
                synth = spec["synth"]
                if isinstance(synth, dict):  # the two defaults a synth section may override
                    synth = {"seed": int(stream(seed, stream_name).integers(2**31)),
                             "pattern_seed": pattern, **synth}
                synth = from_json(SynthSpec, synth, f"{field}.synth", source)
                spec = {**spec, "synth": synth}
                pattern = synth.seed if synth.pattern_seed is None else synth.pattern_seed
        specs.append(spec)
    return specs[0], specs[1]


def build_corpus(spec: dict | None) -> MultiLabelCorpus | None:
    """The corpus a spec from ``corpus_specs`` names, or None for no spec."""
    if spec is None:
        return None
    corpus = read_corpus(spec["path"]) if "path" in spec else generate_synthetic(spec["synth"])
    return _load_labels_override(corpus, spec["labels"]) if "labels" in spec else corpus


def _build_corpora(specs) -> tuple[MultiLabelCorpus, MultiLabelCorpus | None]:
    """The train and eval corpora of ``corpus_specs``' specs.

    An eval corpus must share the training corpus's class table and clip shape: the
    model scores the classes it was trained on, in that order, on clips of one shape."""
    corpus, eval_corpus = map(build_corpus, specs)
    if eval_corpus is not None:
        if eval_corpus.class_names != corpus.class_names:
            raise ConfigError(f"the eval corpus's {eval_corpus.num_classes} classes are not the"
                              f" training corpus's {corpus.num_classes} in the same order")
        if eval_corpus.feature_shape != corpus.feature_shape:
            raise ConfigError(f"the eval corpus's clip shape {eval_corpus.feature_shape} is not"
                              f" the training corpus's {corpus.feature_shape}")
    return corpus, eval_corpus


# -- run directory workflow --------------------------------------------------


def run_train(config: dict, run_dir: str | Path | None = None, source: str = "<dict>") -> Path:
    """Execute one training run; its directory is made once the config, init and corpora load.

    ``config`` is validated here, and its errors name ``source``."""
    specs, model_config, augment_config, train_config = validate_config(config, source)
    run_dir = Path(run_dir if run_dir is not None else config["output_dir"])
    # The corpora and the model are built first, so one that cannot be allocated (a
    # ModelError or CorpusError) leaves no run directory.
    corpus, eval_corpus = _build_corpora(specs)
    init_model, init_report = Model.init(model_config, stream(train_config.seed, "init")), None
    if config["init_path"] is not None:
        loaded, reinit = load_external_init(init_model, config["init_path"])
        init_report = {"loaded": loaded, "reinitialized": reinit}
    rundir.create(run_dir, config, init_report)

    result = train(
        corpus, model_config, augment_config, train_config,
        eval_corpus=eval_corpus, init_model=init_model,
    )

    summary = {
        "config_hash": config_hash(config),
        "epochs": train_config.epochs,
        "num_params": result.checkpoints[-1].values.size,
        "per_epoch_map": [r.map for r in result.eval_reports],
        "model": asdict(model_config),
        "class_names": corpus.class_names,
    }
    averaged = None
    if eval_corpus is not None:
        start = config["weight_avg_start"]
        if start is None:
            start = train_config.schedule.averaging_start_epoch(train_config.epochs)
        start = min(start, train_config.epochs)
        wa_vec = agg.average_weights(result.checkpoints, start)
        wa_report = evaluate(Model.from_vector(model_config, wa_vec).predict(eval_corpus.features),
                             eval_corpus.labels)
        ens_report = evaluate(result.eval_ensemble, eval_corpus.labels)
        averaged = (wa_vec, wa_report, ens_report)
        summary.update(
            headline_map=float(np.mean(summary["per_epoch_map"][-train_config.report_last_k:])),
            weight_avg_start=start,
            weight_avg_map=wa_report.map,
            ensemble_map=ens_report.map,
        )
    rundir.finish(run_dir, result, corpus.class_names, corpus.labels.sum(axis=0), summary,
                  averaged)
    return run_dir


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
        out["corpus"].pop("labels", None)
    else:
        raise ConfigError(f"unknown ablation toggle {toggle!r}")
    return out


def run_ablation(config: dict, toggles: list[str], num_seeds: int, out_dir: str | Path,
                 source: str = "<dict>") -> list[dict]:
    """Train the full recipe plus one variant per removed technique; tabulate ensemble mAP.

    ``config`` is validated here, and its errors name ``source``. Each distinct run, keyed
    by its config without ``output_dir``, trains once: a variant that repeats a run (as
    ``pretrain-init`` repeats ``full``'s without an ``init_path``) reads its summary and
    gets no directory."""
    toggles = list(dict.fromkeys(toggles))  # a repeated toggle is run once
    for toggle in toggles:
        if toggle not in ABLATION_TOGGLES:
            raise ConfigError(f"toggle {toggle!r} not in {ABLATION_TOGGLES}")
    validate_config(config, source)
    if config["eval_corpus"] is None:
        raise ConfigError("ablate needs an eval_corpus: the variants are compared on its mAP")
    if num_seeds < 1:
        raise ConfigError(f"ablate needs at least one seed, got {num_seeds}")
    out_dir = Path(out_dir)
    variants = [("full", config)] + [(f"no-{t}", apply_toggle(config, t)) for t in toggles]
    rows, summary_of = [], {}  # config_hash with output_dir null -> that run's summary
    with rundir.publish(out_dir) as partial:
        for name, variant_config in variants:
            summaries = []
            for s in range(num_seeds):
                run_config = {**variant_config, "seed": config["seed"] + s, "output_dir": None}
                key = config_hash(run_config)
                if key not in summary_of:
                    run_name = Path(name, f"seed_{run_config['seed']}")
                    run_config["output_dir"] = str(out_dir / run_name)  # its published path
                    run_dir = run_train(run_config, partial / run_name, source)
                    summary_of[key] = rundir.read(run_dir)[1]
                summaries.append(summary_of[key])
            ensemble_maps = [summary["ensemble_map"] for summary in summaries]
            rows.append({"variant": name, "map_mean": float(np.mean(ensemble_maps)),
                         "map_sd": float(np.std(ensemble_maps))})
            for column, key in (("last_k_map_mean", "headline_map"),
                                ("weight_avg_map_mean", "weight_avg_map")):
                rows[-1][column] = float(np.mean([summary[key] for summary in summaries]))
        rundir.write_table(partial / "ablation.csv", list(rows[0]),  # full's run made partial
                           [row.values() for row in rows])
    return rows


def _load_run(run_dir: Path) -> tuple[dict, dict | None]:
    """A finished run's corpus specs (``corpus_specs``); the rest of its config is not checked."""
    config_file, summary = rundir.read(run_dir)
    config = rundir.read_json(config_file)
    specs = corpus_specs(config, str(config_file))
    if summary.get("config_hash") not in (None, config_hash(config)):
        print(f"warning: config snapshot in {run_dir} was mutated after the run; "
              "reproduction is not guaranteed", file=sys.stderr)
    return specs


def _eval_corpus(path: str | Path | None, run_dir: Path) -> MultiLabelCorpus:
    """The corpus at path, else the eval corpus the run was configured with."""
    corpus = read_corpus(path) if path is not None else build_corpus(_load_run(run_dir)[1])
    if corpus is None:
        raise ConfigError("no eval corpus: pass --corpus or configure one in the (first) run")
    return corpus


def run_enhance(teacher_run: str | Path, ontology_path: str | Path, policies: list[str],
                mode: str, out_dir: str | Path, strict: bool = False) -> dict:
    """Score the teacher run's corpora, build thresholds, publish the enhanced label sets."""
    policies = list(dict.fromkeys(policies))  # a repeated name is run once
    if not policies or not set(policies) <= set(POLICIES):
        raise ConfigError(f"enhance needs threshold policies from {POLICIES}, got {policies}")
    with rundir.publish(out_dir) as out:
        teacher_run = Path(teacher_run)
        corpus, eval_corpus = _build_corpora(_load_run(teacher_run))
        teacher = rundir.load_model(teacher_run, corpus.class_names)
        onto = read_ontology(ontology_path, corpus.class_names)

        splits = [("train", corpus, enhance), ("eval", eval_corpus, enhance_eval_set)]
        scored = [(split, c, repair, c.labels, teacher.predict(c.features))
                  for split, c, repair in splits if c is not None]
        *_, train_labels, train_scores = scored[0]
        out.mkdir()
        results = {}
        for policy in policies:
            thresholds = make_thresholds(train_scores, train_labels, policy)
            entry = results[policy] = {}
            for split, split_corpus, repair, labels, scores in scored:
                enhanced, audit = repair(labels, scores, onto, thresholds, mode=mode, strict=strict)
                write_labels(out / f"{split}_labels_{policy}_{mode}.txt",
                             split_corpus.ids, enhanced, split_corpus.class_names)
                _write_audit(out / f"audit_{split}_{policy}_{mode}.csv", audit,
                             split_corpus.class_names)
                entry[f"{split}_labels_added"] = audit.labels_added
                if split == "train":
                    entry["train_added_pct"] = audit.added_pct
                    entry["train_impacted_classes"] = len(audit.impacted_classes)
        rundir.write_json(out / "enhance_summary.json", results)
    return results


def _write_audit(path: Path, audit, class_names: list[str]) -> None:
    added = audit.per_class_added.tolist()
    rundir.write_table(path, ["class", "labels_added", "impacted"],
                       [(name, n, int(n > 0)) for name, n in zip(class_names, added)])


def run_aggregate(manifest_path: str | Path, out_dir: str | Path,
                  eval_corpus_path: str | Path | None = None) -> dict:
    """Ensemble the committee in a manifest of run directories; publish reports and curves."""
    with rundir.publish(out_dir) as out:
        manifest_path = Path(manifest_path)
        lines = [line.strip() for line in manifest_path.read_text().splitlines()]
        run_dirs = [Path(line) for line in lines if line and not line.startswith("#")]
        if any("\0" in line for line in lines):
            raise ConfigError(f"committee manifest {manifest_path} holds a NUL byte")
        if not run_dirs:
            raise ConfigError(f"committee manifest {manifest_path} lists no runs")
        for i, run_dir in enumerate(run_dirs):
            if run_dir.resolve() in [d.resolve() for d in run_dirs[:i]]:
                raise ConfigError(f"committee manifest {manifest_path} lists {run_dir} twice")

        eval_corpus = _eval_corpus(eval_corpus_path, run_dirs[0])
        eval_feats = eval_corpus.features
        eval_labels = eval_corpus.labels

        models = [rundir.load_model(run_dir, eval_corpus.class_names) for run_dir in run_dirs]
        members = [model.predict(eval_feats) for model in models]
        committee = agg.Committee(members)

        member_reports = [evaluate(m, eval_labels) for m in members]
        member_maps = [r.map for r in member_reports]
        ens_report = evaluate(agg.ensemble_mean(committee), eval_labels)

        out.mkdir()
        # Start-epoch sweep over a single run's own checkpoint sequence.
        if len(run_dirs) == 1:
            points = agg.sweep_start_epoch(rundir.load_epochs(run_dirs[0]), models[0].config,
                                           eval_feats, eval_labels)
            rundir.write_table(out / "start_epoch_sweep.csv",
                               ["start_epoch", "weight_avg_map", "prediction_avg_map"],
                               [astuple(pt) for pt in points])
        for i, report in enumerate(member_reports):
            rundir.write_json(out / f"member_{i:03d}.json", report.to_dict())
        rundir.write_json(out / "ensemble_report.json", ens_report.to_dict())
        rundir.write_table(out / "members.csv", ["member", "map"], zip(run_dirs, member_maps))
        comparison = {
            "num_members": len(members),
            "avg_map": float(np.mean(member_maps)),
            "best_map": float(np.max(member_maps)),
            "ensemble_map": ens_report.map,
        }
        rundir.write_table(out / "comparison.csv", list(comparison), [comparison.values()])
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
                   help="a checkpoint the run holds: weight_avg or epoch_<n>, with or without "
                        ".ckpt (default: weight_avg, else the last epoch)")
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

    p = sub.add_parser("coverage", help="unseen fraction per epoch of a config's sampler draws")
    p.add_argument("--config", required=True, help="a train config, or a run's config.json")
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
    with rundir.publish(args.out) as out:
        corpus = generate_synthetic(spec)
        write_corpus(corpus, out)
    print(f"wrote {len(corpus)} samples, {corpus.num_classes} classes to {args.out}")
    return 0


def _cmd_train(args) -> int:
    config = _merge_defaults(rundir.read_json(args.config), args.config)
    if args.out is not None and type(config["output_dir"]) is str:  # validation refuses others
        config["output_dir"] = args.out  # so config.json names where the run is
    run_dir = run_train(config, source=args.config)
    headline = rundir.read(run_dir)[1].get("headline_map")
    print(f"run complete: {run_dir}" + (f"  headline mAP {headline:.4f}" if headline else ""))
    return 0


def _cmd_eval(args) -> int:
    with (rundir.publish(args.out) if args.out else contextlib.nullcontext()) as out:
        run_dir = Path(args.run)
        eval_corpus = _eval_corpus(args.corpus, run_dir)
        model = rundir.load_model(run_dir, eval_corpus.class_names, args.checkpoint)
        report = evaluate(model.predict(eval_corpus.features), eval_corpus.labels)
        if out:
            rundir.write_json(out, report.to_dict())
    print(f"mAP {report.map:.4f}  mean AUC {report.mean_auc:.4f}  d' {report.dprime:.3f}")
    return 0


def _cmd_enhance(args) -> int:
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    results = run_enhance(args.teacher_run, args.ontology, policies, args.mode, args.out,
                          strict=args.strict)
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
    config = _merge_defaults(rundir.read_json(args.config), args.config)
    toggles = [t.strip() for t in args.toggles.split(",") if t.strip()]
    rows = run_ablation(config, toggles, args.seeds, args.out, source=args.config)
    for row in rows:
        print(f"{row['variant']:>16}: mAP {row['map_mean']:.4f} +/- {row['map_sd']:.4f}")
    return 0


def _cmd_coverage(args) -> int:
    with rundir.publish(args.out) as out:
        config = _merge_defaults(rundir.read_json(args.config), args.config)
        specs, _, augment_config, train_config = validate_config(config, args.config)
        corpus = build_corpus(specs[0])
        trace = simulate_coverage(make_weights(corpus.labels), corpus.labels, augment_config,
                                  corpus.feature_shape, train_config.epochs, train_config.seed)
        rundir.write_table(out, ["epoch", "unseen_fraction"],
                           enumerate(trace.unseen_fraction, start=1))
    print(f"unseen after {train_config.epochs} epochs: {trace.unseen_fraction[-1]:.4f}")
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

_CONFIG_ERRORS = (ConfigError, CorpusError, OntologyError, SamplerError, LabelFixError,
                  ModelError, agg.AggregateError, OSError, UnicodeDecodeError)
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
