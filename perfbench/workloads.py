"""The three benchmark workloads.

Each workload has a set-up (run several times, so its median is steady), a
timed repetition that calls tagkit's public API, and gates that check the
repetition's outputs. Every tagkit call goes through a module attribute
(``tk_model.train``, ``tk_cli.main``, ...) so the tracer's wrappers see it.
Why each workload exists, and which layer each should move, is written
down in perfbench/README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tagkit import aggregate as tk_agg
from tagkit import cli as tk_cli
from tagkit import corpus as tk_corpus
from tagkit import metrics as tk_metrics
from tagkit import model as tk_model
from tagkit import ontology as tk_onto
from tagkit import sampler as tk_sampler

import gates


def sha256(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else np.ascontiguousarray(c).tobytes())
    return h.hexdigest()


@dataclass
class Rep:
    """What one timed repetition produced."""

    digest: str
    final_map: float
    ops: int  # operations attempted inside the repetition
    extras: dict[str, tuple[float, str]] = field(default_factory=dict)
    keep: object = None  # outputs the gates look at


# -- recipe-train ------------------------------------------------------------


class RecipeTrain:
    """Library train() on the acceptance recipe config (tests/test_acceptance.py)."""

    name = "recipe-train"
    setups = 5  # a set-up takes 0.4 s; five keep its median steady
    PROFILES = {
        "full": dict(classes=20, n_train=5000, n_eval=1000, shape=(64, 16), heads=4, dim=48,
                     hidden=32, strides=(4, 4), masks=(6, 12), epochs=2, batch=100),
        "smoke": dict(classes=5, n_train=200, n_eval=100, shape=(16, 8), heads=2, dim=8,
                      hidden=6, strides=(2, 2), masks=(2, 4), epochs=2, batch=50),
    }

    def __init__(self, seed: int, profile: str, work: Path):
        self.seed, self.p = seed, self.PROFILES[profile]

    def setup(self) -> None:
        p = self.p
        kw = dict(num_classes=p["classes"], cooccurrence=0.25, feature_shape=p["shape"],
                  planted_signal_strength=0.8)
        self.corpus = tk_corpus.generate_synthetic(tk_corpus.SynthSpec(
            num_samples=p["n_train"], imbalance_ratio=500, seed=self.seed, **kw))
        self.eval_corpus = tk_corpus.generate_synthetic(tk_corpus.SynthSpec(
            num_samples=p["n_eval"], imbalance_ratio=1, seed=self.seed + 1,
            pattern_seed=self.seed, **kw))
        self.model_config = tk_model.ModelConfig(
            num_classes=p["classes"], time_frames=p["shape"][0], freq_bins=p["shape"][1],
            num_heads=p["heads"], embed_dim=p["dim"], hidden_dim=p["hidden"],
            time_strides=p["strides"])
        self.augment = tk_sampler.AugmentConfig(
            freq_mask_max=p["masks"][0], time_mask_max=p["masks"][1], mixup_rate=0.5,
            mixup_alpha=10.0, balanced=True)
        self.train_config = tk_model.TrainConfig(
            epochs=p["epochs"], batch_size=p["batch"], seed=self.seed,
            schedule=tk_model.LRSchedule(base_lr=5e-3, warmup_iters=100,
                                         decay_start_epoch=15, decay_period=5))

    def setup_digest(self) -> str:
        return sha256(self.corpus.feature_tensor(), self.corpus.label_matrix(),
                      self.eval_corpus.feature_tensor(), self.eval_corpus.label_matrix())

    def after_setup_checks(self) -> dict[str, list[str]]:
        return {}

    def rep(self, rep_dir: Path) -> Rep:
        t0 = time.perf_counter()
        result = tk_model.train(self.corpus, self.model_config, self.augment,
                                self.train_config, eval_corpus=self.eval_corpus)
        wall = time.perf_counter() - t0
        maps = [r.map for r in result.eval_reports]
        clips = self.p["epochs"] * self.p["n_train"]
        return Rep(digest=sha256(result.checkpoints[-1].values.astype("<f8")),
                   final_map=maps[-1], ops=1, keep=maps,
                   extras={"train_samples_per_s": (clips / wall, "1/s")})

    def checks(self, rep: Rep) -> dict[str, list[str]]:
        return {"per_epoch_map_finite": gates.finite_maps(rep.keep, "per-epoch eval")}


# -- committee-eval ----------------------------------------------------------


class CommitteeEval:
    """Start-epoch sweep and ensemble scoring at AudioSet's 527-class width, linear variant."""

    name = "committee-eval"
    setups = 3
    PROFILES = {
        "full": dict(classes=527, n_train=4000, n_eval=2500, shape=(16, 128), epochs=5),
        "smoke": dict(classes=30, n_train=300, n_eval=200, shape=(8, 16), epochs=3),
    }
    ORACLE_CLASSES = 5

    def __init__(self, seed: int, profile: str, work: Path):
        self.seed, self.p = seed, self.PROFILES[profile]

    def setup(self) -> None:
        p = self.p
        kw = dict(num_classes=p["classes"], feature_shape=p["shape"],
                  planted_signal_strength=3.0)
        corpus = tk_corpus.generate_synthetic(tk_corpus.SynthSpec(
            num_samples=p["n_train"], imbalance_ratio=5, seed=self.seed, **kw))
        eval_corpus = tk_corpus.generate_synthetic(tk_corpus.SynthSpec(
            num_samples=p["n_eval"], imbalance_ratio=1, seed=self.seed + 1,
            pattern_seed=self.seed, **kw))
        self.model_config = tk_model.ModelConfig(
            num_classes=p["classes"], time_frames=p["shape"][0], freq_bins=p["shape"][1],
            variant="linear")
        result = tk_model.train(
            corpus, self.model_config,
            tk_sampler.AugmentConfig(freq_mask_max=p["shape"][1] // 8,
                                     time_mask_max=p["shape"][0] // 4, mixup_rate=0.5),
            tk_model.TrainConfig(epochs=p["epochs"], batch_size=100, seed=self.seed,
                                 schedule=tk_model.LRSchedule(
                                     base_lr=0.2, warmup_iters=20, decay_start_epoch=2,
                                     decay_period=1)))
        self.checkpoints = result.checkpoints
        self.features = eval_corpus.feature_tensor()
        self.labels = eval_corpus.label_matrix()

    def setup_digest(self) -> str:
        return sha256(*[ck.values for ck in self.checkpoints], self.features, self.labels)

    def after_setup_checks(self) -> dict[str, list[str]]:
        def logits(vec):
            return tk_model.Model.from_vector(self.model_config, vec).forward_logits(
                self.features)

        member_logits = [logits(ck) for ck in self.checkpoints]
        failures = []
        for start in range(1, len(self.checkpoints) + 1):
            wa = logits(tk_agg.average_weights(self.checkpoints, start))
            failures += gates.linear_identity(wa, member_logits[start - 1:], start)
        return {"linear_identity": failures}

    def rep(self, rep_dir: Path) -> Rep:
        t0 = time.perf_counter()
        points = tk_agg.sweep_start_epoch(self.checkpoints, self.model_config,
                                          self.features, self.labels)
        members = [tk_model.Model.from_vector(self.model_config, ck).predict(self.features)
                   for ck in self.checkpoints]
        ensemble = tk_agg.ensemble_mean(tk_agg.Committee(members))
        report = tk_metrics.evaluate(ensemble, self.labels)
        wall = time.perf_counter() - t0
        # The sweep scores two prediction matrices per start epoch; the ensemble one more.
        rows = (2 * len(points) + 1) * len(self.labels)
        sweep_maps = [m for pt in points for m in (pt.weight_avg_map, pt.prediction_avg_map)]
        return Rep(digest=sha256(report.per_class_ap, report.per_class_auc,
                                 np.array(sweep_maps)),
                   final_map=report.map, ops=1,
                   keep=(points, sweep_maps, ensemble, report),
                   extras={"eval_clips_per_s": (rows / wall, "1/s")})

    def checks(self, rep: Rep) -> dict[str, list[str]]:
        points, sweep_maps, ensemble, report = rep.keep
        defined = np.flatnonzero(~np.isnan(report.per_class_ap) & ~np.isnan(report.per_class_auc))
        rng = np.random.default_rng(self.seed)
        classes = sorted(rng.choice(defined, size=min(self.ORACLE_CLASSES, len(defined)),
                                    replace=False).tolist())
        return {
            "sweep_maps_finite": gates.finite_maps(sweep_maps, "sweep"),
            "ensemble_matches_sweep": gates.equal(
                report.map, points[0].prediction_avg_map,
                "ensemble mAP vs sweep prediction average from epoch 1"),
            "metric_oracle": gates.metric_oracle(ensemble, self.labels, report.per_class_ap,
                                                 report.per_class_auc, classes),
        }


# -- cli-lifecycle -----------------------------------------------------------


POLICIES = ("mean", "p25", "p10", "p5")


class CliLifecycle:
    """The README's command line, in process: synth, train, eval, enhance, aggregate."""

    name = "cli-lifecycle"
    setups = 3
    PROFILES = {
        "full": dict(classes=5, n_train=200, n_eval=100, shape=(1056, 128), epochs=2,
                     ratio=5.0, strength=2.0, model={}, augment={}),
        "smoke": dict(classes=4, n_train=40, n_eval=20, shape=(32, 8), epochs=2, ratio=5.0,
                      strength=2.0,
                      model={"embed_dim": 8, "hidden_dim": 6, "num_heads": 2,
                             "time_strides": [2, 2]},
                      augment={"freq_mask_max": 2, "time_mask_max": 4}),
    }
    # parent -> child pairs over class indices; a small two-level taxonomy
    ONTOLOGY = [(0, 1), (0, 2), (1, 3), (2, 4)]

    def __init__(self, seed: int, profile: str, work: Path):
        self.seed, self.p, self.work = seed, self.PROFILES[profile], work

    def _synth_args(self, split: str, out: Path) -> list[str]:
        p = self.p
        n, ratio = (p["n_train"], p["ratio"]) if split == "train" else (p["n_eval"], 1.0)
        # Both splits use the workload seed, so they share the planted class patterns.
        return ["synth", "--classes", str(p["classes"]), "--samples", str(n),
                "--ratio", str(ratio), "--seed", str(self.seed), "--time-frames", str(p["shape"][0]),
                "--freq-bins", str(p["shape"][1]), "--signal-strength", str(p["strength"]),
                "--out", str(out)]

    def setup(self) -> None:
        """Write the ontology and compute the corpora the synth command must write."""
        p = self.p
        self.work.mkdir(parents=True, exist_ok=True)
        names = [f"class{k:03d}" for k in range(p["classes"])]
        edges = [(a, b) for a, b in self.ONTOLOGY if max(a, b) < p["classes"]]
        self.ontology = self.work / "ontology.txt"
        tk_onto.write_ontology(tk_onto.Ontology.from_edges(p["classes"], edges),
                               self.ontology, names)
        self.expected = {}
        for split, n, ratio in (("train", p["n_train"], p["ratio"]), ("eval", p["n_eval"], 1.0)):
            ref = tk_corpus.generate_synthetic(tk_corpus.SynthSpec(
                num_classes=p["classes"], num_samples=n, imbalance_ratio=ratio,
                seed=self.seed, feature_shape=p["shape"], planted_signal_strength=p["strength"]))
            self.expected[split] = sha256(ref.feature_tensor(), ref.label_matrix())

    def setup_digest(self) -> str:
        return sha256(json.dumps(self.expected, sort_keys=True).encode(),
                      self.ontology.read_bytes())

    def after_setup_checks(self) -> dict[str, list[str]]:
        return {}

    def _config(self, d: Path) -> dict:
        p = self.p
        return {
            "seed": self.seed, "output_dir": str(d / "run"),
            "corpus": {"path": str(d / "train")}, "eval_corpus": {"path": str(d / "eval")},
            "model": p["model"], "augment": p["augment"],
            "train": {"epochs": p["epochs"], "batch_size": 20, "base_lr": 5e-3,
                      "warmup_iters": 4, "decay_start_epoch": 15, "decay_period": 5},
        }

    def rep(self, d: Path) -> Rep:
        p, run = self.p, d / "run"
        d.mkdir(parents=True)
        (d / "config.json").write_text(json.dumps(self._config(d)))
        (d / "committee.txt").write_text(f"{run}\n")
        last = f"epoch_{p['epochs']:03d}"
        commands = [
            ("synth", self._synth_args("train", d / "train")),
            ("synth", self._synth_args("eval", d / "eval")),
            ("train", ["train", "--config", str(d / "config.json")]),
            ("eval", ["eval", "--run", str(run), "--checkpoint", last,
                      "--out", str(d / "eval.json")]),
            ("enhance", ["enhance", "--teacher-run", str(run), "--ontology", str(self.ontology),
                         "--policies", ",".join(POLICIES), "--mode", "both",
                         "--out", str(d / "enhanced")]),
            ("aggregate", ["aggregate", "--manifest", str(d / "committee.txt"),
                           "--out", str(d / "aggregate")]),
        ]
        seconds = dict.fromkeys(["synth", "train", "eval", "enhance", "aggregate"], 0.0)
        codes = {}
        for i, (name, argv) in enumerate(commands):
            out = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                codes[f"{i}:{name}"] = code = tk_cli.main(argv)
            seconds[name] += time.perf_counter() - t0
            if code != 0:
                print(f"tagkit {' '.join(argv)} exited {code}:\n{out.getvalue()}", file=sys.stderr)
        summary_file = run / "summary.json"
        summary = json.loads(summary_file.read_text()) if summary_file.is_file() else {}
        ckpt = run / "checkpoints" / f"{last}.ckpt"
        extras = {f"cli_{name}_s": (s, "s") for name, s in seconds.items()}
        extras["train_samples_per_s"] = (p["epochs"] * p["n_train"] / seconds["train"], "1/s")
        return Rep(digest=sha256(ckpt.read_bytes()) if ckpt.is_file() else "none",
                   final_map=summary.get("headline_map", float("nan")), ops=len(commands),
                   extras=extras, keep=(d, codes))

    def checks(self, rep: Rep) -> dict[str, list[str]]:
        d, codes = rep.keep
        run, last = d / "run", f"epoch_{self.p['epochs']:03d}"
        epochs = [f"epoch_{e:03d}" for e in range(1, self.p["epochs"] + 1)]
        expected_files = (
            [f"run/{n}" for n in ("config.json", "summary.json", "train_log.csv",
                                  "weight_avg.ckpt", "eval/weight_avg.json",
                                  "eval/checkpoint_ensemble.json")]
            + [f"run/checkpoints/{e}.ckpt" for e in epochs]
            + [f"run/eval/{e}.{ext}" for e in epochs for ext in ("json", "csv")]
            + ["enhanced/enhance_summary.json"]
            + [f"enhanced/{split}_labels_{pol}_both.txt" for pol in POLICIES
               for split in ("train", "eval")]
            + [f"aggregate/{n}" for n in ("ensemble_report.json", "comparison.csv",
                                          "members.csv", "start_epoch_sweep.csv")])
        missing = gates.files_exist(d, expected_files)
        result = {"exit_codes": gates.exit_codes(codes), "run_files": missing}
        if not missing:
            logged = json.loads((run / "eval" / f"{last}.json").read_text())["map"]
            again = json.loads((d / "eval.json").read_text())["map"]
            result["eval_reproduces_logged_map"] = gates.equal(
                again, logged, f"eval --run {last} vs logged")
        for split in ("train", "eval"):
            if (d / split).is_dir():
                corpus = tk_corpus.read_corpus(d / split)
                got = sha256(corpus.feature_tensor(), corpus.label_matrix())
                result[f"synth_{split}_matches_library"] = gates.equal(
                    got, self.expected[split], f"synth {split} corpus digest")
        return result


WORKLOADS = {w.name: w for w in (RecipeTrain, CommitteeEval, CliLifecycle)}
