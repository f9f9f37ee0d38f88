"""Span tracing around tagkit's layer boundaries, from outside the package.

The tracer replaces the module-level names that tagkit's own code looks up
at call time (``tagkit.model.plan_epoch``, ``tagkit.cli._load_run``,
``Model.predict``, ...) with thin wrappers that record one span per call:
name, start, end, parent span and the phase of the benchmark it ran in.
Spans stay in memory and are written out once, when the run ends.

Nothing under ``src/`` is touched. A target that no longer exists (a later
refactor renamed or removed it) is recorded as missing, and every layer
metric that depends on it is reported as missing instead of crashing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


# span name -> (targets as (module, attribute path), counter or None).
# A counter maps (args, kwargs, result) to the amount added to the span's
# count; without one the count is the number of calls.
SPANS = {
    "train": ([("tagkit.model", "train"), ("tagkit.cli", "train")], None),
    "plan_epoch": ([("tagkit.model", "plan_epoch")], None),
    "assemble": ([("tagkit.model", "_assemble_batch")], None),
    "loss_and_grads": ([("tagkit.model", "Model.loss_and_grads")], None),
    "forward": ([("tagkit.model", "Model._forward_full")], None),
    "predict": ([("tagkit.model", "Model.predict")],
                lambda a, k, r: len(_arg(a, k, 1, "features"))),
    "ckpt_save": ([("tagkit.model", "ParameterVector.save")],
                  lambda a, k, r: os.path.getsize(_arg(a, k, 1, "path"))),
    "ckpt_load": ([("tagkit.model", "ParameterVector.load")], None),
    "evaluate": ([("tagkit.metrics", "evaluate"), ("tagkit.model", "evaluate"),
                  ("tagkit.aggregate", "evaluate"), ("tagkit.cli", "evaluate")],
                 lambda a, k, r: len(r.per_class_ap)),
    "average_weights": ([("tagkit.aggregate", "average_weights")], None),
    "ensemble_mean": ([("tagkit.aggregate", "ensemble_mean")], None),
    "sweep": ([("tagkit.aggregate", "sweep_start_epoch")], None),
    "synth": ([("tagkit.corpus", "generate_synthetic"), ("tagkit.cli", "generate_synthetic")],
              None),
    "write_corpus": ([("tagkit.corpus", "write_corpus")], None),
    "read_corpus": ([("tagkit.corpus", "read_corpus"), ("tagkit.cli", "read_corpus")], None),
    "feature_tensor": ([("tagkit.corpus", "MultiLabelCorpus.feature_tensor")], None),
    "thresholds": ([("tagkit.cli", "make_thresholds")], None),
    "enhance": ([("tagkit.cli", "enhance"), ("tagkit.cli", "enhance_eval_set")],
                lambda a, k, r: r[1].labels_added),
    "read_ontology": ([("tagkit.cli", "read_ontology")], None),
    "load_run": ([("tagkit.cli", "_load_run")], None),
    "run_train": ([("tagkit.cli", "run_train")], None),
}


def _resolve(module_name: str, attr_path: str):
    """(owner object, attribute name, raw attribute) or None when it no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    try:
        raw = inspect.getattr_static(owner, attr)
    except AttributeError:
        return None
    return owner, attr, raw


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` swap the wrappers in and out."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, phase]
        self.counts: dict[tuple[str, str], float] = defaultdict(float)  # (span, phase)
        self.missing: set[str] = set()  # span names with a target that no longer exists
        self.broken_counters: set[str] = set()
        self.phase = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        for span, (targets, counter) in SPANS.items():
            for module_name, attr_path in targets:
                found = _resolve(module_name, attr_path)
                if found is None or not callable(getattr(found[0], found[1])):
                    self.missing.add(span)
                    continue
                owner, attr, raw = found
                self._patches.append((owner, attr, raw, self._wrap(span, raw, counter)))

    def _wrap(self, span: str, raw, counter):
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind else raw
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([span, time.perf_counter(), None, stack[-1] if stack else -1, self.phase])
            stack.append(idx)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            try:
                amount = 1 if counter is None else counter(args, kwargs, result)
            except Exception:  # a changed signature loses the count, never the run
                self.broken_counters.add(span)
            else:
                self.counts[span, self.phase] += amount
            return result

        return kind(wrapper) if kind else wrapper

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw, _ in self._patches:
            setattr(owner, attr, raw)

    def span_records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "phase": ph}
            for n, s, e, p, ph in self.spans
        ]


# metric name -> (unit, spans it depends on, value from the per-phase totals)
LAYER_METRICS = {
    "model.forward_s": ("s", ("forward", "loss_and_grads"), lambda t, ph: t.fwd[ph]),
    "model.backward_s": ("s", ("forward", "loss_and_grads"),
                         lambda t, ph: t.self["loss_and_grads", ph]),
    "model.train_self_s": ("s", ("train",), lambda t, ph: t.self["train", ph]),
    "model.predict_s": ("s", ("predict",), lambda t, ph: t.incl["predict", ph]),
    "model.predict_clips": ("count", ("predict",), lambda t, ph: t.count["predict", ph]),
    "model.ckpt_save_s": ("s", ("ckpt_save",), lambda t, ph: t.incl["ckpt_save", ph]),
    "model.ckpt_load_s": ("s", ("ckpt_load",), lambda t, ph: t.incl["ckpt_load", ph]),
    "model.ckpt_bytes": ("B", ("ckpt_save",), lambda t, ph: t.count["ckpt_save", ph]),
    "augment.assemble_s": ("s", ("assemble",), lambda t, ph: t.incl["assemble", ph]),
    "augment.batches": ("count", ("assemble",), lambda t, ph: t.count["assemble", ph]),
    "sampler.plan_epoch_s": ("s", ("plan_epoch",), lambda t, ph: t.incl["plan_epoch", ph]),
    "sampler.plan_epoch_calls": ("count", ("plan_epoch",),
                                 lambda t, ph: t.count["plan_epoch", ph]),
    "metrics.evaluate_s": ("s", ("evaluate",), lambda t, ph: t.incl["evaluate", ph]),
    "metrics.evaluate_calls": ("count", ("evaluate",), lambda t, ph: t.calls["evaluate", ph]),
    "metrics.classes_scored": ("count", ("evaluate",), lambda t, ph: t.count["evaluate", ph]),
    "aggregate.average_weights_s": ("s", ("average_weights",),
                                    lambda t, ph: t.incl["average_weights", ph]),
    "aggregate.ensemble_mean_s": ("s", ("ensemble_mean",),
                                  lambda t, ph: t.incl["ensemble_mean", ph]),
    "aggregate.sweep_self_s": ("s", ("sweep",), lambda t, ph: t.self["sweep", ph]),
    "corpus.synth_s": ("s", ("synth",), lambda t, ph: t.incl["synth", ph]),
    "corpus.write_s": ("s", ("write_corpus",), lambda t, ph: t.incl["write_corpus", ph]),
    "corpus.read_s": ("s", ("read_corpus",), lambda t, ph: t.incl["read_corpus", ph]),
    "corpus.read_calls": ("count", ("read_corpus",), lambda t, ph: t.count["read_corpus", ph]),
    "corpus.feature_tensor_s": ("s", ("feature_tensor",),
                                lambda t, ph: t.incl["feature_tensor", ph]),
    "corpus.feature_tensor_calls": ("count", ("feature_tensor",),
                                    lambda t, ph: t.count["feature_tensor", ph]),
    "labelfix.thresholds_s": ("s", ("thresholds",), lambda t, ph: t.incl["thresholds", ph]),
    "labelfix.enhance_s": ("s", ("enhance",), lambda t, ph: t.incl["enhance", ph]),
    "labelfix.labels_added": ("count", ("enhance",), lambda t, ph: t.count["enhance", ph]),
    "ontology.read_s": ("s", ("read_ontology",), lambda t, ph: t.incl["read_ontology", ph]),
    "cli.load_run_s": ("s", ("load_run",), lambda t, ph: t.incl["load_run", ph]),
    "cli.load_run_calls": ("count", ("load_run",), lambda t, ph: t.count["load_run", ph]),
    "cli.run_train_self_s": ("s", ("run_train",), lambda t, ph: t.self["run_train", ph]),
}


class _Totals:
    """Per (span, phase): inclusive time, self time, calls and counts.

    ``fwd`` holds, per phase, the forward time spent inside loss_and_grads.
    """

    def __init__(self, tracer: Tracer):
        spans = tracer.spans
        self.incl, self.self = defaultdict(float), defaultdict(float)
        self.calls, self.fwd = defaultdict(int), defaultdict(float)
        self.count = tracer.counts
        child = [0.0] * len(spans)
        for name, start, end, parent, phase in spans:
            dur = end - start
            self.incl[name, phase] += dur
            self.calls[name, phase] += 1
            if parent >= 0:
                child[parent] += dur
                if name == "forward" and spans[parent][0] == "loss_and_grads":
                    self.fwd[phase] += dur
        for (name, start, end, _, phase), covered in zip(spans, child):
            self.self[name, phase] += (end - start) - covered


def layer_metrics(tracer: Tracer, setups: int, traced_reps: int) -> tuple[dict, list[str]]:
    """Per-pass layer metrics: set-up spans per set-up plus timed spans per traced repetition.

    Returns ({metric: (value, unit)}, [missing metric names]).
    """
    totals = _Totals(tracer)
    values, missing = {}, []
    for name, (unit, needs, fn) in LAYER_METRICS.items():
        lost = tracer.missing | (tracer.broken_counters if unit != "s" else set())
        if any(span in lost for span in needs):
            missing.append(name)
            continue
        values[name] = (fn(totals, "setup") / setups + fn(totals, "timed") / traced_reps, unit)
    return values, missing
