"""The run directory: the only code that knows its layout::

    run_dir/
      config.json                 # the merged config, as trained
      init_report.json            # with init_path: tensors loaded and re-initialised
      checkpoints/epoch_<n>.ckpt
      train_log.csv               # epoch, iteration, lr, loss, eval_map
      eval/epoch_<n>.json|csv     # with an eval corpus: per-epoch reports
      weight_avg.ckpt             # with an eval corpus, like the two reports below
      eval/weight_avg.json
      eval/checkpoint_ensemble.json
      summary.json                # written last: a run without it is unfinished

``create`` makes the directory with one exclusive mkdir, so no run ever
writes into a path that exists, and ``finish`` writes summary.json through
``publish``, so it is whole or absent. summary.json records the run's model
config and class table, so ``load_model`` reads any checkpoint back as a model
from the run directory alone.

``publish`` is the only code that makes a command's ``--out``, but for ``train``'s run
directory: a new path, built as a hidden ``.<name>.partial`` sibling that is renamed onto it
on success. On failure the sibling is deleted, and so are the parents made for it that are
still empty; a killed command's sibling is deleted by the next command. ``ablate``
``create``s its runs in that sibling; each run's config.json names its published path.

``from_json`` is the one reader that turns a JSON object into a tagkit
dataclass, for a config's sections and synth specs and for summary.json.

``write_table`` and ``write_json`` write every CSV and JSON report a command makes, a run's
and every ``--out``'s: a float cell is its exact ``repr``, a NaN cell is empty, and
``write_json`` refuses NaN and Infinity, which are not JSON.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
from contextlib import contextmanager
from dataclasses import fields
from itertools import takewhile
from pathlib import Path

from .corpus import CorpusError
from .model import Model, ModelConfig, ModelError, ParameterVector

WEIGHT_AVG = "weight_avg"


class ConfigError(Exception):
    """Bad config or input, a run directory included; the CLI exits 2."""


# A dataclass field's JSON type, by its annotation (a string, as tagkit's modules postpone
# annotations): a test, and its name for errors.
_JSON_TYPES = {
    "bool": (lambda v: type(v) is bool, "true or false"),
    "int": (lambda v: type(v) is int, "an integer"),
    "int | None": (lambda v: v is None or type(v) is int, "an integer or null"),
    "float": (lambda v: type(v) in (int, float), "a number"),
    "str": (lambda v: type(v) is str, "a string"),
    "tuple[int, int]": (lambda v: type(v) is list and len(v) == 2
                        and all(type(x) is int for x in v), "a list of two integers"),
}


def from_json(cls, obj, name: str, source: str, /, **known):
    """A ``cls`` from the JSON object ``obj`` named ``name`` in ``source``, plus the fields
    in ``known``, which ``obj`` must not set.

    Unknown keys are refused, each value must have the JSON type of its field's
    annotation (nothing is cast), lists become tuples, and the dataclass runs its own checks;
    every error names ``source`` and ``name``.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{source}: {name} must be a JSON object")
    annotations = {f.name: f.type for f in fields(cls) if f.name not in known}
    for key, value in obj.items():
        if key not in annotations:
            raise ConfigError(f"{source}: unknown config key {name}.{key}")
        is_type, json_type = _JSON_TYPES[annotations[key]]
        if not is_type(value):
            raise ConfigError(f"{source}: {name}.{key} must be {json_type}")
    try:
        return cls(**known, **{k: tuple(v) if type(v) is list else v for k, v in obj.items()})
    except (TypeError, ModelError, CorpusError) as err:  # TypeError: a required field is missing
        raise ConfigError(f"{source}: {name}: {err}") from None


@contextmanager
def publish(out: str | Path):
    """Yield the hidden sibling path at which the block builds ``out``, a file or a
    directory, and rename it onto ``out`` when the block ends. ``out`` must not exist,
    before or after; if the block raises, the sibling is deleted, and so are the parent
    directories made here, deepest first, up to the first that is not empty."""
    out = Path(out)
    if os.path.lexists(out):
        raise ConfigError(f"{out} already exists; --out must name a new path")
    made = list(takewhile(lambda p: not os.path.lexists(p), out.parents))  # deepest first
    out.parent.mkdir(parents=True, exist_ok=True)  # the parent, not the output
    partial = out.with_name(f".{out.name}.partial")
    try:
        _remove(partial)  # left by a killed command
        yield partial
        if os.path.lexists(out):  # rename would silently replace an empty directory
            raise ConfigError(f"{out} was made while this command ran; its output is dropped")
        partial.rename(out)
    except BaseException:
        _remove(partial)
        for parent in made:
            try:
                parent.rmdir()
            except OSError:  # not empty: something else is in it now
                break
        raise


def _remove(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)  # a directory, not a symlink to one
    path.unlink(missing_ok=True)  # a file or a symlink; raises if rmtree left a directory


def _cell(value):
    # float() first: the csv module writes a float subclass, np.float64 included, by its repr
    if not isinstance(value, float):
        return value
    return "" if math.isnan(value) else repr(float(value))


def write_table(path: Path, header: list[str], rows) -> None:
    """A CSV of ``header`` then ``rows``: a float cell as its exact repr, which reads back
    bit for bit, and a NaN cell empty; any other cell as it is."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(map(_cell, row) for row in rows)


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, allow_nan=False) + "\n")


def create(run_dir: Path, config: dict, init_report: dict | None) -> None:
    """Make a new run directory and write what is known before training."""
    try:
        run_dir.mkdir(parents=True)
    except FileExistsError:
        raise ConfigError(f"{run_dir} already exists; train makes a new run directory") from None
    (run_dir / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    if init_report is not None:
        write_json(run_dir / "init_report.json", init_report)


def finish(run_dir: Path, result, class_names: list[str], class_counts, summary: dict,
           averaged=None) -> None:
    """Write what a ``TrainResult`` holds: each epoch's checkpoint and report, the train log,
    the weight average and its two reports if ``averaged`` holds them, then summary.json."""
    (run_dir / "checkpoints").mkdir()
    for epoch, ck in enumerate(result.checkpoints, start=1):
        ck.save(run_dir / "checkpoints" / f"epoch_{epoch:03d}.ckpt")
    header = ["epoch", "iteration", "lr", "loss", "eval_map"]
    if any(row.keys() - set(header) for row in result.log_rows):
        raise ValueError(f"a train_log row has keys outside {header}")
    write_table(run_dir / "train_log.csv", header,
                [[row.get(key, "") for key in header] for row in result.log_rows])
    (run_dir / "eval").mkdir()
    for epoch, report in enumerate(result.eval_reports, start=1):
        write_json(run_dir / "eval" / f"epoch_{epoch:03d}.json", report.to_dict())
        write_table(run_dir / "eval" / f"epoch_{epoch:03d}.csv", ["class", "ap", "auc", "count"],
                    zip(class_names, report.per_class_ap, report.per_class_auc, class_counts,
                        strict=True))
    if averaged is not None:
        weight_avg, wa_report, ensemble_report = averaged
        weight_avg.save(run_dir / f"{WEIGHT_AVG}.ckpt")
        write_json(run_dir / "eval" / f"{WEIGHT_AVG}.json", wa_report.to_dict())
        write_json(run_dir / "eval" / "checkpoint_ensemble.json", ensemble_report.to_dict())
    with publish(run_dir / "summary.json") as partial:
        write_json(partial, summary)


def read(run_dir: Path) -> tuple[Path, dict]:
    """A finished run's config file and its summary."""
    summary_file = run_dir / "summary.json"
    if not summary_file.is_file():
        raise ConfigError(f"not a finished run (no summary.json): {run_dir}")
    try:
        summary = json.loads(summary_file.read_text())
    except json.JSONDecodeError:
        summary = None
    if not isinstance(summary, dict):
        raise ConfigError(f"corrupt run summary: {summary_file}")
    return run_dir / "config.json", summary


def checkpoints(run_dir: Path) -> dict[str, Path]:
    """The run's checkpoints by name: epoch_<n> in order of n, then weight_avg if written.

    The epochs come from the number in each name, which must run exactly
    1..N with N >= 1. The last entry is the run's default checkpoint.
    """
    numbered = []
    for path in (run_dir / "checkpoints").glob("epoch_*.ckpt"):
        digits = path.stem.removeprefix("epoch_")
        numbered.append((int(digits) if digits.isdecimal() else 0, path))  # 0 is never valid
    epochs = sorted(epoch for epoch, _ in numbered)
    if not epochs or epochs != list(range(1, len(epochs) + 1)):
        raise ConfigError(f"{run_dir}: checkpoint epochs {epochs} are not 1..N with N >= 1")
    held = {path.stem: path for _, path in sorted(numbered)}
    if (run_dir / f"{WEIGHT_AVG}.ckpt").is_file():
        held[WEIGHT_AVG] = run_dir / f"{WEIGHT_AVG}.ckpt"
    return held


def load_checkpoint(run_dir: Path, name: str | None = None) -> ParameterVector:
    """A checkpoint the run holds, named with or without ``.ckpt``; by default the last one."""
    held = checkpoints(run_dir)
    key = next(reversed(held)) if name is None else name.removesuffix(".ckpt")
    if key not in held:
        raise ConfigError(f"{run_dir} holds no checkpoint {name!r}; it holds {', '.join(held)}")
    return ParameterVector.load(held[key])


def load_epochs(run_dir: Path) -> list[ParameterVector]:
    """The epoch checkpoints, in order."""
    return [ParameterVector.load(p) for name, p in checkpoints(run_dir).items()
            if name != WEIGHT_AVG]


def load_model(run_dir: Path, class_names: list[str], name: str | None = None) -> Model:
    """A checkpoint the run holds (as ``load_checkpoint``) in the model summary.json records.

    The run must score ``class_names``, in order: the class table it recorded.
    """
    summary = read(run_dir)[1]
    vector = load_checkpoint(run_dir, name)
    entry, recorded = summary.get("model"), summary.get("class_names")
    config = from_json(ModelConfig, entry, "model", str(run_dir / "summary.json"))
    # every field is recorded, none defaulted, and as many class names as classes
    if (entry.keys() != {f.name for f in fields(ModelConfig)}
            or type(recorded) is not list or len(recorded) != config.num_classes):
        raise ConfigError(f"{run_dir}: summary.json records no valid model config")
    if recorded != list(class_names):
        raise ConfigError(f"{run_dir} scores {len(recorded)} classes; the corpus's {len(class_names)}"
                          " are not the same names in the same order")
    return Model(config, vector)
