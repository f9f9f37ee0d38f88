"""Golden digests: every path a small CLI lifecycle leaves behind, byte for byte.

The lifecycle runs ``synth``, ``train`` of an attention teacher, ``eval --out``,
``enhance``, ``train`` of a linear student (with ``init_path``, on the teacher's
repaired labels), ``aggregate``, ``coverage`` of the teacher's config and a
one-toggle, one-seed ``ablate`` in an empty working directory with relative paths.
The sha256 of every file under it, hidden ones included, and the name of every
directory must match
``tests/golden.json``: a refactor leaves that file unchanged, and a change that
moves bits regenerates it with

    PYTHONPATH=src python tests/test_golden.py --write

and says which outputs moved. Float64 rounding depends on numpy, its BLAS and the
SIMD extensions numpy found on the CPU, so the file lists the fingerprints its
digests were verified on, and the test skips on any other. On a new fingerprint,

    PYTHONPATH=src python tests/test_golden.py --add-fingerprint

runs the lifecycle and appends the fingerprint only if every digest is reproduced.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from tagkit.cli import main
from tagkit.model import ParameterVector
from tagkit.ontology import Ontology, write_ontology

GOLDEN = Path(__file__).resolve().with_name("golden.json")

_SYNTH = ["--classes", "4", "--seed", "3", "--time-frames", "16", "--freq-bins", "8"]
_TRAIN = {"epochs": 2, "batch_size": 16, "base_lr": 5e-3, "warmup_iters": 4,
          "decay_start_epoch": 2, "decay_period": 1}
TEACHER = {
    "seed": 1, "output_dir": "teacher",
    "corpus": {"path": "train"}, "eval_corpus": {"path": "evalc"},
    "model": {"variant": "attention", "num_heads": 2, "embed_dim": 8, "hidden_dim": 6,
              "time_strides": [2, 2]},
    "augment": {"freq_mask_max": 2, "time_mask_max": 4, "mixup_rate": 0.3},
    "train": _TRAIN,
}
STUDENT = {
    **TEACHER, "output_dir": "student", "model": {"variant": "linear"},
    "init_path": "init.ckpt",
    "corpus": {"path": "train", "labels": "enhanced/train_labels_p25_both.txt"},
}
COMMANDS = [
    ["synth", *_SYNTH, "--samples", "48", "--ratio", "6", "--out", "train"],
    ["synth", *_SYNTH, "--samples", "32", "--ratio", "1", "--out", "evalc"],
    ["train", "--config", "teacher.json"],
    ["eval", "--run", "teacher", "--checkpoint", "epoch_001", "--out", "eval.json"],
    ["enhance", "--teacher-run", "teacher", "--ontology", "onto.txt",
     "--policies", "mean,p25", "--out", "enhanced"],
    ["train", "--config", "student.json"],
    ["aggregate", "--manifest", "solo.txt", "--out", "agg_solo"],
    ["aggregate", "--manifest", "pair.txt", "--out", "agg_pair"],
    ["coverage", "--config", "teacher.json", "--out", "coverage.csv"],
    ["ablate", "--config", "teacher.json", "--toggles", "mixup", "--seeds", "1",
     "--out", "ablation"],
]


def fingerprint() -> dict:
    """What decides float64 rounding: numpy, its BLAS and the SIMD extensions it found."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "simd": config["SIMD Extensions"]["found"]}


def run_lifecycle() -> dict[str, str]:
    """Run COMMANDS in the working directory; the digest of every path under it."""
    Path("teacher.json").write_text(json.dumps(TEACHER))
    Path("student.json").write_text(json.dumps(STUDENT))
    Path("solo.txt").write_text("teacher\n")
    Path("pair.txt").write_text("teacher\nstudent\n")
    write_ontology(Ontology.from_edges(4, [(0, 1), (0, 2), (1, 3)]), "onto.txt",
                   [f"class{k:03d}" for k in range(4)])
    ParameterVector(values=np.linspace(-0.5, 0.5, 32), manifest=(("w", (8, 4)),)).save("init.ckpt")
    for argv in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
    return {str(p): "dir" if p.is_dir() else hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(".").rglob("*"))}


def test_cli_lifecycle_matches_golden_digests(tmp_path, monkeypatch):
    golden, here = json.loads(GOLDEN.read_text()), fingerprint()
    if here not in golden["fingerprints"]:
        pytest.skip(f"golden digests were verified on {golden['fingerprints']}, not on {here}")
    monkeypatch.chdir(tmp_path)
    assert run_lifecycle() == golden["paths"]


if __name__ == "__main__":
    mode = sys.argv[1:]
    if mode not in (["--write"], ["--add-fingerprint"]):
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --write | --add-fingerprint")
    golden, here = json.loads(GOLDEN.read_text()), fingerprint()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        paths = run_lifecycle()
    if mode == ["--write"]:
        golden = {"fingerprints": [here], "paths": paths}
    elif paths != golden["paths"]:
        moved = sorted(k for k in paths.keys() | golden["paths"].keys()
                       if paths.get(k) != golden["paths"].get(k))
        sys.exit(f"{len(moved)} paths differ here, so {here} is not added: {moved}")
    elif here not in golden["fingerprints"]:
        golden["fingerprints"].append(here)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"{GOLDEN}: {len(paths)} digests, verified on {len(golden['fingerprints'])} fingerprints")
