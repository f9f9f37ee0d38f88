"""Multi-label corpora: in-memory model, synthetic long-tailed generation, disk format.

A corpus directory looks like::

    corpus_dir/
      manifest.txt      # version, feature shape, class names (one per line)
      labels.txt        # <sample_id>\t<class,class,...>
      features/<id>.f32 # raw little-endian float32, row-major

Feature payloads shorter in time than the declared shape are zero-padded
at load; longer payloads are a shape error.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .rng import stream

_ID_SAFE = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")


class CorpusError(Exception):
    """Base class for corpus construction and I/O failures."""


class MalformedManifestError(CorpusError):
    pass


class ShapeMismatchError(CorpusError):
    pass


class UnknownClassError(CorpusError):
    pass


@dataclass
class MultiLabelCorpus:
    """Samples as columns: ids, an (N, *feature_shape) feature array, an (N, C) uint8 label matrix.

    Synthesis and disk reads store float32 features. feature_shape is
    derived from the feature array once, here.
    """

    ids: list[str]
    features: np.ndarray
    labels: np.ndarray
    class_names: list[str]
    feature_shape: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        self.features = np.asarray(self.features)
        self.labels = np.asarray(self.labels, dtype=np.uint8)
        n, c = len(self.ids), len(self.class_names)
        if n < 1:
            raise CorpusError("corpus needs at least one sample")
        if len(self.features) != n or self.labels.shape != (n, c):
            raise ShapeMismatchError(f"{n} ids and {c} classes, but features "
                                     f"{self.features.shape} and labels {self.labels.shape}")
        unlabeled = np.flatnonzero(~self.labels.any(axis=1))
        if len(unlabeled):
            raise CorpusError(f"sample {self.ids[unlabeled[0]]!r} has no labels")
        # min and max carry any nan or inf without a full-size boolean temporary
        rest = tuple(range(1, self.features.ndim))
        lo, hi = self.features.min(axis=rest), self.features.max(axis=rest)
        finite = np.isfinite(lo) & np.isfinite(hi)
        if not finite.all():
            raise CorpusError(f"sample {self.ids[np.argmin(finite)]!r} has non-finite features")
        self.feature_shape = self.features.shape[1:]

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def label_matrix(self) -> np.ndarray:
        """(N, C) multi-hot uint8 matrix (a copy)."""
        return self.labels.copy()

    def feature_tensor(self) -> np.ndarray:
        """(N, *feature_shape) float64 copy of all sample features."""
        return self.features.astype(np.float64)

    def with_labels(self, labels: np.ndarray) -> "MultiLabelCorpus":
        """Copy with a replacement (N, C) label matrix (e.g. an enhanced set); shares features."""
        return MultiLabelCorpus(self.ids, self.features, labels, self.class_names)


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic long-tailed multi-label corpus.

    Class bit-counts follow a Zipf decay with exponent log(imbalance_ratio)/log(C),
    so the most/least frequent count ratio lands on imbalance_ratio. Each sample
    gets one primary class; non-head samples additionally carry the head class
    with probability `cooccurrence`. Features are unit Gaussian noise plus a
    class-specific frequency pattern on a random half-length time window, scaled
    by `planted_signal_strength`.

    pattern_seed controls the class signatures separately from the sample
    draws, so a train/eval corpus pair generated with different seeds but the
    same pattern_seed shares its planted classes. Defaults to `seed`.
    """

    num_classes: int
    num_samples: int
    imbalance_ratio: float = 100.0
    cooccurrence: float = 0.25
    seed: int = 0
    feature_shape: tuple[int, int] = (1056, 128)
    planted_signal_strength: float = 1.0
    pattern_seed: int | None = None

    def __post_init__(self):
        if self.num_classes < 2:
            raise CorpusError("num_classes must be >= 2")
        if self.num_samples < self.num_classes:
            raise CorpusError("num_samples must be >= num_classes")
        if self.imbalance_ratio < 1:
            raise CorpusError("imbalance_ratio must be >= 1")
        if not 0.0 <= self.cooccurrence <= 1.0:
            raise CorpusError("cooccurrence must be in [0, 1]")
        if self.planted_signal_strength < 0:
            raise CorpusError("planted_signal_strength must be >= 0")
        if not all(map(math.isfinite, (self.imbalance_ratio, self.planted_signal_strength))):
            raise CorpusError("imbalance_ratio and planted_signal_strength must be finite")
        if len(self.feature_shape) != 2 or any(d < 1 for d in self.feature_shape):
            raise CorpusError("feature_shape must be (time_frames, freq_bins)")
        if self.seed < 0 or (self.pattern_seed or 0) < 0:
            raise CorpusError("seed and pattern_seed must be >= 0")

    @property
    def zipf_exponent(self) -> float:
        """Configured decay exponent of the sorted class counts."""
        return math.log(self.imbalance_ratio) / math.log(self.num_classes)


def _plan_counts(spec: SynthSpec) -> tuple[np.ndarray, int, int]:
    """Plan exact per-class bit counts.

    Returns (tail primary counts for classes 1..C-1, head primary count,
    head co-occurrence adds). Total bits of class k>0 equal its primary
    count; head bits = primaries + adds.
    """
    c, n, rho = spec.num_classes, spec.num_samples, spec.cooccurrence
    a = spec.zipf_exponent
    decay = (np.arange(1, c) + 1.0) ** (-a)
    tail_mass = float(decay.sum())
    # Solve for the head bit count s and head primary count p0 such that
    # tail bits = s * tail_mass, p0 + rho*(n - p0) = s, and primaries sum to n.
    s = n / (1.0 + tail_mass * (1.0 - rho))
    if rho < 1.0:
        p0 = (s - rho * n) / (1.0 - rho)
    else:
        p0 = 1.0
    p0 = min(max(p0, 1.0), n - (c - 1))

    # Largest-remainder integerization of the tail with floor 1.
    raw = decay * (n - p0) / tail_mass
    tail = np.maximum(1, np.floor(raw)).astype(np.int64)
    deficit = int(round(n - p0)) - int(tail.sum())
    if deficit > 0:
        order = np.argsort(-(raw - np.floor(raw)), kind="stable")
        for idx in order[:deficit]:
            tail[idx] += 1
    elif deficit < 0:
        order = np.argsort(raw - np.floor(raw), kind="stable")
        taken = 0
        for idx in order:
            while tail[idx] > 1 and taken < -deficit:
                tail[idx] -= 1
                taken += 1
            if taken >= -deficit:
                break
    head_primary = n - int(tail.sum())
    head_adds = int(np.clip(round(s) - head_primary, 0, n - head_primary))
    return tail, head_primary, head_adds


def generate_synthetic(spec: SynthSpec) -> MultiLabelCorpus:
    """Generate a corpus deterministically from the spec (pure function of SynthSpec)."""
    c, n = spec.num_classes, spec.num_samples
    t_frames, f_bins = spec.feature_shape
    try:  # before any draw; stored payloads are float32, so disk round-trips are exact
        features = np.empty((n, t_frames, f_bins), dtype=np.float32)
    except (ValueError, MemoryError):  # numpy's "array is too big", or no memory
        raise CorpusError(f"feature_shape {spec.feature_shape} of {n} samples does not fit"
                          " in memory") from None
    rng = stream(spec.seed, "synth")

    tail, head_primary, head_adds = _plan_counts(spec)
    primaries = np.concatenate(
        [np.zeros(head_primary, dtype=np.int64)]
        + [np.full(tail[k - 1], k, dtype=np.int64) for k in range(1, c)]
    )
    rng.shuffle(primaries)

    labels = np.zeros((n, c), dtype=np.uint8)
    labels[np.arange(n), primaries] = 1
    non_head = np.flatnonzero(primaries != 0)
    if head_adds > 0 and len(non_head) > 0:
        picked = rng.choice(non_head, size=min(head_adds, len(non_head)), replace=False)
        labels[picked, 0] = 1

    # One frequency signature per class; the event occupies a random
    # half-length time window per (sample, label) occurrence.
    pattern_seed = spec.seed if spec.pattern_seed is None else spec.pattern_seed
    signatures = stream(pattern_seed, "synth-patterns").standard_normal((c, f_bins))
    signatures /= np.linalg.norm(signatures, axis=1, keepdims=True)
    window = max(1, t_frames // 2)

    for i in range(n):
        x = rng.standard_normal((t_frames, f_bins))
        for k in np.flatnonzero(labels[i]):
            start = int(rng.integers(0, t_frames - window + 1))
            x[start : start + window, :] += spec.planted_signal_strength * signatures[k]
        features[i] = x

    pad = len(str(n))
    ids = [f"s{i:0{pad}d}" for i in range(n)]
    return MultiLabelCorpus(ids, features, labels, [f"class{k:03d}" for k in range(c)])


def write_labels(path: str | Path, ids: list[str], labels: np.ndarray,
                 class_names: list[str]) -> None:
    """Write a label index: one ``<sample_id>\t<class,class,...>`` line per sample."""
    with open(path, "w") as fh:
        for sid, row in zip(ids, labels):
            fh.write(f"{sid}\t{','.join(class_names[k] for k in np.flatnonzero(row))}\n")


def read_labels(path: str | Path, class_names: list[str]) -> tuple[list[str], np.ndarray]:
    """Parse a label index into its sample ids and an (N, C) multi-hot uint8 matrix."""
    index_of = {name: k for k, name in enumerate(class_names)}
    ids, rows = [], []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        sid, _, tags = line.partition("\t")
        bits = np.zeros(len(class_names), dtype=np.uint8)
        for tag in tags.split(","):
            tag = tag.strip()
            if not tag:
                continue
            if tag not in index_of:
                raise UnknownClassError(f"{path} line {lineno}: unknown class {tag!r}")
            bits[index_of[tag]] = 1
        ids.append(sid)
        rows.append(bits)
    return ids, np.array(rows, dtype=np.uint8).reshape(len(ids), len(class_names))


def _check_ids(ids: list[str]) -> None:
    """Each sample id names its payload file, so it must be filesystem-safe and unique."""
    seen = set()
    for sid in ids:
        if not set(sid) <= _ID_SAFE:
            raise CorpusError(f"sample id {sid!r} is not filesystem-safe")
        if sid in seen:
            raise CorpusError(f"sample id {sid!r} is repeated")
        seen.add(sid)


def write_corpus(corpus: MultiLabelCorpus, path: str | Path) -> None:
    _check_ids(corpus.ids)
    path = Path(path)
    (path / "features").mkdir(parents=True)
    shape_str = " ".join(str(d) for d in corpus.feature_shape)
    lines = ["version 1", f"feature_shape {shape_str}", f"num_samples {len(corpus)}"]
    lines += [f"class {name}" for name in corpus.class_names]
    (path / "manifest.txt").write_text("\n".join(lines) + "\n")
    write_labels(path / "labels.txt", corpus.ids, corpus.labels, corpus.class_names)
    for sid, x in zip(corpus.ids, corpus.features):
        x.astype("<f4").tofile(path / "features" / f"{sid}.f32")


def read_manifest(path: str | Path) -> tuple[tuple[int, ...], list[str], int | None]:
    """Feature shape, class names and declared sample count (or None) of a corpus directory."""
    manifest = Path(path) / "manifest.txt"
    if not manifest.is_file():
        raise MalformedManifestError(f"missing manifest: {manifest}")
    shape: tuple[int, ...] | None = None
    declared_n: int | None = None
    names: list[str] = []
    for lineno, line in enumerate(manifest.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        key, _, rest = line.partition(" ")
        if key == "version":
            if rest.strip() != "1":
                raise MalformedManifestError(f"unsupported corpus version {rest!r}")
        elif key == "feature_shape":
            shape = tuple(int(tok) if tok.isdecimal() else 0 for tok in rest.split())
            if not shape or min(shape) < 1:
                raise MalformedManifestError(f"manifest line {lineno}: bad shape {rest!r}")
        elif key == "num_samples":
            if not rest.strip().isdecimal():
                raise MalformedManifestError(f"manifest line {lineno}: bad sample count {rest!r}")
            declared_n = int(rest)
        elif key == "class":
            if rest in names:
                raise MalformedManifestError(f"manifest line {lineno}: repeated class {rest!r}")
            names.append(rest)
        else:
            raise MalformedManifestError(f"manifest line {lineno}: unknown key {key!r}")
    if shape is None or not names:
        raise MalformedManifestError("manifest must declare feature_shape and classes")
    return shape, names, declared_n


def read_corpus(path: str | Path) -> MultiLabelCorpus:
    path = Path(path)
    shape, names, declared_n = read_manifest(path)
    labels_file = path / "labels.txt"
    if not labels_file.is_file():
        raise MalformedManifestError(f"missing label index: {labels_file}")
    ids, labels = read_labels(labels_file, names)
    _check_ids(ids)
    if declared_n is not None and declared_n != len(ids):
        raise MalformedManifestError(
            f"manifest declares {declared_n} samples, label index has {len(ids)}"
        )
    try:
        # Little-endian like the payloads, so they are read in place; on a
        # little-endian host this is plain float32.
        features = np.zeros((len(ids), *shape), dtype="<f4")
    except (ValueError, MemoryError):  # numpy's "array is too big", or no memory
        raise MalformedManifestError(
            f"feature_shape {shape} of {len(ids)} samples does not fit in memory"
        ) from None
    for sid, out in zip(ids, features):
        _read_payload(path / "features" / f"{sid}.f32", out, sid)
    return MultiLabelCorpus(ids, features, labels, names)


def _read_payload(file: Path, out: np.ndarray, sid: str) -> None:
    """Read into the zeroed row ``out``; payloads short in time keep the zero padding."""
    if not file.is_file():
        raise ShapeMismatchError(f"sample {sid!r}: missing feature payload {file}")
    with open(file, "rb") as fh:
        nbytes = os.fstat(fh.fileno()).st_size
        frame = out[0].nbytes  # one time frame
        if nbytes > out.nbytes or nbytes % frame != 0:
            raise ShapeMismatchError(f"sample {sid!r}: payload has {nbytes} bytes, "
                                     f"declared shape {out.shape} of float32")
        if fh.readinto(out.reshape(-1).view(np.uint8)[:nbytes]) != nbytes:
            raise ShapeMismatchError(f"sample {sid!r}: payload {file} shrank while read")
