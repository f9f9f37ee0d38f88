"""Ontology-constrained label repair driven by teacher prediction scores.

Two error families are repaired by adding labels, never removing them:
a sample labeled with a parent but missing a present child (type1), and
a sample labeled with a child but missing its parent (type2). Candidates
come only from one-hop neighbors of the sample's ORIGINAL labels (single
pass), read off the ontology's parent -> child matrix, and a candidate is
added iff the teacher score strictly exceeds the class's entry in the
threshold vector (NaN where a class has no positive to set it).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .ontology import Ontology

log = logging.getLogger(__name__)

POLICIES = ("mean", "p25", "p10", "p5")
MODES = ("type1", "type2", "both")


class LabelFixError(Exception):
    pass


class UndefinedThresholdError(LabelFixError):
    pass


def make_thresholds(scores: np.ndarray, labels: np.ndarray, policy: str) -> np.ndarray:
    """Thresholds from the teacher's scores on each class's positive samples.

    policy "mean" takes the mean positive score; "p25"/"p10"/"p5" take the
    nearest-rank percentile of the sorted positive scores (lower percentile,
    lower threshold, more labels added). The result is a float64 vector of
    one threshold per class; a class without positives gets NaN, and using
    one during repair is an error unless permissive.
    """
    if policy not in POLICIES:
        raise LabelFixError(f"policy must be one of {POLICIES}, got {policy!r}")
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 2:
        raise LabelFixError("scores and labels must both be N x C")
    if scores.min() < 0.0 or scores.max() > 1.0:
        raise LabelFixError("teacher scores must lie in [0, 1]")

    c = scores.shape[1]
    cls, at = np.nonzero(labels.T > 0)  # positives, class-major, in input order
    ends = np.cumsum(np.bincount(cls, minlength=c))
    values = np.full(c, np.nan)
    for k, pos in enumerate(np.split(scores[at, cls], ends[:-1])):
        if pos.size == 0:
            continue
        if policy == "mean":
            values[k] = pos.mean()
        else:
            pct = int(policy[1:])
            ranked = np.sort(pos)
            rank = max(1, math.ceil(pct / 100.0 * pos.size))  # nearest-rank
            values[k] = ranked[rank - 1]
    return values


@dataclass
class EnhanceAudit:
    """What a repair pass did: per-class additions and the headline tallies."""

    labels_added: int
    original_bits: int
    per_class_added: np.ndarray
    skipped_undefined: list[int] = field(default_factory=list)
    split: str = "train"

    @property
    def added_pct(self) -> float:
        return 100.0 * self.labels_added / self.original_bits

    @property
    def impacted_classes(self) -> list[int]:
        return np.flatnonzero(self.per_class_added > 0).tolist()


def enhance(
    labels: np.ndarray,
    scores: np.ndarray,
    onto: Ontology,
    thresholds: np.ndarray,
    mode: str = "both",
    strict: bool = True,
    split: str = "train",
) -> tuple[np.ndarray, EnhanceAudit]:
    """Single-pass ontology-constrained label addition.

    For every sample, candidates are the one-hop neighbors (per mode) of the
    sample's original labels; a candidate is added iff its teacher score
    strictly exceeds its threshold and it is not already labeled. In strict
    mode a candidate with an undefined threshold raises; otherwise such
    classes are skipped with a warning.
    """
    if mode not in MODES:
        raise LabelFixError(f"mode must be one of {MODES}, got {mode!r}")
    labels = np.asarray(labels).astype(np.uint8)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape or labels.ndim != 2:
        raise LabelFixError("labels and scores must both be N x C")
    if labels.shape[1] != onto.num_classes or len(thresholds) != onto.num_classes:
        raise LabelFixError("class-count mismatch between labels, ontology, and thresholds")

    e = onto.edges  # e[k, j]: j is a child of k, so a type1 candidate when k is labeled
    cand = labels.astype(bool) @ {"type1": e, "type2": e.T, "both": e | e.T}[mode]
    skipped: list[int] = []
    hit_undefined = cand.any(axis=0) & np.isnan(thresholds)
    if hit_undefined.any():
        skipped = np.flatnonzero(hit_undefined).tolist()
        if strict:
            raise UndefinedThresholdError(
                f"candidate classes {skipped} have undefined thresholds"
            )
        log.warning("skipping candidate classes with undefined thresholds: %s", skipped)

    with np.errstate(invalid="ignore"):  # nan thresholds compare False
        add = cand & (scores > thresholds[None, :]) & (labels == 0)
    enhanced = (labels | add).astype(np.uint8)
    audit = EnhanceAudit(
        labels_added=int(add.sum()),
        original_bits=int(labels.sum()),
        per_class_added=add.sum(axis=0).astype(np.int64),
        skipped_undefined=skipped,
        split=split,
    )
    return enhanced, audit


def enhance_eval_set(
    labels: np.ndarray,
    scores: np.ndarray,
    onto: Ontology,
    thresholds: np.ndarray,
    mode: str = "both",
    strict: bool = True,
) -> tuple[np.ndarray, EnhanceAudit]:
    """Same repair machinery applied to an evaluation split (audited as such)."""
    return enhance(labels, scores, onto, thresholds, mode=mode, strict=strict, split="eval")
