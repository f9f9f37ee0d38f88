"""Checkpoint weight averaging and prediction ensembling.

Weight averaging takes the coordinatewise mean of parameter vectors over a
late training window (by default from the first epoch where the learning
rate has dropped to a quarter of its base value). Ensembling averages the
post-sigmoid prediction matrices of a committee; ``model.train`` folds its
checkpoint ensemble the same way, one epoch at a time. For the linear model
variant, weight averaging coincides exactly with averaging the members'
pre-sigmoid logits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .metrics import evaluate
from .model import Model, ModelConfig, ModelError, ParameterVector


class AggregateError(Exception):
    pass


def average_weights(checkpoints: list[ParameterVector], start_epoch: int = 1) -> ParameterVector:
    """Coordinatewise mean of the epoch checkpoints from start_epoch to the last.

    Checkpoints are the per-epoch list of a run (index 0 is epoch 1); all
    manifests must match.
    """
    if not 1 <= start_epoch <= len(checkpoints):
        raise AggregateError(
            f"start_epoch {start_epoch} outside 1..{len(checkpoints)} (empty window)"
        )
    window = checkpoints[start_epoch - 1 :]
    manifest = window[0].manifest
    for ck in window[1:]:
        if ck.manifest != manifest:
            raise AggregateError("checkpoint manifests differ; cannot average")
    return replace(window[0], values=ensemble_mean(Committee([ck.values for ck in window])))


@dataclass
class Committee:
    """Members of one shape to average: prediction matrices (N_eval, C), or weight vectors."""

    members: list[np.ndarray]

    def __post_init__(self):
        if not self.members:
            raise AggregateError("committee must have at least one member")
        self.members = [np.asarray(m, dtype=np.float64) for m in self.members]
        shape = self.members[0].shape
        for m in self.members[1:]:
            if m.shape != shape:
                raise AggregateError(f"member shapes differ: {m.shape} vs {shape}")


def ensemble_mean(committee: Committee) -> np.ndarray:
    """Elementwise mean of the members, the one in-order mean of weights and predictions.

    For every shape, the first member is copied, the others are added to it in
    order, and the sum is divided by the member count: one running sum, with
    no stacked copy of the committee. ``model.train``'s running sum of its epochs'
    eval scores is the same fold, so its checkpoint ensemble has these bits.
    """
    members = committee.members
    total = members[0].copy()
    for m in members[1:]:
        total += m
    total /= len(members)
    return total


@dataclass
class SweepPoint:
    start_epoch: int
    weight_avg_map: float
    prediction_avg_map: float


def sweep_start_epoch(
    checkpoints: list[ParameterVector],
    config: ModelConfig,
    eval_features: np.ndarray,
    eval_labels: np.ndarray,
) -> list[SweepPoint]:
    """mAP of weight-averaged and prediction-averaged models per averaging start epoch.

    For each candidate start, both curves average all checkpoints from that
    epoch to the last.
    """
    if not checkpoints:
        raise AggregateError("need at least one checkpoint")
    if config.variant == "linear":
        # The linear model reads its input only through the time mean, which no
        # checkpoint changes: pool once and predict on one-frame clips, whose
        # mean is exact.
        want = (config.time_frames, config.freq_bins)
        if eval_features.ndim != 3 or eval_features.shape[1:] != want:
            raise ModelError(f"input shape {eval_features.shape[1:]} != configured {want}")
        # Reductions with dtype= are buffered: no float64 copy of the corpus is made.
        eval_features = np.mean(eval_features, axis=1, keepdims=True, dtype=np.float64)
        config = replace(config, time_frames=1)
    # The last start averages one checkpoint: both its averages are that member's predictions.
    starts = range(1, len(checkpoints))
    # The weight averages are scored before the member stack is filled, and the
    # pooled features are dropped before the prediction averages are scored, so
    # no evaluate runs beside both.
    wa_maps = [
        evaluate(Model.from_vector(config, average_weights(checkpoints, start))
                 .predict(eval_features), eval_labels).map
        for start in starts
    ]
    # Filled in place, so at most one member's prediction exists beside the stack.
    member_preds = np.empty((len(checkpoints), len(eval_features), config.num_classes))
    for i, ck in enumerate(checkpoints):
        member_preds[i] = Model.from_vector(config, ck).predict(eval_features)
    del eval_features
    last_map = evaluate(member_preds[-1], eval_labels).map
    return [
        SweepPoint(start, wa_map, evaluate(
            ensemble_mean(Committee(list(member_preds[start - 1 :]))), eval_labels).map)
        for start, wa_map in zip(starts, wa_maps)
    ] + [SweepPoint(len(checkpoints), last_map, last_map)]

