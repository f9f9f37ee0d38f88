"""Reference implementations that tests compare tagkit against.

- Feature-space augmentation, one sample at a time: time/frequency masking
  and mixup. Batch assembly in training (``model._assemble_batch``) must be
  bit-identical to mixing and then masking each draw with these. Masking
  uses union semantics: the frequency band is blanked across all time
  frames and the time band across all frequency bins, as two independent
  maskings of the same matrix.
- The mean of committee members' pre-sigmoid logits, which for the linear
  model variant equals the logits of the weight-averaged model.
- Prediction with each clip upcast to float64 and scored alone.
  ``Model.predict``, which scores a group of clips at a time, must give
  byte-equal results.
- Per-class AP and AUC, one class at a time: two stable sorts of each
  column, one for AP and one for the AUC midranks. ``metrics.evaluate``
  must give byte-equal per-class values.
- Label-repair thresholds, one class at a time from a boolean scan of its
  column. ``labelfix.make_thresholds`` must give byte-equal thresholds.
- Label repair, one sample at a time over a list of (parent, child) pairs.
  ``labelfix.enhance`` must give the same labels and the same skipped
  classes.
- Training with Adam run tensor by tensor, each with its own moment arrays.
  ``model.train``'s whole-vector Adam must give byte-equal checkpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tagkit.corpus import MultiLabelCorpus
from tagkit.model import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    Model,
    ModelConfig,
    ParameterVector,
    TrainConfig,
    _assemble_batch,
)
from tagkit.rng import stream, stream_seed
from tagkit.sampler import AugmentConfig, make_weights, plan_epoch


class MaskBoundsError(ValueError):
    pass


class MixupShapeError(ValueError):
    pass


@dataclass(frozen=True)
class MaskParams:
    """Offsets/lengths of one frequency band and one time band, in bins."""

    freq_off: int
    freq_len: int
    time_off: int
    time_len: int


def apply_mask(features: np.ndarray, params: MaskParams, mask_value: float = 0.0) -> np.ndarray:
    """Blank the frequency band [f0, f0+f) and time band [t0, t0+t); returns a copy.

    Features are (time, freq). Cells outside both bands are bit-identical
    to the input.
    """
    t_frames, f_bins = features.shape
    f0, f, t0, t = params.freq_off, params.freq_len, params.time_off, params.time_len
    if min(f0, f, t0, t) < 0 or f0 + f > f_bins or t0 + t > t_frames:
        raise MaskBoundsError(
            f"mask {params} out of bounds for features {features.shape}"
        )
    out = features.copy()
    out[:, f0 : f0 + f] = mask_value
    out[t0 : t0 + t, :] = mask_value
    return out


def mixup(
    x_i: np.ndarray,
    y_i: np.ndarray,
    x_j: np.ndarray,
    y_j: np.ndarray,
    lam: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Convex combination of a sample pair and its labels.

    Works on 2-D feature matrices and 1-D signals alike; labels become
    soft vectors in [0, 1]^C.
    """
    if x_i.shape != x_j.shape:
        raise MixupShapeError(f"feature shapes differ: {x_i.shape} vs {x_j.shape}")
    if y_i.shape != y_j.shape:
        raise MixupShapeError(f"label shapes differ: {y_i.shape} vs {y_j.shape}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    mu = 1.0 - lam
    x = lam * np.asarray(x_i, dtype=np.float64) + mu * np.asarray(x_j, dtype=np.float64)
    y = lam * np.asarray(y_i, dtype=np.float64) + mu * np.asarray(y_j, dtype=np.float64)
    return x, y


def mean_logits(
    checkpoints: list[ParameterVector],
    config: ModelConfig,
    eval_features: np.ndarray,
) -> np.ndarray:
    """Mean of per-member pre-sigmoid logits (the linearity-test quantity)."""
    stacked = np.stack(
        [Model.from_vector(config, ck).forward_logits(eval_features) for ck in checkpoints]
    )
    return stacked.mean(axis=0)


def clip_by_clip_predict(model: Model, features: np.ndarray) -> np.ndarray:
    """(N, C) probabilities, each clip upcast alone and run through ``forward``."""
    out = np.empty((len(features), model.config.num_classes))
    for i, clip in enumerate(features):
        out[i], _ = model.forward(np.asarray(clip, dtype=np.float64))
    return out


def per_class_metrics(predictions: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-class AP and AUC, nan where undefined, scored column by column."""
    predictions = np.asarray(predictions, dtype=np.float64)
    labels = np.asarray(labels)
    c = predictions.shape[1]
    ap = np.full(c, np.nan)
    auc = np.full(c, np.nan)
    for k in range(c):
        scores, column = predictions[:, k], labels[:, k]
        npos = int(column.sum())
        if npos == 0:
            continue
        order = np.argsort(-scores, kind="stable")
        hits = column[order].astype(np.float64)
        precision_at = np.cumsum(hits) / np.arange(1, len(scores) + 1)
        ap[k] = float(precision_at[hits == 1].sum() / npos)
        positive = column.astype(bool)
        nneg = column.size - npos
        if nneg == 0:
            continue
        pos_rank_sum = float(_midranks(scores)[positive].sum())
        auc[k] = (pos_rank_sum - npos * (npos + 1) / 2.0) / (npos * nneg)
    return ap, auc


def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the mean rank of their group."""
    order = np.argsort(x, kind="stable")
    sx = x[order]
    new_group = np.r_[True, sx[1:] != sx[:-1]]
    group = np.cumsum(new_group) - 1
    counts = np.bincount(group)
    starts = np.cumsum(counts) - counts
    mid = starts + (counts + 1) / 2.0
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = mid[group]
    return ranks


def thresholds(scores: np.ndarray, labels: np.ndarray, policy: str) -> np.ndarray:
    """Per-class label-repair thresholds, nan for classes without positives."""
    c = scores.shape[1]
    values = np.full(c, np.nan)
    for k in range(c):
        pos = scores[labels[:, k] > 0, k]
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


def enhanced(labels: np.ndarray, scores: np.ndarray, pairs, thresholds: np.ndarray,
             mode: str) -> tuple[np.ndarray, list[int]]:
    """Repaired labels and the candidate classes with a nan threshold.

    A class is a candidate for a sample when it is one hop (per mode) from one of the
    sample's original labels; an unlabeled candidate is added when its score strictly
    beats its threshold.
    """
    hops = set()
    if mode in ("type1", "both"):
        hops |= {(p, c) for p, c in pairs}  # a labeled parent proposes its child
    if mode in ("type2", "both"):
        hops |= {(c, p) for p, c in pairs}  # a labeled child proposes its parent
    out, undefined = labels.copy(), set()
    for i in range(len(labels)):
        for k, j in hops:
            if not labels[i, k]:
                continue
            if math.isnan(thresholds[j]):
                undefined.add(j)
            elif not labels[i, j] and scores[i, j] > thresholds[j]:
                out[i, j] = 1
    return out, sorted(undefined)


def per_tensor_adam_checkpoints(
    corpus: MultiLabelCorpus,
    model_config: ModelConfig,
    augment_config: AugmentConfig,
    train_config: TrainConfig,
) -> list[ParameterVector]:
    """The per-epoch checkpoints of ``train``, with Adam stepping each named tensor alone."""
    seed = train_config.seed
    labels = corpus.label_matrix()
    weights = make_weights(labels)
    model = Model.init(model_config, stream(seed, "init"))
    adam_m = {k: np.zeros_like(v) for k, v in model.params.items()}
    adam_v = {k: np.zeros_like(v) for k, v in model.params.items()}
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    checkpoints = []
    step = 0
    for epoch in range(1, train_config.epochs + 1):
        plan = plan_epoch(
            weights, augment_config, corpus.feature_shape, stream_seed(seed, "sampler", epoch)
        )
        for lo in range(0, len(plan), train_config.batch_size):
            index = np.arange(lo, min(lo + train_config.batch_size, len(plan)))
            x, y = _assemble_batch(corpus, labels, plan, index)
            step += 1
            lr = train_config.schedule.lr(step, epoch)
            _, grad = model.loss_and_grads(x, y)
            for name, g in model.vector.views(grad).items():
                adam_m[name] = b1 * adam_m[name] + (1 - b1) * g
                adam_v[name] = b2 * adam_v[name] + (1 - b2) * g * g
                m_hat = adam_m[name] / (1 - b1**step)
                v_hat = adam_v[name] / (1 - b2**step)
                param = model.params[name]
                param -= lr * m_hat / (np.sqrt(v_hat) + eps)
        checkpoints.append(model.params_vector())
    return checkpoints
