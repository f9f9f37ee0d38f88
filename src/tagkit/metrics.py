"""Evaluation engine: per-class AP, mAP, ROC-AUC, d-prime, and diagnostics.

Conventions pinned here because they move the numbers:
- Each class is ranked in descending order, a tied positive after the equal
  scores before it in input order. AP and AUC both come from that order.
- AP is non-interpolated (precision summed at each positive's rank).
- AUC is the rank statistic (P[random positive outscores random negative]),
  ties counting one half.
- Predictions must be finite: a NaN or an infinity raises MetricError,
  because no rank for it is right.
- Classes with no positives (or no negatives, for AUC) are undefined and
  excluded from the means; the report records how many were skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np


_TILE = 256  # side of the square blocks in which _score_classes transposes


class MetricError(Exception):
    pass


class UndefinedMetricError(MetricError):
    """A metric whose value does not exist for the given labels (e.g. no positives)."""


def average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    """Non-interpolated AP of one class: mean precision at each positive's rank."""
    ap, _ = _score_classes(np.reshape(scores, (-1, 1)), np.reshape(labels, (-1, 1)))
    if math.isnan(ap[0]):
        raise UndefinedMetricError("average precision undefined without positives")
    return float(ap[0])


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-statistic AUC; ties contribute one half."""
    _, auc = _score_classes(np.reshape(scores, (-1, 1)), np.reshape(labels, (-1, 1)))
    if math.isnan(auc[0]):
        raise UndefinedMetricError("AUC undefined without both positives and negatives")
    return float(auc[0])


def _score_classes(predictions: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-class AP and AUC of N x C scores; nan where a class is undefined.

    Every class's negated scores are sorted by value, in place, as one row of
    a class-major copy; no permutation is built. Binary search finds the left
    end lo of each positive's value in its row. A stable descending order puts
    the positive at lo plus the number of equal scores before it in input
    order, counted from the class's column only where the next score ties.
    """
    predictions = np.asarray(predictions, dtype=np.float64)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape or predictions.ndim != 2:
        raise MetricError(
            f"predictions {predictions.shape} and labels {labels.shape} must be equal N x C"
        )
    n, c = predictions.shape
    # Positives, class-major, in input order.
    cls, at = np.divmod(np.flatnonzero((labels != 0).T.copy()), n)
    # Row k holds class k's scores, negated. The transpose is copied in tiles
    # that stay in cache; one strided pass over the whole matrix does not.
    neg = np.empty((c, n))
    for i in range(0, n, _TILE):
        for k in range(0, c, _TILE):
            np.negative(predictions[i : i + _TILE, k : k + _TILE].T,
                        out=neg[k : k + _TILE, i : i + _TILE])
    hit = neg[cls, at]
    neg.sort(axis=1)
    # Sorting puts -inf first and +inf and NaN last, so the row ends show any.
    if not (np.isfinite(neg[:, :1]).all() and np.isfinite(neg[:, -1:]).all()):
        raise MetricError(
            f"{int((~np.isfinite(predictions)).sum())} predictions are not finite numbers"
        )
    npos = np.bincount(cls, minlength=c)
    ends = np.cumsum(npos)
    starts = ends - npos
    # Each positive's tie group [lo, hi) in its class's ascending row.
    lo = np.empty_like(at)
    for k in np.flatnonzero(npos):
        s, e = starts[k], ends[k]
        lo[s:e] = neg[k].searchsorted(hit[s:e], "left")
    hi = lo + 1
    place = lo.copy()  # descending position of each positive
    tied = (hi < n) & (neg[cls, hi % n] == hit)  # the next score in the row equals it
    for k in np.unique(cls[tied]):
        t = starts[k] + np.flatnonzero(tied[starts[k] : ends[k]])
        hi[t] = neg[k].searchsorted(hit[t], "right")
        col = np.negative(predictions[:, k])  # contiguous: the column is strided
        for i in t:
            place[i] += np.count_nonzero(col[: at[i]] == hit[i])
    place = np.sort(cls * n + place) - cls * n  # ascending within each class
    # Precision at a class's j-th positive is j / (its position + 1).
    precision = (np.arange(cls.size) - starts[cls] + 1) / (place + 1)
    ap = np.full(c, np.nan)
    for p in np.flatnonzero(np.bincount(npos)[1:]) + 1:  # each positive count in use
        # One (m, p) row per class sums in the same pairwise order as a 1-D .sum().
        ks = np.flatnonzero(npos == p)
        ap[ks] = precision[starts[ks, None] + np.arange(p)].sum(axis=1) / p
    # Ascending midranks are half-integers, so their sums are exact in any order.
    rank_sum = np.bincount(cls, weights=(n - hi) + (hi - lo + 1) / 2.0, minlength=c)
    auc = np.full(c, np.nan)
    both = (npos > 0) & (npos < n)
    p = npos[both]
    auc[both] = (rank_sum[both] - p * (p + 1) / 2.0) / (p * (n - p))
    return ap, auc


def inv_norm_cdf(p: float) -> float:
    """Inverse standard-normal CDF, from the standard library (within 1e-15 at p = 1 - 1e-12)."""
    if not 0.0 < p < 1.0:
        raise MetricError(f"inverse normal CDF needs p in (0, 1), got {p}")
    return NormalDist().inv_cdf(p)


def d_prime(auc: float) -> float:
    """Sensitivity index: sqrt(2) times the inverse normal CDF of the AUC."""
    if not 0.0 < auc < 1.0:
        raise MetricError(f"d-prime needs AUC in (0, 1), got {auc}")
    return math.sqrt(2.0) * inv_norm_cdf(auc)


def correlate(per_class_ap: np.ndarray, covariate: np.ndarray) -> float:
    """Pearson correlation between class-wise AP and a per-class covariate."""
    x = np.asarray(per_class_ap, dtype=np.float64)
    y = np.asarray(covariate, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise MetricError("inputs must be 1-D vectors of equal length")
    if x.size < 3:
        raise MetricError("need at least 3 classes to correlate")
    xd, yd = x - x.mean(), y - y.mean()
    sx, sy = math.sqrt(float(xd @ xd)), math.sqrt(float(yd @ yd))
    if sx == 0.0 or sy == 0.0:
        raise MetricError("zero variance on one side of the correlation")
    return float(xd @ yd) / (sx * sy)


@dataclass
class EvalReport:
    per_class_ap: np.ndarray  # nan where undefined
    map: float
    per_class_auc: np.ndarray  # nan where undefined
    mean_auc: float
    dprime: float
    num_eval: int
    num_skipped_ap: int = 0
    num_skipped_auc: int = 0

    def to_dict(self) -> dict:
        return {
            "map": self.map,
            "mean_auc": self.mean_auc,
            "d_prime": self.dprime if math.isfinite(self.dprime) else None,
            "num_eval": self.num_eval,
            "num_skipped_ap": self.num_skipped_ap,
            "num_skipped_auc": self.num_skipped_auc,
            "per_class_ap": [None if math.isnan(v) else v for v in self.per_class_ap],
            "per_class_auc": [None if math.isnan(v) else v for v in self.per_class_auc],
        }


def evaluate(predictions: np.ndarray, labels: np.ndarray) -> EvalReport:
    """Assemble per-class AP/AUC, their means, and d-prime from the mean AUC."""
    ap, auc = _score_classes(predictions, labels)
    n, c = np.shape(predictions)
    defined_ap = ~np.isnan(ap)
    defined_auc = ~np.isnan(auc)
    if not defined_ap.any() or not defined_auc.any():
        raise MetricError("all classes degenerate; nothing to evaluate")
    mean_ap = float(ap[defined_ap].mean())
    mean_auc = float(auc[defined_auc].mean())
    if mean_auc >= 1.0:
        dp = math.inf
    elif mean_auc <= 0.0:
        dp = -math.inf
    else:
        dp = d_prime(mean_auc)
    return EvalReport(
        per_class_ap=ap,
        map=mean_ap,
        per_class_auc=auc,
        mean_auc=mean_auc,
        dprime=dp,
        num_eval=n,
        num_skipped_ap=int(c - defined_ap.sum()),
        num_skipped_auc=int(c - defined_auc.sum()),
    )
