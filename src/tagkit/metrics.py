"""Evaluation engine: per-class AP, mAP, ROC-AUC, d-prime, and diagnostics.

Conventions pinned here because they move the numbers:
- Each class is ranked by one stable descending sort of its scores, so equal
  scores keep input order. AP and AUC both come from that order.
- AP is non-interpolated (precision summed at each positive's rank).
- AUC is the rank statistic (P[random positive outscores random negative]),
  ties counting one half.
- Predictions must be finite: a NaN or an infinity raises MetricError,
  because no rank for it is right.
- Classes with no positives (or no negatives, for AUC) are undefined and
  excluded from the means; the report records how many were skipped.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

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
    a class-major copy; no permutation is built. Binary search places each
    positive in its row: without adjacent equal values a row has one order,
    so a positive sits at the left end of its value. Only a row with ties is
    sorted again, stably, so that equal scores keep input order.
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
    # Each positive's tie group [lo, hi) in its class's ascending row; in a row
    # without adjacent equal values every group holds one value.
    lo = np.empty_like(at)
    for k in np.flatnonzero(npos):
        s, e = starts[k], ends[k]
        lo[s:e] = neg[k].searchsorted(hit[s:e], "left")
    hi = lo + 1
    place = lo.copy()  # descending position of each positive
    tied = (neg[:, 1:] == neg[:, :-1]).any(axis=1)
    for k in np.flatnonzero(tied & (npos > 0)):
        s, e = starts[k], ends[k]
        hi[s:e] = neg[k].searchsorted(hit[s:e], "right")
        place_of = np.empty(n, dtype=np.intp)
        place_of[np.argsort(np.negative(predictions[:, k]), kind="stable")] = np.arange(n)
        place[s:e] = place_of[at[s:e]]
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
    """Inverse standard-normal CDF.

    Rational approximation (Acklam) polished by one Halley step through
    erfc; abs error is near machine epsilon across (1e-12, 1-1e-12).
    """
    if not 0.0 < p < 1.0:
        raise MetricError(f"inverse normal CDF needs p in (0, 1), got {p}")
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low, p_high = 0.02425, 1 - 0.02425
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    elif p <= p_high:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1)
    else:
        q = math.sqrt(-2 * math.log(1 - p))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    # Halley refinement against the exact CDF.
    e = 0.5 * math.erfc(-x / math.sqrt(2)) - p
    u = e * math.sqrt(2 * math.pi) * math.exp(x * x / 2)
    return x - u / (1 + x * u / 2)


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
            "d_prime": self.dprime,
            "num_eval": self.num_eval,
            "num_skipped_ap": self.num_skipped_ap,
            "num_skipped_auc": self.num_skipped_auc,
            "per_class_ap": [None if math.isnan(v) else v for v in self.per_class_ap],
            "per_class_auc": [None if math.isnan(v) else v for v in self.per_class_auc],
        }

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    def write_class_csv(self, path: str | Path, class_names: list[str],
                        class_counts: np.ndarray) -> None:
        """Per-class (class, AP, AUC, count) table, the sorted class-wise AP data source."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["class", "ap", "auc", "count"])
            for k, name in enumerate(class_names):
                ap = "" if math.isnan(self.per_class_ap[k]) else repr(float(self.per_class_ap[k]))
                auc = "" if math.isnan(self.per_class_auc[k]) else repr(float(self.per_class_auc[k]))
                w.writerow([name, ap, auc, int(class_counts[k])])


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
