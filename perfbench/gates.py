"""Correctness gates and the brute-force oracles they use.

Each gate returns a list of failure messages; an empty list means it passed.
The oracles here are independent of tagkit's metric code on purpose: they
recompute AP and AUC from the definitions, with no shared helper.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


def same_digest(digests: list[str], what: str) -> list[str]:
    """Every repetition (traced or not) must reproduce the first digest bit for bit."""
    return [f"{what} digest {d[:12]} != first {digests[0][:12]} (repetition {i})"
            for i, d in enumerate(digests) if d != digests[0]]


def finite_maps(maps: list[float], what: str) -> list[str]:
    return [f"{what} mAP #{i} = {m!r} is not a finite value in [0, 1]"
            for i, m in enumerate(maps) if not (math.isfinite(m) and 0.0 <= m <= 1.0)]


def ledger(path: Path, key: str, digest: str) -> list[str]:
    """Runs of the same code, workload and seed must agree across processes.

    The ledger maps key -> digest; the first run with a key records it.
    """
    book = json.loads(path.read_text()) if path.is_file() else {}
    if key in book:
        return [] if book[key] == digest else [
            f"digest {digest[:12]} differs from an earlier run's {book[key][:12]} for {key}"]
    book[key] = digest
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{id(book)}")
    tmp.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n")
    tmp.replace(path)
    return []


def linear_identity(wa_logits: np.ndarray, member_logits: list[np.ndarray],
                    start: int, tol: float = 1e-10) -> list[str]:
    """Linear variant: logits of the averaged weights equal the mean member logits."""
    gap = float(np.abs(wa_logits - np.mean(np.stack(member_logits), axis=0)).max())
    return [] if gap < tol else [f"linear identity broken from epoch {start}: gap {gap:.3e}"]


def ap_oracle(scores: np.ndarray, labels: np.ndarray) -> float:
    """Definition-level AP: stable descending order, precision rescanned at each positive."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    ranked = [bool(labels[i]) for i in order]
    total = 0.0
    for rank, hit in enumerate(ranked, start=1):
        if hit:
            total += sum(ranked[:rank]) / rank
    return total / sum(ranked)


def auc_oracle(scores: np.ndarray, labels: np.ndarray) -> float:
    """Exhaustive positive/negative pair count; ties count one half."""
    pos = scores[labels > 0][:, None]
    neg = scores[labels == 0][None, :]
    wins = float((pos > neg).sum()) + 0.5 * float((pos == neg).sum())
    return wins / (pos.size * neg.size)


def metric_oracle(preds: np.ndarray, labels: np.ndarray, per_class_ap: np.ndarray,
                  per_class_auc: np.ndarray, classes: list[int],
                  tol: float = 1e-12) -> list[str]:
    failures = []
    for k in classes:
        ap = ap_oracle(preds[:, k], labels[:, k])
        auc = auc_oracle(preds[:, k], labels[:, k])
        if not abs(per_class_ap[k] - ap) <= tol:
            failures.append(f"class {k}: AP {per_class_ap[k]!r} != oracle {ap!r}")
        if not abs(per_class_auc[k] - auc) <= tol:
            failures.append(f"class {k}: AUC {per_class_auc[k]!r} != oracle {auc!r}")
    return failures


def equal(got: float, want: float, what: str) -> list[str]:
    return [] if got == want else [f"{what}: {got!r} != {want!r}"]


def exit_codes(codes: dict[str, int]) -> list[str]:
    return [f"command {name} exited {code}" for name, code in codes.items() if code != 0]


def files_exist(root: Path, names: list[str]) -> list[str]:
    return [f"missing {root / n}" for n in names if not (root / n).is_file()]
