"""Balanced sampling plans: inverse-count weights, per-epoch draw plans, coverage.

All randomness for an epoch is pre-drawn into an EpochPlan so training
workers can consume draws in any order; the plan for a given
(seed, epoch) never depends on who consumed what. Draw blocks happen in
a fixed order (primary indices, mixup gates, partners, lambdas, frequency
masks, time masks). `simulate_coverage` replays `plan_epoch` itself, so
its trace is the draws training consumes by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import stream_seed


class SamplerError(Exception):
    pass


@dataclass(frozen=True)
class AugmentConfig:
    """Knobs of the sampling/augmentation stage.

    freq_mask_max / time_mask_max are the maximum mask lengths in bins;
    mixup_rate is the probability a draw is a mixed pair; mixup_alpha is
    the Beta concentration for the mixing coefficient; balanced switches
    between weighted multinomial draws and plain reshuffled traversal.
    """

    freq_mask_max: int = 48
    time_mask_max: int = 192
    mixup_rate: float = 0.5
    mixup_alpha: float = 10.0
    balanced: bool = True
    mask_value: float = 0.0

    def validate(self, feature_shape: tuple[int, int]) -> None:
        t_frames, f_bins = feature_shape
        if not 0 <= self.freq_mask_max <= f_bins:
            raise SamplerError(f"freq_mask_max must be in [0, {f_bins}]")
        if not 0 <= self.time_mask_max <= t_frames:
            raise SamplerError(f"time_mask_max must be in [0, {t_frames}]")
        if not 0.0 <= self.mixup_rate <= 1.0:
            raise SamplerError("mixup_rate must be in [0, 1]")
        if not 0 < self.mixup_alpha < math.inf:
            raise SamplerError("mixup_alpha must be finite and > 0")
        if not math.isfinite(self.mask_value):
            raise SamplerError("mask_value must be finite")


def make_weights(labels: np.ndarray) -> np.ndarray:
    """Per-sample sampling weight: sum of inverse class counts over the sample's labels."""
    labels = np.asarray(labels)
    counts = labels.sum(axis=0)
    recip = np.zeros(len(counts), dtype=np.float64)
    nz = counts > 0
    recip[nz] = 1.0 / counts[nz]
    w = labels.astype(np.float64) @ recip
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise SamplerError("every sample must have positive finite weight")
    return w


@dataclass
class EpochPlan:
    """Pre-drawn draws for one epoch.

    partner/mix_lambda hold sentinels (-1, 1.0) where is_mixup is false.
    Mask fields are offsets/lengths in bins satisfying off+len <= dim.
    """

    primary: np.ndarray
    is_mixup: np.ndarray
    partner: np.ndarray
    mix_lambda: np.ndarray
    freq_off: np.ndarray
    freq_len: np.ndarray
    time_off: np.ndarray
    time_len: np.ndarray

    def __len__(self) -> int:
        return len(self.primary)


def plan_epoch(
    weights: np.ndarray,
    config: AugmentConfig,
    feature_shape: tuple[int, int],
    rng_seed,
) -> EpochPlan:
    """Pre-draw one epoch of N sampling/augmentation decisions.

    rng_seed may be an int or a SeedSequence; pass stream_seed(seed,
    "sampler", epoch) for the reproducible per-epoch stream.
    """
    config.validate(feature_shape)
    if np.any(np.asarray(weights) <= 0):
        raise SamplerError("weights must be positive")
    t_frames, f_bins = feature_shape
    rng = np.random.default_rng(rng_seed)
    n = len(weights)

    if config.balanced:
        primary = rng.choice(n, size=n, replace=True, p=weights / weights.sum())
    else:
        primary = rng.permutation(n)
    gates = rng.random(n) < config.mixup_rate
    partner = rng.integers(0, n, size=n)
    lam = rng.beta(config.mixup_alpha, config.mixup_alpha, size=n)
    f_len = rng.integers(0, config.freq_mask_max + 1, size=n)
    f_off = rng.integers(0, f_bins - f_len + 1)
    t_len = rng.integers(0, config.time_mask_max + 1, size=n)
    t_off = rng.integers(0, t_frames - t_len + 1)

    return EpochPlan(
        primary=primary.astype(np.int64),
        is_mixup=gates,
        partner=np.where(gates, partner, -1).astype(np.int64),
        mix_lambda=np.where(gates, lam, 1.0),
        freq_off=f_off.astype(np.int64),
        freq_len=f_len.astype(np.int64),
        time_off=t_off.astype(np.int64),
        time_len=t_len.astype(np.int64),
    )


@dataclass
class CoverageTrace:
    """Fraction of the corpus never drawn after each epoch, plus class draw counts."""

    unseen_fraction: np.ndarray  # (epochs,)
    class_frequency: np.ndarray  # (C,) draws landing on samples of each class


def simulate_coverage(
    weights: np.ndarray,
    labels: np.ndarray,
    config: AugmentConfig,
    feature_shape: tuple[int, int],
    epochs: int,
    rng_seed: int,
) -> CoverageTrace:
    """Track which samples training feeds the model across epochs.

    Each epoch replays ``plan_epoch`` on the training stream
    ``stream_seed(rng_seed, "sampler", epoch)``, so the trace is the run's
    own draws. A sample counts as seen when drawn as a primary or as a
    mixup partner; feature_shape is the clip shape the masks are drawn for.
    """
    if epochs < 1:
        raise SamplerError("epochs must be >= 1")
    if rng_seed < 0:
        raise SamplerError("seed must be >= 0")
    labels = np.asarray(labels)
    seen = np.zeros(len(weights), dtype=bool)
    unseen = np.empty(epochs, dtype=np.float64)
    class_freq = np.zeros(labels.shape[1], dtype=np.int64)
    for epoch in range(1, epochs + 1):
        plan = plan_epoch(weights, config, feature_shape, stream_seed(rng_seed, "sampler", epoch))
        for drawn in (plan.primary, plan.partner[plan.is_mixup]):
            seen[drawn] = True
            class_freq += labels[drawn].sum(axis=0).astype(np.int64)
        unseen[epoch - 1] = 1.0 - seen.mean()
    return CoverageTrace(unseen_fraction=unseen, class_frequency=class_freq)
