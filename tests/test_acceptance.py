"""Acceptance suite: every release criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run `pytest -s` to see them on
success). Criteria 9 and 10 share one set of fifteen desk-scale training
runs and take a few minutes; everything else is seconds.
"""

import math

import numpy as np
import pytest

from tagkit.aggregate import average_weights
from tagkit.corpus import SynthSpec, generate_synthetic
from tagkit.labelfix import enhance, make_thresholds
from tagkit.metrics import average_precision, d_prime, evaluate, roc_auc
from tagkit.model import (
    LRSchedule,
    Model,
    ModelConfig,
    TrainConfig,
    grad_check,
    train,
)
from tagkit.rng import stream
from tagkit.sampler import AugmentConfig, make_weights, plan_epoch, simulate_coverage

from oracles import mean_logits
from test_labelfix import planted_error_benchmark
from test_metrics import ap_oracle, auc_oracle


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_d_prime_mapping():
    hi = d_prime(0.9753)
    lo = d_prime(0.973)
    zero = d_prime(0.5)
    ok = abs(hi - 2.778) <= 0.002 and abs(lo - 2.725) <= 0.002 and zero == 0.0
    _report(1, ok, f"d'(0.9753)={hi:.4f}, d'(0.973)={lo:.4f}, d'(0.5)={zero}")


def test_criterion_02_metric_oracles():
    rng = np.random.default_rng(2024)
    worst_ap = 0.0
    auc_exact = True
    for trial in range(100):
        scores = rng.random(50)
        if trial % 4 == 0:
            scores = np.round(scores, 1)  # exercise tie handling
        labels = (rng.random(50) < 0.3).astype(int)
        labels[0], labels[1] = 1, 0
        worst_ap = max(worst_ap, abs(
            average_precision(scores, labels) - ap_oracle(scores.tolist(), labels.tolist())
        ))
        auc_exact &= roc_auc(scores, labels) == auc_oracle(scores.tolist(), labels.tolist())
    ok = worst_ap <= 1e-12 and auc_exact
    _report(2, ok, f"max |AP - oracle| = {worst_ap:.2e}; AUC exact on 100 vectors: {auc_exact}")


def test_criterion_03_sampler_law():
    # one plan over 10^6 samples whose weights tile (0.75, 0.25)
    weights = np.tile([0.75, 0.25], 500_000)
    plan = plan_epoch(weights, AugmentConfig(freq_mask_max=2, time_mask_max=2,
                                             mixup_rate=0.0), (8, 8), 99)
    freq_hi = (plan.primary % 2 == 0).mean()
    l1 = abs(freq_hi - 0.75) + abs((1 - freq_hi) - 0.25)

    lam = plan_epoch(np.ones(100_000),
                     AugmentConfig(freq_mask_max=2, time_mask_max=2,
                                   mixup_rate=1.0, mixup_alpha=10.0),
                     (8, 8), 7).mix_lambda
    mean_ok = abs(lam.mean() - 0.5) <= 0.005
    var_ok = abs(lam.var() - 1 / 84) <= 0.10 / 84
    ok = l1 <= 0.01 and mean_ok and var_ok
    _report(3, ok, f"L1={l1:.4f}; beta mean={lam.mean():.4f}, var={lam.var():.5f} "
                   f"(target {1/84:.5f})")


def test_criterion_04_coverage_analytics():
    n = 10_000
    trace = simulate_coverage(
        np.ones(n), np.ones((n, 1), dtype=int),
        AugmentConfig(freq_mask_max=2, time_mask_max=2, mixup_rate=0.0), (8, 4), 1, 515
    )
    uniform_err = abs(trace.unseen_fraction[0] - math.exp(-1))

    corpus = generate_synthetic(SynthSpec(
        num_classes=15, num_samples=3000, imbalance_ratio=500, seed=44,
        feature_shape=(8, 4)))
    labels = corpus.label_matrix()
    w = make_weights(labels)
    base = dict(freq_mask_max=2, time_mask_max=2)
    unseen_mix = simulate_coverage(w, labels, AugmentConfig(mixup_rate=0.5, **base),
                                   corpus.feature_shape, 5, 7).unseen_fraction[4]
    unseen_plain = simulate_coverage(w, labels, AugmentConfig(mixup_rate=0.0, **base),
                                     corpus.feature_shape, 5, 7).unseen_fraction[4]
    ok = uniform_err <= 0.01 and unseen_mix < unseen_plain
    _report(4, ok, f"|unseen - 1/e| = {uniform_err:.4f}; "
                   f"zipf unseen@5: mixup {unseen_mix:.4f} < plain {unseen_plain:.4f}")


def test_criterion_05_label_enhancement_recovery():
    onto, truth, corrupted, scores = planted_error_benchmark(seed=11, num_samples=200)
    fixed = np.full(8, 0.5)
    out, audit = enhance(corrupted, scores, onto, fixed, mode="both")
    deleted = int((truth & ~corrupted).sum())
    recovered = int(((out & ~corrupted) & truth).sum())
    spurious = int((out & ~truth).sum())

    added = []
    for policy in ("p25", "p10", "p5"):
        thr = make_thresholds(scores, corrupted, policy)
        _, a = enhance(corrupted, scores, onto, thr, mode="both", strict=False)
        added.append(a.labels_added)
    chain_ok = added[0] <= added[1] <= added[2]
    ok = recovered == deleted == audit.labels_added and spurious == 0 and chain_ok
    _report(5, ok, f"recovered {recovered}/{deleted}, spurious {spurious}; "
                   f"labels added p25<=p10<=p5: {added}")


def test_criterion_06_weight_averaging_linearity():
    corpus = generate_synthetic(SynthSpec(
        num_classes=6, num_samples=120, imbalance_ratio=10, seed=61,
        feature_shape=(16, 10), planted_signal_strength=1.5))
    evalc = generate_synthetic(SynthSpec(
        num_classes=6, num_samples=60, imbalance_ratio=1, seed=62, pattern_seed=61,
        feature_shape=(16, 10), planted_signal_strength=1.5))
    config = ModelConfig(num_classes=6, time_frames=16, freq_bins=10, variant="linear")
    result = train(
        corpus, config,
        AugmentConfig(freq_mask_max=3, time_mask_max=4, mixup_rate=0.4),
        TrainConfig(epochs=6, batch_size=20, seed=0,
                    schedule=LRSchedule(base_lr=5e-3, warmup_iters=10,
                                        decay_start_epoch=3, decay_period=1)),
        eval_corpus=evalc,
    )
    feats = evalc.feature_tensor()
    worst = 0.0
    for start in range(1, 7):
        avg = Model.from_vector(config, average_weights(result.checkpoints, start))
        gap = np.abs(avg.forward_logits(feats)
                     - mean_logits(result.checkpoints[start - 1:], config, feats)).max()
        worst = max(worst, gap)
    ok = worst < 1e-10
    _report(6, ok, f"max |params-averaged logits - mean member logits| = {worst:.2e} "
                   f"over 6 windows x {len(feats)} samples")


def test_criterion_07_gradient_correctness():
    config = ModelConfig(num_classes=5, time_frames=16, freq_bins=8,
                         num_heads=2, embed_dim=8, hidden_dim=6, time_strides=(2, 2))
    worst = 0.0
    for point in range(20):
        model = Model.init(config, stream(point, "init"))
        rng = np.random.default_rng(1000 + point)
        x = rng.standard_normal((2, 16, 8))
        y = (rng.random((2, 5)) < 0.4).astype(float)
        worst = max(worst, grad_check(model, x, y))
    n_params = Model.init(config, stream(0, "init")).vector.values.size
    ok = worst < 1e-4 and n_params <= 10_000
    _report(7, ok, f"max relative gradient error over 20 points = {worst:.2e} "
                   f"({n_params} params)")


def test_criterion_08_attention_normalization():
    config = ModelConfig(num_classes=7, time_frames=24, freq_bins=12,
                         num_heads=4, embed_dim=10, hidden_dim=8, time_strides=(2, 2))
    model = Model.init(config, stream(42, "init"))
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(100):
        _, att = model.forward(rng.standard_normal((24, 12)))
        worst = max(worst, float(np.abs(att.sum(axis=1) - 1.0).max()))

    uniform = Model.init(config, stream(43, "init"))
    uniform.params["att_w"][:] = 0.0
    uniform.params["att_b"][:] = 0.0
    x = rng.standard_normal((3, 24, 12))
    cache = uniform._forward_full(x)
    mean_pool = np.einsum("bhtc,h->bc", cache["cls"], cache["gamma"]) / cache["cls"].shape[2]
    uniform_gap = float(np.abs(cache["logits"] - mean_pool).max())
    ok = worst <= 1e-6 and uniform_gap <= 1e-12
    _report(8, ok, f"max |sum(att) - 1| = {worst:.2e}; "
                   f"uniform-logit pooling gap = {uniform_gap:.2e}")


# -- criteria 9 and 10 share one battery of runs ----------------------------

RECIPE_DATA_SEED = 1000
RECIPE_VARIANTS = ("full", "maskmix", "plain")


def _recipe_augment(variant: str) -> AugmentConfig:
    if variant == "full":
        return AugmentConfig(freq_mask_max=6, time_mask_max=12, mixup_rate=0.5,
                             mixup_alpha=10.0, balanced=True)
    if variant == "maskmix":
        return AugmentConfig(freq_mask_max=6, time_mask_max=12, mixup_rate=0.5,
                             mixup_alpha=10.0, balanced=False)
    return AugmentConfig(freq_mask_max=0, time_mask_max=0, mixup_rate=0.0,
                         balanced=False)


@pytest.fixture(scope="module")
def recipe_runs():
    kw = dict(num_classes=20, cooccurrence=0.25, feature_shape=(64, 16),
              planted_signal_strength=0.8)
    corpus = generate_synthetic(SynthSpec(
        num_samples=5000, imbalance_ratio=500, seed=RECIPE_DATA_SEED, **kw))
    evalc = generate_synthetic(SynthSpec(
        num_samples=1000, imbalance_ratio=1, seed=RECIPE_DATA_SEED + 1,
        pattern_seed=RECIPE_DATA_SEED, **kw))
    model_config = ModelConfig(num_classes=20, time_frames=64, freq_bins=16,
                               num_heads=4, embed_dim=48, hidden_dim=32,
                               time_strides=(4, 4))
    schedule = LRSchedule(base_lr=5e-3, warmup_iters=100,
                          decay_start_epoch=15, decay_period=5)
    eval_feats, eval_labels = evalc.feature_tensor(), evalc.label_matrix()

    headlines = {v: [] for v in RECIPE_VARIANTS}
    full_final_preds = []
    for seed in range(5):
        for variant in RECIPE_VARIANTS:
            result = train(
                corpus, model_config, _recipe_augment(variant),
                TrainConfig(epochs=25, batch_size=100, seed=seed, schedule=schedule),
                eval_corpus=evalc,
            )
            headlines[variant].append(result.headline_map(5))
            if variant == "full":
                full_final_preds.append(
                    Model.from_vector(model_config, result.checkpoints[-1]).predict(eval_feats))
    return headlines, full_final_preds, eval_labels


def test_criterion_09_directional_recipe_effect(recipe_runs):
    headlines, _, _ = recipe_runs
    full = float(np.mean(headlines["full"]))
    maskmix = float(np.mean(headlines["maskmix"]))
    plain = float(np.mean(headlines["plain"]))
    ok = full >= maskmix >= plain and (full - plain) >= 0.02
    _report(9, ok, f"mean mAP over 5 seeds: full={full:.4f} >= "
                   f"mask+mixup={maskmix:.4f} >= plain={plain:.4f}; "
                   f"full-plain margin={full - plain:.4f} (>= 0.02)")


def test_criterion_10_ensemble_tendency(recipe_runs):
    _, preds, eval_labels = recipe_runs
    member_maps = [evaluate(p, eval_labels).map for p in preds]
    beats_mean = beats_best = 0
    for m in range(5):
        committee = [m, (m + 1) % 5, (m + 2) % 5]
        ens = evaluate(np.mean([preds[i] for i in committee], axis=0), eval_labels).map
        members = [member_maps[i] for i in committee]
        beats_mean += ens > np.mean(members)
        beats_best += ens > max(members)
    ok = beats_mean == 5 and beats_best >= 4
    _report(10, ok, f"3-seed ensembles: beat committee mean {beats_mean}/5 "
                    f"(need 5), beat best member {beats_best}/5 (need >= 4)")


def test_criterion_11_determinism():
    corpus = generate_synthetic(SynthSpec(
        num_classes=5, num_samples=80, imbalance_ratio=8, seed=71,
        feature_shape=(16, 8), planted_signal_strength=1.5))
    evalc = generate_synthetic(SynthSpec(
        num_classes=5, num_samples=40, imbalance_ratio=1, seed=72, pattern_seed=71,
        feature_shape=(16, 8), planted_signal_strength=1.5))
    model_config = ModelConfig(num_classes=5, time_frames=16, freq_bins=8,
                               num_heads=2, embed_dim=8, hidden_dim=6,
                               time_strides=(2, 2))
    augment = AugmentConfig(freq_mask_max=2, time_mask_max=4, mixup_rate=0.5)
    tc = TrainConfig(epochs=4, batch_size=16, seed=9,
                     schedule=LRSchedule(base_lr=5e-3, warmup_iters=10,
                                         decay_start_epoch=2, decay_period=1))
    a = train(corpus, model_config, augment, tc, eval_corpus=evalc)
    b = train(corpus, model_config, augment, tc, eval_corpus=evalc)
    bits_ok = all(x.values.tobytes() == y.values.tobytes()
                  for x, y in zip(a.checkpoints, b.checkpoints))
    reports_ok = all(ra.map == rb.map and ra.mean_auc == rb.mean_auc
                     for ra, rb in zip(a.eval_reports, b.eval_reports))
    ok = bits_ok and reports_ok and len(a.checkpoints) == 4
    _report(11, ok, f"bit-identical checkpoints: {bits_ok}; "
                    f"identical eval reports: {reports_ok}")
