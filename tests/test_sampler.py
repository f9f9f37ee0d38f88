"""Sampling weights, epoch plans, and coverage traces."""

import math

import numpy as np
import pytest

from tagkit.corpus import SynthSpec, generate_synthetic
from tagkit.rng import stream_seed
from tagkit.sampler import (
    AugmentConfig,
    SamplerError,
    make_weights,
    plan_epoch,
    simulate_coverage,
)

SHAPE = (32, 16)
CFG_KW = dict(freq_mask_max=4, time_mask_max=8)


class TestMakeWeights:
    def test_direct_formula(self):
        # class k1 on four samples, k2 on one
        labels = np.array([[1, 1], [1, 0], [1, 0], [1, 0]])
        w = make_weights(labels)
        assert w[0] == 1 / 4 + 1 / 1 == 1.25

    def test_uniform_counts_recover_uniform_sampling(self):
        labels = np.eye(3, dtype=int)[np.arange(15) % 3]
        w = make_weights(labels)
        assert np.all(w == 1 / 5)

    def test_hand_corpus_matches_spreadsheet_oracle(self):
        # 6 samples over 3 classes: A={0,1,4}, B={1,2,5}, C={3,4}
        rows = [{0}, {0, 1}, {1}, {2}, {0, 2}, {1}]
        labels = np.zeros((6, 3), dtype=int)
        for i, r in enumerate(rows):
            for k in r:
                labels[i, k] = 1
        counts = labels.sum(axis=0)
        w = make_weights(labels)
        for i in range(6):
            want = math.fsum(1.0 / counts[k] for k in rows[i])
            assert w[i] == pytest.approx(want, rel=1e-14)

    def test_permutation_equivariance(self):
        corpus = generate_synthetic(
            SynthSpec(num_classes=5, num_samples=50, seed=1, feature_shape=(8, 4))
        )
        labels = corpus.label_matrix()
        w = make_weights(labels)
        perm = np.random.default_rng(0).permutation(50)
        w_perm = make_weights(labels[perm])
        assert np.array_equal(w[perm], w_perm)


class TestPlanEpoch:
    def test_mixup_gate_closed(self):
        w = np.ones(40)
        plan = plan_epoch(w, AugmentConfig(mixup_rate=0.0, **CFG_KW), SHAPE, 0)
        assert not plan.is_mixup.any()
        assert np.all(plan.partner == -1)
        assert np.all(plan.mix_lambda == 1.0)

    def test_traversal_is_a_permutation(self):
        w = np.ones(64)
        plan = plan_epoch(
            w, AugmentConfig(mixup_rate=0.0, balanced=False, **CFG_KW), SHAPE, 3
        )
        assert sorted(plan.primary.tolist()) == list(range(64))

    def test_balanced_frequencies_match_weights(self):
        w = np.array([0.75, 0.25])
        config = AugmentConfig(mixup_rate=0.0, **CFG_KW)
        draws = np.concatenate(
            [plan_epoch(np.tile(w, 50), config, SHAPE, s).primary for s in range(100)]
        )
        # 100 plans x 100 draws with per-sample weights repeating (0.75, 0.25)
        freq_hi = np.isin(draws % 2, [0]).mean()
        assert freq_hi == pytest.approx(0.75, abs=0.02)

    def test_deterministic_for_seed(self):
        w = np.random.default_rng(1).random(30) + 0.1
        config = AugmentConfig(**CFG_KW)
        a = plan_epoch(w, config, SHAPE, stream_seed(7, "sampler", 3))
        b = plan_epoch(w, config, SHAPE, stream_seed(7, "sampler", 3))
        for field in ("primary", "is_mixup", "partner", "mix_lambda",
                      "freq_off", "freq_len", "time_off", "time_len"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        c = plan_epoch(w, config, SHAPE, stream_seed(7, "sampler", 4))
        assert not np.array_equal(a.primary, c.primary)

    def test_mask_bounds_never_violated(self):
        w = np.ones(200)
        for seed in range(10):
            config = AugmentConfig(freq_mask_max=16, time_mask_max=32)
            plan = plan_epoch(w, config, SHAPE, seed)
            assert np.all(plan.freq_off + plan.freq_len <= SHAPE[1])
            assert np.all(plan.time_off + plan.time_len <= SHAPE[0])
            assert np.all(plan.freq_len <= 16) and np.all(plan.time_len <= 32)
            assert np.all(plan.freq_off >= 0) and np.all(plan.time_off >= 0)

    def test_mask_lengths_cover_inclusive_range(self):
        w = np.ones(3000)
        plan = plan_epoch(w, AugmentConfig(freq_mask_max=4, time_mask_max=3), SHAPE, 11)
        assert set(plan.freq_len.tolist()) == {0, 1, 2, 3, 4}
        assert set(plan.time_len.tolist()) == {0, 1, 2, 3}

    def test_partner_uniform_even_when_balanced(self):
        # Primary follows the weights; the mixup partner stays uniform.
        w = np.array([1000.0] + [1.0] * 99)
        plan = plan_epoch(
            w, AugmentConfig(mixup_rate=1.0, **CFG_KW), SHAPE, 5
        )
        assert (plan.primary == 0).mean() > 0.7
        assert (plan.partner == 0).mean() < 0.1

    def test_lambda_beta_moments(self):
        w = np.ones(100_000)
        plan = plan_epoch(w, AugmentConfig(mixup_rate=1.0, mixup_alpha=10.0, **CFG_KW),
                          SHAPE, 13)
        lam = plan.mix_lambda
        assert lam.mean() == pytest.approx(0.5, abs=0.005)
        assert lam.var() == pytest.approx(1 / 84, rel=0.10)

    def test_config_validation(self):
        w = np.ones(4)
        with pytest.raises(SamplerError):
            plan_epoch(w, AugmentConfig(freq_mask_max=99, time_mask_max=8), SHAPE, 0)
        with pytest.raises(SamplerError):
            plan_epoch(w, AugmentConfig(mixup_rate=1.5, **CFG_KW), SHAPE, 0)
        with pytest.raises(SamplerError):
            plan_epoch(np.zeros(4), AugmentConfig(**CFG_KW), SHAPE, 0)


class TestSimulateCoverage:
    def test_traversal_sees_everything_first_epoch(self):
        w = np.ones(50)
        labels = np.ones((50, 1), dtype=int)
        trace = simulate_coverage(
            w, labels, AugmentConfig(balanced=False, mixup_rate=0.0, **CFG_KW), 1, 0
        )
        assert trace.unseen_fraction[0] == 0.0

    def test_uniform_balanced_matches_closed_form(self):
        # P(sample unseen after N draws with replacement) = (1-1/N)^N -> 1/e
        n = 10_000
        w = np.ones(n)
        labels = np.ones((n, 1), dtype=int)
        trace = simulate_coverage(
            w, labels, AugmentConfig(mixup_rate=0.0, **CFG_KW), 1, 123
        )
        assert trace.unseen_fraction[0] == pytest.approx(math.exp(-1), abs=0.01)

    def test_mixup_strictly_reduces_unseen_on_zipf_corpus(self):
        corpus = generate_synthetic(
            SynthSpec(num_classes=10, num_samples=2000, imbalance_ratio=500, seed=4,
                      feature_shape=(8, 4))
        )
        labels = corpus.label_matrix()
        w = make_weights(labels)
        with_mix = simulate_coverage(
            w, labels, AugmentConfig(mixup_rate=0.5, **CFG_KW), 5, 77
        )
        without = simulate_coverage(
            w, labels, AugmentConfig(mixup_rate=0.0, **CFG_KW), 5, 77
        )
        assert with_mix.unseen_fraction[4] < without.unseen_fraction[4]

    def test_unseen_fraction_nonincreasing(self):
        w = np.random.default_rng(5).random(300) + 0.05
        labels = np.ones((300, 1), dtype=int)
        trace = simulate_coverage(w, labels, AugmentConfig(**CFG_KW), 8, 6)
        assert np.all(np.diff(trace.unseen_fraction) <= 0)

    def test_agrees_with_plan_epoch_streams(self):
        # Coverage must mark exactly the samples a plan consumer would touch.
        corpus = generate_synthetic(
            SynthSpec(num_classes=4, num_samples=120, seed=8, feature_shape=SHAPE)
        )
        labels = corpus.label_matrix()
        w = make_weights(labels)
        config = AugmentConfig(mixup_rate=0.4, **CFG_KW)
        master = 31
        seen = np.zeros(len(w), dtype=bool)
        for epoch in range(1, 4):
            plan = plan_epoch(w, config, SHAPE, stream_seed(master, "sampler", epoch))
            seen[plan.primary] = True
            seen[plan.partner[plan.is_mixup]] = True
        trace = simulate_coverage(w, labels, config, 3, master)
        assert trace.unseen_fraction[2] == 1 - seen.mean()

    def test_class_frequency_counts_primary_and_partner_labels(self):
        labels = np.array([[1, 0], [0, 1], [0, 1], [0, 1]])
        w = np.ones(4)
        config = AugmentConfig(mixup_rate=0.0, balanced=False, **CFG_KW)
        trace = simulate_coverage(w, labels, config, 2, 0)
        # traversal with no mixup touches every sample once per epoch
        assert trace.class_frequency.tolist() == [2, 6]

    def test_rejects_zero_epochs(self):
        with pytest.raises(SamplerError):
            simulate_coverage(np.ones(3), np.ones((3, 1)), AugmentConfig(**CFG_KW), 0, 0)
