"""Weight averaging, prediction ensembling, and the linear-variant identity."""

import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from tagkit.aggregate import (
    AggregateError,
    Committee,
    SweepPoint,
    average_weights,
    ensemble_mean,
    sweep_start_epoch,
)
from tagkit.corpus import SynthSpec, generate_synthetic
from tagkit.metrics import evaluate
from tagkit.model import (
    LRSchedule, Model, ModelConfig, ModelError, ParameterVector, TrainConfig, train,
)
from tagkit.rng import stream
from tagkit.rundir import write_table
from tagkit.sampler import AugmentConfig

from oracles import mean_logits


def vec(values, name="w"):
    values = np.asarray(values, dtype=float)
    return ParameterVector(values=values, manifest=((name, values.shape),))


class TestAverageWeights:
    def test_single_checkpoint_window(self):
        v = vec(np.arange(4.0))
        out = average_weights([v], 1)
        assert np.array_equal(out.values, v.values)

    def test_opposite_vectors_cancel(self):
        v = np.array([1.0, -2.0, 3.0])
        out = average_weights([vec(v), vec(-v)], 1)
        assert np.array_equal(out.values, np.zeros(3))

    def test_matches_scalar_mean_oracle(self):
        rng = np.random.default_rng(0)
        vs = [rng.standard_normal(10) for _ in range(5)]
        out = average_weights([vec(v) for v in vs], 1)
        for i in range(10):
            want = sum(v[i] for v in vs) / 5
            assert out.values[i] == pytest.approx(want, abs=1e-15)

    def test_window_start_drops_early_checkpoints(self):
        vs = [vec(np.full(3, float(i))) for i in range(1, 6)]
        out = average_weights(vs, 4)  # mean of 4.0 and 5.0
        assert np.array_equal(out.values, np.full(3, 4.5))

    def test_permutation_invariant_and_idempotent(self):
        rng = np.random.default_rng(1)
        vs = [rng.standard_normal(6) for _ in range(4)]
        a = average_weights([vec(v) for v in vs], 1)
        b = average_weights([vec(vs[i]) for i in (2, 0, 3, 1)], 1)
        assert np.allclose(a.values, b.values, atol=1e-15)
        # identical checkpoints: mean rounds at most one ulp from the input
        same = average_weights([vec(vs[0])] * 5, 1)
        assert np.allclose(same.values, vs[0], rtol=1e-15, atol=0)

    def test_empty_window_rejected(self):
        with pytest.raises(AggregateError):
            average_weights([vec(np.zeros(2))], 2)
        with pytest.raises(AggregateError):
            average_weights([vec(np.zeros(2))], 0)

    def test_manifest_mismatch_rejected(self):
        with pytest.raises(AggregateError):
            average_weights([vec(np.zeros(2), "w"), vec(np.zeros(2), "u")], 1)


class TestEnsembleMean:
    def test_identical_members_unchanged(self):
        m = np.random.default_rng(2).random((4, 3))
        out = ensemble_mean(Committee([m, m.copy(), m.copy()]))
        assert np.allclose(out, m, atol=1e-16)

    def test_two_member_midpoint(self):
        a = np.full((2, 2), 0.2)
        b = np.full((2, 2), 0.8)
        assert np.all(ensemble_mean(Committee([a, b])) == 0.5)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(3)
        members = [rng.random((5, 4)) for _ in range(7)]
        out = ensemble_mean(Committee(members))
        for i in range(5):
            for j in range(4):
                want = sum(m[i, j] for m in members) / 7
                assert out[i, j] == pytest.approx(want, abs=1e-15)

    def test_byte_equal_to_in_order_sum_without_a_stack(self):
        rng = np.random.default_rng(5)
        for shape in ((1, 1), (1, 2), (2, 1), (7, 3)):
            for m in (1, 2, 8, 9):
                members = [rng.random(shape) * 10.0 ** rng.integers(-3, 3) for _ in range(m)]
                want = np.empty(shape)
                for idx in np.ndindex(shape):  # left to right, one element at a time
                    total = members[0][idx]
                    for member in members[1:]:
                        total = total + member[idx]
                    want[idx] = total / m
                assert ensemble_mean(Committee(members)).tobytes() == want.tobytes()
        members = [rng.random((200, 50)) for _ in range(10)]
        tracemalloc.start()
        try:
            ensemble_mean(Committee(members))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * members[0].nbytes

    def test_output_within_member_envelope(self):
        rng = np.random.default_rng(4)
        members = [rng.random((6, 3)) for _ in range(5)]
        out = ensemble_mean(Committee(members))
        stack = np.stack(members)
        assert np.all(out >= stack.min(axis=0) - 1e-15)
        assert np.all(out <= stack.max(axis=0) + 1e-15)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(AggregateError):
            Committee([np.zeros((2, 2)), np.zeros((3, 2))])

    def test_empty_committee_rejected(self):
        with pytest.raises(AggregateError):
            Committee([])


def _linear_run(epochs=4, seed=0):
    corpus = generate_synthetic(
        SynthSpec(num_classes=4, num_samples=48, imbalance_ratio=4, seed=31,
                  feature_shape=(8, 6), planted_signal_strength=2.0)
    )
    evalc = generate_synthetic(
        SynthSpec(num_classes=4, num_samples=32, imbalance_ratio=1, seed=32,
                  pattern_seed=31, feature_shape=(8, 6), planted_signal_strength=2.0)
    )
    config = ModelConfig(num_classes=4, time_frames=8, freq_bins=6, variant="linear")
    result = train(
        corpus,
        config,
        AugmentConfig(freq_mask_max=2, time_mask_max=2, mixup_rate=0.3),
        TrainConfig(epochs=epochs, batch_size=16, seed=seed,
                    schedule=LRSchedule(base_lr=5e-3, warmup_iters=5, decay_start_epoch=2,
                                        decay_period=1)),
        eval_corpus=evalc,
    )
    return config, result, evalc


class TestLinearIdentity:
    def test_weight_average_equals_logit_average_every_window(self):
        config, result, evalc = _linear_run(epochs=5)
        feats = evalc.feature_tensor()
        for start in range(1, 6):
            avg_model = Model.from_vector(config, average_weights(result.checkpoints, start))
            averaged_params_logits = avg_model.forward_logits(feats)
            averaged_member_logits = mean_logits(result.checkpoints[start - 1 :], config, feats)
            assert np.abs(averaged_params_logits - averaged_member_logits).max() < 1e-10

    def test_sigmoid_of_mean_differs_from_mean_of_sigmoids(self):
        # the identity is logit-level only; probability-level averaging differs
        config, result, evalc = _linear_run(epochs=3)
        feats = evalc.feature_tensor()
        avg_model = Model.from_vector(config, average_weights(result.checkpoints, 1))
        prob_of_avg = avg_model.predict(feats)
        members = [Model.from_vector(config, ck).predict(feats) for ck in result.checkpoints]
        mean_prob = ensemble_mean(Committee(members))
        assert np.abs(prob_of_avg - mean_prob).max() > 1e-9


class TestSweep:
    def test_single_epoch_curve_is_one_point(self):
        config, result, evalc = _linear_run(epochs=1)
        feats, labels = evalc.feature_tensor(), evalc.label_matrix()
        points = sweep_start_epoch(result.checkpoints, config, feats, labels)
        assert len(points) == 1
        single_map = evaluate(
            Model.from_vector(config, result.checkpoints[0]).predict(feats), labels
        ).map
        assert points[0].weight_avg_map == pytest.approx(single_map, abs=1e-15)
        assert points[0].prediction_avg_map == pytest.approx(single_map, abs=1e-15)

    def test_points_are_byte_equal_to_per_start_stack_reference(self, monkeypatch):
        import tagkit.aggregate

        scored = []  # every matrix the sweep scores, as bytes
        monkeypatch.setattr(tagkit.aggregate, "evaluate",
                            lambda p, y: scored.append(p.tobytes()) or evaluate(p, y))
        rng = np.random.default_rng(40)
        # float32 features, more clips than one predict batch, one frame, one bin.
        for n, t, f, dtype in [(30, 4, 5, np.float64), (600, 4, 5, np.float32),
                               (300, 1, 5, np.float64), (300, 4, 1, np.float32)]:
            config = ModelConfig(num_classes=6, time_frames=t, freq_bins=f, variant="linear")
            checkpoints = [Model.init(config, stream(e, "init")).params_vector()
                           for e in range(9)]
            feats = rng.standard_normal((n, t, f)).astype(dtype)
            labels = (rng.random((n, 6)) < 0.4).astype(np.uint8)
            members = [Model.from_vector(config, ck).predict(feats) for ck in checkpoints]
            want, want_scored = [], []
            for start in range(1, 10):
                avg = Model.from_vector(config, average_weights(checkpoints, start))
                wa, pa = avg.predict(feats), np.mean(np.stack(members[start - 1 :]), axis=0)
                want.append(SweepPoint(start, evaluate(wa, labels).map, evaluate(pa, labels).map))
                want_scored += [wa.tobytes(), pa.tobytes()]
            # The last start averages one checkpoint: its two matrices are the last
            # member's, which the sweep scores once.
            assert want_scored[-2] == want_scored[-1] == members[-1].tobytes()
            del want_scored[-1]
            scored.clear()
            assert sweep_start_epoch(checkpoints, config, feats, labels) == want
            assert sorted(scored) == sorted(want_scored)

    def test_features_of_the_wrong_shape_rejected(self):
        config = ModelConfig(num_classes=3, time_frames=4, freq_bins=5, variant="linear")
        checkpoints = [Model.init(config, stream(0, "init")).params_vector()]
        labels = np.eye(3, dtype=np.uint8)[np.arange(12) % 3]
        with pytest.raises(ModelError, match="input shape"):
            sweep_start_epoch(checkpoints, config, np.zeros((12, 3, 5)), labels)

    def test_csv_emission(self, tmp_path):
        config, result, evalc = _linear_run(epochs=3)
        points = sweep_start_epoch(result.checkpoints, config,
                                   evalc.feature_tensor(), evalc.label_matrix())
        write_table(tmp_path / "sweep.csv", ["start_epoch", "weight_avg_map", "prediction_avg_map"],
                    [astuple(pt) for pt in points])
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert rows[0] == "start_epoch,weight_avg_map,prediction_avg_map"
        assert len(rows) == 4
        # each map reads back to its exact float
        assert [SweepPoint(int(e), float(wa), float(pa)) for e, wa, pa in
                (row.split(",") for row in rows[1:])] == points
