"""Model forward/backward, loss, LR schedule, training loop, checkpoints."""

import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tagkit
import tagkit.aggregate
import tagkit.model
from tagkit.aggregate import average_weights, sweep_start_epoch
from tagkit.corpus import MultiLabelCorpus, SynthSpec, generate_synthetic
from tagkit.metrics import evaluate
from tagkit.model import (
    CheckpointError,
    DivergenceError,
    InitMismatchError,
    LRSchedule,
    Model,
    ModelConfig,
    ModelError,
    ParameterVector,
    TrainConfig,
    _assemble_batch,
    _row_matmul,
    _sigmoid,
    grad_check,
    load_external_init,
    train,
)
from tagkit.rng import stream
from tagkit.sampler import AugmentConfig, plan_epoch

from oracles import (MaskParams, apply_mask, clip_by_clip_predict, mixup,
                     per_tensor_adam_checkpoints)

SMALL_ATT = ModelConfig(num_classes=5, time_frames=16, freq_bins=8,
                        num_heads=2, embed_dim=8, hidden_dim=6, time_strides=(2, 2))
SMALL_LIN = ModelConfig(num_classes=5, time_frames=16, freq_bins=8, variant="linear")
# The clip shape of PSLA's 10 s AudioSet log-mels: one clip is 1.08 MB in float64.
PSLA_CLIP = (1056, 128)


def random_batch(config, batch=3, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, config.time_frames, config.freq_bins))
    y = (rng.random((batch, config.num_classes)) < 0.4).astype(float)
    return x, y


def constant_logit_loss(z, y):
    """Training loss of a linear model whose logits are z for any input (zero weights, bias z)."""
    z = np.asarray(z, dtype=float)
    config = ModelConfig(num_classes=len(z), time_frames=4, freq_bins=3, variant="linear")
    vec = ParameterVector(values=np.r_[np.zeros(3 * len(z)), z],
                          manifest=Model.param_manifest(config))
    model = Model.from_vector(config, vec)
    return model.loss_and_grads(np.zeros((1, 4, 3)), np.asarray(y, dtype=float))[0]


class TestLoss:
    """The training loss: mean BCE over classes, on the logits, targets possibly soft."""

    def test_uninformative_half_is_ln2(self):
        y = (np.arange(7) % 2).astype(float)
        assert constant_logit_loss(np.zeros(7), y) == pytest.approx(math.log(2), abs=1e-12)

    def test_matches_scalar_oracle_with_soft_targets(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(0.01, 0.99, size=20)
        y = rng.random(20)
        want = np.mean([-(yi * math.log(pi) + (1 - yi) * math.log(1 - pi))
                        for pi, yi in zip(p, y)])
        assert constant_logit_loss(np.log(p / (1 - p)), y) == pytest.approx(want, abs=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            assert constant_logit_loss(rng.normal(0, 5, size=5), rng.random(5)) >= 0.0


class TestForward:
    def test_probabilities_in_open_interval(self):
        model = Model.init(SMALL_ATT, stream(0, "init"))
        x, _ = random_batch(SMALL_ATT, batch=8, seed=3)
        probs, _ = model.forward(x)
        assert probs.shape == (8, 5)
        assert np.all(probs > 0) and np.all(probs < 1)

    def test_attention_normalized_over_time(self):
        model = Model.init(SMALL_ATT, stream(1, "init"))
        x, _ = random_batch(SMALL_ATT, batch=4, seed=4)
        _, att = model.forward(x)
        assert np.abs(att.sum(axis=2) - 1.0).max() < 1e-6

    def test_uniform_attention_equals_temporal_mean_of_classifier(self):
        model = Model.init(SMALL_ATT, stream(2, "init"))
        model.params["att_w"][:] = 0.0
        model.params["att_b"][:] = 0.0
        x, _ = random_batch(SMALL_ATT, batch=3, seed=5)
        cache = model._forward_full(x)
        mean_pool = cache["cls"].mean(axis=2)
        want = np.einsum("bhc,h->bc", mean_pool, cache["gamma"])
        assert np.abs(cache["logits"] - want).max() < 1e-12

    def test_single_head_gate_is_identity(self):
        config = ModelConfig(num_classes=4, time_frames=16, freq_bins=8,
                             num_heads=1, embed_dim=8, hidden_dim=6, time_strides=(2, 2))
        model = Model.init(config, stream(3, "init"))
        model.params["head_gates"][:] = 1.234  # any scalar: softmax of one value is 1
        x, _ = random_batch(config, batch=2, seed=6)
        cache = model._forward_full(x)
        assert cache["gamma"][0] == 1.0
        assert np.array_equal(cache["logits"], cache["head_out"][:, 0, :])

    def test_time_permutation_symmetry_under_uniform_attention(self):
        # stride-1 encoder + uniform attention: temporal pooling ignores frame order
        config = ModelConfig(num_classes=3, time_frames=6, freq_bins=4,
                             num_heads=2, embed_dim=5, hidden_dim=5, time_strides=(1, 1))
        model = Model.init(config, stream(4, "init"))
        model.params["att_w"][:] = 0.0
        model.params["att_b"][:] = 0.0
        rng = np.random.default_rng(7)
        x = rng.standard_normal((6, 4))
        base, _ = model.forward(x)
        perm, _ = model.forward(x[rng.permutation(6)])
        assert np.abs(base - perm).max() < 1e-12

    def test_single_sample_and_batch_agree(self):
        model = Model.init(SMALL_ATT, stream(5, "init"))
        x, _ = random_batch(SMALL_ATT, batch=4, seed=8)
        batch_probs, _ = model.forward(x)
        one_probs, _ = model.forward(x[2])
        assert np.abs(batch_probs[2] - one_probs).max() < 1e-15

    def test_shape_mismatch_rejected(self):
        model = Model.init(SMALL_ATT, stream(6, "init"))
        with pytest.raises(ModelError):
            model.forward(np.zeros((2, 16, 9)))

    def test_linear_variant_has_no_attention(self):
        model = Model.init(SMALL_LIN, stream(7, "init"))
        x, _ = random_batch(SMALL_LIN, batch=2, seed=9)
        probs, att = model.forward(x)
        assert att is None
        assert probs.shape == (2, 5)


class TestChunkedInputStage:
    """``predict`` upcasts a few clips at a time; the bits must be those of each clip
    scored alone, and of the whole batch scored at once."""

    @pytest.mark.parametrize("config", [SMALL_ATT, SMALL_LIN], ids=["attention", "linear"])
    @pytest.mark.parametrize("clips_per_chunk", [1, 3, None])  # None: the default, one group
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_predict_matches_full_batch_forward(self, monkeypatch, config, clips_per_chunk,
                                                dtype):
        clip_bytes = 8 * config.time_frames * config.freq_bins
        if clips_per_chunk is not None:
            monkeypatch.setattr(tagkit.model, "CHUNK_BYTES", clips_per_chunk * clip_bytes)
        model = Model.init(config, stream(40, "init"))
        # 301 clips: neither 3 nor the head's 8-row block divides the count.
        rng = np.random.default_rng(41)
        x = rng.standard_normal((301, config.time_frames, config.freq_bins)).astype(dtype)
        probs = model.predict(x)
        assert probs.tobytes() == clip_by_clip_predict(model, x).tobytes()
        assert probs.tobytes() == model.forward(x.astype(np.float64))[0].tobytes()
        assert model.predict(x[:0]).shape == (0, config.num_classes)

    @pytest.mark.parametrize("shape", [(4, 5), (4, 1), (1, 5), (7, 3)])
    @pytest.mark.parametrize("clips_per_chunk", [3, None])
    def test_time_means_match_the_full_batch_loop(self, monkeypatch, shape, clips_per_chunk):
        # The linear sweep pools each clip once and scores one-frame clips; every matrix
        # it scores must be that of ``predict`` on the clips themselves, bit for bit.
        if clips_per_chunk is not None:
            clip_bytes = 8 * math.prod(shape)
            monkeypatch.setattr(tagkit.model, "CHUNK_BYTES", clips_per_chunk * clip_bytes)
        config = ModelConfig(num_classes=3, time_frames=shape[0], freq_bins=shape[1],
                             variant="linear")
        checkpoints = [Model.init(config, stream(42, "init", i)).params_vector()
                       for i in range(3)]
        rng = np.random.default_rng(43)
        labels = np.eye(3, dtype=np.uint8)[np.arange(600) % 3]
        scored = []
        monkeypatch.setattr(tagkit.aggregate, "evaluate",
                            lambda p, y: scored.append(p.tobytes()) or evaluate(p, y))
        for dtype in (np.float32, np.float64):
            x = rng.standard_normal((600, *shape)).astype(dtype)
            scored.clear()
            points = sweep_start_epoch(checkpoints, config, x, labels)
            members = [Model.from_vector(config, ck).predict(x) for ck in checkpoints]
            want = [members[-1]]
            for start in range(1, len(checkpoints)):
                window = average_weights(checkpoints, start)
                want += [Model.from_vector(config, window).predict(x),
                         np.mean(members[start - 1 :], axis=0)]
            assert sorted(scored) == sorted(p.tobytes() for p in want)
            assert [pt.weight_avg_map for pt in points[:-1]] == [
                evaluate(p, labels).map for p in want[1::2]]

    def test_wrong_clip_shape_rejected(self):
        model = Model.init(SMALL_LIN, stream(44, "init"))
        # A 2-D array is refused too, not scored as one (time, freq) clip.
        for x in (np.zeros((3, 16, 9), np.float32), np.zeros((16, 8), np.float32)):
            with pytest.raises(ModelError, match="input shape"):
                model.predict(x)

    @pytest.mark.parametrize("variant", ["attention", "linear"])
    def test_predict_memory_stays_far_below_one_float64_batch(self, variant):
        config = ModelConfig(num_classes=10, time_frames=PSLA_CLIP[0], freq_bins=PSLA_CLIP[1],
                             variant=variant)
        model = Model.init(config, stream(45, "init"))
        x = np.random.default_rng(46).standard_normal((32, *PSLA_CLIP)).astype(np.float32)
        tracemalloc.start()
        try:
            probs = model.predict(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * x.size / 4
        assert probs.tobytes() == clip_by_clip_predict(model, x).tobytes()


# AudioSet's 527 classes: wide enough that a plain 2-D gemm rounds a row
# differently with its neighbours, its position and the BLAS thread count.
WIDE_HEADS = {
    "attention": ModelConfig(num_classes=527, time_frames=16, freq_bins=128, num_heads=4,
                             embed_dim=64, hidden_dim=32, time_strides=(4, 2)),
    "linear": ModelConfig(num_classes=527, time_frames=16, freq_bins=128, variant="linear"),
}


@pytest.fixture(scope="module", params=sorted(WIDE_HEADS))
def wide_head(request):
    """A 527-class model, 300 float32 clips, and each clip's ``predict`` row scored alone."""
    model = Model.init(WIDE_HEADS[request.param], stream(47, "init"))
    x = np.random.default_rng(48).standard_normal((300, 16, 128)).astype(np.float32)
    alone = np.concatenate([model.predict(x[i : i + 1]) for i in range(len(x))])
    return model, x, alone


class TestRowIndependence:
    """A clip's scores depend only on the clip and the checkpoint."""

    @given(data=st.data())
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_predict_row_equals_the_clip_scored_alone(self, wide_head, data):
        model, x, alone = wide_head
        order = data.draw(st.permutations(range(len(x))))
        index = np.array(order[: data.draw(st.integers(1, len(x)))])
        assert model.predict(x[index]).tobytes() == alone[index].tobytes()

    def test_forward_equals_predict_beyond_256_clips(self, wide_head):
        model, x, alone = wide_head
        probs, _ = model.forward(x.astype(np.float64))
        assert probs.tobytes() == model.predict(x).tobytes() == alone.tobytes()


@pytest.mark.parametrize("m", [1600, 1597])
def test_row_matmul_bytes_do_not_depend_on_the_rows_memory_order(m):
    rng = np.random.default_rng(m)
    rows, w = rng.standard_normal((m, 48)), rng.standard_normal((48, 2108))
    assert _row_matmul(np.asfortranarray(rows), w).tobytes() == _row_matmul(rows, w).tobytes()


class TestGradients:
    def test_linear_gradcheck_tight(self):
        model = Model.init(SMALL_LIN, stream(8, "init"))
        x, y = random_batch(SMALL_LIN, batch=4, seed=10)
        assert grad_check(model, x, y) < 1e-7

    def test_attention_gradcheck(self):
        model = Model.init(SMALL_ATT, stream(9, "init"))
        x, y = random_batch(SMALL_ATT, batch=3, seed=11)
        assert grad_check(model, x, y) < 1e-4

    def test_bias_gradient_closed_form_at_zero(self):
        # zero input, zero params, zero targets: p = sigmoid(0) = 0.5 and the
        # output-bias gradient is (p - y) / C = 0.5 / C per class.
        model = Model.init(SMALL_LIN, stream(10, "init"))
        model.params["w"][:] = 0.0
        model.params["b"][:] = 0.0
        x = np.zeros((1, 16, 8))
        y = np.zeros((1, 5))
        _, grad = model.loss_and_grads(x, y)
        assert np.abs(model.vector.views(grad)["b"] - 0.5 / 5).max() < 1e-15

        config = ModelConfig(num_classes=5, time_frames=16, freq_bins=8,
                             num_heads=1, embed_dim=8, hidden_dim=6, time_strides=(2, 2))
        att = Model.init(config, stream(11, "init"))
        for name in att.params:
            att.params[name][:] = 0.0
        _, grad = att.loss_and_grads(x, y)
        assert np.abs(att.vector.views(grad)["cls_b"][0] - 0.5 / 5).max() < 1e-15

    def test_gradcheck_rejects_big_models(self):
        config = ModelConfig(num_classes=100, time_frames=32, freq_bins=64,
                             num_heads=4, embed_dim=64, hidden_dim=64, time_strides=(2, 2))
        model = Model.init(config, stream(12, "init"))
        with pytest.raises(ModelError):
            grad_check(model, np.zeros((1, 32, 64)), np.zeros((1, 100)))


def boolean_index_sigmoid(z):
    """Reference sigmoid: each sign's exact form applied through a boolean index."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def einsum_head_oracle(model, x, y):
    """Logits and gradients of the attention variant with the head contractions as einsums."""
    p = model.params
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim == 2:
        x, y = x[None], y[None]
    r1, h1, r2, h = model._encode(x)
    att_logit = np.einsum("btd,hdc->bhtc", h, p["att_w"]) + p["att_b"][None, :, None, :]
    att = boolean_index_sigmoid(att_logit)
    att_sum = att.sum(axis=2, keepdims=True)
    att_norm = att / att_sum
    cls = np.einsum("btd,hdc->bhtc", h, p["cls_w"]) + p["cls_b"][None, :, None, :]
    head_out = (att_norm * cls).sum(axis=2)
    g = p["head_gates"]
    gamma = np.exp(g - g.max())
    gamma /= gamma.sum()
    z = np.einsum("bhc,h->bc", head_out, gamma)

    dz = (boolean_index_sigmoid(z) - y) / z.size
    grads = {}
    dgamma = np.einsum("bc,bhc->h", dz, head_out)
    grads["head_gates"] = gamma * (dgamma - gamma @ dgamma)
    dhead = dz[:, None, :] * gamma[None, :, None]
    dcls = dhead[:, :, None, :] * att_norm
    datt_norm = dhead[:, :, None, :] * cls
    inner = (datt_norm * att_norm).sum(axis=2, keepdims=True)
    datt_logit = (datt_norm - inner) / att_sum * att * (1.0 - att)
    grads["att_w"] = np.einsum("btd,bhtc->hdc", h, datt_logit)
    grads["att_b"] = datt_logit.sum(axis=(0, 2))
    grads["cls_w"] = np.einsum("btd,bhtc->hdc", h, dcls)
    grads["cls_b"] = dcls.sum(axis=(0, 2))
    dh = (np.einsum("bhtc,hdc->btd", datt_logit, p["att_w"])
          + np.einsum("bhtc,hdc->btd", dcls, p["cls_w"]))
    dz2 = dh * (1.0 - h * h)
    grads["enc2_w"] = r2.reshape(-1, r2.shape[2]).T @ dz2.reshape(-1, dz2.shape[2])
    grads["enc2_b"] = dz2.sum(axis=(0, 1))
    dz1 = (dz2 @ p["enc2_w"].T).reshape(h1.shape) * (1.0 - h1 * h1)
    grads["enc1_w"] = r1.reshape(-1, r1.shape[2]).T @ dz1.reshape(-1, dz1.shape[2])
    grads["enc1_b"] = dz1.sum(axis=(0, 1))
    return z, grads


def assert_rel_close(got, want, rel=1e-12):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


class TestHeadOracle:
    @pytest.mark.parametrize("heads, classes, batch, squeeze", [
        (2, 5, 3, False),
        (1, 5, 3, False),
        (3, 1, 4, False),
        (2, 5, 1, False),
        (2, 5, 1, True),
    ])
    def test_matmul_head_matches_einsum_oracle(self, heads, classes, batch, squeeze):
        config = ModelConfig(num_classes=classes, time_frames=16, freq_bins=8,
                             num_heads=heads, embed_dim=8, hidden_dim=6, time_strides=(2, 2))
        model = Model.init(config, stream(30, "init"))
        rng = np.random.default_rng(31)
        for name, value in model.params.items():  # non-zero biases and gates too
            value[...] = 0.5 * rng.standard_normal(value.shape)
        x, y = random_batch(config, batch=batch, seed=32)
        if squeeze:
            x, y = x[0], y[0]
        want_z, want_grads = einsum_head_oracle(model, x, y)
        assert_rel_close(np.atleast_2d(model.forward_logits(x)), want_z)
        _, grad = model.loss_and_grads(x, y)
        grads = model.vector.views(grad)
        assert set(grads) == set(want_grads)
        for name, want in want_grads.items():
            assert_rel_close(grads[name], want)

    def test_sigmoid_matches_boolean_index_form_bit_for_bit(self):
        rng = np.random.default_rng(33)
        big = np.finfo(np.float64).max
        edges = np.array([0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 746.0, -746.0,
                          709.8, -709.8, 5e-324, -5e-324, big, -big, np.inf, -np.inf])
        magnitudes = 10.0 ** rng.uniform(-300, 300, 3000) * rng.choice([-1.0, 1.0], 3000)
        for z in (edges, magnitudes, 40.0 * rng.standard_normal(1000),
                  rng.standard_normal((3, 4, 5, 6)).transpose(0, 2, 1, 3)):
            assert _sigmoid(z).tobytes() == boolean_index_sigmoid(z).tobytes()
        assert np.isnan(_sigmoid(np.array([np.nan, -np.nan, 1.0]))[:2]).all()


class TestLRSchedule:
    def test_linear_warmup_midpoint(self):
        sched = LRSchedule(base_lr=1e-3, warmup_iters=1000)
        assert sched.lr(500, 1) == pytest.approx(5e-4)

    def test_balanced_regime_epoch_decay(self):
        sched = LRSchedule(base_lr=1e-3, warmup_iters=1000,
                           decay_start_epoch=35, decay_period=5, decay_factor=0.5)
        late = 10_000  # past warmup
        for epoch in range(1, 36):
            assert sched.lr(late, epoch) == pytest.approx(1e-3)
        for epoch in range(36, 41):
            assert sched.lr(late, epoch) == pytest.approx(5e-4)
        for epoch in range(41, 46):
            assert sched.lr(late, epoch) == pytest.approx(2.5e-4)

    def test_rate_always_positive(self):
        sched = LRSchedule(base_lr=1e-3)
        assert sched.lr(1, 1) > 0
        assert sched.lr(1, 500) > 0

    @pytest.mark.parametrize("kw", [dict(base_lr=0.0), dict(base_lr=-1e-3), dict(base_lr=math.nan),
                                    dict(warmup_iters=-5), dict(decay_factor=0.0),
                                    dict(decay_factor=-0.5), dict(decay_factor=1.5),
                                    dict(base_lr=math.inf)])
    def test_out_of_range_rejected(self, kw):
        with pytest.raises(ModelError):
            LRSchedule(**kw)

    def test_range_edges_accepted(self):
        LRSchedule(base_lr=sys.float_info.max, warmup_iters=0, decay_factor=1.0)

    def test_averaging_window_starts_at_quarter_rate(self):
        balanced = LRSchedule(base_lr=1e-3, decay_start_epoch=35)
        assert balanced.averaging_start_epoch(60) == 41
        full = LRSchedule(base_lr=1e-4, decay_start_epoch=10)
        assert full.averaging_start_epoch(30) == 16


def tiny_training_setup(seed=0, epochs=3, variant="attention"):
    corpus = generate_synthetic(
        SynthSpec(num_classes=4, num_samples=60, imbalance_ratio=6, seed=21,
                  feature_shape=(16, 8), planted_signal_strength=2.0)
    )
    evalc = generate_synthetic(
        SynthSpec(num_classes=4, num_samples=40, imbalance_ratio=1, seed=22,
                  pattern_seed=21, feature_shape=(16, 8), planted_signal_strength=2.0)
    )
    model_config = ModelConfig(num_classes=4, time_frames=16, freq_bins=8,
                               variant=variant, num_heads=2, embed_dim=8,
                               hidden_dim=6, time_strides=(2, 2))
    augment = AugmentConfig(freq_mask_max=2, time_mask_max=4, mixup_rate=0.3)
    train_config = TrainConfig(
        epochs=epochs, batch_size=16, seed=seed,
        schedule=LRSchedule(base_lr=5e-3, warmup_iters=10, decay_start_epoch=2,
                            decay_period=1),
    )
    return corpus, evalc, model_config, augment, train_config


class TestTrain:
    def test_checkpoints_one_per_epoch(self):
        corpus, evalc, mc, ac, tc = tiny_training_setup(epochs=3)
        result = train(corpus, mc, ac, tc, eval_corpus=evalc)
        assert len(result.checkpoints) == 3
        assert len(result.eval_reports) == 3
        assert all("lr" in row and "loss" in row for row in result.log_rows)

    def test_bit_identical_for_same_seed(self):
        corpus, evalc, mc, ac, tc = tiny_training_setup(seed=5)
        a = train(corpus, mc, ac, tc, eval_corpus=evalc)
        b = train(corpus, mc, ac, tc, eval_corpus=evalc)
        for ca, cb in zip(a.checkpoints, b.checkpoints):
            assert ca.values.tobytes() == cb.values.tobytes()
        assert [r.map for r in a.eval_reports] == [r.map for r in b.eval_reports]

    def test_different_seed_differs(self):
        corpus, evalc, mc, ac, tc = tiny_training_setup(seed=5)
        tc2 = TrainConfig(epochs=tc.epochs, batch_size=tc.batch_size, seed=6,
                          schedule=tc.schedule)
        a = train(corpus, mc, ac, tc)
        b = train(corpus, mc, ac, tc2)
        assert a.checkpoints[-1].values.tobytes() != b.checkpoints[-1].values.tobytes()

    def test_loss_decreases_on_learnable_corpus(self):
        corpus, evalc, mc, ac, tc = tiny_training_setup(epochs=4)
        result = train(corpus, mc, ac, tc, eval_corpus=evalc)
        first = np.mean([r["loss"] for r in result.log_rows[:4]])
        last = np.mean([r["loss"] for r in result.log_rows[-4:]])
        assert last < first

    def test_divergence_aborts_with_diagnostic(self):
        corpus, _, mc, ac, tc = tiny_training_setup()
        bad = TrainConfig(epochs=2, batch_size=16, seed=0,
                          schedule=LRSchedule(base_lr=1e300, warmup_iters=0))  # diverges
        with pytest.raises(DivergenceError, match="epoch"):
            train(corpus, mc, ac, bad)

    def test_eval_ensemble_is_ensemble_mean_of_the_epochs_scores(self):
        corpus, evalc, mc, ac, tc = tiny_training_setup(epochs=3)
        result = train(corpus, mc, ac, tc, eval_corpus=evalc)
        members = [Model.from_vector(mc, ck).predict(evalc.features) for ck in result.checkpoints]
        want = tagkit.aggregate.ensemble_mean(tagkit.aggregate.Committee(members))
        assert result.eval_ensemble.tobytes() == want.tobytes()
        assert train(corpus, mc, ac, tc).eval_ensemble is None

    def test_traced_peak_does_not_grow_with_the_epoch_count(self):
        # Held per epoch, the (N_eval, C) scores grew the peak by one matrix an epoch.
        classes, n_eval, shape = 527, 2000, (2, 8)
        rng = np.random.default_rng(47)

        def corpus(n):
            labels = np.zeros((n, classes), np.uint8)
            labels[np.arange(n), np.arange(n) % classes] = 1
            return MultiLabelCorpus([f"s{i}" for i in range(n)],
                                    rng.standard_normal((n, *shape)).astype(np.float32),
                                    labels, [f"c{k}" for k in range(classes)])

        train_set, eval_set = corpus(classes), corpus(n_eval)
        mc = ModelConfig(num_classes=classes, time_frames=shape[0], freq_bins=shape[1],
                         variant="linear")
        ac = AugmentConfig(freq_mask_max=2, time_mask_max=1, mixup_rate=0.5)
        peaks = {}
        for epochs in (2, 6):
            tc = TrainConfig(epochs=epochs, batch_size=264, seed=3)
            tracemalloc.start()
            try:
                train(train_set, mc, ac, tc, eval_corpus=eval_set)
                peaks[epochs] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[6] - peaks[2] < 8 * n_eval * classes

    @pytest.mark.parametrize("variant", ["attention", "linear"])
    def test_checkpoints_match_per_tensor_adam_oracle(self, variant):
        corpus, _, mc, ac, tc = tiny_training_setup(seed=7, epochs=2, variant=variant)
        got = train(corpus, mc, ac, tc).checkpoints
        want = per_tensor_adam_checkpoints(corpus, mc, ac, tc)
        assert len(got) == len(want) == 2
        for a, b in zip(got, want):
            assert a.manifest == b.manifest
            assert a.values.tobytes() == b.values.tobytes()


THREADED_TRAIN = """
import sys
from tagkit.corpus import SynthSpec, generate_synthetic
from tagkit.model import LRSchedule, ModelConfig, TrainConfig, train
from tagkit.sampler import AugmentConfig

corpus = generate_synthetic(SynthSpec(num_classes=20, num_samples=800, imbalance_ratio=4,
                                      seed=41, feature_shape=(64, 8)))
config = ModelConfig(num_classes=20, time_frames=64, freq_bins=8, num_heads=2,
                     embed_dim=32, hidden_dim=16, time_strides=(2, 2))
result = train(corpus, config, AugmentConfig(freq_mask_max=2, time_mask_max=8, mixup_rate=0.5),
               TrainConfig(epochs=2, batch_size=400, seed=3,
                           schedule=LRSchedule(base_lr=5e-3, warmup_iters=2)))
result.checkpoints[-1].save(sys.argv[1])
"""


def run_under_blas_threads(script, tmp_path):
    """The bytes ``script`` writes to its argv[1], run at 1 and at 2 BLAS threads."""
    src = str(Path(tagkit.__file__).resolve().parents[1])
    out = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        path = tmp_path / f"threads{threads}.bin"
        subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                       check=True, timeout=300)
        out[threads] = path.read_bytes()
    return out


def test_checkpoint_bytes_independent_of_blas_threads(tmp_path):
    # Training is not thread-independent at every shape: the backward pass's
    # weight-gradient gemms are plain 2-D gemms, and OpenBLAS rounds some of
    # them differently at 2 threads (rows.T @ datt_rows: 400 rows into 48 x 80
    # on the acceptance recipe config). At these shapes (6400 rows into
    # 32 x 40, and smaller) the bits happen to agree.
    ckpts = run_under_blas_threads(THREADED_TRAIN, tmp_path)
    assert ckpts["1"] == ckpts["2"]


WIDE_PREDICT = """
import sys
import numpy as np
from tagkit.model import Model, ModelConfig
from tagkit.rng import stream

x = np.random.default_rng(48).standard_normal((300, 16, 128)).astype(np.float32)
with open(sys.argv[1], "wb") as fh:
    for config in CONFIGS:
        fh.write(Model.init(config, stream(47, "init")).predict(x).tobytes())
""".replace("CONFIGS", repr(list(WIDE_HEADS.values())))


def test_predict_bytes_independent_of_blas_threads(tmp_path):
    scores = run_under_blas_threads(WIDE_PREDICT, tmp_path)
    assert len(scores["1"]) == 2 * 300 * 527 * 8
    assert scores["1"] == scores["2"]


def per_sample_batch(corpus, labels, plan, index, mask_value):
    """Reference batch assembly: the oracles' mixup then apply_mask, draw by draw."""
    xs, ys = [], []
    for n in index:
        i = int(plan.primary[n])
        x = corpus.features[i].astype(np.float64)
        y = labels[i].astype(np.float64)
        if plan.is_mixup[n]:
            j = int(plan.partner[n])
            x, y = mixup(x, y, corpus.features[j], labels[j].astype(np.float64),
                         float(plan.mix_lambda[n]))
        mask = MaskParams(freq_off=int(plan.freq_off[n]), freq_len=int(plan.freq_len[n]),
                          time_off=int(plan.time_off[n]), time_len=int(plan.time_len[n]))
        xs.append(apply_mask(x, mask, mask_value))
        ys.append(y)
    return np.stack(xs), np.stack(ys)


class TestAssembleBatch:
    @pytest.mark.parametrize("mixup_rate", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("masks", ["drawn", "empty", "full"])
    @pytest.mark.parametrize("mask_value", [0.0, -3.25])
    def test_matches_per_sample_oracle(self, mixup_rate, masks, mask_value):
        # Small clips in batches of 16, then PSLA's clip shape in batches of 10.
        for shape, num_samples, batch in (((16, 8), 50, 16), (PSLA_CLIP, 12, 10)):
            corpus = generate_synthetic(SynthSpec(num_classes=4, num_samples=num_samples,
                                                  imbalance_ratio=3, seed=34,
                                                  feature_shape=shape))
            labels = corpus.label_matrix()
            t_frames, f_bins = shape
            plan = plan_epoch(np.ones(len(corpus)),
                              AugmentConfig(freq_mask_max=f_bins, time_mask_max=t_frames,
                                            mixup_rate=mixup_rate),
                              shape, 35)
            n = len(plan)
            zeros = np.zeros(n, dtype=np.int64)
            if masks == "empty":
                plan = replace(plan, freq_len=zeros, time_len=zeros)
            elif masks == "full":
                plan = replace(plan, freq_off=zeros, freq_len=np.full(n, f_bins),
                               time_off=zeros, time_len=np.full(n, t_frames))
            for lo in range(0, n, batch):  # the last batch is partial
                index = np.arange(lo, min(lo + batch, n))
                x, y = _assemble_batch(corpus, labels, plan, index, mask_value)
                want_x, want_y = per_sample_batch(corpus, labels, plan, index, mask_value)
                assert x.dtype == want_x.dtype and x.tobytes() == want_x.tobytes()
                assert y.dtype == want_y.dtype and y.tobytes() == want_y.tobytes()

    def test_temporaries_stay_below_half_a_batch(self):
        rng = np.random.default_rng(38)
        n = 40
        features = rng.standard_normal((n, *PSLA_CLIP)).astype(np.float32)
        labels = np.eye(4, dtype=np.uint8)[np.arange(n) % 4]
        corpus = MultiLabelCorpus([f"s{i}" for i in range(n)], features, labels,
                                  ["a", "b", "c", "d"])
        plan = plan_epoch(np.ones(n), AugmentConfig(mixup_rate=0.5), PSLA_CLIP, 39)
        index = np.arange(32)
        tracemalloc.start()
        try:
            x, y = _assemble_batch(corpus, labels, plan, index, 0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert plan.is_mixup[index].sum() >= 8
        assert peak - x.nbytes - y.nbytes < x.nbytes / 2


class TestParameterVector:
    def test_checkpoint_round_trip(self, tmp_path):
        model = Model.init(SMALL_ATT, stream(13, "init"))
        vec = model.params_vector()
        vec.save(tmp_path / "m.ckpt")
        back = ParameterVector.load(tmp_path / "m.ckpt")
        assert back.manifest == vec.manifest
        assert back.values.tobytes() == vec.values.tobytes()

    def test_manifest_size_mismatch_rejected(self):
        with pytest.raises(CheckpointError):
            ParameterVector(values=np.zeros(3), manifest=(("w", (2, 2)),))
        # 2**32 * 2**32 wraps to 0 in int64; the manifest must still not cover 2 values.
        with pytest.raises(CheckpointError, match="covers"):
            ParameterVector(values=np.zeros(2), manifest=(("w", (2**32, 2**32)), ("b", (2,))))

    def test_non_finite_rejected(self):
        with pytest.raises(CheckpointError):
            ParameterVector(values=np.array([1.0, np.nan]), manifest=(("w", (2,)),))

    def test_corrupt_file_rejected(self, tmp_path):
        (tmp_path / "bad.ckpt").write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError):
            ParameterVector.load(tmp_path / "bad.ckpt")

    def test_vector_dict_round_trip(self):
        model = Model.init(SMALL_ATT, stream(14, "init"))
        vec = model.params_vector()
        rebuilt = Model.from_vector(SMALL_ATT, vec)
        for name, view in vec.views(vec.values).items():
            assert np.array_equal(model.params[name], view)
            assert np.array_equal(rebuilt.params[name], view)

    def test_params_are_read_only_views_of_the_vector(self):
        vec = Model.init(SMALL_ATT, stream(14, "init")).params_vector()
        model = Model.from_vector(SMALL_ATT, vec)
        model.params["cls_b"][1, 2] = 7.5
        back = model.params_vector()
        assert back.views(back.values)["cls_b"][1, 2] == 7.5
        assert vec.views(vec.values)["cls_b"][1, 2] != 7.5  # from_vector copied its input
        with pytest.raises(TypeError):
            model.params["cls_b"] = np.zeros((2, 5))
        assert model.params["cls_b"][1, 2] == 7.5

    def test_from_vector_is_bit_identical_and_checks_manifest(self):
        model = Model.init(SMALL_ATT, stream(14, "init"))
        vec = model.params_vector()
        back = Model.from_vector(SMALL_ATT, vec)
        assert back.params_vector().values.tobytes() == vec.values.tobytes()
        other = replace(SMALL_ATT, num_classes=SMALL_ATT.num_classes + 1)
        with pytest.raises(CheckpointError, match="manifest mismatch"):
            Model.from_vector(other, vec)


class TestLoadExternalInit:
    def test_own_save_loads_identically(self, tmp_path):
        model = Model.init(SMALL_ATT, stream(15, "init"))
        model.params_vector().save(tmp_path / "m.ckpt")
        loaded, names, reinit = load_external_init(SMALL_ATT, tmp_path / "m.ckpt",
                                                   stream(16, "init"))
        assert reinit == []
        for name in model.params:
            assert np.array_equal(loaded.params[name], model.params[name])

    def test_mismatched_classifier_reinitialized(self, tmp_path):
        # same encoder, different class count: heads must be re-initialized
        donor_cfg = ModelConfig(num_classes=9, time_frames=16, freq_bins=8,
                                num_heads=2, embed_dim=8, hidden_dim=6, time_strides=(2, 2))
        donor = Model.init(donor_cfg, stream(17, "init"))
        donor.params_vector().save(tmp_path / "donor.ckpt")
        loaded, names, reinit = load_external_init(SMALL_ATT, tmp_path / "donor.ckpt",
                                                   stream(18, "init"))
        assert "enc1_w" in names and "enc2_w" in names
        assert {"att_w", "att_b", "cls_w", "cls_b"} <= set(reinit)
        assert np.array_equal(loaded.params["enc1_w"], donor.params["enc1_w"])

    def test_disjoint_manifest_rejected(self, tmp_path):
        lin = Model.init(SMALL_LIN, stream(19, "init"))
        lin.params_vector().save(tmp_path / "lin.ckpt")
        with pytest.raises(InitMismatchError):
            load_external_init(SMALL_ATT, tmp_path / "lin.ckpt", stream(20, "init"))


class TestModelConfig:
    def test_stride_divisibility_enforced(self):
        with pytest.raises(ModelError):
            ModelConfig(num_classes=2, time_frames=10, freq_bins=4, time_strides=(4, 4))

    def test_head_count_enforced(self):
        with pytest.raises(ModelError):
            ModelConfig(num_classes=2, time_frames=8, freq_bins=4, num_heads=0,
                        time_strides=(2, 2))
