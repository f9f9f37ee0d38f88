"""Corpus model, synthetic generation, and disk-format round trips."""

import numpy as np
import pytest

from tagkit.corpus import (
    CorpusError,
    MalformedManifestError,
    MultiLabelCorpus,
    ShapeMismatchError,
    SynthSpec,
    UnknownClassError,
    _plan_counts,
    generate_synthetic,
    read_corpus,
    write_corpus,
)
from tagkit.rng import stream


def tiny_corpus():
    shape = (4, 3)
    features = np.stack([np.ones(shape), np.full(shape, 2.0), np.zeros(shape) + 0.5])
    return MultiLabelCorpus(["a", "b", "c"], features, [[1, 0], [1, 1], [0, 1]], ["A", "B"])


class TestCountClasses:
    def test_direct_tally(self):
        corpus = tiny_corpus()
        assert corpus.labels.sum(axis=0).tolist() == [2, 2]
        assert corpus.feature_shape == (4, 3)

    def test_saturated_labels(self):
        corpus = MultiLabelCorpus([f"s{i}" for i in range(4)], np.zeros((4, 2, 2)),
                                  np.ones((4, 3)), ["A", "B", "C"])
        assert corpus.labels.sum(axis=0).tolist() == [4, 4, 4]

    def test_synthetic_counts_match_independent_tally(self):
        corpus = generate_synthetic(
            SynthSpec(num_classes=6, num_samples=300, imbalance_ratio=40, seed=7,
                      feature_shape=(8, 4))
        )
        tally = np.zeros(6, dtype=int)
        for row in corpus.labels:
            for k, bit in enumerate(row):
                tally[k] += int(bit)
        assert corpus.labels.sum(axis=0).tolist() == tally.tolist()

    def test_label_bit_conservation(self):
        corpus = generate_synthetic(
            SynthSpec(num_classes=5, num_samples=100, seed=3, feature_shape=(8, 4))
        )
        total_bits = sum(int(bit) for row in corpus.labels for bit in row)
        assert int(corpus.labels.sum(axis=0).sum()) == total_bits
        assert total_bits >= len(corpus)


class TestGenerateSynthetic:
    def test_deterministic_for_fixed_seed(self):
        spec = SynthSpec(num_classes=10, num_samples=1000, imbalance_ratio=100, seed=1,
                         feature_shape=(16, 8))
        a, b = generate_synthetic(spec), generate_synthetic(spec)
        assert a.ids == b.ids
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_balanced_degenerate_case(self):
        corpus = generate_synthetic(
            SynthSpec(num_classes=2, num_samples=100, imbalance_ratio=1, seed=2,
                      feature_shape=(8, 4))
        )
        lo, hi = sorted(corpus.labels.sum(axis=0).tolist())
        assert hi <= 1.2 * lo

    def test_imbalance_ratio_within_20_percent(self):
        for seed in range(4):
            spec = SynthSpec(num_classes=12, num_samples=2000, imbalance_ratio=200,
                             seed=seed, feature_shape=(8, 4))
            counts = generate_synthetic(spec).labels.sum(axis=0)
            ratio = counts.max() / counts.min()
            assert abs(ratio - 200) <= 0.2 * 200
            assert counts.min() >= 1

    def test_fitted_zipf_exponent_matches_configured(self):
        spec = SynthSpec(num_classes=20, num_samples=5000, imbalance_ratio=500, seed=3,
                         feature_shape=(8, 4))
        counts = np.sort(generate_synthetic(spec).labels.sum(axis=0))[::-1]
        ranks = np.arange(1, 21)
        slope = np.polyfit(np.log(ranks), np.log(counts), 1)[0]
        assert -slope == pytest.approx(spec.zipf_exponent, rel=0.10)

    def test_cooccurrence_pairs_rare_with_head(self):
        spec = SynthSpec(num_classes=8, num_samples=800, imbalance_ratio=50,
                         cooccurrence=0.5, seed=5, feature_shape=(8, 4))
        corpus = generate_synthetic(spec)
        labels = corpus.label_matrix()
        multi = labels.sum(axis=1) > 1
        # every multi-label sample pairs a rare class with the head class
        assert multi.any()
        assert np.all(labels[multi, 0] == 1)
        assert np.all(labels.sum(axis=1) <= 5)

    def test_shared_pattern_seed_shares_planted_classes(self):
        base = dict(num_classes=4, num_samples=80, imbalance_ratio=5,
                    feature_shape=(16, 32), planted_signal_strength=25.0)
        train = generate_synthetic(SynthSpec(seed=1, pattern_seed=9, **base))
        evalc = generate_synthetic(SynthSpec(seed=2, pattern_seed=9, **base))
        other = generate_synthetic(SynthSpec(seed=2, pattern_seed=10, **base))

        def mean_profile(corpus, k):
            rows = [x.mean(axis=0) for x, y in zip(corpus.features, corpus.labels)
                    if y[k] and y.sum() == 1]
            v = np.mean(rows, axis=0)
            return v / np.linalg.norm(v)

        same = np.dot(mean_profile(train, 1), mean_profile(evalc, 1))
        diff = np.dot(mean_profile(train, 1), mean_profile(other, 1))
        assert same > 0.95
        assert abs(diff) < 0.9

    def test_rejects_invalid_specs(self):
        with pytest.raises(CorpusError):
            generate_synthetic(SynthSpec(num_classes=1, num_samples=10))
        with pytest.raises(CorpusError):
            generate_synthetic(SynthSpec(num_classes=5, num_samples=3))
        with pytest.raises(CorpusError):
            generate_synthetic(SynthSpec(num_classes=5, num_samples=10, imbalance_ratio=0.5))
        with pytest.raises(CorpusError):
            generate_synthetic(SynthSpec(num_classes=5, num_samples=10, cooccurrence=1.5))


class TestDiskFormat:
    def test_round_trip_identity(self, tmp_path):
        corpus = generate_synthetic(
            SynthSpec(num_classes=4, num_samples=25, imbalance_ratio=8, seed=11,
                      feature_shape=(6, 5))
        )
        write_corpus(corpus, tmp_path / "c")
        back = read_corpus(tmp_path / "c")
        assert back.feature_shape == corpus.feature_shape
        assert back.class_names == corpus.class_names
        assert back.labels.sum(axis=0).tolist() == corpus.labels.sum(axis=0).tolist()
        assert back.ids == corpus.ids
        assert back.features.dtype == corpus.features.dtype == np.float32
        assert back.features.tobytes() == corpus.features.tobytes()
        assert back.labels.tobytes() == corpus.labels.tobytes()

    def test_unknown_class_in_labels(self, tmp_path):
        corpus = tiny_corpus()
        write_corpus(corpus, tmp_path / "c")
        labels = (tmp_path / "c" / "labels.txt").read_text().replace("B", "Zzz")
        (tmp_path / "c" / "labels.txt").write_text(labels)
        with pytest.raises(UnknownClassError):
            read_corpus(tmp_path / "c")

    def test_payload_shape_mismatch(self, tmp_path):
        corpus = tiny_corpus()
        write_corpus(corpus, tmp_path / "c")
        # manifest declares (4, 3); write a payload with too many values
        np.ones(4 * 7, dtype="<f4").tofile(tmp_path / "c" / "features" / "a.f32")
        with pytest.raises(ShapeMismatchError):
            read_corpus(tmp_path / "c")

    def test_short_payload_zero_padded_in_time(self, tmp_path):
        corpus = tiny_corpus()
        write_corpus(corpus, tmp_path / "c")
        np.ones(2 * 3, dtype="<f4").tofile(tmp_path / "c" / "features" / "a.f32")
        (tmp_path / "c" / "features" / "c.f32").write_bytes(b"")  # no frames at all
        back = read_corpus(tmp_path / "c")
        feats = back.features[0]
        assert feats.shape == (4, 3)
        assert np.array_equal(feats[:2], np.ones((2, 3)))
        assert np.array_equal(feats[2:], np.zeros((2, 3)))
        assert back.features[1].tobytes() == corpus.features[1].astype("<f4").tobytes()
        assert np.array_equal(back.features[2], np.zeros((4, 3)))

    @pytest.mark.parametrize("defect", ["partial value", "partial frame", "too long",
                                        "missing", "directory"])
    def test_bad_payload_rejected(self, tmp_path, defect):
        corpus = tiny_corpus()
        write_corpus(corpus, tmp_path / "c")
        payload = tmp_path / "c" / "features" / "b.f32"
        good = payload.read_bytes()
        if defect == "partial value":
            payload.write_bytes(good[:-10])  # three frames and half a value
        elif defect == "partial frame":
            payload.write_bytes(good[:-4])  # 11 values: not whole frames of 3
        elif defect == "too long":
            payload.write_bytes(good + good[:12])  # five frames where four are declared
        else:
            payload.unlink()
            if defect == "directory":
                payload.mkdir()
        with pytest.raises(ShapeMismatchError, match="'b'"):
            read_corpus(tmp_path / "c")

    @pytest.mark.parametrize("shape", [(1, 1), (9,), (5, 7), (3, 4, 2)])
    def test_round_trip_is_byte_equal_at_any_shape(self, tmp_path, shape):
        rng = np.random.default_rng(12)
        features = rng.standard_normal((5, *shape)).astype(np.float32)
        corpus = MultiLabelCorpus([f"x{i}" for i in range(5)], features,
                                  np.eye(2, dtype=np.uint8)[[0, 1, 0, 1, 1]], ["A", "B"])
        write_corpus(corpus, tmp_path / "c")
        back = read_corpus(tmp_path / "c")
        assert back.features.shape == features.shape
        assert back.features.tobytes() == features.tobytes()

    def test_feature_shape_too_big_to_allocate(self, tmp_path):
        write_corpus(tiny_corpus(), tmp_path / "c")
        manifest = tmp_path / "c" / "manifest.txt"
        manifest.write_text(manifest.read_text().replace(
            "feature_shape 4 3", "feature_shape 4294967296 4294967296"))
        with pytest.raises(MalformedManifestError, match="does not fit in memory"):
            read_corpus(tmp_path / "c")

    def test_malformed_manifest(self, tmp_path):
        corpus = tiny_corpus()
        write_corpus(corpus, tmp_path / "c")
        manifest = tmp_path / "c" / "manifest.txt"
        good = manifest.read_text()
        for line in ("bogus_key 1", "num_samples abc", "feature_shape 4 0"):
            manifest.write_text(good + line + "\n")
            with pytest.raises(MalformedManifestError):
                read_corpus(tmp_path / "c")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MalformedManifestError):
            read_corpus(tmp_path / "nowhere")

    def test_sample_id_with_a_path_is_rejected(self, tmp_path):
        # The id would name a payload of another corpus, outside this one.
        write_corpus(tiny_corpus(), tmp_path / "other")
        write_corpus(tiny_corpus(), tmp_path / "c")
        labels = tmp_path / "c" / "labels.txt"
        labels.write_text(labels.read_text().replace("a\t", "../../other/features/a\t"))
        with pytest.raises(CorpusError, match="not filesystem-safe"):
            read_corpus(tmp_path / "c")

    def test_repeated_sample_id_is_rejected(self, tmp_path):
        write_corpus(tiny_corpus(), tmp_path / "c")
        labels, manifest = tmp_path / "c" / "labels.txt", tmp_path / "c" / "manifest.txt"
        labels.write_text(labels.read_text() + "b\tA\n")
        manifest.write_text(manifest.read_text().replace("num_samples 3", "num_samples 4"))
        with pytest.raises(CorpusError, match="'b' is repeated"):
            read_corpus(tmp_path / "c")

    def test_repeated_class_name_is_rejected(self, tmp_path):
        write_corpus(tiny_corpus(), tmp_path / "c")
        manifest = tmp_path / "c" / "manifest.txt"
        manifest.write_text(manifest.read_text() + "class A\n")
        with pytest.raises(MalformedManifestError, match="repeated class 'A'"):
            read_corpus(tmp_path / "c")


class TestInvariants:
    def test_sample_requires_a_label(self):
        with pytest.raises(CorpusError, match="'y' has no labels"):
            MultiLabelCorpus(["x", "y"], np.zeros((2, 2, 2)), [[1, 0], [0, 0]], ["A", "B"])

    def test_sample_rejects_non_finite_features(self):
        for bad in (np.nan, np.inf, -np.inf):
            features = np.zeros((3, 1, 2))
            features[1, 0, 1] = bad
            with pytest.raises(CorpusError, match="'y' has non-finite"):
                MultiLabelCorpus(["x", "y", "z"], features, [[1], [1], [1]], ["A"])

    def test_shapes_must_agree(self):
        with pytest.raises(ShapeMismatchError):
            MultiLabelCorpus(["a", "b"], np.zeros((3, 2, 2)), [[1], [1]], ["A"])
        with pytest.raises(ShapeMismatchError):
            MultiLabelCorpus(["a", "b"], np.zeros((2, 2, 2)), [[1, 1], [1, 1]], ["A"])

    def test_with_labels_shares_features(self):
        corpus = tiny_corpus()
        swapped = corpus.with_labels([[0, 1], [0, 1], [1, 1]])
        assert swapped.features is corpus.features
        assert swapped.labels.sum(axis=0).tolist() == [1, 3]
        assert corpus.labels.sum(axis=0).tolist() == [2, 2]
        with pytest.raises(CorpusError):
            corpus.with_labels(np.ones((2, 2)))


def per_sample_features(spec):
    """Reference synthesis: each sample drawn in float64, then rounded through float32."""
    c, n = spec.num_classes, spec.num_samples
    t_frames, f_bins = spec.feature_shape
    rng = stream(spec.seed, "synth")
    tail, head_primary, head_adds = _plan_counts(spec)
    primaries = np.concatenate(
        [np.zeros(head_primary, dtype=np.int64)]
        + [np.full(tail[k - 1], k, dtype=np.int64) for k in range(1, c)]
    )
    rng.shuffle(primaries)
    labels = np.zeros((n, c), dtype=np.uint8)
    labels[np.arange(n), primaries] = 1
    non_head = np.flatnonzero(primaries != 0)
    if head_adds > 0 and len(non_head) > 0:
        labels[rng.choice(non_head, size=min(head_adds, len(non_head)), replace=False), 0] = 1
    signatures = stream(spec.seed, "synth-patterns").standard_normal((c, f_bins))
    signatures /= np.linalg.norm(signatures, axis=1, keepdims=True)
    window = max(1, t_frames // 2)
    out = []
    for i in range(n):
        x = rng.standard_normal((t_frames, f_bins))
        for k in np.flatnonzero(labels[i]):
            start = int(rng.integers(0, t_frames - window + 1))
            x[start : start + window, :] += spec.planted_signal_strength * signatures[k]
        out.append(x.astype(np.float32).astype(np.float64))
    return np.stack(out), labels


class TestFeatureTensor:
    def test_float64_upcast_of_the_stored_float32_draws(self, tmp_path):
        spec = SynthSpec(num_classes=3, num_samples=40, imbalance_ratio=4, seed=5,
                         cooccurrence=0.5, feature_shape=(6, 4))
        want, labels = per_sample_features(spec)
        corpus = generate_synthetic(spec)
        assert corpus.features.dtype == np.float32
        assert corpus.label_matrix().tobytes() == labels.tobytes()
        got = corpus.feature_tensor()
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        write_corpus(corpus, tmp_path / "c")
        back = read_corpus(tmp_path / "c").feature_tensor()
        assert back.dtype == np.float64 and back.tobytes() == want.tobytes()
