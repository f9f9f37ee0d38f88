"""Threshold generation and ontology-constrained label repair."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagkit.labelfix import (
    MODES,
    POLICIES,
    LabelFixError,
    UndefinedThresholdError,
    enhance,
    enhance_eval_set,
    make_thresholds,
)
from tagkit.cli import _write_audit
from tagkit.ontology import Ontology

from oracles import enhanced, thresholds


def planted_error_benchmark(seed=0, num_samples=200, noise=0.05):
    """Two-level 8-class taxonomy with known label deletions.

    Classes 0 and 1 are parents (0 -> 2,3,4; 1 -> 5,6,7). Ground-truth
    samples carry one parent plus one or two of its children; a deletion
    mask removes either a child (a type1 error) or the parent (type2).
    Teacher scores are ground truth plus uniform(-noise, +noise) noise.
    """
    rng = np.random.default_rng(seed)
    onto = Ontology.from_edges(8, [(0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)])
    truth = np.zeros((num_samples, 8), dtype=np.uint8)
    corrupted = truth.copy()
    for i in range(num_samples):
        parent = int(rng.integers(0, 2))
        kids = rng.choice([2, 3, 4] if parent == 0 else [5, 6, 7],
                          size=int(rng.integers(1, 3)), replace=False)
        truth[i, parent] = 1
        truth[i, kids] = 1
        corrupted[i] = truth[i]
        kind = rng.integers(0, 3)
        if kind == 0:  # type1: drop one child, keep the parent
            corrupted[i, int(rng.choice(kids))] = 0
        elif kind == 1:  # type2: drop the parent, keep the children
            corrupted[i, parent] = 0
        # kind == 2: leave the sample clean
    scores = np.clip(truth + rng.uniform(-noise, noise, truth.shape), 0.0, 1.0)
    return onto, truth, corrupted, scores


class TestMakeThresholds:
    def test_mean_policy(self):
        scores = np.array([[0.2], [0.4], [0.9], [0.3]])
        labels = np.array([[1], [1], [1], [0]])
        t = make_thresholds(scores, labels, "mean")
        assert t.dtype == np.float64 and t.shape == (1,)
        assert t[0] == pytest.approx(0.5)

    def test_single_positive_same_under_every_policy(self):
        scores = np.array([[0.37], [0.9]])
        labels = np.array([[1], [0]])
        for policy in ("mean", "p25", "p10", "p5"):
            t = make_thresholds(scores, labels, policy)
            assert t[0] == pytest.approx(0.37)

    def test_percentile_nearest_rank_oracle(self):
        # 100 positives with scores i/100: p10 lands on the 10th sorted score.
        scores = (np.arange(1, 101) / 100.0).reshape(-1, 1)
        labels = np.ones((100, 1), dtype=int)
        t = make_thresholds(scores, labels, "p10")
        ranked = np.sort(scores[:, 0])
        want = ranked[max(1, int(np.ceil(0.10 * 100))) - 1]
        assert t[0] == want == pytest.approx(0.10, abs=0.01)

    def test_zero_positive_class_marked_undefined(self):
        scores = np.array([[0.5, 0.5]])
        labels = np.array([[1, 0]])
        t = make_thresholds(scores, labels, "mean")
        assert not np.isnan(t[0])
        assert np.isnan(t[1])

    def test_percentile_chain_monotone(self):
        rng = np.random.default_rng(1)
        scores = rng.random((50, 4))
        labels = (rng.random((50, 4)) < 0.5).astype(int)
        labels[0] = 1
        t25 = make_thresholds(scores, labels, "p25")
        t10 = make_thresholds(scores, labels, "p10")
        t5 = make_thresholds(scores, labels, "p5")
        assert np.all(t5 <= t10 + 1e-15)
        assert np.all(t10 <= t25 + 1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(LabelFixError):
            make_thresholds(np.zeros((2, 2)), np.ones((2, 2)), "p50")
        with pytest.raises(LabelFixError):
            make_thresholds(np.full((2, 2), 1.5), np.ones((2, 2)), "mean")
        with pytest.raises(LabelFixError):
            make_thresholds(np.zeros((2, 2)), np.ones((3, 2)), "mean")


@st.composite
def scored_labels(draw):
    """N x C teacher scores in [0, 1], some tied, and 0/1 labels with classes
    holding no, some or only positives, in C, Fortran and strided layouts."""
    n = draw(st.integers(1, 40))
    c = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = rng.random((n, c))
    if draw(st.booleans()):
        scores = np.round(scores, 1)
    rates = np.array([draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])) for _ in range(c)])
    labels = (rng.random((n, c)) < rates).astype(draw(st.sampled_from([np.uint8, np.int64, bool])))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        scores = np.asfortranarray(scores)
    elif layout == "strided":
        wide = np.zeros((2 * n, 2 * c))
        wide[::2, ::2] = scores
        scores = wide[::2, ::2]
    return scores, labels


@given(scored_labels())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_thresholds_are_byte_equal_to_per_column_oracle(case):
    scores, labels = case
    for policy in POLICIES:
        got = make_thresholds(scores, labels, policy)
        assert got.tobytes() == thresholds(scores, labels, policy).tobytes()


class TestEnhance:
    def test_empty_ontology_is_identity(self):
        rng = np.random.default_rng(2)
        labels = (rng.random((10, 4)) < 0.4).astype(np.uint8)
        labels[:, 0] = 1
        scores = rng.random((10, 4))
        t = np.full(4, 0.5)
        out, audit = enhance(labels, scores, Ontology.from_edges(4, []), t)
        assert np.array_equal(out, labels)
        assert audit.labels_added == 0

    def test_forced_child_addition(self):
        # speech -> male_speech; sample labeled speech, teacher confident on child
        onto = Ontology.from_edges(2, [(0, 1)])
        labels = np.array([[1, 0]], dtype=np.uint8)
        scores = np.array([[0.8, 0.9]])
        t = np.array([0.5, 0.5])
        out, audit = enhance(labels, scores, onto, t, mode="type1")
        assert out.tolist() == [[1, 1]]
        assert audit.labels_added == 1
        assert audit.impacted_classes == [1]

    def test_strict_inequality_at_threshold(self):
        onto = Ontology.from_edges(2, [(0, 1)])
        labels = np.array([[1, 0]], dtype=np.uint8)
        scores = np.array([[0.8, 0.5]])
        t = np.array([0.5, 0.5])
        out, _ = enhance(labels, scores, onto, t, mode="type1")
        assert out.tolist() == [[1, 0]]  # score == threshold does not add

    def test_mode_directions(self):
        onto = Ontology.from_edges(2, [(0, 1)])
        t = np.array([0.5, 0.5])
        scores = np.array([[0.9, 0.9]])
        child_only = np.array([[0, 1]], dtype=np.uint8)
        parent_only = np.array([[1, 0]], dtype=np.uint8)
        # type1 adds children of present labels, not parents
        out, _ = enhance(child_only, scores, onto, t, mode="type1")
        assert out.tolist() == [[0, 1]]
        out, _ = enhance(parent_only, scores, onto, t, mode="type1")
        assert out.tolist() == [[1, 1]]
        # type2 adds parents only
        out, _ = enhance(child_only, scores, onto, t, mode="type2")
        assert out.tolist() == [[1, 1]]
        out, _ = enhance(parent_only, scores, onto, t, mode="type2")
        assert out.tolist() == [[1, 0]]

    def test_single_pass_uses_original_labels_only(self):
        # chain a -> b -> c: starting from {a}, only b is reachable in one pass
        onto = Ontology.from_edges(3, [(0, 1), (1, 2)])
        labels = np.array([[1, 0, 0]], dtype=np.uint8)
        scores = np.array([[0.9, 0.9, 0.9]])
        t = np.full(3, 0.1)
        out, _ = enhance(labels, scores, onto, t, mode="type1")
        assert out.tolist() == [[1, 1, 0]]

    def test_planted_error_recovery(self):
        onto, truth, corrupted, scores = planted_error_benchmark(seed=3)
        t = np.full(8, 0.5)
        out, audit = enhance(corrupted, scores, onto, t, mode="both")
        assert np.array_equal(out, truth)
        deleted = int((truth & ~corrupted).sum())
        assert audit.labels_added == deleted
        assert deleted > 0

    def test_both_is_union_of_type1_and_type2(self):
        onto, truth, corrupted, scores = planted_error_benchmark(seed=4)
        t = np.full(8, 0.5)
        out1, _ = enhance(corrupted, scores, onto, t, mode="type1")
        out2, _ = enhance(corrupted, scores, onto, t, mode="type2")
        both, _ = enhance(corrupted, scores, onto, t, mode="both")
        assert np.array_equal(both, out1 | out2)

    def test_monotonicity_labels_only_added(self):
        onto, _, corrupted, scores = planted_error_benchmark(seed=5)
        rng = np.random.default_rng(5)
        t = rng.random(8)
        out, _ = enhance(corrupted, scores, onto, t, mode="both")
        assert np.all(out >= corrupted)

    def test_undefined_threshold_strict_vs_permissive(self):
        onto = Ontology.from_edges(2, [(0, 1)])
        labels = np.array([[1, 0]], dtype=np.uint8)
        scores = np.array([[0.9, 0.9]])
        t = np.array([0.5, np.nan])
        with pytest.raises(UndefinedThresholdError):
            enhance(labels, scores, onto, t, mode="type1", strict=True)
        out, audit = enhance(labels, scores, onto, t, mode="type1", strict=False)
        assert out.tolist() == [[1, 0]]
        assert audit.skipped_undefined == [1]

    def test_audit_percentages_and_csv(self, tmp_path):
        onto = Ontology.from_edges(2, [(0, 1)])
        labels = np.array([[1, 0], [1, 0], [1, 1], [1, 0]], dtype=np.uint8)
        scores = np.array([[0.9, 0.8], [0.9, 0.1], [0.9, 0.9], [0.9, 0.7]])
        t = np.array([0.5, 0.5])
        _, audit = enhance(labels, scores, onto, t, mode="type1")
        assert audit.labels_added == 2
        assert audit.added_pct == pytest.approx(100 * 2 / 5)
        _write_audit(tmp_path / "audit.csv", audit, ["parent", "child"])
        rows = (tmp_path / "audit.csv").read_text().splitlines()
        assert rows[0] == "class,labels_added,impacted"
        assert rows[2] == "child,2,1"

    @pytest.mark.parametrize("mode", ["type1", "both"])
    def test_child_with_256_labelled_parents_is_a_candidate(self, mode):
        # 256 labelled neighbours of one class: a uint8 count would wrap to 0.
        onto = Ontology.from_edges(257, [(k, 256) for k in range(256)])
        labels = np.zeros((2, 257), dtype=np.uint8)
        labels[0, :256] = 1
        neighbours = onto.edges.astype(np.uint8)
        assert (labels @ neighbours)[0, 256] == 0
        out, audit = enhance(labels, np.full((2, 257), 0.9), onto, np.full(257, 0.5), mode=mode)
        assert out[0].tolist() == [1] * 257 and out[1].tolist() == [0] * 257
        assert audit.labels_added == 1 and audit.impacted_classes == [256]

    def test_dimension_mismatch(self):
        onto = Ontology.from_edges(3, [])
        t = np.full(3, 0.5)
        with pytest.raises(LabelFixError):
            enhance(np.zeros((2, 4), dtype=np.uint8), np.zeros((2, 4)), onto, t)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(10))
def test_enhance_matches_per_sample_oracle_on_random_dags(seed, mode):
    rng = np.random.default_rng(seed)
    c = int(rng.integers(2, 12))
    pos = rng.permutation(c)  # topological position of each class
    draws = rng.integers(0, c, size=(int(rng.integers(0, 3 * c)), 2)).tolist()
    pairs = [(a, b) if pos[a] < pos[b] else (b, a) for a, b in draws if a != b]
    onto = Ontology.from_edges(c, pairs)
    labels = (rng.random((30, c)) < 0.3).astype(np.uint8)
    scores = np.round(rng.random((30, c)), 1)  # ties with the thresholds test the strict >
    t = np.round(rng.random(c), 1)
    t[rng.random(c) < rng.choice([0.0, 0.3])] = np.nan
    want, undefined = enhanced(labels, scores, pairs, t, mode)

    if undefined:
        with pytest.raises(UndefinedThresholdError):
            enhance(labels, scores, onto, t, mode=mode, strict=True)
    else:
        out, _ = enhance(labels, scores, onto, t, mode=mode, strict=True)
        assert np.array_equal(out, want)
    out, audit = enhance(labels, scores, onto, t, mode=mode, strict=False)
    assert out.dtype == np.uint8 and np.array_equal(out, want)
    assert audit.skipped_undefined == undefined
    assert audit.per_class_added.tolist() == (want - labels).sum(axis=0).tolist()
    assert audit.labels_added == int((want - labels).sum())


class TestEnhanceEvalSet:
    def test_eval_split_is_repaired_by_enhance_itself(self):
        assert enhance_eval_set is enhance
        onto, truth, corrupted, scores = planted_error_benchmark(seed=6)
        t = np.full(8, 0.5)
        train_out, train_audit = enhance(corrupted, scores, onto, t, mode="both")
        eval_out, eval_audit = enhance_eval_set(corrupted, scores, onto, t, mode="both")
        assert np.array_equal(train_out, eval_out)
        assert train_audit.labels_added == eval_audit.labels_added > 0
        assert train_audit.original_bits == eval_audit.original_bits
        assert train_audit.per_class_added.tolist() == eval_audit.per_class_added.tolist()
        assert train_audit.skipped_undefined == eval_audit.skipped_undefined
