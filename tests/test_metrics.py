"""Metric correctness against independent brute-force oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import per_class_metrics
from tagkit.metrics import (
    MetricError,
    UndefinedMetricError,
    average_precision,
    correlate,
    d_prime,
    evaluate,
    inv_norm_cdf,
    roc_auc,
)


def ap_oracle(scores, labels):
    """Definition-level AP: stable descending sort, rescan precision at each positive."""
    idx = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    npos = sum(labels)
    total = 0.0
    for rank, i in enumerate(idx, start=1):
        if labels[i]:
            hits = sum(1 for j in idx[:rank] if labels[j])
            total += hits / rank
    return total / npos


def auc_oracle(scores, labels):
    """Exhaustive positive/negative pair counting; ties count one half."""
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


class TestAveragePrecision:
    def test_perfect_ranking(self):
        scores = np.array([0.9, 0.8, 0.7, 0.2, 0.1])
        labels = np.array([1, 1, 1, 0, 0])
        assert average_precision(scores, labels) == 1.0

    def test_single_positive_ranked_second(self):
        scores = np.array([0.9, 0.8, 0.3, 0.1])
        labels = np.array([0, 1, 0, 0])
        assert average_precision(scores, labels) == 0.5

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            scores = rng.random(50)
            labels = (rng.random(50) < 0.3).astype(int)
            if labels.sum() == 0:
                labels[0] = 1
            got = average_precision(scores, labels)
            want = ap_oracle(scores.tolist(), labels.tolist())
            assert got == pytest.approx(want, abs=1e-12)

    def test_tied_scores_follow_stable_input_order(self):
        # All scores equal: ranks follow input order exactly.
        scores = np.zeros(4)
        labels = np.array([1, 0, 1, 0])
        assert average_precision(scores, labels) == ap_oracle([0, 0, 0, 0], [1, 0, 1, 0])

    def test_zero_positives_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            average_precision(np.array([0.5, 0.4]), np.array([0, 0]))

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(3)
        scores = rng.random(40)
        labels = (rng.random(40) < 0.4).astype(int)
        labels[0] = 1
        before = average_precision(scores, labels)
        after = average_precision(np.exp(3 * scores) + 7, labels)
        assert before == pytest.approx(after, abs=1e-12)


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc(np.array([0.9, 0.8, 0.1]), np.array([1, 1, 0])) == 1.0

    def test_all_ties_is_half(self):
        assert roc_auc(np.zeros(6), np.array([1, 0, 1, 0, 0, 1])) == 0.5

    def test_matches_pair_counting_exactly(self):
        rng = np.random.default_rng(4)
        for trial in range(100):
            scores = rng.random(50)
            if trial % 3 == 0:  # force ties
                scores = np.round(scores, 1)
            labels = (rng.random(50) < 0.4).astype(int)
            if labels.sum() == 0:
                labels[0] = 1
            if labels.sum() == 50:
                labels[-1] = 0
            assert roc_auc(scores, labels) == auc_oracle(scores.tolist(), labels.tolist())

    def test_complement_identity_without_ties(self):
        rng = np.random.default_rng(5)
        scores = rng.random(30)
        labels = (rng.random(30) < 0.5).astype(int)
        labels[0], labels[1] = 1, 0
        assert roc_auc(scores, labels) + roc_auc(-scores, labels) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            roc_auc(np.array([0.4, 0.2]), np.array([1, 1]))


class TestDPrime:
    def test_half_maps_to_zero(self):
        assert d_prime(0.5) == 0.0

    def test_published_pair_high(self):
        assert d_prime(0.9753) == pytest.approx(2.778, abs=0.002)

    def test_published_pair_low(self):
        assert d_prime(0.973) == pytest.approx(2.725, abs=0.002)

    def test_antisymmetry_and_monotonicity(self):
        grid = np.linspace(0.01, 0.99, 99)
        vals = [d_prime(a) for a in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        for a in (0.6, 0.91, 0.997):
            assert d_prime(1 - a) == pytest.approx(-d_prime(a), abs=1e-12)

    def test_out_of_range_rejected(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(MetricError):
                d_prime(bad)

    def test_inverse_cdf_precision(self):
        # Check against the exact CDF: |Phi(ppf(p)) - p| must stay below 1e-9.
        ps = np.concatenate([
            np.geomspace(1e-12, 0.4, 200),
            np.linspace(0.4, 0.6, 50),
            1 - np.geomspace(1e-12, 0.4, 200),
        ])
        for p in ps:
            x = inv_norm_cdf(float(p))
            back = 0.5 * math.erfc(-x / math.sqrt(2))
            assert abs(back - p) < 1e-9
        # The exact quantile at the double nearest 1 - 1e-12 (mpmath, 50 digits), to 17 digits.
        assert abs(inv_norm_cdf(1 - 1e-12) - 7.0344869100478352) < 1e-14


class TestEvaluate:
    def test_predictions_equal_labels(self):
        labels = np.array([[1, 0], [0, 1], [1, 1], [0, 0]])
        labels[3, 0] = 1  # keep both classes non-degenerate both ways
        report = evaluate(labels.astype(float), labels)
        assert report.map == 1.0
        assert report.mean_auc == 1.0
        assert math.isinf(report.dprime)

    def test_composes_per_class_oracles(self):
        rng = np.random.default_rng(6)
        preds = rng.random((30, 2))
        labels = (rng.random((30, 2)) < 0.5).astype(int)
        labels[0] = [1, 1]
        labels[1] = [0, 0]
        report = evaluate(preds, labels)
        want_ap = np.mean([ap_oracle(preds[:, k].tolist(), labels[:, k].tolist()) for k in range(2)])
        want_auc = np.mean([auc_oracle(preds[:, k].tolist(), labels[:, k].tolist()) for k in range(2)])
        assert report.map == pytest.approx(want_ap, abs=1e-12)
        assert report.mean_auc == pytest.approx(want_auc, abs=1e-12)
        assert report.num_eval == 30

    def test_degenerate_classes_excluded_with_count(self):
        preds = np.array([[0.9, 0.5, 0.1], [0.8, 0.5, 0.3], [0.1, 0.5, 0.9]])
        labels = np.array([[1, 0, 0], [1, 0, 1], [0, 0, 1]])  # class 1 has no positives
        report = evaluate(preds, labels)
        assert report.num_skipped_ap == 1
        assert math.isnan(report.per_class_ap[1])
        defined = [report.per_class_ap[0], report.per_class_ap[2]]
        assert report.map == pytest.approx(np.mean(defined), abs=1e-15)

    def test_all_degenerate_raises(self):
        with pytest.raises(MetricError):
            evaluate(np.array([[0.5], [0.4]]), np.array([[1], [1]]))

    def test_map_invariant_under_class_permutation(self):
        rng = np.random.default_rng(7)
        preds = rng.random((20, 5))
        labels = (rng.random((20, 5)) < 0.5).astype(int)
        labels[0] = 1
        labels[1] = 0
        perm = rng.permutation(5)
        a = evaluate(preds, labels).map
        b = evaluate(preds[:, perm], labels[:, perm]).map
        assert a == pytest.approx(b, abs=1e-15)

    def test_non_finite_predictions_rejected(self):
        # A NaN used to rank last for AP and first for AUC, giving AP 0.75 and AUC 1.0.
        preds = np.array([[0.9, 0.2], [np.nan, 0.8], [0.1, 0.3], [0.5, np.nan]])
        labels = np.array([[1, 0], [1, 1], [0, 0], [0, 1]])
        with pytest.raises(MetricError, match="not finite"):
            evaluate(preds, labels)
        for bad in (np.inf, -np.inf):
            with pytest.raises(MetricError, match="not finite"):
                evaluate(np.where(np.isnan(preds), bad, preds), labels)
        with pytest.raises(MetricError, match="not finite"):
            average_precision(preds[:, 0], labels[:, 0])
        with pytest.raises(MetricError, match="not finite"):
            roc_auc(preds[:, 0], labels[:, 0])

    def test_non_finite_inside_a_later_tile_is_counted(self):
        rng = np.random.default_rng(12)
        preds = rng.random((601, 300))
        labels = (rng.random((601, 300)) < 0.3).astype(np.uint8)
        cells = [(300, 280), (520, 270), (400, 10)]
        for bad in ([np.nan], [np.inf], [-np.inf], [np.nan, np.inf, -np.inf]):
            p = preds.copy()
            for (i, k), value in zip(cells, bad):
                p[i, k] = value
            with pytest.raises(MetricError, match=f"^{len(bad)} predictions are not finite"):
                evaluate(p, labels)

    def test_empty_matrix_is_degenerate(self):
        for shape in ((0, 3), (4, 0)):
            with pytest.raises(MetricError):
                evaluate(np.zeros(shape), np.zeros(shape, dtype=np.uint8))

    def test_inputs_left_unchanged(self):
        rng = np.random.default_rng(10)
        preds = np.round(rng.random((40, 6)), 1)
        labels = (rng.random((40, 6)) < 0.4).astype(np.uint8)
        wide = np.zeros((80, 12))
        wide[::2, ::2] = preds
        for p in (preds, np.asfortranarray(preds), wide[::2, ::2], preds.astype(np.float32)):
            p_before, l_before = p.tobytes(), labels.tobytes()
            evaluate(p, labels)
            assert p.tobytes() == p_before
            assert labels.tobytes() == l_before

    def test_positives_inside_tie_groups_beside_untied_positives(self):
        # Column 0 ties 0.5 three times (negative first) and 0.3 twice, next to
        # untied positives at 0.9 and 0.7; column 1 has no ties at all.
        preds = np.array([[0.9, 0.1], [0.5, 0.8], [0.5, 0.6], [0.3, 0.2], [0.5, 0.4],
                          [0.1, 0.9], [0.7, 0.3], [0.3, 0.7]])
        labels = np.array([[1, 0], [0, 1], [1, 0], [0, 1], [1, 1], [0, 0], [1, 1], [1, 0]])
        report = evaluate(preds, labels)
        want_ap, want_auc = per_class_metrics(preds, labels)
        assert report.per_class_ap.tobytes() == want_ap.tobytes()
        assert report.per_class_auc.tobytes() == want_auc.tobytes()
        for k in range(2):
            column, hits = preds[:, k].tolist(), labels[:, k].tolist()
            assert report.per_class_ap[k] == pytest.approx(ap_oracle(column, hits), abs=1e-15)
            assert report.per_class_auc[k] == auc_oracle(column, hits)

    def test_peak_memory_below_two_prediction_copies(self):
        # A (C, N) int64 rank permutation beside the sorted copy would need more than 2x.
        rng = np.random.default_rng(11)
        preds = rng.random((2500, 527))
        labels = (rng.random((2500, 527)) < 0.02).astype(np.uint8)
        tracemalloc.start()
        try:
            evaluate(preds, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * preds.nbytes

    def test_last_5_epoch_headline_is_mean_of_reports(self):
        # The headline protocol averages per-epoch mAPs; verify the arithmetic.
        maps = [0.21, 0.25, 0.24, 0.28, 0.3, 0.29, 0.31]
        assert np.mean(maps[-5:]) == pytest.approx(0.284, abs=1e-12)


class TestCorrelate:
    def test_self_correlation(self):
        x = np.array([0.1, 0.5, 0.3, 0.9])
        assert correlate(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_anti_correlation(self):
        x = np.array([0.1, 0.5, 0.3, 0.9])
        assert correlate(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_textbook_formula(self):
        rng = np.random.default_rng(8)
        x, y = rng.random(20), rng.random(20)
        n = 20
        sx, sy = sum(x), sum(y)
        sxy = sum(a * b for a, b in zip(x, y))
        sxx = sum(a * a for a in x)
        syy = sum(b * b for b in y)
        want = (n * sxy - sx * sy) / math.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))
        assert correlate(x, y) == pytest.approx(want, abs=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(MetricError):
            correlate(np.ones(5), np.arange(5.0))

    def test_too_few_classes_rejected(self):
        with pytest.raises(MetricError):
            correlate(np.array([1.0, 2.0]), np.array([2.0, 1.0]))


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=4, max_size=60),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_auc_rank_statistic_matches_pairs_for_any_scores(raw_scores, label_seed):
    scores = np.asarray(raw_scores)
    rng = np.random.default_rng(label_seed)
    labels = (rng.random(len(scores)) < 0.5).astype(int)
    labels[0], labels[1] = 1, 0
    assert roc_auc(scores, labels) == auc_oracle(scores.tolist(), labels.tolist())


@st.composite
def scored_matrices(draw):
    """N x C scores and 0/1 labels mixing tie-free, tied and signed-zero columns,
    classes with no, some or only positives, float32 and non-contiguous layouts."""
    n = draw(st.integers(1, 40))
    c = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = rng.standard_normal((n, c))
    for k in range(c):
        decimals = draw(st.sampled_from([None, 1, 0]))
        if decimals is not None:
            scores[:, k] = np.round(scores[:, k], decimals)
        if draw(st.booleans()):  # some zeros become -0.0
            zero = scores[:, k] == 0.0
            scores[zero, k] = np.where(rng.random(zero.sum()) < 0.5, -0.0, 0.0)
    rates = np.array([draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])) for _ in range(c)])
    labels = (rng.random((n, c)) < rates).astype(draw(st.sampled_from([np.uint8, np.int64, bool])))
    if draw(st.booleans()):
        scores = scores.astype(np.float32)
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        scores = np.asfortranarray(scores)
    elif layout == "strided":  # every other row and column of a larger matrix
        wide = np.zeros((2 * n, 2 * c), dtype=scores.dtype)
        wide[::2, ::2] = scores
        scores = wide[::2, ::2]
    return scores, labels


@pytest.mark.parametrize(
    "shape, ties",
    [((601, 300), "some"), ((256, 257), "some"), ((601, 1), "some"), ((1, 300), "some"),
     ((601, 300), "all"), ((2500, 527), "rounded")],
    ids=["shape0", "shape1", "shape2", "shape3", "all_equal", "rounded_2500x527"],
)
def test_evaluate_is_byte_equal_to_per_column_oracle_across_tiles(shape, ties):
    rng = np.random.default_rng(13)
    scores = rng.standard_normal(shape)
    if ties == "some":
        scores[:, ::3] = np.round(scores[:, ::3], 1)  # tied columns beside tie-free ones
    elif ties == "all":
        scores[:] = 0.25  # every positive of a class in one tie group
    else:
        scores = np.round(rng.random(shape), 2)  # ~25 equal scores per value
    labels = (rng.random(shape) < rng.choice([0.0, 0.05, 0.5, 1.0], shape[1])).astype(np.uint8)
    want_ap, want_auc = per_class_metrics(scores, labels)
    if np.isnan(want_auc).all():
        with pytest.raises(MetricError, match="degenerate"):
            evaluate(scores, labels)
        return
    report = evaluate(scores, labels)
    assert report.per_class_ap.tobytes() == want_ap.tobytes()
    assert report.per_class_auc.tobytes() == want_auc.tobytes()


@given(scored_matrices())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_evaluate_is_byte_equal_to_per_column_oracle(case):
    scores, labels = case
    want_ap, want_auc = per_class_metrics(scores, labels)
    if np.isnan(want_ap).all() or np.isnan(want_auc).all():
        with pytest.raises(MetricError, match="degenerate"):
            evaluate(scores, labels)
        return
    report = evaluate(scores, labels)
    assert report.per_class_ap.tobytes() == want_ap.tobytes()
    assert report.per_class_auc.tobytes() == want_auc.tobytes()
