"""Masking and mixup math."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import MaskBoundsError, MaskParams, MixupShapeError, apply_mask, mixup


class TestApplyMask:
    def test_empty_mask_is_identity(self):
        x = np.random.default_rng(0).standard_normal((6, 4))
        out = apply_mask(x, MaskParams(0, 0, 0, 0))
        assert out.tobytes() == x.tobytes()

    def test_full_extent_saturation(self):
        x = np.random.default_rng(1).standard_normal((5, 3))
        out = apply_mask(x, MaskParams(0, 3, 0, 5), mask_value=-7.0)
        assert np.all(out == -7.0)

    def test_union_semantics_cell_count(self):
        # 4x4 ones, freq band len 2 at offset 1, time band len 1 at offset 0:
        # masked cells = f*time + t*freq - f*t = 2*4 + 1*4 - 2 = 10
        x = np.ones((4, 4))
        out = apply_mask(x, MaskParams(freq_off=1, freq_len=2, time_off=0, time_len=1))
        masked = int((out == 0).sum())
        want = sum(
            1
            for t in range(4)
            for f in range(4)
            if (1 <= f < 3) or (0 <= t < 1)  # union of the two bands
        )
        assert masked == want == 10

    def test_untouched_cells_bit_identical(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 6))
        out = apply_mask(x, MaskParams(2, 2, 3, 4), mask_value=0.0)
        keep = np.ones_like(x, dtype=bool)
        keep[:, 2:4] = False
        keep[3:7, :] = False
        assert np.array_equal(out[keep], x[keep])
        assert np.all(out[~keep] == 0.0)

    def test_idempotent(self):
        x = np.random.default_rng(3).standard_normal((8, 6))
        p = MaskParams(1, 3, 2, 4)
        once = apply_mask(x, p, 0.5)
        twice = apply_mask(once, p, 0.5)
        assert once.tobytes() == twice.tobytes()

    def test_bounds_violation(self):
        x = np.zeros((4, 4))
        with pytest.raises(MaskBoundsError):
            apply_mask(x, MaskParams(3, 2, 0, 0))
        with pytest.raises(MaskBoundsError):
            apply_mask(x, MaskParams(0, 0, 2, 3))
        with pytest.raises(MaskBoundsError):
            apply_mask(x, MaskParams(-1, 1, 0, 0))

    def test_input_not_mutated(self):
        x = np.ones((3, 3))
        apply_mask(x, MaskParams(0, 3, 0, 3))
        assert np.all(x == 1.0)


class TestMixup:
    def test_lambda_one_is_identity(self):
        rng = np.random.default_rng(4)
        xi, xj = rng.standard_normal((2, 5, 3))
        yi, yj = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        x, y = mixup(xi, yi, xj, yj, 1.0)
        assert np.array_equal(x, xi)
        assert np.array_equal(y, yi)

    def test_midpoint(self):
        xi, xj = np.full((2, 2), 2.0), np.zeros((2, 2))
        x, y = mixup(xi, np.array([1.0, 0.0]), xj, np.array([0.0, 1.0]), 0.5)
        assert np.all(x == 1.0)
        assert np.array_equal(y, [0.5, 0.5])

    def test_coordinatewise_oracle(self):
        rng = np.random.default_rng(5)
        xi, xj = rng.standard_normal((2, 4, 3))
        yi = rng.random(6)
        yj = rng.random(6)
        x, y = mixup(xi, yi, xj, yj, 0.3)
        for idx in np.ndindex(4, 3):
            assert x[idx] == pytest.approx(0.3 * xi[idx] + 0.7 * xj[idx], abs=1e-12)
        for k in range(6):
            assert y[k] == pytest.approx(0.3 * yi[k] + 0.7 * yj[k], abs=1e-12)

    def test_swap_symmetry_exact_for_dyadic_lambda(self):
        rng = np.random.default_rng(6)
        xi, xj = rng.standard_normal((2, 3, 3))
        yi, yj = rng.random(4), rng.random(4)
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            x1, y1 = mixup(xi, yi, xj, yj, lam)
            x2, y2 = mixup(xj, yj, xi, yi, 1.0 - lam)
            assert np.array_equal(x1, x2)
            assert np.array_equal(y1, y2)

    def test_one_dimensional_signals(self):
        sig_a, sig_b = np.arange(8.0), np.ones(8)
        x, y = mixup(sig_a, np.array([1, 0]), sig_b, np.array([0, 1]), 0.5)
        assert x.shape == (8,)
        assert np.allclose(x, 0.5 * sig_a + 0.5)

    def test_shape_mismatch(self):
        with pytest.raises(MixupShapeError):
            mixup(np.zeros((2, 2)), np.zeros(2), np.zeros((3, 2)), np.zeros(2), 0.5)
        with pytest.raises(MixupShapeError):
            mixup(np.zeros((2, 2)), np.zeros(2), np.zeros((2, 2)), np.zeros(3), 0.5)

    def test_lambda_out_of_range(self):
        with pytest.raises(ValueError):
            mixup(np.zeros(2), np.zeros(1), np.zeros(2), np.zeros(1), 1.5)


@given(
    lam=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_mixed_labels_stay_bounded(lam, seed):
    rng = np.random.default_rng(seed)
    yi = (rng.random(7) < 0.5).astype(float)
    yj = (rng.random(7) < 0.5).astype(float)
    _, y = mixup(rng.standard_normal(3), yi, rng.standard_normal(3), yj, lam)
    assert np.all(y >= 0.0) and np.all(y <= 1.0)
    assert y.sum() <= yi.sum() + yj.sum() + 1e-12
    # swap symmetry to float tolerance for arbitrary lambda
    xa = rng.standard_normal(4)
    xb = rng.standard_normal(4)
    f1, g1 = mixup(xa, yi, xb, yj, lam)
    f2, g2 = mixup(xb, yj, xa, yi, 1.0 - lam)
    assert np.allclose(f1, f2, atol=1e-15)
    assert np.allclose(g1, g2, atol=1e-15)
