import numpy as np
import pytest

from balltrack.heatmaps import (
    bicubic_expectation,
    bilinear_expectation,
    biquadratic_expectation,
    coarse_to_fine_expectation,
    default_target_sigma,
    gaussian_target,
    hard_argmax,
)
from balltrack.rng import RandomStream


def _sampled_blob(center, size, sigma):
    return gaussian_target(center, size, sigma)


class TestGaussianTarget:
    def test_unit_peak_at_integer_center(self):
        hm = gaussian_target((10, 20), 56, 2.0)
        assert hm[20, 10] == 1.0

    def test_value_at_one_sigma(self):
        sigma = 2.0
        hm = gaussian_target((10, 20), 56, sigma)
        assert hm[20, 12] == pytest.approx(np.exp(-0.5))
        assert hm[22, 10] == pytest.approx(np.exp(-0.5))

    def test_rotational_symmetry_at_integer_center(self):
        hm = gaussian_target((28, 28), 57, 3.0)
        assert np.allclose(hm, np.rot90(hm))

    def test_default_sigma_scales_with_grid(self):
        assert default_target_sigma(224) == 2.0
        assert default_target_sigma(112) == 1.0
        assert default_target_sigma(56) == 0.5


class TestHardArgmax:
    def test_flat_index_formula(self):
        hm = np.zeros((3, 4))
        hm[1, 1] = 5.0  # flattened index 5, width 4
        assert hard_argmax(hm).tolist() == [1, 1]

    def test_all_equal_ties_to_first(self):
        assert hard_argmax(np.ones((7, 7))).tolist() == [0, 0]

    def test_peak_of_gaussian_target(self):
        hm = gaussian_target((10, 20), 56, 2.0)
        assert hard_argmax(hm).tolist() == [10, 20]


class TestBilinear:
    def test_single_pixel_delta(self):
        hm = np.zeros((9, 9))
        hm[4, 6] = 3.0
        assert bilinear_expectation(hm) == pytest.approx((6.0, 4.0))

    def test_two_equal_pixels_average(self):
        hm = np.zeros((5, 5))
        hm[2, 1] = hm[2, 3] = 1.0
        x, y = bilinear_expectation(hm)
        assert (x, y) == pytest.approx((2.0, 2.0))

    def test_all_zero_heatmap_regularized_to_origin(self):
        x, y = bilinear_expectation(np.zeros((8, 8)))
        assert (x, y) == (0.0, 0.0)

    def test_negative_values_suppressed(self):
        hm = np.zeros((5, 5))
        hm[2, 2] = 1.0
        hm[0, 4] = -50.0  # must not drag the centroid
        assert bilinear_expectation(hm) == pytest.approx((2.0, 2.0))

    def test_sampled_blob_accuracy(self):
        rng = RandomStream.from_seed(42, "blob-acc")
        errs = []
        for _ in range(200):
            cx = rng.uniform(6, 49)
            cy = rng.uniform(6, 49)
            x, y = bilinear_expectation(_sampled_blob((cx, cy), 56, 2.0))
            errs.append(np.hypot(x - cx, y - cy))
        assert np.mean(errs) < 0.05


class TestCoarseToFine:
    def test_matches_bilinear_on_clean_blob(self):
        # at the operator's home scale the target blob is narrow enough for
        # the radius-3 window to hold essentially all of its mass
        sigma = default_target_sigma(56)
        rng = RandomStream.from_seed(42, "c2f")
        for _ in range(25):
            c = (rng.uniform(8, 47), rng.uniform(8, 47))
            hm = _sampled_blob(c, 56, sigma)
            bx, by = bilinear_expectation(hm)
            cx, cy = coarse_to_fine_expectation(hm)
            assert abs(bx - cx) < 1e-3 and abs(by - cy) < 1e-3

    def test_robust_to_clutter_blob(self):
        true = (14.4, 17.6)
        hm = _sampled_blob(true, 56, 2.0) + 0.5 * _sampled_blob((44.2, 40.7), 56, 2.0)
        bx, by = bilinear_expectation(hm)
        cx, cy = coarse_to_fine_expectation(hm)
        err_b = np.hypot(bx - true[0], by - true[1])
        err_c = np.hypot(cx - true[0], cy - true[1])
        assert err_c < err_b
        assert err_c < 0.3

    def test_corner_peak_window_clipped(self):
        hm = np.zeros((56, 56))
        hm[0, 0] = 1.0
        hm[0, 1] = 0.5
        x, y = coarse_to_fine_expectation(hm)
        assert 0 <= x <= 55 and 0 <= y <= 55
        assert x == pytest.approx(1 / 3)


class TestBiquadratic:
    def test_kernel_zero_at_squared_distance_four(self):
        assert max(1 - 4.0 / 4.0, 0) == 0.0
        assert max(1 - 5.0 / 4.0, 0) == 0.0
        assert max(1 - 1.0 / 4.0, 0) == pytest.approx(0.75)

    def test_matches_brute_force_two_pass(self):
        # independent oracle: recompute both passes directly from the formula
        rng = RandomStream.from_seed(3, "biq-oracle")
        hm = np.maximum(rng.random(15 * 15).reshape(15, 15) - 0.3, 0)
        hm[7, 9] += 4.0
        ii, jj = np.mgrid[0:15, 0:15].astype(float)
        m = hm.sum() + 1e-8
        xbar, ybar = (hm * jj).sum() / m, (hm * ii).sum() / m
        w = np.maximum(1 - ((jj - xbar) ** 2 + (ii - ybar) ** 2) / 4.0, 0)
        wm = (w * hm).sum() + 1e-8
        expected = ((w * hm * jj).sum() / wm, (w * hm * ii).sum() / wm)
        assert biquadratic_expectation(hm) == pytest.approx(expected, abs=1e-12)

    def test_delta_is_fixed_point(self):
        hm = np.zeros((11, 11))
        hm[3, 7] = 2.0
        assert biquadratic_expectation(hm) == pytest.approx((7.0, 3.0))

    def test_far_field_floor_hurts_bilinear_more(self):
        true = (12.35, 10.7)
        hm = _sampled_blob(true, 41, 2.0)
        hm += 0.002  # uniform far-field floor
        bx, by = bilinear_expectation(hm)
        qx, qy = biquadratic_expectation(hm)
        err_b = np.hypot(bx - true[0], by - true[1])
        err_q = np.hypot(qx - true[0], qy - true[1])
        assert err_q < err_b


class TestBicubic:
    def test_kernel_values(self):
        # separable cubic: zero at |d| = 2, 7/8 at |d| = 1
        assert max(1 - abs(2.0) ** 3 / 8, 0) == 0.0
        assert max(1 - abs(1.0) ** 3 / 8, 0) == pytest.approx(7 / 8)

    def test_matches_brute_force_two_pass(self):
        rng = RandomStream.from_seed(4, "bic-oracle")
        hm = np.maximum(rng.random(15 * 15).reshape(15, 15) - 0.3, 0)
        hm[5, 6] += 4.0
        ii, jj = np.mgrid[0:15, 0:15].astype(float)
        m = hm.sum() + 1e-8
        xbar, ybar = (hm * jj).sum() / m, (hm * ii).sum() / m
        w = np.maximum(1 - np.abs(jj - xbar) ** 3 / 8.0, 0) * np.maximum(
            1 - np.abs(ii - ybar) ** 3 / 8.0, 0
        )
        wm = (w * hm).sum() + 1e-8
        expected = ((w * hm * jj).sum() / wm, (w * hm * ii).sum() / wm)
        assert bicubic_expectation(hm) == pytest.approx(expected, abs=1e-12)

    def test_delta_is_fixed_point(self):
        hm = np.zeros((11, 11))
        hm[8, 2] = 1.0
        assert bicubic_expectation(hm) == pytest.approx((2.0, 8.0))


OPS = (
    bilinear_expectation,
    coarse_to_fine_expectation,
    biquadratic_expectation,
    bicubic_expectation,
)


@pytest.mark.parametrize("op", OPS, ids=lambda f: f.__name__)
def test_translation_equivariance(op):
    # heavy blob: the 1e-8 denominator regularizer then perturbs the
    # centroid well below the 1e-9 equivariance tolerance
    hm = 40.0 * _sampled_blob((20.3, 24.8), 64, 2.0)
    x0, y0 = op(hm)
    for dx, dy in ((3, 0), (0, 5), (-4, 7)):
        shifted = np.roll(np.roll(hm, dy, axis=0), dx, axis=1)
        x1, y1 = op(shifted)
        assert x1 - x0 == pytest.approx(dx, abs=1e-9)
        assert y1 - y0 == pytest.approx(dy, abs=1e-9)


@pytest.mark.parametrize("op", OPS, ids=lambda f: f.__name__)
def test_outputs_within_grid_bounds(op):
    rng = RandomStream.from_seed(1, "bounds")
    for _ in range(20):
        hm = rng.random(31 * 31).reshape(31, 31) - 0.4
        x, y = op(hm)
        assert 0 <= x <= 30 and 0 <= y <= 30


class TestStacks:
    """A (K, H, W) stack must give what K separate 2-D calls give."""

    @pytest.fixture(scope="class")
    def stack(self):
        # blobs anywhere, peaks on every border and corner, clutter, an empty map
        rng = RandomStream.from_seed(8, "hm-stack")
        maps = [_sampled_blob((rng.uniform(0, 23), rng.uniform(0, 23)), 24, 1.5)
                + 0.3 * rng.random(24 * 24).reshape(24, 24) - 0.1 for _ in range(12)]
        for cx, cy in ((0, 0), (23, 0), (0, 23), (23, 23), (11, 0), (0, 14), (23, 9), (5, 23)):
            maps.append(_sampled_blob((cx, cy), 24, 1.0))
        maps.append(np.zeros((24, 24)))
        return np.array(maps)

    @pytest.mark.parametrize("op", OPS, ids=lambda f: f.__name__)
    def test_landmarks_on_a_trailing_axis(self, stack, op):
        assert op(stack[0]).shape == (2,)
        assert op(stack).shape == (len(stack), 2)
        assert op(stack.reshape(3, 7, 24, 24)).shape == (3, 7, 2)

    @pytest.mark.parametrize("op", OPS, ids=lambda f: f.__name__)
    def test_stack_matches_single_maps_bitwise(self, stack, op):
        xy = op(stack)
        assert xy.shape == (len(stack), 2)
        for k, hm in enumerate(stack):
            assert xy[k].tolist() == op(hm).tolist()

    def test_hard_argmax_stack(self, stack):
        xy = hard_argmax(stack)
        assert [hard_argmax(hm).tolist() for hm in stack] == xy.tolist()
        assert hard_argmax(stack[0]).shape == (2,) and xy.shape == (len(stack), 2)
        assert hard_argmax(stack.reshape(3, 7, 24, 24)).shape == (3, 7, 2)

    def test_coarse_to_fine_matches_windowed_slice(self, stack):
        # reference: the centroid of the 7x7 slice around the argmax, cut at
        # the border; the operator masks instead, which only reorders sums
        xs, ys = coarse_to_fine_expectation(stack).T
        for k, hm in enumerate(np.maximum(stack, 0.0)):
            xc, yc = hard_argmax(hm)
            i0, j0 = max(0, yc - 3), max(0, xc - 3)
            patch = hm[i0:yc + 4, j0:xc + 4]
            ii, jj = np.mgrid[i0:i0 + patch.shape[0], j0:j0 + patch.shape[1]]
            total = patch.sum() + 1e-8
            assert abs(xs[k] - (patch * jj).sum() / total) <= 1e-12
            assert abs(ys[k] - (patch * ii).sum() / total) <= 1e-12
