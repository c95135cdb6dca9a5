import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balltrack import autodiff as ad
from balltrack.heatmaps import (
    EPS,
    RowBands,
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


def _full_map_centroid(weights):
    ii, jj = np.mgrid[0:weights.shape[-2], 0:weights.shape[-1]].astype(float)
    total = ad.asum(weights, axis=(-2, -1)) + EPS
    return ad.asum(weights * jj, axis=(-2, -1)) / total, ad.asum(weights * ii, axis=(-2, -1)) / total


def _full_map_reference(op, hm):
    """The operators' definitions over the whole grid: a mask for the
    coarse-to-fine window and full-map kernel weights for pass two."""
    hm = ad.relu(hm)
    ii, jj = np.mgrid[0:hm.shape[-2], 0:hm.shape[-1]].astype(float)
    if op is bilinear_expectation:
        return ad.stack(_full_map_centroid(hm))
    if op is coarse_to_fine_expectation:
        peak = hard_argmax(hm)[..., None, None, :]
        inside = (np.abs(ii - peak[..., 1]) <= 3) & (np.abs(jj - peak[..., 0]) <= 3)
        return ad.stack(_full_map_centroid(ad.where(inside, hm, 0.0)))
    xbar, ybar = _full_map_centroid(hm)
    dx, dy = jj - xbar[..., None, None], ii - ybar[..., None, None]
    if op is biquadratic_expectation:
        w = ad.relu(1.0 - (dx * dx + dy * dy) / 4.0)
    else:
        w = ad.relu(1.0 - ad.absolute(dx) ** 3 / 8.0) * ad.relu(1.0 - ad.absolute(dy) ** 3 / 8.0)
    return ad.stack(_full_map_centroid(w * hm))


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

    @pytest.fixture(scope="class")
    def integer_centroids(self):
        # heavy maps whose first centroid is exactly an integer, so pass two's
        # kernel is exactly zero on the block edge at distance 2; EPS is then
        # far below the sums' rounding
        maps = np.zeros((4, 24, 24))
        maps[0, 9, 5] = maps[0, 9, 9] = 1e9           # x = 7; mass at d = +-2 only
        maps[1, 12, 12] = 1e9                          # a delta
        maps[1, 10, 11] = maps[1, 14, 13] = 5e8        # y = 12 +- 2
        maps[2, 0, 0] = 1e9                            # corner: block runs off two edges
        maps[3, 21:24, 21:24] = 1e9                    # 3x3 plateau in the far corner
        first = bilinear_expectation(maps)
        assert np.array_equal(first, np.round(first))
        return maps

    @pytest.mark.parametrize("op", OPS, ids=lambda f: f.__name__)
    def test_matches_the_full_map_definition(self, stack, integer_centroids, op):
        maps = np.concatenate([stack, integer_centroids])
        xy = op(maps)
        assert np.max(np.abs(xy - _full_map_reference(op, maps))) <= 1e-12
        assert xy[~maps.any(axis=(-2, -1))].tolist() == [[0.0, 0.0]]  # the empty map

    @pytest.mark.parametrize("op", OPS, ids=lambda f: f.__name__)
    def test_dual_matches_the_full_map_definition(self, stack, integer_centroids, op):
        # unit-scale maps and one unit-norm direction per map keep the tangents O(1)
        maps = np.concatenate([stack, integer_centroids / 1e9])
        direction = RandomStream.from_seed(9, "hm-tangent").random(maps.size).reshape(maps.shape)
        direction /= np.sqrt(np.sum(direction * direction, axis=(-2, -1), keepdims=True))
        got, want = op(ad.Dual(maps, direction)), _full_map_reference(op, ad.Dual(maps, direction))
        assert np.max(np.abs(got.value - want.value)) <= 1e-12
        assert np.max(np.abs(got.tangent - want.tangent)) <= 1e-12

    @pytest.mark.parametrize("op", OPS, ids=lambda f: f.__name__)
    def test_peak_memory_of_a_tracking_stack(self, op):
        # a (40, 224, 224) stack, as one sequence gives at full resolution
        rng = RandomStream.from_seed(10, "hm-memory")
        maps = np.array([_sampled_blob((rng.uniform(0, 223), rng.uniform(0, 223)), 224, 2.0)
                         for _ in range(40)])
        tracemalloc.start()
        try:
            op(maps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * maps.nbytes

    @pytest.mark.parametrize("op", OPS, ids=lambda f: f.__name__)
    def test_non_negative_stack_is_not_copied(self, op):
        # NCC and pooled maps are already rectified; only relu's (T, H, W) sign-bit
        # test is allocated, 1/8 of the float64 stack (measured peak 0.125x)
        rng = RandomStream.from_seed(11, "hm-memory")
        maps = np.array([_sampled_blob((rng.uniform(0, 223), rng.uniform(0, 223)), 224, 2.0)
                         for _ in range(40)])
        tracemalloc.start()
        try:
            op(maps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * maps.nbytes

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
        # the border; the operator masks the off-map pixels of a full 7x7
        # block instead, which only reorders sums
        xs, ys = coarse_to_fine_expectation(stack).T
        for k, hm in enumerate(np.maximum(stack, 0.0)):
            xc, yc = hard_argmax(hm)
            i0, j0 = max(0, yc - 3), max(0, xc - 3)
            patch = hm[i0:yc + 4, j0:xc + 4]
            ii, jj = np.mgrid[i0:i0 + patch.shape[0], j0:j0 + patch.shape[1]]
            total = patch.sum() + 1e-8
            assert abs(xs[k] - (patch * jj).sum() / total) <= 1e-12
            assert abs(ys[k] - (patch * ii).sum() / total) <= 1e-12


@st.composite
def _banded_maps(draw):
    """(K, H, W) non-negative maps, each zero outside its ``[start, stop)`` row
    band (empty, full-height and bands at row 0 and row H-1 included), with
    values on a coarse grid so peaks tie, and a tangent direction."""
    h, w, k = draw(st.sampled_from([4, 8, 12, 24])), draw(st.integers(4, 24)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.05, 0.5, 1.0]))
    maps = np.round(4 * rng.random((k, h, w))) / 4 * (rng.random((k, h, w)) < density)
    rows = []
    for m in maps:
        start = draw(st.integers(0, h))
        stop = draw(st.integers(start, h))
        m[:start] = m[stop:] = 0.0
        rows.append((start, stop))
    return maps, np.array(rows), rng.normal(size=maps.shape)


def _row_bands(maps, rows):
    """``maps`` as the :class:`RowBands` of their ``[start, stop)`` row bands:
    windows of the tallest band's height, at least 1, moved up where they
    would run off the bottom."""
    *lead, h, _ = np.shape(ad.value(maps))
    height = int(np.max(rows[..., 1] - rows[..., 0], initial=1))
    first = np.minimum(rows[..., 0], h - height)
    batch = tuple(ix[..., None] for ix in np.indices(lead, sparse=True))
    return RowBands(maps[(*batch, first[..., None] + np.arange(height))], first, h)


class TestBands:
    """Operators that read only each map's row window keep the whole map's bits."""

    @settings(max_examples=150, deadline=None)
    @given(case=_banded_maps())
    def test_banded_operators_keep_the_bits(self, case):
        maps, rows, direction = case
        bands, one = _row_bands(maps, rows), _row_bands(maps[0], rows[0])
        assert bands.dense().tobytes() == maps.tobytes() and one.dense().tobytes() == maps[0].tobytes()
        assert hard_argmax(bands).tolist() == hard_argmax(maps).tolist()
        assert hard_argmax(one).tolist() == hard_argmax(maps[0]).tolist()
        dual = ad.Dual(maps, direction)
        for op in OPS:
            assert op(bands).tobytes() == op(maps).tobytes(), op.__name__
            assert op(one).tobytes() == op(maps[0]).tobytes(), op.__name__
            got, want = op(_row_bands(dual, rows)), op(dual)
            assert got.value.tobytes() == want.value.tobytes(), op.__name__
            assert got.tangent.tobytes() == want.tangent.tobytes(), op.__name__
