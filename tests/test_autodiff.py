import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import balltrack.autodiff as ad
from balltrack.physics import physics_refine_window, to_frame_units, verlet_step_with_bounce
from balltrack.rng import RandomStream
from balltrack.selfcheck import branch_free, interior_probe_windows, _window_fn


@pytest.fixture(scope="module")
def params(cfg):
    return to_frame_units(cfg)


class TestDualArithmetic:
    def test_product_rule(self):
        a = ad.Dual(2.0, 1.0)
        b = ad.Dual(3.0, 0.5)
        out = a * b
        assert out.value == 6.0
        assert out.tangent == pytest.approx(1.0 * 3.0 + 2.0 * 0.5)

    def test_square_at_three(self):
        d = ad.Dual(3.0, 1.0)
        assert (d * d).tangent == pytest.approx(6.0)
        assert (d ** 2).tangent == pytest.approx(6.0)

    def test_division(self):
        x = ad.Dual(4.0, 1.0)
        out = 1.0 / x
        assert out.value == 0.25
        assert out.tangent == pytest.approx(-1.0 / 16.0)

    def test_abs_follows_sign(self):
        assert abs(ad.Dual(-2.0, 1.0)).tangent == -1.0
        assert abs(ad.Dual(2.0, 1.0)).tangent == 1.0

    def test_exp_log_sqrt(self):
        x = ad.Dual(2.0, 1.0)
        assert ad.exp(x).tangent == pytest.approx(np.exp(2.0))
        assert ad.log(x).tangent == pytest.approx(0.5)
        assert ad.sqrt(x).tangent == pytest.approx(0.5 / np.sqrt(2.0))

    def test_select_carries_chosen_tangent(self):
        a = ad.Dual(1.0, 2.0)
        b = ad.Dual(5.0, 7.0)
        assert ad.where(True, a, b).tangent == 2.0
        assert ad.where(False, a, b).tangent == 7.0

    def test_array_valued_dual(self):
        x = ad.Dual(np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.0, 0.0]))
        s = ad.asum(x * x)
        assert s.value == pytest.approx(14.0)
        assert s.tangent == pytest.approx(2.0)  # d/dx0 of sum(x^2)

    def test_ndarray_interop(self):
        arr = np.array([1.0, 2.0])
        d = ad.Dual(3.0, 1.0)
        out = arr - d
        assert np.allclose(out.value, [-2.0, -1.0])
        assert np.allclose(out.tangent, [-1.0, -1.0])


class TestJacobians:
    def test_forward_matches_fd_on_polynomial(self):
        def f(x):
            return ad.stack([x[..., 0] ** 2 + x[..., 1], x[..., 0] * x[..., 1]])

        x = np.array([3.0, 5.0])
        j_fwd = ad.jacobian_forward(f, x)
        j_fd = ad.jacobian_fd(f, x)
        assert np.allclose(j_fwd, [[6.0, 1.0], [5.0, 3.0]], atol=1e-12)
        assert np.max(np.abs(j_fwd - j_fd)) < 1e-7

    def test_init_velocity_constant_pattern(self, params):
        # d v0 / d landmarks is the fixed +-1 differencing stencil
        def f(x):
            win = physics_refine_window(x.reshape(*x.shape[:-1], 3, 2), params)
            return ad.stack([win.velocities_fu[..., 0, 0], win.velocities_fu[..., 0, 1]])

        x = np.array([100.0, 80.0, 104.0, 83.5, 108.0, 88.0])
        j = ad.jacobian_forward(f, x)
        # on the smooth branch v0 is recomputed from the endpoints:
        # vx0 = (x4 - x0)/2, vy0 = (y4 - y0)/2 - g
        expected = np.array([
            [-0.5, 0.0, 0.0, 0.0, 0.5, 0.0],
            [0.0, -0.5, 0.0, 0.0, 0.0, 0.5],
        ])
        assert np.allclose(j, expected, atol=1e-12)

    def test_verlet_dy_dvy_is_one(self, params):
        def f(z):
            p, v, _ = verlet_step_with_bounce(z[..., :2], z[..., 2:], params)
            return ad.stack([p, v], axis=-2).reshape(*z.shape[:-1], 4)

        x = np.array([100.0, 90.0, 2.0, 1.5])
        j = ad.jacobian_forward(f, x)
        assert j[1, 3] == pytest.approx(1.0)   # dy'/dvy
        assert j[0, 2] == pytest.approx(1.0)   # dx'/dvx
        assert j[3, 3] == pytest.approx(1.0)   # dvy'/dvy
        assert np.max(np.abs(j - ad.jacobian_fd(f, x))) < 1e-7

    def test_window_jacobian_on_probes(self, params):
        f = _window_fn(params)
        rng = RandomStream.from_seed(99, "jac-probes")
        for x in interior_probe_windows(params, 10, rng):
            err = ad.max_relative_error(ad.jacobian_fd(f, x), ad.jacobian_forward(f, x))
            assert err < 1e-4

    @settings(deadline=None, max_examples=50)
    @given(seed=st.integers(0, 2**63 - 1))
    def test_probes_sit_inside_one_branch(self, params, seed):
        # the probe contract, checked by the closed-form steps of a
        # bounce-free window rather than by the kernel that picks the probes
        lms = interior_probe_windows(params, 20, RandomStream.from_seed(seed, "probes")).reshape(-1, 3, 2)
        self._assert_inside_one_branch(lms, params)

    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 2**63 - 1), n=st.integers(1, 40))
    def test_probes_match_one_candidate_at_a_time(self, params, seed, n):
        # the reference: each candidate drawn on its own, start, velocity, then jitter
        rng = RandomStream.from_seed(seed, "probes")
        t = np.arange(3.0)[:, None]
        fall = np.array([0.0, 0.5 * params.g_frame]) * t * t
        want = []
        while len(want) < n:
            for _ in range(n - len(want)):
                p0 = rng.uniform(params.center_min + 25, params.center_max - 25, 2)
                v = rng.uniform(-6, 6, 2)
                x = p0 + v * t + fall + rng.uniform(-0.45, 0.45, 6).reshape(3, 2)
                if branch_free(x[None], params)[0]:
                    want.append(x)
        got = interior_probe_windows(params, n, RandomStream.from_seed(seed, "probes"))
        assert got.tobytes() == np.array(want).reshape(-1, 6).tobytes()

    @staticmethod
    def _assert_inside_one_branch(lms, params):
        assert not physics_refine_window(lms, params).bounce_flags.any()
        v0 = lms[:, 1] - lms[:, 0]
        g = np.array([0.0, params.g_frame])
        states = np.concatenate([lms, (lms[:, 0] + v0 + g / 2)[:, None],
                                 (lms[:, 0] + 2 * v0 + 2 * g)[:, None]], axis=1)
        assert np.all(states >= params.center_min + 1 - 1e-9)
        assert np.all(states <= params.center_max - 1 + 1e-9)

    @settings(deadline=None, max_examples=50)
    @given(seed=st.integers(0, 2**63 - 1))
    def test_branch_filter_rejects_windows_at_the_walls(self, params, seed):
        # jittered ballistic windows anywhere in the valid region, so some
        # start next to a wall or bounce; about 9 % of them are rejected, and
        # the 2 px jitter lets a few bounce with every state 1 px inside
        rng = np.random.default_rng(seed)
        t = np.arange(3.0)[:, None]
        p0 = rng.uniform(params.center_min, params.center_max, (256, 1, 2))
        lms = (p0 + rng.uniform(-6, 6, (256, 1, 2)) * t + np.array([0.0, 0.5 * params.g_frame]) * t * t
               + rng.uniform(-2, 2, (256, 3, 2)))
        keep = branch_free(lms, params)
        assert not keep.all()
        self._assert_inside_one_branch(lms[keep], params)

    def test_bounce_branch_jacobian(self, params):
        # a window that definitely bounces in the forward step, away from
        # branch borders: derivatives of the chosen (bounce) branch
        x = np.array([100.0, 210.0, 100.0, 217.0, 100.0, 212.0])
        f = _window_fn(params)
        win = physics_refine_window(x.reshape(3, 2), params)
        assert win.bounce_flags[1] or win.bounce_flags[2]
        err = ad.max_relative_error(ad.jacobian_fd(f, x), ad.jacobian_forward(f, x))
        assert err < 1e-4

    def test_fd_disagrees_across_branch_boundary(self, params):
        # with the stencil straddling the bounce boundary the central
        # difference mixes branches; forward mode follows the taken branch.
        # document the convention by exhibiting the disagreement.
        g = params.g_frame

        def f(z):
            p, _, _ = verlet_step_with_bounce(z[..., :2], z[..., 2:], params)
            return p

        y0 = params.center_max - 1.0
        vy = 1.0 - 0.5 * g + 1e-6  # raw lands a hair past the floor
        x = np.array([100.0, y0, 0.0, vy])
        j_fwd = ad.jacobian_forward(f, x)
        j_fd = ad.jacobian_fd(f, x, h=1e-4)
        assert np.max(np.abs(j_fwd - j_fd)) > 0.5


class TestBatchedJacobians:
    """One batched call must give what one call per column gives, bit for bit."""

    @staticmethod
    def _per_column(f, x, cols, h=1e-4):
        fwd, fd = [], []
        for j in cols:
            seed = np.zeros(x.size)
            seed[j] = 1.0
            fwd.append(f(ad.Dual(x.copy(), seed)).tangent)
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd.append((f(xp) - f(xm)) / (2.0 * h))
        return np.stack(fwd, axis=1), np.stack(fd, axis=1)

    def test_window_function(self, params):
        f = _window_fn(params)
        for x in interior_probe_windows(params, 5, RandomStream.from_seed(5, "batched-jac")):
            fwd, fd = self._per_column(f, x, range(6))
            assert ad.jacobian_forward(f, x).tobytes() == fwd.tobytes()
            assert ad.jacobian_fd(f, x).tobytes() == fd.tobytes()

    def test_operator_on_sampled_pixels(self):
        from balltrack.heatmaps import bicubic_expectation, coarse_to_fine_expectation, gaussian_target

        hm = gaussian_target((11.3, 12.6), 24, 2.0).ravel()
        cols = [300, 5, 277, 300, 301, 13]  # repeats and off-blob pixels too
        for op in (bicubic_expectation, coarse_to_fine_expectation):
            def g(flat, op=op):
                return op(flat.reshape(*flat.shape[:-1], 24, 24))

            fwd, fd = self._per_column(g, hm, cols)
            j_fwd = ad.jacobian_forward(g, hm, cols=cols)
            assert j_fwd.shape == (2, len(cols)) and j_fwd.tobytes() == fwd.tobytes()
            assert ad.jacobian_fd(g, hm, cols=cols).tobytes() == fd.tobytes()

    def test_probe_stack_matches_single_probes(self, params):
        f = _window_fn(params)
        x = interior_probe_windows(params, 5, RandomStream.from_seed(6, "batched-jac"))
        assert x.shape == (5, 6)
        j_fwd, j_fd = ad.jacobian_forward(f, x), ad.jacobian_fd(f, x)
        assert j_fwd.shape == j_fd.shape == (5, 12, 6)
        errors = ad.max_relative_error(j_fd, j_fwd)
        assert errors.shape == (5,)
        for p in range(5):
            assert j_fwd[p].tobytes() == ad.jacobian_forward(f, x[p]).tobytes()
            assert j_fd[p].tobytes() == ad.jacobian_fd(f, x[p]).tobytes()
            assert errors[p] == ad.max_relative_error(j_fd[p], j_fwd[p])

    def test_constant_output_has_zero_jacobian(self):
        def f(x):
            return np.ones((*x.shape[:-1], 2))

        assert np.array_equal(ad.jacobian_forward(f, np.arange(3.0)), np.zeros((2, 3)))


class TestImageLossGradients:
    """The reconstruction and heatmap losses are differentiable too; check
    forward mode against central differences on sampled pixels."""

    def _column_check(self, f, x, cols, tol=1e-4):
        j_fwd = ad.jacobian_forward(f, x, cols=cols)
        j_fd = ad.jacobian_fd(f, x, cols=cols)
        assert ad.max_relative_error(j_fd, j_fwd) < tol

    def test_bce_gradient(self, rng_np):
        from balltrack.losses import bce_reconstruction

        target = rng_np.uniform(size=(12, 12))
        logits = rng_np.normal(size=(12, 12))

        def f(flat):
            return ad.stack([bce_reconstruction(flat.reshape(*flat.shape[:-1], 12, 12), target)])

        cols = rng_np.integers(0, 144, 24)
        self._column_check(f, logits.ravel(), cols)

    def test_cone_gradient(self, rng_np):
        from balltrack.losses import cone_loss

        target = rng_np.uniform(size=(12, 12))
        recon = target + rng_np.normal(size=(12, 12))  # errors well off zero

        def f(flat):
            return ad.stack([cone_loss(flat.reshape(*flat.shape[:-1], 12, 12), target, (6, 6), 2.0)])

        cols = rng_np.integers(0, 144, 24)
        self._column_check(f, recon.ravel(), cols)

    def test_focal_gradient(self, rng_np):
        from balltrack.losses import focal_heatmap_loss

        target = np.zeros((12, 12))
        target[5, 7] = 1.0
        pred = rng_np.uniform(0.1, 0.9, size=(12, 12))  # inside the clamp

        def f(flat):
            return ad.stack([focal_heatmap_loss(flat.reshape(*flat.shape[:-1], 12, 12), target)])

        cols = rng_np.integers(0, 144, 24)
        self._column_check(f, pred.ravel(), cols)


class TestHelpers:
    def test_relu_kink_semantics(self):
        assert ad.relu(ad.Dual(0.0, 1.0)).tangent == 0.0  # value 0 not > 0
        assert ad.relu(ad.Dual(1e-12, 1.0)).tangent == 1.0

    def test_relu_returns_a_non_negative_array_itself(self):
        maps = np.array([[0.0, 2.5], [np.inf, 1e-300]])
        assert ad.relu(maps) is maps
        signed = np.array([[0.0, -0.0], [-1.0, 3.0]])
        out = ad.relu(signed)
        assert out is not signed and out.tobytes() == np.array([[0.0, 0.0], [0.0, 3.0]]).tobytes()
        assert ad.relu(np.array([0, 2])).dtype == np.float64  # integers still come out as floats

    def test_clip_zeroes_tangent_outside(self):
        assert ad.clip(ad.Dual(2.0, 1.0), 0.0, 1.0).tangent == 0.0
        assert ad.clip(ad.Dual(0.5, 1.0), 0.0, 1.0).tangent == 1.0

    def test_where_scalar_condition_returns_the_chosen_object(self):
        a, b = ad.Dual(1.0, 2.0), ad.Dual(3.0, 4.0)
        assert ad.where(True, a, b) is a
        assert ad.where(np.bool_(False), a, b) is b
        assert ad.where(np.float64(2.0) > 1.0, 5.0, 6.0) == 5.0

    def test_where_array_condition_selects_tangents(self):
        cond = np.array([True, False])
        out = ad.where(cond, ad.Dual(np.array([1.0, 2.0]), 1.0), np.array([7.0, 8.0]))
        assert np.array_equal(out.value, [1.0, 8.0])
        assert np.array_equal(out.tangent, [1.0, 0.0])

    def test_asum_matches_np_sum_bitwise(self, rng_np):
        x = rng_np.normal(size=(37, 53))
        assert ad.asum(x) == np.sum(x)
        d = ad.asum(ad.Dual(x, 2.0 * x))
        assert d.value == np.sum(x) and d.tangent == np.sum(2.0 * x)
        assert ad.asum(ad.Dual(x, 0.5)).tangent == 0.5 * x.size

    def test_stack_appends_an_axis_and_zero_tangents(self):
        a = ad.Dual(np.array([1.0, 2.0]), np.array([1.0, 0.0]))
        out = ad.stack([a, np.array([5.0, 6.0]), 2.0 * a])
        assert np.array_equal(out.value, [[1.0, 5.0, 2.0], [2.0, 6.0, 4.0]])
        assert np.array_equal(out.tangent, [[1.0, 0.0, 2.0], [0.0, 0.0, 0.0]])
        assert np.array_equal(ad.stack([1.0, np.float64(2.0)]), [1.0, 2.0])

    def test_asum_over_map_axes(self, rng_np):
        x = rng_np.normal(size=(4, 6, 7))
        d = ad.asum(ad.Dual(x, 2.0 * x), axis=(-2, -1))
        for k in range(4):
            assert d.value[k] == ad.asum(x[k]) and d.tangent[k] == ad.asum(2.0 * x[k])
        assert np.array_equal(ad.asum(ad.Dual(x, 0.5), axis=(-2, -1)).tangent, np.full(4, 0.5 * 42))
        assert np.array_equal(ad.amean(x, axis=(-2, -1)), [ad.amean(m) for m in x])

    def test_max_relative_error_scaling(self):
        a = np.array([[100.0, 0.1]])
        b = np.array([[101.0, 0.2]])
        # large entries compare relatively, small ones absolutely
        assert ad.max_relative_error(a, b) == pytest.approx(0.1)

    def test_softplus_stable_for_large_inputs(self):
        assert float(ad.softplus(np.array([800.0]))[0]) == pytest.approx(800.0)
        assert float(ad.softplus(np.array([-800.0]))[0]) == 0.0
