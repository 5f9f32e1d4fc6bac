import math

import numpy as np
import pytest

from quadheat import GridSpec, aliasing_bound, integrate_with_estimate, tail_bound
from quadheat.hermite import _psi_table
from quadheat.quadrature import tensor_nodes


class TestIntegrate:
    def test_gaussian_2d(self):
        spec = GridSpec.cube(8.0, 2, 200)
        val = integrate_with_estimate(lambda p: np.exp(-np.sum(p**2, axis=-1)), spec, 2, 1.0)[0]
        assert val.real == pytest.approx(np.pi, abs=1e-10)
        assert val.imag == 0.0

    def test_hermite_norm(self):
        spec = GridSpec.cube(10.0, 1, 400)
        val = integrate_with_estimate(lambda p: _psi_table(p[:, 0], 3)[3] ** 2, spec, 1, 1.0)[0]
        assert val.real == pytest.approx(1.0, abs=1e-10)

    def test_odd_integrand_vanishes(self):
        spec = GridSpec.cube(6.0, 2, 201)
        f = lambda p: p[:, 0] * np.exp(-np.sum(p**2, axis=-1))
        val = integrate_with_estimate(f, spec, 2, 1.0)[0]
        assert abs(val) <= 1e-15

    def test_doubling_gains_order_of_magnitude(self):
        exact = np.sqrt(np.pi)
        errs = []
        for pts in (10, 20, 40, 80):
            spec = GridSpec.cube(8.0, 1, pts)
            val = integrate_with_estimate(lambda p: np.exp(-p[:, 0] ** 2), spec, 1, 1.0)[0]
            errs.append(abs(val - exact))
        for a, b in zip(errs, errs[1:]):
            if a <= 1e-13:
                break
            assert b <= a / 10.0

    def test_unequal_half_widths(self):
        # int exp(-x^2 - 4 y^2) = pi / 2 on a box wide enough in each axis
        spec = GridSpec((8.0, 4.0), 201)
        f = lambda p: np.exp(-p[:, 0] ** 2 - 4.0 * p[:, 1] ** 2)
        val = integrate_with_estimate(f, spec, 2, 1.0)[0]
        assert val.real == pytest.approx(np.pi / 2.0, abs=1e-10)

    def test_node_budget(self):
        with pytest.raises(ValueError, match="budget"):
            GridSpec.cube(1.0, 4, 500)

    def test_dimension_must_match_grid(self):
        with pytest.raises(ValueError, match="axes"):
            tensor_nodes(GridSpec.cube(1.0, 2, 8), 3)

    def test_bad_integrand_shape(self):
        with pytest.raises(ValueError, match="shape"):
            integrate_with_estimate(lambda p: np.ones((3, 3)), GridSpec.cube(1.0, 1, 8), 1, 1.0)


class TestSpecValidation:
    def test_too_few_points(self):
        with pytest.raises(ValueError):
            GridSpec.cube(1.0, 1, 4)

    def test_bad_half_width(self):
        with pytest.raises(ValueError):
            GridSpec.cube(0.0, 1, 16)

    def test_bad_tail_rate(self):
        for rate in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="rate"):
                tail_bound(GridSpec.cube(1.0, 2, 16), rate, 1.0)


class TestTrapezoidWeights:
    def test_end_weights_are_half_the_step(self):
        spec = GridSpec((2.0, 3.0), 9)
        for x, w in zip(spec.axes(), spec.weights()):
            h = x[1] - x[0]
            assert w[0] == w[-1] == 0.5 * h and np.all(w[1:-1] == h)

    def test_axes_are_built_once_and_read_only(self):
        spec = GridSpec((2.0, 3.0), 9)
        axes = spec.axes()
        assert all(a is b for a, b in zip(axes, spec.axes()))
        assert all(np.array_equal(a, np.linspace(-h, h, 9)) for a, h in zip(axes, spec.half_widths))
        with pytest.raises(ValueError, match="read-only"):
            axes[0][0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            spec.axis_coordinate(1)[..., 0] = 0.0
        spec.weights()[0][0] = 0.0  # weights are each caller's own
        assert spec.weights()[0][0] == 0.25  # half the step 0.5

    def test_tensor_weights_are_axis_products(self):
        spec = GridSpec((1.0, 2.0), 8)
        pts, wts = tensor_nodes(spec, 2)
        wx, wy = spec.weights()
        assert np.array_equal(pts, spec.flat_points())
        assert np.array_equal(wts, np.outer(wx, wy).ravel())


class TestTailBound:
    def test_direct_formula(self):
        # exp(-a^2) on 16 nodes over [-6, 6]: the rule's own sum m and the discrete tail t per axis
        h = 12.0 / 15
        m = math.fsum(h * (0.5 if k in (0, 15) else 1.0) * math.exp(-((k * h - 6.0) ** 2)) for k in range(16))
        t = 2 * h * math.exp(-36.0) * (0.5 + math.exp(-h * (12.0 + h)) / (1 - math.exp(-h * (12.0 + 3 * h))))
        want = t * (2 * m + t)  # (m + t)^2 - m^2
        assert tail_bound(GridSpec.cube(6.0, 2, 16), 1.0, 1.0) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("points", [8, 9, 16, 17, 33])
    @pytest.mark.parametrize("rate", [0.1, 1.0, 10.0])
    def test_bounds_the_rules_discrete_tail(self, points, rate):
        # What truncating the rule for exp(-rate a^2) to [-R, R] drops, summed directly per axis:
        # h (f(R) + 2 sum_{k >= 1} f(R + k h)), the half weight at each end and every node beyond.
        for R in np.geomspace(0.05, 5.0, 15):
            spec = GridSpec.cube(R, 1, points)
            h = spec.spacing[0]
            beyond = R + h * np.arange(1, math.ceil(30.0 / math.sqrt(rate) / h) + 2)
            tail = h * (math.exp(-rate * R * R) + 2.0 * math.fsum(np.exp(-rate * beyond**2)))
            m = math.fsum(spec.weights()[0] * np.exp(-rate * spec.axes()[0] ** 2))
            assert tail_bound(spec, rate, 1.0) >= tail * (1 - 1e-12)
            assert tail_bound(GridSpec.cube(R, 2, points), rate, 1.0) >= tail * (2 * m + tail) * (1 - 1e-12)

    def test_face_area(self):
        assert GridSpec.cube(6.0, 2, 16).face_area() == pytest.approx(4 * 12.0)
        assert GridSpec((1.0, 2.0, 3.0), 8).face_area() == pytest.approx(2 * (8 + 12 + 24))

    def test_monotone_in_half_width(self):
        small = tail_bound(GridSpec.cube(3.0, 2, 16), 1.0, 1.0)
        big = tail_bound(GridSpec.cube(6.0, 2, 16), 1.0, 1.0)
        assert big < small * math.exp(-3 * 6.0)

    def test_bounds_gaussian_tail(self):
        # out-of-box mass of exp(-x^2) is sqrt(pi) erfc(R)
        for R in (2.0, 3.0, 4.0):
            measured = math.sqrt(math.pi) * math.erfc(R)
            assert tail_bound(GridSpec.cube(R, 1, 16), 1.0, 1.0) >= measured

    def test_estimate_returned_with_value(self):
        val, est = integrate_with_estimate(
            lambda p: np.exp(-p[:, 0] ** 2), GridSpec.cube(5.0, 1, 64), 1, 1.0
        )
        assert val.real == pytest.approx(math.sqrt(math.pi), abs=1e-10)
        assert 0 < est <= 2 * 1.0 * math.exp(-25.0) * 1.001


class TestAliasingBound:
    # exp(i(a x + b y)) exp(-(a^2 + b^2) / 4) integrates to 4 pi exp(-(x^2 + y^2))
    @staticmethod
    def measured_error(spec, x, y):
        (a, b), (wa, wb) = spec.axes(), spec.weights()
        g = np.exp(-0.25 * (a[:, None] ** 2 + b[None, :] ** 2))
        got = np.einsum("kp,pq,kq->k", wa * np.exp(1j * np.outer(x, a)), g,
                        wb * np.exp(1j * np.outer(y, b)))
        return np.abs(got - 4 * np.pi * np.exp(-(x**2 + y**2)))

    def test_bounds_and_tracks_the_aliasing(self):
        # box truncation exp(-36) is negligible; step 2 puts copies 2 pi / 2 = pi apart
        spec = GridSpec.cube(12.0, 2, 13)
        x, y = np.array([0.0, 0.5, -1.0, 1.5]), np.array([0.0, -0.3, 1.2, 0.2])
        measured = self.measured_error(spec, x, y)
        bound = aliasing_bound(spec, 1.0, 4 * np.pi, x, y)
        assert np.all(measured <= bound) and np.all(bound <= 4 * measured)

    def test_sample_past_half_period_is_bounded(self):
        spec = GridSpec.cube(12.0, 2, 13)
        x, y = np.array([1.7, 3.0, -6.0]), np.array([0.1, -2.5, 4.0])
        assert np.all(self.measured_error(spec, x, y) <= aliasing_bound(spec, 1.0, 4 * np.pi, x, y))

    def test_falls_with_the_step(self):
        coarse, fine = (aliasing_bound(GridSpec.cube(12.0, 2, P), 1.0, 1.0, 0.5, 0.5) for P in (13, 25))
        assert fine < coarse * math.exp(-20.0)

    def test_needs_two_axes(self):
        with pytest.raises(ValueError, match="2-D"):
            aliasing_bound(GridSpec.cube(1.0, 1, 16), 1.0, 1.0, 0.0, 0.0)
