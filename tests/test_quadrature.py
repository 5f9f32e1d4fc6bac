import math

import numpy as np
import pytest

from quadheat import GridSpec, integrate_with_estimate, psi, tail_bound
from quadheat.quadrature import tensor_nodes


class TestIntegrate:
    def test_gaussian_2d(self):
        spec = GridSpec.cube(8.0, 2, 200)
        val = integrate_with_estimate(lambda p: np.exp(-np.sum(p**2, axis=-1)), spec, 2, 1.0)[0]
        assert val.real == pytest.approx(np.pi, abs=1e-10)
        assert val.imag == 0.0

    def test_hermite_norm(self):
        spec = GridSpec.cube(10.0, 1, 400)
        val = integrate_with_estimate(lambda p: psi(3, p[:, 0]) ** 2, spec, 1, 1.0)[0]
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

    def test_tensor_weights_are_axis_products(self):
        spec = GridSpec((1.0, 2.0), 8)
        pts, wts = tensor_nodes(spec, 2)
        wx, wy = spec.weights()
        assert np.array_equal(pts, spec.flat_points())
        assert np.array_equal(wts, np.outer(wx, wy).ravel())


class TestTailBound:
    def test_direct_formula(self):
        want = 2 * 2 * 12.0 * math.exp(-36.0)
        assert tail_bound(GridSpec.cube(6.0, 2, 16), 1.0, 1.0) == pytest.approx(want)

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
