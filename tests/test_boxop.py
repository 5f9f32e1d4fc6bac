import numpy as np
import pytest
from conftest import random_hermitian_quadric

from quadheat import (
    FormIndex,
    GridFunction,
    GridSpec,
    NumericsError,
    QuadratureSpec,
    QuadricForm,
    apply_box_ll_lambda,
    decompose_form,
    heat_apply,
    initial_condition_check,
    pde_residual,
    sample_rho_hat,
    semigroup_check,
    weighted_heat_kernel,
    weighted_heat_kernel_batch,
)

L_IN = FormIndex([1])
L_OUT = FormIndex([])


def interior(values):
    sl = tuple(slice(1, -1) for _ in range(values.ndim))
    return values[sl]


class TestGridBasics:
    def test_spacing_and_axes(self):
        spec = GridSpec([2.0, 1.0], 21)
        assert spec.dim == 2
        assert spec.spacing == (0.2, 0.1)
        assert spec.axes()[0][0] == -2.0 and spec.axes()[1][-1] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec([1.0, 1.0], 4)
        with pytest.raises(ValueError):
            GridSpec([-1.0, 1.0], 16)
        with pytest.raises(ValueError):
            GridSpec([1.0] * 8, 101)  # node budget

    def test_grid_function_shape_check(self):
        spec = GridSpec([1.0, 1.0], 9)
        with pytest.raises(ValueError):
            GridFunction(spec, np.zeros((9, 8)))

    def test_csv_roundtrip(self, tmp_path):
        spec = GridSpec([1.0, 1.0], 9)
        rng = np.random.default_rng(3)
        vals = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        gf = GridFunction(spec, vals)
        path = str(tmp_path / "field.csv")
        gf.save_csv(path)
        back = GridFunction.load_csv(path, spec)
        np.testing.assert_array_equal(back.values, vals)
        header = open(path).readline().strip()
        assert header == "x1,y1,re,im"


class TestApplyBox:
    def test_constant_function(self, heis_spectral):
        spec = GridSpec([1.5, 1.5], 31)
        ones = GridFunction(spec, np.ones(spec.shape()))
        out = apply_box_ll_lambda(ones, heis_spectral, L_IN).values
        x = spec.axis_coordinate(0)
        y = spec.axis_coordinate(1)
        want = (x**2 + y**2) - 1.0
        np.testing.assert_allclose(
            interior(out), interior(np.broadcast_to(want, spec.shape()).astype(complex)),
            atol=1e-12,
        )

    def test_pure_laplacian_at_lambda_zero(self, heis_q):
        S0 = decompose_form(heis_q, [0.0])
        errs = []
        for pts in (51, 101):
            spec = GridSpec([2.0, 2.0], pts)
            x = spec.axis_coordinate(0)
            y = spec.axis_coordinate(1)
            r2 = np.broadcast_to(x**2 + y**2, spec.shape())
            f = np.exp(-r2)
            out = apply_box_ll_lambda(GridFunction(spec, f), S0, L_OUT).values
            want = -0.25 * (4.0 * r2 - 4.0) * f
            errs.append(np.max(np.abs(interior(out) - interior(want))))
        assert errs[0] <= 5e-3
        assert 3.5 <= errs[0] / errs[1] <= 4.5

    def test_rotation_vanishes_on_radial_data(self, heis_spectral):
        # the drift is the only imaginary contribution for real radial data
        errs = []
        for pts in (51, 101):
            spec = GridSpec([2.0, 2.0], pts)
            x = spec.axis_coordinate(0)
            y = spec.axis_coordinate(1)
            f = np.exp(-np.broadcast_to(x**2 + y**2, spec.shape()))
            out = apply_box_ll_lambda(GridFunction(spec, f), heis_spectral, L_IN).values
            errs.append(np.max(np.abs(interior(out).imag)))
        assert errs[0] <= 2e-3
        assert 3.0 <= errs[0] / errs[1] <= 5.0

    def test_grid_dimension_checked(self, heis_spectral):
        spec = GridSpec([1.0, 1.0, 1.0, 1.0], 9)
        with pytest.raises(ValueError):
            apply_box_ll_lambda(
                GridFunction(spec, np.zeros(spec.shape())), heis_spectral, L_IN
            )


class TestPdeResidual:
    def test_euclidean_case_and_order(self, heis_q):
        S0 = decompose_form(heis_q, [0.0])
        r1 = pde_residual(0.7, S0, L_OUT, GridSpec.cube(2.0, 2, 101), 1e-4)
        r2 = pde_residual(0.7, S0, L_OUT, GridSpec.cube(2.0, 2, 201), 1e-4)
        assert r1 <= 5e-3
        assert 3.5 <= r1 / r2 <= 4.5

    def test_heisenberg_discretization_floor(self, heis_spectral):
        # At h = 0.02 the second-order stencil floor sits near 8.4e-4.
        r = pde_residual(0.7, heis_spectral, L_IN, GridSpec.cube(2.0, 2, 201), 1e-4)
        assert 5e-4 <= r <= 1.2e-3

    def test_requires_positive_earlier_time(self, heis_spectral):
        with pytest.raises(ValueError):
            pde_residual(0.5, heis_spectral, L_IN, GridSpec.cube(1.0, 2, 16), 0.5)

    def test_sample_matches_pointwise(self, heis_spectral):
        from quadheat import KernelQuery, rho_hat

        spec = GridSpec([1.0, 1.0], 9)
        vals = sample_rho_hat(0.5, spec, heis_spectral, L_IN)
        xs = spec.axes()[0]
        got = vals[2, 5]
        want = rho_hat(KernelQuery(0.5, [xs[2] + 1j * xs[5]], heis_spectral, L_IN))
        assert got == pytest.approx(want, rel=1e-14)


class TestHeatApply:
    def test_zero_data(self, heis_q, heis_spectral):
        spec = GridSpec.cube(2.0, 2, 21)
        gf = GridFunction(spec, np.zeros(spec.shape()))
        out = heat_apply(gf, 0.3, heis_q, heis_spectral, L_IN, [np.array([0.0 + 0j])])
        assert out == [0.0 + 0.0j]

    def test_linearity(self, heis_q, heis_spectral, rng):
        spec = GridSpec.cube(3.0, 2, 41)
        x = spec.axis_coordinate(0)
        y = spec.axis_coordinate(1)
        r2 = np.broadcast_to(x**2 + y**2, spec.shape())
        f = np.exp(-r2)
        g = np.exp(-2.0 * r2) * (1.0 + np.broadcast_to(x, spec.shape()))
        pts = [np.array([0.2 + 0.1j])]
        a, b = 1.7, -0.4
        out_f = heat_apply(GridFunction(spec, f), 0.3, heis_q, heis_spectral, L_IN, pts)
        out_g = heat_apply(GridFunction(spec, g), 0.3, heis_q, heis_spectral, L_IN, pts)
        out_c = heat_apply(GridFunction(spec, a * f + b * g), 0.3, heis_q,
                           heis_spectral, L_IN, pts)
        assert abs(out_c[0] - (a * out_f[0] + b * out_g[0])) <= 1e-12

    def test_narrow_data_approximates_kernel(self, heis_q, heis_spectral):
        # delta-like data of unit mass reproduces the kernel column
        sigma = 0.02
        spec = GridSpec.cube(3.0, 2, 601)
        x = spec.axis_coordinate(0)
        y = spec.axis_coordinate(1)
        r2 = np.broadcast_to(x**2 + y**2, spec.shape())
        f = np.exp(-r2 / (2 * sigma**2)) / (2 * np.pi * sigma**2)
        z_out = np.array([0.4 - 0.1j])
        got = heat_apply(GridFunction(spec, f), 0.5, heis_q, heis_spectral, L_IN,
                         [z_out])[0]
        want = weighted_heat_kernel(0.5, z_out, np.zeros(1, complex), heis_q,
                                    heis_spectral, L_IN)
        assert abs(got - want) <= 2e-3 * abs(want)

    def test_operational_semigroup(self, heis_q, heis_spectral):
        # evolving by s1 then s2 equals evolving by s1 + s2
        spec = GridSpec.cube(4.5, 2, 41)
        nodes = spec.flat_points()
        c = nodes[:, 0] + 1j * nodes[:, 1]
        f = np.exp(-np.abs(c) ** 2).reshape(spec.shape())
        s1, s2 = 0.3, 0.5
        # evolve onto the same grid nodes, then evolve again
        mid_vals = heat_apply(GridFunction(spec, f), s1, heis_q, heis_spectral, L_IN,
                              list(c[:, None]))
        mid = GridFunction(spec, np.array(mid_vals).reshape(spec.shape()))
        out_pt = [np.array([0.3 + 0.2j])]
        two_step = heat_apply(mid, s2, heis_q, heis_spectral, L_IN, out_pt)[0]
        one_step = heat_apply(GridFunction(spec, f), s1 + s2, heis_q, heis_spectral,
                              L_IN, out_pt)[0]
        assert abs(two_step - one_step) <= 1e-6 * abs(one_step)

    def test_tail_guard(self, heis_q, heis_spectral):
        spec = GridSpec.cube(0.5, 2, 16)
        gf = GridFunction(spec, np.ones(spec.shape()))
        with pytest.raises(NumericsError, match="tail"):
            heat_apply(gf, 1.0, heis_q, heis_spectral, L_IN, [np.zeros(1, complex)])


def _n2_geometry(kind):
    """A non-commuting full-rank n = 2, m = 2 geometry or a rank-1 v v^H one."""
    rng = np.random.default_rng(20240815)
    if kind == "full_rank":
        Q = random_hermitian_quadric(rng, 2, 2)
        assert np.linalg.norm(Q.A[0] @ Q.A[1] - Q.A[1] @ Q.A[0]) > 0.1
        S = decompose_form(Q, [0.8, -0.6])
        assert S.nu == 2
    else:
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        Q = QuadricForm(2, 1, [np.outer(v, v.conj())])
        S = decompose_form(Q, [1.0])
        assert S.nu == 1
    return Q, S


class TestHeatApplyFactorised:
    """heat_apply against the trapezoid sum of the original-basis point kernel."""

    S_TIME = 0.5
    OUT = [np.array([0.3 + 0.2j, -0.25 + 0.1j]), np.array([-0.4 + 0.05j, 0.15 - 0.3j])]

    def reference(self, spec, f, Q, S, L, z, phase_sign=-1.0):
        # Nodes c in adapted coordinates are the points V c; trapezoid weights
        # are built here, independently of the library.
        x = np.linspace(-spec.half_widths[0], spec.half_widths[0], spec.points)
        w1 = np.full(spec.points, x[1] - x[0])
        w1[0] = w1[-1] = 0.5 * (x[1] - x[0])
        grids = np.meshgrid(x, x, x, x, indexing="ij")
        c = np.stack([grids[0] + 1j * grids[1], grids[2] + 1j * grids[3]], axis=-1)
        weights = np.einsum("a,b,c,d->abcd", w1, w1, w1, w1)
        kern = weighted_heat_kernel_batch(self.S_TIME, z, c @ S.V.T, Q, S, L,
                                          phase_sign=phase_sign)
        return complex(np.sum(weights * kern * f))

    @pytest.mark.parametrize("kind", ["full_rank", "rank1"])
    @pytest.mark.parametrize("L", [[], [1], [1, 2]])
    def test_matches_point_kernel(self, kind, L):
        Q, S = _n2_geometry(kind)
        L = FormIndex(L)
        spec = GridSpec.cube(4.0, 4, 15)
        x1, y1, x2, y2 = (spec.axis_coordinate(k) for k in range(4))
        f = np.broadcast_to(
            np.exp(-0.5 * (x1**2 + y1**2 + x2**2 + y2**2))
            * (1.0 + 0.3 * x1 - 0.2j * y2 + 0.1 * x2 * y1),
            spec.shape(),
        )
        got = heat_apply(GridFunction(spec, f), self.S_TIME, Q, S, L, self.OUT)
        for z, value in zip(self.OUT, got):
            want = self.reference(spec, f, Q, S, L, z)
            assert abs(value - want) <= 1e-12 * abs(want)
            # negative control: the conjugate phase gives a different integral
            flipped = self.reference(spec, f, Q, S, L, z, phase_sign=+1.0)
            assert abs(value - flipped) > 1e-3 * abs(want)

    @pytest.mark.parametrize("axis", range(4))
    @pytest.mark.parametrize("end", [0, -1])
    def test_tail_guard_sees_every_face(self, axis, end):
        # data that is 1 on the inside of a single face of a small box (zero
        # on its edges, which other faces share) must trip the guard; the
        # same data one node inward on a large box must not
        Q, S = _n2_geometry("full_rank")
        origin = [np.zeros(2, complex)]
        inner = slice(1, -1)
        for half_width, index, raises in ((1.0, end, True),
                                          (6.0, 1 if end == 0 else -2, False)):
            spec = GridSpec.cube(half_width, 4, 9)
            f = np.zeros(spec.shape())
            f[(inner,) * axis + (index,) + (inner,) * (3 - axis)] = 1.0
            gf = GridFunction(spec, f)
            if raises:
                with pytest.raises(NumericsError, match="tail"):
                    heat_apply(gf, 1.0, Q, S, L_IN, origin)
            else:
                assert np.isfinite(heat_apply(gf, 1.0, Q, S, L_IN, origin)[0])


class TestSemigroupCheck:
    QUAD = QuadratureSpec(half_width=6.0, points=400, tail_rate=1.0)

    def test_heisenberg_composition(self, heis_q, heis_spectral):
        err = semigroup_check(0.4, 0.4, [0.3 + 0.1j], [-0.2 + 0.5j], heis_q,
                              heis_spectral, L_IN, self.QUAD)
        assert err <= 1e-5

    def test_euclidean_composition(self, heis_q):
        S0 = decompose_form(heis_q, [0.0])
        err = semigroup_check(0.5, 0.3, [0.2 + 0.1j], [-0.1 - 0.2j], heis_q, S0,
                              L_OUT, self.QUAD)
        assert err <= 1e-8

    def test_phase_ablation_control(self, heis_q, heis_spectral):
        err = semigroup_check(0.4, 0.4, [0.3 + 0.1j], [-0.2 + 0.5j], heis_q,
                              heis_spectral, L_IN, self.QUAD, phase_sign=+1.0)
        assert err >= 1e-2


class TestInitialCondition:
    def test_errors_decrease(self, heis_q, heis_spectral):
        def f(Z):
            return np.exp(-np.sum(np.abs(Z) ** 2, axis=-1))

        errs = initial_condition_check(f, [0.1, 0.01, 0.001], heis_q, heis_spectral,
                                       L_IN)
        assert errs[0] > errs[1] > errs[2]
        assert errs[-1] <= 5e-3

    def test_zero_data_exact(self, heis_q, heis_spectral):
        def f(Z):
            return np.zeros(Z.shape[:-1])

        errs = initial_condition_check(f, [0.1, 0.01], heis_q, heis_spectral, L_IN)
        assert errs == [0.0, 0.0]

    def test_gaussian_weight_is_stationary(self, heis_q, heis_spectral):
        # exp(-|z|^2) is annihilated by the evolution generator at lambda = 1,
        # L = {1}: the evolved value at the origin equals 1 for every s
        def f(Z):
            return np.exp(-np.sum(np.abs(Z) ** 2, axis=-1))

        errs = initial_condition_check(f, [0.5], heis_q, heis_spectral, L_IN,
                                       base_points=401, box_half_width=4.0)
        assert errs[0] <= 1e-10


class TestRankDeficient:
    def test_residual_four_axes(self):
        Q = QuadricForm(2, 1, [np.diag([1.0, 0.0])])
        S = decompose_form(Q, [1.0])
        assert S.nu == 1
        r = pde_residual(0.7, S, FormIndex([1]), GridSpec.cube(0.06, 4, 25), 1e-4)
        assert r <= 5e-5
