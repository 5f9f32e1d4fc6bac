import os
import time
import tracemalloc

import numpy as np
import pytest
from conftest import random_hermitian_quadric
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import _extrapolated_residual

from quadheat import (
    FormIndex,
    GridFunction,
    GridSpec,
    NumericsError,
    QuadricForm,
    apply_box_ll_lambda,
    decompose_form,
    heat_apply,
    initial_condition_check,
    pde_residual,
    pde_residual_richardson,
    sample_rho_hat,
    semigroup_check,
    weighted_heat_kernel,
    weighted_heat_kernel_batch,
)
from quadheat import boxop, cli, kernel
from quadheat.boxop import _BLOCK_ROWS, _block_maxima, sample_on_grid, write_atomic
from quadheat.cli import parse_initial_expression

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
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                GridSpec([1.0, bad], 16)
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
        with open(path) as fh:
            assert fh.readline().strip() == "x1,y1,re,im"

    def test_write_atomic_leaves_no_partial_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("previous\n")

        def chunks():
            yield "first block\n"
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            write_atomic(str(path), chunks())
        assert path.read_text() == "previous\n"
        assert not (tmp_path / "out.csv.tmp").exists()
        write_atomic(str(path), iter(["a\n", "b\n"]))
        assert path.read_text() == "a\nb\n" and not (tmp_path / "out.csv.tmp").exists()


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

    @pytest.mark.parametrize("s,hs,message", [
        (0.7, 0.0, "need hs > 0"),
        (0.7, -1e-4, "need hs > 0"),
        (0.7, float("nan"), "hs must be finite"),
        (0.7, float("inf"), "hs must be finite"),
        (float("nan"), 1e-4, "s must be finite"),
        (float("inf"), 1e-4, "s must be finite"),
    ])
    def test_rejects_bad_times(self, heis_spectral, s, hs, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            pde_residual(s, heis_spectral, L_IN, GridSpec.cube(2.0, 2, 101), hs)

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
        out = heat_apply(gf, 0.3, heis_spectral, L_IN, [np.array([0.0 + 0j])])
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
        out_f = heat_apply(GridFunction(spec, f), 0.3, heis_spectral, L_IN, pts)
        out_g = heat_apply(GridFunction(spec, g), 0.3, heis_spectral, L_IN, pts)
        out_c = heat_apply(GridFunction(spec, a * f + b * g), 0.3,
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
        got = heat_apply(GridFunction(spec, f), 0.5, heis_spectral, L_IN,
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
        mid_vals = heat_apply(GridFunction(spec, f), s1, heis_spectral, L_IN,
                              list(c[:, None]))
        mid = GridFunction(spec, np.array(mid_vals).reshape(spec.shape()))
        out_pt = [np.array([0.3 + 0.2j])]
        two_step = heat_apply(mid, s2, heis_spectral, L_IN, out_pt)[0]
        one_step = heat_apply(GridFunction(spec, f), s1 + s2, heis_spectral,
                              L_IN, out_pt)[0]
        assert abs(two_step - one_step) <= 1e-6 * abs(one_step)

    def test_tail_guard(self, heis_q, heis_spectral):
        spec = GridSpec.cube(0.5, 2, 16)
        gf = GridFunction(spec, np.ones(spec.shape()))
        with pytest.raises(NumericsError, match="tail"):
            heat_apply(gf, 1.0, heis_spectral, L_IN, [np.zeros(1, complex)])

    def test_refuses_an_output_point_outside_the_box(self, heis_spectral):
        spec = GridSpec.cube(2.0, 2, 21)
        gf = GridFunction(spec, np.zeros(spec.shape()))
        assert heat_apply(gf, 0.3, heis_spectral, L_IN, [np.array([2.0 - 2.0j])]) == [0.0]  # a corner
        with pytest.raises(NumericsError, match=r"out_points\[1\].*outside the grid box"):
            heat_apply(gf, 0.3, heis_spectral, L_IN, [np.zeros(1, complex), np.array([0.5 + 2.01j])])

    def test_refuses_a_kernel_peak_that_overflows(self):
        # rank-1 n = 2: the peak grows like (2/s)^2, past the largest double at s = 1e-300
        S = _geometry("rank1")
        gf = GridFunction(GridSpec.cube(5.0, 4, 11), np.zeros((11,) * 4))
        with pytest.raises(NumericsError, match="kernel peak inf at s=1e-300"):
            heat_apply(gf, 1e-300, S, L_IN, [np.zeros(2, complex)])


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
        # are built here, independently of the library, over the 2n axes.
        x = np.linspace(-spec.half_widths[0], spec.half_widths[0], spec.points)
        w1 = np.full(spec.points, x[1] - x[0])
        w1[0] = w1[-1] = 0.5 * (x[1] - x[0])
        grids = np.meshgrid(*[x] * spec.dim, indexing="ij")
        c = np.stack([grids[k] + 1j * grids[k + 1] for k in range(0, spec.dim, 2)], axis=-1)
        weights = np.prod(np.meshgrid(*[w1] * spec.dim, indexing="ij"), axis=0)
        kern = weighted_heat_kernel_batch(self.S_TIME, z, c @ S.V.T, Q, S, L,
                                          phase_sign=phase_sign)
        return complex(np.sum(weights * kern * f))

    def assert_matches(self, spec, f, Q, S, L, out):
        got = heat_apply(GridFunction(spec, f), self.S_TIME, S, L, out)
        for z, value in zip(out, got):
            want = self.reference(spec, f, Q, S, L, z)
            assert abs(value - want) <= 1e-12 * abs(want)
            # negative control: the conjugate phase gives a different integral
            flipped = self.reference(spec, f, Q, S, L, z, phase_sign=+1.0)
            assert abs(value - flipped) > 1e-3 * abs(want)

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
        self.assert_matches(spec, f, Q, S, L, self.OUT)

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("kind,L,grid", [
        ("heisenberg", [], (4.0, 41)), ("heisenberg", [1], (4.0, 41)),
        ("rank1_n3", [], (5.0, 8)), ("rank1_n3", [1, 3], (5.0, 8)),  # 8^6 nodes
    ], ids=["heisenberg-L0", "heisenberg-L1", "rank1_n3-L0", "rank1_n3-L13"])
    def test_matches_point_kernel_at_n1_and_n3(self, kind, L, grid, dtype):
        # Off-origin output points and data with no symmetry in x_k -> -x_k or
        # between axes; a real field takes heat_apply's two-real-products path.
        Q, S = _form_and_spectral(kind)
        spec = GridSpec.cube(grid[0], 2 * S.n, grid[1])
        xy = [spec.axis_coordinate(k) for k in range(spec.dim)]
        f = np.broadcast_to(np.exp(-0.5 * sum(a**2 for a in xy))
                            * (1.0 + 0.3 * xy[0] - 0.2 * xy[-1] + 0.1 * xy[-2] * xy[1]
                               + (0.25j * xy[-1] if dtype is complex else 0.0)), spec.shape())
        out = [np.array([0.3 + 0.2j, -0.25 + 0.1j, 0.1 - 0.35j][: S.n]),
               np.array([-0.4 + 0.05j, 0.15 - 0.3j, 0.2 + 0.2j][: S.n])]
        self.assert_matches(spec, f, Q, S, FormIndex(L), out)

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
                    heat_apply(gf, 1.0, S, L_IN, origin)
            else:
                assert np.isfinite(heat_apply(gf, 1.0, S, L_IN, origin)[0])


def _form_and_spectral(kind):
    """Q and S of Heisenberg n = 1, the n = 2 geometries of _n2_geometry, or a rank-1 n = 3 v v^H."""
    if kind == "heisenberg":
        Q = QuadricForm(1, 1, [np.eye(1)])
        return Q, decompose_form(Q, [1.0])
    if kind == "rank1_n3":
        rng = np.random.default_rng(20240816)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        v /= np.linalg.norm(v)
        Q = QuadricForm(3, 1, [np.outer(v, v.conj())])
        return Q, decompose_form(Q, [1.0])
    return _n2_geometry(kind)


def _geometry(kind):
    return _form_and_spectral(kind)[1]


class TestSampleOnGrid:
    """sample_on_grid passes f the real coordinates of z = V c, one slab of axis 0 at a time."""

    @pytest.mark.parametrize("kind,points", [("heisenberg", 21), ("full_rank", 9),
                                             ("rank1_n3", 8)])
    def test_coordinates_are_v_times_c(self, kind, points, monkeypatch):
        S = _geometry(kind)
        spec = GridSpec.cube(3.0, 2 * S.n, points)
        rows = next(r for r in (2, 3) if points % r)  # rows of axis 0 per slab, the last fewer
        monkeypatch.setattr(boxop, "_SLAB_NODES", rows * points ** (spec.dim - 1))
        calls = []
        sample_on_grid(lambda *xy: calls.append(xy) or 0.0, spec, S)
        sizes = [min(rows, points - i) for i in range(0, points, rows)]
        assert sizes[-1] < rows
        assert [len(xy) for xy in calls] == [2 * S.n] * len(sizes)
        # the slabs tile axis 0 in order
        seen = [np.concatenate([np.broadcast_to(xy[k], (m,) + spec.shape()[1:])
                                for xy, m in zip(calls, sizes)]) for k in range(2 * S.n)]
        # z = V c by a stack of the complex nodes times V^T, built independently
        c = np.stack(np.broadcast_arrays(*[
            spec.axis_coordinate(2 * j) + 1j * spec.axis_coordinate(2 * j + 1)
            for j in range(S.n)]), axis=-1)
        z = c @ S.V.T
        for k in range(S.n):
            bound = 1e-14 * (1.0 + np.abs(z[..., k]))
            for got, want in ((seen[2 * k], z[..., k].real), (seen[2 * k + 1], z[..., k].imag)):
                assert np.all(np.abs(got - want) <= bound)

    @pytest.mark.parametrize("expr", [
        "exp(-(x1^2+y1^2+x2^2+y2^2))",
        "exp(-(x1^2+y1^2+x2^2+y2^2))*(1 + x1*y2 - 0.5*x2^3/4)",  # not unitarily invariant
        "1/(x1^2+y1^2)",  # inf where z1 = 0, the origin among them
        "3.5",
    ])
    def test_slabs_match_one_slab(self, expr, monkeypatch):
        S = _geometry("full_rank")
        spec = GridSpec.cube(3.0, 4, 9)  # odd: through the origin
        f = parse_initial_expression(expr, 2)
        fields = []
        for nodes in (9**4, 2 * 9**3):  # one slab; five, the last of one row
            monkeypatch.setattr(boxop, "_SLAB_NODES", nodes)
            with np.errstate(all="ignore"):
                fields.append(sample_on_grid(f, spec, S).values)
        one, slabs = fields
        assert slabs.dtype == one.dtype == np.float64
        assert slabs.tobytes() == one.tobytes()
        assert np.isfinite(one).all() == (expr != "1/(x1^2+y1^2)")

    def test_complex_result_stays_complex(self):
        spec = GridSpec.cube(1.0, 2, 9)
        gf = sample_on_grid(lambda x1, y1: x1 + 1j * y1, spec, _geometry("heisenberg"))
        assert gf.values.dtype == np.complex128
        assert np.all(gf.values.imag == np.broadcast_to(spec.axis_coordinate(1), spec.shape()))

    def test_constant_fills_the_grid(self):
        spec = GridSpec.cube(1.0, 4, 9)
        gf = sample_on_grid(parse_initial_expression("3.5", 2), spec, _geometry("full_rank"))
        assert gf.values.shape == spec.shape()
        assert np.all(gf.values == 3.5)

    @pytest.mark.parametrize("dim", [2, 6])
    def test_grid_dimension_checked(self, dim):
        # at n = 2 a 2-D grid would hand f coordinates from direction 1 alone, a 6-D one
        # would index past V; both are refused before f is called
        calls = []
        with pytest.raises(ValueError, match=f"grid has {dim} axes, expected 2n = 4"):
            sample_on_grid(lambda *xy: calls.append(xy) or 0.0, GridSpec.cube(1.0, dim, 9),
                           _geometry("full_rank"))
        assert calls == []

    def test_memory_per_node(self):
        # 48 B/node with 2n N-sized coordinates and the expression's own
        # temporaries over the whole grid; 10 with slabs, the output field's 8
        # and the slabs' scratch.
        spec = GridSpec.cube(4.0, 4, 33)
        f = parse_initial_expression("exp(-(x1^2+y1^2+x2^2+y2^2))", 2)
        peak, gf = _traced_peak(lambda: sample_on_grid(f, spec, _geometry("full_rank")))
        assert np.isrealobj(gf.values)
        assert peak <= 12 * gf.values.size


def _traced_peak(fn):
    """Peak bytes traced while ``fn()`` runs, above what was held before, and its result."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        return tracemalloc.get_traced_memory()[1] - before, out
    finally:
        tracemalloc.stop()


class TestRealFieldHeatApply:
    OUT = TestHeatApplyFactorised.OUT

    def test_matches_complex_cast(self):
        S = _geometry("full_rank")
        spec = GridSpec.cube(4.0, 4, 15)
        x1, y1, x2, y2 = (spec.axis_coordinate(k) for k in range(4))
        f = (np.exp(-0.5 * (x1**2 + y1**2 + x2**2 + y2**2))
             * (1.0 + 0.3 * x1 - 0.2 * y2 + 0.1 * x2 * y1))
        got = heat_apply(GridFunction(spec, f), 0.5, S, L_IN, self.OUT)
        want = heat_apply(GridFunction(spec, f.astype(complex)), 0.5, S, L_IN, self.OUT)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-13 * abs(w)

    def test_memory_per_node(self):
        # 18.2 B/node when the field is cast to complex on every call; 2.2
        # when the first contraction takes two real products.
        S = _geometry("full_rank")
        spec = GridSpec.cube(4.0, 4, 17)
        x1, y1, x2, y2 = (spec.axis_coordinate(k) for k in range(4))
        gf = GridFunction(spec, np.exp(-(x1**2 + y1**2 + x2**2 + y2**2)))
        peak, _ = _traced_peak(lambda: heat_apply(gf, 0.5, S, L_IN, self.OUT))
        assert peak <= 6 * gf.values.size

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_memory_at_n1(self, dtype):
        # A factor built from P^2 complex exps peaks at 6.1 P x P complex arrays;
        # from per-axis vectors, n = 1 needs no P x P array at all.
        spec = GridSpec.cube(3.0, 2, 303)
        x, y = spec.axis_coordinate(0), spec.axis_coordinate(1)
        f = np.exp(-(x**2 + y**2)) * (1.0 + 0.3 * x + (0.2j * y if dtype is complex else 0.0))
        out = [np.array([0.2 - 0.1j]), np.array([-0.3 + 0.25j])]
        peak, _ = _traced_peak(lambda: heat_apply(GridFunction(spec, f), 0.05, _geometry("heisenberg"),
                                                   L_IN, out))
        assert peak <= 3 * 16 * f.size


class TestSemigroupCheck:
    QUAD = GridSpec.cube(6.0, 2, 400)

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

    @staticmethod
    def _geometry(name, heis_q, heis_spectral):
        """Q, S, L, z, zt of the verify semigroup check on Heisenberg n = 1 or full-rank n = 2."""
        z, zt = [0.3 + 0.1j, -0.1 + 0.2j], [-0.2 + 0.5j, 0.4 - 0.1j]
        if name == "heisenberg_n1":
            return heis_q, heis_spectral, L_IN, z[:1], zt[:1]
        return (*_n2_geometry("full_rank"), FormIndex([1, 2]), z, zt)

    @pytest.mark.parametrize("fault", [None, "batch_phase_conjugated", "heat_apply_conjugated"])
    @pytest.mark.parametrize("name", ["heisenberg_n1", "full_rank_n2"])
    def test_sized_grid_catches_a_conjugated_phase(self, monkeypatch, heis_q, heis_spectral, name, fault):
        # The composition crosses heat_apply's eigenbasis phase with the batch kernel's
        # original-coordinate phase, so conjugating either one alone shows; a consistently
        # conjugated batch (the reference too) is caught because heat_apply's is not.
        if fault == "batch_phase_conjugated":
            batch = kernel.weighted_heat_kernel_batch

            def conjugated_batch(s, z, Zt, Q, S, L, phase_sign=-1.0):
                return batch(s, z, Zt, Q, S, L, phase_sign=-phase_sign)

            for module in (kernel, boxop, cli):
                monkeypatch.setattr(module, "weighted_heat_kernel_batch", conjugated_batch)
        elif fault == "heat_apply_conjugated":
            apply = boxop.heat_apply

            def conjugated_apply(f, s, S, L, out_points):
                return [np.conj(v) for v in apply(GridFunction(f.spec, np.conj(f.values)), s, S, L,
                                                  out_points=out_points)]

            for module in (boxop, cli):
                monkeypatch.setattr(module, "heat_apply", conjugated_apply)
        Q, S, L, z, zt = self._geometry(name, heis_q, heis_spectral)
        err = semigroup_check(0.4, 0.4, z, zt, Q, S, L)
        assert err <= 1e-12 if fault is None else err >= 1e-2

    @pytest.mark.parametrize("s", [0.0, -0.3])
    def test_refuses_nonpositive_times(self, heis_q, heis_spectral, s):
        # heat_apply's refusal is _log_rho_parts', raised before any grid-sized work
        gf = GridFunction(GridSpec.cube(3.0, 2, 21), np.ones((21, 21)))
        with pytest.raises(ValueError, match="time s must be positive"):
            heat_apply(gf, s, heis_spectral, L_IN, out_points=[np.zeros(1, complex)])
        for s1, s2 in ((s, 0.4), (0.4, s)):
            with pytest.raises(ValueError, match="times must be positive"):
                semigroup_check(s1, s2, [0.3 + 0.1j], [-0.2 + 0.5j], heis_q, heis_spectral, L_IN)


class TestInitialCondition:
    def test_errors_decrease(self, heis_q, heis_spectral):
        def f(*xy):
            return np.exp(-sum(a**2 for a in xy))

        errs = initial_condition_check(f, [0.1, 0.01, 0.001], heis_spectral,
                                       L_IN)
        assert errs[0] > errs[1] > errs[2]
        assert errs[-1] <= 5e-3

    def test_zero_data_exact(self, heis_q, heis_spectral):
        def f(*xy):
            return np.zeros_like(xy[0])

        errs = initial_condition_check(f, [0.1, 0.01], heis_spectral, L_IN)
        assert errs == [0.0, 0.0]

    def test_gaussian_weight_is_stationary(self, heis_q, heis_spectral):
        # exp(-|z|^2) is annihilated by the evolution generator at lambda = 1,
        # L = {1}: the evolved value at the origin equals 1 for every s
        def f(*xy):
            return np.exp(-sum(a**2 for a in xy))

        gf = sample_on_grid(f, GridSpec.cube(4.0, 2, 401), heis_spectral)
        value = heat_apply(gf, 0.5, heis_spectral, L_IN, out_points=[np.zeros(1, complex)])[0]
        assert abs(value - 1.0) <= 1e-10


def _full_rank_mu_geometry():
    """Non-commuting n = 2, m = 2 form with B1 + B2 = diag(1, -0.5): mu = (1, -0.5)."""
    B2 = np.array([[0.3, 0.4 - 0.2j], [0.4 + 0.2j, -0.1]])
    Q = QuadricForm(2, 2, [np.diag([1.0, -0.5]) - B2, B2])
    assert np.linalg.norm(Q.A[0] @ Q.A[1] - Q.A[1] @ Q.A[0]) > 0.1
    S = decompose_form(Q, [1.0, 1.0])
    np.testing.assert_allclose(sorted(S.mu), [-0.5, 1.0], atol=1e-12)
    return S


def _written_out_box(v, spec, S, L):
    """The operator by central differences on the interior, term by term,
    independently of the library's stencil."""
    P, h, dim = spec.points, spec.spacing, spec.dim
    inner = (slice(1, -1),) * dim

    def shifted(ax, d):
        return v[tuple(slice(1 + d, P - 1 + d) if k == ax else slice(1, -1) for k in range(dim))]

    coords = [np.linspace(-hw, hw, P)[1:-1].reshape([-1 if k == ax else 1 for k in range(dim)])
              for ax, hw in enumerate(spec.half_widths)]
    out = np.zeros(v[inner].shape, dtype=complex)
    for ax in range(dim):
        out -= 0.25 * (shifted(ax, 1) - 2.0 * v[inner] + shifted(ax, -1)) / h[ax] ** 2
    for k in range(S.n):
        mu = S.mu[k] if k < S.nu else 0.0
        x, y = coords[2 * k], coords[2 * k + 1]
        dx = (shifted(2 * k, 1) - shifted(2 * k, -1)) / (2.0 * h[2 * k])
        dy = (shifted(2 * k + 1, 1) - shifted(2 * k + 1, -1)) / (2.0 * h[2 * k + 1])
        const = mu if L.contains(k + 1) else -mu
        out += 1j * mu * (y * dx - x * dy) + (mu**2 * (x**2 + y**2) - const) * v[inner]
    return out


def _residual_on_full_grid(s, S, L, grid, hs, box):
    """pde_residual the way it used to be formed: whole-grid samples, then ``box``."""
    dt = interior(sample_rho_hat(s + hs, grid, S, L) - sample_rho_hat(s - hs, grid, S, L))
    dt /= 2.0 * hs
    res = dt + box(sample_rho_hat(s, grid, S, L))
    return float(np.max(np.abs(res)) / np.max(np.abs(dt)))


class TestPdeResidualFactorised:
    """The per-direction residual against the full-grid samples and stencil."""

    GRIDS = {"heisenberg": GridSpec.cube(2.0, 2, 101),
             # unequal half-widths, so every axis has its own spacing
             "rank1": GridSpec([1.0, 1.5, 0.8, 1.2], 15),
             "full_rank": GridSpec([1.2, 0.9, 1.5, 1.1], 15)}

    @staticmethod
    def spectral(kind, heis_spectral):
        if kind == "heisenberg":
            return heis_spectral
        return _n2_geometry("rank1")[1] if kind == "rank1" else _full_rank_mu_geometry()

    @pytest.mark.parametrize("kind", ["heisenberg", "rank1", "full_rank"])
    @pytest.mark.parametrize("L", [[], [1], [1, 2]])
    def test_matches_full_grid_reference(self, heis_spectral, kind, L):
        S, L, grid = self.spectral(kind, heis_spectral), FormIndex(L), self.GRIDS[kind]
        if L.q > S.n:
            with pytest.raises(ValueError, match="exceeds dimension"):
                pde_residual(0.7, S, L, grid, 1e-4)
            return
        got = pde_residual(0.7, S, L, grid, 1e-4)

        def library(rho):
            return interior(apply_box_ll_lambda(GridFunction(grid, rho), S, L).values)

        def written_out(rho):
            return _written_out_box(rho, grid, S, L)

        assert abs(got - _residual_on_full_grid(0.7, S, L, grid, 1e-4, library)) <= 1e-10
        assert abs(got - _residual_on_full_grid(0.7, S, L, grid, 1e-4, written_out)) <= 1e-10
        assert got > 1e-4  # the coarse grids keep the stencil's own error visible

    @pytest.mark.parametrize("kind", ["heisenberg", "rank1", "full_rank"])
    def test_apply_box_on_a_non_product_field(self, heis_spectral, kind):
        S, grid = self.spectral(kind, heis_spectral), self.GRIDS[kind]
        c = [grid.axis_coordinate(k) for k in range(grid.dim)]
        r2 = sum(x**2 for x in c)
        f = np.broadcast_to(np.exp(-0.5 * r2) * (1.0 + 0.3 * c[0] * c[-1] - 0.2j * c[1] + r2**2),
                            grid.shape())
        for L in (FormIndex([]), FormIndex([1])):
            out = apply_box_ll_lambda(GridFunction(grid, f), S, L).values
            want = _written_out_box(f, grid, S, L)
            assert np.max(np.abs(interior(out) - want)) <= 1e-12 * np.max(np.abs(want))
            ring = np.ones(grid.shape(), dtype=bool)
            ring[(slice(1, -1),) * grid.dim] = False
            assert np.isnan(out[ring]).all() and np.isfinite(interior(out)).all()


@st.composite
def _residual_cases(draw):
    """A geometry, index set, time and grid for the residual; n = 3 stays at
    9 points, where the full-grid reference already holds 9^6 nodes."""
    n = draw(st.integers(1, 3))
    points = draw(st.integers(9, 13)) if n < 3 else 9
    half_widths = draw(st.lists(st.floats(0.8, 2.5), min_size=2 * n, max_size=2 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["generic", "lambda_zero", "rank_deficient"]))
    if kind == "rank_deficient":  # rank n - 1: a kernel direction beside the rank ones
        U = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
        d = np.r_[rng.choice([-1.0, 1.0], n - 1) * rng.uniform(0.3, 1.5, n - 1), 0.0]
        Q, lam = QuadricForm(n, 1, [(U * d) @ U.conj().T]), [1.0]
    else:
        Q = random_hermitian_quadric(rng, n, 2, scale=0.7)
        lam = [0.0, 0.0] if kind == "lambda_zero" else list(rng.uniform(-1.0, 1.0, 2))
    S = decompose_form(Q, lam)
    assert S.nu == {"generic": n, "lambda_zero": 0, "rank_deficient": n - 1}[kind]
    L = FormIndex(sorted(draw(st.sets(st.integers(1, n)))))
    return S, L, draw(st.floats(0.3, 1.5)), GridSpec(half_widths, points)


class TestPdeResidualProperty:
    @settings(max_examples=40, deadline=None)
    @given(case=_residual_cases())
    def test_matches_full_grid_reference(self, case):
        # At n = 3 direction 1 lies across the row/column split of the
        # rank-one terms, and directions 0 and 2 on either side of it.
        S, L, s, grid = case
        got = pde_residual(s, S, L, grid, 1e-4)

        def written_out(rho):
            return _written_out_box(rho, grid, S, L)

        assert abs(got - _residual_on_full_grid(s, S, L, grid, 1e-4, written_out)) <= 1e-10


@pytest.mark.parametrize("counts,part,t", [
    pytest.param(c, p, t, id=f"{p}-{t}" if c == (4, 2) else f"{'+'.join(map(str, c))}terms-{p}-{t}")
    for c, p, t in [((4, 2), 0, 0), ((4, 2), 0, 2), ((4, 2), 1, 1), ((4, 1), 0, 3), ((4, 1), 1, 0),
                    ((3, 6), 0, 2), ((3, 6), 1, 5), ((6, 3), 0, 5), ((6, 3), 1, 2), ((5,), 0, 4)]
])
def test_block_maxima_reach_the_last_partial_block(rng, counts, part, t):
    # Rows are not a multiple of the block height, and one term is largest in
    # the last row; part 0's terms 0 and 1 are the time difference.  counts are
    # the terms of the real and the imaginary part: (4, 1) is rank-1 n=2, whose
    # one imaginary term takes einsum where longer parts take matmul.
    n_rows, n_cols = 2 * _BLOCK_ROWS + 3, 7
    parts = [(rng.normal(size=(k, n_rows)), rng.normal(size=(k, n_cols))) for k in counts]
    parts[part][0][t, -1] = 50.0
    fields = [sum(np.outer(r, c) for r, c in zip(rows, cols)) for rows, cols in parts]
    dt = sum(np.outer(r, c) for r, c in zip(parts[0][0][:2], parts[0][1][:2]))
    top, top_dt = _block_maxima(parts)
    assert top == pytest.approx(np.max(sum(f**2 for f in fields)), rel=1e-12)
    assert top_dt == pytest.approx(np.max(np.abs(dt)), rel=1e-12)


class TestPdeResidualMemory:
    def test_verify_grids_peak_below_one_byte_per_node(self, heis_spectral):
        # The verify check's grids: 56 B/node at 2001^2 and 34 at 49^4 when the
        # residual field was broadcast over all N nodes.
        for S, L, grid in ((heis_spectral, L_IN, GridSpec.cube(2.0, 2, 2001)),
                           (_n2_geometry("rank1")[1], L_IN, GridSpec.cube(0.06, 4, 49)),
                           (_full_rank_mu_geometry(), FormIndex([1, 2]), GridSpec.cube(0.06, 4, 49))):
            peak, r = _traced_peak(lambda: pde_residual(0.7, S, L, grid, 1e-4))
            assert peak < grid.points ** grid.dim
            assert 0.0 < r <= 1e-5


class TestPdeResidualRichardson:
    """The low-rank (4 R_h - R_2h) / 3 against the acceptance test's dense extrapolation."""

    def test_fourth_order_rate(self, heis_spectral):
        r = [pde_residual_richardson(0.7, heis_spectral, L_IN, GridSpec.cube(2.0, 2, p), 1e-4)[0]
             for p in (41, 81, 161)]
        assert all(14.0 <= a / b <= 18.0 for a, b in zip(r, r[1:]))  # 15.7 and 15.7

    @pytest.mark.parametrize("L", [L_IN, L_OUT])
    def test_matches_dense_extrapolation_n1(self, heis_spectral, L):
        fine, coarse = GridSpec.cube(2.0, 2, 201), GridSpec.cube(2.0, 2, 101)
        r, second = pde_residual_richardson(0.7, heis_spectral, L, fine, 1e-4)
        assert abs(r - _extrapolated_residual(0.7, 1e-4, fine, coarse, heis_spectral, L, L)) <= 1e-11
        # the second-order field and the time derivative peak on the subgrid here
        assert second == pytest.approx(pde_residual(0.7, heis_spectral, L, fine, 1e-4), rel=1e-9)

    @pytest.mark.parametrize("kind", ["rank1", "full_rank"])
    @pytest.mark.parametrize("L", [[1], [1, 2]])
    def test_matches_dense_extrapolation_n2(self, kind, L):
        # unequal half-widths, so every axis has its own spacing; the fine grid has 25^4 nodes
        S, L = _n2_geometry(kind)[1], FormIndex(L)
        fine, coarse = (GridSpec([0.07, 0.05, 0.06, 0.08], p) for p in (25, 13))
        r, second = pde_residual_richardson(0.7, S, L, fine, 1e-4)
        assert abs(r - _extrapolated_residual(0.7, 1e-4, fine, coarse, S, L, L)) <= 1e-11
        assert r <= 1e-5 < second

    @pytest.mark.parametrize("points", [200, 13])
    def test_needs_odd_points_and_an_8_point_subgrid(self, heis_spectral, points):
        with pytest.raises(ValueError, match="odd number of points per axis, at least 15"):
            pde_residual_richardson(0.7, heis_spectral, L_IN, GridSpec.cube(2.0, 2, points), 1e-4)


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="OpenBLAS runs one thread on one CPU")
def test_heat_apply_leaves_no_blas_thread_spinning(heis_spectral):
    # A BLAS dot down to the scalar left OpenBLAS workers spinning for about
    # 0.12 CPU-s after each n = 1 call, taking the second core from whatever ran next.
    spec = GridSpec.cube(3.0, 2, 303)  # initial_condition_check's finest grid
    real = sample_on_grid(lambda x, y: np.exp(-(x**2 + y**2)), spec, heis_spectral)
    for gf in (real, GridFunction(spec, real.values * (1.0 + 0.5j))):
        time.sleep(0.3)  # outlast a spin left by earlier tests
        heat_apply(gf, 1e-3, heis_spectral, L_IN, [np.zeros(1, complex)])
        t0 = time.process_time()
        time.sleep(0.3)
        assert time.process_time() - t0 < 0.02


class TestRankDeficient:
    def test_residual_four_axes(self):
        Q = QuadricForm(2, 1, [np.diag([1.0, 0.0])])
        S = decompose_form(Q, [1.0])
        assert S.nu == 1
        r = pde_residual(0.7, S, FormIndex([1]), GridSpec.cube(0.06, 4, 25), 1e-4)
        assert r <= 5e-5
