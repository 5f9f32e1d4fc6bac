"""The transformed diagonal operator as a finite-difference stencil, plus the
PDE, semigroup, and initial-condition verifications built on it.

Grids live in adapted coordinates with axes interleaved as
(x_1, y_1, ..., x_n, y_n).  The operator is

    -1/4 Laplacian
    + sum_k i mu_k (y_k d/dx_k - x_k d/dy_k)
    + sum_k mu_k^2 (x_k^2 + y_k^2)
    - (sum_{k in L} mu_k - sum_{k not in L} mu_k),

with the rotation term the real-coordinate expansion of 2i mu Im{z d/dz}
under Im A = (A - conj A)/(2i).  All derivatives are second-order central
differences; a boundary layer of width one is marked invalid (NaN).
Eigenvalues below the rank tolerance are treated as exact zeros.

Convolution-style integrals use tensor trapezoid weights; integrands are
smooth with Gaussian decay, where the trapezoid rule converges spectrally.
heat_apply evaluates the weighted kernel on the grid's own adapted
coordinates, where kernel and phase are one factor per direction, and
contracts those factors with the field.  The semigroup check composes point
kernels over a QuadratureSpec box in original coordinates.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import NumericsError
from .forms import FormIndex, epsilon
from .kernel import (
    _log_rho_factors,
    _phase_arg,
    log_mu_sinh_factor,
    mu_coth,
    rho_hat_adapted,
    weighted_heat_kernel,
    weighted_heat_kernel_batch,
)
from .quadric import QuadricForm
from .quadrature import QuadratureSpec, axis_nodes, tensor_nodes
from .spectral import SpectralData

GRID_NODE_BUDGET = 10**8


@dataclass(frozen=True)
class GridSpec:
    """Tensor grid on a box: per-axis half-widths and a common point count."""

    half_widths: tuple
    points: int

    def __init__(self, half_widths, points: int):
        hw = tuple(float(h) for h in np.atleast_1d(half_widths))
        if any(h <= 0.0 for h in hw):
            raise ValueError(f"half-widths must be positive, got {hw}")
        if points < 8:
            raise ValueError(f"need at least 8 points per axis, got {points}")
        if points ** len(hw) > GRID_NODE_BUDGET:
            raise ValueError(
                f"{points}^{len(hw)} nodes exceeds the budget {GRID_NODE_BUDGET}"
            )
        object.__setattr__(self, "half_widths", hw)
        object.__setattr__(self, "points", int(points))

    @classmethod
    def cube(cls, half_width: float, dim: int, points: int) -> "GridSpec":
        return cls((half_width,) * dim, points)

    @property
    def dim(self) -> int:
        return len(self.half_widths)

    @property
    def spacing(self) -> tuple:
        return tuple(2.0 * h / (self.points - 1) for h in self.half_widths)

    def axes(self) -> list:
        return [np.linspace(-h, h, self.points) for h in self.half_widths]

    def shape(self) -> tuple:
        return (self.points,) * self.dim

    def axis_coordinate(self, ax: int) -> np.ndarray:
        """Axis coordinates shaped to broadcast along their own axis."""
        shape = [1] * self.dim
        shape[ax] = self.points
        return self.axes()[ax].reshape(shape)

    def flat_points(self) -> np.ndarray:
        """All nodes in lexicographic order as an (N, dim) array."""
        grids = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)


@dataclass(frozen=True)
class GridFunction:
    """Sampled field over a tensor grid."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != self.spec.shape():
            raise ValueError(
                f"values shape {v.shape} does not match grid shape {self.spec.shape()}"
            )
        object.__setattr__(self, "values", v)

    def save_csv(self, path: str) -> None:
        """Header row of coordinate names plus re,im; one node per row."""
        dim = self.spec.dim
        names = [f"{'x' if k % 2 == 0 else 'y'}{k // 2 + 1}" for k in range(dim)]
        pts = self.spec.flat_points()
        vals = np.asarray(self.values, dtype=complex).ravel()
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(names + ["re", "im"]) + "\n")
            for row, v in zip(pts, vals):
                cells = [repr(float(x)) for x in row]
                cells += [repr(float(v.real)), repr(float(v.imag))]
                fh.write(",".join(cells) + "\n")
        os.replace(tmp, path)

    @classmethod
    def load_csv(cls, path: str, spec: GridSpec) -> "GridFunction":
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if data.shape[0] != spec.points ** spec.dim:
            raise ValueError(
                f"{path} has {data.shape[0]} rows, expected {spec.points ** spec.dim}"
            )
        vals = (data[:, -2] + 1j * data[:, -1]).reshape(spec.shape())
        return cls(spec, vals)


def _directions(spec: GridSpec) -> list:
    """Complex coordinate x_j + i y_j per direction, broadcast over its two axes."""
    return [spec.axis_coordinate(2 * j) + 1j * spec.axis_coordinate(2 * j + 1)
            for j in range(spec.dim // 2)]


def sample_on_grid(f, spec: GridSpec, S: SpectralData) -> GridFunction:
    """Data ``f`` at every node c of an adapted grid, taken at the point z = V c.

    ``f`` maps a (..., n) complex array of points to values of shape (...).
    """
    c = np.stack(np.broadcast_arrays(*_directions(spec)), axis=-1)
    return GridFunction(spec, np.asarray(f(c @ S.V.T)))


def _effective_mu(S: SpectralData) -> np.ndarray:
    mu = np.array(S.mu)
    mu[S.nu :] = 0.0
    return mu


def sample_rho_hat(s: float, spec: GridSpec, S: SpectralData, L: FormIndex) -> np.ndarray:
    """rho_hat over a grid, assembled in log space with broadcasting."""
    n, m, nu = S.n, S.m, S.nu
    if spec.dim != 2 * n:
        raise ValueError(f"grid has {spec.dim} axes, expected 2n = {2 * n}")
    eps = epsilon(L, S)
    log_rho = np.full(spec.shape(), (n - nu) * (np.log(2.0) - np.log(s))
                      - (0.5 * m + n) * np.log(2.0 * np.pi))
    for j in range(n):
        sq = spec.axis_coordinate(2 * j) ** 2 + spec.axis_coordinate(2 * j + 1) ** 2
        if j < nu:
            log_rho += log_mu_sinh_factor(s, S.mu[j], eps[j]) - mu_coth(s, S.mu[j]) * sq
        else:
            log_rho -= sq / s
    return np.exp(log_rho)


def _slices(ndim: int, ax: int, sl: slice) -> tuple:
    idx = [slice(None)] * ndim
    idx[ax] = sl
    return tuple(idx)


def apply_box_ll_lambda(f: GridFunction, S: SpectralData, L: FormIndex) -> GridFunction:
    """Apply the operator with central differences; NaN on the boundary ring."""
    spec = f.spec
    n = S.n
    if spec.dim != 2 * n:
        raise ValueError(f"grid has {spec.dim} axes, expected 2n = {2 * n}")
    if spec.points < 8:
        raise ValueError("grid too small for the interior stencil")
    L.validate_against(n)
    v = np.asarray(f.values)
    ndim = spec.dim
    h = spec.spacing
    mu = _effective_mu(S)

    out = np.zeros(spec.shape(), dtype=np.result_type(v.dtype, complex))
    # -1/4 Laplacian
    for ax in range(ndim):
        mid = _slices(ndim, ax, slice(1, -1))
        up = _slices(ndim, ax, slice(2, None))
        dn = _slices(ndim, ax, slice(0, -2))
        out[mid] += (-0.25 / h[ax] ** 2) * (v[up] - 2.0 * v[mid] + v[dn])
    # rotation drift i mu_k (y_k d_x - x_k d_y)
    for k in range(n):
        if mu[k] == 0.0:
            continue
        xk = spec.axis_coordinate(2 * k)
        yk = spec.axis_coordinate(2 * k + 1)
        for ax, coeff in ((2 * k, yk), (2 * k + 1, -xk)):
            mid = _slices(ndim, ax, slice(1, -1))
            up = _slices(ndim, ax, slice(2, None))
            dn = _slices(ndim, ax, slice(0, -2))
            grad = (v[up] - v[dn]) / (2.0 * h[ax])
            out[mid] += 1j * mu[k] * np.broadcast_to(coeff, spec.shape())[mid] * grad
    # quadratic potential and the constant shift
    pot = np.zeros(spec.shape())
    for k in range(n):
        pot += mu[k] ** 2 * (
            spec.axis_coordinate(2 * k) ** 2 + spec.axis_coordinate(2 * k + 1) ** 2
        )
    const = sum(mu[k] if L.contains(k + 1) else -mu[k] for k in range(n))
    out += (pot - const) * v

    for ax in range(ndim):
        out[_slices(ndim, ax, slice(0, 1))] = np.nan
        out[_slices(ndim, ax, slice(-1, None))] = np.nan
    return GridFunction(spec, out)


def pde_residual(
    s: float, S: SpectralData, L: FormIndex, grid: GridSpec, hs: float
) -> float:
    """Max-norm residual of the closed-form kernel in the discrete heat equation.

    Samples rho_hat at s - hs, s, s + hs, forms the central time difference
    plus the stencil operator at s, and normalizes by the max interior time
    derivative.  Second order in both the grid spacing and hs.
    """
    if s - hs <= 0.0:
        raise ValueError(f"need s - hs > 0, got s={s}, hs={hs}")
    rho_m = sample_rho_hat(s - hs, grid, S, L)
    rho_p = sample_rho_hat(s + hs, grid, S, L)
    rho_0 = sample_rho_hat(s, grid, S, L)
    dt = (rho_p - rho_m) / (2.0 * hs)
    box = apply_box_ll_lambda(GridFunction(grid, rho_0), S, L).values
    interior = tuple(slice(1, -1) for _ in range(grid.dim))
    num = float(np.max(np.abs(dt[interior] + box[interior])))
    den = float(np.max(np.abs(dt[interior])))
    return num / den


def heat_apply(
    f: GridFunction, s: float, Q: QuadricForm, S: SpectralData, L: FormIndex,
    out_points, tail_tol: float = 1e-6,
) -> list:
    """Evolve sampled initial data by integrating the two-point kernel.

    The grid of ``f`` is in adapted coordinates w.  With c = V^H z, the
    weighted kernel at an output point z factorises over directions as

        pref * prod_j exp(-a_j |c_j - w_j|^2 - 2i mu_j Im(conj(w_j) c_j)),

    a_j = |mu_j| coth(|mu_j| s) in the rank block and 1/s in the kernel block;
    the phase is lambda . Im phi(z, V w) in the eigenbasis.  ``pref``, the
    kernel's peak, comes from log space, so no factor exceeds 1 in modulus.
    Per output point, one P x P factor per direction (times its axes'
    trapezoid weights) is contracted with ``f``: O(N) time and no N-sized
    temporary beyond one complex copy of ``f``.  ``Q`` is unused; ``S``
    carries the form.  Raises NumericsError when the boundary values of
    kernel x data suggest mass outside the grid above ``tail_tol``.
    """
    if s <= 0.0:
        raise ValueError(f"time s must be positive, got {s}")
    spec = f.spec
    n, nu, dim = S.n, S.nu, spec.dim
    if dim != 2 * n:
        raise ValueError(f"grid has {dim} axes, expected 2n = {2 * n}")
    log_fac, rates = _log_rho_factors(s, S, L)
    rates = np.concatenate([rates, np.full(n - nu, 1.0 / s)])
    pref = float(np.exp((n - nu) * (np.log(2.0) - np.log(s))
                        - n * np.log(2.0 * np.pi) + np.sum(log_fac)))
    mu = _effective_mu(S)
    nodes = _directions(spec)
    axw = [axis_nodes(QuadratureSpec(h, spec.points))[1] for h in spec.half_widths]
    weights = [np.outer(axw[2 * j], axw[2 * j + 1]) for j in range(n)]
    faces = [_slices(dim, ax, end) for ax in range(dim)
             for end in (slice(0, 1), slice(-1, None))]
    sides = 2.0 * np.array(spec.half_widths)
    area = float(2.0 * np.prod(sides) * np.sum(1.0 / sides))  # of the faces
    v = np.asarray(f.values, dtype=complex)
    out = []
    for z in out_points:
        c = S.V.conj().T @ np.asarray(z, dtype=complex).reshape(-1)
        mods = [np.exp(-rates[j] * np.abs(c[j] - nodes[j]) ** 2) for j in range(n)]
        edge = max(float(reduce(np.multiply, [m[i] for m in mods], np.abs(v[i])).max())
                   for i in faces)
        tail = pref * edge * area
        if tail > tail_tol:
            raise NumericsError(f"boundary tail estimate {tail:.3e} exceeds "
                                f"{tail_tol:.3e}; enlarge the grid box")
        acc = v  # contract direction j against the leading axes (2j, 2j + 1)
        for j in range(n):
            phase = np.exp(-2j * mu[j] * (np.conj(nodes[j]) * c[j]).imag)
            acc = np.tensordot((mods[j] * phase).squeeze() * weights[j], acc, 2)
        out.append(complex(pref * acc))
    return out


def semigroup_check(
    s1: float, s2: float, z, zt, Q: QuadricForm, S: SpectralData, L: FormIndex,
    quad: QuadratureSpec, phase_sign: float = -1.0,
) -> float:
    """Relative defect of kernel composition against the kernel at s1 + s2.

    Computes | int H(s1, z, w) H(s2, w, zt) dw - H(s1+s2, z, zt) | relative
    to |H(s1+s2, z, zt)| by tensor quadrature over w.  This exercises the
    oscillatory phase nontrivially.  ``phase_sign`` other than -1 corrupts
    the kernels inside the composition integral (the reference stays
    physical), the deliberate negative control.
    """
    if s1 <= 0.0 or s2 <= 0.0:
        raise ValueError("both times must be positive")
    n = S.n
    z = np.asarray(z, dtype=complex).reshape(-1)
    zt = np.asarray(zt, dtype=complex).reshape(-1)
    pts, wts = tensor_nodes(quad, 2 * n)
    w = pts[:, 0::2] + 1j * pts[:, 1::2]
    k1 = weighted_heat_kernel_batch(s1, z, w, Q, S, L, phase_sign=phase_sign)
    # H(s2, w, zt) batched over its first argument, via evenness of rho_hat
    # and antisymmetry of Im phi in its two slots.
    cdiff = (zt - w) @ np.conj(S.V)
    mag = (2.0 * np.pi) ** (0.5 * S.m) * rho_hat_adapted(s2, cdiff, S, L)
    k2 = mag * np.exp(-2j * phase_sign * _phase_arg(Q, S.lam, zt, w))
    value = np.sum(wts * k1 * k2)
    ref = weighted_heat_kernel(s1 + s2, z, zt, Q, S, L)
    return float(abs(value - ref) / abs(ref))


def initial_condition_check(
    f, s_list, Q: QuadricForm, S: SpectralData, L: FormIndex,
    box_half_width: float = 3.0, base_points: int = 19, growth: float = 0.6,
) -> list:
    """Errors |H{f}(s, 0) - f(0)| along a decreasing list of times.

    ``f`` maps a (..., n) complex array of points to values of shape (...)
    and must have Gaussian decay.  Grids refine as s shrinks (points ~
    s^-growth) so the kernel stays resolved; with well-chosen parameters the
    errors decrease monotonically along the list.
    """
    n = S.n
    s_ref = float(s_list[0])
    errors = []
    origin = np.zeros(n, dtype=complex)
    f0 = complex(np.asarray(f(origin[None, :])).ravel()[0])
    for s in s_list:
        pts_per_axis = int(np.ceil(base_points * (s_ref / float(s)) ** growth))
        pts_per_axis = max(base_points, pts_per_axis)
        if pts_per_axis % 2 == 0:
            pts_per_axis += 1
        gf = sample_on_grid(f, GridSpec.cube(box_half_width, 2 * n, pts_per_axis), S)
        val = heat_apply(gf, float(s), Q, S, L, [origin])[0]
        errors.append(abs(val - f0))
    return errors
