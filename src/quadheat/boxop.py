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
Eigenvalues below the rank tolerance are treated as exact zeros.  The
operator is a sum of parts B_j, each acting on the axes of direction j only,
and rho_hat is a product of per-direction factors, so pde_residual applies
B_j to each P x P factor alone; apply_box_ll_lambda, the full-grid stencil
for arbitrary fields, sums the same B_j.

Every grid is a quadrature.GridSpec, and convolution-style integrals use its
trapezoid weights and face area.  The grid factors of rho_hat (_log_rho_terms) and heat_apply's per-direction
rates and peak come from kernel._log_rho_parts, the one assembly of the
closed form.  heat_apply evaluates the weighted kernel on the grid's own
adapted coordinates, where kernel and phase are one factor per direction, and
contracts those factors with the field.  The semigroup check composes
weighted_heat_kernel_batch with itself over a GridSpec box in original
coordinates.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import reduce
from itertools import product, repeat
from operator import iadd

import numpy as np

from .errors import NumericsError
from .forms import FormIndex
# rho_hat_adapted stays in this namespace for callers that instrument it.
from .kernel import (  # noqa: F401
    _log_rho_parts,
    rho_hat_adapted,
    weighted_heat_kernel,
    weighted_heat_kernel_batch,
)
from .quadric import QuadricForm
from .quadrature import GridSpec, tensor_nodes
from .spectral import SpectralData

HEAT_TAIL_TOL = 1e-6


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
        vals = np.asarray(self.values, dtype=complex).ravel()
        write_grid_csv(path, self.spec, {"re": vals.real, "im": vals.imag})

    @classmethod
    def load_csv(cls, path: str, spec: GridSpec) -> "GridFunction":
        """Read a save_csv file whose coordinate columns are the nodes of ``spec``."""
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        N, dim = spec.points ** spec.dim, spec.dim
        if data.shape != (N, dim + 2):
            raise ValueError(f"{path} has {data.shape} rows x columns, expected {(N, dim + 2)}")
        nodes = spec.flat_points()
        ok = np.abs(data[:, :dim] - nodes) <= 1e-9 * np.array(spec.spacing)  # False on NaN
        if not ok.all():
            i = int(np.argmin(ok.all(axis=1)))
            raise ValueError(f"{path} line {i + 2}: coordinates {data[i, :dim].tolist()} "
                             f"are not the grid node {nodes[i].tolist()}")
        re, im = data[:, -2], data[:, -1]  # an all-zero im column loads as a real field
        return cls(spec, (re + 1j * im if im.any() else re.copy()).reshape(spec.shape()))


def write_atomic(path: str, chunks) -> None:
    """Write text chunks to ``path + '.tmp'``, then rename it onto ``path``.

    If anything raises first, the temporary is removed, so ``path`` is never
    left partial, streamed output included.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # only when the rename was not reached
            os.unlink(tmp)


def write_grid_csv(path: str, spec: GridSpec, columns: dict, comments=()) -> None:
    """Atomic CSV: ``comments`` lines, a header, then per node (in ``flat_points``
    order) its coordinates and one cell per ``columns`` array of per-node floats.

    Cells are shortest round-trip reprs.  Each axis is formatted once, each
    column once per index of axis 0 by one list repr, written as one block.
    """
    names = [f"{'x' if k % 2 == 0 else 'y'}{k // 2 + 1}" for k in range(spec.dim)]
    axes = [repr(a.tolist())[1:-1].split(", ") for a in spec.axes()]
    # Coordinate cells of axes 1..dim-1, shared by every block; none on a 1-D grid.
    rest = [[",".join(t) for t in product(*axes[1:])]] if spec.dim > 1 else []
    blocks = [np.asarray(c, dtype=float).reshape(spec.points, -1) for c in columns.values()]

    def rows():
        yield "".join(f"{c}\n" for c in comments) + ",".join(names + list(columns)) + "\n"
        for x0, *vals in zip(axes[0], *blocks):
            cells = [repr(v.tolist())[1:-1].split(", ") for v in vals]
            yield "\n".join(map(",".join, zip(repeat(x0), *rest, *cells))) + "\n"

    write_atomic(path, rows())


def _directions(spec: GridSpec) -> list:
    """Complex coordinate x_j + i y_j per direction, broadcast over its two axes."""
    return [spec.axis_coordinate(2 * j) + 1j * spec.axis_coordinate(2 * j + 1)
            for j in range(spec.dim // 2)]


def sample_on_grid(f, spec: GridSpec, S: SpectralData) -> GridFunction:
    """Data ``f`` at every node c of an adapted grid, taken at the point z = V c.

    ``f(x1, y1, ..., xn, yn)`` gets the real and imaginary parts of z, in the
    grid's axis order, as 2n real arrays that broadcast to the grid shape; its
    result is broadcast to the grid shape.  Each coordinate is a sum over j of
    Re or Im of V[k, j] (x_j + i y_j), one P x P term per direction, so the
    only N-sized arrays are the 2n coordinates and whatever ``f`` makes.
    """
    dirs = _directions(spec)
    xy = [reduce(np.add, [part(v * c) for v, c in zip(row, dirs)])
          for row in S.V for part in (np.real, np.imag)]
    return GridFunction(spec, np.broadcast_to(f(*xy), spec.shape()))


def _log_rho_terms(s: float, spec: GridSpec, S: SpectralData, L: FormIndex) -> list:
    """log rho_hat over a grid as one term per direction j, shaped to broadcast
    along its own axes 2j, 2j + 1; the constant is folded into the first."""
    if spec.dim != 2 * S.n:
        raise ValueError(f"grid has {spec.dim} axes, expected 2n = {2 * S.n}")
    const, log_fac, rates = _log_rho_parts(s, S, L)
    sq = [spec.axis_coordinate(2 * j) ** 2 + spec.axis_coordinate(2 * j + 1) ** 2 for j in range(S.n)]
    terms = [f - a * q for f, a, q in zip(log_fac, rates, sq)]
    return [const + terms[0]] + terms[1:]


def sample_rho_hat(s: float, spec: GridSpec, S: SpectralData, L: FormIndex) -> np.ndarray:
    """rho_hat over a grid, assembled in log space with broadcasting."""
    return np.exp(reduce(np.add, _log_rho_terms(s, spec, S, L)))


def _interior(a: np.ndarray) -> np.ndarray:
    """Drop the first and last node of every axis that is not broadcast (length 1)."""
    return a[tuple(slice(1, -1) if d > 1 else slice(None) for d in a.shape)]


def _box_direction(v: np.ndarray, spec: GridSpec, j: int, S: SpectralData, L: FormIndex):
    """B_j v over the interior of axes 2j, 2j + 1; the other axes of ``v`` are kept.

    B_j is the operator's part in direction j (0-based): -1/4 the Laplacian in
    (x_j, y_j), the drift i mu_j (y_j d/dx_j - x_j d/dy_j) and mu_j^2 (x_j^2 + y_j^2)
    -+ mu_j (- for j + 1 in L).  The operator is sum_j B_j.
    """
    P, (hx, hy) = spec.points, spec.spacing[2 * j : 2 * j + 2]
    mu = S.mu[j] if j < S.nu else 0.0

    def at(dx: int, dy: int) -> np.ndarray:  # v shifted by (dx, dy) nodes
        return v[(slice(None),) * 2 * j + (slice(1 + dx, P - 1 + dx), slice(1 + dy, P - 1 + dy))]

    x, y = (_interior(spec.axis_coordinate(ax)) for ax in (2 * j, 2 * j + 1))
    c = at(0, 0)
    out = (-0.25 / hx**2) * (at(1, 0) - 2.0 * c + at(-1, 0))
    out += (-0.25 / hy**2) * (at(0, 1) - 2.0 * c + at(0, -1))
    if mu != 0.0:
        out = out + 1j * mu * y * ((at(1, 0) - at(-1, 0)) / (2.0 * hx))
        out += 1j * mu * -x * ((at(0, 1) - at(0, -1)) / (2.0 * hy))
    shift = mu if L.contains(j + 1) else -mu
    out += (mu**2 * (x**2 + y**2) - shift) * c
    return out


def apply_box_ll_lambda(f: GridFunction, S: SpectralData, L: FormIndex) -> GridFunction:
    """Apply the operator with central differences; NaN on the boundary ring.

    Sums the per-direction parts B_j, each applied to ``f`` over the interior.
    """
    spec, n = f.spec, S.n
    if spec.dim != 2 * n:
        raise ValueError(f"grid has {spec.dim} axes, expected 2n = {2 * n}")
    L.validate_against(n)
    v = np.asarray(f.values)
    out = np.full(spec.shape(), np.nan, dtype=np.result_type(v.dtype, complex))
    inner = (slice(1, -1),) * spec.dim  # B_j needs the whole extent of axes 2j, 2j + 1
    out[inner] = sum(_box_direction(v[inner[: 2 * j] + (slice(None),) * 2 + inner[2 * j + 2:]],
                                    spec, j, S, L) for j in range(n))
    return GridFunction(spec, out)


def pde_residual(
    s: float, S: SpectralData, L: FormIndex, grid: GridSpec, hs: float
) -> float:
    """Max-norm residual of the closed-form kernel in the discrete heat equation.

    Forms the central time difference of rho_hat over s - hs, s + hs plus the
    stencil operator at s, and normalizes by the max interior time derivative.
    Second order in both the grid spacing and hs.  rho_hat is the product of
    per-direction factors g_j(x_j, y_j), each exponentiated on its own P x P
    axes, and the stencil on a product is exactly sum_j (B_j g_j) prod_{k!=j} g_k,
    so B_j runs on g_j alone.  The only N-sized work left is the broadcast
    products of factors, their sum and the two maxima.
    """
    if s - hs <= 0.0:
        raise ValueError(f"need s - hs > 0, got s={s}, hs={hs}")

    def rho(t: float) -> np.ndarray:
        return reduce(np.multiply, [_interior(np.exp(x)) for x in _log_rho_terms(t, grid, S, L)])

    dt = (rho(s + hs) - rho(s - hs)) / (2.0 * hs)
    g = [np.exp(x) for x in _log_rho_terms(s, grid, S, L)]
    terms = (reduce(np.multiply, [_interior(g[k]) for k in range(S.n) if k != j],
                    _box_direction(g[j], grid, j, S, L)) for j in range(S.n))
    res = reduce(iadd, terms, dt + next(terms))  # summed in place, one term at a time
    return float(np.max(np.abs(res))) / float(np.max(np.abs(dt)))


def heat_apply(
    f: GridFunction, s: float, S: SpectralData, L: FormIndex, out_points,
) -> list:
    """Evolve sampled initial data by integrating the two-point kernel.

    The grid of ``f`` is in adapted coordinates w.  With c = V^H z, the
    weighted kernel at an output point z factorises over directions as

        pref * prod_j exp(-a_j |c_j - w_j|^2 - 2i mu_j Im(conj(w_j) c_j)),

    with the rates a_j and, in log space, the peak ``pref`` both taken from
    kernel._log_rho_parts, so no factor exceeds 1 in modulus; the phase is
    lambda . Im phi(z, V w) in the eigenbasis, so ``S`` carries the form.
    Per output point, one P x P factor per direction (times its axes'
    trapezoid weights) is contracted with ``f``: O(N) time and no N-sized
    temporary: a real ``f`` takes its first contraction as two real products,
    so it is never copied to complex.  Raises NumericsError when
    the boundary values of kernel x data suggest mass outside the grid above
    HEAT_TAIL_TOL.
    """
    if s <= 0.0:
        raise ValueError(f"time s must be positive, got {s}")
    spec = f.spec
    n, nu, dim = S.n, S.nu, spec.dim
    if dim != 2 * n:
        raise ValueError(f"grid has {dim} axes, expected 2n = {2 * n}")
    const, log_fac, rates = _log_rho_parts(s, S, L)
    pref = float((2.0 * np.pi) ** (0.5 * S.m) * np.exp(const + np.sum(log_fac)))
    mu = np.where(np.arange(n) < nu, S.mu, 0.0)  # below-tolerance eigenvalues as exact zeros
    nodes = _directions(spec)
    axw = spec.weights()
    weights = [np.outer(axw[2 * j], axw[2 * j + 1]) for j in range(n)]
    faces = [(slice(None),) * ax + (end,) for ax in range(dim)
             for end in (slice(0, 1), slice(-1, None))]
    v = f.values
    out = []
    for z in out_points:
        c = S.V.conj().T @ np.asarray(z, dtype=complex).reshape(-1)
        mods = [np.exp(-rates[j] * np.abs(c[j] - nodes[j]) ** 2) for j in range(n)]
        edge = max(float(reduce(np.multiply, [m[i] for m in mods], np.abs(v[i])).max())
                   for i in faces)
        tail = pref * edge * spec.face_area()
        if tail > HEAT_TAIL_TOL:
            raise NumericsError(f"boundary tail estimate {tail:.3e} exceeds "
                                f"{HEAT_TAIL_TOL:.3e}; enlarge the grid box")
        acc = v  # contract direction j against the leading axes (2j, 2j + 1)
        for j in range(n):
            phase = np.exp(-2j * mu[j] * (np.conj(nodes[j]) * c[j]).imag)
            k = (mods[j] * phase).squeeze() * weights[j]
            acc = (np.tensordot(k, acc, 2) if np.iscomplexobj(acc)
                   else np.tensordot(k.real, acc, 2) + 1j * np.tensordot(k.imag, acc, 2))
        out.append(complex(pref * acc))
    return out


def semigroup_check(
    s1: float, s2: float, z, zt, Q: QuadricForm, S: SpectralData, L: FormIndex,
    quad: GridSpec, phase_sign: float = -1.0,
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
    k2 = weighted_heat_kernel_batch(s2, w, zt, Q, S, L, phase_sign=phase_sign)
    value = np.sum(wts * k1 * k2)
    ref = weighted_heat_kernel(s1 + s2, z, zt, Q, S, L)
    return float(abs(value - ref) / abs(ref))


def initial_condition_check(
    f, s_list, S: SpectralData, L: FormIndex,
    box_half_width: float = 3.0, base_points: int = 19,
) -> list:
    """Errors |H{f}(s, 0) - f(0)| along a decreasing list of times.

    ``f(x1, y1, ..., xn, yn)`` takes real coordinates as in sample_on_grid
    and must have Gaussian decay.  Grids refine as s shrinks (points ~
    s^-0.6) so the kernel stays resolved; with well-chosen parameters the
    errors decrease monotonically along the list.
    """
    n = S.n
    s_ref = float(s_list[0])
    errors = []
    origin = np.zeros(n, dtype=complex)
    f0 = complex(np.ravel(f(*np.zeros(2 * n)))[0])
    for s in s_list:
        pts_per_axis = int(np.ceil(base_points * (s_ref / float(s)) ** 0.6))
        pts_per_axis = max(base_points, pts_per_axis)
        if pts_per_axis % 2 == 0:
            pts_per_axis += 1
        gf = sample_on_grid(f, GridSpec.cube(box_half_width, 2 * n, pts_per_axis), S)
        val = heat_apply(gf, float(s), S, L, out_points=[origin])[0]
        errors.append(abs(val - f0))
    return errors
