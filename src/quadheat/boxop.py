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
Eigenvalues below the rank tolerance are the exact zeros spectral stores.  The
operator is a sum of parts B_j on the axes of direction j, each a sum of
terms phase * X (x) Y of three-point maps along axes 2j and 2j + 1
(_direction_maps).  apply_box_ll_lambda applies them to arbitrary fields,
and pde_residual to rho_hat's one Gaussian per axis, so its residual field
is 2 + 4n rank-one terms, reduced with no N-node array.

Every grid is a quadrature.GridSpec.  sample_rho_hat, pde_residual's Gaussians and
heat_apply's per-direction rates and peaks come from kernel._log_rho_parts, the one assembly
of the closed form.  heat_apply, the one convolution engine, reads a field one slab of axis 0 at
a time, a GridFunction's rows or a SampledField's samples (evolve's expression data, the semigroup
check's and initial_condition_check's, none stored), and contracts it with the weighted kernel, a
Gaussian-times-phase vector per adapted axis, for every (time, point) pair in that one pass.
It and SampledField call BLAS only through _gemm, real products that stay on the calling thread.

write_grid_csv is the one grid CSV writer (scan, GridFunction.save_csv): it
takes each distinct row tail formatted once and a per-node key into them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial, reduce
from itertools import count

import numpy as np

from .errors import NumericsError
from .forms import FormIndex
# rho_hat_adapted, weighted_heat_kernel and tensor_nodes stay in this namespace for callers that
# instrument them.
from .kernel import (  # noqa: F401
    _log_rho_parts,
    rho_hat_adapted,
    weighted_heat_kernel,
    weighted_heat_kernel_batch,
)
from .quadric import QuadricForm
from .quadrature import GridSpec, aliasing_bound, tail_bound, tensor_nodes  # noqa: F401
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

    def slabs(self):  # as SampledField.slabs, its values' views
        rows = max(1, _SLAB_NODES // self.spec.points ** (self.spec.dim - 1))
        return ((i, self.values[i : i + rows]) for i in range(0, self.spec.points, rows))

    def save_csv(self, path: str) -> None:
        """Header row of coordinate names plus re,im; one node per row, its re and im
        each the repr of its float (-0.0, inf and nan as Python writes them)."""
        pairs = np.stack([np.real(self.values), np.imag(self.values)], axis=-1, dtype=float).reshape(-1, 2)
        write_grid_csv(path, self.spec, ["re", "im"], [f"{a!r},{b!r}" for a, b in pairs.tolist()],
                       np.arange(len(pairs)).reshape(self.spec.shape()))

    @classmethod
    def load_csv(cls, path: str, spec: GridSpec) -> "GridFunction":
        """Read a save_csv file whose coordinate columns are the nodes of ``spec``, checked one by one."""
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        N, dim, P = spec.points ** spec.dim, spec.dim, spec.points
        if data.shape != (N, dim + 2):
            raise ValueError(f"{path} has {data.shape} rows x columns, expected {(N, dim + 2)}")
        ok = np.ones(N, bool)  # seen as (P^k, P, rest), column k runs along axis k in its middle index
        for k, (axis, h) in enumerate(zip(spec.axes(), spec.spacing)):  # False on NaN
            ok &= (np.abs(data[:, k].reshape(P**k, P, -1) - axis[:, None]) <= 1e-9 * h).ravel()
        if not ok.all():
            i = int(np.argmin(ok))
            node = [float(a[j]) for a, j in zip(spec.axes(), np.unravel_index(i, spec.shape()))]
            raise ValueError(f"{path} line {i + 2}: coordinates {data[i, :dim].tolist()} "
                             f"are not the grid node {node}")
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


def write_grid_csv(path: str, spec: GridSpec, names, tails, key, comments=()) -> None:
    """Atomic CSV: ``comments`` lines, a header of the coordinate names and
    ``names``, then per node (in ``flat_points`` order) its coordinates and
    ``tails[key[node]]``, its cells after the coordinates joined by commas.

    ``key`` is an integer array broadcastable to the grid.  Each axis is
    formatted once.  The file is streamed one block of axis 0 at a time, each
    block one join of its rows' pieces, laid side by side by slice assignment.
    """
    axes = [repr(a.tolist())[1:-1].split(", ") for a in spec.axes()]
    rest = [""]  # the cells of axes 1..dim-1, each with its comma, of every row in a block
    for cells in axes[1:]:
        rest = [r + c + "," for r in rest for c in cells]
    tails = np.asarray(tails, dtype=object)

    def rows():
        coords = [f"{'x' if k % 2 == 0 else 'y'}{k // 2 + 1}" for k in range(spec.dim)]
        yield "".join(f"{c}\n" for c in comments) + ",".join(coords + list(names)) + "\n"
        pieces = ["\n"] * (4 * len(rest))  # per row: axis 0, the other axes, the tail, "\n"
        pieces[1::4] = rest
        for x0, block in zip(axes[0], np.broadcast_to(key, spec.shape()).reshape(spec.points, -1)):
            pieces[0::4] = [f"{x0},"] * len(rest)
            pieces[2::4] = tails[block].tolist()
            yield "".join(pieces)

    write_atomic(path, rows())


_SLAB_NODES = 2**15  # nodes per slab of axis 0, so a slab and its temporaries stay in cache
# Largest M * N * K of one real product: OpenBLAS 0.3.31 (2-vCPU Xeon) ran dgemm on the calling
_GEMM_SIZE = 2**18  # thread up to 7.9e5, and woke its spinning workers from 1.05e6 (zgemm from 6.6e4)


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.matmul(a, b) of real stacks in column blocks of b, each M * N * K <= _GEMM_SIZE if M * K is."""
    out = np.empty(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1]))
    cols = max(1, _GEMM_SIZE // (a.shape[-2] * a.shape[-1]))
    for c in range(0, b.shape[-1], cols):
        np.matmul(a, b[..., c : c + cols], out=out[..., c : c + cols])
    return out


@dataclass(frozen=True)
class SampledField:
    """Data ``f`` at every node c of an adapted grid, taken at the point z = V c, slab by slab.

    ``f(x1, y1, ..., xn, yn)`` must be elementwise: slabs() calls it on each slab of rows of axis 0
    (about _SLAB_NODES nodes) with Re and Im of z as 2n real arrays, and yields the slab's first
    row and the result broadcast to it.  A coordinate, one real P x P term per direction, is one
    rank-2 product [head, 1] @ [1; tail] (_gemm): direction 0's term, the others' sum (0 at n = 1)."""

    spec: GridSpec
    f: object
    S: SpectralData

    def slabs(self):
        spec, S = self.spec, self.S
        _check_dim(spec, S.n)
        real_v = np.kron(S.V.real, np.eye(2)) + np.kron(S.V.imag, [[0.0, -1.0], [1.0, 0.0]])
        terms = [[r[k] * spec.axis_coordinate(k) + r[k + 1] * spec.axis_coordinate(k + 1)
                  for k in range(0, spec.dim, 2)] for r in real_v]
        P, rows = spec.points, max(1, _SLAB_NODES // spec.points ** (spec.dim - 1))
        heads = np.stack(np.broadcast_arrays([t[0].ravel() for t in terms], 1.0), axis=-1)
        tails = np.stack(np.broadcast_arrays(1.0, [reduce(np.add, t[1:] or [np.zeros(1)]).ravel()
                                                   for t in terms]), axis=1)
        for i in range(0, P, rows):  # no name holds a result while f makes the next one
            yield i, np.broadcast_to(self.f(*_gemm(heads[:, i * P : (i + rows) * P], tails).reshape(
                (len(terms), -1) + spec.shape()[1:])), (min(rows, P - i),) + spec.shape()[1:])


def _check_dim(spec: GridSpec, n: int) -> None:
    if spec.dim != 2 * n:
        raise ValueError(f"grid has {spec.dim} axes, expected 2n = {2 * n}")


def sample_rho_hat(s: float, spec: GridSpec, S: SpectralData, L: FormIndex) -> np.ndarray:
    """rho_hat over a grid, assembled in log space with broadcasting: one term
    per direction j along its own axes 2j, 2j + 1, the constant in the first."""
    _check_dim(spec, S.n)
    const, log_fac, rates = _log_rho_parts(s, S, L)
    terms = [f - a * q for f, a, q in zip(log_fac, rates, spec.squared_radii())]
    return np.exp(reduce(np.add, [const + terms[0]] + terms[1:]))


def _direction_maps(spec: GridSpec, j: int, S: SpectralData, L: FormIndex) -> list:
    """B_j as terms (phase, X, Y), B_j = sum phase X (x) Y, with X an _apply_map
    map along axis 2j and Y one along axis 2j + 1 (None: the identity).

    B_j is the operator's part in direction j (0-based): -1/4 the Laplacian in
    (x_j, y_j), the drift i mu_j (y_j d/dx_j - x_j d/dy_j) and mu_j^2 (x_j^2 + y_j^2)
    -+ mu_j (- for j + 1 in L).  The operator is sum_j B_j.
    """
    (hx, hy), mu = spec.spacing[2 * j : 2 * j + 2], S.mu[j]
    x, y = (spec.axes()[ax][1:-1] for ax in (2 * j, 2 * j + 1))
    shift = mu if L.contains(j + 1) else -mu
    maps = [(1.0, (-0.25 / hx**2, 0.0, mu**2 * x**2 - shift), None),
            (1.0, None, (-0.25 / hy**2, 0.0, mu**2 * y**2))]
    drift = [(1j * mu, (0.0, 0.5 / hx, 0.0), (0.0, 0.0, y)),
             (1j * mu, (0.0, 0.0, -x), (0.0, 0.5 / hy, 0.0))]
    return maps + drift if mu != 0.0 else maps


def _apply_map(m: tuple, v: np.ndarray, ax: int) -> np.ndarray:
    """c2 (v+ - 2 v + v-) + c1 (v+ - v-) + d v over the interior of axis ``ax``
    for m = (c2, c1, d), v+- the neighbours along ``ax`` and d a scalar or one
    weight per interior node, or that interior itself (a view) for m = None;
    the other axes of ``v`` are kept."""
    lo, mid, hi = (v[(slice(None),) * ax + (slice(k, v.shape[ax] - 2 + k),)] for k in range(3))
    if m is None:
        return mid
    c2, c1, d = m
    terms = [np.reshape(d, (-1,) + (1,) * (v.ndim - ax - 1)) * mid] if np.any(d) else []
    terms += [c2 * (hi - 2.0 * mid + lo)] if c2 else []
    return reduce(np.add, terms + ([c1 * (hi - lo)] if c1 else []))


def apply_box_ll_lambda(f: GridFunction, S: SpectralData, L: FormIndex) -> GridFunction:
    """Apply the operator with central differences; NaN on the boundary ring.

    Sums the terms of every B_j (_direction_maps), each applied to ``f`` along
    its two axes over the interior.
    """
    spec, n = f.spec, S.n
    _check_dim(spec, n)
    L.validate_against(n)
    v = np.asarray(f.values)
    out = np.full(spec.shape(), np.nan, dtype=np.result_type(v.dtype, complex))
    inner = (slice(1, -1),) * spec.dim  # B_j needs the whole extent of axes 2j, 2j + 1
    fields = [v[inner[: 2 * j] + (slice(None),) * 2 + inner[2 * j + 2:]] for j in range(n)]
    out[inner] = sum(p * _apply_map(X, _apply_map(Y, fields[j], 2 * j + 1), 2 * j)
                     for j in range(n) for p, X, Y in _direction_maps(spec, j, S, L))
    return GridFunction(spec, out)


_BLOCK_ROWS = 16  # rows per block of pde_residual's max-norm


def _normalized_max(terms) -> float:
    """sqrt of the max over the nodes of |sum_t row_t (x) col_t|^2 summed over the
    parts of ``terms`` (lists of (row, col) pairs), over the max of |the first
    part's terms 0 and 1|, the time difference; _BLOCK_ROWS rows at a time.  Each
    part's term sum is one np.matmul (OpenBLAS, on the calling thread at these
    sizes) or, for one term, np.einsum, 3x faster there."""
    parts = [tuple(np.array(v) for v in zip(*t)) for t in terms if t]  # (rows, cols) stacks
    n_rows, n_cols = parts[0][0].shape[1], parts[0][1].shape[1]
    acc = np.empty((len(parts) + 1, min(_BLOCK_ROWS, n_rows), n_cols))  # the parts, scratch
    top = top_dt = 0.0
    for i in range(0, n_rows, _BLOCK_ROWS):
        a, q, b = acc[:-1, : n_rows - i], acc[-1, : n_rows - i], slice(i, i + _BLOCK_ROWS)
        np.matmul(parts[0][0][:2, b].T, parts[0][1][:2], out=q)
        top_dt = max(top_dt, q.max(), -q.min())
        for p, (rows, cols) in enumerate(parts):
            term_sum = np.matmul if len(rows) > 1 else partial(np.einsum, "it,tj->ij")
            term_sum(rows[:, b].T, cols, out=a[p])
        top = max(top, np.einsum("pij,pij->ij", a, a, out=q).max())
    return float(np.sqrt(top) / top_dt)


def _residual_terms(s: float, S: SpectralData, L: FormIndex, grid: GridSpec, hs: float) -> tuple:
    """pde_residual's (row, col) vector pairs on ``grid``: the real part's, the time
    difference first, and the imaginary part's."""
    for name, value in (("s", s), ("hs", hs)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if hs <= 0.0:
        raise ValueError(f"need hs > 0, got hs={hs}")
    if s - hs <= 0.0:
        raise ValueError(f"need s - hs > 0, got s={s}, hs={hs}")
    n, axes = S.n, grid.axes()
    _check_dim(grid, n)

    const, log_fac, rates = _log_rho_parts(np.array([s, s + hs, s - hs]), S, L)
    log_c = const + np.sum(log_fac, axis=-1)  # log C(t) and each axis's Gaussian at the three times
    e, *e_dt = [[np.exp(-r[k // 2] * x**2) for k, x in enumerate(axes)] for r in rates]
    inner = [g[1:-1] for g in e]
    terms = ([], [])  # (row, col) vectors of the real and the imaginary part's terms

    def add(part: int, coef: float, vecs: list) -> None:  # None: the factor before spans two axes
        r, c = (reduce(np.multiply.outer, [v for v in half if v is not None]).ravel()
                for half in (vecs[:n], vecs[n:]))
        terms[part].append((coef * r, c))

    for sign, log_ct, et in zip((1.0, -1.0), log_c[1:], e_dt):  # the time difference, first
        add(0, sign * np.exp(log_ct - log_c[0]) / (2.0 * hs), [g[1:-1] for g in et])
    for j in range(n):
        maps = [(complex(p), _apply_map(X, e[2 * j], 0), _apply_map(Y, e[2 * j + 1], 0))
                for p, X, Y in _direction_maps(grid, j, S, L)]
        for part, take in enumerate((np.real, np.imag)):
            kept = [(take(p), x, y) for p, x, y in maps if take(p)]
            if kept and 2 * j + 1 != n:  # on one side of the split: one P x P factor
                kept = [(1.0, sum(c * np.multiply.outer(x, y) for c, x, y in kept), None)]
            for c, x, y in kept:
                add(part, c, inner[: 2 * j] + [x, y] + inner[2 * j + 2:])
    return terms


def pde_residual(
    s: float, S: SpectralData, L: FormIndex, grid: GridSpec, hs: float
) -> float:
    """Max-norm residual of the closed-form kernel in the discrete heat equation.

    Forms the central time difference of rho_hat over s - hs, s + hs plus the
    stencil operator at s, and normalizes by the max interior time derivative.
    Second order in both the grid spacing and hs.  rho_hat(t) is C(t) times
    one Gaussian per axis, and the terms of _direction_maps map the Gaussians
    of their two axes alone, so with C(s) divided out the residual field is a
    sum of 2 + 4n outer products of 1-D vectors: a matrix from the first n
    axes (rows) to the last n, where a direction on one side sums its terms
    into one.  _normalized_max reduces it by blocks of rows, so no N-node array
    exists: 11-23 ms wall and 1.3 MB on a 2-vCPU Xeon at n = 1 on 2001^2 and
    n = 2 on 49^4 (the acceptance tests' grids), on the calling thread alone.
    """
    return _normalized_max(_residual_terms(s, S, L, grid, hs))


def pde_residual_richardson(s: float, S: SpectralData, L: FormIndex, grid: GridSpec, hs: float) -> tuple:
    """Fourth-order (4 R_h - R_2h) / 3 and second-order R_h over the interior of the
    every-other-node subgrid of ``grid`` (odd points per axis), normalized as in
    pde_residual.  R_h's terms are cut to those nodes; its operator terms times
    4/3, R_2h's times -1/3 and the time difference (equal on both grids) once keep
    the field low-rank: 1.1-2.2 ms at n = 1 on 401^2 and n = 2 on 25^4 (2-vCPU Xeon).
    """
    if grid.points % 2 == 0 or grid.points < 15:  # the subgrid needs 8 points per axis
        raise ValueError(f"need an odd number of points per axis, at least 15, got {grid.points}")
    fine = _residual_terms(s, S, L, grid, hs)
    coarse = _residual_terms(s, S, L, GridSpec(grid.half_widths, (grid.points + 1) // 2), hs)
    shape, every_other = (grid.points - 2,) * S.n, (slice(1, None, 2),) * S.n
    fine = [[tuple(v.reshape(shape)[every_other].ravel() for v in t) for t in part] for part in fine]
    ops = [[(r * (4.0 / 3.0), c) for r, c in f] + [(r * (-1.0 / 3.0), c) for r, c in g]
           for f, g in ((fine[0][2:], coarse[0][2:]), (fine[1], coarse[1]))]
    return _normalized_max([fine[0][:2] + ops[0], ops[1]]), _normalized_max(fine)


def _axis_vectors(spec: GridSpec, c: np.ndarray, rates: np.ndarray, mu: np.ndarray) -> tuple:
    """heat_apply's per-axis centres and vectors at the adapted output point c: for axis k of
    direction j = k // 2, the centre c_k and the 1-D kernel vector exp(-a_j (x - c_k)^2) w_k
    exp(-+2i mu_j x cbar_k); c_k, cbar_k = Re c_j, Im c_j on x-axes (-), else swapped (+)."""
    own, other = (np.stack(p, axis=-1).ravel() for p in ((c.real, c.imag), (-c.imag, c.real)))
    return own, [np.exp(-rates[k // 2] * (x - own[k]) ** 2) * w * np.exp(2j * mu[k // 2] * other[k] * x)
                 for k, (w, x) in enumerate(zip(spec.weights(), spec.axes()))]


def heat_apply(field, s, S: SpectralData, L: FormIndex, out_points) -> list:
    """Evolve sampled initial data by integrating the two-point kernel.

    ``field`` (a GridFunction or SampledField) lies on a grid in adapted coordinates w; ``s`` is
    one time or one per output point.  With c = V^H z, the weighted kernel at z factorises as

        pref * prod_j exp(-a_j |c_j - w_j|^2 - 2i mu_j Im(conj(w_j) c_j)),

    the rates a_j and, in log space, the peak ``pref`` from kernel._log_rho_parts; the phase is
    lambda . Im phi(z, V w) in the eigenbasis.  Per (time, point) pair each direction's weighted
    factor is an outer product of one vector per axis (_axis_vectors).  One pass over the field's
    slabs counts non-finite nodes, takes max |f| on the faces and contracts axes 1.. for up to
    P // 2 + 1 pairs at a time, axis 1 by one real product (_gemm); axis 0 follows at the end.
    Then raises ValueError if the data is not finite, and NumericsError if pref is not finite, c
    is outside the box, or the tail may exceed HEAT_TAIL_TOL: pref times tail_bound of the
    per-axis Gaussians at c, times max |f| on the faces, assumed to bound |f| beyond the box.
    That bounds what the box's extent drops, not whether the grid resolves the kernel.
    """
    spec, K, P, d = field.spec, len(out_points), field.spec.points, field.spec.dim
    _check_dim(spec, S.n)
    const, log_fac, rates = _log_rho_parts(s, S, L)
    times, rates = np.broadcast_to(s, (K,)), np.broadcast_to(rates, (K, S.n))
    with np.errstate(over="ignore"):  # an overflowed peak is refused below
        pref = np.broadcast_to((2.0 * np.pi) ** (0.5 * S.m) * np.exp(const + np.sum(log_fac, axis=-1)), (K,))
    pairs = [_axis_vectors(spec, S.V.conj().T @ np.ravel(z), r, S.mu) for z, r in zip(out_points, rates)]
    vecs = np.array([v for _, v in pairs], complex).reshape(K, d, P)  # at c = V^H z, per pair and axis
    per = max(1, min(P // 2 + 1, _GEMM_SIZE // (64 * P)))  # pairs per product, so w is at most about
    # a slab and each product's a at most 1/32 of _GEMM_SIZE; faces: a row's nodes on axes 1..'s faces
    faces = np.flatnonzero(np.pad(np.zeros((P - 2,) * (d - 1), bool), 1, constant_values=True))
    acc, bad, edge = np.empty((K, 2, 2, P), complex), 0, 0.0
    for i, slab in field.slabs():
        slab, rows = np.ascontiguousarray(slab, np.result_type(slab, float)), len(slab)
        bad += slab.size - np.count_nonzero(np.isfinite(slab))
        if ends := [e - i for e in (0, P - 1) if i <= e < i + rows]:  # its rows on axis 0's faces
            edge = max(edge, np.abs(slab[ends]).max())
        edge = max(edge, np.abs(slab.reshape(rows, -1).take(faces, axis=1)).max())
        for g in range(0, K, per):  # axes 1 and 2 (n = 1: a unit axis 2) by their vectors' Re and Im
            v, z = vecs[g : g + per], vecs[g : g + per, 2] if d > 2 else np.ones((min(per, K - g), 1))
            w = _gemm(np.concatenate([v[:, 1].real, v[:, 1].imag]), slab.reshape(rows, P, -1).view(float))
            # axis 2 by einsum keeps the parts Re y, Im y times Re z, Im z real (complex z: 4x slower); each
            # later axis, last first, is a two-operand einsum's innermost, so groupings sum alike (n >= 2)
            e = np.einsum("cqj,iaqjr->qcair", [z.real, z.imag], w.reshape(rows, 2, len(v), len(z[0]), -1))
            e = e.view(slab.dtype).reshape((len(v), 2, 2, rows) + (P,) * (d - 3))
            for k in range(d - 1, 2, -1):
                e = np.einsum("q...k,qk->q...", e.astype(complex, copy=False), v[:, k])
            acc[g : g + per, :, :, i : i + rows] = e
        slab = w = None  # so the next slab is made without them
    if bad:
        raise ValueError(f"initial data is not finite at {bad} of {P ** d} grid nodes")
    for k, (c, _) in enumerate(pairs):
        if not np.isfinite(pref[k]):
            raise NumericsError(f"kernel peak {pref[k]} at s={float(times[k])!r} is not finite")
        if not np.all(np.abs(c) <= spec.half_widths):
            raise NumericsError(f"out_points[{k}] lies outside the grid box at adapted coordinates {c}")
        if not (tail := pref[k] * tail_bound(spec, np.repeat(rates[k], 2), edge, c)) <= HEAT_TAIL_TOL:
            raise NumericsError(f"boundary tail bound {tail:.3e} exceeds "
                                f"{HEAT_TAIL_TOL:.3e}; enlarge the grid box")
    parts = (acc[:, 0, 0] - acc[:, 1, 1]) + 1j * (acc[:, 0, 1] + acc[:, 1, 0])  # y z = sum over the parts
    return [complex(p * a) for p, a in zip(pref, np.einsum("qi,qi->q", parts, vecs[:, 0]))]


def semigroup_check(
    s1: float, s2: float, z, zt, Q: QuadricForm, S: SpectralData, L: FormIndex,
    quad: GridSpec | None = None, phase_sign: float = -1.0,
) -> float:
    """Relative defect of kernel composition against the kernel at s1 + s2.

    heat_apply applies H(s1) at z to H(s2, w, zt), a SampledField of
    weighted_heat_kernel_batch read slab by slab, and the result is compared
    with H(s1 + s2, z, zt).  heat_apply's phase is taken in the eigenbasis, the
    batch's in original coordinates, so a fault in either shows (the batch's
    (2 pi)^{m/2} cancels).  ``phase_sign`` other than -1 corrupts the sampled
    kernel alone, the deliberate negative control.

    Without ``quad`` the adapted cube covers z, zt and the radius where the
    integrand's Gaussian, of rate A_j = a_j(s1) + a_j(s2) in direction j, falls
    to 1e-12.  Its points per axis are the fewest, from a guess, whose
    aliasing_bounds b_i of the pairs (x_i, y_i), at rate 1 / (4 max A) and phase
    frequency 2 (Im d_i, Re d_i), d = 2 mu V^H (z - zt),
    give prod_i (1 + b_i) - 1 <= 1e-12.
    """
    if s1 <= 0.0 or s2 <= 0.0:
        raise ValueError("both times must be positive")
    z, zt = (np.asarray(v, dtype=complex).reshape(-1) for v in (z, zt))
    if quad is None:
        rates, tol = _log_rho_parts(np.array([s1, s2]), S, L)[2].sum(axis=0), 1e-12
        half = max(np.linalg.norm(z), np.linalg.norm(zt)) + np.sqrt(-np.log(tol) / rates.min())
        d = 2.0 * S.mu * (S.V.conj().T @ (z - zt))
        guess = int(half * (np.abs(d).max() + 2.0 * np.sqrt(-np.log(tol) * rates.max())) / np.pi) + 1
        points = next(p for p in count(max(8, guess)) if np.expm1(np.sum(np.log1p(aliasing_bound(
            GridSpec.cube(half, 2, p), 0.25 / rates.max(), 1.0, d.imag, d.real)))) <= tol)
        quad = GridSpec.cube(half, 2 * S.n, points)

    def second(*xy):  # H(s2, w, zt) at w = x + i y
        w = np.stack([x + 1j * y for x, y in zip(xy[0::2], xy[1::2])], axis=-1)
        return weighted_heat_kernel_batch(s2, w, zt, Q, S, L, phase_sign=phase_sign)

    value = heat_apply(SampledField(quad, second, S), s1, S, L, out_points=[z])[0]
    ref = weighted_heat_kernel_batch(s1 + s2, z, zt, Q, S, L)
    return float(abs(value - ref) / abs(ref))


def initial_condition_check(f, s_list, S: SpectralData, L: FormIndex) -> list:
    """Errors |H{f}(s, 0) - f(0)| along a decreasing list of times.

    ``f(x1, y1, ..., xn, yn)`` takes real coordinates as in SampledField
    and must have Gaussian decay.  The box has half-width 3; its points per
    axis, odd and at least 19, grow like s^-0.6 from 19 at the first time, so
    the kernel stays resolved and the errors decrease along the list.
    """
    n, s_ref, errors = S.n, float(s_list[0]), []
    origin = np.zeros(n, dtype=complex)
    f0 = complex(np.ravel(f(*np.zeros(2 * n)))[0])
    for s in s_list:
        points = max(19, int(np.ceil(19 * (s_ref / float(s)) ** 0.6)))
        field = SampledField(GridSpec.cube(3.0, 2 * n, points + 1 - points % 2), f, S)
        errors.append(abs(heat_apply(field, float(s), S, L, out_points=[origin])[0] - f0))
    return errors
