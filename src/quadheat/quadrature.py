"""Tensor grids on boxes and the trapezoid rule over them.

GridSpec is the package's one grid type: per-axis half-widths, a common
point count per axis and the node budget.  The stencil grids, heat_apply's
convolution, the semigroup composition box and the Fourier-inversion boxes
all use it.  Integrands here are smooth with Gaussian decay, where the
trapezoid rule converges spectrally; their decay rate describes the
integrand, not the grid, so it is an argument of the a priori bounds that
callers use to refuse under-resolved requests: tail_bound on what truncating
the rule to the box drops and aliasing_bound on the rule's aliasing error.

Reductions sum node values with numpy's pairwise summation in a fixed order,
so repeated runs are bit-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

NODE_BUDGET = 10**8


@dataclass(frozen=True)
class GridSpec:
    """Tensor grid on a box: per-axis half-widths and a common point count."""

    half_widths: tuple
    points: int

    def __init__(self, half_widths, points: int):
        hw = tuple(float(h) for h in np.atleast_1d(half_widths))
        if not all(0.0 < h < np.inf for h in hw):
            raise ValueError(f"half-widths must be positive and finite, got {hw}")
        if points < 8:
            raise ValueError(f"need at least 8 points per axis, got {points}")
        if points ** len(hw) > NODE_BUDGET:
            raise ValueError(f"{points}^{len(hw)} nodes exceeds the budget {NODE_BUDGET}")
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

    @cached_property  # each axis's nodes, built once per grid; read-only, as every caller shares them
    def _axes(self) -> tuple:
        nodes = np.linspace(np.negative(self.half_widths), self.half_widths, self.points, axis=-1)
        nodes.flags.writeable = False
        return tuple(nodes)

    def axes(self) -> list:
        return list(self._axes)

    def weights(self) -> list:
        """Trapezoid weights per axis: the step x[1] - x[0] of its nodes, halved at the ends."""
        out = [np.full(self.points, x[1] - x[0]) for x in self._axes]
        for w in out:
            w[[0, -1]] *= 0.5
        return out

    def shape(self) -> tuple:
        return (self.points,) * self.dim

    def axis_coordinate(self, ax: int) -> np.ndarray:
        """Axis coordinates shaped to broadcast along their own axis."""
        shape = [1] * self.dim
        shape[ax] = self.points
        return self._axes[ax].reshape(shape)

    def squared_radii(self) -> list:
        """x_j^2 + y_j^2 of each axis pair (2j, 2j + 1), shaped to broadcast."""
        return [self.axis_coordinate(k) ** 2 + self.axis_coordinate(k + 1) ** 2
                for k in range(0, self.dim - 1, 2)]

    def flat_points(self) -> np.ndarray:
        """All nodes in lexicographic order as an (N, dim) array."""
        grids = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)


def tensor_nodes(spec: GridSpec, d: int) -> tuple[np.ndarray, np.ndarray]:
    """All nodes of the tensor trapezoid rule as an (N, d) array with their
    weights; ``d`` must be ``spec.dim``."""
    if d != spec.dim:
        raise ValueError(f"grid has {spec.dim} axes, expected {d}")
    wts = np.ones(spec.points**d)
    for g in np.meshgrid(*spec.weights(), indexing="ij"):
        wts *= g.ravel()
    return spec.flat_points(), wts


def integrate_with_estimate(f, spec: GridSpec, d: int, rate: float) -> tuple[complex, float]:
    """Trapezoid integral of ``f`` over the box plus its tail bound.

    ``f`` maps an (N, d) array of points to N complex values; ``rate`` is its
    Gaussian decay rate, and the tail bound is scaled by max |f| on the nodes.
    """
    pts, wts = tensor_nodes(spec, d)
    vals = np.asarray(f(pts))
    if vals.shape != (pts.shape[0],):
        raise ValueError(f"integrand returned shape {vals.shape}, expected ({pts.shape[0]},)")
    value = complex(np.sum(wts * vals))
    scale = float(np.max(np.abs(vals))) if vals.size else 0.0
    return value, tail_bound(spec, rate, scale)


def tail_bound(spec: GridSpec, rate, boundary_max: float, centre=0.0) -> float:
    """Bound on what truncating the trapezoid rule to the box drops from an
    integrand of modulus at most boundary_max prod_i exp(-rate_i (x_i - c_i)^2).

    ``rate`` and ``centre`` are one value or one per axis, each c in [-R, R].  Per axis of step h,
    f = exp(-rate (a - c)^2) loses h f(R) / 2 and h f(R + k h), k >= 1, on the side at distance
    d = R -+ c from c: at most h f(R) (1/2 + q_1 / (1 - q_2)), as f(R + h) = q_1 f(R), q_1 =
    exp(-rate h (2d + h)), and each later ratio is at most q_2 = exp(-rate h (2d + 3h)).  With t
    the two sides' sum and m the rule's own sum of f, the bound is boundary_max (prod (m + t) - prod m).
    """
    rates, centres = (np.broadcast_to(np.asarray(v, dtype=float), (spec.dim,)) for v in (rate, centre))
    if not (np.all(rates > 0.0) and np.all(np.abs(centres) <= spec.half_widths)):
        raise ValueError(f"need positive rates and centres in the box, got rate {rate}, centre {centre}")
    dropped, kept = 0.0, 1.0  # prod (m + t) - prod m and prod m over the axes so far
    for x, w, R, h, a, c in zip(spec.axes(), spec.weights(), spec.half_widths, spec.spacing, rates, centres):
        m = float(np.sum(w * np.exp(-a * (x - c) * (x - c))))
        d = np.array([R - c, R + c])
        beyond = np.exp(-a * h * (2.0 * d + h)) / -np.expm1(-a * h * (2.0 * d + 3.0 * h))
        t = float(np.mean(2.0 * h * np.exp(-a * d * d) * (0.5 + beyond)))  # the two sides' sum
        dropped, kept = dropped * (m + t) + t * kept, kept * m
    return boundary_max * float(dropped)


def aliasing_bound(spec: GridSpec, rate: float, scale: float, x, y) -> np.ndarray:
    """Bound on the 2-D trapezoid rule's aliasing error at samples (x, y) for an
    integrand exp(i(a x + b y)) g(a, b) whose integral I has modulus at most
    scale exp(-rate (x^2 + y^2)).  By Poisson summation the unbounded rule of
    step h per axis sums the copies of I shifted by 2 pi l / h; per axis those
    with l != 0 add at most 2 exp(-rate d^2) / (1 - exp(-2 rate T d)) with
    T = 2 pi / h and d = max(T - |x|, T / 2), plus 1 when |x| > T / 2."""
    if spec.dim != 2:
        raise ValueError(f"aliasing_bound needs a 2-D grid, got {spec.dim} axes")
    near, copies = [], []
    for t, h in zip(np.broadcast_arrays(np.asarray(x, dtype=float), y), spec.spacing):
        T = 2.0 * np.pi / h
        d = np.maximum(T - np.abs(t), 0.5 * T)
        near.append(np.exp(-rate * t * t))
        copies.append(2.0 * np.exp(-rate * d * d) / -np.expm1(-2.0 * rate * T * d) + (np.abs(t) > 0.5 * T))
    return scale * (near[0] * copies[1] + copies[0] * (near[1] + copies[1]))
