"""Closed-form heat kernels on the transform side, and their inversion oracle.

The partial Fourier transform of the fundamental solution factorizes over the
eigenbasis: a Euclidean Gaussian pair for each kernel direction of the form
and, for each nonzero eigenvalue mu_j, the factor

    2 exp(s eps_j |mu_j|) |mu_j| / sinh(s |mu_j|)
      * exp(-|mu_j| coth(|mu_j| s) (x_j^2 + y_j^2)).

mu / sinh(s mu) and mu coth(mu s) are even in mu, so all factor arithmetic
runs on |mu|; the kernel directions' mu are the exact zeros of spectral's rank
cut, so their rate is mu_coth's 1/s.  The product is assembled in log space in
one place, _log_rho_parts (constant, per-direction log-prefactors and rates), which
rho_hat_eta and boxop's grid factors also use; log_rho_hat sums it over
squared adapted magnitudes and rho_hat_adapted exponentiates that once, so
products of up to 16 exp(+-s|mu|)/sinh factors cannot overflow.  Factors take
their branch elementwise, so s may be times broadcasting against the points.

The two-point weighted kernel multiplies the one-point kernel at z - zt by
the oscillatory phase exp(-2i lambda . Im phi(z, zt)), which
weighted_heat_kernel_batch evaluates with the original form
(boxop.heat_apply uses the eigenbasis sum).

rho_via_inversion reproduces the closed form from the transform-side
solution by inverse Fourier integration and is the package's strongest
independent oracle.  It and rho_hat_eta, the closed form it checks at
kernel-block frequency 0, take K samples of shape (K, nu) and return K
values.  The integral factorises into one 2-D trapezoid integral per rank
direction, so it runs at every rank (full-rank n = 2 included), on a box from
the direction's decay rate and a step from its aliasing bound (32 to 45 points
per axis at tol 1e-6); inversion_budget sums the tail and aliasing bounds into
the product's budget.  Its integrand's per-direction factor is
hermite.mehler_factor, the one the Mehler oracles multiply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .forms import FormIndex, epsilon
from .hermite import mehler_factor
from .quadric import QuadricForm
# integrate_with_estimate stays in this namespace for callers that instrument it.
from .quadrature import GridSpec, aliasing_bound, integrate_with_estimate, tail_bound  # noqa: F401
from .spectral import SpectralData

# Below this value of s|mu| the exact expressions cancel; switch to series.
SMALL_X_SWITCH = 1e-8


def _matmul_rows(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x @ m over the last axis of complex x in blocks of rows, each M * N * K <= 2^15: OpenBLAS woke
    its pool for zgemm from 6.6e4.  Rows matched one unblocked product bit for bit (n = 1, 2, 3, 12)."""
    flat, rows = x.reshape(-1, x.shape[-1]), max(1, 2**15 // m.size)
    blocks = [flat[i : i + rows] @ m for i in range(0, len(flat), rows)] or [flat @ m]
    return np.concatenate(blocks).reshape(x.shape[:-1] + m.shape[1:])


@dataclass(frozen=True)
class KernelQuery:
    """A single kernel evaluation request in original coordinates."""

    s: float
    z: np.ndarray
    spectral: SpectralData
    L: FormIndex

    def __post_init__(self):
        if self.s <= 0.0:
            raise ValueError(f"time s must be positive, got {self.s}")
        z = np.asarray(self.z, dtype=complex).reshape(-1)
        if z.shape != (self.spectral.n,):
            raise ValueError(f"z must have length n={self.spectral.n}")
        object.__setattr__(self, "z", z)


def log_mu_sinh_factor(s, mu, eps):
    """log of 2 exp(s eps |mu|) |mu| / sinh(s |mu|), without overflow.

    Exact branch: log(4|mu|) + s(eps - 1)|mu| - log(-expm1(-2 s |mu|)).
    For s|mu| < 1e-8 the Taylor form log(2/s) + s eps |mu| - (s|mu|)^2/6
    avoids the cancellation at the removable singularity.  Even in mu, and
    elementwise over broadcast arrays (scalars in, a scalar out).
    """
    if np.any(s <= 0.0):
        raise ValueError(f"time s must be positive, got {np.min(s)}")
    if np.any(np.asarray(mu) == 0.0):
        raise ValueError("mu must be nonzero; zero modes use the Euclidean factor")
    am = np.abs(mu)
    x = s * am
    with np.errstate(all="ignore"):  # the branch not taken may divide by 0 or overflow
        return np.where(x < SMALL_X_SWITCH, np.log(2.0 / s) + eps * x - x * x / 6.0,
                        np.log(4.0 * am) + (eps - 1.0) * x - np.log(-np.expm1(-2.0 * x)))[()]


def mu_coth(s, mu):
    """|mu| coth(|mu| s), the Gaussian decay rate of one kernel factor.

    For s|mu| < 1e-8 uses 1/s + s mu^2 / 3 (1/s at mu = 0).  Even in mu, and
    elementwise over broadcast arrays (scalars in, a scalar out).
    """
    if np.any(s <= 0.0):
        raise ValueError(f"time s must be positive, got {np.min(s)}")
    am = np.abs(mu)
    x = s * am
    with np.errstate(all="ignore"):  # 0 / tanh(0) where mu = 0
        return np.where(x < SMALL_X_SWITCH, 1.0 / s + s * mu * mu / 3.0, am / np.tanh(x))[()]


def _log_rho_parts(s, S: SpectralData, L: FormIndex):
    """The pieces of log rho_hat, assembled here and nowhere else.

    log rho_hat(c) = const + sum_j (log_fac_j - rates_j |c_j|^2) over all n
    directions, const = -(m/2 + n) log(2 pi).  Rank directions j < nu take
    log_mu_sinh_factor and mu_coth; kernel directions the Euclidean pair
    log(2/s) and 1/s, the mu -> 0 limit of the same factor.  ``s`` may have
    any shape; log_fac and rates have shape s.shape + (n,).
    """
    n, nu = S.n, S.nu
    s = np.asarray(s, dtype=float)[..., None]  # times on the leading axes, directions on the last
    rates = mu_coth(s, S.mu)  # raises for s <= 0
    euclid = np.broadcast_to(np.log(2.0) - np.log(s), s.shape[:-1] + (n - nu,))
    log_fac = np.concatenate([log_mu_sinh_factor(s, S.mu[:nu], epsilon(L, S)), euclid], axis=-1)
    return -(0.5 * S.m + n) * np.log(2.0 * np.pi), log_fac, rates


def log_rho_hat(s, sq, S: SpectralData, L: FormIndex):
    """log rho_hat at squared adapted magnitudes ``sq`` = |c|^2 of shape (..., n).

    ``s`` broadcasts against the leading axes of ``sq``.  Adds the constant,
    minus the kernel-block sum times 1/s (as one division, the order scan's
    recorded bytes come from), then plus the rank-block sum.
    """
    sq = np.asarray(sq, dtype=float)
    if sq.shape[-1:] != (S.n,):
        raise ValueError(f"adapted coordinates must have length n={S.n}")
    const, log_fac, rates = _log_rho_parts(s, S, L)
    nu = S.nu
    out = (np.sum(log_fac[..., nu:], axis=-1) + const) - np.sum(sq[..., nu:], axis=-1) / np.asarray(s)
    if nu:
        out = out + np.sum(log_fac[..., :nu] - rates[..., :nu] * sq[..., :nu], axis=-1)
    return out


def rho_hat_adapted(s, c, S: SpectralData, L: FormIndex):
    """Kernel value at adapted complex coordinates; vectorized over leading axes.

    ``c`` has shape (..., n) with c_j the coefficient along eigenvector j, and
    ``s`` broadcasts against its leading axes.  Returns a real array (...).
    """
    c = np.asarray(c, dtype=complex)
    return np.exp(log_rho_hat(s, c.real**2 + c.imag**2, S, L))


def rho_hat(q: KernelQuery) -> float:
    """Partial Fourier transform of the fundamental solution at one point.

    Strictly positive; Gaussian decay in every adapted direction.
    """
    c = q.spectral.V.conj().T @ q.z
    return float(rho_hat_adapted(q.s, c, q.spectral, q.L))


def _samples(xp, yp, nu: int) -> tuple:
    """xp, yp as float arrays, checked to have shape (K, nu)."""
    xp, yp = np.asarray(xp, dtype=float), np.asarray(yp, dtype=float)
    if xp.ndim != 2 or xp.shape[1] != nu or yp.shape != xp.shape:
        raise ValueError(f"xp and yp must have shape (K, nu) with nu={nu}")
    return xp, yp


def rho_hat_eta(s: float, xp, yp, S: SpectralData, L: FormIndex):
    """Kernel with the kernel-block directions resolved in frequency, at
    kernel-block frequency 0: (2 pi)^{-(m/2+n)} times the rank-block factors
    at the K samples (xp, yp) of shape (K, nu), K values."""
    xp, yp = _samples(xp, yp, S.nu)
    const, log_fac, rates = _log_rho_parts(s, S, L)
    rank = np.sum(log_fac[: S.nu] - rates[: S.nu] * (xp**2 + yp**2), axis=-1)
    return np.exp(const + rank)


def weighted_heat_kernel_batch(
    s, z, Zt, Q: QuadricForm, S: SpectralData, L: FormIndex,
    phase_sign: float = -1.0,
) -> np.ndarray:
    """Two-point weighted kernel over batches of first and second points.

    ``z`` and ``Zt`` have shapes (..., n) that broadcast against each other,
    so either may be a single point, and ``s`` against their leading axes.
    ``phase_sign`` exists for ablation tests; the physical kernel uses the
    default -1 in exp(2i phase_sign lambda . Im phi(z, zt)).
    """
    z, Zt = np.asarray(z, dtype=complex), np.asarray(Zt, dtype=complex)
    mag = (2.0 * np.pi) ** (0.5 * S.m) * rho_hat_adapted(s, _matmul_rows(z - Zt, np.conj(S.V)), S, L)
    arg = np.zeros(np.broadcast_shapes(z.shape, Zt.shape)[:-1])  # lambda . Im phi(z, zt)
    for lk, a in zip(S.lam, Q.A):
        if lk != 0.0:
            arg = arg + lk * np.sum(np.conj(Zt) * _matmul_rows(z, a.T), axis=-1).imag
    return mag * np.exp(2j * phase_sign * arg)


def weighted_heat_kernel(
    s: float, z, zt, Q: QuadricForm, S: SpectralData, L: FormIndex
) -> complex:
    """(2 pi)^{m/2} rho_hat(z - zt) exp(-2i lambda . Im phi(z, zt)).

    Conjugate symmetric in (z, zt); modulus independent of the phase.
    """
    zt = np.asarray(zt, dtype=complex).reshape(-1)
    return complex(weighted_heat_kernel_batch(s, z, zt[None, :], Q, S, L)[0])


def inversion_rate(s, mu):
    """tanh(2|mu| s) / (8|mu|), the Gaussian decay rate in (a_j, b_j) of the inversion integrand
    of eigenvalue mu, which sizes its box and tail; elementwise, and mu = 0 raises ValueError."""
    if np.any(np.asarray(mu) == 0.0):
        raise ValueError("mu must be nonzero; the inversion integrates rank directions only")
    am = np.abs(mu)
    return np.tanh(2.0 * am * s) / (8.0 * am)


def inversion_quadspec(s: float, mu: float, tol: float) -> GridSpec:
    """Square box over the duals (a_j, b_j) of the rank direction with eigenvalue mu,
    sized from t = min(tol, 1e-6): half-width R puts the integrand's Gaussian at
    the boundary below 1e-3 t; step pi / rho puts the copies of the integral I_j,
    2 rho apart, below 1e-6 t of its peak within rho, where |I_j| is 1e-6 t."""
    t = min(tol, 1e-6)
    R = np.sqrt((np.log(1e3) - np.log(t)) / inversion_rate(s, mu))
    rho = np.sqrt((np.log(1e6) - np.log(t)) / mu_coth(s, mu))
    return GridSpec.cube(float(R), 2, int(np.ceil(2.0 * R * rho / np.pi)) + 1)


def _inversion_pref(S: SpectralData) -> float:
    """The inversion's normalization, (2 pi)^(-(2n + m + nu)/2)."""
    return (2.0 * np.pi) ** (-0.5 * (2 * S.n + S.m + S.nu))


def inversion_budget(s: float, xp, yp, S: SpectralData, L: FormIndex,
                     quad: GridSpec | None = None, tol: float = 1e-6):
    """A priori error budget of rho_via_inversion at samples of shape (K, nu).

    |mehler_factor| of direction j is F_j exp(-rate_j (a^2 + b^2)) (inversion_rate),
    so its integral I_j has modulus at most M_j = pi F_j / rate_j and decays like
    exp(-mu_coth(s, mu_j) (x^2 + y^2)).  On its grid (inversion_quadspec, or ``quad``)
    the trapezoid error is at most err_j = tail_bound + aliasing_bound at scale M_j,
    so the product's is at most pref (prod_j (M_j + err_j) - prod_j M_j), the
    budget, maximised over the samples.  Returns the grids, tails, largest
    aliasing bounds and budget; raises NumericsError above ``tol``."""
    eps, specs, tails, mass, alias = epsilon(L, S), [], [], [], []
    for j in range(S.nu):
        specs.append(quad if quad is not None else inversion_quadspec(s, S.mu[j], tol))
        rate, peak = inversion_rate(s, S.mu[j]), float(abs(mehler_factor(s, 0.0, 0.0, S.mu[j], eps[j])))
        tails.append(float(tail_bound(specs[j], rate, peak)))
        mass.append(np.pi * peak / rate)
        alias.append(aliasing_bound(specs[j], mu_coth(s, S.mu[j]), mass[j], xp[:, j], yp[:, j]))
    rel = np.log1p((np.array(tails)[:, None] + np.array(alias)) / np.array(mass)[:, None])
    budget = float(_inversion_pref(S) * np.prod(mass) * np.max(np.expm1(np.sum(rel, axis=0))))
    aliasing = np.max(alias, axis=1).tolist()
    if not budget <= tol:
        raise NumericsError(
            f"inversion tail and aliasing budget {budget:.3e} exceeds tolerance {tol:.3e}; per-direction "
            f"tails {[float(f'{t:.3e}') for t in tails]}, aliasing {[float(f'{a:.3e}') for a in aliasing]}")
    return specs, tails, aliasing, budget


def rho_via_inversion(
    s: float, xp, yp, S: SpectralData, L: FormIndex,
    quad: GridSpec | None = None, tol: float = 1e-6, phase_signs: tuple = (-1.0, -1.0),
):
    """Numerical inverse Fourier transform of the transform-side solution.

    The integrand exp(i(a.x' + b.y')) exp(-i/4 sum a_j b_j / mu_j) u~(s, a, b)
    is a product over rank directions j, so its integral is a product of one
    trapezoid integral I_j = e(x)^T G_j e(y), e(x) = exp(i a x), per direction on
    the P x P grid inversion_budget gives it (a 2-D GridSpec ``quad`` replaces
    every grid), G_j = w_a w_b^T o exp(-i a b / (4 mu_j)) o mehler_factor(s, a,
    b, mu_j, eps_j).  Times exp(-2i sum mu_j x_j y_j) and the normalization, it is
    an independent oracle for rho_hat_eta at the K samples ``xp``, ``yp`` of shape
    (K, nu), at kernel-block frequency 0.  inversion_budget raises NumericsError
    before any integration when the budget exceeds ``tol``.  Returns the K values and inversion_budget's
    (grids, tails, aliasing, budget).  ``phase_signs`` (twist, a.b phase;
    physically -1) exist for ablation tests.
    """
    if s <= 0.0:
        raise ValueError(f"time s must be positive, got {s}")
    nu = S.nu
    if nu < 1:
        raise ValueError("inversion needs nu >= 1")
    xp, yp = _samples(xp, yp, nu)
    budget = inversion_budget(s, xp, yp, S, L, quad, tol)
    twist_sign, ab_sign = phase_signs
    eps = epsilon(L, S)
    values = _inversion_pref(S) * np.exp(2j * twist_sign * np.sum(S.mu[:nu] * xp * yp, axis=1))
    for j, spec in enumerate(budget[0]):
        (a, b), (wa, wb) = spec.axes(), spec.weights()
        F = mehler_factor(s, a[:, None], b[None, :], S.mu[j], eps[j])
        F *= np.exp((0.25j * ab_sign / S.mu[j]) * np.outer(a, b))
        ex = wa * np.exp(1j * np.outer(xp[:, j], a))  # weights ride on e(x), e(y)
        ey = wb * np.exp(1j * np.outer(yp[:, j], b))
        # einsum, not a BLAS product: OpenBLAS threads would spin on after it
        values = values * np.einsum("kp,pq,kq->k", ex, F, ey)
    return values, budget
