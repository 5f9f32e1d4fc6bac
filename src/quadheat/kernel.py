"""Closed-form heat kernels on the transform side, and their inversion oracle.

The partial Fourier transform of the fundamental solution factorizes over the
eigenbasis: a Euclidean Gaussian pair for each kernel direction of the form
and, for each nonzero eigenvalue mu_j, the factor

    2 exp(s eps_j |mu_j|) |mu_j| / sinh(s |mu_j|)
      * exp(-|mu_j| coth(|mu_j| s) (x_j^2 + y_j^2)).

mu / sinh(s mu) and mu coth(mu s) are even in mu, so all factor arithmetic
runs on |mu|.  Exponent bookkeeping happens in log space and each evaluation
exponentiates once, so products of up to 16 exp(+-s|mu|)/sinh factors cannot
overflow.

The two-point weighted kernel multiplies the one-point kernel at z - zt by
the oscillatory phase exp(-2i lambda . Im phi(z, zt)), which the point kernels
here evaluate with the original form (boxop.heat_apply uses the eigenbasis sum).

rho_via_inversion reproduces the closed form from the transform-side
solution by inverse Fourier integration and is the package's strongest
independent oracle.  The integral factorises into one 2-D integral per rank
direction, each on its own box, so it runs at every rank (full-rank n = 2
included) and reports each direction's quadrature tail estimate and the
budget they give the product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .forms import FormIndex, epsilon
from .hermite import MehlerFactors, mehler_closed
from .quadric import QuadricForm
# integrate_with_estimate stays in this namespace for callers that instrument it.
from .quadrature import QuadratureSpec, axis_nodes, integrate_with_estimate, tail_bound  # noqa: F401
from .spectral import SpectralData

# Below this value of s|mu| the exact expressions cancel; switch to series.
SMALL_X_SWITCH = 1e-8


@dataclass(frozen=True)
class KernelQuery:
    """A single kernel evaluation request in original coordinates."""

    s: float
    z: np.ndarray
    spectral: SpectralData
    L: FormIndex
    eta: np.ndarray | None = None
    zt: np.ndarray | None = None

    def __post_init__(self):
        if self.s <= 0.0:
            raise ValueError(f"time s must be positive, got {self.s}")
        z = np.asarray(self.z, dtype=complex).reshape(-1)
        if z.shape != (self.spectral.n,):
            raise ValueError(f"z must have length n={self.spectral.n}")
        object.__setattr__(self, "z", z)


def log_mu_sinh_factor(s: float, mu: float, eps: int) -> float:
    """log of 2 exp(s eps |mu|) |mu| / sinh(s |mu|), without overflow.

    Exact branch: log(4|mu|) + s(eps - 1)|mu| - log(-expm1(-2 s |mu|)).
    For s|mu| < 1e-8 the Taylor form log(2/s) + s eps |mu| - (s|mu|)^2/6
    avoids the cancellation at the removable singularity.  Even in mu.
    """
    if s <= 0.0:
        raise ValueError(f"time s must be positive, got {s}")
    if mu == 0.0:
        raise ValueError("mu must be nonzero; zero modes use the Euclidean factor")
    am = abs(mu)
    x = s * am
    if x < SMALL_X_SWITCH:
        return np.log(2.0 / s) + eps * x - x * x / 6.0
    return np.log(4.0 * am) + (eps - 1.0) * x - np.log(-np.expm1(-2.0 * x))


def mu_coth(s: float, mu: float) -> float:
    """|mu| coth(|mu| s), the Gaussian decay rate of one kernel factor.

    For s|mu| < 1e-8 uses 1/s + s mu^2 / 3.  Even in mu.
    """
    if s <= 0.0:
        raise ValueError(f"time s must be positive, got {s}")
    am = abs(mu)
    x = s * am
    if x < SMALL_X_SWITCH:
        return 1.0 / s + s * mu * mu / 3.0
    return am / np.tanh(x)


def _log_rho_factors(s: float, S: SpectralData, L: FormIndex):
    """Shared log-prefactor and per-direction rates for the rank block."""
    eps = epsilon(L, S)
    logs = [log_mu_sinh_factor(s, S.mu[j], eps[j]) for j in range(S.nu)]
    rates = [mu_coth(s, S.mu[j]) for j in range(S.nu)]
    return np.array(logs), np.array(rates)


def rho_hat_adapted(s: float, c, S: SpectralData, L: FormIndex):
    """Kernel value at adapted complex coordinates; vectorized over leading axes.

    ``c`` has shape (..., n) with c_j the coefficient along eigenvector j.
    Returns a real array of shape (...).
    """
    if s <= 0.0:
        raise ValueError(f"time s must be positive, got {s}")
    c = np.asarray(c, dtype=complex)
    n, m, nu = S.n, S.m, S.nu
    if c.shape[-1] != n:
        raise ValueError(f"adapted coordinates must have length n={n}")
    sq = c.real**2 + c.imag**2
    log_fac, rates = _log_rho_factors(s, S, L)
    log_rho = (
        (n - nu) * (np.log(2.0) - np.log(s))
        - (0.5 * m + n) * np.log(2.0 * np.pi)
        - np.sum(sq[..., nu:], axis=-1) / s
    )
    if nu:
        log_rho = log_rho + np.sum(log_fac - rates * sq[..., :nu], axis=-1)
    return np.exp(log_rho)


def rho_hat(q: KernelQuery) -> float:
    """Partial Fourier transform of the fundamental solution at one point.

    Strictly positive; Gaussian decay in every adapted direction.
    """
    if q.eta is not None or q.zt is not None:
        raise ValueError("rho_hat takes a plain one-point query (no eta, no zt)")
    c = q.spectral.V.conj().T @ q.z
    return float(rho_hat_adapted(q.s, c, q.spectral, q.L))


def rho_hat_eta(s: float, xp, yp, eta, S: SpectralData, L: FormIndex) -> float:
    """Kernel with the kernel-block directions resolved in frequency.

    (2 pi)^{-(m/2+n)} exp(-s |eta|^2 / 4) times the rank-block factors at
    (xp, yp).  ``eta`` may be None when nu = n.
    """
    if s <= 0.0:
        raise ValueError(f"time s must be positive, got {s}")
    n, m, nu = S.n, S.m, S.nu
    xp = np.asarray(xp, dtype=float).reshape(-1)
    yp = np.asarray(yp, dtype=float).reshape(-1)
    if xp.shape != (nu,) or yp.shape != (nu,):
        raise ValueError(f"xp and yp must have length nu={nu}")
    eta = np.zeros(n - nu, dtype=complex) if eta is None else np.asarray(eta, dtype=complex).reshape(-1)
    if eta.shape != (n - nu,):
        raise ValueError(f"eta must have length n - nu = {n - nu}")
    log_fac, rates = _log_rho_factors(s, S, L)
    log_rho = -(0.5 * m + n) * np.log(2.0 * np.pi) - 0.25 * s * float(
        np.sum(np.abs(eta) ** 2)
    )
    if nu:
        log_rho += float(np.sum(log_fac - rates * (xp**2 + yp**2)))
    return float(np.exp(log_rho))


def _phase_arg(Q: QuadricForm, lam, z, Zt) -> np.ndarray:
    """lambda . Im phi(z, zt) for a batch of zt (shape (..., n))."""
    Zt = np.asarray(Zt, dtype=complex)
    out = np.zeros(Zt.shape[:-1])
    for lk, a in zip(lam, Q.A):
        if lk == 0.0:
            continue
        out = out + lk * np.sum(np.conj(Zt) * (a @ z), axis=-1).imag
    return out


def weighted_heat_kernel_batch(
    s: float, z, Zt, Q: QuadricForm, S: SpectralData, L: FormIndex,
    phase_sign: float = -1.0,
) -> np.ndarray:
    """Two-point weighted kernel against a batch of second points.

    ``Zt`` has shape (..., n).  ``phase_sign`` exists for ablation tests;
    the physical kernel uses the default -1 in exp(2i phase_sign lambda .
    Im phi(z, zt)).
    """
    if s <= 0.0:
        raise ValueError(f"time s must be positive, got {s}")
    if S.lam is None:
        raise ValueError("spectral data must carry its lambda vector")
    z = np.asarray(z, dtype=complex).reshape(-1)
    Zt = np.asarray(Zt, dtype=complex)
    diff = z - Zt
    c = diff @ np.conj(S.V)
    mag = (2.0 * np.pi) ** (0.5 * S.m) * rho_hat_adapted(s, c, S, L)
    phase = np.exp(2j * phase_sign * _phase_arg(Q, S.lam, z, Zt))
    return mag * phase


def weighted_heat_kernel(
    s: float, z, zt, Q: QuadricForm, S: SpectralData, L: FormIndex
) -> complex:
    """(2 pi)^{m/2} rho_hat(z - zt) exp(-2i lambda . Im phi(z, zt)).

    Conjugate symmetric in (z, zt); modulus independent of the phase.
    """
    zt = np.asarray(zt, dtype=complex).reshape(-1)
    return complex(weighted_heat_kernel_batch(s, z, zt[None, :], Q, S, L)[0])


def inversion_quadspec(
    s: float, S: SpectralData, tol: float = 1e-6, points: int = 512,
    rule: str = "trapezoid", direction: int = 0,
) -> QuadratureSpec:
    """Box over the duals (a_j, b_j) of rank direction j = ``direction``, sized
    so the integrand's Gaussian factor at the boundary is below 1e-3 times the
    requested tolerance."""
    if not 0 <= direction < S.nu:
        raise ValueError(f"direction {direction} is not a rank direction (nu={S.nu})")
    am = abs(float(S.mu[direction]))
    Sj = np.exp(-2.0 * am * s)
    rate = 0.5 * ((1.0 - Sj**2) / (1.0 + Sj**2)) / (4.0 * am)
    R = float(np.sqrt(np.log(1.0 / (1e-3 * tol)) / rate))
    return QuadratureSpec(half_width=R, points=points, rule=rule, tail_rate=rate)


def rho_via_inversion(
    s: float, xp, yp, eta, S: SpectralData, L: FormIndex,
    quad: QuadratureSpec | None = None, tol: float = 1e-6,
    return_budget: bool = False, phase_signs: tuple = (-1.0, -1.0),
):
    """Numerical inverse Fourier transform of the transform-side solution.

    The integrand exp(i(a.x' + b.y')) exp(-i/4 sum a_j b_j / mu_j) u~(s, a, b)
    is a product over rank directions j, so its integral is a product of one
    trapezoid integral I_j = e(x)^T G_j e(y), e(x) = exp(i a x), per direction
    on its own box (``quad`` overrides every box), with G_j = w w^T o
    exp(-i a b / (4 mu_j)) o S_j^((1-eps_j)/2) mehler_closed(-i S_j, alpha, beta).
    Times exp(-2i sum mu_j x_j y_j) and the normalization, it is an independent
    oracle for rho_hat_eta at one point (``xp``, ``yp`` of shape (nu,)) or at K
    (shape (K, nu)).  Raises NumericsError when the budget, the normalization
    times sum_j tail_j prod_{k != j} (sum |G_k| + tail_k) with tail_j from
    tail_bound on max |integrand j|, exceeds ``tol``; ``return_budget`` also
    returns the tails and budget.
    ``phase_signs`` (twist, a.b phase; physically -1) exist for ablation tests.
    """
    if s <= 0.0:
        raise ValueError(f"time s must be positive, got {s}")
    if S.lam is None:
        raise ValueError("spectral data must carry its lambda vector")
    nu = S.nu
    if nu < 1:
        raise ValueError("inversion needs nu >= 1")
    single = np.ndim(xp) <= 1
    xp, yp = np.atleast_2d(np.asarray(xp, dtype=float), np.asarray(yp, dtype=float))
    if xp.ndim != 2 or xp.shape[1] != nu or yp.shape != xp.shape:
        raise ValueError(f"xp and yp must have shape (nu,) or (K, nu) with nu={nu}")
    eta_sq = 0.0 if eta is None else float(np.sum(np.abs(np.asarray(eta)) ** 2))
    twist_sign, ab_sign = phase_signs
    pref = (2.0 * np.pi) ** (-0.5 * (2 * S.n + S.m + nu)) * np.exp(-0.25 * s * eta_sq)
    eps = epsilon(L, S)
    values = pref * np.exp(2j * twist_sign * np.sum(S.mu[:nu] * xp * yp, axis=1))
    tails, mass = [], []
    for j in range(nu):
        spec = quad if quad is not None else inversion_quadspec(s, S, tol=tol, direction=j)
        a, w = axis_nodes(spec)
        f = MehlerFactors.build(s, a[:, None], a[None, :], S.mu[j], eps[j])
        F = f.S ** ((1 - f.eps) // 2) * mehler_closed(-1j * f.S, f.alpha, f.beta)
        absF = np.abs(F)  # the a.b phase has modulus 1
        tails.append(float(tail_bound(spec, float(absF.max()), d=2)))
        mass.append(float(w @ absF @ w))
        F *= np.exp((0.25j * ab_sign / S.mu[j]) * np.outer(a, a))
        ex = w * np.exp(1j * np.outer(xp[:, j], a))  # weights ride on e(x), e(y)
        ey = w * np.exp(1j * np.outer(yp[:, j], a))
        # einsum, not a BLAS product: OpenBLAS threads would spin on after it
        values = values * np.einsum("kp,pq,kq->k", ex, F, ey)
    budget = pref * sum(
        t * np.prod([mass[k] + tails[k] for k in range(nu) if k != j])
        for j, t in enumerate(tails)
    )
    if not budget <= tol:
        raise NumericsError(
            f"inversion tail budget {budget:.3e} exceeds tolerance {tol:.3e}; "
            f"per-direction tail estimates {[float(f'{t:.3e}') for t in tails]}")
    values = complex(values[0]) if single else values
    return (values, tails, float(budget)) if return_budget else values
