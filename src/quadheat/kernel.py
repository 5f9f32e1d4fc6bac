"""Closed-form heat kernels on the transform side, and their inversion oracle.

The partial Fourier transform of the fundamental solution factorizes over the
eigenbasis: a Euclidean Gaussian pair for each kernel direction of the form
and, for each nonzero eigenvalue mu_j, the factor

    2 exp(s eps_j |mu_j|) |mu_j| / sinh(s |mu_j|)
      * exp(-|mu_j| coth(|mu_j| s) (x_j^2 + y_j^2)).

mu / sinh(s mu) and mu coth(mu s) are even in mu, so all factor arithmetic
runs on |mu|.  The product is assembled in log space in one place,
_log_rho_parts (constant, per-direction log-prefactors and rates), which
rho_hat_eta and boxop's grid factors also use; log_rho_hat sums it over
squared adapted magnitudes and rho_hat_adapted exponentiates that once, so
products of up to 16 exp(+-s|mu|)/sinh factors cannot overflow.

The two-point weighted kernel multiplies the one-point kernel at z - zt by
the oscillatory phase exp(-2i lambda . Im phi(z, zt)), which
weighted_heat_kernel_batch evaluates with the original form
(boxop.heat_apply uses the eigenbasis sum).

rho_via_inversion reproduces the closed form from the transform-side
solution by inverse Fourier integration and is the package's strongest
independent oracle.  The integral factorises into one 2-D integral per rank
direction, each on its own GridSpec box sized from that direction's decay
rate (inversion_rate), so it runs at every rank (full-rank n = 2 included)
and reports each direction's quadrature tail estimate and the budget they
give the product.  Its integrand's per-direction factor is
hermite.mehler_factor, the one the Mehler oracles multiply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .forms import FormIndex, epsilon
from .hermite import eta_norm_sq, mehler_factor
from .quadric import QuadricForm
# integrate_with_estimate stays in this namespace for callers that instrument it.
from .quadrature import GridSpec, integrate_with_estimate, tail_bound  # noqa: F401
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


def _log_rho_parts(s: float, S: SpectralData, L: FormIndex):
    """The pieces of log rho_hat, assembled here and nowhere else.

    log rho_hat(c) = const + sum_j (log_fac_j - rates_j |c_j|^2) over all n
    directions, const = -(m/2 + n) log(2 pi).  Rank directions j < nu take
    log_mu_sinh_factor and mu_coth; kernel directions the Euclidean pair
    log(2/s) and 1/s, the mu -> 0 limit of the same factor.
    """
    n, nu = S.n, S.nu
    eps = epsilon(L, S)
    rates = [mu_coth(s, S.mu[j] if j < nu else 0.0) for j in range(n)]  # raises for s <= 0
    log_fac = [log_mu_sinh_factor(s, S.mu[j], eps[j]) for j in range(nu)]
    log_fac += [np.log(2.0) - np.log(s)] * (n - nu)
    return -(0.5 * S.m + n) * np.log(2.0 * np.pi), np.array(log_fac), np.array(rates)


def log_rho_hat(s: float, sq, S: SpectralData, L: FormIndex):
    """log rho_hat at squared adapted magnitudes ``sq`` = |c|^2 of shape (..., n).

    Adds the constant, minus the kernel-block sum times 1/s (as one division,
    the order scan's recorded bytes come from), then plus the rank-block sum.
    """
    sq = np.asarray(sq, dtype=float)
    if sq.shape[-1:] != (S.n,):
        raise ValueError(f"adapted coordinates must have length n={S.n}")
    const, log_fac, rates = _log_rho_parts(s, S, L)
    nu = S.nu
    out = (np.sum(log_fac[nu:]) + const) - np.sum(sq[..., nu:], axis=-1) / s
    if nu:
        out = out + np.sum(log_fac[:nu] - rates[:nu] * sq[..., :nu], axis=-1)
    return out


def rho_hat_adapted(s: float, c, S: SpectralData, L: FormIndex):
    """Kernel value at adapted complex coordinates; vectorized over leading axes.

    ``c`` has shape (..., n) with c_j the coefficient along eigenvector j.
    Returns a real array of shape (...).
    """
    c = np.asarray(c, dtype=complex)
    return np.exp(log_rho_hat(s, c.real**2 + c.imag**2, S, L))


def rho_hat(q: KernelQuery) -> float:
    """Partial Fourier transform of the fundamental solution at one point.

    Strictly positive; Gaussian decay in every adapted direction.
    """
    c = q.spectral.V.conj().T @ q.z
    return float(rho_hat_adapted(q.s, c, q.spectral, q.L))


def rho_hat_eta(s: float, xp, yp, eta, S: SpectralData, L: FormIndex) -> float:
    """Kernel with the kernel-block directions resolved in frequency.

    (2 pi)^{-(m/2+n)} exp(-s |eta|^2 / 4) times the rank-block factors at
    (xp, yp).  ``eta`` has length n - nu; None means eta = 0.
    """
    nu = S.nu
    xp, yp = (np.asarray(v, dtype=float).reshape(-1) for v in (xp, yp))
    if xp.shape != (nu,) or yp.shape != (nu,):
        raise ValueError(f"xp and yp must have length nu={nu}")
    const, log_fac, rates = _log_rho_parts(s, S, L)
    log_rho = const - 0.25 * s * eta_norm_sq(eta, S)
    return float(np.exp(log_rho + np.sum(log_fac[:nu] - rates[:nu] * (xp**2 + yp**2))))


def weighted_heat_kernel_batch(
    s: float, z, Zt, Q: QuadricForm, S: SpectralData, L: FormIndex,
    phase_sign: float = -1.0,
) -> np.ndarray:
    """Two-point weighted kernel over batches of first and second points.

    ``z`` and ``Zt`` have shapes (..., n) that broadcast against each other,
    so either may be a single point.  ``phase_sign`` exists for ablation tests;
    the physical kernel uses the default -1 in exp(2i phase_sign lambda .
    Im phi(z, zt)).
    """
    z, Zt = np.asarray(z, dtype=complex), np.asarray(Zt, dtype=complex)
    mag = (2.0 * np.pi) ** (0.5 * S.m) * rho_hat_adapted(s, (z - Zt) @ np.conj(S.V), S, L)
    arg = np.zeros(np.broadcast_shapes(z.shape, Zt.shape)[:-1])  # lambda . Im phi(z, zt)
    for lk, a in zip(S.lam, Q.A):
        if lk != 0.0:
            arg = arg + lk * np.sum(np.conj(Zt) * (z @ a.T), axis=-1).imag
    return mag * np.exp(2j * phase_sign * arg)


def weighted_heat_kernel(
    s: float, z, zt, Q: QuadricForm, S: SpectralData, L: FormIndex
) -> complex:
    """(2 pi)^{m/2} rho_hat(z - zt) exp(-2i lambda . Im phi(z, zt)).

    Conjugate symmetric in (z, zt); modulus independent of the phase.
    """
    zt = np.asarray(zt, dtype=complex).reshape(-1)
    return complex(weighted_heat_kernel_batch(s, z, zt[None, :], Q, S, L)[0])


def inversion_rate(s: float, S: SpectralData, direction: int) -> float:
    """Gaussian decay rate in (a_j, b_j) of the inversion integrand of rank
    direction j = ``direction``; it sizes that direction's box and its tail."""
    if not 0 <= direction < S.nu:
        raise ValueError(f"direction {direction} is not a rank direction (nu={S.nu})")
    am = abs(float(S.mu[direction]))
    Sj = np.exp(-2.0 * am * s)
    return 0.5 * ((1.0 - Sj**2) / (1.0 + Sj**2)) / (4.0 * am)


def inversion_quadspec(s: float, S: SpectralData, tol: float = 1e-6, direction: int = 0) -> GridSpec:
    """Square box of 512 x 512 points over the duals (a_j, b_j) of rank
    direction j = ``direction``, sized so the integrand's Gaussian factor at the
    boundary is below 1e-3 times the requested tolerance."""
    rate = inversion_rate(s, S, direction)
    return GridSpec.cube(float(np.sqrt(np.log(1.0 / (1e-3 * tol)) / rate)), 2, 512)


def rho_via_inversion(
    s: float, xp, yp, eta, S: SpectralData, L: FormIndex,
    quad: GridSpec | None = None, tol: float = 1e-6,
    return_budget: bool = False, phase_signs: tuple = (-1.0, -1.0),
):
    """Numerical inverse Fourier transform of the transform-side solution.

    The integrand exp(i(a.x' + b.y')) exp(-i/4 sum a_j b_j / mu_j) u~(s, a, b)
    is a product over rank directions j, so its integral is a product of one
    trapezoid integral I_j = e(x)^T G_j e(y), e(x) = exp(i a x), per direction
    on its own inversion_quadspec box (a 2-D GridSpec ``quad`` replaces every
    box), with G_j = w_a w_b^T o exp(-i a b / (4 mu_j)) o
    mehler_factor(s, a, b, mu_j, eps_j) on the box's P x P nodes.
    Times exp(-2i sum mu_j x_j y_j) and the normalization, it is an independent
    oracle for rho_hat_eta at one point (``xp``, ``yp`` of shape (nu,)) or at K
    (shape (K, nu)).  Raises NumericsError when the budget, the normalization
    times sum_j tail_j prod_{k != j} (sum |G_k| + tail_k) with tail_j from
    tail_bound on max |integrand j| at rate inversion_rate(s, S, j), exceeds
    ``tol``; ``return_budget`` also returns the tails and budget.
    ``phase_signs`` (twist, a.b phase; physically -1) exist for ablation tests.
    """
    if s <= 0.0:
        raise ValueError(f"time s must be positive, got {s}")
    nu = S.nu
    if nu < 1:
        raise ValueError("inversion needs nu >= 1")
    if quad is not None and quad.dim != 2:
        raise ValueError(f"quad must be a 2-D grid over (a_j, b_j), got {quad.dim} axes")
    single = np.ndim(xp) <= 1
    xp, yp = np.atleast_2d(np.asarray(xp, dtype=float), np.asarray(yp, dtype=float))
    if xp.ndim != 2 or xp.shape[1] != nu or yp.shape != xp.shape:
        raise ValueError(f"xp and yp must have shape (nu,) or (K, nu) with nu={nu}")
    eta_sq = eta_norm_sq(eta, S)
    twist_sign, ab_sign = phase_signs
    pref = (2.0 * np.pi) ** (-0.5 * (2 * S.n + S.m + nu)) * np.exp(-0.25 * s * eta_sq)
    eps = epsilon(L, S)
    values = pref * np.exp(2j * twist_sign * np.sum(S.mu[:nu] * xp * yp, axis=1))
    tails, mass = [], []
    for j in range(nu):
        spec = quad if quad is not None else inversion_quadspec(s, S, tol=tol, direction=j)
        (a, b), (wa, wb) = spec.axes(), spec.weights()
        F = mehler_factor(s, a[:, None], b[None, :], S.mu[j], eps[j])
        absF = np.abs(F)  # the a.b phase has modulus 1
        tails.append(float(tail_bound(spec, inversion_rate(s, S, j), float(absF.max()))))
        mass.append(float(wa @ absF @ wb))
        F *= np.exp((0.25j * ab_sign / S.mu[j]) * np.outer(a, b))
        ex = wa * np.exp(1j * np.outer(xp[:, j], a))  # weights ride on e(x), e(y)
        ey = wb * np.exp(1j * np.outer(yp[:, j], b))
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
