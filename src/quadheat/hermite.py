"""Hermite functions, Mehler summation, and the transform-side solution.

The normalized Hermite functions psi_l are generated by the stable three-term
recurrence.  Their generating function in closed form (Mehler) collapses the
transform-side series for the heat evolution into a product of Gaussians,
giving both a truncated-series evaluator and a closed-form evaluator whose
agreement is one of the independent oracles for the kernel formulas.

Series evaluation requires s > 0 (at s = 0 the series only converges
distributionally).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .forms import FormIndex, epsilon
from .spectral import SpectralData

PSI_MAX_ORDER = 10_000
SERIES_TOL = 1e-12


def psi(l: int, x):
    """Value of the l-th normalized Hermite function.

    Recurrence: psi_0 = pi^{-1/4} exp(-x^2/2), psi_1 = sqrt(2) x psi_0,
    psi_{l+1} = sqrt(2/(l+1)) x psi_l - sqrt(l/(l+1)) psi_{l-1}.
    Accepts scalar or array x.
    """
    if l < 0:
        raise ValueError(f"order must be nonnegative, got {l}")
    if l > PSI_MAX_ORDER:
        raise ValueError(f"order {l} exceeds guard {PSI_MAX_ORDER}")
    x = np.asarray(x, dtype=float)
    p_prev = np.pi ** (-0.25) * np.exp(-0.5 * x * x)
    if l == 0:
        return p_prev if p_prev.shape else float(p_prev)
    p = np.sqrt(2.0) * x * p_prev
    for k in range(1, l):
        p, p_prev = np.sqrt(2.0 / (k + 1)) * x * p - np.sqrt(k / (k + 1)) * p_prev, p
    return p if p.shape else float(p)


def psi_scaled(l: int, mu_abs: float, xi):
    """psi_l(sqrt(mu_abs) xi) * mu_abs^{1/4}; unit L2 norm in xi for mu_abs > 0."""
    if mu_abs <= 0.0:
        raise ValueError(f"mu_abs must be positive, got {mu_abs}")
    return psi(l, np.sqrt(mu_abs) * np.asarray(xi, dtype=float)) * mu_abs**0.25


def mehler_closed(w, x, y):
    """Closed form of sum_l w^l psi_l(x) psi_l(y) for |w| < 1.

    Equals pi^{-1/2} (1 - w^2)^{-1/2}
    exp(-((1 + w^2)/(1 - w^2)) (x^2 + y^2)/2 + 2 w x y / (1 - w^2)),
    with the principal square root.
    """
    w = complex(w)
    if abs(w) >= 1.0:
        raise ValueError(f"need |w| < 1, got |w| = {abs(w)}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    one_minus = 1.0 - w * w
    val = (
        np.pi ** (-0.5)
        / np.sqrt(one_minus)
        * np.exp(
            -0.5 * ((1.0 + w * w) / one_minus) * (x * x + y * y)
            + 2.0 * w * x * y / one_minus
        )
    )
    return val if np.ndim(val) else complex(val)


def _mehler_series(w: complex, x, y, N: int):
    """Truncation of the Mehler sum at l = N inclusive, by joint recurrence."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    px_prev, py_prev = psi(0, x), psi(0, y)
    total = np.asarray(px_prev * py_prev, dtype=complex)
    if N == 0:
        return total
    px, py = np.sqrt(2.0) * x * px_prev, np.sqrt(2.0) * y * py_prev
    wl = w
    total = total + wl * px * py
    for k in range(1, N):
        cx, cy = np.sqrt(2.0 / (k + 1)), np.sqrt(k / (k + 1))
        px, px_prev = cx * x * px - cy * px_prev, px
        py, py_prev = cx * y * py - cy * py_prev, py
        wl = wl * w
        total = total + wl * px * py
    return total


@dataclass(frozen=True)
class MehlerFactors:
    """Per-direction ingredients of the transform-side product.

    S_j = exp(-2 |mu_j| s), alpha_j = a_j / (2 |mu_j|^{1/2}),
    beta_j = -b_j |mu_j|^{1/2} / (2 mu_j), eps_j in {-1, +1}.  beta keeps the
    sign of mu_j exactly as written; the evenness of the final kernel checks
    that this convention is consistent.
    """

    S: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    eps: np.ndarray

    @classmethod
    def build(cls, s: float, a, b, mu_nonzero, eps) -> "MehlerFactors":
        if s <= 0.0:
            raise ValueError(f"time s must be positive, got {s}")
        mu = np.asarray(mu_nonzero, dtype=float)
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        am = np.abs(mu)
        return cls(
            S=np.exp(-2.0 * am * s),
            alpha=a / (2.0 * np.sqrt(am)),
            beta=-b * np.sqrt(am) / (2.0 * mu),
            eps=np.asarray(eps, dtype=int),
        )


@dataclass(frozen=True)
class UTildeParams:
    """Arguments of the transform-side solution at fixed spectral data.

    a, b are the Fourier duals of the rank-block coordinates, of shape
    (..., nu); leading axes broadcast against each other and the solutions
    are evaluated over them.  eta is the dual of the kernel-block
    coordinates (complex, length n - nu, may be empty).
    """

    s: float
    a: np.ndarray
    b: np.ndarray
    spectral: SpectralData
    L: FormIndex
    eta: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.s <= 0.0:
            raise ValueError(f"time s must be positive, got {self.s}")
        if self.spectral.lam is None:
            raise ValueError("spectral data must carry its lambda vector")
        nu = self.spectral.nu
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if a.shape[-1] != nu or b.shape[-1] != nu:
            raise ValueError(f"a and b must have shape (..., nu) with nu={nu}")
        eta = self.eta
        eta = np.zeros(self.spectral.n - nu, dtype=complex) if eta is None else np.asarray(eta, dtype=complex).reshape(-1)
        if eta.shape != (self.spectral.n - nu,):
            raise ValueError(f"eta must have length n - nu = {self.spectral.n - nu}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "eta", eta)

    def factors(self) -> MehlerFactors:
        nu = self.spectral.nu
        return MehlerFactors.build(
            self.s, self.a, self.b, self.spectral.mu[:nu], epsilon(self.L, self.spectral)
        )

    def prefactor(self) -> float:
        """(2 pi)^{-(2n + m - nu)/2} exp(-s |eta|^2 / 4)."""
        n, m, nu = self.spectral.n, self.spectral.m, self.spectral.nu
        eta_sq = float(np.sum(np.abs(self.eta) ** 2))
        return (2.0 * np.pi) ** (-0.5 * (2 * n + m - nu)) * np.exp(-0.25 * self.s * eta_sq)


def _product(p: UTildeParams, factor):
    """prefactor * prod_j S_j^((1-eps_j)/2) factor(-i S_j, alpha_j, beta_j) over
    the leading axes of a, b; a complex for one (a, b) pair."""
    f = p.factors()
    val = p.prefactor()
    for j, (S_j, ep) in enumerate(zip(f.S, f.eps)):
        val = val * (S_j ** ((1 - ep) // 2) * factor(-1j * S_j, f.alpha[..., j], f.beta[..., j]))
    return complex(val) if np.ndim(val) == 0 else val


def u_tilde_closed(p: UTildeParams):
    """Closed (Mehler) form of the transform-side solution."""
    return _product(p, mehler_closed)


def u_tilde_series(p: UTildeParams, N: int | None = None):
    """Transform-side solution with each direction's sum truncated at l = N.

    N defaults to max(50, ceil(-ln(1e-12) / (2 s min_j |mu_j|))), the point
    where the geometric tail in S_j drops below 1e-12.
    """
    if N is None:
        N = default_series_terms(p.s, p.spectral.mu[: p.spectral.nu])
    if N < 0:
        raise ValueError(f"truncation order must be nonnegative, got {N}")
    return _product(p, lambda w, x, y: _mehler_series(w, x, y, N))


def default_series_terms(s: float, mu_nonzero, tol: float = SERIES_TOL) -> int:
    """Truncation order from the geometric tail rate of S_j = e^{-2|mu|s}."""
    mu = np.abs(np.asarray(mu_nonzero, dtype=float))
    if mu.size == 0:
        return 50
    return max(50, int(np.ceil(-np.log(tol) / (2.0 * s * mu.min()))))
