"""Hermite functions, Mehler summation, and the transform-side solution.

The normalized Hermite functions psi_l are the rows of one table of the
stable three-term recurrence, _psi_table.  The truncated Mehler series fills
it once over x and y side by side, (N + 1) (x.size + y.size) doubles for all
directions, and contracts it as sum_l w^l psi_l(x) psi_l(y).  Mehler's closed form of that generating function collapses
the transform-side series for the heat evolution into a product of Gaussians,
so a truncated-series and a closed-form evaluator agree as one of the
independent oracles for the kernel formulas.  The per-direction factor of the
product is written once, in mehler_factor, which takes all directions in one
call and which kernel.rho_via_inversion also integrates.  The solution is taken
at kernel-block frequency 0.  mehler_closed, mehler_factor and the
u_tilde evaluators work elementwise over arrays and return arrays, 0-d for
one pair.  Series evaluation requires s > 0 (at s = 0 the series only
converges distributionally).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .forms import FormIndex, epsilon
from .spectral import SpectralData

PSI_MAX_ORDER = 10_000
SERIES_TOL = 1e-12


def _psi_table(x, N: int) -> np.ndarray:
    """Rows psi_0(x), ..., psi_N(x) of a flat x: psi_0 = pi^{-1/4} exp(-x^2/2), psi_{-1} = 0 and
    psi_k = sqrt(2/k) x psi_{k-1} - sqrt((k-1)/k) psi_{k-2}, in place on rows that start as sqrt(2/k) x."""
    t = np.empty((N + 1, x.size))
    t[0] = np.pi ** (-0.25) * np.exp(-0.5 * x * x)
    t[1:] = np.sqrt(2.0 / np.arange(1, N + 1))[:, None] * x
    t[1:2] *= t[:1]
    for k, row in enumerate(t[2:], 2):
        row *= t[k - 1]
        row -= math.sqrt((k - 1) / k) * t[k - 2]
    return t


def mehler_closed(w, x, y):
    """Closed form of sum_l w^l psi_l(x) psi_l(y) for |w| < 1, elementwise over w, x, y.

    Equals pi^{-1/2} (1 - w^2)^{-1/2}
    exp(-((1 + w^2)/(1 - w^2)) (x^2 + y^2)/2 + 2 w x y / (1 - w^2)),
    with the principal square root.
    """
    w = np.asarray(w, dtype=complex)
    if np.any(np.abs(w) >= 1.0):
        raise ValueError(f"need |w| < 1, got |w| = {np.max(np.abs(w))}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    one_minus = 1.0 - w * w
    return np.pi ** (-0.5) / np.sqrt(one_minus) * np.exp(
        -0.5 * ((1.0 + w * w) / one_minus) * (x * x + y * y) + 2.0 * w * x * y / one_minus)


def _mehler_series(w, x, y, N: int):
    """Truncation of the Mehler sum at l = N inclusive, elementwise over broadcasting
    w, x, y: one _psi_table over x and y, contracted against w^0, ..., w^N."""
    x, y, w = np.asarray(x, dtype=float), np.asarray(y, dtype=float), np.asarray(w, dtype=complex)
    t = _psi_table(np.concatenate([x.ravel(), y.ravel()]), N)
    wl = np.full((N + 1, *w.shape), w)
    wl[0] = 1.0
    return np.einsum("l...,l...,l...->...", np.cumprod(wl, axis=0), t[:, : x.size].reshape(N + 1, *x.shape),
                     t[:, x.size :].reshape(N + 1, *y.shape))


def mehler_factor(s: float, a, b, mu, eps, factor=mehler_closed):
    """The directions' factors S^((1-eps)/2) factor(-i S, alpha, beta) of the
    transform-side product, elementwise over broadcasting ``a``, ``b``, ``mu``,
    ``eps``: a, b of shape (..., nu) and mu, eps of shape (nu,) give them all.

    S = exp(-2 |mu| s), alpha = a / (2 |mu|^{1/2}), beta = -b |mu|^{1/2} / (2 mu),
    eps in {-1, +1}.  beta keeps the sign of mu exactly as written; the
    evenness of the final kernel checks that this convention is consistent.
    ``factor`` is mehler_closed or a truncation of the same sum.
    """
    am = abs(mu)
    S = np.exp(-2.0 * am * s)
    alpha, beta = a / (2.0 * np.sqrt(am)), -b * np.sqrt(am) / (2.0 * mu)
    return S ** ((1 - eps) // 2) * factor(-1j * S, alpha, beta)


@dataclass(frozen=True)
class UTildeParams:
    """Arguments of the transform-side solution at fixed spectral data.

    a, b are the Fourier duals of the rank-block coordinates, of shape
    (..., nu); leading axes broadcast against each other and the solutions
    are evaluated over them, at kernel-block frequency 0.
    """

    s: float
    a: np.ndarray
    b: np.ndarray
    spectral: SpectralData
    L: FormIndex

    def __post_init__(self):
        if self.s <= 0.0:
            raise ValueError(f"time s must be positive, got {self.s}")
        nu = self.spectral.nu
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if a.shape[-1] != nu or b.shape[-1] != nu:
            raise ValueError(f"a and b must have shape (..., nu) with nu={nu}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


def _product(p: UTildeParams, factor):
    """(2 pi)^{-(2n + m - nu)/2} prod_j mehler_factor(s, a_j, b_j, mu_j, eps_j, factor)
    over the leading axes of a, b, from one mehler_factor call for all directions."""
    S = p.spectral
    f = mehler_factor(p.s, p.a, p.b, S.mu[: S.nu], epsilon(p.L, S), factor)
    return (2.0 * np.pi) ** (-0.5 * (2 * S.n + S.m - S.nu)) * np.prod(f, axis=-1)


def u_tilde_closed(p: UTildeParams):
    """Closed (Mehler) form of the transform-side solution."""
    return _product(p, mehler_closed)


def u_tilde_series(p: UTildeParams, N: int | None = None):
    """Transform-side solution with each direction's sum truncated at l = N:
    N + 1 recurrence steps, all directions and both arguments at once, or
    NumericsError before any step when N exceeds PSI_MAX_ORDER.

    N defaults to max(50, ceil(-ln(SERIES_TOL) / (2 s min_j |mu_j|))), the
    point where the geometric tail in S_j drops below SERIES_TOL = 1e-12.
    """
    mu = np.abs(p.spectral.mu[: p.spectral.nu])
    N = default_series_terms(p.s, mu) if N is None else N
    if N < 0:
        raise ValueError(f"truncation order must be nonnegative, got {N}")
    if N > PSI_MAX_ORDER:
        raise NumericsError(f"series needs {N} terms at s={p.s} (smallest |mu| {mu.min(initial=np.inf):.3g}), "
                            f"over the {PSI_MAX_ORDER}-term limit")
    return _product(p, lambda w, x, y: _mehler_series(w, x, y, N))


def default_series_terms(s: float, mu_nonzero) -> int:
    """Truncation order from the geometric tail rate of S_j = e^{-2|mu|s}."""
    mu = np.abs(np.asarray(mu_nonzero, dtype=float))
    if mu.size == 0:
        return 50
    return max(50, int(np.ceil(-np.log(SERIES_TOL) / (2.0 * s * mu.min()))))
