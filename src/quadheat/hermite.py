"""Hermite functions, Mehler summation, and the transform-side solution.

The normalized Hermite functions psi_l come from one generator of the stable
three-term recurrence, which psi and the truncated Mehler series share; the
series runs it once, over x and y stacked and every direction at once.  The
functions' generating function in closed form (Mehler) collapses the
transform-side series for the heat evolution into a product of Gaussians,
giving both a truncated-series evaluator and a closed-form evaluator whose
agreement is one of the independent oracles for the kernel formulas.  The
per-direction factor of that product is written once, in mehler_factor,
which takes all directions in one call and which kernel.rho_via_inversion
also integrates; eta_norm_sq is the one check of the kernel-block dual eta.

Series evaluation requires s > 0 (at s = 0 the series only converges
distributionally).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice

import numpy as np

from .errors import NumericsError
from .forms import FormIndex, epsilon
from .spectral import SpectralData

PSI_MAX_ORDER = 10_000
SERIES_TOL = 1e-12


def _hermite_functions(x):
    """psi_0(x), psi_1(x), ... without end, by the three-term recurrence

    psi_0 = pi^{-1/4} exp(-x^2/2), psi_{-1} = 0,
    psi_{k+1} = sqrt(2/(k+1)) x psi_k - sqrt(k/(k+1)) psi_{k-1}.
    """
    p_prev, p = 0.0, np.pi ** (-0.25) * np.exp(-0.5 * x * x)
    for k in count():
        yield p
        p, p_prev = np.sqrt(2.0 / (k + 1)) * x * p - np.sqrt(k / (k + 1)) * p_prev, p


def psi(l: int, x):
    """Value of the l-th normalized Hermite function; scalar or array x."""
    if l < 0:
        raise ValueError(f"order must be nonnegative, got {l}")
    if l > PSI_MAX_ORDER:
        raise ValueError(f"order {l} exceeds guard {PSI_MAX_ORDER}")
    p = next(islice(_hermite_functions(np.asarray(x, dtype=float)), l, None))
    return p if p.shape else float(p)


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
    val = (
        np.pi ** (-0.5)
        / np.sqrt(one_minus)
        * np.exp(
            -0.5 * ((1.0 + w * w) / one_minus) * (x * x + y * y)
            + 2.0 * w * x * y / one_minus
        )
    )
    return val if np.ndim(val) else complex(val)


def _mehler_series(w, x, y, N: int):
    """Truncation of the Mehler sum at l = N inclusive, elementwise over
    broadcasting w, x, y: N + 1 steps of one recurrence over x and y stacked."""
    xy = np.stack(np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float)))
    total, wl = 0j, 1.0
    for px, py in islice(_hermite_functions(xy), N + 1):
        total, wl = total + wl * px * py, wl * w
    return total


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


def eta_norm_sq(eta, S: SpectralData) -> float:
    """|eta|^2 of the dual of the kernel-block coordinates, after checking that
    ``eta`` has length n - nu; None stands for eta = 0."""
    if eta is None:
        return 0.0
    eta = np.asarray(eta, dtype=complex).reshape(-1)
    if eta.shape != (S.n - S.nu,):
        raise ValueError(f"eta must have length n - nu = {S.n - S.nu}")
    return float(np.sum(np.abs(eta) ** 2))


@dataclass(frozen=True)
class UTildeParams:
    """Arguments of the transform-side solution at fixed spectral data.

    a, b are the Fourier duals of the rank-block coordinates, of shape
    (..., nu); leading axes broadcast against each other and the solutions
    are evaluated over them.  eta is the dual of the kernel-block
    coordinates (complex, length n - nu, may be empty; None means 0).
    """

    s: float
    a: np.ndarray
    b: np.ndarray
    spectral: SpectralData
    L: FormIndex
    eta: np.ndarray | None = None

    def __post_init__(self):
        if self.s <= 0.0:
            raise ValueError(f"time s must be positive, got {self.s}")
        nu = self.spectral.nu
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if a.shape[-1] != nu or b.shape[-1] != nu:
            raise ValueError(f"a and b must have shape (..., nu) with nu={nu}")
        eta_norm_sq(self.eta, self.spectral)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def prefactor(self) -> float:
        """(2 pi)^{-(2n + m - nu)/2} exp(-s |eta|^2 / 4)."""
        n, m, nu = self.spectral.n, self.spectral.m, self.spectral.nu
        eta_sq = eta_norm_sq(self.eta, self.spectral)
        return (2.0 * np.pi) ** (-0.5 * (2 * n + m - nu)) * np.exp(-0.25 * self.s * eta_sq)


def _product(p: UTildeParams, factor):
    """prefactor * prod_j mehler_factor(s, a_j, b_j, mu_j, eps_j, factor) over
    the leading axes of a, b, from one mehler_factor call for all directions;
    a complex for one (a, b) pair."""
    S = p.spectral
    f = mehler_factor(p.s, p.a, p.b, S.mu[: S.nu], epsilon(p.L, S), factor)
    val = p.prefactor() * np.prod(f, axis=-1)
    return complex(val) if np.ndim(val) == 0 else val


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
