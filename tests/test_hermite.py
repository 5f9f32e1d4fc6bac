import math

import numpy as np
import pytest

from quadheat import (
    FormIndex,
    NumericsError,
    SpectralData,
    UTildeParams,
    decompose_form,
    mehler_closed,
    mehler_factor,
    u_tilde_closed,
    u_tilde_series,
)
from quadheat.hermite import PSI_MAX_ORDER, _psi_table


def spectral_for_mu(mu):
    """n = 1 spectral data with a single prescribed eigenvalue."""
    return SpectralData(
        mu=np.array([float(mu)]),
        V=np.eye(1, dtype=complex),
        nu=1,
        tol=1e-10,
        lam=np.array([float(mu)]),
    )


L_IN = FormIndex([1])
L_OUT = FormIndex([])


class TestPsi:
    """psi_l(x) is row l of _psi_table over the points x."""

    def test_values_at_zero(self):
        psi = _psi_table(np.zeros(1), 2)[:, 0]
        assert psi[0] == pytest.approx(np.pi ** (-0.25))
        assert psi[0] == pytest.approx(0.7511255444649425)
        assert psi[1] == 0.0
        # two recurrence steps by hand: psi_2(0) = -psi_0(0)/sqrt(2)
        assert psi[2] == pytest.approx(-np.pi ** (-0.25) / np.sqrt(2.0))

    def test_uniform_bound(self):
        # normalized Hermite functions stay below ~0.816; allow slack
        assert np.max(np.abs(_psi_table(np.linspace(-20.0, 20.0, 161), 500))) <= 1.1

    def test_vectorized_matches_scalar(self):
        x = np.array([-1.5, 0.0, 2.25])
        vals = _psi_table(x, 7)[7]
        for xi, v in zip(x, vals):
            assert _psi_table(np.array([xi]), 7)[7, 0] == v

    def test_order_guard(self, heis_q):
        # the Hermite order is bounded where the table is built, by u_tilde_series
        p = UTildeParams(0.5, [0.1], [0.2], decompose_form(heis_q, [1.0]), L_IN)
        with pytest.raises(NumericsError, match=f"over the {PSI_MAX_ORDER}-term limit"):
            u_tilde_series(p, PSI_MAX_ORDER + 1)
        with pytest.raises(ValueError, match="nonnegative"):
            u_tilde_series(p, -1)

    def test_fourier_self_duality(self):
        # (2 pi)^{-1/2} int e^{-i x xi} psi_l(xi) dxi = (-i)^l psi_l(x)
        xi = np.linspace(-12.0, 12.0, 4001)
        h = xi[1] - xi[0]
        x = np.array([0.3, -1.2, 2.5])
        for l, (pvals, at_x) in enumerate(zip(_psi_table(xi, 10), _psi_table(x, 10))):
            ft = np.exp(-1j * np.outer(x, xi)) @ pvals * h / np.sqrt(2.0 * np.pi)
            assert np.max(np.abs(ft - (-1j) ** l * at_x)) <= 1e-8


TABLE_XS = [0.0, 1e-3, -1e-3, 2.5, -2.5, 20.0, -20.0]


def scalar_recurrence(x: float, N: int) -> list:
    """psi_0(x), ..., psi_N(x) one point at a time in Python floats and math.sqrt.  psi_0
    takes numpy's exp, which may differ from math.exp in the last bit (here at x = 1e-3, 2.5)."""
    out = [math.pi ** -0.25 * float(np.exp(-0.5 * np.float64(x) * x))]
    for k in range(1, N + 1):
        prev = out[-2] if k > 1 else 0.0
        out.append(math.sqrt(2.0 / k) * x * out[-1] - math.sqrt((k - 1) / k) * prev)
    return out


class TestPsiTable:
    @pytest.mark.parametrize("N", [0, 1, 2, 300])
    def test_rows_match_a_scalar_recurrence_bitwise(self, N):
        table = _psi_table(np.array(TABLE_XS), N)
        want = np.array([scalar_recurrence(x, N) for x in TABLE_XS]).T
        assert table.shape == (N + 1, len(TABLE_XS)) and table.tobytes() == want.tobytes()

    @pytest.mark.parametrize("l", [0, 1, 2, 7, 300])
    def test_psi_on_an_array_equals_its_scalar_calls_bitwise(self, l):
        # row l over all the points equals row l over each point alone
        vals = _psi_table(np.array(TABLE_XS), l)[l]
        assert vals.tobytes() == np.array([_psi_table(np.array([x]), l)[l, 0] for x in TABLE_XS]).tobytes()
        assert vals.tobytes() == np.array([scalar_recurrence(x, l)[l] for x in TABLE_XS]).tobytes()


class TestPsiScaled:
    """psi_l(sqrt(mu) xi) mu^{1/4}, the Hermite function at scale mu > 0."""

    def test_unit_norm(self):
        xi = np.linspace(-10.0, 10.0, 20001)
        vals = _psi_table(np.sqrt(2.5) * xi, 3)[3] * 2.5**0.25
        norm = np.trapezoid(vals**2, xi)
        assert norm == pytest.approx(1.0, abs=1e-8)

    def test_eigenrelation_residual(self):
        # (-d2/dxi2 + (mu xi)^2) psi - (2l+1)|mu| psi = 0, h = 1e-3 stencil
        h = 1e-3
        for l, mu in ((3, 1.0), (1, 2.5)):
            xi = np.linspace(-3.0, 3.0, 41)

            def f(x):
                return _psi_table(np.sqrt(mu) * x, l)[l] * mu**0.25

            d2 = (f(xi + h) - 2 * f(xi) + f(xi - h)) / h**2
            resid = -d2 + (mu * xi) ** 2 * f(xi) - (2 * l + 1) * mu * f(xi)
            assert np.max(np.abs(resid)) <= 1e-5


class TestMehlerClosed:
    def test_w_zero_is_ground_product(self):
        for x, y in ((0.0, 0.0), (1.2, -0.7)):
            got = mehler_closed(0.0, x, y)
            assert got == pytest.approx(np.pi ** (-0.5) * np.exp(-(x * x + y * y) / 2))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            mehler_closed(1.0, 0.0, 0.0)

    def test_imaginary_argument_product_form(self):
        # w = -iS gives the product form with (1+S^2) denominators
        S, x, y = 0.55, 0.8, -1.1
        got = mehler_closed(-1j * S, x, y)
        want = (
            np.pi ** (-0.5)
            / np.sqrt(1.0 + S * S)
            * np.exp(
                -0.5 * ((1 - S * S) / (1 + S * S)) * (x * x + y * y)
                - 2j * S * x * y / (1 + S * S)
            )
        )
        assert got == pytest.approx(want)

    @pytest.mark.parametrize("w", [0.3, -0.5, 0.8, 0.6j, -0.4 + 0.4j])
    def test_matches_truncated_series(self, w):
        xs = np.linspace(-4.0, 4.0, 5)
        series = sum((w**l) * p[:, None] * p[None, :] for l, p in enumerate(_psi_table(xs, 300)))
        closed = mehler_closed(w, xs[:, None], xs[None, :])
        assert closed.shape == (5, 5) and np.max(np.abs(closed - series)) <= 1e-9


class TestUTilde:
    def test_hand_value(self, heis_q):
        # a = b = 0, n = nu = m = 1, mu = 1, eps = +1, s = 1
        S = decompose_form(heis_q, [1.0])
        p = UTildeParams(1.0, [0.0], [0.0], S, L_IN)
        Sj = np.exp(-2.0)
        want = (2 * np.pi) ** (-1.5) * np.sqrt(2.0) / np.sqrt(1.0 + Sj * Sj)
        assert u_tilde_closed(p) == pytest.approx(want, rel=1e-14)

    def test_eps_minus_scales_by_s_factor(self, heis_q):
        S = decompose_form(heis_q, [1.0])
        s = 0.9
        plus = u_tilde_closed(UTildeParams(s, [0.0], [0.0], S, L_IN))
        minus = u_tilde_closed(UTildeParams(s, [0.0], [0.0], S, L_OUT))
        assert abs(minus) == pytest.approx(np.exp(-2 * s) * abs(plus), rel=1e-12)

    def test_series_truncated_at_zero(self, heis_q):
        S = decompose_form(heis_q, [1.0])
        p = UTildeParams(0.5, [0.0], [0.0], S, L_OUT)
        got = u_tilde_series(p, 0)
        Sj = np.exp(-1.0)
        want = (2 * np.pi) ** (-1.0) * Sj * _psi_table(np.zeros(1), 0)[0, 0] ** 2
        assert got == pytest.approx(want, rel=1e-14)

    def test_series_matches_closed(self, heis_q):
        S = decompose_form(heis_q, [1.0])
        p = UTildeParams(0.3, [0.7], [-0.4], S, L_IN)
        assert abs(u_tilde_series(p, 300) - u_tilde_closed(p)) <= 1e-10

    def test_series_geometric_convergence(self, heis_q):
        S = decompose_form(heis_q, [1.0])
        s = 0.25
        Sj = np.exp(-2 * s)
        p = UTildeParams(s, [1.1], [0.6], S, L_IN)
        closed = u_tilde_closed(p)
        for N in (10, 20, 40):
            assert abs(u_tilde_series(p, N) - closed) <= Sj ** (N + 1)

    def test_series_over_the_order_guard_is_refused(self, heis_q):
        # mu = 1e-4 puts the default truncation near 1.4e6 terms at s = 0.1
        p = UTildeParams(0.1, [0.5], [0.5], decompose_form(heis_q, [1e-4]), L_IN)
        with pytest.raises(NumericsError, match=r"needs \d+ terms at s=0.1 \(smallest \|mu\| 0.0001\)"):
            u_tilde_series(p)
        with pytest.raises(NumericsError, match=f"{PSI_MAX_ORDER + 1} terms"):
            u_tilde_series(p, PSI_MAX_ORDER + 1)

    def test_default_truncation_matches(self, heis_q):
        S = decompose_form(heis_q, [0.5])
        p = UTildeParams(0.1, [2.0], [1.0], S, L_IN)
        assert abs(u_tilde_series(p) - u_tilde_closed(p)) <= 1e-10

    def test_eta_factor(self):
        # rank-deficient n = 2: eta enters through exp(-s |eta|^2 / 4)
        from quadheat import QuadricForm

        Q = QuadricForm(2, 1, [np.diag([1.0, 0.0])])
        S = decompose_form(Q, [1.0])
        assert S.nu == 1
        s = 0.4
        base = u_tilde_closed(UTildeParams(s, [0.3], [0.1], S, L_IN))
        eta = np.array([0.7 - 0.2j])
        shifted = u_tilde_closed(UTildeParams(s, [0.3], [0.1], S, L_IN, eta=eta))
        want = base * np.exp(-0.25 * s * (0.7**2 + 0.2**2))
        assert shifted == pytest.approx(want, rel=1e-13)

    def test_time_must_be_positive(self, heis_q):
        S = decompose_form(heis_q, [1.0])
        with pytest.raises(ValueError):
            UTildeParams(0.0, [0.0], [0.0], S, L_IN)

    def test_beta_sign_follows_mu(self):
        seen = []

        def capture(w, alpha, beta):
            seen.append((w, beta))
            return 1.0

        mehler_factor(0.5, 1.0, 1.0, -2.0, 1, factor=capture)
        (w, beta), = seen
        # beta = -b |mu|^{1/2} / (2 mu) is positive for negative mu
        assert beta > 0
        # the factor's argument is w = -i S with S = exp(-2 |mu| s)
        assert w.imag == pytest.approx(-np.exp(-2.0)) and w.real == 0.0

    @pytest.mark.parametrize("mu,L", [([1.0, -0.5], FormIndex([1, 2])), ([1.0, -0.5], FormIndex([])),
                                      ([2.0, 0.75], FormIndex([2]))])
    def test_vectorised_matches_scalar_loop(self, mu, L):
        # a, b of shape (..., nu) evaluate the same products as one call per (a, b) pair
        S = SpectralData(mu=np.array(mu), V=np.eye(2, dtype=complex), nu=2, tol=1e-10,
                         lam=np.array([1.0]))
        grid = np.linspace(-4.0, 4.0, 5)
        a = np.stack([grid, 0.5 * grid], axis=-1)[:, None, :]
        b = np.stack([-grid, grid + 0.3], axis=-1)[None, :, :]
        for s in (0.1, 1.0):
            p = UTildeParams(s, a, b, S, L)
            closed, series = u_tilde_closed(p), u_tilde_series(p, 60)
            assert closed.shape == series.shape == (5, 5)
            for k in range(5):
                for l in range(5):
                    q = UTildeParams(s, a[k, 0], b[0, l], S, L)
                    assert abs(closed[k, l] - u_tilde_closed(q)) <= 1e-15
                    assert abs(series[k, l] - u_tilde_series(q, 60)) <= 1e-15

    def test_dual_shape_checked(self, heis_q):
        S = decompose_form(heis_q, [1.0])
        with pytest.raises(ValueError, match="nu"):
            UTildeParams(0.5, np.zeros((3, 2)), np.zeros((3, 1)), S, L_IN)
