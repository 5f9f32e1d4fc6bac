import numpy as np
import pytest

from quadheat import (
    FormIndex,
    MehlerFactors,
    SpectralData,
    UTildeParams,
    decompose_form,
    mehler_closed,
    psi,
    psi_scaled,
    u_tilde_closed,
    u_tilde_series,
)


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
    def test_values_at_zero(self):
        assert psi(0, 0.0) == pytest.approx(np.pi ** (-0.25))
        assert psi(0, 0.0) == pytest.approx(0.7511255444649425)
        assert psi(1, 0.0) == 0.0
        # two recurrence steps by hand: psi_2(0) = -psi_0(0)/sqrt(2)
        assert psi(2, 0.0) == pytest.approx(-np.pi ** (-0.25) / np.sqrt(2.0))

    def test_uniform_bound(self):
        # normalized Hermite functions stay below ~0.816; allow slack
        x = np.linspace(-20.0, 20.0, 161)
        p_prev = np.pi ** (-0.25) * np.exp(-0.5 * x * x)
        p = np.sqrt(2.0) * x * p_prev
        worst = max(np.max(np.abs(p_prev)), np.max(np.abs(p)))
        for k in range(1, 500):
            p, p_prev = np.sqrt(2.0 / (k + 1)) * x * p - np.sqrt(k / (k + 1)) * p_prev, p
            worst = max(worst, np.max(np.abs(p)))
        assert worst <= 1.1

    def test_vectorized_matches_scalar(self):
        x = np.array([-1.5, 0.0, 2.25])
        vals = psi(7, x)
        for xi, v in zip(x, vals):
            assert psi(7, float(xi)) == v

    def test_order_guard(self):
        with pytest.raises(ValueError):
            psi(10_001, 0.0)
        with pytest.raises(ValueError):
            psi(-1, 0.0)

    def test_fourier_self_duality(self):
        # (2 pi)^{-1/2} int e^{-i x xi} psi_l(xi) dxi = (-i)^l psi_l(x)
        xi = np.linspace(-12.0, 12.0, 4001)
        h = xi[1] - xi[0]
        for l in range(11):
            pvals = psi(l, xi)
            for x in (0.3, -1.2, 2.5):
                ft = np.sum(np.exp(-1j * x * xi) * pvals) * h / np.sqrt(2.0 * np.pi)
                want = (-1j) ** l * psi(l, x)
                assert abs(ft - want) <= 1e-8


class TestPsiScaled:
    def test_reduces_to_psi(self):
        x = np.linspace(-2, 2, 9)
        np.testing.assert_array_equal(psi_scaled(3, 1.0, x), psi(3, x))

    def test_unit_norm(self):
        xi = np.linspace(-10.0, 10.0, 20001)
        vals = psi_scaled(3, 2.5, xi)
        norm = np.trapezoid(vals**2, xi)
        assert norm == pytest.approx(1.0, abs=1e-8)

    def test_eigenrelation_residual(self):
        # (-d2/dxi2 + (mu xi)^2) psi - (2l+1)|mu| psi = 0, h = 1e-3 stencil
        h = 1e-3
        for l, mu in ((3, 1.0), (1, 2.5)):
            xi = np.linspace(-3.0, 3.0, 41)
            d2 = (psi_scaled(l, mu, xi + h) - 2 * psi_scaled(l, mu, xi)
                  + psi_scaled(l, mu, xi - h)) / h**2
            resid = -d2 + (mu * xi) ** 2 * psi_scaled(l, mu, xi) \
                - (2 * l + 1) * mu * psi_scaled(l, mu, xi)
            assert np.max(np.abs(resid)) <= 1e-5

    def test_requires_positive_scale(self):
        with pytest.raises(ValueError):
            psi_scaled(0, 0.0, 1.0)


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
        pairs = [(float(x), float(y)) for x in xs for y in xs]
        psis = {l: {v: psi(l, v) for v in {p for pair in pairs for p in pair}}
                for l in range(301)}
        for x, y in pairs:
            series = sum((w**l) * psis[l][x] * psis[l][y] for l in range(301))
            assert abs(mehler_closed(w, x, y) - series) <= 1e-9


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
        want = (2 * np.pi) ** (-1.0) * Sj * psi(0, 0.0) ** 2
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
        f = MehlerFactors.build(0.5, [1.0], [1.0], [-2.0], [1])
        # beta = -b |mu|^{1/2} / (2 mu) is positive for negative mu
        assert f.beta[0] > 0
        assert f.S[0] == pytest.approx(np.exp(-2.0))

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
