import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadheat import (
    FormIndex,
    GridSpec,
    KernelQuery,
    NumericsError,
    QuadricForm,
    SpectralData,
    decompose_form,
    epsilon,
    heisenberg,
    inversion_budget,
    inversion_quadspec,
    inversion_rate,
    log_mu_sinh_factor,
    log_rho_hat,
    mu_coth,
    rho_hat,
    rho_hat_adapted,
    rho_hat_eta,
    rho_via_inversion,
    weighted_heat_kernel,
)
from quadheat.kernel import SMALL_X_SWITCH, _log_rho_parts

L_IN = FormIndex([1])
L_OUT = FormIndex([])


def spectral_for_mu(mu_list, lam=None):
    mu = np.asarray(mu_list, dtype=float)
    n = mu.shape[0]
    nz = int(np.count_nonzero(mu))
    return SpectralData(
        mu=mu,
        V=np.eye(n, dtype=complex),
        nu=nz,
        tol=1e-10,
        lam=np.asarray(lam if lam is not None else [1.0], dtype=float),
    )


class TestEpsilon:
    def test_all_in(self):
        S = spectral_for_mu([1.0, 1.0])
        np.testing.assert_array_equal(epsilon(FormIndex([1, 2]), S), [1, 1])

    def test_all_out(self):
        S = spectral_for_mu([1.0, 1.0])
        np.testing.assert_array_equal(epsilon(FormIndex([]), S), [-1, -1])

    def test_mixed_signs(self):
        S = spectral_for_mu([2.0, -3.0])
        np.testing.assert_array_equal(epsilon(FormIndex([2]), S), [-1, -1])

    def test_index_beyond_rank_is_inert(self):
        S = spectral_for_mu([2.0, 0.0])
        assert epsilon(FormIndex([1, 2]), S).shape == (1,)

    def test_form_index_validation(self):
        with pytest.raises(ValueError):
            FormIndex([2, 1])
        with pytest.raises(ValueError):
            FormIndex([0])
        with pytest.raises(ValueError):
            FormIndex([1, 1])

    @pytest.mark.parametrize("bad", [1.5, True, np.bool_(True), float("nan"), float("inf")])
    def test_form_index_entries_are_integers(self, bad):
        with pytest.raises(ValueError, match="integers"):
            FormIndex([bad])

    def test_integral_entries_are_kept(self):
        assert FormIndex([1.0, np.int64(3)]).L == (1, 3)


class TestStableFactors:
    def test_reference_value(self):
        want = math.log(2.0 * math.e / math.sinh(1.0))
        assert log_mu_sinh_factor(1.0, 1.0, +1) == pytest.approx(want, rel=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(mu=st.floats(1e-6, 1e3), s=st.floats(1e-4, 50.0),
           eps=st.sampled_from([-1, +1]))
    def test_even_in_mu_bitwise(self, mu, s, eps):
        assert log_mu_sinh_factor(s, -mu, eps) == log_mu_sinh_factor(s, mu, eps)
        assert mu_coth(s, -mu) == mu_coth(s, mu)

    def test_huge_argument_no_overflow(self):
        val = log_mu_sinh_factor(800.0, 1.0, -1)
        assert np.isfinite(val)
        assert val == pytest.approx(math.log(4.0) - 1600.0)

    def test_tiny_argument_matches_exact_branch(self):
        # compare the two branch formulas on either side of the switch
        for x in (0.5e-8, 1.5e-8):
            s, mu = x, 1.0
            taylor = math.log(2.0 / s) + s * mu - (s * mu) ** 2 / 6.0
            exact = math.log(4.0 * mu) + 0.0 - math.log(-math.expm1(-2.0 * s * mu))
            assert abs(taylor - exact) <= 1e-12 * abs(exact)
            assert log_mu_sinh_factor(s, mu, +1) == pytest.approx(exact, rel=1e-12)

    def test_mu_coth_small_argument(self):
        s = 1e-9
        assert mu_coth(s, 1.0) == pytest.approx(1.0 / s + s / 3.0, rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_mu_sinh_factor(1.0, 0.0, +1)
        with pytest.raises(ValueError):
            log_mu_sinh_factor(-1.0, 1.0, +1)
        with pytest.raises(ValueError):
            mu_coth(0.0, 1.0)

    def test_finite_over_extreme_range(self):
        for x in np.logspace(-12, 4, 33):
            for mu in (1e-6, 1.0, 1e6):
                s = x / mu
                assert np.isfinite(log_mu_sinh_factor(s, mu, +1))
                assert np.isfinite(log_mu_sinh_factor(s, mu, -1))
                assert np.isfinite(mu_coth(s, mu))


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@st.composite
def _array_core_cases(draw):
    """A rotated n <= 4 geometry whose last n - nu directions are kernel
    directions, a form index, times on both sides of s |mu| = SMALL_X_SWITCH
    (|mu| in [0.25, 3]), and squared magnitudes of shape (K, P, n)."""
    n = draw(st.integers(1, 4))
    nu = draw(st.integers(0, n))
    mu = [draw(st.floats(0.25, 3.0)) * draw(st.sampled_from([-1.0, 1.0])) for _ in range(nu)]
    S = decompose_form(_rotated_form(mu + [0.0] * (n - nu), draw(st.integers(0, 99))), [1.0])
    L = FormIndex(sorted(draw(st.sets(st.integers(1, n)))))
    tiny = st.sampled_from([1e-12, 3e-9, 0.99 * SMALL_X_SWITCH, 1.01 * SMALL_X_SWITCH, 3e-8, 1e-6])
    s = np.array(draw(st.lists(st.one_of(tiny, st.floats(0.05, 3.0)), min_size=1, max_size=5)))
    sq = np.array(draw(st.lists(st.floats(0.0, 4.0), min_size=s.size * 3 * n, max_size=s.size * 3 * n)))
    return S, L, s, sq.reshape(s.size, 3, n)


class TestArrayCore:
    @settings(max_examples=40, deadline=None)
    @given(case=_array_core_cases())
    def test_every_element_matches_the_scalar_call_bitwise(self, case):
        S, L, s, sq = case
        assert S.nu == np.count_nonzero(np.abs(S.mu) > S.tol)
        mu, eps = S.mu[: S.nu], epsilon(L, S)
        for got, scalar in ((mu_coth(s[:, None], mu), lambda t, j: mu_coth(t, mu[j])),
                            (log_mu_sinh_factor(s[:, None], mu, eps),
                             lambda t, j: log_mu_sinh_factor(t, mu[j], int(eps[j])))):
            want = [[scalar(float(t), j) for j in range(S.nu)] for t in s]
            np.testing.assert_array_equal(_bits(got), _bits(np.reshape(want, got.shape)))
        const, log_fac, rates = _log_rho_parts(s, S, L)
        assert log_fac.shape == rates.shape == s.shape + (S.n,)
        for k, t in enumerate(s):
            c1, f1, r1 = _log_rho_parts(float(t), S, L)
            assert c1 == const
            np.testing.assert_array_equal(_bits(log_fac[k]), _bits(f1))
            np.testing.assert_array_equal(_bits(rates[k]), _bits(r1))
        per_time = [log_rho_hat(float(t), q, S, L) for t, q in zip(s, sq)]
        np.testing.assert_array_equal(_bits(log_rho_hat(s[:, None], sq, S, L)), _bits(per_time))
        np.testing.assert_array_equal(_bits(log_rho_hat(s, sq[:, 0], S, L)),
                                      _bits([p[0] for p in per_time]))

    def test_scalar_in_gives_scalar_out(self):
        for value in (mu_coth(0.5, 2.0), mu_coth(1e-10, 2.0), mu_coth(0.5, 0.0),
                      log_mu_sinh_factor(0.5, -2.0, 1), log_mu_sinh_factor(1e-10, 2.0, -1)):
            assert np.ndim(value) == 0 and isinstance(value, float)
            assert math.isfinite(math.exp(-value))

    @pytest.mark.parametrize("bad", [0.0, -0.3])
    def test_any_non_positive_time_raises(self, bad):
        S = decompose_form(_rotated_form([1.0, 0.0], 3), [1.0])
        s = np.array([[0.4, 1e-10], [1.0, bad]])
        calls = [lambda: mu_coth(s, 1.0), lambda: log_mu_sinh_factor(s, 1.0, 1),
                 lambda: _log_rho_parts(s, S, L_IN),
                 lambda: log_rho_hat(s[..., None], np.ones((2, 2, 1, 2)), S, L_IN)]
        for call in calls:
            with pytest.raises(ValueError, match="time s must be positive"):
                call()


class TestRhoHat:
    def test_euclidean_reduction(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 4))
            Q = heisenberg(n) if m == 1 else QuadricForm(
                n, m, [np.eye(n, dtype=complex)] * m
            )
            S0 = decompose_form(Q, np.zeros(m))
            s = float(rng.uniform(0.8, 2.5))
            z = 0.5 * (rng.normal(size=n) + 1j * rng.normal(size=n))
            got = rho_hat(KernelQuery(s, z, S0, L_OUT))
            want = (
                2.0**n * (2 * np.pi) ** (-(0.5 * m + n)) * s ** (-n)
                * np.exp(-float(np.sum(z.real**2 + z.imag**2)) / s)
            )
            assert abs(got - want) <= 1e-14 * want

    def test_heisenberg_origin_value(self, heis_spectral):
        got = rho_hat(KernelQuery(1.0, [0.0], heis_spectral, L_IN))
        want = (2 * np.pi) ** (-1.5) * 2.0 * math.e / math.sinh(1.0)
        assert got == pytest.approx(want, rel=1e-14)

    def test_strictly_positive(self, rng, heis_spectral):
        for _ in range(100):
            z = 3.0 * (rng.normal(size=1) + 1j * rng.normal(size=1))
            s = float(rng.uniform(0.05, 5.0))
            assert rho_hat(KernelQuery(s, z, heis_spectral, L_IN)) > 0.0

    def test_evenness_bitwise_in_adapted_coordinates(self, rng):
        S = spectral_for_mu([1.5, -0.5], lam=[1.0])
        L = FormIndex([2])
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        base = rho_hat_adapted(0.7, c, S, L)
        for j in range(2):
            for flip in (-np.conj(c[j]), np.conj(c[j]), -c[j]):
                c2 = c.copy()
                c2[j] = flip
                assert rho_hat_adapted(0.7, c2, S, L) == base

    def test_gaussian_decay_envelope(self, rng, heis_spectral):
        s = 0.6
        rate = min(1.0 / s, mu_coth(s, 1.0))
        base = rho_hat(KernelQuery(s, [0.0], heis_spectral, L_IN))
        for _ in range(50):
            z = 2.0 * (rng.normal(size=1) + 1j * rng.normal(size=1))
            val = rho_hat(KernelQuery(s, z, heis_spectral, L_IN))
            bound = base * np.exp(-rate * float(np.sum(z.real**2 + z.imag**2)))
            assert val <= bound * (1 + 1e-12)

    def test_abs_mu_substitution_one_ulp(self, rng):
        # flipping mu signs while toggling membership keeps (|mu|, eps) fixed
        S1 = spectral_for_mu([2.0, -3.0], lam=[1.0])
        S2 = spectral_for_mu([2.0, 3.0], lam=[1.0])
        L1 = FormIndex([2])          # eps = (-1, -1)
        L2 = FormIndex([])           # same eps with positive mu
        for _ in range(20):
            c = rng.normal(size=2) + 1j * rng.normal(size=2)
            s = float(rng.uniform(0.1, 2.0))
            a = rho_hat_adapted(s, c, S1, L1)
            b = rho_hat_adapted(s, c, S2, L2)
            assert a == b or abs(a - b) <= np.spacing(float(a))

    def test_rejects_bad_queries(self, heis_spectral):
        with pytest.raises(ValueError):
            KernelQuery(-1.0, [0.0], heis_spectral, L_IN)


class TestRhoHatEta:
    def test_full_rank_matches_rho_hat(self, heis_spectral):
        s = 0.8
        z = np.array([0.4 - 0.3j])
        want = rho_hat(KernelQuery(s, z, heis_spectral, L_IN))
        got = rho_hat_eta(s, [[0.4]], [[-0.3]], heis_spectral, L_IN)
        assert got.shape == (1,) and got[0] == pytest.approx(want, rel=1e-14)

    def test_rank_zero(self):
        S = spectral_for_mu([0.0], lam=[0.0])
        got = rho_hat_eta(0.5, np.zeros((1, 0)), np.zeros((1, 0)), S, L_OUT)
        assert got[0] == pytest.approx((2 * np.pi) ** (-1.5), rel=1e-14)

    def test_fourier_transform_of_rho_hat(self):
        # integrating out the kernel-block Gaussian pair reproduces rho_hat_eta
        Q = QuadricForm(2, 1, [np.diag([1.0, 0.0])])
        S = decompose_form(Q, [1.0])
        assert S.nu == 1
        s, xp, yp = 0.6, 0.35, -0.2
        grid = np.linspace(-6.0, 6.0, 301)
        h = grid[1] - grid[0]
        X2, Y2 = np.meshgrid(grid, grid, indexing="ij")
        c = np.stack(
            [np.full(X2.shape, xp + 1j * yp), X2 + 1j * Y2], axis=-1
        )
        vals = rho_hat_adapted(s, c, S, L_IN)
        ft = np.sum(vals) * h * h / (2 * np.pi)
        want = rho_hat_eta(s, [[xp]], [[yp]], S, L_IN)[0]
        assert abs(ft - want) <= 1e-6


class TestWeightedKernel:
    def test_coincident_points_positive(self, heis_q, heis_spectral, rng):
        z = rng.normal(size=1) + 1j * rng.normal(size=1)
        val = weighted_heat_kernel(0.7, z, z, heis_q, heis_spectral, L_IN)
        assert val.imag == pytest.approx(0.0, abs=1e-15)
        assert val.real > 0

    def test_conjugate_symmetry(self, heis_q, heis_spectral, rng):
        for _ in range(100):
            z = rng.normal(size=1) + 1j * rng.normal(size=1)
            zt = rng.normal(size=1) + 1j * rng.normal(size=1)
            s = float(rng.uniform(0.2, 2.0))
            a = weighted_heat_kernel(s, z, zt, heis_q, heis_spectral, L_IN)
            b = weighted_heat_kernel(s, zt, z, heis_q, heis_spectral, L_IN)
            assert abs(a - np.conj(b)) <= 1e-12 * abs(a)

    def test_lambda_zero_is_real_gaussian(self, heis_q, rng):
        S0 = decompose_form(heis_q, [0.0])
        z = rng.normal(size=1) + 1j * rng.normal(size=1)
        zt = rng.normal(size=1) + 1j * rng.normal(size=1)
        s = 0.9
        val = weighted_heat_kernel(s, z, zt, heis_q, S0, L_IN)
        assert val.imag == 0.0
        want = (2 * np.pi) ** 0.5 * rho_hat(KernelQuery(s, z - zt, S0, L_IN))
        assert val.real == pytest.approx(want, rel=1e-14)

    def test_modulus_is_rho_hat(self, heis_q, heis_spectral, rng):
        z = rng.normal(size=1) + 1j * rng.normal(size=1)
        zt = rng.normal(size=1) + 1j * rng.normal(size=1)
        s = 0.4
        val = weighted_heat_kernel(s, z, zt, heis_q, heis_spectral, L_IN)
        want = (2 * np.pi) ** 0.5 * rho_hat(KernelQuery(s, z - zt, heis_spectral, L_IN))
        assert abs(val) == pytest.approx(want, rel=1e-13)


class TestInversionOracle:
    @pytest.mark.parametrize("lam,s,L", [
        (1.0, 0.7, L_IN),
        (1.0, 0.7, L_OUT),
        (0.5, 0.3, L_IN),
        (2.0, 0.3, L_OUT),
    ])
    def test_matches_closed_form(self, heis_q, lam, s, L):
        S = decompose_form(heis_q, [lam])
        xp, yp = [[0.3], [0.0]], [[-0.2], [0.0]]
        want = rho_hat_eta(s, xp, yp, S, L)
        got, _ = rho_via_inversion(s, xp, yp, S, L)
        assert np.max(np.abs(got - want)) <= 1e-6
        assert np.max(np.abs(got.imag)) <= 1e-8

    def test_origin_has_unit_twist(self, heis_q):
        # at (x, y) = (0, 0) the prefactor exp(-2i mu x y) is exactly 1
        S = decompose_form(heis_q, [1.0])
        got, _ = rho_via_inversion(0.5, [[0.0]], [[0.0]], S, L_IN)
        want = rho_hat_eta(0.5, [[0.0]], [[0.0]], S, L_IN)
        assert got[0].real == pytest.approx(want[0], rel=1e-9)

    def test_quadspec_rule_sizes_box(self, heis_q):
        S = decompose_form(heis_q, [0.5])
        spec = inversion_quadspec(0.3, S.mu[0], 1e-6)
        Sj = math.exp(-2 * 0.5 * 0.3)
        rate = 0.5 * ((1 - Sj**2) / (1 + Sj**2)) / (4 * 0.5)
        assert inversion_rate(0.3, S.mu[0]) == pytest.approx(rate)
        assert spec.dim == 2 and spec.half_widths[0] == spec.half_widths[1]
        assert math.exp(-rate * spec.half_widths[0] ** 2) <= 1e-3 * 1e-6 * 1.0001

    def test_rate_is_elementwise_and_refuses_mu_zero(self):
        # the array call gives the per-direction calls' bits; a kernel direction has no box
        mu = np.array([2.0, -0.5, 1e-9, -3.0, 0.25, 7.5, -1e-3, 1.0, -40.0])
        assert inversion_rate(0.3, mu).tobytes() == np.array([inversion_rate(0.3, m) for m in mu]).tobytes()
        for call in (lambda: inversion_rate(0.3, np.array([1.0, 0.0])), lambda: inversion_quadspec(0.3, 0.0, 1e-6)):
            with pytest.raises(ValueError, match="nonzero"):
                call()

    def test_under_resolved_request_refused(self, heis_q):
        S = decompose_form(heis_q, [0.5])
        tiny = GridSpec.cube(3.0, 2, 64)
        with pytest.raises(NumericsError, match="tail"):
            rho_via_inversion(0.3, [[0.0]], [[0.0]], S, L_IN, quad=tiny)

    def test_requires_rank(self, heis_q):
        S0 = decompose_form(heis_q, [0.0])
        with pytest.raises(ValueError):
            rho_via_inversion(0.5, [], [], S0, L_IN)


# Non-commuting n = 2, m = 2 form: B1 + B2 = diag(1, -0.5), so lambda = (1, 1)
# gives mu = (1, -0.5) with an eigenbasis that is not the standard one.
_B2 = np.array([[0.3, 0.4 - 0.2j], [0.4 + 0.2j, -0.1]])
_B1 = np.diag([1.0, -0.5]).astype(complex) - _B2
INVERSION_SAMPLES = np.array([(0.3, -0.2), (0.0, 0.0), (-0.7, 0.5), (1.1, 0.4)])


def _rotated_form(mu, seed):
    rng = np.random.default_rng(seed)
    n = len(mu)
    U, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return QuadricForm(n, 1, [U @ np.diag(mu).astype(complex) @ U.conj().T])


def _inversion_geometries():
    """(name, spectral data) over nu = 1, 2, 3."""
    return [
        ("heisenberg", decompose_form(heisenberg(1), [1.0])),
        ("rank1_n2", decompose_form(_rotated_form([1.0, 0.0], 7), [1.0])),
        ("full_rank_n2", decompose_form(QuadricForm(2, 2, [_B1, _B2]), [1.0, 1.0])),
        ("n3", decompose_form(_rotated_form([1.0, -0.5, 0.25], 11), [1.0])),
    ]


def _geometry_params(rows):
    """pytest params of (name, spectral data) rows.  The ids are '<name>-S<k>-None', and
    '-eta<k>' on the row with a kernel block: the ids these tests had while each row also
    carried a kernel-block frequency, kept so that the test names stay fixed."""
    return [pytest.param(name, S, id=f"{name}-S{k}-{f'eta{k}' if S.nu < S.n else None}")
            for k, (name, S) in enumerate(rows)]


def _sample_duals(nu):
    """Sample points with x'_j = x and y'_j = y spread over the directions."""
    scale = np.linspace(1.0, 0.6, nu)
    return INVERSION_SAMPLES[:, :1] * scale, INVERSION_SAMPLES[:, 1:] * scale[::-1]


class TestFactorisedInversion:
    @pytest.mark.parametrize("name,S", _geometry_params(_inversion_geometries()))
    def test_matches_closed_form_every_rank(self, name, S):
        xp, yp = _sample_duals(S.nu)
        for L in (FormIndex([1]), FormIndex([2]) if S.n > 1 else L_OUT):
            for s in (0.3, 0.7):
                want = rho_hat_eta(s, xp, yp, S, L)
                got, _ = rho_via_inversion(s, xp, yp, S, L)
                assert got.shape == (len(xp),)
                assert np.max(np.abs(got - want)) <= 1e-6, (name, L, s)
                assert np.max(np.abs(got.imag)) <= 1e-8, (name, L, s)

    @pytest.mark.parametrize("name,S", _geometry_params(_inversion_geometries()[2:]))
    def test_batch_equals_single_calls(self, name, S):
        xp, yp = _sample_duals(S.nu)
        L = FormIndex([1])
        batch, _ = rho_via_inversion(0.3, xp, yp, S, L)
        for k in range(len(xp)):
            single, _ = rho_via_inversion(0.3, xp[k : k + 1], yp[k : k + 1], S, L)
            assert single.shape == (1,)
            assert abs(batch[k] - single[0]) <= 1e-14

    @pytest.mark.parametrize("signs", [(1.0, -1.0), (-1.0, 1.0)])
    @pytest.mark.parametrize("name,S", _geometry_params(_inversion_geometries()[1:3]))
    def test_flipped_phase_sign_fails(self, name, S, signs):
        # negative control: a flipped twist or a.b phase sign must not pass
        xp, yp = _sample_duals(S.nu)
        L = FormIndex([1])
        worst = 0.0
        for s in (0.3, 0.7):
            want = rho_hat_eta(s, xp, yp, S, L)
            got, _ = rho_via_inversion(s, xp, yp, S, L, phase_signs=signs)
            worst = max(worst, float(np.max(np.abs(got - want))))
        assert worst > 1e-3

    def test_budget_reported_per_direction(self):
        S = _inversion_geometries()[2][1]
        xp, yp = _sample_duals(2)
        values, (_, tails, _, budget) = rho_via_inversion(0.3, xp, yp, S, FormIndex([1]))
        assert budget == inversion_budget(0.3, xp, yp, S, FormIndex([1]))[3]
        assert values.shape == (4,) and len(tails) == 2
        assert 0.0 < budget <= 1e-6 and all(0.0 < t for t in tails)
        # each direction gets its own box from its own |mu_j|
        boxes = [inversion_quadspec(0.3, mu, 1e-6) for mu in S.mu[:2]]
        assert boxes[1].half_widths[0] < boxes[0].half_widths[0]

    def test_quad_override_applies_to_every_direction(self):
        S = _inversion_geometries()[2][1]
        tiny = GridSpec.cube(3.0, 2, 64)
        with pytest.raises(NumericsError, match="tail"):
            rho_via_inversion(0.3, np.zeros((1, 2)), np.zeros((1, 2)), S, FormIndex([1]), quad=tiny)

    @pytest.mark.parametrize("name,S", _geometry_params(_inversion_geometries()))
    def test_rho_hat_eta_rows_equal_single_calls(self, name, S):
        # the inversion check makes one rho_hat_eta call per time over all its samples
        xp, yp = _sample_duals(S.nu)
        for s in (0.3, 0.7):
            batch = rho_hat_eta(s, xp, yp, S, FormIndex([1]))
            assert batch.shape == (len(xp),)
            for k in range(len(xp)):
                single = rho_hat_eta(s, xp[k : k + 1], yp[k : k + 1], S, FormIndex([1]))
                assert single.shape == (1,) and batch[k] == single[0], (name, s, k)

    def test_sample_shape_checked(self):
        S = _inversion_geometries()[2][1]
        with pytest.raises(ValueError, match="shape"):
            rho_via_inversion(0.3, np.zeros((3, 2)), np.zeros((2, 2)), S, L_IN)
        for xp, yp in (([0.0], [0.0]), (np.zeros(2), np.zeros(2))):  # one sample is a (1, nu) stack
            with pytest.raises(ValueError, match="shape"):
                rho_via_inversion(0.3, xp, yp, S, L_IN)

    def test_rho_hat_eta_sample_shape_checked(self):
        S = _inversion_geometries()[2][1]
        for xp, yp in ((np.zeros((3, 2)), np.zeros((2, 2))), ([0.0], [0.0]), (np.zeros(2), np.zeros(2)),
                       (np.zeros((1, 1, 2)), np.zeros((1, 1, 2)))):
            with pytest.raises(ValueError, match="shape"):
                rho_hat_eta(0.3, xp, yp, S, L_IN)


@st.composite
def _inversion_cases(draw):
    """Random mu in +-[0.25, 4] over nu = 1 or 2 directions, s, L, samples with
    |x|, |y| <= 1.5, and either the default boxes or one coarse square grid of
    8 to 64 points on direction 0's default box."""
    mag = st.floats(0.25, 4.0)
    mu = [draw(mag) * draw(st.sampled_from([-1.0, 1.0])) for _ in range(draw(st.integers(1, 2)))]
    S = spectral_for_mu(mu)
    s = draw(st.floats(0.1, 2.0))
    L = FormIndex(sorted(draw(st.sets(st.integers(1, len(mu))))))
    K = draw(st.integers(1, 3))
    coord = st.floats(-1.5, 1.5)
    xp, yp = (np.array([[draw(coord) for _ in mu] for _ in range(K)]) for _ in range(2))
    quad = None
    if draw(st.booleans()):
        quad = GridSpec.cube(inversion_quadspec(s, S.mu[0], 1e-6).half_widths[0], 2, draw(st.integers(8, 64)))
    return S, s, L, xp, yp, quad


class TestInversionBudget:
    @pytest.mark.parametrize("points", [9, 12])
    def test_coarse_quad_is_refused(self, heis_spectral, points):
        # 12 points used to return an error of 1.5e-3 under a budget of 4.5e-10
        quad = GridSpec.cube(18.0, 2, points)
        with pytest.raises(NumericsError, match="aliasing"):
            rho_via_inversion(0.3, [[0.7]], [[0.5]], heis_spectral, L_IN, quad=quad)

    @pytest.mark.parametrize("name,S", _geometry_params(_inversion_geometries()[:3]))
    def test_default_grids_stay_small(self, name, S):
        # the three verify-suite geometries; the fixed grid had 512 points per axis
        for s in (0.3, 0.7):
            assert all(inversion_quadspec(s, mu, 1e-6).points <= 64 for mu in S.mu[: S.nu])

    @pytest.mark.parametrize("tol", [1.0, 1e3, 1e6])
    def test_loose_tolerance_reuses_the_tight_grid(self, heis_spectral, tol):
        mu = heis_spectral.mu[0]
        assert inversion_quadspec(0.3, mu, tol) == inversion_quadspec(0.3, mu, 1e-6)

    @settings(max_examples=60, deadline=None)
    @given(case=_inversion_cases())
    def test_budget_bounds_the_error(self, case):
        S, s, L, xp, yp, quad = case
        try:
            budget = inversion_budget(s, xp, yp, S, L, quad=quad)[3]
        except NumericsError:
            return
        got, _ = rho_via_inversion(s, xp, yp, S, L, quad=quad)
        want = rho_hat_eta(s, xp, yp, S, L)
        assert np.max(np.abs(got - want)) <= budget + 1e-13
