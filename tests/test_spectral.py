import numpy as np
import pytest

from quadheat import (
    FormIndex,
    KernelQuery,
    NumericsError,
    SpectralData,
    decompose_form,
    eigendecompose,
    heisenberg,
    rank_nu,
    rho_hat,
)
from quadheat.quadric import HERMITIAN_DEFECT_TOL
from conftest import random_hermitian_quadric


def random_hermitian(rng, n):
    X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (X + X.conj().T)


class TestEigendecompose:
    def test_identity(self):
        S = eigendecompose(np.eye(2, dtype=complex))
        np.testing.assert_array_equal(S.mu, [1.0, 1.0])
        assert S.nu == 2
        np.testing.assert_allclose(S.V.conj().T @ S.V, np.eye(2), atol=1e-14)

    def test_already_diagonal(self):
        S = eigendecompose(np.diag([2.0, -1.0, 0.0]).astype(complex))
        np.testing.assert_array_equal(S.mu, [2.0, -1.0, 0.0])
        assert S.nu == 2

    def test_tie_breaking_positive_first(self):
        S = eigendecompose(np.diag([-2.0, 2.0]).astype(complex))
        np.testing.assert_array_equal(S.mu, [2.0, -2.0])

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_reconstruction(self, rng, n):
        A = random_hermitian(rng, n)
        S = eigendecompose(A)
        np.testing.assert_allclose(
            S.V @ np.diag(S.mu) @ S.V.conj().T, A,
            atol=1e-10 * max(1.0, np.linalg.norm(A)),
        )
        np.testing.assert_allclose(S.V.conj().T @ S.V, np.eye(n), atol=1e-10)
        np.testing.assert_allclose(
            A @ S.V, S.V @ np.diag(S.mu), atol=1e-10 * max(1.0, np.linalg.norm(A))
        )

    def test_matches_library_eigenvalues(self, rng):
        for n in (2, 3, 5, 9):
            A = random_hermitian(rng, n)
            S = eigendecompose(A)
            np.testing.assert_allclose(
                np.sort(S.mu), np.sort(np.linalg.eigvalsh(A)), atol=1e-12 * n
            )

    def test_deterministic_bitwise(self, rng):
        A = random_hermitian(rng, 5)
        S1 = eigendecompose(A)
        S2 = eigendecompose(A)
        assert np.array_equal(S1.mu, S2.mu)
        assert np.array_equal(S1.V, S2.V)
        assert S1.nu == S2.nu

    def test_degenerate_eigenbasis_unitary_and_deterministic(self, rng):
        X = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        U, _ = np.linalg.qr(X)
        A = U @ np.diag([2.0, 2.0, -1.0, 0.0]) @ U.conj().T
        S = eigendecompose(A)
        assert np.linalg.norm(S.V.conj().T @ S.V - np.eye(4)) <= 1e-13
        assert np.linalg.norm(A @ S.V - S.V @ np.diag(S.mu)) <= 1e-13 * np.linalg.norm(A)
        again = eigendecompose(A)
        assert np.array_equal(S.mu, again.mu) and np.array_equal(S.V, again.V)

    def test_zero_matrix(self):
        S = eigendecompose(np.zeros((3, 3), dtype=complex))
        assert S.nu == 0
        np.testing.assert_array_equal(S.V, np.eye(3))

    def test_phase_convention(self, rng):
        A = random_hermitian(rng, 4)
        S = eigendecompose(A)
        for j in range(4):
            k = int(np.argmax(np.abs(S.V[:, j])))
            pivot = S.V[k, j]
            assert pivot.real > 0 and abs(pivot.imag) < 1e-12 * abs(pivot)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            eigendecompose(np.zeros((2, 3)))

    @pytest.mark.parametrize("n", [1, 2, 12, 16])
    def test_residual_and_unitarity(self, rng, n):
        A = random_hermitian(rng, n)
        S = eigendecompose(A)
        norm = np.linalg.norm(A)
        assert np.linalg.norm(A @ S.V - S.V * S.mu) <= 1e-12 * norm
        assert np.linalg.norm(S.V.conj().T @ S.V - np.eye(n)) <= 1e-12 * n

    def test_non_hermitian_rejected(self, rng):
        A = random_hermitian(rng, 3)
        A[0, 1] += 10.0 * HERMITIAN_DEFECT_TOL * np.linalg.norm(A)
        with pytest.raises(ValueError, match="not Hermitian"):
            eigendecompose(A)

    def test_round_off_defect_accepted(self, rng):
        A = random_hermitian(rng, 3)
        A[0, 1] += 0.1 * HERMITIAN_DEFECT_TOL * np.linalg.norm(A)
        assert eigendecompose(A).n == 3

    def test_lapack_failure_is_numerics_error(self, rng, monkeypatch):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        with pytest.raises(NumericsError, match="did not converge"):
            eigendecompose(random_hermitian(rng, 3))


class TestRank:
    def test_all_zero(self):
        assert rank_nu([0.0, 0.0], 1e-10) == 0

    def test_threshold(self):
        assert rank_nu([3.0, -2.0, 1e-16], 1e-10) == 2

    def test_heisenberg_n2(self):
        S = decompose_form(heisenberg(2), [5.0])
        assert S.nu == 2
        np.testing.assert_allclose(S.mu, [5.0, 5.0])


class TestAdaptedCoordinates:
    """Adapted coordinates are c = V^H z, rank block c[:nu], kernel block c[nu:]."""

    def test_identity_basis_split(self):
        S = eigendecompose(np.diag([2.0, 1.0, 0.0]).astype(complex))
        z = np.array([1 + 1j, 2.0, 3 - 1j])
        c = S.V.conj().T @ z
        assert c[: S.nu].shape == (2,) and c[S.nu :].shape == (1,)
        np.testing.assert_allclose(c, z)

    def test_norm_preserved(self, rng):
        A = random_hermitian(rng, 4)
        S = eigendecompose(A)
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        c = S.V.conj().T @ z
        np.testing.assert_allclose(np.sum(np.abs(c) ** 2), np.sum(np.abs(z) ** 2),
                                   rtol=1e-12)

    def test_hadamard_type_basis(self):
        V = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
        S = SpectralData(mu=np.array([1.0, -1.0]), V=V, nu=2, tol=1e-10)
        z = np.array([1.0, 0.0], dtype=complex)
        np.testing.assert_allclose(S.V.conj().T @ z, np.array([1.0, 1.0]) / np.sqrt(2.0),
                                   atol=1e-15)

    def test_roundtrip(self, rng):
        A = random_hermitian(rng, 5)
        S = eigendecompose(A)
        z = rng.normal(size=5) + 1j * rng.normal(size=5)
        np.testing.assert_allclose(S.V @ (S.V.conj().T @ z), z, atol=1e-12)

    def test_dimension_mismatch(self):
        S = eigendecompose(np.eye(2, dtype=complex))
        with pytest.raises(ValueError):
            S.V.conj().T @ np.array([1.0, 2.0, 3.0])


class TestLambdaNegation:
    def test_negated_spectrum_and_projectors(self, rng):
        Q = random_hermitian_quadric(rng, 3, 2)
        lam = rng.normal(size=2)
        Sp = decompose_form(Q, lam)
        Sm = decompose_form(Q, -lam)
        np.testing.assert_allclose(Sm.mu, -Sp.mu, atol=1e-10)
        for j in range(3):
            Pp = np.outer(Sp.V[:, j], Sp.V[:, j].conj())
            Pm = np.outer(Sm.V[:, j], Sm.V[:, j].conj())
            assert np.linalg.norm(Pp - Pm) <= 1e-9


class TestDegenerateBasisFreedom:
    def test_two_valid_bases_same_kernel(self, heis_q):
        # A = I is fully degenerate: any unitary diagonalizes it.
        Q2 = heisenberg(2)
        S1 = decompose_form(Q2, [1.0])
        theta = 0.7
        U = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
            dtype=complex,
        )
        S2 = SpectralData(mu=S1.mu.copy(), V=U, nu=2, tol=S1.tol, lam=np.array([1.0]))
        L = FormIndex([1, 2])
        rng = np.random.default_rng(5)
        for _ in range(20):
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            s = float(rng.uniform(0.2, 1.5))
            a = rho_hat(KernelQuery(s, z, S1, L))
            b = rho_hat(KernelQuery(s, z, S2, L))
            assert abs(a - b) <= 1e-10 * a
