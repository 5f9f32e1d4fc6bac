import json

import numpy as np
import pytest

from quadheat import QuadricForm, heisenberg, phi_lambda_matrix
from conftest import random_hermitian_quadric


class TestPhiEval:
    """phi(z, w)_k = w^H A_k z, computed from the matrices a QuadricForm stores."""

    def test_hermitian_symmetry_random(self, rng):
        Q = random_hermitian_quadric(rng, 3, 2)
        for _ in range(100):
            z = rng.normal(size=3) + 1j * rng.normal(size=3)
            w = rng.normal(size=3) + 1j * rng.normal(size=3)
            a = np.array([np.vdot(w, A @ z) for A in Q.A])
            b = np.array([np.vdot(z, A @ w) for A in Q.A])
            np.testing.assert_allclose(a, np.conj(b), rtol=1e-12, atol=1e-14)

    def test_diagonal_is_real(self, rng):
        Q = random_hermitian_quadric(rng, 3, 2)
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        vals = np.array([np.vdot(z, A @ z) for A in Q.A])
        np.testing.assert_allclose(vals.imag, 0.0, atol=1e-13)


class TestPhiLambdaMatrix:
    def test_heisenberg(self, heis_q):
        np.testing.assert_array_equal(phi_lambda_matrix(heis_q, [1.0]), [[1.0]])

    def test_zero_lambda(self, rng):
        Q = random_hermitian_quadric(rng, 3, 2)
        np.testing.assert_array_equal(phi_lambda_matrix(Q, [0.0, 0.0]), np.zeros((3, 3)))

    def test_linear_combination(self):
        A1 = np.diag([1.0, -1.0]).astype(complex)
        A2 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        Q = QuadricForm(2, 2, [A1, A2])
        got = phi_lambda_matrix(Q, [2.0, 3.0])
        np.testing.assert_allclose(got, 2.0 * A1 + 3.0 * A2)

    def test_quadratic_form_matches_phi(self, rng):
        Q = random_hermitian_quadric(rng, 3, 2)
        lam = rng.normal(size=2)
        A = phi_lambda_matrix(Q, lam)
        for _ in range(20):
            z = rng.normal(size=3) + 1j * rng.normal(size=3)
            quad = np.vdot(z, A @ z)
            dotted = np.array([np.vdot(z, a @ z) for a in Q.A]) @ lam
            assert abs(quad.imag) < 1e-12 * max(1.0, abs(quad))
            np.testing.assert_allclose(dotted.real, quad.real, rtol=1e-12)

    def test_dimension_mismatch(self, heis_q):
        with pytest.raises(ValueError):
            phi_lambda_matrix(heis_q, [1.0, 2.0])


class TestConstruction:
    def test_small_defect_symmetrized(self):
        A = np.array([[1.0, 0.5 + 1e-13j], [0.5, 2.0]], dtype=complex)
        Q = QuadricForm(2, 1, [A])
        H = Q.A[0]
        np.testing.assert_array_equal(H, H.conj().T)

    def test_large_defect_rejected(self):
        A = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            QuadricForm(2, 1, [A])

    def test_large_defect_rejected_past_the_norms_overflow(self):
        # numpy's |.|_F overflows from entries of about 1e154: the defect check read inf <= 1e-10 inf
        with pytest.raises(ValueError, match=r"A\[0\] is not Hermitian \(defect 1.414e\+200\)"):
            QuadricForm(2, 1, [[[0, 1e200], [0, 0]]])

    def test_wrong_matrix_count(self):
        with pytest.raises(ValueError):
            QuadricForm(2, 2, [np.eye(2)])

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            QuadricForm(2, 1, [np.eye(3)])

    def test_json_roundtrip(self, rng):
        Q = random_hermitian_quadric(rng, 3, 2)
        blob = json.dumps(Q.to_json())
        Q2 = QuadricForm.from_json(json.loads(blob))
        assert Q2.n == Q.n and Q2.m == Q.m
        for a, b in zip(Q.A, Q2.A):
            np.testing.assert_array_equal(a, b)

    def test_json_missing_field(self):
        with pytest.raises(ValueError, match="'A'"):
            QuadricForm.from_json({"n": 1, "m": 1})

    def test_heisenberg_factory(self):
        Q = heisenberg(3)
        assert Q.n == 3 and Q.m == 1
        np.testing.assert_array_equal(Q.A[0], np.eye(3))
