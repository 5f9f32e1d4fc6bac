"""Deterministic eigenstructure of the scalarized form matrix.

For each frequency vector ``lam`` the Hermitian matrix ``A = sum_k lam_k A_k``
is diagonalized by LAPACK's Hermitian eigensolver (``np.linalg.eigh``).  The
output is fully deterministic: eigenvalues are ordered nonzero-first by
descending magnitude (ties positive-before-negative, then by eigh's ascending
order), and eigenvector phases are fixed by making the largest-magnitude entry
real positive.  eigh's columns are orthonormal as returned, degenerate
eigenvalue clusters included, so no further orthonormalization is done.

Coordinates in the eigenbasis split into the rank block z' (nonzero
eigenvalues, ``nu`` of them) and the kernel block z'' where the evolution is
plain Euclidean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .quadric import HERMITIAN_DEFECT_TOL, QuadricForm, phi_lambda_matrix

DEFAULT_RANK_TOL_REL = 1e-10


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues, orthonormal eigenbasis, and rank at a fixed lambda.

    ``mu[j]`` and column ``V[:, j]`` pair up; ``|mu[j]| > tol`` exactly for
    ``j < nu``.  ``lam`` is the frequency vector the matrix came from (None
    when decomposing a raw matrix).
    """

    mu: np.ndarray
    V: np.ndarray
    nu: int
    tol: float
    lam: np.ndarray | None = None

    def __post_init__(self):
        self.mu.setflags(write=False)
        self.V.setflags(write=False)
        if self.lam is not None:
            self.lam.setflags(write=False)

    @property
    def n(self) -> int:
        return self.mu.shape[0]

    @property
    def m(self) -> int:
        if self.lam is None:
            raise ValueError("SpectralData has no lambda attached")
        return self.lam.shape[0]


def rank_nu(mu, tol: float) -> int:
    """Number of eigenvalues with |mu_j| > tol."""
    mu = np.asarray(mu, dtype=float)
    return int(np.count_nonzero(np.abs(mu) > tol))


def _canonical_order(mu: np.ndarray, tol: float) -> np.ndarray:
    """Permutation: nonzero block by descending |mu| (ties positive first,
    then original index), zero block last in original index order."""
    idx = np.arange(mu.shape[0])
    nonzero = [j for j in idx if abs(mu[j]) > tol]
    zero = [j for j in idx if abs(mu[j]) <= tol]
    nonzero.sort(key=lambda j: (-abs(mu[j]), 0 if mu[j] > 0 else 1, j))
    return np.array(nonzero + zero, dtype=int)


def _fix_phases(V: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    out = V.copy()
    for j in range(out.shape[1]):
        k = int(np.argmax(np.abs(out[:, j])))
        pivot = out[k, j]
        if abs(pivot) > 0.0:
            out[:, j] *= np.conj(pivot) / abs(pivot)
    return out


def eigendecompose(A, lam=None) -> SpectralData:
    """Diagonalize a Hermitian matrix into canonical SpectralData.

    Eigenvalues with magnitude at most ``DEFAULT_RANK_TOL_REL * max(1, |A|_F)``
    count as the kernel block.  eigh reads one triangle only, so a matrix whose
    Hermitian defect ``|A - A^H|_F`` exceeds ``HERMITIAN_DEFECT_TOL * max(1, |A|_F)``
    raises ValueError.  Raises NumericsError if LAPACK fails to converge.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    scale = max(1.0, np.linalg.norm(A))
    defect = np.linalg.norm(A - A.conj().T)
    if not defect <= HERMITIAN_DEFECT_TOL * scale:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")
    try:
        mu_raw, V_raw = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"Hermitian eigensolver failed: {exc}") from exc
    tol = DEFAULT_RANK_TOL_REL * scale
    order = _canonical_order(mu_raw, tol)
    mu = mu_raw[order]
    V = _fix_phases(V_raw[:, order])
    nu = rank_nu(mu, tol)
    lam_arr = None if lam is None else np.asarray(lam, dtype=float).reshape(-1).copy()
    return SpectralData(mu=mu, V=V, nu=nu, tol=float(tol), lam=lam_arr)


def decompose_form(Q: QuadricForm, lam) -> SpectralData:
    """Eigendecompose the matrix of ``phi . lam``, remembering lambda."""
    return eigendecompose(phi_lambda_matrix(Q, lam), lam=lam)

