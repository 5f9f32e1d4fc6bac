"""Vector-valued Hermitian forms.

A quadric geometry is described by m Hermitian n x n matrices ``A_k``.  The
form ``phi(z, w) = (w^H A_1 z, ..., w^H A_m z)`` is linear in its first slot
and conjugate-linear in the second, so ``phi(z, w) = conj(phi(w, z))`` and
``phi(z, z)`` is real componentwise.

Everything here is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HERMITIAN_DEFECT_TOL = 1e-10


def json_numbers(obj, shape: tuple) -> np.ndarray:
    """Parsed JSON ``obj`` as a float array of ``shape`` (-1: any length).

    ValueError unless every entry is a finite JSON number: strings, booleans
    and null are refused, not converted.
    """
    leaves = np.asarray(obj, dtype=object)  # ragged lists leave lists as entries
    values = leaves.ravel().tolist()
    if not set(map(type, values)) <= {int, float}:
        raise ValueError(f"entries must be JSON numbers, got {obj!r}")
    if leaves.shape != shape and (leaves.ndim != len(shape) or any(
            w not in (-1, g) for w, g in zip(shape, leaves.shape))):
        raise ValueError(f"expected shape {str(shape).replace('-1', 'k')}, got {leaves.shape}")
    try:
        arr = leaves.astype(float)
    except OverflowError:  # an integer past the float range
        arr = np.full(leaves.shape, np.inf)
    if not np.isfinite(arr).all():
        raise ValueError(f"entries must be finite, got {obj!r}")
    return arr


def frobenius_norm(a) -> float:
    """|a|_F without overflow: numpy's norm, or where its sum of squares overflows (entries past
    about 1e154) the norm of a over its largest modulus, times that modulus."""
    with np.errstate(over="ignore"):  # inf only where |a|_F itself passes the float range
        norm, top = float(np.linalg.norm(a)), np.abs(a).max(initial=0.0)
        return float(top * np.linalg.norm(a / top)) if norm == np.inf and top < np.inf else norm


@dataclass(frozen=True)
class QuadricForm:
    """m Hermitian n x n matrices defining the vector-valued form.

    Matrices whose Hermitian defect ``|A - A^H|_F`` is below
    ``1e-10 * max(1, |A|_F)`` are symmetrized to ``(A + A^H)/2`` on
    construction (tolerating serialization round-off); larger defects are
    rejected.
    """

    n: int
    m: int
    A: tuple = field(repr=False)

    def __init__(self, n: int, m: int, A):
        if n < 1 or m < 1:
            raise ValueError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
        A = list(A)
        if len(A) != m:
            raise ValueError(f"got {len(A)} matrices, expected m={m}")
        mats = []
        for k, a in enumerate(A):
            a = np.asarray(a, dtype=complex)
            if a.shape != (n, n):
                raise ValueError(f"matrix A[{k}] has shape {a.shape}, expected ({n}, {n})")
            defect = frobenius_norm(a - a.conj().T)
            if not defect <= HERMITIAN_DEFECT_TOL * max(1.0, frobenius_norm(a)):  # NaN too
                raise ValueError(f"matrix A[{k}] is not Hermitian (defect {defect:.3e})")
            h = 0.5 * (a + a.conj().T)
            h.setflags(write=False)
            mats.append(h)
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "m", int(m))
        object.__setattr__(self, "A", tuple(mats))

    def to_json(self) -> dict:
        """JSON object {"n", "m", "A"}; matrices are row-major [re, im] pairs."""
        return {
            "n": self.n,
            "m": self.m,
            "A": [
                [[float(x.real), float(x.imag)] for x in a.ravel()] for a in self.A
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "QuadricForm":
        """Inverse of to_json; ValueError naming the field for anything else."""
        for key in ("n", "m", "A"):
            if not isinstance(obj, dict) or key not in obj:
                raise ValueError(f"quadric JSON is missing field '{key}'")
        n, m = obj["n"], obj["m"]
        if type(n) is not int or type(m) is not int:
            raise ValueError(f"quadric fields 'n' and 'm' must be integers, got {n!r}, {m!r}")
        try:
            A = json_numbers(obj["A"], (m, n * n, 2))  # m matrices of n^2 [re, im] pairs
        except ValueError as exc:
            raise ValueError(f"quadric field 'A': {exc}") from exc
        return cls(n, m, A.view(complex).reshape(m, n, n))


def heisenberg(n: int = 1) -> QuadricForm:
    """The classic case: phi(z, z) = |z|^2, i.e. a single identity matrix."""
    return QuadricForm(n, 1, [np.eye(n, dtype=complex)])


def phi_lambda_matrix(Q: QuadricForm, lam) -> np.ndarray:
    """The Hermitian matrix of the scalar form ``phi(., .) . lam``."""
    lam = np.asarray(lam, dtype=float).reshape(-1)
    if lam.shape != (Q.m,):
        raise ValueError(f"lambda must have length m={Q.m}, got {lam.shape[0]}")
    out = np.zeros((Q.n, Q.n), dtype=complex)
    for lk, a in zip(lam, Q.A):
        out += lk * a
    return out

