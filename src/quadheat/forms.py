"""Form multi-indices and the sign bookkeeping they induce.

A (0,q)-form component is selected by a strictly increasing multi-index
L of 1-based coordinate directions.  In the eigenbasis, each nonzero
eigenvalue mu_j carries a sign

    eps_j = sgn(mu_j)   if j in L,
    eps_j = -sgn(mu_j)  otherwise,

which controls the exponential prefactor of the heat kernel.  Directions in
the kernel block (j > nu) carry no sign; indices of L landing there are legal
and simply inert.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import SpectralData


@dataclass(frozen=True)
class FormIndex:
    """Strictly increasing tuple of 1-based direction indices."""

    L: tuple

    def __init__(self, L=()):
        L = tuple(L)
        if any(isinstance(j, (bool, np.bool_)) or not float(j).is_integer() for j in L):
            raise ValueError(f"form index entries must be integers, got {list(L)}")
        L = tuple(int(j) for j in L)
        if any(j < 1 for j in L):
            raise ValueError(f"form index entries must be >= 1, got {L}")
        if any(a >= b for a, b in zip(L, L[1:])):
            raise ValueError(f"form index must be strictly increasing, got {L}")
        object.__setattr__(self, "L", L)

    @property
    def q(self) -> int:
        return len(self.L)

    def contains(self, j: int) -> bool:
        """Membership of the 1-based direction j."""
        return j in self.L

    def validate_against(self, n: int) -> None:
        if self.L and self.L[-1] > n:
            raise ValueError(f"form index {self.L} exceeds dimension n={n}")


def epsilon(L: FormIndex, S: SpectralData) -> np.ndarray:
    """Signs eps_j for the nu nonzero eigenvalues, as an int array.

    eps_j = sgn(mu_j) when the (1-based) direction j is in L, else -sgn(mu_j).
    """
    L.validate_against(S.n)
    eps = np.empty(S.nu, dtype=int)
    for j in range(S.nu):
        sgn = 1 if S.mu[j] > 0 else -1
        eps[j] = sgn if L.contains(j + 1) else -sgn
    return eps
