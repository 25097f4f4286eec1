"""Dense LU factorization with reuse and linear solves.

Serves the dense compact-operator builders and the Dirichlet systems, whose
operators and shifted stage matrices are held as dense ndarrays.  Periodic
systems never reach this module: their stage solves are diagonal in Fourier
space (see ``stepper.prepare``).  LAPACK does the heavy lifting via scipy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when a pivot is singular to working precision."""

    def __init__(self, pivot_index: int):
        self.pivot_index = pivot_index
        super().__init__(f"matrix is singular to working precision at pivot {pivot_index}")


@dataclass(frozen=True, eq=False)
class LuFactorization:
    """Packed LU factors of a square matrix, reusable for many right-hand sides.

    ``matrix`` keeps the original operand so solves can run optional iterative
    refinement against it.
    """

    factors: np.ndarray
    pivots: np.ndarray
    matrix: np.ndarray

    @property
    def n(self) -> int:
        return self.factors.shape[0]

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.factors)


def _as_square(a) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def lu_factor(a) -> LuFactorization:
    """PA = LU with partial pivoting.

    Raises :class:`SingularMatrixError` naming the offending pivot when a
    diagonal entry of U falls below an eps-scaled multiple of the matrix
    magnitude.
    """
    a = _as_square(a)
    scale = np.abs(a).max()
    if scale == 0.0:
        raise SingularMatrixError(0)
    with warnings.catch_warnings():
        # exact zero pivots are re-reported below as SingularMatrixError
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        factors, pivots = scipy.linalg.lu_factor(a, check_finite=False)
    tol = a.shape[0] * np.finfo(factors.real.dtype).eps * scale
    diag = np.abs(np.diag(factors))
    small = np.nonzero(diag < tol)[0]
    if small.size:
        raise SingularMatrixError(int(small[0]))
    return LuFactorization(factors=factors, pivots=pivots, matrix=a)


def lu_solve(fact: LuFactorization, b, refine: int = 0) -> np.ndarray:
    """Solve A x = b against a stored factorization.

    ``b`` may be a vector or a matrix of stacked right-hand sides.  A real
    factorization accepts complex right-hand sides (real and imaginary parts
    are solved separately).  ``refine`` extra passes of iterative refinement
    reuse the same factors; one pass is enough to push the residual of the
    stiff shifted systems to O(eps).
    """
    b = np.asarray(b)
    if b.shape[0] != fact.n:
        raise ValueError(f"right-hand side has leading dimension {b.shape[0]}, expected {fact.n}")
    if np.iscomplexobj(b) and not fact.is_complex:
        return lu_solve(fact, b.real, refine) + 1j * lu_solve(fact, b.imag, refine)
    x = scipy.linalg.lu_solve((fact.factors, fact.pivots), b, check_finite=False)
    for _ in range(refine):
        residual = b - fact.matrix @ x
        x = x + scipy.linalg.lu_solve((fact.factors, fact.pivots), residual, check_finite=False)
    return x

