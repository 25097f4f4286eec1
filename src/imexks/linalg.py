"""Dense LU factorization with reuse and linear solves.

Serves only the dense reference: the ``compact_fd.build_*`` operators and
``stepper.step_dense_reference``.  The solver itself never reaches this
module: its stage solves are diagonal in a real transform (see
``stepper.prepare``).  LAPACK does the heavy lifting via scipy.
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
    """Packed LU factors of a square matrix, reusable for many right-hand sides."""

    factors: np.ndarray
    pivots: np.ndarray


def lu_factor(a) -> LuFactorization:
    """PA = LU with partial pivoting.

    Raises :class:`SingularMatrixError` naming the offending pivot when a
    diagonal entry of U falls below an eps-scaled multiple of the matrix
    magnitude.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
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
    return LuFactorization(factors=factors, pivots=pivots)


def lu_solve(fact: LuFactorization, b) -> np.ndarray:
    """Solve A x = b against a stored factorization.

    ``b`` may be a vector or a matrix of stacked right-hand sides.
    """
    b = np.asarray(b)
    n = fact.factors.shape[0]
    if b.shape[0] != n:
        raise ValueError(f"right-hand side has leading dimension {b.shape[0]}, expected {n}")
    return scipy.linalg.lu_solve((fact.factors, fact.pivots), b, check_finite=False)
