"""Constant-coefficient biderivations (brackets) and their product tensors.

A bracket is represented by an n x n matrix A acting on gradients,
``{f, g}_A = df^T A dg``. Skewness is a checked property, not an assumed
one. Two brackets combine into a 4-tensor whose contraction factors into
the two bracket evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, FormatError
from .tensor import Tensor4, _checked_dimension, _number_array


class BracketMatrix:
    """Immutable n x n real matrix inducing the bracket df^T A dg. Its
    entries keep the number rule (``_number_array``): no bools or strings."""

    __slots__ = ("n", "_array")

    def __init__(self, array):
        arr = _number_array(array, "matrix entries")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise FormatError("matrix entries must be finite (no NaN/Inf)")
        arr.setflags(write=False)
        self.n = arr.shape[0]
        self._array = arr

    @classmethod
    def zeros(cls, n: int) -> "BracketMatrix":
        n = _checked_dimension(n)
        return cls(np.zeros((n, n)))

    @classmethod
    def standard_skew(cls) -> "BracketMatrix":
        """The 2 x 2 matrix [[0, 1], [-1, 0]] spanning the skew matrices of R^2."""
        return cls([[0.0, 1.0], [-1.0, 0.0]])

    @property
    def array(self) -> np.ndarray:
        return self._array

    def max_abs(self) -> float:
        return float(np.max(np.abs(self._array)))

    def __eq__(self, other):
        return (
            isinstance(other, BracketMatrix)
            and other.n == self.n
            and bool(np.array_equal(other._array, self._array))
        )

    def __hash__(self):
        return hash((self.n, self._array.tobytes()))

    def __repr__(self):
        return f"BracketMatrix(n={self.n})"


@dataclass(frozen=True)
class SkewCheck:
    """Result of the skewness test; truthy iff the matrix is skew within tol."""

    passed: bool
    residual: float
    witness: tuple[int, int] | None
    tolerance: float

    def __bool__(self) -> bool:
        return self.passed


def is_skew(A: BracketMatrix, tol: float) -> SkewCheck:
    """True iff max |A + A^T| <= tol; a failure carries the 1-based arg-max index."""
    resid = np.abs(A.array + A.array.T)
    worst = float(resid.max())
    if worst <= tol:
        return SkewCheck(True, worst, None, tol)
    i, j = np.unravel_index(int(np.argmax(resid)), resid.shape)
    return SkewCheck(False, worst, (int(i) + 1, int(j) + 1), tol)


def bracket_eval(A: BracketMatrix, f, g, x) -> float:
    """df(x)^T A dg(x)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (A.n,):
        raise DimensionMismatch(f"point has shape {x.shape}, expected ({A.n},)")
    if f.n != A.n or g.n != A.n:
        raise DimensionMismatch(
            f"field dimensions ({f.n}, {g.n}) do not match bracket dimension {A.n}"
        )
    df = np.asarray(f.grad(x), dtype=float)
    dg = np.asarray(g.grad(x), dtype=float)
    return float(df @ (A.array @ dg))


def product_tensor(A: BracketMatrix, B: BracketMatrix) -> Tensor4:
    """t[i,j,k,l] = A[i,k] * B[j,l].

    Contracting the result against gradients of (f, s, h, q) gives
    ``bracket_eval(A, f, h) * bracket_eval(B, s, q)``: A pairs the first and
    third slots, B the second and fourth.
    """
    if A.n != B.n:
        raise DimensionMismatch(f"dimensions differ: {A.n} vs {B.n}")
    return Tensor4._owning(A.n, np.einsum("ik,jl->ijkl", A.array, B.array))
