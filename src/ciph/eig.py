"""Cyclic Jacobi eigensolver for small symmetric matrices.

This is the independent oracle for the sampled positive-semidefiniteness
check: ``ciph.verify.exhaustive_psd_check`` uses it, while
``ciph.tensor.check_psd_c`` runs batched LAPACK ``eigvalsh``. The sweep is
pure Python and dependency-free, so agreement between the two is evidence
that neither eigenvalue path is wrong. It is far slower than LAPACK and meant
for the oracle's small dimensions.
"""

from __future__ import annotations

import numpy as np

MAX_SWEEPS = 50  # cyclic sweeps at most; the stop test usually ends far sooner


def jacobi_eigenvalues(matrix) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending.

    The input is symmetrized as (M + M^T)/2 before sweeping; callers that
    care about asymmetry must measure it separately.
    """
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    n = M.shape[0]
    if n == 1:
        return np.array([M[0, 0]])
    A = 0.5 * (M + M.T)
    stop = 1e-16 * float(np.max(np.abs(A)))  # relative, so the sweep is scale-free
    for _ in range(MAX_SWEEPS):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(A[p, q]))
        if off <= stop:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= stop:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = 1.0 / (abs(theta) + np.sqrt(1.0 + theta * theta))
                if theta < 0.0:
                    t = -t
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                app, aqq = A[p, p], A[q, q]
                A[p, p] = app - t * apq
                A[q, q] = aqq + t * apq
                A[p, q] = 0.0
                A[q, p] = 0.0
                for i in range(n):
                    if i == p or i == q:
                        continue
                    aip, aiq = A[i, p], A[i, q]
                    A[i, p] = aip * c - aiq * s
                    A[p, i] = A[i, p]
                    A[i, q] = aiq * c + aip * s
                    A[q, i] = A[i, q]
    return np.sort(np.diag(A).copy())
