"""Brute-force oracles, structurally independent of the main checkers.

Everything here is deliberately written as plain Python loops over nested
lists, with no helper code shared with the vectorized checkers, so that an
agreement between the two is evidence rather than tautology. The loops are
only meant for small dimensions (n <= 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .brackets import BracketMatrix, product_tensor
from .eig import jacobi_eigenvalues
from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    EmptyDirectionSet,
    NegativeCoefficient,
    NonFiniteValue,
)
from .tensor import DEFAULT_TOL, Tensor4, symmetrize_34

ORACLE_MAX_DIMENSION = 5


@dataclass(frozen=True)
class OracleConfig:
    seed: int = 0
    trials: int = 100
    fd_step: float = 1e-6
    poly_degree_max: int = 3

    def __post_init__(self):
        if self.trials < 1:
            raise NegativeCoefficient(f"trials must be >= 1, got {self.trials}")
        if self.fd_step <= 0.0:
            raise NegativeCoefficient(f"fd_step must be > 0, got {self.fd_step}")


@dataclass(frozen=True)
class OracleReport:
    """Loop-based verdicts for the four index-identity conditions."""

    sym_a: bool
    cyclic_b: bool
    raw_iii: bool
    quasi_poisson: bool

    def as_dict(self) -> dict[str, bool]:
        return {
            "SYM_A": self.sym_a,
            "CYCLIC_B": self.cyclic_b,
            "RAW_III": self.raw_iii,
            "QUASI_POISSON": self.quasi_poisson,
        }


@dataclass(frozen=True)
class PsdOracleReport:
    """Loop-based PSD verdict: the first failing direction and its residual
    (the asymmetry, or the negative smallest eigenvalue), both None on a pass."""

    passed: bool
    direction: tuple[float, ...] | None = None
    residual: float | None = None


def fd_gradient(f, x, step: float = 1e-6) -> list[float]:
    """Central-difference gradient, one coordinate at a time."""
    if step <= 0.0:
        raise NegativeCoefficient(f"step must be > 0, got {step}")
    x = [float(v) for v in x]
    grad = []
    for m in range(len(x)):
        hi = list(x)
        lo = list(x)
        hi[m] += step
        lo[m] -= step
        grad.append((float(f.value(hi)) - float(f.value(lo))) / (2.0 * step))
    return grad


def loop_polynomial(f, x) -> tuple[float, list[float]]:
    """Value and gradient of a ``PolynomialField`` straight from its ``terms``.

    Term by term and factor by factor, with every power recomputed, so it
    shares nothing with the compiled evaluation; the multiplication order is
    the documented one (coefficient, then factors in coordinate order, terms
    summed in stored order), so the two agree bit for bit.
    """
    x = [float(v) for v in x]
    if len(x) != f.n:
        raise DimensionMismatch(f"expected a point in R^{f.n}, got {len(x)} coordinates")
    value = 0.0
    grad = [0.0] * f.n
    for exps, coeff in f.terms:
        term = coeff
        for xv, e in zip(x, exps):
            if e:
                term *= xv**e
        value += term
        for m, em in enumerate(exps):
            if em == 0:
                continue
            term = coeff * em
            for j, (xv, e) in enumerate(zip(x, exps)):
                p = e - 1 if j == m else e
                if p:
                    term *= xv**p
            grad[m] += term
    return value, grad


def exhaustive_condition_check(t: Tensor4, tol: float = DEFAULT_TOL) -> OracleReport:
    """Re-derive the index-identity verdicts with quadruple loops.

    Works on a nested-list copy of the tensor so no array machinery from the
    primary implementation is involved. Restricted to n <= 5: the loops are
    O(n^4) per condition and meant as a cross-check, not as the fast path.
    """
    if t.n > ORACLE_MAX_DIMENSION:
        raise DimensionTooLarge(
            f"oracle loops support n <= {ORACLE_MAX_DIMENSION}, got {t.n}"
        )
    n = t.n
    e = t.values.tolist()

    # One pass over every (i, j, k, l); the six-term RAW_III family only
    # over pairwise different i, k, l, keeping its literal term order.
    sym_worst = cyc_worst = raw_worst = qp_worst = 0.0
    for i in range(n):
        for j in range(n):
            for l in range(n):
                raw_worst = max(raw_worst, abs(e[i][j][i][l] + e[i][j][l][i] + e[l][j][i][i]))
            for k in range(n):
                for l in range(n):
                    v = e[i][j][k][l]
                    sym_worst = max(sym_worst, abs(v - e[i][j][l][k]))
                    cyc_worst = max(cyc_worst, abs(v + e[k][j][l][i] + e[l][j][i][k]))
                    qp_worst = max(qp_worst, abs(v + e[l][j][k][i]))
                    if i != k and i != l and k != l:
                        six = (
                            v
                            + e[k][j][i][l]
                            + e[k][j][l][i]
                            + e[l][j][k][i]
                            + e[i][j][l][k]
                            + e[l][j][i][k]
                        )
                        raw_worst = max(raw_worst, abs(six))

    return OracleReport(
        sym_a=sym_worst <= tol,
        cyclic_b=cyc_worst <= tol,
        raw_iii=raw_worst <= tol,
        quasi_poisson=qp_worst <= tol,
    )


def exhaustive_psd_check(t: Tensor4, directions, tol: float = DEFAULT_TOL) -> PsdOracleReport:
    """Re-derive the sampled PSD verdict with loops and the Jacobi solver.

    Same contract as the primary check: per direction, in list order, the
    asymmetry ``max|M - M^T|`` is tested against ``tol * max(1, max|M|)``
    before the smallest eigenvalue of the symmetrized M is tested against
    its negative. M(y) is contracted entry by entry from a nested-list copy
    of the tensor. Restricted to n <= 5.
    """
    if t.n > ORACLE_MAX_DIMENSION:
        raise DimensionTooLarge(
            f"oracle loops support n <= {ORACLE_MAX_DIMENSION}, got {t.n}"
        )
    tol = float(tol)
    if not math.isfinite(tol):
        raise NonFiniteValue(f"tolerance must be finite, got {tol}")
    if tol < 0.0:
        raise NegativeCoefficient(f"tolerance must be >= 0, got {tol}")
    n = t.n
    e = t.values.tolist()
    dirs = []
    for y in directions:
        arr = np.asarray(y, dtype=float)
        if arr.shape != (n,):
            raise DimensionMismatch(f"direction has shape {arr.shape}, expected ({n},)")
        dirs.append(arr.tolist())
    if not dirs:
        raise EmptyDirectionSet("the PSD oracle needs at least one direction")
    for y in dirs:
        M = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                acc = 0.0
                for k in range(n):
                    for l in range(n):
                        acc += e[i][j][k][l] * y[k] * y[l]
                M[i][j] = acc
        scale = 1.0
        asym = 0.0
        for i in range(n):
            for j in range(n):
                scale = max(scale, abs(M[i][j]))
                asym = max(asym, abs(M[i][j] - M[j][i]))
        if asym > tol * scale:
            return PsdOracleReport(False, tuple(y), asym)
        lam_min = float(jacobi_eigenvalues(M)[0])
        if lam_min < -tol * scale:
            return PsdOracleReport(False, tuple(y), lam_min)
    return PsdOracleReport(True)


def random_skew(rng: np.random.Generator, n: int) -> BracketMatrix:
    """Dense skew matrix with entries in (-1, 1), exactly antisymmetric."""
    upper = np.triu(rng.uniform(-1.0, 1.0, size=(n, n)), k=1)
    return BracketMatrix(upper - upper.T)


def random_polynomial(rng: np.random.Generator, n: int, degree_max: int = 3, terms: int = 6):
    """Random polynomial of total degree <= degree_max with a linear part.

    The guaranteed linear part keeps gradients generically nonzero at
    random points.
    """
    from .fields import PolynomialField

    entries = []
    for i in range(n):
        exps = [0] * n
        exps[i] = 1
        entries.append((tuple(exps), float(rng.uniform(-2.0, 2.0))))
    for _ in range(terms):
        exps = [0] * n
        budget = int(rng.integers(0, degree_max + 1))
        for _ in range(budget):
            exps[int(rng.integers(0, n))] += 1
        entries.append((tuple(exps), float(rng.uniform(-2.0, 2.0))))
    return PolynomialField(n, entries)


def random_cons_irrev(seed: int, n: int, count: int, gamma_max: float = 5.0) -> list[Tensor4]:
    """Generators of the passing class: gamma * symmetrize_34(J (x) J).

    Every emitted tensor satisfies the symmetry, cyclic-sum, annihilation,
    and sampled-PSD conditions by construction.
    """
    if n < 2:
        raise DimensionTooLarge(f"need n >= 2 to have nonzero skew matrices, got {n}")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        J = random_skew(rng, n)
        gamma = float(rng.uniform(0.0, gamma_max))
        base = symmetrize_34(product_tensor(J, J))
        out.append(Tensor4(n, gamma * base.values))
    return out
