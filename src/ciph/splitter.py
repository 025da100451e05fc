"""Factor 4-tensors back into bracket products gamma * {.,.}_J x {.,.}_J.

Two input shapes are handled. A *raw product* tensor t[i,j,k,l] = A[i,k] B[j,l]
is rank one after reshaping index pairs, so a pivoted rank-1 factorization
recovers (A, B) exactly; the product splits iff A is skew and B is a
nonnegative multiple of A. A *symmetric representative*
t[i,j,k,l] = c (J[i,k] J[j,l] + J[i,l] J[j,k]) is recovered row by row from
the slices t[i, :, i, :], which are negated rank-1 Gram matrices of the rows
of sqrt(c) * J; the row signs all come from one pivot, the largest entry
t[p,p,q,q] = 2 c J[p,q]^2, whose slice t[:, p, :, q] is c J[p,q] J plus a
known rank-1 term. Every recovery is verified by reconstructing the tensor
before a SPLIT is reported, so the heuristics can never accept a wrong
answer.

Every tolerance is relative, as in ``ciph.tensor``: a residual is measured
against ``tol`` times the largest magnitude of the quantity it belongs to
(the tensor, a factor, the pair matrix), never against ``tol`` alone, so
scaling the input by c > 0 scales gamma by c and leaves the status and J
unchanged (bit for bit when c is an even power of two).

Gauge convention for reported factors: J is scaled so its largest entry in
magnitude is 1 and signed so its first nonzero entry in row-major order is
positive; gamma absorbs the scale (and is invariant under the sign flip).
In both branches gamma is the coefficient of the induced three-argument
function, so a symmetric representative reports twice the coefficient of
its J-products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .brackets import BracketMatrix, is_skew, product_tensor
from .errors import DimensionMismatch
from .tensor import DEFAULT_TOL, Tensor4, _require_tol, check_sym_a

SPLIT = "SPLIT"
NOT_RANK_ONE = "NOT_RANK_ONE"
NOT_SKEW = "NOT_SKEW"
NOT_PROPORTIONAL = "NOT_PROPORTIONAL"
NEGATIVE_GAMMA = "NEGATIVE_GAMMA"


@dataclass(frozen=True)
class SplitResult:
    """Outcome of a splitting attempt.

    For SPLIT, ``residual`` is the max-abs error of the verified
    reconstruction; for failures it is the defect that triggered the status
    (rank-1 residual, skewness residual, or proportionality deviation).
    ``split_tensor`` reports each in the tensor's units: its proportionality
    deviation is max|A (x) (B - lam A)| of the rank-one factors.
    """

    status: str
    J: BracketMatrix | None = None
    gamma: float | None = None
    residual: float = 0.0

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "gamma": self.gamma,
            "J": None if self.J is None else {"n": self.J.n, "rows": self.J.array.tolist()},
            "residual": self.residual,
        }


@dataclass(frozen=True)
class RankOneFactor:
    A: BracketMatrix | None
    B: BracketMatrix | None
    residual: float

    @property
    def ok(self) -> bool:
        return self.A is not None


def flatten_pairs(t: Tensor4) -> np.ndarray:
    """Reshape t[i,j,k,l] to F[(i,k), (j,l)] so products become rank one.

    With 1-based indices F[(i-1)*n + k, (j-1)*n + l] = t[i,j,k,l]; the map is
    a bijection and ``unflatten_pairs`` inverts it.
    """
    n = t.n
    return t.values.transpose(0, 2, 1, 3).reshape(n * n, n * n).copy()


def unflatten_pairs(F, n: int) -> Tensor4:
    F = np.asarray(F, dtype=float)
    if F.shape != (n * n, n * n):
        raise DimensionMismatch(f"matrix has shape {F.shape}, expected {(n * n, n * n)}")
    return Tensor4(n, F.reshape(n, n, n, n).transpose(0, 2, 1, 3))


def rank_one_factor(F, tol: float = DEFAULT_TOL) -> RankOneFactor:
    """Pivoted rank-1 factorization of a pair-flattened tensor.

    Picks the max-abs pivot (p, q), takes column q and row p scaled by the
    pivot, and accepts iff the outer product reproduces F within
    ``tol * max|F|``. Exact products factor exactly; anything else is
    reported as not rank one with the achieved residual.
    """
    tol = _require_tol(tol)
    F = np.asarray(F, dtype=float)
    n = math.isqrt(F.shape[0])
    fmax = float(np.max(np.abs(F)))
    if fmax == 0.0:
        return RankOneFactor(BracketMatrix.zeros(n), BracketMatrix.zeros(n), 0.0)
    p, q = np.unravel_index(int(np.argmax(np.abs(F))), F.shape)
    a = F[:, q].copy()
    b = F[p, :] / F[p, q]
    residual = float(np.max(np.abs(F - np.outer(a, b))))
    if residual > tol * fmax:
        return RankOneFactor(None, None, residual)
    return RankOneFactor(
        BracketMatrix(a.reshape(n, n)), BracketMatrix(b.reshape(n, n)), residual
    )


def _canonical_gauge(K: np.ndarray) -> tuple[np.ndarray, float]:
    """Return (J, c) with K = c * J, max|J| = 1 and J's first nonzero positive."""
    c0 = float(np.max(np.abs(K)))
    if c0 == 0.0:
        return K.copy(), 0.0
    flat = K.ravel()
    first = flat[np.flatnonzero(flat)[0]]
    c = c0 if first > 0 else -c0
    return K / c, c


def split_product(A: BracketMatrix, B: BracketMatrix, tol: float = DEFAULT_TOL) -> SplitResult:
    """Decide whether the product tensor of (A, B) is a scaled skew square.

    Checks, in order: A skew within ``tol * max|A|``; B globally
    proportional to A within ``tol * max|B|`` (ratio taken at A's max-abs
    entry, and between the unit-max-abs factors when that ratio overflows);
    proportionality factor nonnegative, judged on the gauge-free ratio
    ``lam * max|A| / max|B|`` (the ratio of the unit-max-abs factors), which
    must not fall below ``-tol``. On success the
    factor pair is rewritten in the canonical gauge and the reconstruction
    error of the gauged product against the original product is reported.
    A zero factor splits trivially with J = 0, gamma = 0.
    """
    if A.n != B.n:
        raise DimensionMismatch(f"dimensions differ: {A.n} vs {B.n}")
    tol = _require_tol(tol)
    n = A.n
    amax = A.max_abs()
    bmax = B.max_abs()
    if amax == 0.0 or bmax == 0.0:
        return SplitResult(SPLIT, BracketMatrix.zeros(n), 0.0, 0.0)

    skew = is_skew(A, tol * amax)
    if not skew:
        return SplitResult(NOT_SKEW, residual=skew.residual)

    p, q = np.unravel_index(int(np.argmax(np.abs(A.array))), (n, n))
    lam = float(B.array[p, q]) / float(A.array[p, q])  # a float quotient overflows to inf silently
    if math.isfinite(lam):
        deviation = float(np.max(np.abs(B.array - lam * A.array)))
    else:  # e.g. a subnormal A: compare the factors at unit max-abs, lam = unit * bmax / amax
        unit = float((B.array[p, q] / bmax) / (A.array[p, q] / amax))
        deviation = bmax * float(np.max(np.abs(B.array / bmax - unit * (A.array / amax))))
    if deviation > tol * bmax:
        return SplitResult(NOT_PROPORTIONAL, residual=deviation)
    if (lam * amax < -tol * bmax) if math.isfinite(lam) else (unit < -tol):
        return SplitResult(NEGATIVE_GAMMA, residual=deviation)

    J_arr, c = _canonical_gauge(A.array)
    # c * c is amax^2; lam * amax^2 = unit * bmax * amax
    gamma = max(lam, 0.0) * c * c if math.isfinite(lam) else max(unit, 0.0) * bmax * amax
    J = BracketMatrix(J_arr)
    recon = product_tensor(J, BracketMatrix(gamma * J_arr))
    residual = float(np.max(np.abs(recon.values - product_tensor(A, B).values)))
    return SplitResult(SPLIT, J, gamma, residual)


def _recover_symmetric(t: Tensor4, tol: float) -> SplitResult | None:
    """Try to match t[i,j,k,l] = c (J[i,k] J[j,l] + J[i,l] J[j,k]).

    Writes K = sqrt(c) * J. The slice -t[i, :, i, :] is the Gram matrix of
    K's i-th row, which pins the row up to sign. One pivot fixes all the
    signs: t[i,i,k,k] = 2 K[i,k]^2 peaks at the largest |K[p,q]|, and
    E = t[:,p,:,q] - t[:,p,q,q] t[p,p,:,q] / (2 t[p,p,q,q]) = K[p,q] K, so
    rows whose overlap with E differs in sign from the first recovered
    row's are flipped. Returns None unless the reconstructed tensor matches
    t within ``tol * max|t|``.
    """
    v = t.values
    accept = tol * t.max_abs()

    p, q = np.unravel_index(int(np.argmax(np.einsum("iikk->ik", v))), (t.n, t.n))
    pivot = float(v[p, p, q, q])
    if pivot <= 2.0 * accept:
        return None  # every K[i,k]^2 is at most accept: no row to recover

    grams = -np.einsum("ijil->ijl", v)
    diag = np.einsum("ijj->ij", grams)
    m = np.argmax(diag, axis=1)
    d = diag[np.arange(t.n), m]
    live = d > accept  # the other rows are zero (or not a positive Gram matrix)
    rows = np.zeros((t.n, t.n))
    rows[live] = grams[live, :, m[live]] / np.sqrt(d[live])[:, None]

    E = v[:, p, :, q] - np.outer(v[:, p, q, q], v[p, p, :, q]) / (2.0 * pivot)
    overlap = np.einsum("ik,ik->i", rows, E)
    # The gauge fixes J's global sign except on its zero entries (+-0.0);
    # those follow the first recovered row, which keeps its Gram sign.
    ref = np.sign(overlap[np.argmax(live)])
    K = np.where((overlap * ref < 0.0)[:, None], -rows, rows)

    K = 0.5 * (K - K.T)  # exact inputs are already skew; this absorbs rounding
    recon = np.einsum("ik,jl->ijkl", K, K) + np.einsum("il,jk->ijkl", K, K)
    residual = float(np.max(np.abs(recon - v)))
    if residual > accept:
        return None
    # K is nonzero here (a zero K leaves a residual >= t[p,p,q,q] > accept),
    # and 0.5 * (K - K.T) is exactly skew, so J = K / c is too.
    J_arr, c = _canonical_gauge(K)
    return SplitResult(SPLIT, BracketMatrix(J_arr), 2.0 * c * c, residual)


def split_tensor(t: Tensor4, tol: float = DEFAULT_TOL) -> SplitResult:
    """Full splitting decision for a 4-tensor.

    Branch 1 treats t as a raw bracket product via the pair flattening;
    branch 2 treats it as a symmetric representative. A SPLIT is only
    returned once the canonical factors reproduce t itself within
    ``tol * max|t|``; tensors that fit neither shape come back as
    NOT_RANK_ONE (which is a status, not a proof that no splitting exists).
    """
    tol = _require_tol(tol)
    # Near the double range residuals can overflow; an inf residual fails every
    # acceptance test.
    with np.errstate(over="ignore", invalid="ignore"):
        factor = rank_one_factor(flatten_pairs(t), tol)
        if factor.ok:
            result = split_product(factor.A, factor.B, tol)
            if result.status == SPLIT:
                recon = product_tensor(result.J, BracketMatrix(result.gamma * result.J.array))
                residual = float(np.max(np.abs(recon.values - t.values)))
                if residual <= tol * t.max_abs():
                    return SplitResult(SPLIT, result.J, result.gamma, residual)
                fallback = SplitResult(NOT_RANK_ONE, residual=residual)
            elif result.status in (NOT_PROPORTIONAL, NEGATIVE_GAMMA):
                # max|B| = 1 (its pivot entry), so t's units need max|A|:
                # the residual is max|A (x) (B - lam A)|
                fallback = SplitResult(result.status, residual=factor.A.max_abs() * result.residual)
            else:
                fallback = result
        else:
            fallback = SplitResult(NOT_RANK_ONE, residual=factor.residual)

        if check_sym_a(t, tol).passed:
            recovered = _recover_symmetric(t, tol)
            if recovered is not None:
                return recovered

        return fallback
