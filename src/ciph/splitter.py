"""Factor 4-tensors back into bracket products gamma * {.,.}_J x {.,.}_J.

Two input shapes are handled. A *raw product* tensor t[i,j,k,l] = A[i,k] B[j,l]
is rank one after reshaping index pairs, so a pivoted rank-1 factorization
recovers (A, B) exactly; the product splits iff A is skew and B is a
nonnegative multiple of A. A *symmetric representative*
t[i,j,k,l] = c (J[i,k] J[j,l] + J[i,l] J[j,k]) is read off one slice: at
the largest entry t[p,p,q,q] = 2 c J[p,q]^2, the slice t[:, p, :, q] is
c J[p,q] J plus a rank-1 term built from two other slices of t.
``split_tensor`` tries every input as a symmetric representative first and
then as a raw product; each candidate it tries is accepted or refused by one
residual, that of its reconstruction against t, so no recovery can accept a
wrong answer.

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

from .brackets import BracketMatrix, is_skew
from .errors import DimensionMismatch
from .tensor import DEFAULT_TOL, Tensor4, _require_tol

SPLIT = "SPLIT"
NOT_RANK_ONE = "NOT_RANK_ONE"
NOT_SKEW = "NOT_SKEW"
NOT_PROPORTIONAL = "NOT_PROPORTIONAL"
NEGATIVE_GAMMA = "NEGATIVE_GAMMA"


@dataclass(frozen=True)
class SplitResult:
    """Outcome of a splitting attempt.

    From ``split_tensor``, a SPLIT's ``residual`` is the max-abs error of
    its reconstruction against t. Otherwise it is the defect that triggered
    the status (rank-1 residual, skewness residual, or proportionality
    deviation), each in the product tensor's units: ``split_product``
    reports the skewness residual of A times max|B| and, for every other
    status including SPLIT, the proportionality deviation times max|A|,
    i.e. max|A (x) (B - lam A)| with lam the ratio of B to A at A's max-abs
    entry.
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
    return np.array(t.values.transpose(0, 2, 1, 3), order="C").reshape(n * n, n * n)


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
    magnitude = np.abs(F)
    p, q = np.unravel_index(int(np.argmax(magnitude)), F.shape)
    fmax = float(magnitude[p, q])
    if fmax == 0.0:
        return RankOneFactor(BracketMatrix.zeros(n), BracketMatrix.zeros(n), 0.0)
    a = F[:, q].copy()
    b = F[p, :] / F[p, q]
    residual = float(np.max(np.abs(F - np.outer(a, b))))
    if residual > tol * fmax:
        return RankOneFactor(None, None, residual)
    return RankOneFactor(
        BracketMatrix(a.reshape(n, n)), BracketMatrix(b.reshape(n, n)), residual
    )


def _canonical_gauge(K: np.ndarray) -> tuple[np.ndarray, float]:
    """Return (J, c) with K = c * J, max|J| = 1 and J's first nonzero
    positive, for a nonzero K (both callers return earlier for a zero one)."""
    c = math.copysign(float(np.max(np.abs(K))), K.flat[np.flatnonzero(K)[0]])
    return K / c, c


def split_product(A: BracketMatrix, B: BracketMatrix, tol: float = DEFAULT_TOL) -> SplitResult:
    """Decide whether the product tensor of (A, B) is a scaled skew square.

    Checks, in order: A skew within ``tol * max|A|``; B globally
    proportional to A within ``tol * max|B|``; proportionality factor
    nonnegative. Both are judged on the unit-max-abs factors A / max|A| and
    B / max|B|, whose ratio ``unit`` at A's max-abs entry is finite for any
    finite nonzero factors and must not fall below ``-tol``; the product's
    coefficient is then ``unit * max|B| * max|A|``. On success A is
    rewritten in the canonical gauge; no tensor is built, and the residual
    of every status but NOT_SKEW is the closed form max|A (x) (B - lam A)|
    (see ``SplitResult``), which only ``split_tensor`` goes on to verify
    against a tensor. A zero factor splits trivially with J = 0, gamma = 0.
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
        return SplitResult(NOT_SKEW, residual=bmax * skew.residual)

    p, q = np.unravel_index(int(np.argmax(np.abs(A.array))), (n, n))
    unit = float((B.array[p, q] / bmax) / (A.array[p, q] / amax))
    deviation = bmax * float(np.max(np.abs(B.array / bmax - unit * (A.array / amax))))
    if deviation > tol * bmax:
        return SplitResult(NOT_PROPORTIONAL, residual=amax * deviation)
    if unit < -tol:
        return SplitResult(NEGATIVE_GAMMA, residual=amax * deviation)

    J_arr, _ = _canonical_gauge(A.array)
    return SplitResult(SPLIT, BracketMatrix(J_arr), max(unit, 0.0) * bmax * amax, amax * deviation)


def _recover_symmetric(t: Tensor4, tol: float) -> SplitResult | None:
    """Try to match t[i,j,k,l] = c (J[i,k] J[j,l] + J[i,l] J[j,k]).

    Writes K = sqrt(c) * J. The largest t[i,i,k,k] = 2 K[i,k]^2 sits at the
    largest |K[p,q]| = r, and t[:,p,:,q] = K[p,q] K + K[:,q] K[p,:] with
    t[:,p,q,q] = 2 K[p,q] K[:,q] and t[p,p,:,q] = 2 K[p,q] K[p,:], so
    (t[:,p,:,q] - outer(t[:,p,q,q] / 2r, t[p,p,:,q] / 2r)) / r is K up to
    the sign of K[p,q], which the gauge absorbs. Each factor is divided by r
    before it is multiplied, so nothing overflows or underflows on the way.
    Returns None unless the reconstructed tensor matches t within
    ``tol * max|t|``.
    """
    v = t.values
    p, q = np.unravel_index(int(np.argmax(np.einsum("iikk->ik", v))), (t.n, t.n))
    r = math.sqrt(max(float(v[p, p, q, q]), 0.0) / 2.0)
    if not r > 0.0:
        return None  # no positive t[i,i,k,k]: K would be zero
    K = (v[:, p, :, q] - np.outer(v[:, p, q, q] / (2.0 * r), v[p, p, :, q] / (2.0 * r))) / r
    K = 0.5 * (K - K.T)  # exact inputs are already skew; this absorbs rounding
    KK = np.multiply.outer(K, K)  # KK[i,k,j,l] = K[i,k] K[j,l]
    recon = KK.transpose(0, 2, 1, 3) + KK.transpose(0, 2, 3, 1)
    recon -= v
    residual = float(np.abs(recon, out=recon).max())
    if not residual <= tol * t.max_abs():  # a NaN residual fails too
        return None
    # K is nonzero here (a zero K leaves the residual max|t| > tol * max|t|),
    # and 0.5 * (K - K.T) is exactly skew, so J = K / c is too.
    J_arr, c = _canonical_gauge(K)
    return SplitResult(SPLIT, BracketMatrix(J_arr), 2.0 * c * c, residual)


def split_tensor(t: Tensor4, tol: float = DEFAULT_TOL) -> SplitResult:
    """Full splitting decision for a 4-tensor.

    Every tensor is first matched as a symmetric representative; when that
    match fails, t is treated as a raw bracket product via the pair
    flattening. Each candidate is accepted or refused by one residual: its
    canonical factors must reproduce t itself within ``tol * max|t|``. No
    SYM_A check comes first, so a tensor within ``tol * max|t|`` of a
    representative splits even where its SYM_A residual exceeds that bound
    (by at most a factor 2). (At a tight tol no nonzero tensor fits both
    shapes; at a loose one the symmetric match wins, since its J is exactly
    skew.) Tensors that fit neither shape come back with the raw branch's
    status, NOT_RANK_ONE when t is not a pair-flattened rank-1 matrix (a
    status, not a proof that no splitting exists).
    """
    tol = _require_tol(tol)
    # Near the double range residuals can overflow; an inf residual fails every
    # acceptance test.
    with np.errstate(over="ignore", invalid="ignore"):
        if (recovered := _recover_symmetric(t, tol)) is not None:
            return recovered
        factor = rank_one_factor(flatten_pairs(t), tol)
        if not factor.ok:
            return SplitResult(NOT_RANK_ONE, residual=factor.residual)
        result = split_product(factor.A, factor.B, tol)
        if result.status != SPLIT:
            return result
        J = result.J.array
        recon = np.multiply.outer(J, result.gamma * J)  # product_tensor's products, as [i,k,j,l]
        recon -= t.values.transpose(0, 2, 1, 3)
        residual = float(np.abs(recon, out=recon).max())
        if residual <= tol * t.max_abs():
            return SplitResult(SPLIT, result.J, result.gamma, residual)
        return SplitResult(NOT_RANK_ONE, residual=residual)
