"""Factor 4-tensors back into bracket products gamma * {.,.}_J x {.,.}_J.

Two input shapes are handled. A *raw product* tensor t[i,j,k,l] = A[i,k] B[j,l]
is rank one as the (i, k) x (j, l) matrix, so two slices of t through its
largest entry recover (A, B) exactly; the product splits iff A is skew and
B is a nonnegative multiple of A. A *symmetric representative*
t[i,j,k,l] = c (J[i,k] J[j,l] + J[i,l] J[j,k]) is read off one slice: at
the largest entry t[p,p,q,q] = 2 c J[p,q]^2, the slice t[:, p, :, q] is
c J[p,q] J plus a rank-1 term built from two other slices of t.
``split_tensor`` tries every input as a symmetric representative first and
then as a raw product; each candidate it tries is accepted or refused by one
residual, that of its reconstruction against t, so no recovery can accept a
wrong answer.

Every tolerance is relative, as in ``ciph.tensor``: a residual is measured
against ``tol`` times the largest magnitude of the quantity it belongs to
(the tensor or a factor), never against ``tol`` alone, so
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
from dataclasses import dataclass, replace

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


# The rounding margin of the early refusal in ``_recover_symmetric``: 2b
# (1 + u)^2 <= (2 + 2^-49) b rounded, b the gate.
_ASYMMETRY_MARGIN = 1.0 + 2.0**-50


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

    Rounding residue. At a structural zero K[i,k] = 0 the slice holds the
    one product K[i,q] K[p,k], and the correction rebuilds that product
    through other roundings. To first order in u = 2^-53, with each entry of
    t read here within 2u of its exact value (a rounded product, then a
    rounded scale by c): r is within 2u, each correction factor within 5u,
    their product within 11u, and the subtraction of two such close numbers
    is exact, so the difference is at most 13u |K[i,q] K[p,k]| / r, which is
    at most 13u r, r = max|K|. Every entry of K with |K| <= 16u r is
    therefore set to zero before the gate and the gauge: a structural zero
    comes out as 0.0 and cannot set J's sign, and a genuine entry moves by
    at most 16u r. The bound is relative to max|K| and does not depend on
    tol.

    Early refusal. The rebuild is exactly symmetric in k and l (each entry
    adds the same two products, in either order). If it passes the gate
    b = tol * max|t|, every entry of t is within b (1 + u) of it (the gate
    reads each residual rounded to nearest), so every slice of t has
    |t[i,j,k,l] - t[i,j,l,k]| <= 2b (1 + u), which computed reads at most
    2b (1 + u)^2. The bound (2 + 2^-49) b, rounded once, is at least that,
    since 1 + 8u >= (1 + u)^3 (subnormal differences are exact). So a slice
    t[p, q, :, :] asymmetric beyond it refuses t here, exactly where the
    gate would refuse it after the rebuild: n^2 entries read instead of n^4
    built. Every raw product whose slice there is not symmetric stops here.
    """
    v = t.values
    p, q = np.unravel_index(int(np.argmax(np.einsum("iikk->ik", v))), (t.n, t.n))
    r = math.sqrt(max(float(v[p, p, q, q]), 0.0) / 2.0)
    if not r > 0.0:
        return None  # no positive t[i,i,k,k]: K would be zero
    kl = v[p, q]
    if not float(np.abs(kl - kl.T).max()) <= _ASYMMETRY_MARGIN * 2.0 * (tol * t.max_abs()):
        return None  # an inf difference is beyond every finite bound
    K = (v[:, p, :, q] - np.outer(v[:, p, q, q] / (2.0 * r), v[p, p, :, q] / (2.0 * r))) / r
    K = 0.5 * (K - K.T)  # exact inputs are already skew; this absorbs rounding
    K[np.abs(K) <= 2.0**-49 * r] = 0.0  # rounding residue: 16u r
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

    Every tensor is first matched as a symmetric representative (a slice
    asymmetric in its last two slots refuses that match before the n^4
    rebuild, exactly where the rebuild's gate would; see
    ``_recover_symmetric``); when that match fails, t is read as a raw
    product A[i,k] B[j,l] off two slices at one pivot: the first max-abs
    entry t[i,j,k,l] in row-major (i, k, j, l) order (t read as the
    (i, k) x (j, l) matrix) gives A = t[:,j,:,l] and
    B = t[i,:,k,:] / t[i,j,k,l] (zero for the zero tensor), and
    ``split_product`` judges the pair. Each candidate is accepted or refused
    by one residual, that of its reconstruction against t within
    ``tol * max|t|``: the symmetric match's, the canonical gamma J (x) J's
    when ``split_product`` says SPLIT, and otherwise A (x) B's, which
    decides between NOT_RANK_ONE and ``split_product``'s status. No SYM_A
    check comes first, so a tensor within ``tol * max|t|`` of a
    representative splits even where its SYM_A residual exceeds that bound
    (by at most a factor 2). (At a tight tol no nonzero tensor fits both
    shapes; at a loose one the symmetric match wins, since its J is exactly
    skew.) NOT_RANK_ONE is a status, not a proof that no splitting exists.
    """
    tol = _require_tol(tol)
    # Near the double range residuals can overflow; an inf residual fails every
    # acceptance test.
    with np.errstate(over="ignore", invalid="ignore"):
        if (recovered := _recover_symmetric(t, tol)) is not None:
            return recovered
        v, n, top = t.values, t.n, t.max_abs()
        # The pivot is t's first max-abs entry in row-major (i, k, j, l) order:
        # the first i of t's own order, then the first (k, j, l).
        i = int(np.argmax(np.abs(v))) // n**3
        k, j, l = np.unravel_index(int(np.argmax(np.abs(v[i].transpose(1, 0, 2)) == top)), (n,) * 3)
        A = v[:, j, :, l]
        B = v[i, :, k, :] / v[i, j, k, l] if top > 0.0 else np.zeros_like(A)
        result = split_product(BracketMatrix(A), BracketMatrix(B), tol)
        if result.status == SPLIT:  # rebuild the canonical gamma J (x) J instead
            A, B = result.J.array, result.gamma * result.J.array
        recon = A[:, None, :, None] * B[:, None, :]  # recon[i,j,k,l] = A[i,k] B[j,l]
        recon -= v
        residual = float(np.abs(recon, out=recon).max())
        if not residual <= tol * top:
            return SplitResult(NOT_RANK_ONE, residual=residual)
        return replace(result, residual=residual) if result.status == SPLIT else result
