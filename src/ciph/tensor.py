"""Dense 4-index tensors and the condition checkers that classify them.

A conservative-irreversible function in coordinates is a 4-tensor
``t[i,j,k,l]`` contracted against four gradients. This module stores such
tensors densely and decides, with explicit witnesses:

* ``SYM_A``: symmetry in the last two slots,
* ``CYCLIC_B``: the three-term cyclic sum over slots (1,3,4) vanishes,
* ``RAW_III``: the annihilation identities that hold even without
  last-two-slot symmetry: the sum over the six permutations of slots
  (1,3,4) vanishes (it is the ``CYCLIC_B`` sum at (i,j,k,l) plus the one at
  (i,j,l,k), so ``CYCLIC_B`` implies ``RAW_III``),
* ``PSD_C``: the contracted matrix M(y)[i,j] = sum_kl t[i,j,k,l] y_k y_l
  is symmetric positive semidefinite along sampled directions,
* ``QUASI_POISSON``: antisymmetry under swapping the outer slots.

Every tolerance is relative to the tensor: a residual fails when it
exceeds ``tol * max|t|``, and the PSD scan's bound for a direction y is
``tol * max|t| * |y|^2``. Each condition is homogeneous in t, so scaling t
by c > 0 leaves every verdict unchanged; the zero tensor passes them all.

All external index tuples are 1-based; storage is row-major with the first
index slowest. Checkers are pure functions over immutable tensors.

The four index identities permute only slots 1, 3 and 4, so their residuals
can be nonzero only on the orbit of the tensor's nonzero positions under
those six permutations. A sparse tensor's checks read operands gathered on
that orbit; a tensor whose orbit is not much smaller than n^4 reads strided
views of the whole array. Either layout gives the same bits
(``_slot_operands``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    EmptyDirectionSet,
    FormatError,
    NegativeCoefficient,
    NonFiniteValue,
    ToleranceTooLarge,
)
# Not called here: the PSD check uses batched LAPACK. The name stays bound in
# this module because the benchmark tracer wraps ``ciph.tensor.jacobi_eigenvalues``.
from .eig import jacobi_eigenvalues  # noqa: F401

MAX_DIMENSION = 32
DEFAULT_TOL = 1e-10
#: Seed of the pseudorandom part of the default direction set ("CIPH" in hex).
DIRECTION_SEED = 0x43495048
RANDOM_DIRECTIONS = 64
#: Directions contracted and eigen-solved together by the PSD scan. Blocks
#: bound peak memory and keep the early exit at the first failing direction.
PSD_BLOCK = 64
#: The six permutations of slots (1, 3, 4) as ``_rearranged`` patterns. Every
#: term of an index identity is one of them; none moves slot 2.
SLOT_PERMUTATIONS = ("ijkl", "ijlk", "kjil", "kjli", "ljik", "ljki")
#: Largest share of the n^4 positions an orbit may cover and still be
#: gathered; a larger orbit keeps strided views (see ``_slot_operands``).
#: Measured for the four index checks at n = 8-32 (``BENCH_orbit_checks.json``):
#: gathered operands win up to about 0.2 for bracket products and 0.35 for
#: random positions, and 0.15 leaves them ahead by at least 1.15x.
ORBIT_CROSSOVER = 0.15


def _integer(value) -> int | None:
    """``value`` as an int when it is integral: an int or numpy integer (not
    a bool), or a float with no fractional part. Anything else gives None,
    so a fraction is never truncated."""
    if isinstance(value, float):
        return int(value) if value.is_integer() else None
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    return None


def _dimension(n) -> int:
    """A dimension: an integer >= 1 (an integral float too), never truncated."""
    if (m := _integer(n)) is None:
        raise DimensionMismatch(f"dimension must be an integer, got {n!r}")
    if m < 1:
        raise DimensionMismatch(f"dimension must be >= 1, got {m}")
    return m


def _checked_dimension(n) -> int:
    """The dimension of a tensor or bracket matrix: ``_dimension`` capped at
    MAX_DIMENSION."""
    if (n := _dimension(n)) > MAX_DIMENSION:
        raise DimensionTooLarge(f"dimension {n} exceeds the supported maximum {MAX_DIMENSION}")
    return n


class Tensor4:
    """Immutable dense real tensor with four indices of equal range.

    ``get``/``set`` use 1-based indices to match the file formats; ``set``
    returns a new tensor, leaving the original untouched.

    The index checks read the tensor under the six permutations of slots
    (1, 3, 4); the tensor builds those operands on first use and keeps them
    (``_slot_operands``). A sparse tensor's operands cover only the orbit of
    its nonzero positions, which ``from_entries`` seeds with the positions it
    has already sorted. The cache is not part of the value: ``==`` and
    ``hash`` read only n and the entries, and ``set`` starts a new tensor.
    """

    __slots__ = ("n", "_values", "_max_abs", "_support", "_operands")

    def __init__(self, n: int, values=None):
        n = _checked_dimension(n)
        arr = np.zeros((n, n, n, n)) if values is None else np.array(values, dtype=float)
        self._hold(n, arr)

    @classmethod
    def _owning(cls, n: int, arr: np.ndarray, support: np.ndarray | None = None) -> "Tensor4":
        """Wrap a fresh float array that no caller keeps, without copying it.
        ``support``, when given, holds sorted flat positions that include
        every nonzero entry."""
        t = cls.__new__(cls)
        t._hold(_checked_dimension(n), arr, support)
        return t

    def _hold(self, n: int, arr: np.ndarray, support: np.ndarray | None = None) -> None:
        if arr.shape != (n, n, n, n):
            raise DimensionMismatch(f"values have shape {arr.shape}, expected {(n, n, n, n)}")
        # min and max propagate NaN and reach +-inf, with no n^4 mask, and
        # give max|t| (abs: for an all -0.0 tensor).
        lo, hi = float(arr.min()), float(arr.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise FormatError("tensor entries must be finite (no NaN/Inf)")
        arr.setflags(write=False)
        self.n = n
        self._values = arr
        self._max_abs = abs(max(hi, -lo))
        self._support = support
        self._operands = None

    def _slot_operands(self) -> "_SlotOperands":
        """The operands of the index checks, built on first use and kept."""
        if self._operands is None:
            self._operands = _slot_operands(self._values, self._support)
            self._support = None
        return self._operands

    @classmethod
    def zeros(cls, n: int) -> "Tensor4":
        return cls(n)

    @classmethod
    def from_entries(
        cls, n: int, entries: Mapping[tuple[int, int, int, int], float] | Iterable
    ) -> "Tensor4":
        """Build from sparse 1-based entries: a mapping (i, j, k, l) -> value,
        or (i, j, k, l, value) rows (an iterable, or an (m, 5) array).

        ``n`` is checked before anything is allocated. The first entry whose
        index is out of range, and then the first that repeats an earlier
        index, is a FormatError naming it (entries count from 1).
        """
        n = _checked_dimension(n)
        if isinstance(entries, Mapping):
            entries = [(*key, v) for key, v in entries.items()]
        elif not isinstance(entries, np.ndarray):
            entries = list(entries)
        try:
            table = np.asarray(entries, dtype=float).reshape(-1, 5)
        except OverflowError:
            raise FormatError(f"an entry index or value is out of range (n = {n})") from None
        index = table[:, :4]
        outside = ~((index >= 1) & (index <= n)).all(axis=1)
        if outside.any():
            pos = int(np.argmax(outside))
            key = tuple(int(v) for v in index[pos])
            raise FormatError(f"entry #{pos + 1} index {key} out of range 1..{n}")
        flat = np.ravel_multi_index(tuple(index.astype(np.intp).T - 1), (n, n, n, n))
        positions, first = np.unique(flat, return_index=True)
        if len(first) < len(flat):
            repeated = np.ones(len(flat), dtype=bool)
            repeated[first] = False
            key = tuple(int(v) for v in index[int(np.argmax(repeated))])
            raise FormatError(f"duplicate entry for index {key}")
        arr = np.zeros((n, n, n, n))
        arr.reshape(-1)[flat] = table[:, 4]
        # the sorted positions seed the index checks' orbit, if few enough to be gathered
        return cls._owning(n, arr, positions if len(positions) <= ORBIT_CROSSOVER * arr.size else None)

    @property
    def values(self) -> np.ndarray:
        """Read-only (n, n, n, n) array backing this tensor."""
        return self._values

    def get(self, i: int, j: int, k: int, l: int) -> float:
        self._check_index(i, j, k, l)
        return float(self._values[i - 1, j - 1, k - 1, l - 1])

    def set(self, i: int, j: int, k: int, l: int, value: float) -> "Tensor4":
        """Functional update: returns a copy with one entry replaced."""
        self._check_index(i, j, k, l)
        arr = self._values.copy()
        arr[i - 1, j - 1, k - 1, l - 1] = float(value)
        return Tensor4._owning(self.n, arr)

    def max_abs(self) -> float:
        """max|t|, the scale of every relative tolerance."""
        return self._max_abs

    def nonzero_entries(self) -> list[tuple[int, int, int, int, float]]:
        """Sparse 1-based (i, j, k, l, value) listing in row-major order."""
        v = self._values
        nonzero = np.argwhere(v).tolist()
        return [(i + 1, j + 1, k + 1, l + 1, float(v[i, j, k, l])) for i, j, k, l in nonzero]

    def _check_index(self, i, j, k, l):
        for idx in (i, j, k, l):
            if not 1 <= idx <= self.n:
                raise DimensionMismatch(f"index {(i, j, k, l)} out of range 1..{self.n}")

    def __eq__(self, other):
        return (
            isinstance(other, Tensor4)
            and other.n == self.n
            and bool(np.array_equal(other._values, self._values))
        )

    def __hash__(self):
        return hash((self.n, self._values.tobytes()))

    def __repr__(self):
        nnz = int(np.count_nonzero(self._values))
        return f"Tensor4(n={self.n}, nonzeros={nnz})"


@dataclass(frozen=True)
class Witness:
    """Location and size of the first/worst violation found by a checker.

    ``index`` is a 1-based tuple for index-identity conditions; ``direction``
    is the sampled vector for the PSD condition. ``residual`` is the measured
    violating quantity (for PSD eigenvalue failures it is the offending,
    negative eigenvalue itself).
    """

    residual: float
    index: tuple[int, ...] | None = None
    direction: tuple[float, ...] | None = None

    def to_json(self) -> dict:
        out: dict = {"residual": self.residual}
        if self.index is not None:
            out["index"] = list(self.index)
        if self.direction is not None:
            out["direction"] = list(self.direction)
        return out


@dataclass(frozen=True)
class ConditionReport:
    condition_id: str
    passed: bool
    witness: Witness | None
    tolerance: float

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json(self) -> dict:
        return {
            "condition_id": self.condition_id,
            "verdict": self.verdict,
            "witness": None if self.witness is None else self.witness.to_json(),
            "tolerance": self.tolerance,
        }


def _require_tol(tol: float) -> float:
    tol = float(tol)
    if not math.isfinite(tol):
        raise NonFiniteValue(f"tolerance must be finite, got {tol}")
    if tol < 0.0:
        raise NegativeCoefficient(f"tolerance must be >= 0, got {tol}")
    if tol >= 1.0:
        raise ToleranceTooLarge(f"tolerance is relative and must be < 1, got {tol}")
    return tol


def _violation_witness(residuals: np.ndarray, operands: "_SlotOperands", bound: float) -> Witness | None:
    """Pick the most informative violating position, or None if all pass.

    Among every position whose residual exceeds ``bound``, the witness is the
    one whose own tensor entry has the largest magnitude (the entry a reader
    would look up first); remaining ties resolve in row-major order. The
    witness carries the residual measured at that position.

    ``residuals`` lie on the layout of ``operands`` and are the caller's own
    buffer, which the search reuses for the keys. Residuals are never NaN (a
    sum of finite terms overflows to inf), so a pass needs only their
    maximum; they are >= 0, so ``initial=0.0`` changes no verdict and lets an
    empty orbit (the zero tensor) pass.
    """
    if not residuals.max(initial=0.0) > bound:
        return None
    over = residuals > bound
    found = residuals[over]  # the violating residuals, in row-major order
    keyed = residuals
    keyed.fill(-1.0)
    np.abs(operands.terms["ijkl"], out=keyed, where=over)
    flat = int(np.argmax(keyed))
    residual = found[np.count_nonzero(over.reshape(-1)[:flat])]
    if operands.positions is not None:
        flat = int(operands.positions[flat])
    idx = np.unravel_index(flat, operands.shape)
    return Witness(float(residual), index=tuple(int(v) + 1 for v in idx))


def symmetrize_34(t: Tensor4) -> Tensor4:
    """Average the tensor with its copy carrying the last two slots swapped.

    Each entry is the correctly rounded average: 0.5 * (x + y), or, where
    x + y overflows, 0.5 * x + 0.5 * y, whose halves are exact there. Both
    forms are symmetric in x and y, so the result is exactly symmetric in
    slots 3 and 4, and applying the map twice equals applying it once.
    """
    v = t.values
    w = v.transpose(0, 1, 3, 2)
    with np.errstate(over="ignore"):
        average = v + w
    wide = np.isinf(average)
    average *= 0.5
    if wide.any():
        average[wide] = 0.5 * v[wide] + 0.5 * w[wide]
    return Tensor4._owning(t.n, average)


def _rearranged(v: np.ndarray, pattern: str) -> np.ndarray:
    """View of v with slots permuted: pattern 'kjli' gives out[ijkl] = v[kjli]."""
    return np.einsum(f"{pattern}->ijkl", v)


class _SlotOperands(NamedTuple):
    """A tensor under each permutation of slots (1, 3, 4): the operands of
    the index checks, on one of two layouts.

    ``terms`` maps each pattern of ``SLOT_PERMUTATIONS`` to its operand and
    ``repeated`` marks where two of i, k, l coincide. ``positions`` holds the
    flat row-major position of each operand element, ascending, or is None
    when the operands are (n, n, n, n) strided views of the whole tensor.
    ``shape`` is the tensor's.
    """

    terms: dict[str, np.ndarray]
    repeated: np.ndarray
    positions: np.ndarray | None
    shape: tuple[int, int, int, int]


def _permuted(positions: np.ndarray, n: int) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """For each pattern of ``SLOT_PERMUTATIONS``, the flat position it reads
    at each of the flat ``positions`` (at (i, j, k, l), 'kjli' reads
    (k, j, l, i)); and where two of i, k, l coincide."""
    rest, l = np.divmod(positions, n)
    rest, k = np.divmod(rest, n)
    i, j = np.divmod(rest, n)
    jn = j * (n * n)
    scaled = {c: (x * n**3, x * n, x) for c, x in zip("ikl", (i, k, l))}
    read = {}
    for pattern in SLOT_PERMUTATIONS:
        a, _, c, d = pattern
        read[pattern] = flat = scaled[a][0] + jn
        flat += scaled[c][1]
        flat += scaled[d][2]
    return read, (i == k) | (i == l) | (k == l)


def _slot_operands(v: np.ndarray, support: np.ndarray | None) -> _SlotOperands:
    """The operands of the index checks on v (see ``_SlotOperands``).

    No index identity moves slot 2, so a residual is nonzero only on the
    orbit of v's nonzero positions under the permutations of slots (1, 3, 4).
    When that orbit covers at most ``ORBIT_CROSSOVER`` of the n^4 positions,
    each operand is gathered on it, in row-major order; otherwise the
    operands are strided views. ``support`` (sorted flat positions including
    every nonzero entry) seeds the orbit; without it the nonzeros are found.
    """
    n, cap = v.shape[0], ORBIT_CROSSOVER * v.size
    if support is None and np.count_nonzero(v) <= cap:
        support = np.flatnonzero(v)
    if support is not None and len(support) <= cap:
        on_orbit = np.zeros(v.size, dtype=bool)
        for moved in _permuted(support, n)[0].values():
            on_orbit[moved] = True
        orbit = np.flatnonzero(on_orbit)
        if len(orbit) <= cap:
            read, repeated = _permuted(orbit, n)
            flat = v.reshape(-1)
            terms = {pattern: flat[at] for pattern, at in read.items()}
            return _SlotOperands(terms, repeated, orbit, v.shape)
    i, k, l = np.ogrid[:n, :n, :n]
    terms = {pattern: _rearranged(v, pattern) for pattern in SLOT_PERMUTATIONS}
    return _SlotOperands(terms, ((i == k) | (i == l) | (k == l))[:, None], None, v.shape)


def _slot_sum(terms: Mapping[str, np.ndarray], signed: str) -> np.ndarray:
    """|signed sum of slot permutations|, built in one buffer.

    ``signed`` lists patterns of ``terms`` (the operands of one layout, see
    ``_SlotOperands``), the first unsigned and each later one with ``+`` or
    ``-``, e.g. ``"ijkl -ijlk"``. They are combined left to right in the
    order written, so a sum whose terms cancel in adjacent pairs stays
    exactly zero. An overflowed sum is inf, which fails any tolerance.

    Each element is the same float sequence on either layout, and off the
    orbit every term is 0, so the orbit's residuals are the dense ones at
    its positions and the rest are exactly 0.
    """
    first, *rest = signed.split()
    acc = terms[first]
    out = np.empty(acc.shape)
    with np.errstate(over="ignore"):
        for term in rest:
            op = np.subtract if term[0] == "-" else np.add
            op(acc, terms[term[1:]], out=out)
            acc = out
    return np.abs(out, out=out)


def _index_check(
    condition_id: str, t: Tensor4, tol: float, signed: str, halve_repeated: bool = False
) -> ConditionReport:
    """Pass iff the signed slot sum ``signed`` of t (see ``_slot_sum``) is at
    most ``tol * max|t|`` in magnitude everywhere; ``halve_repeated`` halves
    it first where two of i, k, l coincide. A residual off the operands'
    orbit is exactly 0, which never exceeds a bound >= 0."""
    tol = _require_tol(tol)
    operands = t._slot_operands()
    residuals = _slot_sum(operands.terms, signed)
    if halve_repeated:
        np.multiply(residuals, 0.5, out=residuals, where=operands.repeated)
    witness = _violation_witness(residuals, operands, tol * t.max_abs())
    return ConditionReport(condition_id, witness is None, witness, tol)


def check_sym_a(t: Tensor4, tol: float = DEFAULT_TOL) -> ConditionReport:
    """Pass iff |t[i,j,k,l] - t[i,j,l,k]| <= tol * max|t| everywhere."""
    return _index_check("SYM_A", t, tol, "ijkl -ijlk")


def check_cyclic_b(t: Tensor4, tol: float = DEFAULT_TOL) -> ConditionReport:
    """Pass iff |t[i,j,k,l] + t[k,j,l,i] + t[l,j,i,k]| <= tol * max|t| everywhere."""
    return _index_check("CYCLIC_B", t, tol, "ijkl +kjli +ljik")


def check_raw_iii(t: Tensor4, tol: float = DEFAULT_TOL) -> ConditionReport:
    """Annihilation identities valid without last-two-slot symmetry: the
    sum over the six permutations of slots (1, 3, 4),
    t[i,j,k,l] + t[k,j,i,l] + t[k,j,l,i] + t[l,j,k,i] + t[i,j,l,k] + t[l,j,i,k],
    halved where two of i, k, l coincide (there it is twice the paper's
    three-term identity t[i,j,i,l] + t[i,j,l,i] + t[l,j,i,i], relabeled),
    is at most ``tol * max|t|`` in magnitude.

    The term order is kept literally: for bracket-product tensors the terms
    cancel in adjacent pairs, so the residual is exactly zero.
    """
    return _index_check("RAW_III", t, tol, "ijkl +kjil +kjli +ljki +ijlk +ljik", True)


def check_quasi_poisson(t: Tensor4, tol: float = DEFAULT_TOL) -> ConditionReport:
    """Pass iff |t[i,j,k,l] + t[l,j,k,i]| <= tol * max|t| everywhere
    (outer-slot antisymmetry)."""
    return _index_check("QUASI_POISSON", t, tol, "ijkl +ljki")


def contract_directions(t: Tensor4, y) -> np.ndarray:
    """M(y)[i,j] = sum_kl t[i,j,k,l] y_k y_l for one direction y."""
    y = np.asarray(y, dtype=float)
    if y.shape != (t.n,):
        raise DimensionMismatch(f"direction has shape {y.shape}, expected ({t.n},)")
    return np.einsum("ijkl,k,l->ij", t.values, y, y)


def _support_rows(Y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classify directions by support, once per scan.

    Returns the mask of directions with at most two nonzero coordinates,
    and for those, in list order, the pair-matrix rows ``(a a, a b, b a,
    b b)`` (flat ``k n + l``, ascending) and their weights ``y_k y_l``,
    where a <= b are the first and last nonzero coordinates. With a single
    nonzero coordinate (a == b) only the first row carries weight.
    """
    n = Y.shape[1]
    nonzero = Y != 0.0
    sparse = np.count_nonzero(nonzero, axis=1) <= 2
    nz = nonzero[sparse]
    a = np.argmax(nz, axis=1)
    b = n - 1 - np.argmax(nz[:, ::-1], axis=1)
    rows = np.stack([a * n + a, a * n + b, b * n + a, b * n + b], axis=1)
    ya, yb = Y[sparse, a], Y[sparse, b]
    weights = np.stack([ya * ya, ya * yb, yb * ya, yb * yb], axis=1)
    weights[a == b, 1:] = 0.0
    return sparse, rows, weights


def check_psd_c(
    t: Tensor4, directions: Sequence | np.ndarray, tol: float = DEFAULT_TOL
) -> ConditionReport:
    """Sampled symmetry + positive semidefiniteness of M(y).

    For each direction y (standing in for an arbitrary gradient), require
    ``max|M - M^T| <= bound`` and the smallest eigenvalue of the
    symmetrized M to be ``>= -bound``, with ``bound = tol * max|t| * |y|^2``:
    unlike a bound read off M(y), it does not shrink where M(y) is rounding
    noise (y near the kernel of a cone member's J). In list order, the first
    direction that fails, or whose M(y), M + M^T or bound is not finite
    (NonFiniteValue), decides. A pass means "no violation found among the
    supplied directions", not a proof. ``directions`` holds one direction
    per row: a 2-D float array (``default_directions``) is taken as it is,
    any other sequence of vectors is converted to one array.

    The scan runs in blocks of ``PSD_BLOCK`` directions, with ``t`` seen as
    an (n^2, n^2) pair matrix P whose row ``k n + l`` holds t[:, :, k, l].
    A direction with at most two nonzero coordinates a <= b (a basis vector,
    a pair direction e_a +- e_b, or multiples) builds M(y) from its support:
    the rows aa, ab, ba, bb of P weighted by y_a y_a, y_a y_b, y_b y_a and
    y_b y_b, added in that order, on its live rows only (row i is live when
    row or column i of a P row read with a nonzero weight holds a nonzero),
    padded with dead rows to the block's widest live set K: entries keep their
    bits, and for K < n lambda_min = min(lambda_live, 0) is below -bound <= 0
    just when lambda_live is. Such a failure stands only if one n x n solve,
    whose eigenvalue is the residual, confirms it. Other directions take one
    matmul of the stacked ``y (x) y`` rows against P.

    Each stack of M(y) goes to ``_judge``. A stack whose M + M^T and bounds
    are finite is first factored once by Cholesky, shifted by each bound
    less a rounding margin; a success proves that no direction of the stack
    fails its eigenvalue test, and no ``eigvalsh`` runs. ``eigvalsh`` solves only a stack that the factorization refuses
    (any stack holding a failure), a stack holding a non-finite M + M^T or
    bound, and the n x n confirmation, so a witness is always an
    ``eigvalsh`` eigenvalue. A pass reports no margin.
    ``ciph.verify.exhaustive_psd_check`` re-derives the same report with
    loops and the Jacobi solver.
    """
    tol = _require_tol(tol)
    n = t.n
    if not len(directions):
        raise EmptyDirectionSet("the PSD check needs at least one direction")
    try:
        Y = np.asarray(directions, dtype=float)
    except ValueError:  # ragged: name the first direction of another shape
        shapes = [s for s in map(np.shape, directions) if s != (n,)]
        if not shapes:
            raise
        raise DimensionMismatch(f"direction has shape {shapes[0]}, expected ({n},)") from None
    if Y.shape[1:] != (n,):
        raise DimensionMismatch(f"direction has shape {Y.shape[1:]}, expected ({n},)")
    if not np.all(np.isfinite(Y)):
        raise NonFiniteValue("directions must be finite (no NaN/Inf)")
    pairs = t.values.reshape(n * n, n * n).T
    # Overflow is caught by the finiteness checks, not reported as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        sparse, rows, weights = _support_rows(Y)
        bounds = tol * t.max_abs() * np.einsum("ij,ij->i", Y, Y)
    row_start = np.concatenate([[0], np.cumsum(sparse)])  # direction -> its support row
    if sparse.any():
        # Live rows per P row, then per direction (a zero weight reads the dead row n^2)
        nz = t.values != 0.0
        live = np.vstack([(nz.any(axis=1) | nz.any(axis=0)).reshape(n, n * n).T, np.zeros(n, bool)])
        live = live[np.where(weights != 0.0, rows, n * n).T].any(axis=0)
        widths, P = np.count_nonzero(live, axis=1), None
    # Scratch reused by every block: M, one term of M (then M + M^T), and M - M^T.
    bufs = np.empty((3, min(len(Y), PSD_BLOCK) * n * n))
    for start in range(0, len(Y), PSD_BLOCK):
        block = Y[start : start + PSD_BLOCK]
        on_support = sparse[start : start + PSD_BLOCK]
        lo, hi = row_start[start], row_start[start + len(block)]
        bound = bounds[start : start + PSD_BLOCK]
        finite, asym, lam = judged = np.empty((3, len(block)))  # finite as 1.0 or 0.0
        K = int(widths[lo:hi].max(initial=1)) if hi > lo else n
        with np.errstate(over="ignore", invalid="ignore"):
            if hi > lo:
                if K < n:  # live rows first, then dead ones; t[i, j, k, l] sits at (i n + j) n^2 + k n + l
                    idx = np.sort(np.where(live[lo:hi], 0, n) + np.arange(n), axis=1)[:, :K] % n
                    cols = (idx[:, :, None] * n + idx[:, None, :]).reshape(hi - lo, 1, K * K)
                    source, read = t.values.reshape(-1), cols * (n * n) + rows[lo:hi, :, None]
                else:  # whole rows of the pair matrix, copied once
                    P = np.ascontiguousarray(pairs) if P is None else P
                    source, read = P, rows[lo:hi]
                M, term = (b[: (hi - lo) * K * K].reshape(hi - lo, K * K) for b in bufs[:2])
                _weighted_rows(source, read, weights[lo:hi], M, term)
                judged[:, on_support] = _judge(M.reshape(-1, K, K), bound[on_support], bufs[1:])
            if not on_support.all():
                yy = np.einsum("si,sj->sij", block[~on_support], block[~on_support]).reshape(-1, n * n)
                judged[:, ~on_support] = _judge((yy @ pairs).reshape(-1, n, n), bound[~on_support], bufs[1:])
        asym_fail = asym > bound
        for k in np.flatnonzero((finite == 0.0) | asym_fail | (lam < -bound)):
            if not finite[k]:
                raise NonFiniteValue(
                    f"M(y) or its bound overflowed at direction #{start + k + 1}; "
                    "rescale the directions"
                )
            residual = asym[k] if asym_fail[k] else lam[k]
            if on_support[k] and K < n and not asym_fail[k]:  # confirm on the n x n M(y)
                s = row_start[start + k]  # the rows summed in the order of _weighted_rows
                M = np.add.reduce(weights[s, :, None] * pairs[rows[s]]).reshape(n, n)
                if not (residual := np.linalg.eigvalsh(0.5 * (M + M.T))[0]) < -bound[k]:
                    continue
            witness = Witness(float(residual), direction=tuple(map(float, block[k])))
            return ConditionReport("PSD_C", False, witness, tol)
    return ConditionReport("PSD_C", True, None, tol)


def _judge(M: np.ndarray, bound: np.ndarray, scratch: np.ndarray) -> tuple:
    """Per matrix of the (B, K, K) stack M: whether M + M^T and ``bound`` are
    finite, max|M - M^T|, and the smallest eigenvalue of S = (M + M^T) / 2,
    or ``-bound`` for every matrix when the screen passes the stack. A stack
    that holds a non-finite M + M^T or bound is not screened, and its
    non-finite S are zeroed (eigvalsh may not converge on inf). ``scratch``:
    two flat buffers.

    The screen is one Cholesky factorization of the stack
    ``S + (bound - delta) I``; it passes when that succeeds with a finite
    factor (a NaN reaches the factor's diagonal, and a pivot test of
    x <= 0 lets it through). Per matrix,

        delta = (K + 1) K u ((8 K + 2) max|S| + 2 bound) + (K + 1) K tiny,

    u the unit roundoff and tiny the smallest normal double.

    * Cholesky: a factorization of the computed shifted matrix A that runs to
      completion gives R^T R = A + E with |E| <= gamma_(K+1) |R^T| |R|
      (Higham 2002, ch. 10; Demmel 1989), so lambda_min(A) >= -||E||_2 >=
      -gamma_(K+1) trace(A) / (1 - gamma_(K+1)). With the rounding of A's
      diagonal and of ``bound - delta``, lambda_min(S) >= -bound + delta
      - 2 (K + 1) K u (max|S| + bound).
    * eigvalsh is backward stable; its smallest eigenvalue is taken to err by
      at most 8 (K + 1) K u ||S||_F <= 8 (K + 1) K^2 u max|S|, the order of
      the worst-case backward error of Householder tridiagonalization
      (Higham 2002, ch. 19).
    * The tiny term covers gradual underflow inside the factorization.

    So a passed stack holds no S whose eigvalsh eigenvalue is below -bound:
    ``-bound`` stands for the scan's test ``lambda >= -bound``, not for a
    margin. max|S| is not squared, so delta cannot overflow or underflow
    where S does not. Any other stack is solved by ``eigvalsh``, so a failing
    direction's residual is its eigenvalue, bit for bit."""
    Mt = M.transpose(0, 2, 1)
    twice, diff = (b[: M.size].reshape(M.shape) for b in scratch)
    finite = np.isfinite(np.add(M, Mt, out=twice)).all(axis=(1, 2)) & np.isfinite(bound)
    twice[~finite] = 0.0
    asym = np.abs(np.subtract(M, Mt, out=diff), out=diff).max(axis=(1, 2))
    S = np.multiply(twice, 0.5, out=twice)
    if finite.all():
        B, K = M.shape[:2]
        coef, tiny = (K + 1) * K * np.finfo(float).eps / 2, (K + 1) * K * np.finfo(float).tiny
        delta = coef * (8 * K + 2) * np.abs(S, out=diff).max(axis=(1, 2)) + coef * 2 * bound + tiny
        np.copyto(diff, S)
        diff.reshape(B, K * K)[:, :: K + 1] += (bound - delta)[:, None]
        try:
            if np.isfinite(np.linalg.cholesky(diff).reshape(B, K * K)[:, :: K + 1]).all():
                return finite, asym, -bound
        except np.linalg.LinAlgError:
            pass
    return finite, asym, np.linalg.eigvalsh(S)[:, 0]


def _weighted_rows(source, read, weights, out: np.ndarray, term: np.ndarray) -> None:
    """Fill out[s] with sum_c weights[s, c] * source.take(read[s, c], axis=0),
    the terms added in column order; ``term`` is scratch of out's shape."""
    for c in range(read.shape[1]):
        into = term if c else out
        np.take(source, read[:, c], axis=0, out=into)
        into *= weights[:, c : c + 1]
        if c:
            out += term


def default_directions(n: int, seed: int = DIRECTION_SEED) -> np.ndarray:
    """Standard direction set, one direction per row of an (n^2 + 64, n)
    array: basis vectors, pairwise sums/differences, and 64 seeded
    pseudorandom unit vectors.

    Deterministic for a fixed seed, so reports are reproducible; the seed can
    be overridden (the CLI honors the CIPH_SEED environment variable).
    """
    i, j = np.triu_indices(n, 1)
    r = np.arange(len(i))
    pair = np.zeros((len(i), 2, n))  # e_i + e_j, e_i - e_j for i < j, row-major
    pair[r, :, i] = 1.0
    pair[r, 0, j] = 1.0
    pair[r, 1, j] = -1.0
    # One draw gives the stream of RANDOM_DIRECTIONS draws of n, row by row.
    # Each row's norm is the root of its own ``row @ row``, the dot that
    # np.linalg.norm takes; a (1, n) @ (n, 1) matmul per row takes it too.
    g = np.random.default_rng(seed).standard_normal((RANDOM_DIRECTIONS, n))
    norms = np.sqrt(np.matmul(g[:, None, :], g[:, :, None]).reshape(-1))
    zero = norms == 0.0
    g[zero], norms[zero] = np.eye(n)[0], 1.0
    return np.concatenate([np.eye(n), pair.reshape(-1, n), g / norms[:, None]])


def _grad_at(field, x, n: int) -> np.ndarray:
    if field.n != n:
        raise DimensionMismatch(f"field dimension {field.n} != tensor dimension {n}")
    return np.asarray(field.grad(x), dtype=float)


def evaluate_e(t: Tensor4, f, s, h, q, x) -> float:
    """Quadruple contraction of ``t`` against the gradients of f, s, h, q at x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (t.n,):
        raise DimensionMismatch(f"point has shape {x.shape}, expected ({t.n},)")
    df = _grad_at(f, x, t.n)
    ds = _grad_at(s, x, t.n)
    dh = _grad_at(h, x, t.n)
    dq = _grad_at(q, x, t.n)
    return float(np.einsum("ijkl,i,j,k,l->", t.values, df, ds, dh, dq))


def evaluate_E(t: Tensor4, f, s, h, x) -> float:
    """Three-argument form: the contraction with the fourth field set to h."""
    return evaluate_e(t, f, s, h, h, x)


def linear_combine(lam: float, a: Tensor4, b: Tensor4) -> Tensor4:
    """Entrywise lam * a + b with lam >= 0 (cone combination)."""
    lam = float(lam)
    if lam < 0.0:
        raise NegativeCoefficient(f"coefficient must be >= 0, got {lam}")
    if a.n != b.n:
        raise DimensionMismatch(f"dimensions differ: {a.n} vs {b.n}")
    return Tensor4._owning(a.n, lam * a.values + b.values)
