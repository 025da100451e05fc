"""Dense 4-index tensors and the condition checkers that classify them.

A conservative-irreversible function in coordinates is a 4-tensor
``t[i,j,k,l]`` contracted against four gradients. This module stores such
tensors densely and decides, with explicit witnesses:

* ``SYM_A``: symmetry in the last two slots,
* ``CYCLIC_B``: the three-term cyclic sum over slots (1,3,4) vanishes,
* ``RAW_III``: the annihilation identities that hold even without
  last-two-slot symmetry (a three-term family on repeated indices and a
  six-term family on distinct indices),
* ``PSD_C``: the contracted matrix M(y)[i,j] = sum_kl t[i,j,k,l] y_k y_l
  is symmetric positive semidefinite along sampled directions,
* ``QUASI_POISSON``: antisymmetry under swapping the outer slots.

All external index tuples are 1-based; storage is row-major with the first
index slowest. Checkers are pure functions over immutable tensors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    EmptyDirectionSet,
    FormatError,
    NegativeCoefficient,
    NonFiniteValue,
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
    """

    __slots__ = ("n", "_values")

    def __init__(self, n: int, values=None):
        n = _checked_dimension(n)
        arr = np.zeros((n, n, n, n)) if values is None else np.array(values, dtype=float)
        self._hold(n, arr)

    @classmethod
    def _owning(cls, n: int, arr: np.ndarray) -> "Tensor4":
        """Wrap a fresh float array that no caller keeps, without copying it."""
        t = cls.__new__(cls)
        t._hold(_checked_dimension(n), arr)
        return t

    def _hold(self, n: int, arr: np.ndarray) -> None:
        if arr.shape != (n, n, n, n):
            raise DimensionMismatch(f"values have shape {arr.shape}, expected {(n, n, n, n)}")
        # min and max propagate NaN and reach +-inf, with no n^4 mask.
        if not (math.isfinite(arr.min()) and math.isfinite(arr.max())):
            raise FormatError("tensor entries must be finite (no NaN/Inf)")
        arr.setflags(write=False)
        self.n = n
        self._values = arr

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
        _, first = np.unique(flat, return_index=True)
        if len(first) < len(flat):
            repeated = np.ones(len(flat), dtype=bool)
            repeated[first] = False
            key = tuple(int(v) for v in index[int(np.argmax(repeated))])
            raise FormatError(f"duplicate entry for index {key}")
        arr = np.zeros((n, n, n, n))
        arr.reshape(-1)[flat] = table[:, 4]
        return cls._owning(n, arr)

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
        return float(np.max(np.abs(self._values)))

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
    return tol


def _violation_witness(
    residuals: np.ndarray, entries: np.ndarray, tol: float
) -> Witness | None:
    """Pick the most informative violating position, or None if all pass.

    Among every position whose residual exceeds ``tol``, the witness is the
    one whose own tensor entry has the largest magnitude (the entry a reader
    would look up first); remaining ties resolve in row-major order. The
    witness carries the residual measured at that position.

    ``residuals`` is the caller's own buffer, and the search reuses it for
    the keys. Residuals are never NaN (a sum of finite terms overflows to
    inf), so a pass needs only their maximum.
    """
    if not residuals.max() > tol:
        return None
    over = residuals > tol
    found = residuals[over]  # the violating residuals, in row-major order
    keyed = residuals
    keyed.fill(-1.0)
    np.abs(entries, out=keyed, where=over)
    flat = int(np.argmax(keyed))
    residual = found[np.count_nonzero(over.reshape(-1)[:flat])]
    idx = np.unravel_index(flat, residuals.shape)
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


def _slot_sum(v: np.ndarray, terms: str) -> np.ndarray:
    """|signed sum of slot permutations of v|, built in one buffer.

    ``terms`` lists the permuted views (see ``_rearranged``), the first
    unsigned and each later one with ``+`` or ``-``, e.g. ``"ijkl -ijlk"``.
    They are combined left to right in the order written, so a sum whose
    terms cancel in adjacent pairs stays exactly zero. An overflowed sum is
    inf, which fails any tolerance.
    """
    first, *rest = terms.split()
    out = np.empty(v.shape)
    acc = _rearranged(v, first)
    with np.errstate(over="ignore"):
        for term in rest:
            op = np.subtract if term[0] == "-" else np.add
            op(acc, _rearranged(v, term[1:]), out=out)
            acc = out
    return np.abs(out, out=out)


def check_sym_a(t: Tensor4, tol: float = DEFAULT_TOL) -> ConditionReport:
    """Pass iff max |t[i,j,k,l] - t[i,j,l,k]| <= tol."""
    tol = _require_tol(tol)
    witness = _violation_witness(_slot_sum(t.values, "ijkl -ijlk"), t.values, tol)
    return ConditionReport("SYM_A", witness is None, witness, tol)


def check_cyclic_b(t: Tensor4, tol: float = DEFAULT_TOL) -> ConditionReport:
    """Pass iff max |t[i,j,k,l] + t[k,j,l,i] + t[l,j,i,k]| <= tol."""
    tol = _require_tol(tol)
    witness = _violation_witness(_slot_sum(t.values, "ijkl +kjli +ljik"), t.values, tol)
    return ConditionReport("CYCLIC_B", witness is None, witness, tol)


def check_raw_iii(t: Tensor4, tol: float = DEFAULT_TOL) -> ConditionReport:
    """Annihilation identities valid without last-two-slot symmetry.

    Two families must vanish within ``tol``:

    * three-term, all i, j, l:
      t[i,j,i,l] + t[i,j,l,i] + t[l,j,i,i];
    * six-term, all j and pairwise different i, k, l:
      t[i,j,k,l] + t[k,j,i,l] + t[k,j,l,i] + t[l,j,k,i] + t[i,j,l,k] + t[l,j,i,k].

    The term order above is kept literally: for bracket-product tensors the
    terms cancel in adjacent pairs, so the residual is exactly zero.
    """
    tol = _require_tol(tol)
    v = t.values
    n = t.n

    # Family 1 over (i, j, l). A sum of finite terms that overflows is inf,
    # never NaN, and inf fails.
    with np.errstate(over="ignore"):
        fam1 = (
            np.einsum("ijil->ijl", v)
            + np.einsum("ijli->ijl", v)
            + np.einsum("ljii->ijl", v)
        )
    resid1 = np.abs(fam1)
    worst1 = float(resid1.max())

    # Family 2 over (i, j, k, l), zeroed where two of i, k, l coincide.
    resid2 = _slot_sum(v, "ijkl +kjil +kjli +ljki +ijlk +ljik")
    i, k, l = np.ogrid[:n, :n, :n]
    repeated = (i == k) | (i == l) | (k == l)
    np.copyto(resid2, 0.0, where=repeated[:, None])
    worst2 = float(resid2.max())

    if max(worst1, worst2) <= tol:
        return ConditionReport("RAW_III", True, None, tol)
    if worst1 >= worst2:
        # Witness is the 4-tuple of the violated identity's first term.
        w1 = _violation_witness(resid1, np.einsum("ijil->ijl", v), tol)
        i, j, l = w1.index
        witness = Witness(w1.residual, index=(i, j, i, l))
    else:
        # A zeroed position never exceeds tol >= 0, so its entry is never keyed.
        witness = _violation_witness(resid2, v, tol)
    return ConditionReport("RAW_III", False, witness, tol)


def check_quasi_poisson(t: Tensor4, tol: float = DEFAULT_TOL) -> ConditionReport:
    """Pass iff max |t[i,j,k,l] + t[l,j,k,i]| <= tol (outer-slot antisymmetry)."""
    tol = _require_tol(tol)
    witness = _violation_witness(_slot_sum(t.values, "ijkl +ljki"), t.values, tol)
    return ConditionReport("QUASI_POISSON", witness is None, witness, tol)


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
    t: Tensor4, directions: Sequence, tol: float = DEFAULT_TOL
) -> ConditionReport:
    """Sampled symmetry + positive semidefiniteness of M(y).

    For each direction y (standing in for an arbitrary gradient), require
    ``max|M - M^T| <= tol * max(1, max|M|)`` and the smallest eigenvalue of
    the symmetrized M to be ``>= -tol * max(1, max|M|)``. Directions are
    scanned in list order and the first violation is reported; a pass means
    "no violation found among the supplied directions", not a proof.

    The scan runs in blocks of ``PSD_BLOCK`` directions, with ``t`` seen as
    an (n^2, n^2) pair matrix P whose row ``k n + l`` holds t[:, :, k, l].
    A direction with at most two nonzero coordinates a <= b (a basis vector,
    a pair direction e_a +- e_b, or multiples) builds M(y) from its support:
    the rows aa, ab, ba, bb of P weighted by y_a y_a, y_a y_b, y_b y_a and
    y_b y_b, added in that order. Every other direction takes one matmul of
    the block's stacked ``y (x) y`` rows against P. One batched LAPACK
    ``eigvalsh`` then gives the block's smallest eigenvalues.
    ``ciph.verify.exhaustive_psd_check`` re-derives the same report with
    loops and the Jacobi solver.
    """
    tol = _require_tol(tol)
    n = t.n
    dirs = [np.asarray(y, dtype=float) for y in directions]
    if not dirs:
        raise EmptyDirectionSet("the PSD check needs at least one direction")
    for y in dirs:
        if y.shape != (n,):
            raise DimensionMismatch(f"direction has shape {y.shape}, expected ({n},)")
    Y = np.array(dirs)
    if not np.all(np.isfinite(Y)):
        raise NonFiniteValue("directions must be finite (no NaN/Inf)")
    pairs = t.values.reshape(n * n, n * n).T
    # Overflow is caught by the finiteness checks, not reported as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        sparse, rows, weights = _support_rows(Y)
    row_start = np.concatenate([[0], np.cumsum(sparse)])  # direction -> its support row
    P = np.ascontiguousarray(pairs) if sparse.any() else None
    # Buffers reused by every block: M, one term of M, and M + M^T.
    bufs = np.empty((3, min(len(Y), PSD_BLOCK), n * n))
    for start in range(0, len(Y), PSD_BLOCK):
        block = Y[start : start + PSD_BLOCK]
        on_support = sparse[start : start + PSD_BLOCK]
        M, term, twice = bufs[:, : len(block)]
        lo, hi = row_start[start], row_start[start + len(block)]
        # M + M^T is not finite where M is not, and it can overflow where M
        # does not; eigvalsh may fail to converge on inf, so it is checked first.
        with np.errstate(over="ignore", invalid="ignore"):
            if on_support.all():
                _weighted_rows(P, rows[lo:hi], weights[lo:hi], M, term)
            else:
                if on_support.any():
                    built = term[: hi - lo]
                    _weighted_rows(P, rows[lo:hi], weights[lo:hi], built, twice[: hi - lo])
                    M[on_support] = built
                dense = block[~on_support]
                yy = (dense[:, :, None] * dense[:, None, :]).reshape(len(dense), n * n)
                M[~on_support] = yy @ pairs
            M = M.reshape(len(block), n, n)
            Mt = M.transpose(0, 2, 1)
            twice = np.add(M, Mt, out=twice.reshape(M.shape))
            if not np.all(np.isfinite(twice)):
                raise NonFiniteValue("M(y) overflowed; rescale the directions")
            # max|M| without an |M| array: the larger of max M and -min M.
            top = np.maximum(M.max(axis=(1, 2)), -M.min(axis=(1, 2)))
            bound = tol * np.maximum(1.0, top)
            diff = np.subtract(M, Mt, out=term.reshape(M.shape))
            asym = np.abs(diff, out=diff).max(axis=(1, 2))
            lam_min = np.linalg.eigvalsh(np.multiply(twice, 0.5, out=twice))[:, 0]
        if not (np.all(np.isfinite(asym)) and np.all(np.isfinite(lam_min))):
            raise NonFiniteValue("M(y) overflowed; rescale the directions")
        asym_fail = asym > bound
        failed = asym_fail | (lam_min < -bound)
        if failed.any():
            k = int(np.argmax(failed))
            residual = asym[k] if asym_fail[k] else lam_min[k]
            witness = Witness(float(residual), direction=tuple(map(float, block[k])))
            return ConditionReport("PSD_C", False, witness, tol)
    return ConditionReport("PSD_C", True, None, tol)


def _weighted_rows(P, rows, weights, out: np.ndarray, term: np.ndarray) -> None:
    """Fill out[s] with sum_c weights[s, c] * P[rows[s, c]], the terms added
    in column order; ``term`` is scratch of out's shape."""
    np.take(P, rows[:, 0], axis=0, out=out)
    out *= weights[:, :1]
    for c in range(1, rows.shape[1]):
        np.take(P, rows[:, c], axis=0, out=term)
        term *= weights[:, c : c + 1]
        out += term


def default_directions(n: int, seed: int = DIRECTION_SEED) -> list[np.ndarray]:
    """Standard direction set: basis vectors, pairwise sums/differences, and
    64 seeded pseudorandom unit vectors.

    Deterministic for a fixed seed, so reports are reproducible; the seed can
    be overridden (the CLI honors the CIPH_SEED environment variable).
    """
    i, j = np.triu_indices(n, 1)
    r = np.arange(len(i))
    pair = np.zeros((len(i), 2, n))  # e_i + e_j, e_i - e_j for i < j, row-major
    pair[r, :, i] = 1.0
    pair[r, 0, j] = 1.0
    pair[r, 1, j] = -1.0
    dirs: list[np.ndarray] = list(np.concatenate([np.eye(n), pair.reshape(-1, n)]))
    rng = np.random.default_rng(seed)
    for _ in range(RANDOM_DIRECTIONS):
        v = rng.standard_normal(n)
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            v = np.eye(n)[0]
            norm = 1.0
        dirs.append(v / norm)
    return dirs


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
