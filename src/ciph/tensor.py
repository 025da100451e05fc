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


def _checked_dimension(n) -> int:
    if (m := _integer(n)) is None:
        raise DimensionMismatch(f"dimension must be an integer, got {n!r}")
    n = m
    if n < 1:
        raise DimensionMismatch(f"dimension must be >= 1, got {n}")
    if n > MAX_DIMENSION:
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
        if values is None:
            arr = np.zeros((n, n, n, n))
        else:
            arr = np.array(values, dtype=float)
            if arr.shape != (n, n, n, n):
                raise DimensionMismatch(
                    f"values have shape {arr.shape}, expected {(n, n, n, n)}"
                )
        if not np.all(np.isfinite(arr)):
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
        return cls(n, arr)

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
        return Tensor4(self.n, arr)

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
    """
    mask = residuals > tol
    if not mask.any():
        return None
    keyed = np.where(mask, np.abs(entries), -1.0)
    flat = int(np.argmax(keyed))
    idx = np.unravel_index(flat, residuals.shape)
    return Witness(float(residuals[idx]), index=tuple(int(v) + 1 for v in idx))


def symmetrize_34(t: Tensor4) -> Tensor4:
    """Average the tensor with its copy carrying the last two slots swapped.

    The result is exactly symmetric in slots 3 and 4 ((x + y)/2 on finite
    floats is exact under swap), and applying the map twice equals applying
    it once.
    """
    v = t.values
    return Tensor4(t.n, 0.5 * (v + v.transpose(0, 1, 3, 2)))


def _rearranged(v: np.ndarray, pattern: str) -> np.ndarray:
    """View of v with slots permuted: pattern 'kjli' gives out[ijkl] = v[kjli]."""
    return np.einsum(f"{pattern}->ijkl", v)


def check_sym_a(t: Tensor4, tol: float = DEFAULT_TOL) -> ConditionReport:
    """Pass iff max |t[i,j,k,l] - t[i,j,l,k]| <= tol."""
    tol = _require_tol(tol)
    v = t.values
    resid = np.abs(v - _rearranged(v, "ijlk"))
    witness = _violation_witness(resid, v, tol)
    return ConditionReport("SYM_A", witness is None, witness, tol)


def check_cyclic_b(t: Tensor4, tol: float = DEFAULT_TOL) -> ConditionReport:
    """Pass iff max |t[i,j,k,l] + t[k,j,l,i] + t[l,j,i,k]| <= tol."""
    tol = _require_tol(tol)
    v = t.values
    resid = np.abs(v + _rearranged(v, "kjli") + _rearranged(v, "ljik"))
    witness = _violation_witness(resid, v, tol)
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

    # Family 1 over (i, j, l).
    fam1 = (
        np.einsum("ijil->ijl", v)
        + np.einsum("ijli->ijl", v)
        + np.einsum("ljii->ijl", v)
    )
    resid1 = np.abs(fam1)
    worst1 = float(resid1.max())

    # Family 2 over (i, j, k, l) with i, k, l pairwise different. Keep the
    # term order: adjacent pairs cancel exactly for bracket-product tensors.
    six = (
        v
        + _rearranged(v, "kjil")
        + _rearranged(v, "kjli")
        + _rearranged(v, "ljki")
        + _rearranged(v, "ijlk")
        + _rearranged(v, "ljik")
    )
    ii, kk, ll = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    distinct = (ii != kk) & (ii != ll) & (kk != ll)
    mask = np.broadcast_to(distinct[:, None, :, :], six.shape)
    resid2 = np.where(mask, np.abs(six), 0.0)
    worst2 = float(resid2.max())

    if max(worst1, worst2) <= tol:
        return ConditionReport("RAW_III", True, None, tol)
    if worst1 >= worst2:
        # Witness is the 4-tuple of the violated identity's first term.
        w1 = _violation_witness(resid1, np.einsum("ijil->ijl", v), tol)
        i, j, l = w1.index
        witness = Witness(w1.residual, index=(i, j, i, l))
    else:
        witness = _violation_witness(resid2, np.where(mask, v, 0.0), tol)
    return ConditionReport("RAW_III", False, witness, tol)


def check_quasi_poisson(t: Tensor4, tol: float = DEFAULT_TOL) -> ConditionReport:
    """Pass iff max |t[i,j,k,l] + t[l,j,k,i]| <= tol (outer-slot antisymmetry)."""
    tol = _require_tol(tol)
    v = t.values
    resid = np.abs(v + _rearranged(v, "ljki"))
    witness = _violation_witness(resid, v, tol)
    return ConditionReport("QUASI_POISSON", witness is None, witness, tol)


def contract_directions(t: Tensor4, y) -> np.ndarray:
    """M(y)[i,j] = sum_kl t[i,j,k,l] y_k y_l for one direction y."""
    y = np.asarray(y, dtype=float)
    if y.shape != (t.n,):
        raise DimensionMismatch(f"direction has shape {y.shape}, expected ({t.n},)")
    return np.einsum("ijkl,k,l->ij", t.values, y, y)


def check_psd_c(
    t: Tensor4, directions: Sequence, tol: float = DEFAULT_TOL
) -> ConditionReport:
    """Sampled symmetry + positive semidefiniteness of M(y).

    For each direction y (standing in for an arbitrary gradient), require
    ``max|M - M^T| <= tol * max(1, max|M|)`` and the smallest eigenvalue of
    the symmetrized M to be ``>= -tol * max(1, max|M|)``. Directions are
    scanned in list order and the first violation is reported; a pass means
    "no violation found among the supplied directions", not a proof.

    The scan runs in blocks of ``PSD_BLOCK`` directions: with ``t`` flattened
    to an (n^2, n^2) pair matrix, one matmul against the stacked ``y (x) y``
    rows gives every M(y) of a block, and one batched LAPACK ``eigvalsh``
    gives their smallest eigenvalues. ``ciph.verify.exhaustive_psd_check``
    re-derives the same report with loops and the Jacobi solver.
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
    for start in range(0, len(Y), PSD_BLOCK):
        block = Y[start : start + PSD_BLOCK]
        # Overflow is caught by the finiteness checks, not reported as a warning;
        # M + M^T can overflow where M does not, and eigvalsh then returns NaN.
        with np.errstate(over="ignore", invalid="ignore"):
            yy = (block[:, :, None] * block[:, None, :]).reshape(len(block), n * n)
            M = (yy @ pairs).reshape(len(block), n, n)
            if not np.all(np.isfinite(M)):
                raise NonFiniteValue("M(y) overflowed; rescale the directions")
            Mt = M.transpose(0, 2, 1)
            bound = tol * np.maximum(1.0, np.abs(M).max(axis=(1, 2)))
            asym = np.abs(M - Mt).max(axis=(1, 2))
            lam_min = np.linalg.eigvalsh(0.5 * (M + Mt))[:, 0]
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


def default_directions(n: int, seed: int = DIRECTION_SEED) -> list[np.ndarray]:
    """Standard direction set: basis vectors, pairwise sums/differences, and
    64 seeded pseudorandom unit vectors.

    Deterministic for a fixed seed, so reports are reproducible; the seed can
    be overridden (the CLI honors the CIPH_SEED environment variable).
    """
    eye = np.eye(n)
    dirs: list[np.ndarray] = list(eye)
    for i in range(n):
        for j in range(i + 1, n):
            dirs += [eye[i] + eye[j], eye[i] - eye[j]]
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
    return Tensor4(a.n, lam * a.values + b.values)
