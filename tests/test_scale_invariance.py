"""Metamorphic tests: a verdict depends on neither the units nor the basis.

Every condition is homogeneous in t and every tolerance is relative
(``tol * max|t|``, and ``tol * max|t| * |y|^2`` for the PSD scan), so:

* scaling t by 2^k leaves every verdict, witness position, split status and
  J bit-identical, and scales each witness residual, gamma and the
  residual of a SPLIT by exactly 2^k. The
  exponent k is even because the symmetric recovery takes square roots,
  and the range keeps every entry and every intermediate normal;
* permuting the basis, t -> P^{(x)4} t, permutes every index residual
  exactly, so the four index verdicts do not change, even at the
  tolerance's edge;
* a random orthogonal change of basis, t -> Q^{(x)4} t, keeps the index
  verdicts of cone members and of tensors that clearly violate a condition.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ciph import (
    Tensor4,
    check_cyclic_b,
    check_psd_c,
    check_quasi_poisson,
    check_raw_iii,
    check_sym_a,
    default_directions,
    product_tensor,
    split_tensor,
    symmetrize_34,
)
from ciph.tensor import DEFAULT_TOL
from ciph.verify import random_skew

INDEX_CHECKS = (check_sym_a, check_cyclic_b, check_raw_iii, check_quasi_poisson)
KINDS = ("cone", "negated", "raw", "mixed", "random", "symmetrized", "edge")


def draw_tensor(kind: str, n: int, rng) -> Tensor4:
    """A tensor of the named kind. "edge" is a cone member with one entry
    moved by about the default tolerance, so its SYM_A verdict sits at the
    edge of the bound."""
    J, K = random_skew(rng, n), random_skew(rng, n)
    shape = (n,) * 4
    if kind in ("cone", "negated", "edge"):
        v = rng.uniform(0.1, 5.0) * symmetrize_34(product_tensor(J, J)).values
        if kind == "negated":
            v = -v
        elif kind == "edge":
            v = v.copy()
            v[tuple(rng.integers(n, size=4))] += rng.uniform(0.5, 2.0) * DEFAULT_TOL * np.abs(v).max()
        return Tensor4(n, v)
    if kind == "raw":
        return product_tensor(J, J)
    if kind == "mixed":
        return product_tensor(J, K)
    v = rng.standard_normal(shape)
    return symmetrize_34(Tensor4(n, v)) if kind == "symmetrized" else Tensor4(n, v)


@st.composite
def tensors(draw, kinds=KINDS, n_max=6):
    n = draw(st.integers(2, n_max))
    kind = draw(st.sampled_from(kinds))
    return draw_tensor(kind, n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


def reports(t: Tensor4, dirs) -> list:
    return [check(t) for check in INDEX_CHECKS] + [check_psd_c(t, dirs)]


def scaled_witness(w, k: int):
    return None if w is None else (np.ldexp(w.residual, k), w.index, w.direction)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(t=tensors(), m=st.integers(-200, 200))
def test_power_of_two_scaling_changes_nothing_but_the_scale(t, m):
    k = 2 * m
    s = Tensor4(t.n, np.ldexp(t.values, k))
    dirs = default_directions(t.n)
    for before, after in zip(reports(t, dirs), reports(s, dirs)):
        assert after.passed == before.passed, before.condition_id
        assert scaled_witness(after.witness, 0) == scaled_witness(before.witness, k)
    split, split_scaled = split_tensor(t), split_tensor(s)
    assert split_scaled.status == split.status
    if split.J is None:
        assert split_scaled.J is None and split_scaled.gamma is None
    else:
        assert np.array_equal(split_scaled.J.array, split.J.array)
        assert split_scaled.gamma == np.ldexp(split.gamma, k)
        assert split_scaled.residual == np.ldexp(split.residual, k)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(t=tensors(), seed=st.integers(0, 2**32 - 1))
def test_permuted_basis_keeps_index_verdicts(t, seed):
    p = np.random.default_rng(seed).permutation(t.n)
    moved = Tensor4(t.n, t.values[np.ix_(p, p, p, p)])
    for check in INDEX_CHECKS:
        assert check(moved).passed == check(t).passed, check.__name__


def rotate(t: Tensor4, Q: np.ndarray) -> Tensor4:
    """Q^{(x)4} t: every slot transformed by Q."""
    return Tensor4(t.n, np.einsum("ai,bj,ck,dl,ijkl->abcd", Q, Q, Q, Q, t.values, optimize=True))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(t=tensors(kinds=("cone", "negated", "raw", "random"), n_max=5),
       seed=st.integers(0, 2**32 - 1))
def test_orthogonal_basis_keeps_clear_index_verdicts(t, seed):
    # Cone members pass SYM_A, CYCLIC_B and RAW_III with rounding-level
    # residuals in any basis; raw products J (x) J pass RAW_III; the other
    # verdicts are failures far above the tolerance.
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((t.n, t.n)))
    moved = rotate(t, Q)
    for check in INDEX_CHECKS:
        assert check(moved).passed == check(t).passed, check.__name__


def test_psd_near_the_kernel_of_j_is_judged_on_the_tensors_scale():
    # sym34(J (x) J) at n = 5 has M(y) = (J y)(J y)^T. For y within 1e-8 of
    # ker J, M(y) is about 1e-16 and pure rounding noise, and its smallest
    # computed eigenvalue is often negative. A bound taken from max|M(y)|
    # would refute these genuine cone members; tol * max|t| * |y|^2 does not,
    # at any scale of t.
    rng = np.random.default_rng(2023)
    negative = 0
    for _ in range(200):
        J = random_skew(rng, 5)
        t = symmetrize_34(product_tensor(J, J))
        y = np.linalg.svd(J.array)[2][-1] + 1e-8 * rng.standard_normal(5)
        M = np.einsum("ijkl,k,l->ij", t.values, y, y)
        negative += np.linalg.eigvalsh(0.5 * (M + M.T))[0] < 0.0
        for c in (1e-100, 1.0, 1e100):
            assert check_psd_c(Tensor4(5, c * t.values), [y]).passed
    assert negative > 0
