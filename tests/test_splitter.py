import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ciph import (
    BracketMatrix,
    DimensionMismatch,
    Tensor4,
    check_psd_c,
    check_raw_iii,
    check_sym_a,
    default_directions,
    is_skew,
    product_tensor,
    split_product,
    split_tensor,
    symmetrize_34,
)
from ciph.splitter import (
    NEGATIVE_GAMMA,
    NOT_PROPORTIONAL,
    NOT_RANK_ONE,
    NOT_SKEW,
    SPLIT,
    SplitResult,
    _recover_symmetric,
)

from conftest import random_unit_scaled_skew


def block_diag_skew(*lams: float) -> np.ndarray:
    """Block-diagonal matrix of 2x2 skew blocks scaled by the given factors."""
    n = 2 * len(lams)
    out = np.zeros((n, n))
    for b, lam in enumerate(lams):
        out[2 * b, 2 * b + 1] = lam
        out[2 * b + 1, 2 * b] = -lam
    return out


def representative(K: np.ndarray) -> Tensor4:
    """The symmetric representative K[i,k] K[j,l] + K[i,l] K[j,k]."""
    K = np.asarray(K, dtype=float)
    return Tensor4(len(K), np.einsum("ik,jl->ijkl", K, K) + np.einsum("il,jk->ijkl", K, K))


def with_zero_rows(K: np.ndarray, rows: tuple[int, ...]) -> np.ndarray:
    """K with zero rows and columns inserted at the given final positions."""
    keep = [i for i in range(len(K) + len(rows)) if i not in rows]
    out = np.zeros((len(keep) + len(rows),) * 2)
    out[np.ix_(keep, keep)] = K
    return out


def assert_canonical(result):
    """A SPLIT's J is exactly skew and in the canonical gauge: max|J| = 1 and
    the first nonzero entry positive (J = 0 only for gamma = 0)."""
    assert result.status == SPLIT
    J = result.J.array
    assert np.array_equal(J, -J.T)
    if result.gamma == 0.0:
        assert not J.any()
        return
    assert np.max(np.abs(J)) == 1.0
    assert J.ravel()[np.flatnonzero(J)[0]] > 0.0


def assert_splits_to(t: Tensor4, K: np.ndarray, tol: float = 1e-9):
    """t splits with gamma = 2 max|K|^2 and J = +-K / max|K|."""
    result = split_tensor(t)
    assert_canonical(result)
    scale = float(np.max(np.abs(K)))
    assert result.gamma == pytest.approx(2.0 * scale**2, rel=tol)
    delta = min(np.max(np.abs(result.J.array - s * K / scale)) for s in (1.0, -1.0))
    assert delta <= tol
    return result


def flatten_pairs(t: Tensor4) -> np.ndarray:
    """The pair matrix F[(i, k), (j, l)] = t[i, j, k, l], the reference layout
    that ``pair_matrix_split`` reads: a product tensor becomes rank one."""
    n = t.n
    return t.values.transpose(0, 2, 1, 3).reshape(n * n, n * n)


class TestFlattenPairs:
    """The reference layout itself, on which the raw-branch oracle rests."""

    def test_zero(self):
        assert np.array_equal(flatten_pairs(Tensor4.zeros(2)), np.zeros((4, 4)))

    def test_product_becomes_outer_product(self, j_std):
        rng = np.random.default_rng(50)
        A = BracketMatrix(rng.standard_normal((2, 2)))
        F = flatten_pairs(product_tensor(A, j_std))
        outer = np.outer(A.array.ravel(), j_std.array.ravel())
        assert np.array_equal(F, outer)

    def test_golden_tensor_rows(self, golden_eps):
        F = flatten_pairs(golden_eps)
        assert np.array_equal(F[1], [0.0, 2.0, -1.0, 0.0])  # row for pair (1,2)
        assert np.array_equal(F[2], [0.0, -1.0, 2.0, 0.0])  # row for pair (2,1)
        assert np.linalg.matrix_rank(F) >= 2

    def test_round_trip_bijection(self):
        # F[i n + k, j n + l] = t[i, j, k, l], 0-based: each entry of t has
        # its own position in F
        rng = np.random.default_rng(51)
        for n in (1, 2, 3, 4):
            t = Tensor4(n, rng.standard_normal((n, n, n, n)))
            F = flatten_pairs(t)
            assert F.shape == (n * n, n * n)
            for i, j, k, l in np.ndindex(n, n, n, n):
                assert F[i * n + k, j * n + l] == t.values[i, j, k, l]


def pair_matrix_split(t: Tensor4, tol: float = 1e-10) -> tuple[SplitResult, float]:
    """The raw branch of split_tensor as the pair matrix computes it, and its
    rank-one residual: F = flatten_pairs(t), its first max-abs entry F[p, q],
    a = F[:, q] and b = F[p, :] / F[p, q] (zero for a zero F). When
    max|F - a b^T| exceeds tol max|F| the result is NOT_RANK_ONE with that
    residual; otherwise split_product judges (a, b), and a SPLIT stands only
    if gamma J (x) J, flattened the same way, rebuilds F within the bound."""
    n = t.n
    F = flatten_pairs(t)
    p, q = np.unravel_index(int(np.argmax(np.abs(F))), F.shape)
    a = F[:, q].copy()
    b = F[p, :] / F[p, q] if F[p, q] != 0.0 else np.zeros(n * n)
    rank_one = float(np.max(np.abs(F - np.outer(a, b))))
    bound = tol * float(np.max(np.abs(F)))
    if rank_one > bound:
        return SplitResult(NOT_RANK_ONE, residual=rank_one), rank_one
    result = split_product(BracketMatrix(a.reshape(n, n)), BracketMatrix(b.reshape(n, n)), tol)
    if result.status != SPLIT:
        return result, rank_one
    J = result.J.array.ravel()
    residual = float(np.max(np.abs(F - np.outer(J, result.gamma * J))))
    if residual > bound:
        return SplitResult(NOT_RANK_ONE, residual=residual), rank_one
    return SplitResult(SPLIT, result.J, result.gamma, residual), rank_one


def bits(result: SplitResult) -> tuple:
    """A result's status and the bytes of its J, gamma and residual."""
    J = None if result.J is None else result.J.array.tobytes()
    gamma = None if result.gamma is None else np.float64(result.gamma).tobytes()
    return result.status, J, gamma, np.float64(result.residual).tobytes()


class TestRawBranch:
    def test_zero_tensor(self):
        result = split_tensor(Tensor4.zeros(2))
        assert bits(result) == bits(SplitResult(SPLIT, BracketMatrix.zeros(2), 0.0, 0.0))

    def test_exact_product_reconstructs(self, j_std):
        t = product_tensor(j_std, j_std)
        result = split_tensor(t)
        assert result.status == SPLIT and result.residual == 0.0
        assert product_tensor(result.J, BracketMatrix(result.gamma * result.J.array)) == t

    def test_negated_golden_tensor_is_not_rank_one(self, golden_eps):
        # A negative coefficient misses the symmetric match, and the pair
        # matrix of the golden tensor has rank 2.
        result = split_tensor(Tensor4(2, -golden_eps.values))
        assert result.status == NOT_RANK_ONE and result.J is None
        assert result.residual > 0.1

    def test_canonical_rebuild_alone_accepts(self, j_std):
        # t = J (x) J plus e at t[0,0,1,0], which the pivot row B = t[0,:,1,:]
        # reads, and f at t[1,0,0,0] (0-based). The pivot factors A (x) B miss
        # t by e + f = 1.06 * bound at t[1,0,0,0]; the canonical gamma J (x) J,
        # J = A and gamma = 1, misses it by max(e, f) = 0.71 * bound. The
        # pair-matrix reference refuses it on its rank-one residual.
        bound = 1e-10
        e, f = 0.71 * bound, 0.35 * bound
        t = product_tensor(j_std, j_std).set(1, 1, 2, 1, e).set(2, 1, 1, 1, f)
        reference, rank_one = pair_matrix_split(t)
        assert reference.status == NOT_RANK_ONE
        assert rank_one == pytest.approx(1.06 * bound, rel=1e-12)
        result = split_tensor(t)
        assert_canonical(result)
        assert np.array_equal(result.J.array, j_std.array) and result.gamma == 1.0
        assert result.residual == e


@st.composite
def raw_products(draw):
    """(t, tol): a tensor that the symmetric match refuses, mostly a product
    A (x) B. A is skew (random, or small integers whose equal magnitudes tie
    the pivot) or not; B a nonnegative or negative multiple of A, a near
    multiple, or another skew matrix; a "sum" adds a second product. t is
    exact or carries noise of at most tol / 10 or tol times max|t|."""
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tol = draw(st.sampled_from([1e-10, 1e-6, 1e-3]))
    integer = draw(st.booleans())

    def draw_matrix():
        return rng.integers(-2, 3, (n, n)).astype(float) if integer else rng.standard_normal((n, n))

    A = np.triu(draw_matrix(), 1)
    A = A - A.T
    kinds = ["split", "negative", "not proportional", "not skew", "near", "sum"]
    kind = draw(st.sampled_from(kinds))
    B = draw(st.sampled_from([0.0, 1.0, 2.0, 3.0]) if integer else st.floats(0.0, 5.0)) * A
    if kind == "negative":
        B = -B
    elif kind == "not proportional":
        B = np.triu(draw_matrix(), 1)
        B = B - B.T
    elif kind == "not skew":
        A = A + np.diag(np.diag(draw_matrix()))
    elif kind == "near":
        B = B + 10.0 ** rng.uniform(-14.0, -1.0) * np.max(np.abs(B)) * rng.standard_normal((n, n))
    values = np.einsum("ik,jl->ijkl", A, B)
    if kind == "sum":
        values = values + np.einsum("ik,jl->ijkl", draw_matrix(), draw_matrix())
    noise = draw(st.sampled_from([0.0, 0.1, 1.0])) * tol * np.max(np.abs(values))
    values = values + noise * rng.uniform(-1.0, 1.0, values.shape)
    t = Tensor4(n, values)
    assume(_recover_symmetric(t, tol) is None)
    return t, tol


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=raw_products())
def test_raw_branch_matches_the_pair_matrix_reference(case):
    # Bit for bit wherever the reference's rank-one residual is within bound.
    # Beyond it the reference refuses, and split_tensor refuses too or splits
    # because its canonical rebuild alone is within bound.
    t, tol = case
    bound = tol * t.max_abs()
    result = split_tensor(t, tol)
    reference, rank_one = pair_matrix_split(t, tol)
    if rank_one <= bound:
        assert bits(result) == bits(reference)
        return
    assert reference.status == NOT_RANK_ONE
    if result.status == SPLIT:
        assert_canonical(result)
        assert result.residual <= bound
    else:
        assert result.status == NOT_RANK_ONE and result.residual > bound


class TestSplitProduct:
    def test_standard_pair_with_factor_two(self, j_std):
        result = split_product(j_std, BracketMatrix(2.0 * j_std.array))
        assert result.status == SPLIT
        assert result.gamma == pytest.approx(2.0, abs=1e-12)
        assert np.array_equal(result.J.array, j_std.array)

    def test_non_skew_first_factor(self, j_std):
        result = split_product(BracketMatrix(np.eye(2)), j_std)
        assert result.status == NOT_SKEW
        # cross-check: such a product cannot satisfy the annihilation identities
        t = product_tensor(BracketMatrix(np.eye(2)), j_std)
        assert not check_raw_iii(t).passed

    def test_block_mismatch_is_not_proportional(self):
        A = BracketMatrix(block_diag_skew(1.0, 1.0))
        B = BracketMatrix(block_diag_skew(1.0, 2.0))
        result = split_product(A, B)
        assert result.status == NOT_PROPORTIONAL
        # cross-check: the contracted matrix is asymmetric on a sampled direction
        t = product_tensor(A, B)
        report = check_psd_c(t, default_directions(4))
        assert not report.passed

    def test_negative_factor(self, j_std):
        result = split_product(j_std, BracketMatrix(-3.0 * j_std.array))
        assert result.status == NEGATIVE_GAMMA

    def test_zero_factor_splits_trivially(self, j_std):
        result = split_product(BracketMatrix.zeros(2), j_std)
        assert result.status == SPLIT
        assert result.gamma == 0.0
        assert result.J == BracketMatrix.zeros(2)

    def test_gauge_sign_convention(self):
        # A's first nonzero entry is negative: J flips so its own is positive.
        A = BracketMatrix([[0.0, -2.0], [2.0, 0.0]])
        result = split_product(A, BracketMatrix(0.5 * A.array))
        assert result.status == SPLIT
        assert result.J.array[0, 1] == 1.0
        assert result.gamma == pytest.approx(0.5 * 4.0)  # lambda * scale^2

    def test_dimension_mismatch(self, j_std):
        with pytest.raises(DimensionMismatch):
            split_product(j_std, BracketMatrix.zeros(3))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("a, b, status, gamma", [
        (5e-324, 1.0, SPLIT, 5e-324),
        (1e-300, 1e300, SPLIT, 1.0),
        (1e-300, -1e300, NEGATIVE_GAMMA, None),
    ])
    def test_overflowing_ratio_compares_unit_factors(self, j_std, a, b, status, gamma):
        # B[p,q] / A[p,q] would overflow; the ratio of the unit-max-abs factors does not
        result = split_product(BracketMatrix(a * j_std.array), BracketMatrix(b * j_std.array))
        assert result.status == status and result.residual == 0.0
        if gamma is not None:
            assert result.gamma == pytest.approx(gamma, rel=1e-15, abs=0.0)
            assert np.array_equal(result.J.array, j_std.array)

    @pytest.mark.parametrize("c", [1e12, 1.0, 1e-12])
    def test_negative_factor_at_any_scale(self, c):
        # The sign is read off the ratio of the unit-max-abs factors, which c
        # does not move; B[p,q] / A[p,q] scales like 1/c and falls inside -tol
        # at c = 1e12.
        J = np.array([[0.0, 1.0, -0.5], [-1.0, 0.0, 2.0], [0.5, -2.0, 0.0]])
        pair = (BracketMatrix(c * J), BracketMatrix(-J))
        assert split_product(*pair).status == NEGATIVE_GAMMA
        assert split_tensor(product_tensor(*pair)).status == NEGATIVE_GAMMA

    def test_failure_residuals_are_in_the_products_units(self):
        # scaling either factor by c scales the product tensor and its residual by c
        not_skew = BracketMatrix(np.array([[0.0, 1.0], [-0.5, 0.0]]))
        for c in (1.0, 4.0):
            result = split_product(not_skew, BracketMatrix(c * not_skew.array))
            assert result.status == NOT_SKEW and result.residual == c * 0.5
            result = split_product(BracketMatrix(c * block_diag_skew(1.0, 1.0)),
                                   BracketMatrix(block_diag_skew(1.0, 0.5)))
            assert result.status == NOT_PROPORTIONAL and result.residual == c * 0.5

    def test_overflowing_ratio_still_detects_disproportion(self):
        A = BracketMatrix(1e-300 * block_diag_skew(1.0, 1.0))
        B = BracketMatrix(1e300 * block_diag_skew(1.0, 0.5))
        result = split_product(A, B)
        assert result.status == NOT_PROPORTIONAL and result.residual == pytest.approx(0.5)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    log_c=st.floats(-3.0, 3.0),
    noise=st.one_of(st.none(), st.floats(-14.0, -11.0)),
    k=st.integers(-20, 20),
)
def test_split_product_residual_is_the_closed_form(n, seed, log_c, noise, k):
    # SPLIT's residual is max|A (x) (B - lam A)|, lam = B[p,q] / A[p,q] at
    # A's max-abs entry, up to the rounding of lam; here it is computed on
    # the n^4 tensor itself. B = 2^k A makes both exactly zero.
    rng = np.random.default_rng(seed)
    A = random_unit_scaled_skew(rng, n).array * 10.0 ** rng.uniform(-3.0, 3.0)
    B = 10.0**log_c * A
    if noise is not None:
        B = B + 10.0**noise * np.max(np.abs(B)) * rng.standard_normal((n, n))
    p, q = np.unravel_index(int(np.argmax(np.abs(A))), A.shape)
    lam = B[p, q] / A[p, q]
    expected = float(np.max(np.abs(np.einsum("ik,jl->ijkl", A, B - lam * A))))
    result = split_product(BracketMatrix(A), BracketMatrix(B))
    assert result.status == SPLIT
    scale = float(np.max(np.abs(A))) * float(np.max(np.abs(B)))
    assert abs(result.residual - expected) <= 8 * np.finfo(float).eps * scale
    exact = split_product(BracketMatrix(A), BracketMatrix(2.0**k * A))
    assert exact.status == SPLIT and exact.residual == 0.0


class TestSplitTensor:
    def test_golden_tensor_splits_via_symmetric_branch(self, golden_eps, j_std):
        result = split_tensor(golden_eps)
        assert_canonical(result)
        assert result.gamma == pytest.approx(2.0, abs=1e-9)
        assert np.max(np.abs(result.J.array - j_std.array)) <= 1e-12
        assert result.residual <= 1e-12

    def test_raw_product_splits_via_rank_one_branch(self):
        rng = np.random.default_rng(60)
        J = random_unit_scaled_skew(rng, 3)
        t = product_tensor(J, BracketMatrix(3.0 * J.array))
        result = split_tensor(t)
        assert_canonical(result)
        assert result.gamma == pytest.approx(3.0, abs=1e-12)
        recon = product_tensor(result.J, BracketMatrix(result.gamma * result.J.array))
        assert np.max(np.abs(recon.values - t.values)) <= 1e-12

    def test_raw_split_whose_reconstruction_misses_t(self):
        # B deviates from A by d and t from A (x) B by r, each under
        # tol * max|t| = 1e-10, but both land on t[2,1,1,1] with one sign
        d = 0.9e-10
        t = product_tensor(BracketMatrix.standard_skew(), BracketMatrix([[d, 1.0], [-1.0, 0.0]]))
        t = t.set(2, 1, 1, 1, t.get(2, 1, 1, 1) - d)
        _, rank_one = pair_matrix_split(t)
        assert rank_one == d
        result = split_tensor(t)
        assert result.status == NOT_RANK_ONE and result.J is None
        assert result.residual == pytest.approx(2.0 * d, rel=1e-12)

    def test_delta_product_is_not_splittable(self):
        t = Tensor4(2, np.einsum("ij,kl->ijkl", np.eye(2), np.eye(2)))
        assert split_tensor(t).status == NOT_RANK_ONE

    def test_zero_tensor_splits_trivially(self):
        for n in (1, 3):
            result = split_tensor(Tensor4.zeros(n))
            assert_canonical(result)
            assert result.gamma == 0.0

    @pytest.mark.parametrize("x", [1.0, -1.0])
    def test_nonzero_one_dimensional_tensor_does_not_split(self, x):
        # the only 1x1 skew matrix is zero
        assert split_tensor(Tensor4(1, [[[[x]]]])).status != SPLIT

    def test_round_trip_many_random_products(self):
        rng = np.random.default_rng(61)
        for trial in range(60):
            n = int(rng.integers(2, 6))
            J = random_unit_scaled_skew(rng, n)
            gamma = float(rng.uniform(1e-3, 10.0))
            result = split_tensor(product_tensor(J, BracketMatrix(gamma * J.array)))
            assert_canonical(result)
            assert abs(result.gamma - gamma) <= 1e-9
            # J recoverable up to global sign only
            delta = min(
                float(np.max(np.abs(result.J.array - J.array))),
                float(np.max(np.abs(result.J.array + J.array))),
            )
            assert delta <= 1e-9

    def test_symmetric_representative_doubles_gamma(self):
        rng = np.random.default_rng(62)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            J = random_unit_scaled_skew(rng, n)
            gamma = float(rng.uniform(0.1, 5.0))
            t = symmetrize_34(
                Tensor4(n, 2.0 * product_tensor(J, BracketMatrix(gamma * J.array)).values)
            )
            result = split_tensor(t)
            assert_canonical(result)
            assert result.gamma == pytest.approx(2.0 * gamma, abs=1e-9)
            # the same representative with a negative coefficient is not a split
            assert split_tensor(Tensor4(n, -t.values)).status == NOT_RANK_ONE

    def test_split_results_pass_forward_conditions(self):
        rng = np.random.default_rng(63)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            J = random_unit_scaled_skew(rng, n)
            gamma = float(rng.uniform(0.1, 4.0))
            result = split_tensor(product_tensor(J, BracketMatrix(gamma * J.array)))
            assert_canonical(result)
            recon = product_tensor(result.J, BracketMatrix(result.gamma * result.J.array))
            assert check_raw_iii(recon).passed
            assert check_psd_c(recon, default_directions(n)).passed

    def test_non_skew_products_fail_raw_iii(self):
        rng = np.random.default_rng(64)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            A = BracketMatrix(rng.standard_normal((n, n)))
            if is_skew(A, 1e-6):
                continue
            B = BracketMatrix(rng.standard_normal((n, n)))
            if B.max_abs() == 0.0:
                continue
            assert not check_raw_iii(product_tensor(A, B)).passed

    def test_disconnected_blocks_recover_with_cross_sign(self):
        # Blocks of J share no row, so the skewness of K cannot relate their
        # signs; the pivot slice does. Zero rows between blocks stay zero.
        cases = [
            ((1.0, 0.5), ()),
            ((1.0, -0.5, 2.0), ()),
            ((-1.0, 0.3, 0.7, -2.0), ()),
            ((1.0, -0.5, 2.0), (2, 5)),
            ((0.4, -1.0), (0, 3, 6)),
        ]
        for lams, zero_rows in cases:
            K = np.sqrt(1.5) * with_zero_rows(block_diag_skew(*lams), zero_rows)
            result = assert_splits_to(representative(K), K)
            assert not result.J.array[list(zero_rows)].any()

    def test_rows_without_a_pivot_column_entry(self):
        # The pivot is K[0, 1] = 2. Row 2 has K[2, 1] = 0, so its sign comes
        # from the pivot slice's K[0, 1] K[2, :] term alone.
        K = np.zeros((4, 4))
        K[0, 1], K[0, 2], K[2, 3], K[1, 3] = 2.0, 0.5, 1.0, 0.7
        K = K - K.T
        for sign in (1.0, -1.0):
            assert_splits_to(representative(sign * K), K)

    def test_pivot_slice_needs_its_rank_one_correction(self):
        # t[:, p, :, q] = K[p,q] K + K[:, q] K[p, :]. Here the second term
        # outweighs the first on row 2 (K[2, 1] = 0.95 against the nine
        # K[0, l] K[2, l] = -0.99 * 0.48), so only the corrected slice has
        # row 2's sign.
        K = np.zeros((12, 12))
        K[0, 1], K[2, 1] = 1.0, 0.95
        K[0, 3:], K[2, 3:] = -0.99, 0.48
        K = K - K.T
        assert_splits_to(representative(K), K)

    def test_noisy_representative_within_tolerance(self):
        # Noise above the 1e-10 tolerance scale at the structural zeros
        # K[0, 2] = K[2, 0] = 0, with signs that contradict skewness there:
        # the signs come from the pivot slice, not from those entries.
        K = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
        v = representative(K).values.copy()
        for noise in (1.2e-10, 1.9e-10):
            u = v.copy()
            u[0, 2, 0, 1] -= noise
            u[0, 2, 1, 0] -= noise
            u[2, 0, 2, 1] += noise
            u[2, 0, 1, 2] += noise
            result = assert_splits_to(Tensor4(3, u), K, tol=1e-9)
            assert result.residual <= 2e-10

    def test_random_noise_within_tolerance(self):
        rng = np.random.default_rng(65)
        for n in (2, 5, 9):
            K = random_unit_scaled_skew(rng, n).array
            t = representative(K).values + 1e-13 * rng.standard_normal((n,) * 4)
            assert_splits_to(symmetrize_34(Tensor4(n, t)), K)

    def test_pivot_is_the_largest_diagonal_pair_entry(self):
        # Entries at the tolerance scale: with tol = 0.4 and max|t| = 2 the
        # bound is 0.8. The perturbed entries t[2,3,2,3] etc. make the second
        # block's Gram diagonal -t[2,3,2,3] = 1.1 outgrow the first block's 1,
        # but the pivot is t[0,0,1,1] = 2 > t[2,2,3,3] = 1.5, and its slice
        # t[:,0,:,1] never reads the perturbed entries: K comes out exact, so
        # gamma = 2 a^2 and the residual is the perturbation eta.
        a, b, eta = 1.0, np.sqrt(0.75), 0.35
        K = np.zeros((4, 4))
        K[0, 1], K[2, 3] = a, b
        v = representative(K - K.T).values.copy()
        for idx in ((2, 3, 2, 3), (2, 3, 3, 2), (3, 2, 3, 2), (3, 2, 2, 3)):
            v[idx] -= eta
        for scale in (1.0, 1e-10):
            result = split_tensor(Tensor4(4, scale * v), tol=0.4)
            assert_canonical(result)
            assert result.gamma == pytest.approx(scale * 2.0 * a * a, rel=1e-12)
            assert np.max(np.abs(result.J.array - (K - K.T))) <= 1e-15
            assert result.residual == pytest.approx(scale * eta, rel=1e-12)

    def test_pivot_slice_is_read_at_the_largest_entry(self):
        # The first positive t[i,i,k,k] in row-major order is t[0,0,1,1] =
        # 2e-6 (K[0,1] = 1e-3); the largest is t[2,2,3,3] = 2. Noise of 1e-13
        # divided by K[0,1] would grow 1000-fold in K and miss the 1e-10
        # gate; read at the largest entry it stays at the noise level.
        rng = np.random.default_rng(66)
        K = random_unit_scaled_skew(rng, 5).array.copy()
        K[0, 1], K[1, 0], K[2, 3], K[3, 2] = 1e-3, -1e-3, 1.0, -1.0
        for trial in range(5):
            noise = 1e-13 * rng.standard_normal((5,) * 4)
            t = symmetrize_34(Tensor4(5, representative(K).values + noise))
            result = assert_splits_to(t, K)
            assert result.residual <= 1e-12

    @pytest.mark.parametrize("eps, splits", [(0.75, True), (0.9, True), (1.2, False)])
    def test_near_representative_is_judged_by_its_reconstruction_alone(self, eps, splits):
        # A (k,l)-antisymmetric perturbation d = eps * tol * max|t| off the
        # pivot slice t[:,0,:,1] and its two correction slices: K comes out
        # exact, so the reconstruction residual is d, while the SYM_A
        # residual is 2d. No SYM_A check gates the match, so it splits up to
        # eps = 1 even where SYM_A fails.
        tol = 1e-6
        K = np.array([[0.0, 1.0, -0.5], [-1.0, 0.0, 0.25], [0.5, -0.25, 0.0]])
        exact = representative(K)
        v = exact.values.copy()
        d = eps * tol * exact.max_abs()
        v[1, 2, 0, 2] += d
        v[1, 2, 2, 0] -= d
        t = Tensor4(3, v)
        assert not check_sym_a(t, tol).passed
        result = split_tensor(t, tol)
        if not splits:
            assert result.status != SPLIT
            return
        reference = split_tensor(exact, tol)
        assert_canonical(result)
        assert np.array_equal(result.J.array, reference.J.array)
        assert result.gamma == reference.gamma == 2.0
        assert result.residual <= tol * t.max_abs()

    def test_structural_zeros_come_out_as_zeros(self):
        # J keeps about 30% of its upper entries, spread over six decades, and
        # t = c sym34(J (x) J). At a structural zero the pivot slice and its
        # correction round the same product differently; that residue is set
        # to zero before the gauge, so no split reports a nonzero entry where
        # J is zero, and none reports -J. Without that rule 248 of these 566
        # splits give such an entry, and 16 report -J.
        rng = np.random.default_rng(2025)
        splits = residue = flipped = 0
        for _ in range(600):
            n = int(rng.integers(3, 13))
            upper = rng.choice([-1.0, 1.0], (n, n)) * 10.0 ** rng.uniform(-6.0, 0.0, (n, n))
            upper = np.triu(upper * (rng.random((n, n)) < 0.3), 1)
            J = upper - upper.T
            c = 10.0 ** rng.uniform(-3.0, 3.0)
            if not J.any():
                continue
            t = Tensor4(n, c * symmetrize_34(product_tensor(BracketMatrix(J), BracketMatrix(J))).values)
            result = split_tensor(t)
            assert_canonical(result)
            canonical = J / math.copysign(np.max(np.abs(J)), J.ravel()[np.flatnonzero(J)[0]])
            splits += 1
            residue += bool(result.J.array[J == 0].any())
            flipped += bool(np.max(np.abs(result.J.array - canonical)) > 1e-9)
        assert splits > 500 and (residue, flipped) == (0, 0)

    def test_symmetric_but_wrong_shape_rejected(self):
        # symmetric in the last two slots yet not of the two-bracket form
        t = Tensor4.zeros(3).set(1, 1, 2, 3, 1.0).set(1, 1, 3, 2, 1.0)
        assert split_tensor(t).status != SPLIT


SPLIT_TOLS = (0.0, 1e-10, 1e-3, 0.1, 0.5, 0.9)


@st.composite
def skew_matrices(draw):
    """(K, exact): a nonzero skew K that is dense, 30%-sparse, has zero rows
    or splits into two diagonal blocks. Exact ones hold integers, so every
    product in c (K (x) K + swap) and in its recovery is exact at a power-of-
    four c; the others hold standard normal entries."""
    n = draw(st.integers(2, 8))
    exact = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = rng.integers(-1000, 1001, (n, n)) if exact else rng.standard_normal((n, n))
    upper = np.triu(upper.astype(float), 1)
    shape = draw(st.sampled_from(["dense", "sparse", "zero rows", "blocks"]))
    if shape == "sparse":
        upper *= rng.random((n, n)) < 0.3
    elif shape == "zero rows":
        zero = rng.random(n) < 0.4
        upper[zero] = upper[:, zero] = 0.0
    elif shape == "blocks":
        cut = int(rng.integers(1, n))
        upper[:cut, cut:] = 0.0
    K = upper - upper.T
    assume(K.any())
    return K, exact


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=skew_matrices(), k=st.integers(-250, 250))
def test_representatives_split_at_every_tol_and_scale(case, k):
    # c is the power of four nearest 10^k: exact at any scale, so an exact K
    # splits even at tol = 0. The pivot slice never squares an entry of t, so
    # no scale overflows or underflows on the way, and no row is dropped at a
    # loose tol.
    K, exact = case
    c = 4.0 ** round(k * math.log(10.0, 4.0))
    t = Tensor4(len(K), c * representative(K).values)
    m = float(np.max(np.abs(K)))
    J = K / math.copysign(m, K.ravel()[np.flatnonzero(K)[0]])
    for tol in SPLIT_TOLS if exact else SPLIT_TOLS[1:]:
        result = split_tensor(t, tol)
        assert_canonical(result)
        # Structural zeros of K come out as zeros, so J's sign is K's.
        assert np.max(np.abs(result.J.array - J)) <= 8 * np.finfo(float).eps
        assert not result.J.array[K == 0.0].any()
        assert result.gamma == pytest.approx(2.0 * c * m * m, rel=8 * np.finfo(float).eps, abs=0.0)
