import numpy as np
import pytest

from ciph import (
    BracketMatrix,
    DimensionMismatch,
    FormatError,
    PolynomialField,
    Tensor4,
    bracket_eval,
    check_psd_c,
    check_raw_iii,
    default_directions,
    evaluate_E,
    is_skew,
    product_tensor,
    symmetrize_34,
)
from ciph.verify import random_polynomial, random_skew

from conftest import EJ_ENTRIES


@pytest.mark.parametrize("n", [2.5, True, "2", 0, -1, None])
def test_zeros_rejects_a_non_dimension(n):
    with pytest.raises(DimensionMismatch):
        BracketMatrix.zeros(n)


def test_zeros_accepts_an_integral_float():
    assert BracketMatrix.zeros(2.0) == BracketMatrix.zeros(2)


@pytest.mark.parametrize("rows, error", [
    ([[0.0, 1.0]], DimensionMismatch),
    ([0.0, 1.0], DimensionMismatch),
    ([[0.0, float("nan")], [-1.0, 0.0]], FormatError),
    ([[0.0, float("inf")], [-1.0, 0.0]], FormatError),
])
def test_matrix_must_be_square_and_finite(rows, error):
    with pytest.raises(error):
        BracketMatrix(rows)


class TestBracketEval:
    def test_hand_value(self, j_std, x2, x1_plus_x2):
        # e2^T J (1,1)^T = (-1, 0) . (1, 1)
        assert bracket_eval(j_std, x2, x1_plus_x2, np.array([0.0, 0.0])) == -1.0

    def test_skew_annihilates_diagonal(self, j_std):
        rng = np.random.default_rng(8)
        for _ in range(20):
            h = random_polynomial(rng, 2)
            x = rng.uniform(-2.0, 2.0, size=2)
            assert bracket_eval(j_std, h, h, x) == pytest.approx(0.0, abs=1e-12)

    def test_zero_matrix(self, x1, x2):
        zero = BracketMatrix.zeros(2)
        assert bracket_eval(zero, x1, x2, np.array([1.0, 2.0])) == 0.0

    def test_dimension_mismatch(self, j_std):
        f3 = PolynomialField.coordinate(3, 1)
        with pytest.raises(DimensionMismatch, match="point has shape"):
            bracket_eval(j_std, f3, f3, np.array([0.0, 0.0, 0.0]))
        with pytest.raises(DimensionMismatch, match="field dimensions"):
            bracket_eval(j_std, f3, f3, np.array([0.0, 0.0]))


class TestProductTensor:
    def test_standard_skew_squared_matches_table(self, j_std, e_j):
        assert product_tensor(j_std, j_std) == e_j
        assert product_tensor(j_std, j_std).nonzero_entries() == [
            (i, j, k, l, v) for (i, j, k, l), v in sorted(EJ_ENTRIES.items())
        ]

    def test_zero_factor_gives_zero_tensor(self, j_std):
        zero = BracketMatrix.zeros(2)
        assert product_tensor(zero, j_std) == Tensor4.zeros(2)
        assert product_tensor(j_std, zero) == Tensor4.zeros(2)

    def test_scaled_skew_product_passes_conditions(self):
        rng = np.random.default_rng(31)
        J = random_skew(rng, 3)
        doubled = BracketMatrix(2.0 * J.array)
        t = product_tensor(J, doubled)
        assert check_raw_iii(t).passed
        assert check_psd_c(t, default_directions(3)).passed

    def test_bilinearity_in_first_factor(self, j_std):
        rng = np.random.default_rng(32)
        B = random_skew(rng, 2)
        for alpha in (0.0, 0.5, -3.0, 7.25):
            scaled = product_tensor(BracketMatrix(alpha * j_std.array), B)
            reference = Tensor4(2, alpha * product_tensor(j_std, B).values)
            assert np.array_equal(scaled.values, reference.values)

    def test_contraction_factors_into_brackets(self, j_std):
        rng = np.random.default_rng(33)
        A = random_skew(rng, 2)
        for _ in range(10):
            f = random_polynomial(rng, 2)
            s = random_polynomial(rng, 2)
            h = random_polynomial(rng, 2)
            q = random_polynomial(rng, 2)
            x = rng.uniform(-1.0, 1.0, size=2)
            from ciph import evaluate_e

            lhs = evaluate_e(product_tensor(A, j_std), f, s, h, q, x)
            rhs = bracket_eval(A, f, h, x) * bracket_eval(j_std, s, q, x)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_dimension_mismatch(self, j_std):
        with pytest.raises(DimensionMismatch):
            product_tensor(j_std, BracketMatrix.zeros(3))


class TestIsSkew:
    def test_standard_skew(self, j_std):
        assert is_skew(j_std, 0.0)

    def test_identity_fails_with_witness(self):
        report = is_skew(BracketMatrix(np.eye(2)), 1e-10)
        assert not report
        assert report.witness == (1, 1)

    def test_tolerance_absorbs_tiny_diagonal(self):
        A = BracketMatrix([[1e-12, 1.0], [-1.0, 0.0]])
        assert is_skew(A, 1e-10)
        assert not is_skew(A, 1e-13)


def test_two_route_agreement_on_random_inputs():
    """The induced three-argument function computed through the tensor and
    through two bracket evaluations agrees to near machine precision."""
    rng = np.random.default_rng(34)
    for n in (2, 3, 4):
        J = random_skew(rng, n)
        t = product_tensor(J, J)
        sym = symmetrize_34(t)
        for _ in range(15):
            f = random_polynomial(rng, n)
            s = random_polynomial(rng, n)
            h = random_polynomial(rng, n)
            x = rng.uniform(-1.0, 1.0, size=n)
            via_brackets = bracket_eval(J, s, h, x) * bracket_eval(J, f, h, x)
            via_tensor = evaluate_E(t, f, s, h, x)
            via_symmetric = evaluate_E(sym, f, s, h, x)
            scale = max(1.0, abs(via_brackets))
            assert abs(via_tensor - via_brackets) <= 1e-12 * scale
            assert abs(via_symmetric - via_brackets) <= 1e-12 * scale
