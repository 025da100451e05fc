import warnings

import numpy as np
import pytest

from ciph import DimensionMismatch, FormatError, NonFiniteValue, PolynomialField
from ciph.fields import (
    CallableField,
    CompiledField,
    ExpNegSumField,
    ExpSumField,
    builtin_field,
    list_form,
)
from ciph.verify import fd_gradient, loop_exponential, loop_polynomial, random_polynomial


def test_value_and_grad_quadratic():
    f = PolynomialField(2, [((2, 0), 1.0)])  # x1^2
    assert f.value([3.0, 0.0]) == 9.0
    assert np.allclose(f.grad([3.0, 0.0]), [6.0, 0.0])


def test_constant_has_zero_gradient():
    f = PolynomialField.constant(3, 4.5)
    assert f.value([1.0, 2.0, 3.0]) == 4.5
    assert np.array_equal(f.grad([1.0, 2.0, 3.0]), np.zeros(3))


def test_duplicate_monomials_merge():
    f = PolynomialField(1, [((1,), 2.0), ((1,), 3.0)])
    assert f.terms == (((1,), 5.0),)


def test_zero_coefficients_dropped():
    f = PolynomialField(1, [((2,), 1.0), ((2,), -1.0)])
    assert f.terms == ()


def test_coordinate_is_one_based():
    x2 = PolynomialField.coordinate(3, 2)
    assert x2.value([5.0, 7.0, 9.0]) == 7.0
    with pytest.raises(DimensionMismatch):
        PolynomialField.coordinate(3, 0)


def test_coordinate_index_is_an_integer():
    assert PolynomialField.coordinate(2, 2.0).terms == PolynomialField.coordinate(2, np.int64(2)).terms == (((0, 1), 1.0),)
    for bad in (1.5, True, "1"):
        with pytest.raises(DimensionMismatch, match="out of range 1..2"):
            PolynomialField.coordinate(2, bad)


def test_algebra_operators():
    x1 = PolynomialField.coordinate(2, 1)
    x2 = PolynomialField.coordinate(2, 2)
    h = 2.0 * x1 - x2 + 1.0
    assert h.value([1.0, 1.0]) == 2.0
    assert np.allclose(h.grad([0.3, -0.7]), [2.0, -1.0])


def test_dimension_mismatch_on_bad_exponents():
    with pytest.raises(DimensionMismatch):
        PolynomialField(2, [((1, 0, 0), 1.0)])


@pytest.mark.parametrize("exponent", [1.7, -1, -2.0, True, "1", None, float("inf")])
def test_non_integral_or_negative_exponent_rejected(exponent):
    with pytest.raises(FormatError, match="not a nonnegative integer"):
        PolynomialField(2, [((exponent, 0), 1.0)])


@pytest.mark.parametrize("coeff", ["1.5", True, np.bool_(True), None, [1.0]])
def test_non_number_coefficient_rejected(coeff):
    with pytest.raises(FormatError, match="is not a number"):
        PolynomialField(2, [((1, 0), coeff)])


@pytest.mark.parametrize("coeff", [float("nan"), float("inf"), -float("inf"), 10**400, -(10**400)])
def test_non_finite_coefficient_rejected(coeff):
    with pytest.raises(NonFiniteValue, match="is not finite"):
        PolynomialField(2, [((1, 0), coeff)])


def test_coefficient_overflow_in_arithmetic_rejected():
    f = PolynomialField(2, [((1, 0), 1e308)])
    for build in (lambda: f + f, lambda: f - (-f), lambda: f * 1e300, lambda: 1e300 * f,
                  lambda: PolynomialField(2, [((1, 0), 1e308), ((1, 0), 1e308)])):
        with pytest.raises(NonFiniteValue, match="coefficient inf is not finite"):
            build()
    assert (f + (-f)).terms == () and (f * 1.0).terms == f.terms


def test_number_coefficients_accepted():
    f = PolynomialField(2, [((1, 0), 2), ((0, 1), np.float64(0.5)), ((1, 1), np.int64(3))])
    assert f.terms == (((0, 1), 0.5), ((1, 0), 2.0), ((1, 1), 3.0))
    assert all(type(c) is float for _, c in f.terms)


def test_integral_float_exponent_accepted():
    f = PolynomialField(2, [((2.0, 0), 1.0)])
    assert f.terms == (((2, 0), 1.0),)
    assert f.value([3.0, 1.0]) == 9.0


@pytest.mark.parametrize("n", [2.5, True, "2", 0])
def test_non_integral_dimension_rejected(n):
    with pytest.raises(DimensionMismatch):
        PolynomialField(n)
    with pytest.raises(DimensionMismatch):
        CallableField(n, lambda x: 0.0, lambda x: np.zeros(2))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_analytic_gradient_matches_central_differences(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(10):
        f = random_polynomial(rng, n, degree_max=3)
        x = rng.uniform(-1.5, 1.5, size=n)
        exact = f.grad(x)
        approx = np.array(fd_gradient(f, x, step=1e-6))
        scale = max(1.0, float(np.max(np.abs(exact))))
        assert np.max(np.abs(exact - approx)) <= 1e-6 * scale


def test_exp_sum_field_gradient():
    H = ExpSumField(2)
    x = np.array([0.1, -0.4])
    assert H.value(x) == pytest.approx(np.exp(0.1) + np.exp(-0.4))
    assert np.allclose(H.grad(x), np.exp(x))
    fd = np.array(fd_gradient(H, x, step=1e-6))
    assert np.max(np.abs(H.grad(x) - fd)) <= 1e-6 * max(1.0, np.max(np.abs(fd)))


def test_exp_neg_sum_field_gradient():
    g = ExpNegSumField(2, scale=3.0)
    x = np.array([0.2, 0.5])
    assert g.value(x) == pytest.approx(3.0 * np.exp(-0.7))
    fd = np.array(fd_gradient(g, x, step=1e-6))
    assert np.max(np.abs(g.grad(x) - fd)) <= 1e-6


def test_builtin_field_registry():
    f = builtin_field("exp_sum", 2)
    assert f.value([0.0, 0.0]) == pytest.approx(2.0)
    from ciph import FormatError

    with pytest.raises(FormatError):
        builtin_field("no_such_field", 2)


class TestCompiledPolynomial:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_matches_loop_oracle_bit_for_bit(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(25):
            f = random_polynomial(rng, n, degree_max=5, terms=10)
            for x in rng.uniform(-2.0, 2.0, size=(4, n)):
                value, grad = loop_polynomial(f, x)
                assert f.value(x) == value
                assert f.grad(x).tolist() == grad

    def test_repeated_powers_and_cross_terms(self):
        # x1^3 x2^2 + 2 x1^2 x2^3 - x2^2: powers are shared between terms
        f = PolynomialField(2, [((3, 2), 1.0), ((2, 3), 2.0), ((0, 2), -1.0)])
        x = np.array([1.5, -0.5])
        value, grad = loop_polynomial(f, x)
        assert f.value(x) == value == 1.5**3 * 0.25 + 2.0 * 2.25 * -0.125 - 0.25
        assert f.grad(x).tolist() == grad

    def test_grad_of_empty_polynomial_is_zero(self):
        f = PolynomialField(3)
        assert f.value([1.0, 2.0, 3.0]) == 0.0
        assert np.array_equal(f.grad([1.0, 2.0, 3.0]), np.zeros(3))

    def test_overflow_gives_inf_not_an_exception(self):
        f = PolynomialField(2, [((2, 0), 0.5), ((0, 3), 1.0)])
        assert f.value([1e200, 0.0]) == np.inf
        assert f.value([0.0, -1e200]) == -np.inf
        g = f.grad([1e200, -1e200])
        assert g[0] == 1e200
        assert g[1] == np.inf  # 3 x2^2
        assert f.grad([1e200, 0.0]).tolist() == [1e200, 0.0]
        assert np.isinf(PolynomialField(1, [((5,), 1.0)]).grad([1e200])[0])

    def test_wrong_shape_point_rejected(self):
        f = PolynomialField(2, [((1, 0), 1.0)])
        with pytest.raises(DimensionMismatch):
            f.value([1.0, 2.0, 3.0])
        with pytest.raises(DimensionMismatch):
            f.grad([1.0])

    def test_algebra_results_are_compiled(self):
        x1 = PolynomialField.coordinate(2, 1)
        x2 = PolynomialField.coordinate(2, 2)
        h = 3.0 * x1 + x2 * 2.0 - 1.0
        assert h.value([2.0, 0.5]) == 6.0
        assert h.grad([2.0, 0.5]).tolist() == [3.0, 2.0]
        assert (-h).grad([0.0, 0.0]).tolist() == [-3.0, -2.0]


class TestListForm:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_polynomial_list_form_is_bit_identical(self, n):
        rng = np.random.default_rng(300 + n)
        for _ in range(20):
            f = random_polynomial(rng, n, degree_max=5, terms=10)
            value, grad = list_form(f)
            for x in rng.uniform(-2.0, 2.0, size=(4, n)):
                xs = x.tolist()
                oracle_value, oracle_grad = loop_polynomial(f, x)
                assert value(xs) == f.value(x) == oracle_value
                g = grad(xs)
                assert type(g) is list
                assert g == f.grad(x).tolist() == oracle_grad

    def test_polynomial_list_form_overflows_to_inf(self):
        f = PolynomialField(2, [((2, 0), 0.5), ((0, 3), 1.0)])
        assert f.value_list([1e200, 0.0]) == np.inf
        assert f.grad_list([1e200, -1e200]) == [1e200, np.inf]

    def test_other_fields_go_through_ndarrays(self):
        seen = []

        def value(x):
            seen.append(type(x))
            return 2.0 * float(np.exp(x).sum())

        f = CallableField(3, value=value, grad=lambda x: 2.0 * np.exp(x))
        value_list, grad_list = list_form(f)
        x = [0.1, -0.4, 1.3]
        assert value_list(x) == f.value(np.array(x))
        g = grad_list(x)
        assert type(g) is list and g == f.grad(np.array(x)).tolist()
        assert seen == [np.ndarray, np.ndarray]

    def test_wrong_gradient_shape_rejected(self):
        class Flat:
            n = 2

            def value(self, x):
                return 0.0

            def grad(self, x):
                return np.zeros((2, 1))

        with pytest.raises(DimensionMismatch):
            list_form(Flat())[1]([1.0, 2.0])
        bad = CallableField(2, value=lambda x: 0.0, grad=lambda x: np.zeros(3))
        with pytest.raises(DimensionMismatch):
            list_form(bad)[1]([1.0, 2.0])


EXP_FIELDS = {"exp_sum": ExpSumField, "exp_neg_sum": ExpNegSumField}


def numpy_exp_field(kind, scale, x):
    """The exponential fields in numpy: value and gradient."""
    x = np.asarray(x, dtype=float)
    if kind == "exp_sum":
        return scale * float(np.exp(x).sum()), scale * np.exp(x)
    e = np.exp(-x.sum())
    return scale * float(e), np.full(len(x), -scale * e)


class TestCompiledExponentials:
    @pytest.mark.parametrize("kind", sorted(EXP_FIELDS))
    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_agree_with_numpy_to_a_few_ulps(self, kind, n):
        rng = np.random.default_rng(400 + n)
        for _ in range(50):
            scale = float(rng.uniform(0.1, 10.0))
            f = EXP_FIELDS[kind](n, scale=scale)
            x = rng.uniform(-5.0, 5.0, size=n)
            value, grad = numpy_exp_field(kind, scale, x)
            # math.exp and numpy's exp may differ in the last bit, the sums in association
            assert abs(f.value(x) - value) <= 8 * np.spacing(abs(value))
            assert np.all(np.abs(f.grad(x) - grad) <= 4 * np.spacing(np.abs(grad)))

    @pytest.mark.parametrize("kind", sorted(EXP_FIELDS))
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_list_form_is_the_compiled_field_bit_for_bit(self, kind, n):
        rng = np.random.default_rng(500 + n)
        f = EXP_FIELDS[kind](n, scale=float(rng.uniform(0.1, 10.0)))
        assert isinstance(f, CompiledField)
        value, grad = list_form(f)
        assert (value, grad) == (f.value_list, f.grad_list)
        for x in rng.uniform(-3.0, 3.0, size=(20, n)):
            xs = x.tolist()
            g = grad(xs)
            assert type(g) is list and all(type(v) is float for v in g)
            assert value(xs) == f.value(x) and g == f.grad(x).tolist()
            assert (value(xs), g) == loop_exponential(f, xs)

    @pytest.mark.parametrize("kind, point, value, grad", [
        ("exp_sum", [1e3, 0.0], np.inf, [np.inf, 1.0]),
        ("exp_sum", [1e3, 1e3], np.inf, [np.inf, np.inf]),
        ("exp_neg_sum", [-1e3, 0.0], np.inf, [-np.inf, -np.inf]),
        ("exp_neg_sum", [1e3, 0.0], 0.0, [-0.0, -0.0]),
    ])
    def test_overflow_gives_inf_without_a_warning(self, kind, point, value, grad):
        f = EXP_FIELDS[kind](2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert f.value_list(point) == value
            assert f.grad_list(point) == grad
            assert loop_exponential(f, point) == (value, grad)

    def test_scale_keeps_the_number_rule(self):
        for factory in EXP_FIELDS.values():
            assert factory(2, scale=3).scale == 3.0
            for bad in ("2", True, None):
                with pytest.raises(FormatError, match="is not a number"):
                    factory(2, scale=bad)
            for bad in (np.inf, np.nan, 10**400):
                with pytest.raises(NonFiniteValue, match="is not finite"):
                    factory(2, scale=bad)
            with pytest.raises(DimensionMismatch):
                factory(0)

    def test_wrong_shape_point_rejected(self):
        with pytest.raises(DimensionMismatch):
            ExpSumField(2).value([1.0, 2.0, 3.0])
        with pytest.raises(DimensionMismatch):
            ExpNegSumField(2).grad([1.0])
