import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciph import (
    BracketMatrix,
    DimensionMismatch,
    DimensionTooLarge,
    EmptyDirectionSet,
    NegativeCoefficient,
    NonFiniteValue,
    PolynomialField,
    Tensor4,
    ToleranceTooLarge,
    check_cyclic_b,
    check_psd_c,
    check_quasi_poisson,
    check_raw_iii,
    check_sym_a,
    default_directions,
    evaluate_E,
    evaluate_e,
    linear_combine,
    product_tensor,
    split_tensor,
    symmetrize_34,
)
from ciph import tensor as tensor_module
from ciph.tensor import PSD_BLOCK, Witness, contract_directions
from ciph.verify import random_cons_irrev, random_polynomial, random_skew

from conftest import EPS_ENTRIES


class TestTensor4:
    def test_get_set_round_trip(self):
        t = Tensor4.zeros(3)
        t2 = t.set(2, 3, 1, 2, -4.5)
        assert t2.get(2, 3, 1, 2) == -4.5
        assert t.get(2, 3, 1, 2) == 0.0  # original untouched

    def test_every_index_round_trips(self):
        n = 2
        t = Tensor4.zeros(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    for l in range(1, n + 1):
                        v = float(i * 1000 + j * 100 + k * 10 + l)
                        assert t.set(i, j, k, l, v).get(i, j, k, l) == v

    def test_rejects_nan(self):
        arr = np.zeros((2, 2, 2, 2))
        arr[0, 0, 0, 0] = np.nan
        from ciph import FormatError

        with pytest.raises(FormatError):
            Tensor4(2, arr)

    @pytest.mark.parametrize("shape", [(2, 2, 2), (2, 2, 2, 3), (4, 4)])
    def test_rejects_values_of_the_wrong_shape(self, shape):
        with pytest.raises(DimensionMismatch, match="values have shape"):
            Tensor4(2, np.zeros(shape))

    def test_rejects_oversized_dimension(self):
        with pytest.raises(DimensionTooLarge):
            Tensor4.zeros(33)

    @pytest.mark.parametrize("n", [2.5, 1.9999, True, "2", None])
    def test_rejects_non_integral_dimension(self, n):
        with pytest.raises(DimensionMismatch, match="must be an integer"):
            Tensor4(n)
        with pytest.raises(DimensionMismatch, match="must be an integer"):
            Tensor4.from_entries(n, [])

    def test_accepts_integral_float_and_numpy_dimension(self):
        assert Tensor4(2.0) == Tensor4.zeros(2) == Tensor4(np.int64(2))
        assert Tensor4.from_entries(2.0, []).n == 2

    def test_values_are_read_only(self, golden_eps):
        with pytest.raises(ValueError):
            golden_eps.values[0, 0, 0, 0] = 1.0

    def test_index_out_of_range(self):
        t = Tensor4.zeros(2)
        with pytest.raises(DimensionMismatch):
            t.get(0, 1, 1, 1)
        with pytest.raises(DimensionMismatch):
            t.get(1, 1, 1, 3)

    @pytest.mark.parametrize("bad", [1.5, True, "1", None, float("nan")])
    def test_index_must_be_an_integer(self, bad):
        t = Tensor4.zeros(2).set(1, 2, 1, 2, 5.0)
        with pytest.raises(DimensionMismatch, match="out of range 1..2"):
            t.get(bad, 2, 1, 2)
        with pytest.raises(DimensionMismatch, match="out of range 1..2"):
            t.set(1, 2, 1, bad, 1.0)

    def test_integral_float_and_numpy_indices(self):
        t = Tensor4.zeros(2).set(1.0, 2, np.int64(1), np.float64(2.0), 5.0)
        assert t.get(1, 2.0, 1, 2) == 5.0 == t.get(np.int32(1), 2, 1.0, 2)


class TestSymmetrize:
    def test_zero_is_fixed_point(self):
        z = Tensor4.zeros(3)
        assert symmetrize_34(z) == z

    def test_doubled_product_gives_golden_tensor(self, e_j, golden_eps):
        assert symmetrize_34(Tensor4(2, 2.0 * e_j.values)) == golden_eps

    def test_idempotent(self, e_j):
        once = symmetrize_34(e_j)
        assert symmetrize_34(once) == once

    def test_result_passes_symmetry_at_zero_tolerance(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4):
            t = Tensor4(n, rng.standard_normal((n, n, n, n)))
            assert check_sym_a(symmetrize_34(t), 0.0).passed

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_projection_property(self, n, seed):
        rng = np.random.default_rng(seed)
        t = Tensor4(n, rng.uniform(-5.0, 5.0, size=(n, n, n, n)))
        s = symmetrize_34(t)
        assert check_sym_a(s, 0.0).passed
        assert symmetrize_34(s) == s


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNearMaxEntries:
    """Entries of +-1.5e308: every checker's residual overflows somewhere."""

    @pytest.fixture
    def big(self):
        values = np.full((2, 2, 2, 2), 1.5e308)
        values[0, 0, 0, 1] = -1.5e308
        return Tensor4(2, values)

    @pytest.mark.parametrize("check", [check_sym_a, check_cyclic_b, check_raw_iii, check_quasi_poisson])
    def test_overflowed_residual_fails_without_warning(self, big, check):
        assert not check(big).passed

    def test_psd_scan_reports_an_overflowed_symmetric_part(self):
        # M(y) is finite, but M + M^T has -inf on its diagonal, where eigvalsh
        # may fail to converge instead of returning NaN.
        t = Tensor4.from_entries(3, {(2, 2, 2, 1): -1e308})
        with pytest.raises(NonFiniteValue, match="overflowed"):
            check_psd_c(t, default_directions(3))

    def test_symmetrize_halves_before_adding_where_the_sum_overflows(self, big):
        s = symmetrize_34(big).values
        assert s[0, 0, 0, 1] == s[0, 0, 1, 0] == 0.0
        assert s[1, 1, 0, 1] == s[0, 0, 0, 0] == 1.5e308
        assert check_sym_a(symmetrize_34(big), 0.0).passed


class TestSymAWitness:
    def test_golden_tensor_passes(self, golden_eps):
        assert check_sym_a(golden_eps).passed

    def test_raw_product_fails_with_pinned_witness(self, e_j):
        report = check_sym_a(e_j)
        assert not report.passed
        assert report.witness.index == (1, 2, 2, 1)
        assert report.witness.residual == pytest.approx(1.0)

    def test_zero_passes(self):
        assert check_sym_a(Tensor4.zeros(2)).passed


class TestCyclicB:
    def test_golden_tensor_passes(self, golden_eps):
        assert check_cyclic_b(golden_eps).passed
        # spot value: 2 + (-1) + (-1) = 0 at (1,1,2,2)
        assert (
            golden_eps.get(1, 1, 2, 2) + golden_eps.get(2, 1, 2, 1) + golden_eps.get(2, 1, 1, 2)
            == 0.0
        )

    def test_diagonal_entry_fails(self):
        t = Tensor4.zeros(2).set(1, 1, 1, 1, 1.0)
        report = check_cyclic_b(t)
        assert not report.passed
        assert report.witness.index == (1, 1, 1, 1)
        assert report.witness.residual == pytest.approx(3.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_symmetrized_skew_products_pass(self, n):
        rng = np.random.default_rng(40 + n)
        J = random_skew(rng, n)
        gamma = float(rng.uniform(0.1, 3.0))
        t = Tensor4(n, gamma * symmetrize_34(product_tensor(J, J)).values)
        report = check_cyclic_b(t)
        assert report.passed
        # brute-force cross-check of the cyclic sum over every tuple
        v = t.values
        worst = 0.0
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        worst = max(worst, abs(v[i, j, k, l] + v[k, j, l, i] + v[l, j, i, k]))
        assert worst <= 1e-10


class TestRawIii:
    def test_raw_product_passes(self, e_j):
        assert check_raw_iii(e_j).passed

    def test_golden_tensor_passes(self, golden_eps):
        assert check_raw_iii(golden_eps).passed

    def test_single_entry_fails(self):
        t = Tensor4.zeros(2).set(1, 2, 1, 1, 1.0)
        report = check_raw_iii(t)
        assert not report.passed
        assert report.witness.index == (1, 2, 1, 1)

    def test_exact_zero_residual_for_skew_products(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 4, 5):
            J = random_skew(rng, n)
            B = BracketMatrix(float(rng.uniform(0.1, 5.0)) * J.array)
            assert check_raw_iii(product_tensor(J, B), 0.0).passed


class TestPsdC:
    def test_golden_tensor_basis_direction(self, golden_eps):
        M = np.einsum("ijkl,k,l->ij", golden_eps.values, [1.0, 0.0], [1.0, 0.0])
        assert np.array_equal(M, [[0.0, 0.0], [0.0, 2.0]])
        assert check_psd_c(golden_eps, [np.array([1.0, 0.0])]).passed

    def test_golden_tensor_diagonal_direction(self, golden_eps):
        M = np.einsum("ijkl,k,l->ij", golden_eps.values, [1.0, 1.0], [1.0, 1.0])
        assert np.array_equal(M, [[2.0, -2.0], [-2.0, 2.0]])
        assert check_psd_c(golden_eps, [np.array([1.0, 1.0])]).passed

    def test_negated_golden_tensor_fails_with_eigenvalue(self, golden_eps):
        neg = Tensor4(2, -golden_eps.values)
        report = check_psd_c(neg, [np.array([1.0, 0.0])])
        assert not report.passed
        assert report.witness.direction == (1.0, 0.0)
        assert report.witness.residual == pytest.approx(-2.0, abs=1e-12)

    def test_standard_directions_pass_for_golden_tensor(self, golden_eps):
        assert check_psd_c(golden_eps, default_directions(2)).passed

    def test_empty_direction_set(self, golden_eps):
        with pytest.raises(EmptyDirectionSet):
            check_psd_c(golden_eps, [])

    def test_first_violating_direction_reported(self, golden_eps):
        neg = Tensor4(2, -golden_eps.values)
        good = np.array([0.0, 0.0])  # M(0) = 0 passes
        bad1 = np.array([1.0, 0.0])
        bad2 = np.array([0.0, 1.0])
        report = check_psd_c(neg, [good, bad1, bad2])
        assert report.witness.direction == (1.0, 0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_first_failure_wins_over_a_later_overflow(self, golden_eps):
        # Directions are judged one by one: a failure before an overflowing
        # direction is reported, wherever the block boundaries fall, and an
        # overflow before any failure raises.
        neg = Tensor4(2, -golden_eps.values)
        fail, huge, zero = np.array([1.0, 1.0]), np.array([1e200, 0.0]), np.zeros(2)
        for dirs in ([fail, huge], [fail] + [zero] * (PSD_BLOCK - 1) + [huge]):
            report = check_psd_c(neg, dirs)
            assert report.witness == Witness(-4.0, direction=(1.0, 1.0))
        for dirs in ([huge, fail], [zero] * PSD_BLOCK + [huge, fail]):
            with pytest.raises(NonFiniteValue, match="overflowed at direction"):
                check_psd_c(neg, dirs)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_first_failure_wins_over_a_later_overflow_across_a_grown_block(self, golden_eps, monkeypatch):
        # The negated golden tensor on coordinates 1-2 and the golden one on
        # 3-4: e_3 + e_4 passes and e_1 + e_2 fails, both two rows wide, so a
        # block of sparse directions that holds either grows to
        # PSD_BLOCK n^2 / 2^2 directions. A failure or an overflow is the last
        # direction of that block, and the other one the first after it.
        n = 4
        values = np.zeros((n,) * 4)
        values[:2, :2, :2, :2], values[2:, 2:, 2:, 2:] = -golden_eps.values, golden_eps.values
        t, e = Tensor4(n, values), np.eye(n)
        good, fail, huge, zero = e[2] + e[3], e[0] + e[1], 1e200 * e[0], np.zeros(n)
        grown = PSD_BLOCK * n * n // 4
        judged, judge = [], tensor_module._judge
        monkeypatch.setattr(tensor_module, "_judge", lambda M, b, s: judged.append(M.shape) or judge(M, b, s))
        lead = [good] + [zero] * (grown - 2)
        report = check_psd_c(t, lead + [fail, huge, good])
        assert judged == [(grown, 2, 2)]
        assert report.witness.direction == tuple(fail)
        assert report.witness.residual == check_psd_c(t, [fail]).witness.residual < 0.0
        judged.clear()
        with pytest.raises(NonFiniteValue, match=f"overflowed at direction #{grown}; "):
            check_psd_c(t, lead + [huge, fail, good])
        assert judged == [(grown, 2, 2)]

    def test_asymmetry_detected(self):
        # A skew, B not proportional: M(y) Gram-like product is asymmetric.
        A = np.zeros((4, 4))
        A[0, 1], A[1, 0] = 1.0, -1.0
        A[2, 3], A[3, 2] = 1.0, -1.0
        B = A.copy()
        B[2, 3], B[3, 2] = 2.0, -2.0
        t = product_tensor(BracketMatrix(A), BracketMatrix(B))
        report = check_psd_c(t, default_directions(4))
        assert not report.passed
        assert report.witness.residual > 0.0  # asymmetry defect, not eigenvalue

    def test_array_and_equal_list_give_the_same_report(self, golden_eps):
        rng = np.random.default_rng(5)
        late = Tensor4.from_entries(3, {(3, 3, 3, 3): -1.0, (1, 2, 1, 2): 0.5})
        dense = Tensor4(3, rng.standard_normal((3, 3, 3, 3)))
        cases = [golden_eps, Tensor4(2, -golden_eps.values), late, dense]
        for t in cases:
            dirs = default_directions(t.n)
            assert isinstance(dirs, np.ndarray) and dirs.shape == (t.n * t.n + 64, t.n)
            report = check_psd_c(t, dirs)
            assert report == check_psd_c(t, list(dirs))
            assert report == check_psd_c(t, dirs.tolist())
        assert check_psd_c(late, default_directions(3)).witness.direction == (0.0, 0.0, 1.0)

    def test_array_inputs_keep_the_list_errors(self, golden_eps):
        with pytest.raises(EmptyDirectionSet):
            check_psd_c(golden_eps, np.empty((0, 2)))
        with pytest.raises(DimensionMismatch, match=r"shape \(3,\), expected \(2,\)"):
            check_psd_c(golden_eps, np.ones((4, 3)))
        for value in (np.nan, np.inf):
            with pytest.raises(NonFiniteValue):
                check_psd_c(golden_eps, np.array([[1.0, 0.0], [1.0, value]]))


class TestPsdBlockedScan:
    """The scan works in blocks of PSD_BLOCK directions; the witness must
    still be the first failing direction in list order."""

    # M(y) = [[-y2^2, 0], [0, 0]]: (c, 0) passes, (c, 1) fails with -1.
    NEG = Tensor4.from_entries(2, {(1, 1, 2, 2): -1.0})
    # M(y) = [[-y2^2, y1^2], [0, 0]]: (c, 0) with c != 0 is asymmetric.
    ASYM = Tensor4.from_entries(2, {(1, 1, 2, 2): -1.0, (1, 2, 1, 1): 1.0})

    @staticmethod
    def directions(length, bad_from):
        # Distinct directions, so a witness identifies its position.
        return [np.array([float(p), 1.0 if p >= bad_from else 0.0]) for p in range(length)]

    @pytest.mark.parametrize(
        "position", [0, PSD_BLOCK - 1, PSD_BLOCK, PSD_BLOCK + 1, 3 * PSD_BLOCK - 2]
    )
    def test_first_failure_reported_at_its_position(self, position):
        dirs = self.directions(3 * PSD_BLOCK - 1, position)
        report = check_psd_c(self.NEG, dirs)
        assert not report.passed
        assert report.witness.direction == (float(position), 1.0)
        assert report.witness.residual == -1.0

    def test_pass_scans_every_block(self):
        dirs = self.directions(3 * PSD_BLOCK - 1, 3 * PSD_BLOCK)
        assert check_psd_c(self.NEG, dirs).passed

    def test_asymmetry_across_a_boundary_wins_over_later_eigenvalue(self):
        dirs = [np.array([0.0, 0.0])] * PSD_BLOCK
        dirs += [np.array([0.0, 2.0]), np.array([3.0, 0.0])]
        report = check_psd_c(self.ASYM, dirs)
        assert report.witness.direction == (0.0, 2.0)
        assert report.witness.residual == -4.0
        swapped = dirs[:PSD_BLOCK] + [dirs[PSD_BLOCK + 1], dirs[PSD_BLOCK]]
        report = check_psd_c(self.ASYM, swapped)
        assert report.witness.direction == (3.0, 0.0)
        assert report.witness.residual == 9.0  # the asymmetry, not an eigenvalue

    def test_bounds_scale_with_largest_entry_of_m(self, golden_eps):
        # M(e_1) = diag(0, 2e6) plus an asymmetry and a negative entry of
        # 1e-6, which sit below tol * max|M| = 2e-4 but above tol itself.
        nudge = Tensor4.from_entries(2, {(1, 2, 1, 1): 1e-6, (1, 1, 1, 1): -1e-6})
        t = Tensor4(2, 1e6 * golden_eps.values + nudge.values)
        assert check_psd_c(t, [np.array([1.0, 0.0])]).passed
        assert not check_psd_c(t, [np.array([1.0, 0.0])], tol=1e-13).passed

    @pytest.mark.parametrize(
        "bad", [np.array([1.0, 0.0, 0.0]), np.array([1.0]), np.array([[1.0, 0.0]])]
    )
    def test_wrong_shape_direction(self, golden_eps, bad):
        with pytest.raises(DimensionMismatch):
            check_psd_c(golden_eps, [np.array([1.0, 0.0]), bad])
        with pytest.raises(DimensionMismatch, match="direction has shape"):
            contract_directions(golden_eps, bad)

    def test_ragged_directions_name_the_first_wrong_shape(self, golden_eps):
        with pytest.raises(DimensionMismatch, match=r"shape \(1,\), expected \(2,\)"):
            check_psd_c(golden_eps, [[1.0], [1.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(DimensionMismatch, match=r"shape \(1, 2\), expected \(2,\)"):
            check_psd_c(golden_eps, [[1.0, 0.0], [[1.0, 0.0]]])
        with pytest.raises(ValueError, match="could not convert"):  # not a shape fault
            check_psd_c(golden_eps, [[1.0, 0.0], ["a", 0.0]])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_direction(self, golden_eps, value):
        with pytest.raises(NonFiniteValue):
            check_psd_c(golden_eps, [np.array([1.0, value])])

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_overflowing_contraction(self, golden_eps):
        with pytest.raises(NonFiniteValue):
            check_psd_c(golden_eps, [np.array([1e200, 1e200])])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_in_symmetric_part_is_not_a_pass(self):
        # M(y) = diag(-1.44e308, 0) is finite but M + M^T is not; eigvalsh
        # returns NaN for it, and NaN fails no comparison
        t = Tensor4.from_entries(2, {(1, 1, 1, 1): -1.0, (2, 2, 2, 2): -1.0})
        with pytest.raises(NonFiniteValue):
            check_psd_c(t, [np.array([1.2e154, 0.0])])


class TestNonFiniteTolerance:
    CHECKS = [check_sym_a, check_cyclic_b, check_raw_iii, check_quasi_poisson]

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__)
    def test_index_checks_reject(self, check, tol):
        t = Tensor4(2, np.random.default_rng(0).standard_normal((2, 2, 2, 2)))
        with pytest.raises(NonFiniteValue):
            check(t, tol)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf])
    def test_psd_check_rejects(self, tol):
        t = Tensor4(2, -np.ones((2, 2, 2, 2)))
        with pytest.raises(NonFiniteValue):
            check_psd_c(t, default_directions(2), tol)

    def test_negative_tolerance_still_negative_coefficient(self, golden_eps):
        with pytest.raises(NegativeCoefficient):
            check_sym_a(golden_eps, -1.0)

    @pytest.mark.parametrize("tol", [1.0, 2.0, 1e300])
    @pytest.mark.parametrize("check", CHECKS + [check_psd_c, split_tensor], ids=lambda c: c.__name__)
    def test_tolerance_of_one_or_more_rejected(self, check, tol):
        # Relative to max|t|, such a tolerance would pass residuals as large
        # as the tensor itself.
        t = Tensor4(2, np.random.default_rng(0).standard_normal((2, 2, 2, 2)))
        args = (t, default_directions(2), tol) if check is check_psd_c else (t, tol)
        with pytest.raises(ToleranceTooLarge):
            check(*args)
        assert check(*args[:-1], 0.5) is not None


class TestQuasiPoisson:
    def test_zero_passes(self):
        assert check_quasi_poisson(Tensor4.zeros(3)).passed

    def test_skew_times_delta_passes(self, j_std):
        n = 2
        t = np.zeros((n, n, n, n))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        t[i, j, k, l] = j_std.array[i, l] * (1.0 if j == k else 0.0)
        report = check_quasi_poisson(Tensor4(n, t))
        assert report.passed
        # exhaustive loop confirming the antisymmetry identity
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        assert t[i, j, k, l] == -t[l, j, k, i]

    def test_golden_tensor_fails_with_pinned_witness(self, golden_eps):
        report = check_quasi_poisson(golden_eps)
        assert not report.passed
        assert report.witness.index == (1, 1, 2, 2)
        # entry 2 against -(-1) = 1
        assert report.witness.residual == pytest.approx(1.0)


class TestEvaluate:
    def test_zero_tensor_evaluates_to_zero(self, x1, x2, x1_plus_x2):
        z = Tensor4.zeros(2)
        assert evaluate_e(z, x1, x2, x1_plus_x2, x1, np.array([0.3, -0.8])) == 0.0

    def test_raw_product_matches_hand_value(self, e_j, x1, x2, x1_plus_x2):
        # contraction pairs (f,h) through the first factor and (s,q) through
        # the second: {x1,h} * {x2,h} = 1 * (-1)
        value = evaluate_e(e_j, x1, x2, x1_plus_x2, x1_plus_x2, np.array([0.7, 0.1]))
        assert value == pytest.approx(-1.0)

    def test_golden_tensor_three_argument_value(self, golden_eps, x1, x2, x1_plus_x2):
        value = evaluate_E(golden_eps, x1, x2, x1_plus_x2, np.array([-2.0, 5.0]))
        assert value == pytest.approx(-2.0)

    def test_annihilation_when_repeated(self, golden_eps):
        rng = np.random.default_rng(5)
        for _ in range(25):
            h = random_polynomial(rng, 2)
            s = random_polynomial(rng, 2)
            x = rng.uniform(-1.0, 1.0, size=2)
            value = evaluate_e(golden_eps, h, s, h, h, x)
            dh = np.linalg.norm(h.grad(x))
            ds = np.linalg.norm(s.grad(x))
            scale = (1.0 + golden_eps.max_abs()) * (1.0 + dh**3 * ds)
            assert abs(value) <= 1e-10 * scale

    def test_dimension_mismatch(self, golden_eps):
        f3 = PolynomialField.coordinate(3, 1)
        f2 = PolynomialField.coordinate(2, 1)
        with pytest.raises(DimensionMismatch):
            evaluate_e(golden_eps, f3, f2, f2, f2, np.array([0.0, 0.0]))
        with pytest.raises(DimensionMismatch, match="point has shape"):
            evaluate_e(golden_eps, f2, f2, f2, f2, np.array([0.0, 0.0, 0.0]))


class TestLinearCombine:
    def test_zero_coefficient_returns_second(self, golden_eps, e_j):
        assert linear_combine(0.0, e_j, golden_eps) == golden_eps

    def test_doubling_keeps_all_checks(self, golden_eps):
        doubled = linear_combine(1.0, golden_eps, golden_eps)
        assert doubled == Tensor4(2, 2.0 * golden_eps.values)
        assert check_sym_a(doubled).passed
        assert check_raw_iii(doubled).passed
        assert check_psd_c(doubled, default_directions(2)).passed

    def test_negative_coefficient_rejected(self, golden_eps):
        with pytest.raises(NegativeCoefficient):
            linear_combine(-0.5, golden_eps, golden_eps)

    def test_dimension_mismatch(self, golden_eps):
        with pytest.raises(DimensionMismatch):
            linear_combine(1.0, golden_eps, Tensor4.zeros(3))

    def test_cone_closure_random(self):
        rng = np.random.default_rng(77)
        for n in (2, 3):
            tensors = random_cons_irrev(int(rng.integers(0, 10_000)), n, 6)
            dirs = default_directions(n)
            for _ in range(10):
                a, b = rng.integers(0, len(tensors), size=2)
                lam = float(rng.uniform(0.0, 4.0))
                combo = linear_combine(lam, tensors[a], tensors[b])
                assert check_sym_a(combo).passed
                assert check_raw_iii(combo).passed
                assert check_cyclic_b(combo).passed
                assert check_psd_c(combo, dirs).passed


class TestInvariantOracles:
    """Contract properties tying the checkers to contracted evaluations."""

    def test_step4_equivalence_on_symmetric_tensors(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 4, 5):
            # generic symmetric tensors (fail both) and exact members (pass both)
            cases = [
                symmetrize_34(Tensor4(n, rng.standard_normal((n, n, n, n))))
                for _ in range(10)
            ]
            cases += random_cons_irrev(1000 + n, n, 10)
            for t in cases:
                assert check_sym_a(t).passed
                b = check_cyclic_b(t).passed
                iii = check_raw_iii(t).passed
                assert b == iii

    def test_annihilation_oracle(self):
        rng = np.random.default_rng(21)
        # symmetric members and raw (unsymmetrized) products both satisfy
        # the annihilation identities
        cases = list(random_cons_irrev(99, 3, 5))
        for _ in range(5):
            J = random_skew(rng, 3)
            cases.append(product_tensor(J, BracketMatrix(float(rng.uniform(0.1, 3.0)) * J.array)))
        for t in cases:
            assert check_raw_iii(t).passed
            for _ in range(20):
                h = random_polynomial(rng, 3)
                s = random_polynomial(rng, 3)
                x = rng.uniform(-1.0, 1.0, size=3)
                value = evaluate_e(t, h, s, h, h, x)
                dh = np.linalg.norm(h.grad(x))
                ds = np.linalg.norm(s.grad(x))
                scale = (1.0 + t.max_abs()) * (1.0 + dh**3 * ds)
                assert abs(value) <= 1e-10 * scale

    def test_symmetry_oracle(self):
        rng = np.random.default_rng(22)
        for t in random_cons_irrev(55, 2, 5):
            assert check_sym_a(t).passed
            for _ in range(10):
                fields = [random_polynomial(rng, 2) for _ in range(4)]
                x = rng.uniform(-1.0, 1.0, size=2)
                f, s, h, q = fields
                left = evaluate_e(t, f, s, h, q, x)
                right = evaluate_e(t, f, s, q, h, x)
                assert left == pytest.approx(right, rel=1e-12, abs=1e-12)

    def test_psd_oracle(self):
        rng = np.random.default_rng(23)
        for t in random_cons_irrev(66, 3, 5):
            assert check_psd_c(t, default_directions(3)).passed
            for _ in range(10):
                f = random_polynomial(rng, 3)
                h = random_polynomial(rng, 3)
                x = rng.uniform(-1.0, 1.0, size=3)
                value = evaluate_E(t, f, f, h, x)
                df = np.linalg.norm(f.grad(x))
                dh = np.linalg.norm(h.grad(x))
                scale = (1.0 + t.max_abs()) * (1.0 + df**2 * dh**2)
                assert value >= -1e-10 * scale


def test_failed_reports_carry_verifiable_witnesses():
    """Whenever a checker fails, the witness recomputes to a violation."""
    rng = np.random.default_rng(88)
    checks = {
        "SYM_A": (check_sym_a, lambda v, i, j, k, l: abs(v[i, j, k, l] - v[i, j, l, k])),
        "CYCLIC_B": (
            check_cyclic_b,
            lambda v, i, j, k, l: abs(v[i, j, k, l] + v[k, j, l, i] + v[l, j, i, k]),
        ),
        "QUASI_POISSON": (
            check_quasi_poisson,
            lambda v, i, j, k, l: abs(v[i, j, k, l] + v[l, j, k, i]),
        ),
    }
    for trial in range(30):
        n = int(rng.integers(2, 5))
        t = Tensor4(n, rng.standard_normal((n, n, n, n)))
        for name, (checker, recompute) in checks.items():
            report = checker(t)
            if report.passed:
                continue
            assert report.witness is not None, name
            i, j, k, l = (v - 1 for v in report.witness.index)
            measured = recompute(t.values, i, j, k, l)
            assert measured == pytest.approx(report.witness.residual)
            assert measured > report.tolerance


def test_default_directions_deterministic():
    a = default_directions(3)
    b = default_directions(3)
    assert len(a) == len(b) == 3 + 6 + 64
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = default_directions(3, seed=1234)
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_golden_tensor_table_is_complete(golden_eps):
    dense = np.zeros((2, 2, 2, 2))
    for (i, j, k, l), v in EPS_ENTRIES.items():
        dense[i - 1, j - 1, k - 1, l - 1] = v
    assert np.array_equal(golden_eps.values, dense)
