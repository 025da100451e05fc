import numpy as np
import pytest

from ciph import (
    BracketMatrix,
    CallableField,
    DimensionMismatch,
    DimensionTooLarge,
    EmptyDirectionSet,
    IphsModel,
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
    fd_gradient,
    random_cons_irrev,
)
from ciph.dynamics import Constant
from ciph.fields import ExpSumField
from ciph.verify import (
    exhaustive_condition_check,
    exhaustive_psd_check,
    hidden_psd_violation,
    kulkarni_nomizu,
    kulkarni_nomizu_member,
)

from conftest import EPS_ENTRIES, assert_matches_reference


def primary_verdicts(t: Tensor4) -> dict:
    return {
        "SYM_A": check_sym_a(t).passed,
        "CYCLIC_B": check_cyclic_b(t).passed,
        "RAW_III": check_raw_iii(t).passed,
        "QUASI_POISSON": check_quasi_poisson(t).passed,
    }


class TestFdGradient:
    def test_quadratic(self):
        f = PolynomialField(2, [((2, 0), 1.0)])
        g = fd_gradient(f, [3.0, 0.0], step=1e-6)
        assert abs(g[0] - 6.0) <= 1e-6 * 6.0
        assert abs(g[1]) <= 1e-9

    def test_constant(self):
        f = PolynomialField.constant(3, 9.0)
        assert fd_gradient(f, [1.0, 2.0, 3.0]) == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("step", [0.0, -1e-6])
    def test_step_must_be_positive(self, step):
        with pytest.raises(NegativeCoefficient, match="step must be > 0"):
            fd_gradient(PolynomialField.constant(2, 1.0), [0.0, 0.0], step=step)

    def test_heat_exchanger_energy(self):
        H = ExpSumField(2)
        rng = np.random.default_rng(90)
        for _ in range(10):
            x = rng.uniform(-1.0, 1.0, size=2)
            fd = np.array(fd_gradient(H, x))
            exact = H.grad(x)
            assert np.max(np.abs(fd - exact)) <= 1e-6 * max(1.0, np.max(np.abs(exact)))


class TestExhaustiveCheck:
    def test_golden_tensor_agreement(self):
        t = Tensor4.from_entries(2, EPS_ENTRIES)
        assert exhaustive_condition_check(t).as_dict() == primary_verdicts(t)
        report = exhaustive_condition_check(t)
        assert report.sym_a and report.cyclic_b and report.raw_iii
        assert not report.quasi_poisson

    def test_zero_tensor_all_pass(self):
        report = exhaustive_condition_check(Tensor4.zeros(3))
        assert all(report.as_dict().values())

    def test_agreement_on_random_tensors(self):
        rng = np.random.default_rng(91)
        for _ in range(200):
            n = int(rng.integers(2, 4))
            t = Tensor4(n, rng.standard_normal((n, n, n, n)))
            assert exhaustive_condition_check(t).as_dict() == primary_verdicts(t)

    def test_agreement_on_passing_tensors(self):
        for n in (2, 3, 4, 5):
            for t in random_cons_irrev(500 + n, n, 20):
                assert exhaustive_condition_check(t).as_dict() == primary_verdicts(t)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_agreement_on_kulkarni_nomizu_members(self, n):
        for seed, (indefinite, sparse) in enumerate([(False, False), (False, True), (True, False), (True, True)]):
            t, _ = kulkarni_nomizu_member(520 + 4 * n + seed, n, (2, n - 1), indefinite, sparse)
            verdicts = exhaustive_condition_check(t).as_dict()
            assert verdicts == primary_verdicts(t)
            assert verdicts["SYM_A"] and verdicts["CYCLIC_B"] and verdicts["RAW_III"]

    def test_dimension_limit(self):
        with pytest.raises(DimensionTooLarge):
            exhaustive_condition_check(Tensor4.zeros(6))

    @pytest.mark.parametrize("tol, error", [
        (float("inf"), NonFiniteValue),
        (float("nan"), NonFiniteValue),
        (-1.0, NegativeCoefficient),
        (1.0, ToleranceTooLarge),
        (1e300, ToleranceTooLarge),
    ])
    def test_tolerance_is_checked(self, tol, error):
        # An infinite tolerance, or a relative one of 1 or more, would pass
        # every verdict vacuously.
        t = Tensor4(2, np.random.default_rng(0).standard_normal((2, 2, 2, 2)))
        with pytest.raises(error):
            exhaustive_condition_check(t, tol)
        with pytest.raises(error):
            exhaustive_psd_check(t, default_directions(2), tol)

    def test_tolerance_is_relative(self):
        t = Tensor4(3, np.random.default_rng(1).standard_normal((3, 3, 3, 3)))
        # A cone member plus 1e-3 of t: each identity of the cone holds to
        # far below 0.5 times max|t| at every scale, and to no better than
        # 1e-10; a cone member is not quasi-Poisson.
        near = random_cons_irrev(1, 3, 1)[0].values + 1e-3 * t.values
        for c in (1e-200, 1.0, 1e200):
            scaled = Tensor4(3, c * t.values)
            assert exhaustive_condition_check(scaled).as_dict() == primary_verdicts(scaled)
            assert not any(exhaustive_condition_check(scaled).as_dict().values())
            assert not any(exhaustive_condition_check(Tensor4(3, c * near)).as_dict().values())
            assert exhaustive_condition_check(Tensor4(3, c * near), 0.5).as_dict() == {
                "SYM_A": True, "CYCLIC_B": True, "RAW_III": True, "QUASI_POISSON": False}


def assert_psd_agreement(t: Tensor4, dirs) -> bool:
    """Primary scan and loop oracle agree on verdict, witness direction and
    residual; returns the verdict."""
    primary = check_psd_c(t, dirs)
    oracle = exhaustive_psd_check(t, dirs)
    assert primary.passed == oracle.passed
    if primary.passed:
        assert oracle.direction is None and oracle.residual is None
    else:
        assert primary.witness.direction == oracle.direction
        assert abs(primary.witness.residual - oracle.residual) <= 1e-9
    return primary.passed


class TestExhaustivePsdCheck:
    def test_golden_tensor_and_its_negation(self, golden_eps):
        dirs = default_directions(2)
        assert assert_psd_agreement(golden_eps, dirs)
        assert not assert_psd_agreement(Tensor4(2, -golden_eps.values), dirs)
        report = exhaustive_psd_check(Tensor4(2, -golden_eps.values), dirs)
        assert report.direction == (1.0, 0.0)
        assert report.residual == pytest.approx(-2.0, abs=1e-12)

    @staticmethod
    def perturbations(v, rng):
        """The tensor, its negation, noise (asymmetric at once), and two
        bumps felt only by directions with a nonzero last coordinate: one
        negative definite along e_n, one asymmetric."""
        n = v.shape[0]
        e = np.eye(n)
        return (
            v,
            -v,
            v + 1e-3 * rng.standard_normal(v.shape),
            v - 0.5 * np.einsum("i,j,k,l->ijkl", e[-1], e[-1], e[-1], e[-1]),
            v + 1e-3 * np.einsum("i,j,k,l->ijkl", e[0], e[1], e[-1], e[-1]),
        )

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_agreement_on_passing_negated_and_perturbed(self, n):
        rng = np.random.default_rng(700 + n)
        dirs = default_directions(n)
        e_n = tuple(np.eye(n)[-1])  # first standard direction the bumps act on
        for t in random_cons_irrev(800 + n, n, 4, gamma_max=3.0):
            values = self.perturbations(t.values, rng)
            verdicts = [assert_psd_agreement(Tensor4(n, v), dirs) for v in values]
            assert verdicts == [True, False, False, False, False]
            for bumped in values[3:]:
                assert check_psd_c(Tensor4(n, bumped), dirs).witness.direction == e_n

    def test_agreement_across_blocks_of_directions(self):
        # 100 directions the bumps cannot see, then 50 they can: the first
        # failure sits in the second block of the primary scan.
        rng = np.random.default_rng(9)
        dirs = rng.standard_normal((150, 3))
        dirs[:100, -1] = 0.0
        dirs = list(dirs)
        for t in random_cons_irrev(10, 3, 3):
            values = self.perturbations(t.values, rng)
            assert assert_psd_agreement(Tensor4(3, values[0]), dirs)
            for bumped in values[3:]:
                assert not assert_psd_agreement(Tensor4(3, bumped), dirs)
                report = exhaustive_psd_check(Tensor4(3, bumped), dirs)
                assert report.direction == tuple(dirs[100])

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_agreement_on_kulkarni_nomizu_members(self, n):
        dirs = default_directions(n)
        for seed, (indefinite, sparse) in enumerate([(False, False), (False, True), (True, False), (True, True)]):
            t, _ = kulkarni_nomizu_member(540 + 4 * n + seed, n, (2, n - 1), indefinite, sparse)
            assert assert_psd_agreement(t, dirs) or indefinite

    def test_input_validation(self, golden_eps):
        with pytest.raises(EmptyDirectionSet):
            exhaustive_psd_check(golden_eps, [])
        with pytest.raises(DimensionMismatch):
            exhaustive_psd_check(golden_eps, [[1.0, 0.0, 0.0]])
        with pytest.raises(NonFiniteValue):
            exhaustive_psd_check(golden_eps, [[1.0, 0.0]], float("nan"))
        with pytest.raises(DimensionTooLarge):
            exhaustive_psd_check(Tensor4.zeros(6), default_directions(6))

    def test_overflow_raises_like_the_primary_scan(self, golden_eps):
        # the first direction passes; M(y) overflows at the second
        dirs = [[1.0, 0.0], [1e160, 0.0]]
        with pytest.raises(NonFiniteValue, match="direction #2"):
            check_psd_c(golden_eps, dirs)
        with pytest.raises(NonFiniteValue, match="direction #2"):
            exhaustive_psd_check(golden_eps, dirs)


class TestLoopTrajectory:
    def test_callable_fields_match_integrate(self):
        # neither polynomial nor exponential: the reference calls the fields'
        # own ndarray methods, integrate their list forms
        H = CallableField(2, lambda x: 0.5 * float(x @ x), lambda x: x.copy())
        S = CallableField(2, lambda x: float(np.sin(x[0]) + x[1]), lambda x: np.array([np.cos(x[0]), 1.0]))
        model = IphsModel(2, H, S, BracketMatrix.standard_skew(), PolynomialField.constant(2, 0.5),
                          W=Constant([0.1, -0.2]))
        tr = assert_matches_reference(model, [1.0, 0.5], t_end=0.05, dt=1e-2)
        assert tr.fault is None and len(tr) == 6


class TestRandomConsIrrev:
    def test_pinned_construction_reproduces_golden_tensor(self, j_std):
        # forcing the generator's inputs: gamma = 2, J standard
        from ciph import product_tensor, symmetrize_34

        base = symmetrize_34(product_tensor(j_std, j_std))
        forced = Tensor4(2, 2.0 * base.values)
        assert forced == Tensor4.from_entries(2, EPS_ENTRIES)

    def test_every_output_passes_all_conditions(self):
        for n in (2, 3):
            dirs = default_directions(n)
            for t in random_cons_irrev(7, n, 10):
                assert check_sym_a(t).passed
                assert check_cyclic_b(t).passed
                assert check_raw_iii(t).passed
                assert check_psd_c(t, dirs).passed

    @pytest.mark.parametrize("n", [0, 1])
    def test_needs_a_nonzero_skew_matrix(self, n):
        with pytest.raises(DimensionTooLarge, match="need n >= 2"):
            random_cons_irrev(0, n, 1)

    def test_deterministic_for_fixed_seed(self):
        a = random_cons_irrev(123, 3, 5)
        b = random_cons_irrev(123, 3, 5)
        assert all(x == y for x, y in zip(a, b))

    def test_zero_gamma_gives_zero_tensor(self, j_std):
        from ciph import product_tensor, symmetrize_34

        base = symmetrize_34(product_tensor(j_std, j_std))
        assert Tensor4(2, 0.0 * base.values) == Tensor4.zeros(2)


class TestKulkarniNomizu:
    def test_product_of_sums_of_squares_is_the_sum_of_wedge_terms(self):
        # sigma = sum_p a_p a_p^T, mu = sum_q b_q b_q^T: R[i,k,j,l] = sum K (x) K, K = a_p ^ b_q.
        rng = np.random.default_rng(10)
        for n, r1, r2 in ((2, 1, 1), (4, 2, 3), (6, 3, 2), (8, 4, 4)):
            a, b = rng.standard_normal((r1, n)), rng.standard_normal((r2, n))
            R = kulkarni_nomizu(a.T @ a, b.T @ b)
            terms = [np.outer(p, q) - np.outer(q, p) for p in a for q in b]
            want = sum(np.einsum("ik,jl->ijkl", K, K) for K in terms)
            assert np.abs(R.transpose(0, 2, 1, 3) - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("indefinite", [False, True])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_member_is_its_known_terms_symmetrized(self, indefinite, sparse):
        for n, ranks in ((3, (1, 2)), (5, (2, 3)), (8, (3, 2))):
            t, terms = kulkarni_nomizu_member(60 + n, n, ranks, indefinite, sparse)
            assert len(terms) == ranks[0] * (ranks[1] + indefinite)
            weights = sorted(w for w, _ in terms)
            assert (weights[0] < 0.0) == indefinite and weights[-1] == 1.0
            raw = sum(w * np.einsum("ik,jl->ijkl", K, K) for w, K in terms)
            want = 0.5 * (raw + raw.transpose(0, 1, 3, 2))
            assert np.abs(t.values - want).max() <= 1e-14 * t.max_abs()
            if sparse:  # a_p ^ b_q with two nonzero coordinates each
                assert all(np.count_nonzero(K) <= 8 for w, K in terms if w == 1.0)
            assert check_sym_a(t).passed and check_cyclic_b(t).passed and check_raw_iii(t).passed

    def test_positive_members_pass_and_the_scan_refutes_indefinite_ones(self):
        # Both n = 4, seed 2 members pass: the dense one is a hidden violation
        # (lambda_min(M(y)) reaches about -1.9e-3 off the standard directions),
        # while the sparse one reaches only -3e-15 over 20000 random directions.
        for n in (4, 8, 16):
            for seed in range(3):
                for sparse in (False, True):
                    t, _ = kulkarni_nomizu_member(seed, n, (2, 2), sparse=sparse)
                    assert check_psd_c(t, default_directions(n)).passed
                    t, _ = kulkarni_nomizu_member(seed, n, (2, 2), indefinite=True, sparse=sparse)
                    report = check_psd_c(t, default_directions(n))
                    assert report.passed if (n, seed) == (4, 2) else report.witness.residual < 0.0


class TestHiddenPsdViolation:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    @pytest.mark.parametrize("eps", [1e-3, 1e-2])
    def test_linear_conditions_pass_and_u_refutes(self, n, eps):
        for seed in range(3):
            t, u = hidden_psd_violation(seed, n, eps)
            assert np.dot(u, u) == pytest.approx(1.0, rel=1e-15)
            assert check_sym_a(t).passed and check_cyclic_b(t).passed
            report = check_psd_c(t, [u])
            assert not report.passed
            assert report.witness.residual == pytest.approx(-eps / 2.0, rel=1e-9)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_oracle_rederives_the_failure(self, n):
        for seed in range(3):
            t, u = hidden_psd_violation(seed, n, 1e-3)
            report = exhaustive_psd_check(t, [u])
            assert not report.passed
            assert report.direction == tuple(u)
            assert report.residual == pytest.approx(-5e-4, rel=1e-9)

    def test_deterministic_and_validated(self):
        t, u = hidden_psd_violation(7, 4)
        again, u_again = hidden_psd_violation(7, 4)
        assert t == again and np.array_equal(u, u_again)
        with pytest.raises(DimensionTooLarge):
            hidden_psd_violation(0, 1)
        with pytest.raises(NegativeCoefficient):
            hidden_psd_violation(0, 3, 0.0)
