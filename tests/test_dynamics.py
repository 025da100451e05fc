import numpy as np
import pytest

from ciph import (
    BracketMatrix,
    DimensionMismatch,
    IphsModel,
    NonFiniteValue,
    NonpositiveGamma,
    PolynomialField,
    TrajectoryTooShort,
    audit_balances,
    drift_rhs,
    full_rhs,
    heat_exchanger_model,
    integrate,
    observable_rate,
    quadratic_linear_model,
)
from ciph.dynamics import builtin_model, input_power
from ciph.verify import random_polynomial, random_skew


def constant_gamma(n: int, c: float = 1.0) -> PolynomialField:
    return PolynomialField.constant(n, c)


def random_model(rng: np.random.Generator, n: int) -> IphsModel:
    return IphsModel(
        n,
        H=random_polynomial(rng, n),
        S=random_polynomial(rng, n),
        J=random_skew(rng, n),
        gamma=constant_gamma(n, float(rng.uniform(0.2, 3.0))),
    )


class TestDriftRhs:
    def test_hand_value(self):
        model = quadratic_linear_model()
        assert np.allclose(drift_rhs(model, [1.0, 0.0]), [0.0, 1.0])

    def test_critical_point_of_H_is_stationary(self):
        model = quadratic_linear_model()
        assert np.array_equal(drift_rhs(model, [0.0, 0.0]), [0.0, 0.0])

    def test_entropy_equal_energy_kills_drift(self):
        H = PolynomialField(2, [((2, 0), 0.5), ((0, 2), 0.5)])
        model = IphsModel(2, H, H, BracketMatrix.standard_skew(), constant_gamma(2))
        x = np.array([0.7, -0.3])
        assert np.max(np.abs(drift_rhs(model, x))) <= 1e-15

    def test_nonpositive_gamma_raises(self):
        model = IphsModel(
            2,
            PolynomialField(2, [((2, 0), 0.5), ((0, 2), 0.5)]),
            PolynomialField(2, [((1, 0), 1.0)]),
            BracketMatrix.standard_skew(),
            PolynomialField.coordinate(2, 1),  # gamma = x1
        )
        with pytest.raises(NonpositiveGamma):
            drift_rhs(model, [-1.0, 0.5])

    def test_energy_invariance_of_drift(self):
        rng = np.random.default_rng(70)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            model = random_model(rng, n)
            x = rng.uniform(-1.0, 1.0, size=n)
            dH = model.H.grad(x)
            rate = float(dH @ drift_rhs(model, x))
            scale = max(1.0, float(np.linalg.norm(dH)) ** 2)
            assert abs(rate) <= 1e-12 * scale

    def test_entropy_monotonicity_of_drift(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            model = random_model(rng, n)
            x = rng.uniform(-1.0, 1.0, size=n)
            dS = model.S.grad(x)
            dH = model.H.grad(x)
            rate = float(dS @ drift_rhs(model, x))
            gamma = model.gamma.value(x)
            bracket = float(dS @ (model.J.array @ dH))
            assert rate == pytest.approx(gamma * bracket**2, rel=1e-12, abs=1e-12)
            assert rate >= -1e-12 * max(1.0, abs(rate))


class TestFullRhs:
    def test_reduces_to_drift_without_inputs(self):
        model = quadratic_linear_model()
        x = np.array([0.3, 0.9])
        assert np.array_equal(full_rhs(model, x, 0.0), drift_rhs(model, x))

    def test_drift_free_model_returns_w(self):
        w = np.array([0.5, -0.25])
        model = IphsModel(
            2,
            PolynomialField(2, [((2, 0), 0.5), ((0, 2), 0.5)]),
            PolynomialField(2, [((1, 0), 1.0), ((0, 1), 1.0)]),
            BracketMatrix.zeros(2),
            constant_gamma(2),
            W=lambda x, dH: w,
        )
        assert np.array_equal(full_rhs(model, [1.0, 2.0], 3.0), w)

    def test_forced_heat_exchanger_is_finite(self):
        base = heat_exchanger_model()
        model = IphsModel(
            2,
            base.H,
            base.S,
            base.J,
            base.gamma,
            g=lambda x, dH: np.array([[1.0], [0.0]]),
            u=lambda t: np.array([0.05]),
        )
        value = full_rhs(model, [0.0, np.log(2.0)], 0.0)
        assert np.all(np.isfinite(value))

    def test_u_without_g_is_ignored(self):
        model = IphsModel(
            2,
            PolynomialField(2, [((2, 0), 0.5), ((0, 2), 0.5)]),
            PolynomialField(2, [((1, 0), 1.0)]),
            BracketMatrix.standard_skew(),
            constant_gamma(2),
            u=lambda t: np.array([1.0]),
        )
        x = np.array([0.4, -0.2])
        assert np.array_equal(full_rhs(model, x, 0.0), drift_rhs(model, x))

    def test_gu_dimension_mismatch(self):
        model = IphsModel(
            2,
            PolynomialField(2, [((2, 0), 0.5)]),
            PolynomialField(2, [((1, 0), 1.0)]),
            BracketMatrix.standard_skew(),
            constant_gamma(2),
            g=lambda x, dH: np.array([[1.0], [0.0]]),
            u=lambda t: np.array([1.0, 2.0]),
        )
        with pytest.raises(DimensionMismatch):
            full_rhs(model, [1.0, 0.0], 0.0)


class TestObservableRate:
    def test_energy_rate_is_zero(self):
        model = quadratic_linear_model()
        x = np.array([1.3, -0.4])
        assert observable_rate(model, model.H, x) == pytest.approx(0.0, abs=1e-14)

    def test_entropy_rate_is_nonnegative(self):
        model = quadratic_linear_model()
        rng = np.random.default_rng(72)
        for _ in range(20):
            x = rng.uniform(-2.0, 2.0, size=2)
            assert observable_rate(model, model.S, x) >= 0.0

    def test_coordinate_rate_at_pinned_point(self):
        model = quadratic_linear_model()
        x1 = PolynomialField.coordinate(2, 1)
        assert observable_rate(model, x1, [1.0, 0.0]) == pytest.approx(0.0, abs=1e-15)
        drift = drift_rhs(model, [1.0, 0.0])
        assert float(x1.grad([1.0, 0.0]) @ drift) == pytest.approx(0.0, abs=1e-15)

    def test_chain_rule_identity_random(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            model = random_model(rng, n)
            f = random_polynomial(rng, n)
            x = rng.uniform(-1.0, 1.0, size=n)
            rate = observable_rate(model, f, x)
            drift = drift_rhs(model, x)
            direct = float(f.grad(x) @ drift)
            scale = max(1.0, float(np.linalg.norm(f.grad(x)) * np.linalg.norm(drift)))
            assert abs(rate - direct) <= 1e-12 * scale


class TestIntegrate:
    def test_energy_conservation_and_entropy_monotonicity(self):
        model = quadratic_linear_model()
        tr = integrate(model, [1.0, 0.0], t_end=10.0, dt=1e-3)
        assert tr.fault is None
        assert len(tr) == 10_001
        H0 = tr.H_values[0]
        assert np.max(np.abs(tr.H_values - H0)) <= 1e-8 * abs(H0)
        assert np.all(np.diff(tr.S_values) >= -1e-12)
        assert np.min(tr.sigma_int) >= 0.0

    def test_rk4_order_on_benchmark(self):
        # Step sizes where truncation error dominates rounding; the energy
        # drift then contracts by ~2^4 per halving.
        model = quadratic_linear_model()
        drifts = []
        for dt in (2e-2, 1e-2):
            tr = integrate(model, [1.0, 0.0], t_end=10.0, dt=dt)
            drifts.append(float(np.max(np.abs(tr.H_values - tr.H_values[0]))))
        ratio = drifts[0] / drifts[1]
        assert 12.0 <= ratio <= 20.0

    def test_critical_point_stays_put(self):
        model = quadratic_linear_model()
        tr = integrate(model, [0.0, 0.0], t_end=1.0, dt=1e-2)
        assert np.array_equal(tr.states[-1], [0.0, 0.0])

    def test_times_strictly_increasing(self):
        model = quadratic_linear_model()
        tr = integrate(model, [1.0, 0.0], t_end=0.05, dt=1e-3)
        assert np.all(np.diff(tr.times) > 0.0)

    def test_gamma_crossing_zero_flags_partial_trajectory(self):
        model = IphsModel(
            2,
            PolynomialField(2, [((2, 0), 0.5), ((0, 2), 0.5)]),
            PolynomialField(2, [((1, 0), 1.0), ((0, 1), 1.0)]),
            BracketMatrix.zeros(2),
            PolynomialField.coordinate(2, 1),  # gamma = x1, crosses zero
            W=lambda x, dH: np.array([-1.0, 0.0]),
        )
        tr = integrate(model, [0.5, 0.0], t_end=2.0, dt=1e-3)
        assert tr.fault == "NonpositiveGamma"
        assert tr.times[-1] < 0.55
        assert len(tr.times) == len(tr.states) == len(tr.H_values)

    def test_blowup_flags_nonfinite_state(self):
        model = IphsModel(
            2,
            PolynomialField(2, [((2, 0), 0.5)]),
            PolynomialField(2, [((1, 0), 1.0)]),
            BracketMatrix.zeros(2),
            constant_gamma(2),
            W=lambda x, dH: np.array([x[0] ** 2, 0.0]),
        )
        tr = integrate(model, [2.0, 0.0], t_end=5.0, dt=1e-2)
        assert tr.fault == "NonFiniteState"
        assert np.all(np.isfinite(tr.states))

    def test_invalid_steps_rejected(self):
        model = quadratic_linear_model()
        with pytest.raises(DimensionMismatch):
            integrate(model, [1.0, 0.0], t_end=1.0, dt=0.0)
        with pytest.raises(DimensionMismatch):
            integrate(model, [1.0, 0.0], t_end=-1.0, dt=0.1)


class TestAuditBalances:
    def test_autonomous_benchmark_closes(self):
        model = quadratic_linear_model()
        tr = integrate(model, [1.0, 0.0], t_end=10.0, dt=1e-3)
        report = audit_balances(model, tr)
        assert report.max_energy_defect <= 1e-6 * report.energy_scale
        assert report.max_entropy_defect <= 1e-6 * report.entropy_scale
        assert report.max_entropy_defect_alt == report.max_entropy_defect
        assert report.min_sigma_int >= 0.0

    def test_drift_free_model_matches_input_power(self):
        w = np.array([0.3, -0.2])
        model = IphsModel(
            2,
            PolynomialField(2, [((2, 0), 0.5), ((0, 2), 0.5)]),
            PolynomialField(2, [((1, 0), 1.0), ((0, 1), 1.0)]),
            BracketMatrix.zeros(2),
            constant_gamma(2),
            W=lambda x, dH: w,
        )
        tr = integrate(model, [1.0, 1.0], t_end=2.0, dt=1e-3)
        report = audit_balances(model, tr)
        assert report.max_energy_defect <= 1e-6 * report.energy_scale

    def test_zero_model_has_zero_defects(self):
        model = IphsModel(
            2,
            PolynomialField(2, [((2, 0), 0.5)]),
            PolynomialField(2, [((1, 0), 1.0)]),
            BracketMatrix.zeros(2),
            constant_gamma(2),
        )
        tr = integrate(model, [1.0, 1.0], t_end=0.1, dt=1e-3)
        report = audit_balances(model, tr)
        assert report.max_energy_defect == 0.0
        assert report.max_entropy_defect == 0.0
        assert report.min_sigma_int == 0.0

    def test_forced_run_closes_energy_and_alt_entropy(self):
        base = heat_exchanger_model()
        model = IphsModel(
            2,
            base.H,
            base.S,
            base.J,
            base.gamma,
            g=lambda x, dH: np.array([[1.0], [0.0]]),
            u=lambda t: np.array([0.05]),
        )
        tr = integrate(model, [0.0, np.log(2.0)], t_end=1.0, dt=5e-4)
        report = audit_balances(model, tr)
        assert report.max_energy_defect <= 1e-6 * report.energy_scale
        # the entropy balance closes in the dS^T (W + g u) variant; the
        # other form differs by (dH - dS)^T g u along the forced run
        assert report.max_entropy_defect_alt <= 1e-6 * report.entropy_scale
        assert report.max_entropy_defect > report.max_entropy_defect_alt

    def test_too_short_trajectory(self):
        model = quadratic_linear_model()
        tr = integrate(model, [1.0, 0.0], t_end=1e-3, dt=1e-3)
        with pytest.raises(TrajectoryTooShort):
            audit_balances(model, tr)


class TestBuiltins:
    def test_registry(self):
        assert builtin_model("quadratic-linear").name == "quadratic-linear"
        assert builtin_model("heat-exchanger", {"conductance": 2.0}).name == "heat-exchanger"
        from ciph import FormatError

        with pytest.raises(FormatError):
            builtin_model("perpetuum-mobile")

    def test_heat_exchanger_audits_close(self):
        model = heat_exchanger_model()
        tr = integrate(model, [0.0, np.log(2.0)], t_end=2.0, dt=5e-4)
        report = audit_balances(model, tr)
        assert report.max_energy_defect <= 1e-6 * report.energy_scale
        assert report.max_entropy_defect <= 1e-6 * report.entropy_scale
        assert report.min_sigma_int >= 0.0

    def test_heat_exchanger_temperatures_converge_monotonically(self):
        model = heat_exchanger_model()
        tr = integrate(model, [0.0, np.log(4.0)], t_end=2.0, dt=1e-3)
        T = np.exp(tr.states)
        gap = np.abs(T[:, 0] - T[:, 1])
        assert np.all(np.diff(gap) <= 1e-12)
        assert gap[-1] < 0.1 * gap[0]
        # hot side cools, cold side warms, no overshoot
        assert np.all(np.diff(T[:, 1]) <= 1e-12)
        assert np.all(np.diff(T[:, 0]) >= -1e-12)

    def test_heat_exchanger_equilibrium_is_constant(self):
        model = heat_exchanger_model()
        tr = integrate(model, [0.3, 0.3], t_end=1.0, dt=1e-2)
        assert np.array_equal(tr.states[0], tr.states[-1])

    def test_conductance_must_be_positive(self):
        from ciph import NegativeCoefficient

        with pytest.raises(NegativeCoefficient):
            heat_exchanger_model(conductance=0.0)

    def test_model_requires_skew_j(self):
        with pytest.raises(DimensionMismatch):
            IphsModel(
                2,
                PolynomialField(2, [((2, 0), 0.5)]),
                PolynomialField(2, [((1, 0), 1.0)]),
                BracketMatrix(np.eye(2)),
                constant_gamma(2),
            )


def test_input_power_zero_without_inputs():
    model = quadratic_linear_model()
    tr = integrate(model, [1.0, 0.0], t_end=0.01, dt=1e-3)
    p, q = input_power(model, tr)
    assert np.array_equal(p, np.zeros(len(tr)))
    assert np.array_equal(q, np.zeros(len(tr)))


class CountingField:
    """Wraps a field and counts its gradient calls."""

    def __init__(self, field):
        self.field = field
        self.n = field.n
        self.grads = 0

    def value(self, x):
        return self.field.value(x)

    def grad(self, x):
        self.grads += 1
        return self.field.grad(x)


def forced_model(H=None, S=None) -> IphsModel:
    base = quadratic_linear_model()
    return IphsModel(
        2,
        H or base.H,
        S or PolynomialField(2, [((1, 0), 1.0), ((0, 1), 0.5), ((2, 1), 0.25)]),
        base.J,
        base.gamma,
        W=lambda x, dH: np.array([0.1 * x[1], -0.1]),
        g=lambda x, dH: np.array([[1.0], [0.5]]),
        u=lambda t: np.array([0.5 if t < 0.01 else -0.25]),
    )


class TestDriftKernel:
    @pytest.mark.parametrize("forced", [False, True])
    def test_eight_gradient_calls_per_step(self, forced):
        base = quadratic_linear_model()
        H, S = CountingField(base.H), CountingField(base.S)
        model = forced_model(H, S) if forced else IphsModel(2, H, S, base.J, base.gamma)
        for steps in (1, 10, 25):
            H.grads = S.grads = 0
            tr = integrate(model, [1.0, 0.5], t_end=steps * 1e-3, dt=1e-3)
            assert len(tr) == steps + 1
            # one gradient of H and one of S at the initial sample, then
            # k2-k4 plus the accepted sample (which supplies the next k1)
            assert H.grads + S.grads == 2 + 8 * steps
            assert H.grads == S.grads

    @pytest.mark.parametrize("forced", [False, True])
    def test_reused_k1_matches_plain_rk4_bit_for_bit(self, forced):
        model = forced_model() if forced else quadratic_linear_model()
        dt, steps = 2e-3, 50
        tr = integrate(model, [0.8, -0.3], t_end=dt * steps, dt=dt)
        x = np.array([0.8, -0.3])
        for k in range(steps):
            t = k * dt
            k1 = full_rhs(model, x, t)
            k2 = full_rhs(model, x + 0.5 * dt * k1, t + 0.5 * dt)
            k3 = full_rhs(model, x + 0.5 * dt * k2, t + 0.5 * dt)
            k4 = full_rhs(model, x + dt * k3, t + dt)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            assert tr.states[k + 1].tolist() == x.tolist()

    def test_recorded_input_power_matches_fresh_recomputation(self):
        model = forced_model()
        tr = integrate(model, [0.7, 0.2], t_end=0.03, dt=1e-3)
        p, q = input_power(model, tr)
        assert p is tr.p and q is tr.q
        for k, (x, t) in enumerate(zip(tr.states, tr.times)):
            dH, dS = model.H.grad(x), model.S.grad(x)
            inp = model.input_term(x, dH, float(t))
            assert p[k] == float(dH @ inp)
            assert q[k] == float(dS @ inp)
            bracket = float(dS @ (model.J.array @ dH))
            assert tr.sigma_int[k] == model.gamma_at(x) * bracket * bracket
        assert len(set(p.tolist())) > 1  # the schedule switches at t = 0.01

    def test_fault_at_start_records_zero_rates(self):
        model = IphsModel(
            2,
            PolynomialField(2, [((2, 0), 0.5)]),
            PolynomialField(2, [((1, 0), 1.0)]),
            BracketMatrix.standard_skew(),
            PolynomialField.coordinate(2, 1),
            W=lambda x, dH: np.array([1.0, 0.0]),
        )
        tr = integrate(model, [-1.0, 0.0], t_end=0.1, dt=1e-2)
        assert tr.fault == "NonpositiveGamma"
        assert len(tr) == 1
        assert (tr.H_values[0], tr.S_values[0]) == (0.5, -1.0)
        assert tr.sigma_int.tolist() == tr.p.tolist() == tr.q.tolist() == [0.0]

    @pytest.mark.parametrize(
        "t_end, dt",
        [(np.inf, 1e-3), (np.nan, 1e-3), (1.0, np.nan), (1.0, np.inf), (-np.inf, 1e-3), (1.0, 1e-320)],
    )
    def test_non_finite_horizon_rejected(self, t_end, dt):
        with pytest.raises(NonFiniteValue):
            integrate(quadratic_linear_model(), [1.0, 0.0], t_end=t_end, dt=dt)
