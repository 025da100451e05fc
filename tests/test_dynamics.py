import dataclasses
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ciph import (
    BalanceReport,
    BracketMatrix,
    DimensionMismatch,
    DimensionTooLarge,
    FormatError,
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
from ciph import dynamics
from ciph.dynamics import (
    BUILTIN_MODELS,
    MAX_STEPS,
    Constant,
    Schedule,
    balance_ledger,
    builtin_model,
    input_power,
)
from ciph.fileio import load_model
from ciph.fields import ExpNegSumField, ExpSumField
from ciph.verify import random_polynomial, random_skew

from conftest import TRAJECTORY_COLUMNS, assert_matches_reference


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

    def test_u_without_g_is_refused(self):
        # g and u act only together, so either one alone is an error, not a
        # silently dropped input term
        base = quadratic_linear_model()
        with pytest.raises(FormatError, match="'u' has no effect without 'g'"):
            dataclasses.replace(base, u=lambda t: np.array([1.0]))
        with pytest.raises(FormatError, match="'g' has no effect without 'u'"):
            dataclasses.replace(base, g=lambda x, dH: np.array([[1.0], [0.0]]))

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
        assert report.max_entropy_defect <= 1e-6 * report.entropy_scale
        assert report.max_entropy_defect_alt > report.max_entropy_defect

    def test_too_short_trajectory(self):
        # the integrals are stage quadratures, so one step is audited; only
        # a fault at the first sample leaves nothing to audit
        model = quadratic_linear_model()
        tr = integrate(model, [1.0, 0.0], t_end=1e-3, dt=1e-3)
        report = audit_balances(model, tr)
        assert len(tr) == report.samples == 2 and report.passed
        assert report.max_energy_defect <= 1e-16
        faulted = dataclasses.replace(model, gamma=PolynomialField.constant(2, -1.0))
        prefix = integrate(faulted, [1.0, 0.0], t_end=1e-3, dt=1e-3)
        assert prefix.fault == "NonpositiveGamma" and len(prefix) == 1
        with pytest.raises(TrajectoryTooShort, match="need >= 2 samples, got 1"):
            audit_balances(faulted, prefix)


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

    def test_heat_exchanger_energy_rate_stays_at_rounding_level(self):
        model = heat_exchanger_model(conductance=2.5)
        rng = np.random.default_rng(81)
        for x in rng.uniform(-3.0, 3.0, size=(50, 2)):
            _, scale, JdH, _ = model._code.parts(x.tolist())
            rate = observable_rate(model, model.H, x)
            assert type(rate) is float
            assert abs(rate) <= 1e-15 * abs(scale) * float(np.abs(model.H.grad(x)) @ np.abs(JdH))

    @pytest.mark.parametrize("forced", [False, True])
    def test_heat_exchanger_matches_the_loop_reference(self, forced):
        model = heat_exchanger_model(conductance=1.5)
        if forced:
            model = dataclasses.replace(model, g=Constant([[1.0], [-0.5]]),
                                        u=Schedule([0.0, 0.05], [[0.25], [-1.0]]))
        tr = assert_matches_reference(model, [1.0, -1.0], t_end=0.1, dt=1e-3)
        assert tr.fault is None and len(tr) == 101

    @pytest.mark.parametrize("name", sorted(BUILTIN_MODELS))
    def test_no_builtin_step_calls_numpy(self, name):
        # every built-in field emits statements: no list_form adapter (a
        # "<prefix>value" or "<prefix>grad" callable) and no numpy function
        # is bound where the compiled loop looks its names up
        code = builtin_model(name)._code
        code.run, code.parts
        adapters = [k for k in code.namespace if k.endswith(("value", "grad"))]
        assert adapters == []
        numpy_bound = [k for k, v in code.namespace.items()
                       if "numpy" in f"{getattr(v, '__module__', None)} {type(v).__module__}"]
        assert numpy_bound == []

    def test_underflowing_exp_gamma_is_nonpositive(self):
        # gamma = exp(-(x1 + x2)) is a subnormal, still > 0, for sums in
        # (708.4, 745.1) and underflows to 0 past them
        quadratic = PolynomialField(2, [((2, 0), 0.5), ((0, 2), 0.5)])
        linear = PolynomialField(2, [((1, 0), 1.0), ((0, 1), 1.0)])
        model = IphsModel(2, quadratic, linear, BracketMatrix.standard_skew(), ExpNegSumField(2),
                          W=Constant([1e3, 0.0]))
        tr = assert_matches_reference(model, [700.0, 0.0], t_end=1.0, dt=1e-2)
        assert tr.fault == "NonpositiveGamma"
        assert 4 <= len(tr) <= 6 and tr.states[-1, 0] < 745.2
        at_start = integrate(model, [400.0, 400.0], t_end=1.0, dt=1e-2)
        assert at_start.fault == "NonpositiveGamma" and len(at_start) == 1
        assert at_start.H_values.tolist() == [160000.0] and at_start.S_values.tolist() == [800.0]
        with pytest.raises(NonpositiveGamma):
            model.gamma_at([400.0, 400.0])

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

    @pytest.mark.parametrize("scale", [1.0, 1e6, 1e-6, 1e300])
    def test_skew_test_is_relative_to_j(self, scale):
        # a 1-ulp asymmetry of max|J| passes in any units, as in split_product;
        # one of 1e-11 of it does not
        H, S = PolynomialField(2, [((2, 0), 0.5)]), PolynomialField(2, [((1, 0), 1.0)])
        low = 3.0 * scale
        for top in (low, np.nextafter(low, np.inf)):
            IphsModel(2, H, S, BracketMatrix([[0.0, top], [-low, 0.0]]), constant_gamma(2))
        with pytest.raises(DimensionMismatch, match="skew-symmetric to within 1e-12 of max"):
            IphsModel(2, H, S, BracketMatrix([[0.0, low * (1.0 + 1e-11)], [-low, 0.0]]), constant_gamma(2))
        IphsModel(2, H, S, BracketMatrix.zeros(2), constant_gamma(2))

    def test_fields_and_j_must_have_the_model_dimension(self):
        H, S = PolynomialField(2, [((2, 0), 0.5)]), PolynomialField(2, [((1, 0), 1.0)])
        with pytest.raises(DimensionMismatch, match="H has dimension 3, expected 2"):
            IphsModel(2, PolynomialField(3, [((2, 0, 0), 0.5)]), S, BracketMatrix.standard_skew(),
                      constant_gamma(2))
        with pytest.raises(DimensionMismatch, match="J has dimension 3, expected 2"):
            IphsModel(2, H, S, BracketMatrix.zeros(3), constant_gamma(2))
        with pytest.raises(DimensionMismatch, match="field has dimension 3, expected 2"):
            observable_rate(quadratic_linear_model(), PolynomialField.coordinate(3, 1), [1.0, 0.0])


def test_input_power_zero_without_inputs():
    model = quadratic_linear_model()
    tr = integrate(model, [1.0, 0.0], t_end=0.01, dt=1e-3)
    p, q = input_power(model, tr)
    assert np.array_equal(p, np.zeros(len(tr)))
    assert np.array_equal(q, np.zeros(len(tr)))


def fold_dot(a, b) -> float:
    """Dot product summed left to right, as the drift kernel sums; numpy's
    ``@`` may fuse multiply-adds and differ in the last bit."""
    total = 0.0
    for u, v in zip(a, b):
        total += float(u) * float(v)
    return total


def assert_plain_rk4(model, x0, dt, steps):
    """integrate's states equal a plain RK4 loop over full_rhs, bit for bit."""
    tr = integrate(model, x0, t_end=dt * steps, dt=dt)
    assert tr.fault is None and len(tr) == steps + 1
    x = np.array(x0, dtype=float)
    for k in range(steps):
        t = k * dt
        k1 = full_rhs(model, x, t)
        k2 = full_rhs(model, x + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = full_rhs(model, x + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = full_rhs(model, x + dt * k3, t + dt)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert tr.states[k + 1].tolist() == x.tolist()


def random_forced_model(rng, n, inputs=True) -> IphsModel:
    """Random polynomial H and S, skew J, gamma = c + x1^2 / 2 > 0, and
    (with ``inputs``) a constant W, a constant n x 2 g and a u that
    switches at t = 0.0503."""
    gamma_terms = [((0,) * n, float(rng.uniform(0.2, 2.0))), ((2,) + (0,) * (n - 1), 0.5)]
    if not inputs:
        return IphsModel(n, random_polynomial(rng, n), random_polynomial(rng, n),
                         random_skew(rng, n), PolynomialField(n, gamma_terms))
    w = rng.uniform(-1.0, 1.0, size=n)
    g = rng.uniform(-1.0, 1.0, size=(n, 2))
    u_before, u_after = rng.uniform(-1.0, 1.0, size=(2, 2))
    return IphsModel(
        n,
        H=random_polynomial(rng, n),
        S=random_polynomial(rng, n),
        J=random_skew(rng, n),
        gamma=PolynomialField(n, gamma_terms),
        W=lambda x, dH: w,
        g=lambda x, dH: g,
        u=lambda t: u_before if t < 0.0503 else u_after,
    )


def numpy_field(f):
    """A PolynomialField evaluated from its terms in numpy, independent of
    its compiled form: x -> (value, grad, grad of the absolute terms)."""
    E = np.array([e for e, _ in f.terms], dtype=float).reshape(-1, f.n)
    c = np.array([c for _, c in f.terms])

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        grad, grad_abs = np.zeros(f.n), np.zeros(f.n)
        for m in range(f.n):
            lowered = E.copy()
            lowered[:, m] = np.maximum(E[:, m] - 1.0, 0.0)
            terms = c * E[:, m] * np.prod(x**lowered, axis=1)
            grad[m], grad_abs[m] = terms.sum(), np.abs(terms).sum()
        return float(c @ np.prod(x**E, axis=1)), grad, grad_abs

    return evaluate


class TestListKernelAgainstNumpy:
    """The list kernel behind drift_rhs, full_rhs and observable_rate
    against a numpy evaluation of the same formulas, to within 1e-14 of the
    magnitude of the terms that are summed."""

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("inputs", [False, True])
    def test_rhs_and_rate_match_numpy(self, n, inputs):
        rng = np.random.default_rng(900 + 10 * n + inputs)
        for _ in range(6):
            model = random_forced_model(rng, n, inputs)
            f = random_polynomial(rng, n)
            H, S, gamma, F = (numpy_field(h) for h in (model.H, model.S, model.gamma, f))
            J, absJ = model.J.array, np.abs(model.J.array)
            for x in rng.uniform(-1.0, 1.0, size=(3, n)):
                t = float(rng.uniform(0.0, 0.1))
                c = gamma(x)[0]
                _, dH, aH = H(x)
                _, dS, aS = S(x)
                JdH, aJdH = J @ dH, absJ @ aH
                bracket, a_bracket = float(dS @ JdH), float(aS @ aJdH)
                drift, a_drift = c * bracket * JdH, c * a_bracket * aJdH
                full, a_full = drift.copy(), a_drift.copy()
                if inputs:
                    w, g, u = model.W(x, dH), model.g(x, dH), model.u(t)
                    full, a_full = drift + w + g @ u, a_drift + np.abs(w) + np.abs(g) @ np.abs(u)
                got_drift, got_full = drift_rhs(model, x), full_rhs(model, x, t)
                assert type(got_drift) is np.ndarray and type(got_full) is np.ndarray
                assert got_drift.shape == got_full.shape == (n,)
                assert np.all(np.abs(got_drift - drift) <= 1e-14 * a_drift)
                assert np.all(np.abs(got_full - full) <= 1e-14 * a_full)
                _, df, af = F(x)
                rate = observable_rate(model, f, x)
                assert type(rate) is float
                assert abs(rate - c * bracket * float(df @ JdH)) <= 1e-14 * c * a_bracket * float(af @ aJdH)
                if inputs:
                    term = model.input_term(x, dH, t)
                    assert type(term) is np.ndarray
                    assert np.all(np.abs(term - (w + g @ u)) <= 1e-14 * (np.abs(w) + np.abs(g) @ np.abs(u)))

    def test_generic_fields_give_the_same_trajectory(self):
        # CountingField is not a PolynomialField, so it goes through ndarrays
        rng = np.random.default_rng(77)
        model = random_forced_model(rng, 4)
        wrapped = dataclasses.replace(model, H=CountingField(model.H), S=CountingField(model.S),
                                      gamma=CountingField(model.gamma))
        x0 = rng.uniform(-0.5, 0.5, size=4)
        a = integrate(model, x0, t_end=0.1, dt=1e-2)
        b = integrate(wrapped, x0, t_end=0.1, dt=1e-2)
        for name in ("states", "H_values", "S_values", "sigma_int", "p", "q"):
            assert getattr(a, name).tolist() == getattr(b, name).tolist()


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
        assert_plain_rk4(model, [0.8, -0.3], dt=2e-3, steps=50)

    def test_reused_k1_matches_plain_rk4_bit_for_bit_n6_forced(self):
        rng = np.random.default_rng(76)
        model = random_forced_model(rng, 6)
        # u switches at t = 0.0503, between step 25's k1 (t = 0.05) and its
        # k2/k3 (t = 0.051), so every stage time is exercised
        assert_plain_rk4(model, rng.uniform(-0.5, 0.5, size=6), dt=2e-3, steps=50)

    def test_recorded_input_power_matches_fresh_recomputation(self):
        model = forced_model()
        tr = integrate(model, [0.7, 0.2], t_end=0.03, dt=1e-3)
        p, q = input_power(model, tr)
        assert p is tr.p and q is tr.q
        for k, (x, t) in enumerate(zip(tr.states, tr.times)):
            dH, dS = model.H.grad(x), model.S.grad(x)
            inp = model.input_term(x, dH, float(t))
            assert p[k] == fold_dot(dH, inp)
            assert q[k] == fold_dot(dS, inp)
            bracket = fold_dot(dS, [fold_dot(row, dH) for row in model.J.array])
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


class TestStepCap:
    @pytest.mark.parametrize("t_end, dt", [(1e12, 1.0), ((MAX_STEPS + 1) * 1e-3, 1e-3)])
    def test_too_many_steps_rejected(self, t_end, dt):
        with pytest.raises(DimensionTooLarge, match="exceeds the cap"):
            integrate(quadratic_linear_model(), [1.0, 0.0], t_end=t_end, dt=dt)

    def test_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_STEPS", 10)
        assert len(integrate(quadratic_linear_model(), [1.0, 0.0], t_end=10e-3, dt=1e-3)) == 11
        with pytest.raises(DimensionTooLarge):
            integrate(quadratic_linear_model(), [1.0, 0.0], t_end=11e-3, dt=1e-3)


def running_trapezoid(t, rate) -> list[float]:
    """Cumulative trapezoid integral, one interval at a time."""
    total, out = 0.0, [0.0]
    for k in range(1, len(t)):
        total += 0.5 * (rate[k] + rate[k - 1]) * (t[k] - t[k - 1])
        out.append(total)
    return out


class TestBalanceLedger:
    def test_columns_match_their_definitions(self):
        tr = integrate(forced_model(), [0.7, 0.2], t_end=0.05, dt=1e-3)
        t, H, S, sig = tr.times, tr.H_values, tr.S_values, tr.sigma_int
        assert tr.supplied.shape == (len(tr), 3) and tr.supplied[0].tolist() == [0.0] * 3
        expected = [(H, tr.p), (S, sig + tr.q), (S, sig + tr.p)]
        for k, (column, (values, rate)) in enumerate(zip(balance_ledger(tr), expected)):
            assert column.shape == (len(tr),)
            assert column[0] == 0.0
            assert np.array_equal(column, values - values[0] - tr.supplied[:, k])
            # the integral of this rate, not another one: each step's increment
            # is within O(dt^3) of the trapezoid's, except on the step that
            # ends on the switch of u at t = 0.01 (k4 sees the new value there)
            trapezoid = np.diff(running_trapezoid(t, rate))
            mismatch = np.abs(np.diff(tr.supplied[:, k]) - trapezoid)
            assert np.flatnonzero(mismatch > 1e-8).tolist() == [9]

    def test_single_sample_is_zero(self):
        model = IphsModel(
            2,
            PolynomialField(2, [((2, 0), 0.5)]),
            PolynomialField(2, [((1, 0), 1.0)]),
            BracketMatrix.standard_skew(),
            PolynomialField.coordinate(2, 1),
        )
        tr = integrate(model, [-1.0, 0.0], t_end=0.1, dt=1e-2)
        assert [column.tolist() for column in balance_ledger(tr)] == [[0.0]] * 3

    def test_audit_reads_the_ledger(self):
        model = forced_model()
        tr = integrate(model, [0.7, 0.2], t_end=0.05, dt=1e-3)
        energy, entropy, entropy_alt = balance_ledger(tr)
        report = audit_balances(model, tr)
        assert report.max_energy_defect == np.max(np.abs(energy))
        assert report.max_entropy_defect == np.max(np.abs(entropy))
        assert report.max_entropy_defect_alt == np.max(np.abs(entropy_alt))

    def test_scales_are_in_integral_form(self):
        model = forced_model()
        tr = integrate(model, [0.7, 0.2], t_end=0.05, dt=1e-3)
        report = audit_balances(model, tr)
        H, S = tr.H_values, tr.S_values
        G_H, G_S = tr.throughput[-1]
        expected_E = max(G_H, np.max(np.abs(H - H[0])), np.max(np.abs(tr.supplied[:, 0])))
        expected_S = max(G_S, np.max(np.abs(S - S[0])), np.max(np.abs(tr.supplied[:, 1])))
        assert report.energy_scale == expected_E < 1.0  # no floor of 1
        assert report.entropy_scale == expected_S < 1.0
        # a balance that moves more than its throughput sets its own scale: by its change...
        big = dataclasses.replace(tr, S_values=1e3 * S)
        assert audit_balances(model, big).entropy_scale == np.max(np.abs(big.S_values - big.S_values[0]))
        # ...or by its supplied integral
        fed = dataclasses.replace(tr, supplied=tr.supplied + 1e3 * tr.times[:, None])
        assert audit_balances(model, fed).energy_scale == pytest.approx(1e3 * 0.05, rel=1e-3)


def readme_model(tmp_path, **changes) -> IphsModel:
    """The README's model-file example, with the entries ``changes`` replaced,
    loaded as ``ciph simulate`` loads it."""
    path = tmp_path / "readme-model.json"
    path.write_text(json.dumps({**TestCompiledInputs.README_MODEL, **changes}), encoding="utf-8")
    return load_model(path)


def mutate_step(monkeypatch, edit) -> list:
    """Compile every model function from here on with ``edit`` applied to
    each source line; returns the edited lines as they were."""
    original, changed = dynamics._compile, []

    def compile_edited(lines, namespace, name):
        edited = [edit(line) for line in lines]
        changed.extend(a for a, b in zip(lines, edited) if a != b)
        return original(edited, namespace, name)

    monkeypatch.setattr(dynamics, "_compile", compile_edited)
    return changed


def audited(model, x0) -> BalanceReport:
    tr = integrate(model, x0, t_end=10.0, dt=1e-3)
    assert tr.fault is None
    return audit_balances(model, tr)


class TestAuditGate:
    def test_report_ends_with_verdict(self):
        model = quadratic_linear_model()
        report = audit_balances(model, integrate(model, [1.0, 0.0], t_end=0.1, dt=1e-3))
        assert list(report.to_json()) == [
            "max_energy_defect",
            "max_entropy_defect",
            "max_entropy_defect_alt",
            "min_sigma_int",
            "energy_scale",
            "entropy_scale",
            "samples",
            "passed",
        ]
        assert report.passed is True

    def test_drift_free_model_closes_chain_rule_entropy(self):
        # no drift: S changes only by dS^T W, which differs from dH^T W
        w = np.array([0.3, -0.2])
        model = IphsModel(
            2,
            PolynomialField(2, [((2, 0), 0.5), ((0, 2), 0.5)]),
            PolynomialField(2, [((1, 0), 1.0), ((0, 1), 1.0)]),
            BracketMatrix.zeros(2),
            constant_gamma(2),
            W=lambda x, dH: w,
        )
        report = audit_balances(model, integrate(model, [1.0, 1.0], t_end=2.0, dt=1e-3))
        assert report.max_entropy_defect <= 1e-12 * report.entropy_scale
        assert report.max_entropy_defect_alt > 0.1 * report.entropy_scale
        assert report.passed is True

    # Negative tests: each runs a step compiled with one fault planted in
    # it, which the audit must catch. The unmutated runs pass.
    def test_input_dropped_from_one_component_fails(self, monkeypatch, tmp_path):
        # x2's rhs loses its input at every stage, while p and q still count it
        assert audited(readme_model(tmp_path), [1.0, 0.0]).passed is True
        changed = mutate_step(monkeypatch, lambda line: line.replace("1 = m * j1 + u1", "1 = m * j1"))
        report = audited(readme_model(tmp_path), [1.0, 0.0])
        assert len(changed) >= 4  # k2, k3, k4 and the sample
        assert report.passed is False
        assert report.max_energy_defect > 1.0 > 1e-6 * report.energy_scale
        assert report.max_entropy_defect > 0.5 > 1e-6 * report.entropy_scale

    @pytest.mark.parametrize("kind", ["readme", "quadratic-linear"])
    def test_non_skew_j_fails(self, tmp_path, kind):
        model = readme_model(tmp_path) if kind == "readme" else quadratic_linear_model()
        assert audited(model, [1.0, 0.0]).passed is True
        # the skew check ran when the model was built; the step reads J here
        model._code.namespace["J0_0"] = 0.3
        report = audited(model, [1.0, 0.0])
        assert report.passed is False
        assert report.max_energy_defect > 0.1 > 1e-6 * report.energy_scale

    def test_sigma_with_the_wrong_power_fails(self, monkeypatch):
        assert audited(quadratic_linear_model(), [1.0, 0.0]).passed is True
        changed = mutate_step(monkeypatch, lambda line: re.sub(r"^(\s*s\d? = m \* w)$", r"\1 * w", line))
        report = audited(quadratic_linear_model(), [1.0, 0.0])
        assert len(changed) >= 4
        assert report.passed is False
        assert report.min_sigma_int == -1.0
        assert report.max_entropy_defect > 0.5 > 1e-6 * report.entropy_scale

    def test_q_from_dh_fails(self, monkeypatch, tmp_path):
        # the README's S = x1 + x2 has unit gradient coefficients, which the
        # q folds drop; this S keeps its dS factors in them
        S = {"poly": [[[1, 0], 2.0], [[0, 1], 0.5]]}
        assert audited(readme_model(tmp_path, S=S), [1.0, 0.0]).passed is True
        changed = mutate_step(monkeypatch, lambda line: line.replace("Sg", "Hg") if line.lstrip()[:1] == "q" else line)
        report = audited(readme_model(tmp_path, S=S), [1.0, 0.0])
        assert len(changed) >= 4
        assert report.passed is False
        assert report.max_energy_defect <= 1e-6 * report.energy_scale
        assert report.max_entropy_defect > 1.0 > 1e-6 * report.entropy_scale

    def test_negative_entropy_production_fails(self):
        model = quadratic_linear_model()
        tr = integrate(model, [1.0, 0.0], t_end=0.1, dt=1e-3)
        sig = tr.sigma_int.copy()
        sig[50] = -1e-9
        report = audit_balances(model, dataclasses.replace(tr, sigma_int=sig))
        assert report.min_sigma_int == -1e-9
        assert report.passed is False


def recording_gamma(points, value):
    """A non-polynomial gamma that records every point it is evaluated at."""

    class Gamma:
        n = 2

        def value(self, x):
            points.append(x.tolist())
            return value(float(x[0]))

        def grad(self, x):
            return np.zeros(2)

    return Gamma()


# stage -> (u switch time, u after it, position of the stage in step 3).
# Steps 0-2 hold x1 = 0.5 (J = 0, u = 0); from the switch on, dx1/dt = u.
# Only the named stage of step 3 (t = 0.03, dt = 0.01) and the stages after
# it see a point with x1 > 6: k2 through the k1 that the previous k4 and
# sample supply, k3 and k4 through u at t + dt/2, the sample through u at t + dt.
STAGE_PUSHES = {
    "k2": (0.0299, 1200.0, 1),  # step 2's k4 and sample see u: x1 = 2.5, k2 point 8.5
    "k3": (0.032, 1200.0, 2),  # k2 point 0.5, k3 point 6.5
    "k4": (0.032, 800.0, 3),  # k3 point 4.5, k4 point 8.5
    "sample": (0.037, 4800.0, 4),  # k2-k4 points 0.5, new state 8.5
}


def pushed_model(stage, H, gamma):
    switch, size, _ = STAGE_PUSHES[stage]
    return IphsModel(
        2, H, PolynomialField(2, [((1, 0), 1.0)]), BracketMatrix.zeros(2), gamma,
        g=lambda x, dH: np.array([[1.0], [0.0]]),
        u=lambda t: np.array([0.0 if t < switch else size]),
    )


def probe_model(c: float) -> IphsModel:
    """H = c (x1^2/2 + x2^2/2 + x1^4/4), S = x1 + x2 + x1^2/2, gamma = 1/c^2,
    standard J: the trajectory does not depend on c, only H's units do."""
    return IphsModel(
        2,
        PolynomialField(2, [((2, 0), c / 2), ((0, 2), c / 2), ((4, 0), c / 4)]),
        PolynomialField(2, [((1, 0), 1.0), ((0, 1), 1.0), ((2, 0), 0.5)]),
        BracketMatrix.standard_skew(),
        constant_gamma(2, 1 / c**2),
    )


class TestAuditUnits:
    # The gates scale with the gross throughputs G_H and G_S, with no floor,
    # so a verdict does not depend on the units of H or S.
    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("dt, passed", [(1e-3, True), (0.05, False)])
    def test_probe_verdict_is_the_same_in_every_unit(self, c, dt, passed):
        report = audit_balances(probe_model(c), integrate(probe_model(c), [1.0, 0.5], t_end=5.0, dt=dt))
        assert report.passed is passed
        # the energy defect against its throughput, the same ratio in every unit
        ratio = report.max_energy_defect / report.energy_scale
        assert ratio < 1e-10 if passed else ratio > 1e-5

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(i=st.integers(-40, 40), j=st.integers(-40, 40), dt=st.sampled_from([1e-3, 0.02, 0.1, 0.3]),
           forced=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_power_of_two_units_scale_defects_exactly(self, i, j, dt, forced, seed):
        # H -> 2^i H and S -> 2^j S with gamma -> 2^(-2i-j) gamma leave x(t)
        # bit for bit; each balance, its defect and its scale scale exactly
        rng = np.random.default_rng(seed)

        def poly(terms, factor):
            return PolynomialField(2, [(e, factor * c) for e, c in terms])

        H_terms = [((2, 0), 0.5), ((0, 2), float(rng.uniform(0.2, 2.0))), ((4, 0), float(rng.uniform(0.0, 1.0)))]
        S_terms = [((1, 0), 1.0), ((0, 1), float(rng.uniform(-1.0, 1.0))), ((2, 0), float(rng.uniform(0.0, 1.0)))]
        gamma_terms = [((0, 0), float(rng.uniform(0.2, 2.0))), ((0, 2), float(rng.uniform(0.0, 1.0)))]
        J = random_skew(rng, 2)
        W = Constant(rng.uniform(-0.5, 0.5, 2)) if forced else None
        x0 = rng.uniform(-1.0, 1.0, 2)

        def audit(a, b):
            model = IphsModel(2, poly(H_terms, a), poly(S_terms, b), J, poly(gamma_terms, 1.0 / (a * a * b)), W=W)
            tr = integrate(model, x0, t_end=20 * dt, dt=dt)
            return tr, audit_balances(model, tr) if len(tr) > 1 else None

        (tr, report), (scaled_tr, scaled) = audit(1.0, 1.0), audit(2.0**i, 2.0**j)
        assert scaled_tr.fault == tr.fault and scaled_tr.states.tobytes() == tr.states.tobytes()
        assume(report is not None)  # a fault at the first sample leaves nothing to audit
        assert scaled_tr.throughput.tobytes() == (tr.throughput * [2.0**i, 2.0**j]).tobytes()
        assert scaled.passed == report.passed and scaled.samples == report.samples
        for name, factor in (("max_energy_defect", 2.0**i), ("energy_scale", 2.0**i),
                             ("max_entropy_defect", 2.0**j), ("entropy_scale", 2.0**j),
                             ("min_sigma_int", 2.0**j)):
            assert getattr(scaled, name) == factor * getattr(report, name), name


class TestKernelFaults:
    def test_gamma_nonpositive_at_stage_k3(self):
        # gamma = x1 and dx/dt = g u(t) with u switching from 0 to -200 at
        # t = 0.032: steps 0-2 stand still; step 3's k1 (t = 0.03) is zero,
        # so its k2 point is x itself, and its k3 point, x + (dt/2) k2, has
        # x1 = 0.5 - 0.005 * 200 < 0
        points = []

        class Gamma:
            n = 2

            def value(self, x):
                points.append(x.tolist())
                return float(x[0])

            def grad(self, x):
                return np.array([1.0, 0.0])

        model = IphsModel(
            2,
            PolynomialField(2, [((2, 0), 0.5), ((0, 2), 0.5)]),
            PolynomialField(2, [((1, 0), 1.0)]),
            BracketMatrix.zeros(2),
            Gamma(),
            g=lambda x, dH: np.array([[1.0], [0.0]]),
            u=lambda t: np.array([0.0 if t < 0.032 else -200.0]),
        )
        tr = integrate(model, [0.5, 0.25], t_end=1.0, dt=1e-2)
        assert tr.fault == "NonpositiveGamma"
        assert tr.times.tolist() == [0.0, 0.01, 0.02, 0.03]
        assert tr.states.tolist() == [[0.5, 0.25]] * 4
        assert len(tr.H_values) == len(tr.sigma_int) == len(tr.p) == 4
        # one sample, 3 steps of (k2, k3, k4, sample), then step 3's k2 and k3
        assert len(points) == 1 + 4 * 3 + 2
        assert points[-2:] == [[0.5, 0.25], [-0.5, 0.25]]

    # Stage parity: the first stage of step 3 to see gamma <= 0, or a power
    # overflow, is each of k2, k3, k4 and the sample in turn; each gamma
    # evaluation is a stage, so the recorded points show where it happened.
    @pytest.mark.parametrize("stage", list(STAGE_PUSHES))
    def test_gamma_nonpositive_first_at(self, stage):
        points = []
        model = pushed_model(stage, PolynomialField(2, [((2, 0), 0.5), ((0, 2), 0.5)]),
                             recording_gamma(points, lambda x1: 6.0 - x1))
        tr = assert_matches_reference(model, [0.5, 0.25], t_end=1.0, dt=1e-2)
        assert tr.fault == "NonpositiveGamma" and len(tr) == 4
        # the reference ran the same stages: halve the record
        first = points[: len(points) // 2]
        assert len(first) == 1 + 4 * 3 + STAGE_PUSHES[stage][2]
        assert first[-1][0] > 6.0 and all(p[0] < 6.0 for p in first[:-1])

    @pytest.mark.parametrize("stage", list(STAGE_PUSHES))
    def test_power_overflow_first_at(self, stage):
        points = []
        # float ** raises on x1^400 once x1 > 5.9; the fallback gives inf
        H = PolynomialField(2, [((400, 0), 1e-300), ((0, 2), 0.5)])
        model = pushed_model(stage, H, recording_gamma(points, lambda x1: 1.0))
        tr = assert_matches_reference(model, [0.5, 0.25], t_end=1.0, dt=1e-2)
        assert tr.fault == "NonFiniteState" and len(tr) == 4
        first = points[: len(points) // 2]
        big = [i for i, p in enumerate(first) if not abs(p[0]) < 5.9]
        assert big[0] == 4 * 3 + STAGE_PUSHES[stage][2]

    def test_nonpositive_gamma_reports_point_and_value(self):
        model = IphsModel(2, PolynomialField(2, [((2, 0), 0.5)]), PolynomialField(2, [((1, 0), 1.0)]),
                          BracketMatrix.standard_skew(), PolynomialField(2, [((1, 0), 1.0), ((0, 0), -0.25)]))
        for call in (lambda x: drift_rhs(model, x), lambda x: full_rhs(model, x, 0.0), model.gamma_at,
                     lambda x: observable_rate(model, model.H, x)):
            with pytest.raises(NonpositiveGamma) as err:
                call([0.125, 3.0])
            assert (err.value.x, err.value.value) == ((0.125, 3.0), -0.125)

    @pytest.mark.parametrize("case", ["numpy-input", "unobserved", "polynomial-power", "exp-field"])
    def test_overflow_is_a_nonfinite_state_without_warnings(self, case):
        quadratic = PolynomialField(2, [((2, 0), 0.5)])
        linear = PolynomialField(2, [((1, 0), 1.0)])
        if case == "numpy-input":  # x1' = x1^2 on numpy scalars
            model = IphsModel(2, quadratic, linear, BracketMatrix.zeros(2), constant_gamma(2),
                              W=lambda x, dH: np.array([x[0] ** 2, 0.0]))
            x0, dt = [2.0, 0.0], 1e-2
        elif case == "unobserved":  # x2' = x2^2, while H, S and sigma_int stay finite
            model = IphsModel(2, quadratic, linear, BracketMatrix.zeros(2), constant_gamma(2),
                              W=lambda x, dH: np.array([0.0, x[1] ** 2]))
            x0, dt = [1.0, 2.0], 1e-2
        elif case == "polynomial-power":  # x' = 1000 x, H = x1^8 overflows float **
            H = PolynomialField(2, [((8, 0), 1.0)])
            model = IphsModel(2, H, linear, BracketMatrix.zeros(2), constant_gamma(2),
                              W=lambda x, dH: 1e3 * x)
            x0, dt = [1.0, 1.0], 1e-2
        else:  # H = exp(x1) + exp(x2) by math.exp, x1 fed until it overflows
            model = IphsModel(2, ExpSumField(2), linear, BracketMatrix.zeros(2), constant_gamma(2),
                              W=lambda x, dH: np.array([1e3, 0.0]))
            x0, dt = [0.0, 0.0], 1e-2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = integrate(model, x0, t_end=5.0, dt=dt)
        assert tr.fault == "NonFiniteState"
        assert 1 < len(tr) < 500
        assert np.all(np.isfinite(tr.states))
        assert np.all(np.isfinite(tr.H_values))

    def test_wrong_input_shapes_raise(self):
        base = quadratic_linear_model()
        wide_w = dataclasses.replace(base, W=lambda x, dH: np.zeros(3))
        with pytest.raises(DimensionMismatch, match="W returned shape"):
            integrate(wide_w, [1.0, 0.0], t_end=0.1, dt=1e-2)
        with pytest.raises(DimensionMismatch):
            full_rhs(wide_w, [1.0, 0.0], 0.0)
        with pytest.raises(DimensionMismatch):
            wide_w.input_term([1.0, 0.0], [1.0, 0.0], 0.0)
        matrix_u = dataclasses.replace(base, g=lambda x, dH: np.ones((2, 1)), u=lambda t: np.ones((1, 1)))
        with pytest.raises(DimensionMismatch):
            integrate(matrix_u, [1.0, 0.0], t_end=0.1, dt=1e-2)

    def test_wrong_point_shape_raises(self):
        model = quadratic_linear_model()
        for call in (lambda x: drift_rhs(model, x), lambda x: full_rhs(model, x, 0.0),
                     lambda x: observable_rate(model, model.H, x), model.gamma_at):
            with pytest.raises(DimensionMismatch):
                call([1.0, 0.0, 0.0])


def poly_spec(f: PolynomialField) -> dict:
    return {"poly": [[list(e), c] for e, c in f.terms]}


def assert_same_trajectory(a, b):
    for name in TRAJECTORY_COLUMNS:
        assert getattr(a, name).tolist() == getattr(b, name).tolist()
    assert a.fault == b.fault


class Counted:
    """A plain callable that counts its calls, so the model takes the ndarray path."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, *args):
        self.calls += 1
        return self.f(*args)


class TestCompiledInputs:
    """File-loaded inputs run on their compiled list form; the same model
    built from plain callables runs through the checked ndarray path. Both
    must give the same trajectory, bit for bit."""

    README_MODEL = {
        "n": 2,
        "H": {"poly": [[[2, 0], 0.5], [[0, 2], 0.5]]},
        "S": {"poly": [[[1, 0], 1.0], [[0, 1], 1.0]]},
        "gamma": {"poly": [[[0, 0], 1.0]]},
        "J": {"n": 2, "rows": [[0.0, 1.0], [-1.0, 0.0]]},
        "W": {"constant": [0.1, -0.1]},
        "g": {"rows": [[1.0], [0.0]]},
        "u": {"times": [0.0, 5.0], "values": [[0.5], [0.0]]},
    }

    def test_readme_model_matches_plain_callables(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(self.README_MODEL), encoding="utf-8")
        model = load_model(path)
        assert (type(model.W), type(model.g), type(model.u)) == (Constant, Constant, Schedule)
        w, gmat = np.array([0.1, -0.1]), np.array([[1.0], [0.0]])
        W, g = Counted(lambda x, dH: w), Counted(lambda x, dH: gmat)
        u = Counted(lambda t: np.array([0.5 if 0.0 <= t < 5.0 else 0.0]))
        plain = dataclasses.replace(model, W=W, g=g, u=u)
        compiled = integrate(model, [1.0, 0.0], t_end=10.0, dt=2e-3)
        assert_same_trajectory(compiled, integrate(plain, [1.0, 0.0], t_end=10.0, dt=2e-3))
        assert W.calls == g.calls == u.calls == 1 + 4 * 5000
        assert len(set(compiled.p.tolist())) > 1  # the schedule switches at t = 5

    def test_random_n6_poly_w_and_mid_step_breakpoint(self, tmp_path):
        rng = np.random.default_rng(2024)
        n = 6
        H, S, comps = random_polynomial(rng, n), random_polynomial(rng, n), [random_polynomial(rng, n) for _ in range(n)]
        gamma = PolynomialField(n, [((0,) * n, 0.8), ((2,) + (0,) * (n - 1), 0.5)])
        J, gmat = random_skew(rng, n), rng.uniform(-1.0, 1.0, size=(n, 2))
        u0, u1 = rng.uniform(-1.0, 1.0, size=(2, 2))
        payload = {
            "n": n, "H": poly_spec(H), "S": poly_spec(S), "gamma": poly_spec(gamma),
            "J": {"rows": J.array.tolist()},
            "W": {"poly": [poly_spec(c)["poly"] for c in comps]},
            "g": {"rows": gmat.tolist()},
            # u switches at t = 0.0503, between step 25's k1 (t = 0.05) and its k2/k3 (t = 0.051)
            "u": {"times": [0.0, 0.0503], "values": [u0.tolist(), u1.tolist()]},
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        model = load_model(path)
        # a polynomial W is a plain callable, so this model takes the checked ndarray path
        assert (type(model.g), type(model.u)) == (Constant, Schedule) and type(model.W) is not Constant
        W = Counted(lambda x, dH: np.array([c.value(x) for c in comps]))
        plain = dataclasses.replace(model, W=W, g=lambda x, dH: gmat, u=lambda t: u0 if t < 0.0503 else u1)
        x0 = rng.uniform(-0.5, 0.5, size=n)
        compiled = integrate(model, x0, t_end=0.1, dt=2e-3)
        assert_same_trajectory(compiled, integrate(plain, x0, t_end=0.1, dt=2e-3))
        assert W.calls == 1 + 4 * 50
        assert_plain_rk4(model, x0, dt=2e-3, steps=50)

    @pytest.mark.parametrize("with_w, with_g", [(True, False), (False, True), (True, True)])
    def test_every_typed_combination_matches_plain_callables(self, with_w, with_g):
        base = quadratic_linear_model()
        typed, plain = {}, {}
        if with_w:
            typed["W"], plain["W"] = Constant([-0.0, 0.25]), lambda x, dH: np.array([-0.0, 0.25])
        if with_g:
            gmat = np.array([[1.0, -0.5], [0.0, 2.0]])
            typed["g"], typed["u"] = Constant(gmat), Schedule([0.01, 0.02], [[0.5, -1.0], [0.0, 0.75]])
            plain["g"] = lambda x, dH: gmat
            plain["u"] = lambda t: np.array([0.0, 0.0] if t < 0.01 else [0.5, -1.0] if t < 0.02 else [0.0, 0.75])
        a = dataclasses.replace(base, **typed)
        b = dataclasses.replace(base, **plain)
        assert_same_trajectory(integrate(a, [0.6, -0.4], t_end=0.05, dt=1e-3),
                               integrate(b, [0.6, -0.4], t_end=0.05, dt=1e-3))
        for t in (0.0, 0.015, 0.03):
            x, dH = [0.6, -0.4], [0.6, -0.4]
            assert a.input_term(x, dH, t).tobytes() == b.input_term(x, dH, t).tobytes()  # -0.0 too

    def test_typed_callables_keep_their_ndarray_signatures(self):
        W = Constant([0.1, -0.1])
        assert W([5.0, 5.0], None).tolist() == [0.1, -0.1]
        g = Constant([[1.0], [0.0]])
        assert g(None, None).shape == (2, 1)
        u = Schedule([0.0, 1.0], [0.5, 0.25])  # a flat list is one scalar input
        assert [u(t).tolist() for t in (-1.0, 0.0, 0.5, 1.0, 7.0)] == [[0.0], [0.5], [0.5], [0.25], [0.25]]
        with pytest.raises(ValueError):
            u.array[0, 0] = 1.0  # read-only

    @pytest.mark.parametrize(
        "times, values, match",
        [([], [], "nonempty"), ([0.0, 1.0], [[1.0]], "equally long"), ([1.0, 1.0], [[1.0], [2.0]], "increasing"),
         ([0.0, float("nan")], [[1.0], [2.0]], "finite")],
    )
    def test_bad_schedule_is_a_format_error(self, times, values, match):
        with pytest.raises(FormatError, match=match):
            Schedule(times, values)

    @pytest.mark.parametrize("bad", [True, "1", np.bool_(False)])
    def test_constant_keeps_the_number_rule(self, bad):
        with pytest.raises(FormatError, match="a constant input must be ints or floats"):
            Constant([0.5, bad])
        with pytest.raises(FormatError, match="a constant input must be ints or floats"):
            Constant([[1.0], [bad]])
        assert Constant([np.float32(0.5), np.int64(2), 3]).array.tolist() == [0.5, 2.0, 3.0]

    @pytest.mark.parametrize("bad", [True, "1", "0"])
    def test_schedule_keeps_the_number_rule(self, bad):
        with pytest.raises(FormatError, match="'u' times must be ints or floats"):
            Schedule([bad], [[1.0]])
        with pytest.raises(FormatError, match="'u' values must be ints or floats"):
            Schedule([0.0, 1.0], [[1.0], [bad]])
        with pytest.raises(FormatError, match="'u' values must be ints or floats"):
            Schedule(np.array([0.0]), np.array([[bad]]))

    def test_typed_shapes_are_checked_once_at_build(self):
        base = quadratic_linear_model()
        with pytest.raises(DimensionMismatch, match=r"g has shape \(2, 1\), u has shape \(2,\)"):
            dataclasses.replace(base, g=Constant([[1.0], [0.0]]), u=Schedule([0.0], [[1.0, 2.0]]))
        with pytest.raises(DimensionMismatch, match="W has shape"):
            dataclasses.replace(base, W=Constant([1.0, 2.0, 3.0]))
        # typed pieces are checked at build next to plain ones too
        with pytest.raises(DimensionMismatch, match="W has shape"):
            dataclasses.replace(base, W=Constant([1.0, 2.0, 3.0]), g=lambda x, dH: np.ones((2, 1)),
                                u=lambda t: np.ones(1))
        with pytest.raises(DimensionMismatch, match=r"g has shape \(2, 1\), u has shape \(2,\)"):
            dataclasses.replace(base, W=lambda x, dH: np.zeros(2), g=Constant([[1.0], [0.0]]),
                                u=Schedule([0.0], [[1.0, 2.0]]))
        # a g without a u is refused before its shape is looked at
        with pytest.raises(FormatError, match="'g' has no effect without 'u'"):
            dataclasses.replace(base, g=Constant([[1.0, 2.0, 3.0]]))
        # a g whose rows do not match n is caught by the same (n, width) check
        with pytest.raises(DimensionMismatch, match=r"g has shape \(1, 3\), u has shape \(3,\)"):
            dataclasses.replace(base, g=Constant([[1.0, 2.0, 3.0]]), u=Schedule([0.0], [[1.0, 2.0, 3.0]]))

    def test_mixed_typed_and_plain_pieces_keep_per_call_checks(self):
        base = quadratic_linear_model()
        model = dataclasses.replace(base, g=Constant([[1.0], [0.0]]), u=lambda t: np.array([1.0, 2.0]))
        with pytest.raises(DimensionMismatch, match="g has shape"):
            full_rhs(model, [1.0, 0.0], 0.0)
        model = dataclasses.replace(base, W=lambda x, dH: np.ones(3), g=Constant([[1.0], [0.0]]),
                                    u=Schedule([0.0], [[1.0]]))
        with pytest.raises(DimensionMismatch, match="W returned shape"):
            integrate(model, [1.0, 0.0], t_end=0.1, dt=1e-2)
