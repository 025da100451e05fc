"""The compiled model step against the loop reference ``loop_trajectory``.

``IphsModel`` writes its RK4 step out as straight-line Python and compiles
it; ``ciph.verify.loop_trajectory`` runs the same scheme as a plain loop
over lists. The two must agree bit for bit on every ``Trajectory`` column,
on the fault and on the length of the valid prefix.
"""

import io
import math
import tokenize

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciph import BracketMatrix, IphsModel, PolynomialField, integrate
from ciph import dynamics, fields
from ciph.dynamics import Constant, Schedule, drift_rhs, full_rhs, observable_rate
from ciph.verify import loop_polynomial, random_skew

from conftest import assert_matches_reference

def capture_sources(monkeypatch) -> list:
    """Collect the source of every function compiled from here on."""
    sources, original = [], fields._compile

    def capture(lines, namespace, name):
        sources.append("\n".join(lines))
        return original(lines, namespace, name)

    monkeypatch.setattr(fields, "_compile", capture)
    monkeypatch.setattr(dynamics, "_compile", capture)
    return sources


class TestLargeSources:
    def test_5000_term_polynomial_at_n8(self):
        rng = np.random.default_rng(5000)
        terms = {}
        while len(terms) < 5000:
            terms[tuple(int(e) for e in rng.integers(0, 4, size=8))] = float(rng.uniform(-1.0, 1.0))
        H = PolynomialField(8, list(terms.items()))
        assert len(H.terms) == 5000
        S = PolynomialField(8, [((1,) + (0,) * 7, 1.0), ((0, 2) + (0,) * 6, 0.5)])
        gamma = PolynomialField(8, [((0,) * 8, 1.0), ((2,) + (0,) * 7, 0.5)])
        model = IphsModel(8, H, S, random_skew(rng, 8), gamma)
        x = rng.uniform(-0.3, 0.3, size=8)
        assert (H.value(x), H.grad(x).tolist()) == loop_polynomial(H, x)
        tr = assert_matches_reference(model, x, t_end=3e-3, dt=1e-3)
        assert tr.fault is None and len(tr) == 4

    def test_dense_n32_j(self):
        rng = np.random.default_rng(32)
        n = 32
        H = PolynomialField(n, [(tuple(2 if j == i else 0 for j in range(n)), 0.5) for i in range(n)])
        S = PolynomialField(n, [(tuple(1 if j == i else 0 for j in range(n)), float(rng.uniform(0.5, 1.5)))
                                for i in range(n)])
        J = random_skew(rng, n)
        assert np.count_nonzero(J.array) == n * (n - 1)
        model = IphsModel(n, H, S, J, PolynomialField.constant(n, 0.7),
                          W=Constant(rng.uniform(-1.0, 1.0, size=n)))
        tr = assert_matches_reference(model, rng.uniform(-1.0, 1.0, size=n), t_end=0.02, dt=1e-3)
        assert tr.fault is None and len(tr) == 21


class TestNamespaceBinding:
    def test_no_model_number_in_the_source(self, monkeypatch):
        sources = capture_sources(monkeypatch)
        H = PolynomialField(2, [((2, 0), 1e308), ((0, 3), 5e-324), ((1, 1), -0.1)])
        model = IphsModel(2, H, PolynomialField(2, [((1, 0), 1.0)]), BracketMatrix.standard_skew(),
                          PolynomialField.constant(2, 3.25), W=Constant([0.125, -0.0]))
        integrate(model, [1.0, 2.0], t_end=0.01, dt=1e-2)
        drift_rhs(model, [1.0, 2.0])
        full_rhs(model, [1.0, 2.0], 0.0)
        H.value([1.0, 2.0])
        H.grad([1.0, 2.0])
        assert len(sources) == 6  # step, start, parts, rhs, value_list, grad_list
        for source in sources:
            numbers = {tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                       if tok.type == tokenize.NUMBER}
            # ints are exponents; 0.0 starts every fold and 2.0 weighs k2, k3
            assert all(s.isdigit() for s in numbers - {"0.0", "2.0"}), numbers
            assert "inf" not in source

    @pytest.mark.parametrize("coefficient", [1e308, 5e-324, -1e308])
    def test_extreme_coefficients(self, coefficient):
        # 2 * 1e308 overflows to inf when the gradient coefficient is built
        H = PolynomialField(2, [((2, 0), coefficient), ((0, 2), 0.5)])
        for x in ([1e-200, 0.5], [0.5, -0.25], [2.0, 1.0], [0.0, 1.0]):
            value, grad = loop_polynomial(H, x)
            assert H.value(x) == value or (math.isnan(value) and math.isnan(H.value(x)))
            assert H.grad(x).tobytes() == np.array(grad).tobytes()
        model = IphsModel(2, H, PolynomialField(2, [((1, 0), 1.0), ((0, 1), 1.0)]), BracketMatrix.standard_skew(),
                          PolynomialField.constant(2, 1.0))
        for x0 in ([1e-200, 0.5], [0.5, -0.25]):
            assert_matches_reference(model, x0, t_end=0.05, dt=1e-2)


class TestSmallestModel:
    @pytest.mark.parametrize("inputs", ["none", "table", "plain"])
    def test_n1_model(self, inputs):
        pieces = {
            "none": {},
            "table": dict(W=Constant([0.25]), g=Constant([[2.0]]), u=Schedule([0.0, 0.02], [0.5, -1.0])),
            "plain": dict(W=lambda x, dH: np.array([0.1 * x[0]]), g=lambda x, dH: np.ones((1, 1)),
                          u=lambda t: np.array([np.sin(t)])),
        }[inputs]
        H = PolynomialField(1, [((2,), 0.5), ((4,), 0.1)])
        S = PolynomialField(1, [((1,), 1.0)])
        model = IphsModel(1, H, S, BracketMatrix.zeros(1), PolynomialField(1, [((0,), 1.0), ((2,), 1.0)]),
                          **pieces)
        tr = assert_matches_reference(model, [0.75], t_end=0.05, dt=1e-2)
        assert tr.states.shape == (6, 1)
        assert drift_rhs(model, [0.75]).tolist() == [0.0]
        assert observable_rate(model, H, [0.75]) == 0.0
        assert model.gamma_at([0.5]) == 1.25


class TestStageTimes:
    @pytest.mark.parametrize("typed", [True, False])
    def test_breakpoints_at_every_sample_time(self, typed):
        # k2 and k3 see t + dt/2, k4 sees t + dt, the sample (k + 1) * dt;
        # the last two differ by an ulp at some k
        dt, steps = 0.01, 30
        times = [(k + 1) * dt for k in range(steps)]
        assert any(k * dt + dt != t for k, t in enumerate(times))
        values = [[float((-1) ** k) * (k + 1)] for k in range(steps)]
        schedule = Schedule(times, values)
        base = dict(W=Constant([0.125, -0.5]), g=Constant([[1.0], [0.5]]), u=schedule)
        if not typed:
            base = dict(W=lambda x, dH: np.array([0.125, -0.5]), g=lambda x, dH: np.array([[1.0], [0.5]]),
                        u=lambda t: schedule(t).copy())
        H = PolynomialField(2, [((2, 0), 0.5), ((0, 2), 0.5)])
        S = PolynomialField(2, [((1, 0), 1.0), ((0, 1), 1.0), ((1, 1), 0.25)])
        model = IphsModel(2, H, S, BracketMatrix.standard_skew(), PolynomialField.constant(2, 1.0), **base)
        tr = assert_matches_reference(model, [0.5, -0.25], t_end=dt * steps, dt=dt)
        assert tr.fault is None and len(set(tr.p.tolist())) > steps // 2


EXPONENT = st.sampled_from(list(range(7)) * 3 + [400])
MAGNITUDE = st.one_of(st.floats(-300.0, 300.0).map(lambda e: 10.0**e), st.floats(1e-300, 1e300))
COEFFICIENT = st.builds(lambda sign, m: sign * m, st.sampled_from([1.0, -1.0]), MAGNITUDE)
COORDINATE = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0]))


@st.composite
def polynomial_models(draw):
    n = draw(st.integers(1, 4))

    def field():
        terms = draw(st.lists(st.tuples(st.tuples(*[EXPONENT] * n), COEFFICIENT), min_size=1, max_size=40))
        return PolynomialField(n, terms)

    J = np.zeros((n, n))
    for i in range(n):
        J[i, i] = draw(st.sampled_from([0.0, -0.0]))
        for j in range(i + 1, n):
            J[i, j] = draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0)))
            J[j, i] = -J[i, j]
    gamma = field()
    if draw(st.booleans()):  # mostly positive near the origin
        gamma = gamma + PolynomialField.constant(n, draw(st.floats(0.5, 1e3)))
    vector = st.lists(COORDINATE, min_size=n, max_size=n)
    dt = draw(st.sampled_from([1e-3, 1e-2, 5e-2]))
    # breakpoints at sample times (k + 1) * dt, which t + dt may miss by an ulp
    breakpoint = st.one_of(st.floats(0.0, 0.2), st.integers(1, 15).map(lambda k: k * dt))
    pieces = {}
    kind = draw(st.sampled_from(["isolated", "W", "table", "plain"]))
    if kind != "isolated":
        w = draw(vector)
        pieces["W"] = Constant(w) if kind != "plain" else (lambda x, dH: np.array(w))
    if kind in ("table", "plain"):
        m = draw(st.integers(1, 2))
        gmat = draw(st.lists(st.lists(COORDINATE, min_size=m, max_size=m), min_size=n, max_size=n))
        times = sorted(draw(st.sets(breakpoint, min_size=1, max_size=3)))
        values = draw(st.lists(st.lists(COORDINATE, min_size=m, max_size=m),
                               min_size=len(times), max_size=len(times)))
        schedule = Schedule(times, values)
        if kind == "table":
            pieces.update(g=Constant(gmat), u=schedule)
        else:
            pieces.update(g=lambda x, dH: np.array(gmat), u=lambda t: schedule(t).copy())
    model = IphsModel(n, field(), field(), BracketMatrix(J), gamma, **pieces)
    x0 = draw(vector)
    return model, x0, dt * draw(st.integers(1, 15)), dt


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=polynomial_models())
def test_random_polynomial_models_match_the_reference(case):
    model, x0, t_end, dt = case
    assert_matches_reference(model, x0, t_end, dt)
