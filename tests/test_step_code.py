"""The compiled model loop against the loop reference ``loop_trajectory``.

``IphsModel`` writes its whole RK4 loop out as straight-line Python and
compiles it; ``ciph.verify.loop_trajectory`` runs the same scheme as a
plain loop over lists. The two must agree bit for bit on every
``Trajectory`` column, on the fault and on the length of the valid prefix.
"""

import ast
import io
import json
import math
import re
import tokenize

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciph import BracketMatrix, IphsModel, NonpositiveGamma, PolynomialField, integrate
from ciph import dynamics, fields
from ciph.cli import main
from ciph.dynamics import Constant, Schedule, builtin_model, drift_rhs, full_rhs, observable_rate
from ciph.fields import FOLD_TERMS
from ciph.fileio import load_model
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


def step_source(monkeypatch, model) -> tuple[str, str]:
    """A new model's compiled ``run`` loop split into its stages (k2-k4,
    the update, the state's finiteness check and the integrals) and its
    sample (the loop head to the carry of the state into x)."""
    sources = capture_sources(monkeypatch)
    model._code.run
    sample, stages = sources[-1].split("for k in range(steps + 1):", 1)[1].split("y0 = x0 + half * a0", 1)
    return stages, sample


def compiled(sources: list) -> list:
    """The names of the functions whose sources ``capture_sources`` collected."""
    return [re.match(r"def (\w+)\(", source).group(1) for source in sources]


QUADRATIC = PolynomialField(2, [((2, 0), 0.5), ((0, 2), 0.5)])
LINEAR = PolynomialField(2, [((1, 0), 1.0), ((0, 1), 1.0)])


def readme_forced_model() -> IphsModel:
    """The forced model-file example of the README."""
    return IphsModel(2, QUADRATIC, LINEAR, BracketMatrix.standard_skew(), PolynomialField.constant(2, 1.0),
                     W=Constant([0.1, -0.1]), g=Constant([[1.0], [0.0]]), u=Schedule([0.0, 5.0], [[0.5], [0.0]]))


README_FORCED_FILE = {
    "n": 2,
    "H": {"poly": [[[2, 0], 0.5], [[0, 2], 0.5]]},
    "S": {"poly": [[[1, 0], 1.0], [[0, 1], 1.0]]},
    "gamma": {"poly": [[[0, 0], 1.0]]},
    "J": {"n": 2, "rows": [[0.0, 1.0], [-1.0, 0.0]]},
    "W": {"constant": [0.1, -0.1]},
    "g": {"rows": [[1.0], [0.0]]},
    "u": {"times": [0.0, 5.0], "values": [[0.5], [0.0]]},
}


class TestOneCompile:
    @pytest.mark.parametrize("spec", [{"builtin": "quadratic-linear"}, {"builtin": "heat-exchanger"},
                                      README_FORCED_FILE], ids=["quadratic-linear", "heat-exchanger", "forced"])
    def test_simulate_compiles_run_alone(self, monkeypatch, tmp_path, capsys, spec):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        sources = capture_sources(monkeypatch)
        argv = ["simulate", str(path), "--t-end", "0.1", "--x0", "0.5,-0.25", "-o", str(tmp_path / "t.csv")]
        assert main(argv) == 0
        assert compiled(sources) == ["run"]
        # full_rhs adds W + g u to the drift parts, as drift_rhs and
        # input_term give them apart, and compiles nothing run holds
        model, x = load_model(path), [0.5, -0.25]
        integrate(model, x, t_end=0.1)
        del sources[:]
        rhs = full_rhs(model, x, 0.0)
        assert compiled(sources) == ["parts"]
        assert np.array_equal(rhs, drift_rhs(model, x) + model.input_term(x, model.H.grad(x), 0.0))


class TestLoopTopSample:
    """``run`` takes each sample at the top of its loop pass, the first one
    included, so its source writes the sample once."""

    @pytest.mark.parametrize("build", [lambda: builtin_model("quadratic-linear"),
                                       lambda: builtin_model("heat-exchanger"), readme_forced_model,
                                       lambda: wide_model(100)],
                             ids=["quadratic-linear", "heat-exchanger", "forced", "wide"])
    def test_run_writes_the_sample_once(self, monkeypatch, build):
        sources = capture_sources(monkeypatch)
        build()._code.run
        source = sources[-1]
        # a long fold continues as "Hv = Hv + ..."; one statement starts it
        assert source.count("buf.extend(") == 1
        assert len(re.findall(r"^ *Hv = (?!Hv )", source, re.M)) == 1
        assert len(re.findall(r"^ *Sv = (?!Sv )", source, re.M)) == 1

    def test_non_finite_first_sample_is_kept(self, tmp_path, capsys):
        # H = x1^4 + x2^2 / 2 overflows at x1 = 1e100 while dH, and so the
        # state, stay finite: the first sample is kept, the second faults
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 2, "H": {"poly": [[[4, 0], 1.0], [[0, 2], 0.5]]},
                                    "S": {"poly": [[[1, 0], 1.0]]}, "gamma": {"poly": [[[0, 0], 1.0]]},
                                    "J": {"n": 2, "rows": [[0.0, 1.0], [-1.0, 0.0]]}}), encoding="utf-8")
        tr = assert_matches_reference(load_model(path), [1e100, 0.0], t_end=0.1, dt=1e-2)
        assert tr.fault == "NonFiniteState" and tr.times.tolist() == [0.0]
        assert tr.H_values.tolist() == [math.inf] and tr.S_values.tolist() == [1e100]
        assert main(["simulate", str(path), "--t-end", "0.1", "--x0", "1e100,0",
                     "-o", str(tmp_path / "t.csv")]) == 4
        assert json.loads(capsys.readouterr().out.splitlines()[0]) == {
            "fault": "NonFiniteState", "t_last": 0.0, "samples": 1}


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
        assert len(sources) == 4  # run, parts (full_rhs reads it too), value_list, grad_list
        for source in sources:
            numbers = {tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                       if tok.type == tokenize.NUMBER}
            # ints are exponents; 0.0 starts every fold and 2.0 weighs k2, k3
            assert all(s.isdigit() for s in numbers - {"0.0", "2.0"}), numbers
            assert "inf" not in source
        # the constant gamma and S's constant gradient are folds bound by name
        assert (model._code.namespace["Gv"], model._code.namespace["Sg0"]) == (3.25, 1.0)
        assert not any("Gv =" in source or "Sg0 =" in source for source in sources)

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


class TestLiveStatements:
    @pytest.mark.parametrize("build", [lambda: builtin_model("quadratic-linear"), readme_forced_model])
    def test_stages_compute_gradient_powers_only(self, monkeypatch, build):
        stages, sample = step_source(monkeypatch, build())
        # H's squares are read by its value alone; a first power is the coordinate
        assert "**" not in stages and "** 2" in sample and not re.search(r"\*\* 1\b", sample)
        # gamma = 1 is a positive constant: no check
        assert "_NonpositiveGamma" not in stages + sample
        assert_matches_reference(build(), [1.0, 0.0], t_end=0.1, dt=2e-3)

    def test_stages_two_and_three_share_the_input_row(self, monkeypatch):
        stages, sample = step_source(monkeypatch, readme_forced_model())
        assert stages.count("_table[_bisect(_times, th)]") == 1
        assert stages.count("_table[_bisect(_times, te)]") == 1
        assert sample.count("_table[_bisect(_times, t)]") == 1

    def test_a_field_gamma_keeps_its_check(self, monkeypatch):
        stages, sample = step_source(monkeypatch, builtin_model("heat-exchanger"))
        assert stages.count("raise _NonpositiveGamma") == 3 and sample.count("raise _NonpositiveGamma") == 1

    @pytest.mark.parametrize("gamma", [PolynomialField.constant(2, -0.5), PolynomialField(2, [])])
    def test_constant_nonpositive_gamma_faults_at_the_start(self, gamma):
        model = IphsModel(2, QUADRATIC, LINEAR, BracketMatrix.standard_skew(), gamma, W=Constant([0.1, -0.1]))
        x0 = [0.75, -0.25]
        tr = assert_matches_reference(model, x0, t_end=0.05, dt=1e-2)
        assert tr.fault == "NonpositiveGamma" and tr.times.tolist() == [0.0]
        want = (tuple(x0), repr(loop_polynomial(gamma, x0)[0]))
        for call in (lambda x: drift_rhs(model, x), lambda x: full_rhs(model, x, 0.0), model.gamma_at):
            with pytest.raises(NonpositiveGamma) as err:
                call(x0)
            assert (err.value.x, repr(err.value.value)) == want

    def test_value_only_power_overflows_at_the_sample(self, monkeypatch):
        # x1^400 overflows float ** past 5.8971, x1^399 (the gradient's) past
        # 5.9234; x1 climbs from 5.89 at rate 1, as dS = 0 leaves only W
        H = PolynomialField(2, [((400, 0), 1e-300), ((0, 2), 0.5)])
        model = IphsModel(2, H, PolynomialField(2, []), BracketMatrix.standard_skew(),
                          PolynomialField.constant(2, 1.0), W=Constant([1.0, 0.0]))
        stages, sample = step_source(monkeypatch, model)
        assert "** 399" in stages and "** 400" not in stages and "** 400" in sample
        tr = assert_matches_reference(model, [5.89, 0.0], t_end=0.1, dt=1e-3)
        # the last sample, x1 = 5.897, is the last whose x1^400 is finite
        assert tr.fault == "NonFiniteState" and len(tr) == 8 and 5.8969 < tr.states[-1, 0] < 5.8971

    def test_polynomial_gamma_computes_the_powers_its_value_reads(self, monkeypatch):
        # gamma = 1 + 0.5 x1^3: its gradient reads x1^2, which nothing runs
        cubic = PolynomialField(2, [((0, 0), 1.0), ((3, 0), 0.5)])
        model = IphsModel(2, QUADRATIC, LINEAR, BracketMatrix.standard_skew(), cubic)
        stages, sample = step_source(monkeypatch, model)
        assert stages.count("Gp0 = y0 ** 3") == 3 and sample.count("Gp0 = y0 ** 3") == 1
        assert "Gp1" not in stages + sample
        assert_matches_reference(model, [1.0, 0.5], t_end=0.1, dt=1e-2)
        # value_list takes the value form too, grad_list the grad form
        sources = capture_sources(monkeypatch)
        fresh = PolynomialField(2, cubic.terms)
        assert (fresh.value([1.5, 0.0]), fresh.grad([1.5, 0.0]).tolist()) == loop_polynomial(fresh, [1.5, 0.0])
        value_source, grad_source = sources
        assert "** 3" in value_source and "** 2" not in value_source
        assert "** 2" in grad_source and "** 3" not in grad_source
        # gamma = x1^2 + x1^3 reads both powers for its value
        both = PolynomialField(2, [((2, 0), 1.0), ((3, 0), 1.0)])
        model = IphsModel(2, QUADRATIC, LINEAR, BracketMatrix.standard_skew(), both)
        stages, sample = step_source(monkeypatch, model)
        for text, count in ((stages, 3), (sample, 1)):
            assert text.count("Gp0 = y0 ** 2") == count and text.count("Gp1 = y0 ** 3") == count
        assert_matches_reference(model, [1.0, 0.5], t_end=0.1, dt=1e-2)

    def test_linear_energy_folds_j_dh(self, monkeypatch):
        # dH is constant, so each J dH component is a constant fold of 3 products
        rng = np.random.default_rng(3)
        H = PolynomialField(4, [((1, 0, 0, 0), 0.3), ((0, 1, 0, 0), -2.7), ((0, 0, 1, 0), 0.1),
                                ((0, 0, 0, 1), 1.9)])
        S = PolynomialField(4, [((2, 0, 0, 0), 0.5), ((0, 1, 1, 0), 1.5), ((0, 0, 0, 3), 0.125)])
        model = IphsModel(4, H, S, random_skew(rng, 4), PolynomialField.constant(4, 0.75),
                          W=Constant([0.5, -0.25, 0.125, 0.0]))
        stages, sample = step_source(monkeypatch, model)
        assert "j0 =" not in stages + sample and "Hg0 =" not in stages + sample
        assert_matches_reference(model, [0.5, -1.0, 0.25, 0.75], t_end=0.2, dt=1e-2)


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

    @pytest.mark.parametrize("forced", [False, True])
    def test_n1_model_of_unit_numbers(self, monkeypatch, forced):
        # every factor of the step is 1.0 or gone, so the carry of the lone
        # coordinate into the next step is what the loop runs on
        pieces = dict(W=Constant([1.0]), g=Constant([[1.0]]), u=Schedule([0.0, 0.03], [1.0, 2.0])) if forced else {}
        H = PolynomialField(1, [((2,), 0.5), ((3,), 1.0 / 3.0)])
        model = IphsModel(1, H, PolynomialField(1, [((1,), 1.0)]), BracketMatrix.zeros(1),
                          PolynomialField.constant(1, 1.0), **pieces)
        stages, sample = step_source(monkeypatch, model)
        assert "x0 = y0" in sample and "buf.extend((t, y0, " in sample
        tr = assert_matches_reference(model, [-0.0 if forced else 0.75], t_end=0.05, dt=1e-2)
        assert tr.fault is None and tr.states.shape == (6, 1)
        assert len(set(tr.states[:, 0].tolist())) == (6 if forced else 1)


class TestStageTimes:
    @pytest.mark.parametrize("typed", [True, False])
    def test_breakpoints_at_every_sample_time(self, typed):
        # k2 and k3 see t + dt/2, k4 sees t + dt, the next sample (k + 1) * dt;
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


class TestUnitFactors:
    @pytest.mark.parametrize("build, longest_fold", [
        (lambda: builtin_model("quadratic-linear"), 2), (lambda: builtin_model("heat-exchanger"), 2),
        (readme_forced_model, 2), (lambda: wide_model(100), FOLD_TERMS)])
    def test_run_multiplies_by_no_unit_name_and_caps_its_chains(self, monkeypatch, build, longest_fold):
        sources, model = capture_sources(monkeypatch), build()
        model._code.run
        source, namespace = sources[-1], model._code.namespace

        def unit(node):
            return isinstance(node, ast.Name) and isinstance(namespace.get(node.id), float) \
                and namespace[node.id] == 1.0

        tree = ast.parse(source)
        products = [node for node in ast.walk(tree) if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)]
        assert products and not [ast.unparse(p) for p in products if unit(p.left) or unit(p.right)]
        longest = 0
        for statement in ast.walk(tree):
            if isinstance(statement, ast.Assign):
                chain, value = 0, statement.value
                while isinstance(value, ast.BinOp) and isinstance(value.op, ast.Add):
                    chain, value = chain + 1, value.left
                longest = max(longest, chain)
        # the 100-term fold of the wide model fills its statements to the cap
        assert longest == longest_fold <= FOLD_TERMS

    def test_unit_factors_are_not_read_from_the_namespace(self):
        # J0_1 = 1.0 is dropped from the source, J1_0 = -1.0 is not
        model = builtin_model("quadratic-linear")
        want = integrate(model, [1.0, 0.5], t_end=0.1, dt=1e-2)
        model._code.namespace["J0_1"] = 7.0
        assert integrate(model, [1.0, 0.5], t_end=0.1, dt=1e-2).states.tobytes() == want.states.tobytes()
        model._code.namespace["J1_0"] = 7.0
        assert integrate(model, [1.0, 0.5], t_end=0.1, dt=1e-2).states.tobytes() != want.states.tobytes()

    def test_nonfinite_state_from_a_stage(self):
        # u is inf near t = 0.035, the stage time of k2 and k3 in step 3
        # (t = 0.03); every sample time, 0.03 and 0.04 included, misses it
        model = IphsModel(2, QUADRATIC, LINEAR, BracketMatrix.standard_skew(), PolynomialField.constant(2, 1.0),
                          W=lambda x, dH: np.array([1.0, -1.0]), g=lambda x, dH: np.array([[1.0], [0.0]]),
                          u=lambda t: np.array([math.inf if 0.034 <= t < 0.036 else 1.0]))
        tr = assert_matches_reference(model, [1.0, -0.0], t_end=0.1, dt=1e-2)
        assert tr.fault == "NonFiniteState" and len(tr) == 4

    def test_nonpositive_gamma_mid_run(self):
        # gamma = 1 - x1, with W driving x1 from 0.5 through 1 at rate 1
        gamma = PolynomialField(2, [((0, 0), 1.0), ((1, 0), -1.0)])
        model = IphsModel(2, QUADRATIC, PolynomialField(2, [((0, 1), 1.0)]), BracketMatrix.standard_skew(), gamma,
                          W=Constant([1.0, 0.0]))
        tr = assert_matches_reference(model, [0.5, 0.0], t_end=1.0, dt=1e-2)
        assert tr.fault == "NonpositiveGamma" and 40 <= len(tr) <= 51


def wide_model(terms: int) -> IphsModel:
    """An n = 3 model whose H has ``terms`` terms, each of a unit gradient
    coefficient in x1, so dH_1 is a fold of ``terms`` products."""
    H = PolynomialField(3, [((1, e // 12, e % 12), 1.0) for e in range(terms)])
    return IphsModel(3, H, PolynomialField(3, [((1, 0, 0), 1.0), ((0, 1, 0), 2.0)]), random_skew(
        np.random.default_rng(3), 3), PolynomialField.constant(3, 1.0))


UNIT = st.sampled_from([1.0, -1.0, 0.0, -0.0])
NUMBER = st.one_of(UNIT, st.floats(-2.0, 2.0))
# (exponent, coefficient) pairs whose gradient coefficient is exactly +-1.0,
# and a few others; 400 overflows float ** past 5.9
UNIT_TERM = st.sampled_from([(1, 1.0), (2, 0.5), (3, 1.0 / 3.0), (4, 0.25), (400, 0.0025), (2, 1.5)])


@st.composite
def unit_models(draw):
    n = draw(st.integers(1, 3))

    def field():
        terms = []
        for _ in range(draw(st.integers(1, 6))):
            exponents = [0] * n
            coefficient = draw(st.sampled_from([1.0, -1.0]))
            for j in draw(st.sets(st.integers(0, n - 1), min_size=1)):
                exponents[j], c = draw(UNIT_TERM)
                coefficient *= c
            terms.append((exponents, coefficient))
        return PolynomialField(n, terms)

    J = np.zeros((n, n))
    for i in range(n):
        J[i, i] = draw(st.sampled_from([0.0, -0.0]))
        for j in range(i + 1, n):
            J[i, j] = draw(NUMBER)
            J[j, i] = -J[i, j]
    # a constant gamma (1.0 most often), or 1 - x1 (faults once x1 reaches 1)
    gamma = draw(st.one_of(st.sampled_from([1.0, 1.0, 0.5]).map(lambda c: PolynomialField.constant(n, c)),
                           st.just(PolynomialField(n, [((0,) * n, 1.0), ((1,) + (0,) * (n - 1), -1.0)]))))
    vector = st.lists(st.one_of(NUMBER, st.floats(-6.0, 6.0)), min_size=n, max_size=n)
    pieces = {}
    kind = draw(st.sampled_from(["isolated", "W", "table"]))
    if kind != "isolated":
        pieces["W"] = Constant(draw(vector))
    if kind == "table":
        gmat = draw(st.lists(st.lists(NUMBER, min_size=1, max_size=1), min_size=n, max_size=n))
        pieces.update(g=Constant(gmat), u=Schedule([0.0, 0.1], draw(st.lists(NUMBER, min_size=2, max_size=2))))
    model = IphsModel(n, field(), field(), BracketMatrix(J), gamma, **pieces)
    dt = draw(st.sampled_from([1e-2, 5e-2, 0.25]))
    return model, draw(vector), dt * draw(st.integers(1, 12)), dt


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=unit_models())
def test_unit_number_models_match_the_reference(case):
    model, x0, t_end, dt = case
    assert_matches_reference(model, x0, t_end, dt)


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
