import json
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from ciph import cli
from ciph.cli import build_parser, main
from ciph.fileio import load_tensor, save_matrix, save_tensor
from ciph.tensor import Tensor4

from conftest import EJ_ENTRIES, EPS_ENTRIES


def write_json(path, payload) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def eps_file(tmp_path, golden_eps):
    p = tmp_path / "eps.json"
    save_tensor(golden_eps, p)
    return str(p)


@pytest.fixture
def j_file(tmp_path, j_std):
    p = tmp_path / "J.json"
    save_matrix(j_std, p)
    return str(p)


def strict_json(line: str):
    """json.loads that refuses the non-JSON constants Infinity, -Infinity and NaN."""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(line, parse_constant=refuse)


def stdout_reports(capsys):
    out = capsys.readouterr().out
    return [strict_json(line) for line in out.strip().split("\n") if line]


class TestCheck:
    def test_golden_tensor_passes_with_quasi_poisson_fail(self, eps_file, capsys):
        code = main(["check", eps_file])
        reports = stdout_reports(capsys)
        assert code == 0
        assert [r["condition_id"] for r in reports] == [
            "SYM_A",
            "CYCLIC_B",
            "RAW_III",
            "PSD_C",
            "QUASI_POISSON",
        ]
        by_id = {r["condition_id"]: r for r in reports}
        assert by_id["QUASI_POISSON"]["verdict"] == "fail"
        assert by_id["QUASI_POISSON"]["witness"]["index"] == [1, 1, 2, 2]

    def test_negated_golden_tensor_fails(self, tmp_path, golden_eps, capsys):
        from ciph import Tensor4

        neg = Tensor4(2, -golden_eps.values)
        p = tmp_path / "neg.json"
        save_tensor(neg, p)
        code = main(["check", str(p)])
        reports = stdout_reports(capsys)
        assert code == 2
        by_id = {r["condition_id"]: r for r in reports}
        assert by_id["PSD_C"]["verdict"] == "fail"

    def test_zero_tensor_passes(self, tmp_path, capsys):
        p = write_json(tmp_path / "zero.json", {"n": 2, "entries": []})
        assert main(["check", p]) == 0

    def test_malformed_file_exits_one(self, tmp_path, capsys):
        p = write_json(
            tmp_path / "dup.json",
            {
                "n": 2,
                "entries": [
                    {"i": 1, "j": 1, "k": 1, "l": 1, "v": 1.0},
                    {"i": 1, "j": 1, "k": 1, "l": 1, "v": 2.0},
                ],
            },
        )
        assert main(["check", p]) == 1
        assert "(1, 1, 1, 1)" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self, eps_file, capsys):
        assert main(["check", eps_file, "--frobnicate"]) == 1

    def test_directions_file(self, eps_file, tmp_path, capsys):
        d = write_json(tmp_path / "dirs.json", {"directions": [[1.0, 0.0], [1.0, 1.0]]})
        assert main(["check", eps_file, "--directions", d]) == 0

    def test_byte_identical_output(self, eps_file, capsys):
        main(["check", eps_file])
        first = capsys.readouterr().out
        main(["check", eps_file])
        second = capsys.readouterr().out
        assert first == second

    def test_byte_identical_output_with_psd_witness(self, tmp_path, capsys):
        from ciph import Tensor4
        from ciph.verify import random_cons_irrev

        (t,) = random_cons_irrev(3, 6, 1)
        bump = np.einsum("i,j,k,l->ijkl", *[np.eye(6)[-1]] * 4)
        p = tmp_path / "bumped.json"
        save_tensor(Tensor4(6, t.values - 0.5 * bump), p)
        assert main(["check", str(p)]) == 2
        first = capsys.readouterr().out
        assert main(["check", str(p)]) == 2
        second = capsys.readouterr().out
        assert first == second
        psd = [json.loads(line) for line in first.splitlines()][3]
        assert psd["witness"]["direction"] == [0.0] * 5 + [1.0]

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["check", "split", "oracle"])
    def test_non_finite_tolerance_exits_one(self, eps_file, capsys, command, tol):
        assert main([command, eps_file, f"--tol={tol}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: tolerance must be finite")

    @pytest.fixture
    def random_file(self, tmp_path):
        # All 81 entries nonzero: every condition fails by O(max|t|).
        p = tmp_path / "random.json"
        save_tensor(Tensor4(3, np.random.default_rng(0).standard_normal((3, 3, 3, 3))), p)
        return str(p)

    @pytest.mark.parametrize("tol", ["1", "2", "1e300"])
    @pytest.mark.parametrize("command", ["check", "split", "oracle"])
    def test_tolerance_of_one_or_more_exits_one(self, random_file, capsys, command, tol):
        # Relative to max|t|, a tolerance of 1 or more passes residuals as
        # large as the tensor: `check --tol 10` and `split --tol 2` (gamma 0,
        # a J that is not skew) used to exit 0 on this tensor.
        assert main(["check", random_file]) == 2
        capsys.readouterr()
        assert main([command, random_file, f"--tol={tol}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: tolerance is relative and must be < 1, got {float(tol)}\n"

    @pytest.mark.parametrize("command, code", [("check", 2), ("split", 3), ("oracle", 0)])
    def test_tolerance_below_one_is_accepted(self, random_file, capsys, command, code):
        assert main([command, random_file, "--tol=0.5"]) == code
        assert "error" not in capsys.readouterr().err

    def test_nan_tolerance_no_traceback(self, eps_file):
        proc = subprocess.run(
            [sys.executable, "-m", "ciph.cli", "check", eps_file, "--tol", "nan"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: tolerance must be finite")

    def test_negative_dimension_exits_one(self, tmp_path):
        p = write_json(tmp_path / "t.json", {"n": -1, "entries": []})
        proc = subprocess.run(
            [sys.executable, "-m", "ciph.cli", "check", p], capture_output=True, text=True
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and "dimension must be >= 1" in proc.stderr

    def test_bad_seed_env(self, eps_file, capsys, monkeypatch):
        for seed in ("not-a-number", "-1"):
            monkeypatch.setenv("CIPH_SEED", seed)
            assert main(["check", eps_file]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: CIPH_SEED") and err.count("\n") == 1

    def test_hex_seed_env(self, eps_file, capsys, monkeypatch):
        monkeypatch.setenv("CIPH_SEED", "0x1234")
        assert main(["check", eps_file]) == 0


    def test_matrix_file_is_not_a_tensor(self, j_file, capsys):
        assert main(["check", j_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {j_file}: missing field 'entries'\n"

    def test_overflowed_residual_is_valid_json(self, tmp_path, capsys):
        p = write_json(tmp_path / "big.json", {"n": 2, "entries": [
            {"i": 1, "j": 1, "k": 1, "l": 2, "v": 1e308}, {"i": 1, "j": 1, "k": 2, "l": 1, "v": -1e308}]})
        assert main(["check", p]) == 2
        out = capsys.readouterr().out
        assert '"residual": 1e999,' in out and "Infinity" not in out
        by_id = {r["condition_id"]: r for r in map(strict_json, out.splitlines())}
        assert by_id["SYM_A"]["witness"]["residual"] == float("inf")
        assert by_id["QUASI_POISSON"]["witness"]["residual"] == 1e308

    def test_finite_output_is_json_dumps(self):
        obj = {"a": [1, 2.5, -0.0, 1e-300, 5e-324, 1.7976931348623157e308], "b": None, "c": True,
               "d": {"e": (0.1, "x\"y\u00e9")}, "f": "tab\t", "g": -3}
        assert cli._json(obj) == json.dumps(obj)
        assert cli._json({"r": [float("inf"), -float("inf"), float("nan")]}) == '{"r": [1e999, -1e999, null]}'


class TestSymmetrize:
    def test_doubled_product_becomes_golden_tensor(self, tmp_path, e_j, golden_eps, capsys):
        from ciph import Tensor4

        src = tmp_path / "2ej.json"
        save_tensor(Tensor4(2, 2.0 * e_j.values), src)
        out = tmp_path / "sym.json"
        assert main(["symmetrize", str(src), "-o", str(out)]) == 0
        assert load_tensor(out) == golden_eps


class TestNonIntegerInputs:
    """Indices and exponents are integers: a fractional one is rejected
    with the entry or term named, an integral float is accepted."""

    MODEL = {
        "n": 2,
        "H": {"poly": [[[2, 0], 0.5], [[0, 2], 0.5]]},
        "S": {"poly": [[[1, 0], 1.0], [[0, 1], 1.0]]},
        "gamma": {"poly": [[[0, 0], 1.0]]},
        "J": {"n": 2, "rows": [[0.0, 1.0], [-1.0, 0.0]]},
    }

    def _tensor(self, tmp_path, i) -> str:
        entries = [
            {"i": 1, "j": 1, "k": 2, "l": 2, "v": 2.0},
            {"i": i, "j": 2, "k": 1, "l": 1, "v": 2.0},
        ]
        return write_json(tmp_path / "t.json", {"n": 2, "entries": entries})

    def _simulate(self, tmp_path, exponent):
        model = dict(self.MODEL, H={"poly": [[[2, 0], 0.5], [[0, exponent], 0.5]]})
        m = write_json(tmp_path / "m.json", model)
        out = tmp_path / "traj.csv"
        return main(["simulate", m, "--t-end", "0.01", "--x0", "1,0", "-o", str(out)]), out

    def test_symmetrize_rejects_fractional_index(self, tmp_path, capsys):
        out = tmp_path / "sym.json"
        assert main(["symmetrize", self._tensor(tmp_path, 2.5), "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "entry #2 is malformed: {'i': 2.5," in captured.err
        assert not out.exists()

    def test_symmetrize_accepts_integral_float_index(self, tmp_path, capsys):
        out = tmp_path / "sym.json"
        assert main(["symmetrize", self._tensor(tmp_path, 2.0), "-o", str(out)]) == 0
        assert load_tensor(out).values[1, 1, 0, 0] == 2.0

    def test_simulate_rejects_fractional_exponent(self, tmp_path, capsys):
        code, out = self._simulate(tmp_path, 2.9)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "field 'H': 'poly' term #2 is malformed: [[0, 2.9], 0.5]" in captured.err
        assert not out.exists()

    def test_simulate_accepts_integral_float_exponent(self, tmp_path, capsys):
        code, out = self._simulate(tmp_path, 2.0)
        assert code == 0
        assert stdout_reports(capsys)[0]["passed"] is True


class TestNumberRule:
    """Every reader takes a number only as a JSON int or float, finite:
    numeric strings and booleans exit 1 with the field named."""

    MODEL = dict(TestNonIntegerInputs.MODEL)
    ENTRY = {"i": 1, "j": 1, "k": 2, "l": 2, "v": 1.0}
    MATRIX = [[0.0, 1.0], [-1.0, 0.0]]

    CASES = {
        "entry-string-index": ("tensor", dict(ENTRY, i="1"), "entry #1 is malformed"),
        "entry-bool-fields": ("tensor", dict(ENTRY, l=True, v=True), "entry #1 is malformed"),
        "entry-string-value": ("tensor", dict(ENTRY, v="1.5"), "entry #1 is malformed"),
        "rows-mixed-bool": ("matrix", [[0, 1.0], [-1.0, True]], "'rows' must be finite numbers"),
        "rows-string": ("matrix", [[0, "1"], [-1.0, 0]], "'rows' must be finite numbers"),
        "direction-bool": ("directions", [[1.0, 0.0], [True, 1.0]], "direction #2"),
        "poly-string-exponent": ("model", {"H": {"poly": [[["2", 0], 0.5], [[0, 2], 0.5]]}},
                                 "field 'H': 'poly' term #1 is malformed"),
        "poly-bool-exponent": ("model", {"H": {"poly": [[[2, 0], 0.5], [[0, True], 0.5]]}},
                               "field 'H': 'poly' term #2 is malformed"),
        "poly-string-coefficient": ("model", {"S": {"poly": [[[1, 0], "1.0"], [[0, 1], 1.0]]}},
                                    "field 'S': 'poly' term #1 is malformed"),
        "poly-bool-coefficient": ("model", {"gamma": {"poly": [[[0, 0], True]]}},
                                  "field 'gamma': 'poly' term #1 is malformed"),
        "J-rows-bool": ("model", {"J": {"n": 2, "rows": [[0.0, True], [-1.0, 0.0]]}},
                        "'J' rows must be finite numbers"),
        "W-constant-bool": ("model", {"W": {"constant": [True, 0.0]}}, "'W' constant"),
        "g-rows-string": ("model", {"g": {"rows": [["1"], [0.0]]}, "u": {"times": [0.0], "values": [[1.0]]}},
                          "'g' rows"),
        "u-values-bool": ("model", {"g": {"rows": [[1.0], [0.0]]}, "u": {"times": [0.0], "values": [[True]]}},
                          "'u' values"),
        "params-bool": ("builtin", {"conductance": True}, "'params' must map names to finite numbers"),
    }

    def _run(self, tmp_path, kind, value):
        out = str(tmp_path / "out")
        if kind == "tensor":
            t = write_json(tmp_path / "t.json", {"n": 2, "entries": [value]})
            return main(["symmetrize", t, "-o", out])
        if kind == "matrix":
            a = write_json(tmp_path / "a.json", {"n": 2, "rows": value})
            b = write_json(tmp_path / "b.json", {"n": 2, "rows": self.MATRIX})
            return main(["product", "-A", a, "-B", b, "-o", out])
        if kind == "directions":
            t = write_json(tmp_path / "t.json", {"n": 2, "entries": []})
            d = write_json(tmp_path / "d.json", {"directions": value})
            return main(["check", t, "--directions", d])
        model = {"builtin": "heat-exchanger", "params": value} if kind == "builtin" else dict(self.MODEL, **value)
        m = write_json(tmp_path / "m.json", model)
        return main(["simulate", m, "--t-end", "0.01", "--x0", "1,0.5", "-o", out])

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_non_number_exits_one_naming_the_field(self, tmp_path, capsys, case):
        kind, value, message = self.CASES[case]
        assert self._run(tmp_path, kind, value) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, value", [
        ("tensor", ENTRY), ("tensor", dict(ENTRY, i=1.0, v=1)), ("matrix", [[0, 1], [-1, 0.0]]),
        ("directions", [[1, 0], [0.5, 1]]), ("model", {"S": {"poly": [[[1, 0], 1], [[0, 1.0], 1.0]]}}),
        ("builtin", {"conductance": 2}),
    ])
    def test_ints_and_floats_accepted(self, tmp_path, capsys, kind, value):
        assert self._run(tmp_path, kind, value) == 0


class TestIntegralDimension:
    """'n' of a tensor, matrix or model file is never truncated."""

    MODEL = {
        "H": {"poly": [[[2, 0], 0.5], [[0, 2], 0.5]]},
        "S": {"poly": [[[1, 0], 1.0], [[0, 1], 1.0]]},
        "gamma": {"poly": [[[0, 0], 1.0]]},
        "J": {"n": 2, "rows": [[0.0, 1.0], [-1.0, 0.0]]},
    }

    def _run(self, tmp_path, kind, n):
        if kind == "tensor":
            p = write_json(tmp_path / "t.json", {"n": n, "entries": [{"i": 1, "j": 1, "k": 2, "l": 2, "v": 1.0}]})
            return main(["check", p])
        if kind == "matrix":
            p = write_json(tmp_path / "a.json", {"n": n, "rows": [[0.0, 1.0], [-1.0, 0.0]]})
            return main(["product", "-A", p, "-B", p, "-o", str(tmp_path / "prod.json")])
        p = write_json(tmp_path / "m.json", dict(self.MODEL, n=n))
        return main(["simulate", p, "--t-end", "0.01", "--x0", "1,0", "-o", str(tmp_path / "traj.csv")])

    @pytest.mark.parametrize("kind, n", [("tensor", 2.5), ("matrix", 2.9), ("model", 2.5),
                                         ("tensor", True), ("matrix", "2"), ("model", True)])
    def test_non_integral_n_exits_one(self, tmp_path, capsys, kind, n):
        assert self._run(tmp_path, kind, n) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "'n'" in captured.err
        assert not any(tmp_path.glob("prod.json")) and not any(tmp_path.glob("traj.csv"))

    @pytest.mark.parametrize("kind, code", [("tensor", 2), ("matrix", 0), ("model", 0)])
    def test_integral_float_n_accepted(self, tmp_path, capsys, kind, code):
        assert self._run(tmp_path, kind, 2.0) == code
        assert self._run(tmp_path, kind, 2) == code


class TestProduct:
    def test_standard_skew_squared(self, j_file, tmp_path, capsys):
        out = tmp_path / "prod.json"
        assert main(["product", "-A", j_file, "-B", j_file, "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["n"] == 2
        got = {(e["i"], e["j"], e["k"], e["l"]): e["v"] for e in data["entries"]}
        assert got == EJ_ENTRIES

    def test_zero_matrix_gives_empty_entries(self, tmp_path, capsys):
        z = write_json(tmp_path / "zero.json", {"n": 2, "rows": [[0.0, 0.0], [0.0, 0.0]]})
        out = tmp_path / "prod.json"
        assert main(["product", "-A", z, "-B", z, "-o", str(out)]) == 0
        assert json.loads(out.read_text())["entries"] == []

    def test_dimension_mismatch_exits_one(self, j_file, tmp_path, capsys):
        m3 = write_json(tmp_path / "m3.json", {"n": 3, "rows": np.zeros((3, 3)).tolist()})
        assert main(["product", "-A", j_file, "-B", m3, "-o", str(tmp_path / "x.json")]) == 1

    def test_round_trip_through_split(self, tmp_path, capsys):
        rng = np.random.default_rng(123)
        from ciph import BracketMatrix
        from conftest import random_unit_scaled_skew

        J = random_unit_scaled_skew(rng, 3)
        a = tmp_path / "A.json"
        b = tmp_path / "B.json"
        save_matrix(J, a)
        save_matrix(BracketMatrix(2.5 * J.array), b)
        out = tmp_path / "prod.json"
        assert main(["product", "-A", str(a), "-B", str(b), "-o", str(out)]) == 0
        assert main(["split", str(out)]) == 0
        result = stdout_reports(capsys)[-1]
        assert result["status"] == "SPLIT"
        assert result["gamma"] == pytest.approx(2.5, abs=1e-9)


class TestSplit:
    def test_golden_tensor_splits(self, eps_file, capsys):
        assert main(["split", eps_file]) == 0
        result = stdout_reports(capsys)[0]
        assert result["status"] == "SPLIT"
        assert result["gamma"] == pytest.approx(2.0, abs=1e-9)
        assert result["J"]["rows"] == [[0.0, 1.0], [-1.0, 0.0]]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale, tol", [(1.0, "0.5"), (1.0, "0.9"), (1e160, "1e-10"), (1e-160, "1e-10")])
    def test_golden_tensor_splits_at_a_loose_tol_and_any_scale(self, tmp_path, capsys, scale, tol):
        # the pivot slice squares no entry of t, and a loose tol drops no row
        # and lets no raw-branch answer with a non-skew J in first
        entries = [{"i": i, "j": j, "k": k, "l": l, "v": scale * v} for (i, j, k, l), v in EPS_ENTRIES.items()]
        p = write_json(tmp_path / "eps.json", {"n": 2, "entries": entries})
        assert main(["split", p, "--tol", tol]) == 0
        result = stdout_reports(capsys)[0]
        assert result["status"] == "SPLIT" and result["gamma"] == pytest.approx(2.0 * scale, rel=1e-15)
        assert result["J"]["rows"] == [[0.0, 1.0], [-1.0, 0.0]]

    def test_unsplittable_tensor_exits_three(self, tmp_path, capsys):
        entries = []
        for i in (1, 2):
            for k in (1, 2):
                entries.append({"i": i, "j": i, "k": k, "l": k, "v": 1.0})
        p = write_json(tmp_path / "dd.json", {"n": 2, "entries": entries})
        assert main(["split", p]) == 3
        assert stdout_reports(capsys)[0]["status"] == "NOT_RANK_ONE"

    def test_zero_tensor_splits_trivially(self, tmp_path, capsys):
        p = write_json(tmp_path / "zero.json", {"n": 2, "entries": []})
        assert main(["split", p]) == 0
        assert stdout_reports(capsys)[0]["gamma"] == 0.0

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["split", str(tmp_path / "none.json")]) == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_product_splits(self, tmp_path, capsys):
        # 5e-324 * J (x) J: the plain ratio of the rank-one factors overflows
        entries = [{"i": i, "j": j, "k": k, "l": l, "v": 5e-324 * v} for (i, j, k, l), v in EJ_ENTRIES.items()]
        p = write_json(tmp_path / "tiny.json", {"n": 2, "entries": entries})
        assert main(["split", p]) == 0
        result = stdout_reports(capsys)[0]
        assert result["status"] == "SPLIT" and result["gamma"] == 5e-324
        assert result["J"]["rows"] == [[0.0, 1.0], [-1.0, 0.0]]


class TestSimulate:
    def test_builtin_benchmark_passes(self, tmp_path, capsys):
        m = write_json(tmp_path / "m.json", {"builtin": "quadratic-linear"})
        out = tmp_path / "traj.csv"
        code = main(["simulate", m, "--t-end", "10", "--x0", "1,0", "-o", str(out)])
        summary = stdout_reports(capsys)[0]
        assert code == 0
        assert summary["passed"] is True
        assert summary["fault"] is None
        assert summary["min_sigma_int"] >= 0.0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,x1,x2,H,S,sigma_int,energy_defect"
        assert len(lines) == 10_002
        # relative energy drift stays tiny on the benchmark
        defects = [abs(float(line.split(",")[-1])) for line in lines[1:]]
        assert max(defects) <= 1e-8 * 0.5

    # Accurate runs that failed the audit while it integrated the recorded
    # rates by the trapezoid rule (O(dt^2), and O(dt) across a switch of u):
    # each exited 2 on its quadrature error alone.
    @pytest.mark.parametrize("kind, dt, x0, energy_bound", [
        ("heat-exchanger", "1e-3", "1,-1", 1e-10),
        ("quadratic-linear", "1e-2", "1,0", 1e-9),
        ("readme", "2e-3", "1,0", 1e-7),
    ])
    def test_stage_quadrature_passes_accurate_runs(self, tmp_path, capsys, kind, dt, x0, energy_bound):
        model = _model(W={"constant": [0.1, -0.1]}) if kind == "readme" else {"builtin": kind}
        m = write_json(tmp_path / "m.json", model)
        code = main(["simulate", m, "--t-end", "10", "--dt", dt, "--x0", x0, "-o", str(tmp_path / "t.csv")])
        summary = stdout_reports(capsys)[0]
        assert (code, summary["passed"], summary["fault"]) == (0, True, None)
        assert summary["max_entropy_defect"] <= 1e-12
        assert summary["max_energy_defect"] <= energy_bound

    def test_heat_exchanger_equal_temperatures_constant(self, tmp_path, capsys):
        m = write_json(tmp_path / "m.json", {"builtin": "heat-exchanger"})
        out = tmp_path / "traj.csv"
        code = main(["simulate", m, "--t-end", "1", "--x0", "0.2,0.2", "-o", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        first_state = rows[0][1:3]
        assert all(r[1:3] == first_state for r in rows)

    def test_gamma_vanishing_exits_four(self, tmp_path, capsys):
        payload = {
            "n": 2,
            "H": {"poly": [[[2, 0], 0.5], [[0, 2], 0.5]]},
            "S": {"poly": [[[1, 0], 1.0], [[0, 1], 1.0]]},
            "gamma": {"poly": [[[1, 0], 1.0]]},
            "J": {"n": 2, "rows": [[0.0, 0.0], [0.0, 0.0]]},
            "W": {"constant": [-1.0, 0.0]},
        }
        m = write_json(tmp_path / "m.json", payload)
        out = tmp_path / "traj.csv"
        code = main(["simulate", m, "--t-end", "2", "--x0", "0.5,0", "-o", str(out)])
        summary = stdout_reports(capsys)[0]
        assert code == 4
        assert summary["fault"] == "NonpositiveGamma"
        assert summary["t_last"] < 0.55
        assert out.exists()  # partial trajectory still written

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_exp_field_overflow_exits_four(self, tmp_path, capsys):
        payload = {
            "n": 2,
            "H": {"builtin": "exp_sum"},
            "S": {"poly": [[[1, 0], 1.0], [[0, 1], 1.0]]},
            "gamma": {"poly": [[[0, 0], 1.0]]},
            "J": {"n": 2, "rows": [[0.0, 0.0], [0.0, 0.0]]},
            "W": {"constant": [1000, 0]},
        }
        m = write_json(tmp_path / "m.json", payload)
        out = tmp_path / "traj.csv"
        code = main(["simulate", m, "--t-end", "2", "--x0", "0,0", "--dt", "1e-2", "-o", str(out)])
        summary = stdout_reports(capsys)[0]
        assert code == 4
        assert summary["fault"] == "NonFiniteState"
        assert 0.7 <= summary["t_last"] < 0.71  # exp(x1) overflows once x1 = 1000 t > 709.78
        assert out.exists()

    def test_wrong_x0_length_exits_one(self, tmp_path, capsys):
        m = write_json(tmp_path / "m.json", {"builtin": "quadratic-linear"})
        assert main(["simulate", m, "--t-end", "1", "--x0", "1,0,0"]) == 1

    @pytest.mark.parametrize(
        "flags", [["--t-end", "inf"], ["--t-end", "nan"], ["--t-end", "1", "--dt", "nan"],
                  ["--t-end", "1", "--dt", "1e-320"]],
    )
    def test_non_finite_horizon_exits_one(self, tmp_path, capsys, flags):
        m = write_json(tmp_path / "m.json", {"builtin": "quadratic-linear"})
        out = tmp_path / "traj.csv"
        assert main(["simulate", m, *flags, "--x0", "1,0", "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: t_end")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--t-end", "inf"], ["--t-end", "1", "--dt", "nan"]])
    def test_non_finite_horizon_no_traceback(self, tmp_path, flags):
        m = write_json(tmp_path / "m.json", {"builtin": "quadratic-linear"})
        proc = subprocess.run(
            [sys.executable, "-m", "ciph.cli", "simulate", m, *flags, "--x0", "1,0",
             "-o", str(tmp_path / "traj.csv")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: t_end")

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"builtin": "quadratic-linear", "params": {"bogus": 1}}, "unexpected keyword argument"),
            ({"builtin": "quadratic-linear", "u": {"times": [0.0], "values": [[1.0]]}}, "without 'g'"),
            ({"builtin": "quadratic-linear", "g": {"rows": [[1.0], [0.0]]}}, "'g' has no effect without 'u'"),
        ],
    )
    def test_model_spec_errors_exit_one(self, tmp_path, capsys, payload, message):
        m = write_json(tmp_path / "m.json", payload)
        assert main(["simulate", m, "--t-end", "1", "--x0", "1,0", "-o", str(tmp_path / "t.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err

    def test_one_step_run_is_audited(self, tmp_path, capsys):
        # stage quadrature needs one step, so two samples are a full audit
        m = write_json(tmp_path / "m.json", {"builtin": "quadratic-linear"})
        argv = ["simulate", m, "--t-end", "1e-3", "--dt", "1e-3", "--x0", "1,0", "-o", str(tmp_path / "t.csv")]
        assert main(argv) == 0
        summary = stdout_reports(capsys)[0]
        assert summary["samples"] == 2 and summary["passed"] is True and "error" not in summary
        assert summary["max_energy_defect"] <= 1e-16

    def test_csv_byte_determinism(self, tmp_path, capsys):
        m = write_json(tmp_path / "m.json", {"builtin": "quadratic-linear"})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", m, "--t-end", "0.5", "--x0", "1,0", "-o", str(a)])
        out_a = capsys.readouterr().out
        main(["simulate", m, "--t-end", "0.5", "--x0", "1,0", "-o", str(b)])
        out_b = capsys.readouterr().out
        assert a.read_bytes() == b.read_bytes()
        assert out_a == out_b


class TestSimulateBoundary:
    def test_forced_heat_exchanger_passes(self, tmp_path, capsys):
        # dS != dH here, so only the chain-rule entropy gate closes
        payload = {
            "builtin": "heat-exchanger",
            "g": {"rows": [[1.0], [0.0]]},
            "u": {"times": [0.0], "values": [[0.05]]},
        }
        m = write_json(tmp_path / "m.json", payload)
        argv = ["simulate", m, "--t-end", "1", "--dt", "5e-4", "--x0", "0,0.6931471805599453"]
        assert main(argv + ["-o", str(tmp_path / "t.csv")]) == 0
        summary = stdout_reports(capsys)[0]
        assert summary["passed"] is True
        assert summary["max_entropy_defect"] <= 1e-6 * summary["entropy_scale"]
        assert summary["max_entropy_defect_alt"] > 1e-6 * summary["entropy_scale"]

    def test_summary_keys(self, tmp_path, capsys):
        m = write_json(tmp_path / "m.json", {"builtin": "quadratic-linear"})
        main(["simulate", m, "--t-end", "0.1", "--x0", "1,0", "-o", str(tmp_path / "t.csv")])
        assert list(stdout_reports(capsys)[0]) == [
            "fault",
            "t_last",
            "samples",
            "max_energy_defect",
            "max_entropy_defect",
            "max_entropy_defect_alt",
            "min_sigma_int",
            "energy_scale",
            "entropy_scale",
            "passed",
        ]

    @pytest.mark.parametrize("x0", ["nan,0", "inf,0", "0,-inf"])
    def test_non_finite_x0_exits_one(self, tmp_path, capsys, x0):
        m = write_json(tmp_path / "m.json", {"builtin": "quadratic-linear"})
        out = tmp_path / "t.csv"
        assert main(["simulate", m, "--t-end", "1", "--x0", x0, "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --x0 must be finite")
        assert not out.exists()

    @pytest.mark.parametrize("x0", ["1,zero", "1;0", ""])
    def test_non_numeric_x0_exits_one(self, tmp_path, capsys, x0):
        m = write_json(tmp_path / "m.json", {"builtin": "quadratic-linear"})
        out = tmp_path / "t.csv"
        assert main(["simulate", m, "--t-end", "1", "--x0", x0, "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --x0 must be a comma-separated list of reals, got {x0!r}\n"
        assert not out.exists()

    def test_non_finite_x0_no_warning(self, tmp_path):
        m = write_json(tmp_path / "m.json", {"builtin": "quadratic-linear"})
        proc = subprocess.run(
            [sys.executable, "-m", "ciph.cli", "simulate", m, "--t-end", "1", "--x0", "inf,0",
             "-o", str(tmp_path / "t.csv")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: --x0")

    def test_step_cap_exits_one(self, tmp_path, capsys):
        m = write_json(tmp_path / "m.json", {"builtin": "quadratic-linear"})
        out = tmp_path / "t.csv"
        argv = ["simulate", m, "--t-end", "1e12", "--dt", "1", "--x0", "1,0", "-o", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: t_end / dt") and "exceeds the cap" in captured.err
        assert not out.exists()


MODEL = {
    "n": 2,
    "H": {"poly": [[[2, 0], 0.5], [[0, 2], 0.5]]},
    "S": {"poly": [[[1, 0], 1.0], [[0, 1], 1.0]]},
    "gamma": {"poly": [[[0, 0], 1.0]]},
    "J": {"n": 2, "rows": [[0.0, 1.0], [-1.0, 0.0]]},
    "g": {"rows": [[1.0], [0.0]]},
    "u": {"times": [0.0, 5.0], "values": [[0.5], [0.0]]},
}


def _model(**change):
    return dict(MODEL, **change)


# (subcommand, files it reads as name -> payload): each file is malformed
MALFORMED = {
    "product-ragged-rows": ("product", {"A": {"n": 2, "rows": [[0.0, 1.0], [-1.0]]}}),
    "product-string-rows": ("product", {"A": {"n": 2, "rows": [["a", "b"], ["c", "d"]]}}),
    "check-direction-string": ("check", {"D": {"directions": [[1.0, 0.0], ["x", 1.0]]}}),
    "check-direction-ragged": ("check", {"D": {"directions": [[1.0, [0.0, 1.0]]]}}),
    "W-constant-string": ("simulate", {"M": _model(W={"constant": ["a", 0.0]})}),
    "W-constant-null": ("simulate", {"M": _model(W={"constant": [None, 0.0]})}),
    "g-rows-ragged": ("simulate", {"M": _model(g={"rows": [[1.0], [0.0, 2.0]]})}),
    "u-times-string": ("simulate", {"M": _model(u={"times": ["a", 5.0], "values": [[0.5], [0.0]]})}),
    "u-times-number": ("simulate", {"M": _model(u={"times": 5.0, "values": [[0.5]]})}),
    "u-times-text": ("simulate", {"M": _model(u={"times": "05", "values": [[0.5], [0.0]]})}),
    "u-values-number": ("simulate", {"M": _model(u={"times": [0.0], "values": 0.5})}),
    "u-times-nan": ("simulate", {"M": _model(u={"times": [0.0, float("nan")], "values": [[0.5], [0.0]]})}),
    "W-constant-inf": ("simulate", {"M": _model(W={"constant": [float("inf"), 0.0]})}),
    "W-poly-number": ("simulate", {"M": _model(W={"poly": 5})}),
    "W-poly-short": ("simulate", {"M": _model(W={"poly": [[[[1, 0], 1.0]]]})}),
    "W-constant-long": ("simulate", {"M": _model(W={"constant": [0.1, -0.1, 0.0]})}),
    "g-u-width": ("simulate", {"M": _model(u={"times": [0.0], "values": [[0.5, 1.0]]})}),
    "J-rows-huge": ("simulate", {"M": _model(J={"n": 2, "rows": 10**400})}),
    "poly-exponent-huge": ("simulate", {"M": _model(S={"poly": [[[10**400, 0], 1.0]]})}),
    "param-huge": ("simulate", {"M": {"builtin": "heat-exchanger", "params": {"conductance": 10**400}}}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_file_is_a_format_error(tmp_path, case):
    command, files = MALFORMED[case]
    paths = {}
    for name, payload in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(payload), encoding="utf-8")
    out = str(tmp_path / "out")
    if command == "product":
        j = write_json(tmp_path / "J.json", {"n": 2, "rows": [[0.0, 1.0], [-1.0, 0.0]]})
        argv = ["product", "-A", str(paths["A"]), "-B", j, "-o", out]
    elif command == "check":
        t = write_json(tmp_path / "t.json", {"n": 2, "entries": []})
        argv = ["check", t, "--directions", str(paths["D"])]
    else:
        argv = ["simulate", str(paths["M"]), "--t-end", "0.01", "--x0", "1,0", "-o", out]
    proc = subprocess.run([sys.executable, "-m", "ciph.cli", *argv], capture_output=True, text=True)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert proc.stdout == ""


# The file error boundary: every read or write fault ends in one line
# "error: <path>: ..." and exit 1. Reader faults, by the file they break,
# with a fragment of the expected message; MISSING_FIELD drops a required one.
READ_FAULTS = {
    "missing": (None, "No such file or directory"),
    "directory": ("dir", "Is a directory"),
    "invalid-json": (b"{not json", "not valid JSON"),
    "non-utf8": (b'{"n": 2, "x": "\xff"}', "not valid JSON: 'utf-8' codec"),
    "nested-100000": (b"[" * 100_000 + b"]" * 100_000, "not valid JSON: maximum recursion depth"),
    "missing-field": ("field", "missing field"),
}
MISSING_FIELD = {
    "tensor": ({"entries": []}, "'n'"),
    "matrix": ({"n": 2}, "'rows'"),
    "directions": ({}, "'directions' must be a nonempty list"),
    "model": ({"n": 2, "S": {"poly": []}}, "'H'"),
}
WRITERS = ("symmetrize", "product", "simulate")


def _boundary_argv(tmp_path, kind, path, out) -> list:
    tensor = write_json(tmp_path / "good_t.json", {"n": 2, "entries": []})
    matrix = write_json(tmp_path / "good_J.json", {"n": 2, "rows": [[0.0, 1.0], [-1.0, 0.0]]})
    model = write_json(tmp_path / "good_m.json", {"builtin": "quadratic-linear"})
    return {
        "tensor": ["check", path],
        "symmetrize": ["symmetrize", tensor, "-o", out],
        "matrix": ["product", "-A", path, "-B", matrix, "-o", out],
        "product": ["product", "-A", matrix, "-B", matrix, "-o", out],
        "directions": ["check", tensor, "--directions", path],
        "model": ["simulate", path, "--t-end", "0.01", "--x0", "1,0", "-o", out],
        "simulate": ["simulate", model, "--t-end", "0.01", "--x0", "1,0", "-o", out],
    }[kind]


def _one_error_line(capsys, path) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err and captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {path}: ")
    return captured.err


@pytest.mark.parametrize("fault", sorted(READ_FAULTS))
@pytest.mark.parametrize("kind", sorted(MISSING_FIELD))
def test_read_fault_names_the_file(tmp_path, capsys, kind, fault):
    content, message = READ_FAULTS[fault]
    path = tmp_path / f"{kind}.json"
    if content == "dir":
        path.mkdir()
    elif content == "field":
        payload, message = MISSING_FIELD[kind]
        write_json(path, payload)
    elif content is not None:
        path.write_bytes(content)
    out = tmp_path / "out"
    assert main(_boundary_argv(tmp_path, kind, str(path), str(out))) == 1
    assert message in _one_error_line(capsys, path)
    assert not out.exists()


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
@pytest.mark.parametrize("command", WRITERS)
def test_write_fault_names_the_file(tmp_path, capsys, command, target):
    out = tmp_path / "nowhere" / "out" if target == "missing-dir" else tmp_path
    assert main(_boundary_argv(tmp_path, command, None, str(out))) == 1
    err = _one_error_line(capsys, out)
    assert ("No such file or directory" if target == "missing-dir" else "Is a directory") in err


# Finite entries up to the largest double: sums of two of them overflow, and
# so do the checkers' residuals. Pairs of subnormals test the other end.
NEAR_MAX = [1.7976931348623157e308, -1.7976931348623157e308, 1.5e308, -1.2e308, 9e307,
            1e308, 5e-324, -1e-323, 2.5e-308, 1.0, 0.0]


@pytest.fixture
def near_max_file(tmp_path):
    values = np.random.default_rng(7).choice(NEAR_MAX, size=(3, 3, 3, 3))
    p = tmp_path / "big.json"
    save_tensor(Tensor4(3, values), p)
    return p


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNearMaxTensor:
    """Overflow inside numpy surfaces as an exit code, never as a warning."""

    @pytest.mark.parametrize("command", ["check", "split", "oracle"])
    def test_no_runtime_warning(self, near_max_file, capsys, command):
        assert main([command, str(near_max_file)]) in (0, 1, 2, 3)

    def test_symmetrize_is_the_correctly_rounded_average(self, near_max_file, tmp_path, capsys):
        out = tmp_path / "sym.json"
        assert main(["symmetrize", str(near_max_file), "-o", str(out)]) == 0
        v = load_tensor(near_max_file).values
        s = load_tensor(out).values
        with np.errstate(over="ignore"):  # the case under test occurs
            assert np.isinf(v + v.transpose(0, 1, 3, 2)).any()
        for (i, j, k, l), x in np.ndenumerate(v):
            assert s[i, j, k, l] == float((Fraction(x) + Fraction(v[i, j, l, k])) / 2)
        again = tmp_path / "again.json"
        assert main(["symmetrize", str(out), "-o", str(again)]) == 0
        assert again.read_bytes() == out.read_bytes()


class TestModelChecks:
    """Model-file faults that surface when the model is built: exit 1, no output."""

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"u": {"times": [0.0], "values": [[0.5, 1.0]]}}, "g has shape (2, 1), u has shape (2,)"),
            ({"J": {"n": 7, "rows": [[0.0, 1.0], [-1.0, 0.0]]}}, "'J' has n = 7"),
            ({"J": {"n": 2.5, "rows": [[0.0, 1.0], [-1.0, 0.0]]}}, "'J' has an invalid 'n'"),
            ({"J": {"n": True, "rows": [[0.0, 1.0], [-1.0, 0.0]]}}, "'J' has an invalid 'n'"),
            ({"J": {"n": 3, "rows": [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}},
             "'J' has n = 3 and rows of shape (3, 3), model n = 2"),
            ({"W": None}, "'W' must be a 'constant' or 'poly' (list) spec, got None"),
            ({"g": None}, "'g' must be a constant 'rows' spec, got None"),
            ({"u": None}, "'u' must have 'times' and 'values', got None"),
            ({"W": {"constant": [0.1, -0.1, 0.0]}}, "W has shape (3,), expected (2,)"),
            ({"W": {"poly": [[[[1, 0], 1.0]]]}}, "'W' needs 2 components, got 1"),
            ({"g": {"rows": [[1.0, 0.0]]}}, "g has shape (1, 2), u has shape (1,)"),
            ({"g": {"rows": [1.0, 0.0]}}, "g has shape (2,), u has shape (1,)"),
        ],
    )
    def test_model_fault_exits_one(self, tmp_path, capsys, change, message):
        m = write_json(tmp_path / "m.json", _model(**change))
        out = tmp_path / "t.csv"
        assert main(["simulate", m, "--t-end", "0.01", "--x0", "1,0", "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {m}: ") and message in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_skew_test_does_not_depend_on_j_units(self, tmp_path, capsys, scale):
        # J carries a 1-ulp asymmetry in either unit; gamma = 1 / scale^2
        # keeps the dynamics the same
        J = {"rows": [[0.0, float(np.nextafter(3.0 * scale, np.inf))], [-3.0 * scale, 0.0]]}
        gamma = {"poly": [[[0, 0], 1.0 / scale**2]]}
        m = write_json(tmp_path / "m.json", _model(J=J, gamma=gamma))
        argv = ["simulate", m, "--t-end", "0.01", "--x0", "1,0", "-o", str(tmp_path / "t.csv")]
        assert main(argv) == 0
        assert stdout_reports(capsys)[0]["passed"] is True
        J["rows"][0][1] = 3.0 * scale * (1.0 + 1e-11)
        m = write_json(tmp_path / "m.json", _model(J=J, gamma=gamma))
        assert main(argv) == 1
        assert "J must be skew-symmetric" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [2, 2.0, None])
    def test_matching_j_n_accepted(self, tmp_path, capsys, n):
        J = {"rows": [[0.0, 1.0], [-1.0, 0.0]]} if n is None else {"n": n, "rows": [[0.0, 1.0], [-1.0, 0.0]]}
        m = write_json(tmp_path / "m.json", _model(J=J))
        assert main(["simulate", m, "--t-end", "0.01", "--x0", "1,0", "-o", str(tmp_path / "t.csv")]) == 0


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_successive_calls_do_not_leak_state(self, eps_file, tmp_path, capsys):
        def run(*argv):
            code = main(list(argv))
            return code, capsys.readouterr().out

        plain = run("check", eps_file)
        assert {r["tolerance"] for r in map(json.loads, plain[1].splitlines())} == {1e-10}
        tight = run("check", eps_file, "--tol", "1e-3")
        assert {r["tolerance"] for r in map(json.loads, tight[1].splitlines())} == {1e-3}
        m = write_json(tmp_path / "m.json", {"builtin": "quadratic-linear"})
        out = tmp_path / "t.csv"
        assert run("simulate", m, "--t-end", "0.01", "--dt", "5e-3", "--x0", "1,0", "-o", str(out))[0] == 0
        assert len(out.read_text().splitlines()) == 4
        assert run("split", eps_file, "--tol", "1e-3")[0] == 0
        assert run("check", eps_file) == plain
        assert run("simulate", m, "--t-end", "0.01", "--x0", "1,0", "-o", str(out))[0] == 0
        assert len(out.read_text().splitlines()) == 12  # the default --dt 1e-3 again
        assert run("check", eps_file, "--bogus")[0] == 1
        assert run("check", eps_file) == plain


class TestOracle:
    def test_agreement_on_golden_tensor(self, eps_file, capsys):
        assert main(["oracle", eps_file]) == 0
        result = stdout_reports(capsys)[0]
        assert result["agree"] is True
        assert result["primary"]["QUASI_POISSON"] is False

    def test_hidden_from_listing(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "oracle" not in capsys.readouterr().out


def test_console_entry_point(tmp_path):
    p = tmp_path / "zero.json"
    p.write_text(json.dumps({"n": 2, "entries": []}), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "ciph.cli", "check", str(p)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.count("\n") == 5
