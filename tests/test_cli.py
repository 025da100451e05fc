import json
import subprocess
import sys

import numpy as np
import pytest

from ciph.cli import main
from ciph.fileio import load_tensor, save_matrix, save_tensor

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


def stdout_reports(capsys):
    out = capsys.readouterr().out
    return [json.loads(line) for line in out.strip().split("\n") if line]


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
        monkeypatch.setenv("CIPH_SEED", "not-a-number")
        assert main(["check", eps_file]) == 1
        assert "CIPH_SEED" in capsys.readouterr().err

    def test_hex_seed_env(self, eps_file, capsys, monkeypatch):
        monkeypatch.setenv("CIPH_SEED", "0x1234")
        assert main(["check", eps_file]) == 0


class TestSymmetrize:
    def test_doubled_product_becomes_golden_tensor(self, tmp_path, e_j, golden_eps, capsys):
        from ciph import Tensor4

        src = tmp_path / "2ej.json"
        save_tensor(Tensor4(2, 2.0 * e_j.values), src)
        out = tmp_path / "sym.json"
        assert main(["symmetrize", str(src), "-o", str(out)]) == 0
        assert load_tensor(out) == golden_eps


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
        ],
    )
    def test_model_spec_errors_exit_one(self, tmp_path, capsys, payload, message):
        m = write_json(tmp_path / "m.json", payload)
        assert main(["simulate", m, "--t-end", "1", "--x0", "1,0", "-o", str(tmp_path / "t.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err

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
