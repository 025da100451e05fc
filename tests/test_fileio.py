import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ciph import BracketMatrix, DimensionMismatch, DimensionTooLarge, FormatError, Tensor4, integrate
from ciph.dynamics import Trajectory, balance_ledger, quadratic_linear_model
from ciph.fileio import (
    load_directions,
    load_matrix,
    load_model,
    load_tensor,
    save_matrix,
    save_tensor,
    write_trajectory_csv,
)
from ciph.tensor import MAX_DIMENSION

from conftest import EPS_ENTRIES


def write_json(path, payload) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestTensorFormat:
    def test_round_trip(self, tmp_path, golden_eps):
        p = tmp_path / "eps.json"
        save_tensor(golden_eps, p)
        assert load_tensor(p) == golden_eps

    def test_omitted_entries_are_zero(self, tmp_path):
        p = write_json(tmp_path / "t.json", {"n": 2, "entries": []})
        assert load_tensor(p) == Tensor4.zeros(2)

    def test_duplicate_entry_rejected(self, tmp_path):
        payload = {
            "n": 2,
            "entries": [
                {"i": 1, "j": 1, "k": 1, "l": 1, "v": 1.0},
                {"i": 1, "j": 1, "k": 1, "l": 1, "v": 2.0},
            ],
        }
        p = write_json(tmp_path / "dup.json", payload)
        with pytest.raises(FormatError, match=r"duplicate entry for index \(1, 1, 1, 1\)"):
            load_tensor(p)

    def test_out_of_range_index_names_entry(self, tmp_path):
        payload = {"n": 2, "entries": [{"i": 3, "j": 1, "k": 1, "l": 1, "v": 1.0}]}
        p = write_json(tmp_path / "oob.json", payload)
        with pytest.raises(FormatError, match="entry #1"):
            load_tensor(p)

    def test_malformed_entry_names_position(self, tmp_path):
        payload = {"n": 2, "entries": [{"i": 1, "j": 1, "k": 1, "v": 1.0}]}
        p = write_json(tmp_path / "bad.json", payload)
        with pytest.raises(FormatError, match="entry #1"):
            load_tensor(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError):
            load_tensor(tmp_path / "nope.json")

    def test_not_json(self, tmp_path):
        p = tmp_path / "garbage.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(FormatError):
            load_tensor(p)

    def test_save_omits_zeros_and_orders_entries(self, tmp_path, golden_eps):
        p = tmp_path / "eps.json"
        save_tensor(golden_eps, p)
        data = json.loads(p.read_text())
        assert len(data["entries"]) == len(EPS_ENTRIES)
        keys = [(e["i"], e["j"], e["k"], e["l"]) for e in data["entries"]]
        assert keys == sorted(keys)


    @pytest.mark.parametrize("n", [-1, 0, 33, 10**30])
    def test_dimension_checked_before_allocation(self, tmp_path, n):
        p = write_json(tmp_path / "t.json", {"n": n, "entries": []})
        with pytest.raises(FormatError, match="dimension"):
            load_tensor(p)

    def test_non_numeric_dimension(self, tmp_path):
        with pytest.raises(FormatError, match="'n'"):
            load_tensor(write_json(tmp_path / "t.json", {"n": "two", "entries": []}))

    @pytest.mark.parametrize("n", [2.5, 1.999, True, "2", None, [2]])
    def test_non_integral_dimension_rejected(self, tmp_path, n):
        for payload, load in (({"n": n, "entries": []}, load_tensor),
                              ({"n": n, "rows": [[0.0, 1.0], [-1.0, 0.0]]}, load_matrix)):
            with pytest.raises(FormatError, match="'n'"):
                load(write_json(tmp_path / "f.json", payload))

    def test_integral_float_dimension_accepted(self, tmp_path):
        assert load_tensor(write_json(tmp_path / "t.json", {"n": 2.0, "entries": []})).n == 2
        assert load_matrix(write_json(tmp_path / "a.json", {"n": 2.0, "rows": [[0.0, 1.0], [-1.0, 0.0]]})).n == 2

    @pytest.mark.parametrize("index", [10**30, 10**400])
    def test_huge_index_rejected(self, tmp_path, index):
        payload = {"n": 2, "entries": [{"i": index, "j": 1, "k": 1, "l": 1, "v": 1.0}]}
        with pytest.raises(FormatError, match="entry #1"):
            load_tensor(write_json(tmp_path / "t.json", payload))

    def test_out_of_range_names_later_entry(self, tmp_path):
        entries = [
            {"i": 1, "j": 1, "k": 1, "l": 1, "v": 1.0},
            {"i": 1, "j": 2, "k": 0, "l": 1, "v": 1.0},
        ]
        with pytest.raises(FormatError, match=r"entry #2 index \(1, 2, 0, 1\)"):
            load_tensor(write_json(tmp_path / "t.json", {"n": 2, "entries": entries}))


def reference_tensor_text(t: Tensor4) -> str:
    """The tensor file as ``json.dumps`` writes it from one dict per nonzero
    entry, visited in row-major order by a plain index loop."""
    v = t.values
    entries = [
        {"i": i + 1, "j": j + 1, "k": k + 1, "l": l + 1, "v": float(v[i, j, k, l])}
        for i, j, k, l in np.ndindex(v.shape)
        if v[i, j, k, l] != 0
    ]
    return json.dumps({"n": t.n, "entries": entries}, indent=1) + "\n"


EXTREMES = [5e-324, -1e-300, 0.1, 2.0, 1e16, 1e22, 1.7976931348623157e308]


def _writer_cases() -> dict:
    rng = np.random.default_rng(20260501)
    cases = {"empty": Tensor4.zeros(3), "n1": Tensor4(1, rng.standard_normal((1, 1, 1, 1)))}
    for n in range(2, 7):  # dense, magnitudes spread over 20 decades
        shape = (n, n, n, n)
        scale = 10.0 ** rng.integers(-10, 10, shape)
        cases[f"dense-n{n}"] = Tensor4(n, rng.standard_normal(shape) * scale)
    sparse = rng.standard_normal((5, 5, 5, 5)) * (rng.random((5, 5, 5, 5)) < 0.05)
    cases["sparse-n5"] = Tensor4(5, sparse)
    extremes = np.zeros((3, 3, 3, 3))
    flat = rng.choice(81, size=2 * len(EXTREMES), replace=False)
    extremes.reshape(-1)[flat] = EXTREMES + [-x for x in EXTREMES]
    cases["extremes"] = Tensor4(3, extremes)
    return cases


WRITER_CASES = _writer_cases()

ROUND_TRIP = settings(
    derandomize=True,
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def sparse_tensors(draw) -> Tensor4:
    n = draw(st.integers(1, 4))
    index = st.tuples(*[st.integers(0, n - 1)] * 4)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = draw(st.dictionaries(index, finite, max_size=30))
    arr = np.zeros((n, n, n, n))
    for key, value in values.items():
        arr[key] = value
    return Tensor4(n, arr)


class TestTensorWriterBytes:
    @pytest.mark.parametrize("case", sorted(WRITER_CASES))
    def test_matches_reference_encoder(self, tmp_path, case):
        t = WRITER_CASES[case]
        p = tmp_path / "t.json"
        save_tensor(t, p)
        assert p.read_bytes() == reference_tensor_text(t).encode("utf-8")
        assert load_tensor(p) == t

    def test_extreme_values_written_as_json_floats(self, tmp_path):
        p = tmp_path / "t.json"
        save_tensor(WRITER_CASES["extremes"], p)
        text = p.read_text()
        for x in EXTREMES:
            assert f'"v": {x!r}\n' in text and f'"v": {-x!r}\n' in text

    def test_negative_zero_omitted(self, tmp_path):
        arr = np.zeros((2, 2, 2, 2))
        arr[0, 0, 0, 0] = -0.0
        arr[0, 1, 1, 0] = 1.5
        arr[1, 1, 1, 1] = -0.0
        t = Tensor4(2, arr)
        p = tmp_path / "t.json"
        save_tensor(t, p)
        assert p.read_bytes() == reference_tensor_text(t).encode("utf-8")
        assert [e["v"] for e in json.loads(p.read_text())["entries"]] == [1.5]


class TestTensorReaderParity:
    @ROUND_TRIP
    @given(t=sparse_tensors())
    def test_round_trip_is_bit_exact(self, tmp_path, t):
        p = tmp_path / "t.json"
        save_tensor(t, p)
        assert p.read_text() == reference_tensor_text(t)
        loaded = load_tensor(p)
        # -0.0 is omitted on write, so it reads back as +0.0
        assert loaded.n == t.n and loaded.values.tobytes() == (t.values + 0.0).tobytes()

    GOOD = {"i": 1, "j": 2, "k": 1, "l": 2, "v": 0.5}
    MALFORMED = {
        "missing-key": {"i": 1, "j": 2, "k": 1, "v": 0.5},
        "null-value": dict(GOOD, v=None),
        "non-object": [1, 2, 1, 2, 0.5],
        "nan-index": dict(GOOD, k=float("nan")),
        "non-numeric-string": dict(GOOD, j="two"),
        "huge-integer": dict(GOOD, v=10**400),
        "fractional-index": dict(GOOD, i=1.7),
        "nan-value": dict(GOOD, v=float("nan")),
        "infinite-value": dict(GOOD, v=float("-inf")),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_first_malformed_entry_named(self, tmp_path, case):
        bad = self.MALFORMED[case]
        entries = [dict(self.GOOD, i=2), dict(self.GOOD, j=1), bad, {"i": 1}]
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"n": 2, "entries": entries}), encoding="utf-8")
        with pytest.raises(FormatError) as excinfo:
            load_tensor(p)
        assert str(excinfo.value) == f"{p}: entry #3 is malformed: {bad!r}"

    def test_integral_float_index_accepted(self, tmp_path):
        entries = [{"i": 2.0, "j": 1, "k": 1.0, "l": 2, "v": 3}]
        p = write_json(tmp_path / "t.json", {"n": 2, "entries": entries})
        assert load_tensor(p) == Tensor4.from_entries(2, {(2, 1, 1, 2): 3.0})

    def test_indented_layout_accepted(self, tmp_path, golden_eps):
        entries = [dict(zip("ijklv", (*key, v))) for key, v in EPS_ENTRIES.items()]
        payload = {"entries": entries, "n": 2}
        p = tmp_path / "t.json"
        p.write_text(json.dumps(payload, indent=4, sort_keys=True), encoding="utf-8")
        assert load_tensor(p) == golden_eps


class TestFromEntries:
    def test_matches_dense_assignment(self):
        entries = [(1, 2, 2, 1, 1.5), (2, 1, 1, 2, -0.5), (2, 2, 2, 2, 3.0)]
        arr = np.zeros((2, 2, 2, 2))
        for i, j, k, l, v in entries:
            arr[i - 1, j - 1, k - 1, l - 1] = v
        assert Tensor4.from_entries(2, entries) == Tensor4(2, arr)
        assert Tensor4.from_entries(2, {e[:4]: e[4] for e in entries}) == Tensor4(2, arr)
        assert Tensor4.from_entries(2, []) == Tensor4.zeros(2)

    @pytest.mark.parametrize("n", [-1, 0])
    def test_nonpositive_dimension_checked_first(self, n):
        with pytest.raises(DimensionMismatch):
            Tensor4.from_entries(n, [(1, 1, 1, 1, 1.0)])

    def test_too_large_dimension_checked_first(self):
        with pytest.raises(DimensionTooLarge):
            Tensor4.from_entries(MAX_DIMENSION + 1, [(1, 1, 1, 1, 1.0)])

    def test_first_repeat_named(self):
        entries = [(1, 1, 1, 1, 1.0), (1, 2, 1, 2, 1.0), (2, 2, 2, 2, 1.0), (1, 2, 1, 2, 1.0),
                   (1, 1, 1, 1, 1.0)]
        with pytest.raises(FormatError, match=r"duplicate entry for index \(1, 2, 1, 2\)"):
            Tensor4.from_entries(2, entries)

    @pytest.mark.parametrize("slot", range(4))
    @pytest.mark.parametrize("bad", [0, 3])
    def test_first_out_of_range_entry_named(self, slot, bad):
        key = [1, 1, 1, 1]
        key[slot] = bad
        entries = [(1, 1, 1, 1, 1.0), (2, 1, 1, 1, 1.0), (*key, 1.0), (9, 9, 9, 9, 1.0)]
        named = rf"entry #3 index \({', '.join(map(str, key))}\) out of range 1..2"
        with pytest.raises(FormatError, match=named):
            Tensor4.from_entries(2, entries)

    def test_huge_index_in_rows_rejected(self):
        with pytest.raises(FormatError, match="out of range"):
            Tensor4.from_entries(2, [(10**400, 1, 1, 1, 1.0)])

    def test_non_finite_value_rejected(self):
        with pytest.raises(FormatError, match="finite"):
            Tensor4.from_entries(2, [(1, 1, 1, 1, float("nan"))])


class TestMatrixFormat:
    def test_round_trip(self, tmp_path, j_std):
        p = tmp_path / "J.json"
        save_matrix(j_std, p)
        assert load_matrix(p) == j_std

    def test_shape_mismatch(self, tmp_path):
        p = write_json(tmp_path / "bad.json", {"n": 2, "rows": [[0.0, 1.0]]})
        with pytest.raises(FormatError):
            load_matrix(p)


class TestDirectionsFormat:
    def test_load(self, tmp_path):
        p = write_json(tmp_path / "dirs.json", {"directions": [[1.0, 0.0], [0.0, 1.0]]})
        dirs = load_directions(p, 2)
        assert len(dirs) == 2
        assert np.array_equal(dirs[0], [1.0, 0.0])

    def test_wrong_length(self, tmp_path):
        p = write_json(tmp_path / "dirs.json", {"directions": [[1.0, 0.0, 0.0]]})
        with pytest.raises(FormatError, match="direction #1"):
            load_directions(p, 2)

    def test_empty(self, tmp_path):
        p = write_json(tmp_path / "dirs.json", {"directions": []})
        with pytest.raises(FormatError):
            load_directions(p, 2)


class TestModelFormat:
    def test_builtin_model(self, tmp_path):
        p = write_json(tmp_path / "m.json", {"builtin": "quadratic-linear"})
        model = load_model(p)
        assert model.name == "quadratic-linear"
        assert model.n == 2

    def test_builtin_with_params(self, tmp_path):
        p = write_json(
            tmp_path / "m.json", {"builtin": "heat-exchanger", "params": {"conductance": 2.0}}
        )
        model = load_model(p)
        assert model.gamma.value([0.0, 0.0]) == pytest.approx(2.0)

    def test_explicit_polynomial_model(self, tmp_path):
        payload = {
            "n": 2,
            "H": {"poly": [[[2, 0], 0.5], [[0, 2], 0.5]]},
            "S": {"poly": [[[1, 0], 1.0], [[0, 1], 1.0]]},
            "gamma": {"poly": [[[0, 0], 1.0]]},
            "J": {"n": 2, "rows": [[0.0, 1.0], [-1.0, 0.0]]},
        }
        p = write_json(tmp_path / "m.json", payload)
        model = load_model(p)
        assert model.H.value([1.0, 0.0]) == 0.5
        assert model.S.value([1.0, 1.0]) == 2.0

    def test_builtin_field_spec(self, tmp_path):
        payload = {
            "n": 2,
            "H": {"builtin": "exp_sum"},
            "S": {"poly": [[[1, 0], 1.0], [[0, 1], 1.0]]},
            "gamma": {"builtin": "exp_neg_sum", "params": {"scale": 1.0}},
            "J": {"n": 2, "rows": [[0.0, 1.0], [-1.0, 0.0]]},
        }
        p = write_json(tmp_path / "m.json", payload)
        model = load_model(p)
        assert model.H.value([0.0, 0.0]) == pytest.approx(2.0)

    def test_constant_w_and_schedule(self, tmp_path):
        payload = {
            "builtin": "quadratic-linear",
            "W": {"constant": [0.1, -0.1]},
            "g": {"rows": [[1.0], [0.0]]},
            "u": {"times": [0.0, 1.0], "values": [[0.5], [0.0]]},
        }
        p = write_json(tmp_path / "m.json", payload)
        model = load_model(p)
        assert np.array_equal(model.W([0.0, 0.0], None), [0.1, -0.1])
        assert np.array_equal(model.u(0.5), [0.5])
        assert np.array_equal(model.u(1.5), [0.0])
        assert np.array_equal(model.u(-0.5), [0.0])

    def test_polynomial_w_components(self, tmp_path):
        payload = {
            "builtin": "quadratic-linear",
            "W": {"poly": [[[[1, 0], 1.0]], [[[0, 0], 2.0]]]},
        }
        model = load_model(write_json(tmp_path / "m.json", payload))
        assert np.array_equal(model.W([3.0, 0.0], None), [3.0, 2.0])

    def test_missing_field_reported(self, tmp_path):
        p = write_json(tmp_path / "m.json", {"n": 2, "H": {"poly": []}})
        with pytest.raises(FormatError):
            load_model(p)

    def test_bad_schedule_rejected(self, tmp_path):
        payload = {
            "builtin": "quadratic-linear",
            "g": {"rows": [[1.0], [0.0]]},
            "u": {"times": [1.0, 0.5], "values": [[1.0], [2.0]]},
        }
        with pytest.raises(FormatError, match="strictly increasing"):
            load_model(write_json(tmp_path / "m.json", payload))


class TestModelBoundary:
    def test_u_without_g_rejected(self, tmp_path):
        payload = {"builtin": "quadratic-linear", "u": {"times": [0.0], "values": [[1.0]]}}
        with pytest.raises(FormatError, match="'u' has no effect without 'g'"):
            load_model(write_json(tmp_path / "m.json", payload))

    def test_g_and_u_together_accepted(self, tmp_path):
        payload = {
            "builtin": "quadratic-linear",
            "g": {"rows": [[1.0], [0.0]]},
            "u": {"times": [0.0], "values": [[1.0]]},
        }
        assert load_model(write_json(tmp_path / "m.json", payload)).forced

    @pytest.mark.parametrize(
        "params",
        [
            {"bogus": 1},
            {"conductance": "hot"},
            {"conductance": True},
            {"conductance": float("nan")},
            [1.0],
        ],
    )
    def test_bad_builtin_model_params(self, tmp_path, params):
        payload = {"builtin": "heat-exchanger", "params": params}
        with pytest.raises(FormatError, match="heat-exchanger"):
            load_model(write_json(tmp_path / "m.json", payload))

    def test_params_on_parameterless_builtin(self, tmp_path):
        payload = {"builtin": "quadratic-linear", "params": {"bogus": 1}}
        with pytest.raises(FormatError, match="unexpected keyword argument 'bogus'"):
            load_model(write_json(tmp_path / "m.json", payload))

    @pytest.mark.parametrize("params", [{"bogus": 1}, {"n": 3}])
    def test_bad_builtin_field_params(self, tmp_path, params):
        payload = {
            "n": 2,
            "H": {"builtin": "exp_sum", "params": params},
            "S": {"poly": [[[1, 0], 1.0]]},
            "gamma": {"poly": [[[0, 0], 1.0]]},
            "J": {"n": 2, "rows": [[0.0, 1.0], [-1.0, 0.0]]},
        }
        with pytest.raises(FormatError, match="exp_sum"):
            load_model(write_json(tmp_path / "m.json", payload))

    @pytest.mark.parametrize("n", [2.5, True, "2"])
    def test_non_integral_dimension_rejected(self, tmp_path, n):
        payload = {
            "n": n,
            "H": {"poly": [[[2, 0], 0.5]]},
            "S": {"poly": [[[1, 0], 1.0]]},
            "gamma": {"poly": [[[0, 0], 1.0]]},
            "J": {"n": 2, "rows": [[0.0, 1.0], [-1.0, 0.0]]},
        }
        with pytest.raises(FormatError, match="invalid 'n'"):
            load_model(write_json(tmp_path / "m.json", payload))
        assert load_model(write_json(tmp_path / "m.json", dict(payload, n=2.0))).n == 2

    @pytest.mark.parametrize(
        "change",
        [{"n": "two"}, {"J": [[0.0, 1.0], [-1.0, 0.0]]}, {"J": {"rows": [[0.0, 1.0], [-1.0]]}},
         {"S": {"poly": 5}}],
    )
    def test_malformed_explicit_model(self, tmp_path, change):
        payload = {
            "n": 2,
            "H": {"poly": [[[2, 0], 0.5]]},
            "S": {"poly": [[[1, 0], 1.0]]},
            "gamma": {"poly": [[[0, 0], 1.0]]},
            "J": {"n": 2, "rows": [[0.0, 1.0], [-1.0, 0.0]]},
        }
        payload.update(change)
        with pytest.raises(FormatError):
            load_model(write_json(tmp_path / "m.json", payload))


class TestPolynomialTerms:
    MODEL = {
        "n": 2,
        "H": {"poly": [[[2, 0], 0.5], [[0, 2], 0.5]]},
        "S": {"poly": [[[1, 0], 1.0]]},
        "gamma": {"poly": [[[0, 0], 1.0]]},
        "J": {"n": 2, "rows": [[0.0, 1.0], [-1.0, 0.0]]},
    }

    @pytest.mark.parametrize(
        "term", [[[2.9, 0], 0.5], [[2, -0.5], 0.5], [[1e400, 0], 0.5], [["x", 0], 0.5], [[2, 0]], 7]
    )
    def test_malformed_term_named(self, tmp_path, term):
        payload = dict(self.MODEL, H={"poly": [[[0, 2], 0.5], term]})
        with pytest.raises(FormatError) as excinfo:
            load_model(write_json(tmp_path / "m.json", payload))
        assert str(excinfo.value).endswith(f"field 'H': 'poly' term #2 is malformed: {term!r}")

    def test_integral_float_exponent_accepted(self, tmp_path):
        payload = dict(self.MODEL, H={"poly": [[[2.0, 0], 0.5], [[0, 2.0], 0.5]]})
        model = load_model(write_json(tmp_path / "m.json", payload))
        assert model.H.value([3.0, 1.0]) == 5.0


class TestTrajectoryCsv:
    def test_header_and_shape(self, tmp_path):
        model = quadratic_linear_model()
        tr = integrate(model, [1.0, 0.0], t_end=0.01, dt=1e-3)
        p = tmp_path / "traj.csv"
        write_trajectory_csv(model, tr, p)
        lines = p.read_text().strip().split("\n")
        assert lines[0] == "t,x1,x2,H,S,sigma_int,energy_defect"
        assert len(lines) == 1 + len(tr)
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1.0

    def test_full_precision_round_trip(self, tmp_path):
        model = quadratic_linear_model()
        tr = integrate(model, [1.0, 0.0], t_end=0.01, dt=1e-3)
        p = tmp_path / "traj.csv"
        write_trajectory_csv(model, tr, p)
        rows = [line.split(",") for line in p.read_text().strip().split("\n")[1:]]
        parsed = np.array([[float(v) for v in row] for row in rows])
        assert np.array_equal(parsed[:, 3], tr.H_values)  # 17 digits round-trip exactly

    def test_energy_defect_is_drift_for_isolated_model(self, tmp_path):
        model = quadratic_linear_model()
        tr = integrate(model, [1.0, 0.0], t_end=0.01, dt=1e-3)
        p = tmp_path / "traj.csv"
        write_trajectory_csv(model, tr, p)
        rows = [line.split(",") for line in p.read_text().strip().split("\n")[1:]]
        defects = np.array([float(r[-1]) for r in rows])
        assert np.array_equal(defects, tr.H_values - tr.H_values[0])

    def test_byte_determinism(self, tmp_path):
        model = quadratic_linear_model()
        tr = integrate(model, [1.0, 0.0], t_end=0.01, dt=1e-3)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trajectory_csv(model, tr, p1)
        write_trajectory_csv(model, tr, p2)
        assert p1.read_bytes() == p2.read_bytes()


def join_rows(rows) -> str:
    """The CSV body as a per-number format() join (the writer's former form)."""
    return "".join(",".join(format(float(v), ".17g") for v in row) + "\n" for row in rows)


class TestTrajectoryCsvFormat:
    EXTREMES = [0.0, -0.0, 1.0, -3.0, 1e16, 5e-324, -5e-324, 1.7976931348623157e308,
                -1.7976931348623157e308, 2.2250738585072014e-308, 0.1, 1 / 3, np.inf, -np.inf, np.nan]

    def test_body_matches_per_number_format(self, tmp_path):
        values = np.array(self.EXTREMES)
        k = len(values)
        tr = Trajectory(
            times=np.arange(k) * 0.5,
            states=np.column_stack([values, values[::-1]]),
            H_values=values,
            S_values=np.roll(values, 3),
            sigma_int=np.roll(values, 7),
            p=np.zeros(k),
            q=np.zeros(k),
            supplied=np.column_stack([np.roll(values, 5), values, values]),
            fault="NonFiniteState",
        )
        p = tmp_path / "traj.csv"
        write_trajectory_csv(quadratic_linear_model(), tr, p)
        header, _, body = p.read_text(encoding="utf-8").partition("\n")
        assert header == "t,x1,x2,H,S,sigma_int,energy_defect"
        energy = balance_ledger(tr)[0]
        rows = np.column_stack([tr.times, tr.states, tr.H_values, tr.S_values, tr.sigma_int, energy])
        assert body == join_rows(rows.tolist())
        for token in ("nan", "inf", "-inf", "-0", "4.9406564584124654e-324", "1.7976931348623157e+308"):
            assert token in body.replace("\n", ",").split(",")

    def test_integrated_body_matches_per_number_format(self, tmp_path):
        model = quadratic_linear_model()
        tr = integrate(model, [1.0, 0.0], t_end=0.05, dt=1e-2)
        p = tmp_path / "traj.csv"
        write_trajectory_csv(model, tr, p)
        rows = np.column_stack([tr.times, tr.states, tr.H_values, tr.S_values, tr.sigma_int,
                                balance_ledger(tr)[0]])
        assert p.read_text(encoding="utf-8").partition("\n")[2] == join_rows(rows.tolist())
        assert p.read_text(encoding="utf-8").split("\n")[1].startswith("0,1,0,0.5,1,")
