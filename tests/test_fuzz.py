"""Mutated input files for every subcommand must end in a documented exit
code (0-4), never in an exception escaping ``cli.main``.

Each example takes a valid document (tensor, matrix, directions or model
file), replaces, deletes or wraps one value somewhere inside it, writes it
out and runs the subcommand that reads it in-process. Examples are
derandomized and few, so the run is reproducible and takes a few seconds.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ciph.cli import main

from conftest import EPS_ENTRIES

# Overflow inside numpy must surface as an exit code, not as a warning line.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

TENSOR = {
    "n": 2,
    "entries": [{"i": i, "j": j, "k": k, "l": l, "v": v} for (i, j, k, l), v in EPS_ENTRIES.items()],
}
MATRIX = {"n": 2, "rows": [[0.0, 1.0], [-1.0, 0.0]]}
DIRECTIONS = {"directions": [[1.0, 0.0], [1.0, 1.0], [0.0, -1.0]]}
MODEL = {
    "n": 2,
    "H": {"poly": [[[2, 0], 0.5], [[0, 2], 0.5]]},
    "S": {"poly": [[[1, 0], 1.0], [[0, 1], 1.0]]},
    "gamma": {"poly": [[[0, 0], 1.0]]},
    "J": {"n": 2, "rows": [[0.0, 1.0], [-1.0, 0.0]]},
    "W": {"constant": [0.1, -0.1]},
    "g": {"rows": [[1.0], [0.0]]},
    "u": {"times": [0.0, 0.005], "values": [[0.5], [0.0]]},
}
BUILTIN_MODEL = {"builtin": "heat-exchanger", "params": {"conductance": 1.0}}
FIELD_MODEL = dict(MODEL, H={"builtin": "exp_sum", "params": {"scale": 1.0}})

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 6),
    st.sampled_from([33, 10**20, -(10**20), 10**400]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=2), inner, max_size=2)
    ),
    max_leaves=6,
)


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for pos, value in enumerate(doc):
            yield from _paths(value, prefix + (pos,))


def _mutate(doc, path, action, value):
    """A deep copy of doc with the value at path replaced, deleted or wrapped."""
    doc = json.loads(json.dumps(doc))
    if not path:
        return value if action == "replace" else [doc]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if action == "replace":
        parent[key] = value
    elif action == "delete":
        del parent[key]
    else:
        parent[key] = [parent[key]]
    return doc


@st.composite
def mutated(draw, doc):
    path = draw(st.sampled_from(list(_paths(doc))))
    action = draw(st.sampled_from(["replace", "delete", "wrap"]))
    return _mutate(doc, path, action, draw(VALUES))


def _write(path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _run(argv, capsys) -> None:
    code = main(argv)
    capsys.readouterr()
    assert code in (0, 1, 2, 3, 4)


FUZZ = settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@FUZZ
@given(tensor=mutated(TENSOR), command=st.sampled_from(["check", "symmetrize", "split", "oracle"]))
def test_tensor_commands(tmp_path, capsys, tensor, command):
    path = _write(tmp_path / "t.json", tensor)
    argv = [command, path] + (["-o", str(tmp_path / "out.json")] if command == "symmetrize" else [])
    _run(argv, capsys)


@FUZZ
@given(directions=mutated(DIRECTIONS))
def test_check_directions(tmp_path, capsys, directions):
    tensor = _write(tmp_path / "t.json", TENSOR)
    _run(["check", tensor, "--directions", _write(tmp_path / "d.json", directions)], capsys)


@FUZZ
@given(a=mutated(MATRIX), b_mutated=st.booleans())
def test_product(tmp_path, capsys, a, b_mutated):
    a_path = _write(tmp_path / "a.json", a)
    b_path = _write(tmp_path / "b.json", MATRIX)
    pair = [b_path, a_path] if b_mutated else [a_path, b_path]
    _run(["product", "-A", pair[0], "-B", pair[1], "-o", str(tmp_path / "out.json")], capsys)


@settings(FUZZ, max_examples=120)
@given(model=st.one_of(mutated(MODEL), mutated(BUILTIN_MODEL), mutated(FIELD_MODEL)))
def test_simulate(tmp_path, capsys, model):
    path = _write(tmp_path / "m.json", model)
    argv = ["simulate", path, "--t-end", "0.01", "--dt", "1e-3", "--x0", "0.5,0.25"]
    _run(argv + ["-o", str(tmp_path / "traj.csv")], capsys)
