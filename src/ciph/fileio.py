"""JSON/CSV file formats for tensors, matrices, models, and trajectories.

All on-disk indices are 1-based. Tensor files are written in one fixed
layout (that of ``json.dumps(..., indent=1)``) with shortest round-trip
floats; the writer formats each distinct value and each (i, j, k) entry
head once and gathers every entry's text from those strings. Numbers in the
trajectory CSV are written with 17 significant digits ("%.17g"). Both are
byte-deterministic and round-trip through doubles exactly.

Every reader and writer runs inside one error boundary, ``_naming``: an
OSError, KeyError (a missing field) or CiphError raised inside leaves as one
FormatError that begins with the file's path; the code inside names no path.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
from contextlib import contextmanager
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from .brackets import BracketMatrix
from .dynamics import (
    BUILTIN_MODELS,
    Constant,
    IphsModel,
    Schedule,
    Trajectory,
    balance_ledger,
    builtin_model,
)
# Not called here: the CSV reads the balance ledger. The name stays bound in
# this module because the benchmark tracer wraps ``ciph.fileio.input_power``.
from .dynamics import input_power  # noqa: F401
from .errors import CiphError, FormatError
from .fields import BUILTIN_FIELDS, PolynomialField, _exponent, builtin_field
from .tensor import Tensor4, _integer


@contextmanager
def _naming(path):
    """The error boundary of one file: an OSError, KeyError or CiphError
    raised inside becomes a FormatError "<path>: <what went wrong>"."""
    try:
        yield
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror or exc}") from exc
    except KeyError as exc:
        raise FormatError(f"{path}: missing field {exc}") from exc
    except CiphError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _write(path, text: str) -> None:
    with _naming(path):
        Path(path).write_text(text, encoding="utf-8")


def _load_json(path) -> dict:
    """A JSON file's top-level object. A parse failure (ValueError for bad JSON
    or UTF-8, RecursionError for deep nesting) becomes a FormatError without a path."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise FormatError("expected a JSON object at top level")
    return data


def _finite_floats(values) -> np.ndarray | None:
    """The number rule of every reader: each value is a JSON int (not a
    boolean) or float, finite as a double. Returns the values as a float
    array, or None when one of them breaks the rule."""
    values = list(values)
    if not set(map(type, values)) <= {int, float}:
        return None
    try:
        arr = np.array(values, dtype=float)
    except OverflowError:  # an int beyond the double range
        return None
    return arr if np.isfinite(arr).all() else None


def _numbers(value, what: str) -> np.ndarray:
    """A number or rectangular nested list of them, under the number rule,
    as a float array; anything else (ragged lists too) is a FormatError."""
    try:
        shape = np.shape(value)
    except ValueError:  # ragged lists
        arr = None
    else:
        leaves = value if shape else [value]
        for _ in shape[1:]:
            leaves = chain.from_iterable(leaves)
        arr = _finite_floats(leaves)
    if arr is None:
        raise FormatError(f"{what} must be finite numbers, got {value!r}")
    return arr.reshape(shape)


def _n(spec: dict, what: str = "invalid 'n'") -> int:
    """The integral 'n' of a file or of a model's 'J' (see ``tensor._integer``)."""
    if (n := _integer(spec["n"])) is None:
        raise FormatError(f"{what}: {spec['n']!r}")
    return n


# Rows of a trajectory CSV formatted per write: the formatting temporaries
# (about 0.4 kB a row at n = 2) stay a few MB however long the run.
CSV_BLOCK_ROWS = 4096

_ENTRY_FIELDS = itemgetter("i", "j", "k", "l", "v")
_ENTRY_ERRORS = (KeyError, TypeError, ValueError)


def _entry_table(entries: list) -> np.ndarray:
    """The (m, 5) float table of tensor entries; the acceptance rule.

    Every entry must be an object with keys i, j, k, l, v whose values keep
    the number rule, the four indices integral. Anything else raises
    KeyError, TypeError or ValueError. The rule holds entry by entry, so a
    list fails it exactly when one of its entries does.
    """
    table = _finite_floats(chain.from_iterable(map(_ENTRY_FIELDS, entries)))
    if table is None:
        raise ValueError("an entry field breaks the number rule")
    table = table.reshape(-1, 5)
    index = table[:, :4]
    if not (index == np.trunc(index)).all():
        raise ValueError("non-integer index")
    return table


def load_tensor(path) -> Tensor4:
    """Read the sparse tensor format {"n": ..., "entries": [{i,j,k,l,v}, ...]}.

    Any JSON layout is accepted. The "entries" key is required, so a matrix
    file is not read as the zero tensor; entries not listed are zero. An
    entry that is not an object of finite numbers with integer indices, an
    out-of-range index or a duplicated (i,j,k,l) tuple is an error naming
    the first offending entry.
    """
    with _naming(path):
        data = _load_json(path)
        n = _n(data)
        entries = data["entries"]
        if not isinstance(entries, list):
            raise FormatError("'entries' must be a list")
        try:
            table = _entry_table(entries)
        except _ENTRY_ERRORS:
            for pos, entry in enumerate(entries, 1):  # only to name the first bad entry
                try:
                    _entry_table([entry])
                except _ENTRY_ERRORS:
                    raise FormatError(f"entry #{pos} is malformed: {entry!r}") from None
            raise
        del data, entries  # the parsed JSON is several times larger than the table
        return Tensor4.from_entries(n, table)


# One tensor entry as ``json.dumps(..., indent=1)`` lays it out inside the
# "entries" list; "%r" of a finite float is the shortest round-trip repr,
# which is what json writes. The writer formats it in three parts: the head
# (i, j, k), the "l" part (l up to the value) and, after the value, the close.
_ENTRY_TEMPLATE = '  {\n   "i": %d,\n   "j": %d,\n   "k": %d,\n   "l": %d,\n   "v": %r\n  }'
_HEAD = _ENTRY_TEMPLATE[: _ENTRY_TEMPLATE.rindex("%d")]  # up to l's "%d"
_L_PART, _CLOSE = _ENTRY_TEMPLATE[len(_HEAD) :].split("%r")


def save_tensor(t: Tensor4, path) -> None:
    """Write the sparse format in its fixed layout: the bytes of
    ``json.dumps({"n": n, "entries": [{i, j, k, l, v}, ...]}, indent=1)``
    plus a newline, with 1-based indices, row-major entry order, zero
    entries (also -0.0) omitted and values as shortest round-trip floats.

    Entries repeat their text: a bracket product's values are products of a
    few matrix entries, and the n entries of one (i, j, k) share their head.
    So each distinct value is formatted once (``np.unique``), each distinct
    (i, j, k) head once and each "l" part once, and the entries are gathered
    from those strings into an (m, 4) table that one join writes out.
    """
    n, flat = t.n, t.values.reshape(-1)
    pos = np.flatnonzero(flat)  # row-major; -0.0 is zero
    if len(pos):
        values, which_value = np.unique(flat[pos], return_inverse=True)
        ijk = pos // n  # ascending, so each head's entries are consecutive
        first = np.diff(ijk, prepend=-1) != 0
        i, j, k = (axis + 1 for axis in np.unravel_index(ijk[first], (n, n, n)))
        heads = [_HEAD % head for head in zip(i.tolist(), j.tolist(), k.tolist())]
        table = np.empty((len(pos), 4), dtype=object)
        table[:, 0] = np.array(heads, dtype=object)[np.cumsum(first) - 1]
        table[:, 1] = np.array([_L_PART % l for l in range(1, n + 1)], dtype=object)[pos % n]
        table[:, 2] = np.array(list(map(repr, values.tolist())), dtype=object)[which_value]
        table[:, 3] = _CLOSE + ",\n"
        table[-1, 3] = _CLOSE
        entries = "[\n" + "".join(table.ravel().tolist()) + "\n ]"
    else:
        entries = "[]"
    _write(path, f'{{\n "n": {n},\n "entries": {entries}\n}}\n')


def load_matrix(path) -> BracketMatrix:
    """Read the dense matrix format {"n": ..., "rows": [[...], ...]}."""
    with _naming(path):
        data = _load_json(path)
        n = _n(data)
        arr = _numbers(data["rows"], "'rows'")
        if arr.shape != (n, n):
            raise FormatError(f"rows have shape {arr.shape}, expected ({n}, {n})")
        return BracketMatrix(arr)


def save_matrix(A: BracketMatrix, path) -> None:
    _write(path, json.dumps({"n": A.n, "rows": A.array.tolist()}, indent=1) + "\n")


def load_directions(path, n: int) -> list[np.ndarray]:
    """Read {"directions": [[...], ...]} for the sampled PSD check."""
    with _naming(path):
        dirs = _load_json(path).get("directions")
        if not isinstance(dirs, list) or not dirs:
            raise FormatError("'directions' must be a nonempty list of vectors")
        out = []
        for pos, vec in enumerate(dirs, 1):
            arr = _numbers(vec, f"direction #{pos}")
            if arr.shape != (n,):
                raise FormatError(f"direction #{pos} has shape {arr.shape}, expected ({n},)")
            out.append(arr)
        return out


def _builtin_params(registry: dict, name: str, params, *args) -> dict | None:
    """A builtin's "params", checked against its factory's signature: each
    must be a named parameter of the factory with a finite real value."""
    if params is None:
        return None
    if not isinstance(params, dict) or _finite_floats(params.values()) is None:
        raise FormatError(f"builtin {name!r}: 'params' must map names to finite numbers")
    if name in registry:
        try:
            inspect.signature(registry[name]).bind(*args, **params)
        except TypeError as exc:
            raise FormatError(f"builtin {name!r}: {exc}") from None
    return params


def _field_from_spec(spec, n: int, label: str):
    if isinstance(spec, dict) and "poly" in spec:
        if not isinstance(spec["poly"], list):
            raise FormatError(f"field {label!r}: 'poly' must be a list of terms")
        terms = []
        for pos, term in enumerate(spec["poly"], 1):
            try:
                exps, c = term
                if _finite_floats([*exps, c]) is None:
                    raise ValueError("a term field breaks the number rule")
                terms.append((tuple(map(_exponent, exps)), c))
            except (TypeError, ValueError, FormatError):
                raise FormatError(
                    f"field {label!r}: 'poly' term #{pos} is malformed: {term!r}"
                ) from None
        return PolynomialField(n, terms)
    if isinstance(spec, dict) and "builtin" in spec:
        name = str(spec["builtin"])
        return builtin_field(name, n, _builtin_params(BUILTIN_FIELDS, name, spec.get("params"), n))
    raise FormatError(f"field {label!r}: expected a 'poly' or 'builtin' spec, got {spec!r}")


def _input_vector_from_spec(spec, n: int):
    """W: either a constant vector (its length is checked when the model is
    built) or one polynomial per component (in x)."""
    if isinstance(spec, dict) and "constant" in spec:
        return Constant(_numbers(spec["constant"], "'W' constant"))
    if isinstance(spec, dict) and isinstance(spec.get("poly"), list):
        comps = [_field_from_spec({"poly": c}, n, f"W[{i + 1}]") for i, c in enumerate(spec["poly"])]
        if len(comps) != n:
            raise FormatError(f"'W' needs {n} components, got {len(comps)}")
        return lambda x, dH: np.array([c.value(x) for c in comps])
    raise FormatError(f"'W' must be a 'constant' or 'poly' (list) spec, got {spec!r}")


def _input_matrix_from_spec(spec):
    """g: a constant matrix (its shape is checked when the model is built)."""
    if isinstance(spec, dict) and "rows" in spec:
        return Constant(_numbers(spec["rows"], "'g' rows"))
    raise FormatError(f"'g' must be a constant 'rows' spec, got {spec!r}")


def _schedule_from_spec(spec):
    """Piecewise-constant u(t): {"times": [...], "values": [[...], ...]}
    (see ``Schedule``)."""
    if not isinstance(spec, dict) or "times" not in spec or "values" not in spec:
        raise FormatError(f"'u' must have 'times' and 'values', got {spec!r}")
    return Schedule(_numbers(spec["times"], "'u' times"), _numbers(spec["values"], "'u' values"))


def _bracket_from_spec(spec, n: int) -> BracketMatrix:
    """A model's 'J': {"rows": [...]} with an optional "n", which must match
    the rows and the model."""
    if not isinstance(spec, dict):
        raise FormatError("'J' must be an object with numeric 'rows'")
    rows = _numbers(spec["rows"], "'J' rows")
    if "n" in spec:
        m = _n(spec, "'J' has an invalid 'n'")
        if rows.shape != (m, m) or m != n:
            raise FormatError(f"'J' has n = {m} and rows of shape {rows.shape}, model n = {n}")
    return BracketMatrix(rows)


def load_model(path) -> IphsModel:
    """Read a model file; a top-level "builtin" selects a named model and
    optional W/g/u sections are attached on top: the base model with
    those fields replaced (``dataclasses.replace``, so every other field,
    the name included, is kept), built and checked again (``IphsModel``
    refuses a "g" or a "u" alone)."""
    with _naming(path):
        data = _load_json(path)
        if "builtin" in data:
            name = str(data["builtin"])
            base = builtin_model(name, _builtin_params(BUILTIN_MODELS, name, data.get("params")))
        else:
            n = _n(data)
            H = _field_from_spec(data["H"], n, "H")
            S = _field_from_spec(data["S"], n, "S")
            gamma = _field_from_spec(data["gamma"], n, "gamma")
            base = IphsModel(n, H, S, _bracket_from_spec(data["J"], n), gamma)
        W = _input_vector_from_spec(data["W"], base.n) if "W" in data else base.W
        g = _input_matrix_from_spec(data["g"]) if "g" in data else base.g
        u = _schedule_from_spec(data["u"]) if "u" in data else base.u
        if W is base.W and g is base.g and u is base.u:
            return base
        return dataclasses.replace(base, W=W, g=g, u=u)


def write_trajectory_csv(model: IphsModel, trajectory: Trajectory, path) -> None:
    """CSV with header t,x1..xn,H,S,sigma_int,energy_defect.

    energy_defect is the balance ledger's energy column: the accumulated
    mismatch H(t) - H(0) - integral of dH^T (W + g u) dt, the integral that
    the RK4 step carried (``trajectory.supplied``); for an isolated model it
    reduces to the energy drift.
    Every number is written as "%.17g", each block of ``CSV_BLOCK_ROWS``
    rows in one %-format.
    """
    tr = trajectory
    rows = np.column_stack(
        [tr.times, tr.states, tr.H_values, tr.S_values, tr.sigma_int, balance_ledger(tr)[0]]
    )
    header = ["t", *(f"x{i + 1}" for i in range(model.n)), "H", "S", "sigma_int", "energy_defect"]
    row = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with _naming(path), open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for block in np.split(rows, range(CSV_BLOCK_ROWS, len(rows), CSV_BLOCK_ROWS)):
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))
