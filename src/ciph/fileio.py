"""JSON/CSV file formats for tensors, matrices, models, and trajectories.

All on-disk indices are 1-based. Numbers in the trajectory CSV are written
with 17 significant digits so files are byte-deterministic and round-trip
through doubles exactly.
"""

from __future__ import annotations

import bisect
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from .brackets import BracketMatrix
from .dynamics import BUILTIN_MODELS, IphsModel, Trajectory, balance_ledger, builtin_model
# Not called here: the CSV reads the balance ledger. The name stays bound in
# this module because the benchmark tracer wraps ``ciph.fileio.input_power``.
from .dynamics import input_power  # noqa: F401
from .errors import CiphError, FormatError
from .fields import BUILTIN_FIELDS, PolynomialField, builtin_field
from .tensor import Tensor4


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise FormatError(f"{path}: expected a JSON object at top level")
    return data


def _numbers(value, what: str) -> np.ndarray:
    """A finite number or rectangular nested list of them as a float array;
    strings, nulls, booleans, NaN, +-inf and ragged lists are a FormatError."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError):  # ragged lists
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf" or not np.all(np.isfinite(arr)):
        raise FormatError(f"{what} must be finite numbers, got {value!r}")
    return arr.astype(float)


def load_tensor(path) -> Tensor4:
    """Read the sparse tensor format {"n": ..., "entries": [{i,j,k,l,v}, ...]}.

    Omitted entries are zero; a duplicated (i,j,k,l) tuple or an
    out-of-range index is an error naming the offending entry.
    """
    data = _load_json(path)
    try:
        n = int(data["n"])
    except (KeyError, TypeError, ValueError, OverflowError):
        raise FormatError(f"{path}: missing or invalid 'n'") from None
    entries = data.get("entries", [])
    if not isinstance(entries, list):
        raise FormatError(f"{path}: 'entries' must be a list")
    table = np.empty((len(entries), 5))
    for pos, entry in enumerate(entries):
        try:
            table[pos] = (
                int(entry["i"]), int(entry["j"]), int(entry["k"]), int(entry["l"]), float(entry["v"])
            )
        except (KeyError, TypeError, ValueError, OverflowError):
            raise FormatError(f"{path}: entry #{pos + 1} is malformed: {entry!r}") from None
    del data, entries  # the parsed JSON is several times larger than the table
    try:
        return Tensor4.from_entries(n, table)
    except CiphError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def save_tensor(t: Tensor4, path) -> None:
    """Write the sparse format; zero entries omitted, row-major entry order."""
    entries = [
        {"i": i, "j": j, "k": k, "l": l, "v": v} for (i, j, k, l, v) in t.nonzero_entries()
    ]
    payload = {"n": t.n, "entries": entries}
    Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def load_matrix(path) -> BracketMatrix:
    """Read the dense matrix format {"n": ..., "rows": [[...], ...]}."""
    data = _load_json(path)
    try:
        n = int(data["n"])
        rows = data["rows"]
    except (KeyError, TypeError, ValueError, OverflowError):
        raise FormatError(f"{path}: missing or invalid 'n'/'rows'") from None
    arr = _numbers(rows, f"{path}: 'rows'")
    if arr.shape != (n, n):
        raise FormatError(f"{path}: rows have shape {arr.shape}, expected ({n}, {n})")
    try:
        return BracketMatrix(arr)
    except CiphError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def save_matrix(A: BracketMatrix, path) -> None:
    payload = {"n": A.n, "rows": A.array.tolist()}
    Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def load_directions(path, n: int) -> list[np.ndarray]:
    """Read {"directions": [[...], ...]} for the sampled PSD check."""
    data = _load_json(path)
    dirs = data.get("directions")
    if not isinstance(dirs, list) or not dirs:
        raise FormatError(f"{path}: 'directions' must be a nonempty list of vectors")
    out = []
    for pos, vec in enumerate(dirs):
        arr = _numbers(vec, f"{path}: direction #{pos + 1}")
        if arr.shape != (n,):
            raise FormatError(
                f"{path}: direction #{pos + 1} has shape {arr.shape}, expected ({n},)"
            )
        out.append(arr)
    return out


def _builtin_params(registry: dict, name: str, params, *args) -> dict | None:
    """A builtin's "params", checked against its factory's signature: each
    must be a named parameter of the factory with a finite real value."""
    if params is None:
        return None
    # abs(v) <= max float rejects NaN, +-inf and integers too large for a float
    if not isinstance(params, dict) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max
        for v in params.values()
    ):
        raise FormatError(f"builtin {name!r}: 'params' must map names to finite numbers")
    if name in registry:
        try:
            inspect.signature(registry[name]).bind(*args, **params)
        except TypeError as exc:
            raise FormatError(f"builtin {name!r}: {exc}") from None
    return params


def _field_from_spec(spec, n: int, label: str):
    if isinstance(spec, dict) and "poly" in spec:
        try:  # exponents pass through float so that ones too large for it are rejected
            terms = [(tuple(int(float(e)) for e in exps), float(c)) for exps, c in spec["poly"]]
        except (TypeError, ValueError, OverflowError):
            raise FormatError(f"field {label!r}: malformed 'poly' terms") from None
        return PolynomialField(n, terms)
    if isinstance(spec, dict) and "builtin" in spec:
        name = str(spec["builtin"])
        return builtin_field(name, n, _builtin_params(BUILTIN_FIELDS, name, spec.get("params"), n))
    raise FormatError(f"field {label!r}: expected a 'poly' or 'builtin' spec, got {spec!r}")


def _input_vector_from_spec(spec, n: int):
    """W: either a constant vector or one polynomial per component (in x)."""
    if isinstance(spec, dict) and "constant" in spec:
        w = _numbers(spec["constant"], "'W' constant")
        if w.shape != (n,):
            raise FormatError(f"'W' constant has shape {w.shape}, expected ({n},)")
        return lambda x, dH: w
    if isinstance(spec, dict) and "poly" in spec:
        comps = [_field_from_spec({"poly": c}, n, f"W[{i + 1}]") for i, c in enumerate(spec["poly"])]
        if len(comps) != n:
            raise FormatError(f"'W' needs {n} components, got {len(comps)}")
        return lambda x, dH: np.array([c.value(x) for c in comps])
    raise FormatError(f"'W' must be a 'constant' or 'poly' spec, got {spec!r}")


def _input_matrix_from_spec(spec, n: int):
    if isinstance(spec, dict) and "rows" in spec:
        gmat = _numbers(spec["rows"], "'g' rows")
        if gmat.ndim != 2 or gmat.shape[0] != n:
            raise FormatError(f"'g' rows have shape {gmat.shape}, expected ({n}, m)")
        return lambda x, dH: gmat
    raise FormatError(f"'g' must be a constant 'rows' spec, got {spec!r}")


def _schedule_from_spec(spec):
    """Piecewise-constant u(t): {"times": [...], "values": [[...], ...]}.

    u(t) is values[i] for the largest times[i] <= t, and zero before the
    first breakpoint.
    """
    if not isinstance(spec, dict) or "times" not in spec or "values" not in spec:
        raise FormatError(f"'u' must have 'times' and 'values', got {spec!r}")
    times = _numbers(spec["times"], "'u' times")
    values = _numbers(spec["values"], "'u' values")
    if values.ndim == 1:  # one scalar input per breakpoint
        values = values[:, None]
    if times.ndim != 1 or values.ndim != 2 or len(values) != len(times) or not len(times):
        raise FormatError("'u' needs nonempty, equally long 'times' and 'values' lists")
    times = times.tolist()
    if any(b <= a for a, b in zip(times, times[1:])):
        raise FormatError("'u' times must be strictly increasing")
    zero = np.zeros(values.shape[1])

    def u(t: float) -> np.ndarray:
        k = bisect.bisect_right(times, t)  # breakpoints <= t
        return values[k - 1] if k else zero

    return u


def load_model(path) -> IphsModel:
    """Read a model file; a top-level "builtin" selects a named model and
    optional W/g/u sections are attached on top. A "u" needs a "g" to act
    through, so a "u" without one is an error rather than silently unused."""
    data = _load_json(path)
    try:
        if "builtin" in data:
            name = str(data["builtin"])
            base = builtin_model(name, _builtin_params(BUILTIN_MODELS, name, data.get("params")))
        else:
            try:
                n = int(data["n"])
            except (TypeError, ValueError, OverflowError):
                raise FormatError(f"invalid 'n': {data['n']!r}") from None
            H = _field_from_spec(data["H"], n, "H")
            S = _field_from_spec(data["S"], n, "S")
            gamma = _field_from_spec(data["gamma"], n, "gamma")
            if not isinstance(data["J"], dict):
                raise FormatError("'J' must be an object with numeric 'rows'")
            Jrows = _numbers(data["J"]["rows"], "'J' rows")
            base = IphsModel(n, H, S, BracketMatrix(Jrows), gamma)
    except KeyError as exc:
        raise FormatError(f"{path}: missing model field {exc}") from None
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc

    W = _input_vector_from_spec(data["W"], base.n) if "W" in data else base.W
    g = _input_matrix_from_spec(data["g"], base.n) if "g" in data else base.g
    u = _schedule_from_spec(data["u"]) if "u" in data else base.u
    if u is not None and g is None:
        raise FormatError(f"{path}: 'u' has no effect without 'g'")
    if W is base.W and g is base.g and u is base.u:
        return base
    return IphsModel(base.n, base.H, base.S, base.J, base.gamma, W=W, g=g, u=u, name=base.name)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def write_trajectory_csv(model: IphsModel, trajectory: Trajectory, path) -> None:
    """CSV with header t,x1..xn,H,S,sigma_int,energy_defect.

    energy_defect is the balance ledger's energy column: the accumulated
    mismatch H(t) - H(0) - integral of dH^T (W + g u) dt (trapezoid rule on
    the samples); for an isolated model it reduces to the energy drift.
    """
    tr = trajectory
    rows = np.column_stack(
        [tr.times, tr.states, tr.H_values, tr.S_values, tr.sigma_int, balance_ledger(tr)[0]]
    )
    header = ["t", *(f"x{i + 1}" for i in range(model.n)), "H", "S", "sigma_int", "energy_defect"]
    lines = [",".join(header)] + [",".join(map(_fmt, row)) for row in rows.tolist()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
