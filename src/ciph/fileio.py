"""JSON/CSV file formats for tensors, matrices, models, and trajectories.

All on-disk indices are 1-based. Numbers in the trajectory CSV are written
with 17 significant digits so files are byte-deterministic and round-trip
through doubles exactly.
"""

from __future__ import annotations

import inspect
import json
import math
from pathlib import Path

import numpy as np

from .brackets import BracketMatrix
from .dynamics import BUILTIN_MODELS, IphsModel, Trajectory, builtin_model, input_power
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
    except (KeyError, TypeError, ValueError):
        raise FormatError(f"{path}: missing or invalid 'n'/'rows'") from None
    arr = np.asarray(rows, dtype=float)
    if arr.shape != (n, n):
        raise FormatError(f"{path}: rows have shape {arr.shape}, expected ({n}, {n})")
    try:
        return BracketMatrix(arr)
    except Exception as exc:
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
        arr = np.asarray(vec, dtype=float)
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
    if not isinstance(params, dict) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
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
        try:
            terms = [(tuple(int(e) for e in exps), float(c)) for exps, c in spec["poly"]]
        except (TypeError, ValueError):
            raise FormatError(f"field {label!r}: malformed 'poly' terms") from None
        return PolynomialField(n, terms)
    if isinstance(spec, dict) and "builtin" in spec:
        name = str(spec["builtin"])
        return builtin_field(name, n, _builtin_params(BUILTIN_FIELDS, name, spec.get("params"), n))
    raise FormatError(f"field {label!r}: expected a 'poly' or 'builtin' spec, got {spec!r}")


def _input_vector_from_spec(spec, n: int):
    """W: either a constant vector or one polynomial per component (in x)."""
    if isinstance(spec, dict) and "constant" in spec:
        w = np.asarray(spec["constant"], dtype=float)
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
        gmat = np.asarray(spec["rows"], dtype=float)
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
    times = [float(v) for v in spec["times"]]
    values = [np.atleast_1d(np.asarray(v, dtype=float)) for v in spec["values"]]
    if len(times) != len(values) or not times:
        raise FormatError("'u' times and values must be nonempty and equally long")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise FormatError("'u' times must be strictly increasing")
    width = values[0].shape[0]
    if any(v.shape != (width,) for v in values):
        raise FormatError("'u' values must all have the same length")
    zero = np.zeros(width)

    def u(t: float) -> np.ndarray:
        current = zero
        for brk, val in zip(times, values):
            if t >= brk:
                current = val
            else:
                break
        return current

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
            try:
                Jrows = np.asarray(data["J"]["rows"], dtype=float)
            except (TypeError, ValueError):
                raise FormatError("'J' must be an object with numeric 'rows'") from None
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

    energy_defect at each sample is the accumulated energy-balance mismatch
    H(t) - H(0) - integral of dH^T (W + g u) dt (trapezoid rule on the
    samples); for an isolated model it reduces to the energy drift.
    """
    n = model.n
    p, _ = input_power(model, trajectory)
    t = trajectory.times
    supplied = np.zeros(len(trajectory))
    if len(trajectory) > 1:
        increments = 0.5 * (p[1:] + p[:-1]) * (t[1:] - t[:-1])
        supplied[1:] = np.cumsum(increments)
    defect = trajectory.H_values - trajectory.H_values[0] - supplied

    header = ["t"] + [f"x{i + 1}" for i in range(n)] + ["H", "S", "sigma_int", "energy_defect"]
    lines = [",".join(header)]
    for k in range(len(trajectory)):
        row = (
            [_fmt(t[k])]
            + [_fmt(v) for v in trajectory.states[k]]
            + [
                _fmt(trajectory.H_values[k]),
                _fmt(trajectory.S_values[k]),
                _fmt(trajectory.sigma_int[k]),
                _fmt(defect[k]),
            ]
        )
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
