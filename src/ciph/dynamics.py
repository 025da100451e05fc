"""Drift dynamics driven by a bracket product, with balance audits.

The state equation is

    dx/dt = gamma(x) * (dS^T J dH) * (J dH)  +  W(x, dH)  +  g(x, dH) u(t)

for a Hamiltonian H (conserved by the drift), an entropy S (produced by the
drift at rate sigma_int = gamma * (dS^T J dH)^2 >= 0), a constant skew J,
and a strictly positive coefficient gamma. W and the pair g, u are optional
input terms with no structural constraints.

Integration is fixed-step classical Runge-Kutta (RK4): deterministic
trajectories matter more here than adaptive efficiency. At the small n of
these models, Python's per-call cost (and numpy's more so) dwarfs the
arithmetic, so each model writes its right-hand side out once as
straight-line Python on floats and compiles it (``_ModelCode``), each
function on first use. ``integrate`` compiles one, ``run``: the whole
RK4 loop, with the state, the stage rates, the coordinate powers,
gradients, dot products (left folds) and stage points as local variables.
Each pass takes the sample at (x, t), appends it to one flat list, and
then makes the step from t; the sample's statements are written once. A
stage (k2-k4) computes gamma and the gradients with the powers they read,
and the rhs; each sample gives, besides the step's k1 at the same (x, t),
H, S, sigma_int and the input powers p = dH^T (W + g u) and
q = dS^T (W + g u). Only the
sample evaluates H and S, with the powers that only their values read: 8
field gradients a step (2 per stage for k2-k4, 2 at the sample) and 2
field values. A constant gamma, a linear field's gradient, and any other
fold of model numbers alone (J dH for a linear H) are computed once, when
the step is written, and gamma's ``> 0`` check is left out when gamma is
a positive constant. ``drift_rhs``, ``observable_rate``, ``gamma_at`` and
``full_rhs`` (the drift plus the input term, the rhs a sample at (x, t)
computes) call ``parts``, compiled from the same drift statements.

One function computes the input term W + g u(t) as a list: it calls W, g
and u on ndarrays, checks the shapes they return, and sums component i as
(0.0 + W_i) + (left-fold dot of g_i and u). When W and g are constant
(``Constant``) and u is piecewise constant (``Schedule``), the types a model
file builds, W + g u depends on the schedule segment alone: the model
evaluates that function once per segment into a table, which the step
indexes inline (k2 and k3 share their stage time and so their row), and
checks these pieces' shapes once, when it is built. With any other callable
the step calls the function at every stage.

``balance_ledger`` keeps both balances in integral form, for the audit and
the CSV alike: the change in H or S minus int p or int (sigma_int + q).
The step carries these integrals as extra ODE state, advanced with the same
RK4 stages and weights as x (rates at k1, the previous sample, to k4), so
their quadrature error is O(dt^4) like the state's; an isolated model
(p = q = 0) carries one, int sigma_int. The entropy gate is the chain-rule
identity of the integrated ODE, dS/dt = sigma_int + dS^T (W + g u); the
dH^T (W + g u) form, int (sigma_int + p), is reported too.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import asdict, dataclass
from functools import reduce
from operator import add, mul
from typing import Callable

import numpy as np

from .brackets import BracketMatrix, is_skew
from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    FormatError,
    NegativeCoefficient,
    NonFiniteValue,
    NonpositiveGamma,
    TrajectoryTooShort,
)
from .fields import (
    ExpNegSumField,
    ExpSumField,
    PolynomialField,
    _as_vector,
    _compile,
    _fold,
    _list,
    _names,
    _product,
    _unpack,
    list_form,
)

SKEW_TOL = 1e-12
# An audit passes when min sigma_int >= -AUDIT_SIGMA_SLACK and each gated
# defect is at most AUDIT_DEFECT_REL times its balance's scale.
AUDIT_SIGMA_SLACK = 1e-12
AUDIT_DEFECT_REL = 1e-6
# Largest step count integrate accepts; at n = 2 a step peaks at about 400 B.
MAX_STEPS = 10**6


@dataclass(frozen=True)
class IphsModel:
    """Bundle defining the dynamics.

    ``H`` and ``S`` are scalar fields (objects with n/value/grad); ``gamma``
    is a scalar field that must stay strictly positive along trajectories
    (checked at every right-hand-side evaluation, not proven symbolically).
    ``W`` maps (x, dH) to an n-vector, ``g`` maps (x, dH) to an n x m matrix,
    ``u`` maps t to an m-vector; each may be None, but g and u only act
    together, so one without the other is an error. J must be skew to
    within ``SKEW_TOL * max|J|``, the rule ``split_product`` uses, so the
    verdict does not depend on J's units.
    """

    n: int
    H: object
    S: object
    J: BracketMatrix
    gamma: object
    W: Callable | None = None
    g: Callable | None = None
    u: Callable | None = None
    name: str = "custom"

    def __post_init__(self):
        for label, f in (("H", self.H), ("S", self.S), ("gamma", self.gamma)):
            if f.n != self.n:
                raise DimensionMismatch(f"{label} has dimension {f.n}, expected {self.n}")
        if self.J.n != self.n:
            raise DimensionMismatch(f"J has dimension {self.J.n}, expected {self.n}")
        if not is_skew(self.J, SKEW_TOL * self.J.max_abs()):
            raise DimensionMismatch(f"J must be skew-symmetric to within {SKEW_TOL} of max|J|")
        if (self.g is None) != (self.u is None):
            raise FormatError("'u' has no effect without 'g'" if self.g is None else "'g' has no effect without 'u'")
        object.__setattr__(self, "_code", _ModelCode(self))

    def gamma_at(self, x) -> float:
        return self._code.parts(_as_vector(x, self.n).tolist())[0]

    @property
    def forced(self) -> bool:
        """Whether W or g u contributes an input term."""
        return self._code.inputs is not None

    def input_term(self, x, dH, t: float) -> np.ndarray:
        """W(x, dH) + g(x, dH) u(t), with missing pieces treated as zero."""
        xs, inputs = _as_vector(x, self.n).tolist(), self._code.inputs
        return np.zeros(self.n) if inputs is None else np.array(inputs(xs, dH, t))


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution; ``fault`` is None for a clean run, otherwise the
    name of the abort condition and the trajectory is the valid prefix.
    ``p`` and ``q`` are the input powers dH^T (W + g u) and dS^T (W + g u)
    at each sample (zero for an isolated model). ``supplied`` holds, a row
    per sample, int p, int (sigma_int + q) and int (sigma_int + p) from 0."""

    times: np.ndarray
    states: np.ndarray
    H_values: np.ndarray
    S_values: np.ndarray
    sigma_int: np.ndarray
    p: np.ndarray
    q: np.ndarray
    supplied: np.ndarray
    fault: str | None = None

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class BalanceReport:
    max_energy_defect: float
    max_entropy_defect: float
    max_entropy_defect_alt: float
    min_sigma_int: float
    energy_scale: float
    entropy_scale: float
    samples: int
    passed: bool

    def to_json(self) -> dict:
        return asdict(self)


def _dot(a: list, b: list) -> float:
    """Left-fold dot product of two float lists, the same on every Python."""
    return reduce(add, map(mul, a, b), 0.0)


class Constant:
    """A constant input: W(x, dH) = w or g(x, dH) = G."""

    __slots__ = ("array",)

    def __init__(self, value):
        self.array = np.array(value, dtype=float)
        self.array.setflags(write=False)

    def __call__(self, x, dH) -> np.ndarray:
        return self.array


class Schedule:
    """Piecewise-constant u(t): values[i] for the largest times[i] <= t, and
    zero before the first breakpoint. ``values`` has one row per breakpoint
    (a flat list is one scalar input per breakpoint)."""

    __slots__ = ("times", "array", "_zero")

    def __init__(self, times, values):
        times, values = np.array(times, dtype=float), np.array(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if times.ndim != 1 or values.ndim != 2 or len(values) != len(times) or not len(times):
            raise FormatError("'u' needs nonempty, equally long 'times' and 'values' lists")
        if not (np.isfinite(times).all() and np.isfinite(values).all()):
            raise FormatError("'u' times and values must be finite")
        self.times = times.tolist()
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise FormatError("'u' times must be strictly increasing")
        values.setflags(write=False)
        self.array, self._zero = values, np.zeros(values.shape[1])

    def __call__(self, t: float) -> np.ndarray:
        k = bisect_right(self.times, t)  # breakpoints <= t
        return self.array[k - 1] if k else self._zero


def _compile_inputs(n: int, W, g, u) -> tuple[Callable | None, tuple[list, list] | None]:
    """(inputs, table). ``inputs(xs, dH, t)`` is the input term W + g u as a
    list (not to be mutated), or None when nothing is forced; g and u come
    together. When W is a ``Constant`` or None and g a ``Constant`` with u a
    ``Schedule``, or None, ``table`` is (times, rows): ``inputs`` evaluated
    once per schedule segment, at t = -inf and at each breakpoint, so that
    row ``bisect_right(times, t)`` holds W + g u(t) at every x; otherwise it
    is None. Typed pieces read neither x nor dH, so building the table runs
    no user code, and their shapes are checked here, once."""
    if W is None and g is None:
        return None, None
    if isinstance(W, Constant) and W.array.shape != (n,):
        raise DimensionMismatch(f"W has shape {W.array.shape}, expected ({n},)")
    if isinstance(g, Constant) and isinstance(u, Schedule) and g.array.shape != (n, *u.array.shape[1:]):
        raise DimensionMismatch(f"g has shape {g.array.shape}, u has shape {u.array.shape[1:]}")
    inputs = _adapted_inputs(n, W, g, u)
    typed_g = g is None or isinstance(g, Constant) and isinstance(u, Schedule)
    if not (typed_g and (W is None or isinstance(W, Constant))):
        return inputs, None
    times, zeros = [] if g is None else u.times, [0.0] * n
    return inputs, (times, [inputs(zeros, zeros, t) for t in (-math.inf, *times)])


def _adapted_inputs(n: int, W, g, u) -> Callable:
    """``inputs`` for any pieces: W, g and u see ndarrays, and the shapes
    they return are checked at every call. Component i is (0.0 + W_i) + the
    left-fold dot of g_i and u."""

    def inputs(xs: list, dH: list, t: float) -> list:
        x, dH = np.array(xs), np.array(dH)
        total = [0.0] * n
        if W is not None:
            w = np.asarray(W(x, dH), dtype=float)
            if w.shape != (n,):
                raise DimensionMismatch(f"W returned shape {w.shape}, expected ({n},)")
            total = [a + b for a, b in zip(total, w.tolist())]
        if g is not None:
            gmat = np.asarray(g(x, dH), dtype=float)
            uvec = np.array(u(t), dtype=float, ndmin=1)
            if gmat.ndim != 2 or uvec.ndim != 1 or gmat.shape != (n, len(uvec)):
                raise DimensionMismatch(f"g has shape {gmat.shape}, u has shape {uvec.shape}")
            us = uvec.tolist()
            total = [a + _dot(row, us) for a, row in zip(total, gmat.tolist())]
        return total

    return inputs


class _ModelCode:
    """What one model compiles: its input term (``inputs`` and ``table``,
    see ``_compile_inputs``) and its right-hand side written out as
    straight-line Python, each function compiled on first use: ``run``, the
    RK4 loop with its samples, which ``integrate`` calls, and the drift
    ``parts`` behind the other public functions (``full_rhs`` adds the input
    term to it).

    A field with ``emit`` (every built-in field) contributes its statements,
    so no built-in model's step calls numpy; any other field is called once
    per evaluation through ``list_form``, which keeps its shape checks.
    Every float operation is the one a loop over lists would make, in the
    same order: gamma is checked first (no check for a positive constant);
    dot products are left folds from 0.0 over every J entry, zeros
    included; the update is ``x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)``.
    J entries, coefficients, the input table and the folds of these alone
    (computed when the statements are written) are namespace names, never
    text; a factor bound to exactly 1.0 is left out of its product (see
    ``_product``), and so is no longer read from the namespace. A stage
    computes gamma, the gradients and what the rhs and the rates read; H, S
    and the powers only their values read are computed at the sample alone.

    Every evaluation is at the point y. Other local names: x (the state), a
    b c d (k1-k4; a sample sets a, its step's k1), u (the input row),
    j (J dH), w (dS^T J dH), m (gamma w), s1-s4 p1-p4 q1-q4 (sigma_int and
    the input powers at k1-k4; a sample sets s1 p1 q1), ip iq ia (the
    running balance integrals), t th te (the sample time, which is the
    step's start, and the later stage times), and per field G (gamma), H
    and S.
    """

    def __init__(self, model: IphsModel):
        self.n = model.n
        self.inputs, self.table = _compile_inputs(model.n, model.W, model.g, model.u)
        # gamma in the value form: no stage reads its gradient
        self.fields = (("G", model.gamma, "value"), ("H", model.H, "grad"), ("S", model.S, "grad"))
        self.namespace = {"_NonpositiveGamma": NonpositiveGamma, "_isfinite": math.isfinite, "_bisect": bisect_right}
        for i, row in enumerate(model.J.array.tolist()):
            for j, entry in enumerate(row):
                self.namespace[f"J{i:d}_{j:d}"] = entry
        if self.table is not None:
            self.namespace["_times"], self.namespace["_table"] = self.table
        elif self.inputs is not None:
            self.namespace["_inputs"] = self.inputs
        self.y = _names("y", self.n)
        # a sample row, and each balance integral with its rate at stage {0}
        self.row, self.integrals = (
            ("Hv, Sv, s1, 0.0, 0.0, 0.0, iq, iq", [("iq", "s{0}")]) if self.inputs is None else
            ("Hv, Sv, s1, p1, q1, ip, iq, ia", [("ip", "p{0}"), ("iq", "(s{0} + q{0})"), ("ia", "(s{0} + p{0})")]))

    @functools.cached_property
    def run(self) -> Callable:
        """run(x, steps, dt, half, sixth, buf): the RK4 loop from the state x
        at t = 0.0, the whole loop in one function. Pass k first takes the
        sample at (x, t = k * dt), which also gives the k1 and first rates
        of the step from t, appends it to the flat list ``buf`` as its time,
        the state and the row, and returns after the last sample (k =
        steps); then it makes that step, to t + dt. A row is (H, S, sigma_int, p, q,
        int p, int (sigma_int + q), int (sigma_int + p)); the integrals start
        at zero and each advances by the RK4 update over its rates at k1 to
        k4. Returns "NonFiniteState", before appending, once a step's state
        or a later sample's H, S or sigma_int is not finite, else None;
        NonpositiveGamma propagates, so ``buf`` holds the valid prefix
        either way (empty when gamma fails at the first sample)."""
        n, y = self.n, self.y
        x, k1, k2, k3, k4 = (_names(stem, n) for stem in "xabcd")
        # the first sample is kept whatever its H, S and sigma_int
        body = ["t = k * dt", *self._record("t"),
                "if not (_isfinite(Hv) and _isfinite(Sv) and _isfinite(s1)) and k:", "    return 'NonFiniteState'",
                f"buf.extend((t, {', '.join(y)}, {self.row}))", "if k == steps:", "    return None",
                *(f"{a} = {b}" for a, b in zip(x, y))]
        if self.inputs is not None:
            body += ["th = t + half", "te = t + dt"]
        # k2 and k3 share the stage time th, so k3 reuses k2's input table row
        for k, factor, time, out, tag, lookup in ((k1, "half", "th", "b", "2", True),
                                                  (k2, "half", "th", "c", "3", False),
                                                  (k3, "dt", "te", "d", "4", True)):
            body += [f"{y[i]} = {x[i]} + {factor} * {k[i]}" for i in range(n)]
            body += [*self._stage(time, out, lookup), *self._rates(tag)]
        body += [f"{y[i]} = {_rk4(x[i], k1[i], k2[i], k3[i], k4[i])}" for i in range(n)]
        body += [f"if not ({' and '.join(f'_isfinite({v})' for v in y)}):", "    return 'NonFiniteState'",
                 *(f"{total} = {_rk4(total, *map(rate.format, '1234'))}" for total, rate in self.integrals)]
        return self._function("run(x, steps, dt, half, sixth, buf)",
                              [f"{_unpack(y)}= x", "ip = iq = ia = 0.0", "for k in range(steps + 1):",
                               *("    " + line for line in body)])

    @functools.cached_property
    def parts(self) -> Callable:
        """parts(xs) = (gamma, gamma dS^T J dH, J dH, dH), the last two as lists."""
        return self._function("parts(x)", [f"{_unpack(self.y)}= x", *self._drift[0],
                                           f"return Gv, m, {_list(_names('j', self.n))}, "
                                           f"{_list(_names('Hg', self.n))}"])

    def _function(self, signature: str, body: list) -> Callable:
        return _compile([f"def {signature}:", *("    " + line for line in body)], self.namespace,
                        signature.split("(")[0])

    def _field(self, prefix: str, field, form: str) -> tuple[list, list, list]:
        """(powers, value, gradient) statements for one field at y, the
        powers those of ``form`` (see ``CompiledField``)."""
        if hasattr(field, "emit"):
            return field.emit(self.y, prefix, self.namespace, form)
        self.namespace[prefix + "value"], self.namespace[prefix + "grad"] = list_form(field)
        return ([], [f"{prefix}v = {prefix}value({_list(self.y)})"],
                [f"{_unpack(_names(prefix + 'g', self.n))}= {prefix}grad({_list(self.y)})"])

    @functools.cached_property
    def _drift(self) -> tuple[list, list]:
        """Statements for gamma (checked > 0 unless it is a positive
        constant), dH, dS, j, w and m at y, and the H and S value
        statements, which read the powers these leave."""
        n = self.n
        (g_pow, g_value, _), (h_pow, h_value, h_grad), (s_pow, s_value, s_grad) = (
            self._field(*spec) for spec in self.fields)
        lines = [*g_pow, *g_value]
        if not (isinstance(self.namespace.get("Gv"), float) and self.namespace["Gv"] > 0.0):
            lines += ["if not Gv > 0.0:", f"    raise _NonpositiveGamma({_list(self.y)}, Gv)"]
        lines += [*h_pow, *h_grad, *s_pow, *s_grad]
        dH, dS, JdH = _names("Hg", n), _names("Sg", n), _names("j", n)
        for i in range(n):
            lines += _fold(JdH[i], [(f"J{i:d}_{j:d}", dH[j]) for j in range(n)], self.namespace)
        lines += _fold("w", list(zip(dS, JdH)), self.namespace)
        return [*lines, f"m = {_product(['Gv', 'w'], self.namespace)}"], h_value + s_value

    def _stage(self, time: str, out: str, lookup: bool = True) -> list:
        """Statements setting ``out<i>`` to the full rhs at (y, time); an
        input table row already read at ``time`` is reused unless ``lookup``."""
        rhs, JdH, u = _names(out, self.n), _names("j", self.n), _names("u", self.n)
        lines = list(self._drift[0])
        if self.inputs is None:
            return [*lines, *(f"{r} = m * {j}" for r, j in zip(rhs, JdH))]
        if self.table is None:
            lines.append(f"{_unpack(u)}= _inputs({_list(self.y)}, {_list(_names('Hg', self.n))}, {time})")
        elif lookup:
            lines.append(f"{_unpack(u)}= _table[_bisect(_times, {time})]")
        return [*lines, *(f"{r} = m * {j} + {b}" for r, j, b in zip(rhs, JdH, u))]

    def _rates(self, tag: str) -> list:
        """Statements for the balance rates at y after a stage: ``s<tag>``
        (sigma_int) and, when forced, the input powers ``p<tag>``, ``q<tag>``."""
        lines = [f"s{tag} = m * w"]
        if self.inputs is not None:
            u = _names("u", self.n)
            lines += _fold(f"p{tag}", list(zip(_names("Hg", self.n), u)), self.namespace)
            lines += _fold(f"q{tag}", list(zip(_names("Sg", self.n), u)), self.namespace)
        return lines

    def _record(self, time: str) -> list:
        """A sample at (y, time): the rhs a (the k1 of the step from it), its
        rates s1, p1, q1 (that step's first), Hv and Sv."""
        return [*self._stage(time, "a"), *self._rates("1"), *self._drift[1]]


def _rk4(total: str, a: str, b: str, c: str, d: str) -> str:
    """The RK4 update of ``total`` by the stage rates a-d, as source."""
    return f"{total} + sixth * ({a} + 2.0 * {b} + 2.0 * {c} + {d})"


def drift_rhs(model: IphsModel, x) -> np.ndarray:
    """gamma(x) * (dS^T J dH) * (J dH); zero wherever dH vanishes."""
    _, scale, JdH, _ = model._code.parts(_as_vector(x, model.n).tolist())
    return np.array([scale * v for v in JdH])


def full_rhs(model: IphsModel, x, t: float) -> np.ndarray:
    """Drift plus input terms W + g u, component i as gamma (dS^T J dH)
    (J dH)_i + (W + g u)_i: the rhs a sample at (x, t) computes."""
    xs, inputs = _as_vector(x, model.n).tolist(), model._code.inputs
    _, m, JdH, dH = model._code.parts(xs)
    if inputs is None:
        return np.array([m * j for j in JdH])
    return np.array([m * j + u for j, u in zip(JdH, inputs(xs, dH, t))])


def observable_rate(model: IphsModel, f, x) -> float:
    """Rate of change of f along the drift: gamma * (dS^T J dH) * (df^T J dH).

    Identical (up to rounding) to df(x)^T drift_rhs(model, x).
    """
    if f.n != model.n:
        raise DimensionMismatch(f"field has dimension {f.n}, expected {model.n}")
    xs = _as_vector(x, model.n).tolist()
    _, scale, JdH, _ = model._code.parts(xs)
    return scale * _dot(list_form(f)[1](xs), JdH)


def integrate(model: IphsModel, x0, t_end: float, dt: float = 1e-3) -> Trajectory:
    """Fixed-step RK4 solve of the full dynamics, sampling every step.

    Each sample records H, S, sigma_int and the input powers p, q. One
    call of the model's compiled ``run`` makes every step and takes every
    sample, the first at t = 0 with its balance integrals zero, appending
    each to one flat list, which becomes the ``Trajectory`` columns by one
    ``np.array`` and a copy per column. If gamma fails to be positive or
    the state leaves the finite range mid-run, the trajectory returned is
    the valid prefix with ``fault`` set instead of raising; when gamma
    fails at x0 itself, that prefix is one sample holding H and S, with
    sigma_int, the input powers and the integrals zero.
    """
    if not (math.isfinite(t_end) and math.isfinite(dt)):
        raise NonFiniteValue(f"t_end and dt must be finite, got {t_end} and {dt}")
    if dt <= 0.0:
        raise DimensionMismatch(f"dt must be > 0, got {dt}")
    if t_end <= 0.0:
        raise DimensionMismatch(f"t_end must be > 0, got {t_end}")
    if not math.isfinite(t_end / dt):
        raise NonFiniteValue(f"t_end / dt = {t_end} / {dt} overflows")
    steps = max(1, int(round(t_end / dt)))
    if steps > MAX_STEPS:
        raise DimensionTooLarge(f"t_end / dt = {steps} steps exceeds the cap of {MAX_STEPS}")
    n, buf, fault = model.n, [], None
    x = _as_vector(x0, n).tolist()
    # Overflow to inf/nan (silent in float arithmetic) is caught by the finiteness checks.
    with np.errstate(all="ignore"):
        try:
            fault = model._code.run(x, steps, dt, 0.5 * dt, dt / 6.0, buf)
        except NonpositiveGamma:
            fault = "NonpositiveGamma"
            if not buf:  # gamma failed at x0: the first sample holds H and S alone
                buf = [0.0, *x, list_form(model.H)[0](x), list_form(model.S)[0](x), *[0.0] * 6]
    samples = np.array(buf).reshape(-1, n + 9)
    del buf  # its floats go before the columns are copied out
    return Trajectory(samples[:, 0].copy(), samples[:, 1:n + 1].copy(),
                      *(samples[:, i].copy() for i in range(n + 1, n + 6)), samples[:, n + 6:].copy(), fault=fault)


def input_power(model: IphsModel, trajectory: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample dH^T (W + g u) and dS^T (W + g u), as ``integrate`` recorded them."""
    return trajectory.p, trajectory.q


def balance_ledger(trajectory: Trajectory) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Accumulated balance mismatches, one value per sample, from what
    ``integrate`` recorded: (H - H0 - int p, S - S0 - int (sigma_int + q),
    S - S0 - int (sigma_int + p)), the integrals read off ``supplied``. A
    faulted prefix may start from a non-finite H or S; its columns are then
    non-finite, without a warning."""
    H, S, supplied = trajectory.H_values, trajectory.S_values, trajectory.supplied
    with np.errstate(all="ignore"):
        return H - H[0] - supplied[:, 0], S - S[0] - supplied[:, 1], S - S[0] - supplied[:, 2]


def audit_balances(model: IphsModel, trajectory: Trajectory) -> BalanceReport:
    """Reduce the balance ledger to its largest mismatches and a verdict.

    The energy gate is H - H0 = int dH^T (W + g u); the entropy gate is
    S - S0 = int (sigma_int + dS^T (W + g u)), with the dH^T (W + g u)
    variant reported as ``max_entropy_defect_alt``. Each scale is
    max(1, max|change|, max|supplied integral|) of its gated balance. A run
    passes when sigma_int >= -AUDIT_SIGMA_SLACK and each gated defect is at
    most AUDIT_DEFECT_REL times its scale. The integrals are RK4 stage
    quadratures, so one step (2 samples) is enough; a 1-sample prefix (a
    fault at the start) has no balance to audit.
    """
    if len(trajectory) < 2:
        raise TrajectoryTooShort(f"need >= 2 samples, got {len(trajectory)}")
    columns = balance_ledger(trajectory)
    energy, entropy, entropy_alt = (float(np.max(np.abs(c))) for c in columns)

    def scale(values, supplied):
        return max(1.0, float(np.max(np.abs(values - values[0]))), float(np.max(np.abs(supplied))))

    energy_scale = scale(trajectory.H_values, trajectory.supplied[:, 0])
    entropy_scale = scale(trajectory.S_values, trajectory.supplied[:, 1])
    min_sigma = float(np.min(trajectory.sigma_int))
    passed = (min_sigma >= -AUDIT_SIGMA_SLACK and energy <= AUDIT_DEFECT_REL * energy_scale
              and entropy <= AUDIT_DEFECT_REL * entropy_scale)
    return BalanceReport(energy, entropy, entropy_alt, min_sigma, energy_scale, entropy_scale, len(trajectory),
                         passed)


def quadratic_linear_model() -> IphsModel:
    """n = 2 benchmark: H = (x1^2 + x2^2)/2, S = x1 + x2, gamma = 1, J standard."""
    H = PolynomialField(2, [((2, 0), 0.5), ((0, 2), 0.5)])
    S = PolynomialField(2, [((1, 0), 1.0), ((0, 1), 1.0)])
    gamma = PolynomialField.constant(2, 1.0)
    return IphsModel(2, H, S, BracketMatrix.standard_skew(), gamma, name="quadratic-linear")


def heat_exchanger_model(conductance: float = 1.0) -> IphsModel:
    """Two compartments exchanging heat through a finite conductance.

    States are the compartment entropies, H = exp(x1) + exp(x2) so the
    temperatures are T_i = exp(x_i), S = x1 + x2, and
    gamma = conductance / (T1 T2). The drift moves entropy from the hot to
    the cold side; the temperature difference decays at rate 2 * conductance.
    """
    if conductance <= 0.0:
        raise NegativeCoefficient(f"conductance must be > 0, got {conductance}")
    H = ExpSumField(2)
    S = PolynomialField(2, [((1, 0), 1.0), ((0, 1), 1.0)])
    gamma = ExpNegSumField(2, scale=conductance)
    return IphsModel(2, H, S, BracketMatrix.standard_skew(), gamma, name="heat-exchanger")


BUILTIN_MODELS: dict[str, Callable[..., IphsModel]] = {
    "quadratic-linear": quadratic_linear_model,
    "heat-exchanger": heat_exchanger_model,
}


def builtin_model(name: str, params: dict | None = None) -> IphsModel:
    try:
        factory = BUILTIN_MODELS[name]
    except KeyError:
        raise FormatError(f"unknown builtin model {name!r}") from None
    return factory(**(params or {}))
