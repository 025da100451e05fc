"""Drift dynamics driven by a bracket product, with balance audits.

The state equation is

    dx/dt = gamma(x) * (dS^T J dH) * (J dH)  +  W(x, dH)  +  g(x, dH) u(t)

for a Hamiltonian H (conserved by the drift), an entropy S (produced by the
drift at rate sigma_int = gamma * (dS^T J dH)^2 >= 0), a constant skew J,
and a strictly positive coefficient gamma. W, g and u are optional input
terms with no structural constraints.

Integration is fixed-step classical Runge-Kutta (RK4): deterministic
trajectories matter more here than adaptive efficiency. Gradients of H and S
are taken in one kernel, ``_drift_parts``. It and the RK4 stages run on lists
of Python floats, as at the small n of these models numpy's per-call cost
dwarfs the arithmetic; its dot products are left folds. Each accepted sample
evaluates it once, which gives H, S, sigma_int, the input powers
p = dH^T (W + g u) and q = dS^T (W + g u), and the next step's k1 at the same
(x, t): 8 field gradients a step (2 per rhs for k2-k4, 2 at the sample).

The input term W + g u(t) is compiled once per model into a list function.
A constant W or g (``Constant``) and a piecewise-constant u (``Schedule``),
the types a model file builds, carry list forms: W + g u is then a table
with one row per schedule segment, and their shapes are checked once, when
the model is built. Any other callable is called on ndarrays and its shapes
are checked at every call. Component i is (0.0 + W_i) + (left-fold dot of
g_i and u) on either path, so both give the same floats.

``balance_ledger`` keeps both balances in integral form (change in H or S
minus the trapezoid integral of its recorded rate), for the audit and the
CSV alike. The entropy gate is the chain-rule identity of the integrated ODE,
dS/dt = sigma_int + dS^T (W + g u); the dH^T (W + g u) form is reported too.
"""

from __future__ import annotations

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
from .fields import PolynomialField, _as_vector, exp_neg_sum_field, exp_sum_field, list_form

SKEW_TOL = 1e-12
# An audit passes when min sigma_int >= -AUDIT_SIGMA_SLACK and each gated
# defect is at most AUDIT_DEFECT_REL times its balance's scale.
AUDIT_SIGMA_SLACK = 1e-12
AUDIT_DEFECT_REL = 1e-6
# Largest step count integrate accepts; at n = 2 a step peaks at about 450 B.
MAX_STEPS = 10**6


@dataclass(frozen=True)
class IphsModel:
    """Bundle defining the dynamics.

    ``H`` and ``S`` are scalar fields (objects with n/value/grad); ``gamma``
    is a scalar field that must stay strictly positive along trajectories
    (checked at every right-hand-side evaluation, not proven symbolically).
    ``W`` maps (x, dH) to an n-vector, ``g`` maps (x, dH) to an n x m matrix,
    ``u`` maps t to an m-vector; each may be None.
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
        if not is_skew(self.J, SKEW_TOL):
            raise DimensionMismatch("J must be skew-symmetric to within 1e-12")
        forms = (list_form(self.gamma)[0], *list_form(self.H), *list_form(self.S))
        object.__setattr__(self, "_kernel", (*forms, self.J.array.tolist()))  # see _drift_parts
        object.__setattr__(self, "_inputs", _compile_inputs(self.n, self.W, self.g, self.u))

    def gamma_at(self, x) -> float:
        return _drift_parts(self, _as_vector(x, self.n).tolist())[0]

    @property
    def forced(self) -> bool:
        """Whether W or g u contributes an input term."""
        return self._inputs is not None

    def input_term(self, x, dH, t: float) -> np.ndarray:
        """W(x, dH) + g(x, dH) u(t), with missing pieces treated as zero."""
        xs = _as_vector(x, self.n).tolist()
        return np.zeros(self.n) if self._inputs is None else np.array(self._inputs(xs, dH, t))


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution; ``fault`` is None for a clean run, otherwise the
    name of the abort condition and the trajectory is the valid prefix.
    ``p`` and ``q`` are the input powers dH^T (W + g u) and dS^T (W + g u)
    at each sample (zero for an isolated model)."""

    times: np.ndarray
    states: np.ndarray
    H_values: np.ndarray
    S_values: np.ndarray
    sigma_int: np.ndarray
    p: np.ndarray
    q: np.ndarray
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


def _drift_parts(model: IphsModel, xs: list) -> tuple:
    """(gamma, dH, dS, J dH, dS^T J dH) at ``xs``, all on float lists: the one
    place the dynamics check gamma and take gradients of H and S."""
    gamma_value, _, H_grad, _, S_grad, J_rows = model._kernel
    gamma = gamma_value(xs)
    if not gamma > 0.0:
        raise NonpositiveGamma(xs, gamma)
    dH, dS = H_grad(xs), S_grad(xs)
    JdH = [_dot(row, dH) for row in J_rows]
    return gamma, dH, dS, JdH, _dot(dS, JdH)


class Constant:
    """A constant input: W(x, dH) = w or g(x, dH) = G."""

    __slots__ = ("array", "values")

    def __init__(self, value):
        self.array = np.array(value, dtype=float)
        self.array.setflags(write=False)
        self.values = self.array.tolist()

    def __call__(self, x, dH) -> np.ndarray:
        return self.array


class Schedule:
    """Piecewise-constant u(t): values[i] for the largest times[i] <= t, and
    zero before the first breakpoint. ``values`` has one row per breakpoint
    (a flat list is one scalar input per breakpoint)."""

    __slots__ = ("times", "array", "segments", "_zero")

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
        # u on each segment as a list, indexed by bisect_right(times, t)
        self.segments = [self._zero.tolist(), *values.tolist()]

    @property
    def width(self) -> int:
        return self.array.shape[1]

    def __call__(self, t: float) -> np.ndarray:
        k = bisect_right(self.times, t)  # breakpoints <= t
        return self.array[k - 1] if k else self._zero


def _compile_inputs(n: int, W, g, u) -> Callable | None:
    """``inputs(xs, dH, t)``, the input term W + g u as a list (not to be
    mutated), or None when nothing is forced. A u without a g, or a g
    without a u, contributes nothing."""
    if g is None or u is None:
        g = u = None
    if W is None and g is None:
        return None
    if isinstance(W, Constant) and W.array.shape != (n,):
        raise DimensionMismatch(f"W has shape {W.array.shape}, expected ({n},)")
    if isinstance(g, Constant) and isinstance(u, Schedule) and g.array.shape != (n, u.width):
        raise DimensionMismatch(f"g has shape {g.array.shape}, u has shape ({u.width},)")
    typed_g = g is None or isinstance(g, Constant) and isinstance(u, Schedule)
    if not (typed_g and (W is None or isinstance(W, Constant))):
        return _adapted_inputs(n, W, g, u)
    # W_i + dot equals (0.0 + W_i) + dot bit for bit, as a left fold from 0.0
    # is never -0.0; without a g, the table is one segment of zero rows
    w0 = [0.0] * n if W is None else W.values
    times, segments, rows = (u.times, u.segments, g.values) if g is not None else ([], [[0.0]], [[0.0]] * n)
    table = [[a + _dot(row, us) for a, row in zip(w0, rows)] for us in segments]
    return lambda xs, dH, t: table[bisect_right(times, t)]


def _adapted_inputs(n: int, W, g, u) -> Callable:
    """``inputs`` for plain callables: W, g and u see ndarrays, and the
    shapes they return are checked at every call."""

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


def _rhs(model: IphsModel, xs: list, t: float) -> tuple:
    """(full rhs, drift parts, input term or None) at (xs, t), on lists."""
    parts = gamma, dH, _, JdH, bracket = _drift_parts(model, xs)
    scale, inputs = gamma * bracket, model._inputs
    if inputs is None:
        return [scale * v for v in JdH], parts, None
    inp = inputs(xs, dH, t)
    return [scale * v + b for v, b in zip(JdH, inp)], parts, inp


def drift_rhs(model: IphsModel, x) -> np.ndarray:
    """gamma(x) * (dS^T J dH) * (J dH); zero wherever dH vanishes."""
    gamma, _, _, JdH, bracket = _drift_parts(model, _as_vector(x, model.n).tolist())
    return np.array([gamma * bracket * v for v in JdH])


def full_rhs(model: IphsModel, x, t: float) -> np.ndarray:
    """Drift plus input terms W + g u."""
    return np.array(_rhs(model, _as_vector(x, model.n).tolist(), t)[0])


def observable_rate(model: IphsModel, f, x) -> float:
    """Rate of change of f along the drift: gamma * (dS^T J dH) * (df^T J dH).

    Identical (up to rounding) to df(x)^T drift_rhs(model, x).
    """
    if f.n != model.n:
        raise DimensionMismatch(f"field has dimension {f.n}, expected {model.n}")
    xs = _as_vector(x, model.n).tolist()
    gamma, _, _, JdH, bracket = _drift_parts(model, xs)
    return gamma * bracket * _dot(list_form(f)[1](xs), JdH)


def _sample(model: IphsModel, xs: list, t: float) -> tuple:
    """(H, S, sigma_int, p, q) at an accepted sample, and the rhs there,
    which is the next RK4 step's k1."""
    rhs, (gamma, dH, dS, _, bracket), inp = _rhs(model, xs, t)
    p, q = (0.0, 0.0) if inp is None else (_dot(dH, inp), _dot(dS, inp))
    _, H_value, _, S_value, _, _ = model._kernel
    return (H_value(xs), S_value(xs), gamma * bracket * bracket, p, q), rhs


def integrate(model: IphsModel, x0, t_end: float, dt: float = 1e-3) -> Trajectory:
    """Fixed-step RK4 solve of the full dynamics, sampling every step.

    Each sample records H, S, sigma_int and the input powers p, q. If gamma
    fails to be positive or the state leaves the finite range mid-run, the
    trajectory returned is the valid prefix with ``fault`` set instead of
    raising.
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
    x = _as_vector(x0, model.n).tolist()
    _, H_value, _, S_value, _, _ = model._kernel
    times, states, fault = [0.0], [x], None
    half, sixth = 0.5 * dt, dt / 6.0
    # Overflow to inf/nan (silent in float arithmetic) is caught by the finiteness checks.
    with np.errstate(all="ignore"):
        try:
            row, k1 = _sample(model, x, 0.0)
            rows = [row]
        except NonpositiveGamma:
            rows = [(H_value(x), S_value(x), 0.0, 0.0, 0.0)]
            fault, steps = "NonpositiveGamma", 0

        for k in range(steps):
            t = k * dt
            try:
                k2 = _rhs(model, [a + half * b for a, b in zip(x, k1)], t + half)[0]
                k3 = _rhs(model, [a + half * b for a, b in zip(x, k2)], t + half)[0]
                k4 = _rhs(model, [a + dt * b for a, b in zip(x, k3)], t + dt)[0]
                x = [a + sixth * (b + 2.0 * c + 2.0 * d + e)
                     for a, b, c, d, e in zip(x, k1, k2, k3, k4)]
                row = None
                if all(map(math.isfinite, x)):
                    row, k1 = _sample(model, x, (k + 1) * dt)
                if row is None or not all(map(math.isfinite, row[:3])):
                    fault = "NonFiniteState"
                    break
            except NonpositiveGamma:
                fault = "NonpositiveGamma"
                break
            times.append((k + 1) * dt)
            states.append(x)
            rows.append(row)

    columns = [np.array(column) for column in zip(*rows)]
    return Trajectory(np.array(times), np.array(states), *columns, fault=fault)


def input_power(model: IphsModel, trajectory: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample dH^T (W + g u) and dS^T (W + g u), as ``integrate`` recorded them."""
    return trajectory.p, trajectory.q


def _accumulated_mismatch(values: np.ndarray, rate: np.ndarray, t: np.ndarray) -> np.ndarray:
    """values - values[0] - (trapezoid integral of rate over the samples t)."""
    supplied = np.zeros(len(t))
    increments = 0.5 * (rate[1:] + rate[:-1]) * (t[1:] - t[:-1])
    supplied[1:] = np.cumsum(increments)
    return values - values[0] - supplied


def balance_ledger(trajectory: Trajectory) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Accumulated balance mismatches, one value per sample, from what
    ``integrate`` recorded: (H - H0 - int p, S - S0 - int (sigma_int + q),
    S - S0 - int (sigma_int + p)). A faulted prefix may start from a
    non-finite H or S; its columns are then non-finite, without a warning."""
    t, H, S, sig = trajectory.times, trajectory.H_values, trajectory.S_values, trajectory.sigma_int
    with np.errstate(all="ignore"):
        return (
            _accumulated_mismatch(H, trajectory.p, t),
            _accumulated_mismatch(S, sig + trajectory.q, t),
            _accumulated_mismatch(S, sig + trajectory.p, t),
        )


def audit_balances(model: IphsModel, trajectory: Trajectory) -> BalanceReport:
    """Reduce the balance ledger to its largest mismatches and a verdict.

    The energy gate is H - H0 = int dH^T (W + g u); the entropy gate is
    S - S0 = int (sigma_int + dS^T (W + g u)), with the dH^T (W + g u)
    variant reported as ``max_entropy_defect_alt``. Each scale is
    max(1, max|change|, max|supplied integral|) of its gated balance. A run
    passes when sigma_int >= -AUDIT_SIGMA_SLACK and each gated defect is at
    most AUDIT_DEFECT_REL times its scale.
    """
    if len(trajectory) < 3:
        raise TrajectoryTooShort(f"need >= 3 samples, got {len(trajectory)}")
    columns = balance_ledger(trajectory)
    energy, entropy, entropy_alt = (float(np.max(np.abs(c))) for c in columns)

    def scale(values, mismatch):  # the supplied integral is change - mismatch
        change = values - values[0]
        return max(1.0, float(np.max(np.abs(change))), float(np.max(np.abs(change - mismatch))))

    energy_scale = scale(trajectory.H_values, columns[0])
    entropy_scale = scale(trajectory.S_values, columns[1])
    min_sigma = float(np.min(trajectory.sigma_int))
    passed = (
        min_sigma >= -AUDIT_SIGMA_SLACK
        and energy <= AUDIT_DEFECT_REL * energy_scale
        and entropy <= AUDIT_DEFECT_REL * entropy_scale
    )
    return BalanceReport(
        max_energy_defect=energy,
        max_entropy_defect=entropy,
        max_entropy_defect_alt=entropy_alt,
        min_sigma_int=min_sigma,
        energy_scale=energy_scale,
        entropy_scale=entropy_scale,
        samples=len(trajectory),
        passed=passed,
    )


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
    H = exp_sum_field(2)
    S = PolynomialField(2, [((1, 0), 1.0), ((0, 1), 1.0)])
    gamma = exp_neg_sum_field(2, scale=conductance)
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
