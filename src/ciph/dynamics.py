"""Drift dynamics driven by a bracket product, with balance audits.

The state equation is

    dx/dt = gamma(x) * (dS^T J dH) * (J dH)  +  W(x, dH)  +  g(x, dH) u(t)

for a Hamiltonian H (conserved by the drift), an entropy S (produced by the
drift at rate sigma_int = gamma * (dS^T J dH)^2 >= 0), a constant skew J,
and a strictly positive coefficient gamma. W, g and u are optional input
terms with no structural constraints.

Integration is fixed-step classical Runge-Kutta (RK4): deterministic
trajectories matter more here than adaptive efficiency. Gradients of H and S
are taken in one kernel, ``_drift_parts``. Each accepted sample evaluates it
once, which gives H, S, sigma_int, the input powers p = dH^T (W + g u) and
q = dS^T (W + g u), and the next step's k1 at the same (x, t); so a step takes
8 field gradients (2 per rhs for k2-k4, 2 at the sample), and the audit and
the CSV writer read p and q from the trajectory instead of recomputing them.

The audit compares centered finite differences of H and S along a trajectory
against the two balance equations; the entropy balance is checked in the form
dS/dt = sigma_int + dH^T (W + g u) and, side by side, in the variant with
dS^T (W + g u), without deciding between them.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .brackets import BracketMatrix, is_skew
from .errors import (
    DimensionMismatch,
    FormatError,
    NegativeCoefficient,
    NonFiniteValue,
    NonpositiveGamma,
    TrajectoryTooShort,
)
from .fields import PolynomialField, exp_neg_sum_field, exp_sum_field

SKEW_TOL = 1e-12


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

    def gamma_at(self, x) -> float:
        value = float(self.gamma.value(x))
        if not value > 0.0:
            raise NonpositiveGamma(x, value)
        return value

    @property
    def forced(self) -> bool:
        """Whether W or g u contributes an input term."""
        return self.W is not None or (self.g is not None and self.u is not None)

    def input_term(self, x, dH, t: float) -> np.ndarray:
        """W(x, dH) + g(x, dH) u(t), with missing pieces treated as zero."""
        total = np.zeros(self.n)
        if self.W is not None:
            w = np.asarray(self.W(x, dH), dtype=float)
            if w.shape != (self.n,):
                raise DimensionMismatch(f"W returned shape {w.shape}, expected ({self.n},)")
            total += w
        if self.g is not None and self.u is not None:
            gmat = np.asarray(self.g(x, dH), dtype=float)
            uvec = np.atleast_1d(np.asarray(self.u(t), dtype=float))
            if gmat.ndim != 2 or gmat.shape[0] != self.n or gmat.shape[1] != uvec.shape[0]:
                raise DimensionMismatch(
                    f"g has shape {gmat.shape}, incompatible with u of length {uvec.shape[0]}"
                )
            total += gmat @ uvec
        return total


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

    def to_json(self) -> dict:
        return asdict(self)


def _drift_parts(model: IphsModel, x: np.ndarray) -> tuple:
    """(gamma, dH, dS, J dH, dS^T J dH) at x: the one place the dynamics
    take gradients of H and S."""
    gamma = model.gamma_at(x)
    dH = np.asarray(model.H.grad(x), dtype=float)
    dS = np.asarray(model.S.grad(x), dtype=float)
    JdH = model.J.array @ dH
    return gamma, dH, dS, JdH, float(dS @ JdH)


def drift_rhs(model: IphsModel, x) -> np.ndarray:
    """gamma(x) * (dS^T J dH) * (J dH); zero wherever dH vanishes."""
    gamma, _, _, JdH, bracket = _drift_parts(model, np.asarray(x, dtype=float))
    return gamma * bracket * JdH


def full_rhs(model: IphsModel, x, t: float) -> np.ndarray:
    """Drift plus input terms W + g u."""
    x = np.asarray(x, dtype=float)
    gamma, dH, _, JdH, bracket = _drift_parts(model, x)
    rhs = gamma * bracket * JdH
    return rhs + model.input_term(x, dH, t) if model.forced else rhs


def observable_rate(model: IphsModel, f, x) -> float:
    """Rate of change of f along the drift: gamma * (dS^T J dH) * (df^T J dH).

    Identical (up to rounding) to df(x)^T drift_rhs(model, x).
    """
    x = np.asarray(x, dtype=float)
    if f.n != model.n:
        raise DimensionMismatch(f"field has dimension {f.n}, expected {model.n}")
    gamma, _, _, JdH, bracket = _drift_parts(model, x)
    return gamma * bracket * float(np.asarray(f.grad(x), dtype=float) @ JdH)


def _sample(model: IphsModel, x: np.ndarray, t: float) -> tuple:
    """(H, S, sigma_int, p, q) at an accepted sample, and the rhs there,
    which is the next RK4 step's k1."""
    gamma, dH, dS, JdH, bracket = _drift_parts(model, x)
    rhs, p, q = gamma * bracket * JdH, 0.0, 0.0
    if model.forced:
        inp = model.input_term(x, dH, t)
        rhs, p, q = rhs + inp, float(dH @ inp), float(dS @ inp)
    H, S = float(model.H.value(x)), float(model.S.value(x))
    return (H, S, gamma * bracket * bracket, p, q), rhs


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
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (model.n,):
        raise DimensionMismatch(f"x0 has shape {x.shape}, expected ({model.n},)")

    times = [0.0]
    states = [x.copy()]
    fault = None
    try:
        with np.errstate(all="ignore"):
            row, k1 = _sample(model, x, 0.0)
        rows = [row]
    except NonpositiveGamma:
        rows = [(float(model.H.value(x)), float(model.S.value(x)), 0.0, 0.0, 0.0)]
        fault, steps = "NonpositiveGamma", 0

    for k in range(steps):
        t = k * dt
        try:
            # Overflow to inf/nan is caught by the finiteness check below.
            with np.errstate(all="ignore"):
                k2 = full_rhs(model, x + 0.5 * dt * k1, t + 0.5 * dt)
                k3 = full_rhs(model, x + 0.5 * dt * k2, t + 0.5 * dt)
                k4 = full_rhs(model, x + dt * k3, t + dt)
                x_next = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                row = None
                if np.all(np.isfinite(x_next)):
                    row, k1 = _sample(model, x_next, (k + 1) * dt)
            if row is None or not all(np.isfinite(row[:3])):
                fault = "NonFiniteState"
                break
            x = x_next
        except NonpositiveGamma:
            fault = "NonpositiveGamma"
            break
        times.append((k + 1) * dt)
        states.append(x.copy())
        rows.append(row)

    columns = [np.array(column) for column in zip(*rows)]
    return Trajectory(np.array(times), np.array(states), *columns, fault=fault)


def input_power(model: IphsModel, trajectory: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample dH^T (W + g u) and dS^T (W + g u), as ``integrate`` recorded them."""
    return trajectory.p, trajectory.q


def audit_balances(model: IphsModel, trajectory: Trajectory) -> BalanceReport:
    """Check both balance equations against centered finite differences.

    Energy: dH/dt vs dH^T (W + g u). Entropy: dS/dt vs
    sigma_int + dH^T (W + g u), with the dS^T (W + g u) variant reported
    alongside. Defects are maxima over interior samples; each balance's
    scale is max(1, largest rate magnitude involved), so defect thresholds
    can be stated relative to it.
    """
    if len(trajectory) < 3:
        raise TrajectoryTooShort(f"need >= 3 samples, got {len(trajectory)}")
    t, H, S, sig = trajectory.times, trajectory.H_values, trajectory.S_values, trajectory.sigma_int
    p, q = input_power(model, trajectory)

    span = t[2:] - t[:-2]
    fdH = (H[2:] - H[:-2]) / span
    fdS = (S[2:] - S[:-2]) / span
    rhs_E = p[1:-1]
    rhs_S = sig[1:-1] + p[1:-1]
    rhs_S_alt = sig[1:-1] + q[1:-1]

    energy_scale = max(1.0, float(np.max(np.abs(fdH))), float(np.max(np.abs(rhs_E))))
    entropy_scale = max(1.0, *(float(np.max(np.abs(v))) for v in (fdS, rhs_S, rhs_S_alt)))
    return BalanceReport(
        max_energy_defect=float(np.max(np.abs(fdH - rhs_E))),
        max_entropy_defect=float(np.max(np.abs(fdS - rhs_S))),
        max_entropy_defect_alt=float(np.max(np.abs(fdS - rhs_S_alt))),
        min_sigma_int=float(np.min(sig)),
        energy_scale=energy_scale,
        entropy_scale=entropy_scale,
        samples=len(trajectory),
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
