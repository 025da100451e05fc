"""Brute-force oracles, structurally independent of the main checkers.

Everything here is deliberately written as plain Python loops over nested
lists, with no helper code shared with the vectorized checkers, so that an
agreement between the two is evidence rather than tautology. The tensor
loops are only meant for small dimensions (n <= 5). ``loop_trajectory`` is
the same kind of reference for the compiled RK4 step of ``integrate``.

The oracles apply the checkers' scale rule through their own loops: a
tolerance is relative, bounding each residual by ``tol * max|t|`` and the
PSD test along y by ``tol * max|t| * |y|^2``, with max|t| and |y|^2 taken
by loops over the nested lists. ``RAW_III`` is re-derived in the paper's
two families (three terms on repeated indices, six on distinct ones),
not as the checker's halved six-term sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .brackets import BracketMatrix, product_tensor
from .dynamics import Trajectory
from .eig import jacobi_eigenvalues
from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    EmptyDirectionSet,
    NegativeCoefficient,
    NonFiniteValue,
    NonpositiveGamma,
    ToleranceTooLarge,
)
from .fields import ExpNegSumField, ExpSumField, PolynomialField
from .tensor import DEFAULT_TOL, Tensor4, symmetrize_34

ORACLE_MAX_DIMENSION = 5


@dataclass(frozen=True)
class OracleReport:
    """Loop-based verdicts for the four index-identity conditions."""

    sym_a: bool
    cyclic_b: bool
    raw_iii: bool
    quasi_poisson: bool

    def as_dict(self) -> dict[str, bool]:
        return {
            "SYM_A": self.sym_a,
            "CYCLIC_B": self.cyclic_b,
            "RAW_III": self.raw_iii,
            "QUASI_POISSON": self.quasi_poisson,
        }


@dataclass(frozen=True)
class PsdOracleReport:
    """Loop-based PSD verdict: the first failing direction and its residual
    (the asymmetry, or the negative smallest eigenvalue), both None on a pass."""

    passed: bool
    direction: tuple[float, ...] | None = None
    residual: float | None = None


def fd_gradient(f, x, step: float = 1e-6) -> list[float]:
    """Central-difference gradient, one coordinate at a time."""
    if step <= 0.0:
        raise NegativeCoefficient(f"step must be > 0, got {step}")
    x = [float(v) for v in x]
    grad = []
    for m in range(len(x)):
        hi = list(x)
        lo = list(x)
        hi[m] += step
        lo[m] -= step
        grad.append((float(f.value(hi)) - float(f.value(lo))) / (2.0 * step))
    return grad


def _loop_pow(xv: float, e: int) -> float:
    """xv ** e on Python floats; where Python raises OverflowError, numpy's
    scalar ``**`` (the same libm pow) gives the signed infinity."""
    try:
        return xv**e
    except OverflowError:
        with np.errstate(over="ignore"):
            return float(np.float64(xv) ** e)


def loop_polynomial(f, x) -> tuple[float, list[float]]:
    """Value and gradient of a ``PolynomialField`` straight from its ``terms``.

    Term by term and factor by factor, with every power recomputed, so it
    shares nothing with the compiled evaluation; the multiplication order is
    the documented one (coefficient, then factors in coordinate order, terms
    summed in stored order), so the two agree bit for bit.
    """
    x = [float(v) for v in x]
    if len(x) != f.n:
        raise DimensionMismatch(f"expected a point in R^{f.n}, got {len(x)} coordinates")
    value = 0.0
    grad = [0.0] * f.n
    for exps, coeff in f.terms:
        term = coeff
        for xv, e in zip(x, exps):
            if e:
                term *= _loop_pow(xv, e)
        value += term
        for m, em in enumerate(exps):
            if em == 0:
                continue
            term = coeff * em
            for j, (xv, e) in enumerate(zip(x, exps)):
                p = e - 1 if j == m else e
                if p:
                    term *= _loop_pow(xv, p)
            grad[m] += term
    return value, grad


def _loop_exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def loop_exponential(f, x) -> tuple[float, list[float]]:
    """Value and gradient of an ``ExpSumField`` or ``ExpNegSumField`` by a
    loop over the coordinates, ``math.exp`` giving inf where it overflows.
    The sums run from 0.0 in coordinate order and the scale multiplies
    last, as in the compiled statements, so the two agree bit for bit."""
    x = [float(v) for v in x]
    if len(x) != f.n:
        raise DimensionMismatch(f"expected a point in R^{f.n}, got {len(x)} coordinates")
    if isinstance(f, ExpSumField):
        exps = [_loop_exp(v) for v in x]
        total = 0.0
        for e in exps:
            total += e
        return f.scale * total, [f.scale * e for e in exps]
    total = 0.0
    for v in x:
        total += v
    e = _loop_exp(-total)
    return f.scale * e, [-f.scale * e] * f.n


def _fold_dot(a, b) -> float:
    total = 0.0
    for u, v in zip(a, b):
        total += u * v
    return total


def loop_trajectory(model, x0, t_end: float, dt: float = 1e-3) -> Trajectory:
    """Reference for ``dynamics.integrate``: the same fixed-step RK4 and
    fault rules, written as a loop over lists of floats.

    Polynomial fields are evaluated by ``loop_polynomial``, the exponential
    fields by ``loop_exponential``, other fields by their own ndarray
    methods; W + g u comes from the model's callables as
    (0.0 + W_i) + g_i . u; every dot product is a left fold from 0.0. Each
    sample supplies the next step's k1 and first balance rates; the
    integrals of p, sigma_int + q and sigma_int + p take the RK4 update of
    x over the rates at k1-k4 (p = q = 0 for an isolated model); the
    throughputs G_H and G_S add |dH| (|k1| dt) and |dS| (|k1| dt) taken at
    each step's sample, norms by ``math.hypot``, once the step's next sample
    is kept, and are returned as the pair through the last kept sample. Unlike
    ``integrate`` it does not check its arguments.
    """
    n, J = model.n, model.J.array.tolist()
    W, g, u = model.W, model.g, model.u

    def value(f, x):
        if isinstance(f, PolynomialField):
            return loop_polynomial(f, x)[0]
        if isinstance(f, (ExpSumField, ExpNegSumField)):
            return loop_exponential(f, x)[0]
        return float(f.value(np.array(x)))

    def grad(f, x):
        if isinstance(f, PolynomialField):
            return loop_polynomial(f, x)[1]
        if isinstance(f, (ExpSumField, ExpNegSumField)):
            return loop_exponential(f, x)[1]
        return np.asarray(f.grad(np.array(x)), dtype=float).tolist()

    def inputs(x, dH, t):
        if W is None and g is None:
            return None
        total = [0.0] * n
        if W is not None:
            w = np.asarray(W(np.array(x), np.array(dH)), dtype=float).tolist()
            total = [a + b for a, b in zip(total, w)]
        if g is not None:
            rows = np.asarray(g(np.array(x), np.array(dH)), dtype=float).tolist()
            us = np.array(u(t), dtype=float, ndmin=1).tolist()
            total = [a + _fold_dot(row, us) for a, row in zip(total, rows)]
        return total

    def rhs(x, t):
        gamma = value(model.gamma, x)
        if not gamma > 0.0:
            raise NonpositiveGamma(x, gamma)
        dH, dS = grad(model.H, x), grad(model.S, x)
        JdH = [_fold_dot(row, dH) for row in J]
        bracket = _fold_dot(dS, JdH)
        inp = inputs(x, dH, t)
        k = [gamma * bracket * v for v in JdH]
        sigma = gamma * bracket * bracket
        if inp is None:
            return k, (sigma, 0.0, 0.0), (0.0, sigma, sigma)
        k = [a + b for a, b in zip(k, inp)]
        p, q = _fold_dot(dH, inp), _fold_dot(dS, inp)
        return k, (sigma, p, q), (p, sigma + q, sigma + p)

    def sample(x, t):
        k, powers, rates = rhs(x, t)
        norms = (math.hypot(*grad(model.H, x)), math.hypot(*grad(model.S, x)))
        return (value(model.H, x), value(model.S, x), *powers), k, rates, norms

    def rk4(x, k1, k2, k3, k4):
        return [a + sixth * (b + 2.0 * c + 2.0 * d + e) for a, b, c, d, e in zip(x, k1, k2, k3, k4)]

    steps = max(1, int(round(t_end / dt)))
    x = [float(v) for v in x0]
    times, states, fault, gross = [0.0], [x], None, [0.0, 0.0]
    half, sixth = 0.5 * dt, dt / 6.0
    with np.errstate(all="ignore"):
        try:
            row, k1, r1, norms = sample(x, 0.0)
            totals = [0.0, 0.0, 0.0]
            rows = [row + tuple(totals)]
        except NonpositiveGamma:
            rows = [(value(model.H, x), value(model.S, x), *[0.0] * 6)]
            fault, steps = "NonpositiveGamma", 0
        for k in range(steps):
            t = k * dt
            step_gross = [total + norm * (math.hypot(*k1) * dt) for total, norm in zip(gross, norms)]
            try:
                k2, _, r2 = rhs([a + half * b for a, b in zip(x, k1)], t + half)
                k3, _, r3 = rhs([a + half * b for a, b in zip(x, k2)], t + half)
                k4, _, r4 = rhs([a + dt * b for a, b in zip(x, k3)], t + dt)
                x = rk4(x, k1, k2, k3, k4)
                if not all(map(math.isfinite, x)):
                    fault = "NonFiniteState"
                    break
                row, k1, r5, n5 = sample(x, (k + 1) * dt)
                if not all(map(math.isfinite, row[:3])):
                    fault = "NonFiniteState"
                    break
            except NonpositiveGamma:
                fault = "NonpositiveGamma"
                break
            totals, r1, gross, norms = rk4(totals, r1, r2, r3, r4), r5, step_gross, n5
            times.append((k + 1) * dt)
            states.append(x)
            rows.append(row + tuple(totals))
    columns = [np.array(column) for column in zip(*rows)]
    return Trajectory(np.array(times), np.array(states), *columns[:5], np.column_stack(columns[5:]),
                      tuple(gross), fault=fault)


def _oracle_inputs(t: Tensor4, tol) -> tuple[float, list, float]:
    """The validated tolerance, a nested-list copy of t, and max|t| by loops."""
    if t.n > ORACLE_MAX_DIMENSION:
        raise DimensionTooLarge(
            f"oracle loops support n <= {ORACLE_MAX_DIMENSION}, got {t.n}"
        )
    tol = float(tol)
    if not math.isfinite(tol):
        raise NonFiniteValue(f"tolerance must be finite, got {tol}")
    if tol < 0.0:
        raise NegativeCoefficient(f"tolerance must be >= 0, got {tol}")
    if tol >= 1.0:
        raise ToleranceTooLarge(f"tolerance is relative and must be < 1, got {tol}")
    e = t.values.tolist()
    top = 0.0
    for block in e:
        for row in block:
            for col in row:
                for v in col:
                    top = max(top, abs(v))
    return tol, e, top


def exhaustive_condition_check(t: Tensor4, tol: float = DEFAULT_TOL) -> OracleReport:
    """Re-derive the index-identity verdicts with quadruple loops.

    Works on a nested-list copy of the tensor so no array machinery from the
    primary implementation is involved. Restricted to n <= 5: the loops are
    O(n^4) per condition and meant as a cross-check, not as the fast path.
    """
    tol, e, top = _oracle_inputs(t, tol)
    n = t.n

    # One pass over every (i, j, k, l); the six-term RAW_III family only
    # over pairwise different i, k, l, keeping its literal term order.
    sym_worst = cyc_worst = raw_worst = qp_worst = 0.0
    for i in range(n):
        for j in range(n):
            for l in range(n):
                raw_worst = max(raw_worst, abs(e[i][j][i][l] + e[i][j][l][i] + e[l][j][i][i]))
            for k in range(n):
                for l in range(n):
                    v = e[i][j][k][l]
                    sym_worst = max(sym_worst, abs(v - e[i][j][l][k]))
                    cyc_worst = max(cyc_worst, abs(v + e[k][j][l][i] + e[l][j][i][k]))
                    qp_worst = max(qp_worst, abs(v + e[l][j][k][i]))
                    if i != k and i != l and k != l:
                        six = (
                            v
                            + e[k][j][i][l]
                            + e[k][j][l][i]
                            + e[l][j][k][i]
                            + e[i][j][l][k]
                            + e[l][j][i][k]
                        )
                        raw_worst = max(raw_worst, abs(six))

    bound = tol * top
    return OracleReport(
        sym_a=sym_worst <= bound,
        cyclic_b=cyc_worst <= bound,
        raw_iii=raw_worst <= bound,
        quasi_poisson=qp_worst <= bound,
    )


def exhaustive_psd_check(t: Tensor4, directions, tol: float = DEFAULT_TOL) -> PsdOracleReport:
    """Re-derive the sampled PSD verdict with loops and the Jacobi solver.

    Same contract as the primary check: per direction, in list order, a
    non-finite entry of M or M + M^T, or a non-finite bound
    ``tol * max|t| * |y|^2``, raises NonFiniteValue; then the asymmetry
    ``max|M - M^T|`` is tested against the bound before the smallest
    eigenvalue of the symmetrized M is tested against its negative. M(y) is
    contracted entry by entry from a nested-list copy of the tensor.
    Restricted to n <= 5.
    """
    tol, e, top = _oracle_inputs(t, tol)
    n = t.n
    dirs = []
    for y in directions:
        arr = np.asarray(y, dtype=float)
        if arr.shape != (n,):
            raise DimensionMismatch(f"direction has shape {arr.shape}, expected ({n},)")
        dirs.append(arr.tolist())
    if not dirs:
        raise EmptyDirectionSet("the PSD oracle needs at least one direction")
    for number, y in enumerate(dirs, 1):
        M = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                acc = 0.0
                for k in range(n):
                    for l in range(n):
                        acc += e[i][j][k][l] * y[k] * y[l]
                M[i][j] = acc
        length2 = 0.0
        for v in y:
            length2 += v * v
        bound = tol * top * length2
        finite = math.isfinite(bound)
        asym = 0.0
        for i in range(n):
            for j in range(n):
                finite = finite and math.isfinite(M[i][j] + M[j][i])
                asym = max(asym, abs(M[i][j] - M[j][i]))
        if not finite:
            raise NonFiniteValue(f"M(y) or its bound is not finite at direction #{number}")
        if asym > bound:
            return PsdOracleReport(False, tuple(y), asym)
        lam_min = float(jacobi_eigenvalues(M)[0])
        if lam_min < -bound:
            return PsdOracleReport(False, tuple(y), lam_min)
    return PsdOracleReport(True)


def random_skew(rng: np.random.Generator, n: int) -> BracketMatrix:
    """Dense skew matrix with entries in (-1, 1), exactly antisymmetric."""
    upper = np.triu(rng.uniform(-1.0, 1.0, size=(n, n)), k=1)
    return BracketMatrix(upper - upper.T)


def random_polynomial(rng: np.random.Generator, n: int, degree_max: int = 3, terms: int = 6):
    """Random polynomial of total degree <= degree_max with a linear part.

    The guaranteed linear part keeps gradients generically nonzero at
    random points.
    """
    entries = []
    for i in range(n):
        exps = [0] * n
        exps[i] = 1
        entries.append((tuple(exps), float(rng.uniform(-2.0, 2.0))))
    for _ in range(terms):
        exps = [0] * n
        budget = int(rng.integers(0, degree_max + 1))
        for _ in range(budget):
            exps[int(rng.integers(0, n))] += 1
        entries.append((tuple(exps), float(rng.uniform(-2.0, 2.0))))
    return PolynomialField(n, entries)


def random_cons_irrev(seed: int, n: int, count: int, gamma_max: float = 5.0) -> list[Tensor4]:
    """Generators of the passing class: gamma * symmetrize_34(J (x) J).

    Every emitted tensor satisfies the symmetry, cyclic-sum, annihilation,
    and sampled-PSD conditions by construction.
    """
    if n < 2:
        raise DimensionTooLarge(f"need n >= 2 to have nonzero skew matrices, got {n}")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        J = random_skew(rng, n)
        gamma = float(rng.uniform(0.0, gamma_max))
        base = symmetrize_34(product_tensor(J, J))
        out.append(Tensor4(n, gamma * base.values))
    return out


def hidden_psd_violation(seed: int, n: int, eps: float = 1e-3) -> tuple[Tensor4, np.ndarray]:
    """(t, u): a tensor that passes SYM_A and CYCLIC_B but not PSD_C, and the
    unit direction u that refutes it. Built in three steps from a seeded
    orthonormal pair (a, b):

    1. the unit 2-plane K0 = (a b^T - b a^T) / sqrt(2);
    2. the sum of sym34(E (x) E) over an orthonormal basis E of the skew
       matrices orthogonal to K0 (Frobenius inner product);
    3. minus eps * sym34(K0 (x) K0).

    So x^T M(y) x = |x ^ y|^2 / 2 - (1 + eps) <K0, x y^T>^2 with |x ^ y|^2 =
    |x|^2 |y|^2 - (x.y)^2, which is negative only where y lies within about
    sqrt(eps) of the plane of a and b; at u = a, M(u) has the eigenvalue
    -eps / 2 (eigenvector b). For n >= 3 the standard directions mostly miss
    that plane, so the sampled scan passes t.
    """
    if n < 2:
        raise DimensionTooLarge(f"need n >= 2 to have a 2-plane, got {n}")
    if not eps > 0.0:
        raise NegativeCoefficient(f"eps must be > 0, got {eps}")
    a, b = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, 2)))[0].T
    K0 = (np.outer(a, b) - np.outer(b, a)) / math.sqrt(2.0)
    # Summed over any orthonormal basis E of all skew matrices, E[i,k] E[j,l] is
    # (d_ij d_kl - d_il d_jk) / 2; step 2 is that sum minus K0 (x) K0.
    eye = np.eye(n)
    every = 0.5 * (np.einsum("ij,kl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye))
    return symmetrize_34(Tensor4(n, every - (1.0 + eps) * np.einsum("ik,jl->ijkl", K0, K0))), a


def kulkarni_nomizu(sigma, mu) -> np.ndarray:
    """The Kulkarni-Nomizu product of two symmetric matrices, R[i,j,k,l] =
    s[i,k] m[j,l] + s[j,l] m[i,k] - s[i,l] m[j,k] - s[j,k] m[i,l]."""
    R = np.einsum("ik,jl->ijkl", sigma, mu) - np.einsum("il,jk->ijkl", sigma, mu)
    return R + R.transpose(1, 0, 3, 2)


def kulkarni_nomizu_member(seed: int, n: int, ranks=(2, 2), indefinite=False, sparse=False):
    """(t, terms): t = sym34(R[i,k,j,l]), R = kulkarni_nomizu(sum_p a_p a_p^T, sum_q w_q b_q b_q^T),
    and its terms (w_q, K = a_p ^ b_q): R[i,k,j,l] = sum w K (x) K. Every w_q is 1 but, if ``indefinite``, one
    unit b_q orthogonal to the rest (ranks[1] < n) has w_q = -1e-3 lambda_max(mu). ``sparse``: 2 nonzeros each."""
    rng = np.random.default_rng(seed)
    a, b = (rng.standard_normal((r, n)) * ((rng.random((r, n)).argsort(1) < 2) | (not sparse)) for r in ranks)
    w = np.ones(len(b))
    if indefinite:
        _, s, v = np.linalg.svd(b)
        b, w = np.vstack([b, v[-1]]), np.append(w, -1e-3 * s[0] ** 2)
    terms = [(wq, np.outer(ap, bq) - np.outer(bq, ap)) for ap in a for wq, bq in zip(w, b)]
    return symmetrize_34(Tensor4(n, kulkarni_nomizu(a.T @ a, (b.T * w) @ b).transpose(0, 2, 1, 3))), terms
