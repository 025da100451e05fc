"""Scalar fields R^n -> R with exact analytic gradients.

Two concrete kinds are provided. ``PolynomialField`` stores a polynomial as
a list of (exponent multi-index, coefficient) terms, compiled once so that a
call computes each coordinate power once; its gradient is exact up to
rounding. ``CallableField`` wraps closed-form value/gradient callables and
is used for the built-in non-polynomial energies (e.g. exponential
compartment energies).

Any object with attributes ``n``, ``value(x)`` and ``grad(x)`` is accepted
wherever a scalar field is expected.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, FormatError, NonFiniteValue
from .tensor import _integer


def _dimension(n) -> int:
    """A field's dimension: an integer >= 1 (integral floats accepted),
    never truncated."""
    if (m := _integer(n)) is None or m < 1:
        raise DimensionMismatch(f"dimension must be an integer >= 1, got {n!r}")
    return m


def _exponent(e) -> int:
    """A polynomial exponent: a nonnegative integral int or float (not a
    bool); anything else is a FormatError, never truncated."""
    k = _integer(e)
    if k is None or k < 0:
        raise FormatError(f"exponent {e!r} is not a nonnegative integer")
    return k


def _as_vector(x, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise DimensionMismatch(f"expected a vector in R^{n}, got shape {x.shape}")
    return x


def _coefficient(c) -> float:
    """A polynomial coefficient under the file readers' number rule: an int
    or float (a numpy one too) but not a boolean; inf beyond the double range."""
    if isinstance(c, bool) or not isinstance(c, (int, float, np.integer, np.floating)):
        raise FormatError(f"coefficient {c!r} is not a number")
    try:
        return float(c)
    except OverflowError:  # an int beyond the double range
        return math.inf if c > 0 else -math.inf


class PolynomialField:
    """Polynomial scalar field with rational-style exact differentiation.

    Terms are (exponents, coefficient) pairs; exponents are nonnegative
    integers (integral floats accepted, fractions rejected), one per
    coordinate. Duplicate multi-indices are merged and
    zero terms dropped, so the stored representation is canonical. They are
    compiled into the distinct (coordinate, power) pairs they use, value
    terms (coef, factor positions) and derivative terms (coordinate,
    coef * exponent, factor positions); factors multiply in coordinate order
    on Python floats, whose ``**`` is the scalar libm ``pow``. ``value_list``
    and ``grad_list`` take a list of n floats; ``value`` and ``grad`` wrap them.
    """

    __slots__ = ("n", "terms", "_pairs", "_value_terms", "_grad_terms")

    def __init__(self, n: int, terms: Iterable[tuple[Sequence[int], float]] = ()):
        n = _dimension(n)
        merged: dict[tuple[int, ...], float] = {}
        for exponents, coeff in terms:
            exps = tuple(map(_exponent, exponents))
            if len(exps) != n:
                raise DimensionMismatch(
                    f"exponent multi-index {exps} has length {len(exps)}, expected {n}"
                )
            merged[exps] = merged.get(exps, 0.0) + _coefficient(coeff)
        bad = [c for c in merged.values() if not math.isfinite(c)]  # inputs, or sums that overflowed
        if bad:
            raise NonFiniteValue(f"coefficient {bad[0]!r} is not finite")
        self.n = n
        self.terms = tuple(sorted((e, c) for e, c in merged.items() if c != 0.0))

        pairs: dict[tuple[int, int], int] = {}

        def factors(exps):
            return tuple(pairs.setdefault((j, e), len(pairs)) for j, e in enumerate(exps) if e)

        self._value_terms = tuple((c, factors(e)) for e, c in self.terms)
        self._grad_terms = tuple(
            (m, c * em, factors(e[:m] + (em - 1,) + e[m + 1:]))
            for e, c in self.terms
            for m, em in enumerate(e)
            if em
        )
        self._pairs = tuple(pairs)

    @classmethod
    def constant(cls, n: int, c: float) -> "PolynomialField":
        return cls(n, [((0,) * n, c)])

    @classmethod
    def coordinate(cls, n: int, i: int) -> "PolynomialField":
        """The coordinate function x_i; ``i`` is 1-based like all external indices."""
        if not 1 <= i <= n:
            raise DimensionMismatch(f"coordinate index {i} out of range 1..{n}")
        exps = [0] * n
        exps[i - 1] = 1
        return cls(n, [(exps, 1.0)])

    def _powers(self, xs: list) -> list[float]:
        try:
            return [xs[j] ** e for j, e in self._pairs]
        except OverflowError:
            # float ** raises on overflow; numpy scalars use the same pow and give +-inf
            with np.errstate(over="ignore"):
                return [float(np.float64(xs[j]) ** e) for j, e in self._pairs]

    def value_list(self, xs: list) -> float:
        powers = self._powers(xs)
        total = 0.0
        for term, factors in self._value_terms:
            for f in factors:
                term *= powers[f]
            total += term
        return total

    def grad_list(self, xs: list) -> list[float]:
        powers = self._powers(xs)
        g = [0.0] * self.n
        for m, term, factors in self._grad_terms:
            for f in factors:
                term *= powers[f]
            g[m] += term
        return g

    def value(self, x) -> float:
        return self.value_list(_as_vector(x, self.n).tolist())

    def grad(self, x) -> np.ndarray:
        return np.array(self.grad_list(_as_vector(x, self.n).tolist()))

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = PolynomialField.constant(self.n, float(other))
        if not isinstance(other, PolynomialField):
            return NotImplemented
        if other.n != self.n:
            raise DimensionMismatch("cannot add polynomials over different dimensions")
        return PolynomialField(self.n, list(self.terms) + list(other.terms))

    __radd__ = __add__

    def __neg__(self):
        return PolynomialField(self.n, [(e, -c) for e, c in self.terms])

    def __sub__(self, other):
        return self + (-other if isinstance(other, PolynomialField) else -float(other))

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        return PolynomialField(self.n, [(e, c * float(scalar)) for e, c in self.terms])

    __rmul__ = __mul__

    def __repr__(self):
        return f"PolynomialField(n={self.n}, terms={self.terms!r})"


class CallableField:
    """Scalar field backed by closed-form value and gradient callables."""

    __slots__ = ("n", "_value", "_grad", "name")

    def __init__(self, n: int, value: Callable, grad: Callable, name: str = "callable"):
        self.n = _dimension(n)
        self._value = value
        self._grad = grad
        self.name = name

    def value(self, x) -> float:
        return float(self._value(_as_vector(x, self.n)))

    def grad(self, x) -> np.ndarray:
        g = np.asarray(self._grad(_as_vector(x, self.n)), dtype=float)
        if g.shape != (self.n,):
            raise DimensionMismatch(f"gradient has shape {g.shape}, expected ({self.n},)")
        return g

    def __repr__(self):
        return f"CallableField(n={self.n}, name={self.name!r})"


def list_form(field) -> tuple[Callable, Callable]:
    """(value, grad) of a scalar field on lists of n floats (unchecked), grad
    returning a list: a ``PolynomialField``'s own, other fields via ndarrays."""
    if isinstance(field, PolynomialField):
        return field.value_list, field.grad_list
    return (lambda xs: float(field.value(np.array(xs))),
            lambda xs: _as_vector(field.grad(np.array(xs)), field.n).tolist())


def exp_sum_field(n: int, scale: float = 1.0) -> CallableField:
    """scale * sum_i exp(x_i): monotone convex compartment energy."""
    return CallableField(
        n,
        value=lambda x: scale * float(np.exp(x).sum()),
        grad=lambda x: scale * np.exp(x),
        name="exp_sum",
    )


def exp_neg_sum_field(n: int, scale: float = 1.0) -> CallableField:
    """scale * exp(-sum_i x_i): strictly positive, e.g. conductance/(T1*T2)."""

    def _v(x):
        return scale * float(np.exp(-x.sum()))

    def _g(x):
        return np.full(n, -scale * np.exp(-x.sum()))

    return CallableField(n, value=_v, grad=_g, name="exp_neg_sum")


BUILTIN_FIELDS: dict[str, Callable[..., CallableField]] = {
    "exp_sum": exp_sum_field,
    "exp_neg_sum": exp_neg_sum_field,
}


def builtin_field(name: str, n: int, params: dict | None = None):
    try:
        factory = BUILTIN_FIELDS[name]
    except KeyError:
        raise FormatError(f"unknown builtin field {name!r}") from None
    return factory(n, **(params or {}))
