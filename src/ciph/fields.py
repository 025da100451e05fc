"""Scalar fields R^n -> R with exact analytic gradients.

Two concrete kinds are provided. ``PolynomialField`` stores a polynomial as
a list of (exponent multi-index, coefficient) terms and writes its value and
gradient out as straight-line Python statements (``emit``), which compute
each coordinate power once; its own list functions are compiled from them,
and so is the model step in ``ciph.dynamics``. Its gradient is exact up to
rounding. ``CallableField`` wraps closed-form value/gradient callables and
is used for the built-in non-polynomial energies (e.g. exponential
compartment energies).

Any object with attributes ``n``, ``value(x)`` and ``grad(x)`` is accepted
wherever a scalar field is expected; ``list_form`` calls it on ndarrays.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, FormatError, NonFiniteValue
from .tensor import _dimension, _integer


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


def _names(stem: str, count: int) -> list[str]:
    """Local names ``stem0, stem1, ...`` for generated source."""
    return [f"{stem}{i:d}" for i in range(count)]


def _unpack(targets: Sequence[str]) -> str:
    """An assignment target list, ``a0, a1, `` (a lone name keeps its comma)."""
    return "".join(f"{name}, " for name in targets)


def _list(items: Sequence[str]) -> str:
    """A list display of the names ``items``."""
    return "[" + ", ".join(items) + "]"


def _fold(total: str, products: Sequence[str]) -> list[str]:
    """Statements for a left fold from 0.0, one accumulator statement per
    term: deep expressions do not compile (CPython caps nesting at 200
    parentheses, and a 5000-term ``+`` chain exhausts its recursion)."""
    if not products:
        return [f"{total} = 0.0"]
    return [f"{total} = 0.0 + {products[0]}", *(f"{total} = {total} + {p}" for p in products[1:])]


def _overflowed(bases: list, exponents: tuple) -> list[float]:
    """The powers, for when float ``**`` raised OverflowError: numpy scalars
    use the same pow and give +-inf."""
    with np.errstate(over="ignore"):
        return [float(np.float64(b) ** e) for b, e in zip(bases, exponents)]


def _compile(lines: Sequence[str], namespace: dict, name: str) -> Callable:
    """Compile ``lines`` (a whole ``def``) with ``namespace`` as its globals.

    Every number of a model reaches the source as a namespace name, never as
    text, so no float is printed and read back; only ints (exponents,
    indices) are formatted."""
    exec(compile("\n".join(lines), f"<ciph {name}>", "exec"), namespace)
    return namespace[name]


class PolynomialField:
    """Polynomial scalar field with rational-style exact differentiation.

    Terms are (exponents, coefficient) pairs; exponents are nonnegative
    integers (integral floats accepted, fractions rejected), one per
    coordinate. Duplicate multi-indices are merged and
    zero terms dropped, so the stored representation is canonical. They are
    compiled into the distinct (coordinate, power) pairs they use, value
    terms (coef, factor positions) and derivative terms (coordinate,
    coef * exponent, factor positions). ``emit`` writes these out as
    straight-line Python statements: each power once, by ``**`` on Python
    floats (the scalar libm ``pow``), then one accumulator statement per
    term, coefficient first and factors in coordinate order. ``value_list``
    and ``grad_list`` take a list of n floats; they are compiled from
    ``emit`` on first use, and ``value`` and ``grad`` wrap them. The model
    step in ``ciph.dynamics`` inlines the same statements.
    """

    __slots__ = ("n", "terms", "_pairs", "_value_terms", "_grad_terms", "value_list", "grad_list")

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

    def emit(self, point: Sequence[str], prefix: str, namespace: dict) -> tuple[list, list, list]:
        """Statements evaluating the field at the local names ``point``:
        (powers, value, gradient). They set ``{prefix}p<k>`` (the powers),
        ``{prefix}v`` (the value) and ``{prefix}g<m>`` (the gradient), and
        bind the coefficients in ``namespace`` as ``{prefix}c<k>`` (value)
        and ``{prefix}d<k>`` (gradient), the exponents as ``{prefix}e``.
        The value and gradient statements read the powers, so the powers
        come first."""
        powers = _names(prefix + "p", len(self._pairs))
        power_lines = [
            "try:", *(f"    {p} = {point[j]} ** {e:d}" for p, (j, e) in zip(powers, self._pairs)),
            "except OverflowError:",
            f"    {_unpack(powers)}= _overflowed({_list([point[j] for j, _ in self._pairs])}, {prefix}e)",
        ] if powers else []
        namespace.update({"_overflowed": _overflowed, prefix + "e": tuple(e for _, e in self._pairs)})

        def product(coefficient, factors):
            return " * ".join([coefficient, *(powers[f] for f in factors)])

        value = []
        for k, (c, factors) in enumerate(self._value_terms):
            namespace[f"{prefix}c{k:d}"] = c
            value.append(product(f"{prefix}c{k:d}", factors))
        grad = {m: [] for m in range(self.n)}
        for k, (m, c, factors) in enumerate(self._grad_terms):
            namespace[f"{prefix}d{k:d}"] = c
            grad[m].append(product(f"{prefix}d{k:d}", factors))
        grad_lines = [line for m, terms in grad.items() for line in _fold(f"{prefix}g{m:d}", terms)]
        return power_lines, _fold(prefix + "v", value), grad_lines

    def __getattr__(self, name):
        # value_list and grad_list are compiled from ``emit`` on first use
        if name not in ("value_list", "grad_list"):
            raise AttributeError(f"'PolynomialField' object has no attribute {name!r}")
        point, namespace = _names("x", self.n), {}
        powers, value, grad = self.emit(point, "", namespace)
        head = f"    {_unpack(point)}= xs"
        self.value_list = _compile(
            ["def value_list(xs):", head, *("    " + s for s in powers + value), "    return v"],
            namespace, "value_list")
        self.grad_list = _compile(
            ["def grad_list(xs):", head, *("    " + s for s in powers + grad),
             f"    return {_list(_names('g', self.n))}"],
            namespace, "grad_list")
        return getattr(self, name)

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
