"""Scalar fields R^n -> R with exact analytic gradients.

Three concrete kinds share one base, ``CompiledField``: each writes its
value and gradient out as straight-line Python statements on floats
(``emit``), and its list functions ``value_list`` and ``grad_list`` are
compiled from them, as is the model's RK4 loop in ``ciph.dynamics``. The
statements are split by what reads them, so a caller that needs only the
gradient (an RK4 stage) runs only the gradient's: the coordinate powers
the gradient reads, and the gradient folds. Powers only the value reads
are computed in the value statements. A caller that needs only the value
(gamma in a stage, ``value_list``) asks for the value form, the mirror
image: the powers the value reads come first, and those only the gradient
reads open the gradient statements. A fold of constants alone (a
constant's value, a linear field's gradient) is computed once, when the
statements are written, and bound as a name. ``PolynomialField`` stores a
polynomial as a list of (exponent multi-index, coefficient) terms and
computes each coordinate power it needs once (a first power is the
coordinate itself); its gradient is exact up to rounding.
``ExpSumField`` (scale * sum_i exp(x_i)) and ``ExpNegSumField``
(scale * exp(-sum_i x_i)), the built-in energies of the exponential
compartment models, call ``math.exp``.
``CallableField`` wraps user-supplied value/gradient callables.

Any object with attributes ``n``, ``value(x)`` and ``grad(x)`` is accepted
wherever a scalar field is expected; ``list_form`` calls it on ndarrays
unless it has ``emit`` (then it is a ``CompiledField``).
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add, mul
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, FormatError, NonFiniteValue
from .tensor import _dimension, _integer, _is_number


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
    if not _is_number(c):
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


# Terms per statement of a fold. A fold is one left-associated ``+`` chain,
# but CPython's compiler recurses once per operator (a 5000-term chain
# exhausts it), so a longer fold continues in further statements.
FOLD_TERMS = 32


def _product(names: Sequence[str], namespace: dict) -> str:
    """Source for the product of ``names`` left to right, without the
    factors bound to exactly 1.0 in ``namespace``: ``v * 1.0`` is ``v`` bit
    for bit, -0.0, inf and nan included. A product of 1.0s alone keeps its
    first name. A dropped factor is no longer read from the namespace."""
    kept = [name for name in names if not (isinstance(namespace.get(name), float) and namespace[name] == 1.0)]
    return " * ".join(kept or names[:1])


def _fold(total: str, products: Sequence[Sequence[str]], namespace: dict) -> list[str]:
    """Statements for a left fold from 0.0 of ``products``, each a sequence
    of names multiplied left to right (``_product``): one chain
    ``total = 0.0 + a + b + ...``, cut after every ``FOLD_TERMS`` terms into
    a statement ``total = total + ...``. The leading 0.0 stays, so a fold
    of -0.0 terms is +0.0 as in a loop from 0.0; so do factors of -1.0 and
    0.0, as ``-1.0 * nan`` and ``-nan`` differ in sign and ``0.0 * inf`` is
    nan.

    When every name is a number bound in ``namespace`` (a constant fold, the
    empty one included), the fold is computed here instead, by the same
    float operations in the same order, and bound there as ``total``: it
    costs no statement."""
    numbers = [[namespace.get(name) for name in product] for product in products]
    if all(isinstance(v, float) for factors in numbers for v in factors):
        namespace[total] = reduce(add, (reduce(mul, factors) for factors in numbers), 0.0)
        return []
    terms = [_product(product, namespace) for product in products]
    return [f"{total} = {total if i else '0.0'} + {' + '.join(terms[i:i + FOLD_TERMS])}"
            for i in range(0, len(terms), FOLD_TERMS)]


def _overflowed(bases: list, exponents: list) -> list[float]:
    """The powers, for when float ``**`` raised OverflowError: numpy scalars
    use the same pow and give +-inf."""
    with np.errstate(over="ignore"):
        return [float(np.float64(b) ** e) for b, e in zip(bases, exponents)]


def _powers(targets: Sequence[str], bases: Sequence[str], exponents: Sequence[int]) -> list[str]:
    """Statements ``target = base ** exponent`` under one ``try``; when one
    overflows, every target is recomputed by ``_overflowed``."""
    if not targets:
        return []
    return ["try:", *(f"    {t} = {b} ** {e:d}" for t, b, e in zip(targets, bases, exponents)),
            "except OverflowError:",
            f"    {_unpack(targets)}= _overflowed({_list(bases)}, {_list([f'{e:d}' for e in exponents])})"]


def _exp_or_inf(a: float) -> float:
    """math.exp, but inf where it overflows, as numpy's exp gives."""
    try:
        return math.exp(a)
    except OverflowError:
        return math.inf


def _exps(targets: Sequence[str], arguments: Sequence[str]) -> list[str]:
    """Statements ``target = exp(argument)``; when one overflows, every
    target is recomputed with the overflowing ones set to inf."""
    return ["try:", *(f"    {t} = _exp({a})" for t, a in zip(targets, arguments)),
            "except OverflowError:",
            f"    {_unpack(targets)}= map(_exp_or_inf, {_list(arguments)})"]


def _compile(lines: Sequence[str], namespace: dict, name: str) -> Callable:
    """Compile ``lines`` (a whole ``def``) with ``namespace`` as its globals.

    Every number of a model reaches the source as a namespace name, never as
    text, so no float is printed and read back; only ints (exponents,
    indices) are formatted."""
    exec(compile("\n".join(lines), f"<ciph {name}>", "exec"), namespace)
    return namespace[name]


class CompiledField:
    """Base of the fields that write themselves out as statements.

    A subclass sets ``n`` and defines ``emit(point, prefix, namespace,
    form)``, which returns (powers, value, gradient) statement lists
    evaluating the field at the local names ``point``. In the "grad" form
    the powers statements compute what the gradient reads; the gradient
    statements read only those and set ``{prefix}g<m>``; the value
    statements, run after the powers, compute what only the value reads and
    set ``{prefix}v``. The "value" form swaps the roles of value and
    gradient. Every number is bound in ``namespace`` under a name that
    starts with ``prefix``, and so is a total that is constant (a ``_fold``
    of bound numbers), which then has no statement. ``value_list`` (value
    form) and ``grad_list`` (grad form) take a list of n floats; they are
    compiled from ``emit`` on first use, and ``value`` and ``grad`` wrap
    them.
    """

    __slots__ = ("n", "value_list", "grad_list")

    def emit(self, point: Sequence[str], prefix: str, namespace: dict,
             form: str = "grad") -> tuple[list, list, list]:
        raise NotImplementedError

    def __getattr__(self, name):
        # value_list and grad_list are compiled from ``emit`` on first use
        if name not in ("value_list", "grad_list"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        point, namespace = _names("x", self.n), {}
        head = f"    {_unpack(point)}= xs"
        powers, value, _ = self.emit(point, "", namespace, "value")
        self.value_list = _compile(
            ["def value_list(xs):", head, *("    " + s for s in powers + value), "    return v"],
            namespace, "value_list")
        powers, _, grad = self.emit(point, "", namespace)
        self.grad_list = _compile(
            ["def grad_list(xs):", head, *("    " + s for s in powers + grad),
             f"    return {_list(_names('g', self.n))}"],
            namespace, "grad_list")
        return getattr(self, name)

    def value(self, x) -> float:
        return self.value_list(_as_vector(x, self.n).tolist())

    def grad(self, x) -> np.ndarray:
        return np.array(self.grad_list(_as_vector(x, self.n).tolist()))


class PolynomialField(CompiledField):
    """Polynomial scalar field with rational-style exact differentiation.

    Terms are (exponents, coefficient) pairs; exponents are nonnegative
    integers (integral floats accepted, fractions rejected), one per
    coordinate. Duplicate multi-indices are merged and
    zero terms dropped, so the stored representation is canonical. They are
    compiled into the distinct (coordinate, power) pairs they use, value
    terms (coef, factor positions) and derivative terms (coordinate,
    coef * exponent, factor positions). ``emit`` writes these out as
    straight-line Python statements: each power above the first once, by
    ``**`` on Python floats (the scalar libm ``pow``), then the value and
    each gradient component as one left fold (``_fold``) of the terms,
    coefficient first (left out where it is exactly 1.0) and factors in
    coordinate order.
    """

    __slots__ = ("terms", "_pairs", "_value_terms", "_grad_terms")

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
        """The coordinate function x_i; ``i`` is 1-based like all external
        indices, an integer under ``_integer``'s rule."""
        n = _dimension(n)
        if (m := _integer(i)) is None or not 1 <= m <= n:
            raise DimensionMismatch(f"coordinate index {i!r} out of range 1..{n}")
        exps = [0] * n
        exps[m - 1] = 1
        return cls(n, [(exps, 1.0)])

    def emit(self, point: Sequence[str], prefix: str, namespace: dict,
             form: str = "grad") -> tuple[list, list, list]:
        """(powers, value, gradient) statements at the local names
        ``point``. A first power is the coordinate's own name. The higher
        powers that the ``form`` ("grad" or "value") reads are the powers
        statements; those only the other part reads open that part's
        statements, in a ``try`` of their own. Powers are ``{prefix}p<k>``;
        the coefficients are bound as ``{prefix}c<k>`` (value) and
        ``{prefix}d<k>`` (gradient)."""
        names = [point[j] if e == 1 else f"{prefix}p{k:d}" for k, (j, e) in enumerate(self._pairs)]
        terms = self._grad_terms if form == "grad" else self._value_terms
        read = {f for *_, factors in terms for f in factors}
        higher = [k for k, (_, e) in enumerate(self._pairs) if e > 1]

        def powers(ks):
            return _powers([names[k] for k in ks], [point[self._pairs[k][0]] for k in ks],
                           [self._pairs[k][1] for k in ks])

        namespace["_overflowed"] = _overflowed
        value = []
        for k, (c, factors) in enumerate(self._value_terms):
            namespace[f"{prefix}c{k:d}"] = c
            value.append([f"{prefix}c{k:d}", *(names[f] for f in factors)])
        grad = {m: [] for m in range(self.n)}
        for k, (m, c, factors) in enumerate(self._grad_terms):
            namespace[f"{prefix}d{k:d}"] = c
            grad[m].append([f"{prefix}d{k:d}", *(names[f] for f in factors)])
        grad_lines = [line for m, terms in grad.items() for line in _fold(f"{prefix}g{m:d}", terms, namespace)]
        value_lines = _fold(prefix + "v", value, namespace)
        first, other = powers([k for k in higher if k in read]), powers([k for k in higher if k not in read])
        if form == "grad":
            return first, [*other, *value_lines], grad_lines
        return first, value_lines, [*other, *grad_lines]

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
    """Scalar field backed by user-supplied value and gradient callables,
    which ``list_form`` calls on ndarrays."""

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
    returning a list: compiled from the field's ``emit`` when it has one,
    other fields via ndarrays."""
    if hasattr(field, "emit"):
        return field.value_list, field.grad_list
    return (lambda xs: float(field.value(np.array(xs))),
            lambda xs: _as_vector(field.grad(np.array(xs)), field.n).tolist())


class _ScaledExp(CompiledField):
    """The exponential fields: a dimension, a finite scale (a number under
    the coefficient rule) and ``math.exp`` in the statements."""

    __slots__ = ("scale",)

    def __init__(self, n: int, scale: float = 1.0):
        self.n, self.scale = _dimension(n), _coefficient(scale)
        if not math.isfinite(self.scale):
            raise NonFiniteValue(f"scale {self.scale!r} is not finite")

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, scale={self.scale!r})"


class ExpSumField(_ScaledExp):
    """scale * sum_i exp(x_i): monotone convex compartment energy.

    ``emit`` takes the n exps by ``math.exp`` (inf where one overflows);
    the value is scale times their left fold from 0.0, and gradient
    component i is scale * exp(x_i), the same exp. Both read every exp, so
    the two forms are one.
    """

    __slots__ = ()

    def emit(self, point: Sequence[str], prefix: str, namespace: dict,
             form: str = "grad") -> tuple[list, list, list]:
        exps = _names(prefix + "p", self.n)
        namespace.update({"_exp": math.exp, "_exp_or_inf": _exp_or_inf, prefix + "s": self.scale})
        value = [*_fold(prefix + "t", [[e] for e in exps], namespace),
                 f"{prefix}v = {_product([prefix + 's', prefix + 't'], namespace)}"]
        grad = [f"{prefix}g{m:d} = {_product([prefix + 's', e], namespace)}" for m, e in enumerate(exps)]
        return _exps(exps, point), value, grad


class ExpNegSumField(_ScaledExp):
    """scale * exp(-sum_i x_i): strictly positive for scale > 0, e.g.
    conductance / (T1 * T2).

    ``emit`` folds the point from 0.0 and takes one ``math.exp`` (inf where
    it overflows); the value is scale times it and every gradient
    component is -scale times it. Both read the exp, so the two forms are
    one.
    """

    __slots__ = ()

    def emit(self, point: Sequence[str], prefix: str, namespace: dict,
             form: str = "grad") -> tuple[list, list, list]:
        e = prefix + "p0"
        namespace.update({"_exp": math.exp, "_exp_or_inf": _exp_or_inf,
                          prefix + "s": self.scale, prefix + "d": -self.scale})
        powers = [*_fold(prefix + "t", [[y] for y in point], namespace), *_exps([e], [f"-{prefix}t"])]
        grad = [f"{prefix}g{m:d} = {_product([prefix + 'd', e], namespace)}" for m in range(self.n)]
        return powers, [f"{prefix}v = {_product([prefix + 's', e], namespace)}"], grad


BUILTIN_FIELDS: dict[str, Callable[..., CompiledField]] = {
    "exp_sum": ExpSumField,
    "exp_neg_sum": ExpNegSumField,
}


def builtin_field(name: str, n: int, params: dict | None = None):
    try:
        factory = BUILTIN_FIELDS[name]
    except KeyError:
        raise FormatError(f"unknown builtin field {name!r}") from None
    return factory(n, **(params or {}))
