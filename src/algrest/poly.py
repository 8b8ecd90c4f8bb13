"""The value layer's shared pieces, over Q.

All coefficients are ``fractions.Fraction``; nothing in the package ever
touches floating point.  ``Frozen`` is the base of the immutable classes,
``add_into`` the one sparse accumulate, ``_power`` the one
square-and-multiply and ``signed_sum`` the one printer of sums, on which
``polynomial_str`` and ``form_str`` print polynomials and forms from their
plain term maps.
``forms.Polynomial``, the multivariate polynomials, and ``qt``, the
polynomials and rational functions in t, are built on them.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Union

Exponent = tuple[int, ...]
Scalar = Union[Fraction, int]


class Frozen:
    """Base of an immutable value class with ``__slots__``: assigning or
    deleting an attribute raises ``AttributeError``, so ``__init__`` sets
    the slots through ``_set``.

    A subclass names in ``_fields`` the slots that identify its value (at
    least two).  Equality holds between instances of one class with equal
    fields (an instance equals itself without a field read), the hash is
    that of the field tuple, and the repr reads
    ``Name(field=value, ...)``; slots left out of ``_fields`` only cache
    what the fields determine.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls._values = staticmethod(operator.attrgetter(*cls._fields))

    def _set(self, **values: object) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


def grlex_key(exps: Exponent) -> tuple[int, Exponent]:
    """Sort key for graded lexicographic order (total degree, then lex)."""
    return (sum(exps), exps)


def signed_sum(
    terms: Iterable[tuple[Fraction, str]],
    number: Callable[[Fraction], str] = str,
    times: str = "*",
    plus: str = " + ",
    minus: str = " - ",
) -> str:
    """Print the sum of the terms c*body with c nonzero, "0" when there are
    none.  A body stands alone for c = 1 and after a "-" for c = -1, and an
    empty body prints as the number c.  Each term after the first joins the
    sum with ``plus``, or with ``minus`` in place of its leading "-"."""
    out = ""
    for c, body in terms:
        if not c:
            continue
        if not body:
            piece = number(c)
        elif c == 1:
            piece = body
        elif c == -1:
            piece = "-" + body
        else:
            piece = number(c) + times + body
        if not out:
            out = piece
        elif piece.startswith("-"):
            out += minus + piece[1:]
        else:
            out += plus + piece
    return out or "0"


def polynomial_str(terms: Mapping[Exponent, Fraction]) -> str:
    """Print the polynomial of a term map {exps: c}, nonzero c only, in
    descending grlex order: x1^2*x3 for the exponents (2, 0, 1)."""
    return signed_sum(
        (terms[e], "*".join(f"x{i + 1}" + (f"^{k}" if k > 1 else "") for i, k in enumerate(e) if k))
        for e in sorted(terms, key=grlex_key, reverse=True)
    )


def form_str(terms: Mapping[tuple, Mapping]) -> str:
    """Print the differential form of a term map {J: {exps: c}}, nonempty
    polynomials only, in increasing J: (p) for J = (), dx_J for p = 1 and
    (p)*dx_J else, with dx_J as dx1^dx3; "0" when there is no term."""
    parts = []
    for idx in sorted(terms):
        p = polynomial_str(terms[idx])
        wedge = "^".join(f"dx{i + 1}" for i in idx)
        parts.append(f"({p})" if not wedge else wedge if p == "1" else f"({p})*{wedge}")
    return " + ".join(parts) or "0"


def add_into(items: dict, key: object, value: object) -> None:
    """items[key] += value, a missing key counting as zero, and drop the key
    when the sum is zero: the one sparse accumulate of the value layer."""
    prev = items.get(key)
    total = value if prev is None else prev + value
    if total:
        items[key] = total
    else:
        items.pop(key, None)


def _power(base, n: int, one):
    """base ** n by square and multiply, ``one`` the unit of base's ring;
    it neither multiplies by ``one`` nor squares past the top bit of n."""
    if n < 0:
        raise ValueError("negative power")
    result = None
    while True:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if not n:
            return one if result is None else result
        base = base * base


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected a rational scalar, got {type(value).__name__}")
