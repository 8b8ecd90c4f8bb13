"""Exact multivariate polynomial arithmetic over Q, and the value layer's
shared pieces.

All coefficients are ``fractions.Fraction``; nothing in the package ever
touches floating point.  ``Polynomial`` is a sparse dict from exponent
tuples to coefficients.  ``Frozen`` is the base of the immutable classes,
``add_into`` the one sparse accumulate, ``_power`` the one
square-and-multiply and ``signed_sum`` the one printer of sums; ``qt``
builds polynomials and rational functions in t on them.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

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


class Polynomial:
    """Sparse polynomial in ``nvars`` variables with Fraction coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Scalar] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        self.nvars = nvars
        clean: dict[Exponent, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != nvars:
                    raise ValueError(f"exponent tuple {exps} has wrong length for {nvars} variables")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                c = _as_fraction(coeff)
                if c:
                    clean[tuple(exps)] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, nvars: int, terms: dict[Exponent, Fraction]) -> Polynomial:
        """Wrap terms that are clean by construction: exponent tuples of
        length nvars with no negative entry, and nonzero Fraction
        coefficients.  Validates nothing, so the caller answers for it."""
        result = object.__new__(cls)
        result.nvars = nvars
        result.terms = terms
        return result

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> Polynomial:
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value: Scalar) -> Polynomial:
        c = _as_fraction(value)
        return cls(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def variable(cls, nvars: int, index: int) -> Polynomial:
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {exps: Fraction(1)})

    @classmethod
    def monomial(cls, exps: Exponent, coeff: Scalar = 1) -> Polynomial:
        return cls(len(exps), {tuple(exps): _as_fraction(coeff)})

    # -- queries ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in descending graded lexicographic order (deterministic)."""
        return sorted(self.terms.items(), key=lambda item: grlex_key(item[0]), reverse=True)

    def __iter__(self) -> Iterator[tuple[Exponent, Fraction]]:
        return iter(self.sorted_terms())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- arithmetic -------------------------------------------------------

    def _check_compatible(self, other: Polynomial) -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            add_into(terms, exps, coeff)
        # add_into drops every zero sum
        return Polynomial._trusted(self.nvars, terms)

    def __neg__(self) -> Polynomial:
        # the negative of a nonzero coefficient is nonzero
        terms = {exps: -coeff for exps, coeff in self.terms.items()}
        return Polynomial._trusted(self.nvars, terms)

    def __sub__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Polynomial | Scalar) -> Polynomial:
        if isinstance(other, (Fraction, int)):
            c = _as_fraction(other)
            # a product of nonzero rationals is nonzero
            terms = {exps: coeff * c for exps, coeff in self.terms.items()} if c else {}
            return Polynomial._trusted(self.nvars, terms)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        terms: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                add_into(terms, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        # add_into drops every zero sum
        return Polynomial._trusted(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> Polynomial:
        return _power(self, power, Polynomial.constant(self.nvars, 1))

    def partial(self, index: int) -> Polynomial:
        """Partial derivative with respect to variable ``index``."""
        if not 0 <= index < self.nvars:
            raise ValueError(f"variable index {index} out of range")
        terms: dict[Exponent, Fraction] = {}
        for exps, coeff in self.terms.items():
            e = exps[index]
            if e:
                # lowering one exponent maps distinct exponents to distinct
                # ones, and coeff * e is nonzero
                terms[exps[:index] + (e - 1,) + exps[index + 1:]] = coeff * e
        return Polynomial._trusted(self.nvars, terms)

    def subst_poly(self, images: Sequence[Polynomial]) -> Polynomial:
        """Evaluate with each variable replaced by a polynomial."""
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        if not images:
            return Polynomial.constant(0, self.constant_term())
        target = images[0].nvars
        result = Polynomial.zero(target)
        for exps, coeff in self.terms.items():
            term = Polynomial.constant(target, coeff)
            for img, e in zip(images, exps):
                if e:
                    term = term * img**e
            result = result + term
        return result

    # -- printing ---------------------------------------------------------

    def __str__(self) -> str:
        def mono(exps: Exponent) -> str:
            return "*".join(f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps) if e)

        return signed_sum((coeff, mono(exps)) for exps, coeff in self.sorted_terms())

    def __repr__(self) -> str:
        return f"Polynomial({self})"
