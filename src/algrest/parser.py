"""Text grammar for forms, polynomials, maps, and restriction classes.

One tokenizer and one recursive-descent parser serve four grammars.
Polynomials use x1, x2, ... with ^ for powers and * between factors;
differential forms add wedge factors written dx1^dx2; maps are
parenthesized lists of polynomials; restriction-class expressions are
rational combinations of basis labels such as ``a9 + 3/2*a13+ - a13-``.  A
+ or - that starts where a label ends is claimed by the label when the
basis has such an element and read as an operator otherwise.  Printers
emit the same grammar plus a LaTeX variant, and rationals serialize as
"p/q" strings with "inf" for infinite invariant values.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Callable, Container, Iterable, Sequence, TypeVar

from . import forms
from .curves import AlgRestriction, RestrictionBasis
from .errors import InputError
from .poly import signed_sum

_T = TypeVar("_T")

_TOKEN_RE = re.compile(
    r"(?P<dx>dx\d+)|(?P<var>x\d+)|(?P<num>\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*(?:\.\d+)?)|(?P<op>[-+*/^(),])|(?P<space>\s+)|(?P<bad>.)"
)


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    """(kind, value, start) per token; dx, var and num carry their integer."""
    tokens: list[tuple[str, object, int]] = []
    for match in _TOKEN_RE.finditer(text):
        kind, word, start = match.lastgroup, match.group(), match.start()
        if kind == "bad":
            raise InputError(f"unexpected character {word!r} at position {start}")
        if kind in ("dx", "var", "num"):
            tokens.append((kind, int(word.lstrip("dx")), start))
        elif kind != "space":
            tokens.append((str(kind), word, start))
    return tokens


class _Parser:
    def __init__(self, text: str, nvars: int):
        self.text = text
        self.nvars = nvars
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, object, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, object, int]:
        token = self.peek()
        if token is None:
            raise InputError(f"unexpected end of expression in {self.text!r}")
        self.pos += 1
        return token

    def at(self, kind: str) -> bool:
        token = self.peek()
        return token is not None and token[0] == kind

    def accept_op(self, *ops: str) -> str | None:
        token = self.peek()
        if token is not None and token[0] == "op" and token[1] in ops:
            self.pos += 1
            return str(token[1])
        return None

    def expect_op(self, op: str) -> None:
        token = self.next()
        if token[0] != "op" or token[1] != op:
            raise InputError(f"expected {op!r} at position {token[2]} in {self.text!r}")

    def check_var(self, index: int, position: int) -> int:
        if not 1 <= index <= self.nvars:
            raise InputError(
                f"variable index {index} out of range 1..{self.nvars} at position {position}"
            )
        return index - 1

    def signs(self) -> int:
        """A run of + and - signs, as +1 or -1."""
        sign = 1
        while (op := self.accept_op("+", "-")) is not None:
            if op == "-":
                sign = -sign
        return sign

    def rational(self, numer: int) -> Fraction:
        """n or n/d, once the numerator token n is read."""
        if not self.accept_op("/"):
            return Fraction(numer)
        kind, den, position = self.next()
        if kind != "num":
            raise InputError(f"expected integer denominator at position {position}")
        if not den:
            raise InputError(f"zero denominator at position {position} in {self.text!r}")
        return Fraction(numer, den)  # type: ignore[arg-type]

    # Polynomial grammar: sum of products of powered atoms.
    def parse_poly(self) -> forms.Polynomial:
        result = self.parse_poly_term()
        while (op := self.accept_op("+", "-")) is not None:
            term = self.parse_poly_term()
            result = result + term if op == "+" else result - term
        return result

    def parse_poly_term(self) -> forms.Polynomial:
        sign = self.signs()
        result = self.parse_poly_factor()
        while self.accept_op("*"):
            result = result * self.parse_poly_factor()
        return result if sign > 0 else -result

    def parse_poly_factor(self) -> forms.Polynomial:
        base = self.parse_poly_atom()
        if self.accept_op("^"):
            token = self.next()
            if token[0] != "num":
                raise InputError(f"expected integer exponent at position {token[2]}")
            base = base ** int(token[1])  # type: ignore[assignment]
        return base

    def parse_poly_atom(self) -> forms.Polynomial:
        kind, value, position = self.next()
        if kind == "num":
            return forms.Polynomial.constant(self.nvars, self.rational(value))  # type: ignore[arg-type]
        if kind == "var":
            return forms.Polynomial.variable(self.nvars, self.check_var(value, position))  # type: ignore[arg-type]
        if kind == "op" and value == "(":
            inner = self.parse_poly()
            self.expect_op(")")
            return inner
        raise InputError(f"unexpected token at position {position} in {self.text!r}")

    def parse_map(self) -> forms.PolyMap:
        self.expect_op("(")
        components = [self.parse_poly()]
        while self.accept_op(","):
            components.append(self.parse_poly())
        self.expect_op(")")
        return forms.PolyMap(components)

    # Form grammar: sum of terms of one degree; a term is signs, then
    # polynomial factors joined by *, then optionally a wedge dx (^ dx)*.
    def parse_form(self) -> forms.DifferentialForm:
        result = self.parse_form_term()
        while (op := self.accept_op("+", "-")) is not None:
            term = self.parse_form_term()
            if term.degree != result.degree:
                raise InputError("all terms of a form must have the same degree")
            result = result + term if op == "+" else result - term
        return result

    def parse_form_term(self) -> forms.DifferentialForm:
        coeff = forms.Polynomial.constant(self.nvars, self.signs())
        while not self.at("dx"):
            coeff = coeff * self.parse_poly_factor()
            if not self.accept_op("*"):
                return forms.DifferentialForm.function(coeff)
        wedge_form = self.parse_dx()
        while self.accept_op("^"):
            wedge_form = forms.wedge(wedge_form, self.parse_dx())
        return forms.wedge(forms.DifferentialForm.function(coeff), wedge_form)

    def parse_dx(self) -> forms.DifferentialForm:
        kind, value, position = self.next()
        if kind != "dx":
            raise InputError(f"expected a dx factor at position {position} in {self.text!r}")
        index = self.check_var(value, position)  # type: ignore[arg-type]
        return forms.DifferentialForm.from_term(self.nvars, (index,), 1)

    # Restriction grammar: terms [sign] [n[/d] [*]] label, with a sign
    # before every term but the first.
    def parse_restriction(self, labels: Container[str]) -> dict[str, Fraction]:
        if self.peek() is None:
            raise InputError("empty restriction expression")
        coeffs: dict[str, Fraction] = {}
        while (token := self.peek()) is not None:
            op = self.accept_op("+", "-")
            if op is None and self.pos > 0:
                raise InputError(f"expected + or - at position {token[2]} in {self.text!r}")
            value = Fraction(-1 if op == "-" else 1)
            if self.at("num"):
                value *= self.rational(self.next()[1])  # type: ignore[arg-type]
                self.accept_op("*")
            label = self.parse_label(labels)
            coeffs[label] = coeffs.get(label, Fraction(0)) + value
        return coeffs

    def parse_label(self, labels: Container[str]) -> str:
        """A name token, with the + or - that starts where it ends when the
        two make a label; ``RestrictionBasis.index_of`` rejects a non-label."""
        kind, label, position = self.peek() or ("end", "", len(self.text))
        if kind != "name":
            raise InputError(f"expected a basis label at position {position} in {self.text!r}")
        self.pos += 1
        suffix = self.peek()
        end = position + len(str(label))
        if suffix is not None and suffix[2] == end and f"{label}{suffix[1]}" in labels:
            label = f"{label}{self.next()[1]}"
        return str(label)


def _parse(text: str, nvars: int, rule: Callable[[_Parser], _T]) -> _T:
    """Apply one grammar rule to the whole of ``text``."""
    parser = _Parser(text, nvars)
    result = rule(parser)
    token = parser.peek()
    if token is not None:
        raise InputError(f"unexpected token at position {token[2]} in {text!r}")
    return result


def parse_polynomial(text: str, nvars: int) -> forms.Polynomial:
    return _parse(text, nvars, _Parser.parse_poly)


def parse_form(text: str, nvars: int) -> forms.DifferentialForm:
    return _parse(text, nvars, _Parser.parse_form)


def parse_map(text: str, nvars: int) -> forms.PolyMap:
    """A map is a parenthesized comma-separated list of polynomial components."""
    return _parse(text, nvars, _Parser.parse_map)


def parse_restriction(text: str, basis: RestrictionBasis) -> AlgRestriction:
    """Parse a rational combination of basis labels, or "0"."""
    if text.strip() == "0":
        return AlgRestriction.zero(basis)
    coeffs = _parse(text, 0, lambda parser: parser.parse_restriction(basis.label_index))
    return AlgRestriction.from_coeffs(basis, coeffs)


def fraction_str(value: Fraction) -> str:
    return str(Fraction(value))


def extended_str(value: object) -> str | int | None:
    """JSON-friendly rendering of an invariant value: an int, ``math.inf``
    or None."""
    if value is None:
        return None
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def latex_fraction(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    sign = "-" if value < 0 else ""
    return f"{sign}\\tfrac{{{abs(value.numerator)}}}{{{value.denominator}}}"


def latex_label(label: str) -> str:
    match = re.fullmatch(r"a(\d+)([+-]?)(?:\.(\d+))?", label)
    digits, sign, serial = match.groups()
    sub = digits + (f",{serial}" if serial else "")
    if sign:
        return f"a_{{{sub}}}^{{{sign}}}"
    return f"a_{{{sub}}}"


def latex_monomial(exps: Sequence[int]) -> str:
    parts = []
    for i, e in enumerate(exps):
        if e == 1:
            parts.append(f"x_{{{i + 1}}}")
        elif e > 1:
            parts.append(f"x_{{{i + 1}}}^{{{e}}}")
    return "".join(parts)


def latex_form(form: forms.DifferentialForm) -> str:
    terms = (
        (coeff, latex_monomial(exps) + "\\wedge ".join(f"dx_{{{i + 1}}}" for i in idx))
        for idx in sorted(form.coeffs)
        for exps, coeff in form.coeffs[idx].sorted_terms()
    )
    return signed_sum(terms, latex_fraction, "", "+", "-")


def latex_sum(terms: Iterable[tuple[Fraction, str]]) -> str:
    """LaTeX for the sum of (coefficient, label) terms of a class."""
    latex_terms = ((c, latex_label(label)) for c, label in terms)
    return signed_sum(latex_terms, latex_fraction, "", "+", "-")


def latex_restriction(a: AlgRestriction) -> str:
    return latex_sum(a.terms())
