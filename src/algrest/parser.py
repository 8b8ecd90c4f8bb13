"""Text grammar for forms, polynomials, maps, and restriction classes.

The grammar is small and explicit: polynomials use x1, x2, ... with ^ for
powers and * between factors; differential forms add wedge factors written
dx1^dx2; restriction-class expressions are rational combinations of basis
labels such as ``a9 + 3/2*a13+ - a13-``.  A trailing + or - on a label is
claimed by the label when the basis has such an element and pushed back as
an operator otherwise.  Printers emit the same grammar plus a LaTeX
variant, and rationals serialize as "p/q" strings with "inf" for infinite
invariant values.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Sequence

from . import forms
from .curves import AlgRestriction, RestrictionBasis
from .errors import InputError
from .poly import Polynomial, signed_sum

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<dx>dx(?P<dxi>\d+))|(?P<var>x(?P<vari>\d+))|(?P<num>\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^(),]))"
)


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            if text[pos:].strip() == "":
                break
            raise InputError(f"unexpected character {text[pos:].lstrip()[0]!r} at position {pos}")
        if match.lastgroup is None and match.group().strip() == "":
            break
        if match.group("dx") is not None:
            tokens.append(("dx", int(match.group("dxi")), match.start()))
        elif match.group("var") is not None:
            tokens.append(("var", int(match.group("vari")), match.start()))
        elif match.group("num") is not None:
            tokens.append(("num", int(match.group("num")), match.start()))
        elif match.group("name") is not None:
            tokens.append(("name", match.group("name"), match.start()))
        else:
            tokens.append(("op", match.group("op"), match.start()))
        pos = match.end()
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

    # Polynomial grammar: sum of products of powered atoms.
    def parse_poly(self) -> Polynomial:
        result = self.parse_poly_term()
        while True:
            op = self.accept_op("+", "-")
            if op is None:
                return result
            term = self.parse_poly_term()
            result = result + term if op == "+" else result - term

    def parse_poly_term(self) -> Polynomial:
        sign = 1
        while True:
            op = self.accept_op("+", "-")
            if op is None:
                break
            if op == "-":
                sign = -sign
        result = self.parse_poly_factor()
        while self.accept_op("*"):
            result = result * self.parse_poly_factor()
        return result if sign > 0 else -result

    def parse_poly_factor(self) -> Polynomial:
        base = self.parse_poly_atom()
        if self.accept_op("^"):
            token = self.next()
            if token[0] != "num":
                raise InputError(f"expected integer exponent at position {token[2]}")
            base = base ** int(token[1])  # type: ignore[assignment]
        return base

    def parse_poly_atom(self) -> Polynomial:
        token = self.next()
        kind, value, position = token
        if kind == "num":
            numer = int(value)  # type: ignore[arg-type]
            if self.accept_op("/"):
                den_token = self.next()
                if den_token[0] != "num":
                    raise InputError(f"expected integer denominator at position {den_token[2]}")
                den = int(den_token[1])  # type: ignore[arg-type]
                if not den:
                    raise InputError(
                        f"zero denominator at position {den_token[2]} in {self.text!r}"
                    )
                return Polynomial.constant(self.nvars, Fraction(numer, den))
            return Polynomial.constant(self.nvars, numer)
        if kind == "var":
            return Polynomial.variable(self.nvars, self.check_var(int(value), position))  # type: ignore[arg-type]
        if kind == "op" and value == "(":
            inner = self.parse_poly()
            self.expect_op(")")
            return inner
        raise InputError(f"unexpected token at position {position} in {self.text!r}")

    # Form grammar: sum of terms, each an optional polynomial coefficient
    # times a wedge of dx factors.
    def parse_form(self) -> forms.DifferentialForm:
        result = self.parse_form_term()
        while True:
            op = self.accept_op("+", "-")
            if op is None:
                token = self.peek()
                if token is not None:
                    raise InputError(
                        f"unexpected token at position {token[2]} in {self.text!r}"
                    )
                return result
            term = self.parse_form_term()
            if term.degree != result.degree:
                raise InputError("all terms of a form must have the same degree")
            result = result + term if op == "+" else result - term

    def parse_form_term(self) -> forms.DifferentialForm:
        sign = 1
        while True:
            op = self.accept_op("+", "-")
            if op is None:
                break
            if op == "-":
                sign = -sign
        coeff = Polynomial.constant(self.nvars, 1)
        wedge_form: forms.DifferentialForm | None = None
        saw_factor = False
        while True:
            token = self.peek()
            if token is None:
                break
            kind, value, position = token
            if kind == "dx":
                self.pos += 1
                index = self.check_var(int(value), position)  # type: ignore[arg-type]
                factor = forms.DifferentialForm.from_term(self.nvars, (index,), 1)
                wedge_form = factor if wedge_form is None else forms.wedge(wedge_form, factor)
                saw_factor = True
                if self.accept_op("^"):
                    continue
                break
            if wedge_form is not None:
                break
            if kind in ("num", "var") or (kind == "op" and value == "("):
                coeff = coeff * self.parse_poly_factor()
                saw_factor = True
                if self.accept_op("*"):
                    continue
                break
            break
        if not saw_factor:
            token = self.peek()
            position = token[2] if token else len(self.text)
            raise InputError(f"expected a term at position {position} in {self.text!r}")
        if sign < 0:
            coeff = -coeff
        if wedge_form is None:
            return forms.DifferentialForm.function(coeff)
        return forms.wedge(forms.DifferentialForm.function(coeff), wedge_form)


def parse_polynomial(text: str, nvars: int) -> Polynomial:
    parser = _Parser(text, nvars)
    result = parser.parse_poly()
    token = parser.peek()
    if token is not None:
        raise InputError(f"unexpected token at position {token[2]} in {text!r}")
    return result


def parse_form(text: str, nvars: int) -> forms.DifferentialForm:
    return _Parser(text, nvars).parse_form()


def parse_map(text: str, nvars: int) -> forms.PolyMap:
    """A map is a parenthesized comma-separated list of polynomial components."""
    parser = _Parser(text, nvars)
    parser.expect_op("(")
    components = [parser.parse_poly()]
    while parser.accept_op(","):
        components.append(parser.parse_poly())
    parser.expect_op(")")
    token = parser.peek()
    if token is not None:
        raise InputError(f"unexpected token at position {token[2]} in {text!r}")
    return forms.PolyMap(components)


_LABEL_RE = re.compile(r"a\d+(?:\.\d+|[+-])?")
_RATIONAL_RE = re.compile(r"(\d+)\s*(?:/\s*(\d+))?")


def parse_restriction(text: str, basis: RestrictionBasis) -> AlgRestriction:
    """Parse a rational combination of basis labels.

    A + or - directly after a label's digits is part of the label when the
    basis has that element, and an operator otherwise.
    """
    labels = set(basis.labels)
    coeffs: dict[str, Fraction] = {}
    pos = 0
    stripped = text.strip()
    if stripped == "0":
        return AlgRestriction.zero(basis)
    first = True
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text):
            if first:
                raise InputError("empty restriction expression")
            break
        sign = Fraction(1)
        if text[pos] in "+-":
            if text[pos] == "-":
                sign = -sign
            pos += 1
            while pos < len(text) and text[pos].isspace():
                pos += 1
        elif not first:
            raise InputError(f"expected + or - at position {pos} in {text!r}")
        first = False
        match = _RATIONAL_RE.match(text, pos)
        value = Fraction(1)
        if match is not None:
            den = int(match.group(2) or 1)
            if not den:
                raise InputError(f"zero denominator at position {match.start(2)} in {text!r}")
            value = Fraction(int(match.group(1)), den)
            pos = match.end()
            while pos < len(text) and text[pos].isspace():
                pos += 1
            if pos < len(text) and text[pos] == "*":
                pos += 1
                while pos < len(text) and text[pos].isspace():
                    pos += 1
        label_match = _LABEL_RE.match(text, pos)
        if label_match is None:
            raise InputError(f"expected a basis label at position {pos} in {text!r}")
        label = label_match.group()
        end = label_match.end()
        if label not in labels and label[-1] in "+-":
            label = label[:-1]
            end -= 1
        if label not in labels:
            raise InputError(f"unknown basis label {label!r} in {text!r}")
        pos = end
        coeffs[label] = coeffs.get(label, Fraction(0)) + sign * value
    return AlgRestriction.from_coeffs(basis, coeffs)


def fraction_str(value: Fraction) -> str:
    return str(Fraction(value))


def extended_str(value: object) -> str | int | None:
    """JSON-friendly rendering of invariant values."""
    if value is None:
        return None
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    if isinstance(value, Fraction):
        return fraction_str(value)
    if isinstance(value, int):
        return value
    return str(value)


def latex_fraction(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    sign = "-" if value < 0 else ""
    return f"{sign}\\tfrac{{{abs(value.numerator)}}}{{{value.denominator}}}"


def latex_label(label: str) -> str:
    match = re.fullmatch(r"a(\d+)([+-]?)(?:\.(\d+))?", label)
    if match is None:
        return label
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
