import math
import random
from fractions import Fraction

import pytest

from algrest.curves import AlgRestriction, MonomialCurve, cached_basis
from algrest.errors import InputError
from algrest.forms import DifferentialForm, Polynomial
from algrest.parser import (
    extended_str,
    fraction_str,
    latex_form,
    latex_label,
    latex_restriction,
    parse_form,
    parse_map,
    parse_polynomial,
    parse_restriction,
)


def test_parse_polynomial_basic():
    p = parse_polynomial("x1^2*x2 - 3/2*x3 + 4", 3)
    assert p == (
        Polynomial.monomial((2, 1, 0))
        + Polynomial.monomial((0, 0, 1), Fraction(-3, 2))
        + Polynomial.constant(3, 4)
    )


def test_parse_polynomial_signs_and_parens():
    p = parse_polynomial("-(x1 + x2)*(x1 - x2)", 2)
    assert p == Polynomial.monomial((0, 2)) - Polynomial.monomial((2, 0))


def test_parse_polynomial_errors():
    with pytest.raises(InputError):
        parse_polynomial("x5", 3)
    with pytest.raises(InputError):
        parse_polynomial("x1 + * x2", 3)
    with pytest.raises(InputError):
        parse_polynomial("", 3)


def test_zero_denominators_are_input_errors(basis456):
    with pytest.raises(InputError, match="zero denominator at position 2 in '1/0\\*dx1"):
        parse_form("1/0*dx1^dx2", 3)
    with pytest.raises(InputError, match="zero denominator at position 3"):
        parse_form("(1/0)*dx1^dx2", 3)
    with pytest.raises(InputError, match="zero denominator at position 3"):
        parse_map("(1/0*x1, x2, x3)", 3)
    with pytest.raises(InputError, match="zero denominator at position 7"):
        parse_polynomial("x1 + 2/0", 3)
    with pytest.raises(InputError, match="zero denominator at position 2 in '1/0\\*a13'"):
        parse_restriction("1/0*a13", basis456)
    with pytest.raises(InputError, match="zero denominator at position 10"):
        parse_restriction("a13 + 0 / 0 a17", basis456)
    assert parse_polynomial("0/3", 3) == Polynomial.zero(3)
    assert parse_restriction("0/3 a13", basis456) == AlgRestriction.zero(basis456)


def test_parse_form_terms():
    form = parse_form("x1*dx1^dx2 - 2*dx2^dx3", 3)
    assert form.degree == 2
    assert form.coefficient((0, 1)) == Polynomial.variable(3, 0)
    assert form.coefficient((1, 2)) == Polynomial.constant(3, -2)


def test_parse_form_degree_consistency():
    with pytest.raises(InputError):
        parse_form("dx1 + dx1^dx2", 3)
    # a zero term has a degree too: a mixed sum fails in the parser
    for text in ("dx1^dx2 + 0*dx3", "0*dx1 + dx1^dx2"):
        with pytest.raises(InputError, match="all terms of a form must have the same degree"):
            parse_form(text, 3)


@pytest.mark.parametrize(
    "text", ["x1*+x3", "3/2*-x1", "x2*dx1^dx2 + x1*dx1^dx3^", "x1*", "dx1^", "dx1^ - dx2", "x1*dx1^x2"]
)
def test_a_form_term_cannot_end_in_star_or_wedge(text):
    # after a * or a ^ a factor is required, as in a polynomial
    with pytest.raises(InputError):
        parse_form(text, 3)


def test_a_polynomial_term_cannot_end_in_star():
    with pytest.raises(InputError, match="unexpected token at position 3"):
        parse_polynomial("x1*+x3", 3)
    assert parse_form(" x1 * dx1 ^ dx2 ", 3) == parse_form("x1*dx1^dx2", 3)


def test_error_positions_are_where_the_token_starts():
    with pytest.raises(InputError, match="variable index 9 out of range 1..4 at position 6$"):
        parse_form("dx1 ^ dx9", 4)
    with pytest.raises(InputError, match="unexpected character '\\$' at position 5$"):
        parse_polynomial("x1 + $", 3)
    with pytest.raises(InputError, match="unexpected token at position 6 in"):
        parse_polynomial("x1 +  )", 3)
    with pytest.raises(InputError, match="expected '\\)' at position 9 in"):
        parse_map("(x1, x2  x3)", 3)
    with pytest.raises(InputError, match="expected a dx factor at position 12 in"):
        parse_form(" x1 * dx1 ^ x2", 3)
    with pytest.raises(InputError, match="^expected integer denominator at position 2$"):
        parse_polynomial("1/x1", 3)
    with pytest.raises(InputError, match="^expected integer exponent at position 3$"):
        parse_polynomial("x1^x2", 3)
    with pytest.raises(InputError, match="^unexpected token at position 3 in 'x1 x2'$"):
        parse_polynomial("x1 x2", 3)


def test_parse_form_zero_form():
    form = parse_form("x1^2 + x2", 3)
    assert form.degree == 0
    assert form == DifferentialForm.function(parse_polynomial("x1^2 + x2", 3))


def test_parse_map():
    phi = parse_map("(x1, -x2 + x3^2, x3)", 3)
    assert phi.components[1] == -Polynomial.variable(3, 1) + Polynomial.variable(3, 2) ** 2
    # maps with fewer components than variables are fine (target space is smaller)
    assert len(parse_map("(x1, x2)", 3).components) == 2
    with pytest.raises(InputError):
        parse_map("(x1 + 1, x2, x3)", 3)


def test_parse_restriction_round_trip(basis4567):
    a = parse_restriction("a9 + 2*a13+ - a14", basis4567)
    assert a.coefficient("a9") == 1
    assert a.coefficient("a13+") == 2
    assert a.coefficient("a14") == -1
    assert parse_restriction(str(a), basis4567) == a


def test_parse_restriction_signed_labels(basis4567):
    # adjacent signed labels: the trailing sign of a11+ and the minus between
    a = parse_restriction("a11+-a11-", basis4567)
    assert a.coefficient("a11+") == 1
    assert a.coefficient("a11-") == -1


def test_parse_restriction_fraction_and_juxtaposition(basis456):
    a = parse_restriction("3/2 a13 - 2*a17", basis456)
    assert a.coefficient("a13") == Fraction(3, 2)
    assert a.coefficient("a17") == -2


def test_parse_restriction_zero(basis456):
    assert parse_restriction("0", basis456) == AlgRestriction.zero(basis456)


def test_parse_restriction_errors(basis456):
    with pytest.raises(InputError):
        parse_restriction("a9 + bogus", basis456)
    with pytest.raises(InputError):
        parse_restriction("3", basis456)
    with pytest.raises(InputError):
        parse_restriction("a11+", basis456)  # label from another semigroup


def test_parse_restriction_error_wording(basis456):
    with pytest.raises(InputError, match="^expected \\+ or - at position 4 in 'a13 a17'$"):
        parse_restriction("a13 a17", basis456)
    with pytest.raises(InputError, match="^expected a basis label at position 7 in 'a13 \\+ 3'$"):
        parse_restriction("a13 + 3", basis456)
    with pytest.raises(InputError, match="^expected a basis label at position 6 in 'a13 - \\* a17'$"):
        parse_restriction("a13 - * a17", basis456)
    for text in ("", "   "):
        with pytest.raises(InputError, match="^empty restriction expression$"):
            parse_restriction(text, basis456)


def _render_restriction(rng, terms):
    """Text for sum sign * coeff * label over ``terms``, in any of the
    spellings the grammar allows: optional first sign, `*` or juxtaposition,
    unreduced p/q, spaces anywhere between tokens or none."""
    def space():
        return " " * rng.choice((0, 0, 1, 2))

    text = space()
    for i, (sign, coeff, label) in enumerate(terms):
        if i or sign < 0 or rng.random() < 0.3:
            text += ("-" if sign < 0 else "+") + space()
        if coeff != 1 or rng.random() < 0.3:
            if coeff.denominator == 1 and rng.random() < 0.7:
                text += str(coeff.numerator)
            else:
                scale = rng.randint(1, 3)
                text += f"{coeff.numerator * scale}{space()}/{space()}{coeff.denominator * scale}"
            text += rng.choice(("*", " * ", "* ", " ", ""))
        text += label + space()
    return text


@pytest.mark.parametrize("lams", [(4, 5, 6, 7), (4, 5, 6), (6, 7, 8, 9, 10, 11)])
def test_parse_restriction_equals_the_sum_of_its_drawn_terms(lams):
    """An oracle that needs no scanner: draw (sign, coefficient, label)
    terms, render them, and compare with the class built from their sums.
    Signed labels meet operators with no space between (a11+-a11-), and
    dotted labels (a17.1) appear on (6, ..., 11)."""
    basis = cached_basis(MonomialCurve(lams))
    rng = random.Random(len(lams))
    for _ in range(300):
        terms = [
            (rng.choice((1, -1)), Fraction(rng.randint(0, 7), rng.randint(1, 4)), rng.choice(basis.labels))
            for _ in range(rng.randint(1, 5))
        ]
        sums: dict[str, Fraction] = {}
        for sign, coeff, label in terms:
            sums[label] = sums.get(label, Fraction(0)) + sign * coeff
        text = _render_restriction(rng, terms)
        assert parse_restriction(text, basis) == AlgRestriction.from_coeffs(basis, sums), text


def test_fraction_str():
    assert fraction_str(Fraction(3)) == "3"
    assert fraction_str(Fraction(-7, 2)) == "-7/2"


def test_extended_str():
    assert extended_str(5) == 5
    assert extended_str(math.inf) == "inf"
    assert extended_str(None) is None


def test_latex_label():
    assert latex_label("a11+") == "a_{11}^{+}"
    assert latex_label("a13-") == "a_{13}^{-}"
    assert latex_label("a9") == "a_{9}"
    assert latex_label("a17.1") == "a_{17,1}"


def test_latex_form_and_restriction(basis4567):
    form = parse_form("x1*dx1^dx2", 4)
    text = latex_form(form)
    assert "dx_{1}" in text and "\\wedge" in text and "x_{1}" in text
    assert latex_form(parse_form("x1^2*x3*dx1^dx2", 4)) == "x_{1}^{2}x_{3}dx_{1}\\wedge dx_{2}"
    a = parse_restriction("a9 - 1/2*a13+", basis4567)
    out = latex_restriction(a)
    assert "a_{9}" in out and "\\tfrac{1}{2}" in out and "a_{13}^{+}" in out


def test_parse_restriction_dotted_labels():
    basis = cached_basis(MonomialCurve((6, 7, 8, 9, 10, 11)))
    assert "a17.1" in basis.labels
    for label in basis.labels:
        assert parse_restriction(label, basis) == AlgRestriction.from_coeffs(basis, {label: 1})
    assert parse_restriction("a17.1+a13", basis) == AlgRestriction.from_coeffs(
        basis, {"a17.1": 1, "a13": 1}
    )
    assert parse_restriction("a17.1-2*a17.3", basis) == AlgRestriction.from_coeffs(
        basis, {"a17.1": 1, "a17.3": -2}
    )
