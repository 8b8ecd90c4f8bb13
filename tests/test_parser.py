import math
from fractions import Fraction

import pytest

from algrest.curves import AlgRestriction, MonomialCurve, cached_basis
from algrest.errors import InputError
from algrest.forms import DifferentialForm
from algrest.parser import (
    extended_str,
    fraction_str,
    latex_form,
    latex_label,
    latex_restriction,
    parse_curve_exponents,
    parse_form,
    parse_map,
    parse_polynomial,
    parse_restriction,
)
from algrest.poly import Polynomial


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


def test_parse_form_terms():
    form = parse_form("x1*dx1^dx2 - 2*dx2^dx3", 3)
    assert form.degree == 2
    assert form.coefficient((0, 1)) == Polynomial.variable(3, 0)
    assert form.coefficient((1, 2)) == Polynomial.constant(3, -2)


def test_parse_form_degree_consistency():
    with pytest.raises(InputError):
        parse_form("dx1 + dx1^dx2", 3)


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


def test_parse_curve_exponents():
    assert parse_curve_exponents("(4, 5, 7)") == (4, 5, 7)
    assert parse_curve_exponents("4 5 7") == (4, 5, 7)


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


def test_latex_form_and_restriction(basis4567):
    form = parse_form("x1*dx1^dx2", 4)
    text = latex_form(form)
    assert "dx_{1}" in text and "\\wedge" in text and "x_{1}" in text
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
