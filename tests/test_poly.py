from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from algrest.forms import Polynomial
from algrest.poly import grlex_key
from algrest.qt import RationalFunctionT, UniPoly, _zmul, _zsub

from generic_path import substitute, terms_of
from ztpoly import QtScalar, divmod_q, gcd_q, poly_add

ONE = UniPoly.constant(1)


def reference_unipoly_add(a, b, sign=1):
    """a + sign * b, coefficient by coefficient: the check of ``poly_add``
    (tests/ztpoly.py), which runs through ``qt._zsub``."""
    width = max(len(a.coeffs), len(b.coeffs))
    padded = [p.coeffs + [Fraction(0)] * (width - len(p.coeffs)) for p in (a, b)]
    return UniPoly([x + sign * y for x, y in zip(*padded)])


def reference_unipoly_mul(a, b):
    """The dense product loop: the independent check of ``qt._zmul``, which
    ``UniPoly``'s ``*`` shares with the Z[t] solver and with the Q(t)
    reference of tests/ztpoly.py."""
    if not a.coeffs or not b.coeffs:
        return UniPoly()
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if not x:
            continue
        for j, y in enumerate(b.coeffs):
            if y:
                out[i + j] += x * y
    return UniPoly(out)


def reference_unipoly_pow(a, n):
    """The square-and-multiply loop that ``UniPoly.__pow__`` ran before the
    shared ``poly._power``, on the reference product."""
    result, base = ONE, a
    while n:
        if n & 1:
            result = reference_unipoly_mul(result, base)
        base = reference_unipoly_mul(base, base)
        n >>= 1
    return result


# built from int and Fraction values, which ``UniPoly`` converts to Fractions;
# raw lists that mix the two go to ``qt._zmul`` and ``qt._zsub`` below
unipolys = st.lists(
    st.sampled_from([0, Fraction(0), 0, -2, 1, 3] + [Fraction(c, 2) for c in (-3, -1, 1, 3)]),
    max_size=5,
).map(UniPoly)


@given(a=unipolys, b=unipolys, n=st.integers(min_value=0, max_value=5))
def test_unipoly_product_and_power_equal_the_dense_references(a, b, n):
    """``*``, ``**`` and the sums of ``poly_add`` against the dense loops
    above: each result has Fraction coefficients and no trailing zero."""
    cases = [
        (a * b, reference_unipoly_mul(a, b)),
        (a**n, reference_unipoly_pow(a, n)),
        (poly_add(a, b), reference_unipoly_add(a, b)),
        (poly_add(a, b, -1), reference_unipoly_add(a, b, -1)),
        (a * 3, reference_unipoly_mul(a, UniPoly([3]))),
    ]
    for got, want in cases:
        assert got == want
        assert all(type(c) is Fraction for c in got.coeffs)
        assert not got.coeffs or got.coeffs[-1]
    swapped = poly_add(poly_add(a, b), poly_add(b, a), -1)
    for zero in (poly_add(a, a, -1), poly_add(a, a * -1), swapped):
        assert zero.coeffs == [] and not zero
    mixed = [int(c) if c.denominator == 1 else c for c in a.coeffs]
    assert UniPoly(_zmul(mixed, b.coeffs)) == UniPoly(_zmul(b.coeffs, mixed)) == a * b
    for c in (1, -1, 2, Fraction(-3, 2)):  # a one-coefficient factor, on either side
        assert _zmul([c], mixed) == _zmul(mixed, [c]) == [c * x for x in mixed]
    assert UniPoly(_zsub(mixed, b.coeffs)) == poly_add(a, b, -1)
    assert _zsub(mixed, mixed) == []
    assert UniPoly.from_terms(terms_of(a)) == a


def total_degree(p):
    """Maximal total degree; -1 for the zero polynomial."""
    return max((sum(e) for e in p.terms), default=-1)


def test_polynomial_construction_and_terms():
    x = Polynomial.variable(3, 0)
    y = Polynomial.variable(3, 1)
    p = x * x + 2 * y - Polynomial.constant(3, 3)
    assert p.nvars == 3
    assert dict(iter(p)) == {
        (2, 0, 0): Fraction(1),
        (0, 1, 0): Fraction(2),
        (0, 0, 0): Fraction(-3),
    }
    assert p.constant_term() == Fraction(-3)
    assert total_degree(p) == 2
    assert total_degree(Polynomial.zero(3)) == -1
    assert p
    assert not Polynomial.zero(3)


def test_unipoly_from_terms():
    assert UniPoly.from_terms({3: 2, 0: Fraction(1, 2)}) == UniPoly([Fraction(1, 2), 0, 0, 2])
    assert UniPoly.from_terms({4: 0, 1: 1}) == UniPoly.from_terms({1: 1})
    assert not UniPoly.from_terms({})
    assert all(type(c) is Fraction for c in UniPoly.from_terms({2: 3}).coeffs)
    with pytest.raises(ValueError):
        UniPoly.from_terms({-1: 1})


def test_grlex_order_is_total_degree_then_lexicographic():
    assert grlex_key((1, 1)) < grlex_key((3, 0))
    assert sorted([(0, 2), (1, 0), (2, 0), (0, 1)], key=grlex_key) == [
        (0, 1),
        (1, 0),
        (0, 2),
        (2, 0),
    ]


def test_sorted_terms_grlex_descending():
    p = Polynomial.monomial((1, 0)) + Polynomial.monomial((0, 2)) + Polynomial.constant(2, 1)
    exps = [e for e, _ in p.sorted_terms()]
    assert exps == [(0, 2), (1, 0), (0, 0)]


def test_polynomial_arithmetic_ring_axioms_spot():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = x + y
    q = x - y
    assert p * q == x**2 - y**2
    assert (p + q) * (p + q) == 4 * (x**2)
    assert not p - p
    assert not p * Polynomial.zero(2)
    assert (Fraction(1, 2) * p) * 2 == p


def test_polynomial_power_and_partial():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = (x + y) ** 3
    assert p.partial(0) == 3 * ((x + y) ** 2)
    assert p.partial(1) == 3 * ((x + y) ** 2)
    assert not Polynomial.constant(2, 5).partial(0)
    with pytest.raises(ValueError, match="negative power"):
        x ** -1


def test_rational_function_evaluate_raises_at_a_pole():
    f = RationalFunctionT(1, UniPoly([-1, 1]))  # 1 / (t - 1)
    assert f.evaluate(3) == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError, match="pole at t = 1"):
        f.evaluate(1)


def test_substitute_into_curve_components():
    # x1*x2 - x3 along (t^4, t^5, t^9) vanishes identically
    p = Polynomial.monomial((1, 1, 0)) - Polynomial.monomial((0, 0, 1))
    images = [UniPoly.from_terms({4: 1}), UniPoly.from_terms({5: 1}), UniPoly.from_terms({9: 1})]
    assert not substitute(p, images)
    q = Polynomial.monomial((1, 1, 0)) + Polynomial.monomial((0, 0, 1))
    assert substitute(q, images) == UniPoly.from_terms({9: 2})


def test_subst_poly_composition():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = x**2 + y
    assert p.subst_poly([x + y, x * y]) == (x + y) ** 2 + x * y


def test_polynomial_evaluate():
    # evaluation at a point is substitution of constants
    p = Polynomial.monomial((2, 1), Fraction(3, 2))
    point = [Polynomial.constant(0, 2), Polynomial.constant(0, 5)]
    assert p.subst_poly(point) == Polynomial.constant(0, 30)
    assert substitute(p, [UniPoly.constant(2), UniPoly.constant(5)]) == UniPoly.constant(30)


def test_polynomial_str_readable():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    text = str(x**2 - 2 * y)
    assert "x1" in text and "x2" in text and "-" in text


def test_unipoly_basics():
    f = poly_add(UniPoly.from_terms({3: 1}), UniPoly.from_terms({1: 2}), -1)
    assert f.degree() == 3
    assert terms_of(f) == {1: Fraction(-2), 3: Fraction(1)}
    assert UniPoly().degree() == -1
    assert terms_of(UniPoly()) == {}
    assert f.evaluate(Fraction(2)) == 8 - 4


def test_unipoly_arithmetic_and_derivative():
    f = poly_add(UniPoly.from_terms({2: 1}), ONE)
    g = poly_add(UniPoly.from_terms({1: 1}), ONE, -1)
    assert (f * g).degree() == 3
    assert poly_add(poly_add(f, g), g, -1) == f
    assert (f * Fraction(1, 3)) * 3 == f


def test_unipoly_divmod_and_gcd():
    t = UniPoly.from_terms({1: 1})
    f = poly_add(t, ONE, -1) * poly_add(t, ONE, -2)
    q, r = divmod_q(f, poly_add(t, ONE, -1))
    assert q == poly_add(t, ONE, -2) and not r
    g = poly_add(t, ONE, -1) * poly_add(t, ONE, 3)
    assert gcd_q(f, g) == poly_add(t, ONE, -1)  # and it is monic


def test_rational_function_reduction():
    t = UniPoly.from_terms({1: 1})
    r = RationalFunctionT(poly_add(t**2, ONE, -1), poly_add(t, ONE, -1))
    assert r == RationalFunctionT(poly_add(t, ONE))
    assert r.evaluate(Fraction(3)) == 4


def test_rational_function_arithmetic():
    t = UniPoly.from_terms({1: 1})
    a = QtScalar(ONE, t)
    b = QtScalar(t)
    assert (a * b).function().evaluate(Fraction(7)) == 1
    assert (a + a).function().evaluate(Fraction(2)) == 1
    assert (b / a).function().evaluate(Fraction(2)) == 4
    assert (b - a).function() == RationalFunctionT(poly_add(t * t, ONE, -1), t)


def test_rational_function_zero_is_one_shared_immutable_value():
    zero = RationalFunctionT.zero()
    assert zero is RationalFunctionT.zero()
    assert zero == RationalFunctionT(0) and hash(zero) == hash(RationalFunctionT(0))
    assert not zero and str(zero) == "0"
    for name in ("num", "den"):
        with pytest.raises(AttributeError):
            setattr(zero, name, UniPoly.constant(1))
    assert zero == RationalFunctionT(0)


def test_rational_function_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalFunctionT(ONE, UniPoly())
