from fractions import Fraction

import pytest

from algrest.curves import MonomialCurve
from algrest.errors import InputError
from algrest.forms import (
    DifferentialForm,
    PolyMap,
    Polynomial,
    VectorField,
    Weights,
    ext_der,
    interior,
    lie_derivative,
    pullback,
    wedge,
)
from algrest.qt import UniPoly

from generic_path import apply_series, restrict, terms_of


def var(i, n=4):
    return Polynomial.variable(n, i)


def dx(i, n=4):
    return DifferentialForm.from_term(n, (i,), 1)


def dxx(i, j, n=4):
    return DifferentialForm.from_term(n, (i, j), 1)


def identity_map(n):
    """The identity map of R^n: x_i -> x_i."""
    return PolyMap([var(i, n) for i in range(n)], n)


def compose(outer, inner):
    """outer after inner: x -> outer(inner(x))."""
    return PolyMap(
        [comp.subst_poly(inner.components) for comp in outer.components], inner.source_dim
    )


def test_wedge_antisymmetry_and_zero_square():
    assert wedge(dx(0), dx(1)) == -wedge(dx(1), dx(0))
    assert not wedge(dx(0), dx(0))
    a = wedge(dx(0), dx(1))
    assert not wedge(a, a)


def test_wedge_with_function_scales():
    f = DifferentialForm.function(var(0))
    assert wedge(f, dx(1)) == DifferentialForm.from_term(4, (1,), var(0))


def test_wedge_associativity_spot():
    a = wedge(DifferentialForm.function(var(0)), dx(1))
    b = dx(2)
    c = dx(3)
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_ext_der_of_function():
    f = DifferentialForm.function(var(0) * var(1))
    df = ext_der(f)
    assert df.coefficient((0,)) == var(1)
    assert df.coefficient((1,)) == var(0)


def test_ext_der_of_one_form():
    # d(x1 dx2) = dx1 ^ dx2
    form = DifferentialForm.from_term(4, (1,), var(0))
    assert ext_der(form) == dxx(0, 1)


def test_ext_der_squared_zero_spot():
    form = DifferentialForm.from_term(4, (1,), var(0) * var(2) + var(3) ** 2)
    assert not ext_der(ext_der(form))


def test_interior_product():
    field = VectorField([Polynomial.constant(4, 1)] + [Polynomial.zero(4)] * 3)
    assert interior(field, dxx(0, 1)) == dx(1)
    assert not interior(field, dxx(1, 2))
    # i_X on a function is zero
    assert not interior(field, DifferentialForm.function(var(2)))


def test_cartan_formula_spot():
    field = VectorField([var(1), var(0) * var(0), Polynomial.zero(4), var(3)])
    form = DifferentialForm.from_term(4, (0, 2), var(1)) + dxx(1, 3)
    direct = lie_derivative(field, form)
    cartan = interior(field, ext_der(form)) + ext_der(interior(field, form))
    assert direct == cartan


def test_lie_derivative_of_a_function_is_its_directional_derivative():
    field = VectorField([var(1, 2), Polynomial.zero(2)])
    assert lie_derivative(field, DifferentialForm.function(var(0, 2))) == (
        DifferentialForm.function(var(1, 2))
    )
    f = var(0) * var(0) * var(1) + var(3)
    field = VectorField([var(1), var(0) * var(2), Polynomial.zero(4), var(3)])
    expected = sum(
        (comp * f.partial(i) for i, comp in enumerate(field.components)), Polynomial.zero(4)
    )
    image = lie_derivative(field, DifferentialForm.function(f))
    assert image.degree == 0
    assert image == DifferentialForm.function(expected)


def test_forms_print_zero_zero_forms_and_unit_coefficients():
    x1, x2 = var(0, 2), var(1, 2)
    assert str(DifferentialForm.zero(2, 2)) == "0"
    assert str(DifferentialForm.function(x1 * x1 - x2 * Fraction(1, 2))) == "(x1^2 - 1/2*x2)"
    assert str(DifferentialForm.function(Polynomial.constant(2, 1))) == "(1)"
    assert str(dxx(0, 1, 2) * -1) == "(-1)*dx1^dx2"
    assert str(dx(1, 2) + DifferentialForm.from_term(2, (0,), x2 * 3)) == "(3*x2)*dx1 + dx2"


def test_forms_take_rational_scalars_only():
    form = dxx(0, 1) + DifferentialForm.from_term(4, (1, 2), var(3))
    assert form * Fraction(1, 10) == form * 1 * Fraction(1, 10)
    assert form * 2 == 2 * form == form + form
    for scalar in (0.1, 0.5, 1.0):
        with pytest.raises(TypeError):
            form * scalar
        with pytest.raises(TypeError):
            scalar * form
    with pytest.raises(TypeError):
        var(0) * 0.1


def test_values_of_mismatched_shapes_raise():
    """Each constructor and operation of the value layer rejects input
    whose variable count, degree, index or exponent does not fit."""
    with pytest.raises(ValueError, match="nvars must be nonnegative"):
        Polynomial(-1)
    with pytest.raises(ValueError, match="wrong length for 2 variables"):
        Polynomial(2, {(1,): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        Polynomial(2, {(1, -1): 1})
    with pytest.raises(ValueError, match="variable index 2 out of range for 2 variables"):
        Polynomial.variable(2, 2)
    with pytest.raises(ValueError, match="variable count mismatch: 4 vs 3"):
        var(0) + var(0, 3)
    with pytest.raises(ValueError, match="variable index 4 out of range"):
        var(0).partial(4)
    with pytest.raises(ValueError, match="need one image per variable"):
        var(0).subst_poly([var(0)])
    assert Polynomial.constant(0, 5).subst_poly([]) == Polynomial.constant(0, 5)
    with pytest.raises(InputError, match="form degree must be nonnegative"):
        DifferentialForm(-1, 2)
    with pytest.raises(InputError, match="wrong length for degree 2"):
        DifferentialForm(2, 4, {(0,): var(0)})
    with pytest.raises(InputError, match="out of range for 4 variables"):
        DifferentialForm(1, 4, {(4,): var(0)})
    with pytest.raises(InputError, match="must be strictly increasing"):
        DifferentialForm(2, 4, {(1, 0): var(0)})
    with pytest.raises(InputError, match="coefficient variable count mismatch"):
        DifferentialForm(1, 4, {(0,): var(0, 3)})
    with pytest.raises(InputError, match="^variable count mismatch$"):
        dx(0) + dx(0, 3)
    with pytest.raises(InputError, match="form degree mismatch"):
        dx(0) + dxx(0, 1)
    with pytest.raises(InputError, match="weights do not match"):
        dx(0).graded_parts(Weights((4, 5, 6), 3))
    with pytest.raises(InputError, match="^variable count mismatch$"):
        wedge(dx(0), dx(0, 3))
    field = VectorField([var(i) for i in range(4)])
    with pytest.raises(InputError, match="^variable count mismatch$"):
        interior(field, dx(0, 3))
    with pytest.raises(InputError, match="vector field needs at least one component"):
        VectorField([])
    with pytest.raises(InputError, match="component variable count mismatch"):
        VectorField([var(0, 2), var(0, 3)])
    with pytest.raises(InputError, match="map needs at least one component"):
        PolyMap([])
    with pytest.raises(InputError, match="component variable count mismatch"):
        PolyMap([var(0), var(0, 3)])
    with pytest.raises(InputError, match="does not match the map's target"):
        pullback(identity_map(3), dx(0))


def test_euler_field_scales_by_quasi_degree():
    weights = Weights((4, 5, 6, 7), 4)
    euler = VectorField([weights.weight(i) * var(i) for i in range(4)])
    form = DifferentialForm.from_term(4, (0, 1), var(0))  # qdeg 4+4+5 = 13
    assert lie_derivative(euler, form) == 13 * form


def test_graded_parts_split_by_quasi_degree():
    weights = Weights((4, 5, 6, 7), 4)
    form = dxx(0, 1) + DifferentialForm.from_term(4, (2, 3), var(0))
    parts = form.graded_parts(weights)
    assert set(parts) == {9, 17}
    assert parts[9] == dxx(0, 1)
    assert sum(parts.values(), DifferentialForm.zero(2, 4)) == form


def test_weights_off_curve_variables():
    weights = Weights((4, 5, 6), 6)
    assert weights.wvec == (4, 5, 6, 7, 7, 7)
    with pytest.raises(InputError):
        weights.weight(6)


def test_weights_keep_their_padded_vector_outside_their_value():
    """The weight vector is built once, in a slot outside ``_fields``:
    equality, hash and repr read the lams and the ambient alone, and
    ``weight`` reads the vector, range-checked."""
    weights = Weights((4, 5, 6), 5)
    assert weights.wvec == (4, 5, 6, 7, 7) and weights.wvec is weights.wvec
    assert Weights._fields == ("lams", "ambient")
    assert weights == Weights((4, 5, 6), 5) and weights != Weights((4, 5, 6), 6)
    assert hash(weights) == hash(((4, 5, 6), 5))
    assert repr(weights) == "Weights(lams=(4, 5, 6), ambient=5)"
    assert [weights.weight(i) for i in range(5)] == list(weights.wvec)
    for index in (-1, 5):
        with pytest.raises(InputError, match=f"variable index {index} out of range"):
            weights.weight(index)
    assert Weights((4, 5, 6, 7), 4).wvec == (4, 5, 6, 7)


def test_polymap_requires_vanishing_constant_term():
    with pytest.raises(InputError):
        PolyMap([var(0) + Polynomial.constant(4, 1), var(1), var(2), var(3)])


def test_polymap_identity_diagonal_compose():
    ident = identity_map(3)
    diag = PolyMap.diagonal([2, 3, Fraction(1, 2)])
    assert diag.linear_matrix() == [
        [Fraction(2), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(3), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1, 2)],
    ]
    assert compose(diag, ident).components == diag.components
    twice = compose(diag, diag)
    assert twice.linear_matrix()[0][0] == 4
    with pytest.raises(TypeError, match="rational scalar"):
        PolyMap.diagonal([0.1, 1])


def test_polymap_apply_series():
    phi = PolyMap([var(0, 2) * var(1, 2), var(1, 2)], source_dim=2)
    images = apply_series(phi, [UniPoly.from_terms({4: 1}), UniPoly.from_terms({5: 1})])
    assert images[0] == UniPoly.from_terms({9: 1})
    assert images[1] == UniPoly.from_terms({5: 1})
    assert MonomialCurve((4, 5)).series(phi.components) == [terms_of(f) for f in images]


def test_polymap_restrict_sets_the_other_coordinates_to_zero():
    phi = PolyMap([var(0) + var(2) * var(3), var(1) * var(2), var(2), var(0) * var(1) + var(3)])
    inclusion = PolyMap([var(0, 2), var(1, 2), Polynomial.zero(2), Polynomial.zero(2)], 2)
    restricted = restrict(phi, 2)
    assert restricted.source_dim == 2 and restricted.target_dim == 4
    assert restricted == compose(phi, inclusion)
    assert restrict(phi, 4) == phi
    for dim in (0, 5):
        with pytest.raises(InputError):
            restrict(phi, dim)


def test_pullback_linear_map_gives_determinant_factor():
    phi = PolyMap([2 * var(0, 2), 3 * var(1, 2)], source_dim=2)
    form = DifferentialForm.from_term(2, (0, 1), 1)
    assert pullback(phi, form) == 6 * form


def test_pullback_functorial_spot():
    phi = PolyMap([var(1, 3), var(0, 3), var(2, 3) + var(0, 3)])
    psi = PolyMap([var(0, 3) * var(2, 3), var(1, 3), var(2, 3)])
    form = DifferentialForm.from_term(3, (0, 2), var(1, 3))
    lhs = pullback(psi, pullback(phi, form))
    rhs = pullback(compose(phi, psi), form)
    assert lhs == rhs


def test_pullback_commutes_with_ext_der_spot():
    phi = PolyMap([var(0, 3) + var(1, 3) * var(2, 3), var(1, 3), var(2, 3)])
    form = DifferentialForm.from_term(3, (1,), var(0, 3) * var(0, 3))
    assert pullback(phi, ext_der(form)) == ext_der(pullback(phi, form))
