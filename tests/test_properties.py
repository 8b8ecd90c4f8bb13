"""Randomized algebraic identity suites.

Each suite runs under the "bulk" hypothesis profile registered in
conftest.py: one thousand derandomized examples per property.
"""

import functools
import itertools
from fractions import Fraction

from hypothesis import given, strategies as st

from algrest.curves import AlgRestriction, MonomialCurve, cached_basis, project
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
from algrest.invariants import pmqd_compare
from algrest.parser import latex_restriction, latex_sum, parse_polynomial, parse_restriction
from algrest.poly import signed_sum
from algrest.qt import UniPoly
from algrest.symmetry import liftable_field, shift_action

from direct_actions import check_witt_construction, lie_action
from generic_path import drop_off_curve, restrict, substitute
from tables import SHIFTS
from test_poly import reference_unipoly_add, reference_unipoly_mul, reference_unipoly_pow

NVARS = 3

coeff_st = st.integers(min_value=-4, max_value=4).map(Fraction)
nonzero_coeff_st = coeff_st.filter(bool)
exps_st = st.tuples(*[st.integers(min_value=0, max_value=2)] * NVARS)


@st.composite
def polynomials(draw):
    terms = draw(st.lists(st.tuples(exps_st, coeff_st), min_size=1, max_size=2))
    poly = Polynomial.zero(NVARS)
    for exps, coeff in terms:
        poly = poly + Polynomial.monomial(exps, coeff)
    return poly


@st.composite
def forms(draw, degree):
    if degree == 0:
        return DifferentialForm.function(draw(polynomials()))
    indices = {
        1: [(0,), (1,), (2,)],
        2: [(0, 1), (0, 2), (1, 2)],
    }[degree]
    total = DifferentialForm.zero(degree, NVARS)
    for idx in draw(st.lists(st.sampled_from(indices), min_size=1, max_size=2)):
        total = total + DifferentialForm.from_term(NVARS, idx, draw(polynomials()))
    return total


@st.composite
def fields(draw):
    return VectorField([draw(polynomials()) for _ in range(NVARS)])


@given(form=st.one_of(forms(0), forms(1)))
def test_exterior_derivative_squares_to_zero(form):
    assert not ext_der(ext_der(form))


@given(left=st.one_of(forms(0), forms(1)), right=st.one_of(forms(0), forms(1), forms(2)))
def test_exterior_derivative_is_a_derivation(left, right):
    sign = -1 if left.degree % 2 else 1
    assert ext_der(wedge(left, right)) == (
        wedge(ext_der(left), right) + wedge(left, ext_der(right)) * sign
    )


@given(field=fields(), form=st.one_of(forms(1), forms(2)))
def test_cartan_formula(field, form):
    homotopy = interior(field, ext_der(form)) + ext_der(
        interior(field, form)
    )
    assert lie_derivative(field, form) == homotopy


@st.composite
def restrictions(draw, basis):
    coords = [draw(coeff_st) for _ in range(basis.dim)]
    return AlgRestriction(basis, coords)


def _basis456():
    from algrest.curves import MonomialCurve

    return cached_basis(MonomialCurve((4, 5, 6)))


def _basis4567():
    from algrest.curves import MonomialCurve

    return cached_basis(MonomialCurve((4, 5, 6, 7)))


@st.composite
def small_forms_456(draw):
    # 2-forms over the (4, 5, 6) curve's ambient space
    total = DifferentialForm.zero(2, 3)
    idx = draw(st.sampled_from([(0, 1), (0, 2), (1, 2)]))
    exps = draw(st.tuples(*[st.integers(min_value=0, max_value=2)] * 3))
    total = total + DifferentialForm.from_term(
        3, idx, Polynomial.monomial(exps, draw(nonzero_coeff_st))
    )
    return total


@given(
    data=st.data(),
    eta=small_forms_456(),
    xi_exps=st.tuples(*[st.integers(min_value=0, max_value=1)] * 3),
    xi_idx=st.integers(min_value=0, max_value=2),
)
def test_projection_kills_the_zero_space(data, eta, xi_exps, xi_idx):
    basis = _basis456()
    curve = basis.curve
    a = data.draw(restrictions(basis))
    g = parse_polynomial("x2^2 - x1*x3", 3)
    xi = DifferentialForm.from_term(3, (xi_idx,), Polynomial.monomial(xi_exps))
    shifted = a.rep_form() + wedge(DifferentialForm.function(g), eta) + ext_der(
        wedge(DifferentialForm.function(g), xi)
    )
    assert project(curve, shifted, basis) == a


@given(data=st.data())
def test_lie_action_shifts_the_grading(data):
    basis = _basis4567()
    a = data.draw(restrictions(basis))
    s = data.draw(st.sampled_from(SHIFTS[(4, 5, 6, 7)]))
    for d in a.nonzero_qdegs():
        image = shift_action(a.part(d), s)
        assert set(image.nonzero_qdegs()) <= {d + s}


def _small_curves():
    """Every curve with one to three generators from 1 to 6, bare and with
    one off-curve variable."""
    curves = []
    for k in (1, 2, 3):
        for lams in itertools.combinations(range(1, 7), k):
            for ambient in (k, k + 1):
                try:
                    curves.append(MonomialCurve(lams, ambient))
                except InputError:
                    pass
    return curves


@functools.lru_cache(maxsize=None)
def _witt_checked(curve):
    check_witt_construction(curve)


@given(curve=st.sampled_from(_small_curves()))
def test_action_matrices_represent_the_witt_algebra_on_small_semigroups(curve):
    """A_0 = diag(qdeg), [A_s, A_u] = (u - s) A_{s+u} and the built matrices
    equal the direct ones (see ``direct_actions``); each curve is checked
    once per session."""
    _witt_checked(curve)


@given(data=st.data())
def test_lift_policy_does_not_change_the_action(data):
    """The Lie derivative along the pinned lift, taken directly, is the
    action that the one matrix per shift gives."""
    basis = _basis4567()
    a = data.draw(restrictions(basis))
    s = data.draw(st.sampled_from(SHIFTS[(4, 5, 6, 7)]))
    pinned = liftable_field(basis.curve, s, "pinned")
    assert lie_action(basis.curve, pinned, a) == shift_action(a, s)


small_exps_st = st.tuples(*[st.integers(min_value=0, max_value=1)] * NVARS)


@given(
    multipliers=st.tuples(*[small_exps_st] * 3),
    form=small_forms_456(),
)
def test_ideal_component_fields_act_trivially(multipliers, form):
    basis = _basis456()
    curve = basis.curve
    g = parse_polynomial("x2^2 - x1*x3", 3)
    field = VectorField([g * Polynomial.monomial(exps) for exps in multipliers])
    moved = lie_derivative(field, form)
    assert project(curve, moved, basis).is_zero()


@given(data=st.data(), r1=nonzero_coeff_st, r2=nonzero_coeff_st)
def test_pmqd_is_stable_under_scalings(data, r1, r2):
    basis = _basis4567()
    a = data.draw(restrictions(basis))
    b = data.draw(restrictions(basis))
    assert pmqd_compare(a * r1, b * r2).kind == pmqd_compare(a, b).kind
    if not a.is_zero():
        verdict = pmqd_compare(a * r1, a)
        assert verdict.kind == "proportional"
        assert verdict.constant == 1 / r1


def dense_substitute(poly, images):
    """Reference: the dense substitution, one power per factor and one sum
    per term, by the reference loops of tests/test_poly.py, so
    ``substitute`` checks ``UniPoly``'s ``*`` and ``**`` and ``poly_add``."""
    result = UniPoly()
    for exps, coeff in poly.terms.items():
        term = UniPoly.constant(coeff)
        for img, e in zip(images, exps):
            if e:
                term = reference_unipoly_mul(term, reference_unipoly_pow(img, e))
        result = reference_unipoly_add(result, term)
    return result


image_st = st.one_of(
    st.builds(
        lambda e, c: UniPoly.from_terms({e: c}),
        st.integers(min_value=1, max_value=7),
        nonzero_coeff_st,
    ),
    st.lists(nonzero_coeff_st, min_size=2, max_size=4).map(UniPoly),
    nonzero_coeff_st.map(UniPoly.constant),
    st.just(UniPoly()),
)


@given(
    terms=st.dictionaries(
        st.tuples(*[st.integers(min_value=0, max_value=3)] * NVARS), coeff_st, max_size=4
    ),
    images=st.tuples(*[image_st] * NVARS),
)
def test_substitution_equals_the_dense_reference(terms, images):
    poly = Polynomial(NVARS, terms)
    value = substitute(poly, images)
    assert value == dense_substitute(poly, images)
    assert all(type(c) is Fraction for c in value.coeffs)


MAP_DIM = 4
map_exps_st = st.tuples(*[st.integers(min_value=0, max_value=2)] * MAP_DIM).filter(any)
form_exps_st = st.tuples(*[st.integers(min_value=0, max_value=1)] * MAP_DIM)


@st.composite
def origin_maps(draw):
    """Polynomial maps R^4 -> R^4 fixing the origin."""
    return PolyMap(
        [
            Polynomial(MAP_DIM, draw(st.dictionaries(map_exps_st, coeff_st, max_size=2)))
            for _ in range(MAP_DIM)
        ]
    )


@st.composite
def target_forms(draw):
    degree = draw(st.integers(min_value=1, max_value=2))
    indices = list(itertools.combinations(range(MAP_DIM), degree))
    chosen = draw(st.lists(st.sampled_from(indices), max_size=2, unique=True))
    return DifferentialForm(
        degree,
        MAP_DIM,
        {
            idx: Polynomial(MAP_DIM, draw(st.dictionaries(form_exps_st, coeff_st, max_size=2)))
            for idx in chosen
        },
    )


@given(
    phi=origin_maps(),
    form=target_forms(),
    dim=st.integers(min_value=1, max_value=MAP_DIM),
)
def test_pullback_along_the_restricted_map_drops_off_curve(phi, form, dim):
    assert pullback(restrict(phi, dim), form) == drop_off_curve(pullback(phi, form), dim)


def assert_clean_polynomial(p, nvars):
    """p is what the validating constructor makes of its own terms: tuple
    exponents of the right length, nonzero Fraction coefficients."""
    assert p.nvars == nvars
    assert all(type(e) is tuple and type(c) is Fraction and c for e, c in p.terms.items())
    assert Polynomial(p.nvars, p.terms) == p


def assert_clean_form(form, degree, nvars):
    """form is what the validating constructor makes of its coefficients:
    sorted index tuples with nonzero clean polynomials."""
    assert (form.degree, form.nvars) == (degree, nvars)
    for idx, poly in form.coeffs.items():
        assert type(idx) is tuple and poly
        assert_clean_polynomial(poly, nvars)
    assert DifferentialForm(form.degree, form.nvars, form.coeffs) == form


CLEAN_WEIGHTS = (Weights((1, 1, 1), 3), Weights((1, 2, 3), 3), Weights((4, 5, 6), 3))


@given(
    p=polynomials(),
    q=polynomials(),
    c=coeff_st,
    n=st.integers(min_value=0, max_value=3),
    i=st.integers(min_value=0, max_value=NVARS - 1),
    left=st.one_of(forms(0), forms(1)),
    right=st.one_of(forms(1), forms(2)),
    field=fields(),
    weights=st.sampled_from(CLEAN_WEIGHTS),
)
def test_trusted_results_equal_their_validated_copies(p, q, c, n, i, left, right, field, weights):
    """Every result that the value layer builds without validation holds no
    zero coefficient and no zero polynomial, and equals its re-validated
    copy; the differences make terms cancel."""
    sums = (p + q, (p + q) - q, p - p, -p)
    products = (p * c, c * p, p * q, p * q - q * p, p**n, p.partial(i))
    for poly in sums + products:
        assert_clean_polynomial(poly, NVARS)
    assert (p + q) - q == p and p**n * p == p ** (n + 1)
    for result, degree in (
        (left + left * c, left.degree),
        ((left + left * c) - left, left.degree),
        (left - left, left.degree),
        (-right, right.degree),
        (right * c, right.degree),
        (wedge(left, right), left.degree + right.degree),
        (ext_der(left), left.degree + 1),
        (ext_der(right), right.degree + 1),
        (interior(field, right), right.degree - 1),
        (lie_derivative(field, left), left.degree),
        (lie_derivative(field, right), right.degree),
    ):
        assert_clean_form(result, degree, NVARS)
    parts = right.graded_parts(weights)
    for d, part in parts.items():
        assert_clean_form(part, right.degree, NVARS)
        for idx, poly in part.coeffs.items():
            assert all(weights.qdeg_term(e, idx) == d for e in poly.terms)
    total = DifferentialForm.zero(right.degree, NVARS)
    for part in parts.values():
        total = total + part
    assert total == right


SPARSE_CURVES = tuple(
    MonomialCurve(lams) for lams in ((4, 5, 6, 7), (4, 5, 6), (4, 5, 7), (5, 6, 7, 8, 9), (3, 7, 8))
)
small_rational_st = st.builds(
    Fraction, st.integers(min_value=-3, max_value=3), st.sampled_from((1, 2, 3))
)


@st.composite
def sparse_coords(draw, dim):
    """Dense coordinates of a class: up to four drawn positions, whose
    values may still be zero."""
    coords = [Fraction(0)] * dim
    for j in draw(st.lists(st.integers(min_value=0, max_value=dim - 1), max_size=4, unique=True)):
        coords[j] = draw(small_rational_st)
    return tuple(coords)


def assert_canonical(a):
    """The sparse invariants: nonzero ``Fraction`` entries under ascending
    keys inside the basis."""
    keys = list(a.entries)
    assert keys == sorted(keys) and all(0 <= j < a.basis.dim for j in keys)
    assert all(type(c) is Fraction and c for c in a.entries.values())


def dense_part(elements, coords, qdeg):
    return tuple(c if el.qdeg == qdeg else Fraction(0) for el, c in zip(elements, coords))


def signed_text(terms):
    """A restriction expression with an explicit sign before every term."""
    return " ".join(f"{'-' if c < 0 else '+'} {abs(c)}*{label}" for label, c in terms)


@given(data=st.data(), c=small_rational_st)
def test_sparse_classes_equal_the_dense_reference(data, c):
    """Every operation on a class gives the coordinates that the dense
    computation on ``coords`` tuples gives, and keeps the sparse invariants;
    the second operand cancels some coordinates of the first."""
    basis = cached_basis(data.draw(st.sampled_from(SPARSE_CURVES)))
    dim, labels, elements = basis.dim, basis.labels, basis.elements
    u = data.draw(sparse_coords(dim))
    support = [j for j in range(dim) if u[j]]
    cancelled = data.draw(st.sets(st.sampled_from(support))) if support else set()
    v = tuple(-u[j] if j in cancelled else x for j, x in enumerate(data.draw(sparse_coords(dim))))
    a, b = AlgRestriction(basis, u), AlgRestriction(basis, v)
    zero = Fraction(0)
    qdegs = sorted({el.qdeg for el in elements})
    cases = [
        (a, u),
        (b, v),
        (a + b, tuple(x + y for x, y in zip(u, v))),
        (a - b, tuple(x - y for x, y in zip(u, v))),
        (b - a, tuple(y - x for x, y in zip(u, v))),
        (-a, tuple(-x for x in u)),
        (a * c, tuple(x * c for x in u)),
        (c * a, tuple(c * x for x in u)),
        (a * 0, (zero,) * dim),
        (a - a, (zero,) * dim),
        (a + -a, (zero,) * dim),
        ((a + b) - b, u),
    ]
    cases += [(a.part(q), dense_part(elements, u, q)) for q in qdegs + [qdegs[-1] + 1]]
    for got, want in cases:
        assert_canonical(got)
        assert got.coords == want
        degs = sorted({el.qdeg for el, x in zip(elements, want) if x})
        assert got.nonzero_qdegs() == degs
        assert got.is_zero() == (not any(want))
        located = got.min_qdeg_part()
        if degs:
            assert located[0] == degs[0]
            assert_canonical(located[1])
            assert located[1].coords == dense_part(elements, want, degs[0])
        else:
            assert located is None
        assert [got.coefficient(label) for label in labels] == list(want)
        assert str(got) == signed_sum(zip(want, labels))
        assert latex_restriction(got) == latex_sum(zip(want, labels))
        twin = AlgRestriction(basis, want)
        assert got == twin and hash(got) == hash(twin)
        for other, other_coords in ((a, u), (b, v)):
            assert (got == other) == (want == other_coords)
    extra = data.draw(st.integers(min_value=0, max_value=dim - 1))
    order = data.draw(st.permutations(support + [j for j in (extra,) if j not in support]))
    given_coeffs = {labels[j]: u[j] for j in order}
    built = AlgRestriction.from_coeffs(basis, given_coeffs)
    assert_canonical(built)
    assert built.coords == u
    text = signed_text(
        [(labels[extra], 1)] + [(labels[j], u[j]) for j in order] + [(labels[extra], -1)]
    )
    parsed = parse_restriction(text, basis)
    assert_canonical(parsed)
    assert parsed.coords == u

