from fractions import Fraction

import pytest

from algrest.curves import (
    AlgRestriction,
    MonomialCurve,
    cached_basis,
    drop_off_curve,
    ideal_graded_basis,
    monomials_of_qdeg,
    project,
    restriction_quotient,
)
from algrest.errors import InputError, NotClosedError
from algrest.forms import DifferentialForm, ext_der, wedge
from algrest.linalg import kernel_basis, rank, sparse_rref
from algrest.parser import parse_form, parse_restriction
from algrest.poly import Polynomial
from algrest.symmetry import orbit_tangent_space

from tables import (
    BASIS_LABELS,
    BASIS_QDEGS,
    CONDUCTORS,
    GAPS,
    LAST_NONZERO_QDEG,
)

ALL = ((4, 5, 6, 7), (4, 5, 6), (4, 5, 7))


def test_curve_validation():
    with pytest.raises(InputError):
        MonomialCurve((4, 6))  # gcd 2
    with pytest.raises(InputError):
        MonomialCurve((1, 2))  # smooth, weight 1
    with pytest.raises(InputError):
        MonomialCurve((4, 5, 6), ambient=2)  # smaller than the branch


def test_semigroup_membership_conductor_gaps():
    for lams in ALL:
        curve = MonomialCurve(lams)
        assert curve.conductor == CONDUCTORS[lams]
        assert curve.gaps == GAPS[lams]
        for g in curve.gaps:
            assert not curve.in_semigroup(g)
        assert all(curve.in_semigroup(v) for v in range(curve.conductor, 40))
        assert curve.in_semigroup(0)


def test_curve_images_are_t_powers():
    curve = MonomialCurve((4, 5, 7), ambient=5)
    images = curve.images()
    assert [f.order() for f in images] == [4, 5, 7, None, None]


def test_monomials_of_qdeg():
    mono = monomials_of_qdeg((4, 5, 6, 7), 10)
    assert set(mono) == {(0, 2, 0, 0), (1, 0, 1, 0)}
    assert monomials_of_qdeg((4, 5, 6, 7), 1) == ()
    assert monomials_of_qdeg((4, 5, 6, 7), 0) == ((0, 0, 0, 0),)


def test_basis_labels_and_degrees():
    for lams in ALL:
        basis = cached_basis(MonomialCurve(lams))
        assert basis.labels == BASIS_LABELS[lams]
        assert tuple(el.qdeg for el in basis.elements) == BASIS_QDEGS[lams]
        assert basis.dim == len(BASIS_LABELS[lams])


def test_full_quotient_tail(curve4567, curve456, curve457):
    for curve in (curve4567, curve456, curve457):
        basis = cached_basis(curve)
        assert basis.last_nonzero_qdeg == LAST_NONZERO_QDEG[curve.lams]


def test_graded_piece_dims_spot(curve4567):
    dims = [restriction_quotient(curve4567, 2, d).dim for d in range(9, 19)]
    assert dims == [1, 1, 2, 1, 2, 1, 2, 1, 1, 1]
    assert restriction_quotient(curve4567, 2, 8).dim == 0


def test_cached_basis_is_one_object_per_curve():
    for lams in ALL:
        basis = cached_basis(MonomialCurve(lams))
        assert cached_basis(MonomialCurve(lams)) is basis


def _ideal_by_kernel(curve, qdeg):
    """The ideal's graded piece as the kernel of substitution into the curve."""
    mons = monomials_of_qdeg(curve.weights.wvec, qdeg)
    values = [Polynomial.monomial(m).substitute(curve.images()) for m in mons]
    powers = sorted({e for v in values for e in range(len(v.coeffs)) if v.coefficient(e)})
    rows = [[v.coefficient(e) for v in values] for e in powers]
    return kernel_basis(rows, len(mons))


def _old_scan_bound(curve):
    # the retired heuristic scan end, kept so this check's degree range stays
    return curve.conductor + 3 * curve.lams[-1] + curve.lams[-2]


def test_closed_form_ideal_basis_spans_the_substitution_kernel():
    curves = [MonomialCurve(lams, ambient) for lams in ALL for ambient in (5, 6)]
    curves.append(MonomialCurve((3, 7, 8), 5))
    for curve in curves:
        for qdeg in range(_old_scan_bound(curve) + 1):
            mons = monomials_of_qdeg(curve.weights.wvec, qdeg)
            column = {m: j for j, m in enumerate(mons)}
            closed = [
                {column[m]: c for m, c in q.terms.items()}
                for q in ideal_graded_basis(curve, qdeg)
            ]
            kernel = [
                {j: v for j, v in enumerate(vec) if v}
                for vec in _ideal_by_kernel(curve, qdeg)
            ]
            assert len(closed) == len(kernel), (curve, qdeg)
            assert sparse_rref(closed, len(mons)) == sparse_rref(kernel, len(mons))


def test_tangent_contains_matches_the_rank_definition():
    for lams in ALL:
        curve = MonomialCurve(lams)
        basis = cached_basis(curve)
        labels = basis.labels
        classes = [
            {labels[0]: 1},
            {labels[1]: 1, labels[3]: -2},
            {labels[2]: 3, labels[-1]: 1},
        ]
        for coeffs in classes:
            a = AlgRestriction.from_coeffs(basis, coeffs)
            tangent = orbit_tangent_space(curve, a)
            rows = [list(v.coords) for v in tangent.vectors if not v.is_zero()]
            base_rank = rank(rows, basis.dim)
            assert tangent.dim == base_rank
            for label in labels:
                direction = AlgRestriction.from_coeffs(basis, {label: 1})
                spanned = rank(rows + [list(direction.coords)], basis.dim) == base_rank
                assert tangent.contains(direction) == spanned, (lams, coeffs, label)


def test_basis_representatives_are_closed(curve4567, curve456, curve457):
    for curve in (curve4567, curve456, curve457):
        basis = cached_basis(curve)
        for el in basis.elements:
            der = ext_der(el.rep)
            piece = restriction_quotient(curve, 3, el.qdeg)
            assert all(c == 0 for c in piece.quotient_coords(piece.vectorize(der)))


def test_project_round_trip(basis4567):
    a = parse_restriction("a9 - 2*a11+ + 7/3*a13- + a15", basis4567)
    assert project(basis4567.curve, a.rep_form(), basis4567) == a


def test_project_kills_zero_space(curve456, basis456):
    # g = x2^2 - x1*x3 vanishes on the curve, so g*omega projects to zero
    g = Polynomial.monomial((0, 2, 0)) - Polynomial.monomial((1, 0, 1))
    omega = parse_form("dx1^dx2 + dx2^dx3", 3)
    gomega = wedge(DifferentialForm.function(g), omega)
    assert project(curve456, gomega, basis456).is_zero()
    # d(g * eta) also projects to zero
    eta = parse_form("x1*dx2", 3)
    assert project(curve456, ext_der(wedge(DifferentialForm.function(g), eta)), basis456).is_zero()


def test_project_rejects_non_closed_class(curve4567, basis4567):
    form = parse_form("x4*dx1^dx2", 4)
    with pytest.raises(NotClosedError):
        project(curve4567, form, basis4567)


def test_solve_in_closed_reads_coefficients_and_rejects_non_closed(basis4567):
    F = Fraction
    # qdeg 11 has two closed classes: a11+ = (0, 1) and a11- = (1, 0)
    i_plus, i_minus = basis4567.label_index["a11+"], basis4567.label_index["a11-"]
    assert basis4567.solve_in_closed(11, [F(-3), F(2, 5)]) == {i_plus: F(2, 5), i_minus: F(-3)}
    assert basis4567.solve_in_closed(15, [F(7), F(0)]) == {basis4567.label_index["a15"]: F(7)}
    assert basis4567.solve_in_closed(15, [F(0), F(0)]) == {}
    # qdeg 15: a two-dimensional piece with one closed class
    with pytest.raises(NotClosedError, match="lies outside the closed subspace"):
        basis4567.solve_in_closed(15, [F(1), F(1)])
    # qdeg 16: a one-dimensional piece with no closed class
    with pytest.raises(NotClosedError, match="is not closed"):
        basis4567.solve_in_closed(16, [F(1)])
    assert basis4567.solve_in_closed(16, [F(0)]) == {}


def test_project_known_relations(curve4567, basis4567):
    # x2 dx1^dx2 = 1/2 x1 dx1^dx3 and x3 dx1^dx2 + x2 dx1^dx3 = x1 dx1^dx4
    half_a14 = project(curve4567, parse_form("x2*dx1^dx2", 4), basis4567)
    assert half_a14 == parse_restriction("1/2*a14", basis4567)
    a15 = project(
        curve4567, parse_form("x3*dx1^dx2 + x2*dx1^dx3", 4), basis4567
    )
    assert a15 == parse_restriction("a15", basis4567)


def test_restriction_arithmetic(basis4567):
    a = parse_restriction("a9 + 2*a12", basis4567)
    b = parse_restriction("a12 - a15", basis4567)
    assert a + b == parse_restriction("a9 + 3*a12 - a15", basis4567)
    assert a - a == AlgRestriction.zero(basis4567)
    assert a * Fraction(1, 2) == parse_restriction("1/2*a9 + a12", basis4567)
    assert a.coefficient("a12") == 2
    assert a.coefficient("a15") == 0
    assert hash(a) == hash(parse_restriction("a9 + 2*a12", basis4567))


def test_restriction_parts(basis4567):
    a = parse_restriction("a11+ - 2*a11- + 5*a13+", basis4567)
    assert list(a.nonzero_qdegs()) == [11, 13]
    d, part = a.min_qdeg_part()
    assert d == 11
    assert part == parse_restriction("a11+ - 2*a11-", basis4567)
    assert a.part(13) == parse_restriction("5*a13+", basis4567)
    assert a.part(12).is_zero()
    assert AlgRestriction.zero(basis4567).min_qdeg_part() is None


def test_restriction_str_and_parse_round_trip(basis4567):
    a = parse_restriction("a9 + 2*a13+ - a14", basis4567)
    assert parse_restriction(str(a), basis4567) == a
    assert str(AlgRestriction.zero(basis4567)) == "0"


def test_mixed_basis_operations_rejected(basis4567, basis456):
    a = parse_restriction("a9", basis4567)
    b = parse_restriction("a9", basis456)
    with pytest.raises(InputError):
        _ = a + b


def test_drop_off_curve():
    form = parse_form("dx1^dx2 + dx1^dx4 + x4*dx2^dx3", 4)
    dropped = drop_off_curve(form, 3)
    # the result lives in the first three variables
    assert dropped == parse_form("dx1^dx2", 3)


def test_bigger_ambient_same_quotient(curve456):
    big = curve456.with_ambient(5)
    basis_small = cached_basis(curve456)
    basis_big = cached_basis(big)
    assert basis_big.labels == basis_small.labels
    assert [el.qdeg for el in basis_big.elements] == [
        el.qdeg for el in basis_small.elements
    ]
    # off-curve coordinates project to zero
    assert project(big, parse_form("dx1^dx5", 5), cached_basis(big)).is_zero()
