import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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
    stop_qdeg,
)
from algrest.errors import InputError, NotClosedError
from algrest.forms import DifferentialForm, ext_der, wedge
from algrest.linalg import RrefResult, kernel_basis, rank, reduce_by, rref, sparse_rref
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


def gaps(curve):
    """The positive integers outside the curve's semigroup."""
    return tuple(v for v in range(1, curve.conductor) if not curve.in_semigroup(v))


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
        assert gaps(curve) == GAPS[lams]
        for g in gaps(curve):
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


def closed_vectors_by_kernel(curve, d):
    """Reference: the closed classes of degree d as the kernel of d from the
    2-form piece into the 3-form piece, in the basis's label order."""
    piece2 = restriction_quotient(curve, 2, d)
    if piece2.dim == 0:
        return []
    piece3 = restriction_quotient(curve, 3, d)
    image_cols = [
        piece3.quotient_coords(piece3.vectorize(ext_der(piece2.rep_form(j))))
        for j in range(piece2.dim)
    ]
    map_rows = [[col[i] for col in image_cols] for i in range(piece3.dim)]
    canon = rref(kernel_basis(map_rows, piece2.dim), piece2.dim)
    ordered = sorted(zip(canon.pivots, canon.rows), key=lambda item: item[0], reverse=True)
    return [tuple(row) for _, row in ordered]


KERNEL_REFERENCE_CURVES = tuple(MonomialCurve(lams) for lams in ALL) + (
    MonomialCurve((2, 3)),
    MonomialCurve((2, 5)),
    MonomialCurve((3, 4)),
    MonomialCurve((5, 7)),
    MonomialCurve((3, 5, 7)),
    MonomialCurve((3, 7, 8)),
    MonomialCurve((4, 6, 7, 9)),
    MonomialCurve((5, 6, 7, 8, 9)),
    MonomialCurve((6, 7, 8, 9, 10, 11)),
    MonomialCurve((4, 5, 6), ambient=5),
    MonomialCurve((4, 5, 6, 7), ambient=6),
    MonomialCurve((3, 7, 8), ambient=5),
)


def test_exact_classes_equal_the_kernel_into_three_forms():
    # Any one owner's exact rows lie in the span of the others', since
    # (1 + m_i) d(x^m dx_i) = -sum_{j != i} m_j d(x_i x^(m - e_j) dx_j), so
    # this test checks the span; the owners themselves matter to Lt, which
    # test_invariants.py checks against the per-coordinate span vectors.
    for curve in KERNEL_REFERENCE_CURVES:
        basis = cached_basis(curve)
        for d in range(1, basis.stop_qdeg):
            vectors = [vec for _, vec in basis.by_degree.get(d, [])]
            assert vectors == closed_vectors_by_kernel(curve, d), (curve, d)


def test_each_owners_exact_rows_lie_in_the_span_of_the_others():
    # RestrictionBasis leaves owner 0's rows out of its elimination; the
    # identity in its docstring lets any one owner go without changing the
    # span, which the reduced echelon form pins down.
    for curve in KERNEL_REFERENCE_CURVES:
        basis = cached_basis(curve)
        for d, (owners, rows) in basis.exact.items():
            width = restriction_quotient(curve, 2, d).dim
            full = rref(rows, width)
            for owner in set(owners):
                kept = [row for i, row in zip(owners, rows) if i != owner]
                assert rref(kept, width) == full, (curve, d, owner)


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


def test_unknown_labels_list_the_basis_labels(basis4567):
    a = parse_restriction("a9", basis4567)
    message = "unknown basis label 'a16'; have a9, a10, a11+, a11-, a12, a13+, a13-, a14, a15"
    for lookup in (
        a.coefficient,
        basis4567.element,
        lambda label: AlgRestriction.from_coeffs(basis4567, {label: 1}),
    ):
        with pytest.raises(InputError) as err:
            lookup("a16")
        assert str(err.value) == message


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


@dataclass(frozen=True)
class ReferencePiece:
    """A graded piece over every monomial column x^m dx_I of the ambient
    space, with the reduced zero-restriction rows at full width."""

    curve: MonomialCurve
    columns: tuple
    zrows: tuple
    zpivots: tuple
    rep_cols: tuple
    index: dict

    @property
    def dim(self):
        return len(self.rep_cols)

    def quotient_coords(self, vec):
        work = reduce_by(RrefResult(self.zrows, self.zpivots), vec)
        return [work[c] for c in self.rep_cols]

    def rep_form(self, j):
        idx, exps = self.columns[self.rep_cols[j]]
        return DifferentialForm.from_term(self.curve.ambient, idx, Polynomial.monomial(exps))


def _reference_coordinates(index, form):
    vec = {}
    for idx, poly in form.coeffs.items():
        for exps, coeff in poly.terms.items():
            vec[index[(idx, exps)]] = coeff
    return vec


@lru_cache(maxsize=None)
def reference_quotient(curve, k, d):
    """Reference: eliminate the generators q dx_I and d(q dx_J), q in the
    ideal, over all monomial columns of the ambient space."""
    m = curve.ambient
    weights = curve.weights
    columns = [
        (idx, exps)
        for idx in itertools.combinations(range(m), k)
        for exps in monomials_of_qdeg(weights.wvec, d - sum(weights.weight(i) for i in idx))
    ]
    index = {key: i for i, key in enumerate(columns)}
    gens = []
    for idx in itertools.combinations(range(m), k):
        e = d - sum(weights.weight(i) for i in idx)
        for q in ideal_graded_basis(curve, e):
            gens.append(_reference_coordinates(index, DifferentialForm.from_term(m, idx, q)))
    if k >= 1:
        for jdx in itertools.combinations(range(m), k - 1):
            e = d - sum(weights.weight(i) for i in jdx)
            for q in ideal_graded_basis(curve, e):
                dq = ext_der(DifferentialForm.from_term(m, jdx, q))
                gens.append(_reference_coordinates(index, dq))
    red = sparse_rref(gens, len(columns))
    pivots = set(red.pivots)
    return ReferencePiece(
        curve=curve,
        columns=tuple(columns),
        zrows=tuple(tuple(row) for row in red.rows),
        zpivots=tuple(red.pivots),
        rep_cols=tuple(c for c in range(len(columns)) if c not in pivots),
        index=index,
    )


PIECE_REFERENCE_CURVES = (
    MonomialCurve((2, 3)),
    MonomialCurve((2, 5)),
    MonomialCurve((3, 4)),
    MonomialCurve((5, 7)),
    *(MonomialCurve(lams) for lams in ALL),
    MonomialCurve((3, 7, 8)),
    MonomialCurve((5, 6, 7, 8, 9)),
    MonomialCurve((4, 5, 6, 7), ambient=6),
    MonomialCurve((4, 5, 6), ambient=5),
    MonomialCurve((3, 7, 8), ambient=5),
)


def test_kahler_pieces_equal_the_full_column_reference():
    for curve in PIECE_REFERENCE_CURVES:
        for k in range(4):
            for d in range(stop_qdeg(curve) + curve.lams[-1]):
                piece = restriction_quotient(curve, k, d)
                ref = reference_quotient(curve, k, d)
                where = (curve, k, d)
                assert piece.dim == ref.dim, where
                assert [piece.rep_form(j) for j in range(piece.dim)] == [
                    ref.rep_form(j) for j in range(ref.dim)
                ], where
                for c, (idx, exps) in enumerate(ref.columns):
                    unit = [Fraction(int(j == c)) for j in range(len(ref.columns))]
                    term = DifferentialForm.from_term(
                        curve.ambient, idx, Polynomial.monomial(exps)
                    )
                    assert piece.quotient_coords(piece.vectorize(term)) == ref.quotient_coords(
                        unit
                    ), (where, idx, exps)


def test_zero_rows_have_no_constant_branch_entry():
    # the lemma behind representable_by_symplectic: a zero-restriction form
    # has no constant dx_i ^ dx_j term with i, j on the branch
    for curve in PIECE_REFERENCE_CURVES:
        zero = (0,) * curve.ambient
        pairs = list(itertools.combinations(range(len(curve.lams)), 2))
        for d in {curve.lams[i] + curve.lams[j] for i, j in pairs}:
            ref = reference_quotient(curve, 2, d)
            positions = [ref.index[(pair, zero)] for pair in pairs if (pair, zero) in ref.index]
            assert positions, (curve, d)
            assert all(not row[p] for row in ref.zrows for p in positions), (curve, d)


def test_vectorize_rejects_wrong_degree_and_drops_off_curve_terms():
    # x4 and x5 are off the curve, with weight 7
    curve = MonomialCurve((4, 5, 6), ambient=5)
    piece = restriction_quotient(curve, 2, 11)
    with pytest.raises(InputError, match="not quasi-homogeneous of degree 11"):
        piece.vectorize(parse_form("x1*dx1^dx2", 5))
    assert piece.vectorize(parse_form("dx2^dx3 + dx1^dx4", 5)) == piece.vectorize(
        parse_form("dx2^dx3", 5)
    )
    piece = restriction_quotient(curve, 2, 16)
    assert not any(piece.vectorize(parse_form("x4*dx1^dx2 + x5*dx1^dx2", 5)))
    assert any(piece.vectorize(parse_form("x3*dx1^dx3 + x4*dx1^dx2", 5)))
