import importlib
import itertools
import math
import pkgutil
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import pytest

import algrest
from algrest.curves import (
    AlgRestriction,
    GradedPiece,
    MonomialCurve,
    RestrictionBasis,
    cached_basis,
    ideal_graded_basis,
    monomials_of_qdeg,
    project,
    restriction_quotient,
    stop_qdeg,
)
from algrest.errors import InputError, NotClosedError
from algrest.forms import DifferentialForm, Polynomial, ext_der, wedge
from algrest.linalg import RrefResult, kernel_basis, rref, zdenominated
from algrest.orbit import orbit_tangent_space
from algrest.parser import parse_form, parse_restriction

import semigroups
from fraction_path import dense, element_vectors, quotient_coords, zquotient_coords
from generic_path import curve_images, drop_off_curve, substitute, terms_of
from tables import (
    BASIS_LABELS,
    BASIS_QDEGS,
    CONDUCTORS,
    GAPS,
    LAST_NONZERO_QDEG,
)
from test_linalg import rank, reduce_by, reference_sparse_echelon

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


def reference_membership(gens, limit):
    """Reference: the dynamic-programming membership table of the semigroup
    generated by ``gens``, for the values 0..limit."""
    table = [False] * (limit + 1)
    table[0] = True
    for n in range(1, limit + 1):
        table[n] = any(g <= n and table[n - g] for g in gens)
    return table


MEMBERSHIP_CURVES = ALL + ((5, 6, 7, 8, 9), (6, 7, 8, 9, 10, 11)) + tuple(
    (a, b) for b in range(3, 10) for a in range(2, b) if math.gcd(a, b) == 1
)


def schur_bound(lams):
    """(lam_1 - 1)(lam_s - 1): every larger value is a semigroup element."""
    return (lams[0] - 1) * (lams[-1] - 1)


@pytest.mark.parametrize("lams", MEMBERSHIP_CURVES)
def test_semigroup_membership_matches_the_reference_table(lams):
    curve = MonomialCurve(lams)
    # past Schur's bound, where membership is answered without enumerating
    limit = max(3 * curve.conductor, schur_bound(lams) + 2 * lams[-1])
    table = reference_membership(lams, limit)
    assert [curve.in_semigroup(v) for v in range(limit + 1)] == table
    assert not curve.in_semigroup(-1)
    # a run of lam_1 elements certifies that every later value is one too
    assert all(table[limit - lams[0] + 1:])
    gaps_ = [v for v in range(limit + 1) if not table[v]]
    assert curve.conductor == (gaps_[-1] + 1 if gaps_ else 0)


def test_membership_past_schurs_bound_enumerates_nothing():
    curve = MonomialCurve((6, 7, 8, 9, 10, 11))
    assert schur_bound(curve.lams) == 50
    before = monomials_of_qdeg.cache_info()
    assert curve.in_semigroup(150)
    assert curve.in_semigroup(50)
    # no lookup at all: neither a stored entry nor a hit
    assert monomials_of_qdeg.cache_info() == before


def test_only_the_basis_cache_holds_per_curve_state():
    for info in pkgutil.iter_modules(algrest.__path__):
        importlib.import_module(f"algrest.{info.name}")
    caches = {
        id(value): value
        for name, mod in sys.modules.items()
        if name == "algrest" or name.startswith("algrest.")
        for value in vars(mod).values()
        if hasattr(value, "cache_info")
    }
    names = sorted(cache.__name__ for cache in caches.values())
    assert names == ["binomial_span", "cached_basis", "monomials_of_qdeg"]
    assert cached_basis.cache_parameters()["maxsize"] is not None


def test_curve_images_are_t_powers():
    """The coordinates along the curve are its t-powers, and ``series`` is
    the nonzero part of the substitution reference on seeded random
    polynomials with off-curve variables, cancelling terms and padded
    ambients."""
    curve = MonomialCurve((4, 5, 7), ambient=5)
    images = curve_images(curve)
    assert [min(terms_of(f), default=None) for f in images] == [4, 5, 7, None, None]
    coordinates = [Polynomial.variable(5, i) for i in range(5)]
    assert curve.series(coordinates) == [terms_of(f) for f in images]
    rng = random.Random(31)
    off_curve = cancelled = 0
    for lams, ambient in (((4, 5, 7), 5), ((4, 5, 6, 7), 0), ((2, 3), 4), ((3, 7, 8), 6)):
        curve = MonomialCurve(lams, ambient)
        m = curve.ambient
        polys = []
        for _ in range(60):
            terms = {}
            for _ in range(rng.randint(0, 5)):
                exps = tuple(rng.randint(0, 2) for _ in range(m))
                terms[exps] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            # two curve-only monomials of one quasi-degree with opposite
            # coefficients cancel along the curve
            e = tuple(rng.randint(0, 3) for _ in lams)
            twins = monomials_of_qdeg(lams, sum(a * w for a, w in zip(e, lams)))
            if len(twins) > 1 and rng.random() < 0.5:
                pad = (0,) * (m - len(lams))
                c = Fraction(rng.randint(1, 3))
                terms[twins[0] + pad] = c
                terms[twins[-1] + pad] = -c
                cancelled += 1
            off_curve += any(any(exps[len(lams):]) for exps in terms)
            polys.append(Polynomial(m, terms))
        want = [terms_of(substitute(poly, curve_images(curve))) for poly in polys]
        assert curve.series(polys) == want, lams
    assert off_curve > 50 and cancelled > 50


def test_monomials_of_qdeg():
    mono = monomials_of_qdeg((4, 5, 6, 7), 10)
    assert set(mono) == {(0, 2, 0, 0), (1, 0, 1, 0)}
    assert monomials_of_qdeg((4, 5, 6, 7), 1) == ()
    assert monomials_of_qdeg((4, 5, 6, 7), 0) == ((0, 0, 0, 0),)


@pytest.mark.parametrize(
    "wvec", [(), (1,), (3,), (2, 3), (4, 7), (5, 2), (1, 1), (4, 5, 6), (2, 2, 5), (3, 1, 4, 2)]
)
def test_monomials_of_qdeg_equals_the_brute_force_enumeration(wvec):
    """Every exponent tuple of weighted degree d, from all tuples with
    entries up to d, in graded-lex descending order; the empty weight
    vector has the one empty tuple in degree 0."""
    for d in range(-2, 26):
        box = itertools.product(*(range(max(d, 0) // w + 1) for w in wvec))
        found = [e for e in box if sum(x * w for x, w in zip(e, wvec)) == d]
        found.sort(key=lambda exps: (sum(exps), exps), reverse=True)
        assert monomials_of_qdeg(wvec, d) == tuple(found), (wvec, d)


def test_basis_labels_and_degrees():
    for lams in ALL:
        basis = cached_basis(MonomialCurve(lams))
        assert basis.labels == BASIS_LABELS[lams]
        assert tuple(el.qdeg for el in basis.elements) == BASIS_QDEGS[lams]
        assert basis.dim == len(BASIS_LABELS[lams])


def test_full_quotient_tail(curve4567, curve456, curve457):
    for curve in (curve4567, curve456, curve457):
        basis = cached_basis(curve)
        last_nonzero = max(d for d, piece in basis.pieces.items() if piece.dim > 0)
        assert last_nonzero == LAST_NONZERO_QDEG[curve.lams]


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
    values = [terms_of(substitute(Polynomial.monomial(m), curve_images(curve))) for m in mons]
    powers = sorted({e for v in values for e in v})
    rows = [[v.get(e, Fraction(0)) for v in values] for e in powers]
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
            assert reference_sparse_echelon(closed) == reference_sparse_echelon(kernel)


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
        quotient_coords(piece3, piece3.vectorize(ext_der(piece2.rep_form(j))))
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
            assert element_vectors(basis, d) == closed_vectors_by_kernel(curve, d), (curve, d)


def test_each_owners_exact_rows_lie_in_the_span_of_the_others():
    # RestrictionBasis leaves owner 0's rows out of its elimination; the
    # identity in its docstring lets any one owner go without changing the
    # span, which the reduced echelon form pins down.
    for curve in KERNEL_REFERENCE_CURVES:
        basis = cached_basis(curve)
        for d, (owners, rows) in basis.exact.items():
            width = restriction_quotient(curve, 2, d).dim
            rows = [dense(row, width) for row in rows]
            full = rref(rows, width)
            for owner in set(owners):
                kept = [row for i, row in zip(owners, rows) if i != owner]
                assert rref(kept, width) == full, (curve, d, owner)


def test_exact_rows_are_multiples_of_their_quotient_coordinates():
    """``exact[d]`` keeps one integer row per owner i with d - lam_i in the
    semigroup, in owner order, and d(x^m dx_i) of every curve-only x^m of
    that degree, through the generic path, has quotient coordinates that
    are a multiple of it: nonzero multiples, all vanishing exactly when the
    row is empty."""
    for curve in KERNEL_REFERENCE_CURVES[:6]:
        basis = cached_basis(curve)
        pad = (0,) * (curve.ambient - len(curve.lams))
        for d, (owners, rows) in basis.exact.items():
            piece = basis.pieces[d]
            assert owners == tuple(
                i for i, lam in enumerate(curve.lams) if curve.in_semigroup(d - lam)
            ), (curve, d)
            assert len(rows) == len(owners), (curve, d)
            for i, row in zip(owners, rows):
                assert all(type(v) is int and v for v in row.values()), (curve, d)
                for m in monomials_of_qdeg(curve.lams, d - curve.lams[i]):
                    x_m = Polynomial.monomial(m + pad)
                    form = ext_der(DifferentialForm.from_term(curve.ambient, (i,), x_m))
                    coords = quotient_coords(piece, piece.vectorize(form))
                    assert bool(row) == any(coords), (curve, d, i, m)
                    if row:
                        ratio = next(Fraction(coords[j], v) for j, v in row.items())
                        assert ratio and coords == dense(row, piece.dim, 1 / ratio), (curve, d, i)


def test_signed_row_orients_each_pair_and_drops_the_rest(curve4567):
    piece = restriction_quotient(curve4567, 2, 15)
    col = piece.column_of
    assert piece.columns == ((0, 1), (0, 2), (0, 3), (1, 2)) and col[1, 2] == 3
    # e_k ^ e_j = -e_j ^ e_k, summed over repeated pairs
    assert piece.signed_row([(0, (2,), 3), (2, (0,), 5), (1, (2,), -4)]) == {1: -2, 3: -4}
    # e_j ^ e_j = 0, and a zero term's pair (1, 3) need not be a column
    assert piece.signed_row([(2, (2,), 7), (1, (3,), 0), (3, (1,), 0)]) == {}
    with pytest.raises(KeyError):
        piece.signed_row([(1, (3,), 1)])
    # terms that cancel leave no key
    assert piece.signed_row([(0, (1,), 2), (1, (0,), 2), (0, (3,), 1)]) == {2: 1}
    assert piece.signed_row(iter([(3, (0,), 6)])) == {2: -6}
    # a 3-form piece: e_i ^ e_K inserts i at each position of K with
    # sign (-1)^#{j in K : j < i}; (1, 2, 3) is no column in degree 21
    piece3 = restriction_quotient(curve4567, 3, 21)
    assert piece3.columns == ((0, 1, 2), (0, 1, 3), (0, 2, 3))
    assert piece3.signed_row([(0, (1, 2), 2), (1, (0, 3), 5), (3, (0, 2), 7)]) == {
        0: 2, 1: -5, 2: 7
    }
    assert piece3.signed_row([(1, (1, 2), 4), (2, (0, 2), -1), (3, (1, 2), 0)]) == {}
    with pytest.raises(KeyError):
        piece3.signed_row([(3, (1, 2), 1)])
    assert piece3.signed_row([(0, (1, 2), 3), (1, (0, 2), 3), (2, (0, 3), 1)]) == {2: -1}


def test_graded_piece_checks_k_and_d_like_restriction_quotient(curve4567):
    for k, d, message in ((-1, 5, "form degree must be nonnegative"),
                          (2, -1, "quasi-degree must be nonnegative")):
        with pytest.raises(InputError, match=message):
            GradedPiece(curve4567, k, d)
        with pytest.raises(InputError, match=message):
            restriction_quotient(curve4567, k, d)


def test_basis_representatives_are_closed(curve4567, curve456, curve457):
    for curve in (curve4567, curve456, curve457):
        basis = cached_basis(curve)
        for el in basis.elements:
            der = ext_der(el.rep)
            piece = restriction_quotient(curve, 3, el.qdeg)
            assert all(c == 0 for c in quotient_coords(piece, piece.vectorize(der)))


def test_basis_text_is_the_representative_form_printed():
    """``BasisElement.text`` prints the term map of the representative
    through ``poly.form_str``, the printer of ``DifferentialForm.__str__``:
    on every semigroup of genus at most 6, at its ambient and padded by
    one, the two agree, multi-term and fractional representatives
    included."""
    curves = [
        MonomialCurve(lams, len(lams) + pad)
        for genus in range(7)
        for lams in (s.generators() for s in semigroups.by_genus(genus))
        for pad in (0, 1)
    ] + [MonomialCurve((3, 7, 8)), MonomialCurve((4, 5, 6), ambient=5)]
    elements = [el for curve in curves for el in RestrictionBasis(curve).elements]
    texts = [el.text for el in elements]
    assert texts == [str(el.rep) for el in elements]
    assert "(x2)*dx1^dx3 + (x1)*dx2^dx3" in texts
    assert "(x1*x3)*dx1^dx2 + (-1/2*x1^2)*dx2^dx3" in texts


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


def solve_in_closed(basis, d, coords2):
    """The closed-basis coefficients of quotient coordinates at degree d, by
    global element index: ``zproject`` of the row on the representative
    columns, which the relations leave as it is."""
    rep_cols = basis.pieces[d].rep_cols
    den, row = zdenominated({rep_cols[j]: c for j, c in enumerate(coords2) if c})
    scale, coeffs = basis.zproject(d, row)
    assert scale == 1
    return {k: Fraction(x, den) for k, x in coeffs.items()}


def test_solve_in_closed_reads_coefficients_and_rejects_non_closed(basis4567):
    F = Fraction
    # qdeg 11 has two closed classes: a11+ = (0, 1) and a11- = (1, 0)
    i_plus, i_minus = basis4567.label_index["a11+"], basis4567.label_index["a11-"]
    assert solve_in_closed(basis4567, 11, [F(-3), F(2, 5)]) == {i_plus: F(2, 5), i_minus: F(-3)}
    assert solve_in_closed(basis4567, 15, [F(7), F(0)]) == {basis4567.label_index["a15"]: F(7)}
    assert solve_in_closed(basis4567, 15, [F(0), F(0)]) == {}
    # qdeg 15: a two-dimensional piece with one closed class
    with pytest.raises(NotClosedError, match="lies outside the closed subspace"):
        solve_in_closed(basis4567, 15, [F(1), F(1)])
    # qdeg 16: a one-dimensional piece with no closed class
    with pytest.raises(NotClosedError, match="is not closed"):
        solve_in_closed(basis4567, 16, [F(1)])
    assert solve_in_closed(basis4567, 16, [F(0)]) == {}


def _dense_echelon(pivot_rows, width):
    """Dense reduced echelon rows of ``zechelon`` rows, each divided by its
    pivot entry."""
    pivots = sorted(pivot_rows)
    rows = [
        [Fraction(pivot_rows[p].get(c, 0), pivot_rows[p][p]) for c in range(width)]
        for p in pivots
    ]
    return RrefResult(rows, pivots)


def _reference_solve_in_closed(basis, d, coords2):
    """Closed-basis coefficients by dense ``reduce_by`` against the labelled
    vectors, each read at its first nonzero entry; None when not closed."""
    entries = basis.by_degree.get(d, [])
    vectors = element_vectors(basis, d)
    pivots = [next(c for c, v in enumerate(vec) if v) for vec in vectors]
    if any(reduce_by(RrefResult(vectors, pivots), coords2)):
        return None
    return {k: coords2[p] for (k, _), p in zip(entries, pivots) if coords2[p]}


@pytest.mark.parametrize(
    "lams, ambient",
    [((4, 5, 6, 7), 0), ((3, 7, 8), 0), ((5, 6, 7, 8, 9), 0), ((4, 5, 6), 6)],
    ids=str,
)
def test_sparse_remainders_equal_dense_reduce_by(lams, ambient):
    """Piece coordinates and closed-basis solves read off sparse pivot rows
    equal the dense ``reduce_by`` on seeded random vectors, closed or not."""
    rng = random.Random(f"sparse-remainders-{lams}-{ambient}")
    values = [Fraction(0)] * 4 + [Fraction(n, q) for n in (-3, -1, 1, 2) for q in (1, 2, 5)]
    curve = MonomialCurve(lams, ambient)
    basis = cached_basis(curve)
    for k in (1, 2, 3):
        for d in range(basis.stop_qdeg + lams[-1]):
            piece = restriction_quotient(curve, k, d)
            dense = _dense_echelon(piece.relations, len(piece.columns))
            for _ in range(3):
                vec = [rng.choice(values) for _ in piece.columns]
                work = reduce_by(dense, vec)
                assert zquotient_coords(piece, vec) == [work[c] for c in piece.rep_cols], (k, d)
    closed_seen = not_closed_seen = 0
    for d, piece2 in basis.pieces.items():
        vectors = element_vectors(basis, d)
        for trial in range(4):
            if trial % 2 and vectors:
                coeffs = [rng.choice(values) for _ in vectors]
                coords2 = [sum(c * v[i] for c, v in zip(coeffs, vectors)) for i in range(piece2.dim)]
            else:
                coords2 = [rng.choice(values) for _ in range(piece2.dim)]
            want = _reference_solve_in_closed(basis, d, coords2)
            if want is None:
                not_closed_seen += 1
                with pytest.raises(NotClosedError):
                    solve_in_closed(basis, d, coords2)
            else:
                closed_seen += 1
                assert solve_in_closed(basis, d, coords2) == want, (d, coords2)
    assert closed_seen and not_closed_seen
    # a row on every column: zproject reduces it by the relations first
    for d, piece2 in basis.pieces.items():
        dense = _dense_echelon(piece2.relations, len(piece2.columns))
        for _ in range(3):
            vec = [rng.choice(values) for _ in piece2.columns]
            work = reduce_by(dense, vec)
            want = _reference_solve_in_closed(basis, d, [work[c] for c in piece2.rep_cols])
            den, row = zdenominated({c: v for c, v in enumerate(vec) if v})
            if want is None:
                with pytest.raises(NotClosedError):
                    basis.zproject(d, row)
            else:
                scale, coeffs = basis.zproject(d, row)
                assert {k: Fraction(x, den * scale) for k, x in coeffs.items()} == want, d


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


def test_restriction_coordinates_become_fractions(basis4567):
    dim = basis4567.dim
    fractions = tuple(Fraction(i, 2) for i in range(dim))
    assert AlgRestriction(basis4567, fractions).coords == fractions
    mixed = AlgRestriction(basis4567, [i for i in range(dim - 1)] + [Fraction(1, 3)])
    assert set(map(type, mixed.coords)) == {Fraction}
    assert mixed.coords == tuple(Fraction(i) for i in range(dim - 1)) + (Fraction(1, 3),)
    assert set(map(type, AlgRestriction(basis4567, iter(range(dim))).coords)) == {Fraction}
    with pytest.raises(InputError):
        AlgRestriction(basis4567, fractions[1:])
    # mixes of int and Fraction give the canonical class: nonzero Fractions
    # under ascending keys, equal to from_coeffs's, hash included
    rng = random.Random(45)
    values = [0, 0, 1, -2, Fraction(0), Fraction(3), Fraction(-1, 2)]
    for _ in range(200):
        coords = [rng.choice(values) for _ in range(dim)]
        a = AlgRestriction(basis4567, coords)
        assert a.entries == {j: Fraction(c) for j, c in enumerate(coords) if c}
        assert list(a.entries) == sorted(a.entries)
        assert all(type(c) is Fraction for c in a.entries.values())
        b = AlgRestriction.from_coeffs(basis4567, dict(zip(basis4567.labels, coords)))
        assert a == b and hash(a) == hash(b)


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
    big = MonomialCurve(curve456.lams, 5)
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
    red = reference_sparse_echelon(gens)
    pivots = tuple(sorted(red))
    return ReferencePiece(
        curve=curve,
        columns=tuple(columns),
        zrows=tuple(tuple(red[p].get(c, Fraction(0)) for c in range(len(columns))) for p in pivots),
        zpivots=pivots,
        rep_cols=tuple(c for c in range(len(columns)) if c not in red),
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
                    got = zquotient_coords(piece, piece.vectorize(term))
                    assert got == ref.quotient_coords(unit), (where, idx, exps)


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
    with pytest.raises(InputError, match="^form variable count does not match the curve$"):
        piece.vectorize(parse_form("dx2^dx3", 4))
    with pytest.raises(InputError, match="^expected a 2-form$"):
        piece.vectorize(parse_form("x1*dx2", 5))
    basis = cached_basis(curve)
    with pytest.raises(InputError, match="^form has 4 variables, curve ambient dimension is 5$"):
        project(curve, parse_form("dx2^dx3", 4), basis)
    with pytest.raises(InputError, match="^only 2-forms can be projected to this basis$"):
        project(curve, parse_form("x1*dx2", 5), basis)
    assert piece.vectorize(parse_form("dx2^dx3 + dx1^dx4", 5)) == piece.vectorize(
        parse_form("dx2^dx3", 5)
    )
    piece = restriction_quotient(curve, 2, 16)
    assert not any(piece.vectorize(parse_form("x4*dx1^dx2 + x5*dx1^dx2", 5)))
    assert any(piece.vectorize(parse_form("x3*dx1^dx3 + x4*dx1^dx2", 5)))


def test_restriction_classes_take_rational_scalars_only(basis456):
    """Floats raise instead of entering as binary fractions, as for
    ``Polynomial`` and ``DifferentialForm``."""
    with pytest.raises(TypeError, match="rational scalar"):
        AlgRestriction.from_coeffs(basis456, {"a9": 0.1})
    with pytest.raises(TypeError, match="rational scalar"):
        AlgRestriction(basis456, [0.1] + [0] * (basis456.dim - 1))
    a = AlgRestriction.from_coeffs(basis456, {"a9": 1})
    assert a.__mul__(0.1) is NotImplemented
    with pytest.raises(TypeError):
        a * 0.1
    with pytest.raises(TypeError):
        0.1 * a
    tenth = AlgRestriction.from_coeffs(basis456, {"a9": Fraction(1, 10)})
    assert a * Fraction(1, 10) == tenth and Fraction(1, 10) * a == tenth
    assert 2 * a == a + a == AlgRestriction(basis456, [2] + [0] * (basis456.dim - 1))


def test_from_coeffs_equals_the_validating_constructor(basis4567):
    """``from_coeffs`` builds in one pass what the validating constructor
    builds from the dense coordinates: int values become ``Fraction``,
    ``Fraction`` values are kept, zero values and the key order of the
    mapping leave no trace, and an unknown label raises the constructor's
    lookup error after a non-rational value raises its ``TypeError``."""
    labels = basis4567.labels
    rng = random.Random(34)
    values = [0, 0, 1, -2, 5, Fraction(0), Fraction(3, 2), Fraction(-1, 3), Fraction(4)]
    for _ in range(200):
        chosen = rng.sample(labels, rng.randint(0, 5))
        coeffs = {label: rng.choice(values) for label in chosen}
        dense = [coeffs.get(label, 0) for label in labels]
        built = AlgRestriction.from_coeffs(basis4567, coeffs)
        want = AlgRestriction(basis4567, dense)
        assert built == want and list(built.entries.items()) == list(want.entries.items())
        assert all(type(c) is Fraction and c for c in built.entries.values())
    with pytest.raises(InputError, match="unknown basis label 'a8'"):
        AlgRestriction.from_coeffs(basis4567, {"a9": 1, "a8": 0})
    with pytest.raises(TypeError, match="rational scalar"):
        AlgRestriction.from_coeffs(basis4567, {"a8": 0.5})
