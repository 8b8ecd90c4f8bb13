import itertools
import math
import random
from fractions import Fraction

import pytest

from algrest.curves import (
    AlgRestriction,
    MonomialCurve,
    cached_basis,
    monomials_of_qdeg,
    restriction_quotient,
)
from algrest.errors import InputError
from algrest.forms import DifferentialForm, ext_der
from algrest.invariants import (
    _monomial_columns,
    _part_quotient_coords,
    _quotient_matrix,
    index_of_isotropy,
    invariant_report,
    lagrangian_tangency_order,
    pmqd_compare,
    representable_by_symplectic,
    symplectic_multiplicity,
    tangency_order,
)
from algrest.linalg import in_span, solve_linear
from algrest.parser import parse_polynomial, parse_restriction
from algrest.poly import Polynomial, UniPoly

from test_curves import reference_quotient


def test_multiplicity_is_orbit_codimension(curve4567, basis4567):
    a = parse_restriction("a9 + 2*a11- + 3*a13+", basis4567)
    assert symplectic_multiplicity(curve4567, a) == 2
    assert symplectic_multiplicity(curve4567, parse_restriction("a13-", basis4567)) == 6
    assert symplectic_multiplicity(curve4567, AlgRestriction.zero(basis4567)) == 9


def test_index_of_isotropy_spot_values(curve4567, basis4567, curve456, basis456):
    assert index_of_isotropy(curve4567, parse_restriction("a9 + 2*a11- + 3*a13+", basis4567)) == 0
    assert index_of_isotropy(curve4567, parse_restriction("a13-", basis4567)) == 1
    assert index_of_isotropy(curve4567, AlgRestriction.zero(basis4567)) == math.inf
    assert index_of_isotropy(curve456, parse_restriction("a19", basis456)) == 2
    assert index_of_isotropy(curve456, parse_restriction("a17 + 5*a19", basis456)) == 2


def test_lagrangian_tangency_order_spot_values(curve4567, basis4567, curve456, basis456):
    # iota = 0 classes are not handled by the graded computation
    assert lagrangian_tangency_order(curve4567, parse_restriction("a9", basis4567)) is None
    assert lagrangian_tangency_order(curve4567, parse_restriction("a13-", basis4567)) == 9
    assert (
        lagrangian_tangency_order(curve4567, AlgRestriction.zero(basis4567)) == math.inf
    )
    assert lagrangian_tangency_order(curve456, parse_restriction("a19", basis456)) == 15


def test_invariant_report_457(curve457, basis457):
    report = invariant_report(curve457, parse_restriction("a18", basis457))
    assert (report.mu, report.iota, report.lt, report.min_qdeg) == (8, 2, 14, 18)
    report = invariant_report(curve457, parse_restriction("a17 + 2*a18", basis457))
    assert (report.mu, report.iota, report.lt, report.min_qdeg) == (8, 2, 13, 17)


def test_invariant_report_matches_parts(curve4567, basis4567):
    a = parse_restriction("a9 + 2*a11- + 3*a13+", basis4567)
    report = invariant_report(curve4567, a)
    assert report.mu == symplectic_multiplicity(curve4567, a)
    assert report.iota == 0
    assert report.lt is None
    assert report.min_qdeg == 9


def test_tangency_order_monomial_curve(curve4567):
    constraints = [parse_polynomial("x1", 4), parse_polynomial("x2", 4)]
    assert tangency_order(curve4567, constraints) == 4


def test_tangency_order_deformed_components():
    components = [
        UniPoly.t_power(4),
        UniPoly.t_power(5) + UniPoly.t_power(7),
        UniPoly.t_power(6),
        UniPoly.t_power(7),
    ]
    constraints = [parse_polynomial("x4", 4), parse_polynomial("x2", 4)]
    assert tangency_order(components, constraints) == 5


def test_tangency_order_edge_cases(curve4567):
    # a constraint vanishing identically on the curve contributes inf
    g = parse_polynomial("x2*x3 - x1*x4", 4)
    assert tangency_order(curve4567, [g]) == math.inf
    with pytest.raises(InputError):
        tangency_order(curve4567, [parse_polynomial("x1", 3)])


def test_pmqd_compare_kinds(basis4567):
    zero = AlgRestriction.zero(basis4567)
    a9 = parse_restriction("a9", basis4567)
    assert pmqd_compare(zero, zero).kind == "both-zero"
    verdict = pmqd_compare(zero, a9)
    assert verdict.kind == "one-zero"
    assert verdict.qdegs == (None, 9)
    verdict = pmqd_compare(a9 * 2, a9)
    assert verdict.kind == "proportional"
    assert verdict.constant == Fraction(1, 2)
    assert verdict.qdegs == (9, 9)
    verdict = pmqd_compare(
        parse_restriction("a11+", basis4567), parse_restriction("a11-", basis4567)
    )
    assert verdict.kind == "not-proportional"
    assert str(pmqd_compare(a9 * 2, a9)) == "proportional with constant 1/2"


def test_pmqd_compare_degree_mismatch(basis4567):
    verdict = pmqd_compare(
        parse_restriction("a9 + a12", basis4567), parse_restriction("a12", basis4567)
    )
    assert verdict.kind == "not-proportional"
    assert verdict.qdegs == (9, 12)


def test_representability_thresholds(curve4567, basis4567):
    a = parse_restriction("a13-", basis4567)
    # threshold 6: a13- has no constant part, so its rank is 0
    assert not representable_by_symplectic(curve4567, a, 1)
    with pytest.raises(InputError, match="needs n >= 1"):
        representable_by_symplectic(curve4567, a, 0)
    assert not representable_by_symplectic(curve4567, a, 3)
    assert representable_by_symplectic(curve4567, a, 4)
    # n >= s makes the threshold nonpositive for any class
    assert representable_by_symplectic(curve4567, AlgRestriction.zero(basis4567), 4)
    # a plane curve on R^2: the threshold 2s - 2n = 2 asks for a nonzero
    # constant part, which a7 = [dx1^dx2] has and a10 does not
    plane = cached_basis(MonomialCurve((3, 4)))
    assert representable_by_symplectic(plane.curve, parse_restriction("a7", plane), 1)
    assert not representable_by_symplectic(plane.curve, parse_restriction("a10", plane), 1)


def test_representability_answers_thresholds_above_four():
    # threshold 2*5 - 2*2 = 6: a11 = [dx1^dx2] has constant rank 2
    basis = cached_basis(MonomialCurve((5, 6, 7, 8, 9)))
    assert not representable_by_symplectic(basis.curve, parse_restriction("a11", basis), 2)
    # threshold 2*6 - 2*3 = 6: the projection of dx1^dx2 + dx3^dx4 + dx5^dx6
    # is realized by that form itself
    basis = cached_basis(MonomialCurve((6, 7, 8, 9, 10, 11)))
    a = parse_restriction("a13 + a17.1 + a21+", basis)
    assert representable_by_symplectic(basis.curve, a, 3)
    assert not representable_by_symplectic(basis.curve, a, 2)


def reduced_unit_vectors(piece):
    """The quotient map of a reference piece, one row per representative
    column, from the quotient coordinates of each column's unit vector."""
    ncols = len(piece.columns)
    columns = [
        piece.quotient_coords([Fraction(int(k == j)) for k in range(ncols)])
        for j in range(ncols)
    ]
    return [[col[rho] for col in columns] for rho in range(piece.dim)]


def reference_vanishing_order_bound(curve, d, part_coords):
    """Reference q-scan over the reference piece: quotient rows from reduced
    unit vectors, and one augmented solve per candidate order q."""
    piece = reference_quotient(curve, 2, d)
    ncols = len(piece.columns)
    quotient_rows = reduced_unit_vectors(piece)
    piece3 = reference_quotient(curve, 3, d)
    der_rows = [[Fraction(0)] * ncols for _ in piece3.columns]
    for j, (idx, exps) in enumerate(piece.columns):
        dcol = ext_der(
            DifferentialForm.from_term(piece.curve.ambient, idx, Polynomial.monomial(exps))
        )
        for didx, poly in dcol.coeffs.items():
            for dexps, coeff in poly:
                der_rows[piece3.index[(didx, dexps)]][j] = coeff
    degrees = [sum(exps) for _, exps in piece.columns]

    def feasible(q):
        rows = [row[:] for row in quotient_rows + der_rows]
        rhs = list(part_coords) + [Fraction(0)] * len(der_rows)
        for j, deg in enumerate(degrees):
            if deg < q:
                rows.append([Fraction(int(k == j)) for k in range(ncols)])
                rhs.append(Fraction(0))
        return solve_linear(rows, rhs) is not None

    assert feasible(0)
    best = 0
    for q in range(1, max(degrees, default=0) + 2):
        if not feasible(q):
            break
        best = q
    return best


def reference_iota(curve, a):
    return min(
        reference_vanishing_order_bound(curve, d, _part_quotient_coords(a, d))
        for d in a.nonzero_qdegs()
    )


def _lagrangian_span_vectors(curve, d, i):
    """Quotient coordinates of [d(m dx_i)] for qdeg(m) = d - lam_i."""
    piece = restriction_quotient(curve, 2, d)
    pad = (0,) * (curve.ambient - len(curve.lams))
    vectors = []
    for exps in monomials_of_qdeg(curve.lams, d - curve.lams[i]):
        one_form = DifferentialForm.from_term(
            curve.ambient, (i,), Polynomial.monomial(exps + pad)
        )
        vectors.append(list(piece.quotient_coords(piece.vectorize(ext_der(one_form)))))
    return vectors


def reference_graded_lt(curve, a):
    """min over parts of d - lam_j, by one span test per coordinate j."""
    lt = math.inf
    for d in a.nonzero_qdegs():
        coords = _part_quotient_coords(a, d)
        for j in range(1, len(curve.lams) + 1):
            vectors = [v for i in range(j) for v in _lagrangian_span_vectors(curve, d, i)]
            if in_span(vectors, coords):
                lt = min(lt, d - curve.lams[j - 1])
                break
    return lt


EQUIVALENCE_CURVES = (
    MonomialCurve((4, 5, 6, 7)),
    MonomialCurve((4, 5, 6)),
    MonomialCurve((4, 5, 7)),
    MonomialCurve((5, 6, 7, 8, 9)),
    MonomialCurve((3, 7, 8)),
    MonomialCurve((2, 3)),
    MonomialCurve((3, 5, 7)),
    MonomialCurve((4, 5, 6), ambient=5),
    MonomialCurve((4, 5, 7), ambient=5),
)


def equivalence_classes(basis, rng):
    """Every one-label class, every two-label class with coefficients 1 and
    -2/3, and 60 random classes."""
    labels = basis.labels
    for label in labels:
        yield AlgRestriction.from_coeffs(basis, {label: 1})
    for first, second in itertools.combinations(labels, 2):
        yield AlgRestriction.from_coeffs(basis, {first: 1, second: Fraction(-2, 3)})
    values = [Fraction(n, q) for n in (-3, -1, 1, 2, 5) for q in (1, 2, 7)]
    for _ in range(60):
        chosen = rng.sample(labels, rng.randint(1, min(4, len(labels))))
        yield AlgRestriction.from_coeffs(basis, {lab: rng.choice(values) for lab in chosen})


def test_single_solve_invariants_match_the_reference_scans():
    rng = random.Random(20161)
    checked = 0
    for curve in EQUIVALENCE_CURVES:
        basis = cached_basis(curve)
        for a in equivalence_classes(basis, rng):
            iota = index_of_isotropy(curve, a)
            assert iota == reference_iota(curve, a), (curve, str(a))
            graded_lt = reference_graded_lt(curve, a)
            want_lt = None if iota == 0 else graded_lt
            assert lagrangian_tangency_order(curve, a, iota=iota) == want_lt, (curve, str(a))
            # a nonzero iota forces the graded order, so iota-0 classes check it too
            assert lagrangian_tangency_order(curve, a, iota=1) == graded_lt, (curve, str(a))
            checked += 1
    assert checked > 900


def test_quotient_matrix_equals_the_reduced_unit_vectors():
    for curve in EQUIVALENCE_CURVES:
        for d in {el.qdeg for el in cached_basis(curve).elements}:
            reference = reference_quotient(curve, 2, d)
            columns = _monomial_columns(curve, d)
            assert columns == list(reference.columns), (curve, d)
            piece = restriction_quotient(curve, 2, d)
            assert _quotient_matrix(piece, columns) == reduced_unit_vectors(reference), (
                curve,
                d,
            )


def _pfaffian_principal(block, rows):
    """Pfaffian of a principal 2x2 or 4x4 antisymmetric polynomial block."""
    if len(rows) == 2:
        i, j = rows
        return block[i][j]
    i, j, k, l = rows
    return block[i][j] * block[k][l] - block[i][k] * block[j][l] + block[i][l] * block[j][k]


def reference_representable(curve, a, n):
    """Reference generic-rank test for thresholds up to 4: the constant block
    of a.rep_form(), plus one parameter per reference zero row with a
    constant branch entry, ranked by principal Pfaffians of sizes 2 and 4."""
    s = len(curve.lams)
    threshold = 2 * s - 2 * n
    assert threshold <= 4
    if threshold <= 0:
        return True
    rep = a.rep_form()
    pairs = list(itertools.combinations(range(s), 2))
    constant = [[Fraction(0)] * s for _ in range(s)]
    for i, j in pairs:
        c = rep.coefficient((i, j)).constant_term()
        constant[i][j], constant[j][i] = c, -c
    zero_exps = (0,) * curve.ambient
    adjustments = []
    for d in sorted({curve.lams[i] + curve.lams[j] for i, j in pairs}):
        piece = reference_quotient(curve, 2, d)
        for zrow in piece.zrows:
            adj = [[Fraction(0)] * s for _ in range(s)]
            for p, q in pairs:
                pos = piece.index.get(((p, q), zero_exps))
                if pos is not None and zrow[pos]:
                    adj[p][q], adj[q][p] = zrow[pos], -zrow[pos]
            if any(any(row) for row in adj):
                adjustments.append(adj)
    nparams = len(adjustments)
    block = [[Polynomial.constant(nparams, constant[i][j]) for j in range(s)] for i in range(s)]
    for k, adj in enumerate(adjustments):
        unit = tuple(int(v == k) for v in range(nparams))
        for i in range(s):
            for j in range(s):
                if adj[i][j]:
                    block[i][j] = block[i][j] + Polynomial.monomial(unit, adj[i][j])
    generic_rank = 0
    for size in (2, 4):
        if size > s or not any(
            not _pfaffian_principal(block, rows).is_zero()
            for rows in itertools.combinations(range(s), size)
        ):
            break
        generic_rank = size
    return generic_rank >= threshold


def test_representability_matches_the_pfaffian_reference():
    rng = random.Random(20161)
    checked = 0
    for curve in EQUIVALENCE_CURVES:
        basis = cached_basis(curve)
        s = len(curve.lams)
        for a in equivalence_classes(basis, rng):
            for n in range(1, s + 1):
                if 2 * s - 2 * n <= 4:
                    want = reference_representable(curve, a, n)
                    assert representable_by_symplectic(curve, a, n) == want, (curve, str(a), n)
            checked += 1
    assert checked > 900

