"""Per-class queries against the per-class code they replaced.

The engine answers iota and Lt from prefix solvers kept on the basis, the
branch rank in closed form on the basis's integer element rows, the tangent
shifts from the basis's shift list, tangent membership of a unit direction
from its pivot row and of any other direction from a remainder in Z, the
Moser system from the tangent vectors alone, solved on sparse rows, and
pole counts from Sturm chains over Z[t].  The references below redo each
query anew for every class: one augmented solve per graded part, a dense
``Fraction`` block read off every representative, the admissible shifts
up to the class's own bound, a dense remainder modulo one dense echelon
per class, one ``shift_action`` per shift for the kill target, the dense
Bareiss solve, and Sturm chains of ``Fraction`` remainders.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import algrest.invariants as invariants_module
from algrest.curves import (
    AlgRestriction,
    MonomialCurve,
    RestrictionBasis,
    cached_basis,
    monomials_of_qdeg,
)
from algrest.errors import InputError
from algrest.invariants import (
    _part_quotient_coords,
    branch_rank,
    index_of_isotropy,
    lagrangian_tangency_order,
    representable_by_symplectic,
)
from algrest.linalg import rref, solve_linear
from algrest.orbit import admissible_shifts, orbit_tangent_space
from algrest.symmetry import moser_reduce, shift_action

from fraction_path import dense, part_denominator, part_quotient_coords, quotient_coords
from test_linalg import rank, reduce_by, reference_poles_in_closed_unit_interval
from ztpoly import reference_bareiss


def reference_last_used_column(columns, coords):
    """Index of the last column that the greedy solution for ``coords``
    uses (0 when ``coords`` is zero), by one fresh augmented solve."""
    rows = [[col[r] for col in columns] for r in range(len(coords))]
    solution = solve_linear(rows, coords)
    if solution is None:
        raise InputError("quotient coordinates do not come from this graded component")
    return max((c for c, x in enumerate(solution) if x), default=0)


def reference_iota(curve, a):
    if a.is_zero():
        return math.inf
    lams = curve.lams
    best = math.inf
    for d in a.nonzero_qdegs():
        piece = a.basis.pieces[d]
        width = len(piece.columns)
        heights = [
            sum(monomials_of_qdeg(lams, d - lams[i] - lams[j])[0]) for i, j in piece.columns
        ]
        order = sorted(range(width), key=lambda c: -heights[c])
        images = [quotient_coords(piece, [int(k == c) for k in range(width)]) for c in order]
        last = reference_last_used_column(images, part_quotient_coords(a, d))
        best = min(best, heights[order[last]])
    return best


def reference_graded_lt(curve, a):
    """min over parts of d - lam_j, j the owner of the last exact row used;
    a nonzero multiple of a row is used where the row is."""
    if a.is_zero():
        return math.inf
    best = math.inf
    for d in a.nonzero_qdegs():
        owners, rows = a.basis.exact[d]
        vectors = [dense(row, a.basis.pieces[d].dim) for row in rows]
        j = owners[reference_last_used_column(vectors, part_quotient_coords(a, d))]
        best = min(best, d - curve.lams[j])
    return best


def assert_integer_parts(a):
    """Each part's integer row (``_part_quotient_coords``) is D times the
    ``Fraction`` reference, zero entries left out."""
    for d in a.nonzero_qdegs():
        row = _part_quotient_coords(a, d)
        assert all(type(v) is int and v for v in row.values()), (str(a), d)
        den = part_denominator(a, d)
        want = {j: den * x for j, x in enumerate(part_quotient_coords(a, d)) if x}
        assert row == want, (str(a), d)


def reference_branch_rank(curve, a):
    """Rank of the dense constant block, read off every representative."""
    s = curve.branch_dim
    block = [[Fraction(0)] * s for _ in range(s)]
    for el, coeff in zip(a.basis.elements, a.coords):
        if coeff:
            for (i, j), poly in el.rep.coeffs.items():
                value = coeff * poly.constant_term()
                block[i][j] += value
                block[j][i] -= value
    return rank(block, s)


def reference_echelon(tangent):
    """The dense echelon form of the tangent vectors, built once per class."""
    rows = [list(v.coords) for v in tangent.vectors if not v.is_zero()]
    return rref(rows, tangent.base.basis.dim)


def reference_contains(echelon, direction):
    """Dense remainder of ``direction`` modulo the dense echelon form."""
    return not any(reduce_by(echelon, direction.coords))


def reference_moser(curve, a, kill):
    """The live-row Moser system with the actions on kill computed afresh by
    ``shift_action``, solved by the dense Bareiss reference, and pole
    counts from the ``Fraction`` Sturm chain."""
    tangent = orbit_tangent_space(curve, a)
    shifts = tangent.shifts
    v = [vector.coords for vector in tangent.vectors]
    w = [shift_action(kill, s).coords for s in shifts]
    m = len(shifts)
    rows, rhs = [], []
    for column in zip(kill.coords, *v, *w):
        nonzero = [x for x in column if x]
        if not nonzero:
            continue
        scale = math.lcm(*[x.denominator for x in nonzero])
        ints = [x.numerator * (scale // x.denominator) for x in column]
        rows.append(
            [[p, -q] if q else [p] if p else [] for p, q in zip(ints[1 : m + 1], ints[m + 1 :])]
        )
        rhs.append([ints[0]] if ints[0] else [])
    solution = reference_bareiss(rows, rhs)
    if not solution.consistent:
        return False, {}, {}
    coefficients = dict(zip(shifts, solution.solution))
    poles = {s: reference_poles_in_closed_unit_interval(f) for s, f in coefficients.items()}
    return True, coefficients, poles


CURVES = (
    MonomialCurve((4, 5, 6, 7)),
    MonomialCurve((4, 5, 6)),
    MonomialCurve((4, 5, 7)),
    MonomialCurve((5, 6, 7, 8, 9)),
    MonomialCurve((3, 7, 8)),
    MonomialCurve((3, 4)),
    MonomialCurve((4, 5, 6), ambient=6),
)
CLASSES_PER_CURVE = 290
VALUES = tuple(Fraction(n, q) for n in (-5, -3, -2, -1, 1, 2, 4, 7) for q in (1, 2, 3, 5))


def random_classes(basis, rng, count):
    """The zero class, every one-label class, then random classes of 1 to 5
    labels with small rational coefficients."""
    labels = basis.labels
    yield AlgRestriction.zero(basis)
    for label in labels:
        yield AlgRestriction.from_coeffs(basis, {label: 1})
    for _ in range(count - 1 - len(labels)):
        chosen = rng.sample(labels, rng.randint(1, min(5, len(labels))))
        yield AlgRestriction.from_coeffs(basis, {label: rng.choice(VALUES) for label in chosen})


def test_class_queries_equal_the_per_class_references():
    rng = random.Random(17)
    draw = random.Random(19)
    checked = consistent = poles = zero_blocks = directions = inside = 0
    for curve in CURVES:
        basis = cached_basis(curve)
        units = [AlgRestriction.from_coeffs(basis, {label: 1}) for label in basis.labels]
        s = curve.branch_dim
        for a in random_classes(basis, rng, CLASSES_PER_CURVE):
            where = (curve, str(a))
            assert_integer_parts(a)
            iota = index_of_isotropy(curve, a)
            assert iota == reference_iota(curve, a), where
            graded_lt = reference_graded_lt(curve, a)
            assert lagrangian_tangency_order(curve, a, iota=1) == graded_lt, where
            assert lagrangian_tangency_order(curve, a) == (None if iota == 0 else graded_lt)
            rank_a = branch_rank(curve, a)
            assert rank_a == reference_branch_rank(curve, a), where
            zero_blocks += rank_a == 0 and not a.is_zero()
            for n in range(1, s + 1):
                want = 2 * s - 2 * n <= 0 or reference_branch_rank(curve, a) >= 2 * s - 2 * n
                assert representable_by_symplectic(curve, a, n) == want, (where, n)
            tangent = orbit_tangent_space(curve, a)
            if not a.is_zero():
                bound = basis.top_qdeg - a.nonzero_qdegs()[0]
                assert tangent.shifts == tuple(admissible_shifts(curve, bound)), where
            rows = [list(v.coords) for v in tangent.vectors if not v.is_zero()]
            assert tangent.dim == rank(rows, basis.dim), where
            echelon = reference_echelon(tangent)
            for unit in units:
                assert tangent.contains(unit) == reference_contains(echelon, unit), (where, unit)
            for _ in range(draw.randint(2, 3)):
                chosen = draw.sample(basis.labels, draw.randint(2, min(4, basis.dim)))
                direction = AlgRestriction.from_coeffs(
                    basis, {label: draw.choice(VALUES) for label in chosen}
                )
                want = reference_contains(echelon, direction)
                assert tangent.contains(direction) == want, (where, direction)
                directions += 1
                inside += want
            for d in a.nonzero_qdegs():
                kill = a.part(d)
                result = moser_reduce(curve, a, kill)
                want_consistent, want_coefficients, want_poles = reference_moser(curve, a, kill)
                assert result.consistent == want_consistent, (where, d)
                if want_consistent:
                    assert result.coefficients == want_coefficients, (where, d)
                    assert result.pole_counts == want_poles, (where, d)
                    assert result.feasible == (not any(want_poles.values())), (where, d)
                consistent += want_consistent
                poles += any(want_poles.values())
            checked += 1
    assert checked >= 2000
    # the draw reaches every branch of the comparisons
    assert consistent > 3000 and poles > 800 and zero_blocks > 400
    # the general ``contains`` path answers both ways
    assert inside > 500 and directions - inside > 500


def test_integer_parts_bring_unequal_element_denominators_to_one():
    """Two elements of one degree with different pivot entries D_k (1 and
    2 at degree 29 of (4,10,11,13), 4 and 2 at degree 31 of (6,8,9,10)):
    each part's integer row is still D times the reference, and iota and
    Lt equal the per-class references."""
    rng = random.Random(29)
    for lams, d in (((4, 10, 11, 13), 29), ((6, 8, 9, 10), 31)):
        curve = MonomialCurve(lams)
        basis = cached_basis(curve)
        assert len({den for _, (den, _) in basis.by_degree[d]}) > 1
        labels = [basis.labels[k] for k, _ in basis.by_degree[d]]
        for _ in range(20):
            a = AlgRestriction.from_coeffs(basis, {label: rng.choice(VALUES) for label in labels})
            assert_integer_parts(a)
            assert index_of_isotropy(curve, a) == reference_iota(curve, a), str(a)
            assert lagrangian_tangency_order(curve, a, iota=1) == reference_graded_lt(curve, a)


def test_one_class_computes_its_branch_rank_once(monkeypatch):
    """The realizability test asks one rank of the branch block per class,
    kept on the class, for every n; a new class starts without one."""
    curve = MonomialCurve((5, 6, 7, 8, 9))
    basis = cached_basis(curve)
    a = AlgRestriction.from_coeffs(basis, dict.fromkeys(basis.labels[:3], 1))
    calls = []
    original = invariants_module.zechelon

    def counting(rows):
        calls.append(1)
        return original(rows)

    monkeypatch.setattr(invariants_module, "zechelon", counting)
    s = curve.branch_dim
    ns = range(s - 2, s + 1)
    got = [representable_by_symplectic(curve, a, n) for n in ns]
    assert len(calls) == 1 and a.block_rank == reference_branch_rank(curve, a)
    assert got == [a.block_rank >= 2 * s - 2 * n for n in ns]
    assert branch_rank(curve, a) == a.block_rank and len(calls) == 1
    twin = AlgRestriction.from_coeffs(basis, dict.fromkeys(basis.labels[:3], 1))
    assert twin == a and twin.block_rank is None


def test_branch_rank_scales_each_element_to_the_common_denominator():
    """No semigroup of genus <= 9 has two elements with constant terms and
    different D, and every element of (4,5,6,7) has D = 1, so the L / D_k
    scaling runs on an equal rewriting: element k's vector (D, row) becomes
    ((k + 2) D, (k + 2) row) on a fresh basis, the same quotient
    coordinates with a different D per element.  The ranks stay the
    reference's, which reads the unscaled representatives, among them that
    of a9 + a10 + a12 + a13+ on (4,5,6,7), whose Pfaffian b01 b23 - b02 b13
    + b03 b12 vanishes: rank 2, not 4."""
    curve = MonomialCurve((4, 5, 6, 7))
    basis = RestrictionBasis(curve)
    scaled = []
    for k, el in enumerate(basis.elements):
        den, row = el.vector
        scaled.append(el._replace(vector=((k + 2) * den, {j: (k + 2) * n for j, n in row.items()})))
    basis.elements = tuple(scaled)
    flat = AlgRestriction.from_coeffs(basis, dict.fromkeys(("a9", "a10", "a12", "a13+"), 1))
    assert branch_rank(curve, flat) == reference_branch_rank(curve, flat) == 2
    for a in random_classes(basis, random.Random(23), 200):
        assert branch_rank(curve, a) == reference_branch_rank(curve, a), str(a)
