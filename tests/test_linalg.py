import copy
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import algrest.qt as qt_module
from algrest.linalg import (
    ParamSolution,
    PrefixSolver,
    RrefResult,
    in_span,
    kernel_basis,
    rref,
    solve_linear,
    solve_param_linear,
    sturm_count,
    zcleared,
    zdenominated,
    zechelon,
    zremainder,
)
from algrest.qt import RationalFunctionT, UniPoly, _reduced, _zdiv_exact, _zmul

from ztpoly import (
    QtScalar,
    dense_system,
    derivative,
    divmod_q,
    gcd_q,
    monic,
    poly_add,
    reference_bareiss,
    zt_system,
)

F = Fraction
ONE = UniPoly.constant(1)


def frows(data):
    return [[F(x) for x in row] for row in data]


def test_rref_pivots_and_rank():
    red = rref(frows([[2, 4], [1, 2], [0, 3]]))
    assert red.rank == 2
    assert red.pivots == [0, 1]
    assert red.rows[0][:2] == [F(1), F(0)] or red.rows[0][:2] == [F(1), F(2)]
    assert rank(frows([[1, 2], [2, 4]])) == 1
    assert rank([]) == 0


def test_rref_reduces_above_pivots():
    red = rref(frows([[1, 2, 3], [0, 1, 1]]))
    # reduced echelon form eliminates above the second pivot
    assert red.rows[0][1] == 0


def test_kernel_basis_spans_null_space():
    rows = frows([[1, 2, 3], [2, 4, 6]])
    kernel = kernel_basis(rows, 3)
    assert len(kernel) == 2
    for vec in kernel:
        assert sum(r * v for r, v in zip(rows[0], vec)) == 0


def test_solve_linear_and_inconsistency():
    rows = frows([[1, 1], [1, -1]])
    sol = solve_linear(rows, [F(3), F(1)])
    assert sol == [F(2), F(1)]
    assert solve_linear(frows([[1, 1], [1, 1]]), [F(0), F(1)]) is None
    # free variable pinned to zero
    sol = solve_linear(frows([[1, 1]]), [F(5)])
    assert sol == [F(5), F(0)]
    with pytest.raises(ValueError, match="rhs length does not match row count"):
        solve_linear(rows, [F(3)])


def test_in_span():
    vecs = frows([[1, 0, 1], [0, 1, 1]])
    assert in_span(vecs, [F(1), F(1), F(2)])
    assert not in_span(vecs, [F(0), F(0), F(1)])
    assert in_span([], [F(0), F(0)])
    assert not in_span([], [F(0), F(3)])


def test_rref_rejects_a_ragged_matrix():
    with pytest.raises(ValueError, match="ragged"):
        rref(frows([[1, 2], [3]]))
    with pytest.raises(ValueError, match="ragged"):
        rref(frows([[1, 2]]), 3)


# about half the entries are zero
entry_st = st.sampled_from([F(0)] * 9 + [F(n, q) for n in (-3, -1, 1, 2, 5) for q in (1, 3)])


@st.composite
def dense_matrices(draw):
    width = draw(st.integers(min_value=0, max_value=7))
    row_st = st.lists(entry_st, min_size=width, max_size=width)
    return width, draw(st.lists(row_st, max_size=7))


def sparse_rows(rows):
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


def dense_rref(rows, width=None):
    """Textbook dense Gauss-Jordan elimination: the reference for
    ``zechelon`` and ``rref``.  Its scalars only need field operations
    and truthiness, so it also runs over the reference ``QtScalar``."""
    mat = [list(r) for r in rows]
    if width is None:
        width = len(mat[0]) if mat else 0
    pivots = []
    row_at = 0
    for col in range(width):
        pivot_row = next((r for r in range(row_at, len(mat)) if mat[r][col]), None)
        if pivot_row is None:
            continue
        mat[row_at], mat[pivot_row] = mat[pivot_row], mat[row_at]
        inv = mat[row_at][col]
        mat[row_at] = [entry / inv for entry in mat[row_at]]
        for r in range(len(mat)):
            if r != row_at and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[row_at])]
        pivots.append(col)
        row_at += 1
        if row_at == len(mat):
            break
    return RrefResult(rows=mat[:row_at], pivots=pivots)


def reduce_by(red, vec):
    """Dense reference remainder of ``vec`` modulo the row space of a
    reduced echelon form (an ``RrefResult``).

    The remainder is zero on every pivot column.  Each row is zero at the
    other rows' pivots, so its coefficient is the entry of ``vec`` at its
    own pivot.
    """
    work = list(vec)
    for row, pivot in zip(red.rows, red.pivots):
        factor = vec[pivot]
        if factor:
            for c, b in enumerate(row):
                if b:
                    work[c] -= factor * b
    return work


def rank(rows, width=None):
    return rref(rows, width).rank


@given(matrix=dense_matrices())
@example(matrix=(0, []))
@example(matrix=(3, []))
@example(matrix=(3, frows([[0, 0, 0], [0, 0, 0]])))
@example(matrix=(3, frows([[2, 1, 0], [0, 3, 1], [1, 0, 5]])))
@example(matrix=(1, frows([[0], [3], [-2]])))
@example(matrix=(1, frows([[0]])))
def test_sparse_rref_equals_dense_rref(matrix):
    width, rows = matrix
    dense = dense_rref(rows, width)
    pivot_rows = fraction_echelon(sparse_rows(rows))
    assert sorted(pivot_rows) == dense.pivots
    assert [[pivot_rows[p].get(c, 0) for c in range(width)] for p in dense.pivots] == dense.rows
    assert all(0 not in row.values() for row in pivot_rows.values())
    spelled = rref(rows, width)
    assert (spelled.pivots, spelled.rows) == (dense.pivots, dense.rows)
    for row in rows:
        assert not sparse_remainder(pivot_rows, row)
        assert not any(reduce_by(dense, row))


def divided_by_pivots(echelon):
    """``zechelon`` pivot rows, each entry divided by the row's pivot entry:
    the reduced echelon rows over Q."""
    return {p: {c: F(v, row[p]) for c, v in row.items()} for p, row in echelon.items()}


def fraction_echelon(rows):
    """The reduced echelon form over Q of sparse rational rows, through
    ``zcleared`` and ``zechelon``."""
    return divided_by_pivots(zechelon(zcleared(row) for row in rows))


def reference_sparse_echelon(rows):
    """Sparse Gauss-Jordan elimination over ``Fraction``: the reference for
    the fraction-free ``zechelon``.  Pivot rows are kept fully reduced
    as rows arrive: an incoming row is cleared at every existing pivot
    column, its first remaining column becomes a new pivot, and that column
    is cleared from the earlier pivot rows."""

    def subtract_scaled(target, factor, source):
        for c, b in source.items():
            value = target.get(c, 0) - factor * b
            if value:
                target[c] = value
            else:
                del target[c]

    pivot_rows = {}
    for row in rows:
        vec = {c: v for c, v in row.items() if v}
        for p in [c for c in vec if c in pivot_rows]:
            subtract_scaled(vec, vec[p], pivot_rows[p])
        if not vec:
            continue
        col = min(vec)
        inv = vec[col]
        vec = {c: v / inv for c, v in vec.items()}
        for prow in pivot_rows.values():
            if col in prow:
                subtract_scaled(prow, prow[col], vec)
        pivot_rows[col] = vec
    return pivot_rows


def sparse_remainder(pivot_rows, vec):
    """Remainder over ``Fraction`` of the dense ``vec`` modulo the row space
    of reduced echelon rows with pivot entry 1, as a sparse row: the
    reference for ``zremainder``.  Each pivot row is zero at the other
    pivots, so its coefficient is the entry of ``vec`` at its own pivot."""
    work = {c: v for c, v in enumerate(vec) if v}
    for p in [c for c in work if c in pivot_rows]:
        factor = work[p]
        for c, b in pivot_rows[p].items():
            value = work.get(c, 0) - factor * b
            if value:
                work[c] = value
            else:
                del work[c]
    return work


# small values, zeros, and values with denominators and numerators far
# beyond a machine word
kernel_entry_st = st.sampled_from(
    [F(0)] * 6
    + [F(n, q) for n in (-3, -1, 1, 2, 5) for q in (1, 3, 7)]
    + [F(2**89 - 1, 3**50), F(-(5**40), 2**70 + 1), F(1, 10**30)]
)


@st.composite
def kernel_rows(draw):
    """Sparse rows in shuffled key order: random ones, zero ones, and
    combinations of earlier rows (dependent ones)."""
    width = draw(st.integers(min_value=0, max_value=8))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        kind = draw(st.sampled_from(["random", "random", "zero", "dependent"]))
        if kind == "dependent" and rows:
            picks = draw(st.lists(st.sampled_from(range(len(rows))), min_size=1, max_size=3))
            dense = [F(0)] * width
            for k in picks:
                coeff = draw(kernel_entry_st)
                for c, v in rows[k].items():
                    dense[c] += coeff * v
        elif kind == "zero":
            dense = [F(0)] * width
        else:
            dense = [draw(kernel_entry_st) for _ in range(width)]
        order = draw(st.permutations(range(width)))
        # zero entries are kept: both eliminations must skip them
        rows.append({c: dense[c] for c in order if dense[c] or draw(st.booleans())})
    return rows


@given(rows=kernel_rows())
@example(rows=[])
@example(rows=[{}, {0: F(0)}])
@example(rows=[{2: F(1, 3), 0: F(2)}, {0: F(4), 2: F(2, 3)}, {1: F(2**89 - 1, 3**50)}])
def test_fraction_free_echelon_equals_the_fraction_loop(rows):
    """``zechelon`` rows divided by their pivot entries equal the reference
    in values, pivot order and the key order of every pivot row; the
    integer rows are primitive."""
    echelon = zechelon(zcleared(row) for row in rows)
    got = divided_by_pivots(echelon)
    want = reference_sparse_echelon(rows)
    assert list(got) == list(want)
    for p in want:
        assert list(got[p].items()) == list(want[p].items())
        assert all(type(v) is int for v in echelon[p].values())
        assert math.gcd(*echelon[p].values()) == 1


@given(rows=kernel_rows(), data=st.data())
def test_integer_remainder_decides_membership(rows, data):
    """``zremainder`` of a cleared row is empty exactly when the
    ``Fraction`` remainder is, against the echelon of the same rows, and
    R / (D K) equals that remainder entry by entry for vec = A / D; the
    direction is a combination of the rows half of the time."""
    width = 1 + max((c for row in rows for c in row), default=0)
    if rows and data.draw(st.booleans()):
        vec = [F(0)] * width
        for row in rows:
            coeff = data.draw(kernel_entry_st)
            for c, v in row.items():
                vec[c] += coeff * v
    else:
        vec = [data.draw(kernel_entry_st) for _ in range(width)]
    echelon = zechelon(zcleared(row) for row in rows)
    want = sparse_remainder(reference_sparse_echelon(rows), vec)
    assert (not zremainder(echelon, zcleared(dict(enumerate(vec))))[1]) == (not want)
    den, cleared = zdenominated({c: v for c, v in enumerate(vec) if v})
    scale, rem = zremainder(echelon, cleared)
    assert {c: F(v, den * scale) for c, v in rem.items()} == want


def test_reduce_by_leaves_the_remainder_off_the_pivots():
    rows = sparse_rows(frows([[1, 2, 0, 1], [0, 0, 1, 3]]))
    echelon = fraction_echelon(rows)
    assert sparse_remainder(echelon, frows([[2, 5, 1, 0]])[0]) == {1: F(1), 3: F(-5)}
    assert sparse_remainder({}, [F(1), F(0), F(2)]) == {0: F(1), 2: F(2)}
    assert zremainder(zechelon(zcleared(row) for row in rows), {0: 2, 1: 5, 2: 1}) == (
        1,
        {1: 1, 3: -5},
    )
    assert zremainder(zechelon([{0: 2, 1: 1}]), {0: 3, 1: 1}) == (2, {1: -1})
    assert zremainder({}, {0: 1, 2: 2}) == (1, {0: 1, 2: 2})


def sign_variations(values):
    signs = [1 if v > 0 else -1 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_chain(p):
    chain = [p, derivative(p)]
    while chain[-1]:
        rem = divmod_q(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(rem * -1)
    return [q for q in chain if q]


def square_free_part(p):
    """p / gcd(p, p'), monic, by Euclid over Q[t]."""
    if p.degree() < 1:
        return monic(p)
    g = gcd_q(p, derivative(p))
    return monic(divmod_q(p, g)[0])


def reference_sturm_count(p, a, b):
    """The Sturm count over Q: a square-free part by Euclid over Q[t], then a
    chain of Fraction remainders, evaluated at a and b."""
    a, b = F(a), F(b)
    if b <= a:
        return 0
    sf = square_free_part(p)
    if sf.degree() < 1:
        return 0
    chain = sturm_chain(sf)
    return sign_variations([q.evaluate(a) for q in chain]) - sign_variations(
        [q.evaluate(b) for q in chain]
    )


def reference_poles_in_closed_unit_interval(f):
    den = f.den
    if den.degree() < 1:
        return 0
    return reference_sturm_count(den, 0, 1) + (not den.evaluate(0))


def poles_of_inverse(den):
    """Poles in [0, 1] that ``solve_param_linear`` reports for x = 1 / den,
    the solution of the 1x1 system den * x = 1."""
    return solve_param_linear(*zt_system([[den]], [ONE])).pole_counts[0]


def test_prefix_solver_equals_one_solve_per_right_hand_side():
    """The last used column and the inconsistency verdict of one augmented
    ``solve_linear`` per right-hand side, on random matrices with dependent
    columns, zero columns and inconsistent right-hand sides.  The solver
    takes sparse integer rows: each column and right-hand side is handed
    over times a random nonzero integer, which changes no answer."""
    rng = random.Random(4242)
    values = [0] * 6 + [-3, -1, 1, 2, 4, 6]
    scales = (1, -1, 2, -3, 7, 12)

    def sparse(vec):
        k = rng.choice(scales)
        return {r: k * x for r, x in enumerate(vec) if x}

    inconsistent = 0
    for _ in range(300):
        height, width = rng.randint(0, 5), rng.randint(0, 6)
        columns = [[rng.choice(values) for _ in range(height)] for _ in range(width)]
        if width >= 3:
            columns[-1] = [x + 2 * y for x, y in zip(columns[0], columns[1])]
        solver = PrefixSolver([sparse(col) for col in columns], height)
        rows = [[F(col[r]) for col in columns] for r in range(height)]
        for _ in range(5):
            if columns and rng.random() < 0.6:
                used = rng.sample(range(width), min(2, width))
                picks = {c: rng.choice(values) for c in used}
                rhs = [sum(x * columns[c][r] for c, x in picks.items()) for r in range(height)]
            else:
                rhs = [rng.choice(values) for _ in range(height)]
            solution = solve_linear(rows, [F(x) for x in rhs]) if rows else [F(0)] * width
            if solution is None:
                inconsistent += 1
                assert solver.last_used_column(sparse(rhs)) is None
            else:
                want = max((c for c, x in enumerate(solution) if x), default=0)
                assert solver.last_used_column(sparse(rhs)) == want
    assert inconsistent > 100


def test_sign_variations():
    assert sign_variations([F(1), F(-1), F(2)]) == 2
    assert sign_variations([F(1), F(0), F(2)]) == 0
    assert sign_variations([F(0), F(0)]) == 0


def test_sturm_count_half_open():
    t = UniPoly.from_terms({1: 1})
    f = poly_add(t, ONE, -1) * poly_add(t, ONE, -3)  # roots 1 and 3
    assert sturm_count(f, 0, 2) == 1
    assert sturm_count(f, 0, 4) == 2
    # interval is half open on the left: a root at the left endpoint not counted
    assert sturm_count(f, 1, 2) == 0
    assert sturm_count(f, F(1, 2), 1) == 1


def test_sturm_count_multiple_root():
    t = UniPoly.from_terms({1: 1})
    f = poly_add(t, ONE, -1) ** 2
    assert sturm_count(f, 0, 2) == 1


def roots_poly(roots, lead=1):
    """lead * prod (t - r) over the given rational roots, repeats kept."""
    t = UniPoly.from_terms({1: 1})
    p = UniPoly.constant(lead)
    for r in roots:
        p = p * poly_add(t, ONE, -F(r))
    return p


def test_sturm_count_at_rational_endpoints():
    f = roots_poly([F(1, 3), F(2, 3), F(5, 7)])
    assert sturm_count(f, F(1, 4), F(1, 2)) == 1
    assert sturm_count(f, F(1, 3), F(2, 3)) == 1  # (1/3, 2/3]: 2/3 only
    assert sturm_count(f, F(2, 3), F(5, 7)) == 1  # (2/3, 5/7]: 5/7 only
    assert sturm_count(f, F(-1, 2), F(1, 3)) == 1
    assert sturm_count(f, F(5, 7), F(9, 2)) == 0
    assert sturm_count(f, F(1, 2), F(1, 2)) == 0
    assert sturm_count(f, 1, 0) == 0
    for a, b in ((0.25, 1), (0, 0.5)):
        with pytest.raises(TypeError, match="rational scalar"):
            sturm_count(f, a, b)


def test_sturm_count_with_roots_at_zero_and_one():
    f = roots_poly([0, 1, F(1, 2)])
    assert sturm_count(f, 0, 1) == 2  # 1/2 and 1; 0 is the open end
    assert sturm_count(f, -1, 0) == 1
    assert sturm_count(f, -1, 1) == 3
    assert sturm_count(f, F(1, 2), 1) == 1
    assert poles_of_inverse(f) == 3
    assert poles_of_inverse(roots_poly([0])) == 1
    assert poles_of_inverse(roots_poly([1])) == 1
    assert poles_of_inverse(roots_poly([F(-1, 9)])) == 0


def test_sturm_count_with_repeated_roots_and_negative_leads():
    f = roots_poly([1, 1, 1, F(1, 2), F(1, 2), 3], lead=-7)
    assert sturm_count(f, 0, 1) == 2
    assert sturm_count(f, 0, 3) == 3
    assert sturm_count(f * -1, 0, 3) == 3
    g = roots_poly([0, 0, F(-2, 3)], lead=F(-5, 2))
    assert sturm_count(g, -1, 0) == 2
    assert sturm_count(g, 0, 1) == 0
    assert poles_of_inverse(g) == 1
    # no real roots at all, negative lead
    h = UniPoly([-1, 0, -3]) * UniPoly([-2, 1, -1])
    assert sturm_count(h, -10, 10) == 0
    assert sturm_count(UniPoly.constant(-4), 0, 1) == 0
    assert sturm_count(UniPoly(), 0, 1) == 0


def test_sturm_count_equals_the_fraction_chain_on_random_polynomials():
    rng = random.Random(1107)
    coeffs = [F(n, q) for n in range(-6, 7) for q in (1, 2, 3, 5)]
    points = [F(n, q) for n in range(-4, 5) for q in (1, 2, 3)]
    for _ in range(400):
        degree = rng.randint(0, 8)
        if rng.random() < 0.5:
            # rational roots, some repeated, some at the probe points
            roots = [rng.choice(points) for _ in range(degree)]
            p = roots_poly(roots, lead=rng.choice([c for c in coeffs if c]))
        else:
            p = UniPoly([rng.choice(coeffs) for _ in range(degree + 1)])
        a, b = sorted(rng.sample(points, 2))
        # 0 and 1 as either endpoint, where chain values are often zero
        for lo, hi in ((a, b), (0, 1), (b, a), (a, 0), (0, b), (a, 1), (1, b)):
            assert sturm_count(p, lo, hi) == reference_sturm_count(p, lo, hi), (p, lo, hi)
        if p:
            f = QtScalar(ONE, p).function()
            solved = solve_param_linear(*zt_system([[p]], [ONE]))
            assert solved.solution == [f]
            assert solved.pole_counts == [reference_poles_in_closed_unit_interval(f)]


def test_pole_counts_never_divide_by_one(monkeypatch):
    """The Sturm chain of a square-free denominator divides by nothing, and
    that of a repeated-root one by gcd(p, p') alone: no ``_zdiv_exact`` in a
    pole count divides by the constant 1."""
    rng = random.Random(4811)
    roots = [F(n, q) for n in range(-3, 5) for q in (1, 2, 3)]
    divisors = []
    divide = qt_module._zdiv_exact

    def recording_divide(num, den):
        divisors.append(den)
        return divide(num, den)

    monkeypatch.setattr(qt_module, "_zdiv_exact", recording_divide)
    repeated = 0
    for _ in range(200):
        chosen = rng.sample(roots, rng.randint(1, 4))
        if rng.random() < 0.5:
            chosen += rng.choices(chosen, k=rng.randint(1, 3))
        den = [rng.choice([-3, -1, 2, 5])]
        for r in chosen:
            den = _zmul(den, [-r.numerator, r.denominator])
        if rng.random() < 0.3:
            den = _zmul(den, [1, 0, 1])  # no real roots
        before = len(divisors)
        got = qt_module._zpoles_in_unit_interval(den)
        assert got == sum(0 <= r <= 1 for r in set(chosen))
        repeated += len(divisors) > before
    assert repeated > 50
    assert [1] not in divisors


def test_poles_in_closed_unit_interval():
    t = UniPoly.from_terms({1: 1})
    # pole at 1/2
    assert poles_of_inverse(poly_add(t, ONE, -F(1, 2))) == 1
    # poles at both endpoints count
    assert poles_of_inverse(t * poly_add(t, ONE, -1)) == 2
    # pole at 2 does not
    assert poles_of_inverse(poly_add(t, ONE, -2)) == 0
    assert poles_of_inverse(ONE) == 0


def test_solve_param_linear_feasible():
    t = UniPoly.from_terms({1: 1})
    # x + t*y = t, y = 1  ->  x = 0, y = 1
    rows = [[ONE, t], [UniPoly(), ONE]]
    res = solve_param_linear(*zt_system(rows, [t, ONE]))
    assert res.consistent
    assert res.feasible_on_unit_interval
    assert res.solution[0] == RationalFunctionT.zero()
    assert res.solution[1] == RationalFunctionT(ONE)


def test_solve_param_linear_pole_blocks_feasibility():
    t = UniPoly.from_terms({1: 1})
    # (t - 1/2) x = 1 has the solution 1/(t - 1/2) with a pole inside [0, 1]
    res = solve_param_linear(*zt_system([[poly_add(t, ONE, -F(1, 2))]], [ONE]))
    assert res.consistent
    assert res.pole_counts == [1]
    assert not res.feasible_on_unit_interval


def test_solve_param_linear_inconsistent():
    # 0 * x = 1: the row's only entry is its right-hand side
    res = solve_param_linear([{1: [1]}], 1)
    assert not res.consistent
    assert not res.feasible_on_unit_interval


def test_solve_param_linear_rejects_a_trailing_zero_coefficient():
    with pytest.raises(ValueError):
        solve_param_linear([{0: [1, 0]}], 1)
    with pytest.raises(ValueError):
        solve_param_linear([{0: [1], 1: [0]}], 1)
    with pytest.raises(ValueError):
        solve_param_linear([{0: [1]}, {1: [2, 0, 0]}], 1)
    # every row is checked before the peel meets the inconsistent 0 = 1
    with pytest.raises(ValueError):
        solve_param_linear([{1: [1]}, {0: [2, 0]}], 1)


def test_solve_param_linear_rejects_a_column_outside_the_system():
    for column in (-1, 2, 5):
        with pytest.raises(ValueError):
            solve_param_linear([{0: [1], column: [1]}], 1)
    with pytest.raises(ValueError):
        solve_param_linear([{1: [1]}], 0)


def test_solve_param_linear_edge_cases_of_the_sparse_rows():
    t = UniPoly.from_terms({1: 1})
    zero = RationalFunctionT.zero()
    # no unknowns: consistent unless some row has a right-hand side
    assert solve_param_linear([], 0) == ParamSolution(True, [], [])
    assert solve_param_linear([{}], 0) == ParamSolution(True, [], [])
    assert not solve_param_linear([{0: [3]}], 0).consistent
    # no rows: every unknown is free, hence zero
    assert solve_param_linear(iter([]), 3) == ParamSolution(True, [zero] * 3, [0] * 3)
    # a row whose only entry is its right-hand side, after a pivot row
    assert not solve_param_linear([{0: [1], 1: [1]}, {2: [1, 1]}], 2).consistent
    # row 1 is twice row 0 and cancels to empty at the first pivot; the
    # pivot of column 1 is found after it, in row 2
    rows = [{0: [1], 1: [1], 2: [2]}, {0: [2], 1: [2], 2: [4]}, {1: [1, 1], 2: [1]}]
    copies = [{c: list(e) for c, e in row.items()} for row in rows]
    got = solve_param_linear(rows, 2)
    assert rows == copies  # the input is left as it was
    inverse = RationalFunctionT(ONE, poly_add(t, ONE))
    first = RationalFunctionT(poly_add(ONE, t, 2), poly_add(t, ONE))
    assert got == ParamSolution(True, [first, inverse], [0, 0])
    assert got == reference_bareiss(*dense_system(rows, 2))


def test_exact_division_in_zt_raises_on_a_remainder():
    # (t^2 + 3t + 2) / (t + 1) = t + 2
    assert _zdiv_exact([2, 3, 1], [1, 1]) == [2, 1]
    assert _zdiv_exact([], [1, 1]) == []
    with pytest.raises(ArithmeticError):
        _zdiv_exact([1, 0, 1], [1, 1])  # t^2 + 1 leaves remainder 2
    with pytest.raises(ArithmeticError):
        _zdiv_exact([0, 1], [0, 2])  # t / 2t = 1/2 is not in Z[t]
    with pytest.raises(ArithmeticError):
        _zdiv_exact([3], [1, 1])  # lower degree than the divisor
    assert _zdiv_exact([4, -6], [2]) == [2, -3]
    with pytest.raises(ArithmeticError):
        _zdiv_exact([4, 3], [2])  # (3t + 4) / 2 is not in Z[t]
    # constant divisors take the general long division, 1 and -1 included
    assert _zdiv_exact([5, 0, -3], [1]) == [5, 0, -3]
    assert _zdiv_exact([5, 0, -3], [-1]) == [-5, 0, 3]
    assert _zdiv_exact([9, 0, -6], [-3]) == [-3, 0, 2]
    assert _zdiv_exact([], [-3]) == []
    with pytest.raises(ArithmeticError):
        _zdiv_exact([9, 1, -6], [-3])


def reference_solve_param_linear(rows, rhs):
    """Reference solver: dense elimination over the Q(t) scalar ``QtScalar``,
    which reduces by Euclid over Q[t]."""
    width = len(rows[0]) if rows else 0
    aug = [[QtScalar(entry) for entry in row] + [QtScalar(b)] for row, b in zip(rows, rhs)]
    red = dense_rref(aug, width + 1)
    if width in red.pivots:
        return ParamSolution(consistent=False)
    solution = [RationalFunctionT.zero()] * width
    for r, pc in enumerate(red.pivots):
        solution[pc] = red.rows[r][width].function()
    poles = [reference_poles_in_closed_unit_interval(f) for f in solution]
    return ParamSolution(consistent=True, solution=solution, pole_counts=poles)


# t-degree at most 2 and denominators at most 6
coeff_st = st.sampled_from([F(0)] + [F(n, q) for n in (-5, -2, -1, 1, 3) for q in (1, 2, 3, 6)])
tpoly_st = st.one_of(st.just(UniPoly()), st.lists(coeff_st, max_size=3).map(UniPoly))


@st.composite
def param_systems(draw):
    """Up to 5 x 4 systems over Q[t]; with zero columns, and with a last row
    that combines two earlier ones, its right-hand side matching or not."""
    width = draw(st.integers(min_value=0, max_value=4))
    height = draw(st.integers(min_value=0, max_value=5))
    rows = [[draw(tpoly_st) for _ in range(width)] for _ in range(height)]
    rhs = [draw(tpoly_st) for _ in range(height)]
    for c in draw(st.sets(st.integers(min_value=0, max_value=3), max_size=2)):
        if c < width:
            for row in rows:
                row[c] = UniPoly()
    if height >= 3 and draw(st.booleans()):
        p, q = draw(coeff_st), draw(coeff_st)
        rows[-1] = [poly_add(x * p, y, q) for x, y in zip(rows[0], rows[1])]
        rhs[-1] = poly_add(rhs[0] * p, rhs[1], q)
        if draw(st.booleans()):
            rhs[-1] = poly_add(rhs[-1], draw(tpoly_st))
    return rows, rhs


@st.composite
def sparse_pencils(draw):
    """Up to 8 x 6 pencils V - tW like those of a Moser reduction: entries of
    t-degree at most 1, most of them zero, and constant right-hand sides."""
    width = draw(st.integers(min_value=1, max_value=6))
    height = draw(st.integers(min_value=1, max_value=8))
    entry_st = st.one_of(
        st.just(UniPoly()),
        st.just(UniPoly()),
        st.just(UniPoly()),
        st.lists(coeff_st, min_size=1, max_size=2).map(UniPoly),
    )
    rows = [[draw(entry_st) for _ in range(width)] for _ in range(height)]
    rhs = [UniPoly.constant(draw(coeff_st)) for _ in range(height)]
    return rows, rhs


@st.composite
def peeled_systems(draw):
    """Up to 8 x 5 systems shaped for the peel of ``solve_param_linear``,
    with rows of one unknown at every stage of it.

    A chain: row k holds the unknowns of rows 0 .. k - 1, some of them, and
    its own pivot, a nonzero constant or of degree 1, so a row whose right-
    hand side is zero forces a zero that can leave a later row with one
    unknown, and a row of one unknown with a nonzero right-hand side is
    peeled only when no later row holds its unknown.  Then up to three
    extra rows: c x_j = 0, which forces a zero; e x_j = b, which repeats an
    unknown of the chain, consistent with it or not; and a rescaled chain
    row, its right-hand side matching or not.  The rows are shuffled."""
    width = draw(st.integers(min_value=1, max_value=5))
    order = draw(st.permutations(range(width)))
    const_st = coeff_st.filter(bool).map(UniPoly.constant)
    linear_st = st.tuples(coeff_st, coeff_st.filter(bool)).map(UniPoly)
    pivot_st = st.one_of(const_st, const_st, linear_st)
    entry_st = st.one_of(st.just(UniPoly()), const_st, linear_st)
    rows, rhs = [], []
    for k, j in enumerate(order):
        row = [UniPoly()] * width
        for i in order[:k]:
            row[i] = draw(entry_st)
        row[j] = draw(pivot_st)
        rows.append(row)
        rhs.append(draw(st.one_of(st.just(UniPoly()), const_st, const_st)))
    for kind in draw(st.lists(st.sampled_from("zsc"), max_size=3)):
        if kind == "c":
            k = draw(st.integers(min_value=0, max_value=width - 1))
            scale = draw(coeff_st.filter(bool))
            row, b = [x * scale for x in rows[k]], rhs[k] * scale
            if draw(st.booleans()):
                b = poly_add(b, draw(const_st))
        else:
            row = [UniPoly()] * width
            row[draw(st.sampled_from(order))] = draw(pivot_st)
            b = UniPoly() if kind == "z" else draw(const_st)
        rows.append(row)
        rhs.append(b)
    shuffled = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in shuffled], [rhs[i] for i in shuffled]


def poly_rows(data):
    return [[UniPoly(entry) for entry in row] for row in data]


@given(system=st.one_of(param_systems(), sparse_pencils(), peeled_systems()))
@example(system=([], []))
@example(system=(poly_rows([[[], []], [[], []]]), [UniPoly(), ONE]))
@example(system=(poly_rows([[[], [1, 1]], [[], [2, 2]]]), [ONE, 2 * ONE]))
@example(system=(poly_rows([[[], [1, 1]], [[], [2, 2]]]), [ONE, 3 * ONE]))
@example(
    system=(
        poly_rows([[[1, 2], [0, 1], [3]], [[2, 4], [0, 2], [6]]]),
        [UniPoly([0, 1]), UniPoly([0, 2])],
    )
)
@example(system=(poly_rows([[[F(-1, 2), 1]], [[0, 0, F(1, 6)]]]), [ONE, UniPoly([0, 0, F(1, 6)])]))
# the peel forces x3 = 0; 2 x0 = 1 shares x0 with the middle row, so the Bareiss solves the rest
@example(
    system=(
        poly_rows([[[], [0, 1], [-1], []], [[1], [3], [], []], [[2], [], [], []], [[], [], [], [1, 1]]]),
        [3 * ONE, 2 * ONE, ONE, UniPoly()],
    )
)
# 2 x0 = 1 and x1 = 1 each share an unknown with the middle row: the Bareiss finds 0 = 1
@example(system=(poly_rows([[[2], []], [[1], [1]], [[], [1]]]), [ONE, ONE, ONE]))
# (t + 1) x0 = 1 has one unknown, but x0 occurs again: the Bareiss takes both, whatever the degree
@example(system=(poly_rows([[[1, 1], []], [[1], [2]]]), [ONE, ONE]))
# 3 x1 = 0 forces x1 = 0, so the first row loses x1 and is peeled as x0 = 1
@example(system=(poly_rows([[[1], [1]], [[], [3]]]), [ONE, UniPoly()]))
# a forced zero that leaves the second row 0 = 2 t: inconsistent
@example(system=(poly_rows([[[], [1, 1]], [[], [1]]]), [UniPoly(), UniPoly([0, 2])]))
def test_solve_param_linear_equals_the_rref_reference(system):
    """The solver equals the reference, on the sparse rows and on the same
    rows with a [] entry at every zero, and writes to neither."""
    rows, rhs = system
    sparse, width = zt_system(rows, rhs)
    padded = [{j: row.get(j, []) for j in range(width + 1)} for row in sparse]
    copies = copy.deepcopy((sparse, padded))
    got = solve_param_linear(sparse, width)
    want = reference_solve_param_linear(rows, rhs)
    assert got.consistent == want.consistent
    assert got.solution == want.solution
    assert got.pole_counts == want.pole_counts
    assert solve_param_linear(padded, width) == got
    assert (sparse, padded) == copies


def times_t_minus_one(coeffs, k):
    """coeffs * (t - 1)^k as an integer coefficient list."""
    for _ in range(k if coeffs else 0):
        coeffs = [b - a for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


zt_st = st.lists(st.integers(min_value=-9, max_value=9), max_size=4).map(
    lambda cs: cs[: max((i + 1 for i, c in enumerate(cs) if c), default=0)]
)


@given(
    y=zt_st,
    den=zt_st.filter(bool),
    common=zt_st.filter(bool),
    ky=st.integers(min_value=0, max_value=3),
    kd=st.integers(min_value=0, max_value=3),
    sign=st.sampled_from([1, -1]),
    qy=st.integers(min_value=1, max_value=6),
    qd=st.integers(min_value=1, max_value=6),
)
@example(y=[16], den=[-1], common=[1], ky=0, kd=3, sign=1, qy=1, qd=1)
@example(y=[2, 4], den=[3], common=[1], ky=0, kd=0, sign=-1, qy=1, qd=1)
@example(y=[6], den=[-4], common=[1], ky=0, kd=0, sign=1, qy=1, qd=1)
@example(y=[0, 0, 5], den=[0, 2], common=[-2, 4], ky=2, kd=2, sign=1, qy=1, qd=1)
@example(y=[3, 1], den=[-2, 0, 4], common=[1, 1], ky=1, kd=1, sign=-1, qy=6, qd=4)
def test_reduced_component_equals_the_public_constructor(y, den, common, ky, kd, sign, qy, qd):
    """Reducing y / den once in Z[t] (``_reduced``), and the public
    constructor, give the reduced pair of Euclid over Q[t]: negative
    leading coefficients, shared (t - 1)^k and other common factors, and
    constant denominators included.  The constructor also takes ``UniPoly``
    inputs with Fraction coefficients: y / qy over den / qd."""
    y = _zmul(times_t_minus_one(y, ky), common)
    den = [sign * c for c in _zmul(times_t_minus_one(den, kd), common)]
    want = QtScalar(UniPoly(y), UniPoly(den))
    got, zden = _reduced(y, den)
    assert (got.num, got.den) == (want.num, want.den)
    public = RationalFunctionT(UniPoly(y), UniPoly(den))
    assert public == got
    assert str(public) == str(got) == str(want.function())
    fy, fd = UniPoly(y) * F(1, qy), UniPoly(den) * F(1, qd)
    want = QtScalar(fy, fd)
    public = RationalFunctionT(fy, fd)
    assert (public.num, public.den) == (want.num, want.den)
    # the integer denominator whose poles are counted is a multiple of it
    assert UniPoly(zden) == got.den * UniPoly.constant(zden[-1])
