"""Exact linear algebra over Q and over the rational function field Q(t).

``zechelon`` is the one elimination kernel and its dict of primitive
integer pivot rows the one echelon form: sparse Gauss-Jordan elimination
over Z, fraction-free (Bareiss-style cross-multiplication with the pivot,
then division by the gcd content).  Rational rows are cleared to integer
rows first (``zdenominated``, ``zcleared``).  ``zremainder`` reduces an
integer row against that form and keeps the scale it picks up, so the
remainder over Q is one division at the end.  ``rref`` gives the dense
``Fraction`` rows of the same form; kernels, solutions and span tests are
read off it.  ``PrefixSolver`` answers many sparse integer right-hand
sides against one matrix from one elimination.
``solve_param_linear`` solves sparse systems whose entries are
polynomials in Z[t], for a parameter t: it peels the rows with one
unknown, then runs fraction-free elimination on the rest
(Bareiss, Math. Comp. 22, 1968) with a level per entry: an entry outside
the pivot row's support is only rescaled, and the rescalings telescope,
so it is written only when it is read.  The pivot row is the first
remaining row with the column, and the answer does not depend on the row
order.  ``qt._reduced`` reduces each solution, and the Sturm count of
``qt`` tells whether it stays pole-free on [0, 1]; ``qt`` is read through
its module, so a run that solves and counts nothing never compiles it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import qt


class RrefResult(NamedTuple):
    rows: Sequence[Sequence]
    pivots: Sequence[int]

    @property
    def rank(self) -> int:
        return len(self.pivots)


def rref(rows: Sequence[Sequence[Fraction]], width: int | None = None) -> RrefResult:
    """Reduced row echelon form of a dense Fraction matrix: the ``zechelon``
    rows of its cleared rows (``zcleared``), each entry divided by the
    row's pivot entry.  Rows must all have ``width`` entries (the first
    row's length by default).

    That form is unique for a given row space and column order, so the
    dense rows returned equal those of the textbook dense elimination (kept
    in ``tests/test_linalg.py`` as the reference).
    """
    if width is None:
        width = len(rows[0]) if rows else 0
    for r in rows:
        if len(r) != width:
            raise ValueError("ragged matrix")
    pivot_rows = zechelon(zcleared(dict(enumerate(row))) for row in rows)
    pivots = sorted(pivot_rows)
    zero = Fraction(0)
    dense = [
        [Fraction(row[c], row[p]) if c in row else zero for c in range(width)]
        for p, row in sorted(pivot_rows.items())
    ]
    return RrefResult(rows=dense, pivots=pivots)


def zdenominated(row: Mapping[int, Fraction]) -> tuple[int, dict[int, int]]:
    """(D, A) with row = A / D: D the lcm of the entries' denominators and A
    the integer row of their numerators scaled to D, keys in order."""
    den = math.lcm(*[v.denominator for v in row.values()])
    return den, {c: v.numerator * (den // v.denominator) for c, v in row.items()}


def zcleared(row: Mapping[int, Fraction]) -> dict[int, int]:
    """The primitive integer row proportional to a sparse rational row: its
    nonzero entries, denominators cleared (``zdenominated``), divided by
    their content; {} for a zero row.  Keys keep their order."""
    vec = {c: v for c, v in row.items() if v}
    if not vec:
        return vec
    return _zprimitive_row(zdenominated(vec)[1])


def zechelon(rows: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Sparse Gauss-Jordan elimination over Z: the one elimination kernel.

    Takes sparse integer rows that hold nonzero entries only, and returns
    {pivot: primitive integer pivot row}.  Pivot rows are kept fully
    reduced as rows arrive: an incoming row is cleared at
    every existing pivot column (``zremainder``), its first remaining column
    becomes a new pivot, and that column is cleared from the earlier pivot
    rows.  Clearing column p of a row r against a row q cross-multiplies
    with the pivot: r' = (q_p / g) r - (r_p / g) q, g = gcd(r_p, q_p), which
    is zero at p and a nonzero multiple of the ``Fraction`` update r -
    (r_p / q_p) q; a row is divided by the gcd of its entries before it is
    kept.  Each pivot row is zero at every other pivot column, so divided by
    its pivot entry it is the reduced echelon row over Q.  Scaling an input
    row by a nonzero factor changes no pivot, zero or key order.
    """
    pivot_rows: dict[int, dict[int, int]] = {}
    for row in rows:
        vec = zremainder(pivot_rows, row)[1]
        if not vec:
            continue
        vec = _zprimitive_row(vec)
        col = min(vec)
        for p, prow in pivot_rows.items():
            if col in prow:
                pivot_rows[p] = _zprimitive_row(_zeliminated(prow, col, vec)[1])
        pivot_rows[col] = vec
    return pivot_rows


def zremainder(
    pivot_rows: Mapping[int, Mapping[int, int]], vec: dict[int, int]
) -> tuple[int, dict[int, int]]:
    """(K, R) for the integer row ``vec`` (nonzero entries only) modulo the
    row space of ``zechelon`` rows: R / K is its remainder over Q, zero at
    every pivot column, and R is {} exactly when ``vec`` lies in the span.
    Each pivot row is zero at the other pivots, so one clearing per pivot
    column of ``vec`` suffices; clearing column p multiplies the row by
    q_p / gcd(r_p, q_p), and K is the product of those factors."""
    scale = 1
    for p in [c for c in vec if c in pivot_rows]:
        factor, vec = _zeliminated(vec, p, pivot_rows[p])
        scale *= factor
    return scale, vec


def _zeliminated(
    target: Mapping[int, int], col: int, source: Mapping[int, int]
) -> tuple[int, dict[int, int]]:
    """(s / g, (s / g) * target - (t / g) * source) for t = target[col], s =
    source[col] and g = gcd(t, s): the row is zero at ``col``, cancelled
    entries dropped, and target's keys first, in order, then source's new
    ones."""
    t, s = target[col], source[col]
    g = math.gcd(t, s)
    if g != 1:
        t //= g
        s //= g
    out = {c: s * v for c, v in target.items()} if s != 1 else dict(target)
    for c, v in source.items():
        value = out.get(c, 0) - t * v
        if value:
            out[c] = value
        else:
            del out[c]
    return s, out


def _zprimitive_row(vec: dict[int, int]) -> dict[int, int]:
    """A nonzero integer row divided by the gcd of its entries."""
    content = math.gcd(*vec.values())
    return vec if content == 1 else {c: v // content for c, v in vec.items()}


def kernel_basis(rows: Sequence[Sequence[Fraction]], width: int) -> list[list[Fraction]]:
    """Basis of the right kernel, one vector per free column.

    Each basis vector has a 1 in its free column and zeros in the other
    free columns, so the result is deterministic given the column order.
    """
    red = rref(rows, width)
    pivot_set = set(red.pivots)
    free_cols = [c for c in range(width) if c not in pivot_set]
    basis: list[list[Fraction]] = []
    for fc in free_cols:
        vec = [Fraction(0)] * width
        vec[fc] = Fraction(1)
        for r, pc in enumerate(red.pivots):
            vec[pc] = -red.rows[r][fc]
        basis.append(vec)
    return basis


def solve_linear(
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
) -> list[Fraction] | None:
    """One solution of A x = b with free variables set to zero, or None."""
    if len(rows) != len(rhs):
        raise ValueError("rhs length does not match row count")
    width = len(rows[0]) if rows else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red = rref(aug, width + 1)
    if width in red.pivots:
        return None
    solution = [Fraction(0)] * width
    for r, pc in enumerate(red.pivots):
        solution[pc] = red.rows[r][width]
    return solution


def in_span(vectors: Sequence[Sequence[Fraction]], target: Sequence[Fraction]) -> bool:
    """Whether ``target`` lies in the span of ``vectors``."""
    echelon = zechelon(zcleared(dict(enumerate(v))) for v in vectors)
    return not zremainder(echelon, zcleared(dict(enumerate(target))))[1]


class PrefixSolver:
    """Solves A x = b, free unknowns at zero, for many right-hand sides b
    against one column matrix A, and reports the last column it uses.

    The reduced echelon form of the augmented matrix [A | I] is [R | E],
    with E invertible and E A = R, so A x = b iff R x = E b.  A row of R
    with pivot p reads x_p + (free unknowns) = (E b)_p, so the solution with
    free unknowns at zero has x_p = (E b)_p; a zero row of R reads
    0 = (E b)_r, so b is consistent iff (E b)_r vanishes on those rows.
    The elimination is done once, by ``zechelon``, and each row of E is
    kept as the integer row that is a nonzero multiple of it; only the zero
    tests are read, so a right-hand side costs one sparse integer product
    per row.  Columns and right-hand sides are sparse integer rows {index:
    value}, nonzero entries only, and may be any nonzero multiples of the
    vectors they stand for: that scales an unknown or every (E b)_r.
    """

    __slots__ = ("solved", "checks")

    def __init__(self, columns: Sequence[Mapping[int, int]], height: int):
        width = len(columns)
        rows: list[dict[int, int]] = [{width + r: 1} for r in range(height)]
        for c, col in enumerate(columns):
            for r, v in col.items():
                rows[r][c] = v
        echelon = zechelon(rows)
        solved = {
            p: tuple((k - width, v) for k, v in row.items() if k >= width)
            for p, row in echelon.items()
        }
        # (pivot, row of E) for the pivots of A, the last pivot first
        self.solved = tuple((p, solved[p]) for p in sorted(solved, reverse=True) if p < width)
        self.checks = tuple(row for p, row in solved.items() if p >= width)

    def last_used_column(self, rhs: Mapping[int, int]) -> int | None:
        """The largest c with x_c nonzero in the solution of A x = ``rhs``
        (0 when ``rhs`` is zero), or None when the system is inconsistent."""
        if any(sum(v * rhs[k] for k, v in row if k in rhs) for row in self.checks):
            return None
        return next((p for p, row in self.solved if sum(v * rhs[k] for k, v in row if k in rhs)), 0)


def sturm_count(p: qt.UniPoly, a: Fraction | int, b: Fraction | int) -> int:
    """Number of distinct real roots of p in the half-open interval (a, b]."""
    a = Fraction(a)
    b = Fraction(b)
    if b <= a:
        return 0
    return qt._zroot_count(list(zdenominated(dict(enumerate(p.coeffs)))[1].values()), a, b)


class ParamSolution(NamedTuple):
    """Outcome of solving a linear system over Q(t)."""

    consistent: bool
    solution: Sequence[qt.RationalFunctionT] = ()
    pole_counts: Sequence[int] = ()

    @property
    def feasible_on_unit_interval(self) -> bool:
        return self.consistent and not any(self.pole_counts)


def solve_param_linear(rows: Iterable[Mapping[int, list[int]]], width: int) -> ParamSolution:
    """Solve A(t) x = b(t) over Q(t); free variables are set to zero.

    Each row is one equation as {column: entry}, with the unknowns in
    columns 0 .. width - 1 and the right-hand side under key ``width``; a
    column outside [0, width] raises ``ValueError``.  An entry is a
    polynomial in Z[t]: a list of Python ints, constant term first, whose
    last coefficient is nonzero (else ``ValueError``); zero entries are
    left out ([] is accepted as zero).  A system over Q[t] takes this form
    once each row is scaled by the lcm of its coefficient denominators,
    which leaves the solution unchanged.  Reports, per component of the
    solution, how many poles land in the closed interval [0, 1].

    Every row is validated first.  Then the rows with one unknown are
    peeled (Andersen & Andersen, Math. Programming 71, 1995), to a fixed
    point, through an index of the rows holding each unknown and a queue:
    c x_j = 0 forces x_j = 0, so column j leaves every row; e x_j = b, with
    e a constant, fixes x_j = b / e, and every other row a x_j + ... = c
    becomes |e| (...) = |e| c - sign(e) a b, divided by its integer
    content; e x_j = b with deg e >= 1 is peeled only when x_j is in no
    other row (substituting it would multiply rows by e); and 0 = b, b
    nonzero, is inconsistent.  The peel finds the same answer: no column
    but j has an entry in the row r of e x_j = b, so j is a pivot column,
    and any other column lies in the span of the columns before it exactly
    when it does so with row r and column j removed; scaling a row changes
    no span.  So the pivot columns, the solutions and the one with the free
    unknowns at zero are those of the rows that remain, with the peeled x_j.

    The elimination of the rows that remain is fraction-free (Bareiss)
    over Z[t], on sparse rows; it is skipped when none remain.
    Each step takes as pivot row the first remaining row with an entry in
    the next column, and updates every other remaining row to M[i][j] =
    (piv * M[i][j] - M[i][col] * M[r][j]) / prev, prev the pivot of the
    step before; by Sylvester's identity every entry is a minor of the
    input rows, so each division is exact in Z[t] (and checked: a
    remainder raises ``ArithmeticError``).  Where M[r][j] or M[i][col] is
    zero the update is piv * M[i][j] / prev: a zero entry stays zero, and
    over consecutive steps the factors telescope, so an entry left alone
    from step k to step c is M * p_c / p_k, with p_c the pivot of step c
    (p_0 = 1).  So each entry keeps the step it was last written at, its
    level, and a step writes only the rows nonzero in the pivot column,
    and in them only the pivot row's support: fill-in is -factor * M[r][j]
    / prev, and an entry that cancels is deleted.  An entry is brought up
    to date, by one exact division, only when it is read: in the pivot
    row, as a factor, or under the pivot row's support.  Entries left
    behind change no zero test.  A remaining row has no entry before the
    current column, and the system is consistent unless a row left after
    the last pivot has a right-hand side.  Back substitution reads each
    pivot row at its own step and computes y_k = D * x_k in Z[t], again by
    exact divisions, where the last pivot D is the determinant of the
    pivot block (Cramer's rule).

    Each nonzero component y_k / D, and each peeled b / e, is reduced once,
    in Z[t] (``_reduced``), and poles counted once per distinct reduced
    denominator.  The result does not depend on the order of the rows, and
    equals that of Gauss-Jordan elimination over Q(t): a column is a pivot
    exactly when it is not in the Q(t)-span of the columns before it,
    whichever rows are chosen as pivots, so all find the same pivot
    columns; with the free variables at zero the solution is unique; and
    both store the canonical reduced form with monic denominator.
    """
    zmul, zsub, zdiv_exact = qt._zmul, qt._zsub, qt._zdiv_exact
    live: dict[int, dict[int, list[int]]] = {}
    holders: dict[int, set[int]] = {}  # unknown j -> the live rows with an entry at j
    for i, row in enumerate(rows):
        entries = live[i] = {}
        for c, e in row.items():
            if not 0 <= c <= width:
                raise ValueError("column outside the system")
            if e:
                if not e[-1]:
                    raise ValueError("a Z[t] entry ends in a zero coefficient")
                entries[c] = e
                if c < width:
                    holders.setdefault(c, set()).add(i)
    queue = [i for i, row in live.items() if len(row) - (width in row) < 2]
    peeled: list[tuple[int, list[int], list[int]]] = []  # (j, b, e): x_j = b / e
    while queue:
        i = queue.pop()
        row = live.get(i)
        if row is None:
            continue
        j = next((c for c in row if c != width), None)
        if j is None:  # 0 = b
            if row:
                return ParamSolution(consistent=False)
            del live[i]
            continue
        e, b = row[j], row.get(width, [])
        if b and len(e) > 1 and len(holders[j]) > 1:
            continue  # substituting it would multiply rows by e: the Bareiss takes it
        del live[i]
        others = holders.pop(j) - {i}
        peeled.append((j, b, e))
        scale, signed = abs(e[0]), ([-c for c in b] if e[0] < 0 else b)
        for k in others:
            other = live[k]
            a = other.pop(j)
            if b:  # e is a constant: scale by |e| and move sign(e) * a * b across
                rhs = zsub([scale * c for c in other.pop(width, [])], zmul(a, signed))
                other = {c: [scale * x for x in v] for c, v in other.items()}
                if rhs:
                    other[width] = rhs
                g = math.gcd(*(x for v in other.values() for x in v))
                if g > 1:
                    other = {c: [x // g for x in v] for c, v in other.items()}
                live[k] = other
            if len(other) - (width in other) < 2:
                queue.append(k)
    pending = [{c: (e, 0) for c, e in row.items()} for row in live.values()]
    dets = [[1]]  # dets[k] = p_k, the pivot of step k
    pivot_rows: list[tuple[int, list[int], dict[int, list[int]]]] = []
    for col in sorted({c for row in pending for c in row if c != width}):
        r = next((i for i, row in enumerate(pending) if col in row), None)
        if r is None:
            continue
        current = len(dets) - 1
        prev = dets[current]
        pivot_row = {
            j: e if k == current else zdiv_exact(zmul(prev, e), dets[k])
            for j, (e, k) in pending.pop(r).items()
        }
        piv = pivot_row.pop(col)
        for row in pending:
            if col not in row:
                continue
            f, k = row.pop(col)
            factor = f if k == current else zdiv_exact(zmul(prev, f), dets[k])
            negated = [-c for c in factor]
            for j, p in pivot_row.items():
                entry = row.get(j)
                if entry is None:
                    row[j] = (zdiv_exact(zmul(negated, p), prev), current + 1)
                    continue
                e, k = entry
                if k != current:
                    e = zdiv_exact(zmul(prev, e), dets[k])
                value = zdiv_exact(zsub(zmul(piv, e), zmul(factor, p)), prev)
                if value:
                    row[j] = (value, current + 1)
                else:
                    del row[j]
        dets.append(piv)
        pivot_rows.append((col, piv, pivot_row))
    if any(width in row for row in pending):
        return ParamSolution(consistent=False)
    prev = dets[-1]
    scaled: dict[int, list[int]] = {}
    for col, piv, row in reversed(pivot_rows):
        acc = zmul(prev, row.get(width, []))
        for k, e in row.items():
            if scaled.get(k):
                acc = zsub(acc, zmul(e, scaled[k]))
        scaled[col] = zdiv_exact(acc, piv)
    solution = [qt.RationalFunctionT.zero()] * width
    poles = [0] * width
    # keyed by the integer coefficients: hashing a UniPoly hashes Fractions
    counts: dict[tuple[int, ...], int] = {}
    for c, y, den in [(c, y, prev) for c, y in scaled.items()] + peeled:
        if y:
            f, den = qt._reduced(y, den)
            key = tuple(den)
            if key not in counts:
                counts[key] = qt._zpoles_in_unit_interval(den)
            solution[c] = f
            poles[c] = counts[key]
    return ParamSolution(consistent=True, solution=solution, pole_counts=poles)
