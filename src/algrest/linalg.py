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
polynomials in Z[t], for a parameter t, in ``qt``, where the validation,
the peel, the fraction-free elimination and the Sturm counts run
(``qt._zsolve``); ``qt`` is read through its module, so a run that
solves and counts nothing never compiles it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import qt
from .poly import _as_fraction


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
    a = _as_fraction(a)
    b = _as_fraction(b)
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

    ``qt._zsolve`` validates every row, in the pass that indexes the system
    and before it solves any, and never writes to a row.  It peels the rows
    it settles without changing another entry and eliminates the rest
    fraction-free (Bareiss), checking each division (a remainder raises
    ``ArithmeticError``); the answer does not depend on the row order and
    equals Gauss-Jordan's over Q(t).
    """
    solved = qt._zsolve(rows, width)
    return ParamSolution(True, *solved) if solved else ParamSolution(consistent=False)
