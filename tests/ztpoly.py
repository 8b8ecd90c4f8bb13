"""Systems over Q[t] in the sparse Z[t] form that ``linalg.solve_param_linear``
takes, the dense Bareiss solver it replaced, and Euclid over Q[t] with a
Q(t) scalar built on it, kept as references for the reductions in Z[t]."""

from __future__ import annotations

import math
from fractions import Fraction

from algrest.linalg import ParamSolution
from algrest.qt import (
    RationalFunctionT,
    UniPoly,
    _reduced,
    _zdiv_exact,
    _zmul,
    _zpoles_in_unit_interval,
    _zsub,
)

ONE = UniPoly.constant(1)


def poly_add(a, b, scale=1):
    """a + scale * b for ``UniPoly`` a and b and a rational scale, by
    ``qt._zsub`` on their coefficients: ``UniPoly`` multiplies but does not
    add."""
    return UniPoly(_zsub(a.coeffs, [-scale * c for c in b.coeffs]))


def divmod_q(a, b):
    """Quotient and remainder of a by a nonzero b in Q[t], by long division."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    dd = b.degree()
    lead = b.coeffs[-1]
    quot = [Fraction(0)] * max(len(rem) - dd, 0)
    for i in range(len(rem) - 1, dd - 1, -1):
        if rem[i]:
            q = quot[i - dd] = rem[i] / lead
            for j, c in enumerate(b.coeffs):
                rem[i - dd + j] -= q * c
    return UniPoly(quot), UniPoly(rem)


def monic(p):
    return p * (1 / p.coeffs[-1]) if p else p


def gcd_q(a, b):
    """Monic greatest common divisor by Euclid over Q[t]."""
    while b:
        a, b = b, divmod_q(a, b)[1]
    return monic(a)


def derivative(p):
    return UniPoly([c * i for i, c in enumerate(p.coeffs)][1:])


class QtScalar:
    """Reference element of Q(t): num / den reduced by Euclid over Q[t],
    den monic, with +, -, *, / and truthiness, so a textbook elimination
    runs over it.  ``function`` wraps the reduced pair unchanged."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE):
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            den = ONE
        else:
            g = gcd_q(num, den)
            if g.degree() > 0:
                num, den = divmod_q(num, g)[0], divmod_q(den, g)[0]
        lead = den.coeffs[-1]
        self.num, self.den = (num, den) if lead == 1 else (num * (1 / lead), monic(den))

    def __add__(self, other):
        return QtScalar(poly_add(self.num * other.den, other.num * self.den), self.den * other.den)

    def __neg__(self):
        return QtScalar(self.num * -1, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return QtScalar(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if not other:
            raise ZeroDivisionError("division by zero in Q(t)")
        return QtScalar(self.num * other.den, self.den * other.num)

    def __bool__(self):
        return bool(self.num)

    def function(self):
        return RationalFunctionT._trusted(self.num, self.den)


def zt_system(rows, rhs):
    """Rows of ``UniPoly`` entries and their right-hand sides as sparse Z[t]
    rows and the width: each row is scaled by the lcm of its coefficient
    denominators, which leaves the solution unchanged, and holds its
    nonzero entries only, as integer coefficient lists, constant term
    first, with the right-hand side under key ``width``."""
    width = len(rows[0]) if rows else 0
    sparse = []
    for row, b in zip(rows, rhs):
        entries = [*row, b]
        scale = math.lcm(*(c.denominator for entry in entries for c in entry.coeffs))
        sparse.append(
            {
                j: [c.numerator * (scale // c.denominator) for c in entry.coeffs]
                for j, entry in enumerate(entries)
                if entry
            }
        )
    return sparse, width


def dense_system(rows, width):
    """Sparse Z[t] rows as the dense rows and right-hand sides that
    ``reference_bareiss`` takes, [] for a zero entry."""
    return [[row.get(j, []) for j in range(width)] for row in rows], [
        row.get(width, []) for row in rows
    ]


def reference_bareiss(rows, rhs):
    """The dense fraction-free solve over Z[t] that ``solve_param_linear``
    ran before it worked on sparse rows: dense rows with row swaps, and a
    level per row, caught up (``_catch_up``) when the row is next used.

    Rows are dense lists of Z[t] entries and ``rhs`` their right-hand
    sides; the result is the ``ParamSolution`` of A(t) x = b(t) with the
    free variables at zero.
    """
    if len(rows) != len(rhs):
        raise ValueError("rhs length does not match row count")
    width = len(rows[0]) if rows else 0
    mat = []
    for row, b in zip(rows, rhs):
        if len(row) != width:
            raise ValueError("ragged matrix")
        entries = [*row, b]
        if any(e and not e[-1] for e in entries):
            raise ValueError("a Z[t] entry ends in a zero coefficient")
        mat.append(entries)
    pivots: list[int] = []
    dets = [[1]]  # dets[k] = p_k, the pivot of step k
    level = [0] * len(mat)  # row i holds its Bareiss row times p_level[i] / p_current
    r = 0
    for col in range(width):
        found = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if found is None:
            continue
        mat[r], mat[found] = mat[found], mat[r]
        level[r], level[found] = level[found], level[r]
        current = len(dets) - 1
        prev = dets[current]
        pivot_row = mat[r]
        if level[r] != current:
            _catch_up(pivot_row, col, prev, dets[level[r]])
        piv = pivot_row[col]
        for i in range(r + 1, len(mat)):
            row = mat[i]
            if not row[col]:
                continue
            if level[i] != current:
                _catch_up(row, col, prev, dets[level[i]])
            factor = row[col]
            row[col] = []
            for j in range(col + 1, width + 1):
                if pivot_row[j]:
                    row[j] = _zdiv_exact(
                        _zsub(_zmul(piv, row[j]), _zmul(factor, pivot_row[j])), prev
                    )
                elif row[j]:
                    row[j] = _zdiv_exact(_zmul(piv, row[j]), prev)
            level[i] = current + 1
        dets.append(piv)
        pivots.append(col)
        r += 1
    prev = dets[-1]
    if any(row[width] for row in mat[r:]):
        return ParamSolution(consistent=False)
    scaled: dict[int, list[int]] = {}
    for i in range(r - 1, -1, -1):
        row = mat[i]
        acc = _zmul(prev, row[width])
        for k in pivots[i + 1:]:
            if row[k] and scaled[k]:
                acc = _zsub(acc, _zmul(row[k], scaled[k]))
        scaled[pivots[i]] = _zdiv_exact(acc, row[pivots[i]])
    solution = []
    poles = []
    # keyed by the integer coefficients: hashing a UniPoly hashes Fractions
    counts: dict[tuple[int, ...], int] = {}
    for c in range(width):
        f, den = _reduced(scaled.get(c, []), prev)
        key = tuple(den)
        if key not in counts:
            counts[key] = _zpoles_in_unit_interval(den)
        solution.append(f)
        poles.append(counts[key])
    return ParamSolution(consistent=True, solution=solution, pole_counts=poles)


def _catch_up(row, start, prev, lag):
    """Bring a row left behind at pivot ``lag`` to the current pivot ``prev``:
    row[j] = prev * row[j] / lag for j >= start, on its nonzero entries."""
    for j in range(start, len(row)):
        if row[j]:
            row[j] = _zdiv_exact(_zmul(prev, row[j]), lag)
