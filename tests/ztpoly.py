"""Systems over Q[t] in the sparse Z[t] form that ``linalg.solve_param_linear``
takes, and the dense Bareiss solver it replaced, kept as a reference."""

from __future__ import annotations

import math

from algrest.linalg import (
    ParamSolution,
    _reduced,
    _zdiv_exact,
    _zmul,
    _zpoles_in_unit_interval,
    _zsub,
)


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
