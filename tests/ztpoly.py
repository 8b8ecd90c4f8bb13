"""Systems over Q[t] in the Z[t] form that ``linalg.solve_param_linear`` takes."""

from __future__ import annotations

import math


def zt_system(rows, rhs):
    """Rows of ``UniPoly`` entries and their right-hand sides as integer
    coefficient lists, constant term first: each row is scaled by the lcm of
    its coefficient denominators, which leaves the solution unchanged."""
    zrows, zrhs = [], []
    for row, b in zip(rows, rhs):
        entries = [*row, b]
        scale = math.lcm(*(c.denominator for entry in entries for c in entry.coeffs))
        ints = [[c.numerator * (scale // c.denominator) for c in entry.coeffs] for entry in entries]
        zrows.append(ints[:-1])
        zrhs.append(ints[-1])
    return zrows, zrhs
