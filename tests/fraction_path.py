"""The ``Fraction`` path that the integer class queries replaced.

``curves`` keeps the quotient coordinates of piece rows (the labelled
vectors of a basis and its exact rows) as integer rows, and
``invariants`` sums the part of a class from them in integers.  The
references below give the same coordinates as dense ``Fraction`` lists: a
piece row reduced densely by the piece's relations (``reduce_by``), and
the part of a class summed over ``Fraction`` element vectors.  The tests
compare the integer rows with them.
"""

import math
from fractions import Fraction

from algrest.linalg import RrefResult, zdenominated

from test_linalg import reduce_by


def quotient_coords(piece, vec):
    """Dense quotient coordinates of a dense row of piece columns: its
    remainder modulo the relations, each relation divided by its pivot
    entry, read at the representative columns."""
    width = len(piece.columns)
    pivots = sorted(piece.relations)
    rows = [
        [Fraction(piece.relations[p].get(c, 0), piece.relations[p][p]) for c in range(width)]
        for p in pivots
    ]
    work = reduce_by(RrefResult(rows, pivots), [Fraction(v) for v in vec])
    return [work[c] for c in piece.rep_cols]


def zquotient_coords(piece, vec):
    """The quotient coordinates of a dense row as the integer path reads
    them (``GradedPiece.zquotient`` of the cleared row), as a dense list."""
    den, cleared = zdenominated({c: Fraction(v) for c, v in enumerate(vec) if v})
    scale, coords = piece.zquotient(cleared)
    return dense(coords, piece.dim, den * scale)


def dense(row, dim, den=1):
    """The dense ``Fraction`` list of an integer row {index: value} over den."""
    return [Fraction(row.get(j, 0), den) for j in range(dim)]


def element_vectors(basis, d):
    """The quotient vectors of the elements of degree d, in label order, as
    dense ``Fraction`` tuples."""
    dim = basis.pieces[d].dim
    return [tuple(dense(row, dim, den)) for _, (den, row) in basis.by_degree.get(d, [])]


def part_quotient_coords(a, d):
    """The piece coordinates of the part of a at degree d: the sum of its
    coefficients times the dense element vectors, in ``Fraction``."""
    basis = a.basis
    coords = [Fraction(0)] * basis.pieces[d].dim
    for (k, _), vector in zip(basis.by_degree[d], element_vectors(basis, d)):
        coeff = a.entries.get(k)
        if coeff is not None:
            for rho, value in enumerate(vector):
                if value:
                    coords[rho] += coeff * value
    return coords


def part_denominator(a, d):
    """D = lcm(L_k D_k) over the elements k of degree d in a, x_k / L_k the
    coefficient and D_k the pivot entry of the element's integer row: the
    common denominator over which the integer path sums the part."""
    entries = a.entries
    return math.lcm(
        *[entries[k].denominator * den for k, (den, _) in a.basis.by_degree[d] if k in entries]
    )
