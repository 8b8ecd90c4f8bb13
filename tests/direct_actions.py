"""The all-direct Lie action: every column of every action matrix from a Lie
derivative and ``project``.  It is the reference that the closed-form
construction of ``orbit._action_matrix`` is checked against, and it
shares no code with that construction beyond the closed-class basis.  The
bracket identity [A_s, A_u] = (u - s) A_{s+u} is a tested property of the
direct matrices here, not a construction: no matrix is built from it."""

import itertools
import math
from fractions import Fraction

from algrest.curves import RestrictionBasis, project
from algrest.errors import LiftError
from algrest.forms import lie_derivative
from algrest.orbit import _action_matrix, admissible_shifts
from algrest.symmetry import liftable_field, validate_liftable


def lie_action(curve, lifted, a):
    """Lie derivative of a restriction class along a liftable field."""
    if not validate_liftable(curve, lifted.field, lifted.shift):
        raise LiftError("field fails the liftability substitution check")
    return project(curve, lie_derivative(lifted.field, a.rep_form()), a.basis)


def direct_action_matrix(basis, s, policy="grlex"):
    """Column j lists the (i, value) pairs of the nonzero coordinates of
    L_{X_s} on element j, every column projected."""
    curve = basis.curve
    field = liftable_field(curve, s, policy).field
    return tuple(
        tuple(
            (i, c)
            for i, c in enumerate(project(curve, lie_derivative(field, el.rep), basis).coords)
            if c
        )
        for el in basis.elements
    )


def compose(a, b):
    """The columns of A B, as {row: value} maps, for sparse columns."""
    out = []
    for column in b:
        total = {}
        for k, c in column:
            for i, x in a[k]:
                total[i] = total.get(i, 0) + c * x
        out.append({i: x for i, x in total.items() if x})
    return out


def check_witt_construction(curve):
    """On a fresh basis of the curve, with the direct matrices D_s as the
    oracle: D_0 = diag(qdeg); [D_s, D_u] = (u - s) D_{s+u} for every pair of
    admissible shifts s < u up to top_qdeg - min_qdeg, with D_{s+u} = 0
    past that bound (the Witt algebra); and the built A_s equals D_s for
    every shift, the shifts asked for from the largest down."""
    basis = RestrictionBasis(curve)
    if not basis.elements:
        return
    shifts = admissible_shifts(curve, basis.top_qdeg - basis.elements[0].qdeg)
    direct = {s: direct_action_matrix(basis, s) for s in shifts}
    assert direct[0] == tuple(((j, Fraction(el.qdeg)),) for j, el in enumerate(basis.elements))
    empty = ((),) * basis.dim
    for s, u in itertools.combinations(shifts, 2):
        left = compose(direct[s], direct[u])
        right = compose(direct[u], direct[s])
        target = direct.get(s + u, empty)
        for j in range(basis.dim):
            bracket = {
                i: x
                for i in left[j].keys() | right[j].keys()
                if (x := left[j].get(i, 0) - right[j].get(i, 0))
            }
            expected = {i: (u - s) * x for i, x in target[j]}
            assert bracket == expected, f"[D_{s}, D_{u}] on element {j} of {curve}"
    for s in reversed(shifts):
        matrix = _action_matrix(basis, s)
        columns = tuple(matrix.column(j) for j in range(basis.dim))
        assert columns == direct[s], f"A_{s} of {curve}"
        # the common denominator is the least one
        assert math.gcd(matrix.den, *(m for column in matrix.columns for _, m in column)) == 1
