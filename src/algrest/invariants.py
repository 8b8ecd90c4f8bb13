"""Discrete symplectic invariants of restriction classes.

All four invariants are computed exactly over the rationals: the
symplectic multiplicity (orbit codimension), the index of isotropy
(maximal vanishing order of a closed representative), the Lagrangian
tangency order (maximal tangency to nearby Lagrangian submanifolds), and
proportionality of minimal-degree parts, which separates classes that no
quasi-degree-preserving scaling can identify.  Realizability on R^{2n} is
one exact rank: that of the class's constant part on the branch
coordinates, which every representative shares.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

from .curves import (
    AlgRestriction,
    GradedPiece,
    MonomialCurve,
    monomials_of_qdeg,
    restriction_quotient,
)
from .errors import InputError
from .forms import DifferentialForm, ext_der
from .linalg import rank, solve_linear
from .poly import Exponent, Polynomial, UniPoly

Extended = int | float


def symplectic_multiplicity(
    curve: MonomialCurve, a: AlgRestriction, policy: str = "grlex"
) -> int:
    """Codimension of the orbit of a in the closed-restriction space."""
    from .symmetry import orbit_tangent_space

    return a.basis.dim - orbit_tangent_space(curve, a, policy).dim


def _monomial_columns(curve: MonomialCurve, d: int) -> list[tuple[tuple[int, ...], Exponent]]:
    """Every 2-form term x^m dx_I of quasi-degree d, I lexicographic over the
    ambient coordinates, then m in ``monomials_of_qdeg`` order."""
    w = curve.weights.wvec
    return [
        ((i, j), exps)
        for i, j in itertools.combinations(range(curve.ambient), 2)
        for exps in monomials_of_qdeg(w, d - w[i] - w[j])
    ]


def _quotient_matrix(
    piece: GradedPiece, columns: Sequence[tuple[tuple[int, ...], Exponent]]
) -> list[list[Fraction]]:
    """The quotient map on monomial columns, one row per representative
    column: a curve-only term x^m dx_J maps to the class of the piece's
    column J, and a term with an off-curve variable or differential to 0."""
    branch, width = piece.curve.branch_dim, len(piece.columns)
    images = {
        J: piece.quotient_coords([Fraction(int(c == j)) for c in range(width)])
        for j, J in enumerate(piece.columns)
    }
    rows = [[Fraction(0)] * len(columns) for _ in piece.rep_cols]
    for j, (idx, exps) in enumerate(columns):
        image = images.get(idx)
        if image is not None and not any(exps[branch:]):
            for rho, value in enumerate(image):
                rows[rho][j] = value
    return rows


@lru_cache(maxsize=None)
def _isotropy_system(
    curve: MonomialCurve, d: int
) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[int, ...], int]:
    """The matrix [quotient rows; d-rows] of ``_vanishing_order_bound`` with
    its columns ordered by decreasing total degree, the total degree of each
    ordered column, and the number of d-rows; built once per (curve, d)."""
    columns = _monomial_columns(curve, d)
    degrees = [sum(exps) for _, exps in columns]
    order = sorted(range(len(columns)), key=lambda j: -degrees[j])
    der: dict[tuple, list[Fraction]] = {}
    for j, (idx, exps) in enumerate(columns):
        column = DifferentialForm.from_term(curve.ambient, idx, Polynomial.monomial(exps))
        for didx, poly in ext_der(column).coeffs.items():
            for dexps, coeff in poly:
                der.setdefault((didx, dexps), [Fraction(0)] * len(columns))[j] = coeff
    piece = restriction_quotient(curve, 2, d)
    rows = tuple(
        tuple(row[j] for j in order)
        for row in _quotient_matrix(piece, columns) + list(der.values())
    )
    return rows, tuple(degrees[j] for j in order), len(der)


def _vanishing_order_bound(curve: MonomialCurve, d: int, part_coords: Sequence[Fraction]) -> int:
    """Largest q such that some closed form in the class vanishes to order q.

    The unknowns theta are the coefficients on the monomial 2-form columns
    of quasi-degree d, ordered by decreasing total degree.  theta must
    project onto the given quotient coordinates and be closed as a form:
    [quotient rows; d-rows] theta = (part, 0), with one d-row per 3-form
    term that occurs in the derivative of a column.

    The class has a representative of order q exactly when the right-hand
    side lies in the span of the columns of degree >= q, a prefix of the
    order.  The pivot columns of one solve are chosen greedily, so those in
    any prefix are a basis of that prefix's span, and the solution with
    free unknowns at zero is the unique combination of pivots.  Hence q is
    feasible iff every pivot the solution uses has degree >= q, and the
    answer is the least degree of a used pivot (max degree + 1 when none
    is used).
    """
    rows, degrees, nder = _isotropy_system(curve, d)
    rhs = [Fraction(v) for v in part_coords] + [Fraction(0)] * nder
    solution = solve_linear(rows, rhs)
    if solution is None:
        raise InputError("quotient coordinates do not come from this graded component")
    used = [deg for deg, x in zip(degrees, solution) if x]
    return min(used, default=max(degrees, default=0) + 1)


def _part_quotient_coords(a: AlgRestriction, d: int) -> list[Fraction]:
    piece = restriction_quotient(a.basis.curve, 2, d)
    coords = [Fraction(0)] * len(piece.rep_cols)
    for el, coeff in zip(a.basis.elements, a.coords):
        if coeff and el.qdeg == d:
            for rho, value in enumerate(el.vector):
                coords[rho] += coeff * value
    return coords


def index_of_isotropy(curve: MonomialCurve, a: AlgRestriction) -> Extended:
    """Maximal order of vanishing over closed representatives; inf for zero."""
    if a.is_zero():
        return math.inf
    best: Extended = math.inf
    for d in a.nonzero_qdegs():
        best = min(best, _vanishing_order_bound(curve, d, _part_quotient_coords(a, d)))
    return best


def lagrangian_tangency_order(
    curve: MonomialCurve,
    a: AlgRestriction,
    iota: Extended | None = None,
) -> Extended | None:
    """Maximal tangency order with Lagrangian submanifolds.

    Returns inf for the zero class, None when the index of isotropy is 0
    (the order is then governed directly by the first nonzero quasi-degree
    and is not computed here), and min over nonzero graded parts of
    d - lam_j otherwise, where j is the smallest coordinate whose span of
    exact classes d(m dx_i), i <= j, captures the part.  Pass a
    precomputed index of isotropy as ``iota`` to skip recomputing it.

    Each part is solved once against the exact classes of all coordinates,
    ordered by i as the basis keeps them in ``exact[d]``.  The classes with
    i <= j are a prefix, and the greedy pivots in a prefix are a basis of
    its span, so the part lies in that span iff every pivot its solution
    uses has i <= j: the smallest j is the largest i among the used pivots.
    """
    if a.is_zero():
        return math.inf
    if iota is None:
        iota = index_of_isotropy(curve, a)
    if iota == 0:
        return None
    best: Extended = math.inf
    for d in a.nonzero_qdegs():
        coords = _part_quotient_coords(a, d)
        owners, vectors = a.basis.exact[d]
        rows = [[vec[r] for vec in vectors] for r in range(len(coords))]
        solution = solve_linear(rows, coords)
        assert solution is not None, "a nonzero part must lie in the full exact span"
        j = max((i for i, x in zip(owners, solution) if x), default=0)
        best = min(best, d - curve.lams[j])
    return best


def tangency_order(
    curve_or_components: MonomialCurve | Sequence[UniPoly],
    constraints: Sequence[Polynomial],
) -> Extended:
    """Minimal vanishing order of the constraints along a parameterized curve."""
    if isinstance(curve_or_components, MonomialCurve):
        components = curve_or_components.images()
    else:
        components = list(curve_or_components)
    best: Extended = math.inf
    for h in constraints:
        if h.nvars != len(components):
            raise InputError(
                f"constraint in {h.nvars} variables does not match a curve with "
                f"{len(components)} components"
            )
        along = h.substitute(components)
        order = along.order()
        if order is not None:
            best = min(best, order)
    return best


class PmqdVerdict(NamedTuple):
    """Comparison of the minimal nonzero quasi-degree parts of two classes."""

    kind: str
    qdegs: tuple[int | None, int | None]
    constant: Fraction | None = None

    def __str__(self) -> str:
        if self.kind == "proportional":
            return f"proportional with constant {self.constant}"
        return self.kind.replace("-", " ")


def pmqd_compare(a1: AlgRestriction, a2: AlgRestriction) -> PmqdVerdict:
    """Compare minimal-degree parts: equal classes under scalings must agree."""
    a1._check_same_basis(a2)
    p1 = a1.min_qdeg_part()
    p2 = a2.min_qdeg_part()
    if p1 is None and p2 is None:
        return PmqdVerdict(kind="both-zero", qdegs=(None, None))
    if p1 is None or p2 is None:
        return PmqdVerdict(
            kind="one-zero",
            qdegs=(None if p1 is None else p1[0], None if p2 is None else p2[0]),
        )
    (d1, part1), (d2, part2) = p1, p2
    if d1 != d2:
        return PmqdVerdict(kind="not-proportional", qdegs=(d1, d2))
    ratio: Fraction | None = None
    for u, v in zip(part1.coords, part2.coords):
        if not u and not v:
            continue
        if not u or not v:
            return PmqdVerdict(kind="not-proportional", qdegs=(d1, d2))
        if ratio is None:
            ratio = v / u
        elif v / u != ratio:
            return PmqdVerdict(kind="not-proportional", qdegs=(d1, d2))
    return PmqdVerdict(kind="proportional", qdegs=(d1, d2), constant=ratio)


def representable_by_symplectic(curve: MonomialCurve, a: AlgRestriction, n: int) -> bool:
    """Whether some symplectic form on R^{2n} restricts to the class a.

    The class is realizable iff the value omega(0) of a representative on
    the first s (branch) coordinates has rank at least 2s - 2n, and every
    representative has the same block.  A zero-restriction form
    f alpha + df ^ beta, f vanishing on the curve, has the value
    df(0) ^ beta(0) at 0.  A linear term x_i of f, i on the branch,
    restricts to t^lam_i, which only a monomial of weighted degree lam_i in
    the other branch variables could cancel; none exists, as no lam_i is a
    sum of the others (the curve's constructor enforces it).  So every term
    of df(0) ^ beta(0) has an off-curve differential.  The block is read
    off the constant terms of the basis representatives.
    """
    if n < 1:
        raise InputError("the ambient symplectic space needs n >= 1")
    s = curve.branch_dim
    threshold = 2 * s - 2 * n
    if threshold <= 0:
        return True
    block = [[Fraction(0)] * s for _ in range(s)]
    for el, coeff in zip(a.basis.elements, a.coords):
        if coeff:
            for (i, j), poly in el.rep.coeffs.items():
                value = coeff * poly.constant_term()
                block[i][j] += value
                block[j][i] -= value
    return rank(block, s) >= threshold


class InvariantReport(NamedTuple):
    """All discrete invariants of one restriction class."""

    mu: int
    iota: Extended
    lt: Extended | None
    min_qdeg: int | None


def invariant_report(
    curve: MonomialCurve, a: AlgRestriction, policy: str = "grlex"
) -> InvariantReport:
    located = a.min_qdeg_part()
    iota = index_of_isotropy(curve, a)
    return InvariantReport(
        mu=symplectic_multiplicity(curve, a, policy),
        iota=iota,
        lt=lagrangian_tangency_order(curve, a, iota=iota),
        min_qdeg=None if located is None else located[0],
    )
