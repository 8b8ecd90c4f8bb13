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

import math
from fractions import Fraction
from typing import NamedTuple

from .curves import (
    AlgRestriction,
    MonomialCurve,
    RestrictionBasis,
    check_basis_curve,
    monomials_of_qdeg,
)
from .errors import InputError
from .linalg import PrefixSolver, zdenominated, zechelon
from .orbit import orbit_tangent_space

Extended = int | float


def symplectic_multiplicity(curve: MonomialCurve, a: AlgRestriction) -> int:
    """Codimension of the orbit of a in the closed-restriction space, read
    off the orbit tangent space that the class keeps; that lookup checks
    the curve."""
    return orbit_tangent_space(curve, a).codim


def _part_quotient_coords(a: AlgRestriction, d: int) -> dict[int, int]:
    """An integer row R of nonzero entries whose quotient by D is the piece
    coordinates of the part of a at degree d: for coefficients x_k / L_k and
    vectors row_k / D_k (``BasisElement``), D = lcm(L_k D_k) and R = sum_k
    x_k (D / (L_k D_k)) row_k."""
    entries = a.entries
    part = [(entries[k], vector) for k, vector in a.basis.by_degree[d] if k in entries]
    den = math.lcm(*[c.denominator * scale for c, (scale, _) in part])
    total: dict[int, int] = {}
    for c, (scale, row) in part:
        x = c.numerator * (den // (c.denominator * scale))
        for j, v in row.items():
            total[j] = total.get(j, 0) + x * v
    return {j: v for j, v in total.items() if v}


def _last_used_tag(
    found: tuple[tuple[int, ...], PrefixSolver], a: AlgRestriction, d: int
) -> int:
    """The tag (height or owner) of the last column that the greedy
    solution for the part of a at degree d uses.

    The pivots of one solve are chosen greedily from the left, so those
    among the first k columns are a basis of their span, and the solution
    with free unknowns at zero is the unique combination of pivots.  Hence
    the part lies in the span of a prefix of the columns iff every column
    the solution uses is in it: the shortest such prefix ends at the last
    used column.
    """
    tags, solver = found
    last = solver.last_used_column(_part_quotient_coords(a, d))
    if last is None:
        raise InputError("quotient coordinates do not come from this graded component")
    return tags[last]


def _isotropy_solver(
    basis: RestrictionBasis, d: int
) -> tuple[tuple[int, ...], PrefixSolver]:
    """The solver of the piece's column classes [e_J] at degree d, ordered by
    decreasing top total degree h(J), with those heights; built once per
    basis and degree, and kept in ``basis.isotropy_solvers``; each class is
    the integer row of e_J reduced in Z (``GradedPiece.zquotient``)."""
    found = basis.isotropy_solvers.get(d)
    if found is None:
        lams = basis.curve.lams
        piece = basis.pieces[d]
        width = len(piece.columns)
        heights = [
            sum(monomials_of_qdeg(lams, d - lams[i] - lams[j])[0]) for i, j in piece.columns
        ]
        order = sorted(range(width), key=lambda c: -heights[c])
        images = [piece.zquotient({c: 1})[1] for c in order]
        found = basis.isotropy_solvers[d] = (
            tuple(heights[c] for c in order),
            PrefixSolver(images, piece.dim),
        )
    return found


def _exact_solver(basis: RestrictionBasis, d: int) -> tuple[tuple[int, ...], PrefixSolver]:
    """The solver of the integer exact rows ``basis.exact[d]``, ordered by
    owner, with their owners; built once per basis and degree, and kept in
    ``basis.exact_solvers``."""
    found = basis.exact_solvers.get(d)
    if found is None:
        owners, vectors = basis.exact[d]
        found = basis.exact_solvers[d] = (owners, PrefixSolver(vectors, basis.pieces[d].dim))
    return found


def index_of_isotropy(curve: MonomialCurve, a: AlgRestriction) -> Extended:
    """Maximal order of vanishing over closed representatives; inf for zero.

    The order of a form is the least total degree of its coefficient
    monomials.  Each nonzero part of quasi-degree d is handled in two steps.

    Closedness costs nothing.  Let omega be any quasi-homogeneous
    representative of a closed class of degree d > 0, of order q.  With the
    Euler field E = sum w_i x_i d/dx_i, omega' = (1/d) d(i_E omega) is
    closed and of order >= q, as i_E raises the coefficient degree by 1 and
    d lowers it by 1.  And [omega'] = [omega]: by Cartan's formula
    d * omega = L_E omega = d(i_E omega) + i_E d omega, so
    omega - omega' = (1/d) i_E d omega.  Write omega = omega0 + z with
    d omega0 = 0 and z of zero restriction; then d omega = dz has zero
    restriction, and so has i_E dz, since E is tangent to the curve (the
    proof in ``RestrictionBasis``).  So the best order over closed
    representatives is the best order over all representatives.

    Over all representatives the answer is closed form.  Modulo the
    zero-restriction space every curve-only term x^m dx_J is the piece's
    column e_J, whatever m is, and every other term is 0
    (``curves.GradedPiece``).  So a column only offers its top total
    degree h(J), that of the first curve-only monomial of quasi-degree
    d - lam_J, and the part has a representative of order q iff it lies in
    the span of the classes [e_J] with h(J) >= q.  With the columns ordered
    by decreasing h these are prefixes, and the answer is h of the last
    column the part's solution uses.  The columns depend on the curve and d
    alone, so their solver is built once (``_isotropy_solver``).
    """
    check_basis_curve(curve, a.basis)
    best: Extended = math.inf
    for d in a.nonzero_qdegs():
        best = min(best, _last_used_tag(_isotropy_solver(a.basis, d), a, d))
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

    The basis keeps the exact classes of all coordinates ordered by i in
    ``exact[d]``, so the classes with i <= j are a prefix and j is the
    coordinate of the last class the part's solution uses, read off the
    basis's solver of those rows (``_exact_solver``).
    """
    check_basis_curve(curve, a.basis)
    if a.is_zero():
        return math.inf
    if iota is None:
        iota = index_of_isotropy(curve, a)
    if iota == 0:
        return None
    best: Extended = math.inf
    for d in a.nonzero_qdegs():
        j = _last_used_tag(_exact_solver(a.basis, d), a, d)
        best = min(best, d - curve.lams[j])
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
    entries1, entries2 = part1.entries, part2.entries
    if entries1.keys() != entries2.keys():
        return PmqdVerdict(kind="not-proportional", qdegs=(d1, d2))
    ratio: Fraction | None = None
    for j, u in entries1.items():
        if ratio is None:
            ratio = entries2[j] / u
        elif entries2[j] / u != ratio:
            return PmqdVerdict(kind="not-proportional", qdegs=(d1, d2))
    return PmqdVerdict(kind="proportional", qdegs=(d1, d2), constant=ratio)


def branch_rank(curve: MonomialCurve, a: AlgRestriction) -> int:
    """Rank of the value omega(0) of a representative of a on the first s
    (branch) coordinates; every representative has the same block.

    A zero-restriction form f alpha + df ^ beta, f vanishing on the curve,
    has the value df(0) ^ beta(0) at 0.  A linear term x_i of f, i on the
    branch, restricts to t^lam_i, which only a monomial of weighted degree
    lam_i in the other branch variables could cancel; none exists, as no
    lam_i is a sum of the others (the curve's constructor enforces it).  So
    every term of df(0) ^ beta(0) has an off-curve differential.  The block
    is read off the integer element rows: the lift of column j = (p, q) at
    degree d is x^m dx_p ^ dx_q with m of weight d - lam_p - lam_q, constant
    iff d = lam_p + lam_q, and element k = (D_k, row_k) puts row_k[j] / D_k at
    (p, q) for those columns only; a class without any has rank 0.  For
    a = A / D the block times D L (L the lcm of the class's D_k) has integer
    entries A_k (L / D_k) row_k[j], of the same rank.  It is computed once
    per class and kept in ``a.block_rank``.
    """
    check_basis_curve(curve, a.basis)
    if a.block_rank is not None:
        return a.block_rank
    lams, elements = curve.lams, a.basis.elements
    _, cleared = zdenominated(a.entries)
    lcm = math.lcm(*(elements[k].vector[0] for k in cleared))
    block: dict[int, dict[int, int]] = {}
    for k, x in cleared.items():
        d, (den, vec) = elements[k].qdeg, elements[k].vector
        piece = a.basis.pieces[d]
        for j, n in vec.items():
            p, q = piece.columns[piece.rep_cols[j]]
            if lams[p] + lams[q] == d:
                value = x * (lcm // den) * n
                row, column = block.setdefault(p, {}), block.setdefault(q, {})
                row[q] = row.get(q, 0) + value
                column[p] = column.get(p, 0) - value
    a.block_rank = len(zechelon({c: v for c, v in row.items() if v} for row in block.values()))
    return a.block_rank


def representable_by_symplectic(curve: MonomialCurve, a: AlgRestriction, n: int) -> bool:
    """Whether some symplectic form on R^{2n} restricts to the class a: iff
    its ``branch_rank`` is at least 2s - 2n."""
    check_basis_curve(curve, a.basis)
    if n < 1:
        raise InputError("the ambient symplectic space needs n >= 1")
    threshold = 2 * curve.branch_dim - 2 * n
    return branch_rank(curve, a) >= threshold


class InvariantReport(NamedTuple):
    """All discrete invariants of one restriction class."""

    mu: int
    iota: Extended
    lt: Extended | None
    min_qdeg: int | None


def invariant_report(curve: MonomialCurve, a: AlgRestriction) -> InvariantReport:
    """The four invariants of a; mu reads the orbit tangent space that the
    class keeps, so a later tangent query or Moser reduction reuses it."""
    located = a.min_qdeg_part()
    iota = index_of_isotropy(curve, a)
    return InvariantReport(
        mu=symplectic_multiplicity(curve, a),
        iota=iota,
        lt=lagrangian_tangency_order(curve, a, iota=iota),
        min_qdeg=None if located is None else located[0],
    )
