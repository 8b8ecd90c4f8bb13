"""Discrete symplectic invariants of restriction classes.

All four invariants are computed exactly over the rationals: the
symplectic multiplicity (orbit codimension), the index of isotropy
(maximal vanishing order of a closed representative), the Lagrangian
tangency order (maximal tangency to nearby Lagrangian submanifolds), and
proportionality of minimal-degree parts, which separates classes that no
quasi-degree-preserving scaling can identify.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .curves import (
    AlgRestriction,
    GradedPiece,
    MonomialCurve,
    monomials_of_qdeg,
    restriction_quotient,
)
from .errors import InputError
from .forms import DifferentialForm, ext_der
from .linalg import solve_linear
from .poly import Polynomial, UniPoly

Extended = int | float


def symplectic_multiplicity(
    curve: MonomialCurve, a: AlgRestriction, policy: str = "grlex"
) -> int:
    """Codimension of the orbit of a in the closed-restriction space."""
    from .symmetry import orbit_tangent_space

    return a.basis.dim - orbit_tangent_space(curve, a, policy).dim


def _quotient_matrix(piece: GradedPiece) -> list[list[Fraction]]:
    """The quotient map, one row per representative column, read off the
    reduced zero-restriction rows: a representative column c maps to the
    unit vector at c, and the pivot p of a zero row maps to minus that
    row's entries at the representative columns."""
    rows = [[Fraction(0)] * len(piece.columns) for _ in piece.rep_cols]
    for rho, c in enumerate(piece.rep_cols):
        rows[rho][c] = Fraction(1)
        for zrow, p in zip(piece.zrows, piece.zpivots):
            rows[rho][p] = -zrow[c]
    return rows


def _vanishing_order_bound(piece: GradedPiece, part_coords: Sequence[Fraction]) -> int:
    """Largest q such that some closed form in the class vanishes to order q.

    The unknowns theta are the coefficients on the columns of the graded
    component, ordered by decreasing total degree.  theta must project onto
    the given quotient coordinates and be closed as a form:
    [quotient rows; d-rows] theta = (part, 0).

    The class has a representative of order q exactly when the right-hand
    side lies in the span of the columns of degree >= q, a prefix of the
    order.  The pivot columns of one solve are chosen greedily, so those in
    any prefix are a basis of that prefix's span, and the solution with
    free unknowns at zero is the unique combination of pivots.  Hence q is
    feasible iff every pivot the solution uses has degree >= q, and the
    answer is the least degree of a used pivot (max degree + 1 when none
    is used).
    """
    ncols = len(piece.columns)
    degrees = [sum(exps) for _, exps in piece.columns]
    order = sorted(range(ncols), key=lambda j: -degrees[j])
    piece3 = restriction_quotient(piece.curve, 3, piece.d)
    der_rows = [[Fraction(0)] * ncols for _ in piece3.columns]
    for j in range(ncols):
        for didx, poly in ext_der(piece.column_form(j)).coeffs.items():
            for dexps, coeff in poly:
                der_rows[piece3.index[(didx, dexps)]][j] = coeff
    rows = [[row[j] for j in order] for row in _quotient_matrix(piece) + der_rows]
    rhs = [Fraction(v) for v in part_coords] + [Fraction(0)] * len(der_rows)
    solution = solve_linear(rows, rhs)
    if solution is None:
        raise InputError("quotient coordinates do not come from this graded component")
    used = [degrees[j] for j, x in zip(order, solution) if x]
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
        piece = restriction_quotient(curve, 2, d)
        best = min(best, _vanishing_order_bound(piece, _part_quotient_coords(a, d)))
    return best


def _lagrangian_span_vectors(
    curve: MonomialCurve, d: int, i: int
) -> list[list[Fraction]]:
    """Quotient coordinates of [d(m dx_i)] for qdeg(m) = d - lam_i."""
    piece = restriction_quotient(curve, 2, d)
    pad = (0,) * (curve.ambient - len(curve.lams))
    vectors: list[list[Fraction]] = []
    for exps in monomials_of_qdeg(curve.lams, d - curve.lams[i]):
        one_form = DifferentialForm.from_term(
            curve.ambient, (i,), Polynomial.monomial(exps + pad)
        )
        vec = piece.vectorize(ext_der(one_form))
        vectors.append(list(piece.quotient_coords(vec)))
    return vectors


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
    ordered by i.  The classes with i <= j are a prefix, and the greedy
    pivots in a prefix are a basis of its span, so the part lies in that
    span iff every pivot its solution uses has i <= j: the smallest j is
    the largest i among the used pivots.
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
        owners: list[int] = []
        vectors: list[list[Fraction]] = []
        for i in range(len(curve.lams)):
            span = _lagrangian_span_vectors(curve, d, i)
            owners += [i] * len(span)
            vectors += span
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


@dataclass(frozen=True)
class PmqdVerdict:
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


def _pfaffian_principal(block: list[list[Polynomial]], rows: Sequence[int]) -> Polynomial:
    """Pfaffian of a principal 2x2 or 4x4 antisymmetric polynomial block."""
    if len(rows) == 2:
        i, j = rows
        return block[i][j]
    i, j, k, l = rows
    return (
        block[i][j] * block[k][l]
        - block[i][k] * block[j][l]
        + block[i][l] * block[j][k]
    )


def representable_by_symplectic(
    curve: MonomialCurve, a: AlgRestriction, n: int
) -> bool:
    """Whether some symplectic form on R^{2n} restricts to the class a.

    Decided by the generic rank, over all representatives, of the constant
    part of the 2-form on the first s coordinates: the class is realizable
    iff that rank is at least 2s - 2n.
    """
    if n < 2:
        raise InputError("the ambient symplectic space needs n >= 2")
    s = len(curve.lams)
    threshold = 2 * s - 2 * n
    if threshold <= 0:
        return True
    if threshold > 4:
        raise InputError(
            "generic-rank computation is implemented for thresholds up to 4 "
            "(curves with at most four branch coordinates beyond n)"
        )
    nparams = 0
    adjustments: list[list[list[Fraction]]] = []
    rep = a.rep_form()
    constant: list[list[Fraction]] = [[Fraction(0)] * s for _ in range(s)]
    for i in range(s):
        for j in range(i + 1, s):
            c = rep.coefficient((i, j)).constant_term()
            constant[i][j] = c
            constant[j][i] = -c
    zero_exps = (0,) * curve.ambient
    seen_degrees = set()
    for i in range(s):
        for j in range(i + 1, s):
            d = curve.lams[i] + curve.lams[j]
            if d in seen_degrees:
                continue
            seen_degrees.add(d)
            piece = restriction_quotient(curve, 2, d)
            for zrow in piece.zrows:
                adj = [[Fraction(0)] * s for _ in range(s)]
                nonzero = False
                for p in range(s):
                    for q in range(p + 1, s):
                        key = ((p, q), zero_exps)
                        pos = piece.index.get(key)
                        if pos is not None and zrow[pos]:
                            adj[p][q] = zrow[pos]
                            adj[q][p] = -zrow[pos]
                            nonzero = True
                if nonzero:
                    adjustments.append(adj)
                    nparams += 1
    block: list[list[Polynomial]] = [
        [Polynomial.constant(nparams, constant[i][j]) for j in range(s)]
        for i in range(s)
    ]
    for k, adj in enumerate(adjustments):
        for i in range(s):
            for j in range(s):
                if adj[i][j]:
                    block[i][j] = block[i][j] + Polynomial.monomial(
                        tuple(1 if v == k else 0 for v in range(nparams)), adj[i][j]
                    )
    generic_rank = 0
    for size in (2, 4):
        if size > s:
            break
        found = False
        for rows in itertools.combinations(range(s), size):
            if not _pfaffian_principal(block, rows).is_zero():
                found = True
                break
        if found:
            generic_rank = size
        else:
            break
    return generic_rank >= threshold


@dataclass(frozen=True)
class InvariantReport:
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
