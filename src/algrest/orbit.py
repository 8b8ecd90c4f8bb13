"""The orbit layer: the Lie action of the liftable fields on restriction
classes, one matrix per admissible shift, and the orbit tangent space of a
class, whose codimension is the symplectic multiplicity.

A field X is liftable with shift s when X(g(t)) = t^{s+1} g'(t); the
admissible shifts are s = 0 and every s >= 1 with lam_i + s in the
semigroup for all i.  The class commands need this layer alone, so they
never run ``symmetry`` (lifts, action tables, Moser reductions, pullback
symmetries), which imports from here what it uses.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, NamedTuple

from .curves import AlgRestriction, MonomialCurve, RestrictionBasis, check_basis_curve, monomials_of_qdeg
from .errors import InputError, LiftError
from .linalg import zcleared, zdenominated, zechelon, zremainder
from .poly import Exponent, Frozen


def _admissible(curve: MonomialCurve, s: int) -> bool:
    """Whether lam_i + s is in the semigroup for all i."""
    return all(curve.in_semigroup(lam + s) for lam in curve.lams)


def admissible_shifts(curve: MonomialCurve, bound: int) -> list[int]:
    """Shift 0 plus every s >= 1 with lam_i + s in the semigroup for all i."""
    return [s for s in range(bound + 1) if _admissible(curve, s)]


def _grlex_exponents(curve: MonomialCurve, s: int) -> tuple[Exponent, ...]:
    """The exponents n_i of the grlex lift X_i = lam_i x^(n_i), one per
    branch coordinate: the graded-lex minimal curve-only exponent of
    quasi-degree lam_i + s, which exists iff s is admissible."""
    if s < 0:
        raise InputError("shift must be nonnegative")
    if not _admissible(curve, s):
        raise LiftError(
            f"no monomial lift exists for shift {s}: some lam_i + {s} is outside the semigroup"
        )
    return tuple(monomials_of_qdeg(curve.lams, lam + s)[-1] for lam in curve.lams)


SparseColumn = tuple[tuple[int, Fraction], ...]
IntColumn = tuple[tuple[int, int], ...]


class ActionMatrix(NamedTuple):
    """The matrix of L_{X_s} on a basis, as M / den: ``den`` is the least
    common denominator of its entries, and ``columns[j]`` lists the (i, m)
    pairs, i ascending, of the nonzero entries of column j of the integer
    matrix M."""

    den: int
    columns: tuple[IntColumn, ...]

    def column(self, j: int) -> SparseColumn:
        """Column j as (i, value) pairs with ``Fraction`` values."""
        den = self.den
        return tuple((i, Fraction(m, den)) for i, m in self.columns[j])


def _reduced_matrix(dim: int, columns: Mapping[int, tuple[int, dict[int, int]]]) -> ActionMatrix:
    """The matrix whose column i is c / K for columns[i] = (K, c), the other
    columns empty, in lowest terms.  Over D = lcm(K) the entries are m =
    c D / K; the reduced denominator of m / D is D / gcd(D, m), and the lcm
    of those over all entries is D / g with g = gcd(D, every m): divide
    both by g."""
    den = math.lcm(*(scale for scale, _ in columns.values()))
    scaled = {
        i: [(k, c * (den // scale)) for k, c in column.items()]
        for i, (scale, column) in columns.items()
    }
    g = math.gcd(den, *(m for column in scaled.values() for _, m in column))
    return ActionMatrix(
        den // g, tuple(tuple((k, m // g) for k, m in scaled.get(i, ())) for i in range(dim))
    )


def _action_matrix(basis: RestrictionBasis, s: int) -> ActionMatrix:
    """The ``ActionMatrix`` of L_{X_s} on the basis elements; built once per
    basis and shift, and kept in ``basis.actions``, with no other copy
    beside it.

    Every column is read in closed form off the exponents n_i of the grlex
    lift X_i = lam_i x^(n_i) (``_grlex_exponents``, which rejects a negative
    or inadmissible shift).  For a representative term x^m dx_a ^ dx_b of
    degree d, L_X(x^m dx_a ^ dx_b) = X(x^m) dx_a ^ dx_b + x^m dX_a ^ dx_b +
    x^m dx_a ^ dX_b, with X(x^m) = sum_i m_i lam_i x^(m - e_i + n_i) and dX_a
    = lam_a sum_k (n_a)_k x^(n_a - e_k) dx_k.  Every term is curve-only, and
    the piece of degree d + s takes each curve-only x^e dx_J to its column
    e_J whatever e is (``curves.GradedPiece``), so the image is the column
    sum w e_ab + lam_a sum_k (n_a)_k e_kb + lam_b sum_k (n_b)_k e_ak, with w
    = sum_i m_i lam_i = d - lam_a - lam_b, summed as one signed row of the
    target piece (``GradedPiece.signed_row``, which orients each e_kb and
    skips zero terms).  At s = 0, n_i = e_i and each sum is d e_ab: A_0 =
    diag(qdeg), the Euler field.

    An element's representative is its closed row r (``basis.closed[d]``)
    over its pivot entry r_p, so its image is summed in integers from r and
    projected in Z (``RestrictionBasis.zproject``, scale K) to the column
    over K r_p; only a column whose target degree has a closed class is
    built.  A negative K r_p is kept: it divides lcm(K) to a negative factor.

    Why one lift serves all.  Two lifts act alike on closed classes: they
    differ by a field Z whose coefficients vanish on the curve, so lie in
    its ideal I.  For a form omega of closed class, L_Z omega = d(i_Z omega)
    + i_Z d omega; i_Z omega has coefficients in I, and i_Z maps I Omega^3 +
    dI ^ Omega^2 into I Omega^2 + dI ^ Omega^1, as i_Z(df ^ beta) = Z(f)
    beta - df ^ i_Z beta with Z(f) in I; so both terms restrict to zero.
    """
    matrix = basis.actions.get(s)
    if matrix is None:
        lams = basis.curve.lams
        exps = _grlex_exponents(basis.curve, s)
        # dX_a as (k, (k,), lam_a (n_a)_k) per nonzero term: the signed_row
        # index k and its one-tuple, built once and not once per column
        dlift = [[(k, (k,), lam * e) for k, e in enumerate(n) if e] for lam, n in zip(lams, exps)]
        built: dict[int, tuple[int, dict[int, int]]] = {}
        for d, entries in basis.by_degree.items():
            if d + s not in basis.by_degree:
                continue
            piece, target = basis.pieces[d], basis.pieces[d + s]
            for (i, _), (p, row) in zip(entries, basis.closed[d].items()):
                terms = []
                for j, r in row.items():
                    a, b = piece.columns[piece.rep_cols[j]]
                    B = (b,)
                    terms.append((a, B, r * (d - lams[a] - lams[b])))
                    terms += [(k, B, r * x) for k, _, x in dlift[a]]
                    terms += [(a, K, r * x) for _, K, x in dlift[b]]
                scale, column = basis.zproject(d + s, target.signed_row(terms))
                built[i] = (scale * row[p], column)
        matrix = _reduced_matrix(basis.dim, built)
        basis.actions[s] = matrix
    return matrix


def _orbit_row(matrix: ActionMatrix, cleared: dict[int, int]) -> dict[int, int]:
    """The nonzero entries of M_s A, by index, for A the cleared class."""
    columns = matrix.columns
    out: dict[int, int] = {}
    for j, x in cleared.items():
        for i, m in columns[j]:
            out[i] = out.get(i, 0) + x * m
    return {i: u for i, u in out.items() if u}


def _restriction(basis: RestrictionBasis, scale: int, row: Mapping[int, int]) -> AlgRestriction:
    """The class with coordinates row / scale, for a row of nonzero integers."""
    return AlgRestriction._trusted(basis, {i: Fraction(row[i], scale) for i in sorted(row)})


def _basis_shifts(basis: RestrictionBasis) -> tuple[int, ...]:
    """The admissible shifts up to top_qdeg - elements[0].qdeg of a nonempty
    basis; computed once and kept in ``basis.shifts``."""
    if basis.shifts is None:
        bound = basis.top_qdeg - basis.elements[0].qdeg
        basis.shifts = tuple(admissible_shifts(basis.curve, bound))
    return basis.shifts


class TangentSpace(Frozen):
    """Orbit tangent space at a restriction class, kept in integers.

    The value is ``base`` and ``shifts``: equality, hash and repr read
    them, and every other slot follows from them.  ``rows`` holds, per
    shift, the pair (K_s, u_s) with L_{X_s} a = u_s / K_s: for a = A / D
    cleared once, u_s is the integer sparse row M_s A (by index, nonzero
    entries only) and K_s = D * den_s.  ``echelon`` is the reduced echelon
    form of those rows over Z (``linalg.zechelon``); ``dim``, ``codim`` and
    ``contains`` read it.  A direction c e_i lies in the span iff i is a
    pivot whose row is e_i alone: pivot rows are fully reduced, so the
    remainder of e_i is e_i when i is no pivot, and else minus its pivot
    row (scaled to 1 at i) off column i, which sits at non-pivot columns.
    Any other direction is cleared to an integer row and reduced in Z.
    ``vectors`` gives the actions as ``AlgRestriction`` objects.
    """

    __slots__ = ("base", "shifts", "rows", "echelon")
    _fields = __slots__[:2]

    def __init__(
        self,
        base: AlgRestriction,
        shifts: tuple[int, ...],
        rows: tuple[tuple[int, dict[int, int]], ...],
    ):
        echelon = zechelon(u for _, u in rows if u)
        self._set(base=base, shifts=shifts, rows=rows, echelon=echelon)

    @property
    def vectors(self) -> tuple[AlgRestriction, ...]:
        basis = self.base.basis
        return tuple(_restriction(basis, scale, row) for scale, row in self.rows)

    @property
    def dim(self) -> int:
        return len(self.echelon)

    @property
    def codim(self) -> int:
        """Codimension in the closed-restriction space: the symplectic multiplicity."""
        return self.base.basis.dim - self.dim

    def contains(self, direction: AlgRestriction) -> bool:
        entries = direction.entries
        if len(entries) == 1:
            return len(self.echelon.get(next(iter(entries)), ())) == 1
        return not zremainder(self.echelon, zcleared(entries))[1]


def orbit_tangent_space(curve: MonomialCurve, a: AlgRestriction) -> TangentSpace:
    """Span of the actions of all admissible X_s at the class a.

    Built once per class and kept in ``a.tangent``.  The shifts are the
    admissible ones up to top_qdeg - min_qdeg, which is >= 0 for a nonzero
    class, cut from the basis's list (``_basis_shifts``), whose bound is
    never smaller; the zero class has none.  The class is cleared once,
    a = A / D, and each action is the integer row M_s A with scale D * den_s.
    """
    check_basis_curve(curve, a.basis)
    tangent = a.tangent
    if tangent is None:
        degs = a.nonzero_qdegs()
        top = a.basis.top_qdeg
        shifts = tuple(s for s in _basis_shifts(a.basis) if s + degs[0] <= top) if degs else ()
        den, cleared = zdenominated(a.entries)
        rows = []
        for s in shifts:
            matrix = _action_matrix(a.basis, s)
            rows.append((den * matrix.den, _orbit_row(matrix, cleared)))
        tangent = a.tangent = TangentSpace(base=a, shifts=shifts, rows=tuple(rows))
    return tangent
