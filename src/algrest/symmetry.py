"""Liftable vector fields, Lie actions on restriction classes, orbit tangent
spaces, Moser-homotopy reduction, and symmetries acting by pullback.

A field X is liftable over the curve g with shift s when X(g(t)) =
t^{s+1} g'(t); such fields act on restriction classes by Lie derivative.
The admissible shifts are s = 0 (the Euler field) and every s >= 1 with
lam_i + s in the semigroup for all i, so each component can be written as
lam_i times a monomial of quasi-degree lam_i + s.  Two deterministic
monomial-choice policies are shipped: ``grlex`` picks the graded-lex
minimal exponent vector, ``pinned`` replays a fixed table of recorded
choices for the three bundled semigroups.  Two choices differ by a field
with coefficients in the curve's ideal, which acts as zero on closed
classes, so the action does not depend on the choice: it is one matrix
per shift, read in closed form off the grlex lift's exponents.  The
policy chooses which fields the action table builds, validates and names.
``forms`` and ``qt`` are read through their modules: orbit queries use neither.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, NamedTuple

from . import forms, qt
from .curves import (
    LIFT_POLICIES,
    AlgRestriction,
    MonomialCurve,
    RestrictionBasis,
    cached_basis,
    check_basis_curve,
    monomials_of_qdeg,
    project,
)
from .errors import InputError, LiftError, NotSymmetryError
from .linalg import (
    ParamSolution, rref, solve_param_linear, zcleared, zdenominated, zechelon, zremainder
)
from .poly import Exponent, Frozen, Polynomial, Scalar


def _admissible(curve: MonomialCurve, s: int) -> bool:
    """Whether lam_i + s is in the semigroup for all i."""
    return all(curve.in_semigroup(lam + s) for lam in curve.lams)


def admissible_shifts(curve: MonomialCurve, bound: int) -> list[int]:
    """Shift 0 plus every s >= 1 with lam_i + s in the semigroup for all i."""
    return [s for s in range(bound + 1) if _admissible(curve, s)]


def nonsemigroup_shifts(curve: MonomialCurve, bound: int) -> list[int]:
    """Admissible positive shifts that are not semigroup elements.

    These exist because admissibility only needs lam_i + s in the semigroup;
    they are genuinely liftable and are reported alongside action tables.
    """
    return [
        s
        for s in admissible_shifts(curve, bound)
        if s > 0 and not curve.in_semigroup(s)
    ]


# Recorded monomial choices per (exponents, shift): one exponent tuple per
# curve coordinate, matching the published generator lists for the three
# bundled semigroups.
_PINNED: dict[tuple[tuple[int, ...], int], tuple[Exponent, ...]] = {
    ((4, 5, 6, 7), 0): ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ((4, 5, 6, 7), 1): ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (2, 0, 0, 0)),
    ((4, 5, 6, 7), 2): ((0, 0, 1, 0), (0, 0, 0, 1), (2, 0, 0, 0), (1, 1, 0, 0)),
    ((4, 5, 6, 7), 3): ((0, 0, 0, 1), (2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0)),
    ((4, 5, 6, 7), 4): ((2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)),
    ((4, 5, 6, 7), 5): ((1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (3, 0, 0, 0)),
    ((4, 5, 6, 7), 6): ((1, 0, 1, 0), (1, 0, 0, 1), (3, 0, 0, 0), (2, 1, 0, 0)),
    ((4, 5, 6), 0): ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((4, 5, 6), 4): ((2, 0, 0), (1, 1, 0), (1, 0, 1)),
    ((4, 5, 6), 5): ((1, 1, 0), (0, 2, 0), (0, 1, 1)),
    ((4, 5, 6), 6): ((1, 0, 1), (0, 1, 1), (0, 0, 2)),
    ((4, 5, 6), 7): ((0, 1, 1), (0, 0, 2), (2, 1, 0)),
    ((4, 5, 6), 8): ((3, 0, 0), (2, 1, 0), (2, 0, 1)),
    ((4, 5, 6), 9): ((2, 1, 0), (1, 2, 0), (1, 1, 1)),
    ((4, 5, 6), 10): ((2, 0, 1), (1, 1, 1), (1, 0, 2)),
    ((4, 5, 7), 0): ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((4, 5, 7), 3): ((0, 0, 1), (2, 0, 0), (0, 2, 0)),
    ((4, 5, 7), 4): ((2, 0, 0), (1, 1, 0), (1, 0, 1)),
    ((4, 5, 7), 5): ((1, 1, 0), (0, 2, 0), (0, 1, 1)),
    ((4, 5, 7), 6): ((0, 2, 0), (1, 0, 1), (2, 1, 0)),
    ((4, 5, 7), 7): ((1, 0, 1), (0, 1, 1), (0, 0, 2)),
    ((4, 5, 7), 8): ((3, 0, 0), (2, 1, 0), (2, 0, 1)),
    ((4, 5, 7), 9): ((2, 1, 0), (1, 2, 0), (1, 1, 1)),
}


class LiftableField(NamedTuple):
    """A validated liftable field: X(g(t)) = t^{s+1} g'(t)."""

    shift: int
    field: forms.VectorField
    policy: str

    def __str__(self) -> str:
        return f"X_{self.shift} = {self.field}"


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


def liftable_field(curve: MonomialCurve, s: int, policy: str = "grlex") -> LiftableField:
    """Build the liftable field X_s under a monomial-choice policy, "grlex"
    or "pinned"; the shift is checked first, under every policy."""
    exps = _grlex_exponents(curve, s)
    lams, m = curve.lams, curve.ambient
    if policy == "pinned":
        exps = _PINNED.get((lams, s))
        if exps is None:
            raise InputError(
                f"no pinned lift stored for curve {lams} and shift {s}; "
                "use the grlex policy"
            )
    elif policy != "grlex":
        raise InputError(f"unknown lift policy {policy!r}; use {' or '.join(LIFT_POLICIES)}")
    pad = (0,) * (m - len(lams))
    field = forms.VectorField(
        [Polynomial.monomial(e + pad, lam) for e, lam in zip(exps, lams)]
        + [Polynomial.zero(m)] * len(pad)
    )
    if not validate_liftable(curve, field, s):
        raise LiftError(
            f"the chosen monomials do not satisfy X(g(t)) = t^{s + 1} g'(t)"
        )
    return LiftableField(shift=s, field=field, policy=policy)


def validate_liftable(curve: MonomialCurve, field: forms.VectorField, s: int) -> bool:
    """Substitution check: X(g(t)) = t^{s+1} g'(t) componentwise, the
    series of X along the curve (``MonomialCurve.series``) against
    lam_i t^(lam_i + s) on each branch component and 0 off the curve."""
    lams = curve.lams
    expected = [{lam + s: lam} for lam in lams] + [{}] * (curve.ambient - len(lams))
    return field.nvars == curve.ambient and curve.series(field.components) == expected


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


def shift_action(a: AlgRestriction, s: int) -> AlgRestriction:
    """Action of X_s on a class: M_s A / (den_s D) for a = A / D.  Every
    lift of X_s acts alike, so no lift policy enters."""
    matrix = _action_matrix(a.basis, s)
    den, cleared = zdenominated(a.entries)
    return _restriction(a.basis, den * matrix.den, _orbit_row(matrix, cleared))


class ActionTable(NamedTuple):
    """Lie actions of every admissible X_s on every basis element: one
    ``ActionMatrix`` per shift, read one sparse column per cell, and the
    lift policy whose fields were built for the table."""

    basis: RestrictionBasis
    policy: str
    shifts: tuple[int, ...]
    matrices: Mapping[int, ActionMatrix]
    nonsemigroup: tuple[int, ...]

    @property
    def curve(self) -> MonomialCurve:
        return self.basis.curve

    @property
    def labels(self) -> tuple[str, ...]:
        return self.basis.labels

    def terms(self, s: int, label: str) -> tuple[tuple[Fraction, str], ...]:
        """The (coefficient, label) pairs of the nonzero coordinates of the
        action of X_s on the element ``label``, in basis order."""
        j = self.basis.label_index.get(label)
        if s not in self.matrices or j is None:
            raise InputError(f"no action entry for shift {s} and label {label!r}")
        labels = self.basis.labels
        return tuple((value, labels[i]) for i, value in self.matrices[s].column(j))

    def entry(self, s: int, label: str) -> AlgRestriction:
        index = self.basis.label_index
        return AlgRestriction._trusted(
            self.basis, {index[target]: value for value, target in self.terms(s, label)}
        )


def _basis_shifts(basis: RestrictionBasis) -> tuple[int, ...]:
    """The admissible shifts up to top_qdeg - elements[0].qdeg of a nonempty
    basis; computed once and kept in ``basis.shifts``."""
    if basis.shifts is None:
        bound = basis.top_qdeg - basis.elements[0].qdeg
        basis.shifts = tuple(admissible_shifts(basis.curve, bound))
    return basis.shifts


def action_table(curve: MonomialCurve, policy: str = "grlex") -> ActionTable:
    """The action table of the curve's cached basis, naming ``policy``.

    The lift of every shift is built and validated under the policy, in
    ascending order, so a policy without a lift fails at its first such
    shift; the matrices are then the one action matrix per shift, which no
    lift policy enters."""
    basis = cached_basis(curve)
    if not basis.elements:
        return ActionTable(basis, policy, (), {}, ())
    bound = basis.top_qdeg - basis.elements[0].qdeg
    shifts = _basis_shifts(basis)
    for s in shifts:
        liftable_field(curve, s, policy)
    return ActionTable(
        basis=basis,
        policy=policy,
        shifts=shifts,
        matrices={s: _action_matrix(basis, s) for s in shifts},
        nonsemigroup=tuple(nonsemigroup_shifts(curve, bound)),
    )


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


class HomotopyResult(NamedTuple):
    """Outcome of a Moser-homotopy reduction attempt."""

    feasible: bool
    consistent: bool
    shifts: tuple[int, ...]
    coefficients: dict[int, qt.RationalFunctionT]
    pole_counts: dict[int, int]


def moser_reduce(
    curve: MonomialCurve,
    a: AlgRestriction,
    kill: AlgRestriction,
) -> HomotopyResult:
    """Try to remove one graded component of a along A_t = a - t*kill.

    Solves sum_s b_s(t) * L_{X_s} A_t = kill for rational functions b_s; the
    reduction is feasible when the system is consistent and the solution has
    no poles in [0, 1].  The shifts and the vectors L_{X_s} a are those of
    the orbit tangent space at a, which the class keeps.

    The action of X_s on kill is read off the same vectors: X_s raises the
    quasi-degree by exactly s, so L_{X_s} kill, for kill the part of a in
    degree d, is the degree-(d + s) part of L_{X_s} a.  Coordinate i of
    degree q thus has the entry v - t*v in the column of the shift q - d,
    and v elsewhere, with v = (L_{X_s} a)_i.

    The system keeps only its live rows: the coordinates i where some
    L_{X_s} a or kill itself is nonzero (L_{X_s} kill is nonzero only
    there).  A dead row reads 0 = 0: it has no entry, so
    ``solve_param_linear`` never writes it or takes it as a pivot, and
    dropping it changes neither the kernel of the matrix nor the solution
    set.  The result depends on those alone: a column is a pivot iff it is
    outside the span of the columns before it, which the kernel decides;
    the system is consistent iff it has a solution; the solution with free
    unknowns at zero is the unique one on the pivot columns; and
    ``RationalFunctionT`` is canonical.  So the coefficients and pole
    counts are those of the full system.

    Each live row is handed over as one sparse row in Z[t], its nonzero
    entries only, scaled by the lcm of its entries' reduced denominators,
    which keeps the solution set; it is built from the tangent space's
    integer rows without a ``Fraction``.
    Write L_{X_s} a = u_s / K_s (the rows of ``TangentSpace``; shift 0
    is among them, as a is nonzero) and let K be the lcm of the K_s, a
    multiple of the class's denominator, so of kill's: kill = k / K in Z.
    Row i is then r / K with r = (u_{s,i} K / K_s for each s, k_i).  The
    reduced denominator of r_j / K is K / gcd(K, r_j), and for divisors of
    K the lcm of K / g_j is K / gcd(g_j), so the lcm over the row is K / G
    with G = gcd(K, r).  The scaled row is therefore r / G, whichever
    common denominator K is: the same integers the ``Fraction``
    construction gives, so ``solve_param_linear`` gets the same input.
    Kill's keys ascend, as the elements' degrees do, so it is one graded
    component iff its first and last keys share the degree.
    """
    kill._check_same_basis(a)
    entries = kill.entries
    if not entries:
        return HomotopyResult(
            feasible=True, consistent=True, shifts=(), coefficients={}, pole_counts={}
        )
    elements = a.basis.elements
    d = elements[next(iter(entries))].qdeg
    if elements[next(reversed(entries))].qdeg != d:
        raise InputError("kill target must be a single graded component")
    if any(a.entries.get(k) != entries.get(k) for k, _ in a.basis.by_degree[d]):
        raise InputError("kill target must equal the graded component of a in its quasi-degree")
    tangent = orbit_tangent_space(curve, a)
    shifts = tangent.shifts
    width = len(shifts)
    big = math.lcm(*(scale for scale, _ in tangent.rows))
    # live[i] = r for coordinate i, sparse: {column j: entry j of r}, kill under width
    live: dict[int, dict[int, int]] = {}
    for j, (scale, column) in enumerate(tangent.rows):
        factor = big // scale
        for i, x in column.items():
            live.setdefault(i, {})[j] = x * factor
    for i, c in entries.items():
        live.setdefault(i, {})[width] = c.numerator * (big // c.denominator)
    column_of = {s: j for j, s in enumerate(shifts)}
    rows = []
    for i in sorted(live):
        g = math.gcd(big, *live[i].values())
        row = {j: [x // g] for j, x in live[i].items()}
        moved = column_of.get(elements[i].qdeg - d)
        if moved in row:
            row[moved].append(-row[moved][0])
        rows.append(row)
    solution: ParamSolution = solve_param_linear(rows, width)
    if not solution.consistent:
        solution = ParamSolution(False, [qt.RationalFunctionT.zero()] * width, [0] * width)
    return HomotopyResult(
        feasible=solution.feasible_on_unit_interval,
        consistent=solution.consistent,
        shifts=shifts,
        coefficients=dict(zip(shifts, solution.solution)),
        pole_counts=dict(zip(shifts, solution.pole_counts)),
    )


def symmetry_constant(curve: MonomialCurve, phi: forms.PolyMap) -> Fraction:
    """Leading reparameterization constant of a curve symmetry.

    Raises a ``NotSymmetryError`` unless phi maps the curve germ to itself,
    i.e. phi(g(t)) = g(phi(t)) for a formal reparameterization phi(t) =
    c*t + higher order terms; returns c.

    Component i of phi(g(t)) leads with c^lam_i, so c is a rational lam_1-th
    root of the first lead, up to sign, and the sign is the one under which
    every lead is c^lam_i.  At most one sign fits: the exponents have gcd 1,
    so some lam_i is odd.
    """
    m = curve.ambient
    if phi.source_dim != m or phi.target_dim != m:
        raise InputError(
            f"map must be an endomorphism of the curve's {m}-dimensional ambient space"
        )
    linear = phi.linear_matrix()
    if rref(linear, m).rank != m:
        raise NotSymmetryError("not a local symmetry of the curve: linear part is singular")
    u = curve.series(phi.components)
    lams = curve.lams
    if any(u[len(lams):]):
        raise NotSymmetryError(
            "not a local symmetry of the curve: an off-curve component is nonzero along it"
        )
    leads: list[Fraction] = []
    for i, lam in enumerate(lams):
        order = min(u[i], default=None)
        if order != lam:
            raise NotSymmetryError(
                f"not a local symmetry of the curve: component {i + 1} has order "
                f"{order} along the curve, expected {lam}"
            )
        leads.append(u[i][lam])
    root = _rational_root(leads[0], lams[0])
    for c in () if root is None else (root, -root):
        if all(lead == c**lam for lead, lam in zip(leads, lams)):
            break
    else:
        raise NotSymmetryError(
            "not a local symmetry of the curve: component leading coefficients "
            "are not powers of a common constant"
        )
    lam1 = lams[0]
    u1 = qt.UniPoly.from_terms(u[0])
    for terms, lam in zip(u[1:], lams[1:]):
        if qt.UniPoly.from_terms(terms) ** lam1 != u1**lam:
            raise NotSymmetryError(
                "not a local symmetry of the curve: components do not share a "
                "common reparameterization"
            )
    return c


def pullback_restriction(
    curve: MonomialCurve,
    phi: forms.PolyMap,
    a: AlgRestriction,
) -> AlgRestriction:
    """Action of a curve symmetry on a restriction class, by pullback."""
    symmetry_constant(curve, phi)
    return project(curve, forms.pullback(phi, a.rep_form()), a.basis)


def _rational_root(value: Fraction, r: int) -> Fraction | None:
    """Exact r-th root of a rational, or None; negative values need odd r."""
    if value == 0:
        return Fraction(0)
    if value < 0:
        if r % 2 == 0:
            return None
        root = _rational_root(-value, r)
        return None if root is None else -root

    def int_root(n: int) -> int | None:
        lo, hi = 0, max(1, n)
        while lo < hi:
            mid = (lo + hi) // 2
            if mid**r < n:
                lo = mid + 1
            else:
                hi = mid
        return lo if lo**r == n else None

    p = int_root(value.numerator)
    q = int_root(value.denominator)
    if p is None or q is None:
        return None
    return Fraction(p, q)


class ScalingResult(NamedTuple):
    """Diagonal scaling symmetry normalizing one basis coefficient."""

    verdict: str
    map: forms.PolyMap | None
    constant: Fraction | None


def scaling_symmetry(curve: MonomialCurve, target: str, value: Scalar) -> ScalingResult:
    """Diagonal symmetry rescaling the coefficient of one basis element.

    The coefficient of a quasi-degree-r element can be driven to 1 when r is
    odd or the value is positive, and to -1 when r is even and the value is
    negative; the map exists whenever the needed r-th root is rational.
    """
    value = Fraction(value)
    if value == 0:
        raise InputError("cannot normalize a zero coefficient")
    r = cached_basis(curve).element(target).qdeg
    if r % 2 == 1 or value > 0:
        verdict = "normalize to 1"
        wanted = Fraction(1) / value
    else:
        verdict = "normalize to -1"
        wanted = Fraction(-1) / value
    u = _rational_root(wanted, r)
    if u is None:
        return ScalingResult(verdict=verdict, map=None, constant=None)
    return ScalingResult(verdict=verdict, map=curve_scaling(curve, u), constant=u)


def curve_scaling(curve: MonomialCurve, c: Scalar) -> forms.PolyMap:
    """The diagonal symmetry x_i -> c^{w_i} x_i, covering t -> c*t."""
    c = Fraction(c)
    if c == 0:
        raise InputError("scaling constant must be nonzero")
    weights = curve.weights
    return forms.PolyMap.diagonal([c ** weights.weight(i) for i in range(curve.ambient)])
