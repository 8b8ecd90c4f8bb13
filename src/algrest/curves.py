"""Graded algebraic-restriction engine for monomial curve germs.

A curve ``g(t) = (t^l1, ..., t^ls, 0, ..., 0)`` induces, in each quasi-degree
d, a finite quotient of the quasi-homogeneous k-forms by the subspace of
forms with zero restriction (forms vanishing on the curve plus exact
differentials of vanishing forms).  ``GradedPiece`` builds one such
piece exactly from the Kaehler presentation of the semigroup ring, with one
column per branch k-subset; ``RestrictionBasis`` scans the degrees below the
certified stop ``stop_qdeg`` and labels the classes of closed 2-forms, and
``project`` expresses any closed polynomial 2-form in that basis.  Closed
classes are exact: each degree's closed classes are spanned by the classes
of d(x^m dx_i), so no 3-form piece is ever built.

Everything is exact over Q.  A curve's basis owns its 2-form pieces and
all per-curve state built for class queries (Lie action matrices, prefix
solvers); ``cached_basis`` keeps the bases of a bounded number of curves,
so evicting a curve frees its basis and what the basis holds.  The
module-level memos ``monomials_of_qdeg`` and ``binomial_span``, unbounded
and keyed by exponent tuples, outlive the eviction (ROADMAP item 5).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple

from . import forms
from .errors import InputError, NotClosedError
from .linalg import rref, zcleared, zdenominated, zechelon, zremainder
from .poly import Exponent, Frozen, Scalar, _as_fraction, add_into, form_str, grlex_key, signed_sum

if TYPE_CHECKING:
    from .linalg import PrefixSolver
    from .orbit import ActionMatrix, TangentSpace

_ZERO = Fraction(0)

# the monomial-choice policies of the liftable fields (``symmetry``): the
# CLI offers them, so they live in a module that every command runs
LIFT_POLICIES = ("grlex", "pinned")


class MonomialCurve(Frozen):
    """The germ t -> (t^l1, ..., t^ls, 0, ..., 0) in ``ambient`` variables;
    ``ambient`` 0 means ``len(lams)``."""

    __slots__ = ("lams", "ambient")
    _fields = __slots__

    def __init__(self, lams: Iterable[int], ambient: int = 0):
        lams = tuple(int(v) for v in lams)
        if not lams:
            raise InputError("need at least one exponent")
        if any(v <= 0 for v in lams):
            raise InputError("exponents must be positive")
        if any(a >= b for a, b in zip(lams, lams[1:])):
            raise InputError("exponents must be strictly increasing")
        g = 0
        for v in lams:
            g = gcd(g, v)
        if g != 1:
            raise InputError("exponents must have gcd 1 (reparameterize the curve)")
        for i, v in enumerate(lams):
            others = lams[:i] + lams[i + 1:]
            if others and monomials_of_qdeg(others, v):
                raise InputError(f"exponent {v} is generated by the others; drop it")
        ambient = ambient or len(lams)
        if ambient < len(lams):
            raise InputError("ambient dimension smaller than the exponent list")
        self._set(lams=lams, ambient=int(ambient))

    @property
    def branch_dim(self) -> int:
        """Number of curve-supported coordinates."""
        return len(self.lams)

    @property
    def weights(self) -> forms.Weights:
        return forms.Weights(self.lams, self.ambient)

    def power_of(self, exps: Exponent) -> int | None:
        """The restriction rule: x^e is t^<e, lam> along the curve, and 0
        (None) when e has an exponent on an off-curve variable."""
        lams = self.lams
        return None if any(exps[len(lams):]) else sum(e * w for e, w in zip(exps, lams))

    def series(self, polys: Iterable[forms.Polynomial]) -> list[dict[int, Fraction]]:
        """Each polynomial along the curve, as {t-power: coefficient} of its
        nonzero coefficients: the term c x^e adds c at ``power_of(e)``."""
        out = []
        for poly in polys:
            terms: dict[int, Fraction] = {}
            for exps, c in poly.terms.items():
                if (q := self.power_of(exps)) is not None:
                    add_into(terms, q, c)
            out.append(terms)
        return out

    def in_semigroup(self, value: int) -> bool:
        """Whether some curve-only monomial has quasi-degree ``value``.

        The exponents have gcd 1, so every value >= (lam_1 - 1)(lam_s - 1)
        is an element (Schur's bound; Brauer, "On a problem of partitions",
        1942) and only smaller values are enumerated.
        """
        lams = self.lams
        if value >= (lams[0] - 1) * (lams[-1] - 1):
            return True
        return bool(monomials_of_qdeg(lams, value))

    @property
    def conductor(self) -> int:
        """Least c with every integer >= c in the semigroup: the start of
        the first run of lam_1 consecutive elements."""
        v = run = 0
        while run < self.lams[0]:
            run = run + 1 if self.in_semigroup(v) else 0
            v += 1
        return v - run

    def __str__(self) -> str:
        return "(" + ", ".join(f"t^{v}" for v in self.lams) + ")"


@lru_cache(maxsize=None)
def monomials_of_qdeg(wvec: tuple[int, ...], d: int) -> tuple[Exponent, ...]:
    """All exponent tuples with weighted degree d, graded-lex descending."""
    if d < 0:
        return ()

    def extend(pos: int, remaining: int) -> list[Exponent]:
        w = wvec[pos]
        if pos == len(wvec) - 1:
            return [] if remaining % w else [(remaining // w,)]
        out = []
        for e in range(remaining // w + 1):
            for tail in extend(pos + 1, remaining - e * w):
                out.append((e,) + tail)
        return out

    mons = extend(0, d) if wvec else [()] if d == 0 else []
    mons.sort(key=grlex_key, reverse=True)
    return tuple(mons)


def ideal_graded_basis(curve: MonomialCurve, qdeg: int) -> tuple[forms.Polynomial, ...]:
    """Basis of quasi-homogeneous polynomials of the given quasi-degree
    vanishing on the curve.

    A monomial with an off-curve variable restricts to 0, and every
    curve-only monomial of quasi-degree e restricts to exactly t^e.  So the
    degree-e part of the ideal is spanned by the off-curve monomials and
    by x^m - x^m0 for the curve-only monomials m after the first one, m0:
    the binomial ideal of a monomial curve (Sturmfels, "Groebner Bases and
    Convex Polytopes", 1996, ch. 4).
    """
    branch = curve.branch_dim
    basis: list[forms.Polynomial] = []
    first: forms.Polynomial | None = None
    for m in monomials_of_qdeg(curve.weights.wvec, qdeg):
        mono = forms.Polynomial.monomial(m)
        if any(m[branch:]):
            basis.append(mono)
        elif first is None:
            first = mono
        else:
            basis.append(mono - first)
    return tuple(basis)


@lru_cache(maxsize=None)
def binomial_span(lams: tuple[int, ...], e: int) -> dict[int, dict[int, int]]:
    """Reduced echelon form of V_e, as ``zechelon`` integer pivot rows: the
    span of m - m0 over the curve-only exponents m of quasi-degree e, m0
    the first, which are the exponents of the binomials that span the
    curve-only part of the ideal in degree e."""
    mons = monomials_of_qdeg(lams, e)
    return zechelon(
        {i: a - b for i, (a, b) in enumerate(zip(m, mons[0])) if a != b} for m in mons[1:]
    )


class GradedPiece(Frozen):
    """The graded piece of k-form restrictions in quasi-degree d: k-forms
    of quasi-degree d modulo the forms with zero restriction.

    The zero-restriction space is I Omega^k + dI ^ Omega^(k-1), since
    d(f beta) = df ^ beta + f d(beta), so the piece is the degree-d part of
    the Kaehler k-forms of the semigroup ring (Kunz, "Kaehler
    Differentials", 1986).  Modulo I, terms with an off-curve variable or
    differential vanish and the curve-only terms x^m dx_J of degree d are
    all equal: one column e_J per branch k-subset J with d - lam_J in the
    semigroup (``columns``, and ``column_of`` maps each J to its column).
    As d(x^m - x^m0) ^ dx_K = sum_i v_i e_i ^ e_K mod I with v = m - m0,
    each branch (k-1)-subset K and row v of V_(d - lam_K) give the relation
    ``signed_row`` of the terms (i, K, v_i); off-curve generators of I give
    none.  ``relations`` is their reduced echelon form, as ``zechelon``
    integer pivot rows.

    The non-pivot columns of a reduced echelon form are the right-greedy
    quotient basis (``rep_cols``): a column is one iff its class is
    independent of the classes of the later columns.  Over all monomial
    columns (J lexicographic, then ``monomials_of_qdeg`` order) each
    curve-only column of J has class e_J and every other column class 0,
    so that choice is the last curve-only monomial of the non-pivot J here,
    which ``rep_form`` lifts: the representatives and quotient coordinates
    are those of eliminating every monomial column.  ``coords_terms`` gives
    the term map of a combination of them, which ``poly.form_str`` prints
    without building a form.

    The value is (curve, k, d); the other slots follow from it and are
    left out of equality, hash and repr."""

    __slots__ = ("curve", "k", "d", "columns", "column_of", "relations", "rep_cols")
    _fields = __slots__[:3]

    def __init__(self, curve: MonomialCurve, k: int, d: int):
        if k < 0:
            raise InputError("form degree must be nonnegative")
        if d < 0:
            raise InputError("quasi-degree must be nonnegative")
        lams = curve.lams
        branch = range(len(lams))
        columns = tuple(
            J
            for J in itertools.combinations(branch, k)
            if curve.in_semigroup(d - sum(lams[i] for i in J))
        )
        self._set(
            curve=curve, k=k, d=d, columns=columns, column_of={J: c for c, J in enumerate(columns)}
        )
        relations = zechelon(
            self.signed_row((i, K, x) for i, x in v.items())
            for K in (itertools.combinations(branch, k - 1) if k else ())
            for v in binomial_span(lams, d - sum(lams[i] for i in K)).values()
        )
        rep_cols = tuple(c for c in range(len(columns)) if c not in relations)
        self._set(relations=relations, rep_cols=rep_cols)

    @property
    def dim(self) -> int:
        return len(self.rep_cols)

    def vectorize(self, form: forms.DifferentialForm) -> list[Fraction]:
        """Coordinates of a quasi-homogeneous degree-d k-form: x^e dx_J counts
        at column J if x^e is on the curve (``power_of``), as d - lam_J is
        then in the semigroup, and a term off the curve restricts to 0."""
        if form.nvars != self.curve.ambient:
            raise InputError("form variable count does not match the curve")
        if form.degree != self.k:
            raise InputError(f"expected a {self.k}-form")
        curve = self.curve
        weights = curve.weights
        vec = [Fraction(0)] * len(self.columns)
        for idx, poly in form.coeffs.items():
            for exps, coeff in poly.terms.items():
                if weights.qdeg_term(exps, idx) != self.d:
                    raise InputError(
                        f"term x^{exps} dx{idx} is not quasi-homogeneous of degree {self.d}"
                    )
                if idx in self.column_of and curve.power_of(exps) is not None:
                    vec[self.column_of[idx]] += coeff
        return vec

    def signed_row(self, terms: Iterable[tuple[int, tuple[int, ...], int]]) -> dict[int, int]:
        """The integer row of sum x e_i ^ e_K over the (i, K, x) terms, K an
        increasing (k-1)-tuple, nonzero entries only: e_i ^ e_K is
        (-1)^#{j in K : j < i} e_(K + i), and 0 when i is in K; a term with
        x = 0 is skipped, as its column need not exist."""
        column_of = self.column_of
        row: dict[int, int] = {}
        for i, K, x in terms:
            if x and i not in K:
                n = bisect_left(K, i)
                c = column_of[K[:n] + (i,) + K[n:]]
                row[c] = row.get(c, 0) + (-x if n & 1 else x)
        return {c: x for c, x in row.items() if x}

    def zquotient(self, vec: dict[int, int]) -> tuple[int, dict[int, int]]:
        """(K, {j: c}) for an integer row of piece columns (nonzero entries):
        reduced in Z by the relations to R with scale K (``zremainder``),
        its quotient coordinates are c / K for c = R at representative j."""
        scale, work = zremainder(self.relations, vec)
        return scale, {j: work[c] for j, c in enumerate(self.rep_cols) if c in work}

    def coords_terms(self, den: int, row: Mapping[int, int]) -> dict:
        """The term map {J: {m: c / den}} (``poly.form_str``) of the form
        sum_j (row_j / den) x^m dx_J over the nonzero entries c = row_j, J
        the j-th representative column and m the last curve-only exponent
        of quasi-degree d - lam_J, padded to the ambient: distinct j have
        distinct J, so no two terms merge."""
        lams = self.curve.lams
        pad = (0,) * (self.curve.ambient - len(lams))
        terms = {}
        for j, c in row.items():
            J = self.columns[self.rep_cols[j]]
            m = monomials_of_qdeg(lams, self.d - sum(lams[i] for i in J))[-1]
            terms[J] = {m + pad: Fraction(c, den)}
        return terms

    def coords_to_form(self, den: int, row: Mapping[int, int]) -> forms.DifferentialForm:
        """The form of ``coords_terms(den, row)``."""
        n = self.curve.ambient
        coeffs = {J: forms.Polynomial._trusted(n, t) for J, t in self.coords_terms(den, row).items()}
        return forms.DifferentialForm._trusted(self.k, n, coeffs)

    def rep_form(self, j: int) -> forms.DifferentialForm:
        """The lift x^m dx_J of the j-th representative column."""
        return self.coords_to_form(1, {j: 1})


def restriction_quotient(curve: MonomialCurve, k: int, d: int) -> GradedPiece:
    """The graded piece of k-form restrictions in quasi-degree d,
    ``GradedPiece(curve, k, d)``: the public name, and the one call per
    piece that ``RestrictionBasis`` makes."""
    return GradedPiece(curve, k, d)


class BasisElement(NamedTuple):
    """One labeled basis class of closed 2-form restrictions; ``vector`` = (D,
    row) gives its quotient coordinates row / D in ``piece``, row its row in
    ``closed``.  ``text`` prints its representative form from the term map
    of ``GradedPiece.coords_terms``, so printing a basis runs no ``forms``;
    ``rep``, the form itself, is built on each read, by the LaTeX printer,
    ``AlgRestriction.rep_form`` and the tests."""

    label: str
    qdeg: int
    vector: tuple[int, dict[int, int]]
    piece: GradedPiece

    @property
    def rep(self) -> forms.DifferentialForm:
        return self.piece.coords_to_form(*self.vector)

    @property
    def text(self) -> str:
        return form_str(self.piece.coords_terms(*self.vector))


def _degree_labels(d: int, count: int) -> list[str]:
    if count == 1:
        return [f"a{d}"]
    if count == 2:
        return [f"a{d}+", f"a{d}-"]
    return [f"a{d}.{i + 1}" for i in range(count)]


def stop_qdeg(curve: MonomialCurve) -> int:
    """A quasi-degree D from which every 2-form piece is provably zero.

    V_e (``binomial_span``) lies in ker(lam), of dimension s - 1.  In the
    presentation of ``GradedPiece`` the degree-d piece is spanned
    by symbols e_i ^ e_k of wedge^2 Q^s, with the relations v ^ e_j for v
    in V_(d - lam_j).  If V_(d - lam_j) = ker(lam) for every branch j, they
    span ker(lam) ^ Q^s, all of wedge^2 Q^s as ker(lam) has codimension 1:
    the piece is zero.  Multiplying by x_1 maps the curve-only exponents of
    degree e into those of degree e + lam_1 and keeps differences, so full
    rank on lam_1 consecutive degrees [E, E + lam_1) gives full rank for
    every e >= E, and every piece of degree d >= D = E + lam_s vanishes.
    With s = 1, ker(lam) = 0 and D = lam_1.
    """
    lams = curve.lams
    e = run = 0
    while run < lams[0]:
        run = run + 1 if len(binomial_span(lams, e)) == len(lams) - 1 else 0
        e += 1
    return e - lams[0] + lams[-1]


class RestrictionBasis:
    """Labeled basis of the space of closed 2-form restriction classes.

    The closed classes of degree d are the exact ones, spanned by the
    classes [d(x^m dx_i)] for branch coordinates i and curve-only x^m of
    quasi-degree d - lam_i.  Each owner i gives one class: d(x^m dx_i) is
    the symbol m ^ e_i of the piece (``GradedPiece``), and for two
    such m, m' the difference (m - m') ^ e_i is one of the piece's own
    relations, v ^ e_K with K = {i} and v in V_(d - lam_i).  So
    ``exact[d] = (owners, rows)`` keeps one row per owner i with d - lam_i
    in the semigroup, that of the first m (``GradedPiece.signed_row``), for
    every d with a nonzero 2-form piece, each as a nonzero multiple in Z
    (``GradedPiece.zquotient``), and the canonical reduced echelon form of
    their span gives the labelled vectors: ``closed[d]`` keeps it, for
    every d with a closed class, as the labelled rows cleared to primitive
    integer rows (``linalg.zcleared``), a ``zechelon`` form, in the label
    order (pivots descending), and ``zproject`` reads classes off it;
    ``by_degree[d]`` pairs each element with its row.  That span needs no
    row of owner 0: d^2(x^(m + e_i)) = 0 reads
    (1 + m_i) d(x^m dx_i) = -sum_(j != i) m_j d(x^(m + e_i - e_j) dx_j),
    and each x^(m + e_i - e_j) with m_j > 0 is curve-only of degree
    d - lam_j, so any one owner's row lies in the span of the other
    owners' rows.  Owner 0's row is left out of the elimination; ``exact``
    keeps it for Lt, whose prefix spans, like the closed echelon, depend
    only on the span of each owner prefix.

    Proof that the span is the kernel of d into the 3-form piece: exact
    classes are closed, since d^2 = 0 and d maps zero-restriction forms to
    zero-restriction forms.  Conversely, the Euler field E = sum w_i x_i
    d/dx_i is tangent to the curve, so i_E keeps the zero-restriction space.
    For [omega] of quasi-degree d > 0 with [d omega] = 0, Cartan's formula
    and L_E omega = d * omega give d * [omega] = [d(i_E omega)].  A term
    x^m dx_i of i_E omega with m or i off the curve has d(x^m dx_i) in
    dI ^ Omega^1, which restricts to zero.  The reduced echelon form of a
    subspace is unique, so labels, vectors and representatives are those of
    the kernel.

    The basis owns the state its classes are computed in: ``pieces[d]`` is
    the 2-form piece of every degree d in [1, ``stop_qdeg``).  The rest
    depends on the curve alone and is filled on first use by the module
    that reads it, so a class query does only the work of its class:

    - ``actions``: the Lie action matrices of ``orbit``, keyed by
      shift; every lift of X_s acts alike, so the shift determines the
      matrix.  It is stored once, as an ``orbit.ActionMatrix``: a common
      denominator and, for each element j, the (i, m) pairs of the nonzero
      integer entries of its column;
    - ``shifts``: the admissible shifts of ``orbit`` (None until first read);
    - ``isotropy_solvers[d]`` and ``exact_solvers[d]``: the
      ``linalg.PrefixSolver`` of iota's piece columns (by decreasing
      height) and of the exact rows ``exact[d]`` (by owner) at degree d,
      each with the height or owner of every column, for ``invariants``.
    """

    __slots__ = (
        "curve",
        "stop_qdeg",
        "pieces",
        "actions",
        "shifts",
        "isotropy_solvers",
        "exact_solvers",
        "elements",
        "labels",
        "label_index",
        "by_degree",
        "exact",
        "closed",
    )

    def __init__(self, curve: MonomialCurve):
        self.curve = curve
        self.stop_qdeg = stop = stop_qdeg(curve)
        self.pieces = {d: restriction_quotient(curve, 2, d) for d in range(1, stop)}
        self.actions: dict[int, ActionMatrix] = {}
        self.shifts: tuple[int, ...] | None = None
        self.isotropy_solvers: dict[int, tuple[tuple[int, ...], PrefixSolver]] = {}
        self.exact_solvers: dict[int, tuple[tuple[int, ...], PrefixSolver]] = {}
        elements: list[BasisElement] = []
        by_degree: dict[int, list[tuple[int, tuple[int, dict[int, int]]]]] = {}
        exact: dict[int, tuple[tuple[int, ...], tuple[dict[int, int], ...]]] = {}
        closed: dict[int, dict[int, dict[int, int]]] = {}
        lams = curve.lams
        for d, piece2 in self.pieces.items():
            if piece2.dim == 0:
                continue
            # owner i -> d(x^m dx_i) = sum_j m_j x^(m - e_j) dx_j ^ dx_i, for
            # the first curve-only m of quasi-degree d - lam_i
            rows = {
                i: piece2.zquotient(piece2.signed_row((j, (i,), e) for j, e in enumerate(ms[0])))[1]
                for i, lam in enumerate(lams)
                if (ms := monomials_of_qdeg(lams, d - lam))
            }
            exact[d] = (tuple(rows), tuple(rows.values()))
            dim = range(piece2.dim)
            dense = [[row.get(j, 0) for j in dim] for i, row in rows.items() if i]
            canon = rref(dense, len(dim))
            if not canon.pivots:
                continue
            ordered = sorted(zip(canon.pivots, canon.rows), reverse=True)
            closed[d] = {p: zcleared(dict(enumerate(vec))) for p, vec in ordered}
            labels = _degree_labels(d, len(ordered))
            entries: list[tuple[int, tuple[int, dict[int, int]]]] = []
            for label, (p, row) in zip(labels, closed[d].items()):
                vector = (row[p], row)
                entries.append((len(elements), vector))
                elements.append(BasisElement(label, d, vector, piece2))
            by_degree[d] = entries
        self.elements = tuple(elements)
        self.labels = tuple(el.label for el in elements)
        self.label_index = {label: i for i, label in enumerate(self.labels)}
        self.by_degree = by_degree
        self.exact = exact
        self.closed = closed

    @property
    def dim(self) -> int:
        return len(self.elements)

    @property
    def top_qdeg(self) -> int:
        """Largest quasi-degree carrying a basis element."""
        return self.elements[-1].qdeg if self.elements else 0

    def index_of(self, label: str) -> int:
        """Position of a label in ``elements``."""
        i = self.label_index.get(label)
        if i is None:
            have = f"have {', '.join(self.labels)}" if self.labels else "the basis has no elements"
            raise InputError(f"unknown basis label {label!r}; {have}")
        return i

    def element(self, label: str) -> BasisElement:
        return self.elements[self.index_of(label)]

    def zproject(self, d: int, vec: dict[int, int]) -> tuple[int, dict[int, int]]:
        """(K, {k: c}) for an integer row of piece-d columns (nonzero entries):
        its class is sum_k (c / K) e_k over the elements k of degree d, or
        ``NotClosedError``.  Its quotient coordinates are R / K
        (``GradedPiece.zquotient``); the closed vectors are the rows of
        ``closed[d]`` scaled to 1 at their pivots, so c is R at its vector's
        pivot, and the class is closed iff nothing remains after them."""
        scale, coords = self.pieces[d].zquotient(vec)
        if not coords:
            return scale, {}
        echelon = self.closed.get(d)
        if not echelon:
            raise NotClosedError(f"nonzero restriction class of quasi-degree {d} is not closed")
        if zremainder(echelon, coords)[1]:
            raise NotClosedError(
                f"restriction class of quasi-degree {d} lies outside the closed subspace"
            )
        return scale, {k: coords[p] for (k, _), p in zip(self.by_degree[d], echelon) if p in coords}


@lru_cache(maxsize=16)
def cached_basis(curve: MonomialCurve) -> RestrictionBasis:
    """The basis of a curve, built once while it is among the 16 most
    recently used curves."""
    return RestrictionBasis(curve)


class AlgRestriction:
    """A class of closed 2-form restrictions, as coordinates in a basis.

    The value is the curve of ``basis`` and ``entries``: a dict from basis
    index to coordinate that holds the nonzero coordinates only, each a
    ``Fraction``, with keys in ascending order.  Both invariants make the
    dict canonical, so equality reads it as is and the hash reads its
    items in order; and they let every operation pay for the nonzero
    coordinates alone, where a class has a few among ``basis.dim``.
    ``coords`` derives the dense tuple of all ``basis.dim`` coordinates
    for callers outside the package, such as tests.  The validating
    constructor takes that dense form; results built inside the package
    go through ``_trusted``, which keeps the invariants by construction.

    The class owns its orbit tangent space: ``tangent`` holds the
    ``orbit.TangentSpace`` at the class once
    ``orbit.orbit_tangent_space`` has built it, and None before, so the
    multiplicity, the tangent directions and the Moser system of one class
    share one set of action vectors.  Likewise ``block_rank`` holds
    ``invariants.branch_rank`` once it has run, so the realizability test
    answers every n from one rank.  Both are left out of equality and hash,
    and die with the class.
    """

    __slots__ = ("basis", "entries", "tangent", "block_rank")

    def __init__(self, basis: RestrictionBasis, coords: Iterable[Scalar]):
        self.basis = basis
        cs = tuple(map(_as_fraction, coords))
        if len(cs) != basis.dim:
            raise InputError("coordinate count does not match the basis")
        self.entries = {j: c for j, c in enumerate(cs) if c}
        self.tangent: TangentSpace | None = None
        self.block_rank: int | None = None

    @classmethod
    def _trusted(cls, basis: RestrictionBasis, entries: dict[int, Fraction]) -> AlgRestriction:
        """Wrap entries that already hold nonzero ``Fraction`` values under
        ascending keys below ``basis.dim``; checks nothing, so the caller
        answers for both invariants."""
        a = object.__new__(cls)
        a.basis = basis
        a.entries = entries
        a.tangent = None
        a.block_rank = None
        return a

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """All ``basis.dim`` coordinates, zeros included."""
        get = self.entries.get
        return tuple(get(j, _ZERO) for j in range(self.basis.dim))

    @classmethod
    def zero(cls, basis: RestrictionBasis) -> AlgRestriction:
        return cls._trusted(basis, {})

    @classmethod
    def from_coeffs(
        cls, basis: RestrictionBasis, coeffs: Mapping[str, Scalar]
    ) -> AlgRestriction:
        """sum c e_label over ``coeffs`` in one pass; ints become ``Fraction``."""
        entries: dict[int, Fraction] = {}
        for label, value in coeffs.items():
            c = _as_fraction(value)
            # distinct labels have distinct indices
            j = basis.index_of(label)
            if c:
                entries[j] = c
        return cls._trusted(basis, dict(sorted(entries.items())) if len(entries) > 1 else entries)

    def _check_same_basis(self, other: AlgRestriction) -> None:
        if self.basis is not other.basis and self.basis.curve != other.basis.curve:
            raise InputError("restriction classes live in different bases")

    def _plus(self, other: AlgRestriction, sign: int) -> AlgRestriction:
        """self + sign * other, for sign 1 or -1, over the union of the keys;
        coordinates that cancel are dropped."""
        self._check_same_basis(other)
        a, b = self.entries, other.entries
        entries: dict[int, Fraction] = {}
        for j in sorted(a.keys() | b.keys()):
            c = a.get(j, _ZERO) + sign * b.get(j, _ZERO)
            if c:
                entries[j] = c
        return AlgRestriction._trusted(self.basis, entries)

    def __add__(self, other: AlgRestriction) -> AlgRestriction:
        if not isinstance(other, AlgRestriction):
            return NotImplemented
        return self._plus(other, 1)

    def __sub__(self, other: AlgRestriction) -> AlgRestriction:
        if not isinstance(other, AlgRestriction):
            return NotImplemented
        return self._plus(other, -1)

    def __neg__(self) -> AlgRestriction:
        return AlgRestriction._trusted(self.basis, {j: -c for j, c in self.entries.items()})

    def __mul__(self, scalar: Scalar) -> AlgRestriction:
        if not isinstance(scalar, (Fraction, int)):
            return NotImplemented
        c = Fraction(scalar)
        entries = {j: v * c for j, v in self.entries.items()} if c else {}
        return AlgRestriction._trusted(self.basis, entries)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgRestriction):
            return NotImplemented
        return self.basis.curve == other.basis.curve and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.basis.curve, tuple(self.entries.items())))

    def is_zero(self) -> bool:
        return not self.entries

    def coefficient(self, label: str) -> Fraction:
        return self.entries.get(self.basis.index_of(label), _ZERO)

    def nonzero_qdegs(self) -> list[int]:
        elements = self.basis.elements
        return sorted({elements[j].qdeg for j in self.entries})

    def part(self, qdeg: int) -> AlgRestriction:
        """The graded part living in one quasi-degree."""
        elements = self.basis.elements
        return AlgRestriction._trusted(
            self.basis, {j: c for j, c in self.entries.items() if elements[j].qdeg == qdeg}
        )

    def min_qdeg_part(self) -> tuple[int, AlgRestriction] | None:
        """The least quasi-degree with a nonzero coordinate and the part
        there: the elements are in ascending quasi-degree, so it is that of
        the first key."""
        if not self.entries:
            return None
        d = self.basis.elements[next(iter(self.entries))].qdeg
        return d, self.part(d)

    def rep_form(self) -> forms.DifferentialForm:
        elements = self.basis.elements
        form = forms.DifferentialForm.zero(2, self.basis.curve.ambient)
        for j, c in self.entries.items():
            form = form + elements[j].rep * c
        return form

    def terms(self) -> Iterator[tuple[Fraction, str]]:
        """The (coefficient, label) pairs of the nonzero coordinates, in
        basis order."""
        labels = self.basis.labels
        return ((c, labels[j]) for j, c in self.entries.items())

    def __str__(self) -> str:
        return signed_sum(self.terms())

    def __repr__(self) -> str:
        return f"AlgRestriction({self})"


def check_basis_curve(curve: MonomialCurve, basis: RestrictionBasis) -> None:
    """Raise InputError unless the basis was built for the curve."""
    if basis.curve != curve:
        raise InputError("basis was built for a different curve")


def project(
    curve: MonomialCurve,
    form: forms.DifferentialForm,
    basis: RestrictionBasis,
) -> AlgRestriction:
    """Express the restriction class of a closed polynomial 2-form in the basis.

    The closed classes are the kernel of d (see ``RestrictionBasis``), so a
    part outside their span is not closed and raises ``NotClosedError``.
    """
    check_basis_curve(curve, basis)
    if form.nvars != curve.ambient:
        raise InputError(
            f"form has {form.nvars} variables, curve ambient dimension is {curve.ambient}"
        )
    if form.degree != 2:
        raise InputError("only 2-forms can be projected to this basis")
    parts = form.graded_parts(curve.weights).items()
    vectors = {d: basis.pieces[d].vectorize(part) for d, part in parts if d < basis.stop_qdeg}
    rows = {d: zdenominated({c: v for c, v in enumerate(vec) if v}) for d, vec in vectors.items()}
    return project_vectors(basis, rows)


def project_vectors(
    basis: RestrictionBasis, rows: Mapping[int, tuple[int, dict[int, int]]]
) -> AlgRestriction:
    """The class of a closed 2-form whose degree-d piece coordinates
    (``GradedPiece.vectorize``) are R / D for ``rows[d]`` = (D, R), R an
    integer row of nonzero entries, for degrees d below ``stop_qdeg``; a
    part outside the closed span raises ``NotClosedError``.  Each row is
    projected in Z (``RestrictionBasis.zproject``)."""
    entries: dict[int, Fraction] = {}
    for d, (den, row) in rows.items():
        try:
            # nonzero coefficients of the elements of degree d alone
            scale, coords = basis.zproject(d, row)
        except NotClosedError:
            raise NotClosedError(
                f"exterior derivative has a nonzero restriction in quasi-degree {d}"
            ) from None
        den *= scale
        entries.update((k, Fraction(x, den)) for k, x in coords.items())
    return AlgRestriction._trusted(basis, dict(sorted(entries.items())))
