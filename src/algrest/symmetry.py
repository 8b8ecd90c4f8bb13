"""Liftable vector fields, action tables, Moser-homotopy reduction, and
symmetries acting by pullback.

A field X is liftable over the curve g with shift s when X(g(t)) =
t^{s+1} g'(t), for an admissible s (``orbit``).  Each component can then
be written as lam_i times a monomial of quasi-degree lam_i + s.  Two
deterministic monomial-choice policies are shipped: ``grlex`` picks the
graded-lex minimal exponent vector, ``pinned`` replays a fixed table of
recorded choices for the three bundled semigroups.  Two choices differ by
a field with coefficients in the curve's ideal, which acts as zero on
closed classes, so the action does not depend on the choice: it is the
one matrix per shift of ``orbit``.  The policy chooses which fields the
action table builds, validates and names.  The orbit layer (action
matrices, admissible shifts, tangent spaces) lives in ``orbit``, which
the class commands run without this module; ``forms``, ``parser`` (the
LaTeX of ``render_table``) and ``qt`` are read through their modules.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, NamedTuple

from . import forms, parser, qt
from .curves import (
    LIFT_POLICIES, AlgRestriction, MonomialCurve, RestrictionBasis, cached_basis, project
)
from .errors import InputError, LiftError, NotSymmetryError
from .linalg import rref, solve_param_linear, zdenominated
from .orbit import (
    ActionMatrix, TangentSpace, _action_matrix, _basis_shifts, _grlex_exponents, _orbit_row,
    _restriction, admissible_shifts, orbit_tangent_space
)
from .poly import Exponent, Scalar, _as_fraction, signed_sum


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


def _check_policy(policy: str) -> None:
    if policy not in LIFT_POLICIES:
        raise InputError(f"unknown lift policy {policy!r}; use {' or '.join(LIFT_POLICIES)}")


def liftable_field(curve: MonomialCurve, s: int, policy: str = "grlex") -> LiftableField:
    """Build the liftable field X_s under a monomial-choice policy, "grlex"
    or "pinned"; the shift is checked first, under every policy."""
    exps = _grlex_exponents(curve, s)
    _check_policy(policy)
    lams, m = curve.lams, curve.ambient
    if policy == "pinned":
        exps = _PINNED.get((lams, s))
        if exps is None:
            raise InputError(
                f"no pinned lift stored for curve {lams} and shift {s}; "
                "use the grlex policy"
            )
    pad = (0,) * (m - len(lams))
    field = forms.VectorField(
        [forms.Polynomial.monomial(e + pad, lam) for e, lam in zip(exps, lams)]
        + [forms.Polynomial.zero(m)] * len(pad)
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


def render_table(table: ActionTable, fmt: str) -> tuple[dict | None, list[str]]:
    """The ``action-table`` output of the table in the format ``fmt``, and
    only that: (payload, []) for "json", else (None, lines) of LaTeX or text."""
    if fmt == "json":
        return {
            "semigroup": list(table.curve.lams),
            "policy": table.policy,
            "shifts": list(table.shifts),
            "nonsemigroup_shifts": list(table.nonsemigroup),
            "labels": list(table.labels),
            "table": {
                str(s): {label: signed_sum(table.terms(s, label)) for label in table.labels}
                for s in table.shifts
            },
        }, []
    if fmt == "latex":
        cols = " & ".join(parser.latex_label(label) for label in table.labels)
        lines = [f" & {cols} \\\\"] if table.labels else []
        for s in table.shifts:
            cells = " & ".join(parser.latex_sum(table.terms(s, label)) for label in table.labels)
            lines.append(f"X_{{{s}}} & {cells} \\\\")
        return None, lines
    lines = [
        f"semigroup {table.curve.lams}  policy {table.policy}",
        "shifts: " + (" ".join(str(s) for s in table.shifts) or "none"),
        "shifts outside the semigroup: " + (" ".join(str(s) for s in table.nonsemigroup) or "none"),
    ]
    for s in table.shifts:
        for label in table.labels:
            lines.append(f"  L[X_{s}] {label} = {signed_sum(table.terms(s, label))}")
    return None, lines


def action_table(curve: MonomialCurve, policy: str = "grlex") -> ActionTable:
    """The action table of the curve's cached basis, naming ``policy``.

    The lift of every shift is built and validated under the policy, in
    ascending order, so a policy without a lift fails at its first such
    shift; the matrices are then the one action matrix per shift, which no
    lift policy enters."""
    _check_policy(policy)
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
    entries only, built from the tangent space's integer rows without a
    ``Fraction``: with L_{X_s} a = u_s / K_s (the rows of ``TangentSpace``;
    shift 0 is among them, as a is nonzero) and K the lcm of the K_s, a
    multiple of kill's denominator, so kill = k / K in Z, row i is r =
    (u_{s,i} K / K_s for each s, k_i).  Scaling a row keeps the solution set.
    Kill's keys ascend, as the elements' degrees do, so it is one graded
    component iff its first and last keys share the degree.
    """
    kill._check_same_basis(a)
    entries = kill.entries
    if not entries:
        return HomotopyResult(True, True, (), {}, {})
    elements = a.basis.elements
    d = elements[next(iter(entries))].qdeg
    if elements[next(reversed(entries))].qdeg != d:
        raise InputError("kill target must be a single graded component")
    if kill != a.part(d):
        raise InputError("kill target must equal the graded component of a in its quasi-degree")
    tangent: TangentSpace = orbit_tangent_space(curve, a)
    shifts = tangent.shifts
    width = len(shifts)
    big = math.lcm(*(scale for scale, _ in tangent.rows))
    # live[i] = r for coordinate i, sparse: {column j: entry j of r}, kill under width
    live: dict[int, dict[int, list[int]]] = {}
    for j, (s, (scale, column)) in enumerate(zip(shifts, tangent.rows)):
        factor = big // scale
        for i, x in column.items():
            v = x * factor
            live.setdefault(i, {})[j] = [v, -v] if elements[i].qdeg == d + s else [v]
    for i, c in entries.items():
        live.setdefault(i, {})[width] = [c.numerator * (big // c.denominator)]
    solution = solve_param_linear([live[i] for i in sorted(live)], width)
    if not solution.consistent:
        zeros = dict.fromkeys(shifts, qt.RationalFunctionT.zero())
        return HomotopyResult(False, False, shifts, zeros, dict.fromkeys(shifts, 0))
    solved = dict(zip(shifts, solution.solution)), dict(zip(shifts, solution.pole_counts))
    return HomotopyResult(solution.feasible_on_unit_interval, True, shifts, *solved)


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
    """Exact r-th root of a nonzero rational, or None; negative ones need odd r."""
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
    value = _as_fraction(value)
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
    c = _as_fraction(c)
    if c == 0:
        raise InputError("scaling constant must be nonzero")
    weights = curve.weights
    return forms.PolyMap.diagonal([c ** weights.weight(i) for i in range(curve.ambient)])
