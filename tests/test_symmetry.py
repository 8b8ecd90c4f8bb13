import copy
import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import algrest.orbit as orbit_module
import algrest.qt as qt_module
import algrest.symmetry as symmetry_module
from algrest.curves import (
    AlgRestriction,
    MonomialCurve,
    RestrictionBasis,
    cached_basis,
    monomials_of_qdeg,
    project,
)
from algrest.errors import InputError, LiftError, NotSymmetryError
from algrest.forms import PolyMap, Polynomial, VectorField, lie_derivative
from algrest.invariants import invariant_report
from algrest.linalg import solve_param_linear
from algrest.orbit import admissible_shifts, orbit_tangent_space
from algrest.parser import parse_map, parse_restriction
from algrest.qt import RationalFunctionT, UniPoly
from algrest.symmetry import (
    LIFT_POLICIES,
    HomotopyResult,
    action_table,
    curve_scaling,
    liftable_field,
    moser_reduce,
    nonsemigroup_shifts,
    pullback_restriction,
    scaling_symmetry,
    shift_action,
    symmetry_constant,
    validate_liftable,
)

import plane
from direct_actions import check_witt_construction, lie_action
from generic_path import apply_series, curve_images, substitute, terms_of
from tables import ACTIONS, NONSEMIGROUP_SHIFTS, SHIFTS
from test_linalg import reference_sparse_echelon, sparse_remainder
from ztpoly import dense_system, poly_add, reference_bareiss, zt_system


@pytest.mark.parametrize("lams", sorted(SHIFTS))
def test_admissible_shifts_match_tables(lams):
    curve = MonomialCurve(lams)
    basis = cached_basis(curve)
    bound = basis.top_qdeg - 9
    assert tuple(admissible_shifts(curve, bound)) == SHIFTS[lams]
    assert tuple(nonsemigroup_shifts(curve, bound)) == NONSEMIGROUP_SHIFTS[lams]


@pytest.mark.parametrize("policy", ["grlex", "pinned"])
@pytest.mark.parametrize("lams", sorted(ACTIONS))
def test_action_tables_verbatim(lams, policy):
    curve = MonomialCurve(lams)
    basis = cached_basis(curve)
    table = action_table(curve, policy)
    assert table.curve == curve
    assert table.shifts == SHIFTS[lams]
    assert table.nonsemigroup == NONSEMIGROUP_SHIFTS[lams]
    for s, label in ((max(table.shifts) + 1, table.labels[0]), (table.shifts[0], "a8")):
        with pytest.raises(InputError, match=f"no action entry for shift {s} and label {label!r}"):
            table.terms(s, label)
    expected = ACTIONS[lams]
    for s in table.shifts:
        for label in table.labels:
            cell = expected.get((s, label), "0")
            assert table.entry(s, label) == parse_restriction(cell, basis), (
                f"action of X_{s} on {label} under {policy}"
            )


@pytest.mark.parametrize("policy", LIFT_POLICIES)
@pytest.mark.parametrize("lams", sorted(ACTIONS))
def test_action_table_matches_projected_lie_derivatives(lams, policy):
    """Each entry equals the dense projection of L_{X_s}, for the policy's
    lift, on the element's representative, and the basis keeps one sparse
    integer column per element over the least common denominator of the
    matrix: the (i, value) pairs of the entry's nonzero coordinates, times
    that denominator."""
    curve = MonomialCurve(lams)
    basis = cached_basis(curve)
    table = action_table(curve, policy)
    for s in table.shifts:
        field = liftable_field(curve, s, policy).field
        matrix = basis.actions[s]
        assert table.matrices[s] is matrix
        entries = []
        for j, el in enumerate(basis.elements):
            expected = project(curve, lie_derivative(field, el.rep), basis)
            assert table.entry(s, el.label) == expected
            assert matrix.column(j) == tuple((i, c) for i, c in enumerate(expected.coords) if c)
            assert table.terms(s, el.label) == tuple(
                (c, label) for c, label in zip(expected.coords, basis.labels) if c
            )
            entries += expected.coords
        assert matrix.den == math.lcm(*(c.denominator for c in entries))


# The curves of the Witt identity check: the three bundled semigroups, five
# plane curves, the (5..9) ladder, three more space curves, and two curves
# padded by an off-curve variable.
WITT_CURVES = [
    ((4, 5, 6, 7), 0),
    ((4, 5, 6), 0),
    ((4, 5, 7), 0),
    ((2, 3), 0),
    ((2, 5), 0),
    ((3, 4), 0),
    ((3, 5), 0),
    ((5, 6, 7, 8, 9), 0),
    ((3, 7, 8), 0),
    ((5, 7, 9), 0),
    ((6, 10, 15), 0),
    ((7, 11), 0),
    ((4, 5, 6, 7), 5),
    ((3, 4, 5), 4),
]


@pytest.mark.parametrize("lams, ambient", WITT_CURVES)
def test_action_matrices_represent_the_witt_algebra(lams, ambient):
    """A_0 = diag(qdeg), [A_s, A_u] = (u - s) A_{s+u} for every pair of
    admissible shifts, and every built matrix equals the direct one."""
    check_witt_construction(MonomialCurve(lams, ambient))


def test_a_missing_pinned_lift_fails_at_its_shift():
    """The action table builds the lift of every shift under its policy, so
    the pinned policy fails at the first shift without a stored lift; the
    action itself needs no pinned lift."""
    with pytest.raises(InputError, match=r"curve \(5, 6, 7, 8, 9\) and shift 0;"):
        action_table(MonomialCurve((5, 6, 7, 8, 9)), "pinned")
    curve = MonomialCurve((4, 5, 6, 7))
    a = AlgRestriction.from_coeffs(RestrictionBasis(curve), {"a9": 1})
    # the pinned table stops at 6, and the action of X_7 needs no lift
    with pytest.raises(InputError, match=r"curve \(4, 5, 6, 7\) and shift 7;"):
        liftable_field(curve, 7, "pinned")
    assert shift_action(a, 7).is_zero()


@pytest.mark.parametrize("lams", [(1,), (2, 3)])
def test_an_unknown_lift_policy_fails_on_every_basis(lams):
    """The policy name is checked before the table is built, so an empty
    basis, which has no shift to lift, rejects it too."""
    with pytest.raises(InputError, match="unknown lift policy 'bogus'; use grlex or pinned"):
        action_table(MonomialCurve(lams), "bogus")


def test_actions_live_on_the_class_basis():
    curve = MonomialCurve((3, 4, 5), ambient=4)
    misses = cached_basis.cache_info().misses
    basis = RestrictionBasis(curve)
    a = AlgRestriction(basis, range(1, basis.dim + 1))
    shifts = admissible_shifts(curve, basis.top_qdeg - basis.elements[0].qdeg)
    actions = [shift_action(a, s) for s in shifts]
    assert cached_basis.cache_info().misses == misses
    assert sorted(basis.actions) == shifts
    cached = AlgRestriction(cached_basis(curve), a.coords)
    assert cached_basis.cache_info().misses == misses + 1
    assert actions == [shift_action(cached, s) for s in shifts]
    assert any(not action.is_zero() for action in actions)


def _record_lifts(monkeypatch):
    """The (shift, policy) of every ``liftable_field`` call, in order."""
    built = []
    original = symmetry_module.liftable_field

    def recording(curve, s, policy="grlex"):
        built.append((s, policy))
        return original(curve, s, policy)

    monkeypatch.setattr(symmetry_module, "liftable_field", recording)
    return built


def test_the_action_layer_builds_no_lift(monkeypatch):
    """Every action matrix is read off the grlex lift's exponents: orbit
    tangent spaces and invariants build no ``liftable_field``."""
    built = _record_lifts(monkeypatch)
    curve = MonomialCurve((11, 13))
    tangent = orbit_tangent_space(curve, parse_restriction("a24", RestrictionBasis(curve)))
    assert tangent.shifts
    assert built == []
    curve = MonomialCurve((4, 5, 6, 7))
    report = invariant_report(curve, parse_restriction("a13-", RestrictionBasis(curve)))
    assert report.mu == 6
    assert built == []


def test_a_pinned_table_keeps_one_matrix_per_shift(monkeypatch):
    """The table builds and validates the pinned lift of each of its shifts,
    and its matrices are the basis's one matrix per shift."""
    built = _record_lifts(monkeypatch)
    curve = MonomialCurve((4, 5, 6, 7))
    basis = RestrictionBasis(curve)
    monkeypatch.setattr(symmetry_module, "cached_basis", lambda _: basis)
    table = action_table(curve, "pinned")
    assert table.basis is basis
    assert built == [(s, "pinned") for s in table.shifts]
    assert list(basis.actions) == list(table.shifts)
    assert all(type(s) is int for s in basis.actions)
    assert all(table.matrices[s] is basis.actions[s] for s in table.shifts)


def test_euler_field_scales_by_quasi_degree(basis457):
    for el in basis457.elements:
        unit = AlgRestriction.from_coeffs(basis457, {el.label: 1})
        assert shift_action(unit, 0) == unit * el.qdeg


def test_liftable_field_validates(curve4567, curve456, basis456):
    for s in (0, 1, 4):
        for policy in ("grlex", "pinned"):
            lifted = liftable_field(curve4567, s, policy)
            assert lifted.shift == s
            assert validate_liftable(curve4567, lifted.field, s)
            # the substitution check is shift-specific
            if s:
                assert not validate_liftable(curve4567, lifted.field, 0)
    with pytest.raises(LiftError):
        liftable_field(curve456, 1)
    with pytest.raises(LiftError):
        liftable_field(curve456, 3)
    with pytest.raises(InputError):
        liftable_field(curve4567, 1, "lexicographic")
    with pytest.raises(InputError):
        liftable_field(curve4567, -1)
    # the action reads the grlex exponents, which reject a shift without a
    # lift the way liftable_field does
    a = AlgRestriction.from_coeffs(basis456, {"a11": 1})
    for s, error in ((1, LiftError), (3, LiftError), (-1, InputError)):
        with pytest.raises(error):
            shift_action(a, s)
        assert s not in basis456.actions


def test_validate_liftable_rejects_broken_field(curve4567):
    euler = liftable_field(curve4567, 0).field
    components = list(euler.components)
    components[2] = components[2] + Polynomial.variable(4, 0)
    assert not validate_liftable(curve4567, VectorField(components), 0)


def substitution_check(curve, field, s):
    """X(g(t)) = t^{s+1} g'(t), by substituting the curve's series."""
    images = curve_images(curve)
    expected = [UniPoly.from_terms({lam + s: lam}) for lam in curve.lams]
    expected += [UniPoly()] * (curve.ambient - len(curve.lams))
    return [substitute(comp, images) for comp in field.components] == expected


def test_validate_liftable_equals_the_substitution_check():
    curves = (((4, 5, 6, 7), 5), ((3, 7, 8), 0), ((7, 11), 0), ((2, 5), 0), ((4, 5, 6), 6))
    for lams, ambient in curves:
        curve = MonomialCurve(lams, ambient)
        m = curve.ambient
        x = [Polynomial.variable(m, i) for i in range(m)]
        for s in admissible_shifts(curve, 12):
            field = liftable_field(curve, s).field
            comps = field.components
            variants = [
                field,
                VectorField([comps[0] * 2] + comps[1:]),
                VectorField(comps[:-1] + [comps[-1] + x[-1] * x[0]]),
                VectorField(comps[:-1] + [comps[-1] + x[0] ** 2]),
                VectorField([comps[0] + x[0] * x[-1]] + comps[1:]),
            ]
            for shift in (s, s + 1):
                for variant in variants:
                    assert validate_liftable(curve, variant, shift) == substitution_check(
                        curve, variant, shift
                    )
            assert validate_liftable(curve, field, s)


def test_lie_action_checks_the_field(curve4567, basis4567):
    lifted = liftable_field(curve4567, 1)
    a = parse_restriction("a9", basis4567)
    assert lie_action(curve4567, lifted, a) == parse_restriction("5*a10", basis4567)
    broken = type(lifted)(field=lifted.field, shift=2, policy=lifted.policy)
    with pytest.raises(LiftError):
        lie_action(curve4567, broken, a)


def test_orbit_tangent_space_dim(curve4567, basis4567):
    a = parse_restriction("a13-", basis4567)
    tangent = orbit_tangent_space(curve4567, a)
    assert tangent.dim == 3
    assert tangent.contains(parse_restriction("a14", basis4567))
    assert not tangent.contains(parse_restriction("a9", basis4567))


def test_the_class_keeps_its_tangent_spaces(curve4567, basis4567, curve457):
    a = parse_restriction("a13-", basis4567)
    assert a.tangent is None
    tangent = orbit_tangent_space(curve4567, a)
    assert orbit_tangent_space(curve4567, a) is tangent
    assert a.tangent is tangent
    # an equal class is another object with its own tangent space
    twin = parse_restriction("a13-", basis4567)
    assert twin == a and twin.tangent is None
    assert orbit_tangent_space(curve4567, twin) == tangent
    with pytest.raises(InputError, match="basis was built for a different curve"):
        orbit_tangent_space(curve457, a)


def test_one_class_computes_each_action_once(monkeypatch, curve4567, basis4567):
    """The multiplicity, the tangent directions and the Moser system of a
    class share one integer row M_s A per shift, and none of them asks
    ``shift_action``."""
    a = parse_restriction("a11+ - 3/2*a11- + 2*a12 + 7*a13+", basis4567)
    kill = a.part(13)
    calls = []
    original = orbit_module._orbit_row

    def counting(matrix, cleared):
        calls.append(matrix)
        return original(matrix, cleared)

    def forbidden(*args):
        raise AssertionError("shift_action called")

    monkeypatch.setattr(orbit_module, "_orbit_row", counting)
    monkeypatch.setattr(symmetry_module, "shift_action", forbidden)
    report = invariant_report(curve4567, a)
    tangent = orbit_tangent_space(curve4567, a)
    assert report.mu == tangent.codim
    assert not tangent.contains(AlgRestriction.from_coeffs(basis4567, {"a9": 1}))
    result = moser_reduce(curve4567, a, kill)
    assert result.shifts == tangent.shifts
    assert calls == [basis4567.actions[s] for s in tangent.shifts]


def test_orbit_tangent_space_of_zero(basis456, curve456):
    tangent = orbit_tangent_space(curve456, AlgRestriction.zero(basis456))
    assert tangent.dim == 0
    assert tangent.shifts == ()


def affine(c0, c1):
    return RationalFunctionT(UniPoly([Fraction(c0), Fraction(c1)]))


def constant(c):
    return RationalFunctionT(UniPoly.constant(Fraction(c)))


def test_moser_reduce_kills_top_component(curve4567, basis4567):
    a = parse_restriction("a11+ - 3/2*a11- + 2*a12 + 7*a13+", basis4567)
    kill = a.part(13)
    result = moser_reduce(curve4567, a, kill)
    assert result.consistent and result.feasible
    assert result.shifts == (0, 1, 2, 3, 4)
    assert result.coefficients[0] == RationalFunctionT.zero()
    assert result.coefficients[1] == constant(Fraction(315, 1066))
    assert result.coefficients[2] == constant(Fraction(-196, 533))
    assert result.coefficients[3] == affine(Fraction(-98, 13), Fraction(4410, 533))
    assert result.coefficients[4] == affine(Fraction(-4984, 533), Fraction(5432, 533))
    assert all(count == 0 for count in result.pole_counts.values())
    # the solved coefficients satisfy sum_s b_s(t) L_{X_s}(a - t*kill) = kill
    for t in (Fraction(0), Fraction(1, 2), Fraction(1)):
        at = a - kill * t
        total = AlgRestriction.zero(basis4567)
        for s in result.shifts:
            total = total + shift_action(at, s) * result.coefficients[s].evaluate(t)
        assert total == kill


def test_moser_reduce_sparse_solution(curve456, basis456):
    a = parse_restriction("a10 + 3*a11 + 4*a13 + 5*a17", basis456)
    result = moser_reduce(curve456, a, a.part(17))
    assert result.consistent and result.feasible
    assert result.coefficients[6] == constant(Fraction(5, 51))
    assert result.coefficients[8] == constant(Fraction(-20, 153))
    for s in result.shifts:
        if s not in (6, 8):
            assert result.coefficients[s] == RationalFunctionT.zero()


def test_moser_reduce_inconsistent(curve4567, basis4567):
    a = parse_restriction("a11- + 5*a13+", basis4567)
    result = moser_reduce(curve4567, a, a.part(13))
    assert not result.consistent
    assert not result.feasible


def test_moser_reduce_rejects_bad_kill(curve4567, basis4567):
    a = parse_restriction("a11+ + a12 + a13+", basis4567)
    with pytest.raises(InputError):
        moser_reduce(curve4567, a, a.part(12) + a.part(13))
    with pytest.raises(InputError):
        moser_reduce(curve4567, a, a.part(13) * 2)


def test_moser_reduce_solutions_satisfy_the_homotopy_equation(curve456, basis456):
    """Checks every consistent reduction of a two-label class of (4,5,6)
    through shift_action, without trusting the solver: at t = 1/3,
    sum_s b_s(t) * L_{X_s}(a - t*kill) = kill."""
    t = Fraction(1, 3)
    consistent = 0
    for first, second in itertools.combinations(basis456.labels, 2):
        a = AlgRestriction.from_coeffs(basis456, {first: 1, second: 1})
        for label in (first, second):
            kill = a.part(basis456.element(label).qdeg)
            result = moser_reduce(curve456, a, kill)
            if not result.consistent:
                continue
            consistent += 1
            at = a - kill * t
            total = AlgRestriction.zero(basis456)
            for s in result.shifts:
                total = total + shift_action(at, s) * result.coefficients[s].evaluate(t)
            assert total == kill, f"{a}, kill {kill}"
    assert consistent == 30


def reference_moser(curve, a, kill):
    """The all-rows Moser system: one row per basis coordinate, with every
    action vector computed afresh through ``shift_action``."""
    bound = a.basis.top_qdeg - a.min_qdeg_part()[0]
    shifts = tuple(admissible_shifts(curve, bound))
    v = {s: shift_action(a, s).coords for s in shifts}
    w = {s: shift_action(kill, s).coords for s in shifts}
    dim = a.basis.dim
    rows = [[UniPoly([v[s][i], -w[s][i]]) for s in shifts] for i in range(dim)]
    rhs = [UniPoly.constant(kill.coords[i]) for i in range(dim)]
    solution = solve_param_linear(*zt_system(rows, rhs))
    return HomotopyResult(
        feasible=solution.feasible_on_unit_interval,
        consistent=solution.consistent,
        shifts=shifts,
        coefficients={
            s: solution.solution[j] if solution.consistent else RationalFunctionT.zero()
            for j, s in enumerate(shifts)
        },
        pole_counts={
            s: solution.pole_counts[j] if solution.consistent else 0
            for j, s in enumerate(shifts)
        },
    )


# The class pool of the class-queries benchmark workload: 75 classes per
# curve, each 1 to 4 labels with small nonzero rational coefficients and
# one of them marking the graded part to remove, drawn from a per-curve seed.
POOL_SEED = 1_000_003
POOL_COEFFS = tuple(Fraction(p, q) for p in range(-5, 6) if p for q in (1, 2, 3))


def class_pool(lams, labels, size=75):
    rng = random.Random(POOL_SEED + sum(v * 31**i for i, v in enumerate(lams)))
    pool = []
    for _ in range(size):
        chosen = rng.sample(list(labels), min(rng.randint(1, 4), len(labels)))
        terms = {label: rng.choice(POOL_COEFFS) for label in chosen}
        pool.append((terms, rng.choice(chosen)))
    return pool


@pytest.mark.parametrize("lams", [(4, 5, 6, 7), (4, 5, 6), (4, 5, 7)])
def test_moser_reduce_on_live_rows_matches_the_all_rows_system(lams):
    curve = MonomialCurve(lams)
    basis = cached_basis(curve)
    consistent = 0
    for terms, kill_label in class_pool(lams, basis.labels):
        a = AlgRestriction.from_coeffs(basis, terms)
        kill = a.part(basis.element(kill_label).qdeg)
        result = moser_reduce(curve, a, kill)
        assert result == reference_moser(curve, a, kill), f"{a}, kill {kill}"
        consistent += result.consistent
    assert 0 < consistent < 75


@pytest.mark.parametrize("lams", [(4, 5, 6, 7), (4, 5, 6), (4, 5, 7)])
def test_pinned_lifts_give_the_grlex_tangent_vectors(lams):
    """On the bundled curves the Lie derivative along the pinned lift, taken
    directly, is the vector L_{X_s} a of every shift of the tangent space,
    hence the pinned lifts give the same dim, mu, membership and Moser
    system."""
    curve = MonomialCurve(lams)
    basis = cached_basis(curve)
    for terms, _ in class_pool(lams, basis.labels):
        a = AlgRestriction.from_coeffs(basis, terms)
        tangent = orbit_tangent_space(curve, a)
        assert tangent.shifts
        for s, vector in zip(tangent.shifts, tangent.vectors):
            pinned = liftable_field(curve, s, "pinned")
            assert lie_action(curve, pinned, a) == vector, f"X_{s} at {a}"


# Curves of the orbit-path properties: the bundled ones, the (5..9) and
# (6..11) ladder curves, a plane curve and a padded space curve.
ORBIT_CURVES = (
    MonomialCurve((4, 5, 6, 7)),
    MonomialCurve((4, 5, 6)),
    MonomialCurve((4, 5, 7)),
    MonomialCurve((5, 6, 7, 8, 9)),
    MonomialCurve((6, 7, 8, 9, 10, 11)),
    MonomialCurve((7, 9)),
    MonomialCurve((3, 7, 8), ambient=4),
)
ORBIT_VALUES = tuple(Fraction(n, q) for n in (-7, -2, -1, 1, 3, 10) for q in (1, 2, 9, 25))


@st.composite
def sparse_classes(draw, basis):
    """A class with 1 to 5 labels and small rational coefficients."""
    chosen = draw(st.lists(st.sampled_from(basis.labels), min_size=1, max_size=5, unique=True))
    return AlgRestriction.from_coeffs(
        basis, {label: draw(st.sampled_from(ORBIT_VALUES)) for label in chosen}
    )


@given(data=st.data(), curve=st.sampled_from(ORBIT_CURVES))
def test_tangent_membership_equals_the_fraction_remainder(data, curve):
    """The integer rows give the ``shift_action`` vectors, and ``dim`` and
    ``contains`` equal the ``Fraction`` echelon and remainder of those
    vectors; half of the directions are drawn inside the tangent space."""
    basis = cached_basis(curve)
    a = data.draw(sparse_classes(basis))
    tangent = orbit_tangent_space(curve, a)
    assert tangent.vectors == tuple(shift_action(a, s) for s in tangent.shifts)
    echelon = reference_sparse_echelon(
        {i: c for i, c in enumerate(v.coords) if c} for v in tangent.vectors
    )
    assert tangent.dim == len(echelon)
    if data.draw(st.booleans()):
        direction = AlgRestriction.zero(basis)
        for vector in tangent.vectors:
            direction = direction + vector * data.draw(st.sampled_from(ORBIT_VALUES))
        if data.draw(st.booleans()):
            direction = direction + data.draw(sparse_classes(basis))
    else:
        direction = data.draw(sparse_classes(basis))
    assert tangent.contains(direction) == (not sparse_remainder(echelon, direction.coords))


def fraction_moser_rows(tangent, kill, d):
    """The live rows of the Moser system built from ``Fraction`` vectors:
    per coordinate with a nonzero entry, ((L_{X_s} a)_i for each s, kill_i)
    times the lcm of their denominators, as sparse Z[t] rows with the
    right-hand side under key ``width``, zero entries absent."""
    rows = []
    v = [vector.coords for vector in tangent.vectors]
    width = len(tangent.shifts)
    for el, column in zip(kill.basis.elements, zip(*v, kill.coords)):
        nonzero = [x for x in column if x]
        if not nonzero:
            continue
        scale = math.lcm(*[x.denominator for x in nonzero])
        ints = [x.numerator * (scale // x.denominator) for x in column]
        moved = el.qdeg - d
        entries = zip(ints, (*tangent.shifts, None))
        rows.append({j: [p, -p] if s == moved else [p] for j, (p, s) in enumerate(entries) if p})
    return rows, width


@given(data=st.data(), curve=st.sampled_from(ORBIT_CURVES[:4]))
def test_moser_rows_equal_the_fraction_construction(data, curve):
    """``solve_param_linear`` gets the integer rows of the ``Fraction``
    construction, each times a positive integer, for a random class and
    graded part, and ``moser_reduce`` reports the solution of the
    ``Fraction`` rows themselves."""
    basis = cached_basis(curve)
    a = data.draw(sparse_classes(basis))
    d = data.draw(st.sampled_from(a.nonzero_qdegs()))
    kill = a.part(d)
    seen = []
    original = symmetry_module.solve_param_linear

    def recording(rows, width):
        seen.append((rows, width))
        return original(rows, width)

    symmetry_module.solve_param_linear = recording
    try:
        result = moser_reduce(curve, a, kill)
    finally:
        symmetry_module.solve_param_linear = original
    want_rows, width = fraction_moser_rows(orbit_tangent_space(curve, a), kill, d)
    [(rows, seen_width)] = seen
    assert seen_width == width and len(rows) == len(want_rows)
    for row, want in zip(rows, want_rows):
        assert row.keys() == want.keys()
        j = next(iter(want))
        factor, rest = divmod(row[j][0], want[j][0])
        assert factor > 0 and rest == 0
        assert all(row[c] == [factor * x for x in entry] for c, entry in want.items())
    want = solve_param_linear(want_rows, width)
    assert (result.consistent, result.feasible) == (want.consistent, want.feasible_on_unit_interval)
    if want.consistent:
        assert list(result.coefficients.values()) == list(want.solution)
        assert list(result.pole_counts.values()) == list(want.pole_counts)


def every_label_killing_the_lowest(lams):
    """The curve, its class with every label at coefficient 1, and that
    class's lowest graded component."""
    curve = MonomialCurve(lams)
    basis = cached_basis(curve)
    a = AlgRestriction.from_coeffs(basis, dict.fromkeys(basis.labels, 1))
    return curve, a, a.part(a.nonzero_qdegs()[0])


def test_plane_curve_moser_equals_the_bareiss_reference(monkeypatch):
    """On the plane curve (5,7), every label at 1 and the lowest component
    killed, the sparse kernel solves the Moser system as the dense Bareiss
    reference does, and ``moser_reduce`` reports that solution."""
    curve, a, kill = every_label_killing_the_lowest((5, 7))
    seen = []
    original = symmetry_module.solve_param_linear

    def recording(rows, width):
        seen.append((rows, width))
        return original(rows, width)

    monkeypatch.setattr(symmetry_module, "solve_param_linear", recording)
    result = moser_reduce(curve, a, kill)
    [(rows, width)] = seen
    want = reference_bareiss(*dense_system(rows, width))
    assert solve_param_linear(rows, width) == want
    assert want.consistent and result.consistent and not result.feasible
    assert list(result.coefficients.values()) == want.solution
    assert list(result.pole_counts.values()) == want.pole_counts


def test_plane_curve_moser_keeps_its_recorded_digest():
    """(7,9), every label at 1 and the lowest component (a16) killed: the
    sha1 of the coefficients and pole counts that the dense kernel gave."""
    curve, a, kill = every_label_killing_the_lowest((7, 9))
    result = moser_reduce(curve, a, kill)
    text = repr(
        (
            result.consistent,
            [(s, str(result.coefficients[s]), result.pole_counts[s]) for s in result.shifts],
        )
    )
    assert hashlib.sha1(text.encode()).hexdigest() == "b48a2f84cbce0334e1fd40eac69b433cc89cf34f"


@pytest.mark.parametrize("lams", [(5, 7), (7, 9)])
def test_moser_elimination_never_divides_by_one(monkeypatch, lams):
    """Every label at 1 and the lowest component killed: the elimination and
    the back substitution of ``qt._zsolve`` divide by no constant 1.  The
    system is the one ``moser_reduce`` hands over; the reductions of the
    components and their pole counts, which divide too, are stubbed out."""
    curve, a, kill = every_label_killing_the_lowest(lams)
    systems = []
    solve = qt_module._zsolve

    def recording(live, width):
        systems.append((copy.deepcopy(live), width))
        return solve(live, width)

    monkeypatch.setattr(qt_module, "_zsolve", recording)
    moser_reduce(curve, a, kill)
    [(live, width)] = systems
    divisors = []
    divide = qt_module._zdiv_exact

    def recording_divide(num, den):
        divisors.append(den)
        return divide(num, den)

    monkeypatch.setattr(qt_module, "_zdiv_exact", recording_divide)
    monkeypatch.setattr(qt_module, "_reduced", lambda y, den: (RationalFunctionT.zero(), den))
    monkeypatch.setattr(qt_module, "_zpoles_in_unit_interval", lambda den: 0)
    assert solve(live, width) is not None
    assert divisors and [1] not in divisors


def test_class_query_moser_systems_never_divide_by_one(monkeypatch):
    """The 300 Moser systems of the class-queries stream (the pool of each
    of its four curves): no ``_zdiv_exact`` of the elimination, the back
    substitution, the reductions or the pole counts divides by the constant
    1.  Nothing is stubbed."""
    divisors = []
    divide = qt_module._zdiv_exact

    def recording_divide(num, den):
        divisors.append(den)
        return divide(num, den)

    monkeypatch.setattr(qt_module, "_zdiv_exact", recording_divide)
    for lams in [(4, 5, 6, 7), (4, 5, 6), (4, 5, 7), (5, 6, 7, 8, 9)]:
        curve = MonomialCurve(lams)
        basis = cached_basis(curve)
        for terms, kill_label in class_pool(lams, basis.labels):
            a = AlgRestriction.from_coeffs(basis, terms)
            moser_reduce(curve, a, a.part(basis.element(kill_label).qdeg))
    assert len(divisors) > 500
    assert [1] not in divisors


@pytest.mark.parametrize("p, q", plane.CURVES)
def test_plane_curve_action_matrices_are_the_milnor_model(p, q):
    """On (t^p, t^q) the action matrix of every shift is D(u_s .) on the
    Milnor monomials (``plane``), and the one admissible shift outside the
    semigroup, the Frobenius number pq - p - q, acts as zero."""
    table = action_table(MonomialCurve((p, q)))
    frobenius = p * q - p - q
    assert table.nonsemigroup == (frobenius,)
    for s in table.shifts:
        matrix = table.matrices[s]
        got = [matrix.column(j) for j in range(len(table.labels))]
        assert got == plane.action_columns(p, q, s), f"shift {s}"
    assert not any(table.matrices[frobenius].columns)


def over_powers_of_one_minus_t(betas):
    """sum_k betas[k] / (1 - t)^(k + 1) as a ``RationalFunctionT``."""
    one_minus_t = UniPoly([1, -1])
    num = UniPoly()
    for beta in betas:
        num = poly_add(num * one_minus_t, UniPoly.constant(beta))
    return RationalFunctionT(num, one_minus_t ** len(betas))


def assert_moser_is_the_milnor_model(p, q, coeffs):
    """``moser_reduce`` on (t^p, t^q), for the class of Milnor coefficients
    ``coeffs`` with a unit term, killing that term: every b_s is the
    closed form of ``plane.moser_series``, with one pole, at t = 1, when
    it is nonzero, so the reduction is consistent and infeasible."""
    curve = MonomialCurve((p, q))
    basis = cached_basis(curve)
    a = AlgRestriction(basis, [coeffs.get(m, 0) for m in plane.milnor_monomials(p, q)])
    result = moser_reduce(curve, a, a.part(p + q))
    want = plane.moser_series(p, q, coeffs)
    assert result.consistent and not result.feasible
    for s in result.shifts:
        betas = want.get(plane.monomial_of_weight(p, q, s), [])
        assert result.coefficients[s] == over_powers_of_one_minus_t(betas), f"b_{s}"
        assert result.pole_counts[s] == (1 if betas else 0)


@pytest.mark.parametrize("p, q", [(5, 7), (7, 9)])
def test_plane_curve_moser_of_every_label_is_the_milnor_model(p, q):
    """Every label at 1; (9, 11) and (9, 13) run in CI."""
    assert_moser_is_the_milnor_model(p, q, dict.fromkeys(plane.milnor_monomials(p, q), 1))


def test_plane_curve_moser_of_random_classes_is_the_milnor_model():
    rng = random.Random(1919)
    values = [Fraction(0)] * 3 + [Fraction(n, d) for n in (-3, -1, 1, 2, 5) for d in (1, 2, 3)]
    for p, q in [(2, 9), (3, 4), (3, 5), (3, 7), (4, 5), (4, 7), (5, 6), (5, 7)]:
        monomials = plane.milnor_monomials(p, q)
        for _ in range(4):
            coeffs = {m: rng.choice(values) for m in monomials}
            coeffs[0, 0] = rng.choice(values[3:])
            assert_moser_is_the_milnor_model(p, q, coeffs)


def test_moser_reduce_zero_kill_is_trivial(curve4567, basis4567):
    a = parse_restriction("a9", basis4567)
    result = moser_reduce(curve4567, a, AlgRestriction.zero(basis4567))
    assert result.feasible and result.consistent
    assert result.shifts == ()


def test_symmetry_constant_involution(curve4567, basis4567):
    phi = parse_map("(x1, -x2, x3, -x4)", 4)
    assert symmetry_constant(curve4567, phi) == -1
    a = parse_restriction("a9 + a13+", basis4567)
    image = pullback_restriction(curve4567, phi, a)
    assert image == parse_restriction("-a9 - a13+", basis4567)


def test_symmetry_constant_rejections(curve4567):
    with pytest.raises(NotSymmetryError, match="powers of a common constant"):
        symmetry_constant(curve4567, parse_map("(-x1, -x2, x3, x4)", 4))
    with pytest.raises(NotSymmetryError, match="linear part is singular"):
        symmetry_constant(curve4567, parse_map("(x1, x1, x3, x4)", 4))
    with pytest.raises(NotSymmetryError, match="component 1 has order 5"):
        symmetry_constant(curve4567, parse_map("(x2, x1, x3, x4)", 4))
    with pytest.raises(InputError):
        symmetry_constant(curve4567, parse_map("(x1, x2, x3)", 4))
    padded = MonomialCurve((4, 5, 6), ambient=4)
    with pytest.raises(NotSymmetryError, match="off-curve component is nonzero along it"):
        symmetry_constant(padded, parse_map("(x1, x2, x3, x4 + x1)", 4))


def bezout(values):
    """Integer coefficients alpha with sum(alpha_i * values_i) = gcd."""
    coeffs = [0] * len(values)
    g = 0
    for i, v in enumerate(values):
        if g == 0:
            g, coeffs[i] = v, 1
            continue
        old_r, r = g, v
        old_s, s = 1, 0
        while r:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_s, s = s, old_s - q * s
        # old_r = gcd(g, v) = old_s * g + t * v
        t = (old_r - old_s * g) // v
        for j in range(i):
            coeffs[j] *= old_s
        coeffs[i] = t
        g = old_r
    return coeffs


def reference_symmetry_constant(curve, phi):
    """c = prod lead_i^alpha_i for Bezout coefficients with sum alpha_i *
    lam_i = 1, then the lead and reparameterization checks; returns c or
    the ``NotSymmetryError`` text.  For maps whose linear part is diagonal
    and invertible and whose higher terms have higher quasi-degree."""
    lams = curve.lams
    u = apply_series(phi, curve_images(curve))
    leads = [terms_of(u[i]).get(lam, 0) for i, lam in enumerate(lams)]
    c = math.prod(lead**alpha for lead, alpha in zip(leads, bezout(lams)))
    if any(lead != c**lam for lead, lam in zip(leads, lams)):
        return (
            "not a local symmetry of the curve: component leading coefficients "
            "are not powers of a common constant"
        )
    if any(u[i] ** lams[0] != u[0] ** lam for i, lam in enumerate(lams)):
        return (
            "not a local symmetry of the curve: components do not share a "
            "common reparameterization"
        )
    return c


SYMMETRY_CURVES = (
    (4, 5, 6, 7), (4, 5, 6), (4, 5, 7), (3, 4), (2, 5), (6, 10, 15), (3, 7, 8), (5, 6, 7, 8, 9)
)
nonzero_rationals = st.builds(
    Fraction,
    st.integers(min_value=-4, max_value=4).filter(bool),
    st.integers(min_value=1, max_value=3),
)


@st.composite
def near_symmetries(draw):
    """A curve and a map x_i -> lead_i x_i + higher terms.  The leads are
    c^lam_i for a random c, some of them spoiled by a sign or a factor, or
    independent rationals; the higher terms are curve monomials of
    quasi-degree lam_i + 1 .. lam_i + 3, or none."""
    lams = draw(st.sampled_from(SYMMETRY_CURVES))
    curve = MonomialCurve(lams)
    c = draw(nonzero_rationals)
    kind = draw(st.sampled_from(["scaling", "spoiled", "diagonal"]))
    if kind == "diagonal":
        leads = [draw(nonzero_rationals) for _ in lams]
    else:
        leads = [c**lam for lam in lams]
    if kind == "spoiled":
        i = draw(st.integers(min_value=0, max_value=len(lams) - 1))
        leads[i] *= draw(st.sampled_from([-1, 2, Fraction(1, 3)]))
    components = []
    for i, lam in enumerate(lams):
        terms = {tuple(int(k == i) for k in range(len(lams))): leads[i]}
        if draw(st.booleans()):
            higher = monomials_of_qdeg(lams, lam + draw(st.integers(min_value=1, max_value=3)))
            if higher:
                terms[draw(st.sampled_from(higher))] = draw(nonzero_rationals)
        components.append(Polynomial(len(lams), terms))
    return curve, PolyMap(components)


@given(case=near_symmetries())
def test_symmetry_constant_equals_the_bezout_product(case):
    """One rational root of the first lead, with the sign every lead
    agrees with, gives the constant or the error that the Bezout product
    prod lead_i^alpha_i gives: on curve scalings, spoiled scalings and
    diagonal maps with negative leads, all with or without higher terms."""
    curve, phi = case
    try:
        got = symmetry_constant(curve, phi)
    except NotSymmetryError as exc:
        got = str(exc)
    assert got == reference_symmetry_constant(curve, phi)


def test_curve_scaling_scales_by_quasi_degree(curve4567, basis4567):
    phi = curve_scaling(curve4567, 2)
    assert symmetry_constant(curve4567, phi) == 2
    a = parse_restriction("a9 + a11- - 3*a15", basis4567)
    image = pullback_restriction(curve4567, phi, a)
    for r in a.nonzero_qdegs():
        assert image.part(r) == a.part(r) * Fraction(2) ** r
    with pytest.raises(InputError):
        curve_scaling(curve4567, 0)
    with pytest.raises(TypeError, match="rational scalar"):
        curve_scaling(curve4567, 0.5)


def test_scaling_symmetry_normalizes_rational_roots(curve4567, basis4567):
    result = scaling_symmetry(curve4567, "a9", 512)
    assert result.verdict == "normalize to 1"
    assert result.constant == Fraction(1, 2)
    a = parse_restriction("512*a9", basis4567)
    image = pullback_restriction(curve4567, result.map, a)
    assert image.coefficient("a9") == 1

    negative = scaling_symmetry(curve4567, "a10", -1024)
    assert negative.verdict == "normalize to -1"
    assert negative.constant == Fraction(1, 2)
    b = parse_restriction("-1024*a10", basis4567)
    assert pullback_restriction(curve4567, negative.map, b).coefficient("a10") == -1


def test_scaling_symmetry_without_rational_root(curve4567):
    result = scaling_symmetry(curve4567, "a11+", -8)
    assert result.verdict == "normalize to 1"
    assert result.map is None and result.constant is None
    with pytest.raises(InputError):
        scaling_symmetry(curve4567, "a11+", 0)
    with pytest.raises(TypeError, match="rational scalar"):
        scaling_symmetry(curve4567, "a9", 0.5)
