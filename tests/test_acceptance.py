"""Acceptance gate: one test per shipped guarantee.

Each test_criterion_N function checks one item; the terminal summary hook in
conftest.py prints a PASS/FAIL line per criterion.  The three strict-xfail
tests under criterion 3 record cells of the published tables that the engine
computes differently; they are expected to fail and are ledgered in the
bundled data and in the README.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import settings

from algrest.atlas import (
    default_samples,
    load_atlas,
    realization_for,
    row_class,
    verify_atlas,
    verify_distinctness,
)
from algrest.curves import (
    AlgRestriction,
    MonomialCurve,
    RestrictionBasis,
    cached_basis,
    monomials_of_qdeg,
    project,
    restriction_quotient,
    stop_qdeg,
)
from algrest.forms import DifferentialForm, Polynomial, ext_der
from algrest.invariants import (
    index_of_isotropy,
    invariant_report,
    representable_by_symplectic,
)
from algrest.linalg import rref
from algrest.orbit import admissible_shifts
from algrest.parser import parse_map, parse_restriction
from algrest.qt import RationalFunctionT, UniPoly
from algrest.symmetry import action_table, moser_reduce, shift_action

import semigroups
from direct_actions import direct_action_matrix
from generic_path import build_map
from test_atlas import alias_forms
from tables import (
    ACTIONS,
    BASIS_LABELS,
    BASIS_QDEGS,
    NONSEMIGROUP_SHIFTS,
    SHIFTS,
    STOP_QDEGS,
)

SEMIGROUPS = ((4, 5, 6, 7), (4, 5, 6), (4, 5, 7))
TOP_QDEG = {(4, 5, 6, 7): 15, (4, 5, 6): 19, (4, 5, 7): 18}


def _generic_env(row):
    env = dict(default_samples(row)[0])
    if row.sign:
        env["s"] = Fraction(1)
    return env


def test_criterion_1_graded_bases():
    """Basis labels, quasi-degrees, and dimensions of the closed-class spaces."""
    for lams in SEMIGROUPS:
        curve = MonomialCurve(lams)
        basis = cached_basis(curve)
        assert basis.labels == BASIS_LABELS[lams]
        assert tuple(el.qdeg for el in basis.elements) == BASIS_QDEGS[lams]
        assert basis.dim == len(BASIS_QDEGS[lams])
        assert basis.top_qdeg == TOP_QDEG[lams]
        # the published representative forms span the same space
        atlas = load_atlas(lams)
        rows = [
            list(project(curve, form, basis).coords)
            for form in alias_forms(atlas).values()
        ]
        assert rref(rows, basis.dim).rank == basis.dim


def test_criterion_2_lie_action_tables():
    """Action of every liftable field on every basis element, both policies;
    the pinned fields' Lie derivatives, taken directly, give every cell too."""
    for lams in SEMIGROUPS:
        curve = MonomialCurve(lams)
        basis = cached_basis(curve)
        for policy in ("grlex", "pinned"):
            table = action_table(curve, policy)
            assert table.shifts == SHIFTS[lams]
            assert table.nonsemigroup == NONSEMIGROUP_SHIFTS[lams]
            for s in table.shifts:
                direct = direct_action_matrix(basis, s, policy) if policy == "pinned" else None
                for j, label in enumerate(table.labels):
                    cell = parse_restriction(ACTIONS[lams].get((s, label), "0"), basis)
                    assert table.entry(s, label) == cell, (
                        f"{lams}: action of X_{s} on {label} under {policy}"
                    )
                    if direct is not None:
                        assert direct[j] == tuple((i, c) for i, c in enumerate(cell.coords) if c), (
                            f"{lams}: pinned Lie derivative of X_{s} on {label}"
                        )


def test_criterion_2_canonical_intertwiner_from_the_semigroup_ring():
    """The canonical map P sends the symbol e_i of degree d, t^(d - lam_i)
    dx_i in the Kaehler differentials of K[S], to the class of d(x^m dx_i),
    m the last curve-only exponent of weight d - lam_i; it intertwines the
    model action of D_s = t^(s + 1) d/dt (``semigroups.lie_action``) with
    the engine's: P(L_(D_s) e_i) = shift_action(P(e_i), s), for every d
    below the stop, every i with d - lam_i in S and every admissible s with
    d + s below the stop.  The left side reads only ``ext_der`` and
    ``project``, and only the right side reaches the closed-form action
    matrices.  Checked on the three bundled curves, (5,7), (7,9) and the
    26 semigroups of genus 1 .. 5."""
    census = [s.generators() for genus in range(1, 6) for s in semigroups.by_genus(genus)]
    assert len(census) == 26
    checks = 0
    for lams in dict.fromkeys([*SEMIGROUPS, (5, 7), (7, 9), *census]):
        curve = MonomialCurve(lams)
        basis = RestrictionBasis(curve)
        stop = basis.stop_qdeg
        images: dict[tuple[int, int], AlgRestriction] = {}

        def image(i, d):
            if (i, d) not in images:
                m = monomials_of_qdeg(lams, d - lams[i])[-1]
                form = DifferentialForm.from_term(curve.ambient, (i,), Polynomial.monomial(m))
                images[i, d] = project(curve, ext_der(form), basis)
            return images[i, d]

        shifts = admissible_shifts(curve, stop)
        for d in range(1, stop):
            for i, lam in enumerate(lams):
                if not monomials_of_qdeg(lams, d - lam):
                    continue
                for s in shifts:
                    if d + s >= stop:
                        break
                    left = AlgRestriction.zero(basis)
                    for j, c in semigroups.lie_action(lams, d, i, s).items():
                        left = left + image(j, d + s) * c
                    assert left == shift_action(image(i, d), s), (lams, d, i, s)
                    checks += 1
    assert checks == 21981


def _row_envs(row):
    for env in default_samples(row):
        if row.sign:
            yield {**env, "s": Fraction(1)}
            yield {**env, "s": Fraction(-1)}
        else:
            yield dict(env)


def test_criterion_3_invariant_columns():
    """mu, iota, and Lt columns of the bundled tables at sampled parameters."""
    for lams in SEMIGROUPS:
        atlas = load_atlas(lams)
        curve = atlas.curve
        for row in atlas.rows:
            for env in _row_envs(row):
                target = row_class(atlas, row, env)
                report = invariant_report(curve, target)
                where = f"{lams} row {row.id} at {env}"
                assert report.mu == row.mu, where
                assert report.iota == row.iota, where
                if "iota" not in row.discrepancies:
                    assert row.iota == row.iota_printed, where
                else:
                    assert row.iota != row.iota_printed, where
                if row.lt_mode in ("computed", "infinite"):
                    assert report.lt == row.lt_printed, where
                else:
                    assert row.lt_mode == "definition"
                    assert report.iota == 0 and report.lt is None, where


def _printed_iota_matches(lams, row_id):
    atlas = load_atlas(lams)
    row = atlas.row(row_id)
    target = row_class(atlas, row, _generic_env(row))
    assert index_of_isotropy(atlas.curve, target) == row.iota_printed


@pytest.mark.xfail(
    strict=True,
    reason="the bundled (4, 5, 6) table prints index of isotropy 1 in row 8; "
    "the graded computation gives 2",
)
def test_criterion_3_printed_iota_456_row_8():
    _printed_iota_matches((4, 5, 6), 8)


@pytest.mark.xfail(
    strict=True,
    reason="the bundled (4, 5, 7) table prints index of isotropy 1 in row 8; "
    "the graded computation gives 2",
)
def test_criterion_3_printed_iota_457_row_8():
    _printed_iota_matches((4, 5, 7), 8)


@pytest.mark.xfail(
    strict=True,
    reason="the bundled (4, 5, 7) table prints index of isotropy 1 in row 9; "
    "the graded computation gives 2",
)
def test_criterion_3_printed_iota_457_row_9():
    _printed_iota_matches((4, 5, 7), 9)


def test_criterion_4_symplectic_realizability():
    """Generic-rank thresholds reproduce the minimal ambient dimensions."""
    for lams in SEMIGROUPS:
        atlas = load_atlas(lams)
        curve = atlas.curve
        s = len(lams)
        for row in atlas.rows:
            env = _generic_env(row)
            target = row_class(atlas, row, env)
            where = f"{lams} row {row.id}"
            assert representable_by_symplectic(curve, target, 2) == row.n2_generic, where
            for n in range(3, s + 1):
                assert representable_by_symplectic(curve, target, n) == (
                    row.min_n <= n
                ), where
            # parameter values excluded from the generic n = 2 statement
            for param, values in row.n2_excluded.items():
                for value in values:
                    special = {**env, param: value}
                    degenerate = row_class(atlas, row, special)
                    assert not representable_by_symplectic(curve, degenerate, 2), (
                        f"{where} at {param} = {value}"
                    )
    # the (4, 5, 6) row 4 rank test disagrees with the printed bound; the
    # engine result is recorded in the bundled data as a discrepancy
    row4 = load_atlas((4, 5, 6)).row(4)
    assert row4.n2_generic and row4.min_n == 3
    assert "min_n" in row4.discrepancies


def _constant(value):
    return RationalFunctionT(UniPoly.constant(Fraction(value)))


def test_criterion_5_homotopy_reductions():
    """Moser reductions: closed-form coefficients and the defining identity."""
    curve = MonomialCurve((4, 5, 6, 7))
    basis = cached_basis(curve)
    for c1 in (Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(3), Fraction(-5, 2)):
        for c2 in (Fraction(7), Fraction(1), Fraction(-3)):
            a = parse_restriction("a11+ - 3/2*a11-", basis) + (
                parse_restriction("a12", basis) * c1
                + parse_restriction("a13+", basis) * c2
            )
            kill = a.part(13)
            result = moser_reduce(curve, a, kill)
            assert result.consistent and result.feasible
            assert result.coefficients[1] == _constant(45 * c2 / (533 * c1))
            assert result.coefficients[2] == _constant(-28 * c2 / 533)
            for s in (3, 4):
                coeff = result.coefficients[s]
                assert coeff.num.degree() <= 1 and coeff.den.degree() == 0
            assert all(c == 0 for c in result.pole_counts.values())
            for t in (Fraction(0), Fraction(1, 2), Fraction(1)):
                at = a - kill * t
                total = AlgRestriction.zero(basis)
                for s in result.shifts:
                    total = total + shift_action(at, s) * result.coefficients[s].evaluate(t)
                assert total == kill

    curve6 = MonomialCurve((4, 5, 6))
    basis6 = cached_basis(curve6)
    for sigma in (1, -1):
        for c1, c2, c3 in [
            (Fraction(3), Fraction(4), Fraction(5)),
            (Fraction(1), Fraction(1), Fraction(1)),
            (Fraction(-2), Fraction(5), Fraction(7, 2)),
        ]:
            a = (
                parse_restriction("a10", basis6) * sigma
                + parse_restriction("a11", basis6) * c1
                + parse_restriction("a13", basis6) * c2
                + parse_restriction("a17", basis6) * c3
            )
            result = moser_reduce(curve6, a, a.part(17))
            assert result.consistent and result.feasible
            assert result.coefficients[6] == _constant(c3 / (17 * c1))
            assert result.coefficients[8] == _constant(-c2 * c3 / (17 * c1**2))
            for s in result.shifts:
                if s not in (6, 8):
                    assert result.coefficients[s] == RationalFunctionT.zero()


def test_criterion_6_pairwise_distinctness():
    """No two rows of a table share all invariants and proportional leading parts."""
    for lams in SEMIGROUPS:
        failures = list(verify_distinctness(load_atlas(lams)))
        assert failures == [], failures


def test_criterion_7_atlas_realizations():
    """Every bundled realization map reproduces its row's restriction class."""
    expected_notes = {
        (4, 5, 6, 7): set(),
        (4, 5, 6): {
            "row 4: the generic-rank test and an explicit map realize this "
            "class on R^4, although the published bound is n >= 3",
            "row 8: iota computes to 2; the published table prints 1",
        },
        (4, 5, 7): {
            "row 8: iota computes to 2; the published table prints 1",
            "row 9: iota computes to 2; the published table prints 1",
        },
    }
    for lams in SEMIGROUPS:
        atlas = load_atlas(lams)
        report = verify_atlas(atlas)
        bad = [c for c in report.checks if not c.passed]
        assert report.passed, bad
        assert set(report.known_notes) == expected_notes[lams]
    # the published R^4 normal-form map for the first (4, 5, 6, 7) row is the
    # bundled realization
    row1 = load_atlas((4, 5, 6, 7)).row(1)
    real = realization_for(row1, 2)
    env = {"c1": Fraction(1), "c2": Fraction(2)}
    phi = build_map(real, env, 2)
    assert phi.components == parse_map("(x1, x2 + x4, x3, 2*x4)", 4).components


def test_criterion_8_property_suites():
    """The randomized identity suites exist and run at bulk volume."""
    assert settings().max_examples == 1000
    assert settings().derandomize is True
    import test_properties

    names = [
        "test_exterior_derivative_squares_to_zero",
        "test_exterior_derivative_is_a_derivation",
        "test_cartan_formula",
        "test_projection_kills_the_zero_space",
        "test_lie_action_shifts_the_grading",
        "test_lift_policy_does_not_change_the_action",
        "test_ideal_component_fields_act_trivially",
        "test_pmqd_is_stable_under_scalings",
        "test_substitution_equals_the_dense_reference",
        "test_pullback_along_the_restricted_map_drops_off_curve",
    ]
    for name in names:
        fn = getattr(test_properties, name)
        assert hasattr(fn, "hypothesis"), name


def _monomials(q, weights):
    """All exponent tuples e with sum(e[k] * weights[k]) == q."""
    if not weights:
        return [()] if q == 0 else []
    out = []
    w = weights[0]
    top = q // w
    for e0 in range(top + 1):
        for rest in _monomials(q - e0 * w, weights[1:]):
            out.append((e0,) + rest)
    return out


def _rank(rows):
    """Gaussian elimination over Fraction, independent of the package."""
    matrix = [list(map(Fraction, row)) for row in rows if any(row)]
    rank = 0
    col = 0
    width = len(matrix[0]) if matrix else 0
    while matrix and col < width:
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            col += 1
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        lead = matrix[rank][col]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col]:
                factor = matrix[r][col] / lead
                matrix[r] = [x - factor * y for x, y in zip(matrix[r], matrix[rank])]
        rank += 1
        col += 1
    return rank


def _oracle_dim(weights, d):
    """dim of 2-form classes in quasi-degree d, by brute-force quotient.

    Columns index pairs (monomial, slot) with slot = (i, j), i < j; the zero
    space is spanned by same-degree monomial differences in each slot and by
    exterior derivatives of same-degree differences times a single dx_i.
    """
    m = len(weights)
    slots = [(i, j) for i in range(m) for j in range(i + 1, m)]
    columns = {}
    for slot in slots:
        q = d - weights[slot[0]] - weights[slot[1]]
        if q < 0:
            continue
        for exps in _monomials(q, weights):
            columns.setdefault((exps, slot), len(columns))
    if not columns:
        return 0
    rows = []
    for slot in slots:
        q = d - weights[slot[0]] - weights[slot[1]]
        if q < 0:
            continue
        mons = _monomials(q, weights)
        for h1, h2 in zip(mons, mons[1:]):
            row = [0] * len(columns)
            row[columns[(h1, slot)]] += 1
            row[columns[(h2, slot)]] -= 1
            rows.append(row)
    for i in range(m):
        q = d - weights[i]
        if q < 0:
            continue
        mons = _monomials(q, weights)
        for h1, h2 in zip(mons, mons[1:]):
            row = [0] * len(columns)
            for h, sign in ((h1, 1), (h2, -1)):
                for k in range(m):
                    if k == i or not h[k]:
                        continue
                    derived = tuple(
                        e - 1 if idx == k else e for idx, e in enumerate(h)
                    )
                    slot = (min(k, i), max(k, i))
                    orient = 1 if k < i else -1
                    row[columns[(derived, slot)]] += sign * orient * h[k]
            rows.append(row)
    return len(columns) - _rank(rows)


def test_criterion_9_graded_dimension_oracle():
    """Quotient dimensions agree with an independent brute-force computation."""
    for lams in SEMIGROUPS:
        curve = MonomialCurve(lams)
        bound = TOP_QDEG[lams] + max(lams)
        for d in range(bound + 1):
            assert restriction_quotient(curve, 2, d).dim == _oracle_dim(lams, d), (
                f"{lams} at quasi-degree {d}"
            )


def test_criterion_9_plane_curve_milnor_numbers():
    """Plane curves: the quotient is the Tjurina algebra of x^b - y^a, so its
    dimension is tau = mu = (a - 1)(b - 1) (Milnor-Orlik 1970)."""
    for b in range(3, 10):
        for a in range(2, b):
            if math.gcd(a, b) == 1:
                basis = cached_basis(MonomialCurve((a, b)))
                assert basis.dim == (a - 1) * (b - 1), (a, b)


def test_criterion_9_closed_one_form_identity():
    """d maps the 1-form piece of degree d onto the closed 2-form classes
    there, with kernel Q d(t^d) exactly when d is a positive semigroup
    element (DJZ 2008).  The count on the right uses only 1-form pieces, so
    it checks the basis's dimensions without the exact classes the basis is
    built from; tests/test_curves.py
    ``test_exact_classes_equal_the_kernel_into_three_forms`` checks its
    vectors against the kernel of d into the 3-form pieces."""
    curves = [
        MonomialCurve(lams)
        for lams in SEMIGROUPS + ((3, 7, 8), (3, 5, 7), (2, 3), (2, 5), (5, 6, 7, 8, 9))
    ]
    curves.append(MonomialCurve((4, 5, 6), 5))
    for curve in curves:
        basis = cached_basis(curve)
        for d in range(1, basis.stop_qdeg + curve.lams[-1]):
            exact = restriction_quotient(curve, 1, d).dim - curve.in_semigroup(d)
            assert len(basis.by_degree.get(d, [])) == exact, (curve.lams, d)


def test_criterion_9_kahler_formula_from_the_semigroup_alone():
    """On every numerical semigroup of genus <= 6, the closed classes of
    each degree 1 .. stop - 1 number dim Omega_d - [d in S, d > 0], with
    dim Omega_d = |I_d| - rank R_d read off the semigroup's factorizations
    alone (``tests/semigroups.py``; DJZ 2008)."""
    checked = 0
    for genus in range(7):
        for semigroup in semigroups.by_genus(genus):
            lams = semigroup.generators()
            basis = RestrictionBasis(MonomialCurve(lams))
            for d in range(1, basis.stop_qdeg):
                got = len(basis.by_degree.get(d, []))
                assert got == semigroups.closed_dim(lams, d), (lams, d)
                checked += 1
    assert checked > 1500


def test_criterion_9_semigroup_counts_by_genus():
    """The tree enumerator gives n_g = 1, 1, 2, 4, 7, 12, 23 semigroups of
    genus g = 0 .. 6 (Bras-Amoros 2008; OEIS A007323), each once, each of
    its genus and generated by coprime minimal generators."""
    counts = []
    for genus in range(7):
        found = semigroups.by_genus(genus)
        assert len({s.gaps for s in found}) == len(found)
        assert all(s.genus == genus and math.gcd(*s.generators()) == 1 for s in found)
        counts.append(len(found))
    assert counts == [1, 1, 2, 4, 7, 12, 23]


def _complete_intersections():
    """The complete-intersection semigroups of genus 1 .. 9, by genus."""
    return [
        semigroup
        for genus in range(1, 10)
        for semigroup in semigroups.by_genus(genus)
        if semigroup.is_complete_intersection()
    ]


def test_criterion_9_complete_intersections_have_twice_the_genus_classes():
    """A complete-intersection semigroup gives a quasi-homogeneous
    isolated complete intersection curve of one branch, of delta = g (the
    gaps), with Milnor number mu = 2 delta (Milnor for plane curves;
    Buchweitz and Greuel, Invent. Math. 58, 1980) and Tjurina number
    tau = mu (Greuel, Math. Ann. 214, 1975).  That the closed 2-form
    restriction space has dimension tau is an observed identity here: the
    basis has 2g elements on all 28 complete intersections of genus <= 9
    (Herzog's criterion, ``Semigroup.is_complete_intersection``)."""
    found = _complete_intersections()
    assert [sum(s.genus == g for s in found) for g in range(1, 10)] == [1, 1, 2, 3, 2, 4, 5, 3, 7]
    for semigroup in found:
        lams = semigroup.generators()
        assert RestrictionBasis(MonomialCurve(lams)).dim == 2 * semigroup.genus, lams


def test_criterion_9_complete_intersections_are_symmetric():
    """A complete intersection is Gorenstein, so its semigroup is symmetric
    (Kunz, Proc. AMS 25, 1970).  The symmetry test reads the definition; on
    every semigroup of genus <= 9 it agrees with 2g = F + 1 (Rosales and
    Garcia-Sanchez 2009)."""
    assert all(s.is_symmetric() for s in _complete_intersections())
    for genus in range(10):
        for semigroup in semigroups.by_genus(genus):
            assert semigroup.is_symmetric() == (2 * genus == semigroup.frobenius + 1)


def test_criterion_9_certified_tail():
    """Every 2-form piece from the certified stop on is zero."""
    assert stop_qdeg(MonomialCurve((1,), 3)) == 1
    for lams, stop in STOP_QDEGS.items():
        curve = MonomialCurve(lams)
        assert stop_qdeg(curve) == stop
        assert cached_basis(curve).stop_qdeg == stop
        for d in range(stop, stop + 21):
            assert restriction_quotient(curve, 2, d).dim == 0, (lams, d)
