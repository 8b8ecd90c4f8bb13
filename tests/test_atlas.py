from fractions import Fraction

import pytest

from algrest import atlas as atlas_module
from algrest import invariants as invariants_module
from algrest import symmetry as symmetry_module
from algrest.atlas import (
    BUNDLED,
    build_map,
    coeff_value,
    default_samples,
    load_atlas,
    load_samples_file,
    parse_coeff,
    realization_for,
    row_class,
    standard_symplectic,
    verify_atlas,
    verify_distinctness,
    verify_row,
)
from algrest.curves import project
from algrest.errors import InputError
from algrest.invariants import symplectic_multiplicity
from algrest.linalg import rref
from algrest.parser import parse_form
from algrest.poly import Polynomial
from algrest.symmetry import orbit_tangent_space


def test_bundled_row_counts(atlas4567, atlas456, atlas457):
    assert BUNDLED == ((4, 5, 6, 7), (4, 5, 6), (4, 5, 7))
    assert len(atlas4567.rows) == 18
    assert len(atlas456.rows) == 10
    assert len(atlas457.rows) == 10
    for atlas in (atlas4567, atlas456, atlas457):
        assert [row.id for row in atlas.rows] == list(range(1, len(atlas.rows) + 1))


def test_load_atlas_unknown_semigroup():
    with pytest.raises(InputError):
        load_atlas((3, 5, 7))


def test_atlas_row_lookup(atlas4567):
    assert atlas4567.row(4).klass == "a11+ + c1*a11- + c2*a13+"
    with pytest.raises(InputError):
        atlas4567.row(99)


def alias_forms(atlas):
    """The published representative 2-forms, parsed, keyed by basis label."""
    return {label: parse_form(text, atlas.curve.ambient) for label, text in atlas.aliases.items()}


def test_alias_forms_span_the_basis(atlas4567, basis4567):
    forms = alias_forms(atlas4567)
    assert set(forms) == set(basis4567.labels)
    rows = [
        list(project(atlas4567.curve, form, basis4567).coords)
        for form in forms.values()
    ]
    assert rref(rows, basis4567.dim).rank == basis4567.dim


def test_eval_coeff():
    env = {"c1": Fraction(3), "c2": Fraction(-5), "s": Fraction(-1)}

    def eval_coeff(expr, env):
        return coeff_value(parse_coeff(expr), env)

    assert eval_coeff("1", env) == 1
    assert eval_coeff("-1", env) == -1
    assert eval_coeff("-3/2", env) == Fraction(-3, 2)
    assert eval_coeff("c1", env) == 3
    assert eval_coeff("-c2", env) == 5
    assert eval_coeff("2*c2", env) == -10
    assert eval_coeff("1/2*c1", env) == Fraction(3, 2)
    assert eval_coeff("s", env) == -1
    with pytest.raises(InputError):
        eval_coeff("c9", env)
    with pytest.raises(InputError):
        eval_coeff("c1*c2", env)


def test_load_atlas_parses_coefficients_once(atlas4567):
    row = atlas4567.row(1)
    assert row.restriction == {
        "a9": (Fraction(1), None),
        "a11-": (Fraction(1), "c1"),
        "a13+": (Fraction(1), "c2"),
    }
    for real in row.realizations:
        for comp in real.map_data:
            for (factor, name), _ in comp:
                assert type(factor) is Fraction and name in (None, *row.params)


def test_row_class_evaluates_restriction(atlas4567, basis4567):
    row = atlas4567.row(1)
    a = row_class(atlas4567, row, {"c1": Fraction(2), "c2": Fraction(-3)})
    assert a.coefficient("a9") == 1
    assert a.coefficient("a11-") == 2
    assert a.coefficient("a13+") == -3


def test_default_samples_respect_exclusions(atlas4567):
    row = atlas4567.row(4)
    excluded = {Fraction(-3, 2), Fraction(-1, 3), Fraction(-1), Fraction(12, 7)}
    for env in default_samples(row, seed=7):
        assert set(env) == {"c1", "c2"}
        assert env["c1"] not in excluded
    assert len(default_samples(row, seed=7)) == 4
    assert len(default_samples(row)) == 3


def test_default_samples_dedupe_paramless_rows(atlas4567):
    row = atlas4567.row(18)
    assert row.params == ()
    assert default_samples(row, seed=5) == [{}]


def test_realization_for_picks_largest_fitting(atlas4567):
    row = atlas4567.row(1)
    assert realization_for(row, 2).n == 2
    assert realization_for(row, 3).n == 3
    assert realization_for(row, 5).n == 3
    deep = atlas4567.row(10)
    assert deep.min_n == 3
    with pytest.raises(InputError):
        realization_for(deep, 2)


def test_build_map_pads_with_identity(atlas4567):
    row = atlas4567.row(1)
    real = realization_for(row, 2)
    env = {"c1": Fraction(1), "c2": Fraction(2)}
    phi = build_map(real, env, 3)
    assert len(phi.components) == 6
    assert phi.components[4] == Polynomial.variable(6, 4)
    assert phi.components[5] == Polynomial.variable(6, 5)


def test_standard_symplectic():
    assert standard_symplectic(2) == parse_form("dx1^dx2 + dx3^dx4", 4)
    assert standard_symplectic(3) == parse_form("dx1^dx2 + dx3^dx4 + dx5^dx6", 6)


def test_verify_row_with_custom_samples(atlas4567):
    row = atlas4567.row(1)
    checks = verify_row(atlas4567, row, samples=[{"c1": Fraction(1), "c2": Fraction(3)}])
    assert len(checks) == 1
    assert checks[0].passed
    assert checks[0].env == {"c1": Fraction(1), "c2": Fraction(3)}


def test_verify_row_expands_signs(atlas4567):
    row = atlas4567.row(3)
    assert row.sign
    checks = verify_row(atlas4567, row, samples=[{"c1": Fraction(2), "c2": Fraction(1)}])
    assert len(checks) == 2
    assert {check.env["s"] for check in checks} == {Fraction(1), Fraction(-1)}
    assert all(check.passed for check in checks)


def test_verify_row_skips_excluded_samples(atlas4567):
    row = atlas4567.row(2)
    checks = verify_row(
        atlas4567,
        row,
        samples=[{"c1": Fraction(0), "c2": Fraction(1)}, {"c1": Fraction(1), "c2": Fraction(1)}],
    )
    # the first sample hits the exclusion c1 = 0 and is skipped; the sign
    # expansion doubles the surviving one
    assert len(checks) == 2


def test_verify_row_reads_mu_off_one_tangent_space_per_sample(
    monkeypatch, atlas4567, atlas456, atlas457
):
    built = []

    def recording(curve, a):
        tangent = orbit_tangent_space(curve, a)
        built.append((curve, a, tangent))
        return tangent

    monkeypatch.setattr(atlas_module, "orbit_tangent_space", recording)
    for atlas in (atlas4567, atlas456, atlas457):
        for row in atlas.rows:
            built.clear()
            checks = verify_row(atlas, row, seed=1)
            assert checks and all(check.passed for check in checks)
            assert len(built) == len(checks)
            for curve, a, tangent in built:
                assert tangent.codim == symplectic_multiplicity(curve, a) == row.mu


def test_verify_row_rejects_a_row_without_surviving_samples(atlas4567):
    row = atlas4567.row(2)
    with pytest.raises(InputError, match="row 2 has no sample outside"):
        verify_row(atlas4567, row, samples=[{"c1": Fraction(0), "c2": Fraction(1)}])
    with pytest.raises(InputError, match="row 2 has no sample outside"):
        verify_row(atlas4567, row, samples=[])


def test_verify_atlas_measures_each_sample_once(monkeypatch, atlas4567, atlas456, atlas457):
    built, multiplicities = [], []
    tangent_space = symmetry_module.orbit_tangent_space
    multiplicity = invariants_module.symplectic_multiplicity

    def building(curve, a):
        # the class keeps its tangent space, so a repeated call returns
        # the same object: distinct objects count the builds
        tangent = tangent_space(curve, a)
        built.append(tangent)
        return tangent

    def measuring(curve, a):
        multiplicities.append(a)
        return multiplicity(curve, a)

    monkeypatch.setattr(atlas_module, "orbit_tangent_space", building)
    monkeypatch.setattr(symmetry_module, "orbit_tangent_space", building)
    monkeypatch.setattr(invariants_module, "symplectic_multiplicity", measuring)
    for atlas in (atlas4567, atlas456, atlas457):
        built.clear()
        multiplicities.clear()
        report = verify_atlas(atlas)
        assert report.passed
        assert len({id(tangent) for tangent in built}) == len(report.checks)
        assert len(multiplicities) == len(report.checks)
        assert all(check.report.mu == atlas.row(check.row_id).mu for check in report.checks)


@pytest.mark.parametrize("seed", [0, 5])
def test_verify_distinctness_alone_matches_verify_atlas(seed, atlas4567, atlas456, atlas457):
    for atlas in (atlas4567, atlas456, atlas457):
        alone = verify_distinctness(atlas, seed)
        assert alone == list(verify_atlas(atlas, seed=seed).distinctness_failures)


def test_verify_distinctness_reads_the_reports_of_its_checks(monkeypatch, atlas456):
    checks = [check for row in atlas456.rows for check in verify_row(atlas456, row)]

    def refuse(*args, **kwargs):
        raise AssertionError("invariants measured again")

    monkeypatch.setattr(atlas_module, "invariant_report", refuse)
    assert verify_distinctness(atlas456, checks=checks) == []
    with pytest.raises(AssertionError, match="measured again"):
        verify_distinctness(atlas456, checks=checks[1:])


def test_verify_row_rejects_small_n(atlas4567):
    row = atlas4567.row(10)
    with pytest.raises(InputError):
        verify_row(atlas4567, row, n=2)


def test_verify_row_records_known_notes(atlas456):
    row = atlas456.row(8)
    checks = verify_row(atlas456, row, samples=[{"c": Fraction(2)}])
    assert len(checks) == 1
    assert checks[0].passed
    assert any("computes to 2" in note for note in checks[0].known)


def test_load_samples_file():
    text = '{"1": [{"c2": "3/2"}, {"c2": "-4"}], "4": [{"c1": "1", "c2": "0"}]}'
    parsed = load_samples_file(text)
    assert parsed == {
        1: [{"c2": Fraction(3, 2)}, {"c2": Fraction(-4)}],
        4: [{"c1": Fraction(1), "c2": Fraction(0)}],
    }
