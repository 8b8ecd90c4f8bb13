import random
from fractions import Fraction

import pytest

from algrest import atlas as atlas_module
from algrest import invariants as invariants_module
from algrest import orbit as orbit_module
from algrest.atlas import (
    BUNDLED,
    Realization,
    build_template,
    coeff_value,
    default_samples,
    load_atlas,
    load_samples_file,
    modulus_directions,
    parse_coeff,
    realization_for,
    row_class,
    verify_atlas,
    verify_distinctness,
    verify_row,
)
from algrest.curves import AlgRestriction, MonomialCurve, cached_basis, project
from algrest.errors import InputError
from algrest.forms import PolyMap, Polynomial, pullback
from algrest.invariants import symplectic_multiplicity
from algrest.linalg import rref, zcleared, zechelon
from algrest.orbit import orbit_tangent_space
from algrest.parser import parse_form

from generic_path import (
    apply_series,
    build_map,
    curve_images,
    restrict,
    standard_symplectic,
    terms_of,
)


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
    # with no sample at all nothing was excluded, and the message says so
    with pytest.raises(InputError, match="row 2 was given no samples"):
        verify_row(atlas4567, row, samples=[])


def test_verify_atlas_measures_each_sample_once(monkeypatch, atlas4567, atlas456, atlas457):
    built, multiplicities = [], []
    tangent_space = orbit_module.orbit_tangent_space
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
    monkeypatch.setattr(orbit_module, "orbit_tangent_space", building)
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
        alone = verify_distinctness(atlas)
        assert alone == list(verify_atlas(atlas, seed=seed).distinctness_failures)
    with pytest.raises(TypeError):
        verify_distinctness(atlas456, seed)  # checks is keyword-only


def test_verify_distinctness_reads_the_reports_of_its_checks(monkeypatch, atlas456):
    checks = [check for row in atlas456.rows for check in verify_row(atlas456, row)]

    def refuse(*args, **kwargs):
        raise AssertionError("invariants measured again")

    monkeypatch.setattr(atlas_module, "invariant_report", refuse)
    assert verify_distinctness(atlas456, checks=checks) == []
    with pytest.raises(AssertionError, match="measured again"):
        verify_distinctness(atlas456, checks=checks[1:])


@pytest.mark.parametrize(
    ("row_id", "changes", "expected"),
    [
        (1, {"mu": 3}, "mu = 2, table says 3"),
        (1, {"iota": 1}, "iota = 0, expected 1"),
        (5, {"lt_printed": 10}, "lt = 9, table says 10"),
        (10, {"lt_printed": 9}, "lt = inf, table says 9"),
        (1, {"n2_generic": False}, "representability on R^4: rank test says True, expected False"),
    ],
    ids=["mu", "iota", "lt-computed", "lt-infinite", "representability"],
)
def test_verify_row_reports_a_table_entry_that_disagrees(atlas456, row_id, changes, expected):
    """Each invariant check fires, alone, on a row whose table entry is wrong."""
    row = atlas456.row(row_id)._replace(**changes)
    checks = verify_row(atlas456, row, samples=default_samples(row)[:1])
    assert [check.failures for check in checks] == [(expected,)]


def test_verify_row_reports_a_modulus_tangent_to_the_orbit(atlas456):
    """Row 1 of (4,5,6) with one more modulus d along a13, which is tangent
    to the orbit there; at d = 0 the class is the row's own."""
    row = atlas456.row(1)
    bent = row._replace(
        params=(*row.params, "d"),
        restriction={**row.restriction, "a13": (Fraction(1), "d")},
        moduli=(*row.moduli, "d"),
    )
    env = {**default_samples(row)[0], "d": Fraction(0)}
    assert [check.failures for check in verify_row(atlas456, bent, samples=[env])] == [
        ("declared modulus d is tangent to the orbit",)
    ]


def test_verify_distinctness_reports_rows_it_cannot_tell_apart(atlas456):
    twin = atlas456.row(1)._replace(id=99)
    doubled = atlas456._replace(rows=(*atlas456.rows, twin))
    assert verify_distinctness(doubled) == ["row 1 and row 99 are not distinguished"]
    # a sign row whose restriction ignores s has two equal variants
    unsigned = tuple(row._replace(sign=row.id == 1 or row.sign) for row in atlas456.rows)
    assert verify_distinctness(atlas456._replace(rows=unsigned)) == [
        "sign variants of row 1 are not distinguished"
    ]


def test_verify_distinctness_passes_sign_variants_of_unequal_invariants(atlas4567):
    # a11+ + a11- and a11+ - a11- are rows 4 and 7 of (4,5,6,7): mu 4 and 5
    row = atlas4567.row(4)._replace(
        params=(), restriction={"a11+": (Fraction(1), None), "a11-": (Fraction(1), "s")}, sign=True
    )
    assert verify_distinctness(atlas4567._replace(rows=(row,))) == []


def test_default_samples_skip_an_excluded_pool_value(atlas456):
    # row 1, sample 0, draws pool entry 1 (-1/3) for c1 and entry 3 (7/2) for c2
    row = atlas456.row(1)._replace(excluded={"c1": (Fraction(-1, 3),)})
    assert default_samples(row)[0] == {"c1": Fraction(5), "c2": Fraction(7, 2)}


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
    assert load_samples_file('{"2": [{"c": -4}]}') == {2: [{"c": Fraction(-4)}]}


@pytest.mark.parametrize(
    "text",
    [
        '{"1": [{"c2": "1"}], "01": [{"c2": "2"}]}',
        '{"4": [], "4": [{"c1": "1", "c2": "0"}]}',
        '{"1": [{"c2": "1", "c2": "2"}]}',
    ],
    ids=["row-as-01", "repeated-row", "repeated-parameter"],
)
def test_load_samples_file_rejects_a_name_given_twice(text):
    with pytest.raises(InputError, match="named twice"):
        load_samples_file(text)


@pytest.mark.parametrize("value", ['"0.5"', '"1e3"', '"1_000"', '"+3"', '"1/0"', '"c"', "0.5", "true"])
def test_load_samples_file_reads_values_by_the_coefficient_rule(value):
    """A value is an integer or a string the coefficient rule reads as a
    constant: no decimal, exponent, digit separator, plus sign or name."""
    with pytest.raises(InputError, match="must be an integer or a string p/q, q nonzero"):
        load_samples_file(f'{{"1": [{{"c2": {value}}}]}}')


def generic_checks(basis, phi, n):
    """The three realization checks of ``verify_row`` by the generic path:
    the map along the curve by substitution into the curve's images, as
    {t-power: coefficient} of its nonzero coefficients, the
    rank of the linear part by a dense rref, and the class of the pulled
    back standard form by project(pullback(F.restrict(s), omega_std))."""
    curve = basis.curve
    return (
        [terms_of(f) for f in apply_series(phi, curve_images(MonomialCurve(curve.lams, 2 * n)))],
        rref(phi.linear_matrix(), 2 * n).rank,
        project(curve, pullback(restrict(phi, len(curve.lams)), standard_symplectic(n)), basis),
    )


def closed_checks(basis, real, env, n):
    """The same three values by the integer path that ``verify_row`` runs:
    the exponent data read once (``_read_map``), then one sample's checks
    (``_map_checks``), each series divided back by its component's K."""
    data = atlas_module._read_map(basis, real, n)
    series, rank, projected = atlas_module._map_checks(basis, data, env)
    return (
        [{q: Fraction(c, scale) for q, c in powers.items()} for scale, powers in series],
        rank,
        projected,
    )


def as_realization(phi):
    """A map with constant coefficients as a stored realization on R^{2n}."""
    n = len(phi.components) // 2
    map_data = tuple(
        tuple(((c, None), exps) for exps, c in comp.terms.items()) for comp in phi.components
    )
    return Realization(n=n, map_data=map_data, template=(), restriction={}, excluded={})


def generic_failures(atlas, real, env, n):
    """The failure messages of the three realization checks, by the generic path."""
    basis = cached_basis(atlas.curve)
    series, rank, projected = generic_checks(basis, build_map(real, env, n), n)
    realized = AlgRestriction.from_coeffs(
        basis, {label: coeff_value(c, env) for label, c in real.restriction.items()}
    )
    failures = []
    if series != build_template(real, env, n):
        failures.append("map does not reproduce the stored parameterization")
    if rank != 2 * n:
        failures.append("linear part of the realization map is singular")
    if projected != realized:
        failures.append(
            f"pullback of the standard symplectic form projects to {projected}, "
            f"stored restriction is {realized}"
        )
    return failures


def sample_envs(row, real):
    """The default samples with two random ones, over both signs of a sign
    row, off every exclusion of the row and the realization."""
    samples = default_samples(row) + default_samples(row, seed=11)[-1:]
    samples += default_samples(row, seed=12)[-1:]
    for env in atlas_module._expanded_envs(row, samples):
        if not (
            atlas_module._violates(env, row.excluded) or atlas_module._violates(env, real.excluded)
        ):
            yield env


def test_closed_form_checks_equal_the_generic_path_on_every_stored_realization(
    atlas4567, atlas456, atlas457
):
    """Every stored realization of the three tables, at every n from the
    row's min_n to s (so the identity-padded components are covered too),
    at the default and at random samples: the curve series, the rank of
    the linear part and the pulled-back class agree with the generic path."""
    compared = 0
    for atlas in (atlas4567, atlas456, atlas457):
        basis = cached_basis(atlas.curve)
        for row in atlas.rows:
            for n in range(row.min_n, len(atlas.curve.lams) + 1):
                real = realization_for(row, n)
                for env in sample_envs(row, real):
                    generic = generic_checks(basis, build_map(real, env, n), n)
                    assert closed_checks(basis, real, env, n) == generic, (row.id, n, env)
                    compared += 1
    assert compared > 300


def random_map(rng, s):
    """n with 2n >= s and a map of R^{2n} fixing the origin: mostly a
    permutation with nonzero factors for its linear part, plus up to three
    terms per component of total degree at most 3, the off-curve
    coordinates included, with coefficients in -3..3."""
    n = rng.randint((s + 1) // 2, 3)
    m = 2 * n
    order = rng.sample(range(m), m) if rng.random() < 0.8 else [None] * m
    components = []
    for i in order:
        terms = {}
        if i is not None:
            terms[tuple(int(k == i) for k in range(m))] = Fraction(rng.choice((-3, -1, 1, 2)))
        for _ in range(rng.randint(0, 3)):
            exps = [0] * m
            for _ in range(rng.randint(1, 3)):
                exps[rng.randrange(m)] += 1
            terms[tuple(exps)] = Fraction(rng.randint(-3, 3))
        components.append(Polynomial(m, terms))
    return n, PolyMap(components)


@pytest.mark.parametrize("lams", BUNDLED)
def test_closed_form_checks_equal_the_generic_path_on_random_maps(lams):
    basis = cached_basis(MonomialCurve(lams))
    rng = random.Random(sum(lams))
    for _ in range(400):
        n, phi = random_map(rng, len(lams))
        assert closed_checks(basis, as_realization(phi), {}, n) == generic_checks(basis, phi, n), phi


def test_closed_form_checks_scale_paired_components_with_different_denominators():
    """Each pair of components enters the pullback over its own K_(2i-1)
    K_(2i), 3 * 4 and 5 * 7 here, and both pairs add to the degrees 13 and
    14: the integer sums over their lcm agree with the generic path."""
    curve = MonomialCurve((4, 5, 6, 7))
    basis = cached_basis(curve)
    x = [Polynomial.variable(4, i) for i in range(4)]
    phi = PolyMap([
        x[0] * Fraction(1, 3) + x[0] * x[0] * Fraction(2, 3),
        x[1] * Fraction(5, 4) + x[0] * x[2] * Fraction(1, 2),
        x[2] * Fraction(1, 5) + x[0] * x[1] * Fraction(2, 5),
        x[3] * Fraction(3, 7) + x[0] * x[0] * Fraction(2, 7),
    ])
    real = as_realization(phi)
    data = atlas_module._read_map(basis, real, 2)
    degrees = [{d for j, d, *_ in data[2] if j == i} for i in (0, 1)]
    assert degrees[0] & degrees[1] == {13, 14}
    closed = closed_checks(basis, real, {}, 2)
    assert closed == generic_checks(basis, phi, 2)
    assert len(closed[2].nonzero_qdegs()) >= 3


def _corrupted(row, n, component, position, replace):
    """``row`` with one entry of the stored realization for n replaced:
    ``replace`` maps the old (coefficient, exponent or power) pair at
    ``position`` of map component ``component``, or of the template when
    ``component`` is negative, to the new pair."""
    real = realization_for(row, n)
    field = "template" if component < 0 else "map_data"
    comps = list(getattr(real, field))
    c = ~component if component < 0 else component
    entries = list(comps[c])
    entries[position] = replace(entries[position])
    comps[c] = tuple(entries)
    bad = real._replace(**{field: tuple(comps)})
    others = tuple(r for r in row.realizations if r is not real)
    return row._replace(realizations=(bad, *others)), bad


@pytest.mark.parametrize(
    ("n", "component", "position", "replace", "expected"),
    [
        # F2 = x2 + c1*x4 becomes x2 + 2*c1*x4
        (2, 1, 1, lambda e: ((2 * e[0][0], e[0][1]), e[1]), {
            "map does not reproduce the stored parameterization",
            "pullback of the standard symplectic form projects to",
        }),
        # the template's first component t^4 becomes 2*t^4
        (2, ~0, 0, lambda e: ((2 * e[0][0], e[0][1]), e[1]), {
            "map does not reproduce the stored parameterization",
        }),
        # F6 = x6, off the curve, becomes x6^2: only the linear part changes
        (3, 5, 0, lambda e: (e[0], (0, 0, 0, 0, 0, 2)), {
            "linear part of the realization map is singular",
        }),
    ],
    ids=["map-coefficient", "template", "linear-part"],
)
def test_corrupted_realizations_keep_their_failure_messages(
    atlas4567, n, component, position, replace, expected
):
    """A corrupted map coefficient, template entry or linear part of row 1
    fails its own checks, with the messages of the generic path."""
    row, bad = _corrupted(atlas4567.row(1), n, component, position, replace)
    checks = verify_row(atlas4567, row, n=n, seed=3)
    assert checks
    for check in checks:
        assert list(check.failures) == generic_failures(atlas4567, bad, check.env, n)
        assert {next(m for m in expected if f.startswith(m)) for f in check.failures} == expected


def direction_samples(row):
    """The default samples and the random ones of seeds 3 and 11, over both
    signs of a sign row."""
    samples = default_samples(row) + default_samples(row, seed=3)[-1:]
    samples += default_samples(row, seed=11)[-1:]
    return list(atlas_module._expanded_envs(row, samples))


def test_modulus_directions_equal_the_bumped_class_differences(atlas4567, atlas456, atlas457):
    """The per-row direction of each modulus p equals the class at p + 1
    minus the class at p, at every sample: the old per-sample form.  Every
    bundled modulus has factor 1 at one label, so a made-up row adds
    factors other than 1 and a modulus at two labels."""
    made_up = atlas4567.row(4)._replace(
        restriction={
            "a9": (Fraction(1), None),
            "a11-": (Fraction(-3, 2), "c1"),
            "a13+": (Fraction(2), "c1"),
            "a12": (Fraction(1, 3), "c2"),
        }
    )
    compared = 0
    for atlas, extra in ((atlas4567, [made_up]), (atlas456, []), (atlas457, [])):
        basis = cached_basis(atlas.curve)
        for row in [*atlas.rows, *extra]:
            directions = modulus_directions(basis, row)
            assert [param for param, _ in directions] == list(row.moduli)
            for env in direction_samples(row):
                target = row_class(atlas, row, env)
                for param, direction in directions:
                    bumped = {**env, param: env[param] + 1}
                    assert direction == row_class(atlas, row, bumped) - target, (row.id, param)
                    compared += 1
    assert compared > 150


def test_declared_moduli_are_jointly_transverse_to_the_orbit(atlas4567, atlas456, atlas457):
    """At every default sample of every row, both signs included, the
    directions of the row's moduli raise the rank of the tangent rows by
    exactly their number: they are independent modulo the orbit, not only
    each outside it."""
    samples = 0
    for atlas in (atlas4567, atlas456, atlas457):
        basis = cached_basis(atlas.curve)
        for row in atlas.rows:
            directions = [zcleared(d.entries) for _, d in modulus_directions(basis, row)]
            for env in atlas_module._expanded_envs(row, default_samples(row)):
                tangent = orbit_tangent_space(atlas.curve, row_class(atlas, row, env))
                rows = [u for _, u in tangent.rows if u]
                assert len(zechelon(rows + directions)) - tangent.dim == len(row.moduli), (
                    row.id,
                    env,
                )
                samples += 1
    assert samples == 127
