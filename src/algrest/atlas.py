"""Bundled classification tables and their machine verification.

Each bundled semigroup ships a JSON atlas: one row per normal form with
its parameter constraints, expected invariants, minimal symplectic
dimension, moduli, and explicit realizations (a polynomial map F on
R^{2n} together with the parameterization it produces).  Verification
recomputes everything from scratch at sample parameter values: F maps the
standard symplectic structure onto the stored class, the row invariants
match, declared moduli are transverse to the orbit, the realizability
thresholds agree with the exact rank test, and distinct rows stay
distinguishable.  Known discrepancies recorded in the data are reported
as such rather than silently accepted or asserted away.

Coefficient expressions are parsed once, when a table is loaded; a sample
only multiplies.  Each sample's invariants are measured once, by
``verify_row``, and the distinctness check reads them off its checks.

The three checks on a realization F run in Z.  Its exponent data is read
once per row (``_read_map``): each term's t-power along the curve
(``MonomialCurve.power_of``), its linear slot, and the integer piece rows
that each pair of terms of F_(2i-1) and F_(2i) adds to F^* omega_std.  A
sample clears each component once to K_i and integer numerators
(``_map_checks``), compares its series with K_i times the stored
parameterization, ranks the linear rows by one ``zechelon`` and projects
the pullback summed over L = lcm(K_(2i-1) K_(2i)).  The directions of the
declared moduli are read off the row's coefficients once per row.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from fractions import Fraction
from importlib import resources
from typing import Mapping, NamedTuple, Sequence

from .curves import (
    AlgRestriction,
    MonomialCurve,
    RestrictionBasis,
    cached_basis,
    project_vectors,
)
from .errors import InputError
from .invariants import (
    Extended,
    InvariantReport,
    invariant_report,
    pmqd_compare,
    representable_by_symplectic,
)
from .linalg import zdenominated, zechelon
from .orbit import orbit_tangent_space
from .poly import add_into

_COEFF_RE = re.compile(
    r"^\s*(-)?\s*(?:(\d+(?:/\d+)?)\s*(?:\*\s*([A-Za-z_][A-Za-z_0-9]*))?"
    r"|([A-Za-z_][A-Za-z_0-9]*))\s*$"
)


Coeff = tuple[Fraction, str | None]


def parse_coeff(expr: str) -> Coeff:
    """Parse a coefficient expression, [-] rational [* name] or [-] name,
    into its rational factor and its parameter name (None for a constant)."""
    match = _COEFF_RE.match(expr)
    if match is None:
        raise InputError(f"bad coefficient expression {expr!r}")
    neg, number, named_factor, bare = match.groups()
    factor = Fraction(1) if number is None else Fraction(number)
    return (-factor if neg else factor), (bare if number is None else named_factor)


def coeff_value(coeff: Coeff, env: Mapping[str, Fraction]) -> Fraction:
    """The value of a parsed coefficient at a parameter assignment."""
    factor, name = coeff
    if name is None:
        return factor
    if name not in env:
        raise InputError(f"unbound parameter {name!r}")
    return factor * env[name]


def _parse_coeffs(data: Mapping[str, str]) -> dict[str, Coeff]:
    return {label: parse_coeff(expr) for label, expr in data.items()}


def _values(coeffs: Mapping[str, Coeff], env: Mapping[str, Fraction]) -> dict[str, Fraction]:
    return {label: coeff_value(coeff, env) for label, coeff in coeffs.items()}


def _rational(expr: str) -> Fraction:
    """A rational constant, read by the coefficient rule with no name."""
    factor, name = parse_coeff(expr)
    if name is not None:
        raise InputError(f"bad rational {expr!r}")
    return factor


def _parse_excluded(data: Mapping[str, Sequence[str]] | None) -> dict[str, tuple[Fraction, ...]]:
    return {p: tuple(_rational(v) for v in vals) for p, vals in (data or {}).items()}


class Realization(NamedTuple):
    """An explicit map realizing a row's class on R^{2n}."""

    n: int
    map_data: tuple[tuple[tuple[Coeff, tuple[int, ...]], ...], ...]
    template: tuple[tuple[tuple[Coeff, int], ...], ...]
    restriction: Mapping[str, Coeff]
    excluded: Mapping[str, tuple[Fraction, ...]]


class AtlasRow(NamedTuple):
    """One normal-form row of a classification table."""

    id: int
    klass: str
    params: tuple[str, ...]
    sign: bool
    restriction: Mapping[str, Coeff]
    excluded: Mapping[str, tuple[Fraction, ...]]
    mu: int
    iota_printed: Extended
    iota: Extended
    lt_printed: Extended | None
    lt_mode: str
    min_n: int
    moduli: tuple[str, ...]
    n2_generic: bool
    n2_excluded: Mapping[str, tuple[Fraction, ...]]
    discrepancies: Mapping[str, str]
    realizations: tuple[Realization, ...]


class Atlas(NamedTuple):
    """A classification table for one semigroup."""

    curve: MonomialCurve
    aliases: Mapping[str, str]
    rows: tuple[AtlasRow, ...]

    def row(self, row_id: int) -> AtlasRow:
        for row in self.rows:
            if row.id == row_id:
                return row
        raise InputError(f"no atlas row {row_id}")


def _decode_extended(value: object) -> Extended:
    if value == "inf":
        return math.inf
    if isinstance(value, int):
        return value
    raise InputError(f"bad invariant value {value!r}")


def load_atlas(lams: Sequence[int]) -> Atlas:
    name = "atlas_" + "_".join(str(v) for v in lams) + ".json"
    try:
        raw = resources.files("algrest.data").joinpath(name).read_text()
    except FileNotFoundError as exc:
        raise InputError(
            f"no bundled classification table for the semigroup {tuple(lams)}"
        ) from exc
    data = json.loads(raw)
    curve = MonomialCurve(tuple(data["semigroup"]))
    rows = []
    for rd in data["rows"]:
        realizations = tuple(
            Realization(
                n=real["n"],
                map_data=tuple(
                    tuple((parse_coeff(str(e)), tuple(x)) for e, x in comp) for comp in real["map"]
                ),
                template=tuple(
                    tuple((parse_coeff(str(e)), int(p)) for e, p in comp)
                    for comp in real["template"]
                ),
                restriction=_parse_coeffs(real["restriction"]),
                excluded=_parse_excluded(real.get("excluded")),
            )
            for real in rd["realizations"]
        )
        iota_printed = _decode_extended(rd["expected"]["iota"])
        discrepancies = dict(rd.get("discrepancies", {}))
        iota = iota_printed
        if "iota" in discrepancies:
            iota = _decode_extended(rd["expected"]["iota_computed"])
        lt_raw = rd["expected"]["lt"]
        rows.append(
            AtlasRow(
                id=rd["id"],
                klass=rd["class"],
                params=tuple(rd["params"]),
                sign=bool(rd["sign"]),
                restriction=_parse_coeffs(rd["restriction"]),
                excluded=_parse_excluded(rd.get("excluded")),
                mu=rd["expected"]["mu"],
                iota_printed=iota_printed,
                iota=iota,
                lt_printed=None if lt_raw is None else _decode_extended(lt_raw),
                lt_mode=rd["expected"]["lt_mode"],
                min_n=rd["min_n"],
                moduli=tuple(rd["moduli"]),
                n2_generic=bool(rd["n2"]["generic"]),
                n2_excluded=_parse_excluded(rd["n2"].get("excluded")),
                discrepancies=discrepancies,
                realizations=realizations,
            )
        )
    return Atlas(curve=curve, aliases=dict(data["aliases"]), rows=tuple(rows))


def row_class(atlas: Atlas, row: AtlasRow, env: Mapping[str, Fraction]) -> AlgRestriction:
    return AlgRestriction.from_coeffs(cached_basis(atlas.curve), _values(row.restriction, env))


def _violates(env: Mapping[str, Fraction], excluded: Mapping[str, tuple[Fraction, ...]]) -> bool:
    return any(env.get(p) in vals for p, vals in excluded.items())


_POOL = tuple(Fraction(v) for v in "2 -1/3 5 7/2 -4 1/5 3 -5/2 11 -7".split())


def default_samples(row: AtlasRow, seed: int = 0) -> list[dict[str, Fraction]]:
    """Deterministic parameter samples respecting every declared exclusion.

    The first three samples are drawn from a fixed pool; a nonzero seed
    appends one extra random sample.  Sign parameters are not included here;
    verification expands each sample over both signs for sign rows.
    """
    combined: dict[str, tuple[Fraction, ...]] = dict(row.excluded)
    for real in row.realizations:
        for p, vals in real.excluded.items():
            combined[p] = tuple(set(combined.get(p, ())) | set(vals))
    samples = []
    for k in range(3):
        env: dict[str, Fraction] = {}
        for i, p in enumerate(row.params):
            j = (3 * k + 2 * i + row.id) % len(_POOL)
            while _POOL[j] in combined.get(p, ()):
                j = (j + 1) % len(_POOL)
            env[p] = _POOL[j]
        samples.append(env)
    if seed:
        rng = random.Random(seed * 1000003 + row.id)
        env = {}
        for p in row.params:
            while True:
                value = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
                if value != 0 and value not in combined.get(p, ()):
                    break
            env[p] = value
        samples.append(env)
    deduped = []
    for env in samples:
        if env not in deduped:
            deduped.append(env)
    return deduped


def realization_for(row: AtlasRow, n: int) -> Realization:
    """The stored realization with the largest dimension not exceeding n."""
    best: Realization | None = None
    for real in row.realizations:
        if real.n <= n and (best is None or real.n > best.n):
            best = real
    if best is None:
        raise InputError(f"row {row.id} stores no realization for n <= {n}")
    return best


def build_template(
    real: Realization, env: Mapping[str, Fraction], n: int
) -> list[dict[int, Fraction]]:
    """The stored parameterization on R^{2n}, zero-padded beyond 2*real.n,
    as {t-power: coefficient} dicts, the way ``MonomialCurve.series`` gives it."""
    out = []
    for comp in real.template:
        terms: dict[int, Fraction] = {}
        for coeff, power in comp:
            add_into(terms, power, coeff_value(coeff, env))
        out.append(terms)
    out.extend({} for _ in range(2 * real.n, 2 * n))
    return out


def _read_map(basis: RestrictionBasis, real: Realization, n: int) -> tuple[list, list, list]:
    """The parameter-free data of the stored map F on R^{2n}, padded with
    identity components beyond 2*real.n: per component its coefficients;
    per term its t-power along the curve (``power_of``) and its linear slot,
    each None where it has none; and (i - 1, d, t1, t2, row) for each pair of
    curve-only terms t1 of F_(2i-1) and t2 of F_(2i) of quasi-degree d below
    ``stop_qdeg``.  F^* omega_std = sum_i dF_(2i-1) ^ dF_(2i), and terms c1
    x^e1 and c2 x^e2 give the sum over j != k of c1 c2 e1_j e2_k x^(e1 + e2 -
    u_j - u_k) dx_j ^ dx_k, of quasi-degree <e1 + e2, lam>; curve-only, that
    is c1 c2 times the signed row of the terms e1_j e2_k e_j ^ e_k in piece d
    (``GradedPiece.signed_row``)."""
    curve = basis.curve
    units = [(((Fraction(1), None), (0,) * k + (1,)),) for k in range(2 * real.n, 2 * n)]
    comps = [*real.map_data, *units]
    terms = [
        [(curve.power_of(e), e.index(1) if sum(e) == 1 else None) for _, e in c] for c in comps
    ]
    pairs = []
    for i in range(n):
        for (t1, (q1, _)), (t2, (q2, _)) in itertools.product(
            enumerate(terms[2 * i]), enumerate(terms[2 * i + 1])
        ):
            if q1 is None or q2 is None or q1 + q2 >= basis.stop_qdeg:
                continue
            e1, e2 = comps[2 * i][t1][1], comps[2 * i + 1][t2][1]
            row = basis.pieces[q1 + q2].signed_row(
                (j, (k,), a * b)
                for (j, a), (k, b) in itertools.product(enumerate(e1), enumerate(e2))
            )
            if row:
                pairs.append((i, q1 + q2, t1, t2, row))
    return [[c for c, _ in comp] for comp in comps], terms, pairs


def _map_checks(
    basis: RestrictionBasis, data: tuple[list, list, list], env: Mapping[str, Fraction]
) -> tuple[list[tuple[int, dict[int, int]]], int, AlgRestriction]:
    """The three checks of the stored map F at one sample, in Z: per
    component (K_i, K_i times its series along the curve), with its
    coefficients cleared once to K_i and integer numerators; the rank of
    F's linear part, one ``zechelon`` of its integer rows; and the class of
    F^* omega_std, the rows of ``_read_map`` summed over L = lcm(K_(2i-1)
    K_(2i)), those of F_(2i-1) and F_(2i) scaled by L / (K_(2i-1) K_(2i))."""
    coeffs, terms, pairs = data
    cleared = [zdenominated(dict(enumerate(coeff_value(c, env) for c in comp))) for comp in coeffs]
    series, rows = [], []
    for (scale, nums), comp in zip(cleared, terms):
        powers, linear = {}, {}
        for t, (q, slot) in enumerate(comp):
            if q is not None:
                add_into(powers, q, nums[t])
            if slot is not None:
                add_into(linear, slot, nums[t])
        series.append((scale, powers))
        rows.append(linear)
    products = [k1 * k2 for (k1, _), (k2, _) in zip(cleared[::2], cleared[1::2])]
    den = math.lcm(*products)
    vectors: dict[int, dict[int, int]] = {}
    for i, d, t1, t2, row in pairs:
        factor = den // products[i] * cleared[2 * i][1][t1] * cleared[2 * i + 1][1][t2]
        vec = vectors.setdefault(d, {})
        for col, m in row.items():
            add_into(vec, col, factor * m)
    projected = project_vectors(basis, {d: (den, vec) for d, vec in vectors.items()})
    return series, len(zechelon(rows)), projected


def modulus_directions(basis: RestrictionBasis, row: AtlasRow) -> list[tuple[str, AlgRestriction]]:
    """Each declared modulus p of ``row`` with its direction da/dp, the same at
    every sample: a coefficient is f or f * p, so da/dp is f at the labels
    whose coefficient is f * p."""
    coeffs = row.restriction.items()
    return [
        (p, AlgRestriction.from_coeffs(basis, {label: f for label, (f, q) in coeffs if q == p}))
        for p in row.moduli
    ]


class RowCheck(NamedTuple):
    """Outcome of verifying one row at one parameter sample, with the
    invariants measured there."""

    row_id: int
    n: int
    env: Mapping[str, Fraction]
    failures: tuple[str, ...]
    known: tuple[str, ...]
    report: InvariantReport | None = None

    @property
    def passed(self) -> bool:
        return not self.failures


def _expanded_envs(row: AtlasRow, samples: Sequence[Mapping[str, Fraction]]):
    for env in samples:
        if row.sign:
            for sgn in (Fraction(1), Fraction(-1)):
                yield {**env, "s": sgn}
        else:
            yield dict(env)


def verify_row(
    atlas: Atlas,
    row: AtlasRow,
    n: int | None = None,
    samples: Sequence[Mapping[str, Fraction]] | None = None,
    seed: int = 0,
) -> list[RowCheck]:
    """Check ``row`` on R^{2n} (``row.min_n`` by default) at each sample (the
    default ones for ``seed`` unless ``samples`` is given), over both signs
    of a sign row, skipping excluded ones: the stored realization for n
    reproduces its parameterization, has a nonsingular linear part and pulls
    omega_std back to its restriction; mu, iota, Lt and the realizability on
    R^4 .. R^{2s} match the table; each declared modulus is transverse to the orbit."""
    curve = atlas.curve
    s = len(curve.lams)
    if n is None:
        n = row.min_n
    if n < row.min_n:
        raise InputError(
            f"row {row.id} needs n >= {row.min_n}; no realization exists for n = {n}"
        )
    if samples is None:
        samples = default_samples(row, seed=seed)
    elif not samples:
        raise InputError(f"row {row.id} was given no samples")
    basis = cached_basis(curve)
    real = realization_for(row, n)
    data = _read_map(basis, real, n)
    directions = modulus_directions(basis, row)
    checks = []
    for env in _expanded_envs(row, samples):
        failures: list[str] = []
        known: list[str] = []
        if _violates(env, row.excluded) or _violates(env, real.excluded):
            continue
        try:
            target = row_class(atlas, row, env)
            realized = AlgRestriction.from_coeffs(basis, _values(real.restriction, env))
            series, rank, projected = _map_checks(basis, data, env)
            template = build_template(real, env, n)
        except InputError as exc:
            raise InputError(f"semigroup {curve.lams} row {row.id}: {exc}") from None
        if len(series) != len(template) or any(
            powers != {p: scale * c for p, c in terms.items()}
            for (scale, powers), terms in zip(series, template)
        ):
            failures.append("map does not reproduce the stored parameterization")
        if rank != 2 * n:
            failures.append("linear part of the realization map is singular")
        if projected != realized:
            failures.append(
                f"pullback of the standard symplectic form projects to "
                f"{projected}, stored restriction is {realized}"
            )
        report = invariant_report(curve, target)
        tangent = orbit_tangent_space(curve, target)
        if report.mu != row.mu:
            failures.append(f"mu = {report.mu}, table says {row.mu}")
        if report.iota != row.iota:
            failures.append(f"iota = {report.iota}, expected {row.iota}")
        elif "iota" in row.discrepancies:
            known.append(
                f"iota computes to {report.iota}; the published table prints {row.iota_printed}"
            )
        if row.lt_mode in ("computed", "infinite") and report.lt != row.lt_printed:
            failures.append(f"lt = {report.lt}, table says {row.lt_printed}")
        for param, direction in directions:
            if tangent.contains(direction):
                failures.append(f"declared modulus {param} is tangent to the orbit")
        for nn in range(2, s + 1):
            if nn == 2:
                expected = row.n2_generic and not _violates(env, row.n2_excluded)
            else:
                expected = nn >= row.min_n
            got = representable_by_symplectic(curve, target, nn)
            if got != expected:
                failures.append(
                    f"representability on R^{2 * nn}: rank test says {got}, expected {expected}"
                )
        if "min_n" in row.discrepancies and row.n2_generic and row.min_n > 2:
            known.append(row.discrepancies["min_n"])
        checks.append(
            RowCheck(
                row_id=row.id,
                n=n,
                env=env,
                failures=tuple(failures),
                known=tuple(known),
                report=report,
            )
        )
    undeclared = sorted({p for env in samples for p in env} - set(row.params))
    if undeclared:
        raise InputError(
            f"semigroup {curve.lams} row {row.id}: undeclared parameter {undeclared[0]!r}"
        )
    if not checks:
        raise InputError(f"row {row.id} has no sample outside its excluded parameter values")
    return checks


def verify_distinctness(atlas: Atlas, *, checks: Sequence[RowCheck] = ()) -> list[str]:
    """Pairwise distinguishability of all rows, and of sign variants, at each
    row's first default sample, which no seed changes.  The invariants there
    are read off the reports of this atlas's ``checks`` where one matches,
    else measured."""
    measured = {(c.row_id, frozenset(c.env.items())): c.report for c in checks}
    by_row: dict[int, list[tuple[AlgRestriction, InvariantReport]]] = {}
    for row in atlas.rows:
        sample = default_samples(row)[0]
        for env in _expanded_envs(row, [sample]):
            a = row_class(atlas, row, env)
            report = measured.get((row.id, frozenset(env.items())))
            if report is None:
                report = invariant_report(atlas.curve, a)
            by_row.setdefault(row.id, []).append((a, report))
    failures = []
    for r1, r2 in itertools.combinations(by_row, 2):
        separated = all(
            sa != sb or pmqd_compare(a, b).kind == "not-proportional"
            for a, sa in by_row[r1]
            for b, sb in by_row[r2]
        )
        if not separated:
            failures.append(f"row {r1} and row {r2} are not distinguished")
    for row_id, variants in by_row.items():
        if len(variants) != 2:
            continue
        (a, sa), (b, sb) = variants
        if sa != sb:
            continue
        verdict = pmqd_compare(a, b)
        even = sa.min_qdeg is not None and sa.min_qdeg % 2 == 0
        negative = verdict.kind == "proportional" and (verdict.constant or 0) < 0
        if verdict.kind != "not-proportional" and not (negative and even):
            failures.append(f"sign variants of row {row_id} are not distinguished")
    return failures


class AtlasReport(NamedTuple):
    """Full verification outcome for one bundled semigroup."""

    semigroup: tuple[int, ...]
    checks: tuple[RowCheck, ...]
    distinctness_failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.distinctness_failures and all(c.passed for c in self.checks)

    @property
    def known_notes(self) -> tuple[str, ...]:
        notes = (f"row {check.row_id}: {note}" for check in self.checks for note in check.known)
        return tuple(dict.fromkeys(notes))


def render_reports(reports: Sequence[AtlasReport], fmt: str) -> tuple[dict | None, list[str]]:
    """The ``verify-atlas`` output of the reports in the format ``fmt``, and
    only that: (payload, []) for "json", else (None, lines) of text."""
    passed = all(r.passed for r in reports)
    if fmt == "json":
        return {
            "passed": passed,
            "reports": [
                {
                    "semigroup": list(r.semigroup),
                    "passed": r.passed,
                    "known": list(r.known_notes),
                    "distinctness_failures": list(r.distinctness_failures),
                    "checks": [
                        {
                            "row": c.row_id,
                            "n": c.n,
                            "env": {k: str(v) for k, v in sorted(c.env.items())},
                            "passed": c.passed,
                            "failures": list(c.failures),
                            "known": list(c.known),
                        }
                        for c in r.checks
                    ],
                }
                for r in reports
            ],
        }, []
    lines = []
    for report in reports:
        lines.append(f"semigroup {report.semigroup}:")
        by_row: dict[int, list] = {}
        for check in report.checks:
            by_row.setdefault(check.row_id, []).append(check)
        for row_id, checks in sorted(by_row.items()):
            bad = [c for c in checks if not c.passed]
            lines.append(f"  row {row_id}: {'FAIL' if bad else 'ok'} ({len(checks)} samples)")
            for check in bad:
                env = ", ".join(f"{k}={v}" for k, v in sorted(check.env.items()))
                lines.extend(f"    at [{env}]: {msg}" for msg in check.failures)
        lines.extend(f"  known: {note}" for note in report.known_notes)
        failures = [f"  distinctness FAIL: {msg}" for msg in report.distinctness_failures]
        lines.extend(failures or ["  distinctness: ok"])
    lines.append("all checks passed" if passed else "verification FAILED")
    return None, lines


def verify_atlas(
    atlas: Atlas,
    n: int | None = None,
    samples: Mapping[int, Sequence[Mapping[str, Fraction]]] | None = None,
    seed: int = 0,
) -> AtlasReport:
    if n is not None and n < 1:
        raise InputError("the ambient symplectic space needs n >= 1")
    checks: list[RowCheck] = []
    for row in atlas.rows:
        row_n = n if n is not None and n >= row.min_n else row.min_n
        row_samples = None if samples is None else samples.get(row.id)
        checks.extend(verify_row(atlas, row, n=row_n, samples=row_samples, seed=seed))
    distinct = verify_distinctness(atlas, checks=checks)
    return AtlasReport(
        semigroup=atlas.curve.lams,
        checks=tuple(checks),
        distinctness_failures=tuple(distinct),
    )


def _sample_value(row: int, name: str, value: object) -> Fraction:
    try:
        if type(value) in (str, int):  # a JSON float or boolean is not exact
            return _rational(str(value))
    except (InputError, ZeroDivisionError):
        pass
    raise ValueError(f"row {row}: parameter {name!r} must be an integer or a string p/q, q nonzero")


def load_samples_file(text: str) -> dict[int, list[dict[str, Fraction]]]:
    """Parse a samples file: {"<row id>": [{"param": "p/q" or int, ...}, ...]}.

    JSON objects are read as tuples of (key, value) pairs, so a row named
    twice (also as "1" and "01") or a parameter named twice in one sample
    is rejected, not read as its last value."""
    out: dict[int, list[dict[str, Fraction]]] = {}
    try:
        data = json.loads(text, object_pairs_hook=tuple)
        if type(data) is not tuple:
            raise ValueError("the top level must be a JSON object")
        for key, entries in data:
            try:
                row = int(key)
            except ValueError:
                raise ValueError(f"row id {key!r} is not an integer") from None
            if row in out:
                raise ValueError(f"row {row} is named twice")
            if type(entries) is not list or any(type(entry) is not tuple for entry in entries):
                raise ValueError(f"row {row}: the samples must be a JSON list of objects")
            out[row] = [{name: _sample_value(row, name, v) for name, v in entry} for entry in entries]
            if any(len(sample) < len(entry) for sample, entry in zip(out[row], entries)):
                raise ValueError(f"row {row}: a parameter is named twice in one sample")
    except ValueError as exc:
        raise InputError(f"malformed samples file: {exc}") from None
    return out


BUNDLED = ((4, 5, 6, 7), (4, 5, 6), (4, 5, 7))
