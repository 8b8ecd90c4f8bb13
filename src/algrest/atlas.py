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

The three checks on a realization F run in closed form on its exponent
data, each exact over Q.  Along t -> (t^lam, 0, ...) a term c x^e is
c t^<e, lam>, or 0 if e has an off-curve exponent (``MonomialCurve.power_of``),
which is the substitution itself; F's series and the stored one compare as
{t-power: coefficient} dicts.  The linear part is nonsingular iff one
``zechelon`` of its rows, cleared to integers, has 2n pivots, the rank over
Q.  F^* omega_std is summed pair by pair of terms of F_(2i-1) and F_(2i)
straight into piece coordinates (``_standard_pullback``), the same sums the
generic pullback, restricted to the curve and vectorized, adds up, and it
is projected by the per-degree loop of ``curves.project``
(``project_vectors``).
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
from .forms import PolyMap
from .invariants import (
    Extended,
    InvariantReport,
    invariant_report,
    pmqd_compare,
    representable_by_symplectic,
)
from .poly import Polynomial, add_into
from .symmetry import orbit_tangent_space

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


def _parse_excluded(data: Mapping[str, Sequence[str]] | None) -> dict[str, tuple[Fraction, ...]]:
    if not data:
        return {}
    return {p: tuple(Fraction(v) for v in vals) for p, vals in data.items()}


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
        realizations = []
        for real in rd["realizations"]:
            realizations.append(
                Realization(
                    n=real["n"],
                    map_data=tuple(
                        tuple((parse_coeff(str(e)), tuple(x)) for e, x in comp)
                        for comp in real["map"]
                    ),
                    template=tuple(
                        tuple((parse_coeff(str(e)), int(p)) for e, p in comp)
                        for comp in real["template"]
                    ),
                    restriction=_parse_coeffs(real["restriction"]),
                    excluded=_parse_excluded(real.get("excluded")),
                )
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
                realizations=tuple(realizations),
            )
        )
    return Atlas(curve=curve, aliases=dict(data["aliases"]), rows=tuple(rows))


def row_class(
    atlas: Atlas, row: AtlasRow, env: Mapping[str, Fraction]
) -> AlgRestriction:
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
            if p == "s":
                continue
            j = (3 * k + 2 * i + row.id) % len(_POOL)
            while _POOL[j] in combined.get(p, ()):
                j = (j + 1) % len(_POOL)
            env[p] = _POOL[j]
        samples.append(env)
    if seed:
        rng = random.Random(seed * 1000003 + row.id)
        env = {}
        for p in row.params:
            if p == "s":
                continue
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


def build_map(real: Realization, env: Mapping[str, Fraction], n: int) -> PolyMap:
    """The stored map on R^{2n}, padded with identity coordinates beyond 2*real.n."""
    nvars = 2 * n
    components = []
    for comp in real.map_data:
        terms: dict[tuple[int, ...], Fraction] = {}
        for coeff, exps in comp:
            padded = tuple(exps) + (0,) * (nvars - len(exps))
            terms[padded] = terms.get(padded, 0) + coeff_value(coeff, env)
        components.append(Polynomial(nvars, terms))
    for extra in range(2 * real.n, nvars):
        components.append(Polynomial.variable(nvars, extra))
    return PolyMap(components)


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


def _standard_pullback(basis: RestrictionBasis, phi: PolyMap) -> dict[int, list[Fraction]]:
    """The piece coordinates (``GradedPiece.vectorize``) of phi^* omega_std,
    omega_std = dx1^dx2 + dx3^dx4 + ..., by quasi-degree below ``stop_qdeg``.

    phi^* omega_std = sum_i dF_(2i-1) ^ dF_(2i), and terms c1 x^e1 of
    F_(2i-1) and c2 x^e2 of F_(2i) give the sum over j != k of c1 c2 e1_j
    e2_k x^(e1 + e2 - u_j - u_k) dx_j ^ dx_k, of quasi-degree <e1 + e2, lam>.
    A term with an off-curve variable or differential restricts to 0, and a
    curve-only x^m dx_j ^ dx_k, j < k, is the column (j, k) of its degree's
    piece, so only curve-only terms count, by their coefficients, and a
    pair at or above ``stop_qdeg``, where every piece is 0, is skipped.
    """
    curve = basis.curve
    terms = [
        [
            (q, [(j, e) for j, e in enumerate(exps) if e], c)
            for exps, c in comp.terms.items()
            if (q := curve.power_of(exps)) is not None
        ]
        for comp in phi.components
    ]
    vectors: dict[int, list[Fraction]] = {}
    for left, right in zip(terms[::2], terms[1::2]):
        for q1, e1, c1 in left:
            for q2, e2, c2 in right:
                d = q1 + q2
                if d >= basis.stop_qdeg:
                    continue
                columns = basis.pieces[d].columns
                if d not in vectors:
                    vectors[d] = [Fraction(0)] * len(columns)
                vec, c = vectors[d], c1 * c2
                for j, a in e1:
                    for k, b in e2:
                        if j < k:
                            vec[columns.index((j, k))] += c * a * b
                        elif j > k:
                            vec[columns.index((k, j))] -= c * a * b
    return dict(sorted(vectors.items()))


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
    basis = cached_basis(curve)
    real = realization_for(row, n)
    checks = []
    for env in _expanded_envs(row, samples):
        failures: list[str] = []
        known: list[str] = []
        if _violates(env, row.excluded) or _violates(env, real.excluded):
            continue
        try:
            target = row_class(atlas, row, env)
            realized = AlgRestriction.from_coeffs(basis, _values(real.restriction, env))
            phi = build_map(real, env, n)
            template = build_template(real, env, n)
        except InputError as exc:
            raise InputError(f"semigroup {curve.lams} row {row.id}: {exc}") from None
        if curve.series(phi.components) != template:
            failures.append("map does not reproduce the stored parameterization")
        if phi.linear_rank() != 2 * n:
            failures.append("linear part of the realization map is singular")
        projected = project_vectors(basis, _standard_pullback(basis, phi))
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
        for param in row.moduli:
            bumped = dict(env)
            bumped[param] = env[param] + 1
            direction = row_class(atlas, row, bumped) - target
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
                known=tuple(dict.fromkeys(known)),
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


def verify_distinctness(
    atlas: Atlas,
    seed: int = 0,
    checks: Sequence[RowCheck] = (),
) -> list[str]:
    """Pairwise distinguishability of all rows, and of sign variants, at each
    row's first default sample.  The invariants there are read off the
    reports of this atlas's ``checks`` where one matches, else measured."""
    measured = {(c.row_id, frozenset(c.env.items())): c.report for c in checks}
    by_row: dict[int, list[tuple[AlgRestriction, InvariantReport]]] = {}
    for row in atlas.rows:
        sample = default_samples(row, seed=seed)[0]
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
        if not (
            verdict.kind == "not-proportional"
            or (
                verdict.kind == "proportional"
                and verdict.constant is not None
                and verdict.constant < 0
                and even
            )
        ):
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
        seen: dict[str, None] = {}
        for check in self.checks:
            for note in check.known:
                seen.setdefault(f"row {check.row_id}: {note}")
        return tuple(seen)


def verify_atlas(
    atlas: Atlas,
    n: int | None = None,
    samples: Mapping[int, Sequence[Mapping[str, Fraction]]] | None = None,
    seed: int = 0,
) -> AtlasReport:
    checks: list[RowCheck] = []
    for row in atlas.rows:
        row_n = n if n is not None and n >= row.min_n else row.min_n
        row_samples = None if samples is None else samples.get(row.id)
        checks.extend(verify_row(atlas, row, n=row_n, samples=row_samples, seed=seed))
    distinct = verify_distinctness(atlas, seed=seed, checks=checks)
    return AtlasReport(
        semigroup=atlas.curve.lams,
        checks=tuple(checks),
        distinctness_failures=tuple(distinct),
    )


def _sample_value(value: object) -> Fraction:
    if type(value) not in (str, int):  # a JSON float or boolean is not exact
        raise TypeError(f"parameter value {json.dumps(value)} is not a string or an integer")
    return Fraction(value)


def load_samples_file(text: str) -> dict[int, list[dict[str, Fraction]]]:
    """Parse a samples file: {"<row id>": [{"param": "p/q" or int, ...}, ...]}."""
    try:
        data = json.loads(text)
        if not isinstance(data, dict):
            raise TypeError("the top level must be a JSON object")
        return {
            int(key): [{p: _sample_value(v) for p, v in entry.items()} for entry in entries]
            for key, entries in data.items()
        }
    except (ValueError, TypeError, AttributeError, ZeroDivisionError) as exc:
        raise InputError(f"malformed samples file: {exc}") from None


BUNDLED = ((4, 5, 6, 7), (4, 5, 6), (4, 5, 7))
