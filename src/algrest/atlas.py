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
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Mapping, Sequence

from .curves import (
    AlgRestriction,
    MonomialCurve,
    cached_basis,
    drop_off_curve,
    project,
)
from .errors import InputError
from .forms import DifferentialForm, PolyMap, pullback
from .linalg import rref
from .invariants import (
    Extended,
    index_of_isotropy,
    lagrangian_tangency_order,
    pmqd_compare,
    representable_by_symplectic,
    symplectic_multiplicity,
)
from .parser import parse_form
from .poly import Polynomial, UniPoly
from .symmetry import orbit_tangent_space

_COEFF_RE = re.compile(
    r"^\s*(-)?\s*(?:(\d+(?:/\d+)?)\s*(?:\*\s*([A-Za-z_][A-Za-z_0-9]*))?"
    r"|([A-Za-z_][A-Za-z_0-9]*))\s*$"
)


def eval_coeff(expr: str, env: Mapping[str, Fraction]) -> Fraction:
    """Evaluate a coefficient expression: [-] rational [* name] or [-] name."""
    match = _COEFF_RE.match(expr)
    if match is None:
        raise InputError(f"bad coefficient expression {expr!r}")
    neg, number, named_factor, bare = match.groups()
    value = Fraction(1)
    if number is not None:
        value = Fraction(number)
        name = named_factor
    else:
        name = bare
    if name is not None:
        if name not in env:
            raise InputError(f"unbound parameter {name!r} in {expr!r}")
        value *= env[name]
    return -value if neg else value


def _parse_excluded(data: Mapping[str, Sequence[str]] | None) -> dict[str, tuple[Fraction, ...]]:
    if not data:
        return {}
    return {p: tuple(Fraction(v) for v in vals) for p, vals in data.items()}


@dataclass(frozen=True)
class Realization:
    """An explicit map realizing a row's class on R^{2n}."""

    n: int
    map_data: tuple[tuple[tuple[str, tuple[int, ...]], ...], ...]
    template: tuple[tuple[tuple[str, int], ...], ...]
    restriction: Mapping[str, str]
    excluded: Mapping[str, tuple[Fraction, ...]]


@dataclass(frozen=True)
class AtlasRow:
    """One normal-form row of a classification table."""

    id: int
    klass: str
    params: tuple[str, ...]
    sign: bool
    restriction: Mapping[str, str]
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


@dataclass(frozen=True)
class Atlas:
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
                        tuple((str(e), tuple(x)) for e, x in comp)
                        for comp in real["map"]
                    ),
                    template=tuple(
                        tuple((str(e), int(p)) for e, p in comp)
                        for comp in real["template"]
                    ),
                    restriction=dict(real["restriction"]),
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
                restriction=dict(rd["restriction"]),
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


def alias_forms(atlas: Atlas) -> dict[str, DifferentialForm]:
    """The published representative 2-forms, parsed, keyed by basis label."""
    m = atlas.curve.ambient
    return {label: parse_form(text, m) for label, text in atlas.aliases.items()}


def row_class(
    atlas: Atlas, row: AtlasRow, env: Mapping[str, Fraction]
) -> AlgRestriction:
    basis = cached_basis(atlas.curve)
    coeffs = {label: eval_coeff(expr, env) for label, expr in row.restriction.items()}
    return AlgRestriction.from_coeffs(basis, coeffs)


def _violates(env: Mapping[str, Fraction], excluded: Mapping[str, tuple[Fraction, ...]]) -> bool:
    return any(env.get(p) in vals for p, vals in excluded.items())


def default_samples(
    row: AtlasRow, count: int = 3, seed: int = 0
) -> list[dict[str, Fraction]]:
    """Deterministic parameter samples respecting every declared exclusion.

    The first ``count`` samples are drawn from a fixed pool; a nonzero seed
    appends one extra random sample.  Sign parameters are not included here;
    verification expands each sample over both signs for sign rows.
    """
    pool = [
        Fraction(2),
        Fraction(-1, 3),
        Fraction(5),
        Fraction(7, 2),
        Fraction(-4),
        Fraction(1, 5),
        Fraction(3),
        Fraction(-5, 2),
        Fraction(11),
        Fraction(-7),
    ]
    combined: dict[str, tuple[Fraction, ...]] = dict(row.excluded)
    for real in row.realizations:
        for p, vals in real.excluded.items():
            combined[p] = tuple(set(combined.get(p, ())) | set(vals))
    samples = []
    for k in range(count):
        env: dict[str, Fraction] = {}
        for i, p in enumerate(row.params):
            if p == "s":
                continue
            j = (3 * k + 2 * i + row.id) % len(pool)
            while pool[j] in combined.get(p, ()):
                j = (j + 1) % len(pool)
            env[p] = pool[j]
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
        poly = Polynomial.zero(nvars)
        for expr, exps in comp:
            value = eval_coeff(expr, env)
            padded = tuple(exps) + (0,) * (nvars - len(exps))
            poly = poly + Polynomial.monomial(padded, value)
        components.append(poly)
    for extra in range(2 * real.n, nvars):
        components.append(Polynomial.variable(nvars, extra))
    return PolyMap(components)


def build_template(
    real: Realization, env: Mapping[str, Fraction], n: int
) -> list[UniPoly]:
    """The stored parameterization on R^{2n}, zero-padded beyond 2*real.n."""
    out = []
    for comp in real.template:
        poly = UniPoly.zero()
        for expr, power in comp:
            poly = poly + UniPoly.t_power(power, eval_coeff(expr, env))
        out.append(poly)
    out.extend(UniPoly.zero() for _ in range(2 * real.n, 2 * n))
    return out


def standard_symplectic(n: int) -> DifferentialForm:
    """dx1^dx2 + dx3^dx4 + ... on R^{2n}."""
    total = DifferentialForm.zero(2, 2 * n)
    for i in range(n):
        total = total + DifferentialForm.from_term(2 * n, (2 * i, 2 * i + 1), 1)
    return total


@dataclass(frozen=True)
class RowCheck:
    """Outcome of verifying one row at one parameter sample."""

    row_id: int
    n: int
    env: Mapping[str, Fraction]
    failures: tuple[str, ...]
    known: tuple[str, ...]

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
    policy: str = "grlex",
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
    omega0 = standard_symplectic(n)
    checks = []
    for env in _expanded_envs(row, samples):
        failures: list[str] = []
        known: list[str] = []
        if _violates(env, row.excluded) or _violates(env, real.excluded):
            continue
        target = row_class(atlas, row, env)
        realized = AlgRestriction.from_coeffs(
            basis,
            {label: eval_coeff(expr, env) for label, expr in real.restriction.items()},
        )
        phi = build_map(real, env, n)
        template = build_template(real, env, n)
        big = curve.with_ambient(2 * n)
        if phi.apply_series(big.images()) != template:
            failures.append("map does not reproduce the stored parameterization")
        if rref(phi.linear_matrix(), 2 * n).rank != 2 * n:
            failures.append("linear part of the realization map is singular")
        pulled = pullback(phi, omega0)
        projected = project(curve, drop_off_curve(pulled, s), basis)
        if projected != realized:
            failures.append(
                f"pullback of the standard symplectic form projects to "
                f"{projected}, stored restriction is {realized}"
            )
        mu = symplectic_multiplicity(curve, target, policy)
        if mu != row.mu:
            failures.append(f"mu = {mu}, table says {row.mu}")
        iota = index_of_isotropy(curve, target)
        if iota != row.iota:
            failures.append(f"iota = {iota}, expected {row.iota}")
        elif "iota" in row.discrepancies:
            known.append(
                f"iota computes to {iota}; the published table prints {row.iota_printed}"
            )
        if row.lt_mode in ("computed", "infinite"):
            lt = lagrangian_tangency_order(curve, target, iota=iota)
            if lt != row.lt_printed:
                failures.append(f"lt = {lt}, table says {row.lt_printed}")
        tangent = orbit_tangent_space(curve, target, policy)
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
            )
        )
    return checks


def _distinct(
    a: AlgRestriction,
    b: AlgRestriction,
    inv_a: tuple,
    inv_b: tuple,
) -> bool:
    if inv_a != inv_b:
        return True
    return pmqd_compare(a, b).kind == "not-proportional"


def verify_distinctness(
    atlas: Atlas, seed: int = 0, policy: str = "grlex"
) -> list[str]:
    """Pairwise distinguishability of all rows, and of sign variants."""
    curve = atlas.curve
    failures = []
    instances: list[tuple[str, AlgRestriction]] = []
    for row in atlas.rows:
        sample = default_samples(row, count=1, seed=seed)[0]
        for env in _expanded_envs(row, [sample]):
            tag = f"row {row.id}" + (f" (s = {env['s']})" if row.sign else "")
            instances.append((tag, row_class(atlas, row, env)))
    signatures = []
    for tag, a in instances:
        located = a.min_qdeg_part()
        iota = index_of_isotropy(curve, a)
        signatures.append(
            (
                None if located is None else located[0],
                symplectic_multiplicity(curve, a, policy),
                iota,
                lagrangian_tangency_order(curve, a, iota=iota),
            )
        )
    by_row = {}
    for (tag, a), sig in zip(instances, signatures):
        by_row.setdefault(tag.split(" (")[0], []).append((tag, a, sig))
    row_tags = list(by_row)
    for t1, t2 in itertools.combinations(row_tags, 2):
        separated = all(
            _distinct(a, b, sa, sb)
            for _, a, sa in by_row[t1]
            for _, b, sb in by_row[t2]
        )
        if not separated:
            failures.append(f"{t1} and {t2} are not distinguished")
    for tag, variants in by_row.items():
        if len(variants) != 2:
            continue
        (_, a, sa), (_, b, sb) = variants
        if sa != sb:
            continue
        verdict = pmqd_compare(a, b)
        located = a.min_qdeg_part()
        even = located is not None and located[0] % 2 == 0
        if not (
            verdict.kind == "not-proportional"
            or (
                verdict.kind == "proportional"
                and verdict.constant is not None
                and verdict.constant < 0
                and even
            )
        ):
            failures.append(f"sign variants of {tag} are not distinguished")
    return failures


@dataclass(frozen=True)
class AtlasReport:
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
    policy: str = "grlex",
) -> AtlasReport:
    checks: list[RowCheck] = []
    for row in atlas.rows:
        row_n = n if n is not None and n >= row.min_n else row.min_n
        row_samples = None if samples is None else samples.get(row.id)
        checks.extend(
            verify_row(atlas, row, n=row_n, samples=row_samples, seed=seed, policy=policy)
        )
    return AtlasReport(
        semigroup=atlas.curve.lams,
        checks=tuple(checks),
        distinctness_failures=tuple(verify_distinctness(atlas, seed=seed, policy=policy)),
    )


def load_samples_file(text: str) -> dict[int, list[dict[str, Fraction]]]:
    """Parse a samples file: {"<row id>": [{"param": "p/q", ...}, ...]}."""
    try:
        data = json.loads(text)
        if not isinstance(data, dict):
            raise TypeError("the top level must be a JSON object")
        return {
            int(key): [{p: Fraction(v) for p, v in entry.items()} for entry in entries]
            for key, entries in data.items()
        }
    except (ValueError, TypeError, AttributeError, ZeroDivisionError) as exc:
        raise InputError(f"malformed samples file: {exc}") from None


BUNDLED = ((4, 5, 6, 7), (4, 5, 6), (4, 5, 7))
