"""Command line interface for the algebraic restriction engine."""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from fractions import Fraction
from typing import Sequence

from .atlas import BUNDLED, load_atlas, load_samples_file, verify_atlas
from .curves import AlgRestriction, MonomialCurve, cached_basis, project
from .errors import InputError
from .invariants import invariant_report, representable_by_symplectic
from .parser import (
    extended_str,
    fraction_str,
    latex_form,
    latex_label,
    latex_restriction,
    parse_form,
    parse_map,
    parse_restriction,
)
from .symmetry import (
    LIFT_POLICIES,
    action_table,
    moser_reduce,
    orbit_tangent_space,
    pullback_restriction,
    symmetry_constant,
)

FORMATS = ("text", "json", "latex")


def _curve(args: argparse.Namespace) -> MonomialCurve:
    ambient = getattr(args, "ambient", None) or 0
    return MonomialCurve(tuple(args.generators), ambient=ambient)


def _emit(args: argparse.Namespace, payload: dict, lines: Sequence[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def _coords_payload(a) -> dict[str, str]:
    return {
        el.label: fraction_str(coeff)
        for el, coeff in zip(a.basis.elements, a.coords)
        if coeff
    }


def cmd_basis(args: argparse.Namespace) -> int:
    curve = _curve(args)
    basis = cached_basis(curve)
    payload = {
        "semigroup": list(curve.lams),
        "ambient": curve.ambient,
        "dim": basis.dim,
        "top_qdeg": basis.top_qdeg,
        "basis": [
            {"label": el.label, "qdeg": el.qdeg, "representative": str(el.rep)}
            for el in basis.elements
        ],
    }
    if args.format == "latex":
        lines = [
            f"{latex_label(el.label)} &= {latex_form(el.rep)} \\\\"
            for el in basis.elements
        ]
    else:
        head = f"semigroup {curve.lams}  dim {basis.dim}  scanned through qdeg {basis.top_qdeg}"
        lines = [head] + [
            f"  {el.label:<5} qdeg {el.qdeg:>2}  [{el.rep}]" for el in basis.elements
        ]
    _emit(args, payload, lines)
    return 0


def cmd_action_table(args: argparse.Namespace) -> int:
    curve = _curve(args)
    table = action_table(curve, args.lift_policy)
    payload = {
        "semigroup": list(curve.lams),
        "policy": table.policy,
        "shifts": list(table.shifts),
        "nonsemigroup_shifts": list(table.nonsemigroup),
        "labels": list(table.labels),
        "table": {
            str(s): {label: str(table.entry(s, label)) for label in table.labels}
            for s in table.shifts
        },
    }
    if args.format == "latex":
        cols = " & ".join(latex_label(label) for label in table.labels)
        lines = [f" & {cols} \\\\"]
        for s in table.shifts:
            cells = " & ".join(
                latex_restriction(table.entry(s, label)) for label in table.labels
            )
            lines.append(f"X_{{{s}}} & {cells} \\\\")
    else:
        lines = [
            f"semigroup {curve.lams}  policy {table.policy}",
            "shifts: " + " ".join(str(s) for s in table.shifts),
            "shifts outside the semigroup: "
            + (" ".join(str(s) for s in table.nonsemigroup) or "none"),
        ]
        for s in table.shifts:
            for label in table.labels:
                lines.append(f"  L[X_{s}] {label} = {table.entry(s, label)}")
    _emit(args, payload, lines)
    return 0


def cmd_project(args: argparse.Namespace) -> int:
    curve = _curve(args)
    basis = cached_basis(curve)
    form = parse_form(args.form, curve.ambient)
    if form.degree != 2:
        raise InputError("projection expects a differential 2-form")
    a = project(curve, form, basis)
    payload = {
        "semigroup": list(curve.lams),
        "form": args.form,
        "restriction": str(a),
        "coordinates": _coords_payload(a),
    }
    if args.format == "latex":
        lines = [latex_restriction(a)]
    else:
        lines = [f"[{args.form}] = {a}"]
    _emit(args, payload, lines)
    return 0


def cmd_invariants(args: argparse.Namespace) -> int:
    curve = _curve(args)
    basis = cached_basis(curve)
    a = parse_restriction(args.restriction, basis)
    report = invariant_report(curve, a, args.lift_policy)
    payload = {
        "semigroup": list(curve.lams),
        "restriction": str(a),
        "mu": report.mu,
        "iota": extended_str(report.iota),
        "lt": extended_str(report.lt),
        "min_qdeg": report.min_qdeg,
    }
    lt_text = "not determined by tangency data (iota = 0)" if report.lt is None else str(
        extended_str(report.lt)
    )
    lines = [
        f"class: {a}",
        f"mu = {report.mu}",
        f"iota = {extended_str(report.iota)}",
        f"Lt = {lt_text}",
        f"min qdeg = {report.min_qdeg}",
    ]
    if args.n is not None:
        ok = representable_by_symplectic(curve, a, args.n)
        payload["n"] = args.n
        payload["representable"] = ok
        lines.append(
            f"representable on R^{2 * args.n}: {'yes' if ok else 'no'}"
        )
    _emit(args, payload, lines)
    return 0


def cmd_tangent(args: argparse.Namespace) -> int:
    curve = _curve(args)
    basis = cached_basis(curve)
    a = parse_restriction(args.restriction, basis)
    tangent = orbit_tangent_space(curve, a, args.lift_policy)
    moduli = [
        el.label
        for el in basis.elements
        if not tangent.contains(AlgRestriction.from_coeffs(basis, {el.label: 1}))
    ]
    payload = {
        "semigroup": list(curve.lams),
        "restriction": str(a),
        "dim": tangent.dim,
        "shifts": list(tangent.shifts),
        "modulus_directions": moduli,
    }
    lines = [
        f"class: {a}",
        f"orbit tangent dimension = {tangent.dim}",
        "shifts used: " + (" ".join(str(s) for s in tangent.shifts) or "none"),
        "directions transverse to the orbit: " + (", ".join(moduli) or "none"),
    ]
    _emit(args, payload, lines)
    return 0


def cmd_moser(args: argparse.Namespace) -> int:
    curve = _curve(args)
    basis = cached_basis(curve)
    a = parse_restriction(args.restriction, basis)
    qdeg = basis.element(args.kill).qdeg
    kill = a.part(qdeg)
    result = moser_reduce(curve, a, kill, args.lift_policy)
    payload = {
        "semigroup": list(curve.lams),
        "restriction": str(a),
        "kill": str(kill),
        "kill_qdeg": qdeg,
        "consistent": result.consistent,
        "feasible": result.feasible,
        "shifts": list(result.shifts),
        "coefficients": {str(s): str(f) for s, f in sorted(result.coefficients.items())},
        "pole_counts": {str(s): c for s, c in sorted(result.pole_counts.items())},
    }
    lines = [
        f"class: {a}",
        f"component to remove (qdeg {qdeg}): {kill}",
        f"consistent: {'yes' if result.consistent else 'no'}",
        f"feasible on [0, 1]: {'yes' if result.feasible else 'no'}",
    ]
    for s, f in sorted(result.coefficients.items()):
        lines.append(f"  b_{s}(t) = {f}")
    for s, count in sorted(result.pole_counts.items()):
        if count:
            lines.append(f"  b_{s} has {count} pole(s) in [0, 1]")
    _emit(args, payload, lines)
    return 0


def cmd_pullback(args: argparse.Namespace) -> int:
    curve = _curve(args)
    basis = cached_basis(curve)
    a = parse_restriction(args.restriction, basis)
    phi = parse_map(args.map, curve.ambient)
    constant = symmetry_constant(curve, phi)
    image = pullback_restriction(curve, phi, a)
    payload = {
        "semigroup": list(curve.lams),
        "restriction": str(a),
        "map": args.map,
        "constant": fraction_str(constant),
        "image": str(image),
        "coordinates": _coords_payload(image),
    }
    if args.format == "latex":
        lines = [latex_restriction(image)]
    else:
        lines = [
            f"symmetry constant c = {fraction_str(constant)}",
            f"pullback of {a} = {image}",
        ]
    _emit(args, payload, lines)
    return 0


def cmd_verify_atlas(args: argparse.Namespace) -> int:
    targets = [tuple(args.generators)] if args.generators else list(BUNDLED)
    samples = None
    if args.samples:
        try:
            text = pathlib.Path(args.samples).read_text()
        except OSError as exc:
            raise InputError(f"cannot read samples file: {exc}") from None
        samples = load_samples_file(text)
    reports = []
    lines: list[str] = []
    for lams in targets:
        atlas = load_atlas(lams)
        report = verify_atlas(
            atlas, n=args.n, samples=samples, seed=args.seed, policy=args.lift_policy
        )
        reports.append(report)
        lines.append(f"semigroup {report.semigroup}:")
        by_row: dict[int, list] = {}
        for check in report.checks:
            by_row.setdefault(check.row_id, []).append(check)
        for row_id in sorted(by_row):
            checks = by_row[row_id]
            bad = [c for c in checks if not c.passed]
            status = "ok" if not bad else "FAIL"
            lines.append(f"  row {row_id}: {status} ({len(checks)} samples)")
            for check in bad:
                env = ", ".join(
                    f"{k}={fraction_str(v)}" for k, v in sorted(check.env.items())
                )
                for msg in check.failures:
                    lines.append(f"    at [{env}]: {msg}")
        for note in report.known_notes:
            lines.append(f"  known: {note}")
        if report.distinctness_failures:
            for msg in report.distinctness_failures:
                lines.append(f"  distinctness FAIL: {msg}")
        else:
            lines.append("  distinctness: ok")
    passed = all(r.passed for r in reports)
    lines.append("all checks passed" if passed else "verification FAILED")
    payload = {
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
                        "env": {k: fraction_str(v) for k, v in sorted(c.env.items())},
                        "passed": c.passed,
                        "failures": list(c.failures),
                        "known": list(c.known),
                    }
                    for c in r.checks
                ],
            }
            for r in reports
        ],
    }
    _emit(args, payload, lines)
    return 0 if passed else 1


def _add_common(sub: argparse.ArgumentParser, policy: bool = False) -> None:
    sub.add_argument(
        "--format", choices=FORMATS, default="text", help="output format"
    )
    if policy:
        sub.add_argument(
            "--lift-policy",
            choices=LIFT_POLICIES,
            default="grlex",
            help="how to pick monomial components of the liftable fields",
        )


def _add_generators(sub: argparse.ArgumentParser, optional: bool = False) -> None:
    sub.add_argument(
        "generators",
        type=int,
        nargs="*" if optional else "+",
        help="semigroup generators, e.g. 4 5 6 7",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algrest",
        description=(
            "Exact graded computations with algebraic restrictions of closed "
            "2-forms to quasi-homogeneous monomial curves."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("basis", help="graded basis of closed-2-form classes")
    _add_generators(p)
    p.add_argument("--ambient", type=int, default=None, help="ambient dimension")
    _add_common(p)
    p.set_defaults(func=cmd_basis)

    p = subs.add_parser("action-table", help="Lie actions of the liftable fields")
    _add_generators(p)
    _add_common(p, policy=True)
    p.set_defaults(func=cmd_action_table)

    p = subs.add_parser("project", help="project a closed 2-form to basis coordinates")
    _add_generators(p)
    p.add_argument("--ambient", type=int, default=None, help="ambient dimension")
    p.add_argument("--form", required=True, help="2-form, e.g. 'dx1^dx2 + x1*dx1^dx3'")
    _add_common(p)
    p.set_defaults(func=cmd_project)

    p = subs.add_parser("invariants", help="discrete invariants of a class")
    _add_generators(p)
    p.add_argument("--restriction", required=True, help="e.g. 'a9 + 2*a13+'")
    p.add_argument("--n", type=int, default=None, help="also test realizability on R^2n")
    _add_common(p, policy=True)
    p.set_defaults(func=cmd_invariants)

    p = subs.add_parser("tangent", help="orbit tangent space at a class")
    _add_generators(p)
    p.add_argument("--restriction", required=True)
    _add_common(p, policy=True)
    p.set_defaults(func=cmd_tangent)

    p = subs.add_parser("moser", help="homotopy reduction removing one component")
    _add_generators(p)
    p.add_argument("--restriction", required=True)
    p.add_argument("--kill", required=True, metavar="LABEL", help="basis label marking the qdeg to remove")
    _add_common(p, policy=True)
    p.set_defaults(func=cmd_moser)

    p = subs.add_parser("pullback", help="act on a class by a curve symmetry")
    _add_generators(p)
    p.add_argument("--map", required=True, help="e.g. '(-x1, -x2, x3, x4)'")
    p.add_argument("--restriction", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_pullback)

    p = subs.add_parser("verify-atlas", help="check the bundled classification tables")
    _add_generators(p, optional=True)
    p.add_argument("--n", type=int, default=None, help="symplectic space half-dimension")
    p.add_argument("--samples", default=None, help="JSON file of parameter samples per row")
    p.add_argument("--seed", type=int, default=0, help="extra random sample per row when nonzero")
    _add_common(p, policy=True)
    p.set_defaults(func=cmd_verify_atlas)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
