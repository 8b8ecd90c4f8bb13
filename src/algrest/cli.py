"""Command line interface for the algebraic restriction engine."""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

# modules, not names: each loads on first use (see ``algrest.__init__``), so
# a command runs only the modules it needs
from . import atlas, curves, errors, forms, invariants, orbit, parser, symmetry

FORMATS = ("text", "json")


def _curve(args: argparse.Namespace) -> curves.MonomialCurve:
    ambient = getattr(args, "ambient", None) or 0
    return curves.MonomialCurve(tuple(args.generators), ambient=ambient)


def _curve_and_class(
    args: argparse.Namespace,
) -> tuple[curves.MonomialCurve, curves.AlgRestriction]:
    """The curve and the class ``--restriction`` on its cached basis."""
    curve = _curve(args)
    return curve, parser.parse_restriction(args.restriction, curves.cached_basis(curve))


def _emit(args: argparse.Namespace, payload: dict | None, lines: Sequence[str]) -> None:
    if args.format == "json":
        import json

        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def _coords_payload(a: curves.AlgRestriction) -> dict[str, str]:
    return {label: parser.fraction_str(coeff) for coeff, label in a.terms()}


def cmd_basis(args: argparse.Namespace) -> int:
    curve = _curve(args)
    basis = curves.cached_basis(curve)
    payload = None
    lines: list[str] = []
    if args.format == "json":
        payload = {
            "semigroup": list(curve.lams),
            "ambient": curve.ambient,
            "dim": basis.dim,
            "top_qdeg": basis.top_qdeg,
            "basis": [
                {"label": el.label, "qdeg": el.qdeg, "representative": el.text}
                for el in basis.elements
            ],
        }
    elif args.format == "latex":
        lines = [
            f"{parser.latex_label(el.label)} &= {parser.latex_form(el.rep)} \\\\"
            for el in basis.elements
        ]
    else:
        head = f"semigroup {curve.lams}  dim {basis.dim}  scanned through qdeg {basis.top_qdeg}"
        lines = [head] + [
            f"  {el.label:<5} qdeg {el.qdeg:>2}  [{el.text}]" for el in basis.elements
        ]
    _emit(args, payload, lines)
    return 0


def cmd_action_table(args: argparse.Namespace) -> int:
    table = symmetry.action_table(_curve(args), args.lift_policy)
    _emit(args, *symmetry.render_table(table, args.format))
    return 0


def cmd_project(args: argparse.Namespace) -> int:
    curve = _curve(args)
    basis = curves.cached_basis(curve)
    form = parser.parse_form(args.form, curve.ambient)
    if form.degree != 2:
        raise errors.InputError("projection expects a differential 2-form")
    a = curves.project(curve, form, basis)
    payload = {
        "semigroup": list(curve.lams),
        "form": args.form,
        "restriction": str(a),
        "coordinates": _coords_payload(a),
    }
    if args.format == "latex":
        lines = [parser.latex_restriction(a)]
    else:
        lines = [f"[{args.form}] = {a}"]
    _emit(args, payload, lines)
    return 0


def cmd_invariants(args: argparse.Namespace) -> int:
    curve, a = _curve_and_class(args)
    report = invariants.invariant_report(curve, a)
    payload = {
        "semigroup": list(curve.lams),
        "restriction": str(a),
        "mu": report.mu,
        "iota": parser.extended_str(report.iota),
        "lt": parser.extended_str(report.lt),
        "min_qdeg": report.min_qdeg,
    }
    lt_text = "not determined by tangency data (iota = 0)" if report.lt is None else str(
        parser.extended_str(report.lt)
    )
    lines = [
        f"class: {a}",
        f"mu = {report.mu}",
        f"iota = {parser.extended_str(report.iota)}",
        f"Lt = {lt_text}",
        f"min qdeg = {report.min_qdeg}",
    ]
    if args.n is not None:
        ok = invariants.representable_by_symplectic(curve, a, args.n)
        payload["n"] = args.n
        payload["representable"] = ok
        lines.append(
            f"representable on R^{2 * args.n}: {'yes' if ok else 'no'}"
        )
    _emit(args, payload, lines)
    return 0


def cmd_tangent(args: argparse.Namespace) -> int:
    curve, a = _curve_and_class(args)
    tangent = orbit.orbit_tangent_space(curve, a)
    moduli = [
        el.label
        for el in a.basis.elements
        if not tangent.contains(curves.AlgRestriction.from_coeffs(a.basis, {el.label: 1}))
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
    curve, a = _curve_and_class(args)
    qdeg = a.basis.element(args.kill).qdeg
    kill = a.part(qdeg)
    result = symmetry.moser_reduce(curve, a, kill)
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
    curve, a = _curve_and_class(args)
    phi = parser.parse_map(args.map, curve.ambient)
    constant = symmetry.symmetry_constant(curve, phi)
    image = curves.project(curve, forms.pullback(phi, a.rep_form()), a.basis)
    payload = {
        "semigroup": list(curve.lams),
        "restriction": str(a),
        "map": args.map,
        "constant": parser.fraction_str(constant),
        "image": str(image),
        "coordinates": _coords_payload(image),
    }
    if args.format == "latex":
        lines = [parser.latex_restriction(image)]
    else:
        lines = [
            f"symmetry constant c = {parser.fraction_str(constant)}",
            f"pullback of {a} = {image}",
        ]
    _emit(args, payload, lines)
    return 0


def cmd_verify_atlas(args: argparse.Namespace) -> int:
    targets = [tuple(args.generators)] if args.generators else list(atlas.BUNDLED)
    samples = None
    if args.samples:
        try:
            with open(args.samples) as handle:
                text = handle.read()
        except OSError as exc:
            raise errors.InputError(f"cannot read samples file: {exc}") from None
        samples = atlas.load_samples_file(text)
    tables = [atlas.load_atlas(lams) for lams in targets]
    unknown = sorted(set(samples or ()) - {row.id for table in tables for row in table.rows})
    if unknown:
        raise errors.InputError(f"samples file: no atlas row {unknown[0]} in the verified tables")
    reports = [atlas.verify_atlas(t, n=args.n, samples=samples, seed=args.seed) for t in tables]
    _emit(args, *atlas.render_reports(reports, args.format))
    return 0 if all(r.passed for r in reports) else 1


def _add_common(sub: argparse.ArgumentParser, latex: bool = False) -> None:
    """The --format option; ``latex`` offers it on the subcommands with a
    LaTeX printer."""
    choices = FORMATS + ("latex",) if latex else FORMATS
    sub.add_argument("--format", choices=choices, default="text", help="output format")


def _add_generators(sub: argparse.ArgumentParser, optional: bool = False) -> None:
    sub.add_argument(
        "generators",
        type=int,
        nargs="*" if optional else "+",
        help="semigroup generators, e.g. 4 5 6 7",
    )


_RESTRICTION_HELP = "e.g. 'a9 + 2*a13+'; a class starting with '-' is written --restriction=-a18"
_SAMPLES_HELP = "JSON file of parameter samples per row; they replace that row's default samples"
_SEED_HELP = "extra random sample per row when nonzero, except rows listed in --samples"


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="algrest",
        description=(
            "Exact graded computations with algebraic restrictions of closed "
            "2-forms to quasi-homogeneous monomial curves."
        ),
    )
    subs = top.add_subparsers(dest="command", required=True)

    p = subs.add_parser("basis", help="graded basis of closed-2-form classes")
    _add_generators(p)
    p.add_argument("--ambient", type=int, default=None, help="ambient dimension")
    _add_common(p, latex=True)
    p.set_defaults(func=cmd_basis)

    p = subs.add_parser("action-table", help="Lie actions of the liftable fields")
    _add_generators(p)
    _add_common(p, latex=True)
    p.add_argument(
        "--lift-policy",
        choices=curves.LIFT_POLICIES,
        default="grlex",
        help="how to pick monomial components of the liftable fields",
    )
    p.set_defaults(func=cmd_action_table)

    p = subs.add_parser("project", help="project a closed 2-form to basis coordinates")
    _add_generators(p)
    p.add_argument("--ambient", type=int, default=None, help="ambient dimension")
    p.add_argument("--form", required=True, help="2-form, e.g. 'dx1^dx2 + x1*dx1^dx3'")
    _add_common(p, latex=True)
    p.set_defaults(func=cmd_project)

    p = subs.add_parser("invariants", help="discrete invariants of a class")
    _add_generators(p)
    p.add_argument("--restriction", required=True, help=_RESTRICTION_HELP)
    p.add_argument("--n", type=int, default=None, help="also test realizability on R^2n")
    _add_common(p)
    p.set_defaults(func=cmd_invariants)

    p = subs.add_parser("tangent", help="orbit tangent space at a class")
    _add_generators(p)
    p.add_argument("--restriction", required=True, help=_RESTRICTION_HELP)
    _add_common(p)
    p.set_defaults(func=cmd_tangent)

    p = subs.add_parser("moser", help="homotopy reduction removing one component")
    _add_generators(p)
    p.add_argument("--restriction", required=True, help=_RESTRICTION_HELP)
    p.add_argument("--kill", required=True, metavar="LABEL", help="basis label marking the qdeg to remove")
    _add_common(p)
    p.set_defaults(func=cmd_moser)

    p = subs.add_parser("pullback", help="act on a class by a curve symmetry")
    _add_generators(p)
    p.add_argument("--map", required=True, help="e.g. '(-x1, -x2, x3, x4)'")
    p.add_argument("--restriction", required=True, help=_RESTRICTION_HELP)
    _add_common(p, latex=True)
    p.set_defaults(func=cmd_pullback)

    p = subs.add_parser("verify-atlas", help="check the bundled classification tables")
    _add_generators(p, optional=True)
    p.add_argument("--n", type=int, default=None, help="symplectic space half-dimension")
    p.add_argument("--samples", default=None, help=_SAMPLES_HELP)
    p.add_argument("--seed", type=int, default=0, help=_SEED_HELP)
    _add_common(p)
    p.set_defaults(func=cmd_verify_atlas)

    return top


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # flush inside the try, so that a reader who closed the pipe early
        # is seen here and not at interpreter shutdown
        sys.stdout.flush()
        return code
    except errors.InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the recipe of the Python ``signal`` docs: point stdout at devnull so
        # that the flush at exit cannot raise again, and exit 1
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
