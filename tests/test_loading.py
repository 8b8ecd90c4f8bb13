"""How the package loads: ``import algrest`` registers its submodules
lazily, and a CLI command runs only the modules it uses.

Each case runs in a fresh interpreter, since the test process has run
every module already.  A module has run once its namespace holds
``__builtins__``, which ``exec`` adds; the probe reads the namespace
through ``object.__getattribute__``, which does not trigger the load.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
PERFBENCH = SRC.parent / "perfbench"

SUBMODULES = tuple(
    sorted(path.stem for path in (SRC / "algrest").glob("*.py") if path.stem != "__init__")
)

# what every command runs: the CLI, and the curve with what it imports
BASE = {"cli", "curves", "errors", "linalg", "poly"}

PROBE = """
import json, sys
import algrest

def state():
    return {
        name: "__builtins__" in object.__getattribute__(module, "__dict__")
        for name, module in vars(algrest).items()
        if sys.modules.get(f"algrest.{name}") is module
    }
"""


def _run(body: str, *argv: str):
    """The JSON that ``body`` prints last, run after ``PROBE`` in a fresh
    interpreter."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", PROBE + body, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_cli_registers_every_submodule_and_runs_few():
    state = _run("import algrest.cli\nprint(json.dumps(state()))")
    assert set(state) == set(SUBMODULES)
    assert not any(
        state[name] for name in ("atlas", "invariants", "orbit", "symmetry", "parser", "forms", "qt")
    )


@pytest.mark.parametrize(
    ("argv", "more"),
    [
        ("basis 4 5 6 7", set()),
        ("basis 4 5 6 --ambient 5 --format json", set()),
        ("basis 4 5 6 7 --format latex", {"parser", "forms"}),
        ("action-table 4 5 6", {"symmetry", "orbit", "forms"}),
        ("project 4 5 6 7 --form x2*dx1^dx2+x1*dx1^dx3", {"parser", "forms"}),
        (
            "pullback 4 5 6 7 --map (x1,-x2,x3,-x4) --restriction a9+a13+",
            {"parser", "forms", "symmetry", "orbit", "qt"},
        ),
        ("tangent 4 5 6 7 --restriction a13-", {"orbit", "parser"}),
        ("invariants 4 5 6 7 --restriction a9 --n 2", {"orbit", "parser", "invariants"}),
        ("moser 4 5 6 7 --restriction a9+a13+ --kill a13+", {"symmetry", "orbit", "parser", "qt"}),
        ("verify-atlas 4 5 6", {"atlas", "invariants", "orbit"}),
        ("verify-atlas 4 5 6 --format json", {"atlas", "invariants", "orbit"}),
    ],
    ids=[
        "basis",
        "basis-ambient-json",
        "basis-latex",
        "action-table",
        "project",
        "pullback",
        "tangent",
        "invariants",
        "moser",
        "verify-atlas",
        "verify-atlas-json",
    ],
)
def test_a_command_runs_only_the_modules_it_uses(argv, more):
    state = _run(
        "import algrest.cli\n"
        "rc = algrest.cli.main(sys.argv[1:])\n"
        "print(json.dumps({'rc': rc, 'ran': sorted(n for n, ran in state().items() if ran)}))",
        *argv.split(),
    )
    assert state == {"rc": 0, "ran": sorted(BASE | more)}


TRACER_PROBE = """
sys.path.insert(0, sys.argv[1])
import algrest.cli
from tracer import TARGETS, Tracer
from algrest import atlas, orbit, symmetry

def bindings():
    out = {}
    for name, module in sorted(sys.modules.items()):
        if name.startswith("algrest."):
            out.update((f"{name}.{attr}", id(value)) for attr, value in vars(module).items())
    for owner, path, _ in TARGETS:
        if "." in path:
            cls, attr = path.split(".")
            out[f"{owner}.{path}"] = id(vars(getattr(getattr(algrest, owner), cls))[attr])
    return out

tracer = Tracer()
tracer.install()
tracer.uninstall()
before = bindings()
tracer.install()
wrapped = {
    "orbit_tangent_space": hasattr(orbit.orbit_tangent_space, "__wrapped__")
    and orbit.orbit_tangent_space is symmetry.orbit_tangent_space is atlas.orbit_tangent_space,
    "contains": hasattr(vars(orbit.TangentSpace)["contains"], "__wrapped__"),
}
resolved = sorted(tracer.stats) == sorted(name for _, _, name in TARGETS)
tracer.uninstall()
after = bindings()
print(json.dumps({
    "resolved": resolved,
    "wrapped": wrapped,
    "changed": sorted(key for key in before if after.get(key) != before[key]),
    "shared": symmetry.orbit_tangent_space is orbit.orbit_tangent_space
    and symmetry.TangentSpace is orbit.TangentSpace,
}))
"""


def test_the_benchmark_tracer_wraps_every_target_and_restores_every_attribute():
    """The benchmark's tracer (``perfbench/tracer.py``) resolves each of its
    targets on its own module after ``import algrest.cli``, its first
    install running every lazy module, and uninstalling it puts back every
    module attribute and class attribute it rebound.  ``symmetry`` holds
    the orbit layer's own ``orbit_tangent_space`` and ``TangentSpace``, so
    wrapping its targets reaches the callers in ``atlas`` and ``orbit``,
    which ``invariants`` reads."""
    result = _run(TRACER_PROBE, str(PERFBENCH))
    assert result == {
        "resolved": True,
        "wrapped": {"orbit_tangent_space": True, "contains": True},
        "changed": [],
        "shared": True,
    }


def test_a_basis_builds_its_representative_forms_on_first_read():
    state = _run(
        "basis = algrest.cached_basis(algrest.MonomialCurve((4, 5, 6, 7)))\n"
        "built = state()['forms']\n"
        "rep = str(basis.elements[0].rep)\n"
        "print(json.dumps({'built': built, 'read': state()['forms'], 'rep': rep}))"
    )
    assert state == {"built": False, "read": True, "rep": "dx1^dx2"}


def _definers() -> dict[str, list[str]]:
    """Every top-level ``def``, ``class`` and assigned name of each
    submodule, mapped to the submodules that define it."""
    out: dict[str, list[str]] = {}
    for name in SUBMODULES:
        tree = ast.parse((SRC / "algrest" / f"{name}.py").read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.setdefault(node.name, []).append(name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        out.setdefault(target.id, []).append(name)
    return out


def test_public_names_resolve_to_the_objects_their_submodules_define():
    definers = _definers()
    public = _run("print(json.dumps(algrest.__all__))")
    assert public and all(len(definers.get(name, ())) == 1 for name in public), [
        (name, definers.get(name)) for name in public if len(definers.get(name, ())) != 1
    ]
    owners = {name: definers[name][0] for name in public}
    result = _run(
        "owners = json.loads(sys.argv[1])\n"
        "wrong = [name for name, owner in owners.items()\n"
        "         if getattr(algrest, name) is not getattr(getattr(algrest, owner), name)]\n"
        "listed = set(dir(algrest))\n"
        "star = {}\n"
        "exec('from algrest import *', star)\n"
        "print(json.dumps({'wrong': wrong, 'unlisted': sorted(set(owners) - listed),\n"
        "                  'unbound': sorted(n for n in owners if star.get(n) is not getattr(algrest, n))}))",
        json.dumps(owners),
    )
    assert result == {"wrong": [], "unlisted": [], "unbound": []}
