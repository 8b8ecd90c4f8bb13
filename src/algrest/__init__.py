"""Exact graded computations with algebraic restrictions of closed 2-forms.

The package works with quasi-homogeneous monomial curve germs t -> (t^l1,
..., t^ls).  It builds the graded basis of restriction classes of closed
2-forms, computes the Lie actions of the liftable vector fields, runs
homotopy reductions, evaluates the discrete symplectic invariants, and
machine-checks the bundled classification tables for the semigroups
(4, 5, 6, 7), (4, 5, 6) and (4, 5, 7).

Submodules load lazily.  ``import algrest`` registers every submodule
except ``cli`` in ``sys.modules`` and as an attribute of the package
through ``importlib.util.LazyLoader``; a submodule's source is compiled and
run on the first read of one of its attributes, so a CLI command runs only
the modules it uses.  They are registered rather than left unimported so
that code walking ``sys.modules`` for the package, such as a tracer that
wraps its functions, finds every one of them, and reading one runs it
first.  ``cli``, the entry point, is imported as usual: ``python -m
algrest.cli`` runs it as ``__main__``, and ``runpy`` warns when the module
it is about to run is already registered.  The public names of
``__all__`` resolve through the submodule that defines them (PEP 562
``__getattr__``), so reading ``algrest.cached_basis`` runs ``curves`` and
the modules it imports, and no others.

The package is single-threaded: under Python 3.10 and 3.11 the first-read
load of a lazy module takes no lock, so two threads that first read the
same submodule at once can both run it.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_SUBMODULES = (
    "atlas",
    "curves",
    "errors",
    "forms",
    "invariants",
    "linalg",
    "orbit",
    "parser",
    "poly",
    "qt",
    "symmetry",
)

# every public name -> the submodule that defines it
_OWNER = {
    name: module
    for module, names in (
        ("atlas", ("BUNDLED", "Atlas", "AtlasReport", "RowCheck", "load_atlas",
                   "verify_atlas", "verify_distinctness", "verify_row")),
        ("curves", ("LIFT_POLICIES", "AlgRestriction", "BasisElement", "GradedPiece",
                    "MonomialCurve", "RestrictionBasis", "cached_basis", "monomials_of_qdeg",
                    "project", "restriction_quotient", "stop_qdeg")),
        ("errors", ("InputError", "LiftError", "NotClosedError", "NotSymmetryError")),
        ("forms", ("DifferentialForm", "PolyMap", "Polynomial", "VectorField", "Weights",
                   "ext_der", "interior", "lie_derivative", "pullback", "wedge")),
        ("invariants", ("InvariantReport", "PmqdVerdict", "index_of_isotropy",
                        "invariant_report", "lagrangian_tangency_order", "pmqd_compare",
                        "representable_by_symplectic", "symplectic_multiplicity")),
        ("orbit", ("TangentSpace", "admissible_shifts", "orbit_tangent_space")),
        ("parser", ("parse_form", "parse_map", "parse_polynomial", "parse_restriction")),
        ("qt", ("RationalFunctionT", "UniPoly")),
        ("symmetry", ("ActionTable", "HomotopyResult", "LiftableField", "ScalingResult",
                      "action_table", "curve_scaling", "liftable_field", "moser_reduce",
                      "nonsemigroup_shifts", "pullback_restriction", "scaling_symmetry",
                      "shift_action", "symmetry_constant", "validate_liftable")),
    )
    for name in names
}

__all__ = sorted(_OWNER)

def _register_lazily(fullname: str):
    """Put the module ``fullname`` in ``sys.modules`` unexecuted; its first
    attribute read compiles and runs it."""
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


for _name in _SUBMODULES:
    # find_spec on a registered module reads its __spec__, which runs it;
    # a reload of the package keeps the modules it registered
    _fullname = f"{__name__}.{_name}"
    globals()[_name] = sys.modules.get(_fullname) or _register_lazily(_fullname)
del _name, _fullname


def __getattr__(name: str):
    try:
        module = _OWNER[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[module], name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_OWNER))
