"""The package's record types, what a cold ``import algrest.cli`` loads,
and the names its modules import.

Plain records are ``typing.NamedTuple``s; classes with behaviour are
``__slots__`` classes on ``poly.Frozen``, which derives their equality, hash
and repr from ``_fields``.  Neither needs ``dataclasses``, whose import
pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

import algrest
from algrest.atlas import Atlas, AtlasReport, AtlasRow, Realization, RowCheck
from algrest.curves import (
    AlgRestriction,
    BasisElement,
    GradedPiece,
    MonomialCurve,
    binomial_span,
    cached_basis,
    restriction_quotient,
)
from algrest.errors import InputError
from algrest.forms import DifferentialForm, Polynomial, Weights
from algrest.invariants import (
    InvariantReport,
    PmqdVerdict,
    index_of_isotropy,
    lagrangian_tangency_order,
)
from algrest.linalg import ParamSolution, RrefResult
from algrest.orbit import TangentSpace, orbit_tangent_space
from algrest.poly import Frozen
from algrest.qt import RationalFunctionT, UniPoly
from algrest.symmetry import ActionTable, HomotopyResult, LiftableField, ScalingResult

from line_trace import UNRUN, source_groups

SRC = pathlib.Path(algrest.__file__).resolve().parents[1]

NAMED_TUPLES = (
    Realization,
    AtlasRow,
    Atlas,
    RowCheck,
    AtlasReport,
    PmqdVerdict,
    InvariantReport,
    LiftableField,
    ActionTable,
    HomotopyResult,
    ScalingResult,
    BasisElement,
    RrefResult,
    ParamSolution,
)

FROZEN = (MonomialCurve, Weights, GradedPiece, TangentSpace, RationalFunctionT)


def test_cold_cli_import_loads_neither_dataclasses_nor_inspect():
    # submodules are registered lazily, so read each one to run it first
    code = (
        "import sys, algrest.cli; "
        "[vars(m) for n, m in list(sys.modules.items()) if n.startswith('algrest.')]; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"


def test_no_module_imports_dataclasses():
    pattern = re.compile(r"^\s*(?:import|from)\s+dataclasses\b", re.MULTILINE)
    for module in (SRC / "algrest").glob("*.py"):
        assert not pattern.search(module.read_text()), module.name


def test_every_imported_name_is_used():
    """Each module of the package except ``__init__`` uses every name it
    imports; ``__future__`` imports are directives, not names."""
    for module in sorted((SRC / "algrest").glob("*.py")):
        if module.name == "__init__.py":
            continue
        tree = ast.parse(module.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, f"{module.name}: unused {sorted(imported - used)}"


def test_plain_records_are_named_tuples_without_mutable_defaults():
    for cls in NAMED_TUPLES:
        assert issubclass(cls, tuple) and cls._fields, cls.__name__
        for default in cls._field_defaults.values():
            assert isinstance(default, (tuple, type(None))), cls.__name__
    assert ParamSolution(False).solution == ()
    assert RrefResult([[Fraction(1)]], [0]).rank == 1


def test_monomial_curve_defaults_ambient_and_keys_caches():
    curve = MonomialCurve((4, 5, 6, 7))
    padded_default = MonomialCurve([4, 5, 6, 7], 4)
    assert curve == padded_default and hash(curve) == hash(padded_default)
    assert curve.ambient == 4 and curve.lams == (4, 5, 6, 7)
    assert curve != MonomialCurve((4, 5, 6, 7), 5)
    assert curve != (4, 5, 6, 7)
    assert repr(curve) == "MonomialCurve(lams=(4, 5, 6, 7), ambient=4)"
    assert cached_basis(curve) is cached_basis(padded_default)


@pytest.mark.parametrize(
    "lams, ambient, message",
    [
        ((), 0, "need at least one exponent"),
        ((0, 5), 0, "exponents must be positive"),
        ((5, 4), 0, "strictly increasing"),
        ((4, 6), 0, "gcd 1"),
        ((3, 4, 7), 0, "exponent 7 is generated by the others"),
        ((4, 5, 6), 2, "ambient dimension smaller than the exponent list"),
    ],
)
def test_monomial_curve_validation_messages(lams, ambient, message):
    with pytest.raises(InputError, match=message):
        MonomialCurve(lams, ambient)


def test_weights_validation_and_equality():
    with pytest.raises(InputError, match="ambient dimension smaller than the weight list"):
        Weights((4, 5, 6), 2)
    with pytest.raises(InputError, match="weights must be positive"):
        Weights((0, 5), 2)
    weights = Weights((4, 5, 6), 4)
    assert weights == MonomialCurve((4, 5, 6), 4).weights
    assert hash(weights) == hash(Weights((4, 5, 6), 4))
    assert weights != Weights((4, 5, 6), 5)
    # equal fields in another Frozen class are another value
    assert weights != MonomialCurve((4, 5, 6), 4) and hash(weights) == hash(((4, 5, 6), 4))
    assert repr(weights) == "Weights(lams=(4, 5, 6), ambient=4)"


def test_rational_function_compares_by_reduced_form():
    t_minus_1 = UniPoly([-1, 1])
    unreduced = RationalFunctionT(t_minus_1 * UniPoly([2]), t_minus_1 * t_minus_1 * UniPoly([4]))
    reduced = RationalFunctionT(UniPoly([Fraction(1, 2)]), t_minus_1)
    assert unreduced == reduced and hash(unreduced) == hash(reduced)
    assert unreduced.num == UniPoly([Fraction(1, 2)]) and unreduced.den == t_minus_1
    assert RationalFunctionT(0, 5) == RationalFunctionT.zero()
    assert reduced != RationalFunctionT(UniPoly([1]), t_minus_1)
    assert repr(reduced) == "RationalFunctionT(num=UniPoly(1/2), den=UniPoly(t - 1))"
    with pytest.raises(ZeroDivisionError):
        RationalFunctionT(1, 0)


def test_graded_piece_equality_leaves_out_relations(curve4567):
    # the value is (curve, k, d): two builds are equal, and the columns, the
    # column map, the relations and the representatives follow from it
    piece = restriction_quotient(curve4567, 2, 11)
    twin = GradedPiece(curve4567, 2, 11)
    assert twin is not piece and twin == piece and hash(twin) == hash(piece)
    assert GradedPiece._fields == ("curve", "k", "d")
    assert set(GradedPiece.__slots__) - set(GradedPiece._fields) == {
        "columns", "column_of", "relations", "rep_cols"
    }
    assert repr(piece) == repr(twin) == f"GradedPiece(curve={curve4567!r}, k=2, d=11)"
    assert twin.column_of == piece.column_of == {(0, 3): 0, (1, 2): 1}
    assert twin.relations == piece.relations and twin.rep_cols == piece.rep_cols
    bare = object.__new__(GradedPiece)
    bare._set(curve=curve4567, k=2, d=11, relations={})
    assert bare == piece and hash(bare) == hash(piece) and repr(bare) == repr(piece)
    assert GradedPiece(curve4567, 2, 12) != piece


def test_tangent_space_contains_is_a_class_attribute(curve4567, basis4567):
    # the benchmark's tracer wraps TangentSpace.contains through vars(cls)
    assert "contains" in vars(TangentSpace)
    a = AlgRestriction.from_coeffs(basis4567, {"a9": 1})
    tangent = orbit_tangent_space(curve4567, a)
    assert tangent == orbit_tangent_space(curve4567, a)
    assert tangent.dim == len(tangent.echelon) == 7
    assert tangent.contains(tangent.vectors[0])
    assert repr(tangent) == (
        "TangentSpace(base=AlgRestriction(a9), shifts=(0, 1, 2, 3, 4, 5, 6))"
    )
    assert repr(tangent.vectors) == (
        "(AlgRestriction(9*a9), AlgRestriction(5*a10), "
        "AlgRestriction(-4*a11+ + 5*a11-), AlgRestriction(-4*a12), "
        "AlgRestriction(13*a13-), AlgRestriction(7*a14), AlgRestriction(5*a15))"
    )
    # base and shifts make the value; rows and echelon follow from them
    twin = TangentSpace(tangent.base, tangent.shifts, tangent.rows)
    assert twin.echelon == tangent.echelon and twin.vectors == tangent.vectors
    assert twin == tangent and hash(twin) == hash(tangent) and repr(twin) == repr(tangent)
    assert twin != TangentSpace(tangent.base, tangent.shifts[:-1], tangent.rows[:-1])


# Module-level functions and classes of the package that no other code in
# it refers to, and why each stays.
UNCALLED = {
    "linalg.kernel_basis": "wrapped by the benchmark tracer (perfbench/tracer.py TARGETS)",
    "linalg.solve_linear": "wrapped by the benchmark tracer (perfbench/tracer.py TARGETS)",
    "linalg.in_span": "wrapped by the benchmark tracer (perfbench/tracer.py TARGETS)",
    "linalg.sturm_count": "wrapped by the benchmark tracer (perfbench/tracer.py TARGETS)",
    "curves.ideal_graded_basis": "wrapped by the benchmark tracer (perfbench/tracer.py TARGETS)",
    "forms.lie_derivative": (
        "public; wrapped by the benchmark tracer (perfbench/tracer.py TARGETS); the "
        "tests' reference for the closed-form action matrices (tests/direct_actions.py)"
    ),
    "symmetry.shift_action": (
        "wrapped by the benchmark tracer; perfbench/queries.py checks the Euler "
        "identity and the action tables with it"
    ),
    "parser.parse_polynomial": "the grammar's entry point for polynomials; tests build inputs with it",
    "symmetry.scaling_symmetry": "normalizes a leading coefficient; the normal-form work needs it",
    "symmetry.pullback_restriction": (
        "the checked action of a symmetry on a class for library use; cmd_pullback "
        "checks the map itself, as it prints the constant"
    ),
}


def _references(tree):
    """How often each name occurs in ``tree`` as a ``Name``, an
    ``Attribute`` or an imported alias."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name] += 1
    return names


def _uncalled_definitions():
    """Module-level ``def`` and ``class`` names of each module except
    ``__init__`` that the package refers to only inside the definition
    itself, as ``module.name``."""
    trees = {
        module.stem: ast.parse(module.read_text())
        for module in sorted((SRC / "algrest").glob("*.py"))
        if module.name != "__init__.py"
    }
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    return {
        f"{name}.{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and everywhere[node.name] == _references(node)[node.name]
    }


def test_every_src_function_has_a_caller():
    """A new helper that nothing calls fails here, and so does a kept name
    that gains a caller or disappears: ``UNCALLED`` is the exact list.
    Docstring mentions and recursion are not calls; methods are not
    checked."""
    assert _uncalled_definitions() == set(UNCALLED)


# Methods and properties of the package's classes, dunders aside, that no
# code in it reads as an attribute, and why each stays.
UNCALLED_METHODS = {
    "Atlas.row": "looks a table row up by id for library use; the atlas tests read rows with it",
    "ActionTable.entry": (
        "one cell of an action table as a class, for library use; the acceptance "
        "and symmetry tests check tables cell by cell with it"
    ),
    "TangentSpace.vectors": (
        "the classes spanning the orbit tangent space, for library use; tests "
        "compare them with shift_action"
    ),
    "MonomialCurve.conductor": (
        "the conductor of the semigroup, for library use; tests/test_curves.py "
        "checks it against a table and bounds its scans with it"
    ),
    "AlgRestriction.coefficient": (
        "one coordinate of a class by label, for library use; the parser, atlas, "
        "symmetry and property tests read classes with it"
    ),
    "DifferentialForm.coefficient": (
        "the polynomial at one dx_J of a form, for library use; the forms, parser "
        "and invariants tests read forms with it"
    ),
    "AlgRestriction.coords": (
        "all coordinates of a class, zeros included; perfbench/queries.py checks "
        "the Euler and Moser identities with it"
    ),
    "RationalFunctionT.evaluate": (
        "the value of a Moser coefficient at a time t; perfbench/queries.py and "
        "the Moser tests check the homotopy identity with it"
    ),
}


def _attributes(tree):
    """How often each name occurs in ``tree`` as an ``Attribute``."""
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def _uncalled_methods():
    """Methods and properties of the package's classes, dunders aside, whose
    name the package reads as an attribute only inside the method itself,
    as ``Class.name``."""
    trees = [ast.parse(module.read_text()) for module in sorted((SRC / "algrest").glob("*.py"))]
    everywhere = sum((_attributes(tree) for tree in trees), Counter())
    return {
        f"{cls.name}.{node.name}"
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and everywhere[node.name] == _attributes(node)[node.name]
    }


def test_every_src_method_has_a_caller():
    """The method-level twin of the guard above: ``UNCALLED_METHODS`` is the
    exact list.  A method is reached as an attribute (``obj.name``,
    ``cls.name``), so a local variable of the same name is no call, and the
    match is by name, whichever class the attribute belongs to.  Dunder
    operators are called by syntax, out of its reach."""
    assert _uncalled_methods() == set(UNCALLED_METHODS)


def test_every_listed_unrun_line_is_still_a_src_line():
    """The line-level twin, without the trace: each key of
    ``tests/line_trace.py``'s ``UNRUN`` names at least as many executable
    src lines as it counts, and gives a reason.  That the lines really go
    unrun is for ``python tests/line_trace.py`` to check."""
    groups = source_groups()
    assert [key for key in UNRUN if groups[key[:3]] < key[3]] == []
    assert all(UNRUN.values())


def test_polynomials_and_forms_test_zero_by_truthiness():
    """``Polynomial`` and ``DifferentialForm`` have no ``is_zero``: nothing
    in ``src`` called one, and truthiness is their zero test.  The guard
    above cannot see this, as it matches by name and ``AlgRestriction.is_zero``
    has callers."""
    for cls in (Polynomial, DifferentialForm):
        assert not hasattr(cls, "is_zero"), cls
    assert not Polynomial.zero(2) and Polynomial.constant(2, 1)
    assert not DifferentialForm.zero(0, 2) and DifferentialForm.function(Polynomial.constant(2, 1))


def test_rational_functions_have_one_reduction_and_no_field_arithmetic():
    """``qt._reduced`` is the one canonicaliser of rational functions:
    ``UniPoly`` runs no Euclid over Q[t] and keeps no ``leading_coeff`` for
    one, and ``RationalFunctionT`` has no Q(t) operators (tests/ztpoly.py
    keeps the Euclid and a Q(t) scalar as the reference).  ``qt`` is the one
    ring of polynomials in t: ``_zmul`` and ``_zsub`` are its product and
    difference, truthiness its zero test, and the Sturm counts sit next to
    the gcd and pseudo-remainder they run on; ``UniPoly`` has ``*`` and
    ``**`` but no ``+``, ``-`` or unary ``-``, which only the tests used
    (``poly_add`` of tests/ztpoly.py adds); ``linalg`` keeps only the entry
    points the benchmark tracer wraps."""
    for name in ("gcd", "divmod", "monic", "derivative", "leading_coeff", "__mod__"):
        assert not hasattr(UniPoly, name), name
    for name in ("__add__", "__neg__", "__sub__", "__mul__", "__rmul__", "__truediv__"):
        assert not hasattr(RationalFunctionT, name), name
    assert not hasattr(algrest.qt, "_sparse_mul")
    for name in ("t_power", "nonzero", "is_zero", "__add__", "__sub__", "__neg__"):
        assert not hasattr(UniPoly, name), name
    assert callable(UniPoly.__mul__) and callable(UniPoly.__pow__)
    assert not hasattr(RationalFunctionT, "is_zero")
    sturm = ("_zsturm_chain", "_zderivative", "_zsign_changes", "_zroot_count", "_zpoles_in_unit_interval")
    for name in sturm:
        assert callable(getattr(algrest.qt, name)) and not hasattr(algrest.linalg, name), name
    for name in ("sturm_count", "solve_param_linear", "ParamSolution"):
        assert getattr(algrest.linalg, name).__module__ == "algrest.linalg", name


def test_the_curve_series_are_sparse_and_unipoly_keeps_no_readers_for_them():
    """``MonomialCurve.series`` gives {t-power: coefficient} dicts, which the
    liftability, symmetry and atlas checks read directly: ``UniPoly`` keeps
    no ``order``, ``coefficient`` or ``zero`` for them, and ``atlas`` does
    not import it (the dense series stay in tests/generic_path.py as the
    reference)."""
    for name in ("order", "coefficient", "zero"):
        assert not hasattr(UniPoly, name), name
    assert not hasattr(algrest.atlas, "UniPoly")
    curve = MonomialCurve((4, 5, 7), 5)
    terms = {(1, 1, 0, 0, 0): 2, (0, 0, 0, 0, 1): 3, (0, 4, 0, 0, 0): 1, (5, 0, 0, 0, 0): -1}
    (series,) = curve.series([Polynomial(5, terms)])
    assert series == {9: 2} and type(series[9]) is Fraction


def test_every_stored_echelon_holds_zechelon_integer_rows():
    """The echelons ``src`` keeps are ``zechelon`` dicts of integer rows:
    the binomial spans, the relations of every piece, the closed rows of a
    basis and the rows of E in its prefix solvers; ``Fraction`` is built
    only when coordinates leave an echelon, so ``linalg`` has no
    ``Fraction`` echelon or remainder."""
    for name in ("sparse_echelon", "sparse_remainder"):
        assert not hasattr(algrest.linalg, name), name
    curve = MonomialCurve((4, 5, 6, 7))
    basis = cached_basis(curve)
    for label in ("a9", "a11-", "a13+", "a15"):
        a = AlgRestriction.from_coeffs(basis, {label: Fraction(3, 2)})
        index_of_isotropy(curve, a)
        lagrangian_tangency_order(curve, a)
    assert basis.isotropy_solvers and basis.exact_solvers

    def integer_rows(echelon):
        return all(type(v) is int for row in echelon.values() for v in row.values())

    assert all(integer_rows(binomial_span(curve.lams, e)) for e in range(basis.stop_qdeg))
    for d, piece in basis.pieces.items():
        assert integer_rows(piece.relations), d
        assert integer_rows(restriction_quotient(curve, 3, d).relations), d
    assert basis.closed and all(integer_rows(echelon) for echelon in basis.closed.values())
    solvers = [*basis.isotropy_solvers.values(), *basis.exact_solvers.values()]
    for _, solver in solvers:
        rows = [row for _, row in solver.solved] + list(solver.checks)
        assert all(type(v) is int for row in rows for _, v in row)


def _frozen_subclasses():
    found, stack = set(), [Frozen]
    while stack:
        for sub in stack.pop().__subclasses__():
            found.add(sub)
            stack.append(sub)
    return found


def test_frozen_owns_equality_hash_repr_and_slot_assignment():
    """``Frozen`` writes the value methods once: no subclass defines
    ``__eq__``, ``__hash__`` or ``__repr__``, each ``_fields`` names slots
    of its own class, and only ``Frozen`` calls ``object.__setattr__``."""
    assert _frozen_subclasses() == set(FROZEN)
    for cls in FROZEN:
        assert not {"__eq__", "__hash__", "__repr__"} & set(vars(cls)), cls.__name__
        assert cls._fields and set(cls._fields) <= set(cls.__slots__), cls.__name__
    for module in sorted((SRC / "algrest").glob("*.py")):
        tree = ast.parse(module.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id == "Frozen" for base in node.bases
            ):
                defined = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
                assert not {"__eq__", "__hash__", "__repr__"} & defined, node.name
        inside_frozen = {
            id(sub)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == "Frozen"
            for sub in ast.walk(node)
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "__setattr__"
                and isinstance(node.value, ast.Name)
                and node.value.id == "object"
            ):
                assert id(node) in inside_frozen, (module.name, node.lineno)



def _instances(curve, basis):
    a = AlgRestriction.from_coeffs(basis, {"a9": 1})
    yield curve
    yield curve.weights
    yield RationalFunctionT(1, 2)
    yield restriction_quotient(curve, 2, 9)
    yield orbit_tangent_space(curve, a)
    for cls in NAMED_TUPLES:
        yield cls(*[None] * len(cls._fields))


def test_assigning_a_field_raises(curve4567, basis4567):
    for record in _instances(curve4567, basis4567):
        name = type(record).__name__
        field = getattr(record, "_fields", None) or type(record).__slots__
        with pytest.raises(AttributeError):
            setattr(record, field[0], None)
        with pytest.raises(AttributeError):
            record.not_a_field = None
        with pytest.raises(AttributeError):
            delattr(record, field[0])
        assert not hasattr(record, "__dict__"), name


def test_value_classes_are_built_without_validation_only_in_trusted():
    """A ``__new__`` of ``Polynomial`` or ``DifferentialForm`` appears only in
    that class's ``_trusted``, and so does every other ``__new__`` in the
    package: results built inside the value layer go through one trusted
    constructor per type, input from outside through the validating one."""
    found = set()
    for module in sorted((SRC / "algrest").glob("*.py")):
        tree = ast.parse(module.read_text())
        place = {
            id(node): (cls.name, method.name)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for method in cls.body
            if isinstance(method, ast.FunctionDef)
            for node in ast.walk(method)
        }
        found |= {
            place.get(id(node), (module.name, node.lineno))
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "__new__"
        }
    assert found == {
        ("Polynomial", "_trusted"),
        ("DifferentialForm", "_trusted"),
        ("RationalFunctionT", "_trusted"),
        ("AlgRestriction", "_trusted"),
    }
