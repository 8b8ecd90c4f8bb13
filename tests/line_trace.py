"""Check that every line of ``src/algrest`` is run by the tier-1 tests or
listed in ``UNRUN`` with the reason it is not.

Run it from any directory, on Python 3.11 (line tables differ between
versions)::

    python tests/line_trace.py

It runs the tier-1 suite in this process under ``sys.settrace`` and
``threading.settrace``, tracing lines only in frames whose file lies under
``src/algrest``; a run takes about three times as long as an untraced one.
The executable lines of a module are the lines of its compiled code objects
(``co_lines``).  The lines that never ran are keyed by module, enclosing
qualname, stripped source text and how many such lines there are, so edits
elsewhere in a file do not move a key.  The script exits 1 when an unrun line
is not in ``UNRUN``, or when an entry of ``UNRUN`` now runs or no longer
exists, and prints each key to add or remove in the form ``UNRUN`` takes.
Its file name keeps pytest from collecting it; ``tests/test_records.py``
checks without a trace that every key still names a src line.
"""

from __future__ import annotations

import inspect
import os
import pathlib
import sys
import threading
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "algrest"

_SUBPROCESS = "runs only in subprocess tests, which this trace does not follow"
_TYPE_CHECKING = "an import for type checkers alone (TYPE_CHECKING)"
_DUNDER = "value-type dunder no test calls; it keeps the type a well-behaved value"
_NOT_IMPLEMENTED = (
    "NotImplemented for an operand of another type, so Python tries the reflected "
    "operation; no test mixes these types"
)

# Unrun lines, keyed (module, qualname, stripped text, count), and why each
# stays.  The exact list: a line that starts to run, or disappears, fails
# the trace as an unlisted unrun line does.
UNRUN: dict[tuple[str, str, str, int], str] = {
    ("__init__", "__dir__", "return sorted(set(globals()) | set(_OWNER))", 1): _SUBPROCESS
    + " (tests/test_loading.py lists the package in a fresh interpreter)",
    ("__init__", "__getattr__", "return getattr(globals()[module], name)", 1): _SUBPROCESS
    + " (tests/test_loading.py reads the lazy names in a fresh interpreter)",
    ("cli", "<module>", "sys.exit(main())", 1): _SUBPROCESS + " (python -m algrest.cli)",
    ("cli", "main", "except BrokenPipeError:", 1): _SUBPROCESS
    + " (tests/test_cli.py closes the pipe before the command writes)",
    ("cli", "main", "devnull = os.open(os.devnull, os.O_WRONLY)", 1): _SUBPROCESS,
    ("cli", "main", "os.dup2(devnull, sys.stdout.fileno())", 1): _SUBPROCESS,
    ("cli", "main", "return 1", 1): _SUBPROCESS,
    ("curves", "<module>", "from .linalg import PrefixSolver", 1): _TYPE_CHECKING,
    ("curves", "<module>", "from .orbit import ActionMatrix, TangentSpace", 1): _TYPE_CHECKING,
    ("atlas", "_decode_extended", 'raise InputError(f"bad invariant value {value!r}")', 1): (
        "checks the bundled tables, whose invariants are all ints or \"inf\""
    ),
    ("symmetry", "liftable_field", "raise LiftError(", 1): (
        "checks a stored pinned lift, and every bundled one satisfies the lift equation"
    ),
    (
        "symmetry",
        "liftable_field",
        "f\"the chosen monomials do not satisfy X(g(t)) = t^{s + 1} g'(t)\"",
        1,
    ): "the message of the pinned-lift check above",
    (
        "invariants",
        "_last_used_tag",
        'raise InputError("quotient coordinates do not come from this graded component")',
        1,
    ): (
        "the None guard of a greedy solve over a spanning prefix: callers pass a "
        "part of a class in the span the solver was built on"
    ),
    ("curves", "AlgRestriction.__add__", "return NotImplemented", 1): _NOT_IMPLEMENTED,
    ("curves", "AlgRestriction.__eq__", "return NotImplemented", 1): _NOT_IMPLEMENTED,
    ("curves", "AlgRestriction.__sub__", "return NotImplemented", 1): _NOT_IMPLEMENTED,
    (
        "curves",
        "MonomialCurve.__str__",
        'return "(" + ", ".join(f"t^{v}" for v in self.lams) + ")"',
        1,
    ): _DUNDER,
    ("forms", "Polynomial.__add__", "return NotImplemented", 1): _NOT_IMPLEMENTED,
    ("forms", "Polynomial.__eq__", "return NotImplemented", 1): _NOT_IMPLEMENTED,
    ("forms", "Polynomial.__sub__", "return NotImplemented", 1): _NOT_IMPLEMENTED,
    (
        "forms",
        "Polynomial.__hash__",
        "return hash((self.nvars, frozenset(self.terms.items())))",
        1,
    ): _DUNDER,
    ("forms", "Polynomial.__repr__", 'return f"Polynomial({self})"', 1): _DUNDER,
    ("forms", "DifferentialForm.__add__", "return NotImplemented", 1): _NOT_IMPLEMENTED,
    ("forms", "DifferentialForm.__eq__", "return NotImplemented", 1): _NOT_IMPLEMENTED,
    ("forms", "DifferentialForm.__sub__", "return NotImplemented", 1): _NOT_IMPLEMENTED,
    (
        "forms",
        "DifferentialForm.__hash__",
        "return hash((self.degree, self.nvars, frozenset(self.coeffs.items())))",
        1,
    ): _DUNDER,
    ("forms", "DifferentialForm.__repr__", 'return f"DifferentialForm({self})"', 1): _DUNDER,
    ("forms", "VectorField.__eq__", "if not isinstance(other, VectorField):", 1): _DUNDER,
    ("forms", "VectorField.__eq__", "return NotImplemented", 1): _NOT_IMPLEMENTED,
    ("forms", "VectorField.__eq__", "return self.components == other.components", 1): _DUNDER,
    (
        "forms",
        "VectorField.__str__",
        'return "(" + ", ".join(str(c) for c in self.components) + ")"',
        1,
    ): _DUNDER,
    ("forms", "VectorField.__repr__", 'return f"VectorField{self}"', 1): _DUNDER,
    ("forms", "PolyMap.__eq__", "return NotImplemented", 1): _NOT_IMPLEMENTED,
    (
        "forms",
        "PolyMap.__str__",
        'return "(" + ", ".join(str(c) for c in self.components) + ")"',
        1,
    ): _DUNDER,
    ("forms", "PolyMap.__repr__", 'return f"PolyMap{self}"', 1): _DUNDER,
    ("invariants", "PmqdVerdict.__str__", 'return self.kind.replace("-", " ")', 1): _DUNDER,
    ("qt", "UniPoly.__eq__", "return NotImplemented", 1): _NOT_IMPLEMENTED,
    ("qt", "UniPoly.__mul__", "return NotImplemented", 1): _NOT_IMPLEMENTED,
    ("symmetry", "LiftableField.__str__", 'return f"X_{self.shift} = {self.field}"', 1): _DUNDER,
}


def _owners(code, qualname, owners):
    """Record in ``owners`` the innermost named function or class around
    each line of ``code`` and of the code objects nested in it."""
    for _, _, line in code.co_lines():
        if line:  # None, or 0 for the module's own entry
            owners[line] = qualname
    for const in code.co_consts:
        if inspect.iscode(const):
            if const.co_name.startswith("<"):
                inner = qualname
            elif code.co_name == "<module>":
                inner = const.co_name
            elif code.co_flags & inspect.CO_NEWLOCALS:
                inner = f"{qualname}.<locals>.{const.co_name}"
            else:
                inner = f"{qualname}.{const.co_name}"
            _owners(const, inner, owners)


def executable_lines():
    """``{path: {line: (qualname, stripped text)}}`` for every module of
    the package, ``<module>`` standing for module level."""
    table = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        owners = {}
        _owners(compile(source, str(path), "exec"), "<module>", owners)
        text = source.splitlines()
        table[str(path)] = {
            line: (owner, text[line - 1].strip()) for line, owner in owners.items()
        }
    return table


def source_groups(skip=frozenset()):
    """How many executable lines each (module, qualname, text) has, the
    ``(path, line)`` pairs in ``skip`` left out."""
    return Counter(
        (pathlib.Path(path).stem, *owner)
        for path, lines in executable_lines().items()
        for line, owner in lines.items()
        if (path, line) not in skip
    )


def _traced_run():
    """Run tier-1 under the line trace; return its exit code and the set of
    ``(path, line)`` that ran."""
    import pytest

    root = str(PACKAGE) + os.sep
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(root) else None

    sys.path.insert(0, str(SRC))
    os.chdir(SRC.parent)
    threading.settrace(calls)
    sys.settrace(calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, ran


def main():
    status, ran = _traced_run()
    if status != 0:
        print(f"line trace: tier-1 failed (pytest exit {int(status)})")
        return 1
    unrun = source_groups(skip=ran)
    keys = {(*group, count) for group, count in unrun.items()}
    print(f"line trace: {sum(unrun.values())} src lines never ran")
    unlisted = sorted(keys - set(UNRUN))
    stale = sorted(set(UNRUN) - keys)
    for key in unlisted:
        print(f"unrun and not in UNRUN: {key!r}")
    for key in stale:
        print(f"in UNRUN but runs or is gone: {key!r}")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
