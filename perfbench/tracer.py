"""Per-layer tracing of algrest from outside the package.

The tracer wraps public functions of the algrest modules in timing spans.
Modules bind each other's functions with ``from .linalg import rref``, so
wrapping ``linalg.rref`` alone would miss the copy bound in ``curves``;
``install`` therefore rebinds every attribute of every loaded ``algrest``
module that holds a wrapped object, plus the class attributes named in
``TARGETS``.  ``uninstall`` puts every original back.

A span's self time is its duration minus the time covered by the spans it
encloses.  Spans are not kept: each one is folded into per-function totals
as it closes, which is all the benchmark reports.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute path, reported name).  A dotted path names a class
# attribute; ``RestrictionBasis.__init__`` is reported as
# ``curves.RestrictionBasis`` with its calls named ``builds``.
TARGETS = (
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "solve_linear", "linalg.solve_linear"),
    ("linalg", "kernel_basis", "linalg.kernel_basis"),
    ("linalg", "in_span", "linalg.in_span"),
    ("linalg", "solve_param_linear", "linalg.solve_param_linear"),
    ("linalg", "sturm_count", "linalg.sturm_count"),
    ("curves", "restriction_quotient", "curves.restriction_quotient"),
    ("curves", "ideal_graded_basis", "curves.ideal_graded_basis"),
    ("curves", "RestrictionBasis.__init__", "curves.RestrictionBasis"),
    ("curves", "cached_basis", "curves.cached_basis"),
    ("curves", "project", "curves.project"),
    ("symmetry", "shift_action", "symmetry.shift_action"),
    ("symmetry", "orbit_tangent_space", "symmetry.orbit_tangent_space"),
    ("symmetry", "TangentSpace.contains", "symmetry.TangentSpace.contains"),
    ("symmetry", "action_table", "symmetry.action_table"),
    ("symmetry", "moser_reduce", "symmetry.moser_reduce"),
    ("invariants", "index_of_isotropy", "invariants.index_of_isotropy"),
    ("invariants", "lagrangian_tangency_order", "invariants.lagrangian_tangency_order"),
    ("invariants", "symplectic_multiplicity", "invariants.symplectic_multiplicity"),
    ("invariants", "representable_by_symplectic", "invariants.representable_by_symplectic"),
    ("atlas", "verify_row", "atlas.verify_row"),
    ("atlas", "verify_distinctness", "atlas.verify_distinctness"),
    ("atlas", "load_atlas", "atlas.load_atlas"),
    ("forms", "lie_derivative", "forms.lie_derivative"),
    ("forms", "pullback", "forms.pullback"),
    ("cli", "main", "cli.main"),
)

CALLS_NAME = {"curves.RestrictionBasis": "builds"}


class _Stat:
    __slots__ = ("calls", "self_s", "max_s", "misses", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.max_s = 0.0
        self.misses = 0
        self.extra: dict[str, int] = {}


def _rref_shape(args, kwargs) -> dict[str, int]:
    """Rows x width and nonzero count of an rref input."""
    rows = args[0] if args else kwargs.get("rows", ())
    width = args[1] if len(args) > 1 else kwargs.get("width")
    if not isinstance(rows, (list, tuple)):
        return {}
    if width is None:
        width = len(rows[0]) if rows else 0
    nnz = sum(1 for row in rows for value in row if value)
    return {"cells": len(rows) * width, "nnz": nnz}


class Tracer:
    """Wraps the ``TARGETS`` of one package and folds spans into totals.

    ``clock`` is the time source; tests pass a fake one.
    """

    def __init__(self, package: str = "algrest", targets=TARGETS, clock=time.perf_counter):
        self.package = package
        self.targets = targets
        self.clock = clock
        self.stats: dict[str, _Stat] = {}
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def _modules(self):
        prefix = self.package + "."
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == self.package or name.startswith(prefix))
        ]

    def caches(self) -> list:
        """Every distinct lru cache reachable from the package's modules."""
        seen: dict[int, object] = {}
        for mod in self._modules():
            for value in vars(mod).values():
                if hasattr(value, "cache_info"):
                    seen.setdefault(id(value), value)
        return list(seen.values())

    def _wrap(self, name: str, func):
        stat = self.stats.setdefault(name, _Stat())
        stack = self._stack
        clock = self.clock
        cached = hasattr(func, "cache_info")
        is_rref = name == "linalg.rref"

        @functools.wraps(func)
        def span(*args, **kwargs):
            if is_rref:
                shape = _rref_shape(args, kwargs)
            misses = func.cache_info().misses if cached else 0
            stack.append(0.0)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                stat.calls += 1
                stat.self_s += duration - children
                if duration > stat.max_s:
                    stat.max_s = duration
            if cached and func.cache_info().misses != misses:
                stat.misses += 1
                if name == "curves.restriction_quotient":
                    stat.extra["cols"] = stat.extra.get("cols", 0) + len(result.columns)
            if is_rref:
                shape["rank"] = result.rank
                for key, value in shape.items():
                    stat.extra[key] = stat.extra.get(key, 0) + value
            return result

        return span

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = self._modules()
        by_name = {mod.__name__: mod for mod in modules}
        for mod_name, path, name in self.targets:
            mod = by_name[f"{self.package}.{mod_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original))
                continue
            original = getattr(mod, path)
            wrapped = self._wrap(name, original)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, attr, original))
                        setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def snapshot(self) -> dict[str, float | int]:
        """Flat ``<module>.<function>.<stat>`` totals of every target, and
        the entries held by the package's caches; take it after
        ``uninstall``, when the caches are module attributes again."""
        out: dict[str, float | int] = {}
        for _, _, name in self.targets:
            stat = self.stats.get(name, _Stat())
            out[f"{name}.{CALLS_NAME.get(name, 'calls')}"] = stat.calls
            out[f"{name}.self_s"] = stat.self_s
            out[f"{name}.max_s"] = stat.max_s
            out[f"{name}.misses"] = stat.misses
            for key, value in stat.extra.items():
                out[f"{name}.{key}"] = value
        out["cache.entries"] = sum(c.cache_info().currsize for c in self.caches())
        return out
