"""Polynomial differential forms, vector fields, and polynomial map germs,
over ``Polynomial``, their coefficient ring: a sparse dict from exponent
tuples to ``Fraction`` coefficients, which only they and the grammar that
reads them build.  Forms are sparse: a ``DifferentialForm`` of degree k
in m variables maps strictly increasing k-tuples of variable indices
(0-based) to polynomial coefficients.  The operations here are the
classical exact ones: wedge product, exterior derivative, interior
product, Lie derivative via Cartan's formula, and pullback along a
polynomial map germ.  Polynomials and forms print from their term maps
through ``poly.polynomial_str`` and ``poly.form_str``.

``Weights`` fixes the quasi-homogeneous grading: coordinate i carries the
i-th curve exponent, and every coordinate beyond the curve's ambient block
carries the largest exponent plus one, which keeps all graded pieces
finite-dimensional.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InputError
from .poly import (
    Exponent, Frozen, Scalar, _as_fraction, _power, add_into, form_str, grlex_key, polynomial_str
)

IndexTuple = tuple[int, ...]


class Polynomial:
    """Sparse polynomial in ``nvars`` variables with Fraction coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Scalar] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        self.nvars = nvars
        clean: dict[Exponent, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != nvars:
                    raise ValueError(f"exponent tuple {exps} has wrong length for {nvars} variables")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                c = _as_fraction(coeff)
                if c:
                    clean[tuple(exps)] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, nvars: int, terms: dict[Exponent, Fraction]) -> Polynomial:
        """Wrap terms that are clean by construction: exponent tuples of
        length nvars with no negative entry, and nonzero Fraction
        coefficients.  Validates nothing, so the caller answers for it."""
        result = object.__new__(cls)
        result.nvars = nvars
        result.terms = terms
        return result

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> Polynomial:
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value: Scalar) -> Polynomial:
        c = _as_fraction(value)
        return cls(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def variable(cls, nvars: int, index: int) -> Polynomial:
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {exps: Fraction(1)})

    @classmethod
    def monomial(cls, exps: Exponent, coeff: Scalar = 1) -> Polynomial:
        return cls(len(exps), {tuple(exps): _as_fraction(coeff)})

    # -- queries ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in descending graded lexicographic order (deterministic)."""
        return sorted(self.terms.items(), key=lambda item: grlex_key(item[0]), reverse=True)

    def __iter__(self) -> Iterator[tuple[Exponent, Fraction]]:
        return iter(self.sorted_terms())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- arithmetic -------------------------------------------------------

    def _check_compatible(self, other: Polynomial) -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            add_into(terms, exps, coeff)
        # add_into drops every zero sum
        return Polynomial._trusted(self.nvars, terms)

    def __neg__(self) -> Polynomial:
        # the negative of a nonzero coefficient is nonzero
        terms = {exps: -coeff for exps, coeff in self.terms.items()}
        return Polynomial._trusted(self.nvars, terms)

    def __sub__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Polynomial | Scalar) -> Polynomial:
        if isinstance(other, (Fraction, int)):
            c = _as_fraction(other)
            # a product of nonzero rationals is nonzero
            terms = {exps: coeff * c for exps, coeff in self.terms.items()} if c else {}
            return Polynomial._trusted(self.nvars, terms)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        terms: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                add_into(terms, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        # add_into drops every zero sum
        return Polynomial._trusted(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> Polynomial:
        return _power(self, power, Polynomial.constant(self.nvars, 1))

    def partial(self, index: int) -> Polynomial:
        """Partial derivative with respect to variable ``index``."""
        if not 0 <= index < self.nvars:
            raise ValueError(f"variable index {index} out of range")
        terms: dict[Exponent, Fraction] = {}
        for exps, coeff in self.terms.items():
            e = exps[index]
            if e:
                # lowering one exponent maps distinct exponents to distinct
                # ones, and coeff * e is nonzero
                terms[exps[:index] + (e - 1,) + exps[index + 1:]] = coeff * e
        return Polynomial._trusted(self.nvars, terms)

    def subst_poly(self, images: Sequence[Polynomial]) -> Polynomial:
        """Evaluate with each variable replaced by a polynomial."""
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        if not images:
            return Polynomial.constant(0, self.constant_term())
        target = images[0].nvars
        result = Polynomial.zero(target)
        for exps, coeff in self.terms.items():
            term = Polynomial.constant(target, coeff)
            for img, e in zip(images, exps):
                if e:
                    term = term * img**e
            result = result + term
        return result

    # -- printing ---------------------------------------------------------

    def __str__(self) -> str:
        return polynomial_str(self.terms)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


class Weights(Frozen):
    """Quasi-homogeneous weights for ``ambient`` variables.

    The first ``len(lams)`` variables carry the given weights; any further
    variable carries ``max(lams) + 1``.  ``wvec``, the weight of every
    variable, is built once and left out of equality, hash and repr.
    """

    __slots__ = ("lams", "ambient", "wvec")
    _fields = __slots__[:-1]

    def __init__(self, lams: tuple[int, ...], ambient: int):
        if ambient < len(lams):
            raise InputError("ambient dimension smaller than the weight list")
        if any(w <= 0 for w in lams):
            raise InputError("weights must be positive")
        wvec = lams + (lams[-1] + 1,) * (ambient - len(lams)) if lams else lams
        self._set(lams=lams, ambient=ambient, wvec=wvec)

    def weight(self, index: int) -> int:
        if not 0 <= index < self.ambient:
            raise InputError(f"variable index {index} out of range")
        return self.wvec[index]

    def qdeg_term(self, exps: Exponent, idx: IndexTuple) -> int:
        """Quasi-degree of the form term x^exps dx_idx."""
        wvec = self.wvec
        return sum(e * w for e, w in zip(exps, wvec)) + sum(wvec[i] for i in idx)


def _merge_sign(left: IndexTuple, right: IndexTuple) -> tuple[int, IndexTuple] | None:
    """Sign and sorted tuple for dx_left ^ dx_right; None if an index repeats."""
    if set(left) & set(right):
        return None
    merged = list(left)
    sign = 1
    for idx in right:
        pos = len(merged)
        while pos > 0 and merged[pos - 1] > idx:
            pos -= 1
        sign *= (-1) ** (len(merged) - pos)
        merged.insert(pos, idx)
    return sign, tuple(merged)


class DifferentialForm:
    """Degree-k polynomial differential form in ``nvars`` variables."""

    __slots__ = ("degree", "nvars", "coeffs")

    def __init__(
        self,
        degree: int,
        nvars: int,
        coeffs: Mapping[IndexTuple, Polynomial] | None = None,
    ):
        if degree < 0:
            raise InputError("form degree must be nonnegative")
        # degree > nvars is allowed; such a form is necessarily zero.
        self.degree = degree
        self.nvars = nvars
        clean: dict[IndexTuple, Polynomial] = {}
        if coeffs:
            for idx, poly in coeffs.items():
                idx = tuple(idx)
                if len(idx) != degree:
                    raise InputError(f"index tuple {idx} has wrong length for degree {degree}")
                if any(not 0 <= i < nvars for i in idx):
                    raise InputError(f"index tuple {idx} out of range for {nvars} variables")
                if list(idx) != sorted(set(idx)):
                    raise InputError(f"index tuple {idx} must be strictly increasing")
                if poly.nvars != nvars:
                    raise InputError("coefficient variable count mismatch")
                if poly:
                    clean[idx] = poly
        self.coeffs = clean

    @classmethod
    def _trusted(
        cls, degree: int, nvars: int, coeffs: dict[IndexTuple, Polynomial]
    ) -> DifferentialForm:
        """Wrap coefficients that are clean by construction: strictly
        increasing index tuples of length degree below nvars, each with a
        nonzero polynomial in nvars variables.  Validates nothing, so the
        caller answers for it."""
        result = object.__new__(cls)
        result.degree = degree
        result.nvars = nvars
        result.coeffs = coeffs
        return result

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, degree: int, nvars: int) -> DifferentialForm:
        return cls(degree, nvars)

    @classmethod
    def from_term(
        cls,
        nvars: int,
        idx: Iterable[int],
        poly: Polynomial | Scalar,
    ) -> DifferentialForm:
        idx = tuple(idx)
        if not isinstance(poly, Polynomial):
            poly = Polynomial.constant(nvars, poly)
        return cls(len(idx), nvars, {idx: poly})

    @classmethod
    def function(cls, poly: Polynomial) -> DifferentialForm:
        return cls(0, poly.nvars, {(): poly})

    # -- queries ----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, idx: Iterable[int]) -> Polynomial:
        return self.coeffs.get(tuple(idx), Polynomial.zero(self.nvars))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        return (
            self.degree == other.degree
            and self.nvars == other.nvars
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.degree, self.nvars, frozenset(self.coeffs.items())))

    # -- linear structure ---------------------------------------------------

    def _check_compatible(self, other: DifferentialForm) -> None:
        if self.nvars != other.nvars:
            raise InputError("variable count mismatch")
        if self.degree != other.degree:
            raise InputError("form degree mismatch")

    def __add__(self, other: DifferentialForm) -> DifferentialForm:
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        self._check_compatible(other)
        coeffs = dict(self.coeffs)
        for idx, poly in other.coeffs.items():
            add_into(coeffs, idx, poly)
        # add_into drops every zero sum
        return DifferentialForm._trusted(self.degree, self.nvars, coeffs)

    def __neg__(self) -> DifferentialForm:
        # the negative of a nonzero polynomial is nonzero
        coeffs = {idx: -poly for idx, poly in self.coeffs.items()}
        return DifferentialForm._trusted(self.degree, self.nvars, coeffs)

    def __sub__(self, other: DifferentialForm) -> DifferentialForm:
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar: Scalar) -> DifferentialForm:
        if not isinstance(scalar, (Fraction, int)):
            return NotImplemented
        value = Fraction(scalar)
        # a nonzero polynomial times a nonzero rational is nonzero
        coeffs = {idx: poly * value for idx, poly in self.coeffs.items()} if value else {}
        return DifferentialForm._trusted(self.degree, self.nvars, coeffs)

    __rmul__ = __mul__

    # -- grading ------------------------------------------------------------

    def graded_parts(self, weights: Weights) -> dict[int, DifferentialForm]:
        """Split into quasi-homogeneous parts, keyed by quasi-degree."""
        if weights.ambient != self.nvars:
            raise InputError("weights do not match the form's variable count")
        parts: dict[int, dict[IndexTuple, dict[Exponent, Fraction]]] = {}
        for idx, poly in self.coeffs.items():
            for exps, coeff in poly.terms.items():
                d = weights.qdeg_term(exps, idx)
                parts.setdefault(d, {}).setdefault(idx, {})[exps] = coeff
        # each part keeps a nonempty share of the form's clean terms
        return {
            d: DifferentialForm._trusted(
                self.degree,
                self.nvars,
                {idx: Polynomial._trusted(self.nvars, terms) for idx, terms in data.items()},
            )
            for d, data in sorted(parts.items())
        }

    def __str__(self) -> str:
        return form_str({idx: poly.terms for idx, poly in self.coeffs.items()})

    def __repr__(self) -> str:
        return f"DifferentialForm({self})"


def wedge(left: DifferentialForm, right: DifferentialForm) -> DifferentialForm:
    if left.nvars != right.nvars:
        raise InputError("variable count mismatch")
    degree = left.degree + right.degree
    nvars = left.nvars
    if degree > nvars:
        return DifferentialForm.zero(degree, nvars)
    coeffs: dict[IndexTuple, Polynomial] = {}
    for idx_l, poly_l in left.coeffs.items():
        for idx_r, poly_r in right.coeffs.items():
            merged = _merge_sign(idx_l, idx_r)
            if merged is None:
                continue
            sign, idx = merged
            # a product of nonzero polynomials over Q is nonzero
            term = poly_l * poly_r
            add_into(coeffs, idx, term if sign > 0 else -term)
    # merged index tuples are sorted
    return DifferentialForm._trusted(degree, nvars, coeffs)


def ext_der(form: DifferentialForm) -> DifferentialForm:
    """Exterior derivative."""
    nvars = form.nvars
    degree = form.degree + 1
    if degree > nvars:
        return DifferentialForm.zero(degree, nvars)
    coeffs: dict[IndexTuple, Polynomial] = {}
    for idx, poly in form.coeffs.items():
        for i in range(nvars):
            dp = poly.partial(i)
            if not dp:
                continue
            merged = _merge_sign((i,), idx)
            if merged is None:
                continue
            sign, new_idx = merged
            add_into(coeffs, new_idx, dp if sign > 0 else -dp)
    # merged index tuples are sorted, and only nonzero partials enter
    return DifferentialForm._trusted(degree, nvars, coeffs)


class VectorField:
    """Polynomial vector field, one component polynomial per variable."""

    __slots__ = ("components",)

    def __init__(self, components: Sequence[Polynomial]):
        if not components:
            raise InputError("vector field needs at least one component")
        nvars = len(components)
        for comp in components:
            if comp.nvars != nvars:
                raise InputError("component variable count mismatch")
        self.components = list(components)

    @property
    def nvars(self) -> int:
        return len(self.components)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.components == other.components

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.components) + ")"

    def __repr__(self) -> str:
        return f"VectorField{self}"


def interior(field: VectorField, form: DifferentialForm) -> DifferentialForm:
    """Interior product (contraction in the first slot)."""
    if field.nvars != form.nvars:
        raise InputError("variable count mismatch")
    nvars = form.nvars
    if form.degree == 0:
        return DifferentialForm.zero(0, nvars)
    coeffs: dict[IndexTuple, Polynomial] = {}
    for idx, poly in form.coeffs.items():
        for pos, i in enumerate(idx):
            comp = field.components[i]
            if not comp:
                continue
            # a product of nonzero polynomials over Q is nonzero
            term = poly * comp
            add_into(coeffs, idx[:pos] + idx[pos + 1:], -term if pos % 2 else term)
    # dropping one index keeps a tuple sorted
    return DifferentialForm._trusted(form.degree - 1, nvars, coeffs)


def lie_derivative(field: VectorField, form: DifferentialForm) -> DifferentialForm:
    """Cartan's formula: L_X = i_X d + d i_X.  On a 0-form i_X is zero, so
    L_X f = i_X df = X(f)."""
    derived = interior(field, ext_der(form))
    if form.degree == 0:
        return derived
    return derived + ext_der(interior(field, form))


class PolyMap:
    """Origin-preserving polynomial map germ between coordinate spaces."""

    __slots__ = ("components", "source_dim")

    def __init__(self, components: Sequence[Polynomial], source_dim: int | None = None):
        if not components:
            raise InputError("map needs at least one component")
        if source_dim is None:
            source_dim = components[0].nvars
        for comp in components:
            if comp.nvars != source_dim:
                raise InputError("component variable count mismatch")
            if comp.constant_term():
                raise InputError("map must fix the origin (nonzero constant term)")
        self.components = list(components)
        self.source_dim = source_dim

    @property
    def target_dim(self) -> int:
        return len(self.components)

    @classmethod
    def diagonal(cls, factors: Sequence[Scalar]) -> PolyMap:
        nvars = len(factors)
        return cls(
            [Polynomial.variable(nvars, i) * _as_fraction(factors[i]) for i in range(nvars)],
            nvars,
        )

    def linear_matrix(self) -> list[list[Fraction]]:
        """Matrix of the linear part, rows indexed by target components."""
        n, zero = self.source_dim, Fraction(0)
        units = [tuple(int(k == j) for k in range(n)) for j in range(n)]
        return [[comp.terms.get(unit, zero) for unit in units] for comp in self.components]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyMap):
            return NotImplemented
        return self.source_dim == other.source_dim and self.components == other.components

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.components) + ")"

    def __repr__(self) -> str:
        return f"PolyMap{self}"


def pullback(phi: PolyMap, form: DifferentialForm) -> DifferentialForm:
    """Pullback phi^* form; the form lives on phi's target space."""
    if form.nvars != phi.target_dim:
        raise InputError("form variable count does not match the map's target")
    n = phi.source_dim
    differentials: list[DifferentialForm] = []
    for comp in phi.components:
        coeffs = {}
        for j in range(n):
            dp = comp.partial(j)
            if dp:
                coeffs[(j,)] = dp
        # one index below n per nonzero partial
        differentials.append(DifferentialForm._trusted(1, n, coeffs))
    result = DifferentialForm.zero(form.degree, n)
    for idx, poly in form.coeffs.items():
        pulled_coeff = poly.subst_poly(phi.components)
        if not pulled_coeff:
            continue
        term = DifferentialForm.function(pulled_coeff)
        for i in idx:
            term = wedge(term, differentials[i])
            if not term:
                break
        if term and term.degree == form.degree:
            result = result + term
    return result
