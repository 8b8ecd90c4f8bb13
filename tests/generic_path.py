"""The generic path that ``atlas.verify_row`` and ``symmetry.symmetry_constant``
replaced by closed forms on exponent data: building a stored realization
as a ``PolyMap`` at a sample, composing a map with the curve's component
series by substitution, restricting a map to the curve's coordinates,
and pulling back the standard symplectic form by the generic
``forms.pullback``.  The tests compare the closed forms with it, and check
``forms.pullback`` against the restriction identity it satisfies."""

from algrest.atlas import coeff_value
from algrest.errors import InputError
from algrest.forms import DifferentialForm, PolyMap, Polynomial
from algrest.qt import UniPoly

from ztpoly import poly_add


def build_map(real, env, n):
    """The stored map on R^{2n} at the sample ``env``, padded with identity
    coordinates beyond 2*real.n."""
    nvars = 2 * n
    components = []
    for comp in real.map_data:
        terms = {}
        for coeff, exps in comp:
            padded = tuple(exps) + (0,) * (nvars - len(exps))
            terms[padded] = terms.get(padded, 0) + coeff_value(coeff, env)
        components.append(Polynomial(nvars, terms))
    for extra in range(2 * real.n, nvars):
        components.append(Polynomial.variable(nvars, extra))
    return PolyMap(components)


def terms_of(f):
    """{exponent: coefficient} over the nonzero coefficients of a ``UniPoly``."""
    return {e: c for e, c in enumerate(f.coeffs) if c}


def substitute(poly, images):
    """Evaluate ``poly`` with each variable replaced by a univariate
    polynomial in t, by ``UniPoly``'s ``*`` and ``**`` and by ``poly_add``;
    each image power is built once per call."""
    if len(images) != poly.nvars:
        raise ValueError("need one image per variable")
    powers = {}
    total = UniPoly()
    for exps, coeff in poly.terms.items():
        term = UniPoly.constant(coeff)
        for i, e in enumerate(exps):
            if e:
                if (i, e) not in powers:
                    powers[i, e] = images[i] ** e
                term = term * powers[i, e]
        total = poly_add(total, term)
    return total


def curve_images(curve):
    """Component series of the curve, one per ambient variable."""
    series = [UniPoly.from_terms({v: 1}) for v in curve.lams]
    series += [UniPoly()] * (curve.ambient - len(curve.lams))
    return series


def apply_series(phi, images):
    """Compose a map with a curve t -> images, one UniPoly per source variable."""
    return [substitute(comp, images) for comp in phi.components]


def restrict(phi, dim):
    """phi after the inclusion of R^dim as the first ``dim`` coordinates; its
    pullback is the pullback along phi then ``drop_off_curve``."""
    if not 0 < dim <= phi.source_dim:
        raise InputError(f"cannot restrict a map on R^{phi.source_dim} to R^{dim}")
    kept = [{e[:dim]: c for e, c in p.terms.items() if not any(e[dim:])} for p in phi.components]
    return PolyMap([Polynomial(dim, terms) for terms in kept], dim)


def drop_off_curve(form, branch_dim):
    """Pull a form back along the inclusion of the curve-supported subspace.

    Deletes every term containing an off-curve variable or differential and
    re-expresses the rest in the first ``branch_dim`` variables.  The class
    of the restriction is unchanged: a term p dx_j ^ dx_I with j off-curve
    equals d(+- x_j p dx_I) up to a form with vanishing coefficients on the
    curve, and both lie in the zero-restriction space.
    """
    if branch_dim > form.nvars:
        raise InputError("branch dimension exceeds the form's variable count")
    coeffs = {}
    for idx, poly in form.coeffs.items():
        if any(i >= branch_dim for i in idx):
            continue
        terms = {
            exps[:branch_dim]: c
            for exps, c in poly.terms.items()
            if all(e == 0 for e in exps[branch_dim:])
        }
        if terms:
            coeffs[idx] = Polynomial(branch_dim, terms)
    return DifferentialForm(form.degree, branch_dim, coeffs)


def standard_symplectic(n):
    """dx1^dx2 + dx3^dx4 + ... on R^{2n}."""
    total = DifferentialForm.zero(2, 2 * n)
    for i in range(n):
        total = total + DifferentialForm.from_term(2 * n, (2 * i, 2 * i + 1), 1)
    return total
