"""Plane curves (t^p, t^q) in closed form, with the standard library only:
the Milnor-algebra model of their closed 2-form classes, an oracle for the
engine that uses no forms and no ``algrest.linalg``.

For p < q coprime let f = x^q - y^p.  Every 2-form on the plane is closed,
and the 2-forms of zero restriction are f Omega^2 + df ^ Omega^1 =
J dx^dy with J = (x^(q-1), y^(p-1)), which contains f by Euler's identity.
So the classes are R dx^dy with R = Q[x, y] / J, whose basis is the
Milnor monomials x^i y^j, i <= q - 2 and j <= p - 2 (``milnor_monomials``;
Milnor-Orlik 1970: dim R = (p - 1)(q - 1)).  With x of weight p and y of
weight q, x^i y^j dx^dy has quasi-degree p i + q j + p + q (``qdeg``).

The liftable field of shift s acts as u_s E, u_s the monomial of weight s
and E the Euler field, up to fields with coefficients in J, which act as
zero; and L_{uE}(g dx^dy) = (w(u) + w(g) + p + q) u g dx^dy.  So the
orbit tangent space at a dx^dy is D(a R), where D multiplies each monomial
by its quasi-degree and is invertible, and mu(a), the codimension of the
orbit, is dim R - rank(multiplication by a on R), the colength of the
principal ideal (a) (``colength``).  The action matrix of the shift s is
D composed with the multiplication by u_s (``action_columns``): zero when
no Milnor monomial has weight s, as u_s then lies in J or, for s outside
the semigroup, does not exist.

Killing the unit component c0 of a = c0 + N, N nilpotent in R, along
A_t = a - t c0 = c0 (1 - t) + N solves D(B A_t) = c0, the killed
component, for B = sum of b_s u_s.  So B = (c0 / (p + q)) sum_k (-N)^k /
(c0 (1 - t))^(k+1), and every b_s is a polynomial in 1 / (1 - t) with no
constant term (``moser_series``).
"""

from __future__ import annotations

from fractions import Fraction

# The plane curves (p, q) the oracles run on in tier-1.
CURVES = [(2, q) for q in range(3, 14, 2)] + [
    (3, 4), (3, 5), (3, 7), (4, 5), (4, 7), (5, 6), (5, 7), (7, 9)
]


def milnor_monomials(p: int, q: int) -> list[tuple[int, int]]:
    """The exponents (i, j) of the basis x^i y^j of R, by quasi-degree;
    weights p i + q j are distinct in the box, as p and q are coprime."""
    box = [(i, j) for i in range(q - 1) for j in range(p - 1)]
    return sorted(box, key=lambda m: qdeg(p, q, *m))


def qdeg(p: int, q: int, i: int, j: int) -> int:
    """The quasi-degree of x^i y^j dx^dy."""
    return p * i + q * j + p + q


def rank(rows: list[list[Fraction]]) -> int:
    """The rank of a matrix over Q, by Gaussian elimination."""
    rows = [row[:] for row in rows]
    found = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(found, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[found], rows[pivot] = rows[pivot], rows[found]
        top = rows[found]
        for r in range(found + 1, len(rows)):
            if rows[r][col]:
                factor = rows[r][col] / top[col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], top)]
        found += 1
    return found


def colength(p: int, q: int, a: dict[tuple[int, int], Fraction]) -> int:
    """dim R / (a) for a = sum of c x^i y^j over the items (i, j) -> c:
    dim R less the rank of the multiplication by a on R, whose column for
    x^k y^l is a x^k y^l with the monomials that lie in J dropped."""
    basis = milnor_monomials(p, q)
    index = {m: n for n, m in enumerate(basis)}
    columns = []
    for k, l in basis:
        column = [Fraction(0)] * len(basis)
        for (i, j), c in a.items():
            n = index.get((i + k, j + l))
            if n is not None:
                column[n] += c
        columns.append(column)
    return len(basis) - rank(columns)


def monomial_of_weight(p: int, q: int, s: int) -> tuple[int, int] | None:
    """The Milnor monomial x^i y^j of weight p i + q j = s, or None."""
    return next(((i, j) for i, j in milnor_monomials(p, q) if p * i + q * j == s), None)


def multiply(p: int, q: int, a: dict, b: dict) -> dict:
    """The product of a and b in R, as {(i, j): c}: the products of their
    terms, those outside the Milnor box (in J) dropped."""
    out: dict[tuple[int, int], Fraction] = {}
    for (i, j), c in a.items():
        for (k, l), d in b.items():
            if i + k <= q - 2 and j + l <= p - 2:
                out[i + k, j + l] = out.get((i + k, j + l), 0) + c * d
    return {m: c for m, c in out.items() if c}


def action_columns(p: int, q: int, s: int) -> list[tuple[tuple[int, Fraction], ...]]:
    """The columns of D(u_s .) over the Milnor monomials (by quasi-degree)
    as (row, value) pairs: x^k y^l goes to qdeg times u_s x^k y^l."""
    basis = milnor_monomials(p, q)
    u = monomial_of_weight(p, q, s)
    columns = []
    for m in basis:
        image = multiply(p, q, {u: 1}, {m: 1}) if u else {}
        columns.append(tuple((basis.index(n), Fraction(qdeg(p, q, *n))) for n in image))
    return columns


def moser_series(p: int, q: int, a: dict) -> dict[tuple[int, int], list[Fraction]]:
    """For a = c0 + N with c0 = a[(0, 0)] nonzero: the beta_k of each
    nonzero b_m = sum_k beta_k / (1 - t)^(k+1), the coefficient of x^i y^j
    = m in B, which are those of m in (-N)^k / ((p + q) c0^k)."""
    c0 = a[0, 0]
    minus_n = {m: -c for m, c in a.items() if m != (0, 0) and c}
    series: dict[tuple[int, int], list[Fraction]] = {}
    power, k = {(0, 0): Fraction(1)}, 0
    while power:
        for m, c in power.items():
            betas = series.setdefault(m, [])
            betas += [Fraction(0)] * (k - len(betas)) + [c / ((p + q) * c0**k)]
        power, k = multiply(p, q, power, minus_n), k + 1
    return series
