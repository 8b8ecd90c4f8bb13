"""Numerical semigroups from their elements alone, with the standard
library only: an oracle for the engine that uses no forms.

A numerical semigroup S is a submonoid of N with finite complement, its
gaps; the genus is their number.  ``by_genus`` enumerates every semigroup
of a genus by the tree of Rosales and Garcia-Sanchez ("Numerical
Semigroups", 2009, ch. 4): the children of S are S minus a minimal
generator larger than its Frobenius number, and each semigroup of genus g
is reached once from one of genus g - 1.  The counts n_g are 1, 1, 2, 4,
7, 12, 23, ... (Bras-Amoros, Semigroup Forum 76, 2008; OEIS A007323).

``kahler_dim`` is the degree-d part of the Kaehler differentials of the
semigroup ring K[S] = K[t^s : s in S], presented on the generators
lam_1 .. lam_s: the free part has one symbol t^(d - lam_i) dx_i per i in
I_d = {i : d - lam_i in S}, and each binomial x^a - x^b with a and b
factorizations of one n gives d(x^a - x^b) = sum_i (a_i - b_i) t^(n -
lam_i) dx_i, times t^(d - n) for d - n in S.  So dim Omega_d = |I_d| -
rank R_d, with R_d spanned by the vectors a - b (DJZ 2008: the 1-form
restrictions to the monomial curve are Omega of K[S]).  Every closed
2-form class is exact, d of a 1-form class, and the closed 1-form classes
of degree d are d(t^d) for d in S, so ``closed_dim`` is dim Omega_d - [d in
S, d > 0].

``Semigroup.presentation_size`` counts the relations of a minimal
presentation, from which ``is_complete_intersection`` follows, and
``is_symmetric`` reads the definition.  ``lie_action`` is the action of
t^(s + 1) d/dt on the symbols of Omega, the model that the engine's
action matrices are compared with.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


class Semigroup:
    """A numerical semigroup given by its finite set of gaps."""

    def __init__(self, gaps: frozenset[int]):
        self.gaps = gaps
        self.frobenius = max(gaps, default=-1)

    def __contains__(self, value: int) -> bool:
        return value >= 0 and value not in self.gaps

    @property
    def genus(self) -> int:
        return len(self.gaps)

    @property
    def multiplicity(self) -> int:
        return next(v for v in range(1, self.frobenius + 3) if v in self)

    def generators(self) -> tuple[int, ...]:
        """The minimal generators: nonzero elements that are no sum of two
        nonzero elements; none exceeds max(Frobenius, 0) + multiplicity."""
        bound = max(self.frobenius, 0) + self.multiplicity
        return tuple(
            x
            for x in range(1, bound + 1)
            if x in self and not any(y in self and x - y in self for y in range(1, x))
        )

    def is_symmetric(self) -> bool:
        """Whether, for every integer x, exactly one of x and F - x lies in
        S (F the Frobenius number); K[S] is Gorenstein iff S is symmetric
        (Kunz, Proc. AMS 25, 1970)."""
        f = self.frobenius
        return all((x in self) != (f - x in self) for x in range(f + 1))

    def presentation_size(self) -> int:
        """The number of relations in a minimal presentation of S on its
        minimal generators lam_1 < ... < lam_e.

        For each n, join two factorizations of n when their supports meet;
        a minimal presentation has c_n - 1 relations of degree n, c_n the
        number of components (Rosales and Garcia-Sanchez 2009).  Two
        factorizations in different components have disjoint supports, so
        c_n > 1 needs n - lam_i - lam_j outside S for i and j in the supports
        of two components: else c + e_i + e_j, c a factorization of the
        difference, would join them.  For n > F + lam_1, n - lam_1 is in S,
        so some component holds a factorization with i = 1, and so n <= F +
        lam_1 + lam_j <= F + lam_1 + lam_e: the scan stops there.  A
        factorization's component is read off a union-find of the
        generators that the supports join (``_support_components``).
        """
        lams = self.generators()
        return sum(
            _support_components(factorizations(lams, n), len(lams)) - 1
            for n in range(1, self.frobenius + lams[0] + lams[-1] + 1)
            if n in self
        )

    def is_complete_intersection(self) -> bool:
        """Whether K[S] is a complete intersection: iff a minimal
        presentation of S has e - 1 relations, e the number of minimal
        generators (Herzog, Manuscripta Math. 3, 1970)."""
        return self.presentation_size() == len(self.generators()) - 1


def by_genus(genus: int) -> list[Semigroup]:
    """Every numerical semigroup of the genus, each once (the tree above)."""
    level = [Semigroup(frozenset())]
    for _ in range(genus):
        level = [
            Semigroup(s.gaps | {x})
            for s in level
            for x in s.generators()
            if x > s.frobenius
        ]
    return level


@lru_cache(maxsize=None)
def factorizations(lams: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    """Every exponent vector a >= 0 with sum_i a_i lam_i = n."""
    if not lams:
        return [()] if n == 0 else []
    first, rest = lams[0], lams[1:]
    return [
        (e,) + tail for e in range(n // first + 1) for tail in factorizations(rest, n - e * first)
    ]


def _support_components(facts: list[tuple[int, ...]], width: int) -> int:
    """The number of components of the graph on the nonzero factorizations
    ``facts`` that joins two whose supports meet: a union-find of the
    ``width`` generators, each support joining its own."""
    parent = list(range(width))

    def root(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    supports = [[i for i, e in enumerate(a) if e] for a in facts]
    for support in supports:
        for i in support[1:]:
            parent[root(i)] = root(support[0])
    return len({root(support[0]) for support in supports})


def lie_action(lams: tuple[int, ...], d: int, i: int, s: int) -> dict[int, int]:
    """L_(D_s) e_i as {j: coefficient} of the symbols e_j of degree d + s,
    for e_i = t^(d - lam_i) dx_i of degree d and D_s = t^(s + 1) d/dt, the
    field that X_s restricts to; lam_i + s must lie in S.

    With f = t^(d - lam_i) and x_i = t^lam_i, L_D(f dx_i) = D(f) dx_i + f
    d(D x_i).  D(f) = (d - lam_i) t^(d - lam_i + s), and D x_i = lam_i
    t^(lam_i + s) is lam_i x^c along the curve for c the first
    factorization of lam_i + s, so f d(D x_i) = lam_i sum_j c_j t^(d + s -
    lam_j) dx_j.  Hence L_(D_s) e_i = (d - lam_i) e_i + lam_i sum_j c_j e_j,
    with no e_i term when d = lam_i.
    """
    c = factorizations(lams, lams[i] + s)[0]
    out = {j: lams[i] * cj for j, cj in enumerate(c) if cj}
    out[i] = out.get(i, 0) + d - lams[i]
    return {j: v for j, v in out.items() if v}


def rank(rows: list[list[int]]) -> int:
    """Rank over Q by Gaussian elimination on ``Fraction`` rows."""
    work = [[Fraction(v) for v in row] for row in rows]
    found = 0
    width = len(work[0]) if work else 0
    for col in range(width):
        pivot = next((r for r in range(found, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[found], work[pivot] = work[pivot], work[found]
        top = work[found]
        for r in range(found + 1, len(work)):
            if work[r][col]:
                factor = work[r][col] / top[col]
                work[r] = [x - factor * y for x, y in zip(work[r], top)]
        found += 1
    return found


def kahler_dim(lams: tuple[int, ...], d: int) -> int:
    """dim Omega_d = |I_d| - rank R_d for the semigroup generated by lams."""
    s = Semigroup(_gaps(lams))
    free = [i for i, lam in enumerate(lams) if d - lam in s]
    relations = []
    for n in range(d + 1):
        if d - n in s:
            facts = factorizations(lams, n)
            relations += [[a[i] - facts[0][i] for i in free] for a in facts[1:]]
    return len(free) - rank(relations)


def closed_dim(lams: tuple[int, ...], d: int) -> int:
    """The number of closed 2-form classes of degree d > 0."""
    return kahler_dim(lams, d) - (d in Semigroup(_gaps(lams)))


@lru_cache(maxsize=None)
def _gaps(lams: tuple[int, ...]) -> frozenset[int]:
    """The gaps of the semigroup generated by lams (gcd 1), found by
    marking sums up to the first run of lam_1 consecutive elements."""
    members = {0}
    v = run = 0
    gaps = set()
    while run < lams[0]:
        v += 1
        if any(v - lam in members for lam in lams):
            members.add(v)
            run += 1
        else:
            gaps.add(v)
            run = 0
    return frozenset(gaps)
