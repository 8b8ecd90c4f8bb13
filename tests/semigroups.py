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
