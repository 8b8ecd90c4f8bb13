"""Arithmetic in t over Q: the parameter of a Moser homotopy.

One ring computes on polynomials in t, given as coefficient lists:
``_zmul`` and ``_zsub`` take any exact coefficients, and ``UniPoly``, a
dense polynomial with ``Fraction`` coefficients, runs its ``*`` through
``_zmul`` (it has no ``+`` or ``-``: nothing here adds two of them).  On
integer lists, Z[t], the gcd and pseudo-remainder carry
``_reduced``, the one reduction of a rational function to its reduced pair
with monic denominator (which ``RationalFunctionT`` keeps, evaluates and
prints), and the Sturm chains that count roots and poles on [0, 1];
``_zsolve`` solves the systems of ``linalg.solve_param_linear`` in that
ring: the peel, the Bareiss elimination and the back substitution.  It is
a module of its own because only a Moser system and a symmetry check read
it: ``linalg`` and ``symmetry`` reach it through the module object, so a
command that does neither never compiles it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping

from .poly import Frozen, Scalar, _as_fraction, _power, signed_sum


class UniPoly:
    """Dense univariate polynomial in t with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs: list[Fraction] = cs

    @classmethod
    def constant(cls, value: Scalar) -> UniPoly:
        return cls([value])

    @classmethod
    def from_terms(cls, terms: Mapping[int, Scalar]) -> UniPoly:
        """The sum of c * t^e over the items e -> c of ``terms``."""
        if any(e < 0 for e in terms):
            raise ValueError("negative exponent")
        coeffs: list[Scalar] = [Fraction(0)] * (max(terms, default=-1) + 1)
        for e, c in terms.items():
            coeffs[e] = c
        return cls(coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(tuple(self.coeffs))

    def __mul__(self, other: UniPoly | Scalar) -> UniPoly:
        if isinstance(other, (Fraction, int)):
            c = _as_fraction(other)
            return UniPoly([a * c for a in self.coeffs]) if c else UniPoly()
        if not isinstance(other, UniPoly):
            return NotImplemented
        return UniPoly(_zmul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, power: int) -> UniPoly:
        return _power(self, power, UniPoly.constant(1))

    def evaluate(self, value: Scalar) -> Fraction:
        v = _as_fraction(value)
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * v + c
        return total

    def __str__(self) -> str:
        return signed_sum(
            (self.coeffs[e], "" if e == 0 else "t" if e == 1 else f"t^{e}")
            for e in range(len(self.coeffs) - 1, -1, -1)
        )

    def __repr__(self) -> str:
        return f"UniPoly({self})"


# Coefficient lists, constant term first, no trailing zeros ([] is zero).
# ``_zmul`` and ``_zsub`` take any exact coefficients, ``UniPoly``'s too; the
# rest is Z[t], lists of Python ints, for ``_reduced``, Sturm and ``linalg``.


def _zmul(a: list[Scalar], b: list[Scalar]) -> list[Scalar]:
    """a * b over nonzero pairs only, as a power of a curve series is long
    and sparse; untouched entries stay zeros of a's own coefficient type."""
    if not a or not b:
        return []
    terms = [(j, y) for j, y in enumerate(b) if y]
    out = [a[-1] * 0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                out[i + j] += x * y
    return out


def _zsub(a: list[Scalar], b: list[Scalar]) -> list[Scalar]:
    out = a + [0] * (len(b) - len(a))
    for j, y in enumerate(b):
        out[j] -= y
    while out and not out[-1]:
        out.pop()
    return out


def _zdiv_exact(a: list[int], b: list[int]) -> list[int]:
    """The quotient a / b in Z[t] for nonzero b; raises ArithmeticError
    unless it is exact."""
    if not a:
        return []
    shift = len(a) - len(b)
    if shift < 0:
        raise ArithmeticError("inexact polynomial division in Z[t]")
    rem = a[:]
    lead = b[-1]
    quot = [0] * (shift + 1)
    for k in range(shift, -1, -1):
        c = rem[k + len(b) - 1]
        if c:
            q, r = divmod(c, lead)
            if r:
                raise ArithmeticError("inexact polynomial division in Z[t]")
            quot[k] = q
            for j, y in enumerate(b):
                rem[k + j] -= q * y
    if any(rem):
        raise ArithmeticError("inexact polynomial division in Z[t]")
    return quot


def _zprimitive(a: list[int]) -> list[int]:
    """a divided by the gcd of its coefficients, for nonzero a."""
    content = math.gcd(*a)
    return a if content == 1 else [c // content for c in a]


def _zremainders(a: list[int], b: list[int]) -> list[list[int]]:
    """The remainder sequence of nonzero a and b in Z[t], deg a >= deg b:
    their primitive parts, then the negated primitive pseudo-remainder
    (``_zprem``) of the two entries before, ending at a constant or at the
    last entry before a zero remainder.  Each entry is a positive multiple
    of the negated remainder over Q[t] and has the gcd of a and b as its
    gcd with the entry before, so a last entry of degree >= 1 is that gcd,
    primitive, up to sign; a constant one means a and b are coprime.
    """
    seq = [_zprimitive(a), _zprimitive(b)]
    while len(seq[-1]) > 1:
        rem = _zprem(seq[-2], seq[-1])
        if not rem:
            break
        seq.append(_zprimitive([-c for c in rem]))
    return seq


def _zprem(a: list[int], b: list[int]) -> list[int]:
    """c * (a mod b) in Z[t] for some integer c > 0, for nonzero b.

    Each step cancels the leading term of the running remainder r as
    |lead(b)| * r - sign(lead(b)) * lead(r) * t^k * b, which multiplies the
    remainder modulo b by |lead(b)| > 0: no sign changes.
    """
    rem = a[:]
    lead = b[-1]
    scale = abs(lead)
    sign = 1 if lead > 0 else -1
    while len(rem) >= len(b):
        c = sign * rem[-1]
        shift = len(rem) - len(b)
        rem = [x * scale for x in rem]
        for j, y in enumerate(b):
            rem[shift + j] -= c * y
        while rem and not rem[-1]:
            rem.pop()
    return rem


def _zsturm_chain(p: list[int]) -> list[list[int]]:
    """A Sturm chain of the square-free part of p, for p in Z[t] of degree
    >= 1, up to positive factors and one common sign.

    The remainder sequence of p and p' (``_zremainders``) ends at
    g = gcd(p, p'), a constant when p is square-free.  Every entry is a
    multiple of g, and divided by g the entries are a Sturm chain of p / g;
    dividing by g(x) flips every sign at once or none.  So the sign changes
    at a less those at b count the distinct roots of p in (a, b].
    """
    chain = _zremainders(p, _zderivative(p))
    g = chain[-1]
    return chain if len(g) < 2 else [_zdiv_exact(q, g) for q in chain]


def _zderivative(p: list[int]) -> list[int]:
    return [k * c for k, c in enumerate(p)][1:]


def _zsign_changes(chain: list[list[int]], x: Fraction) -> int:
    """Sign changes along the chain at the rational x, zeros dropped:
    den^deg * q(num / den) has the sign of q(x), as den > 0."""
    num, den = x.numerator, x.denominator
    values = []
    for q in chain:
        acc, scale = 0, 1
        for c in reversed(q):
            acc = acc * num + c * scale
            scale *= den
        values.append(acc)
    signs = [v > 0 for v in values if v]
    return sum(u != v for u, v in zip(signs, signs[1:]))


def _zroot_count(p: list[int], a: Fraction, b: Fraction) -> int:
    """Distinct real roots in (a, b] of p in Z[t], for a < b (Sturm)."""
    if len(p) < 2:
        return 0
    chain = _zsturm_chain(p)
    return _zsign_changes(chain, a) - _zsign_changes(chain, b)


def _zpoles_in_unit_interval(den: list[int]) -> int:
    """Distinct roots in [0, 1] of a nonzero den in Z[t]."""
    return _zroot_count(den, Fraction(0), Fraction(1)) + (not den[0])


def _reduced(y: list[int], den: list[int]) -> tuple[RationalFunctionT, list[int]]:
    """The reduced rational function y / den for y, den in Z[t], den nonzero,
    and its denominator in Z[t] (a nonzero multiple of the monic one).

    The remainder sequence of y and den (``_zremainders``) ends at g, their
    primitive gcd up to sign, or at a constant when they are coprime, which
    is not divided out.  y / g and den / g lie in Z[t] (Gauss's lemma: a
    primitive factor over Q[t] is a factor over Z[t]) and are coprime over
    Q.  Dividing both by the leading coefficient of den / g makes the
    denominator monic, and a reduced quotient with monic denominator is
    unique: this is the canonical form over Q[t], with no Euclid there, and
    the ``RationalFunctionT`` constructor runs it too.
    """
    if not y:
        return RationalFunctionT.zero(), [1]
    g = _zremainders(*((y, den) if len(y) >= len(den) else (den, y)))[-1]
    if len(g) > 1:
        y, den = _zdiv_exact(y, g), _zdiv_exact(den, g)
    lead = den[-1]
    f = RationalFunctionT._trusted(
        UniPoly([Fraction(c, lead) for c in y]), UniPoly([Fraction(c, lead) for c in den])
    )
    return f, den


class RationalFunctionT(Frozen):
    """Reduced rational function in t with monic denominator."""

    __slots__ = ("num", "den")
    _fields = __slots__

    def __init__(self, num: UniPoly | Scalar, den: UniPoly | Scalar = 1):
        n = num if isinstance(num, UniPoly) else UniPoly.constant(num)
        d = den if isinstance(den, UniPoly) else UniPoly.constant(den)
        if not d:
            raise ZeroDivisionError("zero denominator")
        # one common scale clears both into Z[t] and keeps their quotient
        scale = math.lcm(*(c.denominator for c in n.coeffs + d.coeffs))
        zn, zd = ([c.numerator * (scale // c.denominator) for c in q.coeffs] for q in (n, d))
        f = _reduced(zn, zd)[0]
        self._set(num=f.num, den=f.den)

    @classmethod
    def zero(cls) -> RationalFunctionT:
        """The zero function: one shared value, which no one can assign to."""
        return _ZERO_FUNCTION

    @classmethod
    def _trusted(cls, num: UniPoly, den: UniPoly) -> RationalFunctionT:
        """Wrap a quotient that is already reduced: num and den coprime, den
        monic.  Runs no gcd, so the caller answers for the reduction."""
        f = object.__new__(cls)
        f._set(num=num, den=den)
        return f

    def __bool__(self) -> bool:
        return bool(self.num)

    def evaluate(self, value: Scalar) -> Fraction:
        d = self.den.evaluate(value)
        if not d:
            raise ZeroDivisionError(f"pole at t = {value}")
        return self.num.evaluate(value) / d

    def __str__(self) -> str:
        if not self.den.degree():  # a monic constant is 1
            return str(self.num)
        return f"({self.num}) / ({self.den})"


_ZERO_FUNCTION = RationalFunctionT._trusted(UniPoly(), UniPoly.constant(1))


def _zsolve(
    rows: Iterable[Mapping[int, list[int]]], width: int
) -> tuple[list[RationalFunctionT], list[int]] | None:
    """Solve the rows of ``linalg.solve_param_linear`` ({column: Z[t]
    entry} each): the solution and its pole counts, or None if inconsistent.

    One pass validates every row (``ValueError`` for a column outside
    [0, width] or an entry ending in a zero coefficient) before any is
    solved, and indexes the unknowns and queues the rows of at most one
    unknown.  The rows are read, never written: one is rebuilt only when it
    holds a [] entry or loses an unknown forced to zero.

    The peel (Andersen & Andersen, Math. Programming 71, 1995) removes rows
    of at most one unknown, to a fixed point, through a queue and the index
    ``holders`` of the rows with an entry at each unknown; each rule removes
    one row and changes no other entry.  0 = b is inconsistent for b
    nonzero, and an empty row is dropped; e x_j = 0 forces x_j = 0, so
    column j leaves every row, and those rows go back in the queue;
    e x_j = b fixes x_j = b / e when x_j is in no other row, whatever the
    degree of e.  Every other row goes to the elimination.  The peel finds
    the same answer: no column but j has an entry in the row r of
    e x_j = b, so j is a pivot column, and any other column lies in the
    span of the columns before it exactly when it does so with row r and
    column j removed.  So the pivot columns, the solutions and the one with
    the free unknowns at zero are those of the rows that remain, with the
    peeled x_j.

    The elimination of the rows that remain is fraction-free (Bareiss,
    Math. Comp. 22, 1968) over Z[t], on sparse rows; it is skipped when
    none remain.  Each step takes as pivot row the first remaining row with
    an entry in the next column, and updates every other remaining row to
    M[i][j] = piv * M[i][j] - M[i][col] * M[r][j], divided from the second
    step on by prev, the pivot of the step before; by Sylvester's identity
    every entry is a minor of the input rows, so each division is exact in
    Z[t] (and checked: a remainder raises ``ArithmeticError``).  Where
    M[r][j] or M[i][col] is zero the update is piv * M[i][j] / prev: a zero
    entry stays zero, and over consecutive steps the factors telescope, so
    an entry e written by the step of pivot q and left alone since is
    e * prev / q when read, and an input entry left alone is e * prev (e
    itself at the first step).  So each entry keeps the pivot of the step
    that wrote it, none for an input entry, and a step writes only the rows
    nonzero in the pivot column, and in them only the pivot row's support:
    fill-in is -factor * M[r][j] / prev, and an entry that cancels is
    deleted.  An entry is brought up to date, by one product and at most
    one exact division, only when it is read: in the pivot row, as a
    factor, or under the pivot row's support.  Entries left behind change
    no zero test, and every divisor is a pivot.  A remaining row has no
    entry before the current column, and the system is consistent unless a
    row left after the last pivot has a right-hand side.  Back substitution
    reads each pivot row at its own step and computes y_k = D * x_k in
    Z[t], again by exact divisions, where the last pivot D is the
    determinant of the pivot block (Cramer's rule).

    Each nonzero component y_k / D, and each peeled b / e, is reduced in
    Z[t] (``_reduced``), and the poles of its denominator counted.  The
    result does not depend on the order of the rows, and equals that of
    Gauss-Jordan elimination over Q(t): a column is a pivot exactly when it
    is not in the Q(t)-span of the columns before it, whichever rows are
    chosen as pivots, so all find the same pivot columns; with the free
    variables at zero the solution is unique; and both store the canonical
    reduced form with monic denominator.
    """
    zmul, zsub, zdiv_exact = _zmul, _zsub, _zdiv_exact
    live: dict[int, Mapping[int, list[int]]] = {}  # row index -> the row, no [] entry
    holders: dict[int, set[int]] = {}  # unknown j -> the live rows with an entry at j
    queue: list[int] = []  # the rows of at most one unknown
    for i, row in enumerate(rows):
        empty = False
        for c, e in row.items():
            if not 0 <= c <= width:
                raise ValueError("column outside the system")
            if not e:
                empty = True
            elif not e[-1]:
                raise ValueError("a Z[t] entry ends in a zero coefficient")
            elif c < width:
                holders.setdefault(c, set()).add(i)
        row = live[i] = {c: e for c, e in row.items() if e} if empty else row
        if len(row) - (width in row) < 2:
            queue.append(i)
    peeled: list[tuple[int, list[int], list[int]]] = []  # (j, b, e): x_j = b / e
    while queue:
        i = queue.pop()
        row = live.get(i)
        if row is None:
            continue
        j = next((c for c in row if c != width), None)
        if j is None:  # 0 = b
            if row:
                return None
            del live[i]
            continue
        e, b = row[j], row.get(width, [])
        if b and len(holders[j]) > 1:
            continue  # x_j occurs in another row: the Bareiss takes it
        del live[i]
        peeled.append((j, b, e))
        for k in holders.pop(j) - {i}:  # only for b zero: x_j = 0 leaves every row
            other = live[k] = {c: x for c, x in live[k].items() if c != j}
            if len(other) - (width in other) < 2:
                queue.append(k)
    # each entry (e, q): e as the step of pivot q wrote it, q None for an input entry
    pending = [{c: (e, None) for c, e in row.items()} for row in live.values()]
    prev = None  # the pivot of the step before, None at the first step

    def current(e, q):  # the entry (e, q) brought up to this step
        return e if q == prev else zmul(prev, e) if q is None else zdiv_exact(zmul(prev, e), q)

    pivot_rows: list[tuple[int, list[int], dict[int, list[int]]]] = []
    for col in sorted({c for row in pending for c in row if c != width}):
        r = next((i for i, row in enumerate(pending) if col in row), None)
        if r is None:
            continue
        pivot_row = {j: current(*entry) for j, entry in pending.pop(r).items()}
        piv = pivot_row.pop(col)
        for row in pending:
            if col not in row:
                continue
            factor = current(*row.pop(col))
            for j, p in pivot_row.items():
                value = zsub(zmul(piv, current(*row.get(j, ([], prev)))), zmul(factor, p))
                if prev is not None:
                    value = zdiv_exact(value, prev)
                if value:
                    row[j] = (value, piv)
                else:
                    del row[j]
        prev = piv
        pivot_rows.append((col, piv, pivot_row))
    if any(width in row for row in pending):
        return None
    scaled: dict[int, list[int]] = {}
    for col, piv, row in reversed(pivot_rows):
        acc = zmul(prev, row.get(width, []))
        for k, e in row.items():
            if scaled.get(k):
                acc = zsub(acc, zmul(e, scaled[k]))
        scaled[col] = zdiv_exact(acc, piv)
    solution = [RationalFunctionT.zero()] * width
    poles = [0] * width
    for c, y, den in [(c, y, prev) for c, y in scaled.items()] + peeled:
        if y:
            solution[c], den = _reduced(y, den)
            poles[c] = _zpoles_in_unit_interval(den)
    return solution, poles
