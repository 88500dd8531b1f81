"""Exact arithmetic for polynomials in q, polynomials in q and t, and their
rational functions, plus a fraction-free linear solver over them.

Representations:

* ``QPoly`` -- a polynomial in q with integer coefficients, stored densely as
  a tuple ``coeffs`` where ``coeffs[e]`` is the coefficient of ``q**e``.
  Canonical form has no trailing zero, so the zero polynomial is ``()``.
* ``QTPoly`` -- a polynomial in q and t with integer coefficients, stored as
  ``rows``, one ``QPoly`` per power of t: ``rows[k]`` multiplies ``t**k``.
  Canonical form has no trailing zero row, so the zero polynomial is ``()``.
* ``RatFunc`` -- a reduced fraction of two ``QPoly``.  Canonical form: the
  denominator is nonzero with positive leading coefficient, numerator and
  denominator share no polynomial factor and no integer content, and zero is
  ``0/1``.  Equal rational functions therefore compare equal with ``==``.

Every division is exact or raises; nothing here rounds.  ``QPoly`` products
go through the schoolbook kernel ``_mul`` on coefficient lists, and
``QTPoly`` reaches it through ``QPoly``.  The linear solver packs each
polynomial into one int instead (``kronecker``), as the J(P) engine does:
its elimination, its certificate and the gcd (``poly_gcd``) are int arithmetic.

Text format for q-polynomials: terms in ascending exponent order joined with
`` + `` / `` - ``, e.g. ``"1 + 2*q + q^2"``.  The parser also accepts ``2q``,
``q**2``, and arbitrary spacing.  For (q, t)-polynomials the same scheme is
used with the q factor before the t factor, e.g. ``"q + 2*q*t + t^2"``, and
terms ordered by (t exponent, q exponent).
"""

from __future__ import annotations

import math
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import chain, zip_longest
from operator import add, attrgetter, mul
from typing import Callable, Iterable, Iterator, Sequence

from .frozen import _Frozen, cached
from .kronecker import balanced, pack, step_above


class QAlgebraError(Exception):
    """Base class for exact-arithmetic failures."""


class InexactDivision(QAlgebraError):
    """A division that was required to be exact left a remainder."""


class DivisionByZero(QAlgebraError):
    """Division by the zero polynomial or zero rational function."""


class DimensionMismatch(QAlgebraError):
    """Matrix/vector shapes passed to the linear solver do not agree."""


class ResidualMismatch(QAlgebraError):
    """A solver answer does not satisfy the system it was computed from."""


# ---------------------------------------------------------------------------
# the kernel on coefficient lists (index = exponent of q)


def _add(acc: list[int], poly: Sequence[int]) -> None:
    """``acc += poly``, in place."""
    end = len(poly)
    if len(acc) < end:
        acc.extend([0] * (end - len(acc)))
    acc[:end] = map(add, acc, poly)


def _mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of two coefficient sequences, schoolbook."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for e, c in enumerate(a):
        if c:
            for f, d in enumerate(b, e):
                out[f] += c * d
    return out


def _from_map(entries: dict[int, int]) -> QPoly:
    """The polynomial with coefficient ``entries.get(e, 0)`` at q^e."""
    return QPoly.of(entries.get(e, 0) for e in range(max(entries, default=-1) + 1))


# ---------------------------------------------------------------------------
# QPoly


class QPoly(_Frozen):
    """Dense integer-coefficient polynomial in q; ``coeffs[e]`` multiplies q^e."""

    __slots__ = ("coeffs",)
    __match_args__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        if coeffs and coeffs[-1] == 0:
            raise ValueError("QPoly coefficients must not end in zero")
        object.__setattr__(self, "coeffs", coeffs)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    @classmethod
    def of(cls, coeffs: Iterable[int]) -> QPoly:
        """Build a polynomial from any coefficient sequence, trimming zeros."""
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @classmethod
    def monomial(cls, coeff: int, exp: int) -> QPoly:
        if coeff == 0:
            return ZERO
        return cls((0,) * exp + (coeff,))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    @property
    def lc(self) -> int:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: QPoly) -> QPoly:
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        _add(cs, b)
        return QPoly.of(cs)

    def __neg__(self) -> QPoly:
        return QPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: QPoly) -> QPoly:
        if not isinstance(other, QPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: QPoly | int) -> QPoly:
        if isinstance(other, int):
            if other == 0:
                return ZERO
            return QPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, QPoly):
            return NotImplemented
        return QPoly(tuple(_mul(self.coeffs, other.coeffs)))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> QPoly:
        if k < 0:
            raise ValueError("negative power of a QPoly")
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def exact_div(self, other: QPoly) -> QPoly:
        """Divide exactly by ``other``; raise InexactDivision on remainder."""
        if not other:
            raise DivisionByZero("division by the zero polynomial")
        if not self:
            return ZERO
        rem = list(self.coeffs)
        d, lead = other.degree, other.lc
        out = [0] * (len(rem) - d) if len(rem) > d else []
        if not out:
            raise InexactDivision(f"degree {self.degree} < degree {d}")
        for k in range(len(out) - 1, -1, -1):
            top = rem[d + k]
            if top % lead:
                raise InexactDivision("leading coefficient does not divide")
            f = top // lead
            out[k] = f
            if f:
                for e, c in enumerate(other.coeffs):
                    rem[e + k] -= f * c
        if any(rem):
            raise InexactDivision("nonzero remainder")
        return QPoly.of(out)

    def shift(self, k: int) -> QPoly:
        """Multiply by q^k (k >= 0)."""
        if k < 0:
            raise ValueError(f"negative shift {k}: a QPoly has no negative powers of q")
        if not self or k == 0:
            return self
        return QPoly((0,) * k + self.coeffs)

    def substitute(self, r: int) -> QPoly:
        """Substitute q -> q^r for an integer r >= 1."""
        if r < 1:
            raise ValueError("substitution power must be >= 1")
        if r == 1 or not self:
            return self
        out = [0] * (self.degree * r + 1)
        for e, c in enumerate(self.coeffs):
            out[e * r] = c
        return QPoly(tuple(out))

    def reverse(self, degree: int | None = None) -> QPoly:
        """Return q^degree * p(1/q); ``degree`` defaults to the degree of p."""
        if not self:
            return self
        d = self.degree if degree is None else degree
        if d < self.degree:
            raise ValueError("reversal degree below polynomial degree")
        padded = self.coeffs + (0,) * (d - self.degree)
        return QPoly.of(reversed(padded))

    def evaluate(self, x: int | Fraction) -> int | Fraction:
        """Evaluate at an exact point by Horner's rule."""
        acc: int | Fraction = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def content(self) -> int:
        """Nonnegative gcd of all coefficients (0 for the zero polynomial)."""
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def __str__(self) -> str:
        return format_poly(self)


ZERO = QPoly(())
ONE = QPoly((1,))
Q = QPoly((0, 1))


# ---------------------------------------------------------------------------
# q-numbers


@lru_cache(maxsize=None)
def qnum(k: int) -> QPoly:
    """The q-integer [k] = 1 + q + ... + q^(k-1); [0] = 0."""
    if k < 0:
        raise ValueError("q-integer of a negative number")
    return QPoly((1,) * k)


@lru_cache(maxsize=None)
def qfact(n: int) -> QPoly:
    """The q-factorial [n]! = [1][2]...[n]."""
    if n < 0:
        raise ValueError("q-factorial of a negative number")
    out = ONE
    for k in range(2, n + 1):
        out = out * qnum(k)
    return out


@lru_cache(maxsize=None)
def qbinom(n: int, k: int) -> QPoly:
    """The q-binomial coefficient [n choose k]; zero when k < 0 or k > n.

    Built as [n-k+1]/[1] * ... * [n]/[k], one exact division per step: after
    step j the running value is [n-k+j choose j].
    """
    if k < 0 or k > n:
        return ZERO
    k = min(k, n - k)
    out = ONE
    for j in range(1, k + 1):
        out = (out * qnum(n - k + j)).exact_div(qnum(j))
    return out


def bracket_ratio(nums: Iterable[int], dens: Iterable[int]) -> QPoly:
    """prod [k] over ``nums`` divided exactly by prod [k] over ``dens``.

    Equal q-integers [k], k >= 1, cancel between the two sides before any
    product is formed; [0] = 0 never cancels, so a zero factor still gives 0
    or a division by zero.  Each side is read once.
    """
    top, bottom = Counter(nums), Counter(dens)
    common = top & bottom
    del common[0]
    numerator = denominator = ONE
    for k in (top - common).elements():
        numerator = numerator * qnum(k)
    for k in (bottom - common).elements():
        denominator = denominator * qnum(k)
    return numerator.exact_div(denominator)


def qt_num(k: int) -> QTPoly:
    """The (q, t)-integer t^(k-1) + q*t^(k-2) + ... + q^(k-1)."""
    if k < 0:
        raise ValueError("(q, t)-integer of a negative number")
    return QTPoly(tuple(QPoly.monomial(1, k - 1 - te) for te in range(k)))


# ---------------------------------------------------------------------------
# QTPoly


class QTPoly(_Frozen):
    """Integer-coefficient polynomial in q and t; ``rows[k]`` multiplies t^k."""

    __slots__ = ("rows",)
    __match_args__ = ("rows",)

    def __init__(self, rows: tuple[QPoly, ...]) -> None:
        if rows and not rows[-1]:
            raise ValueError("QTPoly rows must not end in zero")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def of(cls, entries: dict[tuple[int, int], int]) -> QTPoly:
        """Build from a {(q_exp, t_exp): coeff} map, dropping zeros."""
        by_t: dict[int, dict[int, int]] = {}
        for (qe, te), c in entries.items():
            by_t.setdefault(te, {})[qe] = c
        return _qt_rows(_from_map(by_t.get(te, {})) for te in range(max(by_t, default=-1) + 1))

    @classmethod
    def from_qpoly(cls, p: QPoly, t_exp: int = 0) -> QTPoly:
        return _qt_rows((ZERO,) * t_exp + (p,))

    @property
    def terms(self) -> tuple[tuple[int, int, int], ...]:
        """``(q_exp, t_exp, coeff)`` triples, nonzero, sorted by ``(t_exp, q_exp)``."""
        return tuple(
            (qe, te, c) for te, row in enumerate(self.rows) for qe, c in enumerate(row.coeffs) if c
        )

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __add__(self, other: QTPoly | QPoly | int) -> QTPoly:
        other = _embed_qt(other)
        if other is None:
            return NotImplemented
        return _qt_rows(a + b for a, b in zip_longest(self.rows, other.rows, fillvalue=ZERO))

    __radd__ = __add__

    def __neg__(self) -> QTPoly:
        return QTPoly(tuple(-row for row in self.rows))

    def __sub__(self, other: QTPoly | QPoly | int) -> QTPoly:
        other = _embed_qt(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: QTPoly | QPoly | int) -> QTPoly:
        other = _embed_qt(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: QTPoly | QPoly | int) -> QTPoly:
        other = _embed_qt(other)
        if other is None:
            return NotImplemented
        if not self or not other:
            return QTPoly(())
        out = [ZERO] * (len(self.rows) + len(other.rows) - 1)
        for i, a in enumerate(self.rows):
            for j, b in enumerate(other.rows, i):
                out[j] = out[j] + a * b
        return QTPoly(tuple(out))

    __rmul__ = __mul__

    @property
    def t_degree(self) -> int:
        """Highest power of t present; -1 for the zero polynomial."""
        return len(self.rows) - 1

    def coefficient_of_t(self, t_exp: int) -> QPoly:
        """The q-polynomial multiplying t^t_exp."""
        return self.rows[t_exp] if 0 <= t_exp < len(self.rows) else ZERO

    def at_t1(self) -> QPoly:
        """Specialize t = 1."""
        return sum(self.rows, ZERO)

    def __str__(self) -> str:
        return format_qt_poly(self)


def _qt_rows(rows: Iterable[QPoly]) -> QTPoly:
    """The QTPoly with these rows, trailing zero rows dropped."""
    out = list(rows)
    while out and not out[-1]:
        out.pop()
    return QTPoly(tuple(out))


def _embed_qt(x: QTPoly | QPoly | int) -> QTPoly | None:
    if isinstance(x, QTPoly):
        return x
    if isinstance(x, QPoly):
        return QTPoly.from_qpoly(x)
    if isinstance(x, int):
        return QTPoly.from_qpoly(QPoly.of([x]))
    return None


# ---------------------------------------------------------------------------
# polynomial gcd (the heuristic gcd over the Kronecker packing)


def _primitive(p: QPoly) -> QPoly:
    c = p.content()
    if c <= 1:
        return p if (p.lc >= 0 or not p) else -p
    q = QPoly(tuple(x // c for x in p.coeffs))
    return q if q.lc >= 0 else -q


def poly_gcd(a: QPoly, b: QPoly) -> QPoly:
    """Greatest common divisor in Z[q], content included, with positive
    leading coefficient; gcd(0, b) is b with a positive leading coefficient.

    The heuristic gcd (Char, Geddes & Gonnet, *J. Symbolic Comput.* 7,
    1989) over the Kronecker packing.  Put c = gcd(cont a, cont b),
    M = min(|a|_inf, |b|_inf) and x = 2^(8*step) > 2M + 1 (``step_above``).
    The balanced base-x digits of gcd(a(x), b(x)) (``balanced``) are a
    polynomial h with h(x) = gcd(a(x), b(x)); let g be its primitive part.
    A constant g gives c, a g that divides a and b gives c*g, and any
    other g squares x and the loop runs again.

    Soundness.  Write a = cont(a) * G * a' and b = cont(b) * G * b', with G
    the primitive gcd, so c*G is the answer.  A primitive g that divides a
    and b (a constant one does) divides G: say G = g*k.  Then
    c * G(x) = c * g(x) * k(x) divides a(x) and b(x), so it divides their
    gcd h(x) = cont(h) * g(x); as g(x) != 0, k(x) divides cont(h) > 0.  A
    nonconstant k has only common roots of a and b, each below 1 + M <= x/2
    in absolute value by Cauchy's bound, so |k(x)| > x/2.  The digits of h
    lie in [-x/2, x/2), so cont(h) <= x/2, and k is constant: g = G.
    Termination.  gcd(a(x), b(x)) = G(x) * r, where r divides
    cont(a) * cont(b) * Res(a', b'), a nonzero integer that does not depend
    on x.  Once x/2 > r * |G|_inf the digits of G(x) * r are the
    coefficients of r*G, so g = G divides a and b.
    Bound.  With |.|_1 the 1-norm and M(.) the Mahler measure, a factor h
    of a has |h|_2 <= |h|_1 <= 2^deg(h) M(h) <= 2^deg(h) M(a) <= 2^deg(h)
    |a|_1 (Landau-Mignotte), and Hadamard's inequality on the Sylvester
    matrix gives |Res(a', b')| <= |a'|_2^deg(b') * |b'|_2^deg(a').  So
    r * |G|_inf < 2^B, with B the sum of the bit lengths of cont(a),
    cont(b), (2^deg(a) |a|_1)^deg(b), (2^deg(b) |b|_1)^deg(a) and
    2^min(deg a, deg b) * min(|a|_1, |b|_1).  A candidate that fails once
    x/2 >= 2^B can only come from faulty arithmetic, and QAlgebraError is
    raised instead of squaring x again.
    """
    if not (a and b):
        p = a or b
        return -p if p.lc < 0 else p
    c = math.gcd(a.content(), b.content())
    step = step_above(2 * min(max(map(abs, a.coeffs)), max(map(abs, b.coeffs))) + 1)
    (da, na), (db, nb) = ((p.degree, _norm(p.coeffs).bit_length()) for p in (a, b))
    limit = (
        a.content().bit_length()
        + b.content().bit_length()
        + db * (da + na)
        + da * (db + nb)
        + min(da, db)
        + min(na, nb)
    )
    while True:
        value = math.gcd(pack(a.coeffs, step), pack(b.coeffs, step))
        g = _primitive(QPoly.of(balanced(value, step)))
        if g.degree == 0:
            return QPoly((c,))
        try:
            a.exact_div(g)
            b.exact_div(g)
            return g * c
        except InexactDivision:
            if 8 * step > limit:
                raise QAlgebraError("poly_gcd: no candidate divides past its termination bound")
            step *= 2


# ---------------------------------------------------------------------------
# RatFunc


class RatFunc(_Frozen):
    """Reduced fraction of two QPoly with a canonical representative."""

    __slots__ = ("num", "den")
    __match_args__ = ("num", "den")

    def __init__(self, num: QPoly, den: QPoly = ONE) -> None:
        if not den:
            raise DivisionByZero("rational function with zero denominator")
        if not num:
            num, den = ZERO, ONE
        else:
            g = poly_gcd(num, den)
            if g.degree > 0 or g.lc > 1:
                num = num.exact_div(g)
                den = den.exact_div(g)
            if den.lc < 0:
                num, den = -num, -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def from_int(cls, k: int) -> RatFunc:
        return cls(QPoly.of([k]))

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RatFunc):
            return self.num == other.num and self.den == other.den
        if isinstance(other, int):
            return self.den == ONE and self.num == QPoly.of([other])
        return NotImplemented

    def __hash__(self) -> int:
        if self.den == ONE and self.num.degree <= 0:
            return hash(sum(self.num.coeffs))  # a constant hashes as its int
        return hash((self.num, self.den))

    def __add__(self, other: RatFunc) -> RatFunc:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: RatFunc) -> RatFunc:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> RatFunc:
        # the negation of a canonical fraction is canonical: skip the gcd
        out = object.__new__(RatFunc)
        object.__setattr__(out, "num", -self.num)
        object.__setattr__(out, "den", self.den)
        return out

    def __mul__(self, other: RatFunc) -> RatFunc:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: RatFunc) -> RatFunc:
        if not isinstance(other, RatFunc):
            return NotImplemented
        if not other:
            raise DivisionByZero("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def evaluate(self, x: int | Fraction) -> Fraction:
        d = self.den.evaluate(x)
        if d == 0:
            raise DivisionByZero(f"denominator vanishes at {x}")
        return Fraction(self.num.evaluate(x), 1) / Fraction(d, 1)

    def __repr__(self) -> str:
        if self.den == ONE:
            return format_poly(self.num)
        return f"({format_poly(self.num)}) / ({format_poly(self.den)})"


RAT_ZERO = RatFunc(ZERO)


# ---------------------------------------------------------------------------
# linear solver


class LinearSystemResult(_Frozen):
    """Outcome of a fraction-free solve.

    When ``consistent``, the certified answer is kept as the elimination
    gives it: ``numerators`` y = d * x, one QPoly per column with free
    columns (listed in ``free_columns``) set to zero, over the one nonzero
    ``denominator`` d; A y = d b holds on every row.  (y, d) is the Bareiss
    pair, d the last pivot, whenever the packing width of the elimination
    holds every entry it meets (``_eliminate``); a square system accepted at
    its first width may instead give lambda * (y, d) for a rational lambda
    with lambda(2^k) = 1, which changes no y_j / d.  ``solution`` reduces
    each y_j / d to a RatFunc when it is first read.  Otherwise
    ``witness_row`` is the input index of an equation that cannot be
    satisfied, and the other fields are None.
    """

    __match_args__ = ("consistent", "numerators", "denominator", "free_columns", "witness_row")

    def __init__(
        self,
        consistent: bool,
        numerators: tuple[QPoly, ...] | None,
        denominator: QPoly | None,
        free_columns: tuple[int, ...],
        witness_row: int | None,
    ) -> None:
        self._set(consistent, numerators, denominator, free_columns, witness_row)

    @cached
    def solution(self) -> tuple[RatFunc, ...] | None:
        """The reduced fractions y_j / d, None for an inconsistent system."""
        if not self.consistent:
            return None
        return _fractions(self.numerators, self.denominator)


def _norm(coeffs: tuple[int, ...]) -> int:
    """The 1-norm, the sum of the absolute coefficients."""
    return sum(map(abs, coeffs))


_coeffs = attrgetter("coeffs")

Row = dict[int, QPoly]
"""A sparse row of a linear system: its nonzero cells, {column: entry}."""


class _PerEntry(dict):
    """``f`` of each distinct coefficient tuple, computed on its first lookup;
    the rows of a toggle system share two entries, so each is read once."""

    def __init__(self, f: Callable[[tuple[int, ...]], int]) -> None:
        super().__init__()
        self.f = f

    def __missing__(self, coeffs: tuple[int, ...]) -> int:
        value = self[coeffs] = self.f(coeffs)
        return value


def solve_linear_system(
    matrix: Sequence[Sequence[QPoly]] | Sequence[Row], rhs: Sequence[QPoly]
) -> LinearSystemResult:
    """Solve ``matrix @ x = rhs`` over Q(q) exactly.

    ``matrix`` is a list of dense rows of equal length.  Inside the package
    it may instead be a list of sparse rows (``Row``), as ``build_system``
    returns them; the columns are then 0 up to the largest one named.
    Dense rows are made sparse here, once, and everything below reads only
    the nonzero cells.

    All rows are eliminated in the given column order (``_eliminate``),
    which gives the witness row of an inconsistent system.  A square system
    is first eliminated at its narrower first width (``_widths``), and that
    answer is taken when it leaves no free column and holds on every row
    (``_violated_row``): the determinant is then nonzero at 2^k, so the
    solution is unique.  Any other system, and a square one whose first
    answer fails, is eliminated at Hadamard's width, and a consistent
    answer from there is certified on every row (``check_solution``).  No
    y_j / d is reduced: a caller that reads ``solution`` pays for the gcds.
    """
    m = len(matrix)
    if len(rhs) != m:
        raise DimensionMismatch(f"{m} rows but {len(rhs)} right-hand sides")
    if m and isinstance(matrix[0], dict):
        rows = matrix
        ncols = max(map(max, filter(None, rows)), default=-1) + 1
    else:
        ncols = len(matrix[0]) if m else 0
        for i, row in enumerate(matrix):
            if len(row) != ncols:
                raise DimensionMismatch(f"row {i} has {len(row)} entries, expected {ncols}")
        rows = [{j: entry for j, entry in enumerate(row) if entry} for row in matrix]
    *first, full = _widths(rows, [rhs], ncols)
    for step in first:
        [(witness, ys)], d, free = _eliminate(rows, [rhs], ncols, step)
        if witness is None and not free and _violated_row(rows, rhs, ys, d) is None:
            return LinearSystemResult(True, tuple(ys), d, (), None)
    [(witness, numerators)], denominator, free = _eliminate(rows, [rhs], ncols, full)
    if witness is not None:
        return LinearSystemResult(False, None, None, (), witness)
    check_solution(rows, rhs, numerators, denominator)
    return LinearSystemResult(True, tuple(numerators), denominator, free, None)


def _widths(matrix: Sequence[Row], rhss: Sequence[Sequence[QPoly]], ncols: int) -> tuple[int, ...]:
    """The packing widths, in bytes, at which to eliminate [A | b_1 ... b_s]:
    Hadamard's width last, and before it, for a square system, the first
    width ``step_above(2 * isqrt(H))``, half of H's bits, when narrower.

    Every Bareiss entry, the last pivot and every back-substituted value is,
    up to sign, a minor of one [A|b_t] of size at most ncols+1.  On |q| = 1
    each entry is at most its 1-norm in absolute value, so by Hadamard's
    inequality the minor is at most the product of its rows' 2-norms of
    entry 1-norms; by Parseval no coefficient of a polynomial exceeds its
    maximum on |q| = 1.  Hence H, with H^2 the product over the ncols+1
    largest rows of sum_j |a_ij|_1^2 + max_t |b_ti|_1^2, bounds every
    coefficient.  With step = step_above(2H), 2^(k-1) > H at k = 8 * step,
    so balanced base-2^k digits cover every coefficient and evaluation at
    2^k is injective on everything the elimination meets.

    The first width is a guess (the answers of toggle systems need a third
    to a quarter of H's bits), so its answer must be certified.  A tall
    system keeps Hadamard's width: its witness rows rest on exact zero tests
    that no certificate covers.
    """
    square = _PerEntry(lambda c: _norm(c) ** 2).__getitem__
    weights = sorted(
        (
            sum(map(square, map(_coeffs, row.values()))) + max(square(b[i].coeffs) for b in rhss)
            for i, row in enumerate(matrix)
        ),
        reverse=True,
    )
    bound = math.isqrt(math.prod(max(v, 1) for v in weights[: ncols + 1]))
    full = step_above(2 * bound)
    first = step_above(2 * math.isqrt(bound))
    return (first, full) if len(matrix) == ncols and first < full else (full,)


def _eliminate(
    matrix: Sequence[Row], rhss: Sequence[Sequence[QPoly]], ncols: int, step: int
) -> tuple[list[tuple[int | None, list[QPoly]]], QPoly, tuple[int, ...]]:
    """Bareiss one-step division (Math. Comp. 22, 1968) on packed entries,
    with every right-hand side b_t of ``rhss`` carried as a column of
    [A | b_1 ... b_s] through the one pass.  Only the sparse rows of
    ``matrix`` are expanded, into dense rows of packed cells.

    Each cell holds the integer P(2^k) of its polynomial P (``kronecker``),
    with k = 8 * ``step`` a whole number of bytes.  The pass is integer
    Bareiss on [A(2^k) | B(2^k)], so every division is exact at any k and
    every cell is a minor of that integer matrix: the value at 2^k of the
    polynomial minor with the same rows and columns.  At Hadamard's width
    (``_widths``) the value determines the minor: an entry is zero exactly
    when its polynomial is, the pivots, free columns and witness rows are
    those of the polynomial elimination, and every value decodes.  At a
    narrower width a nonzero minor can vanish at 2^k, and a value can
    decode to another polynomial with the same value at 2^k.

    A step whose pivot column holds zero in a row only scales that row, by
    piv / prev, and the scalings of consecutive steps telescope.  So such a
    row is left as it is, with ``level`` the divisor of the step that last
    changed it, and is scaled once, by prev / level, when it next has a
    nonzero entry in a pivot column.  Its zero pattern is the same meanwhile,
    so the pivot search and the witness test read it as it is.

    Returns ``(answers, denominator, free_columns)`` with one answer
    ``(witness_row, numerators)`` per right-hand side.  An inconsistent one
    has a witness row and no numerators.  Otherwise, with d the last pivot
    (the denominator) and the free columns set to zero, the
    back-substitution stays fraction-free: it finds y = d * x, a vector of
    Cramer minors of [A|b_t], so every division is exact again and every
    y_j unpacks.  d is nonzero, as its value at 2^k is a pivot.  (y, d) is
    the Bareiss pair whenever 2^(k-1) exceeds every coefficient of every
    entry met, as at Hadamard's width.  No answer is certified here.
    """
    m = len(matrix)
    value = _PerEntry(lambda c: pack(c, step)).__getitem__
    rows = []
    for i, row in enumerate(matrix):
        cells = [0] * ncols
        for j, entry in row.items():
            cells[j] = value(entry.coeffs)
        cells += [value(b[i].coeffs) for b in rhss]
        rows.append(cells)
    origin = list(range(m))
    level = [1] * m
    width = ncols + len(rhss)

    prev = 1
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, m) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        origin[r], origin[pivot_row] = origin[pivot_row], origin[r]
        level[r], level[pivot_row] = level[pivot_row], level[r]
        for i in range(r, m):
            row = rows[i]
            if row[c] and level[i] != prev:
                s = level[i]
                row[c:] = [v * prev // s for v in row[c:]]
                level[i] = prev
        top = rows[r]
        piv = top[c]
        for i in range(r + 1, m):
            row = rows[i]
            f = row[c]
            if f:
                for j in range(c + 1, width):
                    row[j] = (piv * row[j] - f * top[j]) // prev
                row[c] = 0
                level[i] = piv
        pivots.append((r, c))
        prev = piv
        r += 1
        if r == m:
            break

    answers: list[tuple[int | None, list[QPoly]]] = []
    for col in range(ncols, ncols + len(rhss)):
        witness = next((origin[i] for i in range(r, m) if rows[i][col]), None)
        if witness is not None:
            answers.append((witness, []))
            continue
        ys = [0] * ncols
        for pr, pc in reversed(pivots):
            row = rows[pr]
            acc = prev * row[col] - sum(map(mul, row[pc + 1 : ncols], ys[pc + 1 :]))
            ys[pc] = acc // row[pc]
        answers.append((None, [QPoly.of(balanced(y, step)) for y in ys]))
    pivot_cols = {c for _, c in pivots}
    free = tuple(c for c in range(ncols) if c not in pivot_cols)
    return answers, QPoly.of(balanced(prev, step)), free


def _fractions(numerators: Sequence[QPoly], denominator: QPoly) -> tuple[RatFunc, ...]:
    """The reduced fractions y_j / d.  The factor g that d shares with every
    y_j is divided out first: g starts at d and becomes gcd(g, y_j) at each
    y_j it does not divide, so each RatFunc then reduces a smaller pair."""
    common, quotients = denominator, []
    for y in numerators:
        try:
            quotients.append(y.exact_div(common))
        except InexactDivision:
            shared = poly_gcd(common, y)
            cofactor = common.exact_div(shared)
            quotients = [x * cofactor for x in quotients]
            quotients.append(y.exact_div(shared))
            common = shared
    rest = denominator.exact_div(common)
    return tuple(RatFunc(x, rest) for x in quotients)


def _certificate_step(row_norm: int, numerators: Sequence[QPoly], denominator: QPoly) -> int:
    """The packing width, in bytes, at which an answer (y, d) of A y = d b
    is checked row by row, given N = ``row_norm``, a bound on the 1-norm of
    every row of [A|b].

    With Y the largest 1-norm among the y_j and d, no coefficient of a
    row's residual r = sum_j A_ij y_j - d b_i exceeds N*Y in absolute value
    (a product's 1-norm is at most the product of the 1-norms).  By
    Cauchy's root bound every root of a nonzero r is below 1 + N*Y in
    absolute value, so at q = 2^(8*step) > 1 + N*Y (``step_above``) the
    residual is zero exactly when its value is.
    """
    return step_above(1 + row_norm * max(_norm(y.coeffs) for y in (*numerators, denominator)))


def check_solution(
    matrix: Sequence[Row],
    rhs: Sequence[QPoly],
    numerators: Sequence[QPoly],
    denominator: QPoly,
) -> None:
    """Raise ResidualMismatch unless ``matrix @ numerators == denominator * rhs``
    (``_violated_row``)."""
    i = _violated_row(matrix, rhs, numerators, denominator)
    if i is not None:
        raise ResidualMismatch(f"solution violates equation {i}")


def _violated_row(
    matrix: Sequence[Row],
    rhs: Sequence[QPoly],
    numerators: Sequence[QPoly],
    denominator: QPoly,
) -> int | None:
    """The first row i with ``matrix[i] @ numerators != denominator * rhs[i]``,
    None when every row holds.

    No row of [A|b] has a 1-norm above N = (the most cells in a row) * (the
    largest entry 1-norm) + (the largest 1-norm in b), so at the width of
    ``_certificate_step`` each row's residual is zero exactly when its
    value is, and each row is compared as one integer.
    The rows are sparse (``Row``), so only nonzero cells are read.  The
    product of an entry's value with y_j is computed once per distinct
    entry of column j, and d times b_i once per distinct b_i, so a row
    costs only additions and one comparison.
    """
    entries = set(map(_coeffs, chain.from_iterable(map(dict.values, matrix))))
    entry_norm = max(map(_norm, entries), default=0)
    b_norm = max(map(_norm, set(map(_coeffs, rhs))), default=0)
    row_norm = max(map(len, matrix), default=0) * entry_norm + b_norm
    step = _certificate_step(row_norm, numerators, denominator)
    value = _PerEntry(lambda c: pack(c, step)).__getitem__
    d = pack(denominator.coeffs, step)
    ys = [pack(y.coeffs, step) for y in numerators]
    products = [_PerEntry(lambda c, y=y: value(c) * y).__getitem__ for y in ys]
    targets = _PerEntry(lambda c: d * value(c)).__getitem__
    for i, (row, target) in enumerate(zip(matrix, rhs)):
        if sum([products[j](entry.coeffs) for j, entry in row.items()]) != targets(target.coeffs):
            return i
    return None


# ---------------------------------------------------------------------------
# text format


def _power(var: str, e: int) -> list[str]:
    return [] if e == 0 else [var] if e == 1 else [f"{var}^{e}"]


def _signed_join(terms: Iterable[tuple[int, list[str]]]) -> str:
    """Join ``(coeff, factors)`` terms as ``a + b - c``; ``"0"`` when empty."""
    pieces = []
    for c, factors in terms:
        if abs(c) != 1 or not factors:
            factors = [str(abs(c)), *factors]
        sign = (" - " if c < 0 else " + ") if pieces else ("-" if c < 0 else "")
        pieces.append(sign + "*".join(factors))
    return "".join(pieces) or "0"


def format_poly(p: QPoly) -> str:
    """Render in the documented text format, e.g. ``1 + 2*q + q^2``."""
    return _signed_join((c, _power("q", e)) for e, c in enumerate(p.coeffs) if c)


_TERM_RE = re.compile(
    r"(?P<coeff>\d+)?\s*\*?\s*(?:(?P<q>q)(?:\^(?P<qe>\d+))?)?"
    r"\s*\*?\s*(?:(?P<t>t)(?:\^(?P<te>\d+))?)?$"
)


def _parse_terms(text: str) -> Iterator[tuple[int, int, int]]:
    """Yield (coeff, q_exp, t_exp) for each term of a polynomial string."""
    s = text.replace("**", "^").strip()
    if not s:
        raise ValueError("empty polynomial string")
    tokens = re.findall(r"[+-]|[^+\-\s]+(?:\s*[^+\-\s]+)*", s)
    sign = 1
    expect_term = True
    seen = False
    for tok in tokens:
        if tok in "+-":
            if expect_term and tok == "-":
                sign = -sign
                continue
            if expect_term:
                raise ValueError(f"misplaced {tok!r} in {text!r}")
            sign = -1 if tok == "-" else 1
            expect_term = True
            continue
        if not expect_term:
            raise ValueError(f"missing operator before {tok!r} in {text!r}")
        m = _TERM_RE.match(tok.replace(" ", ""))
        if not m or (m.group("coeff") is None and m.group("q") is None and m.group("t") is None):
            raise ValueError(f"cannot parse term {tok!r} in {text!r}")
        coeff = int(m.group("coeff")) if m.group("coeff") else 1
        qe = (int(m.group("qe")) if m.group("qe") else 1) if m.group("q") else 0
        te = (int(m.group("te")) if m.group("te") else 1) if m.group("t") else 0
        yield sign * coeff, qe, te
        sign = 1
        expect_term = False
        seen = True
    if expect_term or not seen:
        raise ValueError(f"dangling operator in {text!r}")


def parse_poly(text: str) -> QPoly:
    """Parse the text format of a q-polynomial."""
    acc: dict[int, int] = {}
    for coeff, qe, te in _parse_terms(text):
        if te:
            raise ValueError(f"unexpected t in q-polynomial {text!r}")
        acc[qe] = acc.get(qe, 0) + coeff
    return _from_map(acc)


def format_qt_poly(p: QTPoly) -> str:
    """Render a (q, t)-polynomial, e.g. ``q + 2*q*t + t^2``."""
    return _signed_join((c, _power("q", qe) + _power("t", te)) for qe, te, c in p.terms)


def parse_qt_poly(text: str) -> QTPoly:
    """Parse the text format of a (q, t)-polynomial."""
    acc: dict[tuple[int, int], int] = {}
    for coeff, qe, te in _parse_terms(text):
        acc[(qe, te)] = acc.get((qe, te), 0) + coeff
    return QTPoly.of(acc)


def coeff_vector(p: QPoly) -> list[int]:
    """Machine-readable coefficient vector, index = exponent."""
    return list(p.coeffs)


def qt_coeff_vector(p: QTPoly) -> list[list[int]]:
    """Machine-readable [q_exp, t_exp, coeff] triples, sorted by (t, q)."""
    return [[qe, te, c] for qe, te, c in p.terms]
