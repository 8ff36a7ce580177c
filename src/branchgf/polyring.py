"""Exact univariate polynomial and rational-function arithmetic over the integers.

Polynomials are immutable coefficient tuples (index n holds the coefficient
of t^n, arbitrary-precision ints, no trailing zeros).  Rational functions
are kept in a canonical reduced form: the polynomial gcd and the common
integer content of numerator and denominator are divided out, and the
denominator has a positive constant term.  Every generating function
produced by the tree engine has denominator constant term exactly 1; the
slightly weaker "positive" normalization is needed so that scalar
multiples such as 1/(6*(1 - 6*t)) remain representable over the integers.

The one gcd, poly_gcd, is GCDHEU (Char, Geddes & Gonnet 1989): one integer
gcd of the two primitive parts evaluated at a large integer, read back as
a polynomial and accepted only when it divides both, which makes it exact.
When a few evaluation points all fail that test, the primitive PRS decides.

The module also provides the resolvent computation: the first column of
(I - B*t)^-1 for a non-negative integer matrix B, obtained by block forward
substitution over the strongly connected components of B's class graph
(Tarjan 1972), parents first.  Each component C of k classes is solved
once, by Kronecker substitution: one fraction-free (Bareiss 1968) integer
elimination of I - xi*C at the point xi = 2^b > 2B, where B, the product
over C's rows of 1 + the row's sum, bounds the coefficients of every minor
of I - C*t.  The determinant and the adjugate columns it needs are read
back from their values at xi as symmetric xi-adic digits, the same reading
GCDHEU uses; a one-class component needs no elimination.  No code
eliminates on a matrix of polynomials.  The right-hand side is built from
the reduced gfs of the classes that feed the component, over the lcm of
their denominators; that lcm times the component's determinant is the
denominator of its entries, and the component writes no other entry.
There is no shared denominator to cancel again.  One lcm rule, _lcm,
serves the resolvent and ratfun_sum.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress, count
from typing import Iterable, Sequence

from .errors import (
    NonIntegerCoefficientError,
    NonUnitConstantTermError,
    ZeroDenominatorError,
)

__all__ = [
    "Poly",
    "RatFun",
    "ratfun_sum",
    "geometric_factors",
    "resolvent_column",
    "bareiss_det",
]


class Poly:
    """Integer polynomial in one formal variable t, canonical dense form."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- basic structure -------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, n: int) -> int:
        """Coefficient of t^n (0 beyond the stored length)."""
        if 0 <= n < len(self.coeffs):
            return self.coeffs[n]
        return 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __call__(self, x):
        """Evaluate by Horner's rule; exact for int or Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- ring arithmetic --------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Poly(out)

    def scale(self, k: int) -> "Poly":
        return Poly([k * c for c in self.coeffs])

    # -- content / gcd ----------------------------------------------------

    def content(self) -> int:
        """Non-negative gcd of the coefficients (0 for the zero polynomial)."""
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive_part(self) -> "Poly":
        """Divide out the content; sign fixed so the leading coefficient is positive."""
        if self.is_zero:
            return self
        c = self.content()
        if self.coeffs[-1] < 0:
            c = -c
        return Poly([x // c for x in self.coeffs])

    def divexact(self, other: "Poly") -> "Poly":
        """Exact polynomial division; raises if other does not divide self."""
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return Poly()
        rem = list(self.coeffs)
        d = other.coeffs
        lead = d[-1]
        n, m = len(rem), len(d)
        if n < m:
            raise ValueError("not an exact polynomial division")
        quot = [0] * (n - m + 1)
        for i in range(n - m, -1, -1):
            q, r = divmod(rem[i + m - 1], lead)
            if r:
                raise ValueError("not an exact polynomial division")
            quot[i] = q
            if q:
                for j in range(m):
                    rem[i + j] -= q * d[j]
        if any(rem):
            raise ValueError("not an exact polynomial division")
        return Poly(quot)

    # -- display ----------------------------------------------------------

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return poly_str(self)


ZERO = Poly()
ONE = Poly([1])
T = Poly([0, 1])


def poly_str(p: Poly) -> str:
    """Render like "1 - 3*t + t^2" (ascending powers)."""
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for n, c in enumerate(p.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if n == 0:
            body = str(mag)
        elif n == 1:
            body = "t" if mag == 1 else f"{mag}*t"
        else:
            body = f"t^{n}" if mag == 1 else f"{mag}*t^{n}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def _pseudo_rem(a: Poly, b: Poly) -> Poly:
    # Scaled remainder of a modulo b (a power of lc(b) times the true
    # remainder); stays in Z[t].  The gcd loop re-primitivizes anyway, so
    # the exact scale factor is irrelevant.
    db = b.degree
    lead = b.coeffs[-1]
    rem = a
    while not rem.is_zero and rem.degree >= db:
        k = rem.degree - db
        rem = rem.scale(lead) - (b * Poly([0] * k + [rem.coeffs[-1]]))
    return rem


def _prs_gcd(x: Poly, y: Poly) -> Poly:
    """Gcd of two primitive polynomials by the primitive PRS (up to sign)."""
    while not y.is_zero:
        x, y = y, _pseudo_rem(x, y).primitive_part()
    return x


# GCDHEU evaluation points tried before poly_gcd falls back to the PRS.
_HEU_TRIES = 6


def _heu_gcd(x: Poly, y: Poly) -> Poly | None:
    """Gcd of two primitive polynomials of positive degree by GCDHEU (Char,
    Geddes & Gonnet 1989), or None when no evaluation point succeeds.

    The integer gcd of x(xi) and y(xi), xi >= 2*min(max norms) + 2, is read
    back as symmetric xi-adic digits.  Its primitive part is the gcd if and
    only if it divides x and y: the content of the digits is at most xi/2,
    and every factor of positive degree of the smaller-norm side exceeds
    xi/2 in absolute value at xi.  After a failed test xi grows.
    """
    xi = 2 * min(max(map(abs, x.coeffs)), max(map(abs, y.coeffs))) + 2
    for _ in range(_HEU_TRIES):
        g = _from_digits(math.gcd(x(xi), y(xi)), xi).primitive_part()
        if _divides(g, x) and _divides(g, y):
            return g
        xi = xi * 73794 // 27011
    return None


def _from_digits(h: int, xi: int) -> Poly:
    """The polynomial whose value at xi is h, read as symmetric xi-adic digits
    (a digit above xi/2 becomes digit - xi); exact when every coefficient is
    smaller than xi/2 in absolute value."""
    digits = []
    while h:
        h, d = divmod(h, xi)
        if d > xi // 2:
            d -= xi
            h += 1
        digits.append(d)
    return Poly(digits)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Gcd in Z[t] including the integer content.

    The primitive parts go to GCDHEU (heuristic gcd by evaluation at one
    large integer), whose answer is accepted only when it divides both; if
    no evaluation point passes that test, the primitive PRS decides.
    The unit ambiguity is fixed by making the lowest-order nonzero
    coefficient positive, matching the denominator normalization used by
    RatFun.
    """
    if a.is_zero and b.is_zero:
        return ZERO
    if a.is_zero:
        a, b = b, a
    if b.is_zero:
        g = a.primitive_part().scale(a.content())
    else:
        c = math.gcd(a.content(), b.content())
        if a.degree == 0 or b.degree == 0:
            return Poly([c])
        x, y = a.primitive_part(), b.primitive_part()
        g = (_heu_gcd(x, y) or _prs_gcd(x, y)).scale(c)
    low = next(cf for cf in g.coeffs if cf)
    return g if low > 0 else -g


def one_minus(k: int) -> Poly:
    """The polynomial 1 - k*t."""
    return Poly([1, -k])


def poly_product(factors: Iterable[Poly]) -> Poly:
    result = ONE
    for f in factors:
        result = result * f
    return result


def geometric_factors(p: Poly) -> tuple[int, list[tuple[int, int]], Poly]:
    """Best-effort factorization p = c * prod (1 - k*t)^e * rest.

    Returns (c, [(k, e), ...], rest) with the k ascending.  Used for display
    only; rest is whatever does not split into such factors.  (1 - k*t)
    divides p exactly when k is a root of the reversed polynomial, so the
    k are its integer roots, each divided out as often as it divides.
    """
    if p.is_zero:
        return 0, [], ONE
    c = p.content()
    if p.coeffs[0] < 0:
        c = -c
    rest = Poly([x // c for x in p.coeffs])
    found = []
    for k in _integer_roots(Poly(reversed(rest.coeffs))):
        e = 0
        while _divides(one_minus(k), rest):
            rest, e = rest.divexact(one_minus(k)), e + 1
        found.append((k, e))
    return c, found, rest


def _integer_roots(r: Poly) -> list[int]:
    """The integer roots of r, r(0) != 0, ascending, by p-adic lifting (R. Loos,
    SIAM J. Comput. 12, 1983).  The squarefree part s of r has the same roots,
    all simple.  At the least prime l at which the roots of s mod l are simple,
    Newton's step lifts each to the one root of s mod l^(2^i) above it; an
    integer root divides s(0), so past 2|s(0)| only the symmetric residue can be.
    """
    s = r.divexact(poly_gcd(r, _derivative(r)))
    ds = _derivative(s)
    for l in (n for n in count(2) if all(n % d for d in range(2, math.isqrt(n) + 1))):
        s_l, ds_l = ([c % l for c in reversed(f.coeffs)] for f in (s, ds))
        roots = [x for x in range(l) if _value_mod(s_l, x, l) == 0]
        if all(_value_mod(ds_l, x, l) for x in roots):
            break
    modulus = l
    while modulus <= 2 * abs(s.coeffs[0]):
        modulus *= modulus
        roots = [(x - s(x) * pow(ds(x), -1, modulus)) % modulus for x in roots]
    candidates = (x - modulus if 2 * x > modulus else x for x in roots)
    return sorted(k for k in candidates if s(k) == 0)


def _value_mod(coeffs: list[int], x: int, l: int) -> int:
    """coeffs (in [0, l), highest first) at x mod l, by Horner's rule below l^2."""
    acc = 0
    for c in coeffs:
        acc = (acc * x + c) % l
    return acc


def _derivative(p: Poly) -> Poly:
    return Poly([i * c for i, c in enumerate(p.coeffs)][1:])


class RatFun:
    """Reduced quotient of integer polynomials with den(0) > 0.

    Construction normalizes: polynomial gcd and common integer content are
    removed and the sign is fixed so that the denominator's constant term
    is positive.  A zero constant term in the denominator is rejected
    because such a quotient has no power-series expansion.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = ONE):
        if den.is_zero:
            raise ZeroDenominatorError("zero denominator")
        if den[0] == 0:
            raise NonUnitConstantTermError(
                "denominator constant term is 0; no power series exists"
            )
        if num.is_zero:
            num, den = ZERO, ONE
        else:
            g = poly_gcd(num, den)
            if g != ONE:
                num = num.divexact(g)
                den = den.divexact(g)
            if den[0] < 0:
                num, den = -num, -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFun is immutable")

    # -- field arithmetic -------------------------------------------------

    def __add__(self, other: "RatFun") -> "RatFun":
        return RatFun(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RatFun") -> "RatFun":
        return RatFun(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other: "RatFun") -> "RatFun":
        return RatFun(self.num * other.num, self.den * other.den)

    def __neg__(self) -> "RatFun":
        return RatFun(-self.num, self.den)

    def __eq__(self, other) -> bool:
        # Canonical form makes structural equality the same as cross
        # multiplication.
        return isinstance(other, RatFun) and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    # -- series -----------------------------------------------------------

    def series(self, n_max: int) -> list[int]:
        """Coefficients c_0..c_n_max of the power-series expansion.

        Computed from the linear recurrence the denominator imposes, each
        step an exact division by den(0).  Raises NonIntegerCoefficientError
        if the expansion leaves the integers (possible only when den(0) != 1).
        """
        if n_max < 0:
            return []
        num, den = self.num.coeffs, self.den.coeffs
        d0 = den[0]
        out: list[int] = []
        for k in range(n_max + 1):
            c = num[k] if k < len(num) else 0
            for i in range(1, min(k, len(den) - 1) + 1):
                c -= den[i] * out[k - i]
            quotient, remainder = divmod(c, d0)
            if remainder:
                raise NonIntegerCoefficientError(
                    f"coefficient of t^{k} is the non-integer {Fraction(c, d0)}"
                )
            out.append(quotient)
        return out

    # -- display ----------------------------------------------------------

    def __repr__(self) -> str:
        return f"RatFun({self.num!r}, {self.den!r})"

    def __str__(self) -> str:
        num_s = poly_str(self.num)
        if sum(1 for c in self.num.coeffs if c) > 1:
            num_s = f"({num_s})"
        if self.den == ONE:
            return num_s
        c, factors, rest = geometric_factors(self.den)
        if factors and rest == ONE:
            pieces = [f"({poly_str(one_minus(k))})" + (f"^{e}" if e > 1 else "")
                      for k, e in factors]
            if c != 1:
                pieces.insert(0, str(c))
            if len(pieces) == 1 and factors[0][1] == 1:
                return f"{num_s}/{pieces[0]}"
            return f"{num_s}/({'*'.join(pieces)})"
        return f"{num_s}/({poly_str(self.den)})"


def ratfun_sum(terms: Iterable[RatFun]) -> RatFun:
    """Sum by balanced pairwise merging, reduced once: each pair of halves is
    added over the lcm of its two denominators (over their one denominator
    when they share it) and left unreduced, so every cofactor divides an
    lcm by a denominator of about half its degree."""
    terms = list(terms)

    def merged(lo: int, hi: int) -> tuple[Poly, Poly]:
        if hi - lo == 1:
            return terms[lo].num, terms[lo].den
        mid = (lo + hi) // 2
        (num1, den1), (num2, den2) = merged(lo, mid), merged(mid, hi)
        if den1 == den2:
            return num1 + num2, den1
        den = _lcm((den1, den2))
        return num1 * den.divexact(den1) + num2 * den.divexact(den2), den

    return RatFun(*merged(0, len(terms))) if terms else RatFun(ZERO)


def _lcm(polys: Iterable[Poly]) -> Poly:
    """Lcm of polynomials with positive constant terms; poly_gcd runs only for
    one that neither divides the lcm so far nor is its multiple."""
    out = ONE
    for p in polys:
        if not _divides(p, out):
            out = p if _divides(out, p) else out * p.divexact(poly_gcd(out, p))
    return out


def _divides(d: Poly, p: Poly) -> bool:
    """Whether p = d * e for an integer polynomial e.  A constant d, a p of
    lower degree, and leading or (when d(0) != 0) constant coefficients that
    d's do not divide are answered without dividing; a zero d raises."""
    dc, pc = d.coeffs, p.coeffs
    if not dc:
        raise ZeroDivisionError("division by the zero polynomial")
    if len(dc) == 1:
        return all(c % dc[0] == 0 for c in pc)
    if not pc:
        return True
    if len(pc) < len(dc) or pc[-1] % dc[-1] or (dc[0] and pc[0] % dc[0]):
        return False
    try:
        p.divexact(d)
    except ValueError:
        return False
    return True


# -- resolvent of I - B*t -------------------------------------------------


def _bareiss_eliminate(a: list[list[int]], n: int) -> int:
    """Fraction-free (Bareiss 1968) forward elimination of the first n
    columns of the n integer rows of a, in place, carrying any further
    columns along; every division is exact.  Returns the sign of the row
    permutation, or 0 when the n x n part is singular."""
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row, pivot = a[k], a[k][k]
        for row in a[k + 1:n]:
            m = row[k]
            for j in range(k + 1, len(row)):
                row[j] = (pivot * row[j] - m * pivot_row[j]) // prev
            row[k] = 0
        prev = pivot
    return sign


def _point_above(bound: int) -> int:
    """The least power of two above 2 * bound: symmetric digits at it read
    back any polynomial whose coefficients are at most bound in absolute value."""
    return 1 << (2 * bound).bit_length()


def bareiss_det(mat: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a square polynomial matrix by Kronecker substitution.

    B, the product over the rows of the sum of the absolute values of each
    row's coefficients, bounds the determinant's coefficients.  The entries
    are evaluated at xi = 2^b > 2B, one fraction-free integer elimination
    gives det(mat)(xi), and its symmetric xi-adic digits are det(mat).
    """
    n = len(mat)
    if n == 0:
        return ONE
    if any(len(row) != n for row in mat):
        raise ValueError("matrix must be square")
    xi = _point_above(math.prod(sum(abs(c) for p in row for c in p.coeffs) for row in mat))
    a = [[p(xi) for p in row] for row in mat]
    sign = _bareiss_eliminate(a, n)
    return _from_digits(sign * a[n - 1][n - 1], xi)


def _solve_block(c: list[list[int]], rhs: list[Poly]) -> tuple[Poly, list[Poly]]:
    """det(I - C*t) and the numerators det * x_r of (I - C*t) x = rhs.

    det * x_r = sum over f of adj[r][f] * rhs_f.  Every minor of I - C*t has
    coefficients whose absolute values sum to at most B, the product over
    the rows of 1 + the row's sum, so one integer elimination of
    [I - xi*C | e_f for each f with rhs_f != 0] at xi = 2^b > 2B, and
    back-substitution with exact division, give det and those adjugate
    columns at xi, read back as symmetric xi-adic digits.  Each leading
    minor at xi is 1 mod xi, so no pivot is zero.  A one-class block is the
    k = 1 case and needs no elimination: det = 1 - c*t, and x_0 * det = rhs.
    """
    k = len(c)
    if k == 1:
        return Poly([1, -c[0][0]]), rhs
    xi = _point_above(math.prod(1 + sum(row) for row in c))
    fed = [f for f in range(k) if rhs[f]]
    a = [[int(i == j) - xi * x for j, x in enumerate(row)] + [int(i == f) for f in fed]
         for i, row in enumerate(c)]
    _bareiss_eliminate(a, k)
    det = a[k - 1][k - 1]
    adj = [None] * (k - 1) + [a[k - 1][k:]]  # adj[r][e] = adj(I - xi*C)[r][fed[e]]
    for r in range(k - 2, -1, -1):
        row = a[r]
        adj[r] = [(det * row[k + e] - sum(row[j] * adj[j][e] for j in range(r + 1, k)))
                  // row[r] for e in range(len(fed))]
    nums = [sum((_from_digits(x, xi) * rhs[f] for x, f in zip(adj_r, fed)), ZERO)
            for adj_r in adj]
    return _from_digits(det, xi), nums


def _components_from(root: int, succ: Sequence[Sequence[int]]) -> list[list[int]]:
    """Strongly connected components reachable from root, parents first: Tarjan
    (1972) with an explicit stack, so long chains cannot hit the recursion limit."""
    n = len(succ)
    index, low, stack, components = [-1] * n, [0] * n, [root], []
    index[root], count, work = 0, 1, [(root, iter(succ[root]))]
    while work:
        v, edges = work[-1]
        for w in edges:
            if index[w] < 0:
                index[w] = low[w] = count
                count += 1
                stack.append(w)
                work.append((w, iter(succ[w])))
                break
            low[v] = min(low[v], index[w])  # index n once w's component is done
        else:
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
            if low[v] == index[v]:
                component = [stack.pop()]
                while component[-1] != v:
                    component.append(stack.pop())
                for w in component:
                    index[w] = n
                components.append(sorted(component))
    return components[::-1]


def resolvent_column(b: Sequence[Sequence[int]]) -> list[RatFun]:
    """First column of (I - B*t)^-1 as exact rational functions.

    Block forward substitution over the strongly connected components of
    the class graph (edge j -> i when b[i][j] != 0) that the root reaches,
    parents first; unreached classes get 0.  Each component is solved once,
    on the reduced gfs of the classes that feed it, and writes only its own
    entries; there is no shared denominator.  With den the lcm of those
    gfs' denominators (1 at the root's component), row i has right-hand
    side [i == 0] + t * sum b[i][j] * num_j * (den / den_j).  One integer
    solve at the point t = 2^b (_solve_block) gives det and det * x_i, so
    class i's gf is det * x_i / (den * det), reduced.  The column is
    checked against six steps of the integer iteration B^n e_1, an
    independent identity that must hold for any correct inverse.
    """
    n = len(b)
    if any(len(row) != n for row in b):
        raise ValueError("branching matrix must be square")
    if any(min(row) < 0 for row in b):
        raise ValueError("branching matrix entries must be non-negative")
    preds = [list(compress(range(n), row)) for row in b]  # the j with b[i][j] != 0
    succ = [list(compress(range(n), column)) for column in zip(*b)]
    column = [RatFun(ZERO)] * n
    for block in _components_from(0, succ) if n else ():
        # The block's own entries, like those of unreached classes, are still
        # 0 and add nothing here, and den is 1 in the root's block, the first.
        den = _lcm(column[j].den for i in block for j in preds[i])
        rhs = []
        for i in block:
            acc = sum((column[j].num.scale(b[i][j]) * den.divexact(column[j].den)
                       for j in preds[i] if not column[j].is_zero), ZERO)
            rhs.append(Poly([int(i == 0), *acc.coeffs]))
        det, nums = _solve_block([[b[i][j] for j in block] for i in block], rhs)
        den = den * det
        for i, x in zip(block, nums):
            column[i] = RatFun(x, den)
    _check_against_iteration(b, preds, column)
    return column


# Steps of B^n e_1 every resolvent column is checked against.
_CHECK_STEPS = 6


def _check_against_iteration(
    b: Sequence[Sequence[int]], preds: Sequence[Sequence[int]], column: Sequence[RatFun]
) -> None:
    series = [entry.series(_CHECK_STEPS) for entry in column]
    v = [1] + [0] * (len(b) - 1)
    for step in range(_CHECK_STEPS + 1):
        for i, row in enumerate(series):
            if row[step] != v[i]:
                raise ArithmeticError(
                    "resolvent column disagrees with the matrix-power iteration "
                    f"at coordinate {i}, step {step}"
                )
        v = [sum(b[i][j] * v[j] for j in js) for i, js in enumerate(preds)]
