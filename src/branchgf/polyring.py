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
(Tarjan 1972).  Fraction-free (Bareiss 1968) elimination runs only inside
cyclic components, one solve each, so all arithmetic stays in Z[t].
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress
from typing import Iterable, Iterator, Sequence

from .errors import (
    NonIntegerCoefficientError,
    NonUnitConstantTermError,
    ZeroDenominatorError,
)

__all__ = [
    "Poly",
    "RatFun",
    "ratfun_eq",
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

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = ONE
        for _ in range(n):
            result = result * self
        return result

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


def poly_str(p: Poly, var: str = "t") -> str:
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
            body = var if mag == 1 else f"{mag}*{var}"
        else:
            body = f"{var}^{n}" if mag == 1 else f"{mag}*{var}^{n}"
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
        h = math.gcd(x(xi), y(xi))
        digits = []
        while h:
            h, d = divmod(h, xi)
            if d > xi // 2:
                d -= xi
                h += 1
            digits.append(d)
        g = Poly(digits).primitive_part()
        if _divides(g, x) and _divides(g, y):
            return g
        xi = xi * 73794 // 27011
    return None


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
    only; rest is whatever does not split into such factors.  The k are
    tried in ascending |k|, k before -k, and only those dividing the
    leading coefficient; (1 - k*t) divides p only if k is a root of the
    reversed polynomial, so each search also stops at a bound on those roots.
    """
    if p.is_zero:
        return 0, [], ONE
    c = p.content()
    if p.coeffs[0] < 0:
        c = -c
    rest = Poly([x // c for x in p.coeffs])
    found: dict[int, int] = {}
    while rest.degree >= 1:
        hit = _least_linear_factor(rest)
        if hit is None:
            break
        k, rest = hit
        found[k] = found.get(k, 0) + 1
    return c, sorted(found.items()), rest


def _least_linear_factor(p: Poly) -> tuple[int, Poly] | None:
    """(k, p / (1 - k*t)) for the least |k| that divides, k before -k; else None.

    k divides the leading coefficient, and a divisor above its isqrt is the
    cofactor of one below it, so a scan costs min(isqrt(lead), bound) trial
    divisions and stops at the first k found.
    """
    lead, bound = abs(p.coeffs[-1]), _reversed_root_bound(p.coeffs)

    def candidates() -> Iterator[int]:
        large = []
        for d in range(1, min(math.isqrt(lead), bound) + 1):
            if lead % d == 0:
                yield d
                if lead // d <= bound:
                    large.append(lead // d)
        yield from reversed(large)

    for k in candidates():
        for cand in (k, -k):
            try:
                return cand, p.divexact(one_minus(cand))
            except ValueError:
                pass
    return None


def _reversed_root_bound(coeffs: Sequence[int]) -> int:
    """A bound on |k| over the nonzero roots k of the reversed polynomial.

    Fujiwara's bound 2 * max_i |c_i / c_0|^(1/i), with c_0 the lowest
    nonzero coefficient and each |c_i / c_0|^(1/i) rounded up to a power
    of two.
    """
    low = next(i for i, x in enumerate(coeffs) if x)
    c0 = abs(coeffs[low])
    bound = 1
    for i, x in enumerate(coeffs[low + 1 :], 1):
        ratio = -(-abs(x) // c0)  # ceil(|c_i / c_0|) < 2**bit_length
        bound = max(bound, 1 << -(-ratio.bit_length() // i))
    return 2 * bound


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

    @classmethod
    def from_int(cls, n: int) -> "RatFun":
        return cls(Poly([n]))

    @classmethod
    def from_fraction(cls, q: Fraction) -> "RatFun":
        return cls(Poly([q.numerator]), Poly([q.denominator]))

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
        # multiplication; ratfun_eq exists for unreduced comparisons.
        return isinstance(other, RatFun) and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    # -- series -----------------------------------------------------------

    def series(self, n_max: int) -> list[int]:
        """Coefficients c_0..c_n_max of the power-series expansion.

        Computed from the linear recurrence the denominator imposes.  Raises
        NonIntegerCoefficientError if the expansion leaves the integers
        (possible only when den(0) != 1).
        """
        if n_max < 0:
            return []
        num, den = self.num, self.den
        d0 = den[0]
        out: list[int] = []
        if d0 == 1:
            for k in range(n_max + 1):
                c = num[k]
                for i in range(1, min(k, den.degree) + 1):
                    c -= den[i] * out[k - i]
                out.append(c)
            return out
        acc: list[Fraction] = []
        for k in range(n_max + 1):
            c = Fraction(num[k])
            for i in range(1, min(k, den.degree) + 1):
                c -= den[i] * acc[k - i]
            c /= d0
            if c.denominator != 1:
                raise NonIntegerCoefficientError(
                    f"coefficient of t^{k} is the non-integer {c}"
                )
            acc.append(c)
        return [int(c) for c in acc]

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


def ratfun_eq(a: RatFun, b: RatFun) -> bool:
    """Equality by cross multiplication (robust to unreduced inputs)."""
    return a.num * b.den == b.num * a.den


def ratfun_sum(terms: Iterable[RatFun]) -> RatFun:
    """Sum over the lcm of the denominators, reduced once; poly_gcd runs only
    for a denominator that neither divides the lcm so far nor is its multiple."""
    terms = list(terms)
    den = ONE
    for term in terms:
        if not _divides(term.den, den):
            den = (term.den if _divides(den, term.den)
                   else den * term.den.divexact(poly_gcd(den, term.den)))
    return RatFun(sum((x.num * den.divexact(x.den) for x in terms), ZERO), den)


def _divides(d: Poly, p: Poly) -> bool:
    try:
        p.divexact(d)
    except ValueError:
        return False
    return True


# -- resolvent of I - B*t -------------------------------------------------


def _bareiss_eliminate(a: list[list[Poly]], n: int) -> int:
    """Fraction-free forward elimination of the first n columns of the n
    rows of a, in place, carrying any further columns along.  Returns the
    sign of the row permutation, or 0 when the n x n part is singular."""
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if a[k][k].is_zero:
            for r in range(k + 1, n):
                if not a[r][k].is_zero:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, len(a[i])):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]).divexact(prev)
            a[i][k] = ZERO
        prev = a[k][k]
    return sign


def bareiss_det(mat: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a square polynomial matrix by fraction-free elimination.

    All divisions in the Bareiss recurrence are exact over Z[t], so no
    fractions ever appear.
    """
    n = len(mat)
    if n == 0:
        return ONE
    a = [list(row) for row in mat]
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    sign = _bareiss_eliminate(a, n)
    return a[n - 1][n - 1].scale(sign)


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


def resolvent_column(
    b: Sequence[Sequence[int]], n_check: int = 6
) -> list[RatFun]:
    """First column of (I - B*t)^-1 as exact rational functions.

    Block forward substitution over the strongly connected components of
    the class graph (edge j -> i when b[i][j] != 0) that the root reaches,
    parents first; unreached classes get 0.  Entries are N_i / D, D the
    product of the component determinants so far (constant term 1).  Row i
    of a component has right-hand side [i == 0] + t * sum b[i][j]*N_j over
    j outside it (D = 1 at the root's, the first), and its determinant
    multiplies D and the earlier N_j.  When n_check > 0 the result is
    verified against n_check steps of the integer iteration B^n e_1, an
    independent identity that must hold for any correct inverse.
    """
    n = len(b)
    if any(len(row) != n for row in b):
        raise ValueError("branching matrix must be square")
    if any(min(row) < 0 for row in b):
        raise ValueError("branching matrix entries must be non-negative")
    preds = [list(compress(range(n), row)) for row in b]  # the j with b[i][j] != 0
    succ = [list(compress(range(n), column)) for column in zip(*b)]
    nums, den = [ZERO] * n, ONE
    for block in _components_from(0, succ) if n else ():
        a = []
        for i in block:  # the block's own N_j are still 0
            acc = sum((nums[j].scale(b[i][j]) for j in preds[i]), ZERO)
            a.append([Poly([int(i == c), -b[i][c]]) for c in block])
            a[-1].append(Poly([int(i == 0), *acc.coeffs]))
        # One fraction-free solve; leading minors of I - B*t have constant
        # term 1, so no pivot is zero and a one-class block needs no step.
        k = len(block)
        _bareiss_eliminate(a, k)
        det = a[k - 1][k - 1]
        if det != ONE:
            nums = [x * det if x else x for x in nums]
            den = den * det
        nums[block[-1]] = a[k - 1][k]
        for r in range(k - 2, -1, -1):  # det * x is in Z[t] by Cramer's rule
            acc = sum((a[r][c] * nums[block[c]] for c in range(r + 1, k)), ZERO)
            nums[block[r]] = (det * a[r][k] - acc).divexact(a[r][r])
    column = [RatFun(x, den) for x in nums]
    if n_check > 0:
        _check_against_iteration(b, column, n_check)
    return column


def _check_against_iteration(
    b: Sequence[Sequence[int]], column: Sequence[RatFun], depth: int
) -> None:
    n = len(b)
    series = [entry.series(depth) for entry in column]
    v = [1] + [0] * (n - 1)
    for step in range(depth + 1):
        for i in range(n):
            if series[i][step] != v[i]:
                raise ArithmeticError(
                    "resolvent column disagrees with the matrix-power iteration "
                    f"at coordinate {i}, step {step}"
                )
        v = [sum(b[i][j] * v[j] for j in range(n)) for i in range(n)]
