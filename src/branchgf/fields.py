"""Finite fields F_q and linear algebra over them.

Fq reads its tables off schoolbook arithmetic in F_p[t]/(f): addition adds
base-p digits without carry, and multiplication adds discrete logarithms to
the base of a generator of the nonzero residues.  Span keeps a subspace of
F_q^n in reduced row echelon form, and its basis names the subspace.
span_values lists a span in coefficient order, so a linear map is evaluated
on a whole space from its basis images with one vector addition per element.
"""

from __future__ import annotations

import itertools
import operator
from functools import partial, reduce
from typing import Iterable, Sequence

__all__ = ["Fq", "prime_power", "Span", "echelon_basis", "span_values"]

# Miller-Rabin to the 13 prime bases 2..41 is exact below PSI_13 (Sorenson
# and Webster, 2015); a number at or above it that passes all 13 is refused.
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981


class Fq:
    """Finite field of order q = p^k with full arithmetic tables.

    Elements are the integers 0..q-1; the base-p digits of an element are
    the coefficients of a residue polynomial modulo f, the first monic
    polynomial of degree k, in lexicographic order of its coefficients
    c_0, ..., c_{k-1}, that no monic polynomial of degree 1..k/2 divides.
    For k = 1 that is t, and the tables are those of the integers mod p.
    Let g be the least residue whose schoolbook powers first return to 1 at
    g^(q-1): then g^0, ..., g^(q-2) are q - 1 distinct units, so the
    residues form a field, and mul[g^i][g^j] = g^((i+j) mod (q-1)).
    """

    def __init__(self, q: int):
        p, k = prime_power(q)
        self.q, self.p, self.k = q, p, k
        monic = [[(*c, 1) for c in itertools.product(range(p), repeat=j)] for j in range(k + 1)]
        divisors = list(itertools.chain(*monic[1 : k // 2 + 1]))
        # f is irreducible when f times 1, reduced modulo each divisor d, is nonzero.
        self.modulus = next(
            f for f in monic[k] if all(any(_mulmod(f, (1,), d, p)) for d in divisors)
        )
        digits = [_digits(e, p, k) for e in range(q)]
        # Digits add mod p without carry: lanes[i][d][b] is p^i times digit i of
        # a + b when digit i of a is d, and row a of add sums the lanes of a's digits.
        lanes = []
        for i in range(k):
            digit, place = [x * p**i for x in range(p)], [ds[i] for ds in digits]
            lanes.append([tuple(map((digit[d:] + digit[:d]).__getitem__, place)) for d in range(p)])
        plus = partial(map, operator.add)
        self.add = tuple(tuple(reduce(plus, map(operator.getitem, lanes, ds))) for ds in digits)
        for g in range(1, q):
            power, x = [1], digits[g]
            while len(power) < q and (e := _encode(x, p)) != 1:
                power.append(e)
                x = _mulmod(x, digits[g], self.modulus, p)
            if len(power) == q - 1:
                break
        log = [q - 1] * q  # log 0 points at a 0 put after the powers
        for i, a in enumerate(power):
            log[a] = i
        times = operator.itemgetter(*log)
        self.mul = ((0,) * q, *(times(power[i:] + power[:i] + [0]) for i in log[1:]))
        self.neg = tuple(row.index(0) for row in self.add)
        self.inv = (0, *(row.index(1) for row in self.mul[1:]))

    def __repr__(self) -> str:
        return f"Fq({self.q})"


def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k for a prime p; ValueError when q is no prime power.

    p is the exact k-th root of q for the largest such k; a p at or above
    PSI_13 that passes every Miller-Rabin base raises a ValueError naming it.
    """
    if q >= 2:
        k = next(k for k in range(q.bit_length(), 0, -1) if _iroot(q, k) ** k == q)
        if _is_prime(p := _iroot(q, k)):
            return p, k
    raise ValueError(f"{q} is not a prime power")


def _iroot(n: int, k: int) -> int:
    """The largest r with r^k <= n, for n >= 1, by Newton's method from above."""
    r = 1 << -(-n.bit_length() // k)
    while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
        r = s
    return r


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases MILLER_RABIN_BASES, for n >= 2."""
    if n % 2 == 0 or n in MILLER_RABIN_BASES:
        return n in MILLER_RABIN_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    for b in MILLER_RABIN_BASES:
        # A prime n has b^d = 1, or b^(d 2^j) = -1 for some j < s.
        chain = [pow(b, (n - 1) >> (s - j), n) for j in range(s)]
        if chain[0] != 1 and n - 1 not in chain:
            return False
    if n >= PSI_13:
        raise ValueError(f"cannot decide if {n} is prime: Miller-Rabin is exact below {PSI_13}")
    return True


def _digits(e: int, p: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        out.append(e % p)
        e //= p
    return out


def _encode(digits: Sequence[int], p: int) -> int:
    e = 0
    for d in reversed(digits):
        e = e * p + d
    return e


def _mulmod(a: Sequence[int], b: Sequence[int], modulus: Sequence[int], p: int) -> list[int]:
    """Digits of a * b modulo the monic modulus, by long multiplication and division."""
    k = len(modulus) - 1
    prod = [0] * max(len(a) + len(b) - 1, k)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for top in range(len(prod) - 1, k - 1, -1):  # t^top = -t^(top-k) * (modulus - t^k)
        lead, prod[top] = prod[top], 0
        for j in range(k):
            prod[top - k + j] -= lead * modulus[j]
    return [c % p for c in prod[:k]]


class Span:
    """A subspace of F_q^n grown one vector at a time, kept in reduced row
    echelon form: each row has a leading 1 in a column that is zero in every
    other row.
    """

    def __init__(self, field: Fq):
        self.field = field
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def reduce(self, v: Sequence[int]) -> list[int]:
        """v minus a combination of the rows that is zero at every pivot
        column; all zero exactly when v is in the span."""
        add, mul, neg = self.field.add, self.field.mul, self.field.neg
        v = list(v)
        for row, piv in zip(self.rows, self.pivots):
            if v[piv]:
                factor = mul[neg[v[piv]]]
                v = [add[x][factor[y]] for x, y in zip(v, row)]
        return v

    def insert(self, reduced: list[int]) -> None:
        """Add a nonzero output of reduce as a row."""
        add, mul, neg = self.field.add, self.field.mul, self.field.neg
        piv = next(i for i, x in enumerate(reduced) if x)
        scale = mul[self.field.inv[reduced[piv]]]
        new = [scale[x] for x in reduced]
        for i, row in enumerate(self.rows):
            if row[piv]:
                factor = mul[neg[row[piv]]]
                self.rows[i] = [add[x][factor[y]] for x, y in zip(row, new)]
        self.rows.append(new)
        self.pivots.append(piv)

    def add(self, v: Sequence[int]) -> bool:
        """Grow the span by v; False when v was in it already."""
        reduced = self.reduce(v)
        if any(reduced):
            self.insert(reduced)
            return True
        return False

    def __contains__(self, v: Sequence[int]) -> bool:
        return not any(self.reduce(v))

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        """The reduced row echelon basis, rows by pivot column: the span's canonical name."""
        return tuple(tuple(row) for _piv, row in sorted(zip(self.pivots, self.rows)))


def echelon_basis(field: Fq, vectors: Iterable[Sequence[int]]) -> list:
    """The vectors outside the span of those before them: a basis of the span of all."""
    span = Span(field)
    return [v for v in vectors if span.add(v)]


def span_values(field: Fq, vectors: Sequence[Sequence[int]], width: int) -> list[tuple[int, ...]]:
    """Every F_q-combination of vectors of length width (no vectors: the zero
    vector), entry i with the base-q digits of i as coefficients, the first
    vector's most significant: itertools.product order on the standard basis.
    Each vector, the last first, multiplies the list by q: block c is c times
    the vector plus each entry so far."""
    out = [(0,) * width]
    for v in reversed(vectors):
        grown = list(out)
        for c in range(1, field.q):
            rows = [field.add[field.mul[c][x]] for x in v]  # rows[j][y] = c * v[j] + y
            grown += [tuple(map(operator.getitem, rows, e)) for e in out]
        out = grown
    return out
