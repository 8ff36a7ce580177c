"""Finite fields F_q and linear algebra over them.

Fq holds full addition and multiplication tables, checked entry by entry
at construction against schoolbook arithmetic in F_p[t]/(f).  Span keeps
a subspace of F_q^n in reduced row echelon form; its basis names the
subspace, and over the prime subfield (the elements 0..p-1) it spans
F_p-vectors with the same tables.
"""

from __future__ import annotations

import itertools
import math
from operator import getitem
from typing import Iterable, Sequence

__all__ = ["Fq", "prime_power", "Span", "echelon_basis"]


class Fq:
    """Finite field of order q = p^k with full arithmetic tables.

    Elements are the integers 0..q-1; the base-p digits of an element are
    the coefficients of a residue polynomial modulo the first monic
    polynomial of degree k, in lexicographic order of its coefficients
    c_0, ..., c_{k-1}, whose residues form a field: every nonzero residue
    has an inverse in its multiplication table.  For k = 1 that is t, and
    the tables are those of the integers mod p.  Every table entry is
    checked at construction against schoolbook arithmetic (_check_axioms).
    """

    def __init__(self, q: int):
        p, k = prime_power(q)
        self.q = q
        self.p = p
        self.k = k
        # Adding 1 steps the low digit mod p, so a + b = (a-1) + (1 + b) when
        # a % p > 0; otherwise the digits of a // p and b // p add.
        one = tuple(b - b % p + (b + 1) % p for b in range(q))
        add = [tuple(range(q))]
        for a in range(1, q):
            if a % p:
                add.append(tuple(map(add[a - 1].__getitem__, one)))
            else:
                high = add[a // p]
                add.append(tuple(p * high[b // p] + b % p for b in range(q)))
        self.add = tuple(add)
        for coeffs in itertools.product(range(p), repeat=k):
            self.modulus = (*coeffs, 1)
            mul = _mul_table(p, k, self.modulus, self.add)
            if mul is not None:
                break
        self.mul = mul
        self._check_axioms()
        self.neg = tuple(row.index(0) for row in self.add)
        self.inv = (0, *(row.index(1) for row in self.mul[1:]))

    def _check_axioms(self) -> None:
        """Check every add and mul entry against arithmetic in F_p[t]/(modulus).

        Schoolbook products of digit lists find a g whose powers g^0, ...,
        g^(q-2) are q - 1 distinct residues, so the residues form a field
        and every nonzero residue is a power of g.  Then row g^i of mul must
        send g^j to g^(i+j), and row g^i of add must send g^j to
        g^i * (1 + g^(j-i)), where adding 1 steps the low digit.  That is
        O(q^2) lookups, and O(q k^2) digit arithmetic per g tried.
        """
        q, p, k, add, mul = self.q, self.p, self.k, self.add, self.mul
        n = q - 1

        def powers(g: int) -> list[int] | None:
            # g^0, g^1, ... up to the first return to 1, or None without one.
            out, x, gd = [1], _digits(1, p, k), _digits(g, p, k)
            for _ in range(n):
                x = _schoolbook_mulmod(x, gd, self.modulus, p)
                e = _encode(x, p)
                if e == 1:
                    return out
                out.append(e)
            return None

        for g in range(1, q):
            power = powers(g)
            if power is not None and len(power) == n:
                break
        else:
            raise ArithmeticError(f"F_{p}[t] modulo {self.modulus} is not a field")
        if add[0] != tuple(range(q)) or mul[0] != (0,) * q:
            raise ArithmeticError("row 0 differs from F_p[t]/(modulus)")
        one_plus = [x - x % p + (x % p + 1) % p for x in power]
        for i, a in enumerate(power):
            row_mul, row_add = mul[a], add[a]
            if row_mul[0] != 0 or [row_mul[b] for b in power] != power[i:] + power[:i]:
                raise ArithmeticError(f"multiplication row {a} differs from F_p[t]/(modulus)")
            shifted = one_plus[n - i :] + one_plus[: n - i]
            if row_add[0] != a or [row_add[b] for b in power] != [row_mul[x] for x in shifted]:
                raise ArithmeticError(f"addition row {a} differs from F_p[t]/(modulus)")

    def __repr__(self) -> str:
        return f"Fq({self.q})"


def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k for a prime p; ValueError when q is no prime power."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    # The least divisor above 1 is prime; q is a prime power iff it is p^k.
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    k, n = 0, q
    while n % p == 0:
        n //= p
        k += 1
    if n != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, k


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


def _schoolbook_mulmod(
    a: Sequence[int], b: Sequence[int], modulus: Sequence[int], p: int
) -> list[int]:
    """Digits of a * b modulo the monic modulus, by long multiplication and division."""
    k = len(modulus) - 1
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for top in range(2 * k - 2, k - 1, -1):  # t^top = -t^(top-k) * (modulus - t^k)
        lead, prod[top] = prod[top], 0
        for j in range(k):
            prod[top - k + j] -= lead * modulus[j]
    return [c % p for c in prod[:k]]


def _mul_table(p: int, k: int, modulus: Sequence[int], add: tuple) -> tuple | None:
    """Multiplication table of F_p[t] / (modulus), or None if that is no field.

    Row a is built from earlier rows: (a-1)*b + b for a < p, (a/p) * (t*b)
    for a divisible by p, and (a - a%p)*b + (a%p)*b otherwise.  None as soon
    as a nonzero row has no 1, that is a residue without an inverse.
    """
    q = p**k
    times_t = []
    for b in range(q):
        d = _digits(b, p, k)
        # t * b, with t^k replaced by -(modulus - t^k)
        times_t.append(_encode([(x - d[-1] * c) % p for x, c in zip([0, *d[:-1]], modulus)], p))
    mul = [(0,) * q]
    for a in range(1, q):
        low = a % p
        # Each row is formed by map over table lookups, which keeps the loop in C.
        if a < p:
            row = tuple(map(getitem, add, mul[a - 1]))  # add[b][(a-1)*b]
        elif low == 0:
            row = tuple(map(mul[a // p].__getitem__, times_t))
        else:
            row = tuple(map(getitem, map(add.__getitem__, mul[a - low]), mul[low]))
        if 1 not in row:
            return None
        mul.append(row)
    return tuple(mul)


class Span:
    """A subspace of F_q^n grown one vector at a time, kept in reduced row
    echelon form: each row has a leading 1 in a column that is zero in every
    other row.  Over F_p the field's tables serve as they are, since the
    integers 0..p-1 are its prime subfield.
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
    """The vectors outside the span of those before them.

    They form a basis of the span of all the vectors.
    """
    span = Span(field)
    return [v for v in vectors if span.add(v)]
