"""Coefficient rings for exact linear algebra.

A ring object is a strategy bundle over *plain* payloads: Python ints for the
integers and for prime-field residues (kept reduced to 0..p-1), and
`fractions.Fraction` for the rationals.  Keeping payloads unboxed lets hot
loops run at native speed while the ring object carries the arithmetic.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import NotField, NotPrime

__all__ = ["IntegerRing", "RationalField", "PrimeField", "ZZ", "QQ", "GF", "is_prime"]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n below 3.3e24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class IntegerRing:
    """Arbitrary-precision integers."""

    is_field = False
    zero = 0
    one = 1

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)

    def coerce(self, x):
        if isinstance(x, int):
            return x
        if isinstance(x, Fraction) and x.denominator == 1:
            return x.numerator
        raise TypeError(f"cannot coerce {x!r} into ZZ")

    def invert(self, x):
        raise NotField("integers form a ring, not a field; lift to QQ")

    def __repr__(self):
        return "ZZ"

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("ZZ")


class RationalField:
    """Exact rationals; payloads are `fractions.Fraction` (always reduced)."""

    is_field = True
    zero = Fraction(0)
    one = Fraction(1)

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)

    def coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into QQ")

    def invert(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(x)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField:
    """Integers modulo a prime p; payloads are ints reduced to 0..p-1."""

    is_field = True

    def __init__(self, p: int):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.p = p
        self.name = f"GF({p})"
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return -a % self.p

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.p
        raise TypeError(f"cannot coerce {x!r} into {self.name}")

    def invert(self, x):
        if x % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(x, -1, self.p)

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


ZZ = IntegerRing()
QQ = RationalField()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    """Prime field of order p (cached)."""
    field = _gf_cache.get(p)
    if field is None:
        field = _gf_cache[p] = PrimeField(p)
    return field
