"""Exact dense linear algebra over pluggable coefficient rings.

Matrices and polynomials are immutable; entries are plain payloads (int,
Fraction, or reduced residues) interpreted by a ring object from
:mod:`arbormat.rings`.  The characteristic polynomial uses the division-free
Berkowitz scheme, so the same code path is exact over the integers, the
rationals, and every prime field.  The determinant is read off it, except
over the integers, where fraction-free (Bareiss) elimination is exact too
and takes O(n^3) steps against Berkowitz's O(n^4).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import (
    BadDimension,
    DimensionMismatch,
    NotField,
    NotSquare,
    Singular,
)
from .rings import GF, ZZ, PrimeField

__all__ = [
    "ExactPolynomial",
    "ExactMatrix",
    "companion",
    "geometric_poly",
    "reduce_mod",
    "invariant_factors",
]


class ExactPolynomial:
    """Univariate polynomial with coefficients in an exact ring, as a value.

    Coefficients are stored constant term first, without trailing zeros; the
    zero polynomial has an empty coefficient tuple.  Polynomials are compared,
    never combined: the polynomial arithmetic of :func:`invariant_factors`
    works on its own coefficient lists.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs: Iterable):
        coerce = ring.coerce
        cs = [coerce(c) for c in coeffs]
        while cs and cs[-1] == ring.zero:
            cs.pop()
        self.ring = ring
        self.coeffs = tuple(cs)

    def __eq__(self, other):
        return (
            isinstance(other, ExactPolynomial)
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def reduce_mod(self, p: int) -> "ExactPolynomial":
        """Entrywise reduction of an integer polynomial into GF(p)."""
        if self.ring != ZZ:
            raise NotField("reduction is defined for integer polynomials")
        field = GF(p)
        return ExactPolynomial(field, [c % p for c in self.coeffs])

    def to_strings(self) -> list[str]:
        """Coefficients as decimal strings, constant term first."""
        return [str(c) for c in self.coeffs]

    def __repr__(self):
        return f"ExactPolynomial({self.ring!r}, {list(self.coeffs)!r})"


class ExactMatrix:
    """Immutable dense matrix over an exact ring."""

    __slots__ = ("ring", "rows")

    def __init__(self, ring, rows: Sequence[Sequence]):
        coerce = ring.coerce
        rs = tuple(tuple(coerce(e) for e in row) for row in rows)
        if rs:
            w = len(rs[0])
            if any(len(r) != w for r in rs):
                raise DimensionMismatch("ragged rows")
            if w == 0:
                raise DimensionMismatch("empty rows")
        else:
            raise DimensionMismatch("empty matrix")
        self.ring = ring
        self.rows = rs

    @classmethod
    def identity(cls, ring, n: int) -> "ExactMatrix":
        one, zero = ring.one, ring.zero
        return cls(ring, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.ring == other.ring
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ring, self.rows))

    def __add__(self, other):
        self._compat(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("shape mismatch in addition")
        add = self.ring.add
        return ExactMatrix(
            self.ring,
            [[add(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __matmul__(self, other):
        self._compat(other)
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        add, mul, zero = self.ring.add, self.ring.mul, self.ring.zero
        cols = list(zip(*other.rows))
        out = []
        for row in self.rows:
            orow = []
            for col in cols:
                s = zero
                for a, b in zip(row, col):
                    s = add(s, mul(a, b))
                orow.append(s)
            out.append(orow)
        return ExactMatrix(self.ring, out)

    def vec_mul(self, w: Sequence) -> tuple:
        """Row vector times matrix: returns w . M as a tuple of payloads, the
        rows of M added up with their weights in w, zero weights skipped."""
        if len(w) != self.nrows:
            raise DimensionMismatch("vector length does not match row count")
        ring = self.ring
        add, mul, zero = ring.add, ring.mul, ring.zero
        out = [zero] * self.ncols
        for x, row in zip(map(ring.coerce, w), self.rows):
            if x != zero:
                out = [add(s, mul(x, b)) for s, b in zip(out, row)]
        return tuple(out)

    def abs(self) -> "ExactMatrix":
        """Entrywise absolute value (integer matrices)."""
        if self.ring != ZZ:
            raise NotField("entrywise absolute value is defined over ZZ")
        return ExactMatrix(ZZ, [[abs(e) for e in row] for row in self.rows])

    def charpoly(self) -> ExactPolynomial:
        """Characteristic polynomial det(xI - M), monic, via Berkowitz.

        Division-free, hence exact over any commutative coefficient ring.
        """
        if not self.is_square():
            raise NotSquare("characteristic polynomial needs a square matrix")
        ring = self.ring
        add, mul, neg, zero, one = ring.add, ring.mul, ring.neg, ring.zero, ring.one
        rows = self.rows
        n = self.nrows
        vec = [one]
        for m in range(1, n + 1):
            t = [one, neg(rows[m - 1][m - 1])]
            if m >= 2:
                R = rows[m - 1][: m - 1]
                v = [rows[i][m - 1] for i in range(m - 1)]
                t.append(neg(_dot(R, v, add, mul, zero)))
                for _ in range(3, m + 1):
                    v = [
                        _dot(rows[i][: m - 1], v, add, mul, zero)
                        for i in range(m - 1)
                    ]
                    t.append(neg(_dot(R, v, add, mul, zero)))
            new = []
            for i in range(m + 1):
                s = zero
                for j in range(max(0, i - m), min(i, m - 1) + 1):
                    s = add(s, mul(t[i - j], vec[j]))
                new.append(s)
            vec = new
        return ExactPolynomial(ring, reversed(vec))

    def determinant(self):
        """Exact determinant.

        Over ZZ by fraction-free (Bareiss) elimination with row swaps: the
        entry (i, j) after step k is the (k+1)-minor on rows 0..k, i and
        columns 0..k, j, so every division by the previous pivot is exact.
        Over other rings det(M) = (-1)^n p(0), p = det(xI - M).
        """
        n = self.nrows
        if self.ring != ZZ:
            p = self.charpoly()
            c0 = p.coeffs[0] if p.coeffs else self.ring.zero
            return c0 if n % 2 == 0 else self.ring.neg(c0)
        if not self.is_square():
            raise NotSquare("determinant needs a square matrix")
        m, sign, prev = [list(row) for row in self.rows], 1, 1
        for k in range(n - 1):
            pivot = next((i for i in range(k, n) if m[i][k]), None)
            if pivot is None:
                return 0
            if pivot != k:
                m[k], m[pivot], sign = m[pivot], m[k], -sign
            top, p = m[k], m[k][k]
            for row in m[k + 1 :]:
                a = row[k]
                for j in range(k + 1, n):
                    row[j] = (row[j] * p - a * top[j]) // prev
            prev = p
        return sign * m[-1][-1]

    def inverse(self) -> "ExactMatrix":
        """Exact inverse over a field (Gauss-Jordan)."""
        ring = self.ring
        if not ring.is_field:
            raise NotField(f"inverse requires a field, got {ring!r}")
        if not self.is_square():
            raise NotSquare("inverse needs a square matrix")
        n = self.nrows
        add, sub, mul, inv = ring.add, ring.sub, ring.mul, ring.invert
        zero, one = ring.zero, ring.one
        aug = [list(row) + [one if i == j else zero for j in range(n)]
               for i, row in enumerate(self.rows)]
        for col in range(n):
            pivot_row = next((r for r in range(col, n) if aug[r][col] != zero), None)
            if pivot_row is None:
                raise Singular("matrix is singular")
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
            pinv = inv(aug[col][col])
            aug[col] = [mul(pinv, e) for e in aug[col]]
            for r in range(n):
                if r != col and aug[r][col] != zero:
                    factor = aug[r][col]
                    aug[r] = [sub(a, mul(factor, b)) for a, b in zip(aug[r], aug[col])]
        return ExactMatrix(ring, [row[n:] for row in aug])

    def _compat(self, other):
        if not isinstance(other, ExactMatrix) or other.ring != self.ring:
            raise DimensionMismatch("matrix rings differ")

    def __repr__(self):
        return f"ExactMatrix({self.ring!r}, {[list(r) for r in self.rows]!r})"


def _dot(xs, ys, add, mul, zero):
    s = zero
    for a, b in zip(xs, ys):
        s = add(s, mul(a, b))
    return s


def companion(n: int) -> ExactMatrix:
    """n x n companion matrix of 1 + x + ... + x^n.

    Ones on the superdiagonal, last row all -1.
    """
    if n < 2:
        raise BadDimension(f"companion matrix needs n >= 2, got {n}")
    rows = [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n - 1)]
    rows.append([-1] * n)
    return ExactMatrix(ZZ, rows)


def geometric_poly(n: int) -> ExactPolynomial:
    """The polynomial 1 + x + x^2 + ... + x^n."""
    return ExactPolynomial(ZZ, [1] * (n + 1))


def reduce_mod(m: ExactMatrix, p: int) -> ExactMatrix:
    """Entrywise reduction of an integer matrix into GF(p)."""
    if m.ring != ZZ:
        raise NotField("reduction is defined for integer matrices")
    field = GF(p)
    return ExactMatrix(field, [[e % p for e in row] for row in m.rows])


# --- polynomial matrices over a prime field: invariant factors ---------------
#
# Similarity of square matrices over a field is decided by the invariant
# factors of xI - M, i.e. the diagonal of its Smith normal form over F[x].

def _pnorm(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _padd(a, b, F):
    add = F.add
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] = add(out[i], x)
    return _pnorm(out)


def _pneg(a, F):
    neg = F.neg
    return [neg(x) for x in a]


def _pmul(a, b, F):
    if not a or not b:
        return []
    add, mul = F.add, F.mul
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == F.zero:
            continue
        for j, y in enumerate(b):
            out[i + j] = add(out[i + j], mul(x, y))
    return _pnorm(out)


def _pdivmod(a, b, F):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [F.zero] * max(0, len(a) - len(b) + 1)
    inv_lead = F.invert(b[-1])
    sub, mul = F.sub, F.mul
    while len(a) >= len(b) and a:
        shift = len(a) - len(b)
        coeff = mul(a[-1], inv_lead)
        q[shift] = coeff
        for i, x in enumerate(b):
            a[shift + i] = sub(a[shift + i], mul(coeff, x))
        _pnorm(a)
    return _pnorm(q), a


def _pmonic(a, F):
    if not a or a[-1] == F.one:
        return list(a)
    inv_lead = F.invert(a[-1])
    mul = F.mul
    return [mul(x, inv_lead) for x in a]


def invariant_factors(m: ExactMatrix) -> list[ExactPolynomial]:
    """Monic nonconstant invariant factors d1 | d2 | ... of xI - m over GF(p).

    Two square matrices over the same prime field are similar exactly when
    their invariant factor lists coincide; the product of the list is the
    characteristic polynomial.
    """
    F = m.ring
    if not isinstance(F, PrimeField):
        raise NotField("invariant factors are computed over a prime field")
    if not m.is_square():
        raise NotSquare("invariant factors need a square matrix")
    n = m.nrows
    one = F.one
    # M = xI - m as lists of ascending coefficient lists
    M = [
        [
            _pnorm([F.neg(m.rows[i][j])] + ([one] if i == j else []))
            for j in range(n)
        ]
        for i in range(n)
    ]

    def deg(p):
        return len(p) - 1  # -1 for the zero polynomial

    factors = []
    for k in range(n):
        while True:
            # locate a nonzero entry of minimal degree in the trailing block
            best = None
            for i in range(k, n):
                for j in range(k, n):
                    if M[i][j] and (best is None or deg(M[i][j]) < deg(M[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                raise Singular("xI - m is singular over F[x]")  # impossible: det is monic
            bi, bj = best
            if bi != k:
                M[k], M[bi] = M[bi], M[k]
            if bj != k:
                for row in M:
                    row[k], row[bj] = row[bj], row[k]
            pivot = M[k][k]
            dirty = False
            for i in range(k + 1, n):
                if M[i][k]:
                    q, r = _pdivmod(M[i][k], pivot, F)
                    if q:
                        nq = _pneg(q, F)
                        M[i] = [_padd(M[i][j], _pmul(nq, M[k][j], F), F) for j in range(n)]
                    if r:
                        dirty = True
            for j in range(k + 1, n):
                if M[k][j]:
                    q, r = _pdivmod(M[k][j], pivot, F)
                    if q:
                        nq = _pneg(q, F)
                        for i in range(n):
                            M[i][j] = _padd(M[i][j], _pmul(nq, M[i][k], F), F)
                    if r:
                        dirty = True
            if dirty:
                continue
            # pivot must divide every remaining entry for the chain d1 | d2 | ...
            fix = None
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    if M[i][j] and _pdivmod(M[i][j], pivot, F)[1]:
                        fix = i
                        break
                if fix is not None:
                    break
            if fix is None:
                break
            M[k] = [_padd(M[k][j], M[fix][j], F) for j in range(n)]
        factors.append(_pmonic(M[k][k], F))

    result = [ExactPolynomial(F, f) for f in factors if len(f) > 1]
    for a, b in zip(result, result[1:]):
        q, r = _pdivmod(list(b.coeffs), list(a.coeffs), F)
        if r:
            raise AssertionError("invariant factor chain broken")  # algorithm bug guard
    return result

