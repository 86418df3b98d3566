import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from arbormat import (
    GF,
    QQ,
    ZZ,
    ExactMatrix,
    ExactPolynomial,
    companion,
    geometric_poly,
    invariant_factors,
    reduce_mod,
)
from arbormat.errors import (
    BadDimension,
    DimensionMismatch,
    NotField,
    NotPrime,
    NotSquare,
    Singular,
)

from oracles import _poly_mul, bareiss_det, naive_charpoly


def rand_matrix(rng, n, lo=-1, hi=1):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


class TestRings:
    def test_gf_arithmetic(self):
        f = GF(5)
        assert f.add(3, 4) == 2
        assert f.mul(3, 4) == 2
        assert f.neg(2) == 3
        assert f.invert(3) == 2
        with pytest.raises(ZeroDivisionError):
            f.invert(0)

    def test_gf_requires_prime(self):
        with pytest.raises(NotPrime):
            GF(4)
        with pytest.raises(NotPrime):
            GF(1)

    def test_zz_not_a_field(self):
        with pytest.raises(NotField):
            ZZ.invert(2)

    def test_qq_reduces(self):
        x = QQ.coerce(Fraction(2, 4))
        assert (x.numerator, x.denominator) == (1, 2)

    def test_gf_cache(self):
        assert GF(7) is GF(7)
        assert GF(7) == GF(7) and GF(7) != GF(5)


class TestPolynomials:
    def test_normalization(self):
        p = ExactPolynomial(ZZ, [1, 2, 0, 0])
        assert p.coeffs == (1, 2)
        assert ExactPolynomial(ZZ, [0, 0]).coeffs == ()

    def test_reduce_mod(self):
        # coefficients 3, -1, 2 become 1, 1, 0 mod 2; the zero lead is stripped
        p = ExactPolynomial(ZZ, [3, -1, 2])
        assert p.reduce_mod(2).coeffs == (1, 1)

    def test_geometric(self):
        assert geometric_poly(5).coeffs == (1,) * 6


class TestCharpoly:
    def test_companion_2(self):
        m = ExactMatrix(ZZ, [[0, 1], [-1, -1]])
        assert m.charpoly().coeffs == (1, 1, 1)

    def test_companion_property(self):
        for n in range(2, 12):
            assert companion(n).charpoly() == geometric_poly(n)

    def test_not_square(self):
        with pytest.raises(NotSquare):
            ExactMatrix(ZZ, [[1, 2, 3], [4, 5, 6]]).charpoly()

    def test_against_cofactor_oracle(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 5)
            rows = rand_matrix(rng, n, -3, 3)
            assert ExactMatrix(ZZ, rows).charpoly().coeffs == naive_charpoly(rows)

    def test_against_sympy(self):
        rng = random.Random(13)
        x = sympy.symbols("x")
        for _ in range(5):
            rows = rand_matrix(rng, 6, -4, 4)
            want = [int(c) for c in sympy.Matrix(rows).charpoly(x).all_coeffs()]
            got = list(ExactMatrix(ZZ, rows).charpoly().coeffs)[::-1]
            assert got == want

    def test_prime_field_matches_reduction(self):
        rng = random.Random(17)
        for p in (2, 3, 5):
            for _ in range(20):
                n = rng.randint(2, 5)
                rows = rand_matrix(rng, n, -6, 6)
                direct = ExactMatrix(GF(p), [[e % p for e in r] for r in rows]).charpoly()
                reduced = ExactMatrix(ZZ, rows).charpoly().reduce_mod(p)
                assert direct == reduced

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=40)
    def test_monic_degree_n(self, n, data):
        rows = [
            [data.draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)
        ]
        p = ExactMatrix(ZZ, rows).charpoly()
        assert len(p.coeffs) == n + 1 and p.coeffs[-1] == 1


class TestDeterminant:
    def test_examples(self):
        assert ExactMatrix(ZZ, [[0, 1], [-1, -1]]).determinant() == 1
        assert ExactMatrix.identity(ZZ, 3).determinant() == 1

    def test_against_bareiss(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(1, 6)
            rows = rand_matrix(rng, n, -5, 5)
            assert ExactMatrix(ZZ, rows).determinant() == bareiss_det(rows)

    def test_bareiss_equals_charpoly_route(self, monkeypatch):
        """Over ZZ the determinant is fraction-free elimination; it equals
        (-1)^n p(0) of the charpoly on random, singular and zero-pivot
        matrices of size 1..11, and never computes the charpoly."""
        rng = random.Random(31)
        cases = []
        for n in range(1, 12):
            for lo in (-1, -4, -40):
                cases.append(rand_matrix(rng, n, lo, -lo))
            if n > 1:
                rows = rand_matrix(rng, n, -3, 3)
                rows[-1] = [2 * x - y for x, y in zip(rows[0], rows[1])]  # singular
                cases.append(rows)
                rows = rand_matrix(rng, n, -2, 2)
                rows[0][0] = 0  # a row swap at the first pivot
                rows[1][0] = rows[1][0] or 1
                cases.append(rows)
                cases.append([[int(i == (j + 1) % n) for j in range(n)] for i in range(n)])
        want = []
        for rows in cases:
            c0 = dict(enumerate(ExactMatrix(ZZ, rows).charpoly().coeffs)).get(0, 0)
            want.append(c0 * (-1) ** len(rows))
        assert 0 in want and {1, -1} <= set(want)

        def no_charpoly(self):
            raise AssertionError("charpoly called over ZZ")

        monkeypatch.setattr(ExactMatrix, "charpoly", no_charpoly)
        assert [ExactMatrix(ZZ, rows).determinant() for rows in cases] == want
        with pytest.raises(NotSquare):
            ExactMatrix(ZZ, [[1, 2]]).determinant()

    def test_fields_take_the_charpoly_route(self, monkeypatch):
        calls = []
        real = ExactMatrix.charpoly
        monkeypatch.setattr(ExactMatrix, "charpoly", lambda m: calls.append(m.ring) or real(m))
        rows = [[0, 1, 2], [3, 4, 5], [6, 7, 9]]
        assert ExactMatrix(GF(7), rows).determinant() == (-3) % 7
        assert ExactMatrix(QQ, rows).determinant() == Fraction(-3)
        assert calls == [GF(7), QQ]

    def test_charpoly_constant_relation(self):
        rng = random.Random(29)
        for _ in range(20):
            n = rng.randint(2, 5)
            m = ExactMatrix(ZZ, rand_matrix(rng, n, -3, 3))
            c0 = m.charpoly().coeffs[0] if m.charpoly().coeffs else 0
            assert m.determinant() * (-1) ** n == c0


class TestInverse:
    def test_formula_2x2(self):
        m = ExactMatrix(QQ, [[0, 1], [-1, -1]])
        assert m.inverse() == ExactMatrix(QQ, [[-1, -1], [1, 0]])

    def test_identity(self):
        ident = ExactMatrix.identity(QQ, 4)
        assert ident.inverse() == ident

    def test_singular(self):
        with pytest.raises(Singular):
            ExactMatrix(QQ, [[1, 1], [1, 1]]).inverse()

    def test_integers_refused(self):
        with pytest.raises(NotField):
            ExactMatrix(ZZ, [[1, 0], [0, 1]]).inverse()

    def test_round_trip(self):
        rng = random.Random(31)
        done = 0
        while done < 20:
            n = rng.randint(2, 5)
            rows = rand_matrix(rng, n, -4, 4)
            for ring in (QQ, GF(7)):
                m = ExactMatrix(ring, [[ring.coerce(e) for e in r] for r in rows])
                try:
                    inv = m.inverse()
                except Singular:
                    continue
                assert m @ inv == ExactMatrix.identity(ring, n)
                assert inv @ m == ExactMatrix.identity(ring, n)
            done += 1


class TestCompanion:
    def test_shape(self):
        c = companion(3)
        assert c.rows == ((0, 1, 0), (0, 0, 1), (-1, -1, -1))

    def test_n2(self):
        assert companion(2).rows == ((0, 1), (-1, -1))

    def test_bad_dimension(self):
        with pytest.raises(BadDimension):
            companion(1)


class TestInvariantFactors:
    def test_companion_single_factor(self):
        fac = invariant_factors(reduce_mod(companion(2), 2))
        assert [f.coeffs for f in fac] == [(1, 1, 1)]

    def test_scalar_matrix(self):
        fac = invariant_factors(ExactMatrix(GF(2), [[1, 0], [0, 1]]))
        assert [f.coeffs for f in fac] == [(1, 1), (1, 1)]

    def test_companion_geometric_all_n(self):
        for n in range(2, 12):
            fac = invariant_factors(reduce_mod(companion(n), 2))
            assert [f.coeffs for f in fac] == [(1,) * (n + 1)]

    def test_product_and_divisibility(self):
        rng = random.Random(37)
        for p in (2, 3, 5):
            field = GF(p)
            for _ in range(15):
                n = rng.randint(2, 5)
                m = ExactMatrix(field, [[rng.randint(0, p - 1) for _ in range(n)] for _ in range(n)])
                factors = invariant_factors(m)
                prod = [1]
                for f in factors:
                    assert f.coeffs[-1] == 1
                    prod = _poly_mul(prod, f.coeffs)
                assert ExactPolynomial(field, prod) == m.charpoly()

    def test_similarity_invariance_under_permutation(self):
        rng = random.Random(41)
        field = GF(3)
        for _ in range(10):
            n = rng.randint(2, 5)
            rows = [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
            perm = list(range(n))
            rng.shuffle(perm)
            conj = [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
            assert invariant_factors(ExactMatrix(field, rows)) == invariant_factors(
                ExactMatrix(field, conj)
            )

    def test_requires_prime_field(self):
        with pytest.raises(NotField):
            invariant_factors(ExactMatrix(ZZ, [[1, 0], [0, 1]]))


class TestReduceMod:
    def test_example(self):
        m = ExactMatrix(ZZ, [[-1, 2], [3, 0]])
        assert reduce_mod(m, 2).rows == ((1, 0), (1, 0))

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            reduce_mod(ExactMatrix(ZZ, [[1]]), 6)

    def test_charpoly_commutes_1000_random(self):
        rng = random.Random(43)
        for _ in range(1000):
            n = rng.randint(2, 5)
            p = rng.choice((2, 3, 5, 7))
            m = ExactMatrix(ZZ, rand_matrix(rng, n))
            assert reduce_mod(m, p).charpoly() == m.charpoly().reduce_mod(p)


class TestSerialization:
    def test_shape_errors(self):
        with pytest.raises(DimensionMismatch):
            ExactMatrix(ZZ, [[1, 2], [3]])
        with pytest.raises(DimensionMismatch):
            ExactMatrix(ZZ, [[1]]) @ ExactMatrix(ZZ, [[1, 2], [3, 4]])
