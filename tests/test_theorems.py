import pytest

from arbormat import (
    ClaimStatus,
    ExactMatrix,
    Orientation,
    VertexMap,
    ZZ,
    basis_witness,
    companion,
    geometric_sum_is_zero,
    odd_coefficients_check,
    oriented_matrix,
    parse_map,
    parse_tree,
    petrie_check,
    split_sign_check,
    step_residues,
    uniform_sign_check,
    verify_instance,
    z2_similarity_to_companion,
    zp_similarity,
)
from arbormat.errors import NotCoprime, NotSquare, OutOfRange, UnknownVertex
from arbormat.harness import random_instances
from arbormat.theorems import MANDATORY_CLAIMS, matrix_claims
from arbormat._fast import cycle_images

from oracles import gcd_multiples_oracle, residue_set_oracle


class TestGeometricSum:
    def test_hand_matrix(self):
        assert geometric_sum_is_zero(ExactMatrix(ZZ, [[0, 1], [-1, -1]]))

    def test_companions(self):
        for n in range(2, 12):
            assert geometric_sum_is_zero(companion(n))

    def test_identity_fails(self):
        assert not geometric_sum_is_zero(ExactMatrix.identity(ZZ, 3))

    def test_not_square(self):
        with pytest.raises(NotSquare):
            geometric_sum_is_zero(ExactMatrix(ZZ, [[1, 2]]))


class TestStepResidues:
    def test_examples(self):
        assert step_residues(2, 4) == {1, 2, 3, 4}
        assert step_residues(4, 5) == {2, 4}
        for n in (3, 5, 8):
            assert step_residues(n, n) == set(range(1, n + 1))

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            step_residues(0, 4)
        with pytest.raises(OutOfRange):
            step_residues(5, 4)

    def test_against_oracles(self):
        for n in range(2, 30):
            for j in range(1, n + 1):
                assert step_residues(j, n) == residue_set_oracle(j, n)
                assert step_residues(j, n) == gcd_multiples_oracle(j, n)


class TestBasisWitness:
    def test_hand_instance(self, shift3):
        f, o = shift3
        w = basis_witness(f, o, 1, 1)
        assert w.mf.rows == ((1, 0), (0, 1))
        assert w.determinant == 1
        assert w.companion == companion(2)
        assert w.conjugates_over_rationals(oriented_matrix(f, o).oriented)

    def test_not_coprime(self, star4):
        f = VertexMap(star4, [2, 3, 4, 1])
        with pytest.raises(NotCoprime):
            basis_witness(f, Orientation.canonical(3), 1, 2)

    def test_bad_arguments(self, shift3):
        f, o = shift3
        with pytest.raises(OutOfRange):
            basis_witness(f, o, 1, 0)
        with pytest.raises(UnknownVertex):
            basis_witness(f, o, 9, 1)

    def test_random_instances_validate(self):
        from math import gcd

        for f, o in random_instances(101, 15, 2, 6):
            n = f.tree.edge_count
            a = oriented_matrix(f, o).oriented
            for j in range(1, n + 1):
                if gcd(j, n + 1) != 1:
                    continue
                w = basis_witness(f, o, 1, j)
                assert w.determinant % 2 == 1
                assert w.mf @ a == w.companion @ w.mf


class TestSimilarity:
    def test_identity_not_similar(self):
        assert not z2_similarity_to_companion(ExactMatrix.identity(ZZ, 5))

    def test_companion_is(self):
        for n in (2, 5, 7):
            assert z2_similarity_to_companion(companion(n))

    def test_hand_instance(self, shift3):
        f, o = shift3
        assert z2_similarity_to_companion(oriented_matrix(f, o).unoriented)

    def test_self_similarity(self):
        m = ExactMatrix(ZZ, [[0, 1, 1], [1, 0, 0], [1, 1, 1]])
        assert zp_similarity(m, m, 3)
        assert zp_similarity(m, m, 2)

    def test_shape_mismatch(self):
        from arbormat.errors import DimensionMismatch

        m = ExactMatrix(ZZ, [[0, 1], [1, 0]])
        other = ExactMatrix(ZZ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(DimensionMismatch):
            zp_similarity(m, other, 2)

    def test_against_bruteforce_conjugation(self):
        # invariant-factor similarity must agree with enumerating every
        # invertible conjugator
        import random as rnd

        from oracles import similar_bruteforce

        rng = rnd.Random(83)
        cases = []
        for _ in range(25):
            cases.append((2, 2))
            cases.append((2, 3))
        cases.append((3, 2))
        cases.append((3, 2))
        for n, p in cases:
            m1 = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            m2 = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            got = zp_similarity(ExactMatrix(ZZ, m1), ExactMatrix(ZZ, m2), p)
            assert got == similar_bruteforce(m1, m2, p), (m1, m2, p)


class TestMatrixClaims:
    def test_hand_instance_passes(self, shift3):
        f, o = shift3
        assert all(matrix_claims(oriented_matrix(f, o).oriented).values())

    def test_zero_matrix_fails_each(self):
        claims = matrix_claims(ExactMatrix(ZZ, [[0, 0], [0, 0]]))
        assert len(claims) == 5 and not any(claims.values())

    def test_z2_against_the_companion_route(self):
        # comparing with the one invariant factor 1 + ... + x^n agrees with
        # computing the companion matrix's own invariant factors
        import random as rnd

        rng = rnd.Random(5)
        for n in (2, 3, 4, 5):
            for _ in range(40):
                b = ExactMatrix(ZZ, [[rng.randrange(2) for _ in range(n)] for _ in range(n)])
                assert z2_similarity_to_companion(b) == zp_similarity(b, companion(n), 2)


class TestOddCoefficients:
    def test_zero_matrix(self):
        assert not odd_coefficients_check(ExactMatrix(ZZ, [[0, 0], [0, 0]]))

    def test_hand_instance(self, shift3):
        f, o = shift3
        assert odd_coefficients_check(oriented_matrix(f, o).unoriented)


class TestPetrie:
    def test_true_example(self):
        assert petrie_check(ExactMatrix(ZZ, [[1, 1, 0], [0, -1, -1], [0, 0, 1]]))

    def test_gap(self):
        assert not petrie_check(ExactMatrix(ZZ, [[1, 0, 1], [0, 1, 0], [0, 0, 1]]))

    def test_mixed_sign_row(self):
        assert not petrie_check(ExactMatrix(ZZ, [[1, -1], [0, 1]]))

    def test_zero_row_allowed(self):
        assert petrie_check(ExactMatrix(ZZ, [[0, 0], [1, 0]]))

    def test_entry_beyond_one(self):
        assert not petrie_check(ExactMatrix(ZZ, [[2, 0], [0, 1]]))


class TestSignConditions:
    def test_path_uniform(self, shift3):
        f, o = shift3
        assert uniform_sign_check(f, o)

    def test_star_mixed_row_exists(self, star4):
        # frozen from an exhaustive scan of the 4-vertex star
        f = VertexMap(star4, [2, 3, 4, 1])
        assert not uniform_sign_check(f, Orientation.canonical(3))

    def test_split_degenerates_to_negations(self, shift3):
        f, o = shift3
        r = split_sign_check(f, o)
        assert r.status is ClaimStatus.PASS
        assert all(op[0] == "negate" for op in r.operations)
        assert r.mixed_rows == ()

    def test_split_with_additions(self):
        # frozen applicable case with a mixed row (found by sweep)
        tree = parse_tree("1-2,1-3")
        f = parse_map("2,3,1", tree)
        r = split_sign_check(f, Orientation.canonical(2))
        assert r.status is ClaimStatus.PASS
        assert r.mixed_rows
        assert any(op[0] == "add" and abs(op[2]) == 2 for op in r.operations)

    def test_split_two_sign_changes_not_applicable(self):
        # frozen instance whose row 3 changes sign twice
        tree = parse_tree("1-2,1-4,2-3")
        f = parse_map("2,3,4,1", tree)
        r = split_sign_check(f, Orientation.from_bitstring("110"))
        assert r.status is ClaimStatus.NOT_APPLICABLE
        assert "2 times" in r.reason

    def test_split_rebuild_exhaustive_small(self):
        # every applicable reduction rebuilds the oriented matrix bit-exactly;
        # split_sign_check raises WitnessFailed otherwise, so a clean pass
        # over the whole n <= 3 space is the assertion
        from arbormat.harness import trees_for

        for v in (3, 4):
            n = v - 1
            for tree in trees_for(v):
                for bits in range(1 << n):
                    o = Orientation.from_int(bits, n)
                    for img in cycle_images(v):
                        f = VertexMap(tree, [int(x) for x in img[1:]])
                        split_sign_check(f, o)


class TestVerifyInstance:
    def test_hand_instance_all_pass(self, shift3):
        f, o = shift3
        report = verify_instance(f, o)
        assert report.all_pass()
        for name in MANDATORY_CLAIMS:
            assert report.claims[name].status is ClaimStatus.PASS
        assert report.charpolys["oriented"] == (1, 1, 1)
        assert report.determinants["oriented"] == 1
        assert report.witness["matrix"] == ((1, 0), (0, 1))

    def test_report_orientation_independent(self):
        # mandatory claim statuses agree across every orientation of a fixed
        # (tree, map); the sign-condition claims may flip between pass and
        # not-applicable (their hypotheses depend on the orientation) but can
        # never fail
        from arbormat.harness import trees_for

        for v in (3, 4):
            n = v - 1
            for tree in trees_for(v):
                for img in cycle_images(v):
                    f = VertexMap(tree, [int(x) for x in img[1:]])
                    reports = [
                        verify_instance(f, Orientation.from_int(bits, n))
                        for bits in range(1 << n)
                    ]
                    statuses = [
                        {k: r.claims[k].status for k in MANDATORY_CLAIMS}
                        for r in reports
                    ]
                    assert all(s == statuses[0] for s in statuses[1:])
                    for r in reports:
                        assert r.claims["uniform_sign"].status is not ClaimStatus.FAIL
                        assert r.claims["split_sign"].status is not ClaimStatus.FAIL
                    unoriented = {r.charpolys["unoriented"] for r in reports}
                    oriented = {r.charpolys["oriented"] for r in reports}
                    assert len(unoriented) == 1 and len(oriented) == 1

    def test_all_witnesses_flag(self, shift3):
        f, o = shift3
        report = verify_instance(f, o, all_witnesses=True)
        assert report.claims["basis_witness"].status is ClaimStatus.PASS
