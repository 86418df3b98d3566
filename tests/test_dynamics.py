import random

import pytest

from arbormat import (
    ExactMatrix,
    Orientation,
    QQ,
    VertexMap,
    ZZ,
    oriented_matrix,
    parse_map,
    path_image_check,
)
from arbormat.dynamics import _path_image_check_matrix
from arbormat.errors import (
    DimensionMismatch,
    NotPermutation,
    NotSingleCycle,
    ParseError,
)
from arbormat.harness import random_instances, trees_for
from arbormat._fast import cycle_images


class TestVertexMap:
    def test_valid_cycle(self, path3):
        f = VertexMap(path3, [2, 3, 1])
        assert f(1) == 2 and f.iterate(1, 3) == 1

    def test_fixed_point_rejected(self, path3):
        with pytest.raises(NotSingleCycle):
            VertexMap(path3, [1, 3, 2])

    def test_not_permutation(self, path3):
        with pytest.raises(NotPermutation):
            VertexMap(path3, [2, 2, 1])

    def test_two_cycles_rejected(self, star4):
        with pytest.raises(NotSingleCycle):
            VertexMap(star4, [2, 1, 4, 3])

    def test_parse_image_list(self, path3):
        assert parse_map("2,3,1", path3).image == (2, 3, 1)

    def test_parse_cycle_notation(self, path3):
        assert parse_map("(1 2 3)", path3).image == (2, 3, 1)

    def test_parse_cycle_must_cover(self, star4):
        with pytest.raises(ParseError):
            parse_map("(1 2 3)", star4)

    def test_parse_garbage(self, path3):
        with pytest.raises(ParseError):
            parse_map("2;3;1", path3)


class TestTransitionMatrices:
    def test_hand_instance(self, shift3):
        f, o = shift3
        tm = oriented_matrix(f, o)
        assert tm.oriented.rows == ((0, 1), (-1, -1))
        assert tm.unoriented.rows == ((0, 1), (1, 1))

    def test_orientation_length(self, shift3):
        f, _ = shift3
        with pytest.raises(DimensionMismatch):
            oriented_matrix(f, Orientation.canonical(3))

    def test_unoriented_is_abs(self):
        rng = random.Random(5)
        for f, o in random_instances(5, 25, 2, 6):
            tm = oriented_matrix(f, o)
            assert tm.unoriented.rows == tuple(
                tuple(abs(e) for e in row) for row in tm.oriented.rows
            )

    def test_row_supports_are_image_paths(self):
        # row i's nonzero coordinates are exactly the edges of the path
        # between the images of edge i's endpoints
        for f, o in random_instances(6, 25, 2, 6):
            tree = f.tree
            tm = oriented_matrix(f, o)
            for row, (a, b) in zip(tm.oriented.rows, tree.oriented_endpoints(o)):
                path = tree.path_vertices(f(a), f(b))
                edges_on_path = {
                    tree.edge_index(x, y) for x, y in zip(path, path[1:])
                }
                assert {k for k, e in enumerate(row) if e != 0} == edges_on_path

    def test_determinant_sign(self):
        for f, o in random_instances(7, 25, 2, 6):
            n = f.tree.edge_count
            assert oriented_matrix(f, o).oriented.determinant() == (-1) ** n

    def test_unoriented_orientation_invariant_and_conjugation(self):
        # exhaustive through n = 5: flipping orientations leaves the
        # unoriented matrix alone and conjugates the oriented one by the
        # corresponding +-1 diagonal matrix
        for v in range(3, 7):
            n = v - 1
            for tree in trees_for(v):
                for img in cycle_images(v):
                    f = VertexMap(tree, [int(x) for x in img[1:]])
                    base = oriented_matrix(f, Orientation.canonical(n))
                    for bits in range(1 << n):
                        o = Orientation.from_int(bits, n)
                        tm = oriented_matrix(f, o)
                        assert tm.unoriented == base.unoriented
                        signs = o.sign_vector()
                        conj = [
                            [signs[i] * signs[j] * base.oriented.rows[i][j] for j in range(n)]
                            for i in range(n)
                        ]
                        assert tm.oriented.rows == tuple(tuple(r) for r in conj)


class TestPhiApply:
    def test_basis_vector(self, shift3):
        f, o = shift3
        tm = oriented_matrix(f, o)
        assert tm.oriented.vec_mul((1, 0)) == (0, 1)
        assert tm.oriented.vec_mul((0, 0)) == (0, 0)
        assert tm.oriented.vec_mul((1, 1)) == (-1, 0)

    def test_dimension(self, shift3):
        f, o = shift3
        with pytest.raises(DimensionMismatch):
            oriented_matrix(f, o).oriented.vec_mul((1, 0, 0))


class TestInverseMap:
    def test_image(self, path3):
        f = VertexMap(path3, [2, 3, 1])
        assert f.inverse().image == (3, 1, 2)
        assert f.inverse().inverse() == f

    def test_matrix_inverse_over_rationals(self):
        for f, o in random_instances(9, 20, 2, 5):
            a = ExactMatrix(QQ, oriented_matrix(f, o).oriented.rows)
            a_inv = ExactMatrix(QQ, oriented_matrix(f.inverse(), o).oriented.rows)
            n = f.tree.edge_count
            assert a @ a_inv == ExactMatrix.identity(QQ, n)


class TestPathImage:
    def test_hand_instance(self, shift3):
        f, o = shift3
        assert path_image_check(f, o)

    def test_corrupted_matrix_fails(self, shift3):
        f, o = shift3
        good = oriented_matrix(f, o).oriented
        rows = [list(r) for r in good.rows]
        rows[0][1] = -rows[0][1]
        assert not _path_image_check_matrix(f, o, ExactMatrix(ZZ, rows))
