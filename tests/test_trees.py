import pytest
from hypothesis import given, settings, strategies as st

from arbormat import (
    Orientation,
    Tree,
    canonical_form,
    decode_prufer,
    enumerate_trees,
    parse_tree,
    same_direction_orientation,
)
from arbormat.errors import (
    BadDimension,
    InvalidTree,
    OutOfRangeLabel,
    ParseError,
    UnknownVertex,
)
from arbormat.trees import path_edge_ordered, path_order

from oracles import encode_prufer, prufer_class_count


# strategy: a Prufer code determines a random labeled tree on 3..9 vertices
codes = st.integers(3, 9).flatmap(
    lambda v: st.lists(st.integers(1, v), min_size=v - 2, max_size=v - 2)
)


class TestPrufer:
    def test_rejects_two_vertices(self):
        with pytest.raises(BadDimension):
            decode_prufer([])

    def test_star(self):
        t = decode_prufer([1, 1])
        assert set(t.edges) == {(1, 2), (1, 3), (1, 4)}
        assert t.degree(1) == 3

    def test_path(self):
        t = decode_prufer([2, 3])
        assert set(t.edges) == {(1, 2), (2, 3), (3, 4)}

    def test_label_out_of_range(self):
        with pytest.raises(OutOfRangeLabel):
            decode_prufer([5, 1])

    @given(codes)
    def test_round_trip_codes(self, code):
        assert list(encode_prufer(decode_prufer(code))) == list(code)

    def test_round_trip_trees(self):
        for v in range(3, 8):
            for t in enumerate_trees(v):
                again = decode_prufer(list(encode_prufer(t)))
                assert set(again.edges) == set(t.edges)


class TestEnumeration:
    def test_known_counts(self):
        for v, count in [(3, 1), (4, 2), (5, 3), (6, 6), (7, 11), (8, 23)]:
            assert len(list(enumerate_trees(v))) == count

    def test_counts_match_bruteforce(self):
        for v in range(3, 9):
            assert len(list(enumerate_trees(v))) == prufer_class_count(v)

    def test_cap(self):
        with pytest.raises(BadDimension):
            list(enumerate_trees(2))

    def test_representatives_pairwise_nonisomorphic(self):
        for v in range(3, 8):
            codes = [canonical_form(t) for t in enumerate_trees(v)]
            assert len(codes) == len(set(codes))

    def test_same_trees_in_same_order_as_networkx(self):
        # tree indices and edge lists appear in the sweep documents
        nx = pytest.importorskip("networkx")
        for v in range(3, 13):
            want = [
                sorted((min(a, b) + 1, max(a, b) + 1) for a, b in g.edges())
                for g in nx.nonisomorphic_trees(v)
            ]
            assert [list(t.edges) for t in enumerate_trees(v)] == want


class TestTreeValidation:
    def test_bad_labels(self):
        with pytest.raises(InvalidTree):
            Tree([(1, 2), (4, 5)])

    def test_duplicate_edge(self):
        with pytest.raises(InvalidTree):
            Tree([(1, 2), (2, 1), (2, 3)])

    def test_self_loop(self):
        with pytest.raises(InvalidTree):
            Tree([(1, 1), (2, 3)])

    def test_two_vertices_rejected(self):
        with pytest.raises(BadDimension):
            Tree([(1, 2)])


class TestPaths:
    def test_path_examples(self, path3, star4):
        assert path3.path_vertices(1, 3) == (1, 2, 3)
        assert path3.path_vertices(2, 2) == (2,)
        assert star4.path_vertices(2, 3) == (2, 1, 3)

    def test_unknown_vertex(self, path3):
        with pytest.raises(UnknownVertex):
            path3.path_vertices(1, 9)

    def test_reversal(self, star4):
        assert star4.path_vertices(4, 3) == tuple(reversed(star4.path_vertices(3, 4)))

    def test_signed_examples(self, path3, star4):
        c2 = Orientation.canonical(2)
        c3 = Orientation.canonical(3)
        assert path3.signed_path_vector(c2, 1, 3) == (1, 1)
        assert path3.signed_path_vector(c2, 3, 1) == (-1, -1)
        assert path3.signed_path_vector(c2, 2, 2) == (0, 0)
        assert star4.signed_path_vector(c3, 2, 3) == (-1, 1, 0)

    @given(codes, st.data())
    @settings(max_examples=60)
    def test_antisymmetry_and_telescoping(self, code, data):
        t = decode_prufer(code)
        v = t.vertex_count
        o = Orientation.from_int(data.draw(st.integers(0, 2**t.edge_count - 1)), t.edge_count)
        u, w, x = (data.draw(st.integers(1, v)) for _ in range(3))
        suv = t.signed_path_vector(o, u, w)
        assert t.signed_path_vector(o, w, u) == tuple(-c for c in suv)
        total = tuple(
            a + b
            for a, b in zip(suv, t.signed_path_vector(o, w, x))
        )
        assert total == t.signed_path_vector(o, u, x)

    @given(codes, st.data())
    @settings(max_examples=40)
    def test_flip_negates_one_coordinate(self, code, data):
        t = decode_prufer(code)
        n = t.edge_count
        o = Orientation.from_int(data.draw(st.integers(0, 2**n - 1)), n)
        k = data.draw(st.integers(0, n - 1))
        u = data.draw(st.integers(1, t.vertex_count))
        w = data.draw(st.integers(1, t.vertex_count))
        flipped = Orientation(b != (i == k) for i, b in enumerate(o.bits))
        before = t.signed_path_vector(o, u, w)
        after = t.signed_path_vector(flipped, u, w)
        expected = tuple(-c if i == k else c for i, c in enumerate(before))
        assert after == expected


class TestCanonicalForm:
    def test_path_vs_star(self):
        assert canonical_form(decode_prufer([2, 3])) != canonical_form(decode_prufer([1, 1]))

    def test_relabeled_path(self):
        a = Tree([(1, 2), (2, 3)])
        b = Tree([(1, 2), (1, 3)])  # path 2-1-3
        assert canonical_form(a) == canonical_form(b)

    @given(codes, st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_relabel_invariance(self, code, rng):
        t = decode_prufer(code)
        v = t.vertex_count
        perm = list(range(1, v + 1))
        rng.shuffle(perm)
        relabeled = Tree([(perm[a - 1], perm[b - 1]) for a, b in t.edges])
        assert canonical_form(t) == canonical_form(relabeled)


class TestParsingAndOrientation:
    def test_parse_edge_list(self):
        t = parse_tree("1-2,2-3,3-4")
        assert t.edges == ((1, 2), (2, 3), (3, 4))

    def test_parse_prufer(self):
        t = parse_tree("1,1")
        assert set(t.edges) == {(1, 2), (1, 3), (1, 4)}

    def test_parse_garbage(self):
        for bad in ("", "1-2,xyz", "a,b"):
            with pytest.raises(ParseError):
                parse_tree(bad)

    def test_orientation_bitstring(self):
        o = Orientation.from_bitstring("010")
        assert o.bits == (False, True, False)
        assert o.bitstring() == "010"
        with pytest.raises(ParseError):
            Orientation.from_bitstring("01x")

    def test_same_direction(self):
        t = Tree([(1, 2), (1, 4), (2, 3)])  # path 4-1-2-3
        o = same_direction_orientation(t)
        order = path_order(t)
        assert order == (3, 2, 1, 4)
        for a, b in zip(order, order[1:]):
            idx = t.edge_index(a, b)
            sign = 1 if a < b else -1
            if o.bits[idx]:
                sign = -sign
            assert sign == 1  # every edge points along the walk

    def test_path_edge_ordered(self):
        t = Tree([(1, 2), (1, 4), (2, 3)])
        p = path_edge_ordered(t)
        assert p.edges == ((2, 3), (1, 2), (1, 4))

    def test_not_a_path(self, star4):
        with pytest.raises(InvalidTree):
            path_order(star4)
