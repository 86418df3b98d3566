"""Vertex maps and their oriented / unoriented transition matrices.

A vertex map is represented purely by its vertex permutation, which must be a
single full-length cycle.  Row i of the oriented matrix is the signed path
vector of the image path of edge i; the unoriented matrix is its entrywise
absolute value.  The induced linear map acts on row vectors: w -> w . A.
"""

from __future__ import annotations

import re
from typing import Iterable

from .algebra import ExactMatrix
from .errors import DimensionMismatch, NotPermutation, NotSingleCycle, ParseError
from .rings import ZZ
from .trees import Orientation, Tree

__all__ = [
    "VertexMap",
    "TransitionMatrices",
    "parse_map",
    "oriented_matrix",
    "path_image_check",
]


class VertexMap:
    """Vertex permutation of a tree forming a single (n+1)-cycle."""

    __slots__ = ("tree", "image")

    def __init__(self, tree: Tree, image: Iterable[int]):
        img = tuple(image)
        v = tree.vertex_count
        if len(img) != v or sorted(img) != list(range(1, v + 1)):
            raise NotPermutation(
                f"image must be a permutation of 1..{v}, got {list(img)}"
            )
        # orbit of vertex 1 must already cover everything
        seen = 1
        x = img[0]
        while x != 1:
            x = img[x - 1]
            seen += 1
        if seen != v:
            raise NotSingleCycle(f"permutation {list(img)} is not a single {v}-cycle")
        self.tree = tree
        self.image = img

    def __call__(self, u: int) -> int:
        return self.image[u - 1]

    def iterate(self, u: int, k: int) -> int:
        """f^k(u) for k >= 0."""
        v = self.tree.vertex_count
        for _ in range(k % v):
            u = self.image[u - 1]
        return u

    def inverse(self) -> "VertexMap":
        inv = [0] * len(self.image)
        for u, fu in enumerate(self.image, start=1):
            inv[fu - 1] = u
        return VertexMap(self.tree, inv)

    def image_str(self) -> str:
        return ",".join(str(x) for x in self.image)

    def __eq__(self, other):
        return (
            isinstance(other, VertexMap)
            and other.tree == self.tree
            and other.image == self.image
        )

    def __hash__(self):
        return hash((self.tree, self.image))

    def __repr__(self):
        return f"VertexMap({self.tree!r}, {list(self.image)!r})"


_CYCLE_RE = re.compile(r"^\(\s*(\d+(?:\s+\d+)*)\s*\)$")


def parse_map(text: str, tree: Tree) -> VertexMap:
    """Parse an image list '2,3,1' or cycle notation '(1 2 3)'."""
    text = text.strip()
    match = _CYCLE_RE.match(text)
    try:
        if match:
            cycle = [int(tok) for tok in match.group(1).split()]
            if len(set(cycle)) != len(cycle):
                raise ParseError(f"repeated vertex in cycle {text!r}")
            if sorted(cycle) != list(range(1, tree.vertex_count + 1)):
                raise ParseError(
                    f"cycle must cover all {tree.vertex_count} vertices: {text!r}"
                )
            image = [0] * tree.vertex_count
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                image[a - 1] = b
            return VertexMap(tree, image)
        image = [int(tok) for tok in text.split(",")]
    except ParseError:
        raise
    except (ValueError, TypeError) as exc:
        raise ParseError(f"malformed vertex map {text!r}") from exc
    return VertexMap(tree, image)


class TransitionMatrices:
    """Oriented ({-1,0,1}) and unoriented ({0,1}) transition matrices."""

    __slots__ = ("oriented", "unoriented")

    def __init__(self, oriented: ExactMatrix):
        self.oriented = oriented
        self.unoriented = oriented.abs()


def oriented_matrix(f: VertexMap, orientation: Orientation) -> TransitionMatrices:
    """Build the transition matrices of f under the given edge orientation.

    Row i is the signed path vector from f(first) to f(second), where
    (first, second) are edge i's endpoints in oriented order.
    """
    tree = f.tree
    if len(orientation) != tree.edge_count:
        raise DimensionMismatch("orientation length does not match edge count")
    rows = [
        tree.signed_path_vector(orientation, f(a), f(b))
        for a, b in tree.oriented_endpoints(orientation)
    ]
    return TransitionMatrices(ExactMatrix(ZZ, rows))


def path_image_check(f: VertexMap, orientation: Orientation) -> bool:
    """Whether the matrix transports every path to the path of its images.

    True iff for every ordered vertex pair (u, v), applying the oriented
    matrix to the signed path vector of u -> v yields the signed path vector
    of f(u) -> f(v).
    """
    m = oriented_matrix(f, orientation)
    return _path_image_check_matrix(f, orientation, m.oriented)


def _path_image_check_matrix(
    f: VertexMap, orientation: Orientation, oriented: ExactMatrix
) -> bool:
    """Same identity against an arbitrary candidate matrix, checked on every
    ordered pair, each side read from one table of the v^2 path vectors."""
    vertices = range(1, f.tree.vertex_count + 1)
    spv = {(u, w): f.tree.signed_path_vector(orientation, u, w) for u in vertices for w in vertices}
    return all(oriented.vec_mul(x) == spv[f(u), f(w)] for (u, w), x in spv.items())
