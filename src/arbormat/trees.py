"""Trees on labeled vertices 1..v, orientations, and signed path vectors.

An edge list fixes the edge indexing: edge i is the i-th pair given at
construction.  The canonical direction of an edge points from its smaller
endpoint to its larger one; an :class:`Orientation` records which edges are
reversed.  A signed path vector is a plain tuple of n ints in {-1, 0, 1}
recording, per edge, whether the unique path crosses it along or against its
chosen direction.

A tree comes from an edge list or from a Prufer code (:func:`decode_prufer`,
which :func:`parse_tree` uses for codes).  :func:`enumerate_trees` lists one
tree per isomorphism class and sets no size limit of its own: the command
line and the sweeps bound the vertex count before they call it.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, Sequence

from .errors import (
    BadDimension,
    DimensionMismatch,
    InvalidTree,
    OutOfRangeLabel,
    ParseError,
    UnknownVertex,
)

__all__ = [
    "Tree",
    "Orientation",
    "decode_prufer",
    "enumerate_trees",
    "canonical_form",
    "parse_tree",
    "same_direction_orientation",
]


class Tree:
    """Tree on vertices 1..v given as an ordered list of n = v-1 edges."""

    __slots__ = ("edges", "vertex_count", "adjacency", "parent", "depth")

    def __init__(self, edges: Iterable[Sequence[int]]):
        norm = []
        seen = set()
        for pair in edges:
            a, b = pair
            if a == b:
                raise InvalidTree(f"self-loop at vertex {a}")
            if a > b:
                a, b = b, a
            if (a, b) in seen:
                raise InvalidTree(f"duplicate edge {a}-{b}")
            seen.add((a, b))
            norm.append((a, b))
        v = len(norm) + 1
        if v < 3:
            raise BadDimension("trees must have at least 3 vertices (n >= 2)")
        labels = {a for a, _ in norm} | {b for _, b in norm}
        if labels != set(range(1, v + 1)):
            raise InvalidTree(
                f"vertex labels must be exactly 1..{v}, got {sorted(labels)}"
            )
        adj: list[list[tuple[int, int]]] = [[] for _ in range(v + 1)]
        for idx, (a, b) in enumerate(norm):
            adj[a].append((b, idx))
            adj[b].append((a, idx))
        # connected with v-1 edges => acyclic; the search from vertex 1 also
        # roots the tree there for path_vertices
        parent, depth = [0] * (v + 1), [-1] * (v + 1)
        depth[1] = 0
        queue = [1]
        for u in queue:
            for w, _ in adj[u]:
                if depth[w] < 0:
                    parent[w], depth[w] = u, depth[u] + 1
                    queue.append(w)
        if len(queue) != v:
            raise InvalidTree("edge list is not connected")
        self.edges = tuple(norm)
        self.vertex_count = v
        self.adjacency = tuple(tuple(nbrs) for nbrs in adj)
        self.parent, self.depth = tuple(parent), tuple(depth)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, u: int) -> int:
        self._check_vertex(u)
        return len(self.adjacency[u])

    def is_path(self) -> bool:
        return all(len(nbrs) <= 2 for nbrs in self.adjacency[1:])

    def path_vertices(self, u: int, v: int) -> tuple[int, ...]:
        """The unique simple path from u to v, inclusive."""
        self._check_vertex(u)
        self._check_vertex(v)
        # walk the deeper end up until both ends meet at their common ancestor
        head, tail = [u], [v]
        while head[-1] != tail[-1]:
            if self.depth[head[-1]] >= self.depth[tail[-1]]:
                head.append(self.parent[head[-1]])
            else:
                tail.append(self.parent[tail[-1]])
        return tuple(head + tail[-2::-1])

    def signed_path_vector(self, orientation: "Orientation", u: int, v: int) -> tuple[int, ...]:
        """Edge-indexed vector of the path u -> v: +1 along, -1 against, 0 off."""
        if len(orientation) != self.edge_count:
            raise DimensionMismatch("orientation length does not match edge count")
        path = self.path_vertices(u, v)
        coords = [0] * self.edge_count
        bits = orientation.bits
        for a, b in zip(path, path[1:]):
            idx = self.edge_index(a, b)
            sign = 1 if a < b else -1
            if bits[idx]:
                sign = -sign
            coords[idx] = sign
        return tuple(coords)

    def edge_index(self, a: int, b: int) -> int:
        for w, idx in self.adjacency[a]:
            if w == b:
                return idx
        raise UnknownVertex(f"no edge between {a} and {b}")

    def oriented_endpoints(self, orientation: "Orientation") -> tuple[tuple[int, int], ...]:
        """Per edge, (first, second) vertex under the given orientation."""
        if len(orientation) != self.edge_count:
            raise DimensionMismatch("orientation length does not match edge count")
        out = []
        for (a, b), rev in zip(self.edges, orientation.bits):
            out.append((b, a) if rev else (a, b))
        return tuple(out)

    def _check_vertex(self, u: int):
        if not (isinstance(u, int) and 1 <= u <= self.vertex_count):
            raise UnknownVertex(f"vertex {u} not in 1..{self.vertex_count}")

    def edge_list_str(self) -> str:
        return ",".join(f"{a}-{b}" for a, b in self.edges)

    def __eq__(self, other):
        return isinstance(other, Tree) and other.edges == self.edges

    def __hash__(self):
        return hash(self.edges)

    def __repr__(self):
        return f"Tree({self.edge_list_str()!r})"


class Orientation:
    """Direction choice per edge; bit i reverses edge i from its canonical
    smaller-to-larger direction."""

    __slots__ = ("bits",)

    def __init__(self, bits: Iterable[bool]):
        self.bits = tuple(bool(b) for b in bits)

    @classmethod
    def canonical(cls, n: int) -> "Orientation":
        return cls((False,) * n)

    @classmethod
    def from_bitstring(cls, s: str) -> "Orientation":
        if not s or any(c not in "01" for c in s):
            raise ParseError(f"orientation bitstring must match [01]+, got {s!r}")
        return cls(c == "1" for c in s)

    @classmethod
    def from_int(cls, mask: int, n: int) -> "Orientation":
        return cls(bool((mask >> i) & 1) for i in range(n))

    def bitstring(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)

    def sign_vector(self) -> tuple[int, ...]:
        return tuple(-1 if b else 1 for b in self.bits)

    def __len__(self):
        return len(self.bits)

    def __eq__(self, other):
        return isinstance(other, Orientation) and other.bits == self.bits

    def __hash__(self):
        return hash(self.bits)

    def __repr__(self):
        return f"Orientation({self.bitstring()!r})"


def decode_prufer(code: Sequence[int]) -> Tree:
    """The unique labeled tree on len(code)+2 vertices with the given code."""
    v = len(code) + 2
    if v < 3:
        raise BadDimension("need at least 3 vertices, so at least 1 code entry")
    for c in code:
        if not (isinstance(c, int) and 1 <= c <= v):
            raise OutOfRangeLabel(f"code entry {c} outside 1..{v}")
    degree = [1] * (v + 1)
    for c in code:
        degree[c] += 1
    leaves = [u for u in range(1, v + 1) if degree[u] == 1]
    heapq.heapify(leaves)
    edges = []
    for c in code:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, c), max(leaf, c)))
        degree[c] -= 1
        if degree[c] == 1:
            heapq.heappush(leaves, c)
    a = heapq.heappop(leaves)
    b = heapq.heappop(leaves)
    edges.append((min(a, b), max(a, b)))
    return Tree(edges)


def enumerate_trees(v: int) -> Iterator[Tree]:
    """One representative per unlabeled tree on v vertices, deterministic order."""
    if v < 3:
        raise BadDimension("tree enumeration starts at 3 vertices")
    for layout in _free_tree_layouts(v):
        parents = []  # vertices of the current root path
        edges = []
        for x, level in enumerate(layout, start=1):
            del parents[level:]
            if parents:
                edges.append((parents[-1], x))
            parents.append(x)
        yield Tree(sorted(edges))


def _free_tree_layouts(v: int) -> Iterator[list[int]]:
    """Level sequences (depth of each vertex in preorder) of one rooted
    representative per free tree on v >= 3 vertices, in the order of the
    algorithm of Wright, Richmond, Odlyzko and McKay (SIAM J. Comput. 15,
    1986), which is also networkx's ``nonisomorphic_trees`` order."""
    layout = list(range(v // 2 + 1)) + list(range(1, (v + 1) // 2))  # path
    while layout is not None:
        left, rest = _split_layout(layout)
        # a free tree's representative is rooted at its centre: the subtree
        # hanging off the root's first child is no higher than the rest,
        # and no larger or later when equally high
        if (max(left), len(left), left) > (max(rest), len(rest), rest):
            p = len(left)
            skip = _next_rooted_layout(layout, p)
            if layout[p] > 2:
                height = max(_split_layout(skip)[0])
                skip[-height - 1 :] = range(1, height + 2)
            layout = skip
        yield layout
        layout = _next_rooted_layout(layout)


def _split_layout(layout: list[int]) -> tuple[list[int], list[int]]:
    """The subtree of the root's first child, relevelled, and the rest."""
    m = next((i for i in range(2, len(layout)) if layout[i] == 1), len(layout))
    return [x - 1 for x in layout[1:m]], [0] + layout[m:]


def _next_rooted_layout(layout: list[int], p: int | None = None):
    """The Beyer-Hedetniemi successor of a rooted level sequence, from its
    last vertex not at depth 1 or from position p; None after the star."""
    if p is None:
        p = max(i for i, level in enumerate(layout) if level != 1)
    if p == 0:
        return None
    q = max(i for i in range(p) if layout[i] == layout[p] - 1)
    out = list(layout)
    for i in range(p, len(out)):
        out[i] = out[i - p + q]
    return out


def canonical_form(tree: Tree) -> str:
    """Isomorphism-invariant code: AHU strings rooted at the tree center(s)."""
    centers = _centers(tree)

    def code(root: int, parent: int) -> str:
        kids = sorted(
            code(w, root) for w, _ in tree.adjacency[root] if w != parent
        )
        return "(" + "".join(kids) + ")"

    if len(centers) == 1:
        return code(centers[0], 0)
    a, b = centers
    return "".join(sorted((code(a, b), code(b, a))))


def _centers(tree: Tree) -> list[int]:
    v = tree.vertex_count
    degree = [len(tree.adjacency[u]) if u else 0 for u in range(v + 1)]
    layer = [u for u in range(1, v + 1) if degree[u] == 1]
    removed = len(layer)
    while removed < v:
        nxt = []
        for u in layer:
            degree[u] = 0
            for w, _ in tree.adjacency[u]:
                if degree[w] > 1:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        if not nxt:
            break
        removed += len(nxt)
        layer = nxt
    return sorted(layer)


def parse_tree(text: str) -> Tree:
    """Parse '1-2,2-3' (edge list) or '1,1' (Prufer code)."""
    text = text.strip()
    if not text:
        raise ParseError("empty tree description")
    try:
        if "-" in text:
            edges = []
            for part in text.split(","):
                a, b = part.strip().split("-")
                edges.append((int(a), int(b)))
            return Tree(edges)
        code = [int(part) for part in text.split(",")]
        return decode_prufer(code)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"malformed tree description {text!r}") from exc


def path_order(tree: Tree) -> tuple[int, ...]:
    """Vertex order along a path graph, starting at its smaller endpoint."""
    if not tree.is_path():
        raise InvalidTree("tree is not a path graph")
    ends = [u for u in range(1, tree.vertex_count + 1) if tree.degree(u) == 1]
    start = min(ends)
    order = [start]
    prev = 0
    while len(order) < tree.vertex_count:
        nxt = next(w for w, _ in tree.adjacency[order[-1]] if w != prev)
        prev = order[-1]
        order.append(nxt)
    return tuple(order)


def same_direction_orientation(tree: Tree) -> Orientation:
    """Orientation pointing every edge of a path graph the same way along it."""
    order = path_order(tree)
    bits = [False] * tree.edge_count
    for a, b in zip(order, order[1:]):
        bits[tree.edge_index(a, b)] = a > b
    return Orientation(bits)


def path_edge_ordered(tree: Tree) -> Tree:
    """The same path graph with edges reindexed along the path.

    Contiguity statements about signed path vectors (Petrie structure) are
    relative to this interval-style indexing."""
    order = path_order(tree)
    return Tree(list(zip(order, order[1:])))
