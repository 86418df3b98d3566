"""Bundled golden matrices with known characteristic polynomials.

Each fixture file records one printed transition matrix panel: an oriented
{-1,0,1} matrix and the expected characteristic polynomial of its entrywise
absolute value (constant term first).  Panel 4 additionally records a printed
{0,1} matrix and the {0,±1,±2} row-operation matrix whose product reproduces
the oriented matrix.

File grammar (whitespace separated)::

    figure <id>
    n <size>
    [edge_order <comma separated>]      # accepted, not used
    [row_ops / unoriented sections]     # panel 4 only
    oriented
    <size lines of integers>
    unoriented_charpoly <coefficients, constant first>

:func:`check_fixture` returns one named verdict per check and raises on none
of them; ``arbormat reproduce`` reports a failed caption check on stderr.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from . import _fast
from .algebra import ExactMatrix, ExactPolynomial
from .dynamics import VertexMap, oriented_matrix
from .errors import FixtureMissing, ParseError
from .rings import ZZ
from .theorems import _witness_rows, matrix_claims, witness_pairs
from .trees import Orientation, Tree, enumerate_trees

__all__ = [
    "FIGURE_IDS",
    "Fixture",
    "load_fixture",
    "check_fixture",
    "reconstruct_instance",
]

FIGURE_IDS = ("1a", "1b", "1c", "1d", "1e", "1f", "2a", "2b", "3a", "3b", "4")

_MATRIX_SECTIONS = ("oriented", "row_ops", "unoriented")


@dataclass(frozen=True)
class Fixture:
    figure: str
    n: int
    oriented: ExactMatrix
    caption_charpoly: ExactPolynomial
    row_ops: Optional[ExactMatrix] = None
    unoriented_printed: Optional[ExactMatrix] = None


def default_fixture_dir() -> Path:
    return Path(resources.files("arbormat").joinpath("fixtures"))


def load_fixture(figure: str, directory: Optional[Path] = None) -> Fixture:
    directory = Path(directory) if directory else default_fixture_dir()
    path = directory / f"figure{figure}.txt"
    if not path.is_file():
        raise FixtureMissing(f"no fixture file {path}")
    fields: dict = {}
    section = None
    rows: list[list[int]] = []

    def close_section():
        nonlocal section, rows
        if section:
            fields[section] = ExactMatrix(ZZ, rows)
        section, rows = None, []

    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head = line.split()[0]
        if head in _MATRIX_SECTIONS:
            close_section()
            section = head
            continue
        if head in ("figure", "n", "edge_order", "unoriented_charpoly"):
            close_section()
            value = line[len(head):].strip()
            fields[head] = value
            continue
        if section is None:
            raise ParseError(f"{path}: unexpected line {line!r}")
        rows.append([int(tok) for tok in line.split()])
    close_section()

    try:
        n = int(fields["n"])
        oriented = fields["oriented"]
        caption = ExactPolynomial(ZZ, [int(t) for t in fields["unoriented_charpoly"].split()])
    except (KeyError, ValueError) as exc:
        raise ParseError(f"{path}: incomplete fixture") from exc
    if oriented.nrows != n or oriented.ncols != n:
        raise ParseError(f"{path}: oriented matrix is not {n}x{n}")
    return Fixture(
        figure=fields.get("figure", figure),
        n=n,
        oriented=oriented,
        caption_charpoly=caption,
        row_ops=fields.get("row_ops"),
        unoriented_printed=fields.get("unoriented"),
    )


def check_fixture(fixture: Fixture) -> dict[str, bool]:
    """Every matrix-level claim checkable without knowing the source tree."""
    a = fixture.oriented
    b = a.abs()
    checks = matrix_claims(a)
    checks["unoriented_charpoly_caption"] = b.charpoly() == fixture.caption_charpoly
    if fixture.unoriented_printed is not None:
        checks["printed_unoriented_is_abs"] = fixture.unoriented_printed == b
    if fixture.row_ops is not None and fixture.unoriented_printed is not None:
        checks["printed_product_identity"] = (
            fixture.row_ops @ fixture.unoriented_printed == a
        )
    return checks


# --------------------------------------------------------------------------
# best-effort reconstruction of a (tree, map, orientation) behind a printed
# matrix; only the matrices were printed, so this searches for any instance
# whose oriented matrix is monomial-conjugate to the target, then reindexes
# edges to reproduce it bit-exactly.


def _solve_signs(m1, m2, n):
    """Find d in {-1,1}^n with m2[p][q] == d[p]*d[q]*m1[p][q], or None."""
    d = [0] * n
    for root in range(n):
        if d[root]:
            continue
        d[root] = 1
        stack = [root]
        while stack:
            p = stack.pop()
            for q in range(n):
                if m1[p][q] == 0:
                    continue
                ratio = m2[p][q] // m1[p][q]
                if d[q] == 0:
                    d[q] = d[p] * ratio
                    stack.append(q)
                elif d[q] != d[p] * ratio:
                    return None
    return d


def reconstruct_instance(fixture: Fixture, max_results: int = 4) -> list[dict]:
    """Search instances on n+1 vertices reproducing the printed matrix.

    Returns reconstructions as dicts with tree/map/orientation strings plus
    the witness charpoly for the seed path from vertex 1 to vertex 2 when
    that pair is a coprime iterate.  Only supported for 5x5 panels.
    """
    n = fixture.n
    if n != 5:
        return []
    v = n + 1
    target = [list(r) for r in fixture.oriented.rows]
    target_abs = [[abs(e) for e in row] for row in target]
    caption = fixture.caption_charpoly
    perms = list(itertools.permutations(range(n)))
    images = _fast.cycle_images(v)
    results = []
    for tree in enumerate_trees(v):
        first, second = _fast.oriented_endpoint_arrays(tree, 0)
        batch = _fast.build_oriented_batch(_fast.root_vectors(tree), images, first, second)
        cps = _fast.batched_charpoly(np.abs(batch))
        want = np.array(caption.coeffs, dtype=np.int64)
        hits = np.all(cps == want, axis=1)
        for idx in np.nonzero(hits)[0]:
            cand = [list(map(int, row)) for row in batch[idx]]
            cand_abs = [[abs(e) for e in row] for row in cand]
            for sigma in perms:
                if any(
                    cand_abs[sigma[k]][sigma[l]] != target_abs[k][l]
                    for k in range(n)
                    for l in range(n)
                ):
                    continue
                m2 = [[0] * n for _ in range(n)]  # target pulled back to candidate indexing
                for k in range(n):
                    for l in range(n):
                        m2[sigma[k]][sigma[l]] = target[k][l]
                signs = _solve_signs(cand, m2, n)
                if signs is None:
                    continue
                edges = [tree.edges[sigma[k]] for k in range(n)]
                bits = [signs[sigma[k]] < 0 for k in range(n)]
                new_tree = Tree(edges)
                orientation = Orientation(bits)
                image = [int(x) for x in images[idx][1:]]
                f = VertexMap(new_tree, image)
                rebuilt = oriented_matrix(f, orientation).oriented
                if [list(r) for r in rebuilt.rows] != target:
                    continue
                entry = {
                    "tree": new_tree.edge_list_str(),
                    "map": f.image_str(),
                    "orientation": orientation.bitstring(),
                    "seed_charpolys": _seed_charpolys(f, orientation),
                }
                results.append(entry)
                break
        if len(results) >= max_results:
            break
    return results[:max_results]


def _seed_charpolys(f: VertexMap, orientation: Orientation) -> list[list[int]]:
    """Distinct witness-matrix charpolys over all coprime seed paths.

    The printed panels carry no vertex labels, so a pinned witness value can
    only be matched up to relabeling: it must appear in this list."""
    seen = {
        _witness_rows(f, orientation, i, j)[1].charpoly().coeffs
        for i, j in witness_pairs(f.tree.vertex_count)
    }
    return [list(coeffs) for coeffs in sorted(seen)]
