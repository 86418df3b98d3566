"""The path-transport certificate behind the theorem, witness, determinant
and path-graph claims of the sweeps.

Let f be a single (n+1)-cycle vertex map, A its oriented transition matrix,
x_k = f^k(1), and r(x) the oriented root vector (the signed path vector of
1 -> x, so r(1) = 0).  Path transport r(w).A = r(f(w)) - r(f(1)) for every
vertex w makes every iterate of a seed a signed path vector: row k of the
witness matrix Mf(x_m, j) is r(x_{m+k+j}) - r(x_{m+k}), indices mod n + 1.
Hence

* Mf(1, j) = T(n, j).R_f, where R_f has rows r(x_1), ..., r(x_n) and row k
  of T(n, j) is e_{k+j} - e_k over the orbit positions 0..n with column 0
  dropped (see :func:`step_det`);
* the n + 1 differences sum to zero, so Mf.A = C.Mf for the companion
  matrix C of 1 + x + ... + x^n, and Mf(x_m, j) = C^m.Mf(1, j);
* R_f permutes the rows of R_{2..v} (rows r(2), ..., r(v)), so

      det Mf(x_m, j) = (-1)^(n m) . det T(n, j) . sgn(sigma_f) . det R_{2..v}

  with sigma_f listing 2..v in orbit order.

det T(n, j) = 1 for j coprime to n + 1, and R_{2..v} is unimodular
(triangular in breadth-first order).  So every Mf is unimodular, and A =
Mf^-1.C.Mf over Z: A has the charpoly, the determinant and the vanishing
geometric sum of C, and B = |A| == A mod 2 is similar to C over GF(2).
Every row of every Mf is a signed path vector, so Mf is a Petrie matrix
when every signed path vector of the oriented tree is a contiguous
single-signed block (a path tree oriented along the line); and when each
row of A has one sign, B = S.A for the diagonal S of those signs, so
|det B| = |det A| = 1.

A row is certified when it passes path transport and the exact
determinants det R_{2..v} and det T(n, j) of its tree, orientation and
steps are +-1; both are computed by :class:`arbormat.algebra.ExactMatrix`
once per process and key.  Certified rows pass every claim with |det Mf| =
1, so they are kept as a count, not as per-row arrays.  :func:`decide`
sends every other row, and a fixed audit set of every chunk, to the direct
kernels, which stay the referee: on a certified audit row the direct values
must equal the closed form, whose signed det Mf is evaluated on those rows
only.

The direct rows are not decided at once.  :data:`QUEUE` holds the direct
rows of every chunk a worker has claimed, each row with an index into the
distinct oriented trees of the batch, and decides them by one call of the
direct claims function per vertex count, in blocks of at most CYCLE_CHUNK
rows: whenever that many rows are queued, and when the worker runs out of
tasks.  Work waiting on a chunk's verdicts, such as its tally, runs after
that call, in the order it was queued.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from . import _fast
from .algebra import ExactMatrix
from .rings import ZZ
from .theorems import coprime_steps
from .trees import Tree

# A quarter of the 8! cycles of one n = 8 task: its (B, n, n) int64
# temporaries stay near 45 MB instead of 175 MB, and n <= 7 is never split.
# It also bounds the rows of one direct call (see QUEUE).
CYCLE_CHUNK = 10_080
AUDIT_ROWS = 16  # rows of every chunk also decided on the direct route
# the claim an audit row fails when its direct values differ from the
# closed form
AUDIT_AGREEMENT = "derived_claims_agree"


@lru_cache(maxsize=None)
def step_det(n: int, j: int) -> int:
    """Exact det T(n, j).  Row k of T(n, j) is e_{k+j} - e_k over the orbit
    positions 0..n, indices mod n + 1, with column 0 dropped: position 0 is
    vertex 1, whose root vector is zero."""
    v = n + 1
    rows = [[0] * v for _ in range(n)]
    for k in range(n):
        rows[k][(k + j) % v] += 1
        rows[k][k] -= 1
    return ExactMatrix(ZZ, [row[1:] for row in rows]).determinant()


@lru_cache(maxsize=256)
def root_det(edges: tuple, bits: int) -> int:
    """Exact det R_{2..v} of a tree under an orientation bitmask: its rows
    are the oriented root vectors r(2), ..., r(v)."""
    roots = _fast.root_vectors(Tree(edges))[2:] * _fast.orientation_signs(bits, len(edges))
    return ExactMatrix(ZZ, roots.tolist()).determinant()


def start_vertex_orbit(images: np.ndarray):
    """orbit[:, k] = f^k(1) for k = 0..v-1, and position[:, f^k(1)] = k."""
    b, v = images.shape[0], images.shape[1] - 1
    orbit = np.empty((b, v), dtype=np.int64)
    orbit[:, 0] = 1
    rows = np.arange(b)
    for k in range(1, v):
        orbit[:, k] = images[rows, orbit[:, k - 1]]
    position = np.zeros_like(images)
    np.put_along_axis(position, orbit, np.arange(v), axis=1)
    return orbit, position


def permutation_sign(seq: np.ndarray) -> np.ndarray:
    """(-1)^inversions of every row of distinct values."""
    inversions = np.zeros(seq.shape[0], dtype=np.int64)
    for k in range(seq.shape[1] - 1):
        inversions += (seq[:, k, None] > seq[:, k + 1 :]).sum(axis=1)
    return 1 - 2 * (inversions % 2)


def certified_rows(o, images, a, steps) -> np.ndarray:
    """Rows of the oriented tree ``o`` that pass path transport, all False
    unless det R_{2..v} and det T(n, j) of every step j are +-1."""
    n = a.shape[1]
    certified = _fast.batched_path_image_ok(o.table[1], images, a)
    if abs(root_det(o.tree.edges, o.bits)) != 1 or any(
        abs(step_det(n, j)) != 1 for j in steps
    ):
        certified[:] = False
    return certified


def closed_form_dets(o, images):
    """Signed det Mf(i, j) of every witness pair, ordered as witness_pairs
    orders them, from the closed form; meaningful on certified rows."""
    b, v = images.shape[0], images.shape[1] - 1
    n = v - 1
    orbit, position = start_vertex_orbit(images)
    step_dets = np.array([step_det(n, j) for j in coprime_steps(v)], dtype=np.int64)
    first = root_det(o.tree.edges, o.bits) * permutation_sign(orbit[:, 1:])
    sign = 1 - 2 * (n * position[:, 1:] % 2)  # (-1)^(n m) for i = x_m = 1..v
    det = first[:, None, None] * step_dets[None, :, None] * sign[:, None, :]
    return det.reshape(b, -1)


def audit_rows(b: int) -> np.ndarray:
    """The audit set of a b-row chunk: AUDIT_ROWS rows evenly spaced through
    it, or every row of a smaller chunk.  It depends on b alone, so it is
    the same for any worker count."""
    if b <= AUDIT_ROWS:
        return np.arange(b)
    return np.arange(AUDIT_ROWS) * b // AUDIT_ROWS


class Decided:
    """The claims of one chunk of ``size`` rows: ``values`` holds per-row
    arrays over the chunk rows ``rows``, ascending; every other row is
    certified, so it passes every claim and its |det Mf| is 1.  A chunk
    with direct rows is complete once QUEUE has decided them."""

    def __init__(self, size: int, rows: np.ndarray, values: dict):
        self.size, self.rows, self.values = size, rows, values

    def settle(self, rows, checked, counts, direct: dict) -> None:
        """Take the direct values of the chunk rows ``rows``.  A ``checked``
        one (a certified audit row) whose direct values differ from the
        closed form fails AUDIT_AGREEMENT and is counted in ``counts``."""
        mask = np.zeros(self.size, dtype=bool)
        mask[self.rows] = mask[rows] = True
        union = np.nonzero(mask)[0]
        kept, at = np.searchsorted(union, self.rows), np.searchsorted(union, rows)
        agrees = np.ones(union.size, dtype=bool)
        values = {}
        for k, x in direct.items():
            out = np.empty((union.size,) + x.shape[1:], dtype=x.dtype)
            if k in self.values:
                out[kept] = self.values[k]
                agrees[at] &= (out[at] == x).reshape(rows.size, -1).all(axis=1) | ~checked
            out[at] = x
            values[k] = out
        counts.disagreements += int((~agrees).sum())
        values[AUDIT_AGREEMENT] = agrees
        self.rows, self.values = union, values

    def carried(self, det_d: int, signed: tuple, bad, redo) -> "Decided":
        """These claims under another orientation A_o = D.A.D: values under
        a ``signed`` key times det D, and the rows ``bad``, which fail that
        similarity, replaced by ``redo``, their claims as a chunk of their
        own (None when there are none)."""
        keep = ~np.isin(self.rows, bad)
        parts = [(self.rows[keep], {
            k: x[keep] * det_d if k in signed else x[keep] for k, x in self.values.items()
        })]
        if redo is not None:
            parts.append((bad[redo.rows], redo.values))
        rows = np.concatenate([r for r, _ in parts])
        order = np.argsort(rows)
        values = {k: np.concatenate([x[k] for _, x in parts])[order] for k in self.values}
        return Decided(self.size, rows[order], values)


class OrientedRows(NamedTuple):
    """The oriented trees of a batch of rows: row k is under
    ``oriented[index[k]]``, whose signed path table is ``tables[index[k]]``."""

    oriented: tuple
    tables: np.ndarray  # (T, v+1, v+1, n)
    index: np.ndarray


def decide(derived, direct, o, images, a, counts) -> Decided:
    """Claims of one chunk: the closed form on certified rows, the direct
    route on the rows that fail the certificate and on the audit rows.

    ``derived(o, images, a, audit)`` returns the certified rows, the rows it
    keeps values for (the audit rows at least) and those values;
    ``direct(oriented_rows, images, a)`` returns the claims of its rows,
    both as dicts of per-row arrays.  The direct rows go to QUEUE, so the
    result is complete once it has decided them.  A chunk the audit covers
    skips the certificate."""
    b = images.shape[0]
    audit = audit_rows(b)
    counts.audited += audit.size
    certified, kept, claims = np.zeros(b, dtype=bool), audit[:0], {}
    if audit.size < b:
        certified, kept, claims = derived(o, images, a, audit)
    redo = ~certified
    counts.certified += int(certified.sum() - certified[audit].sum())
    counts.uncertified += int(redo.sum() - redo[audit].sum())
    redo[audit] = True
    rows = np.nonzero(redo)[0]
    out = Decided(b, kept, claims)
    QUEUE.push(direct, o, images[rows], a[rows], partial(out.settle, rows, certified[rows], counts))
    return out


class _Queue:
    """The direct rows of the chunks a worker has claimed, and the work that
    waits on their verdicts (see the module notes).

    It is one per process, like the worker it serves: a forked child
    inherits it empty and decides its own rows.  ``task`` is the index of
    the task being run, which tags the rows it queues; after a flush raised,
    it is the lowest task index with rows in that flush."""

    def __init__(self):
        self.task = 0
        self.clear()

    def clear(self) -> None:
        self.entries, self.waiting, self.rows = [], [], 0

    def push(self, direct, o, images, a, settle) -> None:
        """Queue rows of the oriented tree ``o`` for ``direct``;
        ``settle(values)`` takes their claims."""
        self.entries.append((self.task, direct, o, images, a, settle))
        self.rows += images.shape[0]
        if self.rows >= CYCLE_CHUNK:
            self.flush()

    def then(self, work) -> None:
        """Run ``work()`` once every row queued so far is decided."""
        if self.entries:
            self.waiting.append(work)
        else:
            work()

    def flush(self) -> None:
        """Decide every queued row, then run the waiting work in order."""
        entries, waiting = self.entries, self.waiting
        self.clear()
        try:
            groups = {}
            for _, direct, o, images, a, settle in entries:
                groups.setdefault((direct, images.shape[1]), []).append((o, images, a, settle))
            for (direct, _), group in groups.items():
                _decide_group(direct, group)
            for work in waiting:
                work()
        except Exception:
            self.task = min(task for task, *_ in entries)
            raise


def _decide_group(direct, group) -> None:
    """One direct call per CYCLE_CHUNK rows of a group of (oriented tree,
    images, matrices, settle) entries of one vertex count, each row reading
    its own oriented tree from a stack of the distinct ones."""
    distinct = {}
    for o, *_ in group:
        distinct.setdefault((o.tree.edges, o.bits), o)
    slot = {key: k for k, key in enumerate(distinct)}
    oriented = tuple(distinct.values())
    tables = np.stack([o.table for o in oriented])
    index = np.concatenate([
        np.full(images.shape[0], slot[o.tree.edges, o.bits]) for o, images, _, _ in group
    ])
    images = np.concatenate([images for _, images, _, _ in group])
    a = np.concatenate([a for _, _, a, _ in group])
    blocks = [
        direct(OrientedRows(oriented, tables, index[lo : lo + CYCLE_CHUNK]),
               images[lo : lo + CYCLE_CHUNK], a[lo : lo + CYCLE_CHUNK])
        for lo in range(0, images.shape[0], CYCLE_CHUNK)
    ]
    values = {k: np.concatenate([block[k] for block in blocks]) for k in blocks[0]}
    lo = 0
    for _, part, _, settle in group:
        hi = lo + part.shape[0]
        settle({k: x[lo:hi] for k, x in values.items()})
        lo = hi


QUEUE = _Queue()
