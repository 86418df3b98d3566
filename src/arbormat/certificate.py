"""The path-transport certificate behind the theorem, witness, determinant
and path-graph claims of the sweeps.

Let A be the oriented transition matrix of a vertex map f of a tree, and
r(x) the oriented root vector (the signed path vector of 1 -> x, so r(1) =
0).  Row i of A is entry (f(a_i), f(b_i)) of the oriented signed path table,
a_i -> b_i the oriented edge i.  When every entry (x, y) of that table is
r(y) - r(x), the rows along the path 1 -> w telescope, and r(w).A = r(f(w))
- r(f(1)) for every vertex w: path transport is a property of the (tree,
orientation) table, not of f.  For a single (n+1)-cycle f, with x_k =
f^k(1), it makes every iterate of a seed a signed path vector: row k of the
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

A (tree, orientation) is certified (:func:`certified`) when its oriented
table equals the exact table of signed path vectors on every pair, every
entry (x, y) of it is r(y) - r(x), and the exact determinants det R_{2..v}
and det T(n, j) of every step j coprime to n + 1 are +-1.  The exact table
(:func:`exact_table`, walks over the tree with the sign rule of
Tree.signed_path_vector) and the determinants (exact integer elimination by
:meth:`arbormat.algebra.ExactMatrix.determinant`) are computed once per
process and (tree, orientation), and the verdict once per oriented tree a
sweep computes (the others take its verdicts through :func:`similar`).  On
a certified tree every row passes every claim with |det Mf| = 1, so
:func:`decide` keeps its rows, taken in pieces of PIECE_ROWS, as a count
and builds only a fixed audit set of every chunk, which the direct kernels
decide: those are the referee, and on an audit row their values must equal
the closed form.  A piece's audit set depends on its ranks alone, the same
for every tree on v vertices, so its cycles are unranked once per process
(:func:`audit_cycles`).  Of its values only the signed det Mf is not a
constant, and it is evaluated on those rows only.
A tree that fails the certificate sends every row to the direct kernels.
What this gives up: the rows of a certified tree outside the audit set are
neither built nor checked one by one; the argument above covers them, and
the audit samples it.

The direct rows are not decided at once.  :data:`QUEUE` holds the direct
rows a worker has claimed, each row with an index into the distinct
oriented trees of the batch, and decides them by calls of the direct claims
function on at most FLUSH_ROWS rows of one vertex count: before rows that
would take it past FLUSH_ROWS, once FLUSH_ROWS rows are queued, and when
the worker runs out of tasks.  Work waiting on verdicts, such as a tally,
runs after those calls, in the order queued.
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
CYCLE_CHUNK = 10_080
# QUEUE decides its rows once this many wait, this many per direct call:
# the theorem kernels' int64 temporaries on 10,080 audit rows set a verify
# worker's peak (66 MB at n = 9 on 2 cores, against 37 MB at this bound).
# At benchmark sizes no worker queues this many, so each flushes once.
FLUSH_ROWS = CYCLE_CHUNK // 4
AUDIT_ROWS = 16  # rows of every chunk also decided on the direct route
# A certified (tree, orientation) is decided in pieces of whole chunks whose
# audit set fits one direct call: one piece through n = 9, three at n = 10,
# so the direct values a worker holds stay within FLUSH_ROWS rows.
PIECE_ROWS = CYCLE_CHUNK * (FLUSH_ROWS // AUDIT_ROWS)
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


@lru_cache(maxsize=1024)
def exact_table(tree: Tree, bits: int) -> np.ndarray:
    """The signed path vector of every pair x -> y of a tree under an
    orientation bitmask, as a (v+1, v+1, n) table with row and column 0
    zero, the layout of the sweeps' oriented tables.  Row x is one walk from
    x over Tree.adjacency: the step a -> b over edge k gives b the vector of
    a with coordinate k set by the rule of Tree.signed_path_vector, +1 when
    a < b and -1 otherwise, negated when the bitmask reverses edge k.  A
    walk fills byte strings, its vectors in two's complement, and the table
    is read from them once."""
    v, n = tree.vertex_count, tree.edge_count
    rows = []
    for x in range(1, v + 1):
        row = [bytes(n)] * (v + 1)
        walk = [(x, 0)]
        for a, before in walk:
            for b, k in tree.adjacency[a]:
                if b != before:
                    row[b] = step = bytearray(row[a])
                    step[k] = (1 if a < b else -1) * (-1 if bits >> k & 1 else 1) & 0xFF
                    walk.append((b, a))
        rows += row
    table = np.zeros((v + 1, v + 1, n), dtype=np.int8)
    table[1:] = np.frombuffer(b"".join(rows), dtype=np.int8).reshape(v, v + 1, n)
    return table


@lru_cache(maxsize=1024)
def root_det(tree: Tree, bits: int) -> int:
    """Exact det R_{2..v} of a tree under an orientation bitmask: its rows
    are the oriented root vectors r(2), ..., r(v)."""
    return ExactMatrix(ZZ, exact_table(tree, bits)[1, 2:].tolist()).determinant()


def certified(o) -> bool:
    """Whether the oriented tree ``o`` passes the certificate (see the module
    notes)."""
    r, n = o.table[1], o.table.shape[2]
    return (
        np.array_equal(o.table, exact_table(o.tree, o.bits))
        and np.array_equal(o.table[1:, 1:], r[None, 1:] - r[1:, None])
        and abs(root_det(o.tree, o.bits)) == 1
        and all(abs(step_det(n, j)) == 1 for j in coprime_steps(n + 1))
    )


def similar(r, o):
    """Whether every matrix under the oriented tree ``o`` is D.A_r.D, with
    A_r the same map's matrix under ``r`` and D = diag(signs of o ^ r): o's
    table is r's times D, r's table is antisymmetric, and o swaps the
    endpoints of the edges D reverses and only those.  Row k of A_o is then
    entry (f(a_k), f(b_k)) of r's table times D, negated when D reverses
    edge k, a_k -> b_k being edge k under r.  For a stack ``o`` of O
    oriented trees (see harness._Oriented.of), one verdict per tree."""
    flip = _fast.orientation_signs(o.bits ^ r.bits, r.first.size)
    swap = flip < 0
    return (
        (o.table == r.table * flip[..., None, None, :]).all(axis=(-3, -2, -1))
        & np.array_equal(r.table, -r.table.swapaxes(0, 1))
        & (o.first == np.where(swap, r.second, r.first)).all(axis=-1)
        & (o.second == np.where(swap, r.first, r.second)).all(axis=-1)
    )


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


def closed_form_dets(o, orbit, sign):
    """Signed det Mf(i, j) of every witness pair, ordered as witness_pairs
    orders them, from the closed form, given each row's orbit f^k(1) and
    sgn(sigma_f) (see _fast.unrank_cycles); meaningful on certified rows,
    where every factor is +-1, so the dets are int8."""
    b, v = orbit.shape
    n = v - 1
    position = np.zeros((b, v + 1), dtype=np.int64)
    np.put_along_axis(position, orbit, np.arange(v), axis=1)
    step_dets = np.array([step_det(n, j) for j in coprime_steps(v)], dtype=np.int8)
    first = (root_det(o.tree, o.bits) * sign).astype(np.int8)
    parity = (1 - 2 * (n * position[:, 1:] % 2)).astype(np.int8)  # (-1)^(n m), i = x_m
    det = first[:, None, None] * step_dets[None, :, None] * parity[:, None, :]
    return det.reshape(b, -1)


def _frozen(*arrays):
    """The arrays, made read-only: a cached value is shared by every caller."""
    for x in arrays:
        x.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def audit_rows(b: int) -> np.ndarray:
    """The audit set of b rows taken in chunks of CYCLE_CHUNK: AUDIT_ROWS
    rows evenly spaced through each chunk, or every row of a smaller one.
    It depends on b alone, so it is the same for any worker count."""
    chunks = [(lo, min(CYCLE_CHUNK, b - lo)) for lo in range(0, b, CYCLE_CHUNK)]
    return _frozen(np.concatenate([
        lo + np.arange(min(m, AUDIT_ROWS)) * max(m, AUDIT_ROWS) // AUDIT_ROWS for lo, m in chunks
    ]))[0]


@lru_cache(maxsize=None)
def audit_cycles(v: int, lo: int, b: int):
    """(images, orbit, sign) of the audit set of the cycles of ranks lo..lo +
    b - 1 on v vertices (see _fast.unrank_cycles), read-only."""
    return _frozen(*_fast.unrank_cycles(v, lo + audit_rows(b)))


class Decided:
    """The claims of ``size`` rows: ``values`` holds the direct per-row
    arrays of the rows ``rows``, ascending, whose cycle images are
    ``images``; every other row is certified, so it passes every claim and
    its |det Mf| is 1.  It is complete once QUEUE has decided ``rows``."""

    def __init__(self, size: int, rows: np.ndarray, images: np.ndarray, values: dict):
        self.size, self.rows, self.images, self.values = size, rows, images, values

    def settle(self, expected, counts, direct: dict) -> None:
        """Take the direct values of the rows.  On certified rows
        (``expected`` not None, ``rows`` their audit set) a row whose direct
        value of a claim differs from ``expected.get(claim, True)`` fails
        AUDIT_AGREEMENT and is counted in ``counts``."""
        agrees = np.ones(self.rows.size, dtype=bool)
        if expected is not None:
            for k, x in direct.items():
                agrees &= (x == expected.get(k, True)).reshape(self.rows.size, -1).all(axis=1)
            counts.disagreements += int((~agrees).sum())
        self.values = {**direct, AUDIT_AGREEMENT: agrees}


class OrientedRows(NamedTuple):
    """The oriented trees of a batch of rows: row k is under
    ``oriented[index[k]]``, whose signed path table is ``tables[index[k]]``."""

    oriented: tuple
    tables: np.ndarray  # (T, v+1, v+1, n)
    index: np.ndarray


def decide(derived, direct, o, ranks, counts) -> Decided:
    """Claims of the cycles of lexicographic ranks ``ranks`` (see
    _fast.unrank_cycles), a contiguous range taken in chunks of CYCLE_CHUNK,
    under the oriented tree ``o``: on a certified tree (``o.certified``, see
    :func:`certified`) a count, with only the audit rows of each chunk
    (their cycles from :func:`audit_cycles`) built and decided on the
    direct route; on any other tree the direct route on every row.

    ``derived(o, orbit, sign)`` returns the closed-form values of the audit
    rows, given their orbits and signs, for the claims whose value is not
    true on every certified row, or None when a condition of its own on the
    tree fails, which sends every row direct too; ``direct(oriented_rows,
    images, a)`` returns the claims of its rows; both as dicts of per-row
    arrays.  The direct rows go to QUEUE, so the result is complete once it
    has decided them."""
    b, v = len(ranks), o.tree.vertex_count
    rows = audit_rows(b)
    counts.audited += rows.size
    expected = None
    if o.certified:
        images, orbit, sign = audit_cycles(v, ranks[0], b)
        expected = derived(o, orbit, sign)
    if expected is None:
        counts.uncertified += b - rows.size
        rows = np.arange(b)
        images = _fast.unrank_cycles(v, ranks)[0]
    else:
        counts.certified += b - rows.size
    out = Decided(b, rows, images, {})
    QUEUE.push(direct, o, images, o.build(images), partial(out.settle, expected, counts))
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
        ``settle(values)`` takes their claims.  The rows queued before are
        decided first if these would take the queue past FLUSH_ROWS."""
        if self.rows + images.shape[0] > FLUSH_ROWS:
            self.flush()
        self.entries.append((self.task, direct, o, images, a, settle))
        self.rows += images.shape[0]
        if self.rows >= FLUSH_ROWS:
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
    """Direct calls of at most FLUSH_ROWS rows on a group of (oriented tree,
    images, matrices, settle) entries of one vertex count, each row reading
    its own oriented tree from a stack of the distinct ones."""
    distinct = {}
    for o, *_ in group:
        distinct.setdefault((o.tree.edges, o.bits), o)
    slot = {key: k for k, key in enumerate(distinct)}
    oriented = tuple(distinct.values())
    index = np.concatenate([
        np.full(images.shape[0], slot[o.tree.edges, o.bits]) for o, images, _, _ in group
    ])
    tables = np.stack([o.table for o in oriented])
    images = np.concatenate([images for _, images, _, _ in group])
    a = np.concatenate([a for _, _, a, _ in group])
    cuts = [slice(lo, lo + FLUSH_ROWS) for lo in range(0, len(images), FLUSH_ROWS)]
    blocks = [direct(OrientedRows(oriented, tables, index[at]), images[at], a[at]) for at in cuts]
    values = {k: np.concatenate([x[k] for x in blocks]) for k in blocks[0]}
    lo = 0
    for _, part, _, settle in group:
        hi = lo + part.shape[0]
        settle({k: x[lo:hi] for k, x in values.items()})
        lo = hi


QUEUE = _Queue()
