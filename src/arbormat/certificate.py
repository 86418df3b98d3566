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
once per process and key.  Certified rows take their claims from the
closed form.  :func:`decide` sends every other row, and a fixed audit set
of every chunk, to the direct kernels, which stay the referee.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import _fast
from .algebra import ExactMatrix
from .rings import ZZ
from .theorems import coprime_steps
from .trees import Tree

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


def closed_form_dets(o, images, a):
    """Signed det Mf(i, j) of every witness pair, ordered as witness_pairs
    orders them, from the closed form, and the certified rows; the values
    of the other rows are void."""
    b, v = images.shape[0], images.shape[1] - 1
    n = v - 1
    steps = coprime_steps(v)
    certified = certified_rows(o, images, a, steps)
    orbit, position = start_vertex_orbit(images)
    step_dets = np.array([step_det(n, j) for j in steps], dtype=np.int64)
    first = root_det(o.tree.edges, o.bits) * permutation_sign(orbit[:, 1:])
    sign = 1 - 2 * (n * position[:, 1:] % 2)  # (-1)^(n m) for i = x_m = 1..v
    det = first[:, None, None] * step_dets[None, :, None] * sign[:, None, :]
    return det.reshape(b, -1), certified


def audit_rows(b: int) -> np.ndarray:
    """The audit set of a b-row chunk: AUDIT_ROWS rows evenly spaced through
    it, or every row of a smaller chunk.  It depends on b alone, so it is
    the same for any worker count."""
    if b <= AUDIT_ROWS:
        return np.arange(b)
    return np.arange(AUDIT_ROWS) * b // AUDIT_ROWS


def decide(derived, direct, o, images, a, counts) -> dict:
    """Claims of one chunk: the closed form on certified rows, the direct
    route on the rows that fail the certificate and on the audit rows.

    ``derived(o, images, a)`` returns (claims, certified rows) and
    ``direct(o, images, a)`` the claims, both dicts of per-row arrays.
    Audit rows take the direct values; a certified one whose direct values
    differ from the closed form is counted in ``counts`` and fails
    AUDIT_AGREEMENT.  A chunk the audit covers skips the certificate."""
    b = images.shape[0]
    audit = audit_rows(b)
    counts.audited += audit.size
    agrees = np.ones(b, dtype=bool)
    if audit.size == b:
        return {**direct(o, images, a), AUDIT_AGREEMENT: agrees}
    claims, certified = derived(o, images, a)
    redo = ~certified
    counts.certified += int(certified.sum() - certified[audit].sum())
    counts.uncertified += int(redo.sum() - redo[audit].sum())
    redo[audit] = True
    rows = np.nonzero(redo)[0]
    checked = certified[rows]
    for k, x in direct(o, images[rows], a[rows]).items():
        same = (claims[k][rows] == x).reshape(rows.size, -1).all(axis=1)
        agrees[rows] &= same | ~checked
        claims[k][rows] = x
    counts.disagreements += int((~agrees).sum())
    claims[AUDIT_AGREEMENT] = agrees
    return claims
