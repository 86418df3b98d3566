"""Batched integer kernels for the sweep harness.

Everything here is exact integer arithmetic vectorized over an instance
batch (axis 0).  Transition matrices are built and stored as int8, with
entries in {-1, 0, 1}; a kernel widens to int64 where it does arithmetic.
Every {-1, 0, 1} guard is the bound comparison of unit_entries, since
np.abs maps an int8 -128 to itself.  All intermediate magnitudes are
bounded well below 2**63, so numpy int64 gives the same answers as
arbitrary-precision arithmetic:

* Berkowitz intermediates: Toeplitz entries are R . M^k . C with |entries|<=1,
  so at most n**(n-1); the running vector holds characteristic-polynomial
  coefficients of principal submatrices, at most C(n,k) * k**(k/2); their
  products stay below 1e15 for n <= 10.
* Geometric sum: with |entries| <= 1, |(A^k)_ij| <= n**(k-1), and every
  partial sum of a product A^p . A^q is at most n**(p+q-1).  Every product
  on the squaring chain to A^(n+1) has p + q <= n + 1, so all values stay
  within n**n = 1e10 for n <= 10 (2.9e11 at n = 11).
* Witness kernels additionally gate on observed |entries| <= 1 before any
  charpoly work and report out-of-range batches for the exact fallback
  path.  The iterates of a witness stack may wrap modulo 2**64 once they
  leave that gate, but products keep that modulus, so a window whose first
  row equals a {-1,0,1} seed holds that seed's own iterates, which stay at
  most n**n through the companion row.  The recurrence det Mf_m =
  det Mf_{m-1} . det A multiplies the det of a gated window, at most
  n**(n/2) by Hadamard's bound, by det A, at most n**(n/2) as A passes the
  same gate: the product is at most n**n = 1e10 < 2**63 through n = 10.
* Split-sign rebuilt rows are sf.B[i] + 2.delta.(c . A') with sf, delta,
  the entries of B and A' in {-1,0,1} and c a signed path vector, so
  |entries| <= 1 + 2n = 21: the kernel keeps its (O, B, n, n) temporaries
  in int8, and an A with an entry outside {-1, 0, 1} never holds.
* Path transport r(w).A = r(f(w)) - r(f(1)) is compared per vertex as one
  integer: both sides dotted with the digit weights z = (2n+1)^k, k < n.
  Once every entry of A is in {-1, 0, 1}, both sides have coordinates in
  [-n, n], so their difference has digits of magnitude at most 2n < 2n+1
  and its code is zero only when the difference is; every code is below
  (2n+1)^n / 2 < 2**43 for n <= 10.  The entry check changes no verdict of
  the coordinate-wise identity: R_{2..v} is invertible, so the identity has
  one solution, the instance's transition matrix (path transport holds for
  it), and its entries are in {-1, 0, 1}.
* Chunk-sized products stay out of BLAS (einsum and integer matmul only):
  sweep workers run one per core, and BLAS threads in each of them would
  oversubscribe the cores.

The GF(2) nonderogatory test is a plain batched row reduction; since the
closed form decides the Z_2 claim, it only audits.

Capacity is one limit, ``_BATCH_N_CAP``, which the sweep driver checks
before any work starts; sweeps unrank only the cycles they build (see
:func:`unrank_cycles`), so n! sets no limit.

The sister implementations in :mod:`arbormat.algebra` are arbitrary
precision; the test suite asserts agreement between both routes.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# The largest n a kernel or a sweep runs: the int64 bound argument above
# holds through n = 10.
_BATCH_N_CAP = 10


def _check_small(n: int):
    if n > _BATCH_N_CAP:
        raise ValueError(f"batched kernels support n <= {_BATCH_N_CAP}, got {n}")


def unit_entries(mats: np.ndarray) -> np.ndarray:
    """Per matrix of a stack: every entry is in {-1, 0, 1}."""
    return ~((mats < -1) | (mats > 1)).any(axis=(-2, -1))


def batched_charpoly(mats: np.ndarray) -> np.ndarray:
    """Characteristic polynomials det(xI - M) of a stack of small integer
    matrices; returns coefficients ascending (constant term first).

    Requires |entries| <= 1 (see module bound analysis)."""
    b, n, _ = mats.shape
    _check_small(n)
    if not unit_entries(mats).all():
        raise ValueError("batched charpoly requires entries in {-1,0,1}")
    mats = mats.astype(np.int64, copy=False)
    vec = np.ones((b, 1), dtype=np.int64)
    for m in range(1, n + 1):
        t = np.empty((b, m + 1), dtype=np.int64)
        t[:, 0] = 1
        t[:, 1] = -mats[:, m - 1, m - 1]
        if m >= 2:
            r = mats[:, m - 1, : m - 1]
            v = mats[:, : m - 1, m - 1]
            sub = mats[:, : m - 1, : m - 1]
            t[:, 2] = -np.einsum("bi,bi->b", r, v)
            for k in range(3, m + 1):
                v = np.einsum("bij,bj->bi", sub, v)
                t[:, k] = -np.einsum("bi,bi->b", r, v)
        new = np.zeros((b, m + 1), dtype=np.int64)
        for i in range(m + 1):
            for j in range(max(0, i - m), min(i, m - 1) + 1):
                new[:, i] += t[:, i - j] * vec[:, j]
        vec = new
    return vec[:, ::-1]


def batched_geometric_sum_zero(mats: np.ndarray, charpolys: np.ndarray) -> np.ndarray:
    """Whether I + A + ... + A^n vanishes, per batch element, given the
    stack's characteristic polynomials from batched_charpoly.

    (I - A)(I + A + ... + A^n) = I - A^(n+1), so the sum vanishes exactly
    when A^(n+1) = I and det(I - A), the sum of the charpoly's
    coefficients, is nonzero: a vector fixed by A is multiplied by n + 1.
    A^(n+1) is taken by repeated squaring.  Requires |entries| <= 1 (see
    module bound analysis)."""
    b, n, _ = mats.shape
    _check_small(n)
    a = mats.astype(np.int64, copy=False)
    power = a
    for bit in bin(n + 1)[3:]:  # the bits of n + 1 after the leading one
        power = power @ power
        if bit == "1":
            power = power @ a
    return (power == np.eye(n, dtype=np.int64)).all(axis=(1, 2)) & (charpolys.sum(axis=1) != 0)


def batched_gf2_nonderogatory(mats: np.ndarray) -> np.ndarray:
    """Whether I, M, ..., M^(n-1) are linearly independent over GF(2).

    Together with an all-ones mod-2 characteristic polynomial this pins the
    invariant factor list to the single polynomial 1 + x + ... + x^n.

    The flattened powers mod 2 are reduced in order against the earlier
    ones, each pivot at its first set entry; an instance fails when a
    reduced power is zero."""
    b, n, _ = mats.shape
    _check_small(n)
    m = (mats & 1).astype(np.uint8)
    power = np.broadcast_to(np.eye(n, dtype=np.uint8), (b, n, n))
    each = np.arange(b)
    ok = np.ones(b, dtype=bool)
    basis, pivots = [], []
    for _ in range(n):
        vec = power.reshape(b, n * n).copy()
        for known, pivot in zip(basis, pivots):
            vec ^= known * vec[each, pivot][:, None]
        ok &= vec.any(axis=1)
        basis.append(vec)
        pivots.append(vec.argmax(axis=1))
        power = (power @ m) & 1
    return ok


def batched_path_image_ok(
    roots: np.ndarray, images: np.ndarray, mats: np.ndarray
) -> np.ndarray:
    """Per instance: the matrix transports every signed path vector of (u, w)
    to that of (f(u), f(w)).

    roots: (B, v+1, n), each instance's oriented root vectors (see
    root_vectors); images: (B, v+1) with images[b, u] = f(u); mats: (B, n,
    n).  Since spv(u, w) = r(w) - r(u), the identity for every pair holds
    iff r(w).A = r(f(w)) - r(f(1)) for every w, which costs O(v n^2) per
    instance instead of O(v^2 n^2).

    Both sides are compared as one integer per w, their dot product with the
    digit weights z = (2n+1)^k; A must have entries in {-1, 0, 1} (see the
    module notes on why this decides the same identity)."""
    n = mats.shape[1]
    _check_small(n)
    z = (2 * n + 1) ** np.arange(n, dtype=np.int64)
    code_a = np.einsum("bij,j->bi", mats, z)  # (B, n): row i of A as one number
    code_r = np.einsum("bxi,i->bx", roots, z)  # r(x).z per vertex x
    lhs = np.einsum("bi,bwi->bw", code_a, roots[:, 1:].astype(np.int64))
    image_codes = np.take_along_axis(code_r, images[:, 1:], axis=1)
    rhs = image_codes - image_codes[:, :1]  # images[:, 1] = f(1)
    return unit_entries(mats) & np.all(lhs == rhs, axis=1)


def decode_instances(codes: np.ndarray, cycles: np.ndarray, bits: np.ndarray):
    """Arrays of B drawn instances on v vertices, without a Tree: Prufer
    codes (B, v-2), cycles (B, v) starting at vertex 1 (f maps each entry
    to the next, the last to 1) and orientation bitmasks (B,).

    The codes are decoded in lockstep by the smallest-leaf rule of
    trees.decode_prufer, so edge k is the k-th edge it gives.  Vertex v is
    never the smallest of two or more leaves, so decoding roots the tree at
    v: the leaf removed at step k hangs from code entry k by edge k, and
    the last remaining vertex other than v from v by the last edge.  Walking
    the steps backwards gives each vertex x the signed path vector s(x) of
    v -> x after its parent's, and r(x) = s(x) - s(1).

    Returns (edges (B, n, 2), each edge smaller end first; roots (B, v+1,
    n), root_vectors under each orientation; first, second (B, n), as
    oriented_endpoint_arrays; images (B, v+1), images[b, u] = f(u))."""
    b, v = cycles.shape
    n = v - 1
    each = np.arange(b)
    degree = 1 + (codes[:, :, None] == np.arange(v + 1)).sum(axis=1)
    degree[:, 0] = 0
    child = np.empty((b, n), dtype=np.int64)
    parent = np.full((b, n), v, dtype=np.int64)
    for k in range(n - 1):
        child[:, k] = np.argmax(degree == 1, axis=1)
        parent[:, k] = codes[:, k]
        degree[each, child[:, k]] = 0
        degree[each, codes[:, k]] -= 1
    child[:, n - 1] = np.argmax(degree == 1, axis=1)

    s = np.zeros((b, v + 1, n), dtype=np.int8)
    for k in range(n - 1, -1, -1):
        s[each, child[:, k]] = s[each, parent[:, k]]
        s[each, child[:, k], k] = np.where(parent[:, k] < child[:, k], 1, -1)
    signs = orientation_signs(bits, n)
    roots = (s - s[:, 1:2]) * signs[:, None]
    roots[:, 0] = 0

    edges = np.sort(np.stack([child, parent], axis=2), axis=2)
    swap = signs < 0
    first = np.where(swap, edges[..., 1], edges[..., 0])
    second = np.where(swap, edges[..., 0], edges[..., 1])
    images = np.zeros((b, v + 1), dtype=np.int64)
    images[each[:, None], cycles] = np.roll(cycles, -1, axis=1)
    return edges, roots, first, second, images


def drawn_path_image_ok(draws) -> np.ndarray:
    """Path-transport verdicts of drawn instances of any size, each given
    as (Prufer code, cycle, orientation bitmask) (see decode_instances),
    from one batched_path_image_ok call per vertex count."""
    ok = np.zeros(len(draws), dtype=bool)
    by_v: dict[int, list[int]] = {}
    for k, (code, _, _) in enumerate(draws):
        by_v.setdefault(len(code) + 2, []).append(k)
    for group in by_v.values():
        codes, cycles, bits = (np.array(x, dtype=np.int64) for x in zip(*(draws[k] for k in group)))
        _, roots, first, second, images = decode_instances(codes, cycles, bits)
        batch = np.arange(len(group))[:, None]
        # row i: the signed path vector f(first_i) -> f(second_i)
        mats = roots[batch, images[batch, second]] - roots[batch, images[batch, first]]
        ok[group] = batched_path_image_ok(roots, images, mats)
    return ok


def batched_split_sign(paths, tables, images, first, second, mats):
    """The one-sign-change reduction of theorems.split_sign_check, per
    orientation and instance.

    paths: path_table of the tree, tables: its oriented signed path tables
    (O, v+1, v+1, n), images: (B, v+1), first/second: oriented edge
    endpoints (O, n), mats: the oriented matrices A (O, B, n, n), one stack
    per orientation.  As in the exact route, the step signs of row i come
    from the image path f(first_i) -> f(second_i) and A enters only the
    final comparison, so a corrupted A fails the rebuild there.

    A mixed row changes sign once, at split vertex s; with p = f^-1(s) and
    near the endpoint of edge i on p's side, the row is rebuilt as
    sf.B[i] + 2.delta.(spv(near, p) . A'), where A' holds the single-signed
    rows and sf, delta follow the walk rules of the exact route.

    Returns (applicable, mixed, holds), each (O, B): the hypothesis holds
    (no row changes sign twice, no correction row is mixed); some row is
    mixed; the row operations rebuild A and det |A| = +-1.  Reversing edges
    maps A to D.A.D, so |A| is the same under every orientation: det |A| is
    taken once per cycle, under the first orientation, and again only for a
    row whose |A| differs from that one.  ``holds`` is only meaningful where
    ``applicable`` is set."""
    vertices, edges, lengths = paths
    o, b, n = mats.shape[:3]
    v = images.shape[1] - 1
    each = np.arange(o)[:, None, None]
    steps = np.take_along_axis(tables, edges[None], axis=3)
    steps = np.where(np.arange(n) < lengths[..., None], steps, 0)

    fa, fb = images[:, first].swapaxes(0, 1), images[:, second].swapaxes(0, 1)
    signs = steps[each, fa, fb].astype(np.int8)  # (O, B, n, n): step t of row i
    change = (signs[..., 1:] != signs[..., :-1]) & (signs[..., 1:] != 0)
    changes = change.sum(axis=3)
    mixed = changes == 1
    applicable = (changes <= 1).all(axis=2)

    split = vertices[fa, fb, change.argmax(axis=3) + 1]
    inverse = np.zeros_like(images)
    np.put_along_axis(inverse, images[:, 1:], np.arange(1, v + 1)[None, :], axis=1)
    pre = inverse[np.arange(b)[:, None], split]
    # p lies past edge i iff the path first_i -> p starts with second_i
    beyond = vertices[first[..., None], np.arange(v + 1), 1] == second[..., None]
    far = beyond[each, np.arange(n), pre]
    near = np.where(far, second[:, None, :], first[:, None, :])
    corrections = tables[each, near, pre].astype(np.int8)
    corrections[~mixed] = 0
    applicable &= ~((corrections != 0) & mixed[..., None, :]).any(axis=(2, 3))

    unoriented = np.abs(mats)
    s1 = signs[..., 0]
    sign = np.where(mixed & ~far, -s1, s1)
    delta = np.where(far, np.int8(-1), np.int8(1))
    single = np.where(mixed[..., None], 0, s1[..., None] * unoriented)
    rebuilt = sign[..., None] * unoriented + 2 * delta[..., None] * (corrections @ single)
    holds = np.all(rebuilt == mats, axis=(2, 3)) & unit_entries(mats)
    det_b = np.repeat(batched_charpoly(unoriented[0])[None, :, 0], o, axis=0)
    own = (unoriented != unoriented[0]).any(axis=(2, 3))
    if own.any():
        det_b[own] = batched_charpoly(unoriented[own])[:, 0]
    holds &= np.abs(det_b) == 1
    return applicable, mixed.any(axis=2), holds


def batched_uniform_sign(mats: np.ndarray) -> np.ndarray:
    """Per instance: every row carries a single sign."""
    has_pos = (mats > 0).any(axis=2)
    has_neg = (mats < 0).any(axis=2)
    return ~(has_pos & has_neg).any(axis=1)


def batched_petrie(mats: np.ndarray) -> np.ndarray:
    """Per instance: all entries in {-1,0,1}, each row's nonzero support is
    contiguous and single-signed."""
    b, r, n = mats.shape
    small = unit_entries(mats)
    nz = mats != 0
    has = nz.any(axis=2)
    first = nz.argmax(axis=2)
    last = n - 1 - nz[:, :, ::-1].argmax(axis=2)
    count = nz.sum(axis=2)
    contiguous = np.where(has, (last - first + 1) == count, True)
    single = ~((mats > 0).any(axis=2) & (mats < 0).any(axis=2))
    return small & (contiguous & single).all(axis=1)


def _witness_stack(mats: np.ndarray, seeds: np.ndarray, windows: int):
    """The iterates w.A^k, k < windows + n, of (B, S, n) seed rows w, each
    under its row's A, iterate-major as (windows + n, B, S, n); and per
    window m < windows (iterates m..m+n-1, the rows of an Mf), window-major
    as (windows, B, S), whether its entries are all in {-1,0,1} and whether
    Mf.A == C.Mf.  The rows of Mf.A are the shifted iterates and the last
    row of C.Mf is minus the sum of the rows of Mf, so the identity says
    that iterates m..m+n sum to zero."""
    n = seeds.shape[-1]
    its = np.empty((windows + n,) + seeds.shape, dtype=np.int64)
    its[0] = seeds
    for k in range(1, windows + n):
        np.matmul(its[k - 1], mats, out=its[k])
    unit = ~((its < -1) | (its > 1)).any(axis=3)
    gate, total = unit[:windows].copy(), its[:windows].copy()
    for k in range(1, n):
        gate &= unit[k : k + windows]
        total += its[k : k + windows]
    total += its[n:]
    return its, gate, ~total.any(axis=3)


def batched_witness(mats: np.ndarray, seeds: np.ndarray):
    """Witness matrices along the orbit of a start vertex, and their basis
    claims, from one iterate stack per (row, step).

    mats: (B, n, n); seeds: (B, S, M, n).  Witness m of chain s is the
    matrix Mf with rows w, w.A, ..., w.A^(n-1) for w = seeds[:, s, m].  In
    the sweeps chain s is one step j, witness m starts at x_m = f^m(1), and
    Mf(x_m, j) = Mf(x_{m-1}, j).A, since the seed of (x_m, j) is the
    transported seed of (x_{m-1}, j).  So chain s is iterated once from its
    first seed, w_k = seeds[:, s, 0].A^k for k < M + n, and witness m is
    the window w_m..w_{m+n-1} of that stack wherever seeds[:, s, m] == w_m,
    which is checked on every pair; any other pair is built on its own from
    its seed.

    Returns (gate, det, companion_ok, mf), the first three (B, S, M):
      gate          every entry of Mf is in {-1,0,1}
      det           det Mf where gate holds, 0 elsewhere
      companion_ok  Mf.A == C.Mf, C the companion matrix of 1 + ... + x^n
      mf            the witness matrices, (B, S, M, n, n): read-only windows
                    of the stacks, unless a pair was built on its own
    Charpolys are taken of the gated windows whose det no recurrence gives,
    and of A when one does: det Mf_m = det Mf_{m-1} . det A when both are
    windows of one stack and Mf_{m-1} and A pass the gate, so a chain whose
    windows all pass needs the charpoly of its first window only.

    Mf.A.adj(Mf) == det(Mf).C, the denominator-cleared conjugation, is not
    checked apart: it follows from Mf.A == C.Mf since Mf.adj(Mf) = det.I.
    """
    m, n = seeds.shape[2:]
    _check_small(n)
    mats = mats.astype(np.int64, copy=False)
    seeds = seeds.transpose(2, 0, 1, 3)  # window-major, like the stack
    its, gate, companion_ok = _witness_stack(mats, seeds[0], m)
    chained = np.all(its[:m] == seeds, axis=3)
    # window m: its[m..m+n-1] as rows, a read-only view
    stride = its.strides
    mf = np.lib.stride_tricks.as_strided(
        its, (m,) + its.shape[1:3] + (n, n), stride[:3] + (stride[0], stride[3]), writeable=False
    )
    own = np.nonzero(~chained)
    if own[0].size:
        own_its, own_gate, own_ok = _witness_stack(mats[own[1]], seeds[own][:, None], 1)
        mf = mf.copy()
        mf[own] = own_its[:n, :, 0].swapaxes(0, 1)
        gate[own], companion_ok[own] = own_gate[0, :, 0], own_ok[0, :, 0]
    unit_a = unit_entries(mats)
    recur = np.zeros_like(gate)
    recur[1:] = chained[1:] & chained[:-1] & gate[:-1]
    recur &= gate & unit_a[:, None]
    solo = gate & ~recur
    solos, recurs = mf[solo], recur.any()
    parts = [solos, np.where(unit_a[:, None, None], mats, 0)] if recurs else [solos]
    cp = batched_charpoly(np.concatenate(parts))[:, 0] * (1 if n % 2 == 0 else -1)
    det = np.zeros(gate.shape, dtype=np.int64)
    det[solo] = cp[: len(solos)]
    if recurs:
        det_a = cp[len(solos) :, None]
        for k in range(1, m):
            det[k] = np.where(recur[k], det[k - 1] * det_a, det[k])
    gate, det, companion_ok = (x.transpose(1, 2, 0) for x in (gate, det, companion_ok))
    return gate, det, companion_ok, mf.transpose(1, 2, 0, 3, 4)


def unrank_cycles(v: int, ranks: np.ndarray):
    """The single v-cycles of lexicographic ranks: rank r is the cycle 1 ->
    p[0] -> ... -> p[-1] -> 1 of the r-th permutation p of 2..v in the
    order of itertools.permutations.

    Returns (images, orbit, sign): images[b, u] = f(u), column 0 unused;
    orbit[b, k] = f^k(1), which is [1, p + 2]; and sign[b], the sign of p.
    p comes from the factorial-base digits of r, its Lehmer code: digit k
    counts the later entries of p below p[k], so their sum counts the
    inversions of p."""
    m = v - 1
    base = np.arange(m, 0, -1)  # digit k has base m - k and place value (m - k - 1)!
    place = np.array([math.factorial(b - 1) for b in base])
    perm = np.asarray(ranks, dtype=np.int64)[:, None] // place % base
    sign = 1 - 2 * (perm.sum(axis=1) % 2)
    # Lehmer code to permutation, last entry first: the tail holds the
    # order of the later entries, lifted past the value of entry k
    for k in range(m - 2, -1, -1):
        tail = perm[:, k + 1 :]
        tail += tail >= perm[:, k, None]
    ring = np.ones((len(ranks), v + 1), dtype=np.int64)  # the orbit, then 1 again
    ring[:, 1:-1] = perm + 2
    images = np.zeros_like(ring)
    images[np.arange(len(ranks))[:, None], ring[:, :-1]] = ring[:, 1:]
    return images, ring[:, :-1], sign


@lru_cache(maxsize=8)
def cycle_images(v: int) -> np.ndarray:
    """All single v-cycles as image arrays, in rank order: out[b, u] = f(u);
    column 0 unused.  The sweeps unrank only the rows they build."""
    return unrank_cycles(v, np.arange(math.factorial(v - 1)))[0]


def root_vectors(tree) -> np.ndarray:
    """(v+1, n) root vectors under the canonical orientation, from one
    breadth-first search: row x is the signed path vector of 1 -> x, rows 0
    and 1 are zero.  The path u -> w is u -> 1 -> w with the shared stretch
    cancelled, so its signed path vector is r(w) - r(u)."""
    v = tree.vertex_count
    roots = np.zeros((v + 1, tree.edge_count), dtype=np.int8)
    reached = [False] * (v + 1)
    reached[1] = True
    queue = [1]
    for x in queue:
        for y, k in tree.adjacency[x]:
            if not reached[y]:
                reached[y] = True
                roots[y] = roots[x]
                roots[y, k] = 1 if x < y else -1
                queue.append(y)
    return roots


def signed_path_table(tree) -> np.ndarray:
    """(v+1, v+1, n) table of signed path vectors under canonical orientation."""
    roots = root_vectors(tree)
    table = roots[None, :, :] - roots[:, None, :]
    table[0] = 0
    table[:, 0] = 0
    return table


def path_table(tree):
    """Padded paths of every ordered vertex pair (x, y): vertices
    (v+1, v+1, n+1) and edge indices (v+1, v+1, n), both zero past the end,
    and lengths in edges (v+1, v+1)."""
    v, n = tree.vertex_count, tree.edge_count
    vertices = np.zeros((v + 1, v + 1, n + 1), dtype=np.int64)
    edges = np.zeros((v + 1, v + 1, n), dtype=np.int64)
    lengths = np.zeros((v + 1, v + 1), dtype=np.int64)
    for x in range(1, v + 1):
        for y in range(1, v + 1):
            path = tree.path_vertices(x, y)
            vertices[x, y, : len(path)] = path
            edges[x, y, : len(path) - 1] = [
                tree.edge_index(a, b) for a, b in zip(path, path[1:])
            ]
            lengths[x, y] = len(path) - 1
    return vertices, edges, lengths


# row b: the diagonal of D for the orientation bitmask b < 2^_BATCH_N_CAP
_SIGNS = (1 - 2 * (np.arange(1 << _BATCH_N_CAP)[:, None] >> np.arange(_BATCH_N_CAP) & 1))
_SIGNS = _SIGNS.astype(np.int8)


def orientation_signs(bits, n: int) -> np.ndarray:
    """The diagonal of D for an orientation bitmask, -1 on reversed edges:
    (n,) for one bitmask, (O, n) for an array of O."""
    return np.take(_SIGNS, bits, axis=0)[..., :n]


def orient_table(table: np.ndarray, bits, n: int) -> np.ndarray:
    """Apply an orientation bitmask, or stack an array of them: flipping
    edge k negates coordinate k."""
    return table * orientation_signs(bits, n)[..., None, None, :]


def oriented_endpoint_arrays(tree, bits):
    """Edge k runs first[k] -> second[k]; (O, n) each for O bitmasks."""
    ends = np.array(tree.edges, dtype=np.int64).reshape(-1, 2)
    swap = orientation_signs(bits, len(ends)) < 0
    return np.where(swap, ends[:, 1], ends[:, 0]), np.where(swap, ends[:, 0], ends[:, 1])


def build_oriented_batch(
    table_o: np.ndarray, images: np.ndarray, first: np.ndarray, second: np.ndarray
) -> np.ndarray:
    """Stack of oriented transition matrices: row i of instance b is the
    signed path vector from f_b(first_i) to f_b(second_i)."""
    v1, n = table_o.shape[1:]
    pairs = images[:, first] * v1 + images[:, second]
    return np.take(table_o.reshape(v1 * v1, n), pairs, axis=0)


def iterate_images(images: np.ndarray, start: int, steps: int) -> np.ndarray:
    """f^steps(start) per batch element."""
    b = images.shape[0]
    col = np.full(b, start, dtype=np.int64)
    rows = np.arange(b)
    for _ in range(steps):
        col = images[rows, col]
    return col
