"""Independent oracles: deliberately different algorithms from the package."""

import heapq

import numpy as np

from arbormat.trees import canonical_form, decode_prufer


def bareiss_det(rows) -> int:
    """Fraction-free Gaussian elimination determinant over the integers."""
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _poly_add(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_det(m):
    """Laplace expansion along the first row; entries are coefficient lists."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = []
    for col in range(n):
        entry = m[0][col]
        if not entry:
            continue
        minor = [[row[c] for c in range(n) if c != col] for row in m[1:]]
        term = _poly_mul(entry, _poly_det(minor))
        if col % 2 == 1:
            term = [-c for c in term]
        total = _poly_add(total, term)
    return total


def naive_charpoly(rows) -> tuple[int, ...]:
    """det(xI - A) by cofactor expansion; ascending coefficients."""
    n = len(rows)
    m = [
        [
            _poly_add([-rows[i][j]], [0, 1] if i == j else [])
            for j in range(n)
        ]
        for i in range(n)
    ]
    coeffs = _poly_det(m)
    return tuple(coeffs)


def prufer_class_count(v: int) -> int:
    """Number of unlabeled trees on v vertices by brute-force dedup of all
    v^(v-2) labeled trees."""
    from itertools import product

    codes = product(range(1, v + 1), repeat=v - 2)
    return len({canonical_form(decode_prufer(list(code))) for code in codes})


def encode_prufer(tree) -> tuple[int, ...]:
    """Prufer code of a tree: remove the smallest leaf v - 2 times, noting
    its neighbour each time; the inverse of decode_prufer."""
    v = tree.vertex_count
    alive = [set() for _ in range(v + 1)]
    for a, b in tree.edges:
        alive[a].add(b)
        alive[b].add(a)
    leaves = [u for u in range(1, v + 1) if len(alive[u]) == 1]
    heapq.heapify(leaves)
    code = []
    for _ in range(v - 2):
        leaf = heapq.heappop(leaves)
        nbr = alive[leaf].pop()
        code.append(nbr)
        alive[nbr].discard(leaf)
        if len(alive[nbr]) == 1:
            heapq.heappush(leaves, nbr)
    return tuple(code)


def residue_set_oracle(j: int, n: int) -> set[int]:
    """Literal construction of {k*j mod n+1} by repeated addition."""
    from math import gcd

    b = gcd(j, n + 1)
    s = (n + 1) // b
    out = set()
    acc = 0
    for _ in range(1, s):
        acc += j
        while acc >= n + 1:
            acc -= n + 1
        out.add(acc)
    return out


def gcd_multiples_oracle(j: int, n: int) -> set[int]:
    from math import gcd

    b = gcd(j, n + 1)
    s = (n + 1) // b
    return {k * b for k in range(1, s)}


def _det_mod(rows, p):
    m = [list(r) for r in rows]
    n = len(m)
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] % p), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det = det * m[col][col] % p
        inv = pow(m[col][col], -1, p)
        for r in range(col + 1, n):
            factor = m[r][col] * inv % p
            for c in range(col, n):
                m[r][c] = (m[r][c] - factor * m[col][c]) % p
    return det % p


def similar_bruteforce(m1, m2, p) -> bool:
    """Decide GF(p) similarity by enumerating every invertible conjugator."""
    from itertools import product

    n = len(m1)
    for flat in product(range(p), repeat=n * n):
        g = [list(flat[i * n:(i + 1) * n]) for i in range(n)]
        if _det_mod(g, p) == 0:
            continue
        m1g = [[sum(m1[i][k] * g[k][j] for k in range(n)) % p for j in range(n)]
               for i in range(n)]
        gm2 = [[sum(g[i][k] * m2[k][j] for k in range(n)) % p for j in range(n)]
               for i in range(n)]
        if m1g == gm2:
            return True
    return False


def transport_per_vertex(roots, images, mats):
    """Path transport r(w).A == r(f(w)) - r(f(1)) of every vertex w, checked
    coordinate by coordinate in int64 for any integer A: the per-vertex
    formulation the digit-coded kernel replaced.  roots: (v+1, n) shared by
    the batch or (B, v+1, n) per instance; images: (B, v+1); mats: (B, n, n)."""
    roots = np.asarray(roots, dtype=np.int64)
    mats = np.asarray(mats, dtype=np.int64)
    if roots.ndim == 2:
        roots = np.broadcast_to(roots, (mats.shape[0],) + roots.shape)
    lhs = np.einsum("bwi,bij->bwj", roots[:, 1:], mats)
    image_roots = np.take_along_axis(roots, images[:, 1:, None], axis=1)
    rhs = image_roots - image_roots[:, :1]  # images[:, 1] = f(1)
    return np.all(lhs == rhs, axis=(1, 2))


def witness_per_pair(mats, seeds):
    """The witness kernels' outputs, (rows, pairs) each, by the route that
    stacks every (row, pair) witness apart: each row's A repeated once per
    seed, the iterates taken one seed row at a time with einsum.  Returns
    (gate, det, companion_ok, mf)."""
    from arbormat import _fast

    b, p, n = seeds.shape
    mats = np.repeat(mats, p, axis=0)
    rows = [seeds.reshape(-1, n).astype(np.int64)]
    for _ in range(n - 1):
        rows.append(np.einsum("bi,bij->bj", rows[-1], mats))
    mf = np.stack(rows, axis=1)
    gate = np.abs(mf).max(axis=(1, 2)) <= 1
    w_n = np.einsum("bi,bij->bj", mf[:, -1], mats)
    companion_ok = np.all(w_n == -mf.sum(axis=1), axis=1)
    cp = _fast.batched_charpoly(np.where(gate[:, None, None], mf, 0))
    det = cp[:, 0] if n % 2 == 0 else -cp[:, 0]
    return (gate.reshape(b, p), det.reshape(b, p), companion_ok.reshape(b, p),
            mf.reshape(b, p, n, n))
