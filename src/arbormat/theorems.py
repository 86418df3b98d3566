"""Executable checks for the algebraic claims about transition matrices.

Every checker is a pure function of an instance (tree, orientation, vertex
map) or of a matrix.  Checks that are only *sufficient* conditions report
not-applicable when their hypothesis fails; a violated conclusion under a
satisfied hypothesis raises :class:`WitnessFailed` and is surfaced as a claim
failure by :func:`verify_instance`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import gcd
from typing import Iterator, Optional

from .algebra import (
    ExactMatrix,
    companion,
    geometric_poly,
    invariant_factors,
    reduce_mod,
)
from .dynamics import VertexMap, oriented_matrix, path_image_check
from .errors import (
    DimensionMismatch,
    NotCoprime,
    NotSquare,
    OutOfRange,
    WitnessFailed,
)
from .rings import QQ, ZZ
from .trees import Orientation, canonical_form

__all__ = [
    "ClaimStatus",
    "ClaimResult",
    "BasisWitness",
    "SignReduction",
    "InstanceReport",
    "geometric_sum_is_zero",
    "step_residues",
    "coprime_steps",
    "witness_pairs",
    "basis_witness",
    "iter_witness_determinants",
    "z2_similarity_to_companion",
    "zp_similarity",
    "odd_coefficients_check",
    "petrie_check",
    "matrix_claims",
    "uniform_sign_check",
    "split_sign_check",
    "verify_instance",
    "MANDATORY_CLAIMS",
    "CONDITIONAL_CLAIMS",
]


class ClaimStatus(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class ClaimResult:
    status: ClaimStatus
    detail: Optional[dict] = None

    @classmethod
    def from_bool(cls, ok: bool) -> "ClaimResult":
        return cls(ClaimStatus.PASS if ok else ClaimStatus.FAIL)


def geometric_sum_is_zero(a: ExactMatrix) -> bool:
    """Whether I + A + A^2 + ... + A^n vanishes for an n x n matrix A."""
    if not a.is_square():
        raise NotSquare("geometric sum needs a square matrix")
    n = a.nrows
    ident = ExactMatrix.identity(a.ring, n)
    acc = ident
    for _ in range(n):
        acc = (a @ acc) + ident
    zero = a.ring.zero
    return all(e == zero for row in acc.rows for e in row)


def step_residues(j: int, n: int) -> set[int]:
    """Residues of k*j mod n+1 for k = 1..s-1, with s = (n+1)/gcd(j, n+1).

    The result always equals {k*gcd(j, n+1) : 1 <= k <= s-1}; the identity is
    re-checked on every call.
    """
    if not 1 <= j <= n:
        raise OutOfRange(f"step j must lie in 1..{n}, got {j}")
    b = gcd(j, n + 1)
    s = (n + 1) // b
    residues = {(k * j) % (n + 1) for k in range(1, s)}
    expected = {k * b for k in range(1, s)}
    if residues != expected:
        raise WitnessFailed(
            "step residue identity", {"j": j, "n": n, "got": sorted(residues)}
        )
    return residues


def coprime_steps(v: int) -> list[int]:
    """The steps j in 1..v-1 coprime to v."""
    return [j for j in range(1, v) if gcd(j, v) == 1]


def witness_pairs(v: int) -> list[tuple[int, int]]:
    """Every (start i, step j coprime to v) witness pair, j outermost."""
    return [(i, j) for j in coprime_steps(v) for i in range(1, v + 1)]


@dataclass(frozen=True)
class BasisWitness:
    """Change-of-basis certificate conjugating an oriented matrix to the
    companion matrix of 1 + x + ... + x^n.

    Row k of ``mf`` holds the coordinates of the k-th iterate of the seed
    path vector (start vertex to its j-th image)."""

    i: int
    j: int
    mf: ExactMatrix
    companion: ExactMatrix
    determinant: int

    def conjugates_over_rationals(self, oriented: ExactMatrix) -> bool:
        """Literal rational check: Mf . A . Mf^-1 equals the companion matrix."""
        mf_q = ExactMatrix(QQ, self.mf.rows)
        a_q = ExactMatrix(QQ, oriented.rows)
        c_q = ExactMatrix(QQ, self.companion.rows)
        return (mf_q @ a_q) @ mf_q.inverse() == c_q


def _witness_rows(f: VertexMap, orientation: Orientation, i: int, j: int):
    tree = f.tree
    n = tree.edge_count
    a = oriented_matrix(f, orientation).oriented
    w = tree.signed_path_vector(orientation, i, f.iterate(i, j))
    rows = [w]
    for _ in range(n - 1):
        w = a.vec_mul(w)
        rows.append(w)
    return a, ExactMatrix(ZZ, rows)


def basis_witness(
    f: VertexMap, orientation: Orientation, i: int = 1, j: int = 1
) -> BasisWitness:
    """Build and validate the witness matrix for start vertex i and step j.

    Requires gcd(j, n+1) = 1.  Validates that det is odd and that
    Mf . A = C . Mf; a violation raises :class:`WitnessFailed`.
    """
    tree = f.tree
    n = tree.edge_count
    tree._check_vertex(i)
    if not 1 <= j <= n:
        raise OutOfRange(f"step j must lie in 1..{n}, got {j}")
    if gcd(j, n + 1) != 1:
        raise NotCoprime(f"step {j} shares a factor with {n + 1}")
    a, mf = _witness_rows(f, orientation, i, j)
    det = mf.determinant()
    if det % 2 == 0:
        raise WitnessFailed(
            "det(Mf) is odd", {"i": i, "j": j, "det": det, "rows": mf.rows}
        )
    c = companion(n)
    if mf @ a != c @ mf:
        raise WitnessFailed("Mf.A == C.Mf", {"i": i, "j": j, "rows": mf.rows})
    return BasisWitness(i=i, j=j, mf=mf, companion=c, determinant=det)


def iter_witness_determinants(
    f: VertexMap, orientation: Orientation
) -> Iterator[tuple[int, int, int]]:
    """Yield (i, j, det(Mf)) over all start vertices and coprime steps.

    Probes determinants without asserting anything about them."""
    for i, j in witness_pairs(f.tree.vertex_count):
        _, mf = _witness_rows(f, orientation, i, j)
        yield i, j, mf.determinant()


def z2_similarity_to_companion(b: ExactMatrix) -> bool:
    """Similarity over GF(2) to the companion matrix of 1 + ... + x^n, whose
    one invariant factor is that polynomial itself."""
    if not b.is_square():
        raise NotSquare("similarity needs a square matrix")
    return invariant_factors(reduce_mod(b, 2)) == [geometric_poly(b.nrows).reduce_mod(2)]


def zp_similarity(b1: ExactMatrix, b2: ExactMatrix, p: int) -> bool:
    """Similarity of two integer matrices over GF(p), via invariant factors."""
    if b1.nrows != b2.nrows or b1.ncols != b2.ncols:
        raise DimensionMismatch("matrices must have equal shapes")
    return invariant_factors(reduce_mod(b1, p)) == invariant_factors(
        reduce_mod(b2, p)
    )


def odd_coefficients_check(b: ExactMatrix) -> bool:
    """Whether every characteristic polynomial coefficient is odd."""
    if not b.is_square():
        raise NotSquare("characteristic polynomial needs a square matrix")
    coeffs = b.charpoly().coeffs
    return len(coeffs) == b.nrows + 1 and all(c % 2 == 1 for c in coeffs)


def petrie_check(m: ExactMatrix) -> bool:
    """Each row's nonzero entries are consecutive and all 1 or all -1."""
    for row in m.rows:
        support = [k for k, e in enumerate(row) if e != 0]
        if not support:
            continue
        if support[-1] - support[0] + 1 != len(support):
            return False
        values = {row[k] for k in support}
        if values != {1} and values != {-1}:
            return False
    return True


def matrix_claims(a: ExactMatrix) -> dict[str, bool]:
    """The claims about an n x n oriented matrix A that need nothing but A:
    charpoly 1 + x + ... + x^n, det (-1)^n, I + A + ... + A^n = 0, and for
    |A| odd charpoly coefficients and GF(2) similarity to the companion."""
    n = a.nrows
    b = a.abs()
    return {
        "oriented_charpoly_geometric": a.charpoly() == geometric_poly(n),
        "oriented_determinant": a.determinant() == (-1) ** n,
        "geometric_sum_zero": geometric_sum_is_zero(a),
        "unoriented_charpoly_odd": odd_coefficients_check(b),
        "z2_companion_similar": z2_similarity_to_companion(b),
    }


def _check_unit_determinant(b: ExactMatrix) -> None:
    det_b = b.determinant()
    if det_b not in (1, -1):
        raise WitnessFailed("unoriented determinant is +-1", {"det": det_b})


def _row_signs_along_path(f: VertexMap, orientation: Orientation, first: int, second: int):
    """Path vertices and per-step signs of the image path of one edge."""
    tree = f.tree
    path = tree.path_vertices(f(first), f(second))
    bits = orientation.bits
    signs = []
    for x, y in zip(path, path[1:]):
        s = 1 if x < y else -1
        if bits[tree.edge_index(x, y)]:
            s = -s
        signs.append(s)
    return path, signs


def uniform_sign_check(f: VertexMap, orientation: Orientation) -> bool:
    """Whether every row of the oriented matrix carries a single sign.

    When it does, re-derives the oriented matrix from the unoriented one by
    row negations and confirms the unoriented determinant is +-1."""
    tm = oriented_matrix(f, orientation)
    a = tm.oriented
    signs = []
    for row in a.rows:
        nz = {e for e in row if e != 0}
        if nz == {1}:
            signs.append(1)
        elif nz == {-1}:
            signs.append(-1)
        else:
            return False
    b = tm.unoriented
    rebuilt = ExactMatrix(ZZ, [[s * e for e in row] for s, row in zip(signs, b.rows)])
    if rebuilt != a:
        raise WitnessFailed("row negations rebuild the oriented matrix", None)
    _check_unit_determinant(b)
    return True


@dataclass(frozen=True)
class SignReduction:
    """Outcome of the one-sign-change reduction.

    ``operations`` is an executable sequence transforming the unoriented
    matrix into the oriented one: ("negate", row) entries first, then
    ("add", source_row, factor, target_row) entries with factor +-2.
    """

    status: ClaimStatus
    operations: tuple = ()
    reason: Optional[str] = None
    mixed_rows: tuple = ()


def _apply_operations(b_rows, operations):
    work = [list(r) for r in b_rows]
    for op in operations:
        if op[0] == "negate":
            _, r = op
            work[r] = [-e for e in work[r]]
        else:
            _, src, factor, dst = op
            work[dst] = [d + factor * s for d, s in zip(work[dst], work[src])]
    return tuple(tuple(r) for r in work)


def split_sign_check(f: VertexMap, orientation: Orientation) -> SignReduction:
    """Reduce the unoriented matrix to the oriented one by row operations.

    Applicable when every mixed-sign row changes sign exactly once along its
    image path and the correcting rows (edges continuing past the split
    vertex's preimage) are single-signed.  On success the returned operation
    sequence rebuilds the oriented matrix bit-exactly, so the unoriented
    determinant is +-1.  Inapplicable instances report not-applicable.
    """
    tree = f.tree
    tm = oriented_matrix(f, orientation)
    a, b = tm.oriented, tm.unoriented
    endpoints = tree.oriented_endpoints(orientation)
    f_inv = f.inverse()

    row_sign = []  # +1 / -1 for uniform rows, None for mixed
    splits = {}
    for i, (first, second) in enumerate(endpoints):
        path, signs = _row_signs_along_path(f, orientation, first, second)
        changes = [t for t in range(len(signs) - 1) if signs[t] != signs[t + 1]]
        if not changes:
            row_sign.append(signs[0])
        elif len(changes) == 1:
            row_sign.append(None)
            splits[i] = (path, signs, changes[0])
        else:
            return SignReduction(
                ClaimStatus.NOT_APPLICABLE,
                reason=f"row {i + 1} changes sign {len(changes)} times",
            )

    operations = []
    additions = []
    for i, (first, second) in enumerate(endpoints):
        if row_sign[i] == -1:
            operations.append(("negate", i))
        if row_sign[i] is not None:
            continue
        path, signs, t0 = splits[i]
        split_vertex = path[t0 + 1]
        pre = f_inv(split_vertex)
        # walk from the far endpoint across edge i and on to the preimage
        walk = tree.path_vertices(first, pre)
        if len(walk) > 1 and walk[1] == second:
            start_is_first = True
        else:
            walk = tree.path_vertices(second, pre)
            start_is_first = False
        s1 = signs[0]
        sign_factor = s1 if start_is_first else -s1
        delta = -1 if start_is_first else 1
        if sign_factor == -1:
            operations.append(("negate", i))
        for x, y in zip(walk[1:], walk[2:]):
            k = tree.edge_index(x, y)
            if row_sign[k] is None:
                return SignReduction(
                    ClaimStatus.NOT_APPLICABLE,
                    reason=f"correction row {k + 1} for row {i + 1} is mixed-signed",
                )
            fx, fy = endpoints[k]
            eps = 1 if (x, y) == (fx, fy) else -1
            additions.append(("add", k, 2 * delta * eps, i))

    operations.extend(additions)
    rebuilt = _apply_operations(b.rows, operations)
    if rebuilt != a.rows:
        raise WitnessFailed(
            "row operations rebuild the oriented matrix",
            {"operations": operations, "got": rebuilt, "want": a.rows},
        )
    _check_unit_determinant(b)
    return SignReduction(
        ClaimStatus.PASS,
        operations=tuple(operations),
        mixed_rows=tuple(sorted(splits)),
    )


# claim keys that must PASS on every instance
MANDATORY_CLAIMS = (
    "oriented_charpoly_geometric",
    "oriented_determinant",
    "geometric_sum_zero",
    "unoriented_charpoly_odd",
    "unoriented_charpoly_mod2_geometric",
    "z2_companion_similar",
    "path_image_identity",
    "basis_witness",
)
# claim keys that may also be not-applicable
CONDITIONAL_CLAIMS = ("uniform_sign", "split_sign")


@dataclass
class InstanceReport:
    """All claim outcomes for one (tree, orientation, vertex map) instance,
    in the sections of the ``analyze`` document: ``instance`` (tree,
    tree_canonical, orientation, map, n), ``matrices`` and ``determinants``
    (oriented, unoriented), ``charpolys`` (oriented, unoriented,
    unoriented_mod2; constant term first), ``claims`` (name to
    :class:`ClaimResult`) and ``witness`` (i, j, matrix, determinant of the
    (1, 1) basis witness, or None when a witness failed)."""

    instance: dict
    matrices: dict
    charpolys: dict
    determinants: dict
    claims: dict
    witness: Optional[dict]

    def all_pass(self) -> bool:
        for name in MANDATORY_CLAIMS:
            if self.claims[name].status is not ClaimStatus.PASS:
                return False
        return all(
            self.claims[name].status is not ClaimStatus.FAIL
            for name in CONDITIONAL_CLAIMS
        )


def _failed(exc: WitnessFailed) -> ClaimResult:
    return ClaimResult(ClaimStatus.FAIL, {"identity": exc.identity})


def verify_instance(
    f: VertexMap, orientation: Orientation, all_witnesses: bool = False
) -> InstanceReport:
    """Run every per-instance claim and assemble a report."""
    tree = f.tree
    n = tree.edge_count
    tm = oriented_matrix(f, orientation)
    a, b = tm.oriented, tm.unoriented
    cp_b = b.charpoly()
    claims = {name: ClaimResult.from_bool(ok) for name, ok in matrix_claims(a).items()}
    # a monic degree-n polynomial has only odd coefficients exactly when it
    # is 1 + x + ... + x^n mod 2
    claims["unoriented_charpoly_mod2_geometric"] = claims["unoriented_charpoly_odd"]
    claims["path_image_identity"] = ClaimResult.from_bool(path_image_check(f, orientation))

    witness = None
    try:
        pairs = witness_pairs(n + 1) if all_witnesses else [(1, 1)]
        w = [basis_witness(f, orientation, i, j) for i, j in pairs][0]  # (1, 1) comes first
        witness = {"i": w.i, "j": w.j, "matrix": w.mf.rows, "determinant": w.determinant}
        claims["basis_witness"] = ClaimResult(ClaimStatus.PASS)
    except WitnessFailed as exc:
        claims["basis_witness"] = _failed(exc)

    try:
        uniform = uniform_sign_check(f, orientation)
        claims["uniform_sign"] = ClaimResult(
            ClaimStatus.PASS if uniform else ClaimStatus.NOT_APPLICABLE
        )
    except WitnessFailed as exc:
        claims["uniform_sign"] = _failed(exc)

    try:
        reduction = split_sign_check(f, orientation)
        claims["split_sign"] = ClaimResult(
            reduction.status,
            {"reason": reduction.reason} if reduction.reason else None,
        )
    except WitnessFailed as exc:
        claims["split_sign"] = _failed(exc)

    return InstanceReport(
        instance={
            "tree": tree.edge_list_str(),
            "tree_canonical": canonical_form(tree),
            "orientation": orientation.bitstring(),
            "map": f.image_str(),
            "n": n,
        },
        matrices={"oriented": a.rows, "unoriented": b.rows},
        charpolys={
            "oriented": a.charpoly().coeffs,
            "unoriented": cp_b.coeffs,
            "unoriented_mod2": cp_b.reduce_mod(2).coeffs,
        },
        determinants={"oriented": a.determinant(), "unoriented": b.determinant()},
        claims=claims,
        witness=witness,
    )
