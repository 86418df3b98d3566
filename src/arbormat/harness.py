"""Deterministic sweep driver over instance spaces.

An instance is (tree, orientation, single-cycle vertex map).  A task is one
tree with its tuple of orientations, covering all cycles at once via the
batched kernels in :mod:`arbormat._fast`.  The theorem, witness,
determinant and exhaustive path-transport claims are invariant under the
similarity A_o = D.A_0.D that reversing edges induces, so they are computed
once per tree and carried to every other orientation by a certificate (see
:class:`_OrientationQuotient`); the split-sign and path-graph tasks hold one
orientation each.  Within a computed row, the theorem, witness and
determinant claims follow from the closed form of det Mf once the row
passes path transport; the direct kernels decide the rows that fail it and
a fixed audit set of every chunk (see :mod:`arbormat.certificate`).  Every
task returns one sub-result per orientation; tasks are distributed over a
process pool and sub-results are reduced in sorted (v, tree, orientation)
order, so output is identical for any worker count.  Orientation sampling
is counter-based, keyed by (seed, tree code), hence schedule-independent.
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import multiprocessing
import random
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from . import _fast
from .certificate import (
    AUDIT_AGREEMENT,
    certified_rows,
    closed_form_dets,
    decide,
    start_vertex_orbit,
    witness_pairs,
)
from .errors import CapExceeded, WitnessFailed
from .dynamics import VertexMap, path_image_check
from .theorems import ClaimStatus, _witness_rows, basis_witness, split_sign_check
from .trees import (
    DEFAULT_VERTEX_CAP,
    Orientation,
    Tree,
    canonical_form,
    enumerate_trees,
    path_edge_ordered,
    same_direction_orientation,
)

__all__ = [
    "OrientationPolicy",
    "QuotientCounts",
    "TheoremSweepResult",
    "WitnessSweepResult",
    "PathImageResult",
    "PathGraphResult",
    "SplitSignResult",
    "DetSearchResult",
    "run_theorem_sweep",
    "run_witness_sweep",
    "run_path_image_sweep",
    "run_path_graph_sweep",
    "run_split_sign_sweep",
    "run_det_search",
    "random_instances",
    "DEFAULT_N_CAP",
]

DEFAULT_N_CAP = DEFAULT_VERTEX_CAP - 1
MAX_FAILURE_RECORDS = 20
# A quarter of the 8! cycles of one n = 8 task: its (B, n, n) int64
# temporaries stay near 45 MB instead of 175 MB, and n <= 7 is never split.
CYCLE_CHUNK = 10_080
RANDOM_CHUNK = 128  # random instances held at once by the path-transport sweep
PATH_IMAGE_AUDIT = 16  # random instances also checked on the exact route
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters


def _image_chunks(images: np.ndarray):
    b = images.shape[0]
    if b <= CYCLE_CHUNK:
        yield images
        return
    for start in range(0, b, CYCLE_CHUNK):
        yield images[start : start + CYCLE_CHUNK]


@dataclass(frozen=True)
class OrientationPolicy:
    """How to choose edge orientations per tree: all 2^n, canonical only, or
    canonical plus a seeded sample."""

    mode: str  # "all" | "canonical" | "sample"
    sample_count: int = 0

    @classmethod
    def parse(cls, text: str) -> "OrientationPolicy":
        if text == "all":
            return cls("all")
        if text == "canonical":
            return cls("canonical")
        if text.startswith("sample:"):
            count = int(text.split(":", 1)[1])
            if count < 0:
                raise ValueError("sample count must be nonnegative")
            return cls("sample", count)
        raise ValueError(f"unknown orientation policy {text!r}")

    def describe(self) -> str:
        return f"sample:{self.sample_count}" if self.mode == "sample" else self.mode


def _sample_orientation(seed: int, tree_code: str, counter: int, n: int) -> int:
    digest = hashlib.sha256(f"{seed}|{tree_code}|{counter}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (1 << n)


def orientations_for(
    policy: OrientationPolicy, n: int, seed: int, tree_code: str
) -> list[int]:
    if policy.mode == "all":
        return list(range(1 << n))
    if policy.mode == "canonical":
        return [0]
    return [0] + [
        _sample_orientation(seed, tree_code, k, n) for k in range(policy.sample_count)
    ]


@lru_cache(maxsize=64)
def trees_for(v: int) -> tuple[Tree, ...]:
    return tuple(enumerate_trees(v, cap=max(v, DEFAULT_VERTEX_CAP)))


@lru_cache(maxsize=256)
def _spv_table_cached(edges: tuple) -> np.ndarray:
    return _fast.signed_path_table(Tree(edges))


@lru_cache(maxsize=256)
def _path_table_cached(edges: tuple):
    return _fast.path_table(Tree(edges))


def _check_cap(ns, cap):
    """Reject every n a sweep cannot finish, before any tree is enumerated."""
    for n in ns:
        if n > cap:
            raise CapExceeded(f"n = {n} exceeds cap {cap} (set ARBOR_CAP_N to raise)")
        if n > _fast.SWEEP_N_CAP:
            raise CapExceeded(
                f"n = {n} exceeds the sweep limit of n <= {_fast.SWEEP_N_CAP}: "
                f"{n}! cycle images per tree would be materialized"
            )
        if n < 2:
            raise CapExceeded(f"n = {n} below the minimum of 2")


def _run_tasks(worker, tasks, workers: int, counts=None) -> list[dict]:
    """Run every task, flatten the sub-results each returns and sort them by
    key; a QuotientCounts given as ``counts`` sums their quotient counters."""
    workers = min(workers, len(tasks))
    if workers <= 1:
        outputs = [worker(t) for t in tasks]
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=workers) as pool:
            outputs = pool.map(partial(_pool_task, worker), tasks, chunksize=1)
    results = [res for subs in outputs for res in subs]
    if counts is not None:
        for res in results:
            counts.add(res["quotient"])
    results.sort(key=lambda r: r["key"])
    return results


def _pool_task(worker, task) -> list[dict]:
    _keep_heap()
    return worker(task)


@lru_cache(maxsize=None)
def _keep_heap() -> None:
    """Keep freed memory in this pool worker's heap.

    Every chunk of a sweep allocates the same megabyte-sized numpy
    temporaries.  glibc's adaptive thresholds serve the largest of them by
    mmap and trim the heap top after the rest, so each chunk faults its
    pages in anew: about 23k extra minor faults and a quarter of the
    workers' CPU in a `verify --n 7 --orientations canonical` run, and
    run-to-run time that follows the kernel's page-fault cost.  Fixed
    thresholds let the heap serve them: mmap from 32 MiB, the ceiling of
    glibc's own adaptive rule on 64-bit, and trim from 64 MiB.  A worker
    exits with its sweep, so the memory it keeps is returned then; without
    glibc this does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


@dataclass
class QuotientCounts:
    """How the instances of a quotiented sweep were decided.

    Orientation quotient, in instances: computed by the claims function, on
    the representative orientation or as a certificate fallback; derived:
    carried over from the representative through the certificate, or
    repeated from a sampled duplicate; fallbacks: rows whose matrix failed
    the certificate (also computed).

    Transport certificate of the theorem, witness and determinant claims,
    splitting the computed rows: certified, claims taken from the closed
    form; audited, decided on the direct route as a chunk's audit set;
    uncertified, failed the certificate and decided on the direct route.
    disagreements counts the certified audit rows whose direct values
    differ from the closed form."""

    computed: int = 0
    derived: int = 0
    fallbacks: int = 0
    certified: int = 0
    audited: int = 0
    uncertified: int = 0
    disagreements: int = 0

    def add(self, other: "QuotientCounts") -> None:
        for name, value in vars(other).items():
            setattr(self, name, getattr(self, name) + value)

    def transport(self) -> str:
        return (
            f"{self.certified} certified, {self.audited} audited, "
            f"{self.uncertified} uncertified, {self.disagreements} audit disagreements"
        )

    def __str__(self) -> str:
        return (
            f"{self.computed} computed, {self.derived} derived, "
            f"{self.fallbacks} certificate fallbacks"
        )


class _Oriented(NamedTuple):
    """One tree under one orientation bitmask, ready for the batched kernels."""

    tree: Tree
    bits: int
    table: np.ndarray  # oriented signed path table
    first: np.ndarray  # oriented edge endpoints
    second: np.ndarray

    @classmethod
    def of(cls, tree: Tree, bits: int) -> "_Oriented":
        table = _fast.orient_table(_spv_table_cached(tree.edges), bits, tree.edge_count)
        return cls(tree, bits, table, *_fast.oriented_endpoint_arrays(tree, bits))

    def build(self, images: np.ndarray) -> np.ndarray:
        return _fast.build_oriented_batch(self.table, images, self.first, self.second)


class _OrientationQuotient:
    """One tree under a tuple of orientations, its claims computed once.

    Reversing edge k negates row k and coordinate k of the oriented matrix,
    so A_o = D.A_r.D with D = diag(signs of o ^ r) for the representative
    r = orientations[0].  The claims a sweep decides here are invariant
    under that similarity, except for ``signed`` values such as det Mf that
    pick up the factor det D = +-1.  So the claims function runs on r, and
    every other orientation takes r's flags for the rows whose built matrix
    passes the certificate A_o == D.A_r.D; a row that fails it is
    recomputed directly by the same claims function.  Claims functions take
    (oriented tree, images, matrices, counts) and may add their own
    transport-certificate tallies to the orientation's QuotientCounts."""

    def __init__(self, v: int, edges: tuple, orientations: tuple):
        self.v = v
        self.tree = Tree(edges)
        self.edges_str = self.tree.edge_list_str()
        self.orientations = orientations
        # distinct orientations, representative first
        self.oriented = {bits: _Oriented.of(self.tree, bits) for bits in orientations}
        self.rows = 0
        self.counts = {bits: QuotientCounts() for bits in self.oriented}

    def chunks(self, claims, signed=()):
        """Per cycle chunk: the images and, per distinct orientation, the
        claims' per-row arrays."""
        rep, *others = self.oriented.values()
        for images in _image_chunks(_fast.cycle_images(self.v)):
            batch = images.shape[0]
            self.rows += batch
            a_rep = rep.build(images)
            base = claims(rep, images, a_rep, self.counts[rep.bits])
            self.counts[rep.bits].computed += batch
            flags = {rep.bits: base}
            for o in others:
                d = _fast.orientation_signs(o.bits ^ rep.bits, a_rep.shape[1])
                det_d = int(d.prod())
                own = {k: x * det_d if k in signed else x for k, x in base.items()}
                a = o.build(images)
                bad = np.nonzero(~np.all(a == d[:, None] * a_rep * d, axis=(1, 2)))[0]
                if bad.size:
                    counts = self.counts[o.bits]
                    redo = claims(o, images[bad], a[bad], counts)
                    own = {k: x.copy() for k, x in own.items()}
                    for k, x in own.items():
                        x[bad] = redo[k]
                    counts.computed += bad.size
                    counts.fallbacks += bad.size
                flags[o.bits] = own
            yield images, flags

    def descriptor(self, bits: int, image_row) -> dict:
        return _instance_descriptor(self.edges_str, bits, self.v - 1, image_row)

    def results(self, tree_idx: int, per_bits: dict) -> list[dict]:
        """One sub-result per entry of the orientations tuple, duplicates
        included; a repeated orientation counts as derived."""
        out = []
        seen = set()
        for bits in self.orientations:
            counts = QuotientCounts() if bits in seen else self.counts[bits]
            seen.add(bits)
            counts.derived = self.rows - counts.computed
            out.append({"key": (self.v, tree_idx, bits), **per_bits[bits], "quotient": counts})
        return out


def _tree_tasks(ns, policy: OrientationPolicy, seed: int, per_n=None, paths_only=False):
    """(v, tree index, edges, orientations) per tree of every n, counting
    trees and orientations into per_n when given."""
    tasks = []
    for n in ns:
        v = n + 1
        for tree_idx, tree in enumerate(trees_for(v)):
            if paths_only and not tree.is_path():
                continue
            orientations = tuple(orientations_for(policy, n, seed, canonical_form(tree)))
            if per_n is not None:
                per_n[n]["trees"] += 1
                per_n[n]["orientations"] += len(orientations)
            tasks.append((v, tree_idx, tree.edges, orientations))
    return tasks


def _instance_descriptor(edges_str: str, bits: int, n: int, image_row) -> dict:
    return {
        "tree": edges_str,
        "orientation": _bits_string(bits, n),
        "map": ",".join(str(int(x)) for x in image_row[1:]),
    }


def _bits_string(bits: int, n: int) -> str:
    # bit k of the mask is edge k, printed left to right
    return "".join("1" if (bits >> k) & 1 else "0" for k in range(n))


# --------------------------------------------------------------------------
# theorem sweep (charpoly / determinant / geometric sum / oddness / GF(2))

THEOREM_CLAIMS = (
    "oriented_charpoly_geometric",
    "oriented_determinant",
    "geometric_sum_zero",
    "unoriented_charpoly_odd",
    "z2_companion_similar",
    "basis_witness",
)


def _theorem_claims_direct(o: _Oriented, images, a, with_path_image) -> dict:
    """Per-row verdicts of every theorem-sweep claim from the kernels; the
    witness is the single pair (1, 1)."""
    n = a.shape[1]
    sign = 1 if n % 2 == 0 else -1
    b = np.abs(a)
    cp_a = _fast.batched_charpoly(a)
    cp_b = _fast.batched_charpoly(b)
    ok = {
        "oriented_charpoly_geometric": np.all(cp_a == 1, axis=1),
        "oriented_determinant": (sign * cp_a[:, 0]) == sign,
        "geometric_sum_zero": _fast.batched_geometric_sum_zero(a),
        "unoriented_charpoly_odd": np.all(cp_b % 2 == 1, axis=1),
    }
    ok["z2_companion_similar"] = (
        ok["unoriented_charpoly_odd"] & _fast.batched_gf2_nonderogatory(b)
    )
    if with_path_image:
        ok["path_image_identity"] = _fast.batched_path_image_ok(o.table[1], images, a)
    seeds = o.table[1, images[:, 1], :].astype(np.int64)
    gate, det, companion_ok = _fast.batched_witness(a, seeds)
    witness_ok = gate & (det % 2 == 1) & companion_ok
    for idx in np.nonzero(~gate)[0]:
        witness_ok[idx] = _exact_witness_ok(o.tree, o.bits, images[idx], 1, 1)
    ok["basis_witness"] = witness_ok
    return ok


def _theorem_claims_derived(o: _Oriented, images, a, with_path_image):
    """Every theorem claim holds on a row where Mf = Mf(1, 1) is certified:
    A = Mf^-1.C.Mf over Z gives the charpoly, the determinant and the
    geometric sum of C, and B = |A| == A mod 2 is similar to C over GF(2),
    so its charpoly is odd.  Path transport is the certificate itself."""
    names = THEOREM_CLAIMS + (("path_image_identity",) if with_path_image else ())
    rows = images.shape[0]
    claims = {name: np.ones(rows, dtype=bool) for name in names}
    return claims, certified_rows(o, images, a, (1,))


def _theorem_claims(o: _Oriented, images, a, counts, with_path_image) -> dict:
    return decide(
        partial(_theorem_claims_derived, with_path_image=with_path_image),
        partial(_theorem_claims_direct, with_path_image=with_path_image),
        o, images, a, counts,
    )


def _theorem_worker(args) -> list[dict]:
    v, tree_idx, edges, orientations, with_path_image = args
    quotient = _OrientationQuotient(v, edges, orientations)
    claims = partial(_theorem_claims, with_path_image=with_path_image)
    out = {
        bits: {"n": v - 1, "instances": 0, "failed_instances": 0,
               "claim_failures": {}, "failures": []}
        for bits in quotient.oriented
    }
    for images, flags in quotient.chunks(claims):
        for bits, ok in flags.items():
            res = out[bits]
            res["instances"] += int(images.shape[0])
            combined = np.ones(images.shape[0], dtype=bool)
            for name, verdicts in ok.items():
                combined &= verdicts
                bad = int((~verdicts).sum())
                if bad:
                    res["claim_failures"][name] = res["claim_failures"].get(name, 0) + bad
            res["failed_instances"] += int((~combined).sum())
            for idx in np.nonzero(~combined)[0]:
                if len(res["failures"]) >= MAX_FAILURE_RECORDS:
                    break
                desc = quotient.descriptor(bits, images[idx])
                desc["claims"] = sorted(
                    name for name, verdicts in ok.items() if not verdicts[idx]
                )
                res["failures"].append(desc)
    return quotient.results(tree_idx, out)


def _exact_witness_ok(tree: Tree, bits: int, image_row, i: int, j: int) -> bool:
    f = VertexMap(tree, [int(x) for x in image_row[1:]])
    orientation = Orientation.from_int(bits, tree.edge_count)
    try:
        basis_witness(f, orientation, i, j)
        return True
    except WitnessFailed:
        return False


@dataclass
class TheoremSweepResult:
    ns: list[int]
    policy: str
    seed: int
    per_n: dict = field(default_factory=dict)
    claim_failures: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    total_instances: int = 0
    all_pass: bool = True


def run_theorem_sweep(
    ns,
    policy: OrientationPolicy,
    seed: int = 0,
    workers: int = 1,
    cap: int = DEFAULT_N_CAP,
    path_image_max_n: int = 5,
    counts: QuotientCounts | None = None,
) -> TheoremSweepResult:
    """Run the per-instance matrix claims over whole instance spaces; the
    quotient counters of the run are added to ``counts`` when given."""
    ns = sorted(set(ns))
    _check_cap(ns, cap)
    per_n = {n: {"trees": 0, "orientations": 0, "instances": 0, "failures": 0} for n in ns}
    tasks = [
        task + (task[0] - 1 <= path_image_max_n,)
        for task in _tree_tasks(ns, policy, seed, per_n)
    ]
    results = _run_tasks(_theorem_worker, tasks, workers, counts)

    out = TheoremSweepResult(ns=ns, policy=policy.describe(), seed=seed)
    out.per_n = per_n
    claim_totals: dict[str, int] = {}
    for res in results:
        n = res["n"]
        per_n[n]["instances"] += res["instances"]
        per_n[n]["failures"] += res["failed_instances"]
        for name, cnt in res["claim_failures"].items():
            claim_totals[name] = claim_totals.get(name, 0) + cnt
        out.failures.extend(res["failures"])
        out.total_instances += res["instances"]
        if res["failed_instances"]:
            out.all_pass = False
    out.failures = out.failures[:MAX_FAILURE_RECORDS]
    out.claim_failures = dict(sorted(claim_totals.items()))
    return out


# --------------------------------------------------------------------------
# basis-witness sweep over all start vertices and coprime steps


def _direct_witnesses(o: _Oriented, images, a):
    """The witness pairs, and batched_witness's (gate, det, companion_ok) of
    every row and pair, each (rows, pairs), building every Mf(i, j).  Rows
    go in blocks whose stacked witnesses number about CYCLE_CHUNK."""
    v = images.shape[1] - 1
    pairs = witness_pairs(v)
    starts = np.array([i for i, _ in pairs])
    steps = np.array([j for _, j in pairs])
    out = [np.empty((images.shape[0], len(pairs)), dtype=t) for t in (bool, np.int64, bool)]
    block = max(1, CYCLE_CHUNK // len(pairs))
    for lo in range(0, images.shape[0], block):
        part = images[lo : lo + block]
        orbit, position = start_vertex_orbit(part)
        ends = np.take_along_axis(orbit, (position[:, starts] + steps) % v, axis=1)
        seeds = o.table[starts, ends].reshape(-1, v - 1)  # row-major: pair within row
        mats = np.repeat(a[lo : lo + block], len(pairs), axis=0)
        for dst, x in zip(out, _fast.batched_witness(mats, seeds)):
            dst[lo : lo + part.shape[0]] = x.reshape(part.shape[0], -1)
    return pairs, out


def _witness_claims_direct(o: _Oriented, images, a) -> dict:
    """Per row and witness pair: whether the basis claims hold, and det Mf,
    building every Mf(i, j)."""
    pairs, (gate, det, companion_ok) = _direct_witnesses(o, images, a)
    ok = gate & (det % 2 == 1) & companion_ok
    for idx, p in zip(*np.nonzero(~gate)):
        ok[idx, p] = _exact_witness_ok(o.tree, o.bits, images[idx], *pairs[p])
    return {"ok": ok, "det": det}


def _witness_claims_derived(o: _Oriented, images, a):
    """On a certified row every Mf(i, j) is a unimodular {-1, 0, 1} matrix
    with Mf.A == C.Mf, so its verdict is its closed-form det odd."""
    det, certified = closed_form_dets(o, images, a)
    return {"ok": det % 2 == 1, "det": det}, certified


def _witness_claims(o: _Oriented, images, a, counts: QuotientCounts) -> dict:
    return decide(_witness_claims_derived, _witness_claims_direct, o, images, a, counts)


def _witness_worker(args) -> list[dict]:
    v, tree_idx, edges, orientations = args
    quotient = _OrientationQuotient(v, edges, orientations)
    pairs = witness_pairs(v)
    out = {
        bits: {"n": v - 1, "instances": 0, "witnesses": 0, "failures": []}
        for bits in quotient.oriented
    }
    for images, flags in quotient.chunks(_witness_claims, signed=("det",)):
        for bits, claims in flags.items():
            res = out[bits]
            res["instances"] += int(images.shape[0])
            ok = claims["ok"] & claims[AUDIT_AGREEMENT][:, None]
            res["witnesses"] += ok.size
            # pair-major, as the pairs are checked
            for p, idx in zip(*np.nonzero(~ok.T)):
                if len(res["failures"]) >= MAX_FAILURE_RECORDS:
                    break
                i, j = pairs[p]
                desc = quotient.descriptor(bits, images[idx])
                desc.update({"i": i, "j": j, "det": int(claims["det"][idx, p])})
                res["failures"].append(desc)
    return quotient.results(tree_idx, out)


@dataclass
class WitnessSweepResult:
    ns: list[int]
    policy: str
    seed: int
    total_witnesses: int = 0
    failures: list = field(default_factory=list)
    all_pass: bool = True


def run_witness_sweep(
    ns,
    policy: OrientationPolicy,
    seed: int = 0,
    workers: int = 1,
    cap: int = DEFAULT_N_CAP,
    counts: QuotientCounts | None = None,
) -> WitnessSweepResult:
    ns = sorted(set(ns))
    _check_cap(ns, cap)
    tasks = _tree_tasks(ns, policy, seed)
    results = _run_tasks(_witness_worker, tasks, workers, counts)
    out = WitnessSweepResult(ns=ns, policy=policy.describe(), seed=seed)
    for res in results:
        out.total_witnesses += res["witnesses"]
        out.failures.extend(res["failures"])
    out.failures = out.failures[:MAX_FAILURE_RECORDS]
    out.all_pass = not out.failures
    return out


# --------------------------------------------------------------------------
# path-transport sweep: exhaustive small n plus seeded random large n


def _path_image_claims(o: _Oriented, images, a, counts) -> dict:
    return {"ok": _fast.batched_path_image_ok(o.table[1], images, a)}


def _path_image_worker(args) -> list[dict]:
    v, tree_idx, edges, orientations = args
    quotient = _OrientationQuotient(v, edges, orientations)
    out = {bits: {"instances": 0, "failures": []} for bits in quotient.oriented}
    for images, flags in quotient.chunks(_path_image_claims):
        for bits, claims in flags.items():
            res = out[bits]
            res["instances"] += int(images.shape[0])
            for idx in np.nonzero(~claims["ok"])[0]:
                if len(res["failures"]) >= MAX_FAILURE_RECORDS:
                    break
                res["failures"].append(quotient.descriptor(bits, images[idx]))
    return quotient.results(tree_idx, out)


def random_instances(seed: int, count: int, n_lo: int, n_hi: int):
    """Seeded stream of (tree, map, orientation) with n in [n_lo, n_hi]."""
    from .trees import decode_prufer

    for idx in range(count):
        rng = random.Random(f"{seed}|instance|{idx}")
        n = rng.randint(n_lo, n_hi)
        v = n + 1
        tree = decode_prufer([rng.randint(1, v) for _ in range(v - 2)])
        rest = list(range(2, v + 1))
        rng.shuffle(rest)
        cycle = [1] + rest
        image = [0] * v
        for x, y in zip(cycle, cycle[1:] + cycle[:1]):
            image[x - 1] = y
        yield (
            VertexMap(tree, image),
            Orientation.from_int(rng.getrandbits(n), n),
        )


def _random_path_image_ok(instances) -> np.ndarray:
    """Batched path-transport verdicts of (vertex map, orientation) pairs,
    one kernel call per vertex count."""
    ok = np.zeros(len(instances), dtype=bool)
    by_v: dict[int, list[int]] = {}
    for k, (f, _) in enumerate(instances):
        by_v.setdefault(f.tree.vertex_count, []).append(k)
    for group in by_v.values():
        pairs = [instances[k] for k in group]
        roots = np.stack([_fast.root_vectors(f.tree) * o.sign_vector() for f, o in pairs])
        images = np.array([(0,) + f.image for f, _ in pairs], dtype=np.int64)
        ends = np.array([f.tree.oriented_endpoints(o) for f, o in pairs], dtype=np.int64)
        b, n, _ = ends.shape
        image_ends = np.take_along_axis(images, ends.reshape(b, 2 * n), axis=1)
        image_ends = image_ends.reshape(b, n, 2)
        batch = np.arange(b)[:, None]
        # row i: the signed path vector f(first_i) -> f(second_i)
        mats = roots[batch, image_ends[..., 1]] - roots[batch, image_ends[..., 0]]
        ok[group] = _fast.batched_path_image_ok(roots, images, mats)
    return ok


@dataclass
class PathImageResult:
    exhaustive_instances: int = 0
    random_instances: int = 0
    failures: list = field(default_factory=list)
    all_pass: bool = True


def run_path_image_sweep(
    ns_exhaustive,
    random_count: int = 0,
    random_n: tuple[int, int] = (6, 9),
    seed: int = 0,
    workers: int = 1,
    cap: int = DEFAULT_N_CAP,
    counts: QuotientCounts | None = None,
) -> PathImageResult:
    ns = sorted(set(ns_exhaustive))
    _check_cap(ns, cap)
    tasks = _tree_tasks(ns, OrientationPolicy("all"), seed)
    results = _run_tasks(_path_image_worker, tasks, workers, counts)
    out = PathImageResult()
    for res in results:
        out.exhaustive_instances += res["instances"]
        out.failures.extend(res["failures"])
    # the first PATH_IMAGE_AUDIT instances are also decided on the exact
    # route; a disagreement fails the instance
    stream = random_instances(seed, random_count, *random_n)
    for start in range(0, random_count, RANDOM_CHUNK):
        chunk = list(itertools.islice(stream, RANDOM_CHUNK))
        for idx, (f, orientation), ok in zip(
            itertools.count(start), chunk, _random_path_image_ok(chunk)
        ):
            if idx < PATH_IMAGE_AUDIT and path_image_check(f, orientation) != ok:
                ok = False
            out.random_instances += 1
            if ok:
                continue
            out.failures.append(
                {
                    "tree": f.tree.edge_list_str(),
                    "orientation": orientation.bitstring(),
                    "map": f.image_str(),
                }
            )
    out.failures = out.failures[:MAX_FAILURE_RECORDS]
    out.all_pass = not out.failures
    return out


# --------------------------------------------------------------------------
# path graphs: Petrie structure of witness matrices and uniform row signs


def _path_graph_worker(args) -> list[dict]:
    v, edges, bits = args
    n = v - 1
    tree = Tree(edges)
    o = _Oriented.of(tree, bits)
    instances = 0
    failures = []
    for images in _image_chunks(_fast.cycle_images(v)):
        a = o.build(images)
        b = np.abs(a)
        uniform = _fast.batched_uniform_sign(a)
        unimodular = np.abs(_fast.batched_charpoly(b)[:, 0]) == 1

        petrie_all = np.ones(images.shape[0], dtype=bool)
        witness_unimodular = np.ones(images.shape[0], dtype=bool)
        gates = np.ones(images.shape[0], dtype=bool)
        for i, j in witness_pairs(v):
            seeds = o.table[i, _fast.iterate_images(images, i, j), :].astype(np.int64)
            mf, gate = _fast.batched_witness_matrix(a, seeds)
            gates &= gate
            petrie_all &= _fast.batched_petrie(mf)
            cp_mf = _fast.batched_charpoly(np.where(gate[:, None, None], mf, 0))
            witness_unimodular &= np.abs(cp_mf[:, 0]) == 1

        ok = uniform & unimodular & petrie_all & witness_unimodular & gates
        instances += int(images.shape[0])
        if not ok.all():
            edges_str = tree.edge_list_str()
            for idx in np.nonzero(~ok)[0]:
                if len(failures) >= MAX_FAILURE_RECORDS:
                    break
                desc = _instance_descriptor(edges_str, bits, n, images[idx])
                desc["uniform_sign"] = bool(uniform[idx])
                desc["petrie"] = bool(petrie_all[idx])
                failures.append(desc)
    return [{"key": (v, bits), "instances": instances, "failures": failures}]


@dataclass
class PathGraphResult:
    instances: int = 0
    failures: list = field(default_factory=list)
    all_pass: bool = True


def run_path_graph_sweep(ns, workers: int = 1, cap: int = DEFAULT_N_CAP) -> PathGraphResult:
    """Path trees under the along-the-path orientation: every oriented row is
    single-signed, the unoriented determinant is +-1, and every witness
    matrix is a Petrie matrix with determinant +-1.

    Edges are reindexed along the path first: the Petrie contiguity claim is
    relative to interval-style edge order."""
    ns = sorted(set(ns))
    _check_cap(ns, cap)
    tasks = []
    for n in ns:
        v = n + 1
        for tree in trees_for(v):
            if not tree.is_path():
                continue
            tree = path_edge_ordered(tree)
            orientation = same_direction_orientation(tree)
            bits = sum(1 << k for k, flag in enumerate(orientation.bits) if flag)
            tasks.append((v, tree.edges, bits))
    results = _run_tasks(_path_graph_worker, tasks, workers)
    out = PathGraphResult()
    for res in results:
        out.instances += res["instances"]
        out.failures.extend(res["failures"])
    out.failures = out.failures[:MAX_FAILURE_RECORDS]
    out.all_pass = not out.failures
    return out


# --------------------------------------------------------------------------
# split-sign reduction sweep


@dataclass
class SplitSignResult:
    instances: int = 0
    applicable: int = 0
    with_additions: int = 0
    not_applicable: int = 0
    failures: list = field(default_factory=list)
    all_pass: bool = True
    example_with_additions: dict | None = None
    example_not_applicable: dict | None = None


# identity of a failure where the batched and exact verdicts differ
SPLIT_SIGN_AGREEMENT = "batched and exact split-sign verdicts agree"


def _exact_split_sign(tree: Tree, orientation: Orientation, image_row):
    """(verdict, reason or failed identity) of split_sign_check."""
    f = VertexMap(tree, [int(x) for x in image_row[1:]])
    try:
        reduction = split_sign_check(f, orientation)
    except WitnessFailed as exc:
        return "fail", exc.identity
    if reduction.status is not ClaimStatus.PASS:
        return "not_applicable", reduction.reason
    return ("with_additions" if reduction.mixed_rows else "applicable"), None


def _split_sign_worker(args) -> list[dict]:
    """Batched split-sign verdicts of one task.  The exact route audits the
    task's first applicable and first not-applicable instance, supplies the
    not-applicable reason, and names the identity of every failure."""
    v, tree_idx, edges, bits = args
    n = v - 1
    tree = Tree(edges)
    orientation = Orientation.from_int(bits, n)
    o = _Oriented.of(tree, bits)
    paths = _path_table_cached(edges)
    counts = {"instances": 0, "applicable": 0, "with_additions": 0, "not_applicable": 0}
    failures = []
    example_add = None
    example_na = None
    audited = set()
    edges_str = tree.edge_list_str()
    for images in _image_chunks(_fast.cycle_images(v)):
        a = o.build(images)
        applicable, mixed, holds = _fast.batched_split_sign(
            paths, o.table, images, o.first, o.second, a
        )
        passed = applicable & holds
        counts["instances"] += int(images.shape[0])
        counts["applicable"] += int(passed.sum())
        counts["with_additions"] += int((passed & mixed).sum())
        counts["not_applicable"] += int((~applicable).sum())
        if example_add is None and (passed & mixed).any():
            idx = int(np.argmax(passed & mixed))
            example_add = _instance_descriptor(edges_str, bits, n, images[idx])

        room = max(0, MAX_FAILURE_RECORDS - len(failures))
        picks = np.nonzero(applicable & ~holds)[0].tolist()[:room]
        for kind, flags in (("applicable", passed), ("not_applicable", ~applicable)):
            if kind not in audited and flags.any():
                audited.add(kind)
                picks.append(int(np.argmax(flags)))
        for idx in sorted(picks):
            if not applicable[idx]:
                verdict = "not_applicable"
            elif not holds[idx]:
                verdict = "fail"
            else:
                verdict = "with_additions" if mixed[idx] else "applicable"
            desc = _instance_descriptor(edges_str, bits, n, images[idx])
            exact, detail = _exact_split_sign(tree, orientation, images[idx])
            if exact == "fail":
                failures.append({**desc, "identity": detail})
            elif exact != verdict:
                failures.append({**desc, "identity": SPLIT_SIGN_AGREEMENT})
            elif exact == "not_applicable":
                example_na = {**desc, "reason": detail}
    return [{
        "key": (v, tree_idx, bits),
        "counts": counts,
        "failures": failures[:MAX_FAILURE_RECORDS],
        "example_with_additions": example_add,
        "example_not_applicable": example_na,
    }]


def run_split_sign_sweep(ns, workers: int = 1, cap: int = DEFAULT_N_CAP) -> SplitSignResult:
    ns = sorted(set(ns))
    _check_cap(ns, cap)
    tasks = []
    for n in ns:
        v = n + 1
        for tree_idx, tree in enumerate(trees_for(v)):
            for bits in range(1 << n):
                tasks.append((v, tree_idx, tree.edges, bits))
    results = _run_tasks(_split_sign_worker, tasks, workers)
    out = SplitSignResult()
    for res in results:
        for name, value in res["counts"].items():
            setattr(out, name, getattr(out, name) + value)
        out.failures.extend(res["failures"])
        if out.example_with_additions is None:
            out.example_with_additions = res["example_with_additions"]
        if out.example_not_applicable is None:
            out.example_not_applicable = res["example_not_applicable"]
    out.failures = out.failures[:MAX_FAILURE_RECORDS]
    out.all_pass = not out.failures
    return out


# --------------------------------------------------------------------------
# determinant search over witness matrices


def _det_claims_direct(o: _Oriented, images, a) -> dict:
    """Signed det Mf per row and witness pair, building every Mf(i, j)."""
    n = a.shape[1]
    pairs, (gate, det, _) = _direct_witnesses(o, images, a)
    for idx, p in zip(*np.nonzero(~gate)):
        f = VertexMap(o.tree, [int(x) for x in images[idx][1:]])
        _, exact_mf = _witness_rows(f, Orientation.from_int(o.bits, n), *pairs[p])
        det[idx, p] = exact_mf.determinant()
    return {"det": det}


def _det_claims_derived(o: _Oriented, images, a):
    det, certified = closed_form_dets(o, images, a)
    return {"det": det}, certified


def _det_claims(o: _Oriented, images, a, counts: QuotientCounts) -> dict:
    return decide(_det_claims_derived, _det_claims_direct, o, images, a, counts)


def _det_search_worker(args) -> list[dict]:
    v, tree_idx, edges, orientations = args
    quotient = _OrientationQuotient(v, edges, orientations)
    pairs = witness_pairs(v)
    out = {bits: {"histogram": {}, "nonunit": []} for bits in quotient.oriented}
    for images, flags in quotient.chunks(_det_claims, signed=("det",)):
        for bits, claims in flags.items():
            res = out[bits]
            histogram = res["histogram"]
            dets = np.abs(claims["det"])
            values, counts = np.unique(dets, return_counts=True)
            for value, count in zip(values, counts):
                histogram[int(value)] = histogram.get(int(value), 0) + int(count)
            for p, idx in zip(*np.nonzero(dets.T != 1)):
                if len(res["nonunit"]) >= MAX_FAILURE_RECORDS:
                    break
                i, j = pairs[p]
                desc = quotient.descriptor(bits, images[idx])
                desc.update({"i": i, "j": j, "abs_det": int(dets[idx, p])})
                res["nonunit"].append(desc)
    return quotient.results(tree_idx, out)


@dataclass
class DetSearchResult:
    ns: list[int]
    policy: str
    seed: int
    histogram: dict = field(default_factory=dict)
    nonunit_witnesses: list = field(default_factory=list)
    all_odd: bool = True
    all_unit: bool = True


def run_det_search(
    ns,
    policy: OrientationPolicy,
    seed: int = 0,
    workers: int = 1,
    cap: int = DEFAULT_N_CAP,
    paths_only: bool = False,
    counts: QuotientCounts | None = None,
) -> DetSearchResult:
    """Tabulate |det| of every witness matrix over the instance space."""
    ns = sorted(set(ns))
    _check_cap(ns, cap)
    tasks = _tree_tasks(ns, policy, seed, paths_only=paths_only)
    results = _run_tasks(_det_search_worker, tasks, workers, counts)
    out = DetSearchResult(ns=ns, policy=policy.describe(), seed=seed)
    for res in results:
        for value, count in res["histogram"].items():
            out.histogram[value] = out.histogram.get(value, 0) + count
        out.nonunit_witnesses.extend(res["nonunit"])
    out.nonunit_witnesses = out.nonunit_witnesses[:MAX_FAILURE_RECORDS]
    out.histogram = dict(sorted(out.histogram.items()))
    out.all_odd = all(value % 2 == 1 for value in out.histogram)
    out.all_unit = set(out.histogram) <= {1}
    return out
