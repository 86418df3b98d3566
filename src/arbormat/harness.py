"""Deterministic sweep driver over instance spaces.

An instance is (tree, orientation, single-cycle vertex map).  Work is split
into tasks of one (tree, orientation) pair covering all cycles at once via
the batched kernels in :mod:`arbormat._fast`; tasks are distributed over a
process pool and reduced in sorted task order, so output is identical for
any worker count.  Orientation sampling is counter-based, keyed by
(seed, tree code), hence schedule-independent.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import random
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd

import numpy as np

from . import _fast
from .errors import CapExceeded, WitnessFailed
from .dynamics import VertexMap, path_image_check
from .theorems import ClaimStatus, basis_witness, split_sign_check
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


def _run_tasks(worker, tasks, workers: int) -> list[dict]:
    if workers <= 1 or len(tasks) <= 1:
        results = [worker(t) for t in tasks]
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=workers) as pool:
            results = pool.map(worker, tasks, chunksize=1)
    results.sort(key=lambda r: r["key"])
    return results


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


def _theorem_worker(args) -> dict:
    v, tree_idx, edges, bits, with_path_image, with_witness = args
    n = v - 1
    tree = Tree(edges)
    table = _fast.orient_table(_spv_table_cached(edges), bits, n)
    first, second = _fast.oriented_endpoint_arrays(tree, bits)
    sign = 1 if n % 2 == 0 else -1

    instances = 0
    failed_instances = 0
    claim_failures: dict[str, int] = {}
    failures = []
    for images in _image_chunks(_fast.cycle_images(v)):
        a = _fast.build_oriented_batch(table, images, first, second)
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
            ok["path_image_identity"] = _fast.batched_path_image_ok(table[1], images, a)
        if with_witness:
            seeds = table[1, images[:, 1], :].astype(np.int64)
            gate, det, companion_ok, conjugation_ok = _fast.batched_witness(a, seeds)
            witness_ok = gate & (det % 2 == 1) & companion_ok & conjugation_ok
            for idx in np.nonzero(~gate)[0]:
                witness_ok[idx] = _exact_witness_ok(tree, bits, images[idx], 1, 1)
            ok["basis_witness"] = witness_ok

        instances += int(a.shape[0])
        combined = np.ones(a.shape[0], dtype=bool)
        for name, flags in ok.items():
            combined &= flags
            bad = int((~flags).sum())
            if bad:
                claim_failures[name] = claim_failures.get(name, 0) + bad
        failed_instances += int((~combined).sum())
        if not combined.all():
            edges_str = tree.edge_list_str()
            for idx in np.nonzero(~combined)[0]:
                if len(failures) >= MAX_FAILURE_RECORDS:
                    break
                desc = _instance_descriptor(edges_str, bits, n, images[idx])
                desc["claims"] = sorted(
                    name for name, flags in ok.items() if not flags[idx]
                )
                failures.append(desc)
    return {
        "key": (v, tree_idx, bits),
        "n": n,
        "instances": instances,
        "failed_instances": failed_instances,
        "claim_failures": claim_failures,
        "failures": failures,
    }


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
    with_witness: bool = True,
) -> TheoremSweepResult:
    """Run the per-instance matrix claims over whole instance spaces."""
    ns = sorted(set(ns))
    _check_cap(ns, cap)
    tasks = []
    per_n = {n: {"trees": 0, "orientations": 0, "instances": 0, "failures": 0} for n in ns}
    for n in ns:
        v = n + 1
        for tree_idx, tree in enumerate(trees_for(v)):
            code = canonical_form(tree)
            per_n[n]["trees"] += 1
            for bits in orientations_for(policy, n, seed, code):
                per_n[n]["orientations"] += 1
                tasks.append(
                    (v, tree_idx, tree.edges, bits, n <= path_image_max_n, with_witness)
                )
    results = _run_tasks(_theorem_worker, tasks, workers)

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


def _witness_worker(args) -> dict:
    v, tree_idx, edges, bits = args
    n = v - 1
    tree = Tree(edges)
    table = _fast.orient_table(_spv_table_cached(edges), bits, n)
    first, second = _fast.oriented_endpoint_arrays(tree, bits)

    instances = 0
    checked = 0
    failures = []
    edges_str = tree.edge_list_str()
    for images in _image_chunks(_fast.cycle_images(v)):
        a = _fast.build_oriented_batch(table, images, first, second)
        batch = images.shape[0]
        instances += batch
        for j in range(1, n + 1):
            if gcd(j, v) != 1:
                continue
            for i in range(1, v + 1):
                targets = _fast.iterate_images(images, i, j)
                seeds = table[i, targets, :].astype(np.int64)
                gate, det, companion_ok, conjugation_ok = _fast.batched_witness(a, seeds)
                det_odd = det % 2 == 1
                all_ok = gate & det_odd & companion_ok & conjugation_ok
                for idx in np.nonzero(~gate)[0]:
                    all_ok[idx] = _exact_witness_ok(tree, bits, images[idx], i, j)
                checked += batch
                if not all_ok.all():
                    for idx in np.nonzero(~all_ok)[0]:
                        if len(failures) >= MAX_FAILURE_RECORDS:
                            break
                        desc = _instance_descriptor(edges_str, bits, n, images[idx])
                        desc.update({"i": i, "j": j, "det": int(det[idx])})
                        failures.append(desc)
    return {
        "key": (v, tree_idx, bits),
        "n": n,
        "instances": instances,
        "witnesses": checked,
        "failures": failures,
    }


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
) -> WitnessSweepResult:
    ns = sorted(set(ns))
    _check_cap(ns, cap)
    tasks = []
    for n in ns:
        v = n + 1
        for tree_idx, tree in enumerate(trees_for(v)):
            code = canonical_form(tree)
            for bits in orientations_for(policy, n, seed, code):
                tasks.append((v, tree_idx, tree.edges, bits))
    results = _run_tasks(_witness_worker, tasks, workers)
    out = WitnessSweepResult(ns=ns, policy=policy.describe(), seed=seed)
    for res in results:
        out.total_witnesses += res["witnesses"]
        out.failures.extend(res["failures"])
    out.failures = out.failures[:MAX_FAILURE_RECORDS]
    out.all_pass = not out.failures
    return out


# --------------------------------------------------------------------------
# path-transport sweep: exhaustive small n plus seeded random large n


def _path_image_worker(args) -> dict:
    v, tree_idx, edges, bits = args
    n = v - 1
    tree = Tree(edges)
    table = _fast.orient_table(_spv_table_cached(edges), bits, n)
    first, second = _fast.oriented_endpoint_arrays(tree, bits)
    instances = 0
    failures = []
    for images in _image_chunks(_fast.cycle_images(v)):
        a = _fast.build_oriented_batch(table, images, first, second)
        ok = _fast.batched_path_image_ok(table[1], images, a)
        instances += int(images.shape[0])
        if not ok.all():
            edges_str = tree.edge_list_str()
            for idx in np.nonzero(~ok)[0]:
                if len(failures) >= MAX_FAILURE_RECORDS:
                    break
                failures.append(_instance_descriptor(edges_str, bits, n, images[idx]))
    return {
        "key": (v, tree_idx, bits),
        "instances": instances,
        "failures": failures,
    }


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
) -> PathImageResult:
    ns = sorted(set(ns_exhaustive))
    _check_cap(ns, cap)
    tasks = []
    for n in ns:
        v = n + 1
        for tree_idx, tree in enumerate(trees_for(v)):
            for bits in range(1 << n):
                tasks.append((v, tree_idx, tree.edges, bits))
    results = _run_tasks(_path_image_worker, tasks, workers)
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


def _path_graph_worker(args) -> dict:
    v, edges, bits = args
    n = v - 1
    tree = Tree(edges)
    table = _fast.orient_table(_spv_table_cached(edges), bits, n)
    first, second = _fast.oriented_endpoint_arrays(tree, bits)
    instances = 0
    failures = []
    for images in _image_chunks(_fast.cycle_images(v)):
        a = _fast.build_oriented_batch(table, images, first, second)
        b = np.abs(a)
        uniform = _fast.batched_uniform_sign(a)
        unimodular = np.abs(_fast.batched_charpoly(b)[:, 0]) == 1

        petrie_all = np.ones(images.shape[0], dtype=bool)
        witness_unimodular = np.ones(images.shape[0], dtype=bool)
        gates = np.ones(images.shape[0], dtype=bool)
        for j in range(1, n + 1):
            if gcd(j, v) != 1:
                continue
            for i in range(1, v + 1):
                targets = _fast.iterate_images(images, i, j)
                seeds = table[i, targets, :].astype(np.int64)
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
    return {
        "key": (v, bits),
        "instances": instances,
        "failures": failures,
    }


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


def _split_sign_worker(args) -> dict:
    """Batched split-sign verdicts of one task.  The exact route audits the
    task's first applicable and first not-applicable instance, supplies the
    not-applicable reason, and names the identity of every failure."""
    v, tree_idx, edges, bits = args
    n = v - 1
    tree = Tree(edges)
    orientation = Orientation.from_int(bits, n)
    table = _fast.orient_table(_spv_table_cached(edges), bits, n)
    first, second = _fast.oriented_endpoint_arrays(tree, bits)
    paths = _path_table_cached(edges)
    counts = {"instances": 0, "applicable": 0, "with_additions": 0, "not_applicable": 0}
    failures = []
    example_add = None
    example_na = None
    audited = set()
    edges_str = tree.edge_list_str()
    for images in _image_chunks(_fast.cycle_images(v)):
        a = _fast.build_oriented_batch(table, images, first, second)
        applicable, mixed, holds = _fast.batched_split_sign(
            paths, table, images, first, second, a
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
    return {
        "key": (v, tree_idx, bits),
        "counts": counts,
        "failures": failures[:MAX_FAILURE_RECORDS],
        "example_with_additions": example_add,
        "example_not_applicable": example_na,
    }


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


def _det_search_worker(args) -> dict:
    v, tree_idx, edges, bits = args
    n = v - 1
    tree = Tree(edges)
    table = _fast.orient_table(_spv_table_cached(edges), bits, n)
    first, second = _fast.oriented_endpoint_arrays(tree, bits)
    from .theorems import _witness_rows

    histogram: dict[int, int] = {}
    nonunit = []
    edges_str = tree.edge_list_str()
    for images in _image_chunks(_fast.cycle_images(v)):
        a = _fast.build_oriented_batch(table, images, first, second)
        for j in range(1, n + 1):
            if gcd(j, v) != 1:
                continue
            for i in range(1, v + 1):
                targets = _fast.iterate_images(images, i, j)
                seeds = table[i, targets, :].astype(np.int64)
                mf, gate = _fast.batched_witness_matrix(a, seeds)
                cp = _fast.batched_charpoly(np.where(gate[:, None, None], mf, 0))
                dets = np.abs(cp[:, 0])
                for idx in np.nonzero(~gate)[0]:
                    f = VertexMap(tree, [int(x) for x in images[idx][1:]])
                    orientation = Orientation.from_int(bits, n)
                    _, exact_mf = _witness_rows(f, orientation, i, j)
                    dets[idx] = abs(exact_mf.determinant())
                values, counts = np.unique(dets, return_counts=True)
                for value, count in zip(values, counts):
                    histogram[int(value)] = histogram.get(int(value), 0) + int(count)
                if (dets != 1).any():
                    for idx in np.nonzero(dets != 1)[0]:
                        if len(nonunit) >= MAX_FAILURE_RECORDS:
                            break
                        desc = _instance_descriptor(edges_str, bits, n, images[idx])
                        desc.update({"i": i, "j": j, "abs_det": int(dets[idx])})
                        nonunit.append(desc)
    return {"key": (v, tree_idx, bits), "histogram": histogram, "nonunit": nonunit}


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
) -> DetSearchResult:
    """Tabulate |det| of every witness matrix over the instance space."""
    ns = sorted(set(ns))
    _check_cap(ns, cap)
    tasks = []
    for n in ns:
        v = n + 1
        for tree_idx, tree in enumerate(trees_for(v)):
            if paths_only and not tree.is_path():
                continue
            code = canonical_form(tree)
            for bits in orientations_for(policy, n, seed, code):
                tasks.append((v, tree_idx, tree.edges, bits))
    results = _run_tasks(_det_search_worker, tasks, workers)
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
