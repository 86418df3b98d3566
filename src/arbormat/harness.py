"""Deterministic sweep driver over instance spaces.

An instance is (tree, orientation, single-cycle vertex map).  A task is one
tree with a tuple of orientations, covering all cycles via the batched
kernels in :mod:`arbormat._fast`.  A sweep is a claims function plus a
tally (see :class:`_Sweep`); one worker runs the tasks of every sweep, each
task folding its orientations into one sub-result, and the parent folds
those in task order into the sweep's result.  Claims invariant under the
similarity A_o = D.A_0.D that reversing edges induces are computed once per
tree and carried to the other orientations (see
:class:`_OrientationQuotient`); the split-sign claims are not, so all
orientations of a split-sign task go to its kernel together.  The other
sweeps decide through the path-transport certificate, which builds only a
fixed audit set of a certified tree's rows, and queue the rows they build
across a worker's tasks (see :mod:`arbormat.certificate`).  The calling
process is one worker and forks the others; all take tasks from one shared
file (see :func:`_fork_join`), and the parent folds in task order, so
output is identical for any worker count.  Orientation sampling is
counter-based, keyed by (seed, tree code), hence schedule-independent.
"""

from __future__ import annotations

import contextlib
import copy
import ctypes
import itertools
import math
import os
import pickle
import random
import signal
import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np

from . import _fast, certificate
from .certificate import (
    AUDIT_AGREEMENT,
    CYCLE_CHUNK,
    QUEUE,
    closed_form_dets,
    decide,
    start_vertex_orbit,
)
from .errors import CapExceeded, WitnessFailed
from .dynamics import VertexMap, path_image_check
from .theorems import (
    ClaimStatus,
    _witness_rows,
    basis_witness,
    coprime_steps,
    split_sign_check,
    witness_pairs,
)
from .trees import (
    Orientation,
    Tree,
    canonical_form,
    decode_prufer,
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

DEFAULT_N_CAP = _fast._BATCH_N_CAP
MAX_FAILURE_RECORDS = 20
RANDOM_CHUNK = 128  # random instances held at once by the path-transport sweep
PATH_IMAGE_AUDIT = 16  # random instances also checked on the exact route
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters


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
            raw = text.split(":", 1)[1]
            try:
                count = int(raw)
            except ValueError:
                raise ValueError(f"sample count must be an integer, got {raw!r}") from None
            if count < 0:
                raise ValueError("sample count must be nonnegative")
            return cls("sample", count)
        raise ValueError(f"unknown orientation policy {text!r}")

    def describe(self) -> str:
        return f"sample:{self.sample_count}" if self.mode == "sample" else self.mode


for _module in ("_sha2", "_sha256", "hashlib"):  # hashlib loads OpenSSL: 3.5 MB
    with contextlib.suppress(ImportError):
        _sha256 = __import__(_module).sha256
        break


def _sample_orientation(seed: int, tree_code: str, counter: int, n: int) -> int:
    digest = _sha256(f"{seed}|{tree_code}|{counter}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (1 << n)


def orientations_for(
    policy: OrientationPolicy, n: int, seed: int, tree_code: str | None
) -> list[int]:
    if policy.mode == "all":
        return list(range(1 << n))
    if policy.mode == "canonical":
        return [0]
    return [0] + sorted(
        _sample_orientation(seed, tree_code, k, n) for k in range(policy.sample_count)
    )


@lru_cache(maxsize=64)
def trees_for(v: int) -> tuple[Tree, ...]:
    return tuple(enumerate_trees(v))


@lru_cache(maxsize=256)
def _path_table_cached(tree: Tree):
    return _fast.path_table(tree)


def _check_cap(ns) -> list[int]:
    """The distinct ns in ascending order; rejects every n a sweep cannot
    finish, before any tree is enumerated."""
    ns = sorted(set(ns))
    for n in ns:
        if n > _fast._BATCH_N_CAP:
            raise CapExceeded(f"n = {n} exceeds the sweep limit of n <= {_fast._BATCH_N_CAP}, "
                              "a fixed cap at the int64 bound of the kernels")
        if n < 2:
            raise CapExceeded(f"n = {n} below the minimum of 2")
    return ns


def _run_tasks(worker, tasks, workers: int) -> list:
    """``[worker(t) for t in tasks]``, in task order, on min(workers, tasks)
    processes: this one and the children it forks (see :func:`_fork_join`).
    Every process runs the same loop (see :func:`_take_tasks`), so one
    worker runs the tasks here and forks nothing."""
    _keep_heap()
    return _fork_join(worker, tasks, min(workers, len(tasks)))


def _fork_join(worker, tasks, processes: int) -> list:
    """``[worker(t) for t in tasks]``, computed by this process and
    ``processes - 1`` forked children.

    Children inherit the worker and the tasks, so nothing is pickled on the
    way in.  The task indices, 4-byte records in task order, fill an
    unlinked temporary file before the first fork, and every process reads
    the next one from the shared file offset, so each index is taken once,
    in order, and a process that dies blocks no other.  A child pickles its
    (index, output) pairs, and the first exception a task or its rows'
    decision raised, back through its own pipe and leaves through os._exit,
    so it runs no atexit handler and flushes none of the parent's stdio
    buffers.  The parent keeps its own outputs, then reads and reaps every
    child, so RUSAGE_CHILDREN counts them; it re-raises the exception of
    the earliest failed task, and raises RuntimeError when a child ends
    without a result.  On any exception outside a task it kills and reaps
    the children still running."""
    children = {}  # pid -> read end of its result pipe, until reaped
    with contextlib.ExitStack() as stack:
        queue = stack.enter_context(tempfile.TemporaryFile(buffering=0))
        queue.write(np.arange(len(tasks), dtype="<u4").tobytes())
        queue.seek(0)
        try:
            for _ in range(processes - 1):
                r, w = os.pipe()
                result_r = stack.enter_context(open(r, "rb"))
                with open(w, "wb") as result_w:
                    if (pid := os.fork()) == 0:
                        _fork_child(worker, tasks, queue, result_w)
                children[pid] = result_r
            results = [_take_tasks(worker, tasks, queue)]
            for pid, result_r in list(children.items()):
                blob = result_r.read()
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del children[pid]
                if code != 0:
                    raise RuntimeError(f"sweep worker {pid} ended without a result (exit code {code})")
                results.append(pickle.loads(blob))
        finally:
            QUEUE.clear()  # empty after a flush; else it holds a failed task's rows
            for pid in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    if errors := [error for _, error in results if error is not None]:
        _, exc, trace = min(errors)  # task indices differ
        raise exc from RuntimeError(f"in a sweep worker:\n{trace}")
    outputs = dict(pair for done, _ in results for pair in done)
    return [outputs[idx] for idx in range(len(tasks))]


def _take_tasks(worker, tasks, queue):
    """The loop of every sweep process: run the tasks whose indices it reads
    from ``queue`` until end of file, then decide the rows they queued.
    Returns the (index, output) pairs and the first exception, as (task
    index, exception, traceback), or None; after an exception it takes no
    more tasks."""
    done = []
    try:
        while record := queue.read(4):
            QUEUE.task = int.from_bytes(record, "little")
            done.append((QUEUE.task, worker(tasks[QUEUE.task])))
        QUEUE.flush()
    except Exception as exc:
        return done, (QUEUE.task, exc, traceback.format_exc())
    return done, None


def _fork_child(worker, tasks, queue, result_w) -> None:
    """The body of a child of _fork_join: run its share of the tasks, send
    the outputs, and leave; it never returns."""
    code = 1
    try:
        pickle.dump(_take_tasks(worker, tasks, queue), result_w, pickle.HIGHEST_PROTOCOL)
        result_w.flush()
        code = 0
    finally:
        os._exit(code)


@lru_cache(maxsize=None)
def _keep_heap() -> None:
    """Keep freed memory in this process's heap.

    Every chunk of a sweep allocates the same megabyte-sized numpy
    temporaries.  glibc's adaptive thresholds mmap the largest and trim the
    heap after the rest, so each chunk faults its pages in anew:
    `search-detmf --n 9 --workers 2` takes about 186k minor faults in its
    two processes under them, 5.4k under the fixed ones set here, and about
    1.3 s of wall time against 1.2 s on 2 cores.  Fixed thresholds, mmap
    from 32 MiB (glibc's own adaptive ceiling on 64-bit) and trim from 64
    MiB, are set in the calling process, itself a sweep worker, before
    _fork_join forks, so its children inherit them.  Without glibc this
    does nothing."""
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

    Orientation quotient, in instances: computed by the claims function;
    derived: carried over from the representative, or repeated from a
    sampled duplicate.

    Transport certificate, splitting the computed rows: certified, rows of
    a certified (tree, orientation) outside the audit sets, counted without
    being built; audited, decided on the direct route as a chunk's audit
    set; uncertified, the other rows of a tree that failed the certificate,
    decided on the direct route.  disagreements counts the certified audit
    rows whose direct values differ from the closed form."""

    computed: int = 0
    derived: int = 0
    certified: int = 0
    audited: int = 0
    uncertified: int = 0
    disagreements: int = 0

    def add(self, other: "QuotientCounts") -> None:
        for name, value in vars(other).items():
            setattr(self, name, getattr(self, name) + value)

    def transport(self) -> str:
        return (f"{self.certified} certified, {self.audited} audited, "
                f"{self.uncertified} uncertified, {self.disagreements} audit disagreements")

    def __str__(self) -> str:
        return f"{self.computed} computed, {self.derived} derived"


@dataclass
class _Oriented:
    """One tree under one orientation bitmask, ready for the batched kernels."""

    tree: Tree
    bits: int
    roots: np.ndarray  # oriented root vectors, (v+1, n)
    first: np.ndarray  # oriented edge endpoints
    second: np.ndarray

    @classmethod
    def of(cls, tree: Tree, bits) -> "_Oriented":
        """The tree under a bitmask, or under an array of bitmasks as one stack."""
        roots = _fast.orient_roots(_fast.root_vectors(tree), bits, tree.edge_count)
        return cls(tree, bits, roots, *_fast.oriented_endpoint_arrays(tree, bits))

    def __getitem__(self, k: int) -> "_Oriented":  # orientation k of a stack
        arrays = self.roots[k], self.first[k], self.second[k]
        return _Oriented(self.tree, int(self.bits[k]), *arrays)

    def build(self, images: np.ndarray) -> np.ndarray:
        return _fast.build_oriented_batch(self.roots, images, self.first, self.second)

    @cached_property
    def certified(self) -> bool:
        """Whether it passes the path-transport certificate, decided once."""
        return certificate.certified(self)


class _OrientationQuotient:
    """One tree under a tuple of orientations, its claims computed once.

    Reversing edge k negates row k and coordinate k of the oriented matrix:
    A_o = D.A_r.D, D = diag(signs of o ^ r), for the representative r =
    orientations[0], every other orientation o and every map.  Row k of A
    is r(f(b_k)) - r(f(a_k)) for the root vectors r and the edge a_k -> b_k
    (_fast.build_oriented_batch).  o's root vectors are r's times D
    coordinate by coordinate (_fast.orient_roots), since the signs of o are
    those of r times those of o ^ r, and o's edge endpoints are r's swapped
    on exactly the edges D reverses (_fast.oriented_endpoint_arrays).  So
    row k of A_o is row k of A_r times D, negated when D reverses edge k:
    D_kk times row k of A_r.D.  No property of the root vectors enters, so
    the similarity holds for any of them; the tests compare the carried
    sweeps with one orientation per task.

    An invariant sweep's claims hold under that similarity, except det Mf,
    which picks up det D = +-1; so only r is built, and its claims are
    computed once and carried to the other orientations (see
    :meth:`result`).  ``stack`` holds the computed orientations (the
    split-sign kernel reads it), ``out`` the sub-result of each, ``counts``
    the task's quotient counters."""

    def __init__(self, sweep: "_Sweep", v: int, tree: Tree, orientations: tuple):
        self.sweep, self.v, self.tree, self.orientations = sweep, v, tree, orientations
        self.rows = rows = math.factorial(v - 1)
        bits = np.array(list(dict.fromkeys(orientations)))  # distinct, representative first
        self.stack = _Oriented.of(tree, bits[:1] if sweep.invariant else bits)
        self.own = [self.stack[k] for k in range(self.stack.bits.size)]
        r, carried = self.own[0].bits, bits[len(self.own):].tolist()
        # carried with det D = (-1)^(edges reversed)
        self.carried = {b: 1 - 2 * (bin(b ^ r).count("1") % 2) for b in carried}
        computed = rows * len(self.own)
        self.counts = QuotientCounts(computed=computed, derived=rows * len(orientations) - computed)
        self.out = {o.bits: {k: copy.copy(x) for k, x in sweep.empty.items()} for o in self.own}

    def chunks(self):
        """(bitmask, claims) of the computed orientations per piece of cycle
        ranks, complete once QUEUE decides the piece's direct rows: PIECE_ROWS
        cycles of a certified orientation, else CYCLE_CHUNK, over all
        orientations together for a sweep that is not invariant."""
        if not self.sweep.invariant:
            size = max(1, CYCLE_CHUNK // len(self.own))
            for lo in range(0, self.rows, size):
                yield from self.sweep.claims(self, range(lo, min(lo + size, self.rows))).items()
            return
        for o in self.own:
            size = certificate.PIECE_ROWS if o.certified else CYCLE_CHUNK
            for start in range(0, self.rows, size):
                ranks = range(start, min(start + size, self.rows))
                yield o.bits, self.sweep.claims(o, ranks, self.counts)

    def descriptor(self, bits: int, image_row) -> dict:
        return {
            "tree": self.tree.edge_list_str(),
            "orientation": Orientation.from_int(bits, self.v - 1).bitstring(),
            "map": ",".join(str(int(x)) for x in image_row[1:]),
        }

    def result(self) -> dict:
        """The task's one sub-result: the entries of the orientations tuple
        folded in order, with the task's counters as "quotient".  A carried
        orientation's sub-result is the representative's with each record
        (list entry) relabeled: its orientation's bitstring, and det Mf
        times det D.  While the representative holds no record, that is the
        representative's own, so it and every entry equal to it, carried or
        repeated, are one fold."""
        rep, out, carried = self.orientations[0], self.out, self.carried
        if any(isinstance(x, list) and x for x in out[rep].values()):  # records to relabel
            for b, det_d in carried.items():
                out[b] = _relabeled(out[rep], Orientation.from_int(b, self.v - 1).bitstring(), det_d)
            carried = {}
        res = {k: copy.copy(x) for k, x in self.sweep.empty.items()}
        for b, times in Counter(rep if b in carried else b for b in self.orientations).items():
            _fold(res, out[b], times)
        return {**res, "quotient": self.counts}


def _tree_tasks(ns, policy: OrientationPolicy, seed: int, per_n=None, paths_only=False):
    """(v, tree, orientations) per tree of every n, counting trees and
    orientations into per_n when given.  Only a sample depends on the tree,
    seeded by its canonical form; every other policy gives the trees of an
    n one shared tuple (2^10 orientations of 235 trees held 7.7 MB)."""
    tasks = []
    for n in ns:
        v = n + 1
        shared = policy.mode != "sample" and tuple(orientations_for(policy, n, seed, None))
        for tree in trees_for(v):
            if paths_only and not tree.is_path():
                continue
            orientations = shared or tuple(orientations_for(policy, n, seed, canonical_form(tree)))
            if per_n is not None:
                _merge(per_n, {n: {"trees": 1, "orientations": len(orientations)}})
            tasks.append((v, tree, orientations))
    return tasks


# --------------------------------------------------------------------------
# the sweep engine: one worker, one fold


class _Sweep(NamedTuple):
    """What a sweep decides and what it keeps.

    ``claims(o, ranks, counts)`` returns the :class:`Decided` claims of
    the cycles of lexicographic ranks ``ranks`` under one orientation.
    Claims not ``invariant`` under the similarity A_o = D.A.D are never
    carried: ``claims(quotient, ranks)`` returns the claims of every
    orientation of the task, by orientation.  ``empty`` is the sub-result
    of one orientation before its first piece, and ``tally(res, quotient,
    bits, claims)`` folds one piece's claims into it.  Sub-result entries
    are named after the result's fields; :func:`_fold` folds the
    orientations of a task, and then the tasks, into one."""

    claims: Callable
    empty: dict
    tally: Callable
    invariant: bool = True


def _sweep_worker(sweep: _Sweep, task) -> dict:
    """The one sub-result of a (v, tree, orientations) task.  It is filled
    once QUEUE has decided the task's direct rows: the pieces are tallied
    then, in order."""
    quotient = _OrientationQuotient(sweep, *task)
    for bits, claims in quotient.chunks():
        QUEUE.then(partial(sweep.tally, quotient.out[bits], quotient, bits, claims))
    res = {}
    QUEUE.then(lambda: res.update(quotient.result()))
    return res


def _sweep(worker, out, tasks, workers: int, counts=None):
    """Run the tasks and fold their sub-results, in task order, into the
    result ``out``; their quotient counters are added to ``counts`` when
    given."""
    for res in _run_tasks(worker, tasks, workers):
        _fold(vars(out), res)
        if counts is not None:
            counts.add(res["quotient"])
    return out


def _fold(into: dict, res: dict, times: int = 1) -> dict:
    """Fold a sub-result ``times`` times into ``into``: counts add up, dicts
    of counts merge key by key, failure lists concatenate up to
    MAX_FAILURE_RECORDS, the first example is kept.  Folding is associative,
    so tasks may fold their orientations before the parent folds the tasks."""
    for name, value in res.items():
        if name.startswith("example_"):
            if into[name] is None:
                into[name] = value
        elif value and name != "quotient":
            into[name] = _merge(into[name], value, times)
    return into


def _merge(into, value, times: int = 1):
    """``into`` with ``value`` added ``times`` times: numbers sum, dicts
    merge key by key (copying what ``into`` lacks), and lists concatenate up
    to MAX_FAILURE_RECORDS."""
    if isinstance(value, dict):
        for k, x in value.items():
            into[k] = _merge(into.get(k, type(x)()), x, times)
        return into
    if isinstance(value, list):
        return (into + value * times)[:MAX_FAILURE_RECORDS]
    return into + times * value


def _relabeled(res: dict, orientation: str, det_d: int) -> dict:
    """``res`` with each record moved to another orientation of its tree:
    that orientation's bitstring, and "det" times det D; no other record
    field changes under the similarity."""
    def record(r):
        return {**r, "orientation": orientation, **({"det": r["det"] * det_d} if "det" in r else {})}

    return {k: list(map(record, x)) if isinstance(x, list) else x for k, x in res.items()}


def _capped(failures: list, records) -> None:
    """Append the failure records of a lazy iterable until
    MAX_FAILURE_RECORDS are held."""
    failures.extend(itertools.islice(records, max(0, MAX_FAILURE_RECORDS - len(failures))))


def _row_tally(count: str, extras: tuple, res, quotient, bits, claims) -> None:
    """Count the chunk's rows under ``count`` and record every row failing
    the claim "ok" or the audit, with its verdicts of the ``extras`` claims."""
    res[count] += claims.size
    values, images = claims.values, claims.images
    ok = values["ok"] & values[AUDIT_AGREEMENT]
    _capped(res["failures"], (
        {**quotient.descriptor(bits, images[idx]), **{k: bool(values[k][idx]) for k in extras}}
        for idx in np.nonzero(~ok)[0]
    ))


def _pair_records(quotient, bits, images, bad, **values):
    """Records of the (row, witness pair) entries flagged in ``bad``,
    pair-major as the pairs are checked, each with its entry of every
    ``values`` array."""
    pairs = witness_pairs(quotient.v)
    for p, idx in zip(*np.nonzero(bad.T)):
        i, j = pairs[p]
        desc = quotient.descriptor(bits, images[idx])
        yield {**desc, "i": i, "j": j, **{k: int(x[idx, p]) for k, x in values.items()}}


# --------------------------------------------------------------------------
# theorem sweep (charpoly / determinant / geometric sum / oddness / GF(2))


def _theorem_claims_direct(o, images, a) -> dict:
    """Per-row verdicts of every theorem-sweep claim from the kernels, each
    row under its oriented tree in ``o`` (an OrientedRows); the witness is
    the single pair (1, 1)."""
    rows, n = a.shape[:2]
    sign = 1 if n % 2 == 0 else -1
    b = np.abs(a)
    # one call for both: on a chunk's audit rows its cost is mostly per call
    cp_a, cp_b = np.split(_fast.batched_charpoly(np.concatenate([a, b])), [rows])
    ok = {
        "oriented_charpoly_geometric": np.all(cp_a == 1, axis=1),
        "oriented_determinant": (sign * cp_a[:, 0]) == sign,
        "geometric_sum_zero": _fast.batched_geometric_sum_zero(a, cp_a),
        "unoriented_charpoly_odd": np.all(cp_b % 2 == 1, axis=1),
        "path_image_identity": _path_image_claims_direct(o, images, a)["ok"],
    }
    ok["z2_companion_similar"] = (
        ok["unoriented_charpoly_odd"] & _fast.batched_gf2_nonderogatory(b)
    )
    ok["basis_witness"] = _witness_verdicts(o, images, a, (1,), 1)["ok"][:, 0]
    return ok


def _constant_claims(o, orbit, sign) -> dict:
    """Every theorem claim holds on a row of a certified tree: A = Mf^-1.C.Mf
    over Z gives C's charpoly, determinant and geometric sum, B = |A| == A
    mod 2 is similar to C over GF(2), and path transport holds for every map
    on exact root vectors."""
    return {}


_theorem_claims = partial(decide, _constant_claims, _theorem_claims_direct)


def _theorem_tally(res, quotient, bits, claims) -> None:
    values, images = claims.values, claims.images
    failed = ~np.logical_and.reduce(list(values.values()))
    stats = res["per_n"].setdefault(quotient.v - 1, {"instances": 0, "failures": 0})
    stats["instances"] += claims.size
    if not failed.any():
        return
    stats["failures"] += int(failed.sum())
    _merge(res["claim_failures"], {
        name: int((~ok).sum()) for name, ok in values.items() if not ok.all()
    })
    _capped(res["failures"], (
        {**quotient.descriptor(bits, images[idx]),
         "claims": sorted(name for name, ok in values.items() if not ok[idx])}
        for idx in np.nonzero(failed)[0]
    ))


_THEOREM = _Sweep(
    _theorem_claims, {"per_n": {}, "claim_failures": {}, "failures": []}, _theorem_tally
)


def _exact_witness(tree: Tree, bits: int, image_row, i: int, j: int) -> tuple[bool, int]:
    """Whether the basis claims of the pair (i, j) hold, and det Mf(i, j),
    on the exact route."""
    f = VertexMap(tree, [int(x) for x in image_row[1:]])
    orientation = Orientation.from_int(bits, tree.edge_count)
    try:
        return True, basis_witness(f, orientation, i, j).determinant
    except WitnessFailed:
        return False, _witness_rows(f, orientation, i, j)[1].determinant()


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
    counts: QuotientCounts | None = None,
) -> TheoremSweepResult:
    """Run the per-instance matrix claims over whole instance spaces; the
    quotient counters of the run are added to ``counts`` when given."""
    ns = _check_cap(ns)
    out = TheoremSweepResult(ns=ns, policy=policy.describe(), seed=seed)
    tasks = _tree_tasks(ns, policy, seed, out.per_n)
    _sweep(partial(_sweep_worker, _THEOREM), out, tasks, workers, counts)
    out.total_instances = sum(stats["instances"] for stats in out.per_n.values())
    out.all_pass = not any(stats["failures"] for stats in out.per_n.values())
    out.claim_failures = dict(sorted(out.claim_failures.items()))
    return out


# --------------------------------------------------------------------------
# witness sweep over all start vertices and coprime steps, and the
# determinant search over the same witness matrices


def _witness_blocks(o, images, a, steps, windows):
    """The rows in blocks of about CYCLE_CHUNK witnesses: per block, its
    rows, their A in int64, their seeds (rows, steps, windows, n), the signed
    path vectors r(x_{m+j}) - r(x_m), x_m = f^m(1), j = steps[s], m <
    windows, of each row's tree in ``o`` (an OrientedRows), and each
    vertex's orbit position."""
    v = images.shape[1] - 1
    ahead = (np.arange(windows) + np.array(steps)[:, None]) % v
    block = max(1, CYCLE_CHUNK // (len(steps) * windows))
    for lo in range(0, images.shape[0], block):
        rows = slice(lo, lo + block)
        orbit, position = start_vertex_orbit(images[rows])
        at = o.index[rows, None, None]
        seeds = o.roots[at, orbit[:, ahead]] - o.roots[at, orbit[:, None, :windows]]
        yield rows, a[rows].astype(np.int64), seeds, position


def _witness_verdicts(o, images, a, steps, windows) -> dict:
    """Per row and witness pair (i, j), j in ``steps`` outermost and i =
    1..windows inner, windows being 1 or v: whether the basis claims hold,
    and signed det Mf, from batched_witness on the orbit of each seed(1, j);
    a pair whose iterates leave {-1, 0, 1} is decided on the exact route.
    Verdicts are taken block by block, so no whole-batch gate is held."""
    ok = np.empty((len(images), len(steps) * windows), dtype=bool)
    det = np.empty(ok.shape, dtype=np.int64)
    chain = np.arange(len(steps))[:, None]
    for rows, mats, seeds, position in _witness_blocks(o, images, a, steps, windows):
        at = np.arange(len(mats))[:, None, None], chain, position[:, None, 1 : windows + 1]
        gate, det[rows], companion_ok = (  # orbit positions to start vertices
            x[at].reshape(len(mats), -1) for x in _fast.batched_witness(mats, seeds)[:3])
        ok[rows] = gate & (det[rows] % 2 == 1) & companion_ok
        for idx, p in zip(*np.nonzero(~gate)):
            idx += rows.start
            k = o.oriented[o.index[idx]]
            s, i = divmod(int(p), windows)
            ok[idx, p], det[idx, p] = _exact_witness(k.tree, k.bits, images[idx], i + 1, steps[s])
    return {"ok": ok, "det": det}


def _witness_claims_direct(o, images, a) -> dict:
    v = images.shape[1] - 1
    return _witness_verdicts(o, images, a, coprime_steps(v), v)


def _witness_dets(o: _Oriented, orbit, sign) -> dict:
    """On a row of a certified tree every Mf(i, j) is a unimodular
    {-1, 0, 1} matrix with Mf.A == C.Mf, so every pair passes: the
    certificate has required each factor of its closed-form det to be +-1,
    so the det is odd.  The signed closed-form det is the one value left to
    compare."""
    return {"det": closed_form_dets(o, orbit, sign)}


_witness_claims = partial(decide, _witness_dets, _witness_claims_direct)


def _witness_tally(res, quotient, bits, claims) -> None:
    values = claims.values
    ok = values["ok"] & values[AUDIT_AGREEMENT][:, None]
    res["total_witnesses"] += claims.size * len(witness_pairs(quotient.v))
    if not ok.all():
        records = _pair_records(quotient, bits, claims.images, ~ok, det=values["det"])
        _capped(res["failures"], records)


def _det_tally(res, quotient, bits, claims) -> None:
    """Histogram the |det Mf| of the chunk: the decided rows' values, and
    1 for every pair of a certified row; only non-unit values are sorted."""
    det = claims.values["det"]
    nonunit = (det != 1) & (det != -1)
    values, counts = np.unique(np.abs(det[nonunit]), return_counts=True)
    histogram = dict(zip(values.tolist(), counts.tolist()))
    if unit := claims.size * len(witness_pairs(quotient.v)) - int(counts.sum()):
        histogram[1] = unit
    _merge(res["histogram"], histogram)
    if nonunit.any():
        records = _pair_records(quotient, bits, claims.images, nonunit, abs_det=np.abs(det))
        _capped(res["nonunit_witnesses"], records)


_WITNESS = _Sweep(_witness_claims, {"total_witnesses": 0, "failures": []}, _witness_tally)
_DET_SEARCH = _Sweep(_witness_claims, {"histogram": {}, "nonunit_witnesses": []}, _det_tally)


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
    counts: QuotientCounts | None = None,
) -> WitnessSweepResult:
    ns = _check_cap(ns)
    out = WitnessSweepResult(ns=ns, policy=policy.describe(), seed=seed)
    _sweep(partial(_sweep_worker, _WITNESS), out, _tree_tasks(ns, policy, seed), workers, counts)
    out.all_pass = not out.failures
    return out


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
    paths_only: bool = False,
    counts: QuotientCounts | None = None,
) -> DetSearchResult:
    """Tabulate |det| of every witness matrix over the instance space."""
    ns = _check_cap(ns)
    out = DetSearchResult(ns=ns, policy=policy.describe(), seed=seed)
    tasks = _tree_tasks(ns, policy, seed, paths_only=paths_only)
    _sweep(partial(_sweep_worker, _DET_SEARCH), out, tasks, workers, counts)
    out.histogram = dict(sorted(out.histogram.items()))
    out.all_odd = all(value % 2 == 1 for value in out.histogram)
    out.all_unit = set(out.histogram) <= {1}
    return out


# --------------------------------------------------------------------------
# path-transport sweep: exhaustive small n plus seeded random large n


def _path_image_claims_direct(o, images, a) -> dict:
    """Per row: path transport under its oriented tree in ``o``."""
    return {"ok": _fast.batched_path_image_ok(o.roots[o.index], images, a)}


_PATH_IMAGE = _Sweep(partial(decide, _constant_claims, _path_image_claims_direct),
                     {"exhaustive_instances": 0, "failures": []},
                     partial(_row_tally, "exhaustive_instances", ()))


def _random_draw(seed: int, idx: int, n_lo: int, n_hi: int):
    """The draws of instance ``idx`` of the seeded stream, from its own
    generator: (Prufer code, cycle, orientation bitmask)."""
    rng = random.Random(f"{seed}|instance|{idx}")
    n = rng.randint(n_lo, n_hi)
    code = [rng.randint(1, n + 1) for _ in range(n - 1)]
    rest = list(range(2, n + 2))
    rng.shuffle(rest)
    return code, [1] + rest, rng.getrandbits(n)


def _random_instance(code, cycle, bits):
    """(vertex map, orientation) of the draws."""
    image = [y for _, y in sorted(zip(cycle, cycle[1:] + [1]))]
    return VertexMap(decode_prufer(code), image), Orientation.from_int(bits, len(code) + 1)


def random_instances(seed: int, count: int, n_lo: int, n_hi: int):
    """Seeded stream of (vertex map, orientation) with n in [n_lo, n_hi]."""
    return (_random_instance(*_random_draw(seed, idx, n_lo, n_hi)) for idx in range(count))


def _path_image_worker(task) -> dict:
    """The sub-result of a tree task, or of the random chunk ("random",
    seed, start, stop, random_n): the draws of instances start..stop-1.  The
    stream's first PATH_IMAGE_AUDIT are built and checked on the exact route
    too; a disagreement fails the instance."""
    if task[0] != "random":
        return _sweep_worker(_PATH_IMAGE, task)
    _, seed, start, stop, random_n = task
    draws = [_random_draw(seed, idx, *random_n) for idx in range(start, stop)]
    ok = _fast.drawn_path_image_ok(draws)
    for k, draw in enumerate(draws[: max(0, PATH_IMAGE_AUDIT - start)]):
        ok[k] &= path_image_check(*_random_instance(*draw)) == ok[k]
    failures = []
    _capped(failures, (
        {"tree": f.tree.edge_list_str(), "orientation": o.bitstring(), "map": f.image_str()}
        for f, o in (_random_instance(*draws[k]) for k in np.nonzero(~ok)[0])
    ))
    return {"random_instances": len(draws), "failures": failures, "quotient": QuotientCounts()}


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
    counts: QuotientCounts | None = None,
) -> PathImageResult:
    # the batched transport kernel is exact through n = _BATCH_N_CAP
    if not 2 <= random_n[0] <= random_n[1] <= _fast._BATCH_N_CAP:
        raise CapExceeded(
            f"random_n = {tuple(random_n)} needs 2 <= n_lo <= n_hi <= {_fast._BATCH_N_CAP}"
        )
    tasks = _tree_tasks(_check_cap(ns_exhaustive), OrientationPolicy("all"), seed) + [
        ("random", seed, start, min(start + RANDOM_CHUNK, random_count), tuple(random_n))
        for start in range(0, random_count, RANDOM_CHUNK)
    ]
    out = _sweep(_path_image_worker, PathImageResult(), tasks, workers, counts)
    out.all_pass = not out.failures
    return out


# --------------------------------------------------------------------------
# path graphs: Petrie structure of witness matrices and uniform row signs


def _path_graph_claims_direct(o, images, a) -> dict:
    """Per row: every oriented row single-signed, every witness matrix a
    Petrie matrix, and all that with |det B| = 1 and every |det Mf| = 1.
    The witnesses of a block come from one batched_witness call."""
    uniform = _fast.batched_uniform_sign(a)
    petrie = np.empty(images.shape[0], dtype=bool)
    ok = np.abs(_fast.batched_charpoly(np.abs(a))[:, 0]) == 1
    v = images.shape[1] - 1
    for rows, mats, seeds, _ in _witness_blocks(o, images, a, coprime_steps(v), v):
        gate, det, _, mf = _fast.batched_witness(mats, seeds)
        # row-wise, so the rows of every Mf of a row are tested together
        petrie[rows] = _fast.batched_petrie(mf.reshape(mats.shape[0], -1, v - 1))
        ok[rows] &= (gate & (np.abs(det) == 1)).all(axis=(1, 2))
    return {"uniform_sign": uniform, "petrie": petrie, "ok": ok & uniform & petrie}


def _petrie_table(o: _Oriented, orbit, sign):
    """Every path-graph claim holds on a row of a certified tree once each
    signed path vector r(y) - r(x) of the oriented tree is a Petrie row, a
    contiguous single-signed block, as on a path tree oriented along the
    line ({}; None otherwise).  Row i of A is the vector of f(a_i) ->
    f(b_i), so it has one sign, and so has every row of every Mf, a signed
    path vector: every Mf is a Petrie matrix.  |det Mf| = 1 by the closed
    form, and with the row signs S of A, B = S.A, so |det B| = |det A| = 1."""
    table = _fast.signed_path_table(o.roots)
    return {} if _fast.batched_petrie(table.reshape(-1, 1, table.shape[2])).all() else None


_path_graph_claims = partial(decide, _petrie_table, _path_graph_claims_direct)
_PATH_GRAPH = _Sweep(
    _path_graph_claims, {"instances": 0, "failures": []},
    partial(_row_tally, "instances", ("uniform_sign", "petrie")),
)


@dataclass
class PathGraphResult:
    instances: int = 0
    failures: list = field(default_factory=list)
    all_pass: bool = True


def run_path_graph_sweep(ns, workers: int = 1) -> PathGraphResult:
    """Path trees under the along-the-path orientation: every oriented row is
    single-signed, the unoriented determinant is +-1, and every witness
    matrix is a Petrie matrix with determinant +-1.

    Edges are reindexed along the path first: the Petrie contiguity claim is
    relative to interval-style edge order."""
    tasks = []
    paths = _tree_tasks(_check_cap(ns), OrientationPolicy("canonical"), 0, paths_only=True)
    for v, tree, _ in paths:
        tree = path_edge_ordered(tree)
        bits = sum(1 << k for k, flag in enumerate(same_direction_orientation(tree).bits) if flag)
        tasks.append((v, tree, (bits,)))
    out = _sweep(partial(_sweep_worker, _PATH_GRAPH), PathGraphResult(), tasks, workers)
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


def _exact_split_sign(quotient, bits: int, image_row):
    """(verdict, reason or failed identity) of split_sign_check."""
    f = VertexMap(quotient.tree, image_row[1:].tolist())
    try:
        reduction = split_sign_check(f, Orientation.from_int(bits, quotient.v - 1))
    except WitnessFailed as exc:
        return "fail", exc.identity
    if reduction.status is not ClaimStatus.PASS:
        return "not_applicable", reduction.reason
    return ("with_additions" if reduction.mixed_rows else "applicable"), None


def _split_sign_claims(quotient, ranks) -> dict:
    """Per orientation of the task: (images, applicable, mixed, holds)."""
    images = _fast.unrank_cycles(quotient.v, ranks)[0]
    a = np.stack([o.build(images) for o in quotient.own])
    o, paths = quotient.stack, _path_table_cached(quotient.tree)
    flags = _fast.batched_split_sign(paths, o.roots, images, o.first, o.second, a)
    return {o.bits: (images, *(x[k] for x in flags)) for k, o in enumerate(quotient.own)}


def _split_sign_tally(res, quotient, bits, claims) -> None:
    """Count the chunk's batched verdicts.  The exact route audits the first
    applicable and first not-applicable instance of the orientation,
    supplies the not-applicable reason, and names every failure's identity."""
    images, applicable, mixed, holds = claims
    passed = applicable & holds
    res["instances"] += images.shape[0]
    res["with_additions"] += int((passed & mixed).sum())
    if res["example_with_additions"] is None and (passed & mixed).any():
        idx = int(np.argmax(passed & mixed))
        res["example_with_additions"] = quotient.descriptor(bits, images[idx])

    room = max(0, MAX_FAILURE_RECORDS - len(res["failures"]))
    picks = np.nonzero(applicable & ~holds)[0].tolist()[:room]
    for kind, flags in (("applicable", passed), ("not_applicable", ~applicable)):
        if res[kind] == 0 and flags.any():  # not audited in an earlier chunk
            picks.append(int(np.argmax(flags)))
        res[kind] += int(flags.sum())
    for idx in sorted(picks):
        verdict = ("not_applicable" if not applicable[idx] else "fail" if not holds[idx]
                   else "with_additions" if mixed[idx] else "applicable")
        row = images[idx]
        exact, detail = _exact_split_sign(quotient, bits, row)
        if exact == "fail" or exact != verdict:
            detail = detail if exact == "fail" else SPLIT_SIGN_AGREEMENT
            res["failures"].append({**quotient.descriptor(bits, row), "identity": detail})
        elif exact == "not_applicable":
            res["example_not_applicable"] = {**quotient.descriptor(bits, row), "reason": detail}


_SPLIT_SIGN = _Sweep(
    _split_sign_claims,
    {"instances": 0, "applicable": 0, "with_additions": 0, "not_applicable": 0,
     "failures": [], "example_with_additions": None, "example_not_applicable": None},
    _split_sign_tally, invariant=False,
)


def run_split_sign_sweep(ns, workers: int = 1) -> SplitSignResult:
    tasks = _tree_tasks(_check_cap(ns), OrientationPolicy("all"), 0)
    out = _sweep(partial(_sweep_worker, _SPLIT_SIGN), SplitSignResult(), tasks, workers)
    out.all_pass = not out.failures
    return out
