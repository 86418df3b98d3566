"""Command-line front end.

Subcommands: analyze, enumerate, verify, reproduce, search-detmf.  Output is
a single JSON document on stdout (or --out); every numeric leaf is a decimal
string so values never depend on native integer width.  Each command builds
its document from plain values (a sweep's document is its library result)
and returns it with its exit code; ``main`` emits it through :func:`_emit`,
the one place where integer leaves and keys become decimal strings.  Timing
goes to stderr only, keeping documents byte-stable for fixed (config, seed)
across reruns and worker counts.

Exit codes: 0 all checks pass; 1 a mathematical claim failed (the document
carries the witness); 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import numbers
import os
import sys
import time
from pathlib import Path

from .errors import ArbormatError, CapExceeded, WitnessFailed
from .fixtures import FIGURE_IDS, check_fixture, load_fixture, reconstruct_instance
from .harness import (
    DEFAULT_N_CAP,
    OrientationPolicy,
    QuotientCounts,
    run_det_search,
    run_theorem_sweep,
)
from .theorems import verify_instance
from .trees import Orientation, canonical_form, enumerate_trees, parse_tree
from .dynamics import parse_map

USAGE_ERROR = 2
CLAIM_ERROR = 1


def _cap() -> int:
    raw = os.environ.get("ARBOR_CAP_N")
    if raw is None:
        return DEFAULT_N_CAP
    try:
        return int(raw)
    except ValueError as exc:
        raise ArbormatError(f"ARBOR_CAP_N must be an integer, got {raw!r}") from exc


def _sweep_ns(text: str) -> list[int]:
    """The ns of --n, each at most ARBOR_CAP_N.  An n above the sweep limit
    (DEFAULT_N_CAP) is left to the sweep's own check, which names that
    limit whatever ARBOR_CAP_N says."""
    ns = _parse_range(text)
    cap = _cap()
    for n in ns:
        if cap < n <= DEFAULT_N_CAP:
            raise CapExceeded(f"n = {n} exceeds the cap ARBOR_CAP_N = {cap}")
    return ns


def positive_int(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


def _strings(value):
    """``value`` with every integer leaf and integer dict key, Python or
    numpy, as a decimal string; bools stay bools."""
    if isinstance(value, dict):
        return {_strings(k): _strings(x) for k, x in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strings(x) for x in value]
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return str(int(value))
    return value


def _emit(doc: dict, out_path: str | None) -> None:
    text = json.dumps(_strings(doc), sort_keys=True, indent=2) + "\n"
    if out_path:
        try:
            Path(out_path).write_text(text)
        except OSError as exc:  # an unwritable --out is an input error
            raise ArbormatError(f"cannot write {out_path}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _check_out(out_path: str | None) -> None:
    """Reject, before any work, an --out that is a directory or in none."""
    path = Path(out_path or ".")
    if out_path and (path.is_dir() or not path.parent.is_dir()):
        reason = "Is a directory" if path.is_dir() else "No such file or directory"
        raise ArbormatError(f"cannot write {out_path}: {reason}")


def cmd_analyze(args) -> tuple[dict, int]:
    tree = parse_tree(args.tree)
    f = parse_map(args.map, tree)
    if args.orientation is not None:
        orientation = Orientation.from_bitstring(args.orientation)
        if len(orientation) != tree.edge_count:
            raise ArbormatError(
                f"orientation length {len(orientation)} != edge count {tree.edge_count}"
            )
    else:
        orientation = Orientation.canonical(tree.edge_count)
    report = verify_instance(f, orientation, all_witnesses=args.all_witnesses)
    claims = {name: res.status.value for name, res in report.claims.items()}
    return {"command": "analyze", **vars(report), "claims": claims}, (
        0 if report.all_pass() else CLAIM_ERROR
    )


def cmd_enumerate(args) -> tuple[dict, int]:
    cap = _cap() + 1
    # fewer than 3 vertices is left to enumerate_trees, which rejects it first
    if args.vertices > max(cap, 2):
        raise CapExceeded(f"vertex count {args.vertices} exceeds cap {cap}")
    trees = list(enumerate_trees(args.vertices))
    doc = {
        "command": "enumerate",
        "vertex_count": args.vertices,
        "count": len(trees),
        "trees": [
            {"edges": t.edge_list_str(), "canonical": canonical_form(t)} for t in trees
        ],
    }
    return doc, 0


def _run_sweep(args, run, noun, count, **options) -> tuple[dict, QuotientCounts]:
    """Run a sweep command: ``run`` over the parsed --n and --orientations
    with a fresh QuotientCounts, the summary line on stderr with ``count``
    of the result in ``noun``, and the document, which is the result with
    its ns, policy and seed moved into the config beside ``options``.
    Returns the document and the counts."""
    policy = OrientationPolicy.parse(args.orientations)
    ns = _sweep_ns(args.n)
    counts = QuotientCounts()
    started = time.perf_counter()
    result = run(ns, policy, seed=args.seed, workers=args.workers, counts=counts, **options)
    elapsed = time.perf_counter() - started
    print(
        f"{args.command}: {count(result)} {noun} in {elapsed:.2f}s, "
        f"{counts.transport()} ({counts})",
        file=sys.stderr,
    )
    fields = dataclasses.asdict(result)
    config = {
        "n": fields.pop("ns"), "orientations": fields.pop("policy"),
        "seed": fields.pop("seed"), **options,
    }
    return {"command": args.command, "config": config, **fields}, counts


def cmd_verify(args) -> tuple[dict, int]:
    doc, _ = _run_sweep(args, run_theorem_sweep, "instances", lambda r: r.total_instances)
    return doc, 0 if doc["all_pass"] else CLAIM_ERROR


def cmd_reproduce(args) -> tuple[dict, int]:
    figures = list(FIGURE_IDS) if args.figure == "all" else [args.figure]
    directory = Path(args.fixtures) if args.fixtures else None
    out_figures = {}
    all_match = True
    mismatches = []
    for figure in figures:
        fixture = load_fixture(figure, directory)
        checks = check_fixture(fixture)
        if not checks["unoriented_charpoly_caption"]:
            computed = fixture.oriented.abs().charpoly().to_strings()
            mismatches.append(
                f"caption mismatch: figure {fixture.figure}: computed {computed} "
                f"vs recorded {fixture.caption_charpoly.to_strings()}\n"
            )
        entry = {
            "n": fixture.n,
            "checks": checks,
            "match": all(checks.values()),
            "unoriented_charpoly": fixture.caption_charpoly.coeffs,
        }
        if args.reconstruct:
            entry["reconstructions"] = reconstruct_instance(fixture)
        out_figures[figure] = entry
        all_match &= entry["match"]
    doc = {"command": "reproduce", "figures": out_figures, "all_match": all_match}
    sys.stderr.write("".join(mismatches))
    return doc, 0 if all_match else CLAIM_ERROR


def cmd_search_detmf(args) -> tuple[dict, int]:
    doc, counts = _run_sweep(
        args, run_det_search, "witnesses", lambda r: sum(r.histogram.values()),
        paths_only=args.paths_only,
    )
    # non-unit determinants are a reportable discovery, not a failure; a
    # closed-form determinant the direct route contradicts is one
    return doc, 0 if doc["all_odd"] and not counts.disagreements else CLAIM_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arbormat",
        description="Exact transition-matrix toolkit for vertex maps on trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    def sweep(name, func, help, orientations):
        p = command(name, func, help)
        p.add_argument("--n", required=True, help="edge count or range, e.g. 4 or 2..5")
        p.add_argument("--orientations", default=orientations, help="all | canonical | sample:K")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--workers", type=positive_int, default=1)
        return p

    p = command("analyze", cmd_analyze, "full claim report for one instance")
    p.add_argument("--tree", required=True, help="edge list '1-2,2-3' or Prufer code '1,1'")
    p.add_argument("--map", required=True, help="image list '2,3,1' or cycle '(1 2 3)'")
    p.add_argument("--orientation", help="bitstring, one char per edge (default all 0)")
    p.add_argument("--all-witnesses", action="store_true", help="validate every (i, j) witness")

    p = command("enumerate", cmd_enumerate, "one tree per isomorphism class")
    p.add_argument("--vertices", type=int, required=True)

    sweep("verify", cmd_verify, "sweep instance spaces and check all claims", "all")

    p = command("reproduce", cmd_reproduce, "check bundled figure fixtures")
    p.add_argument("--figure", default="all", choices=list(FIGURE_IDS) + ["all"])
    p.add_argument("--fixtures", help="directory overriding the bundled fixtures")
    p.add_argument("--reconstruct", action="store_true",
                   help="search for instances behind 5x5 panels")

    p = sweep("search-detmf", cmd_search_detmf, "histogram of |det| over witness matrices",
              "canonical")
    p.add_argument("--paths-only", action="store_true")

    for p in sub.choices.values():
        p.add_argument("--out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    try:
        _check_out(args.out)
        doc, code = args.func(args)
        _emit(doc, args.out)
        return code
    except WitnessFailed as exc:
        print(f"claim failure: {exc}", file=sys.stderr)
        return CLAIM_ERROR
    except (ArbormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
