"""arbormat benchmark: timed rounds of a workload, checked, with one JSON result.

    python3 perfbench/run.py --workload verify-sampled --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's calls (see `workloads.py`), each round in
a fresh interpreter as a user's invocation would, until `--seconds` have
passed.  Every round's documents are checked against closed forms and the
output schema, must be byte-identical across rounds, and a seeded sample of
instances is rebuilt independently (see `check.py`).

`--trace 0` reports the end-to-end metrics (medians over rounds, 2 workers).
`--trace 1` alternates untraced and traced rounds on 1 worker and reports
the per-layer metrics of the traced rounds, the serial wall time and the
tracing overhead.  `--full` runs one round of the full-size configuration
instead.  The last line of standard output is the result object; the line
before it carries provenance and per-round figures, which are also written
with the traces under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKERS = 2  # one per core of the reference machine
SAMPLE = 12  # instances rebuilt independently per run
ROUND_TIMEOUT = 140  # s; a round that has not ended by then counts as failed

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "instances_per_s": "1/s", "witnesses_per_s": "1/s",
    "cpu_s": "s", "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full", action="store_true",
                        help="one round of the full-size configuration")
    return parser.parse_args(argv)


def run_round(calls, workers, trace, index, out_dir) -> dict:
    spec = {"calls": calls, "workers": workers, "trace": trace, "round": index,
            "out_dir": str(out_dir)}
    crashed = {"crashed": True, "calls": [{"status": None} for _ in calls]}
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "measure.py"), json.dumps(spec)],
                              capture_output=True, text=True, cwd=ROOT, timeout=ROUND_TIMEOUT)
    except subprocess.TimeoutExpired:
        print(f"round {index} did not end within {ROUND_TIMEOUT} s", file=sys.stderr)
        return crashed
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        return crashed
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result.pop("ready") - spawned
    return result


def provenance(args, workers) -> dict:
    import networkx
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src/arbormat").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode() + path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "full": args.full, "workers": workers,
        "cores": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "networkx": networkx.__version__,
        "commit": commit, "source_sha256": digest.hexdigest(),
    }


def check_run(args, calls, rounds, out_dir) -> tuple[list[str], dict]:
    """All checks of one run; returns the problems and recorded findings."""
    sys.path.insert(0, str(ROOT / "src"))
    import check

    validator = check.schema_validator(ROOT)
    problems = []
    findings = {}
    first = {}
    for r, rnd in enumerate(rounds):
        for k, (call, made) in enumerate(zip(calls, rnd["calls"])):
            if made["status"] not in (0, 1):  # no document: counted as failed
                continue
            blob = Path(made["doc"]).read_bytes()
            if k in first:
                if blob != first[k]:
                    problems.append(f"round {r} call {k}: document differs from round 0")
                continue
            first[k] = blob
            doc = json.loads(blob)
            found = check.check_document(doc, call)
            if call["entry"] == "cli":
                found += check.check_schema(doc, validator)
            problems += [f"call {k} ({call['entry']}): {p}" for p in found]
            if "all_unit" in doc:
                findings[f"call{k}.all_unit"] = doc["all_unit"]

    from arbormat import cli

    histogram = None
    for k, call in enumerate(calls):
        if call["check"] == "detmf" and k in first:
            histogram = json.loads(first[k])["histogram"]
    for s, instance in enumerate(check.sample_instances(args.workload, args.seed, SAMPLE,
                                                        args.full)):
        out = out_dir / f"analyze{s}.json"
        status = cli.main(check.analyze_argv(instance, out))
        if status != 0:
            problems.append(f"analyze exited {status} on {instance}")
            continue
        report = json.loads(out.read_text())
        found = check.check_instance(report, check.rebuild(instance), histogram)
        found += check.check_schema(report, validator)
        problems += [f"instance {instance}: {p}" for p in found]
    findings["instances_rebuilt"] = SAMPLE
    return problems, findings


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src/arbormat/cli.py").is_file():
        print(f"error: no arbormat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    try:
        calls = workloads.calls(args.workload, args.seed, args.full)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-s{args.seed}-t{args.trace}" + ("-full" if args.full else "")
    out_dir = HERE / "out" / tag
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    # untraced rounds on the reference worker count, or untraced and traced
    # serial rounds in turn; whole rounds only, at least one of each mode
    modes = [(1, 0), (1, 1)] if args.trace else [(WORKERS, 0)]
    rounds = []
    started = time.monotonic()
    while len(rounds) < len(modes) or (
            not args.full and time.monotonic() - started < args.seconds):
        workers, traced = modes[len(rounds) % len(modes)]
        rnd = run_round(calls, workers, traced, len(rounds), out_dir)
        rnd["traced"] = traced
        rounds.append(rnd)

    attempted = sum(len(r["calls"]) for r in rounds)
    failed = sum(1 for r in rounds for c in r["calls"] if c["status"] not in (0, 1))
    problems, findings = check_run(args, calls, rounds, out_dir)
    done = [r for r in rounds if not r.get("crashed")]
    if not done:
        problems.append("no round completed")

    def med(key, subset):
        return statistics.median(r[key] for r in subset)

    metrics = {}
    if done and args.trace:
        untraced = [r for r in done if not r["traced"]]
        traced = [r for r in done if r["traced"]]
        if untraced and traced:
            for name in traced[0]["layers"]:
                metrics[name] = statistics.median(r["layers"][name] for r in traced)
            metrics["serial.wall_s"] = med("wall_s", untraced)
            metrics["trace.overhead_s"] = med("wall_s", traced) - metrics["serial.wall_s"]
        else:
            problems.append("traced run needs one untraced and one traced round")
    elif done:
        wall = med("wall_s", done)
        metrics = {
            "setup_s": med("setup_s", done),
            "wall_s": wall,
            "instances_per_s": sum(c["instances"] for c in calls) / wall,
            "witnesses_per_s": sum(c["witnesses"] for c in calls) / wall,
            "cpu_s": med("cpu_s", done),
            "peak_rss_mb": med("peak_rss_mb", done),
        }

    def unit(name):
        if name in END_TO_END:
            return END_TO_END[name]
        return "s" if name.endswith("_s") else "bytes" if name.endswith("_bytes") else "count"

    record = {
        "provenance": provenance(args, modes[0][0]),
        "rounds": [{k: v for k, v in r.items() if k != "layers"} for r in rounds],
        "findings": findings,
        "problems": problems,
    }
    (out_dir / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"], "findings": findings,
                      "rounds": len(rounds)}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
