"""One benchmark round in a fresh interpreter, as a user's invocation would run.

Usage: python3 perfbench/measure.py '<json spec>'

The spec names the workload's calls, the worker count, whether to trace and
where to write the documents.  The round first imports arbormat and builds
the CLI parser (set-up), then makes the calls and prints one JSON line:
the monotonic time set-up ended, wall and CPU seconds of the calls, the peak
resident set of this process and its pool workers, each call's exit status
and document, and, when traced, the per-layer metrics.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from arbormat import cli, harness  # noqa: E402

cli.build_parser()
READY = time.monotonic()

import dataclasses  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

from arbormat.harness import OrientationPolicy  # noqa: E402


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def run_call(call: dict, workers: int, doc_path: Path) -> int:
    """Make one call; write its document to doc_path; return its exit status."""
    if call["entry"] == "cli":
        argv = call["argv"] + ["--workers", str(workers), "--out", str(doc_path)]
        return cli.main(argv)
    kwargs = dict(call["kwargs"])
    if "policy" in kwargs:
        kwargs["policy"] = OrientationPolicy.parse(kwargs["policy"])
    if "random_n" in kwargs:
        kwargs["random_n"] = tuple(kwargs["random_n"])
    result = getattr(harness, call["entry"])(workers=workers, **kwargs)
    doc = dataclasses.asdict(result)
    doc_path.write_text(json.dumps(doc, sort_keys=True, indent=2, default=str) + "\n")
    return 0


def main() -> None:
    spec = json.loads(sys.argv[1])
    out_dir = Path(spec["out_dir"])
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    calls = []
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    for k, call in enumerate(spec["calls"]):
        doc_path = out_dir / f"round{spec['round']}-call{k}.json"
        call_start = time.perf_counter()
        try:
            status = run_call(call, spec["workers"], doc_path)
        except Exception:  # a crash is a failed operation, reported not raised
            traceback.print_exc()
            status = None
        calls.append({"status": status, "doc": str(doc_path),
                      "wall_s": time.perf_counter() - call_start})
    wall = time.perf_counter() - started
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)

    result = {
        "ready": READY,
        "wall_s": wall,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
        # ru_maxrss is in KiB on Linux; CHILDREN holds the largest reaped worker
        "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024,
        "calls": calls,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        tracer.dump(out_dir / f"round{spec['round']}-trace.json")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
