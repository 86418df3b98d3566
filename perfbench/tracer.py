"""Spans and counters around calls into the program's layers, from outside.

`install` replaces public functions of each arbormat module (and every name
another arbormat module bound to them by import) with wrappers that record a
span per call: name, parent span, start and end.  Spans and counters stay in
memory; `layer_metrics` folds them into per-layer figures and `dump` writes
them out when the round ends.  Nothing inside the program changes.

Self time is a span's duration minus the time its direct child spans cover,
so the self times of all spans add up to the traced time without double
counting.  The `rings` scalar operations are not wrapped: at one call per
arithmetic step their wrappers would cost more than the work, so their time
shows as `algebra` self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# Kernels whose batch rows are counted; the rows argument is the stack of
# matrices (or cycle images for the matrix build).
KERNELS = (
    "build_oriented_batch",
    "batched_charpoly",
    "batched_geometric_sum_zero",
    "batched_gf2_nonderogatory",
    "batched_witness",
    "batched_path_image_ok",
    "batched_petrie",
    "batched_uniform_sign",
)
SWEEPS = (
    "run_theorem_sweep",
    "run_witness_sweep",
    "run_path_image_sweep",
    "run_path_graph_sweep",
    "run_split_sign_sweep",
    "run_det_search",
)
LAYERS = ("cli", "harness", "trees", "fast", "theorems", "dynamics", "algebra")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int] | None] = []  # name, parent, start, end
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def parent_name(self) -> str:
        return self.names[self.spans[self.stack[-1]][0]] if self.stack else ""

    def wrap(self, name: str, fn, before=None, after=None):
        """Wrap fn in a span; before(tracer, args) runs as the span opens,
        after(tracer, args, result) once fn has returned."""
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append((name_id, parent, 0, 0))  # placeholder, keeps child order
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, parent, start, end)
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, impl=None, before=None, after=None):
        """Replace owner.attr, and every arbormat module binding of the same
        object, with a traced wrapper around impl (default: the original)."""
        original = getattr(owner, attr)
        wrapper = self.wrap(name, impl or original, before, after)
        targets = [owner]
        if isinstance(owner, type(sys)):
            targets += [
                mod for key, mod in sorted(sys.modules.items())
                if key.startswith("arbormat") and getattr(mod, attr, None) is original
                and mod is not owner
            ]
        for target in targets:
            self._restore.append((target, attr, getattr(target, attr)))
            setattr(target, attr, wrapper)

    def uninstall(self):
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def layer_metrics(self) -> dict:
        """Per-layer times (seconds, self time) and counters of this trace."""
        child_ns = defaultdict(int)
        for name_id, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = Counter()
        self_ns = Counter()
        incl_ns = Counter()
        plan_ns = 0
        for idx, (name_id, parent, start, end) in enumerate(self.spans):
            name = self.names[name_id]
            calls[name] += 1
            incl_ns[name] += end - start
            self_ns[name] += end - start - child_ns[idx]
            if name == "harness._run_tasks" and parent >= 0:
                _, _, parent_start, _ = self.spans[parent]
                plan_ns += start - parent_start

        def s(ns):
            return ns / 1e9

        layer_self = Counter()
        for name, ns in self_ns.items():
            layer_self[name.split(".", 1)[0]] += ns
        out = {f"{layer}.self_s": s(layer_self[layer]) for layer in LAYERS}
        out.update({
            "trees.enumerate_s": s(self_ns["trees.enumerate_trees"]),
            "trees.count": self.counts["trees.count"],
            "trees.canonical_form_s": s(self_ns["trees.canonical_form"]),
            "trees.canonical_form_calls": calls["trees.canonical_form"],
            "fast.signed_path_table_s": s(self_ns["fast.signed_path_table"]),
            "fast.signed_path_table_calls": calls["fast.signed_path_table"],
            "fast.cycle_images_s": s(self_ns["fast.cycle_images"]),
            "fast.cycle_images_bytes": self.counts["fast.cycle_images_bytes"],
            "fast.iterate_images_s": s(self_ns["fast.iterate_images"]),
            "fast.iterate_images_calls": calls["fast.iterate_images"],
            "harness.tasks": self.counts["harness.tasks"],
            "harness.task_s": s(incl_ns["harness._run_tasks"]),
            "harness.plan_s": s(plan_ns),
            "harness.exact_fallbacks": self.counts["harness.exact_fallbacks"],
            "cli.emit_s": s(self_ns["cli._emit"]),
            "cli.doc_bytes": self.counts["cli.doc_bytes"],
            "trace.spans": len(self.spans),
        })
        for kernel in KERNELS:
            out[f"fast.{kernel}_s"] = s(self_ns[f"fast.{kernel}"])
            out[f"fast.{kernel}_rows"] = self.counts[f"fast.{kernel}_rows"]
        for name in ("theorems.basis_witness", "theorems.split_sign_check",
                     "dynamics.path_image_check", "algebra.charpoly", "algebra.determinant"):
            out[f"{name}_calls"] = calls[name]
            out[f"{name}_s"] = s(self_ns[name])
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counts": dict(self.counts)}, fh, separators=(",", ":"))


def _count_rows(key: str, position: int):
    def before(tracer, args):
        tracer.counts[key] += int(args[position].shape[0])
    return before


def _count_fallback(tracer, args):
    # a witness built on the exact route straight from a sweep is a gate
    # failure of the int64 kernel routed to the exact fallback
    if tracer.parent_name().startswith("harness."):
        tracer.counts["harness.exact_fallbacks"] += 1


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the benchmark names."""
    from arbormat import _fast, algebra, cli, dynamics, harness, theorems, trees

    original_enumerate = trees.enumerate_trees

    def enumerate_listed(*args, **kwargs):
        # consume the generator inside the span so its time is counted
        listed = list(original_enumerate(*args, **kwargs))
        tracer.counts["trees.count"] += len(listed)
        return iter(listed)

    tracer.patch(trees, "enumerate_trees", "trees.enumerate_trees", impl=enumerate_listed)
    tracer.patch(trees, "canonical_form", "trees.canonical_form")
    tracer.patch(_fast, "signed_path_table", "fast.signed_path_table")

    cycle_images = _fast.cycle_images

    def count_materialized(tracer, args, result):
        if cycle_images.cache_info().currsize > tracer.counts["fast.cycle_images_cached"]:
            tracer.counts["fast.cycle_images_cached"] += 1
            tracer.counts["fast.cycle_images_bytes"] += int(result.nbytes)

    tracer.patch(_fast, "cycle_images", "fast.cycle_images", after=count_materialized)
    tracer.counts["fast.cycle_images_cached"] = cycle_images.cache_info().currsize
    for kernel in KERNELS:
        position = 1 if kernel == "build_oriented_batch" else 0
        tracer.patch(_fast, kernel, f"fast.{kernel}",
                     before=_count_rows(f"fast.{kernel}_rows", position))
    tracer.patch(_fast, "iterate_images", "fast.iterate_images")

    for sweep in SWEEPS:
        tracer.patch(harness, sweep, f"harness.{sweep}")
    tracer.patch(harness, "_run_tasks", "harness._run_tasks",
                 before=lambda t, args: t.counts.update({"harness.tasks": len(args[1])}))

    tracer.patch(theorems, "basis_witness", "theorems.basis_witness", before=_count_fallback)
    tracer.patch(theorems, "_witness_rows", "theorems._witness_rows", before=_count_fallback)
    tracer.patch(theorems, "split_sign_check", "theorems.split_sign_check")
    tracer.patch(dynamics, "path_image_check", "dynamics.path_image_check")
    tracer.patch(algebra.ExactMatrix, "charpoly", "algebra.charpoly")
    tracer.patch(algebra.ExactMatrix, "determinant", "algebra.determinant")

    def count_doc(tracer, args, result):
        doc, out_path = args
        if out_path:
            with open(out_path, "rb") as fh:
                tracer.counts["cli.doc_bytes"] += len(fh.read())

    tracer.patch(cli, "main", "cli.main")
    tracer.patch(cli, "_emit", "cli._emit", after=count_doc)
