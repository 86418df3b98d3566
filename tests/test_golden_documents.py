"""Sweep documents against recorded golden copies.

Each golden file in tests/data/ is the ``dataclasses.asdict`` document of one
library sweep, serialized with sorted keys and gzipped.  Regenerating it must
give the same bytes: every count, histogram, example and failure record, in
order.  The injected runs fail a fixed third of the instances (see
``test_harness.inject_failures``) with the record cap lifted, so the whole
order of the failure records is compared.

Run this file as a script to write the documents afresh:

    PYTHONPATH=src python tests/test_golden_documents.py
"""

import gzip
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from arbormat import harness
from arbormat.harness import (
    OrientationPolicy,
    run_det_search,
    run_path_graph_sweep,
    run_path_image_sweep,
    run_split_sign_sweep,
    run_theorem_sweep,
    run_witness_sweep,
)

from test_harness import inject_failures

DATA = Path(__file__).parent / "data"


def theorem():
    return run_theorem_sweep([2, 3, 4, 5], OrientationPolicy("all"))


def witness():
    return run_witness_sweep([2, 3, 4, 5], OrientationPolicy.parse("sample:4"), seed=11)


def det():
    return run_det_search([2, 3, 4, 5, 6], OrientationPolicy("canonical"), paths_only=True)


SWEEPS = {
    "theorem": theorem,
    "witness": witness,
    "det": det,
    "path_image": lambda: run_path_image_sweep([2, 3, 4, 5], random_count=200, seed=42),
    "split_sign": lambda: run_split_sign_sweep([2, 3, 4]),
    "path_graph": lambda: run_path_graph_sweep([2, 3, 4, 5, 6]),
}
INJECTED = ("theorem", "witness", "det", "path_image", "path_graph")
NAMES = list(SWEEPS) + [f"{sweep}_injected" for sweep in INJECTED]


def document(name: str) -> str:
    sweep, injected = name.removesuffix("_injected"), name.endswith("_injected")
    with pytest.MonkeyPatch.context() as mp:
        if injected:
            inject_failures(mp, sweep)
            mp.setattr(harness, "MAX_FAILURE_RECORDS", 10**6)
        result = SWEEPS[sweep]()
    return json.dumps(asdict(result), sort_keys=True, indent=1) + "\n"


def golden(name: str) -> str:
    return gzip.decompress((DATA / f"{name}.json.gz").read_bytes()).decode()


def first_difference(got, want, path="$"):
    """The path to the first place, in document order, where two parsed
    documents differ, with both values there; None when they are equal."""
    if type(got) is not type(want):
        return path, got, want
    if isinstance(got, dict):
        for key in sorted(got.keys() | want.keys()):
            if key not in got or key not in want:
                return f"{path}.{key}", got.get(key), want.get(key)
            if found := first_difference(got[key], want[key], f"{path}.{key}"):
                return found
        return None
    if isinstance(got, list):
        for k, (x, y) in enumerate(zip(got, want)):
            if found := first_difference(x, y, f"{path}[{k}]"):
                return found
        if len(got) != len(want):
            return f"{path} length", len(got), len(want)
        return None
    return None if got == want else (path, got, want)


def assert_same(got, want) -> None:
    """Fail, naming the first differing path, unless the parsed documents
    are equal; pytest's own diff of two long documents can run for
    minutes."""
    if found := first_difference(got, want):
        path, x, y = found
        pytest.fail(f"documents differ first at {path}: {x!r:.200} != {y!r:.200}", pytrace=False)


def assert_unchanged(name: str) -> None:
    """The document of ``name`` equals its golden copy, parsed and then
    byte for byte."""
    got, want = document(name), golden(name)
    assert_same(json.loads(got), json.loads(want))
    if got != want:
        pytest.fail(f"{name}: documents parse equal but differ in bytes", pytrace=False)


@pytest.mark.parametrize("name", NAMES)
def test_document_is_unchanged(name):
    assert_unchanged(name)


@pytest.mark.parametrize("bound", [1, 7])
@pytest.mark.parametrize("name", NAMES)
def test_flush_bound_leaves_documents_unchanged(monkeypatch, name, bound):
    """Direct rows decided a chunk or two at a time, once ``bound`` rows
    wait, give the same documents as one call per worker."""
    from arbormat import certificate

    monkeypatch.setattr(certificate, "FLUSH_ROWS", bound)
    assert_unchanged(name)


@pytest.mark.parametrize("sweep", INJECTED)
def test_capped_records_are_a_prefix(monkeypatch, sweep):
    """Under the default cap, the document is the uncapped golden one with
    its failure records cut to the first MAX_FAILURE_RECORDS."""
    inject_failures(monkeypatch, sweep)
    capped = json.loads(json.dumps(asdict(SWEEPS[sweep]())))
    full = json.loads(golden(f"{sweep}_injected"))
    records = "nonunit_witnesses" if sweep == "det" else "failures"
    assert len(full[records]) > harness.MAX_FAILURE_RECORDS
    full[records] = full[records][: harness.MAX_FAILURE_RECORDS]
    assert_same(capped, full)


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name in NAMES:
        (DATA / f"{name}.json.gz").write_bytes(gzip.compress(document(name).encode(), mtime=0))
