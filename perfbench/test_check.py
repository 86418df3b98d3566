"""Tests of the benchmark's checker: real outputs pass, corrupted ones fail.

Run with: python3 -m pytest perfbench
"""

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from arbormat import cli, harness  # noqa: E402


def _cli_doc(tmp_path, argv):
    out = tmp_path / "doc.json"
    assert cli.main(argv + ["--out", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def validator():
    return check.schema_validator(ROOT)


@pytest.fixture
def verify_case(tmp_path):
    call = workloads.verify_call([2, 3, 4], "sample:3", 5)
    return _cli_doc(tmp_path, call["argv"]), call


@pytest.fixture
def detmf_case(tmp_path):
    call = workloads.detmf_call([2, 3, 4], "canonical", 0)
    return _cli_doc(tmp_path, call["argv"]), call


@pytest.fixture
def instance_case(tmp_path):
    instance = check.sample_instances("verify-sampled", 11, 1)[0]
    report = _cli_doc(tmp_path, check.analyze_argv(instance, tmp_path / "a.json")[:-2])
    return report, check.rebuild(instance)


def test_real_outputs_pass(verify_case, detmf_case, instance_case, validator):
    for doc, call in (verify_case, detmf_case):
        assert check.check_document(doc, call) == []
        assert check.check_schema(doc, validator) == []
    report, rebuilt = instance_case
    assert check.check_instance(report, rebuilt) == []
    assert check.check_schema(report, validator) == []


def test_rebuilt_instances_agree_with_the_program(tmp_path):
    for instance in check.sample_instances("claims-mix", 3, 6):
        report = _cli_doc(tmp_path, check.analyze_argv(instance, tmp_path / "a.json")[:-2])
        assert check.check_instance(report, check.rebuild(instance)) == []


def test_corrupted_matrix_entry_rejected(instance_case):
    report, rebuilt = instance_case
    for key in ("oriented", "unoriented"):
        bad = copy.deepcopy(report)
        entry = int(bad["matrices"][key][0][0])
        bad["matrices"][key][0][0] = str(1 - entry if key == "unoriented" else -1 - entry)
        assert any("matrix" in p for p in check.check_instance(bad, rebuilt))
    bad = copy.deepcopy(report)
    bad["witness"]["matrix"][-1][-1] = str(int(bad["witness"]["matrix"][-1][-1]) + 2)
    assert check.check_instance(bad, rebuilt)


def test_off_by_one_instance_count_rejected(verify_case):
    doc, call = verify_case
    bad = copy.deepcopy(doc)
    bad["per_n"]["3"]["instances"] = str(int(bad["per_n"]["3"]["instances"]) + 1)
    bad["total_instances"] = str(int(bad["total_instances"]) + 1)
    assert check.check_document(bad, call)
    bad = copy.deepcopy(doc)
    bad["per_n"]["4"]["trees"] = str(int(bad["per_n"]["4"]["trees"]) - 1)
    assert check.check_document(bad, call)


def test_library_count_off_by_one_rejected():
    call = workloads.calls("claims-mix", 0)[0]
    result = harness.run_witness_sweep([2, 3, 4, 5], harness.OrientationPolicy("all"))
    doc = json.loads(json.dumps(vars(result)))
    assert check.check_document(doc, call) == []
    doc["total_witnesses"] -= 1
    assert check.check_document(doc, call)


def test_even_histogram_key_rejected(detmf_case):
    doc, call = detmf_case
    bad = copy.deepcopy(doc)
    bad["histogram"]["2"] = "1"
    bad["histogram"]["1"] = str(int(bad["histogram"]["1"]) - 1)  # sum unchanged
    assert any("even" in p for p in check.check_document(bad, call))
    bad = copy.deepcopy(doc)
    bad["histogram"]["1"] = str(int(bad["histogram"]["1"]) + 1)
    assert any("sums" in p for p in check.check_document(bad, call))


def test_schema_invalid_document_rejected(verify_case, validator):
    doc, _ = verify_case
    bad = copy.deepcopy(doc)
    bad["total_instances"] = int(bad["total_instances"])  # leaves must be strings
    assert check.check_schema(bad, validator)
    bad = copy.deepcopy(doc)
    del bad["all_pass"]
    assert check.check_schema(bad, validator)


def test_tracer_counts_rows_and_restores_originals():
    trace = tracer.Tracer()
    original = harness.run_theorem_sweep
    tracer.install(trace)
    try:
        harness.run_theorem_sweep([3], harness.OrientationPolicy("canonical"))
    finally:
        trace.uninstall()
    assert harness.run_theorem_sweep is original
    layers = trace.layer_metrics()
    # two trees on 4 vertices, 3! cycles each, one canonical orientation
    assert layers["fast.build_oriented_batch_rows"] == 12
    assert layers["fast.batched_witness_rows"] == 12
    assert layers["harness.tasks"] == 2
    assert layers["trace.spans"] > 0
