"""Independent checks of the program's outputs.

Nothing here trusts arbormat's arithmetic.  Counts are compared with the
closed forms in `workloads` (OEIS A000055 tree counts x orientations x
(v-1)! cycles x coprime (i, j) pairs); CLI documents are validated against
the program's published schema; and a seeded sample of instances is rebuilt
from the definitions with networkx paths and sympy arithmetic and compared
with the program's `analyze` report for the same instance.

Every check returns a list of problems; an empty list means the output
passed.  All-unit `|det Mf|` is an open question, so it is recorded, not
asserted.
"""

from __future__ import annotations

import json
import random
from math import gcd
from pathlib import Path

import networkx as nx
import sympy

import workloads


# --------------------------------------------------------------------------
# documents against closed forms


def check_verify(doc: dict, call: dict) -> list[str]:
    problems = []
    if doc.get("command") != "verify":
        return [f"expected a verify document, got {doc.get('command')!r}"]
    config = doc["config"]
    if [int(n) for n in config["n"]] != call["ns"] or config["orientations"] != call["policy"] \
            or int(config["seed"]) != call["seed"]:
        problems.append(f"config {config} does not match the request")
    got_ns = sorted(int(n) for n in doc["per_n"])
    if got_ns != sorted(call["per_n"]):
        problems.append(f"per_n covers n = {got_ns}, expected {sorted(call['per_n'])}")
    for n, expected in call["per_n"].items():
        got = doc["per_n"].get(str(n), {})
        for key in ("trees", "orientations", "instances"):
            if int(got.get(key, -1)) != expected[key]:
                problems.append(f"n={n}: {key} = {got.get(key)}, closed form {expected[key]}")
        if int(got.get("failures", -1)) != 0:
            problems.append(f"n={n}: {got.get('failures')} failed instances")
    if int(doc["total_instances"]) != call["instances"]:
        problems.append(
            f"total_instances = {doc['total_instances']}, closed form {call['instances']}")
    if doc["all_pass"] is not True or doc["claim_failures"] or doc["failures"]:
        problems.append(f"claims failed: {doc['claim_failures']} {doc['failures'][:2]}")
    return problems


def _check_histogram(histogram: dict, witnesses: int) -> list[str]:
    problems = []
    total = sum(int(c) for c in histogram.values())
    if total != witnesses:
        problems.append(f"|det Mf| histogram sums to {total}, closed form {witnesses}")
    even = [k for k in histogram if int(k) % 2 == 0]
    if even:
        problems.append(f"|det Mf| histogram has even keys {even}")
    return problems


def check_detmf(doc: dict, call: dict) -> list[str]:
    if doc.get("command") != "search-detmf":
        return [f"expected a search-detmf document, got {doc.get('command')!r}"]
    problems = []
    config = doc["config"]
    if [int(n) for n in config["n"]] != call["ns"] or config["orientations"] != call["policy"] \
            or config["paths_only"] is not False:
        problems.append(f"config {config} does not match the request")
    problems += _check_histogram(doc["histogram"], call["witnesses"])
    if doc["all_odd"] is not True:
        problems.append("all_odd is false")
    if doc["all_unit"] != (set(doc["histogram"]) <= {"1"}):
        problems.append("all_unit disagrees with the histogram")
    return problems


def check_library(doc: dict, call: dict) -> list[str]:
    """Result dataclasses of the harness sweeps, as dictionaries."""
    kind = call["check"]
    problems = []
    if doc.get("all_pass", True) is not True or doc.get("failures"):
        problems.append(f"{kind}: claims failed: {doc.get('failures', [])[:2]}")
    if kind == "witness":
        if doc["total_witnesses"] != call["witnesses"]:
            problems.append(f"witness: {doc['total_witnesses']} witnesses, "
                            f"closed form {call['witnesses']}")
    elif kind == "path_image":
        if doc["exhaustive_instances"] != call["exhaustive"] or \
                doc["random_instances"] != call["random"]:
            problems.append(f"path_image: {doc['exhaustive_instances']} + "
                            f"{doc['random_instances']} instances, closed form "
                            f"{call['exhaustive']} + {call['random']}")
    elif kind == "path_graph":
        if doc["instances"] != call["instances"]:
            problems.append(f"path_graph: {doc['instances']} instances, "
                            f"closed form {call['instances']}")
    elif kind == "split_sign":
        if doc["instances"] != call["instances"] or \
                doc["applicable"] + doc["not_applicable"] != doc["instances"]:
            problems.append(f"split_sign: counts {doc['instances']} = {doc['applicable']} + "
                            f"{doc['not_applicable']}, closed form {call['instances']}")
        if not (0 < doc["with_additions"] <= doc["applicable"] and doc["not_applicable"] > 0):
            problems.append("split_sign: a reduction class is empty")
    elif kind == "det_search":
        problems += _check_histogram(doc["histogram"], call["witnesses"])
        if doc["all_odd"] is not True:
            problems.append("det_search: all_odd is false")
    else:
        problems.append(f"unknown check {kind!r}")
    return problems


def check_document(doc: dict, call: dict) -> list[str]:
    checker = {"verify": check_verify, "detmf": check_detmf}.get(call["check"], check_library)
    try:
        return checker(doc, call)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return [f"{call['check']}: malformed document ({exc!r})"]


def schema_validator(root: Path):
    import jsonschema

    schema = json.loads((root / "src/arbormat/schemas/output.schema.json").read_text())
    return jsonschema.Draft202012Validator(schema)


def check_schema(doc: dict, validator) -> list[str]:
    return [f"schema: {err.message}" for err in validator.iter_errors(doc)][:3]


# --------------------------------------------------------------------------
# instances rebuilt from the definitions


def sample_instances(workload: str, seed: int, count: int, full: bool = False) -> list[dict]:
    """Seeded (tree, orientation, cycle, (i, j)) draws from the workload's space."""
    rng = random.Random(f"{seed}|{workload}|sample")
    pool = workloads.sample_space(workload, full)
    trees = {}
    out = []
    for _ in range(count):
        n, policy = rng.choice(pool)
        v = n + 1
        if v not in trees:
            trees[v] = [sorted((min(a, b) + 1, max(a, b) + 1) for a, b in g.edges())
                        for g in nx.nonisomorphic_trees(v)]
        edges = rng.choice(trees[v])
        bits = 0 if policy == "canonical" else rng.getrandbits(n)
        rest = list(range(2, v + 1))
        rng.shuffle(rest)
        cycle = [1] + rest
        image = [0] * v
        for x, y in zip(cycle, cycle[1:] + cycle[:1]):
            image[x - 1] = y
        j = rng.choice([j for j in range(1, v) if gcd(j, v) == 1])
        out.append({"edges": edges, "bits": format(bits, f"0{n}b")[::-1],
                    "image": image, "i": rng.randint(1, v), "j": j})
    return out


def _signed_path(graph, oriented: dict, u: int, w: int, n: int) -> list[int]:
    """Edge-indexed vector of the tree path u -> w: +1 along an edge's
    orientation, -1 against it."""
    vec = [0] * n
    path = nx.shortest_path(graph, u, w)
    for x, y in zip(path, path[1:]):
        k, sign = oriented[(x, y)]
        vec[k] = sign
    return vec


def rebuild(instance: dict) -> dict:
    """A, B, charpolys, determinants and witness matrices from the definitions."""
    edges, bits, image = instance["edges"], instance["bits"], instance["image"]
    n = len(edges)
    graph = nx.Graph(edges)
    oriented = {}
    ends = []
    for k, (a, b) in enumerate(edges):
        first, second = (b, a) if bits[k] == "1" else (a, b)
        ends.append((first, second))
        oriented[(first, second)] = (k, 1)
        oriented[(second, first)] = (k, -1)

    def f(u):
        return image[u - 1]

    def f_power(u, k):
        for _ in range(k):
            u = f(u)
        return u

    a = sympy.Matrix([_signed_path(graph, oriented, f(p), f(q), n) for p, q in ends])
    b = a.applyfunc(abs)
    x = sympy.Symbol("x")
    companion = sympy.zeros(n, n)
    for r in range(n - 1):
        companion[r, r + 1] = 1
    companion[n - 1, :] = -sympy.ones(1, n)

    def witness(i, j):
        rows = [sympy.Matrix([_signed_path(graph, oriented, i, f_power(i, j), n)])]
        for _ in range(n - 1):
            rows.append(rows[-1] * a)
        return sympy.Matrix.vstack(*rows)

    mf = witness(1, 1)
    mf_ij = witness(instance["i"], instance["j"])
    return {
        "n": n,
        "oriented": a.tolist(),
        "unoriented": b.tolist(),
        "charpoly_oriented": a.charpoly(x).all_coeffs()[::-1],
        "charpoly_unoriented": b.charpoly(x).all_coeffs()[::-1],
        "det_oriented": a.det(),
        "det_unoriented": b.det(),
        "witness": mf.tolist(),
        "witness_det": mf.det(),
        "witness_conjugates": mf * a == companion * mf,
        "witness_ij_det": mf_ij.det(),
        "witness_ij_conjugates": mf_ij * a == companion * mf_ij,
    }


def check_instance(report: dict, rebuilt: dict, histogram: dict | None = None) -> list[str]:
    """Compare the program's `analyze` document with the rebuilt instance,
    and the rebuilt instance with the paper's claims."""
    problems = []
    n = rebuilt["n"]

    def ints(rows):
        return [[int(e) for e in row] for row in rows]

    try:
        if ints(report["matrices"]["oriented"]) != rebuilt["oriented"]:
            problems.append("oriented matrix A differs")
        if ints(report["matrices"]["unoriented"]) != rebuilt["unoriented"]:
            problems.append("unoriented matrix B differs")
        if [int(c) for c in report["charpolys"]["oriented"]] != rebuilt["charpoly_oriented"]:
            problems.append("charpoly of A differs")
        if [int(c) for c in report["charpolys"]["unoriented"]] != rebuilt["charpoly_unoriented"]:
            problems.append("charpoly of B differs")
        if int(report["determinants"]["oriented"]) != rebuilt["det_oriented"]:
            problems.append("det A differs")
        if int(report["determinants"]["unoriented"]) != rebuilt["det_unoriented"]:
            problems.append("det B differs")
        witness = report["witness"]
        if witness is None or ints(witness["matrix"]) != rebuilt["witness"] \
                or int(witness["determinant"]) != rebuilt["witness_det"]:
            problems.append("witness matrix Mf(1, 1) differs")
        failed = [k for k, status in report["claims"].items() if status == "fail"]
        if failed:
            problems.append(f"program reports failed claims {failed}")
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"malformed analyze document ({exc!r})")

    # the claims themselves, on the independent values
    if rebuilt["charpoly_oriented"] != [1] * (n + 1):
        problems.append("charpoly of A is not 1 + x + ... + x^n")
    if rebuilt["det_oriented"] != (-1) ** n:
        problems.append("det A is not (-1)^n")
    if any(c % 2 == 0 for c in rebuilt["charpoly_unoriented"]):
        problems.append("charpoly of B has an even coefficient")
    for key in ("witness", "witness_ij"):
        if not rebuilt[f"{key}_conjugates"]:
            problems.append(f"{key}: Mf.A != C.Mf")
        if rebuilt[f"{key}_det"] % 2 == 0:
            problems.append(f"{key}: det Mf is even")
    if histogram is not None and str(abs(rebuilt["witness_ij_det"])) not in histogram:
        problems.append(f"|det Mf| = {abs(rebuilt['witness_ij_det'])} missing from the histogram")
    return problems


def analyze_argv(instance: dict, out: Path) -> list[str]:
    tree = ",".join(f"{a}-{b}" for a, b in instance["edges"])
    return ["analyze", "--tree", tree, "--map", ",".join(map(str, instance["image"])),
            "--orientation", instance["bits"], "--out", str(out)]
