"""The four benchmark workloads: the calls one round makes and their sizes.

A round is a fixed list of calls into the program's entry points: `cli`
argument vectors (`verify`, `search-detmf`) or public `harness` sweep
functions.  Every call carries the closed-form size of the instance space it
covers, computed here from first principles and never from the program.

Two sizes exist.  The run size is what one timed round of the benchmark
executes; it keeps each workload's shape (tasks per tree, batch rows,
kernel mix) at a scale that gives several rounds in a short run.  The full
size (`--full`) is the configuration the acceptance criteria and the project
baseline quote; it runs once, for the record.
"""

from __future__ import annotations

from math import factorial, gcd

# Unlabeled trees on v vertices, OEIS A000055 (typed in, not computed).
A000055 = {3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}

WORKLOADS = ("verify-sampled", "verify-canonical", "detmf", "claims-mix")


def witness_pairs(n: int) -> int:
    """Start vertices i times steps j coprime to the cycle length n + 1."""
    v = n + 1
    return v * sum(1 for j in range(1, v) if gcd(j, v) == 1)


def orientation_count(policy: str, n: int) -> int:
    if policy == "all":
        return 1 << n
    if policy == "canonical":
        return 1
    return 1 + int(policy.split(":", 1)[1])  # canonical plus K samples


def space(ns, policy: str, paths_only: bool = False) -> dict:
    """Closed-form size of (tree, orientation, cycle) spaces, per n."""
    per_n = {}
    for n in ns:
        trees = 1 if paths_only else A000055[n + 1]
        orientations = trees * orientation_count(policy, n)
        per_n[n] = {
            "trees": trees,
            "orientations": orientations,
            "instances": orientations * factorial(n),
        }
    return per_n


def _n_arg(ns) -> str:
    return f"{ns[0]}..{ns[-1]}" if len(ns) > 1 else str(ns[0])


def verify_call(ns, policy, seed):
    per_n = space(ns, policy)
    instances = sum(s["instances"] for s in per_n.values())
    return {
        "entry": "cli",
        "argv": ["verify", "--n", _n_arg(ns), "--orientations", policy, "--seed", str(seed)],
        "check": "verify",
        "ns": list(ns),
        "policy": policy,
        "seed": seed,
        "per_n": per_n,
        "instances": instances,
        # the theorem sweep validates one (i, j) = (1, 1) witness per instance
        "witnesses": instances,
    }


def detmf_call(ns, policy, seed):
    per_n = space(ns, policy)
    return {
        "entry": "cli",
        "argv": ["search-detmf", "--n", _n_arg(ns), "--orientations", policy, "--seed", str(seed)],
        "check": "detmf",
        "ns": list(ns),
        "policy": policy,
        "seed": seed,
        "instances": sum(s["instances"] for s in per_n.values()),
        "witnesses": sum(s["instances"] * witness_pairs(n) for n, s in per_n.items()),
    }


def _claims_mix(seed):
    """Library calls behind acceptance criteria 5, 6 and 8."""
    small = [2, 3, 4, 5]
    paths = [2, 3, 4, 5, 6]
    exhaustive = sum(s["instances"] for s in space(small, "all").values())
    witness = sum(s["instances"] * witness_pairs(n) for n, s in space(small, "all").items())
    path_space = space(paths, "canonical", paths_only=True)
    path_instances = sum(s["instances"] for s in path_space.values())
    path_witnesses = sum(s["instances"] * witness_pairs(n) for n, s in path_space.items())
    random_count = 1000
    return [
        {
            "entry": "run_witness_sweep",
            "kwargs": {"ns": small, "policy": "all"},
            "check": "witness",
            "instances": exhaustive,
            "witnesses": witness,
        },
        {
            "entry": "run_path_image_sweep",
            "kwargs": {"ns_exhaustive": small, "random_count": random_count,
                       "random_n": [6, 9], "seed": seed},
            "check": "path_image",
            "exhaustive": exhaustive,
            "random": random_count,
            "instances": exhaustive + random_count,
            "witnesses": 0,
        },
        {
            "entry": "run_path_graph_sweep",
            "kwargs": {"ns": paths},
            "check": "path_graph",
            "instances": path_instances,
            # every (i, j) witness matrix of every path instance is built
            "witnesses": path_witnesses,
        },
        {
            "entry": "run_split_sign_sweep",
            "kwargs": {"ns": small},
            "check": "split_sign",
            "instances": exhaustive,
            "witnesses": 0,
        },
        {
            "entry": "run_det_search",
            "kwargs": {"ns": paths, "policy": "canonical", "paths_only": True},
            "check": "det_search",
            "instances": path_instances,
            "witnesses": path_witnesses,
        },
    ]


def calls(workload: str, seed: int, full: bool = False) -> list[dict]:
    """The calls of one round of `workload`, as inputs made from `seed`."""
    if workload == "verify-sampled":
        sampled = [6, 7] if full else [6]
        return [verify_call([2, 3, 4, 5], "all", seed), verify_call(sampled, "sample:16", seed)]
    if workload == "verify-canonical":
        return [verify_call([8] if full else [7], "canonical", seed)]
    if workload == "detmf":
        return [detmf_call([7] if full else [6], "canonical", seed)]
    if workload == "claims-mix":
        return _claims_mix(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def sample_space(workload: str, full: bool = False) -> list[tuple[int, str]]:
    """(n, orientation policy) pairs the independent instance sample draws from."""
    out = []
    for call in calls(workload, 0, full):
        if call["entry"] == "cli":
            out += [(n, call["policy"]) for n in call["ns"]]
        elif "ns" in call["kwargs"]:
            out += [(n, call["kwargs"].get("policy", "all")) for n in call["kwargs"]["ns"]]
    return out
