import contextlib
import copy
import itertools
import math
import os
import platform
import random
import resource
import signal
import subprocess
import sys
import time
from dataclasses import astuple, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arbormat import (
    ExactMatrix,
    Orientation,
    Tree,
    VertexMap,
    ZZ,
    basis_witness,
    companion,
    geometric_sum_is_zero,
    invariant_factors,
    oriented_matrix,
    petrie_check,
    reduce_mod,
    z2_similarity_to_companion,
)
from arbormat import _fast
from arbormat.errors import CapExceeded, WitnessFailed
from arbormat.certificate import AUDIT_AGREEMENT, AUDIT_ROWS, QUEUE, OrientedRows, audit_rows
from arbormat.harness import (
    OrientationPolicy,
    _sample_orientation,
    orientations_for,
    random_instances,
    run_det_search,
    run_path_graph_sweep,
    run_path_image_sweep,
    run_split_sign_sweep,
    run_theorem_sweep,
    run_witness_sweep,
    trees_for,
)


def cycle_image_row(perm):
    """The image array of the cycle 1 -> perm[0] -> ... -> perm[-1] -> 1,
    column 0 unused."""
    seq = [1, *perm]
    row = [0] * (len(seq) + 1)
    for x, y in zip(seq, seq[1:] + seq[:1]):
        row[x] = y
    return row


def inversion_sign(seq):
    """(-1)^inversions of a sequence of distinct values."""
    pairs = itertools.combinations(seq, 2)
    return -1 if sum(x > y for x, y in pairs) % 2 else 1


def random_sign_matrices(seed, count, n):
    rng = random.Random(seed)
    return np.array(
        [[[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)] for _ in range(count)],
        dtype=np.int64,
    )


def gf2_derogatory_geometric(n):
    """A derogatory 0/1 matrix whose charpoly is 1 + x + ... + x^n mod 2, or
    None when that polynomial is squarefree over GF(2) (n = 1 and even n).

    Polynomials are bitmasks (bit k = coefficient of x^k).  With g^2 | P the
    block sum of the companions of g and P/g has minimal polynomial P/g."""

    def divmod2(a, b):
        q = 0
        while a and a.bit_length() >= b.bit_length():
            shift = a.bit_length() - b.bit_length()
            q |= 1 << shift
            a ^= b << shift
        return q, a

    def companion2(poly):
        d = poly.bit_length() - 1
        comp = np.zeros((d, d), dtype=np.int64)
        comp[np.arange(d - 1), np.arange(1, d)] = 1
        comp[d - 1, :] = [(poly >> k) & 1 for k in range(d)]
        return comp

    geometric = (1 << (n + 1)) - 1
    for g in range(2, 1 << (n // 2 + 1)):
        square = sum(1 << (2 * k) for k in range(g.bit_length()) if (g >> k) & 1)
        if divmod2(geometric, square)[1] == 0:
            d = g.bit_length() - 1
            out = np.zeros((n, n), dtype=np.int64)
            out[:d, :d] = companion2(g)
            out[d:, d:] = companion2(divmod2(geometric, g)[0])
            return out
    return None


def instance_batch(seed, count, v):
    """Real transition matrices plus their instances."""
    out = []
    for f, o in random_instances(seed, count, v - 1, v - 1):
        out.append((f, o, oriented_matrix(f, o)))
    mats = np.array([tm.oriented.rows for _, _, tm in out], dtype=np.int64)
    return out, mats


def assert_witness_matches_per_pair(mats, seeds):
    """batched_witness on (rows, chains, starts) seeds equals the oracle
    that builds every witness apart; returns the kernel's outputs."""
    from oracles import witness_per_pair

    got = _fast.batched_witness(mats, seeds)
    b, s, m, n = seeds.shape
    for x, y in zip(got, witness_per_pair(mats, seeds.reshape(b, s * m, n))):
        assert x.shape[:3] == (b, s, m) and (x.reshape(y.shape) == y).all()
    return got


def matrix_consumer_outputs(tree, table, images, first, second, a) -> dict:
    """The outputs, as tuples of arrays, of every batched kernel that reads
    the oriented matrices ``a`` of one oriented tree, witnesses on (1, 1)."""
    b = np.abs(a)
    seeds = table[1, images[:, 1], None, None]  # spv(1, f(1)), one per matrix
    paths = _fast.path_table(tree)
    return {
        "charpoly": (_fast.batched_charpoly(a), _fast.batched_charpoly(b)),
        "geometric_sum_zero": (_fast.batched_geometric_sum_zero(a, _fast.batched_charpoly(a)),),
        "gf2_nonderogatory": (_fast.batched_gf2_nonderogatory(b),),
        "witness": _fast.batched_witness(a, seeds),
        "split_sign": _fast.batched_split_sign(
            paths, table[None], images, first[None], second[None], a[None]
        ),
        "uniform_sign": (_fast.batched_uniform_sign(a),),
        "petrie": (_fast.batched_petrie(a),),
    }


class TestKernelAgreement:
    """The int64 batched route must coincide with the exact object route."""

    def test_charpoly_random(self):
        for n in (2, 4, 7):
            mats = random_sign_matrices(n, 40, n)
            got = _fast.batched_charpoly(mats)
            for k in range(mats.shape[0]):
                want = ExactMatrix(ZZ, mats[k].tolist()).charpoly().coeffs
                assert tuple(int(c) for c in got[k]) == want

    def test_charpoly_rejects_large_entries(self):
        with pytest.raises(ValueError):
            _fast.batched_charpoly(np.full((1, 3, 3), 2, dtype=np.int64))

    def test_geometric_sum_random(self):
        """A^(n+1) = I with p(1) != 0 against the sum itself: random sign
        matrices, I and 0 (false), and signed conjugates D.P.C.P^-1.D of
        the companion C of 1 + x + ... + x^n (true)."""
        for n in (2, 5, 7, 10):
            rng = np.random.default_rng(n)
            mats = random_sign_matrices(3, 30, n)
            mats[0], mats[1] = np.eye(n, dtype=np.int64), 0
            c = companion(n).rows
            for k in range(2, 12):
                p = np.eye(n, dtype=np.int64)[rng.permutation(n)] * rng.choice([-1, 1], n)
                mats[k] = p @ c @ p.T
            got = _fast.batched_geometric_sum_zero(mats, _fast.batched_charpoly(mats))
            assert got[2:12].all() and not got[:2].any()
            for k in range(30):
                want = geometric_sum_is_zero(ExactMatrix(ZZ, mats[k].tolist()))
                assert bool(got[k]) == want, (n, k)

    def test_gf2_route_matches_invariant_factors(self):
        instances, mats = instance_batch(71, 30, 6)
        b = np.abs(mats)
        cp = _fast.batched_charpoly(b)
        kernel = np.all(cp % 2 == 1, axis=1) & _fast.batched_gf2_nonderogatory(b)
        for k, (f, o, tm) in enumerate(instances):
            assert bool(kernel[k]) == z2_similarity_to_companion(tm.unoriented)

    def test_gf2_route_on_non_instances(self):
        # also agree on arbitrary 0/1 matrices, where claims may fail
        rng = random.Random(9)
        mats = np.array(
            [[[rng.randint(0, 1) for _ in range(4)] for _ in range(4)] for _ in range(60)],
            dtype=np.int64,
        )
        cp = _fast.batched_charpoly(mats)
        kernel = np.all(cp % 2 == 1, axis=1) & _fast.batched_gf2_nonderogatory(mats)
        for k in range(60):
            want = z2_similarity_to_companion(ExactMatrix(ZZ, mats[k].tolist()))
            assert bool(kernel[k]) == want

    @pytest.mark.parametrize("n", range(1, 11))
    def test_gf2_kernel_every_n(self, n):
        # every n the int64 kernels support, past the sweep limit of n = 9
        rng = np.random.default_rng(n)
        mats = [np.zeros((n, n), dtype=np.int64), np.eye(n, dtype=np.int64)]
        # sparse draws give reduced powers that vanish or pivot late
        for low, density in ((0, 0.1), (0, 0.2), (0, 0.5), (-1, 0.1), (-1, 0.3), (-1, 0.7)):
            for _ in range(12):
                draw = rng.random((n, n)) < density
                signs = rng.integers(low, 1, (n, n), endpoint=True) | 1
                mats.append(np.where(draw, signs, 0))
        derogatory = gf2_derogatory_geometric(n)
        if derogatory is not None:
            derogatory_idx = len(mats)
            mats.append(derogatory)
        mats = np.array(mats)
        if n >= 2:
            _, real = instance_batch(100 + n, 8, n + 1)
            mats = np.concatenate([mats, np.abs(real), real])
        got = _fast.batched_gf2_nonderogatory(mats)
        cp = _fast.batched_charpoly(mats)
        claim = np.all(cp % 2 == 1, axis=1) & got
        for k in range(mats.shape[0]):
            exact = ExactMatrix(ZZ, mats[k].tolist())
            assert bool(got[k]) == (len(invariant_factors(reduce_mod(exact, 2))) == 1)
            if n >= 2:  # the companion of 1 + ... + x^n starts at n = 2
                assert bool(claim[k]) == z2_similarity_to_companion(exact)
        if n >= 2:
            assert not got.all() and claim.any()
        if derogatory is not None:
            assert np.all(cp[derogatory_idx] % 2 == 1) and not got[derogatory_idx]

    def test_witness_matrices_match_witness_outputs(self):
        """The returned Mf are the seeds and their iterates, and gate and
        det are those of each Mf: random {-1, 0, 1} stacks, some of whose
        iterates leave the gate, and real matrices with real seeds."""
        rng = np.random.default_rng(5)
        mats = rng.integers(-1, 1, (300, 5, 5), endpoint=True)
        seeds = rng.integers(-1, 1, (300, 3, 2, 5), endpoint=True)  # 3 chains of 2 per matrix
        _, real = instance_batch(13, 40, 6)
        mats = np.concatenate([mats, real])
        seeds = np.concatenate([seeds, real[:, :3, None].repeat(2, axis=2)])
        gate, det, _, mf = _fast.batched_witness(mats, seeds)
        assert mf.shape == (340, 3, 2, 5, 5) and gate.shape == det.shape == (340, 3, 2)
        assert (mf[:, :, :, 0] == seeds).all()
        assert (mf[..., 1:, :] == np.einsum("bpmki,bij->bpmkj", mf[..., :-1, :], mats)).all()
        assert (gate == _fast.unit_entries(mf)).all() and gate.any() and not gate.all()
        cp = _fast.batched_charpoly(np.where(gate[..., None, None], mf, 0).reshape(-1, 5, 5))
        assert (-cp[:, 0] == det.ravel()).all()  # det = (-1)^n cp(0) with n = 5

    def test_cycle_images_in_permutation_order(self):
        # rank b is the cycle 1 -> p[0] -> p[1] -> ... -> 1 of the b-th
        # permutation p of 2..v in itertools order; documents index by rank
        for v in range(2, 10):
            perms = list(itertools.permutations(range(2, v + 1)))
            images, orbit, sign = _fast.unrank_cycles(v, np.arange(len(perms)))
            assert images.shape == (len(perms), v + 1)
            assert orbit.tolist() == [[1, *p] for p in perms]
            assert images.tolist() == [cycle_image_row(p) for p in perms]
            assert (_fast.cycle_images(v) == images).all()
            assert sign.tolist() == [inversion_sign(p) for p in perms]

    @pytest.mark.parametrize("v", [10, 11])
    def test_unranked_cycles_match_pure_python(self, v):
        """200 random ranks past the exhaustive check: each is unranked by
        picking entry r // (k - 1)! of the values left, k of them."""
        ranks = np.random.default_rng(v).integers(math.factorial(v - 1), size=200)
        images, orbit, sign = _fast.unrank_cycles(v, ranks)
        for rank, row, seq, s in zip(ranks.tolist(), images, orbit, sign):
            rest, perm = list(range(2, v + 1)), []
            for k in range(v - 1, 0, -1):
                digit, rank = divmod(rank, math.factorial(k - 1))
                perm.append(rest.pop(digit))
            assert seq.tolist() == [1, *perm]
            assert row.tolist() == cycle_image_row(perm)
            assert s == inversion_sign(perm)

    def test_matrix_build_matches_api(self):
        rng = random.Random(55)
        for v in range(3, 8):
            n = v - 1
            tree = rng.choice(trees_for(v))
            bits = rng.randrange(1 << n)
            table = _fast.orient_table(_fast.signed_path_table(tree), bits, n)
            images = _fast.cycle_images(v)
            first, second = _fast.oriented_endpoint_arrays(tree, bits)
            batch = _fast.build_oriented_batch(table, images, first, second)
            assert batch.dtype == np.int8
            o = Orientation.from_int(bits, n)
            for idx in range(0, images.shape[0], 7):
                f = VertexMap(tree, [int(x) for x in images[idx][1:]])
                want = oriented_matrix(f, o).oriented.rows
                assert tuple(tuple(int(e) for e in row) for row in batch[idx]) == want
            # every kernel reading A gives the same output on its int64 copy
            args = tree, table, images, first, second
            narrow = matrix_consumer_outputs(*args, batch)
            wide = matrix_consumer_outputs(*args, batch.astype(np.int64))
            for name in narrow:
                for x, y in zip(narrow[name], wide[name]):
                    assert np.array_equal(x, y), (v, name)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_grouped_witness_matches_per_pair_route(self, n):
        """The orbit kernel, one iterate stack per (row, step), equals the
        route that builds and charpolys every (start, step) witness apart,
        on the audit rows of every tree under the canonical and one seeded
        orientation, from at most four evenly spaced chunks (all chunks up to
        n = 8); and on those rows again with one table entry flipped in the
        seeds, which breaks the chain at one pair of a row."""
        from arbormat import harness
        from arbormat.certificate import CYCLE_CHUNK
        from arbormat.harness import _Oriented
        from arbormat.theorems import coprime_steps

        v = n + 1
        cycles = _fast.cycle_images(v)
        chunks = range(0, len(cycles), CYCLE_CHUNK)
        rows = np.concatenate([lo + audit_rows(len(cycles[lo : lo + CYCLE_CHUNK]))
                               for lo in chunks[:: -(-len(chunks) // 4)]])
        images = cycles[rows]
        steps = coprime_steps(v)
        rng = random.Random(n)
        for tree in trees_for(v):
            for bits in (0, rng.randrange(1 << n)):
                o = _Oriented.of(tree, bits)
                a = o.build(images)
                for _, mats, seeds, _ in harness._witness_blocks(
                    rows_of(o, len(a)), images, a, steps, v
                ):
                    gate = assert_witness_matches_per_pair(mats, seeds)[0]
                    assert gate.all()  # the sweep's witnesses pass the gate
        flipped = o.table.copy()
        flipped[2, 3, np.nonzero(flipped[2, 3])[0][0]] *= -1
        clean = next(harness._witness_blocks(rows_of(o, len(a)), images, a, steps, v))
        bad = OrientedRows((o,), flipped[None], np.zeros(len(a), dtype=np.int64))
        _, mats, seeds, _ = next(harness._witness_blocks(bad, images, a, steps, v))
        broken = (seeds != clean[2]).any(axis=3)
        assert broken.sum(axis=(1, 2)).max() == 1 and broken.any()
        mf = assert_witness_matches_per_pair(mats, seeds)[3]
        _, _, _, clean_mf = _fast.batched_witness(*clean[1:3])
        assert ((mf != clean_mf).any(axis=(3, 4)) == broken).all()

    def test_witness_chains_off_the_gate(self):
        """Chains whose later seeds are the iterates of the first, on random
        {-1, 0, 1} matrices A: iterates leave the gate, a window after one
        that left it passes again, and where |det A| is not 1 the
        determinant recurrence multiplies by it.  A few matrices with an
        entry of 2 keep A itself out of the charpoly.  Independent random
        seeds put every pair but the first of a chain off it."""
        recurred = regated = 0
        for n in range(2, 6):
            rng = np.random.default_rng(n)
            mats = rng.integers(-1, 1, (1000, n, n), endpoint=True)
            not_unit = np.abs(_fast.batched_charpoly(mats)[:, 0]) != 1
            mats[:20, 0, 0] = 2
            chain = [rng.integers(-1, 1, (len(mats), 2, n), endpoint=True)]
            for _ in range(n):
                chain.append(chain[-1] @ mats)
            loose = rng.integers(-1, 1, (len(mats), 2, n + 1, n), endpoint=True)
            assert_witness_matches_per_pair(mats, loose)
            gate, det, _, _ = assert_witness_matches_per_pair(mats, np.stack(chain, axis=2))
            after, nonzero = gate[:, :, 1:], det[:, :, 1:] != 0
            recurred += (after & gate[:, :, :-1] & nonzero & not_unit[:, None, None]).sum()
            regated += (after & ~gate[:, :, :-1] & nonzero).sum()
        assert recurred and regated

    def test_witness_kernel_matches_api(self):
        instances, mats = instance_batch(77, 25, 5)
        seeds = np.array(
            [
                f.tree.signed_path_vector(o, 1, f(1))
                for f, o, _ in instances
            ],
            dtype=np.int64,
        )
        gate, det, companion_ok, _ = (
            x[:, 0, 0] for x in _fast.batched_witness(mats, seeds[:, None, None])
        )
        for k, (f, o, tm) in enumerate(instances):
            assert bool(gate[k])
            w = basis_witness(f, o, 1, 1)
            assert int(det[k]) == w.determinant
            assert bool(companion_ok[k])
            # the conjugation Mf.A.Mf^-1 == C follows from the companion identity
            assert not companion_ok[k] or w.conjugates_over_rationals(tm.oriented)

    def test_petrie_kernel(self):
        rng = random.Random(31)
        mats = np.array(
            [[[rng.randint(-1, 1) for _ in range(4)] for _ in range(4)] for _ in range(80)],
            dtype=np.int64,
        )
        got = _fast.batched_petrie(mats)
        for k in range(80):
            assert bool(got[k]) == petrie_check(ExactMatrix(ZZ, mats[k].tolist()))

    def test_path_image_kernel(self):
        instances, mats = instance_batch(99, 20, 5)
        for k, (f, o, tm) in enumerate(instances):
            tree = f.tree
            bits = sum(1 << i for i, flag in enumerate(o.bits) if flag)
            table = _fast.orient_table(_fast.signed_path_table(tree), bits, tree.edge_count)
            images = np.array([[0] + list(f.image)], dtype=np.int64)
            single = mats[k : k + 1]
            got = _fast.batched_path_image_ok(per_row(table[1], 1), images, single)
            assert bool(got[0])
            corrupted = single.copy()
            corrupted[0, 0, :] = -corrupted[0, 0, :]
            if not (corrupted[0] == single[0]).all():
                bad = _fast.batched_path_image_ok(per_row(table[1], 1), images, corrupted)
                assert not bool(bad[0])


class TestSampling:
    def test_counter_determinism(self):
        a = _sample_orientation(7, "(()())", 3, 5)
        b = _sample_orientation(7, "(()())", 3, 5)
        assert a == b and 0 <= a < 32

    def test_digest_equals_hashlib(self):
        """The interpreter's own SHA-256 gives hashlib's digests."""
        import hashlib

        for seed, code, counter, n in itertools.product(
            (0, 7, 2**40), ("", "(()())", "((()))()"), (0, 3, 1000), (2, 5, 10)
        ):
            digest = hashlib.sha256(f"{seed}|{code}|{counter}".encode()).digest()
            want = int.from_bytes(digest[:8], "big") % (1 << n)
            assert _sample_orientation(seed, code, counter, n) == want

    @pytest.mark.parametrize("policy", ["all", "canonical", "sample:2"])
    def test_trees_canonicalized_only_when_sampled(self, monkeypatch, policy):
        """Only a sampled orientation is seeded by the tree's canonical form."""
        from arbormat import harness

        calls = []
        real = harness.canonical_form
        monkeypatch.setattr(harness, "canonical_form", lambda t: calls.append(t) or real(t))
        tasks = harness._tree_tasks([3, 4], OrientationPolicy.parse(policy), 5)
        assert len(calls) == (len(tasks) if policy.startswith("sample") else 0)
        assert len(tasks) == len(trees_for(4)) + len(trees_for(5))

    def test_policy_parsing(self):
        assert OrientationPolicy.parse("all").mode == "all"
        assert OrientationPolicy.parse("sample:16").sample_count == 16
        with pytest.raises(ValueError):
            OrientationPolicy.parse("some")

    def test_orientations_for(self):
        pol = OrientationPolicy("sample", 4)
        got = orientations_for(pol, 5, 7, "code")
        assert got[0] == 0 and len(got) == 5
        assert got == orientations_for(pol, 5, 7, "code")
        assert got != orientations_for(pol, 5, 8, "code") or got != orientations_for(
            pol, 5, 7, "other"
        )
        # the representative first, then the samples in sorted order: a
        # task's tuple order is the order its orientations are folded in
        assert got == [0] + sorted(_sample_orientation(7, "code", k, 5) for k in range(4))
        assert got[1:] != [_sample_orientation(7, "code", k, 5) for k in range(4)]

    def test_random_instances_deterministic(self):
        a = [(f.tree.edges, f.image, o.bits) for f, o in random_instances(3, 10, 2, 5)]
        b = [(f.tree.edges, f.image, o.bits) for f, o in random_instances(3, 10, 2, 5)]
        assert a == b


class TestSweeps:
    def test_theorem_counts_and_pass(self):
        res = run_theorem_sweep([2, 3, 4], OrientationPolicy("all"), workers=1)
        assert res.all_pass
        assert res.per_n[2]["instances"] == 8
        assert res.per_n[3]["instances"] == 96
        assert res.per_n[4]["instances"] == 1152
        assert res.total_instances == 1256

    def test_worker_independence(self):
        one = run_theorem_sweep([2, 3], OrientationPolicy("all"), workers=1)
        two = run_theorem_sweep([2, 3], OrientationPolicy("all"), workers=2)
        assert one.per_n == two.per_n
        assert one.failures == two.failures
        assert one.total_instances == two.total_instances

    def test_cap(self):
        with pytest.raises(CapExceeded):
            run_theorem_sweep([12], OrientationPolicy("all"))

    def test_sweep_limit_names_no_environment_variable(self):
        # the library never reads ARBOR_CAP_N, so its error must not cite it
        with pytest.raises(CapExceeded, match=r"sweep limit of n <= 10") as exc:
            run_path_graph_sweep([11])
        assert "ARBOR_CAP_N" not in str(exc.value)

    @pytest.mark.parametrize("random_n", [(1, 3), (5, 3), (6, 11)])
    def test_path_image_random_n_checked_first(self, monkeypatch, random_n):
        from arbormat import harness

        ran = []
        monkeypatch.setattr(harness, "_run_tasks", lambda *args, **kwargs: ran.append(args))
        with pytest.raises(CapExceeded):
            run_path_image_sweep([2, 3], random_count=5, random_n=random_n)
        assert not ran

    def test_witness_sweep_small(self):
        res = run_witness_sweep([2, 3], OrientationPolicy("all"))
        assert res.all_pass
        # n=2: 1 tree x 4 orientations x 2 cycles x (2 steps x 3 starts)
        # n=3: 2 trees x 8 orientations x 6 cycles x (2 steps x 4 starts)
        assert res.total_witnesses == 8 * 6 + 96 * 8

    def test_path_image_sweep(self):
        res = run_path_image_sweep([2, 3], random_count=25, seed=5)
        assert res.all_pass
        assert res.exhaustive_instances == 104
        assert res.random_instances == 25

    def test_path_graph_sweep(self):
        res = run_path_graph_sweep([2, 3, 4])
        assert res.all_pass
        assert res.instances == 2 + 6 + 24

    def test_split_sign_sweep(self):
        res = run_split_sign_sweep([2, 3])
        assert res.all_pass
        assert res.instances == res.applicable + res.not_applicable
        assert res.with_additions > 0
        assert res.example_with_additions is not None
        assert res.example_not_applicable is not None

    def test_det_search(self):
        res = run_det_search([2, 3, 4], OrientationPolicy("canonical"))
        assert res.all_odd
        assert set(res.histogram) == {1}
        res_paths = run_det_search([2, 3, 4], OrientationPolicy("canonical"), paths_only=True)
        assert res_paths.all_unit

    def test_det_search_matches_exact_route(self):
        # batched histogram equals a per-witness tally via the exact path
        from collections import Counter

        from arbormat.theorems import iter_witness_determinants

        res = run_det_search([3], OrientationPolicy("canonical"))
        tally = Counter()
        for tree in trees_for(4):
            o = Orientation.canonical(3)
            for img in _fast.cycle_images(4):
                f = VertexMap(tree, [int(x) for x in img[1:]])
                for _, _, det in iter_witness_determinants(f, o):
                    tally[abs(det)] += 1
        assert dict(tally) == res.histogram


class TestChunking:
    def test_chunked_results_match_unchunked(self, monkeypatch):
        # force tiny chunks and compare against the one-shot run
        from arbormat import harness

        base = run_theorem_sweep([4], OrientationPolicy("canonical"), workers=1)
        wit_base = run_witness_sweep([4], OrientationPolicy("canonical"))
        monkeypatch.setattr(harness, "CYCLE_CHUNK", 7)
        small = run_theorem_sweep([4], OrientationPolicy("canonical"), workers=1)
        assert small.per_n == base.per_n
        assert small.all_pass and base.all_pass
        assert small.total_instances == base.total_instances == 3 * 24

        wit_small = run_witness_sweep([4], OrientationPolicy("canonical"))
        assert wit_base.total_witnesses == wit_small.total_witnesses


class TestWitnessFallback:
    def test_exact_fallback_matches(self):
        # force the exact path by calling it directly on a valid instance
        from arbormat.harness import _exact_witness

        tree = Tree([(1, 2), (2, 3)])
        assert _exact_witness(tree, 0, np.array([0, 2, 3, 1]), 1, 1) == (True, 1)


def exact_split_sign_task(args) -> list[dict]:
    """Split-sign outcome of one (tree, orientations) task per orientation,
    every cycle on the exact route: the reference for the batched worker."""
    v, tree, orientations = args
    return [exact_split_sign(tree, Orientation.from_int(bits, v - 1)) for bits in orientations]


def exact_split_sign(tree, orientation) -> dict:
    """The split-sign sub-result of one orientation on the exact route."""
    from arbormat.errors import WitnessFailed
    from arbormat.theorems import ClaimStatus, split_sign_check

    v = tree.vertex_count
    counts = {"instances": 0, "applicable": 0, "with_additions": 0, "not_applicable": 0}
    failures, example_add, example_na = [], None, None
    for row in _fast.cycle_images(v):
        desc = {
            "tree": tree.edge_list_str(),
            "orientation": orientation.bitstring(),
            "map": ",".join(str(int(x)) for x in row[1:]),
        }
        counts["instances"] += 1
        try:
            reduction = split_sign_check(VertexMap(tree, [int(x) for x in row[1:]]), orientation)
        except WitnessFailed as exc:
            failures.append({**desc, "identity": exc.identity})
            continue
        if reduction.status is ClaimStatus.PASS:
            counts["applicable"] += 1
            if reduction.mixed_rows:
                counts["with_additions"] += 1
                example_add = example_add or desc
        else:
            counts["not_applicable"] += 1
            example_na = example_na or {**desc, "reason": reduction.reason}
    return {
        **counts,
        "failures": failures,
        "example_with_additions": example_add,
        "example_not_applicable": example_na,
    }


def split_sign_tasks(n):
    """The per-tree tasks of run_split_sign_sweep: every orientation."""
    v = n + 1
    return [(v, tree, tuple(range(1 << n))) for tree in trees_for(v)]


class TestSplitSignKernel:
    """The batched split-sign worker against the per-instance exact route."""

    @staticmethod
    def batched(task):
        """The sub-result of each orientation of the task, in its order; the
        worker's one sub-result is their fold."""
        from arbormat import harness

        sweep = harness._SPLIT_SIGN
        quotient = harness._OrientationQuotient(sweep, *task)
        for bits, claims in quotient.chunks():
            sweep.tally(quotient.out[bits], quotient, bits, claims)
        out = [quotient.out[bits] for bits in task[2]]
        sub = harness._sweep_worker(sweep, task)
        assert astuple(sub.pop("quotient")) == astuple(quotient.counts)
        assert sub == fold(sweep, out)
        return out

    def test_every_task_small_n(self):
        for n in (2, 3, 4):
            for task in split_sign_tasks(n):
                assert self.batched(task) == exact_split_sign_task(task), task

    def test_seeded_tasks_n5_n6(self):
        # seeded (tree, orientation) pairs, run as per-tree tasks
        rng = random.Random(2024)
        for n, count in ((5, 6), (6, 3)):
            tasks = split_sign_tasks(n)
            pairs = [(k, bits) for k, task in enumerate(tasks) for bits in task[2]]
            picked = {}
            for k, bits in rng.sample(pairs, count):
                picked.setdefault(k, []).append(bits)
            for k, orientations in sorted(picked.items()):
                task = tasks[k][:2] + (tuple(sorted(orientations)),)
                assert self.batched(task) == exact_split_sign_task(task), task

    @staticmethod
    def corruption(kind, only=None):
        """A task, an orientation (bitmask ``only`` when given) and one
        reduction under it that no audit picks, and an entry of its A to
        corrupt: "flip" negates an entry of a mixed row, so the row
        operations no longer rebuild A; "extend" gives a row without
        additions one more entry of its own sign, so A is rebuilt but
        |det B| != 1."""
        for task in split_sign_tasks(4) + split_sign_tasks(5):
            v, tree, orientations = task
            n = v - 1
            images = _fast.cycle_images(v)
            for bits in orientations if only is None else [only]:
                table = _fast.orient_table(_fast.signed_path_table(tree), bits, n)
                first, second = _fast.oriented_endpoint_arrays(tree, bits)
                a = _fast.build_oriented_batch(table, images, first, second)
                applicable, mixed, holds = (x[0] for x in _fast.batched_split_sign(
                    _fast.path_table(tree), table[None], images, first[None], second[None], a[None]
                ))
                passed = applicable & holds
                chosen = passed & (mixed if kind == "flip" else ~mixed)
                chosen[np.argmax(passed)] = False  # the audited one
                for target in np.nonzero(chosen)[0][::-1]:
                    m = a[target]
                    image = tuple(int(x) for x in images[target, 1:])
                    if kind == "flip":
                        row = int(np.nonzero((m > 0).any(1) & (m < 0).any(1))[0][0])
                        col = int(np.nonzero(m[row])[0][0])
                        return task, bits, image, row, col, -m[row, col]
                    for row, col in zip(*np.nonzero(m == 0)):
                        b = np.abs(m)
                        b[row, col] = 1
                        if round(abs(np.linalg.det(b))) != 1:
                            return task, bits, image, row, col, np.sign(m[row].sum())
        raise AssertionError(f"no {kind} corruption found")

    @pytest.mark.parametrize(
        "kind, identity",
        [
            ("flip", "row operations rebuild the oriented matrix"),
            ("extend", "unoriented determinant is +-1"),
        ],
    )
    def test_corrupted_entry_fails_with_exact_identity(self, monkeypatch, kind, identity):
        self.corrupted_entry_fails(monkeypatch, self.corruption(kind), identity)

    def test_corrupted_first_orientation_fails_only_there(self, monkeypatch):
        """|A| grows an entry under bitmask 0, the orientation the kernel
        takes det |A| from: that orientation alone fails, and every other
        one, whose |A| now differs from it, is decided on its own det."""
        (v, tree, orientations), *entry = self.corruption("extend", only=0)
        task = (v, tree, orientations[:4])  # bitmask 0 first, as in a sweep task
        self.corrupted_entry_fails(monkeypatch, (task, *entry), "unoriented determinant is +-1")

    def corrupted_entry_fails(self, monkeypatch, corruption, identity):
        """The batched worker fails the corrupted reduction alone, with the
        identity the exact route names, and agrees with the exact route."""
        from arbormat import dynamics, theorems

        task, bits, image, row, col, value = corruption
        v, tree, orientations = task
        n = v - 1
        target = _fast.oriented_endpoint_arrays(tree, bits)
        build = _fast.build_oriented_batch

        def corrupt_batch(table_o, imgs, fst, snd):
            out = build(table_o, imgs, fst, snd)
            if (fst == target[0]).all() and (snd == target[1]).all():
                out[(imgs[:, 1:] == image).all(axis=1), row, col] = value
            return out

        exact = theorems.oriented_matrix

        def corrupt_exact(f, o):
            tm = exact(f, o)
            if f.image != image or o != Orientation.from_int(bits, n):
                return tm
            rows = [list(r) for r in tm.oriented.rows]
            rows[row][col] = int(value)
            return dynamics.TransitionMatrices(ExactMatrix(ZZ, rows))

        monkeypatch.setattr(_fast, "build_oriented_batch", corrupt_batch)
        monkeypatch.setattr(theorems, "oriented_matrix", corrupt_exact)
        got = self.batched(task)
        assert [sub["failures"] for sub in got] == [
            [
                {
                    "tree": tree.edge_list_str(),
                    "orientation": "".join(str((bits >> k) & 1) for k in range(n)),
                    "map": ",".join(map(str, image)),
                    "identity": identity,
                }
            ] if b == bits else []
            for b in orientations
        ]
        assert got == exact_split_sign_task(task)

    def test_disagreement_is_a_failure(self, monkeypatch):
        from arbormat.harness import SPLIT_SIGN_AGREEMENT

        task, bits = split_sign_tasks(4)[0], 9
        kernel = _fast.batched_split_sign
        flipped = []

        def wrong(*args):
            applicable, mixed, holds = kernel(*args)
            flipped.append(np.nonzero(applicable[bits])[0][-1])
            holds = holds.copy()
            holds[bits, flipped[-1]] = False
            return applicable, mixed, holds

        monkeypatch.setattr(_fast, "batched_split_sign", wrong)
        others = [sub["failures"] for sub in self.batched(task)]
        failures = others.pop(bits)
        assert [f["identity"] for f in failures] == [SPLIT_SIGN_AGREEMENT]
        assert not any(others)
        want = _fast.cycle_images(5)[flipped[0], 1:]
        assert failures[0]["map"] == ",".join(map(str, want))


class TestRootVectors:
    def test_signed_path_table_certificate(self):
        rng = random.Random(3)
        for v in range(3, 10):
            n = v - 1
            for tree in trees_for(v):
                base = _fast.signed_path_table(tree)
                assert not base[0].any() and not base[:, 0].any()
                for bits in {0, (1 << n) - 1, rng.randrange(1 << n), rng.randrange(1 << n)}:
                    table = _fast.orient_table(base, bits, n)
                    o = Orientation.from_int(bits, n)
                    for u in range(1, v + 1):
                        for w in range(1, v + 1):
                            want = tree.signed_path_vector(o, u, w)
                            assert tuple(int(x) for x in table[u, w]) == want

    def test_root_transport_matches_exact_route(self):
        from arbormat import path_image_check
        from arbormat.harness import _random_draw, _random_instance

        draws = [_random_draw(17, idx, 2, 9) for idx in range(300)]
        instances = [_random_instance(*draw) for draw in draws]
        assert {f.tree.edge_count for f, _ in instances} == set(range(2, 10))
        got = _fast.drawn_path_image_ok(draws)
        assert got.all()
        assert got.tolist() == [path_image_check(f, o) for f, o in instances]

    @pytest.mark.parametrize("seed", [0, 5, 17])
    def test_decoded_instances_match_trees(self, seed):
        """Codes decoded in lockstep give each instance's Tree: its edges in
        order, oriented endpoints, oriented root vectors and images."""
        from arbormat.harness import _random_draw, _random_instance

        for n in range(2, _fast._BATCH_N_CAP + 1):
            draws = [_random_draw(seed, idx, n, n) for idx in range(40)]
            codes, cycles, bits = (np.array(x) for x in zip(*draws))
            edges, roots, first, second, images = _fast.decode_instances(codes, cycles, bits)
            for k, draw in enumerate(draws):
                f, o = _random_instance(*draw)
                assert edges[k].tolist() == [list(e) for e in f.tree.edges]
                want = _fast.oriented_endpoint_arrays(f.tree, bits[k])
                assert first[k].tolist() == want[0].tolist()
                assert second[k].tolist() == want[1].tolist()
                want = _fast.root_vectors(f.tree) * np.array(o.sign_vector())
                assert roots[k].tolist() == want.tolist()
                assert images[k].tolist() == [0, *f.image]

    def test_corrupted_matrix_rejected_every_n(self):
        from arbormat.dynamics import _path_image_check_matrix

        rng = np.random.default_rng(8)
        for n in range(2, 10):
            for f, o in random_instances(n, 5, n, n):
                tm = oriented_matrix(f, o)
                roots = (_fast.root_vectors(f.tree) * np.array(o.sign_vector()))[None]
                images = np.array([(0,) + f.image])
                mats = np.array([tm.oriented.rows], dtype=np.int64)
                assert _fast.batched_path_image_ok(roots, images, mats).all()
                i, j = rng.integers(0, n, 2)
                mats[0, i, j] = rng.choice([x for x in (-1, 0, 1) if x != mats[0, i, j]])
                assert not _fast.batched_path_image_ok(roots, images, mats).any()
                assert not _path_image_check_matrix(f, o, ExactMatrix(ZZ, mats[0].tolist()))


def per_row(roots, b):
    """The root vectors ``roots`` (v+1, n) of one oriented tree, as the
    per-row roots (b, v+1, n) of a b-row batch under that tree."""
    return np.broadcast_to(roots, (b,) + roots.shape)


def transport_batches(n, count, seed):
    """Valid path-transport inputs (roots, images, int8 A) of ``count``
    random instances with n edges, in two layouts: every map under the
    first instance's oriented tree, and each under its own."""
    instances = list(random_instances(seed, count, n, n))
    images = np.array([(0,) + f.image for f, _ in instances], dtype=np.int64)

    def oriented(f, o):
        bits = sum(1 << k for k, flag in enumerate(o.bits) if flag)
        return _fast.orient_table(_fast.signed_path_table(f.tree), bits, n), bits

    table, bits = oriented(*instances[0])
    ends = _fast.oriented_endpoint_arrays(instances[0][0].tree, bits)
    shared = per_row(table[1], count), images, _fast.build_oriented_batch(table, images, *ends)
    roots, mats = [], []
    for k, (f, o) in enumerate(instances):
        table, bits = oriented(f, o)
        ends = _fast.oriented_endpoint_arrays(f.tree, bits)
        roots.append(table[1])
        mats.append(_fast.build_oriented_batch(table, images[k : k + 1], *ends)[0])
    return shared, (np.stack(roots), images, np.stack(mats))


def transport_variants(mats, rng) -> dict:
    """A valid int8 batch and its corruptions, one entry or row pair per
    matrix: another value in {-1, 0, 1}; +-2 and -128; and an aliasing
    change, +(2n+1) at column k and -1 at column k+1 of one row, which
    leaves the row's digit code A.z unchanged."""
    b, n, _ = mats.shape
    rows, i, j = np.arange(b), rng.integers(0, n, b), rng.integers(0, n, b)
    out = {"valid": mats}
    other = mats.copy()
    other[rows, i, j] = (mats[rows, i, j] + 2) % 3 - 1
    out["other value"] = other
    for value in (2, -2, -128):
        bad = mats.copy()
        bad[rows, i, j] = value
        out[f"entry {value}"] = bad
    k = rng.integers(0, n - 1, b)
    alias = mats.copy()
    alias[rows, i, k] += 2 * n + 1
    alias[rows, i, k + 1] -= 1
    out["aliasing"] = alias
    return out


class TestTransportDigitCode:
    """The digit-coded transport kernel against the per-vertex int64
    formulation it replaced."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_per_vertex_oracle(self, n):
        from oracles import transport_per_vertex

        rng = np.random.default_rng(n)
        z = (2 * n + 1) ** np.arange(n, dtype=np.int64)
        for roots, images, mats in transport_batches(n, 12, 300 + n):
            assert mats.dtype == np.int8
            for name, batch in transport_variants(mats, rng).items():
                got = _fast.batched_path_image_ok(roots, images, batch)
                assert got.tolist() == transport_per_vertex(roots, images, batch).tolist(), name
                assert got.all() if name == "valid" else not got.any(), name
                if name == "aliasing":  # only the entry check can reject it
                    assert (batch.astype(np.int64) @ z == mats.astype(np.int64) @ z).all()

    def test_int8_minus_128_is_rejected(self):
        # np.abs(-128) is -128 in int8, so an abs-based guard would pass it
        (roots, images, mats), _ = transport_batches(4, 3, 5)
        mats = mats.copy()
        mats[1, 2, 3] = -128
        assert np.abs(mats).max() <= 1
        with pytest.raises(ValueError):
            _fast.batched_charpoly(mats)
        assert _fast.batched_path_image_ok(roots, images, mats).tolist() == [True, False, True]
        assert not _fast.batched_petrie(mats)[1]


class TestCycleChunks:
    def test_workers_ignore_chunk_size(self, monkeypatch):
        from arbormat import harness

        # orientation 5 is derived from 0 through the quotient in every
        # chunk; the one-orientation tasks compare each orientation
        trees = trees_for(5)
        tasks = [(5, tree, bits) for bits in ((0, 5), (0,), (5,)) for tree in trees]
        sweeps = {
            "theorem": tasks,
            "witness": tasks,
            "det_search": tasks,
            "path_image": tasks,
            "path_graph": [(5, tree, (0,)) for tree in trees],
            "split_sign": tasks,  # every orientation decided directly
        }
        def run(name, ts):
            # the transport split depends on the chunk size: chunks of at
            # most AUDIT_ROWS rows are audited whole
            sweep = getattr(harness, f"_{name.upper()}")
            subs = decided_now(lambda: [harness._sweep_worker(sweep, t) for t in ts])
            assert all(isinstance(sub, dict) for sub in subs)
            for sub in subs:
                q = sub.pop("quotient")
                sub["orientation_quotient"] = (q.computed, q.derived, q.fallbacks)
            return subs

        base = {name: run(name, ts) for name, ts in sweeps.items()}
        monkeypatch.setattr(harness, "CYCLE_CHUNK", 7)  # 24 cycles -> 4 chunks
        for name, ts in sweeps.items():
            assert run(name, ts) == base[name], name


    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_sweep_reads_the_cycle_table(self, monkeypatch, workers):
        """Every sweep unranks the rows it builds and never reads the table
        of all n! cycles."""

        def no_table(v):
            raise AssertionError(f"the table of every {v}-cycle was read")

        monkeypatch.setattr(_fast, "cycle_images", no_table)
        policy, ns = OrientationPolicy("all"), [2, 3, 4]
        with no_hang():
            assert run_theorem_sweep(ns, policy, workers=workers).all_pass
            assert run_witness_sweep(ns, policy, workers=workers).all_pass
            assert run_det_search(ns, policy, workers=workers).all_unit
            assert run_path_image_sweep(ns, random_count=20, workers=workers).all_pass
            assert run_path_graph_sweep(ns, workers=workers).all_pass
            assert run_split_sign_sweep(ns, workers=workers).all_pass


class TestExactRouteBudget:
    """The batched sweeps call the exact route only for audits and failures."""

    def test_split_sign_audit_only(self, monkeypatch):
        from arbormat import harness

        calls = []
        real = harness.split_sign_check
        monkeypatch.setattr(
            harness, "split_sign_check", lambda f, o: calls.append(f) or real(f, o)
        )
        res = run_split_sign_sweep([2, 3, 4])
        # one or two audits per (tree, orientation)
        pairs = sum(len(task[2]) for n in (2, 3, 4) for task in split_sign_tasks(n))
        assert res.all_pass and res.instances == 1256
        assert pairs <= len(calls) <= 2 * pairs

    def test_certified_trees_share_one_audit_set(self, monkeypatch):
        """A serial n = 7 theorem sweep of 23 certified trees unranks its
        audit set once, builds no Tree inside a task, and takes the
        certificate's 27 exact determinants without a charpoly."""
        from arbormat import algebra, certificate, harness, trees

        for cached in (certificate.audit_cycles, certificate.exact_table,
                       certificate.root_det, certificate.step_det):
            cached.cache_clear()
        trees_for(8)  # planning builds the trees, outside any task
        unranked, built, calls, inside = [], [], [], []
        real = _fast.unrank_cycles, trees.Tree.__init__, harness._sweep_worker
        monkeypatch.setattr(_fast, "unrank_cycles", lambda v, r: unranked.append(v) or real[0](v, r))
        monkeypatch.setattr(trees.Tree, "__init__", lambda t, e: built.append(inside[:]) or real[1](t, e))
        def counted(name, method):
            return lambda m: calls.append(name) or method(m)

        for name in ("charpoly", "determinant"):
            monkeypatch.setattr(algebra.ExactMatrix, name,
                                counted(name, getattr(algebra.ExactMatrix, name)))

        def worker(sweep, task):
            inside.append(task)
            try:
                return real[2](sweep, task)
            finally:
                inside.pop()

        monkeypatch.setattr(harness, "_sweep_worker", worker)
        res = run_theorem_sweep([7], OrientationPolicy("canonical"))
        assert res.all_pass and res.total_instances == 23 * 5040
        assert unranked == [8] and not any(built)
        assert calls == ["determinant"] * 27  # 23 trees and 4 steps

    def test_cached_audit_arrays_are_read_only(self):
        from arbormat.certificate import audit_cycles

        for x in (audit_rows(5040), *audit_cycles(8, 0, 5040)):
            with pytest.raises(ValueError):
                x[0] = 0

    def test_path_image_audit_only(self, monkeypatch):
        from arbormat import harness

        calls = []
        real = harness.path_image_check
        monkeypatch.setattr(
            harness, "path_image_check", lambda f, o: calls.append(f) or real(f, o)
        )
        res = run_path_image_sweep([2], random_count=200, seed=4)
        assert res.all_pass and res.random_instances == 200
        assert len(calls) == harness.PATH_IMAGE_AUDIT

    def test_path_image_audit_disagreement_is_a_failure(self, monkeypatch):
        from arbormat import harness

        audited = list(random_instances(4, 200, 6, 9))[5][0]
        real = harness.path_image_check
        monkeypatch.setattr(
            harness, "path_image_check", lambda f, o: f != audited and real(f, o)
        )
        res = run_path_image_sweep([2], random_count=200, seed=4)
        assert not res.all_pass
        assert [f["map"] for f in res.failures] == [audited.image_str()]


def corrupt_table(monkeypatch, tree, bits):
    """Flip one entry (x, y >= 2) of the oriented signed path table of
    ``tree`` under the orientation bitmask ``bits``: the table then fails
    the certificate and the similarity with every other orientation, and
    the matrices that gather that entry fail path transport.  ``b`` may be
    one bitmask or an array of them, whose tables are stacked."""
    orient = _fast.orient_table
    canonical = _fast.signed_path_table(tree)
    k = int(np.nonzero(canonical[2, 3])[0][0])

    def corrupt(table, b, n):
        out = orient(table, b, n)
        if table.shape == canonical.shape and (table == canonical).all():
            out.reshape(-1, *canonical.shape)[np.atleast_1d(b) == bits, 2, 3, k] *= -1
        return out

    monkeypatch.setattr(_fast, "orient_table", corrupt)


def fold(sweep, subs):
    """The sub-results folded in order into the empty one of ``sweep``."""
    from arbormat import harness

    into = copy.deepcopy(sweep.empty)
    for sub in subs:
        harness._fold(into, sub)
    return into


def decided_now(fn, *args):
    """``fn(*args)`` with the direct rows it queued decided: what a sweep
    worker or a claims function returns is complete once QUEUE flushes."""
    out = fn(*args)
    QUEUE.flush()
    return out


def rows_of(o, b):
    """The oriented tree ``o`` for each row of a b-row batch, as the direct
    claims functions take it."""
    return OrientedRows((o,), o.table[None], np.zeros(b, dtype=np.int64))


def one_orientation_per_task(monkeypatch):
    """Route every quotiented sweep through the brute-force reference: the
    same workers, each task handed a single orientation."""
    from arbormat import harness

    real = harness._run_tasks

    def split(worker, tasks, workers):
        return real(worker, [t[:2] + ((bits,),) for t in tasks for bits in t[2]], workers)

    monkeypatch.setattr(harness, "_run_tasks", split)


def marked(mats):
    """An injected failure pattern that depends on |M| only, so it is the
    same for every orientation: reversing edges negates rows and columns."""
    return np.abs(mats).sum(axis=tuple(range(1, mats.ndim))) % 3 == 0


def marked_images(images):
    """An injected failure pattern on the image rows (B, v+1) of cycles:
    sum of u.f(u) divisible by 3.  It does not depend on the orientation,
    or on where a row sits in its batch."""
    return (images * np.arange(images.shape[1])).sum(axis=1) % 3 == 0


def refuse_certificate(monkeypatch):
    """Fail the certificate of every (tree, orientation), so every row of
    the theorem, witness, determinant and path-graph claims is built and
    decided by the direct kernels."""
    from arbormat import certificate

    monkeypatch.setattr(certificate, "certified", lambda o: False)


def inject_failures(monkeypatch, sweep):
    """Fail the marked instances of `sweep`, so failure records, witness
    determinant signs and non-unit histogram entries occur.  Every tree's
    certificate is refused, which sends every row to the direct kernels,
    and kernels of `sweep` fail the marked rows there: path transport (the
    theorem sweep, and the path-transport sweep by image row, so its random
    stream fails the same instances however they are built), the geometric
    sum (theorem), the witness kernel (witness and determinant sweeps) and
    the uniform-sign kernel (path graphs)."""
    refuse_certificate(monkeypatch)
    if sweep in ("theorem", "path_image"):
        transport = _fast.batched_path_image_ok

        def path_image_ok(roots, images, mats):
            bad = marked(mats) if sweep == "theorem" else marked_images(images)
            return transport(roots, images, mats) & ~bad

        monkeypatch.setattr(_fast, "batched_path_image_ok", path_image_ok)
    if sweep == "theorem":
        real = _fast.batched_geometric_sum_zero
        monkeypatch.setattr(
            _fast, "batched_geometric_sum_zero", lambda a, cp: real(a, cp) & ~marked(a)
        )
    elif sweep in ("witness", "det"):
        real = _fast.batched_witness

        def witness(a, seeds):
            # keyed on |A| alone: a marked row fails at every start vertex
            gate, det, companion_ok, mf = real(a, seeds)
            hit = marked(a)[:, None, None]  # outputs are (rows, steps, starts)
            if sweep == "det":
                return gate, det * np.where(hit, 3, 1), companion_ok, mf
            return gate, det, companion_ok & ~hit, mf

        monkeypatch.setattr(_fast, "batched_witness", witness)
    elif sweep == "path_graph":
        real = _fast.batched_uniform_sign
        monkeypatch.setattr(_fast, "batched_uniform_sign", lambda a: real(a) & ~marked(a))


def quotiented_sweep(sweep, policy, counts):
    ns = [2, 3, 4, 5]
    if sweep == "theorem":
        return run_theorem_sweep(ns, policy, seed=11, counts=counts)
    if sweep == "witness":
        return run_witness_sweep(ns, policy, seed=11, counts=counts)
    if sweep == "det":
        return run_det_search(ns, policy, seed=11, counts=counts)
    return run_path_image_sweep(ns, counts=counts)  # exhaustive: every orientation


class TestOrientationQuotient:
    """Claims computed once per tree and carried to every orientation by the
    certificate A_o == D.A_0.D equal the brute-force route."""

    @pytest.mark.parametrize(
        "sweep, policy",
        [(s, "all") for s in ("theorem", "witness", "det", "path_image")]
        + [(s, "sample:4") for s in ("theorem", "witness", "det")],
    )
    @pytest.mark.parametrize("injected", [False, True])
    def test_equals_one_orientation_per_task(self, monkeypatch, sweep, policy, injected):
        from arbormat import harness
        from arbormat.harness import QuotientCounts

        policy = OrientationPolicy.parse(policy)
        if policy.mode == "sample":  # seed 11 samples 0 again and repeats
            tuples = [t[2] for t in harness._tree_tasks([2, 3, 4, 5], policy, 11)]
            assert any(0 in t[1:] for t in tuples)
            assert any(len(set(t)) < len(t) for t in tuples)
        if injected:
            inject_failures(monkeypatch, sweep)
            # record every failure, so the whole record order is compared
            monkeypatch.setattr(harness, "MAX_FAILURE_RECORDS", 10**6)
        counts = QuotientCounts()
        quotient = quotiented_sweep(sweep, policy, counts)
        with monkeypatch.context() as m:
            one_orientation_per_task(m)
            brute_counts = QuotientCounts()
            brute = quotiented_sweep(sweep, policy, brute_counts)
        assert quotient == brute
        total = brute_counts.computed
        assert (brute_counts.derived, brute_counts.fallbacks) == (0, 0)
        assert counts.computed + counts.derived == total
        assert counts.derived > counts.computed > 0 and counts.fallbacks == 0
        assert counts.audited > 0 and counts.disagreements == 0
        assert counts.certified + counts.audited + counts.uncertified == counts.computed
        # injected failures refuse every certificate
        assert (counts.certified > counts.audited) != injected
        assert (counts.uncertified > 0) == injected
        failures = quotient.nonunit_witnesses if sweep == "det" else quotient.failures
        if not injected:
            assert not failures
            return
        orientations = {f["orientation"] for f in failures}
        assert len(failures) > 20 and len(orientations) > 4
        if sweep == "witness":
            assert {int(f["det"]) for f in failures} >= {1, -1}
        if sweep == "det":
            assert set(quotient.histogram) == {1, 3}

    def test_sampled_duplicates_are_repeated(self):
        from arbormat import harness

        tree = trees_for(5)[1]
        sub = decided_now(harness._sweep_worker, harness._THEOREM, (5, tree, (0, 6, 0, 6, 9)))
        # 24 cycles: 16 audited, 8 certified, on the representative only;
        # the four entries after it are derived
        assert astuple(sub.pop("quotient")) == (24, 4 * 24, 0, 8, 16, 0, 0)
        assert sub["per_n"] == {4: {"instances": 5 * 24, "failures": 0}}
        one = decided_now(harness._sweep_worker, harness._THEOREM, (5, tree, (0,)))
        del one["quotient"]
        assert sub == fold(harness._THEOREM, [one] * 5)

    @pytest.mark.parametrize("worker", ["theorem", "witness", "det_search", "path_image"])
    def test_corrupted_row_is_recomputed(self, monkeypatch, worker):
        """An entry flipped in the table of a non-canonical orientation fails
        table_o == table_r.D: every row of that orientation is recomputed
        and counted as a fallback, and, its table failing the certificate
        too, decided on the direct route."""
        from arbormat import harness

        sweep = getattr(harness, f"_{worker.upper()}")
        fn = partial(decided_now, harness._sweep_worker, sweep)
        tree = trees_for(5)[2]
        corrupt_table(monkeypatch, tree, 5)
        quotient = fn((5, tree, (0, 5)))
        brute = [fn((5, tree, (bits,))) for bits in (0, 5)]
        # 24 cycles each: 16 audited, and 8 certified or uncertified
        assert [astuple(s.pop("quotient")) for s in brute] == [
            (24, 0, 0, 8, 16, 0, 0), (24, 0, 0, 0, 16, 8, 0)
        ]
        # both computed, the second as a fallback
        assert astuple(quotient.pop("quotient")) == (48, 0, 24, 8, 32, 8, 0)
        assert quotient == fold(sweep, brute)
        if worker in ("theorem", "path_image"):
            clean, flipped = brute
            assert not clean["failures"] and flipped["failures"]
            # the matrices that gather the flipped entry fail path transport
            assert {f["orientation"] for f in flipped["failures"]} == {"1010"}
        if worker == "theorem":
            assert clean["per_n"][4]["failures"] == 0
            assert all("path_image_identity" in f["claims"] for f in flipped["failures"])

    @pytest.mark.parametrize("pieces", [1, 12])
    @pytest.mark.parametrize("sweep", ["theorem", "witness"])
    def test_representative_with_a_record_is_tallied_per_orientation(
        self, monkeypatch, sweep, pieces
    ):
        """One row fails a kernel, keyed on |A| so that it fails under every
        orientation: an audit row of a certified tree, decided in one piece,
        or, with the certificate refused, a row of the second of 12 pieces.
        The representative's sub-result then holds a record, so every
        carried orientation takes it relabeled: a record each, with its own
        bitstring (and, for witnesses, its own det sign), in (tree,
        orientation) order, and the document of the one-orientation tasks."""
        from arbormat import harness
        from arbormat.harness import _Oriented

        if pieces > 1:
            refuse_certificate(monkeypatch)
            monkeypatch.setattr(harness, "CYCLE_CHUNK", 24 // pieces)

        tree = trees_for(5)[1]
        # rank 3 is in the audit set of the 24 cycles
        bad = np.abs(_Oriented.of(tree, 0).build(_fast.unrank_cycles(5, np.array([3]))[0]))

        def hit(a):
            return (np.abs(a) == bad).all(axis=(1, 2))

        if sweep == "theorem":
            real = _fast.batched_geometric_sum_zero
            monkeypatch.setattr(
                _fast, "batched_geometric_sum_zero", lambda a, cp: real(a, cp) & ~hit(a)
            )
            run = run_theorem_sweep
        else:
            real = _fast.batched_witness

            def witness(a, seeds):
                gate, det, companion_ok, mf = real(a, seeds)
                return gate, det, companion_ok & ~hit(a)[:, None, None], mf

            monkeypatch.setattr(_fast, "batched_witness", witness)
            run = run_witness_sweep
        monkeypatch.setattr(harness, "MAX_FAILURE_RECORDS", 10**6)
        got = run([4], OrientationPolicy("all"))
        with monkeypatch.context() as m:
            one_orientation_per_task(m)
            want = run([4], OrientationPolicy("all"))
        assert got == want
        records = [f for f in got.failures if f["tree"] == tree.edge_list_str()]
        bitstrings = [Orientation.from_int(bits, 4).bitstring() for bits in range(16)]
        seen = [f["orientation"] for f in records]
        assert list(dict.fromkeys(seen)) == bitstrings
        assert sorted(seen, key=bitstrings.index) == seen
        if sweep == "witness":
            assert {int(f["det"]) for f in records} == {1, -1}

    def test_corrupted_orientation_in_the_stack_is_computed_on_its_own(self, monkeypatch):
        """Orientation 5's table, corrupted in the stack of all 16, fails the
        stacked similarity check: it is computed on its own and counted as a
        fallback, and the other 14 are carried."""
        from arbormat import harness

        tree = trees_for(5)[2]
        corrupt_table(monkeypatch, tree, 5)
        sub = decided_now(harness._sweep_worker, harness._THEOREM, (5, tree, tuple(range(16))))
        assert astuple(sub["quotient"]) == (48, 14 * 24, 24, 8, 32, 8, 0)
        assert sub["failures"] and {f["orientation"] for f in sub["failures"]} == {"1010"}
        got = run_theorem_sweep([4], OrientationPolicy("all"))
        with monkeypatch.context() as m:
            one_orientation_per_task(m)
            assert got == run_theorem_sweep([4], OrientationPolicy("all"))

    def test_one_tally_per_tree_and_orientation(self, monkeypatch):
        """A certified representative is decided in one piece, and carried
        orientations are never tallied: no (tree, orientation) of
        `verify --n 8` is tallied twice."""
        from arbormat import harness

        calls = []
        real = harness._THEOREM.tally

        def tally(res, quotient, bits, claims):
            calls.append((quotient.tree.edges, bits))
            real(res, quotient, bits, claims)

        monkeypatch.setattr(harness, "_THEOREM", harness._THEOREM._replace(tally=tally))
        res = run_theorem_sweep([8], OrientationPolicy("all"))
        assert res.all_pass and res.total_instances == 47 * 256 * math.factorial(8)
        assert calls and len(set(calls)) == len(calls)

    def test_one_sub_result_per_task(self, monkeypatch):
        """The fold of run_theorem_sweep([4], all) is handed one sub-result
        per tree, its orientations already folded, in task order."""
        from arbormat import harness

        real, handed = harness._run_tasks, []
        monkeypatch.setattr(harness, "_run_tasks", lambda *args: handed.append(real(*args)) or handed[-1])
        res = run_theorem_sweep([4], OrientationPolicy("all"))
        assert res.all_pass and res.total_instances == 3 * 16 * 24
        (subs,) = handed
        assert len(subs) == len(trees_for(5)) == 3
        # per tree: 24 cycles of the representative computed, 16 audited
        # and 8 certified, and the other 15 orientations derived
        assert [astuple(sub["quotient"]) for sub in subs] == [(24, 15 * 24, 0, 8, 16, 0, 0)] * 3
        assert [sub["per_n"] for sub in subs] == [{4: {"instances": 16 * 24, "failures": 0}}] * 3

    def test_pool_never_exceeds_tasks(self, monkeypatch):
        from arbormat import harness

        sizes, real = [], harness._fork_join
        monkeypatch.setattr(
            harness, "_fork_join", lambda w, tasks, p: sizes.append(p) or real(w, tasks, p)
        )
        res = run_theorem_sweep([3], OrientationPolicy("all"), workers=8)
        assert res.all_pass and res.total_instances == 96
        assert sizes == [2]  # one task per tree
        run_theorem_sweep([3, 4], OrientationPolicy("all"), workers=2)
        assert sizes == [2, 2]


FOLD_EMPTY = {"count": 0, "histogram": {}, "per_n": {}, "failures": [],
              "example_a": None, "example_b": None}
fold_records = st.lists(st.fixed_dictionaries({"map": st.sampled_from("abcdefgh")}), max_size=25)
fold_subs = st.fixed_dictionaries({}, optional={
    "count": st.integers(0, 9),
    "histogram": st.dictionaries(st.integers(1, 4), st.integers(0, 9), max_size=3),
    "per_n": st.dictionaries(st.integers(2, 4), st.fixed_dictionaries(
        {}, optional={"instances": st.integers(0, 9), "failures": st.integers(0, 2)}), max_size=2),
    "failures": fold_records,
    "example_a": st.none() | st.fixed_dictionaries({"map": st.sampled_from("xyz")}),
    "example_b": st.none() | st.fixed_dictionaries({"map": st.sampled_from("xyz")}),
})


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(fold_subs, st.integers(1, 3)), max_size=8), st.lists(st.booleans()))
def test_fold_splits_into_partials(subs, cuts):
    """Folding sub-results, each ``times`` times, in one pass equals folding
    them one copy at a time, and equals folding consecutive groups into
    partials and then the partials: what a worker folding its task's
    orientations and the parent folding the tasks compute.  Key order,
    which the documents keep, is compared too (through repr)."""
    from arbormat import harness

    def folded(pairs):
        into = copy.deepcopy(FOLD_EMPTY)
        for sub, times in pairs:
            harness._fold(into, copy.deepcopy(sub), times)
        return into

    one_pass = folded(subs)
    assert repr(folded([(sub, 1) for sub, times in subs for _ in range(times)])) == repr(one_pass)
    groups, group = [], []
    for pair, cut in zip(subs, cuts + [False] * len(subs)):
        group.append(pair)
        if cut:
            groups.append(group)
            group = []
    partials = [(folded(g), 1) for g in groups + [group]]
    assert repr(folded(partials)) == repr(one_pass)
    assert len(one_pass["failures"]) <= harness.MAX_FAILURE_RECORDS


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator only")
def test_pool_workers_reuse_their_heap():
    """Forked workers keep chunk temporaries in the heap: with glibc's
    adaptive thresholds this sweep's two workers take about 29k minor page
    faults, about 6.5k without them."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    res = run_theorem_sweep([7], OrientationPolicy("canonical"), workers=2)
    assert res.all_pass
    assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before < 15_000


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator only")
def test_serial_sweep_reuses_its_heap():
    """A serial sweep sets the same thresholds in the calling process: about
    25k minor page faults with glibc's adaptive ones, about 2k without."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    res = run_theorem_sweep([7], OrientationPolicy("canonical"), workers=1)
    assert res.all_pass
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 15_000


def test_split_sign_task_transients_stay_small():
    """The (orientations, cycles, n, n) temporaries of the split-sign kernel
    are int8: an n = 5 task, all 32 orientations of 120 cycles, peaks at
    about 2 MB under tracemalloc (6.4 MB with int64 ones)."""
    import tracemalloc

    from arbormat import harness

    task = harness._tree_tasks([5], OrientationPolicy("all"), 0)[0]
    worker = partial(harness._sweep_worker, harness._SPLIT_SIGN)
    harness._run_tasks(worker, [task], 1)  # warm the per-tree caches
    tracemalloc.start()
    try:
        (res,) = harness._run_tasks(worker, [task], 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res["instances"] == 32 * 120
    assert peak < 3 << 20, peak


@contextlib.contextmanager
def no_hang(seconds=60):
    """Fail with TimeoutError instead of hanging past ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_all_reaped():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def keyed(task):
    return {"task": task, "pid": os.getpid()}


class TestForkJoin:
    """Sweep tasks on two forked children: results, failures and clean-up."""

    def test_sweep_reaps_its_children(self):
        with no_hang():
            two = run_theorem_sweep([2, 3, 4], OrientationPolicy("all"), workers=2)
        assert two == run_theorem_sweep([2, 3, 4], OrientationPolicy("all"))
        assert_all_reaped()

    def test_path_image_sweep_forks_once(self, monkeypatch):
        """The exhaustive trees and the random chunks share one fork-join."""
        from arbormat import harness

        sizes = []
        real = harness._fork_join
        monkeypatch.setattr(
            harness, "_fork_join", lambda w, tasks, p: sizes.append(len(tasks)) or real(w, tasks, p)
        )
        with no_hang():
            two = run_path_image_sweep([2, 3], random_count=300, seed=5, workers=2)
        assert sizes == [3 + 3]  # 1 + 2 trees, 3 chunks of at most 128 instances
        assert two == run_path_image_sweep([2, 3], random_count=300, seed=5)
        assert two.exhaustive_instances == 104 and two.random_instances == 300
        assert_all_reaped()

    def test_more_tasks_than_the_queue_holds(self):
        """80,000 bytes of task indices outgrow a 64 KiB pipe."""
        from arbormat import harness

        tasks = list(range(20_000))
        with no_hang():
            results = harness._run_tasks(keyed, tasks, 2)
        assert [r["task"] for r in results] == tasks
        assert_all_reaped()

    def test_each_task_is_taken_once(self, tmp_path):
        """Four processes, more than the cores, read the shared task file:
        each index is run exactly once, whichever process read it."""
        from arbormat import harness

        log = tmp_path / "taken"
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

        def take(task):
            os.write(fd, task.to_bytes(4, "little"))
            return keyed(task)

        tasks = list(range(20_000))
        try:
            with no_hang():
                results = harness._run_tasks(take, tasks, 4)
        finally:
            os.close(fd)
        assert sorted(np.frombuffer(log.read_bytes(), dtype="<u4").tolist()) == tasks
        assert [r["task"] for r in results] == tasks
        assert_all_reaped()

    def test_one_worker_forks_nothing(self, monkeypatch):
        from arbormat import harness

        def fork():
            raise AssertionError("forked with one worker")

        monkeypatch.setattr(os, "fork", fork)
        results = harness._run_tasks(keyed, list(range(5)), 1)
        assert results == [{"task": t, "pid": os.getpid()} for t in range(5)]

    def test_a_busy_child_leaves_the_next_task_to_the_other(self, monkeypatch):
        """Two workers are the parent and one forked child; with both busy,
        each takes a task."""
        from arbormat import harness

        forks, real = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real())

        def nap(task):
            time.sleep(0.5)
            return keyed(task)

        with no_hang():
            results = harness._run_tasks(nap, [0, 1], 2)
        assert len(forks) == 1
        pids = {r["pid"] for r in results}
        assert len(pids) == 2 and os.getpid() in pids
        assert_all_reaped()

    def test_task_exception_is_raised_in_the_parent(self):
        from arbormat import harness

        def fail(task):
            if task in (5, 7):
                raise WitnessFailed(f"identity {task}")
            return keyed(task)

        with no_hang(), pytest.raises(WitnessFailed, match="^identity 5$") as exc:
            harness._run_tasks(fail, list(range(12)), 2)
        assert exc.value.identity == "identity 5"
        assert "in a sweep worker" in str(exc.value.__cause__)
        assert_all_reaped()

    @pytest.mark.parametrize("killed", [range(3, 20_000), range(20_000)])
    def test_killed_child_raises_instead_of_hanging(self, killed):
        """The child kills itself at its first task in ``killed``, after
        some tasks or at its first, while the parent, slowed at its own
        first task, runs the rest."""
        from arbormat import harness

        parent, napped = os.getpid(), []

        def die(task):
            if os.getpid() != parent and task in killed:
                os.kill(os.getpid(), signal.SIGKILL)
            if os.getpid() == parent and not napped:
                napped.append(task)
                time.sleep(0.5)
            return keyed(task)

        with no_hang(), pytest.raises(RuntimeError, match="without a result .exit code -9."):
            harness._run_tasks(die, list(range(20_000)), 2)
        assert_all_reaped()

    def test_parent_exception_kills_the_children(self):
        """The parent's timeout fires while it waits for a stalled child."""
        from arbormat import harness

        parent = os.getpid()

        def stall(task):
            time.sleep(0.5 if os.getpid() == parent else 60)
            return keyed(task)

        started = time.monotonic()
        with pytest.raises(TimeoutError), no_hang(1):
            harness._run_tasks(stall, [0, 1], 2)
        assert time.monotonic() - started < 30
        assert_all_reaped()

    def test_no_multiprocessing_pool_imported(self, tmp_path):
        import arbormat

        out = str(tmp_path / "verify.json")
        code = (
            "import sys\n"
            "from arbormat import cli\n"
            "args = ['verify', '--n', '3', '--orientations', 'sample:2', '--workers', '2']\n"
            f"status = cli.main(args + ['--out', {out!r}])\n"
            "print(status, 'multiprocessing.pool' in sys.modules, 'hashlib' in sys.modules)\n"
        )
        path = [str(Path(arbormat.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        )
        assert proc.stdout.split() == ["0", "False", "False"], proc.stderr


class TestAuditQueue:
    """Direct rows queued per worker and decided in batches: documents and
    counts do not depend on the worker count, and failures keep their type."""

    @pytest.mark.parametrize("policy, ns", [("all", [2, 3, 4, 5]), ("sample:16", [2, 3, 4, 5, 6])])
    @pytest.mark.parametrize("corrupted", [False, True])
    def test_workers_agree(self, monkeypatch, policy, ns, corrupted):
        from arbormat.harness import QuotientCounts

        policy = OrientationPolicy.parse(policy)
        if corrupted:
            # an orientation failing the similarity is queued on its own
            corrupt_table(monkeypatch, trees_for(5)[2], 5)
        runs = []
        for workers in (1, 2, 3):
            docs, counts = [], []
            for run in (run_theorem_sweep, run_witness_sweep, run_det_search):
                counts.append(QuotientCounts())
                with no_hang():
                    docs.append(run(ns, policy, seed=3, workers=workers, counts=counts[-1]))
            runs.append((docs, [astuple(c) for c in counts]))
        assert runs[0] == runs[1] == runs[2]
        assert_all_reaped()
        if policy.mode == "all":  # orientation 5 of that tree is swept
            (theorem, _, _), counts = runs[0]
            assert [c[2] for c in counts] == [24 * corrupted] * 3  # fallbacks
            assert theorem.all_pass != corrupted

    @pytest.mark.parametrize("workers", [1, 2])
    def test_flush_exception_keeps_its_type(self, monkeypatch, workers):
        def fail(a, cp):
            raise WitnessFailed("geometric sum kernel")

        # the kernel runs on the direct route only, so inside a flush
        monkeypatch.setattr(_fast, "batched_geometric_sum_zero", fail)
        with no_hang(), pytest.raises(WitnessFailed, match="^geometric sum kernel$") as exc:
            run_theorem_sweep([2, 3, 4, 5], OrientationPolicy("all"), workers=workers)
        if workers > 1:
            assert "in a sweep worker" in str(exc.value.__cause__)
        assert not QUEUE.entries and not QUEUE.waiting
        assert_all_reaped()

    def test_flush_bound_caps_every_direct_call(self, monkeypatch):
        """A serial n = 8 theorem sweep queues 3,008 audit rows.  The queue
        decides the rows it holds before a tree's audit set would take it
        past FLUSH_ROWS, so no direct call takes more than FLUSH_ROWS rows."""
        from arbormat.certificate import FLUSH_ROWS

        sizes = []
        real = _fast.batched_geometric_sum_zero  # one call per direct call
        monkeypatch.setattr(
            _fast, "batched_geometric_sum_zero", lambda a, cp: sizes.append(len(a)) or real(a, cp)
        )
        assert run_theorem_sweep([8], OrientationPolicy("canonical")).all_pass
        assert sum(sizes) == 3008 and len(sizes) > 1
        assert max(sizes) <= FLUSH_ROWS

    def test_certified_tree_in_pieces_at_n10(self, monkeypatch):
        """At n = 10 a certified tree's 10! cycles come in three pieces of at
        most PIECE_ROWS, each tallied once, and no direct call takes more
        than FLUSH_ROWS of its 5,760 audit rows."""
        from arbormat import harness
        from arbormat.certificate import FLUSH_ROWS, PIECE_ROWS

        sizes, tallied = [], []
        real = _fast.batched_geometric_sum_zero
        monkeypatch.setattr(
            _fast, "batched_geometric_sum_zero", lambda a, cp: sizes.append(len(a)) or real(a, cp)
        )
        tally = harness._THEOREM.tally
        monkeypatch.setattr(harness, "_THEOREM", harness._THEOREM._replace(
            tally=lambda res, q, bits, claims: tallied.append(claims.size) or tally(res, q, bits, claims)
        ))
        task = (11, trees_for(11)[0], (0,))
        sub = decided_now(harness._sweep_worker, harness._THEOREM, task)
        assert tallied == [PIECE_ROWS, PIECE_ROWS, math.factorial(10) - 2 * PIECE_ROWS]
        assert sum(sizes) == 360 * AUDIT_ROWS and max(sizes) <= FLUSH_ROWS
        assert sub["per_n"] == {10: {"instances": math.factorial(10), "failures": 0}}

    def test_flush_exception_names_its_lowest_task(self):
        from arbormat.certificate import decide
        from arbormat.harness import QuotientCounts, _Oriented, _theorem_claims

        def fail(o, images, a):
            raise WitnessFailed("direct route")

        images = _fast.cycle_images(5)
        o = _Oriented.of(trees_for(5)[0], 0)
        derived, _ = _theorem_claims.args
        try:
            for task in (7, 4, 9):
                QUEUE.task = task
                decide(derived, fail, o, np.arange(len(images)), QuotientCounts())
            QUEUE.task = 12
            with pytest.raises(WitnessFailed, match="^direct route$"):
                QUEUE.flush()
            assert QUEUE.task == 4 and not QUEUE.entries
        finally:
            QUEUE.clear()
            QUEUE.task = 0


def start_vertex_route(v, tree, bits):
    """Both start-vertex routes of one tree under one orientation: the
    decided witness claims, which the determinant search shares, the
    direct claims of every row, the closed-form dets of every row, and the
    counts."""
    from arbormat import harness
    from arbormat.certificate import closed_form_dets
    from arbormat.harness import QuotientCounts, _Oriented

    o = _Oriented.of(tree, bits)
    images = _fast.cycle_images(v)
    counts = QuotientCounts()
    ranks = np.arange(len(images))
    witness = decided_now(harness._witness_claims, o, ranks, counts)
    direct = harness._witness_claims_direct(rows_of(o, len(images)), images, o.build(images))
    return witness, direct, closed_form_dets(o, *_fast.unrank_cycles(v, ranks)[1:]), counts


class TestStartVertexQuotient:
    """Witnesses built at i = 1 and carried to every start vertex by
    Mf(f(i), j) = C.Mf(i, j) equal the per-pair direct route."""

    @pytest.mark.parametrize("v", range(3, 8))
    def test_equals_direct_every_tree(self, v):
        # n = v - 1 of both parities; orientation 0 and a non-canonical one
        rows = len(_fast.cycle_images(v))
        for tree in trees_for(v):
            for bits in (0, (1 << (v - 1)) - 2):
                witness, witness_direct, closed, counts = start_vertex_route(v, tree, bits)
                # only the audit rows are decided; the rest pass as a count
                assert witness.rows.tolist() == audit_rows(rows).tolist()
                for key in ("ok", "det"):
                    assert (witness.values[key] == witness_direct[key][witness.rows]).all()
                assert witness.values[AUDIT_AGREEMENT].all()
                assert witness_direct["ok"].all()
                assert (closed == witness_direct["det"]).all()
                # the claims function audits and certifies once
                audited = min(rows, AUDIT_ROWS)
                assert astuple(counts)[3:] == (rows - audited, audited, 0, 0)

    def test_signed_dets_match_exact_route(self):
        from arbormat.theorems import iter_witness_determinants

        v, n = 5, 4
        pairs = [(i, j) for j in range(1, v) if np.gcd(j, v) == 1 for i in range(1, v + 1)]
        images = _fast.cycle_images(v)
        for tree in trees_for(v):
            for bits in (0, 6, 13):
                witness, direct, closed, counts = start_vertex_route(v, tree, bits)
                assert counts.uncertified == 0
                o = Orientation.from_int(bits, n)
                for row, img in enumerate(images):
                    f = VertexMap(tree, [int(x) for x in img[1:]])
                    exact = {(i, j): d for i, j, d in iter_witness_determinants(f, o)}
                    assert [exact[p] for p in pairs] == direct["det"][row].tolist()
                    assert [exact[p] for p in pairs] == closed[row].tolist()

    def test_corrupted_audit_row_fails_the_agreement(self, monkeypatch):
        """An entry flipped in the built matrix of one audit row: its direct
        values differ from the closed form, so that row alone fails
        AUDIT_AGREEMENT; the tree stays certified."""
        v, tree = 6, trees_for(6)[3]  # 120 cycles, steps j = 1 and 5
        audit = audit_rows(120)
        target = _fast.cycle_images(v)[audit[5]]
        build = _fast.build_oriented_batch

        def corrupt(table_o, images, first, second):
            out = build(table_o, images, first, second)
            for k in np.nonzero((images == target).all(axis=1))[0]:
                out[k, 2, int(np.nonzero(out[k, 2])[0][0])] *= -1
            return out

        monkeypatch.setattr(_fast, "build_oriented_batch", corrupt)
        witness, witness_direct, closed, counts = start_vertex_route(v, tree, 9)
        assert astuple(counts)[3:] == (120 - AUDIT_ROWS, AUDIT_ROWS, 0, 1)
        assert witness.rows.tolist() == audit.tolist()
        assert np.nonzero(~witness.values[AUDIT_AGREEMENT])[0].tolist() == [5]
        for key in ("ok", "det"):
            assert (witness.values[key] == witness_direct[key][audit]).all()
        bad = np.zeros(120, dtype=bool)
        bad[audit[5]] = True
        agree = witness_direct["ok"].all(axis=1) & (witness_direct["det"] == closed).all(axis=1)
        assert (agree == ~bad).all()

    def test_certificate_failing_everywhere_gives_direct_documents(self, monkeypatch):
        """With every tree's certificate refused, every pair comes from the
        direct route; the documents must not change."""
        from arbormat.harness import QuotientCounts

        policy = OrientationPolicy.parse("sample:4")
        ns = [2, 3, 4, 5]

        def documents(counts):
            return (
                run_witness_sweep(ns, policy, seed=11, counts=counts),
                run_det_search(ns, policy, seed=11, counts=counts),
            )

        counts = QuotientCounts()
        certified = documents(counts)
        assert counts.certified > counts.audited > 0
        assert counts.uncertified == counts.disagreements == 0
        refuse_certificate(monkeypatch)
        forced = QuotientCounts()
        assert documents(forced) == certified
        assert forced.certified == 0
        assert forced.uncertified + forced.audited == forced.computed
        assert forced.audited == counts.audited


def closed_form_routes():
    """(derived, direct claims function, claims function) of the theorem
    claims and of the witness claims, which the determinant search shares."""
    from arbormat import harness

    return [(*claims.args, claims) for claims in (harness._theorem_claims, harness._witness_claims)]


def assert_derived_equals_direct(expected, want, where):
    """Every direct claim of every row equals its derived value, true for a
    claim the derived values do not name."""
    assert expected.keys() <= want.keys()
    for name, x in want.items():
        assert (x == expected.get(name, True)).all(), (*where, name)


class TestClosedForm:
    """Claims decided from the transport certificate and the closed form
    det Mf(f^k(1), j) = (-1)^(n k) det T(n, j) sgn(sigma_f) det R_{2..v}."""

    def test_step_det_is_one(self):
        from arbormat.certificate import step_det

        for n in range(1, 31):
            for j in range(1, n + 1):
                if np.gcd(j, n + 1) == 1:
                    assert step_det(n, j) == 1, (n, j)

    def test_root_det_is_unit(self):
        from oracles import bareiss_det

        from arbormat.certificate import root_det

        for v in range(3, 10):
            n = v - 1
            for tree in trees_for(v):
                for bits in {0, (1 << n) - 1, 0x55 & ((1 << n) - 1)}:
                    o = Orientation.from_int(bits, n)
                    rows = [tree.signed_path_vector(o, 1, x) for x in range(2, v + 1)]
                    det = root_det(tree, bits)
                    assert abs(det) == 1 and det == bareiss_det(rows), (tree, bits)

    @pytest.mark.parametrize("name", ["root_det", "step_det"])
    def test_non_unit_exact_det_certifies_nothing(self, monkeypatch, name):
        from arbormat import certificate
        from arbormat.harness import QuotientCounts

        policy = OrientationPolicy("canonical")
        want = run_det_search([5], policy)
        monkeypatch.setattr(certificate, name, lambda *key: 3)
        counts = QuotientCounts()
        assert run_det_search([5], policy, counts=counts) == want
        # n = 5: 6 trees, one 120-row chunk each
        assert astuple(counts)[3:] == (0, 6 * AUDIT_ROWS, 6 * (120 - AUDIT_ROWS), 0)

    @pytest.mark.parametrize("v", range(3, 8))
    def test_derived_equals_direct_every_tree(self, v):
        from arbormat.certificate import certified
        from arbormat.harness import _Oriented

        images = _fast.cycle_images(v)
        for tree in trees_for(v):
            for bits in (0, (1 << (v - 1)) - 2):
                o = _Oriented.of(tree, bits)
                assert certified(o)
                a = o.build(images)
                for derived, direct, _ in closed_form_routes():
                    # the closed form evaluated on every row, not just the audit rows
                    want = direct(rows_of(o, len(images)), images, a)
                    expected = derived(o, *_fast.unrank_cycles(v, np.arange(len(images)))[1:])
                    assert_derived_equals_direct(expected, want, (tree, bits))

    def test_refused_rows_keep_their_direct_witness_verdicts(self, monkeypatch):
        """A tree whose certificate is refused takes the direct verdicts on
        every row, failing here where its direct determinants are
        doubled."""
        from arbormat import harness
        from arbormat.harness import QuotientCounts, _Oriented

        real = _fast.batched_witness

        def even(a, seeds):
            gate, det, companion_ok, mf = real(a, seeds)
            return gate, det * np.where(marked(a)[:, None, None], 2, 1), companion_ok, mf

        monkeypatch.setattr(_fast, "batched_witness", even)
        refuse_certificate(monkeypatch)
        o = _Oriented.of(trees_for(7)[4], 5)
        images = _fast.cycle_images(7)
        counts = QuotientCounts()
        got = decided_now(harness._witness_claims, o, np.arange(len(images)), counts)
        assert astuple(counts)[3:] == (0, AUDIT_ROWS, 720 - AUDIT_ROWS, 0)
        assert got.rows.tolist() == list(range(720))
        assert got.values.pop(AUDIT_AGREEMENT).all()
        a = o.build(images)
        want = harness._witness_claims_direct(rows_of(o, len(images)), images, a)
        for key in ("ok", "det"):
            assert (got.values[key] == want[key]).all()
        refused = marked(a)
        assert refused.any() and not want["ok"][refused].any() and want["ok"][~refused].all()

    def test_flipped_table_entry_sends_every_row_to_the_direct_route(self, monkeypatch):
        """An entry flipped in the oriented table fails the certificate of
        its tree: every row is built and decided on the direct route, and
        the rows that gather the entry fail there."""
        from arbormat.certificate import certified, decide
        from arbormat.harness import QuotientCounts, _Oriented

        v, tree = 7, trees_for(7)[4]
        corrupt_table(monkeypatch, tree, 5)
        o = _Oriented.of(tree, 5)
        images = _fast.cycle_images(v)
        failing = {"theorem": "path_image_identity", "witness": "ok"}
        assert not certified(o)
        for (derived, direct, _), name in zip(closed_form_routes(), failing):
            sent = []

            def spy(o, images, a, real=direct):
                sent.append(images)
                return real(o, images, a)

            counts = QuotientCounts()
            got = decided_now(partial(decide, derived, spy), o, np.arange(len(images)), counts)
            (rows,) = sent
            assert (rows == images).all()
            assert got.rows.tolist() == list(range(720))
            assert astuple(counts)[3:] == (0, AUDIT_ROWS, 720 - AUDIT_ROWS, 0)
            assert got.values.pop(AUDIT_AGREEMENT).all()
            want = direct(rows_of(o, len(images)), images, o.build(images))
            assert got.values.keys() == want.keys()
            for key, x in want.items():
                assert (got.values[key] == x).all()
            assert 0 < (~want[failing[name]]).sum() < want[failing[name]].size

    def test_table_with_swapped_edges_certifies_nothing(self):
        """Two coordinates of the table swapped: every entry is still
        r(y) - r(x) for the table's own row 1, so only the comparison with
        Tree.signed_path_vector refuses it.  Every row goes direct, and the
        matrices, gathered from the wrong table, fail there."""
        from arbormat import harness
        from arbormat.certificate import certified
        from arbormat.harness import QuotientCounts, _Oriented

        v = 6
        images = _fast.cycle_images(v)
        o = _Oriented.of(trees_for(v)[3], 0)
        swapped = replace(o, table=o.table[..., [1, 0, 2, 3, 4]])
        r = swapped.table[1]
        assert (swapped.table[1:, 1:] == r[None, 1:] - r[1:, None]).all()
        assert certified(o) and not certified(swapped)
        counts = QuotientCounts()
        got = decided_now(harness._theorem_claims, swapped, np.arange(len(images)), counts)
        assert astuple(counts)[3:] == (0, AUDIT_ROWS, 120 - AUDIT_ROWS, 0)
        assert got.rows.tolist() == list(range(120))
        assert not np.logical_and.reduce(list(got.values.values())).all()

    def test_audit_disagreement_is_counted_and_fails(self, monkeypatch, capsys, tmp_path):
        from arbormat import cli
        from arbormat.harness import QuotientCounts

        audited = 6 * AUDIT_ROWS  # n = 5: 6 trees, one 120-row chunk each
        policy = OrientationPolicy("canonical")
        monkeypatch.setattr(
            _fast, "batched_geometric_sum_zero", lambda a, cp: np.zeros(a.shape[0], dtype=bool)
        )
        counts = QuotientCounts()
        res = run_theorem_sweep([5], policy, counts=counts)
        assert (counts.audited, counts.disagreements) == (audited, audited)
        assert not res.all_pass and res.per_n[5]["failures"] == audited
        assert res.claim_failures == {AUDIT_AGREEMENT: audited, "geometric_sum_zero": audited}
        assert res.failures[0]["claims"] == [AUDIT_AGREEMENT, "geometric_sum_zero"]

        real = _fast.batched_witness

        def negated(a, seeds):
            gate, det, companion_ok, mf = real(a, seeds)
            return gate, -det, companion_ok, mf

        monkeypatch.setattr(_fast, "batched_witness", negated)
        counts = QuotientCounts()
        res = run_witness_sweep([5], policy, counts=counts)
        assert counts.disagreements == audited and not res.all_pass
        # the record carries the direct (here negated) determinant
        from arbormat.theorems import iter_witness_determinants

        first = res.failures[0]
        tree = Tree([tuple(map(int, e.split("-"))) for e in first["tree"].split(",")])
        f = VertexMap(tree, [int(x) for x in first["map"].split(",")])
        exact = {(i, j): d for i, j, d in iter_witness_determinants(f, Orientation.canonical(5))}
        assert first["det"] == -exact[first["i"], first["j"]]
        code = cli.main(["search-detmf", "--n", "5", "--out", str(tmp_path / "d.json")])
        assert code == 1
        assert f"{audited} audit disagreements" in capsys.readouterr().err


class TestTransportCertificate:
    """The per-tree certificate against the per-row route it replaced:
    transport holds on every row of a certified tree, for any vertex map,
    and the direct claims of every row equal what the sweep counts."""

    @staticmethod
    def orientations(tree, v):
        """The canonical orientation and two seeded ones."""
        from arbormat.trees import canonical_form

        code = canonical_form(tree)
        return [0] + [_sample_orientation(16, code, k, v - 1) for k in range(2)]

    @pytest.mark.parametrize("n", range(2, 8))
    def test_exact_table_equals_signed_path_vector(self, n):
        """The exact table, one walk per source vertex, is
        Tree.signed_path_vector on every pair, with row and column 0 zero."""
        from arbormat.certificate import exact_table

        v = n + 1
        for tree in trees_for(v):
            for bits in self.orientations(tree, v):
                o = Orientation.from_int(bits, n)
                table = exact_table(tree, bits)
                assert table.shape == (v + 1, v + 1, n)
                assert not table[0].any() and not table[:, 0].any()
                for x, y in itertools.product(range(1, v + 1), repeat=2):
                    assert table[x, y].tolist() == list(tree.signed_path_vector(o, x, y))

    @pytest.mark.parametrize("v", range(3, 10))
    def test_every_row_of_a_certified_tree_passes_transport(self, v):
        from arbormat.certificate import certified
        from arbormat.harness import _Oriented

        images = _fast.cycle_images(v)
        for tree in trees_for(v):
            for bits in self.orientations(tree, v):
                o = _Oriented.of(tree, bits)
                assert certified(o)
                roots = per_row(o.table[1], len(images))
                assert _fast.batched_path_image_ok(roots, images, o.build(images)).all()

    @pytest.mark.parametrize("v", range(3, 8))
    def test_direct_claims_equal_the_counted_verdicts(self, v):
        """Rows kept as a count pass every direct claim with |det Mf| = 1;
        the decided rows carry the direct values."""
        from arbormat.harness import QuotientCounts, _Oriented

        images = _fast.cycle_images(v)
        for tree in trees_for(v):
            for bits in self.orientations(tree, v):
                o = _Oriented.of(tree, bits)
                a = o.build(images)
                for _, direct, claims in closed_form_routes():
                    got = decided_now(claims, o, np.arange(len(images)), QuotientCounts())
                    want = direct(rows_of(o, len(images)), images, a)
                    counted = np.ones(len(images), dtype=bool)
                    counted[got.rows] = False
                    assert counted.any() == (len(images) > AUDIT_ROWS)
                    for key, x in want.items():
                        assert (got.values[key] == x[got.rows]).all(), (tree, bits, key)
                        assert x[counted].all() or key == "det", (tree, bits, key)
                    if "det" in want:
                        assert (np.abs(want["det"][counted]) == 1).all()

    def test_certificate_is_decided_once_per_oriented_tree(self, monkeypatch):
        """A serial determinant search at n = 8 checks each of its 47 trees
        once, not once per 10,080-row chunk.  A theorem sweep under every
        orientation checks the orientations it computes and no carried one:
        one per tree, and the orientation whose corrupted table fails the
        similarity."""
        from arbormat import certificate
        from arbormat.harness import QuotientCounts

        calls = []
        real = certificate.certified
        monkeypatch.setattr(certificate, "certified", lambda o: calls.append(o) or real(o))
        run_det_search([8], OrientationPolicy("canonical"))
        assert len(calls) == len(trees_for(9)) == 47
        calls.clear()
        corrupt_table(monkeypatch, trees_for(5)[2], 5)
        counts = QuotientCounts()
        run_theorem_sweep([2, 3, 4, 5], OrientationPolicy("all"), counts=counts)
        own = sum(len(trees_for(v)) for v in range(3, 7)) + 1
        assert counts.fallbacks == 24 and len(calls) == own == 13
        assert len({(o.tree.edges, o.bits) for o in calls}) == own

    def test_random_vertex_maps_pass_transport(self):
        """1,000 random maps V -> V with f(1) = f(2), so none is a cycle, on
        random certified trees under random orientations, n = 2..9."""
        from arbormat.certificate import certified
        from arbormat.harness import _Oriented

        rng = np.random.default_rng(2015)
        checked = 0
        for v in range(3, 11):
            trees = trees_for(v)
            for _ in range(5):
                tree = trees[rng.integers(len(trees))]
                o = _Oriented.of(tree, int(rng.integers(1 << (v - 1))))
                assert certified(o)
                images = rng.integers(1, v + 1, size=(25, v + 1))
                images[:, 0] = 0
                images[:, 2] = images[:, 1]  # f(2) = f(1): not a permutation
                roots = per_row(o.table[1], len(images))
                assert _fast.batched_path_image_ok(roots, images, o.build(images)).all()
                checked += images.shape[0]
        assert checked == 1000


class TestPathTransportSweep:
    """The exhaustive path-transport sweep decides through the certificate:
    a certified tree's rows are a count but for its audit rows, which the
    transport kernel checks."""

    def test_flipped_audit_verdict_fails_the_agreement(self, monkeypatch):
        """One audit row's transport verdict flipped on a certified tree
        disagrees with the certificate: that row alone fails
        AUDIT_AGREEMENT and becomes the task's one failure record."""
        from arbormat import harness
        from arbormat.harness import QuotientCounts, _Oriented

        v, tree = 6, trees_for(6)[3]  # 120 cycles
        target = _fast.cycle_images(v)[audit_rows(120)[5]]
        transport = _fast.batched_path_image_ok
        monkeypatch.setattr(
            _fast, "batched_path_image_ok",
            lambda r, i, m: transport(r, i, m) ^ (i == target).all(axis=1),
        )
        counts = QuotientCounts()
        o = _Oriented.of(tree, 9)
        got = decided_now(harness._PATH_IMAGE.claims, o, np.arange(120), counts)
        assert astuple(counts)[3:] == (120 - AUDIT_ROWS, AUDIT_ROWS, 0, 1)
        assert np.nonzero(~got.values[AUDIT_AGREEMENT])[0].tolist() == [5]
        sub = decided_now(harness._sweep_worker, harness._PATH_IMAGE, (v, tree, (9,)))
        assert sub["exhaustive_instances"] == 120
        assert [f["map"] for f in sub["failures"]] == [",".join(map(str, target[1:]))]

    def test_refused_certificate_sends_every_row_direct(self, monkeypatch):
        """A certified sweep checks only its audit rows; with every
        certificate refused, every row is checked and counted uncertified,
        and the result does not change."""
        from arbormat.harness import QuotientCounts

        rows = []
        transport = _fast.batched_path_image_ok
        monkeypatch.setattr(
            _fast, "batched_path_image_ok", lambda r, i, m: rows.append(len(i)) or transport(r, i, m)
        )
        runs = []
        for refused in (False, True):
            if refused:
                refuse_certificate(monkeypatch)
            counts = QuotientCounts()
            rows.clear()
            runs.append(run_path_image_sweep([2, 3, 4, 5], counts=counts))
            assert counts.audited + counts.certified + counts.uncertified == counts.computed
            assert sum(rows) == counts.computed - counts.certified
            assert (counts.certified > 0, counts.uncertified > 0) == (not refused, refused)
            assert counts.disagreements == 0
        assert runs[0] == runs[1] and runs[0].all_pass


def path_graph_oriented(tree, flip=0):
    """A path tree as run_path_graph_sweep hands it to its claims: edges in
    path order, every edge oriented along the path, then the edges of the
    bitmask ``flip`` reversed."""
    from arbormat.harness import _Oriented
    from arbormat.trees import path_edge_ordered, same_direction_orientation

    tree = path_edge_ordered(tree)
    along = sum(1 << k for k, flag in enumerate(same_direction_orientation(tree).bits) if flag)
    return _Oriented.of(tree, along ^ flip)


class TestPathGraphCertificate:
    """Path-graph claims derived from path transport and a Petrie path
    table equal the direct route, which builds every witness matrix."""

    @pytest.mark.parametrize("v", range(3, 8))
    def test_derived_equals_direct_every_path_tree(self, v):
        from arbormat import harness
        from arbormat.certificate import certified
        from arbormat.harness import QuotientCounts

        images = _fast.cycle_images(v)
        rows = images.shape[0]
        paths = [tree for tree in trees_for(v) if tree.is_path()]
        assert paths
        for tree in paths:
            o = path_graph_oriented(tree)
            a = o.build(images)
            assert certified(o)
            want = harness._path_graph_claims_direct(rows_of(o, rows), images, a)
            assert want["ok"].all()
            # the derived claims of every row, not just the audit rows
            expected = harness._petrie_table(o, *_fast.unrank_cycles(v, np.arange(rows))[1:])
            assert_derived_equals_direct(expected, want, (tree,))
            # every row outside the audit set is certified
            counts = QuotientCounts()
            got = decided_now(harness._path_graph_claims, o, np.arange(len(images)), counts)
            audited = min(rows, AUDIT_ROWS)
            assert astuple(counts)[3:] == (rows - audited, audited, 0, 0)
            assert got.rows.tolist() == audit_rows(rows).tolist()
            assert got.values["ok"].all() and got.values[AUDIT_AGREEMENT].all()

    @pytest.mark.parametrize("v", range(3, 10))
    def test_petrie_table_implies_uniform_row_signs(self, v):
        """Row i of A is the table entry (f(a_i), f(b_i)): on a Petrie table
        every row of every A is single-signed, which the derived path-graph
        claims take without building the rows."""
        (tree,) = [tree for tree in trees_for(v) if tree.is_path()]
        o = path_graph_oriented(tree)
        assert _fast.batched_petrie(o.table.reshape(-1, 1, o.table.shape[2])).all()
        assert _fast.batched_uniform_sign(o.build(_fast.cycle_images(v))).all()

    def test_flipped_table_entry_sends_every_row_to_the_direct_route(self, monkeypatch):
        from arbormat import harness
        from arbormat.certificate import decide
        from arbormat.harness import QuotientCounts

        v = 7
        tree = next(t for t in trees_for(v) if t.is_path())
        along = path_graph_oriented(tree)
        corrupt_table(monkeypatch, along.tree, along.bits)
        o = path_graph_oriented(tree)
        images = _fast.cycle_images(v)
        assert harness._petrie_table(o, *_fast.unrank_cycles(v, audit_rows(720))[1:]) is not None
        sent = []
        real = harness._path_graph_claims_direct
        spy = partial(
            decide, harness._petrie_table,
            lambda o, images, a: sent.append(images) or real(o, images, a),
        )
        counts = QuotientCounts()
        got = decided_now(spy, o, np.arange(len(images)), counts)
        (rows,) = sent
        assert (rows == images).all()
        assert astuple(counts)[3:] == (0, AUDIT_ROWS, 720 - AUDIT_ROWS, 0)
        assert got.rows.tolist() == list(range(720))
        assert got.values.pop(AUDIT_AGREEMENT).all()
        want = real(rows_of(o, len(images)), images, o.build(images))
        assert got.values.keys() == want.keys()
        for key, x in want.items():
            assert (got.values[key] == x).all()

    def test_audit_disagreement_fails_the_row(self, monkeypatch):
        """With |det| read as 0 on the direct route, every certified audit
        row disagrees with the derived claims and fails; the rest pass."""
        from arbormat import harness
        from arbormat.harness import QuotientCounts

        monkeypatch.setattr(
            _fast, "batched_charpoly",
            lambda m: np.zeros((m.shape[0], m.shape[1] + 1), dtype=np.int64),
        )
        v = 6
        images = _fast.cycle_images(v)
        audit = audit_rows(images.shape[0])
        o = path_graph_oriented(next(t for t in trees_for(v) if t.is_path()))
        counts = QuotientCounts()
        got = decided_now(harness._path_graph_claims, o, np.arange(len(images)), counts)
        assert counts.disagreements == AUDIT_ROWS
        assert got.rows.tolist() == audit.tolist()
        assert not got.values[AUDIT_AGREEMENT].any() and not got.values["ok"].any()
        assert got.values["uniform_sign"].all() and got.values["petrie"].all()

        monkeypatch.setattr(harness, "MAX_FAILURE_RECORDS", 10**6)
        res = run_path_graph_sweep([v - 1])
        assert not res.all_pass and res.instances == images.shape[0]
        assert [f["map"] for f in res.failures] == [
            ",".join(map(str, images[k, 1:])) for k in audit
        ]
        assert all(f["uniform_sign"] and f["petrie"] for f in res.failures)

    def test_disagreeing_audit_row_fails_though_direct_values_pass(self, monkeypatch):
        """Derived claims that read every Petrie flag as false disagree with
        the direct values on the audit rows: those rows fail on the audit
        alone, and the other certified rows pass as a count."""
        from arbormat import harness
        from arbormat.certificate import decide

        def wrong(o, orbit, sign):
            return {**harness._petrie_table(o, orbit, sign), "petrie": np.zeros(len(orbit), bool)}

        claims = partial(decide, wrong, harness._path_graph_claims_direct)
        monkeypatch.setattr(harness, "_PATH_GRAPH", harness._PATH_GRAPH._replace(claims=claims))
        monkeypatch.setattr(harness, "MAX_FAILURE_RECORDS", 10**6)
        images = _fast.cycle_images(6)
        res = run_path_graph_sweep([5])
        assert [f["map"] for f in res.failures] == [
            ",".join(map(str, images[k, 1:])) for k in audit_rows(images.shape[0])
        ]
        assert all(f["uniform_sign"] and f["petrie"] for f in res.failures)

    def test_direct_claims_do_not_depend_on_the_block_size(self, monkeypatch):
        """The direct route stacks the witnesses of about CYCLE_CHUNK (row,
        pair) entries per block.  With every certificate refused, the direct
        claims and the claims a chunk takes from them are the same from one
        block as from blocks of 7 rows."""
        from arbormat import harness
        from arbormat.harness import QuotientCounts

        refuse_certificate(monkeypatch)
        v, pairs = 6, 12  # 6 start vertices, steps 1 and 5
        images = _fast.cycle_images(v)
        tree = next(t for t in trees_for(v) if t.is_path())
        cases = [path_graph_oriented(tree, flip) for flip in (0, 1, 0b1010)]

        def claims():
            out = []
            for o in cases:
                a = o.build(images)
                out.append(harness._path_graph_claims_direct(rows_of(o, len(images)), images, a))
                out.append(decided_now(harness._path_graph_claims, o, np.arange(len(images)), QuotientCounts()))
            # a decided chunk's values, on every row here: path-graph claims stay per row
            return [x if isinstance(x, dict) else x.values for x in out]

        assert images.shape[0] * pairs <= harness.CYCLE_CHUNK
        one_block = claims()
        monkeypatch.setattr(harness, "CYCLE_CHUNK", 7 * pairs)
        for want, got in zip(one_block, claims()):
            assert want.keys() == got.keys()
            for key, x in want.items():
                assert (got[key] == x).all(), key
        ok = np.concatenate([c["ok"] for c in one_block])
        assert ok.any() and not ok.all()

    @pytest.mark.parametrize("v", [5, 6])
    def test_non_path_tree_certifies_nothing(self, v):
        """Transport holds, but the path table of a non-path tree, or of a
        path tree with an edge against the line, has a row that is not a
        contiguous single-signed block: every row goes to the direct route."""
        from arbormat import harness
        from arbormat.certificate import certified
        from arbormat.harness import QuotientCounts, _Oriented

        images = _fast.cycle_images(v)
        cases = []
        for tree in trees_for(v):
            if tree.is_path():
                cases += [path_graph_oriented(tree, flip) for flip in (1, 1 << (v - 2))]
            else:
                cases += [_Oriented.of(tree, bits) for bits in (0, (1 << (v - 1)) - 1)]
        assert len(cases) > 4
        for o in cases:
            a = o.build(images)
            assert certified(o)
            assert harness._petrie_table(o, *_fast.unrank_cycles(v, audit_rows(len(a)))[1:]) is None
            counts = QuotientCounts()
            got = decided_now(harness._path_graph_claims, o, np.arange(len(images)), counts)
            assert counts.certified == 0 and counts.uncertified + counts.audited == len(images)
            assert got.rows.tolist() == list(range(len(images)))
            want = harness._path_graph_claims_direct(rows_of(o, len(images)), images, a)
            for key, x in want.items():
                assert (got.values[key] == x).all()
