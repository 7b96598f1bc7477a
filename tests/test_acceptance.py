"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`. The end-to-end targets are
engineering-scale checks on seeded instances, not asymptotic claims.
Criterion 6 checked the tree-embedding forest's extendability oracle; it
left with the forest, which no phase used once the connector joined classes
by reservoir paths.
"""

import itertools
import json
import math
import time
from collections import deque

import numpy as np
import pytest

import cdspack as cp
from cdspack import pipeline
from cdspack.cli import main as cli_main
from cdspack.rand import rng_for
from cdspack.spectral import _iterative_extremal
from test_connector import path_bound
from test_spectral import mixing_slack


def _report(line):
    print(f"\n[ACCEPTANCE] {line}")


# -- 1: oracle equivalence for the definitional checks --------------------

def naive_dominating(g, s):
    closed = set(s)
    for v in s:
        closed.update(g.neighbors(v).tolist())
    return closed == set(range(g.n))


def naive_connected(g, s):
    s = list(s)
    if len(s) <= 1:
        return True
    inside = set(s)
    seen = {s[0]}
    queue = deque([s[0]])
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u).tolist():
            if w in inside and w not in seen:
                seen.add(w)
                queue.append(w)
    return seen == inside


def test_criterion_1_oracle_equivalence():
    start = time.time()
    rng = rng_for(101)
    disagreements = 0
    for trial in range(200):
        n = int(rng.integers(1, 11))
        p = float(rng.uniform(0.1, 0.9))
        g = cp.binomial_random(n, p, seed=int(rng.integers(0, 2**31)))
        for _ in range(5):
            s = sorted(set(rng.integers(0, n, size=int(rng.integers(0, n + 1))).tolist()))
            if cp.is_dominating(g, s)[0] != naive_dominating(g, s):
                disagreements += 1
            if cp.verifier.is_connected_set(g, s) != naive_connected(g, s):
                disagreements += 1
    elapsed = time.time() - start
    assert disagreements == 0
    assert elapsed < 10
    _report(f"1 PASS: 200 graphs, 0 disagreements with naive checks ({elapsed:.1f}s)")


# -- 2: glued-cliques impossibility ----------------------------------------

def test_criterion_2_glued_cliques():
    start = time.time()
    for k in (3, 4, 5):
        g = cp.glued_cliques(k)
        count, witness = cp.brute_force_max_disjoint_cds(g)
        assert count == 1, f"glued_cliques({k}) packs {count} disjoint CDSs"
        # every 2-set disjoint packing must be rejected
        n = g.n
        rejected = checked = 0
        for assign in itertools.product((0, 1, 2), repeat=n):
            a = [v for v in range(n) if assign[v] == 1]
            b = [v for v in range(n) if assign[v] == 2]
            if not a or not b:
                continue
            checked += 1
            from cdspack.connector import CdsPacking
            report = cp.verify_packing(g, CdsPacking(None, [a, b], [], []))
            if report.failures:
                rejected += 1
        assert rejected == checked
    elapsed = time.time() - start
    assert elapsed < 5
    _report(f"2 PASS: max disjoint CDSs = 1 for k in 3..5; all 2-set packings "
            f"rejected ({elapsed:.1f}s)")


# -- 3: spectral correctness ------------------------------------------------

def test_criterion_3_spectral():
    start = time.time()
    prof = cp.extremal_eigenvalues(cp.petersen_graph())
    dense_oracle = sorted(np.linalg.eigvalsh(_dense_matrix(cp.petersen_graph())))
    assert abs(prof.lam - 2.0) < 1e-6
    assert abs(prof.lambda2 - dense_oracle[-2]) < 1e-6
    prof = cp.extremal_eigenvalues(cp.complete_graph(5))
    assert abs(prof.lam - 1.0) < 1e-6

    tol = 1e-8
    rng = rng_for(103)
    for i in range(20):
        n = int(rng.integers(40, 513))
        d = int(rng.integers(4, 20))
        if (n * d) % 2:
            n += 1
        g = cp.random_regular(n, d, seed=int(rng.integers(0, 2**31)))
        w = np.linalg.eigvalsh(_dense_matrix(g))
        l2_d, ln_d = w[-2], w[0]
        l2_i, ln_i, _, _ = _iterative_extremal(g, d, tol)
        scale = max(1.0, abs(l2_d), abs(ln_d))
        assert abs(l2_i - l2_d) <= 10 * tol * scale
        assert abs(ln_i - ln_d) <= 10 * tol * scale
    elapsed = time.time() - start
    assert elapsed < 30
    _report(f"3 PASS: Petersen/K5 exact; 20 iterative-vs-dense within 10*tol "
            f"({elapsed:.1f}s)")


def _dense_matrix(g):
    a = np.zeros((g.n, g.n))
    e = g.edge_array()
    a[e[:, 0], e[:, 1]] = 1.0
    a[e[:, 1], e[:, 0]] = 1.0
    return a


# -- 4: mixing bound never violated ------------------------------------------

def test_criterion_4_mixing_never_violated():
    start = time.time()
    g = cp.random_regular(1000, 20, seed=11)
    lam = cp.lambda_bound(g).bound
    rng = rng_for(104)
    violations = 0
    for _ in range(10**4):
        perm = rng.permutation(1000)
        ka = int(rng.integers(1, 500))
        kb = int(rng.integers(1, 500))
        a = perm[:ka]
        b = perm[ka:ka + kb]
        slack = mixing_slack(g, lam, a, b)
        if slack < -1e-9 * math.sqrt(ka * kb):
            violations += 1
    elapsed = time.time() - start
    assert violations == 0
    assert elapsed < 30
    _report(f"4 PASS: 10^4 sampled pairs, 0 mixing violations ({elapsed:.1f}s)")


# -- 5: coloring postconditions at practice scale ----------------------------

def test_criterion_5_family_postconditions_at_scale():
    for seed in (1, 2, 3):
        start = time.time()
        g = cp.random_regular(20000, 256, seed)
        lam_est = 2 * math.sqrt(255) * 1.05
        pars = cp.derive_params(20000, 256, lam_est, 0.3, "practice")
        colors = cp.stage_one(g, pars, seed)
        fam = cp.build_family(g, colors, pars)  # raises on any violated bullet
        # re-check the three properties independently of the builder
        b = np.zeros(g.n, dtype=np.int64)
        b[fam.reservoir] = 1
        res_deg = np.bincount(g.row_index, weights=b[g.indices], minlength=g.n)
        assert res_deg.min() >= pars.b_prob * pars.d / 2
        bound = 20 * g.n / (pars.epsilon ** 2 * pars.d)
        for members, k in zip(fam.sets, fam.component_counts):
            assert cp.is_dominating(g, members)[0]
            assert len(cp.components_of(g, members)) == k <= bound
        elapsed = time.time() - start
        assert elapsed < 300
        _report(f"5 [seed {seed}] PASS: all three family properties hold "
                f"({elapsed:.1f}s)")


# -- 7: end-to-end engineering target (not an asymptotic claim) ---------------

def _pack_run(n, d, seed):
    g = cp.random_regular(n, d, seed)
    result = pipeline.run(g, cp.lambda_bound(g).bound, seed, 0.3)
    assert result.error is None, result.body["error"]
    return result.packing, result.family, result.verification


def test_criterion_7_end_to_end_targets():
    for n, d in ((5000, 64), (10000, 128)):
        target = 0.25 * d / math.log(d)
        bound = path_bound(n, 1)  # 2 ln n / ln 3 + 1, above every path's own
        successes = 0
        for seed in (1, 2, 3, 4, 5):
            start = time.time()
            packing, fam, report = _pack_run(n, d, seed)
            elapsed = time.time() - start
            assert elapsed < 900
            if report.failures or len(packing.sets) < target:
                continue
            b = set(fam.reservoir)
            used = set()
            for rec in packing.paths:
                assert all(v in b for v in rec.internal)
                assert not used & set(rec.internal)
                used.update(rec.internal)
                assert rec.length <= bound
            successes += 1
        assert successes >= 4, f"(n={n}, d={d}): only {successes}/5 seeds passed"
        _report(f"7 [{n},{d}] PASS: {successes}/5 seeds gave verified packings "
                f"of size >= {target:.2f}")
    # non-vacuous path exercise: a crafted instance whose set needs stitching
    packing = _crafted_multi_component_packing()
    assert len(packing.paths) >= 2
    _report("7 PASS: crafted multi-component instance stitched with "
            f"{len(packing.paths)} reservoir paths")


def test_sparse_regime_stitches_every_set():
    # `pack --n 20000 --d 16 --seed 6`: at n/d = 1250 every colour class
    # falls apart into components, so each set is joined through the reservoir
    start = time.time()
    g = cp.random_regular(20000, 16, 6)
    result = pipeline.run(g, cp.lambda_bound(g).bound, 6, 0.3)
    assert result.error is None, result.body["error"]
    assert result.family.component_counts == [3, 2, 4]
    packing = result.packing
    assert packing.meta["failed_sets"] == []
    assert len(packing.sets) == 3 and result.verification.failures == []
    b = set(result.family.reservoir)
    used = set()
    for rec in packing.paths:
        assert set(rec.internal) <= b and not used & set(rec.internal)
        used.update(rec.internal)
    assert_paths_within_bound(g.n, packing, result.family.component_counts)
    assert len(packing.paths) == 6
    _report(f"7 PASS: sparse regime (20000, 16) stitched 3/3 sets with "
            f"{len(packing.paths)} paths, {len(used)} reservoir vertices "
            f"({time.time() - start:.1f}s)")


def _crafted_multi_component_packing():
    from cdspack.coloring import DominatingFamily
    from cdspack.params import PackingParams
    groups = [list(range(8)), list(range(8, 16)), list(range(16, 24)),
              list(range(24, 60))]
    edges = []
    for grp in groups:
        for i in range(len(grp)):
            for j in range(i + 1, len(grp)):
                edges.append((grp[i], grp[j]))
    for r in groups[3]:
        for v in groups[0] + groups[1] + groups[2]:
            edges.append((min(r, v), max(r, v)))
    g = cp.Graph(60, edges)
    fam = DominatingFamily(reservoir=groups[3], sets=[[0, 8, 16]],
                           components=[[np.array([v], dtype=np.int64)
                                        for v in (0, 8, 16)]])
    pars = PackingParams(epsilon=0.4, r1=1, r2=1, mode="practice", n=60, d=30,
                         lambda_used=15.0)
    packing = cp.connect_family(g, fam, pars)
    assert cp.verify_packing(g, packing).failures == []
    for rec in packing.paths:
        assert all(v in set(groups[3]) for v in rec.internal)
    assert_paths_within_bound(g.n, packing, fam.component_counts)
    return packing


def assert_paths_within_bound(n, packing, component_counts):
    """Each path of a set with c components is found with k = c, c - 1, ..., 2
    classes left, and must meet path_bound(n, k)."""
    for out, i in enumerate(packing.meta["family_indices"]):
        recs = [p for p in packing.paths if p.set_index == out]
        assert len(recs) == component_counts[i] - 1
        for k, rec in zip(range(component_counts[i], 1, -1), recs):
            assert rec.length <= path_bound(n, k)


# -- 8: determinism ------------------------------------------------------------

def _strip_timings(blob):
    blob = dict(blob)
    blob.pop("timings", None)
    if "trials" in blob:
        blob["trials"] = [_strip_timings(t) for t in blob["trials"]]
    return blob


def test_criterion_8_determinism(tmp_path):
    configs = [
        ["gen", "--kind", "regular", "--n", "200", "--d", "10", "--seed", "5"],
        ["spectrum"],
        ["pack", "--n", "600", "--d", "16", "--epsilon", "0.4", "--seed", "9"],
        ["pack", "--n", "600", "--d", "16", "--epsilon", "0.4", "--seed", "1",
         "--trials", "3"],
    ]
    gpath = tmp_path / "g.txt"
    cli_main(["gen", "--kind", "regular", "--n", "200", "--d", "10",
              "--seed", "5", "--out", str(gpath)])
    for idx, base in enumerate(configs):
        outputs = []
        for run in (0, 1):
            rep = tmp_path / f"rep_{idx}_{run}.json"
            args = list(base)
            if base[0] == "gen":
                args += ["--out", str(tmp_path / f"g_{idx}_{run}.txt")]
            if base[0] == "spectrum":
                args += ["--input", str(gpath)]
            if base[0] == "pack":
                args += ["--packing-out", str(tmp_path / f"p_{idx}_{run}.json")]
            args += ["--report", str(rep)]
            assert cli_main(args) == 0
            outputs.append(json.dumps(
                _strip_timings(json.loads(rep.read_text())), sort_keys=True))
        if base[0] == "gen":
            assert (tmp_path / f"g_{idx}_0.txt").read_bytes() == \
                (tmp_path / f"g_{idx}_1.txt").read_bytes()
        else:
            assert outputs[0] == outputs[1]
        if base[0] == "pack":
            assert (tmp_path / f"p_{idx}_0.json").read_bytes() == \
                (tmp_path / f"p_{idx}_1.json").read_bytes()
    _report(f"8 PASS: byte-identical reports modulo timings for {len(configs)} "
            "configs, and identical --packing-out files")


# -- 9: theory-mode gate --------------------------------------------------------

def test_criterion_9_theory_gate():
    with pytest.raises(cp.errors.InfeasibleParameters):
        cp.derive_params(10**6, 10**4, 100.0, 0.1, "theory")
    assert math.floor(0.1 ** 4 * 10**4 / (36 * 100)) == 0  # D < 3 by arithmetic

    pars = cp.derive_params(10**8, 3 * 10**7, 1100.0, 0.8, "theory")
    assert pars.D == math.floor(0.8 ** 4 * 3 * 10**7 / (36 * 1100)) == 310
    assert pars.s == 10**8 - 2 * pars.D * pars.m - 3 * pars.m > 0
    _report("9 PASS: theory gate rejects/accepts per direct arithmetic")
