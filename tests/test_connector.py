import math

import pytest

from cdspack import (Graph, choose_representatives, complete_graph,
                     connect_family, derive_params, random_regular,
                     verify_packing, build_family, stage_one, stage_two)
from cdspack import connector
from cdspack.coloring import DominatingFamily
from cdspack.connector import spanning_certificate
from cdspack.errors import CdsPackError
from cdspack.params import PackingParams


def two_cliques_with_reservoir():
    """Cliques A=(0..9) and C=(10..19) joined only through reservoir R=(20..39)."""
    groups = [list(range(10)), list(range(10, 20)), list(range(20, 40))]
    edges = []
    for grp in groups:
        for i in range(len(grp)):
            for j in range(i + 1, len(grp)):
                edges.append((grp[i], grp[j]))
    for r in groups[2]:
        for v in groups[0] + groups[1]:
            edges.append((min(r, v), max(r, v)))
    return Graph(40, edges), groups[2]


def crafted_params(**kw):
    base = dict(epsilon=0.4, d_star=1, r1=1, r2=1, p1=0.84, p2=1.0,
                b_prob=0.16, m=1, D=8, s=35, mode="practice",
                n=40, d=20, lambda_used=10.0)
    base.update(kw)
    return PackingParams(**base)


def lowest_per_component(g, members):
    """Minimum of each component of g[members], by union-find over its edges."""
    root = {v: v for v in members}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u in members:
        for w in g.neighbors(u).tolist():
            if w in root:
                root[find(w)] = find(u)
    lows = {}
    for v in members:
        lows[find(v)] = min(lows.get(find(v), v), v)
    return sorted(lows.values())


def generated_family():
    g = random_regular(400, 8, 2)
    pars = derive_params(400, 8, 2 * math.sqrt(7) * 1.05, 0.4, "practice",
                         overrides={"m": 2, "D": 8})
    fam = build_family(g, stage_two(g, stage_one(g, pars, 4), pars, 4), pars)
    return g, fam, pars


def test_choose_representatives_components_and_padding():
    g, reservoir = two_cliques_with_reservoir()
    fam = DominatingFamily(reservoir=reservoir, sets=[[0, 1, 10]],
                           component_counts=[2])
    assert choose_representatives(g, fam) == [[0, 10]]
    # extra vertices of an already-seeded component are not padded in
    fam = DominatingFamily(reservoir=reservoir, sets=[[0, 1, 2, 10, 11]],
                           component_counts=[2])
    assert choose_representatives(g, fam) == [[0, 10]]


def test_padding_arithmetic_on_generated_instance():
    g, fam, _ = generated_family()
    reps = choose_representatives(g, fam)
    # one representative per component, not max(k, min(ceil(n/(2d)), |S|))
    for members, x, k in zip(fam.sets, reps, fam.component_counts):
        assert len(x) == k
        assert set(x) <= set(members)
    assert reps == [lowest_per_component(g, members) for members in fam.sets]


def test_generated_instance_stitches_each_component_once():
    g, fam, pars = generated_family()
    assert fam.component_counts == [1, 2]
    packing = connect_family(g, fam, pars, seed=1)
    assert packing.meta["family_indices"] == [0, 1]
    assert packing.meta["failed_sets"] == []
    assert [p.set_index for p in packing.paths] == [1]
    assert verify_packing(g, packing, target=2).failures == []


def test_one_path_per_missing_join_not_per_padded_representative():
    g, reservoir = two_cliques_with_reservoir()
    fam = DominatingFamily(reservoir=reservoir, sets=[[0, 1, 2, 10, 11]],
                           component_counts=[2])
    packing = connect_family(g, fam, crafted_params(d=4), seed=1)
    assert len(packing.paths) == 1
    assert set(packing.paths[0].endpoints) == {0, 10}


def test_connect_two_components_single_path():
    g, reservoir = two_cliques_with_reservoir()
    fam = DominatingFamily(reservoir=reservoir, sets=[[0, 10]],
                           component_counts=[2])
    packing = connect_family(g, fam, crafted_params(), seed=7)
    assert len(packing.sets) == 1
    assert len(packing.paths) == 1
    rec = packing.paths[0]
    assert set(rec.endpoints) == {0, 10}
    assert rec.internal and all(v in set(reservoir) for v in rec.internal)
    assert rec.length == len(rec.internal) + 1
    assert rec.length <= rec.length_bound
    report = verify_packing(g, packing, target=1)
    assert report.failures == [] and report.target_met


def test_connect_three_components_two_paths():
    # three cliques joined only through a reservoir clique
    groups = [list(range(6)), list(range(6, 12)), list(range(12, 18)),
              list(range(18, 40))]
    edges = []
    for grp in groups:
        for i in range(len(grp)):
            for j in range(i + 1, len(grp)):
                edges.append((grp[i], grp[j]))
    for r in groups[3]:
        for v in groups[0] + groups[1] + groups[2]:
            edges.append((min(r, v), max(r, v)))
    g = Graph(40, edges)
    fam = DominatingFamily(reservoir=groups[3], sets=[[0, 6, 12]],
                           component_counts=[3])
    packing = connect_family(g, fam, crafted_params(), seed=3)
    assert len(packing.paths) == 2
    internals = [v for p in packing.paths for v in p.internal]
    assert len(internals) == len(set(internals))  # single-use reservoir discipline
    assert verify_packing(g, packing).failures == []


def test_failed_set_gives_back_its_paths(monkeypatch):
    # A=0..9 and C=10..19 meet through reservoir R1=20..39; E=40..49 reaches
    # only R2=50..59, so set {0, 10, 40} merges once, then finds no cross edge
    groups = [list(range(10)), list(range(10, 20)), list(range(20, 40)),
              list(range(40, 50)), list(range(50, 60))]
    edges = [(u, v) for grp in groups for i, u in enumerate(grp) for v in grp[i + 1:]]
    edges += [(v, r) for v in groups[0] + groups[1] for r in groups[2]]
    edges += [(v, r) for v in groups[3] for r in groups[4]]
    g = Graph(60, edges)
    reservoir = groups[2] + groups[4]
    fam = DominatingFamily(reservoir=reservoir, sets=[[0, 10, 40]],
                           component_counts=[3])
    real = connector.connect_one
    seen = []

    def spy(forest, *args):
        try:
            return real(forest, *args)
        finally:
            seen.append((forest, {forest.to_global[v] for v in forest.adj}))

    monkeypatch.setattr(connector, "connect_one", spy)
    packing = connect_family(g, fam, crafted_params(n=60), seed=1)
    assert packing.meta["failed_sets"] == [0] and packing.sets == []
    [(forest, at_failure)] = seen
    spent = at_failure - {0, 10, 40}
    assert spent and spent <= set(groups[2])  # the first merge's path
    assert {forest.to_global[v] for v in forest.adj} == {0, 10, 40}
    assert {forest.to_global[v] for v in forest.protected} == {0, 10, 40}
    assert all(nbrs == [] for nbrs in forest.adj.values())


def test_connected_set_yields_zero_paths():
    g, _ = two_cliques_with_reservoir()
    # vertex 20 is adjacent to everything, so {0, 20} is a connected CDS
    fam = DominatingFamily(reservoir=list(range(21, 40)), sets=[[0, 20]],
                           component_counts=[1])
    packing = connect_family(g, fam, crafted_params(), seed=1)
    assert packing.sets == [[0, 20]]
    assert packing.paths == []


def test_max_sets_cap():
    g, reservoir = two_cliques_with_reservoir()
    fam = DominatingFamily(reservoir=reservoir, sets=[[0, 10], [1, 11]],
                           component_counts=[2, 2])
    packing = connect_family(g, fam, crafted_params(d_star=2), seed=1, max_sets=1)
    assert len(packing.sets) == 1
    assert {p.set_index for p in packing.paths} == {0}


def test_arity_guard():
    g, reservoir = two_cliques_with_reservoir()
    fam = DominatingFamily(reservoir=reservoir, sets=[[0, 10]],
                           component_counts=[2])
    with pytest.raises(CdsPackError, match="arity"):
        connect_family(g, fam, crafted_params(D=4), seed=1)


def test_spanning_certificate_shape():
    g = complete_graph(6)
    cert = spanning_certificate(g, [1, 3, 5])
    assert len(cert) == 2
    for u, v in cert:
        assert g.has_edge(u, v)
    with pytest.raises(CdsPackError):
        spanning_certificate(Graph(4, [(0, 1), (2, 3)]), [0, 1, 2, 3])


def test_pipeline_end_to_end_small():
    g = random_regular(600, 16, 3)
    pars = derive_params(600, 16, 2 * math.sqrt(15) * 1.05, 0.4, "practice",
                         overrides={"m": 2, "D": 8})
    fam = build_family(g, stage_two(g, stage_one(g, pars, 1), pars, 1), pars)
    packing = connect_family(g, fam, pars, seed=1)
    report = verify_packing(g, packing, target=1)
    assert report.failures == []
    assert report.target_met
    # packing sets extend the family sets by reservoir vertices only
    b = set(fam.reservoir)
    for out, idx in zip(packing.sets, packing.meta["family_indices"]):
        extra = set(out) - set(fam.sets[idx])
        assert extra <= b


def test_pipeline_deterministic():
    g = random_regular(600, 16, 3)
    pars = derive_params(600, 16, 2 * math.sqrt(15) * 1.05, 0.4, "practice",
                         overrides={"m": 2, "D": 8})
    fam = build_family(g, stage_two(g, stage_one(g, pars, 1), pars, 1), pars)
    p1 = connect_family(g, fam, pars, seed=5)
    p2 = connect_family(g, fam, pars, seed=5)
    assert p1.to_json() == p2.to_json()
