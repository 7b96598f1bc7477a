import math

import numpy as np
import pytest

import cdspack
from cdspack import (Graph, choose_representatives, complete_graph,
                     connect_family, derive_params, lambda_bound, pipeline,
                     random_regular, verify_packing, build_family, stage_one,
                     stage_two)
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
    base = dict(epsilon=0.4, r1=1, r2=1, mode="practice", n=40, d=20,
                lambda_used=10.0)
    base.update(kw)
    return PackingParams(**base)


def path_bound(n, k):
    """2 ln(n/k)/ln 3 + 1: a logarithmic cap on the length of a path found
    with k classes left. Connector paths are shortest reservoir paths, so on
    the expanders tested here they stay below it."""
    return 2 * math.log(n / k) / math.log(3) + 1


def plain_components(g, vertices):
    """Components of g[vertices] as Python sets, by a plain search."""
    left, comps = set(vertices), []
    while left:
        comp = {left.pop()}
        stack = list(comp)
        while stack:
            for w in g.neighbors(stack.pop()).tolist():
                if w in left:
                    left.remove(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(comp)
    return comps


def lowest_per_component(g, members):
    """Minimum of each component of g[members], in ascending order."""
    return sorted(min(comp) for comp in plain_components(g, members))


def family(g, reservoir, sets):
    """A DominatingFamily by hand, its components found by a plain search."""
    components = [[np.array(sorted(comp), dtype=np.int64)
                   for comp in sorted(plain_components(g, s), key=min)]
                  for s in sets]
    return DominatingFamily(reservoir=reservoir, sets=sets, components=components)


def generated_family():
    g = random_regular(400, 8, 2)
    pars = derive_params(400, 8, 2 * math.sqrt(7) * 1.05, 0.4, "practice")
    fam = build_family(g, stage_two(g, stage_one(g, pars, 4), pars, 4), pars)
    return g, fam, pars


def test_choose_representatives_gives_lowest_vertex_per_component():
    g, reservoir = two_cliques_with_reservoir()
    # the lowest vertex of each component, whatever else the component holds
    for members in ([0, 1, 10], [0, 1, 2, 10, 11]):
        fam = family(g, reservoir, [members])
        assert fam.component_counts == [2]
        assert choose_representatives(g, fam) == [[0, 10]]


def test_generated_family_carries_each_sets_components():
    g, fam, _ = generated_family()
    reps = choose_representatives(g, fam)
    assert reps == fam.representatives
    # one representative per component
    for members, x, k in zip(fam.sets, reps, fam.component_counts):
        assert len(x) == k
        assert set(x) <= set(members)
    assert reps == [lowest_per_component(g, members) for members in fam.sets]
    # build_family's components: sorted int64 arrays, ordered by lowest vertex
    for members, comps in zip(fam.sets, fam.components):
        assert all(c.dtype == np.int64 for c in comps)
        assert [c.tolist() for c in comps] == [
            sorted(c) for c in sorted(plain_components(g, members), key=min)]


def test_generated_instance_stitches_each_component_once():
    g, fam, pars = generated_family()
    assert fam.component_counts == [3, 3]
    packing = connect_family(g, fam, pars)
    assert packing.meta["family_indices"] == [0, 1]
    assert packing.meta["failed_sets"] == []
    assert [p.set_index for p in packing.paths] == [0, 0, 1, 1]
    assert verify_packing(g, packing, target=2).failures == []
    assert_paths_are_shortest(g, fam, packing)


def test_pack_labels_components_once_per_family_and_once_per_verification(
        monkeypatch):
    # every class of (20000, 16, 6) needs stitching; the connector joins the
    # components build_family labelled instead of labelling each set again
    real, labelled = cdspack.graph.label_components, []

    def counted(g, sets):
        labelled.append(len(sets))
        return real(g, sets)

    for module in (cdspack.graph, cdspack.coloring, cdspack.connector,
                   cdspack.verifier):
        if hasattr(module, "label_components"):
            monkeypatch.setattr(module, "label_components", counted)
    g = random_regular(20000, 16, 6)
    result = pipeline.run(g, lambda_bound(g).bound, 6, 0.3)
    assert result.error is None and result.verification.failures == []
    assert result.family.component_counts == [5, 2, 2]
    assert labelled == [3, 3]  # build_family's classes, the verified sets


def test_one_path_per_missing_join():
    g, reservoir = two_cliques_with_reservoir()
    fam = family(g, reservoir, [[0, 1, 2, 10, 11]])
    packing = connect_family(g, fam, crafted_params(d=4))
    assert len(packing.paths) == 1
    assert set(packing.paths[0].endpoints) == {0, 10}


def test_connect_two_components_single_path():
    g, reservoir = two_cliques_with_reservoir()
    fam = family(g, reservoir, [[0, 10]])
    packing = connect_family(g, fam, crafted_params())
    assert len(packing.sets) == 1
    assert len(packing.paths) == 1
    rec = packing.paths[0]
    assert set(rec.endpoints) == {0, 10}
    assert rec.internal and all(v in set(reservoir) for v in rec.internal)
    assert rec.length == len(rec.internal) + 1
    assert rec.length <= path_bound(40, 2)
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
    fam = family(g, groups[3], [[0, 6, 12]])
    packing = connect_family(g, fam, crafted_params())
    assert len(packing.paths) == 2
    internals = [v for p in packing.paths for v in p.internal]
    assert len(internals) == len(set(internals))  # single-use reservoir discipline
    assert verify_packing(g, packing).failures == []


def test_failed_set_gives_back_its_paths():
    # cliques A=0..9 and C=10..19 meet only through the one reservoir vertex
    # R1=20; clique E=21..30 reaches only the reservoir clique R2=31..40, and
    # 22 in E touches 11 in C. Set 0 = {0, 10, 21} joins 0 and 10 through 20,
    # then finds no free path out of {21} and fails; set 1 needs 20 to join 1
    # to {11, 22}, so it connects only if set 0's path was given back
    groups = [list(range(10)), list(range(10, 20)), list(range(21, 31)),
              list(range(31, 41))]
    edges = [(u, v) for grp in groups for i, u in enumerate(grp) for v in grp[i + 1:]]
    edges += [(v, 20) for v in groups[0] + groups[1]]
    edges += [(v, r) for v in groups[2] for r in groups[3]]
    edges += [(11, 22)]
    g = Graph(41, edges)
    fam = family(g, [20] + groups[3], [[0, 10, 21], [1, 11, 22]])
    assert fam.representatives == [[0, 10, 21], [1, 11]]
    packing = connect_family(g, fam, crafted_params(n=41, r1=2))
    assert packing.meta["failed_sets"] == [0]
    assert packing.meta["family_indices"] == [1]
    assert packing.sets == [[1, 11, 20, 22]]
    assert [p.internal for p in packing.paths] == [[20]]


def reservoir_distance(g, source, target, passable):
    """Fewest edges from `source` to `target` with interiors in `passable`."""
    seen, frontier, dist = set(source), set(source), 0
    while frontier:
        dist += 1
        near = {w for v in frontier for w in g.neighbors(v).tolist()}
        if near & target:
            return dist
        frontier = (near & passable) - seen
        seen |= frontier
    return None


def assert_paths_are_shortest(g, fam, packing):
    """Replay the joins: each path is a shortest free-reservoir path between
    the two classes it joins, its interior free until it is taken."""
    free = set(fam.reservoir)
    for out, i in enumerate(packing.meta["family_indices"]):
        classes = plain_components(g, fam.sets[i])
        for rec in (p for p in packing.paths if p.set_index == out):
            a, b = rec.endpoints
            src = next(c for c in classes if a in c)
            dst = next(c for c in classes if b in c)
            assert src is not dst and set(rec.internal) <= free
            passable = free - set().union(*classes)
            assert rec.length == reservoir_distance(g, src, dst, passable)
            classes = [c for c in classes if c is not src and c is not dst]
            classes.append(src | dst | set(rec.internal))
        assert len(classes) == 1
        free -= {v for p in packing.paths if p.set_index == out for v in p.internal}


@pytest.mark.parametrize("graph_seed, seed", [(1, 3), (2, 2), (2, 3), (3, 1)])
def test_each_path_is_a_shortest_reservoir_path(graph_seed, seed):
    g = random_regular(400, 8, graph_seed)
    pars = derive_params(400, 8, 2 * math.sqrt(7) * 1.05, 0.4, "practice")
    fam = build_family(g, stage_two(g, stage_one(g, pars, seed), pars, seed), pars)
    assert max(fam.component_counts) > 1
    packing = connect_family(g, fam, pars)
    assert packing.meta["failed_sets"] == []
    assert_paths_are_shortest(g, fam, packing)


def test_second_merge_may_start_from_the_class_the_first_built():
    # classes {0}, {1} and {2, 3, 4}; reservoir 5 joins 0 and 1, and only 5
    # reaches reservoir 6, the way to 2. The joined class {0, 1, 5} ties
    # with {2, 3, 4} on size and wins on its lowest vertex, so the second
    # path starts at 5, the interior of the first
    g = Graph(7, [(0, 5), (1, 5), (5, 6), (2, 6), (2, 3), (3, 4)])
    fam = family(g, [5, 6], [[0, 1, 2, 3, 4]])
    assert fam.representatives == [[0, 1, 2]]
    packing = connect_family(g, fam, crafted_params(n=7))
    assert [(p.endpoints, p.internal) for p in packing.paths] == [((0, 1), [5]),
                                                                  ((5, 2), [6])]
    assert packing.sets == [list(range(7))]
    assert_paths_are_shortest(g, fam, packing)


def test_connected_set_yields_zero_paths():
    g, _ = two_cliques_with_reservoir()
    # vertex 20 is adjacent to everything, so {0, 20} is a connected CDS
    fam = family(g, list(range(21, 40)), [[0, 20]])
    assert fam.representatives == [[0]]
    packing = connect_family(g, fam, crafted_params())
    assert packing.sets == [[0, 20]]
    assert packing.paths == []


def test_max_sets_cap():
    g, reservoir = two_cliques_with_reservoir()
    fam = family(g, reservoir, [[0, 10], [1, 11]])
    packing = connect_family(g, fam, crafted_params(r1=2), max_sets=1)
    assert len(packing.sets) == 1
    assert {p.set_index for p in packing.paths} == {0}


def test_practice_params_without_m_d_s_stitch():
    # practice mode has no m, D or s, so no tree arity to guard and no budget
    g, reservoir = two_cliques_with_reservoir()
    pars = crafted_params()
    assert (pars.m, pars.D, pars.s) == (None, None, None)
    fam = family(g, reservoir, [[0, 10]])
    packing = connect_family(g, fam, pars)
    assert [p.endpoints for p in packing.paths] == [(0, 10)]
    assert verify_packing(g, packing, target=1).failures == []


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
    pars = derive_params(600, 16, 2 * math.sqrt(15) * 1.05, 0.4, "practice")
    fam = build_family(g, stage_two(g, stage_one(g, pars, 1), pars, 1), pars)
    packing = connect_family(g, fam, pars)
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
    pars = derive_params(600, 16, 2 * math.sqrt(15) * 1.05, 0.4, "practice")
    fam = build_family(g, stage_two(g, stage_one(g, pars, 1), pars, 1), pars)
    p1 = connect_family(g, fam, pars)
    p2 = connect_family(g, fam, pars)
    assert p1.to_json() == p2.to_json()
