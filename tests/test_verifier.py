import pytest

from cdspack import (Graph, brute_force_max_disjoint_cds, brute_force_min_cds,
                     complete_graph, cycle_graph, glued_cliques, is_dominating,
                     petersen_graph, verify_packing)
from cdspack.connector import CdsPacking
from cdspack.errors import InstanceTooLarge
from cdspack.rand import rng_for


def packing_of(sets, certificates=None):
    return CdsPacking(params=None, sets=sets, certificates=certificates or [],
                      paths=[])


def test_is_dominating_examples():
    c5 = cycle_graph(5)
    assert is_dominating(c5, [0, 2]) == (True, None)
    assert is_dominating(c5, [0]) == (False, 2)
    star = Graph(6, [(0, i) for i in range(1, 6)])
    assert is_dominating(star, [0]) == (True, None)


def test_is_dominating_matches_set_union():
    rng = rng_for(31)
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        take = rng.random(len(pairs)) < 0.35
        g = Graph(n, [p for p, t in zip(pairs, take) if t])
        s = sorted(set(rng.integers(0, n, size=int(rng.integers(0, 5))).tolist()))
        closed = set(s)
        for v in s:
            closed.update(g.neighbors(v).tolist())
        assert is_dominating(g, s)[0] == (closed == set(range(n)))


def test_verify_packing_single_full_set():
    g = glued_cliques(3)
    report = verify_packing(g, packing_of([list(range(5))]))
    assert report.failures == [] and report.packing_size == 1


def test_verify_packing_flags_overlap():
    g = complete_graph(6)
    report = verify_packing(g, packing_of([[0, 1], [1, 2]]))
    assert not report.disjoint
    assert any("shared" in reason for _, reason, _ in report.failures)


def test_verify_packing_empty():
    g = complete_graph(4)
    report = verify_packing(g, packing_of([]), target=0)
    assert report.failures == [] and report.packing_size == 0
    assert report.target_met


def test_verify_packing_rejects_broken_connectivity():
    g = two_cliques()
    # {0, 10} is dominating but not connected without a path vertex
    report = verify_packing(g, packing_of([[0, 10]]))
    assert any(reason == "not connected" for _, reason, _ in report.failures)


def two_cliques():
    groups = [list(range(10)), list(range(10, 20)), list(range(20, 40))]
    edges = []
    for grp in groups:
        for i in range(len(grp)):
            for j in range(i + 1, len(grp)):
                edges.append((grp[i], grp[j]))
    for r in groups[2]:
        for v in groups[0] + groups[1]:
            edges.append((min(r, v), max(r, v)))
    return Graph(40, edges)


def test_verify_packing_certificate_never_trusted():
    g = cycle_graph(6)
    good = [[0, 1], [1, 2], [2, 3], [3, 4]]  # spanning tree of {0..4}
    report = verify_packing(g, packing_of([[0, 1, 2, 3, 4]], [good]))
    assert report.failures == []
    # drop a vertex from the set but keep the stale certificate
    report = verify_packing(g, packing_of([[0, 1, 2, 4]], [good]))
    assert report.failures  # fresh traversal sees the gap
    # tamper with the certificate itself
    bad = [[0, 1], [1, 2], [2, 3], [0, 3]]  # 0-3 is not an edge of C6
    report = verify_packing(g, packing_of([[0, 1, 2, 3, 4]], [bad]))
    assert any("certificate" in reason for _, reason, _ in report.failures)


def test_verify_packing_out_of_range():
    report = verify_packing(complete_graph(3), packing_of([[0, 7]]))
    assert any(reason == "vertex out of range" for _, reason, _ in report.failures)


def test_brute_force_min_cds_examples():
    star = Graph(6, [(0, i) for i in range(1, 6)])
    assert brute_force_min_cds(star) == (1, [0])
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert brute_force_min_cds(p4) == (2, [1, 2])
    assert brute_force_min_cds(petersen_graph())[0] == 4


def test_brute_force_min_cds_guards():
    with pytest.raises(InstanceTooLarge):
        brute_force_min_cds(complete_graph(21))
    with pytest.raises(ValueError):
        brute_force_min_cds(Graph(4, [(0, 1), (2, 3)]))


def test_brute_force_max_disjoint_examples():
    count, witness = brute_force_max_disjoint_cds(glued_cliques(3))
    assert count == 1
    count, witness = brute_force_max_disjoint_cds(cycle_graph(4))
    assert count == 2 and witness == [[0, 1], [2, 3]]
    # in a complete graph every singleton is a connected dominating set
    assert brute_force_max_disjoint_cds(complete_graph(4))[0] == 4
    with pytest.raises(InstanceTooLarge):
        brute_force_max_disjoint_cds(complete_graph(13))


def test_max_disjoint_witness_is_valid():
    for g in (cycle_graph(6), petersen_graph(), glued_cliques(4)):
        if g.n > 12:
            continue
        count, witness = brute_force_max_disjoint_cds(g)
        assert len(witness) == count
        seen = set()
        for members in witness:
            assert not seen & set(members)
            seen |= set(members)
            report = verify_packing(g, packing_of([members]))
            assert report.failures == []


def test_pipeline_consistent_with_oracle_on_tiny_graphs():
    import cdspack as cp
    from cdspack.errors import InfeasibleParameters

    # below n = 10 the forest budget n - 2Dm - 3m is nonpositive even at the
    # minimal (m, D) = (1, 3), so the pipeline rejects the instance outright
    # and the consistency property holds vacuously
    for n in (6, 8, 9):
        with pytest.raises(InfeasibleParameters):
            cp.derive_params(n, n - 1, 1.0, 0.4, "practice",
                             overrides={"m": 1, "D": 3})
    # at n = 10 the budget s = 1 cannot even seat the representatives
    g10 = complete_graph(10)
    pars = cp.derive_params(10, 9, 1.0, 0.4, "practice",
                            overrides={"m": 1, "D": 3})
    a2 = cp.stage_two(g10, cp.stage_one(g10, pars, 2), pars, 2)
    fam = cp.build_family(g10, a2, pars)
    with pytest.raises(cp.errors.BudgetExceeded):
        cp.connect_family(g10, fam, pars, 2)

    # smallest runnable instances: any packing the pipeline returns must not
    # exceed the exact maximum
    for g, d in ((complete_graph(12), 11), (cp.random_regular(12, 8, 5), 8)):
        pars = cp.derive_params(12, d, 1.0, 0.4, "practice",
                                overrides={"m": 1, "D": 3})
        a2 = cp.stage_two(g, cp.stage_one(g, pars, 2), pars, 2)
        fam = cp.build_family(g, a2, pars)
        packing = cp.connect_family(g, fam, pars, 2)
        oracle, _ = brute_force_max_disjoint_cds(g)
        assert len(packing.sets) <= oracle
