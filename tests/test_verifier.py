from collections import Counter

import numpy as np
import pytest

from cdspack import (Graph, binomial_random, brute_force_max_disjoint_cds,
                     brute_force_min_cds, complete_graph, cycle_graph,
                     extremal_eigenvalues, glued_cliques, is_dominating,
                     petersen_graph, pipeline, random_regular, verify_packing,
                     vertex_set)
from cdspack.connector import CdsPacking
from cdspack.errors import CdsPackError, InstanceTooLarge
from cdspack.graph import concat_neighbors
from cdspack.rand import rng_for
from cdspack.verifier import VerificationReport


# -- reference: the set-by-set verifier that one labelling per packing
# replaced, kept to check that reports stay the same, failures included --

def set_search_components(g, s):
    members = vertex_set(s, g.n)
    unreached = set(members)
    comps = []
    for start in members:
        if start not in unreached:
            continue
        unreached.discard(start)
        comp = [start]
        for u in comp:
            found = unreached.intersection(g.neighbors(u).tolist())
            if found:
                unreached -= found
                comp.extend(found)
        comps.append(sorted(comp))
    return comps


def reference_dominating(g, members):
    covered = np.zeros(g.n, dtype=bool)
    if members:
        arr = np.asarray(members, dtype=np.int64)
        covered[arr] = True
        covered[concat_neighbors(g, arr)] = True
    if covered.all():
        return True, None
    return False, int(np.flatnonzero(~covered)[0])


def reference_certificate_fault(g, members, cert):
    mset = set(members)
    if len(cert) != max(len(members) - 1, 0):
        return f"certificate has {len(cert)} edges, expected {len(members) - 1}"
    parent = {v: v for v in members}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in cert:
        if u not in mset or v not in mset:
            return f"certificate edge ({u}, {v}) leaves the set"
        if not g.has_edge(u, v):
            return f"certificate edge ({u}, {v}) is not a graph edge"
        ru, rv = find(u), find(v)
        if ru == rv:
            return f"certificate edge ({u}, {v}) closes a cycle"
        parent[ru] = rv
    return None


def reference_verify(g, packing, target=None):
    sets = [list(s) for s in packing.sets]
    certs = list(packing.certificates or [])
    failures = []
    owner = {}
    disjoint = True
    for i, members in enumerate(sets):
        for v in members:
            if not 0 <= v < g.n:
                failures.append((i, "vertex out of range", v))
                continue
            if v in owner:
                disjoint = False
                failures.append((i, f"vertex shared with set {owner[v]}", v))
            else:
                owner[v] = i
    dominating, connected = [], []
    for i, members in enumerate(sets):
        if any(not 0 <= v < g.n for v in members):
            dominating.append(False)
            connected.append(False)
            continue
        members = vertex_set(members, g.n)
        dom, witness = reference_dominating(g, members)
        dominating.append(dom)
        if not dom:
            failures.append((i, "not dominating", witness))
        conn = len(set_search_components(g, members)) <= 1
        connected.append(conn)
        if not conn:
            failures.append((i, "not connected", None))
        if i < len(certs) and certs[i]:
            reason = reference_certificate_fault(g, members, certs[i])
            if reason is not None:
                failures.append((i, f"certificate invalid: {reason}", None))
    return VerificationReport(len(sets), dominating, connected, disjoint, failures,
                              target)


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


def random_certificate(rng, g, s):
    """A spanning forest of g[s], often spoiled by one or more faults.

    Faults: an edge too many or too few, an end outside the set (out of
    range included), a pair of the set that is no edge, a repeated edge or a
    chord that closes a cycle. Edges are shuffled and sometimes reversed.
    """
    members = sorted({v for v in s if 0 <= v < g.n})
    if not members:
        return [(0, 1)] if rng.random() < 0.3 else []
    mset, seen, cert = set(members), set(), []
    for root in members:
        if root in seen:
            continue
        seen.add(root)
        queue = [root]
        for u in queue:
            for w in g.neighbors(u).tolist():
                if w in mset and w not in seen:
                    seen.add(w)
                    queue.append(w)
                    cert.append((u, w))
    chords = [(u, w) for u in members for w in g.neighbors(u).tolist()
              if w in mset and u < w and (u, w) not in cert and (w, u) not in cert]
    for _ in range(int(rng.integers(0, 3))):
        fault = int(rng.integers(0, 5))
        pick = int(rng.integers(0, len(cert))) if cert else 0
        if fault == 0:
            cert.append(cert[-1] if cert else (members[0], members[0]))
        elif fault == 1 and cert:
            cert.pop(pick)
        elif fault == 2 and cert:
            others = [v for v in range(g.n) if v not in mset] or [g.n]
            outside = [-3, g.n, 2**70, others[int(rng.integers(0, len(others)))]]
            cert[pick] = (cert[pick][0], outside[int(rng.integers(0, 4))])
        elif fault == 3 and len(members) > 1:
            u, w = (int(x) for x in rng.choice(members, size=2, replace=False))
            if not g.has_edge(u, w):
                cert[pick:pick + 1] = [(u, w)]
        elif fault == 4 and cert and chords:
            cert[pick] = chords[int(rng.integers(0, len(chords)))]
    order = rng.permutation(len(cert))
    return [cert[i][::-1] if rng.random() < 0.5 else cert[i] for i in order.tolist()]


def test_verify_packing_matches_set_by_set_reference():
    """Same report as the set-by-set verifier, failures and their order
    included, on packings with overlap, repeats, out-of-range ids, empty
    sets and certificates with every kind of fault."""
    rng = rng_for(127)
    reasons = Counter()
    graphs = [random_regular(60, 6, 1), cycle_graph(7), Graph(4, []),
              glued_cliques(4)]
    graphs += [binomial_random(int(rng.integers(2, 40)), float(p), seed=i)
               for i, p in enumerate(rng.uniform(0.05, 0.6, size=30))]
    for g in graphs:
        for _ in range(20):
            sets = []
            for _ in range(int(rng.integers(0, 7))):
                if rng.random() < 0.4:  # most of the graph: often connected
                    s = rng.permutation(g.n)[:g.n - int(rng.integers(0, 3))].tolist()
                else:
                    s = rng.integers(0, g.n, size=int(rng.integers(0, g.n + 3))).tolist()
                if rng.random() < 0.15:
                    outside = [-1, g.n, g.n + 4, 2**70][int(rng.integers(0, 4))]
                    s.insert(int(rng.integers(0, len(s) + 1)), outside)
                sets.append(s)
            # certificates for a prefix of the sets; the rest have none
            certs = [random_certificate(rng, g, s)
                     for s in sets[:int(rng.integers(0, len(sets) + 1))]]
            packing = CdsPacking(None, sets, certs, [])
            want = reference_verify(g, packing, target=2).to_json()
            assert verify_packing(g, packing, target=2).to_json() == want
            reasons.update(reason for _, reason, _ in want["failures"])
    seen = " | ".join(reasons)
    for kind in ("vertex out of range", "vertex shared", "not dominating",
                 "not connected", "edges, expected", "leaves the set",
                 "is not a graph edge", "closes a cycle"):
        assert kind in seen, kind


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
    # every run ends in a typed error or in a verified packing that the
    # exact maximum bounds; at least one run must pack, or this holds vacuously
    graphs = [complete_graph(n) for n in range(5, 13)] + [petersen_graph()]
    graphs += [random_regular(12, d, s) for d in (4, 6, 8) for s in (1, 2, 3)]
    packed = 0
    for g in graphs:
        result = pipeline.run(g, extremal_eigenvalues(g), 2, 0.4)
        if result.error is not None:
            assert isinstance(result.error, CdsPackError), result.body["error"]
            continue
        assert verify_packing(g, result.packing).failures == []
        oracle, _ = brute_force_max_disjoint_cds(g)
        assert len(result.packing.sets) <= oracle
        packed += len(result.packing.sets) > 0
    assert packed >= 1
