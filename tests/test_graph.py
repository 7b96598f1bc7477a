import numpy as np
import pytest

from cdspack import (Graph, components_of, complete_graph, cycle_graph,
                     edge_count_between, gamma_restricted, induced_subgraph,
                     load_graph, save_graph, vertex_set)
from cdspack.errors import GraphFormatError
from cdspack.rand import rng_for


def test_construction_rejects_bad_edges():
    with pytest.raises(GraphFormatError):
        Graph(3, [(0, 0)])
    with pytest.raises(GraphFormatError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphFormatError):
        Graph(3, [(0, 5)])
    with pytest.raises(GraphFormatError):
        Graph(3, [(-1, 2)])


def test_adjacency_is_sorted_and_symmetric():
    g = Graph(5, [(2, 4), (0, 2), (1, 2), (0, 4)])
    assert g.neighbors(2).tolist() == [0, 1, 4]
    for u in range(5):
        for v in g.neighbors(u).tolist():
            assert g.has_edge(v, u)
    assert not g.has_edge(1, 3)


def test_edge_count_examples():
    k4 = complete_graph(4)
    assert edge_count_between(k4, [0, 1], [2, 3]) == 4
    c5 = cycle_graph(5)
    assert edge_count_between(c5, [0], [2, 3]) == 0
    assert edge_count_between(c5, [0, 1], [1, 2]) == 2  # pairs (0,1) and (1,2)


def test_edge_count_symmetry_and_self():
    c5 = cycle_graph(5)
    a, b = [0, 1, 2], [1, 3]
    assert edge_count_between(c5, a, b) == edge_count_between(c5, b, a)
    # e(a, a) counts each internal edge twice
    assert edge_count_between(c5, [0, 1, 2], [0, 1, 2]) == 4


def test_edge_count_matches_double_loop():
    rng = rng_for(77)
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        take = rng.random(len(pairs)) < 0.3
        g = Graph(n, [p for p, t in zip(pairs, take) if t])
        a = sorted(set(rng.integers(0, n, size=int(rng.integers(0, 13))).tolist()))
        b = sorted(set(rng.integers(0, n, size=int(rng.integers(0, 13))).tolist()))
        brute = sum(1 for x in a for y in b if g.has_edge(x, y))
        assert edge_count_between(g, a, b) == brute


def test_gamma_restricted_examples():
    c5 = cycle_graph(5)
    assert gamma_restricted(c5, [0], [1, 2]) == [1]
    assert gamma_restricted(c5, [0, 2], list(range(5))) == [1, 3, 4]
    assert gamma_restricted(c5, [0], []) == []


def test_components_examples():
    c5 = cycle_graph(5)
    assert components_of(c5, [0, 1, 3]) == [[0, 1], [3]]
    assert components_of(c5, list(range(5))) == [[0, 1, 2, 3, 4]]
    assert components_of(c5, []) == []


def test_components_partition_property():
    rng = rng_for(79)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        take = rng.random(len(pairs)) < 0.15
        g = Graph(n, [p for p, t in zip(pairs, take) if t])
        s = sorted(set(rng.integers(0, n, size=n // 2).tolist()))
        comps = components_of(g, s)
        flat = sorted(v for comp in comps for v in comp)
        assert flat == s
        owner = {}
        for i, comp in enumerate(comps):
            for v in comp:
                assert v not in owner
                owner[v] = i
        for u in s:
            for w in g.neighbors(u).tolist():
                if w in owner:
                    assert owner[w] == owner[u]


def test_vertex_set_normalizes():
    assert vertex_set([3, 1, 1, 2]) == [1, 2, 3]
    with pytest.raises(ValueError):
        vertex_set([0, 5], n=3)
    with pytest.raises(ValueError):
        vertex_set([-1])


def test_edge_list_round_trip(tmp_path):
    g = cycle_graph(6)
    path = tmp_path / "c6.txt"
    save_graph(g, path)
    h = load_graph(path)
    assert h.n == g.n
    assert np.array_equal(h.edge_array(), g.edge_array())
    # byte determinism of the writer
    path2 = tmp_path / "c6b.txt"
    save_graph(g, path2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("body", [
    "3\n0 1\n",                       # bad header
    "3 1\n0 0\n",                     # loop
    "3 1\n1 0\n",                     # order violation
    "3 1\n0 7\n",                     # out of range
    "3 2\n0 1\n0 1\n",                # duplicate
    "3 2\n0 1\n",                     # count mismatch
])
def test_loader_rejections(tmp_path, body):
    path = tmp_path / "bad.txt"
    path.write_text(body)
    with pytest.raises(GraphFormatError):
        load_graph(path)


def test_induced_subgraph():
    c6 = cycle_graph(6)
    sub, mapping = induced_subgraph(c6, [1, 2, 4])
    assert mapping == [1, 2, 4]
    assert sub.n == 3
    assert sub.has_edge(0, 1)       # 1-2 survives
    assert not sub.has_edge(1, 2)   # 2-4 is not an edge
    assert sub.degree(2) == 0
