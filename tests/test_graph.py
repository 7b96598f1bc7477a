from collections import deque

import numpy as np
import pytest

from cdspack import (Graph, binomial_random, components_of, complete_graph,
                     cycle_graph, edge_count_between, load_graph, random_regular,
                     save_graph, vertex_set)
from cdspack import graph
from cdspack.graph import concat_neighbors, label_components, min_labels
from cdspack.connector import spanning_certificate
from cdspack.errors import CdsPackError, GraphFormatError
from cdspack.rand import rng_for


# -- references: the per-line loader and the loop-based builders the array
# code replaced, kept to check that it gives the same graphs and messages --

def reference_csr(n, edges):
    """(indptr, indices) by lexsort, after the unique-key duplicate check."""
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    if np.unique(lo * n + hi).size != len(arr):
        raise GraphFormatError("duplicate edges are not allowed")
    src = np.concatenate([arr[:, 0], arr[:, 1]])
    dst = np.concatenate([arr[:, 1], arr[:, 0]])
    indices = dst[np.lexsort((dst, src))]
    return np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n)))), indices


def reference_load(path):
    """Line by line; tokens are taken to be plain decimals."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise GraphFormatError("expected header line 'n m'")
        try:
            n, m = int(header[0]), int(header[1])
        except ValueError as exc:
            raise GraphFormatError(f"bad header: {exc}") from None
        edges, lines = [], []
        for lineno, raw in enumerate(fh, start=2):
            parts = raw.split()
            if not parts:
                continue
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: expected 'u v'")
            for token in parts:
                if not token.lstrip("+-").isdigit() or len(token) > 18:
                    raise GraphFormatError(
                        f"line {lineno}: {token!r} is not an integer vertex id")
            u, v = int(parts[0]), int(parts[1])
            if u == v:
                raise GraphFormatError(f"line {lineno}: self-loop {u}")
            if u > v:
                raise GraphFormatError(f"line {lineno}: endpoints must satisfy u < v")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"line {lineno}: vertex id out of range")
            edges.append((u, v))
            lines.append(lineno)
    if len(edges) != m:
        raise GraphFormatError(f"header promises {m} edges, file has {len(edges)}")
    if n < 0:
        raise GraphFormatError("vertex count must be nonnegative")
    seen = set()
    for (u, v), lineno in zip(edges, lines):
        if (u, v) in seen:
            raise GraphFormatError(f"line {lineno}: duplicate edge ({u}, {v})")
        seen.add((u, v))
    return reference_csr(n, edges)


def reference_components(g, s):
    """Breadth-first search from each unseen vertex of s, in ascending order."""
    in_s = set(s)
    seen = set()
    comps = []
    for start in sorted(in_s):
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in g.neighbors(u).tolist():
                if w in in_s and w not in seen:
                    seen.add(w)
                    comp.append(w)
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def set_search_components(g, s):
    """The set search `label_components` replaced, one set at a time."""
    members = vertex_set(s, g.n)
    unreached = set(members)
    comps = []
    for start in members:
        if start not in unreached:
            continue
        unreached.discard(start)
        comp = [start]
        for u in comp:  # comp grows behind the loop: a BFS queue
            found = unreached.intersection(g.neighbors(u).tolist())
            if found:
                unreached -= found
                comp.extend(found)
        comps.append(sorted(comp))
    return comps


def reference_certificate(g, members):
    """BFS from the lowest vertex, one neighbour at a time."""
    mset = set(members)
    if len(members) <= 1:
        return []
    root = min(members)
    seen = {root}
    frontier = [root]
    edges = []
    while frontier:
        nxt = []
        for u in frontier:
            for w in g.neighbors(u).tolist():
                if w in mset and w not in seen:
                    seen.add(w)
                    edges.append((min(u, w), max(u, w)))
                    nxt.append(w)
        frontier = nxt
    if len(seen) != len(members):
        raise CdsPackError("certificate requested for a disconnected set")
    return edges


def outcome(fn, *args):
    """The CSR arrays fn builds, or the message of the GraphFormatError it raises."""
    try:
        result = fn(*args)
    except GraphFormatError as exc:
        return str(exc)
    if isinstance(result, Graph):
        result = result.indptr, result.indices
    return [a.tolist() for a in result]


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


def test_concat_neighbors_matches_per_vertex_lists():
    # vertex 5 is isolated, so runs of length 0 sit between the others
    g = Graph(7, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 6)])
    for verts in ([], [5], [5, 5], [2], [2, 5, 0], [6, 3, 3, 1], list(range(7))):
        want = [w for v in verts for w in g.neighbors(v).tolist()]
        assert concat_neighbors(g, np.asarray(verts, dtype=np.int64)).tolist() == want


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


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_components_match_reference_bfs(seed):
    g = random_regular(400, 8, seed)
    rng = rng_for(97, seed)
    for size in rng.integers(0, 400, size=100).tolist():
        s = rng.integers(0, 400, size=size).tolist()  # unsorted, with repeats
        assert components_of(g, s) == reference_components(g, s)


def random_sets(rng, n, count):
    """Unsorted sets with repeats, some empty; sets overlap and may recur."""
    sets = [rng.integers(0, n, size=int(rng.integers(0, n + 2))).tolist()
            for _ in range(count)]
    if sets and rng.random() < 0.5:
        sets.insert(int(rng.integers(0, len(sets))), list(reversed(sets[0])))
    return sets


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_label_components_matches_set_search(seed):
    """Every set is labelled on its own, as the old search labelled it alone,
    including when the sets outnumber the average degree and are labelled
    in blocks."""
    rng = rng_for(113, seed)
    graphs = [random_regular(400, 8, seed), cycle_graph(9), Graph(5, [])]
    graphs += [binomial_random(int(rng.integers(2, 60)), float(p), seed=seed)
               for p in rng.uniform(0.01, 0.3, size=20)]
    for g in graphs:
        for _ in range(5):
            sets = random_sets(rng, g.n, int(rng.integers(0, 12)))
            lab = label_components(g, sets)
            expected = [set_search_components(g, s) for s in sets]
            split = lab.lowest()
            assert [[c.tolist() for c in comps] for comps in split] == expected
            assert all(c.dtype == np.int64 for comps in split for c in comps)
            for j, (s, comps) in enumerate(zip(sets, expected)):
                mine = lab.owner == j
                assert lab.vertex[mine].tolist() == vertex_set(s)
                root = dict(zip(lab.vertex[mine].tolist(), lab.root[mine].tolist()))
                assert root == {v: comp[0] for comp in comps for v in comp}
                closed = set(s).union(*(g.neighbors(v).tolist() for v in s))
                assert lab.uncovered[j] == min(set(range(g.n)) - closed, default=g.n)
                assert components_of(g, s) == comps


@pytest.mark.parametrize("order", ["sorted", "permuted"])
def test_min_labels_rounds_grow_with_log_size(monkeypatch, order):
    """A path of 1024 vertices, numbered along it or at random, settles in at
    most 2·log2(1024) rounds; propagation along edges alone, or hooking
    without pointer jumping, needs hundreds of rounds or never settles."""
    rounds = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def count_nonzero(self, x):  # one call ends each round
            rounds.append(1)
            assert len(rounds) <= 20, "too many rounds"
            return np.count_nonzero(x)

    size = 1024
    ids = np.arange(size) if order == "sorted" else rng_for(131).permutation(size)
    a, b = ids[:-1], ids[1:]
    monkeypatch.setattr(graph, "np", CountingNumpy())
    labels = min_labels(size, np.concatenate([a, b]), np.concatenate([b, a]))
    assert labels.tolist() == [0] * size


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


REJECTIONS = [
    ("3\n0 1\n", "expected header line 'n m'"),
    ("3 x\n", "bad header: invalid literal for int() with base 10: 'x'"),
    ("3 1\n0 0\n", "line 2: self-loop 0"),
    ("3 1\n1 0\n", "line 2: endpoints must satisfy u < v"),
    ("3 1\n0 7\n", "line 2: vertex id out of range"),
    ("3 1\n-1 2\n", "line 2: vertex id out of range"),
    ("3 2\n0 1\n0 1\n", "line 3: duplicate edge (0, 1)"),
    ("3 3\r\n0 1\r\n1 2\r\n0 1\r\n", "line 4: duplicate edge (0, 1)"),
    ("3 3\n1 2\n\n0 1\n1 2\n", "line 5: duplicate edge (1, 2)"),
    # repeats are looked for once every line parses
    ("3 3\n0 1\n0 1\n0 x\n", "line 4: 'x' is not an integer vertex id"),
    ("3 2\n0 1\n", "header promises 2 edges, file has 1"),
    ("3 1\n0 x\n", "line 2: 'x' is not an integer vertex id"),
    ("3 2\n0 1\n1.5 2\n", "line 3: '1.5' is not an integer vertex id"),
    ("3 2\n0 1\n1 2 2\n", "line 3: expected 'u v'"),
    ("3 2\n0 1\n\n2\n", "line 4: expected 'u v'"),
    # the first bad line in file order wins, whatever its rule
    ("3 3\n1 2\n2 1\n0 1 2\n", "line 3: endpoints must satisfy u < v"),
    ("3 3\n1 2\n0 1 2\n2 1\n", "line 3: expected 'u v'"),
    ("3 3\n1 2\n0 x\n0 1 2\n", "line 3: 'x' is not an integer vertex id"),
    ("-1 0\n", "vertex count must be nonnegative"),
]


@pytest.mark.parametrize("body, message", REJECTIONS,
                         ids=[body for body, _ in REJECTIONS])
def test_loader_rejections(tmp_path, body, message):
    path = tmp_path / "bad.txt"
    path.write_text(body)
    with pytest.raises(GraphFormatError) as exc:
        load_graph(path)
    assert str(exc.value) == message


def _layouts():
    """Edge-list bodies in the layouts the loader accepts, and rejections."""
    g = random_regular(60, 4, 1)
    lines = [f"{u} {v}" for u, v in g.edge_array().tolist()]
    shuffled = [lines[i] for i in rng_for(3).permutation(len(lines))]
    head = f"{g.n} {g.m}"
    pairs = [tuple(map(int, x.split())) for x in shuffled]

    def plain(rows, m=g.m):
        """Header `n m`, then each row and one LF."""
        return f"{g.n} {m}\n" + "".join(f"{x}\n" for x in rows)

    def edge_12(text):
        """The shuffled plain body, its 12th edge line (line 13) replaced."""
        return plain(shuffled[:11] + [text] + shuffled[12:])

    u, v = pairs[11]
    return {
        "sorted": head + "\n" + "\n".join(lines) + "\n",
        "shuffled": head + "\n" + "\n".join(shuffled) + "\n",
        "crlf": head + "\r\n" + "\r\n".join(shuffled) + "\r\n",
        "cr": head + "\r" + "\r".join(shuffled) + "\r",
        "blank-lines": head + "\n\n" + "\n\n".join(shuffled) + "\n\n\n",
        "trailing-space": head + " \n" + "".join(f" {x}\t \n" for x in shuffled),
        "no-final-newline": head + "\n" + "\n".join(shuffled),
        "signs": head + "\n" + "\n".join("+" + x.replace(" ", " +0") for x in shuffled),
        "crlf-bad-line": head + "\r\n" + "\r\n".join(shuffled[:9] + ["7"]) + "\r\n",
        # plain layout: one C pass, unless a value rule fails
        "leading-zeros": plain(f"{a:03d} {b:05d}" for a, b in pairs),
        "18-digit-tokens": plain(f"{a:018d} {b:018d}" for a, b in pairs),
        "double-space": edge_12(f"{u}  {v}"),
        "tab": edge_12(f"{u}\t{v}"),
        "rejection-19-digit-token": edge_12(f"{u:019d} {v}"),
        "rejection-18-digit-id": edge_12(f"{u} {10 ** 18 - 1}"),
        "rejection-reversed": edge_12(f"{v} {u}"),
        "rejection-self-loop": edge_12(f"{u} {u}"),
        "rejection-out-of-range": edge_12(f"{u} {g.n}"),
        "rejection-duplicate": plain(shuffled + [shuffled[5]], g.m + 1),
        "rejection-crlf-duplicate": f"{g.n} {g.m + 1}\r\n" + "\r\n".join(
            shuffled[:20] + [shuffled[5]] + shuffled[20:]) + "\r\n",
        "rejection-count-mismatch": plain(shuffled[:-1]),
        "rejection-one-token": edge_12(f"{u} "),
        "rejection-unterminated-token": plain(shuffled) + "7",
        **{f"rejection-{i}": body for i, (body, _) in enumerate(REJECTIONS)},
    }


@pytest.mark.parametrize("name", list(_layouts()))
def test_loader_matches_reference(tmp_path, name):
    path = tmp_path / "g.txt"
    path.write_bytes(_layouts()[name].encode())
    assert outcome(load_graph, path) == outcome(reference_load, path)
    if not name.startswith("rejection") and name != "crlf-bad-line":
        assert isinstance(outcome(load_graph, path), list)


@pytest.mark.parametrize("name, general", [
    ("sorted", False), ("shuffled", False), ("leading-zeros", False),
    ("saved", False), ("crlf", True), ("cr", True), ("blank-lines", True),
    ("signs", True), ("trailing-space", True), ("double-space", True), ("tab", True),
    ("rejection-reversed", True)])
def test_only_the_plain_layout_skips_the_tokeniser(tmp_path, monkeypatch, name, general):
    """A plain file is parsed without `_int_tokens`; every other layout, and a
    plain file that breaks a value rule, goes through it."""
    calls = []
    real = graph._int_tokens

    def counted(body):
        calls.append(len(body))
        return real(body)

    monkeypatch.setattr(graph, "_int_tokens", counted)
    path = tmp_path / "g.txt"
    if name == "saved":
        save_graph(random_regular(60, 4, 1), path)
    else:
        path.write_bytes(_layouts()[name].encode())
    outcome(load_graph, path)
    assert len(calls) >= 1 if general else calls == []


@pytest.mark.parametrize("g", [random_regular(600, 8, 1), Graph(5, [])],
                         ids=["regular-600-8", "no-edges"])
def test_save_graph_matches_line_by_line_writer(tmp_path, g):
    path, reference = tmp_path / "g.txt", tmp_path / "reference.txt"
    save_graph(g, path)
    with open(reference, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{g.n} {g.m}\n")
        for u, v in g.edge_array().tolist():
            fh.write(f"{u} {v}\n")
    assert path.read_bytes() == reference.read_bytes()


def test_csr_build_matches_lexsort_reference():
    rng = rng_for(83)
    for trial in range(300):
        n = int(rng.integers(1, 40))
        pairs = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        if trial % 3 == 0 and len(pairs):  # repeat an edge, reversed
            pairs = np.vstack([pairs, pairs[-1, ::-1]])
        assert outcome(Graph, n, pairs) == outcome(reference_csr, n, pairs)
        keys = np.unique(np.sort(pairs, axis=1), axis=0)
        assert outcome(Graph, n, keys, True) == outcome(reference_csr, n, keys)


def test_certificate_matches_reference_bfs():
    g = random_regular(400, 8, 2)
    rng = rng_for(89)
    connected = 0
    for size in rng.integers(0, 400, size=200).tolist():
        s = sorted(set(rng.integers(0, 400, size=size).tolist()))
        try:
            expected = reference_certificate(g, s)
        except CdsPackError:
            with pytest.raises(CdsPackError):
                spanning_certificate(g, s)
            continue
        cert = spanning_certificate(g, s)
        assert cert.dtype == np.int64 and cert.shape == (len(expected), 2)
        # row by row: same edges, same order, each as (lower, higher)
        assert [tuple(row) for row in cert.tolist()] == expected
        connected += 1
    assert connected > 20
