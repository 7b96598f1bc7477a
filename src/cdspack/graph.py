"""Immutable undirected graph with sorted adjacency, plus set-level primitives.

The graph is stored CSR-style (indptr/indices) with each neighbor list sorted,
so edge queries are binary searches and neighborhoods are contiguous numpy
views. Instances are immutable after construction and safe to read from any
number of concurrent workers; every operation in this module is a pure
function of its inputs.

Vertex sets are plain sorted duplicate-free lists of ints. Any iterable of
ints is accepted on input and normalized.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

import numpy as np

from .errors import GraphFormatError


class Graph:
    """Simple undirected graph on vertex ids 0..n-1.

    Invariants: no self-loops, no duplicate neighbors, adjacency symmetric.
    Regularity is a queryable property, not an invariant.
    """

    __slots__ = ("n", "indptr", "indices", "_row_index")

    def __init__(self, n: int, edges, _trusted: bool = False):
        if n < 0:
            raise GraphFormatError("vertex count must be nonnegative")
        self.n = int(n)
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                         dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GraphFormatError("edges must be (u, v) pairs")
        if not _trusted:
            if arr.size and (arr.min() < 0 or arr.max() >= n):
                raise GraphFormatError("edge endpoint out of range")
            if np.any(arr[:, 0] == arr[:, 1]):
                raise GraphFormatError("self-loops are not allowed")
            lo = np.minimum(arr[:, 0], arr[:, 1])
            hi = np.maximum(arr[:, 0], arr[:, 1])
            keys = lo * n + hi
            if np.unique(keys).size != keys.size:
                raise GraphFormatError("duplicate edges are not allowed")
        # symmetric CSR build; per-row neighbor lists end up sorted
        src = np.concatenate([arr[:, 0], arr[:, 1]])
        dst = np.concatenate([arr[:, 1], arr[:, 0]])
        order = np.lexsort((dst, src))
        self.indices = dst[order]
        counts = np.bincount(src, minlength=n)
        self.indptr = np.concatenate(([0], np.cumsum(counts)))
        self._row_index = None

    # -- basic queries ---------------------------------------------------

    @property
    def m(self) -> int:
        return self.indices.size // 2

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def row_index(self) -> np.ndarray:
        """Row id of every adjacency slot (cached; used for bincount tricks)."""
        if self._row_index is None:
            self._row_index = np.repeat(np.arange(self.n, dtype=np.int64),
                                        self.degrees)
        return self._row_index

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of v (a read-only view)."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        i = np.searchsorted(row, v)
        return i < row.size and row[i] == v

    def regular_degree(self) -> int | None:
        """The common degree if the graph is regular, else None."""
        if self.n == 0:
            return 0
        degs = self.degrees
        d = int(degs[0])
        return d if np.all(degs == d) else None

    def edge_array(self) -> np.ndarray:
        """All edges as an (m, 2) array with u < v, lexicographically sorted."""
        mask = self.indices > self.row_index
        return np.column_stack([self.row_index[mask], self.indices[mask]])

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def vertex_set(vertices: Iterable[int], n: int | None = None) -> list[int]:
    """Normalize an iterable of vertex ids to a sorted duplicate-free list."""
    out = sorted({int(v) for v in vertices})
    if out and out[0] < 0:
        raise ValueError(f"negative vertex id {out[0]}")
    if n is not None and out and out[-1] >= n:
        raise ValueError(f"vertex id {out[-1]} out of range for n={n}")
    return out


def _as_array(g: Graph, vs) -> np.ndarray:
    arr = np.unique(np.asarray(list(vs) if not isinstance(vs, np.ndarray) else vs,
                               dtype=np.int64))
    if arr.size and (arr[0] < 0 or arr[-1] >= g.n):
        raise ValueError("vertex id out of range")
    return arr


def concat_neighbors(g: Graph, verts: np.ndarray) -> np.ndarray:
    """Concatenation of the neighbor lists of `verts` (with multiplicity)."""
    verts = np.asarray(verts, dtype=np.int64)
    if verts.size == 0:
        return np.empty(0, dtype=g.indices.dtype)
    lens = g.degrees[verts]
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=g.indices.dtype)
    starts = g.indptr[verts]
    shifts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    gather = np.arange(total, dtype=np.int64) + np.repeat(starts - shifts, lens)
    return g.indices[gather]


def edge_count_between(g: Graph, a, b) -> int:
    """Number of ordered pairs (x, y) in a x b with xy an edge of g.

    Disjointness is not required; overlapping sets count pairs per
    orientation, which keeps the count symmetric in its arguments.
    """
    a_arr = _as_array(g, a)
    b_arr = _as_array(g, b)
    if a_arr.size == 0 or b_arr.size == 0:
        return 0
    b_mask = np.zeros(g.n, dtype=bool)
    b_mask[b_arr] = True
    return int(b_mask[concat_neighbors(g, a_arr)].sum())


def gamma_restricted(g: Graph, a, b) -> list[int]:
    """Vertices of b that have at least one neighbor in a."""
    a_arr = _as_array(g, a)
    b_arr = _as_array(g, b)
    if a_arr.size == 0 or b_arr.size == 0:
        return []
    touched = np.zeros(g.n, dtype=bool)
    touched[concat_neighbors(g, a_arr)] = True
    return b_arr[touched[b_arr]].tolist()


def components_of(g: Graph, s) -> list[list[int]]:
    """Connected components of the induced subgraph g[s].

    Each component is sorted; components are ordered by smallest member.
    """
    s_arr = _as_array(g, s)
    if s_arr.size == 0:
        return []
    in_s = np.zeros(g.n, dtype=bool)
    in_s[s_arr] = True
    seen = np.zeros(g.n, dtype=bool)
    comps: list[list[int]] = []
    for start in s_arr.tolist():
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in g.neighbors(u).tolist():
                if in_s[w] and not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def induced_subgraph(g: Graph, s) -> tuple[Graph, list[int]]:
    """Induced subgraph on s with local ids, plus the local->global mapping."""
    s_arr = _as_array(g, s)
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[s_arr] = np.arange(s_arr.size)
    edges = []
    for local_u, u in enumerate(s_arr.tolist()):
        nbrs = g.neighbors(u)
        locals_ = pos[nbrs]
        for local_w in locals_[locals_ >= 0].tolist():
            if local_u < local_w:
                edges.append((local_u, local_w))
    return Graph(int(s_arr.size), edges, _trusted=True), s_arr.tolist()


# -- edge-list text format ----------------------------------------------
#
# First line `n m`, then m lines `u v` with u < v, whitespace-separated,
# LF-terminated. The loader rejects loops, duplicates and out-of-range ids.

def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise GraphFormatError("expected header line 'n m'")
        try:
            n, m = int(header[0]), int(header[1])
        except ValueError as exc:
            raise GraphFormatError(f"bad header: {exc}") from None
        edges = []
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: expected 'u v'")
            u, v = int(parts[0]), int(parts[1])
            if u == v:
                raise GraphFormatError(f"line {lineno}: self-loop {u}")
            if u > v:
                raise GraphFormatError(f"line {lineno}: endpoints must satisfy u < v")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"line {lineno}: vertex id out of range")
            edges.append((u, v))
    if len(edges) != m:
        raise GraphFormatError(f"header promises {m} edges, file has {len(edges)}")
    try:
        return Graph(n, edges)
    except GraphFormatError as exc:
        raise GraphFormatError(str(exc)) from None


def save_graph(g: Graph, path) -> None:
    edges = g.edge_array()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{g.n} {g.m}\n")
        for u, v in edges.tolist():
            fh.write(f"{u} {v}\n")
