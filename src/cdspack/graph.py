"""Immutable undirected graph with sorted adjacency, plus set-level primitives.

The graph is stored CSR-style (indptr/indices) with each neighbor list sorted,
so edge queries are binary searches and neighborhoods are contiguous numpy
views. Instances are immutable after construction and safe to read from any
number of concurrent workers; every operation in this module is a pure
function of its inputs.

Vertex sets are plain sorted duplicate-free lists of ints. Any iterable of
ints is accepted on input and normalized.

Construction, set-level operations and the edge-list loader run as numpy
array passes: the CSR comes from one sort of the directed edge keys, and
`load_graph` tokenises the whole file at once, then finds the first bad line
in file order with array masks. `components_of` is the exception, a search
over Python sets: an array labelling is faster on sets of thousands of
vertices but costs about 0.1 ms per call, which callers that test many tiny
sets, such as exhaustive checks of small graphs, cannot afford.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import GraphFormatError


class Graph:
    """Simple undirected graph on vertex ids 0..n-1.

    Invariants: no self-loops, no duplicate neighbors, adjacency symmetric.
    Regularity is a queryable property, not an invariant.
    """

    __slots__ = ("n", "indptr", "indices", "degrees", "_row_index")

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
        # symmetric CSR build: one sort of the keys row·n + neighbour orders
        # rows and, within each row, its neighbours; a repeated edge, in
        # either orientation, leaves two equal keys side by side
        u, v = arr[:, 0], arr[:, 1]
        keys = np.sort(np.concatenate([u * n + v, v * n + u]))
        if not _trusted and np.any(keys[1:] == keys[:-1]):
            raise GraphFormatError("duplicate edges are not allowed")
        rows, self.indices = np.divmod(keys, max(n, 1))
        self.indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
        self.degrees = np.diff(self.indptr)
        self._row_index = None

    # -- basic queries ---------------------------------------------------

    @property
    def m(self) -> int:
        return self.indices.size // 2

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
    arr = np.sort(np.asarray(list(vs) if not isinstance(vs, np.ndarray) else vs,
                             dtype=np.int64))
    keep = np.ones(arr.size, dtype=bool)
    keep[1:] = arr[1:] != arr[:-1]
    arr = arr[keep]
    if arr.size and (arr[0] < 0 or arr[-1] >= g.n):
        raise ValueError("vertex id out of range")
    return arr


def concat_neighbors(g: Graph, verts: np.ndarray) -> np.ndarray:
    """Concatenation of the neighbor lists of `verts` (with multiplicity)."""
    verts = np.asarray(verts, dtype=np.int64)
    if verts.size == 0:
        return np.empty(0, dtype=g.indices.dtype)
    lens = g.degrees[verts]
    ends = lens.cumsum()
    # slot k of vertex v's run reads indices[indptr[v] + k]
    gather = np.arange(ends[-1]) + (g.indptr[verts] - (ends - lens)).repeat(lens)
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
    Breadth-first search from each unreached vertex in turn; a vertex's
    unreached neighbours come from one intersection with the set of
    unreached vertices.
    """
    members = vertex_set(s, g.n)
    unreached = set(members)
    comps: list[list[int]] = []
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


def induced_subgraph(g: Graph, s) -> tuple[Graph, list[int]]:
    """Induced subgraph on s with local ids, plus the local->global mapping."""
    s_arr = _as_array(g, s)
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[s_arr] = np.arange(s_arr.size)
    local_u = np.repeat(np.arange(s_arr.size), g.degrees[s_arr])
    local_w = pos[concat_neighbors(g, s_arr)]
    keep = local_w > local_u  # each edge once; -1 marks neighbours outside s
    edges = np.column_stack([local_u[keep], local_w[keep]])
    return Graph(int(s_arr.size), edges, _trusted=True), s_arr.tolist()


# -- edge-list text format ----------------------------------------------
#
# First line `n m`, then m lines `u v` with 0 <= u < v < n, whitespace-
# separated, LF- or CRLF-terminated; blank lines are skipped. A vertex id is
# an optionally signed decimal of at most _MAX_DIGITS characters. The loader
# rejects malformed lines, loops, reversed pairs, out-of-range ids, count
# mismatches and duplicates, naming the first bad line in file order.

_WORD = np.ones(256, dtype=bool)  # bytes that are not ASCII whitespace
_WORD[list(b" \t\n\v\f\r")] = False
_MAX_DIGITS = 18  # every such decimal fits in an int64


def _int_tokens(body: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Whitespace-separated tokens of `body`, parsed as integers in array passes.

    Returns (starts, ends, values, valid): each token's byte span, its value,
    and whether it is an integer at all (the value of one that is not means
    nothing).
    """
    # a writable copy, padded so that reading _MAX_DIGITS bytes from any
    # token start stays inside it
    buf = np.concatenate([np.frombuffer(body, dtype=np.uint8),
                          np.full(_MAX_DIGITS, ord(" "), dtype=np.uint8)])
    word = np.concatenate(([False], _WORD[buf], [False]))
    steps = np.diff(word.view(np.int8))
    starts, ends = np.flatnonzero(steps == 1), np.flatnonzero(steps == -1)
    lens = ends - starts
    negative = buf[starts] == ord("-")
    signed = (negative | (buf[starts] == ord("+"))) & (lens > 1)
    buf[starts[signed]] = ord("0")  # a sign reads as a leading zero
    valid = lens <= _MAX_DIGITS
    values = np.zeros(starts.size, dtype=np.int64)
    for j in range(min(int(lens.max(initial=0)), _MAX_DIGITS)):
        digit = buf[starts + j] - np.uint8(ord("0"))  # wraps below "0"
        inside = lens > j
        take = inside & (digit <= 9)
        valid &= take == inside
        np.multiply(values, 10, out=values, where=take)
        np.add(values, digit, out=values, where=take)
    np.negative(values, out=values, where=negative)
    return starts, ends, values, valid


def load_graph(path) -> Graph:
    with open(path, "rb") as fh:
        data = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    head, _, body = data.partition(b"\n")
    header = head.decode("utf-8", errors="replace").split()
    if len(header) != 2:
        raise GraphFormatError("expected header line 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise GraphFormatError(f"bad header: {exc}") from None

    starts, ends, values, valid = _int_tokens(body)
    newlines = np.flatnonzero(np.frombuffer(body, dtype=np.uint8) == ord("\n"))
    line = np.searchsorted(newlines, starts)  # 0 is the file's line 2
    per_line = np.bincount(line)
    malformed = np.flatnonzero((per_line != 0) & (per_line != 2))
    # the tokens before the first malformed line pair up as (u, v)
    stop = int(np.searchsorted(line, malformed[0])) if malformed.size else starts.size
    u, v = values[0:stop:2], values[1:stop:2]
    ok_u, ok_v = valid[0:stop:2], valid[1:stop:2]
    bad = ~(ok_u & ok_v) | (u >= v) | (u < 0) | (v >= n)
    if bad.any():
        i = int(np.argmax(bad))
        if not (ok_u[i] and ok_v[i]):
            t = 2 * i + int(ok_u[i])
            token = body[starts[t]:ends[t]].decode("utf-8", errors="replace")
            reason = f"{token!r} is not an integer vertex id"
        elif u[i] == v[i]:
            reason = f"self-loop {u[i]}"
        elif u[i] > v[i]:
            reason = "endpoints must satisfy u < v"
        else:
            reason = "vertex id out of range"
        raise GraphFormatError(f"line {line[2 * i] + 2}: {reason}")
    if malformed.size:
        raise GraphFormatError(f"line {malformed[0] + 2}: expected 'u v'")
    if u.size != m:
        raise GraphFormatError(f"header promises {m} edges, file has {u.size}")
    return Graph(n, np.column_stack([u, v]))


def save_graph(g: Graph, path) -> None:
    edges = g.edge_array()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{g.n} {g.m}\n")
        for u, v in edges.tolist():
            fh.write(f"{u} {v}\n")
