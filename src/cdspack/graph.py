"""Immutable undirected graph with sorted adjacency, plus set-level primitives.

The graph is stored CSR-style (indptr/indices) with each neighbor list sorted,
so edge queries are binary searches and neighborhoods are contiguous numpy
views. Instances are immutable after construction and safe to read from any
number of concurrent workers; every operation in this module is a pure
function of its inputs.

Vertex sets are plain sorted duplicate-free lists of ints. Any iterable of
ints is accepted on input and normalized.

Construction, set-level operations and the edge-list loader run as numpy
array passes: the CSR comes from one sort of the directed edge keys. A file
in the plain layout that `save_graph` writes (`u v` and one LF per line) is
checked by a few byte masks and parsed in one C pass; any other layout, and
every file the loader rejects, goes through the general path, which
tokenises the whole body at once and finds the first bad line in file order
with array masks. The format and the messages are the same on both paths.
`label_components` finds the components and closed neighbourhoods of many
sets at once, one (set, vertex) item per membership, by min-label
propagation with pointer jumping; `components_of` is its one-set form. A
call on a few sets of a tiny graph is a few dozen numpy calls, cheap enough
for exhaustive checks of small graphs to make one per packing.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, NamedTuple

import numpy as np

from .errors import GraphFormatError


class Graph:
    """Simple undirected graph on vertex ids 0..n-1.

    Invariants: no self-loops, no duplicate neighbors, adjacency symmetric.
    Regularity is a queryable property, not an invariant.
    """

    __slots__ = ("n", "indptr", "indices", "degrees")

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

    # -- basic queries ---------------------------------------------------

    @property
    def m(self) -> int:
        return self.indices.size // 2

    @property
    def row_index(self) -> np.ndarray:
        """Row id of every adjacency slot (built per call, not kept)."""
        return np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)

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
        rows = self.row_index
        mask = self.indices > rows
        return np.column_stack([rows[mask], self.indices[mask]])

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
    gather = np.arange(ends[-1])
    gather += (g.indptr[verts] - (ends - lens)).repeat(lens)
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


class SetComponents(NamedTuple):
    """Components and closed neighbourhoods of k vertex sets of one graph.

    One item per distinct (set, vertex) membership, sorted by set and then by
    vertex: item i is vertex `vertex[i]` of set `owner[i]`, and `root[i]` is
    the lowest vertex of its component in the subgraph that set induces.
    `uncovered[j]` is the lowest vertex outside the closed neighbourhood of
    set j, or n when set j dominates the graph.
    """

    owner: np.ndarray
    vertex: np.ndarray
    root: np.ndarray
    uncovered: np.ndarray

    def lowest(self) -> list[list[int]]:
        """Each set's lowest vertex per component, in ascending order."""
        first = self.vertex == self.root
        lowest = self.vertex[first].tolist()
        bounds = np.searchsorted(self.owner[first], np.arange(self.uncovered.size + 1))
        return [lowest[a:b] for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())]


def label_components(g: Graph, sets) -> SetComponents:
    """Label the components of g[s] for every s in `sets` in one array pass.

    Each set is a sequence of vertex ids in 0..n-1 (not checked here), in
    any order and with repeats; sets may be empty or overlap, and each is
    labelled on its own. A table with one row of n + 1 cells per set dedupes
    and sorts the (set, vertex) items, tells which gathered neighbours share
    an item's set, and marks every set's closed neighbourhood; the edges
    inside each set then go to `min_labels`. Sets are taken in blocks whose
    table has no more cells than the graph has adjacency slots, so memory
    stays within the graph's own size however many sets there are.
    """
    n, k = g.n, len(sets)
    step = max(1, g.indices.size // max(n, 1))
    if k > step:
        starts = range(0, k, step)
        parts = [label_components(g, sets[i:i + step]) for i in starts]
        return SetComponents(
            np.concatenate([p.owner + i for p, i in zip(parts, starts)]),
            np.concatenate([p.vertex for p in parts]),
            np.concatenate([p.root for p in parts]),
            np.concatenate([p.uncovered for p in parts]))
    sizes = [len(s) for s in sets]
    flat = np.fromiter(chain.from_iterable(sets), dtype=np.int64, count=sum(sizes))
    # row j holds set j; its last cell stays clear, so argmin finds a gap
    table = np.zeros(k * (n + 1), dtype=bool)
    table[np.arange(0, k * (n + 1), n + 1).repeat(sizes) + flat] = True
    keys = table.nonzero()[0]
    owner, vertex = np.divmod(keys, n + 1)
    items = np.arange(keys.size)
    index = np.empty(table.size, dtype=np.int64)
    index[keys] = items  # the item of each member cell; no other cell is read
    degrees = g.degrees[vertex]
    near = concat_neighbors(g, vertex)
    near += (keys - vertex).repeat(degrees)  # now (set, neighbour) cells
    inside = table[near].nonzero()[0]
    labels = min_labels(keys.size, items.repeat(degrees)[inside], index[near[inside]])
    table[near] = True
    uncovered = table.reshape(k, n + 1).argmin(axis=1)
    return SetComponents(owner, vertex, vertex[labels], uncovered)


def min_labels(size: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lowest index in the component of each of 0..size-1, for edges a[e]-b[e].

    Every edge must be listed in both directions. Min-label propagation with
    pointer jumping (Shiloach & Vishkin, J. Algorithms 1982): each round
    hooks the label of a, its parent, to the label of b where that is lower,
    then replaces every label by its label's label. A label only falls and
    always names an index of its own component no higher than itself, so
    once both ends of every edge agree, each component carries its lowest
    index. Hooking parents rather than the ends themselves lets whole trees
    merge in one round: on paths numbered at random, 1024 vertices settled
    in 8 rounds and 65536 in 15, where hooking the ends took 605 and 27780.
    """
    labels = np.arange(size)
    across = b  # labels[b] while labels is the identity
    while True:
        np.minimum.at(labels, labels[a], across)
        labels = labels[labels]
        across = labels[b]
        if not np.count_nonzero(labels[a] != across):
            return labels


def components_of(g: Graph, s) -> list[list[int]]:
    """Connected components of the induced subgraph g[s].

    Each component is sorted; components are ordered by smallest member.
    """
    lab = label_components(g, [vertex_set(s, g.n)])
    order = np.argsort(lab.root, kind="stable")
    roots, members = lab.root[order], lab.vertex[order]
    if members.size == 0:
        return []
    cuts = np.flatnonzero(roots[1:] != roots[:-1]) + 1
    return [comp.tolist() for comp in np.split(members, cuts)]


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


def _plain_edges(body: bytes, n: int, m: int) -> np.ndarray | None:
    """The (m, 2) edge rows of a body in the plain layout, else None.

    The plain layout is what `save_graph` and `cdspack gen` write: m lines
    `u v` of digits, one space and one LF each, tokens of at most
    _MAX_DIGITS digits, and 0 <= u < v < n. Such a body is parsed in one C
    pass. Any other body, and a plain one that breaks a value rule, gets
    None and goes to the general path, which names its first bad line.
    """
    buf = np.frombuffer(body, dtype=np.uint8)
    breaks = np.flatnonzero(buf - np.uint8(ord("0")) > 9)  # wraps below "0"
    if m <= 0 or breaks.size != 2 * m or breaks[-1] != buf.size - 1:
        return None
    lens = np.diff(breaks, prepend=-1) - 1  # every token's length
    if (lens.min() < 1 or lens.max() > _MAX_DIGITS
            or np.any(buf[breaks[0::2]] != ord(" "))
            or np.any(buf[breaks[1::2]] != ord("\n"))):
        return None
    edges = np.fromstring(body, dtype=np.int64, sep=" ").reshape(m, 2)
    if np.any(edges[:, 0] >= edges[:, 1]) or np.any(edges[:, 1] >= n):
        return None
    return edges


def _checked_edges(body: bytes, n: int, m: int) -> np.ndarray:
    """The (m, 2) edge rows of a body in any accepted layout; raises
    GraphFormatError naming the first bad line in file order."""
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
    return np.column_stack([u, v])


def load_graph(path) -> Graph:
    with open(path, "rb") as fh:
        raw = fh.read()
    data = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    head, _, body = data.partition(b"\n")
    header = head.decode("utf-8", errors="replace").split()
    if len(header) != 2:
        raise GraphFormatError("expected header line 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise GraphFormatError(f"bad header: {exc}") from None
    edges = _plain_edges(body, n, m) if b"\r" not in raw else None  # CRs: not plain
    if edges is None:
        edges = _checked_edges(body, n, m)
    return Graph(n, edges)


def save_graph(g: Graph, path) -> None:
    # one format of the whole text and one write: formatting line by line
    # costs several times more on graphs of a million edges
    text = ("%d %d\n" * g.m) % tuple(g.edge_array().ravel().tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{g.n} {g.m}\n{text}")
