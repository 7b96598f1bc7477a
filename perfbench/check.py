"""Independent checks of a packing, from the edge list and the packing alone.

Nothing here imports cdspack: the benchmark must not trust the program's own
verifier, so that a change which weakens the verifier cannot pass. The edge
list is parsed with its own reader and sets are traversed with their own
breadth-first search over a CSR adjacency built here.
"""

from __future__ import annotations

import numpy as np


class EdgeListError(ValueError):
    """The edge-list file does not follow the `n m` / `u v` format."""


def read_edge_list(path) -> tuple[int, np.ndarray]:
    """(n, edges) from a file with a header `n m` and then `u v` per line."""
    with open(path, "rb") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise EdgeListError(f"{path}: expected header 'n m'")
        n, m = int(header[0]), int(header[1])
        flat = np.array(fh.read().split(), dtype=np.int64)
    if flat.size != 2 * m:
        raise EdgeListError(f"{path}: header promises {m} edges, "
                            f"file has {flat.size / 2:g}")
    edges = flat.reshape(m, 2)
    if m and (edges.min() < 0 or edges.max() >= n):
        raise EdgeListError(f"{path}: vertex id out of range")
    return n, edges


class Adjacency:
    """Undirected CSR adjacency of an edge array, for traversals."""

    def __init__(self, n: int, edges: np.ndarray):
        src = np.concatenate([edges[:, 0], edges[:, 1]])
        dst = np.concatenate([edges[:, 1], edges[:, 0]])
        order = np.argsort(src, kind="stable")
        self.n = n
        self.targets = dst[order]
        self.offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=self.offsets[1:])

    def neighbours(self, verts: np.ndarray) -> np.ndarray:
        """Neighbours of every vertex in `verts`, concatenated."""
        starts = self.offsets[verts]
        lens = self.offsets[verts + 1] - starts
        total = int(lens.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        run_start = np.cumsum(lens) - lens
        slots = np.arange(total, dtype=np.int64) + np.repeat(starts - run_start, lens)
        return self.targets[slots]


def _reached(adj: Adjacency, in_set: np.ndarray, start: int) -> np.ndarray:
    """Mask of the set members reachable from `start` inside the set."""
    seen = np.zeros(adj.n, dtype=bool)
    seen[start] = True
    frontier = np.array([start], dtype=np.int64)
    while frontier.size:
        nxt = adj.neighbours(frontier)
        nxt = np.unique(nxt[in_set[nxt] & ~seen[nxt]])
        seen[nxt] = True
        frontier = nxt
    return seen


def packing_problems(adj: Adjacency, sets) -> list[str]:
    """Every way `sets` fails to be disjoint connected dominating sets.

    An empty list means the packing is valid.
    """
    problems: list[str] = []
    owner = np.full(adj.n, -1, dtype=np.int64)
    for i, raw in enumerate(sets):
        members = np.asarray(raw, dtype=np.int64)
        if members.size == 0:
            problems.append(f"set {i} is empty")
            continue
        if members.min() < 0 or members.max() >= adj.n:
            problems.append(f"set {i} has a vertex id out of range")
            continue
        if np.unique(members).size != members.size:
            problems.append(f"set {i} lists a vertex twice")
            members = np.unique(members)
        shared = members[owner[members] >= 0]
        if shared.size:
            problems.append(f"set {i} shares vertex {int(shared[0])} "
                            f"with set {int(owner[shared[0]])}")
        owner[members[owner[members] < 0]] = i

        in_set = np.zeros(adj.n, dtype=bool)
        in_set[members] = True
        covered = in_set.copy()
        covered[adj.neighbours(members)] = True
        if not covered.all():
            problems.append(f"set {i} does not dominate vertex "
                            f"{int(np.flatnonzero(~covered)[0])}")
        if not _reached(adj, in_set, int(members[0]))[members].all():
            problems.append(f"set {i} is not connected")
    return problems
