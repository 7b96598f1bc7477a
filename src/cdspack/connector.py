"""Connect each dominating set through the reservoir.

A set's classes start as the components of the subgraph it induces. While
more than one is left, the smallest class (ties go to its lowest vertex)
searches level by level through the free reservoir vertices no class holds.
The first level that reaches a vertex of another class ends the search: the
lowest such vertex, reached from its first discoverer in frontier order,
closes a shortest free-reservoir path between the two classes, and the path
joins them, its interior included, into one class. A set with k components
thus gets k - 1 paths, each with its interior in the reservoir.

The free-reservoir mask is shared across sets. A connected set's path
interiors leave it for good, so each reservoir vertex is used by at most one
path across the whole run; a set that cannot be joined takes none of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coloring import DominatingFamily
from .errors import CdsPackError, NoCrossEdge, PackingFormatError, VerificationFailed
from .graph import Graph, concat_neighbors, label_components
from .params import PackingParams
from .verifier import VerificationReport, verify_packing
# unused here, but perfbench/trace_pack.py wraps this connector attribute
from .graph import components_of  # noqa: F401

# perfbench/trace_pack.py wraps these names of deleted helpers; never called
attach_tree = rollback = add_edge = expansion_check = induced_subgraph = None


@dataclass
class PathRecord:
    """One reservoir path joining two classes of a set."""

    endpoints: tuple[int, int]
    internal: list[int]
    set_index: int

    @property
    def length(self) -> int:
        """Edges on the path: one more than its internal vertices."""
        return len(self.internal) + 1

    def to_json(self) -> dict:
        return {
            "endpoints": list(self.endpoints),
            "internal": list(self.internal),
            "set": self.set_index,
        }


@dataclass
class CdsPacking:
    """Final disjoint connected dominating sets with certificates and paths."""

    params: PackingParams | dict | None
    sets: list[list[int]]
    certificates: list[list[tuple[int, int]]]
    paths: list[PathRecord]
    meta: dict = field(default_factory=dict)
    verification: VerificationReport | None = None  # not in the JSON

    def to_json(self) -> dict:
        params = self.params.to_json() if hasattr(self.params, "to_json") else self.params
        return {
            "params": params,
            "sets": [list(s) for s in self.sets],
            "certificates": [[list(e) for e in cert] for cert in self.certificates],
            "paths": [p.to_json() for p in self.paths],
        }

    @classmethod
    def from_json(cls, data) -> "CdsPacking":
        """Read a packing document, or raise PackingFormatError on a wrong shape."""
        if not isinstance(data, dict):
            raise PackingFormatError("a packing must be a JSON object")
        sets = [_ints(s, "a set") for s in _items(data.get("sets"), "sets")]
        certs = [[tuple(_ints(e, "a certificate edge", 2))
                  for e in _items(cert, "a certificate")]
                 for cert in _items(data.get("certificates", []), "certificates")]
        paths = []
        for p in _items(data.get("paths", []), "paths"):
            if not isinstance(p, dict):
                raise PackingFormatError("each path must be a JSON object")
            paths.append(PathRecord(
                endpoints=tuple(_ints(p.get("endpoints"), "a path's endpoints", 2)),
                internal=_ints(p.get("internal"), "a path's internal vertices"),
                set_index=_ints([p.get("set")], "a path's set index")[0],
            ))
        return cls(params=data.get("params"), sets=sets, certificates=certs,
                   paths=paths)


def _items(value, what: str) -> list:
    if not isinstance(value, list):
        raise PackingFormatError(f"{what} must be a JSON list")
    return value


def _ints(value, what: str, size: int | None = None) -> list[int]:
    """`value` if it is a list of integers (of length `size`, when given)."""
    if (not isinstance(value, list) or size not in (None, len(value))
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in value)):
        count = "" if size is None else f"{size} "
        raise PackingFormatError(f"{what} must be a list of {count}integers")
    return list(value)


def choose_representatives(g: Graph, family: DominatingFamily) -> list[list[int]]:
    """Lowest-id vertex of each component of every set, in ascending order.

    build_family found them when it counted each set's components.
    """
    return family.representatives


def _shortest_join(g: Graph, sources: np.ndarray, cls: np.ndarray,
                   free: np.ndarray) -> list[int] | None:
    """Shortest path from `sources` to another class through free classless vertices.

    `cls[v]` is the class of v, or -1. Each level is searched in ascending
    vertex order; a vertex is reached from its first discoverer. Returns the
    path from its source to the lowest vertex of another class on the first
    level that reaches one, or None when the search runs out.
    """
    own = cls[sources[0]]
    # -1: free and unreached; -2: never entered; otherwise the vertex's parent
    reach = np.where(free & (cls < 0), -1, -2)
    frontier = sources
    while frontier.size:
        near = concat_neighbors(g, frontier)
        via = np.repeat(frontier, g.degrees[frontier])
        label = cls[near]
        hit = np.flatnonzero((label >= 0) & (label != own))
        if hit.size:
            j = hit[np.argmin(near[hit])]  # argmin keeps the first discoverer
            path = [int(near[j]), int(via[j])]
            while reach[path[-1]] >= 0:
                path.append(int(reach[path[-1]]))
            return path[::-1]
        fresh = reach[near] == -1
        frontier, first = np.unique(near[fresh], return_index=True)
        reach[frontier] = via[fresh][first]
    return None


def connect_one(g: Graph, members: list[int], free: np.ndarray,
                set_index: int) -> list[PathRecord]:
    """Join the components of one set by shortest free-reservoir paths.

    `free` marks the reservoir vertices that no earlier set's path uses; it
    is only read. Each round joins the smallest class to its nearest one, so
    there is one class fewer per round. Raises NoCrossEdge when a class can
    reach no other.
    """
    lab = label_components(g, [members])
    order = np.argsort(lab.root, kind="stable")
    roots, vertices = lab.root[order], lab.vertex[order]
    cuts = np.flatnonzero(roots[1:] != roots[:-1]) + 1
    classes = dict(enumerate(np.split(vertices, cuts)))  # each sorted ascending
    cls = np.full(g.n, -1, dtype=np.int64)
    for c, vs in classes.items():
        cls[vs] = c
    records: list[PathRecord] = []
    while len(classes) > 1:
        c = min(classes, key=lambda c: (classes[c].size, classes[c][0]))
        path = _shortest_join(g, classes[c], cls, free)
        if path is None:
            raise NoCrossEdge(f"set {set_index}: no free reservoir path leaves "
                              f"the class of vertex {classes[c][0]}")
        internal = path[1:-1]
        other = int(cls[path[-1]])
        joined = np.sort(np.concatenate(
            [classes.pop(c), np.array(internal, dtype=np.int64), classes.pop(other)]))
        cls[joined] = c
        classes[c] = joined
        records.append(PathRecord(
            endpoints=(path[0], path[-1]),
            internal=internal,
            set_index=set_index,
        ))
    return records


def spanning_certificate(g: Graph, members: list[int]) -> list[tuple[int, int]]:
    """BFS spanning-tree edges of g[members], from the lowest vertex.

    One level at a time: each vertex is claimed by its first discoverer, in
    frontier order and then in ascending neighbour order.
    """
    if len(members) <= 1:
        return []
    in_set = np.zeros(g.n, dtype=bool)
    in_set[members] = True
    frontier = np.array([min(members)], dtype=np.int64)
    in_set[frontier] = False  # reached vertices leave the set
    reached = 1
    edges: list[tuple[int, int]] = []
    while frontier.size:
        found = concat_neighbors(g, frontier)
        parent = np.repeat(frontier, g.degrees[frontier])
        fresh = in_set[found]
        found, parent = found[fresh], parent[fresh]
        # first discoveries, in scan order
        claim = np.sort(np.unique(found, return_index=True)[1])
        frontier, parent = found[claim], parent[claim]
        in_set[frontier] = False
        reached += frontier.size
        edges.extend(zip(np.minimum(parent, frontier).tolist(),
                         np.maximum(parent, frontier).tolist()))
    if reached != len(members):
        raise CdsPackError("certificate requested for a disconnected set")
    return edges


def connect_family(g: Graph, family: DominatingFamily, params: PackingParams,
                   max_sets: int | None = None) -> CdsPacking:
    """Run the connector over every set and assemble a verified packing.

    `max_sets` caps how many sets are connected (a partial packing is still
    sound, just smaller). A set whose connection fails is left out of the
    packing and listed in `meta["failed_sets"]`; its paths take no reservoir
    vertex from the sets after it. Each packing returned, even an empty one,
    carries its one `verify_packing` report. `params` is only carried into
    the packing.
    """
    reps = choose_representatives(g, family)
    count = len(reps) if max_sets is None else min(len(reps), max_sets)
    free = np.zeros(g.n, dtype=bool)
    free[family.reservoir] = True
    sets_out: list[list[int]] = []
    certs: list[list[tuple[int, int]]] = []
    paths_out: list[PathRecord] = []
    connected_sets: list[int] = []
    failed_sets: list[int] = []
    total_internal = 0
    for i in range(count):
        recs: list[PathRecord] = []
        if family.component_counts[i] > 1:
            try:
                recs = connect_one(g, family.sets[i], free, i)
            except NoCrossEdge:
                failed_sets.append(i)
                continue
        internal = [v for rec in recs for v in rec.internal]
        bad = [v for v in internal if not free[v]]
        if bad:
            raise CdsPackError(
                f"internal vertices {bad} are not free reservoir vertices")
        free[internal] = False
        total_internal += len(internal)
        members = sorted(set(family.sets[i]) | set(internal))
        sets_out.append(members)
        certs.append(spanning_certificate(g, members))
        for rec in recs:
            rec.set_index = len(connected_sets)  # index into the packing's sets
        paths_out.extend(recs)
        connected_sets.append(i)

    return _verified(g, CdsPacking(
        params=params, sets=sets_out, certificates=certs, paths=paths_out,
        meta={
            "family_indices": connected_sets,
            "failed_sets": failed_sets,
            "total_internal": total_internal,
        },
    ))


def _verified(g: Graph, packing: CdsPacking) -> CdsPacking:
    packing.verification = verify_packing(g, packing)
    if packing.verification.failures:
        raise VerificationFailed(packing.verification)
    return packing
