"""Connect each dominating set through the reservoir.

For one set: seed a linear forest with one representative per component,
then repeatedly (1) attach a bounded-arity tree to one endpoint of every
current path, (2) label tree vertices by tree and take the first host edge,
in ascending vertex order, whose ends lie in two different trees, (3) add
that edge, extract the unique tree-path it closes between two path
endpoints, and (4) roll everything else back leaf-by-leaf. Each round merges
exactly two paths, so a set with k components finishes after k - 1 rounds
with a single path whose interior lies in the reservoir.

The forest is shared across sets and only ever grows by finalized path
vertices of sets that connect (a failed set's paths are undone); reservoir
vertices are therefore used by at most one path across the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log

import numpy as np

from .coloring import DominatingFamily
from .errors import (BudgetExceeded, CdsPackError, EmbeddingFailed, NoCrossEdge,
                     VerificationFailed)
from .extendable import (ExtendableForest, TreeSpec, add_edge, attach_tree,
                         balanced_depth, new_forest, rollback)
from .graph import Graph, components_of, induced_subgraph
from .params import PackingParams
from .rand import rng_for
from .spectral import expansion_check
from .verifier import VerificationReport, verify_packing

STEP_RETRY_CAP = 6


@dataclass
class PathRecord:
    """One reservoir path between two representatives."""

    endpoints: tuple[int, int]
    internal: list[int]
    set_index: int
    length: int
    length_bound: float

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
    def from_json(cls, data: dict) -> "CdsPacking":
        paths = [
            PathRecord(
                endpoints=tuple(p["endpoints"]),
                internal=list(p["internal"]),
                set_index=int(p["set"]),
                length=len(p["internal"]) + 1,
                length_bound=float("nan"),
            )
            for p in data.get("paths", [])
        ]
        certs = [[tuple(e) for e in cert] for cert in data.get("certificates", [])]
        return cls(params=data.get("params"), sets=[list(s) for s in data["sets"]],
                   certificates=certs, paths=paths)


def choose_representatives(g: Graph, family: DominatingFamily) -> list[list[int]]:
    """Lowest-id vertex of each component of every set, in ascending order."""
    return [[comp[0] for comp in components_of(g, members)]
            for members in family.sets]


class _StepFailed(Exception):
    """Internal: one merge round failed; retry with fresh randomness."""


def _tree_size(params: PackingParams, k: int, arity: int, unused: int) -> int:
    base = min(params.s // (3 * k), params.d)
    capacity = unused // (2 * k)
    return max(arity + 1, min(base, capacity))


def _connect_step(forest: ExtendableForest, paths: list[list[int]],
                  params: PackingParams, arity: int, depth_cap: int,
                  seed_tags: tuple) -> tuple[list[int], int, int]:
    """One merge round. Returns (internal chain, root_a, root_b).

    Mutates `paths` (two entries merge into one) and the forest (internal
    chain finalized, all other tree growth rolled back). On failure the
    forest is restored and _StepFailed raised.
    """
    k = len(paths)
    entries = sorted((min(p[0], p[-1]), idx) for idx, p in enumerate(paths))
    unused = forest.host.n - forest.size
    size = _tree_size(params, k, arity, unused)
    spec = TreeSpec(arity=arity, size=size,
                    depth_cap=min(depth_cap, balanced_depth(size, arity) + 1))
    greedy = seed_tags[-1] == 0  # first try per step is deterministic greedy
    trees = []
    try:
        for j, (endpoint, _) in enumerate(entries):
            trees.append(attach_tree(forest, endpoint, spec,
                                     rng_for(*seed_tags, j).integers(0, 2**63),
                                     greedy_first=greedy))
    except (EmbeddingFailed, BudgetExceeded):
        for t in trees:
            rollback(forest, t.added)
        raise _StepFailed() from None

    tree_of = np.full(forest.host.n, -1, dtype=np.int64)
    for i, t in enumerate(trees):
        tree_of[t.vertices] = i
    edge = None
    for u in np.flatnonzero(tree_of >= 0).tolist():
        nbrs = forest.host.neighbors(u)
        labels = tree_of[nbrs]
        hits = nbrs[(labels >= 0) & (labels != tree_of[u])]
        if hits.size:
            edge = u, int(hits[0])
            break
    if edge is None:
        for t in trees:
            rollback(forest, t.added)
        raise _StepFailed()

    u, v = edge
    ia, ib = int(tree_of[u]), int(tree_of[v])
    chain_a = trees[ia].path_to_root(u)   # u ... root_a
    chain_b = trees[ib].path_to_root(v)   # v ... root_b
    add_edge(forest, u, v)
    full_chain = list(reversed(chain_a)) + chain_b  # root_a .. u v .. root_b
    keep = set(full_chain)
    discard = []
    for t in trees:
        discard.extend(w for w in t.added if w not in keep)
    rollback(forest, discard)
    internal = full_chain[1:-1]
    forest.protected.update(internal)

    (root_a, idx_a), (root_b, idx_b) = entries[ia], entries[ib]
    pa = paths[idx_a] if paths[idx_a][-1] == root_a else list(reversed(paths[idx_a]))
    pb = paths[idx_b] if paths[idx_b][0] == root_b else list(reversed(paths[idx_b]))
    merged = pa + internal + pb
    for idx in sorted((idx_a, idx_b), reverse=True):
        del paths[idx]
    paths.append(merged)
    return internal, root_a, root_b


def connect_one(forest: ExtendableForest, x_local: list[int], set_index: int,
                params: PackingParams, seed: int) -> list[PathRecord]:
    """Merge the representatives of one set's components into a single path.

    Maintains the loop invariants: path interiors in the reservoir, one fewer
    component per round, recorded per-round length bounds (enforced in theory
    mode), and the forest never past its budget.
    """
    arity = params.D // 2 - 1
    if arity < 2:
        raise CdsPackError(f"D = {params.D} gives tree arity {arity} < 2; "
                           f"override D to at least 6")
    depth_cap = max(1, int(log(max(params.n, 2)) / log(arity)))
    paths = [[x] for x in sorted(x_local)]
    k0 = len(paths)
    records: list[PathRecord] = []
    for step in range(k0 - 1):
        k = len(paths)
        for retry in range(STEP_RETRY_CAP):
            try:
                internal, root_a, root_b = _connect_step(
                    forest, paths, params, arity, depth_cap,
                    (seed, set_index, step, retry))
                break
            except _StepFailed:
                continue
        else:
            raise NoCrossEdge(
                f"set {set_index}: round {step} found no cross edge after "
                f"{STEP_RETRY_CAP} retries")
        bound = 2 * log(params.n / k) / log(arity) + 1
        length = len(internal) + 1
        if params.mode == "theory" and length > bound:
            raise CdsPackError(
                f"path length {length} exceeds bound {bound:.3f} in theory mode")
        to_global = forest.to_global
        records.append(PathRecord(
            endpoints=(to_global[root_a], to_global[root_b]),
            internal=[to_global[w] for w in internal],
            set_index=set_index,
            length=length,
            length_bound=bound,
        ))
        if len(paths) != k - 1:
            raise CdsPackError(
                f"component audit failed: {len(paths)} paths after merge, "
                f"expected {k - 1}")
    return records


def spanning_certificate(g: Graph, members: list[int]) -> list[tuple[int, int]]:
    """BFS spanning-tree edges of g[members], from the lowest vertex."""
    mset = set(members)
    if len(members) <= 1:
        return []
    root = min(members)
    seen = {root}
    frontier = [root]
    edges: list[tuple[int, int]] = []
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


def connect_family(g: Graph, family: DominatingFamily, params: PackingParams,
                   seed: int, max_sets: int | None = None) -> CdsPacking:
    """Run the connector over every set and assemble a verified packing.

    `max_sets` caps how many sets are connected (a partial packing is still
    sound, just smaller). A set whose connection fails is left out of the
    packing and listed in `meta["failed_sets"]`; the forest is restored to
    its state before that set, so the reservoir vertices of its
    already-finalized paths stay open to the sets after it. Each packing
    returned, even an empty one, carries its one `verify_packing` report.
    """
    reps = choose_representatives(g, family)
    count = len(reps) if max_sets is None else min(len(reps), max_sets)
    chosen = list(range(count))
    if not chosen:
        return _verified(g, CdsPacking(
            params=params, sets=[], certificates=[], paths=[],
            meta={"family_indices": [], "failed_sets": [],
                  "total_internal": 0, "expansion_certified": False}))

    x_union = sorted({v for i in chosen for v in reps[i]})
    hosts = sorted(set(x_union) | set(family.reservoir))
    gprime, to_global = induced_subgraph(g, hosts)
    local = {glob: loc for loc, glob in enumerate(to_global)}

    forest = new_forest(gprime, [local[v] for v in x_union], params.m, params.D,
                        params.s, to_global=to_global)
    certified = _certify_expansion(g, family, params, x_union)

    b_set = set(family.reservoir)
    sets_out: list[list[int]] = []
    certs: list[list[tuple[int, int]]] = []
    paths_out: list[PathRecord] = []
    connected_sets: list[int] = []
    failed_sets: list[int] = []
    total_internal = 0
    for i in chosen:
        recs: list[PathRecord] = []
        if family.component_counts[i] > 1:
            adj = {v: list(nbrs) for v, nbrs in forest.adj.items()}
            protected = set(forest.protected)
            try:
                recs = connect_one(forest, [local[v] for v in reps[i]], i,
                                   params, seed)
            except (NoCrossEdge, EmbeddingFailed, BudgetExceeded):
                forest.adj, forest.protected = adj, protected
                failed_sets.append(i)
                continue
        internal = [v for rec in recs for v in rec.internal]
        bad = [v for v in internal if v not in b_set]
        if bad:
            raise CdsPackError(f"internal vertices {bad} are not in the reservoir")
        total_internal += len(internal)
        members = sorted(set(family.sets[i]) | set(internal))
        sets_out.append(members)
        certs.append(spanning_certificate(g, members))
        for rec in recs:
            rec.set_index = len(connected_sets)  # index into the packing's sets
        paths_out.extend(recs)
        connected_sets.append(i)

    if params.mode == "theory" and total_internal > params.s / 2:
        raise BudgetExceeded(
            f"total path vertices {total_internal} exceed s/2 = {params.s / 2}")

    return _verified(g, CdsPacking(
        params=params, sets=sets_out, certificates=certs, paths=paths_out,
        meta={
            "family_indices": connected_sets,
            "failed_sets": failed_sets,
            "total_internal": total_internal,
            "expansion_certified": certified,
        },
    ))


def _verified(g: Graph, packing: CdsPacking) -> CdsPacking:
    packing.verification = verify_packing(g, packing)
    if packing.verification.failures:
        raise VerificationFailed(packing.verification)
    return packing


def _certify_expansion(g: Graph, family: DominatingFamily, params: PackingParams,
                       x_union: list[int]) -> bool:
    """Run the seed-set expansion check when its preconditions are in reach."""
    k = params.d / (36 * params.lambda_used) if params.lambda_used > 0 else 0.0
    if k <= 1 or len(x_union) > g.n / (12 * k):
        if params.mode == "theory":
            raise CdsPackError(
                "expansion check preconditions unsatisfiable "
                f"(k = {k:.4f}); cannot certify the seed forest")
        return False
    eps_eff = min(1.0, 1.5 * params.b_prob)
    try:
        report = expansion_check(g, family.reservoir, x_union, eps_eff, k)
    except ValueError:
        if params.mode == "theory":
            raise
        return False
    if params.mode == "theory" and not report.passed:
        raise CdsPackError(f"expansion check failed: ratio {report.ratio:.3f} "
                           f"< {report.threshold:.3f}")
    return bool(report.passed)
