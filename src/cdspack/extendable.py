"""Bounded-degree forest maintenance with tree attachment and rollbacks.

The forest lives inside a host graph (typically the induced subgraph on the
representatives plus the reservoir) and supports the four moves the path
connector needs: seeding with an independent set, attaching a bounded-arity
tree at a low-degree vertex, adding a component-merging edge, and deleting
leaves so unused scaffolding can be rolled back.

Extendability (the expansion inequality over all small vertex sets) is
verified exactly only on small instances via `is_extendable_exact`; at scale
the embedder maintains it heuristically (greedy expansion-aware child
selection plus rollback/retry) and final outputs are certified downstream by
the verifier module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from .errors import BudgetExceeded, EmbeddingFailed, InstanceTooLarge
from .graph import Graph
from .rand import rng_for

ATTACH_RETRY_CAP = 50
_ATTACH_TAG = 21


@dataclass(frozen=True)
class TreeSpec:
    """Shape request: an `arity`-ary tree on `size` vertices (root included).

    depth_cap bounds how ragged the embedding may get; None means balanced
    depth plus one level of slack.
    """

    arity: int
    size: int
    depth_cap: int | None = None

    def __post_init__(self):
        if self.arity < 2:
            raise ValueError("arity must be at least 2")
        if self.size < 1:
            raise ValueError("size must be at least 1")


def balanced_depth(size: int, arity: int) -> int:
    """Depth of the complete arity-ary tree that first reaches `size` vertices."""
    total, level, depth = 1, 1, 0
    while total < size:
        level *= arity
        total += level
        depth += 1
    return depth


@dataclass
class EmbeddedTree:
    """One attached tree: root, its vertices in embed order, and parent links."""

    root: int
    vertices: list[int]
    added: list[int]              # vertices minus the root
    parent: dict[int, int]

    def path_to_root(self, v: int) -> list[int]:
        chain = [v]
        while chain[-1] != self.root:
            chain.append(self.parent[chain[-1]])
        return chain


@dataclass
class ExtendableForest:
    """A forest inside `host`, with degree caps and a vertex budget.

    `protected` holds vertices that rollback may never delete: the seed set
    and every vertex finalized into a path.
    """

    host: Graph
    to_global: list[int]
    m: int
    D: int
    budget_s: int
    adj: dict[int, list[int]] = field(default_factory=dict)
    protected: set[int] = field(default_factory=set)

    @property
    def size(self) -> int:
        return len(self.adj)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def __contains__(self, v: int) -> bool:
        return v in self.adj

    def snapshot(self) -> dict[int, tuple[int, ...]]:
        """Cheap comparable copy of the forest structure (for tests/audits)."""
        return {v: tuple(sorted(nbrs)) for v, nbrs in self.adj.items()}

    def component_of(self, v: int) -> set[int]:
        seen = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in self.adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen


def new_forest(gprime: Graph, x, m: int, D: int, s: int,
               to_global: list[int] | None = None) -> ExtendableForest:
    """Seed a forest with the independent set on x (vertices, no edges)."""
    members = sorted({int(v) for v in x})
    if not members:
        raise ValueError("seed set must be nonempty")
    if members[0] < 0 or members[-1] >= gprime.n:
        raise ValueError("seed vertex out of range")
    if m < 1 or D < 3:
        raise ValueError("need m >= 1 and D >= 3")
    if len(members) > s:
        raise BudgetExceeded(f"|x| = {len(members)} exceeds budget s = {s}")
    forest = ExtendableForest(
        host=gprime,
        to_global=list(to_global) if to_global is not None else list(range(gprime.n)),
        m=m, D=D, budget_s=s)
    for v in members:
        forest.adj[v] = []
        forest.protected.add(v)
    return forest


def attach_tree(forest: ExtendableForest, root: int, spec: TreeSpec,
                seed: int, greedy_first: bool = True) -> EmbeddedTree:
    """Embed an arity-ary tree of `spec.size` vertices rooted at `root`.

    New vertices come from host vertices not yet in the forest. Children are
    chosen greedily to maximize the candidate's count of unused neighbors
    (ties to the lowest id); on a dead end the partial tree is discarded and
    the next attempt reorders candidates at random, up to ATTACH_RETRY_CAP.
    """
    if root not in forest:
        raise ValueError(f"root {root} is not a forest vertex")
    if forest.degree(root) > forest.D // 2 - 1:
        raise ValueError(
            f"root degree {forest.degree(root)} exceeds D/2 - 1 = {forest.D // 2 - 1}")
    if forest.size + spec.size > forest.budget_s:
        raise BudgetExceeded(
            f"forest size {forest.size} + tree size {spec.size} exceeds "
            f"budget {forest.budget_s}")
    if spec.size == 1:
        return EmbeddedTree(root, [root], [], {})
    depth_cap = spec.depth_cap
    if depth_cap is None:
        depth_cap = balanced_depth(spec.size, spec.arity) + 1
    for attempt in range(ATTACH_RETRY_CAP):
        rng = None
        if not greedy_first or attempt > 0:
            rng = rng_for(seed, _ATTACH_TAG, attempt)
        tree = _try_embed(forest, root, spec.arity, spec.size, depth_cap, rng)
        if tree is not None:
            for child in tree.added:
                forest.adj[child] = [tree.parent[child]]
                forest.adj[tree.parent[child]].append(child)
            return tree
    raise EmbeddingFailed(
        f"could not embed tree of size {spec.size} at {root} "
        f"after {ATTACH_RETRY_CAP} attempts")


def _try_embed(forest: ExtendableForest, root: int, arity: int, size: int,
               depth_cap: int, rng) -> EmbeddedTree | None:
    host = forest.host
    new_set: set[int] = set()
    parent: dict[int, int] = {}
    order = [root]
    level = [root]
    placed = 1

    def unused(w: int) -> bool:
        return w not in forest.adj and w not in new_set

    def residual(w: int) -> int:
        return sum(1 for x in host.neighbors(w).tolist() if unused(x))

    lvl = 0
    while placed < size:
        lvl += 1
        if lvl > depth_cap:
            return None
        next_level: list[int] = []
        for node in level:
            if placed >= size:
                break
            cand = [w for w in host.neighbors(node).tolist() if unused(w)]
            if not cand:
                continue
            if rng is None:
                cand.sort(key=lambda w: (-residual(w), w))
            else:
                cand = [cand[i] for i in rng.permutation(len(cand))]
            for w in cand[:min(arity, size - placed)]:
                new_set.add(w)
                parent[w] = node
                order.append(w)
                next_level.append(w)
                placed += 1
        if not next_level:
            return None
        level = next_level
    return EmbeddedTree(root, order, order[1:], parent)


def add_edge(forest: ExtendableForest, u: int, v: int) -> None:
    """Record an edge between two distinct forest components.

    Both endpoints must already be forest vertices of degree at most D-1 and
    the edge must exist in the host; same-component edges are rejected since
    they would close a cycle.
    """
    if u not in forest or v not in forest:
        raise ValueError("both endpoints must be forest vertices")
    if not forest.host.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not a host edge")
    if forest.degree(u) > forest.D - 1 or forest.degree(v) > forest.D - 1:
        raise ValueError("endpoint degree would exceed D")
    if v in forest.component_of(u):
        raise ValueError(f"{u} and {v} are in the same forest component")
    forest.adj[u].append(v)
    forest.adj[v].append(u)


def remove_leaf(forest: ExtendableForest, leaf: int) -> None:
    """Delete a degree-1 unprotected vertex and its edge."""
    if leaf not in forest:
        raise ValueError(f"{leaf} is not a forest vertex")
    if forest.degree(leaf) != 1:
        raise ValueError(f"{leaf} has degree {forest.degree(leaf)}, not a leaf")
    if leaf in forest.protected:
        raise ValueError(f"{leaf} is protected")
    (nbr,) = forest.adj[leaf]
    forest.adj[nbr].remove(leaf)
    del forest.adj[leaf]


def rollback(forest: ExtendableForest, vertices) -> None:
    """Remove a set of vertices leaf-by-leaf (deepest first within each tree)."""
    remaining = {int(v) for v in vertices}
    while remaining:
        removable = sorted(
            v for v in remaining
            if forest.degree(v) == 1 and v not in forest.protected)
        if not removable:
            raise RuntimeError(
                f"rollback stuck: {sorted(remaining)} are not removable leaves")
        for v in removable:
            remove_leaf(forest, v)
            remaining.discard(v)


def is_extendable_exact(forest: ExtendableForest, u_cap: int,
                        max_subsets: int = 2_000_000) -> tuple[bool, list[int] | None]:
    """Exhaustively check the extendability inequality over all small U.

    For every U with |U| <= min(2m, u_cap):
        |Gamma(U) \\ V(S)| >= (D-1)|U| - sum over x in U∩V(S) of (deg_S(x) - 1)
    Returns (True, None) or (False, first violating U). Intended for test
    instances; the subset count is guarded.
    """
    host = forest.host
    n = host.n
    cap = min(2 * forest.m, u_cap)
    total = sum(comb(n, k) for k in range(1, cap + 1))
    if total > max_subsets:
        raise InstanceTooLarge(
            f"{total} subsets exceed the guard of {max_subsets}")
    nbr_mask = [0] * n
    for v in range(n):
        acc = 0
        for w in host.neighbors(v).tolist():
            acc |= 1 << w
        nbr_mask[v] = acc
    s_mask = 0
    for v in forest.adj:
        s_mask |= 1 << v
    d_minus_1 = forest.D - 1
    for k in range(1, cap + 1):
        for u_tuple in combinations(range(n), k):
            gamma = 0
            for v in u_tuple:
                gamma |= nbr_mask[v]
            lhs = (gamma & ~s_mask).bit_count()
            rhs = d_minus_1 * k
            for v in u_tuple:
                if v in forest.adj:
                    rhs -= forest.degree(v) - 1
            if lhs < rhs:
                return False, list(u_tuple)
    return True, None
