"""Seeded graph generators: random regular, binomial, and fixture graphs.

All randomness comes from PCG64 keyed by the caller's seed (see rand.py),
so identical specs reproduce byte-identical edge lists across machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor, log, log1p

import numpy as np

from .errors import GenerationError
from .graph import Graph
from .rand import rng_for

RESTART_CAP = 1000
_ROUND_CAP = 200


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one generated graph."""

    kind: str  # regular | binomial | glued_cliques | complete | cycle | petersen
    n: int = 0
    d: int = 0
    p: float = 0.0
    k: int = 0
    seed: int = 0


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Random simple d-regular graph on n vertices via the pairing model.

    Degree stubs are paired uniformly at random; pairs that would create a
    loop or a multi-edge recycle their stubs into the next round. When a
    round makes no progress and no suitable pair remains, the whole attempt
    restarts, up to RESTART_CAP attempts.
    """
    if (n * d) % 2 != 0:
        raise ValueError("n * d must be even")
    if not 0 < d < n:
        raise ValueError("need 0 < d < n")
    rng = rng_for(seed, 1)
    for _ in range(RESTART_CAP):
        keys = _pairing_attempt(rng, n, d)
        if keys is not None:
            edges = np.column_stack([keys // n, keys % n])
            return Graph(n, edges, _trusted=True)
    raise GenerationError(
        f"pairing model failed {RESTART_CAP} times for n={n} d={d}")


def _pairing_attempt(rng: np.random.Generator, n: int, d: int) -> np.ndarray | None:
    existing = np.empty(0, dtype=np.int64)  # sorted keys u*n+v with u < v
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    for _ in range(_ROUND_CAP):
        if stubs.size == 0:
            return existing
        stubs = rng.permutation(stubs)
        u = stubs[0::2]
        v = stubs[1::2]
        keys = np.minimum(u, v) * n + np.maximum(u, v)
        # the first pair of each key this round is the lowest index in its
        # run of equal keys, which an unstable sort finds as well
        order = np.argsort(keys)
        keys = keys[order]
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        first = np.minimum.reduceat(order, starts)
        fresh = keys[starts]  # sorted and distinct
        ok = fresh % (n + 1) != 0  # u * n + v is u * (n + 1) + (v - u)
        if existing.size:
            pos = np.searchsorted(existing, fresh)
            ok &= existing[np.minimum(pos, existing.size - 1)] != fresh
        if not ok.any():
            if not _suitable(stubs, existing, n):
                return None
            continue
        # round 0 keeps the sorted keys as they are: an insert would copy them
        existing = (np.insert(existing, pos[ok], fresh[ok]) if existing.size
                    else fresh[ok])
        bad = np.ones(keys.size, dtype=bool)
        bad[first[ok]] = False
        stubs = np.concatenate([u[bad], v[bad]])
    return None


def _suitable(stubs: np.ndarray, existing: np.ndarray, n: int) -> bool:
    """True if some pair of leftover stubs could still become a new edge."""
    # distinct by sort and mask: np.unique(stubs) imports numpy.ma on numpy 2.4
    left = np.sort(stubs)
    left = left[np.r_[True, left[1:] != left[:-1]]]
    if left.size <= 1:
        return False
    if left.size > 2000:
        return True  # dense leftover: a free pair certainly exists
    a = np.repeat(left, left.size)
    b = np.tile(left, left.size)
    mask = a < b
    keys = a[mask] * n + b[mask]
    if keys.size == 0:
        return False
    pos = np.searchsorted(existing, keys)
    pos[pos == existing.size] = max(existing.size - 1, 0)
    if existing.size == 0:
        return True
    return bool(np.any(existing[pos] != keys))


def binomial_random(n: int, p: float, seed: int) -> Graph:
    """G(n, p): each unordered pair is an edge independently with probability p.

    Uses geometric gap-skipping over each row, so the cost is O(n + m).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if p == 0.0 or n < 2:
        return Graph(n, [])
    if p == 1.0:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        return Graph(n, edges, _trusted=True)
    rng = rng_for(seed, 2)
    logq = log1p(-p)
    edges = []
    for i in range(n - 1):
        j = i
        while True:
            gap = floor(log(1.0 - rng.random()) / logq)
            j += 1 + gap
            if j >= n:
                break
            edges.append((i, j))
    return Graph(n, edges, _trusted=True)


def glued_cliques(k: int) -> Graph:
    """Two k-cliques sharing exactly one vertex, the shared vertex at id 0."""
    if k < 2:
        raise ValueError("k must be at least 2")
    first = [0] + list(range(1, k))
    second = [0] + list(range(k, 2 * k - 1))
    edges = []
    for clique in (first, second):
        for i in range(len(clique)):
            for j in range(i + 1, len(clique)):
                edges.append((clique[i], clique[j]))
    return Graph(2 * k - 1, edges)


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("n must be positive")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def petersen_graph() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]          # outer cycle
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]  # inner pentagram
    edges += [(i, i + 5) for i in range(5)]                # spokes
    return Graph(10, edges)


def generate(spec: GenSpec) -> Graph:
    """Build the graph described by `spec`."""
    if spec.kind == "regular":
        return random_regular(spec.n, spec.d, spec.seed)
    if spec.kind == "binomial":
        return binomial_random(spec.n, spec.p, spec.seed)
    if spec.kind == "glued_cliques":
        return glued_cliques(spec.k)
    if spec.kind == "complete":
        return complete_graph(spec.n)
    if spec.kind == "cycle":
        return cycle_graph(spec.n)
    if spec.kind == "petersen":
        return petersen_graph()
    raise ValueError(f"unknown graph kind: {spec.kind!r}")
