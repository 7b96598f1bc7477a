"""Construction-agnostic certification of packings, plus tiny-graph oracles.

verify_packing trusts nothing it is handed: domination and connectivity of
every set are re-derived by one `graph.label_components` call per packing,
and certificates are only cross-checked afterwards, in array passes:
membership and edge existence by binary search over sorted keys, and
acyclicity by labelling the certificate's own edges. A certificate is an
(m, 2) array, as the connector builds it, or a list of pairs, as JSON
gives it. Each binary search runs on its queries in sorted order, which
reads the keys in one forward sweep, and the per-vertex disjointness scan
runs only when one pass over all members finds an out-of-range or repeated
id. The brute-force oracles
enumerate subsets directly from the definitions and are hard-guarded against
accidental exponential runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .errors import InstanceTooLarge
from .graph import (Graph, SetComponents, components_of, label_components,
                    min_labels, vertex_set)


@dataclass
class VerificationReport:
    packing_size: int
    dominating: list[bool]
    connected: list[bool]
    disjoint: bool
    failures: list[tuple[int, str, int | None]]  # (set index or -1, reason, witness)
    target: int | None = None

    @property
    def target_met(self) -> bool | None:
        """None without a target, else whether a clean packing reaches it."""
        if self.target is None:
            return None
        return self.packing_size >= self.target and not self.failures

    def to_json(self) -> dict:
        return {
            "packing_size": self.packing_size,
            "dominating": list(self.dominating),
            "connected": list(self.connected),
            "disjoint": self.disjoint,
            "failures": [[i, reason, w] for i, reason, w in self.failures],
            "target": self.target,
            "target_met": self.target_met,
        }


def is_dominating(g: Graph, s) -> tuple[bool, int | None]:
    """True iff s together with its neighborhood covers every vertex.

    On failure returns the lowest-id uncovered vertex as witness.
    """
    witness = int(label_components(g, [vertex_set(s, g.n)]).uncovered[0])
    return (True, None) if witness == g.n else (False, witness)


def is_connected_set(g: Graph, s) -> bool:
    """True iff g[s] is connected (vacuously true for |s| <= 1)."""
    return len(components_of(g, s)) <= 1


def _certificate_faults(g: Graph, lab: SetComponents,
                        certs: dict[int, list]) -> dict[int, str]:
    """The reason each certificate in `certs` is not a spanning tree of its set.

    `certs` maps a set's index in `lab` to its certificate; sets whose
    certificate is sound are left out of the result. Edge counts are
    compared first. The edges of the other certificates are then checked
    in arrays: membership against the items of `lab`, existence against the
    sorted CSR keys row·n + neighbour, and acyclicity by labelling each
    certificate's own edges. Only a certificate found faulty is replayed
    edge by edge, to name its first offending edge.
    """
    if not certs:
        return {}
    n, k = g.n, lab.uncovered.size
    sizes = np.bincount(lab.owner, minlength=k).tolist()
    faults = {}
    for j, cert in certs.items():
        if len(cert) != max(sizes[j] - 1, 0):
            faults[j] = f"certificate has {len(cert)} edges, expected {sizes[j] - 1}"
    checked = [j for j in certs if j not in faults]
    if not checked:
        return faults
    ends = np.concatenate([_edge_ends(certs[j], n) for j in checked])
    of_set = np.repeat(checked, [len(certs[j]) for j in checked])[:, None]
    # each key array ends in a sentinel above every query, so every
    # searchsorted position can be read
    item_keys = np.append(lab.owner * n + lab.vertex, k * n)
    query = of_set * n + ends
    item = _sorted_search(item_keys, query)
    leaves = ((item_keys[item] != query) | (ends < 0)).any(axis=1)
    csr_keys = np.empty(g.indices.size + 1, dtype=np.int64)
    np.multiply(g.row_index, n, out=csr_keys[:-1])
    csr_keys[:-1] += g.indices
    csr_keys[-1] = n * n
    want = ends[:, 0] * n + ends[:, 1]
    missing = csr_keys[_sorted_search(csr_keys, want)] != want
    bad = leaves | missing
    tree = np.flatnonzero(~bad)
    labels = min_labels(lab.owner.size, np.concatenate([item[tree, 0], item[tree, 1]]),
                        np.concatenate([item[tree, 1], item[tree, 0]]))
    roots = np.bincount(lab.owner[labels == np.arange(labels.size)],
                        minlength=k)
    starts = np.concatenate([[0], np.cumsum([len(certs[j]) for j in checked])])
    for j, lo, hi in zip(checked, starts[:-1].tolist(), starts[1:].tolist()):
        if bad[lo:hi].any() or roots[j] > 1:
            faults[j] = _first_fault(certs[j], leaves[lo:hi].tolist(),
                                     missing[lo:hi].tolist())
    return faults


def _edge_ends(cert, n: int) -> np.ndarray:
    """A certificate's edges as an (m, 2) int64 array; ids outside 0..n-1,
    which are never members, read -1."""
    if isinstance(cert, np.ndarray):
        ends = cert.reshape(-1, 2).astype(np.int64, copy=False)
        return np.where((ends >= 0) & (ends < n), ends, -1)
    # JSON ids may lie past int64; -1 keeps them in range
    return np.array([v if 0 <= v < n else -1 for e in cert for v in e],
                    dtype=np.int64).reshape(-1, 2)


def _sorted_search(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """np.searchsorted(keys, queries), searched in ascending query order,
    which reads `keys` in one forward sweep."""
    flat = queries.ravel()
    order = np.argsort(flat)  # equal queries share a position: any order
    pos = np.empty(flat.size, dtype=np.int64)
    pos[order] = np.searchsorted(keys, flat[order])
    return pos.reshape(queries.shape)


def _first_fault(cert, leaves: list[bool], missing: list[bool]) -> str:
    """The first edge of `cert` that leaves its set, is no graph edge or closes a cycle."""
    parent: dict = {}

    def find(v):
        while parent.setdefault(v, v) != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for (u, v), out, absent in zip(cert, leaves, missing):
        if out:
            return f"certificate edge ({u}, {v}) leaves the set"
        if absent:
            return f"certificate edge ({u}, {v}) is not a graph edge"
        ru, rv = find(u), find(v)
        if ru == rv:
            return f"certificate edge ({u}, {v}) closes a cycle"
        parent[ru] = rv
    raise RuntimeError("unreachable: a faulty certificate has a faulty edge")


def verify_packing(g: Graph, packing, target: int | None = None) -> VerificationReport:
    """Certify a packing against the definitions alone.

    Checks pairwise disjointness, then per set: domination and connectivity,
    re-derived from the graph by one `label_components` call over every set
    in range; certificates, when present, are cross-checked but never
    trusted. Failures are data, not errors.
    """
    sets = [list(s) for s in packing.sets]
    certs = list(getattr(packing, "certificates", []) or [])
    failures: list[tuple[int, str, int | None]] = []

    owner: dict[int, int] = {}
    disjoint = True
    out_of_range = set()
    # one set over all members clears the common case; only a packing with
    # an out-of-range or repeated id is scanned, to name each offender
    ids = list(chain.from_iterable(sets))
    if ids and not (len(set(ids)) == len(ids) and 0 <= min(ids) and max(ids) < g.n):
        for i, members in enumerate(sets):
            for v in members:
                if not 0 <= v < g.n:
                    failures.append((i, "vertex out of range", v))
                    out_of_range.add(i)
                    continue
                if v in owner:
                    disjoint = False
                    failures.append((i, f"vertex shared with set {owner[v]}", v))
                else:
                    owner[v] = i

    checked = [i for i in range(len(sets)) if i not in out_of_range]
    lab = label_components(g, [sets[i] for i in checked])
    comps = np.bincount(lab.owner[lab.vertex == lab.root], minlength=len(checked)).tolist()
    faults = _certificate_faults(g, lab, {
        j: certs[i] for j, i in enumerate(checked) if i < len(certs) and len(certs[i])})

    dominating = [False] * len(sets)
    connected = [False] * len(sets)
    for j, (i, witness) in enumerate(zip(checked, lab.uncovered.tolist())):
        dominating[i] = witness == g.n
        if not dominating[i]:
            failures.append((i, "not dominating", witness))
        connected[i] = comps[j] <= 1
        if not connected[i]:
            failures.append((i, "not connected", None))
        if j in faults:
            failures.append((i, f"certificate invalid: {faults[j]}", None))

    return VerificationReport(
        packing_size=len(sets),
        dominating=dominating,
        connected=connected,
        disjoint=disjoint,
        failures=failures,
        target=target,
    )


def _bit_masks(g: Graph) -> tuple[list[int], list[int]]:
    """Open and closed neighborhood bitmasks per vertex."""
    open_masks = []
    for v in range(g.n):
        acc = 0
        for w in g.neighbors(v).tolist():
            acc |= 1 << w
        open_masks.append(acc)
    closed = [m | (1 << v) for v, m in enumerate(open_masks)]
    return open_masks, closed


def _mask_connected(mask: int, open_masks: list[int]) -> bool:
    if mask == 0:
        return True
    low = mask & -mask
    seen = low
    frontier = low
    while frontier:
        nxt = 0
        m = frontier
        while m:
            bit = m & -m
            m ^= bit
            nxt |= open_masks[bit.bit_length() - 1] & mask & ~seen
        seen |= nxt
        frontier = nxt
    return seen == mask


def brute_force_min_cds(g: Graph) -> tuple[int, list[int]]:
    """Minimum connected dominating set by increasing-size enumeration.

    Guarded to n <= 20; the input must be connected.
    """
    if g.n > 20:
        raise InstanceTooLarge(f"n = {g.n} exceeds the brute-force guard of 20")
    if not is_connected_set(g, list(range(g.n))):
        raise ValueError("input graph must be connected")
    open_masks, closed_masks = _bit_masks(g)
    full = (1 << g.n) - 1
    for k in range(1, g.n + 1):
        for subset in combinations(range(g.n), k):
            cover = 0
            for v in subset:
                cover |= closed_masks[v]
            if cover != full:
                continue
            mask = 0
            for v in subset:
                mask |= 1 << v
            if _mask_connected(mask, open_masks):
                return k, list(subset)
    raise RuntimeError("unreachable: V itself is a connected dominating set")


def brute_force_max_disjoint_cds(g: Graph) -> tuple[int, list[list[int]]]:
    """Maximum number of pairwise-disjoint connected dominating sets.

    Enumerates every CDS candidate, then runs an exact set-packing search
    over availability masks. Guarded to n <= 12.
    """
    if g.n > 12:
        raise InstanceTooLarge(f"n = {g.n} exceeds the brute-force guard of 12")
    open_masks, closed_masks = _bit_masks(g)
    full = (1 << g.n) - 1
    candidates = []
    for mask in range(1, full + 1):
        cover = 0
        m = mask
        while m:
            bit = m & -m
            m ^= bit
            cover |= closed_masks[bit.bit_length() - 1]
        if cover == full and _mask_connected(mask, open_masks):
            candidates.append(mask)
    by_lowest: dict[int, list[int]] = {}
    for cand in candidates:
        by_lowest.setdefault((cand & -cand).bit_length() - 1, []).append(cand)

    memo: dict[int, tuple[int, int | None]] = {}

    def best(avail: int) -> tuple[int, int | None]:
        """(max packing count on avail, candidate used at the lowest vertex)."""
        if avail == 0:
            return 0, None
        if avail in memo:
            return memo[avail]
        low = (avail & -avail).bit_length() - 1
        score, pick = best(avail & ~(1 << low))[0], None
        for cand in by_lowest.get(low, []):
            if cand & ~avail:
                continue
            sub = best(avail & ~cand)[0] + 1
            if sub > score:
                score, pick = sub, cand
        memo[avail] = (score, pick)
        return score, pick

    count, _ = best(full)
    witness: list[list[int]] = []
    avail = full
    while avail:
        score, pick = best(avail)
        if pick is None:
            avail &= ~(avail & -avail)
            continue
        members = [i for i in range(g.n) if pick >> i & 1]
        witness.append(members)
        avail &= ~pick
        if len(witness) == count:
            break
    return count, witness
