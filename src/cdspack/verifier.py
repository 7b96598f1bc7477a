"""Construction-agnostic certification of packings, plus tiny-graph oracles.

verify_packing trusts nothing it is handed: connectivity is re-derived by
fresh traversal and certificates are only cross-checked afterwards. The
brute-force oracles enumerate subsets directly from the definitions and are
hard-guarded against accidental exponential runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import InstanceTooLarge
from .graph import Graph, components_of, concat_neighbors, vertex_set


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
    members = vertex_set(s, g.n)
    covered = np.zeros(g.n, dtype=bool)
    if members:
        arr = np.asarray(members, dtype=np.int64)
        covered[arr] = True
        covered[concat_neighbors(g, arr)] = True
    if covered.all():
        return True, None
    return False, int(np.flatnonzero(~covered)[0])


def is_connected_set(g: Graph, s) -> bool:
    """True iff g[s] is connected (vacuously true for |s| <= 1)."""
    return len(components_of(g, s)) <= 1


def _check_certificate(g: Graph, members: list[int], cert) -> str | None:
    """None if cert is a spanning tree of g[members], else a reason string."""
    mset = set(members)
    if len(cert) != max(len(members) - 1, 0):
        return f"certificate has {len(cert)} edges, expected {len(members) - 1}"
    parent = {v: v for v in members}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in cert:
        if u not in mset or v not in mset:
            return f"certificate edge ({u}, {v}) leaves the set"
        if not g.has_edge(u, v):
            return f"certificate edge ({u}, {v}) is not a graph edge"
        ru, rv = find(u), find(v)
        if ru == rv:
            return f"certificate edge ({u}, {v}) closes a cycle"
        parent[ru] = rv
    return None


def verify_packing(g: Graph, packing, target: int | None = None) -> VerificationReport:
    """Certify a packing against the definitions alone.

    Checks pairwise disjointness, then per set: domination and connectivity
    by fresh traversal; certificates, when present, are cross-checked but
    never trusted. Failures are data, not errors.
    """
    sets = [list(s) for s in packing.sets]
    certs = list(getattr(packing, "certificates", []) or [])
    failures: list[tuple[int, str, int | None]] = []

    owner: dict[int, int] = {}
    disjoint = True
    for i, members in enumerate(sets):
        for v in members:
            if not 0 <= v < g.n:
                failures.append((i, "vertex out of range", v))
                continue
            if v in owner:
                disjoint = False
                failures.append((i, f"vertex shared with set {owner[v]}", v))
            else:
                owner[v] = i

    dominating: list[bool] = []
    connected: list[bool] = []
    for i, members in enumerate(sets):
        if any(not 0 <= v < g.n for v in members):
            dominating.append(False)
            connected.append(False)
            continue
        members = vertex_set(members, g.n)
        dom, witness = is_dominating(g, members)
        dominating.append(dom)
        if not dom:
            failures.append((i, "not dominating", witness))
        conn = is_connected_set(g, members)
        connected.append(conn)
        if not conn:
            failures.append((i, "not connected", None))
        if i < len(certs) and certs[i]:
            reason = _check_certificate(g, members, certs[i])
            if reason is not None:
                failures.append((i, f"certificate invalid: {reason}", None))

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
