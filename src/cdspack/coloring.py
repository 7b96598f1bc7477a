"""Seeded one-stage random coloring with bad-event repair.

Every vertex goes to the reservoir (probability b_prob) or to one of the
d_star classes (probability (1 - b_prob)/d_star each); there is no third
outcome. That draw is the only random number: every later step is fixed by
the labels. The paper colours in two stages, r1 colours each split into r2
classes, for concentration at r2 = round(ln^5 d); no graph in memory reaches
that size, so the classes are drawn in one stage (Feige, Halldorsson,
Kortsarz and Srinivasan, SIAM J. Comput. 2002: one uniform partition already
dominates).

The count matrix is counts[v, c] = the neighbours of v in column c, where
the columns are the classes 0..d_star-1 and the reservoir d_star. Each
column has an integer lower bound lo[c]; an entry below it is a bad event.
The loop fixes the lowest bad flat index (row-major) until none is left, by
a minimum-collateral repair: one neighbour of v moves into the short column,
the one whose move drops the fewest count entries below their bound, ties
to the lowest id. Moser-Tardos resampling of the whole neighbourhood breaks
about as many events as it fixes at desk scale and may never settle; a
one-vertex repair does.

The repair loop, `_settle`, runs on Python scalars: a repair reads a few
rows of 16 to 256 entries, where each numpy call would cost more than the
work it does. The counts are one flat row-major list and the bad-event
flags a bytearray, and each adjacency row the loop touches is read once
with `.tolist()`. A move steps each count entry of the moved vertex's
neighbours by one, and a flag changes only where that step crosses the
bound. Bad indices wait in a min-heap, so the next event is the lowest
violated one, exactly as a full rescan of the count matrix would pick it.
The loop draws nothing, so a move that puts a vertex back into the column
the move before took it from restores an earlier state, and the run would
repeat those two moves forever: it stops there with a typed error.

Thresholds are per-column float lower bounds, met when lo <= x, that is
x >= ceil(lo). The defaults: each class needs floor(eps^2 ln d) + 1
neighbours, which is domination at desk scale, and the reservoir b_prob*d/2,
exactly the bound the output contract needs. There is no upper bound.

Theory mode never reaches this module on a graph that fits in memory: its
parameter gate rejects every degree below 332105 (see `params`).

build_family labels all d_star classes in one `graph.label_components` call,
which gives both whether each class dominates and its components; the
family carries those components on to the connector.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import floor, log

import numpy as np

from .errors import PostconditionViolation, ResampleBudgetExhausted
# unused here, but perfbench/trace_pack.py wraps coloring.components_of
from .graph import components_of  # noqa: F401
from .graph import Graph, label_components
from .params import PackingParams
from .rand import rng_for

RESERVOIR = -1

_STAGE1_TAG = 11
RESAMPLE_FACTOR = 100  # cap = RESAMPLE_FACTOR * n repairs

# practice coloring has one stage, but perfbench/trace_pack.py wraps
# coloring.stage_two by name
stage_two = None


@dataclass
class ColorAssignment:
    """Per-vertex labels after coloring.

    labels[v] is RESERVOIR or a class in [0, d_star). `resamples` counts the
    repair steps.
    """

    labels: np.ndarray
    resamples: int = 0


@dataclass
class DominatingFamily:
    """Reservoir plus d_star disjoint dominating sets and their components.

    `components[i]` holds the components of the subgraph `sets[i]` induces
    as sorted int64 vertex arrays, ordered by lowest vertex.
    """

    reservoir: list[int]
    sets: list[list[int]]
    components: list[list[np.ndarray]]

    @property
    def representatives(self) -> list[list[int]]:  # lowest vertex per component
        return [[int(c[0]) for c in comps] for comps in self.components]

    @property
    def component_counts(self) -> list[int]:
        return [len(comps) for comps in self.components]

    def to_json(self) -> dict:
        return {
            "B": list(self.reservoir),
            "sets": [list(s) for s in self.sets],
            "component_counts": list(self.component_counts),
        }


def _draw_columns(rng: np.random.Generator, size: int, b_prob: float,
                  p: float, k: int) -> np.ndarray:
    """Draw `size` labels as count-matrix columns.

    One uniform u per vertex: u < b_prob is the reservoir (column k), else
    class floor((u - b_prob) / p), clamped to k - 1, which only rounding
    passes (u just below 1 can land on k).
    """
    u = rng.random(size)
    cols = np.minimum(np.floor((u - b_prob) / p), k - 1).astype(np.int64)
    cols[u < b_prob] = k
    return cols


def _neighbor_counts(g: Graph, labels: np.ndarray, ncols: int) -> np.ndarray:
    """counts[v, c] = number of neighbors of v labelled c, labels in [0, ncols)."""
    flat = g.row_index * ncols
    flat += labels[g.indices]
    return np.bincount(flat, minlength=g.n * ncols).reshape(g.n, ncols)


def _settle(g: Graph, counts: np.ndarray, labels: np.ndarray, lo: np.ndarray,
            cap: int) -> int:
    """Repair the lowest bad event until none is left (see the module docstring).

    Entry (v, c) holding x is bad when x < lo[c]; a repair moves one
    neighbour of v into column c. `labels` is updated in place. Returns the
    number of repairs; raises ResampleBudgetExhausted when they would pass
    `cap`, at an event no neighbour can fix, or at a move that undoes the
    one before it.
    """
    ncols = counts.shape[1]
    bad = counts < lo
    heap = np.flatnonzero(bad).tolist()  # sorted, so already a heap
    if not heap:
        return 0
    flags = bytearray(bad.tobytes())  # one byte, 0 or 1, per bool
    flat = counts.ravel().tolist()
    lab = labels.tolist()
    lo = [int(x) for x in lo.tolist()]  # integer bounds compare faster
    ptr, indices = g.indptr.tolist(), g.indices
    steps = 0
    undo = None  # (vertex, column) that would undo the last move
    while heap:
        idx = heap[0]
        if not flags[idx]:
            heapq.heappop(heap)
            continue
        steps += 1
        if steps > cap:
            raise ResampleBudgetExhausted(
                f"stage one: {flags.count(1)} bad events after {cap} resamples")
        v, col = divmod(idx, ncols)
        best = None
        for w in indices[ptr[v]:ptr[v + 1]].tolist():
            c = lab[w]
            if c == col:
                continue
            nbrs = indices[ptr[w]:ptr[w + 1]].tolist()
            edge = lo[c]
            score = sum(1 for u in nbrs if flat[u * ncols + c] <= edge)
            if best is None or score < best_score:
                best, best_score, row = w, score, nbrs
                if score == 0:
                    break
        if best is None:
            raise ResampleBudgetExhausted(
                f"stage one: event (v={v}, column={col}) has no movable "
                f"neighbor, {flags.count(1)} bad events after {steps - 1} repairs")
        if undo == (best, col):
            raise ResampleBudgetExhausted(
                f"stage one: repair {steps} moves vertex {best} back to column "
                f"{col}, undoing repair {steps - 1}: a cycle of length 2, "
                f"{flags.count(1)} bad events left")
        old = lab[best]
        lab[best] = col
        undo = (best, old)
        # a -1 step from lo makes an entry bad, a +1 step to lo makes it good
        down, up = lo[old], lo[col]
        shift = col - old
        for u in row:
            i = u * ncols + old
            x = flat[i]
            flat[i] = x - 1
            if x == down:
                flags[i] = 1
                heapq.heappush(heap, i)
            i += shift
            x = flat[i] + 1
            flat[i] = x
            if x == up:
                flags[i] = 0
    labels[:] = lab
    return steps


def stage_one_thresholds(params: PackingParams) -> np.ndarray:
    """Default per-column lower bounds: classes 0..d_star-1, then the reservoir."""
    k = params.d_star
    lo = np.full(k + 1, float(floor(params.epsilon ** 2 * log(params.d)) + 1))
    lo[k] = params.b_prob * params.d / 2
    return lo


def stage_one(g: Graph, params: PackingParams, seed: int,
              thresholds: np.ndarray | None = None,
              max_resamples: int | None = None) -> ColorAssignment:
    """Put every vertex in the reservoir or one of d_star classes, with repair.

    Fixes the lowest violated (v, c) until every neighborhood count meets
    its lower bound in `thresholds` (default `stage_one_thresholds`), each
    time by moving one neighbor of v into column c (see the module
    docstring). `resamples` counts the repairs.
    """
    n, k = g.n, params.d_star
    cols = _draw_columns(rng_for(seed, _STAGE1_TAG), n, params.b_prob,
                         (1 - params.b_prob) / k, k)
    lo = thresholds if thresholds is not None else stage_one_thresholds(params)
    # lo <= x for an integer count x is ceil(lo) <= x
    lo = np.broadcast_to(np.ceil(np.asarray(lo, dtype=float)), (k + 1,))
    counts = _neighbor_counts(g, cols, k + 1)
    cap = max_resamples if max_resamples is not None else RESAMPLE_FACTOR * n
    resamples = _settle(g, counts, cols, lo, cap)
    labels = cols.astype(np.int32)
    labels[cols == k] = RESERVOIR
    return ColorAssignment(labels=labels, resamples=resamples)


def build_family(g: Graph, colors: ColorAssignment,
                 params: PackingParams) -> DominatingFamily:
    """Assemble the reservoir and the color classes, then validate.

    Class i becomes set i. All three output properties are checked
    mechanically and a violation raises with the failed property and a
    witness vertex.
    """
    n = g.n
    labels = colors.labels
    reservoir = np.flatnonzero(labels == RESERVOIR)
    sets = [np.flatnonzero(labels == i).tolist() for i in range(params.d_star)]

    # property: every vertex has at least b_prob*d/2 neighbors in the reservoir
    in_reservoir = labels[g.indices] == RESERVOIR
    res_counts = np.bincount(g.row_index[in_reservoir], minlength=n)
    res_need = params.b_prob * params.d / 2
    short = np.flatnonzero(res_counts < res_need)
    if short.size:
        v = int(short[0])
        raise PostconditionViolation(
            "reservoir-degree", witness=v,
            detail=f"vertex {v} has {int(res_counts[v])} reservoir neighbors, "
                   f"needs >= {res_need:.3f}")

    # properties: every class dominates (member or neighbor in every class),
    # and each induces few components; one labelling finds both
    classes = label_components(g, sets)
    for i, v in enumerate(classes.uncovered.tolist()):
        if v < n:
            raise PostconditionViolation(
                "dominating", witness=v,
                detail=f"vertex {v} has no neighbor in set {i}")
    comp_bound = 20 * n / (params.epsilon ** 2 * params.d)
    components = classes.lowest()
    for i, comps in enumerate(components):
        if len(comps) > comp_bound:
            raise PostconditionViolation(
                "component-count", witness=i,
                detail=f"set {i} has {len(comps)} components, bound {comp_bound:.3f}")

    return DominatingFamily(
        reservoir=reservoir.tolist(),
        sets=sets,
        components=components,
    )
