"""Two-stage seeded random coloring with bad-event repair.

Stage one assigns every vertex to the reservoir (probability b_prob) or to
one of r1 first-stage colors (probability p1 each); there is no third
outcome. Stage two refines each colored vertex with a uniform second-stage
color in [r2]. Those two draws are the only random numbers: every later step
is fixed by the labels.

Each stage keeps one count matrix, counts[v, c] = the neighbors of v in
column c, and gives each column an integer window lo[c] <= x < hi[c]. Stage
one's columns are the colors 0..r1-1 and the reservoir r1; stage two's are
the d_star classes c*r2 + c', where a reservoir vertex sits in column -1,
which is not counted. An entry outside its window is a bad event. Both
stages loop while one is left, always fixing the lowest flat index
(row-major) by a minimum-collateral repair: one of the vertices the event
depends on (N(v) in stage one, v's c-colored neighbors in stage two) moves
into the short column or, for a count at or above hi, out of the crowded one
into v's emptiest other column (in stage two, v's emptiest other class of
color c; a color with one class cannot repair an over-full event). The
vertex moved is the candidate whose move drops the fewest count entries
below their window, ties to the lowest id. Moser-Tardos resampling of the
whole neighborhood breaks about as many events as it fixes at desk scale and
may never settle; a one-vertex repair does.

Both stages run one repair loop, `_settle`, on Python scalars: a repair
reads a few rows of 16 to 256 entries, where each numpy call would cost more
than the work it does. The counts are one flat row-major list and the
bad-event flags a bytearray, and each adjacency row the loop touches is read
once with `.tolist()`. A move steps each count entry of the moved vertex's
neighbors by one, and a flag is re-tested only where that step crosses the
bottom or top of its window. Bad indices wait in a min-heap, so the next
event is the lowest violated one, exactly as a full rescan of the count
matrix would pick it.

Thresholds are floats, turned into the integer windows above:
  stage one - inclusive bounds lo <= x <= hi, the window
              [ceil(lo), floor(hi) + 1). The defaults are one-sided lower
              bounds: reservoir counts must reach b_prob*d/2 (exactly the
              bound the output contract needs) and color counts
              max(r2, p1*d/2) (enough for stage two to have room to work).
              Callers may pass explicit two-sided thresholds.
  stage two - the strict band lo < x < hi, the window
              [floor(lo) + 1, ceil(hi)): each (c, c') must appear in every
              neighborhood strictly more than eps^2 * ln d times and
              strictly fewer than 20 * ln d times. At desk scale the lower
              bound reduces to "at least once", which is exactly domination.

Theory mode never reaches this module on a graph that fits in memory: its
parameter gate rejects every degree below 332105 (see `params`).

build_family labels all d_star classes in one `graph.label_components` call,
which gives both whether each class dominates and its components; the
family carries those components on to the connector.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import inf, isfinite, log

import numpy as np

from .errors import PostconditionViolation, ResampleBudgetExhausted
# unused here, but perfbench/trace_pack.py wraps coloring.components_of
from .graph import components_of  # noqa: F401
from .graph import Graph, label_components
from .params import PackingParams
from .rand import rng_for

RESERVOIR = -1

_STAGE1_TAG = 11
_STAGE2_TAG = 12
RESAMPLE_FACTOR = 100  # cap = RESAMPLE_FACTOR * n per stage


@dataclass
class ColorAssignment:
    """Per-vertex labels after a coloring stage.

    c1[v] is RESERVOIR or a first-stage color in [0, r1).
    c2[v] is -1 until stage two assigns a second-stage color in [0, r2).
    `resamples` counts the repair steps of this stage and the ones before
    it.
    """

    c1: np.ndarray
    c2: np.ndarray | None
    r1: int
    r2: int
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
                  p1: float, r1: int) -> np.ndarray:
    """Draw `size` stage-one labels as count-matrix columns.

    One uniform u per vertex: u < b_prob is the reservoir (column r1), else
    color floor((u - b_prob) / p1), clamped to r1 - 1, which only rounding
    passes (u just below 1 can land on r1).
    """
    u = rng.random(size)
    cols = np.minimum(np.floor((u - b_prob) / p1), r1 - 1).astype(np.int64)
    cols[u < b_prob] = r1
    return cols


def _stage_one_labels(cols: np.ndarray, r1: int) -> np.ndarray:
    """Count-matrix columns back to stage-one labels."""
    c1 = cols.astype(np.int32)
    c1[cols == r1] = RESERVOIR
    return c1


def _neighbor_counts(g: Graph, labels: np.ndarray, ncols: int) -> np.ndarray:
    """counts[v, c] = number of neighbors of v whose label is c (label -1 skipped)."""
    # key every adjacency slot by its row and label + 1: label -1 lands in a
    # column of its own, dropped at the end, so no slot is masked out
    flat = g.row_index * (ncols + 1)
    flat += labels[g.indices]
    flat += 1
    counts = np.bincount(flat, minlength=g.n * (ncols + 1))
    return np.ascontiguousarray(counts.reshape(g.n, ncols + 1)[:, 1:])


def _settle(g: Graph, counts: np.ndarray, labels: np.ndarray, lo: np.ndarray,
            hi: np.ndarray, width: int | None, cap: int,
            stage: str) -> tuple[int, tuple | None]:
    """Repair the lowest bad event until none is left (see the module docstring).

    Entry (v, c) holding x is bad when x < lo[c] or x >= hi[c]. The group a
    repair moves a vertex of is all of N(v) when `width` is None, else v's
    neighbours labelled in the event column's block of `width` columns; a
    crowded column's vertex moves to the column of that block (of all
    columns, for None) where v has the fewest neighbours. `labels` is
    updated in place. Returns the number of repairs and None, or, at an
    event no move can fix, (v, column, its group, the number of bad
    entries); raises ResampleBudgetExhausted when the repairs would pass
    `cap`.
    """
    ncols = counts.shape[1]
    bad = (counts < lo) | (counts >= hi)
    heap = np.flatnonzero(bad).tolist()  # sorted, so already a heap
    if not heap:
        return 0, None
    flags = bytearray(bad.tobytes())  # one byte, 0 or 1, per bool
    flat = counts.ravel().tolist()
    lab = labels.tolist()
    # integer windows compare faster; an infinite bound stays a float
    lo, hi = ([int(x) if isfinite(x) else x for x in w.tolist()] for w in (lo, hi))
    block = width or ncols
    others = [[c for c in range(k - k % block, k - k % block + block) if c != k]
              for k in range(ncols)]
    ptr, indices = g.indptr.tolist(), g.indices
    steps = 0
    while heap:
        idx = heap[0]
        if not flags[idx]:
            heapq.heappop(heap)
            continue
        steps += 1
        if steps > cap:
            raise ResampleBudgetExhausted(
                f"{stage}: {flags.count(1)} bad events after {cap} resamples")
        v, col = divmod(idx, ncols)
        group = indices[ptr[v]:ptr[v + 1]].tolist()
        if width is not None:
            first = col - col % width
            group = [w for w in group if first <= lab[w] < first + width]
            if not group:
                return steps, (v, col, group, flags.count(1))
        base = v * ncols
        over = flat[idx] >= hi[col]
        if over:
            target = min(others[col], key=lambda c: flat[base + c], default=None)
            if target is None:
                return steps, (v, col, group, flags.count(1))
        else:
            target = col
        best = None
        for w in group:
            c = lab[w]
            if (c == col) != over:
                continue
            nbrs = indices[ptr[w]:ptr[w + 1]].tolist()
            edge = lo[c]
            score = sum(1 for u in nbrs if flat[u * ncols + c] <= edge)
            if best is None or score < best_score:
                best, best_score, row = w, score, nbrs
                if score == 0:
                    break
        if best is None:
            return steps, (v, col, group, flags.count(1))
        old = lab[best]
        lab[best] = target
        # a +-1 step changes a flag only across lo - 1 | lo or hi - 1 | hi
        down_lo, down_hi = lo[old], hi[old]
        up_lo, up_hi = lo[target], hi[target]
        shift = target - old
        for u in row:
            i = u * ncols + old
            x = flat[i]
            flat[i] = x - 1
            if x == down_lo or x == down_hi:
                _retest(i, x - 1, down_lo, down_hi, flags, heap)
            i += shift
            x = flat[i] + 1
            flat[i] = x
            if x == up_lo or x == up_hi:
                _retest(i, x, up_lo, up_hi, flags, heap)
    labels[:] = lab
    return steps, None


def _retest(i: int, x: int, lo, hi, flags: bytearray, heap: list[int]) -> None:
    """Set entry i's flag for count x; a newly bad entry joins the heap."""
    now = x < lo or x >= hi
    if now and not flags[i]:
        heapq.heappush(heap, i)
    flags[i] = now


def stage_one_thresholds(params: PackingParams) -> tuple[np.ndarray, np.ndarray]:
    """Default per-column (lo, hi) count bounds for stage one."""
    r1 = params.r1
    lo = np.full(r1 + 1, max(float(params.r2), params.p1 * params.d / 2))
    lo[r1] = params.b_prob * params.d / 2
    return lo, np.full(r1 + 1, inf)


def stage_one(g: Graph, params: PackingParams, seed: int,
              thresholds: tuple | None = None,
              max_resamples: int | None = None) -> ColorAssignment:
    """Stage-one coloring: reservoir / first-stage colors, with repair.

    Fixes the lowest violated (v, c) until every neighborhood count sits
    inside its bounds, each time by moving one neighbor of v into or out of
    column c (see the module docstring). `resamples` counts the repairs.
    """
    n = g.n
    r1 = params.r1
    ncols = r1 + 1
    cols = _draw_columns(rng_for(seed, _STAGE1_TAG), n, params.b_prob,
                         params.p1, r1)
    lo, hi = thresholds if thresholds is not None else stage_one_thresholds(params)
    # lo <= x <= hi for an integer count x is ceil(lo) <= x < floor(hi) + 1
    lo = np.broadcast_to(np.ceil(np.asarray(lo, dtype=float)), (ncols,))
    hi = np.broadcast_to(np.floor(np.asarray(hi, dtype=float)) + 1, (ncols,))
    counts = _neighbor_counts(g, cols, ncols)
    cap = max_resamples if max_resamples is not None else RESAMPLE_FACTOR * n
    resamples, stuck = _settle(g, counts, cols, lo, hi, None, cap, "stage one")
    if stuck is not None:
        v, col, _, bad = stuck
        raise ResampleBudgetExhausted(
            f"stage one: event (v={v}, column={col}) has no movable "
            f"neighbor, {bad} bad events after {resamples - 1} repairs")
    return ColorAssignment(c1=_stage_one_labels(cols, r1), c2=None, r1=r1,
                           r2=params.r2, resamples=resamples)


def stage_two_thresholds(params: PackingParams) -> tuple[float, float]:
    """(lo, hi) band for per-class neighborhood counts; bad iff <= lo or >= hi."""
    lg = log(params.d)
    return params.epsilon ** 2 * lg, 20.0 * lg


def stage_two(g: Graph, stage1: ColorAssignment, params: PackingParams, seed: int,
              thresholds: tuple[float, float] | None = None,
              max_resamples: int | None = None) -> ColorAssignment:
    """Refine first-stage colors with uniform second-stage colors.

    Fixes the lowest violated (v, class) by relabeling a single c-colored
    neighbor of v into the deficient class, or out of an over-full one,
    chosen to create the fewest new violations (see the module docstring).
    Stage-one labels are never touched.
    """
    n = g.n
    r1, r2 = stage1.r1, params.r2
    d_star = r1 * r2
    c1 = stage1.c1
    draw = rng_for(seed, _STAGE2_TAG).integers(0, r2, size=n)
    # each vertex's class c*r2 + c', or -1 outside the colors
    labels = c1.astype(np.int64) * r2 + draw
    labels[c1 < 0] = -1
    lo, hi = thresholds if thresholds is not None else stage_two_thresholds(params)
    # lo < x < hi for an integer count x is floor(lo) + 1 <= x < ceil(hi)
    lo = np.full(d_star, np.floor(lo) + 1)
    hi = np.full(d_star, np.ceil(hi))
    counts = _neighbor_counts(g, labels, d_star)
    cap = max_resamples if max_resamples is not None else RESAMPLE_FACTOR * n
    resamples, stuck = _settle(g, counts, labels, lo, hi, r2, cap, "stage two")
    if stuck is not None:
        v, cls, group, _ = stuck
        if not group:
            raise ResampleBudgetExhausted(
                f"stage two: event (v={v}, class={cls}) has no {cls // r2}-colored "
                f"neighbors to resample")
        raise ResampleBudgetExhausted(
            f"stage two: event (v={v}, class={cls}) has no movable neighbor")
    c2 = (labels % r2).astype(np.int32)
    c2[labels < 0] = -1
    return ColorAssignment(c1=c1, c2=c2, r1=r1, r2=r2,
                           resamples=stage1.resamples + resamples)


def build_family(g: Graph, stage2_out: ColorAssignment,
                 params: PackingParams) -> DominatingFamily:
    """Assemble the reservoir and the d_star color classes, then validate.

    Classes map to set indices lexicographically: (c, c') -> c*r2 + c'.
    All three output properties are checked mechanically and a violation
    raises with the failed property and a witness vertex.
    """
    if stage2_out.c2 is None:
        raise ValueError("stage two has not run")
    n = g.n
    r1, r2 = stage2_out.r1, stage2_out.r2
    d_star = r1 * r2
    c1, c2 = stage2_out.c1, stage2_out.c2
    labels = c1.astype(np.int64) * r2 + c2
    labels[c1 < 0] = -1

    reservoir = np.flatnonzero(c1 == RESERVOIR)
    sets = [np.flatnonzero(labels == i).tolist() for i in range(d_star)]

    # property: every vertex has at least b_prob*d/2 neighbors in the reservoir
    in_reservoir = c1[g.indices] == RESERVOIR
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
