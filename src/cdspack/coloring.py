"""Two-stage seeded random coloring with bad-event repair.

Stage one assigns every vertex to the reservoir (probability b_prob), to one
of r1 first-stage colors (probability p1 each), or leaves it uncolored (only
possible through floating-point edge cases, since b_prob + r1*p1 = 1). Stage
two refines each colored vertex with a uniform second-stage color in [r2].
Those two draws are the only random numbers: every later step is fixed by
the labels.

Each stage keeps one count matrix, counts[v, c] = the neighbors of v in
column c, and gives each column an integer window lo[c] <= x < hi[c]. Stage
one's columns are the colors 0..r1-1 and the reservoir r1; stage two's are
the d_star classes c*r2 + c'. An uncolored vertex sits in column -1, which
is not counted. An entry outside its window is a bad event. Both stages loop
while one is left, always fixing the lowest flat index (row-major) by a
minimum-collateral repair: one of the vertices the event depends on (N(v)
in stage one, v's c-colored neighbors in stage two) moves into the short
column or, for a count at or above hi, out of the crowded one into v's
emptiest other column (in stage two, v's emptiest other class of color c; a
color with one class cannot repair an over-full event). The vertex moved is
the candidate whose move drops the fewest count entries below their window,
ties to the lowest id. Moser-Tardos resampling of the whole neighborhood
breaks about as many events as it fixes at desk scale and may never settle;
a one-vertex repair does. Every count update is one vertex changing column
(`_move`). Only the count entries of the moved vertex's neighbors are
re-tested, and the next event is still the lowest violated one, exactly as
a full rescan of the count matrix would pick it.

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
which gives both whether each class dominates and the lowest vertex of each
of its components; the connector takes those as its representatives.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import inf, log

import numpy as np

from .errors import PostconditionViolation, ResampleBudgetExhausted
# unused here, but perfbench/trace_pack.py wraps coloring.components_of
from .graph import components_of  # noqa: F401
from .graph import Graph, label_components
from .params import PackingParams
from .rand import rng_for

RESERVOIR = -1
UNCOLORED = -2

_STAGE1_TAG = 11
_STAGE2_TAG = 12
RESAMPLE_FACTOR = 100  # cap = RESAMPLE_FACTOR * n per stage


@dataclass
class ColorAssignment:
    """Per-vertex labels after a coloring stage.

    c1[v] is RESERVOIR, UNCOLORED, or a first-stage color in [0, r1).
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

    `representatives[i]` holds the lowest vertex of each component of
    `sets[i]`, in ascending order.
    """

    reservoir: list[int]
    sets: list[list[int]]
    representatives: list[list[int]]

    @property
    def component_counts(self) -> list[int]:
        return [len(reps) for reps in self.representatives]

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
    color floor((u - b_prob) / p1) when below r1, else uncolored (-1).
    """
    u = rng.random(size)
    cols = np.full(size, -1, dtype=np.int64)
    if p1 > 0:
        c = np.floor((u - b_prob) / p1)
        np.copyto(cols, c, casting="unsafe", where=c < r1)
    cols[u < b_prob] = r1
    return cols


def _stage_one_labels(cols: np.ndarray, r1: int) -> np.ndarray:
    """Count-matrix columns back to stage-one labels."""
    c1 = cols.astype(np.int32)
    c1[cols == r1] = RESERVOIR
    c1[cols < 0] = UNCOLORED
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


def _move(g: Graph, counts: np.ndarray, labels: np.ndarray, w: int,
          new: int) -> np.ndarray:
    """Give vertex `w` the count-matrix column `new`, in `labels` and `counts`.

    Column -1 (uncolored) is not counted, on either side. w's neighbors are
    distinct, so each of its count entries changes once, by plain fancy
    indexing. Returns the flat indices (row * ncols + col) of the entries
    it changed.
    """
    old = int(labels[w])
    labels[w] = new
    slots = g.neighbors(w) * counts.shape[1]
    flat = counts.reshape(-1)  # a view: counts is C-contiguous
    dec, inc = slots + old, slots + new
    if old >= 0:
        flat[dec] -= 1
    if new < 0:
        return dec
    flat[inc] += 1
    return np.concatenate((dec, inc)) if old >= 0 else inc


def _least_collateral(g: Graph, counts: np.ndarray, labels: np.ndarray,
                      cand: np.ndarray, lo: np.ndarray) -> int:
    """The candidate whose move out of its column breaks the fewest entries.

    Moving w out of column c decrements counts[u, c] for each neighbor u of
    w; an entry counts as broken when it held at most `lo[c]`, the bottom of
    its window. Ties go to the first candidate, and one that breaks nothing
    ends the search.
    """
    best_w, best_score = -1, None
    for w in cand.tolist():
        c = int(labels[w])
        created = (np.count_nonzero(counts[g.neighbors(w), c] <= lo[c])
                   if c >= 0 else 0)  # leaving "uncolored" changes no count
        if best_score is None or created < best_score:
            best_w, best_score = w, created
            if created == 0:
                break
    return best_w


def _repair(g: Graph, counts: np.ndarray, labels: np.ndarray, v: int,
            col: int, group: np.ndarray, others: np.ndarray, lo: np.ndarray,
            hi: np.ndarray) -> np.ndarray | None:
    """Move one vertex of `group` to bring counts[v, col] toward its window.

    At or above hi[col], a vertex in `col` moves out, into the column of
    `others` where v has the fewest neighbors (the first on ties); below
    lo[col], a vertex outside `col` moves in. `_least_collateral` picks
    which. Returns the flat indices of the count entries the move changed,
    or None when no vertex of `group` can move, or no column of `others`
    can take it.
    """
    if counts[v, col] >= hi[col]:
        if others.size == 0:
            return None
        cand = group[labels[group] == col]
        target = int(others[np.argmin(counts[v, others])])
    else:
        cand = group[labels[group] != col]
        target = col
    if cand.size == 0:
        return None
    return _move(g, counts, labels,
                 _least_collateral(g, counts, labels, cand, lo), target)


class _BadEvents:
    """The count entries outside their column's window, kept current.

    Entry (v, c) holding x is violated when x < lo[c] or x >= hi[c]. One
    full test seeds the flags; after that `update` re-tests only the entries
    a move touched. Violated indices sit in a min-heap whose stale entries
    are dropped lazily, so `lowest` returns the first violated index a full
    rescan would find.
    """

    def __init__(self, counts: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        self._flat = counts.reshape(-1)  # a view: counts is C-contiguous
        self._lo, self._hi = lo, hi
        self._flags = ((counts < lo) | (counts >= hi)).reshape(-1)
        self._heap = np.flatnonzero(self._flags).tolist()  # sorted: a heap

    def lowest(self) -> int | None:
        """Lowest violated flat index, or None when every entry is in bounds."""
        heap, flags = self._heap, self._flags
        while heap and not flags[heap[0]]:
            heapq.heappop(heap)
        return heap[0] if heap else None

    def update(self, touched: np.ndarray) -> None:
        """Re-test the entries at `touched` after their counts changed."""
        x, col = self._flat[touched], touched % self._lo.size
        now = (x < self._lo[col]) | (x >= self._hi[col])
        # an index repeated in `touched` may be pushed twice; `lowest` skips
        # the copy left behind once it is cleared
        for idx in touched[now & ~self._flags[touched]].tolist():
            heapq.heappush(self._heap, idx)
        self._flags[touched] = now

    def count(self) -> int:
        """Number of violated entries."""
        return int(np.count_nonzero(self._flags))


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
    events = _BadEvents(counts, lo, hi)
    # where a repair may move a vertex out of column c: any other column
    others = [np.flatnonzero(np.arange(ncols) != c) for c in range(ncols)]
    cap = max_resamples if max_resamples is not None else RESAMPLE_FACTOR * n
    resamples = 0
    while (idx := events.lowest()) is not None:
        v, col = divmod(idx, ncols)
        resamples += 1
        if resamples > cap:
            raise ResampleBudgetExhausted(
                f"stage one: {events.count()} bad events after {cap} resamples")
        touched = _repair(g, counts, cols, v, col, g.neighbors(v), others[col],
                          lo, hi)
        if touched is None:
            raise ResampleBudgetExhausted(
                f"stage one: event (v={v}, column={col}) has no movable "
                f"neighbor, {events.count()} bad events after "
                f"{resamples - 1} repairs")
        events.update(touched)
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
    events = _BadEvents(counts, lo, hi)
    # where a repair may move a vertex out of class k: its color's other classes
    blocks = np.arange(d_star).reshape(r1, r2)
    others = [row[row != k] for row in blocks for k in row.tolist()]
    cap = max_resamples if max_resamples is not None else RESAMPLE_FACTOR * n
    resamples = 0
    while (idx := events.lowest()) is not None:
        v, cls = divmod(idx, d_star)
        c = cls // r2
        resamples += 1
        if resamples > cap:
            raise ResampleBudgetExhausted(
                f"stage two: {events.count()} bad events after {cap} resamples")
        nbrs = g.neighbors(v)
        members = nbrs[c1[nbrs] == c]
        if members.size == 0:
            raise ResampleBudgetExhausted(
                f"stage two: event (v={v}, class={cls}) has no {c}-colored "
                f"neighbors to resample")
        touched = _repair(g, counts, labels, v, cls, members, others[cls], lo, hi)
        if touched is None:
            raise ResampleBudgetExhausted(
                f"stage two: event (v={v}, class={cls}) has no movable neighbor")
        events.update(touched)
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
    representatives = classes.lowest()
    for i, reps in enumerate(representatives):
        if len(reps) > comp_bound:
            raise PostconditionViolation(
                "component-count", witness=i,
                detail=f"set {i} has {len(reps)} components, bound {comp_bound:.3f}")

    return DominatingFamily(
        reservoir=reservoir.tolist(),
        sets=sets,
        representatives=representatives,
    )
