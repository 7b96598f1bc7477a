"""Two-stage seeded random coloring with bad-event repair.

Stage one assigns every vertex to the reservoir (probability b_prob), to one
of r1 first-stage colors (probability p1 each), or leaves it uncolored (only
possible through floating-point edge cases, since b_prob + r1*p1 = 1). Stage
two refines each colored vertex with a uniform second-stage color in [r2].
Both stages loop while some neighborhood count violates its threshold,
always fixing the lexicographically lowest violated event, and split by mode
the same way:
  theory   - Moser-Tardos resampling: redraw the labels of every vertex the
             event depends on (all of N(v) in stage one, v's c-colored
             neighbors in stage two). Counts move only for the vertices
             whose label changed: for the others the decrement and
             increment would cancel.
  practice - minimum-collateral repair: move one neighbor w of v into the
             short column (or, for a count above a finite upper bound, out
             of the crowded one into v's emptiest column). w is the
             candidate whose move drops the fewest count entries below
             their bound, ties to the lowest id. At desk scale a resample
             breaks about as many events as it fixes, so resampling may
             never settle; a one-vertex repair does.
Violations are tracked incrementally: only the count entries of the moved
vertices' neighbors are re-tested, and the next event is still the lowest
violated one, exactly as a full rescan of the count matrix would pick it.

Thresholds by mode:
  theory   - stage one requires every count inside [(1-eps/2)E, (1+eps/2)E]
             with E = p1*d for colors and b_prob*d for the reservoir.
  practice - one-sided lower bounds only: reservoir counts must reach
             b_prob*d/2 (exactly the bound the output contract needs) and
             color counts max(r2, p1*d/2) (enough for stage two to have room
             to work). The two-sided windows have per-event failure
             probability near 1/2 at desk-scale d, so resampling would never
             terminate; callers may still pass explicit thresholds.

Stage two uses the same band in both modes: each (c, c') must appear in every
neighborhood strictly more than eps^2 * ln d times and strictly fewer than
20 * ln d times. At desk scale the lower bound reduces to "at least once",
which is exactly domination.

build_family labels all d_star classes in one `graph.label_components` call,
which gives both whether each class dominates and the lowest vertex of each
of its components; the connector takes those as its representatives.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass
from math import inf, log

import numpy as np

from .errors import PostconditionViolation, ResampleBudgetExhausted
# unused here, but perfbench/trace_pack.py wraps coloring.components_of
from .graph import components_of  # noqa: F401
from .graph import Graph, concat_neighbors, label_components
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
    `resamples` counts the resample or repair steps of this stage and the
    ones before it.
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


def _column_labels(c1: np.ndarray, r1: int) -> np.ndarray:
    """Map stage-one labels to count-matrix columns: colors 0..r1-1, reservoir r1."""
    lab = c1.astype(np.int64)
    lab[c1 == RESERVOIR] = r1
    lab[c1 == UNCOLORED] = -1
    return lab


def _stage_one_labels(cols: np.ndarray, r1: int) -> np.ndarray:
    """Inverse of `_column_labels`: count-matrix columns back to stage-one labels."""
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


def _relabel(g: Graph, counts: np.ndarray, labels: np.ndarray,
             verts: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Give `verts` the count-matrix columns `new`, in `labels` and in `counts`.

    Only the vertices whose column changes move counts. Returns the flat
    indices (row * ncols + col) of the count entries it changed, with
    repeats: one gather of the changed vertices' neighbor slots, one
    decrement at their old columns, one increment at their new ones. Column
    -1 (uncolored) is not counted.
    """
    old = labels[verts]
    moved = old != new
    if not moved.any():
        return np.empty(0, dtype=np.int64)
    verts, old, new = verts[moved], old[moved], new[moved]
    labels[verts] = new
    degs = g.degrees[verts]
    slots = concat_neighbors(g, verts) * counts.shape[1]
    dec = slots + old.repeat(degs)
    inc = slots + new.repeat(degs)
    if min(old.min(), new.min()) < 0:
        dec, inc = dec[(old >= 0).repeat(degs)], inc[(new >= 0).repeat(degs)]
    flat = counts.reshape(-1)  # a view: counts is C-contiguous
    np.subtract.at(flat, dec, 1)
    np.add.at(flat, inc, 1)
    return np.concatenate((dec, inc))


def _move(g: Graph, counts: np.ndarray, labels: np.ndarray, w: int,
          new: int) -> np.ndarray:
    """Give the one vertex `w` the count-matrix column `new` (>= 0).

    w's neighbors are distinct, so each of its count entries changes once,
    by plain fancy indexing. Returns the flat indices of the entries it
    changed, as `_relabel` does.
    """
    old = int(labels[w])
    labels[w] = new
    slots = g.neighbors(w) * counts.shape[1]
    flat = counts.reshape(-1)  # a view: counts is C-contiguous
    inc = slots + new
    flat[inc] += 1
    if old < 0:  # uncolored: not counted
        return inc
    dec = slots + old
    flat[dec] -= 1
    return np.concatenate((dec, inc))


def _least_collateral(g: Graph, counts: np.ndarray, labels: np.ndarray,
                      cand: np.ndarray, limits: np.ndarray) -> int:
    """The candidate whose move out of its column breaks the fewest entries.

    Moving w out of column c decrements counts[u, c] for each neighbor u of
    w; an entry counts as broken when it held at most `limits[c]`. Ties go
    to the first candidate, and one that breaks nothing ends the search.
    """
    best_w, best_score = -1, None
    for w in cand.tolist():
        c = int(labels[w])
        created = (np.count_nonzero(counts[g.neighbors(w), c] <= limits[c])
                   if c >= 0 else 0)  # leaving "uncolored" changes no count
        if best_score is None or created < best_score:
            best_w, best_score = w, created
            if created == 0:
                break
    return best_w


class _BadEvents:
    """The violated entries of a count matrix, kept current shift by shift.

    `test(values, flat)` says which entries at flat indices `flat`, holding
    `values`, violate their bounds. One full test seeds the flags; after
    that `update` re-tests only the entries a shift touched. Violated
    indices sit in a min-heap whose stale entries are dropped lazily, so
    `lowest` returns the first violated index a full rescan would find.
    """

    def __init__(self, counts: np.ndarray,
                 test: Callable[[np.ndarray, np.ndarray], np.ndarray]):
        self._flat = counts.reshape(-1)  # a view: counts is C-contiguous
        self._test = test
        self._flags = test(self._flat, np.arange(self._flat.size))
        self._heap = np.flatnonzero(self._flags).tolist()  # sorted: a heap

    def lowest(self) -> int | None:
        """Lowest violated flat index, or None when every entry is in bounds."""
        heap, flags = self._heap, self._flags
        while heap and not flags[heap[0]]:
            heapq.heappop(heap)
        return heap[0] if heap else None

    def update(self, touched: np.ndarray) -> None:
        """Re-test the entries at `touched` after their counts changed."""
        if touched.size == 0:
            return
        now = self._test(self._flat[touched], touched)
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
    e_color = params.p1 * params.d
    e_res = params.b_prob * params.d
    lo = np.empty(r1 + 1)
    hi = np.empty(r1 + 1)
    if params.mode == "theory":
        lo[:r1] = (1 - params.epsilon / 2) * e_color
        hi[:r1] = (1 + params.epsilon / 2) * e_color
        lo[r1] = (1 - params.epsilon / 2) * e_res
        hi[r1] = (1 + params.epsilon / 2) * e_res
    else:
        lo[:r1] = max(float(params.r2), e_color / 2)
        lo[r1] = e_res / 2
        hi[:] = inf
    return lo, hi


def stage_one(g: Graph, params: PackingParams, seed: int,
              thresholds: tuple | None = None,
              max_resamples: int | None = None) -> ColorAssignment:
    """Stage-one coloring: reservoir / first-stage colors, with repair.

    Fixes the lowest violated (v, c) until every neighborhood count sits
    inside its bounds: theory mode re-randomizes N(v), practice mode moves
    one neighbor of v into or out of column c (see the module docstring).
    `resamples` counts both kinds of step.
    """
    n = g.n
    r1 = params.r1
    ncols = r1 + 1
    rng = rng_for(seed, _STAGE1_TAG)
    b_prob, p1 = params.b_prob, params.p1
    cols = _draw_columns(rng, n, b_prob, p1, r1)
    lo, hi = thresholds if thresholds is not None else stage_one_thresholds(params)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (ncols,))
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (ncols,))
    # an integer count x falls below lo on a decrement iff x - 1 < lo,
    # that is iff x <= ceil(lo)
    limits = np.ceil(lo)
    counts = _neighbor_counts(g, cols, ncols)

    def out_of_bounds(x: np.ndarray, flat: np.ndarray) -> np.ndarray:
        col = flat % ncols
        return (x < lo[col]) | (x > hi[col])

    events = _BadEvents(counts, out_of_bounds)
    cap = max_resamples if max_resamples is not None else RESAMPLE_FACTOR * n
    resamples = 0
    while (idx := events.lowest()) is not None:
        v, col = divmod(idx, ncols)
        resamples += 1
        if resamples > cap:
            raise ResampleBudgetExhausted(
                f"stage one: {events.count()} bad events after {cap} resamples")
        w = g.neighbors(v)
        if params.mode == "theory":
            events.update(_relabel(g, counts, cols, w,
                                   _draw_columns(rng, w.size, b_prob, p1, r1)))
            continue
        if counts[v, col] > hi[col]:
            # move one neighbor out of the crowded column into v's emptiest
            # other one
            cand = w[cols[w] == col]
            target = int(np.argmin(np.where(np.arange(ncols) == col, inf,
                                            counts[v])))
        else:
            cand = w[cols[w] != col]
            target = col
        if cand.size == 0:
            raise ResampleBudgetExhausted(
                f"stage one: event (v={v}, column={col}) has no movable "
                f"neighbor, {events.count()} bad events after "
                f"{resamples - 1} repairs")
        events.update(_move(g, counts, cols,
                            _least_collateral(g, counts, cols, cand, limits),
                            target))
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

    Theory mode clears violations by re-randomizing the second-stage labels
    of all c-colored neighbors of v, which is the regime where the local
    lemma guarantees termination. At desk scale that cascade branches (one
    fixed zero-count creates tens of new ones a hop away), so practice mode
    instead repairs a violation by relabeling a single c-colored neighbor
    into the deficient class, chosen to create the fewest new violations.
    Stage-one labels are never touched in either mode.
    """
    n = g.n
    r1, r2 = stage1.r1, params.r2
    d_star = r1 * r2
    rng = rng_for(seed, _STAGE2_TAG)
    c1 = stage1.c1
    c2 = rng.integers(0, r2, size=n).astype(np.int32)
    c2[c1 < 0] = -1
    lo, hi = thresholds if thresholds is not None else stage_two_thresholds(params)

    labels = c1.astype(np.int64) * r2 + c2
    labels[c1 < 0] = -1
    counts = _neighbor_counts(g, labels, d_star)
    events = _BadEvents(counts, lambda x, flat: (x <= lo) | (x >= hi))
    # bad iff count <= lo, so a decrement breaks every entry at most lo + 1
    limits = np.full(d_star, lo + 1)
    cap = max_resamples if max_resamples is not None else RESAMPLE_FACTOR * n
    resamples = 0
    while (idx := events.lowest()) is not None:
        v, cls = idx // d_star, idx % d_star
        c = cls // r2
        resamples += 1
        if resamples > cap:
            raise ResampleBudgetExhausted(
                f"stage two: {events.count()} bad events after {cap} resamples")
        nbrs = g.neighbors(v).astype(np.int64)
        members = nbrs[c1[nbrs] == c]
        if members.size == 0:
            raise ResampleBudgetExhausted(
                f"stage two: event (v={v}, class={cls}) has no {c}-colored "
                f"neighbors to resample")
        if params.mode == "theory":
            c2[members] = rng.integers(0, r2, size=members.size).astype(np.int32)
            events.update(_relabel(g, counts, labels, members,
                                   c * r2 + c2[members].astype(np.int64)))
        else:
            events.update(_repair_event(g, counts, labels, c2, members, c, cls,
                                        r2, int(counts[v, cls]) >= hi, limits, v))
    return ColorAssignment(c1=c1, c2=c2, r1=r1, r2=r2,
                           resamples=stage1.resamples + resamples)


def _repair_event(g: Graph, counts: np.ndarray, labels: np.ndarray,
                  c2: np.ndarray, members: np.ndarray, c: int, cls: int,
                  r2: int, overfull: bool, limits: np.ndarray,
                  v: int) -> np.ndarray:
    """Flip one second-stage label to move counts[v, cls] toward its band.

    The flipped vertex is the candidate whose relabeling drops the fewest
    neighborhood counts to the lower threshold (ties to lowest id), so
    repairs rarely spawn new violations. Returns the flat indices of the
    count entries the flip changed, as `_move` does.
    """
    if overfull:
        cand = members[c2[members] == cls % r2]
        # move one vertex out of the crowded class into v's emptiest class
        target = int(np.argmin(counts[v, c * r2:(c + 1) * r2]))
    else:
        cand = members[c2[members] != cls % r2]
        target = cls % r2
    if cand.size == 0:
        raise ResampleBudgetExhausted(
            f"stage two: event (v={v}, class={cls}) has no movable neighbor")
    w = _least_collateral(g, counts, labels, cand, limits)
    c2[w] = target
    return _move(g, counts, labels, w, c * r2 + target)


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
    counts = _neighbor_counts(g, _column_labels(c1, r1), r1 + 1)
    res_need = params.b_prob * params.d / 2
    short = np.flatnonzero(counts[:, r1] < res_need)
    if short.size:
        v = int(short[0])
        raise PostconditionViolation(
            "reservoir-degree", witness=v,
            detail=f"vertex {v} has {int(counts[v, r1])} reservoir neighbors, "
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
