import math
import re

import numpy as np
import pytest

from cdspack import (binomial_random, build_family, derive_params,
                     lambda_bound, random_regular, stage_one)
from cdspack.coloring import (_STAGE1_TAG, RESAMPLE_FACTOR, RESERVOIR,
                              ColorAssignment, _draw_columns,
                              _neighbor_counts, stage_one_thresholds)
from cdspack.errors import PostconditionViolation, ResampleBudgetExhausted
from cdspack.params import PackingParams
from cdspack.rand import rng_for


def practice_params(n, d, eps=0.4):
    return derive_params(n, d, 2 * math.sqrt(d - 1) * 1.05, eps, "practice")


# Reference loop: the repair as it was before violations were tracked
# incrementally, rescanning the whole count matrix after every repair. It
# uses its own copies of the label draw, the label-to-column map, the count
# shift and the repair, so the module's loop is checked against independent
# code: it must pick the same events in the same order, stop at the same
# step and end with the same labels.

def draw_labels(rng, size, b_prob, k):
    u = rng.random(size)
    out = np.full(size, RESERVOIR, dtype=np.int32)
    rest = u >= b_prob
    c = np.floor((u[rest] - b_prob) / ((1 - b_prob) / k)).astype(np.int64)
    out[rest] = np.minimum(c, k - 1)  # rounding may reach k
    return out


def column_labels(labels, k):
    lab = labels.astype(np.int64).copy()
    lab[labels == RESERVOIR] = k
    return lab


def shift_counts(g, counts, verts, old, new):
    nbrs = np.concatenate([g.neighbors(v) for v in verts.tolist()]
                          or [np.empty(0, dtype=np.int64)])
    degs = g.degrees[verts]
    np.subtract.at(counts, (nbrs, np.repeat(old, degs)), 1)
    np.add.at(counts, (nbrs, np.repeat(new, degs)), 1)


def repair_column(g, counts, labels, v, col, lo, k):
    """Move one neighbor of v into column col; returns (w, its old column),
    or None when no neighbor can move."""
    nbrs = g.neighbors(v).astype(np.int64)
    cand = nbrs[column_labels(labels[nbrs], k) != col]
    if cand.size == 0:
        return None

    def broken(w):
        # entries of w's old column that its move leaves below their bound
        old = int(column_labels(labels[[w]], k)[0])
        return sum(1 for u in g.neighbors(w).tolist()
                   if counts[u, old] - 1 < lo[old])

    w = min(cand.tolist(), key=lambda w: (broken(w), w))
    old = column_labels(labels[[w]], k)
    labels[w] = RESERVOIR if col == k else col
    shift_counts(g, counts, np.asarray([w]), old, np.asarray([col]))
    return w, int(old[0])


def reference_stage_one(g, params, seed, thresholds=None, max_resamples=None):
    n, k = g.n, params.d_star
    labels = draw_labels(rng_for(seed, _STAGE1_TAG), n, params.b_prob, k)
    lo = thresholds if thresholds is not None else stage_one_thresholds(params)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (k + 1,))
    counts = _neighbor_counts(g, column_labels(labels, k), k + 1)
    cap = max_resamples if max_resamples is not None else RESAMPLE_FACTOR * n
    resamples, undo = 0, None
    while True:
        flat = np.flatnonzero((counts < lo).ravel())
        if flat.size == 0:
            break
        v, col = divmod(int(flat[0]), k + 1)
        resamples += 1
        if resamples > cap:
            raise ResampleBudgetExhausted(
                f"stage one: {flat.size} bad events after {cap} resamples")
        moved = repair_column(g, counts, labels, v, col, lo, k)
        if moved is None:
            raise ResampleBudgetExhausted(
                f"stage one: event (v={v}, column={col}) has no movable "
                f"neighbor, {flat.size} bad events after "
                f"{resamples - 1} repairs")
        w, old = moved
        if undo == (w, col):
            raise ResampleBudgetExhausted(
                f"stage one: repair {resamples} moves vertex {w} back to "
                f"column {col}, undoing repair {resamples - 1}: a cycle of "
                f"length 2, {flat.size} bad events left")
        undo = (w, old)
    return ColorAssignment(labels=labels, resamples=resamples)


def assert_matches_reference(g, pars, seed, th=None):
    """The coloring against the reference loop; returns the assignment."""
    got = stage_one(g, pars, seed, thresholds=th)
    ref = reference_stage_one(g, pars, seed, thresholds=th)
    assert got.labels.dtype == ref.labels.dtype
    assert np.array_equal(got.labels, ref.labels)
    assert got.resamples == ref.resamples
    return got


def bad_event_count(exc_info) -> int:
    found = re.search(r"(\d+) bad events (after|left)", str(exc_info.value))
    assert found, str(exc_info.value)
    return int(found.group(1))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_neighbor_counts_match_per_vertex_count(seed):
    # uneven degrees and isolated vertices
    g = binomial_random(300, 0.01, seed)
    assert (g.degrees == 0).any()
    rng = np.random.default_rng(seed)
    for ncols in (1, 3, 8):
        labels = rng.integers(0, ncols, g.n)
        counts = _neighbor_counts(g, labels, ncols)
        assert counts.shape == (g.n, ncols) and counts.flags.c_contiguous
        for v in range(g.n):
            row = [0] * ncols
            for w in g.neighbors(v).tolist():
                row[labels[w]] += 1
            assert counts[v].tolist() == row


# repairs of the module's loop, equal to the reference's and to those of
# the same thresholds before the loop aborted at a 2-cycle, which none of
# these converging runs enters
PARITY_REPAIRS = {
    (3000, 16): (410, 380, 362), (1500, 32): (112, 96, 59),
    (1500, 64): (83, 49, 49), (3000, 256): (5, 12, 6),
}


@pytest.mark.parametrize("n,d", [(3000, 16), (1500, 32), (1500, 64), (3000, 256)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_practice_stages_match_full_rescan(n, d, seed):
    g = random_regular(n, d, seed)
    got = assert_matches_reference(g, practice_params(n, d), seed)
    assert got.resamples == PARITY_REPAIRS[n, d][seed - 1]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_non_regular_graph_matches_full_rescan(seed):
    # G(n, p) with mean degree 20: neighborhoods differ in size, so each
    # repair moves a different number of count slots per vertex
    g = binomial_random(2000, 0.01, seed)
    assert g.regular_degree() is None and g.degrees.min() > 0
    pars = practice_params(2000, 20)
    # bounds that every vertex's degree can meet: one neighbor in each class
    # and one in the reservoir
    th = np.ones(pars.d_star + 1)
    got = assert_matches_reference(g, pars, seed, th)
    assert got.resamples > 0


class _AlmostOne:
    """A generator whose every uniform is the largest double below 1."""

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))


def test_draw_never_leaves_a_vertex_uncolored():
    # pack's (20000, 256) classes at eps = 0.4, 24 of them: (u - b_prob) / p1
    # rounds up to 24 for u just below 1; such a draw takes the last class
    # instead of the reservoir's column
    pars = derive_params(20000, 256, 30.0, 0.4, "practice")
    assert pars.d_star == pars.r1 == 24
    cols = _draw_columns(_AlmostOne(), 3, pars.b_prob, pars.p1, pars.d_star)
    assert cols.tolist() == [23, 23, 23]


def test_stage_one_degenerate_single_color():
    g = random_regular(200, 12, 0)
    pars = PackingParams(epsilon=0.4, r1=1, r2=1, m=2, D=8, s=150,
                         mode="practice", n=200, d=12)
    out = stage_one(g, pars, 5)
    assert set(np.unique(out.labels)) <= {RESERVOIR, 0}


def test_stage_one_deterministic():
    g = random_regular(300, 10, 2)
    pars = practice_params(300, 10)
    a = stage_one(g, pars, 11)
    b = stage_one(g, pars, 11)
    assert np.array_equal(a.labels, b.labels)
    c = stage_one(g, pars, 12)
    assert not np.array_equal(a.labels, c.labels)


def test_stage_one_postcondition_audit():
    g = random_regular(600, 16, 3)
    pars = practice_params(600, 16)
    out = stage_one(g, pars, 1)
    k = pars.d_star
    counts = _neighbor_counts(g, column_labels(out.labels, k), k + 1)
    lo = stage_one_thresholds(pars)
    # each class at least floor(eps^2 ln d) + 1 times, the reservoir eps^2 d / 2
    assert lo.tolist() == [1.0] * k + [pars.b_prob * pars.d / 2]
    assert (counts >= lo).all()


def test_stage_one_impossible_thresholds_exhaust():
    g = random_regular(60, 4, 1)
    pars = practice_params(60, 4)
    th = np.full(pars.d_star + 1, 10.0)  # degree is 4: unattainable
    with pytest.raises(ResampleBudgetExhausted) as got:
        stage_one(g, pars, 1, thresholds=th, max_resamples=200)
    with pytest.raises(ResampleBudgetExhausted) as want:
        reference_stage_one(g, pars, 1, thresholds=th, max_resamples=200)
    # every vertex violates every column, whatever the labels
    assert bad_event_count(got) == bad_event_count(want) == 60 * (pars.d_star + 1)
    assert str(got.value) == str(want.value)


def test_practice_stage_one_no_movable_neighbor():
    g = random_regular(60, 4, 1)
    pars = practice_params(60, 4)
    k = pars.d_star
    # five reservoir neighbors out of four: vertex 0's repairs move its
    # neighbors into the reservoir until none is left to move
    th = np.array([0.0] * k + [5.0])
    with pytest.raises(ResampleBudgetExhausted) as got:
        stage_one(g, pars, 1, thresholds=th)
    with pytest.raises(ResampleBudgetExhausted) as want:
        reference_stage_one(g, pars, 1, thresholds=th)
    assert f"event (v=0, column={k}) has no movable neighbor" in str(got.value)
    assert bad_event_count(got) == 60
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("n,d,k,step", [(5000, 64, 16, 1083), (50000, 16, 5, 6197)])
def test_repair_aborts_at_an_exact_two_cycle(n, d, k, step):
    # more classes than these graphs pack: the repairs reach a move that
    # undoes the one before it, which the 100 * n cap took 15000 and more
    # repairs to end; the abort ends them in fewer than n
    g = random_regular(n, d, 1)
    pars = PackingParams(epsilon=0.3, r1=k, r2=1, mode="practice", n=n, d=d)
    with pytest.raises(ResampleBudgetExhausted) as got:
        stage_one(g, pars, 1)
    found = re.search(r"repair (\d+) moves vertex \d+ back to column \d+, "
                      r"undoing repair (\d+): a cycle of length 2", str(got.value))
    assert found, str(got.value)
    assert (int(found.group(1)), int(found.group(2))) == (step, step - 1)
    assert step < n
    if n == 5000:
        with pytest.raises(ResampleBudgetExhausted) as want:
            reference_stage_one(g, pars, 1)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_practice_stage_one_converges_in_sparse_regime(seed):
    # at d = 8 the reservoir bound asks for a count that a fifth of the
    # vertices miss, and resampling all of N(v) broke about as many events
    # as it fixed: these runs spent their whole 100 * n budget and failed.
    # One-vertex repairs settle in fewer steps than there are vertices.
    g = random_regular(3000, 8, seed)
    pars = practice_params(3000, 8)
    out = stage_one(g, pars, seed, max_resamples=g.n - 1)
    k = pars.d_star
    counts = _neighbor_counts(g, column_labels(out.labels, k), k + 1)
    assert (counts >= stage_one_thresholds(pars)).all()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pack_params_stage_one_converges_at_degree_eight(seed):
    # pack's own parameters (epsilon 0.3, its lambda bound): resampling took
    # 1155, 12470 and 3730 steps for these seeds
    g = random_regular(600, 8, 1)
    lam = lambda_bound(g).bound
    pars = derive_params(600, 8, lam, 0.3, "practice")
    out = stage_one(g, pars, seed, max_resamples=g.n - 1)
    k = pars.d_star
    counts = _neighbor_counts(g, column_labels(out.labels, k), k + 1)
    assert (counts >= stage_one_thresholds(pars)).all()


def test_sparse_gen_repair_counts():
    # the benchmark's sparse workload, pack --n 50000 --d 16 --seed 1: its
    # lambda bound and pack's epsilon give K = 3 classes; the two-stage
    # split (r1 = 1, r2 = 3) took 4503 + 887 repairs
    g = random_regular(50000, 16, 1)
    pars = derive_params(50000, 16, lambda_bound(g).bound, 0.3, "practice")
    assert (pars.r1, pars.r2) == (3, 1)
    out = stage_one(g, pars, 1)
    assert out.resamples == 4933
    assert build_family(g, out, pars).component_counts == [7, 3, 5]


def test_build_family_bullets_and_disjointness():
    g = random_regular(600, 16, 3)
    pars = practice_params(600, 16)
    fam = build_family(g, stage_one(g, pars, 1), pars)
    assert len(fam.sets) == pars.d_star
    seen = set(fam.reservoir)
    for members in fam.sets:
        assert not seen & set(members)
        seen |= set(members)
    # reservoir degrees, checked independently of the module's own counters
    b = set(fam.reservoir)
    need = pars.b_prob * pars.d / 2
    for v in range(g.n):
        assert sum(1 for w in g.neighbors(v).tolist() if w in b) >= need
    for members, k in zip(fam.sets, fam.component_counts):
        assert k <= 20 * g.n / (pars.epsilon ** 2 * pars.d)


def test_build_family_rejects_tampering():
    g = random_regular(600, 16, 3)
    pars = practice_params(600, 16)
    out = stage_one(g, pars, 1)
    # empty the reservoir into the first class
    out.labels = np.where(out.labels == RESERVOIR, 0, out.labels)
    with pytest.raises(PostconditionViolation, match="reservoir-degree"):
        build_family(g, out, pars)


def test_family_json_shape():
    g = random_regular(400, 16, 9)
    pars = practice_params(400, 16)
    fam = build_family(g, stage_one(g, pars, 3), pars)
    blob = fam.to_json()
    assert set(blob) == {"B", "sets", "component_counts"}
    assert len(blob["sets"]) == len(blob["component_counts"])
