import math
import re

import numpy as np
import pytest

from cdspack import (binomial_random, build_family, derive_params,
                     lambda_bound, random_regular, stage_one, stage_two)
from cdspack.coloring import (_STAGE1_TAG, _STAGE2_TAG, RESAMPLE_FACTOR,
                              RESERVOIR, ColorAssignment, _draw_columns,
                              _neighbor_counts, stage_one_thresholds,
                              stage_two_thresholds)
from cdspack.errors import PostconditionViolation, ResampleBudgetExhausted
from cdspack.params import PackingParams
from cdspack.rand import rng_for


def practice_params(n, d, eps=0.4):
    return derive_params(n, d, 2 * math.sqrt(d - 1) * 1.05, eps, "practice")


# Reference loops: stage one and stage two as they were before violations were
# tracked incrementally, rescanning the whole count matrix after every
# repair. They use their own copies of the label draw, the label-to-column
# map, the count shift and the two repairs, so the module's loops are
# checked against independent code: they must pick the same events in the
# same order and end with the same labels.

def draw_stage1(rng, size, b_prob, p1, r1):
    u = rng.random(size)
    out = np.full(size, RESERVOIR, dtype=np.int32)
    rest = u >= b_prob
    c = np.floor((u[rest] - b_prob) / p1).astype(np.int64)
    out[rest] = np.minimum(c, r1 - 1)  # rounding may reach r1
    return out


def column_labels(c1, r1):
    lab = c1.astype(np.int64).copy()
    lab[c1 == RESERVOIR] = r1
    return lab


def shift_counts(g, counts, verts, old, new):
    nbrs = np.concatenate([g.neighbors(v) for v in verts.tolist()]
                          or [np.empty(0, dtype=np.int64)])
    degs = g.degrees[verts]
    rep_old = np.repeat(old, degs)
    rep_new = np.repeat(new, degs)
    dec = rep_old >= 0
    np.subtract.at(counts, (nbrs[dec], rep_old[dec]), 1)
    inc = rep_new >= 0
    np.add.at(counts, (nbrs[inc], rep_new[inc]), 1)


def repair_event(g, counts, labels, c2, members, c, cls, r2, overfull, lo, v):
    if overfull:
        # out into the emptiest other class of color c, ties to the lowest
        others = [x for x in range(r2) if x != cls % r2]
        cand = members[c2[members] == cls % r2] if others else members[:0]
        target = min(others, key=lambda x: (counts[v, c * r2 + x], x), default=None)
    else:
        cand = members[c2[members] != cls % r2]
        target = cls % r2
    if cand.size == 0:
        raise ResampleBudgetExhausted(
            f"stage two: event (v={v}, class={cls}) has no movable neighbor")
    best_w, best_score = -1, None
    for w in cand.tolist():
        old_cls = c * r2 + int(c2[w])
        created = int((counts[g.neighbors(w), old_cls] <= lo + 1).sum())
        if best_score is None or created < best_score:
            best_w, best_score = w, created
            if created == 0:
                break
    old = labels[[best_w]].copy()
    c2[best_w] = target
    labels[best_w] = c * r2 + target
    shift_counts(g, counts, np.asarray([best_w]), old, labels[[best_w]])


def repair_column(g, counts, c1, v, col, lo, hi, r1):
    """Move one neighbor of v into (or, over hi, out of) column col.

    Returns the branch taken, "over" or "under", or None when no neighbor
    can move.
    """
    nbrs = g.neighbors(v).astype(np.int64)
    cols = column_labels(c1[nbrs], r1)
    if counts[v, col] > hi[col]:
        branch = "over"
        cand = nbrs[cols == col]
        others = [c for c in range(r1 + 1) if c != col]
        target = min(others, key=lambda c: (counts[v, c], c))
    else:
        branch = "under"
        cand = nbrs[cols != col]
        target = col
    if cand.size == 0:
        return None

    def broken(w):
        # entries of w's old column that its move leaves below their bound
        old = int(column_labels(c1[[w]], r1)[0])
        return sum(1 for u in g.neighbors(w).tolist()
                   if counts[u, old] - 1 < lo[old])

    w = min(cand.tolist(), key=lambda w: (broken(w), w))
    old = column_labels(c1[[w]], r1)
    c1[w] = RESERVOIR if target == r1 else target
    shift_counts(g, counts, np.asarray([w]), old, np.asarray([target]))
    return branch


def reference_stage_one(g, params, seed, thresholds=None, max_resamples=None,
                        branches=None):
    """Repairs one neighbor of v per event; the branch of every repair is
    appended to `branches` if given."""
    n, r1 = g.n, params.r1
    c1 = draw_stage1(rng_for(seed, _STAGE1_TAG), n, params.b_prob, params.p1, r1)
    lo, hi = thresholds if thresholds is not None else stage_one_thresholds(params)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (r1 + 1,))
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (r1 + 1,))
    counts = _neighbor_counts(g, column_labels(c1, r1), r1 + 1)
    cap = max_resamples if max_resamples is not None else RESAMPLE_FACTOR * n
    resamples = 0
    while True:
        bad = (counts < lo) | (counts > hi)
        flat = np.flatnonzero(bad.ravel())
        if flat.size == 0:
            break
        v, col = divmod(int(flat[0]), r1 + 1)
        resamples += 1
        if resamples > cap:
            raise ResampleBudgetExhausted(
                f"stage one: {flat.size} bad events after {cap} resamples")
        branch = repair_column(g, counts, c1, v, col, lo, hi, r1)
        if branch is None:
            raise ResampleBudgetExhausted(
                f"stage one: event (v={v}, column={col}) has no movable "
                f"neighbor, {flat.size} bad events after "
                f"{resamples - 1} repairs")
        if branches is not None:
            branches.append(branch)
    return ColorAssignment(c1=c1, c2=None, r1=r1, r2=params.r2, resamples=resamples)


def reference_stage_two(g, stage1, params, seed, thresholds=None,
                        max_resamples=None):
    n = g.n
    r1, r2 = stage1.r1, params.r2
    d_star = r1 * r2
    c1 = stage1.c1
    c2 = rng_for(seed, _STAGE2_TAG).integers(0, r2, size=n).astype(np.int32)
    c2[c1 < 0] = -1
    lo, hi = thresholds if thresholds is not None else stage_two_thresholds(params)
    labels = c1.astype(np.int64) * r2 + c2
    labels[c1 < 0] = -1
    counts = _neighbor_counts(g, labels, d_star)
    cap = max_resamples if max_resamples is not None else RESAMPLE_FACTOR * n
    resamples = 0
    while True:
        bad = (counts <= lo) | (counts >= hi)
        flat = np.flatnonzero(bad.ravel())
        if flat.size == 0:
            break
        idx = int(flat[0])
        v, cls = idx // d_star, idx % d_star
        c = cls // r2
        resamples += 1
        if resamples > cap:
            raise ResampleBudgetExhausted(
                f"stage two: {flat.size} bad events after {cap} resamples")
        nbrs = g.neighbors(v).astype(np.int64)
        members = nbrs[c1[nbrs] == c]
        if members.size == 0:
            raise ResampleBudgetExhausted(
                f"stage two: event (v={v}, class={cls}) has no {c}-colored "
                f"neighbors to resample")
        repair_event(g, counts, labels, c2, members, c, cls, r2,
                     int(counts[v, cls]) >= hi, lo, v)
    return ColorAssignment(c1=c1, c2=c2, r1=r1, r2=r2,
                           resamples=stage1.resamples + resamples)


def assert_stages_match_reference(g, pars, seed, th1=None, th2=None):
    """Both stages, against the reference loops; returns the two assignments."""
    a1 = stage_one(g, pars, seed, thresholds=th1)
    ref1 = reference_stage_one(g, pars, seed, thresholds=th1)
    assert a1.c1.dtype == ref1.c1.dtype
    assert np.array_equal(a1.c1, ref1.c1)
    assert a1.resamples == ref1.resamples
    a2 = stage_two(g, a1, pars, seed, thresholds=th2)
    ref2 = reference_stage_two(g, ref1, pars, seed, thresholds=th2)
    assert np.array_equal(a2.c1, ref2.c1)
    assert np.array_equal(a2.c2, ref2.c2)
    assert a2.resamples == ref2.resamples
    return a1, a2


def seed_cases(plain, **named):
    """pytest params (seed, *case) for seeds 1-3: the `plain` case under the
    ids 1-3, and each named case under the ids name-1 to name-3."""
    return [pytest.param(seed, *case, id=f"{name}-{seed}" if name else str(seed))
            for name, case in [("", plain), *named.items()]
            for seed in (1, 2, 3)]


def bad_event_count(exc_info) -> int:
    found = re.search(r"(\d+) bad events after", str(exc_info.value))
    assert found, str(exc_info.value)
    return int(found.group(1))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_neighbor_counts_match_per_vertex_count(seed):
    # uneven degrees, isolated vertices and -1 labels (stage two's reservoir)
    g = binomial_random(300, 0.01, seed)
    assert (g.degrees == 0).any()
    rng = np.random.default_rng(seed)
    for ncols in (1, 3, 8):
        labels = rng.integers(-1, ncols, g.n)
        counts = _neighbor_counts(g, labels, ncols)
        assert counts.shape == (g.n, ncols) and counts.flags.c_contiguous
        for v in range(g.n):
            row = [0] * ncols
            for w in g.neighbors(v).tolist():
                if labels[w] >= 0:
                    row[labels[w]] += 1
            assert counts[v].tolist() == row


@pytest.mark.parametrize("n,d", [(3000, 16), (1500, 32), (1500, 64), (3000, 256)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_practice_stages_match_full_rescan(n, d, seed):
    g = random_regular(n, d, seed)
    a1, a2 = assert_stages_match_reference(g, practice_params(n, d), seed)
    if d != 32:
        # the first stage-two draw leaves some class counts outside the band
        # (at d = 16, classes missing from some neighborhoods), so stage two
        # runs its repair branch
        assert a2.resamples > a1.resamples


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_non_regular_graph_matches_full_rescan(seed):
    # G(n, p) with mean degree 20: neighborhoods differ in size, so each
    # resample moves a different number of count slots per vertex
    g = binomial_random(2000, 0.01, seed)
    assert g.regular_degree() is None and g.degrees.min() > 0
    pars = practice_params(2000, 20)
    # lenient stage-one bounds that every vertex's degree can meet: three
    # neighbors of each color, for stage two's classes, and one in reservoir
    th1 = (np.array([3.0] * pars.r1 + [1.0]), np.full(pars.r1 + 1, np.inf))
    a1, a2 = assert_stages_match_reference(g, pars, seed, th1)
    assert a1.resamples > 0 and a2.resamples > a1.resamples


class _AlmostOne:
    """A generator whose every uniform is the largest double below 1."""

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))


def test_draw_never_leaves_a_vertex_uncolored():
    # pack's (20000, 256) defaults: eps = 0.3 and r1 = 5, where
    # (u - b_prob) / p1 rounds up to 5 for u just below 1; such a draw takes
    # the last color instead of column -1
    pars = derive_params(20000, 256, 30.0, 0.3, "practice")
    assert pars.r1 == 5
    cols = _draw_columns(_AlmostOne(), 3, pars.b_prob, pars.p1, pars.r1)
    assert cols.tolist() == [4, 4, 4]


def test_stage_one_degenerate_single_color():
    g = random_regular(200, 12, 0)
    pars = PackingParams(epsilon=0.4, r1=1, r2=1, m=2, D=8, s=150,
                         mode="practice", n=200, d=12)
    out = stage_one(g, pars, 5)
    assert set(np.unique(out.c1)) <= {RESERVOIR, 0}


def test_stage_one_deterministic():
    g = random_regular(300, 10, 2)
    pars = practice_params(300, 10)
    a = stage_one(g, pars, 11)
    b = stage_one(g, pars, 11)
    assert np.array_equal(a.c1, b.c1)
    c = stage_one(g, pars, 12)
    assert not np.array_equal(a.c1, c.c1)


def test_stage_one_postcondition_audit():
    g = random_regular(600, 16, 3)
    pars = practice_params(600, 16)
    out = stage_one(g, pars, 1)
    counts = _neighbor_counts(g, column_labels(out.c1, pars.r1), pars.r1 + 1)
    lo, hi = stage_one_thresholds(pars)
    assert (counts >= lo).all()
    assert (counts <= hi).all()


def test_stage_one_impossible_thresholds_exhaust():
    g = random_regular(60, 4, 1)
    pars = practice_params(60, 4)
    lo = np.full(pars.r1 + 1, 10.0)  # degree is 4: unattainable
    th = (lo, np.full(pars.r1 + 1, np.inf))
    with pytest.raises(ResampleBudgetExhausted) as got:
        stage_one(g, pars, 1, thresholds=th, max_resamples=200)
    with pytest.raises(ResampleBudgetExhausted) as want:
        reference_stage_one(g, pars, 1, thresholds=th, max_resamples=200)
    # every vertex violates every column, whatever the labels
    assert bad_event_count(got) == bad_event_count(want) == 60 * (pars.r1 + 1)
    assert str(got.value) == str(want.value)


# finite upper bounds in practice mode, around E = 20.16 colored and 3.84
# reservoir neighbors: the first draw leaves counts on both sides, so
# repairs move neighbors out of a column as well as into one; the
# fractional bounds check the conversion of floats to integer windows
@pytest.mark.parametrize("seed,th1,th2", seed_cases(
    ((np.array([18.0, 1.0]), np.array([23.0, 7.0])), None),
    fractional=((np.array([17.5, 0.5]), np.array([23.5, 7.5])), (0.5, 14.5))))
def test_practice_over_bound_matches_full_rescan(seed, th1, th2):
    g = random_regular(400, 24, seed)
    pars = practice_params(400, 24)
    assert pars.r1 == 1
    branches = []
    reference_stage_one(g, pars, seed, thresholds=th1, branches=branches)
    assert {"over", "under"} <= set(branches)
    a1, _ = assert_stages_match_reference(g, pars, seed, th1, th2)
    counts = _neighbor_counts(g, column_labels(a1.c1, pars.r1), pars.r1 + 1)
    assert ((counts >= th1[0]) & (counts <= th1[1])).all()
    assert a1.resamples == len(branches)


def test_practice_stage_one_no_movable_neighbor():
    g = random_regular(60, 4, 1)
    pars = practice_params(60, 4)
    # five reservoir neighbors out of four: vertex 0's repairs move its
    # neighbors into the reservoir until none is left to move
    th = (np.array([0.0] * pars.r1 + [5.0]), np.full(pars.r1 + 1, np.inf))
    with pytest.raises(ResampleBudgetExhausted) as got:
        stage_one(g, pars, 1, thresholds=th)
    with pytest.raises(ResampleBudgetExhausted) as want:
        reference_stage_one(g, pars, 1, thresholds=th)
    assert f"event (v=0, column={pars.r1}) has no movable neighbor" in str(got.value)
    assert bad_event_count(got) == 60
    assert str(got.value) == str(want.value)


def test_practice_stage_one_exhausts_on_crossed_bounds():
    g = random_regular(400, 24, 1)
    pars = practice_params(400, 24)
    # at least five reservoir neighbors and at most four: every repair of
    # the lowest event undoes the last one, so only the cap ends the loop
    th = (np.array([0.0, 5.0]), np.array([np.inf, 4.0]))
    with pytest.raises(ResampleBudgetExhausted) as got:
        stage_one(g, pars, 1, thresholds=th, max_resamples=200)
    with pytest.raises(ResampleBudgetExhausted) as want:
        reference_stage_one(g, pars, 1, thresholds=th, max_resamples=200)
    assert "after 200 resamples" in str(got.value)
    assert bad_event_count(got) == 400
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
    counts = _neighbor_counts(g, column_labels(out.c1, pars.r1), pars.r1 + 1)
    assert (counts >= stage_one_thresholds(pars)[0]).all()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pack_params_stage_one_converges_at_degree_eight(seed):
    # pack's own parameters (epsilon 0.3, its lambda bound): resampling took
    # 1155, 12470 and 3730 steps for these seeds
    g = random_regular(600, 8, 1)
    lam = lambda_bound(g).bound
    pars = derive_params(600, 8, lam, 0.3, "practice")
    out = stage_one(g, pars, seed, max_resamples=g.n - 1)
    counts = _neighbor_counts(g, column_labels(out.c1, pars.r1), pars.r1 + 1)
    assert (counts >= stage_one_thresholds(pars)[0]).all()


def test_sparse_gen_repair_counts():
    # the benchmark's sparse workload, pack --n 50000 --d 16 --seed 1: its
    # lambda bound and pack's epsilon give r1 = 1, r2 = 3
    g = random_regular(50000, 16, 1)
    pars = derive_params(50000, 16, lambda_bound(g).bound, 0.3, "practice")
    a1 = stage_one(g, pars, 1)
    a2 = stage_two(g, a1, pars, 1)
    assert (a1.resamples, a2.resamples - a1.resamples) == (4503, 887)


def test_stage_two_impossible_band_exhausts():
    g = random_regular(300, 12, 4)
    pars = practice_params(300, 12)
    a1 = stage_one(g, pars, 2, thresholds=(np.zeros(pars.r1 + 1),
                                           np.full(pars.r1 + 1, np.inf)))
    # bad iff count <= -1 or count >= 1: only an empty class is in band, and
    # every vertex has colored neighbors, so no relabeling can clear it
    th = (-1.0, 1.0)
    with pytest.raises(ResampleBudgetExhausted) as got:
        stage_two(g, a1, pars, 2, thresholds=th, max_resamples=40)
    with pytest.raises(ResampleBudgetExhausted) as want:
        reference_stage_two(g, a1, pars, 2, thresholds=th, max_resamples=40)
    assert "after 40 resamples" in str(got.value)
    assert bad_event_count(got) == bad_event_count(want) > 0
    assert str(got.value) == str(want.value)


def test_stage_two_single_class_color_cannot_repair_overfull():
    # with r2 = 1 an over-full class has no other class of its color to move
    # a vertex into: the repair stops at the first event rather than spin
    g = random_regular(300, 12, 4)
    pars = PackingParams(epsilon=0.4, r1=2, r2=1, mode="practice", n=300, d=12)
    a1 = stage_one(g, pars, 2, thresholds=(np.zeros(3), np.full(3, np.inf)))
    th = (-1.0, 1.0)
    with pytest.raises(ResampleBudgetExhausted) as got:
        stage_two(g, a1, pars, 2, thresholds=th, max_resamples=40)
    with pytest.raises(ResampleBudgetExhausted) as want:
        reference_stage_two(g, a1, pars, 2, thresholds=th, max_resamples=40)
    assert str(got.value) == str(want.value) == (
        "stage two: event (v=0, class=0) has no movable neighbor")


def test_stage_two_preserves_stage_one():
    g = random_regular(600, 16, 3)
    pars = practice_params(600, 16)
    a1 = stage_one(g, pars, 1)
    c1_before = a1.c1.copy()
    a2 = stage_two(g, a1, pars, 1)
    assert np.array_equal(a2.c1, c1_before)
    colored = a2.c1 >= 0
    assert (a2.c2[colored] >= 0).all()
    assert (a2.c2[colored] < pars.r2).all()
    assert (a2.c2[~colored] == -1).all()


def test_stage_two_r2_one_is_identity_relabel():
    g = random_regular(200, 12, 0)
    pars = PackingParams(epsilon=0.4, r1=2, r2=1, m=2, D=8, s=150,
                         mode="practice", n=200, d=12)
    # lenient stage-one bounds: just per-color coverage, so that the r2=1
    # band (count >= 1 per class) is already satisfied going in
    lo = np.array([1.0, 1.0, 0.0])
    a1 = stage_one(g, pars, 5, thresholds=(lo, np.full(3, np.inf)))
    a2 = stage_two(g, a1, pars, 5)
    colored = a2.c1 >= 0
    assert set(np.unique(a2.c2[colored])) == {0}
    assert a2.resamples == a1.resamples  # no second-stage work possible


def test_stage_two_deterministic():
    g = random_regular(400, 16, 9)
    pars = practice_params(400, 16)
    a = stage_two(g, stage_one(g, pars, 3), pars, 3)
    b = stage_two(g, stage_one(g, pars, 3), pars, 3)
    assert np.array_equal(a.c2, b.c2)


def test_stage_two_band_audit():
    g = random_regular(600, 16, 3)
    pars = practice_params(600, 16)
    a2 = stage_two(g, stage_one(g, pars, 1), pars, 1)
    labels = a2.c1.astype(np.int64) * pars.r2 + a2.c2
    labels[a2.c1 < 0] = -1
    counts = _neighbor_counts(g, labels, pars.d_star)
    lo, hi = stage_two_thresholds(pars)
    assert (counts > lo).all()
    assert (counts < hi).all()


def test_build_family_bullets_and_disjointness():
    g = random_regular(600, 16, 3)
    pars = practice_params(600, 16)
    fam = build_family(g, stage_two(g, stage_one(g, pars, 1), pars, 1), pars)
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
    a2 = stage_two(g, stage_one(g, pars, 1), pars, 1)
    # empty the reservoir into the first class
    emptied = a2.c1 == RESERVOIR
    a2.c1, a2.c2 = np.where(emptied, 0, a2.c1), np.where(emptied, 0, a2.c2)
    with pytest.raises(PostconditionViolation, match="reservoir-degree"):
        build_family(g, a2, pars)


def test_family_json_shape():
    g = random_regular(400, 16, 9)
    pars = practice_params(400, 16)
    fam = build_family(g, stage_two(g, stage_one(g, pars, 3), pars, 3), pars)
    blob = fam.to_json()
    assert set(blob) == {"B", "sets", "component_counts"}
    assert len(blob["sets"]) == len(blob["component_counts"])
