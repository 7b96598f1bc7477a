import pytest

from cdspack import (brute_force_max_disjoint_cds, lambda_bound, petersen_graph,
                     pipeline, random_regular, verify_packing)


@pytest.mark.parametrize("n,d,seed,d_star", [
    (5000, 64, 1, 8), (5000, 64, 2, 8), (5000, 64, 3, 8), (20000, 16, 1, 3)])
def test_one_stage_packs_every_class(n, d, seed, d_star):
    # pack's defaults (epsilon 0.3): K = d_star classes in one coloring
    # stage, each connected into a verified set, as the two-stage split did
    g = random_regular(n, d, seed)
    result = pipeline.run(g, lambda_bound(g).bound, seed, 0.3)
    assert result.error is None, result.body.get("error")
    assert result.params.d_star == d_star
    assert (result.params.r1, result.params.r2) == (d_star, 1)
    assert result.body["coloring_attempts"] == 1
    assert result.body["connect"]["failed_sets"] == []
    assert len(result.packing.sets) == d_star
    assert verify_packing(g, result.packing).failures == []


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_petersen_packs_within_the_oracle(seed):
    # the two-stage coloring failed here at every seed: its repairs toggled
    # one vertex between two columns until the cap; one stage of K = 1 class
    # converges in a few repairs
    g = petersen_graph()
    result = pipeline.run(g, lambda_bound(g).bound, seed, 0.4)
    assert result.error is None, result.body.get("error")
    assert result.body["coloring_resamples"] < g.n
    assert verify_packing(g, result.packing).failures == []
    oracle, _ = brute_force_max_disjoint_cds(g)
    assert 1 <= len(result.packing.sets) <= oracle == 2
