import math

import numpy as np
import pytest

from cdspack import derive_params
from cdspack.errors import InfeasibleParameters


def test_theory_gate_rejects():
    # D = floor(0.1^4 * 1e4 / 3600) = 0 < 3
    with pytest.raises(InfeasibleParameters, match="D = 0"):
        derive_params(10**6, 10**4, 100.0, 0.1, "theory")


def test_theory_gate_accepts():
    pars = derive_params(10**7, 3 * 10**5, 1100.0, 0.8, "theory")
    assert pars.D == 3
    d = 3 * 10**5
    assert pars.d_star_target == math.floor(0.2 * d / math.log(d)) == 4757
    assert pars.r1 * pars.r2 == pars.d_star
    assert pars.m == math.ceil(1100.0 * 10**7 / d) + 1
    assert pars.s == 10**7 - 2 * pars.D * pars.m - 3 * pars.m
    assert pars.s > 0


def test_grid_reconciliation_and_probabilities():
    pars = derive_params(5000, 64, 17.0, 0.3, "practice")
    assert pars.r1 * pars.r2 == pars.d_star
    assert pars.r2 == round(math.log(64))
    assert pars.p1 == pytest.approx((1 - 0.09) / pars.r1)
    assert pars.p2 == pytest.approx(1 / pars.r2)
    assert pars.b_prob == pytest.approx(0.09)
    assert 0 < pars.p1 <= 1


def test_s_nonpositive_always_errors():
    # theory mode: m = ceil(50*200/60)+1 = 168 makes s = 200 - 3*168 < 0, and
    # the empty forest budget is reported ahead of D = 0 < 3
    with pytest.raises(InfeasibleParameters, match="s = -304 <= 0"):
        derive_params(200, 60, 50.0, 0.9, "theory")


def test_monotonicity_in_lambda():
    prev = None
    for lam in [5.0, 10.0, 20.0]:
        pars = derive_params(10**6, 10**5, lam, 0.5, "theory")
        assert pars.D == math.floor(0.5 ** 4 * 10**5 / (36 * lam)) >= 6
        if prev is not None:
            assert pars.D <= prev
        prev = pars.D


def test_theory_mode_has_no_defaults():
    pars = derive_params(10**7, 3 * 10**5, 1100.0, 0.8, "theory")
    assert pars.D == 3 and pars.m == math.ceil(1100.0 * 10**7 / (3 * 10**5)) + 1
    assert pars.warnings == []


def test_input_validation():
    with pytest.raises(ValueError):
        derive_params(10, 10, 1.0, 0.5)
    with pytest.raises(ValueError):
        derive_params(100, 10, -1.0, 0.5)
    with pytest.raises(ValueError):
        derive_params(100, 10, 1.0, 1.5)
    with pytest.raises(ValueError):
        derive_params(100, 10, 1.0, 0.5, mode="rehearsal")


def test_practice_leaves_m_d_s_unset():
    # n=5000, d=64, lam=17: the theory formulas would give D = 0 and m = 1330
    pars = derive_params(5000, 64, 17.0, 0.3, "practice")
    assert (pars.m, pars.D, pars.s) == (None, None, None)
    assert pars.warnings == []
    # m = 168 would make the forest budget s negative; practice has none
    pars = derive_params(200, 60, 50.0, 0.9, "practice")
    assert pars.s is None and pars.d_star >= 1


def test_json_round_trip_keys():
    # one report shape in both modes: practice reports m, D and s as null
    for mode in ("practice", "theory"):
        pars = derive_params(10**7, 3 * 10**5, 1100.0, 0.8, mode)
        blob = pars.to_json()
        assert set(blob) == {"epsilon", "d_star", "r1", "r2", "p1", "p2",
                             "b_prob", "m", "D", "s", "mode", "n", "d",
                             "lambda_used", "d_star_target", "warnings"}
        assert (blob["m"], blob["D"], blob["s"]) == (pars.m, pars.D, pars.s)


@pytest.mark.parametrize("epsilon", [0.1, 0.3, 0.9, 0.999])
def test_theory_grid_outgrows_the_degree_wherever_the_gate_passes(epsilon):
    # lambda = 1 is the least lambda of a graph with an edge, and n = d + 1
    # the least n. The gate needs D >= 3, so d >= 108 / epsilon^4 > 108, and
    # then d_star >= r2 = round(ln^5 d) > d up to d = 332104: stage two's
    # band asks each vertex to see d_star classes with d neighbours, so no
    # theory run at these degrees colours its way to the connector
    grid = set(np.geomspace(3, 332104, 400).astype(int).tolist())
    for d in sorted(grid | {108, 109, 110, 332104}):
        try:
            pars = derive_params(d + 1, d, 1.0, epsilon, "theory")
        except InfeasibleParameters:
            continue
        assert pars.d_star > d, (d, pars.d_star)
